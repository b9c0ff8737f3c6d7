//! S1: static validation of scenario specs against the parameter schema
//! each experiment declares.
//!
//! The schema types live here (not in the harness) so the dependency
//! points one way: the harness registry declares `ParamSpec` tables and
//! hands them to the linter; the linter never needs to know what an
//! experiment *does*. Everything is const-constructible so registries
//! can be `static`.
//!
//! `Json::parse` has no source spans, so findings are anchored to the
//! first occurrence of the offending key in the raw text — exact enough
//! to click on, and stable.

use ehp_sim_core::json::Json;

use crate::findings::{Finding, Rule};

/// The type and legal range of one scenario parameter.
#[derive(Debug, Clone, Copy)]
pub enum ParamKind {
    /// Unsigned integer within `[min, max]`.
    U64 {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// Power of two within `[min, max]`, or 0 when `min` is 0 (the value
    /// that turns a feature off).
    PowerOfTwo {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
        /// `Some((other, default))`: no value may exceed a value of
        /// parameter `other`, which is `default` where a scenario leaves
        /// it unset.
        at_most: Option<(&'static str, u64)>,
    },
    /// Floating-point number within `[min, max]`.
    Num {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Boolean.
    Bool,
    /// One of a fixed set of strings.
    EnumStr(&'static [&'static str]),
}

impl ParamKind {
    /// Human rendering of the expected type/range, for messages.
    fn expect(&self) -> String {
        match self {
            ParamKind::U64 { min, max } if *max == u64::MAX => format!("integer >= {min}"),
            ParamKind::U64 { min, max } => format!("integer in {min}..={max}"),
            ParamKind::PowerOfTwo { min: 0, max, .. } => format!("0 or a power of two up to {max}"),
            ParamKind::PowerOfTwo { min, max, .. } => format!("power of two in {min}..={max}"),
            ParamKind::Num { min, max } if *max == f64::MAX => format!("number >= {min}"),
            ParamKind::Num { min, max } => format!("number in {min}..={max}"),
            ParamKind::Bool => "bool".to_string(),
            ParamKind::EnumStr(opts) => format!("one of {opts:?}"),
        }
    }

    /// Does `v` satisfy this kind?
    fn accepts(&self, v: &Json) -> bool {
        match self {
            ParamKind::U64 { min, max } => v.as_u64().is_some_and(|x| x >= *min && x <= *max),
            ParamKind::PowerOfTwo { min, max, .. } => v
                .as_u64()
                .is_some_and(|x| (x.is_power_of_two() || x == 0) && x >= *min && x <= *max),
            ParamKind::Num { min, max } => v.as_f64().is_some_and(|x| x >= *min && x <= *max),
            ParamKind::Bool => v.as_bool().is_some(),
            ParamKind::EnumStr(opts) => v.as_str().is_some_and(|s| opts.contains(&s)),
        }
    }
}

/// One declared scenario parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name as it appears in `params` / `sweep`.
    pub name: &'static str,
    /// Type and legal range.
    pub kind: ParamKind,
}

/// The parameter schema one experiment exports.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSchema {
    /// Experiment id (matches `Experiment::id`).
    pub id: &'static str,
    /// Declared parameters; anything else in a scenario is a finding.
    pub params: &'static [ParamSpec],
}

impl ExperimentSchema {
    fn find(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// Keys every scenario file may carry at the top level.
const TOP_KEYS: &[&str] = &["experiment", "name", "seed", "params", "sweep"];

/// 1-based line of the first `"key"` occurrence in `src` (0 if absent —
/// e.g. the finding is about a *missing* key).
fn line_of_key(src: &str, key: &str) -> u32 {
    let needle = format!("\"{key}\"");
    let Some(pos) = src.find(&needle) else {
        return 0;
    };
    (src[..pos].bytes().filter(|&b| b == b'\n').count() + 1) as u32
}

/// Validates one scenario spec file (raw text) against the experiment
/// schemas. A file holds either one spec object or an array of them
/// (mirroring `ScenarioSpec::parse_file`). Returns S1 findings; empty
/// means every spec is well-formed.
#[must_use]
pub fn validate_scenario(path: &str, src: &str, schemas: &[ExperimentSchema]) -> Vec<Finding> {
    let mut out = Vec::new();
    let json = match Json::parse(src) {
        Ok(j) => j,
        Err(e) => {
            out.push(Finding::new(
                Rule::ScenarioSchema,
                path,
                0,
                format!("not valid JSON: {e}"),
            ));
            return out;
        }
    };
    match json.as_arr() {
        Some(items) => {
            for item in items {
                validate_spec_obj(path, src, item, schemas, &mut out);
            }
        }
        None => validate_spec_obj(path, src, &json, schemas, &mut out),
    }
    crate::findings::sort_dedup(&mut out);
    out
}

/// Validates one spec object, appending findings.
fn validate_spec_obj(
    path: &str,
    src: &str,
    json: &Json,
    schemas: &[ExperimentSchema],
    out: &mut Vec<Finding>,
) {
    let mut fail = |line: u32, msg: String| {
        out.push(Finding::new(Rule::ScenarioSchema, path, line, msg));
    };
    let Some(obj) = json.as_obj() else {
        fail(0, "scenario spec must be a JSON object".to_string());
        return;
    };

    for key in obj.keys() {
        if !TOP_KEYS.contains(&key.as_str()) {
            fail(
                line_of_key(src, key),
                format!("unknown top-level key {key:?}; expected one of {TOP_KEYS:?}"),
            );
        }
    }

    let Some(exp_json) = obj.get("experiment") else {
        fail(0, "missing required key \"experiment\"".to_string());
        return;
    };
    let Some(exp_id) = exp_json.as_str() else {
        fail(
            line_of_key(src, "experiment"),
            "\"experiment\" must be a string".to_string(),
        );
        return;
    };
    let Some(schema) = schemas.iter().find(|s| s.id == exp_id) else {
        let known: Vec<&str> = schemas.iter().map(|s| s.id).collect();
        fail(
            line_of_key(src, "experiment"),
            format!("unknown experiment {exp_id:?}; known: {known:?}"),
        );
        return;
    };

    if let Some(name) = obj.get("name") {
        if name.as_str().is_none() {
            fail(
                line_of_key(src, "name"),
                "\"name\" must be a string".to_string(),
            );
        }
    }
    if let Some(seed) = obj.get("seed") {
        if seed.as_u64().is_none() {
            fail(
                line_of_key(src, "seed"),
                "\"seed\" must be an unsigned integer".to_string(),
            );
        }
    }

    // `params`: each key declared, each value in kind/range.
    if let Some(params) = obj.get("params") {
        match params.as_obj() {
            None => fail(
                line_of_key(src, "params"),
                "\"params\" must be an object".to_string(),
            ),
            Some(map) => {
                for (k, v) in map {
                    match schema.find(k) {
                        None => fail(
                            line_of_key(src, k),
                            format!(
                                "experiment {:?} has no parameter {k:?}; declared: {:?}",
                                schema.id,
                                schema.params.iter().map(|p| p.name).collect::<Vec<_>>()
                            ),
                        ),
                        Some(spec) if !spec.kind.accepts(v) => fail(
                            line_of_key(src, k),
                            format!(
                                "parameter {k:?} = {} does not match schema: expected {}",
                                v.to_string_compact(),
                                spec.kind.expect()
                            ),
                        ),
                        Some(_) => {}
                    }
                }
            }
        }
    }

    // `sweep`: maps a declared parameter to a non-empty array of
    // in-range values.
    if let Some(sweep) = obj.get("sweep") {
        match sweep.as_obj() {
            None => fail(
                line_of_key(src, "sweep"),
                "\"sweep\" must be an object of parameter -> value array".to_string(),
            ),
            Some(map) => {
                for (k, v) in map {
                    // An empty axis would expand to no scenarios at all.
                    if v.as_arr().is_some_and(|vs| vs.is_empty()) {
                        fail(line_of_key(src, k), format!("sweep axis {k:?} is empty"));
                    }
                    // `"seed"` is the documented seed fan-out axis, not a
                    // parameter: an array of unsigned integers.
                    if k == "seed" {
                        let ok = v
                            .as_arr()
                            .is_some_and(|vs| vs.iter().all(|x| x.as_u64().is_some()));
                        if !ok {
                            fail(
                                line_of_key(src, k),
                                "sweep axis \"seed\" must be an array of unsigned integers"
                                    .to_string(),
                            );
                        }
                        continue;
                    }
                    let Some(spec) = schema.find(k) else {
                        fail(
                            line_of_key(src, k),
                            format!(
                                "sweep over undeclared parameter {k:?} for experiment {:?}",
                                schema.id
                            ),
                        );
                        continue;
                    };
                    let Some(values) = v.as_arr() else {
                        fail(
                            line_of_key(src, k),
                            format!("sweep values for {k:?} must be an array"),
                        );
                        continue;
                    };
                    for bad in values.iter().filter(|x| !spec.kind.accepts(x)) {
                        fail(
                            line_of_key(src, k),
                            format!(
                                "sweep value {} for {k:?} does not match schema: expected {}",
                                bad.to_string_compact(),
                                spec.kind.expect()
                            ),
                        );
                    }
                }
            }
        }
    }

    // `at_most`: the largest value the spec gives a parameter, in
    // `params` or on its sweep axis, must not exceed the smallest it
    // gives the other one (or the other's default), so that every
    // scenario the spec expands to keeps the order.
    let values = |name: &str| {
        let set = obj.get("params").and_then(|p| p.get(name)).into_iter();
        let swept = obj
            .get("sweep")
            .and_then(|s| s.get(name))
            .and_then(Json::as_arr)
            .into_iter()
            .flatten();
        set.chain(swept)
            .filter_map(Json::as_u64)
            .collect::<Vec<u64>>()
    };
    for spec in schema.params {
        let ParamKind::PowerOfTwo {
            at_most: Some((other, default)),
            ..
        } = spec.kind
        else {
            continue;
        };
        let Some(&high) = values(spec.name).iter().max() else {
            continue;
        };
        let (limit, whose) = match values(other).iter().min() {
            Some(&v) => (v, ""),
            None => (default, ", its default"),
        };
        if high > limit {
            fail(
                line_of_key(src, spec.name),
                format!(
                    "parameter {:?} = {high} exceeds {other:?} = {limit}{whose}",
                    spec.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMAS: &[ExperimentSchema] = &[
        ExperimentSchema {
            id: "ic_sweep",
            params: &[
                ParamSpec {
                    name: "ic_mib",
                    kind: ParamKind::PowerOfTwo {
                        min: 0,
                        max: 4096,
                        at_most: None,
                    },
                },
                ParamSpec {
                    name: "jobs",
                    kind: ParamKind::U64 { min: 1, max: 64 },
                },
                ParamSpec {
                    name: "pattern",
                    kind: ParamKind::EnumStr(&["sequential", "random"]),
                },
                ParamSpec {
                    name: "write_fraction",
                    kind: ParamKind::Num { min: 0.0, max: 1.0 },
                },
                ParamSpec {
                    name: "hashed",
                    kind: ParamKind::Bool,
                },
                ParamSpec {
                    name: "stack_granule",
                    kind: ParamKind::PowerOfTwo {
                        min: 256,
                        max: 1 << 30,
                        at_most: None,
                    },
                },
                ParamSpec {
                    name: "channel_granule",
                    kind: ParamKind::PowerOfTwo {
                        min: 128,
                        max: 1 << 30,
                        at_most: Some(("stack_granule", 4096)),
                    },
                },
            ],
        },
        ExperimentSchema {
            id: "figure14",
            params: &[],
        },
    ];

    fn rules(src: &str) -> Vec<(u32, String)> {
        validate_scenario("scenarios/t.json", src, SCHEMAS)
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn clean_scenario_passes() {
        let src = r#"{
  "experiment": "ic_sweep",
  "name": "demo",
  "seed": 7,
  "params": {"ic_mib": 256, "pattern": "random", "hashed": true},
  "sweep": {"write_fraction": [0.0, 0.5, 1.0]}
}"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unknown_keys_and_params_fire_with_lines() {
        let src = "{\n  \"experiment\": \"ic_sweep\",\n  \"banana\": 1,\n  \"params\": {\"ic_mb\": 256}\n}";
        let got = rules(src);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 3);
        assert!(got[0].1.contains("banana"));
        assert_eq!(got[1].0, 4);
        assert!(got[1].1.contains("ic_mb"));
    }

    #[test]
    fn range_enum_bool_and_sweep_type_mismatches_fire() {
        let src = r#"{
  "experiment": "ic_sweep",
  "params": {"jobs": 999, "pattern": "zigzag", "hashed": "yes"},
  "sweep": {"write_fraction": [0.5, "half"], "ic_mib": 3}
}"#;
        let msgs: Vec<String> = rules(src).into_iter().map(|(_, m)| m).collect();
        assert_eq!(msgs.len(), 5, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("\"jobs\" = 999")));
        assert!(msgs.iter().any(|m| m.contains("zigzag")));
        assert!(msgs.iter().any(|m| m.contains("\"hashed\"")));
        assert!(msgs.iter().any(|m| m.contains("\"half\"")));
        assert!(msgs.iter().any(|m| m.contains("must be an array")));
    }

    #[test]
    fn empty_sweep_axes_and_non_power_of_two_granules_fire() {
        let empty = rules(r#"{"experiment": "ic_sweep", "sweep": {"ic_mib": [], "seed": []}}"#);
        assert_eq!(empty.len(), 2, "{empty:?}");
        assert!(empty.iter().all(|(_, m)| m.ends_with("is empty")));

        let granules = |v: &str| {
            rules(&format!(
                r#"{{"experiment": "ic_sweep", "params": {{"stack_granule": {v}}}}}"#
            ))
            .len()
        };
        assert_eq!(granules("4096"), 0);
        assert_eq!(granules("3000"), 1);
        assert_eq!(granules("128"), 1, "power of two below the minimum");
        let sweep =
            rules(r#"{"experiment": "ic_sweep", "sweep": {"stack_granule": [1024, 1000]}}"#);
        assert_eq!(sweep.len(), 1);
        assert!(
            sweep[0].1.contains("power of two in 256..="),
            "{}",
            sweep[0].1
        );
    }

    fn ic_sweep(params: &str) -> Vec<String> {
        rules(&format!(r#"{{"experiment": "ic_sweep", {params}}}"#))
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn ic_mib_must_be_zero_or_a_power_of_two() {
        for ok in [0, 1, 2, 4, 4096] {
            assert!(ic_sweep(&format!(r#""params": {{"ic_mib": {ok}}}"#)).is_empty());
        }
        let three = ic_sweep(r#""params": {"ic_mib": 3}"#);
        assert_eq!(three.len(), 1, "{three:?}");
        assert!(
            three[0].contains("0 or a power of two up to 4096"),
            "{three:?}"
        );
        for bad in ["5", "6", "12", "100", "8192"] {
            assert_eq!(
                ic_sweep(&format!(r#""params": {{"ic_mib": {bad}}}"#)).len(),
                1
            );
        }
        assert_eq!(ic_sweep(r#""sweep": {"ic_mib": [0, 1, 3]}"#).len(), 1);
    }

    #[test]
    fn channel_granule_above_the_stack_granule_fires() {
        let both = ic_sweep(r#""params": {"stack_granule": 256, "channel_granule": 512}"#);
        assert_eq!(both.len(), 1, "{both:?}");
        assert!(
            both[0].contains(r#""channel_granule" = 512 exceeds "stack_granule" = 256"#),
            "{both:?}"
        );
        // Unset, the stack granule is its default, 4096.
        let alone = ic_sweep(r#""params": {"channel_granule": 1073741824}"#);
        assert_eq!(alone.len(), 1, "{alone:?}");
        assert!(alone[0].ends_with("= 4096, its default"), "{alone:?}");
        for ok in [
            r#""params": {"channel_granule": 4096}"#,
            r#""params": {"stack_granule": 256, "channel_granule": 256}"#,
            r#""params": {"stack_granule": 256}"#,
            r#""sweep": {"stack_granule": [1024, 4096], "channel_granule": [128, 1024]}"#,
        ] {
            assert!(ic_sweep(ok).is_empty(), "{ok}");
        }
        // Every scenario a sweep expands to must keep the order.
        let swept = ic_sweep(
            r#""params": {"channel_granule": 2048}, "sweep": {"stack_granule": [1024, 4096]}"#,
        );
        assert_eq!(swept.len(), 1, "{swept:?}");
    }

    #[test]
    fn unknown_experiment_and_bad_json_fire() {
        assert_eq!(rules("{\"experiment\": \"nope\"}").len(), 1);
        assert_eq!(rules("{oops").len(), 1);
        assert_eq!(rules("[1,2]").len(), 1);
        assert!(rules("{\"name\": \"x\"}")[0].1.contains("missing required"));
    }

    #[test]
    fn param_with_no_params_declared_fires() {
        let got = rules("{\"experiment\": \"figure14\", \"params\": {\"elements\": 4}}");
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("no parameter"));
    }
}
