//! Declarative experiment scenarios.
//!
//! A [`Scenario`] is the single input every experiment receives: which
//! experiment to run, a name (unique within a batch), an optional seed,
//! and a free-form parameter map. Scenarios can be built in code, or
//! loaded from JSON *spec* files ([`ScenarioSpec`]) that additionally
//! support parameter **sweeps** — one spec with a `sweep` block expands
//! into the cartesian product of its axes, which is how the DESIGN §4
//! ablations (seed fan-out, Infinity-Cache size, interleave granularity,
//! dispatch policy) are expressed as data rather than code.
//!
//! ## Spec format
//!
//! ```json
//! {
//!   "experiment": "ic_sweep",
//!   "name": "ic-ablation",
//!   "params": {"pattern": "hot"},
//!   "sweep": {"ic_mib": [0, 1, 2, 4], "seed": [1, 2, 3]}
//! }
//! ```
//!
//! A spec file holds either one spec object or an array of them.

use std::collections::BTreeMap;
use std::fmt;

use ehp_sim_core::json::Json;

/// A fully concrete experiment invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry id of the experiment to run (e.g. `"figure20"`).
    pub experiment: String,
    /// Unique name within a batch; defaults to the experiment id.
    pub name: String,
    /// Explicit seed; `None` lets the batch executor derive one
    /// deterministically from the batch base seed and the scenario name.
    pub seed: Option<u64>,
    /// Experiment-specific parameter overrides.
    pub(crate) params: BTreeMap<String, Json>,
}

impl Scenario {
    /// The default scenario for an experiment id: no overrides.
    #[must_use]
    pub fn default_for(experiment: &str) -> Scenario {
        Scenario {
            experiment: experiment.to_string(),
            name: experiment.to_string(),
            seed: None,
            params: BTreeMap::new(),
        }
    }

    /// The seed experiments should use; 0 until the executor derives one.
    #[must_use]
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// Sets a parameter, returning `self` for chaining.
    #[must_use]
    pub fn with_param(mut self, key: &str, value: impl Into<Json>) -> Scenario {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Reads an `f64` parameter with a default.
    #[must_use]
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.params
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(default)
    }

    /// Reads a `u64` parameter with a default.
    #[must_use]
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.params
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or(default)
    }

    /// Reads a string parameter with a default.
    #[must_use]
    pub fn str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.params
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or(default)
    }

    /// Reads a bool parameter with a default.
    #[must_use]
    pub(crate) fn bool(&self, key: &str, default: bool) -> bool {
        self.params
            .get(key)
            .and_then(Json::as_bool)
            .unwrap_or(default)
    }

    /// Serialises the scenario (deterministically).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "experiment".to_string(),
                Json::from(self.experiment.as_str()),
            ),
            ("name".to_string(), Json::from(self.name.as_str())),
        ];
        if let Some(seed) = self.seed {
            obj.push(("seed".to_string(), Json::from(seed)));
        }
        if !self.params.is_empty() {
            obj.push(("params".to_string(), Json::Obj(self.params.clone())));
        }
        Json::object(obj)
    }

    /// Rebuilds a scenario from [`Scenario::to_json`] output or a
    /// hand-written spec without a sweep. Unknown top-level keys are
    /// rejected — a typo'd key would otherwise silently fall back to the
    /// experiment's defaults.
    pub fn from_json(v: &Json) -> Result<Scenario, SpecError> {
        Scenario::from_json_allowing(v, &["experiment", "name", "seed", "params"])
    }

    /// [`Scenario::from_json`] with an explicit top-level key allow-list
    /// (the spec loader additionally accepts `sweep`).
    fn from_json_allowing(v: &Json, allowed: &[&str]) -> Result<Scenario, SpecError> {
        if let Some(obj) = v.as_obj() {
            if let Some(unknown) = obj.keys().find(|k| !allowed.contains(&k.as_str())) {
                return Err(SpecError::new(format!(
                    "unknown key {unknown:?} (expected one of {allowed:?}); \
                     `ehp lint` validates scenario specs against each \
                     experiment's parameter schema"
                )));
            }
        }
        let experiment = v
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("scenario needs a string `experiment` field"))?
            .to_string();
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .map_or_else(|| experiment.clone(), str::to_string);
        let seed = match v.get("seed") {
            None | Some(Json::Null) => None,
            Some(s) => Some(
                s.as_u64()
                    .ok_or_else(|| SpecError::new("`seed` must be a non-negative integer"))?,
            ),
        };
        let params = match v.get("params") {
            None => BTreeMap::new(),
            Some(p) => p
                .as_obj()
                .ok_or_else(|| SpecError::new("`params` must be an object"))?
                .clone(),
        };
        Ok(Scenario {
            experiment,
            name,
            seed,
            params,
        })
    }
}

/// A malformed scenario spec.
#[derive(Debug, Clone)]
pub struct SpecError {
    /// What is wrong with the spec.
    pub(crate) message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.message)
    }
}

/// A declarative scenario spec: a base [`Scenario`] plus optional sweep
/// axes that expand into many concrete scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The base scenario (sweep keys not yet applied).
    pub(crate) base: Scenario,
    /// Sweep axes: parameter name → list of values. The key `"seed"`
    /// sweeps the scenario seed instead of a parameter (seed fan-out).
    pub(crate) sweep: BTreeMap<String, Vec<Json>>,
}

impl ScenarioSpec {
    /// Parses one spec object.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, SpecError> {
        let base =
            Scenario::from_json_allowing(v, &["experiment", "name", "seed", "params", "sweep"])?;
        let mut sweep = BTreeMap::new();
        if let Some(s) = v.get("sweep") {
            let obj = s
                .as_obj()
                .ok_or_else(|| SpecError::new("`sweep` must be an object of arrays"))?;
            for (key, values) in obj {
                let arr = values.as_arr().ok_or_else(|| {
                    SpecError::new(format!("sweep axis `{key}` must be an array"))
                })?;
                if arr.is_empty() {
                    return Err(SpecError::new(format!("sweep axis `{key}` is empty")));
                }
                sweep.insert(key.clone(), arr.to_vec());
            }
        }
        Ok(ScenarioSpec { base, sweep })
    }

    /// Parses a spec file: either one spec object or an array of them.
    pub fn parse_file(text: &str) -> Result<Vec<ScenarioSpec>, SpecError> {
        let v = Json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        match &v {
            Json::Arr(items) => items.iter().map(ScenarioSpec::from_json).collect(),
            _ => Ok(vec![ScenarioSpec::from_json(&v)?]),
        }
    }

    /// Expands the sweep into concrete scenarios (cartesian product of
    /// all axes, axes in sorted key order, values in listed order).
    ///
    /// Each expanded scenario's name gains a `/key=value` suffix per
    /// swept axis so names stay unique within a batch.
    #[must_use]
    pub fn expand(&self) -> Vec<Scenario> {
        if self.sweep.is_empty() {
            return vec![self.base.clone()];
        }
        let axes: Vec<(&String, &Vec<Json>)> = self.sweep.iter().collect();
        let mut out = Vec::new();
        let mut idx = vec![0usize; axes.len()];
        loop {
            let mut sc = self.base.clone();
            for (a, (key, values)) in axes.iter().enumerate() {
                let value = &values[idx[a]];
                let suffix = match value {
                    Json::Str(s) => s.clone(),
                    other => other.to_string_compact(),
                };
                sc.name = format!("{}/{}={}", sc.name, key, suffix);
                if *key == "seed" {
                    sc.seed = value.as_u64();
                } else {
                    sc.params.insert((*key).clone(), value.clone());
                }
            }
            out.push(sc);
            // Odometer increment, last axis fastest.
            let mut a = axes.len();
            loop {
                if a == 0 {
                    return out;
                }
                a -= 1;
                idx[a] += 1;
                if idx[a] < axes[a].1.len() {
                    break;
                }
                idx[a] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_round_trips() {
        let sc = Scenario::default_for("figure20");
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn params_round_trip() {
        let sc = Scenario::default_for("ic_sweep")
            .with_param("ic_mib", 4u64)
            .with_param("pattern", "hot");
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(sc, back);
        assert_eq!(back.u64("ic_mib", 2), 4);
        assert_eq!(back.str("pattern", "sequential"), "hot");
        assert_eq!(back.f64("missing", 1.5), 1.5);
    }

    #[test]
    fn sweep_expands_cartesian_product() {
        let spec = ScenarioSpec::from_json(
            &Json::parse(
                r#"{"experiment": "ic_sweep",
                    "sweep": {"ic_mib": [0, 2], "seed": [1, 2, 3]}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let scenarios = spec.expand();
        assert_eq!(scenarios.len(), 6);
        // Unique names.
        let names: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 6);
        // Seed axis lands on the seed, not params.
        assert!(scenarios.iter().all(|s| s.seed.is_some()));
        assert!(scenarios.iter().all(|s| !s.params.contains_key("seed")));
        assert_eq!(scenarios[0].u64("ic_mib", 99), 0);
    }

    #[test]
    fn spec_file_accepts_object_or_array() {
        let one = ScenarioSpec::parse_file(r#"{"experiment": "table1"}"#).unwrap();
        assert_eq!(one.len(), 1);
        let many =
            ScenarioSpec::parse_file(r#"[{"experiment": "table1"}, {"experiment": "figure7"}]"#)
                .unwrap();
        assert_eq!(many.len(), 2);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for src in [
            r#"{}"#,
            r#"{"experiment": 3}"#,
            r#"{"experiment": "x", "seed": -1}"#,
            r#"{"experiment": "x", "params": 3}"#,
            r#"{"experiment": "x", "sweep": {"a": []}}"#,
            r#"{"experiment": "x", "sweep": {"a": 1}}"#,
            r#"{"experiment": "x", "swep": {"a": [1]}}"#,
        ] {
            let v = Json::parse(src).unwrap();
            assert!(ScenarioSpec::from_json(&v).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn unknown_top_level_keys_are_rejected_with_lint_pointer() {
        // A typo'd key must not silently fall back to defaults.
        let v = Json::parse(r#"{"experiment": "ic_sweep", "parms": {"ic_mib": 4}}"#).unwrap();
        let err = Scenario::from_json(&v).unwrap_err();
        assert!(err.message.contains("parms"), "{}", err.message);
        assert!(err.message.contains("ehp lint"), "{}", err.message);
        // `sweep` is only legal through the spec loader.
        let v = Json::parse(r#"{"experiment": "x", "sweep": {"a": [1]}}"#).unwrap();
        assert!(Scenario::from_json(&v).is_err());
        assert!(ScenarioSpec::from_json(&v).is_ok());
    }
}
