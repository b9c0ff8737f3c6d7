//! The linter run against the real workspace: the tree must be clean
//! (zero unwaived findings), every checked-in scenario spec must satisfy
//! its experiment's schema, and the scenario loader must reject typo'd
//! keys at load time. The library sources must also gate test code by
//! module only.

use std::path::{Path, PathBuf};

use ehp_harness::registry;
use ehp_harness::scenario::ScenarioSpec;
use ehp_lint::{find_workspace_root, lint_workspace, LintConfig, Rule};
use ehp_sim_core::json::Json;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/harness")
}

#[test]
fn real_workspace_has_zero_unwaived_findings() {
    let schemas = registry::schemas();
    let config = LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: false,
        jobs: 1,
    };
    let report = lint_workspace(&config).expect("lint run");
    assert!(
        report.files_scanned > 100,
        "walker must cover the workspace, saw {} files",
        report.files_scanned
    );
    assert!(
        report.scenarios_scanned >= 2,
        "walker must cover scenarios/, saw {}",
        report.scenarios_scanned
    );
    // Hold the tree clean across all eight evaluable rules (plus the
    // fence/waiver bookkeeping rules), naming the rule on failure.
    for &rule in Rule::ALL {
        let unwaived: Vec<String> = report
            .unwaived()
            .filter(|f| f.rule == rule)
            .map(|f| f.render())
            .collect();
        assert!(
            unwaived.is_empty(),
            "rule {} ({}) must hold the tree clean:\n{}",
            rule.code(),
            rule.name(),
            unwaived.join("\n")
        );
    }
    // The one inline clock waiver (timing the lint run) must be live;
    // `lint.waivers` has no entries.
    assert_eq!(
        report.waived_count(),
        1,
        "expected the checked-in waivers to cover exactly one finding"
    );
}

#[test]
fn checked_in_scenarios_match_registry_schemas() {
    let root = workspace_root();
    let schemas = registry::schemas();
    let dir = root.join("scenarios");
    let mut seen = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios dir")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read spec");
        let rel = path.file_name().unwrap().to_string_lossy().to_string();
        let findings = ehp_lint::schema::validate_scenario(&rel, &text, &schemas);
        assert!(
            findings.is_empty(),
            "{rel} must validate: {:?}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
        // And the loader itself must accept it.
        ScenarioSpec::parse_file(&text).expect("loader accepts checked-in spec");
        seen += 1;
    }
    assert!(seen >= 2, "expected at least two checked-in specs");
}

#[test]
fn loader_rejects_typoed_key_in_ic_ablation() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("scenarios/ic_ablation.json")).expect("spec");
    // Introduce the typo a user would plausibly make: `sweep` -> `swep`.
    let typoed = text.replace("\"sweep\"", "\"swep\"");
    assert_ne!(text, typoed, "fixture must contain a sweep block");
    let err = ScenarioSpec::parse_file(&typoed).expect_err("typo'd key must be rejected");
    assert!(err.to_string().contains("swep"), "{err}");
    assert!(
        err.to_string().contains("ehp lint"),
        "error must point at the schema checker: {err}"
    );
    // And S1 flags the same typo statically.
    let schemas = registry::schemas();
    let findings = ehp_lint::schema::validate_scenario("ic_ablation.json", &typoed, &schemas);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::ScenarioSchema && f.message.contains("swep")),
        "{findings:?}"
    );
}

#[test]
fn lint_json_report_is_machine_readable() {
    let schemas = registry::schemas();
    let config = LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: false,
        jobs: 1,
    };
    let report = lint_workspace(&config).expect("lint run");
    let json = report.to_json();
    // Round-trips through the in-repo JSON implementation.
    let parsed = Json::parse(&json.to_string_pretty()).expect("valid JSON");
    assert_eq!(parsed.get("unwaived").and_then(Json::as_u64), Some(0));
    let findings = parsed
        .get("findings")
        .and_then(Json::as_arr)
        .expect("array");
    assert_eq!(findings.len() as u64, report.findings.len() as u64);
    for f in findings {
        assert!(f.get("rule").and_then(Json::as_str).is_some());
        assert!(f.get("code").and_then(Json::as_str).is_some());
        assert!(f.get("path").and_then(Json::as_str).is_some());
        assert!(f.get("line").and_then(Json::as_u64).is_some());
        assert!(f.get("chain").and_then(Json::as_arr).is_some());
    }
}

#[test]
fn cached_rerun_hits_every_file_and_reports_byte_identically() {
    let schemas = registry::schemas();
    let config = LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: true,
        jobs: 1,
    };
    // First run primes the cache (some files may already be cached from
    // an earlier `ehp lint`; either way the report must not depend on it).
    let first = lint_workspace(&config).expect("first lint run");
    let second = lint_workspace(&config).expect("second lint run");
    assert_eq!(
        second.cache_hits, second.files_scanned,
        "unchanged tree must hit the cache for every file ({} misses)",
        second.cache_misses
    );
    assert_eq!(
        first.to_json().to_string_pretty(),
        second.to_json().to_string_pretty(),
        "cached rerun must produce a byte-identical report"
    );
    // And the cached report matches an uncached run too.
    let uncached = lint_workspace(&LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: false,
        jobs: 1,
    })
    .expect("uncached lint run");
    assert_eq!(
        uncached.to_json().to_string_pretty(),
        second.to_json().to_string_pretty(),
        "cache must be semantically invisible"
    );
}

#[test]
fn parallel_cold_lint_reports_byte_identically_to_serial() {
    let schemas = registry::schemas();
    let serial = lint_workspace(&LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: false,
        jobs: 1,
    })
    .expect("serial lint run");
    // jobs = 0 (one worker per core) exercises the threaded cold path on
    // any multi-core machine; the merge is by file index, so the report
    // must not move by a byte.
    let parallel = lint_workspace(&LintConfig {
        root: workspace_root(),
        schemas: &schemas,
        use_cache: false,
        jobs: 0,
    })
    .expect("parallel lint run");
    assert_eq!(parallel.cache_hits, 0, "uncached run must analyze cold");
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty(),
        "worker count must be invisible in the report bytes"
    );
}

/// Appends every `.rs` file under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A `#[cfg(...)]` attribute line whose predicate enables the item only
/// under `test`.
fn is_cfg_test(line: &str) -> bool {
    let Some(pred) = line.trim_start().strip_prefix("#[cfg(") else {
        return false;
    };
    let words: Vec<&str> = pred
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .collect();
    words.contains(&"test") && !words.contains(&"not")
}

#[test]
fn cfg_test_gates_only_modules_in_library_sources() {
    // A product file holds what a product path runs; a helper only
    // tests call belongs in the test module that uses it.
    let root = workspace_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = entry.expect("entry").path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    assert!(files.len() > 100, "saw only {} source files", files.len());
    let mut offenders = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read source");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !is_cfg_test(line) {
                continue;
            }
            // The gated item: the next line that is not another
            // attribute, a comment or blank.
            let item = lines[i + 1..]
                .iter()
                .map(|l| l.trim_start())
                .find(|l| !(l.is_empty() || l.starts_with("#[") || l.starts_with("//")))
                .unwrap_or("");
            let item = item
                .strip_prefix("pub(crate) ")
                .or_else(|| item.strip_prefix("pub "))
                .unwrap_or(item);
            if !item.starts_with("mod ") {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                offenders.push(format!("{}:{}: {}", rel.display(), i + 1, item));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "#[cfg(test)] on items other than a test module:\n{}",
        offenders.join("\n")
    );
}
