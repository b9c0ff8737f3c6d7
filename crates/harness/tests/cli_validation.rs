//! The `ehp` binary validates scenario input before it runs anything:
//! `ehp run` checks every `--spec` file and every scenario's parameters
//! (after `--param` overrides) against the registry's S1 schemas, the
//! same check `ehp serve` applies to its requests, and `ehp all` /
//! `ehp check` refuse the overrides they would otherwise drop.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ehp_sim_core::json::Json;

/// The compiled `ehp` binary — the same executable users run.
const EHP: &str = env!("CARGO_BIN_EXE_ehp");

/// A checked-in, schema-valid `figure13` sweep.
const DISPATCH_POLICIES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/dispatch_policies.json"
);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/cli-validation")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `ehp args...` with its outputs redirected under `dir`.
fn ehp(dir: &Path, args: &[&str]) -> Output {
    Command::new(EHP)
        .args(args)
        .env("EHP_FIGURES_DIR", dir.join("figures"))
        .env("EHP_RESULT_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("spawn ehp")
}

/// Asserts a usage error (exit 2) whose stderr contains `needle`, and
/// that nothing ran: no figures directory was created.
fn assert_rejected(name: &str, args: &[&str], needle: &str) {
    let dir = tmp_dir(name);
    let out = ehp(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(
        !dir.join("figures").exists(),
        "{args:?} wrote outputs before rejecting"
    );
}

#[test]
fn run_rejects_a_param_above_its_schema_range() {
    assert_rejected(
        "jobs65",
        &["run", "ic_sweep", "--param", "jobs=65"],
        "[S1 scenario-schema] parameter \"jobs\" = 65",
    );
}

#[test]
fn run_rejects_ic_sweep_params_the_memory_model_cannot_build() {
    // Each used to pass S1 and then panic building the memory model.
    assert_rejected(
        "ic-mib-3",
        &["run", "ic_sweep", "-p", "ic_mib=3"],
        "\"ic_mib\" = 3 does not match schema",
    );
    assert_rejected(
        "granules-512-256",
        &[
            "run",
            "ic_sweep",
            "-p",
            "stack_granule=256",
            "-p",
            "channel_granule=512",
        ],
        "\"channel_granule\" = 512 exceeds \"stack_granule\" = 256",
    );
    assert_rejected(
        "granule-1g",
        &["run", "ic_sweep", "-p", "channel_granule=1073741824"],
        "exceeds \"stack_granule\" = 4096, its default",
    );
}

#[test]
fn run_rejects_an_undeclared_param() {
    assert_rejected(
        "bogus",
        &["run", "figure13", "--param", "bogus=3"],
        "has no parameter \"bogus\"",
    );
}

#[test]
fn run_rejects_zero_workgroups_from_param_and_spec() {
    assert_rejected(
        "wg0-param",
        &["run", "figure13", "--param", "workgroups=0"],
        "parameter \"workgroups\" = 0",
    );

    let dir = tmp_dir("wg0-spec-file");
    let spec = dir.join("wg0.json");
    fs::write(
        &spec,
        r#"{"experiment": "figure13", "params": {"workgroups": 0}}"#,
    )
    .unwrap();
    assert_rejected(
        "wg0-spec",
        &["run", "--spec", spec.to_str().unwrap()],
        "wg0.json:1: [S1 scenario-schema] parameter \"workgroups\" = 0",
    );
}

#[test]
fn run_rejects_an_override_that_breaks_a_valid_spec() {
    assert_rejected(
        "override-spec",
        &[
            "run",
            "--spec",
            DISPATCH_POLICIES,
            "--param",
            "workgroup_size=2048",
        ],
        "parameter \"workgroup_size\" = 2048",
    );
}

#[test]
fn all_and_check_reject_scenario_overrides() {
    for cmd in ["all", "check"] {
        assert_rejected(
            &format!("{cmd}-param"),
            &[cmd, "--param", "workgroups=0"],
            "apply only to `ehp run`",
        );
        assert_rejected(
            &format!("{cmd}-spec"),
            &[cmd, "--spec", DISPATCH_POLICIES],
            "apply only to `ehp run`",
        );
    }
}

#[test]
fn workers_outside_zero_to_64_is_a_usage_error() {
    for (name, workers) in [
        ("workers65", "65"),
        ("workers-neg", "-1"),
        ("workers-frac", "2.5"),
    ] {
        assert_rejected(
            name,
            &["all", "--workers", workers, "--no-result-cache", "--quiet"],
            "--workers must be an integer in 0..=64",
        );
    }
}

#[test]
fn run_applies_a_valid_override() {
    let dir = tmp_dir("valid");
    let out = ehp(
        &dir,
        &[
            "run",
            "figure13",
            "--param",
            "workgroups=70000",
            "--quiet",
            "--no-result-cache",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = fs::read_to_string(dir.join("figures/run_summary.json")).unwrap();
    let summary = Json::parse(&summary).unwrap();
    let scenario = &summary.get("scenarios").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        scenario
            .get("metrics")
            .and_then(|m| m.get("workgroups_launched"))
            .and_then(Json::as_u64),
        Some(70_000)
    );
}

#[test]
fn lint_explain_of_a_deleted_rule_lists_the_remaining_rules() {
    let dir = tmp_dir("explain-d3");
    let out = ehp(&dir, &["lint", "--explain", "D3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let mut lines = stderr.lines();
    assert_eq!(
        lines.next(),
        Some("ehp lint: unknown rule \"D3\"; known rules:")
    );
    let listed: Vec<String> = lines
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(
        listed,
        [
            "D1 hash-iter",
            "D2 wall-clock",
            "H2 hot-path-reach",
            "R1 thread-capture",
            "N1 nondet-taint",
            "L3 lock-order",
            "B1 correlated-selectors",
            "S1 scenario-schema",
            "H2 fence",
            "W0 waiver",
        ]
    );
}
