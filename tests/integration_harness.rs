//! Integration tests for the `ehp-harness` subsystem: the full registry
//! through the parallel batch executor, deterministic summaries,
//! scenario-spec round-trips, and the expected-shape gate.

use ehp_harness::check;
use ehp_harness::executor::{run_batch, BatchConfig, OutcomeStatus};
use ehp_harness::registry;
use ehp_harness::scenario::{Scenario, ScenarioSpec};
use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

#[test]
fn full_registry_runs_ok_in_parallel() {
    let scenarios: Vec<Scenario> = registry::ids()
        .into_iter()
        .map(Scenario::default_for)
        .collect();
    let result = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 8,
            base_seed: 42,
            progress: false,
        },
    );
    assert_eq!(result.outcomes.len(), scenarios.len());
    for o in &result.outcomes {
        assert_eq!(
            o.status,
            OutcomeStatus::Ok,
            "{} failed: {:?}",
            o.scenario.name,
            o.status
        );
        assert!(
            !o.metrics.is_empty(),
            "{} produced no metrics",
            o.scenario.name
        );
        assert!(
            !o.report_text.is_empty(),
            "{} produced no report",
            o.scenario.name
        );
        assert!(o.scenario.seed.is_some(), "executor must resolve seeds");
    }
}

#[test]
fn same_seed_batches_produce_identical_summaries() {
    // A mix of default scenarios and a sweep, run at different paralleism
    // levels: summaries must still match byte for byte.
    let spec = ScenarioSpec::from_json(
        &Json::parse(
            r#"{"experiment": "ic_sweep", "name": "sweep",
                "sweep": {"ic_mib": [0, 2], "seed": [1, 2]}}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let mut scenarios = vec![
        Scenario::default_for("table1"),
        Scenario::default_for("figure19"),
    ];
    scenarios.extend(spec.expand());

    let a = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 1,
            base_seed: 7,
            progress: false,
        },
    );
    let b = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 4,
            base_seed: 7,
            progress: false,
        },
    );
    let text_a = a.summary_json().to_string_pretty();
    let text_b = b.summary_json().to_string_pretty();
    assert_eq!(text_a, text_b, "same-seed summaries must be byte-identical");
    assert_eq!(a.ok_count(), scenarios.len());
}

#[test]
fn different_base_seed_changes_derived_seeds_only() {
    let scenarios = vec![Scenario::default_for("ic_sweep")];
    let a = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 1,
            base_seed: 1,
            progress: false,
        },
    );
    let b = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 1,
            base_seed: 2,
            progress: false,
        },
    );
    assert_ne!(
        a.outcomes[0].scenario.seed, b.outcomes[0].scenario.seed,
        "base seed must reach derived scenario seeds"
    );
    // An explicit scenario seed wins over the batch base seed.
    let mut pinned = Scenario::default_for("ic_sweep");
    pinned.seed = Some(99);
    let c = run_batch(
        &[pinned],
        &BatchConfig {
            jobs: 1,
            base_seed: 1,
            progress: false,
        },
    );
    assert_eq!(c.outcomes[0].scenario.seed, Some(99));
}

/// Property: every scenario the generator produces survives a JSON
/// round-trip unchanged (SplitMix64-driven case loop — the environment
/// cannot vendor a property-testing crate).
#[test]
fn scenario_specs_round_trip() {
    let ids = registry::ids();
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    for _ in 0..200 {
        let mut sc = Scenario::default_for(ids[rng.next_below(ids.len() as u64) as usize]);
        if rng.chance(0.5) {
            // JSON numbers are f64-backed; seeds must stay exactly
            // representable to round-trip.
            sc.seed = Some(rng.next_below(1 << 53));
        }
        if rng.chance(0.7) {
            sc = sc.with_param("ic_mib", rng.next_below(16));
        }
        if rng.chance(0.5) {
            sc = sc.with_param("pattern", "random");
        }
        if rng.chance(0.3) {
            sc = sc.with_param("write_fraction", (rng.next_f64() * 1000.0).round() / 1000.0);
        }
        if rng.chance(0.3) {
            sc = sc.with_param("hashed", rng.chance(0.5));
        }
        let back = Scenario::from_json(&sc.to_json()).expect("round-trip parses");
        assert_eq!(sc, back);
        // And through the full text form.
        let text = sc.to_json().to_string_pretty();
        let reparsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(sc, reparsed);
    }
}

#[test]
fn sweep_expansion_names_are_unique_and_deterministic() {
    let spec = ScenarioSpec::from_json(
        &Json::parse(
            r#"{"experiment": "ic_sweep",
                "sweep": {"ic_mib": [0, 1, 2, 4],
                          "stack_granule": [1024, 4096],
                          "seed": [1, 2, 3]}}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let once = spec.expand();
    let twice = spec.expand();
    assert_eq!(once, twice);
    assert_eq!(once.len(), 4 * 2 * 3);
    let names: std::collections::BTreeSet<_> = once.iter().map(|s| &s.name).collect();
    assert_eq!(names.len(), once.len(), "expanded names must be unique");
}

#[test]
fn expected_shapes_pass_on_default_scenarios() {
    let mut ids: Vec<&str> = check::expected_shapes()
        .iter()
        .map(|s| s.experiment)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(ids.len() >= 8, "shape table must cover >= 8 experiments");
    let scenarios: Vec<Scenario> = ids.iter().map(|id| Scenario::default_for(id)).collect();
    let result = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 4,
            base_seed: 0,
            progress: false,
        },
    );
    let findings = check::evaluate(&result.outcomes);
    let failures: Vec<String> = findings
        .iter()
        .filter(|f| !f.pass)
        .map(|f| {
            format!(
                "{}/{}: observed {:?}, expected [{}, {}] ({})",
                f.range.experiment,
                f.range.metric,
                f.observed,
                f.range.min,
                f.range.max,
                f.range.why
            )
        })
        .collect();
    assert!(failures.is_empty(), "shape drift:\n{}", failures.join("\n"));
}

#[test]
fn panicking_scenario_is_isolated_from_the_batch() {
    // A granule that is not a power of two panics inside the experiment
    // (`run_batch` skips the S1 schema check); the batch must survive
    // and the sibling scenario must still complete.
    let bad = Scenario::default_for("ic_sweep").with_param("stack_granule", 3000u64);
    let good = Scenario::default_for("table1");
    let result = run_batch(
        &[bad, good],
        &BatchConfig {
            jobs: 2,
            base_seed: 0,
            progress: false,
        },
    );
    match &result.outcomes[0].status {
        OutcomeStatus::Panicked(msg) => assert!(msg.contains("powers of two"), "got: {msg}"),
        other => panic!("expected panic outcome, got {other:?}"),
    }
    assert_eq!(result.outcomes[1].status, OutcomeStatus::Ok);
    assert_eq!(result.ok_count(), 1);
}

#[test]
fn empty_memory_traces_end_ok() {
    // A zero-access trace reports zero time, bandwidth and latency
    // instead of dividing zero bytes by zero seconds.
    let scenarios = [
        Scenario::default_for("ic_sweep").with_param("accesses", 0u64),
        Scenario::default_for("ic_sweep")
            .with_param("accesses", 0u64)
            .with_param("pattern", "chase"),
    ];
    let result = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 1,
            base_seed: 0,
            progress: false,
        },
    );
    for o in &result.outcomes {
        assert_eq!(o.status, OutcomeStatus::Ok, "{}", o.scenario.name);
    }
    assert_eq!(result.outcomes[0].metrics.get("achieved_gb_s"), Some(&0.0));
}
