//! Property test over the experiment registry: a scenario that passes
//! S1 runs.
//!
//! For each experiment that declares parameters, SplitMix64 draws
//! scenarios across every `ParamSpec`'s S1 range (each parameter set
//! with probability 3/4, else left at its default). Each scenario is
//! checked with S1 exactly as `ehp run` checks a post-override
//! scenario, and the valid ones run through `run_batch`, whose panic
//! isolation turns a panic into a `Panicked` outcome. Every valid
//! scenario must end `Ok`.
//!
//! The cost-bearing parameters, `ic_sweep`'s `accesses` and
//! `figure13`'s `workgroups`, are drawn from the low end of their
//! ranges (up to [`COST_CAP`]): a run's time grows with them, but
//! whether it may run does not. Every other parameter is drawn across
//! its whole range. `jobs` draws cover 1..=64 as S1 declares; the
//! replay caps its worker threads at the host's available parallelism,
//! and the batch runs on one thread, so the test starts no more threads
//! than that.

use ehp_harness::executor::{run_batch, BatchConfig, OutcomeStatus};
use ehp_harness::registry;
use ehp_harness::Scenario;
use ehp_lint::schema::validate_scenario;
use ehp_lint::{ParamKind, ParamSpec};
use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

/// Scenarios drawn per experiment.
const DRAWS: usize = 24;

/// Largest value drawn for a cost-bearing parameter.
const COST_CAP: u64 = 4096;

/// The parameters whose value sets a run's cost, by experiment.
const COST_BEARING: &[(&str, &str)] = &[("ic_sweep", "accesses"), ("figure13", "workgroups")];

/// An integer in `min..=max`: an endpoint one time in four, else
/// log-uniform (a uniform bit width, then uniform within it), so small
/// and large magnitudes are both drawn.
fn draw_u64(rng: &mut SplitMix64, min: u64, max: u64) -> u64 {
    match rng.next_below(8) {
        0 => min,
        1 => max,
        _ => {
            let lo_bits = 64 - min.leading_zeros();
            let hi_bits = 64 - max.leading_zeros();
            let bits = lo_bits + rng.next_below(u64::from(hi_bits - lo_bits) + 1) as u32;
            let lo = if bits == 0 { 0 } else { 1u64 << (bits - 1) };
            let hi = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let (lo, hi) = (lo.max(min), hi.min(max));
            lo + rng.next_below(hi - lo + 1)
        }
    }
}

/// A value for `spec` from anywhere in its S1 range. One power-of-two
/// draw in eight is an arbitrary integer in range instead, which S1
/// must reject unless it happens to be a power of two.
fn draw(rng: &mut SplitMix64, experiment: &str, spec: &ParamSpec) -> Json {
    match spec.kind {
        ParamKind::U64 { min, max } => {
            let max = if COST_BEARING.contains(&(experiment, spec.name)) {
                max.min(COST_CAP)
            } else {
                max
            };
            Json::from(draw_u64(rng, min, max))
        }
        ParamKind::PowerOfTwo { min, max, .. } => {
            if rng.next_below(8) == 0 {
                return Json::from(draw_u64(rng, min, max));
            }
            let lo = min.max(1).trailing_zeros();
            let hi = max.trailing_zeros();
            if min == 0 && rng.next_below(4) == 0 {
                Json::from(0u64)
            } else {
                Json::from(1u64 << (lo + rng.next_below(u64::from(hi - lo) + 1) as u32))
            }
        }
        ParamKind::Num { min, max } => Json::Num(match rng.next_below(8) {
            0 => min,
            1 => max,
            _ => min + rng.next_f64() * (max - min),
        }),
        ParamKind::Bool => Json::from(rng.chance(0.5)),
        ParamKind::EnumStr(opts) => Json::from(opts[rng.next_below(opts.len() as u64) as usize]),
    }
}

#[test]
fn every_s1_valid_drawn_scenario_runs_ok() {
    let schemas = registry::schemas();
    let mut rng = SplitMix64::new(0x5CE7_A210);
    let mut valid = Vec::new();
    for schema in schemas.iter().filter(|s| !s.params.is_empty()) {
        let mut accepted = 0;
        for i in 0..DRAWS {
            let mut sc = Scenario::default_for(schema.id);
            sc.name = format!("{}-draw{i}", schema.id);
            for spec in schema.params {
                if rng.next_below(4) != 0 {
                    sc = sc.with_param(spec.name, draw(&mut rng, schema.id, spec));
                }
            }
            let text = sc.to_json().to_string_compact();
            if validate_scenario(&format!("scenario {}", sc.name), &text, &schemas).is_empty() {
                accepted += 1;
                valid.push(sc);
            }
        }
        // The draws must mostly land inside S1, or the test shows
        // nothing about the experiment.
        assert!(
            accepted * 2 >= DRAWS,
            "{}: only {accepted} of {DRAWS} draws pass S1",
            schema.id
        );
    }

    let cfg = BatchConfig {
        jobs: 1,
        ..BatchConfig::default()
    };
    let result = run_batch(&valid, &cfg);
    for outcome in &result.outcomes {
        assert!(
            matches!(outcome.status, OutcomeStatus::Ok),
            "S1-valid scenario did not run: {} -> {:?}",
            outcome.scenario.to_json().to_string_compact(),
            outcome.status
        );
    }
    assert_eq!(result.outcomes.len(), valid.len());
}
