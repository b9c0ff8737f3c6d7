//! Whole-suite wall-time bench — the `ehp all` path as one number.
//! Runs every registered experiment at its default scenario through
//! `run_batch` (uncached, single worker, base seed 0: exactly what a
//! cold `ehp all --jobs 1` executes) and times the batch end to end.
//! This is the first end-to-end speed baseline for the repo: kernel or
//! subsystem changes that slow the suite down show up here even when
//! every targeted microbench stays flat.
//!
//! Outside the timed region the batch is run once and every outcome
//! asserted OK, so a broken experiment fails loudly instead of being
//! timed as a fast error path.
//!
//! CI gates this bench against `crates/bench/baselines/suite.json`
//! (see `ci.sh`); regenerate with
//! `cargo bench --bench suite -- --save-baseline crates/bench/baselines/suite.json`.

use ehp_bench::microbench::Bench;
use ehp_harness::executor::{run_batch, BatchConfig, OutcomeStatus};
use ehp_harness::registry;
use ehp_harness::Scenario;

fn default_scenarios() -> Vec<Scenario> {
    registry::ids()
        .into_iter()
        .map(Scenario::default_for)
        .collect()
}

fn main() {
    let mut b = Bench::from_args(5);
    let scenarios = default_scenarios();
    let cfg = BatchConfig::default();

    // Correctness gate outside the timed region: the suite must be
    // green, otherwise the "wall time" includes error paths.
    let check = run_batch(&scenarios, &cfg);
    for o in &check.outcomes {
        assert!(
            matches!(o.status, OutcomeStatus::Ok),
            "{} failed; refusing to time a broken suite",
            o.scenario.name
        );
    }

    b.run("suite/ehp_all", || run_batch(&scenarios, &cfg));
    std::process::exit(b.finish());
}
