//! `paper_suite`: one op is a cold default `ehp all` — every registered
//! experiment's default scenario through `run_batch_served` with one
//! in-process job, no worker processes, and the result cache on over a
//! directory emptied before each op (outside the timing).
//!
//! Gate: every outcome is `Ok`, every `ehp check` range passes, every
//! outcome was stored in the cold cache, and the run-summary bytes equal
//! the warm-up op's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ehp_core::powertherm::PowerThermalController;
use ehp_harness::check;
use ehp_harness::executor::{resolve_seeds, run_one, BatchResult, Outcome};
use ehp_harness::registry;
use ehp_harness::serving::{run_batch_served, scenario_key, ServingConfig};
use ehp_harness::Scenario;
use ehp_package::floorplan::Floorplan;
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_serve::cache::ResultCache;
use ehp_sim_core::units::Power;
use ehp_thermal::{ThermalConfig, ThermalSolver};

use crate::{add, clear_dir, ms_since, timed, Kernel, Sample, Workload};

/// Experiments timed on their own; the rest add up to `exp.other_ms`.
const NAMED: [(&str, &str); 5] = [
    ("figure12", "exp.figure12_ms"),
    ("power_management", "exp.power_management_ms"),
    ("mem_bank_audit", "exp.mem_bank_audit_ms"),
    ("ic_sweep", "exp.ic_sweep_ms"),
    ("figure7", "exp.figure7_ms"),
];

pub struct PaperSuite {
    /// Seed-resolved default scenarios, in registry order.
    scenarios: Vec<Scenario>,
    keys: Vec<u64>,
    cfg: ServingConfig,
    /// Run-summary bytes of the warm-up op.
    reference: String,
    /// Figure 12's compute-scenario peak, which the thermal probe must
    /// reproduce.
    compute_max_c: f64,
}

/// Every experiment's default scenario, with the one parallelism knob
/// among them (`mem_bank_audit`'s sharded-replay workers, default 8)
/// pinned to 1: one thread per op on a shared two-core host.
fn default_scenarios() -> Vec<Scenario> {
    registry::ids()
        .into_iter()
        .map(|id| {
            let sc = Scenario::default_for(id);
            if id == "mem_bank_audit" {
                sc.with_param("jobs", 1u64)
            } else {
                sc
            }
        })
        .collect()
}

impl PaperSuite {
    fn cache_dir(&self) -> &Path {
        &self.cfg.cache_dir
    }

    /// The gate on one batch's outcomes.
    fn check(&self, batch: &BatchResult) -> Result<(), String> {
        check_outcomes(&batch.outcomes)?;
        if batch.summary_json().to_string_compact() != self.reference {
            return Err("run summary differs from the warm-up op's".into());
        }
        Ok(())
    }
}

fn check_outcomes(outcomes: &[Outcome]) -> Result<(), String> {
    if let Some(o) = outcomes.iter().find(|o| !o.is_ok()) {
        return Err(format!("{} ended {:?}", o.scenario.name, o.status));
    }
    if let Some(f) = check::evaluate(outcomes).iter().find(|f| !f.pass) {
        return Err(format!(
            "check range {}/{} failed: observed {:?}",
            f.range.experiment, f.range.metric, f.observed
        ));
    }
    Ok(())
}

impl Workload for PaperSuite {
    const NAME: &'static str = "paper_suite";
    const LAYER_METRICS: &'static [(&'static str, &'static str)] = &[
        ("exp.figure12_ms", "ms"),
        ("exp.power_management_ms", "ms"),
        ("exp.mem_bank_audit_ms", "ms"),
        ("exp.ic_sweep_ms", "ms"),
        ("exp.figure7_ms", "ms"),
        ("exp.other_ms", "ms"),
        ("harness.overhead_ms", "ms"),
        ("thermal.solve_ms", "ms"),
        ("thermal.converge_ms", "ms"),
        ("serve.store_ms", "ms"),
        ("serve.stores", "count"),
        ("serve.lookup_ms", "ms"),
        ("serve.hits", "count"),
        ("paper_suite.op_ms", "ms"),
        ("paper_suite.trace_overhead_ms", "ms"),
        ("paper_suite.residual_ms", "ms"),
    ];
    /// The thermal solver's sweeps are most of this workload's time.
    const CALIBRATION: &'static [Kernel] = &[Kernel::Stencil];
    const PARTS: &'static [&'static str] = &[
        "exp.figure12_ms",
        "exp.power_management_ms",
        "exp.mem_bank_audit_ms",
        "exp.ic_sweep_ms",
        "exp.figure7_ms",
        "exp.other_ms",
        "harness.overhead_ms",
    ];

    fn setup(seed: u64, work: &Path) -> Result<PaperSuite, String> {
        let scenarios = resolve_seeds(&default_scenarios(), seed);
        let keys = scenarios.iter().map(scenario_key).collect();
        let cfg = ServingConfig {
            jobs: 1,
            base_seed: seed,
            progress: false,
            use_cache: true,
            cache_dir: work.join("result-cache"),
            workers: 0,
            ..ServingConfig::default()
        };
        let warm = run_batch_served(&scenarios, &cfg);
        check_outcomes(&warm.result.outcomes)?;
        let compute_max_c = warm
            .result
            .outcomes
            .iter()
            .find(|o| o.scenario.experiment == "figure12")
            .and_then(|o| o.metrics.get("compute_scenario_max_c").copied())
            .ok_or("figure12 reported no compute_scenario_max_c")?;
        Ok(PaperSuite {
            reference: warm.result.summary_json().to_string_compact(),
            scenarios,
            keys,
            cfg,
            compute_max_c,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        clear_dir(self.cache_dir()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let served = run_batch_served(&self.scenarios, &self.cfg);
        let ms = ms_since(t);
        let n = self.scenarios.len() as u64;
        if (served.cache.hits, served.cache.stores) != (0, n) {
            return Err(format!("cold cache saw {:?}", served.cache));
        }
        self.check(&served.result)?;
        Ok(ms)
    }

    fn traced_op(&mut self, sample: &mut Sample) -> Result<f64, String> {
        clear_dir(self.cache_dir()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut cache = ResultCache::disk(PathBuf::from(self.cache_dir()));
        let mut outcomes = Vec::with_capacity(self.scenarios.len());
        let mut exp_ms = 0.0;
        for (sc, &key) in self.scenarios.iter().zip(&self.keys) {
            if cache.lookup(key).is_some() {
                return Err(format!("{}: cache hit in an emptied directory", sc.name));
            }
            let name = NAMED
                .iter()
                .find(|(id, _)| *id == sc.experiment)
                .map_or("exp.other_ms", |(_, metric)| metric);
            let start = Instant::now();
            let out = run_one(sc);
            let ms = ms_since(start);
            add(sample, name, ms);
            exp_ms += ms;
            if timed(sample, "serve.store_ms", || {
                cache.store(key, &out.to_json())
            }) {
                add(sample, "serve.stores", 1.0);
            }
            outcomes.push(out);
        }
        let wall = t.elapsed();
        let ms = wall.as_secs_f64() * 1e3;
        add(sample, "harness.overhead_ms", ms - exp_ms);
        self.check(&BatchResult { outcomes, wall })?;
        Ok(ms)
    }

    fn probes(&mut self, sample: &mut Sample) -> Result<(), String> {
        // A warm lookup of every key the ops just stored.
        let mut cache = ResultCache::disk(PathBuf::from(self.cache_dir()));
        let t = Instant::now();
        let hits = self
            .keys
            .iter()
            .filter(|&&k| cache.lookup(k).is_some())
            .count();
        add(sample, "serve.lookup_ms", ms_since(t));
        add(sample, "serve.hits", hits as f64);
        if hits != self.keys.len() {
            return Err(format!("warm lookup hit {hits} of {}", self.keys.len()));
        }

        // Figure 12's compute-intensive solve, set up as figure12 does.
        let mut pm = SocketPowerManager::new(Power::from_watts(550.0));
        pm.apply_profile(WorkloadProfile::ComputeIntensive);
        let d = pm.current();
        let mut fp = Floorplan::mi300a();
        fp.assign_power("xcd", d.get(PowerDomain::ComputeChiplets).scale(0.88));
        fp.assign_power("ccd", d.get(PowerDomain::ComputeChiplets).scale(0.12));
        fp.assign_power(
            "iod",
            d.get(PowerDomain::InfinityCache) + d.get(PowerDomain::DataFabric),
        );
        fp.assign_power("usr", d.get(PowerDomain::UsrPhys));
        fp.assign_power("hbm_phy", d.get(PowerDomain::HbmPhys));
        fp.assign_power(
            "hbm_stack",
            d.get(PowerDomain::HbmDram) + d.get(PowerDomain::Io),
        );
        let solver = ThermalSolver::new(ThermalConfig::default());
        let field = timed(sample, "thermal.solve_ms", || solver.solve(&fp));
        let peak = field.max().0;
        if peak.to_bits() != self.compute_max_c.to_bits() {
            return Err(format!(
                "thermal solve peak {peak} differs from figure12's {}",
                self.compute_max_c
            ));
        }

        let point = timed(sample, "thermal.converge_ms", || {
            PowerThermalController::mi300a().converge(WorkloadProfile::ComputeIntensive)
        });
        if !point.thermally_safe {
            return Err("MI300A did not converge to a thermally safe point".into());
        }
        Ok(())
    }

    fn digest(&self) -> (&'static str, u64) {
        (
            "run_summary",
            ehp_sim_core::hash::fnv1a_str(&self.reference),
        )
    }
}
