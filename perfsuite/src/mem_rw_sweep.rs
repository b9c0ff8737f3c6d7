//! `mem_rw_sweep`: one op is an uncached `run_batch` (one job) of
//! `ic_sweep` scenarios over pattern {hot, random, chase} × write
//! fraction {0.0, 0.5} × Infinity Cache {0, 2} MiB per channel, each
//! replaying [`ACCESSES`] accesses on one thread.
//!
//! Gate: every outcome is `Ok` and the run-summary bytes equal the
//! warm-up op's. That reference is itself checked by replaying every
//! scenario through `MemorySubsystem` directly (the traced op), which
//! must serve `reads + writes == accesses` and reproduce the
//! experiment's bandwidth, hit rate and latency bit for bit.

use std::path::Path;
use std::time::Instant;

use ehp_harness::executor::{resolve_seeds, run_batch, BatchConfig, Outcome};
use ehp_harness::Scenario;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::units::Bytes;

use crate::{add, ms_since, timed, Sample, Workload};

/// Accesses per scenario: enough that replay dominates each op.
pub const ACCESSES: u64 = 80_000;

const PATTERNS: [&str; 3] = ["hot", "random", "chase"];
const WRITE_FRACTIONS: [f64; 2] = [0.0, 0.5];
const IC_MIB: [u64; 2] = [0, 2];

pub struct MemRwSweep {
    /// Seed-resolved scenarios.
    scenarios: Vec<Scenario>,
    cfg: BatchConfig,
    /// Outcomes and run-summary bytes of the warm-up op.
    reference_outcomes: Vec<Outcome>,
    reference: String,
}

/// The cross product, named so the derived trace seeds differ.
fn sweep() -> Vec<Scenario> {
    let mut out = Vec::new();
    for pattern in PATTERNS {
        for wf in WRITE_FRACTIONS {
            for ic in IC_MIB {
                let mut sc = Scenario::default_for("ic_sweep")
                    .with_param("pattern", pattern)
                    .with_param("write_fraction", wf)
                    .with_param("ic_mib", ic)
                    .with_param("accesses", ACCESSES)
                    .with_param("jobs", 1u64);
                sc.name = format!("ic_sweep/{pattern}-w{wf}-ic{ic}");
                out.push(sc);
            }
        }
    }
    out
}

/// The memory configuration and trace `ic_sweep` builds for `sc`.
fn model(sc: &Scenario) -> (MemConfig, TraceConfig) {
    let mut cfg = MemConfig::mi300_hbm3();
    let ic = sc.u64("ic_mib", 2);
    cfg.channel.icache_capacity = (ic != 0).then(|| Bytes::from_mib(ic));
    let pattern = match sc.str("pattern", "hot") {
        "random" => Pattern::Random,
        "chase" => Pattern::PointerChase,
        _ => Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 16 << 20,
        },
    };
    let trace = TraceConfig {
        pattern,
        accesses: ACCESSES,
        footprint: 64 << 20,
        write_fraction: sc.f64("write_fraction", 0.3),
        line: 128,
        seed: sc.effective_seed(),
        jobs: 1,
    };
    (cfg, trace)
}

impl Workload for MemRwSweep {
    const NAME: &'static str = "mem_rw_sweep";
    const LAYER_METRICS: &'static [(&'static str, &'static str)] = &[
        ("mem.construct_ms.ic0", "ms"),
        ("mem.construct_ms.ic2", "ms"),
        ("mem.trace_gen_ms", "ms"),
        ("mem.replay_ms.hot", "ms"),
        ("mem.replay_ms.random", "ms"),
        ("mem.replay_ms.chase", "ms"),
        ("mem.replay_ns_per_access.r", "ns"),
        ("mem.replay_ns_per_access.rw", "ns"),
        ("mem.accesses", "count"),
        ("mem.writes", "count"),
        ("mem.icache_hit_rate.hot", "ratio"),
        ("mem_rw_sweep.op_ms", "ms"),
        ("mem_rw_sweep.trace_overhead_ms", "ms"),
        ("mem_rw_sweep.residual_ms", "ms"),
    ];
    const PARTS: &'static [&'static str] = &[
        "mem.construct_ms.ic0",
        "mem.construct_ms.ic2",
        "mem.replay_ms.hot",
        "mem.replay_ms.random",
        "mem.replay_ms.chase",
    ];

    fn setup(seed: u64, _work: &Path) -> Result<MemRwSweep, String> {
        let scenarios = resolve_seeds(&sweep(), seed);
        let cfg = BatchConfig {
            jobs: 1,
            base_seed: seed,
            progress: false,
        };
        let warm = run_batch(&scenarios, &cfg);
        if let Some(o) = warm.outcomes.iter().find(|o| !o.is_ok()) {
            return Err(format!("{} ended {:?}", o.scenario.name, o.status));
        }
        Ok(MemRwSweep {
            reference: warm.summary_json().to_string_compact(),
            reference_outcomes: warm.outcomes,
            scenarios,
            cfg,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let batch = run_batch(&self.scenarios, &self.cfg);
        let ms = ms_since(t);
        if let Some(o) = batch.outcomes.iter().find(|o| !o.is_ok()) {
            return Err(format!("{} ended {:?}", o.scenario.name, o.status));
        }
        if batch.summary_json().to_string_compact() != self.reference {
            return Err("run summary differs from the warm-up op's".into());
        }
        Ok(ms)
    }

    fn traced_op(&mut self, sample: &mut Sample) -> Result<f64, String> {
        let t = Instant::now();
        let mut hot_hits = Vec::new();
        for (sc, reference) in self.scenarios.iter().zip(&self.reference_outcomes) {
            let (cfg, trace) = model(sc);
            let construct = if cfg.channel.icache_capacity.is_some() {
                "mem.construct_ms.ic2"
            } else {
                "mem.construct_ms.ic0"
            };
            let mut mem = timed(sample, construct, || MemorySubsystem::new(cfg));
            let pattern = sc.str("pattern", "hot");
            let replay_metric = match pattern {
                "hot" => "mem.replay_ms.hot",
                "random" => "mem.replay_ms.random",
                _ => "mem.replay_ms.chase",
            };
            let start = Instant::now();
            let r = replay(&mut mem, &trace);
            let replay_ms = ms_since(start);
            add(sample, replay_metric, replay_ms);
            let (time_key, count_key) = if trace.write_fraction == 0.0 {
                ("r.ms", "r.accesses")
            } else {
                ("rw.ms", "rw.accesses")
            };
            add(sample, time_key, replay_ms);
            add(sample, count_key, trace.accesses as f64);
            add(sample, "mem.accesses", trace.accesses as f64);
            add(sample, "mem.writes", mem.writes() as f64);

            if mem.reads() + mem.writes() != trace.accesses {
                return Err(format!(
                    "{}: {} reads + {} writes != {} accesses",
                    sc.name,
                    mem.reads(),
                    mem.writes(),
                    trace.accesses
                ));
            }
            let hit_rate = r.icache_hit_rate.unwrap_or(0.0);
            for (metric, got) in [
                ("achieved_gb_s", r.bandwidth.as_gb_s()),
                ("icache_hit_rate", hit_rate),
                ("mean_latency_ns", r.mean_latency_ns),
            ] {
                let want = reference.metrics.get(metric).copied();
                if want.map(f64::to_bits) != Some(got.to_bits()) {
                    return Err(format!(
                        "{}: direct replay {metric} {got} != experiment's {want:?}",
                        sc.name
                    ));
                }
            }
            if pattern == "hot" && r.icache_hit_rate.is_some() {
                hot_hits.push(hit_rate);
            }
        }
        let ms = ms_since(t);
        for class in ["r", "rw"] {
            let (time_key, count_key, metric) = if class == "r" {
                ("r.ms", "r.accesses", "mem.replay_ns_per_access.r")
            } else {
                ("rw.ms", "rw.accesses", "mem.replay_ns_per_access.rw")
            };
            let replay_ms = sample.remove(time_key).unwrap_or(0.0);
            let n = sample.remove(count_key).unwrap_or(1.0);
            add(sample, metric, replay_ms * 1e6 / n);
        }
        add(
            sample,
            "mem.icache_hit_rate.hot",
            hot_hits.iter().sum::<f64>() / hot_hits.len().max(1) as f64,
        );
        Ok(ms)
    }

    fn probes(&mut self, sample: &mut Sample) -> Result<(), String> {
        // Generation alone; the replays above stream the same traces.
        for sc in &self.scenarios {
            let (_, trace) = model(sc);
            let reqs = timed(sample, "mem.trace_gen_ms", || trace.generate());
            if reqs.len() as u64 != trace.accesses {
                return Err(format!("{}: generated {} requests", sc.name, reqs.len()));
            }
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        self.traced_op(&mut Sample::new()).map(|_| ())
    }

    fn digest(&self) -> (&'static str, u64) {
        (
            "run_summary",
            ehp_sim_core::hash::fnv1a_str(&self.reference),
        )
    }
}
