//! **Infinity-Cache sweep**: drives the timed memory subsystem with a
//! synthetic trace so the cache-size / interleave-granularity /
//! access-pattern axes in scenario specs exercise real machinery rather
//! than analytic formulas. The default configuration reproduces the
//! Section IV.C amplification story: ~17 TB/s of Infinity Cache service
//! rate in front of ~5.3 TB/s of HBM3.
//!
//! Scenario parameters: `ic_mib` (slice capacity per channel in MiB,
//! `0` disables the cache; default 2), `stack_granule` (default 4096),
//! `channel_granule` (default 256), `hashed` (default true), `pattern`
//! (`sequential` | `strided` | `random` | `hot` | `chase`; default
//! `hot`), `accesses` (default 40000), `write_fraction` (default 0.3),
//! `jobs` (replay worker threads; default 1). The trace covers a fixed
//! 64 MiB footprint, and its seed is the scenario seed. Replay buckets the
//! trace by DRAM bank and replays bank by bank, on `jobs` workers, with
//! results bit-identical to an access-by-access loop at any `jobs`;
//! `chase` always replays access by access because each access issues
//! when the previous one completes.

use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::json::Json;
use ehp_sim_core::units::Bytes;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

/// The default stack granule: the paper's 4 KB.
pub(crate) const STACK_GRANULE: u64 = 4096;

/// The trace footprint: 64 MiB, a quarter of the 256 MB Infinity Cache.
const FOOTPRINT: u64 = 64 << 20;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    let mut cfg = MemConfig::mi300_hbm3();
    let ic_mib = sc.u64("ic_mib", 2);
    cfg.channel.icache_capacity = if ic_mib == 0 {
        None
    } else {
        Some(Bytes::from_mib(ic_mib))
    };
    cfg.interleave.stack_granule = sc.u64("stack_granule", STACK_GRANULE).max(256);
    cfg.interleave.channel_granule = sc.u64("channel_granule", 256).max(128);
    cfg.interleave.hashed = sc.bool("hashed", true);

    let pattern = match sc.str("pattern", "hot") {
        "sequential" => Pattern::Sequential,
        "strided" => Pattern::Strided { stride: 1024 },
        "random" => Pattern::Random,
        "chase" => Pattern::PointerChase,
        _ => Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 16 << 20,
        },
    };
    let trace = TraceConfig {
        pattern,
        accesses: sc.u64("accesses", 40_000),
        footprint: FOOTPRINT,
        write_fraction: sc.f64("write_fraction", 0.3).clamp(0.0, 1.0),
        line: 128,
        seed: sc.effective_seed(),
        jobs: sc.u64("jobs", 1).max(1) as usize,
    };

    let mut mem = MemorySubsystem::new(cfg.clone());
    let channels = f64::from(cfg.total_channels());
    let ic_peak_tb_s = if ic_mib == 0 {
        0.0
    } else {
        cfg.channel.icache_rate.as_gb_s() * channels / 1e3
    };
    let hbm_peak_tb_s = mem.peak_hbm_bandwidth().as_tb_s();

    rep.section("Configuration");
    rep.kv(
        "Infinity Cache",
        if ic_mib == 0 {
            "disabled (ablation)".to_string()
        } else {
            format!("{ic_mib} MiB/channel x {channels:.0} channels")
        },
    );
    rep.kv(
        "interleave",
        format!(
            "{} B stack granule / {} B channel granule, hashed: {}",
            cfg.interleave.stack_granule, cfg.interleave.channel_granule, cfg.interleave.hashed
        ),
    );
    rep.kv("pattern", format!("{pattern:?}"));
    rep.kv("trace seed", trace.seed);
    rep.kv("replay jobs", trace.jobs);

    let r = replay(&mut mem, &trace);

    rep.section("Section IV.C amplification check");
    rep.kv("IC peak service rate", format!("{ic_peak_tb_s:.1} TB/s"));
    rep.kv("HBM peak bandwidth", format!("{hbm_peak_tb_s:.2} TB/s"));
    rep.kv(
        "amplification headroom",
        if hbm_peak_tb_s > 0.0 {
            format!("{:.1}x", ic_peak_tb_s / hbm_peak_tb_s)
        } else {
            "n/a".to_string()
        },
    );

    rep.section("Replay results");
    rep.kv(
        "achieved bandwidth",
        format!("{:.1} GB/s", r.bandwidth.as_gb_s()),
    );
    let hit_rate = r.icache_hit_rate.unwrap_or(0.0);
    rep.kv(
        "Infinity Cache hit rate",
        r.icache_hit_rate
            .map_or("n/a (no slices)".to_string(), |h| {
                format!("{:.1}%", h * 100.0)
            }),
    );
    rep.kv(
        "mean access latency",
        format!("{:.1} ns", r.mean_latency_ns),
    );
    rep.kv("elapsed", r.elapsed);

    // Per-stack load balance from the channel counters, summarised with
    // the stats snapshot API.
    let mut per_stack = vec![0u64; cfg.interleave.stacks as usize];
    for (i, ch) in mem.channels().iter().enumerate() {
        per_stack[i / cfg.interleave.channels_per_stack as usize] +=
            ch.hbm_bytes_moved().0 + ch.icache_bytes().0;
    }
    let max_stack = *per_stack.iter().max().unwrap_or(&0) as f64;
    let mean_stack = per_stack.iter().sum::<u64>() as f64 / per_stack.len().max(1) as f64;
    let imbalance = if mean_stack > 0.0 {
        max_stack / mean_stack
    } else {
        1.0
    };
    rep.section("Stack load balance");
    for (s, b) in per_stack.iter().enumerate() {
        rep.row(format!(
            "  stack {s}: {:.1} MiB",
            *b as f64 / (1 << 20) as f64
        ));
    }
    rep.kv("max/mean imbalance", format!("{imbalance:.3}"));

    let mut res = ExperimentResult::new(rep);
    res.metric("ic_peak_tb_s", ic_peak_tb_s);
    res.metric("hbm_peak_tb_s", hbm_peak_tb_s);
    res.metric("achieved_gb_s", r.bandwidth.as_gb_s());
    res.metric("icache_hit_rate", hit_rate);
    res.metric("mean_latency_ns", r.mean_latency_ns);
    res.metric("stack_imbalance", imbalance);
    res.set_payload(Json::object([
        (
            "per_stack_bytes",
            Json::Arr(per_stack.iter().map(|&b| Json::from(b)).collect()),
        ),
        ("seed", Json::from(trace.seed)),
    ]));
    res
}
