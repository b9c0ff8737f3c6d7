//! The sequential reference replay: one [`MemorySubsystem::access`] call
//! per request, in trace order. `trace::replay` must match it bit for
//! bit on every pattern and at every `jobs` value.
//!
//! The file names the memory modules as `crate::subsystem` and
//! `crate::trace`, so it compiles inside the memory crate too; other
//! includers import them at their root with
//! `use ehp_mem::{subsystem, trace};`.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::subsystem::MemorySubsystem;
use crate::trace::{Pattern, ReplayResult, TraceConfig};

/// Replays `cfg` access by access: every request issues at zero, except
/// that each pointer-chase request issues when the one before it
/// completes.
pub fn replay_sequential(mem: &mut MemorySubsystem, cfg: &TraceConfig) -> ReplayResult {
    let dependent = cfg.pattern == Pattern::PointerChase;
    let mut t = SimTime::ZERO;
    let mut last = SimTime::ZERO;
    for req in cfg.generate() {
        let issue = if dependent { t } else { SimTime::ZERO };
        t = mem.access(issue, req).completes_at;
        last = last.max(t);
    }
    let total = Bytes(cfg.accesses * cfg.line);
    let bandwidth = if last > SimTime::ZERO {
        Bandwidth::from_bytes_per_sec(total.as_f64() / last.as_secs())
    } else {
        Bandwidth::ZERO
    };
    ReplayResult {
        elapsed: last,
        bandwidth,
        icache_hit_rate: mem.icache_hit_rate(),
        mean_latency_ns: mem.mean_latency_ns().unwrap_or(0.0),
    }
}
