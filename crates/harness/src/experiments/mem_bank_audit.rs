//! **Bank-level memory audit**: exercises the per-bank channel
//! decomposition behind bank-sharded replay (DESIGN.md §13). Two
//! properties, each a metric `ehp check` gates:
//!
//! 1. **Bank parallelism** — the same miss stream aimed at a single
//!    bank vs striped across every bank of the same channel must
//!    complete ~`banks_per_channel` times faster striped: banks are
//!    independent row/bus resources, so per-bank decomposition exposes
//!    real memory-level parallelism rather than renaming a serial
//!    queue. Measured on a cache-less [`MemorySubsystem`] over a
//!    1-stack × 1-channel interleave, which sends every address to its
//!    one channel, with row-addressed streams (the pinned stream
//!    inverts the [`bank_mix`] decorrelation) so the socket interleaver
//!    cannot skew the bank mix. A companion coverage scan gates that
//!    the decorrelated socket interleave populates **every** bank of
//!    **every** channel (`bank_coverage_min`, 16/16 under HBM3).
//! 2. **Hot-set service** — a hot/cold trace through the full
//!    subsystem keeps its Infinity Cache hit rate: bank-local address
//!    re-mapping preserves locality (the Section IV.C amplification
//!    story survives the decomposition).
//!
//! Scenario parameters: `accesses` (per stream / trace; default
//! 20000), `jobs` (replay workers for the hot-set trace; default 1 —
//! sharded replay is bit-identical to sequential, so it moves only
//! wall time, and the 20000-access default trace gains nothing from
//! more workers). The trace seed is the scenario seed.

use ehp_mem::channel::bank_mix;
use ehp_mem::request::MemRequest;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::time::SimTime;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

/// DRAM row pitch mirrored from `ehp_mem::hbm::ROW_BYTES`.
const ROW_BYTES: u64 = 1024;

/// Last completion time of a row stream read back to back at t = 0 on
/// one cache-less MI300 channel (pure HBM bank timing): a subsystem over
/// a 1-stack × 1-channel interleave, so every row reaches that channel
/// and row `r` lands on the bank `bank_slot` derives from it (lane
/// `r % banks` rotated by the block's decorrelation mix).
fn stream_last_completion(rows: impl Iterator<Item = u64>) -> SimTime {
    let mut cfg = MemConfig::mi300_hbm3();
    cfg.interleave.stacks = 1;
    cfg.interleave.channels_per_stack = 1;
    cfg.channel.icache_capacity = None;
    let mut ch = MemorySubsystem::new(cfg);
    let mut last = SimTime::ZERO;
    for r in rows {
        let done = ch.access(SimTime::ZERO, MemRequest::read(r * ROW_BYTES, 128));
        if done.completes_at > last {
            last = done.completes_at;
        }
    }
    last
}

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let accesses = sc.u64("accesses", 20_000);
    let jobs = sc.u64("jobs", 1).max(1) as usize;

    // One subsystem serves the geometry, the coverage scan (both depend
    // only on the interleave config) and the hot-set replay.
    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let banks = mem.banks_per_channel();
    let total_banks = mem.total_banks();

    // --- 1. Bank parallelism -------------------------------------------
    // Identical distinct-row miss streams against one channel: one
    // row per `banks`-aligned block with the lane chosen to invert the
    // decorrelation mix (every row lands on bank 0) vs the same count
    // striped densely (rows 0..stream — each aligned block's lanes are
    // a permutation, so all banks stay loaded). Every access is a row
    // miss, so the single-bank stream serialises on `row_activate`
    // while the striped one runs all the banks' activate pipelines in
    // parallel.
    let stream = (accesses / 16).clamp(256, 4_096);
    let b = banks as u64;
    let t_single = stream_last_completion((0..stream).map(|i| i * b + (b - bank_mix(i, b)) % b));
    let t_striped = stream_last_completion(0..stream);
    let speedup = t_single.as_secs() / t_striped.as_secs().max(f64::MIN_POSITIVE);

    // How many banks of each channel the *socket* address space
    // populates. The decorrelated interleave draws channel and bank
    // selection from disjoint address bits, so a dense global scan must
    // reach every bank of every channel — gated as `bank_coverage_min`
    // (the worst channel's count; 16/16 under HBM3).
    let mut seen = vec![false; total_banks];
    let mut addr = 0u64;
    for _ in 0..200_000 {
        let (flat, _) = mem.flat_bank_of(addr);
        seen[flat] = true;
        addr += 256; // channel granule
    }
    let coverage_min = seen
        .chunks(banks.max(1))
        .map(|c| c.iter().filter(|&&hit| hit).count())
        .min()
        .unwrap_or(0);

    rep.section("Bank-level parallelism");
    rep.kv("banks per channel", banks);
    rep.kv("flat banks (socket)", total_banks);
    rep.kv("misses per stream", stream);
    rep.kv("single-bank stream", t_single);
    rep.kv("striped stream", t_striped);
    rep.kv("bank parallel speedup", format!("{speedup:.1}x"));
    rep.kv(
        "min banks reached per channel via socket interleave",
        format!("{coverage_min}/{banks}"),
    );

    // --- 2. Hot-set service ---------------------------------------------
    // 1 MiB hot set: small enough that the 90% hot accesses revisit
    // lines (compulsory misses don't drown the hit rate) yet spread
    // across many channels' bank slices.
    let trace = TraceConfig {
        pattern: Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 1 << 20,
        },
        accesses,
        footprint: 64 << 20,
        write_fraction: 0.3,
        seed: sc.effective_seed(),
        jobs,
        ..TraceConfig::new(Pattern::Random)
    };
    let hot_hit_rate = replay(&mut mem, &trace).icache_hit_rate.unwrap_or(0.0);

    rep.section("Hot-set service");
    rep.kv(
        "trace",
        format!("hot 90/10, {accesses} accesses, jobs {jobs}"),
    );
    rep.kv("hot hit rate", format!("{:.1}%", hot_hit_rate * 100.0));

    let mut res = ExperimentResult::new(rep);
    res.metric("banks_per_channel", banks as f64);
    res.metric("bank_coverage_min", coverage_min as f64);
    res.metric("bank_parallel_speedup", speedup);
    res.metric("hot_hit_rate", hot_hit_rate);
    res
}
