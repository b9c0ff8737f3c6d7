//! Determinism suite for bank-bucketed trace replay: for every access
//! pattern, every memory configuration, and every parallelism level,
//! `replay` must produce a `ReplayResult` and subsystem-level
//! statistics bit-identical to the sequential reference path
//! (`replay_sequential`, one `MemorySubsystem::access` per request in
//! trace order, from the memory crate's test oracles in
//! `crates/mem/tests/oracle/replay.rs`). This is the contract that makes the `jobs` knob safe
//! to flip in scenario specs: parallelism changes wall-clock time and
//! nothing else.
//!
//! The rule that makes this possible: the interleaver steers each
//! address to exactly one channel and the row decoder steers each row
//! to exactly one bank, so every request belongs to exactly one flat
//! bank (channel-major, bank-minor). `replay` buckets the trace by flat
//! bank and replays each bank's sub-stream in trace order — inline at
//! `jobs = 1`, on work-stealing workers above — and floating-point
//! aggregates are merged per bank in flat-bank order by both paths.
//! `PointerChase` is the one pattern that cannot be bucketed (each
//! access issues when the previous one completes), so `replay` must
//! take the sequential path for it at any `jobs` value.

#[path = "../crates/mem/tests/oracle/replay.rs"]
mod oracle;
// The oracle names the memory modules as `crate::subsystem` and
// `crate::trace`.
use ehp_mem::{subsystem, trace};

use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::units::Bytes;
use oracle::replay_sequential;

const PATTERNS: [(&str, Pattern); 5] = [
    ("sequential", Pattern::Sequential),
    ("strided", Pattern::Strided { stride: 1024 }),
    ("random", Pattern::Random),
    (
        "hot",
        Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 4 << 20,
        },
    ),
    ("chase", Pattern::PointerChase),
];

/// Dirty victims written back by every bank's slice.
fn writebacks(mem: &MemorySubsystem) -> u64 {
    mem.channels()
        .iter()
        .flat_map(|c| c.banks())
        .filter_map(|b| b.slice())
        .map(|s| s.writebacks())
        .sum()
}

/// Asserts that `mem` ended in the same observable state as the
/// sequential reference `seq`: counters exactly, floating-point
/// aggregates bit for bit, and every channel's DRAM and cache traffic.
fn assert_same_state(ctx: &str, mem: &MemorySubsystem, seq: &MemorySubsystem) {
    assert_eq!(mem.reads(), seq.reads(), "{ctx}: reads");
    assert_eq!(mem.writes(), seq.writes(), "{ctx}: writes");
    assert_eq!(mem.bytes_served(), seq.bytes_served(), "{ctx}: bytes");
    assert_eq!(
        mem.mean_latency_ns(),
        seq.mean_latency_ns(),
        "{ctx}: mean latency must be bit-identical, not just close"
    );
    assert_eq!(
        mem.icache_hit_rate(),
        seq.icache_hit_rate(),
        "{ctx}: icache hit rate"
    );
    assert_eq!(mem.energy_used(), seq.energy_used(), "{ctx}: energy");
    assert_eq!(writebacks(mem), writebacks(seq), "{ctx}: writebacks");
    for (i, (a, b)) in mem.channels().iter().zip(seq.channels()).enumerate() {
        assert_eq!(a.row_hits(), b.row_hits(), "{ctx}: channel {i} row hits");
        assert_eq!(
            a.row_misses(),
            b.row_misses(),
            "{ctx}: channel {i} row misses"
        );
        assert_eq!(a.refreshes(), b.refreshes(), "{ctx}: channel {i} refreshes");
        assert_eq!(
            a.hbm_bytes_moved(),
            b.hbm_bytes_moved(),
            "{ctx}: channel {i} HBM bytes"
        );
        assert_eq!(
            a.icache_bytes(),
            b.icache_bytes(),
            "{ctx}: channel {i} IC bytes"
        );
    }
}

fn assert_sharded_matches_sequential(label: &str, make: impl Fn() -> MemorySubsystem) {
    for (pname, pattern) in PATTERNS {
        let base = TraceConfig {
            accesses: 30_000,
            footprint: 1 << 26,
            write_fraction: 0.3,
            seed: 0xD1CE,
            ..TraceConfig::new(pattern)
        };
        let mut seq = make();
        let want = replay_sequential(&mut seq, &base);

        // 32 exceeds any plausible worker pool and lands mid-way into
        // the flat-bank range, exercising uneven chunk boundaries.
        for jobs in [1usize, 2, 8, 32] {
            let cfg = TraceConfig { jobs, ..base };
            let mut mem = make();
            let got = replay(&mut mem, &cfg);
            let ctx = format!("{label}/{pname} jobs={jobs}");
            assert_eq!(got, want, "{ctx}: ReplayResult diverged");
            assert_same_state(&ctx, &mem, &seq);
        }
    }
}

#[test]
fn sharded_replay_is_bit_identical_mi300() {
    assert_sharded_matches_sequential("mi300_hbm3", || {
        MemorySubsystem::new(MemConfig::mi300_hbm3())
    });
}

#[test]
fn sharded_replay_is_bit_identical_ic_off() {
    // `ic_sweep` with `ic_mib=0`: no Infinity Cache slices, so every
    // access takes the HBM-only channel path.
    assert_sharded_matches_sequential("mi300_hbm3 ic off", || {
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.channel.icache_capacity = None;
        MemorySubsystem::new(cfg)
    });
}

#[test]
fn sharded_replay_is_bit_identical_unhashed() {
    // `ic_sweep` with `hashed=false`: plain-modulo stack selection.
    assert_sharded_matches_sequential("mi300_hbm3 unhashed", || {
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.interleave.hashed = false;
        MemorySubsystem::new(cfg)
    });
}

#[test]
fn jobs_beyond_bank_count_clamp_and_stay_identical() {
    let cfg = TraceConfig {
        accesses: 10_000,
        footprint: 1 << 24,
        jobs: 4096, // far more than 128 channels x 16 banks
        ..TraceConfig::new(Pattern::Random)
    };
    let mut seq = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let want = replay_sequential(&mut seq, &cfg);
    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    assert_eq!(replay(&mut mem, &cfg), want);
}

#[test]
fn skewed_traces_exercise_stealing_and_stay_identical() {
    // A 16 KiB hot set spans at most 64 channel granules, so 99% of
    // the trace piles onto a few dozen of the 2048 flat banks. The
    // contiguous deque seeding is then heavily imbalanced and idle
    // workers finish only by stealing — bit-identity must survive the
    // migration at every worker count, including jobs=32 where most
    // deques start empty.
    let base = TraceConfig {
        accesses: 30_000,
        footprint: 1 << 26,
        write_fraction: 0.3,
        seed: 0x5EED,
        ..TraceConfig::new(Pattern::Hot {
            hot_fraction: 0.99,
            hot_bytes: 16 << 10,
        })
    };
    let mut seq = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let want = replay_sequential(&mut seq, &base);
    for jobs in [1usize, 2, 8, 32] {
        let cfg = TraceConfig { jobs, ..base };
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        assert_eq!(replay(&mut mem, &cfg), want, "jobs={jobs}");
        assert_same_state(&format!("hot skew jobs={jobs}"), &mem, &seq);
    }
}

#[test]
fn write_heavy_traces_shard_identically() {
    // Dirty-victim writebacks are the subtlest per-bank state; an
    // all-write trace over 8 KiB slices (one 4-way set per bank) makes
    // nearly every miss evict a dirty line.
    let make = || {
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.channel.icache_capacity = Some(Bytes::from_kib(8));
        cfg.channel.icache_ways = 4;
        MemorySubsystem::new(cfg)
    };
    let base = TraceConfig {
        accesses: 20_000,
        footprint: 1 << 22,
        write_fraction: 1.0,
        ..TraceConfig::new(Pattern::Random)
    };
    let mut seq = make();
    let want = replay_sequential(&mut seq, &base);
    assert!(writebacks(&seq) > 0, "the reference must evict dirty lines");
    for jobs in [1usize, 2, 8] {
        let cfg = TraceConfig { jobs, ..base };
        let mut mem = make();
        assert_eq!(replay(&mut mem, &cfg), want, "jobs={jobs}");
        assert_same_state(&format!("write heavy jobs={jobs}"), &mem, &seq);
    }
}

#[test]
fn second_replay_on_a_used_subsystem_stays_identical() {
    // The second replay starts from the set records the first one left.
    // Above one job, every bank's records leave the shared store for the
    // replay and come back after it; the state they carry must survive
    // that round trip at every worker count.
    let first = TraceConfig {
        accesses: 20_000,
        footprint: 1 << 26,
        write_fraction: 0.5,
        seed: 0xF125,
        ..TraceConfig::new(Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 4 << 20,
        })
    };
    let second = TraceConfig {
        pattern: Pattern::Random,
        write_fraction: 0.3,
        seed: 0x5EC0,
        ..first
    };
    let mut seq = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let _ = replay_sequential(&mut seq, &first);
    let want = replay_sequential(&mut seq, &second);
    for jobs in [1usize, 2, 8] {
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let _ = replay(&mut mem, &TraceConfig { jobs, ..first });
        let got = replay(&mut mem, &TraceConfig { jobs, ..second });
        assert_eq!(got, want, "jobs={jobs}: ReplayResult diverged");
        assert_same_state(&format!("second replay jobs={jobs}"), &mem, &seq);
    }
}
