//! Trace-replay bench — the perf surface behind the `jobs` knob.
//! Measures `replay` at jobs = 1, 2, 4, 8 over Random and Hot traces
//! on the MI300 memory subsystem (1M accesses), plus the dependent
//! pointer chase, the one access-by-access replay path, and asserts —
//! outside the timed region — that every bank-bucketed result is
//! bit-identical to the sequential reference.
//!
//! CI gates this bench against `crates/bench/baselines/replay.json`
//! (see `ci.sh`); regenerate with
//! `cargo bench --bench replay -- --save-baseline crates/bench/baselines/replay.json`.

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, replay_sequential, Pattern, TraceConfig};

const ACCESSES: u64 = 1_000_000;

fn cfg_for(pattern: Pattern, jobs: usize) -> TraceConfig {
    TraceConfig {
        accesses: ACCESSES,
        footprint: 1 << 28,
        jobs,
        ..TraceConfig::new(pattern)
    }
}

fn bench_pattern(c: &mut Criterion, label: &str, pattern: Pattern) {
    // Sequential reference, computed once: sharded runs must merge to
    // exactly this result or the speedup is meaningless.
    let mut ref_mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let reference = replay_sequential(&mut ref_mem, &cfg_for(pattern, 1));

    let mut g = c.benchmark_group(&format!("replay_{label}"));
    for jobs in [1usize, 2, 4, 8] {
        let cfg = cfg_for(pattern, jobs);
        let mut check = MemorySubsystem::new(MemConfig::mi300_hbm3());
        assert_eq!(
            replay(&mut check, &cfg),
            reference,
            "{label} jobs={jobs} diverged from sequential replay"
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs{jobs}")),
            &jobs,
            |b, &jobs| {
                let cfg = cfg_for(pattern, jobs);
                b.iter(|| {
                    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
                    black_box(replay(&mut mem, &cfg))
                });
            },
        );
    }
    g.finish();
}

fn bench_replay_random(c: &mut Criterion) {
    bench_pattern(c, "random", Pattern::Random);
}

fn bench_replay_hot(c: &mut Criterion) {
    bench_pattern(
        c,
        "hot",
        Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 16 << 20,
        },
    );
}

fn bench_replay_hot_skew(c: &mut Criterion) {
    // Worst-case shard imbalance: a single-granule (256 B) hot set
    // lands 90% of the trace on ONE flat bank, so one worker's deque
    // holds almost all the work and every other worker lives off the
    // steal path. Gated in CI to keep the stealing scheduler from
    // regressing to static-partition behaviour (where this shape
    // serialises on the unlucky worker).
    bench_pattern(
        c,
        "hot_skew",
        Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 256,
        },
    );
}

fn bench_replay_chase(c: &mut Criterion) {
    // Each access issues when the previous one completes, so `replay`
    // takes the sequential path at any `jobs`: one case covers it.
    let cfg = cfg_for(Pattern::PointerChase, 1);
    let mut g = c.benchmark_group("replay_chase");
    g.bench_with_input(BenchmarkId::from_parameter("jobs1"), &cfg, |b, cfg| {
        b.iter(|| {
            let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
            black_box(replay(&mut mem, cfg))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_replay_random, bench_replay_hot, bench_replay_hot_skew, bench_replay_chase
}
criterion_main!(benches);
