//! Event-kernel microbench — calendar queue (time wheel) vs the
//! binary-heap oracle on the schedule/pop workloads the memory
//! subsystem generates. Before timing anything, both kernels are
//! driven through the same deterministic op sequence and their pop
//! streams compared element by element: a wheel that is fast but
//! reorders would gate here, not in a flaky perf number.
//!
//! Workloads:
//!
//! * `hold` — steady state: a standing population of events, each pop
//!   followed by a reschedule a random in-horizon delay ahead. This is
//!   the bank-op shape (writebacks and prefetch fills landing a few
//!   bucket widths out) and the case the O(1) wheel is built for.
//! * `burst` — schedule a full batch, then drain it dry; stresses
//!   insertion into sorted cursor buckets and bucket advancement.
//! * `farfuture` — half the delays beyond the wheel horizon; stresses
//!   the overflow min-heap where the wheel degrades toward the heap's
//!   O(log n).
//!
//! CI gates this bench against `crates/bench/baselines/kernel.json`
//! (see `ci.sh`); regenerate with
//! `cargo bench --bench kernel -- --save-baseline crates/bench/baselines/kernel.json`.

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ehp_sim_core::event::EventQueue;
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::time::Cycle;
use ehp_sim_core::wheel::CalendarQueue;

/// Standing population for the `hold` workload.
const HOLD_POP: u64 = 256;
/// Pop/reschedule rounds per `hold` iteration.
const HOLD_ROUNDS: u64 = 20_000;
/// Events per `burst`/`farfuture` iteration.
const BURST_EVENTS: u64 = 20_000;

/// The two kernels behind one face, so each workload is written once.
enum Kernel {
    Wheel(CalendarQueue<u64>),
    Heap(EventQueue<u64>),
}

impl Kernel {
    fn new(which: &str) -> Kernel {
        match which {
            // A wider wheel than the bank units' 8 x 131_072, to probe
            // hold/burst/far-future regimes in isolation.
            "wheel" => Kernel::Wheel(CalendarQueue::with_geometry(64, 16_384)),
            _ => Kernel::Heap(EventQueue::new()),
        }
    }

    fn schedule_after(&mut self, delay: u64, payload: u64) {
        match self {
            Kernel::Wheel(q) => q.schedule_after(Cycle(delay), payload),
            Kernel::Heap(q) => q.schedule_after(Cycle(delay), payload),
        }
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        match self {
            Kernel::Wheel(q) => q.pop(),
            Kernel::Heap(q) => q.pop(),
        }
    }
}

/// Order-sensitive fold of one popped event into a running checksum
/// (FNV-style multiply-then-add): swapping any two pops changes the
/// result, so equal checksums mean equal pop *sequences*.
fn fold(sum: u64, t: Cycle, p: u64) -> u64 {
    sum.wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(t.0 ^ p.rotate_left(17))
}

/// Horizon of the benchmarked geometry (64 buckets x 16 384 ticks).
const HORIZON: u64 = 64 * 16_384;

/// `hold`: keep `HOLD_POP` events in flight; each pop schedules a
/// replacement a random in-horizon delay out.
fn run_hold(which: &str, seed: u64) -> u64 {
    let mut q = Kernel::new(which);
    let mut rng = SplitMix64::new(seed);
    for i in 0..HOLD_POP {
        q.schedule_after(1 + rng.next_u64() % HORIZON, i);
    }
    let mut sum = 0u64;
    for i in 0..HOLD_ROUNDS {
        let (t, p) = q.pop().expect("population never drains");
        sum = fold(sum, t, p);
        q.schedule_after(1 + rng.next_u64() % HORIZON, HOLD_POP + i);
    }
    while let Some((t, p)) = q.pop() {
        sum = fold(sum, t, p);
    }
    sum
}

/// `burst`: schedule everything, then drain.
fn run_burst(which: &str, seed: u64) -> u64 {
    let mut q = Kernel::new(which);
    let mut rng = SplitMix64::new(seed);
    for i in 0..BURST_EVENTS {
        q.schedule_after(rng.next_u64() % HORIZON, i);
    }
    let mut sum = 0u64;
    while let Some((t, p)) = q.pop() {
        sum = fold(sum, t, p);
    }
    sum
}

/// `farfuture`: half the delays land past the wheel horizon (64 x
/// 16 384 ticks), forcing overflow traffic.
fn run_farfuture(which: &str, seed: u64) -> u64 {
    let mut q = Kernel::new(which);
    let mut rng = SplitMix64::new(seed);
    let mut sum = 0u64;
    for i in 0..BURST_EVENTS {
        let delay = if rng.next_u64().is_multiple_of(2) {
            rng.next_u64() % HORIZON
        } else {
            rng.next_u64() % (1 << 24)
        };
        q.schedule_after(delay, i);
        // Interleave pops so the cursor advances through the schedule.
        if i % 4 == 3 {
            if let Some((t, p)) = q.pop() {
                sum = fold(sum, t, p);
            }
        }
    }
    while let Some((t, p)) = q.pop() {
        sum = fold(sum, t, p);
    }
    sum
}

/// Full pop stream of a workload, for the identity check.
fn pop_stream(which: &str, workload: fn(&str, u64) -> u64, seed: u64) -> u64 {
    workload(which, seed)
}

fn bench_workload(c: &mut Criterion, label: &str, workload: fn(&str, u64) -> u64) {
    // Identity first, outside the timed region: both kernels must fold
    // the same (time, payload) stream to the same checksum, and the
    // fold is order-sensitive, so equality means the wheel's pop
    // sequence matches the heap oracle exactly.
    for seed in [0x57EE1u64, 0xBEEF] {
        assert_eq!(
            pop_stream("wheel", workload, seed),
            pop_stream("heap", workload, seed),
            "{label}: kernels diverged at seed {seed:#x}"
        );
    }
    let mut g = c.benchmark_group(&format!("kernel_{label}"));
    for which in ["wheel", "heap"] {
        g.bench_with_input(BenchmarkId::from_parameter(which), &which, |b, which| {
            b.iter(|| black_box(workload(which, 0x57EE1)));
        });
    }
    g.finish();
}

fn bench_hold(c: &mut Criterion) {
    bench_workload(c, "hold", run_hold);
}

fn bench_burst(c: &mut Criterion) {
    bench_workload(c, "burst", run_burst);
}

fn bench_farfuture(c: &mut Criterion) {
    bench_workload(c, "farfuture", run_farfuture);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hold, bench_burst, bench_farfuture
}
criterion_main!(benches);
