//! Differential fuzz of the calendar-queue kernel against the binary-heap
//! oracle (`EventQueue`, kept verbatim from before the wheel existed).
//!
//! For any interleaving of schedule/pop operations the two kernels must
//! produce byte-identical pop streams: same `(time, payload)` pairs in the
//! same order, same `now()` after every pop, same `len()` after every
//! operation. Workloads are SplitMix64-driven and deliberately include the
//! wheel's hard cases: same-cycle FIFO bursts, far-future overflow events,
//! horizon rewinds after `peek_time` rotations, and `run_until` bounds.

use ehp_sim_core::event::EventQueue;
use ehp_sim_core::time::Cycle;
use ehp_sim_core::wheel::CalendarQueue;
use ehp_sim_core::SplitMix64;

/// Drives both kernels through an identical op sequence derived from
/// `rng`, checking pop-for-pop equivalence. `max_delay` shapes how far
/// ahead of `now` schedules land (large values exercise overflow).
fn lockstep(
    rng: &mut SplitMix64,
    ops: usize,
    max_delay: u64,
    burst_chance: u64,
    geometry: (usize, u64),
) {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut wheel: CalendarQueue<u64> = CalendarQueue::with_geometry(geometry.0, geometry.1);
    let mut payload = 0u64;
    for _ in 0..ops {
        let roll = rng.next_u64() % 100;
        if roll < 55 {
            // Schedule: both kernels share now(), so an offset from the
            // heap's clock is legal for both.
            let delay = rng.next_u64() % max_delay;
            let at = Cycle(heap.now().0 + delay);
            let burst = if rng.next_u64() % 100 < burst_chance {
                1 + rng.next_u64() % 8
            } else {
                1
            };
            for _ in 0..burst {
                heap.schedule_at(at, payload);
                wheel.schedule_at(at, payload);
                payload += 1;
            }
        } else if roll < 90 {
            assert_eq!(
                heap.pop(),
                wheel.pop(),
                "pop diverged after {payload} schedules"
            );
            assert_eq!(heap.now(), wheel.now());
        } else {
            // Peek is allowed to reorganise the wheel but must agree with
            // the oracle and must not disturb subsequent order.
            assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        assert_eq!(heap.len(), wheel.len());
        assert_eq!(heap.is_empty(), wheel.is_empty());
    }
    // Drain both to the end: tails must match exactly.
    loop {
        let (h, w) = (heap.pop(), wheel.pop());
        assert_eq!(h, w, "drain diverged");
        if h.is_none() {
            break;
        }
        assert_eq!(heap.now(), wheel.now());
    }
}

#[test]
fn random_interleavings_match_the_heap_oracle() {
    let mut rng = SplitMix64::new(0x0005_7EE1_0001);
    for case in 0..40 {
        // Cycle through geometries: single-tick FIFO buckets, wide
        // buckets that need sort-on-arrival, and tiny wheels that force
        // constant overflow traffic.
        let geometry = match case % 4 {
            0 => (256, 1),
            1 => (16, 64),
            2 => (4, 1),
            _ => (64, 16384),
        };
        lockstep(&mut rng, 400, 200, 20, geometry);
    }
}

#[test]
fn same_cycle_fifo_bursts_match() {
    let mut rng = SplitMix64::new(0x0005_7EE1_0002);
    for _ in 0..10 {
        // Tiny time range + high burst chance: nearly everything ties.
        lockstep(&mut rng, 300, 4, 90, (8, 4));
    }
}

#[test]
fn far_future_overflow_matches() {
    let mut rng = SplitMix64::new(0x0005_7EE1_0003);
    for _ in 0..10 {
        // Delays up to ~1e9 ticks against an 8x1 wheel: almost every
        // event takes the overflow path and several rebase jumps.
        lockstep(&mut rng, 200, 1 << 30, 10, (8, 1));
    }
}

#[test]
fn memory_channel_geometry_matches() {
    // The geometry every `ehp_mem` bank unit runs: 8 buckets of 131_072
    // picosecond ticks, a ~1 µs horizon. Delays up to ~2 µs spill about
    // half the schedules past the horizon into overflow, and frequent
    // bursts mimic one demand's writeback plus prefetch fills sharing a
    // due time.
    let mut rng = SplitMix64::new(0x0005_7EE1_0006);
    for _ in 0..20 {
        lockstep(&mut rng, 400, 2_000_000, 50, (8, 131_072));
    }
}

#[test]
fn rewind_after_peek_matches() {
    // Deterministic reproduction of the rewind path: peek rotates the
    // wheel far forward, then a near-term schedule must still win.
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut wheel: CalendarQueue<u32> = CalendarQueue::with_geometry(8, 1);
    heap.schedule_at(Cycle(10_000), 0);
    wheel.schedule_at(Cycle(10_000), 0);
    assert_eq!(heap.peek_time(), wheel.peek_time());
    for (i, t) in [3u64, 7, 10_000, 2].iter().enumerate() {
        heap.schedule_at(Cycle(*t), i as u32 + 1);
        wheel.schedule_at(Cycle(*t), i as u32 + 1);
    }
    loop {
        let (h, w) = (heap.pop(), wheel.pop());
        assert_eq!(h, w);
        if h.is_none() {
            break;
        }
    }
}

#[test]
fn run_until_agrees_with_the_oracle() {
    let mut rng = SplitMix64::new(0x0005_7EE1_0004);
    for _ in 0..20 {
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut wheel: CalendarQueue<u64> = CalendarQueue::with_geometry(16, 16);
        for p in 0..200u64 {
            let at = Cycle(rng.next_u64() % 2_000);
            heap.schedule_at(at, p);
            wheel.schedule_at(at, p);
        }
        let limit = Cycle(rng.next_u64() % 2_500);
        let mut heap_fired = Vec::new();
        let mut wheel_fired = Vec::new();
        // Handlers reschedule ~25% of events to stress in-run inserts.
        let heap_end = heap.run_until(limit, |q, t, p| {
            heap_fired.push((t, p));
            if p % 4 == 0 {
                q.schedule_after(Cycle(p % 97), p + 10_000);
            }
        });
        let wheel_end = wheel.run_until(limit, |q, t, p| {
            wheel_fired.push((t, p));
            if p % 4 == 0 {
                q.schedule_after(Cycle(p % 97), p + 10_000);
            }
        });
        assert_eq!(heap_fired, wheel_fired);
        assert_eq!(heap_end, wheel_end);
        assert_eq!(heap.len(), wheel.len());
        // The undue tails must match too.
        let mut heap_q = heap;
        let mut wheel_q = wheel;
        loop {
            let (h, w) = (heap_q.pop(), wheel_q.pop());
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}

#[test]
fn pop_due_and_schedule_interleave_matches() {
    let mut rng = SplitMix64::new(0x0005_7EE1_0005);
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut wheel: CalendarQueue<u64> = CalendarQueue::with_geometry(32, 8);
    for round in 0..300u64 {
        let at = Cycle(heap.now().0 + rng.next_u64() % 500);
        heap.schedule_at(at, round);
        wheel.schedule_at(at, round);
        let limit = Cycle(heap.now().0 + rng.next_u64() % 300);
        loop {
            let (h, w) = (heap.pop_due(limit), wheel.pop_due(limit));
            assert_eq!(h, w, "round {round}");
            if h.is_none() {
                break;
            }
        }
    }
}
