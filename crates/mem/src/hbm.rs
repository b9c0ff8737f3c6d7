//! HBM bank timing model.
//!
//! Each HBM pseudo-channel is modelled as independent banks (see
//! `crate::channel`), and each bank as a row-buffer state machine in
//! front of its share of the channel's data bus. Timing is deliberately
//! coarse — row hit vs. row activate vs. bus occupancy — which is enough
//! to reproduce the bandwidth and queueing behaviour the paper's
//! comparisons rest on, while staying fast enough to sweep.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes, Energy};

/// DRAM row size: an `HbmBank` decodes a bank-local address's row as
/// `addr / ROW_BYTES`, and the bank-local address mapping
/// (`crate::interleave::Interleaver::decode`) renumbers rows in the
/// same unit.
pub const ROW_BYTES: u64 = 1024;

/// The HBM generation attached to a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HbmGeneration {
    /// HBM2e, 8-high, 16 GB/stack (MI250X-class).
    Hbm2e,
    /// HBM3, 8-high, 16 GB/stack (MI300A-class).
    Hbm3,
    /// HBM3, 12-high, 24 GB/stack (MI300X-class).
    Hbm3TwelveHigh,
}

impl HbmGeneration {
    /// Capacity per stack.
    #[must_use]
    pub fn stack_capacity(self) -> Bytes {
        match self {
            HbmGeneration::Hbm2e | HbmGeneration::Hbm3 => Bytes::from_gib(16),
            HbmGeneration::Hbm3TwelveHigh => Bytes::from_gib(24),
        }
    }

    /// Peak bandwidth per stack (8 stacks of HBM2e ≈ 3.28 TB/s on MI250X;
    /// 8 stacks of HBM3 ≈ 5.3 TB/s on MI300).
    #[must_use]
    pub fn stack_bandwidth(self) -> Bandwidth {
        match self {
            HbmGeneration::Hbm2e => Bandwidth::from_gb_s(409.6),
            HbmGeneration::Hbm3 | HbmGeneration::Hbm3TwelveHigh => Bandwidth::from_gb_s(662.5),
        }
    }
}

/// Channel timing parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HbmTimings {
    /// Access latency when the target row is already open.
    pub(crate) row_hit: SimTime,
    /// Access latency when a different row must be precharged + activated.
    pub(crate) row_activate: SimTime,
    /// Independent banks per pseudo-channel: how many [`HbmBank`]s a
    /// channel is split into (see `crate::interleave::Interleaver::decode`).
    pub(crate) banks_per_channel: u32,
    /// DRAM access energy per byte moved.
    pub(crate) energy_per_byte: Energy,
    /// Average refresh interval (tREFI): one refresh command is due per
    /// bank group every such period.
    pub(crate) refresh_interval: SimTime,
    /// Refresh command duration (tRFC): the channel is blocked while it
    /// runs.
    pub(crate) refresh_duration: SimTime,
}

impl HbmTimings {
    /// The HBM3 timing set of every modelled memory channel (both HBM3
    /// stack heights share it).
    pub(crate) fn hbm3() -> HbmTimings {
        HbmTimings {
            row_hit: SimTime::from_nanos(45),
            row_activate: SimTime::from_nanos(75),
            banks_per_channel: 16,
            energy_per_byte: Energy::from_picojoules(44.0), // ~5.5 pJ/bit
            refresh_interval: SimTime::from_nanos(3_900),
            refresh_duration: SimTime::from_nanos(210),
        }
    }
}

/// A serialised bus lane at a fixed rate, with the transfer time of
/// one line computed once: every replayed transfer is one line, so the
/// per-transfer `f64` division happens only for other sizes. The lane's
/// mutable state (its free time and byte count) lives with the bank
/// that owns it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    rate: Bandwidth,
    line: Bytes,
    line_time: SimTime,
}

impl Lane {
    /// A lane at `rate` with the transfer time of `line` precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero: a zero-rate lane can never serve a
    /// transfer.
    pub(crate) fn new(rate: Bandwidth, line: Bytes) -> Lane {
        assert!(
            rate.as_bytes_per_sec() > 0.0,
            "lane must have positive rate"
        );
        Lane {
            rate,
            line,
            line_time: rate.transfer_time(line),
        }
    }

    /// Time to move `size` bytes: the same pure function of `size` as
    /// `Bandwidth::transfer_time`.
    #[inline]
    pub(crate) fn time(&self, size: Bytes) -> SimTime {
        if size == self.line {
            self.line_time
        } else {
            self.rate.transfer_time(size)
        }
    }
}

/// The parameters every bank of a channel shares: timings and its bus
/// lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HbmParams {
    timings: HbmTimings,
    bus: Lane,
}

impl HbmParams {
    /// Parameters for banks with the given timings and bus lane rate,
    /// with the transfer time of one `line` precomputed.
    ///
    /// # Panics
    ///
    /// Panics unless `refresh_duration < refresh_interval`: the
    /// closed-form refresh catch-up in [`HbmBank::access`] relies on
    /// refreshes never overlapping. Panics if `bus_rate` is zero.
    pub(crate) fn new(timings: HbmTimings, bus_rate: Bandwidth, line: Bytes) -> HbmParams {
        assert!(
            timings.refresh_duration < timings.refresh_interval,
            "tRFC ({}) must be shorter than tREFI ({})",
            timings.refresh_duration,
            timings.refresh_interval
        );
        HbmParams {
            timings,
            bus: Lane::new(bus_rate, line),
        }
    }

    /// DRAM energy of the bytes `bank` has moved.
    pub(crate) fn energy(&self, bank: &HbmBank) -> Energy {
        self.timings
            .energy_per_byte
            .scale(bank.bytes_moved.as_f64())
    }
}

/// The mutable state of one HBM bank: its row buffer, busy-until and
/// refresh times, its bus lane's free time, and counters. The timing
/// parameters are an [`HbmParams`] shared by every bank of a channel.
#[derive(Debug, Clone)]
pub(crate) struct HbmBank {
    /// Open row (`None` = closed).
    open_row: Option<u64>,
    /// Time the bank finishes its current access.
    bank_free: SimTime,
    /// Next time a refresh is due.
    next_refresh: SimTime,
    /// Time the bus lane finishes its current transfer.
    bus_free: SimTime,
    bytes_moved: Bytes,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
}

impl HbmBank {
    /// An idle bank with its first refresh due one tREFI in.
    pub(crate) fn new(p: &HbmParams) -> HbmBank {
        HbmBank {
            open_row: None,
            bank_free: SimTime::ZERO,
            next_refresh: p.timings.refresh_interval,
            bus_free: SimTime::ZERO,
            bytes_moved: Bytes::ZERO,
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
        }
    }

    /// Performs one access issued at `at`; returns its completion time.
    ///
    /// `addr` is the bank-local address; only its row (`addr /
    /// ROW_BYTES`) matters.
    #[inline]
    pub(crate) fn access(&mut self, p: &HbmParams, at: SimTime, addr: u64, size: Bytes) -> SimTime {
        // The bank starts work once it is free. Every refresh due by
        // then retires in one step, so a bank kept busy by an
        // issue-at-zero replay still refreshes once per tREFI. Each
        // refresh blocks the bank for tRFC and closes its row (refresh
        // precharges the array). With tRFC < tREFI (asserted in
        // `HbmParams::new`) every refresh but the last ends before the
        // next one is due, hence before the start, so only the last can
        // delay it.
        let mut start = if at > self.bank_free {
            at
        } else {
            self.bank_free
        };
        if start >= self.next_refresh {
            let interval = p.timings.refresh_interval;
            let k = (start - self.next_refresh).as_picos() / interval.as_picos() + 1;
            let rfc_end = self.next_refresh + interval * (k - 1) + p.timings.refresh_duration;
            self.open_row = None;
            self.refreshes += k;
            self.next_refresh += interval * k;
            if start < rfc_end {
                start = rfc_end;
            }
        }

        let row = addr / ROW_BYTES;
        let core_latency = if self.open_row == Some(row) {
            self.row_hits += 1;
            p.timings.row_hit
        } else {
            self.row_misses += 1;
            self.open_row = Some(row);
            p.timings.row_activate
        };

        // The bank is occupied for its access latency, then the data
        // crosses the bus lane, first come first served.
        self.bank_free = start + core_latency;
        let bus_start = if self.bank_free > self.bus_free {
            self.bank_free
        } else {
            self.bus_free
        };
        self.bus_free = bus_start + p.bus.time(size);
        self.bytes_moved += size;
        self.bus_free
    }

    /// Row-buffer hit count so far.
    pub(crate) fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer miss (activate) count so far.
    pub(crate) fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Refresh commands retired so far.
    pub(crate) fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Time the bank finishes its current access.
    pub(crate) fn bank_free(&self) -> SimTime {
        self.bank_free
    }

    /// Bytes moved over the bank's bus lane.
    pub(crate) fn bytes_moved(&self) -> Bytes {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::loop_refresh::LoopRefresh;
    use ehp_sim_core::rng::SplitMix64;

    /// One bank owning its parameters, with the 128 B line every
    /// modelled channel uses.
    struct Bank {
        p: HbmParams,
        b: HbmBank,
    }

    impl Bank {
        fn new(timings: HbmTimings, bus_rate: Bandwidth) -> Bank {
            let p = HbmParams::new(timings, bus_rate, Bytes(128));
            Bank {
                b: HbmBank::new(&p),
                p,
            }
        }

        fn access(&mut self, at: SimTime, addr: u64, size: Bytes) -> SimTime {
            self.b.access(&self.p, at, addr, size)
        }
    }

    fn channel() -> Bank {
        Bank::new(
            HbmTimings::hbm3(),
            HbmGeneration::Hbm3.stack_bandwidth().scale(1.0 / 16.0),
        )
    }

    #[test]
    fn generation_capacities() {
        assert_eq!(HbmGeneration::Hbm3.stack_capacity(), Bytes::from_gib(16));
        assert_eq!(
            HbmGeneration::Hbm3TwelveHigh.stack_capacity(),
            Bytes::from_gib(24)
        );
        // 8 stacks: 128 GB (MI300A) vs 192 GB (MI300X).
        assert_eq!(
            (HbmGeneration::Hbm3.stack_capacity() * 8).as_u64(),
            128u64 << 30
        );
        assert_eq!(
            (HbmGeneration::Hbm3TwelveHigh.stack_capacity() * 8).as_u64(),
            192u64 << 30
        );
    }

    #[test]
    fn socket_bandwidths_match_paper() {
        let mi300: Bandwidth = (0..8).map(|_| HbmGeneration::Hbm3.stack_bandwidth()).sum();
        assert!((mi300.as_tb_s() - 5.3).abs() < 0.01, "MI300 ~5.3 TB/s");
        let mi250: Bandwidth = (0..8).map(|_| HbmGeneration::Hbm2e.stack_bandwidth()).sum();
        assert!((mi250.as_tb_s() - 3.28).abs() < 0.01, "MI250X ~3.28 TB/s");
        // Generational uplift ~1.6x ("70% more" in round numbers per paper).
        let uplift = mi300.as_tb_s() / mi250.as_tb_s();
        assert!((1.55..1.75).contains(&uplift), "uplift = {uplift}");
    }

    #[test]
    fn row_hit_faster_than_miss() {
        let mut ch = channel();
        let first = ch.access(SimTime::ZERO, 0, Bytes(128));
        assert_eq!(ch.b.row_misses(), 1);
        let second = ch.access(first, 64, Bytes(128));
        assert_eq!(ch.b.row_hits(), 1);
        let t_miss = first;
        let t_hit = second - first;
        assert!(t_hit < t_miss, "hit {t_hit} vs miss {t_miss}");
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let mut ch = channel();
        let d1 = ch.access(SimTime::ZERO, 0, Bytes(128));
        let d2 = ch.access(SimTime::ZERO, 16 * 1024, Bytes(128));
        assert_eq!(ch.b.row_misses(), 2);
        assert!(d2 > d1, "second conflicting access queues behind");
    }

    #[test]
    fn sustained_stream_approaches_bus_rate() {
        // A bank on its share of the channel bus, as a channel builds
        // it: sequential row hits keep the bus lane saturated.
        let timings = HbmTimings::hbm3();
        let banks = f64::from(timings.banks_per_channel);
        let lane = HbmGeneration::Hbm3
            .stack_bandwidth()
            .scale(1.0 / 16.0 / banks);
        let mut ch = Bank::new(timings, lane);
        let line = Bytes(128);
        let mut t = SimTime::ZERO;
        let n = 10_000u64;
        for i in 0..n {
            // Sequential addresses: high row-buffer locality.
            t = ch.access(SimTime::ZERO, i * 128, line);
        }
        let moved = ch.b.bytes_moved();
        assert_eq!(moved, Bytes(128 * n));
        let achieved = moved.as_f64() / t.as_secs();
        let peak = lane.as_bytes_per_sec();
        assert!(
            achieved > 0.85 * peak,
            "sequential stream should near peak: {:.1}% of peak",
            100.0 * achieved / peak
        );
    }

    #[test]
    fn refresh_steals_bandwidth() {
        // A long sequential stream must retire refreshes and lose a few
        // percent of throughput versus a refresh-free configuration.
        let rate = HbmGeneration::Hbm3.stack_bandwidth().scale(1.0 / 16.0);
        let mut with = Bank::new(HbmTimings::hbm3(), rate);
        let mut without_t = HbmTimings::hbm3();
        without_t.refresh_interval = SimTime::from_secs_f64(1e6);
        let mut without = Bank::new(without_t, rate);

        let mut t_with = SimTime::ZERO;
        let mut t_without = SimTime::ZERO;
        for i in 0..100_000u64 {
            t_with = with.access(t_with, i * 128, Bytes(128));
            t_without = without.access(t_without, i * 128, Bytes(128));
        }
        assert!(with.b.refreshes() > 50, "stream spans many tREFI windows");
        assert_eq!(without.b.refreshes(), 0);
        let loss = t_with.as_secs() / t_without.as_secs() - 1.0;
        assert!(
            (0.01..0.15).contains(&loss),
            "refresh overhead {:.1}% should be a few percent",
            loss * 100.0
        );
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut ch = channel();
        ch.access(SimTime::ZERO, 0, Bytes(128));
        // Jump past a refresh window: the same row must re-activate.
        let later = SimTime::from_nanos(4_500);
        let misses_before = ch.b.row_misses();
        ch.access(later, 64, Bytes(128));
        assert_eq!(
            ch.b.row_misses(),
            misses_before + 1,
            "row closed by refresh"
        );
        assert!(ch.b.refreshes() >= 1);
    }

    #[test]
    fn energy_scales_with_traffic() {
        let mut ch = channel();
        ch.access(SimTime::ZERO, 0, Bytes(1_000_000));
        let e1 = ch.p.energy(&ch.b).as_joules();
        ch.access(SimTime::ZERO, 0, Bytes(1_000_000));
        let e2 = ch.p.energy(&ch.b).as_joules();
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    // The closed-form refresh catch-up in `HbmBank::access` against the
    // per-interval loop it replaced (`LoopRefresh`, in the test
    // oracles). On seeded access sequences with idle gaps of up to ~500
    // tREFI — some landing exactly on a refresh boundary or inside a
    // tRFC window — the bank must match the loop access for access:
    // completion times, row hits, row misses and refreshes.

    /// Base seed of the access-sequence stream.
    const SEED: u64 = 0x00DE_F12E_5400;
    /// Accesses per sequence.
    const ACCESSES: usize = 2_000;
    /// Sequences checked.
    const SEQUENCES: u64 = 8;

    /// Picks the next issue time: back to back, batch-style at zero,
    /// after a short or a long (up to ~500 tREFI) idle gap, exactly on
    /// one of the oracle's next three refresh boundaries, or inside that
    /// refresh's tRFC window.
    fn next_issue(rng: &mut SplitMix64, oracle: &LoopRefresh, last_done: SimTime) -> SimTime {
        let t = oracle.timings;
        let interval = t.refresh_interval.as_picos();
        let boundary = oracle.next_refresh + t.refresh_interval * rng.next_below(3);
        match rng.next_below(6) {
            0 => last_done,
            1 => SimTime::ZERO,
            2 => last_done + SimTime::from_picos(rng.next_below(2 * interval)),
            3 => last_done + SimTime::from_picos(rng.next_below(500 * interval)),
            4 => boundary,
            _ => boundary + SimTime::from_picos(rng.next_below(t.refresh_duration.as_picos())),
        }
    }

    #[test]
    fn closed_form_matches_loop_hbm3_one_bank() {
        let timings = HbmTimings::hbm3();
        let rate = HbmGeneration::Hbm3.stack_bandwidth().scale(1.0 / 256.0);
        for seq in 0..SEQUENCES {
            let mut rng = SplitMix64::new(SEED ^ (1 << 32) ^ seq);
            let mut model = Bank::new(timings, rate);
            let mut oracle = LoopRefresh::new(timings, rate);
            let mut done = SimTime::ZERO;
            for i in 0..ACCESSES {
                let at = next_issue(&mut rng, &oracle, done);
                // A few hot rows (row hits) mixed with a wide random range.
                let addr = if rng.chance(0.5) {
                    rng.next_below(4 * ROW_BYTES)
                } else {
                    rng.next_below(1 << 30)
                };
                let size = Bytes(64 << rng.next_below(3));
                let expect = oracle.access(at, addr, size);
                done = model.access(at, addr, size);
                let ctx = || format!("seq={seq} access={i} at={at}");
                assert_eq!(done, expect, "{}: completion", ctx());
                assert_eq!(
                    model.b.refreshes(),
                    oracle.refreshes,
                    "{}: refreshes",
                    ctx()
                );
            }
            let ctx = format!("seq={seq}");
            assert_eq!(model.b.row_hits(), oracle.row_hits, "{ctx}: row hits");
            assert_eq!(model.b.row_misses(), oracle.row_misses, "{ctx}: row misses");
            assert!(
                oracle.refreshes > 0 && oracle.row_hits > 0,
                "{ctx}: coverage"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be shorter than tREFI")]
    fn overlapping_refreshes_are_rejected() {
        let mut timings = HbmTimings::hbm3();
        timings.refresh_duration = timings.refresh_interval;
        let _ = HbmParams::new(timings, HbmGeneration::Hbm3.stack_bandwidth(), Bytes(128));
    }
}
