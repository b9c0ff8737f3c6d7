//! The per-interval refresh catch-up loop that the closed form in
//! `HbmChannelModel::access` replaced, kept as a test-only oracle. On
//! seeded access sequences with idle gaps of up to ~500 tREFI — some
//! landing exactly on a refresh boundary or inside a tRFC window — the
//! production model must match it access for access: completion times,
//! row hits, row misses and refreshes. The model is one bank, the only
//! shape a memory channel builds (`ehp_mem::channel::BankUnit`).
//!
//! The loop keys refreshes on the same start time as the model, so a
//! second check shares no rule with either: in a bucketed replay every
//! request issues at zero, and each bank, busy from zero until its last
//! access ends, must retire one refresh per tREFI of that span.

use ehp_mem::hbm::{HbmChannelModel, HbmGeneration, HbmTimings, ROW_BYTES};
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::resource::BandwidthPipe;
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

/// Base seed of the access-sequence stream.
const SEED: u64 = 0x00DE_F12E_5400;
/// Accesses per sequence.
const ACCESSES: usize = 2_000;
/// Sequences per HBM generation.
const SEQUENCES: u64 = 8;

/// The pre-closed-form bank model: identical row and bus timing, but
/// refreshes retired one tREFI interval at a time, up to the time the
/// bank starts the access.
struct LoopRefresh {
    timings: HbmTimings,
    bus: BandwidthPipe,
    open_row: Option<u64>,
    bank_free: SimTime,
    next_refresh: SimTime,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
}

impl LoopRefresh {
    fn new(timings: HbmTimings, bus_rate: Bandwidth) -> LoopRefresh {
        LoopRefresh {
            timings,
            bus: BandwidthPipe::new("oracle_bus", bus_rate),
            open_row: None,
            bank_free: SimTime::ZERO,
            next_refresh: timings.refresh_interval,
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
        }
    }

    fn access(&mut self, at: SimTime, addr: u64, size: Bytes) -> SimTime {
        // Refreshes come due against the time the bank starts work.
        let mut at = at.max(self.bank_free);
        while at >= self.next_refresh {
            let rfc_end = self.next_refresh + self.timings.refresh_duration;
            self.bank_free = self.bank_free.max(rfc_end);
            self.open_row = None;
            self.refreshes += 1;
            self.next_refresh += self.timings.refresh_interval;
            if at < rfc_end {
                at = rfc_end;
            }
        }
        let row = addr / ROW_BYTES;
        let core_latency = if self.open_row == Some(row) {
            self.row_hits += 1;
            self.timings.row_hit
        } else {
            self.row_misses += 1;
            self.open_row = Some(row);
            self.timings.row_activate
        };
        self.bank_free = at.max(self.bank_free) + core_latency;
        self.bus.request(self.bank_free, size)
    }
}

/// Picks the next issue time: back to back, batch-style at zero, after
/// a short or a long (up to ~500 tREFI) idle gap, exactly on one of the
/// oracle's next three refresh boundaries, or inside that refresh's
/// tRFC window.
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

fn check(gen: HbmGeneration) {
    let timings = gen.timings();
    let rate = gen.stack_bandwidth().scale(1.0 / 256.0);
    for seq in 0..SEQUENCES {
        let mut rng = SplitMix64::new(SEED ^ (1 << 32) ^ seq);
        let mut model = HbmChannelModel::new(timings, rate);
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
            let ctx = || format!("{gen:?} seq={seq} access={i} at={at}");
            assert_eq!(done, expect, "{}: completion", ctx());
            assert_eq!(model.refreshes(), oracle.refreshes, "{}: refreshes", ctx());
        }
        let ctx = format!("{gen:?} seq={seq}");
        assert_eq!(model.row_hits(), oracle.row_hits, "{ctx}: row hits");
        assert_eq!(model.row_misses(), oracle.row_misses, "{ctx}: row misses");
        assert!(
            oracle.refreshes > 0 && oracle.row_hits > 0,
            "{ctx}: coverage"
        );
    }
}

#[test]
fn closed_form_matches_loop_hbm3_one_bank() {
    check(HbmGeneration::Hbm3);
}

#[test]
fn closed_form_matches_loop_hbm2e_one_bank() {
    check(HbmGeneration::Hbm2e);
}

#[test]
#[should_panic(expected = "must be shorter than tREFI")]
fn overlapping_refreshes_are_rejected() {
    let gen = HbmGeneration::Hbm3;
    let mut timings = gen.timings();
    timings.refresh_duration = timings.refresh_interval;
    let _ = HbmChannelModel::new(timings, gen.stack_bandwidth());
}

/// Replays `pattern` issue-at-zero (bank-bucketed) on a two-channel HBM3
/// subsystem without Infinity Cache, so every access reaches a bank and
/// keeps it busy from zero until its last access ends at `T`. Each bank
/// must have retired `floor(T / tREFI)` refreshes, within one (the last
/// access may start just before a refresh comes due).
fn check_busy_banks_refresh(pattern: Pattern) {
    let mut cfg = MemConfig::mi300_hbm3();
    cfg.interleave.stacks = 1;
    cfg.interleave.channels_per_stack = 2;
    cfg.channel.icache_capacity = None;
    let mut mem = MemorySubsystem::new(cfg);
    let trace = TraceConfig {
        accesses: 40_000,
        footprint: 64 << 20,
        ..TraceConfig::new(pattern)
    };
    let _ = replay(&mut mem, &trace);
    let interval = HbmGeneration::Hbm3.timings().refresh_interval.as_picos();
    let mut banks = 0;
    for (c, channel) in mem.channels().iter().enumerate() {
        for (b, bank) in channel.banks().iter().enumerate() {
            let busy = bank.hbm_busy_until();
            let due = busy.as_picos() / interval;
            assert!(
                bank.refreshes().abs_diff(due) <= 1,
                "{pattern:?} channel {c} bank {b}: {} refreshes, busy until {busy} ({due} tREFI)",
                bank.refreshes()
            );
            assert!(
                due >= 10,
                "{pattern:?} channel {c} bank {b}: busy {due} tREFI"
            );
            banks += 1;
        }
    }
    assert_eq!(banks, 32, "two HBM3 channels of 16 banks");
}

#[test]
fn busy_banks_refresh_once_per_trefi_random() {
    check_busy_banks_refresh(Pattern::Random);
}

#[test]
fn busy_banks_refresh_once_per_trefi_hot() {
    check_busy_banks_refresh(Pattern::Hot {
        hot_fraction: 0.9,
        hot_bytes: 1 << 20,
    });
}
