//! Refresh in issue-at-zero replay, checked by a rule that shares no
//! code with the bank model: in a bucketed replay every request issues
//! at zero, and each bank, busy from zero until its last access ends,
//! must retire one refresh per tREFI of that span.
//!
//! The access-by-access check of the bank's closed-form refresh
//! catch-up against the per-interval loop it replaced
//! (`oracle/loop_refresh.rs`) runs in the crate's unit tests
//! (`hbm::tests`), since it drives the crate's own `HbmBank`.

use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, Pattern, TraceConfig};
use ehp_sim_core::time::SimTime;

/// HBM3's average refresh interval (tREFI), 3.9 us by the JEDEC
/// standard.
fn t_refi() -> SimTime {
    SimTime::from_nanos(3_900)
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
    let interval = t_refi().as_picos();
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
