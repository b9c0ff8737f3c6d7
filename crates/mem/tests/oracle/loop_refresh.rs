//! The per-interval refresh catch-up loop that the closed form in
//! `HbmBank::access` replaced: identical row and bus timing, but
//! refreshes retired one tREFI interval at a time, up to the time the
//! bank starts the access.

use ehp_sim_core::resource::BandwidthPipe;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::hbm::{HbmTimings, ROW_BYTES};

/// One bank with its own bus, refreshing by the loop.
pub struct LoopRefresh {
    pub timings: HbmTimings,
    bus: BandwidthPipe,
    open_row: Option<u64>,
    bank_free: SimTime,
    pub next_refresh: SimTime,
    pub row_hits: u64,
    pub row_misses: u64,
    pub refreshes: u64,
}

impl LoopRefresh {
    /// An idle bank with its first refresh due one tREFI in.
    pub fn new(timings: HbmTimings, bus_rate: Bandwidth) -> LoopRefresh {
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

    /// Performs one access issued at `at`; returns its completion time.
    pub fn access(&mut self, at: SimTime, addr: u64, size: Bytes) -> SimTime {
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
