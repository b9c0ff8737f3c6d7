//! One memory channel: an Infinity Cache slice in front of an HBM
//! pseudo-channel, decomposed into independent per-bank units. A
//! `MemorySubsystem` owns every bank of every channel.
//!
//! Requests arrive (already steered by the interleaver), are mapped to
//! the bank owning their DRAM row, look up that bank's slice sub-array,
//! and are served either at cache speed or by the bank's HBM lane.
//! Background HBM traffic — dirty victims and prefetch fills — is
//! charged to the bank's HBM lane as soon as the demand that caused it
//! completes, off the demand's critical path: the demand's completion
//! time never waits for it, but the next access to the bank does.
//!
//! Because banks share no mutable state (each owns its row machine, bus
//! lane share, slice sub-array and latency accumulator), a
//! channel's request stream can be partitioned by bank and replayed
//! bank-by-bank with results bit-identical to the sequential order —
//! the rule `MemorySubsystem::replay_sharded` relies on.
//!
//! The layout keeps the replay working set small: a [`BankUnit`] holds
//! only mutable state, every parameter the banks share sits once in a
//! `BankParams`, and the subsystem keeps every bank's Infinity Cache set
//! records in one first-touch `SetStore`, which holds only the sets the
//! traffic so far has filled.

use ehp_sim_core::stats::Accumulator;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes, Energy};

use crate::hbm::{HbmBank, HbmGeneration, HbmParams, HbmTimings, Lane};
use crate::icache::{
    CacheOutcome, PrefetcherConfig, Sets, SetsMut, SliceGeometry, SliceMut, SliceState,
    MAX_PREFETCH_DEGREE,
};

/// Line size (128 B on MI300).
pub(crate) const LINE_BYTES: Bytes = Bytes(128);
/// Peak service rate of one channel's slice in GB/s: its share of the
/// 17 TB/s, 17 TB/s ÷ 128 ≈ 133 GB/s, split evenly across banks.
pub const ICACHE_RATE_GB_S: f64 = 133.0;
/// Load-to-use latency of a slice hit.
const ICACHE_HIT_LATENCY: SimTime = SimTime::from_nanos(25);
/// Slice access energy per byte, in picojoules (~1.5 pJ/bit).
const ICACHE_PJ_PER_BYTE: f64 = 12.0;

/// Peak HBM bus rate of one channel, its HBM3 stack's share (split
/// evenly across banks).
pub(crate) fn hbm_rate() -> Bandwidth {
    HbmGeneration::Hbm3.stack_bandwidth().scale(1.0 / 16.0)
}

/// Static parameters of one channel: the HBM3 timing set and bus share,
/// and a 128 B-line Infinity Cache slice.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Infinity Cache slice capacity; `None` disables the slice (the
    /// `ic_sweep` ablation). Split evenly across banks.
    pub icache_capacity: Option<Bytes>,
    /// Slice associativity.
    pub icache_ways: usize,
    /// Prefetcher settings.
    pub(crate) prefetcher: PrefetcherConfig,
}

impl ChannelConfig {
    /// MI300-style channel: HBM3 share plus a 2 MB / 16-way slice.
    #[must_use]
    pub(crate) fn mi300() -> ChannelConfig {
        ChannelConfig {
            icache_capacity: Some(Bytes::from_mib(2)),
            icache_ways: 16,
            prefetcher: PrefetcherConfig::mi300(),
        }
    }

    /// Banks per channel implied by the HBM timing set.
    #[must_use]
    pub(crate) fn banks(&self) -> usize {
        HbmTimings::hbm3().banks_per_channel as usize
    }
}

/// Bank-decorrelation fold: the rotation added to a row's bank lane,
/// derived from the row's *block index* (`row / banks` — the bits just
/// above the bank field), modulo the power-of-two bank count `banks`.
///
/// The socket interleaver picks the channel from address bits 8–11 plus
/// a granule hash, and the pre-decorrelation bank index was
/// `row % banks` — address bits 10–13. Conditioning on a channel
/// therefore pinned bank bits 10–11 and only 4 of 16 banks per channel
/// ever saw traffic from the global address space. Folding the block
/// index (bits 14 and up, a window disjoint from the channel selector's
/// low bits and folded with different shifts than the stack hash)
/// rotates the lane so all `banks` values occur for every channel, while
/// staying constant within one block — so a channel-sequential row
/// stream still visits all banks round-robin in every block of `banks`
/// rows. `crate::interleave::Interleaver::decode` applies it.
#[inline]
#[must_use]
pub fn bank_mix(block: u64, banks: u64) -> u64 {
    debug_assert!(banks.is_power_of_two(), "bank count {banks}");
    (block ^ (block >> 5) ^ (block >> 9) ^ (block >> 13)) & (banks - 1)
}

/// The parameters every bank of a channel shares, derived once from its
/// [`ChannelConfig`]: the HBM timings and bus lane, the slice geometry
/// and the slice lane.
#[derive(Debug, Clone)]
pub(crate) struct BankParams {
    /// `None` disables the slice.
    slice: Option<SliceGeometry>,
    hbm: HbmParams,
    icache_lane: Lane,
}

impl BankParams {
    /// One bank's share of a `cfg` channel: `1/banks` of its slice, its
    /// HBM bus rate and its slice rate.
    pub(crate) fn new(cfg: &ChannelConfig) -> BankParams {
        let banks = cfg.banks() as u64;
        let slice = cfg.icache_capacity.map(|cap| {
            SliceGeometry::new(
                Bytes(cap.as_u64() / banks),
                cfg.icache_ways,
                LINE_BYTES.as_u64(),
                cfg.prefetcher,
            )
        });
        let hbm = HbmParams::new(
            HbmTimings::hbm3(),
            hbm_rate().scale(1.0 / banks as f64),
            LINE_BYTES,
        );
        let icache_lane = Lane::new(
            Bandwidth::from_gb_s(ICACHE_RATE_GB_S).scale(1.0 / banks as f64),
            LINE_BYTES,
        );
        BankParams {
            slice,
            hbm,
            icache_lane,
        }
    }

    /// Sets per bank slice: 0 without a slice.
    pub(crate) fn sets_per_bank(&self) -> usize {
        self.slice.map_or(0, |g| g.sets())
    }

    /// Starts loading the set record bank-local `addr` maps to in a bank
    /// whose sets are `sets`, without waiting for it (see
    /// `SetRecord::preload`); does nothing without a slice or for a set
    /// never touched.
    #[inline]
    pub(crate) fn preload(&self, sets: Sets<'_>, addr: u64) {
        if let Some(geom) = &self.slice {
            sets.preload(geom.set_of_addr(addr));
        }
    }

    /// The most set records replaying `accesses` accesses can add: none
    /// without a slice.
    pub(crate) fn set_fills(&self, accesses: u64) -> u64 {
        self.slice
            .map_or(0, |g| accesses.saturating_mul(g.fills_per_access()))
    }
}

/// One HBM bank and its share of the channel: a row state machine with a
/// `1/banks` bus lane, a `1/banks` Infinity Cache sub-array and its own
/// latency accumulator. Addresses are bank-local (see
/// `crate::interleave::Interleaver::decode`).
///
/// A bank holds only mutable state. Its parameters are the subsystem's
/// `BankParams`, and its slice's set records sit in the subsystem's
/// `SetStore`; both are passed to `BankUnit::access`.
#[derive(Debug, Clone)]
pub struct BankUnit {
    /// `None` when the channel has no slice.
    slice: Option<SliceState>,
    hbm: HbmBank,
    /// Time the slice lane finishes its current transfer.
    icache_free: SimTime,
    icache_bytes: Bytes,
    icache_energy: Energy,
    latency: Accumulator,
}

impl BankUnit {
    pub(crate) fn new(p: &BankParams) -> BankUnit {
        BankUnit {
            slice: p.slice.map(|_| SliceState::default()),
            hbm: HbmBank::new(&p.hbm),
            icache_free: SimTime::ZERO,
            icache_bytes: Bytes::ZERO,
            icache_energy: Energy::ZERO,
            latency: Accumulator::default(),
        }
    }

    /// Performs one access at a bank-local address, with the bank's
    /// shared parameters `p` and its own sets `sets`; returns the
    /// completion time.
    ///
    /// Always inlined, like the slice steps it runs (`SliceMut::access`,
    /// `install` and `take_prefetches`): with a plain `#[inline]` the
    /// compiler kept these large bodies out of the per-bank replay loop,
    /// and inlining them measured 7–22 % less time per access.
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        p: &BankParams,
        sets: SetsMut<'_>,
        at: SimTime,
        addr: u64,
        size: Bytes,
        is_write: bool,
    ) -> SimTime {
        let (Some(geom), Some(state)) = (&p.slice, self.slice.as_mut()) else {
            // No memory-side cache: straight to HBM.
            let done = self.hbm.access(&p.hbm, at, addr, size);
            self.latency.record((done - at).as_nanos_f64());
            return done;
        };

        // lint:hot-path
        let mut slice = SliceMut { geom, state, sets };
        let outcome = slice.access(addr, is_write);
        let mut prefetches = [0; MAX_PREFETCH_DEGREE];
        let n = slice.take_prefetches(addr, &mut prefetches);

        let done = match outcome {
            CacheOutcome::Hit | CacheOutcome::PrefetchedHit => {
                self.icache_energy +=
                    Energy::from_picojoules(ICACHE_PJ_PER_BYTE).scale(size.as_f64());
                let start = if at > self.icache_free {
                    at
                } else {
                    self.icache_free
                };
                self.icache_free = start + p.icache_lane.time(size);
                self.icache_bytes += size;
                self.icache_free + ICACHE_HIT_LATENCY
            }
            CacheOutcome::Miss { writeback } => {
                // Demand fill from HBM, then delivery through the slice.
                let fetched = self.hbm.access(&p.hbm, at, addr, size.max(LINE_BYTES));
                if let Some(victim) = writeback {
                    // The dirty victim's writeback occupies HBM bandwidth
                    // but is off the critical path.
                    let _ = self.hbm.access(&p.hbm, fetched, victim, LINE_BYTES);
                }
                fetched
            }
        };

        // Prefetch fills start when the demand completes; each fill's
        // dirty victim is written back once that fill lands.
        for &pa in &prefetches[..n] {
            let victim = slice.fill_prefetch(pa);
            let filled = self.hbm.access(&p.hbm, done, pa, LINE_BYTES);
            if let Some(victim) = victim {
                let _ = self.hbm.access(&p.hbm, filled, victim, LINE_BYTES);
            }
        }
        // lint:hot-path-end

        self.latency.record((done - at).as_nanos_f64());
        done
    }

    /// This bank's slice state and counters, if the channel has a slice.
    #[must_use]
    pub fn slice(&self) -> Option<&SliceState> {
        self.slice.as_ref()
    }

    /// Refresh commands this bank's HBM retired.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.hbm.refreshes()
    }

    /// When this bank's HBM finishes the last access it started.
    #[must_use]
    pub fn hbm_busy_until(&self) -> SimTime {
        self.hbm.bank_free()
    }

    /// Total energy: HBM plus slice accesses.
    fn energy_used(&self, p: &BankParams) -> Energy {
        p.hbm.energy(&self.hbm) + self.icache_energy
    }

    /// Per-bank access-latency statistics (nanoseconds). Kept on the
    /// bank — not the channel or subsystem — so sharded replay workers
    /// record latency without any shared state, and merging per-bank
    /// accumulators in flat bank order reproduces the sequential stream
    /// bit for bit.
    fn latency(&self) -> &Accumulator {
        &self.latency
    }
}

/// One channel of a memory subsystem, read only: its banks in
/// bank-index order and the parameters they share. Aggregate statistics
/// fold the banks in bank-index order.
#[derive(Debug, Clone, Copy)]
pub struct ChannelView<'a> {
    pub(crate) params: &'a BankParams,
    pub(crate) banks: &'a [BankUnit],
}

impl<'a> ChannelView<'a> {
    /// The per-bank units, in bank-index order.
    #[must_use]
    pub fn banks(&self) -> &'a [BankUnit] {
        self.banks
    }

    /// Total energy: HBM plus slice accesses, folded in bank order.
    #[must_use]
    pub(crate) fn energy_used(&self) -> Energy {
        self.banks.iter().map(|b| b.energy_used(self.params)).sum()
    }

    /// Bytes moved over the channel's HBM lanes.
    #[must_use]
    pub fn hbm_bytes_moved(&self) -> Bytes {
        self.banks.iter().map(|b| b.hbm.bytes_moved()).sum()
    }

    /// DRAM row-buffer hits across banks.
    #[must_use]
    pub fn row_hits(&self) -> u64 {
        self.banks.iter().map(|b| b.hbm.row_hits()).sum()
    }

    /// DRAM row activations across banks.
    #[must_use]
    pub fn row_misses(&self) -> u64 {
        self.banks.iter().map(|b| b.hbm.row_misses()).sum()
    }

    /// Refresh commands retired across banks.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.banks.iter().map(|b| b.hbm.refreshes()).sum()
    }

    /// Bytes served from the Infinity Cache slice.
    #[must_use]
    pub fn icache_bytes(&self) -> Bytes {
        self.banks.iter().map(|b| b.icache_bytes).sum()
    }

    /// `true` if this channel has an Infinity Cache slice.
    #[must_use]
    pub(crate) fn has_icache(&self) -> bool {
        self.params.slice.is_some()
    }

    /// Slice hits (demand + prefetched) across banks.
    #[must_use]
    pub(crate) fn icache_hits(&self) -> u64 {
        self.banks
            .iter()
            .filter_map(BankUnit::slice)
            .map(|s| s.hits() + s.prefetch_hits())
            .sum()
    }

    /// Slice misses across banks.
    #[must_use]
    pub(crate) fn icache_misses(&self) -> u64 {
        self.banks
            .iter()
            .filter_map(BankUnit::slice)
            .map(SliceState::misses)
            .sum()
    }

    /// Channel-wide latency statistics: the per-bank accumulators merged
    /// in bank-index order.
    #[must_use]
    pub(crate) fn latency_stats(&self) -> Accumulator {
        let mut acc = Accumulator::default();
        for b in self.banks {
            acc.merge(b.latency());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hbm::ROW_BYTES;
    use crate::interleave::{InterleaveConfig, Interleaver};
    use crate::request::{AccessKind, MemRequest};
    use crate::subsystem::{MemConfig, MemorySubsystem};

    /// The 1-stack × 1-channel interleave: every address reaches
    /// channel 0, so the flat bank is the channel's own bank.
    fn one_channel() -> InterleaveConfig {
        InterleaveConfig {
            stacks: 1,
            channels_per_stack: 1,
            ..InterleaveConfig::mi300()
        }
    }

    /// The bank of a `banks`-bank channel that channel-local `addr`
    /// reaches, and its bank-local address.
    fn bank_slot(addr: u64, banks: u64) -> (usize, u64) {
        Interleaver::new(one_channel(), banks as u32)
            .unwrap()
            .decode(addr)
    }

    /// One `cfg` channel alone: a subsystem over a 1-stack × 1-channel
    /// interleave, so address `addr` reaches bank `bank_slot(addr, 16)`.
    fn channel(cfg: ChannelConfig) -> MemorySubsystem {
        MemorySubsystem::new(MemConfig {
            interleave: one_channel(),
            channel: cfg,
        })
    }

    /// One 128 B access at `addr` issued at `at`: its completion time.
    fn access(ch: &mut MemorySubsystem, at: SimTime, addr: u64, is_write: bool) -> SimTime {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let size = Bytes(128);
        ch.access(at, MemRequest { addr, size, kind }).completes_at
    }

    /// The statistics of the one channel.
    fn view(ch: &MemorySubsystem) -> ChannelView<'_> {
        ch.channels()[0]
    }

    /// The MI300 channel with its Infinity Cache slice disabled.
    fn no_slice() -> ChannelConfig {
        ChannelConfig {
            icache_capacity: None,
            ..ChannelConfig::mi300()
        }
    }

    #[test]
    fn bank_state_stays_compact() {
        // A bank record holds mutable state only; the parameters its
        // channel's banks share live once, in `BankParams`.
        let size = std::mem::size_of::<BankUnit>();
        assert!(size <= 256, "BankUnit grew to {size} bytes");
    }

    #[test]
    fn bank_slot_is_a_per_bank_bijection() {
        // Distinct addresses mapping to the same bank get distinct local
        // addresses, and channel-sequential rows are bank-locally dense.
        let banks = 16u64;
        let mut seen = std::collections::BTreeMap::new();
        for addr in (0..(1u64 << 20)).step_by(128) {
            let (bank, local) = bank_slot(addr, banks);
            assert!(bank < banks as usize);
            let prev = seen.insert((bank, local), addr);
            assert_eq!(prev, None, "collision at bank {bank} local {local:#x}");
        }
        // Row r of the channel is row r/banks of its bank, with the
        // bank lane rotated by the block's decorrelation fold.
        assert_eq!(bank_slot(0, banks), (0, 0));
        assert_eq!(bank_slot(1024, banks), (1, 0));
        assert_eq!(
            bank_slot(16 * 1024, banks),
            (bank_mix(1, banks) as usize, 1024)
        );
        assert_eq!(
            bank_slot(16 * 1024 + 100, banks),
            (bank_mix(1, banks) as usize, 1124)
        );
    }

    #[test]
    fn bank_slot_inverts_via_bank_mix() {
        // The documented inverse really is one: decode -> re-encode is
        // the identity for every (bank, local) produced by a scan.
        let banks = 16u64;
        for addr in (0..(1u64 << 22)).step_by(128) {
            let (bank, local) = bank_slot(addr, banks);
            let block = local / ROW_BYTES;
            let lane = (bank as u64 + banks - bank_mix(block, banks)) % banks;
            let row = block * banks + lane;
            assert_eq!(row * ROW_BYTES + local % ROW_BYTES, addr);
        }
    }

    #[test]
    fn sequential_rows_cover_all_banks_per_block() {
        // Within every aligned block of `banks` rows, the rotated lanes
        // are a permutation: channel-sequential streams keep full
        // bank-level parallelism.
        let banks = 16u64;
        for block in 0..256u64 {
            let mut seen = [false; 16];
            for lane in 0..banks {
                let (bank, _) = bank_slot((block * banks + lane) * ROW_BYTES, banks);
                assert!(!seen[bank], "block {block}: bank {bank} repeated");
                seen[bank] = true;
            }
        }
    }

    #[test]
    fn different_banks_overlap() {
        // Adjacent rows land in different banks, whose row machines and
        // bus lanes run in parallel: the second access does not queue
        // behind the first.
        let mut ch = channel(no_slice());
        assert_ne!(bank_slot(0, 16).0, bank_slot(1024, 16).0, "distinct banks");
        let d1 = access(&mut ch, SimTime::ZERO, 0, false);
        let d2 = access(&mut ch, SimTime::ZERO, 1024, false);
        assert_eq!(d1, d2);
    }

    #[test]
    fn hit_is_faster_than_miss() {
        let mut ch = channel(ChannelConfig::mi300());
        let t_miss = access(&mut ch, SimTime::ZERO, 0x1000, false);
        assert_eq!((view(&ch).icache_hits(), view(&ch).icache_misses()), (0, 1));
        let t_hit_abs = access(&mut ch, t_miss, 0x1000, false);
        assert_eq!((view(&ch).icache_hits(), view(&ch).icache_misses()), (1, 1));
        let t_hit = t_hit_abs - t_miss;
        assert!(t_hit < t_miss, "cache hit {t_hit} should beat HBM {t_miss}");
    }

    #[test]
    fn no_cache_goes_to_hbm() {
        let mut ch = channel(no_slice());
        let t1 = access(&mut ch, SimTime::ZERO, 0x1000, false);
        let t2 = access(&mut ch, SimTime::ZERO, 0x1000, false);
        // No slice: the repeat queues behind the first on the same HBM
        // bank instead of hitting, and both move HBM bytes.
        assert!(t2 > t1, "no slice, still HBM");
        let v = view(&ch);
        assert_eq!((v.icache_hits(), v.icache_misses()), (0, 0));
        assert_eq!(v.icache_bytes(), Bytes::ZERO);
        assert_eq!(v.hbm_bytes_moved(), Bytes(256));
    }

    #[test]
    fn repeated_working_set_amplifies_bandwidth() {
        // A working set that fits in the slice should be served mostly at
        // slice speed after warm-up: more bytes served by the slice than
        // fetched from HBM.
        let mut ch = channel(ChannelConfig::mi300());
        let lines = 1024u64; // 128 KiB, well inside 2 MiB
        let mut t = SimTime::ZERO;
        for _pass in 0..8 {
            for i in 0..lines {
                let done = access(&mut ch, t, i * 128, false);
                t = done;
            }
        }
        let v = view(&ch);
        let slice_bytes = v.icache_bytes().as_u64();
        let hbm_bytes = v.hbm_bytes_moved().as_u64();
        assert!(
            slice_bytes > 3 * hbm_bytes,
            "slice {slice_bytes} vs hbm {hbm_bytes}"
        );
        let hit_rate = v.icache_hits() as f64 / (v.icache_hits() + v.icache_misses()) as f64;
        assert!(hit_rate > 0.8, "hit rate {hit_rate}");
    }

    #[test]
    fn streaming_beyond_capacity_misses() {
        let mut ch = channel(ChannelConfig::mi300());
        // Stride past the prefetcher (non-sequential lines) over a huge
        // footprint: mostly HBM.
        let mut t = SimTime::ZERO;
        for i in 0..20_000u64 {
            let addr = (i * 7919) % (1 << 30); // prime stride, no streams
            let done = access(&mut ch, t, addr & !127, false);
            t = done;
        }
        let v = view(&ch);
        let hit_rate = v.icache_hits() as f64 / (v.icache_hits() + v.icache_misses()) as f64;
        assert!(hit_rate < 0.2, "hit rate {hit_rate} should be low");
    }

    #[test]
    fn dirty_victim_writeback_is_charged_with_the_miss() {
        // One 128 B line per bank and no prefetcher: a second line in the
        // same bank evicts the dirty first one, and the miss that evicts
        // it moves the victim's bytes before it returns.
        let cfg = ChannelConfig {
            icache_capacity: Some(Bytes(16 * 128)),
            icache_ways: 1,
            prefetcher: PrefetcherConfig::disabled(),
        };
        let mut ch = channel(cfg);
        assert_eq!(bank_slot(0, 16).0, bank_slot(128, 16).0, "same bank");
        access(&mut ch, SimTime::ZERO, 0, true);
        assert_eq!(view(&ch).hbm_bytes_moved(), Bytes(128), "demand fill only");
        access(&mut ch, SimTime::ZERO, 128, false);
        assert_eq!(
            view(&ch).hbm_bytes_moved(),
            Bytes(3 * 128),
            "fill + writeback"
        );
    }

    #[test]
    fn energy_includes_both_levels() {
        let mut ch = channel(ChannelConfig::mi300());
        access(&mut ch, SimTime::ZERO, 0, false); // miss: HBM energy
        let e_miss = view(&ch).energy_used().as_joules();
        access(&mut ch, SimTime::ZERO, 0, false); // hit: slice energy
        let e_total = view(&ch).energy_used().as_joules();
        assert!(e_total > e_miss);
        // A slice hit must be cheaper than the HBM fetch.
        assert!(e_total - e_miss < e_miss);
    }
}
