//! The Infinity Cache: a memory-side, per-channel cache slice.
//!
//! Per the paper (Section IV.D): each of the 128 memory channels is paired
//! with a 2 MB slice (256 MB total); because the cache is on the *memory
//! side* of the fabric it does not participate in coherence; its job is
//! **bandwidth amplification** (up to 17 TB/s versus 5.3 TB/s of raw HBM)
//! plus a hardware prefetcher to shave latency.
//!
//! The slice is a classic set-associative write-back cache with true-LRU
//! replacement and a sequential stream prefetcher. Its state is split
//! three ways so a memory subsystem can lay it out densely: one
//! `SliceGeometry` per channel, one [`SliceState`] per bank, and the
//! `SetRecord`s of every bank in one arena. `SliceMut` runs the slice
//! over borrowed parts; [`InfinityCacheSlice`] owns all three.

use ehp_sim_core::units::Bytes;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present (demand hit).
    Hit,
    /// Line present because the prefetcher brought it in earlier; counts
    /// as a hit for service latency but is reported separately.
    PrefetchedHit,
    /// Line absent; `writeback` carries the dirty victim address if one
    /// was evicted.
    Miss {
        /// Dirty victim line address that must be written back to HBM.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// `true` if the access is served from the cache.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::PrefetchedHit)
    }
}

/// Stream prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Whether prefetching is enabled.
    pub enabled: bool,
    /// Lines fetched ahead on a detected sequential stream.
    pub degree: u32,
    /// Consecutive-line accesses needed before the stream trains.
    pub train_threshold: u32,
}

impl PrefetcherConfig {
    /// The MI300-style default: enabled, moderate depth.
    #[must_use]
    pub fn mi300() -> PrefetcherConfig {
        PrefetcherConfig {
            enabled: true,
            degree: 4,
            train_threshold: 2,
        }
    }

    /// Disabled prefetcher (ablation baseline).
    #[must_use]
    pub fn disabled() -> PrefetcherConfig {
        PrefetcherConfig {
            enabled: false,
            degree: 0,
            train_threshold: u32::MAX,
        }
    }
}

/// Largest supported prefetch degree: [`InfinityCacheSlice::new`]
/// asserts `degree <= MAX_PREFETCH_DEGREE`, so one access's prefetch
/// targets always fit a fixed array.
pub const MAX_PREFETCH_DEGREE: usize = 16;

/// Largest supported associativity: a set's recency order is sixteen
/// 4-bit slot indices packed in one `u64`, and its tags are a
/// fixed `MAX_WAYS`-slot array.
const MAX_WAYS: usize = 16;

/// One set: its tags and its replacement and state bits in one record,
/// so a lookup touches one record and nothing else. The state comes
/// first, then the tags; at 16-byte alignment an 80-byte record spans
/// at most two cache lines.
///
/// `order` is the set's exact true-LRU recency list: nibble `k` holds
/// the slot index of the `k`-th most recently used live line, so nibble
/// 0 is the MRU slot and nibble `len - 1` the LRU victim. Nibbles at
/// positions `>= len` are zero.
///
/// Tags are `u32`: a 32-bit tag covers any address below
/// `line_bytes << (32 + set_bits)` (≥ 2^45 B for the smallest
/// modelled slice), which `tag_of` asserts.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
pub(crate) struct SetRecord {
    order: u64,
    /// Bit `i`: slot `i` holds data newer than HBM.
    dirty: u16,
    /// Bit `i`: slot `i` was filled by the prefetcher and has not been
    /// demand-hit yet.
    prefetched: u16,
    /// Live lines: slots `0..len` are valid.
    len: u8,
    /// Tag per slot; only the first `len` are live.
    tags: [u32; MAX_WAYS],
}

impl SetRecord {
    /// Recency position of live `slot` in `order`: the first nibble equal
    /// to `slot` (slot indices are unique among the first `len` nibbles,
    /// and the zero-nibble test flags no position below the first true
    /// match).
    fn position(&self, slot: usize) -> u32 {
        const ONES: u64 = 0x1111_1111_1111_1111;
        let x = self.order ^ (slot as u64 * ONES);
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 3);
        zero.trailing_zeros() / 4
    }

    /// Moves the slot at recency position `pos` — or, with `pos == len`,
    /// a slot just appended — to the MRU position.
    fn promote(&mut self, pos: u32, slot: usize) {
        let shift = 4 * pos;
        let below = self.order & ((1u64 << shift) - 1);
        let above = self.order & u64::MAX.checked_shl(shift + 4).unwrap_or(0);
        self.order = above | (below << 4) | slot as u64;
    }

    /// Makes live `slot` the MRU.
    fn touch(&mut self, slot: usize) {
        self.promote(self.position(slot), slot);
    }

    /// The slot holding `tag`, if the line is resident.
    fn find(&self, tag: u32) -> Option<usize> {
        // lint:hot-path
        self.tags[..usize::from(self.len)]
            .iter()
            .position(|&t| t == tag)
        // lint:hot-path-end
    }

    /// Reads the two ends of the record without using them, so that
    /// both of its cache lines start loading before a dependent lookup
    /// needs them.
    #[inline]
    pub(crate) fn preload(&self) {
        std::hint::black_box((self.len, self.tags[MAX_WAYS - 1]));
    }
}

/// The geometry and prefetcher settings of a slice, shared by every
/// bank of a channel (each bank's slice is the same shape).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceGeometry {
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    pf: PrefetcherConfig,
}

impl SliceGeometry {
    /// The geometry of a slice of the given capacity, associativity and
    /// line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways × line` sets, set count not a power of two, or more than 16
    /// ways) or the prefetch degree exceeds [`MAX_PREFETCH_DEGREE`].
    pub(crate) fn new(
        capacity: Bytes,
        ways: usize,
        line_bytes: u64,
        pf: PrefetcherConfig,
    ) -> SliceGeometry {
        assert!(ways > 0 && line_bytes.is_power_of_two());
        assert!(ways <= MAX_WAYS, "at most {MAX_WAYS} ways per set");
        assert!(
            pf.degree as usize <= MAX_PREFETCH_DEGREE,
            "prefetch degree above {MAX_PREFETCH_DEGREE}"
        );
        let lines = capacity.as_u64() / line_bytes;
        assert!(
            lines.is_multiple_of(ways as u64),
            "capacity must divide into whole sets"
        );
        let num_sets = lines / ways as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SliceGeometry {
            ways,
            line_bytes,
            set_mask: num_sets - 1,
            pf,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// The set `addr` maps to.
    #[inline]
    pub(crate) fn set_of_addr(&self, addr: u64) -> usize {
        self.set_of(self.line_of(addr))
    }

    /// The stored (32-bit) tag for a line index.
    ///
    /// # Panics
    ///
    /// Panics if the tag exceeds 32 bits — an address beyond the
    /// modelled physical space (≥ `line_bytes << (32 + set_bits)`).
    fn tag_of(&self, line: u64) -> u32 {
        let tag = line >> self.set_mask.trailing_ones();
        u32::try_from(tag).expect("address beyond the modelled physical space")
    }
}

/// The scalar state of one slice: its stream detector and counters.
/// The set records live apart (one arena per memory subsystem) and the
/// geometry is shared, so a bank carries only this.
#[derive(Debug, Clone, Default)]
pub struct SliceState {
    /// Last line index accessed (stream detector state).
    last_line: Option<u64>,
    stream_len: u32,
    hits: u64,
    prefetch_hits: u64,
    misses: u64,
    writebacks: u64,
    prefetch_issued: u64,
}

impl SliceState {
    /// Demand hits.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Hits on prefetched lines.
    pub(crate) fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Misses.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions written back to HBM.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

/// A slice at work: its scalar state plus its borrowed geometry and set
/// records. Every slice operation runs here, whether the sets belong to
/// a bank of a memory subsystem or to a standalone
/// [`InfinityCacheSlice`].
///
/// Addresses given to the slice are full physical addresses; the slice
/// indexes with line-granular bits above the line offset. Because the
/// interleaver already steered the address here, no channel bits need to
/// be stripped (they are constant within a slice and harmlessly join the
/// tag).
pub(crate) struct SliceMut<'a> {
    pub(crate) geom: &'a SliceGeometry,
    pub(crate) state: &'a mut SliceState,
    pub(crate) sets: &'a mut [SetRecord],
}

impl SliceMut<'_> {
    /// Installs an absent line (demand fill or prefetch) as the set's
    /// MRU; returns the dirty victim address if one was evicted.
    fn install(&mut self, set_idx: usize, tag: u32, dirty: bool, prefetched: bool) -> Option<u64> {
        let ways = self.geom.ways;
        let set = &mut self.sets[set_idx];
        let len = usize::from(set.len);
        let mut victim_addr = None;
        let slot = if len == ways {
            // Full set: overwrite the LRU slot in place.
            let slot = ((set.order >> (4 * (ways - 1))) & 0xF) as usize;
            set.promote(ways as u32 - 1, slot);
            if set.dirty & (1 << slot) != 0 {
                self.state.writebacks += 1;
                let victim_line = (u64::from(set.tags[slot]) << self.geom.set_mask.trailing_ones())
                    | set_idx as u64;
                victim_addr = Some(victim_line * self.geom.line_bytes);
            }
            slot
        } else {
            set.promote(len as u32, len);
            set.len += 1;
            len
        };
        let bit = 1u16 << slot;
        set.dirty = (set.dirty & !bit) | (u16::from(dirty) << slot);
        set.prefetched = (set.prefetched & !bit) | (u16::from(prefetched) << slot);
        set.tags[slot] = tag;
        victim_addr
    }

    /// Runs the stream detector; returns whether the stream is trained
    /// (the caller then prefetches `degree` lines ahead of `line`).
    fn stream_trained(&mut self, line: u64) -> bool {
        let pf = &self.geom.pf;
        if !pf.enabled {
            return false;
        }
        let state = &mut *self.state;
        match state.last_line {
            Some(prev) if line == prev + 1 => state.stream_len += 1,
            Some(prev) if line == prev => {}
            _ => state.stream_len = 0,
        }
        state.last_line = Some(line);
        state.stream_len >= pf.train_threshold
    }

    /// Looks up `addr`, updating replacement and dirty state.
    pub(crate) fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let line = self.geom.line_of(addr);
        let set_idx = self.geom.set_of(line);
        let tag = self.geom.tag_of(line);

        let Some(slot) = self.sets[set_idx].find(tag) else {
            self.state.misses += 1;
            let writeback = self.install(set_idx, tag, is_write, false);
            return CacheOutcome::Miss { writeback };
        };
        let set = &mut self.sets[set_idx];
        set.touch(slot);
        let bit = 1u16 << slot;
        set.dirty |= u16::from(is_write) << slot;
        let was_prefetched = set.prefetched & bit != 0;
        set.prefetched &= !bit;
        if was_prefetched {
            self.state.prefetch_hits += 1;
            CacheOutcome::PrefetchedHit
        } else {
            self.state.hits += 1;
            CacheOutcome::Hit
        }
    }

    /// Writes the prefetch addresses triggered by an access at `addr` to
    /// the front of `out` and returns how many there are (at most the
    /// prefetch degree).
    pub(crate) fn take_prefetches(
        &mut self,
        addr: u64,
        out: &mut [u64; MAX_PREFETCH_DEGREE],
    ) -> usize {
        // lint:hot-path
        let line = self.geom.line_of(addr);
        if !self.stream_trained(line) {
            return 0;
        }
        let geom = self.geom;
        let mut n = 0;
        for d in 1..=u64::from(geom.pf.degree) {
            let l = line + d;
            if self.sets[geom.set_of(l)].find(geom.tag_of(l)).is_none() {
                out[n] = l * geom.line_bytes;
                n += 1;
            }
        }
        n
        // lint:hot-path-end
    }

    /// Installs a prefetched line; returns dirty victim address if any.
    /// A line that is already resident just becomes the set's MRU.
    pub(crate) fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.state.prefetch_issued += 1;
        let line = self.geom.line_of(addr);
        let set_idx = self.geom.set_of(line);
        let tag = self.geom.tag_of(line);
        if let Some(slot) = self.sets[set_idx].find(tag) {
            self.sets[set_idx].touch(slot);
            return None;
        }
        self.install(set_idx, tag, false, true)
    }
}

/// One Infinity Cache slice on its own: the geometry, scalar state and
/// set records a memory subsystem keeps apart, owned together, over the
/// same `SliceMut` code the banks run.
///
/// # Example
///
/// ```
/// use ehp_mem::icache::{InfinityCacheSlice, PrefetcherConfig, CacheOutcome};
/// use ehp_sim_core::units::Bytes;
///
/// let mut s = InfinityCacheSlice::new(Bytes::from_mib(2), 16, 128,
///                                     PrefetcherConfig::disabled());
/// assert!(!s.access(0x1000, false).is_hit()); // cold miss
/// assert!(s.access(0x1000, false).is_hit());  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct InfinityCacheSlice {
    geom: SliceGeometry,
    state: SliceState,
    sets: Vec<SetRecord>,
}

impl InfinityCacheSlice {
    /// Creates a slice of the given capacity/associativity/line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways × line` sets, set count not a power of two, or more than 16
    /// ways) or the prefetch degree exceeds [`MAX_PREFETCH_DEGREE`].
    #[must_use]
    pub fn new(
        capacity: Bytes,
        ways: usize,
        line_bytes: u64,
        pf: PrefetcherConfig,
    ) -> InfinityCacheSlice {
        let geom = SliceGeometry::new(capacity, ways, line_bytes, pf);
        InfinityCacheSlice {
            sets: vec![SetRecord::default(); geom.sets()],
            geom,
            state: SliceState::default(),
        }
    }

    fn view(&mut self) -> SliceMut<'_> {
        SliceMut {
            geom: &self.geom,
            state: &mut self.state,
            sets: &mut self.sets,
        }
    }

    /// Looks up `addr`, updating replacement and dirty state.
    ///
    /// The prefetch addresses the stream prefetcher wants fetched come
    /// from [`InfinityCacheSlice::take_prefetches`].
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.view().access(addr, is_write)
    }

    /// Writes the prefetch addresses triggered by an access at `addr` to
    /// the front of `out` and returns how many there are (at most the
    /// prefetch degree). Call after [`InfinityCacheSlice::access`]; the
    /// caller charges the fetches to HBM bandwidth and installs them via
    /// [`InfinityCacheSlice::fill_prefetch`].
    pub fn take_prefetches(&mut self, addr: u64, out: &mut [u64; MAX_PREFETCH_DEGREE]) -> usize {
        self.view().take_prefetches(addr, out)
    }

    /// Installs a prefetched line; returns dirty victim address if any.
    /// A line that is already resident just becomes the set's MRU.
    pub fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.view().fill_prefetch(addr)
    }

    /// Demand hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.state.hits
    }

    /// Hits on prefetched lines.
    #[must_use]
    pub fn prefetch_hits(&self) -> u64 {
        self.state.prefetch_hits
    }

    /// Misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.state.misses
    }

    /// Dirty evictions written back to HBM.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.state.writebacks
    }

    /// Prefetch fills issued.
    #[must_use]
    pub fn prefetches_issued(&self) -> u64 {
        self.state.prefetch_issued
    }

    /// Number of resident lines (for tests/diagnostics).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| usize::from(s.len)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> InfinityCacheSlice {
        InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::disabled())
    }

    #[test]
    fn mi300_geometry() {
        // The MI300 per-channel slice: 2 MB, 16-way, 128 B lines.
        let s = InfinityCacheSlice::new(Bytes::from_mib(2), 16, 128, PrefetcherConfig::mi300());
        // 2 MiB / 128 B / 16 ways = 1024 sets.
        assert_eq!(s.sets.len(), 1024);
        assert_eq!(s.geom.line_bytes, 128);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = slice();
        assert!(matches!(s.access(0x1000, false), CacheOutcome::Miss { .. }));
        assert_eq!(s.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut s = slice();
        s.access(0x1000, false);
        assert!(s.access(0x1040, false).is_hit(), "same 128 B line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut s = slice(); // 4-way, 128 sets
        let num_sets = s.sets.len() as u64;
        let stride = 128 * num_sets; // same set each time
        for i in 0..4 {
            s.access(i * stride, false);
        }
        // Touch line 0 so line 1 becomes LRU.
        s.access(0, false);
        // Insert a 5th line -> evicts line 1.
        s.access(4 * stride, false);
        assert!(s.access(0, false).is_hit(), "recently used survives");
        assert!(!s.access(stride, false).is_hit(), "LRU victim was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut s = slice();
        let num_sets = s.sets.len() as u64;
        let stride = 128 * num_sets;
        s.access(0, true); // dirty line
        for i in 1..4 {
            s.access(i * stride, false);
        }
        // Evict the dirty line.
        match s.access(4 * stride, false) {
            CacheOutcome::Miss { writeback: Some(a) } => assert_eq!(a, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut s = slice();
        let num_sets = s.sets.len() as u64;
        let stride = 128 * num_sets;
        for i in 0..5 {
            match s.access(i * stride, false) {
                CacheOutcome::Miss { writeback } => assert_eq!(writeback, None),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut s = slice();
        let num_sets = s.sets.len() as u64;
        let stride = 128 * num_sets;
        s.access(0, false); // clean fill
        s.access(0, true); // dirty it via write hit
        for i in 1..5 {
            s.access(i * stride, false);
        }
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn stream_prefetcher_trains_and_hits() {
        let mut s = InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::mi300());
        // Walk sequential lines; after training, later lines should be
        // prefetched hits.
        let mut prefetched_hits = 0;
        for i in 0..64u64 {
            let addr = i * 128;
            let out = s.access(addr, false);
            if out == CacheOutcome::PrefetchedHit {
                prefetched_hits += 1;
            }
            let mut pf = [0; MAX_PREFETCH_DEGREE];
            let n = s.take_prefetches(addr, &mut pf);
            for &pa in &pf[..n] {
                s.fill_prefetch(pa);
            }
        }
        assert!(
            prefetched_hits > 40,
            "got {prefetched_hits} prefetched hits"
        );
        assert!(s.prefetches_issued() > 0);
    }

    #[test]
    fn disabled_prefetcher_issues_nothing() {
        let mut s = slice();
        for i in 0..32u64 {
            s.access(i * 128, false);
            assert_eq!(s.take_prefetches(i * 128, &mut [0; MAX_PREFETCH_DEGREE]), 0);
        }
    }

    #[test]
    fn random_stream_does_not_train() {
        let mut s = InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::mi300());
        let mut rng = ehp_sim_core::rng::SplitMix64::new(1);
        let mut issued = 0;
        for _ in 0..256 {
            let addr = rng.next_below(1 << 30) & !127;
            s.access(addr, false);
            issued += s.take_prefetches(addr, &mut [0; MAX_PREFETCH_DEGREE]);
        }
        // Random lines almost never form length-2 sequential runs.
        assert!(issued <= 8, "random stream issued {issued} prefetches");
    }

    #[test]
    fn hit_rate_reporting() {
        // The counters `MemorySubsystem::icache_hit_rate` folds together.
        let mut s = slice();
        assert_eq!((s.hits(), s.prefetch_hits(), s.misses()), (0, 0, 0));
        s.access(0, false);
        s.access(0, false);
        assert_eq!((s.hits(), s.prefetch_hits(), s.misses()), (1, 0, 1));
    }

    #[test]
    fn capacity_bounded() {
        let mut s = slice(); // 64 KiB / 128 B = 512 lines max
        for i in 0..10_000u64 {
            s.access(i * 128, false);
        }
        assert!(s.resident_lines() <= 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = InfinityCacheSlice::new(Bytes(3 * 128 * 4), 4, 128, PrefetcherConfig::disabled());
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_panics() {
        let _ = InfinityCacheSlice::new(Bytes(32 * 128), 32, 128, PrefetcherConfig::disabled());
    }

    #[test]
    #[should_panic(expected = "prefetch degree above 16")]
    fn prefetch_degree_above_the_array_panics() {
        let pf = PrefetcherConfig {
            degree: 17,
            ..PrefetcherConfig::mi300()
        };
        let _ = InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, pf);
    }
}
