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
//! `SetRecord`s of every bank in one first-touch `SetStore`, which holds
//! a record only for a set some access has filled. `SliceMut` runs the
//! slice over borrowed parts.

use ehp_sim_core::units::Bytes;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
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

/// Stream prefetcher configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefetcherConfig {
    /// Whether prefetching is enabled.
    pub(crate) enabled: bool,
    /// Lines fetched ahead on a detected sequential stream.
    pub(crate) degree: u32,
    /// Consecutive-line accesses needed before the stream trains.
    pub(crate) train_threshold: u32,
}

impl PrefetcherConfig {
    /// The MI300-style default: enabled, moderate depth.
    #[must_use]
    pub(crate) fn mi300() -> PrefetcherConfig {
        PrefetcherConfig {
            enabled: true,
            degree: 4,
            train_threshold: 2,
        }
    }
}

/// Largest supported prefetch degree: [`SliceGeometry::new`] asserts
/// `degree <= MAX_PREFETCH_DEGREE`, so one access's prefetch targets
/// always fit a fixed array.
pub(crate) const MAX_PREFETCH_DEGREE: usize = 16;

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
    /// `log2` of the line size, so decoding an address is a shift.
    line_shift: u32,
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
            line_shift: line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            pf,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// The most sets one access can add to a store: its demand fill
    /// plus one per prefetch fill.
    pub(crate) fn fills_per_access(&self) -> u64 {
        1 + if self.pf.enabled {
            u64::from(self.pf.degree)
        } else {
            0
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn addr_of(&self, line: u64) -> u64 {
        line << self.line_shift
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
/// The set records live apart (one `SetStore` per memory subsystem) and
/// the geometry is shared, so a bank carries only this.
#[derive(Debug, Clone, Default)]
pub struct SliceState {
    /// Last line index accessed (stream detector state).
    last_line: Option<u64>,
    stream_len: u32,
    hits: u64,
    prefetch_hits: u64,
    misses: u64,
    writebacks: u64,
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

/// The set records of a run of equally shaped slices, stored on first
/// touch: a record exists only for a set that some access has filled.
///
/// `index` has one entry per (slice, set), slice-major: 0 if the set was
/// never touched, otherwise the position of its record in `records`.
/// `records[0]` is an empty record that no access writes, so an
/// untouched set reads as an empty one with no branch on the way. A new
/// store is one zeroed `index` allocation and that one record, so
/// building one costs nothing per set, and a replay pays only for the
/// sets its trace reaches. Only `SetsMut::get_or_insert`, which
/// `SliceMut::install` calls, appends a record.
#[derive(Debug, Clone)]
pub(crate) struct SetStore {
    index: Vec<u32>,
    records: Vec<SetRecord>,
    sets_per_slice: usize,
}

impl SetStore {
    /// An empty store for `slices` slices of `sets_per_slice` sets.
    ///
    /// # Panics
    ///
    /// Panics if the store has more sets than a `u32` index can number.
    pub(crate) fn new(slices: usize, sets_per_slice: usize) -> SetStore {
        let sets = slices * sets_per_slice;
        assert!(u32::try_from(sets).is_ok(), "too many sets for one store");
        SetStore {
            index: vec![0; sets],
            records: vec![SetRecord::default()],
            sets_per_slice,
        }
    }

    /// Slice `slice`'s part of the index, with the record `Vec` it
    /// appends to.
    #[inline]
    pub(crate) fn slice_mut(&mut self, slice: usize) -> SetsMut<'_> {
        let n = self.sets_per_slice;
        SetsMut {
            index: &mut self.index[slice * n..(slice + 1) * n],
            records: &mut self.records,
        }
    }

    /// Slice `slice`'s sets, read only.
    #[inline]
    pub(crate) fn slice(&self, slice: usize) -> Sets<'_> {
        Sets {
            index: &self.index,
            first: slice * self.sets_per_slice,
            records: &self.records,
        }
    }

    /// Makes room for `fills` more records, or for every untouched set if
    /// that is fewer, so appending them never reallocates.
    pub(crate) fn reserve(&mut self, fills: u64) {
        let untouched = self.index.len() - self.len();
        let n = usize::try_from(fills).map_or(untouched, |f| f.min(untouched));
        self.records.reserve_exact(n);
    }

    /// Number of records: the sets touched so far.
    pub(crate) fn len(&self) -> usize {
        self.records.len() - 1
    }

    /// Moves each slice's records into a `Vec` of its own, led by an
    /// empty record as the store's is, so slices can be replayed apart,
    /// and renumbers the index to match; `fills` gives, per slice, how
    /// many records to make room for (capped at its untouched sets).
    /// [`SetStore::join`] undoes it.
    pub(crate) fn split(&mut self, fills: impl Iterator<Item = u64>) -> Vec<Vec<SetRecord>> {
        let n = self.sets_per_slice;
        let mut parts = Vec::new();
        for (slice, fills) in fills.enumerate() {
            let index = &mut self.index[slice * n..(slice + 1) * n];
            let touched = index.iter().filter(|&&e| e != 0).count();
            let room = usize::try_from(fills).map_or(n - touched, |f| f.min(n - touched));
            let mut part = Vec::with_capacity(1 + touched + room);
            part.push(SetRecord::default());
            for entry in index.iter_mut().filter(|e| **e != 0) {
                part.push(self.records[*entry as usize]);
                *entry = (part.len() - 1) as u32;
            }
            parts.push(part);
        }
        self.records.truncate(1);
        parts
    }

    /// Every slice's sets in slice order, over the per-slice records
    /// `parts` of [`SetStore::split`]: disjoint views that replay
    /// workers may own.
    pub(crate) fn apart<'a>(
        &'a mut self,
        parts: &'a mut [Vec<SetRecord>],
    ) -> impl Iterator<Item = SetsMut<'a>> {
        let n = self.sets_per_slice;
        let mut rest = self.index.as_mut_slice();
        parts.iter_mut().map(move |records| {
            let (index, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            SetsMut { index, records }
        })
    }

    /// Puts the per-slice records of [`SetStore::split`] back in one
    /// `Vec`, slice after slice, and renumbers the index to match.
    pub(crate) fn join(&mut self, parts: Vec<Vec<SetRecord>>) {
        let n = self.sets_per_slice;
        self.records.truncate(1);
        self.records
            .reserve_exact(parts.iter().map(|p| p.len() - 1).sum::<usize>());
        for (slice, part) in parts.into_iter().enumerate() {
            let base = self.len() as u32;
            for entry in self.index[slice * n..(slice + 1) * n]
                .iter_mut()
                .filter(|e| **e != 0)
            {
                *entry += base;
            }
            self.records.extend_from_slice(&part[1..]);
        }
    }
}

/// One slice's sets: its part of a `SetStore` index and the record `Vec`
/// that new sets are appended to (the whole store's, or the slice's own
/// while `SetStore::split` has it apart).
pub(crate) struct SetsMut<'a> {
    index: &'a mut [u32],
    records: &'a mut Vec<SetRecord>,
}

impl SetsMut<'_> {
    /// The same sets, borrowed again for a shorter while.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> SetsMut<'_> {
        SetsMut {
            index: self.index,
            records: self.records,
        }
    }

    /// The same sets, read only.
    #[inline]
    pub(crate) fn view(&self) -> Sets<'_> {
        Sets {
            index: self.index,
            first: 0,
            records: self.records,
        }
    }

    /// The record of set `set` (see [`Sets::get`]).
    #[inline]
    fn get(&self, set: usize) -> &SetRecord {
        self.view().get(set)
    }

    /// The record of set `set`, which holds the line that was just found
    /// in it, so the set has been touched and the record is its own.
    #[inline]
    fn get_found(&mut self, set: usize) -> &mut SetRecord {
        // lint:hot-path
        let entry = self.index[set] as usize;
        debug_assert_ne!(entry, 0, "a line was found in an untouched set");
        &mut self.records[entry]
        // lint:hot-path-end
    }

    /// The record of set `set`, appended empty on its first touch.
    #[inline]
    fn get_or_insert(&mut self, set: usize) -> &mut SetRecord {
        // lint:hot-path
        let mut entry = self.index[set] as usize;
        if entry == 0 {
            entry = self.records.len();
            self.records.push(SetRecord::default());
            self.index[set] = entry as u32;
        }
        &mut self.records[entry]
        // lint:hot-path-end
    }
}

/// One slice's sets, read only: the entries of a `SetStore` index from
/// `first` on and the records they name. The slice's set `s` is entry
/// `first + s`, so a view over the whole index costs one bounds check
/// per lookup, as one over the slice's own part does.
#[derive(Clone, Copy)]
pub(crate) struct Sets<'a> {
    index: &'a [u32],
    first: usize,
    records: &'a [SetRecord],
}

impl<'a> Sets<'a> {
    /// The record of set `set`: the store's empty record if the set was
    /// never touched.
    #[inline]
    fn get(self, set: usize) -> &'a SetRecord {
        // lint:hot-path
        &self.records[self.index[self.first + set] as usize]
        // lint:hot-path-end
    }

    /// Starts loading the record of set `set` (see `SetRecord::preload`).
    #[inline]
    pub(crate) fn preload(self, set: usize) {
        self.get(set).preload();
    }
}

/// A slice at work: its scalar state plus its borrowed geometry and set
/// records. Every slice operation runs here, on the sets of one bank of
/// a memory subsystem.
///
/// Addresses given to the slice are full physical addresses; the slice
/// indexes with line-granular bits above the line offset. Because the
/// interleaver already steered the address here, no channel bits need to
/// be stripped (they are constant within a slice and harmlessly join the
/// tag).
pub(crate) struct SliceMut<'a> {
    pub(crate) geom: &'a SliceGeometry,
    pub(crate) state: &'a mut SliceState,
    pub(crate) sets: SetsMut<'a>,
}

impl SliceMut<'_> {
    /// Installs an absent line (demand fill or prefetch) as the set's
    /// MRU; returns the dirty victim address if one was evicted. The
    /// only operation that adds a record to the store.
    fn install(&mut self, set_idx: usize, tag: u32, dirty: bool, prefetched: bool) -> Option<u64> {
        let ways = self.geom.ways;
        let set = self.sets.get_or_insert(set_idx);
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
                victim_addr = Some(self.geom.addr_of(victim_line));
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

        let Some(slot) = self.sets.get(set_idx).find(tag) else {
            self.state.misses += 1;
            let writeback = self.install(set_idx, tag, is_write, false);
            return CacheOutcome::Miss { writeback };
        };
        let set = self.sets.get_found(set_idx);
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
            if self.sets.get(geom.set_of(l)).find(geom.tag_of(l)).is_none() {
                out[n] = geom.addr_of(l);
                n += 1;
            }
        }
        n
        // lint:hot-path-end
    }

    /// Installs a prefetched line; returns dirty victim address if any.
    /// A line that is already resident just becomes the set's MRU.
    pub(crate) fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        let line = self.geom.line_of(addr);
        let set_idx = self.geom.set_of(line);
        let tag = self.geom.tag_of(line);
        if let Some(slot) = self.sets.get(set_idx).find(tag) {
            self.sets.get_found(set_idx).touch(slot);
            return None;
        }
        self.install(set_idx, tag, false, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::stamp_slice::{StampSlice, LINE};
    use ehp_sim_core::rng::SplitMix64;

    impl PrefetcherConfig {
        /// A prefetcher that never fires. Defined with the tests: no
        /// product configuration turns the prefetcher off.
        pub(crate) fn disabled() -> PrefetcherConfig {
            PrefetcherConfig {
                enabled: false,
                degree: 0,
                train_threshold: u32::MAX,
            }
        }
    }

    /// One slice owning the geometry, state and set store that a bank
    /// of a memory subsystem borrows, with 128 B lines.
    struct Slice {
        geom: SliceGeometry,
        state: SliceState,
        sets: SetStore,
    }

    impl Slice {
        fn new(capacity: Bytes, ways: usize, pf: PrefetcherConfig) -> Slice {
            let geom = SliceGeometry::new(capacity, ways, LINE, pf);
            Slice {
                sets: SetStore::new(1, geom.sets()),
                geom,
                state: SliceState::default(),
            }
        }

        fn run(&mut self) -> SliceMut<'_> {
            SliceMut {
                geom: &self.geom,
                state: &mut self.state,
                sets: self.sets.slice_mut(0),
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
            self.run().access(addr, is_write)
        }

        fn take_prefetches(&mut self, addr: u64, out: &mut [u64; MAX_PREFETCH_DEGREE]) -> usize {
            self.run().take_prefetches(addr, out)
        }

        fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
            self.run().fill_prefetch(addr)
        }

        fn resident_lines(&self) -> usize {
            self.sets.records.iter().map(|r| usize::from(r.len)).sum()
        }
    }

    fn slice() -> Slice {
        Slice::new(Bytes::from_kib(64), 4, PrefetcherConfig::disabled())
    }

    #[test]
    fn mi300_geometry() {
        // The MI300 per-channel slice: 2 MB, 16-way, 128 B lines.
        let s = Slice::new(Bytes::from_mib(2), 16, PrefetcherConfig::mi300());
        // 2 MiB / 128 B / 16 ways = 1024 sets.
        assert_eq!(s.geom.sets(), 1024);
        assert_eq!(s.geom.addr_of(1), 128, "128 B lines");
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = slice();
        assert!(matches!(s.access(0x1000, false), CacheOutcome::Miss { .. }));
        assert_eq!(s.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(s.state.hits(), 1);
        assert_eq!(s.state.misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut s = slice();
        s.access(0x1000, false);
        assert_eq!(
            s.access(0x1040, false),
            CacheOutcome::Hit,
            "same 128 B line"
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut s = slice(); // 4-way, 128 sets
        let num_sets = s.geom.sets() as u64;
        let stride = 128 * num_sets; // same set each time
        for i in 0..4 {
            s.access(i * stride, false);
        }
        // Touch line 0 so line 1 becomes LRU.
        s.access(0, false);
        // Insert a 5th line -> evicts line 1.
        s.access(4 * stride, false);
        assert_eq!(
            s.access(0, false),
            CacheOutcome::Hit,
            "recently used survives"
        );
        assert!(
            matches!(s.access(stride, false), CacheOutcome::Miss { .. }),
            "LRU victim was evicted"
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut s = slice();
        let num_sets = s.geom.sets() as u64;
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
        assert_eq!(s.state.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut s = slice();
        let num_sets = s.geom.sets() as u64;
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
        let num_sets = s.geom.sets() as u64;
        let stride = 128 * num_sets;
        s.access(0, false); // clean fill
        s.access(0, true); // dirty it via write hit
        for i in 1..5 {
            s.access(i * stride, false);
        }
        assert_eq!(s.state.writebacks(), 1);
    }

    #[test]
    fn stream_prefetcher_trains_and_hits() {
        let mut s = Slice::new(Bytes::from_kib(64), 4, PrefetcherConfig::mi300());
        // Walk sequential lines; after training, later lines should be
        // prefetched hits.
        let mut prefetched_hits = 0;
        let mut issued = 0;
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
            issued += n;
        }
        assert!(
            prefetched_hits > 40,
            "got {prefetched_hits} prefetched hits"
        );
        assert!(issued > 0);
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
        let mut s = Slice::new(Bytes::from_kib(64), 4, PrefetcherConfig::mi300());
        let mut rng = SplitMix64::new(1);
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
        let counts = |s: &Slice| (s.state.hits(), s.state.prefetch_hits(), s.state.misses());
        assert_eq!(counts(&s), (0, 0, 0));
        s.access(0, false);
        s.access(0, false);
        assert_eq!(counts(&s), (1, 0, 1));
    }

    #[test]
    fn capacity_bounded() {
        let mut s = slice(); // 64 KiB / 128 B = 512 lines max
        for i in 0..10_000u64 {
            s.access(i * 128, false);
        }
        assert!(s.resident_lines() <= 512);
    }

    /// This property's seed: the FNV-1a hash of `"cache_capacity"`.
    const CAPACITY_SEED: u64 = 0xA3F1_C771_A400_FF92;

    /// Cache capacity is never exceeded and hit/miss counts add up.
    #[test]
    fn cache_capacity_and_accounting() {
        let mut rng = SplitMix64::new(CAPACITY_SEED);
        for _ in 0..32 {
            let n_ops = 1 + rng.next_below(2_000) as usize;
            let mut s = slice();
            for _ in 0..n_ops {
                let addr = rng.next_u64() as u32;
                s.access(u64::from(addr) & !127, rng.chance(0.5));
            }
            assert!(s.resident_lines() <= 512);
            let st = &s.state;
            assert_eq!(st.hits() + st.prefetch_hits() + st.misses(), n_ops as u64);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Slice::new(Bytes(3 * 128 * 4), 4, PrefetcherConfig::disabled());
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_panics() {
        let _ = Slice::new(Bytes(32 * 128), 32, PrefetcherConfig::disabled());
    }

    #[test]
    #[should_panic(expected = "prefetch degree above 16")]
    fn prefetch_degree_above_the_array_panics() {
        let pf = PrefetcherConfig {
            degree: 17,
            ..PrefetcherConfig::mi300()
        };
        let _ = Slice::new(Bytes::from_kib(64), 4, pf);
    }

    // The per-set recency record against the stamp-based slice it
    // replaced (`StampSlice`, in the test oracles). On seeded streams of
    // reads, writes and prefetch fills over slices of one to eight sets
    // — so most operations evict — the slice must match it operation
    // for operation: every outcome (including writeback addresses and
    // `PrefetchedHit`), every list of prefetch addresses and victim of a
    // prefetch fill, and the final counters and resident line count.

    /// Base seed of the operation streams.
    const SEED: u64 = 0x1A0_0AC1E;
    /// Operations per stream.
    const OPS: usize = 20_000;

    /// The next address: the line after the previous one (trains the
    /// stream prefetcher), a line from a window a few times the capacity
    /// (hits and evictions), or a far line (a large tag).
    fn next_addr(rng: &mut SplitMix64, prev: u64, capacity_lines: u64) -> u64 {
        let line = match rng.next_below(4) {
            0 | 1 => prev / LINE + 1,
            2 => rng.next_below(4 * capacity_lines),
            _ => rng.next_below(1 << 28),
        };
        line * LINE + rng.next_below(LINE)
    }

    fn check(ways: usize, sets: usize, pf: PrefetcherConfig) {
        let capacity = Bytes(sets as u64 * ways as u64 * LINE);
        let capacity_lines = (sets * ways) as u64;
        let mut rng = SplitMix64::new(SEED ^ ((ways as u64) << 40) ^ ((sets as u64) << 32));
        let mut model = Slice::new(capacity, ways, pf);
        let mut oracle = StampSlice::new(sets, ways, pf);
        let mut addr = 0;
        for op in 0..OPS {
            addr = next_addr(&mut rng, addr, capacity_lines);
            let ctx = || {
                format!(
                    "ways={ways} sets={sets} pf={} op={op} addr={addr:#x}",
                    pf.enabled
                )
            };
            match rng.next_below(8) {
                // A prefetch fill of an arbitrary line, resident or not.
                0 => assert_eq!(
                    model.fill_prefetch(addr),
                    oracle.fill_prefetch(addr),
                    "{}",
                    ctx()
                ),
                kind => {
                    let is_write = kind >= 5;
                    let got = model.access(addr, is_write);
                    assert_eq!(got, oracle.access(addr, is_write), "{}: outcome", ctx());
                    let mut prefetches = [0; MAX_PREFETCH_DEGREE];
                    let n = model.take_prefetches(addr, &mut prefetches);
                    assert_eq!(
                        prefetches[..n],
                        oracle.take_prefetches(addr),
                        "{}: prefetches",
                        ctx()
                    );
                    for &pa in &prefetches[..n] {
                        assert_eq!(
                            model.fill_prefetch(pa),
                            oracle.fill_prefetch(pa),
                            "{}: fill",
                            ctx()
                        );
                    }
                }
            }
        }
        let ctx = format!("ways={ways} sets={sets} pf={}", pf.enabled);
        let st = &model.state;
        assert_eq!(st.hits(), oracle.hits, "{ctx}: hits");
        assert_eq!(
            st.prefetch_hits(),
            oracle.prefetch_hits,
            "{ctx}: prefetch hits"
        );
        assert_eq!(st.misses(), oracle.misses, "{ctx}: misses");
        assert_eq!(st.writebacks(), oracle.writebacks, "{ctx}: writebacks");
        assert_eq!(
            model.resident_lines(),
            oracle.resident_lines(),
            "{ctx}: resident lines"
        );
        assert!(
            oracle.hits > 0 && oracle.writebacks > 0 && (!pf.enabled || oracle.prefetch_hits > 0),
            "{ctx}: coverage"
        );
    }

    fn check_ways(ways: usize) {
        let pfs = [
            PrefetcherConfig::disabled(),
            PrefetcherConfig::mi300(),
            PrefetcherConfig {
                enabled: true,
                degree: 16,
                train_threshold: 1,
            },
        ];
        for sets in [1, 2, 4, 8] {
            for pf in pfs {
                check(ways, sets, pf);
            }
        }
    }

    #[test]
    fn record_matches_stamps_direct_mapped() {
        check_ways(1);
    }

    #[test]
    fn record_matches_stamps_four_way() {
        check_ways(4);
    }

    #[test]
    fn record_matches_stamps_sixteen_way() {
        check_ways(16);
    }
}
