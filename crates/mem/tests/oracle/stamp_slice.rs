//! The stamp-based Infinity Cache slice that the per-set recency record
//! replaced: flat `tags` / `lru` / `flags` arrays plus per-set lengths,
//! with a global 32-bit LRU clock.

use crate::icache::{CacheOutcome, PrefetcherConfig};

/// Line size of every slice the oracle models.
pub const LINE: u64 = 128;

const DIRTY: u8 = 1;
const PREFETCHED: u8 = 2;

/// The pre-record slice: a globally unique stamp per touch, the
/// minimum stamp of a full set is its victim.
pub struct StampSlice {
    tags: Vec<u32>,
    lru: Vec<u32>,
    flags: Vec<u8>,
    set_len: Vec<u32>,
    ways: usize,
    set_mask: u64,
    lru_clock: u32,
    pf: PrefetcherConfig,
    last_line: Option<u64>,
    stream_len: u32,
    pub hits: u64,
    pub prefetch_hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl StampSlice {
    pub fn new(sets: usize, ways: usize, pf: PrefetcherConfig) -> StampSlice {
        StampSlice {
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            flags: vec![0; sets * ways],
            set_len: vec![0; sets],
            ways,
            set_mask: sets as u64 - 1,
            lru_clock: 0,
            pf,
            last_line: None,
            stream_len: 0,
            hits: 0,
            prefetch_hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_and_tag(&self, line: u64) -> (usize, u32) {
        let tag = u32::try_from(line >> self.set_mask.trailing_ones()).expect("32-bit tag");
        ((line & self.set_mask) as usize, tag)
    }

    fn tick(&mut self) -> u32 {
        self.lru_clock = self.lru_clock.checked_add(1).expect("LRU clock overflow");
        self.lru_clock
    }

    fn install(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        let (set_idx, tag) = self.set_and_tag(line);
        let stamp = self.tick();
        let base = set_idx * self.ways;
        let len = self.set_len[set_idx] as usize;
        if let Some(i) = self.tags[base..base + len].iter().position(|&t| t == tag) {
            self.flags[base + i] |= u8::from(dirty) * DIRTY;
            self.lru[base + i] = stamp;
            return None;
        }
        let mut victim_addr = None;
        let slot = if len == self.ways {
            let vi = (0..len)
                .min_by_key(|&i| self.lru[base + i])
                .expect("full set");
            if self.flags[base + vi] & DIRTY != 0 {
                self.writebacks += 1;
                let victim_line = (u64::from(self.tags[base + vi])
                    << self.set_mask.trailing_ones())
                    | set_idx as u64;
                victim_addr = Some(victim_line * LINE);
            }
            vi
        } else {
            self.set_len[set_idx] = (len + 1) as u32;
            len
        };
        self.tags[base + slot] = tag;
        self.lru[base + slot] = stamp;
        self.flags[base + slot] = u8::from(dirty) * DIRTY + u8::from(prefetched) * PREFETCHED;
        victim_addr
    }

    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let line = addr / LINE;
        let (set_idx, tag) = self.set_and_tag(line);
        let base = set_idx * self.ways;
        let len = self.set_len[set_idx] as usize;
        if let Some(i) = self.tags[base..base + len].iter().position(|&t| t == tag) {
            let slot = base + i;
            let was_prefetched = self.flags[slot] & PREFETCHED != 0;
            self.flags[slot] = (self.flags[slot] | (u8::from(is_write) * DIRTY)) & !PREFETCHED;
            self.lru[slot] = self.tick();
            if was_prefetched {
                self.prefetch_hits += 1;
                return CacheOutcome::PrefetchedHit;
            }
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        let writeback = self.install(line, is_write, false);
        CacheOutcome::Miss { writeback }
    }

    pub fn take_prefetches(&mut self, addr: u64) -> Vec<u64> {
        let line = addr / LINE;
        if !self.pf.enabled {
            return Vec::new();
        }
        match self.last_line {
            Some(prev) if line == prev + 1 => self.stream_len += 1,
            Some(prev) if line == prev => {}
            _ => self.stream_len = 0,
        }
        self.last_line = Some(line);
        if self.stream_len < self.pf.train_threshold {
            return Vec::new();
        }
        let mut out = Vec::new();
        for d in 1..=u64::from(self.pf.degree) {
            let l = line + d;
            let (set_idx, tag) = self.set_and_tag(l);
            let base = set_idx * self.ways;
            let len = self.set_len[set_idx] as usize;
            if !self.tags[base..base + len].contains(&tag) {
                out.push(l * LINE);
            }
        }
        out
    }

    pub fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.install(addr / LINE, false, true)
    }

    pub fn resident_lines(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }
}
