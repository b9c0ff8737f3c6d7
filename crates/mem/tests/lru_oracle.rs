//! The stamp-based Infinity Cache slice that the per-set recency record
//! in `InfinityCacheSlice` replaced, kept as a test-only oracle: flat
//! `tags` / `lru` / `flags` arrays plus per-set lengths, with a global
//! 32-bit LRU clock. On seeded streams of reads, writes and prefetch
//! fills over slices of one to eight sets — so most operations evict —
//! the production slice must match it operation for operation: every
//! outcome (including writeback addresses and `PrefetchedHit`), every
//! list of prefetch addresses and victim of a prefetch fill, and the
//! final counters and resident line count.

use ehp_mem::icache::{CacheOutcome, InfinityCacheSlice, PrefetcherConfig, MAX_PREFETCH_DEGREE};
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::units::Bytes;

/// Base seed of the operation streams.
const SEED: u64 = 0x1A0_0AC1E;
/// Operations per stream.
const OPS: usize = 20_000;
/// Line size of every modelled slice.
const LINE: u64 = 128;

const DIRTY: u8 = 1;
const PREFETCHED: u8 = 2;

/// The pre-record slice: a globally unique stamp per touch, the
/// minimum stamp of a full set is its victim.
struct StampSlice {
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
    hits: u64,
    prefetch_hits: u64,
    misses: u64,
    writebacks: u64,
    prefetch_issued: u64,
}

impl StampSlice {
    fn new(sets: usize, ways: usize, pf: PrefetcherConfig) -> StampSlice {
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
            prefetch_issued: 0,
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

    fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
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

    fn take_prefetches(&mut self, addr: u64) -> Vec<u64> {
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

    fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.prefetch_issued += 1;
        self.install(addr / LINE, false, true)
    }

    fn resident_lines(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }
}

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
    let mut model = InfinityCacheSlice::new(capacity, ways, LINE, pf);
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
    assert_eq!(model.hits(), oracle.hits, "{ctx}: hits");
    assert_eq!(
        model.prefetch_hits(),
        oracle.prefetch_hits,
        "{ctx}: prefetch hits"
    );
    assert_eq!(model.misses(), oracle.misses, "{ctx}: misses");
    assert_eq!(model.writebacks(), oracle.writebacks, "{ctx}: writebacks");
    assert_eq!(
        model.prefetches_issued(),
        oracle.prefetch_issued,
        "{ctx}: prefetches issued"
    );
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
