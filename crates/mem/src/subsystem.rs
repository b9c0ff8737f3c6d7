//! The socket-level memory subsystem: interleaver + 128 channels.

use std::collections::VecDeque;
use std::sync::Mutex;

use ehp_sim_core::ids::ChannelId;
use ehp_sim_core::stats::{Accumulator, Counter};
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes, Energy};

use crate::channel::{BankParams, BankUnit, ChannelConfig, ChannelView};
use crate::icache::{SetStore, SetsMut};
use crate::interleave::{InterleaveConfig, Interleaver};
use crate::request::{MemRequest, MemResponse};

/// Replay requests bucketed by flat bank id, packed for the replay hot
/// path: each entry is a **bank-local** address (see
/// [`MemorySubsystem::flat_bank_of`]) with the write flag in the top
/// bit, and every request in the set shares one access size — the
/// line-granular shape of every generated trace. The packing matters:
/// a bucketed million-access trace is 8 MB instead of the ~24 MB of
/// boxed `MemRequest`s, and the bucketing pass is memory-bound.
#[derive(Debug, Clone)]
pub(crate) struct BankBuckets {
    buckets: Vec<Vec<u64>>,
    size: Bytes,
    entries: u64,
}

impl BankBuckets {
    /// Tag bit marking a packed entry as a write.
    const WRITE_BIT: u64 = 1 << 63;

    /// Creates an empty bucket set for `banks` flat banks with the
    /// uniform per-request `size`. `expected_entries` sizes each
    /// bucket's initial capacity for an even spread (the decorrelated
    /// interleave delivers one for uniform *and* hot traces), so the
    /// bucketing pass avoids per-bucket growth reallocations; skewed
    /// buckets still grow past the hint correctly.
    #[must_use]
    pub(crate) fn new(banks: usize, size: Bytes, expected_entries: u64) -> BankBuckets {
        let per_bucket = (expected_entries as usize / banks.max(1)).next_multiple_of(8);
        BankBuckets {
            buckets: (0..banks).map(|_| Vec::with_capacity(per_bucket)).collect(),
            size,
            entries: 0,
        }
    }

    /// Appends a request for flat bank `flat` at bank-local address
    /// `local`, in trace order.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range or `local` collides with the
    /// write tag bit.
    #[inline]
    pub(crate) fn push(&mut self, flat: usize, local: u64, is_write: bool) {
        debug_assert_eq!(local & Self::WRITE_BIT, 0, "address overflows packing");
        self.buckets[flat].push(local | (u64::from(is_write) << 63));
        self.entries += 1;
    }

    /// Number of flat-bank buckets.
    #[must_use]
    pub(crate) fn banks(&self) -> usize {
        self.buckets.len()
    }
}

/// One unit of work for the stealing scheduler: a bank, its sets and
/// its packed request sub-stream.
struct ShardItem<'a> {
    unit: &'a mut BankUnit,
    sets: SetsMut<'a>,
    reqs: &'a [u64],
}

/// Configuration of the whole memory subsystem.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Address interleave scheme.
    pub interleave: InterleaveConfig,
    /// Per-channel configuration (replicated across channels).
    pub channel: ChannelConfig,
}

impl MemConfig {
    /// The MI300 memory system: 128 HBM3 channels, 4 KB hashed stack
    /// interleave, 2 MB Infinity Cache slices.
    #[must_use]
    pub fn mi300_hbm3() -> MemConfig {
        MemConfig {
            interleave: InterleaveConfig::mi300(),
            channel: ChannelConfig::mi300(),
        }
    }

    /// Total capacity implied by the interleave geometry and HBM
    /// generation in `channel` (derived from bus rate — callers wanting
    /// exact capacity use product specs in `ehp-core`).
    #[must_use]
    pub fn total_channels(&self) -> u32 {
        self.interleave.total_channels()
    }
}

/// The socket memory subsystem.
///
/// # Example
///
/// ```
/// use ehp_mem::request::MemRequest;
/// use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
/// use ehp_sim_core::time::SimTime;
///
/// let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
/// let r1 = mem.access(SimTime::ZERO, MemRequest::read(0x0, 128));
/// let r2 = mem.access(SimTime::ZERO, MemRequest::read(0x100, 128));
/// // Different channel granules: the accesses land on distinct channels.
/// assert_ne!(r1.channel, r2.channel);
/// ```
#[derive(Debug)]
pub struct MemorySubsystem {
    interleaver: Interleaver,
    /// Peak HBM bus rate of one channel.
    channel_rate: Bandwidth,
    banks_per_channel: usize,
    /// The parameters every bank shares.
    params: BankParams,
    /// Every bank of every channel in flat order (channel-major,
    /// bank-minor).
    units: Vec<BankUnit>,
    /// Every bank's Infinity Cache set records in one first-touch
    /// store, flat bank `b` being its slice `b`.
    sets: SetStore,
    reads: Counter,
    writes: Counter,
    bytes: Bytes,
}

impl MemorySubsystem {
    /// Builds the subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the interleave configuration is invalid (see
    /// `InterleaveConfig::validate`).
    #[must_use]
    pub fn new(cfg: MemConfig) -> MemorySubsystem {
        let banks_per_channel = cfg.channel.banks();
        let interleaver = Interleaver::new(cfg.interleave, banks_per_channel as u32)
            .expect("valid interleave config");
        let channels = cfg.interleave.total_channels() as usize;
        let banks = channels * banks_per_channel;
        let params = BankParams::new(&cfg.channel);
        MemorySubsystem {
            interleaver,
            units: (0..banks).map(|_| BankUnit::new(&params)).collect(),
            sets: SetStore::new(banks, params.sets_per_bank()),
            params,
            channel_rate: cfg.channel.hbm_rate,
            banks_per_channel,
            reads: Counter::default(),
            writes: Counter::default(),
            bytes: Bytes::ZERO,
        }
    }

    /// Routes and performs one access.
    pub fn access(&mut self, at: SimTime, req: MemRequest) -> MemResponse {
        let (flat, local) = self.flat_bank_of(req.addr);
        let completes_at = self.access_bank(at, flat, local, req);
        MemResponse {
            completes_at,
            channel: ChannelId((flat / self.banks_per_channel) as u32),
        }
    }

    /// Performs `req` at bank-local address `local` of flat bank `flat`
    /// (see [`MemorySubsystem::flat_bank_of`]).
    #[inline]
    pub(crate) fn access_bank(
        &mut self,
        at: SimTime,
        flat: usize,
        local: u64,
        req: MemRequest,
    ) -> SimTime {
        let sets = self.sets.slice_mut(flat);
        let done = self.units[flat].access(&self.params, sets, at, local, req.size, req.is_write());
        if req.is_read() {
            self.reads.inc();
        } else {
            self.writes.inc();
        }
        self.bytes += req.size;
        done
    }

    /// Starts loading the Infinity Cache set record that bank-local
    /// address `local` of flat bank `flat` maps to, so a later dependent
    /// access finds it near; no state changes.
    #[inline]
    pub(crate) fn preload(&self, flat: usize, local: u64) {
        self.params.preload(self.sets.slice(flat), local);
    }

    /// Makes room for every Infinity Cache set record `accesses` more
    /// accesses can add, so that replaying them never grows the store.
    pub(crate) fn reserve_sets(&mut self, accesses: u64) {
        self.sets.reserve(self.params.set_fills(accesses));
    }

    /// Replays independent (issue-at-zero) request streams across the
    /// DRAM banks on `jobs` worker threads under a **work-stealing
    /// scheduler**: each worker seeds a deque with a contiguous block
    /// of flat bank ids (`channel x banks_per_channel + bank`, empty
    /// buckets dropped), drains its own deque from the front, and — on
    /// running dry — steals the back half of the fullest-looking victim
    /// deque. Skewed traces whose requests pile onto a few banks
    /// therefore no longer serialise on the one worker whose static
    /// block happened to own them; the only irreducibly serial work is
    /// a single bank's own sub-stream.
    ///
    /// `buckets` holds one request bucket per flat bank — bank-local
    /// packed addresses via [`MemorySubsystem::flat_bank_of`] — in
    /// trace order. Because [`Interleaver::decode`] deterministically
    /// steers every address to exactly one bank, and
    /// banks share no state, replaying each bank's sub-stream in order
    /// evolves precisely the state the sequential loop would have
    /// produced **regardless of which worker replays which bank or in
    /// what order**: per-bank latency accumulators merge in flat bank
    /// order at read time, and the cross-shard aggregates (request
    /// counters, byte total, completion-time maximum) are commutative
    /// integer folds. Results are bit-identical to a sequential
    /// [`MemorySubsystem::access`] loop over the same trace at any
    /// `jobs` value; `jobs = 1` replays the buckets inline, one whole
    /// bucket after another in flat-bank order, with no queues at all.
    ///
    /// The set store is reserved once for the whole replay, so no access
    /// grows it. Above one job, each bank's set records move into a `Vec`
    /// of its own (reserved for its bucket) for the replay and return to
    /// the one store, in flat-bank order, after it.
    ///
    /// Returns the time the last access completes.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` does not have one bucket per bank or a
    /// worker panics.
    pub(crate) fn replay_sharded(&mut self, jobs: usize, buckets: &BankBuckets) -> SimTime {
        let n = self.units.len();
        assert_eq!(buckets.banks(), n, "one bucket per flat bank required");
        let jobs = jobs.clamp(1, n.max(1));
        let size = buckets.size;
        let params = &self.params;

        let totals: Vec<ShardTotals> = if jobs == 1 {
            self.sets.reserve(params.set_fills(buckets.entries));
            let mut t = ShardTotals::default();
            for (flat, reqs) in buckets.buckets.iter().enumerate() {
                let sets = self.sets.slice_mut(flat);
                Self::replay_bank(params, &mut self.units[flat], sets, reqs, size, &mut t);
            }
            vec![t]
        } else {
            let fills = buckets
                .buckets
                .iter()
                .map(|reqs| params.set_fills(reqs.len() as u64));
            let mut parts = self.sets.split(fills);
            let items: Vec<ShardItem> = self
                .units
                .iter_mut()
                .zip(self.sets.apart(&mut parts))
                .zip(&buckets.buckets)
                .filter(|(_, reqs)| !reqs.is_empty())
                .map(|((unit, sets), reqs)| ShardItem {
                    unit,
                    sets,
                    reqs: reqs.as_slice(),
                })
                .collect();
            let totals = Self::run_stealing(params, jobs, items, size);
            self.sets.join(parts);
            totals
        };

        let mut last = SimTime::ZERO;
        let mut entries = 0u64;
        let mut writes = 0u64;
        for t in totals {
            entries += t.entries;
            writes += t.writes;
            if t.last > last {
                last = t.last;
            }
        }
        self.reads.add(entries - writes);
        self.writes.add(writes);
        self.bytes += Bytes(size.as_u64() * entries);
        last
    }

    /// The stealing scheduler behind [`MemorySubsystem::replay_sharded`]
    /// (`jobs > 1`). Work items move between per-worker deques but each
    /// bank is claimed exactly once, so exclusive access to every
    /// [`BankUnit`] is preserved by construction.
    ///
    /// Termination needs no shared counter or idle spinning: items
    /// enter a queue only at seeding or when a thief banks the
    /// remainder of a stolen batch in its *own* deque, so "every queue
    /// is empty" is a stable state — once a worker's claim scan comes
    /// up dry it can exit immediately. Any item it raced past lives in
    /// some other worker's deque, and that worker drains its own deque
    /// before its own scan can come up dry.
    ///
    /// `jobs` fixes the deque topology (so the work distribution is a
    /// pure function of the request) but the thread count is capped at
    /// the host's available parallelism: extra threads on an
    /// oversubscribed host cannot replay more banks per second, they
    /// only time-slice over disjoint bank working sets and thrash the
    /// host cache. Deques beyond the spawned workers have no owner and
    /// drain through the steal path, which also keeps results
    /// bit-identical at any worker count: per-bank state is
    /// self-contained and the merged totals are commutative.
    fn run_stealing(
        params: &BankParams,
        jobs: usize,
        items: Vec<ShardItem>,
        size: Bytes,
    ) -> Vec<ShardTotals> {
        let chunk = items.len().div_ceil(jobs).max(1);
        let mut queues: Vec<Mutex<VecDeque<ShardItem>>> = Vec::with_capacity(jobs);
        let mut feed = items.into_iter();
        for _ in 0..jobs {
            queues.push(Mutex::new(feed.by_ref().take(chunk).collect()));
        }
        let queues = &queues;
        // lint:order-invisible the cap only sizes the thread pool; bank totals are self-contained and their merge is commutative
        let workers = jobs.min(std::thread::available_parallelism().map_or(1, |n| n.get()));

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut totals = ShardTotals::default();
                        while let Some(item) = Self::claim_work(queues, w) {
                            Self::replay_bank(
                                params,
                                item.unit,
                                item.sets,
                                item.reqs,
                                size,
                                &mut totals,
                            );
                        }
                        totals
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay shard worker panicked"))
                .collect()
        })
    }

    /// Pops the next work item for worker `me`: front of its own deque,
    /// else steal the back half of the first non-empty victim (the
    /// victim keeps the front half it is draining in flat-bank order;
    /// the remainder of the stolen batch lands in `me`'s deque).
    fn claim_work<'a>(
        queues: &[Mutex<VecDeque<ShardItem<'a>>>],
        me: usize,
    ) -> Option<ShardItem<'a>> {
        if let Some(item) = queues[me]
            .lock()
            .expect("replay queue poisoned")
            .pop_front()
        {
            return Some(item);
        }
        let n = queues.len();
        for d in 1..n {
            let victim = (me + d) % n;
            let mut q = queues[victim].lock().expect("replay queue poisoned");
            let len = q.len();
            if len == 0 {
                continue;
            }
            let mut stolen = q.split_off(len - len.div_ceil(2));
            drop(q);
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                queues[me]
                    .lock()
                    .expect("replay queue poisoned")
                    .append(&mut stolen);
            }
            return first;
        }
        None
    }

    /// Replays one bank's packed sub-stream; shared by the inline
    /// (jobs = 1) and stealing paths so both evolve state identically.
    /// Entries carry bank-local addresses with the write flag in the
    /// top bit.
    ///
    /// A first pass loads the set record of every request. The loads are
    /// independent, so they overlap; the replay pass that follows, where
    /// each access waits on the state the last one left, then finds its
    /// records near.
    fn replay_bank(
        params: &BankParams,
        bank: &mut BankUnit,
        mut sets: SetsMut<'_>,
        reqs: &[u64],
        size: Bytes,
        totals: &mut ShardTotals,
    ) {
        // lint:hot-path
        let view = sets.view();
        for &packed in reqs {
            params.preload(view, packed & !BankBuckets::WRITE_BIT);
        }
        for &packed in reqs {
            let addr = packed & !BankBuckets::WRITE_BIT;
            let is_write = packed & BankBuckets::WRITE_BIT != 0;
            let done = bank.access(params, sets.reborrow(), SimTime::ZERO, addr, size, is_write);
            if done > totals.last {
                totals.last = done;
            }
            totals.writes += u64::from(is_write);
        }
        // lint:hot-path-end
        totals.entries += reqs.len() as u64;
    }

    /// Banks per channel (uniform across the subsystem).
    #[must_use]
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_channel
    }

    /// Total DRAM banks across all channels.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.units.len()
    }

    /// Maps an address to its flat bank id (`channel x banks_per_channel
    /// + bank`) and bank-local address — the sharding key of
    /// [`MemorySubsystem::replay_sharded`] (see [`Interleaver::decode`]).
    #[inline]
    #[must_use]
    pub fn flat_bank_of(&self, addr: u64) -> (usize, u64) {
        self.interleaver.decode(addr)
    }

    /// Read-only per-channel views, in channel order.
    #[must_use]
    pub fn channels(&self) -> Vec<ChannelView<'_>> {
        self.channel_views().collect()
    }

    /// Consecutive runs of `banks_per_channel` banks, read only.
    fn channel_views(&self) -> impl Iterator<Item = ChannelView<'_>> {
        self.units
            .chunks(self.banks_per_channel)
            .map(|banks| ChannelView {
                params: &self.params,
                banks,
            })
    }

    /// Total reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.value()
    }

    /// Total writes served.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes.value()
    }

    /// Total request bytes served.
    #[must_use]
    pub fn bytes_served(&self) -> Bytes {
        self.bytes
    }

    /// Mean access latency in nanoseconds; `None` before any access.
    ///
    /// Computed by merging the per-bank latency accumulators in flat
    /// bank order — the same fold both the sequential access loop and
    /// bank-sharded replay produce, so the value is bit-identical
    /// across the two paths.
    #[must_use]
    pub fn mean_latency_ns(&self) -> Option<f64> {
        self.latency_stats().mean()
    }

    /// Socket-wide latency statistics: the per-bank accumulators merged
    /// in flat bank order (channel-major, bank-minor).
    #[must_use]
    pub(crate) fn latency_stats(&self) -> Accumulator {
        let mut acc = Accumulator::default();
        for c in self.channel_views() {
            acc.merge(&c.latency_stats());
        }
        acc
    }

    /// Aggregate peak HBM bandwidth across channels.
    #[must_use]
    pub fn peak_hbm_bandwidth(&self) -> Bandwidth {
        (0..self.units.len() / self.banks_per_channel)
            .map(|_| self.channel_rate)
            .sum()
    }

    /// Aggregate energy consumed.
    #[must_use]
    pub fn energy_used(&self) -> Energy {
        self.channel_views().map(|c| c.energy_used()).sum()
    }

    /// Fraction of accesses served by the Infinity Cache; `None` if the
    /// subsystem has no slices or saw no traffic.
    #[must_use]
    pub fn icache_hit_rate(&self) -> Option<f64> {
        let mut hits = 0u64;
        let mut total = 0u64;
        for c in self.channel_views() {
            if !c.has_icache() {
                return None;
            }
            let h = c.icache_hits();
            hits += h;
            total += h + c.icache_misses();
        }
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// Per-shard aggregates a replay worker hands back for merging. All
/// fields are commutative folds (max / sums), so the merge result does
/// not depend on which worker replayed which bank.
#[derive(Debug, Default, Clone, Copy)]
struct ShardTotals {
    last: SimTime,
    writes: u64,
    entries: u64,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::icache::PrefetcherConfig;
    use crate::oracle::decode::bank_slot;
    use crate::trace::{replay, Pattern, TraceConfig};

    /// Issues a batch of independent requests all arriving at `at` and
    /// returns the time the last one completes.
    fn access_batch(
        mem: &mut MemorySubsystem,
        at: SimTime,
        reqs: impl IntoIterator<Item = MemRequest>,
    ) -> SimTime {
        reqs.into_iter()
            .map(|r| mem.access(at, r).completes_at)
            .fold(at, SimTime::max)
    }

    #[test]
    fn mi300_has_128_channels() {
        let mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        assert_eq!(mem.channels().len(), 128);
        assert!((mem.peak_hbm_bandwidth().as_tb_s() - 5.3).abs() < 0.05);
    }

    #[test]
    fn one_channel_interleave_decodes_like_bank_slot() {
        // On a 1-stack × 1-channel interleave every address reaches
        // channel 0, so the flat bank and bank-local address are the
        // channel's own `bank_slot` decode (the test oracle's): the
        // property the bank audit's row streams rely on.
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.interleave.stacks = 1;
        cfg.interleave.channels_per_stack = 1;
        let mem = MemorySubsystem::new(cfg);
        let banks = mem.banks_per_channel() as u64;
        let mut rng = ehp_sim_core::rng::SplitMix64::new(0x1C4A_77E1);
        for _ in 0..100_000 {
            let addr = rng.next_below(1 << 40);
            assert_eq!(mem.flat_bank_of(addr), bank_slot(addr, banks), "{addr:#x}");
        }
    }

    #[test]
    fn counts_reads_and_writes() {
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        mem.access(SimTime::ZERO, MemRequest::read(0, 128));
        let write = MemRequest {
            kind: crate::request::AccessKind::Write,
            ..MemRequest::read(4096, 128)
        };
        mem.access(SimTime::ZERO, write);
        assert_eq!(mem.reads(), 1);
        assert_eq!(mem.writes(), 1);
        assert_eq!(mem.bytes_served(), Bytes(256));
        assert!(mem.mean_latency_ns().unwrap() > 0.0);
    }

    #[test]
    fn parallel_batch_beats_serial_on_one_channel() {
        // Spread batch: each request on its own channel (4 KB apart within
        // one granule rotates channels; 4 KB granules rotate stacks).
        let mut spread = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let reqs: Vec<_> = (0..128u64)
            .map(|i| MemRequest::read(i * 256, 128))
            .collect();
        let t_spread = access_batch(&mut spread, SimTime::ZERO, reqs);

        // Conflicting batch: all to the same line's channel.
        let mut packed = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let reqs: Vec<_> = (0..128u64).map(|_| MemRequest::read(0, 128)).collect();
        let t_packed = access_batch(&mut packed, SimTime::ZERO, reqs);

        assert!(
            t_spread < t_packed,
            "interleaved batch {t_spread} should beat single-channel {t_packed}"
        );
    }

    #[test]
    fn icache_hit_rate_none_without_slices() {
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.channel.icache_capacity = None;
        let mut mem = MemorySubsystem::new(cfg);
        mem.access(SimTime::ZERO, MemRequest::read(0, 128));
        assert_eq!(mem.icache_hit_rate(), None);
    }

    #[test]
    fn nps1_spreads_the_same_traffic_everywhere() {
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let reqs: Vec<_> = (0..2048u64)
            .map(|i| MemRequest::read((2u64 << 34) + i * 4096 + (i % 16) * 256, 128))
            .collect();
        access_batch(&mut mem, SimTime::ZERO, reqs);
        let touched = mem
            .channels()
            .iter()
            .filter(|c| c.hbm_bytes_moved().as_u64() > 0 || c.icache_bytes().as_u64() > 0)
            .count();
        assert!(touched > 100, "NPS1 uses (nearly) all channels: {touched}");
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        mem.access(SimTime::ZERO, MemRequest::read(0, 128));
        let e1 = mem.energy_used().as_joules();
        for i in 0..100u64 {
            mem.access(SimTime::ZERO, MemRequest::read(i * 4096, 128));
        }
        assert!(mem.energy_used().as_joules() > e1);
    }

    // The Infinity Cache set store holds a record only for a set that an
    // access has filled. A new subsystem holds none. After a replay with
    // the prefetcher off, it holds exactly one record per distinct
    // (flat bank, set) pair the trace's addresses map to, counted by an
    // oracle that decodes each address with `flat_bank_of` and the slice
    // geometry, and replaying the same trace again adds none. With the
    // prefetcher on, each access can also fill up to `degree` sets ahead
    // of its own, so the count lies between that number and `1 + degree`
    // times it.

    const STORE_PATTERNS: [(&str, Pattern); 3] = [
        (
            "hot",
            Pattern::Hot {
                hot_fraction: 0.9,
                hot_bytes: 1 << 20,
            },
        ),
        ("random", Pattern::Random),
        ("chase", Pattern::PointerChase),
    ];

    /// The distinct (flat bank, set) pairs the trace's addresses map to.
    fn touched_sets(cfg: &MemConfig, mem: &MemorySubsystem, trace: &TraceConfig) -> usize {
        let line = cfg.channel.line_bytes.as_u64();
        let capacity = cfg.channel.icache_capacity.expect("slices").as_u64();
        let sets_per_bank =
            capacity / mem.banks_per_channel() as u64 / line / cfg.channel.icache_ways as u64;
        let mut pairs = BTreeSet::new();
        for req in trace.generate() {
            let (flat, local) = mem.flat_bank_of(req.addr);
            pairs.insert((flat, (local / line) % sets_per_bank));
        }
        pairs.len()
    }

    #[test]
    fn a_new_subsystem_holds_no_set_records() {
        assert_eq!(MemorySubsystem::new(MemConfig::mi300_hbm3()).sets.len(), 0);
        let mut off = MemConfig::mi300_hbm3();
        off.channel.icache_capacity = None;
        let mut mem = MemorySubsystem::new(off);
        let trace = TraceConfig {
            accesses: 1_000,
            ..TraceConfig::new(Pattern::Random)
        };
        let _ = replay(&mut mem, &trace);
        assert_eq!(mem.sets.len(), 0, "no slices, no sets");
    }

    #[test]
    fn replays_hold_one_record_per_touched_set() {
        let mut cfg = MemConfig::mi300_hbm3();
        cfg.channel.prefetcher = PrefetcherConfig::disabled();
        for (name, pattern) in STORE_PATTERNS {
            for jobs in [1, 2] {
                let trace = TraceConfig {
                    accesses: 20_000,
                    jobs,
                    ..TraceConfig::new(pattern)
                };
                let mut mem = MemorySubsystem::new(cfg.clone());
                let _ = replay(&mut mem, &trace);
                let want = touched_sets(&cfg, &mem, &trace);
                assert!(want > 1_000, "{name}: the trace reaches many sets");
                assert_eq!(mem.sets.len(), want, "{name} jobs={jobs}");
                let _ = replay(&mut mem, &trace);
                assert_eq!(mem.sets.len(), want, "{name} jobs={jobs}: replayed again");
            }
        }
    }

    #[test]
    fn prefetch_fills_add_at_most_degree_records_per_touched_set() {
        let mut cfg = MemConfig::mi300_hbm3();
        let pf = PrefetcherConfig::mi300();
        cfg.channel.prefetcher = pf;
        let patterns = STORE_PATTERNS
            .into_iter()
            .chain([("sequential", Pattern::Sequential)]);
        for (name, pattern) in patterns {
            for jobs in [1, 2] {
                let trace = TraceConfig {
                    accesses: 20_000,
                    jobs,
                    ..TraceConfig::new(pattern)
                };
                let mut mem = MemorySubsystem::new(cfg.clone());
                let _ = replay(&mut mem, &trace);
                let demand = touched_sets(&cfg, &mem, &trace);
                let held = mem.sets.len();
                let most = (1 + pf.degree as usize) * demand;
                assert!(
                    (demand..=most).contains(&held),
                    "{name} jobs={jobs}: {held} records for {demand} demand sets"
                );
            }
        }
    }
}
