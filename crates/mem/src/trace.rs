//! Synthetic memory access-pattern generators and a trace replayer.
//!
//! The figure experiments mostly use analytic workload models; these
//! generators exist to drive the *timed* memory subsystem with realistic
//! address streams (sequential, strided, random, zipfian-hot,
//! pointer-chase) so cache/interleave/bandwidth behaviour can be
//! measured rather than assumed.

use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::request::{AccessKind, MemRequest};
use crate::subsystem::{BankBuckets, MemorySubsystem};

/// A synthetic access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Sequential lines over the footprint.
    Sequential,
    /// Fixed-stride lines.
    Strided {
        /// Stride in bytes.
        stride: u64,
    },
    /// Uniform random lines.
    Random,
    /// Hot-set skew: a fraction of accesses hit a small hot region.
    Hot {
        /// Fraction of accesses to the hot region (e.g. 0.9).
        hot_fraction: f64,
        /// Hot region size in bytes.
        hot_bytes: u64,
    },
    /// Dependent pointer chase: each address derives from the previous
    /// (defeats prefetching and overlap).
    PointerChase,
}

/// A trace generator configuration.
///
/// # Examples
///
/// ```
/// use ehp_mem::trace::{replay, Pattern, TraceConfig};
/// use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
///
/// let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
/// let cfg = TraceConfig { accesses: 1_000, ..TraceConfig::new(Pattern::Sequential) };
/// let r = replay(&mut mem, &cfg);
/// assert!(r.bandwidth.as_gb_s() > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Pattern to generate.
    pub pattern: Pattern,
    /// Total accesses.
    pub accesses: u64,
    /// Footprint in bytes.
    pub footprint: u64,
    /// Fraction of writes (rest are reads).
    pub write_fraction: f64,
    /// Access size in bytes (one line).
    pub line: u64,
    /// RNG seed.
    pub seed: u64,
    /// Replay worker threads. `1` (the default) replays the bank
    /// buckets one after another on the calling thread; higher values
    /// replay them on work-stealing workers (see [`replay`]). Purely a
    /// performance knob: results are bit-identical at any value.
    pub jobs: usize,
}

impl TraceConfig {
    /// A default configuration over a 256 MiB footprint.
    #[must_use]
    pub fn new(pattern: Pattern) -> TraceConfig {
        TraceConfig {
            pattern,
            accesses: 50_000,
            footprint: 256 << 20,
            write_fraction: 0.3,
            line: 128,
            seed: 0xEAD5,
            jobs: 1,
        }
    }

    /// Streams the trace through `f`, one request at a time, in trace
    /// order, without materialising it.
    ///
    /// This is the single source of truth for trace generation: the
    /// whole stream is a pure function of the config (one SplitMix64
    /// seed). [`replay`] makes one pass to bucket every request by flat
    /// bank before any bank replays, or to feed the dependent chase, so
    /// the trace is generated exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one line or fractions are
    /// out of range.
    pub(crate) fn for_each(&self, mut f: impl FnMut(MemRequest)) {
        assert!(self.footprint >= self.line, "footprint too small");
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write fraction out of range"
        );
        let lines = self.footprint / self.line;
        // Lines of the hot region, clamped to the footprint.
        let hot_lines = match self.pattern {
            Pattern::Hot {
                hot_fraction,
                hot_bytes,
            } => {
                assert!((0.0..=1.0).contains(&hot_fraction));
                (hot_bytes / self.line).max(1).min(lines)
            }
            _ => 0,
        };
        let mut rng = SplitMix64::new(self.seed);
        let mut chase_state = 0x9E37_79B9u64 % lines;
        for i in 0..self.accesses {
            let line_idx = match self.pattern {
                Pattern::Sequential => i % lines,
                Pattern::Strided { stride } => (i * stride.max(self.line) / self.line) % lines,
                Pattern::Random => rng.next_below(lines),
                Pattern::Hot { hot_fraction, .. } => {
                    if rng.chance(hot_fraction) {
                        rng.next_below(hot_lines)
                    } else {
                        rng.next_below(lines)
                    }
                }
                Pattern::PointerChase => {
                    // LCG-style dependent next pointer.
                    chase_state = chase_state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407)
                        % lines;
                    chase_state
                }
            };
            let addr = line_idx * self.line;
            let kind = if rng.chance(self.write_fraction) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            f(MemRequest {
                addr,
                size: Bytes(self.line),
                kind,
            });
        }
    }

    /// Generates the address/kind trace as a vector.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one line or fractions are
    /// out of range.
    #[must_use]
    pub fn generate(&self) -> Vec<MemRequest> {
        let mut out = Vec::with_capacity(self.accesses as usize);
        self.for_each(|req| out.push(req));
        out
    }
}

/// Result of replaying a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayResult {
    /// Time the last access completed.
    pub elapsed: SimTime,
    /// Achieved bandwidth over the trace.
    pub bandwidth: Bandwidth,
    /// Infinity Cache hit rate, if slices exist.
    pub icache_hit_rate: Option<f64>,
    /// Mean access latency (ns).
    pub mean_latency_ns: f64,
}

/// Replays a trace against a memory subsystem.
///
/// Independent patterns issue at time zero (bandwidth-style); the
/// pointer chase issues each access after the previous completes
/// (latency-style).
///
/// Independent patterns replay **bank by bank** at every `cfg.jobs`:
/// one streaming pass over the trace (the trace is never materialised
/// or regenerated) buckets every request into a packed `BankBuckets`
/// entry by its flat bank id — the interleaver picks the channel, the
/// decorrelated row decode picks the bank, and the address is rewritten
/// to the bank-local space — then `MemorySubsystem::replay_sharded`
/// replays each bank's whole sub-stream in trace order, inline at
/// `jobs = 1` and under its work-stealing scheduler above that. One
/// bank's state then stays in the host cache for its whole sub-stream
/// instead of being revisited at random. Banks share no state, so the
/// results are bit-identical at any job count to the sequential
/// reference, one [`MemorySubsystem::access`] per request in trace order
/// (the crate's test oracle `tests/oracle/replay.rs`, which the
/// `replay_determinism` suite checks against).
///
/// [`Pattern::PointerChase`] carries a cross-bank dependency — each
/// access issues when the previous one completes — so it replays access
/// by access, in trace order, exactly as the sequential reference does. Its
/// addresses do not depend on timing, though, so it replays in windows
/// of `LOOKAHEAD` requests: each window first loads the set record
/// of every request in it, then replays them one after another.
#[must_use]
pub fn replay(mem: &mut MemorySubsystem, cfg: &TraceConfig) -> ReplayResult {
    if cfg.pattern == Pattern::PointerChase {
        return replay_chase(mem, cfg);
    }

    let mut buckets = BankBuckets::new(mem.total_banks(), Bytes(cfg.line), cfg.accesses);
    cfg.for_each(|req| {
        let (flat, local) = mem.flat_bank_of(req.addr);
        buckets.push(flat, local, req.is_write());
    });
    let last = mem.replay_sharded(cfg.jobs, &buckets);
    finish(mem, cfg, last)
}

/// Requests per look-ahead window of the dependent chase: enough
/// independent set loads to overlap, few enough that the window's
/// records are still near when its replay reaches them.
const LOOKAHEAD: usize = 32;

/// One chase request located in its bank: flat bank, bank-local
/// address and the request.
type Located = (usize, u64, MemRequest);

/// The dependent replay behind [`replay`] for [`Pattern::PointerChase`]:
/// the same accesses, issue times and order as the sequential
/// reference, in windows of `LOOKAHEAD` requests.
fn replay_chase(mem: &mut MemorySubsystem, cfg: &TraceConfig) -> ReplayResult {
    mem.reserve_sets(cfg.accesses);
    let mut window: [Located; LOOKAHEAD] = [(0, 0, MemRequest::read(0, 0)); LOOKAHEAD];
    let mut n = 0;
    let mut t = SimTime::ZERO;
    cfg.for_each(|req| {
        let (flat, local) = mem.flat_bank_of(req.addr);
        window[n] = (flat, local, req);
        n += 1;
        if n == LOOKAHEAD {
            t = replay_window(mem, &window, t);
            n = 0;
        }
    });
    let last = replay_window(mem, &window[..n], t);
    finish(mem, cfg, last)
}

/// Loads the set record of every request in `window`, then replays the
/// requests in order, each issued when the one before completes,
/// starting at `t`; returns the last completion time, which is also the
/// latest, since no access completes before it issues.
fn replay_window(mem: &mut MemorySubsystem, window: &[Located], mut t: SimTime) -> SimTime {
    // lint:hot-path
    for &(flat, local, _) in window {
        mem.preload(flat, local);
    }
    for &(flat, local, req) in window {
        t = mem.access_bank(t, flat, local, req);
    }
    // lint:hot-path-end
    t
}

/// Summarises a replay that finished at `last`. An empty trace takes no
/// time and reports zero bandwidth and zero mean latency.
fn finish(mem: &MemorySubsystem, cfg: &TraceConfig, last: SimTime) -> ReplayResult {
    let total = Bytes(cfg.accesses * cfg.line);
    let bandwidth = if last > SimTime::ZERO {
        Bandwidth::from_bytes_per_sec(total.as_f64() / last.as_secs())
    } else {
        Bandwidth::ZERO
    };
    ReplayResult {
        elapsed: last,
        bandwidth,
        icache_hit_rate: mem.icache_hit_rate(),
        mean_latency_ns: mem.mean_latency_ns().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::replay::replay_sequential;
    use crate::subsystem::MemConfig;

    fn run(pattern: Pattern) -> ReplayResult {
        let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let cfg = TraceConfig {
            accesses: 20_000,
            ..TraceConfig::new(pattern)
        };
        replay(&mut mem, &cfg)
    }

    #[test]
    fn sequential_beats_random_bandwidth() {
        let seq = run(Pattern::Sequential);
        let rnd = run(Pattern::Random);
        assert!(
            seq.bandwidth.as_gb_s() > rnd.bandwidth.as_gb_s(),
            "sequential {} vs random {}",
            seq.bandwidth,
            rnd.bandwidth
        );
    }

    #[test]
    fn hot_set_enjoys_high_hit_rate() {
        let hot = run(Pattern::Hot {
            hot_fraction: 0.95,
            // Small enough that 20k accesses revisit each hot line
            // several times, and far inside the 256 MB Infinity Cache.
            hot_bytes: 512 << 10,
        });
        let rnd = run(Pattern::Random);
        assert!(hot.icache_hit_rate.unwrap() > 0.6);
        assert!(hot.icache_hit_rate.unwrap() > rnd.icache_hit_rate.unwrap() + 0.3);
    }

    #[test]
    fn pointer_chase_is_latency_bound() {
        let chase = run(Pattern::PointerChase);
        let seq = run(Pattern::Sequential);
        // Dependent accesses cannot overlap: bandwidth collapses.
        assert!(
            chase.bandwidth.as_gb_s() * 10.0 < seq.bandwidth.as_gb_s(),
            "chase {} vs sequential {}",
            chase.bandwidth,
            seq.bandwidth
        );
    }

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::new(Pattern::Random);
        assert_eq!(cfg.generate(), cfg.generate());
        let mut other = cfg;
        other.seed += 1;
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn for_each_streams_the_generated_trace() {
        let cfg = TraceConfig {
            accesses: 2_000,
            ..TraceConfig::new(Pattern::Hot {
                hot_fraction: 0.8,
                hot_bytes: 1 << 20,
            })
        };
        let mut streamed = Vec::new();
        cfg.for_each(|r| streamed.push(r));
        assert_eq!(streamed, cfg.generate());
    }

    #[test]
    fn sharded_replay_matches_sequential() {
        let cfg = TraceConfig {
            accesses: 20_000,
            jobs: 4,
            ..TraceConfig::new(Pattern::Random)
        };
        let mut seq_mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let seq = replay_sequential(&mut seq_mem, &cfg);
        let mut par_mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let par = replay(&mut par_mem, &cfg);
        assert_eq!(seq, par);
        assert_eq!(seq_mem.reads(), par_mem.reads());
        assert_eq!(seq_mem.writes(), par_mem.writes());
        assert_eq!(seq_mem.bytes_served(), par_mem.bytes_served());
    }

    #[test]
    fn empty_traces_report_zeros() {
        for pattern in [Pattern::Random, Pattern::PointerChase] {
            let cfg = TraceConfig {
                accesses: 0,
                ..TraceConfig::new(pattern)
            };
            let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
            let r = replay(&mut mem, &cfg);
            assert_eq!(r.elapsed, SimTime::ZERO, "{pattern:?}");
            assert_eq!(r.bandwidth, Bandwidth::ZERO, "{pattern:?}");
            assert_eq!(r.mean_latency_ns, 0.0, "{pattern:?}");
            assert_eq!(mem.reads() + mem.writes(), 0, "{pattern:?}");
        }
    }

    #[test]
    fn replay_windows_match_access_by_access() {
        // Window edges of the chase's look-ahead (and empty, single and
        // odd-sized buckets) replay exactly as a plain access loop does,
        // with the slices on and off.
        for ic in [Some(Bytes::from_mib(2)), None] {
            let make = || {
                let mut cfg = MemConfig::mi300_hbm3();
                cfg.channel.icache_capacity = ic;
                MemorySubsystem::new(cfg)
            };
            for pattern in [
                Pattern::PointerChase,
                Pattern::Random,
                Pattern::Hot {
                    hot_fraction: 0.9,
                    hot_bytes: 64 << 10,
                },
            ] {
                for accesses in [0, 1, 31, 32, 33, 1_000] {
                    let cfg = TraceConfig {
                        accesses,
                        footprint: 1 << 24,
                        ..TraceConfig::new(pattern)
                    };
                    let ctx = format!("{pattern:?} accesses={accesses} ic={ic:?}");
                    let mut want = make();
                    let expect = replay_sequential(&mut want, &cfg);
                    let mut got = make();
                    let r = replay(&mut got, &cfg);
                    assert_eq!(r, expect, "{ctx}");
                    assert_eq!(got.reads(), want.reads(), "{ctx}");
                    assert_eq!(got.writes(), want.writes(), "{ctx}");
                    assert_eq!(got.bytes_served(), want.bytes_served(), "{ctx}");
                    assert_eq!(got.energy_used(), want.energy_used(), "{ctx}");
                    for (a, b) in got.channels().iter().zip(want.channels()) {
                        assert_eq!(a.row_hits(), b.row_hits(), "{ctx}");
                        assert_eq!(a.row_misses(), b.row_misses(), "{ctx}");
                        assert_eq!(a.refreshes(), b.refreshes(), "{ctx}");
                        assert_eq!(a.hbm_bytes_moved(), b.hbm_bytes_moved(), "{ctx}");
                        assert_eq!(a.icache_bytes(), b.icache_bytes(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn pointer_chase_ignores_jobs() {
        // The dependent pattern cannot shard; jobs > 1 must silently take
        // the sequential path and still produce the sequential result.
        let cfg = TraceConfig {
            accesses: 5_000,
            jobs: 8,
            ..TraceConfig::new(Pattern::PointerChase)
        };
        let mut a = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let mut b = MemorySubsystem::new(MemConfig::mi300_hbm3());
        assert_eq!(replay(&mut a, &cfg), replay_sequential(&mut b, &cfg));
    }

    #[test]
    fn write_fraction_respected() {
        let cfg = TraceConfig {
            write_fraction: 0.5,
            ..TraceConfig::new(Pattern::Random)
        };
        let trace = cfg.generate();
        let writes = trace.iter().filter(|r| r.is_write()).count() as f64;
        let frac = writes / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn strided_pattern_covers_footprint() {
        let cfg = TraceConfig {
            accesses: 4096,
            footprint: 1 << 20,
            ..TraceConfig::new(Pattern::Strided { stride: 4096 })
        };
        let trace = cfg.generate();
        assert!(trace.iter().all(|r| r.addr < 1 << 20));
        // Stride of 4 KiB: consecutive addresses differ by 4 KiB
        // (mod footprint).
        assert_eq!(trace[1].addr.abs_diff(trace[0].addr) % 4096, 0);
    }

    #[test]
    #[should_panic(expected = "footprint too small")]
    fn tiny_footprint_panics() {
        let cfg = TraceConfig {
            footprint: 64,
            ..TraceConfig::new(Pattern::Random)
        };
        let _ = cfg.generate();
    }
}
