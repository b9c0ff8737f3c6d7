//! Serve-daemon traffic statistics.
//!
//! [`ServeStats`] aggregates what `ehp serve` has done since startup:
//! requests answered, scenarios executed, cache traffic, pool traffic,
//! and end-to-end request latency percentiles. Latency samples live in
//! a bounded ring (newest overwrite oldest) so a long-lived daemon's
//! stats stay O(1) in memory; percentiles use the shared nearest-rank
//! helper from [`ehp_sim_core::stats`].
//!
//! The struct never reads a clock itself — callers measure and pass
//! durations in — so everything here is deterministic and unit-testable
//! with synthetic samples.

use ehp_sim_core::json::Json;
use ehp_sim_core::stats::percentile;

use crate::cache::CacheCounters;
use crate::pool::PoolStats;

/// Latency samples kept for percentile estimation.
const MAX_SAMPLES: usize = 4096;

/// Cumulative serve-mode counters plus a bounded latency ring.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests answered (every op, including `stats` itself).
    pub requests: u64,
    /// Requests rejected before execution (schema-invalid specs).
    pub rejected: u64,
    /// Scenarios executed or served from cache across all requests.
    pub scenarios: u64,
    /// Cache traffic accumulated across requests.
    pub(crate) cache: CacheCounters,
    /// Pool traffic accumulated across requests.
    pub(crate) pool: PoolStats,
    latency_ms: Vec<f64>,
    next_slot: usize,
}

impl ServeStats {
    /// A zeroed stats block.
    #[must_use]
    pub(crate) fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Records one request's end-to-end latency.
    pub(crate) fn record_latency_ms(&mut self, ms: f64) {
        if self.latency_ms.len() < MAX_SAMPLES {
            self.latency_ms.push(ms);
        } else {
            self.latency_ms[self.next_slot] = ms;
            self.next_slot = (self.next_slot + 1) % MAX_SAMPLES;
        }
    }

    /// Folds one batch's cache traffic into the totals.
    pub fn add_cache(&mut self, delta: CacheCounters) {
        self.cache.hits += delta.hits;
        self.cache.misses += delta.misses;
        self.cache.stores += delta.stores;
    }

    /// Folds one batch's pool traffic into the totals.
    pub fn add_pool(&mut self, delta: PoolStats) {
        self.pool.chunks += delta.chunks;
        self.pool.worker_spawns += delta.worker_spawns;
        self.pool.worker_restarts += delta.worker_restarts;
        self.pool.fallback_chunks += delta.fallback_chunks;
    }

    /// The full stats snapshot served for a `stats` request.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut sorted = self.latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| percentile(&sorted, q).map_or(Json::Null, Json::from);
        Json::object([
            ("requests", Json::from(self.requests)),
            ("rejected", Json::from(self.rejected)),
            ("scenarios", Json::from(self.scenarios)),
            ("cache", self.cache.to_json()),
            (
                "pool",
                Json::object([
                    ("chunks", Json::from(self.pool.chunks)),
                    ("worker_spawns", Json::from(self.pool.worker_spawns)),
                    ("worker_restarts", Json::from(self.pool.worker_restarts)),
                    ("fallback_chunks", Json::from(self.pool.fallback_chunks)),
                ]),
            ),
            (
                "latency_ms",
                Json::object([
                    ("samples", Json::from(sorted.len() as u64)),
                    ("p50", pct(50.0)),
                    ("p90", pct(90.0)),
                    ("p99", pct(99.0)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_render_null_percentiles() {
        let s = ServeStats::new();
        let j = s.to_json();
        assert_eq!(j.get("requests"), Some(&Json::from(0u64)));
        assert_eq!(j.get("latency_ms").unwrap().get("p50"), Some(&Json::Null));
    }

    #[test]
    fn percentiles_come_from_recorded_samples() {
        let mut s = ServeStats::new();
        for ms in [5.0, 1.0, 9.0, 3.0, 7.0] {
            s.record_latency_ms(ms);
        }
        let j = s.to_json();
        let lat = j.get("latency_ms").unwrap();
        assert_eq!(lat.get("samples"), Some(&Json::from(5u64)));
        assert_eq!(lat.get("p50"), Some(&Json::from(5.0)));
        assert_eq!(lat.get("p99"), Some(&Json::from(9.0)));
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let mut s = ServeStats::new();
        for _ in 0..MAX_SAMPLES {
            s.record_latency_ms(1.0);
        }
        // A full second lap displaces every 1.0; the sample count
        // stays pinned at capacity.
        for _ in 0..MAX_SAMPLES {
            s.record_latency_ms(100.0);
        }
        let j = s.to_json();
        let lat = j.get("latency_ms").unwrap();
        assert_eq!(lat.get("samples"), Some(&Json::from(MAX_SAMPLES as u64)));
        assert_eq!(lat.get("p50"), Some(&Json::from(100.0)));
        assert_eq!(lat.get("p99"), Some(&Json::from(100.0)));
    }

    #[test]
    fn traffic_deltas_accumulate() {
        let mut s = ServeStats::new();
        s.add_cache(CacheCounters {
            hits: 2,
            misses: 3,
            stores: 3,
        });
        s.add_cache(CacheCounters {
            hits: 5,
            misses: 0,
            stores: 0,
        });
        s.add_pool(PoolStats {
            chunks: 4,
            worker_spawns: 2,
            worker_restarts: 1,
            fallback_chunks: 1,
        });
        assert_eq!(s.cache.hits, 7);
        assert_eq!(s.cache.misses, 3);
        assert_eq!(s.pool.worker_restarts, 1);
    }
}
