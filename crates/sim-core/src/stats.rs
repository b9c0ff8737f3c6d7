//! Statistic sinks: counters, accumulators and utilisation meters.
//!
//! Every simulator component exposes its observable behaviour through
//! these types; the experiment harness reads them out at the end of a
//! run. Each sink supports three export paths:
//!
//! * [`Display`](fmt::Display) — human-readable one-liners,
//! * [`ToJson`] / [`snapshot`](Counter::snapshot) — structured values the
//!   harness folds into an `ExperimentResult`,
//! * [`merge`](Counter::merge) — combining sinks from parallel shards
//!   (e.g. per-channel meters) into one aggregate before export.

use core::fmt;

use crate::json::{Json, ToJson};
use crate::time::Cycle;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use ehp_sim_core::stats::Counter;
/// let mut hits = Counter::new("l2_hits");
/// hits.inc();
/// hits.add(3);
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: &'static str,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with a display name.
    #[must_use]
    pub fn new(name: &'static str) -> Counter {
        Counter { name, value: 0 }
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Folds another counter's count into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.value += other.value;
    }

    /// A structured snapshot of the current state.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        self.to_json()
    }
}

impl ToJson for Counter {
    fn to_json(&self) -> Json {
        Json::object([
            ("kind", Json::from("counter")),
            ("name", Json::from(self.name)),
            ("value", Json::from(self.value)),
        ])
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// Running sum/min/max/mean/stddev over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    name: &'static str,
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new(name: &'static str) -> Accumulator {
        Accumulator {
            name,
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.sumsq += sample * sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples; `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample; `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance (`E[x²] − E[x]²`, clamped at zero); `None` if
    /// empty.
    #[must_use]
    pub fn variance(&self) -> Option<f64> {
        self.mean()
            .map(|m| (self.sumsq / self.count as f64 - m * m).max(0.0))
    }

    /// Population standard deviation; `None` if empty.
    #[must_use]
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Folds another accumulator's samples into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A structured snapshot of the current state.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        self.to_json()
    }
}

impl ToJson for Accumulator {
    fn to_json(&self) -> Json {
        Json::object([
            ("kind", Json::from("accumulator")),
            ("name", Json::from(self.name)),
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("mean", self.mean().to_json()),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
            ("stddev", self.stddev().to_json()),
        ])
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "{}: n={} mean={:.3} min={:.3} max={:.3}",
                self.name, self.count, mean, self.min, self.max
            ),
            None => write!(f, "{}: empty", self.name),
        }
    }
}

/// Nearest-rank percentile of an **ascending-sorted** slice.
///
/// `q` is in `[0, 100]`; returns `None` on an empty slice. Nearest-rank
/// (ceil(q/100·n)) is exact on the retained samples and monotone in `q`,
/// which is what latency reporting wants — no interpolation between two
/// observations that never happened.
///
/// # Panics
///
/// Debug-asserts that `sorted` is actually sorted; in release an
/// unsorted slice just returns a wrong (but in-range) sample.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Tracks busy time of a resource to compute utilisation.
///
/// # Example
///
/// ```
/// use ehp_sim_core::stats::UtilizationMeter;
/// use ehp_sim_core::time::Cycle;
/// let mut m = UtilizationMeter::new("hbm_ch0");
/// m.add_busy(Cycle(30));
/// m.add_busy(Cycle(20));
/// assert!((m.utilization(Cycle(100)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilizationMeter {
    name: &'static str,
    busy: Cycle,
}

impl UtilizationMeter {
    /// Creates a meter with zero accumulated busy time.
    #[must_use]
    pub fn new(name: &'static str) -> UtilizationMeter {
        UtilizationMeter {
            name,
            busy: Cycle::ZERO,
        }
    }

    /// Accumulates busy cycles.
    pub fn add_busy(&mut self, c: Cycle) {
        self.busy += c;
    }

    /// Accumulated busy cycles.
    #[must_use]
    pub fn busy(&self) -> Cycle {
        self.busy
    }

    /// Utilisation over a window of `elapsed` cycles, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    #[must_use]
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        assert!(elapsed.0 > 0, "elapsed window must be positive");
        (self.busy.as_f64() / elapsed.as_f64()).min(1.0)
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Folds another meter's busy time into this one.
    pub fn merge(&mut self, other: &UtilizationMeter) {
        self.busy += other.busy;
    }

    /// A structured snapshot of the current state.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        self.to_json()
    }
}

impl ToJson for UtilizationMeter {
    fn to_json(&self) -> Json {
        Json::object([
            ("kind", Json::from("utilization_meter")),
            ("name", Json::from(self.name)),
            ("busy_cycles", Json::from(self.busy.0)),
        ])
    }
}

impl fmt::Display for UtilizationMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: busy {}", self.name, self.busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new("x");
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(format!("{c}"), "x = 10");
    }

    #[test]
    fn accumulator_stats() {
        let mut a = Accumulator::new("lat");
        assert_eq!(a.mean(), None);
        for v in [1.0, 2.0, 3.0, 10.0] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), Some(4.0));
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(10.0));
        assert!((a.sum() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_stddev() {
        let mut a = Accumulator::new("s");
        assert_eq!(a.stddev(), None);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(v);
        }
        // Classic example: population stddev is exactly 2.
        assert!((a.stddev().unwrap() - 2.0).abs() < 1e-12);
        // Constant samples: zero spread, never NaN from rounding.
        let mut c = Accumulator::new("c");
        c.record(3.0);
        c.record(3.0);
        assert_eq!(c.stddev(), Some(0.0));
    }

    #[test]
    fn utilization_clamps() {
        let mut m = UtilizationMeter::new("u");
        m.add_busy(Cycle(300));
        assert!((m.utilization(Cycle(100)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "elapsed window must be positive")]
    fn utilization_zero_window_panics() {
        let _ = UtilizationMeter::new("u").utilization(Cycle::ZERO);
    }

    #[test]
    fn counter_merge_and_snapshot() {
        let mut a = Counter::new("hits");
        a.add(3);
        let mut b = Counter::new("hits");
        b.add(4);
        a.merge(&b);
        assert_eq!(a.value(), 7);
        let snap = a.snapshot();
        assert_eq!(snap.get("value").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(snap.get("name").and_then(|v| v.as_str()), Some("hits"));
    }

    #[test]
    fn accumulator_merge_matches_combined_stream() {
        let mut split_a = Accumulator::new("lat");
        let mut split_b = Accumulator::new("lat");
        let mut combined = Accumulator::new("lat");
        for (i, v) in [5.0, 1.0, 9.0, 2.0].iter().enumerate() {
            if i % 2 == 0 {
                split_a.record(*v);
            } else {
                split_b.record(*v);
            }
            combined.record(*v);
        }
        split_a.merge(&split_b);
        assert_eq!(split_a, combined);
    }

    #[test]
    fn accumulator_merge_with_empty_keeps_stats() {
        let mut a = Accumulator::new("lat");
        a.record(2.0);
        a.merge(&Accumulator::new("lat"));
        assert_eq!(a.mean(), Some(2.0));
        assert_eq!(a.min(), Some(2.0));
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = [7.0];
        assert_eq!(percentile(&one, 0.0), Some(7.0));
        assert_eq!(percentile(&one, 100.0), Some(7.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // Out-of-range q clamps instead of panicking.
        assert_eq!(percentile(&v, 150.0), Some(100.0));
    }

    #[test]
    fn meter_merge_and_snapshot() {
        let mut a = UtilizationMeter::new("ch");
        a.add_busy(Cycle(10));
        let mut b = UtilizationMeter::new("ch");
        b.add_busy(Cycle(30));
        a.merge(&b);
        assert!((a.utilization(Cycle(80)) - 0.5).abs() < 1e-12);
        let snap = a.snapshot();
        assert_eq!(snap.get("busy_cycles").and_then(|v| v.as_u64()), Some(40));
    }
}
