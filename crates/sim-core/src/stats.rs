//! Statistic sinks: counters and accumulators.
//!
//! Every simulator component exposes its observable behaviour through
//! these types; the experiment harness reads them out at the end of a
//! run through their accessors. [`merge`](Accumulator::merge) combines
//! sinks from parallel shards (e.g. per-bank accumulators) into one
//! aggregate first.

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use ehp_sim_core::stats::Counter;
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(3);
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Running sum/min/max/mean/stddev over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    /// An empty accumulator.
    fn default() -> Accumulator {
        Accumulator {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator {
    /// Records one sample.
    #[inline]
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
    pub(crate) fn variance(&self) -> Option<f64> {
        self.mean()
            .map(|m| (self.sumsq / self.count as f64 - m * m).max(0.0))
    }

    /// Population standard deviation; `None` if empty.
    #[must_use]
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Folds another accumulator's samples into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
    }

    #[test]
    fn accumulator_stats() {
        let mut a = Accumulator::default();
        assert_eq!(a.mean(), None);
        for v in [1.0, 2.0, 3.0, 10.0] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), Some(4.0));
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(10.0));
    }

    #[test]
    fn accumulator_stddev() {
        let mut a = Accumulator::default();
        assert_eq!(a.stddev(), None);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(v);
        }
        // Classic example: population stddev is exactly 2.
        assert!((a.stddev().unwrap() - 2.0).abs() < 1e-12);
        // Constant samples: zero spread, never NaN from rounding.
        let mut c = Accumulator::default();
        c.record(3.0);
        c.record(3.0);
        assert_eq!(c.stddev(), Some(0.0));
    }

    #[test]
    fn accumulator_merge_matches_combined_stream() {
        let mut split_a = Accumulator::default();
        let mut split_b = Accumulator::default();
        let mut combined = Accumulator::default();
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
        let mut a = Accumulator::default();
        a.record(2.0);
        a.merge(&Accumulator::default());
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
}
