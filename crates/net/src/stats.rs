//! Statistics collectors for experiment metrics.
//!
//! Every series the paper reports is either a response-time aggregate
//! (Figures 6, 7, 8, 10), a byte total (Figure 9), or a percentage
//! (Table II). [`Summary`] accumulates samples and produces mean and
//! quantiles; [`Histogram`] gives a coarse distribution for reports.

use std::fmt;

/// An accumulating collection of `f64` samples with summary statistics.
///
/// Keeps the raw samples (experiment scales are small) so exact quantiles
/// are available.
///
/// ```
/// use seve_net::Summary;
///
/// let mut s = Summary::new();
/// for v in [250.0, 300.0, 350.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 300.0);
/// assert_eq!(s.median(), 300.0);
/// ```
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite());
        self.samples.push(v);
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Is the summary empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample, or 0 for an empty summary.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .finite_or_zero()
    }

    /// Maximum sample, or 0 for an empty summary.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .finite_or_zero()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Standard deviation (population), or 0 for fewer than 2 samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|&x| (x - m) * (x - m)).sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait FiniteOrZero {
    fn finite_or_zero(self) -> f64;
}
impl FiniteOrZero for f64 {
    fn finite_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} p50={:.2} p95={:.2} max={:.2}",
            self.count(),
            self.mean(),
            self.median(),
            self.p95(),
            self.max()
        )
    }
}

/// A running summary of `f64` samples in constant space: how many there
/// were, their sum, and the smallest and largest. For metrics that a
/// long-running node records on every cycle — a [`Summary`] there would grow
/// without bound — and of which only the mean and the range are ever read.
///
/// ```
/// use seve_net::RunningSummary;
///
/// let mut s = RunningSummary::default();
/// for v in [250.0, 300.0, 350.0] {
///     s.record(v);
/// }
/// assert_eq!((s.count(), s.mean(), s.min(), s.max()), (3, 300.0, 250.0, 350.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunningSummary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningSummary {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite());
        if self.count == 0 {
            (self.min, self.max) = (v, v);
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 before the first sample.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or 0 before the first.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or 0 before the first.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A fixed-width linear histogram over `[0, width × buckets)`, with an
/// overflow bucket.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with `buckets` buckets of width `bucket_width`.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(bucket_width > 0.0 && buckets > 0);
        Self {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v >= 0.0);
        self.total += 1;
        let idx = (v / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i` (samples in `[i×w, (i+1)×w)`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Samples beyond the last bucket.
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of samples at or below `v` (inclusive of the containing
    /// bucket).
    pub fn cdf_at(&self, v: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = (v / self.bucket_width) as usize;
        let below: u64 = self.counts.iter().take(idx + 1).sum();
        below as f64 / self.total as f64
    }
}

/// A ratio counter for percentages such as Table II's "% moves dropped".
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Ratio {
    /// Number of "hits" (e.g. dropped moves).
    pub hits: u64,
    /// Total observations (e.g. all moves).
    pub total: u64,
}

impl Ratio {
    /// Record one observation, a hit or not.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// The ratio as a percentage (0 for no observations).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert!((s.stddev() - 2.0f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn running_summary_agrees_with_the_sample_keeping_one() {
        let (mut kept, mut running) = (Summary::new(), RunningSummary::default());
        for v in [3.0, -1.5, 8.25, 0.0, 8.25, 2.0] {
            kept.record(v);
            running.record(v);
        }
        assert_eq!(running.count(), kept.count() as u64);
        assert_eq!(running.mean(), kept.mean());
        assert_eq!(running.min(), kept.min());
        assert_eq!(running.max(), kept.max());
    }

    #[test]
    fn running_summary_is_fixed_size_and_zero_when_empty() {
        let empty = RunningSummary::default();
        assert_eq!(
            (empty.count(), empty.mean(), empty.min(), empty.max()),
            (0, 0.0, 0.0, 0.0)
        );
        // The first sample sets both ends of the range, whatever its sign.
        let mut s = RunningSummary::default();
        s.record(-4.0);
        assert_eq!((s.min(), s.max()), (-4.0, -4.0));
        // A million samples later it is the same four words.
        for i in 0..1_000_000 {
            s.record(f64::from(i % 7));
        }
        assert_eq!(s.count(), 1_000_001);
        assert_eq!((s.min(), s.max()), (-4.0, 6.0));
        assert_eq!(std::mem::size_of_val(&s), 32);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Summary::new();
        a.record(1.0);
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn p95_of_uniform_run() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.p95(), 95.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10.0, 3); // [0,10) [10,20) [20,30) + overflow
        for v in [0.0, 5.0, 15.0, 25.0, 99.0] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.overflow(), 1);
        assert!((h.cdf_at(19.9) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ratio_percentage() {
        let mut r = Ratio::default();
        for i in 0..200 {
            r.record(i % 50 == 0); // 4 hits
        }
        assert_eq!(r.percent(), 2.0);
        assert_eq!(Ratio::default().percent(), 0.0);
    }
}
