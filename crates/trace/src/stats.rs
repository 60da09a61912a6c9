//! Empirical statistics: CDFs and log-scale histograms.
//!
//! The paper reports its trace characterization (Figs 3, 5, 6) as CDFs and
//! decade histograms; this module computes the same artifacts from samples
//! so the bench binaries can print them side by side with the paper's
//! reference points.

use std::fmt;

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// use woha_trace::stats::Cdf;
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.percentile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite values are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no finite samples remain.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        assert!(!sorted.is_empty(), "CDF needs at least one finite sample");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty (never true by construction; kept for the
    /// `len`/`is_empty` pairing convention).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`, in `[0, 1]`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        let n = self.sorted.len();
        let idx = ((n as f64 * p).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// A histogram over powers-of-ten buckets: `[10^k, 10^(k+1))`.
///
/// Mirrors Fig 3's x-axis (`<10^1 ms`, `<10^2 ms`, ... `<10^6 ms`).
///
/// # Examples
///
/// ```
/// use woha_trace::stats::DecadeHistogram;
/// let mut h = DecadeHistogram::new();
/// h.record(5.0);     // 10^0 decade
/// h.record(50.0);    // 10^1 decade
/// h.record(55.0);    // 10^1 decade
/// assert_eq!(h.count_in_decade(1), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecadeHistogram {
    /// counts[k] counts samples in [10^(k-1), 10^k) shifted so that
    /// decade index 0 covers [1, 10). Samples below 1 land in decade 0.
    counts: Vec<u64>,
}

impl DecadeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        DecadeHistogram::default()
    }

    /// Records one sample; negatives and non-finite values count as decade 0.
    pub fn record(&mut self, x: f64) {
        let decade = if x.is_finite() && x >= 1.0 {
            x.log10().floor() as usize
        } else {
            0
        };
        if self.counts.len() <= decade {
            self.counts.resize(decade + 1, 0);
        }
        self.counts[decade] += 1;
    }

    /// Count of samples in `[10^decade, 10^(decade+1))`.
    pub fn count_in_decade(&self, decade: usize) -> u64 {
        self.counts.get(decade).copied().unwrap_or(0)
    }

    /// Count of samples `< 10^decade` (the paper's "&lt;10^k" buckets).
    pub fn count_below_power(&self, decade: usize) -> u64 {
        self.counts.iter().take(decade).sum()
    }

    /// Total sample count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of samples `>= 10^decade`.
    pub fn fraction_at_or_above_power(&self, decade: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (total - self.count_below_power(decade)) as f64 / total as f64
    }

    /// Highest non-empty decade index, or `None` when empty.
    pub fn max_decade(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// `(decade, count)` for every decade up to the maximum, including
    /// empty ones.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.counts.iter().copied().enumerate().collect()
    }
}

impl fmt::Display for DecadeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (decade, count) in self.buckets() {
            writeln!(f, "[1e{decade}, 1e{}): {count}", decade + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn cdf_percentiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(0.5), 50.0);
        assert_eq!(cdf.percentile(1.0), 100.0);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 100.0);
        assert!((cdf.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one finite sample")]
    fn cdf_rejects_empty() {
        Cdf::from_samples(std::iter::empty());
    }

    #[test]
    fn histogram_decades() {
        let mut h = DecadeHistogram::new();
        for x in [0.5, 3.0, 30.0, 40.0, 500.0, 20_000.0] {
            h.record(x);
        }
        assert_eq!(h.count_in_decade(0), 2); // 0.5 and 3.0
        assert_eq!(h.count_in_decade(1), 2);
        assert_eq!(h.count_in_decade(2), 1);
        assert_eq!(h.count_in_decade(3), 0);
        assert_eq!(h.count_in_decade(4), 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.count_below_power(2), 4);
        assert_eq!(h.max_decade(), Some(4));
        assert!((h.fraction_at_or_above_power(2) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = DecadeHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_decade(), None);
        assert_eq!(h.fraction_at_or_above_power(3), 0.0);
    }

    #[test]
    fn histogram_display_lists_buckets() {
        let mut h = DecadeHistogram::new();
        h.record(5.0);
        let text = h.to_string();
        assert!(text.contains("[1e0, 1e1): 1"));
    }
}
