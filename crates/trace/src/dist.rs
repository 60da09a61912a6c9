//! Sampling distributions for synthetic workload generation.
//!
//! The Yahoo! trace statistics the paper publishes (Fig 5 and Fig 6) are
//! heavy-tailed: task durations span three decades and task counts four.
//! [`LogNormal`] and [`BoundedPareto`] reproduce those shapes, and
//! [`Clamped`] bounds them.

use crate::rng::Rng;

/// A distribution over `f64` that can be sampled with a [`Rng`].
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;
}

/// A log-normal distribution, parameterized by the **median** and the
/// shape `sigma` (standard deviation of the underlying normal).
///
/// `median = e^mu`, so `LogNormal::from_median(60.0, 1.0)` produces samples
/// whose logarithms are normal around `ln 60`. This parameterization maps
/// directly onto "most mappers finish between 10 s and 100 s".
///
/// # Examples
///
/// ```
/// use woha_trace::{Distribution, LogNormal, Rng};
/// let d = LogNormal::from_median(60.0, 0.8);
/// let x = d.sample(&mut Rng::new(1));
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given `mu`/`sigma` of the underlying
    /// normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && mu.is_finite() && sigma.is_finite(),
            "bad parameters"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with the given median (`e^mu`) and shape.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `sigma < 0`.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        Self::new(median.ln(), sigma)
    }

    /// The distribution's median.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.next_standard_normal()).exp()
    }
}

/// A Pareto (power-law) distribution truncated to `[lo, hi]`, sampled by
/// inverse transform. Smaller `alpha` means a heavier tail.
///
/// Used for task counts: "about 30 % of jobs have more than 100 mappers"
/// while the median job is small — a classic bounded power law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[lo, hi]` with tail index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `lo >= hi`, or `alpha <= 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && lo < hi && alpha > 0.0, "bad parameters");
        BoundedPareto { lo, hi, alpha }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF of the bounded Pareto.
        let u = rng.next_f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Clamps another distribution's samples into `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Clamped<D> {
    inner: D,
    lo: f64,
    hi: f64,
}

impl<D: Distribution> Clamped<D> {
    /// Wraps `inner`, clamping samples to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "lo must not exceed hi");
        Clamped { inner, lo, hi }
    }
}

impl<D: Distribution> Distribution for Clamped<D> {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    }

    fn sorted_samples<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        let mut s: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_median(60.0, 1.0);
        assert!((d.median() - 60.0).abs() < 1e-9);
        let s = sorted_samples(&d, 50_000, 2);
        let med = percentile(&s, 0.5);
        assert!((med - 60.0).abs() / 60.0 < 0.05, "median {med}");
        assert!(s[0] > 0.0);
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let d = LogNormal::from_median(42.0, 0.0);
        let s = sorted_samples(&d, 100, 3);
        for x in s {
            assert!((x - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(1.0, 3_000.0, 0.6);
        let s = sorted_samples(&d, 50_000, 4);
        assert!(s[0] >= 1.0);
        assert!(*s.last().unwrap() <= 3_000.0);
        // Heavy tail: the 99th percentile should be far above the median.
        let med = percentile(&s, 0.5);
        let p99 = percentile(&s, 0.99);
        assert!(p99 / med > 20.0, "median {med}, p99 {p99}");
    }

    #[test]
    fn pareto_alpha_controls_tail() {
        let light = sorted_samples(&BoundedPareto::new(1.0, 1_000.0, 2.0), 50_000, 5);
        let heavy = sorted_samples(&BoundedPareto::new(1.0, 1_000.0, 0.3), 50_000, 5);
        assert!(percentile(&heavy, 0.9) > percentile(&light, 0.9));
    }

    #[test]
    fn clamped_respects_bounds() {
        let d = Clamped::new(LogNormal::from_median(50.0, 2.0), 10.0, 100.0);
        let s = sorted_samples(&d, 10_000, 8);
        assert!(s[0] >= 10.0);
        assert!(*s.last().unwrap() <= 100.0);
    }
}
