//! Sampling distributions for workload synthesis.
//!
//! The trace generator (Fig. 7 / Fig. 9 reproduction) needs Zipf-like
//! request popularity and log-normal file sizes. Both samplers draw
//! from [`SimRng`] so experiments stay deterministic.

use crate::rng::SimRng;

/// Zipf(s) distribution over ranks `1..=n`, sampled exactly by inverse
/// CDF over precomputed cumulative weights.
///
/// Weight of rank `k` is `k^-s`. Exact inversion is affordable because
/// the trace generator uses at most a few tens of thousands of ranks.
///
/// # Examples
///
/// ```
/// use iolite_sim::{SimRng, Zipf};
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = SimRng::new(1);
/// let rank = z.sample(&mut rng);
/// assert!((1..=100).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Builds a sampler over arbitrary non-negative weights (rank `k`
    /// gets mass proportional to `weights[k-1]`). This generalizes the
    /// inverse-CDF machinery beyond the `k^-s` family — trace prefixes
    /// carry renormalized empirical weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn from_cdf(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be non-negative");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len());
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Samples a rank in `1..=n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        // partition_point returns the count of entries < u, i.e. the
        // 0-based index of the chosen rank.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and shape `sigma` of the
    /// underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Samples one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(11);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[99]);
        // Rank 1 of Zipf(1.0, n=1000) has mass 1/H_1000 ~= 0.1336.
        let p1 = counts[0] as f64 / 100_000.0;
        assert!((p1 - 0.1336).abs() < 0.01, "p1 {p1}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_matches_moments() {
        // median = exp(mu), mean = exp(mu + sigma^2 / 2): mean 50, median 10.
        let mu = 10f64.ln();
        let d = LogNormal::new(mu, (2.0 * (50f64.ln() - mu)).sqrt());
        let mut rng = SimRng::new(12);
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() / 50.0 < 0.05, "mean {mean}");
    }
}
