//! Bounded Zipf (zeta) distribution over ranks `1..=n`.
//!
//! The Surveyor corpus generator uses Zipf popularity to reproduce the
//! heavy-skew extraction statistics of paper Figure 9: a small set of
//! popular entities and property-type combinations accounts for most
//! extracted statements, while the long tail is almost never mentioned.

use crate::rng::Rng;

/// Zipf distribution: `Pr(rank = k) ∝ 1 / k^s` for `k in 1..=n`.
///
/// Sampling uses a precomputed cumulative table with binary search; the
/// populations Surveyor deals in (up to a few hundred thousand entities)
/// make the O(n) table and O(log n) draws a deliberate simplicity/perf
/// trade-off over rejection-inversion.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s > 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is non-finite or non-positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
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
        // Pin the last entry so binary search can never run off the end.
        #[expect(
            clippy::expect_used,
            reason = "support size is asserted nonzero in the constructor"
        )]
        let last = cdf.last_mut().expect("non-empty support");
        *last = 1.0;
        Self { cdf, exponent: s }
    }

    /// Number of ranks in the support.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// `Pr(rank = k)` for `k in 1..=n`; zero outside the support.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[k - 1];
        let lo = if k >= 2 { self.cdf[k - 2] } else { 0.0 };
        hi - lo
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        // partition_point returns the count of entries < u, i.e. the index
        // of the first cdf entry >= u; +1 converts to a 1-based rank.
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(50, 0.8);
        for k in 1..50 {
            assert!(z.pmf(k) > z.pmf(k + 1), "k={k}");
        }
    }

    #[test]
    fn pmf_outside_support_is_zero() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(11), 0.0);
    }

    #[test]
    fn single_rank_support() {
        let z = Zipf::new(1, 2.0);
        assert_eq!(z.pmf(1), 1.0);
        let mut rng = Rng::new(3);
        for _ in 0..16 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn samples_stay_in_support_and_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = Rng::new(42);
        let n = 50_000;
        let mut counts = [0u64; 21];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=20).contains(&k));
            counts[k] += 1;
        }
        for (k, &count) in counts.iter().enumerate().take(21).skip(1) {
            let expected = z.pmf(k) * n as f64;
            let sigma = expected.sqrt().max(1.0);
            assert!(
                (count as f64 - expected).abs() < 5.0 * sigma,
                "k={k} observed={count} expected={expected}"
            );
        }
    }

    #[test]
    fn ratio_of_head_ranks_follows_power_law() {
        let z = Zipf::new(1000, 1.0);
        // pmf(1)/pmf(2) == 2^s == 2 for s = 1.
        let ratio = z.pmf(1) / z.pmf(2);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
