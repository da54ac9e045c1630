//! Poisson distribution: pmf, log-pmf, and sampling.
//!
//! Surveyor approximates the multinomial statement-count distribution by a
//! product of Poissons (paper §5.2, citing McDonald 1980 / Roos 1999); both
//! the synthetic corpus generator (sampling counts) and the inference engine
//! (evaluating log-likelihoods) go through this type.

use crate::logspace::ln_factorial;
use crate::rng::Rng;

/// A Poisson distribution with rate `lambda >= 0`.
///
/// `lambda == 0` is a valid degenerate distribution concentrated at zero;
/// Surveyor produces it for entity sets where one opinion class never emits
/// statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Panics
    /// Panics if `lambda` is negative or non-finite.
    #[inline]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson rate must be finite and non-negative, got {lambda}"
        );
        Self { lambda }
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Natural log of `Pr(X = k)`.
    ///
    /// For `lambda == 0` this is `0` at `k == 0` and `-inf` elsewhere.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// `Pr(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Draws one sample.
    ///
    /// Uses Knuth's product-of-uniforms method for `lambda < 30` and the
    /// PTRS transformed-rejection method (Hörmann 1993) for larger rates,
    /// which keeps sampling O(1) regardless of the rate.
    ///
    /// Knuth's method returns 0 when its first uniform `u` is at most
    /// `e^{−λ}`. Since `1 − λ ≤ e^{−λ}`, a `u` at most `(1 − λ) − 1e-12`
    /// certifies a 0 without computing the exponential; the margin is
    /// about 9,000 ulps at 1 and covers the rounding of `1 − λ` and of
    /// `exp`. Above the bound the loop continues from `u`, so the draws
    /// and the samples are exactly the loop's, and a silent draw at a
    /// sparse rate costs one uniform and one comparison.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.lambda == 0.0 {
            0
        } else if self.lambda < 30.0 {
            let u = rng.unit();
            if u <= zero_draw_bound(self.lambda) {
                0
            } else {
                self.knuth_from(u, rng)
            }
        } else {
            self.sample_ptrs(rng)
        }
    }

    /// Knuth's loop with its first uniform `u` already drawn.
    #[inline(never)]
    fn knuth_from(&self, u: f64, rng: &mut Rng) -> u64 {
        let limit = (-self.lambda).exp();
        let mut product = u;
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= rng.unit();
        }
        count
    }

    /// PTRS: W. Hörmann, "The transformed rejection method for generating
    /// Poisson random variables", Insurance: Mathematics and Economics 12
    /// (1993). Valid for `lambda >= 10`; we switch at 30.
    #[inline(never)]
    fn sample_ptrs(&self, rng: &mut Rng) -> u64 {
        let lam = self.lambda;
        let log_lam = lam.ln();
        let b = 0.931 + 2.53 * lam.sqrt();
        let a = -0.059 + 0.024_83 * b;
        let inv_alpha = 1.123_9 + 1.132_8 / (b - 3.4);
        let v_r = 0.9277 - 3.6224 / (b - 2.0);
        loop {
            let u = rng.unit() - 0.5;
            let v = rng.unit();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + lam + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let lhs = v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln();
            let rhs = -lam + k * log_lam - ln_factorial(k as u64);
            if lhs <= rhs {
                return k as u64;
            }
        }
    }
}

/// The largest first uniform that certifies a zero draw: `(1 − λ) − 1e-12`,
/// strictly below `e^{−λ}` for every `λ > 0`.
#[inline]
fn zero_draw_bound(lambda: f64) -> f64 {
    (1.0 - lambda) - 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for lambda in [0.1, 1.0, 5.0, 20.0] {
            let p = Poisson::new(lambda);
            // Sum far enough into the tail to capture essentially all mass.
            let total: f64 = (0..400).map(|k| p.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "lambda={lambda} total={total}");
        }
    }

    #[test]
    fn pmf_matches_hand_values() {
        // Pois(2): Pr(0)=e^-2, Pr(1)=2e^-2, Pr(2)=2e^-2, Pr(3)=4/3 e^-2.
        let p = Poisson::new(2.0);
        let e2 = (-2.0f64).exp();
        assert!((p.pmf(0) - e2).abs() < 1e-12);
        assert!((p.pmf(1) - 2.0 * e2).abs() < 1e-12);
        assert!((p.pmf(2) - 2.0 * e2).abs() < 1e-12);
        assert!((p.pmf(3) - 4.0 / 3.0 * e2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_zero_rate() {
        let p = Poisson::new(0.0);
        assert_eq!(p.pmf(0), 1.0);
        assert_eq!(p.pmf(1), 0.0);
        assert_eq!(p.ln_pmf(3), f64::NEG_INFINITY);
        let mut rng = Rng::new(7);
        for _ in 0..32 {
            assert_eq!(p.sample(&mut rng), 0);
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        // The CDF as running sums of the pmf.
        let p = Poisson::new(6.5);
        let mut cdf = 0.0;
        for k in 0..=100 {
            let next = cdf + p.pmf(k);
            assert!(next >= cdf && next <= 1.0 + 1e-12, "k={k}");
            cdf = next;
        }
        assert!((cdf - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let _ = Poisson::new(-1.0);
    }

    #[test]
    fn zero_draw_bound_lies_below_the_knuth_limit() {
        let below_limit = |lambda: f64| zero_draw_bound(lambda) < (-lambda).exp();
        let steps = 1u32 << 20;
        for k in 1..steps {
            let lambda = f64::from(k) / f64::from(steps);
            assert!(below_limit(lambda), "lambda={lambda}");
        }
        // Every power of two down to the smallest subnormal, and the float
        // just below each of them.
        let mut lambda = 0.5f64;
        while lambda > 0.0 {
            let under = f64::from_bits(lambda.to_bits() - 1);
            assert!(below_limit(lambda), "lambda={lambda:e}");
            assert!(under == 0.0 || below_limit(under), "lambda={under:e}");
            lambda /= 2.0;
        }
        // The last floats below 1, where `1 − λ` is smallest.
        let mut lambda = 1.0f64;
        for _ in 0..4096 {
            lambda = f64::from_bits(lambda.to_bits() - 1);
            assert!(below_limit(lambda), "lambda={lambda}");
        }
    }

    fn sample_moments(lambda: f64, n: usize, seed: u64) -> (f64, f64) {
        let p = Poisson::new(lambda);
        let mut rng = Rng::new(seed);
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var)
    }

    #[test]
    fn knuth_sampler_moments() {
        let (mean, var) = sample_moments(4.0, 40_000, 11);
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn ptrs_sampler_moments() {
        let (mean, var) = sample_moments(120.0, 40_000, 13);
        assert!((mean - 120.0).abs() < 0.5, "mean={mean}");
        assert!((var - 120.0).abs() < 6.0, "var={var}");
    }

    #[test]
    fn ptrs_sampler_distribution_matches_pmf() {
        // Chi-square-style check on a band of the support.
        let lambda = 50.0;
        let p = Poisson::new(lambda);
        let mut rng = Rng::new(17);
        let n = 60_000usize;
        let mut counts = vec![0u64; 120];
        for _ in 0..n {
            let k = p.sample(&mut rng) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        for (k, &count) in counts.iter().enumerate().take(66).skip(35) {
            let expected = p.pmf(k as u64) * n as f64;
            let observed = count as f64;
            // 5-sigma band on a Poisson count.
            let sigma = expected.sqrt().max(1.0);
            assert!(
                (observed - expected).abs() < 5.0 * sigma,
                "k={k} observed={observed} expected={expected}"
            );
        }
    }
}
