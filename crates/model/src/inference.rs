//! Posterior inference: `Pr(D_i = + | C+_i, C-_i, θ)` (paper §5.2).
//!
//! With the agnostic prior `Pr(D=+) = Pr(D=-) = 0.5`, the posterior is the
//! normalized pair of Poisson joint likelihoods. The `log c!` terms cancel
//! between the two hypotheses, so the log joint reduces to the
//! `c·ln λ − λ` form the paper's `Q'` uses.

use crate::counts::ObservedCounts;
use crate::params::{Lambdas, ModelParams};

/// `c·ln λ − λ` from a precomputed `ln λ`, with the `0·ln 0 = 0`
/// convention and `−∞` when `λ = 0` but `c > 0` (an impossible
/// observation under that hypothesis).
#[inline]
fn ln_poisson_kernel(c: u64, lambda: f64, ln_lambda: f64) -> f64 {
    if lambda == 0.0 {
        if c == 0 {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        c as f64 * ln_lambda - lambda
    }
}

/// The posterior and the joint likelihoods under one parameter vector,
/// with the four rates and their logarithms computed once, not once per
/// evaluation. Every value is the same f64 a fresh `lambdas()` and `ln`
/// per call would give, so a caller that evaluates many counts under one
/// `θ` (an E-step, a decide pass) gets the per-entity result bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Posterior {
    lambdas: Lambdas,
    ln: Lambdas,
}

impl Posterior {
    pub(crate) fn new(params: &ModelParams) -> Self {
        let lambdas = params.lambdas();
        let ln = Lambdas {
            pos_pos: lambdas.pos_pos.ln(),
            neg_pos: lambdas.neg_pos.ln(),
            pos_neg: lambdas.pos_neg.ln(),
            neg_neg: lambdas.neg_neg.ln(),
        };
        Self { lambdas, ln }
    }

    /// Log joint likelihood of the counts under a positive dominant
    /// opinion (up to the `log c!` constant shared by both hypotheses).
    #[inline]
    pub(crate) fn ln_joint_positive(&self, counts: ObservedCounts) -> f64 {
        let (l, ln) = (&self.lambdas, &self.ln);
        ln_poisson_kernel(counts.positive, l.pos_pos, ln.pos_pos)
            + ln_poisson_kernel(counts.negative, l.neg_pos, ln.neg_pos)
    }

    /// Log joint likelihood under a negative dominant opinion.
    #[inline]
    pub(crate) fn ln_joint_negative(&self, counts: ObservedCounts) -> f64 {
        let (l, ln) = (&self.lambdas, &self.ln);
        ln_poisson_kernel(counts.positive, l.pos_neg, ln.pos_neg)
            + ln_poisson_kernel(counts.negative, l.neg_neg, ln.neg_neg)
    }

    /// [`posterior_positive`] under these parameters.
    #[inline]
    pub(crate) fn positive(&self, counts: ObservedCounts) -> f64 {
        normalize_pair(
            self.ln_joint_positive(counts),
            self.ln_joint_negative(counts),
        )
    }
}

/// The posterior probability that the dominant opinion is positive, under
/// a uniform prior.
///
/// Returns exactly `0.5` when both hypotheses are impossible (degenerate
/// parameters), mirroring the agnostic prior.
pub fn posterior_positive(counts: ObservedCounts, params: &ModelParams) -> f64 {
    Posterior::new(params).positive(counts)
}

/// Stable `exp(a) / (exp(a) + exp(b))`.
fn normalize_pair(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY && b == f64::NEG_INFINITY {
        return 0.5;
    }
    let d = b - a;
    if d > 0.0 {
        let e = (-d).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + d.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example3() -> ModelParams {
        ModelParams::new(0.9, 100.0, 5.0)
    }

    #[test]
    fn figure6_tuple_60_3_is_positive() {
        // Paper Figure 6 / Example 1: the tuple ⟨60, 3⟩ is more likely
        // under the positive distribution.
        let p = posterior_positive(ObservedCounts::new(60, 3), &example3());
        assert!(p > 0.999, "p = {p}");
    }

    #[test]
    fn zero_counts_lean_negative_when_positive_entities_are_chatty() {
        // λ++ = 90: a never-mentioned entity is very unlikely to be
        // positive-dominant ("a city never mentioned is not big").
        let p = posterior_positive(ObservedCounts::zero(), &example3());
        assert!(p < 1e-20, "p = {p}");
    }

    #[test]
    fn many_negative_statements_flip_to_negative() {
        let p = posterior_positive(ObservedCounts::new(2, 8), &example3());
        assert!(p < 0.5, "p = {p}");
    }

    #[test]
    fn posterior_is_probability() {
        let params = example3();
        for (a, b) in [(0, 0), (1, 0), (0, 1), (10, 10), (200, 1), (1, 200)] {
            let p = posterior_positive(ObservedCounts::new(a, b), &params);
            assert!((0.0..=1.0).contains(&p), "({a},{b}) -> {p}");
        }
    }

    #[test]
    fn posterior_monotone_in_positive_count() {
        let params = example3();
        let mut prev = 0.0;
        for c in 0..40 {
            let p = posterior_positive(ObservedCounts::new(c, 2), &params);
            assert!(p >= prev - 1e-12, "c={c}");
            prev = p;
        }
    }

    #[test]
    fn symmetric_parameters_give_half_on_symmetric_counts() {
        // pA = 0.5 makes both hypotheses identical.
        let params = ModelParams::new(0.5, 10.0, 10.0);
        for (a, b) in [(0, 0), (3, 3), (7, 7)] {
            let p = posterior_positive(ObservedCounts::new(a, b), &params);
            assert!((p - 0.5).abs() < 1e-12, "({a},{b}) -> {p}");
        }
    }

    #[test]
    fn zero_rate_handles_impossible_observation() {
        // np-S = 0: any negative statement is impossible under both
        // hypotheses -> posterior falls back to the prior.
        let params = ModelParams::new(0.9, 10.0, 0.0);
        let p = posterior_positive(ObservedCounts::new(0, 1), &params);
        assert_eq!(p, 0.5);
        // But positive counts still discriminate.
        let p = posterior_positive(ObservedCounts::new(9, 0), &params);
        assert!(p > 0.9);
    }

    #[test]
    fn normalize_pair_symmetry_and_bounds() {
        assert!((normalize_pair(0.0, 0.0) - 0.5).abs() < 1e-12);
        let p = normalize_pair(-3.0, -5.0);
        let q = normalize_pair(-5.0, -3.0);
        assert!((p + q - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn normalize_pair_extreme_inputs() {
        assert!(normalize_pair(0.0, -1e9) > 0.999_999);
        assert!(normalize_pair(-1e9, 0.0) < 1e-6);
        assert_eq!(normalize_pair(f64::NEG_INFINITY, f64::NEG_INFINITY), 0.5);
    }

    proptest::proptest! {
        #[test]
        fn normalize_pair_is_a_probability(a in -1e6f64..100.0, b in -1e6f64..100.0) {
            let p = normalize_pair(a, b);
            proptest::prop_assert!((0.0..=1.0).contains(&p));
            let q = normalize_pair(b, a);
            proptest::prop_assert!((p + q - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn kernel_conventions() {
        let ln0 = 0.0_f64.ln();
        assert_eq!(ln_poisson_kernel(0, 0.0, ln0), 0.0);
        assert_eq!(ln_poisson_kernel(3, 0.0, ln0), f64::NEG_INFINITY);
        let k = ln_poisson_kernel(2, 4.0, 4.0_f64.ln());
        assert!((k - (2.0 * 4.0_f64.ln() - 4.0)).abs() < 1e-12);
    }
}
