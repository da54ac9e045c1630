//! Model parameters and the four Poisson rates (paper §5.2).

/// Parameters of the user-behavior model for one (type, property)
/// combination: `θ = ⟨pA, np+S, np-S⟩`.
///
/// The paper works with `np+S` and `np-S` (the statement probabilities
/// pre-multiplied by the unknown, enormous author count `n`) "to minimize
/// rounding errors" (§6); we follow suit — the rates are expected statement
/// counts, not probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// `pA`: probability that an author agrees with the dominant opinion.
    pub p_agree: f64,
    /// `np+S`: expected statements from an author pool holding a positive
    /// opinion.
    pub rate_pos: f64,
    /// `np-S`: expected statements from an author pool holding a negative
    /// opinion.
    pub rate_neg: f64,
}

/// The four Poisson rates `λ^{σ2}_{σ1}`; subscript = dominant opinion,
/// superscript = statement polarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambdas {
    /// `λ++`: positive statements about positive-dominant entities.
    pub pos_pos: f64,
    /// `λ-+`: negative statements about positive-dominant entities.
    pub neg_pos: f64,
    /// `λ+-`: positive statements about negative-dominant entities.
    pub pos_neg: f64,
    /// `λ--`: negative statements about negative-dominant entities.
    pub neg_neg: f64,
}

impl ModelParams {
    /// Creates a parameter vector.
    ///
    /// # Panics
    /// Panics unless `0 <= pA <= 1` and the rates are finite and
    /// non-negative.
    pub fn new(p_agree: f64, rate_pos: f64, rate_neg: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_agree),
            "agreement probability out of range: {p_agree}"
        );
        assert!(
            rate_pos.is_finite() && rate_pos >= 0.0,
            "np+S must be finite and non-negative: {rate_pos}"
        );
        assert!(
            rate_neg.is_finite() && rate_neg >= 0.0,
            "np-S must be finite and non-negative: {rate_neg}"
        );
        Self {
            p_agree,
            rate_pos,
            rate_neg,
        }
    }

    /// The four Poisson rates:
    /// `λ++ = pA·np+S`, `λ-+ = (1-pA)·np-S`,
    /// `λ+- = (1-pA)·np+S`, `λ-- = pA·np-S`.
    pub fn lambdas(&self) -> Lambdas {
        Lambdas {
            pos_pos: self.p_agree * self.rate_pos,
            neg_pos: (1.0 - self.p_agree) * self.rate_neg,
            pos_neg: (1.0 - self.p_agree) * self.rate_pos,
            neg_neg: self.p_agree * self.rate_neg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example3_lambdas() {
        // Paper Example 3: pA = 0.9, np+S = 100, np-S = 5 gives
        // λ++ = 90, λ-+ = 0.5, λ-- = 4.5, λ+- = 10.
        let p = ModelParams::new(0.9, 100.0, 5.0);
        let l = p.lambdas();
        assert!((l.pos_pos - 90.0).abs() < 1e-12);
        assert!((l.neg_pos - 0.5).abs() < 1e-12);
        assert!((l.neg_neg - 4.5).abs() < 1e-12);
        assert!((l.pos_neg - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lambdas_sum_preserves_rates() {
        let p = ModelParams::new(0.73, 42.0, 7.0);
        let l = p.lambdas();
        assert!((l.pos_pos + l.pos_neg - 42.0).abs() < 1e-12);
        assert!((l.neg_pos + l.neg_neg - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_agreement_panics() {
        let _ = ModelParams::new(1.5, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "np+S")]
    fn negative_rate_panics() {
        let _ = ModelParams::new(0.5, -1.0, 1.0);
    }
}
