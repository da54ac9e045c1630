//! The decision rule of Algorithm 1.
//!
//! "We currently assume a positive dominant opinion if the probability is
//! greater than 0.5, and a negative dominant opinion if it is less than
//! 0.5" (§3); at exactly 0.5 the test case counts as unsolved (§7.4).

use serde::Serialize;

/// A decided polarity, or no decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Decision {
    /// Dominant opinion applies the property (`+`).
    Positive,
    /// Dominant opinion denies the property (`-`).
    Negative,
    /// No decision possible (probability exactly ½, or, for count-based
    /// baselines, tied counters).
    Unsolved,
}

impl Decision {
    /// Whether a decision was made.
    pub fn is_solved(self) -> bool {
        self != Decision::Unsolved
    }
}

/// A model's output for one entity: the decision plus the probability that
/// produced it (absent for purely count-based baselines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelDecision {
    /// The decided polarity.
    pub decision: Decision,
    /// `Pr(property applies)` when the model computes one.
    pub probability: Option<f64>,
}

impl ModelDecision {
    /// An unsolved output without a probability.
    pub fn unsolved() -> Self {
        Self {
            decision: Decision::Unsolved,
            probability: None,
        }
    }
}

/// Thresholds a probability into a decision. Probabilities within
/// `1e-12` of ½ are unsolved (exact ties arise from degenerate or
/// perfectly symmetric parameters).
pub fn decide(probability: f64) -> ModelDecision {
    debug_assert!((0.0..=1.0).contains(&probability));
    let decision = if (probability - 0.5).abs() <= 1e-12 {
        Decision::Unsolved
    } else if probability > 0.5 {
        Decision::Positive
    } else {
        Decision::Negative
    };
    ModelDecision {
        decision,
        probability: Some(probability),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholding() {
        assert_eq!(decide(0.9).decision, Decision::Positive);
        assert_eq!(decide(0.1).decision, Decision::Negative);
        assert_eq!(decide(0.5).decision, Decision::Unsolved);
        assert_eq!(decide(0.5 + 1e-13).decision, Decision::Unsolved);
        assert_eq!(decide(0.5 + 1e-9).decision, Decision::Positive);
    }

    #[test]
    fn probability_is_carried() {
        assert_eq!(decide(0.73).probability, Some(0.73));
        assert_eq!(ModelDecision::unsolved().probability, None);
    }

    #[test]
    fn solved_predicate() {
        assert!(Decision::Positive.is_solved());
        assert!(Decision::Negative.is_solved());
        assert!(!Decision::Unsolved.is_solved());
    }
}
