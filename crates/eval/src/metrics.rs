//! Evaluation measures (§7.4): coverage, precision, F1.
//!
//! "Coverage is the ratio of solved test cases to test cases. Precision is
//! the ratio of correctly solved test cases to solved test cases. F1 score
//! is the harmonic mean of precision and coverage."

use serde::Serialize;
use surveyor_model::Decision;

/// Aggregate scores over a set of test cases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Metrics {
    /// Solved / total.
    pub coverage: f64,
    /// Correct / solved (1.0 when nothing was solved, by convention 0.0).
    pub precision: f64,
    /// Harmonic mean of precision and coverage.
    pub f1: f64,
    /// Number of test cases scored.
    pub total: usize,
    /// Number of solved cases.
    pub solved: usize,
    /// Number of correctly solved cases.
    pub correct: usize,
}

impl Metrics {
    /// Scores decisions against reference labels (`true` = property
    /// applies). The slices are parallel.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn score(decisions: &[Decision], truths: &[bool]) -> Self {
        assert_eq!(decisions.len(), truths.len(), "parallel slices required");
        let total = decisions.len();
        let mut solved = 0;
        let mut correct = 0;
        for (d, &truth) in decisions.iter().zip(truths) {
            match d {
                Decision::Positive => {
                    solved += 1;
                    if truth {
                        correct += 1;
                    }
                }
                Decision::Negative => {
                    solved += 1;
                    if !truth {
                        correct += 1;
                    }
                }
                Decision::Unsolved => {}
            }
        }
        let coverage = if total == 0 {
            0.0
        } else {
            solved as f64 / total as f64
        };
        let precision = if solved == 0 {
            0.0
        } else {
            correct as f64 / solved as f64
        };
        Self {
            coverage,
            precision,
            f1: harmonic_mean(coverage, precision),
            total,
            solved,
            correct,
        }
    }
}

/// The harmonic mean of `coverage` and `precision` (0 when both are 0):
/// [`Metrics::f1`], and Table 5's F1 of a coverage and a precision taken
/// over different case sets.
pub(crate) fn harmonic_mean(coverage: f64, precision: f64) -> f64 {
    if coverage + precision == 0.0 {
        0.0
    } else {
        2.0 * coverage * precision / (coverage + precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_model::Decision::{Negative, Positive, Unsolved};

    #[test]
    fn perfect_scores() {
        let m = Metrics::score(&[Positive, Negative], &[true, false]);
        assert_eq!(m.coverage, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.correct, 2);
    }

    #[test]
    fn unsolved_reduces_coverage_not_precision() {
        let m = Metrics::score(
            &[Positive, Unsolved, Unsolved, Unsolved],
            &[true, true, false, true],
        );
        assert_eq!(m.coverage, 0.25);
        assert_eq!(m.precision, 1.0);
        assert!((m.f1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn wrong_decisions_reduce_precision() {
        let m = Metrics::score(&[Positive, Positive], &[true, false]);
        assert_eq!(m.coverage, 1.0);
        assert_eq!(m.precision, 0.5);
        assert!((m.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let m = Metrics::score(&[], &[]);
        assert_eq!(m.coverage, 0.0);
        assert_eq!(m.f1, 0.0);
        let m = Metrics::score(&[Unsolved], &[true]);
        assert_eq!(m.coverage, 0.0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_panic() {
        let _ = Metrics::score(&[Positive], &[]);
    }
}
