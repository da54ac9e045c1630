//! Bootstrap confidence intervals for the comparison metrics.
//!
//! The paper reports point estimates over 500 test cases; with ~480
//! tie-free cases the sampling error on a precision of 0.77 is a few
//! points. This module quantifies it: case-level bootstrap resampling of
//! the judged suite, giving percentile confidence intervals for coverage,
//! precision, and F1 per method — so EXPERIMENTS.md can say whether a
//! paper-vs-measured gap is within noise.

use crate::metrics::Metrics;
use surveyor_model::Decision;
use surveyor_prob::Rng;

/// A percentile confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Point estimate on the full sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lower: f64,
    /// Upper percentile bound.
    pub upper: f64,
}

impl Interval {
    /// Whether a reference value falls inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lower..=self.upper).contains(&value)
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Bootstrap intervals for one method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricIntervals {
    /// Coverage interval.
    pub coverage: Interval,
    /// Precision interval.
    pub precision: Interval,
    /// F1 interval.
    pub f1: Interval,
    /// Number of resamples drawn.
    pub resamples: usize,
}

/// Computes percentile bootstrap intervals (confidence `level`, e.g. 0.95)
/// for decisions scored against reference labels.
///
/// # Panics
/// Panics on empty input, mismatched lengths, zero resamples, or a level
/// outside `(0, 1)`.
pub fn bootstrap_metrics(
    decisions: &[Decision],
    truths: &[bool],
    resamples: usize,
    level: f64,
    seed: u64,
) -> MetricIntervals {
    assert_eq!(decisions.len(), truths.len(), "parallel slices required");
    assert!(!decisions.is_empty(), "bootstrap needs at least one case");
    assert!(resamples > 0, "need at least one resample");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "bad level {level}"
    );

    let point = Metrics::score(decisions, truths);
    let n = decisions.len();
    let mut rng = Rng::new(seed);
    let mut coverages = Vec::with_capacity(resamples);
    let mut precisions = Vec::with_capacity(resamples);
    let mut f1s = Vec::with_capacity(resamples);
    let mut sample_d = Vec::with_capacity(n);
    let mut sample_t = Vec::with_capacity(n);
    for _ in 0..resamples {
        sample_d.clear();
        sample_t.clear();
        for _ in 0..n {
            let i = rng.below(n);
            sample_d.push(decisions[i]);
            sample_t.push(truths[i]);
        }
        let m = Metrics::score(&sample_d, &sample_t);
        coverages.push(m.coverage);
        precisions.push(m.precision);
        f1s.push(m.f1);
    }

    let alpha = (1.0 - level) / 2.0;
    let interval = |samples: &mut Vec<f64>, estimate: f64| {
        samples.sort_by(|a, b| a.total_cmp(b));
        Interval {
            estimate,
            lower: surveyor_prob::percentile_sorted(samples, alpha * 100.0),
            upper: surveyor_prob::percentile_sorted(samples, (1.0 - alpha) * 100.0),
        }
    };
    MetricIntervals {
        coverage: interval(&mut coverages, point.coverage),
        precision: interval(&mut precisions, point.precision),
        f1: interval(&mut f1s, point.f1),
        resamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_model::Decision::{Negative, Positive, Unsolved};

    fn fixture(n: usize) -> (Vec<Decision>, Vec<bool>) {
        // 60% solved, 80% of solved correct.
        let mut decisions = Vec::new();
        let mut truths = Vec::new();
        for i in 0..n {
            match i % 10 {
                0..=3 => {
                    decisions.push(Positive);
                    truths.push(true);
                }
                4 => {
                    decisions.push(Positive);
                    truths.push(false);
                }
                5 => {
                    decisions.push(Negative);
                    truths.push(false);
                }
                _ => {
                    decisions.push(Unsolved);
                    truths.push(i % 2 == 0);
                }
            }
        }
        (decisions, truths)
    }

    #[test]
    fn intervals_bracket_the_estimate() {
        let (d, t) = fixture(400);
        let iv = bootstrap_metrics(&d, &t, 300, 0.95, 9);
        for i in [iv.coverage, iv.precision, iv.f1] {
            assert!(i.lower <= i.estimate + 1e-12, "{i:?}");
            assert!(i.upper >= i.estimate - 1e-12, "{i:?}");
            assert!(i.width() > 0.0 && i.width() < 0.3, "{i:?}");
            assert!(i.contains(i.estimate));
        }
        assert_eq!(iv.resamples, 300);
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let (d, t) = fixture(200);
        let narrow = bootstrap_metrics(&d, &t, 400, 0.5, 3);
        let wide = bootstrap_metrics(&d, &t, 400, 0.99, 3);
        assert!(wide.precision.width() > narrow.precision.width());
    }

    #[test]
    fn more_cases_give_tighter_intervals() {
        let (d1, t1) = fixture(100);
        let (d2, t2) = fixture(1_000);
        let small = bootstrap_metrics(&d1, &t1, 300, 0.95, 5);
        let large = bootstrap_metrics(&d2, &t2, 300, 0.95, 5);
        assert!(large.precision.width() < small.precision.width());
    }

    #[test]
    fn deterministic_per_seed() {
        let (d, t) = fixture(150);
        assert_eq!(
            bootstrap_metrics(&d, &t, 100, 0.9, 7),
            bootstrap_metrics(&d, &t, 100, 0.9, 7)
        );
    }

    #[test]
    #[should_panic(expected = "at least one case")]
    fn empty_input_panics() {
        let _ = bootstrap_metrics(&[], &[], 10, 0.9, 0);
    }
}
