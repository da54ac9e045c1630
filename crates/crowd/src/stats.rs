//! Agreement statistics over judged test cases (Figures 10–12).

use crate::panel::CrowdVerdict;

/// Mean worker agreement (the paper reports 17 of 20 averaged over all
/// 500 test cases).
pub fn mean_agreement(verdicts: &[CrowdVerdict]) -> f64 {
    if verdicts.is_empty() {
        return 0.0;
    }
    verdicts.iter().map(|v| v.agreement() as f64).sum::<f64>() / verdicts.len() as f64
}

/// Number of cases whose agreement is at least `threshold` — one point of
/// the Figure 11 curve.
pub fn cases_at_or_above(verdicts: &[CrowdVerdict], threshold: usize) -> usize {
    verdicts
        .iter()
        .filter(|v| v.agreement() >= threshold)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pos: usize, neg: usize) -> CrowdVerdict {
        CrowdVerdict {
            votes_positive: pos,
            votes_negative: neg,
        }
    }

    #[test]
    fn mean_agreement_basic() {
        let verdicts = [v(20, 0), v(15, 5), v(10, 10)];
        assert!((mean_agreement(&verdicts) - 15.0).abs() < 1e-12);
        assert_eq!(mean_agreement(&[]), 0.0);
    }

    #[test]
    fn threshold_counting() {
        let verdicts = [v(20, 0), v(18, 2), v(12, 8), v(10, 10)];
        assert_eq!(cases_at_or_above(&verdicts, 11), 3);
        assert_eq!(cases_at_or_above(&verdicts, 19), 1);
        assert_eq!(cases_at_or_above(&verdicts, 10), 4);
    }

    #[test]
    fn histogram_is_monotone_decreasing() {
        // The Figure 11 series: cases at or above each threshold 11..=20.
        let verdicts: Vec<CrowdVerdict> = (0..21).map(|k| v(k, 20 - k)).collect();
        let hist: Vec<usize> = (11..=20).map(|t| cases_at_or_above(&verdicts, t)).collect();
        for w in hist.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // Agreement k of 20 is max(k, 20 − k): two cases reach each
        // threshold below 20 per step, and the two unanimous ones reach 20.
        assert_eq!(hist[0], 20);
        assert_eq!(hist[9], 2);
    }
}
