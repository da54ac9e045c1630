//! The [`OpinionModel`] trait and the Surveyor model implementation.

use crate::counts::{CountTable, ObservedCounts};
use crate::decision::ModelDecision;
use crate::em::{fit, fit_table, EmConfig, EmFit};

/// A method for interpreting the statement counters of one
/// (type, property) combination — Surveyor's probabilistic model or one of
/// the §7.4 baselines.
///
/// `counts[i]` is the evidence tuple of the i-th entity of the type
/// (all-zero tuples included); the output vector is parallel to it.
pub trait OpinionModel {
    /// Human-readable method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Decides every entity of one combination.
    fn decide_group(&self, counts: &[ObservedCounts]) -> Vec<ModelDecision>;
}

/// The Surveyor model: per-combination EM fit, then posterior-thresholded
/// decisions (Algorithm 1 lines 6–11).
#[derive(Debug, Clone, Default)]
pub struct SurveyorModel {
    config: EmConfig,
}

impl SurveyorModel {
    /// A model with the default EM configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A model with a custom EM configuration.
    pub fn with_config(config: EmConfig) -> Self {
        Self { config }
    }

    /// Fits the model to a group and exposes the learned parameters
    /// (used by the parameter-inspection experiments).
    pub fn fit_group(&self, counts: &[ObservedCounts]) -> EmFit {
        fit(counts, &self.config)
    }
}

impl OpinionModel for SurveyorModel {
    fn name(&self) -> &'static str {
        "Surveyor"
    }

    fn decide_group(&self, counts: &[ObservedCounts]) -> Vec<ModelDecision> {
        if counts.is_empty() {
            return Vec::new();
        }
        let table = CountTable::new(counts);
        let fit = fit_table(&table, &self.config);
        table.decisions(&fit.params).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;

    #[test]
    fn surveyor_decides_every_entity() {
        // Chatty positives, quiet negatives, plus never-mentioned entities.
        let mut counts = Vec::new();
        for _ in 0..10 {
            counts.push(ObservedCounts::new(40, 1));
        }
        for _ in 0..10 {
            counts.push(ObservedCounts::new(1, 5));
        }
        for _ in 0..30 {
            counts.push(ObservedCounts::zero());
        }
        let model = SurveyorModel::new();
        let decisions = model.decide_group(&counts);
        assert_eq!(decisions.len(), counts.len());
        // High-positive entities decide positive.
        for d in &decisions[..10] {
            assert_eq!(d.decision, Decision::Positive);
        }
        // Negative-heavy entities decide negative.
        for d in &decisions[10..20] {
            assert_eq!(d.decision, Decision::Negative);
        }
        // Unmentioned entities are still decided (coverage ~1), negative
        // here because positives are chatty.
        for d in &decisions[20..] {
            assert_eq!(d.decision, Decision::Negative);
        }
        // Probabilities accompany every decision.
        assert!(decisions.iter().all(|d| d.probability.is_some()));
    }

    #[test]
    fn empty_group_is_empty() {
        assert!(SurveyorModel::new().decide_group(&[]).is_empty());
        assert_eq!(SurveyorModel::new().name(), "Surveyor");
    }
}
