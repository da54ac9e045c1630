//! The attribute-correlation studies: Figure 3 (§2) and Figure 13
//! (Appendix A).
//!
//! For a single-domain world whose opinions derive from an objective
//! attribute (population, GDP per capita, lake area, mountain height),
//! the study runs the full pipeline and reports, per entity: the
//! attribute, the extracted statement counts, the majority-vote polarity,
//! and the probabilistic model's polarity. The quality readout is rank
//! correlation between attribute and decided polarity — visibly better
//! for the model, and defined for *all* entities because the model
//! decides even unmentioned ones.

use crate::metrics::Metrics;
use serde::Serialize;
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::{CorpusGenerator, World};
use surveyor_model::{MajorityVote, ObservedCounts, OpinionModel};
use surveyor_prob::spearman;

/// One entity's row in the study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EmpiricalPoint {
    /// Entity display name.
    pub entity: String,
    /// The objective attribute value (x-axis of Figures 3/13).
    pub attribute: f64,
    /// Extracted positive statements (Figure 3a).
    pub positive: u64,
    /// Extracted negative statements (Figure 3b).
    pub negative: u64,
    /// Majority-vote polarity (Figure 3c / Figure 13 left).
    pub majority: Decision,
    /// Probabilistic-model polarity (Figure 3d / Figure 13 right).
    pub model: Decision,
    /// The model's posterior probability.
    pub probability: f64,
    /// The planted dominant opinion.
    pub planted: bool,
}

/// The study artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EmpiricalStudy {
    /// Attribute key (e.g. `"population"`).
    pub attribute_key: String,
    /// The property under study (e.g. `big`).
    pub property: String,
    /// Per-entity rows, ordered by attribute ascending.
    pub points: Vec<EmpiricalPoint>,
    /// Spearman correlation of attribute vs. majority-vote polarity
    /// (unsolved = 0).
    pub majority_spearman: Option<f64>,
    /// Spearman correlation of attribute vs. model polarity.
    pub model_spearman: Option<f64>,
    /// Majority-vote coverage (fraction of entities decided).
    pub majority_coverage: f64,
    /// Model coverage.
    pub model_coverage: f64,
    /// Majority-vote accuracy against the planted opinions (solved only).
    pub majority_accuracy: f64,
    /// Model accuracy against the planted opinions (solved only).
    pub model_accuracy: f64,
}

fn polarity_score(d: Decision) -> f64 {
    match d {
        Decision::Positive => 1.0,
        Decision::Negative => -1.0,
        Decision::Unsolved => 0.0,
    }
}

/// Runs the study on a single-domain world.
///
/// # Panics
/// Panics if the world does not have exactly one domain or entities lack
/// the attribute.
pub fn run_empirical(
    world: &World,
    attribute_key: &str,
    corpus_config: CorpusConfig,
    surveyor_config: SurveyorConfig,
) -> EmpiricalStudy {
    assert_eq!(
        world.domains().len(),
        1,
        "empirical study expects a single-domain world"
    );
    let domain = &world.domains()[0];
    let generator = CorpusGenerator::new(world.clone(), corpus_config);
    let surveyor = Surveyor::new(world.kb().clone(), surveyor_config);
    let output = surveyor.run(&CorpusSource::new(&generator));

    let entities = world.kb().entities_of_type(domain.type_id);
    let counts: Vec<ObservedCounts> = entities
        .iter()
        .map(|&e| {
            let c = output.evidence.counts(e, &domain.property);
            ObservedCounts::new(c.positive, c.negative)
        })
        .collect();
    let mv_decisions = MajorityVote.decide_group(&counts);

    let mut points = Vec::with_capacity(entities.len());
    for (i, &entity) in entities.iter().enumerate() {
        let e = world.kb().entity(entity);
        #[expect(
            clippy::panic,
            reason = "planted worlds attach the domain attribute to every entity"
        )]
        let attribute = e
            .attribute(attribute_key)
            .unwrap_or_else(|| panic!("{} lacks attribute {attribute_key}", e.name()));
        let model_decision = output
            .opinion(entity, &domain.property)
            .map(|d| (d.decision, d.probability.unwrap_or(0.5)))
            .unwrap_or((Decision::Unsolved, 0.5));
        points.push(EmpiricalPoint {
            entity: e.name().to_owned(),
            attribute,
            positive: counts[i].positive,
            negative: counts[i].negative,
            majority: mv_decisions[i].decision,
            model: model_decision.0,
            probability: model_decision.1,
            planted: domain.opinions[i],
        });
    }
    points.sort_by(|a, b| a.attribute.total_cmp(&b.attribute));

    let attrs: Vec<f64> = points.iter().map(|p| p.attribute.max(1e-12).ln()).collect();
    let mv_scores: Vec<f64> = points.iter().map(|p| polarity_score(p.majority)).collect();
    let model_scores: Vec<f64> = points.iter().map(|p| polarity_score(p.model)).collect();

    let planted: Vec<bool> = points.iter().map(|p| p.planted).collect();
    let score = |decide: fn(&EmpiricalPoint) -> Decision| {
        let decisions: Vec<Decision> = points.iter().map(decide).collect();
        Metrics::score(&decisions, &planted)
    };
    let (majority, model) = (score(|p| p.majority), score(|p| p.model));

    EmpiricalStudy {
        attribute_key: attribute_key.to_owned(),
        property: domain.property.to_string(),
        majority_spearman: spearman(&attrs, &mv_scores),
        model_spearman: spearman(&attrs, &model_scores),
        majority_coverage: majority.coverage,
        model_coverage: model.coverage,
        majority_accuracy: majority.precision,
        model_accuracy: model.precision,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_corpus::presets::{big_cities_world, big_lakes_world};

    fn study() -> EmpiricalStudy {
        run_empirical(
            &big_cities_world(7),
            surveyor_kb::seed::ATTR_POPULATION,
            CorpusConfig {
                num_shards: 4,
                ..CorpusConfig::default()
            },
            SurveyorConfig {
                rho: 50,
                threads: 2,
                ..SurveyorConfig::default()
            },
        )
    }

    #[test]
    fn model_beats_majority_vote_on_correlation() {
        let s = study();
        let mv = s.majority_spearman.unwrap_or(0.0);
        let model = s.model_spearman.expect("model correlation defined");
        // Note: with a binary polarity outcome and a small share of "big"
        // cities, even a perfect classifier has bounded rank correlation;
        // the meaningful check is the gap over majority vote.
        assert!(
            model > mv,
            "model spearman {model} should beat majority {mv}"
        );
        assert!(model > 0.3, "model spearman {model}");
    }

    #[test]
    fn model_covers_every_city() {
        let s = study();
        assert!(s.model_coverage > 0.99, "coverage {}", s.model_coverage);
        assert!(
            s.majority_coverage < 0.9,
            "majority coverage {} should be partial",
            s.majority_coverage
        );
        assert_eq!(s.points.len(), 461);
    }

    #[test]
    fn model_accuracy_beats_majority() {
        let s = study();
        assert!(
            s.model_accuracy > s.majority_accuracy,
            "model {} vs mv {}",
            s.model_accuracy,
            s.majority_accuracy
        );
        assert!(
            s.model_accuracy > 0.8,
            "model accuracy {}",
            s.model_accuracy
        );
    }

    #[test]
    fn counts_correlate_with_population() {
        let s = study();
        // Figure 3(a): positive statements grow with population.
        let attrs: Vec<f64> = s.points.iter().map(|p| p.attribute.ln()).collect();
        let pos: Vec<f64> = s.points.iter().map(|p| p.positive as f64).collect();
        let rho = surveyor_prob::spearman(&attrs, &pos).unwrap();
        assert!(rho > 0.4, "count correlation {rho}");
    }

    #[test]
    fn sparse_lakes_study_still_covered_by_model() {
        let s = run_empirical(
            &big_lakes_world(5),
            surveyor_kb::seed::ATTR_AREA_KM2,
            CorpusConfig {
                num_shards: 2,
                ..CorpusConfig::default()
            },
            SurveyorConfig {
                rho: 20,
                threads: 2,
                ..SurveyorConfig::default()
            },
        );
        assert!(s.model_coverage > 0.99);
        // Many lakes have no statements at all.
        let unmentioned = s
            .points
            .iter()
            .filter(|p| p.positive + p.negative == 0)
            .count();
        assert!(unmentioned > 3, "unmentioned lakes: {unmentioned}");
    }
}
