//! The antonym ablation: measuring the §4 design decision.
//!
//! The paper rejected interpreting *"Palo Alto is small"* as a negation of
//! *"Palo Alto is big"* because "users who consider a city as not big do
//! not necessarily consider it small". This experiment builds a world in
//! which exactly that holds — `small` applies to *some but not all*
//! non-big cities — extracts evidence for both properties, and scores
//! Surveyor on the `big` decisions twice: with the raw evidence and with
//! antonym folding applied. The folding's failure mode is structural:
//! every "X is not small" statement about a *medium* city becomes
//! fabricated "X is big" evidence.

use crate::metrics::Metrics;
use serde::Serialize;
use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::World;
use surveyor_kb::KnowledgeBaseBuilder;
use surveyor_model::Decision;
use surveyor_prob::Rng;

/// The ablation artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AntonymReport {
    /// Surveyor on the raw `big` evidence (the paper's choice).
    pub without_folding: Metrics,
    /// Surveyor after folding `small` statements into `big` negations
    /// (the rejected alternative).
    pub with_folding: Metrics,
    /// Entities that are neither big nor small — the population the
    /// folding misreads.
    pub medium_entities: usize,
    /// Total entities.
    pub entities: usize,
}

/// World: big ∝ top of a size spectrum; small ∝ bottom; a wide *medium*
/// band is neither. `small` is therefore correlated with `not big` but far
/// from identical to it.
fn antonym_world(seed: u64, entities: usize) -> (World, Vec<bool>, Vec<bool>) {
    let mut b = KnowledgeBaseBuilder::new();
    let city = b.add_type("city", &["city"], &[]);
    let mut rng = Rng::new(seed ^ 0xA27);
    let mut sizes = Vec::with_capacity(entities);
    for i in 0..entities {
        b.add_entity(&format!("Sizetown{i}"), city).finish();
        sizes.push(rng.unit());
    }
    let big: Vec<bool> = sizes.iter().map(|&s| s > 0.75).collect();
    let small: Vec<bool> = sizes.iter().map(|&s| s < 0.30).collect();
    let kb = Arc::new(b.build());

    let base = DomainParams {
        p_agree: 0.9,
        rate_pos: 10.0,
        rate_neg: 2.0,
        aspect_noise: 0.0,
        part_of_noise: 0.0,
        filler_noise: 0.0,
        extended_verb_share: 0.0,
        double_negation_share: 0.0,
        ..DomainParams::default()
    };
    // Plant the exact opinion vectors via designated names.
    let names = |mask: &[bool]| -> Vec<String> {
        mask.iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| format!("Sizetown{i}"))
            .collect()
    };
    let world = WorldBuilder::new(kb, seed)
        .domain(
            "city",
            Property::adjective("big"),
            DomainParams {
                opinions: OpinionRule::DesignatedNames {
                    positive: names(&big),
                    background_share: 0.0,
                },
                ..base.clone()
            },
        )
        .domain(
            "city",
            Property::adjective("small"),
            DomainParams {
                opinions: OpinionRule::DesignatedNames {
                    positive: names(&small),
                    background_share: 0.0,
                },
                // People do write "X is not small" about medium cities.
                rate_neg: 4.0,
                ..base
            },
        )
        .build();
    (world, big, small)
}

/// Runs the ablation.
pub fn run_antonym_ablation(seed: u64, entities: usize) -> AntonymReport {
    let (world, big_truth, small_truth) = antonym_world(seed, entities);
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho: 20,
            ..SurveyorConfig::default()
        },
    );
    let raw_output = surveyor.run(&CorpusSource::new(&generator));

    // The rejected alternative: fold `small` into `big` before modeling.
    let lexicon = surveyor::extract::AntonymLexicon::core();
    let folded_evidence = lexicon.fold_table(&raw_output.evidence);
    let folded_output = surveyor.run_on_evidence(folded_evidence);

    let big = Property::adjective("big");
    #[expect(
        clippy::expect_used,
        reason = "the eval harness runs on the seed KB, which defines city"
    )]
    let city = kb.type_by_name("city").expect("city type");
    let entities_of_type = kb.entities_of_type(city);
    let score = |output: &surveyor::SurveyorOutput| {
        let decisions: Vec<Decision> = entities_of_type
            .iter()
            .map(|&e| {
                output
                    .opinion(e, &big)
                    .map(|d| d.decision)
                    .unwrap_or(Decision::Unsolved)
            })
            .collect();
        Metrics::score(&decisions, &big_truth)
    };

    AntonymReport {
        without_folding: score(&raw_output),
        with_folding: score(&folded_output),
        medium_entities: big_truth
            .iter()
            .zip(&small_truth)
            .filter(|(&b, &s)| !b && !s)
            .count(),
        entities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_hurts_precision_as_the_paper_predicted() {
        let report = run_antonym_ablation(7, 300);
        // A substantial medium band exists (the crux of the argument).
        assert!(
            report.medium_entities > report.entities / 4,
            "medium {}",
            report.medium_entities
        );
        // The paper's decision: raw evidence beats antonym folding.
        assert!(
            report.without_folding.precision > report.with_folding.precision + 0.05,
            "raw {} vs folded {}",
            report.without_folding.precision,
            report.with_folding.precision
        );
        assert!(report.without_folding.precision > 0.85);
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(run_antonym_ablation(3, 150), run_antonym_ablation(3, 150));
    }
}
