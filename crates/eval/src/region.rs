//! Region-specific mining, quantified (an extension of paper §2).
//!
//! The paper notes that "Surveyor can produce region-specific results if
//! the input is restricted to Web sites with specific domain extensions"
//! but does not evaluate the mode. This experiment does: two author
//! regions share a knowledge base while one flips a configurable fraction
//! of the other's dominant opinions; the pipeline runs once per region and
//! we measure (a) how often the per-region outputs diverge and (b) each
//! region's accuracy against *its own* planted opinions.

use serde::Serialize;
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::generator::RegionSpec;
use surveyor_corpus::{CorpusGenerator, World};
use surveyor_model::Decision;

/// The region experiment artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionReport {
    /// Configured opinion-flip probability of the second region.
    pub flip_probability: f64,
    /// Fraction of judged pairs where the two regions' mined opinions
    /// differ.
    pub divergence: f64,
    /// First region's accuracy against its own planted opinions.
    pub accuracy_a: f64,
    /// Second region's accuracy against its own planted opinions.
    pub accuracy_b: f64,
    /// Pairs with decisions in both regions.
    pub compared_pairs: usize,
}

/// Runs the experiment on a world: region `a` keeps the world's opinions;
/// region `b` flips each with `flip_probability`.
pub fn run_region_experiment(
    world: &World,
    flip_probability: f64,
    shards: usize,
    rho: u64,
    threads: usize,
) -> RegionReport {
    let config = CorpusConfig {
        num_shards: shards,
        regions: vec![
            RegionSpec {
                name: "a".to_owned(),
                weight: 1.0,
                opinion_flip: 0.0,
            },
            RegionSpec {
                name: "b".to_owned(),
                weight: 1.0,
                opinion_flip: flip_probability,
            },
        ],
    };
    let generator = CorpusGenerator::new(world.clone(), config);
    let kb = world.kb().clone();
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho,
            threads,
            ..SurveyorConfig::default()
        },
    );
    #[expect(
        clippy::expect_used,
        reason = "the generator above registers regions a and b"
    )]
    let out_a =
        surveyor.run(&CorpusSource::try_for_region(&generator, "a").expect("region exists"));
    #[expect(
        clippy::expect_used,
        reason = "the generator above registers regions a and b"
    )]
    let out_b =
        surveyor.run(&CorpusSource::try_for_region(&generator, "b").expect("region exists"));

    let mut compared = 0usize;
    let mut diverged = 0usize;
    let mut correct_a = 0usize;
    let mut correct_b = 0usize;
    for (di, domain) in world.domains().iter().enumerate() {
        let entities = kb.entities_of_type(domain.type_id);
        for (ei, &entity) in entities.iter().enumerate() {
            let (Some(da), Some(db)) = (
                out_a.opinion(entity, &domain.property),
                out_b.opinion(entity, &domain.property),
            ) else {
                continue;
            };
            if !(da.decision.is_solved() && db.decision.is_solved()) {
                continue;
            }
            compared += 1;
            if da.decision != db.decision {
                diverged += 1;
            }
            if (da.decision == Decision::Positive) == generator.region_opinion(0, di, ei) {
                correct_a += 1;
            }
            if (db.decision == Decision::Positive) == generator.region_opinion(1, di, ei) {
                correct_b += 1;
            }
        }
    }
    let frac = |n: usize| {
        if compared == 0 {
            0.0
        } else {
            n as f64 / compared as f64
        }
    };
    RegionReport {
        flip_probability,
        divergence: frac(diverged),
        accuracy_a: frac(correct_a),
        accuracy_b: frac(correct_b),
        compared_pairs: compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn world(seed: u64) -> World {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for i in 0..40 {
            b.add_entity(&format!("Critter{i}"), animal).finish();
        }
        WorldBuilder::new(Arc::new(b.build()), seed)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams {
                    p_agree: 0.92,
                    rate_pos: 30.0,
                    rate_neg: 5.0,
                    opinions: OpinionRule::RandomShare(0.5),
                    ..DomainParams::default()
                },
            )
            .build()
    }

    #[test]
    fn no_flips_means_no_divergence_beyond_noise() {
        let report = run_region_experiment(&world(3), 0.0, 8, 10, 2);
        assert!(report.compared_pairs > 30);
        assert!(report.divergence < 0.15, "divergence {}", report.divergence);
        assert!(report.accuracy_a > 0.85);
        assert!(report.accuracy_b > 0.85);
    }

    #[test]
    fn flips_produce_divergence_and_both_regions_stay_accurate() {
        let report = run_region_experiment(&world(3), 0.5, 8, 10, 2);
        // With a 50% flip probability roughly half the pairs disagree.
        assert!(
            (0.2..=0.8).contains(&report.divergence),
            "divergence {}",
            report.divergence
        );
        // Each region recovers *its own* truth.
        assert!(report.accuracy_a > 0.8, "a: {}", report.accuracy_a);
        assert!(report.accuracy_b > 0.8, "b: {}", report.accuracy_b);
    }

    #[test]
    fn divergence_grows_with_flip_probability() {
        let d0 = run_region_experiment(&world(9), 0.1, 8, 10, 2).divergence;
        let d1 = run_region_experiment(&world(9), 0.6, 8, 10, 2).divergence;
        assert!(d1 > d0, "0.1 -> {d0}, 0.6 -> {d1}");
    }
}
