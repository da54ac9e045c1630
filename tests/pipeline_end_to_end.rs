//! End-to-end pipeline tests: ground-truth world → generated text → NLP →
//! extraction → EM → decisions, asserting recovery of the planted
//! opinions.

use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::generator::RegionSpec;

fn animal_world(seed: u64) -> (Arc<KnowledgeBase>, surveyor_corpus::World) {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    for name in [
        "Kitten", "Puppy", "Pony", "Koala", "Tiger", "Spider", "Scorpion", "Rat", "Crow", "Moose",
        "Frog", "Camel", "Goose", "Beaver", "Octopus", "Lion",
    ] {
        b.add_entity(name, animal).finish();
    }
    let kb = Arc::new(b.build());
    let world = WorldBuilder::new(kb.clone(), seed)
        .domain(
            "animal",
            Property::adjective("cute"),
            DomainParams {
                p_agree: 0.92,
                rate_pos: 25.0,
                rate_neg: 4.0,
                opinions: OpinionRule::RandomShare(0.5),
                plural_subjects: true,
                ..DomainParams::default()
            },
        )
        .build();
    (kb, world)
}

#[test]
fn pipeline_recovers_planted_opinions() {
    let (kb, world) = animal_world(11);
    let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho: 20,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    let output = surveyor.run(&CorpusSource::new(&generator));
    assert_eq!(output.modeled_combinations(), 1);

    let domain = &world.domains()[0];
    let cute = Property::adjective("cute");
    let mut correct = 0;
    let entities = kb.entities_of_type(domain.type_id);
    for (i, &entity) in entities.iter().enumerate() {
        let decision = output.opinion(entity, &cute).expect("modeled combination");
        assert!(decision.decision.is_solved(), "entity {i} unsolved");
        if (decision.decision == Decision::Positive) == domain.opinions[i] {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / entities.len() as f64;
    assert!(
        accuracy >= 0.85,
        "pipeline accuracy {accuracy} ({correct}/{})",
        entities.len()
    );
}

#[test]
fn pipeline_is_deterministic() {
    let (kb, world) = animal_world(42);
    let run = |threads: usize| {
        let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default());
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 20,
                threads,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run(&CorpusSource::new(&generator));
        output.triples()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a, b, "thread count must not change results");
    assert!(!a.is_empty());
}

#[test]
fn below_threshold_combinations_are_not_modeled() {
    let (kb, world) = animal_world(7);
    let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 1_000_000,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    let output = surveyor.run(&CorpusSource::new(&generator));
    assert_eq!(output.modeled_combinations(), 0);
    assert_eq!(output.decided_pairs(), 0);
    assert!(output.triples().is_empty());
    // Evidence was still extracted.
    assert!(output.evidence.total_statements() > 0);
}

#[test]
fn regional_restriction_changes_opinions() {
    let (kb, world) = animal_world(5);
    let config = CorpusConfig {
        num_shards: 8,
        regions: vec![
            RegionSpec {
                name: "west".into(),
                weight: 1.0,
                opinion_flip: 0.0,
            },
            RegionSpec {
                name: "east".into(),
                weight: 1.0,
                opinion_flip: 0.5,
            },
        ],
    };
    let generator = CorpusGenerator::new(world.clone(), config);
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho: 10,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    let west =
        surveyor.run(&CorpusSource::try_for_region(&generator, "west").expect("region exists"));
    let east =
        surveyor.run(&CorpusSource::try_for_region(&generator, "east").expect("region exists"));
    let cute = Property::adjective("cute");
    let domain = &world.domains()[0];
    let entities = kb.entities_of_type(domain.type_id);
    let mut diverging = 0;
    for &e in entities {
        let w = west.opinion(e, &cute).map(|d| d.decision);
        let ea = east.opinion(e, &cute).map(|d| d.decision);
        if w != ea {
            diverging += 1;
        }
    }
    assert!(
        diverging >= 2,
        "regions with flipped opinions should diverge, got {diverging}"
    );
    // The west region (no flips) must still track the global truth.
    let mut west_correct = 0;
    for (i, &e) in entities.iter().enumerate() {
        if let Some(d) = west.opinion(e, &cute) {
            if (d.decision == Decision::Positive) == domain.opinions[i] {
                west_correct += 1;
            }
        }
    }
    assert!(west_correct as f64 / entities.len() as f64 > 0.7);
}

#[test]
fn provenance_tracks_supporting_documents() {
    let (kb, world) = animal_world(13);
    let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho: 20,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    let output = surveyor.run(&CorpusSource::new(&generator));
    let cute = surveyor::kb::PropertyId::intern(&Property::adjective("cute"));
    // Every pair with evidence has at least one supporting document, and
    // each cited document genuinely contains a matching sentence.
    let lexicon = generator.lexicon();
    let mut checked = 0;
    for ((entity, property), counts) in output.evidence.iter() {
        if counts.total() == 0 || *property != cute {
            continue;
        }
        let docs = output.provenance.documents_id(*entity, *property);
        assert!(!docs.is_empty(), "no provenance for {entity:?}");
        // Verify the first citation: regenerate its shard and re-extract.
        let doc_id = docs[0];
        let shard = (doc_id >> 32) as usize;
        let doc = generator
            .shard_annotated(shard, &lexicon, None)
            .into_iter()
            .find(|d| d.id == doc_id)
            .expect("cited document exists");
        let found = doc.sentences.iter().any(|s| {
            surveyor::extract::extract_sentence(s, &kb, &ExtractionConfig::paper_final())
                .iter()
                .any(|st| st.entity == *entity && st.property == *property)
        });
        assert!(found, "cited doc {doc_id} lacks a matching statement");
        checked += 1;
        if checked > 10 {
            break;
        }
    }
    assert!(checked > 3, "checked {checked} citations");
}

#[test]
fn interpretation_is_identical_across_worker_counts() {
    // Multi-domain world so the parallel interpretation phase actually has
    // several combinations to distribute across workers.
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for name in [
        "Kitten", "Puppy", "Tiger", "Spider", "Crow", "Moose", "Frog", "Goose",
    ] {
        b.add_entity(name, animal).finish();
    }
    for name in [
        "Springfield",
        "Riverton",
        "Lakewood",
        "Hillsboro",
        "Fairview",
        "Greenville",
    ] {
        b.add_entity(name, city).finish();
    }
    let kb = Arc::new(b.build());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 20.0,
        rate_neg: 3.0,
        opinions: OpinionRule::RandomShare(0.5),
        plural_subjects: true,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), 29)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain("animal", Property::adjective("dangerous"), params.clone())
        .domain("city", Property::adjective("big"), params.clone())
        .domain("city", Property::adjective("cheap"), params)
        .build();
    let generator = CorpusGenerator::new(world, CorpusConfig::default());

    let surveyor_for = |threads: usize| {
        Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                threads,
                ..SurveyorConfig::default()
            },
        )
    };
    let evidence = surveyor_for(2).run(&CorpusSource::new(&generator)).evidence;
    let baseline = surveyor_for(1).run_on_evidence(evidence.clone());
    assert!(
        baseline.modeled_combinations() >= 4,
        "want several combinations, got {}",
        baseline.modeled_combinations()
    );
    for workers in [2usize, 8] {
        let parallel = surveyor_for(workers).run_on_evidence(evidence.clone());
        assert_eq!(
            baseline.triples(),
            parallel.triples(),
            "{workers} workers changed the triples"
        );
        assert_eq!(baseline.results.len(), parallel.results.len());
        for (a, b) in baseline.results.iter().zip(&parallel.results) {
            assert_eq!(a.key.type_id, b.key.type_id);
            assert_eq!(a.key.property, b.key.property);
            // Bit-identical decisions and posteriors for every entity.
            assert_eq!(a.decisions, b.decisions, "{workers} workers diverged");
        }
    }
}

#[test]
fn run_on_evidence_matches_full_run() {
    let (kb, world) = animal_world(3);
    let generator = CorpusGenerator::new(world, CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 20,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    let full = surveyor.run(&CorpusSource::new(&generator));
    let replay = surveyor.run_on_evidence(full.evidence.clone());
    assert_eq!(full.triples(), replay.triples());
}
