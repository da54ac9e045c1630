//! Property-based tests for the corpus generator: determinism, Poisson
//! shard additivity, and template well-formedness.

use proptest::prelude::*;
use std::sync::Arc;
use surveyor_corpus::templates::{pluralize, Realizer, SentenceBuf};
use surveyor_corpus::{
    CorpusConfig, CorpusGenerator, DomainParams, OpinionRule, World, WorldBuilder,
};
use surveyor_kb::{KnowledgeBaseBuilder, Property};
use surveyor_prob::Rng;

fn small_world(seed: u64, rate_pos: f64, rate_neg: f64) -> World {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    for name in ["Kitten", "Tiger", "Spider", "Puppy"] {
        b.add_entity(name, animal).finish();
    }
    WorldBuilder::new(Arc::new(b.build()), seed)
        .domain(
            "animal",
            Property::adjective("cute"),
            DomainParams {
                rate_pos,
                rate_neg,
                opinions: OpinionRule::RandomShare(0.5),
                plural_subjects: true,
                ..DomainParams::default()
            },
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shard_generation_is_deterministic(seed in 0u64..500, shard_count in 1usize..8) {
        let config = CorpusConfig { num_shards: shard_count, ..CorpusConfig::default() };
        let g1 = CorpusGenerator::new(small_world(seed, 8.0, 2.0), config.clone());
        let g2 = CorpusGenerator::new(small_world(seed, 8.0, 2.0), config);
        for s in 0..shard_count {
            prop_assert_eq!(g1.shard_text(s), g2.shard_text(s));
        }
    }

    #[test]
    fn every_document_is_nonempty_and_sentence_terminated(seed in 0u64..200) {
        let g = CorpusGenerator::new(small_world(seed, 6.0, 2.0), CorpusConfig::default());
        for s in 0..g.shard_count() {
            for doc in g.shard_text(s) {
                prop_assert!(!doc.text.is_empty());
                prop_assert!(doc.text.ends_with('.'), "doc: {}", doc.text);
            }
        }
    }

    #[test]
    fn statement_volume_tracks_expectation(seed in 0u64..50) {
        // Across all shards, cute-sentences land within 5 sigma of the
        // expected Poisson total (shard additivity).
        let g = CorpusGenerator::new(small_world(seed, 15.0, 3.0), CorpusConfig::default());
        let expected = g.expected_statements();
        let mut observed = 0usize;
        for s in 0..g.shard_count() {
            for doc in g.shard_text(s) {
                observed += doc.text.matches("cute").count();
            }
        }
        let sigma = expected.sqrt();
        prop_assert!(
            ((observed as f64) - expected).abs() <= 5.0 * sigma + 5.0,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn pluralize_produces_distinct_longer_form(word in "[A-Z][a-z]{1,10}") {
        let plural = pluralize(&word);
        prop_assert!(plural.len() > word.len());
        prop_assert!(plural.starts_with(&word[..word.len().saturating_sub(1)]));
    }

    #[test]
    fn realized_statements_always_terminate_and_mention_both(
        positive in prop::bool::ANY,
        ev in 0.0f64..0.5,
        dn in 0.0f64..0.2,
        seed in 0u64..300,
    ) {
        let r = Realizer::new("animal", true);
        let mut buf = SentenceBuf::new();
        r.statement_into(&mut Rng::new(seed), "Kitten", "cute", positive, ev, dn, &mut buf);
        let s = buf.sentence(0);
        prop_assert!(s.ends_with('.'));
        prop_assert!(s.to_lowercase().contains("kitten"), "{s}");
        prop_assert!(s.contains("cute"), "{s}");
    }

    #[test]
    fn world_opinions_match_share_roughly(share in 0.1f64..0.9) {
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("thing", &["thing"], &[]);
        for i in 0..400 {
            b.add_entity(&format!("Thing{i}"), t).finish();
        }
        let world = WorldBuilder::new(Arc::new(b.build()), 7)
            .domain(
                "thing",
                Property::adjective("big"),
                DomainParams {
                    opinions: OpinionRule::RandomShare(share),
                    ..DomainParams::default()
                },
            )
            .build();
        let positives = world.domains()[0].opinions.iter().filter(|&&o| o).count();
        let expected = share * 400.0;
        let sigma = (400.0 * share * (1.0 - share)).sqrt();
        prop_assert!(
            ((positives as f64) - expected).abs() < 5.0 * sigma + 2.0,
            "positives {positives} expected {expected}"
        );
    }
}
