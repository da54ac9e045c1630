//! `extract_sentence_into` against its frozen reference.
//!
//! `patterns::reference` is the extractor as it was before the early-out
//! and the iterator tree queries: it tries every pattern on every sentence
//! and builds the vectors the tree queries used to return. Both run over
//! the fuzzer's documents, a hand-written list and a slice of every preset
//! world, under all four pattern versions; statements (entity, property,
//! polarity, order) and per-pattern hit counts must be equal, and a
//! sentence the early-out skipped must be one the reference extracts
//! nothing from. There is no documented difference at this layer: the
//! tokenizer's two are upstream, and both extractors read the same
//! annotated sentence.

use crate::config::{ExtractionConfig, PatternVersion};
use crate::evidence::Statement;
use crate::patterns::{self, extract_sentence_into, ExtractContext, PatternCounts};
use common::fuzz_lexicon;
use std::sync::Arc;
use surveyor_corpus::fuzz::{fuzz_kb, SentenceFuzzer};
use surveyor_corpus::{presets, CorpusConfig, CorpusGenerator, World};
use surveyor_kb::KnowledgeBase;
use surveyor_nlp::{annotate, AnnotatedDocument};

#[path = "../tests/common/mod.rs"]
mod common;

/// Old and new state threaded through a run of sentences, as a worker
/// threads it: one context and one tally each.
#[derive(Default)]
struct Pair {
    old_cx: ExtractContext,
    new_cx: ExtractContext,
    old_counts: PatternCounts,
    new_counts: PatternCounts,
    old_out: Vec<Statement>,
    new_out: Vec<Statement>,
    sentences: u64,
    yielding: u64,
}

impl Pair {
    fn compare(
        &mut self,
        docs: &[AnnotatedDocument],
        kb: &KnowledgeBase,
        config: &ExtractionConfig,
    ) {
        for sentence in docs.iter().flat_map(|doc| &doc.sentences) {
            let skipped_before = self.new_counts.skipped;
            patterns::reference::extract_sentence_into(
                sentence,
                kb,
                config,
                &mut self.old_counts,
                &mut self.old_cx,
                &mut self.old_out,
            );
            extract_sentence_into(
                sentence,
                kb,
                config,
                &mut self.new_counts,
                &mut self.new_cx,
                &mut self.new_out,
            );
            let text = sentence.tokens.sentence();
            assert_eq!(self.old_out, self.new_out, "statements of {text:?}");
            if self.new_counts.skipped > skipped_before {
                assert!(
                    self.old_out.is_empty(),
                    "skipped a yielding sentence: {text:?}"
                );
            }
            self.sentences += 1;
            self.yielding += u64::from(!self.new_out.is_empty());
        }
        assert_eq!(
            (self.old_counts.acomp, self.old_counts.amod),
            (self.new_counts.acomp, self.new_counts.amod),
            "pattern hits"
        );
        assert_eq!(self.old_counts.skipped, 0, "the reference skips nothing");
        assert!(self.new_counts.skipped <= self.sentences);
    }
}

#[test]
fn old_and_new_agree_on_fuzzed_documents() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    for version in PatternVersion::all() {
        let config = version.config();
        let mut pair = Pair::default();
        let mut fuzzer = SentenceFuzzer::new(7);
        for id in 0..2000 {
            let doc = annotate(id, &fuzzer.document(), &kb, &lexicon);
            pair.compare(&[doc], &kb, &config);
        }
        // The comparison is of something: sentences that yield, sentences
        // that are skipped, and sentences that are neither.
        let skipped = pair.new_counts.skipped;
        assert!(pair.yielding > 500, "{version:?}: {}", pair.yielding);
        assert!(skipped > 200, "{version:?}: {skipped}");
        assert!(pair.sentences - skipped > pair.yielding, "{version:?}");
    }
}

#[test]
fn old_and_new_agree_on_hand_written_documents() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    let docs: Vec<AnnotatedDocument> = [
        "",
        "Chicago.",
        "big.",
        "Chicago is big. Chicago is not big! Is Chicago big?",
        "Soccer is a fast, cheap and exciting sport. Soccer is fast and fast.",
        "I don't think that snakes are never dangerous.",
        "southern France is big in the summer. France is cheap for tourists.",
        "I find kittens cute. Chicago seems big. Chicago is considered big.",
        "Chicago is a city that is not very big.",
        "Snakes are dangerous animals and kittens are cute creatures.",
        "I love the cute kitten and the big fox.",
        "Phoenix is a big city. Phoenix is big. I saw the dangerous Phoenix at the zoo.",
        "AΣ is big. ΟΔΟΣ ΑΘΗΝΑΣ is ωραίος. Москва is not élégant.",
        "The weather is big. It is what it is.",
    ]
    .iter()
    .enumerate()
    .map(|(id, text)| annotate(id as u64, text, &kb, &lexicon))
    .collect();
    for version in PatternVersion::all() {
        Pair::default().compare(&docs, &kb, &version.config());
    }
}

/// Shards of a preset world's corpus, annotated, up to 2,000 documents.
fn preset_documents(world: World) -> (Arc<KnowledgeBase>, Vec<AnnotatedDocument>) {
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(world, CorpusConfig::default());
    let lexicon = generator.lexicon();
    let mut docs = Vec::new();
    for shard in 0..generator.config().num_shards {
        docs.extend(generator.shard_annotated(shard, &lexicon, None));
        if docs.len() >= 2000 {
            break;
        }
    }
    (kb, docs)
}

#[test]
fn old_and_new_agree_on_every_preset_world() {
    let worlds = [
        ("cities", presets::big_cities_world(5)),
        ("table2", presets::table2_world(2015)),
        ("countries", presets::wealthy_countries_world(3)),
        ("lakes", presets::big_lakes_world(3)),
        ("mountains", presets::high_mountains_world(3)),
        ("long tail", presets::long_tail_world(12, 40, 8, 9)),
        ("regional", presets::regional_generator(4).world().clone()),
    ];
    for (name, world) in worlds {
        let (kb, docs) = preset_documents(world);
        assert!(docs.len() > 100, "{name}: {} documents", docs.len());
        for version in PatternVersion::all() {
            let mut pair = Pair::default();
            pair.compare(&docs, &kb, &version.config());
            assert!(pair.yielding > 0, "{name} {version:?}");
        }
    }
}
