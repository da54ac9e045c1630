//! Metamorphic laws of extraction: how the statements of a sentence must
//! change — or must not — when the sentence is rewritten in a known way.
//! Unlike the differential tests these need no reference implementation:
//! they hold for any correct tokenizer, parser and pattern matcher.
//!
//! 1. A filler adverb never flips polarity (it only qualifies the
//!    property).
//! 2. Two negations on different clauses cancel; one flips (Figure 5).
//! 3. A sentence with no lexicon adjective yields no statement.

mod common;

use common::fuzz_lexicon;
use surveyor_corpus::fuzz::{fuzz_kb, SentenceFuzzer, ADJECTIVES, FILLER_ADVERBS, NON_ADJECTIVES};
use surveyor_extract::{extract_sentence, PatternVersion, Polarity};
use surveyor_kb::{EntityId, KnowledgeBase};
use surveyor_nlp::{annotate, Lexicon, Pos};

/// `(surface form, head noun of its type)`: unambiguous names of the
/// fuzzer's knowledge base, ASCII and not, one word and several.
const SUBJECTS: &[(&str, &str)] = &[
    ("Chicago", "city"),
    ("San Francisco", "city"),
    ("SF", "city"),
    ("Snake", "animal"),
    ("Grizzly bear", "animal"),
    ("Soccer", "sport"),
    ("France", "country"),
    ("Москва", "city"),
    ("AΣ", "city"),
    ("ΟΔΟΣ ΑΘΗΝΑΣ", "town"),
];

/// Sentence frames over `{E}` (entity), `{P}` (property) and `{N}` (head
/// noun), with the polarity the paper's rule assigns each.
const FRAMES: &[(&str, Polarity)] = &[
    ("{E} is {P}.", Polarity::Positive),
    ("{E} is not {P}.", Polarity::Negative),
    ("{E} isn't {P}.", Polarity::Negative),
    ("{E} is never {P}.", Polarity::Negative),
    ("{E} is a {P} {N}.", Polarity::Positive),
    ("{E} is not a {P} {N}.", Polarity::Negative),
    ("{E} is a {N} that is {P}.", Polarity::Positive),
    ("{E} is a {N} that is not {P}.", Polarity::Negative),
    ("I think that {E} is {P}.", Polarity::Positive),
    ("I don't think that {E} is {P}.", Polarity::Negative),
    ("I do not believe {E} is {P}.", Polarity::Negative),
    ("I think that {E} is never {P}.", Polarity::Negative),
    ("I don't think that {E} is never {P}.", Polarity::Positive),
    ("I do not believe {E} is not {P}.", Polarity::Positive),
    ("I love the {P} {E}.", Polarity::Positive),
    ("We saw the {P} {E}.", Polarity::Positive),
];

fn render(frame: &str, entity: &str, property: &str, noun: &str) -> String {
    frame
        .replace("{E}", entity)
        .replace("{P}", property)
        .replace("{N}", noun)
}

/// `(entity, property surface, polarity)` of every statement of `text`
/// under the shipped configuration.
fn statements(
    text: &str,
    kb: &KnowledgeBase,
    lexicon: &Lexicon,
) -> Vec<(EntityId, String, Polarity)> {
    let config = PatternVersion::V4.config();
    annotate(0, text, kb, lexicon)
        .sentences
        .iter()
        .flat_map(|sentence| extract_sentence(sentence, kb, &config))
        .map(|s| (s.entity, s.property.resolve().to_string(), s.polarity))
        .collect()
}

#[test]
fn frames_extract_the_polarity_the_rule_assigns() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    for (frame, polarity) in FRAMES {
        for (entity, noun) in SUBJECTS {
            for adjective in ADJECTIVES {
                let text = render(frame, entity, adjective, noun);
                let found = statements(&text, &kb, &lexicon);
                assert_eq!(found.len(), 1, "{text:?}: {found:?}");
                assert_eq!(Some(found[0].0), kb.entity_by_name(entity), "{text:?}");
                assert_eq!(found[0].1, adjective.to_lowercase(), "{text:?}");
                assert_eq!(found[0].2, *polarity, "{text:?}");
            }
        }
    }
}

#[test]
fn a_filler_adverb_never_flips_polarity() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    for (frame, _) in FRAMES {
        for (entity, noun) in SUBJECTS {
            for adjective in ADJECTIVES {
                let plain = statements(&render(frame, entity, adjective, noun), &kb, &lexicon);
                for adverb in FILLER_ADVERBS {
                    let property = format!("{adverb} {adjective}");
                    let text = render(frame, entity, &property, noun);
                    let qualified = statements(&text, &kb, &lexicon);
                    assert_eq!(qualified.len(), plain.len(), "{text:?}");
                    for (with, without) in qualified.iter().zip(&plain) {
                        assert_eq!(with.0, without.0, "{text:?}");
                        assert_eq!(with.1, format!("{adverb} {}", without.1), "{text:?}");
                        assert_eq!(with.2, without.2, "{text:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn two_negations_cancel_and_one_flips() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    let matrix = [("think", 0), ("don't think", 1), ("do not believe", 1)];
    let embedded = [("is", 0), ("is not", 1), ("isn't", 1), ("is never", 1)];
    for (verb, outer) in matrix {
        for (copula, inner) in embedded {
            for (entity, _) in SUBJECTS {
                let text = format!("I {verb} that {entity} {copula} dangerous.");
                let found = statements(&text, &kb, &lexicon);
                assert_eq!(found.len(), 1, "{text:?}");
                let expected = if (outer + inner) % 2 == 0 {
                    Polarity::Positive
                } else {
                    Polarity::Negative
                };
                assert_eq!(found[0].2, expected, "{text:?}");
            }
        }
    }
}

#[test]
fn no_lexicon_adjective_means_no_statement() {
    let (kb, lexicon) = (fuzz_kb(), fuzz_lexicon());
    // By construction: a word no lexicon lists stands where the property
    // would.
    for (frame, _) in FRAMES {
        for (entity, noun) in SUBJECTS {
            for word in NON_ADJECTIVES {
                let text = render(frame, entity, word, noun);
                assert_eq!(statements(&text, &kb, &lexicon), [], "{text:?}");
            }
        }
    }
    // And by observation, on fuzzed text under every pattern version: a
    // sentence in which nothing was tagged an adjective yields nothing.
    let mut fuzzer = SentenceFuzzer::new(23);
    let mut without_adjective = 0;
    for id in 0..3000 {
        let doc = annotate(id, &fuzzer.document(), &kb, &lexicon);
        for sentence in &doc.sentences {
            if sentence.tokens.iter().any(|t| t.pos == Pos::Adjective) {
                continue;
            }
            without_adjective += 1;
            for version in PatternVersion::all() {
                let found = extract_sentence(sentence, &kb, &version.config());
                assert!(found.is_empty(), "{:?}", sentence.tokens.sentence());
            }
        }
    }
    assert!(without_adjective > 300, "{without_adjective}");
}
