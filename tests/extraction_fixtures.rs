//! Data-driven extraction fixtures: a battery of sentences with expected
//! (entity, property, polarity) extractions under the shipped V4
//! configuration. One fixture per linguistic phenomenon; the table format
//! keeps additions cheap as the parser grows.

use surveyor::extract::{extract_sentence, ExtractionConfig, Polarity};
use surveyor::nlp::{annotate, Lexicon};
use surveyor::prelude::*;

/// Semicolon-separated expectations: `+name:prop` = expected positive,
/// `-name:prop` = expected negative (names may contain spaces); an empty
/// expectation string means the sentence must yield nothing.
const FIXTURES: &[(&str, &str)] = &[
    // --- adjectival complement (Fig. 4b) ---
    ("Chicago is big.", "+Chicago:big"),
    ("Chicago is very big.", "+Chicago:very big"),
    ("Chicago is really very big.", "+Chicago:really very big"),
    ("Snakes are dangerous.", "+Snake:dangerous"),
    ("I think that Chicago is big.", "+Chicago:big"),
    ("I think Chicago is big.", "+Chicago:big"),
    ("Everyone says Chicago is big.", "+Chicago:big"),
    // --- adjectival modifier via predicate nominal (Fig. 4a + coref) ---
    ("Snakes are dangerous animals.", "+Snake:dangerous"),
    ("Chicago is a big city.", "+Chicago:big"),
    ("Chicago is a very big city.", "+Chicago:very big"),
    ("Greece is a southern country.", "+Greece:southern"),
    ("Kittens are cute animals.", "+Kitten:cute"),
    // --- attributive object position ---
    ("I love the cute Kitten.", "+Kitten:cute"),
    ("We saw the big Chicago.", "+Chicago:big"),
    // --- conjunction (Fig. 4c) ---
    (
        "Soccer is fast and exciting.",
        "+Soccer:fast; +Soccer:exciting",
    ),
    (
        "Soccer is a fast and exciting sport.",
        "+Soccer:fast; +Soccer:exciting",
    ),
    (
        "Soccer is a fast, cheap and exciting sport.",
        "+Soccer:fast; +Soccer:cheap; +Soccer:exciting",
    ),
    // --- negation (Fig. 5) ---
    ("Chicago is not big.", "-Chicago:big"),
    ("Chicago isn't big.", "-Chicago:big"),
    ("Chicago is never big.", "-Chicago:big"),
    ("Chicago is not a big city.", "-Chicago:big"),
    ("I don't think that Chicago is big.", "-Chicago:big"),
    ("I do not believe Chicago is big.", "-Chicago:big"),
    ("I don't think Snakes are dangerous.", "-Snake:dangerous"),
    // --- double negation cancels ---
    (
        "I don't think that Snakes are never dangerous.",
        "+Snake:dangerous",
    ),
    ("I do not believe Chicago is never big.", "+Chicago:big"),
    // --- relative clauses ---
    ("Chicago is a city that is big.", "+Chicago:big"),
    ("Chicago is a city that is very big.", "+Chicago:very big"),
    ("Chicago is a city that is not big.", "-Chicago:big"),
    // --- intrinsicness filters reject (checks on) ---
    ("New York is bad for parking.", ""),
    ("Chicago is good for tourists.", ""),
    ("southern France is warm in the summer.", ""),
    ("northern Greece is cold in the winter.", ""),
    // --- extended verb class is V1/V2-only, so V4 rejects ---
    ("I find Kittens cute.", ""),
    ("Chicago seems big.", ""),
    ("Chicago is considered big.", ""),
    // --- plural and lemmatized mentions ---
    ("Grizzly bears are dangerous.", "+Grizzly bear:dangerous"),
    (
        "Grizzly bears are dangerous animals.",
        "+Grizzly bear:dangerous",
    ),
    // --- multiword and alias mentions ---
    ("San Francisco is a big city.", "+San Francisco:big"),
    ("SF is big.", "+San Francisco:big"),
    // --- sentences that must yield nothing ---
    ("The weather is nice.", ""),
    ("I visited Chicago during the summer.", ""),
    ("People love Soccer.", ""),
    ("Chicago is in the north.", ""),
    ("The weather in Chicago is bad.", ""),
    // punctuation / fragments stay safe
    ("Chicago, big and loud.", ""),
    ("big", ""),
    ("Is Chicago big?", "+Chicago:big"),
];

fn kb() -> KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    let country = b.add_type("country", &["country"], &[]);
    let sport = b.add_type("sport", &["sport"], &[]);
    b.add_entity("Snake", animal).finish();
    b.add_entity("Kitten", animal).finish();
    b.add_entity("Grizzly bear", animal).finish();
    b.add_entity("Chicago", city).finish();
    b.add_entity("New York", city).finish();
    b.add_entity("San Francisco", city).alias("SF").finish();
    b.add_entity("Greece", country).finish();
    b.add_entity("France", country).finish();
    b.add_entity("Soccer", sport).finish();
    b.build()
}

fn parse_expectation(spec: &str) -> Vec<(String, String, Polarity)> {
    spec.split(';')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| {
            let (sign, rest) = item.split_at(1);
            let (entity, property) = rest.split_once(':').expect("entity:property");
            let polarity = match sign {
                "+" => Polarity::Positive,
                "-" => Polarity::Negative,
                other => panic!("bad polarity sign {other}"),
            };
            (entity.to_owned(), property.to_owned(), polarity)
        })
        .collect()
}

#[test]
fn fixture_battery_v4() {
    let kb = kb();
    let lexicon = Lexicon::new();
    let config = ExtractionConfig::paper_final();
    let mut failures = Vec::new();
    for (sentence, expectation) in FIXTURES {
        let doc = annotate(0, sentence, &kb, &lexicon);
        let mut got: Vec<(String, String, Polarity)> = doc
            .sentences
            .iter()
            .flat_map(|s| extract_sentence(s, &kb, &config))
            .map(|st| {
                (
                    kb.entity(st.entity).name().to_owned(),
                    st.property.resolve().to_string(),
                    st.polarity,
                )
            })
            .collect();
        let mut expected = parse_expectation(expectation);
        got.sort();
        expected.sort();
        if got != expected {
            failures.push(format!(
                "  {sentence:?}\n    expected: {expected:?}\n    got:      {got:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} fixture(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_early_out_skips_only_fixtures_that_expect_nothing() {
    // The expectations above were written against an extractor that tried
    // every pattern on every sentence: a sentence the early-out now skips
    // (no mention, or no adjective) must be one of the empty ones, and
    // some empty ones must still go through the patterns.
    use surveyor::extract::{extract_sentence_counted, PatternCounts};
    let kb = kb();
    let lexicon = Lexicon::new();
    let config = ExtractionConfig::paper_final();
    let (mut skipped, mut empty) = (0, 0);
    for (sentence, expectation) in FIXTURES {
        let mut counts = PatternCounts::default();
        for s in &annotate(0, sentence, &kb, &lexicon).sentences {
            extract_sentence_counted(s, &kb, &config, &mut counts);
        }
        assert!(
            counts.skipped == 0 || expectation.is_empty(),
            "skipped {sentence:?}, which expects {expectation:?}"
        );
        skipped += counts.skipped;
        empty += u64::from(expectation.is_empty());
    }
    assert!(skipped >= 3 && skipped < empty, "{skipped} of {empty}");
}

#[test]
fn fixture_sentences_all_parse_to_valid_trees() {
    let kb = kb();
    let lexicon = Lexicon::new();
    for (sentence, _) in FIXTURES {
        let doc = annotate(0, sentence, &kb, &lexicon);
        for s in &doc.sentences {
            s.tree
                .validate()
                .unwrap_or_else(|e| panic!("invalid tree for {sentence:?}: {e}"));
        }
    }
}

#[test]
fn v2_extracts_the_extended_class_fixtures() {
    use surveyor::extract::PatternVersion;
    let kb = kb();
    let lexicon = Lexicon::new();
    let config = PatternVersion::V2.config();
    for (sentence, entity, property) in [
        ("I find Kittens cute.", "Kitten", "cute"),
        ("Chicago seems big.", "Chicago", "big"),
        ("Chicago is considered big.", "Chicago", "big"),
    ] {
        let doc = annotate(0, sentence, &kb, &lexicon);
        let got: Vec<_> = doc
            .sentences
            .iter()
            .flat_map(|s| extract_sentence(s, &kb, &config))
            .collect();
        assert!(
            got.iter().any(|st| kb.entity(st.entity).name() == entity
                && st.property.resolve().to_string() == property
                && st.polarity == Polarity::Positive),
            "V2 missed {sentence:?}: {got:?}"
        );
    }
}
