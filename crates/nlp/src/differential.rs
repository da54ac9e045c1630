//! Old bodies against new, on fuzzed text.
//!
//! `token::reference` and `tagger::reference` hold the tokenizer, the
//! sentence splitter and the entity tagger as they were before the one-pass
//! rewrite. Every document of `surveyor_corpus::fuzz` goes through both:
//! sentence bounds, token spans, lowercase forms, POS tags, trees and
//! mentions must be equal — except on the two inputs where the old
//! tokenizer was wrong, which the comparison names instead of skipping
//! silently (the taggers are compared on the new tokens, so they are
//! compared on those inputs too):
//!
//! - the old tokenizer **panics** on a non-ASCII word whose length minus
//!   three is not a character boundary (`"Москва"`, `"ΟΔΟΣ"`);
//! - the old tokenizer lowers a word-final `Σ` to `σ`, where the knowledge
//!   base (and `str::to_lowercase`) says `ς`.
//!
//! The parser is not part of either rewrite, but its scratch buffers are:
//! `PARSE_GOLDEN` pins every tree of a fixed fuzzer stream to the value the
//! allocating parser produced.

use crate::lexicon::Lexicon;
use crate::parser::{parse, DepTree};
use crate::tagger::{self, tag_entities, Mention};
use crate::token::{self, split_sentence_bounds, tokenize_with, Pos, TokenizedSentence};
use std::panic::{catch_unwind, AssertUnwindSafe};
use surveyor_corpus::fuzz::{fuzz_kb, SentenceFuzzer, ADJECTIVES};
use surveyor_kb::KnowledgeBase;

/// Sentences no grammar draws: empty and degenerate inputs, and the two
/// documented defects in their smallest form.
const HAND_WRITTEN: &[&str] = &[
    "",
    " ",
    "...",
    "?!.",
    "' '' n't N'T 'n't x' 'x",
    "ΟΔΟΣ is big",
    "Москва",
    "я я",
    "東京 is not big",
    "AΣ is big. aς is big. aσ is big",
    "ΣΑΣ ΣΑΣ, ΣΑΣ; Σ",
    "Москваn't Σn't don't DON'T dOn'T",
    "San\u{a0}Francisco\tBay\u{b}is  big",
    "San Francisco Bays are big, San Franciscos are not",
    "The Who are exciting and the whos are not",
    "Phoenix is a big city. Phoenix is big. I saw Phoenix at the zoo downtown",
    "İstanbul İSTANBUL i\u{307}stanbul ǅ ẞ ß",
    "a.b!c?d",
    "\u{2003}leading and trailing\u{2003}.\u{a0}\u{a0}.",
];

/// A core lexicon that also knows every adjective the fuzzer uses.
fn lexicon() -> Lexicon {
    let mut lexicon = Lexicon::new();
    for adjective in ADJECTIVES {
        lexicon.add_adjective(adjective);
    }
    lexicon
}

fn has_non_ascii_word(sentence: &str) -> bool {
    sentence.split_whitespace().any(|word| !word.is_ascii())
}

/// What the comparison of one sentence found.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Old and new agree on every layer.
    Equal,
    /// The reference tokenizer panicked (defect 1); the new one did not.
    ReferencePanicked,
    /// Lowercase forms differ in final sigmas only (defect 2).
    FinalSigma,
}

struct New {
    tokens: TokenizedSentence,
    tree: Option<DepTree>,
    mentions: Vec<Mention>,
}

fn annotate_new(sentence: &str, kb: &KnowledgeBase, lexicon: &Lexicon) -> New {
    let mut tokens = tokenize_with(&mut Vec::new(), sentence);
    lexicon.tag(&mut tokens);
    let tree = parse(&tokens);
    let mentions = tag_entities(&tokens, kb);
    New {
        tokens,
        tree,
        mentions,
    }
}

fn compare_sentence(sentence: &str, kb: &KnowledgeBase, lexicon: &Lexicon) -> Verdict {
    let new = annotate_new(sentence, kb, lexicon);
    if let Some(tree) = &new.tree {
        assert_eq!(tree.validate(), Ok(()), "{sentence:?}");
    }
    // The tagger has no documented difference: on the same tokens, old
    // and new link the same mentions, whatever the tokenizers made of the
    // sentence.
    assert_eq!(
        tagger::reference::tag_entities(&new.tokens, kb),
        new.mentions,
        "mentions of {sentence:?}"
    );

    let old = catch_unwind(AssertUnwindSafe(|| {
        token::reference::tokenize_with(&mut Vec::new(), sentence)
    }));
    let Ok(mut old) = old else {
        assert!(
            has_non_ascii_word(sentence),
            "the reference tokenizer panicked on ASCII: {sentence:?}"
        );
        return Verdict::ReferencePanicked;
    };

    let spans = |t: &TokenizedSentence| t.iter().map(|tok| tok.span()).collect::<Vec<_>>();
    assert_eq!(spans(&old), spans(&new.tokens), "spans of {sentence:?}");
    let lowers = |t: &TokenizedSentence| {
        (0..t.len())
            .map(|i| t.lower_of(i).to_owned())
            .collect::<Vec<_>>()
    };
    let (old_lower, new_lower) = (lowers(&old), lowers(&new.tokens));
    if old_lower != new_lower {
        assert!(sentence.contains('Σ'), "lower forms of {sentence:?}");
        let fold = |forms: &[String]| {
            forms
                .iter()
                .map(|f| f.replace('ς', "σ"))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fold(&old_lower),
            fold(&new_lower),
            "lower forms of {sentence:?} differ beyond final sigma"
        );
        // The new form is the per-word definition of `normalize_surface`.
        for i in 0..new.tokens.len() {
            assert_eq!(
                new.tokens.lower_of(i),
                new.tokens.text_of(i).to_lowercase(),
                "{sentence:?}"
            );
        }
        return Verdict::FinalSigma;
    }

    lexicon.tag(&mut old);
    assert_eq!(old, new.tokens, "tokens and POS of {sentence:?}");
    assert_eq!(parse(&old), new.tree, "tree of {sentence:?}");
    Verdict::Equal
}

/// Compares one document; returns how many sentences fell under each
/// verdict as `[equal, reference panicked, final sigma]`.
fn compare_document(text: &str, kb: &KnowledgeBase, lexicon: &Lexicon) -> [usize; 3] {
    let (mut old_bounds, mut new_bounds) = (Vec::new(), Vec::new());
    token::reference::split_sentence_bounds(text, &mut old_bounds);
    split_sentence_bounds(text, &mut new_bounds);
    assert_eq!(old_bounds, new_bounds, "sentence bounds of {text:?}");
    let mut tally = [0; 3];
    for (from, to) in new_bounds {
        match compare_sentence(&text[from..to], kb, lexicon) {
            Verdict::Equal => tally[0] += 1,
            Verdict::ReferencePanicked => tally[1] += 1,
            Verdict::FinalSigma => tally[2] += 1,
        }
    }
    tally
}

#[test]
fn old_and_new_agree_on_fuzzed_documents() {
    let (kb, lexicon) = (fuzz_kb(), lexicon());
    let mut tally = [0usize; 3];
    for seed in [1, 2, 3] {
        let mut fuzzer = SentenceFuzzer::new(seed);
        for _ in 0..2500 {
            let counts = compare_document(&fuzzer.document(), &kb, &lexicon);
            for (total, n) in tally.iter_mut().zip(counts) {
                *total += n;
            }
        }
    }
    let [equal, panicked, sigma] = tally;
    // The fuzzer must reach both defects, and must not drown in them.
    assert!(panicked > 100 && sigma > 20, "{tally:?}");
    assert!(equal > 4 * (panicked + sigma), "{tally:?}");
}

#[test]
fn old_and_new_agree_on_hand_written_documents() {
    let (kb, lexicon) = (fuzz_kb(), lexicon());
    for text in HAND_WRITTEN {
        compare_document(text, &kb, &lexicon);
    }
    // The two defects, by name.
    assert_eq!(
        compare_sentence("ΟΔΟΣ is big", &kb, &lexicon),
        Verdict::ReferencePanicked
    );
    assert_eq!(
        compare_sentence("Москва", &kb, &lexicon),
        Verdict::ReferencePanicked
    );
    assert_eq!(
        compare_sentence("AΣ is big", &kb, &lexicon),
        Verdict::FinalSigma
    );
    assert_eq!(compare_sentence("aς is big", &kb, &lexicon), Verdict::Equal);
}

/// FNV-64 over every tree (head and relation of every token) the parser
/// builds for 4,000 fuzzed documents at seed 2015, recorded from the
/// parser as it stood before it drew its work lists from a scratch.
const PARSE_GOLDEN: u64 = 15_134_321_387_631_715_991;

#[test]
fn trees_of_a_fixed_stream_match_the_golden_hash() {
    let lexicon = lexicon();
    let mut fuzzer = SentenceFuzzer::new(2015);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut bounds = Vec::new();
    let mut sentences = 0u64;
    for _ in 0..4000 {
        let text = fuzzer.document();
        bounds.clear();
        split_sentence_bounds(&text, &mut bounds);
        for &(from, to) in &bounds {
            let mut tokens = tokenize_with(&mut Vec::new(), &text[from..to]);
            lexicon.tag(&mut tokens);
            let Some(tree) = parse(&tokens) else {
                continue;
            };
            sentences += 1;
            mix(tree.len() as u64);
            for i in 0..tree.len() {
                mix(tree.head(i).map_or(u64::MAX, |h| h as u64));
                mix(tree.rel(i) as u64);
            }
        }
    }
    assert!(sentences > 8000, "{sentences}");
    assert_eq!(hash, PARSE_GOLDEN, "a tree changed ({sentences} sentences)");
}

#[test]
fn every_pos_reachable_by_the_fuzzer_is_exercised() {
    // A fuzzer that never produced an adjective or a negation would make
    // the comparisons above vacuous.
    let lexicon = lexicon();
    let mut fuzzer = SentenceFuzzer::new(5);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..500 {
        let text = fuzzer.document();
        let mut tokens = tokenize_with(&mut Vec::new(), &text);
        lexicon.tag(&mut tokens);
        seen.extend(tokens.iter().map(|t| t.pos));
    }
    for pos in [
        Pos::Adjective,
        Pos::Adverb,
        Pos::Negation,
        Pos::Copula,
        Pos::ProperNoun,
        Pos::Noun,
        Pos::Punct,
        Pos::Conjunction,
        Pos::Complementizer,
    ] {
        assert!(seen.contains(&pos), "{pos:?} never tagged");
    }
}
