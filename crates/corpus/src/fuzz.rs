//! A grammar-based sentence fuzzer: the realization templates of
//! [`crate::templates`] crossed with the perturbations Web text applies to
//! them.
//!
//! The corpus generator only ever emits clean ASCII sentences, which is what
//! the NLP and extraction stacks are tuned on — and why their rewrites need
//! a wider net. [`SentenceFuzzer`] draws a base sentence from the grammar
//! (every [`Realizer`] construction plus conjunctions, questions and cued
//! ambiguous names), names its entity by a random surface form of
//! [`fuzz_kb`] — a knowledge base built around the entity linker's corners:
//! names that share a first token, names that contain one another, plural
//! and determiner-led names, names two entities share, names in Greek,
//! Cyrillic, CJK and mixed script — and then perturbs the text: case, extra
//! negations and filler adverbs, contractions, stacked punctuation, foreign
//! and degenerate words, and separators other than a space.
//!
//! Everything is a function of the seed, so a failing case is reproducible
//! from its index. The differential tests of `surveyor-nlp` and
//! `surveyor-extract` drive old and new implementations with it; the
//! metamorphic laws of `surveyor-extract` use its word lists.

use crate::templates::{pluralize, Realizer, SentenceBuf};
use surveyor_kb::{KnowledgeBase, KnowledgeBaseBuilder};
use surveyor_prob::Rng;

/// Adjectives the fuzzer uses as properties. A core lexicon lacks three
/// (`zorby`, `élégant`, `ωραίος`): a test that tags the fuzzer's text adds
/// every one of these to its lexicon first. (A word list, not a lexicon:
/// this module's API names no `surveyor-nlp` type, so that crate's own unit
/// tests can use it.)
pub const ADJECTIVES: &[&str] = &[
    "big",
    "cute",
    "dangerous",
    "fast",
    "exciting",
    "southern",
    "pretty",
    "cheap",
    "zorby",
    "élégant",
    "ωραίος",
];

/// Degree adverbs that qualify a property without negating it.
pub const FILLER_ADVERBS: &[&str] = &["very", "really", "quite", "extremely", "truly"];

/// Words no lexicon lists as an adjective, standing where a property would.
pub const NON_ADJECTIVES: &[&str] = &["zorb", "quickly", "table", "Москва", "xyzzy", "the"];

/// Words dropped into a sentence at random: scripts whose letters are two
/// and three bytes wide, final-sigma words, letters whose lowering changes
/// length, bare contractions and apostrophes.
const FOREIGN_WORDS: &[&str] = &[
    "ΟΔΟΣ",
    "ΑΘΗΝΑΣ",
    "Σ",
    "ς",
    "aΣ",
    "ΣΑΣ",
    "Москва",
    "МОСКВА",
    "я",
    "東京",
    "東京都",
    "ñandú",
    "ÅNGSTRÖM",
    "İ",
    "ǅ",
    "ẞ",
    "n't",
    "N'T",
    "'",
    "''",
    "can't",
    "WON'T",
    "Σn't",
    "Москваn't",
    "x'",
    "'tis",
    "42",
    "a1b2",
];

/// Punctuation glued to the end of a word.
const TRAILING_PUNCTUATION: &[&str] = &[
    ",", ",,", ";", ":", ")", "\"", "'", "...", "!", "?!", "!!", "—", "»", ")),", "?",
];

/// Punctuation glued to the start of a word.
const LEADING_PUNCTUATION: &[&str] = &["(", "\"", "'", "((", "«", "¿", "-", "'("];

/// What may stand where a single space stood.
const SEPARATORS: &[&str] = &[
    "  ",
    "\t",
    "\u{b}",
    "\u{a0}",
    " \t ",
    "\u{2003}",
    "\n",
    "\u{a0}\u{a0}",
];

/// Entity types of [`fuzz_kb`] as `(name, head nouns, context cues,
/// plural subjects read naturally)`.
const TYPES: &[(&str, &[&str], &[&str], bool)] = &[
    ("city", &["city", "town"], &["downtown", "mayor"], false),
    (
        "animal",
        &["animal", "creature"],
        &["zoo", "wildlife"],
        true,
    ),
    ("sport", &["sport", "game"], &["stadium"], false),
    ("country", &["country", "nation"], &["border"], false),
];

/// Entities of [`fuzz_kb`] as `(name, type index, aliases)`.
const ENTITIES: &[(&str, usize, &[&str])] = &[
    // Shared first tokens, names inside names.
    ("San Francisco", 0, &["SF", "Frisco"]),
    ("San Jose", 0, &[]),
    ("San", 0, &[]),
    ("San Francisco Bay", 0, &["The Bay"]),
    ("New York", 0, &["New York City", "NYC"]),
    ("York", 0, &[]),
    ("Chicago", 0, &[]),
    // One name, two entities: resolved by a cue or dropped.
    ("Phoenix", 0, &[]),
    ("Phoenix Bird", 1, &["Phoenix"]),
    ("Georgia", 3, &[]),
    ("Georgia", 0, &[]),
    // Plurals: regular, sibilant, `-ies`, multi-word, plural by name,
    // words that only look plural.
    ("Snake", 1, &[]),
    ("Kitten", 1, &["Kitty"]),
    ("Fox", 1, &[]),
    ("Poppy", 1, &[]),
    ("Grizzly bear", 1, &["Grizzly"]),
    ("Glass Frog", 1, &[]),
    ("Walrus", 1, &[]),
    ("Bass", 1, &[]),
    ("Giants", 2, &[]),
    ("Giant", 1, &[]),
    ("Red Sox", 2, &["Sox"]),
    // A determiner-led name.
    ("The Who", 2, &["Who"]),
    ("Soccer", 2, &[]),
    ("Chess", 2, &[]),
    ("France", 3, &[]),
    ("Greece", 3, &["Hellas"]),
    // Non-ASCII names: final sigma, two- and three-byte letters, a
    // lowering that grows.
    ("AΣ", 0, &[]),
    ("ΟΔΟΣ ΑΘΗΝΑΣ", 0, &["ΟΔΟΣ"]),
    ("Москва", 0, &["Moskva"]),
    ("東京", 0, &["Tokyo"]),
    ("Łódź", 0, &[]),
    ("São Paulo", 0, &["Sampa"]),
    ("İstanbul", 0, &[]),
];

/// The fuzzer's knowledge base (see the module documentation).
pub fn fuzz_kb() -> KnowledgeBase {
    let mut builder = KnowledgeBaseBuilder::new();
    let types: Vec<_> = TYPES
        .iter()
        .map(|(name, heads, cues, _)| builder.add_type(name, heads, cues))
        .collect();
    for (name, type_index, aliases) in ENTITIES {
        let mut entity = builder.add_entity(name, types[*type_index]);
        for alias in *aliases {
            entity = entity.alias(alias);
        }
        entity.finish();
    }
    builder.build()
}

/// A seeded stream of perturbed documents over [`fuzz_kb`].
#[derive(Debug, Clone)]
pub struct SentenceFuzzer {
    rng: Rng,
    realizers: Vec<Realizer>,
}

impl SentenceFuzzer {
    /// A fuzzer whose whole output is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            realizers: TYPES
                .iter()
                .map(|(_, heads, _, plural_ok)| Realizer::new(heads[0], *plural_ok))
                .collect(),
        }
    }

    fn pick<'a>(&mut self, words: &[&'a str]) -> &'a str {
        self.rng.choose(words).copied().unwrap_or_default()
    }

    /// A surface form of a random entity — canonical name or alias,
    /// sometimes pluralized — and the index of the entity's type.
    pub fn entity_surface(&mut self) -> (String, usize) {
        let (name, type_index, aliases) = ENTITIES[self.rng.below(ENTITIES.len())];
        let form = match self.rng.below(aliases.len() + 1) {
            0 => name,
            n => aliases[n - 1],
        };
        let form = if self.rng.chance(0.15) {
            pluralize(form)
        } else {
            form.to_owned()
        };
        (form, type_index)
    }

    /// A property: an adjective of [`ADJECTIVES`], sometimes under an
    /// adverb.
    pub fn property(&mut self) -> String {
        let adjective = self.pick(ADJECTIVES);
        if self.rng.chance(0.25) {
            format!("{} {adjective}", self.pick(FILLER_ADVERBS))
        } else {
            adjective.to_owned()
        }
    }

    /// One unperturbed sentence of the grammar, terminator included.
    pub fn base_sentence(&mut self) -> String {
        let (entity, type_index) = self.entity_surface();
        let property = self.property();
        let realizer = &self.realizers[type_index];
        let noun = TYPES[type_index].1[0];
        let rng = &mut self.rng;
        let mut buf = SentenceBuf::new();
        match rng.below(16) {
            0..=6 => {
                let positive = rng.chance(0.6);
                realizer.statement_into(rng, &entity, &property, positive, 0.15, 0.15, &mut buf);
            }
            7 => realizer.aspect_noise_into(rng, &entity, &mut buf),
            8 => realizer.part_of_noise_into(rng, &entity, &mut buf),
            9 => realizer.filler_into(rng, &entity, &mut buf),
            10 => {
                let second = ADJECTIVES[rng.below(ADJECTIVES.len())];
                return format!("{entity} is {property} and {second}.");
            }
            11 => {
                let second = ADJECTIVES[rng.below(ADJECTIVES.len())];
                let third = ADJECTIVES[rng.below(ADJECTIVES.len())];
                return format!("{entity} is a {property}, {second} and {third} {noun}.");
            }
            12 => return format!("Are {} {property}?", pluralize(&entity)),
            13 => {
                let cues = TYPES[type_index].2;
                let cue = cues[rng.below(cues.len())];
                return format!("Everyone says {entity} is {property} near the {cue}.");
            }
            14 => return format!("I saw {entity} at the zoo and it was not {property}!"),
            _ => return format!("{entity} is not a {property} {noun} for tourists."),
        }
        buf.sentence(0).to_owned()
    }

    /// A document of one to four perturbed sentences.
    pub fn document(&mut self) -> String {
        let mut text = String::new();
        for _ in 0..1 + self.rng.below(4) {
            let sentence = self.base_sentence();
            let sentence = self.perturb(&sentence);
            if !text.is_empty() {
                text.push_str(self.pick(&[" ", "  ", "\n", ""]));
            }
            text.push_str(&sentence);
        }
        text
    }

    /// Applies each perturbation with its own probability; most sentences
    /// take one or two, some none.
    fn perturb(&mut self, sentence: &str) -> String {
        let mut words: Vec<String> = sentence.split(' ').map(str::to_owned).collect();
        if self.rng.chance(0.25) {
            contract(&mut words);
        }
        if self.rng.chance(0.15) {
            let negation = self.pick(&["not", "never", "hardly", "n't"]);
            self.insert_after_copula(&mut words, negation);
        }
        if self.rng.chance(0.2) {
            let adverb = self.pick(FILLER_ADVERBS);
            self.insert_after_copula(&mut words, adverb);
        }
        if self.rng.chance(0.2) {
            let at = self.rng.below(words.len() + 1);
            words.insert(at, self.pick(FOREIGN_WORDS).to_owned());
        }
        if self.rng.chance(0.2) {
            let at = self.rng.below(words.len());
            words[at].push_str(self.pick(TRAILING_PUNCTUATION));
        }
        if self.rng.chance(0.1) {
            let at = self.rng.below(words.len());
            words[at].insert_str(0, self.pick(LEADING_PUNCTUATION));
        }
        match self.rng.below(12) {
            0 => words.iter_mut().for_each(|w| *w = w.to_uppercase()),
            1 => words.iter_mut().for_each(|w| *w = w.to_lowercase()),
            2 => {
                let at = self.rng.below(words.len());
                words[at] = words[at].to_uppercase();
            }
            3 => words.iter_mut().for_each(|w| *w = title_case(w)),
            _ => {}
        }
        let mut text = String::new();
        for (i, word) in words.iter().enumerate() {
            if i > 0 {
                if self.rng.chance(0.08) {
                    text.push_str(self.pick(SEPARATORS));
                } else {
                    text.push(' ');
                }
            }
            text.push_str(word);
        }
        text
    }

    /// Inserts `word` after the first copula, or at a random position when
    /// the sentence has none.
    fn insert_after_copula(&mut self, words: &mut Vec<String>, word: &str) {
        let at = words
            .iter()
            .position(|w| matches!(w.as_str(), "is" | "are" | "seems" | "was"))
            .map_or_else(|| self.rng.below(words.len() + 1), |at| at + 1);
        words.insert(at, word.to_owned());
    }
}

/// Rewrites the first `<verb> not` as its contraction, or expands the first
/// `n't`.
fn contract(words: &mut Vec<String>) {
    if let Some(at) = words.iter().position(|w| w == "not") {
        if at > 0 && matches!(words[at - 1].as_str(), "is" | "are" | "do" | "does") {
            words[at - 1].push_str("n't");
            words.remove(at);
        }
    } else if let Some(at) = words.iter().position(|w| w.ends_with("n't") && w.len() > 3) {
        let stem = words[at].len() - 3;
        words[at].truncate(stem);
        words.insert(at + 1, "not".to_owned());
    }
}

/// `word` lowered as a word, then its first character in upper case
/// (`"ΟΔΟΣ"` → `"Οδος"`, final sigma and all).
pub fn title_case(word: &str) -> String {
    let lower = word.to_lowercase();
    let mut chars = lower.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let mut a = SentenceFuzzer::new(11);
        let mut b = SentenceFuzzer::new(11);
        let mut c = SentenceFuzzer::new(12);
        let docs = |f: &mut SentenceFuzzer| (0..50).map(|_| f.document()).collect::<Vec<_>>();
        let (a, b, c) = (docs(&mut a), docs(&mut b), docs(&mut c));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_stream_covers_the_perturbations() {
        let mut fuzzer = SentenceFuzzer::new(3);
        let text: String = (0..2000).map(|_| fuzzer.document() + "\n").collect();
        for needle in [
            "\t",
            "\u{b}",
            "\u{a0}",
            "n't",
            "N'T",
            "ΟΔΟΣ",
            "Москва",
            "東京",
            "aΣ",
            "!!",
            "((",
            "never",
            "very",
            " and ",
            "zoo",
            "Phoenix",
            "SAN FRANCISCO",
            "san francisco",
            "Foxes",
            "Poppies",
            "Grizzly bears",
        ] {
            assert!(text.contains(needle), "no {needle:?} in 2000 documents");
        }
        assert!(!text.is_ascii());
    }

    #[test]
    fn the_kb_holds_the_linker_corners() {
        let kb = fuzz_kb();
        assert_eq!(kb.len(), ENTITIES.len());
        assert_eq!(kb.max_alias_tokens(), 3);
        assert!(kb.is_ambiguous("phoenix"));
        assert!(kb.is_ambiguous("georgia"));
        assert!(kb.entity_by_name("aς").is_some(), "final sigma, per word");
        assert!(kb.entity_by_name("san francisco bay").is_some());
    }

    #[test]
    fn title_case_lowers_the_tail() {
        assert_eq!(title_case("sAN"), "San");
        assert_eq!(title_case("ΟΔΟΣ"), "Οδος");
        assert_eq!(title_case(""), "");
    }
}
