//! Lexicon-driven part-of-speech tagging.
//!
//! Closed-class function words (copulas, determiners, negations, …) ship
//! built in; open classes (adjectives, adverbs, nouns) combine a core
//! vocabulary with domain words registered by the caller — the corpus
//! generator registers every subjective property it realizes, and the
//! knowledge base contributes its type head nouns. Unknown words fall back
//! to morphology: capitalized ⇒ proper noun, `-ly` ⇒ adverb, else noun.

use crate::token::{Pos, TokenizedSentence};
use rustc_hash::FxHashMap;

/// Copular verbs in the restrictive "to be" set (paper Table 4, V3/V4).
const TO_BE: &[&str] = &["is", "are", "was", "were", "be", "been", "being", "am"];

/// Additional copula-class verbs (paper Table 4, V1/V2 used the full copula
/// class). Tagged as [`Pos::Copula`]; the extractor decides which set a
/// pattern version admits.
const EXTENDED_COPULAS: &[&str] = &[
    "seems", "seem", "seemed", "looks", "look", "looked", "appears", "appear", "appeared", "feels",
    "felt", "stays", "stayed", "remains", "remained",
];

const DETERMINERS: &[&str] = &[
    "a", "an", "the", "this", "that", "these", "those", "some", "any", "every", "each", "no",
];

const NEGATIONS: &[&str] = &["not", "n't", "never", "hardly", "barely", "scarcely"];

const PREPOSITIONS: &[&str] = &[
    "for", "in", "of", "at", "on", "with", "during", "to", "by", "from", "about", "near", "around",
    "under", "over",
];

const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "we",
    "they",
    "he",
    "she",
    "it",
    "everyone",
    "everybody",
    "nobody",
    "people",
];

const CONJUNCTIONS: &[&str] = &["and", "or", "but", "yet"];

const AUXILIARIES: &[&str] = &[
    "do", "does", "did", "would", "will", "can", "could", "may", "might", "should", "must", "ca",
    "wo",
];

/// Verbs of thinking/saying that embed a clause ("I *think* that …").
const EMBEDDING_VERBS: &[&str] = &[
    "think", "thinks", "thought", "believe", "believes", "believed", "say", "says", "said",
    "claim", "claims", "claimed", "feel", "agree", "agrees", "agreed", "doubt", "doubts",
    "doubted", "guess", "suppose", "argue", "argued", "know", "knows", "knew",
];

/// Small-clause verbs ("I *find* kittens cute", "I *consider* it big").
const SMALL_CLAUSE_VERBS: &[&str] = &[
    "find",
    "finds",
    "found",
    "consider",
    "considers",
    "considered",
    "call",
    "calls",
    "called",
    "deem",
    "deems",
    "deemed",
];

/// Other common lexical verbs appearing in corpus filler.
const OTHER_VERBS: &[&str] = &[
    "love", "loves", "loved", "hate", "hates", "hated", "visit", "visited", "like", "likes",
    "liked", "enjoy", "enjoyed", "live", "lives", "lived", "moved", "move", "sleep", "sleeps",
    "slept", "run", "runs", "ran", "saw", "see", "sees", "watch", "watched", "went", "go", "goes",
    "play", "plays", "played", "adore", "adores", "adored",
];

/// Core adjectives always known to the tagger (Table 2 properties plus the
/// empirical-study properties and common corpus adjectives).
const CORE_ADJECTIVES: &[&str] = &[
    "big",
    "small",
    "cute",
    "ugly",
    "safe",
    "dangerous",
    "friendly",
    "deadly",
    "cool",
    "crazy",
    "pretty",
    "quiet",
    "young",
    "old",
    "calm",
    "cheap",
    "expensive",
    "hectic",
    "multicultural",
    "exciting",
    "rare",
    "solid",
    "vital",
    "addictive",
    "boring",
    "fast",
    "slow",
    "popular",
    "wealthy",
    "poor",
    "high",
    "low",
    "warm",
    "cold",
    "nice",
    "bad",
    "good",
    "great",
    "beautiful",
    "southern",
    "northern",
    "eastern",
    "western",
    "american",
    "populated",
    "crowded",
    "major",
    "obscure",
    "famous",
    "fragile",
    "robust",
    "ancient",
    "modern",
    "dull",
    "complex",
    "simple",
    "valuable",
    "harmless",
    "loud",
    "weird",
    "elegant",
    "remote",
    "common",
    "brittle",
    "vivid",
    "gloomy",
    "tiny",
    "huge",
];

/// Core adverbs (degree modifiers that form adverb-qualified properties).
const CORE_ADVERBS: &[&str] = &[
    "very",
    "really",
    "quite",
    "extremely",
    "rather",
    "so",
    "too",
    "incredibly",
    "fairly",
    "densely",
    "sparsely",
    "truly",
    "remarkably",
    "surprisingly",
    "pretty",
];

/// Core common nouns appearing in corpus templates and filters.
const CORE_NOUNS: &[&str] = &[
    "city",
    "cities",
    "town",
    "towns",
    "animal",
    "animals",
    "creature",
    "creatures",
    "country",
    "countries",
    "nation",
    "nations",
    "lake",
    "lakes",
    "mountain",
    "mountains",
    "peak",
    "peaks",
    "celebrity",
    "celebrities",
    "star",
    "stars",
    "profession",
    "professions",
    "job",
    "jobs",
    "sport",
    "sports",
    "game",
    "games",
    "place",
    "places",
    "parking",
    "summer",
    "winter",
    "families",
    "family",
    "tourists",
    "tourist",
    "weather",
    "food",
    "traffic",
    "nightlife",
    "beginners",
    "beginner",
    "children",
    "kids",
    "business",
    "weekend",
    "weekends",
    "opinion",
    "opinions",
    "part",
    "parts",
    "north",
    "south",
    "east",
    "west",
    "person",
    "people",
];

/// Whether `word` (lowercase) is a clause-embedding verb, without needing a
/// built [`Lexicon`]. Used by the parser on its hot path.
pub(crate) fn is_embedding_verb_word(word: &str) -> bool {
    EMBEDDING_VERBS.contains(&word)
}

/// Whether `word` (lowercase) is a small-clause verb (`find`, `consider`).
pub(crate) fn is_small_clause_verb_word(word: &str) -> bool {
    SMALL_CLAUSE_VERBS.contains(&word)
}

/// Whether `word` (lowercase) is one of the restrictive "to be" copulas,
/// the verb set a V3/V4 pattern admits.
#[inline]
pub fn is_to_be_word(word: &str) -> bool {
    TO_BE.contains(&word)
}

/// A part-of-speech lexicon.
///
/// Lookup priority: closed-class words, then registered open-class
/// vocabulary, then morphology. A word registered in several classes
/// resolves closed-class first (so `pretty` the adverb in "pretty big"
/// requires context handled by the tagger's adjacency rule — see
/// [`Lexicon::tag`]).
#[derive(Debug, Clone)]
pub struct Lexicon {
    map: FxHashMap<String, Pos>,
}

impl Lexicon {
    /// Builds the core lexicon.
    pub fn new() -> Self {
        let mut map = FxHashMap::default();
        let mut insert_all = |words: &[&str], pos: Pos| {
            for &w in words {
                map.insert(w.to_owned(), pos);
            }
        };
        // Open classes first so closed classes win conflicts below.
        insert_all(CORE_NOUNS, Pos::Noun);
        insert_all(CORE_ADVERBS, Pos::Adverb);
        // Adjectives are inserted after adverbs: a word in both classes
        // ("pretty") defaults to the adjective reading, and the contextual
        // repair in `tag` demotes it to adverb before another adjective.
        insert_all(CORE_ADJECTIVES, Pos::Adjective);
        insert_all(OTHER_VERBS, Pos::Verb);
        insert_all(EMBEDDING_VERBS, Pos::Verb);
        insert_all(SMALL_CLAUSE_VERBS, Pos::Verb);
        insert_all(TO_BE, Pos::Copula);
        insert_all(EXTENDED_COPULAS, Pos::Copula);
        insert_all(DETERMINERS, Pos::Determiner);
        insert_all(NEGATIONS, Pos::Negation);
        insert_all(PREPOSITIONS, Pos::Preposition);
        insert_all(PRONOUNS, Pos::Pronoun);
        insert_all(CONJUNCTIONS, Pos::Conjunction);
        insert_all(AUXILIARIES, Pos::Aux);
        // "that" defaults to complementizer; the parser reinterprets it as a
        // determiner when followed by a noun.
        map.insert("that".to_owned(), Pos::Complementizer);
        Self { map }
    }

    /// Registers an adjective (e.g. a subjective property head).
    pub fn add_adjective(&mut self, word: &str) {
        self.insert_open(word, Pos::Adjective);
    }

    /// Registers an adverb.
    pub fn add_adverb(&mut self, word: &str) {
        self.insert_open(word, Pos::Adverb);
    }

    /// Registers a common noun (e.g. a knowledge-base type head noun).
    pub fn add_noun(&mut self, word: &str) {
        self.insert_open(word, Pos::Noun);
    }

    fn insert_open(&mut self, word: &str, pos: Pos) {
        let w = word.to_lowercase();
        // Never shadow closed-class words.
        let existing = self.map.get(&w);
        if matches!(
            existing,
            Some(
                Pos::Copula
                    | Pos::Determiner
                    | Pos::Negation
                    | Pos::Preposition
                    | Pos::Pronoun
                    | Pos::Conjunction
                    | Pos::Aux
                    | Pos::Complementizer
            )
        ) {
            return;
        }
        self.map.insert(w, pos);
    }

    /// Looks up the lexical tag of a lowercase word, if registered.
    pub fn lookup(&self, lower: &str) -> Option<Pos> {
        self.map.get(lower).copied()
    }

    /// Tags a token sequence in place.
    ///
    /// Lexicon lookup first; morphology fallback (capitalized mid-sentence ⇒
    /// proper noun; `-ly` ⇒ adverb; else common noun); then two contextual
    /// repairs:
    /// - a word tagged `Adjective` that directly precedes another adjective
    ///   and is also a core adverb ("pretty big") becomes `Adverb`;
    /// - sentence-initial capitalized unknown words stay nouns only if not
    ///   known otherwise.
    pub fn tag(&self, tokens: &mut TokenizedSentence) {
        let n = tokens.len();
        for i in 0..n {
            let lower = tokens.lower_of(i);
            let pos = if let Some(p) = self.lookup(lower) {
                p
            } else if !tokens
                .text_of(i)
                .chars()
                .next()
                .is_some_and(char::is_alphanumeric)
            {
                Pos::Punct
            } else if tokens.is_capitalized(i) {
                // Sentence-initial capitalized unknowns too: the lexicon
                // lookup above already tried the lowercase form.
                Pos::ProperNoun
            } else if lower.ends_with("ly") && lower.len() > 3 {
                Pos::Adverb
            } else {
                Pos::Noun
            };
            tokens.tokens[i].pos = pos;
        }
        // Contextual repair: "pretty big" — adjective reading demoted to
        // adverb when immediately followed by an adjective.
        for i in 0..n.saturating_sub(1) {
            if tokens[i].pos == Pos::Adjective
                && tokens[i + 1].pos == Pos::Adjective
                && CORE_ADVERBS.contains(&tokens.lower_of(i))
            {
                tokens.tokens[i].pos = Pos::Adverb;
            }
        }
        // "that" before a nominal is a determiner ("that city is big").
        for i in 0..n.saturating_sub(1) {
            if tokens[i].pos == Pos::Complementizer {
                let mut j = i + 1;
                // Skip adjectives/adverbs inside the NP.
                while j < n && matches!(tokens[j].pos, Pos::Adjective | Pos::Adverb) {
                    j += 1;
                }
                if j < n && j == i + 1 && tokens[j].pos.is_nominal() && i == 0 {
                    tokens.tokens[i].pos = Pos::Determiner;
                }
            }
        }
    }
}

impl Default for Lexicon {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn tag_sentence(s: &str) -> Vec<(String, Pos)> {
        let lex = Lexicon::new();
        let mut toks = tokenize(s);
        lex.tag(&mut toks);
        (0..toks.len())
            .map(|i| (toks.text_of(i).to_owned(), toks[i].pos))
            .collect()
    }

    #[test]
    fn tags_copular_sentence() {
        let tags = tag_sentence("Chicago is very big");
        assert_eq!(tags[0].1, Pos::ProperNoun);
        assert_eq!(tags[1].1, Pos::Copula);
        assert_eq!(tags[2].1, Pos::Adverb);
        assert_eq!(tags[3].1, Pos::Adjective);
    }

    #[test]
    fn tags_negation_and_contraction() {
        let tags = tag_sentence("I don't think that snakes are never dangerous");
        let texts: Vec<&str> = tags.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "I",
                "do",
                "n't",
                "think",
                "that",
                "snakes",
                "are",
                "never",
                "dangerous"
            ]
        );
        assert_eq!(tags[1].1, Pos::Aux);
        assert_eq!(tags[2].1, Pos::Negation);
        assert_eq!(tags[3].1, Pos::Verb);
        assert_eq!(tags[4].1, Pos::Complementizer);
        assert_eq!(tags[7].1, Pos::Negation);
        assert_eq!(tags[8].1, Pos::Adjective);
    }

    #[test]
    fn unknown_capitalized_word_is_proper_noun() {
        let tags = tag_sentence("I visited Oakville yesterday");
        assert_eq!(tags[2].1, Pos::ProperNoun);
    }

    #[test]
    fn unknown_lowercase_word_defaults_to_noun() {
        let tags = tag_sentence("the zorblax is big");
        assert_eq!(tags[1].1, Pos::Noun);
    }

    #[test]
    fn ly_fallback_is_adverb() {
        let tags = tag_sentence("a sparsely populated town");
        assert_eq!(tags[1].1, Pos::Adverb);
    }

    #[test]
    fn pretty_is_adverb_before_adjective() {
        let tags = tag_sentence("Chicago is pretty big");
        assert_eq!(tags[2].1, Pos::Adverb);
        let tags = tag_sentence("Ava Sterling is pretty");
        assert_eq!(tags[3].1, Pos::Adjective);
    }

    #[test]
    fn registered_vocabulary_wins_over_morphology() {
        let mut lex = Lexicon::new();
        lex.add_adjective("zorby");
        let mut toks = tokenize("a zorby cat");
        lex.tag(&mut toks);
        assert_eq!(toks[1].pos, Pos::Adjective);
    }

    #[test]
    fn open_class_cannot_shadow_closed_class() {
        let mut lex = Lexicon::new();
        lex.add_adjective("not");
        assert_eq!(lex.lookup("not"), Some(Pos::Negation));
    }

    #[test]
    fn to_be_and_extended_copulas() {
        let lex = Lexicon::new();
        assert!(is_to_be_word("is") && is_to_be_word("being"));
        assert!(!is_to_be_word("seems"));
        // Both sets tag as copulas; only a pattern tells them apart.
        assert_eq!(lex.lookup("is"), Some(Pos::Copula));
        assert_eq!(lex.lookup("seems"), Some(Pos::Copula));
    }

    #[test]
    fn embedding_and_small_clause_verbs() {
        let lex = Lexicon::new();
        assert!(is_embedding_verb_word("think"));
        assert!(is_small_clause_verb_word("find"));
        assert!(!is_embedding_verb_word("love"));
        assert!(!is_small_clause_verb_word("think"));
        // Both are verbs to the tagger.
        assert_eq!(lex.lookup("think"), Some(Pos::Verb));
        assert_eq!(lex.lookup("find"), Some(Pos::Verb));
    }

    #[test]
    fn punctuation_is_tagged_punct() {
        let tags = tag_sentence("big , bad");
        assert_eq!(tags[1].1, Pos::Punct);
    }
}
