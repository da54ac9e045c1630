//! Sentence realization: turning abstract statements into English text.
//!
//! Every realized sentence is designed to round-trip through the NLP
//! pipeline: the dependency parser recognizes the construction, the entity
//! tagger links the mention, and the extraction patterns recover the
//! statement with the intended polarity. Some constructions are
//! intentionally *only* recoverable by the permissive pattern versions
//! (small clauses, extended copulas) or intentionally *rejected* by the
//! intrinsicness filters (aspect and part-of distractors) — that contrast
//! is what reproduces Table 4.
//!
//! Realization is allocation-free: every `*_into` method appends one
//! sentence to a reusable [`SentenceBuf`] arena (one per worker per
//! region), so generating a shard costs zero per-sentence `String`
//! temporaries.

use std::fmt::Write;
use surveyor_prob::Rng;

/// Realization context for one domain.
#[derive(Debug, Clone)]
pub struct Realizer {
    head_noun: String,
    /// Whether plural-subject realizations are natural for the type
    /// ("Kittens are cute" — yes for animals, no for city names).
    plural_ok: bool,
}

/// Aspects for non-intrinsic distractors ("bad *for parking*").
const ASPECTS: &[&str] = &[
    "parking",
    "tourists",
    "families",
    "beginners",
    "children",
    "business",
];

/// Directional adjectives for part-of distractors ("*southern* France").
const DIRECTIONS: &[&str] = &["southern", "northern", "eastern", "western"];

/// A reusable sentence arena: one flat text buffer plus `(start, end)`
/// byte spans, one span per realized sentence.
///
/// The generator realizes a whole region's sentences into one arena,
/// shuffles the *spans* (the shuffle consumes randomness purely as
/// a function of slice length, so shuffling spans draws exactly what
/// shuffling owned `String`s used to draw), and packs documents straight
/// from the span list — no per-sentence allocation anywhere. Spans are
/// `u32` offsets: a single shard's arena stays far below 4 GiB.
#[derive(Debug, Clone, Default)]
pub struct SentenceBuf {
    text: String,
    spans: Vec<(u32, u32)>,
}

impl SentenceBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the arena, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
    }

    /// Number of sentences held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the buffer holds no sentences.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th sentence in current span order.
    pub fn sentence(&self, i: usize) -> &str {
        let (start, end) = self.spans[i];
        &self.text[start as usize..end as usize]
    }

    /// The sentence spans, mutable — exposed so callers can reorder
    /// sentences (the generator shuffles document packing order) without
    /// touching the arena text.
    pub fn spans_mut(&mut self) -> &mut [(u32, u32)] {
        &mut self.spans
    }

    /// Marks the start of a new sentence; pass the result to
    /// [`commit`](Self::commit) once the sentence is fully written.
    fn begin(&mut self) -> u32 {
        self.text.len() as u32
    }

    /// Records the span of the sentence started at `start`.
    fn commit(&mut self, start: u32) {
        self.spans.push((start, self.text.len() as u32));
    }
}

/// Appends the plural of a (possibly multi-word) name: last word gains an
/// `s` (`es` after a sibilant, `y` → `ies` after a consonant). The
/// buffered core of [`pluralize`]; byte-for-byte the same output, zero
/// allocations.
pub fn pluralize_into(name: &str, out: &mut String) {
    let last_start = name.rfind(' ').map_or(0, |i| i + 1);
    let last = &name[last_start..];
    let bytes = last.as_bytes();
    // ASCII-case-insensitive suffix probe (names are ASCII; non-ASCII
    // bytes simply never match a letter class, as with `to_lowercase`).
    let tail = |back: usize| {
        bytes
            .get(bytes.len().wrapping_sub(back))
            .map(u8::to_ascii_lowercase)
    };
    out.push_str(&name[..last_start]);
    let sibilant = matches!(tail(1), Some(b's' | b'x'))
        || (matches!(tail(1), Some(b'h')) && matches!(tail(2), Some(b'c')));
    if sibilant {
        out.push_str(last);
        out.push_str("es");
    } else if matches!(tail(1), Some(b'y'))
        && !matches!(tail(2), Some(b'a' | b'e' | b'i' | b'o' | b'u'))
    {
        out.push_str(&last[..last.len() - 1]);
        out.push_str("ies");
    } else {
        out.push_str(last);
        out.push('s');
    }
}

/// Pluralizes a (possibly multi-word) name: last word gains an `s`
/// (`y` → `ies` after a consonant).
pub fn pluralize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    pluralize_into(name, &mut out);
    out
}

impl Realizer {
    /// Creates a realizer for a type with the given head noun.
    pub fn new(head_noun: &str, plural_ok: bool) -> Self {
        Self {
            head_noun: head_noun.to_owned(),
            plural_ok,
        }
    }

    /// Appends one evidence statement to `buf`.
    ///
    /// `positive` is the *intended extracted polarity*; the realization may
    /// use a double negation (probability `double_negation_share`) or a
    /// construction only the extended verb class recognizes (probability
    /// `extended_verb_share`).
    #[allow(clippy::too_many_arguments)]
    pub fn statement_into(
        &self,
        rng: &mut Rng,
        entity: &str,
        property: &str,
        positive: bool,
        extended_verb_share: f64,
        double_negation_share: f64,
        buf: &mut SentenceBuf,
    ) {
        let start = buf.begin();
        if rng.chance(extended_verb_share.clamp(0.0, 1.0)) {
            self.extended_verb_statement(rng, entity, property, positive, &mut buf.text);
        } else if rng.chance(double_negation_share.clamp(0.0, 1.0)) {
            self.double_negation_statement(rng, entity, property, positive, &mut buf.text);
        } else if positive {
            self.plain_positive(rng, entity, property, &mut buf.text);
        } else {
            self.plain_negative(rng, entity, property, &mut buf.text);
        }
        buf.commit(start);
    }

    /// Positive realizations lean attributive/predicate-nominal (the
    /// `amod` pattern) the way Web text does — Table 4's V1 (amod-only)
    /// extracts more than V3 (complement-only) on the real snapshot.
    fn plain_positive(&self, rng: &mut Rng, entity: &str, property: &str, out: &mut String) {
        let noun = &self.head_noun;
        // Weighted choice: (weight, template id). Plural variants are only
        // natural for some types.
        let weights: &[(usize, u8)] = if self.plural_ok {
            &[
                (14, 0),
                (22, 1),
                (8, 2),
                (6, 3),
                (16, 4),
                (10, 5),
                (6, 6),
                (12, 7),
                (6, 8),
            ]
        } else {
            &[(16, 0), (26, 1), (10, 2), (8, 3), (18, 4), (14, 7), (8, 8)]
        };
        let total: usize = weights.iter().map(|(w, _)| w).sum();
        let mut roll = rng.below(total);
        let mut id = 0u8;
        for &(w, t) in weights {
            if roll < w {
                id = t;
                break;
            }
            roll -= w;
        }
        // Writing into a `String` is infallible, hence the discarded
        // results.
        match id {
            0 => {
                let _ = write!(out, "{entity} is {property}.");
            }
            1 => {
                let _ = write!(out, "{entity} is a {property} {noun}.");
            }
            2 => {
                let _ = write!(out, "I think that {entity} is {property}.");
            }
            3 => {
                let _ = write!(out, "I think {entity} is {property}.");
            }
            4 => {
                let _ = write!(out, "I love the {property} {entity}.");
            }
            5 => {
                pluralize_into(entity, out);
                let _ = write!(out, " are {property}.");
            }
            6 => {
                pluralize_into(entity, out);
                let _ = write!(out, " are {property} ");
                pluralize_into(noun, out);
                out.push('.');
            }
            7 => {
                let _ = write!(out, "We saw the {property} {entity}.");
            }
            _ => {
                let _ = write!(out, "{entity} is a {noun} that is {property}.");
            }
        }
    }

    fn plain_negative(&self, rng: &mut Rng, entity: &str, property: &str, out: &mut String) {
        let noun = &self.head_noun;
        let choice = if self.plural_ok {
            rng.below(6)
        } else {
            rng.below(5)
        };
        match choice {
            0 => {
                let _ = write!(out, "{entity} is not {property}.");
            }
            1 => {
                let _ = write!(out, "{entity} is not a {property} {noun}.");
            }
            2 => {
                let _ = write!(out, "I don't think that {entity} is {property}.");
            }
            3 => {
                let _ = write!(out, "I do not believe {entity} is {property}.");
            }
            4 => {
                let _ = write!(out, "{entity} is never {property}.");
            }
            _ => {
                pluralize_into(entity, out);
                let _ = write!(out, " are not {property}.");
            }
        }
    }

    /// A realization only the extended verb class (Table 4 V1/V2)
    /// extracts.
    fn extended_verb_statement(
        &self,
        rng: &mut Rng,
        entity: &str,
        property: &str,
        positive: bool,
        out: &mut String,
    ) {
        let _ = match (positive, rng.below(3)) {
            (true, 0) => write!(out, "I find {entity} {property}."),
            (true, 1) => write!(out, "{entity} is considered {property}."),
            (true, _) => write!(out, "{entity} seems {property}."),
            (false, 0) => write!(out, "{entity} does not seem {property}."),
            (false, 1) => write!(out, "{entity} is not considered {property}."),
            (false, _) => write!(out, "I don't find {entity} {property}."),
        };
    }

    /// A double-negation realization (Figure 5): the surface carries two
    /// negations but the extracted polarity matches `positive`.
    fn double_negation_statement(
        &self,
        rng: &mut Rng,
        entity: &str,
        property: &str,
        positive: bool,
        out: &mut String,
    ) {
        if positive {
            let _ = if rng.chance(0.5) {
                write!(out, "I don't think that {entity} is never {property}.")
            } else {
                write!(out, "I do not believe {entity} is never {property}.")
            };
        } else {
            // Negative statements have no natural even-negation surface;
            // fall back to the single-negation embedded form.
            let _ = write!(out, "I don't think that {entity} is {property}.");
        }
    }

    /// A non-intrinsic aspect distractor: "X is good/bad for parking".
    /// Filtered by the intrinsicness check; counted by V1/V2.
    pub fn aspect_noise_into(&self, rng: &mut Rng, entity: &str, buf: &mut SentenceBuf) {
        let start = buf.begin();
        let aspect = ASPECTS[rng.below(ASPECTS.len())];
        let adjective = if rng.chance(0.5) { "good" } else { "bad" };
        let _ = write!(buf.text, "{entity} is {adjective} for {aspect}.");
        buf.commit(start);
    }

    /// A part-of distractor: "southern X is warm". The amod lands on the
    /// subject mention, which V1/V2 extract and V4's coreference
    /// requirement rejects.
    pub fn part_of_noise_into(&self, rng: &mut Rng, entity: &str, buf: &mut SentenceBuf) {
        let start = buf.begin();
        let direction = DIRECTIONS[rng.below(DIRECTIONS.len())];
        let predicate = if rng.chance(0.5) { "warm" } else { "cold" };
        let season = if rng.chance(0.5) { "summer" } else { "winter" };
        // The prepositional tail makes the predicate non-intrinsic, so the
        // checked versions also reject the acomp reading; only the
        // spurious amod on the subject survives for V1/V2.
        let _ = write!(
            buf.text,
            "{direction} {entity} is {predicate} in the {season}."
        );
        buf.commit(start);
    }

    /// Neutral filler mentioning the entity without claiming a property.
    pub fn filler_into(&self, rng: &mut Rng, entity: &str, buf: &mut SentenceBuf) {
        let start = buf.begin();
        let _ = match rng.below(4) {
            0 => write!(buf.text, "I visited {entity} during the summer."),
            1 => write!(buf.text, "People love {entity}."),
            2 => write!(buf.text, "We saw {entity} at the weekend."),
            _ => write!(buf.text, "{entity} is in the north."),
        };
        buf.commit(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pluralize_rules() {
        assert_eq!(pluralize("Kitten"), "Kittens");
        assert_eq!(pluralize("Grizzly bear"), "Grizzly bears");
        assert_eq!(pluralize("City"), "Cities");
        assert_eq!(pluralize("Fox"), "Foxes");
        assert_eq!(pluralize("Bus"), "Buses");
        assert_eq!(pluralize("Monkey"), "Monkeys");
    }

    #[test]
    fn pluralize_into_appends_without_clearing() {
        let mut out = String::from("The ");
        pluralize_into("Fox", &mut out);
        assert_eq!(out, "The Foxes");
    }

    fn rng() -> Rng {
        Rng::new(77)
    }

    #[test]
    fn statements_mention_entity_and_property() {
        let r = Realizer::new("animal", true);
        let mut rng = rng();
        let mut buf = SentenceBuf::new();
        for positive in [true, false] {
            for _ in 0..50 {
                r.statement_into(&mut rng, "Kitten", "cute", positive, 0.2, 0.05, &mut buf);
            }
        }
        for i in 0..buf.len() {
            let s = buf.sentence(i);
            assert!(s.to_lowercase().contains("kitten"), "{s}");
            assert!(s.contains("cute"), "{s}");
            assert!(s.ends_with('.'), "{s}");
        }
    }

    #[test]
    fn buffered_statements_accumulate_spans() {
        let r = Realizer::new("animal", true);
        let mut rng = rng();
        let mut buf = SentenceBuf::new();
        for i in 0..10 {
            r.statement_into(&mut rng, "Kitten", "cute", true, 0.2, 0.05, &mut buf);
            assert_eq!(buf.len(), i + 1);
        }
        for i in 0..10 {
            let s = buf.sentence(i);
            assert!(s.contains("cute"), "{s}");
            assert!(s.ends_with('.'), "{s}");
        }
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn plain_negative_contains_negation() {
        let r = Realizer::new("city", false);
        let mut rng = rng();
        let mut buf = SentenceBuf::new();
        for _ in 0..50 {
            r.statement_into(&mut rng, "Chicago", "big", false, 0.0, 0.0, &mut buf);
        }
        for i in 0..buf.len() {
            let s = buf.sentence(i);
            let lower = s.to_lowercase();
            assert!(
                lower.contains("not") || lower.contains("n't") || lower.contains("never"),
                "{s}"
            );
        }
    }

    #[test]
    fn double_negation_has_two_negations() {
        let r = Realizer::new("animal", true);
        let mut rng = rng();
        let mut buf = SentenceBuf::new();
        for _ in 0..20 {
            r.statement_into(&mut rng, "Snake", "dangerous", true, 0.0, 1.0, &mut buf);
        }
        for i in 0..buf.len() {
            let s = buf.sentence(i);
            let negs =
                s.matches("n't").count() + s.matches(" not ").count() + s.matches("never").count();
            assert!(negs >= 2, "{s}");
        }
    }

    #[test]
    fn aspect_noise_has_prepositional_constriction() {
        let r = Realizer::new("city", false);
        let mut buf = SentenceBuf::new();
        r.aspect_noise_into(&mut rng(), "Chicago", &mut buf);
        let s = buf.sentence(0);
        assert!(s.contains(" for "), "{s}");
    }

    #[test]
    fn part_of_noise_prefixes_direction() {
        let r = Realizer::new("country", false);
        let mut buf = SentenceBuf::new();
        r.part_of_noise_into(&mut rng(), "France", &mut buf);
        let s = buf.sentence(0);
        assert!(DIRECTIONS.iter().any(|d| s.starts_with(d)), "{s}");
    }

    #[test]
    fn no_plural_templates_without_plural_ok() {
        let r = Realizer::new("city", false);
        let mut rng = rng();
        let mut buf = SentenceBuf::new();
        for _ in 0..100 {
            r.statement_into(&mut rng, "Chicago", "big", true, 0.0, 0.0, &mut buf);
        }
        for i in 0..buf.len() {
            let s = buf.sentence(i);
            assert!(!s.contains("Chicagos"), "{s}");
        }
    }
}
