//! Entity tagging: linking text mentions to knowledge-base entities.
//!
//! The paper's extraction runs over documents "pre-processed by an entity
//! tagger using state-of-the-art means for disambiguation" (§2) — its
//! empirical study discarded 11 of 23 frequent cities for ambiguity, so the
//! tagger here is deliberately precision-first:
//!
//! 1. longest-match alias lookup over a token window (multi-word names like
//!    "San Francisco" and "Grizzly bear" match before their suffix words);
//! 2. lemmatized retry (plural "snakes" links entity "Snake");
//! 3. ambiguous aliases (several candidate entities) resolve only when the
//!    sentence contains context cues (type head nouns or cue words) for
//!    exactly one candidate's type — otherwise the mention is dropped.
//!
//! Most tokens start no surface form at all, so the walk is gated on the
//! knowledge base's first-token table
//! ([`KnowledgeBase::longest_form_from`]): one probe per token says how long
//! a window starting there can be, and a token that starts no form costs
//! that probe and — when it reads as a plural — one more for its singular.
//! Nothing is allocated for a sentence that names no entity: windows are
//! slices of the sentence's lowercase buffer, the lemmatized retry writes
//! into a caller-owned buffer, and disambiguation reads the tokens in
//! place. The walk this replaced is kept as the `#[cfg(test)]` oracle
//! `reference::tag_entities`.

use crate::token::{singular_parts, TokenizedSentence};
use serde::{Deserialize, Serialize};
use surveyor_kb::{EntityId, KnowledgeBase};

/// A linked entity mention: token span `[start, end)` with the span's final
/// token acting as syntactic head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mention {
    /// Linked entity.
    pub entity: EntityId,
    /// First token index of the span.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Mention {
    /// The syntactic head token of the mention (its last token, matching
    /// the NP-chunker's head-final convention).
    pub fn head(&self) -> usize {
        self.end - 1
    }

    /// Whether the mention covers token `i`.
    pub fn covers(&self, i: usize) -> bool {
        (self.start..self.end).contains(&i)
    }
}

/// The lemmatized lookup form of a token window: the window's lowercase
/// forms with the final token singularized. Returns `None` when the final
/// token has no distinct singular — the exact form already covered that
/// probe. A one-token window whose singular is a prefix of the token
/// ("snakes") is a slice of the sentence's own buffer; any other form is
/// assembled in `scratch` (reused across windows).
fn lemma_window<'a>(
    tokens: &'a TokenizedSentence,
    start: usize,
    end: usize,
    scratch: &'a mut String,
) -> Option<&'a str> {
    let (stem, suffix) = singular_parts(tokens.lower_of(end - 1))?;
    if end - 1 == start && suffix.is_empty() {
        return Some(stem);
    }
    scratch.clear();
    scratch.push_str(tokens.window_lower(start, end - 1));
    if end - 1 > start {
        scratch.push(' ');
    }
    scratch.push_str(stem);
    scratch.push_str(suffix);
    Some(scratch)
}

/// Resolves an ambiguous alias using sentence context: returns the single
/// candidate whose type vocabulary (head nouns or context cues) appears in
/// the sentence, or `None` when zero or several candidates match.
fn disambiguate(
    kb: &KnowledgeBase,
    candidates: &[EntityId],
    tokens: &TokenizedSentence,
) -> Option<EntityId> {
    let mut resolved = None;
    for &cand in candidates {
        let t = kb.entity_type(kb.entity(cand).notable_type());
        let cued = (0..tokens.len()).any(|i| {
            let word = tokens.lower_of(i);
            t.matches_head_noun(word) || t.context_cues().iter().any(|c| c == word)
        });
        if cued {
            if resolved.is_some() {
                return None;
            }
            resolved = Some(cand);
        }
    }
    resolved
}

/// Tags all entity mentions in a tagged token sequence.
///
/// Mentions never overlap; matching is greedy left-to-right with longer
/// windows tried first.
pub fn tag_entities(tokens: &TokenizedSentence, kb: &KnowledgeBase) -> Vec<Mention> {
    tag_entities_with(&mut String::new(), tokens, kb)
}

/// [`tag_entities`] with a caller-owned buffer for the lemmatized retry,
/// for loops that tag many sentences. The buffer is cleared before use.
pub(crate) fn tag_entities_with(
    lemma: &mut String,
    tokens: &TokenizedSentence,
    kb: &KnowledgeBase,
) -> Vec<Mention> {
    let mut mentions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // No surface form that starts with this token has more tokens
        // than `longest` (none at all when it is zero), so longer exact
        // windows and their lemmatized forms — which keep the first token
        // — cannot be in the alias index.
        let longest = kb
            .longest_form_from(tokens.lower_of(i))
            .min(tokens.len() - i);
        let mut matched = false;
        // The one-token window is always visited: the singular of a token
        // is a different first token ("snakes" starts no form, "snake"
        // does).
        for w in (1..=longest.max(1)).rev() {
            let mut candidates = if w <= longest {
                kb.candidates(tokens.window_lower(i, i + w))
            } else {
                &[]
            };
            if candidates.is_empty() {
                if let Some(form) = lemma_window(tokens, i, i + w, lemma) {
                    candidates = kb.candidates(form);
                }
            }
            let resolved = match candidates {
                [] => None,
                [only] => Some(*only),
                many => disambiguate(kb, many, tokens),
            };
            if let Some(entity) = resolved {
                mentions.push(Mention {
                    entity,
                    start: i,
                    end: i + w,
                });
                i += w;
                matched = true;
                break;
            }
            // An ambiguous unresolved window still consumes its span so a
            // shorter sub-match cannot mislink part of the name.
            if candidates.len() > 1 {
                i += w;
                matched = true;
                break;
            }
        }
        if !matched {
            i += 1;
        }
    }
    mentions
}

/// The tagger as it was before the first-token gate, kept as the oracle of
/// `crate::differential`. Not to be edited.
#[cfg(test)]
pub(crate) mod reference {
    use super::Mention;
    use crate::token::{singularize, TokenizedSentence};
    use surveyor_kb::{EntityId, KnowledgeBase};

    fn lemma_window<'a>(
        tokens: &TokenizedSentence,
        start: usize,
        end: usize,
        scratch: &'a mut String,
    ) -> Option<&'a str> {
        let singular = singularize(tokens.lower_of(end - 1))?;
        scratch.clear();
        scratch.push_str(tokens.window_lower(start, end - 1));
        if end - 1 > start {
            scratch.push(' ');
        }
        scratch.push_str(&singular);
        Some(scratch)
    }

    fn disambiguate(
        kb: &KnowledgeBase,
        candidates: &[EntityId],
        sentence_words: &[&str],
    ) -> Option<EntityId> {
        let mut matching = Vec::new();
        for &cand in candidates {
            let t = kb.entity_type(kb.entity(cand).notable_type());
            let cued = sentence_words
                .iter()
                .any(|w| t.matches_head_noun(w) || t.context_cues().iter().any(|c| c == w));
            if cued {
                matching.push(cand);
            }
        }
        match matching.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    pub(crate) fn tag_entities(tokens: &TokenizedSentence, kb: &KnowledgeBase) -> Vec<Mention> {
        let sentence_words: Vec<&str> = (0..tokens.len()).map(|i| tokens.lower_of(i)).collect();
        let max_window = kb.max_alias_tokens().max(1);
        let mut mentions = Vec::new();
        let mut scratch = String::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = false;
            let upper = max_window.min(tokens.len() - i);
            for w in (1..=upper).rev() {
                let exact = tokens.window_lower(i, i + w);
                let mut candidates = kb.candidates(exact);
                if candidates.is_empty() {
                    if let Some(lemma) = lemma_window(tokens, i, i + w, &mut scratch) {
                        candidates = kb.candidates(lemma);
                    }
                }
                let resolved = match candidates {
                    [] => None,
                    [only] => Some(*only),
                    many => disambiguate(kb, many, &sentence_words),
                };
                if let Some(entity) = resolved {
                    mentions.push(Mention {
                        entity,
                        start: i,
                        end: i + w,
                    });
                    i += w;
                    matched = true;
                    break;
                }
                if candidates.len() > 1 {
                    i += w;
                    matched = true;
                    break;
                }
            }
            if !matched {
                i += 1;
            }
        }
        mentions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;
    use crate::token::tokenize;
    use surveyor_corpus::fuzz::title_case;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city", "town"], &["downtown"]);
        let animal = b.add_type("animal", &["animal"], &["zoo", "wildlife"]);
        b.add_entity("San Francisco", city).alias("SF").finish();
        b.add_entity("Phoenix", city).finish();
        b.add_entity("Phoenix Bird", animal)
            .alias("Phoenix")
            .finish();
        b.add_entity("Snake", animal).finish();
        b.add_entity("Grizzly bear", animal).finish();
        b.build()
    }

    fn tag(s: &str, kb: &KnowledgeBase) -> Vec<(String, u32)> {
        let lex = Lexicon::new();
        let mut toks = tokenize(s);
        lex.tag(&mut toks);
        tag_entities(&toks, kb)
            .into_iter()
            .map(|m| {
                let span: Vec<&str> = (m.start..m.end).map(|i| toks.text_of(i)).collect();
                (span.join(" "), m.entity.0)
            })
            .collect()
    }

    #[test]
    fn links_multiword_name() {
        let kb = kb();
        let tags = tag("San Francisco is a big city", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "San Francisco");
    }

    #[test]
    fn links_alias() {
        let kb = kb();
        let tags = tag("SF is a big city", &kb);
        assert_eq!(tags.len(), 1);
        let sf = kb.entity_by_name("San Francisco").unwrap();
        assert_eq!(tags[0].1, sf.0);
    }

    #[test]
    fn links_plural_via_lemmatization() {
        let kb = kb();
        let tags = tag("Snakes are dangerous animals", &kb);
        assert_eq!(tags.len(), 1);
        let snake = kb.entity_by_name("Snake").unwrap();
        assert_eq!(tags[0].1, snake.0);
        assert_eq!(tags[0].0, "Snakes");
    }

    #[test]
    fn ambiguous_alias_dropped_without_context() {
        let kb = kb();
        let tags = tag("Phoenix is big", &kb);
        assert!(tags.is_empty());
    }

    #[test]
    fn ambiguous_alias_resolved_by_type_cue() {
        let kb = kb();
        // "city" cues the city reading.
        let tags = tag("Phoenix is a big city", &kb);
        assert_eq!(tags.len(), 1);
        let city_type = kb.type_by_name("city").unwrap();
        let e = kb.entity(surveyor_kb::EntityId(tags[0].1));
        assert_eq!(e.notable_type(), city_type);

        // "zoo" cues the animal reading.
        let tags = tag("I saw Phoenix at the zoo", &kb);
        assert_eq!(tags.len(), 1);
        let animal_type = kb.type_by_name("animal").unwrap();
        let e = kb.entity(surveyor_kb::EntityId(tags[0].1));
        assert_eq!(e.notable_type(), animal_type);
    }

    #[test]
    fn ambiguous_with_both_cues_stays_dropped() {
        let kb = kb();
        let tags = tag("Phoenix has a city zoo", &kb);
        assert!(tags.is_empty());
    }

    #[test]
    fn longest_match_wins() {
        let kb = kb();
        // "Phoenix Bird" must match as the animal, not ambiguous "Phoenix".
        let tags = tag("The Phoenix Bird is big", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "Phoenix Bird");
    }

    #[test]
    fn lowercase_multiword_plural() {
        let kb = kb();
        let tags = tag("I think grizzly bears are dangerous", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "grizzly bears");
    }

    #[test]
    fn mentions_do_not_overlap() {
        let kb = kb();
        let lex = Lexicon::new();
        let mut toks = tokenize("San Francisco and SF and snakes");
        lex.tag(&mut toks);
        let mentions = tag_entities(&toks, &kb);
        for pair in mentions.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        assert_eq!(mentions.len(), 3);
    }

    #[test]
    fn mention_head_is_last_token() {
        let m = Mention {
            entity: EntityId(0),
            start: 2,
            end: 4,
        };
        assert_eq!(m.head(), 3);
        assert!(m.covers(2) && m.covers(3) && !m.covers(4));
    }

    #[test]
    fn unicode_names_link_in_every_case() {
        // Every surface form, written upper-, lower- and title-case, links
        // its entity: the token's lower form is the form the alias index
        // holds (`normalize_surface`, per word — a final `Σ` is `ς` on
        // both sides).
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &[]);
        b.add_entity("AΣ", city).finish();
        b.add_entity("ΟΔΟΣ ΑΘΗΝΑΣ", city).alias("Σίσυφος").finish();
        b.add_entity("Москва", city)
            .alias("Нижний Новгород")
            .finish();
        b.add_entity("São Paulo", city).alias("Łódź").finish();
        b.add_entity("東京", city).alias("İstanbul").finish();
        let kb = b.build();
        let title = |form: &str| -> String {
            let words: Vec<String> = form.split(' ').map(title_case).collect();
            words.join(" ")
        };
        for entity in kb.entities() {
            for form in entity.surface_forms() {
                for written in [form.to_uppercase(), form.to_lowercase(), title(form)] {
                    let tags = tag(&format!("{written} is big"), &kb);
                    assert_eq!(tags.len(), 1, "{written:?} (from {form:?}): {tags:?}");
                    assert_eq!(tags[0].1, entity.id().0, "{written:?}");
                    assert_eq!(tags[0].0, written);
                }
            }
        }
    }

    #[test]
    fn final_sigma_name_links_as_written_in_upper_case() {
        // The reproduction of the defect: entity "AΣ", text "AΣ is big"
        // used to yield no mention while "aς is big" yielded one.
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &[]);
        b.add_entity("AΣ", city).finish();
        let kb = b.build();
        assert_eq!(tag("AΣ is big", &kb).len(), 1);
        assert_eq!(tag("aς is big", &kb).len(), 1);
        assert_eq!(tag("Aς is big", &kb).len(), 1);
    }

    #[test]
    fn names_sharing_a_first_token_match_longest_first() {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &[]);
        b.add_entity("San", city).finish();
        b.add_entity("San Jose", city).finish();
        b.add_entity("San Francisco Bay", city).finish();
        b.add_entity("York", city).finish();
        b.add_entity("New York City", city).finish();
        let kb = b.build();
        let names = |s: &str| -> Vec<String> { tag(s, &kb).into_iter().map(|(t, _)| t).collect() };
        assert_eq!(names("San Francisco Bay is big"), ["San Francisco Bay"]);
        // No "San Francisco": the window falls back to "San".
        assert_eq!(names("San Francisco is big"), ["San"]);
        assert_eq!(names("San Jose and San"), ["San Jose", "San"]);
        // Plural of the last token, at every window length.
        assert_eq!(names("San Francisco Bays"), ["San Francisco Bays"]);
        assert_eq!(names("two New York Cities"), ["New York Cities"]);
        assert_eq!(names("many Sans"), ["Sans"]);
        // "New York" alone starts a form but completes none; "York" does.
        assert_eq!(names("New York is big"), ["York"]);
        assert_eq!(names("New York City is big"), ["New York City"]);
        // A window may not run past the sentence.
        assert_eq!(names("San Francisco"), ["San"]);
        assert_eq!(names("New York"), ["York"]);
    }

    #[test]
    fn lemma_buffer_is_reused_across_sentences() {
        let kb = kb();
        let lex = Lexicon::new();
        let mut lemma = String::from("stale");
        for (sentence, expected) in [
            ("Snakes are dangerous", 1),
            ("the parks are nice", 0),
            ("grizzly bears and snakes", 2),
        ] {
            let mut toks = tokenize(sentence);
            lex.tag(&mut toks);
            assert_eq!(
                tag_entities_with(&mut lemma, &toks, &kb),
                tag_entities(&toks, &kb)
            );
            assert_eq!(tag_entities(&toks, &kb).len(), expected, "{sentence}");
        }
    }

    #[test]
    fn no_mentions_in_unrelated_text() {
        let kb = kb();
        assert!(tag("the weather is nice today", &kb).is_empty());
    }
}
