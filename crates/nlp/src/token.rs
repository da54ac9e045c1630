//! Sentence splitting, tokenization, and the part-of-speech inventory.
//!
//! Tokens are **spans**, not strings: each [`Token`] is a `Copy` record of
//! byte ranges into its sentence's original text and into one shared
//! lowercase buffer owned by the [`TokenizedSentence`]. Tokenizing an ASCII
//! sentence performs three allocations — the text copy, the lowercase
//! buffer and the token vector, each sized up front — and reads every byte
//! a fixed number of times: a chunk's offset is its sub-slice's address,
//! and an ASCII span is lowered with a copy and
//! `make_ascii_lowercase`.
//!
//! A span with a non-ASCII character is lowered as one word by
//! `str::to_lowercase`, the same definition `surveyor_kb::kb::normalize_surface`
//! gives each word of a surface form — so context-sensitive lowerings (a
//! word-final `Σ` becomes `ς`) agree on both sides of an alias lookup.
//!
//! `crates/nlp/tests/alloc_budget.rs` holds the allocation counts; the
//! bodies this module had before are kept as `#[cfg(test)]` references in
//! `reference` below and compared on fuzzed sentences in
//! `crate::differential`.

/// Part-of-speech tags; a compact inventory sufficient for the dependency
/// patterns of paper Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pos {
    /// Common noun (`city`, `animals`).
    Noun,
    /// Proper noun (`Chicago`, `San`).
    ProperNoun,
    /// Adjective (`big`, `cute`).
    Adjective,
    /// Adverb (`very`, `densely`).
    Adverb,
    /// Lexical verb (`think`, `love`).
    Verb,
    /// Copular verb (`is`, `are`, `seems`).
    Copula,
    /// Auxiliary (`do`, `does`, `did`).
    Aux,
    /// Determiner (`a`, `the`).
    Determiner,
    /// Preposition (`for`, `in`).
    Preposition,
    /// Personal pronoun (`I`, `they`).
    Pronoun,
    /// Negation particle (`not`, `n't`, `never`).
    Negation,
    /// Coordinating conjunction (`and`, `or`).
    Conjunction,
    /// Complementizer (`that` introducing a clause).
    Complementizer,
    /// Punctuation.
    Punct,
    /// Anything else.
    Other,
}

impl Pos {
    /// Whether the tag is nominal (common or proper noun, pronoun).
    pub fn is_nominal(self) -> bool {
        matches!(self, Pos::Noun | Pos::ProperNoun | Pos::Pronoun)
    }
}

/// A span token: byte ranges into the sentence's text and shared lowercase
/// buffer (for provenance and highlighting), plus the POS tag. Surface and
/// lowercase forms are read through the owning [`TokenizedSentence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first character within the sentence.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// Byte range of the lowercase form in the sentence's lower buffer.
    lower_start: u32,
    lower_end: u32,
    /// Part-of-speech tag (assigned by the lexicon; `Other` until tagged).
    pub pos: Pos,
}

impl Token {
    /// The byte span within the source sentence.
    pub fn span(&self) -> (usize, usize) {
        (self.start as usize, self.end as usize)
    }
}

/// A tokenized sentence: the original text, the shared lowercase buffer,
/// and the span tokens indexing both.
///
/// Derefs to `[Token]`, so positional access (`sentence[i].pos`,
/// `sentence.len()`, iteration) works as on a plain token slice; textual
/// access goes through [`text_of`](Self::text_of) /
/// [`lower_of`](Self::lower_of).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenizedSentence {
    text: String,
    /// Lowercased token forms joined by single spaces, so any token range
    /// is one contiguous slice (see [`Self::window_lower`]).
    lower: String,
    pub(crate) tokens: Vec<Token>,
}

impl TokenizedSentence {
    /// The sentence as written.
    pub fn sentence(&self) -> &str {
        &self.text
    }

    /// Surface form of token `i` as written.
    pub fn text_of(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.text[t.start as usize..t.end as usize]
    }

    /// Lowercase form of token `i`.
    pub fn lower_of(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.lower[t.lower_start as usize..t.lower_end as usize]
    }

    /// The lowercase forms of tokens `start..end` joined by single spaces —
    /// a contiguous slice of the shared buffer, so building the window
    /// allocates nothing. Empty ranges yield `""`.
    pub fn window_lower(&self, start: usize, end: usize) -> &str {
        if start >= end {
            return "";
        }
        let from = self.tokens[start].lower_start as usize;
        let to = self.tokens[end - 1].lower_end as usize;
        &self.lower[from..to]
    }

    /// Whether token `i`'s surface form starts with an uppercase letter.
    pub fn is_capitalized(&self, i: usize) -> bool {
        self.text_of(i)
            .chars()
            .next()
            .is_some_and(|c| c.is_uppercase())
    }

    /// Appends a token covering `start..end` of the sentence text, extending
    /// the lowercase buffer. An ASCII span costs one copy; only a span with
    /// a non-ASCII character goes through the allocating Unicode lowering,
    /// as one word.
    fn push_span(&mut self, start: usize, end: usize) {
        let lower_start = self.lower.len();
        let span = &self.text[start..end];
        if span.is_ascii() {
            self.lower.push_str(span);
            self.lower[lower_start..].make_ascii_lowercase();
        } else {
            self.lower.push_str(&span.to_lowercase());
        }
        // Span offsets are stored as u32 to keep `Token` at 20 bytes; a
        // single sentence longer than 4 GiB cannot occur (documents are
        // split into sentences far below that).
        #[expect(clippy::expect_used, reason = "a sentence cannot exceed 4 GiB")]
        let offset = |n: usize| u32::try_from(n).expect("sentence fits in u32");
        self.tokens.push(Token {
            start: offset(start),
            end: offset(end),
            lower_start: offset(lower_start),
            lower_end: offset(self.lower.len()),
            pos: Pos::Other,
        });
        self.lower.push(' ');
    }
}

impl std::ops::Deref for TokenizedSentence {
    type Target = [Token];

    fn deref(&self) -> &[Token] {
        &self.tokens
    }
}

/// Splits raw text into sentences on `.`, `!`, `?` boundaries.
///
/// Returns sentence strings without the terminator. Empty sentences are
/// dropped. Abbreviation handling is deliberately absent: the corpus
/// generator never emits abbreviations with periods.
pub fn split_sentences(text: &str) -> Vec<&str> {
    let mut bounds = Vec::new();
    split_sentence_bounds(text, &mut bounds);
    bounds.iter().map(|&(from, to)| &text[from..to]).collect()
}

/// Appends the trimmed byte range of each sentence in `text` to `out`.
///
/// The allocation-free core of [`split_sentences`]: callers that annotate
/// many documents reuse one bounds vector across all of them (see
/// [`crate::document::AnnotateScratch`]).
pub fn split_sentence_bounds(text: &str, out: &mut Vec<(usize, usize)>) {
    let mut push_trimmed = |from: usize, to: usize| {
        let s = &text[from..to];
        let lead = s.len() - s.trim_start().len();
        let trimmed_len = s.trim_end().len();
        if trimmed_len > lead {
            out.push((from + lead, from + trimmed_len));
        }
    };
    // The terminators are ASCII, and an ASCII byte is never part of a
    // multi-byte sequence: scan bytes, not characters.
    let mut start = 0;
    for (i, byte) in text.bytes().enumerate() {
        if matches!(byte, b'.' | b'!' | b'?') {
            push_trimmed(start, i);
            start = i + 1;
        }
    }
    push_trimmed(start, text.len());
}

/// Tokenizes one sentence.
///
/// Splits on whitespace, separates trailing/leading punctuation, and splits
/// negative contractions the way the Stanford tokenizer does (`don't` →
/// `do` + `n't`, `isn't` → `is` + `n't`), which the negation detector of
/// paper Figure 5 relies on.
pub fn tokenize(sentence: &str) -> TokenizedSentence {
    tokenize_with(&mut Vec::new(), sentence)
}

/// [`tokenize`] with a caller-owned scratch vector for the
/// trailing-punctuation queue.
///
/// The queue used to be allocated once per word; a caller that tokenizes
/// many sentences passes the same vector every time and the per-word
/// allocation disappears entirely. The vector is cleared on entry.
pub fn tokenize_with(trailing: &mut Vec<(usize, usize)>, sentence: &str) -> TokenizedSentence {
    let mut out = TokenizedSentence {
        text: sentence.to_owned(),
        lower: String::with_capacity(sentence.len() + 8),
        // English runs at five to six bytes a token, separator included;
        // the rare denser sentence grows the vector.
        tokens: Vec::with_capacity(sentence.len() / 5 + 2),
    };
    for raw in sentence.split_whitespace() {
        // `raw` is a sub-slice of `sentence`: its address is its offset.
        let base = raw.as_ptr() as usize - sentence.as_ptr() as usize;

        // Peel leading punctuation.
        let mut word = raw;
        let mut offset = base;
        while let Some(first) = word.chars().next() {
            if first.is_alphanumeric() || first == '\'' {
                break;
            }
            let width = first.len_utf8();
            out.push_span(offset, offset + width);
            word = &word[width..];
            offset += width;
        }
        // Peel trailing punctuation into a queue emitted after the word.
        trailing.clear();
        while let Some(last) = word.chars().last() {
            if last.is_alphanumeric() {
                break;
            }
            // Keep apostrophes that are part of a contraction.
            if last == '\'' && word.len() >= 2 {
                break;
            }
            let width = last.len_utf8();
            let at = offset + word.len() - width;
            trailing.push((at, at + width));
            word = &word[..word.len() - width];
        }
        if !word.is_empty() {
            push_word(&mut out, word, offset);
        }
        for &(from, to) in trailing.iter().rev() {
            out.push_span(from, to);
        }
    }
    out
}

/// Pushes a word starting at byte `offset`, splitting negative contractions.
fn push_word(out: &mut TokenizedSentence, word: &str, offset: usize) {
    // Bytes, not a `str` slice: three bytes from the end of a non-ASCII
    // word need not be a character boundary.
    let bytes = word.as_bytes();
    let is_negative_contraction =
        bytes.len() >= 3 && bytes[bytes.len() - 3..].eq_ignore_ascii_case(b"n't");
    if is_negative_contraction {
        // don't -> do + n't; isn't -> is + n't; can't -> ca + n't (as in PTB).
        let stem_len = word.len() - 3;
        if stem_len > 0 {
            out.push_span(offset, offset + stem_len);
        }
        out.push_span(offset + stem_len, offset + word.len());
    } else {
        out.push_span(offset, offset + word.len());
    }
}

/// The singular of a lowercase plural as `(stem, suffix)` — the one
/// definition of the plural endings the entity tagger strips; `None` when
/// `lower` carries none of them.
pub(crate) fn singular_parts(lower: &str) -> Option<(&str, &'static str)> {
    if lower.len() > 3 && lower.ends_with("ies") {
        return Some((&lower[..lower.len() - 3], "y"));
    }
    if lower.len() > 3
        && (lower.ends_with("ses")
            || lower.ends_with("xes")
            || lower.ends_with("zes")
            || lower.ends_with("ches")
            || lower.ends_with("shes"))
    {
        return Some((&lower[..lower.len() - 2], ""));
    }
    if lower.len() > 2 && lower.ends_with('s') && !lower.ends_with("ss") {
        return Some((&lower[..lower.len() - 1], ""));
    }
    None
}

/// Lemmatizes a lowercase word for alias matching: strips common plural
/// endings. Conservative by design — the entity tagger tries the exact form
/// first.
pub fn singularize(lower: &str) -> Option<String> {
    singular_parts(lower).map(|(stem, suffix)| [stem, suffix].concat())
}

/// The bodies this module had before the one-pass tokenizer, kept as the
/// oracle of `crate::differential`. Not to be edited.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Pos, Token, TokenizedSentence};

    fn push_span(out: &mut TokenizedSentence, start: usize, end: usize) {
        let lower_start = out.lower.len();
        for ch in out.text[start..end].chars() {
            for lc in ch.to_lowercase() {
                out.lower.push(lc);
            }
        }
        let offset = |n: usize| u32::try_from(n).expect("sentence fits in u32");
        out.tokens.push(Token {
            start: offset(start),
            end: offset(end),
            lower_start: offset(lower_start),
            lower_end: offset(out.lower.len()),
            pos: Pos::Other,
        });
        out.lower.push(' ');
    }

    pub(crate) fn split_sentence_bounds(text: &str, out: &mut Vec<(usize, usize)>) {
        let mut push_trimmed = |from: usize, to: usize| {
            let s = &text[from..to];
            let lead = s.len() - s.trim_start().len();
            let trimmed_len = s.trim_end().len();
            if trimmed_len > lead {
                out.push((from + lead, from + trimmed_len));
            }
        };
        let mut start = 0;
        for (i, ch) in text.char_indices() {
            if matches!(ch, '.' | '!' | '?') {
                push_trimmed(start, i);
                start = i + ch.len_utf8();
            }
        }
        push_trimmed(start, text.len());
    }

    pub(crate) fn tokenize_with(
        trailing: &mut Vec<(usize, usize)>,
        sentence: &str,
    ) -> TokenizedSentence {
        let mut out = TokenizedSentence {
            text: sentence.to_owned(),
            lower: String::with_capacity(sentence.len() + 8),
            tokens: Vec::new(),
        };
        let mut cursor = 0usize;
        for raw in sentence.split_whitespace() {
            let base = sentence[cursor..]
                .find(raw)
                .map(|i| cursor + i)
                .unwrap_or(cursor);
            cursor = base + raw.len();

            let mut word = raw;
            let mut offset = base;
            while let Some(first) = word.chars().next() {
                if first.is_alphanumeric() || first == '\'' {
                    break;
                }
                let width = first.len_utf8();
                push_span(&mut out, offset, offset + width);
                word = &word[width..];
                offset += width;
            }
            trailing.clear();
            while let Some(last) = word.chars().last() {
                if last.is_alphanumeric() {
                    break;
                }
                if last == '\'' && word.len() >= 2 {
                    break;
                }
                let width = last.len_utf8();
                let at = offset + word.len() - width;
                trailing.push((at, at + width));
                word = &word[..word.len() - width];
            }
            if !word.is_empty() {
                push_word(&mut out, word, offset);
            }
            for &(from, to) in trailing.iter().rev() {
                push_span(&mut out, from, to);
            }
        }
        out
    }

    fn push_word(out: &mut TokenizedSentence, word: &str, offset: usize) {
        // Panics when `word.len() - 3` is not a character boundary: the
        // defect the current tokenizer fixes.
        let is_negative_contraction =
            word.len() >= 3 && word[word.len() - 3..].eq_ignore_ascii_case("n't");
        if is_negative_contraction {
            let stem_len = word.len() - 3;
            if stem_len > 0 {
                push_span(out, offset, offset + stem_len);
            }
            push_span(out, offset + stem_len, offset + word.len());
        } else {
            push_span(out, offset, offset + word.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(toks: &TokenizedSentence) -> Vec<&str> {
        (0..toks.len()).map(|i| toks.text_of(i)).collect()
    }

    #[test]
    fn splits_sentences_on_terminators() {
        let s = split_sentences("Kittens are cute. Tigers are not! Are snakes dangerous? yes");
        assert_eq!(
            s,
            vec![
                "Kittens are cute",
                "Tigers are not",
                "Are snakes dangerous",
                "yes"
            ]
        );
    }

    #[test]
    fn split_sentences_empty_and_whitespace() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences(" .  . ").is_empty());
    }

    #[test]
    fn tokenize_simple_sentence() {
        let toks = tokenize("San Francisco is a big city");
        assert_eq!(
            texts(&toks),
            vec!["San", "Francisco", "is", "a", "big", "city"]
        );
    }

    #[test]
    fn tokenize_splits_negative_contractions() {
        let toks = tokenize("I don't think so");
        assert_eq!(texts(&toks), vec!["I", "do", "n't", "think", "so"]);
        let toks = tokenize("It isn't big");
        assert_eq!(texts(&toks), vec!["It", "is", "n't", "big"]);
    }

    #[test]
    fn tokenize_separates_punctuation() {
        let toks = tokenize("big, bad (city)");
        assert_eq!(texts(&toks), vec!["big", ",", "bad", "(", "city", ")"]);
    }

    #[test]
    fn tokenize_keeps_possessive_apostrophe_inside_token() {
        // Not a negative contraction: stays as one token.
        let toks = tokenize("Chicago's parks");
        assert_eq!(texts(&toks), vec!["Chicago's", "parks"]);
    }

    #[test]
    fn capitalization_detection() {
        let toks = tokenize("Chicago city 's");
        assert!(toks.is_capitalized(0));
        assert!(!toks.is_capitalized(1));
        assert!(!toks.is_capitalized(2));
    }

    #[test]
    fn singularize_common_forms() {
        assert_eq!(singularize("cities").as_deref(), Some("city"));
        assert_eq!(singularize("snakes").as_deref(), Some("snake"));
        assert_eq!(singularize("foxes").as_deref(), Some("fox"));
        assert_eq!(singularize("beaches").as_deref(), Some("beach"));
        assert_eq!(singularize("glass"), None);
        assert_eq!(singularize("is"), None);
    }

    #[test]
    fn spans_recover_surface_forms() {
        let sentence = "San Francisco isn't (really) big.";
        let toks = tokenize(sentence);
        for i in 0..toks.len() {
            let (from, to) = toks[i].span();
            assert_eq!(
                &sentence[from..to],
                toks.text_of(i),
                "span mismatch for {:?}",
                toks.text_of(i)
            );
        }
    }

    #[test]
    fn spans_are_ordered_and_disjoint() {
        let toks = tokenize("I don't think that snakes are never dangerous.");
        for pair in toks.windows(2) {
            assert!(pair[0].end <= pair[1].start, "{pair:?}");
        }
        assert_eq!(toks[0].span(), (0, 1));
    }

    #[test]
    fn lowercase_forms_and_windows() {
        let toks = tokenize("San Francisco IS a Big City");
        assert_eq!(toks.lower_of(0), "san");
        assert_eq!(toks.lower_of(2), "is");
        assert_eq!(toks.window_lower(0, 2), "san francisco");
        assert_eq!(toks.window_lower(3, 6), "a big city");
        assert_eq!(toks.window_lower(4, 4), "");
    }

    #[test]
    fn non_ascii_words_tokenize_without_panicking() {
        // Two-byte letters put `len - 3` inside a character; the
        // contraction test used to slice there.
        for (sentence, expected) in [
            ("ΟΔΟΣ is big", vec!["ΟΔΟΣ", "is", "big"]),
            ("Москва", vec!["Москва"]),
            ("я", vec!["я"]),
            ("яя", vec!["яя"]),
            ("東京 is big", vec!["東京", "is", "big"]),
            ("東", vec!["東"]),
            ("aΣ Σa aяb 東a京", vec!["aΣ", "Σa", "aяb", "東a京"]),
            (
                "(Москва), «ΟΔΟΣ»!",
                vec!["(", "Москва", ")", ",", "«", "ΟΔΟΣ", "»", "!"],
            ),
            // The contraction still splits behind a non-ASCII stem.
            (
                "Москваn't Σn't 東N'T",
                vec!["Москва", "n't", "Σ", "n't", "東", "N'T"],
            ),
        ] {
            let toks = tokenize(sentence);
            assert_eq!(texts(&toks), expected, "{sentence}");
            for i in 0..toks.len() {
                let (from, to) = toks[i].span();
                assert_eq!(&sentence[from..to], toks.text_of(i));
            }
        }
    }

    #[test]
    fn non_ascii_tokens_lower_as_words() {
        // Per word, as `normalize_surface` lowers a surface form: a final
        // sigma is `ς`, a medial one `σ`.
        let toks = tokenize("ΟΔΟΣ ΣΑΣ AΣ Σ ÅNGSTRÖM İstanbul San");
        let lowers: Vec<&str> = (0..toks.len()).map(|i| toks.lower_of(i)).collect();
        assert_eq!(
            lowers,
            vec![
                "οδος",
                "σας",
                "aς",
                "σ",
                "ångström",
                "i\u{307}stanbul",
                "san"
            ]
        );
        assert_eq!(toks.window_lower(0, 2), "οδος σας");
        for i in 0..toks.len() {
            assert_eq!(toks.lower_of(i), toks.text_of(i).to_lowercase());
        }
    }

    #[test]
    fn separators_other_than_a_space_keep_spans_exact() {
        let sentence = "San\u{a0}Francisco\tis\u{b}\u{2003} big";
        let toks = tokenize(sentence);
        assert_eq!(texts(&toks), vec!["San", "Francisco", "is", "big"]);
        assert_eq!(toks[1].span(), (5, 14));
        assert_eq!(toks[3].span(), (sentence.len() - 3, sentence.len()));
    }

    #[test]
    fn sentence_bounds_scan_bytes_around_multibyte_text() {
        let text = "Москва is big. 東京!ΟΔΟΣ?\u{a0}я\u{2003}";
        let sentences = split_sentences(text);
        assert_eq!(sentences, vec!["Москва is big", "東京", "ΟΔΟΣ", "я"]);
    }

    #[test]
    fn singular_parts_and_singularize_are_one_definition() {
        for word in [
            "cities", "foxes", "snakes", "glass", "is", "was", "beaches", "s", "ies",
        ] {
            let joined = singular_parts(word).map(|(stem, suffix)| format!("{stem}{suffix}"));
            assert_eq!(joined, singularize(word), "{word}");
        }
        assert_eq!(singular_parts("poppies"), Some(("popp", "y")));
        assert_eq!(singular_parts("walrus"), Some(("walru", "")));
    }

    #[test]
    fn nominal_pos_class() {
        assert!(Pos::Noun.is_nominal());
        assert!(Pos::ProperNoun.is_nominal());
        assert!(Pos::Pronoun.is_nominal());
        assert!(!Pos::Adjective.is_nominal());
    }
}
