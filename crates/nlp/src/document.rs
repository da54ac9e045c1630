//! Annotated documents: the unit the extraction pipeline consumes.
//!
//! Mirrors the paper's input format — "annotations contain the resulting
//! dependency tree representation of sentences and the links to knowledge
//! base entities" (§4).

use crate::lexicon::Lexicon;
use crate::parser::{parse_with, DepTree, ParseScratch};
use crate::tagger::{tag_entities_with, Mention};
use crate::token::{split_sentence_bounds, tokenize_with, TokenizedSentence};
use surveyor_kb::KnowledgeBase;

/// One sentence with tokens, dependency tree, and linked entity mentions.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedSentence {
    /// Tagged span tokens plus the sentence text they index into.
    pub tokens: TokenizedSentence,
    /// Typed dependency tree over the tokens.
    pub tree: DepTree,
    /// Entity mentions, non-overlapping, left to right.
    pub mentions: Vec<Mention>,
}

/// A fully annotated document.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedDocument {
    /// Document identifier (stable across runs for a fixed corpus seed).
    pub id: u64,
    /// Annotated sentences in order.
    pub sentences: Vec<AnnotatedSentence>,
}

impl AnnotatedDocument {
    /// Total number of entity mentions.
    pub fn mention_count(&self) -> usize {
        self.sentences.iter().map(|s| s.mentions.len()).sum()
    }
}

/// Reusable intermediate buffers for [`annotate_with`].
///
/// The annotated output owns its tokens and trees, so those cannot be
/// pooled — but the sentence-boundary list, the tokenizer's
/// trailing-punctuation queue, the parser's work lists and the entity
/// tagger's lemma buffer are pure intermediates. One scratch per worker,
/// reused across every document it annotates, removes the per-document and
/// per-word allocations those used to cost.
#[derive(Debug, Default)]
pub struct AnnotateScratch {
    sentence_bounds: Vec<(usize, usize)>,
    trailing: Vec<(usize, usize)>,
    parse: ParseScratch,
    lemma: String,
}

/// Runs the full annotation pipeline on raw text: sentence split →
/// tokenize → POS-tag → parse → entity-tag.
///
/// Sentences that fail to parse (empty after tokenization) are skipped.
pub fn annotate(id: u64, text: &str, kb: &KnowledgeBase, lexicon: &Lexicon) -> AnnotatedDocument {
    annotate_with(id, text, kb, lexicon, &mut AnnotateScratch::default())
}

/// [`annotate`] with caller-owned scratch buffers, for loops that annotate
/// many documents (the corpus generator and the bench shard sources).
pub fn annotate_with(
    id: u64,
    text: &str,
    kb: &KnowledgeBase,
    lexicon: &Lexicon,
    scratch: &mut AnnotateScratch,
) -> AnnotatedDocument {
    scratch.sentence_bounds.clear();
    split_sentence_bounds(text, &mut scratch.sentence_bounds);
    let mut sentences = Vec::with_capacity(scratch.sentence_bounds.len());
    for &(from, to) in &scratch.sentence_bounds {
        let mut tokens = tokenize_with(&mut scratch.trailing, &text[from..to]);
        if tokens.is_empty() {
            continue;
        }
        lexicon.tag(&mut tokens);
        let Some(tree) = parse_with(&mut scratch.parse, &tokens) else {
            continue;
        };
        let mentions = tag_entities_with(&mut scratch.lemma, &tokens, kb);
        sentences.push(AnnotatedSentence {
            tokens,
            tree,
            mentions,
        });
    }
    AnnotatedDocument { id, sentences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        let city = b.add_type("city", &["city"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("San Francisco", city).finish();
        b.build()
    }

    #[test]
    fn annotates_multi_sentence_document() {
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(
            7,
            "Kittens are cute. San Francisco is not a big city. The weather is nice.",
            &kb,
            &lex,
        );
        assert_eq!(doc.id, 7);
        assert_eq!(doc.sentences.len(), 3);
        assert_eq!(doc.sentences[0].mentions.len(), 1);
        assert_eq!(doc.sentences[1].mentions.len(), 1);
        assert_eq!(doc.sentences[2].mentions.len(), 0);
        assert_eq!(doc.mention_count(), 2);
        assert!(doc.sentences.iter().map(|s| s.tokens.len()).sum::<usize>() > 10);
    }

    #[test]
    fn trees_are_valid() {
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(
            0,
            "Kittens are cute. I do not think kittens are ugly.",
            &kb,
            &lex,
        );
        for s in &doc.sentences {
            s.tree.validate().expect("valid tree");
            assert_eq!(s.tree.len(), s.tokens.len());
        }
    }

    #[test]
    fn empty_text_yields_empty_document() {
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(1, "", &kb, &lex);
        assert!(doc.sentences.is_empty());
    }
}
