//! Natural-language-processing substrate for the Surveyor reproduction.
//!
//! The paper consumes "an annotated Web snapshot that was preprocessed using
//! NLP tools similar to the Stanford parser and by an entity extractor that
//! identifies mentions of knowledge base entities" (§4). Neither tool is
//! available here, so this crate implements the required slice from scratch:
//!
//! - [`token`]: sentence splitting and tokenization (with contraction
//!   handling — `don't` → `do` + `n't`, exactly the token split Figure 5 of
//!   the paper displays) plus the part-of-speech inventory.
//! - [`lexicon`]: closed-class function words, open-class vocabulary, and
//!   morphology-based fallback tagging.
//! - [`parser`]: a deterministic rule-cascade dependency parser producing
//!   Stanford-typed dependency trees (`nsubj`, `cop`, `amod`, `advmod`,
//!   `conj`, `cc`, `neg`, `det`, `prep`, `pobj`, `ccomp`, `mark`, `aux`,
//!   `dobj`) for the copular / attributive / embedded-clause sentence
//!   families the corpus contains.
//! - [`tagger`]: the entity tagger — longest-match alias lookup against the
//!   knowledge base with lemmatization and context-cue disambiguation
//!   (ambiguous mentions are dropped, mirroring the paper's precision-first
//!   ambiguity test in §2).
//! - [`coref`]: sentence-local coreference between an entity mention and a
//!   predicate-nominal / appositive type noun ("Snakes are dangerous
//!   *animals*"), which the adjectival-modifier pattern requires.
//! - [`document`]: the annotated-document model and the one-call
//!   [`document::annotate`] pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coref;
#[cfg(test)]
mod differential;
pub mod document;
pub mod lexicon;
pub mod parser;
pub mod tagger;
pub mod token;

pub use document::{
    annotate, annotate_with, AnnotateScratch, AnnotatedDocument, AnnotatedSentence,
};
pub use lexicon::Lexicon;
pub use parser::{parse, DepRel, DepTree};
pub use tagger::{tag_entities, Mention};
pub use token::{split_sentences, tokenize, tokenize_with, Pos, Token, TokenizedSentence};
