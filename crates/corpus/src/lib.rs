//! Synthetic Web-corpus substrate for the Surveyor reproduction.
//!
//! The paper processes a proprietary 40 TB annotated Web snapshot. This
//! crate replaces it with a *generative simulator* that realizes a known
//! ground-truth world into actual English documents:
//!
//! 1. A [`world::World`] fixes, per (type, property) domain, the dominant
//!    opinion of every entity plus the true behavioral parameters
//!    `(pA*, np+S*, np-S*)` of the paper's user model (Figure 7) —
//!    including polarity bias (`np+S* ≠ np-S*`) and occurrence bias
//!    (statement rates depend on the opinion class).
//! 2. The [`generator::CorpusGenerator`] samples per-shard statement counts
//!    from the model's Poisson laws (Poisson additivity makes shards
//!    independently generable), realizes each statement as a sentence via
//!    [`templates`] (declaratives, embedded clauses, double negations,
//!    plus non-intrinsic and part-of distractor noise), and packs
//!    sentences into documents with region tags.
//!
//! [`fuzz`] crosses the same templates with the perturbations real Web text
//! applies to them (case, scripts, punctuation, separators, contractions);
//! it feeds the differential tests of the NLP and extraction crates, not
//! the corpus.
//!
//! Because documents are *text*, the entire downstream pipeline — POS
//! tagging, dependency parsing, entity linking, pattern extraction,
//! polarity detection — is exercised end-to-end, and every experiment can
//! score against the planted ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod generator;
pub mod presets;
pub mod templates;
pub mod world;

pub use generator::{CorpusConfig, CorpusGenerator, GenScratch, RawDocument};
pub use templates::SentenceBuf;
pub use world::{DomainParams, DomainSpec, OpinionRule, PopularityRule, World, WorldBuilder};
