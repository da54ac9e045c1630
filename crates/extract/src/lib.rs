//! Evidence extraction pipeline (paper §4 and Appendix B).
//!
//! Turns annotated documents into per-(entity, property) counts of positive
//! and negative statements:
//!
//! - [`config`]: which dependency patterns run, which verb class the
//!   adjectival-complement pattern admits, and whether the intrinsicness
//!   filters are active — including the four pattern versions of Table 4.
//! - [`patterns`]: the three extraction patterns of Figure 4 (adjectival
//!   modifier, adjectival complement, conjunction) over dependency trees.
//! - [`polarity`]: statement polarity via the negation-counting walk from
//!   the property token to the tree root (Figure 5), handling double
//!   negation.
//! - [`evidence`]: statements, evidence counters, and merge-able tables
//!   keyed by entity-property pairs, plus grouping by (type, property).
//! - [`runner`]: a sharded, multi-threaded extraction driver (the
//!   reproduction's stand-in for the paper's 5000-node MapReduce cluster).
//! - [`fault`]: the fault-tolerance layer — typed shard errors, the
//!   fallible source trait, retry/quarantine policies, and a seeded
//!   chaos injector for tests and the bench harness.
//! - [`antonyms`]: the antonym-as-negation alternative the paper rejected
//!   in §4, implemented so the ablation can measure why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antonyms;
pub mod config;
#[cfg(test)]
mod differential;
pub mod evidence;
pub mod fault;
pub mod patterns;
pub mod polarity;
pub mod provenance;
pub mod runner;

pub use antonyms::AntonymLexicon;
pub use config::{ExtractionConfig, PatternVersion, VerbSet};
pub use evidence::{
    EvidenceCounts, EvidenceEntry, EvidenceTable, GroupKey, GroupedEvidence, Polarity, Statement,
};
pub use fault::{
    FailurePolicy, FallibleShardSource, Fault, FaultInjector, FaultPlan, QuarantinedShard,
    RetryPolicy, RunError, RunOutcome, ShardCoverage, ShardError, ShardSubset,
};
pub use patterns::{extract_sentence, extract_sentence_into, ExtractContext, PatternCounts};
pub use provenance::ProvenanceTable;
pub use runner::{
    extract_documents, run_sharded_fault_tolerant, run_sharded_full, ExtractionOutput, ShardSource,
};
