//! # Surveyor — mining subjective properties on the Web
//!
//! A production-quality Rust reproduction of *Mining Subjective Properties
//! on the Web* (Trummer, Halevy, Lee, Sarawagi, Gupta — SIGMOD 2015).
//!
//! Surveyor decides, for entity-property pairs like *(kitten, cute)* or
//! *(San Francisco, big)*, whether the **dominant opinion** among Web
//! authors applies the property to the entity. Instead of majority-voting
//! extracted statements — which fails under *polarity bias* (people rarely
//! write "X is not cute") and *occurrence bias* (big cities get written
//! about more) — it fits, per (type, property) combination, a Bayesian
//! model of author behavior with closed-form EM, then infers each entity's
//! opinion from its statement counts (including the all-zero counts of
//! never-mentioned entities).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use surveyor::prelude::*;
//!
//! // A tiny knowledge base.
//! let mut b = KnowledgeBaseBuilder::new();
//! let animal = b.add_type("animal", &["animal"], &[]);
//! b.add_entity("Kitten", animal).finish();
//! b.add_entity("Tiger", animal).finish();
//! let kb = Arc::new(b.build());
//!
//! // A synthetic Web corpus over it (in production this would be a real
//! // annotated snapshot).
//! let world = WorldBuilder::new(kb.clone(), 42)
//!     .domain("animal", Property::adjective("cute"), DomainParams::default())
//!     .build();
//! let generator = CorpusGenerator::new(world, CorpusConfig::default());
//!
//! // Run Algorithm 1 end to end.
//! let surveyor = Surveyor::new(kb, SurveyorConfig { rho: 5, ..Default::default() });
//! let output = surveyor.run(&CorpusSource::new(&generator));
//! for triple in output.triples() {
//!     println!("{} {} {}", triple.entity, triple.property, triple.polarity);
//! }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | `surveyor-prob` | Poisson/Zipf distributions, log-space math, stats |
//! | `surveyor-kb` | knowledge base (entities, types, aliases, attributes) |
//! | `surveyor-nlp` | tokenizer, POS tagger, dependency parser, entity tagger |
//! | `surveyor-corpus` | generative Web-snapshot simulator |
//! | `surveyor-extract` | Figure 4 patterns, polarity, counters, shard runner |
//! | `surveyor-model` | Bayesian user model, EM, baselines |
//! | `surveyor-obs` | metrics registry, phase spans, run reports |
//! | `surveyor-crowd` | AMT worker-panel simulator |
//! | `surveyor-wire` | versioned binary snapshot format (FORMAT.md) |
//! | `surveyor` (this) | Algorithm 1 orchestration and the public API |
//!
//! ## Observability
//!
//! Attach a [`obs::MetricsRegistry`] with [`Surveyor::with_observer`] to
//! record per-phase wall time, extraction counters, and per-combination
//! EM convergence telemetry, then snapshot a versioned JSON run report:
//!
//! ```
//! use std::sync::Arc;
//! use surveyor::obs::MetricsRegistry;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! // let surveyor = Surveyor::new(kb, config).with_observer(registry.clone());
//! // surveyor.run(&source);
//! let report = registry.report();
//! println!("{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod entity_index;
pub mod incremental;
pub mod objective;
pub mod pipeline;
pub mod snapshot;
pub mod source;
pub mod store;

pub use diff::diff_snapshots;
pub use incremental::{UpdateOutcome, UpdateStats, WarmStart};
pub use objective::{adjudicate_with_link, link_objective, LinkDirection, ObjectiveLink};
pub use pipeline::{
    DomainResult, OpinionTriple, Surveyor, SurveyorConfig, SurveyorOutput, SurveyorRun,
};
pub use snapshot::{
    load_snapshot, load_snapshot_with_state, load_store, output_from_snapshot, save_snapshot,
    save_snapshot_with_state, snapshot_output, snapshot_output_with_state, SnapshotError,
};
pub use source::{CorpusSource, UnknownRegion};
pub use store::{BlockRef, CombinationBlock, OpinionRef, StoredOpinion, SubjectiveKb};
pub use surveyor_extract::{
    FailurePolicy, FallibleShardSource, Fault, FaultInjector, FaultPlan, QuarantinedShard,
    RetryPolicy, RunError, ShardCoverage, ShardError, ShardSubset,
};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::pipeline::{Surveyor, SurveyorConfig, SurveyorOutput, SurveyorRun};
    pub use crate::source::{CorpusSource, UnknownRegion};
    pub use surveyor_corpus::{
        CorpusConfig, CorpusGenerator, DomainParams, OpinionRule, PopularityRule, World,
        WorldBuilder,
    };
    pub use surveyor_extract::{ExtractionConfig, PatternVersion};
    pub use surveyor_extract::{
        FailurePolicy, FaultInjector, FaultPlan, RetryPolicy, RunError, ShardCoverage, ShardSubset,
    };
    pub use surveyor_kb::{EntityId, KnowledgeBase, KnowledgeBaseBuilder, Property, TypeId};
    pub use surveyor_model::{Decision, EmConfig, ModelParams, OpinionModel, SurveyorModel};
    pub use surveyor_obs::{MetricsRegistry, RunReport};
}

// Re-export the subsystem crates under stable names.
pub use surveyor_corpus as corpus;
pub use surveyor_crowd as crowd;
pub use surveyor_extract as extract;
pub use surveyor_kb as kb;
pub use surveyor_model as model;
pub use surveyor_nlp as nlp;
pub use surveyor_obs as obs;
pub use surveyor_prob as prob;
pub use surveyor_wire as wire;
