//! Observability layer for the Surveyor pipeline.
//!
//! The paper's evaluation (§7) hinges on quantities the pipeline would
//! otherwise keep to itself: per-phase wall time, extraction throughput,
//! and how many EM iterations each (type, property) combination needed
//! before converging. This crate makes those observable without adding
//! any third-party dependency (only the workspace's vendored shims):
//!
//! - [`MetricsRegistry`] — a thread-safe registry of named counters,
//!   gauges, and histograms. Counter handles are plain atomics, so hot
//!   paths increment worker-local integers and flush once on join.
//! - [`SpanGuard`] (via [`MetricsRegistry::span`] or the [`span!`]
//!   macro) — a scope guard that records a named phase's wall time and
//!   item count on drop; repeated records under one name accumulate, so
//!   per-worker CPU slices sum into a single phase row.
//! - [`RunReport`] — a versioned, serializable snapshot of everything
//!   the registry collected, plus the per-group EM telemetry pushed by
//!   the interpretation phase. Reports render as a human-readable table
//!   or as JSON.
//! - [`claim_fold`] / [`claim_map`] — the one claim-cursor worker pool
//!   every parallel phase (generation, extraction, interpretation) runs
//!   on; it times its workers, which is why it lives here.
//!
//! ## Typical wiring
//!
//! ```
//! use surveyor_obs::{span, MetricsRegistry};
//!
//! let registry = MetricsRegistry::new();
//! {
//!     let mut span = span!(registry, "extract");
//!     // ... do the work ...
//!     registry.add("extract.documents", 128);
//!     span.set_items(128);
//! } // span drop records wall time + throughput
//! let report = registry.report();
//! assert_eq!(report.phases[0].name, "extract");
//! assert_eq!(report.counters["extract.documents"], 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod pool;
pub mod registry;
pub mod report;

pub use histogram::{Histogram, HistogramSummary};
pub use pool::{claim_fold, claim_map, Claimed};
pub use registry::{Counter, FaultSummary, MetricsRegistry, SpanGuard};
pub use report::{EmGroupReport, PhaseReport, RunReport, REPORT_VERSION};

/// Opens a phase span on a registry: `span!(registry, "extract")` is
/// shorthand for [`MetricsRegistry::span`]. The guard records the phase
/// on drop.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.span($name)
    };
}
