//! The Surveyor probabilistic user-behavior model (paper §5–§6).
//!
//! This crate is the paper's primary contribution: a per-(type, property)
//! Bayesian network over author behavior —
//!
//! ```text
//! D_i  (dominant opinion)  --pA-->  O_iw (author opinion)
//! O_iw --p+S / p-S-->  S_iw (statement / no statement)
//! (C+_i, C-_i) = counts of S_iw = +/- over all documents w
//! ```
//!
//! whose count likelihood factorizes into four Poisson distributions
//! (`λ^{σ2}_{σ1} = n · f(pA) · pS`), trained unsupervised with
//! expectation-maximization where both steps have closed forms, making each
//! iteration O(m) in the number of entities and independent of the number
//! of mentions (§6).
//!
//! Modules:
//! - [`counts`]: the observed evidence tuple `⟨C+, C-⟩`, and a group's
//!   tuples as a [`CountTable`] of distinct pairs (what EM and the
//!   decide pass evaluate once per pair).
//! - [`params`]: model parameters `(pA, np+S, np-S)` and the four Poisson
//!   rates.
//! - [`inference`]: the posterior `Pr(D_i | C+_i, C-_i)` (the E-step and
//!   the deployed decision rule).
//! - [`em`]: the EM fitting loop with the closed-form M-step.
//! - [`decision`]: Algorithm 1's thresholded output.
//! - [`baselines`]: the comparison methods of §7.4 — majority vote, scaled
//!   majority vote, and a WebChild-style occurrence baseline.
//! - [`model`]: the [`OpinionModel`] trait unifying Surveyor and the
//!   baselines for the evaluation harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod counts;
pub mod decision;
pub mod em;
pub mod inference;
pub mod model;
pub mod params;

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use baselines::{MajorityVote, ScaledMajorityVote, WebChildBaseline};
pub use counts::{CountTable, ObservedCounts};
pub use decision::{decide, Decision, ModelDecision};
pub use em::{fit, fit_table, ConvergenceReason, EmConfig, EmFit};
pub use inference::posterior_positive;
pub use model::{OpinionModel, SurveyorModel};
pub use params::ModelParams;
