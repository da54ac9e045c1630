//! Probability and statistics substrate for the Surveyor reproduction.
//!
//! The Surveyor paper (SIGMOD 2015) models statement counts with Poisson
//! distributions, samples synthetic worlds from Zipf-like popularity laws,
//! and evaluates output with rank statistics. None of these primitives were
//! taken from an external crate; this crate implements them from scratch so
//! the rest of the workspace can rely on a small, well-tested numeric core.
//!
//! Modules:
//! - [`logspace`]: numerically stable log-domain arithmetic
//!   (`ln_factorial`, `ln_gamma`).
//! - [`poisson`]: Poisson pmf / log-pmf and sampling (Knuth for small
//!   rates, PTRS transformed rejection for large rates).
//! - [`stats`]: descriptive statistics — percentiles, correlation, Welford
//!   summaries.
//! - [`rng`]: deterministic seed derivation and the workspace's one
//!   generator, [`Rng`] (xoshiro256**), so every experiment is
//!   reproducible from a single master seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod logspace;
pub mod poisson;
pub mod rng;
pub mod stats;

pub use logspace::{ln_factorial, ln_gamma};
pub use poisson::Poisson;
pub use rng::{Rng, SeedStream};
pub use stats::{
    pearson, percentile, percentile_sorted, percentile_sorted_or_zero, spearman, Summary,
};
