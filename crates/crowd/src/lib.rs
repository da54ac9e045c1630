//! Crowd (Amazon Mechanical Turk) simulator.
//!
//! The paper approximates the dominant opinion by polling 20 AMT workers
//! per entity-property combination (10,000 opinions, §7.3). The
//! reproduction replaces the worker pool with a calibrated simulator: each
//! worker votes with the planted dominant opinion with a per-combination
//! agreement probability, reproducing the published agreement spectrum
//! (mean agreement ≈ 17/20, ~180 of 500 unanimous cases, ~4% ties).
//!
//! - [`panel`]: test cases, worker panels, and verdicts.
//! - [`stats`]: the agreement statistics behind Figures 10–12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod panel;
pub mod stats;

pub use panel::{CrowdVerdict, Panel, TestCase};
pub use stats::{cases_at_or_above, mean_agreement};
