//! Benchmark-harness support library: experiment drivers and plain-text
//! rendering for the `repro` binary, which regenerates every table and
//! figure of the paper, and for the `bench` binary's gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;
#[cfg(test)]
mod rules;
pub mod scaling;

pub use experiments::ReproConfig;

/// Writes an artifact to `path` as pretty-printed JSON.
pub fn write_artifact(path: &str, artifact: &impl serde::Serialize) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(artifact).expect("serializable artifact");
    std::fs::write(path, json)
}
