//! `surveyor-lint` — a workspace static-analysis pass enforcing the
//! determinism and panic-freedom invariants earlier PRs promised.
//!
//! Surveyor guarantees bit-identical output across thread counts,
//! schema-stable run reports, and panic-isolated fault-tolerant
//! sharding — none of which the compiler checks. A stray `unwrap()` in
//! a shard worker silently converts a typed `ShardError` into a
//! quarantine; an `Instant::now()` or unseeded RNG in a decision path
//! breaks reproducibility; a `std::collections::HashMap` feeding a
//! report breaks `diff`-ability. Clippy has no notion of these domain
//! rules, and the offline vendored toolchain rules out dylint/syn, so
//! this crate rebuilds the analyzer from scratch, in two layers:
//!
//! - [`lexer`] — a hand-rolled, panic-free Rust lexer (comments,
//!   strings, raw strings, char-vs-lifetime, byte-range spans);
//! - [`syntax`] — brace-matched token trees and item extraction
//!   (fn/impl/mod/use with spans and visibility) over the lexer;
//! - [`config`] — the committed `lint.toml` scoping rules to
//!   crates/paths, parsed by a minimal hand-rolled TOML-subset reader;
//! - [`rules`] — the rule table and token-level scan engine, with
//!   per-line `// lint:allow(<rule>)` pragmas and unused-allow
//!   detection;
//! - [`callgraph`] — per-crate function call graphs and the four
//!   flow-aware rules (panic reachability, lock ordering, unordered
//!   iteration taint, deadline propagation);
//! - [`walker`] — deterministic sorted workspace traversal;
//! - [`output`] — `file:line:col` human listings and the versioned
//!   (v2) JSON report.
//!
//! Files are scanned in parallel by a claim-cursor worker pool and
//! merged back in walk order, then the flow rules run over the full
//! summary set — so the report is byte-identical at any worker count.
//!
//! The binary (`cargo run --release -p surveyor-lint`) exits 0 on a
//! clean workspace, 1 when there are findings, and 2 on usage,
//! configuration or IO errors — `scripts/verify.sh` treats any nonzero
//! exit as a gate failure.
//!
//! ```
//! use surveyor_lint::{config::LintConfig, rules};
//!
//! let mut findings = Vec::new();
//! rules::scan_file(
//!     "crates/demo/src/lib.rs",
//!     b"fn f(x: Option<u8>) -> u8 { x.unwrap() }",
//!     false,
//!     &LintConfig::default(),
//!     &mut findings,
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-panic-in-lib");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod syntax;
pub mod walker;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Result of linting a workspace: sorted findings plus scan stats.
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// All findings, sorted by `(file, line, col, rule, message)`.
    pub findings: Vec<rules::Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Errors that stop a lint run before any file is judged.
#[derive(Debug)]
pub enum LintError {
    /// `lint.toml` is missing or malformed.
    Config(String),
    /// The workspace could not be read.
    Io(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(m) | Self::Io(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints every `.rs` file under `root` using `config`, scanning files
/// on `workers` threads (at least one).
///
/// The pipeline: collect files (sorted), lex, parse and summarize each
/// on a claim-cursor pool, merge the per-file scans back in walk order,
/// run the flow rules over all summaries, then apply pragmas globally
/// and sort. The width changes wall-time, never the findings — which is
/// why it does not appear in the JSON report. When files cannot be
/// read, the error names the first of them in walk order.
pub fn lint_workspace(
    root: &Path,
    config: &config::LintConfig,
    workers: usize,
) -> Result<LintRun, LintError> {
    let files = walker::collect_rust_files(root, config)
        .map_err(|e| LintError::Io(format!("walking {}: {e}", root.display())))?;

    // Claim-cursor fan-out: each worker claims the next unscanned index
    // and hands back what it scanned, index attached, through the join.
    let cursor = AtomicUsize::new(0);
    let scan_claimed = || {
        let mut done = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(file) = files.get(idx) else {
                break done;
            };
            let scan = std::fs::read(&file.abs)
                .map(|src| rules::analyze_file(&file.rel, &src, file.is_crate_root, config))
                .map_err(|e| format!("reading {}: {e}", file.rel));
            done.push((idx, scan));
        }
    };
    let mut scanned = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, files.len().max(1)))
            .map(|_| scope.spawn(scan_claimed))
            .collect();
        let mut scanned = Vec::with_capacity(files.len());
        for handle in handles {
            let done = handle
                .join()
                .map_err(|_| LintError::Io("a scan worker panicked".to_owned()))?;
            scanned.extend(done);
        }
        Ok(scanned)
    })?;
    scanned.sort_unstable_by_key(|&(idx, _)| idx);
    let scans = scanned
        .into_iter()
        .map(|(_, scan)| scan.map_err(LintError::Io))
        .collect::<Result<Vec<_>, _>>()?;

    let (flow, gated) = callgraph::run_flow_rules(&scans, config);
    Ok(LintRun {
        findings: rules::finalize(&scans, flow, &gated),
        files_scanned: files.len(),
    })
}

/// Loads `lint.toml` from `path`.
pub fn load_config(path: &Path) -> Result<config::LintConfig, LintError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| LintError::Config(format!("reading {}: {e}", path.display())))?;
    let parsed = config::parse(&src).map_err(|e| LintError::Config(e.to_string()))?;
    for rule in parsed.rules.keys() {
        if rules::rule_by_name(rule).is_none() {
            return Err(LintError::Config(format!(
                "lint.toml configures unknown rule `{rule}` (known: {})",
                rules::RULES
                    .iter()
                    .map(|r| r.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    Ok(parsed)
}
