//! The rule table, the token-level scan engine, and the global
//! pragma-application phase.
//!
//! Every rule here encodes an invariant an earlier PR promised and the
//! compiler cannot check:
//!
//! | rule | layer | guards |
//! |---|---|---|
//! | `no-panic-in-lib` | token | PR 3's `catch_unwind` shard isolation: a panic in library code becomes a quarantined shard instead of a typed `ShardError` |
//! | `no-wall-clock` | token | bit-identical reruns: decisions must not read `Instant`/`SystemTime` |
//! | `no-unseeded-rng` | token | reproducible EM evaluation: all randomness flows from explicit seeds |
//! | `no-print-in-lib` | token | PR 2's report discipline: output goes through obs/`RunReport`, not stdout |
//! | `no-unordered-iter` | token | `RunReport::diff` stability: no `std::collections::HashMap` in paths that feed serialized output |
//! | `forbid-unsafe-missing` | token | every crate root opts the whole crate out of `unsafe` |
//! | `no-shared-lock-in-worker-loop` | token | PR 5's worker-local accumulation: no shared-lock traffic on the hot path |
//! | `panic-reachability` | flow | no panic site is reachable from a public API through the call graph |
//! | `lock-order` | flow | nested lock acquisitions follow one canonical order crate-wide |
//! | `unordered-iter-flow` | flow | unordered iteration does not flow through lets/returns into a serialization sink |
//! | `deadline-propagation` | flow | server handlers thread the request `Deadline` into every blocking call |
//!
//! Token rules operate on the stream from [`crate::lexer`], so text in
//! comments and string literals never matches; flow rules run after
//! every file is scanned, over the call graph [`crate::callgraph`]
//! builds from the [`crate::syntax`] trees. Code under `#[cfg(test)]`
//! (and items under `#[test]`) is exempt from the lib-code rules; see
//! `test_regions`. A finding on a line carrying a
//! `// lint:allow(<rule>)` pragma is suppressed, and a pragma that
//! suppresses nothing is itself reported under the `unused-allow`
//! meta-rule. Because flow findings only exist after the graph phase,
//! pragma application is a global pass ([`finalize`]), not a per-file
//! one.

use crate::callgraph::{self, FileSummary};
use crate::config::LintConfig;
use crate::lexer::{lex, LineIndex, Token, TokenKind};
use crate::syntax;
use std::collections::BTreeSet;

/// The meta-rule name for pragmas that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Version of the rule set as a whole. Bumped whenever a rule is
/// added, removed, or changes its matching semantics; stamped into
/// every JSON report.
pub const RULESET_VERSION: u32 = 2;

/// How severe a finding is. Every finding fails the gate; severity is
/// reported, not filtered on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks a correctness invariant (determinism, panic isolation).
    Error,
    /// Degrades quality or performance; advisory but gate-failing by
    /// default.
    Warning,
    /// Informational.
    Info,
}

impl Severity {
    /// The lowercase name used in JSON reports and `--list-rules`.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warning => "warning",
            Self::Info => "info",
        }
    }
}

/// Which analysis layer produces a rule's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Per-file token-pattern matching.
    Token,
    /// Whole-workspace call-graph / taint analysis.
    Flow,
}

impl Layer {
    /// The lowercase name used by `--list-rules` and the docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Token => "token",
            Self::Flow => "flow",
        }
    }
}

/// One rule's identity and documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Rule name, as used in `lint.toml` and pragmas.
    pub name: &'static str,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
    /// Whether `#[cfg(test)]` / `#[test]` regions are exempt.
    pub exempt_test_code: bool,
    /// Default severity of the rule's findings.
    pub severity: Severity,
    /// Version of this rule's matching semantics.
    pub version: u32,
    /// Which layer produces the findings.
    pub layer: Layer,
    /// Machine-readable default fix hint.
    pub fix_hint: &'static str,
}

/// The rule set, in documentation order: the token layer first, then
/// the flow layer.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "no-panic-in-lib",
        summary: "unwrap/expect/panic!/todo!/unimplemented! in library code defeats \
                  catch_unwind shard isolation",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "return a typed error (`?`/`Result`) or document the invariant with \
                   `// lint:allow(no-panic-in-lib): <why>`",
    },
    RuleDef {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime in decision paths breaks bit-identical reruns",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "measure in crates/obs or inject the reading; pragma only when it \
                   cannot influence mined output",
    },
    RuleDef {
        name: "no-unseeded-rng",
        summary: "thread_rng/from_entropy bypasses explicit seeding; randomness must flow \
                  from seeds",
        exempt_test_code: false,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "derive the RNG from an explicit seed, e.g. `StdRng::seed_from_u64`",
    },
    RuleDef {
        name: "no-print-in-lib",
        summary: "println!/eprintln! in library code bypasses obs/RunReport",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "route output through obs::RunReport or return data to the CLI layer",
    },
    RuleDef {
        name: "no-unordered-iter",
        summary: "std::collections::HashMap in report/decide/serialization paths makes \
                  emission order nondeterministic",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "use BTreeMap, or collect and sort before emission",
    },
    RuleDef {
        name: "forbid-unsafe-missing",
        summary: "crate roots must carry #![forbid(unsafe_code)]",
        exempt_test_code: false,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Token,
        fix_hint: "add `#![forbid(unsafe_code)]` as the first line of the crate root",
    },
    RuleDef {
        name: "no-shared-lock-in-worker-loop",
        summary: "Mutex/RwLock acquisition in extract/core worker code serializes the \
                  hot path; accumulate worker-locally and merge after the join",
        exempt_test_code: true,
        severity: Severity::Warning,
        version: 1,
        layer: Layer::Token,
        fix_hint: "accumulate worker-locally and merge by shard order after the join",
    },
    RuleDef {
        name: "panic-reachability",
        summary: "a panic site reachable from a public fn through the call graph \
                  defeats shard isolation transitively",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Flow,
        fix_hint: "return a typed error along the call path, or gate the panic site \
                   with `// lint:allow(panic-reachability): <invariant>`",
    },
    RuleDef {
        name: "lock-order",
        summary: "nested lock acquisitions must follow one canonical order (kb \
                  interner: shard write, then properties write) in every function",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Flow,
        fix_hint: "reorder the acquisitions to match the established order",
    },
    RuleDef {
        name: "unordered-iter-flow",
        summary: "a HashMap/HashSet iteration flowing through lets/returns into a \
                  serialization sink makes emission order nondeterministic",
        exempt_test_code: true,
        severity: Severity::Warning,
        version: 1,
        layer: Layer::Flow,
        fix_hint: "sort the iteration (collect to a Vec and sort, or use \
                   BTreeMap/BTreeSet) before the sink",
    },
    RuleDef {
        name: "deadline-propagation",
        summary: "a handler holding a request Deadline must pass it to every callee \
                  that accepts one; dropping it unbounds blocking work",
        exempt_test_code: true,
        severity: Severity::Error,
        version: 1,
        layer: Layer::Flow,
        fix_hint: "pass the deadline parameter through to the blocking callee",
    },
];

/// The `unused-allow` meta-rule's definition (not part of [`RULES`]
/// because it cannot be scoped or suppressed — it reports on the
/// pragma machinery itself).
pub const UNUSED_ALLOW_DEF: RuleDef = RuleDef {
    name: UNUSED_ALLOW,
    summary: "meta-rule: a lint:allow pragma that suppresses nothing",
    exempt_test_code: false,
    severity: Severity::Warning,
    version: 1,
    layer: Layer::Token,
    fix_hint: "delete the pragma",
};

/// Looks up a rule definition by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.name == name)
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (a rule from [`RULES`] or [`UNUSED_ALLOW`]).
    pub rule: String,
    /// Severity, copied from the rule definition.
    pub severity: Severity,
    /// Version of the rule that produced this finding.
    pub rule_version: u32,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-readable fix hint.
    pub fix_hint: String,
}

impl Finding {
    /// Builds a finding for `def` with the rule's default fix hint.
    pub fn of(def: &RuleDef, file: &str, line: u32, col: u32, message: String) -> Self {
        Self {
            rule: def.name.to_owned(),
            severity: def.severity,
            rule_version: def.version,
            file: file.to_owned(),
            line,
            col,
            message,
            fix_hint: def.fix_hint.to_owned(),
        }
    }

    /// Replaces the default fix hint with a finding-specific one.
    pub fn with_hint(mut self, hint: String) -> Self {
        self.fix_hint = hint;
        self
    }

    /// The deterministic ordering key: file, then position, then rule,
    /// then message (flow rules can report two findings at one site).
    pub fn sort_key(&self) -> (&str, u32, u32, &str, &str) {
        (&self.file, self.line, self.col, &self.rule, &self.message)
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A `// lint:allow(rule, ...)` pragma found on a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma's comment starts on.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Rule names listed inside the parentheses.
    pub rules: Vec<String>,
}

/// Everything one file contributes to the lint run: its raw (pre-
/// pragma) token-level findings, its pragmas, and the function
/// summaries the flow rules consume. A scan worker produces one per
/// file; the run merges them in walk order.
#[derive(Debug, Clone, PartialEq)]
pub struct FileScan {
    /// Workspace-relative path.
    pub rel: String,
    /// Token-level findings, pre-pragma, unsorted.
    pub raw: Vec<Finding>,
    /// The file's `lint:allow` pragmas.
    pub pragmas: Vec<Pragma>,
    /// Function summaries for the call-graph phase.
    pub summary: FileSummary,
}

/// Scans one file completely: lexes once, parses the token trees once,
/// and produces the raw findings, pragmas, and flow summaries.
pub fn analyze_file(
    rel_path: &str,
    src: &[u8],
    is_crate_root: bool,
    config: &LintConfig,
) -> FileScan {
    let tokens = lex(src);
    let index = LineIndex::new(src);
    let sig = syntax::significant(&tokens);
    let trees = syntax::parse(&sig, src);
    let test_spans = test_regions(&sig, src);
    let pragmas = collect_pragmas(&tokens, src, &index);
    let raw = scan_tokens(
        rel_path,
        src,
        &sig,
        &index,
        &test_spans,
        is_crate_root,
        config,
    );
    let summary = callgraph::summarize(src, &trees, &index, &test_spans, &pragmas);
    FileScan {
        rel: rel_path.to_owned(),
        raw,
        pragmas,
        summary,
    }
}

/// Scans one file's bytes and appends its findings (already
/// pragma-filtered, unsorted) to `out`.
///
/// This is the token-layer convenience API (used by doctests and unit
/// tests): it applies the file's pragmas locally and reports unused
/// ones, but runs no flow rules — those need the whole workspace; see
/// [`crate::lint_workspace`].
pub fn scan_file(
    rel_path: &str,
    src: &[u8],
    is_crate_root: bool,
    config: &LintConfig,
    out: &mut Vec<Finding>,
) {
    let scan = analyze_file(rel_path, src, is_crate_root, config);
    let empty = BTreeSet::new();
    out.extend(apply_file_pragmas(&scan, Vec::new(), &empty));
}

/// The global post-graph phase: merges each file's raw findings with
/// the flow findings that landed on it, applies pragmas, reports
/// unused pragmas, and returns the fully sorted finding list.
///
/// `gated` holds `(file, line, rule)` triples for pragma-gated flow
/// events that *would* have fired (e.g. a reachable panic site carrying
/// a `lint:allow(panic-reachability)`), so those pragmas count as used
/// even though no finding was ever materialized at their line.
pub fn finalize(
    scans: &[FileScan],
    flow: Vec<Finding>,
    gated: &BTreeSet<(String, u32, String)>,
) -> Vec<Finding> {
    let mut flow_by_file: std::collections::BTreeMap<String, Vec<Finding>> =
        std::collections::BTreeMap::new();
    for finding in flow {
        flow_by_file
            .entry(finding.file.clone())
            .or_default()
            .push(finding);
    }
    let mut out = Vec::new();
    for scan in scans {
        let flow_here = flow_by_file.remove(&scan.rel).unwrap_or_default();
        out.extend(apply_file_pragmas(scan, flow_here, gated));
    }
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Applies one file's pragmas to its raw + flow findings; appends
/// `unused-allow` findings for pragmas that suppressed nothing and were
/// not gating a flow event recorded in `gated`.
fn apply_file_pragmas(
    scan: &FileScan,
    flow: Vec<Finding>,
    gated: &BTreeSet<(String, u32, String)>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut used = vec![false; scan.pragmas.len()];
    for finding in scan.raw.iter().cloned().chain(flow) {
        let mut suppressed = false;
        for (pi, p) in scan.pragmas.iter().enumerate() {
            if p.line == finding.line && p.rules.contains(&finding.rule) {
                used[pi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(finding);
        }
    }
    for (pi, pragma) in scan.pragmas.iter().enumerate() {
        if pragma
            .rules
            .iter()
            .any(|r| gated.contains(&(scan.rel.clone(), pragma.line, r.clone())))
        {
            used[pi] = true;
        }
    }
    for (pragma, was_used) in scan.pragmas.iter().zip(&used) {
        let unknown: Vec<&String> = pragma
            .rules
            .iter()
            .filter(|r| rule_by_name(r).is_none())
            .collect();
        if let Some(bad) = unknown.first() {
            out.push(Finding::of(
                &UNUSED_ALLOW_DEF,
                &scan.rel,
                pragma.line,
                pragma.col,
                format!("pragma names unknown rule `{bad}`"),
            ));
        } else if !was_used {
            out.push(Finding::of(
                &UNUSED_ALLOW_DEF,
                &scan.rel,
                pragma.line,
                pragma.col,
                format!(
                    "`lint:allow({})` suppresses nothing on this line; remove it",
                    pragma.rules.join(", ")
                ),
            ));
        }
    }
    out
}

/// The token-layer scan: raw findings, pre-pragma, unsorted.
fn scan_tokens(
    rel_path: &str,
    src: &[u8],
    sig: &[Token],
    index: &LineIndex,
    test_spans: &[(usize, usize)],
    is_crate_root: bool,
    config: &LintConfig,
) -> Vec<Finding> {
    // Which rules run on this file at all, resolved once.
    let on = |name: &str| config.scope(name).applies_to(rel_path);
    let active: Vec<(&'static RuleDef, bool)> = RULES.iter().map(|r| (r, on(r.name))).collect();
    let rule_on = |name: &str| active.iter().any(|(r, enabled)| r.name == name && *enabled);
    let in_test = |offset: usize| test_spans.iter().any(|&(s, e)| offset >= s && offset < e);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |name: &'static str, offset: usize, message: String| {
        let Some(rule) = rule_by_name(name) else {
            return;
        };
        if rule.exempt_test_code && in_test(offset) {
            return;
        }
        let (line, col) = index.line_col(offset);
        raw.push(Finding::of(rule, rel_path, line, col, message));
    };

    for (i, tok) in sig.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text(src) {
            b"unwrap" | b"expect"
                if rule_on("no-panic-in-lib")
                    && prev_text_is(sig, i, src, b".")
                    && next_text_is(sig, i, src, b"(") =>
            {
                push(
                    "no-panic-in-lib",
                    tok.start,
                    format!(
                        "`.{}()` can panic in library code; return a typed error or \
                             document the invariant with a pragma",
                        string_of(tok.text(src))
                    ),
                );
            }
            b"lock" | b"read" | b"write"
                if rule_on("no-shared-lock-in-worker-loop")
                    && prev_text_is(sig, i, src, b".")
                    && next_text_is(sig, i, src, b"(") =>
            {
                push(
                    "no-shared-lock-in-worker-loop",
                    tok.start,
                    format!(
                        "`.{}()` acquires a shared lock on the worker hot path; \
                             hand results back by value over the join and merge in \
                             shard order",
                        string_of(tok.text(src))
                    ),
                );
            }
            b"panic" | b"todo" | b"unimplemented"
                if rule_on("no-panic-in-lib") && next_text_is(sig, i, src, b"!") =>
            {
                push(
                    "no-panic-in-lib",
                    tok.start,
                    format!(
                        "`{}!` in library code defeats shard panic isolation",
                        string_of(tok.text(src))
                    ),
                );
            }
            b"Instant"
                if rule_on("no-wall-clock")
                    && double_colon_at(sig, i + 1, src)
                    && ident_text(sig, i + 3, src) == Some(b"now") =>
            {
                push(
                    "no-wall-clock",
                    tok.start,
                    "`Instant::now()` reads the wall clock; timing belongs in \
                         crates/obs"
                        .to_owned(),
                );
            }
            b"SystemTime" if rule_on("no-wall-clock") => {
                push(
                    "no-wall-clock",
                    tok.start,
                    "`SystemTime` reads the wall clock; timing belongs in crates/obs".to_owned(),
                );
            }
            b"thread_rng" | b"from_entropy" if rule_on("no-unseeded-rng") => {
                push(
                    "no-unseeded-rng",
                    tok.start,
                    format!(
                        "`{}` draws OS entropy; all randomness must flow from \
                             explicit seeds",
                        string_of(tok.text(src))
                    ),
                );
            }
            b"println" | b"eprintln"
                if rule_on("no-print-in-lib") && next_text_is(sig, i, src, b"!") =>
            {
                push(
                    "no-print-in-lib",
                    tok.start,
                    format!(
                        "`{}!` in library code; route output through obs/RunReport \
                             or the CLI layer",
                        string_of(tok.text(src))
                    ),
                );
            }
            // `std :: collections :: HashMap` or
            // `std :: collections :: { ..., HashMap, ... }` —
            // flag each named `HashMap`.
            b"std"
                if rule_on("no-unordered-iter")
                    && double_colon_at(sig, i + 1, src)
                    && ident_text(sig, i + 3, src) == Some(b"collections")
                    && double_colon_at(sig, i + 4, src) =>
            {
                for hashmap_tok in imported_hashmaps(sig, i + 6, src) {
                    push(
                        "no-unordered-iter",
                        hashmap_tok.start,
                        "`std::collections::HashMap` iteration order is \
                         nondeterministic; use BTreeMap or sort before emission"
                            .to_owned(),
                    );
                }
            }
            _ => {}
        }
    }

    if is_crate_root && rule_on("forbid-unsafe-missing") && !has_forbid_unsafe(sig, src) {
        // Report at 1:1 — the attribute belongs at the top.
        push(
            "forbid-unsafe-missing",
            0,
            "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        );
    }

    raw
}

fn string_of(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The text of the token at `i`, if it is an identifier.
fn ident_text<'a>(sig: &[Token], i: usize, src: &'a [u8]) -> Option<&'a [u8]> {
    let tok = sig.get(i)?;
    (tok.kind == TokenKind::Ident).then(|| tok.text(src))
}

fn prev_text_is(sig: &[Token], i: usize, src: &[u8], text: &[u8]) -> bool {
    i > 0 && sig[i - 1].text(src) == text
}

fn next_text_is(sig: &[Token], i: usize, src: &[u8], text: &[u8]) -> bool {
    sig.get(i + 1).is_some_and(|t| t.text(src) == text)
}

/// Whether tokens `i` and `i + 1` are the two adjacent `:` puncts of a
/// `::` (the lexer emits punctuation one byte at a time).
fn double_colon_at(sig: &[Token], i: usize, src: &[u8]) -> bool {
    matches!((sig.get(i), sig.get(i + 1)), (Some(a), Some(b))
        if a.text(src) == b":" && b.text(src) == b":" && a.end == b.start)
}

/// Starting at the token right after `std :: collections ::` (index
/// `start`), yields each `HashMap` identifier the path imports —
/// either the direct `HashMap` form or any `HashMap` inside a
/// `{...}` use-group.
fn imported_hashmaps(sig: &[Token], start: usize, src: &[u8]) -> Vec<Token> {
    match sig.get(start) {
        Some(t) if t.kind == TokenKind::Ident && t.text(src) == b"HashMap" => vec![*t],
        Some(t) if t.text(src) == b"{" => {
            let mut found = Vec::new();
            let mut depth = 1usize;
            let mut j = start + 1;
            while depth > 0 {
                match sig.get(j) {
                    Some(t) if t.text(src) == b"{" => depth += 1,
                    Some(t) if t.text(src) == b"}" => depth -= 1,
                    Some(t) if t.kind == TokenKind::Ident && t.text(src) == b"HashMap" => {
                        found.push(*t)
                    }
                    Some(_) => {}
                    None => break,
                }
                j += 1;
            }
            found
        }
        _ => Vec::new(),
    }
}

/// Whether the significant-token stream contains the inner attribute
/// `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(sig: &[Token], src: &[u8]) -> bool {
    const SEQ: &[&[u8]] = &[
        b"#",
        b"!",
        b"[",
        b"forbid",
        b"(",
        b"unsafe_code",
        b")",
        b"]",
    ];
    sig.windows(SEQ.len())
        .any(|w| w.iter().zip(SEQ).all(|(t, want)| t.text(src) == *want))
}

/// Byte ranges of code exempt from lib-code rules: each item guarded
/// by `#[cfg(test)]` (or any `cfg` attribute whose argument list
/// mentions `test`) or `#[test]`, through the end of its `{...}` body
/// or terminating `;`.
pub(crate) fn test_regions(sig: &[Token], src: &[u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if !(sig[i].text(src) == b"#" && next_text_is(sig, i, src, b"[")) {
            i += 1;
            continue;
        }
        let attr_start = sig[i].start;
        let (attr_end_idx, is_test_attr) = classify_attribute(sig, i + 1, src);
        if !is_test_attr {
            i = attr_end_idx + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_end_idx + 1;
        while sig.get(k).is_some_and(|t| t.text(src) == b"#") && next_text_is(sig, k, src, b"[") {
            let (end, _) = classify_attribute(sig, k + 1, src);
            k = end + 1;
        }
        // The guarded item ends at the matching `}` of its first brace
        // block, or at a top-level `;` (e.g. `#[cfg(test)] use ...;`).
        let mut brace_depth = 0usize;
        let mut end = src.len();
        while let Some(tok) = sig.get(k) {
            match tok.text(src) {
                b"{" => brace_depth += 1,
                b"}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end = tok.end;
                        break;
                    }
                }
                b";" if brace_depth == 0 => {
                    end = tok.end;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((attr_start, end));
        while i < sig.len() && sig[i].start < end {
            i += 1;
        }
    }
    regions
}

/// Scans an attribute starting at its `[` token (index `open`).
/// Returns the index of the matching `]` (or the last token) and
/// whether the attribute gates test code (`#[test]`, `#[cfg(test)]`,
/// or any `cfg`/`cfg_attr` whose arguments mention `test`).
fn classify_attribute(sig: &[Token], open: usize, src: &[u8]) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = open;
    let mut saw_cfg = false;
    let mut is_test = false;
    while let Some(tok) = sig.get(j) {
        match tok.text(src) {
            b"[" | b"(" => depth += 1,
            b"]" | b")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (j, is_test);
                }
            }
            b"cfg" | b"cfg_attr" if tok.kind == TokenKind::Ident => saw_cfg = true,
            b"test" if tok.kind == TokenKind::Ident && (saw_cfg || depth == 1) => {
                is_test = true;
            }
            _ => {}
        }
        j += 1;
    }
    (sig.len().saturating_sub(1), is_test)
}

/// Collects the file's `// lint:allow(rule, ...)` pragmas.
pub(crate) fn collect_pragmas(tokens: &[Token], src: &[u8], index: &LineIndex) -> Vec<Pragma> {
    let mut pragmas: Vec<Pragma> = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = string_of(tok.text(src));
        // Doc comments (`///`, `//!`) are documentation, not pragmas —
        // they may legitimately *mention* the pragma syntax.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(open) = text.find("lint:allow(") else {
            continue;
        };
        let after = &text[open + "lint:allow(".len()..];
        let (line, col) = index.line_col(tok.start);
        let rules = match after.find(')') {
            Some(close) => after[..close]
                .split(',')
                .map(|r| r.trim().to_owned())
                .filter(|r| !r.is_empty())
                .collect(),
            None => Vec::new(),
        };
        pragmas.push(Pragma { line, col, rules });
    }
    pragmas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        scan_file(
            "lib.rs",
            src.as_bytes(),
            false,
            &LintConfig::default(),
            &mut out,
        );
        out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        out
    }

    #[test]
    fn flags_unwrap_and_panic_macros() {
        let found = scan("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); todo!(); }");
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, vec!["no-panic-in-lib"; 4], "got: {found:?}");
        assert!(found.iter().all(|f| f.severity == Severity::Error));
        assert!(found.iter().all(|f| f.rule_version == 1));
        assert!(found.iter().all(|f| !f.fix_hint.is_empty()));
    }

    #[test]
    fn ignores_unwrap_variants_and_paths() {
        assert!(scan("fn f() { x.unwrap_or(0); x.unwrap_or_else(g); }").is_empty());
        assert!(scan("use std::panic; fn f() { panic::catch_unwind(g); }").is_empty());
    }

    #[test]
    fn comments_and_strings_never_match() {
        assert!(scan("// x.unwrap() panic!\nfn f() { let _ = \"panic!(unwrap())\"; }").is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt_for_lib_rules() {
        let src = r#"
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); println!("ok"); }
}
"#;
        assert!(scan(src).is_empty());
        // ... but thread_rng stays flagged even in tests.
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let r = thread_rng(); }\n}\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "no-unseeded-rng");
    }

    #[test]
    fn test_attr_fn_is_exempt() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn derive_attr_does_not_start_a_region() {
        let src = "#[derive(Debug, Clone)]\nstruct S;\nfn f() { x.unwrap(); }\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn wall_clock_and_rng_and_print() {
        let found = scan(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
             let r = thread_rng(); println!(\"x\"); }",
        );
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(
            rules,
            vec![
                "no-wall-clock",
                "no-wall-clock",
                "no-unseeded-rng",
                "no-print-in-lib",
            ]
        );
    }

    #[test]
    fn duration_alone_is_fine() {
        assert!(scan("use std::time::Duration; fn f(d: Duration) {}").is_empty());
        // An Instant that is never `::now()`-ed (e.g. passed in) is fine.
        assert!(scan("use std::time::Instant; fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn hashmap_import_forms() {
        let direct = scan("use std::collections::HashMap;\n");
        assert_eq!(direct.len(), 1, "got: {direct:?}");
        assert_eq!(direct[0].rule, "no-unordered-iter");
        let grouped = scan("use std::collections::{BTreeMap, HashMap, HashSet};\n");
        assert_eq!(grouped.len(), 1);
        let qualified = scan("fn f() { let m = std::collections::HashMap::new(); }");
        assert_eq!(qualified.len(), 1);
        assert!(scan("use std::collections::{BTreeMap, HashSet};\n").is_empty());
        assert!(scan("use rustc_hash::FxHashMap;\n").is_empty());
    }

    #[test]
    fn forbid_unsafe_checked_on_crate_roots_only() {
        let mut out = Vec::new();
        scan_file(
            "crates/x/src/lib.rs",
            b"pub fn f() {}",
            true,
            &LintConfig::default(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "forbid-unsafe-missing");
        assert_eq!((out[0].line, out[0].col), (1, 1));

        out.clear();
        scan_file(
            "crates/x/src/lib.rs",
            b"#![forbid(unsafe_code)]\npub fn f() {}",
            true,
            &LintConfig::default(),
            &mut out,
        );
        assert!(out.is_empty());

        out.clear();
        scan_file(
            "crates/x/src/util.rs",
            b"pub fn f() {}",
            false,
            &LintConfig::default(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn pragmas_suppress_and_unused_pragmas_report() {
        let src = "fn f() { x.unwrap(); } // lint:allow(no-panic-in-lib): init-checked\n";
        assert!(scan(src).is_empty());

        let src = "fn ok() {} // lint:allow(no-panic-in-lib)\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, UNUSED_ALLOW);
        assert_eq!(found[0].severity, Severity::Warning);

        let src = "fn f() { x.unwrap(); } // lint:allow(no-such-rule)\n";
        let found = scan(src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert!(
            rules.contains(&"no-panic-in-lib"),
            "violation not suppressed"
        );
        assert!(rules.contains(&UNUSED_ALLOW), "unknown rule reported");
    }

    #[test]
    fn pragma_only_covers_its_own_line() {
        let src = "fn f() { // lint:allow(no-panic-in-lib)\n    x.unwrap();\n}\n";
        let found = scan(src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"no-panic-in-lib"));
        assert!(rules.contains(&UNUSED_ALLOW));
    }

    #[test]
    fn doc_comments_mentioning_pragma_syntax_are_not_pragmas() {
        let src = "/// Suppress with `// lint:allow(<rule>)`.\n//! lint:allow(no-wall-clock)\nfn f() {}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn one_pragma_can_cover_two_findings_on_a_line() {
        let src = "fn f() { a.unwrap(); b.unwrap(); } // lint:allow(no-panic-in-lib)\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn config_scoping_is_respected() {
        let config = crate::config::parse(
            "[rules.no-wall-clock]\nskip = [\"crates/obs/\"]\n\
             [rules.no-unordered-iter]\nonly = [\"crates/core/\"]\n",
        )
        .expect("test config parses");
        let mut out = Vec::new();
        scan_file(
            "crates/obs/src/registry.rs",
            b"fn f() { let t = Instant::now(); }",
            false,
            &config,
            &mut out,
        );
        assert!(out.is_empty());
        scan_file(
            "crates/nlp/src/lexicon.rs",
            b"use std::collections::HashMap;",
            false,
            &config,
            &mut out,
        );
        assert!(out.is_empty(), "only-scoped rule leaked: {out:?}");
        scan_file(
            "crates/core/src/store.rs",
            b"use std::collections::HashMap;",
            false,
            &config,
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rule_table_has_ten_rules_across_two_layers() {
        assert_eq!(RULES.len(), 11);
        assert_eq!(RULES.iter().filter(|r| r.layer == Layer::Flow).count(), 4);
        assert!(rule_by_name(UNUSED_ALLOW).is_none());
    }

    #[test]
    fn finalize_gates_flow_pragmas_via_the_gated_set() {
        // A pragma that materialized no finding but gated a flow event
        // must not be reported unused.
        let scan = analyze_file(
            "crates/x/src/a.rs",
            b"fn f() { g(); } // lint:allow(panic-reachability): checked\n",
            false,
            &LintConfig::default(),
        );
        let mut gated = BTreeSet::new();
        gated.insert((
            "crates/x/src/a.rs".to_owned(),
            1,
            "panic-reachability".to_owned(),
        ));
        let out = finalize(std::slice::from_ref(&scan), Vec::new(), &gated);
        assert!(out.is_empty(), "{out:?}");
        // Without the gate entry it IS unused.
        let out = finalize(&[scan], Vec::new(), &BTreeSet::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, UNUSED_ALLOW);
    }
}
