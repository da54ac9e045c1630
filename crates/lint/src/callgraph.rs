//! Layer three of the analyzer: per-crate function call graphs and the
//! four flow-aware rules that run on them.
//!
//! [`summarize`] walks one file's token trees (from [`crate::syntax`])
//! and reduces every non-test function to a [`FnSummary`]: the calls it
//! makes, the panic sites and lock acquisitions it contains, and a
//! per-statement fact table for taint tracking. Summaries are plain
//! data, a pure function of one file's bytes, so files can be
//! summarized on any worker and merged back in walk order.
//!
//! [`run_flow_rules`] then groups summaries by crate (`crates/<name>`
//! prefix), resolves calls by suffix-matching qualified names, and
//! evaluates:
//!
//! - `panic-reachability` — BFS from every public fn; any reachable
//!   panic site (or a direct `unreachable!`, which the token rule does
//!   not cover) is reported at the public fn, with the call chain in
//!   the message.
//! - `lock-order` — the first nesting observed (in sorted file order)
//!   of any two lock resources becomes the crate's canonical order;
//!   a later contradiction is a finding.
//! - `unordered-iter-flow` — statement-level taint from
//!   `HashMap`/`HashSet` bindings through iteration results and local
//!   lets into serialization sinks, propagated across calls to a
//!   fixpoint.
//! - `deadline-propagation` — a fn holding a `Deadline` parameter must
//!   pass it to every callee that accepts one.
//!
//! Resolution is deliberately simple (no type inference): bare calls
//! resolve to every same-named fn in the crate, method calls only when
//! the name is unique, qualified calls by path-suffix match. The rules
//! over-approximate reachability and under-approximate taint, which is
//! the right polarity for a gate: panic chains may include impossible
//! paths (gate with a pragma and a rationale), taint misses exotic
//! flows (the token-level rules still backstop the common ones).

use crate::config::LintConfig;
use crate::lexer::{LineIndex, TokenKind};
use crate::rules::{rule_by_name, FileScan, Finding, Pragma};
use crate::syntax::{self, Delim, Group, Tree, Visibility};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Everything the flow rules need to know about one file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileSummary {
    /// Function summaries, in source order.
    pub fns: Vec<FnSummary>,
}

/// One function's flow-relevant facts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnSummary {
    /// Crate-relative qualified name (`scope::name`).
    pub name: String,
    /// Whether the fn is plain `pub` (reachability root).
    pub is_pub: bool,
    /// 1-based line of the fn name.
    pub line: u32,
    /// 1-based column of the fn name.
    pub col: u32,
    /// Name of the parameter whose type mentions `Deadline`, if any.
    pub deadline_param: Option<String>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Panic sites, in source order.
    pub panics: Vec<PanicSite>,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Statement facts for taint tracking, in source order.
    pub stmts: Vec<Stmt>,
}

/// One call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Path segments as written (`["helper"]`, `["Response", "write_to"]`);
    /// `Self::` is rewritten to the impl type.
    pub path: Vec<String>,
    /// Whether this was a method call (`recv.name(...)`).
    pub method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Identifiers appearing in the argument list.
    pub args: Vec<String>,
}

/// One panic site: an `unwrap`/`expect` call or a
/// `panic!`/`todo!`/`unimplemented!`/`unreachable!` macro.
#[derive(Debug, Clone, PartialEq)]
pub struct PanicSite {
    /// The bare name as written (`"unwrap"`, `"unreachable"`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Whether a same-line pragma names `panic-reachability` or
    /// `no-panic-in-lib` (a documented invariant; the site neither
    /// fires nor propagates, but the pragma counts as used).
    pub allowed: bool,
}

/// One lock acquisition: `recv.lock()` / `recv.read()` / `recv.write()`
/// with an empty argument list (which distinguishes `RwLock::write`
/// from `io::Write::write(buf)`).
#[derive(Debug, Clone, PartialEq)]
pub struct LockSite {
    /// The receiver identifier nearest the call (`shards` in
    /// `self.table.shards[i].write()`).
    pub resource: String,
    /// The acquiring method (`lock`/`read`/`write`).
    pub method: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Facts about one statement, for the taint pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stmt {
    /// Identifiers the statement binds (`let` pattern, `for` pattern,
    /// fn parameter).
    pub targets: Vec<String>,
    /// Every identifier mentioned in the statement.
    pub idents: Vec<String>,
    /// Receivers of iteration-method calls (`m` in `m.keys()`).
    pub iterated: Vec<String>,
    /// Bare/method callee names (for cross-fn taint propagation).
    pub calls: Vec<String>,
    /// Whether the statement mentions an ordering cleanser
    /// (`sort*`, `BTreeMap`, `BTreeSet`).
    pub cleansed: bool,
    /// Whether the statement mentions `HashMap`/`HashSet` (a new
    /// unordered-collection binding).
    pub has_collection: bool,
    /// Serialization-sink callee mentioned, if any.
    pub sink: Option<String>,
    /// 1-based line of the sink callee.
    pub sink_line: u32,
    /// 1-based column of the sink callee.
    pub sink_col: u32,
    /// Whether this is a `for` loop header.
    pub is_for: bool,
    /// Whether this is a `return` or the fn's trailing expression.
    pub is_return: bool,
    /// 1-based line the statement starts on.
    pub line: u32,
}

const ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];
const CLEANSERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];
const SINKS: &[&str] = &[
    "push_str",
    "write_fmt",
    "serialize",
    "to_json",
    "to_value",
    "encode_json",
    "format",
    "write",
    "writeln",
    "json",
];
/// Item keywords whose following brace block belongs to a *different*
/// item and must not contribute facts to the enclosing fn.
const ITEM_KEYWORDS: &[&[u8]] = &[
    b"fn", b"struct", b"enum", b"union", b"impl", b"mod", b"trait",
];
/// Identifiers that look like `name(...)` but are not calls.
const CALL_BLACKLIST: &[&[u8]] = &[
    b"if", b"while", b"for", b"match", b"return", b"loop", b"in", b"move", b"let", b"else", b"as",
    b"mut", b"ref", b"box", b"await", b"unsafe", b"fn", b"where", b"dyn", b"pub",
];

/// Builds the flow summary for one file's parsed forest. Functions in
/// test regions are skipped entirely; panic sites carry their pragma
/// state so the graph phase can count gating pragmas as used.
pub fn summarize(
    src: &[u8],
    trees: &[Tree],
    index: &LineIndex,
    test_spans: &[(usize, usize)],
    pragmas: &[Pragma],
) -> FileSummary {
    let in_test = |offset: usize| test_spans.iter().any(|&(s, e)| offset >= s && offset < e);
    let mut fns: Vec<FnSummary> = Vec::new();
    syntax::visit_fns(trees, src, |item, header, body| {
        if in_test(item.start) {
            return;
        }
        let Some(body) = body else {
            return; // trait method declarations carry no facts
        };
        let (line, col) = index.line_col(item.name_offset);
        // The impl type, for rewriting `Self::` in call paths.
        let self_ty = item
            .scope
            .last()
            .filter(|s| s.starts_with(|c: char| c.is_ascii_uppercase()))
            .cloned();
        let params = parse_params(header, src);
        let mut f = FnSummary {
            name: item.qualified(),
            is_pub: item.vis == Visibility::Pub,
            line,
            col,
            deadline_param: params
                .iter()
                .find(|p| p.is_deadline)
                .map(|p| p.name.clone()),
            ..FnSummary::default()
        };
        // Each parameter is a pseudo-statement: a binding whose
        // "mentions" are its type identifiers, so `m: &HashMap<..>`
        // marks `m` as an unordered collection for the taint pass.
        for p in &params {
            f.stmts.push(Stmt {
                targets: vec![p.name.clone()],
                has_collection: p
                    .type_idents
                    .iter()
                    .any(|t| t == "HashMap" || t == "HashSet"),
                idents: p.type_idents.clone(),
                line,
                ..Stmt::default()
            });
        }
        collect_sites(
            &body.children,
            src,
            index,
            pragmas,
            self_ty.as_deref(),
            &mut f,
        );
        let mut raw: Vec<RawStmt> = Vec::new();
        split_stmts(&body.children, src, true, &mut raw);
        for rs in &raw {
            if let Some(stmt) = analyze_stmt(rs, src, index) {
                f.stmts.push(stmt);
            }
        }
        // Only statements that can move taint matter downstream:
        // bindings, cleansers, sinks, and returns. Everything else
        // would just compute a taint bit and discard it, so drop it
        // here and keep the summary small.
        f.stmts
            .retain(|s| !s.targets.is_empty() || s.sink.is_some() || s.is_return || s.cleansed);
        fns.push(f);
    });
    FileSummary { fns }
}

/// One parameter of a fn signature.
struct Param {
    name: String,
    type_idents: Vec<String>,
    is_deadline: bool,
}

/// Parses the parameter list out of a fn's header trees: the first
/// paren group, split on top-level commas; each parameter's name is the
/// last identifier before its `:`, its type the identifiers after.
fn parse_params(header: &[Tree], src: &[u8]) -> Vec<Param> {
    let Some(group) = header.iter().find_map(|t| match t {
        Tree::Group(g) if g.delim == Delim::Paren => Some(g),
        _ => None,
    }) else {
        return Vec::new();
    };
    let mut params = Vec::new();
    let mut current: Vec<&Tree> = Vec::new();
    let flush = |current: &mut Vec<&Tree>, params: &mut Vec<Param>| {
        if let Some(p) = param_of(current, src) {
            params.push(p);
        }
        current.clear();
    };
    for tree in &group.children {
        if let Tree::Leaf(t) = tree {
            if t.kind == TokenKind::Punct && t.text(src) == b"," {
                flush(&mut current, &mut params);
                continue;
            }
        }
        current.push(tree);
    }
    flush(&mut current, &mut params);
    params
}

fn param_of(trees: &[&Tree], src: &[u8]) -> Option<Param> {
    let colon = trees.iter().position(|t| match t {
        Tree::Leaf(t) => t.kind == TokenKind::Punct && t.text(src) == b":",
        _ => false,
    })?;
    let name = trees[..colon].iter().rev().find_map(|t| match t {
        Tree::Leaf(t) if t.kind == TokenKind::Ident && !matches!(t.text(src), b"mut" | b"ref") => {
            Some(String::from_utf8_lossy(t.text(src)).into_owned())
        }
        _ => None,
    })?;
    let mut type_idents = Vec::new();
    collect_idents(&trees[colon + 1..], src, &mut type_idents);
    let is_deadline = type_idents.iter().any(|t| t == "Deadline");
    Some(Param {
        name,
        type_idents,
        is_deadline,
    })
}

fn collect_idents(trees: &[&Tree], src: &[u8], out: &mut Vec<String>) {
    for tree in trees {
        match tree {
            Tree::Leaf(t) if t.kind == TokenKind::Ident => {
                out.push(String::from_utf8_lossy(t.text(src)).into_owned());
            }
            Tree::Group(g) => {
                let inner: Vec<&Tree> = g.children.iter().collect();
                collect_idents(&inner, src, out);
            }
            _ => {}
        }
    }
}

fn leaf_ident<'a>(trees: &[Tree], i: usize, src: &'a [u8]) -> Option<&'a [u8]> {
    match trees.get(i) {
        Some(Tree::Leaf(t)) if t.kind == TokenKind::Ident => Some(t.text(src)),
        _ => None,
    }
}

fn leaf_punct(trees: &[Tree], i: usize, src: &[u8], byte: u8) -> bool {
    matches!(trees.get(i), Some(Tree::Leaf(t))
        if t.kind == TokenKind::Punct && t.text(src) == [byte])
}

fn paren_group_at(trees: &[Tree], i: usize) -> Option<&Group> {
    match trees.get(i) {
        Some(Tree::Group(g)) if g.delim == Delim::Paren => Some(g),
        _ => None,
    }
}

/// Whether trees `a`, `a + 1` form a `::` (two adjacent `:` puncts).
fn double_colon(trees: &[Tree], a: usize, src: &[u8]) -> bool {
    match (trees.get(a), trees.get(a + 1)) {
        (Some(Tree::Leaf(x)), Some(Tree::Leaf(y))) => {
            x.text(src) == b":" && y.text(src) == b":" && x.end == y.start
        }
        _ => false,
    }
}

/// The structural pass: walks sibling lists collecting call, panic, and
/// lock sites. Recurses into every group except the brace body of a
/// nested item (those facts belong to the nested item's own summary).
fn collect_sites(
    children: &[Tree],
    src: &[u8],
    index: &LineIndex,
    pragmas: &[Pragma],
    self_ty: Option<&str>,
    f: &mut FnSummary,
) {
    let mut skip_brace = false;
    for (i, tree) in children.iter().enumerate() {
        match tree {
            Tree::Leaf(tok) => {
                if tok.kind == TokenKind::Punct && tok.text(src) == b";" {
                    skip_brace = false;
                }
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                let word = tok.text(src);
                if ITEM_KEYWORDS.contains(&word) {
                    skip_brace = true;
                }
                let (line, col) = index.line_col(tok.start);
                // Panic macros: `name !`.
                if matches!(word, b"panic" | b"todo" | b"unimplemented" | b"unreachable")
                    && leaf_punct(children, i + 1, src, b'!')
                {
                    f.panics.push(PanicSite {
                        what: String::from_utf8_lossy(word).into_owned(),
                        line,
                        col,
                        allowed: pragma_allows_panic(pragmas, line),
                    });
                    continue;
                }
                let is_method = i > 0 && leaf_punct(children, i - 1, src, b'.');
                // Panic methods: `.unwrap(...)` / `.expect(...)`.
                if matches!(word, b"unwrap" | b"expect")
                    && is_method
                    && paren_group_at(children, i + 1).is_some()
                {
                    f.panics.push(PanicSite {
                        what: String::from_utf8_lossy(word).into_owned(),
                        line,
                        col,
                        allowed: pragma_allows_panic(pragmas, line),
                    });
                    continue;
                }
                // Lock acquisitions: `.lock()` / `.read()` / `.write()`
                // with no arguments.
                if matches!(word, b"lock" | b"read" | b"write") && is_method {
                    if let Some(g) = paren_group_at(children, i + 1) {
                        if g.children.is_empty() {
                            if let Some(resource) = receiver_before(children, i - 1, src) {
                                f.locks.push(LockSite {
                                    resource,
                                    method: String::from_utf8_lossy(word).into_owned(),
                                    line,
                                    col,
                                });
                            }
                        }
                    }
                }
                // Calls: `name ( ... )` — macros never match (the `!`
                // sits between the name and the group).
                if let Some(g) = paren_group_at(children, i + 1) {
                    if CALL_BLACKLIST.contains(&word) {
                        continue;
                    }
                    // `fn name(...)` is a declaration, not a call.
                    if leaf_ident(children, i.wrapping_sub(1), src) == Some(b"fn") && i > 0 {
                        continue;
                    }
                    let mut path = vec![String::from_utf8_lossy(word).into_owned()];
                    if !is_method {
                        // Walk back over `seg ::` prefixes.
                        let mut j = i;
                        while j >= 3 && double_colon(children, j - 2, src) {
                            match leaf_ident(children, j - 3, src) {
                                Some(seg) => {
                                    path.insert(0, String::from_utf8_lossy(seg).into_owned());
                                    j -= 3;
                                }
                                None => break,
                            }
                        }
                        if path[0] == "Self" {
                            if let Some(ty) = self_ty {
                                path[0] = ty.to_owned();
                            }
                        }
                    }
                    let mut args = Vec::new();
                    let inner: Vec<&Tree> = g.children.iter().collect();
                    collect_idents(&inner, src, &mut args);
                    f.calls.push(CallSite {
                        path,
                        method: is_method,
                        line,
                        col,
                        args,
                    });
                }
            }
            Tree::Group(g) => {
                if g.delim == Delim::Brace && skip_brace {
                    skip_brace = false;
                    continue;
                }
                collect_sites(&g.children, src, index, pragmas, self_ty, f);
            }
            Tree::Recovered(_) => {}
        }
    }
}

fn pragma_allows_panic(pragmas: &[Pragma], line: u32) -> bool {
    pragmas.iter().any(|p| {
        p.line == line
            && p.rules
                .iter()
                .any(|r| r == "panic-reachability" || r == "no-panic-in-lib")
    })
}

/// The receiver identifier of a method call: from the `.` at `dot`,
/// walk left over index/call groups and further `.` segments to the
/// nearest identifier.
fn receiver_before(children: &[Tree], dot: usize, src: &[u8]) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match &children[j] {
            Tree::Group(g) if matches!(g.delim, Delim::Paren | Delim::Bracket) => continue,
            Tree::Leaf(t) if t.kind == TokenKind::Punct && matches!(t.text(src), b"." | b"?") => {
                continue
            }
            Tree::Leaf(t) if t.kind == TokenKind::Ident => {
                let name = t.text(src);
                if name == b"self" && j > 0 {
                    continue;
                }
                return Some(String::from_utf8_lossy(name).into_owned());
            }
            _ => return None,
        }
    }
    None
}

/// One raw statement: its flattened tokens plus whether it is the fn
/// body's trailing expression.
struct RawStmt {
    toks: Vec<crate::lexer::Token>,
    trailing: bool,
}

/// Splits a block's children into statements: `;` ends one, a brace
/// sub-block finalizes the current statement (the block header — `if`,
/// `for`, `match` — stands alone) and is recursed into. Paren/bracket
/// groups are flattened into the current statement so closures and call
/// arguments stay attached. Brace bodies of nested items are skipped.
fn split_stmts(children: &[Tree], src: &[u8], top: bool, out: &mut Vec<RawStmt>) {
    let mut cur: Vec<crate::lexer::Token> = Vec::new();
    let mut skip_brace = false;
    let finalize = |cur: &mut Vec<crate::lexer::Token>, trailing: bool, out: &mut Vec<RawStmt>| {
        if !cur.is_empty() {
            out.push(RawStmt {
                toks: std::mem::take(cur),
                trailing,
            });
        }
    };
    for tree in children {
        match tree {
            Tree::Leaf(t) if t.kind == TokenKind::Punct && t.text(src) == b";" => {
                skip_brace = false;
                finalize(&mut cur, false, out);
            }
            Tree::Leaf(t) => {
                if t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text(src)) {
                    skip_brace = true;
                }
                cur.push(*t);
            }
            Tree::Recovered(t) => cur.push(*t),
            Tree::Group(g) if g.delim == Delim::Brace => {
                finalize(&mut cur, false, out);
                if skip_brace {
                    skip_brace = false;
                    continue;
                }
                split_stmts(&g.children, src, false, out);
            }
            Tree::Group(g) => {
                cur.push(g.open);
                flatten_all(&g.children, &mut cur);
                if let Some(close) = g.close {
                    cur.push(close);
                }
            }
        }
    }
    finalize(&mut cur, top, out);
}

fn flatten_all(children: &[Tree], out: &mut Vec<crate::lexer::Token>) {
    for tree in children {
        match tree {
            Tree::Leaf(t) | Tree::Recovered(t) => out.push(*t),
            Tree::Group(g) => {
                out.push(g.open);
                flatten_all(&g.children, out);
                if let Some(close) = g.close {
                    out.push(close);
                }
            }
        }
    }
}

/// Reduces a raw statement to its taint facts. Returns `None` for
/// statements that are item headers (their facts belong elsewhere).
fn analyze_stmt(rs: &RawStmt, src: &[u8], index: &LineIndex) -> Option<Stmt> {
    let toks = &rs.toks;
    let first = toks.first()?;
    if first.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&first.text(src)) {
        return None;
    }
    let text = |i: usize| -> &[u8] { toks.get(i).map_or(&b""[..], |t| t.text(src)) };
    let is_ident = |i: usize| -> bool { toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident) };
    let owned = |b: &[u8]| String::from_utf8_lossy(b).into_owned();

    let (line, _) = index.line_col(first.start);
    let is_let = first.kind == TokenKind::Ident && first.text(src) == b"let";
    let is_for = first.kind == TokenKind::Ident && first.text(src) == b"for";
    let is_return = rs.trailing || (first.kind == TokenKind::Ident && first.text(src) == b"return");

    let mut stmt = Stmt {
        line,
        is_for,
        is_return,
        ..Stmt::default()
    };

    // Binding targets: `let <pat>` up to `:` or `=`; `for <pat>` up to `in`.
    if is_let || is_for {
        for i in 1..toks.len() {
            let t = text(i);
            if (is_let && matches!(t, b":" | b"=")) || (is_for && t == b"in") {
                break;
            }
            if is_ident(i) && !matches!(t, b"mut" | b"ref") {
                stmt.targets.push(owned(t));
            }
        }
    }

    // Indexed on purpose: the scan peeks at `i + 1` (call/sink
    // detection) and `i - 1`/`i - 2` (method receivers).
    #[allow(clippy::needless_range_loop)]
    for i in 0..toks.len() {
        if !is_ident(i) {
            continue;
        }
        let word = text(i);
        let name = owned(word);
        stmt.idents.push(name.clone());
        if CLEANSERS.iter().any(|c| c.as_bytes() == word) {
            stmt.cleansed = true;
        }
        if matches!(word, b"HashMap" | b"HashSet") {
            stmt.has_collection = true;
        }
        let called = text(i + 1) == b"(";
        let sinkish = called || text(i + 1) == b"!";
        if sinkish && SINKS.iter().any(|s| s.as_bytes() == word) && stmt.sink.is_none() {
            let (sl, sc) = index.line_col(toks[i].start);
            stmt.sink = Some(name.clone());
            stmt.sink_line = sl;
            stmt.sink_col = sc;
        }
        if called {
            let is_iter_method = ITER_METHODS.iter().any(|m| m.as_bytes() == word);
            if is_iter_method {
                // `recv.iter()` — record the receiver as iterated.
                if i >= 2 && text(i - 1) == b"." && is_ident(i - 2) {
                    stmt.iterated.push(owned(text(i - 2)));
                }
            } else if !CALL_BLACKLIST.contains(&word) {
                stmt.calls.push(name);
            }
        }
    }
    Some(stmt)
}

// ---------------------------------------------------------------------------
// The graph phase.
// ---------------------------------------------------------------------------

/// The crate a workspace-relative path belongs to, for graph grouping:
/// `crates/<name>/...` groups by crate, anything else is its own
/// single-file group.
fn crate_key(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return format!("crates/{}", &rest[..slash]);
        }
    }
    rel.to_owned()
}

/// One crate's functions, in (file, source-order) traversal order, plus
/// the name index used for call resolution.
struct CrateGraph<'a> {
    /// (file, fn) in sorted-file, source order.
    fns: Vec<(&'a str, &'a FnSummary)>,
    /// Last path segment → indices into `fns`.
    by_last: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CrateGraph<'a> {
    fn build(fns: Vec<(&'a str, &'a FnSummary)>) -> Self {
        let mut by_last: BTreeMap<&'a str, Vec<usize>> = BTreeMap::new();
        for (i, (_, f)) in fns.iter().enumerate() {
            let last = f.name.rsplit("::").next().unwrap_or(&f.name);
            by_last.entry(last).or_default().push(i);
        }
        Self { fns, by_last }
    }

    /// Resolves a call site to candidate fn indices (sorted).
    fn resolve(&self, call: &CallSite) -> Vec<usize> {
        let Some(last) = call.path.last() else {
            return Vec::new();
        };
        let Some(cands) = self.by_last.get(last.as_str()) else {
            return Vec::new();
        };
        if call.method {
            // A method call carries no path: resolve only when the
            // name is unique in the crate.
            return if cands.len() == 1 {
                cands.clone()
            } else {
                Vec::new()
            };
        }
        if call.path.len() == 1 {
            return cands.clone();
        }
        cands
            .iter()
            .copied()
            .filter(|&i| {
                let segs: Vec<&str> = self.fns[i].1.name.split("::").collect();
                segs.len() >= call.path.len()
                    && segs[segs.len() - call.path.len()..]
                        .iter()
                        .zip(&call.path)
                        .all(|(a, b)| a == b)
            })
            .collect()
    }
}

/// Runs the four flow rules over every file's summary. Returns the
/// findings (unsorted; [`crate::rules::finalize`] sorts) plus the set
/// of `(file, line, rule)` pragma-gated events for unused-pragma
/// accounting.
pub fn run_flow_rules(
    scans: &[FileScan],
    config: &LintConfig,
) -> (Vec<Finding>, BTreeSet<(String, u32, String)>) {
    let mut findings = Vec::new();
    let mut gated = BTreeSet::new();

    // Group by crate, preserving sorted file order.
    let mut crates: BTreeMap<String, Vec<(&str, &FnSummary)>> = BTreeMap::new();
    for scan in scans {
        let key = crate_key(&scan.rel);
        let entry = crates.entry(key).or_default();
        for f in &scan.summary.fns {
            entry.push((scan.rel.as_str(), f));
        }
    }

    for fns in crates.values() {
        let graph = CrateGraph::build(fns.clone());
        panic_reachability(&graph, config, &mut findings, &mut gated);
        lock_order(&graph, config, &mut findings);
        unordered_iter_flow(&graph, config, &mut findings);
        deadline_propagation(&graph, config, &mut findings);
    }
    (findings, gated)
}

fn render_panic(what: &str) -> String {
    match what {
        "unwrap" | "expect" => format!(".{what}()"),
        other => format!("{other}!"),
    }
}

fn panic_reachability(
    graph: &CrateGraph<'_>,
    config: &LintConfig,
    findings: &mut Vec<Finding>,
    gated: &mut BTreeSet<(String, u32, String)>,
) {
    let Some(def) = rule_by_name("panic-reachability") else {
        return;
    };
    let scope = config.scope(def.name);
    for (root, &(root_file, root_fn)) in graph.fns.iter().enumerate() {
        if !root_fn.is_pub || !scope.applies_to(root_file) {
            continue;
        }
        // Deterministic BFS: calls in source order, candidates sorted.
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
        let mut order: Vec<usize> = vec![root];
        let mut queue: VecDeque<usize> = VecDeque::from([root]);
        depth.insert(root, 0);
        while let Some(at) = queue.pop_front() {
            let d = depth.get(&at).copied().unwrap_or(0);
            for call in &graph.fns[at].1.calls {
                for target in graph.resolve(call) {
                    if let std::collections::btree_map::Entry::Vacant(slot) = depth.entry(target) {
                        slot.insert(d + 1);
                        parent.insert(target, at);
                        order.push(target);
                        queue.push_back(target);
                    }
                }
            }
        }
        for &at in &order {
            let (site_file, site_fn) = graph.fns[at];
            let d = depth.get(&at).copied().unwrap_or(0);
            for site in &site_fn.panics {
                // Direct sites are the token rule's job — except
                // `unreachable!`, which it deliberately does not cover.
                if d == 0 && site.what != "unreachable" {
                    continue;
                }
                if site.allowed {
                    // The pragma gates this whole chain; count it used.
                    for rule in ["panic-reachability", "no-panic-in-lib"] {
                        gated.insert((site_file.to_owned(), site.line, rule.to_owned()));
                    }
                    continue;
                }
                let mut chain = vec![site_fn.name.as_str()];
                let mut walk = at;
                while let Some(&p) = parent.get(&walk) {
                    chain.push(graph.fns[p].1.name.as_str());
                    walk = p;
                }
                chain.reverse();
                findings.push(Finding::of(
                    def,
                    root_file,
                    root_fn.line,
                    root_fn.col,
                    format!(
                        "panic site `{}` at {}:{} is reachable from public fn `{}` via `{}`",
                        render_panic(&site.what),
                        site_file,
                        site.line,
                        root_fn.name,
                        chain.join(" -> "),
                    ),
                ));
            }
        }
    }
}

fn lock_order(graph: &CrateGraph<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    let Some(def) = rule_by_name("lock-order") else {
        return;
    };
    let scope = config.scope(def.name);
    // Unordered resource pair -> (resource locked first, file, line of
    // the establishing inner acquisition).
    let mut canonical: BTreeMap<(String, String), (String, String, u32)> = BTreeMap::new();
    for &(file, f) in &graph.fns {
        if !scope.applies_to(file) {
            continue;
        }
        for i in 0..f.locks.len() {
            for j in (i + 1)..f.locks.len() {
                let (outer, inner) = (&f.locks[i], &f.locks[j]);
                if outer.resource == inner.resource {
                    continue;
                }
                let pair = if outer.resource < inner.resource {
                    (outer.resource.clone(), inner.resource.clone())
                } else {
                    (inner.resource.clone(), outer.resource.clone())
                };
                match canonical.get(&pair) {
                    None => {
                        canonical
                            .insert(pair, (outer.resource.clone(), file.to_owned(), inner.line));
                    }
                    Some((first, est_file, est_line)) if *first != outer.resource => {
                        findings.push(Finding::of(
                            def,
                            file,
                            inner.line,
                            inner.col,
                            format!(
                                "`{}.{}()` acquired while `{}` is held, contradicting the \
                                 canonical `{}` -> `{}` lock order established at {}:{}",
                                inner.resource,
                                inner.method,
                                outer.resource,
                                inner.resource,
                                outer.resource,
                                est_file,
                                est_line,
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

fn unordered_iter_flow(graph: &CrateGraph<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    let Some(def) = rule_by_name("unordered-iter-flow") else {
        return;
    };
    let scope = config.scope(def.name);
    // Fixpoint over which fns return unordered sequences, keyed by
    // unqualified name (the form call sites record).
    let mut unordered: BTreeSet<String> = BTreeSet::new();
    for _ in 0..10 {
        let mut changed = false;
        for &(_, f) in &graph.fns {
            let (_, returns) = fn_taint(f, &unordered);
            if returns {
                let last = f.name.rsplit("::").next().unwrap_or(&f.name);
                if unordered.insert(last.to_owned()) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for &(file, f) in &graph.fns {
        if !scope.applies_to(file) {
            continue;
        }
        let (sinks, _) = fn_taint(f, &unordered);
        for (var, sink, line, col) in sinks {
            findings.push(Finding::of(
                def,
                file,
                line,
                col,
                format!(
                    "iteration order of `{var}` (std HashMap/HashSet) reaches the \
                     serialization sink `{sink}` in `{}`; emission order is \
                     nondeterministic",
                    f.name,
                ),
            ));
        }
    }
}

/// The per-fn taint pass: returns the tainted sinks hit and whether the
/// fn returns an unordered sequence. Replays the statement list to a
/// fixpoint so taint introduced late still reaches earlier loops on the
/// next pass, while cleansers (`sort`, BTree collects) strip it in
/// statement order.
fn fn_taint(
    f: &FnSummary,
    unordered: &BTreeSet<String>,
) -> (Vec<(String, String, u32, u32)>, bool) {
    let mut coll: BTreeSet<&str> = BTreeSet::new();
    let mut seq: BTreeSet<&str> = BTreeSet::new();
    let mut sinks: Vec<(String, String, u32, u32)> = Vec::new();
    let mut returns = false;
    for _ in 0..8 {
        let before = (coll.len(), seq.len());
        sinks.clear();
        returns = false;
        for stmt in &f.stmts {
            // A bare cleanser statement (`keys.sort();`) removes taint
            // from the names it mentions.
            if stmt.cleansed && stmt.targets.is_empty() && stmt.sink.is_none() {
                for id in &stmt.idents {
                    seq.remove(id.as_str());
                }
                continue;
            }
            let from_iter = stmt
                .iterated
                .iter()
                .any(|v| coll.contains(v.as_str()) || seq.contains(v.as_str()));
            let from_seq = stmt.idents.iter().any(|v| seq.contains(v.as_str()));
            let from_call = stmt.calls.iter().any(|c| unordered.contains(c.as_str()));
            let tainted_in = from_iter || from_seq || from_call;
            if !stmt.cleansed {
                if stmt.has_collection {
                    for t in &stmt.targets {
                        coll.insert(t.as_str());
                    }
                }
                if tainted_in {
                    for t in &stmt.targets {
                        seq.insert(t.as_str());
                    }
                }
            }
            if let Some(sink) = &stmt.sink {
                if tainted_in && !stmt.cleansed {
                    let var = stmt
                        .iterated
                        .iter()
                        .find(|v| coll.contains(v.as_str()) || seq.contains(v.as_str()))
                        .or_else(|| stmt.idents.iter().find(|v| seq.contains(v.as_str())))
                        .cloned()
                        .unwrap_or_else(|| String::from("<call result>"));
                    sinks.push((var, sink.clone(), stmt.sink_line, stmt.sink_col));
                }
            }
            if stmt.is_return && tainted_in && !stmt.cleansed {
                returns = true;
            }
        }
        if (coll.len(), seq.len()) == before {
            break;
        }
    }
    (sinks, returns)
}

fn deadline_propagation(graph: &CrateGraph<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    let Some(def) = rule_by_name("deadline-propagation") else {
        return;
    };
    let scope = config.scope(def.name);
    for (idx, &(file, f)) in graph.fns.iter().enumerate() {
        if !scope.applies_to(file) {
            continue;
        }
        let Some(param) = &f.deadline_param else {
            continue;
        };
        for call in &f.calls {
            let takes_deadline = graph
                .resolve(call)
                .into_iter()
                .any(|t| t != idx && graph.fns[t].1.deadline_param.is_some());
            if !takes_deadline {
                continue;
            }
            if call.args.iter().any(|a| a == param || a == "deadline") {
                continue;
            }
            let callee = call.path.join("::");
            findings.push(
                Finding::of(
                    def,
                    file,
                    call.line,
                    call.col,
                    format!(
                        "call to `{callee}` from `{}` drops the request deadline; \
                         blocking work must stay under the request budget",
                        f.name,
                    ),
                )
                .with_hint(format!("pass `{param}` through to `{callee}`")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules;

    fn scan_of(rel: &str, src: &str) -> FileScan {
        rules::analyze_file(rel, src.as_bytes(), false, &LintConfig::default())
    }

    fn summary_of(src: &str) -> FileSummary {
        scan_of("crates/x/src/lib.rs", src).summary
    }

    fn flow(files: &[(&str, &str)]) -> Vec<Finding> {
        let scans: Vec<FileScan> = files.iter().map(|(rel, src)| scan_of(rel, src)).collect();
        let (findings, gated) = run_flow_rules(&scans, &LintConfig::default());
        rules::finalize(&scans, findings, &gated)
    }

    #[test]
    fn summarizes_calls_panics_and_locks() {
        let s = summary_of(
            r#"
pub fn api(x: u8) -> u8 { helper(x) }
fn helper(x: u8) -> u8 {
    let g = table.shards[0].write();
    let p = props.lock();
    inner::check(x);
    x.unwrap()
}
"#,
        );
        assert_eq!(s.fns.len(), 2);
        let api = &s.fns[0];
        assert!(api.is_pub);
        assert_eq!(api.calls.len(), 1);
        assert_eq!(api.calls[0].path, vec!["helper"]);
        let helper = &s.fns[1];
        assert!(!helper.is_pub);
        let locked: Vec<&str> = helper.locks.iter().map(|l| l.resource.as_str()).collect();
        assert_eq!(locked, vec!["shards", "props"]);
        assert_eq!(helper.panics.len(), 1);
        assert_eq!(helper.panics[0].what, "unwrap");
        assert!(helper
            .calls
            .iter()
            .any(|c| c.path == vec!["inner", "check"]));
    }

    #[test]
    fn io_write_with_args_is_not_a_lock() {
        let s = summary_of("fn f(mut w: W, buf: &[u8]) { w.write(buf); out.write(); }");
        let locked: Vec<&str> = s.fns[0].locks.iter().map(|l| l.resource.as_str()).collect();
        assert_eq!(locked, vec!["out"]);
    }

    #[test]
    fn nested_fn_facts_stay_separate() {
        let s = summary_of("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        let outer = s
            .fns
            .iter()
            .find(|f| f.name == "outer")
            .map(|f| f.panics.len());
        let inner = s
            .fns
            .iter()
            .find(|f| f.name == "outer::inner")
            .map(|f| f.panics.len());
        assert_eq!((outer, inner), (Some(0), Some(1)));
    }

    #[test]
    fn panic_reachability_walks_the_chain() {
        let found = flow(&[(
            "crates/x/src/lib.rs",
            "pub fn api() { step() }\nfn step() { core() }\nfn core() { v.unwrap(); }\n",
        )]);
        let reach: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "panic-reachability")
            .collect();
        assert_eq!(reach.len(), 1, "{found:?}");
        assert_eq!(reach[0].line, 1);
        assert!(reach[0].message.contains("api -> step -> core"));
        assert!(reach[0].message.contains(".unwrap()"));
    }

    #[test]
    fn allowed_sites_do_not_propagate_and_mark_pragmas_used() {
        let found = flow(&[(
            "crates/x/src/lib.rs",
            "pub fn api() { step() }\n\
             fn step() { v.unwrap(); } // lint:allow(no-panic-in-lib): checked at boot\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != "panic-reachability"),
            "{found:?}"
        );
        assert!(found.iter().all(|f| f.rule != rules::UNUSED_ALLOW));
    }

    #[test]
    fn direct_unreachable_fires_but_direct_unwrap_does_not_double_report() {
        let found = flow(&[(
            "crates/x/src/lib.rs",
            "pub fn a() { unreachable!() }\npub fn b() { v.unwrap(); }\n",
        )]);
        let reach: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "panic-reachability")
            .collect();
        assert_eq!(reach.len(), 1, "{found:?}");
        assert!(reach[0].message.contains("unreachable!"));
        // b's unwrap is the token rule's finding alone.
        assert_eq!(
            found.iter().filter(|f| f.rule == "no-panic-in-lib").count(),
            1
        );
    }

    #[test]
    fn lock_order_contradiction_is_reported_once() {
        let found = flow(&[(
            "crates/x/src/lib.rs",
            "fn a() { let s = shards.write(); let p = props.write(); }\n\
             fn b() { let p = props.write(); let s = shards.write(); }\n",
        )]);
        let locks: Vec<&Finding> = found.iter().filter(|f| f.rule == "lock-order").collect();
        assert_eq!(locks.len(), 1, "{found:?}");
        assert_eq!(locks[0].line, 2);
        assert!(
            locks[0].message.contains("`shards` -> `props`"),
            "{}",
            locks[0].message
        );
    }

    #[test]
    fn taint_flows_through_lets_into_sinks_and_sorting_cleanses() {
        let dirty = "fn emit(m: &HashMap<u32, u32>) -> String {\n\
                     let mut out = String::new();\n\
                     for k in m.keys() { out.push_str(&format(k)); }\n\
                     out\n}\n";
        let found = flow(&[("crates/x/src/lib.rs", dirty)]);
        assert!(
            found.iter().any(|f| f.rule == "unordered-iter-flow"),
            "{found:?}"
        );

        let sorted = "fn emit(m: &HashMap<u32, u32>) -> String {\n\
                      let mut keys: Vec<u32> = m.keys().copied().collect();\n\
                      keys.sort();\n\
                      let mut out = String::new();\n\
                      for k in keys { out.push_str(&format(k)); }\n\
                      out\n}\n";
        let found = flow(&[("crates/x/src/lib.rs", sorted)]);
        assert!(
            found.iter().all(|f| f.rule != "unordered-iter-flow"),
            "{found:?}"
        );
    }

    #[test]
    fn taint_propagates_across_function_returns() {
        let src = "fn tally(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let v: Vec<u32> = m.keys().copied().collect();\n\
                   v\n}\n\
                   fn emit() -> String {\n\
                   let rows = tally(&m);\n\
                   let mut out = String::new();\n\
                   for r in rows { out.push_str(&format(r)); }\n\
                   out\n}\n";
        let found = flow(&[("crates/x/src/lib.rs", src)]);
        assert!(
            found.iter().any(|f| f.rule == "unordered-iter-flow"),
            "{found:?}"
        );
    }

    #[test]
    fn deadline_must_thread_into_blocking_callees() {
        let src = "pub fn handle(q: Query, deadline: Deadline) -> Response {\n\
                   lookup(q)\n}\n\
                   fn lookup(q: Query, deadline: Deadline) -> Response { answer(q) }\n\
                   fn answer(q: Query) -> Response { Response::empty() }\n";
        let found = flow(&[("crates/x/src/lib.rs", src)]);
        let dl: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "deadline-propagation")
            .collect();
        assert_eq!(dl.len(), 1, "{found:?}");
        assert_eq!(dl[0].line, 2);
        assert!(dl[0].fix_hint.contains("deadline"));

        let ok = "pub fn handle(q: Query, deadline: Deadline) -> Response {\n\
                  lookup(q, deadline)\n}\n\
                  fn lookup(q: Query, deadline: Deadline) -> Response { q.answer() }\n";
        let found = flow(&[("crates/x/src/lib.rs", ok)]);
        assert!(
            found.iter().all(|f| f.rule != "deadline-propagation"),
            "{found:?}"
        );
    }

    #[test]
    fn graphs_do_not_cross_crate_boundaries() {
        let found = flow(&[
            ("crates/a/src/lib.rs", "pub fn api() { helper() }\n"),
            ("crates/b/src/lib.rs", "fn helper() { v.unwrap(); }\n"),
        ]);
        assert!(
            found.iter().all(|f| f.rule != "panic-reachability"),
            "{found:?}"
        );
    }

    #[test]
    fn stmt_splitter_survives_garbage() {
        for src in [
            "fn f() { ) ( }",
            "fn f() { let x = ; ;; }",
            "fn f() {",
            "{ } }",
        ] {
            let tokens = lex(src.as_bytes());
            let sig = syntax::significant(&tokens);
            let trees = syntax::parse(&sig, src.as_bytes());
            let index = LineIndex::new(src.as_bytes());
            let _ = summarize(src.as_bytes(), &trees, &index, &[], &[]);
        }
    }
}
