//! Golden tests: the linter's findings over the fixture workspace must
//! match the committed expected outputs byte for byte.
//!
//! The fixture workspace under `tests/fixtures/ws/` reintroduces one
//! violation per rule (plus pragma-suppression, unused-pragma, and
//! cfg(test)-exemption cases); the goldens pin the exact sorted finding
//! list, so any change to matching, ordering, or message wording shows up
//! as a diff. Regenerate with:
//!
//! ```text
//! cargo run --release -p surveyor-lint -- --root crates/lint/tests/fixtures/ws \
//!     > crates/lint/tests/fixtures/expected.txt
//! ```

use std::path::{Path, PathBuf};
use surveyor_lint::output::{render_human, render_json};
use surveyor_lint::rules::{RULES, UNUSED_ALLOW};
use surveyor_lint::{lint_workspace, load_config};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn expected(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()))
}

fn run_fixture() -> surveyor_lint::LintRun {
    let root = fixture_root();
    let config = load_config(&root.join("lint.toml")).expect("fixture lint.toml parses");
    lint_workspace(&root, &config, 1).expect("fixture workspace lints")
}

#[test]
fn human_output_matches_golden() {
    let run = run_fixture();
    let rendered = render_human(&run.findings, run.files_scanned);
    assert_eq!(rendered.trim_end(), expected("expected.txt").trim_end());
}

#[test]
fn json_output_matches_golden() {
    let run = run_fixture();
    let rendered = render_json(&run.findings, run.files_scanned);
    assert_eq!(rendered.trim_end(), expected("expected.json").trim_end());
}

#[test]
fn findings_are_deterministic_across_runs() {
    let a = run_fixture();
    let b = run_fixture();
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files_scanned, b.files_scanned);
}

#[test]
fn findings_are_sorted() {
    let run = run_fixture();
    let mut sorted = run.findings.clone();
    sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    assert_eq!(run.findings, sorted);
}

#[test]
fn every_rule_fires_in_the_fixture() {
    let run = run_fixture();
    for rule in RULES {
        assert!(
            run.findings.iter().any(|f| f.rule == rule.name),
            "rule {} produced no fixture finding",
            rule.name
        );
    }
    // The unused-allow meta-rule fires for both the no-op pragma and the
    // unknown-rule pragma.
    let unused = run
        .findings
        .iter()
        .filter(|f| f.rule == UNUSED_ALLOW)
        .count();
    assert_eq!(unused, 2);
}

#[test]
fn pragma_suppresses_the_same_line_only() {
    let run = run_fixture();
    // pragmas.rs line 5 holds a pragma-suppressed `.unwrap()`: no
    // no-panic-in-lib finding may point there.
    assert!(!run
        .findings
        .iter()
        .any(|f| f.file.ends_with("pragmas.rs") && f.rule == "no-panic-in-lib"));
}

#[test]
fn test_code_is_exempt() {
    let run = run_fixture();
    assert!(!run.findings.iter().any(|f| f.file.ends_with("testcode.rs")));
}

#[test]
fn lock_rule_fires_inside_its_corpus_scope() {
    // worker.rs holds two acquisitions: the bare one at line 8 must fire,
    // the pragma-carrying one must not.
    let run = run_fixture();
    let hits: Vec<_> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("worker.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no-shared-lock-in-worker-loop");
}

#[test]
fn lock_rule_is_silent_outside_its_scope() {
    // unscoped.rs locks a mutex but sits outside the rule's `only` paths.
    let run = run_fixture();
    assert!(!run.findings.iter().any(|f| f.file.ends_with("unscoped.rs")));
}

#[test]
fn panic_reachability_reports_the_chain_and_honors_site_pragmas() {
    // panics.rs: `entry -> helper` reaches an `unreachable!`; the
    // pragma-gated twin (`entry_checked -> checked_helper`) stays silent
    // and its pragma counts as used (no unused-allow for panics.rs).
    let run = run_fixture();
    let hits: Vec<_> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("panics.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "panic-reachability");
    assert!(
        hits[0].message.contains("`entry -> helper`"),
        "{}",
        hits[0].message
    );
}

#[test]
fn lock_order_reports_the_contradicting_acquisition_only() {
    // ordering.rs: `grow` establishes index -> props; `shrink`
    // contradicts it (reported at the inner acquisition); `rebalance`
    // contradicts it under a pragma (silent).
    let run = run_fixture();
    let hits: Vec<_> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("ordering.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "lock-order");
    assert!(
        hits[0].message.contains("`index` -> `props`"),
        "{}",
        hits[0].message
    );
}

#[test]
fn unordered_iter_flow_fires_on_the_sink_and_sorting_cleanses() {
    // taint.rs: `render` pushes HashMap keys into a String (reported at
    // the sink); `render_debug` carries a pragma on the sink line;
    // `render_sorted` sorts first — both silent.
    let run = run_fixture();
    let hits: Vec<_> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("taint.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "unordered-iter-flow");
    assert!(hits[0].message.contains("push_str"), "{}", hits[0].message);
}

#[test]
fn deadline_propagation_fires_on_the_dropped_budget_only() {
    // deadline.rs: `handle` invents a fresh Deadline (reported at the
    // call); `handle_probe` does so under a pragma and `handle_scored`
    // threads the parameter — both silent.
    let run = run_fixture();
    let hits: Vec<_> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("deadline.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "deadline-propagation");
    assert_eq!(hits[0].fix_hint, "pass `deadline` through to `score`");
}

#[test]
fn flow_rules_are_silent_outside_their_scope() {
    // outside.rs mirrors all four flow violations but sits outside the
    // flow rules' `only` paths.
    let run = run_fixture();
    assert!(!run.findings.iter().any(|f| f.file.ends_with("outside.rs")));
}

#[test]
fn worker_counts_do_not_change_the_output() {
    let root = fixture_root();
    let config = load_config(&root.join("lint.toml")).expect("fixture lint.toml parses");
    let baseline = run_fixture();
    for workers in [1, 2, 4, 8] {
        let run = lint_workspace(&root, &config, workers).expect("fixture workspace lints");
        assert_eq!(
            render_json(&run.findings, run.files_scanned),
            render_json(&baseline.findings, baseline.files_scanned),
            "output differs at {workers} workers"
        );
    }
}

#[test]
fn wire_scope_catches_panics_and_unordered_iteration() {
    // The wire fixture file mirrors the real lint.toml scoping over
    // crates/wire/src: the snapshot decoder must stay panic-free on
    // untrusted bytes and byte-stable on encode, so both rules fire.
    let run = run_fixture();
    let rules: Vec<&str> = run
        .findings
        .iter()
        .filter(|f| f.file.ends_with("wire/src/decode.rs"))
        .map(|f| f.rule.as_str())
        .collect();
    assert_eq!(rules.len(), 2, "{rules:?}");
    assert!(rules.contains(&"no-unordered-iter"));
    assert!(rules.contains(&"no-panic-in-lib"));
}
