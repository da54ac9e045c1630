//! The rules of the lib-only clippy gate (DESIGN.md §6e), checked on the
//! planted violations of `scripts/lint-fixture/`. The gate is the
//! `LIB_LINTS` deny array in `scripts/verify.sh` plus the path lists in
//! `clippy.toml`; these tests run exactly that array over the fixture.
//! `verify.sh` pins the whole sorted denial list against `expected.txt`;
//! each test here names what one rule must catch and what it must leave
//! alone.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `LIB_LINTS=( … )` array of `scripts/verify.sh`, one word per entry.
fn lib_lints(root: &Path) -> Vec<String> {
    let script = std::fs::read_to_string(root.join("scripts/verify.sh")).expect("read verify.sh");
    let open = "LIB_LINTS=(";
    let start = script.find(open).expect("verify.sh declares LIB_LINTS") + open.len();
    let len = script[start..].find(')').expect("LIB_LINTS is closed");
    script[start..start + len]
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

/// The gate's denials over the fixture, as `src/file.rs:line:col: message`
/// lines. Clippy runs once per test binary, into the target directory
/// `verify.sh` uses.
fn denials() -> &'static [String] {
    static DENIALS: OnceLock<Vec<String>> = OnceLock::new();
    DENIALS.get_or_init(|| {
        let root = workspace_root();
        let out = Command::new("cargo")
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", root.join("target/lint-fixture"))
            .args([
                "clippy",
                "--manifest-path",
                "scripts/lint-fixture/Cargo.toml",
                "--no-deps",
                "--lib",
                "--message-format=short",
                "--",
            ])
            .args(lib_lints(&root))
            .output()
            .expect("spawn cargo clippy");
        let log = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "the gate passed a crate built to fail it:\n{log}"
        );
        let lines: Vec<String> = log
            .lines()
            .filter(|line| line.starts_with("src/"))
            .map(str::to_owned)
            .collect();
        assert!(!lines.is_empty(), "cargo clippy reported nothing:\n{log}");
        lines
    })
}

/// The denials at `file:line` of the fixture.
fn denials_at(file: &str, line: usize) -> Vec<&'static str> {
    let site = format!("src/{file}:{line}:");
    denials()
        .iter()
        .filter(|d| d.starts_with(&site))
        .map(String::as_str)
        .collect()
}

/// Line `line` (1-based) of the fixture's `src/{file}`.
fn source_line(file: &str, line: usize) -> String {
    let path = workspace_root().join("scripts/lint-fixture/src").join(file);
    let text = std::fs::read_to_string(&path).expect("read fixture source");
    text.lines().nth(line - 1).unwrap_or_default().to_owned()
}

/// Asserts the fixture's `file:line` holds `code` and is denied with
/// `message`.
fn assert_denied(file: &str, line: usize, code: &str, message: &str) {
    assert!(
        source_line(file, line).contains(code),
        "src/{file}:{line} no longer holds `{code}`"
    );
    let found = denials_at(file, line);
    assert!(
        found.iter().any(|d| d.contains(message)),
        "src/{file}:{line} not denied with `{message}`; denials there: {found:?}"
    );
}

/// Asserts the fixture's `file:line` holds `code` and draws no denial.
fn assert_silent(file: &str, line: usize, code: &str) {
    assert!(
        source_line(file, line).contains(code),
        "src/{file}:{line} no longer holds `{code}`"
    );
    let found = denials_at(file, line);
    assert!(found.is_empty(), "src/{file}:{line} denied: {found:?}");
}

mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_panic_macros() {
        assert_denied("lib.rs", 15, ".unwrap()", "used `unwrap()`");
        assert_denied("lib.rs", 19, ".expect(", "used `expect()`");
        assert_denied("lib.rs", 23, "panic!", "`panic` should not be present");
        assert_denied("lib.rs", 32, "todo!", "`todo` should not be present");
        assert_denied(
            "lib.rs",
            36,
            "unimplemented!",
            "`unimplemented` should not be present",
        );
        assert_denied("flow.rs", 26, "unreachable!", "the `unreachable!` macro");
        assert_denied("lib.rs", 41, "unsafe", "usage of an `unsafe` block");
    }

    #[test]
    fn ignores_unwrap_variants_and_paths() {
        for (file, line) in [
            ("locks.rs", 12),
            ("locks.rs", 16),
            ("locks.rs", 38),
            ("maps.rs", 29),
        ] {
            assert!(source_line(file, line).contains(".unwrap_or("));
            let found = denials_at(file, line);
            assert!(
                found.iter().all(|d| !d.contains("unwrap()")),
                "src/{file}:{line}: `unwrap_or` read as `unwrap`: {found:?}"
            );
        }
    }

    #[test]
    fn wall_clock_and_rng_and_print() {
        assert_denied(
            "clock.rs",
            6,
            "Instant::now()",
            "disallowed method `std::time::Instant::now`",
        );
        assert_denied(
            "clock.rs",
            10,
            "SystemTime::now()",
            "disallowed method `std::time::SystemTime::now`",
        );
        assert_denied("lib.rs", 27, "println!", "use of `println!`");
        assert_denied("lib.rs", 28, "eprintln!", "use of `eprintln!`");
        // No rule is needed for unseeded randomness: the workspace's one
        // generator has no entropy-seeded constructor, so such a call does
        // not compile.
        let rng = std::fs::read_to_string(workspace_root().join("crates/prob/src/rng.rs"))
            .expect("read crates/prob/src/rng.rs");
        for entropy in ["fn thread_rng", "fn from_entropy"] {
            assert!(!rng.contains(entropy), "prob's rng.rs defines `{entropy}`");
        }
    }

    #[test]
    fn hashmap_import_forms() {
        let message = "disallowed type `std::collections::HashMap`";
        assert_denied("maps.rs", 4, "use std::collections::HashMap;", message);
        assert_denied(
            "maps.rs",
            7,
            "std::collections::HashMap<&str, u32>",
            message,
        );
        assert_denied("maps.rs", 11, "-> std::collections::HashMap<", message);
        assert_denied("maps.rs", 19, "-> std::collections::HashMap<", message);
    }

    #[test]
    fn deserialize_derive_needs_a_reason() {
        assert_denied(
            "json.rs",
            6,
            "Deserialize)]",
            "disallowed macro `serde_derive::Deserialize`",
        );
    }

    #[test]
    fn pragmas_suppress_and_unused_pragmas_report() {
        // Each `#[expect]` twin silences its own site.
        assert_silent("lib.rs", 46, "v.unwrap()");
        assert_silent("lib.rs", 51, "println!");
        assert_silent("clock.rs", 15, "Instant::now()");
        assert_silent("flow.rs", 15, "Deadline::starting_now");
        assert_silent("flow.rs", 37, "unreachable!");
        assert_silent("flow.rs", 55, "for count in counts");
        assert_silent("locks.rs", 28, "index.write()");
        assert_silent("locks.rs", 38, "shared.lock()");
        assert_silent("maps.rs", 28, "&HashMap<String, u32>");
        assert_silent("json.rs", 12, "Deserialize)]");
        // ... and no other: the second lock under a declared first is denied.
        assert_denied(
            "locks.rs",
            29,
            "props.write()",
            "disallowed method `std::sync::RwLock::write`",
        );
        // An expectation that suppresses nothing, or names no lint, is
        // reported.
        assert_denied(
            "expects.rs",
            3,
            "#[expect(clippy::unwrap_used",
            "this lint expectation is unfulfilled",
        );
        assert_denied("expects.rs", 8, "clippy::no_such_rule", "unknown lint");
    }

    #[test]
    fn cfg_test_module_is_exempt_for_lib_rules() {
        assert_silent("testcode.rs", 7, "#[cfg(test)]");
        for (line, code) in [
            (10, "use std::collections::HashMap;"),
            (16, "Instant::now()"),
            (18, "shared.lock().unwrap()"),
            (19, ".expect(\"present\")"),
            (20, "println!"),
        ] {
            assert_silent("testcode.rs", line, code);
        }
        let found: Vec<_> = denials()
            .iter()
            .filter(|d| d.starts_with("src/testcode.rs:"))
            .collect();
        assert!(found.is_empty(), "test code denied: {found:?}");
    }
}
