//! `surveyor diff` of an incremental base against its update, pinned
//! whole: the cities seed-5 ρ 40 world mined from 3 of its 4 shards, then
//! `update --delta-preset cities-tail` ingesting the fourth. Every
//! section's counts and key lists (JSON) and the human report are
//! compared byte for byte with the fixtures. Regenerate them from a
//! directory holding the two snapshots:
//!
//! ```text
//! surveyor diff --old base.swire --new updated.swire \
//!     > crates/cli/tests/fixtures/diff_cities_tail.txt
//! surveyor diff --old base.swire --new updated.swire --format json \
//!     > crates/cli/tests/fixtures/diff_cities_tail.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `surveyor` with `args` inside `dir`.
fn surveyor(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_surveyor"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// A fresh directory holding `base.swire` and `updated.swire`.
fn base_and_update() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("surveyor-diff-pin-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let base = surveyor(
        &dir,
        &[
            "snapshot",
            "--preset",
            "cities",
            "--seed",
            "5",
            "--rho",
            "40",
            "--shards",
            "4",
            "--ingest-shards",
            "3",
            "--out",
            "base.swire",
        ],
    );
    assert!(base.status.success(), "{base:?}");
    let update = surveyor(
        &dir,
        &[
            "update",
            "--snapshot",
            "base.swire",
            "--delta-preset",
            "cities-tail",
            "--seed",
            "5",
            "--out",
            "updated.swire",
        ],
    );
    assert!(update.status.success(), "{update:?}");
    dir
}

#[test]
fn diff_of_a_base_against_its_update_is_pinned() {
    let dir = base_and_update();
    let pair = ["diff", "--old", "base.swire", "--new", "updated.swire"];

    let human = surveyor(&dir, &pair);
    assert_eq!(human.status.code(), Some(1), "{human:?}");
    assert_eq!(
        String::from_utf8(human.stdout).unwrap(),
        fixture("diff_cities_tail.txt")
    );

    let json = surveyor(&dir, &[&pair[..], &["--format", "json"]].concat());
    assert_eq!(json.status.code(), Some(1), "{json:?}");
    let found: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&json.stdout).unwrap()).unwrap();
    let expected: serde_json::Value =
        serde_json::from_str(&fixture("diff_cities_tail.json")).unwrap();
    assert_eq!(found, expected);

    std::fs::remove_dir_all(&dir).ok();
}
