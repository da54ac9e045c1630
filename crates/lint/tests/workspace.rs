//! The scan over real trees: the repository itself lints to the same
//! report at every worker width, and an unreadable file fails the run
//! naming the same file at every width.

use std::path::{Path, PathBuf};
use surveyor_lint::config::LintConfig;
use surveyor_lint::output::render_json;
use surveyor_lint::{lint_workspace, load_config};

fn repository_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_repository_lints_to_one_report_at_every_width() {
    let root = repository_root();
    let config = load_config(&root.join("lint.toml")).expect("lint.toml parses");
    let render = |workers| {
        let run = lint_workspace(&root, &config, workers).expect("repository lints");
        render_json(&run.findings, run.files_scanned)
    };
    let serial = render(1);
    for workers in [2, 8] {
        assert_eq!(
            render(workers),
            serial,
            "report differs at {workers} workers"
        );
    }
}

#[cfg(unix)]
#[test]
fn the_first_unreadable_file_in_walk_order_is_reported_at_every_width() {
    let dir = std::env::temp_dir().join(format!("surveyor-lint-unreadable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("m.rs"), "fn m() {}").expect("write");
    for name in ["a.rs", "z.rs"] {
        std::os::unix::fs::symlink(dir.join("missing"), dir.join(name)).expect("symlink");
    }
    for workers in [1, 8] {
        let err = lint_workspace(&dir, &LintConfig::default(), workers)
            .expect_err("dangling symlinks cannot be read");
        assert!(
            err.to_string().starts_with("reading a.rs: "),
            "{workers} workers reported {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
