//! Snapshot files survive a writer killed by a real signal. `surveyor
//! snapshot --out X` over an existing `X` is sent `SIGKILL` at seeded
//! delays that span its run, its write and its exit: afterwards `X` holds
//! the old bytes or the whole new file, which loads — never a prefix. The
//! unit tests of `replace_file` inject failures; this kills the process.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `surveyor snapshot` of the small cities world at `seed` into `out`.
fn snapshot(seed: u64, out: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_surveyor"));
    command
        .args([
            "snapshot", "--preset", "cities", "--rho", "40", "--shards", "2",
        ])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

/// What a kill after `delay` (none: the writer runs to its end) left at
/// `target`, which held `old` before: `true` for the new file. Anything
/// but the old bytes or the whole new file fails the test.
fn killed_after(delay: Option<Duration>, target: &Path, old: &[u8], new: &[u8]) -> bool {
    std::fs::write(target, old).unwrap();
    let mut child = snapshot(7, target).spawn().unwrap();
    if let Some(delay) = delay {
        std::thread::sleep(delay);
        // The child may have finished already; the kill is then a no-op.
        let _ = child.kill();
    }
    child.wait().unwrap();
    let now = std::fs::read(target).unwrap();
    if now == old {
        return false;
    }
    assert_eq!(
        now.len(),
        new.len(),
        "killed after {delay:?}: a partial file"
    );
    assert_eq!(now, new, "killed after {delay:?}: neither old nor new");
    assert!(surveyor::load_snapshot(&now).is_ok());
    true
}

#[test]
fn a_killed_snapshot_write_leaves_the_old_file_or_a_whole_new_one() {
    let dir = std::env::temp_dir().join(format!("surveyor-kill-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("world.swire");
    let fresh = dir.join("fresh.swire");
    assert!(snapshot(7, &fresh).status().unwrap().success());
    let new = std::fs::read(&fresh).unwrap();
    assert!(snapshot(5, &target).status().unwrap().success());
    let old = std::fs::read(&target).unwrap();
    assert_ne!(old, new);

    // The two ends: a writer killed at once leaves the old file, one left
    // alone the new; how long the latter takes bounds the search.
    assert!(!killed_after(Some(Duration::ZERO), &target, &old, &new));
    let started = Instant::now();
    assert!(killed_after(None, &target, &old, &new));
    let (mut before, mut after) = (Duration::ZERO, started.elapsed());
    // Seeded kills between the latest delay that left the old file and
    // the earliest that left the new one, so they close in on the write
    // and the rename whatever this host's speed.
    let mut state = 0x2015_u64;
    for _ in 0..12 {
        // splitmix64 → a point in the middle half of the interval.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let fraction = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
        let delay = before + (after - before).mul_f64(0.25 + fraction / 2.0);
        if killed_after(Some(delay), &target, &old, &new) {
            after = delay;
        } else {
            before = delay;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The kills above close in on a writer's window only to a sleep's
/// precision; an in-place writer's truncate-then-write window is
/// microseconds. What a finished write leaves tells them apart: a file
/// replaced by rename is a new inode, and no temporary is left beside it.
#[test]
fn a_finished_snapshot_write_is_a_new_file_with_no_temporary_left() {
    use std::os::unix::fs::MetadataExt;

    let dir = std::env::temp_dir().join(format!("surveyor-rename-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("world.swire");
    assert!(snapshot(5, &target).status().unwrap().success());
    let before = std::fs::metadata(&target).unwrap().ino();

    assert!(snapshot(7, &target).status().unwrap().success());
    let after = std::fs::metadata(&target).unwrap().ino();
    assert_ne!(before, after, "the snapshot was rewritten in place");
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    left.sort();
    assert_eq!(left, ["world.swire"], "a temporary file was left behind");
    std::fs::remove_dir_all(&dir).ok();
}
