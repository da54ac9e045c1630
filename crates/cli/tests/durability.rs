//! Output files survive a writer killed by a real signal. `surveyor
//! snapshot --out X --store J` over an existing `X` and `J` is sent
//! `SIGKILL` at seeded delays that span its run, its writes and its exit:
//! afterwards each file holds its old bytes or the whole new file (the
//! snapshot one that loads) — never a prefix. The unit tests of
//! `replace_file` inject failures; this kills the process.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `surveyor snapshot` of the small cities world at `seed` into `out`,
/// with the store JSON into `store`.
fn snapshot(seed: u64, out: &Path, store: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_surveyor"));
    command
        .args([
            "snapshot", "--preset", "cities", "--rho", "40", "--shards", "2",
        ])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .arg("--store")
        .arg(store)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

/// A file the writer replaces: what it holds before each run, and what a
/// finished run leaves there.
struct Output<'a> {
    path: &'a Path,
    old: Vec<u8>,
    new: Vec<u8>,
}

impl Output<'_> {
    /// `true` when the file holds the new bytes, `false` for the old
    /// ones; anything else fails the test.
    fn is_new(&self, delay: Option<Duration>) -> bool {
        let now = std::fs::read(self.path).unwrap();
        if now == self.old {
            return false;
        }
        let name = self.path.display();
        assert_eq!(
            now.len(),
            self.new.len(),
            "{name} killed after {delay:?}: a partial file"
        );
        assert_eq!(
            now, self.new,
            "{name} killed after {delay:?}: neither old nor new"
        );
        true
    }
}

/// What a kill after `delay` (none: the writer runs to its end) left in
/// the snapshot file and the store file, which held their old bytes
/// before: `true` when the store, written last, is the new one.
fn killed_after(delay: Option<Duration>, snapshot_file: &Output, store_file: &Output) -> bool {
    std::fs::write(snapshot_file.path, &snapshot_file.old).unwrap();
    std::fs::write(store_file.path, &store_file.old).unwrap();
    let mut child = snapshot(7, snapshot_file.path, store_file.path)
        .spawn()
        .unwrap();
    if let Some(delay) = delay {
        std::thread::sleep(delay);
        // The child may have finished already; the kill is then a no-op.
        let _ = child.kill();
    }
    child.wait().unwrap();
    let snapshot_new = snapshot_file.is_new(delay);
    if snapshot_new {
        assert!(surveyor::load_snapshot(&snapshot_file.new).is_ok());
    }
    let store_new = store_file.is_new(delay);
    assert!(
        snapshot_new || !store_new,
        "killed after {delay:?}: the store JSON was replaced before the snapshot"
    );
    store_new
}

#[test]
fn a_killed_snapshot_write_leaves_the_old_file_or_a_whole_new_one() {
    let dir = std::env::temp_dir().join(format!("surveyor-kill-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (target, target_store) = (dir.join("world.swire"), dir.join("store.json"));
    let (fresh, fresh_store) = (dir.join("fresh.swire"), dir.join("fresh.json"));
    assert!(snapshot(7, &fresh, &fresh_store)
        .status()
        .unwrap()
        .success());
    assert!(snapshot(5, &target, &target_store)
        .status()
        .unwrap()
        .success());
    let snapshot_file = Output {
        path: &target,
        old: std::fs::read(&target).unwrap(),
        new: std::fs::read(&fresh).unwrap(),
    };
    let store_file = Output {
        path: &target_store,
        old: std::fs::read(&target_store).unwrap(),
        new: std::fs::read(&fresh_store).unwrap(),
    };
    assert_ne!(snapshot_file.old, snapshot_file.new);
    assert_ne!(store_file.old, store_file.new);

    // The two ends: a writer killed at once leaves the old files, one left
    // alone the new; how long the latter takes bounds the search.
    assert!(!killed_after(
        Some(Duration::ZERO),
        &snapshot_file,
        &store_file
    ));
    assert!(!snapshot_file.is_new(Some(Duration::ZERO)));
    let started = Instant::now();
    assert!(killed_after(None, &snapshot_file, &store_file));
    let (mut before, mut after) = (Duration::ZERO, started.elapsed());
    // Seeded kills between the latest delay that left the old store and
    // the earliest that left the new one, so they close in on the two
    // writes and renames whatever this host's speed.
    let mut state = 0x2015_u64;
    for _ in 0..12 {
        // splitmix64 → a point in the middle half of the interval.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let fraction = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
        let delay = before + (after - before).mul_f64(0.25 + fraction / 2.0);
        if killed_after(Some(delay), &snapshot_file, &store_file) {
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
    let (target, store) = (dir.join("world.swire"), dir.join("store.json"));
    let inodes = || [&target, &store].map(|path| std::fs::metadata(path).unwrap().ino());
    assert!(snapshot(5, &target, &store).status().unwrap().success());
    let before = inodes();

    assert!(snapshot(7, &target, &store).status().unwrap().success());
    let after = inodes();
    assert_ne!(before[0], after[0], "the snapshot was rewritten in place");
    assert_ne!(before[1], after[1], "the store JSON was rewritten in place");
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["store.json", "world.swire"],
        "a temporary file was left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
