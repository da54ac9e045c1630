//! The `surveyor` binary's contract with the scripts and programs that
//! run it: what `--help` and a bare invocation print and where, that a
//! bad value is refused (exit 2) before any file is read or written, that
//! `serve` announces a connectable address on its first stdout line, and
//! that a reader closing stdout early does not crash the command.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn surveyor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_surveyor"))
        .args(args)
        .output()
        .unwrap()
}

/// A fresh directory for one test, named for it and this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("surveyor-{name}-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(path: &Path) -> &str {
    path.to_str().unwrap()
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    let out = surveyor(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8(out.stdout).unwrap();
    assert_eq!(usage, format!("{}\n", surveyor_cli::args::usage()));
    assert!(out.stderr.is_empty());
}

#[test]
fn a_bare_invocation_prints_the_usage_on_stderr_and_exits_2() {
    let out = surveyor(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        format!(
            "error: missing subcommand\n{}\n",
            surveyor_cli::args::usage()
        )
    );
}

#[test]
fn a_bad_value_is_refused_before_any_file_is_touched() {
    // The snapshot does not exist: reading it would exit 1.
    let out = surveyor(&["serve", "--snapshot", "missing.swire", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr, "error: invalid value for --workers: 0\n");

    // `snapshot` writes no run report, so `--report` is refused, and
    // neither file is written.
    let dir = scratch_dir("report-refused");
    let (snapshot, report) = (dir.join("w.swire"), dir.join("r.json"));
    let out = surveyor(&[
        "snapshot",
        "--preset",
        "cities",
        "--out",
        path(&snapshot),
        "--report",
        path(&report),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr, "error: unknown flag: --report\n");
    assert!(!snapshot.exists() && !report.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The address in `serve`'s first line, by the rule the benchmark's
/// ledger reads it with: the digits, dots and colon after `http://`.
fn listen_address(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    let addr: String = (rest.chars())
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | ':'))
        .collect();
    addr.parse().ok()
}

/// One HTTP/1.1 exchange on a fresh connection that the server closes
/// after its reply; the whole reply.
fn http(addr: SocketAddr, method: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

/// A child process killed and reaped if the test ends before it exits.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn a_value_the_command_itself_checks_is_refused_before_the_snapshot_is_read() {
    // The snapshot does not exist: reading it first would exit 1.
    let out = surveyor(&[
        "update",
        "--snapshot",
        "missing.swire",
        "--delta-preset",
        "atlantis",
        "--out",
        "o.swire",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: unknown delta preset: atlantis (expected one of: "),
        "{stderr}"
    );
    assert!(!Path::new("o.swire").exists());

    let out = surveyor(&[
        "query",
        "--snapshot",
        "missing.swire",
        "--type",
        "city",
        "--property",
        "",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr, "error: empty property\n");
}

#[test]
fn serve_announces_a_connectable_address_on_its_first_line() {
    let dir = scratch_dir("serve-contract");
    let snapshot = dir.join("world.swire");
    let mined = surveyor(&[
        "snapshot",
        "--preset",
        "cities",
        "--seed",
        "5",
        "--rho",
        "40",
        "--shards",
        "2",
        "--out",
        path(&snapshot),
    ]);
    assert!(mined.status.success(), "{mined:?}");

    // How the ledger starts it.
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_surveyor"))
            .args(["serve", "--snapshot", path(&snapshot)])
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let expected = format!("serving {} (", path(&snapshot));
    assert!(first.starts_with(&expected), "{first:?}");
    let addr = listen_address(&first).expect("a listen address on the first line");

    assert!(http(addr, "GET", "/readyz").starts_with("HTTP/1.1 200"));
    assert!(http(addr, "POST", "/ctl/shutdown").contains("\"shutting_down\": true"));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(server.0.wait().unwrap().success());
    assert!(rest.contains("server stopped"), "{rest:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // The store JSON is printed whole at the end: far more than a pipe
    // holds, to a reader that has already gone (`| head -c 10`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_surveyor"))
        .args(["mine", "--preset", "cities", "--seed", "5", "--rho", "40"])
        .args(["--shards", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
