//! Processes and files the benchmark owns: the `surveyor` binary it
//! builds, the server child it starts, and its per-process scratch
//! directory. All of them sit under the build's target directory, inside
//! the checkout, and all of them are cleaned up on every way out.

use crate::http::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ChildStdout;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// The target directory this binary was built into (`…/release/ledger`,
/// or `…/debug/deps/ledger-…` under test → `…`), where the `surveyor`
/// binary and the scratch files go too.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    exe.ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Builds the CLI the server child runs, from the sources of this
/// checkout, next to this binary. A fresh build is a no-op for cargo, so
/// every run pays a fraction of a second to be sure the server it measures
/// is the code it sits beside.
pub fn build_surveyor() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let manifest = crate::repo_root().join("Cargo.toml");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "surveyor-cli", "--bin", "surveyor"])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building surveyor from {} failed",
            manifest.display()
        ));
    }
    let binary = target.join("release").join("surveyor");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// A directory of this process's own, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> Result<Self, String> {
        // One per set-up; the counter keeps repeated set-ups (and tests
        // sharing a process) out of each other's files.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = target_dir()?.join("ledger").join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn write(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `surveyor serve` as a child process on a port the OS picked.
pub struct ServerChild {
    child: Child,
    /// Held open so that what the server prints on its way out has
    /// somewhere to go.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Pulls `127.0.0.1:PORT` out of the line the server prints once bound.
fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    let addr: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | ':'))
        .collect();
    addr.parse().ok()
}

impl ServerChild {
    /// Starts the server on `snapshot` and waits for its first `200`.
    pub fn start(binary: &Path, snapshot: &Path, workers: usize) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the child is owned: any early return drops `server`,
        // which stops and reaps it.
        let mut server = Self {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the server's first line: {e}"))?;
        server.addr = parse_listen_line(&line)
            .ok_or_else(|| format!("no listen address in the server's first line: {line:?}"))?;
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let mut client = Client::new(server.addr, Duration::from_secs(2));
        loop {
            match client.get("/readyz") {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err("server did not answer /readyz in time".to_owned())
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server through its control route and reaps it; `Ok` when
    /// it exited with status 0 on its own.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!("server had already exited: {status}"));
        }
        let asked = Client::new(self.addr, Duration::from_secs(2)).post("/ctl/shutdown");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("server did not stop when asked and was killed".to_owned())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After `shutdown` the child is reaped and this finds it gone.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.stop();
        }
    }
}

/// `VmHWM` of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// User plus system CPU seconds a process has used, from
/// `/proc/<pid>/stat`, in the kernel's usual 100 ticks per second.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) / 100.0),
        _ => Err(format!("cannot parse {path}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_address_comes_from_the_first_line() {
        let line = "serving a.swire (12 associations) on http://127.0.0.1:40123\n";
        assert_eq!(
            parse_listen_line(line),
            Some(SocketAddr::from(([127, 0, 0, 1], 40123)))
        );
        assert_eq!(parse_listen_line("no address here"), None);
    }

    #[test]
    fn own_process_has_memory_and_cpu_readings() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).expect("VmHWM") > 0.5);
        assert!(cpu_seconds(pid).expect("cpu") >= 0.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = ScratchDir::create().expect("scratch dir");
        let file = dir.write("x.bin", b"abc").expect("write");
        assert!(file.is_file());
        drop(dir);
        assert!(!file.exists());
    }
}
