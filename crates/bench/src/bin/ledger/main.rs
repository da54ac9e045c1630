//! `ledger`: the repository's benchmark. One run takes one workload
//! through the whole path — mine → update → load → serve — and reports
//! what a user of the system would see; a traced run walks the same
//! layers one call at a time for the per-layer numbers. README.md in this
//! directory has the workloads, the metrics and how to read them.

#![forbid(unsafe_code)]

mod child;
mod http;
mod layers;
mod loadgen;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod traced;

use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds a run measures for when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 40;
const DEFAULT_SEED: u64 = 2015;

const USAGE: &str = "usage:
  ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
      one run of one workload; the last line printed is the result as JSON
  ledger sweep [--workload NAME]... [--runs N] [--first-seed N] [--seconds S]
               [--trace 0|1] [--quick] [--out FILE]
      every workload (or the named ones), N runs each on seeds first-seed..,
      each run in its own process; prints medians and spreads, writes FILE
      (default <target dir>/ledger/sweep.json)
  ledger check A.json B.json
      compares two sweep files row by row against the bounds; exits 1 on `worse`
  ledger list
      the workloads with why each is there, and every metric with its unit,
      direction, bound and the end-to-end metric it should move
workloads: web_mine, longtail_update";

/// The root of the checkout this binary was built from: the nearest
/// directory above this package that holds the workspace's `crates/cli`.
/// The sources are compiled where they are run, so the compile-time path
/// is the run-time path.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("crates/cli/Cargo.toml").is_file())
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf()
}

/// `--flag value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|a| a == name);
        found.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn number(&mut self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{name} needs a whole number, got {raw:?}")),
        }
    }

    fn trace(&mut self) -> Result<bool, String> {
        match self.number("--trace", 0)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace is 0 or 1, got {other}")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn workload_named(name: &str, quick: bool) -> Result<Workload, String> {
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(if quick { workload.quick() } else { *workload })
}

fn one_run(mut args: Args) -> Result<bool, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?;
    let trace = args.trace()?;
    let quick = args.flag("--quick");
    args.done()?;
    if seconds == 0 {
        return Err("--seconds is at least 1".to_owned());
    }
    let workload = workload_named(&name, quick)?;
    let outcome = if trace {
        traced::run(&workload, seed, seconds as f64)?
    } else {
        run::run(&workload, seed, seconds as f64)?
    };
    report::print_outcome(&name, seed, &outcome);
    println!("{}", report::result_line(&outcome));
    Ok(outcome.tally.failed == 0)
}

fn sweep(mut args: Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    while let Some(name) = args.value("--workload")? {
        workload_named(&name, false)?;
        workloads.push(name);
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    }
    let options = report::SweepOptions {
        workloads,
        runs: args.number("--runs", 1)?.max(1),
        first_seed: args.number("--first-seed", DEFAULT_SEED)?,
        seconds: args.number("--seconds", DEFAULT_SECONDS)?.max(1),
        trace: args.trace()?,
        quick: args.flag("--quick"),
    };
    let out = match args.value("--out")? {
        Some(path) => PathBuf::from(path),
        None => child::target_dir()?.join("ledger").join("sweep.json"),
    };
    args.done()?;
    report::sweep(&options, &out)
}

fn list() {
    for w in WORKLOADS {
        println!("workload {:<16} {}", w.name, w.why);
    }
    for m in spec::END_TO_END {
        let (better, bound) = (m.better.as_str(), m.bound);
        println!(
            "end-to-end {:<34} {:<7} {better} is better, bound {bound}",
            m.name, m.unit
        );
    }
    for m in spec::PER_LAYER {
        let (better, moves) = (m.better.as_str(), m.moves);
        println!(
            "per-layer  {:<34} {:<7} {better} is better, moves {moves}",
            m.name, m.unit
        );
    }
}

fn check(args: Args) -> Result<bool, String> {
    match &args.0[..] {
        [a, b] => report::check(Path::new(a), Path::new(b)),
        _ => Err("check takes two result files".to_owned()),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("sweep" | "check" | "list") => args.remove(0),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => "run".to_owned(),
    };
    let result = match command.as_str() {
        "sweep" => sweep(Args(args)),
        "check" => check(Args(args)),
        "list" => {
            list();
            Ok(true)
        }
        _ => one_run(Args(args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_in_any_order() {
        let words = [
            "--seed",
            "7",
            "--quick",
            "--workload",
            "web_mine",
            "--trace",
            "1",
        ];
        let mut args = Args(words.iter().map(|s| (*s).to_owned()).collect());
        assert_eq!(
            args.value("--workload").unwrap().as_deref(),
            Some("web_mine")
        );
        assert_eq!(args.number("--seed", 1).unwrap(), 7);
        assert_eq!(args.number("--seconds", 40).unwrap(), 40);
        assert!(args.trace().unwrap());
        assert!(args.flag("--quick"));
        assert!(args.done().is_ok());
        assert!(Args(vec!["--seed".to_owned()]).number("--seed", 1).is_err());
        assert!(Args(vec!["--trace".to_owned(), "2".to_owned()])
            .trace()
            .is_err());
        assert!(Args(vec!["stray".to_owned()]).done().is_err());
        assert!(workload_named("nope", false).is_err());
        assert_eq!(workload_named("longtail_update", true).unwrap().shards, 8);
    }

    #[test]
    fn the_checkout_root_holds_the_workspace() {
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(repo_root()
            .join("crates/bench/src/bin/ledger/main.rs")
            .is_file());
    }
}
