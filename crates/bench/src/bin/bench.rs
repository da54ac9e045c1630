//! `bench` — the gates that keep Surveyor's measured claims honest.
//!
//! ```text
//! bench scale [--seed N] [--out PATH] [--quick] [--assert-scaling] [--scaling-tolerance T]
//! bench snapshot [--seed N] [--out PATH] [--quick] [--assert-speedup X] [--assert-validate-mb-s X]
//! bench serve [--seed N] [--out PATH] [--quick] [--assert-chaos] [--assert-lookup-flat]
//! bench incremental [--seed N] [--out PATH] [--quick] [--assert-delta-scaling]
//! ```
//!
//! Each subcommand writes one artifact (`BENCH_<name>.json`
//! unless `--out` says otherwise): a typed record from
//! `surveyor_bench::experiments`, whose function documents what it
//! measures and whose methods are its gates — `scale_sweep`
//! (`--assert-scaling`, the curves of `surveyor_bench::scaling`, with
//! `--scaling-tolerance T` as the slack), `snapshot_bench`
//! (`--assert-speedup`, `--assert-validate-mb-s`), `serve_bench`
//! (`--assert-chaos`, `--assert-lookup-flat`) and `incremental_bench`
//! (`--assert-delta-scaling`). `--quick` shrinks the workload for CI
//! smoke tests. A gate that fails exits nonzero after the artifact is
//! written, so the evidence survives.

#![forbid(unsafe_code)]

use serde::Serialize as _;
use serde_json::Value;
use std::process::ExitCode;
use surveyor_bench::experiments::{self, ReproConfig};
use surveyor_bench::scaling;

/// A subcommand's own flag: a switch, or one that takes a number.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Switch,
    /// A number in `[0, 1)`, written `T`.
    Fraction,
    /// A number above 0, written `X`.
    Positive,
}

impl Kind {
    /// The usage text's name for the flag's value, and the range it must
    /// fall in; `None` for a switch.
    fn value(self) -> Option<(&'static str, &'static str)> {
        match self {
            Kind::Switch => None,
            Kind::Fraction => Some(("T", "0 <= T < 1")),
            Kind::Positive => Some(("X", "X > 0")),
        }
    }

    fn admits(self, x: f64) -> bool {
        match self {
            Kind::Switch => false,
            Kind::Fraction => (0.0..1.0).contains(&x),
            Kind::Positive => x > 0.0,
        }
    }
}

/// A subcommand: its default artifact, its own flags and the
/// measurement.
struct Command {
    name: &'static str,
    out: &'static str,
    flags: &'static [(&'static str, Kind)],
    /// Runs the measurement; returns the artifact and one message per
    /// gate that failed.
    run: fn(&Args) -> (Value, Vec<String>),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "scale",
        out: "BENCH_scale.json",
        flags: &[
            ("--assert-scaling", Kind::Switch),
            ("--scaling-tolerance", Kind::Fraction),
        ],
        run: scale,
    },
    Command {
        name: "snapshot",
        out: "BENCH_snapshot.json",
        flags: &[
            ("--assert-speedup", Kind::Positive),
            ("--assert-validate-mb-s", Kind::Positive),
        ],
        run: snapshot,
    },
    Command {
        name: "serve",
        out: "BENCH_serve.json",
        flags: &[
            ("--assert-chaos", Kind::Switch),
            ("--assert-lookup-flat", Kind::Switch),
        ],
        run: serve,
    },
    Command {
        name: "incremental",
        out: "BENCH_incremental.json",
        flags: &[("--assert-delta-scaling", Kind::Switch)],
        run: incremental,
    },
];

/// The flags every subcommand shares, and those of its own that
/// were given: a switch with no number, the others with theirs.
#[derive(Debug)]
struct Args {
    config: ReproConfig,
    out: String,
    quick: bool,
    given: Vec<(&'static str, Option<f64>)>,
}

impl Args {
    fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    /// The last number given for `flag`.
    fn number(&self, flag: &str) -> Option<f64> {
        (self.given.iter().rev()).find_map(|&(f, x)| if f == flag { x } else { None })
    }
}

fn usage() -> String {
    let lines: Vec<String> = COMMANDS
        .iter()
        .map(|command| {
            let mut line = format!("bench {} [--seed N] [--out PATH] [--quick]", command.name);
            for &(flag, kind) in command.flags {
                match kind.value() {
                    Some((name, _)) => line.push_str(&format!(" [{flag} {name}]")),
                    None => line.push_str(&format!(" [{flag}]")),
                }
            }
            line
        })
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

/// Parses a subcommand's arguments.
fn parse(command: &Command, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: ReproConfig::default(),
        out: command.out.to_owned(),
        quick: false,
        given: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let own = command.flags.iter().find(|(flag, _)| flag == arg);
        let value = match (arg.as_str(), own) {
            ("--quick", _) => {
                args.quick = true;
                continue;
            }
            (_, Some(&(flag, Kind::Switch))) => {
                args.given.push((flag, None));
                continue;
            }
            ("--seed" | "--out", _) | (_, Some(_)) => it
                .next()
                .ok_or_else(|| format!("missing value for {arg}"))?,
            _ => return Err(format!("unknown flag {arg}")),
        };
        match own {
            Some(&(flag, kind)) => {
                let range = kind.value().map_or("", |(_, range)| range);
                let x = (value.parse().ok().filter(|&x| kind.admits(x)))
                    .ok_or_else(|| format!("invalid value for {arg}: {value} (want {range})"))?;
                args.given.push((flag, Some(x)));
            }
            None if arg == "--out" => args.out.clone_from(value),
            None => {
                args.config.seed = (value.parse())
                    .map_err(|_| format!("invalid numeric value for {arg}: {value}"))?;
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(command) = COMMANDS.iter().find(|command| command.name == name) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match parse(command, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let (value, failed) = (command.run)(&args);
    if let Err(e) = surveyor_bench::write_artifact(&args.out, &value) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out);
    for message in &failed {
        eprintln!("{message}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `bench scale`: the thread-scaling sweep behind `BENCH_scale.json`.
fn scale(args: &Args) -> (Value, Vec<String>) {
    let mut artifact = experiments::scale_sweep(&args.config, args.quick);
    println!("{artifact}");
    let mut failed = Vec::new();
    if args.switch("--assert-scaling") {
        let tolerance = (args.number("--scaling-tolerance")).unwrap_or(scaling::DEFAULT_TOLERANCE);
        let verdict = artifact.assert_scaling(tolerance);
        println!("{}", verdict.render());
        if !verdict.passed() {
            failed.push("assert-scaling: regression detected (see verdict above)".to_owned());
        }
    }
    (artifact.to_value(), failed)
}

/// `bench snapshot`: binary snapshot throughput behind `BENCH_snapshot.json`.
fn snapshot(args: &Args) -> (Value, Vec<String>) {
    let artifact = experiments::snapshot_bench(&args.config, args.quick);
    println!("{artifact}");
    let failed = [
        (args.number("--assert-speedup")).and_then(|floor| artifact.speedup_failure(floor)),
        (args.number("--assert-validate-mb-s")).and_then(|floor| artifact.validate_failure(floor)),
    ];
    (artifact.to_value(), failed.into_iter().flatten().collect())
}

/// `bench serve`: the lookup row and the chaos phase behind
/// `BENCH_serve.json`.
fn serve(args: &Args) -> (Value, Vec<String>) {
    let artifact = experiments::serve_bench(&args.config, args.quick);
    println!("{artifact}");
    let failed = [
        (args.switch("--assert-chaos"))
            .then(|| artifact.chaos_failure())
            .flatten(),
        (args.switch("--assert-lookup-flat"))
            .then(|| artifact.lookup_failure())
            .flatten(),
    ];
    (artifact.to_value(), failed.into_iter().flatten().collect())
}

/// `bench incremental`: delta ingestion vs from-scratch mining behind
/// `BENCH_incremental.json`.
fn incremental(args: &Args) -> (Value, Vec<String>) {
    let artifact = experiments::incremental_bench(&args.config, args.quick);
    println!("{artifact}");
    let failed = (args.switch("--assert-delta-scaling"))
        .then(|| artifact.delta_scaling_failure())
        .flatten();
    (artifact.to_value(), failed.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn parse_args(name: &str, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse(command(name), &args)
    }

    #[test]
    fn shared_and_own_flags_parse() {
        let args = parse_args(
            "scale",
            &[
                "--quick",
                "--seed",
                "7",
                "--out",
                "x.json",
                "--assert-scaling",
                "--scaling-tolerance",
                "0.5",
            ],
        )
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.config.seed, 7);
        assert_eq!(args.out, "x.json");
        assert!(args.switch("--assert-scaling"));
        assert_eq!(args.number("--scaling-tolerance"), Some(0.5));
    }

    #[test]
    fn defaults_name_the_subcommand_artifact() {
        let args = parse_args("serve", &[]).unwrap();
        assert!(!args.quick);
        assert_eq!(args.out, "BENCH_serve.json");
        assert_eq!(args.config.seed, ReproConfig::default().seed);
        assert!(!args.switch("--assert-chaos"));
    }

    #[test]
    fn the_last_value_of_a_repeated_flag_wins() {
        let args = parse_args(
            "snapshot",
            &["--assert-speedup", "5", "--assert-speedup", "10"],
        )
        .unwrap();
        assert_eq!(args.number("--assert-speedup"), Some(10.0));
        assert_eq!(args.number("--assert-validate-mb-s"), None);
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        let err = parse_args("scale", &["--bogus"]).unwrap_err();
        assert_eq!(err, "unknown flag --bogus");
        // Another subcommand's gate is not this one's.
        let err = parse_args("serve", &["--assert-scaling"]).unwrap_err();
        assert_eq!(err, "unknown flag --assert-scaling");
        let err = parse_args("incremental", &["7"]).unwrap_err();
        assert_eq!(err, "unknown flag 7");
    }

    #[test]
    fn a_flag_without_its_value_is_refused() {
        for (name, flag) in [
            ("scale", "--seed"),
            ("serve", "--out"),
            ("scale", "--scaling-tolerance"),
            ("snapshot", "--assert-validate-mb-s"),
        ] {
            let err = parse_args(name, &["--quick", flag]).unwrap_err();
            assert_eq!(err, format!("missing value for {flag}"));
        }
    }

    #[test]
    fn a_bad_number_is_refused() {
        let err = parse_args("incremental", &["--seed", "-1"]).unwrap_err();
        assert_eq!(err, "invalid numeric value for --seed: -1");
        for bad in ["1", "-0.1", "NaN", "half"] {
            let err = parse_args("scale", &["--scaling-tolerance", bad]).unwrap_err();
            assert_eq!(
                err,
                format!("invalid value for --scaling-tolerance: {bad} (want 0 <= T < 1)")
            );
        }
        for bad in ["0", "-5", "NaN"] {
            let err = parse_args("snapshot", &["--assert-speedup", bad]).unwrap_err();
            assert_eq!(
                err,
                format!("invalid value for --assert-speedup: {bad} (want X > 0)")
            );
        }
    }

    #[test]
    fn usage_lists_every_subcommand_with_its_own_flags() {
        assert_eq!(
            usage(),
            "usage: bench scale [--seed N] [--out PATH] [--quick] [--assert-scaling] \
             [--scaling-tolerance T]\n       \
             bench snapshot [--seed N] [--out PATH] [--quick] [--assert-speedup X] \
             [--assert-validate-mb-s X]\n       \
             bench serve [--seed N] [--out PATH] [--quick] [--assert-chaos] \
             [--assert-lookup-flat]\n       \
             bench incremental [--seed N] [--out PATH] [--quick] [--assert-delta-scaling]"
        );
    }
}
