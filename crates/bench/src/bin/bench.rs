//! `bench` — the gates that keep Surveyor's measured claims honest.
//!
//! ```text
//! bench scale [--seed N] [--out PATH] [--quick] [--assert-scaling] [--scaling-tolerance T]
//! bench snapshot [--seed N] [--out PATH] [--quick] [--assert-speedup X] [--assert-validate-mb-s X]
//! bench serve [--seed N] [--out PATH] [--quick] [--assert-chaos] [--assert-lookup-flat]
//! bench incremental [--seed N] [--out PATH] [--quick] [--assert-delta-scaling]
//! bench diff <current.json> <baseline.json>
//! ```
//!
//! Each measuring subcommand writes one schema-validated artifact
//! (`BENCH_<name>.json` unless `--out` says otherwise); `--quick` shrinks
//! its workload for CI smoke tests. A gate that fails exits nonzero after
//! the artifact is written, so the evidence survives.
//!
//! `scale` sweeps 1/2/4/8 worker threads, timing the generation,
//! extraction, and model phases separately. `--assert-scaling` checks
//! every phase's speedup curve against its per-phase target curve (see
//! `surveyor_bench::scaling`) and embeds the verdict in the artifact under
//! `assert_scaling`; `--scaling-tolerance T` overrides the default slack.
//!
//! `snapshot` times re-mining against `surveyor-wire` encode, container
//! validation and load, and records a `byte_identical` round-trip verdict.
//! `--assert-speedup X` fails when load is less than `X` times faster
//! than re-mining or the round trip is not byte-identical;
//! `--assert-validate-mb-s X` when container validation (framing + CRC)
//! reads fewer than `X` MB/s.
//!
//! `serve` times `find_opinion` on the served store and on one with ten
//! times the pairs, then drives a seeded chaos phase — malformed bytes,
//! slowloris writes, disconnects, worker panics, concurrent
//! corrupt-reload attempts — against a deliberately tight server.
//! `--assert-chaos` fails unless every valid query answered correctly,
//! every corrupt reload was rejected, the shed counter moved under
//! overload and the shutdown was graceful; `--assert-lookup-flat` when
//! the larger store's lookup reads more than 3x the smaller's.
//!
//! `incremental` measures delta ingestion against from-scratch mining:
//! a delta-size sweep whose every update is paired with a from-scratch
//! mine, a corpus-size sweep at fixed delta, 1/2/4/8-thread byte-identity,
//! and a seeded chaos quarantine-then-replay check. `--assert-delta-scaling`
//! fails unless the median paired ratio of every ≤10% delta is at least 5x
//! and every byte-identity held.
//!
//! `diff` compares two run reports (`surveyor mine --report FILE`) phase
//! by phase.

#![forbid(unsafe_code)]

use serde_json::Value;
use std::process::ExitCode;
use surveyor::obs::RunReport;
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

/// A measuring subcommand: its default artifact, its own flags, the
/// measurement and the artifact's schema check.
struct Command {
    name: &'static str,
    out: &'static str,
    flags: &'static [(&'static str, Kind)],
    /// Runs the measurement; returns the artifact and one message per
    /// gate that failed.
    run: fn(&Args) -> (Value, Vec<String>),
    validate: fn(&Value) -> Result<(), String>,
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
        validate: validate_scale_schema,
    },
    Command {
        name: "snapshot",
        out: "BENCH_snapshot.json",
        flags: &[
            ("--assert-speedup", Kind::Positive),
            ("--assert-validate-mb-s", Kind::Positive),
        ],
        run: snapshot,
        validate: validate_snapshot_schema,
    },
    Command {
        name: "serve",
        out: "BENCH_serve.json",
        flags: &[
            ("--assert-chaos", Kind::Switch),
            ("--assert-lookup-flat", Kind::Switch),
        ],
        run: serve,
        validate: validate_serve_schema,
    },
    Command {
        name: "incremental",
        out: "BENCH_incremental.json",
        flags: &[("--assert-delta-scaling", Kind::Switch)],
        run: incremental,
        validate: validate_incremental_schema,
    },
];

/// The flags every measuring subcommand shares, and those of its own that
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
    let mut lines: Vec<String> = COMMANDS
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
    lines.push("bench diff <current.json> <baseline.json>".to_owned());
    format!("usage: {}", lines.join("\n       "))
}

/// Parses a measuring subcommand's arguments.
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
    if name == "diff" {
        return diff(rest);
    }
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
    if let Err(e) = (command.validate)(&value) {
        eprintln!(
            "internal error: {} artifact failed schema validation: {e}",
            command.name
        );
        return ExitCode::FAILURE;
    }
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

/// `bench diff`: render the phase/counter comparison of two run reports.
fn diff(rest: &[String]) -> ExitCode {
    let [current, baseline] = rest else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<RunReport, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunReport::from_json(&json).map_err(|e| format!("invalid run report {path}: {e}"))
    };
    let reports = load(current).and_then(|c| load(baseline).map(|b| (c, b)));
    match reports {
        Ok((current, baseline)) => {
            println!("{}", current.diff(&baseline));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench scale`: the thread-scaling sweep behind `BENCH_scale.json`.
fn scale(args: &Args) -> (Value, Vec<String>) {
    let (text, mut value) = experiments::scale_sweep(&args.config, args.quick);
    println!("{text}");
    let mut failed = Vec::new();
    if args.switch("--assert-scaling") {
        let tolerance = (args.number("--scaling-tolerance")).unwrap_or(scaling::DEFAULT_TOLERANCE);
        let verdict = scaling::evaluate(&value, tolerance);
        println!("{}", scaling::render(&verdict));
        if !scaling::passed(&verdict) {
            failed.push("assert-scaling: regression detected (see verdict above)".to_owned());
        }
        if let Value::Object(obj) = &mut value {
            obj.insert("assert_scaling".to_owned(), verdict);
        }
    }
    (value, failed)
}

/// `bench snapshot`: binary snapshot throughput behind `BENCH_snapshot.json`.
fn snapshot(args: &Args) -> (Value, Vec<String>) {
    let (text, value) = experiments::snapshot_bench(&args.config, args.quick);
    println!("{text}");
    let mut failed = Vec::new();
    if let Some(floor) = args.number("--assert-speedup") {
        let speedup = value["speedup_load_vs_remine"].as_f64().unwrap_or(0.0);
        let identical = value["byte_identical"].as_bool() == Some(true);
        if speedup < floor || !identical {
            failed.push(format!(
                "assert-speedup: failed (speedup {speedup:.1}x vs floor {floor:.1}x, \
                 byte identical: {identical})"
            ));
        }
    }
    if let Some(floor) = args.number("--assert-validate-mb-s") {
        let mb_s = value["validate_mb_s"].as_f64().unwrap_or(0.0);
        if mb_s < floor {
            failed.push(format!(
                "assert-validate-mb-s: failed (container validation {mb_s:.0} MB/s \
                 vs floor {floor:.0} MB/s)"
            ));
        }
    }
    (value, failed)
}

/// `bench serve`: the lookup row and the chaos phase behind
/// `BENCH_serve.json`.
fn serve(args: &Args) -> (Value, Vec<String>) {
    let (text, value) = experiments::serve_bench(&args.config, args.quick);
    println!("{text}");
    let mut failed = Vec::new();
    if args.switch("--assert-chaos") {
        let chaos = &value["chaos"];
        let all_valid = chaos["all_valid_answered"].as_bool() == Some(true);
        let reloads_held = chaos["corrupt_reloads"].as_u64().unwrap_or(0) > 0
            && chaos["corrupt_reloads"] == chaos["corrupt_reloads_rejected"];
        let shed = chaos["overload"]["shed_503"].as_u64().unwrap_or(0) > 0;
        let graceful = chaos["graceful_shutdown"].as_bool() == Some(true);
        if !(all_valid && reloads_held && shed && graceful) {
            failed.push(format!(
                "assert-chaos: failed (valid answered: {all_valid}, corrupt reloads \
                 rejected: {reloads_held}, shed under overload: {shed}, graceful \
                 shutdown: {graceful})"
            ));
        }
    }
    if args.switch("--assert-lookup-flat") {
        // A lookup costs what the entity's own opinions cost: on ten times
        // the pairs it may read up to 3x (caches), where a scan over the
        // store reads 10x.
        let lookup = &value["lookup"];
        let small = lookup["small"]["pairs"].as_u64().unwrap_or(0);
        let large = lookup["large"]["pairs"].as_u64().unwrap_or(0);
        let ratio = lookup["ratio"].as_f64().unwrap_or(f64::INFINITY);
        if large < 10 * small || ratio > 3.0 {
            failed.push(format!(
                "assert-lookup-flat: failed (find_opinion at {large} pairs takes \
                 {ratio:.2}x what it takes at {small} pairs; want <= 3x at >= 10x \
                 the pairs)"
            ));
        }
    }
    (value, failed)
}

/// `bench incremental`: delta ingestion vs from-scratch mining behind
/// `BENCH_incremental.json`.
fn incremental(args: &Args) -> (Value, Vec<String>) {
    let (text, value) = experiments::incremental_bench(&args.config, args.quick);
    println!("{text}");
    let mut failed = Vec::new();
    if args.switch("--assert-delta-scaling") {
        let rows = value["delta_sweep"].as_array().cloned().unwrap_or_default();
        let all_identical = rows
            .iter()
            .all(|r| r["byte_identical"].as_bool() == Some(true));
        let small_fast = rows
            .iter()
            .filter(|r| r["delta_fraction"].as_f64().unwrap_or(1.0) <= 0.101)
            .all(|r| r["speedup_vs_scratch"].as_f64().unwrap_or(0.0) >= 5.0);
        let threads_ok = value["determinism"]["byte_identical_all_threads"].as_bool() == Some(true);
        let chaos_ok =
            value["determinism"]["chaos"]["byte_identical_after_replay"].as_bool() == Some(true);
        if !(all_identical && small_fast && threads_ok && chaos_ok) {
            failed.push(format!(
                "assert-delta-scaling: failed (byte identical: {all_identical}, \
                 <=10% deltas >=5x: {small_fast}, identical across threads: \
                 {threads_ok}, chaos replay converged: {chaos_ok})"
            ));
        }
    }
    (value, failed)
}

/// Checks the `BENCH_incremental.json` shape before anything is written
/// (verify.sh greps these same keys as a second line of defense).
fn validate_incremental_schema(value: &serde_json::Value) -> Result<(), String> {
    for key in [
        "schema_version",
        "preset",
        "seed",
        "shards",
        "rho",
        "timing",
    ] {
        if value.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    if value["schema_version"].as_u64() != Some(3) {
        return Err("schema_version is not 3".to_owned());
    }
    if value["from_scratch_seconds"].as_f64().is_none() {
        return Err("from_scratch_seconds is not a number".to_owned());
    }
    let deltas = value["delta_sweep"]
        .as_array()
        .ok_or_else(|| "delta_sweep is not an array".to_owned())?;
    if deltas.is_empty() {
        return Err("delta_sweep is empty".to_owned());
    }
    for row in deltas {
        for key in [
            "delta_shards",
            "delta_fraction",
            "scratch_seconds",
            "update_seconds",
            "speedup_vs_scratch",
            "groups_total",
            "groups_dirty",
            "groups_carried",
            "groups_refit",
            "delta_pairs",
            "delta_statements",
        ] {
            if row[key].as_f64().is_none() {
                return Err(format!("delta_sweep row missing numeric {key:?}"));
            }
        }
        if row["byte_identical"].as_bool().is_none() {
            return Err("delta_sweep row missing boolean byte_identical".to_owned());
        }
    }
    let corpora = value["corpus_sweep"]
        .as_array()
        .ok_or_else(|| "corpus_sweep is not an array".to_owned())?;
    if corpora.is_empty() {
        return Err("corpus_sweep is empty".to_owned());
    }
    for row in corpora {
        for key in [
            "shards",
            "delta_shards",
            "scratch_seconds",
            "update_seconds",
            "update_fraction_of_scratch",
        ] {
            if row[key].as_f64().is_none() {
                return Err(format!("corpus_sweep row missing numeric {key:?}"));
            }
        }
    }
    let determinism = &value["determinism"];
    if determinism["byte_identical_all_threads"]
        .as_bool()
        .is_none()
    {
        return Err("determinism.byte_identical_all_threads is not a boolean".to_owned());
    }
    let chaos = &determinism["chaos"];
    if chaos["seed"].as_u64().is_none() {
        return Err("determinism.chaos.seed is not a number".to_owned());
    }
    if chaos["byte_identical_after_replay"].as_bool().is_none() {
        return Err("determinism.chaos.byte_identical_after_replay is not a boolean".to_owned());
    }
    Ok(())
}

/// Checks the `BENCH_serve.json` shape before anything is written
/// (verify.sh greps these same keys as a second line of defense).
fn validate_serve_schema(value: &serde_json::Value) -> Result<(), String> {
    for key in ["schema_version", "preset", "seed", "shards", "associations"] {
        if value.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    if value["schema_version"].as_u64() != Some(2) {
        return Err("schema_version is not 2".to_owned());
    }
    for size in ["small", "large"] {
        for key in ["pairs", "find_opinion_ns"] {
            if value["lookup"][size][key].as_f64().is_none() {
                return Err(format!("lookup.{size}.{key} is not a number"));
            }
        }
    }
    if value["lookup"]["ratio"].as_f64().is_none() {
        return Err("lookup.ratio is not a number".to_owned());
    }
    let chaos = &value["chaos"];
    for key in [
        "ops",
        "valid_queries",
        "valid_ok",
        "malformed",
        "slowloris",
        "disconnects",
        "corrupt_reloads",
        "corrupt_reloads_rejected",
        "panics_injected",
    ] {
        if chaos[key].as_u64().is_none() {
            return Err(format!("chaos.{key} is not a number"));
        }
    }
    for key in ["all_valid_answered", "accepted_reload", "graceful_shutdown"] {
        if chaos[key].as_bool().is_none() {
            return Err(format!("chaos.{key} is not a boolean"));
        }
    }
    if chaos["overload"]["shed_503"].as_u64().is_none() {
        return Err("chaos.overload.shed_503 is not a number".to_owned());
    }
    for key in ["shed", "reload_ok", "reload_rejected", "requests", "panics"] {
        if chaos["metrics"][key].as_u64().is_none() {
            return Err(format!("chaos.metrics.{key} is not a number"));
        }
    }
    Ok(())
}

/// Checks the `BENCH_snapshot.json` shape before anything is written
/// (verify.sh greps these same keys as a second line of defense).
fn validate_snapshot_schema(value: &serde_json::Value) -> Result<(), String> {
    for key in [
        "schema_version",
        "preset",
        "seed",
        "shards",
        "timing",
        "format_version",
    ] {
        if value.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    if value["schema_version"].as_u64() != Some(1) {
        return Err("schema_version is not 1".to_owned());
    }
    for key in [
        "snapshot_bytes",
        "remine_seconds",
        "encode_seconds",
        "encode_mb_s",
        "validate_seconds",
        "validate_mb_s",
        "load_seconds",
        "decode_mb_s",
        "speedup_load_vs_remine",
    ] {
        if value[key].as_f64().is_none() {
            return Err(format!("{key} is not a number"));
        }
    }
    if value["byte_identical"].as_bool().is_none() {
        return Err("byte_identical is not a boolean".to_owned());
    }
    // Header and frames account for the file: 16 bytes, then 16 per
    // section before its payload.
    let Some(sections) = value["section_bytes"].as_object() else {
        return Err("section_bytes is not an object".to_owned());
    };
    let framed: Option<u64> = (sections.values())
        .map(|len| len.as_u64().map(|len| 16 + len))
        .sum();
    if framed.map(|framed| 16 + framed) != value["snapshot_bytes"].as_u64() {
        return Err("section_bytes do not add up to snapshot_bytes".to_owned());
    }
    Ok(())
}

/// Checks the `BENCH_scale.json` shape before anything is written, so a
/// malformed artifact can never land on disk (verify.sh greps these same
/// keys as a second line of defense).
fn validate_scale_schema(value: &serde_json::Value) -> Result<(), String> {
    for key in [
        "schema_version",
        "preset",
        "seed",
        "shards",
        "documents",
        "host_cpus",
        "timing",
    ] {
        if value.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    if value["schema_version"].as_u64() != Some(2) {
        return Err("schema_version is not 2".to_owned());
    }
    for phase in ["generation", "extraction", "model"] {
        let rows = value["phases"][phase]
            .as_array()
            .ok_or_else(|| format!("phases.{phase} is not an array"))?;
        if rows.is_empty() {
            return Err(format!("phases.{phase} is empty"));
        }
        for row in rows {
            for key in ["threads", "seconds", "speedup"] {
                if row[key].as_f64().is_none() {
                    return Err(format!("phases.{phase} row missing numeric {key:?}"));
                }
            }
        }
    }
    for key in [
        "documents_identical",
        "statements_identical",
        "decided_pairs_identical",
    ] {
        if value["determinism"][key].as_bool().is_none() {
            return Err(format!("determinism.{key} is not a boolean"));
        }
    }
    if let Some(verdict) = value.get("assert_scaling") {
        if verdict["verdict"].as_str().is_none() {
            return Err("assert_scaling.verdict is not a string".to_owned());
        }
    }
    for key in ["hits", "global_lookups", "hit_rate"] {
        if value["intern_cache"][key].as_f64().is_none() {
            return Err(format!("intern_cache.{key} is not a number"));
        }
    }
    Ok(())
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
             bench incremental [--seed N] [--out PATH] [--quick] [--assert-delta-scaling]\n       \
             bench diff <current.json> <baseline.json>"
        );
    }
}
