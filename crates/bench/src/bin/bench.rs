//! `bench` — throughput harness for the Surveyor pipeline.
//!
//! ```text
//! bench pipeline [--seed N] [--threads N] [--out PATH] [--baseline PATH] [--report PATH]
//! bench scale [--seed N] [--out PATH] [--quick] [--assert-scaling] [--scaling-tolerance T]
//! bench diff <current.json> <baseline.json>
//! ```
//!
//! `pipeline` measures extraction docs/sec (1/2/4/8 worker threads) and
//! end-to-end wall time on a fixed corpus preset, and writes
//! `BENCH_pipeline.json`. When `--baseline` points at a previous run's
//! artifact, the output also reports the throughput ratio against it.
//! `--report` additionally runs an observed end-to-end pass and writes a
//! versioned run report (phase times, counters, EM telemetry).
//!
//! `scale` sweeps 1/2/4/8 worker threads over a ~10× larger corpus, timing
//! the generation, extraction, and model phases separately, and
//! writes `BENCH_scale.json` (schema-validated before writing). `--quick`
//! shrinks the corpus for CI smoke tests. `--assert-scaling` additionally
//! checks every phase's speedup curve against its per-phase target curve
//! (see `surveyor_bench::scaling`), embeds the verdict in the artifact
//! under `assert_scaling`, and exits nonzero on regression;
//! `--scaling-tolerance T` overrides the default slack (0 ≤ T < 1).
//!
//! `snapshot` measures binary snapshot throughput: re-mine time vs
//! `surveyor-wire` encode/decode time on the pipeline preset, and writes
//! `BENCH_snapshot.json` (schema-validated before writing). The artifact
//! records `speedup_load_vs_remine` and a `byte_identical` round-trip
//! verdict. `--assert-speedup X` exits nonzero when the speedup falls
//! below `X` or the round trip is not byte-identical;
//! `--assert-validate-mb-s X` when container validation (framing + CRC)
//! reads fewer than `X` MB/s.
//!
//! `serve` boots a `surveyor-server` on a loopback port, replays
//! `/decide` queries from 1/2/4/8 client threads (p50/p99 latency and
//! queries/sec), then drives a seeded chaos phase — malformed bytes,
//! slowloris writes, disconnects, worker panics, concurrent
//! corrupt-reload attempts — against a deliberately tight second server,
//! and writes `BENCH_serve.json` (schema-validated before writing).
//! `--assert-chaos` exits nonzero unless every valid query answered
//! correctly, every corrupt reload was rejected, and the shed counter
//! moved under overload. A lookup row times `find_opinion` on the served
//! store and on one with ten times the pairs; `--assert-lookup-flat`
//! exits nonzero when the larger reads more than 3x the smaller.
//!
//! `incremental` measures delta ingestion against from-scratch mining:
//! a delta-size sweep on a fixed corpus (update time must track the
//! delta, every update byte-identical to the from-scratch mine), a
//! corpus-size sweep at fixed delta, 1/2/4/8-thread byte-identity, a
//! seeded chaos quarantine-then-replay convergence check, and the
//! opt-in seeded warm-start mode, written to `BENCH_incremental.json`
//! (schema-validated before writing). `--quick` shrinks the corpus.
//! `--assert-delta-scaling` exits nonzero unless every ≤10% delta ran
//! at least 5x faster than from-scratch and every byte-identity held.
//!
//! `diff` compares two such run reports phase by phase.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;
use surveyor::obs::RunReport;
use surveyor_bench::experiments::{self, ReproConfig};

const USAGE: &str = "usage: bench pipeline [--seed N] [--threads N] \
                     [--out PATH] [--baseline PATH] [--report PATH]\n\
                     \u{20}      bench scale [--seed N] [--out PATH] [--quick] \
                     [--assert-scaling] [--scaling-tolerance T]\n\
                     \u{20}      bench snapshot [--seed N] [--out PATH] [--quick] \
                     [--assert-speedup X] [--assert-validate-mb-s X]\n\
                     \u{20}      bench serve [--seed N] [--out PATH] [--quick] \
                     [--assert-chaos] [--assert-lookup-flat]\n\
                     \u{20}      bench incremental [--seed N] [--out PATH] [--quick] \
                     [--assert-delta-scaling]\n\
                     \u{20}      bench diff <current.json> <baseline.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first().map(|(c, r)| (c.as_str(), r)) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match command {
        "pipeline" => pipeline(rest),
        "scale" => scale(rest),
        "snapshot" => snapshot(rest),
        "serve" => serve(rest),
        "incremental" => incremental(rest),
        "diff" => diff(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `bench diff`: render the phase/counter comparison of two run reports.
fn diff(rest: &[String]) -> ExitCode {
    let [current, baseline] = rest else {
        eprintln!("{USAGE}");
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

/// `bench pipeline`: the throughput harness.
fn pipeline(rest: &[String]) -> ExitCode {
    let mut config = ReproConfig::default();
    let mut out = "BENCH_pipeline.json".to_owned();
    let mut baseline_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {arg}\n{USAGE}");
            return ExitCode::FAILURE;
        };
        match arg.as_str() {
            "--seed" | "--threads" => {
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--seed" => config.seed = v,
                    _ => config.threads = (v as usize).max(1),
                }
            }
            "--out" => out = value.clone(),
            "--baseline" => baseline_path = Some(value.clone()),
            "--report" => report_path = Some(value.clone()),
            _ => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (text, mut value) = experiments::pipeline(&config);
    println!("{text}");

    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
        {
            Ok(baseline) => {
                let speedup = throughput_at(&value, 8)
                    .zip(throughput_at(&baseline, 8))
                    .map(|(cur, base)| cur / base);
                if let serde_json::Value::Object(obj) = &mut value {
                    obj.insert("baseline".to_owned(), baseline);
                    if let Some(s) = speedup {
                        println!("extraction speedup vs baseline (8 threads): {s:.2}x");
                        obj.insert(
                            "speedup_extraction_8_threads".to_owned(),
                            serde_json::json!(s),
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = report_path {
        let report = experiments::pipeline_report(&config);
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write run report {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote run report {path}");
    }

    match std::fs::File::create(&out).and_then(|mut f| {
        f.write_all(
            serde_json::to_string_pretty(&value)
                .expect("serializable artifact")
                .as_bytes(),
        )
    }) {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench scale`: the thread-scaling sweep behind `BENCH_scale.json`.
fn scale(rest: &[String]) -> ExitCode {
    let mut config = ReproConfig::default();
    let mut out = "BENCH_scale.json".to_owned();
    let mut quick = false;
    let mut assert_scaling = false;
    let mut tolerance = surveyor_bench::scaling::DEFAULT_TOLERANCE;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--assert-scaling" => assert_scaling = true,
            "--seed" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                config.seed = v;
            }
            "--scaling-tolerance" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match value.parse::<f64>() {
                    Ok(t) if (0.0..1.0).contains(&t) => tolerance = t,
                    _ => {
                        eprintln!("invalid tolerance for {arg}: {value} (want 0 <= T < 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out = value.clone();
            }
            _ => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (text, mut value) = experiments::scale_sweep(&config, quick);
    println!("{text}");

    let mut regression = false;
    if assert_scaling {
        let verdict = surveyor_bench::scaling::evaluate(&value, tolerance);
        println!("{}", surveyor_bench::scaling::render(&verdict));
        regression = !surveyor_bench::scaling::passed(&verdict);
        if let serde_json::Value::Object(obj) = &mut value {
            obj.insert("assert_scaling".to_owned(), verdict);
        }
    }

    if let Err(e) = validate_scale_schema(&value) {
        eprintln!("internal error: scale artifact failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::File::create(&out).and_then(|mut f| {
        f.write_all(
            serde_json::to_string_pretty(&value)
                .expect("serializable artifact")
                .as_bytes(),
        )
    }) {
        Ok(()) => {
            eprintln!("wrote {out}");
            if regression {
                eprintln!("assert-scaling: regression detected (see verdict above)");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench snapshot`: binary snapshot throughput behind `BENCH_snapshot.json`.
fn snapshot(rest: &[String]) -> ExitCode {
    let mut config = ReproConfig::default();
    let mut out = "BENCH_snapshot.json".to_owned();
    let mut quick = false;
    let mut assert_speedup: Option<f64> = None;
    let mut assert_validate_mb_s: Option<f64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                config.seed = v;
            }
            "--assert-speedup" | "--assert-validate-mb-s" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let floor = match value.parse::<f64>() {
                    Ok(x) if x > 0.0 => Some(x),
                    _ => {
                        eprintln!("invalid floor for {arg}: {value}");
                        return ExitCode::FAILURE;
                    }
                };
                if arg == "--assert-speedup" {
                    assert_speedup = floor;
                } else {
                    assert_validate_mb_s = floor;
                }
            }
            "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out = value.clone();
            }
            _ => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (text, value) = experiments::snapshot_bench(&config, quick);
    println!("{text}");

    if let Err(e) = validate_snapshot_schema(&value) {
        eprintln!("internal error: snapshot artifact failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::File::create(&out).and_then(|mut f| {
        f.write_all(
            serde_json::to_string_pretty(&value)
                .expect("serializable artifact")
                .as_bytes(),
        )
    }) {
        Ok(()) => {
            eprintln!("wrote {out}");
            if let Some(floor) = assert_speedup {
                let speedup = value["speedup_load_vs_remine"].as_f64().unwrap_or(0.0);
                let identical = value["byte_identical"].as_bool() == Some(true);
                if speedup < floor || !identical {
                    eprintln!(
                        "assert-speedup: failed (speedup {speedup:.1}x vs floor {floor:.1}x, \
                         byte identical: {identical})"
                    );
                    return ExitCode::FAILURE;
                }
            }
            if let Some(floor) = assert_validate_mb_s {
                let mb_s = value["validate_mb_s"].as_f64().unwrap_or(0.0);
                if mb_s < floor {
                    eprintln!(
                        "assert-validate-mb-s: failed (container validation {mb_s:.0} MB/s \
                         vs floor {floor:.0} MB/s)"
                    );
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench serve`: server throughput + chaos behind `BENCH_serve.json`.
fn serve(rest: &[String]) -> ExitCode {
    let mut config = ReproConfig::default();
    let mut out = "BENCH_serve.json".to_owned();
    let mut quick = false;
    let mut assert_chaos = false;
    let mut assert_lookup_flat = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--assert-chaos" => assert_chaos = true,
            "--assert-lookup-flat" => assert_lookup_flat = true,
            "--seed" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                config.seed = v;
            }
            "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out = value.clone();
            }
            _ => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (text, value) = experiments::serve_bench(&config, quick);
    println!("{text}");

    if let Err(e) = validate_serve_schema(&value) {
        eprintln!("internal error: serve artifact failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::File::create(&out).and_then(|mut f| {
        f.write_all(
            serde_json::to_string_pretty(&value)
                .expect("serializable artifact")
                .as_bytes(),
        )
    }) {
        Ok(()) => {
            eprintln!("wrote {out}");
            if assert_chaos {
                let chaos = &value["chaos"];
                let all_valid = chaos["all_valid_answered"].as_bool() == Some(true);
                let reloads_held = chaos["corrupt_reloads"].as_u64().unwrap_or(0) > 0
                    && chaos["corrupt_reloads"] == chaos["corrupt_reloads_rejected"];
                let shed = chaos["overload"]["shed_503"].as_u64().unwrap_or(0) > 0;
                let graceful = chaos["graceful_shutdown"].as_bool() == Some(true);
                if !(all_valid && reloads_held && shed && graceful) {
                    eprintln!(
                        "assert-chaos: failed (valid answered: {all_valid}, corrupt reloads \
                         rejected: {reloads_held}, shed under overload: {shed}, graceful \
                         shutdown: {graceful})"
                    );
                    return ExitCode::FAILURE;
                }
            }
            if assert_lookup_flat {
                // A lookup costs what the entity's own opinions cost: on
                // ten times the pairs it may read up to 3x (caches), where
                // a scan over the store reads 10x.
                let lookup = &value["lookup"];
                let small = lookup["small"]["pairs"].as_u64().unwrap_or(0);
                let large = lookup["large"]["pairs"].as_u64().unwrap_or(0);
                let ratio = lookup["ratio"].as_f64().unwrap_or(f64::INFINITY);
                if large < 10 * small || ratio > 3.0 {
                    eprintln!(
                        "assert-lookup-flat: failed (find_opinion at {large} pairs takes \
                         {ratio:.2}x what it takes at {small} pairs; want <= 3x at >= 10x \
                         the pairs)"
                    );
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench incremental`: delta ingestion vs from-scratch mining behind
/// `BENCH_incremental.json`.
fn incremental(rest: &[String]) -> ExitCode {
    let mut config = ReproConfig::default();
    let mut out = "BENCH_incremental.json".to_owned();
    let mut quick = false;
    let mut assert_delta_scaling = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--assert-delta-scaling" => assert_delta_scaling = true,
            "--seed" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                config.seed = v;
            }
            "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out = value.clone();
            }
            _ => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (text, value) = experiments::incremental_bench(&config, quick);
    println!("{text}");

    if let Err(e) = validate_incremental_schema(&value) {
        eprintln!("internal error: incremental artifact failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::File::create(&out).and_then(|mut f| {
        f.write_all(
            serde_json::to_string_pretty(&value)
                .expect("serializable artifact")
                .as_bytes(),
        )
    }) {
        Ok(()) => {
            eprintln!("wrote {out}");
            if assert_delta_scaling {
                let rows = value["delta_sweep"].as_array().cloned().unwrap_or_default();
                let all_identical = rows
                    .iter()
                    .all(|r| r["byte_identical"].as_bool() == Some(true));
                let small_fast = rows
                    .iter()
                    .filter(|r| r["delta_fraction"].as_f64().unwrap_or(1.0) <= 0.101)
                    .all(|r| r["speedup_vs_scratch"].as_f64().unwrap_or(0.0) >= 5.0);
                let threads_ok =
                    value["determinism"]["byte_identical_all_threads"].as_bool() == Some(true);
                let chaos_ok = value["determinism"]["chaos"]["byte_identical_after_replay"]
                    .as_bool()
                    == Some(true);
                if !(all_identical && small_fast && threads_ok && chaos_ok) {
                    eprintln!(
                        "assert-delta-scaling: failed (byte identical: {all_identical}, \
                         <=10% deltas >=5x: {small_fast}, identical across threads: \
                         {threads_ok}, chaos replay converged: {chaos_ok})"
                    );
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
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
    if value["schema_version"].as_u64() != Some(1) {
        return Err("schema_version is not 1".to_owned());
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
    let warm = &value["warm_seeded"];
    for key in ["update_seconds", "exact_update_seconds"] {
        if warm[key].as_f64().is_none() {
            return Err(format!("warm_seeded.{key} is not a number"));
        }
    }
    if warm["decisions_identical"].as_bool().is_none() {
        return Err("warm_seeded.decisions_identical is not a boolean".to_owned());
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
    if value["schema_version"].as_u64() != Some(1) {
        return Err("schema_version is not 1".to_owned());
    }
    let rows = value["throughput"]
        .as_array()
        .ok_or_else(|| "throughput is not an array".to_owned())?;
    if rows.len() != 4 {
        return Err(format!("throughput has {} rows, want 4", rows.len()));
    }
    for row in rows {
        for key in [
            "threads", "requests", "ok", "errors", "qps", "p50_ms", "p99_ms",
        ] {
            if row[key].as_f64().is_none() {
                return Err(format!("throughput row missing numeric {key:?}"));
            }
        }
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

/// `docs_per_sec` of the extraction row with the given thread count.
fn throughput_at(artifact: &serde_json::Value, threads: u64) -> Option<f64> {
    artifact["extraction"]
        .as_array()?
        .iter()
        .find(|row| row["threads"].as_u64() == Some(threads))?["docs_per_sec"]
        .as_f64()
}
