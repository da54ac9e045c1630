//! Result lines, result files, and the comparison of two result files.
//!
//! A run ends in one JSON line (the driver's contract). `sweep` runs every
//! workload in a child process per run, over several seeds, and writes
//! the lines it collects to one file with their medians and spreads;
//! `check` compares two such files row by row against the bounds.

use crate::run::Outcome;
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::{Command, Stdio};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
/// Values are written with all their digits.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, for the human reader.
pub fn print_outcome(workload: &str, seed: u64, outcome: &Outcome) {
    println!("workload {workload}, seed {seed}");
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, unit_of(m.name));
    }
    if let Some(failure) = &outcome.tally.first_failure {
        println!("  FAILED: {failure}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub struct SweepOptions {
    pub workloads: Vec<String>,
    pub runs: u64,
    pub first_seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// Medians and spreads of `values` per metric: `{median, spread, values}`.
fn summarise(runs: &[Value]) -> Value {
    let mut by_metric: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for run in runs {
        let Some(metrics) = run.get("metrics").and_then(|m| m.as_object()) else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(|v| v.as_f64()) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    let mut summary = Map::new();
    for (name, values) in by_metric {
        let spread = (values.len() >= 2).then(|| quartile_spread(&values));
        summary.insert(
            name,
            json!({ "median": median(&values), "spread": spread, "values": values }),
        );
    }
    Value::Object(summary)
}

/// Runs each workload `runs` times, a fresh process and a fresh seed each
/// time, and writes every result with its summary to `out`. Returns
/// whether every run was correct.
pub fn sweep(options: &SweepOptions, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Map::new();
    for name in &options.workloads {
        let mut runs = Vec::new();
        for r in 0..options.runs {
            let seed = options.first_seed + r;
            let mut command = Command::new(&exe);
            command
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if options.trace { "1" } else { "0" }]);
            if options.quick {
                command.arg("--quick");
            }
            let output = command
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let mut result: Value = stdout
                .lines()
                .last()
                .and_then(|line| serde_json::from_str(line).ok())
                .ok_or_else(|| format!("{name} seed {seed} printed no result line"))?;
            all_correct &= output.status.success()
                && result.get("correct").and_then(|c| c.as_bool()) == Some(true);
            if let Value::Object(fields) = &mut result {
                fields.insert("seed".to_owned(), json!(seed));
            }
            runs.push(result);
        }
        workloads.insert(
            name.clone(),
            json!({ "summary": summarise(&runs), "runs": runs }),
        );
    }
    let root = crate::repo_root();
    let file = json!({
        "commit": command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["--version"]),
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "seconds": options.seconds,
        "first_seed": options.first_seed,
        "runs_per_workload": options.runs,
        "trace": options.trace,
        "quick": options.quick,
        "workloads": workloads,
    });
    print_spreads(&file);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn summary_of<'a>(file: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    file.get("workloads")?
        .get(workload)?
        .get("summary")?
        .get(metric)
}

fn values_of(summary: &Value) -> Vec<f64> {
    summary
        .get("values")
        .and_then(|v| v.as_array())
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Each end-to-end metric's median and spread next to its bound.
fn print_spreads(file: &Value) {
    println!(
        "{:<16} {:<24} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(summary) = summary_of(file, w.name, m.name) else {
                continue;
            };
            let median = summary.get("median").and_then(Value::as_f64).unwrap_or(0.0);
            let spread = summary.get("spread").and_then(Value::as_f64);
            let flag = match spread {
                Some(s) if s > m.bound => "  over the bound",
                Some(s) if s > m.bound / 3.0 => "  over a third of the bound",
                _ => "",
            };
            println!(
                "{:<16} {:<24} {:>14.4} {:>8} {:>7.3}{flag}",
                w.name,
                m.name,
                median,
                spread.map_or("-".to_owned(), |s| format!("{s:.4}")),
                m.bound
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Compares the runs `b` of a change with the runs `a` of its parent.
/// `Worse`: the median moved the wrong way by more than the bound.
/// `Unresolved`: it did not, but either side's spread is wider than the
/// bound, so "no worse" cannot be told from noise, unless every run of
/// `b` reads better than every run of `a`.
pub fn compare(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > metric.bound {
        return Verdict::Worse;
    }
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let all_better = match metric.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if (spread(a) > metric.bound || spread(b) > metric.bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// Prints one row per (workload, end-to-end metric) present in both files
/// and returns whether no row is `worse`.
pub fn check(a: &Path, b: &Path) -> Result<bool, String> {
    let (file_a, file_b) = (read_json(a)?, read_json(b)?);
    let mut rows = 0;
    let mut worse = 0;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (
                summary_of(&file_a, w.name, m.name),
                summary_of(&file_b, w.name, m.name),
            ) else {
                continue;
            };
            let (va, vb) = (values_of(sa), values_of(sb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = compare(m, &va, &vb);
            rows += 1;
            worse += usize::from(verdict == Verdict::Worse);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) row".to_owned());
    }
    println!("{rows} rows, {worse} worse");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Tally;
    use crate::run::Metric;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound,
        }
    }

    #[test]
    fn compare_tells_worse_from_noise() {
        let lower = metric(Better::Lower, 0.10);
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            compare(&lower, &steady, &[1.02, 1.03, 1.01, 1.02]),
            Verdict::Ok
        );
        assert_eq!(
            compare(&lower, &steady, &[1.20, 1.21, 1.19, 1.2]),
            Verdict::Worse
        );
        assert_eq!(
            compare(&lower, &steady, &[0.5, 0.51, 0.49, 0.5]),
            Verdict::Ok
        );
        // A wide spread hides a regression inside the bound...
        let noisy = [0.8, 1.0, 1.2, 1.05, 0.9];
        assert_eq!(compare(&lower, &steady, &noisy), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(
            compare(&lower, &[2.0, 2.1, 1.9], &[0.8, 1.0, 1.2]),
            Verdict::Ok
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            compare(&higher, &[100.0, 101.0], &[85.0, 86.0]),
            Verdict::Worse
        );
        assert_eq!(
            compare(&higher, &[100.0, 101.0], &[120.0, 121.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 12,
                failed: 1,
                first_failure: None,
            },
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 0.812_734_5,
                },
                Metric {
                    name: "serve_qps",
                    value: 9000.0,
                },
            ],
            notes: Vec::new(),
        };
        let line = result_line(&outcome);
        assert!(!line.contains('\n'));
        let json: Value = serde_json::from_str(&line).expect("one JSON object");
        let keys: Vec<&String> = json.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(Value::as_bool), Some(false));
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(Value::as_f64),
            Some(0.812_734_5)
        );
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(line.contains("\"serve_qps\": {\"value\": 9000.0, \"unit\": \"req/s\"}"));
    }

    #[test]
    fn summaries_carry_median_and_spread() {
        let runs: Vec<Value> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|v| json!({ "metrics": json!({ "load_s": json!({ "value": v, "unit": "s" }) }) }))
            .collect();
        let summary = summarise(&runs);
        let load = summary.get("load_s").expect("load_s");
        assert_eq!(load.get("median").and_then(Value::as_f64), Some(2.5));
        assert_eq!(values_of(load), vec![1.0, 2.0, 3.0, 4.0]);
        // quartiles 1.25 and 3.75 over the median 2.5
        assert_eq!(load.get("spread").and_then(Value::as_f64), Some(1.0));
    }
}
