//! The scaling-regression gate behind `bench scale --assert-scaling`.
//!
//! A `BENCH_scale.json` artifact carries one speedup curve per pipeline
//! phase (`generation`, `extraction`, `model`). This module
//! compares each curve against a per-phase *target curve* derived from a
//! parallel-efficiency constant, and renders a verdict object that the
//! bench binary embeds in the artifact and turns into a nonzero exit on
//! regression — so a quietly re-serialized phase fails CI instead of
//! hiding in a JSON file nobody reads.
//!
//! The target for a phase with efficiency `e` at `t` threads on a host
//! with `c` CPUs is
//!
//! ```text
//! required(t) = 1 + (min(t, c) − 1) · e
//! ```
//!
//! and a measured speedup passes when it reaches
//! `required(t) · (1 − tolerance)`. Two properties make this 1-CPU-safe:
//! `min(t, c)` caps the expectation at physical parallelism (on a 1-CPU
//! host every target collapses to 1.0, so only a genuine *slowdown*
//! beyond the tolerance fails), and the tolerance absorbs scheduler noise
//! on shared hosts.

use serde_json::{json, Value};

/// Per-phase parallel-efficiency targets. `generation` and `extraction`
/// are embarrassingly parallel over shards (near-linear is expected);
/// `model` fans over combinations whose sizes skew, so its target is
/// lower.
pub const PHASE_EFFICIENCY: &[(&str, f64)] =
    &[("generation", 0.70), ("extraction", 0.70), ("model", 0.50)];

/// Default slack applied to every target curve.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Rows faster than this are exempt from the curve check: a speedup ratio
/// between two sub-10ms medians is timer jitter, not a scaling signal.
/// Quick-mode smoke runs shrink some phases below this floor; full runs
/// keep every phase well above it, so the gate still bites where it can
/// actually measure.
pub const NOISE_FLOOR_SECONDS: f64 = 0.01;

/// Minimum speedup the target curve requires at `threads` threads.
pub fn required_speedup(threads: u64, host_cpus: u64, efficiency: f64) -> f64 {
    let usable = threads.min(host_cpus.max(1)) as f64;
    1.0 + (usable - 1.0) * efficiency
}

/// Evaluates every phase curve in `artifact` against its target curve and
/// returns the `assert_scaling` verdict object: per-phase pass/fail with
/// the worst-margin row, plus an overall `verdict` of `"pass"` or
/// `"fail"`. Phases absent from the artifact fail (a regression gate that
/// silently skips a missing curve is no gate).
pub fn evaluate(artifact: &Value, tolerance: f64) -> Value {
    let host_cpus = artifact["host_cpus"].as_u64().unwrap_or(1);
    let mut phases = serde_json::Map::new();
    let mut all_pass = true;
    for &(phase, efficiency) in PHASE_EFFICIENCY {
        let entry = evaluate_phase(artifact, phase, efficiency, host_cpus, tolerance);
        all_pass &= entry["pass"].as_bool() == Some(true);
        phases.insert(phase.to_owned(), entry);
    }
    json!({
        "tolerance": tolerance,
        "host_cpus": host_cpus,
        "phases": Value::Object(phases),
        "verdict": if all_pass { "pass" } else { "fail" },
    })
}

/// Whether an [`evaluate`] verdict object passed.
pub fn passed(verdict: &Value) -> bool {
    verdict["verdict"].as_str() == Some("pass")
}

/// Renders the verdict as a short human-readable block.
pub fn render(verdict: &Value) -> String {
    let mut lines = vec![format!(
        "assert-scaling (tolerance {:.0}%, {} host CPUs): {}",
        verdict["tolerance"].as_f64().unwrap_or(0.0) * 100.0,
        verdict["host_cpus"].as_u64().unwrap_or(1),
        verdict["verdict"].as_str().unwrap_or("fail"),
    )];
    if let Some(phases) = verdict["phases"].as_object() {
        for (phase, entry) in phases {
            let status = if entry["pass"].as_bool() == Some(true) {
                "pass"
            } else {
                "FAIL"
            };
            let worst = &entry["worst"];
            if worst.is_null() {
                lines.push(format!(
                    "  {phase:<11} {status} — all rows below {NOISE_FLOOR_SECONDS}s noise floor",
                ));
            } else {
                lines.push(format!(
                    "  {phase:<11} {status} — worst {:.2}x vs {:.2}x required at {} threads",
                    worst["speedup"].as_f64().unwrap_or(0.0),
                    worst["allowed"].as_f64().unwrap_or(0.0),
                    worst["threads"].as_u64().unwrap_or(0),
                ));
            }
        }
    }
    lines.join("\n")
}

/// One phase's curve check: every row above the noise floor must reach its
/// slacked target; the reported `worst` row is the one with the smallest
/// margin. A phase whose rows are all below the floor passes vacuously
/// (there is nothing to measure) with `worst: null`.
fn evaluate_phase(
    artifact: &Value,
    phase: &str,
    efficiency: f64,
    host_cpus: u64,
    tolerance: f64,
) -> Value {
    let Some(rows) = artifact["phases"][phase]
        .as_array()
        .filter(|r| !r.is_empty())
    else {
        return json!({
            "efficiency_target": efficiency,
            "pass": false,
            "error": format!("phases.{phase} missing or empty"),
        });
    };
    let mut pass = true;
    let mut checked = 0usize;
    let mut worst: Option<(f64, Value)> = None;
    for row in rows {
        let threads = row["threads"].as_u64().unwrap_or(1);
        let seconds = row["seconds"].as_f64().unwrap_or(0.0);
        if seconds < NOISE_FLOOR_SECONDS {
            continue;
        }
        checked += 1;
        let speedup = row["speedup"].as_f64().unwrap_or(0.0);
        let required = required_speedup(threads, host_cpus, efficiency);
        let allowed = required * (1.0 - tolerance);
        let margin = speedup - allowed;
        pass &= margin >= 0.0;
        let detail = json!({
            "threads": threads,
            "speedup": speedup,
            "required": required,
            "allowed": allowed,
        });
        if worst.as_ref().is_none_or(|(m, _)| margin < *m) {
            worst = Some((margin, detail));
        }
    }
    json!({
        "efficiency_target": efficiency,
        "pass": pass,
        "rows_checked": checked,
        "rows_below_floor": rows.len() - checked,
        "worst": worst.map(|(_, detail)| detail).unwrap_or(Value::Null),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_rows(curve: &[f64]) -> Vec<Value> {
        curve
            .iter()
            .enumerate()
            .map(|(i, s)| json!({"threads": 1u64 << i, "seconds": 1.0, "speedup": s}))
            .collect()
    }

    fn artifact(host_cpus: u64, speedups: &[(&str, &[f64])]) -> Value {
        let mut phases = serde_json::Map::new();
        for (phase, curve) in speedups {
            phases.insert((*phase).to_owned(), json!(phase_rows(curve)));
        }
        json!({"host_cpus": host_cpus, "phases": Value::Object(phases)})
    }

    const FLAT: &[f64] = &[1.0, 1.0, 1.0, 1.0];

    #[test]
    fn required_speedup_caps_at_host_cpus() {
        assert_eq!(required_speedup(1, 8, 0.7), 1.0);
        assert_eq!(required_speedup(8, 8, 1.0), 8.0);
        assert_eq!(required_speedup(8, 1, 0.7), 1.0);
        assert_eq!(required_speedup(8, 4, 0.5), 2.5);
    }

    #[test]
    fn flat_curves_pass_on_one_cpu() {
        let artifact = artifact(
            1,
            &[("generation", FLAT), ("extraction", FLAT), ("model", FLAT)],
        );
        let verdict = evaluate(&artifact, DEFAULT_TOLERANCE);
        assert!(passed(&verdict), "{verdict:?}");
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_even_on_one_cpu() {
        let artifact = artifact(
            1,
            &[
                ("generation", &[1.0, 0.5, 0.5, 0.5]),
                ("extraction", FLAT),
                ("model", FLAT),
            ],
        );
        let verdict = evaluate(&artifact, DEFAULT_TOLERANCE);
        assert!(!passed(&verdict), "{verdict:?}");
        assert_eq!(verdict["phases"]["generation"]["pass"], json!(false));
        assert_eq!(verdict["phases"]["extraction"]["pass"], json!(true));
    }

    #[test]
    fn sublinear_curve_fails_on_multicore() {
        // 8 CPUs, but extraction stalls at 1.2x: required at 8 threads is
        // 1 + 7*0.7 = 5.9, allowed 4.425 — clear regression.
        let artifact = artifact(
            8,
            &[
                ("generation", &[1.0, 1.9, 3.6, 6.5]),
                ("extraction", &[1.0, 1.1, 1.2, 1.2]),
                ("model", &[1.0, 1.8, 3.2, 5.0]),
            ],
        );
        let verdict = evaluate(&artifact, DEFAULT_TOLERANCE);
        assert!(!passed(&verdict));
        assert_eq!(verdict["phases"]["extraction"]["pass"], json!(false));
        assert_eq!(verdict["phases"]["generation"]["pass"], json!(true));
        let worst = &verdict["phases"]["extraction"]["worst"];
        assert_eq!(worst["threads"], json!(8));
    }

    #[test]
    fn sub_floor_rows_are_exempt() {
        // A "0.4x slowdown" measured on microsecond medians is jitter, not
        // regression — the whole phase sits below the noise floor.
        let sub_floor: Vec<Value> = [1u64, 2, 4, 8]
            .iter()
            .map(|t| json!({"threads": t, "seconds": 0.0004, "speedup": 0.4}))
            .collect();
        let artifact = json!({
            "host_cpus": 1,
            "phases": json!({
                "generation": phase_rows(FLAT),
                "extraction": phase_rows(FLAT),
                "model": sub_floor,
            }),
        });
        let verdict = evaluate(&artifact, DEFAULT_TOLERANCE);
        assert!(passed(&verdict), "{verdict:?}");
        assert_eq!(verdict["phases"]["model"]["rows_below_floor"], json!(4));
        assert!(verdict["phases"]["model"]["worst"].is_null());
    }

    #[test]
    fn missing_phase_fails_closed() {
        let artifact = artifact(1, &[("generation", FLAT)]);
        let verdict = evaluate(&artifact, DEFAULT_TOLERANCE);
        assert!(!passed(&verdict));
        assert!(verdict["phases"]["model"]["error"].as_str().is_some());
    }
}
