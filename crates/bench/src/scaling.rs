//! The scaling-regression gate behind `bench scale --assert-scaling`.
//!
//! A `BENCH_scale.json` artifact carries one speedup curve per pipeline
//! phase (`generation`, `extraction`, `model`). This module
//! compares each curve against a per-phase *target curve* derived from a
//! parallel-efficiency constant, and returns a verdict that the bench
//! binary embeds in the artifact and turns into a nonzero exit on
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

use serde::Serialize;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Each phase's name and parallel-efficiency target, in [`Phases`]
/// order. `generation` and `extraction` are embarrassingly parallel over
/// shards (near-linear is expected); `model` fans over combinations whose
/// sizes skew, so its target is lower.
pub const PHASE_EFFICIENCY: [(&str, f64); 3] =
    [("generation", 0.70), ("extraction", 0.70), ("model", 0.50)];

/// Default slack applied to every target curve.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Rows faster than this are exempt from the curve check: a speedup ratio
/// between two sub-10ms medians is timer jitter, not a scaling signal.
/// Quick-mode smoke runs shrink some phases below this floor; full runs
/// keep every phase well above it, so the gate still bites where it can
/// actually measure.
pub const NOISE_FLOOR_SECONDS: f64 = 0.01;

/// Minimum speedup the target curve requires at `threads` threads.
pub fn required_speedup(threads: usize, host_cpus: usize, efficiency: f64) -> f64 {
    let usable = threads.min(host_cpus.max(1)) as f64;
    1.0 + (usable - 1.0) * efficiency
}

/// One point of a phase's speedup curve: the median seconds at `threads`
/// workers, the speedup over one worker, and what the run produced under
/// its artifact key (`documents`, `statements` or `decided_pairs`).
#[derive(Debug, Clone, Copy)]
pub struct PhaseRow {
    pub(crate) threads: usize,
    pub(crate) seconds: f64,
    pub(crate) speedup: f64,
    pub(crate) produced: (&'static str, usize),
}

impl Serialize for PhaseRow {
    fn to_value(&self) -> Value {
        let (key, count) = self.produced;
        let mut row = Map::new();
        row.insert("threads".to_owned(), self.threads.to_value());
        row.insert("seconds".to_owned(), self.seconds.to_value());
        row.insert("speedup".to_owned(), self.speedup.to_value());
        row.insert(key.to_owned(), count.to_value());
        Value::Object(row)
    }
}

/// The three phase curves of a scaling sweep, in [`PHASE_EFFICIENCY`]
/// order, serialized under the phases' names.
#[derive(Debug, Default)]
pub struct Phases(pub(crate) [Vec<PhaseRow>; 3]);

impl Phases {
    /// Each phase's name, efficiency target and curve.
    pub fn curves(&self) -> impl Iterator<Item = (&'static str, f64, &[PhaseRow])> {
        (PHASE_EFFICIENCY.iter().zip(&self.0)).map(|(&(phase, e), rows)| (phase, e, &rows[..]))
    }
}

impl Serialize for Phases {
    fn to_value(&self) -> Value {
        let curves = self
            .curves()
            .map(|(phase, _, rows)| (phase.to_owned(), rows.to_value()));
        Value::Object(curves.collect())
    }
}

/// The `assert_scaling` verdict: per-phase pass/fail with the
/// worst-margin row, and an overall `verdict` of `"pass"` or `"fail"`.
#[derive(Debug, Serialize)]
pub struct Verdict {
    tolerance: f64,
    host_cpus: usize,
    phases: BTreeMap<String, PhaseVerdict>,
    verdict: &'static str,
}

/// One phase's check. `worst` is `None` (`null`) when every row is below
/// the noise floor.
#[derive(Debug, Serialize)]
struct PhaseVerdict {
    efficiency_target: f64,
    pass: bool,
    rows_checked: usize,
    rows_below_floor: usize,
    worst: Option<Worst>,
}

/// The row with the smallest margin over its slacked target.
#[derive(Debug, Serialize)]
struct Worst {
    threads: usize,
    speedup: f64,
    required: f64,
    allowed: f64,
}

/// Evaluates every phase curve against its target curve on a host with
/// `host_cpus` CPUs: every row above the noise floor must reach its
/// slacked target, and a phase's `worst` row is the one with the smallest
/// margin. A phase whose rows are all below the floor passes vacuously
/// (there is nothing to measure) with no `worst`.
pub fn evaluate(phases: &Phases, host_cpus: usize, tolerance: f64) -> Verdict {
    let mut verdicts = BTreeMap::new();
    for (phase, efficiency, rows) in phases.curves() {
        let mut pass = true;
        let mut checked = 0usize;
        let mut worst: Option<(f64, Worst)> = None;
        for row in rows.iter().filter(|row| row.seconds >= NOISE_FLOOR_SECONDS) {
            checked += 1;
            let required = required_speedup(row.threads, host_cpus, efficiency);
            let allowed = required * (1.0 - tolerance);
            let margin = row.speedup - allowed;
            pass &= margin >= 0.0;
            if worst.as_ref().is_none_or(|(m, _)| margin < *m) {
                let detail = Worst {
                    threads: row.threads,
                    speedup: row.speedup,
                    required,
                    allowed,
                };
                worst = Some((margin, detail));
            }
        }
        let verdict = PhaseVerdict {
            efficiency_target: efficiency,
            pass,
            rows_checked: checked,
            rows_below_floor: rows.len() - checked,
            worst: worst.map(|(_, detail)| detail),
        };
        verdicts.insert(phase.to_owned(), verdict);
    }
    let all_pass = verdicts.values().all(|phase| phase.pass);
    Verdict {
        tolerance,
        host_cpus,
        phases: verdicts,
        verdict: if all_pass { "pass" } else { "fail" },
    }
}

impl Verdict {
    /// Whether every phase passed.
    pub fn passed(&self) -> bool {
        self.verdict == "pass"
    }

    /// The verdict as a short human-readable block.
    pub fn render(&self) -> String {
        let mut lines = vec![format!(
            "assert-scaling (tolerance {:.0}%, {} host CPUs): {}",
            self.tolerance * 100.0,
            self.host_cpus,
            self.verdict,
        )];
        for (phase, entry) in &self.phases {
            let status = if entry.pass { "pass" } else { "FAIL" };
            lines.push(match &entry.worst {
                None => format!(
                    "  {phase:<11} {status} — all rows below {NOISE_FLOOR_SECONDS}s noise floor",
                ),
                Some(worst) => format!(
                    "  {phase:<11} {status} — worst {:.2}x vs {:.2}x required at {} threads",
                    worst.speedup, worst.allowed, worst.threads,
                ),
            });
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A curve at 1/2/4/8 threads, each row `seconds` long.
    fn curve(seconds: f64, speedups: &[f64]) -> Vec<PhaseRow> {
        (speedups.iter().enumerate())
            .map(|(i, &speedup)| PhaseRow {
                threads: 1 << i,
                seconds,
                speedup,
                produced: ("documents", 1),
            })
            .collect()
    }

    fn phases(generation: &[f64], extraction: &[f64], model: &[f64]) -> Phases {
        Phases([generation, extraction, model].map(|speedups| curve(1.0, speedups)))
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
        let verdict = evaluate(&phases(FLAT, FLAT, FLAT), 1, DEFAULT_TOLERANCE);
        assert!(verdict.passed(), "{verdict:?}");
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_even_on_one_cpu() {
        let slowdown = phases(&[1.0, 0.5, 0.5, 0.5], FLAT, FLAT);
        let verdict = evaluate(&slowdown, 1, DEFAULT_TOLERANCE);
        assert!(!verdict.passed(), "{verdict:?}");
        assert!(!verdict.phases["generation"].pass);
        assert!(verdict.phases["extraction"].pass);
    }

    #[test]
    fn a_row_passes_exactly_at_its_slacked_target() {
        // One CPU: every target is 1.0, slacked by the tolerance to 0.75.
        let at_floor = phases(&[1.0, 0.75, 0.75, 0.75], FLAT, FLAT);
        assert!(evaluate(&at_floor, 1, DEFAULT_TOLERANCE).passed());
        let below = phases(&[1.0, 0.75, 0.74, 0.75], FLAT, FLAT);
        let verdict = evaluate(&below, 1, DEFAULT_TOLERANCE);
        assert!(!verdict.passed());
        let worst = verdict.phases["generation"].worst.as_ref().unwrap();
        assert_eq!((worst.threads, worst.allowed), (4, 0.75));
    }

    #[test]
    fn sublinear_curve_fails_on_multicore() {
        // 8 CPUs, but extraction stalls at 1.2x: required at 8 threads is
        // 1 + 7*0.7 = 5.9, allowed 4.425 — clear regression.
        let stalled = phases(
            &[1.0, 1.9, 3.6, 6.5],
            &[1.0, 1.1, 1.2, 1.2],
            &[1.0, 1.8, 3.2, 5.0],
        );
        let verdict = evaluate(&stalled, 8, DEFAULT_TOLERANCE);
        assert!(!verdict.passed());
        assert!(!verdict.phases["extraction"].pass);
        assert!(verdict.phases["generation"].pass);
        let worst = verdict.phases["extraction"].worst.as_ref().unwrap();
        assert_eq!(worst.threads, 8);
    }

    #[test]
    fn sub_floor_rows_are_exempt() {
        // A "0.4x slowdown" measured on microsecond medians is jitter, not
        // regression — the whole phase sits below the noise floor.
        let mut jittery = phases(FLAT, FLAT, FLAT);
        jittery.0[2] = curve(0.0004, &[0.4, 0.4, 0.4, 0.4]);
        let verdict = evaluate(&jittery, 1, DEFAULT_TOLERANCE);
        assert!(verdict.passed(), "{verdict:?}");
        assert_eq!(verdict.phases["model"].rows_below_floor, 4);
        assert!(verdict.phases["model"].worst.is_none());
        // The artifact keeps the key, as `null`.
        let value = verdict.to_value();
        assert_eq!(value["phases"]["model"]["worst"], Value::Null);
    }
}
