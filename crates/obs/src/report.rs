//! The versioned run report: schema, rendering, and diffing.

use crate::histogram::HistogramSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Current report schema version. Bump on any breaking field change so
/// `bench diff` can refuse to compare incompatible artifacts.
///
/// v2 adds the fault-tolerance accounting (`coverage`, `retries`,
/// `quarantined_shards`); v1 reports parse with those fields defaulted,
/// so a v1 baseline still diffs against a v2 report.
pub const REPORT_VERSION: u32 = 2;

/// One pipeline phase: accumulated wall (or summed per-worker CPU) time
/// plus the item count it processed and the derived throughput.
#[expect(
    clippy::disallowed_macros,
    reason = "bench diff reads run reports back"
)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name (`extract`, `group`, `model`, `decide`, `index`, …).
    pub name: String,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Items processed (documents, statements, combinations, …).
    pub items: u64,
    /// `items / seconds` (0 when no time was recorded).
    pub per_second: f64,
}

/// Per-(type, property) EM telemetry captured during interpretation.
#[expect(
    clippy::disallowed_macros,
    reason = "bench diff reads run reports back"
)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmGroupReport {
    /// Entity type name of the combination.
    pub type_name: String,
    /// Property surface form.
    pub property: String,
    /// Entities in the group (including never-mentioned ones).
    pub entities: u64,
    /// EM iterations of the winning restart.
    pub iterations: u64,
    /// Why EM stopped: `tolerance`, `max_iterations`, or `degenerate`.
    pub converged: String,
    /// Final mixture log-likelihood of the fitted parameters.
    pub log_likelihood: f64,
    /// Largest parameter movement in the final iteration.
    pub final_delta: f64,
    /// Expected complete-data log-likelihood `Q'` per iteration.
    pub q_trace: Vec<f64>,
    /// Max parameter delta per iteration.
    pub delta_trace: Vec<f64>,
}

/// A versioned snapshot of one observed pipeline run.
///
/// Serialized with `--report out.json`; the schema is stable per
/// [`REPORT_VERSION`] so tooling (`bench diff`) can compare runs
/// recorded by different builds.
#[expect(
    clippy::disallowed_macros,
    reason = "bench diff reads run reports back"
)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`REPORT_VERSION`] at write time).
    pub version: u32,
    /// Phases in first-recorded order.
    pub phases: Vec<PhaseReport>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// EM telemetry, sorted by (type, property).
    pub em_groups: Vec<EmGroupReport>,
    /// Shard coverage of the extraction phase in `[0, 1]` (v2; `None`
    /// for v1 reports and runs without a fault-tolerance layer).
    #[serde(default)]
    pub coverage: Option<f64>,
    /// Total shard retry attempts (v2; 0 for v1 reports).
    #[serde(default)]
    pub retries: u64,
    /// Quarantined shard indices, sorted (v2; empty for v1 reports).
    #[serde(default)]
    pub quarantined_shards: Vec<usize>,
}

impl RunReport {
    /// Pretty-printed JSON.
    #[expect(
        clippy::expect_used,
        reason = "the report value tree holds only serializable primitives"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }

    /// Parses a report written by [`to_json`](Self::to_json). Errors on
    /// malformed JSON or a schema the struct cannot hold.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid run report: {e}"))
    }

    /// The phase named `name`, if recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Renders the human-readable table (`--report -`).
    pub fn render(&self) -> String {
        let mut out = format!("run report (schema v{})\n\nphases:\n", self.version);
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>12} {:>14}",
            "phase", "seconds", "items", "items/s"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<10} {:>10.4} {:>12} {:>14.0}",
                p.name, p.seconds, p.items, p.per_second
            );
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name} = {value:.4}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} min={:.1} p50={:.1} p90={:.1} p99={:.1} max={:.1}",
                    h.count, h.min, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if let Some(coverage) = self.coverage {
            out.push_str("\nfault tolerance:\n");
            let _ = writeln!(out, "  shard coverage = {coverage:.3}");
            let _ = writeln!(out, "  retries = {}", self.retries);
            let _ = writeln!(out, "  quarantined shards = {:?}", self.quarantined_shards);
        }
        if !self.em_groups.is_empty() {
            out.push_str("\nEM convergence:\n");
            let _ = writeln!(
                out,
                "  {:<12} {:<16} {:>8} {:>6} {:>15} {:<14}",
                "type", "property", "entities", "iters", "logL", "stopped"
            );
            for g in &self.em_groups {
                let _ = writeln!(
                    out,
                    "  {:<12} {:<16} {:>8} {:>6} {:>15.2} {:<14}",
                    g.type_name,
                    g.property,
                    g.entities,
                    g.iterations,
                    g.log_likelihood,
                    g.converged
                );
            }
        }
        out
    }

    /// Compares this run against a `baseline` report: per-phase time
    /// ratios, counter deltas, and (when present) fault-tolerance
    /// accounting. Known schema versions (1..=[`REPORT_VERSION`])
    /// compare against each other — a v1 baseline diffs against a v2
    /// report with the fault fields treated as absent; unknown (newer)
    /// versions are flagged rather than compared field-by-field.
    pub fn diff(&self, baseline: &RunReport) -> String {
        let known = 1..=REPORT_VERSION;
        if !known.contains(&self.version) || !known.contains(&baseline.version) {
            return format!(
                "schema mismatch: this report is v{}, baseline is v{} — not comparable",
                self.version, baseline.version
            );
        }
        let mut out = String::new();
        if self.version != baseline.version {
            let _ = writeln!(
                out,
                "note: comparing schema v{} against v{} (v1 reports carry no fault-tolerance fields)",
                self.version, baseline.version
            );
        }
        out.push_str("phase comparison (current vs baseline):\n");
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>12} {:>9}",
            "phase", "current s", "baseline s", "speedup"
        );
        for p in &self.phases {
            match baseline.phase(&p.name) {
                Some(b) if p.seconds > 0.0 && b.seconds > 0.0 => {
                    let _ = writeln!(
                        out,
                        "  {:<10} {:>12.4} {:>12.4} {:>8.2}x",
                        p.name,
                        p.seconds,
                        b.seconds,
                        b.seconds / p.seconds
                    );
                }
                Some(b) => {
                    let _ = writeln!(
                        out,
                        "  {:<10} {:>12.4} {:>12.4}        -",
                        p.name, p.seconds, b.seconds
                    );
                }
                None => {
                    let _ = writeln!(out, "  {:<10} {:>12.4}    (new phase)", p.name, p.seconds);
                }
            }
        }
        let changed: Vec<String> = self
            .counters
            .iter()
            .filter_map(|(name, &value)| {
                let base = baseline.counters.get(name).copied().unwrap_or(0);
                (value != base).then(|| {
                    format!(
                        "  {name}: {base} -> {value} ({:+})",
                        value as i64 - base as i64
                    )
                })
            })
            .collect();
        if !changed.is_empty() {
            out.push_str("counter changes:\n");
            for line in changed {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if self.coverage.is_some() || baseline.coverage.is_some() {
            let show = |c: Option<f64>| c.map_or("-".to_owned(), |c| format!("{c:.3}"));
            let _ = writeln!(
                out,
                "fault tolerance: coverage {} -> {}, retries {} -> {}, quarantined {:?} -> {:?}",
                show(baseline.coverage),
                show(self.coverage),
                baseline.retries,
                self.retries,
                baseline.quarantined_shards,
                self.quarantined_shards,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use std::time::Duration;

    fn sample() -> RunReport {
        let reg = MetricsRegistry::new();
        reg.record_phase("extract", Duration::from_millis(100), 1000);
        reg.record_phase("group", Duration::from_millis(10), 1000);
        reg.add("extract.documents", 1000);
        reg.observe("em.iterations", 7.0);
        reg.set_gauge("speedup", 2.0);
        reg.record_em_group(EmGroupReport {
            type_name: "city".into(),
            property: "big".into(),
            entities: 500,
            iterations: 7,
            converged: "tolerance".into(),
            log_likelihood: -1234.5,
            final_delta: 1e-10,
            q_trace: vec![-2000.0, -1300.0, -1234.5],
            delta_trace: vec![0.5, 0.01, 1e-10],
        });
        reg.report()
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.version, REPORT_VERSION);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(RunReport::from_json("{").is_err());
        assert!(RunReport::from_json("[1, 2]").is_err());
    }

    #[test]
    fn render_mentions_all_sections() {
        let text = sample().render();
        for needle in [
            "phases:",
            "extract",
            "counters:",
            "gauges:",
            "EM convergence:",
            "big",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn diff_reports_speedup_and_counter_changes() {
        let baseline = sample();
        let mut current = sample();
        current.phases[0].seconds = 0.05; // 2x faster extraction
        *current.counters.get_mut("extract.documents").unwrap() = 1100;
        let text = current.diff(&baseline);
        assert!(text.contains("2.00x"), "{text}");
        assert!(text.contains("1000 -> 1100 (+100)"), "{text}");
    }

    #[test]
    fn diff_refuses_unknown_versions() {
        let baseline = sample();
        let mut current = sample();
        current.version = REPORT_VERSION + 1;
        assert!(current.diff(&baseline).contains("schema mismatch"));
        current.version = 0;
        assert!(current.diff(&baseline).contains("schema mismatch"));
    }

    /// A v1 report as written by the previous schema: no fault fields.
    fn v1_json() -> String {
        let mut value = serde_json::to_value(sample()).unwrap();
        let serde_json::Value::Object(ref mut fields) = value else {
            panic!("report serializes as an object");
        };
        fields.insert("version".to_owned(), serde_json::to_value(1u32).unwrap());
        for v2_field in ["coverage", "retries", "quarantined_shards"] {
            fields.remove(v2_field);
        }
        serde_json::to_string_pretty(&value).unwrap()
    }

    #[test]
    fn v1_report_parses_with_defaulted_fault_fields() {
        let json = v1_json();
        assert!(!json.contains("coverage"), "fixture still has v2 fields");
        let report = RunReport::from_json(&json).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(report.coverage, None);
        assert_eq!(report.retries, 0);
        assert!(report.quarantined_shards.is_empty());
    }

    #[test]
    fn v2_report_diffs_against_v1_baseline() {
        let baseline = RunReport::from_json(&v1_json()).unwrap();
        let mut current = sample();
        current.coverage = Some(0.875);
        current.retries = 3;
        current.quarantined_shards = vec![2, 5];
        let text = current.diff(&baseline);
        assert!(text.contains("comparing schema v2 against v1"), "{text}");
        assert!(text.contains("phase comparison"), "{text}");
        assert!(text.contains("coverage - -> 0.875"), "{text}");
    }

    #[test]
    fn fault_summary_round_trips_and_renders() {
        let reg = MetricsRegistry::new();
        reg.record_phase("extract", Duration::from_millis(10), 100);
        reg.record_fault_summary(crate::FaultSummary {
            coverage: 0.75,
            retries: 4,
            quarantined_shards: vec![1, 3],
        });
        let report = reg.report();
        assert_eq!(report.version, REPORT_VERSION);
        assert_eq!(report.coverage, Some(0.75));
        assert_eq!(report.retries, 4);
        assert_eq!(report.quarantined_shards, vec![1, 3]);
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let text = report.render();
        assert!(text.contains("fault tolerance:"), "{text}");
        assert!(text.contains("quarantined shards = [1, 3]"), "{text}");
    }
}
