//! The versioned run report: schema and rendering.

use crate::histogram::HistogramSummary;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Current report schema version, written as the report's `version`
/// field. Bump on any breaking field change, so a reader of the JSON can
/// tell the schemas apart.
///
/// v2 added the fault-tolerance accounting (`coverage`, `retries`,
/// `quarantined_shards`).
pub const REPORT_VERSION: u32 = 2;

/// One pipeline phase: accumulated wall (or summed per-worker CPU) time
/// plus the item count it processed and the derived throughput.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
/// [`REPORT_VERSION`].
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    /// Shard coverage of the extraction phase in `[0, 1]` (`None` for
    /// runs without a fault-tolerance layer).
    pub coverage: Option<f64>,
    /// Total shard retry attempts.
    pub retries: u64,
    /// Quarantined shard indices, sorted.
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
        let json: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(json, serde_json::to_value(&report).unwrap());
        assert_eq!(json["version"].as_u64(), Some(u64::from(REPORT_VERSION)));
        assert_eq!(
            json["histograms"]["em.iterations"]["count"].as_u64(),
            Some(1)
        );
        assert_eq!(json["em_groups"][0]["final_delta"].as_f64(), Some(1e-10));
        assert_eq!(json["em_groups"][0]["q_trace"][2].as_f64(), Some(-1234.5));
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
        let json: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(json["coverage"].as_f64(), Some(0.75));
        assert_eq!(json["retries"].as_u64(), Some(4));
        assert_eq!(json["quarantined_shards"], serde_json::json!([1, 3]));
        let text = report.render();
        assert!(text.contains("fault tolerance:"), "{text}");
        assert!(text.contains("quarantined shards = [1, 3]"), "{text}");
    }
}
