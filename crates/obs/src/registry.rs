//! The thread-safe metrics registry and its phase-span guard.

use crate::histogram::Histogram;
use crate::report::{EmGroupReport, PhaseReport, RunReport, REPORT_VERSION};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A handle to a named counter: a shared atomic, so incrementing never
/// touches the registry's maps. Clone freely; clones point at the same
/// underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One accumulated phase: repeated records under the same name merge by
/// summing seconds and items, so per-worker CPU slices report as one row.
#[derive(Debug, Clone, Default)]
struct PhaseAccum {
    name: String,
    seconds: f64,
    items: u64,
}

/// Fault-tolerance accounting for one run, stamped by the pipeline when
/// it runs under a failure policy and copied verbatim into the v2 fields
/// of [`RunReport`] — so a degraded answer is never silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Fraction of shards whose evidence reached the output, in `[0, 1]`.
    pub coverage: f64,
    /// Total shard retry attempts.
    pub retries: u64,
    /// Quarantined shard indices, sorted.
    pub quarantined_shards: Vec<usize>,
}

/// A thread-safe registry of counters, gauges, histograms, phase
/// records, and EM group telemetry — one per observed pipeline run.
///
/// All methods take `&self`; the registry is shared across worker
/// threads behind an `Arc`. Every store sits behind one lock, held
/// briefly per call; hot paths should resolve a [`Counter`] handle once
/// (or accumulate locally) and flush aggregates on join.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stores: Mutex<Stores>,
}

/// Everything a [`MetricsRegistry`] records.
#[derive(Debug, Default)]
struct Stores {
    counters: FxHashMap<String, Counter>,
    gauges: FxHashMap<String, f64>,
    histograms: FxHashMap<String, Arc<Histogram>>,
    /// Phase records in first-recorded order (reports preserve it).
    phases: Vec<PhaseAccum>,
    em_groups: Vec<EmGroupReport>,
    fault: Option<FaultSummary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stores, locked. Each call leaves them whole, so a lock
    /// poisoned by a panicking holder is taken as it is.
    #[expect(
        clippy::disallowed_methods,
        reason = "the registry's one lock, held to find or create a metric and never nested"
    )]
    fn stores(&self) -> MutexGuard<'_, Stores> {
        self.stores.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut stores = self.stores();
        if let Some(c) = stores.counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        stores.counters.insert(name.to_owned(), c.clone());
        c
    }

    /// Adds `n` to the counter `name` (created on first use).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.stores()
            .counters
            .get(name)
            .map(Counter::value)
            .unwrap_or(0)
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.stores().gauges.insert(name.to_owned(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.stores().gauges.get(name).copied()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut stores = self.stores();
        if let Some(h) = stores.histograms.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        stores.histograms.insert(name.to_owned(), h.clone());
        h
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.histogram(name).observe(value);
    }

    /// Opens a phase span; the returned guard records wall time and item
    /// count under `name` when dropped. The [`crate::span!`] macro is
    /// shorthand for this call.
    #[expect(
        clippy::disallowed_methods,
        reason = "a span times its phase for the obs report, never the output"
    )]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            name: name.to_owned(),
            start: Instant::now(),
            items: 0,
        }
    }

    /// Records a measured phase slice directly (the span guard calls
    /// this on drop). Slices recorded under one name accumulate.
    pub fn record_phase(&self, name: &str, duration: Duration, items: u64) {
        let phases = &mut self.stores().phases;
        if let Some(p) = phases.iter_mut().find(|p| p.name == name) {
            p.seconds += duration.as_secs_f64();
            p.items += items;
        } else {
            phases.push(PhaseAccum {
                name: name.to_owned(),
                seconds: duration.as_secs_f64(),
                items,
            });
        }
    }

    /// Appends one (type, property) group's EM telemetry.
    pub fn record_em_group(&self, group: EmGroupReport) {
        self.stores().em_groups.push(group);
    }

    /// Stamps the run's fault-tolerance accounting (last write wins).
    pub fn record_fault_summary(&self, summary: FaultSummary) {
        self.stores().fault = Some(summary);
    }

    /// Snapshots everything into a versioned [`RunReport`]. Phases keep
    /// first-recorded order; maps are name-sorted; EM groups are sorted
    /// by (type, property) so worker completion order never leaks into
    /// the artifact.
    pub fn report(&self) -> RunReport {
        let stores = self.stores();
        let phases = stores
            .phases
            .iter()
            .map(|p| PhaseReport {
                name: p.name.clone(),
                seconds: p.seconds,
                items: p.items,
                per_second: if p.seconds > 0.0 {
                    p.items as f64 / p.seconds
                } else {
                    0.0
                },
            })
            .collect();
        let counters: BTreeMap<String, u64> = stores
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let gauges: BTreeMap<String, f64> =
            stores.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let histograms: BTreeMap<String, crate::HistogramSummary> = stores
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        let mut em_groups: Vec<EmGroupReport> = stores.em_groups.clone();
        em_groups.sort_by(|a, b| {
            (a.type_name.as_str(), a.property.as_str())
                .cmp(&(b.type_name.as_str(), b.property.as_str()))
        });
        let fault = stores.fault.clone().unwrap_or_default();
        RunReport {
            version: REPORT_VERSION,
            phases,
            counters,
            gauges,
            histograms,
            em_groups,
            coverage: stores.fault.as_ref().map(|f| f.coverage),
            retries: fault.retries,
            quarantined_shards: fault.quarantined_shards,
        }
    }
}

/// Scope guard for one phase measurement; created by
/// [`MetricsRegistry::span`]. Records `(name, wall time, items)` into
/// the registry when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a MetricsRegistry,
    name: String,
    start: Instant,
    items: u64,
}

impl SpanGuard<'_> {
    /// Sets the item count the phase processed (drives the derived
    /// throughput in reports). Last call wins.
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }

    /// Wall time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .record_phase(&self.name, self.start.elapsed(), self.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.add("docs", 3);
        let handle = reg.counter("docs");
        handle.inc();
        assert_eq!(reg.counter_value("docs"), 4);
        assert_eq!(reg.counter_value("never"), 0);
        reg.set_gauge("speedup", 1.98);
        assert_eq!(reg.gauge("speedup"), Some(1.98));
        assert_eq!(reg.gauge("never"), None);
    }

    #[test]
    fn span_records_phase_with_throughput() {
        let reg = MetricsRegistry::new();
        {
            let mut span = reg.span("extract");
            std::thread::sleep(Duration::from_millis(2));
            span.set_items(100);
        }
        let report = reg.report();
        assert_eq!(report.phases.len(), 1);
        let p = &report.phases[0];
        assert_eq!(p.name, "extract");
        assert!(p.seconds > 0.0);
        assert_eq!(p.items, 100);
        assert!(p.per_second > 0.0);
    }

    #[test]
    fn repeated_phase_records_accumulate() {
        let reg = MetricsRegistry::new();
        reg.record_phase("model", Duration::from_millis(10), 2);
        reg.record_phase("model", Duration::from_millis(30), 3);
        let report = reg.report();
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].items, 5);
        assert!((report.phases[0].seconds - 0.04).abs() < 1e-9);
    }

    #[test]
    fn phase_order_is_first_recorded() {
        let reg = MetricsRegistry::new();
        for name in ["extract", "group", "model", "decide", "index"] {
            reg.record_phase(name, Duration::from_micros(1), 1);
        }
        reg.record_phase("model", Duration::from_micros(1), 1);
        let report = reg.report();
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["extract", "group", "model", "decide", "index"]);
    }
}
