//! Server telemetry on the `surveyor-obs` registry.
//!
//! All counters are resolved to [`Counter`] handles once at startup —
//! the registry's name→counter map is never locked on the request path,
//! matching the registry's own hot-path guidance. The same registry
//! backs `/metrics`, so every number here is visible to clients and to
//! the `bench serve` artifact.

use std::sync::Arc;
use surveyor_obs::{Counter, Histogram, MetricsRegistry};

/// Pre-resolved handles for every server metric.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    /// Requests admitted to the work queue.
    pub requests: Counter,
    /// Connections shed with `503` because the queue was full.
    pub shed: Counter,
    /// Worker panics contained by `catch_unwind`.
    pub panics: Counter,
    /// Requests whose deadline expired before a response was written.
    pub deadline_expired: Counter,
    /// Heads that failed to parse (`400`/`431`).
    pub malformed: Counter,
    /// Peers that vanished mid-request.
    pub disconnects: Counter,
    /// Hot reloads that validated and swapped.
    pub reload_ok: Counter,
    /// Hot reloads rejected with the old index still serving.
    pub reload_rejected: Counter,
    /// Responses by status class.
    pub responses_2xx: Counter,
    /// 4xx responses.
    pub responses_4xx: Counter,
    /// 5xx responses.
    pub responses_5xx: Counter,
    latency: Arc<Histogram>,
    route: Arc<Histogram>,
}

impl ServerMetrics {
    /// Resolves every handle against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            shed: registry.counter("serve.shed"),
            panics: registry.counter("serve.panics"),
            deadline_expired: registry.counter("serve.deadline_expired"),
            malformed: registry.counter("serve.malformed"),
            disconnects: registry.counter("serve.disconnects"),
            reload_ok: registry.counter("serve.reload.ok"),
            reload_rejected: registry.counter("serve.reload.rejected"),
            responses_2xx: registry.counter("serve.responses.2xx"),
            responses_4xx: registry.counter("serve.responses.4xx"),
            responses_5xx: registry.counter("serve.responses.5xx"),
            latency: registry.histogram("serve.latency_seconds"),
            route: registry.histogram("serve.route_seconds"),
            registry,
        }
    }

    /// The registry behind `/metrics` and run reports.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Counts a written response into its status class.
    pub fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    /// Records one request's latency from accept to response written,
    /// queue wait included.
    pub fn observe_latency(&self, seconds: f64) {
        self.latency.observe(seconds);
    }

    /// Sets the `server.store_resident_bytes` gauge: what the generation
    /// now serving keeps on the heap (`SubjectiveKb::resident_bytes`).
    /// Set at boot and on every accepted swap.
    pub fn store_resident_bytes(&self, bytes: usize) {
        self.registry
            .set_gauge("server.store_resident_bytes", bytes as f64);
    }

    /// Records the time one request spent in `route()` alone: the lookup
    /// and the reply's construction, without queue, read or write.
    pub fn observe_route(&self, seconds: f64) {
        self.route.observe(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = ServerMetrics::new(registry.clone());
        m.requests.inc();
        m.shed.add(2);
        m.count_response(200);
        m.count_response(404);
        m.count_response(503);
        m.observe_latency(0.001);
        m.observe_route(0.000_002);
        assert_eq!(registry.counter_value("serve.requests"), 1);
        assert_eq!(registry.counter_value("serve.shed"), 2);
        assert_eq!(registry.counter_value("serve.responses.2xx"), 1);
        assert_eq!(registry.counter_value("serve.responses.4xx"), 1);
        assert_eq!(registry.counter_value("serve.responses.5xx"), 1);
        let report = registry.report();
        assert!(report.histograms.contains_key("serve.latency_seconds"));
        assert!(report.histograms.contains_key("serve.route_seconds"));
    }
}
