//! Endpoint routing over the served decision index.
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET | `/healthz` | liveness: process is up |
//! | GET | `/readyz` | readiness: index generation + epoch |
//! | GET | `/decide/{entity}/{property}` | the verdict on one pair |
//! | GET | `/entity/{entity}?k=N` | top-k most confident properties |
//! | GET | `/model/{type}/{property}` | fitted model parameters |
//! | GET | `/evidence/{entity}/{property}` | evidence + provenance drill-down |
//! | GET | `/metrics` | the `surveyor-obs` run report |
//! | POST | `/ctl/reload?path=P` | validate-then-swap hot reload |
//! | POST | `/ctl/shutdown` | graceful drain-and-exit |
//! | POST | `/ctl/panic` | *(debug)* deliberate worker panic |
//! | POST | `/ctl/stall?ms=N` | *(debug)* hold a worker for N ms |
//!
//! Routing is pure dispatch; the robustness envelope (deadline, queue,
//! `catch_unwind`) lives in `server.rs`. The one stateful route is
//! `/ctl/reload`, which embodies validate-then-swap: candidate bytes
//! must build a full [`ServedState`] before
//! the shared slot moves, so rejection leaves the old index serving.

use crate::http::{Method, Request, Response};
use crate::metrics::ServerMetrics;
use crate::state::{ServedState, SharedState, StateCache};
use serde_json::json;
use std::sync::Arc;
use surveyor::kb::Property;
use surveyor::{BlockRef, OpinionRef};

/// What the worker should do after writing the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Keep serving.
    None,
    /// Begin graceful shutdown (the `/ctl/shutdown` route).
    Shutdown,
}

/// A routed response plus its post-write control action.
#[derive(Debug)]
pub struct RouteOutcome {
    /// The response to write.
    pub response: Response,
    /// What to do after writing it.
    pub action: ControlAction,
}

impl RouteOutcome {
    fn reply(response: Response) -> Self {
        Self {
            response,
            action: ControlAction::None,
        }
    }
}

/// Everything a route can touch.
pub struct RouteContext<'a> {
    /// The shared reload slot.
    pub shared: &'a SharedState,
    /// This request's epoch-cached state handle.
    pub cache: &'a mut StateCache,
    /// Pre-resolved counters + the registry behind `/metrics`.
    pub metrics: &'a ServerMetrics,
    /// Whether `/ctl/panic` and `/ctl/stall` are enabled.
    pub debug_routes: bool,
}

/// Ceiling on `/ctl/stall` so a typo cannot wedge a worker for minutes.
const MAX_STALL_MS: u64 = 10_000;

/// Ceiling on `?k=` so one request cannot ask for an unbounded payload.
const MAX_TOP_K: usize = 100;

fn not_found(detail: &str) -> Response {
    Response::json(404, &json!({ "error": detail }))
}

fn bad_request(detail: &str) -> Response {
    Response::json(400, &json!({ "error": detail }))
}

fn opinion_json(block: &BlockRef<'_>, opinion: &OpinionRef<'_>) -> serde_json::Value {
    json!({
        "entity": opinion.entity_name,
        "type": block.type_name,
        "property": block.property.to_string(),
        "positive": opinion.positive,
        "probability": opinion.probability,
        "positive_statements": opinion.positive_statements,
        "negative_statements": opinion.negative_statements,
    })
}

/// Dispatches one parsed request.
pub fn route(req: &Request, ctx: &mut RouteContext<'_>) -> RouteOutcome {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => RouteOutcome::reply(Response::text(200, "ok")),
        (Method::Get, ["readyz"]) => {
            let epoch = ctx.shared.epoch();
            let state = ctx.cache.get(ctx.shared);
            RouteOutcome::reply(Response::json(
                200,
                &json!({
                    "ready": true,
                    "generation": state.generation,
                    "epoch": epoch,
                    "source": state.source,
                    "snapshot_bytes": state.snapshot_bytes,
                    "associations": state.store.len(),
                    "store_bytes": state.store.resident_bytes(),
                }),
            ))
        }
        (Method::Get, ["decide", entity, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(bad_request("unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.find_opinion(entity, &property) {
                Some((block, opinion)) => {
                    RouteOutcome::reply(Response::json(200, &opinion_json(&block, &opinion)))
                }
                None => RouteOutcome::reply(not_found("no stored opinion for entity/property")),
            }
        }
        (Method::Get, ["entity", entity]) => {
            let k = match req.query_param("k") {
                None => 10,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(k) if k >= 1 => k.min(MAX_TOP_K),
                    _ => return RouteOutcome::reply(bad_request("k must be a positive integer")),
                },
            };
            let state = ctx.cache.get(ctx.shared);
            let hits = state.store.opinions_of_entity(entity);
            if hits.is_empty() {
                return RouteOutcome::reply(not_found("unknown entity"));
            }
            let properties: Vec<serde_json::Value> = hits
                .iter()
                .take(k)
                .map(|(b, o)| opinion_json(b, o))
                .collect();
            RouteOutcome::reply(Response::json(
                200,
                &json!({ "entity": entity, "k": k, "properties": properties }),
            ))
        }
        (Method::Get, ["model", type_name, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(bad_request("unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.combination(type_name, &property) {
                Some(block) => RouteOutcome::reply(Response::json(
                    200,
                    &json!({
                        "type": block.type_name,
                        "property": block.property.to_string(),
                        "p_agree": block.p_agree,
                        "rate_pos": block.rate_pos,
                        "rate_neg": block.rate_neg,
                        "decided_entities": block.len(),
                    }),
                )),
                None => RouteOutcome::reply(not_found("no model for type/property")),
            }
        }
        (Method::Get, ["evidence", entity, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(bad_request("unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.find_opinion(entity, &property) {
                Some((block, opinion)) => RouteOutcome::reply(Response::json(
                    200,
                    &json!({
                        "entity": opinion.entity_name,
                        "type": block.type_name,
                        "property": block.property.to_string(),
                        "positive_statements": opinion.positive_statements,
                        "negative_statements": opinion.negative_statements,
                        "supporting_documents": opinion.supporting_documents,
                    }),
                )),
                None => RouteOutcome::reply(not_found("no evidence for entity/property")),
            }
        }
        (Method::Get, ["metrics"]) => {
            let report = ctx.metrics.registry().report();
            RouteOutcome::reply(Response {
                status: 200,
                content_type: "application/json",
                retry_after: None,
                body: report.to_json().into_bytes(),
            })
        }
        (Method::Post, ["ctl", "reload"]) => RouteOutcome::reply(reload(req, ctx)),
        (Method::Post, ["ctl", "shutdown"]) => RouteOutcome {
            response: Response::json(200, &json!({ "shutting_down": true })),
            action: ControlAction::Shutdown,
        },
        (Method::Post, ["ctl", "panic"]) if ctx.debug_routes => deliberate_panic(),
        (_, ["ctl", "stall"]) if ctx.debug_routes => {
            let ms = req
                .query_param("ms")
                .and_then(|raw| raw.parse::<u64>().ok())
                .unwrap_or(100)
                .min(MAX_STALL_MS);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            RouteOutcome::reply(Response::json(200, &json!({ "stalled_ms": ms })))
        }
        (Method::Post, _) => RouteOutcome::reply(Response::json(
            405,
            &json!({ "error": "POST is only accepted on /ctl routes" }),
        )),
        (Method::Get, _) => RouteOutcome::reply(not_found("unknown route")),
    }
}

/// The `/ctl/panic` debug route: panics on purpose, so a test can watch
/// the worker's `catch_unwind` turn it into one isolated 500.
#[expect(
    clippy::panic,
    reason = "config-gated fault-injection endpoint exercising catch_unwind isolation"
)]
fn deliberate_panic() -> ! {
    panic!("deliberate fault-injection panic via /ctl/panic")
}

/// The hot-reload route: read → validate end-to-end → swap, with the
/// old state serving throughout and surviving any rejection.
fn reload(req: &Request, ctx: &mut RouteContext<'_>) -> Response {
    let Some(path) = req.query_param("path") else {
        ctx.metrics.reload_rejected.inc();
        return bad_request("reload requires a ?path= query parameter");
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            ctx.metrics.reload_rejected.inc();
            return bad_request(&format!("cannot read snapshot file: {}", e.kind()));
        }
    };
    let current_generation = ctx.cache.get(ctx.shared).generation;
    match ServedState::from_snapshot_bytes(&bytes, current_generation + 1, path) {
        Ok(next) => {
            let store_bytes = next.store.resident_bytes();
            ctx.metrics.store_resident_bytes(store_bytes);
            ctx.shared.swap(Arc::new(next));
            ctx.metrics.reload_ok.inc();
            // The request's cache sees its own swap and lets go of the
            // replaced generation here — a dozen deallocations, however
            // many opinions it held.
            let state = ctx.cache.get(ctx.shared);
            Response::json(
                200,
                &json!({
                    "reloaded": true,
                    "generation": state.generation,
                    "source": state.source,
                    "associations": state.store.len(),
                    "store_bytes": store_bytes,
                }),
            )
        }
        Err(e) => {
            ctx.metrics.reload_rejected.inc();
            Response::json(
                422,
                &json!({
                    "reloaded": false,
                    "error": e.to_string(),
                    "serving_generation": current_generation,
                }),
            )
        }
    }
}
