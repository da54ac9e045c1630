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
use serde_json::JsonWriter;
use std::fmt::Display;
use std::sync::Arc;
use surveyor::kb::Property;
use surveyor::OpinionRef;

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

/// The members of one stored opinion: `/decide`'s body and each element
/// of `/entity`'s `properties`.
fn opinion_members(
    o: &mut JsonWriter<'_>,
    type_name: &str,
    property: &Property,
    opinion: &OpinionRef<'_>,
) {
    o.key("entity").str(opinion.entity_name);
    o.key("negative_statements")
        .u64(opinion.negative_statements);
    o.key("positive").bool(opinion.positive);
    o.key("positive_statements")
        .u64(opinion.positive_statements);
    o.key("probability").f64(opinion.probability);
    o.key("property").display(property);
    o.key("type").str(type_name);
}

/// `/decide`'s reply.
fn decide_reply(type_name: &str, property: &Property, opinion: &OpinionRef<'_>) -> Response {
    Response::object(200, |o| opinion_members(o, type_name, property, opinion))
}

/// `/entity`'s reply: the first `k` of `hits`, each a type name, a
/// property and the opinion stored under them.
fn entity_reply<'a>(
    entity: &str,
    k: usize,
    hits: impl ExactSizeIterator<Item = (&'a str, &'a Property, &'a OpinionRef<'a>)>,
) -> Response {
    // About what one opinion's members take, so the body is sized once.
    let capacity = 64 + 320 * hits.len();
    Response::object_with_capacity(200, capacity, |o| {
        o.key("entity").str(entity);
        o.key("k").u64(k as u64);
        o.key("properties").array(|a| {
            for (type_name, property, opinion) in hits {
                (a.element()).object(|o| opinion_members(o, type_name, property, opinion));
            }
        });
    })
}

/// `/readyz`'s reply.
fn ready_reply(
    epoch: u64,
    generation: u64,
    source: &str,
    snapshot_bytes: u64,
    associations: usize,
    store_bytes: usize,
) -> Response {
    Response::object(200, |o| {
        o.key("associations").u64(associations as u64);
        o.key("epoch").u64(epoch);
        o.key("generation").u64(generation);
        o.key("ready").bool(true);
        o.key("snapshot_bytes").u64(snapshot_bytes);
        o.key("source").str(source);
        o.key("store_bytes").u64(store_bytes as u64);
    })
}

/// `/model`'s reply: a block's fitted parameters, `(pA, np+S, np−S)`.
fn model_reply(
    type_name: &str,
    property: &Property,
    (p_agree, rate_pos, rate_neg): (f64, f64, f64),
    decided_entities: usize,
) -> Response {
    Response::object(200, |o| {
        o.key("decided_entities").u64(decided_entities as u64);
        o.key("p_agree").f64(p_agree);
        o.key("property").display(property);
        o.key("rate_neg").f64(rate_neg);
        o.key("rate_pos").f64(rate_pos);
        o.key("type").str(type_name);
    })
}

/// `/evidence`'s reply.
fn evidence_reply(type_name: &str, property: &Property, opinion: &OpinionRef<'_>) -> Response {
    Response::object(200, |o| {
        o.key("entity").str(opinion.entity_name);
        o.key("negative_statements")
            .u64(opinion.negative_statements);
        o.key("positive_statements")
            .u64(opinion.positive_statements);
        o.key("property").display(property);
        o.key("supporting_documents").array(|a| {
            for &document in opinion.supporting_documents {
                a.element().u64(document);
            }
        });
        o.key("type").str(type_name);
    })
}

/// `/ctl/reload`'s reply when the candidate was swapped in.
fn reloaded_reply(
    generation: u64,
    source: &str,
    associations: usize,
    store_bytes: usize,
) -> Response {
    Response::object(200, |o| {
        o.key("associations").u64(associations as u64);
        o.key("generation").u64(generation);
        o.key("reloaded").bool(true);
        o.key("source").str(source);
        o.key("store_bytes").u64(store_bytes as u64);
    })
}

/// `/ctl/reload`'s reply when the candidate was refused.
fn reload_rejected_reply(error: impl Display, serving_generation: u64) -> Response {
    Response::object(422, |o| {
        o.key("error").display(error);
        o.key("reloaded").bool(false);
        o.key("serving_generation").u64(serving_generation);
    })
}

/// `/ctl/shutdown`'s reply.
fn shutting_down_reply() -> Response {
    Response::object(200, |o| o.key("shutting_down").bool(true))
}

/// `/ctl/stall`'s reply.
fn stalled_reply(ms: u64) -> Response {
    Response::object(200, |o| o.key("stalled_ms").u64(ms))
}

/// Dispatches one parsed request.
pub fn route(req: &Request, ctx: &mut RouteContext<'_>) -> RouteOutcome {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => RouteOutcome::reply(Response::text(200, "ok")),
        (Method::Get, ["readyz"]) => {
            let epoch = ctx.shared.epoch();
            let state = ctx.cache.get(ctx.shared);
            RouteOutcome::reply(ready_reply(
                epoch,
                state.generation,
                &state.source,
                state.snapshot_bytes,
                state.store.len(),
                state.store.resident_bytes(),
            ))
        }
        (Method::Get, ["decide", entity, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(Response::error(400, "unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.find_opinion(entity, &property) {
                Some((block, opinion)) => {
                    RouteOutcome::reply(decide_reply(block.type_name, block.property, &opinion))
                }
                None => RouteOutcome::reply(Response::error(
                    404,
                    "no stored opinion for entity/property",
                )),
            }
        }
        (Method::Get, ["entity", entity]) => {
            let k = match req.query_param("k") {
                None => 10,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(k) if k >= 1 => k.min(MAX_TOP_K),
                    _ => {
                        return RouteOutcome::reply(Response::error(
                            400,
                            "k must be a positive integer",
                        ))
                    }
                },
            };
            let state = ctx.cache.get(ctx.shared);
            let hits = state.store.opinions_of_entity(entity);
            if hits.is_empty() {
                return RouteOutcome::reply(Response::error(404, "unknown entity"));
            }
            let top = (hits.iter().take(k)).map(|(b, o)| (b.type_name, b.property, o));
            RouteOutcome::reply(entity_reply(entity, k, top))
        }
        (Method::Get, ["model", type_name, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(Response::error(400, "unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.combination(type_name, &property) {
                Some(block) => RouteOutcome::reply(model_reply(
                    block.type_name,
                    block.property,
                    (block.p_agree, block.rate_pos, block.rate_neg),
                    block.len(),
                )),
                None => RouteOutcome::reply(Response::error(404, "no model for type/property")),
            }
        }
        (Method::Get, ["evidence", entity, property]) => {
            let Some(property) = Property::parse(property) else {
                return RouteOutcome::reply(Response::error(400, "unparseable property"));
            };
            let state = ctx.cache.get(ctx.shared);
            match state.store.find_opinion(entity, &property) {
                Some((block, opinion)) => {
                    RouteOutcome::reply(evidence_reply(block.type_name, block.property, &opinion))
                }
                None => {
                    RouteOutcome::reply(Response::error(404, "no evidence for entity/property"))
                }
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
            response: shutting_down_reply(),
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
            RouteOutcome::reply(stalled_reply(ms))
        }
        (Method::Post, _) => {
            RouteOutcome::reply(Response::error(405, "POST is only accepted on /ctl routes"))
        }
        (Method::Get, _) => RouteOutcome::reply(Response::error(404, "unknown route")),
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
        return Response::error(400, "reload requires a ?path= query parameter");
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            ctx.metrics.reload_rejected.inc();
            return Response::error(400, format_args!("cannot read snapshot file: {}", e.kind()));
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
            reloaded_reply(
                state.generation,
                &state.source,
                state.store.len(),
                store_bytes,
            )
        }
        Err(e) => {
            ctx.metrics.reload_rejected.inc();
            reload_rejected_reply(e, current_generation)
        }
    }
}

#[cfg(test)]
mod tests {
    //! Every body shape the routes write, against the text
    //! `serde_json::to_string_pretty` makes of the same values as a
    //! `json!` tree: the bodies the server sent when it built such trees.
    //! Both print through one `JsonWriter`, so these tests check each
    //! body's members, their values and their key order; the escapes and
    //! float forms themselves are pinned by `serde_json`'s own tests.

    use super::*;
    use serde_json::{json, Value};
    use surveyor::kb::EntityId;

    /// Strings that take every escape, none, or several characters.
    const STRINGS: [&str; 10] = [
        "\"",
        "\\",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "très grand ぴかぴか",
        "",
        "a\"b\\c\nd\re\tf\u{0}g\u{7f}h\u{1}",
        "Los Angeles",
        "\u{2028}\u{10ffff}",
    ];

    /// Floats at the edges of the two print forms and past them.
    const FLOATS: [f64; 14] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        5e-324,
        1e-300,
        0.000004526531174919894,
        0.9999999985758194,
        1e16,
        1e17,
        -123456.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    static DOCUMENTS: [u64; 4] = [0, 4294967297, 12884901890, u64::MAX];

    fn assert_body(reply: Response, tree: Value) {
        let want = serde_json::to_string_pretty(&tree).unwrap();
        assert_eq!(String::from_utf8(reply.body).unwrap(), want);
        assert_eq!(reply.content_type, "application/json");
    }

    /// The cases: each string beside each float, a property built from the
    /// string (bare, and behind two adverbs), and an opinion of both.
    fn each_case(mut check: impl FnMut(&'static str, &Property, &OpinionRef<'static>)) {
        for (i, &text) in STRINGS.iter().enumerate() {
            for (j, &probability) in FLOATS.iter().enumerate() {
                let property = if j % 2 == 0 {
                    Property::adjective(text)
                } else {
                    Property::with_adverbs(&[text, "very"], "big")
                };
                let opinion = OpinionRef {
                    entity: EntityId(i as u32),
                    entity_name: STRINGS[(i + j) % STRINGS.len()],
                    positive: j % 3 == 0,
                    probability,
                    positive_statements: [0, 7, u64::MAX][j % 3],
                    negative_statements: [u64::MAX, 0, 18][i % 3],
                    supporting_documents: &DOCUMENTS[..(i + j) % (DOCUMENTS.len() + 1)],
                };
                check(text, &property, &opinion);
            }
        }
    }

    fn opinion_tree(type_name: &str, property: &Property, opinion: &OpinionRef<'_>) -> Value {
        json!({
            "entity": opinion.entity_name,
            "type": type_name,
            "property": property.to_string(),
            "positive": opinion.positive,
            "probability": opinion.probability,
            "positive_statements": opinion.positive_statements,
            "negative_statements": opinion.negative_statements,
        })
    }

    #[test]
    fn decide_and_evidence_bodies_are_the_trees_text() {
        each_case(|type_name, property, opinion| {
            assert_body(
                decide_reply(type_name, property, opinion),
                opinion_tree(type_name, property, opinion),
            );
            assert_body(
                evidence_reply(type_name, property, opinion),
                json!({
                    "entity": opinion.entity_name,
                    "type": type_name,
                    "property": property.to_string(),
                    "positive_statements": opinion.positive_statements,
                    "negative_statements": opinion.negative_statements,
                    "supporting_documents": opinion.supporting_documents,
                }),
            );
        });
    }

    #[test]
    fn entity_bodies_with_k_properties_are_the_trees_text() {
        let mut cases = Vec::new();
        each_case(|type_name, property, opinion| {
            cases.push((type_name.to_owned(), property.clone(), *opinion));
        });
        for k in [1, 2, 5, 17] {
            for (start, (entity, ..)) in cases.iter().enumerate().step_by(7) {
                let hits = &cases[start..(start + k).min(cases.len())];
                let reply =
                    entity_reply(entity, k, hits.iter().map(|(t, p, o)| (t.as_str(), p, o)));
                let properties: Vec<Value> = (hits.iter())
                    .map(|(t, p, o)| opinion_tree(t, p, o))
                    .collect();
                assert_body(
                    reply,
                    json!({ "entity": entity, "k": k, "properties": properties }),
                );
            }
        }
    }

    #[test]
    fn model_bodies_are_the_trees_text() {
        each_case(|type_name, property, opinion| {
            let p = opinion.probability;
            for (params, decided) in [((p, 1.5, p), 0), ((0.86, p, 1e17), 3)] {
                assert_body(
                    model_reply(type_name, property, params, decided),
                    json!({
                        "type": type_name,
                        "property": property.to_string(),
                        "p_agree": params.0,
                        "rate_pos": params.1,
                        "rate_neg": params.2,
                        "decided_entities": decided,
                    }),
                );
            }
        });
    }

    #[test]
    fn control_and_readiness_bodies_are_the_trees_text() {
        for (i, &text) in STRINGS.iter().enumerate() {
            let (n, big) = (i as u64, u64::MAX - i as u64);
            assert_body(
                ready_reply(n, big, text, 234 + n, i, 1 << i),
                json!({
                    "ready": true,
                    "generation": big,
                    "epoch": n,
                    "source": text,
                    "snapshot_bytes": 234 + n,
                    "associations": i,
                    "store_bytes": 1usize << i,
                }),
            );
            assert_body(
                reloaded_reply(big, text, i, 7 * i),
                json!({
                    "reloaded": true,
                    "generation": big,
                    "source": text,
                    "associations": i,
                    "store_bytes": 7 * i,
                }),
            );
            assert_body(
                reload_rejected_reply(text, n),
                json!({
                    "reloaded": false,
                    "error": text,
                    "serving_generation": n,
                }),
            );
            assert_body(stalled_reply(big), json!({ "stalled_ms": big }));
        }
        assert_body(shutting_down_reply(), json!({ "shutting_down": true }));
        let shed = Response::shed(1);
        assert_eq!(shed.retry_after, Some(1));
        assert_body(
            shed,
            json!({
                "error": "server overloaded; request shed",
                "retry_after_seconds": 1,
            }),
        );
    }

    #[test]
    fn error_bodies_are_the_trees_text() {
        use crate::http::HttpError;
        let http_errors = [
            HttpError::TooLarge,
            HttpError::Malformed("head is not UTF-8"),
            HttpError::Expired,
        ];
        let details = (STRINGS.iter().map(|s| s.to_string()))
            .chain(http_errors.iter().map(HttpError::to_string))
            .chain(["deadline expired in queue".to_owned()]);
        for (detail, status) in details.zip([400, 404, 405, 408, 422, 431, 500].into_iter().cycle())
        {
            let reply = Response::error(status, &detail);
            assert_eq!(reply.status, status);
            assert_body(reply, json!({ "error": detail }));
        }
    }
}
