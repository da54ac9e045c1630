//! `surveyor-server`: a fault-hardened HTTP/1.1 query server over a
//! `surveyor-wire` decision-index snapshot.
//!
//! The paper's deliverable is a queryable index of subjective verdicts;
//! this crate is the serving half of that promise. The routing is thin —
//! the engineering is the robustness envelope:
//!
//! - **Deadlines** ([`Deadline`]): every request carries a monotonic
//!   budget — stamped at accept for a connection's first request, at its
//!   first byte for a later one — threaded through head reading, routing,
//!   and response writing as socket timeouts.
//! - **Keep-alive**: a worker serves its connection request after request
//!   while no other connection waits in the queue, so a reader never
//!   holds a worker another client needs.
//! - **Load shedding** ([`BoundedQueue`]): a fixed-capacity accept→worker
//!   queue; overload is answered with an immediate `503` + `Retry-After`,
//!   never with unbounded buffering.
//! - **Panic isolation**: each request runs under `catch_unwind`; a
//!   poisoned request costs one `500` and its connection, not the process.
//! - **Hot reload** ([`SharedState`]): replacement snapshots are fully
//!   validated *before* an atomic `Arc` swap; a corrupt candidate is
//!   rejected with the old index still serving.
//! - **Graceful shutdown**: `/ctl/shutdown` drains queued requests and
//!   joins every thread before the process exits.
//!
//! The HTTP layer is hand-rolled over `std::net` so the whole serving
//! stack stays auditable and offline-buildable. Beyond `surveyor` and
//! `surveyor-obs`, the crate depends on the vendored `serde_json` alone,
//! for `JsonWriter`, which writes every reply body.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadline;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod routes;
pub mod server;
pub mod state;

pub use deadline::Deadline;
pub use http::{
    parse_head, percent_encode, HttpError, Method, Request, Response, MAX_HEADERS, MAX_HEAD_BYTES,
};
pub use metrics::ServerMetrics;
pub use queue::{BoundedQueue, PushError};
pub use routes::{route, ControlAction, RouteContext, RouteOutcome};
pub use server::{start, ServerConfig, ServerHandle};
pub use state::{ServedState, SharedState, StateCache};
