//! The server proper: listener, bounded queue, worker pool, shutdown.
//!
//! Threading model — one accept thread plus `workers` request threads:
//!
//! ```text
//!   accept thread ──try_push──▶ BoundedQueue ──pop──▶ worker × N
//!        │ (full → 503+Retry-After, written inline)        │
//!        │                                                  ├─ catch_unwind per connection
//!        └── shutdown nudge ◀──── /ctl/shutdown ────────────┘
//! ```
//!
//! Every accepted connection is stamped with a [`Deadline`] *at accept
//! time*, so time spent waiting in the queue counts against the budget —
//! under overload a request times out honestly instead of being served
//! stale. Workers wrap each connection in `catch_unwind`; a panicking
//! request costs one `500`, never the process. Graceful shutdown closes
//! the queue (draining queued work), unblocks the accept thread with a
//! loopback "nudge" connection, and joins every thread.

use crate::deadline::Deadline;
use crate::http::{parse_head, read_head, HttpError, Response};
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::routes::{route, ControlAction, RouteContext};
use crate::state::{ServedState, SharedState, StateCache};
use serde_json::json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use surveyor_obs::MetricsRegistry;

/// Tunable knobs. The defaults suit tests and the smoke gate; the CLI
/// exposes the ones operators care about.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Bounded queue capacity — the load-shedding threshold.
    pub queue_capacity: usize,
    /// Per-request budget, stamped at accept.
    pub request_budget: Duration,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_seconds: u32,
    /// Enables `/ctl/panic` and `/ctl/stall` (tests and chaos benches).
    pub debug_routes: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            request_budget: Duration::from_secs(2),
            retry_after_seconds: 1,
            debug_routes: false,
        }
    }
}

/// One accepted connection traveling accept → queue → worker.
#[derive(Debug)]
struct Job {
    stream: TcpStream,
    deadline: Deadline,
}

/// The shutdown latch. `trigger` is idempotent; the first call also
/// opens a throwaway loopback connection so a blocking `accept()`
/// returns and observes the flag.
#[derive(Debug)]
struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownSignal {
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
    }

    fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or POST `/ctl/shutdown` and then
/// [`ServerHandle::join`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    signal: Arc<ShutdownSignal>,
    shared: Arc<SharedState>,
    metrics: ServerMetrics,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric handles (and, through them, the registry).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The shared state slot (tests inspect generations through this).
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Triggers graceful shutdown and waits for every thread: queued
    /// requests drain, workers exit, the accept thread joins.
    pub fn shutdown(mut self) {
        self.signal.trigger();
        self.join_threads();
    }

    /// Blocks until the server stops on its own (a client POSTed
    /// `/ctl/shutdown`). This is the CLI `serve` foreground path.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Starts a server on `config` serving `initial`, reporting into
/// `registry`. Returns once the listener is bound and the threads are
/// running.
pub fn start(
    config: ServerConfig,
    initial: Arc<ServedState>,
    registry: Arc<MetricsRegistry>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = ServerMetrics::new(registry);
    metrics.store_resident_bytes(initial.store.resident_bytes());
    let shared = Arc::new(SharedState::new(initial));
    let signal = Arc::new(ShutdownSignal {
        flag: AtomicBool::new(false),
        addr,
    });
    let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(config.queue_capacity));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let queue = queue.clone();
        let shared = shared.clone();
        let metrics = metrics.clone();
        let signal = signal.clone();
        let debug_routes = config.debug_routes;
        let thread = std::thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || worker_loop(&queue, &shared, &metrics, &signal, debug_routes))?;
        workers.push(thread);
    }

    let accept_thread = {
        let queue = queue.clone();
        let metrics = metrics.clone();
        let signal = signal.clone();
        let budget = config.request_budget;
        let retry_after = config.retry_after_seconds;
        std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &queue, &metrics, &signal, budget, retry_after))?
    };

    Ok(ServerHandle {
        addr,
        signal,
        shared,
        metrics,
        accept_thread: Some(accept_thread),
        workers,
    })
}

fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<Job>,
    metrics: &ServerMetrics,
    signal: &ShutdownSignal,
    budget: Duration,
    retry_after: u32,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if signal.is_triggered() {
                    // The nudge connection (or a client racing shutdown).
                    break;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the accept loop opens each request's deadline; every handler threads it"
                )]
                let deadline = Deadline::starting_now(budget);
                if let Err(refused) = queue.try_push(Job { stream, deadline }) {
                    // Shed inline: the 503 costs the accept thread one
                    // tiny buffered write, and the client learns to back
                    // off immediately instead of waiting for a timeout.
                    metrics.shed.inc();
                    let Job {
                        mut stream,
                        deadline,
                    } = refused.into_inner();
                    // Drain what the client already sent before answering:
                    // closing a socket with unread inbound data resets the
                    // connection, and the 503 would be lost in flight. One
                    // short bounded read clears the common case (the whole
                    // head is already queued on loopback) without letting
                    // a slow client wedge the accept thread.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(2)));
                    let mut scratch = [0u8; 4096];
                    let _ = std::io::Read::read(&mut stream, &mut scratch);
                    let response = Response::shed(retry_after);
                    if response.write_to(&mut stream, &deadline).is_ok() {
                        metrics.count_response(response.status);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if signal.is_triggered() {
                    break;
                }
                // Transient accept failure (e.g. EMFILE under churn):
                // back off briefly rather than spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    queue.close();
}

fn worker_loop(
    queue: &BoundedQueue<Job>,
    shared: &SharedState,
    metrics: &ServerMetrics,
    signal: &ShutdownSignal,
    debug_routes: bool,
) {
    while let Some(job) = queue.pop() {
        let Job {
            mut stream,
            deadline,
        } = job;
        // Scoped to the job, not the worker: an idle worker holds no
        // state, so a replaced snapshot is freed by the last request on
        // it rather than by each worker's next one. One uncontended lock
        // and an `Arc` clone per request.
        let mut cache = StateCache::new(shared);
        metrics.requests.inc();
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_one(
                &mut stream,
                &deadline,
                shared,
                &mut cache,
                metrics,
                debug_routes,
            )
        }));
        metrics.observe_latency(deadline.elapsed().as_secs_f64());
        match served {
            Ok(ControlAction::Shutdown) => signal.trigger(),
            Ok(ControlAction::None) => {}
            Err(_) => {
                // The request panicked; the process did not. Best-effort
                // 500 so the client is not left hanging.
                metrics.panics.inc();
                let response =
                    Response::json(500, &json!({ "error": "internal panic; request isolated" }));
                if response.write_to(&mut stream, &deadline).is_ok() {
                    metrics.count_response(response.status);
                }
            }
        }
        // Close before `cache` goes: when this request held the last
        // reference to a replaced snapshot, freeing it must not keep the
        // client's connection open.
        drop(stream);
    }
}

/// Serves one connection end to end: read head under deadline, parse,
/// route, write. Returns the route's control action.
fn serve_one(
    stream: &mut TcpStream,
    deadline: &Deadline,
    shared: &SharedState,
    cache: &mut StateCache,
    metrics: &ServerMetrics,
    debug_routes: bool,
) -> ControlAction {
    let request = match read_head(stream, deadline).and_then(|head| parse_head(&head)) {
        Ok(request) => request,
        Err(e) => {
            let response = match &e {
                HttpError::TooLarge => {
                    metrics.malformed.inc();
                    Some(Response::json(431, &json!({ "error": e.to_string() })))
                }
                HttpError::Malformed(_) => {
                    metrics.malformed.inc();
                    Some(Response::json(400, &json!({ "error": e.to_string() })))
                }
                HttpError::Expired => {
                    metrics.deadline_expired.inc();
                    Some(Response::json(408, &json!({ "error": e.to_string() })))
                }
                HttpError::Disconnected | HttpError::Io(_) => {
                    metrics.disconnects.inc();
                    None // nobody is listening; close cleanly
                }
            };
            if let Some(response) = response {
                if response.write_to(stream, deadline).is_ok() {
                    metrics.count_response(response.status);
                }
            }
            return ControlAction::None;
        }
    };

    // The budget covers routing too: a request that spent its budget in
    // the queue gets an honest 408 instead of a stale answer.
    if deadline.expired() {
        metrics.deadline_expired.inc();
        let response = Response::json(408, &json!({ "error": "deadline expired in queue" }));
        if response.write_to(stream, deadline).is_ok() {
            metrics.count_response(response.status);
        }
        return ControlAction::None;
    }

    let mut ctx = RouteContext {
        shared,
        cache,
        metrics,
        debug_routes,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "feeds the route-time histogram only, never the response"
    )]
    let routing = Instant::now();
    let outcome = route(&request, &mut ctx);
    metrics.observe_route(routing.elapsed().as_secs_f64());
    if outcome.response.write_to(stream, deadline).is_ok() {
        metrics.count_response(outcome.response.status);
    } else {
        metrics.disconnects.inc();
    }
    outcome.action
}
