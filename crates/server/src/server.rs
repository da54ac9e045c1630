//! The server proper: listener, bounded queue, worker pool, shutdown.
//!
//! Threading model — one accept thread plus `workers` request threads:
//!
//! ```text
//!   accept thread ──try_push──▶ BoundedQueue ──pop──▶ worker × N
//!        │ (full → 503+Retry-After, written inline)     │  serves its connection
//!        │                                               │  request after request
//!        │ queued and no worker free:                    │  while no connection waits
//!        ├─ wake one ──▶ IdleConnections ◀── enter/leave ┤  (idle: blocked in read)
//!        │                                               ├─ catch_unwind per request
//!        └── shutdown nudge ◀──── /ctl/shutdown ─────────┘
//! ```
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a worker keeps the
//! connection it popped and reads its next request, and goes back to the
//! queue only when the connection closes. A reply keeps the connection
//! only when the request was a bodiless HTTP/1.1 one without
//! `Connection: close` ([`crate::http::persistent`]), the reply is a
//! routed one (not a 400/408/431/500 of the HTTP layer), the server is
//! not shutting down, and **no queued connection waits for a worker as
//! the reply is rendered**. Between requests the worker blocks in a
//! `read` into the connection's buffer, with its connection published in
//! `IdleConnections`; the head framer then finds the next head already
//! read. When the accept thread queues a connection that no free worker
//! will take, it shuts one published connection down for reading, so
//! that worker's read returns at once and the worker drops what it read
//! and closes the connection; shutdown wakes every published one the
//! same way. An idle connection also closes after one request budget. So
//! a kept-alive reader holds a worker only while nobody else waits: with
//! every worker held, a new connection (a `/readyz`, a `/ctl/reload`)
//! waits at most one request's service time. Every close the worker
//! makes is `close_connection`'s: the peer reads EOF after the last
//! reply, never a reset.
//!
//! A kept request whose head arrives whole costs one `read` and one
//! `write`. The connection ([`Connection`]) sets a socket timeout again
//! only when it changes: the idle read's is one budget, and the reply's
//! send timeout is set again only when it is more than
//! [`crate::http::WRITE_TIMEOUT_SLACK`] from the request's write window.
//! A route writes its JSON body straight into text
//! ([`serde_json::JsonWriter`]); the worker renders head and body into
//! one buffer it keeps for every reply and sends it in one `write_all`.
//!
//! Every accepted connection is stamped with a [`Deadline`] *at accept
//! time*, so time spent waiting in the queue counts against its first
//! request's budget — under overload a request times out honestly instead
//! of being served stale. A later request's budget starts when its first
//! byte arrives. Workers wrap each request in `catch_unwind`; a panicking
//! request costs one `500` and its connection, never the process.
//! Graceful shutdown closes the queue (draining queued work), unblocks
//! the accept thread with a loopback "nudge" connection, and joins every
//! thread.

use crate::deadline::Deadline;
use crate::http::{parse_head, persistent, Connection, HttpError, Response};
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::routes::{route, ControlAction, RouteContext};
use crate::state::{ServedState, SharedState, StateCache};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use surveyor_obs::MetricsRegistry;

/// `Retry-After` seconds on shed responses.
const RETRY_AFTER_SECONDS: u32 = 1;

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
    /// Per-request budget, stamped at accept for a connection's first
    /// request; also how long a kept connection may sit idle.
    pub request_budget: Duration,
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

/// The kept connections whose workers wait for a next request, each a
/// clone of the socket its worker blocks on in `read`, with the worker's
/// index. Shutting a socket down for reading ends that `read` at once
/// (it reads EOF): that is how a queued connection or a shutdown takes a
/// worker back without the worker polling.
#[derive(Debug, Default)]
struct IdleConnections {
    waiting: Mutex<Vec<(usize, Arc<TcpStream>)>>,
}

impl IdleConnections {
    /// The list, locked; poisoning is survived, as in the queue: the list
    /// is valid after any partial operation.
    #[expect(
        clippy::disallowed_methods,
        reason = "the idle-connection list, between the accept loop and the request workers, off the mining path"
    )]
    fn lock(&self) -> MutexGuard<'_, Vec<(usize, Arc<TcpStream>)>> {
        self.waiting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `worker`'s idle connection.
    fn enter(&self, worker: usize, stream: &Arc<TcpStream>) {
        self.lock().push((worker, Arc::clone(stream)));
    }

    /// Withdraws `worker`'s connection; `false` when another thread woke
    /// it first.
    fn leave(&self, worker: usize) -> bool {
        let mut waiting = self.lock();
        let Some(at) = waiting.iter().position(|(w, _)| *w == worker) else {
            return false;
        };
        waiting.remove(at);
        true
    }

    /// Wakes the worker idle the longest, if any.
    fn wake_one(&self) {
        let woken = {
            let mut waiting = self.lock();
            (!waiting.is_empty()).then(|| waiting.remove(0))
        };
        if let Some((_, stream)) = woken {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Wakes every idle worker.
    fn wake_all(&self) {
        for (_, stream) in std::mem::take(&mut *self.lock()) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// The shutdown latch. `trigger` is idempotent; the first call wakes
/// every worker idle on a kept connection and opens a throwaway loopback
/// connection so a blocking `accept()` returns and observes the flag.
#[derive(Debug)]
struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
    idle: IdleConnections,
}

impl ShutdownSignal {
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            self.idle.wake_all();
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
        idle: IdleConnections::default(),
    });
    let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(config.queue_capacity));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let worker = Worker {
            id: i,
            queue: queue.clone(),
            shared: shared.clone(),
            metrics: metrics.clone(),
            signal: signal.clone(),
            budget: config.request_budget,
            debug_routes: config.debug_routes,
        };
        let thread = std::thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || worker.run())?;
        workers.push(thread);
    }

    let accept_thread = {
        let queue = queue.clone();
        let metrics = metrics.clone();
        let signal = signal.clone();
        let budget = config.request_budget;
        std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &queue, &metrics, &signal, budget))?
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
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if signal.is_triggered() {
                    // The nudge connection (or a client racing shutdown).
                    break;
                }
                let deadline = open_deadline(budget);
                let pushed = queue.try_push(Job { stream, deadline });
                if pushed.is_ok() && queue.unclaimed() > 0 {
                    // Every worker is busy: take one back from an idle
                    // kept connection, if one is idle.
                    signal.idle.wake_one();
                }
                if let Err(refused) = pushed {
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
                    let mut conn = Connection::new(stream);
                    let response = Response::shed(RETRY_AFTER_SECONDS);
                    if (response.write_to(&mut conn, &deadline, false, &mut Vec::new())).is_ok() {
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

/// A budget opened now: a request's, at accept for a connection's first
/// request and at its first byte for each later one, or a closing
/// connection's [`LINGER`].
#[expect(
    clippy::disallowed_methods,
    reason = "the accept loop and the workers open each request's deadline; every handler threads it"
)]
fn open_deadline(budget: Duration) -> Deadline {
    Deadline::starting_now(budget)
}

/// How long [`close_connection`] waits for the peer to close its side.
const LINGER: Duration = Duration::from_millis(5);

/// Closes a connection so that its peer reads the last reply and then
/// EOF, never a reset. A socket closed with unread bytes in it answers
/// them with a reset, which can destroy a reply the peer has not read
/// yet: a request body, a pipelined request, or a request sent just as an
/// idle connection was taken back. So the write side goes first (the FIN
/// follows the last reply), and whatever the peer has sent, or sends
/// within [`LINGER`], is read and dropped until it closes its side too.
/// A connection woken for reading ([`IdleConnections`]) reads EOF as
/// soon as it is drained, so it does not linger.
fn close_connection(mut stream: TcpStream) {
    // A second shutdown of the write side, when the caller shut it first,
    // does nothing.
    let _ = stream.shutdown(Shutdown::Write);
    let linger = open_deadline(LINGER);
    let mut scratch = [0u8; 4096];
    while let Some(left) = linger.remaining().filter(|left| !left.is_zero()) {
        if stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// What a worker does with a connection once a reply is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Wait for the connection's next request.
    KeepAlive,
    /// Close it and pop the next connection.
    Close,
    /// Close it and shut the server down (`/ctl/shutdown`).
    Shutdown,
}

/// One request thread and what it shares with the others.
struct Worker {
    /// Its index, which marks its entry in [`IdleConnections`].
    id: usize,
    queue: Arc<BoundedQueue<Job>>,
    shared: Arc<SharedState>,
    metrics: ServerMetrics,
    signal: Arc<ShutdownSignal>,
    budget: Duration,
    debug_routes: bool,
}

impl Worker {
    fn run(&self) {
        // Every reply this worker sends is rendered here, head and body,
        // and sent in one write.
        let mut reply = Vec::new();
        while let Some(Job { stream, deadline }) = self.queue.pop() {
            self.metrics.connections.inc();
            self.serve_connection(stream, deadline, &mut reply);
        }
    }

    /// Serves `stream` request after request until it closes.
    fn serve_connection(&self, stream: TcpStream, mut deadline: Deadline, reply: &mut Vec<u8>) {
        // Each reply is one write, so Nagle's algorithm saves nothing; with
        // it, a reply written while the one before is still unacknowledged
        // (a pipelined request) would wait out the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut conn = Connection::new(stream);
        // A clone of the socket for `IdleConnections`, made at the first
        // idle wait.
        let mut waker = None;
        loop {
            // Scoped to the request, not the connection: an idle kept
            // connection holds no state, so a replaced snapshot is freed
            // by the last request on it rather than by the next one. One
            // uncontended lock and an `Arc` clone per request.
            let mut cache = StateCache::new(&self.shared);
            self.metrics.requests.inc();
            let served = catch_unwind(AssertUnwindSafe(|| {
                self.serve_one(&mut conn, &deadline, &mut cache, reply)
            }));
            self.metrics
                .observe_latency(deadline.elapsed().as_secs_f64());
            let next = served.unwrap_or_else(|_| {
                // The request panicked; the process did not. Best-effort
                // 500 so the client is not left hanging.
                self.metrics.panics.inc();
                let response = Response::error(500, "internal panic; request isolated");
                if (response.write_to(&mut conn, &deadline, false, reply)).is_ok() {
                    self.metrics.count_response(response.status);
                }
                Next::Close
            });
            if next == Next::Shutdown {
                self.signal.trigger();
            }
            if next != Next::KeepAlive {
                // The FIN goes out before `cache` goes: when this request
                // held the last reference to a replaced snapshot, freeing
                // it must not hold back the client's EOF, and the linger
                // must not hold the snapshot.
                let _ = conn.stream().shutdown(Shutdown::Write);
                drop(cache);
                drop(waker);
                close_connection(conn.into_stream());
                return;
            }
            drop(cache);
            match self.await_request(&mut conn, &mut waker) {
                Some(next_deadline) => deadline = next_deadline,
                None => {
                    drop(waker);
                    close_connection(conn.into_stream());
                    return;
                }
            }
        }
    }

    /// Waits on an idle kept connection for its next request, reading
    /// what arrives first into the connection's buffer, and opens that
    /// request's deadline when it is there. `None` closes the connection:
    /// the peer closed it or failed, another connection waits for a
    /// worker, the server is shutting down, or it sat idle for a budget.
    fn await_request(
        &self,
        conn: &mut Connection,
        waker: &mut Option<Arc<TcpStream>>,
    ) -> Option<Deadline> {
        if conn.has_buffered() {
            // A pipelined request: its first byte is already here.
            return Some(open_deadline(self.budget));
        }
        let waker = match waker {
            Some(waker) => waker,
            None => waker.insert(Arc::new(conn.stream().try_clone().ok()?)),
        };
        let idle = &self.signal.idle;
        idle.enter(self.id, waker);
        // Published before this look, so a connection queued or a
        // shutdown begun after it wakes the read below.
        if self.signal.is_triggered() || self.queue.unclaimed() > 0 {
            idle.leave(self.id);
            return None;
        }
        let read = loop {
            match conn.fill(self.budget) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => break read,
            }
        };
        // A timeout (idle for a budget), EOF, an error or a wake-up all
        // close; what was read is served only if nobody woke the worker
        // first. A woken worker drops it: it was read, so closing leaves
        // nothing unread to answer with a reset.
        let woken = !idle.leave(self.id);
        match read {
            Ok(n) if n > 0 && !woken => Some(open_deadline(self.budget)),
            _ => None,
        }
    }

    /// Serves one request end to end: read head under deadline, parse,
    /// route, write. Returns what to do with the connection next.
    fn serve_one(
        &self,
        conn: &mut Connection,
        deadline: &Deadline,
        cache: &mut StateCache,
        reply: &mut Vec<u8>,
    ) -> Next {
        let metrics = &self.metrics;
        let parsed =
            (conn.read_head(deadline)).and_then(|head| Ok((parse_head(&head)?, persistent(&head))));
        let (request, persistent) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                let response = match &e {
                    HttpError::TooLarge => {
                        metrics.malformed.inc();
                        Some(Response::error(431, &e))
                    }
                    HttpError::Malformed(_) => {
                        metrics.malformed.inc();
                        Some(Response::error(400, &e))
                    }
                    HttpError::Expired => {
                        metrics.deadline_expired.inc();
                        Some(Response::error(408, &e))
                    }
                    HttpError::Disconnected | HttpError::Io(_) => {
                        metrics.disconnects.inc();
                        None // nobody is listening; close cleanly
                    }
                };
                if let Some(response) = response {
                    if (response.write_to(conn, deadline, false, reply)).is_ok() {
                        metrics.count_response(response.status);
                    }
                }
                return Next::Close;
            }
        };

        // The budget covers routing too: a request that spent its budget in
        // the queue gets an honest 408 instead of a stale answer.
        if deadline.expired() {
            metrics.deadline_expired.inc();
            let response = Response::error(408, "deadline expired in queue");
            if (response.write_to(conn, deadline, false, reply)).is_ok() {
                metrics.count_response(response.status);
            }
            return Next::Close;
        }

        let mut ctx = RouteContext {
            shared: &self.shared,
            cache,
            metrics,
            debug_routes: self.debug_routes,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the route-time histogram only, never the response"
        )]
        let routing = Instant::now();
        let outcome = route(&request, &mut ctx);
        metrics.observe_route(routing.elapsed().as_secs_f64());
        let next = match outcome.action {
            ControlAction::Shutdown => Next::Shutdown,
            ControlAction::None
                if persistent && !self.signal.is_triggered() && self.queue.unclaimed() == 0 =>
            {
                Next::KeepAlive
            }
            ControlAction::None => Next::Close,
        };
        let keep_alive = next == Next::KeepAlive;
        if (outcome.response)
            .write_to(conn, deadline, keep_alive, reply)
            .is_ok()
        {
            metrics.count_response(outcome.response.status);
        } else {
            metrics.disconnects.inc();
            if keep_alive {
                return Next::Close;
            }
        }
        next
    }
}
