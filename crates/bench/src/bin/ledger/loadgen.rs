//! The load generator: a seeded request mix with the answer each request
//! must get, a closed loop, an open loop on a fixed schedule with what its
//! replays add up to, and the rate ladder's stop rule.
//!
//! Every thread here owns one [`Client`], so threads and connections are
//! the same number, and the caller decides how many there are.

use crate::http::{request_bytes, Client};
use crate::layers::{percent_encode, StoredPair};
use crate::stats::{percentile, Rng, Zipf};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A reply slower than this, or none at all, is a failed request.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// How long before its due time a sender stops sleeping and spins: sleep
/// overshoots by some 50 microseconds, a spin does not. Kept short: a
/// spinning sender takes cycles from the server it shares two cores with.
const SPIN: Duration = Duration::from_micros(80);

/// What the server must answer, looked up by the request's own words.
/// Built from a snapshot's stored pairs the way the store resolves a
/// lookup: names compare without case, and when an entity carries a
/// property under several types the most confident one wins.
#[derive(Debug, Default)]
pub struct Answers {
    /// `(entity\x01property)`, lower-cased entity → verdict; sorted.
    decide: Vec<(String, bool)>,
    /// Lower-cased entity → stored opinions; sorted.
    entities: Vec<(String, i64)>,
    /// `(type\x01property)` → decided entities; sorted.
    models: Vec<(String, i64)>,
}

fn pair_key(a: &str, b: &str) -> String {
    format!("{}\u{1}{b}", a.to_ascii_lowercase())
}

fn lookup<T: Copy>(sorted: &[(String, T)], key: &str) -> Option<T> {
    sorted
        .binary_search_by(|(k, _)| k.as_str().cmp(key))
        .ok()
        .map(|i| sorted[i].1)
}

fn count_runs(mut keys: Vec<String>) -> Vec<(String, i64)> {
    keys.sort_unstable();
    let mut runs: Vec<(String, i64)> = Vec::new();
    for key in keys {
        match runs.last_mut() {
            Some((last, n)) if *last == key => *n += 1,
            _ => runs.push((key, 1)),
        }
    }
    runs
}

impl Answers {
    pub fn from_pairs(pairs: &[StoredPair]) -> Self {
        let mut ranked: Vec<(String, f64, &str, bool)> = pairs
            .iter()
            .map(|p| {
                let confidence = (p.probability - 0.5).abs();
                (
                    pair_key(&p.entity, &p.property),
                    confidence,
                    p.type_name.as_str(),
                    p.positive,
                )
            })
            .collect();
        ranked.sort_by(|a, b| {
            (a.0.as_str().cmp(b.0.as_str()))
                .then(b.1.total_cmp(&a.1))
                .then(a.2.cmp(b.2))
        });
        ranked.dedup_by(|later, first| later.0 == first.0);
        Self {
            decide: ranked.into_iter().map(|(k, _, _, p)| (k, p)).collect(),
            entities: count_runs(
                pairs
                    .iter()
                    .map(|p| p.entity.to_ascii_lowercase())
                    .collect(),
            ),
            models: count_runs(
                pairs
                    .iter()
                    .map(|p| format!("{}\u{1}{}", p.type_name, p.property))
                    .collect(),
            ),
        }
    }

    pub fn decide(&self, entity: &str, property: &str) -> Option<bool> {
        lookup(&self.decide, &pair_key(entity, property))
    }

    fn entity_opinions(&self, entity: &str) -> Option<i64> {
        lookup(&self.entities, &entity.to_ascii_lowercase())
    }

    fn model_size(&self, type_name: &str, property: &str) -> Option<i64> {
        lookup(&self.models, &format!("{type_name}\u{1}{property}"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Decide,
    Entity,
    Model,
    Absent,
    Health,
}

impl Kind {
    /// The span a traced in-process route of this kind is recorded under.
    pub fn route_span(self) -> &'static str {
        match self {
            Self::Decide | Self::Absent => "server.route_decide",
            Self::Entity => "server.route_entity",
            Self::Model | Self::Health => "server.route_other",
        }
    }
}

/// A reply reduced to what is checked: the status and one number from
/// the body (`NO_VALUE` where the body is not looked at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub status: u16,
    pub value: i64,
}

const NO_VALUE: i64 = -1;
const TOP_K: i64 = 10;

#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub wire: Vec<u8>,
    /// The right answer under each snapshot the server may hold.
    pub answers: Vec<Answer>,
}

fn found(value: Option<i64>) -> Answer {
    match value {
        Some(value) => Answer { status: 200, value },
        None => Answer {
            status: 404,
            value: NO_VALUE,
        },
    }
}

/// Draws `size` requests from `seed`: 85 % `/decide` on stored pairs with
/// Zipf(1.0) popularity, 5 % `/entity/E?k=10`, 5 % `/model/T/P`, 4 %
/// `/decide` on absent pairs, 1 % `/healthz`. `snapshots[0]` is what the
/// server boots on and where the targets come from; a request is right
/// when its reply matches any of `snapshots` (more than one during
/// reloads).
pub fn build_requests(
    pairs: &[StoredPair],
    snapshots: &[&Answers],
    seed: u64,
    size: usize,
) -> Vec<Request> {
    assert!(!pairs.is_empty(), "no stored pair to ask about");
    let mut rng = Rng::new(seed ^ 0x5e57_ab1e);
    let mut ranks: Vec<usize> = (0..pairs.len()).collect();
    rng.shuffle(&mut ranks);
    let zipf = Zipf::new(ranks.len(), 1.0);
    let answers = |f: &dyn Fn(&Answers) -> Answer| snapshots.iter().map(|s| f(s)).collect();
    (0..size)
        .map(|_| {
            let roll = rng.below(100);
            let pair = &pairs[ranks[zipf.sample(&mut rng)]];
            let entity = percent_encode(&pair.entity);
            let (kind, path, answers): (Kind, String, Vec<Answer>) = match roll {
                0..=84 => (
                    Kind::Decide,
                    format!("/decide/{entity}/{}", percent_encode(&pair.property)),
                    answers(&|s| found(s.decide(&pair.entity, &pair.property).map(i64::from))),
                ),
                85..=89 => (
                    Kind::Entity,
                    format!("/entity/{entity}?k={TOP_K}"),
                    answers(&|s| found(s.entity_opinions(&pair.entity).map(|n| n.min(TOP_K)))),
                ),
                90..=94 => {
                    let any = &pairs[rng.below(pairs.len())];
                    (
                        Kind::Model,
                        format!(
                            "/model/{}/{}",
                            percent_encode(&any.type_name),
                            percent_encode(&any.property)
                        ),
                        answers(&|s| found(s.model_size(&any.type_name, &any.property))),
                    )
                }
                95..=98 => (
                    Kind::Absent,
                    format!("/decide/{entity}/zzzunseen"),
                    answers(&|_| found(None)),
                ),
                _ => (
                    Kind::Health,
                    "/healthz".to_owned(),
                    answers(&|_| Answer {
                        status: 200,
                        value: 1,
                    }),
                ),
            };
            Request {
                kind,
                wire: request_bytes("GET", &path),
                answers,
            }
        })
        .collect()
}

/// Reduces a reply to the [`Answer`] it gives.
pub fn observe(kind: Kind, status: u16, body: &[u8]) -> Answer {
    let field = |read: &dyn Fn(&serde_json::Value) -> Option<i64>| {
        std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok())
            .and_then(|json| read(&json))
            // A 200 whose body cannot be read is a wrong answer, not an
            // unchecked one.
            .unwrap_or(i64::MIN)
    };
    let value = match (kind, status) {
        (Kind::Decide, 200) => {
            field(&|j| j.get("positive").and_then(|p| p.as_bool()).map(i64::from))
        }
        (Kind::Entity, 200) => field(&|j| {
            j.get("properties")
                .and_then(|p| p.as_array())
                .map(|p| p.len() as i64)
        }),
        (Kind::Model, 200) => field(&|j| {
            j.get("decided_entities")
                .and_then(|n| n.as_u64())
                .map(|n| n as i64)
        }),
        (Kind::Health, 200) => i64::from(body == b"ok"),
        _ => NO_VALUE,
    };
    Answer { status, value }
}

/// Requests attempted and failed, with the first failure kept for the
/// report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Sends `request`, checks the reply and returns when it was complete.
fn ask(client: &mut Client, request: &Request, tally: &mut Tally) -> Option<Instant> {
    tally.attempted += 1;
    match client.exchange(&request.wire) {
        Ok(reply) => {
            let got = observe(request.kind, reply.status, &reply.body);
            if request.answers.contains(&got) {
                return Some(reply.done);
            }
            tally.fail(|| {
                format!(
                    "{}: got {got:?}, expected one of {:?}",
                    String::from_utf8_lossy(&request.wire)
                        .lines()
                        .next()
                        .unwrap_or(""),
                    request.answers
                )
            });
        }
        Err(e) => tally.fail(|| format!("request failed: {e}")),
    }
    None
}

/// The host stalls a thread for tens of milliseconds now and then, and
/// slows down for seconds at a time. The closed loop's rate and the traced
/// run's percentiles are therefore taken per window of this length and the
/// best window is reported: a stall spoils the windows it falls in, not the
/// run.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One closed-loop caller: the next request goes out when the previous
/// reply is in. Returns the tally and the right replies it got in each
/// whole [`WINDOW`] of `length` from `start`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    offset: usize,
    start: Instant,
    length: Duration,
) -> (Tally, Vec<u64>) {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let mut tally = Tally::default();
    let mut right = vec![0; (length.as_secs_f64() / WINDOW.as_secs_f64()) as usize];
    let mut next = offset;
    while start.elapsed() < length {
        if let Some(done) = ask(&mut client, &requests[next % requests.len()], &mut tally) {
            let window = done.duration_since(start).as_secs_f64() / WINDOW.as_secs_f64();
            if let Some(count) = right.get_mut(window as usize) {
                *count += 1;
            }
        }
        next += 1;
    }
    (tally, right)
}

/// Arrival times of one sender among `senders` sharing a fixed rate:
/// arrival `i` of the whole schedule is due at `i / rate` and belongs to
/// sender `i % senders`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
    pub senders: usize,
    pub sender: usize,
}

impl Schedule {
    /// When this sender's `k`-th request is due, from the schedule's start.
    pub fn due(&self, k: u64) -> Duration {
        let arrival = k * self.senders as u64 + self.sender as u64;
        Duration::from_secs_f64(arrival as f64 / self.rate)
    }
}

/// What one open-loop sender measured, in microseconds, request by
/// request in the order they were due.
#[derive(Debug, Default)]
pub struct OpenSamples {
    /// Which arrival of the whole schedule each request was.
    pub arrival: Vec<usize>,
    /// When each request was due, in seconds from the schedule's start.
    pub due_s: Vec<f64>,
    /// Due time → reply complete; the timeout for a failed request.
    pub latency_us: Vec<f64>,
    /// Due time → request sent: how late the generator itself ran.
    pub lateness_us: Vec<f64>,
    pub tally: Tally,
}

impl OpenSamples {
    pub fn merge(&mut self, other: OpenSamples) {
        self.arrival.extend(other.arrival);
        self.due_s.extend(other.due_s);
        self.latency_us.extend(other.latency_us);
        self.lateness_us.extend(other.lateness_us);
        self.tally.merge(other.tally);
    }

    /// `values` (one per request) grouped by the [`WINDOW`] each request
    /// was due in.
    fn windows(&self, values: &[f64]) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (due, value) in self.due_s.iter().zip(values) {
            let window = (due / WINDOW.as_secs_f64()) as usize;
            if windows.len() <= window {
                windows.resize(window + 1, Vec::new());
            }
            windows[window].push(*value);
        }
        windows
    }

    /// The least over windows of each window's `p`-th percentile of
    /// latency from the due time. A window shorter than half the fullest
    /// (the last, cut off by the end of the phase) is left out.
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        best_window_percentile(self.windows(&self.latency_us), p)
    }

    /// The same for the generator's own lateness.
    pub fn lateness_percentile_us(&self, p: f64) -> f64 {
        best_window_percentile(self.windows(&self.lateness_us), p)
    }
}

fn best_window_percentile(mut windows: Vec<Vec<f64>>, p: f64) -> f64 {
    let fullest = windows.iter().map(Vec::len).max().unwrap_or(0);
    windows
        .iter_mut()
        .filter(|w| !w.is_empty() && w.len() * 2 >= fullest)
        .map(|w| percentile(w, p))
        .fold(f64::INFINITY, f64::min)
}

/// The same open-loop schedule run several times over a run: arrival `i`
/// is the same request, due at the same offset, in every replay. A stall
/// of the host delays the arrivals it falls on in one replay; whatever the
/// server does to an arrival (a slow lookup, a queue behind it, a reload
/// timed with it) it does in every replay. So each arrival keeps the least
/// of its latencies, and the percentiles are taken over arrivals.
#[derive(Debug, Default)]
pub struct Replays {
    pub replays: usize,
    /// Per arrival, the least latency from its due time, in microseconds.
    least_latency_us: Vec<f64>,
    /// Per arrival, the least the generator itself ran late.
    least_lateness_us: Vec<f64>,
    pub tally: Tally,
}

impl Replays {
    pub fn add(&mut self, replay: OpenSamples) {
        let arrivals = replay.arrival.iter().max().map_or(0, |last| last + 1);
        if self.least_latency_us.len() < arrivals {
            self.least_latency_us.resize(arrivals, f64::INFINITY);
            self.least_lateness_us.resize(arrivals, f64::INFINITY);
        }
        for (k, &arrival) in replay.arrival.iter().enumerate() {
            let (latency, lateness) = (replay.latency_us[k], replay.lateness_us[k]);
            self.least_latency_us[arrival] = self.least_latency_us[arrival].min(latency);
            self.least_lateness_us[arrival] = self.least_lateness_us[arrival].min(lateness);
        }
        self.replays += 1;
        self.tally.merge(replay.tally);
    }

    /// Arrivals in the schedule.
    pub fn arrivals(&self) -> usize {
        self.least_latency_us.len()
    }

    /// The `p`-th percentile over arrivals of each one's least latency
    /// from its due time.
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        percentile(&mut self.least_latency_us.clone(), p)
    }

    /// The same for the generator's own lateness.
    pub fn lateness_percentile_us(&self, p: f64) -> f64 {
        percentile(&mut self.least_lateness_us.clone(), p)
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(sleep) if !sleep.is_zero() => std::thread::sleep(sleep),
            _ => std::hint::spin_loop(),
        }
    }
}

/// One open-loop sender: requests go out on `schedule` whether or not the
/// server keeps up, and each is timed from when it was due, so a stall
/// charges the requests queued behind it too.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    schedule: Schedule,
    start: Instant,
    length: Duration,
) -> OpenSamples {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let mut samples = OpenSamples::default();
    for k in 0.. {
        let offset = schedule.due(k);
        if offset >= length {
            break;
        }
        let due = start + offset;
        wait_until(due);
        let sent = Instant::now();
        let arrival = k as usize * schedule.senders + schedule.sender;
        let request = &requests[arrival % requests.len()];
        let done = ask(&mut client, request, &mut samples.tally);
        samples.arrival.push(arrival);
        samples.due_s.push(offset.as_secs_f64());
        samples
            .lateness_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
        samples.latency_us.push(match done {
            Some(done) => done.duration_since(due).as_secs_f64() * 1e6,
            None => REQUEST_TIMEOUT.as_secs_f64() * 1e6,
        });
    }
    samples
}

/// One open loop at `rate` from `senders` threads, each with a connection
/// of its own, sharing one schedule that starts at `start`.
pub fn open_loops(
    addr: SocketAddr,
    requests: &[Request],
    rate: f64,
    senders: usize,
    start: Instant,
    length: Duration,
) -> OpenSamples {
    let mut samples = OpenSamples::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..senders)
            .map(|sender| {
                let schedule = Schedule {
                    rate,
                    senders,
                    sender,
                };
                scope.spawn(move || open_loop(addr, requests, schedule, start, length))
            })
            .collect();
        for thread in threads {
            samples.merge(thread.join().expect("open-loop sender"));
        }
    });
    samples
}

/// A backlog is growing when the generator ends a step this far behind.
pub const LADDER_BACKLOG_LIMIT_US: f64 = 1_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStep {
    pub rate: f64,
    /// The workload's latency limit, on the p99 from due time.
    pub p99_limit_us: f64,
    pub p99_us: f64,
    /// Mean lateness over the last tenth of the step.
    pub tail_lateness_us: f64,
    pub failed: u64,
}

impl LadderStep {
    pub fn ok(&self) -> bool {
        self.failed == 0
            && self.p99_us <= self.p99_limit_us
            && self.tail_lateness_us <= LADDER_BACKLOG_LIMIT_US
    }
}

/// Seven rates, each half again the one before, the second of them the
/// workload's open-loop rate.
pub fn ladder_rates(open_rps: f64) -> Vec<f64> {
    (0..7)
        .map(|k| (open_rps / 1.5 * 1.5f64.powi(k)).round())
        .collect()
}

/// Climbs `rates` until the first step that misses the limit or builds a
/// backlog; that step is run and kept, none after it is.
pub fn climb(rates: &[f64], mut step: impl FnMut(f64) -> LadderStep) -> Vec<LadderStep> {
    let mut steps = Vec::new();
    for &rate in rates {
        let result = step(rate);
        steps.push(result);
        if !result.ok() {
            break;
        }
    }
    steps
}

/// The highest rate that met the limit (0 when none did), and the p99
/// there (at the lowest rate when none did).
pub fn ladder_summary(steps: &[LadderStep]) -> (f64, f64) {
    match steps.iter().rev().find(|s| s.ok()) {
        Some(best) => (best.rate, best.p99_us),
        None => (0.0, steps.first().map_or(0.0, |s| s.p99_us)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn pair(entity: &str, type_name: &str, property: &str, positive: bool, p: f64) -> StoredPair {
        StoredPair {
            entity: entity.to_owned(),
            type_name: type_name.to_owned(),
            property: property.to_owned(),
            positive,
            probability: p,
        }
    }

    fn sample_pairs() -> Vec<StoredPair> {
        vec![
            pair("Kitten", "animal", "cute", true, 0.9),
            pair("Kitten", "animal", "big", false, 0.2),
            pair("Tiger", "animal", "big", true, 0.8),
            // The same name under another type, more confident: it wins.
            pair("tiger", "mascot", "big", false, 0.01),
            pair("San Jose", "city", "very big", true, 0.7),
        ]
    }

    #[test]
    fn answers_resolve_like_the_store() {
        let answers = Answers::from_pairs(&sample_pairs());
        assert_eq!(answers.decide("kitten", "cute"), Some(true));
        assert_eq!(answers.decide("KITTEN", "big"), Some(false));
        assert_eq!(answers.decide("Tiger", "big"), Some(false));
        assert_eq!(answers.decide("Tiger", "cute"), None);
        assert_eq!(answers.entity_opinions("Tiger"), Some(2));
        assert_eq!(answers.entity_opinions("Lion"), None);
        assert_eq!(answers.model_size("animal", "big"), Some(2));
        assert_eq!(answers.model_size("city", "big"), None);
    }

    #[test]
    fn same_seed_same_requests_with_the_stated_mix() {
        let pairs = sample_pairs();
        let a = Answers::from_pairs(&pairs);
        let b = Answers::from_pairs(&pairs[..2]);
        let requests = build_requests(&pairs, &[&a, &b], 9, 4000);
        let again = build_requests(&pairs, &[&a, &b], 9, 4000);
        assert!(requests.iter().zip(&again).all(|(x, y)| x.wire == y.wire));
        let other = build_requests(&pairs, &[&a, &b], 10, 4000);
        assert!(requests.iter().zip(&other).any(|(x, y)| x.wire != y.wire));
        let share = |kind| requests.iter().filter(|r| r.kind == kind).count() as f64 / 4000.0;
        assert!((share(Kind::Decide) - 0.85).abs() < 0.03);
        assert!((share(Kind::Entity) - 0.05).abs() < 0.02);
        assert!((share(Kind::Absent) - 0.04).abs() < 0.02);
        assert!(requests.iter().all(|r| r.answers.len() == 2));
        // Spaces in names and properties travel percent-encoded.
        assert!(requests
            .iter()
            .any(|r| r.wire.starts_with(b"GET /decide/San%20Jose/very%20big ")));
        // A pair stored in the first snapshot only is a 404 under the other.
        let tiger = requests
            .iter()
            .find(|r| r.wire.starts_with(b"GET /decide/Tiger/big "))
            .expect("a Tiger request");
        assert_eq!(
            tiger.answers[0],
            Answer {
                status: 200,
                value: 0
            }
        );
        assert_eq!(tiger.answers[1].status, 404);
    }

    #[test]
    fn a_wrong_verdict_is_caught() {
        let ok = br#"{"entity": "Kitten", "positive": true, "probability": 0.9}"#;
        assert_eq!(
            observe(Kind::Decide, 200, ok),
            Answer {
                status: 200,
                value: 1
            }
        );
        let request = Request {
            kind: Kind::Decide,
            wire: request_bytes("GET", "/decide/Kitten/cute"),
            // The expected verdict, corrupted: the reply no longer matches.
            answers: vec![Answer {
                status: 200,
                value: 0,
            }],
        };
        assert!(!request.answers.contains(&observe(Kind::Decide, 200, ok)));
        assert_eq!(observe(Kind::Decide, 404, b"{}").value, NO_VALUE);
        assert_eq!(observe(Kind::Decide, 200, b"not json").value, i64::MIN);
        assert_eq!(observe(Kind::Decide, 503, b"{}").status, 503);
        let entity = br#"{"entity": "x", "k": 10, "properties": [{}, {}, {}]}"#;
        assert_eq!(observe(Kind::Entity, 200, entity).value, 3);
        assert_eq!(
            observe(Kind::Model, 200, br#"{"decided_entities": 7}"#).value,
            7
        );
        assert_eq!(observe(Kind::Health, 200, b"ok").value, 1);
        assert_eq!(observe(Kind::Health, 200, b"no").value, 0);
    }

    #[test]
    fn senders_interleave_one_schedule() {
        let rate = 2000.0;
        let mut all: Vec<Duration> = (0..2)
            .flat_map(|sender| {
                let s = Schedule {
                    rate,
                    senders: 2,
                    sender,
                };
                (0..5).map(move |k| s.due(k))
            })
            .collect();
        all.sort();
        let expected: Vec<Duration> = (0..10)
            .map(|i| Duration::from_secs_f64(f64::from(i) / rate))
            .collect();
        assert_eq!(all, expected);
        assert_eq!(all[1] - all[0], Duration::from_micros(500));
    }

    /// A stall is charged to the requests that were due during it: the
    /// server sleeps on the first request, and the ones queued behind it
    /// show the wait as lateness and as latency from their due time.
    #[test]
    fn open_loop_times_from_the_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(60);
        let server = std::thread::spawn(move || {
            for n in 0.. {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut head = [0u8; 512];
                let read = stream.read(&mut head).unwrap_or(0);
                if head[..read].starts_with(b"GET /quit") {
                    return;
                }
                if n == 0 {
                    std::thread::sleep(stall);
                }
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        let request = Request {
            kind: Kind::Health,
            wire: request_bytes("GET", "/healthz"),
            answers: vec![Answer {
                status: 200,
                value: 1,
            }],
        };
        let schedule = Schedule {
            rate: 100.0,
            senders: 1,
            sender: 0,
        };
        let samples = open_loop(
            addr,
            &[request],
            schedule,
            Instant::now(),
            Duration::from_millis(100),
        );
        let _ = Client::new(addr, REQUEST_TIMEOUT).get("/quit");
        server.join().expect("server");
        assert_eq!(samples.latency_us.len(), 10);
        assert_eq!((samples.tally.attempted, samples.tally.failed), (10, 0));
        let stall_us = stall.as_secs_f64() * 1e6;
        // Request 0 waited out the stall; request 1 was due at 10 ms but
        // could not be sent before 60 ms. (Lower bounds only: a busy test
        // machine can make anything later still.)
        assert!(samples.latency_us[0] >= stall_us);
        assert!(samples.lateness_us[1] >= stall_us - 10_000.0 - 1.0);
        assert!(samples.latency_us[1] >= samples.lateness_us[1]);
        assert_eq!(samples.due_s[1], 0.01);
    }

    #[test]
    fn the_best_whole_window_is_reported() {
        let mut samples = OpenSamples::default();
        let mut push = |due_s: f64, latency_us: f64| {
            samples.due_s.push(due_s);
            samples.latency_us.push(latency_us);
            samples.lateness_us.push(latency_us / 10.0);
        };
        for i in 0..100 {
            // Second 0: a stall. Second 1: 100..=199 us. Second 2, cut
            // off after a tenth of its arrivals: 1 us, and left out.
            push(f64::from(i) / 100.0, 50_000.0);
            push(1.0 + f64::from(i) / 100.0, 100.0 + f64::from(i));
            if i < 10 {
                push(2.0 + f64::from(i) / 100.0, 1.0);
            }
        }
        assert_eq!(samples.latency_percentile_us(50.0), 149.0);
        assert_eq!(samples.latency_percentile_us(95.0), 194.0);
        assert_eq!(samples.lateness_percentile_us(100.0), 19.9);
    }

    /// A stall in one replay does not reach the report; a request that is
    /// slow in every replay does.
    #[test]
    fn each_arrival_keeps_its_least_disturbed_replay() {
        let replay = |latency_us: [f64; 4]| OpenSamples {
            // Two senders, merged sender by sender.
            arrival: vec![0, 2, 1, 3],
            due_s: vec![0.0, 0.02, 0.01, 0.03],
            latency_us: latency_us.to_vec(),
            lateness_us: latency_us.iter().map(|l| l / 10.0).collect(),
            tally: Tally {
                attempted: 4,
                ..Tally::default()
            },
        };
        let mut replays = Replays::default();
        // Arrival 3 is slow every time; arrivals 0 and 2 meet a stall once.
        replays.add(replay([50_000.0, 120.0, 110.0, 900.0]));
        replays.add(replay([100.0, 60_000.0, 130.0, 880.0]));
        replays.add(replay([105.0, 125.0, 115.0, 910.0]));
        assert_eq!((replays.replays, replays.arrivals()), (3, 4));
        assert_eq!(replays.tally.attempted, 12);
        assert_eq!(replays.latency_percentile_us(25.0), 100.0);
        assert_eq!(replays.latency_percentile_us(50.0), 110.0);
        assert_eq!(replays.latency_percentile_us(75.0), 120.0);
        assert_eq!(replays.latency_percentile_us(100.0), 880.0);
        assert_eq!(replays.lateness_percentile_us(100.0), 88.0);
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let rates = ladder_rates(3000.0);
        assert_eq!(rates[..3], [2000.0, 3000.0, 4500.0]);
        assert_eq!(rates.len(), 7);
        let mut asked = Vec::new();
        let steps = climb(&rates, |rate| {
            asked.push(rate);
            LadderStep {
                rate,
                p99_limit_us: 2_000.0,
                p99_us: rate / 3.0,
                tail_lateness_us: 10.0,
                failed: 0,
            }
        });
        // 6750 / 3 = 2250 us is over the limit: four steps run, no more.
        assert_eq!(asked, rates[..4]);
        assert_eq!(ladder_summary(&steps), (4500.0, 1500.0));

        let backlog = climb(&rates, |rate| LadderStep {
            rate,
            p99_limit_us: 2_000.0,
            p99_us: 100.0,
            tail_lateness_us: if rate > 2500.0 { 5_000.0 } else { 0.0 },
            failed: 0,
        });
        assert_eq!(backlog.len(), 2);
        assert_eq!(ladder_summary(&backlog), (2000.0, 100.0));

        let hopeless = climb(&rates, |rate| LadderStep {
            rate,
            p99_limit_us: 2_000.0,
            p99_us: 9_000.0,
            tail_lateness_us: 0.0,
            failed: 0,
        });
        assert_eq!(hopeless.len(), 1);
        assert_eq!(ladder_summary(&hopeless), (0.0, 9_000.0));
        let refused = LadderStep {
            rate: 1.0,
            p99_limit_us: 2_000.0,
            p99_us: 1.0,
            tail_lateness_us: 0.0,
            failed: 1,
        };
        assert!(!refused.ok());
    }
}
