//! One untraced run of one workload: set-up, the mine / update / load
//! loop, the serving phases, and the end-to-end metrics they give.

use crate::child::{self, ScratchDir, ServerChild};
use crate::http::Client;
use crate::layers::{self, Corpus, MineCounts, Miner};
use crate::loadgen::{
    build_requests, closed_loop, open_loops, Answers, Replays, Request, Tally, REQUEST_TIMEOUT,
    WINDOW,
};
use crate::spec::{Reloads, Workload, THREADS};
use crate::stats::{median, timed};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Times the mining loop and the serving phases take turns in a run of
/// the usual length; a short run makes fewer rounds.
pub const ROUNDS: usize = 8;

/// Requests drawn per run; the loops walk them round and round.
const REQUEST_POOL: usize = 16_384;

/// Stored pairs whose expected verdict is cross-checked against the
/// store's own `find_opinion` in every set-up.
const CROSS_CHECKED: usize = 24;

/// The mining half of a set-up: the inputs and the reference results.
pub struct Mined {
    pub workload: Workload,
    pub corpus: Corpus,
    pub miner: Miner,
    /// The whole corpus mined on one thread: what every timed mine and
    /// update must reproduce byte for byte, and snapshot A of the server.
    pub reference: Vec<u8>,
    pub counts: MineCounts,
    /// All shards but the last: what an update starts from, and snapshot
    /// B of the server.
    pub base: Vec<u8>,
}

/// Everything a run needs before its first timed operation.
pub struct Prepared {
    pub server: ServerChild,
    pub mined: Mined,
    pub requests: Vec<Request>,
    pub snapshot_a: PathBuf,
    pub snapshot_b: PathBuf,
    _scratch: ScratchDir,
}

/// Builds the world, its text and the reference results.
pub fn prepare_mining(workload: &Workload, seed: u64) -> Result<Mined, String> {
    let corpus = layers::generate_corpus(workload, seed, THREADS);
    let shards = corpus.shards.len();
    let (reference, counts) = Miner::new(&corpus.kb, workload.rho, 1).mine(&corpus, shards);
    let miner = Miner::new(&corpus.kb, workload.rho, THREADS);
    let (base, _) = miner.mine(&corpus, shards - 1);
    if seed == 2015 && workload.known_at_2015 != (0, 0) {
        let got = (counts.statements, counts.decided_pairs);
        if got != workload.known_at_2015 {
            return Err(format!(
                "seed 2015 mined {got:?} (statements, pairs), known {:?}",
                workload.known_at_2015
            ));
        }
    }
    Ok(Mined {
        workload: *workload,
        corpus,
        miner,
        reference,
        counts,
        base,
    })
}

/// [`prepare_mining`], then the request mix with its expected answers,
/// and the server booted to its first `200`.
pub fn prepare(workload: &Workload, seed: u64, surveyor: &Path) -> Result<Prepared, String> {
    let mined = prepare_mining(workload, seed)?;
    let store_a = layers::open_store(&mined.reference)?;
    let pairs_a = layers::stored_pairs(&store_a);
    if pairs_a.is_empty() {
        return Err("the mine decided no pair, so there is nothing to ask the server".to_owned());
    }
    if pairs_a.len() != mined.counts.decided_pairs {
        return Err(format!(
            "the reference snapshot stores {} pairs, the mine decided {}",
            pairs_a.len(),
            mined.counts.decided_pairs
        ));
    }
    let answers_a = Answers::from_pairs(&pairs_a);
    let step = (pairs_a.len() / CROSS_CHECKED).max(1);
    for pair in pairs_a.iter().step_by(step) {
        let own = answers_a.decide(&pair.entity, &pair.property);
        let stores = layers::find_opinion(&store_a, &pair.entity, &pair.property);
        if own != stores {
            return Err(format!(
                "expected verdict for {}/{} is {own:?}, the store's find_opinion says {stores:?}",
                pair.entity, pair.property
            ));
        }
    }
    let answers_b = Answers::from_pairs(&layers::stored_pairs(&layers::open_store(&mined.base)?));
    // Reloads swap the two snapshots under the readers, so a reply is right
    // when it is either's answer.
    let requests = build_requests(&pairs_a, &[&answers_a, &answers_b], seed, REQUEST_POOL);

    let scratch = ScratchDir::create()?;
    let snapshot_a = scratch.write("a.swire", &mined.reference)?;
    let snapshot_b = scratch.write("b.swire", &mined.base)?;
    let server = ServerChild::start(surveyor, &snapshot_a, THREADS)?;
    Ok(Prepared {
        server,
        mined,
        requests,
        snapshot_a,
        snapshot_b,
        _scratch: scratch,
    })
}

/// Runs [`prepare`] [`SETUPS`] times, one after the other, and keeps the
/// last; returns it with how long each took.
pub fn prepare_repeatedly(
    workload: &Workload,
    seed: u64,
    surveyor: &Path,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // The one before goes first: no two servers, no two corpora.
        drop(kept.take());
        let start = Instant::now();
        kept = Some(prepare(workload, seed, surveyor)?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS is at least 1"), seconds))
}

/// Seconds of each repetition of the mine / update / load loop.
#[derive(Debug, Default)]
pub struct MiningReport {
    pub mine_s: Vec<f64>,
    pub update_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub tally: Tally,
}

/// The least disturbed of `samples`. On this host interference only ever
/// adds time, in bursts that last from milliseconds to minutes, and over
/// runs of one commit the fastest repetition spreads half as wide as the
/// median one (README.md, "Noise"); so the fastest is what is reported.
fn least(samples: &[f64]) -> f64 {
    samples.iter().fold(f64::INFINITY, |lo, &s| lo.min(s))
}

/// Repeats for `budget`, and at least once: (a) text → snapshot bytes
/// from scratch, (b) base bytes + delta text → snapshot bytes, (c) bytes →
/// queryable state. Each result is checked against the reference of the
/// set-up. Taking the three in turn exposes them to the same moods of the
/// machine. With `warm_up`, one untimed repetition goes first.
pub fn measure_mining(p: &Mined, budget: Duration, warm_up: bool, report: &mut MiningReport) {
    let shards = p.corpus.shards.len();
    let start = Instant::now();
    let mut rep_s = 0.0;
    for rep in 0.. {
        let warming_up = warm_up && rep == 0;
        let timed_reps = rep - usize::from(warm_up && rep > 0);
        if timed_reps > 0 && start.elapsed().as_secs_f64() + rep_s > budget.as_secs_f64() {
            break;
        }

        let ((mined, _), mine_s) = timed(|| p.miner.mine(&p.corpus, shards));
        let (updated, update_s) = timed(|| p.miner.update(&p.base, &p.corpus, shards - 1));
        let (served, load_s) = timed(|| layers::load_served(&mined));
        rep_s = mine_s + update_s + load_s;
        if warming_up {
            continue;
        }
        report.mine_s.push(mine_s);
        report.update_s.push(update_s);
        report.load_s.push(load_s);

        report.tally.attempted += 3;
        if mined != p.reference {
            report
                .tally
                .fail(|| "a mine's bytes differ from the one-thread reference".to_owned());
        }
        match updated {
            Ok((bytes, _)) if bytes == p.reference => {}
            Ok(_) => report
                .tally
                .fail(|| "an update's bytes differ from mining from scratch".to_owned()),
            Err(e) => report.tally.fail(|| format!("update failed: {e}")),
        }
        match served {
            Ok(loaded) if loaded.associations == p.counts.decided_pairs => {}
            Ok(loaded) => report.tally.fail(|| {
                format!(
                    "loaded {} associations, mined {}",
                    loaded.associations, p.counts.decided_pairs
                )
            }),
            Err(e) => report.tally.fail(|| format!("load failed: {e}")),
        }
    }
}

/// What the serving slices of a run add up to.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Right replies per second in the best window of any closed loop.
    pub qps: f64,
    /// The open loop's schedule, replayed once per slice.
    pub open: Replays,
    pub reload_ms: Vec<f64>,
    pub reloads_accepted: u64,
    pub tally: Tally,
}

/// POSTs one hot reload of `snapshot` and returns how long it took.
fn reload(client: &mut Client, snapshot: &Path, tally: &mut Tally) -> Option<f64> {
    let path = format!(
        "/ctl/reload?path={}",
        layers::percent_encode(&snapshot.to_string_lossy())
    );
    tally.attempted += 1;
    let start = Instant::now();
    let accepted = match client.post(&path) {
        Ok(reply) => {
            let reloaded = std::str::from_utf8(&reply.body)
                .ok()
                .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok())
                .and_then(|json| json.get("reloaded").and_then(|r| r.as_bool()));
            reply.status == 200 && reloaded == Some(true)
        }
        Err(_) => false,
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if !accepted {
        tally.fail(|| format!("reload of {} was not accepted", snapshot.display()));
        return None;
    }
    Some(ms)
}

/// One hot reload while nothing else is asked of the server.
fn reload_idle(addr: SocketAddr, snapshot: &Path, report: &mut ServeReport) {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let ms = reload(&mut client, snapshot, &mut report.tally);
    report.reloads_accepted += u64::from(ms.is_some());
    report.reload_ms.extend(ms);
}

/// One slice of serving: a closed loop, an open loop, and hot reloads —
/// during the open loop or after each loop, as the workload has it.
pub fn measure_serving(p: &Prepared, closed: Duration, open: Duration, report: &mut ServeReport) {
    let addr = p.server.addr;
    let requests = &p.requests[..];

    // Closed loop: THREADS callers that each wait for a reply.
    let start = Instant::now();
    let mut right_per_window = vec![0.0; (closed.as_secs_f64() / WINDOW.as_secs_f64()) as usize];
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..THREADS)
            .map(|t| {
                let offset = t * requests.len() / THREADS;
                scope.spawn(move || closed_loop(addr, requests, offset, start, closed))
            })
            .collect();
        for caller in callers {
            let (tally, right) = caller.join().expect("closed-loop caller");
            report.tally.merge(tally);
            for (total, right) in right_per_window.iter_mut().zip(right) {
                *total += right as f64;
            }
        }
    });
    for right in right_per_window {
        report.qps = report.qps.max(right / WINDOW.as_secs_f64());
    }

    // Open loop: arrivals on a schedule. With reloads under load, one
    // thread sends and the other reloads; else both send, and a reload
    // follows each loop.
    let workload = &p.mined.workload;
    let period = match workload.reloads {
        Reloads::Idle => None,
        Reloads::UnderLoad { period_ms } => Some(Duration::from_millis(period_ms)),
    };
    let snapshots = [&p.snapshot_b, &p.snapshot_a];
    if period.is_none() {
        reload_idle(addr, snapshots[0], report);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let slice = std::thread::scope(|scope| {
        let reloader = period.map(|period| {
            scope.spawn(move || {
                let mut client = Client::new(addr, REQUEST_TIMEOUT);
                let mut tally = Tally::default();
                let mut ms = Vec::new();
                for k in 1u32.. {
                    let due = start + period * k;
                    if due + period > start + open {
                        break;
                    }
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    ms.extend(reload(
                        &mut client,
                        snapshots[(k as usize - 1) % 2],
                        &mut tally,
                    ));
                }
                (ms, tally)
            })
        });
        let slice = open_loops(
            addr,
            requests,
            workload.open_rps,
            workload.open_senders(),
            start,
            open,
        );
        if let Some(reloader) = reloader {
            let (ms, tally) = reloader.join().expect("reloader");
            report.reloads_accepted += ms.len() as u64;
            report.reload_ms.extend(ms);
            report.tally.merge(tally);
        }
        slice
    });
    report.open.add(slice);

    if period.is_none() {
        reload_idle(addr, snapshots[1], report);
    }
}

/// Every accepted reload, and nothing else, moved the generation on.
fn check_generation(p: &Prepared, report: &mut ServeReport) {
    report.tally.attempted += 1;
    let mut client = Client::new(p.server.addr, REQUEST_TIMEOUT);
    let generation = client.get("/readyz").ok().and_then(|reply| {
        let text = String::from_utf8(reply.body).ok()?;
        let json: serde_json::Value = serde_json::from_str(&text).ok()?;
        json.get("generation")?.as_u64()
    });
    let accepted = report.reloads_accepted;
    if generation != Some(1 + accepted) {
        report.tally.fail(|| {
            format!("/readyz reports generation {generation:?} after {accepted} accepted reloads")
        });
    }
}

/// One metric as the driver reads it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What a run prints as its last line.
pub struct Outcome {
    /// Operations attempted and failed, over every phase.
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Remarks for the human reader, printed before the result line.
    pub notes: Vec<String>,
}

/// The whole untraced run of `workload`.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let surveyor = child::build_surveyor()?;
    let (prepared, setup_s) = prepare_repeatedly(workload, seed, &surveyor)?;

    // The phases take turns, so that every metric has samples from across
    // the run: a slow spell of the host has to last the whole run to reach
    // the best repetition, the best window and every replay of an arrival.
    // A round serves for two seconds at the least.
    let rounds = ((seconds * (1.0 - workload.mining_share) / 2.0) as usize).clamp(1, ROUNDS);
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / rounds as f64);
    // The closed loop reports its best window, so its slices are whole
    // windows; the open loop's are long enough for a reload to fit in.
    let whole_windows = |share: f64| {
        WINDOW
            * (slice(share).as_secs_f64() / WINDOW.as_secs_f64())
                .round()
                .max(1.0) as u32
    };
    let open_share = 1.0 - workload.mining_share - workload.closed_share;
    let mut mining = MiningReport::default();
    let mut serving = ServeReport::default();
    for round in 0..rounds {
        let warm_up = round == 0;
        measure_mining(
            &prepared.mined,
            slice(workload.mining_share),
            warm_up,
            &mut mining,
        );
        measure_serving(
            &prepared,
            whole_windows(workload.closed_share),
            slice(open_share).max(WINDOW),
            &mut serving,
        );
    }
    check_generation(&prepared, &mut serving);
    let peak_rss_mb = child::peak_rss_mb(std::process::id())?;
    let server_rss_mb = child::peak_rss_mb(prepared.server.pid())?;

    let mut tally = mining.tally;
    tally.merge(std::mem::take(&mut serving.tally));
    tally.merge(std::mem::take(&mut serving.open.tally));
    tally.attempted += 1;
    let Prepared { server, mined, .. } = prepared;
    let Mined {
        corpus,
        reference,
        counts,
        ..
    } = mined;
    if let Err(e) = server.shutdown() {
        tally.fail(|| e);
    }
    if serving.reload_ms.is_empty() {
        return Err("the open loop was too short for a reload to fit in".to_owned());
    }

    let lateness_p99 = serving.open.lateness_percentile_us(99.0);
    let mut notes = vec![format!(
        "{} docs, {} statements, {} pairs, {} groups, {} snapshot bytes; {} mine/update/load repetitions; \
         {} open-loop arrivals at {} req/s replayed {} times, generator lateness p99 {lateness_p99:.0} us; \
         {} reloads",
        corpus.docs,
        counts.statements,
        counts.decided_pairs,
        counts.groups,
        reference.len(),
        mining.mine_s.len(),
        serving.open.arrivals(),
        workload.open_rps,
        serving.open.replays,
        serving.reload_ms.len(),
    )];
    for (what, samples) in [
        ("mine", &mining.mine_s),
        ("update", &mining.update_s),
        ("load", &mining.load_s),
        ("set-up", &setup_s),
    ] {
        let max = samples.iter().fold(0.0f64, |hi, &s| hi.max(s));
        notes.push(format!(
            "{what}: {} samples, min {:.4} s, median {:.4} s, max {max:.4} s",
            samples.len(),
            least(samples),
            median(samples)
        ));
    }
    notes.push(format!(
        "open-loop latency from due time, least disturbed replay of each arrival: p50 {:.0}  p90 {:.0}  p95 {:.0}  p99 {:.0}  p99.9 {:.0} us; \
         lateness p50 {:.0}  p95 {:.0} us",
        serving.open.latency_percentile_us(50.0),
        serving.open.latency_percentile_us(90.0),
        serving.open.latency_percentile_us(95.0),
        serving.open.latency_percentile_us(99.0),
        serving.open.latency_percentile_us(99.9),
        serving.open.lateness_percentile_us(50.0),
        serving.open.lateness_percentile_us(95.0),
    ));
    if lateness_p99 > 200.0 {
        notes.push(format!(
            "generator-bound: lateness p99 {lateness_p99:.0} us is over 200 us, so serve_p50_us and \
             serve_p95_us say more about the load generator than about the server"
        ));
    }
    let metric = |name, value| Metric { name, value };
    let metrics = vec![
        metric("setup_s", median(&setup_s)),
        metric(
            "mine_docs_per_s",
            corpus.docs as f64 / least(&mining.mine_s),
        ),
        metric("update_s", least(&mining.update_s)),
        metric("load_s", least(&mining.load_s)),
        metric(
            "snapshot_bytes_per_pair",
            reference.len() as f64 / counts.decided_pairs as f64,
        ),
        metric("peak_rss_mb", peak_rss_mb),
        metric("serve_qps", serving.qps),
        metric("serve_p50_us", serving.open.latency_percentile_us(50.0)),
        metric("serve_p95_us", serving.open.latency_percentile_us(95.0)),
        metric("server_rss_mb", server_rss_mb),
        metric("reload_ms", least(&serving.reload_ms)),
    ];
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorldShape;

    /// The check on mined bytes is live: with one byte of the reference
    /// snapshot flipped, every mine and every update is counted as failed.
    #[test]
    fn a_corrupted_reference_snapshot_fails_the_run() {
        let workload = Workload {
            world: WorldShape::Web {
                background_per_type: 8,
            },
            shards: 4,
            ..Workload::by_name("web_mine").expect("web_mine").quick()
        };
        let mut mined = prepare_mining(&workload, 7).expect("set-up");
        let mut clean = MiningReport::default();
        for round in 0..3 {
            measure_mining(&mined, Duration::ZERO, round == 0, &mut clean);
        }
        assert_eq!(clean.mine_s.len(), 3);
        assert_eq!(clean.tally.attempted, 3 * clean.mine_s.len() as u64);
        assert_eq!(clean.tally.failed, 0, "{:?}", clean.tally.first_failure);

        let middle = mined.reference.len() / 2;
        mined.reference[middle] ^= 1;
        let mut spoiled = MiningReport::default();
        measure_mining(&mined, Duration::ZERO, false, &mut spoiled);
        assert_eq!(spoiled.tally.failed, 2 * spoiled.mine_s.len() as u64);
        let failure = spoiled.tally.first_failure.expect("a failure is kept");
        assert!(failure.contains("reference"), "{failure}");
    }
}
