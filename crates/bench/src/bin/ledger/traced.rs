//! The traced run: the benchmark walks the layers itself, one call at a
//! time on one thread, with a span around each call, and turns the spans
//! into the per-layer metrics. End-to-end numbers never come from here.
//!
//! Extraction, whose spans are per sentence, is walked over the first
//! eighth of the shards (every shard is an equal Poisson share of the
//! corpus, so a prefix is a fair sample); interpretation, load, update
//! and the server are walked at full size.

use crate::child;
use crate::http::Client;
use crate::layers::{self, MineTraceCounts};
use crate::loadgen::{
    climb, ladder_rates, ladder_summary, observe, open_loops, LadderStep, OpenSamples, Request,
    Tally, REQUEST_TIMEOUT, WINDOW,
};
use crate::run::{prepare, Metric, Mined, Outcome, Prepared};
use crate::spec::{Workload, THREADS};
use crate::stats::{median, percentile, timed};
use crate::trace::{NameTotals, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests routed in process, and sent one by one over one connection.
const ROUTED_IN_PROCESS: usize = 2_000;
const SENT_ONE_BY_ONE: usize = 5_000;
/// The spans of `detail.nlp`: what `annotate_with` does inside.
const STAGES: [&str; 5] = [
    "nlp.split",
    "nlp.tokenize",
    "nlp.pos_tag",
    "nlp.parse",
    "nlp.entity_link",
];
/// Lookups timed straight on the store.
const LOOKUPS: usize = 200;
/// Length of one step of the rate ladder.
const LADDER_STEP_WINDOWS: u32 = 2;

fn run_open_loop(p: &Prepared, rate: f64, length: Duration) -> OpenSamples {
    open_loops(
        p.server.addr,
        &p.requests,
        rate,
        p.mined.workload.open_senders(),
        Instant::now() + Duration::from_millis(20),
        length,
    )
}

/// One step of the rate ladder, reduced to what the stop rule reads.
fn ladder_step(p: &Prepared, rate: f64, length: Duration, tally: &mut Tally) -> LadderStep {
    let mut samples = run_open_loop(p, rate, length);
    let tail_from = length.as_secs_f64() * 0.9;
    let tail: Vec<f64> = (samples.due_s.iter().zip(&samples.lateness_us))
        .filter(|(due, _)| **due >= tail_from)
        .map(|(_, lateness)| *lateness)
        .collect();
    let failed = samples.tally.failed;
    tally.merge(std::mem::take(&mut samples.tally));
    LadderStep {
        rate,
        p99_limit_us: p.mined.workload.ladder_p99_limit_us,
        p99_us: samples.latency_percentile_us(99.0),
        tail_lateness_us: tail.iter().sum::<f64>() / tail.len().max(1) as f64,
        failed,
    }
}

/// A counter of the server's `/metrics` report.
fn server_counters(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    let reply = client
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    let text = String::from_utf8(reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let json: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("/metrics: {e}"))?;
    let counters = json
        .get("counters")
        .and_then(|c| c.as_object())
        .ok_or("/metrics has no counters")?;
    Ok(counters
        .iter()
        .filter_map(|(name, value)| Some((name.clone(), value.as_u64()?)))
        .collect())
}

/// The whole traced run of `workload`. `seconds` sizes the open loop;
/// the walks over the layers and the ladder are a fixed amount of work.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let surveyor = child::build_surveyor()?;
    let p = prepare(workload, seed, &surveyor)?;
    let m = &p.mined;
    let span_cost_ns = Tracer::span_cost_ns();
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut check = |ok: bool, what: &str| {
        tally.attempted += 1;
        if !ok {
            tally.fail(|| what.to_owned());
        }
    };
    let shards = m.corpus.shards.len();
    let sample = (shards / 8).max(1);

    // corpus: the generator on one thread, as the set-up's cost per doc.
    let n_generate = t.name("corpus.generate");
    let regenerated = t.span(n_generate, |_| layers::generate_corpus(workload, seed, 1));
    check(
        regenerated.docs == m.corpus.docs && regenerated.text_bytes == m.corpus.text_bytes,
        "the same seed generated a different corpus",
    );
    drop(regenerated);

    // extract: the walk over a sample, shard by shard, each shard by the
    // sharded runner, by the walk with the tracer off, and by the walk
    // under spans, in turn and twice over (the first to touch a shard pays
    // for cold caches and fresh pages). The faster of the two counts, and
    // the median shard gives the ratios; single timings on this host are
    // too noisy to subtract.
    let mut counts = MineTraceCounts::default();
    let (mut overheads, mut walk_shares) = (Vec::new(), Vec::new());
    for shard in 0..sample {
        let one = shard..shard + 1;
        let mut best = [f64::INFINITY; 3];
        for round in 0..2 {
            let (plain, runner_s) = timed(|| layers::extract(&m.corpus, one.clone(), 1));
            let (silent, silent_s) = timed(|| {
                let mut unused = MineTraceCounts::default();
                layers::trace_extract(&mut Tracer::off(), &m.corpus, one.clone(), &mut unused)
            });
            // Spans and counts are kept from the first round only.
            let (walked, walked_s) = if round == 0 {
                timed(|| layers::trace_extract(&mut t, &m.corpus, one.clone(), &mut counts))
            } else {
                let mut unused = MineTraceCounts::default();
                timed(|| {
                    layers::trace_extract(&mut Tracer::new(), &m.corpus, one.clone(), &mut unused)
                })
            };
            check(
                walked.statements == plain.statements && silent.statements == plain.statements,
                "the walk extracted different statements than the sharded runner",
            );
            for (slot, s) in [runner_s, silent_s, walked_s].into_iter().enumerate() {
                best[slot] = best[slot].min(s);
            }
        }
        let [runner_s, silent_s, walked_s] = best;
        overheads.push((walked_s - silent_s) / silent_s);
        walk_shares.push(silent_s / runner_s);
    }
    layers::trace_nlp_detail(&mut t, &m.corpus, 0..sample, &mut counts);
    check(
        counts.sentences_tokenized - counts.parse_none == counts.sentences_parsed
            && counts.sentences_split >= counts.sentences_tokenized,
        "the five stages kept different sentences than annotate_with",
    );

    // extract at full size through the sharded runner, on one thread and
    // on two; the better of two runs each.
    let mut extract_s = [f64::INFINITY; 2];
    let mut extracted = None;
    for _ in 0..2 {
        for (slot, threads) in [1, THREADS].into_iter().enumerate() {
            let (output, s) = timed(|| layers::extract(&m.corpus, 0..shards, threads));
            check(
                output.statements == m.counts.statements,
                "extraction counted different statements",
            );
            extract_s[slot] = extract_s[slot].min(s);
            extracted = Some(output);
        }
    }

    // interpret: the whole corpus' evidence → snapshot bytes.
    let extracted = extracted.expect("extraction ran");
    let interpreted =
        layers::trace_interpret(&mut t, &m.corpus, extracted, workload.rho, &mut counts);
    check(
        interpreted == m.reference,
        "the traced walk mined different bytes than Surveyor::run",
    );
    drop(interpreted);
    check(
        counts.pairs_decided == m.counts.decided_pairs as u64,
        "fitting and deciding group by group decided different pairs",
    );

    // load and update at full size.
    let loaded = layers::trace_load(&mut t, &m.reference)?;
    check(
        loaded == m.counts.decided_pairs,
        "the traced load built a different index",
    );
    let (updated, update) =
        layers::trace_update(&mut t, &m.base, &m.corpus, shards - 1, workload.rho)?;
    check(
        updated == m.reference,
        "the traced update differs from mining from scratch",
    );

    // core: lookups straight on the store.
    let store = layers::open_store(&m.reference)?;
    let pairs = layers::stored_pairs(&store);
    let n_find = t.name("core.find_opinion");
    for pair in pairs.iter().step_by((pairs.len() / LOOKUPS).max(1)) {
        let found = t.span(n_find, |_| {
            layers::find_opinion(&store, &pair.entity, &pair.property)
        });
        check(found.is_some(), "a stored pair was not found");
    }
    drop((store, pairs));

    // server, in process: the request bytes the load generator sends.
    let routed: &[Request] = &p.requests[..ROUTED_IN_PROCESS.min(p.requests.len())];
    let heads: Vec<&[u8]> = routed.iter().map(|r| r.wire.as_slice()).collect();
    let replies = layers::trace_routes(&mut t, &m.reference, &heads, |i| {
        routed[i].kind.route_span()
    })?;
    for (request, reply) in routed.iter().zip(&replies) {
        check(
            observe(request.kind, reply.status, &reply.body) == request.answers[0],
            "a reply routed in process is wrong",
        );
    }

    // server, over one connection: where a request's time goes, and what
    // it costs the server in CPU.
    let mut client = Client::new(p.server.addr, REQUEST_TIMEOUT);
    let counters_before = server_counters(&mut client)?;
    let cpu_before = child::cpu_seconds(p.server.pid())?;
    let (n_connect, n_first_byte, n_exchange) = (
        t.name("server.connect"),
        t.name("server.first_byte"),
        t.name("server.exchange"),
    );
    let (mut connect_us, mut first_byte_us, mut exchange_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut one_by_one = Client::new(p.server.addr, REQUEST_TIMEOUT);
    for request in p.requests.iter().cycle().take(SENT_ONE_BY_ONE) {
        let start = Instant::now();
        match one_by_one.exchange(&request.wire) {
            Ok(reply) => {
                check(
                    request
                        .answers
                        .contains(&observe(request.kind, reply.status, &reply.body)),
                    "a reply over the socket is wrong",
                );
                if let Some(connect) = reply.connect {
                    t.record(n_connect, start, start + connect);
                    connect_us.push(connect.as_secs_f64() * 1e6);
                }
                t.record(n_first_byte, start, start + reply.first_byte);
                t.record(n_exchange, start, reply.done);
                first_byte_us.push(reply.first_byte.as_secs_f64() * 1e6);
                exchange_us.push(reply.done.duration_since(start).as_secs_f64() * 1e6);
            }
            Err(_) => check(false, "a request over the socket failed"),
        }
    }
    let server_cpu_s = child::cpu_seconds(p.server.pid())? - cpu_before;
    let reused = one_by_one.exchanges - one_by_one.connects.min(one_by_one.exchanges);
    if exchange_us.is_empty() {
        return Err("no request over the socket succeeded".to_owned());
    }

    // loadgen: the workload's open loop, for how late the generator runs.
    let cpu_before = child::cpu_seconds(std::process::id())?;
    let open_length = Duration::from_secs_f64(seconds * 0.3).max(WINDOW);
    let mut open = run_open_loop(&p, workload.open_rps, open_length);
    let loadgen_cpu_s = child::cpu_seconds(std::process::id())? - cpu_before;
    tally.merge(std::mem::take(&mut open.tally));

    // server: the rate ladder.
    let step_length = LADDER_STEP_WINDOWS * WINDOW;
    let steps = climb(&ladder_rates(workload.open_rps), |rate| {
        ladder_step(&p, rate, step_length, &mut tally)
    });
    let (max_ok_rps, p99_at_max_ok) = ladder_summary(&steps);

    let counters_after = server_counters(&mut client)?;
    let delta = |name: &str| {
        let read = |c: &BTreeMap<String, u64>| c.get(name).copied().unwrap_or(0);
        (read(&counters_after) - read(&counters_before)) as f64
    };
    tally.attempted += 1;
    let Prepared { server, mined, .. } = p;
    let Mined {
        corpus,
        reference,
        counts: mined_counts,
        ..
    } = mined;
    if let Err(e) = server.shutdown() {
        tally.fail(|| e);
    }

    let trace_file = child::target_dir()?
        .join("ledger")
        .join(format!("trace-{}.json", workload.name));
    std::fs::write(&trace_file, t.to_json(workload.name))
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    let totals = t.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_ns = |name: &str| {
        let NameTotals {
            count, total_ns, ..
        } = of(name);
        total_ns as f64 / count.max(1) as f64
    };
    let ms = |name: &str| of(name).total_ns as f64 / 1e6;
    let per = |name: &str, n: u64| of(name).total_ns as f64 / n.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mb_per_s = |name: &str| reference.len() as f64 / 1e6 / (of(name).total_ns as f64 / 1e9);
    let stage_ns: u64 = STAGES.iter().map(|name| of(name).total_ns).sum();
    // What a span costs the tracer itself, to take the stage spans' own
    // cost out of the comparison with `annotate_with` as a whole.
    let stage_spans: u64 = STAGES.iter().map(|name| of(name).count).sum();
    let c = counts;
    let u = update.stats;

    let mut notes = vec![format!(
        "{} spans written to {}; extraction walked over {sample} of {shards} shards; a span costs the tracer {span_cost_ns:.0} ns",
        t.len(),
        trace_file.display()
    )];
    for step in &steps {
        notes.push(format!(
            "ladder: {:>6.0} req/s  p99 {:>8.0} us  backlog {:>8.0} us  failed {}  {}",
            step.rate,
            step.p99_us,
            step.tail_lateness_us,
            step.failed,
            if step.ok() { "ok" } else { "stop" }
        ));
    }

    let metric = |name, value| Metric { name, value };
    let metrics = vec![
        metric(
            "corpus.generate.ns_per_doc",
            per("corpus.generate", corpus.docs as u64),
        ),
        metric("corpus.docs", corpus.docs as f64),
        metric("corpus.text_bytes", corpus.text_bytes as f64),
        metric("nlp.split.ns_per_doc", mean_ns("nlp.split")),
        metric("nlp.tokenize.ns_per_sentence", mean_ns("nlp.tokenize")),
        metric("nlp.pos_tag.ns_per_sentence", mean_ns("nlp.pos_tag")),
        metric("nlp.parse.ns_per_sentence", mean_ns("nlp.parse")),
        metric(
            "nlp.parse.none_ratio",
            ratio(c.parse_none, c.sentences_tokenized),
        ),
        metric(
            "nlp.entity_link.ns_per_sentence",
            mean_ns("nlp.entity_link"),
        ),
        metric(
            "nlp.mentions_per_sentence",
            ratio(c.mentions, c.sentences_tokenized - c.parse_none),
        ),
        metric("nlp.annotate.ns_per_doc", mean_ns("nlp.annotate")),
        metric(
            "nlp.annotate.self_ns_per_doc",
            (of("nlp.annotate").total_ns as f64 - stage_ns as f64
                + stage_spans as f64 * span_cost_ns)
                / c.docs.max(1) as f64,
        ),
        metric(
            "extract.pattern.ns_per_sentence",
            mean_ns("extract.pattern"),
        ),
        metric(
            "extract.sentence_yield",
            ratio(c.sentences_yielding, c.sentences_parsed),
        ),
        metric(
            "extract.table_add.ns_per_statement",
            mean_ns("extract.table_add"),
        ),
        metric("extract.group.ms", ms("extract.group")),
        metric("extract.run.s_1t", extract_s[0]),
        metric("extract.run.s_2t", extract_s[1]),
        metric(
            "extract.parallel_efficiency",
            extract_s[0] / (THREADS as f64 * extract_s[1]),
        ),
        metric("extract.statements", mined_counts.statements as f64),
        metric(
            "extract.intern_hit_ratio",
            ratio(c.intern_hits, c.intern_lookups),
        ),
        metric("extract.walk_share_of_runner", median(&walk_shares)),
        metric("model.fit.us_per_group", mean_ns("model.fit") / 1e3),
        metric(
            "model.fit.ns_per_entity",
            per("model.fit", c.entities_fitted),
        ),
        metric("model.em_iterations_total", c.em_iterations as f64),
        metric(
            "model.decide.ns_per_pair",
            per("model.decide", c.entities_fitted),
        ),
        metric("model.groups_fitted", c.groups_fitted as f64),
        metric(
            "core.run_on_evidence.s",
            of("core.run_on_evidence").total_ns as f64 / 1e9,
        ),
        metric("core.snapshot_output.ms", ms("core.snapshot_output")),
        metric(
            "core.output_from_snapshot.ms",
            ms("core.output_from_snapshot"),
        ),
        metric("core.index_build.ms", ms("core.index_build")),
        metric("core.find_opinion.ns", mean_ns("core.find_opinion")),
        metric("core.update.load_ms", ms("core.update.load")),
        metric("core.update.extract_ms", ms("core.update.extract")),
        metric("core.update.apply_ms", ms("core.update.apply")),
        metric("core.update.save_ms", ms("core.update.save")),
        metric("core.update.groups_total", u.groups_total as f64),
        metric("core.update.groups_dirty", u.groups_dirty as f64),
        metric("core.update.groups_carried", u.groups_carried as f64),
        metric("core.update.groups_refit", u.groups_refit as f64),
        metric(
            "core.update.refit_changed_ratio",
            ratio(update.refit_changed as u64, u.groups_refit as u64),
        ),
        metric("wire.encode.ms", ms("wire.encode")),
        metric("wire.encode.mb_per_s", mb_per_s("wire.encode")),
        metric("wire.decode.ms", ms("wire.decode")),
        metric("wire.decode.mb_per_s", mb_per_s("wire.decode")),
        metric("wire.snapshot_bytes", reference.len() as f64),
        metric("server.parse_head.ns", mean_ns("server.parse_head")),
        metric("server.route_decide.ns", mean_ns("server.route_decide")),
        metric("server.route_entity.ns", mean_ns("server.route_entity")),
        metric("server.render.ns", mean_ns("server.render")),
        metric(
            "server.connect.us_p50",
            if connect_us.is_empty() {
                0.0
            } else {
                percentile(&mut connect_us, 50.0)
            },
        ),
        metric(
            "server.first_byte.us_p50",
            percentile(&mut first_byte_us, 50.0),
        ),
        metric("server.exchange.us_p50", percentile(&mut exchange_us, 50.0)),
        metric(
            "server.conn_reuse_ratio",
            ratio(reused, one_by_one.exchanges),
        ),
        metric(
            "server.cpu_us_per_req",
            server_cpu_s * 1e6 / one_by_one.exchanges.max(1) as f64,
        ),
        metric(
            "server.shed_ratio",
            delta("serve.shed") / (delta("serve.shed") + delta("serve.requests")).max(1.0),
        ),
        metric("server.deadline_expired", delta("serve.deadline_expired")),
        metric("server.panics", delta("serve.panics")),
        metric("server.open.p50_us", open.latency_percentile_us(50.0)),
        metric("server.open.p99_us", open.latency_percentile_us(99.0)),
        metric("server.ladder.max_ok_rps", max_ok_rps),
        metric("server.ladder.p99_us_at_max_ok", p99_at_max_ok),
        metric("server.ladder.steps_run", steps.len() as f64),
        metric("loadgen.lateness_p99_us", open.lateness_percentile_us(99.0)),
        metric("loadgen.cpu_s", loadgen_cpu_s),
        metric("loadgen.threads", workload.open_senders() as f64),
        metric("trace.overhead_ratio", median(&overheads)),
        metric("trace.ns_per_span", span_cost_ns),
        metric("trace.spans", t.len() as f64),
    ];
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}
