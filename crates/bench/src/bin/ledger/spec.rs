//! What the benchmark runs and what it reports: the workloads and the
//! metric tables. `BENCHMARK.json` at the repository root states the same
//! tables in the driver's format; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees. Every workload reports every one.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A metric of one layer, from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("mine_docs_per_s", "docs/s", Better::Higher, 0.25),
    e2e("update_s", "s", Better::Lower, 0.25),
    e2e("load_s", "s", Better::Lower, 0.25),
    e2e("snapshot_bytes_per_pair", "B", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("serve_qps", "req/s", Better::Higher, 0.25),
    e2e("serve_p50_us", "us", Better::Lower, 0.25),
    e2e("serve_p95_us", "us", Better::Lower, 0.25),
    e2e("server_rss_mb", "MB", Better::Lower, 0.20),
    e2e("reload_ms", "ms", Better::Lower, 0.25),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // corpus: the benchmark's input generator.
    layer("corpus.generate.ns_per_doc", "ns", Lower, "setup_s"),
    layer("corpus.docs", "count", Lower, "setup_s"),
    layer("corpus.text_bytes", "B", Lower, "setup_s"),
    // nlp
    layer("nlp.split.ns_per_doc", "ns", Lower, "mine_docs_per_s"),
    layer(
        "nlp.tokenize.ns_per_sentence",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    layer(
        "nlp.pos_tag.ns_per_sentence",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    layer("nlp.parse.ns_per_sentence", "ns", Lower, "mine_docs_per_s"),
    layer("nlp.parse.none_ratio", "ratio", Lower, "mine_docs_per_s"),
    layer(
        "nlp.entity_link.ns_per_sentence",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    layer(
        "nlp.mentions_per_sentence",
        "ratio",
        Higher,
        "mine_docs_per_s",
    ),
    layer("nlp.annotate.ns_per_doc", "ns", Lower, "mine_docs_per_s"),
    layer(
        "nlp.annotate.self_ns_per_doc",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    // extract
    layer(
        "extract.pattern.ns_per_sentence",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    layer("extract.sentence_yield", "ratio", Higher, "mine_docs_per_s"),
    layer(
        "extract.table_add.ns_per_statement",
        "ns",
        Lower,
        "mine_docs_per_s",
    ),
    layer("extract.group.ms", "ms", Lower, "update_s"),
    layer("extract.run.s_1t", "s", Lower, "mine_docs_per_s"),
    layer("extract.run.s_2t", "s", Lower, "mine_docs_per_s"),
    layer(
        "extract.parallel_efficiency",
        "ratio",
        Higher,
        "mine_docs_per_s",
    ),
    layer("extract.statements", "count", Higher, "mine_docs_per_s"),
    layer(
        "extract.intern_hit_ratio",
        "ratio",
        Higher,
        "mine_docs_per_s",
    ),
    layer(
        "extract.walk_share_of_runner",
        "ratio",
        Higher,
        "mine_docs_per_s",
    ),
    // model
    layer("model.fit.us_per_group", "us", Lower, "mine_docs_per_s"),
    layer("model.fit.ns_per_entity", "ns", Lower, "mine_docs_per_s"),
    layer(
        "model.em_iterations_total",
        "count",
        Lower,
        "mine_docs_per_s",
    ),
    layer("model.decide.ns_per_pair", "ns", Lower, "mine_docs_per_s"),
    layer("model.groups_fitted", "count", Lower, "update_s"),
    // core
    layer("core.run_on_evidence.s", "s", Lower, "mine_docs_per_s"),
    layer("core.snapshot_output.ms", "ms", Lower, "update_s"),
    layer("core.output_from_snapshot.ms", "ms", Lower, "load_s"),
    layer("core.index_build.ms", "ms", Lower, "load_s"),
    layer("core.find_opinion.ns", "ns", Lower, "serve_p50_us"),
    layer("core.update.load_ms", "ms", Lower, "update_s"),
    layer("core.update.extract_ms", "ms", Lower, "update_s"),
    layer("core.update.apply_ms", "ms", Lower, "update_s"),
    layer("core.update.save_ms", "ms", Lower, "update_s"),
    layer("core.update.groups_total", "count", Lower, "update_s"),
    layer("core.update.groups_dirty", "count", Lower, "update_s"),
    layer("core.update.groups_carried", "count", Higher, "update_s"),
    layer("core.update.groups_refit", "count", Lower, "update_s"),
    layer(
        "core.update.refit_changed_ratio",
        "ratio",
        Higher,
        "update_s",
    ),
    // wire
    layer("wire.encode.ms", "ms", Lower, "update_s"),
    layer("wire.encode.mb_per_s", "MB/s", Higher, "update_s"),
    layer("wire.decode.ms", "ms", Lower, "load_s"),
    layer("wire.decode.mb_per_s", "MB/s", Higher, "load_s"),
    layer("wire.snapshot_bytes", "B", Lower, "snapshot_bytes_per_pair"),
    // server, in process on the same request bytes
    layer("server.parse_head.ns", "ns", Lower, "serve_qps"),
    layer("server.route_decide.ns", "ns", Lower, "serve_p50_us"),
    layer("server.route_entity.ns", "ns", Lower, "serve_p95_us"),
    layer("server.render.ns", "ns", Lower, "serve_qps"),
    // server, seen from one client connection
    layer("server.connect.us_p50", "us", Lower, "serve_qps"),
    layer("server.first_byte.us_p50", "us", Lower, "serve_p50_us"),
    layer("server.exchange.us_p50", "us", Lower, "serve_p50_us"),
    layer("server.conn_reuse_ratio", "ratio", Higher, "serve_qps"),
    // server, from /proc/<pid>/stat and /metrics deltas
    layer("server.cpu_us_per_req", "us", Lower, "serve_qps"),
    layer("server.shed_ratio", "ratio", Lower, "serve_p95_us"),
    layer("server.deadline_expired", "count", Lower, "serve_p95_us"),
    layer("server.panics", "count", Lower, "serve_p95_us"),
    // server, the workload's open loop again, further into the tail
    layer("server.open.p50_us", "us", Lower, "serve_p50_us"),
    layer("server.open.p99_us", "us", Lower, "serve_p95_us"),
    // server, rate ladder
    layer("server.ladder.max_ok_rps", "req/s", Higher, "serve_qps"),
    layer(
        "server.ladder.p99_us_at_max_ok",
        "us",
        Lower,
        "serve_p95_us",
    ),
    layer("server.ladder.steps_run", "count", Higher, "serve_qps"),
    // loadgen: the benchmark itself; these say whether a run is valid.
    layer("loadgen.lateness_p99_us", "us", Lower, "serve_p95_us"),
    layer("loadgen.cpu_s", "s", Lower, "serve_qps"),
    layer("loadgen.threads", "count", Lower, "serve_qps"),
    // trace
    layer("trace.overhead_ratio", "ratio", Lower, "mine_docs_per_s"),
    layer("trace.ns_per_span", "ns", Lower, "mine_docs_per_s"),
    layer("trace.spans", "count", Lower, "mine_docs_per_s"),
];

/// The synthetic Web a workload mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldShape {
    /// `table2_world_sized`: 25 dense (type, property) combinations, most
    /// entities written about. `nlp` and `extract` do most of the work.
    Web { background_per_type: usize },
    /// `long_tail_world`: thousands of sparse combinations, most entities
    /// never mentioned. `model`, `wire` and `core::snapshot` dominate.
    LongTail {
        types: usize,
        entities_per_type: usize,
    },
}

/// When the hot reloads of a run happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reloads {
    /// One after each closed loop and one after each open loop, on an idle
    /// server: the cost of a reload alone. Reads come between any two, so
    /// both workers have let go of the old snapshot by the next: the
    /// server's peak memory is two snapshots, as it is under traffic, and
    /// not three whenever one worker happened to take two reloads in a row.
    Idle,
    /// During the open loop, one every `period_ms`, from a second thread:
    /// writes beside reads.
    UnderLoad { period_ms: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub world: WorldShape,
    pub shards: usize,
    pub rho: u64,
    /// Share of `--seconds` for the mine / update / load loop.
    pub mining_share: f64,
    /// Share of `--seconds` for the closed loop; the open loop has the rest.
    pub closed_share: f64,
    /// Open-loop arrival rate, a fifth to a quarter of closed-loop capacity.
    pub open_rps: f64,
    /// The latency limit of the rate ladder, on the p99 from due time:
    /// some three times a request's service time.
    pub ladder_p99_limit_us: f64,
    pub reloads: Reloads,
    /// Statements and decided pairs at seed 2015, asserted on that seed.
    pub known_at_2015: (u64, usize),
}

/// Threads mining runs with, workers the server runs with, and the most
/// threads and connections the load generator uses.
pub const THREADS: usize = 2;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "web_mine",
        why: "dense Web world: nlp+extract are most of a mine, model and wire little, so a parser gain shows here and an EM or wire gain does not; one thread reads while another hot-reloads two snapshots in turn",
        world: WorldShape::Web { background_per_type: 2400 },
        shards: 64,
        rho: 100,
        mining_share: 0.45,
        closed_share: 0.2,
        open_rps: 600.0,
        ladder_p99_limit_us: 2_000.0,
        reloads: Reloads::UnderLoad { period_ms: 500 },
        known_at_2015: (123_082, 60_500),
    },
    Workload {
        name: "longtail_update",
        why: "long-tail world, 1 % delta: EM is a third of a mine, snapshot load+save most of an update, half the groups carry, half refit; steady reads on a large index where the lookup is most of a request",
        world: WorldShape::LongTail { types: 200, entities_per_type: 150 },
        shards: 100,
        rho: 25,
        mining_share: 0.45,
        closed_share: 0.2,
        open_rps: 400.0,
        ladder_p99_limit_us: 5_000.0,
        reloads: Reloads::Idle,
        known_at_2015: (61_749, 203_134),
    },
];

impl Workload {
    /// Threads the open loop sends from: all of them, or all but the one
    /// that reloads.
    pub fn open_senders(&self) -> usize {
        match self.reloads {
            Reloads::Idle => THREADS,
            Reloads::UnderLoad { .. } => THREADS - 1,
        }
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload on a small world, for `--quick` and the tests:
    /// every code path and check, a fraction of the work.
    pub fn quick(&self) -> Workload {
        Workload {
            world: match self.world {
                WorldShape::Web { .. } => WorldShape::Web {
                    background_per_type: 60,
                },
                WorldShape::LongTail { .. } => WorldShape::LongTail {
                    types: 20,
                    entities_per_type: 150,
                },
            },
            shards: 8,
            open_rps: self.open_rps.min(500.0),
            known_at_2015: (0, 0),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
            assert!(
                w.mining_share + w.closed_share < 0.9,
                "{} leaves no open loop",
                w.name
            );
        }
    }

    #[test]
    fn every_layer_metric_names_the_end_to_end_metric_it_moves() {
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
        }
    }

    /// `BENCHMARK.json` repeats these tables for the driver.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .clone()
        };
        let text_of = |v: &serde_json::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .expect("string")
                .to_owned()
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(j, "name"), w.name);
            assert_eq!(text_of(j, "why"), w.why);
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), Some(m.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better.as_str());
        }
        let seconds = json
            .get("run_seconds")
            .and_then(|s| s.as_u64())
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
    }
}
