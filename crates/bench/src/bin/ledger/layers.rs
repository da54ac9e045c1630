//! The one file through which the benchmark calls the system under test.
//!
//! Everything else in this directory generates inputs, drives load, times
//! and checks; only this file names functions of the repository's crates.
//! A change that reshapes one of these entry points has to keep the call
//! here working, and README.md lists them.
//!
//! The first half holds the operations a run times end to end; the second
//! half walks the same layers one call at a time under spans, for the
//! traced run.

use crate::spec::{Workload, WorldShape};
use crate::trace::Tracer;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use surveyor::corpus::{presets, CorpusConfig, CorpusGenerator, RawDocument, World};
use surveyor::extract::{
    extract_sentence_into, run_sharded_full, ExtractContext, ExtractionOutput, GroupedEvidence,
    PatternCounts, ShardSource,
};
use surveyor::kb::KnowledgeBase;
use surveyor::model::{decide, posterior_positive, ObservedCounts, SurveyorModel};
use surveyor::nlp::{
    annotate_with, parse, split_sentences, tag_entities, tokenize_with, AnnotateScratch,
    AnnotatedDocument, Lexicon,
};
use surveyor::obs::MetricsRegistry;
use surveyor::wire::IncrementalState;
use surveyor::{
    FailurePolicy, RetryPolicy, SubjectiveKb, Surveyor, SurveyorConfig, SurveyorOutput,
    UpdateStats, WarmStart,
};
use surveyor_server::{
    parse_head, route, RouteContext, ServedState, ServerMetrics, SharedState, StateCache,
};

pub use surveyor::kb::Property;
pub use surveyor_server::percent_encode;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// A generated Web snapshot as raw text, sharded; what a mine reads.
pub struct Corpus {
    pub kb: Arc<KnowledgeBase>,
    pub lexicon: Lexicon,
    pub shards: Vec<Vec<RawDocument>>,
    pub docs: usize,
    pub text_bytes: usize,
}

fn build_world(shape: WorldShape, seed: u64) -> World {
    match shape {
        WorldShape::Web {
            background_per_type,
        } => presets::table2_world_sized(seed, background_per_type),
        WorldShape::LongTail {
            types,
            entities_per_type,
        } => presets::long_tail_world(types, entities_per_type, 8, seed),
    }
}

/// Builds the workload's world from `seed` and realises it as text.
pub fn generate_corpus(workload: &Workload, seed: u64, workers: usize) -> Corpus {
    let world = build_world(workload.world, seed);
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: workload.shards,
            ..CorpusConfig::default()
        },
    );
    let lexicon = generator.lexicon();
    let shards = generator.all_shards_text(workers);
    let docs = shards.iter().map(Vec::len).sum();
    let text_bytes = shards.iter().flatten().map(|d| d.text.len()).sum();
    Corpus {
        kb,
        lexicon,
        shards,
        docs,
        text_bytes,
    }
}

/// Raw text in, annotated documents out: annotation runs inside the shard
/// source, so it is part of every timed mine, as for a real crawl.
struct TextShards<'a> {
    shards: &'a [Vec<RawDocument>],
    kb: &'a KnowledgeBase,
    lexicon: &'a Lexicon,
}

impl<'a> TextShards<'a> {
    fn of(corpus: &'a Corpus, shards: Range<usize>) -> Self {
        Self {
            shards: &corpus.shards[shards],
            kb: &corpus.kb,
            lexicon: &corpus.lexicon,
        }
    }
}

impl ShardSource for TextShards<'_> {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
        let mut scratch = AnnotateScratch::default();
        Cow::Owned(
            self.shards[index]
                .iter()
                .map(|d| annotate_with(d.id, &d.text, self.kb, self.lexicon, &mut scratch))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Operations timed end to end
// ---------------------------------------------------------------------

/// What a mined snapshot holds, for the known-count checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MineCounts {
    pub statements: u64,
    pub decided_pairs: usize,
    pub groups: usize,
}

pub struct Miner {
    surveyor: Surveyor,
    rho: u64,
}

impl Miner {
    pub fn new(kb: &Arc<KnowledgeBase>, rho: u64, threads: usize) -> Self {
        let config = SurveyorConfig {
            rho,
            threads,
            ..SurveyorConfig::default()
        };
        Self {
            surveyor: Surveyor::new(kb.clone(), config),
            rho,
        }
    }

    fn state(&self, ingested_shards: usize) -> IncrementalState {
        IncrementalState {
            rho: self.rho,
            config_digest: self.surveyor.config().digest(),
            corpus_digest: 0,
            ingested: vec![(0, ingested_shards as u64)],
            pending: Vec::new(),
        }
    }

    /// Text of shards `0..upto` → updatable snapshot bytes.
    pub fn mine(&self, corpus: &Corpus, upto: usize) -> (Vec<u8>, MineCounts) {
        let output = self.surveyor.run(&TextShards::of(corpus, 0..upto));
        let counts = MineCounts {
            statements: output.evidence.total_statements(),
            decided_pairs: output.decided_pairs(),
            groups: output.modeled_combinations(),
        };
        (
            surveyor::save_snapshot_with_state(&output, &self.state(upto)),
            counts,
        )
    }

    /// Snapshot bytes of shards `0..from` + text of shards `from..` →
    /// snapshot bytes of the whole corpus.
    pub fn update(
        &self,
        base: &[u8],
        corpus: &Corpus,
        from: usize,
    ) -> Result<(Vec<u8>, UpdateStats), String> {
        let (base, _) = surveyor::load_snapshot_with_state(base).map_err(|e| e.to_string())?;
        let outcome = self
            .surveyor
            .try_update(
                base,
                &TextShards::of(corpus, from..corpus.shards.len()),
                &RetryPolicy::no_retries(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .map_err(|e| e.to_string())?;
        let bytes =
            surveyor::save_snapshot_with_state(&outcome.output, &self.state(corpus.shards.len()));
        Ok((bytes, outcome.stats))
    }
}

/// A snapshot loaded the way the server loads one.
pub struct Loaded {
    pub associations: usize,
    state: ServedState,
}

/// Snapshot bytes → the queryable state the server swaps in on a reload.
pub fn load_served(bytes: &[u8]) -> Result<Loaded, String> {
    let state = ServedState::from_snapshot_bytes(bytes, 1, "ledger").map_err(|e| e.to_string())?;
    Ok(Loaded {
        associations: state.store.len(),
        state,
    })
}

/// The benchmark's own index over a snapshot, from which it derives the
/// answers it expects from the server.
pub fn open_store(bytes: &[u8]) -> Result<SubjectiveKb, String> {
    let output = surveyor::load_snapshot(bytes).map_err(|e| e.to_string())?;
    Ok(SubjectiveKb::from_output(&output, output.kb()))
}

/// One stored association, flattened out of the index into plain data
/// the load generator can own.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPair {
    pub entity: String,
    pub type_name: String,
    pub property: String,
    pub positive: bool,
    pub probability: f64,
}

/// Every association of `store`, in the store's own order.
pub fn stored_pairs(store: &SubjectiveKb) -> Vec<StoredPair> {
    let mut pairs = Vec::with_capacity(store.len());
    for block in store.blocks() {
        let property = block.property.to_string();
        for opinion in &block.opinions {
            pairs.push(StoredPair {
                entity: opinion.entity_name.clone(),
                type_name: block.type_name.clone(),
                property: property.clone(),
                positive: opinion.positive,
                probability: opinion.probability,
            });
        }
    }
    pairs
}

/// `Some(positive)` for a stored pair, `None` for an absent one.
pub fn find_opinion(store: &SubjectiveKb, entity: &str, property: &str) -> Option<bool> {
    let property = Property::parse(property)?;
    store
        .find_opinion(entity, &property)
        .map(|(_, opinion)| opinion.positive)
}

// ---------------------------------------------------------------------
// The traced walk: one span per call into a layer
// ---------------------------------------------------------------------

/// Counts taken at the span boundaries of the mining walks.
#[derive(Debug, Default, Clone, Copy)]
pub struct MineTraceCounts {
    pub docs: u64,
    pub sentences_split: u64,
    pub sentences_tokenized: u64,
    pub parse_none: u64,
    pub sentences_parsed: u64,
    pub mentions: u64,
    pub sentences_yielding: u64,
    pub intern_hits: u64,
    pub intern_lookups: u64,
    pub groups_fitted: u64,
    pub entities_fitted: u64,
    pub em_iterations: u64,
    pub pairs_decided: u64,
}

/// Evidence and provenance out of extraction, to hand on to
/// [`trace_interpret`].
pub struct Extracted {
    pub statements: u64,
    output: ExtractionOutput,
}

impl From<ExtractionOutput> for Extracted {
    fn from(output: ExtractionOutput) -> Self {
        Self {
            statements: output.evidence.total_statements(),
            output,
        }
    }
}

/// Extraction of `shards` through the sharded runner, the only phase of a
/// mine that runs on more than one thread.
pub fn extract(corpus: &Corpus, shards: Range<usize>, threads: usize) -> Extracted {
    let config = SurveyorConfig::default().extraction;
    run_sharded_full(
        &TextShards::of(corpus, shards),
        &corpus.kb,
        &config,
        threads,
    )
    .into()
}

/// Extraction of `shards` on one thread, one layer call at a time. Root
/// span `extract.walk`: `nlp.annotate` per document, `extract.pattern`
/// per sentence, `extract.table_add` per statement.
pub fn trace_extract(
    t: &mut Tracer,
    corpus: &Corpus,
    shards: Range<usize>,
    counts: &mut MineTraceCounts,
) -> Extracted {
    let kb: &KnowledgeBase = &corpus.kb;
    let config = SurveyorConfig::default().extraction;
    let n_walk = t.name("extract.walk");
    let n_annotate = t.name("nlp.annotate");
    let n_pattern = t.name("extract.pattern");
    let n_table_add = t.name("extract.table_add");
    let extraction = t.span(n_walk, |t| {
        let mut extraction = ExtractionOutput::default();
        let mut scratch = AnnotateScratch::default();
        let mut cx = ExtractContext::new();
        let mut patterns = PatternCounts::default();
        let mut statements = Vec::new();
        // Shard by shard, annotating a whole shard before extracting from
        // it, as the sharded runner does through `ShardSource::shard`.
        for shard in &corpus.shards[shards] {
            let docs: Vec<AnnotatedDocument> = shard
                .iter()
                .map(|raw| {
                    t.span(n_annotate, |_| {
                        annotate_with(raw.id, &raw.text, kb, &corpus.lexicon, &mut scratch)
                    })
                })
                .collect();
            counts.docs += docs.len() as u64;
            for doc in &docs {
                for sentence in &doc.sentences {
                    counts.sentences_parsed += 1;
                    t.span(n_pattern, |_| {
                        extract_sentence_into(
                            sentence,
                            kb,
                            &config,
                            &mut patterns,
                            &mut cx,
                            &mut statements,
                        );
                    });
                    counts.sentences_yielding += u64::from(!statements.is_empty());
                    for statement in &statements {
                        t.span(n_table_add, |_| {
                            extraction.evidence.add(statement);
                            extraction.provenance.record(statement, doc.id);
                        });
                    }
                }
            }
        }
        let cache = cx.cache_stats();
        counts.intern_hits += cache.hits;
        counts.intern_lookups += cache.hits + cache.global_lookups;
        extraction
    });
    extraction.into()
}

/// Evidence → snapshot bytes, on one thread. Root span `interpret`:
/// `core.run_on_evidence`, `core.snapshot_output`, `wire.encode`. A
/// second root, `detail.model`, opens the lid on `run_on_evidence`.
pub fn trace_interpret(
    t: &mut Tracer,
    corpus: &Corpus,
    extracted: Extracted,
    rho: u64,
    counts: &mut MineTraceCounts,
) -> Vec<u8> {
    let miner = Miner::new(&corpus.kb, rho, 1);
    let n_interpret = t.name("interpret");
    let n_run_on_evidence = t.name("core.run_on_evidence");
    let n_snapshot_output = t.name("core.snapshot_output");
    let n_encode = t.name("wire.encode");
    let ExtractionOutput {
        evidence,
        provenance,
    } = extracted.output;
    let (bytes, output) = t.span(n_interpret, |t| {
        let mut output = t.span(n_run_on_evidence, |_| {
            miner.surveyor.run_on_evidence(evidence)
        });
        output.provenance = provenance;
        let state = miner.state(corpus.shards.len());
        let snapshot = t.span(n_snapshot_output, |_| {
            surveyor::snapshot_output_with_state(&output, &state)
        });
        let bytes = t.span(n_encode, |_| surveyor::wire::encode(&snapshot));
        (bytes, output)
    });
    trace_model_detail(t, &output, &corpus.kb, rho, counts);
    bytes
}

/// Root span `detail.nlp`: the five stages `annotate_with` runs, each
/// under its own span, over `shards`.
pub fn trace_nlp_detail(
    t: &mut Tracer,
    corpus: &Corpus,
    shards: Range<usize>,
    c: &mut MineTraceCounts,
) {
    let n_detail = t.name("detail.nlp");
    let n_split = t.name("nlp.split");
    let n_tokenize = t.name("nlp.tokenize");
    let n_pos_tag = t.name("nlp.pos_tag");
    let n_parse = t.name("nlp.parse");
    let n_entity_link = t.name("nlp.entity_link");
    t.span(n_detail, |t| {
        let mut trailing = Vec::new();
        for raw in corpus.shards[shards].iter().flatten() {
            let sentences = t.span(n_split, |_| split_sentences(&raw.text));
            c.sentences_split += sentences.len() as u64;
            for sentence in sentences {
                let mut tokens = t.span(n_tokenize, |_| tokenize_with(&mut trailing, sentence));
                if tokens.is_empty() {
                    continue;
                }
                c.sentences_tokenized += 1;
                t.span(n_pos_tag, |_| corpus.lexicon.tag(&mut tokens));
                let Some(_tree) = t.span(n_parse, |_| parse(&tokens)) else {
                    c.parse_none += 1;
                    continue;
                };
                let mentions = t.span(n_entity_link, |_| tag_entities(&tokens, &corpus.kb));
                c.mentions += mentions.len() as u64;
            }
        }
    });
}

/// What `run_on_evidence` does inside: group, then fit and decide each
/// combination above the threshold.
fn trace_model_detail(
    t: &mut Tracer,
    output: &SurveyorOutput,
    kb: &KnowledgeBase,
    rho: u64,
    c: &mut MineTraceCounts,
) {
    let n_detail = t.name("detail.model");
    let n_group = t.name("extract.group");
    let n_fit = t.name("model.fit");
    let n_decide = t.name("model.decide");
    t.span(n_detail, |t| {
        let grouped = t.span(n_group, |_| {
            GroupedEvidence::from_table(&output.evidence, kb)
        });
        let model = SurveyorModel::with_config(SurveyorConfig::default().em);
        let mut observed: Vec<ObservedCounts> = Vec::new();
        for (key, group) in grouped.above_threshold(rho) {
            observed.clear();
            observed.extend(kb.entities_of_type(key.type_id).iter().map(|&e| {
                let counts = group.counts(e);
                ObservedCounts::new(counts.positive, counts.negative)
            }));
            let fit = t.span(n_fit, |_| model.fit_group(&observed));
            c.groups_fitted += 1;
            c.entities_fitted += observed.len() as u64;
            c.em_iterations += fit.iterations as u64;
            let decided = t.span(n_decide, |_| {
                observed
                    .iter()
                    .filter(|&&counts| {
                        decide(posterior_positive(counts, &fit.params))
                            .decision
                            .is_solved()
                    })
                    .count()
            });
            c.pairs_decided += decided as u64;
        }
    });
}

/// Root span `load`: bytes → `wire.decode` → `core.output_from_snapshot`
/// → `core.index_build`; returns the store's size.
pub fn trace_load(t: &mut Tracer, bytes: &[u8]) -> Result<usize, String> {
    let n_load = t.name("load");
    let n_decode = t.name("wire.decode");
    let n_output = t.name("core.output_from_snapshot");
    let n_index = t.name("core.index_build");
    t.span(n_load, |t| {
        let snapshot = t
            .span(n_decode, |_| surveyor::wire::decode(bytes))
            .map_err(|e| e.to_string())?;
        let output = t
            .span(n_output, |_| surveyor::output_from_snapshot(&snapshot))
            .map_err(|e| e.to_string())?;
        let store = t.span(n_index, |_| SubjectiveKb::from_output(&output, output.kb()));
        Ok(store.len())
    })
}

/// What the traced update saw, beyond the library's own accounting.
#[derive(Debug, Clone, Copy)]
pub struct UpdateTrace {
    pub stats: UpdateStats,
    /// Refit groups whose decisions differ from the base's.
    pub refit_changed: usize,
}

/// Root span `update`, on one thread: `core.update.load`, `.extract`,
/// `.apply`, `.save`; returns the updated bytes.
pub fn trace_update(
    t: &mut Tracer,
    base: &[u8],
    corpus: &Corpus,
    from: usize,
    rho: u64,
) -> Result<(Vec<u8>, UpdateTrace), String> {
    let miner = Miner::new(&corpus.kb, rho, 1);
    let n_update = t.name("update");
    let n_load = t.name("core.update.load");
    let n_extract = t.name("core.update.extract");
    let n_apply = t.name("core.update.apply");
    let n_save = t.name("core.update.save");
    t.span(n_update, |t| {
        let (base_output, _) = t
            .span(n_load, |_| surveyor::load_snapshot_with_state(base))
            .map_err(|e| e.to_string())?;
        let before: HashMap<_, _> = base_output
            .results
            .iter()
            .map(|r| (r.key, r.decisions.clone()))
            .collect();
        let delta = t.span(n_extract, |_| {
            run_sharded_full(
                &TextShards::of(corpus, from..corpus.shards.len()),
                &corpus.kb,
                &miner.surveyor.config().extraction,
                1,
            )
        });
        let (output, stats) = t.span(n_apply, |_| {
            miner
                .surveyor
                .apply_delta(base_output, delta, WarmStart::Exact)
        });
        let bytes = t.span(n_save, |_| {
            surveyor::save_snapshot_with_state(&output, &miner.state(corpus.shards.len()))
        });
        // Carried groups are unchanged by construction, so a group whose
        // decisions moved is a refit group.
        let refit_changed = output
            .results
            .iter()
            .filter(|r| {
                before
                    .get(&r.key)
                    .is_some_and(|decisions| *decisions != r.decisions)
            })
            .count();
        Ok((
            bytes,
            UpdateTrace {
                stats,
                refit_changed,
            },
        ))
    })
}

/// Status and body of one reply computed in process.
pub struct RoutedReply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// The server's request path without sockets: `server.parse_head`,
/// `server.route_<kind>` and `server.render` on the request bytes the
/// load generator sends. `kind_of(i)` names the route span of request `i`.
pub fn trace_routes(
    t: &mut Tracer,
    bytes: &[u8],
    heads: &[&[u8]],
    kind_of: impl Fn(usize) -> &'static str,
) -> Result<Vec<RoutedReply>, String> {
    let shared = SharedState::new(Arc::new(load_served(bytes)?.state));
    let mut cache = StateCache::new(&shared);
    let metrics = ServerMetrics::new(Arc::new(MetricsRegistry::new()));
    let n_serve = t.name("serve.in_process");
    let n_parse = t.name("server.parse_head");
    let n_render = t.name("server.render");
    t.span(n_serve, |t| {
        let mut replies = Vec::with_capacity(heads.len());
        for (i, head) in heads.iter().enumerate() {
            let n_route = t.name(kind_of(i));
            let request = t
                .span(n_parse, |_| parse_head(head))
                .map_err(|e| e.to_string())?;
            let outcome = t.span(n_route, |_| {
                route(
                    &request,
                    &mut RouteContext {
                        shared: &shared,
                        cache: &mut cache,
                        metrics: &metrics,
                        debug_routes: false,
                    },
                )
            });
            let rendered = t.span(n_render, |_| outcome.response.render());
            std::hint::black_box(&rendered);
            replies.push(RoutedReply {
                status: outcome.response.status,
                body: outcome.response.body,
            });
        }
        Ok(replies)
    })
}
