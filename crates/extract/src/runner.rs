//! Sharded, multi-threaded extraction driver.
//!
//! The paper ran extraction "on up to 5000 nodes" over a 40 TB snapshot
//! (§7.1). The reproduction's corpus is sharded the same way; this module
//! fans shards out over the [`claim_fold`] worker pool. An attempt at a
//! shard writes `(statement, document)` pairs into one flat buffer the
//! worker owns; only when the attempt has succeeded are they counted into
//! the worker's [`EvidenceTable`] and [`ProvenanceTable`], so a failed
//! attempt leaves no residue and a shard builds no tables of its own. The
//! per-worker tables are merged reduce-style — counting and merging are
//! associative and commutative, so neither shard assignment nor completion
//! order can change the result.
//!
//! There is one driver, [`run_sharded_fault_tolerant`]: per-shard work
//! runs under `catch_unwind` so a poisoned shard cannot take down the
//! run, transient failures retry with capped exponential backoff, and
//! shards that exhaust their attempt budget are quarantined (see
//! [`crate::fault`]). The infallible [`run_sharded_full`] is that driver
//! with a one-attempt budget, re-raising the first shard panic.

use crate::config::ExtractionConfig;
use crate::evidence::{EvidenceTable, Statement};
use crate::fault::{
    FailurePolicy, FallibleShardSource, QuarantinedShard, RetryPolicy, RunError, RunOutcome,
    ShardCoverage, ShardError,
};
use crate::patterns::{extract_sentence_into, ExtractContext, PatternCounts};
use crate::provenance::ProvenanceTable;
use std::borrow::Cow;
use std::ops::ControlFlow;
use surveyor_kb::{CacheStats, KnowledgeBase};
use surveyor_nlp::AnnotatedDocument;
use surveyor_obs::{claim_fold, MetricsRegistry};

/// A source of document shards that worker threads can pull from.
///
/// Implementations generate or load shard `i` on demand; the corpus crate's
/// generator implements this so documents never need to be materialized all
/// at once.
pub trait ShardSource: Sync {
    /// Number of shards available.
    fn shard_count(&self) -> usize;
    /// Materializes shard `index` (`0 <= index < shard_count`). Sources that
    /// already hold annotated documents in memory return borrowed shards;
    /// generating/loading sources return owned ones.
    fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]>;
}

/// A pre-materialized slice shards itself by reference: one borrowed chunk
/// per available core, so every worker gets work and nothing is cloned.
/// (This used to deep-clone the entire slice as a single shard, serializing
/// the whole batch onto one worker.)
impl ShardSource for &[AnnotatedDocument] {
    fn shard_count(&self) -> usize {
        let chunk = slice_chunk_size(self.len());
        self.len().div_ceil(chunk)
    }

    fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
        let chunk = slice_chunk_size(self.len());
        let start = index * chunk;
        Cow::Borrowed(&self[start..(start + chunk).min(self.len())])
    }
}

/// Chunk size that splits `len` documents into at most one shard per
/// available core (minimum one document per shard).
fn slice_chunk_size(len: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    len.div_ceil(cores).max(1)
}

/// Extraction results: the counters plus supporting-document samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractionOutput {
    /// Evidence counters per entity-property pair.
    pub evidence: EvidenceTable,
    /// Bounded supporting-document samples per pair.
    pub provenance: ProvenanceTable,
}

impl ExtractionOutput {
    fn merge(&mut self, other: ExtractionOutput) {
        self.evidence.merge(other.evidence);
        self.provenance.merge(other.provenance);
    }

    /// Counts one shard's statements in.
    fn commit(&mut self, statements: &[(Statement, u64)]) {
        for (statement, document) in statements {
            self.evidence.add(statement);
            self.provenance.record(statement, *document);
        }
    }
}

/// Worker-local extraction tallies. Plain integers incremented on the
/// hot path; flushed into a [`MetricsRegistry`] once per worker when the
/// worker finishes, so observation adds no per-document synchronization.
#[derive(Debug, Clone, Copy, Default)]
struct ExtractStats {
    /// Documents processed.
    documents: u64,
    /// Sentences scanned.
    sentences: u64,
    /// Statements extracted (post-dedup).
    statements: u64,
    /// Raw per-pattern hits (pre-dedup), and the sentences no pattern was
    /// tried on.
    patterns: PatternCounts,
}

impl ExtractStats {
    fn merge(&mut self, other: ExtractStats) {
        self.documents += other.documents;
        self.sentences += other.sentences;
        self.statements += other.statements;
        self.patterns.merge(other.patterns);
    }

    /// Flushes the tallies into `extract.*` counters.
    fn flush(&self, obs: &MetricsRegistry) {
        obs.add("extract.documents", self.documents);
        obs.add("extract.sentences", self.sentences);
        obs.add("extract.sentences_skipped", self.patterns.skipped);
        obs.add("extract.statements", self.statements);
        obs.add("extract.pattern_hits.acomp", self.patterns.acomp);
        obs.add("extract.pattern_hits.amod", self.patterns.amod);
    }
}

/// Extracts evidence from a document batch sequentially.
pub fn extract_documents(
    docs: &[AnnotatedDocument],
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
) -> EvidenceTable {
    let (mut stats, mut cx) = (ExtractStats::default(), ExtractContext::new());
    let mut found = Vec::new();
    extract_documents_ctx(docs, kb, config, &mut stats, &mut cx, &mut found);
    let mut evidence = EvidenceTable::new();
    for (statement, _) in &found {
        evidence.add(statement);
    }
    evidence
}

/// The worker loop: extraction over one document batch, threading a
/// long-lived [`ExtractContext`] through every sentence, so statement
/// buffers and the interner cache persist across documents (and across
/// shards, when the caller reuses the context). Appends every statement
/// to `found` with the document that made it — the provenance of §2
/// ("offer links to supporting content on the Web as query result").
fn extract_documents_ctx(
    docs: &[AnnotatedDocument],
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    stats: &mut ExtractStats,
    cx: &mut ExtractContext,
    found: &mut Vec<(Statement, u64)>,
) {
    let mut statements: Vec<Statement> = Vec::new();
    for doc in docs {
        stats.documents += 1;
        for sentence in &doc.sentences {
            stats.sentences += 1;
            extract_sentence_into(
                sentence,
                kb,
                config,
                &mut stats.patterns,
                cx,
                &mut statements,
            );
            stats.statements += statements.len() as u64;
            found.extend(statements.iter().map(|statement| (*statement, doc.id)));
        }
    }
}

/// Runs extraction over all shards of `source` on `num_threads` workers and
/// returns the merged evidence and provenance tables:
/// [`run_sharded_fault_tolerant`] with one attempt per shard and
/// [`FailurePolicy::FailFast`], a shard panic re-raised as a panic of the
/// run.
///
/// Work distribution is dynamic (an atomic shard cursor), so skewed shard
/// sizes — which the Zipf-popularity corpus produces — still balance.
///
/// # Panics
/// Panics if `num_threads == 0`, or when a shard panics.
pub fn run_sharded_full<S: ShardSource>(
    source: &S,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    num_threads: usize,
) -> ExtractionOutput {
    let (retry, policy) = (RetryPolicy::no_retries(), FailurePolicy::FailFast);
    match run_sharded_fault_tolerant(source, kb, config, num_threads, &retry, &policy, None) {
        Ok(outcome) => outcome.output,
        Err(error) => error.into_panic(),
    }
}

/// One attempt at materializing and extracting a shard, with panics
/// caught and classified as [`ShardError::Panicked`]. The attempt's
/// statements land in `found`, which is emptied first, and its stats are
/// produced fresh, so a failed attempt leaves no residue: the caller
/// commits `found` only on `Ok`. The context survives across attempts: its
/// cache only holds mappings the global interner handed out, so an unwound
/// attempt cannot leave it inconsistent.
fn attempt_shard<F: FallibleShardSource>(
    source: &F,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    index: usize,
    attempt: u32,
    cx: &mut ExtractContext,
    found: &mut Vec<(Statement, u64)>,
) -> Result<ExtractStats, ShardError> {
    found.clear();
    let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        source.try_shard(index, attempt).map(|docs| {
            let mut stats = ExtractStats::default();
            extract_documents_ctx(&docs, kb, config, &mut stats, cx, found);
            stats
        })
    }));
    match unwind {
        Ok(result) => result,
        Err(payload) => Err(ShardError::Panicked(panic_message(&payload))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs extraction over all shards of a fallible `source` with panic
/// isolation, retry, and quarantine — the one sharded driver.
///
/// Per shard: up to `retry.max_attempts` attempts, each under
/// `catch_unwind`. Transient errors retry after a capped-exponential
/// backoff ([`RetryPolicy::backoff`]); permanent errors and panics fail
/// the shard immediately. A shard that exhausts its budget is handled per
/// `policy`:
///
/// - [`FailurePolicy::FailFast`] — workers stop pulling new shards and
///   the run returns [`RunError::ShardFailed`] naming the lowest-indexed
///   failed shard. (The shard cursor is monotonic, so every shard below
///   the first faulty one was already pulled and clean — the lowest
///   observed failure is deterministic for a deterministic source.)
/// - [`FailurePolicy::Degrade`] — the shard is quarantined and the run
///   continues; once all shards are settled the coverage fraction is
///   checked against the floor and the run either returns
///   [`RunError::CoverageBelowFloor`] or the merged output of every
///   surviving shard, plus the full [`ShardCoverage`] accounting.
///
/// Dropping or retrying shards is semantically safe because evidence
/// merge is associative and commutative: the output over the surviving
/// shard set is bit-identical to a clean run over only those shards, for
/// any worker count and completion order. Observation (`obs`) flushes
/// `extract.*` counters from surviving shards only, and only on success;
/// the extracted evidence is identical with or without it.
///
/// # Panics
/// Panics if `num_threads == 0`.
pub fn run_sharded_fault_tolerant<F: FallibleShardSource>(
    source: &F,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    num_threads: usize,
    retry: &RetryPolicy,
    policy: &FailurePolicy,
    obs: Option<&MetricsRegistry>,
) -> Result<RunOutcome, RunError> {
    assert!(num_threads > 0, "need at least one worker thread");
    let max_attempts = retry.max_attempts.max(1);
    let fail_fast = matches!(policy, FailurePolicy::FailFast);
    let shard_count = source.shard_count();

    // Each worker counts the shards it claims into a table of its own;
    // the pool hands the workers back ordered by lowest claimed shard, so
    // the merge sequence below is a function of shard assignment, never
    // of completion order. (Evidence merge is commutative, so this
    // ordering is belt and braces for bit-identity across thread counts.)
    let mut workers = claim_fold(
        shard_count,
        num_threads,
        WorkerState::default,
        |worker, shard| {
            let mut attempt = 0u32;
            let error = loop {
                let WorkerState {
                    cx, found, output, ..
                } = worker;
                match attempt_shard(source, kb, config, shard, attempt, cx, found) {
                    Ok(stats) => {
                        output.commit(found);
                        worker.stats.merge(stats);
                        worker.succeeded += 1;
                        return ControlFlow::Continue(());
                    }
                    Err(error) if error.is_transient() && attempt + 1 < max_attempts => {
                        let delay = retry.backoff(attempt);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        worker.retries += 1;
                        attempt += 1;
                    }
                    Err(error) => break error,
                }
            };
            worker.quarantined.push(QuarantinedShard {
                shard,
                attempts: attempt + 1,
                error,
            });
            if fail_fast {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );

    // Under FailFast a worker breaks on the shard it has just pushed, so
    // the lowest breaking index names the failure to report.
    if let Some(failed) = workers
        .iter_mut()
        .filter(|worker| worker.broke_at.is_some())
        .min_by_key(|worker| worker.broke_at)
        .and_then(|worker| worker.state.quarantined.pop())
    {
        return Err(RunError::ShardFailed {
            shard: failed.shard,
            attempts: failed.attempts,
            error: failed.error,
        });
    }

    let mut result = ExtractionOutput::default();
    let mut stats = ExtractStats::default();
    let mut cache = CacheStats::default();
    let mut succeeded = 0usize;
    let mut retries = 0u64;
    let mut quarantined: Vec<QuarantinedShard> = Vec::new();
    for worker in workers {
        let state = worker.state;
        result.merge(state.output);
        stats.merge(state.stats);
        cache.merge(state.cx.cache_stats());
        succeeded += state.succeeded;
        retries += state.retries;
        quarantined.extend(state.quarantined);
        if let Some(obs) = obs {
            obs.observe("extract.worker.work_seconds", worker.work.as_secs_f64());
            obs.observe(
                "extract.worker.queue_wait_seconds",
                worker.wait.as_secs_f64(),
            );
        }
    }
    quarantined.sort_by_key(|q| q.shard);
    let coverage = ShardCoverage {
        shard_count,
        succeeded,
        retries,
        quarantined,
    };
    if let FailurePolicy::Degrade { min_shard_coverage } = policy {
        if coverage.fraction() < *min_shard_coverage {
            return Err(RunError::CoverageBelowFloor {
                succeeded: coverage.succeeded,
                shard_count: coverage.shard_count,
                min_shard_coverage: *min_shard_coverage,
                quarantined: coverage.quarantined_shards(),
            });
        }
    }
    if let Some(obs) = obs {
        stats.flush(obs);
        obs.add("extract.intern.cache_hits", cache.hits);
        obs.add("extract.intern.global_lookups", cache.global_lookups);
    }
    Ok(RunOutcome {
        output: result,
        coverage,
    })
}

/// Everything one worker accumulates, handed back by value over the
/// pool's join.
#[derive(Default)]
struct WorkerState {
    cx: ExtractContext,
    /// The statements of the attempt in flight, with their documents.
    found: Vec<(Statement, u64)>,
    output: ExtractionOutput,
    stats: ExtractStats,
    succeeded: usize,
    retries: u64,
    /// Shards that exhausted their attempt budget on this worker; under
    /// `FailFast` at most one, the shard the worker broke on.
    quarantined: Vec<QuarantinedShard>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_kb::{KnowledgeBaseBuilder, Property};
    use surveyor_nlp::{annotate, Lexicon};

    struct TextShards {
        shards: Vec<Vec<String>>,
        kb: KnowledgeBase,
        lexicon: Lexicon,
    }

    impl ShardSource for TextShards {
        fn shard_count(&self) -> usize {
            self.shards.len()
        }

        fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
            Cow::Owned(
                self.shards[index]
                    .iter()
                    .enumerate()
                    .map(|(i, text)| {
                        annotate((index * 1000 + i) as u64, text, &self.kb, &self.lexicon)
                    })
                    .collect(),
            )
        }
    }

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Tiger", animal).finish();
        b.build()
    }

    fn source(kb: KnowledgeBase) -> TextShards {
        let mut shards = Vec::new();
        for s in 0..8 {
            let mut docs = Vec::new();
            for d in 0..5 {
                if (s + d) % 3 == 0 {
                    docs.push("Kittens are cute. Tigers are not cute.".to_owned());
                } else {
                    docs.push("Kittens are cute animals.".to_owned());
                }
            }
            shards.push(docs);
        }
        TextShards {
            shards,
            kb,
            lexicon: Lexicon::new(),
        }
    }

    #[test]
    fn sequential_extraction_counts() {
        let kb = kb();
        let lex = Lexicon::new();
        let docs = vec![
            annotate(0, "Kittens are cute. Tigers are not cute.", &kb, &lex),
            annotate(1, "Kittens are cute animals.", &kb, &lex),
        ];
        let table = extract_documents(&docs, &kb, &ExtractionConfig::paper_final());
        let cute = Property::adjective("cute");
        let kitten = kb.entity_by_name("Kitten").unwrap();
        let tiger = kb.entity_by_name("Tiger").unwrap();
        assert_eq!(table.counts(kitten, &cute).positive, 2);
        assert_eq!(table.counts(tiger, &cute).negative, 1);
        assert_eq!(table.total_statements(), 3);
    }

    #[test]
    fn parallel_matches_sequential() {
        let kb = kb();
        let src = source(kb.clone());
        let config = ExtractionConfig::paper_final();
        let seq = run_sharded_full(&src, &kb, &config, 1);
        for threads in [2, 4, 8] {
            let par = run_sharded_full(&src, &kb, &config, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn observed_run_matches_and_fills_counters() {
        let kb = kb();
        let src = source(kb.clone());
        let config = ExtractionConfig::paper_final();
        let plain = run_sharded_full(&src, &kb, &config, 4);
        let obs = MetricsRegistry::new();
        let observed = run_sharded_fault_tolerant(
            &src,
            &kb,
            &config,
            4,
            &RetryPolicy::no_retries(),
            &FailurePolicy::FailFast,
            Some(&obs),
        )
        .unwrap()
        .output;
        assert_eq!(plain, observed);
        assert_eq!(obs.counter_value("extract.documents"), 40);
        assert!(obs.counter_value("extract.sentences") >= 40);
        // Every sentence of this fixture names an entity and an adjective.
        assert_eq!(obs.counter_value("extract.sentences_skipped"), 0);
        assert_eq!(
            obs.counter_value("extract.statements"),
            observed.evidence.total_statements()
        );
        // Every statement in this fixture comes from the acomp pattern
        // ("Kittens are cute"), none from amod.
        assert!(obs.counter_value("extract.pattern_hits.acomp") > 0);
    }

    #[test]
    fn skipped_sentences_are_counted_per_surviving_shard() {
        // Two of a document's three sentences cannot match: one names no
        // entity, one has no adjective.
        let kb = kb();
        let text = "Kittens are cute. The weather is nice. Tigers sleep.".to_owned();
        let src = TextShards {
            shards: vec![vec![text.clone(), text.clone()], vec![text]],
            kb: kb.clone(),
            lexicon: Lexicon::new(),
        };
        /// `(sentences, sentences skipped, statements)` of an observed
        /// two-thread run that degrades on failure.
        fn observed<F: FallibleShardSource>(source: &F, kb: &KnowledgeBase) -> (u64, u64, u64) {
            let obs = MetricsRegistry::new();
            let outcome = run_sharded_fault_tolerant(
                source,
                kb,
                &ExtractionConfig::paper_final(),
                2,
                &RetryPolicy::immediate(),
                &FailurePolicy::degrade_unchecked(),
                Some(&obs),
            )
            .unwrap();
            (
                obs.counter_value("extract.sentences"),
                obs.counter_value("extract.sentences_skipped"),
                outcome.output.evidence.total_statements(),
            )
        }
        assert_eq!(observed(&src, &kb), (9, 6, 3));
        // A shard that fails once and is retried is counted once; a shard
        // that is quarantined is not counted at all.
        let flaky = crate::fault::FaultInjector::new(
            src,
            crate::fault::FaultPlan::none()
                .with(0, crate::fault::Fault::Transient { failures: 1 })
                .with(1, crate::fault::Fault::Panic),
        );
        let survived = observed(&flaky, &kb);
        assert_eq!(survived, (6, 4, 2));
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let kb = kb();
        let src = source(kb.clone());
        let table = run_sharded_full(&src, &kb, &ExtractionConfig::paper_final(), 64);
        assert!(table.evidence.total_statements() > 0);
    }

    #[test]
    fn slice_shard_source() {
        let kb = kb();
        let lex = Lexicon::new();
        let docs = vec![annotate(0, "Kittens are cute.", &kb, &lex)];
        let slice: &[AnnotatedDocument] = &docs;
        let table = run_sharded_full(&slice, &kb, &ExtractionConfig::paper_final(), 2);
        assert_eq!(table.evidence.total_statements(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let kb = kb();
        let docs: Vec<AnnotatedDocument> = Vec::new();
        let slice: &[AnnotatedDocument] = &docs;
        let _ = run_sharded_full(&slice, &kb, &ExtractionConfig::paper_final(), 0);
    }

    mod fault_tolerance {
        use super::*;
        use crate::fault::{FailurePolicy, Fault, FaultInjector, FaultPlan, RetryPolicy, RunError};

        fn chaotic(plan: FaultPlan) -> (KnowledgeBase, FaultInjector<TextShards>) {
            let kb = kb();
            let src = source(kb.clone());
            (kb, FaultInjector::new(src, plan))
        }

        #[test]
        fn zero_faults_output_is_bit_identical_to_plain_runner() {
            let kb = kb();
            let src = source(kb.clone());
            let config = ExtractionConfig::paper_final();
            let plain = run_sharded_full(&src, &kb, &config, 4);
            for threads in [1, 4] {
                let outcome = run_sharded_fault_tolerant(
                    &src,
                    &kb,
                    &config,
                    threads,
                    &RetryPolicy::default(),
                    &FailurePolicy::Degrade {
                        min_shard_coverage: 1.0,
                    },
                    None,
                )
                .unwrap();
                assert_eq!(outcome.output, plain);
                assert_eq!(outcome.coverage.succeeded, ShardSource::shard_count(&src));
                assert_eq!(outcome.coverage.retries, 0);
                assert!(outcome.coverage.quarantined.is_empty());
                assert_eq!(outcome.coverage.fraction(), 1.0);
            }
        }

        #[test]
        fn a_panic_mid_shard_leaves_no_residue() {
            // Shard 0 yields a statement, then panics inside extraction (a
            // mention past the end of its sentence); the same worker goes
            // on to shard 1. What shard 0 had found by then must not be
            // counted.
            let kb = kb();
            let lex = Lexicon::new();
            let mut poisoned = annotate(0, "Tigers are cute. Kittens are cute.", &kb, &lex);
            let kitten = poisoned.sentences[1].mentions[0].entity;
            poisoned.sentences[1].mentions.push(surveyor_nlp::Mention {
                entity: kitten,
                start: 98,
                end: 99,
            });
            let clean = annotate(1, "Kittens are cute.", &kb, &lex);
            let docs = [poisoned, clean.clone()];
            struct OnePerShard<'a>(&'a [AnnotatedDocument]);
            impl ShardSource for OnePerShard<'_> {
                fn shard_count(&self) -> usize {
                    self.0.len()
                }
                fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
                    Cow::Borrowed(&self.0[index..=index])
                }
            }
            let config = ExtractionConfig::paper_final();
            let outcome = run_sharded_fault_tolerant(
                &OnePerShard(&docs),
                &kb,
                &config,
                1,
                &RetryPolicy::immediate(),
                &FailurePolicy::degrade_unchecked(),
                None,
            )
            .unwrap();
            assert_eq!(outcome.coverage.quarantined_shards(), vec![0]);
            let only_clean = run_sharded_full(&OnePerShard(&[clean]), &kb, &config, 1);
            assert_eq!(outcome.output, only_clean);
            assert_eq!(outcome.output.evidence.total_statements(), 1);
        }

        #[test]
        fn panicking_shard_is_isolated_and_quarantined() {
            let (kb, src) = chaotic(FaultPlan::none().with(3, Fault::Panic));
            let config = ExtractionConfig::paper_final();
            let outcome = run_sharded_fault_tolerant(
                &src,
                &kb,
                &config,
                4,
                &RetryPolicy::immediate(),
                &FailurePolicy::degrade_unchecked(),
                None,
            )
            .unwrap();
            assert_eq!(outcome.coverage.quarantined_shards(), vec![3]);
            assert_eq!(outcome.coverage.succeeded, 7);
            assert_eq!(outcome.coverage.attempted(), 8);
            // Panics do not burn retries.
            assert_eq!(outcome.coverage.quarantined[0].attempts, 1);
            assert!(matches!(
                outcome.coverage.quarantined[0].error,
                crate::fault::ShardError::Panicked(_)
            ));
            // The surviving output equals a clean run over the other shards.
            let full = run_sharded_full(src.inner(), &kb, &config, 4);
            assert!(outcome.output.evidence.total_statements() < full.evidence.total_statements());
        }

        #[test]
        fn transient_faults_recover_via_retry_with_identical_output() {
            let plan = FaultPlan::none()
                .with(1, Fault::Transient { failures: 1 })
                .with(5, Fault::Transient { failures: 2 });
            let (kb, src) = chaotic(plan);
            let config = ExtractionConfig::paper_final();
            let outcome = run_sharded_fault_tolerant(
                &src,
                &kb,
                &config,
                4,
                &RetryPolicy::immediate(),
                &FailurePolicy::Degrade {
                    min_shard_coverage: 1.0,
                },
                None,
            )
            .unwrap();
            assert_eq!(outcome.coverage.succeeded, 8);
            assert_eq!(outcome.coverage.retries, 3);
            assert!(outcome.coverage.quarantined.is_empty());
            assert_eq!(
                outcome.output,
                run_sharded_full(src.inner(), &kb, &config, 4)
            );
        }

        #[test]
        fn exhausted_transient_shard_is_quarantined_with_attempt_budget() {
            let (kb, src) = chaotic(FaultPlan::none().with(2, Fault::Transient { failures: 99 }));
            let outcome = run_sharded_fault_tolerant(
                &src,
                &kb,
                &ExtractionConfig::paper_final(),
                2,
                &RetryPolicy::immediate(),
                &FailurePolicy::degrade_unchecked(),
                None,
            )
            .unwrap();
            assert_eq!(outcome.coverage.quarantined_shards(), vec![2]);
            assert_eq!(
                outcome.coverage.quarantined[0].attempts,
                RetryPolicy::immediate().max_attempts
            );
            assert_eq!(
                outcome.coverage.retries,
                u64::from(RetryPolicy::immediate().max_attempts - 1)
            );
        }

        #[test]
        fn fail_fast_names_the_lowest_failed_shard() {
            let plan = FaultPlan::none()
                .with(2, Fault::Permanent)
                .with(6, Fault::Panic);
            let (kb, src) = chaotic(plan);
            for threads in [1, 4] {
                let err = run_sharded_fault_tolerant(
                    &src,
                    &kb,
                    &ExtractionConfig::paper_final(),
                    threads,
                    &RetryPolicy::immediate(),
                    &FailurePolicy::FailFast,
                    None,
                )
                .unwrap_err();
                match err {
                    RunError::ShardFailed { shard, .. } => assert_eq!(shard, 2),
                    other => panic!("unexpected error: {other:?}"),
                }
            }
        }

        #[test]
        fn coverage_floor_rejects_too_degraded_runs() {
            let plan = FaultPlan::none()
                .with(0, Fault::Permanent)
                .with(1, Fault::Permanent)
                .with(2, Fault::Permanent);
            let (kb, src) = chaotic(plan);
            let err = run_sharded_fault_tolerant(
                &src,
                &kb,
                &ExtractionConfig::paper_final(),
                4,
                &RetryPolicy::immediate(),
                &FailurePolicy::Degrade {
                    min_shard_coverage: 0.9,
                },
                None,
            )
            .unwrap_err();
            match err {
                RunError::CoverageBelowFloor {
                    succeeded,
                    shard_count,
                    quarantined,
                    ..
                } => {
                    assert_eq!((succeeded, shard_count), (5, 8));
                    assert_eq!(quarantined, vec![0, 1, 2]);
                }
                other => panic!("unexpected error: {other:?}"),
            }
        }

        #[test]
        #[should_panic(expected = "extraction worker panicked on shard")]
        fn legacy_api_still_panics_on_poisoned_shard() {
            struct Poisoned;
            impl ShardSource for Poisoned {
                fn shard_count(&self) -> usize {
                    2
                }
                fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
                    if index == 1 {
                        panic!("poisoned shard");
                    }
                    Cow::Owned(Vec::new())
                }
            }
            let kb = kb();
            let _ = run_sharded_full(&Poisoned, &kb, &ExtractionConfig::paper_final(), 2);
        }

        #[test]
        fn slow_shard_still_succeeds() {
            let (kb, src) = chaotic(FaultPlan::none().with(4, Fault::Slow { millis: 1 }));
            let config = ExtractionConfig::paper_final();
            let outcome = run_sharded_fault_tolerant(
                &src,
                &kb,
                &config,
                4,
                &RetryPolicy::immediate(),
                &FailurePolicy::Degrade {
                    min_shard_coverage: 1.0,
                },
                None,
            )
            .unwrap();
            assert_eq!(outcome.coverage.succeeded, 8);
            assert_eq!(
                outcome.output,
                run_sharded_full(src.inner(), &kb, &config, 4)
            );
        }
    }
}
