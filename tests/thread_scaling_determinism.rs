//! Cross-thread-count determinism: the scaling rework hands worker
//! results back by value and merges them in shard order, so the evidence
//! table, the provenance samples, and the decided triples must be
//! byte-identical for 1/2/4/8 worker threads — on a clean run and under
//! a chaos plan that quarantines a shard. The same contract covers the
//! parallel corpus-materialization and evidence-grouping paths against
//! their serial counterparts.

use std::sync::Arc;
use surveyor::extract::{EvidenceEntry, ProvenanceTable};
use surveyor::prelude::*;
use surveyor::{Fault, OpinionTriple};
use surveyor_corpus::CorpusGenerator;

const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Two types of ten entities each, fresh from the builder: its name index
/// is built by whichever lookup comes first.
fn knowledge_base() -> KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for name in [
        "Kitten", "Puppy", "Pony", "Koala", "Tiger", "Spider", "Scorpion", "Rat", "Crow", "Moose",
    ] {
        b.add_entity(name, animal).finish();
    }
    for name in [
        "Arlen",
        "Bedrock",
        "Quahog",
        "Springfield",
        "Shelbyville",
        "Langley",
        "Sunnydale",
        "Gotham",
        "Metropolis",
        "Riverdale",
    ] {
        b.add_entity(name, city).finish();
    }
    b.build()
}

/// Two domains over two types, with adverb-graded properties, so the
/// interner sees a property mix wider than a single adjective.
fn world(seed: u64) -> (Arc<KnowledgeBase>, surveyor_corpus::World) {
    let kb = Arc::new(knowledge_base());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 18.0,
        rate_neg: 5.0,
        opinions: OpinionRule::RandomShare(0.5),
        plural_subjects: true,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), seed)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain("city", Property::adjective("big"), params)
        .build();
    (kb, world)
}

fn generator(seed: u64) -> (Arc<KnowledgeBase>, CorpusGenerator) {
    let (kb, world) = world(seed);
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: SHARDS,
            ..CorpusConfig::default()
        },
    );
    (kb, generator)
}

fn surveyor(kb: Arc<KnowledgeBase>, threads: usize) -> Surveyor {
    Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 20,
            threads,
            ..SurveyorConfig::default()
        },
    )
}

/// The sorted evidence rows, the provenance samples and the decisions.
type Fingerprint = (Vec<EvidenceEntry>, ProvenanceTable, Vec<OpinionTriple>);

/// The three views that must not depend on threading.
fn fingerprint(output: &SurveyorOutput) -> Fingerprint {
    (
        output.evidence.to_entries(),
        output.provenance.clone(),
        output.triples(),
    )
}

#[test]
fn clean_runs_are_byte_identical_across_thread_counts() {
    let (kb, generator) = generator(17);
    let mut reference: Option<Fingerprint> = None;
    for threads in THREAD_COUNTS {
        let run = surveyor(kb.clone(), threads).run(&CorpusSource::new(&generator));
        assert!(run.evidence.total_statements() > 0);
        assert!(run.decided_pairs() > 0);
        let fp = fingerprint(&run);
        match &reference {
            None => reference = Some(fp),
            Some(reference) => {
                assert_eq!(reference.0, fp.0, "evidence differs at {threads} threads");
                assert_eq!(reference.1, fp.1, "provenance differs at {threads} threads");
                assert_eq!(reference.2, fp.2, "decisions differ at {threads} threads");
            }
        }
    }
}

#[test]
fn a_name_index_built_by_racing_workers_mines_the_same_bytes() {
    // The generator's knowledge base has answered lookups; each miner's
    // has not, so its mine builds the name index, on whichever worker
    // looks a name up first.
    let (warm, generator) = generator(17);
    assert!(warm.entity_by_name("kitten").is_some());
    let reference = surveyor::save_snapshot(&surveyor(warm, 2).run(&CorpusSource::new(&generator)));
    for threads in [1, 2, 8] {
        let fresh = Arc::new(knowledge_base());
        let run = surveyor(fresh, threads).run(&CorpusSource::new(&generator));
        assert!(run.decided_pairs() > 0);
        assert!(
            surveyor::save_snapshot(&run) == reference,
            "snapshot differs at {threads} threads"
        );
    }
}

#[test]
fn chaos_runs_are_byte_identical_across_thread_counts() {
    // A transient shard (recovers via retry) and a permanent one (always
    // quarantined): the surviving shard set — and therefore every
    // serialized byte — is fixed regardless of which worker hits what.
    let plan = FaultPlan::none()
        .with(2, Fault::Transient { failures: 1 })
        .with(5, Fault::Permanent);
    let (kb, generator) = generator(17);
    let mut reference: Option<Fingerprint> = None;
    for threads in THREAD_COUNTS {
        let injector = FaultInjector::new(CorpusSource::new(&generator), plan.clone());
        let run = surveyor(kb.clone(), threads)
            .try_run(
                &injector,
                &RetryPolicy::immediate(),
                &FailurePolicy::Degrade {
                    min_shard_coverage: 0.5,
                },
            )
            .expect("7 of 8 shards survive the plan");
        assert_eq!(run.coverage.quarantined_shards(), vec![5]);
        assert_eq!(run.coverage.succeeded, SHARDS - 1);
        let fp = fingerprint(&run.output);
        match &reference {
            None => reference = Some(fp),
            Some(reference) => {
                assert_eq!(reference.0, fp.0, "evidence differs at {threads} threads");
                assert_eq!(reference.1, fp.1, "provenance differs at {threads} threads");
                assert_eq!(reference.2, fp.2, "decisions differ at {threads} threads");
            }
        }
    }
}

#[test]
fn parallel_generation_is_byte_identical_to_serial() {
    // Corpus materialization fans shards over a claim cursor; each shard
    // is an independent function of the seed, so the merged result must
    // match the one-shard-at-a-time serial path byte for byte at any
    // worker count.
    let (_kb, generator) = generator(17);
    let serial_text: Vec<_> = (0..generator.shard_count())
        .map(|s| generator.shard_text(s))
        .collect();
    for threads in THREAD_COUNTS {
        assert_eq!(
            serial_text,
            generator.all_shards_text(threads),
            "raw documents differ at {threads} workers"
        );
    }
}

#[test]
fn grouping_is_identical_across_thread_counts() {
    // Grouping is serial; what feeds it is not. The grouping of a run's
    // evidence table (including the property-resolved group ordering)
    // must not move with the worker count.
    let (kb, generator) = generator(17);
    let group = |threads| {
        let run = surveyor(kb.clone(), threads).run(&CorpusSource::new(&generator));
        surveyor_extract::GroupedEvidence::from_table(&run.evidence, &kb)
    };
    let reference = group(1);
    assert!(!reference.is_empty());
    for threads in THREAD_COUNTS {
        assert_eq!(
            reference,
            group(threads),
            "grouped evidence differs at {threads} workers"
        );
    }
}

#[test]
fn clean_and_chaos_free_paths_agree() {
    // A fault-free injector must reproduce the plain run exactly: the
    // fault layer may not perturb extraction output.
    let (kb, generator) = generator(17);
    let plain = surveyor(kb.clone(), 4).run(&CorpusSource::new(&generator));
    let injector = FaultInjector::new(CorpusSource::new(&generator), FaultPlan::none());
    let hardened = surveyor(kb, 4)
        .try_run(
            &injector,
            &RetryPolicy::no_retries(),
            &FailurePolicy::FailFast,
        )
        .expect("no faults injected");
    assert_eq!(fingerprint(&plain), fingerprint(&hardened.output));
}
