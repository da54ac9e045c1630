//! Incremental-update determinism: mining a base prefix of the corpus
//! and then ingesting the remaining shards with [`Surveyor::try_update`]
//! must produce a snapshot byte-identical to mining the whole corpus
//! from scratch — at every worker thread count, for every split point,
//! after multiple successive deltas, and after replaying shards a chaos
//! plan quarantined. An update re-fits dirty groups with the same cold
//! multi-restart EM a from-scratch run uses and carries clean
//! groups forward untouched, so identity holds by construction; these
//! tests pin that construction against regressions in the merge and
//! carry paths.

use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::{save_snapshot, WarmStart};
use surveyor_corpus::CorpusGenerator;

const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Two domains over two types — the same world the thread-scaling suite
/// uses, so failures here isolate the incremental path.
fn world(seed: u64) -> (Arc<KnowledgeBase>, surveyor_corpus::World) {
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
    let kb = Arc::new(b.build());
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

/// Mines shards `[0, upto)` — the base snapshot an update extends.
fn mine_prefix(surv: &Surveyor, generator: &CorpusGenerator, upto: usize) -> SurveyorOutput {
    let subset = ShardSubset::range(CorpusSource::new(generator), 0, upto);
    surv.try_run(
        &subset,
        &RetryPolicy::no_retries(),
        &FailurePolicy::FailFast,
    )
    .expect("clean base mine")
    .output
}

#[test]
fn update_is_byte_identical_to_from_scratch_across_thread_counts() {
    let (kb, generator) = generator(17);
    let reference = {
        let scratch = surveyor(kb.clone(), 1).run(&CorpusSource::new(&generator));
        save_snapshot(&scratch)
    };
    let base_shards = SHARDS - 2;
    for threads in THREAD_COUNTS {
        let surv = surveyor(kb.clone(), threads);
        let scratch_t = surv.run(&CorpusSource::new(&generator));
        assert_eq!(
            save_snapshot(&scratch_t),
            reference,
            "from-scratch bytes differ at {threads} threads"
        );
        let base = mine_prefix(&surv, &generator, base_shards);
        let delta = ShardSubset::range(CorpusSource::new(&generator), base_shards, SHARDS);
        let updated = surv
            .try_update(
                base,
                &delta,
                &RetryPolicy::no_retries(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .expect("clean update");
        assert!(updated.stats.groups_total > 0, "update modeled no groups");
        assert_eq!(
            save_snapshot(&updated.output),
            reference,
            "updated bytes differ at {threads} threads"
        );
    }
}

#[test]
fn every_split_point_converges_to_the_same_bytes() {
    // Ingesting the tail from any base prefix — including an empty base
    // and an empty delta — lands on the same snapshot.
    let (kb, generator) = generator(17);
    let surv = surveyor(kb, 4);
    let reference = save_snapshot(&surv.run(&CorpusSource::new(&generator)));
    for base_shards in [1, 4, SHARDS - 1, SHARDS] {
        let base = mine_prefix(&surv, &generator, base_shards);
        let delta = ShardSubset::range(CorpusSource::new(&generator), base_shards, SHARDS);
        let updated = surv
            .try_update(
                base,
                &delta,
                &RetryPolicy::no_retries(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .expect("clean update");
        assert_eq!(
            save_snapshot(&updated.output),
            reference,
            "bytes differ for base of {base_shards} shards"
        );
    }
}

#[test]
fn successive_deltas_compose() {
    // base [0,4) + delta [4,6) + delta [6,8) == from-scratch [0,8).
    let (kb, generator) = generator(17);
    let surv = surveyor(kb, 2);
    let reference = save_snapshot(&surv.run(&CorpusSource::new(&generator)));
    let mut rolling = mine_prefix(&surv, &generator, 4);
    for (start, end) in [(4, 6), (6, SHARDS)] {
        let delta = ShardSubset::range(CorpusSource::new(&generator), start, end);
        rolling = surv
            .try_update(
                rolling,
                &delta,
                &RetryPolicy::no_retries(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .expect("clean update")
            .output;
    }
    assert_eq!(save_snapshot(&rolling), reference);
}

#[test]
fn chaos_quarantine_then_replay_reaches_clean_bytes_at_every_thread_count() {
    // A permanent fault kills shard 2 during the base mine; replaying it
    // alongside the tail delta must converge to the clean from-scratch
    // snapshot regardless of worker count. The plan spans the full shard
    // range so the base subset sees exactly the faults the full corpus
    // would.
    let (kb, generator) = generator(17);
    let plan = FaultPlan::none().with(2, surveyor::Fault::Permanent);
    let base_shards = SHARDS - 2;
    let reference = {
        let scratch = surveyor(kb.clone(), 1).run(&CorpusSource::new(&generator));
        save_snapshot(&scratch)
    };
    for threads in THREAD_COUNTS {
        let surv = surveyor(kb.clone(), threads);
        let injector = FaultInjector::new(CorpusSource::new(&generator), plan.clone());
        let chaotic_base = ShardSubset::range(injector, 0, base_shards);
        let degraded = surv
            .try_run(
                &chaotic_base,
                &RetryPolicy::immediate(),
                &FailurePolicy::Degrade {
                    min_shard_coverage: 0.5,
                },
            )
            .expect("degraded base survives");
        assert_eq!(degraded.coverage.quarantined_shards(), vec![2]);
        // Replay queue ∪ tail delta, in shard order — what `surveyor
        // update` requests.
        let mut shards = degraded.coverage.quarantined_shards();
        shards.extend(base_shards..SHARDS);
        shards.sort_unstable();
        let replay = ShardSubset::new(CorpusSource::new(&generator), shards);
        let replayed = surv
            .try_update(
                degraded.output,
                &replay,
                &RetryPolicy::no_retries(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .expect("replay update");
        assert_eq!(
            save_snapshot(&replayed.output),
            reference,
            "replayed bytes differ at {threads} threads"
        );
    }
}

#[test]
fn update_and_mine_report_the_same_phases_and_em_telemetry() {
    // One loop interprets both, so an observed update records what an
    // observed mine records: the same phases, the same `em.*` counters,
    // and EM rows for the refit groups that
    // equal the from-scratch rows field for field.
    use std::collections::BTreeSet;
    use surveyor::obs::{MetricsRegistry, RunReport};

    let (kb, generator) = generator(17);
    let observed = |threads: usize| {
        let registry = Arc::new(MetricsRegistry::new());
        let surv = surveyor(kb.clone(), threads).with_observer(registry.clone());
        (surv, registry)
    };
    let (miner, mine_registry) = observed(2);
    miner.run(&CorpusSource::new(&generator));

    let base_shards = SHARDS - 2;
    let base = mine_prefix(&surveyor(kb.clone(), 2), &generator, base_shards);
    let (updater, update_registry) = observed(4);
    let delta = ShardSubset::range(CorpusSource::new(&generator), base_shards, SHARDS);
    let outcome = updater
        .try_update(
            base,
            &delta,
            &RetryPolicy::no_retries(),
            &FailurePolicy::FailFast,
            WarmStart::Exact,
        )
        .expect("clean update");
    assert!(outcome.stats.groups_refit > 0, "the delta dirtied nothing");

    let (mine, update) = (mine_registry.report(), update_registry.report());
    let phases = |report: &RunReport| -> BTreeSet<String> {
        report.phases.iter().map(|p| p.name.clone()).collect()
    };
    assert_eq!(phases(&update), phases(&mine));
    for name in ["extract", "group", "model", "decide", "index"] {
        assert!(phases(&update).contains(name), "missing phase {name}");
    }
    let em_counters = |report: &RunReport| -> BTreeSet<String> {
        let names = report.counters.keys();
        names.filter(|k| k.starts_with("em.")).cloned().collect()
    };
    assert_eq!(em_counters(&update), em_counters(&mine));
    assert!(!em_counters(&update).is_empty());

    assert_eq!(update.em_groups.len(), outcome.stats.groups_refit);
    for row in &update.em_groups {
        assert!(
            mine.em_groups.contains(row),
            "refit row for {} × {} differs from the from-scratch row",
            row.type_name,
            row.property
        );
    }
    let decide = update.phase("decide").expect("decide phase recorded");
    assert!(decide.items > 0);
}
