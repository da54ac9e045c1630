//! Incremental mining: delta ingestion with dirty-group re-decide
//! (ROADMAP item 3).
//!
//! A mined [`SurveyorOutput`] plus a delta corpus — newly crawled shards,
//! or a replayed quarantine queue — updates in time proportional to the
//! *delta*, not the corpus:
//!
//! 1. Extraction runs only over the delta shards, through the existing
//!    parallel fault-tolerant runner.
//! 2. Evidence, provenance, and grouped tables merge by sorted
//!    `(entity, property)` / `(type, property)` key. Every merge is
//!    commutative, so the merged state equals a from-scratch mine of the
//!    concatenated corpus.
//! 3. Only combinations the delta touched ("dirty" groups) are re-fitted
//!    and re-decided. An untouched group's counts did not change, and EM
//!    is a pure function of the counts — so its previous [`DomainResult`]
//!    carries forward *byte-identically*, without re-running EM at all.
//!
//! Step 3 is where the asymptotics change: a from-scratch interpretation
//! phase is `O(groups)`, an update is `O(dirty groups)`. The guarantee the
//! bench (`bench incremental`) and `scripts/verify.sh` pin is that the
//! final snapshot is byte-identical to mining the concatenated corpus from
//! scratch, at every worker count, clean and under injected chaos.
//!
//! [`WarmStart::Seeded`] additionally seeds EM on dirty groups from the
//! previous fit instead of the multi-restart cold grid. That converges in
//! fewer iterations on small deltas but records different telemetry
//! (iteration counts, traces), so it is opt-in and never used by the
//! byte-identity gates.

use crate::pipeline::{DomainResult, FitTask, Surveyor, SurveyorConfig, SurveyorOutput};
use rustc_hash::{FxHashMap, FxHashSet};
use surveyor_extract::{
    ExtractionOutput, FailurePolicy, FallibleShardSource, GroupKey, RetryPolicy, RunError,
    ShardCoverage,
};
use surveyor_wire::Fnv64;

/// How dirty groups are re-fitted during an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStart {
    /// Re-fit with the standard cold multi-restart EM — exactly what a
    /// from-scratch run would do, so the updated output is byte-identical
    /// to re-mining the concatenated corpus. The default, and the only
    /// mode the identity gates use.
    #[default]
    Exact,
    /// Seed a single EM run from the group's previous parameters; cold
    /// multi-restart only for groups with no previous fit. Fewer
    /// iterations on small deltas, but different telemetry — decisions
    /// may differ near the EM grid's tie boundaries.
    Seeded,
}

/// What an update did, beyond the output itself.
///
/// Three of the four group counts are over *modeled* combinations (those
/// at or above ρ after the update) and partition them:
/// `groups_carried + groups_refit == groups_total`, every modeled
/// combination the delta touched is in `groups_refit`, and no untouched
/// one is. `groups_dirty` is over a different population — see the field —
/// so it can exceed `groups_total`, and `groups_refit` can be smaller
/// than it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Modeled combinations after the update.
    pub groups_total: usize,
    /// Every combination the delta added evidence to, modeled or not: a
    /// long-tail delta mostly touches combinations that stay below ρ,
    /// which is how an update reports 247 dirty of 222 total.
    pub groups_dirty: usize,
    /// Modeled combinations carried forward without re-fitting.
    pub groups_carried: usize,
    /// Modeled combinations re-fitted and re-decided: the dirty ones that
    /// are at or above ρ, including those the delta lifted over it.
    pub groups_refit: usize,
    /// Entity-property pairs in the delta's evidence table.
    pub delta_pairs: usize,
    /// Statements the delta contributed.
    pub delta_statements: u64,
}

/// An incremental update's result: the merged output, the delta
/// extraction's shard accounting, and the dirty-group accounting.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The updated pipeline output over base ∪ delta.
    pub output: SurveyorOutput,
    /// What the delta extraction attempted, retried, and lost.
    pub coverage: ShardCoverage,
    /// Group-level accounting of the update.
    pub stats: UpdateStats,
}

impl SurveyorConfig {
    /// A digest of everything about this configuration that determines
    /// the mined output: ρ, the EM configuration, and the extraction
    /// configuration. Thread count is deliberately excluded — the
    /// pipeline is byte-identical across worker counts. Stored in a
    /// snapshot's `INCR` section so an updater can refuse a delta mined
    /// under different settings.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(&(self.rho, self.em.clone(), self.extraction))
            .expect("pipeline configuration serializes"); // lint:allow(no-panic-in-lib): plain structs of numbers and strings cannot fail to serialize
        let mut digest = Fnv64::new();
        digest.write(json.as_bytes()); // lint:allow(no-shared-lock-in-worker-loop): Fnv64 hashing, not a lock; once per config
        digest.finish()
    }
}

impl Surveyor {
    /// Incrementally updates a previously mined output with a delta
    /// corpus, under the same fault-tolerance contract as
    /// [`try_run`](Self::try_run): delta shards are retried per `retry`
    /// and quarantined or aborted per `policy`.
    ///
    /// `base` must have been mined by this pipeline's configuration (same
    /// ρ, EM grid, and extraction patterns — see
    /// [`SurveyorConfig::digest`]); the caller is responsible for that
    /// check, which the CLI performs against the snapshot's `INCR`
    /// section.
    ///
    /// With [`WarmStart::Exact`], the returned output is byte-identical
    /// to running the pipeline from scratch over the concatenation of the
    /// base corpus and the delta's surviving shards.
    pub fn try_update<F: FallibleShardSource>(
        &self,
        base: SurveyorOutput,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
        warm: WarmStart,
    ) -> Result<UpdateOutcome, RunError> {
        let outcome = self.extract(source, retry, policy)?;
        let (output, stats) = self.apply_delta(base, outcome.output, warm);
        Ok(UpdateOutcome {
            output,
            coverage: outcome.coverage,
            stats,
        })
    }

    /// The merge-and-re-decide half of an update: folds already-extracted
    /// delta evidence into `base` and re-fits only the dirtied groups.
    /// [`try_update`](Self::try_update) calls this after delta
    /// extraction; tests use it directly to exercise the dirty-group
    /// logic without a corpus.
    pub fn apply_delta(
        &self,
        base: SurveyorOutput,
        delta: ExtractionOutput,
        warm: WarmStart,
    ) -> (SurveyorOutput, UpdateStats) {
        let delta_pairs = delta.evidence.pair_count();
        let delta_statements = delta.evidence.total_statements();

        // Group the delta alone first: its keys are exactly the dirty set.
        let delta_grouped = self.group(&delta.evidence);
        let dirty: FxHashSet<GroupKey> = delta_grouped.iter().map(|(key, _)| *key).collect();

        // Merge the three tables; every merge is commutative, so the
        // result equals from-scratch extraction over base ∪ delta.
        let SurveyorOutput {
            mut evidence,
            mut provenance,
            mut grouped,
            results,
            ..
        } = base;
        evidence.merge(delta.evidence);
        provenance.merge(delta.provenance);
        grouped.merge(delta_grouped);

        let mut previous: FxHashMap<GroupKey, DomainResult> =
            results.into_iter().map(|r| (r.key, r)).collect();

        // Partition, in rank order: a clean group with a previous result
        // carries it forward untouched (its counts did not change, and a
        // clean group cannot newly cross ρ); everything else is a task.
        let mut carried: Vec<Option<DomainResult>> = Vec::new();
        let mut tasks: Vec<FitTask<'_>> = Vec::new();
        for (key, group) in grouped.above_threshold(self.config().rho) {
            match previous.remove(key) {
                Some(result) if !dirty.contains(key) => carried.push(Some(result)),
                prior => {
                    carried.push(None);
                    tasks.push((*key, group, prior.map(|r| r.fit.params)));
                }
            }
        }
        let stats = UpdateStats {
            groups_total: carried.len(),
            groups_dirty: dirty.len(),
            groups_carried: carried.len() - tasks.len(),
            groups_refit: tasks.len(),
            delta_pairs,
            delta_statements,
        };
        if let Some(obs) = self.observer() {
            obs.add("update.groups_carried", stats.groups_carried as u64);
            obs.add("update.groups_refit", stats.groups_refit as u64);
        }

        // Refits come back in task order, which is rank order with the
        // carried ranks left out: fill the gaps.
        let mut refit = self.fit_groups(&tasks, warm).into_iter();
        let results: Vec<DomainResult> = carried
            .into_iter()
            .filter_map(|slot| slot.or_else(|| refit.next()))
            .collect();
        debug_assert_eq!(results.len(), stats.groups_total);

        let output = self.assemble(evidence, provenance, grouped, results);
        (output, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surveyor_extract::{EvidenceTable, Polarity, ProvenanceTable, Statement};
    use surveyor_kb::{KnowledgeBase, KnowledgeBaseBuilder, Property};

    fn kb() -> Arc<KnowledgeBase> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal).finish();
        }
        Arc::new(b.build())
    }

    fn add(
        table: &mut EvidenceTable,
        kb: &KnowledgeBase,
        name: &str,
        property: &Property,
        pos: u64,
        neg: u64,
    ) {
        let e = kb.entity_by_name(name).unwrap();
        for _ in 0..pos {
            table.add(&Statement::new(e, property, Polarity::Positive));
        }
        for _ in 0..neg {
            table.add(&Statement::new(e, property, Polarity::Negative));
        }
    }

    fn surveyor(kb: &Arc<KnowledgeBase>) -> Surveyor {
        Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 30,
                ..Default::default()
            },
        )
    }

    fn base_evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let cute = Property::adjective("cute");
        let tiny = Property::adjective("tiny");
        let mut table = EvidenceTable::new();
        add(&mut table, kb, "Kitten", &cute, 50, 2);
        add(&mut table, kb, "Puppy", &cute, 40, 1);
        add(&mut table, kb, "Tiger", &cute, 4, 8);
        add(&mut table, kb, "Spider", &tiny, 30, 3);
        add(&mut table, kb, "Kitten", &tiny, 20, 6);
        table
    }

    /// Delta touching only the "tiny" group, plus a brand-new "fierce"
    /// group that clears the threshold on its own.
    fn delta_evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let tiny = Property::adjective("tiny");
        let fierce = Property::adjective("fierce");
        let mut table = EvidenceTable::new();
        add(&mut table, kb, "Spider", &tiny, 10, 1);
        add(&mut table, kb, "Tiger", &fierce, 35, 2);
        add(&mut table, kb, "Kitten", &fierce, 2, 10);
        table
    }

    fn delta_output(kb: &KnowledgeBase) -> ExtractionOutput {
        ExtractionOutput {
            evidence: delta_evidence(kb),
            provenance: ProvenanceTable::default(),
        }
    }

    fn combined(kb: &KnowledgeBase) -> EvidenceTable {
        let mut table = base_evidence(kb);
        table.merge(delta_evidence(kb));
        table
    }

    #[test]
    fn exact_update_matches_from_scratch_byte_identically() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let (updated, stats) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Exact);
        let scratch = surveyor.run_on_evidence(combined(&kb));
        assert_eq!(
            crate::snapshot::save_snapshot(&updated),
            crate::snapshot::save_snapshot(&scratch)
        );
        // "cute" untouched and carried; "tiny" dirtied; "fierce" new.
        assert_eq!(stats.groups_carried, 1);
        assert_eq!(stats.groups_refit, 2);
        assert_eq!(stats.groups_dirty, 2);
        assert_eq!(stats.groups_total, 3);
        assert!(stats.delta_statements > 0);
    }

    #[test]
    fn group_accounting_partitions_the_modeled_groups() {
        // ρ = 30. The delta touches one combination that stays below ρ
        // ("odd"), one modeled combination ("tiny") and one it lifts over
        // ρ ("shy"); "cute" is modeled and untouched.
        let kb = kb();
        let (shy, odd) = (Property::adjective("shy"), Property::adjective("odd"));
        let mut base_table = base_evidence(&kb);
        add(&mut base_table, &kb, "Rock", &shy, 20, 5);
        let mut delta_table = EvidenceTable::new();
        add(
            &mut delta_table,
            &kb,
            "Spider",
            &Property::adjective("tiny"),
            10,
            1,
        );
        add(&mut delta_table, &kb, "Puppy", &shy, 8, 2);
        add(&mut delta_table, &kb, "Tiger", &odd, 2, 1);

        let base = surveyor(&kb).run_on_evidence(base_table);
        assert_eq!(base.modeled_combinations(), 2);
        // Only the update is observed, so the registry holds its fits alone.
        let registry = Arc::new(surveyor_obs::MetricsRegistry::new());
        let surveyor = surveyor(&kb).with_observer(registry.clone());
        let delta = ExtractionOutput {
            evidence: delta_table,
            provenance: ProvenanceTable::default(),
        };
        let (updated, stats) = surveyor.apply_delta(base, delta, WarmStart::Exact);

        assert_eq!(
            stats.groups_dirty, 3,
            "every touched combination, modeled or not"
        );
        assert_eq!(stats.groups_total, 3);
        assert_eq!(
            stats.groups_carried + stats.groups_refit,
            stats.groups_total
        );
        assert_eq!((stats.groups_carried, stats.groups_refit), (1, 2));
        assert_eq!(updated.modeled_combinations(), stats.groups_total);
        // Exactly the dirty modeled groups went through EM: the observer
        // holds one row per fit.
        let refit: Vec<String> = registry
            .report()
            .em_groups
            .into_iter()
            .map(|row| row.property)
            .collect();
        assert_eq!(refit, ["shy", "tiny"]);
    }

    #[test]
    fn untouched_groups_skip_em_entirely() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let cute_fit = base
            .results
            .iter()
            .find(|r| r.key.property.resolve().to_string() == "cute")
            .unwrap()
            .fit
            .clone();
        let (updated, _) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Exact);
        let carried = updated
            .results
            .iter()
            .find(|r| r.key.property.resolve().to_string() == "cute")
            .unwrap();
        // Bit-identical carry-forward, traces included.
        assert_eq!(carried.fit.q_trace, cute_fit.q_trace);
        assert_eq!(
            carried.fit.log_likelihood.to_bits(),
            cute_fit.log_likelihood.to_bits()
        );
    }

    #[test]
    fn empty_delta_is_identity() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let bytes = crate::snapshot::save_snapshot(&base);
        let (updated, stats) = surveyor.apply_delta(
            base,
            ExtractionOutput {
                evidence: EvidenceTable::new(),
                provenance: ProvenanceTable::default(),
            },
            WarmStart::Exact,
        );
        assert_eq!(crate::snapshot::save_snapshot(&updated), bytes);
        assert_eq!(stats.groups_refit, 0);
        assert_eq!(stats.groups_dirty, 0);
        assert_eq!(stats.groups_carried, stats.groups_total);
    }

    #[test]
    fn seeded_update_decides_the_same_world() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let (updated, _) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Seeded);
        let scratch = surveyor.run_on_evidence(combined(&kb));
        // Telemetry differs (single warm run vs multi-restart), but on
        // this well-separated evidence the decisions agree.
        let triples = |o: &SurveyorOutput| {
            let mut t = o.triples();
            t.sort_by(|a, b| (&a.entity, &a.property).cmp(&(&b.entity, &b.property)));
            t.into_iter()
                .map(|t| (t.entity, t.property, t.polarity))
                .collect::<Vec<_>>()
        };
        assert_eq!(triples(&updated), triples(&scratch));
    }

    #[test]
    fn config_digest_ignores_threads_but_not_rho() {
        let a = SurveyorConfig {
            threads: 1,
            ..Default::default()
        };
        let b = SurveyorConfig {
            threads: 8,
            ..Default::default()
        };
        assert_eq!(a.digest(), b.digest());
        let c = SurveyorConfig {
            rho: 40,
            ..Default::default()
        };
        assert_ne!(a.digest(), c.digest());
    }
}
