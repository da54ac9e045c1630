//! Algorithm 1: the end-to-end Surveyor pipeline.
//!
//! ```text
//! function Surveyor(W, KB, ρ):
//!     iterate over documents in W to extract evidence
//!     for ⟨type, property⟩ with at least ρ extractions:
//!         learn model parameters (EM)
//!         for entity of type:
//!             prb = Pr(property applies)
//!             emit ⟨entity, property, +⟩ if prb > ½
//!             emit ⟨entity, property, −⟩ if prb < ½
//! ```

use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use surveyor_extract::evidence::Group;
use surveyor_extract::{
    run_sharded_fault_tolerant, EvidenceTable, ExtractionConfig, FailurePolicy,
    FallibleShardSource, GroupKey, GroupedEvidence, ProvenanceTable, RetryPolicy, RunError,
    RunOutcome, ShardCoverage, ShardSource,
};
use surveyor_kb::{EntityId, KnowledgeBase, Property, PropertyId};
use surveyor_model::{
    fit_table, CountTable, Decision, EmConfig, EmFit, ModelDecision, ObservedCounts,
};
use surveyor_obs::{claim_map, EmGroupReport, FaultSummary, MetricsRegistry};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyorConfig {
    /// Occurrence threshold ρ: minimum extracted statements for a
    /// (type, property) combination to be modeled (the paper used 100).
    pub rho: u64,
    /// EM configuration.
    pub em: EmConfig,
    /// Extraction pattern configuration (defaults to the shipped V4).
    pub extraction: ExtractionConfig,
    /// Worker threads for the sharded extraction phase.
    pub threads: usize,
}

impl Default for SurveyorConfig {
    fn default() -> Self {
        Self {
            rho: 100,
            em: EmConfig::default(),
            extraction: ExtractionConfig::paper_final(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// A decided entity-property association — one output row of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct OpinionTriple {
    /// The entity's canonical name.
    pub entity: String,
    /// The property surface form.
    pub property: String,
    /// `+` or `-`.
    pub polarity: char,
    /// The posterior probability behind the decision.
    pub probability: f64,
}

/// Per-combination result: the fitted model and all entity decisions.
#[derive(Debug, Clone)]
pub struct DomainResult {
    /// The (type, property) combination.
    pub key: GroupKey,
    /// The EM fit for the combination.
    pub fit: EmFit,
    /// Decisions for every entity of the type (not just mentioned ones),
    /// parallel to `kb.entities_of_type(key.type_id)`.
    pub decisions: Vec<(EntityId, ModelDecision)>,
}

/// One combination queued for [`Surveyor::fit_groups`]: its key and its
/// evidence.
pub(crate) type FitTask<'a> = (GroupKey, &'a Group);

/// One group's [`CountTable`], from its mentioned entities alone:
/// `entities` is the type's entity list (`kb.entities_of_type`, ascending),
/// where a binary search finds each mentioned entity's position; every
/// other entity holds the `(0, 0)` pair. `mentioned` is scratch.
fn count_table(
    entities: &[EntityId],
    group: &Group,
    mentioned: &mut Vec<(u32, ObservedCounts)>,
) -> CountTable {
    mentioned.clear();
    mentioned.extend(group.iter().filter_map(|(entity, c)| {
        let position = entities.binary_search(entity).ok()?;
        Some((position as u32, ObservedCounts::new(c.positive, c.negative)))
    }));
    CountTable::sparse(entities.len(), mentioned)
}

/// Full pipeline output.
#[derive(Debug, Clone)]
pub struct SurveyorOutput {
    /// The merged evidence table from extraction.
    pub evidence: EvidenceTable,
    /// Supporting-document samples per pair (empty when the output was
    /// built from pre-extracted evidence).
    pub provenance: ProvenanceTable,
    /// One result per combination above the threshold.
    pub results: Vec<DomainResult>,
    /// `(type, property)` → rank in `results`. A pair's decision is that
    /// result's entry for the entity, found by binary search: every
    /// producer emits a result's decisions in ascending entity order
    /// (`kb.entities_of_type`, which the snapshot loader derives them in).
    groups: FxHashMap<GroupKey, usize>,
    /// The knowledge base the run decided over — kept so
    /// [`triples`](Self::triples) can resolve canonical entity names.
    kb: Arc<KnowledgeBase>,
    /// Decided-pair count, cached at construction instead of recounted on
    /// every call.
    decided: usize,
}

impl SurveyorOutput {
    /// Assembles an output from its parts — the one constructor behind
    /// mining, incremental update and snapshot load: the group map and
    /// the decided-pair count are derived from `results` here.
    pub(crate) fn from_parts(
        evidence: EvidenceTable,
        provenance: ProvenanceTable,
        results: Vec<DomainResult>,
        kb: Arc<KnowledgeBase>,
    ) -> Self {
        let groups = results
            .iter()
            .enumerate()
            .map(|(rank, result)| (result.key, rank))
            .collect();
        let decided = results
            .iter()
            .flat_map(|result| &result.decisions)
            .filter(|(_, d)| d.decision.is_solved())
            .count();
        Self {
            evidence,
            provenance,
            results,
            groups,
            kb,
            decided,
        }
    }

    /// The knowledge base the run decided over.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// The decision for an entity-property pair, if its combination was
    /// modeled. Allocation-free: the property is looked up in the interner
    /// (a never-extracted property cannot have an opinion).
    pub fn opinion(&self, entity: EntityId, property: &Property) -> Option<ModelDecision> {
        let id = PropertyId::lookup(property)?;
        self.opinion_id(entity, id)
    }

    /// Like [`opinion`](Self::opinion) for an already-interned property.
    /// `None` as well for an entity the knowledge base does not hold.
    pub fn opinion_id(&self, entity: EntityId, property: PropertyId) -> Option<ModelDecision> {
        let type_id = self.kb.entities().get(entity.index())?.notable_type();
        let rank = *self.groups.get(&GroupKey { type_id, property })?;
        let decisions = &self.results.get(rank)?.decisions;
        let at = decisions.binary_search_by_key(&entity, |&(e, _)| e).ok()?;
        Some(decisions[at].1)
    }

    /// All decided triples (skips unsolved entities), in deterministic
    /// order. The output vector is pre-sized from the cached decided-pair
    /// count, and entity names come straight from the knowledge base (a
    /// single buffer copy each) instead of the `Display` machinery.
    pub fn triples(&self) -> Vec<OpinionTriple> {
        let mut out = Vec::with_capacity(self.decided);
        for result in &self.results {
            // One resolve per combination, not one `to_string` per triple.
            let property = result.key.property.resolve().to_string();
            for (entity, decision) in &result.decisions {
                let polarity = match decision.decision {
                    Decision::Positive => '+',
                    Decision::Negative => '-',
                    Decision::Unsolved => continue,
                };
                out.push(OpinionTriple {
                    entity: self.kb.entity(*entity).name().to_owned(),
                    property: property.clone(),
                    polarity,
                    probability: decision.probability.unwrap_or(0.5),
                });
            }
        }
        out
    }

    /// Number of modeled combinations.
    pub fn modeled_combinations(&self) -> usize {
        self.results.len()
    }

    /// Total decided entity-property pairs (counted once at construction).
    pub fn decided_pairs(&self) -> usize {
        self.decided
    }
}

/// A fault-tolerant pipeline run: the full output plus the extraction
/// shard accounting behind it. Produced by [`Surveyor::try_run`].
#[derive(Debug, Clone)]
pub struct SurveyorRun {
    /// The pipeline output over every surviving shard.
    pub output: SurveyorOutput,
    /// What extraction attempted, retried, and lost.
    pub coverage: ShardCoverage,
}

/// The Surveyor pipeline over a fixed knowledge base.
#[derive(Debug, Clone)]
pub struct Surveyor {
    kb: Arc<KnowledgeBase>,
    config: SurveyorConfig,
    obs: Option<Arc<MetricsRegistry>>,
}

impl Surveyor {
    /// Creates a pipeline.
    pub fn new(kb: Arc<KnowledgeBase>, config: SurveyorConfig) -> Self {
        Self {
            kb,
            config,
            obs: None,
        }
    }

    /// Attaches a metrics registry: subsequent runs record the five
    /// pipeline phases (`extract`, `group`, `model`, `decide`, `index`),
    /// extraction counters, and per-combination EM telemetry into it.
    /// Output is identical with or without an observer; overhead is a
    /// handful of clock reads per combination plus one counter flush per
    /// worker.
    pub fn with_observer(mut self, obs: Arc<MetricsRegistry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached metrics registry, if any.
    pub fn observer(&self) -> Option<&Arc<MetricsRegistry>> {
        self.obs.as_ref()
    }

    /// The knowledge base.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// The configuration.
    pub fn config(&self) -> &SurveyorConfig {
        &self.config
    }

    /// Runs the full pipeline: sharded extraction over `source`, grouping,
    /// threshold filtering, per-combination EM, and decisions.
    ///
    /// # Panics
    /// Re-raises the panic of a shard that panicked; isolation is what
    /// [`try_run`](Self::try_run) is for.
    pub fn run<S: ShardSource>(&self, source: &S) -> SurveyorOutput {
        let (retry, policy) = (RetryPolicy::no_retries(), FailurePolicy::FailFast);
        match self.try_run(source, &retry, &policy) {
            Ok(run) => run.output,
            Err(error) => error.into_panic(),
        }
    }

    /// Runs the full pipeline under a failure policy: extraction shards
    /// that fail are retried per `retry` and, if the budget is exhausted,
    /// handled per `policy` — aborting the run ([`FailurePolicy::FailFast`])
    /// or quarantining the shard and continuing on the survivors
    /// ([`FailurePolicy::Degrade`]).
    ///
    /// With an observer attached, the run additionally stamps a
    /// [`FaultSummary`] into the registry so the resulting report carries
    /// the coverage, retry, and quarantine accounting — a degraded answer
    /// is never silent.
    pub fn try_run<F: FallibleShardSource>(
        &self,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
    ) -> Result<SurveyorRun, RunError> {
        let outcome = self.extract(source, retry, policy)?;
        let mut output = self.run_on_evidence(outcome.output.evidence);
        output.provenance = outcome.output.provenance;
        Ok(SurveyorRun {
            output,
            coverage: outcome.coverage,
        })
    }

    /// Sharded extraction as every entry point runs it: under the
    /// `extract` span when an observer is attached, with the shard
    /// accounting stamped into the registry as a [`FaultSummary`].
    pub(crate) fn extract<F: FallibleShardSource>(
        &self,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
    ) -> Result<RunOutcome, RunError> {
        let obs = self.obs.as_deref();
        let docs_before = obs.map_or(0, |obs| obs.counter_value("extract.documents"));
        let mut span = obs.map(|obs| obs.span("extract"));
        let outcome = run_sharded_fault_tolerant(
            source,
            &self.kb,
            &self.config.extraction,
            self.config.threads,
            retry,
            policy,
            obs,
        )?;
        if let (Some(obs), Some(span)) = (obs, span.as_mut()) {
            span.set_items(obs.counter_value("extract.documents") - docs_before);
            obs.record_fault_summary(FaultSummary {
                coverage: outcome.coverage.fraction(),
                retries: outcome.coverage.retries,
                quarantined_shards: outcome.coverage.quarantined_shards(),
            });
        }
        Ok(outcome)
    }

    /// Runs the interpretation phase on pre-extracted evidence (Algorithm 1
    /// lines 5–12). Useful when the same evidence is interpreted under
    /// several model configurations. The grouping picks and feeds the
    /// combinations to fit, and is dropped once they are fitted.
    pub fn run_on_evidence(&self, evidence: EvidenceTable) -> SurveyorOutput {
        let grouped = self.group(&evidence);
        let tasks: Vec<FitTask<'_>> = grouped
            .above_threshold(self.config.rho)
            .map(|(key, group)| (*key, group))
            .collect();
        let results = self.fit_groups(&tasks);
        self.assemble(evidence, ProvenanceTable::default(), results)
    }

    /// Groups an evidence table by (type, property) under the `group`
    /// span.
    pub(crate) fn group(&self, evidence: &EvidenceTable) -> GroupedEvidence {
        let obs = self.obs.as_deref();
        let mut span = obs.map(|obs| obs.span("group"));
        let grouped = GroupedEvidence::from_table(evidence, &self.kb);
        if let (Some(obs), Some(span)) = (obs, span.as_mut()) {
            span.set_items(evidence.total_statements());
            obs.add("group.pairs", evidence.pair_count() as u64);
            obs.add("group.combinations", grouped.len() as u64);
        }
        grouped
    }

    /// Algorithm 1's second loop, the one place it is written: for each
    /// task, sort the counts of the type's mentioned entities into the
    /// group's [`CountTable`] of distinct pairs, learn the
    /// parameters from it, and decide every entity from one posterior per
    /// distinct pair. A mine passes every combination above ρ, an update
    /// the ones its delta dirtied.
    ///
    /// Tasks are independent, so they fan out over `config.threads`
    /// workers of the [`claim_map`] pool, each reusing one mentions buffer;
    /// results come back in task order for any worker count. The `model`
    /// and `decide` phases (worker CPU time summed over tasks, so with N
    /// workers they can exceed elapsed time), the `model.entities` and
    /// `model.distinct_pairs` counters (what EM saw, summed over tasks)
    /// and the per-group EM telemetry are recorded after the join, in
    /// task order, so the registry's rows do not depend on the worker
    /// count either.
    pub(crate) fn fit_groups(&self, tasks: &[FitTask<'_>]) -> Vec<DomainResult> {
        let fitted = claim_map(
            tasks.len(),
            self.config.threads,
            Vec::new,
            |mentioned: &mut Vec<(u32, ObservedCounts)>, rank| {
                let (key, group) = tasks[rank];
                let entities = self.kb.entities_of_type(key.type_id);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "feeds the obs phase report only, never the output"
                )]
                let fit_start = Instant::now();
                let table = count_table(entities, group, mentioned);
                let fit = fit_table(&table, &self.config.em);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "feeds the obs phase report only, never the output"
                )]
                let decide_start = Instant::now();
                let decisions: Vec<(EntityId, ModelDecision)> = entities
                    .iter()
                    .copied()
                    .zip(table.decisions(&fit.params))
                    .collect();
                let times = (decide_start - fit_start, decide_start.elapsed());
                let result = DomainResult {
                    key,
                    fit,
                    decisions,
                };
                (result, times, table.distinct_pairs())
            },
        );
        let (mut em_time, mut decide_time) = (Duration::ZERO, Duration::ZERO);
        let mut distinct_pairs = 0;
        let mut results = Vec::with_capacity(fitted.len());
        for (result, (em, decide), pairs) in fitted {
            em_time += em;
            decide_time += decide;
            distinct_pairs += pairs as u64;
            results.push(result);
        }
        if let Some(obs) = self.obs.as_deref() {
            let decisions: usize = results.iter().map(|r| r.decisions.len()).sum();
            obs.record_phase("model", em_time, results.len() as u64);
            obs.add("model.entities", decisions as u64);
            obs.add("model.distinct_pairs", distinct_pairs);
            obs.record_phase("decide", decide_time, decisions as u64);
            for result in &results {
                self.record_em_telemetry(obs, &result.key, result.decisions.len(), &result.fit);
            }
        }
        results
    }

    /// Builds the output from its parts under the `index` span, whose
    /// items are the decisions the group map makes reachable.
    pub(crate) fn assemble(
        &self,
        evidence: EvidenceTable,
        provenance: ProvenanceTable,
        results: Vec<DomainResult>,
    ) -> SurveyorOutput {
        let mut span = self.obs.as_deref().map(|obs| obs.span("index"));
        if let Some(span) = span.as_mut() {
            span.set_items(results.iter().map(|r| r.decisions.len() as u64).sum());
        }
        SurveyorOutput::from_parts(evidence, provenance, results, self.kb.clone())
    }

    /// Feeds one combination's EM fit into the registry: the iteration
    /// histogram, a convergence-reason counter, and the full per-group
    /// report row (traces included).
    fn record_em_telemetry(
        &self,
        obs: &MetricsRegistry,
        key: &GroupKey,
        entities: usize,
        fit: &EmFit,
    ) {
        obs.observe("em.iterations", fit.iterations as f64);
        obs.add(&format!("em.converged.{}", fit.converged.as_str()), 1);
        obs.record_em_group(EmGroupReport {
            type_name: self.kb.entity_type(key.type_id).name().to_owned(),
            property: key.property.resolve().to_string(),
            entities: entities as u64,
            iterations: fit.iterations as u64,
            converged: fit.converged.as_str().to_owned(),
            log_likelihood: fit.log_likelihood,
            final_delta: fit.delta_trace.last().copied().unwrap_or(0.0),
            q_trace: fit.q_trace.clone(),
            delta_trace: fit.delta_trace.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_extract::{Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> Arc<KnowledgeBase> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal).finish();
        }
        Arc::new(b.build())
    }

    fn evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        let add = |table: &mut EvidenceTable, name: &str, pos: u64, neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                table.add(&Statement::new(e, &cute, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &cute, Polarity::Negative));
            }
        };
        add(&mut table, "Kitten", 50, 2);
        add(&mut table, "Puppy", 40, 1);
        add(&mut table, "Tiger", 4, 8);
        add(&mut table, "Spider", 1, 10);
        // "Rock" never mentioned.
        table
    }

    #[test]
    fn algorithm1_decides_all_entities_above_threshold() {
        let kb = kb();
        let config = SurveyorConfig {
            rho: 50,
            ..Default::default()
        };
        let surveyor = Surveyor::new(kb.clone(), config);
        let output = surveyor.run_on_evidence(evidence(&kb));
        assert_eq!(output.modeled_combinations(), 1);
        let cute = Property::adjective("cute");
        let kitten = kb.entity_by_name("Kitten").unwrap();
        let spider = kb.entity_by_name("Spider").unwrap();
        let rock = kb.entity_by_name("Rock").unwrap();
        assert_eq!(
            output.opinion(kitten, &cute).unwrap().decision,
            Decision::Positive
        );
        assert_eq!(
            output.opinion(spider, &cute).unwrap().decision,
            Decision::Negative
        );
        // The never-mentioned entity still gets a decision (negative: cute
        // entities are chatty in this evidence).
        assert_eq!(
            output.opinion(rock, &cute).unwrap().decision,
            Decision::Negative
        );
        assert_eq!(output.decided_pairs(), 5);
    }

    #[test]
    fn opinion_id_answers_what_a_per_pair_map_would() {
        // Two types, so an entity can meet a property modeled only for
        // the other one.
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        let city = b.add_type("city", &["city"], &[]);
        for (i, name) in ["Kitten", "Paris", "Tiger", "Oslo", "Spider", "Rock"]
            .into_iter()
            .enumerate()
        {
            b.add_entity(name, if i % 2 == 0 { animal } else { city })
                .finish();
        }
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let big = Property::adjective("big");
        let mut table = EvidenceTable::new();
        let mut add = |name: &str, property: &Property, pos: u64, neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                table.add(&Statement::new(e, property, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, property, Polarity::Negative));
            }
        };
        add("Kitten", &cute, 40, 1);
        add("Spider", &cute, 1, 12);
        add("Paris", &big, 30, 2);
        add("Oslo", &big, 3, 9);
        add("Paris", &cute, 2, 0); // below the threshold: never modeled
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 20,
                ..Default::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        assert_eq!(output.modeled_combinations(), 2);

        // The oracle: a plain (entity, property) → decision map over
        // everything in `results`.
        let oracle: FxHashMap<(EntityId, PropertyId), ModelDecision> = output
            .results
            .iter()
            .flat_map(|r| r.decisions.iter().map(|&(e, d)| ((e, r.key.property), d)))
            .collect();
        assert_eq!(oracle.len(), 6);
        let properties = [
            PropertyId::intern(&cute),
            PropertyId::intern(&big),
            PropertyId::intern(&Property::adjective("pipeline-never-modeled")),
        ];
        // Every id the knowledge base holds, and a few it does not.
        for entity in (0..8).chain([u32::MAX]).map(EntityId) {
            for property in properties {
                assert_eq!(
                    output.opinion_id(entity, property),
                    oracle.get(&(entity, property)).copied(),
                    "{entity:?} {property:?}"
                );
            }
        }
        // An entity of the other type, an unmodeled property, an entity
        // out of range: each is `None`, none panics.
        let paris = kb.entity_by_name("Paris").unwrap();
        assert!(output.opinion(paris, &big).is_some());
        assert_eq!(output.opinion(paris, &cute), None);
        assert_eq!(output.opinion_id(paris, properties[2]), None);
        assert_eq!(output.opinion_id(EntityId(6), properties[0]), None);
    }

    #[test]
    fn threshold_suppresses_sparse_combinations() {
        let kb = kb();
        let config = SurveyorConfig {
            rho: 1_000,
            ..Default::default()
        };
        let surveyor = Surveyor::new(kb.clone(), config);
        let output = surveyor.run_on_evidence(evidence(&kb));
        assert_eq!(output.modeled_combinations(), 0);
        let cute = Property::adjective("cute");
        let kitten = kb.entity_by_name("Kitten").unwrap();
        assert!(output.opinion(kitten, &cute).is_none());
    }

    #[test]
    fn triples_skip_unsolved_and_format_polarity() {
        let kb = kb();
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..Default::default()
            },
        );
        let output = surveyor.run_on_evidence(evidence(&kb));
        let triples = output.triples();
        assert_eq!(triples.len(), output.decided_pairs());
        assert!(triples
            .iter()
            .all(|t| t.polarity == '+' || t.polarity == '-'));
        assert!(triples.iter().all(|t| t.property == "cute"));
        // Entities surface under their canonical KB names, not raw ids.
        assert!(triples
            .iter()
            .all(|t| kb.entity_by_name(&t.entity).is_some()));
    }
}
