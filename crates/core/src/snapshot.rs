//! Saving and loading mined worlds as `surveyor-wire` snapshots.
//!
//! [`save_snapshot`] flattens a [`SurveyorOutput`] — knowledge base,
//! evidence, provenance, fitted models — into the portable binary format
//! specified in `FORMAT.md`; [`load_snapshot`] rebuilds a fully functional
//! output (decision lookup included) without re-mining. Decisions are not
//! stored: each is `decide(posterior(params, c+, c−))` of its group's
//! `MODL` row and its entity's `EVID` counts, and every loader derives
//! them, one posterior per distinct count pair — the same f64 operations
//! on the same bits as at mine time. The round trip is exact: a loaded
//! output produces byte-identical stores, triples, and re-encoded
//! snapshots. The EM traces stay in the mine-time run report; a loaded
//! fit carries none.
//!
//! Process-local ids never cross this boundary. Properties travel as a
//! snapshot-local sorted table and are re-interned on load; `TypeId` and
//! `EntityId` are dense table indexes the rebuilt knowledge base assigns
//! identically.
//!
//! Rows cross it as integers in both directions (DESIGN.md §6f), and no
//! owned [`Snapshot`] exists on either path. Saving resolves each
//! distinct property once, writes its table rank into every row, and
//! feeds the snapshot writer records borrowed from the output; loading
//! interns the property table once and hands rows on by id, straight off
//! a [`SnapshotReader`].
//!
//! Loading is one checked walk (`Walk`) feeding one of two sinks: the
//! pipeline output ([`load_snapshot`], [`load_snapshot_with_state`],
//! [`output_from_snapshot`]) or the queryable store the server serves
//! ([`load_store`], which builds no knowledge base and no tables). Every
//! `Corrupt` rule lives in the walk, once, ahead of both sinks and
//! whichever form the snapshot arrived in, and so does the derivation:
//! the walk hands each sink a modelled group's count table and fit, so
//! the loaders cannot disagree on what they accept or on what they decide.

use crate::pipeline::{DomainResult, SurveyorOutput};
use crate::store::{StoreSink, SubjectiveKb};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use surveyor_extract::{EvidenceCounts, EvidenceTable, GroupKey, GroupedEvidence, ProvenanceTable};
use surveyor_kb::{EntityId, KnowledgeBaseBuilder, Property, PropertyId, TypeId};
use surveyor_model::{ConvergenceReason, CountTable, EmFit, ModelParams, ObservedCounts};
use surveyor_wire::{
    EvidenceRow, Fingerprints, GroupFingerprintRow, GroupFingerprinter, IncrementalState, ModelRow,
    Snapshot, SnapshotReader, SnapshotSource, WireError,
};

/// Why snapshot bytes could not be turned back into a pipeline output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The container or a record is malformed at the wire level.
    Wire(WireError),
    /// The wire structure is sound but the content is inconsistent — a
    /// dangling table index, an unknown code, an impossible parameter.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "{e}"),
            Self::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A pipeline output laid out for the snapshot writer: the one
/// preparation behind both the bytes ([`save_snapshot`]) and the owned
/// export ([`snapshot_output`]), so the two cannot drift apart.
///
/// Rows stay in id space: each distinct property is resolved once to
/// build the snapshot-local table, and every evidence, provenance and
/// model row then carries its property's rank in that table — an integer
/// looked up by id, sorted as an integer. Only those rows and the table
/// are built here; types, entities and document lists are borrowed.
struct Flattened<'a> {
    output: &'a SurveyorOutput,
    state: Option<&'a IncrementalState>,
    /// The property table: every property referenced anywhere, resolved,
    /// deduplicated and sorted. Indexes into it are the only property
    /// references on the wire — process-local interner ids depend on
    /// thread interleaving.
    table: Vec<(Property, PropertyId)>,
    /// `rank_of[id]` is the table index of an interned property.
    rank_of: Vec<u32>,
    evidence: Vec<EvidenceRow>,
    provenance: Vec<(u32, u32, &'a [u64])>,
}

impl<'a> Flattened<'a> {
    fn new(output: &'a SurveyorOutput, state: Option<&'a IncrementalState>) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let mut rank_of: Vec<u32> = Vec::new();
        let mut table: Vec<(Property, PropertyId)> = Vec::new();
        let referenced = (output.evidence.iter().map(|(&(_, property), _)| property))
            .chain(output.provenance.iter().map(|(&(_, property), _)| property))
            .chain(output.results.iter().map(|result| result.key.property));
        for property in referenced {
            if rank_of.len() <= property.index() {
                rank_of.resize(property.index() + 1, UNSEEN);
            }
            if rank_of[property.index()] == UNSEEN {
                rank_of[property.index()] = 0; // seen; ranked once the table is sorted
                table.push((property.resolve(), property));
            }
        }
        table.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        for (rank, (_, property)) in table.iter().enumerate() {
            rank_of[property.index()] = rank as u32;
        }

        // A table holds each pair once and ranks are distinct per property,
        // so the sort keys are unique and an unstable sort is deterministic.
        let mut evidence: Vec<EvidenceRow> = (output.evidence.iter())
            .map(|(&(entity, property), counts)| EvidenceRow {
                entity: entity.0,
                property: rank_of[property.index()],
                positive: counts.positive,
                negative: counts.negative,
            })
            .collect();
        evidence.sort_unstable_by_key(|row| (row.entity, row.property));
        let mut provenance: Vec<(u32, u32, &[u64])> = (output.provenance.iter())
            .map(|(&(entity, property), documents)| {
                (entity.0, rank_of[property.index()], documents)
            })
            .collect();
        provenance.sort_unstable_by_key(|&(entity, property, _)| (entity, property));

        Self {
            output,
            state,
            table,
            rank_of,
            evidence,
            provenance,
        }
    }
}

impl SnapshotSource for Flattened<'_> {
    fn properties(&self) -> impl ExactSizeIterator<Item = (&[String], &str)> {
        (self.table.iter()).map(|(property, _)| (property.adverbs(), property.head()))
    }

    fn types(&self) -> impl ExactSizeIterator<Item = (&str, &[String], &[String])> {
        (self.output.kb().types().iter()).map(|t| (t.name(), t.head_nouns(), t.context_cues()))
    }

    fn entities(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            &str,
            &[String],
            u32,
            impl ExactSizeIterator<Item = (&str, f64)>,
        ),
    > {
        self.output.kb().entities().iter().map(|e| {
            (
                e.name(),
                e.aliases(),
                e.notable_type().0,
                (e.attributes().iter()).map(|(key, value)| (key.as_str(), *value)),
            )
        })
    }

    fn evidence(&self) -> impl ExactSizeIterator<Item = EvidenceRow> {
        self.evidence.iter().copied()
    }

    fn provenance_sample_size(&self) -> u64 {
        self.output.provenance.sample_size() as u64
    }

    fn provenance(&self) -> impl ExactSizeIterator<Item = (u32, u32, &[u64])> {
        self.provenance.iter().copied()
    }

    /// Results are in `(type, resolved property)` order
    /// (`GroupedEvidence`) and ranks sort as the resolved properties do:
    /// the rows are already ascending on `(type_index, property)`, the
    /// order a loader demands.
    fn models(&self) -> impl ExactSizeIterator<Item = ModelRow> {
        self.output.results.iter().map(|result| ModelRow {
            type_index: result.key.type_id.0,
            property: self.rank_of[result.key.property.index()],
            p_agree: result.fit.params.p_agree,
            rate_pos: result.fit.params.rate_pos,
            rate_neg: result.fit.params.rate_neg,
            iterations: result.fit.iterations as u64,
            converged: result.fit.converged.code(),
            log_likelihood: result.fit.log_likelihood,
        })
    }

    fn incremental(&self) -> Option<&IncrementalState> {
        self.state
    }

    /// A snapshot with state fingerprints its groups; the writer folds
    /// them from the evidence rows as it writes them.
    fn fingerprints(&self) -> Fingerprints<'_> {
        match self.state {
            Some(_) => Fingerprints::Folded,
            None => Fingerprints::Stored(&[]),
        }
    }
}

/// Flattens a pipeline output into the portable snapshot model: the
/// records [`save_snapshot`] writes, owned.
pub fn snapshot_output(output: &SurveyorOutput) -> Snapshot {
    Snapshot::from_source(&Flattened::new(output, None))
}

/// Like [`snapshot_output`], but carrying the incremental mining state:
/// the `INCR` section records what was ingested (and what is still
/// pending replay), and the `GRPF` section fingerprints every
/// (type, property) group so a later `diff` can name the groups a delta
/// dirtied.
pub fn snapshot_output_with_state(output: &SurveyorOutput, state: &IncrementalState) -> Snapshot {
    Snapshot::from_source(&Flattened::new(output, Some(state)))
}

/// Encodes a pipeline output as snapshot bytes, written straight from the
/// output: no owned [`Snapshot`] is built.
pub fn save_snapshot(output: &SurveyorOutput) -> Vec<u8> {
    surveyor_wire::write_snapshot(&Flattened::new(output, None))
}

/// Encodes a pipeline output plus its incremental state as snapshot
/// bytes (see [`snapshot_output_with_state`]); the group fingerprints are
/// folded while the evidence is written.
pub fn save_snapshot_with_state(output: &SurveyorOutput, state: &IncrementalState) -> Vec<u8> {
    surveyor_wire::write_snapshot(&Flattened::new(output, Some(state)))
}

/// A checked property reference: its row in `PROP` and the id that row
/// interned to in this process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PropertyRef {
    pub(crate) rank: u32,
    pub(crate) id: PropertyId,
}

/// What the sections declare before their rows arrive, each count
/// already bounded by its payload size — what a sink reserves for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Declared {
    pub(crate) evidence: usize,
    pub(crate) provenance: usize,
    pub(crate) provenance_sample_size: usize,
    pub(crate) results: usize,
}

/// One modelled combination as the walk hands it to a sink: its key and
/// fit (from a `MODL` row, traces empty), its type's entities in id
/// order, and their counts as a table of distinct pairs — everything its
/// decisions are a function of.
pub(crate) struct ModelledGroup<'a> {
    pub(crate) key: GroupKey,
    pub(crate) fit: &'a EmFit,
    pub(crate) entities: &'a [EntityId],
    pub(crate) table: &'a CountTable,
}

/// What a loader builds. [`Walk`] hands a sink each record only after the
/// record passed every rule, in section order — types, entities,
/// [`begin_rows`](Self::begin_rows), evidence, provenance, groups — so
/// a sink holds no rule of its own and cannot fail: the pipeline output
/// (`OutputSink`) and the served store ([`crate::store::StoreSink`]) accept
/// and reject exactly the same snapshots.
pub(crate) trait Sink {
    /// What [`finish`](Self::finish) returns.
    type Output;
    /// One `TYPE` record, its name as stored.
    fn entity_type(&mut self, name: &str, head_nouns: &[&str], context_cues: &[&str]);
    /// One `ENTS` record; its row number is its `EntityId`.
    fn entity(&mut self, name: &str, type_index: u32, aliases: &[&str], attributes: &[(&str, f64)]);
    /// The string tables are complete; the row sections follow.
    fn begin_rows(&mut self, declared: Declared);
    /// One `EVID` row. Rows arrive in strictly ascending
    /// `(entity, property.rank)` order.
    fn evidence(&mut self, entity: EntityId, property: PropertyRef, counts: EvidenceCounts);
    /// One `PROV` row, in the same order as the evidence.
    fn provenance(
        &mut self,
        entity: EntityId,
        property: PropertyRef,
        documents: impl Iterator<Item = u64>,
    );
    /// One `MODL` row with what its decisions derive from; `property` is
    /// the group's. Groups arrive in strictly ascending
    /// `(type, property.rank)` order.
    fn group(&mut self, property: PropertyRef, group: &ModelledGroup<'_>);
    /// Every section was read to its end.
    fn finish(self) -> Self::Output;
}

/// The row sections of a snapshot as streams, each behind its declared
/// row count.
struct Rows<E, P, M> {
    evidence_len: usize,
    evidence: E,
    provenance_sample_size: u64,
    provenance_len: usize,
    provenance: P,
    models_len: usize,
    models: M,
    /// Stored group fingerprints the evidence must reproduce; empty = the
    /// snapshot carries none.
    fingerprints: Vec<GroupFingerprintRow>,
}

/// One `PROV` row: its key and its document ids as a stream.
struct ProvenanceRows<U> {
    entity: u32,
    property: u32,
    documents: U,
}

/// `Corrupt(detail)` unless `key` is above the previous row's; row
/// sections are sorted on their keys with no key twice.
fn ascending<K: PartialOrd + Copy>(
    last: &mut Option<K>,
    key: K,
    detail: &'static str,
) -> Result<(), SnapshotError> {
    if last.is_some_and(|last| last >= key) {
        return Err(SnapshotError::Corrupt(detail));
    }
    *last = Some(key);
    Ok(())
}

/// One pass over a snapshot — taken record by record from either an owned
/// [`Snapshot`] or a [`SnapshotReader`] — that checks every
/// cross-reference rule of the format, derives each modelled group's
/// count table, and feeds what passed to a [`Sink`]. Every `Corrupt` rule
/// lives here, once, whichever form the snapshot arrived in and whatever
/// is built from it.
struct Walk<S> {
    sink: S,
    /// The interned id of each property-table index.
    properties: Vec<PropertyId>,
    last_property: Option<Property>,
    /// Type names, lowercased.
    type_names: Vec<String>,
    /// Per type, its entities in id order.
    members: Vec<Vec<EntityId>>,
    /// Per entity, its type and its position in that type's `members`.
    placement: Vec<(u32, u32)>,
}

impl<S: Sink> Walk<S> {
    fn new(sink: S) -> Self {
        Self {
            sink,
            properties: Vec::new(),
            last_property: None,
            type_names: Vec::new(),
            members: Vec::new(),
            placement: Vec::new(),
        }
    }

    fn property(&mut self, adverbs: &[&str], adjective: &str) -> Result<(), SnapshotError> {
        let property = Property::with_adverbs(adverbs, adjective);
        // Rows refer to properties by table index: two indexes that
        // resolve to one property would split that property's rows.
        if (self.last_property.as_ref()).is_some_and(|last| *last >= property) {
            return Err(SnapshotError::Corrupt(
                "property table not in ascending order",
            ));
        }
        self.properties.push(PropertyId::intern(&property));
        self.last_property = Some(property);
        Ok(())
    }

    fn entity_type(
        &mut self,
        name: &str,
        head_nouns: &[&str],
        context_cues: &[&str],
    ) -> Result<(), SnapshotError> {
        // Types are looked up by lowercased name (and
        // `KnowledgeBaseBuilder::add_type` panics on a second one).
        let lowered = name.to_lowercase();
        if self.type_names.contains(&lowered) {
            return Err(SnapshotError::Corrupt("duplicate type name"));
        }
        self.type_names.push(lowered);
        self.members.push(Vec::new());
        self.sink.entity_type(name, head_nouns, context_cues);
        Ok(())
    }

    fn entity(
        &mut self,
        name: &str,
        type_index: u32,
        aliases: &[&str],
        attributes: &[(&str, f64)],
    ) -> Result<(), SnapshotError> {
        let Some(members) = self.members.get_mut(type_index as usize) else {
            return Err(SnapshotError::Corrupt("entity type index out of range"));
        };
        // Entity ids are u32 on the wire (`EntityId`, `EVID`, `PROV`): a
        // table past u32::MAX rows would take a file of tens of gigabytes.
        self.placement.push((type_index, members.len() as u32));
        members.push(EntityId(self.placement.len() as u32 - 1));
        self.sink.entity(name, type_index, aliases, attributes);
        Ok(())
    }

    /// Checks and feeds the row sections, and finishes the sink.
    fn rows<E, P, U, M>(mut self, rows: Rows<E, P, M>) -> Result<S::Output, SnapshotError>
    where
        E: Iterator<Item = Result<EvidenceRow, WireError>>,
        P: Iterator<Item = Result<ProvenanceRows<U>, WireError>>,
        U: Iterator<Item = u64>,
        M: Iterator<Item = Result<ModelRow, WireError>>,
    {
        let type_count = self.type_names.len() as u64;
        let entity_count = self.placement.len() as u64;
        let sample_size = usize::try_from(rows.provenance_sample_size)
            .map_err(|_| SnapshotError::Corrupt("provenance sample size out of range"))?;
        self.sink.begin_rows(Declared {
            evidence: rows.evidence_len,
            provenance: rows.provenance_len,
            provenance_sample_size: sample_size,
            results: rows.models_len,
        });
        let property_of = |rank: u32, detail: &'static str| match self.properties.get(rank as usize)
        {
            Some(&id) => Ok(PropertyRef { rank, id }),
            None => Err(SnapshotError::Corrupt(detail)),
        };

        // One pass over the evidence rows feeds the sink, gathers each
        // (type, property) group's mentioned entities by their position in
        // the type, and, when the snapshot carries fingerprints,
        // re-derives them. Per type, the groups are a small ordered map
        // on the property: a few comparisons a row, whatever the keys.
        let mut mentions: Vec<BTreeMap<u32, Vec<(u32, ObservedCounts)>>> =
            vec![BTreeMap::new(); self.members.len()];
        let mut fingerprinter = (!rows.fingerprints.is_empty()).then(GroupFingerprinter::new);
        let mut statements = 0u64;
        let mut last = None;
        for row in rows.evidence {
            let row = row?;
            if u64::from(row.entity) >= entity_count {
                return Err(SnapshotError::Corrupt("evidence entity out of range"));
            }
            let property = property_of(row.property, "evidence property out of range")?;
            ascending(
                &mut last,
                (row.entity, row.property),
                "evidence rows not in ascending order",
            )?;
            // Every counter a sink derives is a partial sum of this one,
            // so none of them can overflow once it does not.
            statements = (statements.checked_add(row.positive))
                .and_then(|sum| sum.checked_add(row.negative))
                .ok_or(SnapshotError::Corrupt("evidence counts overflow"))?;
            let (type_index, position) = self.placement[row.entity as usize];
            if let Some(fingerprinter) = &mut fingerprinter {
                fingerprinter.add(type_index, &row);
            }
            (mentions[type_index as usize]
                .entry(row.property)
                .or_default())
            .push((position, ObservedCounts::new(row.positive, row.negative)));
            self.sink.evidence(
                EntityId(row.entity),
                property,
                EvidenceCounts::new(row.positive, row.negative),
            );
        }
        if fingerprinter.is_some_and(|f| f.finish() != rows.fingerprints) {
            return Err(SnapshotError::Corrupt(
                "group fingerprints do not match evidence",
            ));
        }

        let mut last = None;
        for row in rows.provenance {
            let row = row?;
            if u64::from(row.entity) >= entity_count {
                return Err(SnapshotError::Corrupt("provenance entity out of range"));
            }
            let property = property_of(row.property, "provenance property out of range")?;
            ascending(
                &mut last,
                (row.entity, row.property),
                "provenance rows not in ascending order",
            )?;
            self.sink
                .provenance(EntityId(row.entity), property, row.documents);
        }

        let mut last = None;
        for model in rows.models {
            let model = model?;
            if u64::from(model.type_index) >= type_count {
                return Err(SnapshotError::Corrupt("model type index out of range"));
            }
            let property = property_of(model.property, "model property out of range")?;
            // One row per combination: the pipeline output keeps one
            // result per key, and the store one block.
            ascending(
                &mut last,
                (model.type_index, model.property),
                "model rows not in ascending order",
            )?;
            let Some(converged) = ConvergenceReason::from_code(model.converged) else {
                return Err(SnapshotError::Corrupt("unknown convergence code"));
            };
            // `ModelParams::new` asserts these invariants; check them here so
            // a corrupt snapshot surfaces as an error, never a panic.
            if !((0.0..=1.0).contains(&model.p_agree)
                && model.rate_pos.is_finite()
                && model.rate_pos >= 0.0
                && model.rate_neg.is_finite()
                && model.rate_neg >= 0.0)
            {
                return Err(SnapshotError::Corrupt("model parameters out of range"));
            }
            let iterations = usize::try_from(model.iterations)
                .map_err(|_| SnapshotError::Corrupt("iteration count out of range"))?;
            let entities = &self.members[model.type_index as usize];
            let mut mentioned =
                (mentions[model.type_index as usize].remove(&model.property)).unwrap_or_default();
            let table = CountTable::sparse(entities.len(), &mut mentioned);
            let fit = EmFit {
                params: ModelParams::new(model.p_agree, model.rate_pos, model.rate_neg),
                iterations,
                q_trace: Vec::new(),
                delta_trace: Vec::new(),
                converged,
                log_likelihood: model.log_likelihood,
            };
            self.sink.group(
                property,
                &ModelledGroup {
                    key: GroupKey {
                        type_id: TypeId(model.type_index),
                        property: property.id,
                    },
                    fit: &fit,
                    entities,
                    table: &table,
                },
            );
        }
        Ok(self.sink.finish())
    }
}

/// The sink behind [`load_snapshot`]: the knowledge base whose dense
/// `TypeId`/`EntityId` values are the type- and entity-table indexes, the
/// evidence and provenance tables filled by id, and the results with
/// their decisions derived.
struct OutputSink {
    builder: KnowledgeBaseBuilder,
    evidence: EvidenceTable,
    provenance: ProvenanceTable,
    results: Vec<DomainResult>,
}

impl OutputSink {
    fn new() -> Self {
        Self {
            builder: KnowledgeBaseBuilder::new(),
            evidence: EvidenceTable::new(),
            provenance: ProvenanceTable::new(1),
            results: Vec::new(),
        }
    }
}

impl Sink for OutputSink {
    type Output = SurveyorOutput;

    fn entity_type(&mut self, name: &str, head_nouns: &[&str], context_cues: &[&str]) {
        self.builder.add_type(name, head_nouns, context_cues);
    }

    fn entity(
        &mut self,
        name: &str,
        type_index: u32,
        aliases: &[&str],
        attributes: &[(&str, f64)],
    ) {
        let mut entity = self.builder.add_entity(name, TypeId(type_index));
        for alias in aliases {
            entity = entity.alias(alias);
        }
        for (key, value) in attributes {
            entity = entity.attribute(key, *value);
        }
        entity.finish();
    }

    fn begin_rows(&mut self, declared: Declared) {
        self.evidence = EvidenceTable::with_capacity(declared.evidence);
        self.provenance =
            ProvenanceTable::with_capacity(declared.provenance_sample_size, declared.provenance);
        self.results = Vec::with_capacity(declared.results);
    }

    fn evidence(&mut self, entity: EntityId, property: PropertyRef, counts: EvidenceCounts) {
        self.evidence.add_counts(entity, property.id, counts);
    }

    fn provenance(
        &mut self,
        entity: EntityId,
        property: PropertyRef,
        documents: impl Iterator<Item = u64>,
    ) {
        self.provenance
            .insert(entity, property.id, documents.collect());
    }

    fn group(&mut self, _: PropertyRef, group: &ModelledGroup<'_>) {
        let decisions = (group.entities.iter().copied())
            .zip(group.table.decisions(&group.fit.params))
            .collect();
        self.results.push(DomainResult {
            key: group.key,
            fit: group.fit.clone(),
            decisions,
        });
    }

    fn finish(self) -> SurveyorOutput {
        let kb = Arc::new(self.builder.build());
        let grouped = GroupedEvidence::from_table(&self.evidence, &kb);
        SurveyorOutput::from_parts(self.evidence, self.provenance, grouped, self.results, kb)
    }
}

/// Feeds an owned snapshot through [`Walk`] into `sink`.
fn walk_snapshot<S: Sink>(snapshot: &Snapshot, sink: S) -> Result<S::Output, SnapshotError> {
    fn strs(strings: &[String]) -> Vec<&str> {
        strings.iter().map(String::as_str).collect()
    }
    let mut walk = Walk::new(sink);
    for p in &snapshot.properties {
        walk.property(&strs(&p.adverbs), &p.adjective)?;
    }
    for t in &snapshot.types {
        walk.entity_type(&t.name, &strs(&t.head_nouns), &strs(&t.context_cues))?;
    }
    for e in &snapshot.entities {
        let attributes: Vec<(&str, f64)> =
            (e.attributes.iter().map(|(k, v)| (k.as_str(), *v))).collect();
        walk.entity(&e.name, e.type_index, &strs(&e.aliases), &attributes)?;
    }
    walk.rows(Rows {
        evidence_len: snapshot.evidence.len(),
        evidence: snapshot.evidence.iter().copied().map(Ok),
        provenance_sample_size: snapshot.provenance_sample_size,
        provenance_len: snapshot.provenance.len(),
        provenance: snapshot.provenance.iter().map(|row| {
            Ok(ProvenanceRows {
                entity: row.entity,
                property: row.property,
                documents: row.documents.iter().copied(),
            })
        }),
        models_len: snapshot.models.len(),
        models: snapshot.models.iter().cloned().map(Ok),
        fingerprints: snapshot.fingerprints.clone(),
    })
}

/// Rebuilds a pipeline output from the portable snapshot model,
/// validating every cross-reference and deriving every decision. The
/// rebuilt output's knowledge base assigns the same dense
/// `TypeId`/`EntityId` values the snapshot's table order implies;
/// properties are re-interned in this process.
pub fn output_from_snapshot(snapshot: &Snapshot) -> Result<SurveyorOutput, SnapshotError> {
    walk_snapshot(snapshot, OutputSink::new())
}

/// Bytes → sink without an owned [`Snapshot`] in between: the tables and
/// rows are taken straight off the reader's borrowing iterators. Every
/// section is read to its end — `INCR` and `GRPF` included, and every
/// string, whether or not the sink keeps it — so a malformed record
/// anywhere is an error, as it is for [`surveyor_wire::decode`].
fn walk_bytes<S: Sink>(
    bytes: &[u8],
    sink: S,
) -> Result<(S::Output, Option<IncrementalState>), SnapshotError> {
    let reader = SnapshotReader::new(bytes)?;
    let incremental = reader.incremental()?;
    let fingerprints = reader.fingerprints().collect::<Result<Vec<_>, _>>()?;

    let mut walk = Walk::new(sink);
    let mut strs: Vec<&str> = Vec::new();
    for record in reader.properties() {
        let record = record?;
        strs.clear();
        for adverb in record.adverbs {
            strs.push(adverb?);
        }
        walk.property(&strs, record.adjective)?;
    }
    for record in reader.types() {
        let record = record?;
        strs.clear();
        for noun in record.head_nouns {
            strs.push(noun?);
        }
        let nouns = strs.len();
        for cue in record.context_cues {
            strs.push(cue?);
        }
        walk.entity_type(record.name, &strs[..nouns], &strs[nouns..])?;
    }
    let mut attributes: Vec<(&str, f64)> = Vec::new();
    for record in reader.entities() {
        let record = record?;
        strs.clear();
        for alias in record.aliases {
            strs.push(alias?);
        }
        attributes.clear();
        for attribute in record.attributes {
            attributes.push(attribute?);
        }
        walk.entity(record.name, record.type_index, &strs, &attributes)?;
    }
    let output = walk.rows(Rows {
        evidence_len: reader.evidence().len(),
        evidence: reader.evidence(),
        provenance_sample_size: reader.provenance_sample_size(),
        provenance_len: reader.provenance().len(),
        provenance: reader.provenance().map(|record| {
            record.map(|record| ProvenanceRows {
                entity: record.entity,
                property: record.property,
                documents: record.documents,
            })
        }),
        models_len: reader.models().len(),
        models: reader.models(),
        fingerprints,
    })?;
    Ok((output, incremental))
}

/// Decodes snapshot bytes back into a fully functional pipeline output.
///
/// Like every loader, it re-derives the group fingerprints from the
/// evidence section when the snapshot carries them (FORMAT.md §3.8) and
/// rejects a snapshot whose stored ones disagree.
pub fn load_snapshot(bytes: &[u8]) -> Result<SurveyorOutput, SnapshotError> {
    walk_bytes(bytes, OutputSink::new()).map(|(output, _)| output)
}

/// Decodes snapshot bytes into a pipeline output plus its incremental
/// mining state, if the producer recorded one.
pub fn load_snapshot_with_state(
    bytes: &[u8],
) -> Result<(SurveyorOutput, Option<IncrementalState>), SnapshotError> {
    walk_bytes(bytes, OutputSink::new())
}

/// Decodes snapshot bytes straight into the queryable store — what the
/// query server serves — without the pipeline output in between: no
/// knowledge base, no evidence or provenance table. It passes through the
/// same checks as [`load_snapshot`] and accepts exactly the snapshots
/// that function accepts; the store is the one
/// [`SubjectiveKb::from_output`] builds from that function's output.
pub fn load_store(bytes: &[u8]) -> Result<SubjectiveKb, SnapshotError> {
    walk_bytes(bytes, StoreSink::default()).map(|(store, _)| store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use crate::store::SubjectiveKb;
    use surveyor_extract::{Polarity, Statement};
    use surveyor_kb::KnowledgeBase;

    /// Every result's decisions as raw bits, for bitwise comparison (the
    /// verdict is a function of the posterior).
    fn decision_bits(output: &SurveyorOutput) -> Vec<Vec<(u32, u64)>> {
        (output.results.iter())
            .map(|result| {
                (result.decisions.iter())
                    .map(|(entity, d)| (entity.0, d.probability.map_or(u64::MAX, f64::to_bits)))
                    .collect()
            })
            .collect()
    }

    fn mined_output() -> SurveyorOutput {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal", "creature"], &["zoo"]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal)
                .alias(&format!("the {name}"))
                .attribute("legs", 4.0)
                .finish();
        }
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let tiny = Property::with_adverbs(&["very"], "tiny");
        let mut table = EvidenceTable::new();
        let mut prov = ProvenanceTable::new(3);
        let mut doc = 0u64;
        let mut add = |table: &mut EvidenceTable,
                       prov: &mut ProvenanceTable,
                       name: &str,
                       property: &Property,
                       pos: u64,
                       neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                let s = Statement::new(e, property, Polarity::Positive);
                prov.record(&s, doc);
                doc += 1;
                table.add(&s);
            }
            for _ in 0..neg {
                let s = Statement::new(e, property, Polarity::Negative);
                prov.record(&s, doc);
                doc += 1;
                table.add(&s);
            }
        };
        add(&mut table, &mut prov, "Kitten", &cute, 50, 2);
        add(&mut table, &mut prov, "Puppy", &cute, 40, 1);
        add(&mut table, &mut prov, "Tiger", &cute, 4, 8);
        add(&mut table, &mut prov, "Spider", &cute, 1, 10);
        add(&mut table, &mut prov, "Spider", &tiny, 30, 3);
        add(&mut table, &mut prov, "Kitten", &tiny, 20, 6);
        let surveyor = Surveyor::new(
            kb,
            SurveyorConfig {
                rho: 30,
                ..Default::default()
            },
        );
        let mut output = surveyor.run_on_evidence(table);
        output.provenance = prov;
        output
    }

    #[test]
    fn save_load_round_trips_the_whole_world() {
        let output = mined_output();
        let bytes = save_snapshot(&output);
        let loaded = load_snapshot(&bytes).unwrap();

        // The decision surface is identical...
        assert_eq!(
            SubjectiveKb::from_output(&loaded, loaded.kb()).to_json(),
            SubjectiveKb::from_output(&output, output.kb()).to_json()
        );
        assert_eq!(loaded.triples(), output.triples());
        assert_eq!(loaded.decided_pairs(), output.decided_pairs());
        assert_eq!(loaded.evidence.to_json(), output.evidence.to_json());
        // ...and so is a re-encoded snapshot, byte for byte.
        assert_eq!(save_snapshot(&loaded), bytes);
    }

    #[test]
    fn loaded_kb_matches_the_original() {
        let output = mined_output();
        let loaded = load_snapshot(&save_snapshot(&output)).unwrap();
        let (a, b): (&KnowledgeBase, &KnowledgeBase) = (loaded.kb(), output.kb());
        assert_eq!(a.types().len(), b.types().len());
        assert_eq!(a.entities().len(), b.entities().len());
        for (x, y) in a.entities().iter().zip(b.entities()) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.aliases(), y.aliases());
            assert_eq!(x.notable_type(), y.notable_type());
            assert_eq!(x.attributes(), y.attributes());
        }
    }

    #[test]
    fn empty_output_round_trips() {
        let mut b = KnowledgeBaseBuilder::new();
        b.add_type("animal", &["animal"], &[]);
        let kb = Arc::new(b.build());
        let surveyor = Surveyor::new(kb, SurveyorConfig::default());
        let output = surveyor.run_on_evidence(EvidenceTable::new());
        let bytes = save_snapshot(&output);
        let loaded = load_snapshot(&bytes).unwrap();
        assert_eq!(loaded.modeled_combinations(), 0);
        assert_eq!(save_snapshot(&loaded), bytes);
    }

    /// The error a bad snapshot draws — the same one, checked here, from
    /// the owned form and from its bytes, by each entry point and into
    /// either sink.
    fn rejection(bad: &Snapshot) -> SnapshotError {
        let owned = output_from_snapshot(bad).err();
        let bytes = surveyor_wire::encode(bad);
        assert_eq!(load_snapshot(&bytes).err(), owned);
        assert_eq!(load_snapshot_with_state(&bytes).err(), owned);
        assert_eq!(load_store(&bytes).err(), owned);
        owned.expect("a bad snapshot loaded")
    }

    #[test]
    fn dangling_indexes_are_corrupt_not_panics() {
        let output = mined_output();
        let good = snapshot_output(&output);
        let corrupt = |edit: &dyn Fn(&mut Snapshot)| {
            let mut bad = good.clone();
            edit(&mut bad);
            match rejection(&bad) {
                SnapshotError::Corrupt(detail) => detail,
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };

        assert_eq!(
            corrupt(&|bad| bad.entities[0].type_index = 99),
            "entity type index out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.evidence[0].entity = 1_000),
            "evidence entity out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.evidence[0].property = 99),
            "evidence property out of range"
        );
        assert_eq!(
            corrupt(&|bad| {
                bad.evidence[0].positive = u64::MAX;
                bad.evidence[1].negative = 1;
            }),
            "evidence counts overflow"
        );
        assert_eq!(
            corrupt(&|bad| bad.provenance[0].entity = 1_000),
            "provenance entity out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.provenance[0].property = 99),
            "provenance property out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.models[0].converged = 77),
            "unknown convergence code"
        );
        assert_eq!(
            corrupt(&|bad| bad.models[0].p_agree = f64::NAN),
            "model parameters out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.models[0].type_index = 9),
            "model type index out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.models[0].property = 99),
            "model property out of range"
        );
    }

    #[test]
    fn duplicate_type_names_are_corrupt_not_a_builder_panic() {
        // `KnowledgeBaseBuilder::add_type` asserts on a second type of one
        // lowercased name; a snapshot holding one must never reach it.
        let mut bad = snapshot_output(&mined_output());
        let mut twin = bad.types[0].clone();
        twin.name = twin.name.to_uppercase();
        assert_ne!(twin.name, bad.types[0].name);
        bad.types.push(twin);
        assert_eq!(
            rejection(&bad),
            SnapshotError::Corrupt("duplicate type name")
        );
    }

    #[test]
    fn rows_out_of_key_order_are_corrupt() {
        // The property table and the evidence, provenance and model
        // sections are sorted on their keys with no key twice (FORMAT.md
        // §3, §3.4–§3.6): rows refer to properties by table index, the
        // store builder finds a pair's documents by position, and a
        // combination is one result and one block.
        let good = snapshot_output(&mined_output());
        assert!(good.properties.len() >= 2 && good.provenance.len() >= 2);
        assert!(good.models.len() >= 2);
        let corrupt = |edit: &dyn Fn(&mut Snapshot)| {
            let mut bad = good.clone();
            edit(&mut bad);
            rejection(&bad)
        };
        assert_eq!(
            corrupt(&|bad| bad.properties.swap(0, 1)),
            SnapshotError::Corrupt("property table not in ascending order")
        );
        // Two table rows that differ as stored and resolve to one property.
        assert_eq!(
            corrupt(&|bad| {
                let mut twin = bad.properties[0].clone();
                twin.adjective = twin.adjective.to_uppercase();
                bad.properties.insert(1, twin);
            }),
            SnapshotError::Corrupt("property table not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| bad.evidence.swap(0, 1)),
            SnapshotError::Corrupt("evidence rows not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| bad.evidence[1] = bad.evidence[0]),
            SnapshotError::Corrupt("evidence rows not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| bad.provenance.swap(0, 1)),
            SnapshotError::Corrupt("provenance rows not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| {
                let twin = bad.provenance[0].clone();
                bad.provenance.insert(0, twin);
            }),
            SnapshotError::Corrupt("provenance rows not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| bad.models.swap(0, 1)),
            SnapshotError::Corrupt("model rows not in ascending order")
        );
        // Two rows for one combination: the store would hold two blocks
        // and the output's group map one of them.
        assert_eq!(
            corrupt(&|bad| {
                let twin = bad.models[0].clone();
                bad.models.insert(1, twin);
            }),
            SnapshotError::Corrupt("model rows not in ascending order")
        );
    }

    #[test]
    fn loaded_decisions_are_the_mined_ones_bit_for_bit() {
        // Nothing stores a decision: the loader's are derived from the
        // model rows and the evidence, and must be what the mine decided.
        let output = mined_output();
        let loaded = load_snapshot(&save_snapshot(&output)).unwrap();
        assert_eq!(decision_bits(&loaded), decision_bits(&output));
        // A loaded fit keeps its summary and none of its traces.
        for (mined, loaded) in output.results.iter().zip(&loaded.results) {
            assert!(!mined.fit.q_trace.is_empty());
            assert!(loaded.fit.q_trace.is_empty() && loaded.fit.delta_trace.is_empty());
            assert_eq!(loaded.fit.params, mined.fit.params);
            assert_eq!(loaded.fit.iterations, mined.fit.iterations);
            assert_eq!(loaded.fit.converged, mined.fit.converged);
        }
    }

    #[test]
    fn stale_fingerprints_are_rejected_by_every_loader() {
        let output = mined_output();
        let state = IncrementalState {
            rho: 30,
            ..Default::default()
        };
        let good = snapshot_output_with_state(&output, &state);
        let bytes = surveyor_wire::encode(&good);
        let (loaded, loaded_state) = load_snapshot_with_state(&bytes).unwrap();
        assert_eq!(loaded_state, Some(state));
        assert_eq!(loaded.triples(), output.triples());
        assert_eq!(load_snapshot(&bytes).unwrap().triples(), output.triples());
        assert_eq!(load_store(&bytes).unwrap().len(), output.decided_pairs());

        // One more statement than the fingerprints were taken over. The
        // check rides the evidence pass every loader makes, so a load that
        // drops the incremental state makes it too — and so does the
        // store builder.
        let mut bad = good;
        bad.evidence[0].positive += 1;
        assert_eq!(
            rejection(&bad),
            SnapshotError::Corrupt("group fingerprints do not match evidence")
        );
    }

    #[test]
    fn wire_errors_pass_through() {
        assert!(matches!(
            load_snapshot(b"junk"),
            Err(SnapshotError::Wire(WireError::BadMagic { .. }))
        ));
    }
}
