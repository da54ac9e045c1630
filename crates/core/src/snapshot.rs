//! Saving and loading mined worlds as `surveyor-wire` snapshots.
//!
//! [`save_snapshot`] flattens a [`SurveyorOutput`] — knowledge base,
//! evidence, provenance, fitted models — into the portable binary format
//! specified in `FORMAT.md`; [`load_snapshot`] rebuilds a fully functional
//! output (decision lookup included) without re-mining. Decisions are not
//! stored: each is `decide(posterior(params, c+, c−))` of its group's
//! `MODL` row and its entity's `ROWS` counts, and every loader derives
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
//! ([`load_store`], which builds no knowledge base and no tables, and
//! [`SubjectiveKb::from_output`], which walks a mined output as a save
//! would lay it out). Every `Corrupt` rule lives in the walk, once, ahead
//! of both sinks and whichever form the snapshot arrived in — bytes, an
//! owned [`Snapshot`] or an output — and so does the derivation:
//! the walk hands each sink a modelled group's count table and fit, so
//! the loaders cannot disagree on what they accept or on what they decide.

use crate::pipeline::{DomainResult, SurveyorOutput};
use crate::store::{StoreSink, SubjectiveKb};
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::Arc;
use surveyor_extract::{EvidenceCounts, EvidenceTable, GroupKey, ProvenanceTable};
use surveyor_kb::{EntityId, KnowledgeBaseBuilder, Property, PropertyId, TypeId};
use surveyor_model::{ConvergenceReason, CountTable, EmFit, ModelParams, ObservedCounts};
use surveyor_wire::{
    EvidenceRow, IncrementalState, ModelRow, Snapshot, SnapshotReader, SnapshotSource, WireError,
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
/// preparation behind the bytes ([`save_snapshot`]), the owned export
/// ([`snapshot_output`]) and the store of a mine
/// ([`SubjectiveKb::from_output`]), so the three cannot drift apart.
///
/// Rows stay in id space: each distinct property is resolved once to
/// build the snapshot-local table, and every row and model row then
/// carries its property's rank in that table — an integer looked up by
/// id, sorted as an integer. Only those rows and the table are built
/// here; types, entities and document lists are borrowed.
///
/// A row is an evidence pair with its document sample joined on: a
/// sample whose pair has no evidence is not written (no writer makes
/// one — every recorded document comes with a counted statement).
pub(crate) struct Flattened<'a> {
    output: &'a SurveyorOutput,
    state: Option<&'a IncrementalState>,
    /// The property table: every property a row or a result refers to,
    /// resolved, deduplicated and sorted. Indexes into it are the only
    /// property references on the wire — process-local interner ids
    /// depend on thread interleaving.
    table: Vec<(Property, PropertyId)>,
    /// `rank_of[id]` is the table index of an interned property.
    rank_of: Vec<u32>,
    rows: Vec<(EvidenceRow, &'a [u64])>,
}

impl<'a> Flattened<'a> {
    pub(crate) fn new(output: &'a SurveyorOutput, state: Option<&'a IncrementalState>) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let mut rank_of: Vec<u32> = Vec::new();
        let mut table: Vec<(Property, PropertyId)> = Vec::new();
        let referenced = (output.evidence.iter().map(|(&(_, property), _)| property))
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
        let mut rows: Vec<(EvidenceRow, &[u64])> = (output.evidence.iter())
            .map(|(&(entity, property), counts)| {
                let row = EvidenceRow {
                    entity: entity.0,
                    property: rank_of[property.index()],
                    positive: counts.positive,
                    negative: counts.negative,
                };
                (row, output.provenance.documents_id(entity, property))
            })
            .collect();
        rows.sort_unstable_by_key(|(row, _)| (row.entity, row.property));

        Self {
            output,
            state,
            table,
            rank_of,
            rows,
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

    fn sample_size(&self) -> u64 {
        self.output.provenance.sample_size() as u64
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = (EvidenceRow, &[u64])> {
        self.rows.iter().copied()
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
}

/// Flattens a pipeline output into the portable snapshot model: the
/// records [`save_snapshot`] writes, owned.
pub fn snapshot_output(output: &SurveyorOutput) -> Snapshot {
    Snapshot::from_source(&Flattened::new(output, None))
}

/// Like [`snapshot_output`], but carrying the incremental mining state:
/// the `INCR` section records what was ingested (and what is still
/// pending replay) and the digests an update checks.
pub fn snapshot_output_with_state(output: &SurveyorOutput, state: &IncrementalState) -> Snapshot {
    Snapshot::from_source(&Flattened::new(output, Some(state)))
}

/// Encodes a pipeline output as snapshot bytes, written straight from the
/// output: no owned [`Snapshot`] is built.
pub fn save_snapshot(output: &SurveyorOutput) -> Vec<u8> {
    surveyor_wire::write_snapshot(&Flattened::new(output, None))
}

/// Encodes a pipeline output plus its incremental state as snapshot
/// bytes (see [`snapshot_output_with_state`]).
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
    pub(crate) rows: usize,
    pub(crate) sample_size: usize,
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
/// [`begin_rows`](Self::begin_rows), rows, groups — so
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
    /// One `ROWS` row: a pair's counts and its document sample, strictly
    /// ascending and no longer than the declared sample size; empty when
    /// the pair has none. Rows arrive in strictly ascending
    /// `(entity, property.rank)` order.
    fn row(
        &mut self,
        entity: EntityId,
        property: PropertyRef,
        counts: EvidenceCounts,
        documents: &[u64],
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
struct Rows<R, M> {
    sample_size: u64,
    rows_len: usize,
    /// Each row's key and counts, and its documents.
    rows: R,
    models_len: usize,
    models: M,
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

/// One pass over a snapshot — taken record by record from a
/// [`SnapshotSource`] in memory or a [`SnapshotReader`] — that checks every
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
        if !all_lowercase(adverbs.iter().chain([&adjective])) {
            return Err(SnapshotError::Corrupt("property words not lowercase"));
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
        // The knowledge base lowercases a type's vocabulary, so anything
        // else would be written back changed.
        if !all_lowercase([&name].into_iter().chain(head_nouns).chain(context_cues)) {
            return Err(SnapshotError::Corrupt("type vocabulary not lowercase"));
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
        // The knowledge base keeps attributes in a map by key.
        if attributes.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(SnapshotError::Corrupt("attribute keys not ascending"));
        }
        // Entity ids are u32 on the wire (`EntityId`, `ROWS`): a
        // table past u32::MAX rows would take a file of tens of gigabytes.
        self.placement.push((type_index, members.len() as u32));
        members.push(EntityId(self.placement.len() as u32 - 1));
        self.sink.entity(name, type_index, aliases, attributes);
        Ok(())
    }

    /// Checks and feeds the row sections, and finishes the sink.
    fn rows<R, D, M>(mut self, rows: Rows<R, M>) -> Result<S::Output, SnapshotError>
    where
        R: Iterator<Item = Result<(EvidenceRow, D), WireError>>,
        D: ExactSizeIterator<Item = Result<u64, WireError>>,
        M: Iterator<Item = Result<ModelRow, WireError>>,
    {
        let type_count = self.type_names.len() as u64;
        let entity_count = self.placement.len() as u64;
        let sample_size = usize::try_from(rows.sample_size)
            .map_err(|_| SnapshotError::Corrupt("sample size out of range"))?;
        self.sink.begin_rows(Declared {
            rows: rows.rows_len,
            sample_size,
            results: rows.models_len,
        });
        // A writer writes only the properties a row or a model refers to.
        let mut referenced = vec![false; self.properties.len()];
        let mut property_of =
            |rank: u32, detail: &'static str| match self.properties.get(rank as usize) {
                Some(&id) => {
                    referenced[rank as usize] = true;
                    Ok(PropertyRef { rank, id })
                }
                None => Err(SnapshotError::Corrupt(detail)),
            };

        // One pass over the rows feeds the sink and gathers each
        // (type, property) group's mentioned entities by their position in
        // the type. A group is a dense slot numbered in the order groups
        // are first seen: one hash lookup a row, where an ordered map would
        // walk a tree. Keys come from the file, so a crafted file can make
        // them collide; that costs load time, never a wrong answer.
        let mut groups: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        let mut mentions: Vec<Vec<(u32, ObservedCounts)>> = Vec::new();
        let mut statements = 0u64;
        let mut last = None;
        let mut documents = Vec::new();
        for row in rows.rows {
            let (row, sample) = row?;
            if u64::from(row.entity) >= entity_count {
                return Err(SnapshotError::Corrupt("row entity out of range"));
            }
            let property = property_of(row.property, "row property out of range")?;
            ascending(
                &mut last,
                (row.entity, row.property),
                "rows not in ascending order",
            )?;
            // Every counter a sink derives is a partial sum of this one,
            // so none of them can overflow once it does not.
            statements = (statements.checked_add(row.positive))
                .and_then(|sum| sum.checked_add(row.negative))
                .ok_or(SnapshotError::Corrupt("evidence counts overflow"))?;
            // An update merges new documents into a sample by binary
            // search and truncates it to the sample size: a sample longer
            // than that, or with an id twice, would not update as it mines.
            if sample.len() > sample_size {
                return Err(SnapshotError::Corrupt(
                    "document sample larger than the sample size",
                ));
            }
            documents.clear();
            for document in sample {
                documents.push(document?);
            }
            if documents.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(SnapshotError::Corrupt(
                    "document ids not strictly ascending",
                ));
            }
            let (type_index, position) = self.placement[row.entity as usize];
            let next = groups.len();
            let slot = *groups.entry((type_index, row.property)).or_insert(next);
            if slot == mentions.len() {
                mentions.push(Vec::new());
            }
            mentions[slot].push((position, ObservedCounts::new(row.positive, row.negative)));
            self.sink.row(
                EntityId(row.entity),
                property,
                EvidenceCounts::new(row.positive, row.negative),
                &documents,
            );
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
            let mut mentioned = (groups.get(&(model.type_index, model.property)))
                .map(|&slot| std::mem::take(&mut mentions[slot]))
                .unwrap_or_default();
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
        if referenced.contains(&false) {
            return Err(SnapshotError::Corrupt("property referenced by no row"));
        }
        Ok(self.sink.finish())
    }
}

/// Whether every string is its own `to_lowercase()`, as the knowledge
/// base and the property table store their vocabulary.
fn all_lowercase<'s>(strings: impl IntoIterator<Item = &'s &'s str>) -> bool {
    (strings.into_iter()).all(|s| s.to_lowercase() == *s)
}

/// The sink behind [`load_snapshot`]: the knowledge base whose dense
/// `TypeId`/`EntityId` values are the type- and entity-table indexes, the
/// evidence and provenance tables filled by id from the rows (a row
/// without documents has no sample), and the results with their
/// decisions derived.
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
        self.evidence = EvidenceTable::with_capacity(declared.rows);
        self.provenance = ProvenanceTable::with_capacity(declared.sample_size, declared.rows);
        self.results = Vec::with_capacity(declared.results);
    }

    fn row(
        &mut self,
        entity: EntityId,
        property: PropertyRef,
        counts: EvidenceCounts,
        documents: &[u64],
    ) {
        self.evidence.add_counts(entity, property.id, counts);
        if !documents.is_empty() {
            (self.provenance).insert(entity, property.id, documents.to_vec());
        }
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
        SurveyorOutput::from_parts(self.evidence, self.provenance, self.results, kb)
    }
}

/// Feeds a snapshot held in memory — an owned [`Snapshot`], or a
/// pipeline output laid out for the writer — through [`Walk`] into
/// `sink`, record by record in section order.
pub(crate) fn walk_snapshot<S: Sink>(
    source: &impl SnapshotSource,
    sink: S,
) -> Result<S::Output, SnapshotError> {
    fn strs(strings: &[String]) -> Vec<&str> {
        strings.iter().map(String::as_str).collect()
    }
    let mut walk = Walk::new(sink);
    for (adverbs, adjective) in source.properties() {
        walk.property(&strs(adverbs), adjective)?;
    }
    for (name, head_nouns, context_cues) in source.types() {
        walk.entity_type(name, &strs(head_nouns), &strs(context_cues))?;
    }
    for (name, aliases, type_index, attributes) in source.entities() {
        let attributes: Vec<(&str, f64)> = attributes.collect();
        walk.entity(name, type_index, &strs(aliases), &attributes)?;
    }
    walk.rows(Rows {
        sample_size: source.sample_size(),
        rows_len: source.rows().len(),
        rows: (source.rows()).map(|(row, documents)| Ok((row, documents.iter().copied().map(Ok)))),
        models_len: source.models().len(),
        models: source.models().map(Ok),
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
/// section is read to its end — `INCR` included, and every string,
/// whether or not the sink keeps it — so a malformed record anywhere is
/// an error, as it is for [`surveyor_wire::decode`].
fn walk_bytes<S: Sink>(
    bytes: &[u8],
    sink: S,
) -> Result<(S::Output, Option<IncrementalState>), SnapshotError> {
    let reader = SnapshotReader::new(bytes)?;
    let incremental = reader.incremental()?;

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
        sample_size: reader.sample_size(),
        rows_len: reader.rows().len(),
        rows: (reader.rows())
            .map(|record| record.map(|record| (record.evidence(), record.documents))),
        models_len: reader.models().len(),
        models: reader.models(),
    })?;
    Ok((output, incremental))
}

/// Decodes snapshot bytes back into a fully functional pipeline output.
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
        assert_eq!(loaded.evidence.to_entries(), output.evidence.to_entries());
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
        let last = good.rows.len() - 1;
        assert_eq!(
            corrupt(&|bad| bad.rows[last].entity = 1_000),
            "row entity out of range"
        );
        assert_eq!(
            corrupt(&|bad| bad.rows[0].property = 99),
            "row property out of range"
        );
        assert_eq!(
            corrupt(&|bad| {
                bad.rows[0].positive = u64::MAX;
                bad.rows[1].negative = 1;
            }),
            "evidence counts overflow"
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
        // The property table and the row and model sections are sorted on
        // their keys with no key twice (FORMAT.md §3, §3.4, §3.5): rows
        // refer to properties by table index, the store builder finds a
        // pair's documents by position, and a combination is one result
        // and one block.
        let good = snapshot_output(&mined_output());
        assert!(good.properties.len() >= 2 && good.models.len() >= 2);
        // Kitten's two rows: one entity, so a swap decodes and is the
        // walk's to refuse (across entities the gap does not decode).
        assert_eq!(good.rows[0].entity, good.rows[1].entity);
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
            corrupt(&|bad| bad.rows.swap(0, 1)),
            SnapshotError::Corrupt("rows not in ascending order")
        );
        assert_eq!(
            corrupt(&|bad| bad.rows[1] = bad.rows[0].clone()),
            SnapshotError::Corrupt("rows not in ascending order")
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

    /// CRC-32/ISO-HDLC one bit at a time, to frame a section by hand.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn stale_fingerprints_are_rejected_by_every_loader() {
        // The retired `GRPF` section is skipped unparsed, so the digests
        // in it are never compared with the evidence: a frame of stale
        // ones loads as if it were absent. What every loader still
        // rejects is a frame whose checksum is stale for its payload —
        // the retired tag passes the CRC check like any other section.
        let output = mined_output();
        let state = IncrementalState {
            rho: 30,
            ..Default::default()
        };
        let bytes = save_snapshot_with_state(&output, &state);
        // One group, (type 0, property 0), of one entity and 7 statements,
        // with a digest of no rows the file holds.
        let mut payload = vec![1];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&[1, 7]);
        payload.extend_from_slice(&0x5eed_u64.to_le_bytes());
        let framed = |payload: &[u8], crc: u32| {
            let mut old = bytes.clone();
            old.extend_from_slice(b"GRPF");
            old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            old.extend_from_slice(&crc.to_le_bytes());
            old.extend_from_slice(payload);
            let count = u32::from_le_bytes(old[12..16].try_into().unwrap());
            old[12..16].copy_from_slice(&(count + 1).to_le_bytes());
            old
        };

        let stale = framed(&payload, crc32_bitwise(&payload));
        let (loaded, loaded_state) = load_snapshot_with_state(&stale).unwrap();
        assert_eq!(loaded_state, Some(state.clone()));
        assert_eq!(save_snapshot_with_state(&loaded, &state), bytes);
        assert_eq!(load_snapshot(&stale).unwrap().triples(), output.triples());
        assert_eq!(
            load_store(&stale).unwrap().to_json(),
            load_store(&bytes).unwrap().to_json()
        );

        // The digest changed after its checksum was taken.
        let checksum = crc32_bitwise(&payload);
        let last = payload.len() - 1;
        payload[last] ^= 1;
        let damaged = framed(&payload, checksum);
        let rejected = load_snapshot(&damaged).err();
        assert!(
            matches!(
                rejected,
                Some(SnapshotError::Wire(WireError::CrcMismatch { stored, .. })) if stored == checksum
            ),
            "{rejected:?}"
        );
        assert_eq!(load_snapshot_with_state(&damaged).err(), rejected);
        assert_eq!(load_store(&damaged).err(), rejected);
    }

    #[test]
    fn what_a_save_would_write_back_changed_is_corrupt() {
        // The knowledge base lowercases a type's vocabulary and a
        // property's words and keeps attributes in a map by key, and a
        // save writes only the properties something refers to: a file
        // that breaks one of these would load and re-save as another
        // file, so every loader refuses it (FORMAT.md §4).
        let good = snapshot_output(&mined_output());
        let corrupt = |edit: &dyn Fn(&mut Snapshot)| {
            let mut bad = good.clone();
            edit(&mut bad);
            rejection(&bad)
        };
        let vocabulary = SnapshotError::Corrupt("type vocabulary not lowercase");
        assert_eq!(
            corrupt(&|bad| bad.types[0].name = "Animal".into()),
            vocabulary
        );
        assert_eq!(
            corrupt(&|bad| bad.types[0].head_nouns[1] = "Creature".into()),
            vocabulary
        );
        assert_eq!(
            corrupt(&|bad| bad.types[0].context_cues[0] = "ZOO".into()),
            vocabulary
        );
        let words = SnapshotError::Corrupt("property words not lowercase");
        assert_eq!(
            corrupt(&|bad| bad.properties[0].adjective = "Cute".into()),
            words
        );
        assert_eq!(
            corrupt(&|bad| bad.properties[1].adverbs[0] = "VERY".into()),
            words
        );
        let attributes = SnapshotError::Corrupt("attribute keys not ascending");
        for keys in [["legs", "legs"], ["tail", "legs"]] {
            assert_eq!(
                corrupt(&|bad| {
                    bad.entities[2].attributes = keys.map(|key| (key.into(), 1.0)).into();
                }),
                attributes
            );
        }
        assert_eq!(
            corrupt(&|bad| {
                let mut unused = bad.properties[1].clone();
                unused.adjective = "zany".into();
                bad.properties.push(unused);
            }),
            SnapshotError::Corrupt("property referenced by no row")
        );
        // Their valid neighbours load: lowercase non-ASCII words, keys in
        // order, a property only a model refers to.
        let mut fine = good.clone();
        fine.types[0].head_nouns[1] = "ぴかぴか straße".into();
        fine.entities[2].attributes = vec![("legs".into(), 4.0), ("tail".into(), 1.0)];
        fine.rows.retain(|row| row.property != 1);
        assert!(fine.models.iter().any(|model| model.property == 1));
        let bytes = surveyor_wire::encode(&fine);
        assert_eq!(save_snapshot(&load_snapshot(&bytes).unwrap()), bytes);
    }

    #[test]
    fn samples_an_update_would_corrupt_are_refused() {
        // `ProvenanceTable::merge` inserts a delta's documents by binary
        // search and truncates to the sample size: on a sample longer than
        // that, or with an id twice, an update would not equal a mine.
        let good = snapshot_output(&mined_output());
        assert_eq!(good.sample_size, 3);
        let corrupt = |edit: &dyn Fn(&mut Snapshot)| {
            let mut bad = good.clone();
            edit(&mut bad);
            rejection(&bad)
        };
        assert_eq!(
            corrupt(&|bad| bad.rows[0].documents = vec![1, 2, 3, 4]),
            SnapshotError::Corrupt("document sample larger than the sample size")
        );
        assert_eq!(
            corrupt(&|bad| bad.sample_size = 2),
            SnapshotError::Corrupt("document sample larger than the sample size")
        );
        // A zero gap within one shard, and across one.
        for twice in [vec![4, 4], vec![1, 7 << 32 | 2, 7 << 32 | 2]] {
            assert_eq!(
                corrupt(&|bad| bad.rows[0].documents = twice.clone()),
                SnapshotError::Corrupt("document ids not strictly ascending")
            );
        }
        // At the bound, and ids at the ends of their shards, load.
        let mut edge = good.clone();
        edge.rows[0].documents = vec![u64::from(u32::MAX), 1 << 32, u64::MAX];
        let bytes = surveyor_wire::encode(&edge);
        let loaded = load_snapshot(&bytes).unwrap();
        assert_eq!(save_snapshot(&loaded), bytes);
        assert_eq!(snapshot_output(&output_from_snapshot(&edge).unwrap()), edge);
    }

    #[test]
    fn a_sample_without_evidence_is_not_written() {
        // Every row is an evidence pair with its sample joined on: a
        // sample for a pair nothing was counted for — which no mine
        // makes — has no row to go in, so it is dropped, and so is a
        // property only it refers to.
        let output = mined_output();
        let mut stray = output.clone();
        let rock = stray.kb().entity_by_name("Rock").unwrap();
        let stray_property = PropertyId::intern(&Property::adjective("heavy"));
        stray.provenance.insert(rock, stray_property, vec![5]);
        assert_eq!(save_snapshot(&stray), save_snapshot(&output));
        let snapshot = snapshot_output(&stray);
        assert_eq!(snapshot, snapshot_output(&output));
        assert!(!(snapshot.properties.iter()).any(|p| p.adjective == "heavy"));
        let loaded = load_snapshot(&save_snapshot(&stray)).unwrap();
        assert!((loaded.provenance.documents_id(rock, stray_property)).is_empty());
        assert_eq!(
            loaded.provenance.pair_count(),
            output.provenance.pair_count()
        );
        // The store built from the output drops it the same way.
        assert_eq!(
            SubjectiveKb::from_output(&stray, stray.kb()).to_json(),
            load_store(&save_snapshot(&stray)).unwrap().to_json()
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
