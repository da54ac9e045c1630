//! The subjective knowledge base: Surveyor's downstream deliverable.
//!
//! "The purpose is to build a knowledge base of subjective properties and
//! entities … Upon receipt of a subjective query, the search engine can
//! exploit high-confidence entity-property associations" (paper §1–§2).
//! This module materializes pipeline output into a queryable, persistable
//! store answering exactly those queries: *safe cities*, *cute animals*.
//!
//! # Layout
//!
//! A [`SubjectiveKb`] is a handful of flat columns, however many opinions
//! it holds — what it costs to keep is [`SubjectiveKb::resident_bytes`],
//! about 26 bytes per opinion on the long-tail world:
//!
//! ```text
//!   heads         one per (type, property) block: type, property, the key
//!                 of its documents, the three fitted parameters
//!   block_starts  u32 × (blocks + 1): block b is rows[starts[b]..starts[b + 1]]
//!   rows          8 bytes per opinion, blocks back to back, each in rank
//!                 order: entity, pair slot
//!   pairs         32 bytes per distinct (c+, c−) pair of each block:
//!                 verdict, probability, the two counts
//!   names         the name arena — one name per entity, not per opinion
//!   documents     the supporting-document ids in `PROV` order, behind a
//!                 per-entity run index keyed by property
//!   by_combination, entities   the two derived indexes (block by key,
//!                 rows by entity name — `entity_index.rs`)
//! ```
//!
//! One builder fills the columns, `StoreSink`, fed either by the
//! snapshot walk ([`crate::load_store`]: bytes, without the pipeline
//! output in between) or by [`SubjectiveKb::from_output`] (a mine). The
//! group of a row is its `EntityId`. Lookups hand out [`BlockRef`] /
//! [`OpinionRef`] views assembled from the columns on the spot;
//! [`CombinationBlock`] / [`StoredOpinion`] are the owned *export* shape —
//! what [`SubjectiveKb::blocks`] and the JSON form are made of.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::mem::size_of;
use std::sync::Arc;
use surveyor_extract::evidence::Group;
use surveyor_extract::EvidenceCounts;
use surveyor_kb::{EntityId, KnowledgeBase, Property, PropertyId, TypeId};
use surveyor_model::{CountTable, Decision, ModelDecision};

use crate::entity_index::{EntityIndex, Names};
use crate::pipeline::{count_table, SurveyorOutput};
use crate::snapshot::{Declared, ModelledGroup, PropertyRef, Sink};

/// One stored association, owned — the export shape of an [`OpinionRef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredOpinion {
    /// The entity.
    pub entity: EntityId,
    /// Canonical entity name (denormalized for display).
    pub entity_name: String,
    /// `true` = the dominant opinion applies the property.
    pub positive: bool,
    /// Posterior probability that the property applies.
    pub probability: f64,
    /// Evidence counts behind the decision.
    pub positive_statements: u64,
    /// Negative statement count.
    pub negative_statements: u64,
    /// Sample of supporting document ids — the "links to supporting
    /// content on the Web" the paper's search scenario offers (§2).
    pub supporting_documents: Vec<u64>,
}

/// Per-combination block of the store, owned — the export shape of a
/// [`BlockRef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationBlock {
    /// The entity type.
    pub type_id: TypeId,
    /// Type name.
    pub type_name: String,
    /// The subjective property.
    pub property: Property,
    /// Fitted model parameters (pA, np+S, np-S).
    pub p_agree: f64,
    /// Fitted positive statement rate.
    pub rate_pos: f64,
    /// Fitted negative statement rate.
    pub rate_neg: f64,
    /// All decided entities, positives first, by descending probability.
    pub opinions: Vec<StoredOpinion>,
}

/// What a block is apart from its opinions.
#[derive(Debug, Clone)]
struct BlockHead {
    type_id: TypeId,
    type_name: String,
    property: Property,
    /// What [`Documents`] files this block's property under.
    documents_key: u32,
    p_agree: f64,
    rate_pos: f64,
    rate_neg: f64,
}

/// What every opinion of one distinct `(c+, c−)` pair of a block shares.
#[derive(Debug, Clone, Copy)]
struct Pair {
    positive: bool,
    probability: f64,
    positive_statements: u64,
    negative_statements: u64,
}

/// One opinion: its group — its `EntityId`, whose name and documents
/// are its own — and the slot of its pair in `pairs`.
#[derive(Debug, Clone, Copy)]
struct Row {
    group: u32,
    pair: u32,
}

// The bytes-per-opinion budget (`resident_bytes`) is built on these.
const _: () = assert!(size_of::<Row>() == 8 && size_of::<Pair>() == 32);

/// A stored block, borrowed from the store's columns: the block's own
/// values by copy, its strings by reference, its opinions on request.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    /// The entity type.
    pub type_id: TypeId,
    /// Type name.
    pub type_name: &'a str,
    /// The subjective property.
    pub property: &'a Property,
    /// Fitted model parameters (pA, np+S, np-S).
    pub p_agree: f64,
    /// Fitted positive statement rate.
    pub rate_pos: f64,
    /// Fitted negative statement rate.
    pub rate_neg: f64,
    store: &'a SubjectiveKb,
    index: u32,
}

impl<'a> BlockRef<'a> {
    /// Number of decided entities.
    pub fn len(&self) -> usize {
        self.store.rows_of(self.index).len()
    }

    /// Whether the block decided no entity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All decided entities, positives first, by descending probability.
    pub fn opinions(&self) -> impl DoubleEndedIterator<Item = OpinionRef<'a>> + ExactSizeIterator {
        let (store, block) = (self.store, self.index);
        store
            .rows_of(block)
            .map(move |row| store.opinion_at((block, row)))
    }

    /// The owned copy of the block.
    pub fn export(&self) -> CombinationBlock {
        CombinationBlock {
            type_id: self.type_id,
            type_name: self.type_name.to_owned(),
            property: self.property.clone(),
            p_agree: self.p_agree,
            rate_pos: self.rate_pos,
            rate_neg: self.rate_neg,
            opinions: self.opinions().map(|o| o.export()).collect(),
        }
    }
}

/// A stored association, borrowed from the store's columns.
#[derive(Debug, Clone, Copy)]
pub struct OpinionRef<'a> {
    /// The entity.
    pub entity: EntityId,
    /// Canonical entity name.
    pub entity_name: &'a str,
    /// `true` = the dominant opinion applies the property.
    pub positive: bool,
    /// Posterior probability that the property applies.
    pub probability: f64,
    /// Evidence counts behind the decision.
    pub positive_statements: u64,
    /// Negative statement count.
    pub negative_statements: u64,
    /// Sample of supporting document ids — the "links to supporting
    /// content on the Web" the paper's search scenario offers (§2).
    pub supporting_documents: &'a [u64],
}

impl OpinionRef<'_> {
    /// The owned copy of the opinion.
    pub fn export(&self) -> StoredOpinion {
        StoredOpinion {
            entity: self.entity,
            entity_name: self.entity_name.to_owned(),
            positive: self.positive,
            probability: self.probability,
            positive_statements: self.positive_statements,
            negative_statements: self.negative_statements,
            supporting_documents: self.supporting_documents.to_vec(),
        }
    }
}

/// A queryable, serializable knowledge base of subjective properties.
///
/// ```
/// # use std::sync::Arc;
/// # use surveyor::prelude::*;
/// # use surveyor::{CorpusSource, SubjectiveKb};
/// # let mut b = KnowledgeBaseBuilder::new();
/// # let animal = b.add_type("animal", &["animal"], &[]);
/// # b.add_entity("Kitten", animal).finish();
/// # b.add_entity("Tiger", animal).finish();
/// # let kb = Arc::new(b.build());
/// # let world = WorldBuilder::new(kb.clone(), 42)
/// #     .domain("animal", Property::adjective("cute"), DomainParams::default())
/// #     .build();
/// # let generator = CorpusGenerator::new(world, CorpusConfig::default());
/// # let surveyor = Surveyor::new(kb.clone(), SurveyorConfig { rho: 5, ..Default::default() });
/// # let output = surveyor.run(&CorpusSource::new(&generator));
/// let store = SubjectiveKb::from_output(&output, &kb);
/// // The search-engine use case: answer the subjective query "cute animals".
/// for hit in store.query("animal", &Property::adjective("cute")) {
///     println!("{} ({:.2})", hit.entity_name, hit.probability);
/// }
/// ```
///
/// The blocks are the data — what [`to_json`](Self::to_json) persists and
/// what equality compares; the two indexes over them (combination →
/// block, entity name → opinions) are derived whenever a store is built.
#[derive(Debug, Clone)]
pub struct SubjectiveKb {
    data: Columns,
    /// Block numbers sorted by (type name, property), and by block number
    /// among equals: a combination is found by binary search.
    by_combination: Vec<u32>,
    entities: EntityIndex,
}

impl PartialEq for SubjectiveKb {
    fn eq(&self, other: &Self) -> bool {
        (self.combinations().map(|b| b.export())).eq(other.combinations().map(|b| b.export()))
    }
}

/// The data columns of a store, filled block by block in final order.
/// [`Columns::finish`] is the one way to a [`SubjectiveKb`]: both indexes
/// are derived there, so no store exists without them.
#[derive(Debug, Clone, Default)]
struct Columns {
    heads: Vec<BlockHead>,
    /// Block `b` is `rows[block_starts[b]..block_starts[b + 1]]`: blocks
    /// lie back to back. One entry per block while the columns fill;
    /// `finish` adds the end of the last.
    block_starts: Vec<u32>,
    rows: Vec<Row>,
    /// Every block's distinct pairs, blocks back to back.
    pairs: Vec<Pair>,
    /// Entity `e`'s name is group `e`'s.
    names: Names,
    documents: Documents,
}

impl Columns {
    /// Opens the next block; its rows follow.
    fn begin_block(
        &mut self,
        type_id: TypeId,
        type_name: &str,
        property: Property,
        documents_key: u32,
        params: [f64; 3],
    ) {
        self.block_starts.push(self.rows.len() as u32);
        self.heads.push(BlockHead {
            type_id,
            type_name: type_name.to_owned(),
            property,
            documents_key,
            p_agree: params[0],
            rate_pos: params[1],
            rate_neg: params[2],
        });
    }

    /// Appends the block of one modeled combination: one pair entry per
    /// distinct pair of its count table — verdict, probability, counts —
    /// then one row per entity whose pair the model solves, in
    /// [`PairRanking`]'s order, naming the entity and its pair's slot.
    fn push_group(
        &mut self,
        type_name: &str,
        documents_key: u32,
        group: &ModelledGroup<'_>,
        ranking: &mut PairRanking,
    ) {
        let (params, table) = (&group.fit.params, group.table);
        self.begin_block(
            group.key.type_id,
            type_name,
            group.key.property.resolve(),
            documents_key,
            [params.p_agree, params.rate_pos, params.rate_neg],
        );
        let decisions = table.pair_decisions(params);
        let first = self.pairs.len();
        self.pairs.extend(
            (table.pairs().iter().zip(&decisions)).map(|(counts, decision)| Pair {
                positive: decision.decision == Decision::Positive,
                probability: decision.probability.unwrap_or(0.5),
                positive_statements: counts.positive,
                negative_statements: counts.negative,
            }),
        );
        let order = ranking.rank(table, &decisions);
        // Positions are u32, here as in the entity index.
        assert!(
            self.rows.len() + order.len() < u32::MAX as usize
                && self.pairs.len() < u32::MAX as usize,
            "store exceeds its u32 positions"
        );
        let slots = table.slots();
        self.rows.extend(order.iter().map(|&position| Row {
            group: group.entities[position as usize].0,
            pair: first as u32 + slots[position as usize],
        }));
    }

    fn finish(mut self) -> SubjectiveKb {
        self.block_starts.push(self.rows.len() as u32);
        // What was reserved by doubling goes back: `resident_bytes` is a
        // sum of capacities, and a served generation lives for hours.
        self.heads.shrink_to_fit();
        self.block_starts.shrink_to_fit();
        self.rows.shrink_to_fit();
        self.pairs.shrink_to_fit();
        self.names.shrink_to_fit();
        self.documents.shrink_to_fit();
        let mut by_combination: Vec<u32> = (0..self.heads.len() as u32).collect();
        by_combination.sort_by(|&a, &b| {
            let (a, b) = (&self.heads[a as usize], &self.heads[b as usize]);
            (a.type_name.as_str(), &a.property).cmp(&(b.type_name.as_str(), &b.property))
        });
        let entities = EntityIndex::build(&self.names, self.rows.iter().map(|row| row.group));
        SubjectiveKb {
            data: self,
            by_combination,
            entities,
        }
    }
}

/// The supporting documents of every (entity, property) pair that has
/// any, as `PROV` lists them: ascending by entity, then by property key
/// — the snapshot walk rejects any other order — so an entity's pairs
/// are one run, `starts` finds it and a binary search on the key
/// finishes a lookup. An opinion's documents are found, not copied.
#[derive(Debug, Clone, Default)]
struct Documents {
    /// Entity `e` owns `runs[starts[e]..starts[e + 1]]`; entities past
    /// the last one with documents have no entry and own nothing.
    starts: Vec<u32>,
    /// Per pair, its property key and the start of its ids in `ids`;
    /// they end where the next pair's start.
    runs: Vec<(u32, u32)>,
    ids: Vec<u64>,
}

impl Documents {
    fn push(&mut self, entity: EntityId, key: u32, documents: impl Iterator<Item = u64>) {
        // Every entity up to this one starts at or before this pair.
        let (at, through) = (self.runs.len() as u32, entity.index() + 1);
        self.starts.resize(self.starts.len().max(through), at);
        self.runs.push((key, self.ids.len() as u32));
        self.ids.extend(documents);
        assert!(
            self.ids.len() < u32::MAX as usize && self.runs.len() < u32::MAX as usize,
            "store exceeds its u32 positions"
        );
    }

    fn get(&self, entity: u32, key: u32) -> &[u64] {
        let start_of = |e: usize| self.starts.get(e).map_or(self.runs.len(), |&s| s as usize);
        let first = start_of(entity as usize);
        let run = &self.runs[first..start_of(entity as usize + 1)];
        match run.binary_search_by_key(&key, |&(key, _)| key) {
            Ok(at) => {
                let at = first + at;
                let end = (self.runs.get(at + 1)).map_or(self.ids.len(), |&(_, end)| end as usize);
                &self.ids[self.runs[at].1 as usize..end]
            }
            Err(_) => &[],
        }
    }

    fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.runs.shrink_to_fit();
        self.ids.shrink_to_fit();
    }

    fn resident_bytes(&self) -> usize {
        self.starts.capacity() * size_of::<u32>()
            + self.runs.capacity() * size_of::<(u32, u32)>()
            + self.ids.capacity() * size_of::<u64>()
    }
}

/// A block's rank order, settled on its distinct pairs instead of its
/// entities: positives first by descending probability, then by
/// descending positive count, then by entity. Every entity of a pair
/// shares the pair's two keys, so the solved pairs are sorted on them,
/// pairs equal on both — distinct `c−`, a probability saturated at 0 or
/// 1 — merged into one class, and the entities placed with one counting
/// pass over the slots, which keeps entity order within a class. The
/// buffers are reused block to block.
#[derive(Debug, Default)]
struct PairRanking {
    /// The solved pairs, best first.
    solved: Vec<u32>,
    /// Per pair, its rank class, or `UNRANKED`.
    class_of: Vec<u32>,
    /// Per class, its size, then the next free place in `order`.
    places: Vec<u32>,
    /// Entity positions in rank order.
    order: Vec<u32>,
}

impl PairRanking {
    const UNRANKED: u32 = u32::MAX;

    /// The positions (into the type's entities) of the solved entities,
    /// in rank order; `decisions` holds one per pair of `table`.
    fn rank(&mut self, table: &CountTable, decisions: &[ModelDecision]) -> &[u32] {
        let pairs = table.pairs();
        let key = |pair: u32| {
            let probability = decisions[pair as usize].probability.unwrap_or(0.5);
            (probability, pairs[pair as usize].positive)
        };
        self.solved.clear();
        self.solved.extend(
            (0..pairs.len() as u32).filter(|&pair| decisions[pair as usize].decision.is_solved()),
        );
        self.solved.sort_unstable_by(|&a, &b| {
            let ((pa, ca), (pb, cb)) = (key(a), key(b));
            pb.total_cmp(&pa).then_with(|| cb.cmp(&ca))
        });
        self.class_of.clear();
        self.class_of.resize(pairs.len(), Self::UNRANKED);
        self.places.clear();
        let mut last = None;
        for &pair in &self.solved {
            let (probability, positive) = key(pair);
            let class = (probability.to_bits(), positive);
            if last != Some(class) {
                last = Some(class);
                self.places.push(0);
            }
            self.class_of[pair as usize] = self.places.len() as u32 - 1;
        }
        let classes =
            |slot: &u32| Some(self.class_of[*slot as usize]).filter(|&c| c != Self::UNRANKED);
        for class in table.slots().iter().filter_map(classes) {
            self.places[class as usize] += 1;
        }
        let mut start = 0;
        for place in &mut self.places {
            (*place, start) = (start, start + *place);
        }
        self.order.clear();
        self.order.resize(start as usize, 0);
        for (position, slot) in table.slots().iter().enumerate() {
            if let Some(class) = classes(slot) {
                let place = &mut self.places[class as usize];
                self.order[*place as usize] = position as u32;
                *place += 1;
            }
        }
        &self.order
    }
}

/// Where one stored opinion lives: `(block, row)`.
type Position = (u32, u32);

impl SubjectiveKb {
    /// Materializes pipeline output into a store: the output fed to the
    /// builder a snapshot load feeds, in the order the walk would — the
    /// provenance sorted by (entity, property), the groups as they are.
    /// Properties are keyed by their interned id here, where a load keys
    /// them by their rank in the snapshot's property table.
    pub fn from_output(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>) -> Self {
        let mut sink = StoreSink::default();
        for entity_type in kb.types() {
            sink.entity_type(entity_type.name(), &[], &[]);
        }
        for entity in kb.entities() {
            sink.entity(entity.name(), entity.notable_type().0, &[], &[]);
        }
        sink.begin_rows(Declared {
            evidence: output.evidence.pair_count(),
            provenance: output.provenance.pair_count(),
            provenance_sample_size: output.provenance.sample_size(),
            results: output.results.len(),
        });
        let by_id = |id: PropertyId| PropertyRef { rank: id.0, id };
        let mut provenance: Vec<_> = output.provenance.iter().collect();
        provenance.sort_unstable_by_key(|&(&(entity, property), _)| (entity, property.0));
        for (&(entity, property), documents) in provenance {
            sink.provenance(entity, by_id(property), documents.iter().copied());
        }
        let (mut mentioned, silent) = (Vec::new(), Group::default());
        for result in &output.results {
            let key = result.key;
            let entities = kb.entities_of_type(key.type_id);
            let evidence = output.grouped.group(&key).unwrap_or(&silent);
            let group = ModelledGroup {
                key,
                fit: &result.fit,
                entities,
                table: &count_table(entities, evidence, &mut mentioned),
            };
            sink.group(by_id(key.property), &group);
        }
        sink.finish()
    }

    /// All stored combinations, as owned copies — the export; use
    /// [`combinations`](Self::combinations) to read them in place.
    pub fn blocks(&self) -> Vec<CombinationBlock> {
        self.combinations().map(|block| block.export()).collect()
    }

    /// All stored combinations, in block order.
    pub fn combinations(&self) -> impl ExactSizeIterator<Item = BlockRef<'_>> {
        (0..self.data.heads.len() as u32).map(move |index| self.block_at(index))
    }

    /// Number of stored entity-property associations.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the store keeps on the heap: the sum of its columns'
    /// capacities (block heads with their strings included), counted from
    /// the columns themselves — no allocator is asked. This is what one
    /// served generation costs; `tests::bytes_per_opinion_budget` holds it
    /// to 32 bytes per opinion.
    pub fn resident_bytes(&self) -> usize {
        let heads: usize = (self.data.heads.iter())
            .map(|head| {
                head.type_name.capacity()
                    + head.property.head().len()
                    + (head.property.adverbs().iter())
                        .map(|adverb| size_of::<String>() + adverb.len())
                        .sum::<usize>()
            })
            .sum();
        heads
            + self.data.heads.capacity() * size_of::<BlockHead>()
            + self.data.block_starts.capacity() * size_of::<u32>()
            + self.data.rows.capacity() * size_of::<Row>()
            + self.data.pairs.capacity() * size_of::<Pair>()
            + self.data.names.resident_bytes()
            + self.data.documents.resident_bytes()
            + self.by_combination.capacity() * size_of::<u32>()
            + self.entities.resident_bytes()
    }

    fn block_at(&self, index: u32) -> BlockRef<'_> {
        let head = &self.data.heads[index as usize];
        BlockRef {
            type_id: head.type_id,
            type_name: &head.type_name,
            property: &head.property,
            p_agree: head.p_agree,
            rate_pos: head.rate_pos,
            rate_neg: head.rate_neg,
            store: self,
            index,
        }
    }

    fn opinion_at(&self, (block, row): Position) -> OpinionRef<'_> {
        let data = &self.data;
        let Row { group, pair } = data.rows[row as usize];
        let Pair {
            positive,
            probability,
            positive_statements,
            negative_statements,
        } = data.pairs[pair as usize];
        OpinionRef {
            entity: EntityId(group),
            entity_name: data.names.get(group),
            positive,
            probability,
            positive_statements,
            negative_statements,
            supporting_documents: (data.documents)
                .get(group, data.heads[block as usize].documents_key),
        }
    }

    /// The probability of a row's pair.
    fn probability(&self, row: u32) -> f64 {
        self.data.pairs[self.data.rows[row as usize].pair as usize].probability
    }

    /// The rows of a block.
    fn rows_of(&self, block: u32) -> std::ops::Range<u32> {
        let b = block as usize;
        self.data.block_starts[b]..self.data.block_starts[b + 1]
    }

    /// The block a row belongs to — the last one that starts at or before
    /// the row (blocks without rows share their start with the next) —
    /// searched for from `from`, a block at or before it. An entity's rows
    /// are visited in ascending order and a type's blocks lie together, so
    /// the block is mostly `from` or a neighbour: those are tried first,
    /// the rest is a binary search.
    fn block_of(&self, from: u32, row: u32) -> u32 {
        const NEAR: usize = 4;
        // The starts of the blocks after `from`, then the end of the rows:
        // the row's block is as far from `from` as starts here are ≤ row.
        let later = &self.data.block_starts[from as usize + 1..];
        let skip = match later.iter().take(NEAR).position(|&start| start > row) {
            Some(skip) => skip,
            None => NEAR + later[NEAR..].partition_point(|&start| start <= row),
        };
        from + skip as u32
    }

    /// Answers a subjective query: entities of `type_name` for which the
    /// dominant opinion applies `property`, ranked by probability.
    ///
    /// This is the paper's motivating search-engine scenario ("queries
    /// such as `safe cities` would not trigger search results from
    /// structured data" — now they can).
    pub fn query(&self, type_name: &str, property: &Property) -> Vec<OpinionRef<'_>> {
        self.combination(type_name, property)
            .map(|b| b.opinions().filter(|o| o.positive).collect())
            .unwrap_or_default()
    }

    /// The negated query: entities the dominant opinion says are *not*
    /// `property`, most confident first.
    pub fn query_negative(&self, type_name: &str, property: &Property) -> Vec<OpinionRef<'_>> {
        // Ascending probability = descending confidence in ¬P.
        self.combination(type_name, property)
            .map(|b| b.opinions().rev().filter(|o| !o.positive).collect())
            .unwrap_or_default()
    }

    /// The block for one combination, if modeled. Of several blocks with
    /// one key (an export edited by hand), the last.
    pub fn combination(&self, type_name: &str, property: &Property) -> Option<BlockRef<'_>> {
        let wanted = (type_name.to_lowercase(), property);
        let key = |&block: &u32| {
            let head = &self.data.heads[block as usize];
            (head.type_name.as_str(), &head.property)
        };
        let past = self
            .by_combination
            .partition_point(|block| key(block) <= (wanted.0.as_str(), wanted.1));
        let &block = self.by_combination[..past].last()?;
        (key(&block) == (wanted.0.as_str(), wanted.1)).then(|| self.block_at(block))
    }

    /// All properties stored for a type.
    pub fn properties_of(&self, type_name: &str) -> Vec<&Property> {
        let lower = type_name.to_lowercase();
        self.data
            .heads
            .iter()
            .filter(|head| head.type_name == lower)
            .map(|head| &head.property)
            .collect()
    }

    /// Most confident first (largest `|p − 0.5|`), then by type name; hits
    /// that tie on both keep the order they arrive in.
    fn by_confidence(&self, a: &Position, b: &Position) -> Ordering {
        let confidence = |&(_, row): &Position| (self.probability(row) - 0.5).abs();
        let type_name = |&(block, _): &Position| self.data.heads[block as usize].type_name.as_str();
        confidence(b)
            .total_cmp(&confidence(a))
            .then_with(|| type_name(a).cmp(type_name(b)))
    }

    /// Every stored opinion about `entity_name` (matched ignoring ASCII
    /// case), in block order — what a scan over the blocks would find,
    /// read off the entity index in time proportional to the answer.
    fn hits<'a>(&'a self, entity_name: &str) -> impl Iterator<Item = Position> + 'a {
        let postings = self.entities.postings_of(&self.data.names, entity_name);
        let mut block = 0;
        (0..postings.len()).map(move |i| {
            block = self.block_of(block, postings[i]);
            (block, postings[i])
        })
    }

    fn ranked_hits(&self, entity_name: &str) -> Vec<Position> {
        let property =
            |&(block, _): &Position| self.data.heads[block as usize].property.to_string();
        let mut hits: Vec<Position> = self.hits(entity_name).collect();
        hits.sort_by(|a, b| {
            self.by_confidence(a, b)
                .then_with(|| property(a).cmp(&property(b)))
        });
        hits
    }

    fn find_hit(&self, entity_name: &str, property: &Property) -> Option<Position> {
        self.hits(entity_name)
            .filter(|&(block, _)| &self.data.heads[block as usize].property == property)
            .min_by(|a, b| self.by_confidence(a, b)) // of equals, the first
    }

    fn hit_in(&self, block: u32, entity_name: &str) -> Option<Position> {
        self.hits(entity_name).find(|&(b, _)| b == block)
    }

    fn views(&self, at: Position) -> (BlockRef<'_>, OpinionRef<'_>) {
        (self.block_at(at.0), self.opinion_at(at))
    }

    /// Every stored opinion about `entity_name` across all combinations,
    /// most confident first (largest `|p − 0.5|`), then by type name and
    /// property. This is the query server's top-k-properties-per-entity
    /// lookup; it costs what the entity's own opinions cost, not the
    /// store's.
    pub fn opinions_of_entity(&self, entity_name: &str) -> Vec<(BlockRef<'_>, OpinionRef<'_>)> {
        (self.ranked_hits(entity_name).into_iter())
            .map(|at| self.views(at))
            .collect()
    }

    /// The stored opinion for one entity-property pair, searched across
    /// every type — the query server's `/decide/{entity}/{property}`
    /// lookup, where the URL carries no type name. When the entity is
    /// stored under several types (rare), the most confident block wins:
    /// the first of [`Self::opinions_of_entity`] with this property.
    pub fn find_opinion(
        &self,
        entity_name: &str,
        property: &Property,
    ) -> Option<(BlockRef<'_>, OpinionRef<'_>)> {
        self.find_hit(entity_name, property)
            .map(|at| self.views(at))
    }

    /// The opinion on one entity-property pair, if stored.
    pub fn opinion(
        &self,
        type_name: &str,
        property: &Property,
        entity_name: &str,
    ) -> Option<OpinionRef<'_>> {
        let wanted = self.combination(type_name, property)?;
        self.hit_in(wanted.index, entity_name)
            .map(|at| self.opinion_at(at))
    }

    /// Serializes the store to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.blocks()).expect("store serializes") // lint:allow(no-panic-in-lib): the store value tree holds only serializable primitives
    }
}

/// The builder behind every store: fills the columns from a snapshot's
/// sections as the walk checks them ([`crate::load_store`]), or from a
/// mine's output ([`SubjectiveKb::from_output`]). Provenance samples stay
/// where they arrive, in the store's document arena; the modelled groups
/// that refer to them follow, each with its count table. Nothing else of
/// the snapshot — the knowledge base's surface forms, attributes, the
/// tables — is built.
#[derive(Default)]
pub(crate) struct StoreSink {
    columns: Columns,
    type_names: Vec<String>,
    ranking: PairRanking,
}

impl Sink for StoreSink {
    type Output = SubjectiveKb;

    fn entity_type(&mut self, name: &str, _: &[&str], _: &[&str]) {
        self.type_names.push(name.to_lowercase());
    }

    fn entity(&mut self, name: &str, _: u32, _: &[&str], _: &[(&str, f64)]) {
        self.columns.names.push(name);
    }

    fn begin_rows(&mut self, declared: Declared) {
        let documents = &mut self.columns.documents;
        documents.starts.reserve_exact(self.columns.names.len() + 1);
        documents.runs.reserve_exact(declared.provenance);
        self.columns.heads.reserve_exact(declared.results);
    }

    fn evidence(&mut self, _: EntityId, _: PropertyRef, _: EvidenceCounts) {}

    fn provenance(
        &mut self,
        entity: EntityId,
        property: PropertyRef,
        documents: impl Iterator<Item = u64>,
    ) {
        (self.columns.documents).push(entity, property.rank, documents);
    }

    fn group(&mut self, property: PropertyRef, group: &ModelledGroup<'_>) {
        self.columns.push_group(
            &self.type_names[group.key.type_id.index()],
            property.rank,
            group,
            &mut self.ranking,
        );
    }

    fn finish(self) -> SubjectiveKb {
        self.columns.finish()
    }
}

/// The lookups as they were before either index: a scan over every
/// stored opinion, and over every block. Kept, for tests only, as the
/// oracle the indexed answers are compared against.
#[cfg(test)]
impl SubjectiveKb {
    fn scan_hits<'a>(&'a self, entity_name: &'a str) -> impl Iterator<Item = Position> + 'a {
        (0..self.data.heads.len() as u32).flat_map(move |block| {
            self.rows_of(block)
                .filter(move |&row| {
                    let name = self.data.names.get(self.data.rows[row as usize].group);
                    name.eq_ignore_ascii_case(entity_name)
                })
                .map(move |row| (block, row))
        })
    }

    fn scan_ranked_hits(&self, entity_name: &str) -> Vec<Position> {
        let mut hits: Vec<Position> = self.scan_hits(entity_name).collect();
        hits.sort_by(|&(block_a, a), &(block_b, b)| {
            let (block_a, block_b) = (
                &self.data.heads[block_a as usize],
                &self.data.heads[block_b as usize],
            );
            let conf_a = (self.probability(a) - 0.5).abs();
            let conf_b = (self.probability(b) - 0.5).abs();
            conf_b
                .total_cmp(&conf_a)
                .then_with(|| block_a.type_name.cmp(&block_b.type_name))
                .then_with(|| {
                    block_a
                        .property
                        .to_string()
                        .cmp(&block_b.property.to_string())
                })
        });
        hits
    }

    fn scan_find_hit(&self, entity_name: &str, property: &Property) -> Option<Position> {
        self.scan_ranked_hits(entity_name)
            .into_iter()
            .find(|&(block, _)| &self.data.heads[block as usize].property == property)
    }

    fn scan_combination(&self, type_name: &str, property: &Property) -> Option<u32> {
        let lower = type_name.to_lowercase();
        (self.data.heads.iter())
            .rposition(|head| head.type_name == lower && &head.property == property)
            .map(|block| block as u32)
    }

    fn scan_hit_in(&self, block: u32, entity_name: &str) -> Option<Position> {
        self.scan_hits(entity_name).find(|&(b, _)| b == block)
    }
}

/// The ranking as it was before pairs: every solved entity on its own,
/// sorted on 32-byte values. Kept, for tests only, as the oracle
/// [`PairRanking`] is compared against.
#[cfg(test)]
mod by_entity {
    use super::*;

    /// What ranked an opinion within its block.
    #[derive(Clone, Copy)]
    struct Ranked {
        position: u32,
        probability: f64,
        counts: surveyor_model::ObservedCounts,
    }

    /// The solved entities' positions in rank order: probability ↓,
    /// positive count ↓, entity ↑ — unique keys, so an unstable sort is
    /// deterministic.
    pub(super) fn rank(table: &CountTable, decisions: &[ModelDecision]) -> Vec<u32> {
        let mut ranked: Vec<Ranked> = (table.slots().iter().zip(0u32..))
            .filter(|&(&slot, _)| decisions[slot as usize].decision.is_solved())
            .map(|(&slot, position)| Ranked {
                position,
                probability: decisions[slot as usize].probability.unwrap_or(0.5),
                counts: table.pairs()[slot as usize],
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.probability
                .total_cmp(&a.probability)
                .then_with(|| b.counts.positive.cmp(&a.counts.positive))
                .then_with(|| a.position.cmp(&b.position))
        });
        ranked.iter().map(|r| r.position).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use proptest::prelude::*;
    use surveyor_extract::{EvidenceTable, Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;
    use surveyor_model::{ModelParams, ObservedCounts};

    /// Ranks a group of `counts` under `params` both ways.
    fn both_rankings(counts: &[(u64, u64)], params: &ModelParams) -> (Vec<u32>, Vec<u32>) {
        let counts: Vec<ObservedCounts> =
            counts.iter().copied().map(ObservedCounts::from).collect();
        let table = CountTable::new(&counts);
        let decisions = table.pair_decisions(params);
        let by_pair = PairRanking::default().rank(&table, &decisions).to_vec();
        (by_pair, by_entity::rank(&table, &decisions))
    }

    /// The naive pair ranking: each pair's entities as one run, pairs
    /// sorted on (probability ↓, positive count ↓) and then on the pair.
    fn naive_pair_rank(counts: &[(u64, u64)], params: &ModelParams) -> Vec<u32> {
        let counts: Vec<ObservedCounts> =
            counts.iter().copied().map(ObservedCounts::from).collect();
        let table = CountTable::new(&counts);
        let decisions = table.pair_decisions(params);
        let mut pairs: Vec<usize> = (0..table.distinct_pairs())
            .filter(|&p| decisions[p].decision.is_solved())
            .collect();
        let probability = |p: usize| decisions[p].probability.unwrap_or(0.5);
        pairs.sort_by(|&a, &b| {
            (probability(b).total_cmp(&probability(a)))
                .then_with(|| table.pairs()[b].positive.cmp(&table.pairs()[a].positive))
                .then_with(|| a.cmp(&b))
        });
        let slots = table.slots();
        (pairs.iter())
            .flat_map(|&p| {
                (0..slots.len() as u32).filter(move |&i| slots[i as usize] as usize == p)
            })
            .collect()
    }

    /// Rates large enough that the posteriors of most pairs saturate at
    /// exactly 0 or 1, as they do on the dense Web world.
    fn saturating() -> ModelParams {
        ModelParams::new(0.9, 1_000.0, 1.0)
    }

    #[test]
    fn tied_pairs_merge_their_entities_in_entity_order() {
        let params = saturating();
        // (5, 0) and (5, 1) both saturate at 0 and share c+ = 5: one
        // class, whose entities interleave across the two pairs.
        let counts = [(5, 1), (5, 0), (5, 1), (0, 0), (5, 0), (900, 0), (900, 3)];
        let probabilities: Vec<f64> = (counts.iter())
            .map(|&c| surveyor_model::posterior_positive(c.into(), &params))
            .collect();
        assert_eq!(probabilities[0].to_bits(), probabilities[1].to_bits());
        assert_eq!(probabilities[5].to_bits(), probabilities[6].to_bits());
        let (by_pair, by_entity) = both_rankings(&counts, &params);
        assert_eq!(by_pair, by_entity);
        assert_eq!(by_pair, [5, 6, 0, 1, 2, 4, 3]);
        // Ranking each pair's entities as one run gets this wrong.
        assert_ne!(naive_pair_rank(&counts, &params), by_entity);
    }

    #[test]
    fn unsolved_pairs_are_left_out_and_empty_groups_rank_nothing() {
        // pA = ½ makes every pair unsolved.
        let (by_pair, by_entity) =
            both_rankings(&[(3, 1), (0, 0)], &ModelParams::new(0.5, 2.0, 1.0));
        assert!(by_pair.is_empty() && by_entity.is_empty());
        let (by_pair, by_entity) = both_rankings(&[], &saturating());
        assert!(by_pair.is_empty() && by_entity.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drawn groups under parameters from saturating to balanced: the
        /// pair ranking is the per-entity ranking.
        #[test]
        fn pair_ranking_is_the_per_entity_ranking(
            counts in prop::collection::vec((0u64..6, 0u64..4), 0..40),
            p_agree in 0.5f64..1.0,
            rate_pos in prop_oneof![0.0f64..3.0, 100.0f64..5_000.0],
            rate_neg in prop_oneof![0.0f64..3.0, 100.0f64..5_000.0],
        ) {
            let params = ModelParams::new(p_agree, rate_pos, rate_neg);
            let (by_pair, by_entity) = both_rankings(&counts, &params);
            prop_assert_eq!(by_pair, by_entity);
        }
    }

    pub(super) fn output_fixture() -> (Arc<KnowledgeBase>, SurveyorOutput) {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Puppy", animal).finish();
        b.add_entity("Spider", animal).finish();
        b.add_entity("Rock", animal).finish();
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        let mut add = |name: &str, pos: u64, neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                table.add(&Statement::new(e, &cute, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &cute, Polarity::Negative));
            }
        };
        add("Kitten", 40, 1);
        add("Puppy", 25, 1);
        add("Spider", 1, 9);
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        (kb, output)
    }

    /// One name under two `EntityId`s and two types, with the same
    /// evidence and so the same confidence.
    pub(super) fn case_variant_fixture() -> (Arc<KnowledgeBase>, SurveyorOutput) {
        let mut b = KnowledgeBaseBuilder::new();
        let pet = b.add_type("pet", &["pet"], &[]);
        let animal = b.add_type("animal", &["animal"], &[]);
        let upper = b.add_entity("KITTEN", pet).finish();
        b.add_entity("Goldfish", pet).finish();
        let lower = b.add_entity("Kitten", animal).finish();
        b.add_entity("Spider", animal).finish();
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        for entity in [upper, lower] {
            for _ in 0..30 {
                table.add(&Statement::new(entity, &cute, Polarity::Positive));
            }
        }
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        (kb, output)
    }

    #[test]
    fn query_returns_ranked_positives() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let cute = Property::adjective("cute");
        let hits = store.query("animal", &cute);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].entity_name, "Kitten");
        assert_eq!(hits[1].entity_name, "Puppy");
        assert!(hits[0].probability >= hits[1].probability);
        // Negative query surfaces the confident non-cute entities.
        let negs = store.query_negative("animal", &cute);
        assert!(negs.iter().any(|o| o.entity_name == "Spider"));
        // The never-mentioned entity is decided too (negative here).
        assert!(negs.iter().any(|o| o.entity_name == "Rock"));
        // Most confident first: ascending probability.
        assert!(negs
            .windows(2)
            .all(|w| w[0].probability <= w[1].probability));
    }

    #[test]
    fn store_lookup_and_metadata() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let cute = Property::adjective("cute");
        let block = store.combination("animal", &cute).unwrap();
        assert!(block.p_agree >= 0.5);
        assert_eq!(block.len(), 4);
        assert_eq!(store.properties_of("animal"), vec![&cute]);
        let kitten = store.opinion("animal", &cute, "kitten").unwrap();
        assert!(kitten.positive);
        assert_eq!(kitten.positive_statements, 40);
        assert!(store.opinion("animal", &cute, "ghost").is_none());
        assert_eq!(store.len(), 4);
    }

    /// One name under two `EntityId`s and two types, with the same
    /// evidence and so the same confidence: both answer to either
    /// spelling, the type name breaks the tie, and the index agrees with
    /// the scan on a store built by `from_output`.
    #[test]
    fn case_variants_under_two_ids_both_answer() {
        let (kb, output) = case_variant_fixture();
        let upper = kb.entities()[0].id();
        let lower = kb.entities()[2].id();
        let cute = Property::adjective("cute");
        let store = SubjectiveKb::from_output(&output, &kb);

        for name in ["kitten", "KITTEN", "Kitten"] {
            let hits = store.opinions_of_entity(name);
            let found: Vec<(&str, &str)> = hits
                .iter()
                .map(|(b, o)| (b.type_name, o.entity_name))
                .collect();
            assert_eq!(found, [("animal", "Kitten"), ("pet", "KITTEN")]);
            assert_eq!(hits[0].1.probability, hits[1].1.probability);
            let (block, opinion) = store.find_opinion(name, &cute).unwrap();
            assert_eq!((block.type_name, opinion.entity), ("animal", lower));
            assert_eq!(store.opinion("pet", &cute, name).unwrap().entity, upper);

            assert_eq!(store.ranked_hits(name), store.scan_ranked_hits(name));
            assert_eq!(
                store.find_hit(name, &cute),
                store.scan_find_hit(name, &cute)
            );
            let pet = store.combination("pet", &cute).unwrap().index;
            assert_eq!(store.hit_in(pet, name), store.scan_hit_in(pet, name));
        }
    }

    #[test]
    fn unknown_combination_is_empty() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        assert!(store
            .query("animal", &Property::adjective("safe"))
            .is_empty());
        assert!(store.query("city", &Property::adjective("cute")).is_empty());
    }

    /// The committed budget: what a store keeps per opinion, counted from
    /// its own columns on the long-tail preset (many sparse combinations,
    /// most entities never written about — the shape with the most
    /// opinions per byte of snapshot). A `String` and a `Vec` per opinion,
    /// as the store once held, is 88 bytes before either allocation.
    #[test]
    fn bytes_per_opinion_budget() {
        use crate::source::CorpusSource;
        use surveyor_corpus::{presets, CorpusConfig, CorpusGenerator};

        let world = presets::long_tail_world(20, 150, 8, 2015);
        let kb = world.kb().clone();
        let generator = CorpusGenerator::new(world, CorpusConfig::default());
        let config = SurveyorConfig {
            rho: 25,
            threads: 2,
            ..SurveyorConfig::default()
        };
        let output = Surveyor::new(kb, config).run(&CorpusSource::new(&generator));
        let mined = SubjectiveKb::from_output(&output, output.kb());
        let served = crate::load_store(&crate::save_snapshot(&output)).unwrap();
        assert!(mined.len() > 10_000, "{} opinions", mined.len());
        for (label, store) in [("from_output", &mined), ("load_store", &served)] {
            let per_opinion = store.resident_bytes() as f64 / store.len() as f64;
            assert!(
                per_opinion <= 32.0,
                "{label}: {per_opinion:.1} bytes per opinion ({} bytes, {} opinions)",
                store.resident_bytes(),
                store.len(),
            );
        }
    }
}

/// Differential tests, in two layers.
///
/// *Index against scan:* every lookup answered from the two derived
/// indexes must return exactly what the linear scans they replaced return
/// — the same positions in the same order. Block sets are drawn from small
/// pools chosen to collide and pushed through the builder: case variants
/// of one name (ASCII ones match each other, non-ASCII ones must not), one
/// name under several `EntityId`s, an entity in several blocks and under
/// two types with equal confidence (saturated posteriors tie at 0 and 1),
/// blocks repeating a (type, property), empty blocks, the empty store.
///
/// *Bytes against output:* the store [`crate::load_store`] fills straight
/// from snapshot bytes must be the store [`SubjectiveKb::from_output`]
/// builds from [`crate::load_snapshot`] of the same bytes — the same
/// export, the same JSON, the same answer from every lookup, the documents
/// the provenance table holds — on every preset world, the fixtures of
/// this crate's tests, and drawn worlds.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use crate::source::CorpusSource;
    use proptest::prelude::*;
    use surveyor_corpus::{presets, CorpusConfig, CorpusGenerator, World};
    use surveyor_extract::GroupKey;
    use surveyor_extract::{EvidenceTable, ProvenanceTable};
    use surveyor_kb::KnowledgeBaseBuilder;
    use surveyor_model::{ConvergenceReason, EmFit, ModelParams, ObservedCounts};
    use surveyor_wire::IncrementalState;

    /// Every result's decisions as raw bits: what "bit for bit" compares.
    fn decision_bits(output: &SurveyorOutput) -> Vec<Vec<(EntityId, Decision, u64)>> {
        (output.results.iter())
            .map(|result| {
                (result.decisions.iter())
                    .map(|&(entity, d)| {
                        (
                            entity,
                            d.decision,
                            d.probability.map_or(u64::MAX, f64::to_bits),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    const NAMES: [&str; 10] = [
        "kitten",
        "KITTEN",
        "Kitten",
        "puppy",
        "Puppy",
        "São Paulo",
        "são paulo",
        "SÃO PAULO",
        "rock",
        "",
    ];
    const TYPES: [&str; 3] = ["animal", "pet", "city"];
    const PROPERTIES: [&str; 3] = ["cute", "big", "very big"];
    /// Saturating (most posteriors exactly 0 or 1, so confidences tie
    /// across verdicts), balanced, and undecided (pA = ½ solves nothing:
    /// an empty block).
    const PARAMS: [(f64, f64, f64); 3] = [(0.9, 1_000.0, 1.0), (0.8, 2.0, 1.0), (0.5, 2.0, 1.0)];
    const COUNTS: [(u64, u64); 6] = [(0, 0), (1, 0), (0, 1), (5, 0), (5, 1), (40, 2)];

    /// One drawn block: indexes into `TYPES`, `PROPERTIES` and `PARAMS`,
    /// and its entities, each an index into `NAMES` — its id — with an
    /// index into `COUNTS`.
    type BlockDraw = (usize, usize, usize, Vec<(usize, usize)>);

    fn blocks_strategy() -> impl Strategy<Value = Vec<BlockDraw>> {
        let entity = (0..NAMES.len(), 0..COUNTS.len());
        let block = (
            0..TYPES.len(),
            0..PROPERTIES.len(),
            0..PARAMS.len(),
            prop::collection::vec(entity, 0..8),
        );
        prop::collection::vec(block, 0..7)
    }

    /// The documents of entity `id` on `PROPERTIES[property]`; a third of
    /// the pairs have none.
    fn drawn_documents(id: usize, property: usize) -> Vec<u64> {
        match (id + property) % 3 {
            0 => Vec::new(),
            _ => vec![(10 * id + property) as u64, 100],
        }
    }

    const PROBES: [&str; 7] = [
        "kItTeN",
        "PUPPY",
        "ROCK",
        "sÃo pAULO",
        "ghost",
        "kitte",
        "kittens",
    ];

    /// Every lookup, on every probe the pools can hit or miss, against the scan.
    fn assert_index_matches_scan(store: &SubjectiveKb) -> Result<(), TestCaseError> {
        for name in NAMES.iter().chain(&PROBES).copied() {
            prop_assert_eq!(
                store.ranked_hits(name),
                store.scan_ranked_hits(name),
                "opinions_of_entity({:?})",
                name
            );
            for surface in PROPERTIES.iter().copied().chain(["absent"]) {
                let property = Property::parse(surface).unwrap();
                prop_assert_eq!(
                    store.find_hit(name, &property),
                    store.scan_find_hit(name, &property),
                    "find_opinion({:?}, {:?})",
                    name,
                    surface
                );
                for type_name in TYPES.iter().copied().chain(["ANIMAL", "absent"]) {
                    let block = store.combination(type_name, &property).map(|b| b.index);
                    prop_assert_eq!(
                        block,
                        store.scan_combination(type_name, &property),
                        "combination({:?}, {:?})",
                        type_name,
                        surface
                    );
                    prop_assert_eq!(
                        block.and_then(|block| store.hit_in(block, name)),
                        block.and_then(|block| store.scan_hit_in(block, name)),
                        "opinion({:?}, {:?}, {:?})",
                        type_name,
                        surface,
                        name
                    );
                }
            }
        }
        prop_assert_eq!(
            store.len(),
            store.combinations().map(|b| b.len()).sum::<usize>()
        );
        Ok(())
    }

    /// The public lookups, flattened to owned values: what two stores
    /// with equal columns must agree on for `name`.
    fn answers(store: &SubjectiveKb, name: &str) -> Vec<(String, Option<StoredOpinion>)> {
        let mut out: Vec<(String, Option<StoredOpinion>)> = store
            .opinions_of_entity(name)
            .iter()
            .map(|(block, opinion)| (block.export().type_name, Some(opinion.export())))
            .collect();
        let properties: Vec<Property> = (store.combinations())
            .map(|block| block.property.clone())
            .chain([Property::adjective("absent")])
            .collect();
        for property in &properties {
            let found = store.find_opinion(name, property);
            out.push((
                format!("find {property}"),
                found.map(|(_, opinion)| opinion.export()),
            ));
        }
        for block in store.combinations() {
            let found = store.opinion(&block.type_name.to_uppercase(), block.property, name);
            out.push((
                format!("opinion {} {}", block.type_name, block.property),
                found.map(|opinion| opinion.export()),
            ));
        }
        out
    }

    /// `load_store(bytes)` against `from_output(load_snapshot(bytes))`,
    /// with and without the incremental sections.
    fn assert_bytes_match_output(context: &str, output: &SurveyorOutput) {
        let state = IncrementalState {
            rho: 25,
            ..Default::default()
        };
        for bytes in [
            crate::save_snapshot(output),
            crate::save_snapshot_with_state(output, &state),
        ] {
            let loaded = crate::load_snapshot(&bytes).expect("own snapshot loads");
            // No decision is stored: every one the loader derived is, bit
            // for bit, the one the mine decided.
            assert_eq!(
                decision_bits(&loaded),
                decision_bits(output),
                "{context}: derived decisions"
            );
            let reference = SubjectiveKb::from_output(&loaded, loaded.kb());
            let store = crate::load_store(&bytes).expect("own snapshot serves");
            assert_eq!(store.len(), reference.len(), "{context}: len");
            assert_eq!(store.blocks(), reference.blocks(), "{context}: blocks");
            assert_eq!(store.to_json(), reference.to_json(), "{context}: json");
            assert_eq!(
                store.to_json(),
                SubjectiveKb::from_output(output, output.kb()).to_json(),
                "{context}: json of the mined output"
            );
            assert_eq!(
                store.resident_bytes(),
                reference.resident_bytes(),
                "{context}: resident bytes"
            );
            // Each block in the per-entity ranking's order, each opinion
            // with the verdict the mine decided, its counts and its
            // documents.
            for (block, result) in store.combinations().zip(&output.results) {
                for opinion in block.opinions() {
                    let (entity, property) = (opinion.entity, result.key.property);
                    let at = (result.decisions)
                        .binary_search_by_key(&entity, |&(entity, _)| entity)
                        .expect("a stored opinion is a decided entity");
                    let decided = result.decisions[at].1;
                    let counts = output.evidence.counts_id(entity, property);
                    assert_eq!(
                        (
                            opinion.positive,
                            decided.probability.map(f64::to_bits),
                            (opinion.positive_statements, opinion.negative_statements),
                            opinion.supporting_documents,
                        ),
                        (
                            decided.decision == Decision::Positive,
                            Some(opinion.probability.to_bits()),
                            (counts.positive, counts.negative),
                            output.provenance.documents_id(entity, property),
                        ),
                        "{context}: {}",
                        opinion.entity_name
                    );
                }
                let entities = output.kb().entities_of_type(result.key.type_id);
                let counts: Vec<ObservedCounts> = (entities.iter())
                    .map(|&e| {
                        let c = output.evidence.counts_id(e, result.key.property);
                        ObservedCounts::new(c.positive, c.negative)
                    })
                    .collect();
                let table = CountTable::new(&counts);
                let oracle: Vec<EntityId> =
                    (by_entity::rank(&table, &table.pair_decisions(&result.fit.params)).iter())
                        .map(|&position| entities[position as usize])
                        .collect();
                let stored: Vec<EntityId> = block.opinions().map(|o| o.entity).collect();
                assert_eq!(stored, oracle, "{context}: rank order of a block");
            }
            // Every stored name — a few hundred at most per world, spread
            // over the store — as stored, case-folded both ways, and
            // damaged; plus names nothing carries.
            let names: Vec<&str> = (0..store.data.names.len() as u32)
                .map(|group| store.data.names.get(group))
                .collect();
            let step = (names.len() / 300).max(1);
            for name in names.iter().step_by(step).copied().chain(["ghost", ""]) {
                let variants = [
                    name.to_owned(),
                    name.to_ascii_lowercase(),
                    name.to_ascii_uppercase(),
                    format!("{name}x"),
                ];
                for probe in &variants {
                    assert_eq!(
                        store.ranked_hits(probe),
                        reference.ranked_hits(probe),
                        "{context}: positions of {probe:?}"
                    );
                    assert_eq!(
                        store.ranked_hits(probe),
                        store.scan_ranked_hits(probe),
                        "{context}: scan for {probe:?}"
                    );
                    assert_eq!(
                        answers(&store, probe),
                        answers(&reference, probe),
                        "{context}: answers for {probe:?}"
                    );
                }
            }
        }
    }

    fn mine(world: World, rho: u64) -> SurveyorOutput {
        let kb = world.kb().clone();
        let generator = CorpusGenerator::new(
            world,
            CorpusConfig {
                num_shards: 2,
                ..CorpusConfig::default()
            },
        );
        let config = SurveyorConfig {
            rho,
            threads: 2,
            ..SurveyorConfig::default()
        };
        Surveyor::new(kb, config).run(&CorpusSource::new(&generator))
    }

    #[test]
    fn bytes_match_output_on_every_preset() {
        let seed = 2015;
        let worlds: [(&str, World, u64); 6] = [
            ("cities", presets::big_cities_world(seed), 40),
            ("table2", presets::table2_world_sized(seed, 12), 100),
            ("countries", presets::wealthy_countries_world(seed), 40),
            ("lakes", presets::big_lakes_world(seed), 40),
            ("mountains", presets::high_mountains_world(seed), 40),
            ("long tail", presets::long_tail_world(6, 150, 4, seed), 25),
        ];
        for (preset, world, rho) in worlds {
            let output = mine(world, rho);
            assert!(output.decided_pairs() > 0, "{preset}: empty world");
            assert_bytes_match_output(preset, &output);
        }
    }

    #[test]
    fn bytes_match_output_on_the_fixtures() {
        let (_, output) = super::tests::output_fixture();
        assert_bytes_match_output("one block", &output);
        let (_, output) = super::tests::case_variant_fixture();
        assert_bytes_match_output("case variants", &output);
        // No modeled combination, and no entity at all.
        let (kb, _) = super::tests::output_fixture();
        let surveyor = Surveyor::new(kb, SurveyorConfig::default());
        assert_bytes_match_output(
            "nothing modeled",
            &surveyor.run_on_evidence(EvidenceTable::new()),
        );
        let empty = Arc::new(KnowledgeBaseBuilder::new().build());
        let surveyor = Surveyor::new(empty, SurveyorConfig::default());
        assert_bytes_match_output("empty", &surveyor.run_on_evidence(EvidenceTable::new()));
    }

    /// One drawn pair of counts: an entity (index into the world's
    /// entities), a property, positive and negative statements, documents.
    type EvidenceDraw = (usize, usize, u64, u64, Vec<u64>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The builder's own path: the name is a function of a dense id,
        /// so case variants of one name are distinct groups the lookup
        /// must merge back into block order, and some ids have no opinion
        /// at all. Each block is what the per-entity ranking of its drawn
        /// counts makes of it, each opinion with its pair's documents.
        #[test]
        fn index_matches_scan_on_blocks_grouped_by_id(
            draws in blocks_strategy(),
            unused_ids in 0usize..4,
        ) {
            let mut sink = StoreSink::default();
            for type_name in TYPES {
                sink.entity_type(type_name, &[], &[]);
            }
            for name in NAMES.iter().chain(&PROBES[..unused_ids]) {
                sink.entity(name, 0, &[], &[]);
            }
            sink.begin_rows(Declared {
                evidence: 0,
                provenance: 0,
                provenance_sample_size: 0,
                results: draws.len(),
            });
            let property_ref = |property: usize| PropertyRef {
                rank: property as u32,
                id: PropertyId::intern(&Property::parse(PROPERTIES[property]).unwrap()),
            };
            for id in 0..NAMES.len() {
                for property in 0..PROPERTIES.len() {
                    let documents = drawn_documents(id, property);
                    if !documents.is_empty() {
                        sink.provenance(EntityId(id as u32), property_ref(property), documents.into_iter());
                    }
                }
            }
            let mut blocks = Vec::new();
            for (type_index, property, params, drawn) in &draws {
                let mut drawn = drawn.clone();
                drawn.sort_unstable();
                drawn.dedup_by_key(|&mut (id, _)| id);
                let entities: Vec<EntityId> = drawn.iter().map(|&(id, _)| EntityId(id as u32)).collect();
                let counts: Vec<ObservedCounts> = drawn.iter().map(|&(_, c)| COUNTS[c].into()).collect();
                let table = CountTable::new(&counts);
                let (p_agree, rate_pos, rate_neg) = PARAMS[*params];
                let fit = EmFit {
                    params: ModelParams::new(p_agree, rate_pos, rate_neg),
                    iterations: 1,
                    q_trace: Vec::new(),
                    delta_trace: Vec::new(),
                    converged: ConvergenceReason::Tolerance,
                    log_likelihood: 0.0,
                };
                let property_ref = property_ref(*property);
                let key = GroupKey { type_id: TypeId(*type_index as u32), property: property_ref.id };
                sink.group(property_ref, &ModelledGroup { key, fit: &fit, entities: &entities, table: &table });

                let decisions = table.pair_decisions(&fit.params);
                let opinions = (by_entity::rank(&table, &decisions).iter())
                    .map(|&position| {
                        let id = drawn[position as usize].0;
                        let slot = table.slots()[position as usize] as usize;
                        StoredOpinion {
                            entity: EntityId(id as u32),
                            entity_name: NAMES[id].to_owned(),
                            positive: decisions[slot].decision == Decision::Positive,
                            probability: decisions[slot].probability.unwrap_or(0.5),
                            positive_statements: table.pairs()[slot].positive,
                            negative_statements: table.pairs()[slot].negative,
                            supporting_documents: drawn_documents(id, *property),
                        }
                    })
                    .collect();
                blocks.push(CombinationBlock {
                    type_id: key.type_id,
                    type_name: TYPES[*type_index].to_owned(),
                    property: Property::parse(PROPERTIES[*property]).unwrap(),
                    p_agree,
                    rate_pos,
                    rate_neg,
                    opinions,
                });
            }
            let store = sink.finish();
            prop_assert_eq!(store.blocks(), blocks);
            assert_index_matches_scan(&store)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drawn worlds through the snapshot: entity names from the
        /// colliding pool (so one folded name sits under several ids and
        /// types), counts from none to lopsided, provenance on some pairs
        /// and not others, a threshold some combinations miss.
        #[test]
        fn bytes_match_output_on_drawn_worlds(
            entity_draws in prop::collection::vec((0..NAMES.len(), 0..TYPES.len()), 1..12),
            evidence in prop::collection::vec(
                (0usize..12, 0..PROPERTIES.len(), 0u64..40, 0u64..40,
                 prop::collection::vec(0u64..1_000, 0..4)),
                0..40,
            ),
            rho in 1u64..60,
        ) {
            let mut b = KnowledgeBaseBuilder::new();
            let types: Vec<TypeId> = TYPES.iter().map(|t| b.add_type(t, &[t], &[])).collect();
            for &(name, type_index) in &entity_draws {
                b.add_entity(NAMES[name], types[type_index]).finish();
            }
            let kb = Arc::new(b.build());
            let mut table = EvidenceTable::new();
            let mut provenance = ProvenanceTable::new(3);
            let draws: &[EvidenceDraw] = &evidence;
            for (entity, property, positive, negative, documents) in draws {
                let entity = EntityId((entity % entity_draws.len()) as u32);
                let property = PropertyId::intern(&Property::parse(PROPERTIES[*property]).unwrap());
                table.add_counts(entity, property, EvidenceCounts::new(*positive, *negative));
                let mut documents = documents.clone();
                documents.sort_unstable();
                documents.dedup();
                if !documents.is_empty() {
                    provenance.insert(entity, property, documents);
                }
            }
            let config = SurveyorConfig { rho, threads: 1, ..SurveyorConfig::default() };
            let mut output = Surveyor::new(kb, config).run_on_evidence(table);
            output.provenance = provenance;
            assert_bytes_match_output("drawn world", &output);
        }
    }
}
