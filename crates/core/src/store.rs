//! The subjective knowledge base: Surveyor's downstream deliverable.
//!
//! "The purpose is to build a knowledge base of subjective properties and
//! entities … Upon receipt of a subjective query, the search engine can
//! exploit high-confidence entity-property associations" (paper §1–§2).
//! This module materializes pipeline output into a queryable, persistable
//! store answering exactly those queries: *safe cities*, *cute animals*.

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;
use surveyor_extract::EvidenceCounts;
use surveyor_kb::{EntityId, KnowledgeBase, Property, TypeId};
use surveyor_model::Decision;

use crate::entity_index::EntityIndex;
use crate::pipeline::SurveyorOutput;

/// One stored association.
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

/// Per-combination block of the store.
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
    blocks: Vec<CombinationBlock>,
    index: FxHashMap<(String, Property), usize>,
    entities: EntityIndex,
}

impl PartialEq for SubjectiveKb {
    fn eq(&self, other: &Self) -> bool {
        self.blocks == other.blocks
    }
}

/// Most confident first (largest `|p − 0.5|`), then by type name; hits
/// that tie on both keep the order they arrive in.
fn by_confidence(
    (block_a, a): &(&CombinationBlock, &StoredOpinion),
    (block_b, b): &(&CombinationBlock, &StoredOpinion),
) -> Ordering {
    let conf_a = (a.probability - 0.5).abs();
    let conf_b = (b.probability - 0.5).abs();
    conf_b
        .total_cmp(&conf_a)
        .then_with(|| block_a.type_name.cmp(&block_b.type_name))
}

impl SubjectiveKb {
    /// Materializes pipeline output into a store.
    pub fn from_output(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>) -> Self {
        /// The plain-data half of an opinion: what decides its rank.
        #[derive(Clone, Copy)]
        struct Row {
            entity: EntityId,
            probability: f64,
            positive: bool,
            counts: EvidenceCounts,
        }
        let mut blocks = Vec::with_capacity(output.results.len());
        // The entity index groups opinions by name. Here a name is a
        // function of the entity id, so the ids are the groups.
        let mut group_of_pair: Vec<u32> = Vec::with_capacity(output.decided_pairs());
        // A block's order is settled on 32-byte rows; names and documents
        // (two allocations and 56 more bytes to move per opinion) are
        // attached afterwards, in final order.
        let mut rows: Vec<Row> = Vec::new();
        for result in &output.results {
            let type_name = kb.entity_type(result.key.type_id).name().to_owned();
            let property = result.key.property;
            rows.clear();
            rows.extend(
                result
                    .decisions
                    .iter()
                    .filter(|(_, d)| d.decision.is_solved())
                    .map(|&(entity, d)| Row {
                        entity,
                        probability: d.probability.unwrap_or(0.5),
                        positive: d.decision == Decision::Positive,
                        counts: output.evidence.counts_id(entity, property),
                    }),
            );
            rows.sort_by(|a, b| {
                b.probability
                    .total_cmp(&a.probability)
                    .then_with(|| b.counts.positive.cmp(&a.counts.positive))
                    .then_with(|| a.entity.cmp(&b.entity))
            });
            group_of_pair.extend(rows.iter().map(|row| row.entity.0));
            let opinions = rows
                .iter()
                .map(|row| StoredOpinion {
                    entity: row.entity,
                    entity_name: kb.entity(row.entity).name().to_owned(),
                    positive: row.positive,
                    probability: row.probability,
                    positive_statements: row.counts.positive,
                    negative_statements: row.counts.negative,
                    supporting_documents: output
                        .provenance
                        .documents_id(row.entity, property)
                        .to_vec(),
                })
                .collect();
            blocks.push(CombinationBlock {
                type_id: result.key.type_id,
                type_name,
                property: property.resolve(),
                p_agree: result.fit.params.p_agree,
                rate_pos: result.fit.params.rate_pos,
                rate_neg: result.fit.params.rate_neg,
                opinions,
            });
        }
        Self::from_grouped_blocks(blocks, &group_of_pair, kb.len())
    }

    /// Indexes blocks from outside the program ([`Self::from_json`]),
    /// where nothing ties an `EntityId` to one name: opinions are grouped
    /// by the name they carry, and their ids play no part.
    fn from_blocks(blocks: Vec<CombinationBlock>) -> Self {
        let mut groups: FxHashMap<String, u32> = FxHashMap::default();
        let group_of_pair: Vec<u32> = blocks
            .iter()
            .flat_map(|b| &b.opinions)
            .map(|o| {
                let next = groups.len() as u32;
                *groups
                    .entry(o.entity_name.to_ascii_lowercase())
                    .or_insert(next)
            })
            .collect();
        Self::from_grouped_blocks(blocks, &group_of_pair, groups.len())
    }

    /// The one constructor: both indexes are derived here, so no store
    /// exists without them. `group_of_pair` and `groups` are as
    /// [`EntityIndex::build`] takes them.
    fn from_grouped_blocks(
        blocks: Vec<CombinationBlock>,
        group_of_pair: &[u32],
        groups: usize,
    ) -> Self {
        let index = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| ((b.type_name.clone(), b.property.clone()), i))
            .collect();
        let entities = EntityIndex::build(&blocks, group_of_pair, groups);
        Self {
            blocks,
            index,
            entities,
        }
    }

    /// All stored combinations.
    pub fn blocks(&self) -> &[CombinationBlock] {
        &self.blocks
    }

    /// Number of stored entity-property associations.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers a subjective query: entities of `type_name` for which the
    /// dominant opinion applies `property`, ranked by probability.
    ///
    /// This is the paper's motivating search-engine scenario ("queries
    /// such as `safe cities` would not trigger search results from
    /// structured data" — now they can).
    pub fn query(&self, type_name: &str, property: &Property) -> Vec<&StoredOpinion> {
        self.combination(type_name, property)
            .map(|b| b.opinions.iter().filter(|o| o.positive).collect())
            .unwrap_or_default()
    }

    /// The negated query: entities the dominant opinion says are *not*
    /// `property`, most confident first.
    pub fn query_negative(&self, type_name: &str, property: &Property) -> Vec<&StoredOpinion> {
        let Some(block) = self.combination(type_name, property) else {
            return Vec::new();
        };
        let mut hits: Vec<&StoredOpinion> = block.opinions.iter().filter(|o| !o.positive).collect();
        hits.reverse(); // ascending probability = descending confidence in ¬P
        hits
    }

    /// The block for one combination, if modeled.
    pub fn combination(&self, type_name: &str, property: &Property) -> Option<&CombinationBlock> {
        self.index
            .get(&(type_name.to_lowercase(), property.clone()))
            .map(|&i| &self.blocks[i])
    }

    /// All properties stored for a type.
    pub fn properties_of(&self, type_name: &str) -> Vec<&Property> {
        let lower = type_name.to_lowercase();
        self.blocks
            .iter()
            .filter(|b| b.type_name == lower)
            .map(|b| &b.property)
            .collect()
    }

    /// Every stored opinion about `entity_name` (matched ignoring ASCII
    /// case), in block order — what a scan over the blocks would find,
    /// read off the entity index in time proportional to the answer.
    fn hits<'a>(
        &'a self,
        entity_name: &str,
    ) -> impl Iterator<Item = (&'a CombinationBlock, &'a StoredOpinion)> {
        let postings = self.entities.postings_of(&self.blocks, entity_name);
        (0..postings.len()).map(move |i| {
            let at = postings[i];
            let block = &self.blocks[at.block as usize];
            (block, &block.opinions[at.slot as usize])
        })
    }

    /// Every stored opinion about `entity_name` across all combinations,
    /// most confident first (largest `|p − 0.5|`), then by type name and
    /// property. This is the query server's top-k-properties-per-entity
    /// lookup; it costs what the entity's own opinions cost, not the
    /// store's.
    pub fn opinions_of_entity(
        &self,
        entity_name: &str,
    ) -> Vec<(&CombinationBlock, &StoredOpinion)> {
        let mut hits: Vec<(&CombinationBlock, &StoredOpinion)> = self.hits(entity_name).collect();
        hits.sort_by(|a, b| {
            by_confidence(a, b)
                .then_with(|| a.0.property.to_string().cmp(&b.0.property.to_string()))
        });
        hits
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
    ) -> Option<(&CombinationBlock, &StoredOpinion)> {
        self.hits(entity_name)
            .filter(|(block, _)| &block.property == property)
            .min_by(by_confidence) // of equals, the first
    }

    /// The opinion on one entity-property pair, if stored.
    pub fn opinion(
        &self,
        type_name: &str,
        property: &Property,
        entity_name: &str,
    ) -> Option<&StoredOpinion> {
        let wanted = self.combination(type_name, property)?;
        self.hits(entity_name)
            .find(|&(block, _)| std::ptr::eq(block, wanted))
            .map(|(_, opinion)| opinion)
    }

    /// Serializes the store to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.blocks).expect("store serializes") // lint:allow(no-panic-in-lib): the store value tree holds only serializable primitives
    }

    /// Restores a store from JSON produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let blocks: Vec<CombinationBlock> = serde_json::from_str(json)?;
        Ok(Self::from_blocks(blocks))
    }
}

/// The lookups as they were before the entity index: a scan over every
/// stored opinion. Kept, for tests only, as the oracle the index answers
/// are compared against.
#[cfg(test)]
impl SubjectiveKb {
    fn scan_opinions_of_entity(
        &self,
        entity_name: &str,
    ) -> Vec<(&CombinationBlock, &StoredOpinion)> {
        let mut hits: Vec<(&CombinationBlock, &StoredOpinion)> = self
            .blocks
            .iter()
            .flat_map(|b| {
                b.opinions
                    .iter()
                    .filter(|o| o.entity_name.eq_ignore_ascii_case(entity_name))
                    .map(move |o| (b, o))
            })
            .collect();
        hits.sort_by(|(ba, a), (bb, b)| {
            let conf_a = (a.probability - 0.5).abs();
            let conf_b = (b.probability - 0.5).abs();
            conf_b
                .total_cmp(&conf_a)
                .then_with(|| ba.type_name.cmp(&bb.type_name))
                .then_with(|| ba.property.to_string().cmp(&bb.property.to_string()))
        });
        hits
    }

    fn scan_find_opinion(
        &self,
        entity_name: &str,
        property: &Property,
    ) -> Option<(&CombinationBlock, &StoredOpinion)> {
        self.scan_opinions_of_entity(entity_name)
            .into_iter()
            .find(|(b, _)| &b.property == property)
    }

    fn scan_opinion(
        &self,
        type_name: &str,
        property: &Property,
        entity_name: &str,
    ) -> Option<&StoredOpinion> {
        self.combination(type_name, property)?
            .opinions
            .iter()
            .find(|o| o.entity_name.eq_ignore_ascii_case(entity_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use surveyor_extract::{EvidenceTable, Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;

    fn output_fixture() -> (Arc<KnowledgeBase>, SurveyorOutput) {
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
    }

    #[test]
    fn store_lookup_and_metadata() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let cute = Property::adjective("cute");
        let block = store.combination("animal", &cute).unwrap();
        assert!(block.p_agree >= 0.5);
        assert_eq!(store.properties_of("animal"), vec![&cute]);
        let kitten = store.opinion("animal", &cute, "kitten").unwrap();
        assert!(kitten.positive);
        assert_eq!(kitten.positive_statements, 40);
        assert!(store.opinion("animal", &cute, "ghost").is_none());
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn json_round_trip() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let json = store.to_json();
        let restored = SubjectiveKb::from_json(&json).unwrap();
        // JSON round-trips floats up to the last ULP; compare structure.
        assert_eq!(store.len(), restored.len());
        assert_eq!(store.blocks().len(), restored.blocks().len());
        let cute = Property::adjective("cute");
        let a = store.query("animal", &cute);
        let b = restored.query("animal", &cute);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.entity_name, y.entity_name);
            assert_eq!(x.positive, y.positive);
            assert!((x.probability - y.probability).abs() < 1e-9);
        }
        // The entity index is derived again on the way in: the restored
        // store answers by-entity lookups exactly as the original does.
        for name in ["Kitten", "kitten", "PUPPY", "Spider", "Rock", "ghost"] {
            let flat = |s: &SubjectiveKb| -> Vec<(String, String, bool)> {
                s.opinions_of_entity(name)
                    .iter()
                    .map(|(b, o)| (b.type_name.clone(), o.entity_name.clone(), o.positive))
                    .collect()
            };
            assert_eq!(flat(&store), flat(&restored), "opinions_of_entity({name})");
            let verdict = |s: &SubjectiveKb| s.find_opinion(name, &cute).map(|(_, o)| o.positive);
            assert_eq!(verdict(&store), verdict(&restored), "find_opinion({name})");
            assert_eq!(verdict(&store).is_some(), name != "ghost");
        }
    }

    /// One name under two `EntityId`s and two types, with the same
    /// evidence and so the same confidence: both answer to either
    /// spelling, the type name breaks the tie, and the index agrees with
    /// the scan on a store built by `from_output`.
    #[test]
    fn case_variants_under_two_ids_both_answer() {
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
        let store = SubjectiveKb::from_output(&surveyor.run_on_evidence(table), &kb);

        for name in ["kitten", "KITTEN", "Kitten"] {
            let hits = store.opinions_of_entity(name);
            let found: Vec<(&str, &str)> = hits
                .iter()
                .map(|(b, o)| (b.type_name.as_str(), o.entity_name.as_str()))
                .collect();
            assert_eq!(found, [("animal", "Kitten"), ("pet", "KITTEN")]);
            assert_eq!(hits[0].1.probability, hits[1].1.probability);
            let (block, opinion) = store.find_opinion(name, &cute).unwrap();
            assert_eq!(
                (block.type_name.as_str(), opinion.entity),
                ("animal", lower)
            );
            assert_eq!(store.opinion("pet", &cute, name).unwrap().entity, upper);

            let scanned = store.scan_opinions_of_entity(name);
            assert_eq!(hits.len(), scanned.len());
            for (hit, want) in hits.iter().zip(&scanned) {
                assert!(std::ptr::eq(hit.1, want.1));
            }
            let scanned = store.scan_find_opinion(name, &cute).unwrap();
            assert!(std::ptr::eq(opinion, scanned.1));
            assert!(std::ptr::eq(
                store.opinion("pet", &cute, name).unwrap(),
                store.scan_opinion("pet", &cute, name).unwrap()
            ));
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
}

/// Differential tests: every lookup answered from the entity index must
/// return exactly what the linear scan it replaced returns — the same
/// opinions (by address, not by value) in the same order.
///
/// Block sets are drawn from small pools chosen to collide: case variants
/// of one name (ASCII ones match each other, non-ASCII ones must not), one
/// name under several `EntityId`s, one `EntityId` under several names,
/// an entity in several blocks and under two types with equal confidence,
/// blocks repeating a (type, property), empty blocks, the empty store, and
/// ids up to `u32::MAX`.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;

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
    const IDS: [u32; 8] = [0, 1, 2, 3, 1 << 20, 1 << 31, 4_000_000_000, u32::MAX];
    const TYPES: [&str; 3] = ["animal", "pet", "city"];
    const PROPERTIES: [&str; 3] = ["cute", "big", "very big"];
    /// 0.1/0.9 and 0.25/0.75 tie on confidence; 0.5 has none.
    const PROBABILITIES: [f64; 6] = [0.1, 0.9, 0.25, 0.75, 0.5, 0.9];

    /// One drawn opinion: indexes into `NAMES`, `IDS`, `PROBABILITIES`.
    type OpinionDraw = (usize, usize, usize);
    /// One drawn block: indexes into `TYPES` and `PROPERTIES`, and opinions.
    type BlockDraw = (usize, usize, Vec<OpinionDraw>);

    fn blocks_strategy() -> impl Strategy<Value = Vec<BlockDraw>> {
        let opinion = (0..NAMES.len(), 0..IDS.len(), 0..PROBABILITIES.len());
        let block = (
            0..TYPES.len(),
            0..PROPERTIES.len(),
            prop::collection::vec(opinion, 0..8),
        );
        prop::collection::vec(block, 0..7)
    }

    fn materialize(
        draws: &[BlockDraw],
        opinion: impl Fn(&OpinionDraw) -> (EntityId, &'static str),
    ) -> Vec<CombinationBlock> {
        draws
            .iter()
            .map(|(type_index, property, opinions)| CombinationBlock {
                type_id: TypeId(*type_index as u32),
                type_name: TYPES[*type_index].to_owned(),
                property: Property::parse(PROPERTIES[*property]).unwrap(),
                p_agree: 0.9,
                rate_pos: 2.0,
                rate_neg: 0.5,
                opinions: opinions
                    .iter()
                    .map(|draw| {
                        let (entity, name) = opinion(draw);
                        let probability = PROBABILITIES[draw.2];
                        StoredOpinion {
                            entity,
                            entity_name: name.to_owned(),
                            positive: probability > 0.5,
                            probability,
                            positive_statements: 3,
                            negative_statements: 1,
                            supporting_documents: vec![7],
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    type Addresses = Vec<(*const CombinationBlock, *const StoredOpinion)>;

    fn addresses<'a>(
        hits: impl IntoIterator<Item = (&'a CombinationBlock, &'a StoredOpinion)>,
    ) -> Addresses {
        hits.into_iter()
            .map(|(b, o)| (std::ptr::from_ref(b), std::ptr::from_ref(o)))
            .collect()
    }

    /// Every lookup, on every probe the pools can hit or miss, against the scan.
    fn assert_index_matches_scan(store: &SubjectiveKb) -> Result<(), TestCaseError> {
        let probes = NAMES.iter().copied().chain([
            "kItTeN",
            "PUPPY",
            "ROCK",
            "sÃo pAULO",
            "ghost",
            "kitte",
            "kittens",
        ]);
        for name in probes {
            prop_assert_eq!(
                addresses(store.opinions_of_entity(name)),
                addresses(store.scan_opinions_of_entity(name)),
                "opinions_of_entity({name:?})"
            );
            for surface in PROPERTIES.iter().copied().chain(["absent"]) {
                let property = Property::parse(surface).unwrap();
                prop_assert_eq!(
                    addresses(store.find_opinion(name, &property)),
                    addresses(store.scan_find_opinion(name, &property)),
                    "find_opinion({name:?}, {surface:?})"
                );
                for type_name in TYPES.iter().copied().chain(["ANIMAL", "absent"]) {
                    prop_assert_eq!(
                        store
                            .opinion(type_name, &property, name)
                            .map(std::ptr::from_ref),
                        store
                            .scan_opinion(type_name, &property, name)
                            .map(std::ptr::from_ref),
                        "opinion({type_name:?}, {surface:?}, {name:?})"
                    );
                }
            }
        }
        prop_assert_eq!(
            store.len(),
            store
                .blocks()
                .iter()
                .map(|b| b.opinions.len())
                .sum::<usize>()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The `from_json` path: names and ids drawn independently, so one id
        /// may carry several names and ids may be sparse and huge.
        #[test]
        fn index_matches_scan_on_blocks_from_json(draws in blocks_strategy()) {
            let blocks = materialize(&draws, |&(name, id, _)| (EntityId(IDS[id]), NAMES[name]));
            let json = serde_json::to_string(&blocks).unwrap();
            let store = SubjectiveKb::from_json(&json).unwrap();
            prop_assert_eq!(store.blocks(), blocks.as_slice());
            assert_index_matches_scan(&store)?;
        }

        /// The `from_output` path: the name is a function of a dense id, so
        /// case variants of one name are distinct groups the lookup must
        /// merge back into block order, and some ids have no opinion at all.
        #[test]
        fn index_matches_scan_on_blocks_grouped_by_id(
            draws in blocks_strategy(),
            unused_ids in 0usize..4,
        ) {
            let blocks = materialize(&draws, |&(name, _, _)| (EntityId(name as u32), NAMES[name]));
            let group_of_pair: Vec<u32> = blocks
                .iter()
                .flat_map(|b| &b.opinions)
                .map(|o| o.entity.0)
                .collect();
            let store =
                SubjectiveKb::from_grouped_blocks(blocks, &group_of_pair, NAMES.len() + unused_ids);
            assert_index_matches_scan(&store)?;
        }
    }
}
