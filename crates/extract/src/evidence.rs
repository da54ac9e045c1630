//! Statements, evidence counters, and grouping (paper §3).
//!
//! "We group evidence by the entity-property pair it refers to. For each
//! pair, we compute two counters: the total number of positive statements
//! and the total number of negative statements." Groups are then keyed by
//! (type, property) so each combination can learn its own model.

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use surveyor_kb::{EntityId, KnowledgeBase, Property, PropertyId, TypeId};

/// Polarity of an evidence statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Polarity {
    /// The statement claims the property applies.
    Positive,
    /// The statement claims the property does not apply.
    Negative,
}

/// One extracted evidence statement.
///
/// The property is carried as an interned [`PropertyId`]: statements are
/// emitted once per matched pattern on the per-sentence hot path, and the
/// id keeps them `Copy`-cheap all the way into the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Statement {
    /// The entity the statement is about.
    pub entity: EntityId,
    /// The subjective property (adjective + adverbs), interned.
    pub property: PropertyId,
    /// Whether the statement affirms or denies the property.
    pub polarity: Polarity,
}

impl Statement {
    /// A statement over a not-yet-interned property (test and tooling
    /// convenience; the extraction patterns intern directly from token
    /// surfaces).
    pub fn new(entity: EntityId, property: &Property, polarity: Polarity) -> Self {
        Self {
            entity,
            property: PropertyId::intern(property),
            polarity,
        }
    }
}

/// Positive/negative statement counters for one entity-property pair — the
/// evidence tuple `⟨C+_i, C-_i⟩` of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EvidenceCounts {
    /// Count of positive statements (`C+`).
    pub positive: u64,
    /// Count of negative statements (`C-`).
    pub negative: u64,
}

impl EvidenceCounts {
    /// A pair of explicit counts.
    pub fn new(positive: u64, negative: u64) -> Self {
        Self { positive, negative }
    }

    /// Total statements.
    pub fn total(&self) -> u64 {
        self.positive + self.negative
    }

    /// Records one statement of the given polarity.
    pub fn add(&mut self, polarity: Polarity) {
        match polarity {
            Polarity::Positive => self.positive += 1,
            Polarity::Negative => self.negative += 1,
        }
    }

    /// Adds another counter pair.
    pub fn merge(&mut self, other: EvidenceCounts) {
        self.positive += other.positive;
        self.negative += other.negative;
    }
}

/// Evidence counters keyed by entity-property pair; the map-side output of
/// the extraction phase. Merging tables is associative and commutative, so
/// shards can reduce in any order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvidenceTable {
    map: FxHashMap<(EntityId, PropertyId), EvidenceCounts>,
    statements: u64,
}

impl EvidenceTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `pairs` entity-property pairs — the
    /// snapshot loader knows the row count before it streams the rows.
    pub fn with_capacity(pairs: usize) -> Self {
        Self {
            map: FxHashMap::with_capacity_and_hasher(pairs, Default::default()),
            statements: 0,
        }
    }

    /// Records one statement. Allocation-free: the key is two `u32` ids.
    pub fn add(&mut self, statement: &Statement) {
        self.map
            .entry((statement.entity, statement.property))
            .or_default()
            .add(statement.polarity);
        self.statements += 1;
    }

    /// Adds a pair's counters by id (merging with what the pair already
    /// holds) — how persisted rows come back without a resolved
    /// [`Property`] per row.
    pub fn add_counts(&mut self, entity: EntityId, property: PropertyId, counts: EvidenceCounts) {
        self.map
            .entry((entity, property))
            .or_default()
            .merge(counts);
        self.statements += counts.total();
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: EvidenceTable) {
        for (key, counts) in other.map {
            self.map.entry(key).or_default().merge(counts);
        }
        self.statements += other.statements;
    }

    /// Counts for an entity-property pair (zero if never seen).
    ///
    /// Never-interned properties short-circuit to zero without touching the
    /// intern table.
    pub fn counts(&self, entity: EntityId, property: &Property) -> EvidenceCounts {
        PropertyId::lookup(property)
            .map(|id| self.counts_id(entity, id))
            .unwrap_or_default()
    }

    /// Counts for an entity and an already-interned property.
    pub fn counts_id(&self, entity: EntityId, property: PropertyId) -> EvidenceCounts {
        self.map
            .get(&(entity, property))
            .copied()
            .unwrap_or_default()
    }

    /// Number of distinct entity-property pairs with evidence.
    pub fn pair_count(&self) -> usize {
        self.map.len()
    }

    /// Total statements recorded.
    pub fn total_statements(&self) -> u64 {
        self.statements
    }

    /// Iterates over all pairs and their counts (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&(EntityId, PropertyId), &EvidenceCounts)> {
        self.map.iter()
    }

    /// Corpus-wide `(positive, negative)` statement totals — the input of
    /// the scaled-majority-vote baseline's global polarity ratio.
    pub fn polarity_totals(&self) -> (u64, u64) {
        self.map
            .values()
            .fold((0, 0), |(p, n), c| (p + c.positive, n + c.negative))
    }

    /// Total statements per entity across all properties — the
    /// mention-count signal the WebChild baseline's KB membership uses.
    pub fn mention_totals(&self) -> rustc_hash::FxHashMap<EntityId, u64> {
        let mut totals: rustc_hash::FxHashMap<EntityId, u64> = rustc_hash::FxHashMap::default();
        for ((entity, _), counts) in self.map.iter() {
            *totals.entry(*entity).or_default() += counts.total();
        }
        totals
    }

    /// Dumps the table to a stable, sorted entry list for the JSON codec
    /// (extraction is the expensive pipeline phase; the paper's
    /// architecture stores counter tables between the extraction and
    /// interpretation passes). The binary snapshot bridge does not come
    /// through here: it works on [`iter`](Self::iter) and
    /// [`add_counts`](Self::add_counts), by id.
    pub fn to_entries(&self) -> Vec<EvidenceEntry> {
        // Ids are process-local, so entries resolve to the full property and
        // sort on the resolved form — output order is reproducible across
        // runs no matter what order extraction discovered properties in.
        let mut entries: Vec<EvidenceEntry> = self
            .map
            .iter()
            .map(|((entity, property), counts)| EvidenceEntry {
                entity: *entity,
                property: property.resolve(),
                positive: counts.positive,
                negative: counts.negative,
            })
            .collect();
        entries.sort_by(|a, b| (a.entity, &a.property).cmp(&(b.entity, &b.property)));
        entries
    }

    /// Rebuilds a table from persisted entries.
    pub fn from_entries(entries: Vec<EvidenceEntry>) -> Self {
        let mut table = Self::with_capacity(entries.len());
        for entry in entries {
            table.add_counts(
                entry.entity,
                PropertyId::intern(&entry.property),
                EvidenceCounts::new(entry.positive, entry.negative),
            );
        }
        table
    }

    /// Serializes the table to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_entries()).expect("entries serialize") // lint:allow(no-panic-in-lib): evidence entries hold only serializable primitives
    }

    /// Restores a table from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(Self::from_entries(serde_json::from_str(json)?))
    }
}

/// One persisted entity-property counter row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceEntry {
    /// The entity.
    pub entity: EntityId,
    /// The property.
    pub property: Property,
    /// Positive statement count.
    pub positive: u64,
    /// Negative statement count.
    pub negative: u64,
}

/// Key of an evidence group: one (entity type, property) combination.
///
/// Two `u32` ids — `Copy`, hashable in a few cycles. Deliberately not `Ord`:
/// property ids reflect discovery order, so deterministic group ordering is
/// produced by sorting on the *resolved* property instead (see
/// [`GroupedEvidence::from_table`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupKey {
    /// The entity type.
    pub type_id: TypeId,
    /// The subjective property, interned.
    pub property: PropertyId,
}

/// Per-entity evidence for one (type, property) combination.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    counts: FxHashMap<EntityId, EvidenceCounts>,
    total: u64,
}

impl Group {
    /// Counts for one entity (zero if never mentioned with the property).
    pub fn counts(&self, entity: EntityId) -> EvidenceCounts {
        self.counts.get(&entity).copied().unwrap_or_default()
    }

    /// Total statements extracted for this combination — compared against
    /// the occurrence threshold ρ of Algorithm 1.
    pub fn total_statements(&self) -> u64 {
        self.total
    }

    /// Number of entities with at least one statement.
    pub fn mentioned_entities(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over mentioned entities.
    pub fn iter(&self) -> impl Iterator<Item = (&EntityId, &EvidenceCounts)> {
        self.counts.iter()
    }
}

/// Evidence grouped by (type, property), deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupedEvidence {
    /// Sorted by `(type_id, resolved property)` — the same order the old
    /// `BTreeMap<GroupKey, Group>` produced, independent of property-id
    /// discovery order.
    groups: Vec<(GroupKey, Group)>,
    index: FxHashMap<GroupKey, usize>,
}

impl GroupedEvidence {
    /// Groups a flat evidence table using the knowledge base's notable
    /// types (§3: "The knowledge base associates each entity with an entity
    /// type … we use only the most notable type").
    pub fn from_table(table: &EvidenceTable, kb: &KnowledgeBase) -> Self {
        let mut by_key: FxHashMap<GroupKey, Group> = FxHashMap::default();
        for ((entity, property), counts) in table.iter() {
            let type_id = kb.entity(*entity).notable_type();
            let group = by_key
                .entry(GroupKey {
                    type_id,
                    property: *property,
                })
                .or_default();
            group.counts.entry(*entity).or_default().merge(*counts);
            group.total += counts.total();
        }
        let mut groups: Vec<(GroupKey, Group)> = by_key.into_iter().collect();
        // Ids reflect discovery order; resolve once per combination and sort
        // on the property itself for cross-run determinism.
        groups.sort_by_cached_key(|(key, _)| (key.type_id, key.property.resolve()));
        let index = groups
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (*key, i))
            .collect();
        Self { groups, index }
    }

    /// Number of distinct (type, property) combinations.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group for a combination, if any evidence exists.
    pub fn group(&self, key: &GroupKey) -> Option<&Group> {
        self.index.get(key).map(|&i| &self.groups[i].1)
    }

    /// Iterates over all combinations in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &Group)> {
        self.groups.iter().map(|(key, group)| (key, group))
    }

    /// Iterates over combinations whose total statement count reaches the
    /// occurrence threshold `rho` (Algorithm 1 line 5).
    pub fn above_threshold(&self, rho: u64) -> impl Iterator<Item = (&GroupKey, &Group)> {
        self.iter().filter(move |(_, g)| g.total >= rho)
    }

    /// Merges a delta's groups into this table — the grouped-table half of
    /// incremental ingestion.
    ///
    /// Both sides hold their groups sorted by `(type_id, resolved
    /// property)` (the [`from_table`](Self::from_table) order), so this is a
    /// linear two-pointer merge: each side's sort key is resolved once per
    /// group, groups present on both sides merge their per-entity
    /// counters, and the result needs no re-sort. Equivalent to grouping
    /// the concatenated evidence from scratch:
    /// `a.merge(b) == from_table(a_table ∪ b_table)` (the vendored
    /// proptest suite pins exactly that).
    pub fn merge(&mut self, delta: GroupedEvidence) {
        if delta.groups.is_empty() {
            return;
        }
        if self.groups.is_empty() {
            *self = delta;
            return;
        }
        // Resolve each key once; ids are process-local, the resolved
        // property is the deterministic sort key both sides share.
        let resolve = |groups: Vec<(GroupKey, Group)>| {
            groups
                .into_iter()
                .map(|(key, group)| ((key.type_id, key.property.resolve()), key, group))
                .collect::<Vec<_>>()
        };
        let left = resolve(std::mem::take(&mut self.groups));
        let right = resolve(delta.groups);
        let mut merged: Vec<(GroupKey, Group)> = Vec::with_capacity(left.len() + right.len());
        let mut left = left.into_iter().peekable();
        let mut right = right.into_iter().peekable();
        loop {
            let take_left = match (left.peek(), right.peek()) {
                (Some((a, ..)), Some((b, ..))) => {
                    if a == b {
                        // Same combination on both sides: fold the delta's
                        // per-entity counters into the base group.
                        let (_, key, mut group) = left.next().expect("peeked"); // lint:allow(no-panic-in-lib): peek returned Some
                        let (_, _, addition) = right.next().expect("peeked"); // lint:allow(no-panic-in-lib): peek returned Some
                        for (entity, counts) in addition.counts {
                            group.counts.entry(entity).or_default().merge(counts);
                        }
                        group.total += addition.total;
                        merged.push((key, group));
                        continue;
                    }
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (_, key, group) = if take_left {
                left.next().expect("peeked") // lint:allow(no-panic-in-lib): peek returned Some
            } else {
                right.next().expect("peeked") // lint:allow(no-panic-in-lib): peek returned Some
            };
            merged.push((key, group));
        }
        self.index = merged
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (*key, i))
            .collect();
        self.groups = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        let city = b.add_type("city", &["city"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Tiger", animal).finish();
        b.add_entity("Paris", city).finish();
        b.build()
    }

    fn stmt(entity: u32, prop: &str, polarity: Polarity) -> Statement {
        Statement::new(EntityId(entity), &Property::parse(prop).unwrap(), polarity)
    }

    #[test]
    fn counts_accumulate() {
        let mut t = EvidenceTable::new();
        t.add(&stmt(0, "cute", Polarity::Positive));
        t.add(&stmt(0, "cute", Polarity::Positive));
        t.add(&stmt(0, "cute", Polarity::Negative));
        let c = t.counts(EntityId(0), &Property::adjective("cute"));
        assert_eq!(c, EvidenceCounts::new(2, 1));
        assert_eq!(c.total(), 3);
        assert_eq!(t.total_statements(), 3);
        assert_eq!(t.pair_count(), 1);
    }

    #[test]
    fn unseen_pair_is_zero() {
        let t = EvidenceTable::new();
        assert_eq!(
            t.counts(EntityId(5), &Property::adjective("big")),
            EvidenceCounts::default()
        );
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = EvidenceTable::new();
        a.add(&stmt(0, "cute", Polarity::Positive));
        a.add(&stmt(1, "big", Polarity::Negative));
        let mut b = EvidenceTable::new();
        b.add(&stmt(0, "cute", Polarity::Negative));
        b.add(&stmt(2, "big", Polarity::Positive));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_statements(), 4);
        assert_eq!(ab.pair_count(), 3);
    }

    #[test]
    fn grouping_by_type_and_property() {
        let kb = kb();
        let mut t = EvidenceTable::new();
        t.add(&stmt(0, "cute", Polarity::Positive)); // Kitten (animal)
        t.add(&stmt(1, "cute", Polarity::Negative)); // Tiger (animal)
        t.add(&stmt(2, "big", Polarity::Positive)); // Paris (city)
        let grouped = GroupedEvidence::from_table(&t, &kb);
        assert_eq!(grouped.len(), 2);
        let animal = kb.type_by_name("animal").unwrap();
        let key = GroupKey {
            type_id: animal,
            property: surveyor_kb::PropertyId::intern(&Property::adjective("cute")),
        };
        let g = grouped.group(&key).unwrap();
        assert_eq!(g.total_statements(), 2);
        assert_eq!(g.mentioned_entities(), 2);
        assert_eq!(g.counts(EntityId(0)), EvidenceCounts::new(1, 0));
        assert_eq!(g.counts(EntityId(2)), EvidenceCounts::default());
    }

    #[test]
    fn grouped_merge_matches_from_scratch_grouping() {
        let kb = kb();
        let mut base_table = EvidenceTable::new();
        base_table.add(&stmt(0, "cute", Polarity::Positive));
        base_table.add(&stmt(1, "cute", Polarity::Negative));
        base_table.add(&stmt(2, "big", Polarity::Positive));
        let mut delta_table = EvidenceTable::new();
        delta_table.add(&stmt(0, "cute", Polarity::Positive)); // dirties animal × cute
        delta_table.add(&stmt(1, "fierce", Polarity::Positive)); // new group
        delta_table.add(&stmt(2, "big", Polarity::Negative)); // dirties city × big

        let mut merged = GroupedEvidence::from_table(&base_table, &kb);
        merged.merge(GroupedEvidence::from_table(&delta_table, &kb));

        let mut combined = base_table.clone();
        combined.merge(delta_table);
        assert_eq!(merged, GroupedEvidence::from_table(&combined, &kb));
        // The lookup index is rebuilt consistently.
        let animal = kb.type_by_name("animal").unwrap();
        let key = GroupKey {
            type_id: animal,
            property: surveyor_kb::PropertyId::intern(&Property::adjective("fierce")),
        };
        assert_eq!(merged.group(&key).unwrap().total_statements(), 1);
    }

    #[test]
    fn grouped_merge_with_empty_sides_is_identity() {
        let kb = kb();
        let mut t = EvidenceTable::new();
        t.add(&stmt(0, "cute", Polarity::Positive));
        let grouped = GroupedEvidence::from_table(&t, &kb);

        let mut left = grouped.clone();
        left.merge(GroupedEvidence::default());
        assert_eq!(left, grouped);

        let mut empty = GroupedEvidence::default();
        empty.merge(grouped.clone());
        assert_eq!(empty, grouped);
    }

    #[test]
    fn threshold_filters_groups() {
        let kb = kb();
        let mut t = EvidenceTable::new();
        for _ in 0..5 {
            t.add(&stmt(0, "cute", Polarity::Positive));
        }
        t.add(&stmt(2, "big", Polarity::Positive));
        let grouped = GroupedEvidence::from_table(&t, &kb);
        assert_eq!(grouped.above_threshold(1).count(), 2);
        assert_eq!(grouped.above_threshold(5).count(), 1);
        assert_eq!(grouped.above_threshold(6).count(), 0);
    }

    #[test]
    fn persistence_round_trip() {
        let mut t = EvidenceTable::new();
        t.add(&stmt(0, "cute", Polarity::Positive));
        t.add(&stmt(0, "cute", Polarity::Negative));
        t.add(&stmt(2, "very big", Polarity::Positive));
        let restored = EvidenceTable::from_json(&t.to_json()).unwrap();
        assert_eq!(t, restored);
        assert_eq!(restored.total_statements(), 3);
    }

    #[test]
    fn entries_are_sorted_and_stable() {
        let mut t = EvidenceTable::new();
        t.add(&stmt(2, "big", Polarity::Positive));
        t.add(&stmt(0, "cute", Polarity::Positive));
        t.add(&stmt(0, "big", Polarity::Negative));
        let entries = t.to_entries();
        assert_eq!(entries.len(), 3);
        assert!(entries
            .windows(2)
            .all(|w| { (w[0].entity, &w[0].property) <= (w[1].entity, &w[1].property) }));
        // Same table serialized twice yields identical bytes.
        assert_eq!(t.to_json(), t.to_json());
    }

    #[test]
    fn from_entries_merges_duplicates() {
        let e = |p: u64, n: u64| EvidenceEntry {
            entity: EntityId(1),
            property: Property::adjective("big"),
            positive: p,
            negative: n,
        };
        let t = EvidenceTable::from_entries(vec![e(2, 1), e(3, 0)]);
        assert_eq!(
            t.counts(EntityId(1), &Property::adjective("big")),
            EvidenceCounts::new(5, 1)
        );
        assert_eq!(t.total_statements(), 6);
    }

    #[test]
    fn adverb_properties_group_separately() {
        let kb = kb();
        let mut t = EvidenceTable::new();
        t.add(&stmt(2, "big", Polarity::Positive));
        t.add(&stmt(2, "very big", Polarity::Positive));
        let grouped = GroupedEvidence::from_table(&t, &kb);
        assert_eq!(grouped.len(), 2);
    }
}
