//! Statement provenance: which documents support each association.
//!
//! The paper's application "can exploit high-confidence entity-property
//! associations and offer links to supporting content on the Web as query
//! result" (§2). This module tracks, per entity-property pair, a bounded
//! sample of supporting document ids. The sample keeps the *smallest* K
//! ids, which makes merging commutative and associative — shard order
//! cannot change the result, preserving the pipeline's determinism.

use crate::evidence::Statement;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use surveyor_kb::{EntityId, Property, PropertyId};

/// Default number of supporting documents retained per pair.
pub const DEFAULT_SAMPLE: usize = 5;

/// Bounded supporting-document samples per entity-property pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceTable {
    sample_size: usize,
    #[serde(with = "entries_codec")]
    map: FxHashMap<(EntityId, PropertyId), Vec<u64>>,
}

impl Default for ProvenanceTable {
    fn default() -> Self {
        Self::new(DEFAULT_SAMPLE)
    }
}

impl ProvenanceTable {
    /// An empty table keeping up to `sample_size` documents per pair.
    pub fn new(sample_size: usize) -> Self {
        Self {
            sample_size: sample_size.max(1),
            map: FxHashMap::default(),
        }
    }

    /// An empty table with room for `pairs` entity-property pairs.
    pub fn with_capacity(sample_size: usize, pairs: usize) -> Self {
        Self {
            sample_size: sample_size.max(1),
            map: FxHashMap::with_capacity_and_hasher(pairs, Default::default()),
        }
    }

    /// Sets a pair's document sample by id, replacing what it held — how
    /// persisted rows (ascending ids, already bounded) come back without a
    /// resolved [`Property`] per row.
    pub fn insert(&mut self, entity: EntityId, property: PropertyId, documents: Vec<u64>) {
        self.map.insert((entity, property), documents);
    }

    /// Records that `document` contains a statement for the pair.
    /// Allocation-free on the key: two `u32` ids.
    pub fn record(&mut self, statement: &Statement, document: u64) {
        let ids = self
            .map
            .entry((statement.entity, statement.property))
            .or_default();
        insert_bounded(ids, document, self.sample_size);
    }

    /// Merges another table (order-independent).
    pub fn merge(&mut self, other: ProvenanceTable) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each pair's bounded sample keeps the smallest ids whatever the insertion order"
        )]
        for (key, ids) in other.map {
            let slot = self.map.entry(key).or_default();
            for id in ids {
                insert_bounded(slot, id, self.sample_size);
            }
        }
    }

    /// Supporting documents for a pair, smallest ids first (empty when the
    /// pair was never seen). Never-interned properties short-circuit.
    pub fn documents(&self, entity: EntityId, property: &Property) -> &[u64] {
        PropertyId::lookup(property)
            .map(|id| self.documents_id(entity, id))
            .unwrap_or(&[])
    }

    /// Supporting documents for an entity and an already-interned property.
    pub fn documents_id(&self, entity: EntityId, property: PropertyId) -> &[u64] {
        self.map
            .get(&(entity, property))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over all pairs and their samples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&(EntityId, PropertyId), &[u64])> {
        self.map.iter().map(|(key, ids)| (key, ids.as_slice()))
    }

    /// Number of pairs tracked.
    pub fn pair_count(&self) -> usize {
        self.map.len()
    }

    /// The configured sample bound.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The table as a portable entry list, sorted by `(entity, property)`
    /// with properties resolved to their surface form — the same shape the
    /// serde codec uses (the binary snapshot bridge works on
    /// [`iter`](Self::iter) and [`insert`](Self::insert), by id).
    pub fn to_entries(&self) -> Vec<ProvenanceEntry> {
        // Resolve ids before sorting: id values are process-local, the
        // exported order must not be.
        let mut entries: Vec<ProvenanceEntry> = self
            .map
            .iter()
            .map(|((entity, property), documents)| ProvenanceEntry {
                entity: *entity,
                property: property.resolve(),
                documents: documents.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (a.entity, &a.property).cmp(&(b.entity, &b.property)));
        entries
    }

    /// Rebuilds a table from an entry list, re-interning the properties in
    /// this process. Inverse of [`to_entries`](Self::to_entries).
    pub fn from_entries(sample_size: usize, entries: Vec<ProvenanceEntry>) -> Self {
        let mut table = Self::with_capacity(sample_size, entries.len());
        for e in entries {
            table.insert(e.entity, PropertyId::intern(&e.property), e.documents);
        }
        table
    }
}

/// One portable provenance entry: the pair plus its document sample, with
/// the property resolved so nothing process-local leaks out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceEntry {
    /// The entity.
    pub entity: EntityId,
    /// The property, resolved to its surface form.
    pub property: Property,
    /// Supporting document ids, ascending.
    pub documents: Vec<u64>,
}

/// Inserts `id` into a sorted, deduplicated, bounded id list.
fn insert_bounded(ids: &mut Vec<u64>, id: u64, bound: usize) {
    match ids.binary_search(&id) {
        Ok(_) => {}
        Err(pos) => {
            if pos < bound {
                ids.insert(pos, id);
                ids.truncate(bound);
            }
        }
    }
}

/// Serde codec: the tuple-keyed map serializes as the sorted entry list
/// of [`ProvenanceTable::to_entries`].
mod entries_codec {
    use super::*;

    type ProvenanceMap = FxHashMap<(EntityId, PropertyId), Vec<u64>>;

    pub fn to_value(map: &ProvenanceMap) -> serde::Value {
        let mut entries: Vec<ProvenanceEntry> = map
            .iter()
            .map(|((entity, property), documents)| ProvenanceEntry {
                entity: *entity,
                property: property.resolve(),
                documents: documents.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (a.entity, &a.property).cmp(&(b.entity, &b.property)));
        serde::Serialize::to_value(&entries)
    }

    pub fn from_value(value: &serde::Value) -> Result<ProvenanceMap, serde::Error> {
        let entries: Vec<ProvenanceEntry> = serde::Deserialize::from_value(value)?;
        Ok(entries
            .into_iter()
            .map(|e| ((e.entity, PropertyId::intern(&e.property)), e.documents))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Polarity;

    fn stmt(entity: u32, prop: &str) -> Statement {
        Statement::new(
            EntityId(entity),
            &Property::adjective(prop),
            Polarity::Positive,
        )
    }

    #[test]
    fn keeps_smallest_ids_up_to_bound() {
        let mut t = ProvenanceTable::new(3);
        for doc in [9, 2, 7, 1, 8, 3] {
            t.record(&stmt(0, "cute"), doc);
        }
        assert_eq!(
            t.documents(EntityId(0), &Property::adjective("cute")),
            [1, 2, 3]
        );
        assert!(t
            .documents(EntityId(1), &Property::adjective("cute"))
            .is_empty());
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut t = ProvenanceTable::new(3);
        t.record(&stmt(0, "cute"), 5);
        t.record(&stmt(0, "cute"), 5);
        assert_eq!(t.documents(EntityId(0), &Property::adjective("cute")), [5]);
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |docs: &[u64]| {
            let mut t = ProvenanceTable::new(3);
            for &d in docs {
                t.record(&stmt(0, "cute"), d);
            }
            t
        };
        let a = build(&[10, 4]);
        let b = build(&[1, 7, 12]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.documents(EntityId(0), &Property::adjective("cute")),
            [1, 4, 7]
        );
    }

    #[test]
    fn entries_round_trip_and_are_sorted() {
        let mut t = ProvenanceTable::new(2);
        t.record(&stmt(1, "big"), 9);
        t.record(&stmt(0, "cute"), 3);
        t.record(&stmt(0, "big"), 7);
        let entries = t.to_entries();
        let keys: Vec<_> = entries
            .iter()
            .map(|e| (e.entity, e.property.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let back = ProvenanceTable::from_entries(t.sample_size(), entries);
        assert_eq!(back, t);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = ProvenanceTable::new(2);
        t.record(&stmt(0, "cute"), 3);
        t.record(&stmt(1, "big"), 9);
        let json = serde_json::to_string(&t).unwrap();
        let back: ProvenanceTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
