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
use surveyor_kb::{EntityId, Property, PropertyId};

/// Default number of supporting documents retained per pair.
pub const DEFAULT_SAMPLE: usize = 5;

/// Bounded supporting-document samples per entity-property pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceTable {
    sample_size: usize,
    map: FxHashMap<(EntityId, PropertyId), Vec<u64>>,
}

impl Default for ProvenanceTable {
    fn default() -> Self {
        Self::new(DEFAULT_SAMPLE)
    }
}

impl ProvenanceTable {
    /// An empty table keeping up to `sample_size` documents per pair. A
    /// bound of 0 keeps none, and is kept as 0: a loaded snapshot that
    /// declares it re-saves as it was read.
    pub fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            map: FxHashMap::default(),
        }
    }

    /// An empty table with room for `pairs` entity-property pairs.
    pub fn with_capacity(sample_size: usize, pairs: usize) -> Self {
        Self {
            sample_size,
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
}
