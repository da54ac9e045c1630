//! The observed evidence tuple `⟨C+_i, C-_i⟩`, and a group's tuples as a
//! table of distinct pairs.

use crate::decision::{decide, ModelDecision};
use crate::inference::Posterior;
use crate::params::ModelParams;
use serde::{Deserialize, Serialize};

/// Positive / negative statement counts for one entity under one
/// (type, property) combination — the only observables of the model
/// (paper §5.1, the green nodes of Figure 7).
///
/// This mirrors the extraction crate's counter type but lives here so the
/// model layer has no dependency on the NLP pipeline; the evaluation crate
/// converts between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ObservedCounts {
    /// `C+`: number of positive statements.
    pub positive: u64,
    /// `C-`: number of negative statements.
    pub negative: u64,
}

impl ObservedCounts {
    /// An explicit pair of counts.
    pub fn new(positive: u64, negative: u64) -> Self {
        Self { positive, negative }
    }

    /// Total statements.
    pub fn total(&self) -> u64 {
        self.positive + self.negative
    }

    /// The zero tuple — an entity never mentioned with the property. The
    /// model deliberately draws conclusions from this case too (§2: "at
    /// sufficiently large scale, the lack of any evidence can be evidence
    /// as well").
    pub fn zero() -> Self {
        Self::default()
    }
}

impl From<(u64, u64)> for ObservedCounts {
    fn from((positive, negative): (u64, u64)) -> Self {
        Self { positive, negative }
    }
}

/// One group's evidence as its distinct `(c+, c−)` pairs plus, per
/// entity, the slot of its pair.
///
/// An entity enters the model only through its pair, and the pairs of a
/// group repeat almost completely (a Zipf world is mostly `(0,0)`,
/// `(1,0)`, `(0,1)`), so anything that is a function of the pair — a
/// posterior, a likelihood term, a decision — is computed once per slot
/// and then read per entity, in entity order.
#[derive(Debug)]
pub struct CountTable {
    /// Distinct pairs, ascending.
    pairs: Vec<ObservedCounts>,
    /// `slots[i]` indexes entity `i`'s pair in `pairs`.
    slots: Vec<u32>,
}

impl CountTable {
    /// Sorts a group's counts (one tuple per entity) into the table.
    ///
    /// # Panics
    /// Panics on more than `u32::MAX` entities.
    pub fn new(counts: &[ObservedCounts]) -> Self {
        assert!(
            u32::try_from(counts.len()).is_ok(),
            "a group holds at most u32::MAX entities"
        );
        let mut order: Vec<(u64, u64, u32)> = counts
            .iter()
            .zip(0u32..)
            .map(|(c, i)| (c.positive, c.negative, i))
            .collect();
        order.sort_unstable();
        let mut pairs: Vec<ObservedCounts> = Vec::new();
        let mut slots = vec![0u32; counts.len()];
        for (positive, negative, entity) in order {
            let pair = ObservedCounts::new(positive, negative);
            if pairs.last() != Some(&pair) {
                pairs.push(pair);
            }
            // No truncation: pairs.len() <= counts.len() <= u32::MAX.
            slots[entity as usize] = (pairs.len() - 1) as u32;
        }
        Self { pairs, slots }
    }

    /// The table [`new`](Self::new) builds, from a group's mentioned
    /// entities alone: `mentioned` holds `(position, counts)` for each
    /// entity with a row, where `position` is its index among the group's
    /// `entities`, and every other entity takes the `(0, 0)` pair. Only
    /// the mentioned rows are sorted (in place), so a group of mostly
    /// silent entities costs its mentions plus one slot per entity.
    ///
    /// # Panics
    /// Panics on more than `u32::MAX` entities or a position at or past
    /// `entities`. Positions must be distinct.
    pub fn sparse(entities: usize, mentioned: &mut [(u32, ObservedCounts)]) -> Self {
        assert!(
            u32::try_from(entities).is_ok(),
            "a group holds at most u32::MAX entities"
        );
        mentioned.sort_unstable_by_key(|&(i, c)| (c.positive, c.negative, i));
        // Every silent entity keeps slot 0, the (0, 0) pair, which sorts
        // first and so absorbs mentioned entities whose counts are zero.
        let mut pairs: Vec<ObservedCounts> = Vec::new();
        if mentioned.len() < entities {
            pairs.push(ObservedCounts::zero());
        }
        let mut slots = vec![0u32; entities];
        for &(entity, pair) in mentioned.iter() {
            if pairs.last() != Some(&pair) {
                pairs.push(pair);
            }
            slots[entity as usize] = (pairs.len() - 1) as u32;
        }
        Self { pairs, slots }
    }

    /// Entities in the group.
    pub fn entities(&self) -> usize {
        self.slots.len()
    }

    /// Distinct `(c+, c−)` pairs among them.
    pub fn distinct_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The distinct pairs, ascending.
    pub fn pairs(&self) -> &[ObservedCounts] {
        &self.pairs
    }

    /// Per entity, in entity order, the slot of its pair in
    /// [`pairs`](Self::pairs).
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Expands one value per distinct pair into one per entity, in entity
    /// order.
    pub(crate) fn per_entity<'a, T: Copy + 'a>(
        &'a self,
        per_pair: Vec<T>,
    ) -> impl ExactSizeIterator<Item = T> + 'a {
        debug_assert_eq!(per_pair.len(), self.pairs.len());
        self.slots.iter().map(move |&s| per_pair[s as usize])
    }

    /// Algorithm 1's decision for every entity, in entity order, from one
    /// posterior per distinct pair — what `decide(posterior_positive(c,
    /// params))` gives each entity, bit for bit.
    pub fn decisions(
        &self,
        params: &ModelParams,
    ) -> impl ExactSizeIterator<Item = ModelDecision> + '_ {
        self.per_entity(self.pair_decisions(params))
    }

    /// Algorithm 1's decision for each distinct pair, in
    /// [`pairs`](Self::pairs) order: what [`decisions`](Self::decisions)
    /// hands every entity of that pair.
    pub fn pair_decisions(&self, params: &ModelParams) -> Vec<ModelDecision> {
        let posterior = Posterior::new(params);
        (self.pairs.iter())
            .map(|&c| decide(posterior.positive(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_total() {
        let c = ObservedCounts::new(60, 3);
        assert_eq!(c.total(), 63);
        assert_eq!(ObservedCounts::zero().total(), 0);
        let c: ObservedCounts = (2, 5).into();
        assert_eq!(c, ObservedCounts::new(2, 5));
    }

    #[test]
    fn table_holds_each_pair_once_and_every_entity_in_order() {
        let counts: Vec<ObservedCounts> = [(1, 0), (0, 0), (1, 0), (7, 2), (0, 0), (0, 1)]
            .into_iter()
            .map(ObservedCounts::from)
            .collect();
        let table = CountTable::new(&counts);
        assert_eq!(table.entities(), 6);
        assert_eq!(
            table.pairs(),
            &[(0, 0), (0, 1), (1, 0), (7, 2)].map(ObservedCounts::from)
        );
        let back: Vec<ObservedCounts> = table.per_entity(table.pairs().to_vec()).collect();
        assert_eq!(back, counts);
        assert_eq!(table.slots(), &[2, 0, 2, 3, 0, 1]);

        let empty = CountTable::new(&[]);
        assert_eq!((empty.entities(), empty.distinct_pairs()), (0, 0));
    }

    /// `sparse` over the mentioned entities builds what `new` builds over
    /// every entity: silent groups, fully mentioned ones, and mentions
    /// whose counts are `(0, 0)` (which must share the silent slot).
    #[test]
    fn sparse_tables_equal_dense_ones() {
        let mut state = 0x2015_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..400 {
            let entities = next(12) as usize;
            let mut counts = vec![ObservedCounts::zero(); entities];
            let mut mentioned = Vec::new();
            for (i, c) in counts.iter_mut().enumerate() {
                // Some cases mention everyone; zero counts are mentions too.
                if case % 5 == 0 || next(3) > 0 {
                    *c = ObservedCounts::new(next(3), next(3));
                    mentioned.push((i as u32, *c));
                }
            }
            let dense = CountTable::new(&counts);
            let sparse = CountTable::sparse(entities, &mut mentioned);
            assert_eq!(sparse.pairs(), dense.pairs(), "case {case}: {counts:?}");
            assert_eq!(sparse.slots(), dense.slots(), "case {case}: {counts:?}");
        }
        let empty = CountTable::sparse(0, &mut []);
        assert_eq!((empty.entities(), empty.distinct_pairs()), (0, 0));
    }
}
