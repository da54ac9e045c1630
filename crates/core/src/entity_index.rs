//! Entity-keyed postings over a store's blocks — what lets the query
//! server answer `/decide`, `/evidence` and `/entity` by lookup.
//!
//! Three flat arrays, derived at load and never written to disk:
//!
//! ```text
//!   table     (tag, group) × 2^k   open addressing on the ASCII-folded
//!                                  name's hash, linear probing
//!   offsets   u32 × (groups + 1)   group g owns postings[offsets[g]..offsets[g+1]]
//!   postings  (block, slot) × pairs, each group in (block, slot) order
//! ```
//!
//! A *group* is a set of opinions carrying one name up to ASCII case.
//! The table stores no strings: a group's name is read off its first
//! posting (`blocks[block].opinions[slot].entity_name`), so names cost
//! one 8-byte slot per group instead of one allocation per group, and a
//! lookup folds case while hashing instead of allocating a lowered copy.
//! Two groups may share a folded name (`Kitten` and `KITTEN` under two
//! entity ids); a lookup keeps probing to the first empty slot, collects
//! every group whose name matches, and merges their postings back into
//! (block, slot) order — the order a scan over the blocks would visit.

use crate::store::CombinationBlock;
use rustc_hash::FxHasher;
use std::borrow::Cow;
use std::hash::Hasher;

/// Where one stored opinion lives: `blocks[block].opinions[slot]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Posting {
    pub(crate) block: u32,
    pub(crate) slot: u32,
}

/// One table slot: the folded name's hash tag and the group it names.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    group: u32,
}

const EMPTY: u32 = u32::MAX;

/// The entity → postings index of one block set.
#[derive(Debug, Clone)]
pub(crate) struct EntityIndex {
    table: Vec<Slot>,
    offsets: Vec<u32>,
    postings: Vec<Posting>,
}

/// Hash of `name` with ASCII letters folded to lower case, so that names
/// equal under `eq_ignore_ascii_case` hash alike.
fn folded_hash(name: &str) -> u64 {
    let mut hasher = FxHasher::default();
    for byte in name.bytes() {
        hasher.write_u8(byte.to_ascii_lowercase());
    }
    hasher.finish()
}

impl EntityIndex {
    /// Indexes `blocks`. `group_of_pair` names the group of every opinion
    /// in (block, slot) order, each below `groups`; the caller guarantees
    /// that the opinions of one group carry one name up to ASCII case
    /// (groups that share a name are fine, as are empty groups).
    pub(crate) fn build(blocks: &[CombinationBlock], group_of_pair: &[u32], groups: usize) -> Self {
        let pairs: usize = blocks.iter().map(|b| b.opinions.len()).sum();
        assert_eq!(pairs, group_of_pair.len(), "one group per stored opinion");
        // Positions are stored as u32; a store past that size (≥ 350 GB
        // of opinions) cannot have been materialized in the first place.
        assert!(
            blocks.len() < EMPTY as usize && pairs < EMPTY as usize && groups < EMPTY as usize,
            "store exceeds the entity index's u32 positions"
        );

        // Counting sort by group: sizes, prefix sums, then a scatter that
        // visits the opinions in (block, slot) order and so leaves every
        // group's postings in that order.
        let mut offsets = vec![0u32; groups + 1];
        for &group in group_of_pair {
            offsets[group as usize + 1] += 1;
        }
        for g in 0..groups {
            offsets[g + 1] += offsets[g];
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![Posting { block: 0, slot: 0 }; group_of_pair.len()];
        let mut pair_groups = group_of_pair.iter();
        for (block, b) in blocks.iter().enumerate() {
            for (slot, &group) in (0..b.opinions.len()).zip(&mut pair_groups) {
                let at = &mut cursor[group as usize];
                postings[*at as usize] = Posting {
                    block: block as u32,
                    slot: slot as u32,
                };
                *at += 1;
            }
        }

        // Name table at load factor ≤ 1/2, keyed once per group.
        let occupied = (0..groups).filter(|&g| offsets[g] < offsets[g + 1]).count();
        let bits = (occupied * 2).next_power_of_two().trailing_zeros().max(1);
        let mut index = Self {
            table: vec![
                Slot {
                    tag: 0,
                    group: EMPTY
                };
                1 << bits
            ],
            offsets,
            postings,
        };
        for group in 0..groups {
            if index.offsets[group] == index.offsets[group + 1] {
                continue;
            }
            let hash = folded_hash(index.name_of(blocks, group as u32));
            let mut at = index.home(hash);
            while index.table[at].group != EMPTY {
                at = (at + 1) & (index.table.len() - 1);
            }
            index.table[at] = Slot {
                tag: hash as u32,
                group: group as u32,
            };
        }
        index
    }

    /// Number of indexed opinions.
    pub(crate) fn len(&self) -> usize {
        self.postings.len()
    }

    /// Table position a hash starts probing at: its top bits, which a
    /// multiplicative hash mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    fn group_postings(&self, group: u32) -> &[Posting] {
        let g = group as usize;
        &self.postings[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The name a non-empty group's opinions carry, as its first one
    /// spells it.
    fn name_of<'a>(&self, blocks: &'a [CombinationBlock], group: u32) -> &'a str {
        let first = self.group_postings(group)[0];
        &blocks[first.block as usize].opinions[first.slot as usize].entity_name
    }

    /// Positions of every opinion whose entity name equals `name` up to
    /// ASCII case, in (block, slot) order. `blocks` must be the block set
    /// the index was built over.
    pub(crate) fn postings_of(
        &self,
        blocks: &[CombinationBlock],
        name: &str,
    ) -> Cow<'_, [Posting]> {
        let mut hits: Cow<'_, [Posting]> = Cow::Borrowed(&[]);
        let hash = folded_hash(name);
        let mut at = self.home(hash);
        loop {
            let Slot { tag, group } = self.table[at];
            if group == EMPTY {
                break;
            }
            if tag == hash as u32 && self.name_of(blocks, group).eq_ignore_ascii_case(name) {
                if hits.is_empty() {
                    hits = Cow::Borrowed(self.group_postings(group));
                } else {
                    hits.to_mut().extend_from_slice(self.group_postings(group));
                }
            }
            at = (at + 1) & (self.table.len() - 1);
        }
        if let Cow::Owned(merged) = &mut hits {
            merged.sort_unstable();
        }
        hits
    }
}
