//! Entity-keyed postings over a store's rows — what lets the query
//! server answer `/decide`, `/evidence` and `/entity` by lookup.
//!
//! Three flat arrays, derived whenever a store is built and never written
//! to disk:
//!
//! ```text
//!   table     (tag, group) × 2^k   open addressing on the ASCII-folded
//!                                  name's hash, linear probing
//!   offsets   u32 × (groups + 1)   group g owns postings[offsets[g]..offsets[g+1]]
//!   postings  row × pairs          each group's rows, ascending
//! ```
//!
//! A *group* is one entry of the store's name arena ([`Names`]): the
//! opinions of one entity, whose `EntityId` is the group number. The
//! table stores no strings — a slot names a group and the arena spells it
//! — and a lookup folds ASCII case while hashing instead of allocating a
//! lowered copy. Two groups may share a folded name (`Kitten` and `KITTEN` under
//! two entity ids); a lookup keeps probing to the first empty slot,
//! collects every group whose name matches, and merges their postings back
//! into ascending row order — the order a scan over the blocks would visit.

use rustc_hash::FxHasher;
use std::borrow::Cow;
use std::hash::Hasher;
use std::mem::size_of;

/// The name arena of a store: group `g` is spelled
/// `text[offsets[g]..offsets[g + 1]]`. One name per entity group, not per
/// opinion.
#[derive(Debug, Clone)]
pub(crate) struct Names {
    text: String,
    offsets: Vec<u32>,
}

impl Default for Names {
    fn default() -> Self {
        Self {
            text: String::new(),
            offsets: vec![0],
        }
    }
}

impl Names {
    /// Appends a name and returns its group.
    pub(crate) fn push(&mut self, name: &str) -> u32 {
        let group = self.len();
        self.text.push_str(name);
        // Offsets are u32: 4 GiB of distinct entity names is past what
        // the rows that would refer to them can address.
        assert!(
            self.text.len() < EMPTY as usize && group < EMPTY as usize,
            "store exceeds the name arena's u32 positions"
        );
        self.offsets.push(self.text.len() as u32);
        group as u32
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The name of `group`.
    pub(crate) fn get(&self, group: u32) -> &str {
        let g = group as usize;
        &self.text[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Gives back what the arena reserved and did not use.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.offsets.shrink_to_fit();
    }

    /// Bytes held: the capacity of both columns.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.text.capacity() + self.offsets.capacity() * size_of::<u32>()
    }
}

/// One table slot: the folded name's hash tag and the group it names.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    group: u32,
}

const EMPTY: u32 = u32::MAX;

/// The entity → rows index of one store.
#[derive(Debug, Clone)]
pub(crate) struct EntityIndex {
    table: Vec<Slot>,
    offsets: Vec<u32>,
    postings: Vec<u32>,
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
    /// Indexes a store's rows. `group_of_row` names the group of every
    /// row in row order, each a group of `names`; groups that share a
    /// name are fine, as are groups without a row.
    pub(crate) fn build(names: &Names, group_of_row: impl Iterator<Item = u32> + Clone) -> Self {
        let groups = names.len();
        // Counting sort by group: sizes, prefix sums, then a scatter that
        // visits the rows in order and so leaves every group's postings
        // ascending.
        let mut offsets = vec![0u32; groups + 1];
        let mut rows = 0usize;
        for group in group_of_row.clone() {
            offsets[group as usize + 1] += 1;
            rows += 1;
        }
        // Positions are stored as u32; a store past that size (≥ 128 GB
        // of rows) cannot have been materialized in the first place.
        assert!(
            rows < EMPTY as usize,
            "store exceeds the entity index's u32 positions"
        );
        for g in 0..groups {
            offsets[g + 1] += offsets[g];
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; rows];
        for (row, group) in group_of_row.enumerate() {
            let at = &mut cursor[group as usize];
            postings[*at as usize] = row as u32;
            *at += 1;
        }
        drop(cursor);

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
            let hash = folded_hash(names.get(group as u32));
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

    /// Number of indexed rows.
    pub(crate) fn len(&self) -> usize {
        self.postings.len()
    }

    /// Bytes held: the capacity of the three arrays.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.table.capacity() * size_of::<Slot>()
            + (self.offsets.capacity() + self.postings.capacity()) * size_of::<u32>()
    }

    /// Table position a hash starts probing at: its top bits, which a
    /// multiplicative hash mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    fn group_postings(&self, group: u32) -> &[u32] {
        let g = group as usize;
        &self.postings[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Rows of every opinion whose entity name equals `name` up to ASCII
    /// case, ascending. `names` must be the arena the index was built
    /// over.
    pub(crate) fn postings_of(&self, names: &Names, name: &str) -> Cow<'_, [u32]> {
        let mut hits: Cow<'_, [u32]> = Cow::Borrowed(&[]);
        let hash = folded_hash(name);
        let mut at = self.home(hash);
        loop {
            let Slot { tag, group } = self.table[at];
            if group == EMPTY {
                break;
            }
            if tag == hash as u32 && names.get(group).eq_ignore_ascii_case(name) {
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
