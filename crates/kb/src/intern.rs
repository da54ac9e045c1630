//! Process-global property interner: [`Property`] ↔ [`PropertyId`].
//!
//! The extraction hot path emits one statement per matched pattern, and the
//! counters used to key on an owned [`Property`] — a heap clone per recorded
//! statement *and* per lookup. Interning assigns each distinct property a
//! dense `u32` id exactly once, so the hot structures key on
//! `(EntityId, PropertyId)`: two machine words, hashed in a few cycles,
//! with no allocation anywhere on the per-sentence path.
//!
//! # Contention model
//!
//! The global table is one `RwLock` over both lookup maps and the id →
//! property list: readers share it, and an insert holds the write lock
//! alone, never nesting another. Workers rarely reach it, because each
//! carries a private [`InternCache`] — an `FxHashMap` of every surface
//! (and every resolved id) it has seen. After the first few documents the
//! corpus vocabulary is fully cached and the steady-state hot path
//! (`InternCache::intern_surface` on a repeat surface) takes **zero
//! locks**: a single local hash probe, no atomics, no shared memory
//! writes. The cache counts its hits and its
//! global-table fallbacks ([`CacheStats`]) so a run report can prove the
//! steady state was actually lock-free.
//!
//! Id values are process-local and depend on discovery order — which, under
//! parallel extraction, depends on thread interleaving. They are therefore
//! never serialized and never used as a sort key where cross-run
//! determinism matters: serialization codecs resolve ids back to properties
//! and order entries by the resolved form, and deserialization re-interns.
//! Within one process the mapping is stable, so id-keyed maps compare
//! consistently.
//!
//! The table only grows (interned properties are never freed); the property
//! vocabulary of a corpus is small, so this is by design.

use crate::property::Property;
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Identifier of an interned [`Property`].
///
/// Deliberately not `Ord`: numeric values reflect discovery order, not any
/// property ordering. Resolve before sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropertyId(pub u32);

/// The global table: both lookup maps and the dense id → property list,
/// all behind one lock. An insert updates all three under a single write
/// acquisition, and no other lock is ever taken while it is held.
#[derive(Default)]
struct Table {
    by_property: FxHashMap<Property, u32>,
    /// Canonical surface form ("very big") → id: the zero-allocation entry
    /// point for surfaces assembled in a scratch buffer.
    by_surface: FxHashMap<String, u32>,
    /// Id → property; ids are indexes into it.
    properties: Vec<Property>,
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(RwLock::default)
}

fn read() -> RwLockReadGuard<'static, Table> {
    table().read().unwrap_or_else(PoisonError::into_inner)
}

/// Inserts `property`, allocating a fresh dense id unless a racing thread
/// got there first. The caller has already missed on a read probe.
fn insert(property: &Property) -> u32 {
    let mut table = table().write().unwrap_or_else(PoisonError::into_inner);
    // Re-check under the write lock: a racing thread may have inserted
    // between our read probe and here. Without this, the same property
    // could be assigned two ids.
    if let Some(&id) = table.by_property.get(property) {
        return id;
    }
    let id = u32::try_from(table.properties.len()).expect("property interner overflow"); // lint:allow(no-panic-in-lib): a corpus cannot reach 2^32 distinct properties
    table.properties.push(property.clone());
    table.by_property.insert(property.clone(), id);
    table.by_surface.insert(property.to_string(), id);
    id
}

impl PropertyId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Interns a property, returning its stable id (idempotent).
    pub fn intern(property: &Property) -> Self {
        if let Some(id) = Self::lookup(property) {
            return id;
        }
        PropertyId(insert(property))
    }

    /// The id `property` already has, if it was ever interned.
    ///
    /// Read-only queries (evidence counts, provenance, opinions) use this so
    /// probing for never-extracted properties cannot grow the table.
    pub fn lookup(property: &Property) -> Option<Self> {
        read().by_property.get(property).map(|&id| PropertyId(id))
    }

    /// Interns a canonical surface form (lowercase words separated by single
    /// spaces, e.g. `"very big"`); allocation-free when the surface was seen
    /// before. Returns `None` for a blank surface.
    pub fn intern_surface(surface: &str) -> Option<Self> {
        if let Some(&id) = read().by_surface.get(surface) {
            return Some(PropertyId(id));
        }
        let property = Property::parse(surface)?;
        Some(PropertyId(insert(&property)))
    }

    /// The property behind this id.
    ///
    /// # Panics
    /// Panics on an id that did not come from this process's interner.
    pub fn resolve(self) -> Property {
        read().properties[self.index()].clone()
    }
}

impl fmt::Display for PropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Hit/fallback tallies for one [`InternCache`]. Merged across workers and
/// flushed as `extract.intern.*` counters, these prove whether the
/// steady-state extraction path touched the global table at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the worker-local cache — zero locks taken.
    pub hits: u64,
    /// Probes that fell through to the global table.
    pub global_lookups: u64,
}

impl CacheStats {
    /// Merges another worker's tallies into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.global_lookups += other.global_lookups;
    }
}

/// A worker-local interner cache: surface → id and id → property, with no
/// locks on a hit.
///
/// Extraction workers thread one of these through the per-sentence pattern
/// matcher. The corpus vocabulary is small and heavily repeated, so after
/// warm-up every probe is a hit and the worker never touches the global
/// table — the property on the steady-state hot path costs one local hash
/// probe and nothing else.
///
/// The cache is append-consistent with the global table by construction:
/// it only stores ids the global table handed out, and the global table
/// never reassigns an id.
#[derive(Debug, Default)]
pub struct InternCache {
    by_surface: FxHashMap<String, PropertyId>,
    /// Dense id → resolved property, grown on demand.
    resolved: Vec<Option<Property>>,
    stats: CacheStats,
}

impl InternCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a canonical surface form through the cache. A repeat
    /// surface is answered locally without touching the global table;
    /// a novel one falls through to [`PropertyId::intern_surface`] and is
    /// remembered. Returns `None` for a blank surface.
    pub fn intern_surface(&mut self, surface: &str) -> Option<PropertyId> {
        if let Some(&id) = self.by_surface.get(surface) {
            self.stats.hits += 1;
            return Some(id);
        }
        let id = PropertyId::intern_surface(surface)?;
        self.stats.global_lookups += 1;
        self.by_surface.insert(surface.to_owned(), id);
        Some(id)
    }

    /// Makes `id` resolvable via [`peek`](Self::peek) without another
    /// global-table read.
    pub fn ensure_resolved(&mut self, id: PropertyId) {
        let index = id.index();
        if index >= self.resolved.len() {
            self.resolved.resize(index + 1, None);
        }
        if self.resolved[index].is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.global_lookups += 1;
            self.resolved[index] = Some(id.resolve());
        }
    }

    /// The cached property behind `id`, if [`Self::ensure_resolved`]
    /// has seen it. Immutable, so it can be used
    /// inside sort comparators.
    pub fn peek(&self, id: PropertyId) -> Option<&Property> {
        self.resolved.get(id.index()).and_then(|p| p.as_ref())
    }

    /// Resolves `id` through the cache: a global-table read the first
    /// time, local thereafter.
    pub fn resolve(&mut self, id: PropertyId) -> &Property {
        self.ensure_resolved(id);
        match &self.resolved[id.index()] {
            Some(property) => property,
            None => unreachable!("ensure_resolved fills the slot"), // lint:allow(panic-reachability): filled one line up
        }
    }

    /// The cache's hit/fallback tallies so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

// Serialized as the resolved property (ids are process-local and must never
// reach disk); deserialization re-interns. Derived codecs on id-carrying
// structs therefore keep the same JSON shapes as before interning.
impl serde::Serialize for PropertyId {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.resolve())
    }
}

impl serde::Deserialize for PropertyId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let property: Property = serde::Deserialize::from_value(v)?;
        Ok(PropertyId::intern(&property))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let p = Property::with_adverbs(&["very"], "fluffy");
        let a = PropertyId::intern(&p);
        let b = PropertyId::intern(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_round_trips() {
        let p = Property::with_adverbs(&["really", "very"], "intern-small");
        assert_eq!(PropertyId::intern(&p).resolve(), p);
    }

    #[test]
    fn distinct_properties_get_distinct_ids() {
        let a = PropertyId::intern(&Property::adjective("intern-big"));
        let b = PropertyId::intern(&Property::with_adverbs(&["very"], "intern-big"));
        assert_ne!(a, b);
    }

    #[test]
    fn surface_and_property_paths_agree() {
        let p = Property::with_adverbs(&["densely"], "intern-populated");
        let by_property = PropertyId::intern(&p);
        let by_surface = PropertyId::intern_surface("densely intern-populated").unwrap();
        assert_eq!(by_property, by_surface);
        assert_eq!(by_surface.resolve(), p);
    }

    #[test]
    fn blank_surface_is_none() {
        assert_eq!(PropertyId::intern_surface(""), None);
        assert_eq!(PropertyId::intern_surface("   "), None);
    }

    #[test]
    fn lookup_does_not_insert() {
        let novel = Property::adjective("intern-never-extracted");
        assert_eq!(PropertyId::lookup(&novel), None);
        let id = PropertyId::intern(&novel);
        assert_eq!(PropertyId::lookup(&novel), Some(id));
    }

    #[test]
    fn ids_stay_dense_across_shards() {
        // Many distinct adjectives; every id must still resolve, i.e. the
        // dense properties vec has no holes.
        for i in 0..40 {
            let p = Property::adjective(&format!("intern-dense-{i}"));
            let id = PropertyId::intern(&p);
            assert_eq!(id.resolve(), p);
        }
    }

    #[test]
    fn cache_agrees_with_global_and_counts_hits() {
        let mut cache = InternCache::new();
        let a = cache.intern_surface("very intern-cached").unwrap();
        assert_eq!(cache.stats().global_lookups, 1);
        assert_eq!(cache.stats().hits, 0);
        // Repeat probe: a pure local hit.
        let b = cache.intern_surface("very intern-cached").unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().global_lookups, 1);
        // And it agrees with the uncached path.
        assert_eq!(PropertyId::intern_surface("very intern-cached").unwrap(), a);
        assert_eq!(cache.intern_surface(" "), None);
    }

    #[test]
    fn cache_resolve_is_local_after_first_read() {
        let p = Property::adjective("intern-cache-resolve");
        let id = PropertyId::intern(&p);
        let mut cache = InternCache::new();
        assert_eq!(cache.peek(id), None);
        assert_eq!(cache.resolve(id), &p);
        let lookups = cache.stats().global_lookups;
        assert_eq!(cache.resolve(id), &p);
        assert_eq!(
            cache.stats().global_lookups,
            lookups,
            "second resolve hit the global table"
        );
        assert_eq!(cache.peek(id), Some(&p));
    }

    #[test]
    fn cache_stats_merge_sums() {
        let mut a = CacheStats {
            hits: 2,
            global_lookups: 1,
        };
        a.merge(CacheStats {
            hits: 3,
            global_lookups: 4,
        });
        assert_eq!(
            a,
            CacheStats {
                hits: 5,
                global_lookups: 5,
            }
        );
    }

    #[test]
    fn serde_goes_through_the_property() {
        use serde::{Deserialize, Serialize};
        let p = Property::with_adverbs(&["very"], "intern-serde");
        let id = PropertyId::intern(&p);
        // The value tree is the property's, not a raw number.
        assert_eq!(Serialize::to_value(&id), Serialize::to_value(&p));
        let back = PropertyId::from_value(&Serialize::to_value(&id)).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn display_form() {
        let id = PropertyId::intern(&Property::adjective("intern-display"));
        assert_eq!(id.to_string(), format!("p{}", id.0));
    }
}
