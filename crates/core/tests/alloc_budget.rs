//! Allocation budgets of an update's snapshot round trip, counted by a
//! global allocator that tallies per thread (the extraction path's budgets
//! are `crates/extract/tests/alloc_budget.rs` and
//! `crates/nlp/tests/alloc_budget.rs`).
//!
//! A save writes bytes from the mined output itself: it builds the
//! property table and the sorted row lists, and copies no entity name, no
//! attribute map and no document list — so its allocations do not grow
//! with entities or provenance rows. A load builds the knowledge base,
//! the tables and the decisions, and no name index: that is built on the
//! first name lookup, which an update never makes. Both budgets are taken
//! on two long-tail worlds that differ only in entities per type, so the
//! property vocabulary is the same and every difference is per entity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::wire::IncrementalState;
use surveyor::{load_snapshot_with_state, save_snapshot_with_state, snapshot_output};
use surveyor_corpus::presets;

thread_local! {
    /// Allocations and reallocations made by this thread. No destructor and
    /// a constant initializer, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter increment that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `work` and returns how many times this thread allocated meanwhile.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// A long-tail world of eight types, mined; only the entity count varies.
fn mine(entities_per_type: usize) -> SurveyorOutput {
    let world = presets::long_tail_world(8, entities_per_type, 4, 11);
    let kb = Arc::clone(world.kb());
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: 4,
            ..CorpusConfig::default()
        },
    );
    let config = SurveyorConfig {
        rho: 25,
        threads: 2,
        ..SurveyorConfig::default()
    };
    Surveyor::new(kb, config).run(&CorpusSource::new(&generator))
}

fn state() -> IncrementalState {
    IncrementalState {
        rho: 25,
        ingested: vec![(0, 4)],
        ..IncrementalState::default()
    }
}

/// Allocations of a save and of a load of its bytes.
fn round_trip(output: &SurveyorOutput) -> (u64, u64) {
    let (save, bytes) = allocations_in(|| save_snapshot_with_state(output, &state()));
    let (load, loaded) = allocations_in(|| load_snapshot_with_state(&bytes).unwrap());
    assert_eq!(loaded.1, Some(state()));
    (save, load)
}

#[test]
fn a_save_allocates_per_property_not_per_entity_or_document() {
    let (small, big) = (mine(40), mine(160));
    let (small_export, big_export) = (snapshot_output(&small), snapshot_output(&big));
    // Four times the entities, several times the rows, the same
    // properties.
    assert_eq!(big.kb().len(), 4 * small.kb().len());
    assert!(big_export.rows.len() >= 2 * small_export.rows.len());
    let properties = big_export.properties.len() as u64;
    assert_eq!(properties, small_export.properties.len() as u64);

    let ((small_save, _), (big_save, _)) = (round_trip(&small), round_trip(&big));
    assert!(
        big_save <= small_save + properties,
        "save: {small_save} allocations at {} entities, {big_save} at {}",
        small.kb().len(),
        big.kb().len()
    );
}

#[test]
fn a_load_builds_no_name_index() {
    // Measured at 1.8 allocations per added entity (its name, its share
    // of the provenance lists, the tables' growth); an eager name index
    // adds at least two per surface form.
    const PER_ENTITY: u64 = 2;
    let (small, big) = (mine(40), mine(160));
    let ((_, small_load), (_, big_load)) = (round_trip(&small), round_trip(&big));
    let added = (big.kb().len() - small.kb().len()) as u64;
    assert!(
        big_load - small_load <= PER_ENTITY * added,
        "load: {small_load} allocations at {} entities, {big_load} at {}",
        small.kb().len(),
        big.kb().len()
    );
}
