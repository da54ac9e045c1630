//! Allocation budget of the pattern matcher, counted by a global allocator
//! that tallies per thread (the annotation path's budget is
//! `crates/nlp/tests/alloc_budget.rs`).
//!
//! `extract_sentence_into` owns nothing: its statements go to the caller's
//! buffer, its interned properties and deduplication cache to the caller's
//! [`ExtractContext`]. On a warm context it allocates nothing, so a
//! per-call `Vec` in a tree query fails `cargo test` rather than a
//! benchmark on a quiet host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use surveyor_extract::{extract_sentence_into, ExtractContext, PatternCounts, PatternVersion};
use surveyor_kb::{KnowledgeBase, KnowledgeBaseBuilder};
use surveyor_nlp::{annotate, Lexicon};

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

fn kb() -> KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let city = b.add_type("city", &["city", "town"], &["downtown"]);
    let animal = b.add_type("animal", &["animal"], &["zoo"]);
    b.add_entity("San Francisco", city).alias("SF").finish();
    b.add_entity("Chicago", city).finish();
    b.add_entity("Snake", animal).finish();
    b.add_entity("Poppy", animal).finish();
    b.build()
}

/// Copular, attributive, embedded, negated, contracted, plural and
/// conjoined sentences (several statements each, sorted and deduplicated
/// through the context's cache), and two that name no entity.
const FIXTURE: &str = "San Francisco is a very big city. I don't think that snakes are never \
    dangerous. Chicago isn't big! We saw the cute poppies at the weekend. I love the big \
    Chicago, really. The weather is nice today. Are snakes dangerous? SF is not a city that is \
    cheap for tourists. People visited the parks and the cities. Chicago is a big, cheap and \
    very cute city. Snakes are big and big.";

#[test]
fn extracting_on_a_warm_context_allocates_nothing() {
    let (kb, lexicon) = (kb(), Lexicon::new());
    let doc = annotate(0, FIXTURE, &kb, &lexicon);
    for version in PatternVersion::all() {
        let config = version.config();
        let mut cx = ExtractContext::new();
        let mut counts = PatternCounts::default();
        let mut statements = Vec::new();
        let mut pass = |counts: &mut PatternCounts| {
            let mut found = 0;
            for sentence in &doc.sentences {
                extract_sentence_into(sentence, &kb, &config, counts, &mut cx, &mut statements);
                found += statements.len();
            }
            found
        };
        // The first pass interns the properties and sizes the buffers.
        let warm = pass(&mut counts);
        let (allocations, found) = allocations_in(|| pass(&mut counts));
        assert!(found >= 4 && found == warm, "{version:?}: {found}");
        assert_eq!(allocations, 0, "{version:?}");
        assert_eq!(counts.skipped, 2 * 2, "{version:?}");
    }
}
