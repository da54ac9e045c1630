//! Allocation budgets of the annotation path, counted by a global allocator
//! that tallies per thread. (The pattern matcher that reads its output has
//! its own, `crates/extract/tests/alloc_budget.rs`.)
//!
//! What an annotated sentence *owns* has to be allocated: its text, its
//! lowercase buffer, its token vector, its tree and — when it names an
//! entity — its mention list. Everything else a sentence needs while it is
//! annotated lives in the caller's [`AnnotateScratch`]. These tests hold the
//! path to exactly that, so a per-word search, a per-probe `String` or a
//! per-call `Vec` fails `cargo test` rather than a benchmark on a quiet
//! host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use surveyor_kb::{KnowledgeBase, KnowledgeBaseBuilder};
use surveyor_nlp::{
    annotate_with, tag_entities, tokenize, AnnotateScratch, AnnotatedDocument, Lexicon,
};

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
    b.add_entity("Phoenix", city).finish();
    b.add_entity("Phoenix Bird", animal)
        .alias("Phoenix")
        .finish();
    b.add_entity("Snake", animal).finish();
    b.add_entity("Poppy", animal).finish();
    let kb = b.build();
    // The name index is built on the first lookup, once per knowledge
    // base: build it here, so that no budget below pays for it.
    assert_eq!(kb.max_alias_tokens(), 2);
    kb
}

/// Ten sentences of the shapes the corpus is made of: copular, attributive,
/// embedded, negated, contracted, plural (`-s` and `-ies`), ambiguous with
/// a cue, and two that name no entity.
const FIXTURE: &str = "San Francisco is a very big city. I don't think that snakes are never \
    dangerous. Chicago isn't big! We saw the cute poppies at the weekend. Phoenix is a big city \
    downtown. I love the big Chicago, really. The weather is nice today. Are snakes dangerous? \
    SF is not a city that is cheap for tourists. People visited the parks and the cities.";

/// Allocations an annotated sentence may cost: the five things it owns.
const PER_SENTENCE: u64 = 5;
/// Allocations an annotated document may cost beyond its sentences: the
/// sentence vector.
const PER_DOCUMENT: u64 = 1;

#[test]
fn annotate_with_allocates_only_what_the_document_owns() {
    let (kb, lexicon) = (kb(), Lexicon::new());
    let mut scratch = AnnotateScratch::default();
    // A first pass sizes the scratch buffers.
    let warm = annotate_with(0, FIXTURE, &kb, &lexicon, &mut scratch);
    let (allocations, doc): (u64, AnnotatedDocument) =
        allocations_in(|| annotate_with(1, FIXTURE, &kb, &lexicon, &mut scratch));
    assert_eq!(doc.sentences, warm.sentences);
    assert_eq!(doc.sentences.len(), 10);
    assert_eq!(doc.mention_count(), 8);

    let sentences = doc.sentences.len() as u64;
    let budget = PER_DOCUMENT + PER_SENTENCE * sentences;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {sentences} sentences, budget {budget}"
    );
    // Exactly: four per sentence, a fifth for each that has a mention.
    let with_mentions = doc
        .sentences
        .iter()
        .filter(|s| !s.mentions.is_empty())
        .count() as u64;
    assert_eq!(allocations, PER_DOCUMENT + 4 * sentences + with_mentions);
}

#[test]
fn a_cold_scratch_costs_a_constant_not_a_share_of_the_text() {
    let (kb, lexicon) = (kb(), Lexicon::new());
    let cold = |text: &str| {
        allocations_in(|| annotate_with(0, text, &kb, &lexicon, &mut AnnotateScratch::default())).0
    };
    let once = cold(FIXTURE);
    let thrice = cold(&[FIXTURE, FIXTURE, FIXTURE].join(" "));
    let per_copy = PER_SENTENCE * 10;
    assert!(
        thrice <= once + 2 * per_copy + 4,
        "{once} allocations for one copy, {thrice} for three"
    );
}

#[test]
fn tagging_a_sentence_that_names_no_entity_allocates_nothing() {
    let (kb, lexicon) = (kb(), Lexicon::new());
    for sentence in [
        "The weather is nice today",
        "People visited the parks and the glasses",
        "I don't think that it is never this bad, is it",
        // Starts surface forms and completes none.
        "San Diego and the Franciscos of SFO",
    ] {
        let mut tokens = tokenize(sentence);
        lexicon.tag(&mut tokens);
        let (allocations, mentions) = allocations_in(|| tag_entities(&tokens, &kb));
        assert!(mentions.is_empty(), "{sentence}: {mentions:?}");
        assert_eq!(allocations, 0, "{sentence}");
    }
}
