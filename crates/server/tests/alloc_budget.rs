//! Allocation budgets of a request's routing and rendering, counted by a
//! global allocator that tallies per thread.
//!
//! A routed reply owns its body, and routing a lookup owns what the
//! request's words become: the path's segment list, the parsed
//! property, the entity's ranked hits. The body is written straight into
//! one buffer, not built as a tree and printed, and the worker renders the
//! reply into a buffer it keeps. These tests hold `route` and the render
//! to that, so a per-member `String`, a value tree or a `format!` in the
//! head fails `cargo test` rather than a benchmark on a quiet host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::{save_snapshot, CorpusSource, Surveyor, SurveyorConfig};
use surveyor_obs::MetricsRegistry;
use surveyor_server::{
    parse_head, route, RouteContext, ServedState, ServerMetrics, SharedState, StateCache,
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

/// A small mined world: three entities, each decided on three properties,
/// one of them adverb-graded.
fn served() -> SharedState {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    for name in ["Kitten", "Spider", "Puppy"] {
        b.add_entity(name, animal).finish();
    }
    let kb = Arc::new(b.build());
    let mut world = WorldBuilder::new(kb.clone(), 7);
    for property in [
        Property::adjective("cute"),
        Property::adjective("big"),
        Property::with_adverbs(&["very"], "small"),
    ] {
        world = world.domain("animal", property, DomainParams::default());
    }
    let generator = CorpusGenerator::new(world.build(), CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 5,
            ..Default::default()
        },
    );
    let bytes = save_snapshot(&surveyor.run(&CorpusSource::new(&generator)));
    let state = ServedState::from_snapshot_bytes(&bytes, 1, "alloc-budget").unwrap();
    SharedState::new(Arc::new(state))
}

/// Routes `head` and renders the reply into `reply`, as a worker does;
/// returns the allocations that took and the reply's status.
fn route_and_render(shared: &SharedState, head: &str, reply: &mut Vec<u8>) -> (u64, u16) {
    let request = parse_head(head.as_bytes()).unwrap();
    let metrics = ServerMetrics::new(Arc::new(MetricsRegistry::new()));
    let mut cache = StateCache::new(shared);
    allocations_in(|| {
        let outcome = route(
            &request,
            &mut RouteContext {
                shared,
                cache: &mut cache,
                metrics: &metrics,
                debug_routes: false,
            },
        );
        outcome.response.render_into(reply, true);
        outcome.response.status
    })
}

#[test]
fn a_decide_costs_its_segments_its_property_and_its_body() {
    let shared = served();
    let mut reply = Vec::new();
    let head = "GET /decide/Kitten/cute HTTP/1.1\r\nHost: h\r\n\r\n";
    let graded = "GET /decide/Kitten/very%20small HTTP/1.1\r\n\r\n";
    // The first replies size the worker's buffer.
    for warm in [head, graded] {
        assert_eq!(route_and_render(&shared, warm, &mut reply).1, 200);
    }
    // The segment list, `Property::parse`'s word list and adjective, the
    // body.
    assert_eq!(route_and_render(&shared, head, &mut reply), (4, 200));
    // An adverb adds the list of adverbs and its word.
    assert_eq!(route_and_render(&shared, graded, &mut reply), (6, 200));
    assert!(reply.ends_with(b"\n  \"type\": \"animal\"\n}"));
}

#[test]
fn an_entity_costs_its_segments_its_ranked_hits_and_its_body() {
    let shared = served();
    let mut reply = Vec::new();
    let head = "GET /entity/Spider?k=10 HTTP/1.1\r\nHost: h\r\n\r\n";
    assert_eq!(route_and_render(&shared, head, &mut reply).1, 200);
    // The segment list, the keyed hits, their views, the body.
    assert_eq!(route_and_render(&shared, head, &mut reply), (4, 200));
    let body = String::from_utf8(reply).unwrap();
    assert_eq!(body.matches("\"type\": \"animal\"").count(), 3, "{body}");
}

#[test]
fn a_reply_renders_into_a_warm_buffer_without_allocating() {
    let shared = served();
    let mut reply = Vec::new();
    let head = "GET /readyz HTTP/1.1\r\n\r\n";
    route_and_render(&shared, head, &mut reply);
    let request = parse_head(head.as_bytes()).unwrap();
    let metrics = ServerMetrics::new(Arc::new(MetricsRegistry::new()));
    let mut cache = StateCache::new(&shared);
    let outcome = route(
        &request,
        &mut RouteContext {
            shared: &shared,
            cache: &mut cache,
            metrics: &metrics,
            debug_routes: false,
        },
    );
    let (allocations, ()) = allocations_in(|| outcome.response.render_into(&mut reply, false));
    assert_eq!(allocations, 0);
    assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"));
}
