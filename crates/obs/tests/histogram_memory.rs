//! A histogram's memory is a constant: what it holds after ten
//! observations it holds after a million, counted by a global allocator
//! that tallies the bytes each thread has live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use surveyor_obs::{Histogram, MetricsRegistry};

thread_local! {
    /// Bytes this thread allocated and has not freed. No destructor and a
    /// constant initializer, so reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(bytes: isize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// tally that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn live() -> isize {
    LIVE.with(Cell::get)
}

#[test]
fn heap_bytes_are_the_same_after_ten_and_a_million_observations() {
    let before = live();
    let h = Histogram::new();
    // Values across the whole range, and past both ends of it.
    let value = |i: u32| f64::from(i % 1_000 + 1) * 10f64.powi(i as i32 % 17 - 9);
    for i in 0..10 {
        h.observe(value(i));
    }
    let after_ten = live() - before;
    for i in 10..1_000_000 {
        h.observe(value(i));
    }
    let summary = h.summary();
    assert_eq!(summary.count, 1_000_000);
    assert_eq!(live() - before, after_ten, "bytes after 10 and after 10^6");

    // So is a registry's: the server's two histograms cost no more after
    // a long run than after its first request.
    let registry = MetricsRegistry::new();
    registry.observe("serve.latency_seconds", 1e-4);
    let report = registry.report();
    drop(report);
    let after_one = live();
    for i in 0..100_000 {
        registry.observe("serve.latency_seconds", value(i) * 1e-6);
    }
    let report = registry.report();
    assert_eq!(report.histograms["serve.latency_seconds"].count, 100_001);
    drop(report);
    assert_eq!(live(), after_one, "registry bytes after 1 and after 10^5");
}
