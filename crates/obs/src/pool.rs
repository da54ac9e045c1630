//! The claim-cursor worker pool every parallel phase runs on.
//!
//! Work is `items` independent indexes. Workers claim the next index off
//! one atomic cursor (so skewed item sizes balance), fold what they
//! compute into state of their own, and hand that state back by value
//! over the join; the cursor and a stop flag are all they share. What
//! comes back is ordered by what was claimed, never by who finished
//! first: [`claim_fold`] returns worker states by lowest claimed index,
//! [`claim_map`] returns one result per index in index order, so a caller
//! that merges in the order it is given produces the same bytes at any
//! worker count.
//!
//! The pool lives in this crate because it reads the clock: every
//! [`Claimed`] carries the time its worker spent inside `step` and the
//! rest of its lifetime, which is the straggler signal the extraction
//! runner publishes as `extract.worker.*` histograms.

use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one [`claim_fold`] worker hands back.
#[derive(Debug)]
pub struct Claimed<S> {
    /// Everything the worker folded into its state.
    pub state: S,
    /// The lowest index the worker claimed (the cursor only rises, so
    /// its first claim); `None` for a worker that found nothing left.
    pub first: Option<usize>,
    /// The index at which this worker's `step` returned
    /// [`ControlFlow::Break`].
    pub broke_at: Option<usize>,
    /// Time inside `step`.
    pub work: Duration,
    /// Worker lifetime minus `work`: start-up, scheduling and cursor
    /// traffic.
    pub wait: Duration,
}

/// Folds the indexes `0..items` into per-worker states over `workers`
/// workers (clamped to `1..=items`). One worker runs on the calling
/// thread and spawns nothing; more are scoped threads the caller joins.
/// Each worker builds its state with `init`, then calls
/// `step(&mut state, index)` for every index it claims. A `step` that
/// returns `Break` stops the pool: no worker claims an index after it
/// sees the flag. States come back ordered by `first`, idle workers last.
/// `items == 0` returns empty without calling `init`.
///
/// # Panics
/// Re-raises, with its original payload, the panic of a worker that
/// panicked, after every worker has stopped.
pub fn claim_fold<S, I, F>(items: usize, workers: usize, init: I, step: F) -> Vec<Claimed<S>>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> ControlFlow<()> + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    // Relaxed on both: neither publishes data. Everything a worker
    // produced reaches the caller through the join.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let started = Instant::now();
        let mut claimed = Claimed {
            state: init(),
            first: None,
            broke_at: None,
            work: Duration::ZERO,
            wait: Duration::ZERO,
        };
        while !stop.load(Ordering::Relaxed) {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                break;
            }
            claimed.first.get_or_insert(index);
            let step_started = Instant::now();
            let flow = step(&mut claimed.state, index);
            claimed.work += step_started.elapsed();
            if flow.is_break() {
                claimed.broke_at = Some(index);
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        claimed.wait = started.elapsed().saturating_sub(claimed.work);
        claimed
    };
    // More than one worker: all of them are spawned and the caller only
    // joins. With the caller as one of two workers a ledger mine read
    // 4–7 % fewer docs/s (0 of 5 pairs better).
    let workers = workers.min(items);
    let mut all = if workers <= 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            // On a panic the scope joins the remaining workers before the
            // payload leaves it.
            spawned
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| resume_unwind(payload))
                })
                .collect()
        })
    };
    all.sort_by_key(|claimed| claimed.first.unwrap_or(usize::MAX));
    all
}

/// Maps `f` over the indexes `0..items` on the [`claim_fold`] pool and
/// returns the results in index order. Each worker builds one scratch
/// value with `init_scratch` and passes it to every call it makes.
///
/// # Panics
/// As [`claim_fold`].
pub fn claim_map<C, R, I, F>(items: usize, workers: usize, init_scratch: I, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let mut ranked: Vec<(usize, R)> = claim_fold(
        items,
        workers,
        || (init_scratch(), Vec::new()),
        |(scratch, results), index| {
            results.push((index, f(scratch, index)));
            ControlFlow::Continue(())
        },
    )
    .into_iter()
    .flat_map(|claimed| claimed.state.1)
    .collect();
    ranked.sort_unstable_by_key(|&(index, _)| index);
    ranked.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU32;
    use std::thread;

    const ITEMS: usize = 37;
    const WORKERS: [usize; 5] = [1, 2, 4, 8, ITEMS + 3];

    /// Folds every claimed index into a per-worker list.
    fn claim_lists(items: usize, workers: usize) -> Vec<Claimed<Vec<usize>>> {
        claim_fold(
            items,
            workers,
            Vec::new,
            |claimed: &mut Vec<usize>, index| {
                claimed.push(index);
                ControlFlow::Continue(())
            },
        )
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        for workers in WORKERS {
            let hits: Vec<AtomicU32> = (0..ITEMS).map(|_| AtomicU32::new(0)).collect();
            let claimed = claim_fold(
                ITEMS,
                workers,
                || (),
                |(), index| {
                    hits[index].fetch_add(1, Ordering::Relaxed);
                    ControlFlow::Continue(())
                },
            );
            assert!(claimed.len() <= workers.min(ITEMS), "{workers} workers");
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{workers} workers: {hits:?}"
            );
        }
    }

    #[test]
    fn map_equals_the_serial_map() {
        let serial: Vec<usize> = (0..ITEMS).map(|i| i * i + 1).collect();
        for workers in WORKERS {
            let mapped = claim_map(ITEMS, workers, || 1usize, |one, i| i * i + *one);
            assert_eq!(serial, mapped, "{workers} workers");
        }
    }

    #[test]
    fn states_come_back_by_first_claim() {
        for workers in WORKERS {
            let claimed = claim_lists(ITEMS, workers);
            let firsts: Vec<usize> = claimed
                .iter()
                .map(|c| c.first.unwrap_or(usize::MAX))
                .collect();
            assert!(firsts.windows(2).all(|w| w[0] <= w[1]), "{firsts:?}");
            for c in &claimed {
                assert_eq!(c.first, c.state.iter().copied().min());
                assert!(c.state.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn an_idle_worker_sorts_last() {
        // Three workers, three items; the third worker to start is held
        // in `init` until the other two have finished every item, so it
        // finds the cursor exhausted.
        let started = AtomicU32::new(0);
        let done = AtomicU32::new(0);
        let claimed = claim_fold(
            3,
            3,
            || {
                if started.fetch_add(1, Ordering::SeqCst) == 2 {
                    while done.load(Ordering::SeqCst) < 3 {
                        thread::yield_now();
                    }
                }
                Vec::new()
            },
            |state: &mut Vec<usize>, index| {
                state.push(index);
                done.fetch_add(1, Ordering::SeqCst);
                ControlFlow::Continue(())
            },
        );
        // The second worker may have come too late as well; either way
        // every claiming state precedes every idle one.
        assert_eq!(claimed.len(), 3);
        assert_eq!(claimed[0].first, Some(0));
        assert_eq!(claimed[2].first, None);
        assert!(claimed[2].state.is_empty());
    }

    #[test]
    fn break_stops_the_pool_and_names_the_index() {
        // One worker: the claims are exactly 0..=k.
        let claimed = claim_fold(ITEMS, 1, Vec::new, |state: &mut Vec<usize>, index| {
            state.push(index);
            if index == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(claimed.len(), 1);
        assert_eq!(claimed[0].broke_at, Some(5));
        assert_eq!(claimed[0].state, (0..=5).collect::<Vec<_>>());

        // Many workers, a long queue, Break on the very first index: the
        // breaking index is reported once, its worker claims nothing
        // after it, no index is claimed twice, and the queue is not
        // drained.
        const LONG: usize = 1 << 20;
        for workers in [2, 4, 8] {
            let broken = AtomicBool::new(false);
            let claimed = claim_fold(LONG, workers, Vec::new, |state: &mut Vec<usize>, index| {
                state.push(index);
                if index == 0 {
                    broken.store(true, Ordering::SeqCst);
                    return ControlFlow::Break(());
                }
                while !broken.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                ControlFlow::Continue(())
            });
            let breakers: Vec<_> = claimed.iter().filter(|c| c.broke_at.is_some()).collect();
            assert_eq!(breakers.len(), 1);
            assert_eq!(breakers[0].broke_at, Some(0));
            assert_eq!(breakers[0].state, [0]);
            let mut all: Vec<usize> = claimed.iter().flat_map(|c| c.state.clone()).collect();
            all.sort_unstable();
            assert!(
                all.windows(2).all(|w| w[0] < w[1]),
                "an index claimed twice"
            );
            assert!(all.len() < LONG, "Break did not stop the pool");
        }
    }

    #[test]
    fn no_items_spawns_nothing() {
        let inits = AtomicU32::new(0);
        let claimed = claim_fold(
            0,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _| ControlFlow::Continue(()),
        );
        assert!(claimed.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
        assert!(claim_map(0, 8, || (), |(), i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for workers in [0, 1] {
            let threads = claim_map(ITEMS, workers, || (), |(), _| thread::current().id());
            assert!(threads.iter().all(|&id| id == caller), "{workers} workers");
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        for workers in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                claim_map(
                    ITEMS,
                    workers,
                    || (),
                    |(), index| {
                        if index == 7 {
                            panic!("boom {index}");
                        }
                        index
                    },
                )
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic carries a String");
            assert!(message.contains("boom 7"), "{workers} workers: {message}");
        }
    }

    #[test]
    fn work_and_wait_account_for_the_worker_lifetime() {
        let claimed = claim_fold(
            4,
            2,
            || (),
            |(), _| {
                thread::sleep(Duration::from_millis(2));
                ControlFlow::Continue(())
            },
        );
        let work: Duration = claimed.iter().map(|c| c.work).sum();
        assert!(work >= Duration::from_millis(8), "{work:?}");
    }
}
