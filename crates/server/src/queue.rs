//! The bounded accept→worker queue: the load-shedding boundary.
//!
//! Accepted connections are handed to workers through a fixed-capacity
//! queue. When it is full the accept path does **not** block and does
//! **not** buffer — it sheds the connection with an immediate `503` +
//! `Retry-After`. Overload therefore costs the server a bounded amount
//! of memory (capacity × connection handle) no matter how hard clients
//! push, which is the entire point: an overwhelmed server that answers
//! "come back later" fast stays available; one that queues without bound
//! dies of memory pressure serving nobody.
//!
//! Built on `std::sync::{Mutex, Condvar}`, like every lock in the
//! workspace. Lock poisoning is survived, not unwrapped: a panicking
//! worker already has `catch_unwind` isolation above it, and the queue's
//! state (a `VecDeque` plus a flag) is valid after any partial operation,
//! so the one acquisition, `lock`, goes through
//! `unwrap_or_else(PoisonError::into_inner)`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the item.
    Full(T),
    /// The queue is closed (shutdown in progress) — refuse the item.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the refused item.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(item) | Self::Closed(item) => item,
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in [`BoundedQueue::pop`]; each claims one item.
    waiting: usize,
}

/// A fixed-capacity multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                waiting: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The state, locked; poisoning is survived (module docs).
    #[expect(
        clippy::disallowed_methods,
        reason = "the request queue's one mutex, between the accept loop and the request workers, off the mining path"
    )]
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items that no blocked consumer is about to take: above 0, an item
    /// waits for a consumer that is busy elsewhere.
    pub fn unclaimed(&self) -> usize {
        let inner = self.lock();
        inner.items.len().saturating_sub(inner.waiting)
    }

    /// Non-blocking push. `Err(Full)` at capacity (the shed signal),
    /// `Err(Closed)` once [`Self::close`] has been called.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop. Waits for an item; returns `None` only when the
    /// queue is closed **and** drained — workers use that as their
    /// exit signal, so shutdown completes in-flight work first.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.waiting += 1;
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting -= 1;
        }
    }

    /// Closes the queue: future pushes fail, queued items still drain,
    /// and every blocked consumer wakes.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_sheds() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one slot re-admits.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        // The queued item still comes out; then the exit signal.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn an_item_is_unclaimed_until_a_blocked_consumer_counts_for_it() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        assert_eq!(q.unclaimed(), 1);
        assert_eq!(q.pop(), Some(1));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        while q.lock().waiting == 0 {
            std::thread::yield_now();
        }
        // The blocked consumer claims the next item before it wakes.
        q.try_push(2).unwrap();
        assert_eq!(q.unclaimed(), 0);
        assert_eq!(consumer.join().unwrap(), Some(2));
        q.try_push(3).unwrap();
        q.try_push(4).unwrap();
        assert_eq!(q.unclaimed(), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
        assert!(!q.is_empty());
    }
}
