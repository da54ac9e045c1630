//! The served decision index and its hot-swap machinery.
//!
//! A [`ServedState`] is one fully validated snapshot as the queryable
//! [`SubjectiveKb`] store, whose columns are filled straight from the
//! snapshot's sections ([`surveyor::load_store`]): no knowledge base, no
//! evidence table, no pipeline output in between, and a generation is a
//! dozen allocations to build and to drop. [`SharedState`] holds the
//! current one behind an epoch counter. A worker takes a [`StateCache`]
//! per request — one brief slot lock and an `Arc` clone — and drops it
//! with the request, so an idle worker pins no snapshot and a replaced
//! one is freed as soon as the last request on it finishes. Within a
//! request, `get` costs an atomic load and re-reads the slot only when
//! the epoch moved (the reload route sees its own swap that way).
//!
//! Reload is **validate-then-swap**: the replacement bytes must decode
//! (wire structure, CRC, version — the never-panic decoder) *and* pass
//! every cross-reference rule `surveyor::load_snapshot` applies (the two
//! loaders share one copy of each) before the swap happens. A corrupt
//! candidate is rejected with the old state still serving; there is no
//! window where readers can observe a broken index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use surveyor::{SnapshotError, SubjectiveKb};

/// One immutable, fully validated, queryable snapshot generation.
#[derive(Debug)]
pub struct ServedState {
    /// The materialized decision index.
    pub store: SubjectiveKb,
    /// Reload generation: 1 for the boot snapshot, +1 per accepted swap.
    pub generation: u64,
    /// Where the bytes came from (path or a descriptive label).
    pub source: String,
    /// Size of the snapshot container, in bytes.
    pub snapshot_bytes: u64,
}

impl ServedState {
    /// Validates `bytes` end to end and materializes the decision index.
    ///
    /// This is the only way to build a `ServedState`, so every state the
    /// server can ever serve has passed both the structural (wire) and
    /// semantic (cross-reference) validation layers.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        generation: u64,
        source: &str,
    ) -> Result<Self, SnapshotError> {
        Ok(Self {
            store: surveyor::load_store(bytes)?,
            generation,
            source: source.to_owned(),
            snapshot_bytes: bytes.len() as u64,
        })
    }
}

/// The shared slot all workers read and the reload path swaps.
#[derive(Debug)]
pub struct SharedState {
    epoch: AtomicU64,
    slot: Mutex<Arc<ServedState>>,
}

impl SharedState {
    /// Opens the slot on an initial state at epoch 0.
    pub fn new(initial: Arc<ServedState>) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(initial),
        }
    }

    /// The current epoch; bumped by every accepted swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current state out of the slot (locks briefly).
    #[expect(
        clippy::disallowed_methods,
        reason = "the served-state slot: one brief lock to clone the current Arc"
    )]
    pub fn load(&self) -> Arc<ServedState> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Installs `next` and bumps the epoch. In-flight requests keep the
    /// `Arc` they already cloned; the old state drops when the last one
    /// finishes.
    pub fn swap(&self, next: Arc<ServedState>) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the served-state slot: one brief lock to swap the Arc and publish the epoch"
        )]
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = next;
        // Publish under the lock so a reader that sees the new epoch is
        // guaranteed to find the new state in the slot.
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// A cached handle onto [`SharedState`], held for one request. `get` is
/// one atomic epoch read, no lock, unless a reload happened since.
#[derive(Debug)]
pub struct StateCache {
    epoch: u64,
    state: Arc<ServedState>,
}

impl StateCache {
    /// Primes the cache from the shared slot.
    pub fn new(shared: &SharedState) -> Self {
        Self {
            epoch: shared.epoch(),
            state: shared.load(),
        }
    }

    /// The current state, refreshed only when the epoch moved.
    pub fn get(&mut self, shared: &SharedState) -> &Arc<ServedState> {
        let epoch = shared.epoch();
        if epoch != self.epoch {
            self.state = shared.load();
            self.epoch = epoch;
        }
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surveyor::prelude::*;
    use surveyor::{save_snapshot, CorpusSource, Surveyor, SurveyorConfig};

    fn snapshot_bytes() -> Vec<u8> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Spider", animal).finish();
        let kb = Arc::new(b.build());
        let world = WorldBuilder::new(kb.clone(), 7)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams::default(),
            )
            .build();
        let generator = CorpusGenerator::new(world, CorpusConfig::default());
        let surveyor = Surveyor::new(
            kb,
            SurveyorConfig {
                rho: 5,
                ..Default::default()
            },
        );
        save_snapshot(&surveyor.run(&CorpusSource::new(&generator)))
    }

    #[test]
    fn builds_from_valid_bytes() {
        let bytes = snapshot_bytes();
        let state = ServedState::from_snapshot_bytes(&bytes, 1, "test").unwrap();
        assert_eq!(state.generation, 1);
        assert_eq!(state.snapshot_bytes, bytes.len() as u64);
        assert!(!state.store.is_empty());
    }

    #[test]
    fn rejects_corrupt_bytes() {
        let mut bytes = snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(ServedState::from_snapshot_bytes(&bytes, 1, "bad").is_err());
        assert!(ServedState::from_snapshot_bytes(b"junk", 1, "junk").is_err());
    }

    #[test]
    fn cache_refreshes_only_on_epoch_change() {
        let bytes = snapshot_bytes();
        let a = Arc::new(ServedState::from_snapshot_bytes(&bytes, 1, "a").unwrap());
        let shared = SharedState::new(a);
        let mut cache = StateCache::new(&shared);
        assert_eq!(cache.get(&shared).generation, 1);

        let b = Arc::new(ServedState::from_snapshot_bytes(&bytes, 2, "b").unwrap());
        shared.swap(b);
        assert_eq!(shared.epoch(), 1);
        assert_eq!(cache.get(&shared).generation, 2);
        // Stable epoch → cached Arc is reused.
        assert_eq!(cache.get(&shared).generation, 2);
    }
}
