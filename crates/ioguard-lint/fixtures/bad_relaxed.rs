//! Seeded lint fixture: MUST trip `relaxed-ordering`.
//!
//! `epoch` is written by one thread and read by the others, but the store
//! is `Relaxed`: the reader's `Acquire` pairs with nothing, so a
//! cross-thread observer can see a stale epoch — exactly the silent
//! breakage the rule exists to catch.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared epoch counter.
pub struct EpochCell {
    epoch: AtomicU64,
}

impl EpochCell {
    /// Publishes a completed epoch (incorrectly: no release).
    pub fn publish(&self, value: u64) {
        self.epoch.store(value, Ordering::Relaxed);
    }

    /// Observes the epoch from a peer thread.
    pub fn observe(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}
