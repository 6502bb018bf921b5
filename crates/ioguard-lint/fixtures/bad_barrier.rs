//! Seeded lint fixture: MUST trip `lock-across-barrier`.
//!
//! The boundary-queue guard is still live when the worker arrives at the
//! epoch barrier: a peer thread blocking on the mutex then deadlocks
//! against the barrier. Every guard must be released before the wait.
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Barrier, Mutex};

/// One region worker sharing a boundary queue and an epoch barrier.
pub struct Worker {
    boundary: Mutex<VecDeque<u64>>,
    sync: Barrier,
}

impl Worker {
    /// Drains the boundary queue, then waits for the epoch — with the
    /// guard still held.
    pub fn run_epoch(&self) -> u64 {
        let mut held = self.boundary.lock().unwrap_or_else(|e| e.into_inner());
        self.sync.wait();
        held.pop_front().unwrap_or(0)
    }
}
