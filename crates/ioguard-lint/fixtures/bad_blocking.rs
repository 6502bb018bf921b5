//! Seeded lint fixture: MUST trip `blocking-in-hot-path`.
//!
//! The per-cycle stepper reaches a `thread::park` through a helper call —
//! blocking inside the hot loop stalls the whole thread for the cycle.
#![forbid(unsafe_code)]

/// Per-cycle stepper.
// lint: hot-path — per-cycle stepper
pub fn step_cycle(backlog: &mut Vec<u64>) {
    drain_backlog(backlog);
}

/// Helper that parks the thread between items.
fn drain_backlog(backlog: &mut Vec<u64>) {
    while backlog.pop().is_some() {
        std::thread::park();
    }
}
