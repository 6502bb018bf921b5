//! The per-VM I/O pool: random-access priority queue + L-Sched + shadow
//! register.
//!
//! Unlike a conventional FIFO, the pool's queue supports *random access*:
//! each buffered I/O task carries an additional register-backed slot with
//! its scheduling parameters, readable and writable by the schedulers in a
//! timely manner (Sec. III-A). The L-Sched continuously selects the
//! earliest-deadline task and maps its next operation to the shadow
//! register, where the G-Sched can see it.
//!
//! The shadow register is maintained *incrementally*, mirroring the RTL:
//! the hardware updates the earliest-deadline register on every insert and
//! remove rather than re-scanning the queue each cycle. Here that means a
//! cached min index — [`IoPool::shadow`] is O(1), [`IoPool::insert`] is
//! O(1), and a linear repair runs only when the minimum itself leaves the
//! queue (completion or expiry). Because the shadow key is ordered by
//! deadline first, [`IoPool::expire`] pops expired entries straight off the
//! shadow register and is O(1) per call when nothing has expired — the
//! common case when a submission frees its pool's expired slots first.

// lint: allow(indexing, file) — every index into `entries` is `shadow_idx`,
// which the incremental-update invariant keeps inside `0..entries.len()`
// whenever it is `Some` (it is cleared or repaired on every removal).

use crate::error::HvError;

/// Sentinel for [`PoolEntry::first_dispatch`]: the task has not received a
/// device slot yet.
pub const NEVER_DISPATCHED: u64 = u64::MAX;

/// One buffered run-time I/O task inside a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEntry {
    /// Caller-assigned task identifier (unique within the VM).
    pub task_id: u64,
    /// Absolute deadline, in slots (exclusive).
    pub deadline: u64,
    /// Remaining execution slots.
    pub remaining: u64,
    /// Slot at which the task entered the pool.
    pub enqueued_at: u64,
    /// Slot of the task's first device slot ([`NEVER_DISPATCHED`] until the
    /// executor calls [`IoPool::note_dispatch`]) — the observability
    /// layer's submit→dispatch / dispatch→response split point.
    pub first_dispatch: u64,
    /// Response payload bytes to emit on completion.
    pub response_bytes: u32,
    /// True when a deadline miss of this task fails the trial (safety and
    /// function tasks; synthetic filler is best-effort).
    pub critical: bool,
}

/// The I/O pool of one VM.
///
/// # Example
///
/// ```
/// use ioguard_hypervisor::pool::{IoPool, PoolEntry};
///
/// let mut pool = IoPool::new(4);
/// pool.insert(PoolEntry { task_id: 1, deadline: 50, remaining: 2, enqueued_at: 0, first_dispatch: u64::MAX, response_bytes: 64, critical: true }).expect("space");
/// pool.insert(PoolEntry { task_id: 2, deadline: 10, remaining: 1, enqueued_at: 0, first_dispatch: u64::MAX, response_bytes: 64, critical: true }).expect("space");
/// // The L-Sched surfaces the earliest deadline in the shadow register.
/// assert_eq!(pool.shadow().expect("non-empty").task_id, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoPool {
    entries: Vec<PoolEntry>,
    capacity: usize,
    /// Index of the current shadow-register entry (the `(deadline,
    /// task_id)`-minimum), kept up to date by every mutating operation.
    /// `None` iff the pool is empty.
    shadow_idx: Option<usize>,
}

/// The shadow-register ordering key: earliest deadline, ties by task id.
#[inline]
fn shadow_key(e: &PoolEntry) -> (u64, u64) {
    (e.deadline, e.task_id)
}

impl IoPool {
    /// Creates a pool with the given hardware queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            shadow_idx: None,
        }
    }

    /// Buffered task count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hardware capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a task. Returns `Err(entry)` when the pool is full (the
    /// caller decides whether that is a drop or a miss).
    pub fn insert(&mut self, entry: PoolEntry) -> Result<(), PoolEntry> {
        if self.entries.len() == self.capacity {
            return Err(entry);
        }
        // Incremental shadow update: the new entry takes the register only
        // if it beats the current minimum.
        match self.shadow_idx {
            Some(i) if shadow_key(&self.entries[i]) <= shadow_key(&entry) => {}
            _ => self.shadow_idx = Some(self.entries.len()),
        }
        self.entries.push(entry);
        Ok(())
    }

    /// The L-Sched output: the entry with the earliest deadline (ties by
    /// task id), i.e. the contents of the shadow register. O(1): the
    /// register is maintained incrementally.
    pub fn shadow(&self) -> Option<PoolEntry> {
        self.shadow_idx.map(|i| self.entries[i])
    }

    /// The shadow register's ordering key `(deadline, task_id)`, without
    /// copying the entry. O(1).
    pub fn shadow_key(&self) -> Option<(u64, u64)> {
        self.shadow_idx.map(|i| shadow_key(&self.entries[i]))
    }

    /// Removes the entry at `idx` (the current shadow index) and recomputes
    /// the register. The linear repair runs only here — when the minimum
    /// leaves the queue.
    fn remove_at(&mut self, idx: usize) -> PoolEntry {
        let removed = self.entries.swap_remove(idx);
        self.shadow_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| shadow_key(e))
            .map(|(i, _)| i);
        removed
    }

    /// Stamps the shadow entry's [`PoolEntry::first_dispatch`] with `now`
    /// if it has not been dispatched before. Called by the executor when it
    /// hands the entry its first device slot; a no-op on an empty pool and
    /// on already-dispatched entries, and invisible to scheduling (nothing
    /// orders on the stamp).
    pub fn note_dispatch(&mut self, now: u64) {
        if let Some(idx) = self.shadow_idx {
            let entry = &mut self.entries[idx];
            if entry.first_dispatch == NEVER_DISPATCHED {
                entry.first_dispatch = now;
            }
        }
    }

    /// Executes `slots` slots of the shadow entry (called by the executor
    /// when the G-Sched grants this pool a slot, or a run of slots with no
    /// other grant between them). Returns `Ok(Some(entry))` if the task
    /// *completed* within them (removing it from the queue) and `Ok(None)`
    /// if it still has work left. An entry with no work left completes in
    /// its one slot.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyPool`] when the pool has no shadow entry —
    /// a correct G-Sched only grants pools with a valid shadow register, so
    /// hitting this indicates a scheduler bug, which the caller can surface
    /// without bringing down the whole hypervisor model.
    pub fn execute_slots(&mut self, slots: u64) -> Result<Option<PoolEntry>, HvError> {
        let Some(idx) = self.shadow_idx else {
            return Err(HvError::EmptyPool);
        };
        self.entries[idx].remaining = self.entries[idx].remaining.saturating_sub(slots);
        if self.entries[idx].remaining == 0 {
            Ok(Some(self.remove_at(idx)))
        } else {
            Ok(None)
        }
    }

    /// Removes and returns every entry whose deadline is `≤ now` with work
    /// remaining (deadline misses), earliest deadline first.
    ///
    /// Because the shadow key orders by deadline first, the expired set is
    /// exactly the run of successive shadow entries with `deadline ≤ now` —
    /// so the sweep pops the register instead of scanning the queue, and
    /// costs O(1) when nothing has expired.
    pub fn expire(&mut self, now: u64) -> Vec<PoolEntry> {
        let mut missed = Vec::new();
        while let Some(i) = self.shadow_idx {
            if self.entries[i].deadline > now {
                break;
            }
            missed.push(self.remove_at(i));
        }
        missed
    }

    /// Iterates over buffered entries (order unspecified — the queue is
    /// random-access, not FIFO).
    pub fn iter(&self) -> std::slice::Iter<'_, PoolEntry> {
        self.entries.iter()
    }

    /// Removes and returns every buffered entry in shadow order (earliest
    /// deadline first, ties by task id), leaving the pool empty with its
    /// shadow register cleared. The reconfiguration drain uses this to
    /// carry in-flight work across a config switch exactly once; the
    /// deterministic order makes the carried-entry sequence reproducible.
    pub fn drain_all(&mut self) -> Vec<PoolEntry> {
        let mut drained = self.entries.split_off(0);
        drained.sort_unstable_by_key(shadow_key);
        self.shadow_idx = None;
        drained
    }

    /// Removes and returns every non-critical entry (graceful degradation
    /// sheds best-effort work first). The shadow register is repaired once
    /// at the end; critical entries keep their relative state.
    pub fn shed_best_effort(&mut self) -> Vec<PoolEntry> {
        let mut shed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].critical {
                i += 1;
            } else {
                shed.push(self.entries.swap_remove(i));
            }
        }
        self.shadow_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| shadow_key(e))
            .map(|(i, _)| i);
        shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(task_id: u64, deadline: u64, remaining: u64) -> PoolEntry {
        PoolEntry {
            task_id,
            deadline,
            remaining,
            enqueued_at: 0,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes: 64,
            critical: true,
        }
    }

    #[test]
    fn note_dispatch_stamps_only_once() {
        let mut p = IoPool::new(4);
        p.note_dispatch(5); // empty pool: no-op
        p.insert(entry(1, 100, 2)).unwrap();
        assert_eq!(p.shadow().unwrap().first_dispatch, NEVER_DISPATCHED);
        p.note_dispatch(3);
        assert_eq!(p.shadow().unwrap().first_dispatch, 3);
        p.note_dispatch(7); // already stamped: unchanged
        assert_eq!(p.shadow().unwrap().first_dispatch, 3);
        // A tighter entry takes the register and gets its own stamp.
        p.insert(entry(2, 10, 1)).unwrap();
        p.note_dispatch(9);
        assert_eq!(p.shadow().unwrap().task_id, 2);
        assert_eq!(p.shadow().unwrap().first_dispatch, 9);
    }

    #[test]
    fn shadow_tracks_earliest_deadline() {
        let mut p = IoPool::new(8);
        assert_eq!(p.shadow(), None);
        p.insert(entry(1, 100, 2)).unwrap();
        assert_eq!(p.shadow().unwrap().task_id, 1);
        p.insert(entry(2, 50, 2)).unwrap();
        assert_eq!(p.shadow().unwrap().task_id, 2);
        p.insert(entry(3, 75, 2)).unwrap();
        assert_eq!(p.shadow().unwrap().task_id, 2);
    }

    #[test]
    fn shadow_ties_break_by_task_id() {
        let mut p = IoPool::new(4);
        p.insert(entry(9, 10, 1)).unwrap();
        p.insert(entry(3, 10, 1)).unwrap();
        assert_eq!(p.shadow().unwrap().task_id, 3);
    }

    #[test]
    fn execute_slot_decrements_and_completes() {
        let mut p = IoPool::new(4);
        p.insert(entry(1, 100, 2)).unwrap();
        assert_eq!(p.execute_slots(1), Ok(None)); // 1 slot left
        let done = p.execute_slots(1).unwrap().expect("completes");
        assert_eq!(done.task_id, 1);
        assert!(p.is_empty());
        // A run of slots takes the same work off at once.
        p.insert(entry(2, 100, 5)).unwrap();
        assert_eq!(p.execute_slots(3), Ok(None));
        assert_eq!(p.shadow().unwrap().remaining, 2);
        assert_eq!(p.execute_slots(2).unwrap().map(|e| e.task_id), Some(2));
        // No work left: one slot completes it.
        p.insert(entry(3, 100, 0)).unwrap();
        assert_eq!(p.execute_slots(1).unwrap().map(|e| e.task_id), Some(3));
    }

    #[test]
    fn execute_slot_preempts_between_tasks() {
        // Random access: a later-arriving tighter task takes the next slot —
        // the preemption FIFOs cannot do.
        let mut p = IoPool::new(4);
        p.insert(entry(1, 100, 3)).unwrap();
        assert_eq!(p.execute_slots(1), Ok(None)); // task 1 partially done
        p.insert(entry(2, 10, 1)).unwrap();
        let done = p.execute_slots(1).unwrap().expect("task 2 completes first");
        assert_eq!(done.task_id, 2);
        // Task 1 resumes with its remaining budget intact.
        assert_eq!(p.shadow().unwrap().remaining, 2);
    }

    #[test]
    fn execute_on_empty_pool_is_a_typed_error() {
        // Previously a panic; now the scheduler bug surfaces as a value.
        let mut p = IoPool::new(2);
        assert_eq!(p.execute_slots(1), Err(HvError::EmptyPool));
        // The pool stays usable after the error.
        p.insert(entry(1, 5, 1)).unwrap();
        assert_eq!(p.execute_slots(1).unwrap().map(|e| e.task_id), Some(1));
    }

    #[test]
    fn capacity_overflow_rejected() {
        let mut p = IoPool::new(2);
        p.insert(entry(1, 10, 1)).unwrap();
        p.insert(entry(2, 20, 1)).unwrap();
        let spilled = p.insert(entry(3, 30, 1)).unwrap_err();
        assert_eq!(spilled.task_id, 3);
        assert_eq!(p.len(), 2);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn expire_removes_only_late_entries() {
        let mut p = IoPool::new(8);
        p.insert(entry(1, 10, 1)).unwrap();
        p.insert(entry(2, 20, 1)).unwrap();
        p.insert(entry(3, 30, 1)).unwrap();
        let missed = p.expire(20);
        let mut ids: Vec<u64> = missed.iter().map(|e| e.task_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.shadow().unwrap().task_id, 3);
    }

    #[test]
    fn expire_on_empty_is_noop() {
        let mut p = IoPool::new(2);
        assert!(p.expire(100).is_empty());
    }

    #[test]
    fn iter_exposes_entries() {
        let mut p = IoPool::new(4);
        p.insert(entry(1, 10, 1)).unwrap();
        p.insert(entry(2, 20, 2)).unwrap();
        let ids: Vec<u64> = p.iter().map(|e| e.task_id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&1) && ids.contains(&2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = IoPool::new(0);
    }

    #[test]
    fn drain_all_empties_in_shadow_order() {
        let mut p = IoPool::new(8);
        p.insert(entry(5, 30, 1)).unwrap();
        p.insert(entry(1, 10, 2)).unwrap();
        p.insert(entry(9, 10, 1)).unwrap(); // same deadline as 1, higher id
        let drained = p.drain_all();
        let ids: Vec<u64> = drained.iter().map(|e| e.task_id).collect();
        assert_eq!(ids, vec![1, 9, 5]);
        assert!(p.is_empty());
        assert_eq!(p.shadow(), None);
        // The pool stays usable after a drain.
        p.insert(entry(2, 4, 1)).unwrap();
        assert_eq!(p.shadow().unwrap().task_id, 2);
    }

    #[test]
    fn shed_best_effort_keeps_critical_and_repairs_shadow() {
        let mut p = IoPool::new(8);
        p.insert(entry(1, 10, 1)).unwrap(); // critical
        p.insert(PoolEntry {
            critical: false,
            ..entry(2, 5, 1)
        })
        .unwrap();
        p.insert(PoolEntry {
            critical: false,
            ..entry(3, 7, 1)
        })
        .unwrap();
        p.insert(entry(4, 20, 1)).unwrap(); // critical
                                            // Best-effort task 2 currently owns the shadow register.
        assert_eq!(p.shadow().unwrap().task_id, 2);
        let shed = p.shed_best_effort();
        let mut ids: Vec<u64> = shed.iter().map(|e| e.task_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.shadow().unwrap().task_id, 1, "shadow repaired");
        assert!(p.shed_best_effort().is_empty(), "idempotent");
    }
}
