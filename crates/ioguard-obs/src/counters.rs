//! Monotonic per-VM counter registries.
//!
//! [`VmCounters`] absorbs the hypervisor's old `metrics::VmMetrics` —
//! same fields, same meanings — so the hypervisor re-exports it instead of
//! keeping a parallel definition. [`CounterRegistry`] adds the piece that
//! makes the counters auditable: [`CounterRegistry::fold_event`] replays a
//! trace stream into counters, and the cross-check tests assert
//! `fold(trace) == live registry` after every chaos sweep.

use crate::event::{ObsEvent, ObsKind, SYSTEM_VM};

/// Monotonic per-VM counters (the hypervisor's per-VM metrics block).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VmCounters {
    /// Jobs that completed before their deadline.
    pub completed: u64,
    /// Jobs whose deadline passed before completion (or that admission
    /// refused in a way the model counts as a miss).
    pub missed: u64,
    /// Subset of `missed` that were criticality-marked.
    pub critical_missed: u64,
    /// Submissions refused by flood control.
    pub throttled_submissions: u64,
    /// Slots denied to a VM with buffered work by budget enforcement or an
    /// open throttle window.
    pub throttled_slots: u64,
    /// Watchdog-driven retries of stalled transactions.
    pub retries: u64,
    /// Best-effort jobs shed by graceful degradation.
    pub dropped_best_effort: u64,
}

impl VmCounters {
    /// True when this VM has missed no deadlines.
    pub fn no_misses(&self) -> bool {
        self.missed == 0
    }

    /// Adds another counter block into this one (element-wise, saturating).
    pub fn absorb(&mut self, other: &VmCounters) {
        self.completed = self.completed.saturating_add(other.completed);
        self.missed = self.missed.saturating_add(other.missed);
        self.critical_missed = self.critical_missed.saturating_add(other.critical_missed);
        self.throttled_submissions = self
            .throttled_submissions
            .saturating_add(other.throttled_submissions);
        self.throttled_slots = self.throttled_slots.saturating_add(other.throttled_slots);
        self.retries = self.retries.saturating_add(other.retries);
        self.dropped_best_effort = self
            .dropped_best_effort
            .saturating_add(other.dropped_best_effort);
    }
}

/// A registry of per-VM counters plus the trace-stream fold that must
/// reproduce a live registry exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterRegistry {
    per_vm: Vec<VmCounters>,
}

impl CounterRegistry {
    /// A registry for `vms` virtual machines, all counters zero.
    pub fn new(vms: usize) -> Self {
        Self {
            per_vm: vec![VmCounters::default(); vms],
        }
    }

    /// Builds a registry directly from per-VM blocks.
    pub fn from_vms(per_vm: Vec<VmCounters>) -> Self {
        Self { per_vm }
    }

    /// Number of VMs tracked.
    pub fn vms(&self) -> usize {
        self.per_vm.len()
    }

    /// One VM's counters, if in range.
    pub fn vm(&self, vm: usize) -> Option<&VmCounters> {
        self.per_vm.get(vm)
    }

    /// All per-VM blocks, VM-index order.
    pub fn per_vm(&self) -> &[VmCounters] {
        &self.per_vm
    }

    /// Totals across all VMs.
    pub fn totals(&self) -> VmCounters {
        let mut total = VmCounters::default();
        for vm in &self.per_vm {
            total.absorb(vm);
        }
        total
    }

    /// Folds one trace event into the registry.
    ///
    /// This is the *definition* of what each counter means in terms of the
    /// event stream; the cross-check tests hold the live hypervisor
    /// counters to it. Events owned by [`SYSTEM_VM`] or an out-of-range VM
    /// are ignored, as are kinds with no counter.
    pub fn fold_event(&mut self, event: &ObsEvent) {
        if event.vm == SYSTEM_VM {
            return;
        }
        let Some(vm) = self.per_vm.get_mut(event.vm as usize) else {
            return;
        };
        match event.kind {
            ObsKind::Complete => vm.completed = vm.completed.saturating_add(1),
            ObsKind::DeadlineMiss => {
                vm.missed = vm.missed.saturating_add(1);
                if event.arg != 0 {
                    vm.critical_missed = vm.critical_missed.saturating_add(1);
                }
            }
            ObsKind::ThrottledSubmission => {
                vm.throttled_submissions = vm.throttled_submissions.saturating_add(1);
            }
            ObsKind::ThrottledSlot => {
                vm.throttled_slots = vm.throttled_slots.saturating_add(1);
            }
            ObsKind::Retry => vm.retries = vm.retries.saturating_add(1),
            ObsKind::Shed => {
                vm.dropped_best_effort = vm.dropped_best_effort.saturating_add(event.arg);
            }
            _ => {}
        }
    }

    /// Folds an entire event stream into a fresh registry.
    pub fn from_events<'a, I>(vms: usize, events: I) -> Self
    where
        I: IntoIterator<Item = &'a ObsEvent>,
    {
        let mut registry = Self::new(vms);
        for event in events {
            registry.fold_event(event);
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: ObsKind, vm: u32, arg: u64) -> ObsEvent {
        ObsEvent {
            seq: 0,
            at: 0,
            kind,
            vm,
            task: 0,
            arg,
        }
    }

    #[test]
    fn fold_maps_every_counted_kind() {
        let events = [
            ev(ObsKind::Complete, 0, 4),
            ev(ObsKind::DeadlineMiss, 0, 1),
            ev(ObsKind::DeadlineMiss, 1, 0),
            ev(ObsKind::ThrottledSubmission, 1, 10),
            ev(ObsKind::ThrottledSlot, 1, 0),
            ev(ObsKind::Retry, 0, 2),
            ev(ObsKind::Shed, 2, 3),
            ev(ObsKind::ModeChange, SYSTEM_VM, 1), // ignored: system
            ev(ObsKind::Complete, 9, 0),           // ignored: out of range
            ev(ObsKind::GschedGrant, 0, 0),        // ignored: no counter
        ];
        let reg = CounterRegistry::from_events(3, events.iter());
        let vm0 = reg.vm(0).copied().unwrap_or_default();
        assert_eq!(vm0.completed, 1);
        assert_eq!(vm0.missed, 1);
        assert_eq!(vm0.critical_missed, 1);
        assert_eq!(vm0.retries, 1);
        let vm1 = reg.vm(1).copied().unwrap_or_default();
        assert_eq!(vm1.missed, 1);
        assert_eq!(vm1.critical_missed, 0);
        assert_eq!(vm1.throttled_submissions, 1);
        assert_eq!(vm1.throttled_slots, 1);
        let vm2 = reg.vm(2).copied().unwrap_or_default();
        assert_eq!(vm2.dropped_best_effort, 3);
        assert_eq!(reg.totals().completed, 1);
        assert_eq!(reg.totals().missed, 2);
    }
}
