//! Hypervisor-side observability state: the trace sink plus the latency
//! histograms the device maintains while it runs.
//!
//! [`HvObs`] is attached to a hypervisor with
//! [`Hypervisor::attach_obs`](crate::hypervisor::Hypervisor::attach_obs)
//! and is deliberately *optional*: the default device carries `None`. An
//! attached observer consumes the hypervisor's event stream
//! ([`HvObs::observe`]) and only renders it — nothing the device decides
//! depends on whether anyone is watching.
//!
//! The histograms split response latency at the dispatch edge — the point
//! where a buffered job first receives a device slot
//! ([`crate::pool::PoolEntry::first_dispatch`]):
//!
//! * **submit→dispatch** — queueing delay inside the I/O pool (scheduler
//!   pressure, throttling, backoff).
//! * **dispatch→response** — execution time on the device once granted
//!   (WCET plus preemptions by the P-channel and tighter deadlines).
//! * **end-to-end** — the sum, kept per VM and per criticality class so
//!   the isolation claim ("a faulty VM may degrade only its own tail")
//!   is checkable from the histograms alone.

use ioguard_obs::{Histogram, ObsKind, TraceSink, SYSTEM_VM};

use crate::event::{HvEvent, RefuseReason};
use crate::pool::PoolEntry;

/// Observability state owned by a hypervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HvObs {
    /// Bounded structured event stream (drop-oldest on overflow).
    pub sink: TraceSink,
    /// Queueing delay: submission slot → first device slot.
    pub submit_to_dispatch: Histogram,
    /// Service time: first device slot → response emission.
    pub dispatch_to_response: Histogram,
    /// End-to-end response latency, one histogram per VM.
    pub e2e_per_vm: Vec<Histogram>,
    /// End-to-end latency of critical jobs across all VMs.
    pub e2e_critical: Histogram,
    /// End-to-end latency of best-effort jobs across all VMs.
    pub e2e_best_effort: Histogram,
}

impl HvObs {
    /// Observability state with a sink of `capacity` events and one
    /// end-to-end histogram per VM.
    pub fn new(capacity: usize, vms: usize) -> Self {
        Self {
            sink: TraceSink::new(capacity),
            submit_to_dispatch: Histogram::new(),
            dispatch_to_response: Histogram::new(),
            e2e_per_vm: vec![Histogram::new(); vms],
            e2e_critical: Histogram::new(),
            e2e_best_effort: Histogram::new(),
        }
    }

    /// Renders one hypervisor event at slot `at` into the sink (the
    /// [`ObsKind`] vocabulary of the trace format) and, for a completion,
    /// into the latency histograms.
    pub fn observe(&mut self, at: u64, event: &HvEvent) {
        let miss = |job: PoolEntry| (ObsKind::DeadlineMiss, u64::from(job.critical));
        let ((kind, arg), vm, task) = match *event {
            HvEvent::Admitted { vm, job } => ((ObsKind::Admit, job.remaining), vm, job.task_id),
            HvEvent::Refused { vm, job, reason } => {
                let rendered = match reason {
                    RefuseReason::Throttled { until } => (ObsKind::ThrottledSubmission, until),
                    RefuseReason::Degraded if !job.critical => (ObsKind::Shed, 1),
                    RefuseReason::Degraded | RefuseReason::PoolFull => miss(job),
                };
                (rendered, vm, job.task_id)
            }
            HvEvent::ThrottleTrip { vm, until } => ((ObsKind::Throttle, until), vm, 0),
            HvEvent::Missed { vm, job } => (miss(job), vm, job.task_id),
            HvEvent::Shed { vm, job } => ((ObsKind::Shed, 1), vm, job.task_id),
            HvEvent::Completed { vm, job, finish } => {
                let e2e = finish.saturating_sub(job.enqueued_at);
                self.submit_to_dispatch
                    .record(job.first_dispatch.saturating_sub(job.enqueued_at));
                self.dispatch_to_response
                    .record(finish.saturating_sub(job.first_dispatch));
                if let Some(h) = self.e2e_per_vm.get_mut(vm) {
                    h.record(e2e);
                }
                if job.critical {
                    self.e2e_critical.record(e2e);
                } else {
                    self.e2e_best_effort.record(e2e);
                }
                ((ObsKind::Complete, e2e), vm, job.task_id)
            }
            HvEvent::Dispatch { vm, task_id } => ((ObsKind::Dispatch, 0), vm, task_id),
            HvEvent::Preempt { vm, task_id } => ((ObsKind::Preempt, 0), vm, task_id),
            HvEvent::ThrottledSlot { vm } => ((ObsKind::ThrottledSlot, 0), vm, 0),
            HvEvent::Retry { vm, attempt } => ((ObsKind::Retry, u64::from(attempt)), vm, 0),
            HvEvent::Grant {
                vm,
                task_id,
                remaining,
            } => ((ObsKind::GschedGrant, remaining), vm, task_id),
            HvEvent::Fault => return self.sink.record(at, ObsKind::Fault, SYSTEM_VM, 0, 0),
            HvEvent::Recovery => return self.sink.record(at, ObsKind::Recovery, SYSTEM_VM, 0, 0),
            HvEvent::ModeChange(mode) => {
                let ordinal = u64::from(mode.ordinal());
                return self
                    .sink
                    .record(at, ObsKind::ModeChange, SYSTEM_VM, 0, ordinal);
            }
            HvEvent::PchannelSlot { task_id, .. } => {
                return self
                    .sink
                    .record(at, ObsKind::TableFire, SYSTEM_VM, task_id, 0);
            }
            HvEvent::Stalled | HvEvent::Backoff | HvEvent::Idle => return,
        };
        let vm = u32::try_from(vm).unwrap_or(u32::MAX);
        self.sink.record(at, kind, vm, task, arg);
    }

    /// Merges another observer's histograms into this one (sinks are not
    /// merged — event streams from different runs do not interleave
    /// meaningfully; merge is for combining per-trial histograms).
    pub fn merge_histograms(&mut self, other: &HvObs) {
        self.submit_to_dispatch.merge(&other.submit_to_dispatch);
        self.dispatch_to_response.merge(&other.dispatch_to_response);
        for (mine, theirs) in self.e2e_per_vm.iter_mut().zip(other.e2e_per_vm.iter()) {
            mine.merge(theirs);
        }
        self.e2e_critical.merge(&other.e2e_critical);
        self.e2e_best_effort.merge(&other.e2e_best_effort);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_per_vm_histograms() {
        let obs = HvObs::new(16, 3);
        assert_eq!(obs.sink.capacity(), 16);
        assert_eq!(obs.e2e_per_vm.len(), 3);
        assert_eq!(obs.e2e_critical.count(), 0);
    }

    #[test]
    fn merge_histograms_combines_by_position() {
        let mut a = HvObs::new(4, 2);
        let mut b = HvObs::new(4, 2);
        a.submit_to_dispatch.record(5);
        b.submit_to_dispatch.record(9);
        a.e2e_per_vm[1].record(3);
        b.e2e_per_vm[1].record(4);
        a.merge_histograms(&b);
        assert_eq!(a.submit_to_dispatch.count(), 2);
        assert_eq!(a.e2e_per_vm[0].count(), 0);
        assert_eq!(a.e2e_per_vm[1].count(), 2);
    }
}
