//! Execution metrics of the hypervisor device model.
//!
//! [`HvMetrics`] aggregates global counters (the Fig. 7 success-ratio and
//! throughput inputs) and, since the robustness work, a per-VM breakdown
//! ([`VmMetrics`]): the paper's isolation claim is *per VM* — a faulty VM
//! may miss deadlines while the well-behaved VMs must not — so miss,
//! throttle, retry and shedding counters have to be attributable to a
//! single VM, not just summed across the device.
//!
//! The metrics are a fold over the hypervisor's event stream
//! ([`HvMetrics::fold`]): the device updates them nowhere else, so folding
//! the stream into fresh metrics reproduces the live ones exactly. The
//! σ\* walk of `Hypervisor::advance_to` runs with no observer attached and
//! would discard its events as stepping does, so it never queues them: it
//! folds them here directly, and a run's repeated free-slot dispositions in
//! one add (`HvMetrics::fold_free_run`).

use ioguard_sim::stats::OnlineStats;

pub use ioguard_obs::counters::VmCounters;
use ioguard_obs::CounterRegistry;

use crate::event::{HvEvent, RefuseReason};

/// Per-VM execution counters.
///
/// Since the observability layer landed, this is the obs crate's
/// [`VmCounters`] — one definition shared by the live hypervisor and the
/// trace-stream fold ([`CounterRegistry::fold_event`]), so the cross-check
/// `fold(trace) == registry` compares identical types field-for-field.
pub type VmMetrics = VmCounters;

/// Aggregate execution metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HvMetrics {
    /// Run-time jobs completed before their deadlines.
    pub completed: u64,
    /// Run-time jobs that missed (expired in a pool or rejected on a full
    /// pool).
    pub missed: u64,
    /// Jobs rejected due to pool overflow (also counted in `missed`).
    pub rejected: u64,
    /// Misses of *critical* jobs only (the success-ratio criterion).
    pub critical_missed: u64,
    /// Pre-defined jobs completed by the P-channel.
    pub predefined_completed: u64,
    /// Slots spent executing P-channel work.
    pub pchannel_slots: u64,
    /// Slots spent executing R-channel work.
    pub rchannel_slots: u64,
    /// Free slots left idle (no eligible work).
    pub idle_slots: u64,
    /// Granted slots burned against a stalled device (no job progress;
    /// the watchdog counts these toward its timeout).
    pub stalled_slots: u64,
    /// Slots the executor sat out while the watchdog's exponential backoff
    /// window was open.
    pub backoff_slots: u64,
    /// Watchdog retry operations issued against the device.
    pub retries: u64,
    /// Best-effort jobs shed (from pools or at admission) by degradation.
    pub dropped_best_effort: u64,
    /// Operating-mode transitions (normal ↔ degraded ↔ P-channel-only).
    pub mode_changes: u64,
    /// Response payload bytes produced (throughput numerator).
    pub response_bytes: u64,
    /// Response latency of completed run-time jobs, in slots.
    pub latency: OnlineStats,
    /// Per-VM breakdown (indexed by VM; sized at hypervisor construction).
    pub per_vm: Vec<VmMetrics>,
}

impl HvMetrics {
    /// Creates metrics with a per-VM breakdown for `vms` VMs.
    pub fn with_vms(vms: usize) -> Self {
        Self {
            per_vm: vec![VmMetrics::default(); vms],
            ..Self::default()
        }
    }

    /// The per-VM counters of `vm` (zeroed counters for an unknown VM, so
    /// the accessor never panics on diagnostic paths).
    pub fn vm(&self, vm: usize) -> VmMetrics {
        self.per_vm.get(vm).copied().unwrap_or_default()
    }

    /// The per-VM counters as an obs-layer [`CounterRegistry`] — the live
    /// side of the metrics/trace cross-check (`fold(trace)` must reproduce
    /// this exactly).
    pub fn registry(&self) -> CounterRegistry {
        CounterRegistry::from_vms(self.per_vm.clone())
    }

    /// Folds one hypervisor event into the metrics — the *definition* of
    /// every counter in terms of the event stream.
    ///
    /// Refusals the hardware cannot buffer count as misses: a full pool
    /// (also counted in `rejected`) and a critical job refused by the
    /// P-channel-only mode. A best-effort job refused by a degraded mode
    /// counts as shed.
    #[inline(always)]
    pub fn fold(&mut self, event: &HvEvent) {
        match *event {
            HvEvent::Refused { vm, job, reason } => match reason {
                RefuseReason::Throttled { .. } => self.on_vm(vm, |p| p.throttled_submissions += 1),
                RefuseReason::Degraded if job.critical => self.miss(vm, true),
                RefuseReason::Degraded => self.shed(vm),
                RefuseReason::PoolFull => {
                    self.rejected += 1;
                    self.miss(vm, job.critical);
                }
            },
            HvEvent::Missed { vm, job } => self.miss(vm, job.critical),
            HvEvent::Shed { vm, .. } => self.shed(vm),
            HvEvent::Completed { vm, job, finish } => {
                self.completed += 1;
                self.on_vm(vm, |p| p.completed += 1);
                self.response_bytes += u64::from(job.response_bytes);
                self.latency
                    .push(finish.saturating_sub(job.enqueued_at) as f64);
            }
            // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
            HvEvent::ThrottledSlot { vm } => self.on_vm(vm, |p| p.throttled_slots += 1),
            HvEvent::Retry { vm, .. } => {
                self.retries += 1;
                self.on_vm(vm, |p| p.retries += 1);
            }
            HvEvent::ModeChange(_) => self.mode_changes += 1,
            HvEvent::PchannelSlot {
                completed_bytes, ..
            } => {
                // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
                self.pchannel_slots += 1;
                if let Some(bytes) = completed_bytes {
                    self.predefined_completed += 1;
                    self.response_bytes += u64::from(bytes);
                }
            }
            // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
            HvEvent::Grant { .. } => self.rchannel_slots += 1,
            // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
            HvEvent::Stalled => self.stalled_slots += 1,
            // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
            HvEvent::Backoff => self.backoff_slots += 1,
            // lint: allow(unchecked-arith) — at most one a slot, so never above the u64 slot clock
            HvEvent::Idle => self.idle_slots += 1,
            HvEvent::Admitted { .. }
            | HvEvent::ThrottleTrip { .. }
            | HvEvent::Dispatch { .. }
            | HvEvent::Preempt { .. }
            | HvEvent::Fault
            | HvEvent::Recovery => {}
        }
    }

    /// Folds `slots` free-slot dispositions of one run in one add: as many
    /// [`HvEvent::Grant`]s when `granted`, as many [`HvEvent::Idle`]s
    /// otherwise.
    #[inline(always)]
    pub(crate) fn fold_free_run(&mut self, granted: bool, slots: u64) {
        if granted {
            self.rchannel_slots = self.rchannel_slots.saturating_add(slots);
        } else {
            self.idle_slots = self.idle_slots.saturating_add(slots);
        }
    }

    /// Applies `bump` to `vm`'s counters (no-op for an unknown VM).
    fn on_vm(&mut self, vm: usize, bump: impl FnOnce(&mut VmMetrics)) {
        if let Some(per) = self.per_vm.get_mut(vm) {
            bump(per);
        }
    }

    fn miss(&mut self, vm: usize, critical: bool) {
        self.missed += 1;
        self.critical_missed += u64::from(critical);
        self.on_vm(vm, |p| {
            p.missed += 1;
            p.critical_missed += u64::from(critical);
        });
    }

    fn shed(&mut self, vm: usize) {
        self.dropped_best_effort += 1;
        self.on_vm(vm, |p| p.dropped_best_effort += 1);
    }

    /// Total slots observed.
    pub fn total_slots(&self) -> u64 {
        self.pchannel_slots
            .saturating_add(self.rchannel_slots)
            .saturating_add(self.idle_slots)
            .saturating_add(self.stalled_slots)
            .saturating_add(self.backoff_slots)
    }

    /// True when no run-time job has missed, on any VM.
    ///
    /// Derivable per VM: this is exactly `(0..vms).all(no_misses_for)` —
    /// the global counter and the per-VM counters are maintained together.
    pub fn no_misses(&self) -> bool {
        self.missed == 0
    }

    /// True when no run-time job of `vm` has missed — the per-VM isolation
    /// criterion (a faulty VM may miss while this VM stays clean).
    pub fn no_misses_for(&self, vm: usize) -> bool {
        self.vm(vm).missed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolEntry, NEVER_DISPATCHED};

    fn missed(vm: usize, task_id: u64, critical: bool) -> HvEvent {
        let job = PoolEntry {
            task_id,
            deadline: 0,
            remaining: 1,
            enqueued_at: 0,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes: 64,
            critical,
        };
        HvEvent::Missed { vm, job }
    }

    #[test]
    fn per_vm_breakdown_tracks_global() {
        let mut m = HvMetrics::with_vms(2);
        m.fold(&missed(0, 10, true));
        m.fold(&missed(1, 11, false));
        m.fold(&missed(0, 12, false));
        assert_eq!(m.missed, 3);
        assert_eq!(m.critical_missed, 1);
        assert_eq!(m.vm(0).missed, 2);
        assert_eq!(m.vm(0).critical_missed, 1);
        assert_eq!(m.vm(1).missed, 1);
        assert!(!m.no_misses());
        assert!(!m.no_misses_for(0));
        assert!(m.no_misses_for(2), "unknown vm reads as clean");
    }

    #[test]
    fn no_misses_is_conjunction_of_per_vm() {
        let mut m = HvMetrics::with_vms(3);
        assert!(m.no_misses());
        assert!((0..3).all(|vm| m.no_misses_for(vm)));
        m.fold(&missed(2, 7, true));
        assert!(!m.no_misses());
        assert_eq!(
            m.no_misses(),
            (0..3).all(|vm| m.no_misses_for(vm)),
            "global flag must be derivable from the per-VM flags"
        );
    }

    #[test]
    fn completions_and_sheds_attribute_per_vm() {
        let mut m = HvMetrics::with_vms(2);
        let job = PoolEntry {
            task_id: 4,
            deadline: 10,
            remaining: 0,
            enqueued_at: 2,
            first_dispatch: 3,
            response_bytes: 64,
            critical: false,
        };
        m.fold(&HvEvent::Completed {
            vm: 1,
            job,
            finish: 6,
        });
        for _ in 0..3 {
            m.fold(&HvEvent::Shed { vm: 0, job });
        }
        assert_eq!(m.completed, 1);
        assert_eq!(m.vm(1).completed, 1);
        assert_eq!(m.response_bytes, 64);
        assert_eq!(m.latency.mean(), 4.0);
        assert_eq!(m.dropped_best_effort, 3);
        assert_eq!(m.vm(0).dropped_best_effort, 3);
        assert!(m.vm(0).no_misses());
    }

    #[test]
    fn total_slots_includes_fault_accounting() {
        let m = HvMetrics {
            pchannel_slots: 2,
            rchannel_slots: 3,
            idle_slots: 4,
            stalled_slots: 5,
            backoff_slots: 6,
            ..HvMetrics::default()
        };
        assert_eq!(m.total_slots(), 20);
    }
}
