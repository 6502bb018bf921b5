//! The transactional mode-change protocol: quiesce, drain, switch,
//! rollback.
//!
//! [`ReconfigController`] wraps the live [`Hypervisor`] and is the *only*
//! path by which its configuration changes:
//!
//! ```text
//!             stage(candidate) ── verify offline ──► staged (committable)
//!                  │ reject: typed reason, old config untouched
//!                  ▼
//!   Running ── commit() ──► Draining ── hyperperiod boundary ──► Switching ──► Running
//!      ▲                        │ drain deadline blown / degraded:            (new epoch)
//!      └────────── abort ◄──────┘ rollback to the old config
//! ```
//!
//! * **Staging** builds and verifies a candidate beside the running system
//!   ([`StagedConfig::verify`]); an uncommittable stage is rejected with a
//!   typed [`RejectReason`] and nothing else happens.
//! * **Commit** is accepted only if the quiesce window to the next
//!   hyperperiod boundary of the *old* σ\* fits the drain latency budget —
//!   the bound is enforced up front, so an accepted drain can never run
//!   long. The window is traced (`ReconfigDrain`, `arg` = latency).
//! * **Switching** happens exactly at the boundary: the R-channel pools
//!   drain in deterministic order, every in-flight entry is carried into
//!   the successor exactly once (deadlines rebased to the new epoch's
//!   clock), per-VM state for departed VMs is torn down with an explicit
//!   account, and the successor starts with completely fresh per-VM state
//!   (metrics, watchdog, admission windows, GuardedEdf budgets) — VM ids
//!   reused by a later epoch never inherit a predecessor's counters.
//! * **Rollback** is the default: any failure before or at the boundary
//!   (unschedulable or unbuildable stage, blown drain budget, degraded
//!   mode at the switch) leaves the old configuration running,
//!   observationally identical to never having staged.
//!
//! Reconfiguration events go to a controller-owned [`TraceSink`], *not*
//! the hypervisor's observer — the live system's trace is byte-identical
//! whether or not an aborted reconfiguration was ever attempted, which is
//! exactly the property the proptests pin down.

use ioguard_hypervisor::hypervisor::{HvMode, RtJob};
use ioguard_hypervisor::pool::NEVER_DISPATCHED;
use ioguard_hypervisor::{HvMetrics, Hypervisor, RefuseReason, SubmitError};
use ioguard_obs::{ObsKind, TraceSink, SYSTEM_VM};

use crate::staged::{RejectReason, StagedConfig, VerifiedConfig};

/// Externally visible phase of the mode-change state machine. `Switching`
/// is internal to a single [`ReconfigController::step`] call at the
/// boundary slot and is never observable from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigPhase {
    /// No commit in flight (a verified stage may be held).
    Running,
    /// A commit was accepted; the system quiesces toward the boundary.
    Draining,
}

/// The sealed account of one retired configuration epoch.
#[derive(Debug)]
pub struct EpochRecord {
    /// Epoch number (0 = the initial configuration).
    pub epoch: u64,
    /// Global slot at which this epoch's local clock 0 sat.
    pub base: u64,
    /// Global slot at which the epoch ended (its switch boundary).
    pub end: u64,
    /// VM population of the epoch.
    pub vms: usize,
    /// Entries drained at the boundary and offered to the successor.
    pub carried_out: usize,
    /// Final metrics of the epoch's hypervisor — per-VM counters retire
    /// here instead of leaking into the successor's (possibly reused) VM
    /// ids.
    pub metrics: HvMetrics,
    /// The epoch's observer (trace + histograms), if one was attached.
    pub obs: Option<Box<ioguard_hypervisor::HvObs>>,
}

/// Work-conservation totals across every epoch plus the live system. The
/// exactly-once transition invariant is `conserved()`: each job accepted
/// (or refused-with-accounting) by the controller shows up in exactly one
/// terminal bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconfigTotals {
    /// Submissions accepted into a pool.
    pub accepted: u64,
    /// Refusals the hypervisor counted as misses (pool overflow;
    /// P-channel-only refusals of critical work).
    pub refused_missed: u64,
    /// Refusals the hypervisor counted as shed best-effort work.
    pub refused_shed: u64,
    /// Refusals with no metric side effect (flood control, unknown VM).
    pub refused_silent: u64,
    /// Jobs completed, summed over retired epochs and the live system.
    pub completed: u64,
    /// Deadline misses, summed the same way.
    pub missed: u64,
    /// Best-effort jobs shed, summed the same way.
    pub shed: u64,
    /// Carried entries torn down because their VM departed.
    pub dropped_departed: u64,
    /// Carried entries lost to successor pool overflow.
    pub restore_overflow: u64,
    /// Entries still buffered in the live pools.
    pub in_flight: u64,
}

impl ReconfigTotals {
    /// True when every accounted submission reached exactly one terminal
    /// bucket — no dropped and no double-dispatched jobs.
    pub fn conserved(&self) -> bool {
        let submitted = self
            .accepted
            .saturating_add(self.refused_missed)
            .saturating_add(self.refused_shed);
        let settled = self
            .completed
            .saturating_add(self.missed)
            .saturating_add(self.shed)
            .saturating_add(self.dropped_departed)
            .saturating_add(self.restore_overflow)
            .saturating_add(self.in_flight);
        submitted == settled
    }
}

/// A committed switch waiting for its boundary (all slots local to the
/// current epoch's clock).
#[derive(Debug)]
struct PendingSwitch {
    stage_id: u64,
    verified: VerifiedConfig,
    accepted_at: u64,
    switch_at: u64,
}

/// The live hypervisor plus the transactional reconfiguration machinery.
#[derive(Debug)]
pub struct ReconfigController {
    hv: Hypervisor,
    drain_budget: u64,
    epoch: u64,
    epoch_base: u64,
    stage_counter: u64,
    staged: Option<(u64, VerifiedConfig)>,
    pending: Option<PendingSwitch>,
    sink: TraceSink,
    retired: Vec<EpochRecord>,
    accepted: u64,
    refused_missed: u64,
    refused_shed: u64,
    refused_silent: u64,
    dropped_departed: Vec<(usize, u64)>,
    restore_overflow: Vec<(usize, u64)>,
    drain_latencies: Vec<u64>,
    obs_capacity: usize,
}

impl ReconfigController {
    /// Verifies `initial` through the full admission pipeline and brings
    /// it up as epoch 0. The `drain_budget` bounds every later quiesce
    /// window (in slots); `sink_capacity` sizes the controller's own
    /// reconfiguration trace.
    ///
    /// # Errors
    ///
    /// A typed [`RejectReason`] when the initial configuration fails
    /// verification; nothing is left running.
    pub fn new(
        initial: StagedConfig,
        drain_budget: u64,
        sink_capacity: usize,
    ) -> Result<Self, RejectReason> {
        let mut sink = TraceSink::new(sink_capacity);
        sink.record(
            0,
            ObsKind::ReconfigStage,
            SYSTEM_VM,
            0,
            initial.vm_count() as u64,
        );
        let verified = match initial.verify() {
            Ok(v) => v,
            Err(reason) => {
                sink.record(0, ObsKind::ReconfigVerify, SYSTEM_VM, 0, 0);
                sink.record(0, ObsKind::ReconfigAbort, SYSTEM_VM, 0, reason.ordinal());
                return Err(reason);
            }
        };
        sink.record(0, ObsKind::ReconfigVerify, SYSTEM_VM, 0, 1);
        sink.record(0, ObsKind::ReconfigCommit, SYSTEM_VM, 0, 0);
        Ok(Self {
            hv: verified.hv,
            drain_budget,
            epoch: 0,
            epoch_base: 0,
            stage_counter: 0,
            staged: None,
            pending: None,
            sink,
            retired: Vec::new(),
            accepted: 0,
            refused_missed: 0,
            refused_shed: 0,
            refused_silent: 0,
            dropped_departed: Vec::new(),
            restore_overflow: Vec::new(),
            drain_latencies: Vec::new(),
            obs_capacity: 0,
        })
    }

    /// Attaches an observer of `capacity` events to the live hypervisor
    /// and to every successor epoch's hypervisor at activation.
    pub fn attach_obs(&mut self, capacity: usize) {
        self.obs_capacity = capacity;
        self.hv.attach_obs(capacity);
    }

    /// The live hypervisor (current epoch).
    pub fn hv(&self) -> &Hypervisor {
        &self.hv
    }

    /// Mutable access to the live hypervisor — for fault injection and
    /// direct submission; the configuration itself has no mutable surface
    /// here (that is the staged-commit path's job, and the
    /// `live-config-mutation` lint holds everyone to it).
    pub fn hv_mut(&mut self) -> &mut Hypervisor {
        &mut self.hv
    }

    /// The controller's reconfiguration trace
    /// (Stage/Verify/Commit/Abort/Drain events).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Current configuration epoch (0-based).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Global slot: the retired epochs' spans plus the live local clock.
    pub fn now_global(&self) -> u64 {
        self.epoch_base.saturating_add(self.hv.now())
    }

    /// Externally visible phase of the state machine.
    pub fn phase(&self) -> ReconfigPhase {
        if self.pending.is_some() {
            ReconfigPhase::Draining
        } else {
            ReconfigPhase::Running
        }
    }

    /// The drain latency budget (slots).
    pub fn drain_budget(&self) -> u64 {
        self.drain_budget
    }

    /// Sealed records of every retired epoch, oldest first.
    pub fn retired(&self) -> &[EpochRecord] {
        &self.retired
    }

    /// Observed drain latency of every completed switch, in commit order.
    /// Each is `≤` [`Self::drain_budget`] — enforced at commit time.
    pub fn drain_latencies(&self) -> &[u64] {
        &self.drain_latencies
    }

    /// `(vm, task_id)` of carried entries torn down because their VM
    /// departed, across all switches.
    pub fn dropped_departed(&self) -> &[(usize, u64)] {
        &self.dropped_departed
    }

    /// Stages a candidate configuration: records the attempt, runs the
    /// offline admission pipeline ([`StagedConfig::verify`]), and holds the
    /// verified result for [`Self::commit`]. Re-staging before commit
    /// replaces the held stage.
    ///
    /// # Errors
    ///
    /// A typed [`RejectReason`]; the live system is untouched and keeps
    /// running its current configuration (rollback is the default).
    pub fn stage(&mut self, candidate: StagedConfig) -> Result<u64, RejectReason> {
        let id = self.stage_counter.saturating_add(1);
        self.stage_counter = id;
        let at = self.now_global();
        self.sink.record(
            at,
            ObsKind::ReconfigStage,
            SYSTEM_VM,
            id,
            candidate.vm_count() as u64,
        );
        if self.pending.is_some() {
            let reason = RejectReason::SwitchPending;
            self.sink
                .record(at, ObsKind::ReconfigAbort, SYSTEM_VM, id, reason.ordinal());
            return Err(reason);
        }
        match candidate.verify() {
            Ok(verified) => {
                self.sink
                    .record(at, ObsKind::ReconfigVerify, SYSTEM_VM, id, 1);
                self.staged = Some((id, verified));
                Ok(id)
            }
            Err(reason) => {
                self.sink
                    .record(at, ObsKind::ReconfigVerify, SYSTEM_VM, id, 0);
                self.sink
                    .record(at, ObsKind::ReconfigAbort, SYSTEM_VM, id, reason.ordinal());
                Err(reason)
            }
        }
    }

    /// Commits the held verified stage: schedules the switch for the next
    /// hyperperiod boundary of the *old* σ\* and enters `Draining`. The
    /// quiesce window is checked against the drain budget here, up front —
    /// an accepted commit can never drain longer than the bound.
    ///
    /// Returns the global slot of the switch boundary.
    ///
    /// # Errors
    ///
    /// * [`RejectReason::NothingStaged`] without a verified stage.
    /// * [`RejectReason::SwitchPending`] while an earlier commit drains.
    /// * [`RejectReason::DrainBudgetExceeded`] when the boundary is too
    ///   far; the stage is dropped and the old config keeps running.
    pub fn commit(&mut self) -> Result<u64, RejectReason> {
        if self.pending.is_some() {
            return Err(RejectReason::SwitchPending);
        }
        let Some((stage_id, verified)) = self.staged.take() else {
            return Err(RejectReason::NothingStaged);
        };
        let h = self.hv.pchannel().hyper_period().max(1);
        let at_local = self.hv.now();
        let Some(switch_at) = at_local.checked_next_multiple_of(h) else {
            let reason = RejectReason::DrainBudgetExceeded {
                needed: u64::MAX,
                budget: self.drain_budget,
            };
            self.sink.record(
                self.now_global(),
                ObsKind::ReconfigAbort,
                SYSTEM_VM,
                stage_id,
                reason.ordinal(),
            );
            return Err(reason);
        };
        let needed = switch_at.saturating_sub(at_local);
        if needed > self.drain_budget {
            let reason = RejectReason::DrainBudgetExceeded {
                needed,
                budget: self.drain_budget,
            };
            self.sink.record(
                self.now_global(),
                ObsKind::ReconfigAbort,
                SYSTEM_VM,
                stage_id,
                reason.ordinal(),
            );
            return Err(reason);
        }
        let at_global = self.epoch_base.saturating_add(switch_at);
        self.sink.record(
            self.now_global(),
            ObsKind::ReconfigCommit,
            SYSTEM_VM,
            stage_id,
            at_global,
        );
        self.pending = Some(PendingSwitch {
            stage_id,
            verified,
            accepted_at: at_local,
            switch_at,
        });
        Ok(at_global)
    }

    /// Drops any held stage and any draining commit, rolling back to the
    /// current configuration. Returns `true` when something was dropped.
    pub fn abort(&mut self) -> bool {
        let at = self.now_global();
        let mut dropped = false;
        if let Some((id, _)) = self.staged.take() {
            self.sink.record(
                at,
                ObsKind::ReconfigAbort,
                SYSTEM_VM,
                id,
                RejectReason::Cancelled.ordinal(),
            );
            dropped = true;
        }
        if let Some(p) = self.pending.take() {
            self.sink.record(
                at,
                ObsKind::ReconfigAbort,
                SYSTEM_VM,
                p.stage_id,
                RejectReason::Cancelled.ordinal(),
            );
            dropped = true;
        }
        dropped
    }

    /// Submits a run-time job to the live epoch: released now, with a
    /// deadline `rel_deadline` slots out. Every outcome is accounted so
    /// the conservation invariant ([`ReconfigTotals::conserved`]) can be
    /// checked across mode changes.
    ///
    /// # Errors
    ///
    /// Propagates the hypervisor's typed refusals untouched.
    pub fn submit(
        &mut self,
        vm: usize,
        task_id: u64,
        wcet: u64,
        rel_deadline: u64,
        critical: bool,
    ) -> Result<(), SubmitError> {
        let at_local = self.hv.now();
        let job = RtJob {
            vm,
            task_id,
            release: at_local,
            wcet,
            deadline: at_local.saturating_add(rel_deadline),
            critical,
        };
        let result = self.hv.submit(job);
        match result {
            Ok(()) => self.accepted = self.accepted.saturating_add(1),
            // The refusals the hypervisor counts as misses: a full pool,
            // and critical work refused by the P-channel-only mode.
            Err(SubmitError::Refused(RefuseReason::PoolFull)) => {
                self.refused_missed = self.refused_missed.saturating_add(1);
            }
            Err(SubmitError::Refused(RefuseReason::Degraded)) if critical => {
                self.refused_missed = self.refused_missed.saturating_add(1);
            }
            Err(SubmitError::Refused(RefuseReason::Degraded)) => {
                self.refused_shed = self.refused_shed.saturating_add(1);
            }
            Err(SubmitError::Refused(RefuseReason::Throttled { .. }))
            | Err(SubmitError::UnknownVm { .. }) => {
                self.refused_silent = self.refused_silent.saturating_add(1);
            }
        }
        result
    }

    /// Advances one slot. At the boundary of a draining commit the switch
    /// runs first (drain → carry → activate), so the new epoch's slot 0
    /// is executed by the new configuration.
    pub fn step(&mut self) {
        if self
            .pending
            .as_ref()
            .is_some_and(|p| self.hv.now() >= p.switch_at)
        {
            if let Some(p) = self.pending.take() {
                self.perform_switch(p);
            }
        }
        self.hv.step();
    }

    /// Runs `slots` consecutive slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Work-conservation totals across retired epochs and the live system.
    pub fn totals(&self) -> ReconfigTotals {
        let mut completed = self.hv.metrics().completed;
        let mut missed = self.hv.metrics().missed;
        let mut shed = self.hv.metrics().dropped_best_effort;
        for r in &self.retired {
            completed = completed.saturating_add(r.metrics.completed);
            missed = missed.saturating_add(r.metrics.missed);
            shed = shed.saturating_add(r.metrics.dropped_best_effort);
        }
        let in_flight = self
            .hv
            .pools()
            .iter()
            .map(|p| p.len() as u64)
            .fold(0u64, u64::saturating_add);
        ReconfigTotals {
            accepted: self.accepted,
            refused_missed: self.refused_missed,
            refused_shed: self.refused_shed,
            refused_silent: self.refused_silent,
            completed,
            missed,
            shed,
            dropped_departed: self.dropped_departed.len() as u64,
            restore_overflow: self.restore_overflow.len() as u64,
            in_flight,
        }
    }

    /// The switch itself: runs at the boundary slot, before the slot
    /// executes. Any failure aborts back to the old configuration with
    /// zero observable effect on it.
    fn perform_switch(&mut self, p: PendingSwitch) {
        let at_global = self.now_global();
        // Mid-drain faults: if the old system left Normal mode during the
        // quiesce window, switching under degradation would launder the
        // fault into a fresh epoch — abort instead, old config keeps
        // running, and the operator can re-stage once recovered.
        if self.hv.mode() != HvMode::Normal {
            self.sink.record(
                at_global,
                ObsKind::ReconfigAbort,
                SYSTEM_VM,
                p.stage_id,
                RejectReason::DegradedAtBoundary.ordinal(),
            );
            return;
        }
        // The successor was built when it was staged, so activation
        // cannot fail once the drain starts.
        let mut next = p.verified.hv;
        if self.obs_capacity > 0 {
            next.attach_obs(self.obs_capacity);
        }
        let latency = p.switch_at.saturating_sub(p.accepted_at);
        self.sink.record(
            at_global,
            ObsKind::ReconfigDrain,
            SYSTEM_VM,
            p.stage_id,
            latency,
        );
        self.drain_latencies.push(latency);
        // Quiesce: drain the R-channel pools in deterministic order and
        // carry every in-flight entry exactly once.
        let carried = self.hv.drain_pools();
        let carried_out = carried.len();
        let next_vms = next.vm_count();
        for (vm, mut entry) in carried {
            if vm >= next_vms {
                // The VM departed: its in-flight work is torn down with an
                // explicit account (never silently retained or re-keyed).
                self.dropped_departed.push((vm, entry.task_id));
                continue;
            }
            // Rebase to the new epoch's local clock (its slot 0 is the
            // boundary). A deadline at or before the boundary clamps to 0
            // and expires — correctly — on the new epoch's first sweep.
            entry.deadline = entry.deadline.saturating_sub(p.switch_at);
            entry.enqueued_at = entry.enqueued_at.saturating_sub(p.switch_at);
            if entry.first_dispatch != NEVER_DISPATCHED {
                entry.first_dispatch = entry.first_dispatch.saturating_sub(p.switch_at);
            }
            if next.restore_entry(vm, entry).is_err() {
                // `vm < next_vms`, so the only failure is pool overflow.
                self.restore_overflow.push((vm, entry.task_id));
            }
        }
        // Retire the old epoch: its per-VM counters, watchdog state and
        // admission windows seal here — a successor reusing a VM id starts
        // from zero.
        let old_metrics = self.hv.metrics().clone();
        let old_obs = self.hv.take_obs();
        let old_vms = self.hv.vm_count();
        self.retired.push(EpochRecord {
            epoch: self.epoch,
            base: self.epoch_base,
            end: at_global,
            vms: old_vms,
            carried_out,
            metrics: old_metrics,
            obs: old_obs,
        });
        self.epoch = self.epoch.saturating_add(1);
        self.epoch_base = at_global;
        self.hv = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::StagedConfig;
    use ioguard_hypervisor::hypervisor::AdmissionGuard;
    use ioguard_hypervisor::pchannel::PredefinedTask;
    use ioguard_hypervisor::{HvError, VmMetrics};
    use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    fn sets(v: Vec<Vec<SporadicTask>>) -> Vec<TaskSet> {
        v.into_iter().map(Into::into).collect()
    }

    /// Two VMs, one σ* task of period 8 → hyperperiod 8.
    fn cfg_a() -> StagedConfig {
        let mut c = StagedConfig::new(
            vec![
                PeriodicServer::new(5, 2).unwrap(),
                PeriodicServer::new(10, 3).unwrap(),
            ],
            sets(vec![vec![task(20, 2, 10)], vec![task(40, 4, 30)]]),
        );
        c.predefined = vec![PredefinedTask {
            task_id: 900,
            vm: 0,
            task: SporadicTask::implicit(8, 1).unwrap(),
            response_bytes: 64,
            start_offset: 0,
        }];
        c
    }

    /// Three VMs (VM ids 0 and 1 reused from `cfg_a`), hyperperiod 8.
    fn cfg_b() -> StagedConfig {
        let mut c = StagedConfig::new(
            vec![
                PeriodicServer::new(5, 1).unwrap(),
                PeriodicServer::new(10, 2).unwrap(),
                PeriodicServer::new(8, 2).unwrap(),
            ],
            sets(vec![
                vec![task(20, 1, 10)],
                vec![task(40, 2, 30)],
                vec![task(32, 2, 16)],
            ]),
        );
        c.predefined = vec![PredefinedTask {
            task_id: 901,
            vm: 1,
            task: SporadicTask::implicit(8, 1).unwrap(),
            response_bytes: 32,
            start_offset: 0,
        }];
        c
    }

    /// One VM (VM 1 departs relative to `cfg_a`), no σ* load.
    fn cfg_one() -> StagedConfig {
        StagedConfig::new(
            vec![PeriodicServer::new(4, 1).unwrap()],
            sets(vec![vec![task(20, 1, 10)]]),
        )
    }

    #[test]
    fn initial_commit_traces_epoch_zero() {
        let rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        assert_eq!(rc.epoch(), 0);
        assert_eq!(rc.phase(), ReconfigPhase::Running);
        assert_eq!(rc.hv().vm_count(), 2);
        let kinds: Vec<_> = rc.sink().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ObsKind::ReconfigStage,
                ObsKind::ReconfigVerify,
                ObsKind::ReconfigCommit
            ]
        );
    }

    #[test]
    fn unschedulable_initial_config_rejected() {
        let mut c = cfg_a();
        c.task_sets = sets(vec![vec![task(10, 9, 10)], vec![task(40, 4, 30)]]);
        assert!(matches!(
            ReconfigController::new(c, 16, 64),
            Err(RejectReason::Unschedulable { .. })
        ));
    }

    #[test]
    fn invalid_candidate_parameter_aborts_as_activation_failure() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.run(2);
        let mut bad = cfg_b();
        bad.admission_guard = Some(AdmissionGuard {
            window: 0,
            max_submissions: 4,
            throttle_slots: 8,
        });
        let reason = rc.stage(bad).unwrap_err();
        assert!(
            matches!(
                reason,
                RejectReason::Activation(HvError::InvalidConfig { .. })
            ),
            "{reason:?}"
        );
        let aborts: Vec<_> = rc.sink().of_kind(ObsKind::ReconfigAbort).collect();
        assert_eq!(aborts.len(), 1);
        let abort = aborts.first().unwrap();
        assert_eq!((abort.task, abort.arg), (1, 10), "stage 1, ordinal 10");
        assert_eq!(rc.commit().unwrap_err(), RejectReason::NothingStaged);
        assert_eq!(rc.epoch(), 0);
    }

    #[test]
    fn stage_commit_switch_runs_new_epoch() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.run(3);
        let id = rc.stage(cfg_b()).unwrap();
        assert_eq!(id, 1);
        let boundary = rc.commit().unwrap();
        assert_eq!(boundary, 8, "next hyperperiod multiple of the old σ*");
        assert_eq!(rc.phase(), ReconfigPhase::Draining);
        rc.run(6); // crosses the boundary at local slot 8
        assert_eq!(rc.epoch(), 1);
        assert_eq!(rc.phase(), ReconfigPhase::Running);
        assert_eq!(rc.hv().vm_count(), 3);
        assert_eq!(rc.hv().now(), 1, "new epoch restarts its local clock");
        assert_eq!(rc.now_global(), 9);
        let sealed = rc.retired().first().unwrap();
        assert_eq!(
            (sealed.epoch, sealed.base, sealed.end, sealed.vms),
            (0, 0, 8, 2)
        );
        assert_eq!(rc.drain_latencies(), &[5]);
        let drains: Vec<_> = rc.sink().of_kind(ObsKind::ReconfigDrain).collect();
        assert_eq!(drains.len(), 1);
        assert_eq!(drains.first().unwrap().arg, 5);
        assert!(rc.drain_latencies().iter().all(|&l| l <= rc.drain_budget()));
    }

    #[test]
    fn reused_vm_id_gets_fresh_counters_after_switch() {
        // Satellite regression: re-admitting a VM id in a new epoch must
        // start from zeroed metrics; the old counters seal in the ledger.
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.submit(0, 7, 1, 10, true).unwrap();
        rc.run(6);
        let before = rc.hv().metrics().vm(0);
        assert!(
            before.completed >= 1,
            "job should have completed: {before:?}"
        );
        rc.stage(cfg_b()).unwrap();
        rc.commit().unwrap();
        rc.run(4);
        assert_eq!(rc.epoch(), 1);
        assert_eq!(
            rc.hv().metrics().vm(0),
            VmMetrics::default(),
            "reused VM id must not inherit the old epoch's counters"
        );
        assert_eq!(rc.retired().first().unwrap().metrics.vm(0), before);
        assert!(rc.totals().conserved(), "{:?}", rc.totals());
    }

    #[test]
    fn departed_vm_inflight_work_torn_down_with_account() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.run(6);
        rc.submit(1, 42, 50, 100, false).unwrap();
        rc.stage(cfg_one()).unwrap();
        rc.commit().unwrap();
        rc.run(3);
        assert_eq!(rc.epoch(), 1);
        assert_eq!(rc.hv().vm_count(), 1);
        assert_eq!(rc.dropped_departed(), &[(1usize, 42u64)]);
        let t = rc.totals();
        assert_eq!(t.dropped_departed, 1);
        assert!(t.conserved(), "{t:?}");
    }

    #[test]
    fn carried_entry_completes_exactly_once() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.attach_obs(512);
        rc.run(6);
        rc.submit(1, 77, 4, 30, true).unwrap();
        rc.stage(cfg_b()).unwrap();
        rc.commit().unwrap();
        rc.run(40);
        assert_eq!(rc.epoch(), 1);
        let old = rc.retired().first().unwrap().obs.as_ref().unwrap();
        let live = rc.hv().obs().unwrap();
        assert_eq!(old.sink.dropped() + live.sink.dropped(), 0);
        let completes = old
            .sink
            .of_kind(ObsKind::Complete)
            .filter(|e| e.task == 77)
            .count()
            + live
                .sink
                .of_kind(ObsKind::Complete)
                .filter(|e| e.task == 77)
                .count();
        assert_eq!(
            completes, 1,
            "carried job dispatched under exactly one epoch"
        );
        assert!(rc.totals().conserved(), "{:?}", rc.totals());
    }

    #[test]
    fn blown_drain_budget_aborts_and_rolls_back() {
        let mut rc = ReconfigController::new(cfg_a(), 3, 64).unwrap();
        rc.run(2); // boundary at 8 → needed 6 > budget 3
        rc.stage(cfg_b()).unwrap();
        match rc.commit().unwrap_err() {
            RejectReason::DrainBudgetExceeded { needed, budget } => {
                assert_eq!((needed, budget), (6, 3));
            }
            other => panic!("expected DrainBudgetExceeded, got {other:?}"),
        }
        assert_eq!(rc.phase(), ReconfigPhase::Running);
        assert_eq!(rc.epoch(), 0);
        assert_eq!(rc.commit().unwrap_err(), RejectReason::NothingStaged);
        assert_eq!(rc.sink().of_kind(ObsKind::ReconfigAbort).count(), 1);
    }

    #[test]
    fn degraded_at_boundary_aborts_switch() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.run(3);
        rc.stage(cfg_b()).unwrap();
        rc.commit().unwrap();
        rc.hv_mut().degrade();
        rc.run(8);
        assert_eq!(rc.epoch(), 0, "switch must not run under degradation");
        assert_eq!(rc.phase(), ReconfigPhase::Running);
        assert_eq!(rc.hv().vm_count(), 2);
        let aborts: Vec<_> = rc.sink().of_kind(ObsKind::ReconfigAbort).collect();
        assert_eq!(aborts.len(), 1);
        assert_eq!(
            aborts.first().unwrap().arg,
            RejectReason::DegradedAtBoundary.ordinal()
        );
        assert!(rc.drain_latencies().is_empty());
    }

    #[test]
    fn back_to_back_flips_serialize_on_the_drain() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        rc.run(1);
        rc.stage(cfg_b()).unwrap();
        rc.commit().unwrap();
        assert_eq!(
            rc.stage(cfg_one()).unwrap_err(),
            RejectReason::SwitchPending
        );
        assert_eq!(rc.commit().unwrap_err(), RejectReason::SwitchPending);
        rc.run(8);
        assert_eq!(rc.epoch(), 1);
        rc.stage(cfg_one()).unwrap();
        rc.commit().unwrap();
        rc.run(8);
        assert_eq!(rc.epoch(), 2);
        assert_eq!(rc.hv().vm_count(), 1);
        assert_eq!(rc.drain_latencies().len(), 2);
    }

    #[test]
    fn explicit_abort_drops_stage_and_pending() {
        let mut rc = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        assert!(!rc.abort(), "nothing to drop yet");
        rc.run(1);
        rc.stage(cfg_b()).unwrap();
        rc.commit().unwrap();
        assert!(rc.abort());
        assert_eq!(rc.phase(), ReconfigPhase::Running);
        rc.run(16);
        assert_eq!(rc.epoch(), 0, "aborted commit never switches");
    }

    #[test]
    fn aborted_commit_is_observationally_identical_to_never_staging() {
        fn drive(rc: &mut ReconfigController, flip: bool) {
            rc.run(2);
            if flip {
                rc.stage(cfg_b()).unwrap();
                rc.commit().unwrap();
            }
            rc.submit(0, 5, 1, 12, true).unwrap();
            rc.submit(1, 6, 2, 20, false).unwrap();
            rc.run(4);
            if flip {
                assert!(rc.abort());
            }
            rc.run(10);
        }
        let mut a = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        a.attach_obs(512);
        let mut b = ReconfigController::new(cfg_a(), 16, 64).unwrap();
        b.attach_obs(512);
        drive(&mut a, true);
        drive(&mut b, false);
        assert_eq!(a.epoch(), 0);
        assert_eq!(
            a.hv().obs().unwrap().sink.render(),
            b.hv().obs().unwrap().sink.render(),
            "live trace must be byte-identical with and without the aborted flip"
        );
        assert_eq!(a.hv().metrics(), b.hv().metrics());
        assert_eq!(a.totals(), b.totals());
    }
}
