//! The assembled hypervisor: P-channel + R-channel + executors.
//!
//! [`Hypervisor::step`] advances one time slot of the global timer:
//!
//! 1. pools expire any buffered job whose deadline has passed (misses),
//! 2. server budgets replenish (server-based policy only),
//! 3. if σ\* marks the slot *occupied*, the P-channel fires its pre-defined
//!    task — untouchable by run-time traffic, which is how pre-loaded tasks
//!    get their hard guarantee,
//! 4. otherwise the G-Sched grants the slot to one VM's pool and the
//!    executor runs one slot of that pool's earliest-deadline job,
//!    preempting at slot granularity.
//!
//! [`Hypervisor::advance_to`] reaches the state that stepping to a later
//! slot reaches. When nothing watches a slot and nothing can deny one (no
//! observer, no watchdog, global EDF with no throttle window, normal mode,
//! a healthy device), it passes one run at a time instead of stepping.
//! After the deadline sweep, the comparator-tree winner keeps the root
//! until it has run its remaining work or its deadline slot comes, so one
//! pass walks σ\* over that run: the P-channel fires in the occupied
//! slots, and the free and reclaimed ones go to the winner in one grant,
//! or idle when nothing is buffered. Any other configuration steps slot by
//! slot. [`Hypervisor::slot_passes`] counts the passes. In that
//! configuration with nothing buffered and nothing left to hand over, the
//! hypervisor is [`Hypervisor::quiescent`]: a slot can only idle or fire
//! σ\*, so a caller may skip slots and catch up with `advance_to`.
//!
//! Every decision — each submission verdict, each job's fate and one
//! disposition per slot — leaves the device once, as a typed [`HvEvent`],
//! through a single private emission point that folds it into the
//! [`HvMetrics`], feeds the optional observer and queues it for
//! [`Hypervisor::step_into`]. The σ\* walk, which nothing observes and
//! whose events are discarded as stepping discards them, folds the
//! P-channel's dispositions and a run's repeated free-slot dispositions
//! straight into the metrics.

// lint: allow(indexing, file) — pool indices come from the G-Sched grant
// (bounded by the pool count it was handed) and task indices from the
// P-channel's own fire() result; pjob_state is sized to tasks() at build.

use ioguard_sim::rng::mix64;

use crate::driver::{RetryPolicy, Watchdog, WatchdogVerdict};
use crate::error::{HvError, SubmitError};
use crate::event::{HvEvent, RefuseReason};
use crate::gsched::{Gsched, GschedPolicy};
use crate::obs::HvObs;
use crate::pchannel::{PChannel, PredefinedTask, SlotOwner};
use crate::pool::{IoPool, PoolEntry, NEVER_DISPATCHED};
use crate::shadowindex::ShadowIndex;

pub use crate::metrics::{HvMetrics, VmMetrics};

/// Default hardware queue capacity of each I/O pool.
pub const DEFAULT_POOL_CAPACITY: usize = 32;

/// Slack-reclamation model for the P-channel: pre-defined jobs whose actual
/// execution undershoots their reserved WCET release the residual table
/// slots to the R-channel ("the hypervisor schedules and executes run-time
/// tasks when the pre-defined tasks are not occupying the I/O", Sec. II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PchannelReclaim {
    /// Seed of the deterministic per-job execution-time sampling.
    pub seed: u64,
    /// Minimum actual execution time as a fraction of WCET (uniform in
    /// `[min_fraction, 1.0]`).
    pub min_fraction: f64,
}

/// Construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HypervisorParams {
    /// Number of VMs (pools).
    pub vms: usize,
    /// Queue capacity of each pool.
    pub pool_capacity: usize,
    /// G-Sched policy.
    pub policy: GschedPolicy,
    /// Pre-defined tasks loaded at initialization.
    pub predefined: Vec<PredefinedTask>,
    /// Maximum σ\* hyper-period the banks can hold, in slots.
    pub max_table_len: u64,
    /// Optional P-channel slack reclamation (None: pre-defined jobs consume
    /// their full reserved WCET).
    pub reclaim: Option<PchannelReclaim>,
    /// Optional per-transaction watchdog (None: device faults burn slots
    /// without retries and never trigger degradation).
    pub watchdog: Option<RetryPolicy>,
    /// Graceful-degradation tuning (recovery threshold).
    pub degradation: DegradationPolicy,
    /// Optional submission flood control (None: no admission throttling).
    pub admission_guard: Option<AdmissionGuard>,
}

impl HypervisorParams {
    /// Defaults: global-EDF policy, 32-entry pools
    /// ([`DEFAULT_POOL_CAPACITY`]), no pre-defined tasks.
    pub fn new(vms: usize) -> Self {
        Self {
            vms,
            pool_capacity: DEFAULT_POOL_CAPACITY,
            policy: GschedPolicy::GlobalEdf,
            predefined: Vec::new(),
            max_table_len: 1 << 22,
            reclaim: None,
            watchdog: None,
            degradation: DegradationPolicy::default(),
            admission_guard: None,
        }
    }

    /// Sets the pre-defined (P-channel) task load.
    pub fn with_predefined(mut self, predefined: Vec<PredefinedTask>) -> Self {
        self.predefined = predefined;
        self
    }

    /// Sets the G-Sched policy.
    pub fn with_policy(mut self, policy: GschedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables P-channel slack reclamation.
    pub fn with_reclaim(mut self, reclaim: PchannelReclaim) -> Self {
        self.reclaim = Some(reclaim);
        self
    }

    /// Enables the per-transaction watchdog (timeout + bounded retry with
    /// exponential backoff; exhaustion triggers graceful degradation).
    pub fn with_watchdog(mut self, policy: RetryPolicy) -> Self {
        self.watchdog = Some(policy);
        self
    }

    /// Tunes graceful degradation (recovery threshold).
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = policy;
        self
    }

    /// Enables submission flood control.
    pub fn with_admission_guard(mut self, guard: AdmissionGuard) -> Self {
        self.admission_guard = Some(guard);
        self
    }
}

/// A run-time I/O job submitted through a VM's para-virtualized driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtJob {
    /// Target VM.
    pub vm: usize,
    /// Task identifier (for tracing; uniqueness is the caller's business).
    pub task_id: u64,
    /// Release slot (must be the current slot when submitting live).
    pub release: u64,
    /// Required execution slots.
    pub wcet: u64,
    /// Absolute deadline slot (exclusive).
    pub deadline: u64,
    /// True when a miss of this job fails the trial.
    pub critical: bool,
}

impl RtJob {
    /// Creates a critical job with 64-byte response payload.
    pub fn new(vm: usize, task_id: u64, release: u64, wcet: u64, deadline: u64) -> Self {
        Self {
            vm,
            task_id,
            release,
            wcet,
            deadline,
            critical: true,
        }
    }

    /// Marks the job best-effort: its misses do not fail a trial.
    pub fn best_effort(mut self) -> Self {
        self.critical = false;
        self
    }
}

/// Operating mode of the hypervisor's graceful-degradation machine.
///
/// On persistent device failure (watchdog retry budget exhausted) the mode
/// steps down one level at a time; after a configured run of healthy slots
/// it steps back up. Every transition is emitted as
/// [`HvEvent::ModeChange`] and counted in [`HvMetrics::mode_changes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HvMode {
    /// Full service: P-channel and R-channel both live.
    #[default]
    Normal,
    /// Best-effort work is shed (from the pools and at admission); critical
    /// run-time jobs still run.
    Degraded,
    /// Only the pre-defined σ\* table executes; all run-time submissions
    /// are refused.
    PchannelOnly,
}

impl HvMode {
    /// Stable ordinal carried in the `arg` field of mode-change traces.
    pub const fn ordinal(self) -> u32 {
        match self {
            HvMode::Normal => 0,
            HvMode::Degraded => 1,
            HvMode::PchannelOnly => 2,
        }
    }
}

/// Graceful-degradation tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Consecutive healthy slots before the mode steps back up one level.
    pub healthy_slots_to_recover: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            healthy_slots_to_recover: 64,
        }
    }
}

/// Flood control at the para-virtualized driver boundary: a VM submitting
/// more than `max_submissions` jobs inside a `window`-slot window is cut
/// off for `throttle_slots` slots (babbling-idiot countermeasure) — both
/// at admission and in the G-Sched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionGuard {
    /// Window length, in slots.
    pub window: u64,
    /// Submissions accepted per VM per window.
    pub max_submissions: u64,
    /// Penalty window once tripped, in slots.
    pub throttle_slots: u64,
}

/// Per-VM flood-control state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AdmState {
    window_start: u64,
    count: u64,
    throttled_until: u64,
}

/// The I/O-GUARD hypervisor device model.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    pools: Vec<IoPool>,
    /// Comparator tree over the pools' shadow registers, refreshed on every
    /// pool mutation — the G-Sched reads its winner in O(1).
    shadow_index: ShadowIndex,
    pchannel: PChannel,
    gsched: Gsched,
    now: u64,
    metrics: HvMetrics,
    reclaim: Option<PchannelReclaim>,
    /// Per pre-defined task: (reserved slots left in the current job's
    /// table allocation, actual work remaining, job counter). Only used
    /// when `reclaim` is Some.
    pjob_state: Vec<PjobState>,
    /// (vm, task_id) of the job that ran in the previous R-channel slot —
    /// used to detect dispatches and preemptions.
    last_dispatched: Option<(usize, u64)>,
    /// Current operating mode of the degradation machine.
    mode: HvMode,
    /// Per-transaction watchdog (None: faults burn slots silently).
    watchdog: Option<Watchdog>,
    /// Degradation tuning.
    degradation: DegradationPolicy,
    /// Flood control configuration and per-VM state.
    admission: Option<AdmissionGuard>,
    adm_state: Vec<AdmState>,
    /// Device stalled while `now < device_stall_until` (transient fault).
    device_stall_until: u64,
    /// Edge detector for Fault/Recovery events.
    device_fault_active: bool,
    /// Consecutive healthy slots (drives mode recovery).
    healthy_slots: u64,
    /// Slots whose deadline sweep walked the pools.
    deadline_sweeps: u64,
    /// Passes of the slot loop: one per slot stepped, one per run walked.
    /// A work counter, left out of equality.
    slot_passes: u64,
    /// Events emitted since the caller last took them
    /// ([`Hypervisor::step_into`], [`Hypervisor::drain_events`]).
    outbox: Vec<HvEvent>,
    /// Optional observer (structured events + latency histograms) fed from
    /// the event stream. `None` by default.
    obs: Option<Box<HvObs>>,
}

/// Equality over the device state, without the `slot_passes` work
/// counter: advancing and stepping reach equal hypervisors in different
/// numbers of passes.
impl PartialEq for Hypervisor {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            pools,
            shadow_index,
            pchannel,
            gsched,
            now,
            metrics,
            reclaim,
            pjob_state,
            last_dispatched,
            mode,
            watchdog,
            degradation,
            admission,
            adm_state,
            device_stall_until,
            device_fault_active,
            healthy_slots,
            deadline_sweeps,
            slot_passes: _,
            outbox,
            obs,
        } = self;
        *pools == other.pools
            && *shadow_index == other.shadow_index
            && *pchannel == other.pchannel
            && *gsched == other.gsched
            && *now == other.now
            && *metrics == other.metrics
            && *reclaim == other.reclaim
            && *pjob_state == other.pjob_state
            && *last_dispatched == other.last_dispatched
            && *mode == other.mode
            && *watchdog == other.watchdog
            && *degradation == other.degradation
            && *admission == other.admission
            && *adm_state == other.adm_state
            && *device_stall_until == other.device_stall_until
            && *device_fault_active == other.device_fault_active
            && *healthy_slots == other.healthy_slots
            && *deadline_sweeps == other.deadline_sweeps
            && *outbox == other.outbox
            && *obs == other.obs
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PjobState {
    reserved_left: u64,
    remaining: u64,
    job_counter: u64,
}

/// Mixes three words into a well-spread hash.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    mix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.rotate_left(23))
}

impl Hypervisor {
    /// Builds the hypervisor.
    ///
    /// # Errors
    ///
    /// * [`HvError::InvalidConfig`] for zero VMs, zero pool capacity, or a
    ///   server-based policy whose server count differs from `vms`.
    /// * [`HvError::TableConstruction`] when the pre-defined tasks do not
    ///   fit a feasible σ\*.
    pub fn new(params: HypervisorParams) -> Result<Self, HvError> {
        if params.vms == 0 {
            return Err(HvError::InvalidConfig {
                reason: "at least one VM".into(),
            });
        }
        if params.pool_capacity == 0 {
            return Err(HvError::InvalidConfig {
                reason: "pool capacity must be positive".into(),
            });
        }
        if let GschedPolicy::ServerBased(servers) | GschedPolicy::GuardedEdf(servers) =
            &params.policy
        {
            if servers.len() != params.vms {
                return Err(HvError::InvalidConfig {
                    reason: format!("{} servers for {} VMs", servers.len(), params.vms),
                });
            }
        }
        if let Some(guard) = &params.admission_guard {
            if guard.window == 0 || guard.max_submissions == 0 {
                return Err(HvError::InvalidConfig {
                    reason: "admission guard window and max_submissions must be positive".into(),
                });
            }
        }
        let pchannel = PChannel::build(params.predefined, params.max_table_len)?;
        let pjob_state = vec![PjobState::default(); pchannel.tasks().len()];
        let pools = (0..params.vms)
            .map(|_| IoPool::new(params.pool_capacity))
            .collect();
        Ok(Self {
            pools,
            shadow_index: ShadowIndex::new(params.vms),
            pchannel,
            gsched: Gsched::new(params.policy),
            now: 0,
            metrics: HvMetrics::with_vms(params.vms),
            reclaim: params.reclaim,
            pjob_state,
            last_dispatched: None,
            mode: HvMode::Normal,
            watchdog: params.watchdog.map(Watchdog::new),
            degradation: params.degradation,
            admission: params.admission_guard,
            adm_state: vec![AdmState::default(); params.vms],
            device_stall_until: 0,
            device_fault_active: false,
            healthy_slots: 0,
            deadline_sweeps: 0,
            slot_passes: 0,
            outbox: Vec::new(),
            obs: None,
        })
    }

    /// Attaches the observability layer: a structured event sink of
    /// `capacity` events plus the latency histograms. Replaces any observer
    /// already attached (fresh state).
    pub fn attach_obs(&mut self, capacity: usize) {
        self.obs = Some(Box::new(HvObs::new(capacity, self.pools.len())));
    }

    /// The attached observer, if any.
    pub fn obs(&self) -> Option<&HvObs> {
        self.obs.as_deref()
    }

    /// Detaches and returns the observer (the hypervisor keeps running
    /// unobserved).
    pub fn take_obs(&mut self) -> Option<Box<HvObs>> {
        self.obs.take()
    }

    /// The one emission point: folds `event` into the metrics, hands it to
    /// the observer, and queues it for the caller.
    #[inline(always)]
    fn emit(&mut self, event: HvEvent) {
        self.metrics.fold(&event);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.observe(self.now, &event);
        }
        self.outbox.push(event);
    }

    /// [`Hypervisor::emit`], or inside the σ\* walk (`WALK`) only the fold:
    /// the walk runs with no observer and discards its events, so it does
    /// not queue them.
    #[inline(always)]
    fn record<const WALK: bool>(&mut self, event: HvEvent) {
        if WALK {
            self.metrics.fold(&event);
        } else {
            self.emit(event);
        }
    }

    /// Appends every event emitted since the last hand-off to `out`, in
    /// emission order — for callers between steps (submissions,
    /// [`Hypervisor::degrade`]).
    pub fn drain_events(&mut self, out: &mut Vec<HvEvent>) {
        out.append(&mut self.outbox);
    }

    /// Current slot of the global timer.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Execution metrics so far (the fold of every event emitted).
    pub fn metrics(&self) -> &HvMetrics {
        &self.metrics
    }

    /// The P-channel (σ\* and pre-defined tasks).
    pub fn pchannel(&self) -> &PChannel {
        &self.pchannel
    }

    /// The per-VM pools.
    pub fn pools(&self) -> &[IoPool] {
        &self.pools
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.pools.len()
    }

    /// Current operating mode of the degradation machine.
    pub fn mode(&self) -> HvMode {
        self.mode
    }

    /// Slots whose deadline sweep walked the pools since construction. The
    /// comparator-tree root opens the sweep only when a buffered job's
    /// deadline has passed, and every such sweep reports that job's miss, so
    /// this never exceeds the misses the sweeps report.
    pub fn deadline_sweeps(&self) -> u64 {
        self.deadline_sweeps
    }

    /// Passes of the slot loop since construction: one per slot stepped,
    /// and in [`Hypervisor::advance_to`]'s walk over σ\* one per run: a
    /// job's slots up to its completion or deadline slot, or an idle
    /// stretch, cut at the slot the call advances to.
    pub fn slot_passes(&self) -> u64 {
        self.slot_passes
    }

    /// Injects a transient device fault: I/O transactions stall for the
    /// next `slots` slots (extends any stall already in effect).
    pub fn inject_device_stall(&mut self, slots: u64) {
        self.device_stall_until = self.device_stall_until.max(self.now.saturating_add(slots));
    }

    /// True while an injected device stall is in effect at the current
    /// slot.
    pub fn device_faulty(&self) -> bool {
        self.now < self.device_stall_until
    }

    /// Clears any injected device stall.
    pub fn clear_device_faults(&mut self) {
        self.device_stall_until = 0;
    }

    /// Steps the mode machine one level down (towards P-channel-only).
    /// Entering [`HvMode::Degraded`] sheds best-effort work from every
    /// pool, one [`HvEvent::Shed`] per job. Called on watchdog exhaustion;
    /// public so NoC-level fault drivers can escalate too.
    pub fn degrade(&mut self) {
        let next = match self.mode {
            HvMode::Normal => HvMode::Degraded,
            HvMode::Degraded => HvMode::PchannelOnly,
            HvMode::PchannelOnly => return,
        };
        self.set_mode(next);
        if next == HvMode::Degraded {
            for vm in 0..self.pools.len() {
                for job in self.pools[vm].shed_best_effort() {
                    self.emit(HvEvent::Shed { vm, job });
                }
                self.sync_shadow(vm);
            }
        }
    }

    /// Enters `next` (emitting the transition) and resets the recovery
    /// clock.
    fn set_mode(&mut self, next: HvMode) {
        if next == self.mode {
            return;
        }
        self.mode = next;
        self.healthy_slots = 0;
        self.emit(HvEvent::ModeChange(next));
    }

    /// Refreshes the comparator-tree leaf of VM `vm` from its pool's shadow
    /// register. Must follow every pool mutation.
    #[inline]
    fn sync_shadow(&mut self, vm: usize) {
        self.shadow_index.update(vm, self.pools[vm].shadow_key());
    }

    /// Expires `vm`'s buffered jobs whose deadline has passed (O(1) when
    /// nothing expired).
    #[inline(always)]
    fn expire<const WALK: bool>(&mut self, vm: usize) {
        let missed = self.pools[vm].expire(self.now);
        if missed.is_empty() {
            return;
        }
        for job in missed {
            self.record::<WALK>(HvEvent::Missed { vm, job });
        }
        self.sync_shadow(vm);
    }

    /// Submits a run-time I/O job through VM `job.vm`'s driver.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::UnknownVm`] for an out-of-range VM (no event).
    /// * [`SubmitError::Refused`] when flood control has the VM cut off,
    ///   the operating mode refuses the job (best-effort when degraded;
    ///   everything in P-channel-only), or the pool is full. The refusal is
    ///   also emitted as [`HvEvent::Refused`].
    pub fn submit(&mut self, job: RtJob) -> Result<(), SubmitError> {
        self.submit_with_payload(job, 64)
    }

    /// Submits a job with an explicit response payload size (throughput
    /// accounting).
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::submit`].
    pub fn submit_with_payload(
        &mut self,
        job: RtJob,
        response_bytes: u32,
    ) -> Result<(), SubmitError> {
        let (vm, vms) = (job.vm, self.pools.len());
        if vm >= vms {
            return Err(SubmitError::UnknownVm { vm, vms });
        }
        let job = PoolEntry {
            task_id: job.task_id,
            deadline: job.deadline,
            remaining: job.wcet,
            enqueued_at: self.now,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes,
            critical: job.critical,
        };
        let verdict = self.admit(vm, job);
        self.emit(match verdict {
            Ok(()) => HvEvent::Admitted { vm, job },
            Err(reason) => HvEvent::Refused { vm, job, reason },
        });
        verdict.map_err(SubmitError::Refused)
    }

    /// Flood control, mode gating, then VM `vm`'s pool.
    fn admit(&mut self, vm: usize, job: PoolEntry) -> Result<(), RefuseReason> {
        self.admission_check(vm)?;
        let refused = match self.mode {
            HvMode::Normal => false,
            HvMode::Degraded => !job.critical,
            HvMode::PchannelOnly => true,
        };
        if refused {
            return Err(RefuseReason::Degraded);
        }
        // The hardware sweep is continuous: expired entries free their
        // queue slots before a new job needs one.
        self.expire::<false>(vm);
        let inserted = self.pools[vm]
            .insert(job)
            .map_err(|_| RefuseReason::PoolFull);
        self.sync_shadow(vm);
        inserted
    }

    /// Charges one submission of VM `vm` against flood control.
    fn admission_check(&mut self, vm: usize) -> Result<(), RefuseReason> {
        let Some(guard) = self.admission else {
            return Ok(());
        };
        let now = self.now;
        let Some(st) = self.adm_state.get_mut(vm) else {
            return Ok(());
        };
        if now < st.throttled_until {
            return Err(RefuseReason::Throttled {
                until: st.throttled_until,
            });
        }
        if now >= st.window_start.saturating_add(guard.window) {
            let elapsed = now - st.window_start;
            st.window_start = now - (elapsed % guard.window);
            st.count = 0;
        }
        st.count += 1;
        if st.count > guard.max_submissions {
            let until = now.saturating_add(guard.throttle_slots);
            st.throttled_until = until;
            st.count = 0;
            // The penalty also closes the G-Sched on this VM: a babbling
            // idiot neither submits nor steals free slots.
            self.gsched.throttle(vm, until);
            self.emit(HvEvent::ThrottleTrip { vm, until });
            return Err(RefuseReason::Throttled { until });
        }
        Ok(())
    }

    /// Advances the global timer one slot and discards its events (the
    /// metrics and any observer still see them).
    pub fn step(&mut self) {
        self.advance();
        self.outbox.clear();
    }

    /// Advances the global timer one slot and appends every event emitted
    /// since the last hand-off — submissions, [`Hypervisor::degrade`] and
    /// the slot itself — to `out`, in emission order.
    pub fn step_into(&mut self, out: &mut Vec<HvEvent>) {
        self.advance();
        self.drain_events(out);
    }

    /// Advances the global timer to `slot`, reaching exactly the state
    /// that calling [`Hypervisor::step`] until `now() == slot` reaches; a
    /// `slot` at or before `now()` does nothing. Like `step`, it discards
    /// the events of the slots it passes (the metrics still fold them).
    ///
    /// When nothing watches a slot and nothing can deny one, it walks σ\*
    /// one run at a time, folding the runs' events into the metrics without
    /// queueing them; otherwise it steps every slot.
    pub fn advance_to(&mut self, slot: u64) {
        if self.passes_runs() {
            self.pass_to(slot);
        } else {
            while self.now < slot {
                self.step();
            }
        }
    }

    /// True when a run of slots can be passed at once: no observer and no
    /// watchdog watch the slots, global EDF with no throttle window grants
    /// the comparator-tree winner, the mode is normal and the device
    /// healthy. None of these can change while the timer advances.
    fn passes_runs(&self) -> bool {
        self.obs.is_none()
            && self.watchdog.is_none()
            && !self.gsched.has_guards()
            && self.mode == HvMode::Normal
            && !self.device_fault_active
            && !self.device_faulty()
    }

    /// True when stepping can change nothing a caller reads but the clock
    /// and the metrics: no job is buffered, the outbox is empty, and a run
    /// of slots can be passed at once (no observer or watchdog, global EDF
    /// with no throttle window, normal mode, a healthy device). Each slot
    /// stepped from here emits only [`HvEvent::Idle`] or
    /// [`HvEvent::PchannelSlot`] and leaves the hypervisor quiescent, and
    /// [`Hypervisor::advance_to`] reaches the same state in one pass. A
    /// caller that answers neither event may leave a quiescent hypervisor
    /// behind its clock, as long as it calls `advance_to` before the next
    /// submission, [`Hypervisor::degrade`] or
    /// [`Hypervisor::inject_device_stall`].
    pub fn quiescent(&self) -> bool {
        self.shadow_index.min().is_none() && self.outbox.is_empty() && self.passes_runs()
    }

    /// [`Hypervisor::advance_to`]'s walk, one pass per run. After the
    /// deadline sweep no submission arrives inside the call, so the
    /// comparator-tree winner keeps the root until it has had its remaining
    /// slots or its deadline slot comes. The pass walks σ\* over that run:
    /// the P-channel fires in the occupied slots, reclaim machine included,
    /// and the free and reclaimed slots go to the winner in one R-channel
    /// grant, or idle. σ\* is read at a table cursor, so the timer is
    /// reduced modulo the hyper-period once per call. A pass leaves the
    /// G-Sched clock, the healthy-slot count and the last dispatch where
    /// stepping its slots would.
    ///
    /// Nothing observes the walk and stepping would discard its events, so
    /// they fold into the metrics and are never queued; the dispatch edge
    /// (the `Preempt` pool scan, the `Preempt` and `Dispatch` events) is
    /// skipped, as no fold reads it. The outbox is cleared once, as the
    /// first slot stepped would clear it, and stays empty.
    // lint: hot-path — one pass per job run of a trial
    fn pass_to(&mut self, slot: u64) {
        if self.now < slot {
            self.outbox.clear();
        }
        let hyper = self.pchannel.hyper_period() as usize;
        let mut index = (self.now % hyper as u64) as usize;
        while self.now < slot {
            let now = self.now;
            self.slot_passes = self.slot_passes.saturating_add(1);
            self.sweep::<true>(now);
            // The run ends where the winner has had its remaining slots (an
            // entry with no work left still takes one) or at its deadline
            // slot, where the next pass's sweep takes it. With nothing
            // buffered, every free slot up to `slot` idles.
            let (end, need) = match self.shadow_index.min() {
                Some((deadline, _, vm)) => {
                    let remaining = self.pools[vm].shadow().map_or(0, |e| e.remaining);
                    (slot.min(deadline), remaining.max(1))
                }
                None => (slot, u64::MAX),
            };
            // `free` counts the free and reclaimed slots, all of which go to
            // the R-channel.
            let mut t = now;
            let mut first = None;
            let mut free = 0;
            while t < end && free < need {
                let fired = self
                    .pchannel
                    .owner_at(index)
                    .and_then(|owner| self.pchannel_slot(owner));
                match fired {
                    Some(event) => self.record::<true>(event),
                    None => {
                        first.get_or_insert(t);
                        // lint: allow(unchecked-arith) — the loop runs while free < need, so free + 1 ≤ need
                        free += 1;
                    }
                }
                t += 1;
                index += 1;
                if index == hyper {
                    index = 0;
                }
            }
            if let Some(first) = first {
                self.rchannel_run::<true>(first, free, t, true);
            }
            self.gsched.tick(t - 1);
            self.healthy_slots = self.healthy_slots.saturating_add(t - now);
            self.now = t;
        }
    }

    /// One slot: deadline sweep, replenishment, device health, then exactly
    /// one slot disposition. The per-slot path is forced inline (here and in
    /// its helpers) so each `emit` site folds only its own variant.
    #[inline(always)]
    fn advance(&mut self) {
        let now = self.now;
        self.slot_passes = self.slot_passes.saturating_add(1);
        // 1. Deadline sweep.
        self.sweep::<false>(now);
        // 2. Server replenishment.
        self.gsched.tick(now);
        // 2b. Device health: emit fault/recovery edges and advance the
        //     mode-recovery clock on healthy slots.
        let device_ok = !self.device_faulty();
        if !device_ok && !self.device_fault_active {
            self.device_fault_active = true;
            self.emit(HvEvent::Fault);
        } else if device_ok && self.device_fault_active {
            self.device_fault_active = false;
            if let Some(wd) = &mut self.watchdog {
                wd.note_progress();
            }
            self.emit(HvEvent::Recovery);
        }
        if device_ok {
            self.healthy_slots = self.healthy_slots.saturating_add(1);
            if self.mode != HvMode::Normal
                && self.healthy_slots >= self.degradation.healthy_slots_to_recover
            {
                let up = match self.mode {
                    HvMode::PchannelOnly => HvMode::Degraded,
                    _ => HvMode::Normal,
                };
                self.set_mode(up);
            }
        } else {
            self.healthy_slots = 0;
        }
        // 3. P-channel owns occupied slots.
        let fired = self
            .pchannel
            .fire(now)
            .and_then(|owner| self.pchannel_slot(owner));
        if let Some(event) = fired {
            self.emit(event);
        } else if self.mode == HvMode::PchannelOnly {
            // Degraded slot table: only σ\* executes, the R-channel is off.
            self.emit(HvEvent::Idle);
        } else if self.watchdog.as_ref().is_some_and(|wd| wd.in_backoff(now)) {
            // The watchdog's exponential-backoff window keeps the executor
            // off the (possibly still faulty) device.
            self.emit(HvEvent::Backoff);
        } else {
            self.rchannel_run::<false>(now, 1, now.saturating_add(1), device_ok);
        }
        // lint: allow(unchecked-arith) — one a slot: 2^64 slots of 50 µs outlast 29 million years
        self.now += 1;
    }

    /// The deadline sweep of slot `now`. The comparator-tree root holds the
    /// earliest buffered deadline, so the pools are walked only in a slot
    /// where it has passed. They pop expired work off their shadow
    /// registers in VM order; the tree is refreshed only for pools that
    /// actually lost entries.
    #[inline(always)]
    fn sweep<const WALK: bool>(&mut self, now: u64) {
        let expired = self
            .shadow_index
            .min()
            .is_some_and(|(deadline, ..)| deadline <= now);
        if expired {
            self.deadline_sweeps = self.deadline_sweeps.saturating_add(1);
            for vm in 0..self.pools.len() {
                self.expire::<WALK>(vm);
            }
        }
    }

    /// The P-channel's claim on an occupied slot owned by `owner`: σ\* fires
    /// its pre-defined task — unless slack reclamation is on and the job
    /// already finished early, releasing its residual reservation to the
    /// R-channel (`None`).
    #[inline(always)]
    fn pchannel_slot(&mut self, owner: SlotOwner) -> Option<HvEvent> {
        let task = &self.pchannel.tasks()[owner.task_index];
        let completes = match self.reclaim {
            // Full-WCET semantics: the reservation is the execution.
            None => owner.completes_job,
            Some(reclaim) => {
                let wcet = task.task.wcet();
                let state = &mut self.pjob_state[owner.task_index];
                if state.reserved_left == 0 {
                    // First reserved slot of a new job: sample its actual
                    // execution time in [min·C, C] (deterministic).
                    state.reserved_left = wcet;
                    state.job_counter += 1;
                    let h = hash3(reclaim.seed, task.task_id, state.job_counter);
                    let frac = reclaim.min_fraction
                        + (1.0 - reclaim.min_fraction) * (h % 1024) as f64 / 1024.0;
                    state.remaining = ((wcet as f64 * frac).round() as u64).clamp(1, wcet);
                }
                state.reserved_left -= 1;
                if state.remaining == 0 {
                    return None; // residual reservation — reclaimed
                }
                state.remaining -= 1;
                state.remaining == 0
            }
        };
        Some(HvEvent::PchannelSlot {
            task_id: task.task_id,
            completed_bytes: completes.then_some(task.response_bytes),
        })
    }

    /// 4. `slots` free (or reclaimed) slots, the first at `now`: the G-Sched
    ///    grants one pool, reading the winner off the comparator tree, and
    ///    the executor runs the slots on that pool's earliest-deadline job,
    ///    which finishes at `end` if it completes in them. With nothing
    ///    granted the slots idle.
    ///
    ///    Only [`Hypervisor::pass_to`] grants more than one slot: with
    ///    global EDF and no throttle window the winner keeps the root over
    ///    its run, and a run gives it no more slots than its remaining work
    ///    (one when it has none). The first slot's disposition is recorded,
    ///    the repeats fold in one add. In the walk (`WALK`) the events only
    ///    fold, and the dispatch edge is not looked for.
    ///
    ///    A grant whose pool has no shadow entry would be a scheduler bug;
    ///    the slot then idles instead of bringing the model down.
    #[inline(always)]
    fn rchannel_run<const WALK: bool>(&mut self, now: u64, slots: u64, end: u64, device_ok: bool) {
        if self.gsched.has_guards() {
            // Slot-denial accounting: VMs with buffered work that budget
            // enforcement or a throttle window holds back.
            for vm in 0..self.pools.len() {
                if !self.pools[vm].is_empty() && self.gsched.is_blocked(vm) {
                    self.record::<WALK>(HvEvent::ThrottledSlot { vm });
                }
            }
        }
        let granted = self
            .gsched
            .grant_indexed(&self.pools, &self.shadow_index)
            .and_then(|vm| {
                self.pools[vm]
                    .shadow()
                    .map(|e| (vm, e.task_id, e.remaining))
            });
        let Some((vm, task_id, remaining)) = granted else {
            self.record::<WALK>(HvEvent::Idle);
            self.metrics.fold_free_run(false, slots - 1);
            return;
        };
        if !device_ok {
            // The slot was granted but the device made no progress: the
            // watchdog counts it toward its timeout.
            self.emit(HvEvent::Stalled);
            match self.watchdog.as_mut().map(|wd| wd.note_stall(now)) {
                Some(WatchdogVerdict::Retry { attempt, .. }) => {
                    self.emit(HvEvent::Retry { vm, attempt });
                }
                Some(WatchdogVerdict::Exhausted) => self.degrade(),
                Some(WatchdogVerdict::Armed) | None => {}
            }
            return;
        }
        self.record::<WALK>(HvEvent::Grant {
            vm,
            task_id,
            remaining,
        });
        self.metrics.fold_free_run(true, slots - 1);
        let running = (vm, task_id);
        if !WALK && self.last_dispatched != Some(running) {
            // A different job resumed while the previous one still has
            // work: a preemption.
            if let Some((pvm, ptask)) = self.last_dispatched {
                if self
                    .pools
                    .get(pvm)
                    .is_some_and(|p| p.iter().any(|e| e.task_id == ptask))
                {
                    self.emit(HvEvent::Preempt {
                        vm: pvm,
                        task_id: ptask,
                    });
                }
            }
            self.emit(HvEvent::Dispatch { vm, task_id });
        }
        self.last_dispatched = Some(running);
        if let Some(wd) = &mut self.watchdog {
            // Progress on the device closes any stall episode (the
            // Recovery edge is emitted in step 2b).
            wd.note_progress();
        }
        // Stamp the dispatch edge for the latency split (idempotent;
        // invisible to scheduling).
        self.pools[vm].note_dispatch(now);
        if let Ok(Some(job)) = self.pools[vm].execute_slots(slots) {
            // Completion moved the shadow register; a mere budget
            // decrement leaves the key untouched. (The Err arm is
            // unreachable — the shadow register was read non-empty on this
            // same slot.)
            self.sync_shadow(vm);
            self.record::<WALK>(HvEvent::Completed {
                vm,
                job,
                finish: end,
            });
            self.last_dispatched = None;
        }
    }

    /// Runs `slots` consecutive slots ([`Hypervisor::advance_to`]).
    pub fn run(&mut self, slots: u64) {
        self.advance_to(self.now.saturating_add(slots));
    }

    /// Drains every pool for a configuration switch, returning the carried
    /// `(vm, entry)` pairs in deterministic order (VM ascending, earliest
    /// deadline first within a VM) and leaving all shadow state cleared.
    /// The entries are *not* misses — the reconfiguration controller is
    /// responsible for re-inserting each exactly once into the successor
    /// configuration (or accounting for it if its VM departed).
    pub fn drain_pools(&mut self) -> Vec<(usize, PoolEntry)> {
        let mut carried = Vec::new();
        for vm in 0..self.pools.len() {
            for entry in self.pools[vm].drain_all() {
                carried.push((vm, entry));
            }
            self.sync_shadow(vm);
        }
        carried
    }

    /// Re-inserts an entry carried across a configuration switch into VM
    /// `vm`'s pool, bypassing admission control and mode gating: the job
    /// was already admitted under the previous configuration epoch, so no
    /// event is emitted and flood control is not charged — re-admitting
    /// would double-count it.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::UnknownVm`] when `vm` does not exist in this
    ///   configuration (the caller decides whether that is a teardown).
    /// * [`SubmitError::Refused`] with [`RefuseReason::PoolFull`] when the
    ///   pool cannot hold the entry (the caller accounts the loss; nothing
    ///   is silently dropped here).
    pub fn restore_entry(&mut self, vm: usize, entry: PoolEntry) -> Result<(), SubmitError> {
        let vms = self.pools.len();
        let Some(pool) = self.pools.get_mut(vm) else {
            return Err(SubmitError::UnknownVm { vm, vms });
        };
        let result = pool
            .insert(entry)
            .map_err(|_| SubmitError::Refused(RefuseReason::PoolFull));
        self.sync_shadow(vm);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_sched::task::{PeriodicServer, SporadicTask};

    fn predefined(task_id: u64, period: u64, wcet: u64) -> PredefinedTask {
        PredefinedTask {
            task_id,
            vm: 0,
            task: SporadicTask::implicit(period, wcet).unwrap(),
            response_bytes: 100,
            start_offset: 0,
        }
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Hypervisor::new(HypervisorParams {
                vms: 0,
                ..HypervisorParams::new(1)
            }),
            Err(HvError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Hypervisor::new(HypervisorParams {
                pool_capacity: 0,
                ..HypervisorParams::new(2)
            }),
            Err(HvError::InvalidConfig { .. })
        ));
        let bad_servers = HypervisorParams::new(2).with_policy(GschedPolicy::ServerBased(vec![
            PeriodicServer::new(4, 1).unwrap(),
        ]));
        assert!(matches!(
            Hypervisor::new(bad_servers),
            Err(HvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn single_job_completes_with_latency() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 3, 100)).unwrap();
        hv.run(3);
        assert_eq!(hv.metrics().completed, 1);
        assert_eq!(hv.metrics().missed, 0);
        assert_eq!(hv.metrics().latency.mean(), 3.0);
        assert_eq!(hv.metrics().rchannel_slots, 3);
        assert_eq!(hv.now(), 3);
    }

    #[test]
    fn unknown_vm_rejected() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        assert_eq!(
            hv.submit(RtJob::new(5, 1, 0, 1, 10)),
            Err(SubmitError::UnknownVm { vm: 5, vms: 2 })
        );
        let mut events = Vec::new();
        hv.drain_events(&mut events);
        assert!(events.is_empty(), "no VM to attribute an event to");
    }

    #[test]
    fn pool_overflow_counts_as_miss() {
        let params = HypervisorParams {
            pool_capacity: 1,
            ..HypervisorParams::new(1)
        };
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 5, 100)).unwrap();
        assert_eq!(
            hv.submit(RtJob::new(0, 2, 0, 1, 100)),
            Err(SubmitError::Refused(RefuseReason::PoolFull))
        );
        assert_eq!(hv.metrics().missed, 1);
        assert_eq!(hv.metrics().rejected, 1);
    }

    #[test]
    fn deadline_miss_detected() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        // Needs 5 slots by slot 3: impossible.
        hv.submit(RtJob::new(0, 1, 0, 5, 3)).unwrap();
        hv.run(10);
        assert_eq!(hv.metrics().missed, 1);
        assert_eq!(hv.metrics().completed, 0);
        // The pool is clean afterwards.
        assert!(hv.pools()[0].is_empty());
    }

    #[test]
    fn pchannel_owns_its_slots() {
        // Pre-defined task occupies every 2nd slot (T=2, C=1); a run-time
        // job gets only the free slots.
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 2, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 7, 0, 3, 100)).unwrap();
        hv.run(6);
        // 3 P-channel slots, 3 R-channel slots.
        assert_eq!(hv.metrics().pchannel_slots, 3);
        assert_eq!(hv.metrics().rchannel_slots, 3);
        assert_eq!(hv.metrics().predefined_completed, 3);
        assert_eq!(hv.metrics().completed, 1);
        // Run-time job took slots 1, 3, 5 → latency 6.
        assert_eq!(hv.metrics().latency.mean(), 6.0);
    }

    #[test]
    fn predefined_response_bytes_counted() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 4, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.run(8);
        assert_eq!(hv.metrics().predefined_completed, 2);
        assert_eq!(hv.metrics().response_bytes, 200);
        assert_eq!(hv.metrics().idle_slots, 6);
    }

    #[test]
    fn cross_vm_edf_preemption() {
        // VM 0 submits a long lax job; VM 1 later submits a tight one. With
        // global EDF, VM 1's job runs next slot (preempting VM 0's stream).
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 10, 100)).unwrap();
        hv.run(2); // two slots of vm 0's job done
        hv.submit(RtJob::new(1, 2, 2, 2, 6)).unwrap();
        hv.run(2);
        // VM 1's job must have both slots 2 and 3.
        assert_eq!(hv.metrics().completed, 1);
        hv.run(10);
        assert_eq!(hv.metrics().completed, 2);
        assert_eq!(hv.metrics().missed, 0);
    }

    #[test]
    fn server_policy_enforces_isolation() {
        // Two VMs, each with a (Π=4, Θ=2) server on an all-free table. VM 0
        // floods; VM 1 must still receive 2 slots per period.
        let servers = vec![
            PeriodicServer::new(4, 2).unwrap(),
            PeriodicServer::new(4, 2).unwrap(),
        ];
        let params = HypervisorParams::new(2).with_policy(GschedPolicy::ServerBased(servers));
        let mut hv = Hypervisor::new(params).unwrap();
        // VM 0: endless stream of tight jobs (2 per period, each 2 slots —
        // twice its budget). VM 1: one job per period, 2 slots, deadline 4.
        for k in 0..8 {
            let t0 = 4 * k;
            hv.submit(RtJob::new(0, 100 + k, t0, 2, t0 + 2)).unwrap();
            hv.submit(RtJob::new(0, 200 + k, t0, 2, t0 + 4)).unwrap();
            hv.submit(RtJob::new(1, 300 + k, t0, 2, t0 + 4)).unwrap();
            hv.run(4);
        }
        // VM 1 completed all 8 jobs despite VM 0's overload.
        let vm1_done = 8;
        assert!(hv.metrics().completed >= vm1_done);
        // VM 0 must have missed someone (it asked for 4 slots per 4-slot
        // period with a 2-slot budget).
        assert!(hv.metrics().missed > 0);
        // And VM 1's pool is empty — its jobs were never starved.
        assert!(hv.pools()[1].is_empty());
    }

    #[test]
    fn step_is_deterministic() {
        let run = || {
            let params = HypervisorParams::new(2).with_predefined(vec![predefined(1, 8, 2)]);
            let mut hv = Hypervisor::new(params).unwrap();
            for k in 0..20 {
                let t = hv.now();
                let _ = hv.submit(RtJob::new((k % 2) as usize, k, t, 1 + k % 3, t + 20));
                hv.run(5);
            }
            (
                hv.metrics().completed,
                hv.metrics().missed,
                hv.metrics().response_bytes,
                hv.metrics().latency.mean(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_slot_accounting_adds_up() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 4, 2)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 9, 0, 2, 50)).unwrap();
        hv.run(40);
        assert_eq!(hv.metrics().total_slots(), 40);
        assert!(hv.metrics().no_misses());
    }

    /// Steps `slots` slots, appending every event to `events`.
    fn run_into(hv: &mut Hypervisor, slots: u64, events: &mut Vec<HvEvent>) {
        for _ in 0..slots {
            hv.step_into(events);
        }
    }

    #[test]
    fn trace_records_scheduling_events() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        let mut events = Vec::new();
        // Long lax job, then a tight one that preempts it.
        hv.submit(RtJob::new(0, 1, 0, 5, 100)).unwrap();
        run_into(&mut hv, 2, &mut events);
        hv.submit(RtJob::new(1, 2, 2, 1, 6)).unwrap();
        run_into(&mut hv, 10, &mut events);
        let edges: Vec<(usize, u64, bool)> = events
            .iter()
            .filter_map(|e| match *e {
                HvEvent::Preempt { vm, task_id } => Some((vm, task_id, false)),
                HvEvent::Completed { vm, job, .. } => Some((vm, job.task_id, true)),
                _ => None,
            })
            .collect();
        // Job 1 preempted once by job 2, which completes first.
        assert_eq!(edges, [(0, 1, false), (1, 2, true), (0, 1, true)]);
    }

    #[test]
    fn trace_records_misses_and_table_fires() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(9, 4, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 10, 3)).unwrap(); // must miss
        let mut events = Vec::new();
        run_into(&mut hv, 8, &mut events);
        let fires = events
            .iter()
            .filter(|e| matches!(e, HvEvent::PchannelSlot { .. }));
        assert_eq!(fires.count(), 2);
        let missed = |e: &HvEvent| matches!(e, HvEvent::Missed { vm: 0, job } if job.task_id == 1);
        assert!(events.iter().any(missed));
        // `step` hands nothing over; the metrics fold every event anyway.
        let seen = events.len();
        hv.step();
        hv.drain_events(&mut events);
        assert_eq!(events.len(), seen);
        assert_eq!(hv.metrics().total_slots(), 9);
    }

    #[test]
    fn observer_never_changes_the_stream() {
        let run = |observed: bool| {
            let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
            if observed {
                hv.attach_obs(4);
            }
            let mut events = Vec::new();
            for k in 0..40u64 {
                let t = hv.now();
                let job = RtJob::new((k % 2) as usize, k, t, 1 + k % 3, t + 2 + k % 7);
                let _ = hv.submit(if k % 3 == 0 { job.best_effort() } else { job });
                if k == 20 {
                    hv.degrade();
                }
                run_into(&mut hv, 2, &mut events);
            }
            (events, hv.metrics().clone(), hv.pools().to_vec())
        };
        assert_eq!(run(true), run(false));
    }

    /// Submits two jobs per VM at the current slot, one of which cannot
    /// meet its deadline.
    fn load(hv: &mut Hypervisor) {
        let t = hv.now();
        for vm in 0..hv.vm_count() {
            let id = 10 * vm as u64;
            hv.submit(RtJob::new(vm, id, t, 6, t + 90)).unwrap();
            hv.submit(RtJob::new(vm, id + 1, t, 9, t + 5 + vm as u64).best_effort())
                .unwrap();
        }
    }

    /// Drives `hv` to slot `to` twice: with `advance_to`, and with
    /// `step_into` on a clone, whose events it returns.
    fn advanced_and_stepped(hv: Hypervisor, to: u64) -> (Hypervisor, Hypervisor, Vec<HvEvent>) {
        let mut stepped = hv.clone();
        let mut events = Vec::new();
        while stepped.now() < to {
            stepped.step_into(&mut events);
        }
        let mut advanced = hv;
        advanced.advance_to(to);
        (advanced, stepped, events)
    }

    /// The fold of `events` into fresh metrics for `vms` VMs.
    fn folded(events: &[HvEvent], vms: usize) -> HvMetrics {
        let mut metrics = HvMetrics::with_vms(vms);
        for event in events {
            metrics.fold(event);
        }
        metrics
    }

    #[test]
    fn advance_to_passes_each_run_once() {
        let params = HypervisorParams::new(2).with_predefined(vec![predefined(1, 8, 2)]);
        let mut hv = Hypervisor::new(params).unwrap();
        load(&mut hv);
        let (advanced, stepped, events) = advanced_and_stepped(hv, 200);
        assert_eq!(advanced, stepped);
        assert_eq!(*advanced.metrics(), folded(&events, 2));
        assert_eq!(stepped.slot_passes(), 200, "stepping: one pass per slot");
        // One pass per run: job 1 up to its deadline slot 5 and job 11 up
        // to 6, jobs 0 and 10 to their completions at 14 and 22 around
        // σ\*'s slots 0 and 4 of every 8, and the idle rest.
        assert_eq!(advanced.slot_passes(), 5);
    }

    #[test]
    fn advance_to_steps_every_slot_under_an_observer() {
        let params = HypervisorParams::new(2).with_predefined(vec![predefined(1, 8, 2)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.attach_obs(1024);
        load(&mut hv);
        let (advanced, stepped, events) = advanced_and_stepped(hv, 200);
        assert_eq!(advanced.slot_passes(), 200, "one pass per slot stepped");
        // Equality covers the observer: its sink holds the same events.
        assert_eq!(advanced, stepped);
        assert_eq!(*advanced.metrics(), folded(&events, 2));
        // The observer renders every event but the slot dispositions
        // Idle, Stalled and Backoff: one Grant per served slot included.
        let rendered = events
            .iter()
            .filter(|e| !matches!(e, HvEvent::Idle | HvEvent::Stalled | HvEvent::Backoff))
            .count();
        assert_eq!(advanced.obs().unwrap().sink.recorded(), rendered as u64);
    }

    #[test]
    fn advance_to_steps_every_slot_under_a_watchdog() {
        let params = HypervisorParams::new(2).with_watchdog(crate::driver::RetryPolicy {
            timeout_slots: 2,
            max_retries: 3,
            backoff_base: 1,
            backoff_cap: 2,
        });
        let mut hv = Hypervisor::new(params).unwrap();
        load(&mut hv);
        hv.inject_device_stall(12);
        let (advanced, stepped, events) = advanced_and_stepped(hv, 100);
        assert_eq!(advanced.slot_passes(), 100, "one pass per slot stepped");
        assert_eq!(advanced, stepped);
        assert_eq!(*advanced.metrics(), folded(&events, 2));
        let m = advanced.metrics();
        assert!(
            m.stalled_slots > 0 && m.retries > 0 && m.backoff_slots > 0,
            "{m:?}"
        );
        assert!(events.contains(&HvEvent::Recovery));
        // The device is healthy again and the mode normal: the watchdog
        // alone still makes every slot a pass.
        let mut hv = advanced;
        assert!(!hv.device_faulty() && hv.mode() == HvMode::Normal);
        load(&mut hv);
        let (advanced, stepped, _) = advanced_and_stepped(hv, 200);
        assert_eq!(advanced.slot_passes(), 200);
        assert_eq!(advanced, stepped);
    }

    #[test]
    fn advance_to_steps_every_slot_under_guarded_edf() {
        let servers = vec![PeriodicServer::new(10, 2).unwrap(); 2];
        let params = HypervisorParams::new(2).with_policy(GschedPolicy::GuardedEdf(servers));
        let mut hv = Hypervisor::new(params).unwrap();
        load(&mut hv);
        let (advanced, stepped, events) = advanced_and_stepped(hv, 100);
        assert_eq!(advanced.slot_passes(), 100, "one pass per slot stepped");
        assert_eq!(advanced, stepped);
        assert_eq!(*advanced.metrics(), folded(&events, 2));
        let throttled = events
            .iter()
            .filter(|e| matches!(e, HvEvent::ThrottledSlot { .. }))
            .count() as u64;
        assert!(throttled > 0);
        assert_eq!(
            advanced.metrics().vm(0).throttled_slots + advanced.metrics().vm(1).throttled_slots,
            throttled
        );
    }

    #[test]
    fn a_fresh_or_drained_hypervisor_is_quiescent() {
        let params = HypervisorParams::new(2).with_predefined(vec![predefined(1, 8, 2)]);
        let mut hv = Hypervisor::new(params).unwrap();
        assert!(hv.quiescent());
        hv.submit(RtJob::new(0, 1, 0, 3, 100)).unwrap();
        assert!(!hv.quiescent(), "a buffered job");
        let mut events = Vec::new();
        hv.drain_events(&mut events);
        assert!(!hv.quiescent(), "a buffered job, outbox drained");
        while hv.metrics().completed == 0 {
            hv.step_into(&mut events);
        }
        assert!(hv.quiescent(), "completed and handed over");
        hv.run(100);
        assert!(hv.quiescent());
    }

    #[test]
    fn an_undrained_outbox_is_not_quiescent() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        // A submission to a missing VM emits nothing.
        let _ = hv.submit(RtJob::new(3, 1, 0, 1, 10));
        assert!(hv.quiescent());
        hv.submit(RtJob::new(0, 2, 0, 1, 10)).unwrap();
        // A configuration switch carries the job away: nothing is
        // buffered, but its `Admitted` event still waits for the caller.
        assert_eq!(hv.drain_pools().len(), 1);
        assert!(!hv.quiescent());
        hv.drain_events(&mut Vec::new());
        assert!(hv.quiescent());
    }

    #[test]
    fn watching_or_denying_a_slot_ends_quiescence() {
        let mut observed = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        observed.attach_obs(64);
        assert!(!observed.quiescent(), "an observer");
        let watchdog = HypervisorParams::new(1).with_watchdog(crate::driver::RetryPolicy {
            timeout_slots: 2,
            max_retries: 1,
            backoff_base: 1,
            backoff_cap: 2,
        });
        assert!(
            !Hypervisor::new(watchdog).unwrap().quiescent(),
            "a watchdog"
        );
        let servers = vec![PeriodicServer::new(10, 2).unwrap()];
        let server_based = HypervisorParams::new(1).with_policy(GschedPolicy::ServerBased(servers));
        assert!(
            !Hypervisor::new(server_based).unwrap().quiescent(),
            "server budgets"
        );
    }

    #[test]
    fn a_degraded_stalled_or_throttled_hypervisor_is_not_quiescent() {
        let mut degraded = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        degraded.degrade();
        degraded.drain_events(&mut Vec::new());
        assert!(!degraded.quiescent(), "after degrade");

        let mut stalled = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        stalled.inject_device_stall(5);
        assert!(!stalled.quiescent(), "during a stall");
        stalled.run(5);
        // The stall is over, but the recovery edge is still to come.
        assert!(!stalled.device_faulty() && !stalled.quiescent());
        stalled.run(1);
        assert!(stalled.quiescent());

        let guard = AdmissionGuard {
            window: 10,
            max_submissions: 1,
            throttle_slots: 4,
        };
        let mut throttled =
            Hypervisor::new(HypervisorParams::new(1).with_admission_guard(guard)).unwrap();
        assert!(throttled.quiescent(), "flood control alone denies no slot");
        let _ = throttled.submit(RtJob::new(0, 1, 0, 1, 10));
        let _ = throttled.submit(RtJob::new(0, 2, 0, 1, 10));
        throttled.run(100);
        assert!(throttled.pools()[0].is_empty());
        assert!(!throttled.quiescent(), "a throttle window was opened");
    }

    #[test]
    fn watchdog_retries_then_degrades_and_recovers() {
        use crate::driver::RetryPolicy;
        let params = HypervisorParams::new(1)
            .with_watchdog(RetryPolicy {
                timeout_slots: 2,
                max_retries: 2,
                backoff_base: 1,
                backoff_cap: 2,
            })
            .with_degradation(DegradationPolicy {
                healthy_slots_to_recover: 8,
            });
        let mut hv = Hypervisor::new(params).unwrap();
        let mut events = Vec::new();
        hv.submit(RtJob::new(0, 1, 0, 2, 1_000)).unwrap();
        hv.inject_device_stall(50);
        run_into(&mut hv, 50, &mut events);
        // One exhaustion cycle → Degraded; the fault persists, so a second
        // cycle escalates to the P-channel-only fallback table.
        assert_eq!(hv.mode(), HvMode::PchannelOnly);
        let m = hv.metrics().clone();
        assert!(m.stalled_slots > 0, "{m:?}");
        assert!(m.backoff_slots > 0, "{m:?}");
        assert_eq!(m.retries, 4, "2 bounded retries per cycle: {m:?}");
        assert_eq!(m.vm(0).retries, 4);
        assert_eq!(m.mode_changes, 2);
        let edges = |events: &[HvEvent]| -> Vec<HvEvent> {
            let edge = |e: &&HvEvent| matches!(e, HvEvent::Fault | HvEvent::ModeChange(_));
            events.iter().filter(edge).copied().collect()
        };
        assert_eq!(
            edges(&events),
            [
                HvEvent::Fault,
                HvEvent::ModeChange(HvMode::Degraded),
                HvEvent::ModeChange(HvMode::PchannelOnly)
            ]
        );
        // Fault clears at slot 50: the job completes, and after the healthy
        // run the mode steps back to Normal.
        run_into(&mut hv, 20, &mut events);
        assert_eq!(hv.mode(), HvMode::Normal);
        assert_eq!(hv.metrics().completed, 1);
        assert!(events.contains(&HvEvent::Recovery));
        assert!(events.contains(&HvEvent::ModeChange(HvMode::Normal)));
    }

    #[test]
    fn degraded_mode_sheds_best_effort_keeps_critical() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 2, 100)).unwrap();
        for task_id in [2, 5] {
            hv.submit(RtJob::new(0, task_id, 0, 2, 100).best_effort())
                .unwrap();
        }
        let mut events = Vec::new();
        hv.degrade();
        hv.drain_events(&mut events);
        assert_eq!(hv.mode(), HvMode::Degraded);
        assert_eq!(hv.metrics().vm(0).dropped_best_effort, 2);
        // One shed event per job, after the mode change.
        assert_eq!(events[3], HvEvent::ModeChange(HvMode::Degraded));
        let shed: Vec<u64> = events[4..]
            .iter()
            .filter_map(|e| match e {
                HvEvent::Shed { vm: 0, job } => Some(job.task_id),
                _ => None,
            })
            .collect();
        assert_eq!(shed, [2, 5], "{events:?}");
        // New best-effort work is refused at admission; critical accepted.
        assert_eq!(
            hv.submit(RtJob::new(0, 3, 0, 1, 100).best_effort()),
            Err(SubmitError::Refused(RefuseReason::Degraded))
        );
        hv.submit(RtJob::new(0, 4, 0, 1, 100)).unwrap();
        hv.run(10);
        assert_eq!(hv.metrics().completed, 2);
        assert!(hv.metrics().no_misses());
    }

    #[test]
    fn pchannel_only_mode_refuses_all_runtime_work() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 2, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.degrade();
        hv.degrade();
        assert_eq!(hv.mode(), HvMode::PchannelOnly);
        assert_eq!(
            hv.submit(RtJob::new(0, 1, 0, 1, 100)),
            Err(SubmitError::Refused(RefuseReason::Degraded))
        );
        assert_eq!(hv.metrics().missed, 1, "refused critical job is a miss");
        hv.run(4);
        // σ* still fires; no R-channel slots are granted.
        assert_eq!(hv.metrics().predefined_completed, 2);
        assert_eq!(hv.metrics().rchannel_slots, 0);
    }

    #[test]
    fn admission_guard_throttles_babbling_vm() {
        let params = HypervisorParams::new(2).with_admission_guard(AdmissionGuard {
            window: 10,
            max_submissions: 3,
            throttle_slots: 20,
        });
        let mut hv = Hypervisor::new(params).unwrap();
        for k in 0..3 {
            hv.submit(RtJob::new(0, k, 0, 1, 100)).unwrap();
        }
        // Fourth submission in the window trips flood control.
        let throttled = Err(SubmitError::Refused(RefuseReason::Throttled { until: 20 }));
        assert_eq!(hv.submit(RtJob::new(0, 3, 0, 1, 100)), throttled);
        assert_eq!(hv.submit(RtJob::new(0, 4, 0, 1, 100)), throttled);
        assert_eq!(hv.metrics().vm(0).throttled_submissions, 2);
        let mut events = Vec::new();
        hv.drain_events(&mut events);
        let trip = HvEvent::ThrottleTrip { vm: 0, until: 20 };
        assert_eq!(events.iter().filter(|&&e| e == trip).count(), 1);
        // The other VM is unaffected, now and throughout the penalty.
        hv.submit(RtJob::new(1, 10, 0, 1, 100)).unwrap();
        hv.run(25);
        assert!(hv.metrics().no_misses_for(1));
        // Penalty expired: VM 0 submits again (fresh window).
        let t = hv.now();
        hv.submit(RtJob::new(0, 5, t, 1, t + 50)).unwrap();
        hv.run(5);
        assert_eq!(hv.metrics().completed, 5);
    }

    #[test]
    fn throttled_vm_denied_slots_but_others_progress() {
        let params = HypervisorParams::new(2).with_admission_guard(AdmissionGuard {
            window: 100,
            max_submissions: 2,
            throttle_slots: 50,
        });
        let mut hv = Hypervisor::new(params).unwrap();
        // VM 0 fills its allowance with long tight-deadline work, then
        // trips the guard; its buffered jobs must not crowd out VM 1.
        hv.submit(RtJob::new(0, 1, 0, 30, 40)).unwrap();
        hv.submit(RtJob::new(0, 2, 0, 30, 40)).unwrap();
        let _ = hv.submit(RtJob::new(0, 3, 0, 30, 40));
        hv.submit(RtJob::new(1, 10, 0, 5, 60)).unwrap();
        hv.run(20);
        // VM 0 is scheduler-throttled: its EDF-earliest jobs get nothing.
        assert!(hv.metrics().vm(0).throttled_slots > 0);
        assert_eq!(hv.metrics().completed, 1, "vm 1 completed despite edf");
        assert!(hv.metrics().no_misses_for(1));
    }

    #[test]
    fn guarded_edf_policy_validates_server_count() {
        let bad = HypervisorParams::new(2).with_policy(GschedPolicy::GuardedEdf(vec![
            PeriodicServer::new(4, 1).unwrap(),
        ]));
        assert!(matches!(
            Hypervisor::new(bad),
            Err(HvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn drain_and_restore_carry_entries_exactly_once() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 3, 100)).unwrap();
        hv.submit(RtJob::new(1, 2, 0, 2, 50)).unwrap();
        hv.run(1); // one slot of progress on the tighter job
        let carried = hv.drain_pools();
        assert_eq!(carried.len(), 2);
        assert!(hv.pools().iter().all(IoPool::is_empty));
        // Deterministic order: vm ascending.
        assert_eq!(carried[0].0, 0);
        assert_eq!(carried[1].0, 1);
        // Progress is preserved in the carried entry.
        assert_eq!(carried[1].1.remaining, 1);
        // Restore into a fresh hypervisor; no Admit events, jobs finish.
        let mut next = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        next.attach_obs(64);
        for (vm, entry) in carried {
            next.restore_entry(vm, entry).unwrap();
        }
        assert_eq!(next.obs().unwrap().sink.recorded(), 0, "no admit events");
        next.run(10);
        assert_eq!(next.metrics().completed, 2);
        // Restore into an unknown VM is a typed error.
        let mut small = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        let entry = PoolEntry {
            task_id: 9,
            deadline: 10,
            remaining: 1,
            enqueued_at: 0,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes: 64,
            critical: true,
        };
        assert_eq!(
            small.restore_entry(5, entry),
            Err(SubmitError::UnknownVm { vm: 5, vms: 1 })
        );
    }

    #[test]
    fn analysis_schedulable_implies_no_hypervisor_misses() {
        // Cross-validation against the theory crate: build a system that
        // passes the two-layer test, then drive the hypervisor with the
        // synchronous release pattern and expect zero misses.
        use ioguard_sched::analysis::TwoLayerAnalysis;
        use ioguard_sched::task::TaskSet;

        let pre = vec![predefined(1, 10, 2)]; // σ*: 2 occupied per 10
        let servers = vec![
            PeriodicServer::new(5, 2).unwrap(),
            PeriodicServer::new(10, 3).unwrap(),
        ];
        let vm0: TaskSet = vec![SporadicTask::new(20, 2, 10).unwrap()].into();
        let vm1: TaskSet = vec![SporadicTask::new(40, 4, 30).unwrap()].into();

        let pch = PChannel::build(pre.clone(), 1000).unwrap();
        let analysis = TwoLayerAnalysis::new(
            pch.table().clone(),
            servers.clone(),
            vec![vm0.clone(), vm1.clone()],
        )
        .unwrap();
        assert!(analysis.schedulable().unwrap().is_schedulable());

        let params = HypervisorParams::new(2)
            .with_predefined(pre)
            .with_policy(GschedPolicy::ServerBased(servers));
        let mut hv = Hypervisor::new(params).unwrap();
        let horizon = 2000;
        let mut next_id = 0u64;
        for t in 0..horizon {
            for (vm, ts) in [(0usize, &vm0), (1usize, &vm1)] {
                for task in ts.iter() {
                    if t % task.period() == 0 {
                        next_id += 1;
                        hv.submit(RtJob::new(vm, next_id, t, task.wcet(), t + task.deadline()))
                            .unwrap();
                    }
                }
            }
            hv.step();
        }
        hv.run(60); // drain
        assert_eq!(hv.metrics().missed, 0, "{:?}", hv.metrics());
        assert!(hv.metrics().completed > 0);
        assert!(hv.metrics().predefined_completed > 0);
    }
}
