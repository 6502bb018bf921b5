//! The hypervisor's typed event stream.
//!
//! Every decision leaves the device exactly once, as an [`HvEvent`]: a
//! job's fate, the scheduling edges in between, and one *slot disposition*
//! per slot stepped (`PchannelSlot`, `Grant`, `Stalled`, `Backoff` or
//! `Idle`). The hypervisor folds each event into its
//! [`HvMetrics`](crate::HvMetrics), hands it to the optional
//! [`HvObs`](crate::HvObs), and queues it for
//! [`Hypervisor::step_into`](crate::Hypervisor::step_into).

use crate::hypervisor::HvMode;
use crate::pool::PoolEntry;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// Flood control has the VM cut off until this slot.
    Throttled {
        /// First slot at which submissions are accepted again.
        until: u64,
    },
    /// The operating mode refuses this class of work: best-effort while
    /// degraded, every run-time job in P-channel-only mode.
    Degraded,
    /// The VM's I/O pool is full (hardware queues are bounded).
    PoolFull,
}

/// One event out of the hypervisor. `vm` is the owning VM's pool index;
/// a job's fate carries the [`PoolEntry`] as it stood at that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HvEvent {
    /// A submission entered its VM's pool.
    Admitted {
        /// Owning VM.
        vm: usize,
        /// The job as it entered the pool.
        job: PoolEntry,
    },
    /// A submission was refused and never entered a pool.
    Refused {
        /// Owning VM.
        vm: usize,
        /// The refused job.
        job: PoolEntry,
        /// Why it was refused.
        reason: RefuseReason,
    },
    /// Flood control opened a penalty window on `vm`.
    ThrottleTrip {
        /// The throttled VM.
        vm: usize,
        /// First slot at which the VM is served again.
        until: u64,
    },
    /// A buffered job's deadline passed before it completed.
    Missed {
        /// Owning VM.
        vm: usize,
        /// The expired job, with the work it had left.
        job: PoolEntry,
    },
    /// A buffered best-effort job was shed on entering Degraded mode.
    Shed {
        /// Owning VM.
        vm: usize,
        /// The shed job.
        job: PoolEntry,
    },
    /// A run-time job finished its last slot before its deadline.
    Completed {
        /// Owning VM.
        vm: usize,
        /// The finished job (enqueue and first-dispatch slots,
        /// criticality, response bytes).
        job: PoolEntry,
        /// Slot after the job's last device slot.
        finish: u64,
    },
    /// A job started or resumed on the device.
    Dispatch {
        /// Owning VM.
        vm: usize,
        /// Task identifier.
        task_id: u64,
    },
    /// A job lost the device to another while it still had work.
    Preempt {
        /// Owning VM.
        vm: usize,
        /// Task identifier.
        task_id: u64,
    },
    /// A VM with buffered work was denied the slot by budget enforcement
    /// or an open throttle window.
    ThrottledSlot {
        /// The denied VM.
        vm: usize,
    },
    /// The watchdog retried a stalled transaction of `vm`.
    Retry {
        /// VM whose transaction stalled.
        vm: usize,
        /// Attempt number.
        attempt: u32,
    },
    /// The device became faulty (an injected stall window opened).
    Fault,
    /// The device resumed service.
    Recovery,
    /// The degradation machine entered this mode.
    ModeChange(HvMode),
    /// Slot disposition: the P-channel executed its σ\* entry.
    PchannelSlot {
        /// The pre-defined task that owns the slot.
        task_id: u64,
        /// Response bytes when this slot completed the task's job.
        completed_bytes: Option<u32>,
    },
    /// Slot disposition: the G-Sched granted the slot to `vm`, whose
    /// shadow register held `task_id`.
    Grant {
        /// Granted VM.
        vm: usize,
        /// The job that runs this slot.
        task_id: u64,
        /// Its execution slots left before this slot runs.
        remaining: u64,
    },
    /// Slot disposition: the slot was granted but the device made no
    /// progress.
    Stalled,
    /// Slot disposition: the watchdog's backoff window kept the executor
    /// off the device.
    Backoff,
    /// Slot disposition: no eligible work (or the R-channel is down).
    Idle,
}
