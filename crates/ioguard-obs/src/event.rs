//! The unified typed event model.
//!
//! Every runtime crate records through the same vocabulary so one fold, one
//! golden format and one export path cover the whole stack. Ordinals are
//! stable (they appear in goldens and exported JSON): new kinds are only
//! ever appended.

use std::fmt;

/// `vm` value for events that belong to the platform rather than a VM
/// (mode changes, device faults, NoC bookkeeping).
pub const SYSTEM_VM: u32 = u32::MAX;

/// Category of an observed event.
///
/// The `task` and `arg` fields of [`ObsEvent`] are kind-specific; the
/// meaning of each is documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsKind {
    /// A run-time request was admitted into its VM's pool. `task` = task
    /// id, `arg` = WCET in slots.
    Admit,
    /// A submission was refused by flood control (both the tripping
    /// submission and every refusal during the penalty window). `task` =
    /// task id, `arg` = penalty-end slot.
    ThrottledSubmission,
    /// Flood control opened a penalty window on a VM. `task` = 0, `arg` =
    /// penalty-end slot.
    Throttle,
    /// The G-Sched granted the slot to a VM whose L-Sched shadow register
    /// held `task`. One event per granted R-channel slot. `arg` = remaining
    /// execution slots of the chosen job before this slot runs.
    GschedGrant,
    /// A job started or resumed on the device (context switch, not every
    /// slot). `task` = task id, `arg` = 0.
    Dispatch,
    /// A running job was preempted with work left. `task` = task id.
    Preempt,
    /// A job completed before its deadline (deadline met). `task` = task
    /// id, `arg` = end-to-end latency in slots.
    Complete,
    /// A job's deadline passed before completion, or admission refused it
    /// in a way the hardware counts as a miss. `task` = task id, `arg` = 1
    /// when the job was critical, else 0.
    DeadlineMiss,
    /// A P-channel σ* entry fired. `task` = pre-defined task id.
    TableFire,
    /// Best-effort work was shed (graceful degradation, or a full serve
    /// backlog). `task` = task id, `arg` = number of jobs shed (1).
    Shed,
    /// A VM with buffered work was denied the slot by budget enforcement or
    /// an open throttle window.
    ThrottledSlot,
    /// The watchdog retried a stalled transaction. `arg` = attempt number.
    Retry,
    /// A fault became active (a device stall window opened).
    Fault,
    /// A previously faulty component resumed service.
    Recovery,
    /// The hypervisor changed operating mode. `arg` = new mode ordinal.
    ModeChange,
    /// A packet entered the NoC. `task` = packet id.
    NocInject,
    /// A packet was delivered at its destination. `task` = packet id,
    /// `arg` = end-to-end latency in cycles.
    NocDeliver,
    /// A packet was discarded at ejection (CRC-fail model). `task` =
    /// packet id when known, else 0.
    NocDrop,
    /// A packet arrived with its corruption flag set. `task` = packet id.
    NocCorrupt,
    /// Free-form marker for scenario phase boundaries. `task`/`arg` are
    /// caller-defined.
    Marker,
    /// A candidate configuration was staged beside the running system.
    /// `task` = stage id, `arg` = staged VM count.
    ReconfigStage,
    /// A staged configuration finished offline verification. `task` =
    /// stage id, `arg` = 1 when committable, 0 when rejected.
    ReconfigVerify,
    /// A verified stage was committed and became the live configuration.
    /// `task` = stage id (the new epoch), `arg` = switch slot (global).
    ReconfigCommit,
    /// A staged or in-flight reconfiguration was abandoned and the old
    /// configuration kept running. `task` = stage id, `arg` = typed
    /// reject-reason ordinal.
    ReconfigAbort,
    /// Drain progress at a commit boundary. `task` = stage id, `arg` =
    /// drain latency in slots (emitted once, when the drain completes).
    ReconfigDrain,
}

/// All kinds, in ordinal order (for exports and exhaustive folds).
pub const ALL_KINDS: &[ObsKind] = &[
    ObsKind::Admit,
    ObsKind::ThrottledSubmission,
    ObsKind::Throttle,
    ObsKind::GschedGrant,
    ObsKind::Dispatch,
    ObsKind::Preempt,
    ObsKind::Complete,
    ObsKind::DeadlineMiss,
    ObsKind::TableFire,
    ObsKind::Shed,
    ObsKind::ThrottledSlot,
    ObsKind::Retry,
    ObsKind::Fault,
    ObsKind::Recovery,
    ObsKind::ModeChange,
    ObsKind::NocInject,
    ObsKind::NocDeliver,
    ObsKind::NocDrop,
    ObsKind::NocCorrupt,
    ObsKind::Marker,
    ObsKind::ReconfigStage,
    ObsKind::ReconfigVerify,
    ObsKind::ReconfigCommit,
    ObsKind::ReconfigAbort,
    ObsKind::ReconfigDrain,
];

impl ObsKind {
    /// Stable kebab-case label (golden-trace and JSON vocabulary).
    pub const fn label(self) -> &'static str {
        match self {
            ObsKind::Admit => "admit",
            ObsKind::ThrottledSubmission => "throttled-submission",
            ObsKind::Throttle => "throttle",
            ObsKind::GschedGrant => "gsched-grant",
            ObsKind::Dispatch => "dispatch",
            ObsKind::Preempt => "preempt",
            ObsKind::Complete => "complete",
            ObsKind::DeadlineMiss => "deadline-miss",
            ObsKind::TableFire => "table-fire",
            ObsKind::Shed => "shed",
            ObsKind::ThrottledSlot => "throttled-slot",
            ObsKind::Retry => "retry",
            ObsKind::Fault => "fault",
            ObsKind::Recovery => "recovery",
            ObsKind::ModeChange => "mode-change",
            ObsKind::NocInject => "noc-inject",
            ObsKind::NocDeliver => "noc-deliver",
            ObsKind::NocDrop => "noc-drop",
            ObsKind::NocCorrupt => "noc-corrupt",
            ObsKind::Marker => "marker",
            ObsKind::ReconfigStage => "reconfig-stage",
            ObsKind::ReconfigVerify => "reconfig-verify",
            ObsKind::ReconfigCommit => "reconfig-commit",
            ObsKind::ReconfigAbort => "reconfig-abort",
            ObsKind::ReconfigDrain => "reconfig-drain",
        }
    }
}

impl fmt::Display for ObsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observed event.
///
/// Fixed-size and `Copy` so a [`crate::TraceSink`] ring holds them without
/// per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic sequence number within the recording sink (0-based,
    /// counted over *all* records including evicted ones).
    pub seq: u64,
    /// Timestamp: slots for hypervisor events, cycles for NoC events.
    pub at: u64,
    /// What happened.
    pub kind: ObsKind,
    /// Owning VM, or [`SYSTEM_VM`] for platform-level events.
    pub vm: u32,
    /// Kind-specific subject id (task id, packet id, …).
    pub task: u64,
    /// Kind-specific argument (latency, attempt, mode ordinal, …).
    pub arg: u64,
}

impl ObsEvent {
    /// Canonical single-line rendering — the golden-trace format. Stable:
    /// goldens are byte-compared against this.
    pub fn render(&self) -> String {
        let vm = if self.vm == SYSTEM_VM {
            "-".to_string()
        } else {
            self.vm.to_string()
        };
        format!(
            "{seq:>6} @{at:<8} {kind:<20} vm={vm:<4} task={task:<8} arg={arg}",
            seq = self.seq,
            at = self.at,
            kind = self.kind.label(),
            vm = vm,
            task = self.task,
            arg = self.arg,
        )
    }
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_unique() {
        let labels: Vec<&str> = ALL_KINDS.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate label");
        assert_eq!(ObsKind::GschedGrant.to_string(), "gsched-grant");
        assert_eq!(ObsKind::NocDeliver.label(), "noc-deliver");
    }

    #[test]
    fn render_is_stable() {
        let e = ObsEvent {
            seq: 7,
            at: 42,
            kind: ObsKind::Complete,
            vm: 1,
            task: 99,
            arg: 5,
        };
        assert_eq!(
            e.render(),
            "     7 @42       complete             vm=1    task=99       arg=5"
        );
        let sys = ObsEvent {
            vm: SYSTEM_VM,
            kind: ObsKind::ModeChange,
            ..e
        };
        assert!(sys.render().contains("vm=-"));
    }
}
