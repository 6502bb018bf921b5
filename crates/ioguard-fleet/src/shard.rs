//! One hypervisor shard: σ\*, its incremental admission ledger, and the
//! per-VM Theorem 3 gate.
//!
//! A shard owns exactly the state one I/O-GUARD board would: a time-slot
//! table σ\* and the set of VMs currently bound to it. Global (Theorem 1)
//! admission goes through the shard's [`DemandLedger`], so an admit costs
//! one pruned search plus one staircase add, and an evict one staircase
//! add, instead of a full sweep; the local gate (a server period harmonic
//! with the frame, and Theorem 3 feasibility of the VM's task set against
//! its own server) is shard-independent and exposed as
//! [`locally_schedulable`] so callers check it once per arrival, not once
//! per probe.

use std::collections::BTreeMap;

use ioguard_sched::analysis::DEFAULT_MAX_HYPER_PERIOD;
use ioguard_sched::gsched::GschedVerdict;
use ioguard_sched::lsched::theorem3_exact;
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::{AdmitOutcome, DemandLedger, PeriodicServer, SchedError, TaskSet};

/// True when `server`'s period divides the analysis `frame` every shard
/// shares, and `tasks` is feasible on `server` in isolation (Theorem 3,
/// under the same hyper-period cap as the staging pipeline's
/// [`DEFAULT_MAX_HYPER_PERIOD`]).
///
/// Neither test depends on σ\* or on any other resident VM, so callers
/// evaluate it once per arriving VM; a VM that fails here can never be
/// placed on *any* shard and is rejected outright rather than spilled.
pub fn locally_schedulable(server: &PeriodicServer, tasks: &TaskSet, frame: u64) -> bool {
    frame.is_multiple_of(server.period())
        && theorem3_exact(server, tasks, DEFAULT_MAX_HYPER_PERIOD)
            .map(|v| v.is_schedulable())
            .unwrap_or(false)
}

/// One hypervisor shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    id: usize,
    ledger: DemandLedger,
    tasks: BTreeMap<u64, TaskSet>,
}

impl Shard {
    /// A fresh shard over its own σ\* with the given analysis frame.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidFrame`] when `frame` is not a positive
    /// multiple of `sigma.len()` (see [`DemandLedger::new`]).
    pub fn new(id: usize, sigma: TimeSlotTable, frame: u64) -> Result<Self, SchedError> {
        Ok(Self {
            id,
            ledger: DemandLedger::new(sigma, frame)?,
            tasks: BTreeMap::new(),
        })
    }

    /// This shard's fleet-wide index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of VMs currently resident.
    pub fn resident_count(&self) -> usize {
        self.ledger.resident_count()
    }

    /// True when `vm` is resident here.
    pub fn contains(&self, vm: u64) -> bool {
        self.ledger.contains(vm)
    }

    /// The resident VM ids and their servers, in id order.
    pub fn residents(&self) -> impl Iterator<Item = (u64, &PeriodicServer)> {
        self.ledger.residents()
    }

    /// The server `vm` runs under, if resident.
    pub fn server_of(&self, vm: u64) -> Option<PeriodicServer> {
        self.ledger.resident(vm).copied()
    }

    /// The task set `vm` declared at admission, if resident.
    pub fn tasks_of(&self, vm: u64) -> Option<&TaskSet> {
        self.tasks.get(&vm)
    }

    /// Slack at the end of the analysis frame — the worst-fit ranking key.
    pub fn headroom(&self) -> i64 {
        self.ledger.headroom()
    }

    /// Minimum slack anywhere in the frame.
    pub fn min_slack(&self) -> i64 {
        self.ledger.min_slack()
    }

    /// Read-only Theorem 1 probe: would this shard admit `server`?
    ///
    /// Never mutates the ledger; safe to fan out across threads. A
    /// non-harmonic period never gets here ([`locally_schedulable`]
    /// rejects it first); should one arrive, the answer is `false`.
    pub fn probe(&self, server: &PeriodicServer) -> bool {
        self.ledger.probe(server).unwrap_or(false)
    }

    /// Admits `vm` with `server`, recording `tasks` on success.
    ///
    /// On a `Schedulable` outcome the VM is resident; on `Unschedulable`
    /// the ledger was never changed and neither was the shard.
    ///
    /// # Errors
    ///
    /// Propagates the ledger's typed errors (duplicate id, non-harmonic
    /// period); the shard is unchanged on error.
    pub fn admit(
        &mut self,
        vm: u64,
        server: PeriodicServer,
        tasks: &TaskSet,
    ) -> Result<AdmitOutcome, SchedError> {
        let outcome = self.ledger.admit(vm, server)?;
        if outcome.admitted() {
            self.tasks.insert(vm, tasks.clone());
        }
        Ok(outcome)
    }

    /// Evicts `vm`, returning its server and declared task set.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownVm`] when `vm` is not resident.
    pub fn evict(&mut self, vm: u64) -> Result<(PeriodicServer, TaskSet), SchedError> {
        let server = self.ledger.evict(vm)?;
        let tasks = self.tasks.remove(&vm).unwrap_or_default();
        Ok((server, tasks))
    }

    /// Full-sweep Theorem 1 verdict over the resident set (differential
    /// oracle for the incremental ledger; `O(frame)` — test/debug only).
    pub fn verify_full(&self) -> GschedVerdict {
        self.ledger.verify_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_sched::SporadicTask;

    fn sigma() -> TimeSlotTable {
        TimeSlotTable::from_occupied(64, &[0]).expect("valid table")
    }

    #[test]
    fn admit_probe_evict_roundtrip() {
        let mut shard = Shard::new(0, sigma(), 4096).expect("harmonic frame");
        let server = PeriodicServer::new(256, 16).expect("valid");
        let tasks = TaskSet::new();
        assert!(shard.probe(&server));
        let outcome = shard.admit(7, server, &tasks).expect("no typed error");
        assert!(outcome.admitted());
        assert!(shard.contains(7));
        assert_eq!(shard.server_of(7), Some(server));
        let (back, _) = shard.evict(7).expect("resident");
        assert_eq!(back, server);
        assert_eq!(shard.resident_count(), 0);
    }

    #[test]
    fn local_gate_is_shard_independent_and_rejects_blackout_deadlines() {
        let server = PeriodicServer::new(256, 16).expect("valid");
        let mut ok = TaskSet::new();
        // Deadline past the blackout 2(Π−Θ) = 480.
        ok.push(SporadicTask::new(2048, 8, 1024).expect("C ≤ D ≤ T"));
        assert!(locally_schedulable(&server, &ok, 4096));
        let mut bad = TaskSet::new();
        // Deadline inside the blackout: no supply can arrive in time.
        bad.push(SporadicTask::new(2048, 8, 100).expect("C ≤ D ≤ T"));
        assert!(!locally_schedulable(&server, &bad, 4096));
        // A period that does not divide the frame fails the gate too.
        let odd = PeriodicServer::new(48, 4).expect("valid");
        assert!(!locally_schedulable(&odd, &TaskSet::new(), 4096));
    }

    #[test]
    fn probe_matches_admit_under_pressure() {
        let mut shard = Shard::new(0, sigma(), 4096).expect("harmonic frame");
        let tasks = TaskSet::new();
        let mut id = 0u64;
        // Fill with ~98% utilization worth of servers, checking that every
        // probe verdict agrees with the subsequent admit verdict.
        loop {
            let server = PeriodicServer::new(64, 4).expect("valid");
            let probed = shard.probe(&server);
            let admitted = shard
                .admit(id, server, &tasks)
                .expect("harmonic")
                .admitted();
            assert_eq!(probed, admitted, "probe/admit disagree at vm {id}");
            if !admitted {
                break;
            }
            id += 1;
            assert!(id < 64, "sigma must saturate before 64 servers");
        }
        // Full sweep agrees the resident set is schedulable.
        assert!(shard.verify_full().is_schedulable());
    }
}
