//! Combined two-layer admission analysis.
//!
//! Bundles the exact G-Sched test (Theorem 1) over the Time Slot Table with
//! the exact per-VM L-Sched tests (Theorem 3) into a single verdict, which
//! is the admission interface the hypervisor model and the experiment
//! drivers use. The pseudo-polynomial Theorems 2 and 4 stay per layer in
//! [`crate::gsched`] and [`crate::lsched`].

use crate::error::SchedError;
use crate::gsched::{theorem1_exact, GschedVerdict};
use crate::lsched::{theorem3_exact, LschedVerdict};
use crate::table::TimeSlotTable;
use crate::task::{PeriodicServer, TaskSet};

/// Default cap on exact-test hyper-periods before the analysis refuses
/// with [`SchedError::HyperPeriodOverflow`].
pub const DEFAULT_MAX_HYPER_PERIOD: u64 = 1 << 26;

/// A complete two-layer system model: the P-channel table, one periodic
/// server per VM and one task set per VM.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLayerAnalysis {
    sigma: TimeSlotTable,
    servers: Vec<PeriodicServer>,
    task_sets: Vec<TaskSet>,
}

/// Verdict of the combined test.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLayerVerdict {
    /// G-Sched outcome (Theorem 1 or 2).
    pub global: GschedVerdict,
    /// One L-Sched outcome per VM (Theorem 3 or 4).
    pub per_vm: Vec<LschedVerdict>,
}

impl TwoLayerVerdict {
    /// True when the global layer and every VM pass.
    pub fn is_schedulable(&self) -> bool {
        self.global.is_schedulable() && self.per_vm.iter().all(LschedVerdict::is_schedulable)
    }

    /// Indices of VMs that fail their local test.
    pub fn failing_vms(&self) -> Vec<usize> {
        self.per_vm
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_schedulable())
            .map(|(i, _)| i)
            .collect()
    }
}

impl TwoLayerAnalysis {
    /// Builds the analysis model.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VmCountMismatch`] when `servers` and
    /// `task_sets` differ in length.
    pub fn new(
        sigma: TimeSlotTable,
        servers: Vec<PeriodicServer>,
        task_sets: Vec<TaskSet>,
    ) -> Result<Self, SchedError> {
        if servers.len() != task_sets.len() {
            return Err(SchedError::VmCountMismatch {
                servers: servers.len(),
                task_sets: task_sets.len(),
            });
        }
        Ok(Self {
            sigma,
            servers,
            task_sets,
        })
    }

    /// The Time Slot Table σ\*.
    pub fn sigma(&self) -> &TimeSlotTable {
        &self.sigma
    }

    /// The periodic servers, one per VM.
    pub fn servers(&self) -> &[PeriodicServer] {
        &self.servers
    }

    /// The per-VM task sets.
    pub fn task_sets(&self) -> &[TaskSet] {
        &self.task_sets
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.servers.len()
    }

    /// Runs the exact tests (Theorems 1 and 3) on both layers.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::HyperPeriodOverflow`] when an exact test's
    /// LCM bound exceeds [`DEFAULT_MAX_HYPER_PERIOD`]; callers can then run
    /// the pseudo-polynomial tests per layer
    /// ([`crate::gsched::theorem2_pseudo_poly`],
    /// [`crate::lsched::theorem4_pseudo_poly`]).
    pub fn schedulable(&self) -> Result<TwoLayerVerdict, SchedError> {
        let global = theorem1_exact(&self.sigma, &self.servers, DEFAULT_MAX_HYPER_PERIOD)?;
        let mut per_vm = Vec::with_capacity(self.servers.len());
        for (server, tasks) in self.servers.iter().zip(&self.task_sets) {
            per_vm.push(theorem3_exact(server, tasks, DEFAULT_MAX_HYPER_PERIOD)?);
        }
        Ok(TwoLayerVerdict { global, per_vm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SporadicTask;

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    fn light_system() -> TwoLayerAnalysis {
        let sigma = TimeSlotTable::from_occupied(10, &[0, 1]).unwrap();
        let servers = vec![
            PeriodicServer::new(5, 2).unwrap(),
            PeriodicServer::new(10, 3).unwrap(),
        ];
        let vm0: TaskSet = vec![task(20, 2, 10)].into();
        let vm1: TaskSet = vec![task(40, 4, 30)].into();
        TwoLayerAnalysis::new(sigma, servers, vec![vm0, vm1]).unwrap()
    }

    #[test]
    fn arity_mismatch_rejected() {
        let sigma = TimeSlotTable::from_occupied(4, &[]).unwrap();
        let servers = vec![PeriodicServer::new(4, 1).unwrap()];
        assert!(matches!(
            TwoLayerAnalysis::new(sigma, servers, vec![]),
            Err(SchedError::VmCountMismatch { .. })
        ));
    }

    #[test]
    fn light_system_is_schedulable_both_ways() {
        let a = light_system();
        let exact = a.schedulable().unwrap();
        assert!(exact.is_schedulable());
        assert!(exact.failing_vms().is_empty());
    }

    #[test]
    fn failing_vm_is_identified() {
        let sigma = TimeSlotTable::from_occupied(10, &[0, 1]).unwrap();
        let servers = vec![
            PeriodicServer::new(5, 2).unwrap(),
            PeriodicServer::new(10, 1).unwrap(), // starved server
        ];
        let vm0: TaskSet = vec![task(20, 2, 10)].into();
        let vm1: TaskSet = vec![task(10, 5, 10)].into(); // util 0.5 ≫ 0.1
        let a = TwoLayerAnalysis::new(sigma, servers, vec![vm0, vm1]).unwrap();
        let v = a.schedulable().unwrap();
        assert!(!v.is_schedulable());
        assert!(v.global.is_schedulable());
        assert_eq!(v.failing_vms(), vec![1]);
    }

    #[test]
    fn analysis_implies_simulation_success() {
        // The load-bearing cross-check: analysis says schedulable ⇒ the
        // slot-level two-layer simulation observes zero misses for both the
        // synchronous and a randomized sporadic pattern.
        use crate::edfsim::{simulate_two_layer, sporadic_releases, synchronous_releases};
        let a = light_system();
        assert!(a.schedulable().unwrap().is_schedulable());
        let horizon = 2000;
        for mode in 0..4 {
            let traces: Vec<_> = a
                .task_sets()
                .iter()
                .enumerate()
                .map(|(i, ts)| {
                    if mode == 0 {
                        synchronous_releases(ts, horizon)
                    } else {
                        sporadic_releases(ts, horizon, 100 * mode + i as u64)
                    }
                })
                .collect();
            let reports = simulate_two_layer(a.sigma(), a.servers(), &traces, horizon);
            assert!(
                reports.iter().all(|r| r.all_deadlines_met()),
                "mode {mode}: {reports:?}"
            );
        }
    }

    #[test]
    fn utilization_accessors() {
        let a = light_system();
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.sigma().len(), 10);
        assert_eq!(a.servers().len(), 2);
        assert_eq!(a.task_sets().len(), 2);
    }
}
