//! Incremental offline re-verification for staged configurations.
//!
//! Online reconfiguration (the `ioguard-reconfig` crate) stages a complete
//! [`TwoLayerAnalysis`] beside the running system and must prove it
//! schedulable *before* the commit point. Re-running the full Theorem 1–4
//! pipeline on every stage is wasteful when most of the system is
//! unchanged: Theorem 3 for VM *i* depends only on that VM's server and
//! task set, and Theorem 1 depends only on (σ\*, servers). This module
//! caches the last proven verdict and re-runs exactly the tests whose
//! inputs changed, reusing the rest — with a differential test asserting
//! the incremental result always equals the from-scratch one.

use crate::analysis::{TwoLayerAnalysis, TwoLayerVerdict};
use crate::error::SchedError;
use crate::gsched::theorem1_exact_counted;
use crate::lsched::theorem3_exact_counted;

/// What a [`IncrementalVerifier::reverify`] call actually recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReverifyStats {
    /// True when Theorem 1 (G-Sched over σ\* and the servers) was re-run.
    pub global_rerun: bool,
    /// VMs whose Theorem 3 test was re-run (server or task set changed,
    /// or the VM is new at this index).
    pub vms_rerun: usize,
    /// VMs whose cached L-Sched verdict was reused unchanged.
    pub vms_reused: usize,
    /// Demand checkpoints actually *visited* across every re-run test:
    /// sweep jump points compared against `sbf` (counting stops at the
    /// first violation, so an early refusal does not charge the whole
    /// sweep). Zero when every verdict was reused from the cache.
    pub checkpoints_visited: u64,
}

/// Result of an incremental re-verification: the (exact) verdict plus an
/// account of how much work was actually done.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverifyOutcome {
    /// The combined two-layer verdict for the candidate configuration.
    pub verdict: TwoLayerVerdict,
    /// Which tests were recomputed vs reused.
    pub stats: ReverifyStats,
}

/// A verifier that remembers the last admitted configuration and its
/// proven verdict, re-running only the changed parts of the pipeline for
/// each candidate.
///
/// # Example
///
/// ```
/// use ioguard_sched::analysis::TwoLayerAnalysis;
/// use ioguard_sched::table::TimeSlotTable;
/// use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
/// use ioguard_sched::verify::IncrementalVerifier;
///
/// let sigma = TimeSlotTable::from_occupied(10, &[0, 1])?;
/// let servers = vec![PeriodicServer::new(5, 2)?, PeriodicServer::new(10, 3)?];
/// let vm0 = TaskSet::from(vec![SporadicTask::new(20, 2, 10)?]);
/// let vm1 = TaskSet::from(vec![SporadicTask::new(40, 4, 30)?]);
/// let old = TwoLayerAnalysis::new(sigma, servers, vec![vm0.clone(), vm1])?;
/// let verifier = IncrementalVerifier::new(old.clone())?;
///
/// // Same σ* and servers, only VM 1's task set changes: Theorem 1 and
/// // VM 0's Theorem 3 are reused, only VM 1 is re-tested.
/// let vm1b = TaskSet::from(vec![SporadicTask::new(40, 2, 30)?]);
/// let next = TwoLayerAnalysis::new(
///     old.sigma().clone(),
///     old.servers().to_vec(),
///     vec![vm0, vm1b],
/// )?;
/// let outcome = verifier.reverify(&next)?;
/// assert!(outcome.verdict.is_schedulable());
/// assert!(!outcome.stats.global_rerun);
/// assert_eq!(outcome.stats.vms_rerun, 1);
/// assert_eq!(outcome.stats.vms_reused, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalVerifier {
    analysis: TwoLayerAnalysis,
    verdict: TwoLayerVerdict,
    max_hyper: u64,
}

impl IncrementalVerifier {
    /// Runs the full exact pipeline (Theorems 1 and 3) on `analysis` and
    /// caches the result, using [`crate::analysis::DEFAULT_MAX_HYPER_PERIOD`].
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::HyperPeriodOverflow`] from the exact tests.
    pub fn new(analysis: TwoLayerAnalysis) -> Result<Self, SchedError> {
        Self::with_limit(analysis, crate::analysis::DEFAULT_MAX_HYPER_PERIOD)
    }

    /// [`Self::new`] with an explicit hyper-period cap for the exact tests.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::HyperPeriodOverflow`] from the exact tests.
    pub fn with_limit(analysis: TwoLayerAnalysis, max_hyper: u64) -> Result<Self, SchedError> {
        let verdict = analysis.schedulable_with_limit(max_hyper)?;
        Ok(Self {
            analysis,
            verdict,
            max_hyper,
        })
    }

    /// The currently cached (last verified) configuration.
    pub fn analysis(&self) -> &TwoLayerAnalysis {
        &self.analysis
    }

    /// The cached verdict for [`Self::analysis`].
    pub fn verdict(&self) -> &TwoLayerVerdict {
        &self.verdict
    }

    /// Verifies `candidate` incrementally against the cached configuration:
    /// Theorem 1 (the full sweep) is re-run only when σ\* or any server
    /// changed, and Theorem 3 only for VMs whose (server, task set) pair
    /// changed or that are new at their index. Reused verdicts come from
    /// the cache.
    ///
    /// The cache is *not* advanced — call [`Self::advance`] once the
    /// candidate is actually committed, so a rejected or aborted stage
    /// leaves the verifier exactly as it was.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] from whichever exact tests were re-run
    /// (e.g. [`SchedError::HyperPeriodOverflow`]).
    pub fn reverify(&self, candidate: &TwoLayerAnalysis) -> Result<ReverifyOutcome, SchedError> {
        let mut stats = ReverifyStats::default();
        let global = if candidate.sigma() == self.analysis.sigma()
            && candidate.servers() == self.analysis.servers()
        {
            self.verdict.global
        } else {
            stats.global_rerun = true;
            let (verdict, visited) =
                theorem1_exact_counted(candidate.sigma(), candidate.servers(), self.max_hyper)?;
            stats.checkpoints_visited = stats.checkpoints_visited.saturating_add(visited);
            verdict
        };
        let mut per_vm = Vec::with_capacity(candidate.servers().len());
        for (i, (server, tasks)) in candidate
            .servers()
            .iter()
            .zip(candidate.task_sets())
            .enumerate()
        {
            let cached = self
                .analysis
                .servers()
                .get(i)
                .zip(self.analysis.task_sets().get(i))
                .filter(|(s, t)| *s == server && *t == tasks)
                .and_then(|_| self.verdict.per_vm.get(i));
            match cached {
                Some(v) => {
                    stats.vms_reused = stats.vms_reused.saturating_add(1);
                    per_vm.push(*v);
                }
                None => {
                    stats.vms_rerun = stats.vms_rerun.saturating_add(1);
                    let (verdict, visited) = theorem3_exact_counted(server, tasks, self.max_hyper)?;
                    stats.checkpoints_visited = stats.checkpoints_visited.saturating_add(visited);
                    per_vm.push(verdict);
                }
            }
        }
        Ok(ReverifyOutcome {
            verdict: TwoLayerVerdict { global, per_vm },
            stats,
        })
    }

    /// Advances the cache to a committed configuration and its verdict
    /// (normally the pair returned by [`Self::reverify`]).
    pub fn advance(&mut self, analysis: TwoLayerAnalysis, verdict: TwoLayerVerdict) {
        self.analysis = analysis;
        self.verdict = verdict;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TimeSlotTable;
    use crate::task::{PeriodicServer, SporadicTask, TaskSet};

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    fn base_system() -> TwoLayerAnalysis {
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
    fn unchanged_candidate_reuses_everything() {
        let base = base_system();
        let verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let outcome = verifier.reverify(&base).unwrap();
        assert!(outcome.verdict.is_schedulable());
        assert!(!outcome.stats.global_rerun);
        assert_eq!(outcome.stats.vms_rerun, 0);
        assert_eq!(outcome.stats.vms_reused, 2);
        assert_eq!(&outcome.verdict, verifier.verdict());
    }

    #[test]
    fn sigma_change_reruns_global_only() {
        let base = base_system();
        let verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let sigma2 = TimeSlotTable::from_occupied(10, &[0, 2]).unwrap();
        let next =
            TwoLayerAnalysis::new(sigma2, base.servers().to_vec(), base.task_sets().to_vec())
                .unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert!(outcome.stats.global_rerun);
        assert_eq!(outcome.stats.vms_rerun, 0);
        assert_eq!(outcome.stats.vms_reused, 2);
        // Differential: equals the from-scratch verdict.
        assert_eq!(outcome.verdict, next.schedulable().unwrap());
    }

    #[test]
    fn vm_join_and_change_rerun_exactly_those_vms() {
        let base = base_system();
        let verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let mut servers = base.servers().to_vec();
        servers.push(PeriodicServer::new(20, 2).unwrap());
        let mut sets = base.task_sets().to_vec();
        sets.push(vec![task(40, 1, 40)].into());
        let next = TwoLayerAnalysis::new(base.sigma().clone(), servers, sets).unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        // Servers changed (one joined) so the global test re-runs; the two
        // existing VMs' local tests are untouched.
        assert!(outcome.stats.global_rerun);
        assert_eq!(outcome.stats.vms_rerun, 1);
        assert_eq!(outcome.stats.vms_reused, 2);
        assert_eq!(outcome.verdict, next.schedulable().unwrap());
    }

    #[test]
    fn vm_departure_shrinks_verdict() {
        let base = base_system();
        let verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let next = TwoLayerAnalysis::new(
            base.sigma().clone(),
            base.servers().to_vec().drain(..1).collect(),
            base.task_sets().to_vec().drain(..1).collect(),
        )
        .unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert_eq!(outcome.verdict.per_vm.len(), 1);
        assert_eq!(outcome.verdict, next.schedulable().unwrap());
    }

    #[test]
    fn advance_moves_the_cache() {
        let base = base_system();
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let vm1b: TaskSet = vec![task(40, 2, 30)].into();
        let next = TwoLayerAnalysis::new(
            base.sigma().clone(),
            base.servers().to_vec(),
            vec![base.task_sets().first().unwrap().clone(), vm1b],
        )
        .unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert_eq!(outcome.stats.vms_rerun, 1);
        verifier.advance(next.clone(), outcome.verdict);
        // Re-verifying the now-current config is free.
        let again = verifier.reverify(&next).unwrap();
        assert!(!again.stats.global_rerun);
        assert_eq!(again.stats.vms_rerun, 0);
    }

    #[test]
    fn incremental_matches_full_on_unschedulable_candidate() {
        let base = base_system();
        let verifier = IncrementalVerifier::new(base.clone()).unwrap();
        // Overload VM 1 so its local test fails.
        let heavy: TaskSet = vec![task(10, 9, 10)].into();
        let next = TwoLayerAnalysis::new(
            base.sigma().clone(),
            base.servers().to_vec(),
            vec![base.task_sets().first().unwrap().clone(), heavy],
        )
        .unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert!(!outcome.verdict.is_schedulable());
        assert_eq!(outcome.verdict, next.schedulable().unwrap());
        assert_eq!(outcome.verdict.failing_vms(), vec![1]);
    }

    #[test]
    fn reverify_matches_from_scratch_under_churn() {
        // Randomized churn: at every step the cached verifier's verdict
        // equals the from-scratch pipeline, globally and per VM.
        let mut state = 0xFEE1_600Du64;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m.max(1)
        };
        let base = base_system();
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
        let mut servers = base.servers().to_vec();
        let mut sets = base.task_sets().to_vec();
        for _ in 0..40 {
            if !servers.is_empty() && rand(3) == 0 {
                let at = rand(servers.len() as u64) as usize;
                servers.remove(at);
                sets.remove(at);
            } else {
                let pi = [5u64, 10, 20][rand(3) as usize];
                servers.push(PeriodicServer::new(pi, 1 + rand(2)).unwrap());
                // Deadlines in [Π, 4Π): some fall inside the server's
                // supply blackout, so the local layer rejects too.
                sets.push(vec![task(4 * pi, 1, pi + rand(3 * pi))].into());
            }
            let candidate =
                TwoLayerAnalysis::new(base.sigma().clone(), servers.clone(), sets.clone()).unwrap();
            let outcome = verifier.reverify(&candidate).unwrap();
            let full = candidate.schedulable().unwrap();
            assert_eq!(outcome.verdict.global, full.global, "servers = {servers:?}");
            assert_eq!(outcome.verdict.per_vm, full.per_vm, "servers = {servers:?}");
            if outcome.verdict.is_schedulable() {
                verifier.advance(candidate, outcome.verdict);
            } else {
                // Keep the model aligned with the verifier on rejection.
                servers = verifier.analysis().servers().to_vec();
                sets = verifier.analysis().task_sets().to_vec();
            }
        }
    }
}
