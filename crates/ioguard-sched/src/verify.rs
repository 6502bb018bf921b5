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

use std::collections::BTreeMap;

use crate::analysis::{TwoLayerAnalysis, TwoLayerVerdict};
use crate::error::SchedError;
use crate::gsched::{theorem1_exact_counted, GschedVerdict};
use crate::ledger::DemandLedger;
use crate::lsched::theorem3_exact_counted;
use crate::task::PeriodicServer;

/// What a [`IncrementalVerifier::reverify`] call actually recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReverifyStats {
    /// True when Theorem 1 (G-Sched over σ\* and the servers) was re-run,
    /// whether by the full sweep or by the O(Δ) ledger path.
    pub global_rerun: bool,
    /// VMs whose Theorem 3 test was re-run (server or task set changed,
    /// or the VM is new at this index).
    pub vms_rerun: usize,
    /// VMs whose cached L-Sched verdict was reused unchanged.
    pub vms_reused: usize,
    /// Demand checkpoints actually *visited* across every re-run test:
    /// sweep jump points compared against `sbf` for the full path
    /// (counting stops at the first violation, so an early refusal does
    /// not charge the whole sweep), and delta events applied for the
    /// ledger path. Zero when every verdict was reused from the cache.
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
/// let mut verifier = IncrementalVerifier::new(old.clone())?;
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
    /// When present, the global layer re-verifies in O(Δ) against this
    /// materialized slack envelope instead of re-sweeping (see
    /// [`Self::with_ledger`]). `None` for plain verifiers.
    ledger: Option<DemandLedger>,
    /// Monotone id source for ledger residents.
    next_ledger_id: u64,
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
            ledger: None,
            next_ledger_id: 0,
        })
    }

    /// [`Self::new`] plus a persistent [`DemandLedger`] over `frame`, so
    /// subsequent [`Self::reverify`] calls answer the *global* layer in
    /// O(Δ log frame) — only the delta events of servers that joined or
    /// left are applied against the cached slack envelope — instead of
    /// re-sweeping the hyper-period.
    ///
    /// Ledger-backed global verdicts report `checked_up_to = frame`
    /// (rather than the LCM hyper-period); both are exact, but callers
    /// comparing verdicts byte-for-byte should compare against
    /// [`crate::ledger::theorem1_frame`] at the same frame.
    ///
    /// If the initial population is itself over capacity (the cached
    /// verdict is globally unschedulable) the verifier falls back to
    /// `ledger = None` and behaves exactly like [`Self::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::HyperPeriodOverflow`] from the initial
    /// full verification and [`SchedError::InvalidFrame`] when `frame` is
    /// out of range or not a common multiple of `σ.len()` and every
    /// server period.
    pub fn with_ledger(analysis: TwoLayerAnalysis, frame: u64) -> Result<Self, SchedError> {
        let mut verifier = Self::new(analysis)?;
        let mut ledger = DemandLedger::new(verifier.analysis.sigma().clone(), frame)?;
        let mut populated = true;
        for server in verifier.analysis.servers() {
            let id = verifier.next_ledger_id;
            verifier.next_ledger_id = verifier.next_ledger_id.saturating_add(1);
            if !ledger.admit(id, *server)?.admitted() {
                populated = false;
                break;
            }
        }
        verifier.ledger = populated.then_some(ledger);
        Ok(verifier)
    }

    /// The slack-envelope ledger backing the O(Δ) global path, if any.
    pub fn ledger(&self) -> Option<&DemandLedger> {
        self.ledger.as_ref()
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
    /// Theorem 1 is re-run only when σ\* or any server changed — in O(Δ)
    /// against the slack-envelope ledger when one is installed (see
    /// [`Self::with_ledger`]) and the candidate keeps σ\* and harmonic
    /// periods, by the full sweep otherwise — and Theorem 3 only for VMs
    /// whose (server, task set) pair changed or that are new at their
    /// index. Reused verdicts come from the cache.
    ///
    /// The cache is *not* advanced — call [`Self::advance`] once the
    /// candidate is actually committed, so a rejected or aborted stage
    /// leaves the verifier exactly as it was. (The ledger probe mutates
    /// and rolls back internally, hence `&mut self`.)
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] from whichever exact tests were re-run
    /// (e.g. [`SchedError::HyperPeriodOverflow`]).
    pub fn reverify(
        &mut self,
        candidate: &TwoLayerAnalysis,
    ) -> Result<ReverifyOutcome, SchedError> {
        let mut stats = ReverifyStats::default();
        let global = if candidate.sigma() == self.analysis.sigma()
            && candidate.servers() == self.analysis.servers()
        {
            self.verdict.global
        } else {
            stats.global_rerun = true;
            match self.ledger_probe(candidate, &mut stats)? {
                Some(verdict) => verdict,
                None => {
                    let (verdict, visited) = theorem1_exact_counted(
                        candidate.sigma(),
                        candidate.servers(),
                        self.max_hyper,
                    )?;
                    stats.checkpoints_visited = stats.checkpoints_visited.saturating_add(visited);
                    verdict
                }
            }
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

    /// O(Δ) global-layer probe: applies only the delta events of the
    /// servers that differ between the cached configuration and
    /// `candidate` against the slack envelope, then rolls everything back
    /// (evicts first — they only raise slack — then checked admits;
    /// rollback runs in exact reverse). Returns `None` when the ledger
    /// path does not apply (no ledger, σ\* changed, or a candidate period
    /// is not harmonic with the frame) so the caller falls back to the
    /// full sweep.
    fn ledger_probe(
        &mut self,
        candidate: &TwoLayerAnalysis,
        stats: &mut ReverifyStats,
    ) -> Result<Option<GschedVerdict>, SchedError> {
        let Some(frame) = self.ledger.as_ref().map(DemandLedger::frame) else {
            return Ok(None);
        };
        if candidate.sigma() != self.analysis.sigma() {
            return Ok(None);
        }
        if candidate.servers().iter().any(|s| frame % s.period() != 0) {
            return Ok(None);
        }
        let (to_evict, to_admit) = server_delta(self.analysis.servers(), candidate.servers());
        let probe_id_base = self.next_ledger_id;
        let Some(ledger) = self.ledger.as_mut() else {
            return Ok(None);
        };
        // Pick concrete resident ids for the parameter multiset to evict.
        let mut ids_by_params: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
        for (id, server) in ledger.residents() {
            ids_by_params
                .entry((server.period(), server.budget()))
                .or_default()
                .push(id);
        }
        // All delta operations go through `consistent`: ids come from the
        // resident set and periods were pre-checked, so none of these can
        // actually fail — but if one ever does, the transaction is torn
        // and the ledger is dropped rather than trusted.
        let mut consistent = true;
        let mut evicted: Vec<(u64, PeriodicServer)> = Vec::with_capacity(to_evict.len());
        for server in &to_evict {
            let ok = ids_by_params
                .get_mut(&(server.period(), server.budget()))
                .and_then(Vec::pop)
                .is_some_and(|id| {
                    evicted.push((id, *server));
                    ledger.evict(id).is_ok()
                });
            if !ok {
                consistent = false;
                break;
            }
            stats.checkpoints_visited = stats
                .checkpoints_visited
                .saturating_add(ledger.delta_stats(server).delta_events);
        }
        let mut admitted: Vec<u64> = Vec::with_capacity(to_admit.len());
        let mut verdict = GschedVerdict::Schedulable {
            checked_up_to: frame,
        };
        let mut probe_id = probe_id_base;
        if consistent {
            for server in &to_admit {
                let Ok(outcome) = ledger.admit(probe_id, *server) else {
                    consistent = false;
                    break;
                };
                stats.checkpoints_visited = stats
                    .checkpoints_visited
                    .saturating_add(outcome.stats.delta_events);
                if !outcome.admitted() {
                    verdict = outcome.verdict;
                    break;
                }
                admitted.push(probe_id);
                probe_id = probe_id.saturating_add(1);
            }
        }
        // Roll back in exact reverse: reverify never commits. Re-admitting
        // into a subset of the original feasible state cannot be refused.
        for id in admitted.iter().rev() {
            consistent &= ledger.evict(*id).is_ok();
        }
        for (id, server) in evicted.iter().rev() {
            consistent &= matches!(ledger.admit(*id, *server), Ok(o) if o.admitted());
        }
        if !consistent {
            self.ledger = None;
            return Ok(None);
        }
        Ok(Some(verdict))
    }

    /// Advances the cache to a committed configuration and its verdict
    /// (normally the pair returned by [`Self::reverify`]), and re-syncs
    /// the ledger (when present) by applying the committed delta — or
    /// rebuilding it from scratch when the delta path does not apply
    /// (σ\* changed or a period stopped being harmonic), dropping it if
    /// the new population does not fit the frame.
    pub fn advance(&mut self, analysis: TwoLayerAnalysis, verdict: TwoLayerVerdict) {
        self.sync_ledger(&analysis);
        self.analysis = analysis;
        self.verdict = verdict;
    }

    fn sync_ledger(&mut self, new_analysis: &TwoLayerAnalysis) {
        let Some(frame) = self.ledger.as_ref().map(DemandLedger::frame) else {
            return;
        };
        let delta_ok = new_analysis.sigma() == self.analysis.sigma()
            && new_analysis
                .servers()
                .iter()
                .all(|s| frame % s.period() == 0)
            && self.apply_committed_delta(new_analysis);
        if !delta_ok {
            self.ledger = build_ledger(new_analysis, frame, &mut self.next_ledger_id);
        }
    }

    /// Applies the committed delta to the ledger; returns false (leaving
    /// the ledger for a from-scratch rebuild) on any refusal.
    fn apply_committed_delta(&mut self, new_analysis: &TwoLayerAnalysis) -> bool {
        let (to_evict, to_admit) = server_delta(self.analysis.servers(), new_analysis.servers());
        let Some(ledger) = self.ledger.as_mut() else {
            return false;
        };
        let mut ids_by_params: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
        for (id, server) in ledger.residents() {
            ids_by_params
                .entry((server.period(), server.budget()))
                .or_default()
                .push(id);
        }
        for server in &to_evict {
            let evicted = ids_by_params
                .get_mut(&(server.period(), server.budget()))
                .and_then(Vec::pop)
                .is_some_and(|id| ledger.evict(id).is_ok());
            if !evicted {
                return false;
            }
        }
        for server in &to_admit {
            let id = self.next_ledger_id;
            self.next_ledger_id = self.next_ledger_id.saturating_add(1);
            let Some(ledger) = self.ledger.as_mut() else {
                return false;
            };
            if !matches!(ledger.admit(id, *server), Ok(o) if o.admitted()) {
                return false;
            }
        }
        true
    }
}

/// The multiset difference between two server lists: `(removed, added)`
/// parameter lists such that `old − removed + added = new` as multisets.
/// Order-insensitive, so a reshuffled but otherwise identical server list
/// produces an empty delta.
fn server_delta(
    old: &[PeriodicServer],
    new: &[PeriodicServer],
) -> (Vec<PeriodicServer>, Vec<PeriodicServer>) {
    let mut counts: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for server in new {
        let count = counts
            .entry((server.period(), server.budget()))
            .or_default();
        *count = count.saturating_add(1);
    }
    for server in old {
        let count = counts
            .entry((server.period(), server.budget()))
            .or_default();
        *count = count.saturating_sub(1);
    }
    let mut removed = Vec::new();
    let mut added = Vec::new();
    for (&(period, budget), &count) in &counts {
        // Parameters were valid in a PeriodicServer once already, so
        // reconstruction cannot fail; skip defensively if it somehow does.
        let Ok(server) = PeriodicServer::new(period, budget) else {
            continue;
        };
        for _ in 0..count.unsigned_abs() {
            if count > 0 {
                added.push(server);
            } else {
                removed.push(server);
            }
        }
    }
    (removed, added)
}

/// Builds a fresh ledger for `analysis` over `frame`; `None` when the
/// frame preconditions fail or the population does not fit.
fn build_ledger(
    analysis: &TwoLayerAnalysis,
    frame: u64,
    next_id: &mut u64,
) -> Option<DemandLedger> {
    let mut ledger = DemandLedger::new(analysis.sigma().clone(), frame).ok()?;
    for server in analysis.servers() {
        let id = *next_id;
        *next_id = next_id.saturating_add(1);
        if !ledger.admit(id, *server).ok()?.admitted() {
            return None;
        }
    }
    Some(ledger)
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
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
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
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
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
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
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
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
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
        let mut verifier = IncrementalVerifier::new(base.clone()).unwrap();
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

    // --- ledger-backed O(Δ) path -------------------------------------

    /// Harmonic base system: σ of length 8, periods 8 and 16, frame 64.
    fn harmonic_system() -> TwoLayerAnalysis {
        let sigma = TimeSlotTable::from_occupied(8, &[0]).unwrap();
        let servers = vec![
            PeriodicServer::new(8, 2).unwrap(),
            PeriodicServer::new(16, 3).unwrap(),
        ];
        let vm0: TaskSet = vec![task(16, 1, 16)].into();
        let vm1: TaskSet = vec![task(32, 2, 32)].into();
        TwoLayerAnalysis::new(sigma, servers, vec![vm0, vm1]).unwrap()
    }

    #[test]
    fn with_ledger_installs_and_populates() {
        let base = harmonic_system();
        let verifier = IncrementalVerifier::with_ledger(base, 64).unwrap();
        let ledger = verifier.ledger().expect("ledger installed");
        assert_eq!(ledger.resident_count(), 2);
        assert_eq!(ledger.frame(), 64);
    }

    #[test]
    fn with_ledger_rejects_bad_frames() {
        let base = harmonic_system();
        // σ.len() = 8 does not divide 60; period 16 does not divide 24.
        assert!(matches!(
            IncrementalVerifier::with_ledger(base.clone(), 60),
            Err(SchedError::InvalidFrame { .. })
        ));
        assert!(matches!(
            IncrementalVerifier::with_ledger(base, 24),
            Err(SchedError::InvalidFrame { .. })
        ));
    }

    #[test]
    fn ledger_reverify_matches_full_and_counts_delta_only() {
        let base = harmonic_system();
        let mut with = IncrementalVerifier::with_ledger(base.clone(), 64).unwrap();
        let mut without = IncrementalVerifier::new(base.clone()).unwrap();
        // One server joins: the ledger path applies only its 64/16 = 4
        // delta events; the full path re-sweeps every jump point.
        let mut servers = base.servers().to_vec();
        servers.push(PeriodicServer::new(16, 2).unwrap());
        let mut sets = base.task_sets().to_vec();
        sets.push(vec![task(32, 1, 32)].into());
        let next = TwoLayerAnalysis::new(base.sigma().clone(), servers, sets).unwrap();
        let fast = with.reverify(&next).unwrap();
        let slow = without.reverify(&next).unwrap();
        assert_eq!(fast.verdict.is_schedulable(), slow.verdict.is_schedulable());
        assert_eq!(fast.verdict.per_vm, slow.verdict.per_vm);
        assert!(fast.stats.global_rerun && slow.stats.global_rerun);
        // Δ work: exactly frame/Π = 64/16 = 4 global delta events for the
        // joining server, plus the new VM's 2-checkpoint theorem-3 sweep —
        // independent of how many servers are already resident.
        assert_eq!(fast.stats.checkpoints_visited, 4 + 2);
        // Probe must not have committed anything.
        assert_eq!(with.ledger().unwrap().resident_count(), 2);

        // Grow the resident population: the ledger's global work for the
        // same join stays 4 delta events, while the full sweep's visited
        // checkpoints can only grow with more distinct jump points.
        let mut grown_servers = base.servers().to_vec();
        let mut grown_sets = base.task_sets().to_vec();
        for _ in 0..6 {
            grown_servers.push(PeriodicServer::new(32, 1).unwrap());
            grown_sets.push(TaskSet::new());
        }
        let grown = TwoLayerAnalysis::new(
            base.sigma().clone(),
            grown_servers.clone(),
            grown_sets.clone(),
        )
        .unwrap();
        let out = with.reverify(&grown).unwrap();
        with.advance(grown.clone(), out.verdict);
        grown_servers.push(PeriodicServer::new(16, 2).unwrap());
        grown_sets.push(vec![task(32, 1, 32)].into());
        let next2 = TwoLayerAnalysis::new(base.sigma().clone(), grown_servers, grown_sets).unwrap();
        let fast2 = with.reverify(&next2).unwrap();
        assert_eq!(
            fast2.stats.checkpoints_visited,
            4 + 2,
            "ledger global work must not grow with the resident population"
        );
    }

    #[test]
    fn ledger_reverify_rejects_like_full() {
        let base = harmonic_system();
        let mut with = IncrementalVerifier::with_ledger(base.clone(), 64).unwrap();
        // A hog that overflows the free capacity: Θ = 8 on Π = 8 with
        // only 7 free slots per 8.
        let mut servers = base.servers().to_vec();
        servers.push(PeriodicServer::new(8, 8).unwrap());
        let mut sets = base.task_sets().to_vec();
        sets.push(TaskSet::new());
        let next = TwoLayerAnalysis::new(base.sigma().clone(), servers.clone(), sets).unwrap();
        let outcome = with.reverify(&next).unwrap();
        assert!(!outcome.verdict.is_schedulable());
        // Byte-equal to the frame-bounded reference sweep.
        assert_eq!(
            outcome.verdict.global,
            crate::ledger::theorem1_frame(base.sigma(), &servers, 64)
        );
        // Rolled back: the resident set is untouched and a feasible
        // candidate still verifies.
        assert_eq!(with.ledger().unwrap().resident_count(), 2);
        let again = with.reverify(&base).unwrap();
        assert!(again.verdict.is_schedulable());
    }

    #[test]
    fn advance_keeps_ledger_in_sync() {
        let base = harmonic_system();
        let mut verifier = IncrementalVerifier::with_ledger(base.clone(), 64).unwrap();
        let mut servers = base.servers().to_vec();
        servers.push(PeriodicServer::new(16, 2).unwrap());
        let mut sets = base.task_sets().to_vec();
        sets.push(vec![task(32, 1, 32)].into());
        let next = TwoLayerAnalysis::new(base.sigma().clone(), servers, sets).unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert!(outcome.verdict.is_schedulable());
        verifier.advance(next.clone(), outcome.verdict);
        assert_eq!(verifier.ledger().unwrap().resident_count(), 3);
        // Unchanged candidate after advance: everything reused, no work.
        let again = verifier.reverify(&next).unwrap();
        assert!(!again.stats.global_rerun);
        assert_eq!(again.stats.checkpoints_visited, 0);
        // Departure: back to two residents.
        let prev = TwoLayerAnalysis::new(
            base.sigma().clone(),
            base.servers().to_vec(),
            base.task_sets().to_vec(),
        )
        .unwrap();
        let out = verifier.reverify(&prev).unwrap();
        verifier.advance(prev, out.verdict);
        assert_eq!(verifier.ledger().unwrap().resident_count(), 2);
    }

    #[test]
    fn non_harmonic_candidate_falls_back_to_full_sweep() {
        let base = harmonic_system();
        let mut verifier = IncrementalVerifier::with_ledger(base.clone(), 64).unwrap();
        // Period 24 does not divide 64: the ledger path must decline and
        // the full sweep must still produce the from-scratch verdict.
        let mut servers = base.servers().to_vec();
        servers.push(PeriodicServer::new(24, 1).unwrap());
        let mut sets = base.task_sets().to_vec();
        sets.push(TaskSet::new());
        let next = TwoLayerAnalysis::new(base.sigma().clone(), servers, sets).unwrap();
        let outcome = verifier.reverify(&next).unwrap();
        assert_eq!(outcome.verdict, next.schedulable().unwrap());
        // Advance rebuilds (and here drops) the ledger since the new
        // population is not harmonic with the frame.
        verifier.advance(next.clone(), outcome.verdict);
        assert!(verifier.ledger().is_none());
        // The verifier still works in full-sweep mode afterwards.
        let again = verifier.reverify(&next).unwrap();
        assert!(!again.stats.global_rerun);
    }

    #[test]
    fn ledger_reverify_differential_under_churn() {
        // Randomized churn: ledger-backed and plain verifiers must agree
        // on schedulability and per-VM verdicts at every step.
        let mut state = 0xFEE1_600Du64;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m.max(1)
        };
        let base = harmonic_system();
        let mut with = IncrementalVerifier::with_ledger(base.clone(), 64).unwrap();
        let mut without = IncrementalVerifier::new(base.clone()).unwrap();
        let mut servers = base.servers().to_vec();
        let mut sets = base.task_sets().to_vec();
        for _ in 0..40 {
            if !servers.is_empty() && rand(3) == 0 {
                let at = rand(servers.len() as u64) as usize;
                servers.remove(at);
                sets.remove(at);
            } else {
                let pi = [8u64, 16, 32][rand(3) as usize];
                servers.push(PeriodicServer::new(pi, 1 + rand(4)).unwrap());
                sets.push(TaskSet::new());
            }
            let candidate =
                TwoLayerAnalysis::new(base.sigma().clone(), servers.clone(), sets.clone()).unwrap();
            let fast = with.reverify(&candidate).unwrap();
            let slow = without.reverify(&candidate).unwrap();
            assert_eq!(
                fast.verdict.is_schedulable(),
                slow.verdict.is_schedulable(),
                "servers = {servers:?}"
            );
            assert_eq!(fast.verdict.per_vm, slow.verdict.per_vm);
            if fast.verdict.is_schedulable() {
                with.advance(candidate.clone(), fast.verdict);
                without.advance(candidate, slow.verdict);
            } else {
                // Keep model and verifiers aligned on rejection.
                servers = with.analysis().servers().to_vec();
                sets = with.analysis().task_sets().to_vec();
            }
            assert!(with.ledger().is_some(), "ledger must survive churn");
        }
    }
}
