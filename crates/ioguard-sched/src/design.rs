//! Server-parameter synthesis: choosing `(Π_i, Θ_i)` for each VM.
//!
//! The paper assumes the server parameters are given; a deployable system
//! needs to *derive* them from the task sets. This module implements the
//! standard bandwidth-minimizing synthesis over the periodic resource model:
//! for each VM and each candidate period `Π`, binary-search the smallest
//! budget `Θ` that passes Theorem 3, keep the candidate with the least
//! bandwidth, then validate the resulting server set globally with
//! Theorem 1 (inflating greedily if the global layer rejects).

use crate::error::SchedError;
use crate::gsched::theorem1_exact;
use crate::lsched::theorem3_exact;
use crate::table::TimeSlotTable;
use crate::task::{PeriodicServer, TaskSet};

/// Configuration of the synthesis search.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Candidate server periods, tried per VM. Typical choice: divisors of
    /// the table length `H`, so server replenishment aligns with σ\*.
    pub candidate_periods: Vec<u64>,
    /// Hyper-period cap for the exact tests used inside the search.
    pub max_hyper_period: u64,
}

impl SynthesisConfig {
    /// Candidates = all divisors of `h` (≥ 2), which keeps the G-Sched
    /// hyper-period equal to `H` itself.
    pub fn divisors_of(h: u64) -> Self {
        let mut candidate_periods: Vec<u64> = (2..=h).filter(|d| h.is_multiple_of(*d)).collect();
        if candidate_periods.is_empty() {
            candidate_periods.push(h.max(1));
        }
        Self {
            candidate_periods,
            max_hyper_period: 1 << 26,
        }
    }
}

/// Why synthesis failed for a system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisFailure {
    /// No candidate `(Π, Θ)` passes Theorem 3 for this VM.
    VmInfeasible {
        /// Index of the infeasible VM.
        vm: usize,
    },
    /// Every per-VM choice passes locally but the global layer rejects all
    /// combinations the search explored.
    GlobalInfeasible,
    /// An exact test failed with an error (e.g. hyper-period overflow).
    Analysis(SchedError),
}

impl std::fmt::Display for SynthesisFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisFailure::VmInfeasible { vm } => {
                write!(f, "no feasible server for vm {vm}")
            }
            SynthesisFailure::GlobalInfeasible => {
                write!(f, "per-vm servers found but global layer rejects them")
            }
            SynthesisFailure::Analysis(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl std::error::Error for SynthesisFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisFailure::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

/// For one VM: the minimal budget `Θ` for period `Π` that passes Theorem 3,
/// found by binary search (`sbf(Γ, ·)` is monotone in `Θ`).
fn minimal_budget(period: u64, tasks: &TaskSet, max_hyper: u64) -> Result<Option<u64>, SchedError> {
    // Quick reject: even the full budget fails.
    // lint: allow(panic-site) — infallible: PeriodicServer::new only rejects Θ > Π or zero, and Θ = Π ≥ 1 here
    let full = PeriodicServer::new(period, period).expect("Θ = Π is valid");
    match theorem3_exact(&full, tasks, max_hyper) {
        Ok(v) if !v.is_schedulable() => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let (mut lo, mut hi) = (1u64, period); // invariant: hi passes
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // lint: allow(panic-site) — infallible: the bisection keeps 1 ≤ lo ≤ mid ≤ hi ≤ Π
        let server = PeriodicServer::new(period, mid).expect("1 ≤ mid ≤ Π");
        let passes = theorem3_exact(&server, tasks, max_hyper)?.is_schedulable();
        if passes {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(hi))
}

/// Per-VM feasible candidates sorted by bandwidth (ties: larger period
/// first, which reduces G-Sched pressure).
fn vm_candidates(
    vm: usize,
    tasks: &TaskSet,
    config: &SynthesisConfig,
) -> Result<Vec<PeriodicServer>, SynthesisFailure> {
    let mut out = Vec::new();
    for &period in &config.candidate_periods {
        match minimal_budget(period, tasks, config.max_hyper_period) {
            Ok(Some(theta)) => {
                // lint: allow(panic-site) — infallible: minimal_budget only returns Θ it already constructed
                out.push(PeriodicServer::new(period, theta).expect("validated"));
            }
            Ok(None) => {}
            Err(e) => return Err(SynthesisFailure::Analysis(e)),
        }
    }
    if out.is_empty() {
        return Err(SynthesisFailure::VmInfeasible { vm });
    }
    out.sort_by(|a, b| {
        a.bandwidth()
            .partial_cmp(&b.bandwidth())
            // lint: allow(panic-site) — infallible: bandwidth() is Θ/Π of positive integers, never NaN
            .expect("bandwidths are finite")
            .then(b.period().cmp(&a.period()))
    });
    Ok(out)
}

/// Synthesizes one periodic server per VM such that both scheduler layers
/// pass their exact tests on `sigma`.
///
/// The search picks each VM's minimum-bandwidth candidate, then — if the
/// global layer rejects — advances the candidate of the VM whose next
/// option costs the least extra bandwidth, up to a bounded number of steps.
///
/// # Errors
///
/// Returns a [`SynthesisFailure`] describing which layer or VM is
/// infeasible.
///
/// # Example
///
/// ```
/// use ioguard_sched::design::{synthesize_servers, SynthesisConfig};
/// use ioguard_sched::table::TimeSlotTable;
/// use ioguard_sched::task::{SporadicTask, TaskSet};
///
/// let sigma = TimeSlotTable::from_occupied(12, &[0])?;
/// let vms = vec![
///     TaskSet::from(vec![SporadicTask::new(24, 2, 20)?]),
///     TaskSet::from(vec![SporadicTask::new(36, 3, 30)?]),
/// ];
/// let servers = synthesize_servers(&sigma, &vms, &SynthesisConfig::divisors_of(12))?;
/// assert_eq!(servers.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_servers(
    sigma: &TimeSlotTable,
    task_sets: &[TaskSet],
    config: &SynthesisConfig,
) -> Result<Vec<PeriodicServer>, SynthesisFailure> {
    let mut candidates = Vec::with_capacity(task_sets.len());
    for (vm, tasks) in task_sets.iter().enumerate() {
        candidates.push(vm_candidates(vm, tasks, config)?);
    }
    // cursor[i] = index into candidates[i]; start at minimum bandwidth.
    let mut cursor = vec![0usize; task_sets.len()];
    // Bounded exploration: each step advances one VM's cursor, so the total
    // number of steps is at most Σ |candidates_i|.
    let max_steps: usize = candidates.iter().map(Vec::len).sum();
    for _ in 0..=max_steps {
        let chosen: Vec<PeriodicServer> = cursor
            .iter()
            .zip(&candidates)
            // lint: allow(indexing) — cursors only advance behind the `cursor[i] + 1 < cands.len()` guard below
            .map(|(&c, cands)| cands[c])
            .collect();
        match theorem1_exact(sigma, &chosen, config.max_hyper_period) {
            Ok(v) if v.is_schedulable() => return Ok(chosen),
            Ok(_) => {
                // Advance the cursor whose *next* candidate adds the least
                // bandwidth; if its bandwidth is lower it can also help by
                // changing the period mix.
                let mut best: Option<(usize, f64)> = None;
                for (i, cands) in candidates.iter().enumerate() {
                    // lint: allow(indexing) — cursor has one entry per candidate list; i is its enumerate() index
                    let c = cursor[i];
                    if let (Some(next), Some(cur)) = (cands.get(c + 1), cands.get(c)) {
                        let delta = next.bandwidth() - cur.bandwidth();
                        if best.is_none_or(|b| delta < b.1) {
                            best = Some((i, delta));
                        }
                    }
                }
                match best {
                    // lint: allow(indexing) — i was produced by the enumerate() over candidates just above
                    Some((i, _)) => cursor[i] += 1,
                    None => return Err(SynthesisFailure::GlobalInfeasible),
                }
            }
            Err(e) => return Err(SynthesisFailure::Analysis(e)),
        }
    }
    Err(SynthesisFailure::GlobalInfeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TwoLayerAnalysis;
    use crate::task::SporadicTask;

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    #[test]
    fn divisors_config() {
        let cfg = SynthesisConfig::divisors_of(12);
        assert_eq!(cfg.candidate_periods, vec![2, 3, 4, 6, 12]);
        // Degenerate H = 1 still yields a candidate.
        assert_eq!(SynthesisConfig::divisors_of(1).candidate_periods, vec![1]);
    }

    #[test]
    fn minimal_budget_is_minimal() {
        // Task util 0.25 with tight-ish deadline; find Θ for Π = 4.
        let ts: TaskSet = vec![task(16, 4, 12)].into();
        let theta = minimal_budget(4, &ts, 1 << 24).unwrap().unwrap();
        // Θ passes…
        let s = PeriodicServer::new(4, theta).unwrap();
        assert!(theorem3_exact(&s, &ts, 1 << 24).unwrap().is_schedulable());
        // …and Θ − 1 fails (when Θ > 1).
        if theta > 1 {
            let s = PeriodicServer::new(4, theta - 1).unwrap();
            assert!(!theorem3_exact(&s, &ts, 1 << 24).unwrap().is_schedulable());
        }
    }

    #[test]
    fn minimal_budget_rejects_impossible_vm() {
        // Utilization > 1 cannot be served by any budget.
        let ts: TaskSet = vec![task(4, 3, 4), task(4, 2, 4)].into();
        assert_eq!(minimal_budget(4, &ts, 1 << 24).unwrap(), None);
    }

    #[test]
    fn synthesized_servers_pass_both_layers() {
        let sigma = TimeSlotTable::from_occupied(12, &[0, 6]).unwrap();
        let vms = vec![
            TaskSet::from(vec![task(24, 2, 20), task(48, 4, 40)]),
            TaskSet::from(vec![task(36, 3, 30)]),
            TaskSet::from(vec![task(60, 2, 48)]),
        ];
        let servers = synthesize_servers(&sigma, &vms, &SynthesisConfig::divisors_of(12)).unwrap();
        let analysis = TwoLayerAnalysis::new(sigma, servers, vms).unwrap();
        assert!(analysis.schedulable().unwrap().is_schedulable());
    }

    #[test]
    fn infeasible_vm_reported() {
        let sigma = TimeSlotTable::from_occupied(4, &[]).unwrap();
        let vms = vec![TaskSet::from(vec![task(4, 3, 4), task(4, 2, 4)])];
        match synthesize_servers(&sigma, &vms, &SynthesisConfig::divisors_of(4)) {
            Err(SynthesisFailure::VmInfeasible { vm: 0 }) => {}
            other => panic!("expected VmInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn globally_infeasible_reported() {
        // Each VM alone needs ~0.75 bandwidth; the table offers 0.5 total.
        let sigma = TimeSlotTable::from_occupied(4, &[0, 1]).unwrap();
        let heavy = TaskSet::from(vec![task(4, 3, 4)]);
        let vms = vec![heavy.clone(), heavy];
        match synthesize_servers(&sigma, &vms, &SynthesisConfig::divisors_of(4)) {
            Err(SynthesisFailure::GlobalInfeasible) => {}
            other => panic!("expected GlobalInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn synthesis_matches_simulation() {
        use crate::edfsim::{simulate_two_layer, synchronous_releases};
        let sigma = TimeSlotTable::from_occupied(8, &[0]).unwrap();
        let vms = vec![
            TaskSet::from(vec![task(16, 2, 12)]),
            TaskSet::from(vec![task(32, 4, 24)]),
        ];
        let servers = synthesize_servers(&sigma, &vms, &SynthesisConfig::divisors_of(8)).unwrap();
        let horizon = 1600;
        let traces: Vec<_> = vms
            .iter()
            .map(|ts| synchronous_releases(ts, horizon))
            .collect();
        let reports = simulate_two_layer(&sigma, &servers, &traces, horizon);
        assert!(reports.iter().all(|r| r.all_deadlines_met()), "{reports:?}");
    }

    #[test]
    fn failure_display_and_source() {
        use std::error::Error;
        let f = SynthesisFailure::VmInfeasible { vm: 3 };
        assert!(f.to_string().contains("vm 3"));
        assert!(f.source().is_none());
        let f = SynthesisFailure::Analysis(SchedError::HyperPeriodOverflow { limit: 0 });
        assert!(f.source().is_some());
        assert!(SynthesisFailure::GlobalInfeasible
            .to_string()
            .contains("global"));
    }
}
