//! Slot-level preemptive-EDF reference simulator.
//!
//! This module is the ground truth the analysis is validated against: if
//! Theorems 1–4 declare a system schedulable, then *no* release pattern
//! consistent with the sporadic model may miss a deadline in simulation.
//! The property tests in this crate and the integration suite exercise
//! exactly that implication.
//!
//! The simulator is intentionally simple (O(horizon × tasks)) and follows
//! the hardware's behaviour: at every slot the scheduler inspects all
//! pending jobs (the I/O pools' random-access priority queues make this a
//! constant-time hardware operation) and runs the one with the earliest
//! absolute deadline, preempting whatever ran before.

// lint: allow(indexing, file) — `pending`/`ids` are kept the same length
// and indexed only below len() inside the sweep loops; `states` is sized to
// the server slice; `owners` is sized to the horizon and indexed by t <
// horizon.

use ioguard_sim::rng::Xoshiro256StarStar;

use crate::table::TimeSlotTable;
use crate::task::{PeriodicServer, TaskSet};

/// One job instance in a release trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index of the releasing task within its task set.
    pub task: usize,
    /// Absolute release slot.
    pub release: u64,
    /// Absolute deadline slot (exclusive: the job must finish before it).
    pub deadline: u64,
    /// Required execution slots.
    pub wcet: u64,
}

/// Generates the synchronous, strictly-periodic release trace of a task set
/// up to `horizon` — the densest pattern a sporadic task set can legally
/// produce, and the critical instant for EDF demand analysis.
pub fn synchronous_releases(tasks: &TaskSet, horizon: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (idx, task) in tasks.iter().enumerate() {
        let mut release = 0u64;
        while release < horizon {
            jobs.push(Job {
                task: idx,
                release,
                deadline: release.saturating_add(task.deadline()),
                wcet: task.wcet(),
            });
            release = release.saturating_add(task.period());
        }
    }
    jobs.sort_by_key(|j| (j.release, j.task));
    jobs
}

/// Generates a randomized sporadic release trace: each task's inter-release
/// separation is uniform in `[T_k, 2·T_k]`, a legal sporadic pattern used to
/// probe the analysis with non-critical-instant arrivals.
pub fn sporadic_releases(tasks: &TaskSet, horizon: u64, seed: u64) -> Vec<Job> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut jobs = Vec::new();
    for (idx, task) in tasks.iter().enumerate() {
        let mut release = rng.range_u64(0, task.period().saturating_add(1));
        while release < horizon {
            jobs.push(Job {
                task: idx,
                release,
                deadline: release.saturating_add(task.deadline()),
                wcet: task.wcet(),
            });
            let gap = rng.range_u64(
                task.period(),
                task.period().saturating_mul(2).saturating_add(1),
            );
            release = release.saturating_add(gap);
        }
    }
    jobs.sort_by_key(|j| (j.release, j.task));
    jobs
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdfSimReport {
    /// Jobs that completed before their deadline.
    pub completed: u64,
    /// Jobs whose deadline passed before completion.
    pub missed: u64,
    /// Slots of supply actually consumed.
    pub slots_used: u64,
    /// Number of preemptions (a different job resumed while another was
    /// still pending with partial progress).
    pub preemptions: u64,
}

impl EdfSimReport {
    /// True when no job missed its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.missed == 0
    }
}

/// Simulates preemptive EDF of a job trace on an arbitrary supply pattern.
///
/// `supply(t)` returns `true` when slot `t` is available to this task set.
/// Jobs still pending at `horizon` whose deadlines are beyond the horizon
/// are *not* counted as missed (the run simply ends).
///
/// # Example
///
/// ```
/// use ioguard_sched::edfsim::{simulate_edf, synchronous_releases};
/// use ioguard_sched::task::{SporadicTask, TaskSet};
///
/// let tasks: TaskSet = vec![SporadicTask::new(4, 1, 4)?].into();
/// let jobs = synchronous_releases(&tasks, 100);
/// let report = simulate_edf(&jobs, |_| true, 100);
/// assert!(report.all_deadlines_met());
/// assert_eq!(report.completed, 25);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
pub fn simulate_edf<S>(jobs: &[Job], mut supply: S, horizon: u64) -> EdfSimReport
where
    S: FnMut(u64) -> bool,
{
    #[derive(Clone, Copy)]
    struct Pending {
        deadline: u64,
        remaining: u64,
        started: bool,
    }

    let mut report = EdfSimReport::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next_job = 0usize;
    let mut last_ran: Option<usize> = None; // index into `pending`'s stable ids
    let mut ids: Vec<u64> = Vec::new();
    let mut next_id = 0u64;

    for t in 0..horizon {
        // Admit releases at slot t.
        while next_job < jobs.len() && jobs[next_job].release == t {
            pending.push(Pending {
                deadline: jobs[next_job].deadline,
                remaining: jobs[next_job].wcet,
                started: false,
            });
            ids.push(next_id);
            next_id += 1;
            next_job += 1;
        }
        // Expire jobs whose deadline has arrived with work left.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].deadline <= t && pending[i].remaining > 0 {
                report.missed += 1;
                if last_ran == Some(i) {
                    last_ran = None;
                } else if let Some(l) = last_ran {
                    if l > i {
                        last_ran = Some(l - 1);
                    }
                }
                pending.remove(i);
                ids.remove(i);
            } else {
                i += 1;
            }
        }
        // Execute the earliest-deadline pending job if the slot is supplied.
        if supply(t) {
            let mut best: Option<usize> = None;
            for i in 0..pending.len() {
                if pending[i].remaining == 0 {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        if (pending[i].deadline, ids[i]) < (pending[b].deadline, ids[b]) {
                            best = Some(i);
                        }
                    }
                }
            }
            if let Some(best) = best {
                if let Some(l) = last_ran {
                    if l != best && pending[l].started && pending[l].remaining > 0 {
                        report.preemptions += 1;
                    }
                }
                pending[best].started = true;
                pending[best].remaining -= 1;
                report.slots_used = report.slots_used.saturating_add(1);
                if pending[best].remaining == 0 {
                    report.completed += 1;
                    pending.remove(best);
                    ids.remove(best);
                    last_ran = None;
                } else {
                    last_ran = Some(best);
                }
            } else {
                last_ran = None;
            }
        }
    }
    report
}

/// Per-slot owner of the free slots of σ under G-Sched's EDF over servers.
///
/// Returns `owner[t] ∈ Some(vm index) | None` for `t < horizon`: the VM
/// whose server holds slot `t`. Occupied (P-channel) slots and idle free
/// slots are `None`.
///
/// Server `i` releases a budget-replenishment job of `Θ_i` slots every
/// `Π_i` slots with an implicit deadline, exactly as Sec. IV-A schedules
/// `{Γ_i}` on σ by EDF.
pub fn simulate_server_allocation(
    sigma: &TimeSlotTable,
    servers: &[PeriodicServer],
    horizon: u64,
) -> Vec<Option<usize>> {
    #[derive(Clone, Copy)]
    struct ServerState {
        deadline: u64,
        remaining: u64,
    }

    let mut states: Vec<ServerState> = servers
        .iter()
        .map(|s| ServerState {
            deadline: s.period(),
            remaining: s.budget(),
        })
        .collect();
    let mut owners = vec![None; horizon as usize];

    for t in 0..horizon {
        // Replenish any server whose period boundary is at t.
        for (i, server) in servers.iter().enumerate() {
            if t > 0 && t % server.period() == 0 {
                states[i].deadline = t.saturating_add(server.period());
                states[i].remaining = server.budget();
            }
        }
        if !sigma.is_free(t) {
            continue;
        }
        // EDF among servers with remaining budget.
        let mut best: Option<usize> = None;
        for (i, st) in states.iter().enumerate() {
            if st.remaining == 0 {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if (st.deadline, i) < (states[b].deadline, b) {
                        best = Some(i);
                    }
                }
            }
        }
        if let Some(i) = best {
            states[i].remaining -= 1;
            owners[t as usize] = Some(i);
        }
    }
    owners
}

/// Full two-layer simulation: G-Sched allocates free slots of σ to servers,
/// and each VM runs its job trace under L-Sched EDF on the slots its server
/// received. Returns one report per VM.
pub fn simulate_two_layer(
    sigma: &TimeSlotTable,
    servers: &[PeriodicServer],
    traces: &[Vec<Job>],
    horizon: u64,
) -> Vec<EdfSimReport> {
    assert_eq!(
        servers.len(),
        traces.len(),
        "one job trace per server-backed VM"
    );
    let owners = simulate_server_allocation(sigma, servers, horizon);
    traces
        .iter()
        .enumerate()
        .map(|(vm, jobs)| simulate_edf(jobs, |t| owners[t as usize] == Some(vm), horizon))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SporadicTask;

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    #[test]
    fn synchronous_releases_are_dense_and_ordered() {
        let ts: TaskSet = vec![task(4, 1, 4), task(6, 2, 5)].into();
        let jobs = synchronous_releases(&ts, 12);
        // Task 0 releases at 0,4,8; task 1 at 0,6.
        assert_eq!(jobs.len(), 5);
        assert!(jobs.windows(2).all(|w| w[0].release <= w[1].release));
        assert_eq!(jobs[0].release, 0);
        let t1_jobs: Vec<_> = jobs.iter().filter(|j| j.task == 1).collect();
        assert_eq!(t1_jobs.len(), 2);
        assert_eq!(t1_jobs[1].release, 6);
        assert_eq!(t1_jobs[1].deadline, 11);
    }

    #[test]
    fn sporadic_releases_respect_min_separation() {
        let ts: TaskSet = vec![task(10, 1, 8)].into();
        let jobs = sporadic_releases(&ts, 1000, 42);
        for w in jobs.windows(2) {
            assert!(w[1].release - w[0].release >= 10);
        }
        // Deterministic given the seed.
        assert_eq!(jobs, sporadic_releases(&ts, 1000, 42));
        assert_ne!(jobs, sporadic_releases(&ts, 1000, 43));
    }

    #[test]
    fn full_supply_uniprocessor_edf_meets_feasible_set() {
        // Classic feasible set: util = 1/4 + 2/6 + 1/12 = 2/3.
        let ts: TaskSet = vec![task(4, 1, 4), task(6, 2, 6), task(12, 1, 12)].into();
        let jobs = synchronous_releases(&ts, 240);
        let report = simulate_edf(&jobs, |_| true, 240);
        assert!(report.all_deadlines_met(), "{report:?}");
        assert_eq!(report.completed, 60 + 40 + 20);
    }

    #[test]
    fn overload_misses_deadlines() {
        // Utilization 1.5 on a unit supply: must miss.
        let ts: TaskSet = vec![task(2, 1, 2), task(2, 2, 2)].into();
        let jobs = synchronous_releases(&ts, 40);
        let report = simulate_edf(&jobs, |_| true, 40);
        assert!(report.missed > 0);
    }

    #[test]
    fn no_supply_means_every_deadline_missed() {
        let ts: TaskSet = vec![task(5, 1, 5)].into();
        let jobs = synchronous_releases(&ts, 50);
        // Horizon 51 so the last deadline (slot 50) is observed expiring.
        let report = simulate_edf(&jobs, |_| false, 51);
        assert_eq!(report.completed, 0);
        assert_eq!(report.missed, 10);
        assert_eq!(report.slots_used, 0);
    }

    #[test]
    fn edf_prefers_earliest_deadline() {
        // Two jobs released together; the tighter one must run first.
        let jobs = vec![
            Job {
                task: 0,
                release: 0,
                deadline: 10,
                wcet: 2,
            },
            Job {
                task: 1,
                release: 0,
                deadline: 3,
                wcet: 2,
            },
        ];
        let report = simulate_edf(&jobs, |_| true, 10);
        assert!(report.all_deadlines_met(), "{report:?}");
    }

    #[test]
    fn preemption_is_counted() {
        // Long job starts, then a tight job arrives and preempts it.
        let jobs = vec![
            Job {
                task: 0,
                release: 0,
                deadline: 20,
                wcet: 5,
            },
            Job {
                task: 1,
                release: 2,
                deadline: 4,
                wcet: 1,
            },
        ];
        let report = simulate_edf(&jobs, |_| true, 20);
        assert!(report.all_deadlines_met());
        assert_eq!(report.preemptions, 1);
    }

    #[test]
    fn fifo_would_fail_where_edf_succeeds() {
        // Demonstrates why the paper's random-access priority queue matters:
        // EDF meets this set; a FIFO (run-to-completion in arrival order)
        // would miss task 1's deadline. We only assert the EDF half here —
        // the FIFO half lives in the baselines crate.
        let jobs = vec![
            Job {
                task: 0,
                release: 0,
                deadline: 100,
                wcet: 50,
            },
            Job {
                task: 1,
                release: 1,
                deadline: 5,
                wcet: 2,
            },
        ];
        let report = simulate_edf(&jobs, |_| true, 100);
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn server_allocation_grants_budget_each_period() {
        let sigma = TimeSlotTable::from_occupied(4, &[0]).unwrap();
        let servers = [PeriodicServer::new(4, 2).unwrap()];
        let owners = simulate_server_allocation(&sigma, &servers, 40);
        // Every window [4k, 4k+4) must contain exactly 2 slots owned by VM 0
        // (3 free slots per period, budget 2).
        for k in 0..10 {
            let got = owners[4 * k..4 * k + 4]
                .iter()
                .filter(|o| **o == Some(0))
                .count();
            assert_eq!(got, 2, "period {k}");
        }
        // Occupied slots never owned.
        for k in 0..10 {
            assert_eq!(owners[4 * k], None);
        }
    }

    #[test]
    fn server_allocation_edf_orders_two_servers() {
        let sigma = TimeSlotTable::from_occupied(2, &[]).unwrap();
        let servers = [
            PeriodicServer::new(4, 1).unwrap(),
            PeriodicServer::new(2, 1).unwrap(),
        ];
        let owners = simulate_server_allocation(&sigma, &servers, 8);
        // t=0: deadlines (4, 2) → server 1 wins; t=1: server 0.
        assert_eq!(owners[0], Some(1));
        assert_eq!(owners[1], Some(0));
        // t=2: server 1 replenished (deadline 4 = server 0's deadline; tie →
        // lower index wins, but server 0 has no budget left) → server 1.
        assert_eq!(owners[2], Some(1));
    }

    #[test]
    fn two_layer_meets_deadlines_for_light_system() {
        let sigma = TimeSlotTable::from_occupied(10, &[0, 1]).unwrap();
        let servers = [
            PeriodicServer::new(5, 2).unwrap(),
            PeriodicServer::new(10, 3).unwrap(),
        ];
        let vm0: TaskSet = vec![task(20, 2, 10)].into();
        let vm1: TaskSet = vec![task(40, 4, 30)].into();
        let horizon = 400;
        let traces = vec![
            synchronous_releases(&vm0, horizon),
            synchronous_releases(&vm1, horizon),
        ];
        let reports = simulate_two_layer(&sigma, &servers, &traces, horizon);
        assert!(reports.iter().all(EdfSimReport::all_deadlines_met));
        assert!(reports[0].completed > 0 && reports[1].completed > 0);
    }

    #[test]
    #[should_panic(expected = "one job trace per server-backed VM")]
    fn two_layer_checks_arity() {
        let sigma = TimeSlotTable::from_occupied(4, &[]).unwrap();
        let servers = [PeriodicServer::new(4, 1).unwrap()];
        let _ = simulate_two_layer(&sigma, &servers, &[], 10);
    }

    #[test]
    fn horizon_truncates_cleanly() {
        let ts: TaskSet = vec![task(10, 9, 10)].into();
        let jobs = synchronous_releases(&ts, 15);
        // Second job (release 10, deadline 20) cannot finish by horizon 15
        // but is not missed either.
        let report = simulate_edf(&jobs, |_| true, 15);
        assert_eq!(report.completed, 1);
        assert_eq!(report.missed, 0);
    }
}
