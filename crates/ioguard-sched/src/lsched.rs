//! L-Sched schedulability tests: scheduling I/O jobs within each VM.
//!
//! Once G-Sched guarantees VM `i` its server `Γ_i = (Π_i, Θ_i)`, the VM's
//! task set `𝒯_i` is analyzed in isolation against the periodic resource
//! model supply `sbf(Γ_i, t)` (Eq. 8). **Theorem 3** is the exact condition
//! `∀t ≥ 0: Σ dbf(τ_k, t) ≤ sbf(Γ_i, t)`; **Theorem 4** bounds the check to
//! `t < (max(T_k − D_k) + 2Π_i − Θ_i − 1)/c'` under slack
//! `Θ_i/Π_i − Σ C_k/T_k > c' > 0`.

use crate::demand::{sbf_server, DemandSweep};
use crate::error::SchedError;
use crate::task::{checked_lcm, PeriodicServer, TaskSet};

/// Outcome of an L-Sched test for one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LschedVerdict {
    /// Every job of the VM meets its deadline.
    Schedulable {
        /// Largest `t` that was actually checked.
        checked_up_to: u64,
    },
    /// A violation `Σ dbf > sbf` was found.
    Unschedulable {
        /// The interval length at which demand first exceeds supply.
        violation_at: u64,
        /// Demand at the violation point.
        demand: u64,
        /// Supply at the violation point.
        supply: u64,
    },
}

impl LschedVerdict {
    /// True for the schedulable outcome.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, LschedVerdict::Schedulable { .. })
    }
}

// `Σ dbf(τ_k, ·)` jumps at `t = D_k + m·T_k`; `DemandSweep::tasks` merges
// the per-task event streams and carries the running demand, so each jump
// point costs O(log n) instead of an O(n) re-summation.

/// **Theorem 3** (exact): all jobs of a VM backed by `Γ_i` meet their
/// deadlines iff `Σ dbf(τ_k, t) ≤ sbf(Γ_i, t)` for all `t ≥ 0`.
///
/// Demand jump points are enumerated up to `lcm({Π_i} ∪ {T_k}) +
/// max_k D_k`; beyond that both sides repeat with fixed increments, so with
/// the integer bandwidth precondition (checked at the final multiple) the
/// prefix is exact.
///
/// # Errors
///
/// Returns [`SchedError::HyperPeriodOverflow`] if the LCM overflows `u64` or
/// exceeds `max_hyper_period`.
///
/// # Example
///
/// ```
/// use ioguard_sched::lsched::theorem3_exact;
/// use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
///
/// let gamma = PeriodicServer::new(5, 3)?;
/// let tasks: TaskSet = vec![SporadicTask::new(20, 2, 15)?].into();
/// assert!(theorem3_exact(&gamma, &tasks, 1_000_000)?.is_schedulable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem3_exact(
    server: &PeriodicServer,
    tasks: &TaskSet,
    max_hyper_period: u64,
) -> Result<LschedVerdict, SchedError> {
    let hyper = tasks
        .iter()
        .map(|t| t.period())
        .try_fold(server.period(), checked_lcm)
        .ok_or(SchedError::HyperPeriodOverflow { limit: 0 })?;
    let max_deadline = tasks.iter().map(|t| t.deadline()).max().unwrap_or(0);
    let bound = hyper
        .checked_add(max_deadline)
        .ok_or(SchedError::HyperPeriodOverflow { limit: 0 })?;
    if bound > max_hyper_period {
        return Err(SchedError::HyperPeriodOverflow {
            limit: max_hyper_period,
        });
    }
    // Integer bandwidth condition: demand rate ≤ supply rate over one LCM.
    // dbf grows by hyper·ΣC/T per hyper-period and sbf by hyper·Θ/Π; both
    // are integers because hyper is a common multiple.
    let demand_rate: u64 = tasks
        .iter()
        .map(|t| (hyper / t.period()).saturating_mul(t.wcet()))
        .fold(0u64, u64::saturating_add);
    let supply_rate = (hyper / server.period()).saturating_mul(server.budget());
    if demand_rate > supply_rate {
        // Constructive violation search within a few hyper-periods.
        for (t, demand) in DemandSweep::tasks(tasks, bound.saturating_mul(4)) {
            let supply = sbf_server(server, t);
            if demand > supply {
                return Ok(LschedVerdict::Unschedulable {
                    violation_at: t,
                    demand,
                    supply,
                });
            }
        }
    }
    for (t, demand) in DemandSweep::tasks(tasks, bound) {
        let supply = sbf_server(server, t);
        if demand > supply {
            return Ok(LschedVerdict::Unschedulable {
                violation_at: t,
                demand,
                supply,
            });
        }
    }
    Ok(LschedVerdict::Schedulable {
        checked_up_to: bound,
    })
}

/// **Theorem 4** (pseudo-polynomial): for each VM with slack
/// `Θ_i/Π_i − Σ C_k/T_k > c' > 0`, the Theorem 3 condition holds iff it
/// holds for all `t < (max(T_k − D_k) + 2Π_i − Θ_i − 1)/c'`.
///
/// # Errors
///
/// Returns [`SchedError::SlackTooSmall`] when the slack is at most `c'`.
///
/// # Example
///
/// ```
/// use ioguard_sched::lsched::theorem4_pseudo_poly;
/// use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
///
/// let gamma = PeriodicServer::new(5, 3)?;
/// let tasks: TaskSet = vec![SporadicTask::new(20, 2, 15)?].into();
/// assert!(theorem4_pseudo_poly(&gamma, &tasks, 0.01)?.is_schedulable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem4_pseudo_poly(
    server: &PeriodicServer,
    tasks: &TaskSet,
    c_prime: f64,
) -> Result<LschedVerdict, SchedError> {
    assert!(c_prime > 0.0, "the constant c' must be positive");
    let slack = server.bandwidth() - tasks.utilization();
    if slack <= c_prime {
        return Err(SchedError::SlackTooSmall {
            slack,
            required: c_prime,
        });
    }
    // Theorem 4 bound: t* < (max(T−D) + 2Π − Θ − 1)/c'.
    let numerator =
        (tasks.max_period_minus_deadline() + 2 * server.period() - server.budget() - 1) as f64;
    let bound = (numerator / c_prime).ceil() as u64;
    for (t, demand) in DemandSweep::tasks(tasks, bound) {
        let supply = sbf_server(server, t);
        if demand > supply {
            return Ok(LschedVerdict::Unschedulable {
                violation_at: t,
                demand,
                supply,
            });
        }
    }
    Ok(LschedVerdict::Schedulable {
        checked_up_to: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SporadicTask;

    fn server(pi: u64, theta: u64) -> PeriodicServer {
        PeriodicServer::new(pi, theta).unwrap()
    }

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    #[test]
    fn empty_task_set_is_schedulable() {
        let s = server(10, 1);
        assert!(theorem3_exact(&s, &TaskSet::new(), 1 << 20)
            .unwrap()
            .is_schedulable());
        assert!(theorem4_pseudo_poly(&s, &TaskSet::new(), 0.01)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn light_task_on_generous_server() {
        let s = server(5, 4);
        let ts: TaskSet = vec![task(50, 3, 40)].into();
        // Checked up to lcm(5, 50) + 40 = 90.
        assert_eq!(
            theorem3_exact(&s, &ts, 1 << 20).unwrap(),
            LschedVerdict::Schedulable { checked_up_to: 90 }
        );
    }

    #[test]
    fn over_utilized_vm_rejected() {
        // Server bandwidth 0.3 < task utilization 0.5.
        let s = server(10, 3);
        let ts: TaskSet = vec![task(10, 5, 10)].into();
        let v = theorem3_exact(&s, &ts, 1 << 20).unwrap();
        assert!(!v.is_schedulable());
    }

    #[test]
    fn fits_bandwidth_but_blackout_kills_tight_deadline() {
        // Server Π=10, Θ=5 (bandwidth 0.5); task T=20, C=2, D=2 (util 0.1).
        // Worst-case supply gap 2(Π−Θ) = 10 > D: the job can starve past its
        // deadline even though bandwidth is plentiful.
        let s = server(10, 5);
        let ts: TaskSet = vec![task(20, 2, 2)].into();
        // The sweep stops at the first jump point: dbf(2) = 2 > sbf(2) = 0.
        assert_eq!(
            theorem3_exact(&s, &ts, 1 << 20).unwrap(),
            LschedVerdict::Unschedulable {
                violation_at: 2,
                demand: 2,
                supply: 0
            }
        );
    }

    #[test]
    fn theorems_3_and_4_agree_on_random_systems() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut applicable = 0;
        for _ in 0..300 {
            let pi = 2 + rand(10);
            let theta = 1 + rand(pi);
            let s = server(pi, theta);
            let n = 1 + rand(3);
            let mut ts = TaskSet::new();
            for _ in 0..n {
                let t = 5 + rand(40);
                let c = 1 + rand(4.min(t));
                let d = c + rand(t - c + 1);
                ts.push(task(t, c, d));
            }
            let exact = theorem3_exact(&s, &ts, 1 << 26).unwrap();
            match theorem4_pseudo_poly(&s, &ts, 0.01) {
                Ok(pseudo) => {
                    applicable += 1;
                    assert_eq!(
                        exact.is_schedulable(),
                        pseudo.is_schedulable(),
                        "server={s:?} tasks={ts:?}"
                    );
                }
                Err(SchedError::SlackTooSmall { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(applicable > 30);
    }

    #[test]
    fn theorem4_requires_strict_slack() {
        // Bandwidth 0.5 equals utilization 0.5 → slack 0 ≤ c'.
        let s = server(2, 1);
        let ts: TaskSet = vec![task(2, 1, 2)].into();
        assert!(matches!(
            theorem4_pseudo_poly(&s, &ts, 0.01),
            Err(SchedError::SlackTooSmall { .. })
        ));
    }

    #[test]
    fn full_budget_server_behaves_like_dedicated_cpu() {
        // Θ = Π: supply is the identity, so EDF admits up to 100% util.
        let s = server(4, 4);
        let ts: TaskSet = vec![task(4, 2, 4), task(8, 4, 8)].into();
        assert!(theorem3_exact(&s, &ts, 1 << 20).unwrap().is_schedulable());
        // And one extra unit of demand breaks it.
        let ts2: TaskSet = vec![task(4, 2, 4), task(8, 4, 8), task(8, 1, 8)].into();
        assert!(!theorem3_exact(&s, &ts2, 1 << 20).unwrap().is_schedulable());
    }

    #[test]
    fn hyper_period_limit_enforced() {
        let s = server(7, 1);
        let ts: TaskSet = vec![task(11, 1, 11), task(13, 1, 13)].into();
        assert!(matches!(
            theorem3_exact(&s, &ts, 500),
            Err(SchedError::HyperPeriodOverflow { limit: 500 })
        ));
    }

    #[test]
    fn shorter_deadline_is_harder() {
        let s = server(6, 3);
        let relaxed: TaskSet = vec![task(12, 3, 12)].into();
        let tight: TaskSet = vec![task(12, 3, 3)].into();
        assert!(theorem3_exact(&s, &relaxed, 1 << 20)
            .unwrap()
            .is_schedulable());
        // D = 3 but worst-case gap is 2(6−3) = 6 > 3.
        assert!(!theorem3_exact(&s, &tight, 1 << 20)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn theorem4_rejects_nonpositive_c() {
        let s = server(4, 2);
        let _ = theorem4_pseudo_poly(&s, &TaskSet::new(), -1.0);
    }
}
