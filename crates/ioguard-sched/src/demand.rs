//! Demand bound functions and the periodic-resource supply bound function.
//!
//! * `dbf(Γ_i, t) = ⌊t/Π_i⌋·Θ_i` — Eq. 3, the demand a periodic
//!   implicit-deadline server creates on the free slots of σ.
//! * `sbf(Γ_i, t)` — Eq. 8, the minimum supply a VM receives from its server
//!   under the periodic resource model (Shin & Lee 2003).
//! * `dbf(τ_k, t) = (⌊(t − D_k)/T_k⌋ + 1)·C_k` — Eq. 9, the demand of a
//!   sporadic constrained-deadline task.
//! * [`DemandSweep`] — the merged step-event stream the theorem checkers
//!   iterate instead of re-summing the dbf at every checkpoint.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::task::{PeriodicServer, SporadicTask, TaskSet};

/// Demand bound function of a periodic server `Γ_i = (Π_i, Θ_i)` (Eq. 3):
/// the maximum demand the server creates in any interval of length `t`.
///
/// # Example
///
/// ```
/// use ioguard_sched::demand::dbf_server;
/// use ioguard_sched::task::PeriodicServer;
///
/// let gamma = PeriodicServer::new(10, 3)?;
/// assert_eq!(dbf_server(&gamma, 9), 0);
/// assert_eq!(dbf_server(&gamma, 10), 3);
/// assert_eq!(dbf_server(&gamma, 25), 6);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[inline]
pub fn dbf_server(server: &PeriodicServer, t: u64) -> u64 {
    (t / server.period()).saturating_mul(server.budget())
}

/// Total server demand `Σ_i dbf(Γ_i, t)` — the left-hand side of Theorem 1.
pub fn dbf_servers(servers: &[PeriodicServer], t: u64) -> u64 {
    servers.iter().map(|s| dbf_server(s, t)).sum()
}

/// Supply bound function of the periodic resource model (Eq. 8): the
/// minimum number of slots VM `i` receives from `Γ_i = (Π_i, Θ_i)` in any
/// interval of length `t`.
///
/// With `t' = t − (Π − Θ)`:
///
/// ```text
/// sbf(Γ, t) = 0                         if t' < 0
///           = ⌊t'/Π⌋·Θ + θ              if t' ≥ 0
/// θ = max(t' − Π·⌊t'/Π⌋ − (Π − Θ), 0)
/// ```
///
/// # Example
///
/// ```
/// use ioguard_sched::demand::sbf_server;
/// use ioguard_sched::task::PeriodicServer;
///
/// let gamma = PeriodicServer::new(10, 4)?;
/// // Up to 2(Π−Θ) = 12 slots can pass with no supply at all.
/// assert_eq!(sbf_server(&gamma, 12), 0);
/// assert_eq!(sbf_server(&gamma, 13), 1);
/// assert_eq!(sbf_server(&gamma, 16), 4); // one full budget
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
pub fn sbf_server(server: &PeriodicServer, t: u64) -> u64 {
    let pi = server.period();
    let theta = server.budget();
    let gap = pi - theta;
    let Some(t_prime) = t.checked_sub(gap) else {
        return 0;
    };
    let whole = t_prime / pi;
    let frac = t_prime - whole * pi;
    let extra = frac.saturating_sub(gap);
    whole * theta + extra
}

/// Demand bound function of a sporadic constrained-deadline task (Eq. 9),
/// clamped to zero for `t < D_k` (no job can have both its release and
/// deadline inside an interval shorter than its relative deadline).
///
/// # Example
///
/// ```
/// use ioguard_sched::demand::dbf_task;
/// use ioguard_sched::task::SporadicTask;
///
/// let tau = SporadicTask::new(10, 2, 6)?;
/// assert_eq!(dbf_task(&tau, 5), 0);
/// assert_eq!(dbf_task(&tau, 6), 2);
/// assert_eq!(dbf_task(&tau, 16), 4);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[inline]
pub fn dbf_task(task: &SporadicTask, t: u64) -> u64 {
    match t.checked_sub(task.deadline()) {
        Some(head) => (head / task.period())
            .saturating_add(1)
            .saturating_mul(task.wcet()),
        None => 0,
    }
}

/// Total task demand `Σ_{τ_k ∈ 𝒯_i} dbf(τ_k, t)` — the left-hand side of
/// Theorem 3.
pub fn dbf_tasks(tasks: &TaskSet, t: u64) -> u64 {
    tasks.iter().map(|task| dbf_task(task, t)).sum()
}

/// The step-event list of **one** demand source: the jump points of a
/// single `dbf` term, yielded as `(t, step)` pairs in ascending `t` over
/// `(0, bound]`. A server `(Π, Θ)` steps by `Θ` at every multiple of `Π`;
/// a task `(T, C, D)` steps by `C` at `D + m·T`.
///
/// For a server these events form the staircase `Θ·⌊t/Π⌋` that the
/// incremental [`crate::ledger::DemandLedger`] searches against, and adds
/// to, its cached slack envelope — the O(Δ) admission path.
///
/// # Example
///
/// ```
/// use ioguard_sched::demand::StepEvents;
/// use ioguard_sched::task::PeriodicServer;
///
/// let gamma = PeriodicServer::new(10, 3)?;
/// let events: Vec<(u64, u64)> = StepEvents::server(&gamma, 35).collect();
/// assert_eq!(events, vec![(10, 3), (20, 3), (30, 3)]);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvents {
    /// Next jump point, if any remains within the bound.
    upcoming: Option<u64>,
    /// Distance between consecutive jump points.
    stride: u64,
    /// Demand added at each jump point.
    step: u64,
    /// Inclusive bound; events past it are dropped.
    bound: u64,
}

impl StepEvents {
    /// Event list jumping by `step` at `start + k·stride` for `k ≥ 0`,
    /// clipped to `(0, bound]`.
    pub fn new(start: u64, stride: u64, step: u64, bound: u64) -> Self {
        Self {
            upcoming: (start > 0 && start <= bound).then_some(start),
            stride,
            step,
            bound,
        }
    }

    /// The event list of `dbf(Γ, ·)` (Eq. 3) over `(0, bound]`.
    pub fn server(server: &PeriodicServer, bound: u64) -> Self {
        Self::new(server.period(), server.period(), server.budget(), bound)
    }

    /// The event list of `dbf(τ, ·)` (Eq. 9) over `(0, bound]`.
    pub fn task(task: &SporadicTask, bound: u64) -> Self {
        Self::new(task.deadline(), task.period(), task.wcet(), bound)
    }
}

impl Iterator for StepEvents {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let t = self.upcoming?;
        self.upcoming = t.checked_add(self.stride).filter(|&n| n <= self.bound);
        Some((t, self.step))
    }
}

/// Merged step-event sweep over a summed demand bound function.
///
/// The theorem checkers walk the jump points of `Σ dbf(·, t)` in ascending
/// `t` and compare the demand against the supply at each. Re-evaluating the
/// full sum at every checkpoint costs O(n) per point (and materializing the
/// sorted checkpoint vector costs O(P log P) up front); this iterator merges
/// the per-source event streams with a small heap and carries the running
/// sum forward instead — O(log n) per jump point, no checkpoint vector.
/// Each heap entry carries its source's stride and step, so a sweep makes
/// one allocation, the heap, and advancing a source is one sift of the top
/// entry.
///
/// Demand bound functions are right-continuous step functions, so each
/// yielded item `(t, demand)` includes every step at `t` itself, exactly as
/// [`dbf_servers`]`(servers, t)` / [`dbf_tasks`]`(tasks, t)` would report.
///
/// # Example
///
/// ```
/// use ioguard_sched::demand::{dbf_servers, DemandSweep};
/// use ioguard_sched::task::PeriodicServer;
///
/// let servers = [PeriodicServer::new(4, 1)?, PeriodicServer::new(6, 2)?];
/// for (t, demand) in DemandSweep::servers(&servers, 24) {
///     assert_eq!(demand, dbf_servers(&servers, t));
/// }
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
pub struct DemandSweep {
    /// `(next jump point, stride, step)` min-heap: the source jumps by
    /// `step` every `stride` slots.
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// Inclusive sweep bound; events past it are dropped.
    bound: u64,
    /// Running `Σ dbf` including every event emitted so far.
    demand: u64,
}

impl DemandSweep {
    /// Sweep of `Σ dbf(Γ_i, ·)` (Eq. 3) over `(0, bound]`: source `i` steps
    /// by `Θ_i` at every multiple of `Π_i`.
    pub fn servers(servers: &[PeriodicServer], bound: u64) -> Self {
        Self::from_sources(
            servers.iter().map(|s| (s.period(), s.period(), s.budget())),
            bound,
        )
    }

    /// Sweep of `Σ dbf(τ_k, ·)` (Eq. 9) over `(0, bound]`: source `k` steps
    /// by `C_k` at `D_k + m·T_k`.
    pub fn tasks(tasks: &TaskSet, bound: u64) -> Self {
        Self::from_sources(
            tasks.iter().map(|t| (t.deadline(), t.period(), t.wcet())),
            bound,
        )
    }

    fn from_sources(sources: impl ExactSizeIterator<Item = (u64, u64, u64)>, bound: u64) -> Self {
        let mut entries = Vec::with_capacity(sources.len());
        entries.extend(sources.filter(|&(start, _, _)| start <= bound).map(Reverse));
        Self {
            heap: BinaryHeap::from(entries),
            bound,
            demand: 0,
        }
    }
}

impl Iterator for DemandSweep {
    type Item = (u64, u64);

    /// The next distinct jump point and the total demand there. Sources
    /// that coincide at `t` are folded into one item.
    fn next(&mut self) -> Option<(u64, u64)> {
        let Reverse((t, _, _)) = *self.heap.peek()?;
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((at, stride, step)) = *top;
            if at != t {
                break;
            }
            self.demand = self.demand.saturating_add(step);
            match at.checked_add(stride).filter(|&next| next <= self.bound) {
                Some(next) => *top = Reverse((next, stride, step)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        Some((t, self.demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{PeriodicServer, SporadicTask};

    fn server(pi: u64, theta: u64) -> PeriodicServer {
        PeriodicServer::new(pi, theta).unwrap()
    }

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    #[test]
    fn dbf_server_steps_at_period_multiples() {
        let s = server(10, 3);
        assert_eq!(dbf_server(&s, 0), 0);
        assert_eq!(dbf_server(&s, 9), 0);
        assert_eq!(dbf_server(&s, 10), 3);
        assert_eq!(dbf_server(&s, 19), 3);
        assert_eq!(dbf_server(&s, 20), 6);
        assert_eq!(dbf_server(&s, 100), 30);
    }

    #[test]
    fn dbf_servers_sums() {
        let servers = [server(10, 3), server(5, 1)];
        assert_eq!(dbf_servers(&servers, 10), 3 + 2);
        assert_eq!(dbf_servers(&[], 100), 0);
    }

    #[test]
    fn sbf_server_blackout_region() {
        // Π=10, Θ=4: no guaranteed supply until t > 2(Π−Θ) − ... precisely
        // sbf(t) = 0 for t ≤ Π−Θ = 6 (t' ≤ 0) and grows after.
        let s = server(10, 4);
        for t in 0..=6 {
            assert_eq!(sbf_server(&s, t), 0, "t = {t}");
        }
        // t = 7 → t' = 1, whole = 0, frac = 1, extra = max(1-6, 0) = 0.
        assert_eq!(sbf_server(&s, 7), 0);
        // t = 13 → t' = 7, whole = 0, frac = 7, extra = 1.
        assert_eq!(sbf_server(&s, 13), 1);
        // t = 16 → t' = 10, whole = 1, frac = 0 → 4.
        assert_eq!(sbf_server(&s, 16), 4);
        // The worst-case gap is 2(Π−Θ) = 12: sbf stays 0 through t = 12.
        assert_eq!(sbf_server(&s, 12), 0);
    }

    #[test]
    fn sbf_server_full_bandwidth_server_is_identity() {
        let s = server(5, 5);
        for t in 0..30 {
            assert_eq!(sbf_server(&s, t), t, "t = {t}");
        }
    }

    #[test]
    fn sbf_server_matches_worst_case_simulation() {
        // Reference: the adversarial supply pattern gives the server its Θ
        // slots as EARLY as possible in one period then as LATE as possible
        // in the next; minimum window supply over all alignments equals
        // Eq. 8. Simulate supply at slots [kΠ + (Π−Θ), (k+1)Π) and slide.
        for (pi, theta) in [(10u64, 4u64), (7, 2), (12, 11), (9, 1), (6, 3)] {
            let s = server(pi, theta);
            let horizon = 6 * pi;
            // supply[x] = 1 if the server executes at slot x, worst-case
            // pattern: budget at the very end of each period window —
            // except the first period where it is at the very start.
            let mut supply = vec![0u64; horizon as usize];
            for slot in 0..horizon {
                let phase = slot % pi;
                // Budget at the *end* of each period: [Π−Θ, Π).
                if phase >= pi - theta {
                    supply[slot as usize] = 1;
                }
            }
            // First period: budget at the start instead → the worst window
            // starts right after it.
            for phase in 0..pi {
                supply[phase as usize] = u64::from(phase < theta);
            }
            // sbf(t) must lower-bound the supply in the window starting
            // right after the early budget: [Θ, Θ + t).
            for t in 0..4 * pi {
                let got: u64 = (theta..theta + t).map(|x| supply[x as usize]).sum();
                let predicted = sbf_server(&s, t);
                assert!(
                    predicted <= got,
                    "sbf must be a lower bound: Π={pi} Θ={theta} t={t}: {predicted} > {got}"
                );
                // And it must be *tight* for this canonical adversary.
                assert_eq!(
                    predicted, got,
                    "Eq. 8 is exactly the canonical adversary: Π={pi} Θ={theta} t={t}"
                );
            }
        }
    }

    #[test]
    fn sbf_server_monotone() {
        let s = server(11, 5);
        let mut prev = 0;
        for t in 0..100 {
            let v = sbf_server(&s, t);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn dbf_task_clamps_before_deadline() {
        let tau = task(10, 2, 6);
        for t in 0..6 {
            assert_eq!(dbf_task(&tau, t), 0, "t = {t}");
        }
        assert_eq!(dbf_task(&tau, 6), 2);
    }

    #[test]
    fn dbf_task_steps_at_d_plus_kt() {
        let tau = task(10, 3, 7);
        assert_eq!(dbf_task(&tau, 7), 3);
        assert_eq!(dbf_task(&tau, 16), 3);
        assert_eq!(dbf_task(&tau, 17), 6);
        assert_eq!(dbf_task(&tau, 27), 9);
    }

    #[test]
    fn dbf_task_implicit_deadline() {
        let tau = task(5, 1, 5);
        assert_eq!(dbf_task(&tau, 4), 0);
        assert_eq!(dbf_task(&tau, 5), 1);
        assert_eq!(dbf_task(&tau, 10), 2);
        assert_eq!(dbf_task(&tau, 50), 10);
    }

    #[test]
    fn dbf_tasks_sums_over_set() {
        let ts: TaskSet = vec![task(10, 2, 6), task(20, 5, 20)].into();
        assert_eq!(dbf_tasks(&ts, 6), 2);
        assert_eq!(dbf_tasks(&ts, 20), 2 * 2 + 5);
        assert_eq!(dbf_tasks(&TaskSet::new(), 100), 0);
    }

    #[test]
    fn dbf_asymptotic_rate_is_utilization() {
        let tau = task(10, 3, 7);
        let t = 1_000_000;
        let rate = dbf_task(&tau, t) as f64 / t as f64;
        assert!((rate - 0.3).abs() < 1e-3);
    }

    #[test]
    fn sweep_visits_every_server_jump_with_exact_demand() {
        let servers = [server(4, 1), server(6, 2), server(6, 3)];
        let bound = 48;
        // Expected jump points: multiples of any period within (0, bound].
        let mut expected: Vec<u64> = (1..=bound)
            .filter(|t| servers.iter().any(|s| t % s.period() == 0))
            .collect();
        expected.dedup();
        let swept: Vec<(u64, u64)> = DemandSweep::servers(&servers, bound).collect();
        assert_eq!(swept.iter().map(|&(t, _)| t).collect::<Vec<_>>(), expected);
        for (t, demand) in swept {
            assert_eq!(demand, dbf_servers(&servers, t), "t = {t}");
        }
    }

    #[test]
    fn sweep_visits_every_task_jump_with_exact_demand() {
        let ts: TaskSet = vec![task(10, 2, 6), task(7, 1, 7), task(10, 3, 6)].into();
        let bound = 100;
        let mut expected: Vec<u64> = (1..=bound)
            .filter(|&t| {
                ts.iter()
                    .any(|k| t >= k.deadline() && (t - k.deadline()) % k.period() == 0)
            })
            .collect();
        expected.dedup();
        let swept: Vec<(u64, u64)> = DemandSweep::tasks(&ts, bound).collect();
        assert_eq!(swept.iter().map(|&(t, _)| t).collect::<Vec<_>>(), expected);
        for (t, demand) in swept {
            assert_eq!(demand, dbf_tasks(&ts, t), "t = {t}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_out_of_bound_sources() {
        assert_eq!(DemandSweep::servers(&[], 1000).count(), 0);
        assert_eq!(DemandSweep::tasks(&TaskSet::new(), 1000).count(), 0);
        // First jump beyond the bound: nothing to visit.
        assert_eq!(DemandSweep::servers(&[server(50, 1)], 49).count(), 0);
        // Bound inclusive: the jump at exactly `bound` is visited.
        let at_bound: Vec<(u64, u64)> = DemandSweep::servers(&[server(50, 1)], 50).collect();
        assert_eq!(at_bound, vec![(50, 1)]);
    }

    #[test]
    fn sweep_random_systems_match_pointwise_recomputation() {
        let mut state = 0xD1CEu64;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..50 {
            let n = 1 + rand(4);
            let servers: Vec<PeriodicServer> = (0..n)
                .map(|_| {
                    let pi = 2 + rand(20);
                    server(pi, 1 + rand(pi))
                })
                .collect();
            let bound = 1 + rand(400);
            for (t, demand) in DemandSweep::servers(&servers, bound) {
                assert_eq!(demand, dbf_servers(&servers, t));
                assert!(t <= bound);
            }
            let mut ts = TaskSet::new();
            for _ in 0..n {
                let period = 5 + rand(30);
                let c = 1 + rand(4.min(period));
                let d = c + rand(period - c + 1);
                ts.push(task(period, c, d));
            }
            for (t, demand) in DemandSweep::tasks(&ts, bound) {
                assert_eq!(demand, dbf_tasks(&ts, t));
                assert!(t <= bound);
            }
        }
    }

    #[test]
    fn step_events_enumerate_single_source_jumps() {
        let s = server(10, 3);
        let events: Vec<(u64, u64)> = StepEvents::server(&s, 35).collect();
        assert_eq!(events, vec![(10, 3), (20, 3), (30, 3)]);
        let tau = task(10, 2, 6);
        let events: Vec<(u64, u64)> = StepEvents::task(&tau, 30).collect();
        assert_eq!(events, vec![(6, 2), (16, 2), (26, 2)]);
        // Out of bound from the start: empty.
        assert_eq!(StepEvents::server(&server(50, 1), 49).count(), 0);
        assert_eq!(StepEvents::new(0, 5, 1, 100).count(), 0);
    }

    #[test]
    fn dbf_matches_job_enumeration() {
        // Reference: enumerate synchronous releases and count jobs with both
        // release and deadline inside [0, t).
        let tau = task(7, 2, 5);
        for t in 0..100 {
            let mut demand = 0;
            let mut release = 0;
            while release + tau.deadline() <= t {
                demand += tau.wcet();
                release += tau.period();
            }
            assert_eq!(dbf_task(&tau, t), demand, "t = {t}");
        }
    }
}
