//! Workload model: sporadic I/O tasks and periodic server tasks.
//!
//! All time quantities are in **slots**, the hypervisor's scheduling quantum
//! (Sec. IV measures everything in time slots).

use crate::error::SchedError;

/// A sporadic I/O task `τ_k = (T_k, C_k, D_k)`.
///
/// Releases a sequence of I/O *jobs* with minimum separation `T_k` slots;
/// each job needs `C_k` slots of execution and must finish within `D_k`
/// slots of its release. Deadlines are *constrained*: `C_k ≤ D_k ≤ T_k`.
///
/// # Example
///
/// ```
/// use ioguard_sched::task::SporadicTask;
///
/// let tau = SporadicTask::new(100, 8, 50)?;
/// assert_eq!(tau.utilization(), 0.08);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SporadicTask {
    period: u64,
    wcet: u64,
    deadline: u64,
}

impl SporadicTask {
    /// Creates a task with the given minimum separation `period` (`T_k`),
    /// worst-case execution time `wcet` (`C_k`) and relative `deadline`
    /// (`D_k`), all in slots.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] unless `0 < C ≤ D ≤ T`.
    pub fn new(period: u64, wcet: u64, deadline: u64) -> Result<Self, SchedError> {
        if wcet == 0 {
            return Err(SchedError::InvalidTask {
                reason: format!("wcet must be positive (got {wcet})"),
            });
        }
        if deadline < wcet {
            return Err(SchedError::InvalidTask {
                reason: format!("deadline {deadline} smaller than wcet {wcet}"),
            });
        }
        if period < deadline {
            return Err(SchedError::InvalidTask {
                reason: format!(
                    "constrained deadlines require D ≤ T (got D = {deadline}, T = {period})"
                ),
            });
        }
        Ok(Self {
            period,
            wcet,
            deadline,
        })
    }

    /// Creates an implicit-deadline task (`D_k = T_k`), the shape used by the
    /// case study ("each task had a defined period and implicit deadline").
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] unless `0 < C ≤ T`.
    pub fn implicit(period: u64, wcet: u64) -> Result<Self, SchedError> {
        Self::new(period, wcet, period)
    }

    /// Minimum inter-release separation `T_k` in slots.
    #[inline]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// Worst-case execution time `C_k` in slots.
    #[inline]
    pub const fn wcet(&self) -> u64 {
        self.wcet
    }

    /// Relative deadline `D_k` in slots.
    #[inline]
    pub const fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Utilization `C_k / T_k`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.wcet as f64 / self.period as f64
    }
}

/// A periodic server task `Γ_i = (Π_i, Θ_i)` supporting one VM: invoked every
/// `Π_i` slots and guaranteed at least `Θ_i` slots between consecutive
/// invocations (Sec. IV, periodic resource model).
///
/// # Example
///
/// ```
/// use ioguard_sched::task::PeriodicServer;
///
/// let gamma = PeriodicServer::new(10, 4)?;
/// assert_eq!(gamma.bandwidth(), 0.4);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeriodicServer {
    period: u64,
    budget: u64,
}

impl PeriodicServer {
    /// Creates a server with period `Π` and budget `Θ` (slots).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidServer`] unless `1 ≤ Θ ≤ Π`.
    pub fn new(period: u64, budget: u64) -> Result<Self, SchedError> {
        if budget == 0 || budget > period {
            return Err(SchedError::InvalidServer { period, budget });
        }
        Ok(Self { period, budget })
    }

    /// Server period `Π_i` in slots.
    #[inline]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// Server budget `Θ_i` in slots.
    #[inline]
    pub const fn budget(&self) -> u64 {
        self.budget
    }

    /// Bandwidth `Θ_i / Π_i`.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.budget as f64 / self.period as f64
    }
}

/// An ordered collection of sporadic tasks — the task set `𝒯_i` of one VM.
///
/// # Example
///
/// ```
/// use ioguard_sched::task::{SporadicTask, TaskSet};
///
/// let ts: TaskSet = vec![
///     SporadicTask::new(10, 1, 10)?,
///     SporadicTask::new(20, 4, 15)?,
/// ]
/// .into();
/// assert_eq!(ts.len(), 2);
/// assert!((ts.utilization() - 0.3).abs() < 1e-12);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskSet {
    tasks: Vec<SporadicTask>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task.
    pub fn push(&mut self, task: SporadicTask) {
        self.tasks.push(task);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the set has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total utilization `Σ C_k / T_k`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(SporadicTask::utilization).sum()
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, SporadicTask> {
        self.tasks.iter()
    }

    /// Largest `T_k − D_k` over the set — the quantity Theorem 4's bound
    /// depends on. Zero for an empty set.
    pub fn max_period_minus_deadline(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| t.period() - t.deadline())
            .max()
            .unwrap_or(0)
    }
}

impl From<Vec<SporadicTask>> for TaskSet {
    fn from(tasks: Vec<SporadicTask>) -> Self {
        Self { tasks }
    }
}

impl FromIterator<SporadicTask> for TaskSet {
    fn from_iter<I: IntoIterator<Item = SporadicTask>>(iter: I) -> Self {
        Self {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<SporadicTask> for TaskSet {
    fn extend<I: IntoIterator<Item = SporadicTask>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a SporadicTask;
    type IntoIter = std::slice::Iter<'a, SporadicTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl IntoIterator for TaskSet {
    type Item = SporadicTask;
    type IntoIter = std::vec::IntoIter<SporadicTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

/// Greatest common divisor.
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple with overflow detection. `lcm(0, x) = 0`.
pub fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_task_roundtrip() {
        let t = SporadicTask::new(100, 10, 60).unwrap();
        assert_eq!(t.period(), 100);
        assert_eq!(t.wcet(), 10);
        assert_eq!(t.deadline(), 60);
        assert!((t.utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn implicit_deadline_constructor() {
        let t = SporadicTask::implicit(50, 5).unwrap();
        assert_eq!(t.deadline(), t.period());
    }

    #[test]
    fn rejects_zero_wcet() {
        assert!(matches!(
            SporadicTask::new(10, 0, 5),
            Err(SchedError::InvalidTask { .. })
        ));
    }

    #[test]
    fn rejects_deadline_below_wcet() {
        assert!(SporadicTask::new(10, 5, 4).is_err());
    }

    #[test]
    fn rejects_unconstrained_deadline() {
        assert!(SporadicTask::new(10, 1, 11).is_err());
        assert!(SporadicTask::new(10, 1, 10).is_ok()); // D = T allowed
    }

    #[test]
    fn server_validation() {
        assert!(PeriodicServer::new(10, 0).is_err());
        assert!(PeriodicServer::new(10, 11).is_err());
        let s = PeriodicServer::new(10, 10).unwrap();
        assert_eq!(s.bandwidth(), 1.0);
    }

    #[test]
    fn task_set_utilization_sums() {
        let ts: TaskSet = vec![
            SporadicTask::new(10, 2, 10).unwrap(),
            SporadicTask::new(20, 5, 20).unwrap(),
        ]
        .into();
        assert!((ts.utilization() - 0.45).abs() < 1e-12);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
    }

    #[test]
    fn task_set_collection_traits() {
        let tasks = [
            SporadicTask::new(10, 1, 10).unwrap(),
            SporadicTask::new(14, 2, 7).unwrap(),
        ];
        let ts: TaskSet = tasks.iter().copied().collect();
        assert_eq!(ts.len(), 2);
        let mut ts2 = TaskSet::new();
        ts2.extend(tasks.iter().copied());
        assert_eq!(ts, ts2);
        let periods: Vec<u64> = (&ts).into_iter().map(|t| t.period()).collect();
        assert_eq!(periods, vec![10, 14]);
        let owned: Vec<SporadicTask> = ts2.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn max_period_minus_deadline() {
        let ts: TaskSet = vec![
            SporadicTask::new(10, 1, 10).unwrap(), // T-D = 0
            SporadicTask::new(30, 2, 12).unwrap(), // T-D = 18
        ]
        .into();
        assert_eq!(ts.max_period_minus_deadline(), 18);
        assert_eq!(TaskSet::new().max_period_minus_deadline(), 0);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(0, 6), Some(0));
        // Two coprime near-2^62 periods overflow the LCM.
        assert_eq!(checked_lcm((1 << 62) - 1, (1 << 62) - 3), None);
    }
}
