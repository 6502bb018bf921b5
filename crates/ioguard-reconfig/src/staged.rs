//! Staged configurations and the offline admission pipeline.
//!
//! A [`StagedConfig`] is a complete description of a candidate system —
//! VM population, per-VM servers and declared task sets, pre-defined
//! P-channel load, pool capacity and the robustness knobs — built *beside*
//! the running hypervisor. It becomes committable only by passing
//! [`StagedConfig::verify`]: the static well-formedness checks plus the
//! exact Theorem 1/3 schedulability tests. Verification is proof-carrying:
//! the only way to obtain a [`VerifiedConfig`] (the type the commit path
//! accepts) is through the pipeline, so an unverified candidate cannot
//! reach the live system by construction. Rejection is the default — a
//! failed stage yields a typed [`RejectReason`] and the old configuration
//! keeps running untouched.

use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::error::HvError;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{
    AdmissionGuard, DegradationPolicy, HypervisorParams, DEFAULT_POOL_CAPACITY,
};
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_hypervisor::Hypervisor;
use ioguard_sched::analysis::{TwoLayerAnalysis, TwoLayerVerdict};
use ioguard_sched::task::{PeriodicServer, TaskSet};
use ioguard_sched::SchedError;

/// Why a staged configuration was rejected (or an in-flight commit
/// aborted). Every variant carries enough to act on; [`Self::ordinal`] is
/// the stable code carried in `ReconfigAbort` trace events.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The candidate has no VMs.
    EmptyPopulation,
    /// The candidate's pool capacity is zero.
    ZeroPoolCapacity,
    /// VM count, server count and task-set count disagree.
    PopulationMismatch {
        /// Declared VM count.
        vms: usize,
        /// Number of periodic servers.
        servers: usize,
        /// Number of per-VM task sets.
        task_sets: usize,
    },
    /// The pre-defined tasks do not fit a feasible σ\*.
    InfeasibleTable {
        /// Constructor diagnostic.
        reason: String,
    },
    /// The schedulability analysis itself could not run.
    Analysis(SchedError),
    /// The exact tests ran and the candidate is not schedulable.
    Unschedulable {
        /// True when Theorem 1 (the global layer) passed.
        global_ok: bool,
        /// VMs failing their Theorem 3 test.
        failing_vms: Vec<usize>,
    },
    /// The quiesce window to the next hyperperiod boundary exceeds the
    /// drain latency budget.
    DrainBudgetExceeded {
        /// Slots from commit acceptance to the boundary.
        needed: u64,
        /// Configured bound.
        budget: u64,
    },
    /// A commit is already draining; back-to-back flips must wait.
    SwitchPending,
    /// No verified stage is held (commit without a successful stage).
    NothingStaged,
    /// The old system left [`ioguard_hypervisor::hypervisor::HvMode::Normal`]
    /// during the drain (device fault mid-quiesce): the switch is aborted
    /// and the old configuration keeps running.
    DegradedAtBoundary,
    /// The candidate's hypervisor cannot be built. Staging builds it,
    /// and activation moves that build into place, so this is raised at
    /// staging only.
    Activation(HvError),
    /// The operator rolled back an in-flight stage or commit explicitly.
    Cancelled,
}

impl RejectReason {
    /// Stable ordinal carried in `ReconfigAbort` events' `arg` field.
    pub fn ordinal(&self) -> u64 {
        match self {
            RejectReason::EmptyPopulation => 0,
            RejectReason::ZeroPoolCapacity => 1,
            RejectReason::PopulationMismatch { .. } => 2,
            RejectReason::InfeasibleTable { .. } => 3,
            RejectReason::Analysis(_) => 4,
            RejectReason::Unschedulable { .. } => 5,
            RejectReason::DrainBudgetExceeded { .. } => 6,
            RejectReason::SwitchPending => 7,
            RejectReason::NothingStaged => 8,
            RejectReason::DegradedAtBoundary => 9,
            RejectReason::Activation(_) => 10,
            RejectReason::Cancelled => 11,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::EmptyPopulation => write!(f, "candidate has no VMs"),
            RejectReason::ZeroPoolCapacity => write!(f, "pool capacity must be positive"),
            RejectReason::PopulationMismatch {
                vms,
                servers,
                task_sets,
            } => write!(
                f,
                "population mismatch: {vms} VMs, {servers} servers, {task_sets} task sets"
            ),
            RejectReason::InfeasibleTable { reason } => {
                write!(f, "infeasible time slot table: {reason}")
            }
            RejectReason::Analysis(e) => write!(f, "schedulability analysis failed: {e}"),
            RejectReason::Unschedulable {
                global_ok,
                failing_vms,
            } => write!(
                f,
                "candidate unschedulable (global ok: {global_ok}, failing VMs: {failing_vms:?})"
            ),
            RejectReason::DrainBudgetExceeded { needed, budget } => write!(
                f,
                "drain needs {needed} slots to the boundary, budget is {budget}"
            ),
            RejectReason::SwitchPending => write!(f, "a commit is already draining"),
            RejectReason::NothingStaged => write!(f, "no verified stage held"),
            RejectReason::DegradedAtBoundary => {
                write!(f, "old system degraded during the drain; switch aborted")
            }
            RejectReason::Activation(e) => write!(f, "candidate hypervisor cannot be built: {e}"),
            RejectReason::Cancelled => write!(f, "rolled back by explicit abort"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// A complete candidate configuration, constructed beside the live system.
///
/// The G-Sched policy of a reconfig-managed system is always
/// [`GschedPolicy::GuardedEdf`] over [`Self::servers`] — the budget-guarded
/// variant is the one whose isolation the chaos battery proves, and using
/// the same server vector for the policy and the analysis means the
/// schedulability proof talks about exactly the parameters that run.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedConfig {
    /// Per-VM periodic servers `Γ_i = (Π_i, Θ_i)` — one per VM, used both
    /// as the GuardedEdf budgets and as Theorem 1/3 input.
    pub servers: Vec<PeriodicServer>,
    /// Per-VM declared sporadic workloads (Theorem 3 input).
    pub task_sets: Vec<TaskSet>,
    /// Pre-defined P-channel load (σ\* is built from this).
    pub predefined: Vec<PredefinedTask>,
    /// Hardware queue capacity of each I/O pool.
    pub pool_capacity: usize,
    /// Maximum σ\* hyper-period the banks can hold.
    pub max_table_len: u64,
    /// Optional per-transaction watchdog.
    pub watchdog: Option<RetryPolicy>,
    /// Graceful-degradation tuning.
    pub degradation: DegradationPolicy,
    /// Optional submission flood control.
    pub admission_guard: Option<AdmissionGuard>,
}

impl StagedConfig {
    /// A minimal candidate: the given servers and task sets, no P-channel
    /// load, default capacity and robustness knobs.
    pub fn new(servers: Vec<PeriodicServer>, task_sets: Vec<TaskSet>) -> Self {
        Self {
            servers,
            task_sets,
            predefined: Vec::new(),
            pool_capacity: DEFAULT_POOL_CAPACITY,
            max_table_len: 1 << 22,
            watchdog: None,
            degradation: DegradationPolicy::default(),
            admission_guard: None,
        }
    }

    /// Declared VM count (one server per VM).
    pub fn vm_count(&self) -> usize {
        self.servers.len()
    }

    /// The construction parameters this candidate activates with.
    pub fn params(&self) -> HypervisorParams {
        HypervisorParams {
            vms: self.servers.len(),
            pool_capacity: self.pool_capacity,
            policy: GschedPolicy::GuardedEdf(self.servers.clone()),
            predefined: self.predefined.clone(),
            max_table_len: self.max_table_len,
            reclaim: None,
            watchdog: self.watchdog,
            degradation: self.degradation,
            admission_guard: self.admission_guard,
        }
    }

    /// Runs the full offline admission pipeline: static well-formedness,
    /// the candidate's hypervisor (σ\* included), then the exact Theorem
    /// 1/3 tests. The hypervisor built here is the one activation runs.
    ///
    /// # Errors
    ///
    /// A typed [`RejectReason`]; the candidate never touches the live
    /// system either way.
    pub fn verify(&self) -> Result<VerifiedConfig, RejectReason> {
        let (hv, analysis) = self.static_checks()?;
        let verdict = match analysis.schedulable() {
            Ok(v) => v,
            Err(e) => return Err(RejectReason::Analysis(e)),
        };
        if !verdict.is_schedulable() {
            return Err(RejectReason::Unschedulable {
                global_ok: verdict.global.is_schedulable(),
                failing_vms: verdict.failing_vms(),
            });
        }
        Ok(VerifiedConfig {
            config: self.clone(),
            hv,
            analysis,
            verdict,
        })
    }

    /// Static (non-schedulability) checks, returning the candidate's
    /// hypervisor and the analysis model over its σ\*.
    fn static_checks(&self) -> Result<(Hypervisor, TwoLayerAnalysis), RejectReason> {
        if self.servers.is_empty() {
            return Err(RejectReason::EmptyPopulation);
        }
        if self.pool_capacity == 0 {
            return Err(RejectReason::ZeroPoolCapacity);
        }
        if self.servers.len() != self.task_sets.len() {
            return Err(RejectReason::PopulationMismatch {
                vms: self.servers.len(),
                servers: self.servers.len(),
                task_sets: self.task_sets.len(),
            });
        }
        // Build the hypervisor offline, once: a candidate that cannot be
        // built is rejected here, and activation moves this build into
        // place.
        let hv = match Hypervisor::new(self.params()) {
            Ok(hv) => hv,
            Err(HvError::TableConstruction { reason }) => {
                return Err(RejectReason::InfeasibleTable { reason })
            }
            Err(e) => return Err(RejectReason::Activation(e)),
        };
        let table = hv.pchannel().table().clone();
        match TwoLayerAnalysis::new(table, self.servers.clone(), self.task_sets.clone()) {
            Ok(a) => Ok((hv, a)),
            Err(e) => Err(RejectReason::Analysis(e)),
        }
    }
}

/// A candidate that passed the full admission pipeline — the only type the
/// commit path accepts. Carries the proof (analysis model and verdict)
/// alongside the configuration, and the candidate's never-stepped
/// hypervisor that activation moves into place.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedConfig {
    config: StagedConfig,
    pub(crate) hv: Hypervisor,
    analysis: TwoLayerAnalysis,
    verdict: TwoLayerVerdict,
}

impl VerifiedConfig {
    /// The verified candidate.
    pub fn config(&self) -> &StagedConfig {
        &self.config
    }

    /// The analysis model the verdict was proven against.
    pub fn analysis(&self) -> &TwoLayerAnalysis {
        &self.analysis
    }

    /// The proven (schedulable) two-layer verdict.
    pub fn verdict(&self) -> &TwoLayerVerdict {
        &self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_sched::task::SporadicTask;

    fn task(t: u64, c: u64, d: u64) -> SporadicTask {
        SporadicTask::new(t, c, d).unwrap()
    }

    pub(crate) fn light_config() -> StagedConfig {
        StagedConfig::new(
            vec![
                PeriodicServer::new(5, 2).unwrap(),
                PeriodicServer::new(10, 3).unwrap(),
            ],
            vec![vec![task(20, 2, 10)].into(), vec![task(40, 4, 30)].into()],
        )
    }

    #[test]
    fn light_config_verifies() {
        let v = light_config().verify().unwrap();
        assert!(v.verdict().is_schedulable());
        assert_eq!(v.config().vm_count(), 2);
    }

    #[test]
    fn empty_population_rejected() {
        let c = StagedConfig::new(vec![], vec![]);
        assert_eq!(c.verify().unwrap_err(), RejectReason::EmptyPopulation);
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut c = light_config();
        c.pool_capacity = 0;
        assert_eq!(c.verify().unwrap_err(), RejectReason::ZeroPoolCapacity);
    }

    #[test]
    fn population_mismatch_rejected() {
        let mut c = light_config();
        c.task_sets.pop();
        assert!(matches!(
            c.verify().unwrap_err(),
            RejectReason::PopulationMismatch {
                vms: 2,
                servers: 2,
                task_sets: 1
            }
        ));
    }

    #[test]
    fn overloaded_vm_rejected_with_failing_set() {
        let mut c = light_config();
        c.task_sets = vec![
            vec![task(20, 2, 10)].into(),
            vec![task(10, 9, 10)].into(), // utilization 0.9 ≫ server 0.3
        ];
        match c.verify().unwrap_err() {
            RejectReason::Unschedulable {
                global_ok,
                failing_vms,
            } => {
                assert!(global_ok);
                assert_eq!(failing_vms, vec![1]);
            }
            other => panic!("expected Unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_table_rejected() {
        let mut c = light_config();
        c.predefined = vec![PredefinedTask {
            task_id: 1,
            vm: 0,
            task: SporadicTask::implicit(7, 3).unwrap(),
            response_bytes: 64,
            start_offset: 0,
        }];
        c.max_table_len = 3; // hyper-period 7 > 3
        assert!(matches!(
            c.verify().unwrap_err(),
            RejectReason::InfeasibleTable { .. }
        ));
    }

    #[test]
    fn invalid_admission_guard_is_an_activation_failure() {
        let guard = AdmissionGuard {
            window: 8,
            max_submissions: 4,
            throttle_slots: 16,
        };
        for broken in [
            AdmissionGuard { window: 0, ..guard },
            AdmissionGuard {
                max_submissions: 0,
                ..guard
            },
        ] {
            let mut c = light_config();
            c.admission_guard = Some(broken);
            let reason = c.verify().unwrap_err();
            assert!(
                matches!(
                    reason,
                    RejectReason::Activation(HvError::InvalidConfig { .. })
                ),
                "{broken:?}: {reason:?}"
            );
            assert_eq!(reason.ordinal(), 10);
        }
        let mut c = light_config();
        c.admission_guard = Some(guard);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn reject_reason_ordinals_are_stable() {
        assert_eq!(RejectReason::EmptyPopulation.ordinal(), 0);
        assert_eq!(
            RejectReason::DrainBudgetExceeded {
                needed: 9,
                budget: 4
            }
            .ordinal(),
            6
        );
        assert_eq!(RejectReason::DegradedAtBoundary.ordinal(), 9);
        let shown = RejectReason::DrainBudgetExceeded {
            needed: 9,
            budget: 4,
        }
        .to_string();
        assert!(shown.contains("9") && shown.contains("4"), "{shown}");
    }
}
