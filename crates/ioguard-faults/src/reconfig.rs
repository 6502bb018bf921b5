//! Fault-injected online reconfiguration.
//!
//! A [`ReconfigScenario`] drives a [`ReconfigController`] through a fault
//! plan while *flipping the configuration mid-trial*: every flip window
//! the plan decides (purely, from its seed) whether to stage the other
//! population and commit it, so mode changes land in the middle of device
//! stalls, adversary floods and degradation episodes. The interesting
//! cases are exactly the ones the protocol must survive:
//!
//! * **Stalls during the drain** — the device stalls while a commit is
//!   quiescing; if the mode machine leaves Normal by the boundary the
//!   switch aborts and the old configuration keeps running.
//! * **Babbling VMs across the boundary** — a flooding adversary keeps
//!   submitting straight through the switch (including at VM ids that
//!   depart), and must bounce or be carried, never duplicated.
//! * **Back-to-back flips** — a flip window shorter than the quiesce
//!   distance forces `SwitchPending` rejections, which must be clean.
//!
//! The [`ReconfigOutcome`] is `PartialEq`, so sweeps can compare trials
//! bit-for-bit across thread counts.

use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy};
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_hypervisor::{HvError, SubmitError};
use ioguard_obs::ObsKind;
use ioguard_reconfig::{
    ReconfigController, ReconfigPhase, ReconfigTotals, RejectReason, StagedConfig,
};
use ioguard_sched::task::{PeriodicServer, SporadicTask};

use crate::plan::{tags, FaultPlan};

/// One fault-injected reconfiguration trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigScenario {
    /// The fault plan (seed, device stalls, adversary).
    pub plan: FaultPlan,
    /// VM population of the even-numbered configurations (epoch 0, 2, …).
    pub vms_even: usize,
    /// VM population of the odd-numbered configurations.
    pub vms_odd: usize,
    /// Trial length, in slots.
    pub horizon: u64,
    /// Period (= relative deadline) of each well-behaved VM's job stream.
    pub job_period: u64,
    /// Execution slots per well-behaved job.
    pub job_wcet: u64,
    /// Slots between flip windows (a flip is *attempted* each window).
    pub flip_period: u64,
    /// Per-window probability that the window actually flips.
    pub flip_rate: f64,
    /// Drain latency budget handed to the controller, in slots.
    pub drain_budget: u64,
    /// Device-fault decision window, in slots.
    pub stall_window: u64,
}

impl ReconfigScenario {
    /// The sweep default: 3 ↔ 2 VMs, flips attempted every 64 slots,
    /// 1200-slot horizon, drain budget of one σ* hyperperiod.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            vms_even: 3,
            vms_odd: 2,
            horizon: 1200,
            job_period: 16,
            job_wcet: 2,
            flip_period: 64,
            flip_rate: 1.0,
            drain_budget: 16,
            stall_window: 128,
        }
    }

    /// The configuration of flavor `odd`: the scenario's servers and
    /// declared task sets over the corresponding population, plus the σ*
    /// heartbeat task that pins the hyperperiod to 16 slots.
    fn config(&self, odd: bool) -> StagedConfig {
        let vms = if odd { self.vms_odd } else { self.vms_even };
        let servers: Vec<PeriodicServer> = (0..vms)
            .filter_map(|_| PeriodicServer::new(8, 2).ok())
            .collect();
        let sets = (0..vms)
            .filter_map(|_| SporadicTask::new(32, 2, 16).ok().map(|t| vec![t].into()))
            .collect();
        let mut c = StagedConfig::new(servers, sets);
        if let Ok(beat) = SporadicTask::implicit(16, 1) {
            c.predefined = vec![PredefinedTask {
                task_id: 990,
                vm: 0,
                task: beat,
                response_bytes: 16,
                start_offset: 0,
            }];
        }
        c.watchdog = Some(RetryPolicy {
            timeout_slots: 2,
            max_retries: self.plan.retry_budget,
            backoff_base: 2,
            backoff_cap: 16,
        });
        c.admission_guard = Some(AdmissionGuard {
            window: self.job_period,
            max_submissions: 4,
            throttle_slots: 2 * self.job_period,
        });
        c.degradation = DegradationPolicy {
            healthy_slots_to_recover: 32,
        };
        c
    }

    /// Runs the trial to completion.
    ///
    /// # Errors
    ///
    /// [`HvError::InvalidConfig`] when the scenario's initial
    /// configuration fails the admission pipeline (bad geometry);
    /// rejections and aborts *during* the trial are part of the
    /// experiment and are counted, not propagated.
    pub fn run(&self) -> Result<ReconfigOutcome, HvError> {
        let plan = &self.plan;
        let mut rc = ReconfigController::new(self.config(false), self.drain_budget, 4096).map_err(
            |reason| HvError::InvalidConfig {
                reason: format!("reconfig scenario: {reason}"),
            },
        )?;

        let mut next_id: u64 = 1;
        let mut stage_rejects: u64 = 0;
        let mut commit_rejects: u64 = 0;
        let mut commits: u64 = 0;
        let mut malformed_rejected: u64 = 0;
        let mut next_flavor_odd = true;
        for t in 0..self.horizon {
            // Device faults fire on window boundaries, per the plan —
            // including squarely inside drain windows.
            if t % self.stall_window == 0
                && plan.chance(
                    tags::STALL,
                    t / self.stall_window,
                    0,
                    plan.device_stall_rate,
                )
            {
                rc.hv_mut().inject_device_stall(plan.device_stall_slots);
            }
            // Flip windows: the plan decides purely whether this window
            // stages and commits the other population.
            if t > 0
                && t % self.flip_period == 0
                && plan.chance(tags::RECONFIG, t / self.flip_period, 0, self.flip_rate)
            {
                match rc.stage(self.config(next_flavor_odd)) {
                    Ok(_) => match rc.commit() {
                        Ok(_) => {
                            commits += 1;
                            next_flavor_odd = !next_flavor_odd;
                        }
                        Err(_) => commit_rejects += 1,
                    },
                    Err(_) => stage_rejects += 1,
                }
            }
            // Well-behaved VMs: one job per period each, straight through
            // any drain or switch.
            let vms_now = rc.hv().vm_count();
            for vm in 0..vms_now {
                if Some(vm) == plan.adversary {
                    continue;
                }
                if t % self.job_period == 0 {
                    let id = next_id;
                    next_id += 1;
                    let _ = rc.submit(vm, id, self.job_wcet, self.job_period, true);
                }
            }
            // The adversary babbles across boundaries: it floods its VM id
            // regardless of whether the current epoch still has it.
            if let Some(adv) = plan.adversary {
                for k in 0..plan.adversary_flood {
                    let malformed = plan.chance(tags::MALFORMED, t, k, plan.malformed_rate);
                    let vm = if malformed { vms_now + 1 } else { adv };
                    let id = next_id;
                    next_id += 1;
                    let wcet = self.job_wcet + plan.wcet_overrun;
                    if let Err(SubmitError::UnknownVm { .. }) =
                        rc.submit(vm, id, wcet, self.job_period, false)
                    {
                        malformed_rejected += 1;
                    }
                }
            }
            rc.step();
        }

        let totals = rc.totals();
        let boundary_aborts = rc
            .sink()
            .of_kind(ObsKind::ReconfigAbort)
            .filter(|e| e.arg == RejectReason::DegradedAtBoundary.ordinal())
            .count() as u64;
        let max_drain = rc.drain_latencies().iter().copied().max().unwrap_or(0);
        Ok(ReconfigOutcome {
            totals,
            conserved: totals.conserved(),
            epochs: rc.epoch(),
            switches: rc.drain_latencies().len() as u64,
            commits,
            stage_rejects,
            commit_rejects,
            boundary_aborts,
            max_drain,
            drain_within_budget: max_drain <= self.drain_budget,
            final_vms: rc.hv().vm_count(),
            draining_at_end: rc.phase() == ReconfigPhase::Draining,
            malformed_rejected,
        })
    }
}

/// The result of one fault-injected reconfiguration trial, comparable
/// bit-for-bit across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Work-conservation totals across every epoch.
    pub totals: ReconfigTotals,
    /// Whether the totals balance (the exactly-once invariant).
    pub conserved: bool,
    /// Final epoch number (completed switches).
    pub epochs: u64,
    /// Switches that actually ran their drain and activated.
    pub switches: u64,
    /// Commits accepted (some may later abort at the boundary).
    pub commits: u64,
    /// Stage attempts rejected (verification or `SwitchPending`).
    pub stage_rejects: u64,
    /// Accepted stages whose commit was rejected (drain budget).
    pub commit_rejects: u64,
    /// Commits aborted at the boundary because the system was degraded.
    pub boundary_aborts: u64,
    /// Largest observed drain latency, in slots.
    pub max_drain: u64,
    /// Whether every drain stayed within the configured budget.
    pub drain_within_budget: bool,
    /// VM population of the final epoch.
    pub final_vms: usize,
    /// Whether the trial ended mid-drain.
    pub draining_at_end: bool,
    /// Malformed submissions bounced with `UnknownVm`.
    pub malformed_rejected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_scenario_flips_cleanly() {
        let outcome = ReconfigScenario::new(FaultPlan::new(5)).run().unwrap();
        assert!(outcome.conserved, "{outcome:?}");
        assert!(outcome.switches > 0, "{outcome:?}");
        assert!(outcome.drain_within_budget);
        assert_eq!(outcome.boundary_aborts, 0);
        assert_eq!(outcome.epochs, outcome.switches);
        assert!(outcome.totals.completed > 0);
    }

    #[test]
    fn stalls_during_drain_abort_or_switch_safely() {
        let plan = FaultPlan::new(13).with_device_stalls(0.6, 48);
        let outcome = ReconfigScenario::new(plan).run().unwrap();
        assert!(outcome.conserved, "{outcome:?}");
        assert!(outcome.drain_within_budget, "{outcome:?}");
        // Every accepted commit either switched or aborted at a degraded
        // boundary — none may vanish.
        assert_eq!(
            outcome.commits,
            outcome.switches + outcome.boundary_aborts + u64::from(outcome.draining_at_end),
            "{outcome:?}"
        );
    }

    #[test]
    fn babbling_vm_across_boundaries_cannot_break_conservation() {
        let mut plan = FaultPlan::new(42).with_adversary(1, 6);
        plan.malformed_rate = 0.25;
        plan.wcet_overrun = 2;
        let outcome = ReconfigScenario::new(plan).run().unwrap();
        assert!(outcome.conserved, "{outcome:?}");
        assert!(outcome.switches > 0, "{outcome:?}");
        assert!(outcome.malformed_rejected > 0);
        assert!(outcome.drain_within_budget);
    }

    #[test]
    fn back_to_back_flips_serialize_cleanly() {
        let mut scenario = ReconfigScenario::new(FaultPlan::new(7));
        scenario.flip_period = 2; // far below the quiesce distance
        scenario.horizon = 400;
        let outcome = scenario.run().unwrap();
        assert!(outcome.conserved, "{outcome:?}");
        assert!(
            outcome.stage_rejects > 0,
            "flips inside a drain must bounce with SwitchPending: {outcome:?}"
        );
        assert!(outcome.switches > 0);
        assert!(outcome.drain_within_budget);
    }

    #[test]
    fn tight_budget_rejects_commits_without_harm() {
        let mut scenario = ReconfigScenario::new(FaultPlan::new(21));
        scenario.drain_budget = 0; // only boundary-aligned commits fit
        let outcome = scenario.run().unwrap();
        assert!(outcome.conserved, "{outcome:?}");
        assert!(outcome.drain_within_budget);
        // Flip windows (64) are multiples of the hyperperiod (16), so
        // commits land aligned and still switch with zero-latency drains.
        assert_eq!(outcome.max_drain, 0);
    }

    #[test]
    fn same_scenario_same_outcome() {
        let mk = || {
            let mut plan = FaultPlan::new(77).with_adversary(0, 5);
            plan.device_stall_rate = 0.4;
            plan.malformed_rate = 0.1;
            ReconfigScenario::new(plan).run().unwrap()
        };
        assert_eq!(mk(), mk(), "reconfig trials are reproducible");
    }
}
