//! Single chaos-scenario runner.
//!
//! A [`ChaosScenario`] drives one hypervisor (plus a mesh NoC carrying its
//! response traffic) through a fault plan: well-behaved VMs submit a
//! steady periodic load while the plan's adversary floods, overruns its
//! declared WCET and emits malformed requests, and the device/NoC faults
//! fire per the plan's pure decision stream. The outcome carries the
//! per-VM metrics needed to check the paper's isolation claim empirically:
//! with countermeasures on, a misbehaving VM hurts only itself.

use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{
    AdmissionGuard, DegradationPolicy, HvMode, Hypervisor, HypervisorParams, RtJob,
};
use ioguard_hypervisor::metrics::HvMetrics;
use ioguard_hypervisor::{HvError, HvObs, SubmitError};
use ioguard_noc::network::{Network, NetworkConfig, NocFabric};
use ioguard_noc::obs::ObservedFabric;
use ioguard_noc::packet::Packet;
use ioguard_noc::topology::NodeId;
use ioguard_obs::{Histogram, TraceSink};
use ioguard_sched::task::PeriodicServer;

use crate::noc::NocFaultDriver;
use crate::plan::{tags, FaultPlan};

/// One chaos trial: a hypervisor under a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// The fault plan (seed, rates, adversary).
    pub plan: FaultPlan,
    /// Number of VMs.
    pub vms: usize,
    /// Trial length, in slots.
    pub horizon: u64,
    /// Period (= relative deadline) of each well-behaved VM's job stream.
    pub job_period: u64,
    /// Execution slots per well-behaved job.
    pub job_wcet: u64,
    /// Per-VM server period Πᵢ for the guarded-EDF budget.
    pub server_period: u64,
    /// Per-VM server budget Θᵢ.
    pub server_budget: u64,
    /// Device-fault decision window, in slots.
    pub stall_window: u64,
}

impl ChaosScenario {
    /// The evaluation default: 3 VMs, periodic load at a quarter of each
    /// VM's guaranteed budget, 2000-slot horizon.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            vms: 3,
            horizon: 2000,
            job_period: 16,
            job_wcet: 2,
            server_period: 8,
            server_budget: 4,
            stall_window: 128,
        }
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// [`HvError`] from hypervisor construction (invalid scenario
    /// geometry); submission errors raised *by the faults themselves*
    /// (throttles, pool overflows, malformed VMs) are part of the
    /// experiment and are counted, not propagated.
    pub fn run(&self) -> Result<ChaosOutcome, HvError> {
        let hv = self.build_hypervisor()?;
        let net = self.build_network()?;
        let (outcome, _, _) = self.run_core(hv, net)?;
        Ok(outcome)
    }

    /// Runs the scenario with the observability layer attached: the
    /// hypervisor records structured events and latency histograms, and the
    /// NoC leg runs through an [`ObservedFabric`].
    ///
    /// The simulated schedule is identical to [`ChaosScenario::run`] —
    /// observation only reads state — so `run_observed().outcome ==
    /// run()` for the same scenario.
    ///
    /// # Errors
    ///
    /// As [`ChaosScenario::run`].
    pub fn run_observed(&self) -> Result<ObservedChaos, HvError> {
        let mut hv = self.build_hypervisor()?;
        hv.attach_obs(OBS_EVENT_CAPACITY);
        let net = ObservedFabric::new(self.build_network()?, OBS_EVENT_CAPACITY);
        let (outcome, mut hv, net) = self.run_core(hv, net)?;
        let hv_obs = hv
            .take_obs()
            .unwrap_or_else(|| Box::new(HvObs::new(0, self.vms)));
        let (_, noc_sink, noc_latency) = net.into_parts();
        Ok(ObservedChaos {
            outcome,
            hv_obs,
            noc_sink,
            noc_latency,
        })
    }

    /// Builds the scenario's hypervisor (guarded-EDF servers, watchdog,
    /// flood control, degradation tuning).
    fn build_hypervisor(&self) -> Result<Hypervisor, HvError> {
        let plan = &self.plan;
        let servers: Result<Vec<PeriodicServer>, _> = (0..self.vms)
            .map(|_| PeriodicServer::new(self.server_period, self.server_budget))
            .collect();
        let servers = servers.map_err(|e| HvError::InvalidConfig {
            reason: format!("scenario server: {e}"),
        })?;
        let params = HypervisorParams::new(self.vms)
            .with_policy(GschedPolicy::GuardedEdf(servers))
            .with_watchdog(RetryPolicy {
                timeout_slots: 2,
                max_retries: plan.retry_budget,
                backoff_base: 2,
                backoff_cap: 16,
            })
            .with_admission_guard(AdmissionGuard {
                window: self.job_period,
                max_submissions: 4,
                throttle_slots: 2 * self.job_period,
            })
            .with_degradation(DegradationPolicy {
                healthy_slots_to_recover: 32,
            });
        Hypervisor::new(params)
    }

    /// Builds the scenario's response-traffic mesh.
    fn build_network(&self) -> Result<Network, HvError> {
        Network::new(NetworkConfig::mesh(4, 4)).map_err(|e| HvError::InvalidConfig {
            reason: format!("scenario mesh: {e}"),
        })
    }

    /// The trial body, generic over the fabric so the observed and plain
    /// runs execute the exact same code path.
    fn run_core<N: NocFabric>(
        &self,
        mut hv: Hypervisor,
        mut net: N,
    ) -> Result<(ChaosOutcome, Hypervisor, N), HvError> {
        let plan = &self.plan;
        let mut noc_faults = NocFaultDriver::new(plan.clone(), self.stall_window);

        let mut next_id: u64 = 1;
        let mut malformed_rejected: u64 = 0;
        let mut completed_before: u64 = 0;
        // One delivery scratch buffer for the whole trial — the per-slot
        // loop must not allocate a fresh Vec per fabric step.
        let mut noc_scratch = Vec::new();
        for t in 0..self.horizon {
            // Device faults fire on window boundaries, per the plan.
            if t % self.stall_window == 0
                && plan.chance(
                    tags::STALL,
                    t / self.stall_window,
                    0,
                    plan.device_stall_rate,
                )
            {
                hv.inject_device_stall(plan.device_stall_slots);
            }
            // Well-behaved VMs: one job per period each.
            for vm in 0..self.vms {
                if Some(vm) == plan.adversary {
                    continue;
                }
                if t % self.job_period == 0 {
                    let job = RtJob::new(vm, next_id, t, self.job_wcet, t + self.job_period);
                    next_id += 1;
                    // Under device-fault plans the guard may refuse work in
                    // degraded modes; those refusals are the data.
                    let _ = hv.submit(job);
                }
            }
            // The adversary: floods, overruns its WCET, and occasionally
            // aims at a VM that does not exist.
            if let Some(adv) = plan.adversary {
                for k in 0..plan.adversary_flood {
                    let malformed = plan.chance(tags::MALFORMED, t, k, plan.malformed_rate);
                    let vm = if malformed { self.vms + 1 } else { adv };
                    let wcet = self.job_wcet + plan.wcet_overrun;
                    let job = RtJob::new(vm, next_id, t, wcet, t + self.job_period);
                    next_id += 1;
                    if let Err(SubmitError::UnknownVm { .. }) = hv.submit(job) {
                        malformed_rejected += 1;
                    }
                }
            }
            hv.step();
            // NoC leg: apply window faults, forward one response packet per
            // fresh completion, advance the fabric one cycle.
            let _ = noc_faults.apply(&mut net, t);
            let completed_now = hv.metrics().completed;
            for c in completed_before..completed_now {
                let id = 1 + c;
                let src = NodeId::new((id % 4) as u16, ((id / 4) % 4) as u16);
                let dst = NodeId::new(3, 3);
                if let Ok(packet) = Packet::request(id, src, dst, 2) {
                    if net.inject(packet).is_ok() {
                        let _ = noc_faults.mark_packet(&mut net, id);
                    }
                }
            }
            completed_before = completed_now;
            noc_scratch.clear();
            net.step_into(&mut noc_scratch);
        }
        // Fault clearance: stop injecting, drain, and measure how long the
        // mode machine takes to climb back to Normal.
        hv.clear_device_faults();
        let mut recovery_slots = None;
        if hv.mode() != HvMode::Normal {
            let bound = 16 * 32; // generous multiple of the recovery clock
            for extra in 0..bound {
                hv.step();
                if hv.mode() == HvMode::Normal {
                    recovery_slots = Some(extra + 1);
                    break;
                }
            }
        } else {
            recovery_slots = Some(0);
        }
        noc_scratch.clear();
        net.run_until_idle_into(10_000, &mut noc_scratch);
        let noc = net.stats();
        let outcome = ChaosOutcome {
            metrics: hv.metrics().clone(),
            final_mode_ordinal: hv.mode().ordinal(),
            mode_changes: hv.metrics().mode_changes,
            recovery_slots,
            adversary: plan.adversary,
            malformed_rejected,
            noc_delivered: noc.delivered,
            noc_dropped: noc.dropped,
            noc_corrupted: noc.corrupted,
        };
        Ok((outcome, hv, net))
    }
}

/// Event capacity of the sinks attached by [`ChaosScenario::run_observed`]:
/// large enough that a default-geometry trial (flooding adversary included)
/// never evicts — the metrics/trace cross-check needs the complete stream.
pub const OBS_EVENT_CAPACITY: usize = 1 << 18;

/// The result of an observed chaos trial: the plain outcome plus the
/// recorded event streams and latency histograms.
#[derive(Debug)]
pub struct ObservedChaos {
    /// The plain trial outcome (bit-identical to [`ChaosScenario::run`]).
    pub outcome: ChaosOutcome,
    /// Hypervisor-side observability state (events + latency histograms).
    pub hv_obs: Box<HvObs>,
    /// NoC-side event stream (injections, deliveries, drops, corruption).
    pub noc_sink: TraceSink,
    /// NoC per-packet latency histogram, in cycles.
    pub noc_latency: Histogram,
}

/// The result of one chaos trial, comparable bit-for-bit across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Full hypervisor metrics (global and per-VM).
    pub metrics: HvMetrics,
    /// Final operating mode, as [`HvMode::ordinal`].
    pub final_mode_ordinal: u32,
    /// Mode transitions over the trial.
    pub mode_changes: u64,
    /// Slots from fault clearance until the mode machine reached Normal
    /// (`Some(0)` when it never left; `None` when it failed to recover
    /// within the measurement bound).
    pub recovery_slots: Option<u64>,
    /// The adversarial VM, if the plan had one.
    pub adversary: Option<usize>,
    /// Malformed submissions bounced with `UnknownVm`.
    pub malformed_rejected: u64,
    /// Response packets the NoC delivered.
    pub noc_delivered: u64,
    /// Response packets the NoC dropped (CRC-fail faults).
    pub noc_dropped: u64,
    /// Response packets delivered corrupted.
    pub noc_corrupted: u64,
}

impl ChaosOutcome {
    /// The paper's isolation property: every well-behaved VM (all but the
    /// adversary) observed zero deadline misses.
    pub fn isolation_holds(&self) -> bool {
        let vms = self.metrics.per_vm.len();
        (0..vms)
            .filter(|vm| Some(*vm) != self.adversary)
            .all(|vm| self.metrics.no_misses_for(vm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_noc::reference::ReferenceNetwork;

    #[test]
    fn quiet_scenario_is_all_green() {
        let outcome = ChaosScenario::new(FaultPlan::new(5)).run().unwrap();
        assert!(outcome.metrics.no_misses(), "{:?}", outcome.metrics);
        assert!(outcome.isolation_holds());
        assert_eq!(outcome.final_mode_ordinal, 0);
        assert_eq!(outcome.recovery_slots, Some(0));
        assert!(outcome.metrics.completed > 0);
        assert!(outcome.noc_delivered > 0);
    }

    #[test]
    fn babbling_adversary_cannot_disturb_the_others() {
        let plan = FaultPlan::new(42).with_adversary(1, 6);
        let outcome = ChaosScenario::new(plan).run().unwrap();
        assert!(outcome.isolation_holds(), "{:?}", outcome.metrics.per_vm);
        // The adversary was actually punished, not accommodated.
        let adv = outcome.metrics.vm(1);
        assert!(adv.throttled_submissions > 0, "{adv:?}");
        assert!(!adv.no_misses(), "a flooder starves itself: {adv:?}");
    }

    #[test]
    fn malformed_requests_bounce_without_harm() {
        let mut plan = FaultPlan::new(9).with_adversary(2, 4);
        plan.malformed_rate = 0.5;
        let outcome = ChaosScenario::new(plan).run().unwrap();
        assert!(outcome.malformed_rejected > 0);
        assert!(outcome.isolation_holds());
    }

    #[test]
    fn same_plan_same_outcome() {
        let mk = || {
            let mut plan = FaultPlan::new(77).with_adversary(0, 5);
            plan.drop_rate = 0.2;
            plan.link_down_rate = 0.1;
            plan.burst_rate = 0.3;
            ChaosScenario::new(plan).run().unwrap()
        };
        assert_eq!(mk(), mk(), "chaos trials are reproducible");
    }

    #[test]
    fn reference_fabric_chaos_matches_event_driven() {
        // The full chaos path — bursts, link windows, drop/corrupt marks,
        // per-slot stepping — over the per-cycle reference stepper must
        // reproduce the event-driven outcome bit-for-bit.
        let mut plan = FaultPlan::new(77).with_adversary(0, 5);
        plan.drop_rate = 0.2;
        plan.link_down_rate = 0.1;
        plan.burst_rate = 0.3;
        let mut scenario = ChaosScenario::new(plan);
        scenario.horizon = 600;
        let fast = scenario.run().unwrap();
        let hv = scenario.build_hypervisor().unwrap();
        let net = ReferenceNetwork::new(NetworkConfig::mesh(4, 4)).unwrap();
        let (reference, _, _) = scenario.run_core(hv, net).unwrap();
        assert_eq!(reference, fast, "reference-fabric chaos diverged");
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let plan = FaultPlan::new(42).with_adversary(1, 6);
        let mut scenario = ChaosScenario::new(plan);
        scenario.horizon = 400;
        let plain = scenario.run().unwrap();
        let observed = scenario.run_observed().unwrap();
        assert_eq!(observed.outcome, plain, "observation must not perturb");
        assert_eq!(observed.hv_obs.sink.dropped(), 0, "sink sized for trial");
        assert_eq!(observed.noc_sink.dropped(), 0);
        assert_eq!(
            observed
                .hv_obs
                .sink
                .of_kind(ioguard_obs::ObsKind::Complete)
                .count() as u64,
            plain.metrics.completed,
        );
        assert_eq!(observed.noc_latency.count(), plain.noc_delivered);
    }

    #[test]
    fn device_faults_degrade_and_recover_bounded() {
        let plan = FaultPlan::new(13).with_device_stalls(0.5, 48);
        let outcome = ChaosScenario::new(plan).run().unwrap();
        assert!(outcome.mode_changes > 0, "{outcome:?}");
        let recovery = outcome.recovery_slots.expect("recovered");
        assert!(recovery <= 16 * 32, "bounded recovery: {recovery}");
    }
}
