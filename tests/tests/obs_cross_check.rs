//! Metrics/trace cross-check: folding the recorded event stream must
//! reproduce the live counter registry — exactly, after every scenario in
//! the chaos battery — and the merged latency histograms must be
//! thread-count independent.
//!
//! Includes the regression test for the P-channel-only admission edge: a
//! refused critical job is counted as a per-VM miss, and that miss has a
//! matching `DeadlineMiss` event in the obs sink (it used to bump the
//! counters silently, which broke `fold(trace) == metrics`).

use ioguard_core::chaos::ChaosSweep;
use ioguard_hypervisor::{Hypervisor, HypervisorParams, RefuseReason, RtJob, SubmitError};
use ioguard_obs::{CounterRegistry, ObsKind};

#[test]
fn fold_of_trace_matches_live_registry_across_chaos_battery() {
    let report = ChaosSweep::standard(0x000B_5E4E, 2, 0)
        .run_observed()
        .expect("battery geometry is valid");
    assert_eq!(report.trials.len(), 8);
    assert_eq!(
        report.cross_check_violations(),
        Vec::<usize>::new(),
        "every trial's folded event stream must equal its live registry"
    );
}

#[test]
fn observed_sweep_is_thread_count_independent() {
    let single = ChaosSweep::standard(0xA5, 2, 1)
        .run_observed()
        .expect("battery geometry is valid");
    let multi = ChaosSweep::standard(0xA5, 2, 8)
        .run_observed()
        .expect("battery geometry is valid");

    // The plain outcomes inside the observed trials are bit-identical to an
    // unobserved sweep: observation must not perturb the system.
    let plain = ChaosSweep::standard(0xA5, 2, 1)
        .run()
        .expect("battery geometry is valid");
    let observed_outcomes: Vec<_> = single.outcomes().into_iter().cloned().collect();
    assert_eq!(observed_outcomes, plain.outcomes);

    // Histogram merging is associative and commutative and the fold runs in
    // scenario order, so the merged summaries match at any thread count.
    assert_eq!(single.merged_hv_obs(), multi.merged_hv_obs());
    assert_eq!(single.merged_noc_latency(), multi.merged_noc_latency());
}

#[test]
fn pchannel_only_critical_refusal_leaves_trace_and_metrics_in_step() {
    let mut hv = Hypervisor::new(HypervisorParams::new(2)).expect("two plain VMs");
    hv.attach_obs(64);

    // Normal → Degraded → PchannelOnly: the R-channel is down.
    hv.degrade();
    hv.degrade();

    // A refused critical job is a miss; a refused best-effort job is shed.
    let degraded = Err(SubmitError::Refused(RefuseReason::Degraded));
    assert_eq!(hv.submit(RtJob::new(0, 1, 0, 1, 100)), degraded);
    assert_eq!(
        hv.submit(RtJob::new(1, 2, 0, 1, 100).best_effort()),
        degraded
    );

    let metrics = hv.metrics();
    assert_eq!(metrics.missed, 1);
    assert_eq!(metrics.vm(0).missed, 1);
    assert_eq!(metrics.vm(0).critical_missed, 1);

    // The regression: the obs sink carries the miss, so folding the
    // events reproduces the registry exactly.
    let obs = hv.obs().expect("obs attached");
    assert_eq!(obs.sink.of_kind(ObsKind::DeadlineMiss).count(), 1);
    assert_eq!(obs.sink.of_kind(ObsKind::Shed).count(), 1);
    let folded = CounterRegistry::from_events(2, obs.sink.iter());
    assert_eq!(folded, hv.metrics().registry());
}
