//! Canonical observed runs and the `OBS_snapshot.json` composer.
//!
//! Two fixed scenarios anchor the observability layer's regression story:
//!
//! * [`end_to_end_observed`] — a healthy two-VM run (P-channel task,
//!   periodic critical + best-effort streams, one mid-run flood, a NoC
//!   response leg). Exercises the admit → grant → dispatch → complete
//!   path plus throttling.
//! * [`chaos_observed`] — a shrunk device-stall chaos trial
//!   ([`ChaosScenario::run_observed`]). Exercises faults, retries, mode
//!   changes, recovery and the degraded admission edges.
//! * [`reconfig_observed`] — a canonical stage → verify → commit → drain
//!   mode change: a two-VM system verified and flipped to a three-VM
//!   successor at a hyperperiod boundary, with jobs carried across the
//!   switch. Exercises the `Reconfig*` event kinds and the epoch-tagged
//!   per-epoch traces.
//!
//! Both are pure functions of their seed: the rendered traces
//! ([`render_trace`]) are byte-identical across runs and thread counts,
//! which is exactly what the golden-trace tests and the `trace-export`
//! determinism check in CI pin down. [`snapshot_json`] composes the
//! summaries into the hand-formatted `OBS_snapshot.json` document (the
//! workspace carries no JSON library; fixed key order and indentation are
//! by construction).

use ioguard_faults::{ChaosScenario, FaultPlan, ObservedChaos};
use ioguard_hypervisor::hypervisor::AdmissionGuard;
use ioguard_hypervisor::metrics::HvMetrics;
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_hypervisor::{HvObs, Hypervisor, HypervisorParams, RtJob};
use ioguard_noc::network::{NetworkConfig, NocFabric};
use ioguard_noc::obs::ObservedFabric;
use ioguard_noc::packet::Packet;
use ioguard_noc::topology::NodeId;
use ioguard_noc::Network;
use ioguard_obs::export::{counters_json, fnv1a, hist_json, kind_counts_json};
use ioguard_obs::{Histogram, TraceSink};
use ioguard_reconfig::{ReconfigController, ReconfigTotals, StagedConfig};
use ioguard_sched::task::{PeriodicServer, SporadicTask};

/// Slots simulated by [`end_to_end_observed`].
pub const END_TO_END_HORIZON: u64 = 256;

/// Slots simulated by [`chaos_observed`] (a shrunk chaos trial).
pub const CHAOS_HORIZON: u64 = 300;

/// An observed end-to-end run: final metrics plus everything the
/// observability layer recorded.
#[derive(Debug)]
pub struct ObservedRun {
    /// Final hypervisor metrics.
    pub metrics: HvMetrics,
    /// Hypervisor-side observability state (events + latency histograms).
    pub hv_obs: Box<HvObs>,
    /// NoC-side event stream.
    pub noc_sink: TraceSink,
    /// NoC per-packet latency histogram, in cycles.
    pub noc_latency: Histogram,
}

/// Deterministic per-slot jitter: a pure hash of `(seed, t)`.
fn jitter(seed: u64, t: u64) -> u64 {
    let mut x = seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// Runs the canonical healthy scenario with the observability layer on.
///
/// Two VMs on a global-EDF hypervisor with one pre-defined P-channel task:
/// VM 0 submits a critical job every 6 slots (WCET 1–2, seed-jittered),
/// VM 1 a best-effort job every 9 slots, and at slot 100 VM 1 floods past
/// the admission guard to exercise throttling. Completions push response
/// packets across an observed 3×3 mesh. Pure in `seed`: same seed, same
/// trace bytes.
pub fn end_to_end_observed(seed: u64) -> ObservedRun {
    let predefined = PredefinedTask {
        task_id: 900,
        vm: 0,
        task: SporadicTask::implicit(8, 1).expect("static P-channel geometry"),
        response_bytes: 32,
        start_offset: 0,
    };
    let params = HypervisorParams::new(2)
        .with_predefined(vec![predefined])
        .with_admission_guard(AdmissionGuard {
            window: 16,
            max_submissions: 8,
            throttle_slots: 32,
        });
    let mut hv = Hypervisor::new(params).expect("static scenario geometry");
    hv.attach_obs(1 << 14);

    let net = Network::new(NetworkConfig::mesh(3, 3)).expect("static mesh geometry");
    let mut net = ObservedFabric::new(net, 1 << 12);

    let mut next_id: u64 = 1;
    let mut completed_before: u64 = 0;
    let mut scratch = Vec::new();
    for t in 0..END_TO_END_HORIZON {
        if t % 6 == 0 {
            let wcet = 1 + jitter(seed, t) % 2;
            let _ = hv.submit(RtJob::new(0, next_id, t, wcet, t + 6));
            next_id += 1;
        }
        if t % 9 == 0 {
            let _ = hv.submit(RtJob::new(1, next_id, t, 2, t + 9).best_effort());
            next_id += 1;
        }
        if t == 100 {
            // A short flood from VM 1: trips the admission guard, so the
            // trace carries throttle events on the healthy path too.
            for _ in 0..12 {
                let _ = hv.submit(RtJob::new(1, next_id, t, 1, t + 16).best_effort());
                next_id += 1;
            }
        }
        hv.step();
        let completed_now = hv.metrics().completed;
        for c in completed_before..completed_now {
            let id = 1 + c;
            let src = NodeId::new((id % 3) as u16, ((id / 3) % 3) as u16);
            let dst = NodeId::new(2, 2);
            if let Ok(packet) = Packet::request(id, src, dst, 2) {
                let _ = net.inject(packet);
            }
        }
        completed_before = completed_now;
        scratch.clear();
        net.step_into(&mut scratch);
    }
    scratch.clear();
    net.run_until_idle_into(10_000, &mut scratch);

    let metrics = hv.metrics().clone();
    let hv_obs = hv.take_obs().unwrap_or_else(|| Box::new(HvObs::new(0, 2)));
    let (_, noc_sink, noc_latency) = net.into_parts();
    ObservedRun {
        metrics,
        hv_obs,
        noc_sink,
        noc_latency,
    }
}

/// Runs the canonical chaos scenario (device stalls, shrunk horizon) with
/// the observability layer on. Pure in `seed`.
pub fn chaos_observed(seed: u64) -> ObservedChaos {
    let mut scenario = ChaosScenario::new(FaultPlan::new(seed).with_device_stalls(0.5, 48));
    scenario.horizon = CHAOS_HORIZON;
    scenario
        .run_observed()
        .expect("static chaos scenario geometry")
}

/// Slots simulated by [`reconfig_observed`].
pub const RECONFIG_HORIZON: u64 = 48;

/// An observed online-reconfiguration run: the controller's own event
/// stream plus the per-epoch hypervisor traces.
#[derive(Debug)]
pub struct ObservedReconfig {
    /// Work-conservation totals across every epoch.
    pub totals: ReconfigTotals,
    /// The controller's Stage/Verify/Commit/Abort/Drain stream.
    pub reconfig_sink: TraceSink,
    /// Hypervisor event streams, one per epoch (retired epochs in order,
    /// then the live epoch) — the epoch tag of every dispatch is which
    /// stream it appears in.
    pub epoch_sinks: Vec<TraceSink>,
    /// Observed drain latency of every completed switch, in slots.
    pub drain_latencies: Vec<u64>,
    /// Final epoch number.
    pub epochs: u64,
}

/// Runs the canonical mode change with the observability layer on.
///
/// A two-VM system (σ\* heartbeat of period 8, critical jobs every 6
/// slots on VM 0, best-effort every 9 on VM 1, WCETs seed-jittered)
/// stages a verified three-VM successor at slot 5 and commits; the switch
/// runs at the slot-8 hyperperiod boundary with a 3-slot traced drain,
/// carrying in-flight work into epoch 1. Pure in `seed`: same seed, same
/// trace bytes.
pub fn reconfig_observed(seed: u64) -> ObservedReconfig {
    let beat = |vm: usize, id: u64| PredefinedTask {
        task_id: id,
        vm,
        task: SporadicTask::implicit(8, 1).expect("static P-channel geometry"),
        response_bytes: 32,
        start_offset: 0,
    };
    let mk = |servers: Vec<(u64, u64)>, tasks: Vec<(u64, u64, u64)>| {
        let servers = servers
            .iter()
            .map(|&(p, t)| PeriodicServer::new(p, t).expect("static server geometry"))
            .collect();
        let sets = tasks
            .iter()
            .map(|&(t, c, d)| {
                vec![SporadicTask::new(t, c, d).expect("static task geometry")].into()
            })
            .collect();
        StagedConfig::new(servers, sets)
    };
    let mut old = mk(vec![(5, 2), (10, 3)], vec![(20, 2, 10), (40, 4, 30)]);
    old.predefined = vec![beat(0, 900)];
    let mut new = mk(
        vec![(5, 1), (10, 2), (8, 2)],
        vec![(20, 1, 10), (40, 2, 30), (32, 2, 16)],
    );
    new.predefined = vec![beat(1, 901)];

    let mut rc = ReconfigController::new(old, 16, 1 << 10).expect("static reconfig geometry");
    rc.attach_obs(1 << 12);
    let mut next_id: u64 = 1;
    for t in 0..RECONFIG_HORIZON {
        if t == 5 {
            rc.stage(new.clone()).expect("canonical successor verifies");
            rc.commit().expect("slot-8 boundary fits the drain budget");
        }
        if t % 6 == 0 {
            let wcet = 1 + jitter(seed, t) % 2;
            let _ = rc.submit(0, next_id, wcet, 12, true);
            next_id += 1;
        }
        if t % 9 == 0 {
            let _ = rc.submit(1, next_id, 2, 18, false);
            next_id += 1;
        }
        rc.step();
    }
    let mut epoch_sinks: Vec<TraceSink> = Vec::new();
    for r in rc.retired() {
        if let Some(obs) = &r.obs {
            epoch_sinks.push(obs.sink.clone());
        }
    }
    if let Some(obs) = rc.hv().obs() {
        epoch_sinks.push(obs.sink.clone());
    }
    ObservedReconfig {
        totals: rc.totals(),
        reconfig_sink: rc.sink().clone(),
        epoch_sinks,
        drain_latencies: rc.drain_latencies().to_vec(),
        epochs: rc.epoch(),
    }
}

/// Canonical text rendering of an observed reconfiguration — the
/// golden-trace payload: the controller's event stream followed by one
/// hypervisor section per epoch.
pub fn render_reconfig_trace(run: &ObservedReconfig) -> String {
    let mut out = String::from("# reconfig events\n");
    out.push_str(&run.reconfig_sink.render());
    for (i, sink) in run.epoch_sinks.iter().enumerate() {
        out.push_str(&format!("# epoch {i} hypervisor events\n"));
        out.push_str(&sink.render());
    }
    out
}

/// Canonical text rendering of one observed run's event streams — the
/// golden-trace payload: a hypervisor section and a NoC section, each one
/// line per event.
pub fn render_trace(hv_sink: &TraceSink, noc_sink: &TraceSink) -> String {
    format!(
        "# hypervisor events\n{}# noc events\n{}",
        hv_sink.render(),
        noc_sink.render()
    )
}

/// Composes the full `OBS_snapshot.json` document for `seed`: summaries of
/// the end-to-end and chaos scenarios with histogram statistics, per-VM
/// counters, per-kind event counts, and an FNV-1a checksum of each
/// rendered trace. Deterministic byte-for-byte: CI runs it twice and
/// diffs.
pub fn snapshot_json(seed: u64) -> String {
    let run = end_to_end_observed(seed);
    let chaos = chaos_observed(seed);
    let chaos_registry = chaos.outcome.metrics.registry();
    let recovery = chaos
        .outcome
        .recovery_slots
        .map_or_else(|| "null".to_string(), |r| r.to_string());
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ioguard-obs-snapshot-v1\",\n",
            "  \"seed\": {seed},\n",
            "  \"end_to_end\": {{\n",
            "    \"horizon_slots\": {e2e_horizon},\n",
            "    \"completed\": {e2e_completed},\n",
            "    \"missed\": {e2e_missed},\n",
            "    \"trace_events\": {e2e_events},\n",
            "    \"trace_checksum\": {e2e_checksum},\n",
            "    \"submit_to_dispatch\": {e2e_s2d},\n",
            "    \"dispatch_to_response\": {e2e_d2r},\n",
            "    \"e2e_critical\": {e2e_crit},\n",
            "    \"e2e_best_effort\": {e2e_be},\n",
            "    \"noc_latency\": {e2e_noc},\n",
            "    \"counters\": {e2e_counters},\n",
            "    \"events_by_kind\": {e2e_kinds}\n",
            "  }},\n",
            "  \"chaos\": {{\n",
            "    \"horizon_slots\": {chaos_horizon},\n",
            "    \"mode_changes\": {chaos_modes},\n",
            "    \"recovery_slots\": {chaos_recovery},\n",
            "    \"trace_events\": {chaos_events},\n",
            "    \"trace_checksum\": {chaos_checksum},\n",
            "    \"noc_latency\": {chaos_noc},\n",
            "    \"counters\": {chaos_counters},\n",
            "    \"events_by_kind\": {chaos_kinds}\n",
            "  }}\n",
            "}}\n"
        ),
        seed = seed,
        e2e_horizon = END_TO_END_HORIZON,
        e2e_completed = run.metrics.completed,
        e2e_missed = run.metrics.missed,
        e2e_events = run.hv_obs.sink.recorded(),
        e2e_checksum = fnv1a(&render_trace(&run.hv_obs.sink, &run.noc_sink)),
        e2e_s2d = hist_json(&run.hv_obs.submit_to_dispatch, 4),
        e2e_d2r = hist_json(&run.hv_obs.dispatch_to_response, 4),
        e2e_crit = hist_json(&run.hv_obs.e2e_critical, 4),
        e2e_be = hist_json(&run.hv_obs.e2e_best_effort, 4),
        e2e_noc = hist_json(&run.noc_latency, 4),
        e2e_counters = counters_json(&run.metrics.registry(), 4),
        e2e_kinds = kind_counts_json(run.hv_obs.sink.iter(), 4),
        chaos_horizon = CHAOS_HORIZON,
        chaos_modes = chaos.outcome.mode_changes,
        chaos_recovery = recovery,
        chaos_events = chaos.hv_obs.sink.recorded(),
        chaos_checksum = fnv1a(&render_trace(&chaos.hv_obs.sink, &chaos.noc_sink)),
        chaos_noc = hist_json(&chaos.noc_latency, 4),
        chaos_counters = counters_json(&chaos_registry, 4),
        chaos_kinds = kind_counts_json(chaos.hv_obs.sink.iter(), 4),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_obs::{CounterRegistry, ObsKind};

    #[test]
    fn end_to_end_run_is_deterministic_and_lossless() {
        let a = end_to_end_observed(11);
        let b = end_to_end_observed(11);
        assert_eq!(
            render_trace(&a.hv_obs.sink, &a.noc_sink),
            render_trace(&b.hv_obs.sink, &b.noc_sink)
        );
        assert_eq!(a.hv_obs.sink.dropped(), 0);
        assert_eq!(a.noc_sink.dropped(), 0);
        assert!(a.metrics.completed > 0);
        assert!(
            a.hv_obs.sink.of_kind(ObsKind::Throttle).count() >= 1,
            "the slot-100 flood must trip the admission guard"
        );
        assert!(a.hv_obs.e2e_critical.count() > 0);
        assert!(a.noc_latency.count() > 0);
    }

    #[test]
    fn end_to_end_fold_matches_live_registry() {
        let run = end_to_end_observed(3);
        let folded = CounterRegistry::from_events(2, run.hv_obs.sink.iter());
        assert_eq!(folded, run.metrics.registry());
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let a = snapshot_json(5);
        assert_eq!(a, snapshot_json(5));
        assert!(a.contains("\"schema\": \"ioguard-obs-snapshot-v1\""));
        assert!(a.contains("\"trace_checksum\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn reconfig_run_is_deterministic_and_lossless() {
        let a = reconfig_observed(7);
        let b = reconfig_observed(7);
        assert_eq!(render_reconfig_trace(&a), render_reconfig_trace(&b));
        assert_eq!(a.reconfig_sink.dropped(), 0);
        for sink in &a.epoch_sinks {
            assert_eq!(sink.dropped(), 0);
        }
        assert!(a.totals.conserved(), "{:?}", a.totals);
    }

    #[test]
    fn reconfig_run_switches_once_at_the_slot_8_boundary() {
        let run = reconfig_observed(7);
        assert_eq!(run.epochs, 1);
        assert_eq!(run.epoch_sinks.len(), 2);
        assert_eq!(run.drain_latencies, vec![3]);
        assert_eq!(run.reconfig_sink.of_kind(ObsKind::ReconfigDrain).count(), 1);
        assert_eq!(run.reconfig_sink.of_kind(ObsKind::ReconfigAbort).count(), 0);
        let trace = render_reconfig_trace(&run);
        assert!(trace.contains("# reconfig events\n"));
        assert!(trace.contains("# epoch 0 hypervisor events\n"));
        assert!(trace.contains("# epoch 1 hypervisor events\n"));
    }
}
