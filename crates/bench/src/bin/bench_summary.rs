//! Machine-readable benchmark summary: `BENCH_noc.json`.
//!
//! Times the event-driven NoC core ([`Network`]) against the retained
//! per-cycle reference stepper ([`ReferenceNetwork`]) on the two workload
//! shapes DESIGN.md §10 cares about — a saturated uniform-random load
//! (dense-state payoff) and a quiescence-heavy trickle (activity-horizon
//! payoff) — plus the experiment engine's `slot_rate` lineup, and writes
//! the rates to `BENCH_noc.json` in the current directory.
//!
//! Both NoC fabrics receive bit-identical stimulus through the
//! [`NocFabric`] trait, and the run aborts unless their deliveries and
//! statistics agree exactly: a summary produced from diverging simulators
//! would be meaningless. The sparse case additionally enforces the PR's
//! acceptance floor — the event-driven core must cover the idle horizon
//! at least 3× faster than per-cycle stepping.
//!
//! The `reconfig` section drives staged, verified mode changes between a
//! two-VM and a three-VM population at sweeping commit offsets and records
//! the drain-latency percentiles against the admission-time budget
//! (DESIGN.md §14). The budget is a hard gate: one over-budget drain fails
//! the run.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ioguard-bench --bin bench-summary            # full
//! cargo run --release -p ioguard-bench --bin bench-summary -- --quick # CI
//! ```
//!
//! Timing uses `std::time::Instant`; the bench crate is exempt from the
//! ioguard-lint determinism rules because wall-clock measurement is its
//! entire purpose.

use std::time::Instant;

use ioguard_bench::{prior_history, rolled_history};
use ioguard_core::casestudy::{run_trial, SystemUnderTest};
use ioguard_fleet::{Fleet, FleetConfig, PlacementPolicy};
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats, NocFabric};
use ioguard_noc::obs::ObservedFabric;
use ioguard_noc::packet::Packet;
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::topology::NodeId;
use ioguard_obs::Histogram;
use ioguard_reconfig::{ReconfigController, StagedConfig};
use ioguard_sched::ledger::{theorem1_frame, DemandLedger};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{PeriodicServer, SporadicTask};
use ioguard_serve::replay::{ReplayConfig, ReplayDriver};
use ioguard_sim::rng::Xoshiro256StarStar;
use ioguard_workload::generator::{TrialConfig, TrialWorkload};
use ioguard_workload::{FleetArrivalConfig, FleetArrivals};

/// Payload flits per packet (5 flits on the wire with the header).
const PAYLOAD_FLITS: u32 = 4;

/// Sizing knobs for one invocation.
struct Mode {
    label: &'static str,
    /// Offered-traffic cycles of the saturated case.
    saturated_cycles: u64,
    /// Packets in the sparse trickle.
    sparse_packets: u64,
    /// Idle gap between trickle packets, in cycles.
    sparse_gap: u64,
    /// Slots per `run_trial` in the engine lineup.
    slot_horizon: u64,
    /// Timing repetitions (minimum elapsed wins).
    reps: u32,
    /// Completed mode changes in the reconfig drain-latency lane.
    reconfig_flips: u64,
    /// Resident VMs in the admission lane's ledger before timing starts.
    admission_residents: u64,
    /// Timed admit/evict pairs in the admission lane.
    admission_pairs: u64,
    /// ≥10x incremental-vs-full floor of the admission lane (enforced only
    /// on hosts with at least `admission_min_cores` hardware threads).
    admission_floor: f64,
    /// Host parallelism required before the admission floor is enforced.
    admission_min_cores: usize,
    /// Lifecycle events in the fleet decision-latency run.
    fleet_events: usize,
    /// Requests the serving replay lane drives through `ioguard-serve`.
    serving_requests: u64,
}

impl Mode {
    fn quick() -> Self {
        Self {
            label: "quick",
            saturated_cycles: 1_000,
            sparse_packets: 64,
            sparse_gap: 8_192,
            slot_horizon: 4_000,
            reps: 1,
            reconfig_flips: 16,
            admission_residents: 10_000,
            admission_pairs: 64,
            admission_floor: 10.0,
            admission_min_cores: 2,
            fleet_events: 100_000,
            serving_requests: 100_000,
        }
    }

    fn full() -> Self {
        Self {
            label: "full",
            saturated_cycles: 10_000,
            sparse_packets: 256,
            sparse_gap: 8_192,
            slot_horizon: 16_000,
            reps: 3,
            reconfig_flips: 64,
            admission_residents: 10_000,
            admission_pairs: 256,
            admission_floor: 10.0,
            admission_min_cores: 2,
            fleet_events: 100_000,
            serving_requests: 1_000_000,
        }
    }
}

/// What one fabric produced: enough to check equivalence and compute rates.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    deliveries: Vec<Delivery>,
    stats: NetworkStats,
    now: u64,
}

/// Drives seeded uniform-random traffic at 30% per-node injection for
/// `cycles`, then drains. Identical call sequence for every fabric.
fn drive_saturated<N: NocFabric + ?Sized>(
    net: &mut N,
    width: u16,
    height: u16,
    cycles: u64,
) -> Outcome {
    let nodes: Vec<NodeId> = net.mesh().iter_nodes().collect();
    let mut rng = Xoshiro256StarStar::new(0x0_c0de_5eed);
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut next_id = 1u64;
    for _ in 0..cycles {
        for &src in &nodes {
            if !rng.chance(0.30) {
                continue;
            }
            let dst = loop {
                let candidate = NodeId::new(
                    rng.range_u64(0, u64::from(width)) as u16,
                    rng.range_u64(0, u64::from(height)) as u16,
                );
                if candidate != src {
                    break candidate;
                }
            };
            let packet = Packet::request(next_id, src, dst, PAYLOAD_FLITS)
                .expect("benchmark packet is valid");
            next_id += 1;
            // A full NI queue drops the offer — saturation is the point.
            let _ = net.inject(packet);
        }
        net.step_into(&mut deliveries);
    }
    net.run_until_idle_into(1_000_000, &mut deliveries);
    Outcome {
        stats: net.stats(),
        now: net.now().raw(),
        deliveries,
    }
}

/// Drives one cross-mesh packet per `gap` cycles through `run_for` — the
/// quiescence-heavy shape where the event-driven core jumps idle gaps and
/// the reference stepper pays for every cycle.
fn drive_sparse<N: NocFabric + ?Sized>(net: &mut N, packets: u64, gap: u64) -> Outcome {
    let mut deliveries: Vec<Delivery> = Vec::new();
    for i in 0..packets {
        let src = NodeId::new((i % 4) as u16, (i / 4 % 4) as u16);
        let dst = NodeId::new(3 - src.x, 3 - src.y);
        let packet =
            Packet::request(i + 1, src, dst, PAYLOAD_FLITS).expect("benchmark packet is valid");
        net.inject(packet).expect("sparse NI queue never fills");
        net.run_for(gap, &mut deliveries);
    }
    net.run_until_idle_into(1_000_000, &mut deliveries);
    Outcome {
        stats: net.stats(),
        now: net.now().raw(),
        deliveries,
    }
}

/// Times `work` `reps` times and returns (best seconds, last outcome).
fn time_runs<O>(reps: u32, mut work: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let outcome = work();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(outcome);
    }
    (best, last.expect("at least one timed run"))
}

/// One engine-vs-reference comparison, with the equivalence gate applied.
struct Comparison {
    engine_secs: f64,
    reference_secs: f64,
    flit_hops: u64,
    simulated_cycles: u64,
    delivered: u64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.reference_secs / self.engine_secs
    }

    fn engine_flits_per_sec(&self) -> f64 {
        self.flit_hops as f64 / self.engine_secs
    }

    fn engine_cycles_per_sec(&self) -> f64 {
        self.simulated_cycles as f64 / self.engine_secs
    }

    fn reference_flits_per_sec(&self) -> f64 {
        self.flit_hops as f64 / self.reference_secs
    }

    fn reference_cycles_per_sec(&self) -> f64 {
        self.simulated_cycles as f64 / self.reference_secs
    }
}

fn compare(
    name: &str,
    config: &NetworkConfig,
    reps: u32,
    drive: impl Fn(&mut dyn NocFabric) -> Outcome,
) -> Comparison {
    let (engine_secs, engine) = time_runs(reps, || {
        let mut net = Network::new(config.clone()).expect("benchmark mesh is valid");
        drive(&mut net)
    });
    let (reference_secs, reference) = time_runs(reps, || {
        let mut net = ReferenceNetwork::new(config.clone()).expect("benchmark mesh is valid");
        drive(&mut net)
    });
    assert_eq!(
        engine, reference,
        "{name}: event-driven core and reference stepper must agree exactly"
    );
    Comparison {
        engine_secs,
        reference_secs,
        flit_hops: engine.stats.flit_hops,
        simulated_cycles: engine.now,
        delivered: engine.stats.delivered,
    }
}

/// What the reconfig drain-latency lane measured.
struct DrainLane {
    flips: u64,
    drain_budget: u64,
    p50: u64,
    p95: u64,
    max: u64,
    stage_verify_secs: f64,
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives `flips` staged, verified, hyperperiod-aligned mode changes
/// between a two-VM and a three-VM population, committing at a different
/// slot offset each time so the measured drain latencies sweep the whole
/// hyperperiod. Returns the observed drain-latency percentiles (in slots)
/// against the admission-time budget, plus the total wall time spent in
/// offline stage+verify.
fn reconfig_drain_lane(flips: u64) -> DrainLane {
    let beat = |vm: usize, id: u64| PredefinedTask {
        task_id: id,
        vm,
        task: SporadicTask::implicit(8, 1).expect("static P-channel geometry"),
        response_bytes: 32,
        start_offset: 0,
    };
    let mk = |servers: &[(u64, u64)], tasks: &[(u64, u64, u64)]| {
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
    let mut two_vm = mk(&[(5, 2), (10, 3)], &[(20, 2, 10), (40, 4, 30)]);
    two_vm.predefined = vec![beat(0, 900)];
    let mut three_vm = mk(
        &[(5, 1), (10, 2), (8, 2)],
        &[(20, 1, 10), (40, 2, 30), (32, 2, 16)],
    );
    three_vm.predefined = vec![beat(1, 901)];

    const DRAIN_BUDGET: u64 = 16;
    let mut rc = ReconfigController::new(two_vm.clone(), DRAIN_BUDGET, 1 << 14)
        .expect("benchmark config verifies");
    let mut stage_verify_secs = 0.0;
    for flip in 0..flips {
        // Vary the commit offset so latencies cover the whole hyperperiod.
        rc.run(1 + flip % 7);
        // Keep the R-channel pools non-empty so every drain carries work.
        let _ = rc.submit(0, flip + 1, 1, 12, true);
        let candidate = if flip % 2 == 0 { &three_vm } else { &two_vm };
        let start = Instant::now();
        rc.stage(candidate.clone())
            .expect("benchmark candidate verifies");
        rc.commit().expect("benchmark commit fits the budget");
        stage_verify_secs += start.elapsed().as_secs_f64();
        // Two hyperperiods always reach the boundary and finish the switch.
        rc.run(16);
    }
    let mut latencies = rc.drain_latencies().to_vec();
    latencies.sort_unstable();
    DrainLane {
        flips: latencies.len() as u64,
        drain_budget: DRAIN_BUDGET,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        max: latencies.last().copied().unwrap_or(0),
        stage_verify_secs,
    }
}

/// What the incremental-admission lane measured.
struct AdmissionLane {
    frame: u64,
    residents: u64,
    /// Best full Theorem 1 sweep over the resident set, seconds.
    full_sweep_secs: f64,
    /// Mean per-decision (admit or evict) cost on the ledger, seconds.
    per_decision_secs: f64,
    /// `full_sweep_secs / per_decision_secs` — the O(Δ) payoff.
    speedup: f64,
    /// Fleet decision-latency run: event count and outcome counters.
    fleet_events: u64,
    fleet_placed: u64,
    fleet_spilled: u64,
    fleet_dropped: u64,
    fleet_local_rejects: u64,
    fleet_departed: u64,
    fleet_residents_final: u64,
    /// Per-decision wall latency over the whole fleet run, nanoseconds.
    latency_p50_ns: u64,
    latency_p95_ns: u64,
    latency_max_ns: u64,
}

/// Times the incremental admission path (DESIGN.md §15) two ways.
///
/// **Speedup**: one [`DemandLedger`] at `frame = 2²⁰` is populated with
/// `residents` VMs (harmonic periods 2¹⁴..2¹⁷, Θ = 1 — the classic
/// many-small-reservations shape), then `pairs` admit/evict decisions are
/// timed against re-running the full Theorem 1 frame sweep from scratch.
/// The ledger's answer is verified against the sweep's before timing.
///
/// **Latency**: a 10⁵-event churn stream drives an 8-shard fleet; every
/// `Fleet::apply` is timed individually into a log-bucketed histogram,
/// giving per-decision p50/p95/max under realistic mixed traffic
/// (placements, rejections, spillover retries, departures).
fn admission_lane(mode: &Mode) -> AdmissionLane {
    const FRAME: u64 = 1 << 20;
    let sigma = TimeSlotTable::from_occupied(64, &[0]).expect("benchmark σ* is valid");
    let mut ledger = DemandLedger::new(sigma.clone(), FRAME).expect("harmonic benchmark frame");
    let menu = [1u64 << 14, 1 << 15, 1 << 16, 1 << 17];
    let mut servers = Vec::with_capacity(mode.admission_residents as usize);
    for id in 0..mode.admission_residents {
        let pi = menu[(id % menu.len() as u64) as usize];
        let server = PeriodicServer::new(pi, 1).expect("benchmark server is valid");
        let outcome = ledger.admit(id, server).expect("harmonic period");
        assert!(
            outcome.admitted(),
            "admission lane residents must all fit (vm {id})"
        );
        servers.push(server);
    }

    // Oracle first: the incremental verdict must match the full sweep
    // before either is worth timing.
    let oracle = theorem1_frame(&sigma, &servers, FRAME);
    assert_eq!(ledger.verdict(), oracle, "incremental verdict diverged");
    assert!(oracle.is_schedulable());
    let (full_sweep_secs, _) = time_runs(mode.reps, || theorem1_frame(&sigma, &servers, FRAME));

    // Timed admit/evict pairs at full population: the steady-state cost
    // of one fleet decision.
    let candidate = PeriodicServer::new(1 << 14, 1).expect("benchmark server is valid");
    let pairs = mode.admission_pairs.max(1);
    let start = Instant::now();
    for i in 0..pairs {
        let id = 1_000_000 + i;
        let outcome = ledger.admit(id, candidate).expect("harmonic period");
        assert!(outcome.admitted(), "timed candidate must fit");
        ledger.evict(id).expect("candidate is resident");
    }
    let per_decision_secs = start.elapsed().as_secs_f64() / (2 * pairs) as f64;
    let speedup = full_sweep_secs / per_decision_secs.max(f64::MIN_POSITIVE);

    // Fleet decision latency under churn.
    let seed = 0xF1EE7;
    let stream = FleetArrivals::generate(&FleetArrivalConfig::new(mode.fleet_events, 300, seed));
    let config = FleetConfig::new(8, PlacementPolicy::WorstFitBySlack, seed);
    let mut fleet = Fleet::new(config).expect("benchmark fleet config is valid");
    let mut latency = Histogram::new();
    for event in stream.events() {
        let begun = Instant::now();
        let _ = fleet.apply(event);
        latency.record(begun.elapsed().as_nanos() as u64);
    }
    let stats = fleet.stats();
    AdmissionLane {
        frame: FRAME,
        residents: mode.admission_residents,
        full_sweep_secs,
        per_decision_secs,
        speedup,
        fleet_events: stream.events().len() as u64,
        fleet_placed: stats.placed,
        fleet_spilled: stats.spilled,
        fleet_dropped: stats.dropped,
        fleet_local_rejects: stats.local_rejects,
        fleet_departed: stats.departed,
        fleet_residents_final: fleet.resident_count() as u64,
        latency_p50_ns: latency.percentile(0.50).unwrap_or(0),
        latency_p95_ns: latency.percentile(0.95).unwrap_or(0),
        latency_max_ns: latency.max().unwrap_or(0),
    }
}

/// What the serving replay lane measured.
struct ServingLane {
    /// Requests actually replayed.
    requests: u64,
    /// The mode's configured request count.
    requested: u64,
    virtual_slots: u64,
    wall_secs: f64,
    /// Wall-clock ingest throughput: requests / wall seconds.
    ingest_rps: f64,
    digest: u64,
    completed: u64,
    missed: u64,
    critical_missed: u64,
    shed_best_effort: u64,
    /// Accepted requests that never got a final answer.
    unanswered: u64,
    /// (p50, p95, p99, max, deadline bound) per class, in virtual slots.
    critical: (u64, u64, u64, u64, u64),
    best_effort: (u64, u64, u64, u64, u64),
}

/// Drives the `ioguard-serve` deterministic replay (DESIGN.md §16): a
/// `FleetArrivals` client population streams wire-encoded requests
/// through connect/ingest/step on the virtual clock. Latency is in
/// virtual slots (deterministic, host-independent); the wall clock only
/// measures how fast the front-end chews through the stream.
fn serving_lane(mode: &Mode) -> ServingLane {
    let requested = mode.serving_requests;
    let config = ReplayConfig::new(requested);
    let driver = ReplayDriver::new(config);
    let start = Instant::now();
    let report = driver.run().expect("serving replay config is valid");
    let wall_secs = start.elapsed().as_secs_f64();
    let totals = report.counter_totals;
    let summary = |h: &Histogram, bound: u64| {
        (
            h.percentile(0.50).unwrap_or(0),
            h.percentile(0.95).unwrap_or(0),
            h.percentile(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
            bound,
        )
    };
    ServingLane {
        requests: report.requests_sent,
        requested,
        virtual_slots: report.slots,
        wall_secs,
        ingest_rps: report.requests_sent as f64 / wall_secs.max(f64::MIN_POSITIVE),
        digest: report.fold.digest(),
        completed: totals.completed,
        missed: totals.missed,
        critical_missed: totals.critical_missed,
        shed_best_effort: totals.dropped_best_effort,
        unanswered: report.unanswered,
        critical: summary(&report.e2e_critical, report.deadline_bound_critical),
        best_effort: summary(&report.e2e_best_effort, report.deadline_bound_best_effort),
    }
}

/// slots/s of `run_trial` for one Fig. 7 system.
fn slot_rate(system: SystemUnderTest, workload: &TrialWorkload, horizon: u64, reps: u32) -> f64 {
    let (secs, _) = time_runs(reps, || run_trial(system, workload, 7, horizon));
    horizon as f64 / secs
}

/// Formats a rate with no fractional digits — rates in the millions don't
/// need them, and integers keep the JSON diff-friendly.
fn rate(value: f64) -> String {
    format!("{value:.0}")
}

fn json_noc_case(name: &str, cmp: &Comparison) -> String {
    format!(
        concat!(
            "    \"{name}\": {{\n",
            "      \"simulated_cycles\": {cycles},\n",
            "      \"flit_hops\": {hops},\n",
            "      \"delivered_packets\": {delivered},\n",
            "      \"engine\": {{ \"flits_per_sec\": {ef}, \"cycles_per_sec\": {ec} }},\n",
            "      \"reference\": {{ \"flits_per_sec\": {rf}, \"cycles_per_sec\": {rc} }},\n",
            "      \"speedup\": {speedup:.2}\n",
            "    }}"
        ),
        name = name,
        cycles = cmp.simulated_cycles,
        hops = cmp.flit_hops,
        delivered = cmp.delivered,
        ef = rate(cmp.engine_flits_per_sec()),
        ec = rate(cmp.engine_cycles_per_sec()),
        rf = rate(cmp.reference_flits_per_sec()),
        rc = rate(cmp.reference_cycles_per_sec()),
        speedup = cmp.speedup(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { Mode::quick() } else { Mode::full() };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("bench-summary: mode={}", mode.label);

    // Saturated 8×8 uniform-random load: the dense-state case.
    let saturated_config = NetworkConfig::mesh(8, 8);
    let cycles = mode.saturated_cycles;
    let saturated = compare("saturated_8x8", &saturated_config, mode.reps, |net| {
        drive_saturated(net, 8, 8, cycles)
    });
    eprintln!(
        "bench-summary: saturated_8x8 engine {} flits/s, reference {} flits/s ({:.2}x)",
        rate(saturated.engine_flits_per_sec()),
        rate(saturated.reference_flits_per_sec()),
        saturated.speedup(),
    );

    // Observability overhead: the same saturated stimulus through an
    // ObservedFabric (trace sink + latency histogram on every delivery).
    // The acceptance bar is <5% throughput regression over the plain core.
    let (observed_secs, observed_outcome) = time_runs(mode.reps, || {
        let inner = Network::new(saturated_config.clone()).expect("benchmark mesh is valid");
        let mut net = ObservedFabric::new(inner, 1 << 16);
        drive_saturated(&mut net, 8, 8, cycles)
    });
    let (_, plain_outcome) = time_runs(1, || {
        let mut net = Network::new(saturated_config.clone()).expect("benchmark mesh is valid");
        drive_saturated(&mut net, 8, 8, cycles)
    });
    assert_eq!(
        observed_outcome, plain_outcome,
        "observation must not perturb the NoC"
    );
    let obs_overhead_pct = (observed_secs / saturated.engine_secs - 1.0) * 100.0;
    let observed_flits_per_sec = observed_outcome.stats.flit_hops as f64 / observed_secs;
    eprintln!(
        "bench-summary: obs_overhead saturated_8x8 plain {} flits/s, observed {} flits/s ({:+.1}%)",
        rate(saturated.engine_flits_per_sec()),
        rate(observed_flits_per_sec),
        obs_overhead_pct,
    );

    // Sparse 4×4 trickle: the quiescence-skipping case.
    let sparse_config = NetworkConfig::mesh(4, 4);
    let (packets, gap) = (mode.sparse_packets, mode.sparse_gap);
    let sparse = compare("sparse_4x4", &sparse_config, mode.reps, |net| {
        drive_sparse(net, packets, gap)
    });
    eprintln!(
        "bench-summary: sparse_4x4 engine {} cycles/s, reference {} cycles/s ({:.2}x)",
        rate(sparse.engine_cycles_per_sec()),
        rate(sparse.reference_cycles_per_sec()),
        sparse.speedup(),
    );

    // Reconfig drain lane: staged, verified mode changes committed at
    // sweeping slot offsets; the observed drain latencies must sit under
    // the admission-time budget, with percentiles recorded for the trend.
    let drain = reconfig_drain_lane(mode.reconfig_flips);
    eprintln!(
        "bench-summary: reconfig {} flips, drain p50 {} p95 {} max {} (budget {}), \
         stage+verify {:.1} ms total",
        drain.flips,
        drain.p50,
        drain.p95,
        drain.max,
        drain.drain_budget,
        drain.stage_verify_secs * 1e3,
    );

    // Incremental admission lane: per-decision O(Δ) ledger cost vs the
    // full Theorem 1 sweep at 10⁴ residents, plus per-decision latency
    // percentiles over a 10⁵-event fleet churn run (DESIGN.md §15).
    let admission = admission_lane(&mode);
    eprintln!(
        "bench-summary: admission {} residents, full sweep {:.2} ms, per decision {:.2} µs \
         ({:.0}x), fleet {} events p50 {} ns p95 {} ns max {} ns",
        admission.residents,
        admission.full_sweep_secs * 1e3,
        admission.per_decision_secs * 1e6,
        admission.speedup,
        admission.fleet_events,
        admission.latency_p50_ns,
        admission.latency_p95_ns,
        admission.latency_max_ns,
    );

    // Serving replay lane: the ioguard-serve front-end chewing through a
    // deterministic FleetArrivals-driven request stream on the virtual
    // clock (DESIGN.md §16). Latencies are virtual slots; the wall clock
    // only rates ingest throughput.
    let serving = serving_lane(&mode);
    eprintln!(
        "bench-summary: serving {} requests in {:.2}s ({} req/s wall), \
         critical p99 {} (bound {}), best-effort p99 {} (bound {}), digest {:#018x}",
        serving.requests,
        serving.wall_secs,
        rate(serving.ingest_rps),
        serving.critical.2,
        serving.critical.4,
        serving.best_effort.2,
        serving.best_effort.4,
        serving.digest,
    );

    // Engine slot rate: the Fig. 7 lineup from the experiment hot path.
    let workload = TrialWorkload::generate(&TrialConfig::new(4, 0.70, 7));
    let mut slot_rates: Vec<(String, f64)> = Vec::new();
    for system in SystemUnderTest::figure7_lineup() {
        let rate_value = slot_rate(system, &workload, mode.slot_horizon, mode.reps);
        eprintln!(
            "bench-summary: engine/slot_rate {} = {} slots/s",
            system.label(),
            rate(rate_value)
        );
        slot_rates.push((system.label(), rate_value));
    }

    // Hand-formatted JSON: the workspace has no JSON dependency, and the
    // schema is flat enough that string assembly stays readable.
    let slot_entries: Vec<String> = slot_rates
        .iter()
        .map(|(label, value)| format!("      \"{label}\": {}", rate(*value)))
        .collect();
    // Evaluate every acceptance gate BEFORE assembling the document: the
    // rolling history may only record fully-completed runs (an aborted
    // run still writes its JSON for inspection, but appends nothing).
    let mut failures: Vec<String> = Vec::new();

    // Acceptance floor: quiescence skipping must beat per-cycle stepping
    // by at least 3x on the sparse horizon.
    if sparse.speedup() < 3.0 {
        failures.push(format!(
            "sparse speedup {:.2}x is below the 3x floor",
            sparse.speedup()
        ));
    }

    // Bounded draining is a hard guarantee, not a trend: every completed
    // switch must have landed within the admission-time budget.
    if drain.max > drain.drain_budget {
        failures.push(format!(
            "max drain latency {} slots exceeds the {}-slot budget",
            drain.max, drain.drain_budget
        ));
    }

    // Observability must stay out of the NoC's way: <5% throughput cost
    // with the trace sink and latency histogram attached.
    if obs_overhead_pct >= 5.0 {
        failures.push(format!(
            "obs overhead {obs_overhead_pct:.1}% is above the 5% ceiling"
        ));
    }

    // Incremental-admission floor: at 10^4 residents one ledger decision
    // must beat the full sweep by >=10x. The measurement is wall-clock, so
    // it is only a hard gate on hosts with enough hardware threads to time
    // reliably; the verdict-equality assertions inside the lane hold
    // everywhere regardless.
    if host_parallelism >= mode.admission_min_cores {
        if admission.speedup < mode.admission_floor {
            failures.push(format!(
                "admission speedup {:.1}x at {} residents is below the {:.1}x floor",
                admission.speedup, admission.residents, mode.admission_floor,
            ));
        }
    } else {
        eprintln!(
            "bench-summary: admission floor advisory — host has {host_parallelism} hardware \
             thread(s), {} required to enforce the {:.1}x gate (measured {:.1}x)",
            mode.admission_min_cores, mode.admission_floor, admission.speedup,
        );
    }

    // Serving gates. Structural invariants hold on any host: the replay
    // must deliver every request it set out to send, and every request
    // the front-end accepted must get exactly one final answer.
    if serving.requests < serving.requested {
        failures.push(format!(
            "serving lane sent {} of {} requests",
            serving.requests, serving.requested
        ));
    }
    if serving.unanswered > 0 {
        failures.push(format!(
            "serving left {} accepted requests unanswered",
            serving.unanswered
        ));
    }
    // The per-class deadline gate: p99 end-to-end latency (virtual
    // slots) must sit under the largest relative deadline of the class.
    // Virtual-clock latency is host-independent, so the gate applies on
    // every host.
    if serving.critical.2 > serving.critical.4 {
        failures.push(format!(
            "serving critical p99 {} slots exceeds the {}-slot deadline bound",
            serving.critical.2, serving.critical.4
        ));
    }
    if serving.best_effort.2 > serving.best_effort.4 {
        failures.push(format!(
            "serving best-effort p99 {} slots exceeds the {}-slot deadline bound",
            serving.best_effort.2, serving.best_effort.4
        ));
    }

    let run_completed = failures.is_empty();
    // Trajectory: keep the last runs' one-line summaries so regressions
    // in the admission and serving lanes show up as a trend, not a point.
    let history = rolled_history(
        prior_history("BENCH_noc.json", 7),
        format!(
            "{{\"mode\": \"{}\", \"admission_speedup\": {:.1}, \"admission_p95_ns\": {}, \
             \"serving_rps\": {:.0}}}",
            mode.label, admission.speedup, admission.latency_p95_ns, serving.ingest_rps,
        ),
        run_completed,
        7,
    );
    let history_entries: Vec<String> = history.iter().map(|entry| format!("    {entry}")).collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ioguard-bench-noc/v7\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"host_parallelism\": {host_par},\n",
            "  \"noc\": {{\n",
            "{saturated},\n",
            "{sparse}\n",
            "  }},\n",
            "  \"obs\": {{\n",
            "    \"saturated_8x8\": {{\n",
            "      \"plain_flits_per_sec\": {plain_fps},\n",
            "      \"observed_flits_per_sec\": {obs_fps},\n",
            "      \"overhead_pct\": {obs_pct:.1}\n",
            "    }}\n",
            "  }},\n",
            "  \"reconfig\": {{\n",
            "    \"flips\": {flips},\n",
            "    \"drain_budget_slots\": {drain_budget},\n",
            "    \"drain_latency_slots\": {{ \"p50\": {drain_p50}, \"p95\": {drain_p95}, \"max\": {drain_max} }},\n",
            "    \"stage_verify_ms_total\": {stage_verify_ms:.1},\n",
            "    \"within_budget\": {within_budget}\n",
            "  }},\n",
            "  \"admission\": {{\n",
            "    \"frame\": {adm_frame},\n",
            "    \"residents\": {adm_residents},\n",
            "    \"full_sweep_ms\": {adm_full_ms:.3},\n",
            "    \"per_decision_us\": {adm_decision_us:.3},\n",
            "    \"incremental_speedup\": {adm_speedup:.1},\n",
            "    \"floor_speedup\": {adm_floor:.1},\n",
            "    \"floor_enforced\": {adm_enforced},\n",
            "    \"fleet\": {{\n",
            "      \"events\": {adm_events},\n",
            "      \"shards\": 8,\n",
            "      \"placed\": {adm_placed},\n",
            "      \"spilled\": {adm_spilled},\n",
            "      \"dropped\": {adm_dropped},\n",
            "      \"local_rejects\": {adm_rejects},\n",
            "      \"departed\": {adm_departed},\n",
            "      \"residents_final\": {adm_final},\n",
            "      \"decision_latency_ns\": {{ \"p50\": {adm_p50}, \"p95\": {adm_p95}, \"max\": {adm_max} }}\n",
            "    }}\n",
            "  }},\n",
            "  \"serving\": {{\n",
            "    \"requests\": {srv_requests},\n",
            "    \"requested\": {srv_requested},\n",
            "    \"virtual_slots\": {srv_slots},\n",
            "    \"wall_secs\": {srv_wall:.3},\n",
            "    \"ingest_requests_per_sec\": {srv_rps},\n",
            "    \"digest\": \"{srv_digest:#018x}\",\n",
            "    \"completed\": {srv_completed},\n",
            "    \"missed\": {srv_missed},\n",
            "    \"critical_missed\": {srv_crit_missed},\n",
            "    \"shed_best_effort\": {srv_shed},\n",
            "    \"unanswered\": {srv_unanswered},\n",
            "    \"e2e_critical_slots\": {{ \"p50\": {srv_c_p50}, \"p95\": {srv_c_p95}, \"p99\": {srv_c_p99}, \"max\": {srv_c_max}, \"deadline_bound\": {srv_c_bound} }},\n",
            "    \"e2e_best_effort_slots\": {{ \"p50\": {srv_b_p50}, \"p95\": {srv_b_p95}, \"p99\": {srv_b_p99}, \"max\": {srv_b_max}, \"deadline_bound\": {srv_b_bound} }}\n",
            "  }},\n",
            "  \"engine\": {{\n",
            "    \"slot_rate_slots_per_sec\": {{\n",
            "{slots}\n",
            "    }},\n",
            "    \"slot_horizon\": {horizon}\n",
            "  }},\n",
            "  \"history\": [\n",
            "{history}\n",
            "  ]\n",
            "}}\n"
        ),
        mode = mode.label,
        host_par = host_parallelism,
        saturated = json_noc_case("saturated_8x8", &saturated),
        sparse = json_noc_case("sparse_4x4", &sparse),
        plain_fps = rate(saturated.engine_flits_per_sec()),
        obs_fps = rate(observed_flits_per_sec),
        obs_pct = obs_overhead_pct,
        flips = drain.flips,
        drain_budget = drain.drain_budget,
        drain_p50 = drain.p50,
        drain_p95 = drain.p95,
        drain_max = drain.max,
        stage_verify_ms = drain.stage_verify_secs * 1e3,
        within_budget = drain.max <= drain.drain_budget,
        adm_frame = admission.frame,
        adm_residents = admission.residents,
        adm_full_ms = admission.full_sweep_secs * 1e3,
        adm_decision_us = admission.per_decision_secs * 1e6,
        adm_speedup = admission.speedup,
        adm_floor = mode.admission_floor,
        adm_enforced = host_parallelism >= mode.admission_min_cores,
        adm_events = admission.fleet_events,
        adm_placed = admission.fleet_placed,
        adm_spilled = admission.fleet_spilled,
        adm_dropped = admission.fleet_dropped,
        adm_rejects = admission.fleet_local_rejects,
        adm_departed = admission.fleet_departed,
        adm_final = admission.fleet_residents_final,
        adm_p50 = admission.latency_p50_ns,
        adm_p95 = admission.latency_p95_ns,
        adm_max = admission.latency_max_ns,
        srv_requests = serving.requests,
        srv_requested = serving.requested,
        srv_slots = serving.virtual_slots,
        srv_wall = serving.wall_secs,
        srv_rps = rate(serving.ingest_rps),
        srv_digest = serving.digest,
        srv_completed = serving.completed,
        srv_missed = serving.missed,
        srv_crit_missed = serving.critical_missed,
        srv_shed = serving.shed_best_effort,
        srv_unanswered = serving.unanswered,
        srv_c_p50 = serving.critical.0,
        srv_c_p95 = serving.critical.1,
        srv_c_p99 = serving.critical.2,
        srv_c_max = serving.critical.3,
        srv_c_bound = serving.critical.4,
        srv_b_p50 = serving.best_effort.0,
        srv_b_p95 = serving.best_effort.1,
        srv_b_p99 = serving.best_effort.2,
        srv_b_max = serving.best_effort.3,
        srv_b_bound = serving.best_effort.4,
        slots = slot_entries.join(",\n"),
        horizon = mode.slot_horizon,
        history = history_entries.join(",\n"),
    );
    std::fs::write("BENCH_noc.json", &json).expect("BENCH_noc.json is writable");
    println!("{json}");
    eprintln!("bench-summary: wrote BENCH_noc.json");

    if !run_completed {
        for failure in &failures {
            eprintln!("bench-summary: FAIL — {failure}");
        }
        eprintln!(
            "bench-summary: {} gate(s) failed; history entry NOT recorded",
            failures.len()
        );
        std::process::exit(1);
    }
}
