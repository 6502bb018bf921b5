//! `bench-summary` — wall-clock timing of the three lanes `iobench` does
//! not measure yet:
//!
//! * **sparse NoC** — a quiescence-heavy 4×4 trickle (one packet per
//!   8 192 idle cycles) through the event-driven [`Network`] and the
//!   per-cycle [`ReferenceNetwork`];
//! * **admission** — one incremental [`DemandLedger`] decision against a
//!   full Theorem 1 sweep over 10⁴ residents;
//! * **reconfig drain** — drain latencies of staged, verified mode changes
//!   between a two-VM and a three-VM population.
//!
//! It is a printer, not a gate: it takes no flags and writes no file. It
//! fails only when a fast path and its reference disagree, since timing
//! diverging simulators would be meaningless. The bounds these lanes used
//! to gate on wall time are counted in tests: cycles stepped and ledger
//! events in `tests/tests/cost_counters.rs`, the drain budget in
//! `ioguard-reconfig`'s `reconfig_props.rs`.
//!
//! ```text
//! cargo run --release -p ioguard-bench --bin bench-summary
//! ```

use std::time::Instant;

use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats, NocFabric};
use ioguard_noc::packet::Packet;
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::topology::NodeId;
use ioguard_reconfig::{ReconfigController, StagedConfig};
use ioguard_sched::ledger::{theorem1_frame, DemandLedger};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{PeriodicServer, SporadicTask};

/// Timing repetitions per measurement (the fastest wins).
const REPS: u32 = 3;

/// Times `work` [`REPS`] times and returns (best seconds, last result).
fn best_of<O>(mut work: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let outcome = work();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(outcome);
    }
    (best, last.expect("at least one timed run"))
}

/// What one fabric produced: enough to check equivalence.
#[derive(Debug, PartialEq)]
struct Outcome {
    deliveries: Vec<Delivery>,
    stats: NetworkStats,
    now: u64,
}

/// Drives one cross-mesh packet per `gap` cycles through `run_for`.
fn drive_sparse<N: NocFabric>(net: &mut N, packets: u64, gap: u64) -> Outcome {
    let mut deliveries = Vec::new();
    for i in 0..packets {
        let src = NodeId::new((i % 4) as u16, (i / 4 % 4) as u16);
        let dst = NodeId::new(3 - src.x, 3 - src.y);
        let packet = Packet::request(i + 1, src, dst, 4).expect("benchmark packet is valid");
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

fn sparse_lane() {
    let (packets, gap) = (256, 8_192);
    let config = NetworkConfig::mesh(4, 4);
    let (engine_secs, (engine, stepped)) = best_of(|| {
        let mut net = Network::new(config.clone()).expect("benchmark mesh is valid");
        let outcome = drive_sparse(&mut net, packets, gap);
        (outcome, net.cycles_stepped())
    });
    let (reference_secs, reference) = best_of(|| {
        let mut net = ReferenceNetwork::new(config.clone()).expect("benchmark mesh is valid");
        drive_sparse(&mut net, packets, gap)
    });
    assert_eq!(
        engine, reference,
        "event-driven core and reference stepper must agree exactly"
    );
    println!(
        "sparse 4x4: {packets} packets, {} simulated cycles, {} flit-hops, {stepped} cycles stepped",
        engine.now, engine.stats.flit_hops
    );
    println!(
        "  engine {:.0} cycles/s, reference {:.0} cycles/s ({:.1}x)",
        engine.now as f64 / engine_secs,
        engine.now as f64 / reference_secs,
        reference_secs / engine_secs
    );
}

fn admission_lane() {
    const FRAME: u64 = 1 << 20;
    const RESIDENTS: u64 = 10_000;
    const PAIRS: u64 = 256;
    let sigma = TimeSlotTable::from_occupied(64, &[0]).expect("benchmark σ* is valid");
    let mut ledger = DemandLedger::new(sigma.clone(), FRAME).expect("harmonic benchmark frame");
    let menu = [1u64 << 14, 1 << 15, 1 << 16, 1 << 17];
    let mut servers = Vec::new();
    for (id, &pi) in (0..RESIDENTS).zip(menu.iter().cycle()) {
        let server = PeriodicServer::new(pi, 1).expect("benchmark server is valid");
        let outcome = ledger.admit(id, server).expect("harmonic period");
        assert!(outcome.admitted(), "resident {id} fits");
        servers.push(server);
    }
    let (full_sweep_secs, oracle) = best_of(|| theorem1_frame(&sigma, &servers, FRAME));
    assert_eq!(ledger.verdict(), oracle, "incremental verdict diverged");
    let candidate = PeriodicServer::new(1 << 14, 1).expect("benchmark server is valid");
    let start = Instant::now();
    for id in 1_000_000..1_000_000 + PAIRS {
        let outcome = ledger.admit(id, candidate).expect("harmonic period");
        assert!(outcome.admitted(), "candidate fits");
        ledger.evict(id).expect("candidate is resident");
    }
    let per_decision_secs = start.elapsed().as_secs_f64() / (2 * PAIRS) as f64;
    let sweep_events: u64 = servers.iter().map(|s| FRAME / s.period()).sum();
    println!(
        "admission: {RESIDENTS} residents, frame {FRAME}; full sweep {sweep_events} events, \
         one decision {} events",
        ledger.delta_stats(&candidate).delta_events
    );
    println!(
        "  full sweep {:.2} ms, per decision {:.2} us ({:.0}x)",
        full_sweep_secs * 1e3,
        per_decision_secs * 1e6,
        full_sweep_secs / per_decision_secs.max(f64::MIN_POSITIVE)
    );
}

fn reconfig_lane() {
    const DRAIN_BUDGET: u64 = 16;
    const FLIPS: u64 = 64;
    let beat = |vm: usize, task_id: u64| PredefinedTask {
        task_id,
        vm,
        task: SporadicTask::implicit(8, 1).expect("static P-channel geometry"),
        response_bytes: 32,
        start_offset: 0,
    };
    let mk = |servers: &[(u64, u64)], tasks: &[(u64, u64, u64)], beat: PredefinedTask| {
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
        let mut config = StagedConfig::new(servers, sets);
        config.predefined = vec![beat];
        config
    };
    let two_vm = mk(
        &[(5, 2), (10, 3)],
        &[(20, 2, 10), (40, 4, 30)],
        beat(0, 900),
    );
    let three_vm = mk(
        &[(5, 1), (10, 2), (8, 2)],
        &[(20, 1, 10), (40, 2, 30), (32, 2, 16)],
        beat(1, 901),
    );
    let mut rc = ReconfigController::new(two_vm.clone(), DRAIN_BUDGET, 1 << 14)
        .expect("benchmark config verifies");
    let mut stage_verify_secs = 0.0;
    for flip in 0..FLIPS {
        // Vary the commit offset so latencies cover the whole hyperperiod.
        rc.run(1 + flip % 7);
        let _ = rc.submit(0, flip + 1, 1, 12, true);
        let candidate = if flip % 2 == 0 { &three_vm } else { &two_vm };
        let start = Instant::now();
        rc.stage(candidate.clone())
            .expect("benchmark candidate verifies");
        rc.commit().expect("benchmark commit fits the budget");
        stage_verify_secs += start.elapsed().as_secs_f64();
        rc.run(16);
    }
    let mut latencies = rc.drain_latencies().to_vec();
    latencies.sort_unstable();
    let at = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
    println!(
        "reconfig: {} flips, drain p50 {} p95 {} max {} slots (budget {DRAIN_BUDGET}), \
         stage+verify {:.1} ms total",
        latencies.len(),
        at(0.50),
        at(0.95),
        at(1.0),
        stage_verify_secs * 1e3
    );
}

fn main() {
    sparse_lane();
    admission_lane();
    reconfig_lane();
}
