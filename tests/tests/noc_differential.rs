//! Workspace-level differential runs: the event-driven NoC core vs the
//! retained reference stepper under active [`FaultPlan`]s, driven through
//! the windowed [`NocFaultDriver`] — and the whole comparison repeated on
//! the work-stealing engine at 1 and 8 threads to prove the equivalence is
//! thread-count-independent (nothing in either fabric may depend on where
//! or when it runs).

use ioguard_core::engine;
use ioguard_faults::noc::NocFaultDriver;
use ioguard_faults::plan::FaultPlan;
use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats, NocFabric};
use ioguard_noc::obs::ObservedFabric;
use ioguard_noc::packet::Packet;
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::topology::NodeId;
use ioguard_sim::rng::Xoshiro256StarStar;

/// One faulted trial: seeded traffic + the plan's NoC faults, applied
/// identically to any fabric. Returns every observable the fabrics expose.
fn run_faulted<F: NocFabric>(
    net: &mut F,
    plan: &FaultPlan,
    seed: u64,
    cycles: u64,
) -> (Vec<Delivery>, NetworkStats, u64, usize) {
    let mesh = net.mesh();
    let (w, h) = (u64::from(mesh.width()), u64::from(mesh.height()));
    let mut driver = NocFaultDriver::new(plan.clone(), 64);
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    for t in 0..cycles {
        driver.apply(net, t).expect("fault application");
        for node in 0..w * h {
            if rng.chance(0.06) {
                id += 1;
                let src = NodeId::new((node % w) as u16, (node / w) as u16);
                let dst = NodeId::new(rng.range_u64(0, w) as u16, rng.range_u64(0, h) as u16);
                let payload = rng.range_u64(1, 5) as u32;
                let packet = Packet::request(id, src, dst, payload).expect("valid packet");
                if net.inject(packet).is_ok() {
                    driver.mark_packet(net, id).expect("mark follows inject");
                }
            }
        }
        net.step_into(&mut out);
    }
    // Repair every link, then drain so all surviving packets resolve
    // (identically on both fabrics).
    for idx in 0..mesh.nodes() {
        let node = mesh.node_at(idx);
        for dir in [
            ioguard_noc::topology::Direction::North,
            ioguard_noc::topology::Direction::South,
            ioguard_noc::topology::Direction::East,
            ioguard_noc::topology::Direction::West,
        ] {
            net.restore_link(node, dir).expect("in-mesh node");
        }
    }
    net.run_until_idle_into(100_000, &mut out);
    (out, net.stats(), net.now().raw(), net.failed_link_count())
}

fn faulted_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.link_down_rate = 0.08;
    plan.drop_rate = 0.15;
    plan.corrupt_rate = 0.1;
    plan.burst_rate = 0.3;
    plan.burst_packets = 3;
    plan
}

#[test]
fn fault_plan_differential_4x4() {
    for seed in [2u64, 19, 83] {
        let plan = faulted_plan(seed);
        let mut engine = Network::new(NetworkConfig::mesh(4, 4)).unwrap();
        let mut reference = ReferenceNetwork::new(NetworkConfig::mesh(4, 4)).unwrap();
        let eng = run_faulted(&mut engine, &plan, seed, 600);
        let refr = run_faulted(&mut reference, &plan, seed, 600);
        assert_eq!(eng, refr, "seed {seed}: faulted runs diverged");
        assert!(
            eng.1.dropped + eng.1.corrupted > 0,
            "seed {seed}: the plan actually exercised fault paths"
        );
    }
}

#[test]
fn fault_plan_differential_8x8() {
    let plan = faulted_plan(7);
    let mut engine = Network::new(NetworkConfig::mesh(8, 8)).unwrap();
    let mut reference = ReferenceNetwork::new(NetworkConfig::mesh(8, 8)).unwrap();
    let eng = run_faulted(&mut engine, &plan, 7, 400);
    let refr = run_faulted(&mut reference, &plan, 7, 400);
    assert_eq!(eng, refr);
}

#[test]
fn observed_reference_trace_is_byte_identical_to_event_driven() {
    // The observability wrapper over both fabrics: the rendered event
    // stream (injections, deliveries, corruption, drop edges — with their
    // cycle stamps) and the latency histogram of the reference stepper must
    // equal the event-driven engine's byte-for-byte.
    let plan = faulted_plan(19);
    let config = NetworkConfig::mesh(4, 4);
    let capacity = 1 << 16;
    let mut fast = ObservedFabric::new(Network::new(config.clone()).unwrap(), capacity);
    let eng = run_faulted(&mut fast, &plan, 19, 600);
    let (_, fast_sink, fast_latency) = fast.into_parts();
    assert_eq!(fast_sink.dropped(), 0, "sink sized for the trial");
    let golden = fast_sink.render();
    assert!(!golden.is_empty());
    let mut reference = ObservedFabric::new(ReferenceNetwork::new(config).unwrap(), capacity);
    let refr = run_faulted(&mut reference, &plan, 19, 600);
    assert_eq!(refr, eng, "observed outcome diverged");
    let (_, sink, latency) = reference.into_parts();
    assert_eq!(sink.dropped(), 0);
    assert!(
        sink.render() == golden,
        "reference trace bytes diverged from the engine's"
    );
    assert_eq!(latency, fast_latency, "latency histogram diverged");
}

/// Summary of one trial, comparable across fabrics and thread counts.
#[derive(Debug, PartialEq)]
struct TrialDigest {
    deliveries: Vec<(u64, u64, u64, bool)>,
    stats: NetworkStats,
    now: u64,
}

fn digest<F: NocFabric>(mk: impl Fn() -> F, plan: &FaultPlan, seed: u64) -> TrialDigest {
    let mut net = mk();
    let (out, stats, now, _) = run_faulted(&mut net, plan, seed, 400);
    TrialDigest {
        deliveries: out
            .iter()
            .map(|d| {
                (
                    d.packet.id(),
                    d.injected_at.raw(),
                    d.delivered_at.raw(),
                    d.corrupted,
                )
            })
            .collect(),
        stats,
        now,
    }
}

#[test]
fn differential_is_thread_count_independent() {
    // Eight independent (seed, plan) trials, each comparing engine vs
    // reference, distributed over the work-stealing engine at 1 thread and
    // again at 8 threads: every digest must agree everywhere.
    let seeds: Vec<u64> = vec![3, 11, 29, 47, 61, 71, 89, 97];
    let run_all = |threads: usize| {
        let (results, _) = engine::run_indexed(threads, &seeds, |_, &seed| {
            let plan = faulted_plan(seed);
            let config = NetworkConfig::mesh(4, 4);
            let eng = digest(|| Network::new(config.clone()).unwrap(), &plan, seed);
            let refr = digest(
                || ReferenceNetwork::new(config.clone()).unwrap(),
                &plan,
                seed,
            );
            assert_eq!(eng, refr, "seed {seed}: fabrics diverged");
            eng
        });
        results
    };
    let single = run_all(1);
    let eight = run_all(8);
    assert_eq!(single, eight, "thread count changed a trial digest");
}
