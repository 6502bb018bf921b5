//! Differential equivalence: the event-driven [`Network`] must be
//! bit-identical to the retained [`ReferenceNetwork`] cycle stepper —
//! same delivery sequence (packets, injection/delivery cycles, corruption
//! flags), same aggregate statistics (including contention counters), same
//! clock — under seeded random traffic, link faults and every stepping
//! mode (per-cycle, `run_until_idle`, `run_for` jumps).
//!
//! The fault-plan and multi-thread differential runs live in the
//! workspace-level `tests/` crate (they need `ioguard-faults` and
//! `ioguard-core::engine`).

use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats, NocFabric};
use ioguard_noc::packet::{Packet, PacketKind};
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::topology::{Direction, NodeId};
use ioguard_sim::rng::Xoshiro256StarStar;

/// One deterministic stimulus event, precomputed so both fabrics see the
/// exact same input stream regardless of their internal state.
#[derive(Debug, Clone)]
enum Stimulus {
    Inject(Packet),
    FailLink(NodeId, Direction),
    RestoreLink(NodeId, Direction),
}

/// Generates `cycles` worth of per-cycle stimulus for a `w`×`h` mesh.
fn stimulus(
    seed: u64,
    w: u16,
    h: u16,
    cycles: u64,
    rate: f64,
    with_link_faults: bool,
) -> Vec<Vec<Stimulus>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut id = 0u64;
    let dirs = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];
    (0..cycles)
        .map(|t| {
            let mut events = Vec::new();
            for node in 0..u64::from(w) * u64::from(h) {
                if rng.chance(rate) {
                    id += 1;
                    let src =
                        NodeId::new((node % u64::from(w)) as u16, (node / u64::from(w)) as u16);
                    let dst = NodeId::new(
                        rng.range_u64(0, u64::from(w)) as u16,
                        rng.range_u64(0, u64::from(h)) as u16,
                    );
                    let kind = match rng.range_u64(0, 3) {
                        0 => PacketKind::IoResponse,
                        1 => PacketKind::IoRequest,
                        _ => PacketKind::Memory,
                    };
                    let payload = rng.range_u64(1, 5) as u32;
                    events.push(Stimulus::Inject(
                        Packet::new(id, kind, src, dst, payload, (node % 4) as u32)
                            .expect("valid packet"),
                    ));
                }
            }
            if with_link_faults && t % 48 == 0 && t > 0 {
                let node = NodeId::new(
                    rng.range_u64(0, u64::from(w)) as u16,
                    rng.range_u64(0, u64::from(h)) as u16,
                );
                let dir = dirs[rng.range_u64(0, 4) as usize];
                if rng.chance(0.5) {
                    events.push(Stimulus::FailLink(node, dir));
                } else {
                    events.push(Stimulus::RestoreLink(node, dir));
                }
            }
            events
        })
        .collect()
}

/// Replays the stimulus against a fabric, stepping one cycle per stimulus
/// slot, then draining. Returns (deliveries, inject outcomes, stats, now).
fn drive<F: NocFabric>(
    net: &mut F,
    stim: &[Vec<Stimulus>],
    drain: u64,
) -> (Vec<Delivery>, Vec<bool>, NetworkStats, u64) {
    let mut out = Vec::new();
    let mut admitted = Vec::new();
    for events in stim {
        for ev in events {
            match ev {
                Stimulus::Inject(p) => admitted.push(net.inject(p.clone()).is_ok()),
                Stimulus::FailLink(n, d) => {
                    let _ = net.fail_link(*n, *d);
                }
                Stimulus::RestoreLink(n, d) => {
                    let _ = net.restore_link(*n, *d);
                }
            }
        }
        net.step_into(&mut out);
    }
    net.run_until_idle_into(drain, &mut out);
    (out, admitted, net.stats(), net.now().raw())
}

fn assert_equivalent(config: NetworkConfig, stim: &[Vec<Stimulus>], drain: u64) {
    let mut engine = Network::new(config.clone()).expect("engine");
    let mut reference = ReferenceNetwork::new(config).expect("reference");
    let eng = drive(&mut engine, stim, drain);
    let refr = drive(&mut reference, stim, drain);
    assert_eq!(eng.1, refr.1, "inject admission decisions diverged");
    assert_eq!(eng.0, refr.0, "delivery sequences diverged");
    assert_eq!(eng.2, refr.2, "stats diverged");
    assert_eq!(eng.3, refr.3, "clocks diverged");
    assert_eq!(engine.in_flight(), reference.in_flight());
    assert_eq!(engine.failed_link_count(), reference.failed_link_count());
}

#[test]
fn differential_4x4_uniform_traffic() {
    for seed in [1u64, 7, 42, 1234] {
        let stim = stimulus(seed, 4, 4, 400, 0.08, false);
        assert_equivalent(NetworkConfig::mesh(4, 4), &stim, 20_000);
    }
}

#[test]
fn differential_8x8_uniform_traffic() {
    for seed in [3u64, 99] {
        let stim = stimulus(seed, 8, 8, 250, 0.05, false);
        assert_equivalent(NetworkConfig::mesh(8, 8), &stim, 40_000);
    }
}

#[test]
fn differential_high_injection_saturated() {
    let stim = stimulus(11, 4, 4, 300, 0.35, false);
    assert_equivalent(NetworkConfig::mesh(4, 4), &stim, 50_000);
}

#[test]
fn differential_with_link_faults() {
    for seed in [5u64, 21, 77] {
        let stim = stimulus(seed, 4, 4, 500, 0.06, true);
        assert_equivalent(NetworkConfig::mesh(4, 4), &stim, 30_000);
    }
}

#[test]
fn differential_8x8_with_link_faults() {
    let stim = stimulus(17, 8, 8, 300, 0.04, true);
    assert_equivalent(NetworkConfig::mesh(8, 8), &stim, 60_000);
}

#[test]
fn differential_non_square_meshes() {
    // Both coordinate and downstream-port tables are built from the mesh
    // width; a square mesh cannot tell rows from columns.
    for (w, h, seed) in [(5u16, 3u16, 41u64), (2, 7, 43), (1, 6, 47), (6, 1, 53)] {
        for with_link_faults in [false, true] {
            let stim = stimulus(seed, w, h, 400, 0.08, with_link_faults);
            assert_equivalent(NetworkConfig::mesh(w, h), &stim, 30_000);
        }
    }
}

/// The 8×8 mesh at 0.3 flits per node per cycle: the shape of the NoC
/// benchmark's bursts.
#[test]
fn differential_8x8_saturated() {
    let stim = stimulus(61, 8, 8, 200, 0.3, false);
    assert_equivalent(NetworkConfig::mesh(8, 8), &stim, 60_000);
}

#[test]
fn differential_drop_and_corrupt_marks() {
    let config = NetworkConfig::mesh(4, 4);
    let mut engine = Network::new(config.clone()).unwrap();
    let mut reference = ReferenceNetwork::new(config).unwrap();
    let run = |net: &mut dyn NocFabric| {
        let mut out = Vec::new();
        for i in 0..40u64 {
            let src = NodeId::new((i % 4) as u16, ((i / 4) % 4) as u16);
            let dst = NodeId::new(((i + 1) % 4) as u16, ((i / 2) % 4) as u16);
            net.inject(Packet::request(i + 1, src, dst, 2).unwrap())
                .unwrap();
            if i % 3 == 0 {
                net.drop_packet(i + 1).unwrap();
            } else if i % 3 == 1 {
                net.corrupt_packet(i + 1).unwrap();
            }
            net.step_into(&mut out);
        }
        net.run_until_idle_into(10_000, &mut out);
        (out, net.stats(), net.now().raw())
    };
    assert_eq!(run(&mut engine), run(&mut reference));
}

#[test]
fn differential_run_for_sparse_traffic() {
    // The engine jumps idle gaps and batches uncontended traversals under
    // `run_for`; the reference steps every cycle. Clocks, deliveries and
    // stats must still agree exactly.
    let config = NetworkConfig::mesh(5, 5);
    let mut engine = Network::new(config.clone()).unwrap();
    let mut reference = ReferenceNetwork::new(config).unwrap();
    let mut rng = Xoshiro256StarStar::new(101);
    let mut eng_out = Vec::new();
    let mut ref_out = Vec::new();
    for i in 0..60u64 {
        let gap = rng.range_u64(50, 2_000);
        let src = NodeId::new(rng.range_u64(0, 5) as u16, rng.range_u64(0, 5) as u16);
        let dst = NodeId::new(rng.range_u64(0, 5) as u16, rng.range_u64(0, 5) as u16);
        let p = Packet::request(i + 1, src, dst, 1 + (i % 4) as u32).unwrap();
        engine.inject(p.clone()).unwrap();
        reference.inject(p).unwrap();
        NocFabric::run_for(&mut engine, gap, &mut eng_out);
        NocFabric::run_for(&mut reference, gap, &mut ref_out);
        assert_eq!(
            engine.now(),
            NocFabric::now(&reference),
            "clock after gap {i}"
        );
    }
    assert_eq!(eng_out, ref_out);
    assert_eq!(engine.stats(), reference.stats());
}
