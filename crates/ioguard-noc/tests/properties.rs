//! Property-based tests for the mesh NoC substrate.

use proptest::prelude::*;

use ioguard_noc::network::{Network, NetworkConfig};
use ioguard_noc::packet::{Packet, PacketKind};
use ioguard_noc::topology::{Mesh, NodeId};

fn arb_mesh_dims() -> impl Strategy<Value = (u16, u16)> {
    (2u16..=5, 2u16..=5)
}

fn arb_packets(w: u16, h: u16) -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec((0..w, 0..h, 0..w, 0..h, 1u32..=6, 0u8..3), 1..20).prop_map(
        move |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (sx, sy, dx, dy, flits, kind))| {
                    let kind = match kind {
                        0 => PacketKind::IoRequest,
                        1 => PacketKind::IoResponse,
                        _ => PacketKind::Memory,
                    };
                    Packet::new(
                        i as u64 + 1,
                        kind,
                        NodeId::new(sx, sy),
                        NodeId::new(dx, dy),
                        flits,
                        0,
                    )
                    .expect("flits ≥ 1")
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet conservation: everything injected is delivered exactly once,
    /// intact, at its destination.
    #[test]
    fn all_packets_delivered_intact((w, h) in arb_mesh_dims(), seed in 0u64..64) {
        let packets = {
            // Derive a deterministic packet set from the seed.
            let mut out = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let n = 1 + (next() % 16) as usize;
            for i in 0..n {
                let src = NodeId::new((next() % w as u64) as u16, (next() % h as u64) as u16);
                let dst = NodeId::new((next() % w as u64) as u16, (next() % h as u64) as u16);
                out.push(
                    Packet::request(i as u64 + 1, src, dst, 1 + (next() % 5) as u32)
                        .expect("≥1 flit"),
                );
            }
            out
        };
        let mut net = Network::new(NetworkConfig::mesh(w, h)).expect("valid dims");
        for p in &packets {
            net.inject(p.clone()).expect("fits the NI");
        }
        let out = net.run_until_idle(1_000_000);
        prop_assert_eq!(out.len(), packets.len());
        prop_assert_eq!(net.in_flight(), 0);
        let mut got: Vec<u64> = out.iter().map(|d| d.packet.id()).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = packets.iter().map(|p| p.id()).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        for d in &out {
            let original = packets.iter().find(|p| p.id() == d.packet.id()).expect("known id");
            prop_assert_eq!(&d.packet, original, "payload metadata survives transit");
        }
    }

    /// Latency lower bound: a packet can never beat injection + hops +
    /// serialization.
    #[test]
    fn latency_respects_physics((w, h) in arb_mesh_dims(), packets in (2u16..=5, 2u16..=5).prop_flat_map(|(w, h)| arb_packets(w, h))) {
        let mut net = Network::new(NetworkConfig::mesh(w.max(5), h.max(5))).expect("valid");
        let mesh = net.mesh();
        for p in packets.iter().filter(|p| mesh.contains(p.src()) && mesh.contains(p.dst())) {
            net.inject(p.clone()).expect("fits");
        }
        let out = net.run_until_idle(1_000_000);
        for d in &out {
            let hops = d.packet.src().hops_to(d.packet.dst()) as u64;
            let serialization = d.packet.total_flits() as u64;
            prop_assert!(
                d.latency().raw() >= hops + serialization,
                "packet {} latency {} under floor {}",
                d.packet.id(),
                d.latency().raw(),
                hops + serialization
            );
        }
    }

    /// Determinism: the same injection sequence gives identical delivery
    /// times.
    #[test]
    fn network_is_deterministic(packets in arb_packets(4, 4)) {
        let run = || {
            let mut net = Network::new(NetworkConfig::mesh(4, 4)).expect("valid");
            for p in &packets {
                net.inject(p.clone()).expect("fits");
            }
            let mut out = net.run_until_idle(1_000_000);
            out.sort_by_key(|d| d.packet.id());
            out.iter().map(|d| d.delivered_at.raw()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// XY paths never leave the mesh and always make progress.
    #[test]
    fn xy_paths_are_minimal((w, h) in arb_mesh_dims(), sx in 0u16..5, sy in 0u16..5, dx in 0u16..5, dy in 0u16..5) {
        let mesh = Mesh::new(w, h);
        let src = NodeId::new(sx % w, sy % h);
        let dst = NodeId::new(dx % w, dy % h);
        let path = mesh.xy_path(src, dst);
        prop_assert_eq!(path.len() as u32, src.hops_to(dst) + 1);
        for n in &path {
            prop_assert!(mesh.contains(*n));
        }
        // Distance to destination strictly decreases along the path.
        for pair in path.windows(2) {
            prop_assert!(pair[1].hops_to(dst) < pair[0].hops_to(dst));
        }
    }

    /// Flit-hop accounting: total hops equal the sum over packets of
    /// flits × (hops + 1) (each flit crosses every router on the path,
    /// including the ejection move).
    #[test]
    fn flit_hop_accounting(packets in arb_packets(3, 3)) {
        let mut net = Network::new(NetworkConfig::mesh(3, 3)).expect("valid");
        for p in &packets {
            net.inject(p.clone()).expect("fits");
        }
        let out = net.run_until_idle(1_000_000);
        prop_assert_eq!(out.len(), packets.len());
        let expected: u64 = packets
            .iter()
            .map(|p| p.total_flits() as u64 * (p.src().hops_to(p.dst()) as u64 + 1))
            .sum();
        prop_assert_eq!(net.stats().flit_hops, expected);
    }
}
