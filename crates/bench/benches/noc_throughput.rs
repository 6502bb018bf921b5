//! Throughput of the event-driven NoC simulation core.
//!
//! Reports the two rates DESIGN.md §10 targets:
//!
//! * **flits/s and cycles/s under load** — how fast [`Network`] grinds a
//!   uniform-random workload at low (~2%) and high (~30%) per-node
//!   injection on 4×4 and 8×8 meshes. This exercises the dense FIFO
//!   arena, the packet slab, and the activity bitmasks with every router
//!   busy — the case where quiescence skipping cannot help and must not
//!   hurt.
//! * **sparse simulated-cycles/s** — a quiescence-heavy trickle (one
//!   packet every 8 192 cycles) driven through [`Network::run_for`],
//!   where idle-gap jumping and express transit pay for the whole
//!   redesign: cost scales with work, not with the simulated horizon.
//!
//! `bench-summary` (`cargo run -p ioguard-bench --bin bench-summary`)
//! times the same workloads against the retained per-cycle reference
//! stepper and emits the machine-readable `BENCH_noc.json`.
//!
//! Run with: `cargo bench -p ioguard-bench --bench noc_throughput`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ioguard_noc::network::{Delivery, Network, NetworkConfig};
use ioguard_noc::packet::Packet;
use ioguard_noc::topology::NodeId;
use ioguard_sim::rng::Xoshiro256StarStar;

/// Payload flits per benchmark packet (5 flits on the wire with the header).
const PAYLOAD_FLITS: u32 = 4;

/// One uniform-random load case.
#[derive(Debug, Clone, Copy)]
struct UniformCase {
    width: u16,
    height: u16,
    /// Bernoulli injection probability per node per cycle.
    rate: f64,
    /// Cycles of offered traffic before the drain.
    cycles: u64,
}

/// Drives `cycles` of seeded uniform-random traffic plus a drain, and
/// returns (flit-hops executed, simulated cycles) for throughput math.
fn run_uniform(case: &UniformCase) -> (u64, u64) {
    let config = NetworkConfig::mesh(case.width, case.height);
    let mut net = Network::new(config).expect("benchmark mesh is valid");
    let nodes: Vec<NodeId> = net.mesh().iter_nodes().collect();
    let mut rng = Xoshiro256StarStar::new(0x0_c0de_5eed);
    let mut out: Vec<Delivery> = Vec::new();
    let mut next_id = 1u64;
    for _ in 0..case.cycles {
        for &src in &nodes {
            if !rng.chance(case.rate) {
                continue;
            }
            let dst = loop {
                let candidate = NodeId::new(
                    rng.range_u64(0, u64::from(case.width)) as u16,
                    rng.range_u64(0, u64::from(case.height)) as u16,
                );
                if candidate != src {
                    break candidate;
                }
            };
            let packet = Packet::request(next_id, src, dst, PAYLOAD_FLITS)
                .expect("benchmark packet is valid");
            next_id += 1;
            // A full NI queue drops the offer — saturation is the point of
            // the high-rate cases.
            let _ = net.inject(packet);
        }
        out.clear();
        net.step_into(&mut out);
    }
    out.clear();
    net.run_until_idle_into(1_000_000, &mut out);
    (net.stats().flit_hops, net.now().raw())
}

/// Drives a quiescence-heavy trickle — one cross-mesh packet per `gap`
/// cycles — through `run_for`, and returns the simulated horizon covered.
fn run_sparse(packets: u64, gap: u64) -> u64 {
    let mut net = Network::new(NetworkConfig::mesh(4, 4)).expect("benchmark mesh is valid");
    let mut out: Vec<Delivery> = Vec::new();
    for i in 0..packets {
        let src = NodeId::new((i % 4) as u16, (i / 4 % 4) as u16);
        let dst = NodeId::new(3 - src.x, 3 - src.y);
        let packet =
            Packet::request(i + 1, src, dst, PAYLOAD_FLITS).expect("benchmark packet is valid");
        net.inject(packet).expect("sparse NI queue never fills");
        net.run_for(gap, &mut out);
    }
    net.run_until_idle_into(1_000_000, &mut out);
    assert_eq!(net.stats().delivered, packets, "trickle fully delivered");
    net.now().raw()
}

fn bench_uniform(c: &mut Criterion) {
    let cases = [
        (
            "4x4_low",
            UniformCase {
                width: 4,
                height: 4,
                rate: 0.02,
                cycles: 2_000,
            },
        ),
        (
            "4x4_high",
            UniformCase {
                width: 4,
                height: 4,
                rate: 0.30,
                cycles: 2_000,
            },
        ),
        (
            "8x8_low",
            UniformCase {
                width: 8,
                height: 8,
                rate: 0.02,
                cycles: 2_000,
            },
        ),
        (
            "8x8_high",
            UniformCase {
                width: 8,
                height: 8,
                rate: 0.30,
                cycles: 2_000,
            },
        ),
    ];
    let mut group = c.benchmark_group("noc/uniform_2000_cycles");
    group.sample_size(10);
    for (label, case) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(label), &case, |b, case| {
            b.iter(|| black_box(run_uniform(case)))
        });
    }
    group.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc/sparse_run_for");
    group.sample_size(10);
    group.bench_function("4x4_64pkts_8192_gap", |b| {
        b.iter(|| black_box(run_sparse(64, 8_192)))
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_uniform(c);
    bench_sparse(c);
}

criterion_group!(noc_throughput, benches);
criterion_main!(noc_throughput);
