//! `noc_bursty`: an 8×8 `Network` mesh fed by seeded uniform-random
//! traffic. Saturated bursts (each node offers a packet with probability
//! 0.3 every cycle, through `inject` and `step_into`) alternate with idle
//! gaps crossed by `run_for`, then a final drain.
//!
//! An open loop in simulated cycles: packets are offered on schedule and a
//! full injection queue refuses them, which is counted. Bursts load the
//! dense stepper and gaps the idle jump, so a change that trades one for
//! the other moves flit-hops per second and cycles per second in opposite
//! directions. One episode (a fresh network and a fresh stimulus) is
//! repeated with the same seed until the time is spent.

use std::time::Instant;

use ioguard_noc::network::Delivery;
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::{Network, NetworkConfig, NocError, NocFabric, NodeId, Packet, PacketKind};
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};

use crate::trace::{NoSpans, Spans, Tracer};
use crate::{alloc, median, nanos, peak_rss_mb, percentile, Best, Budget, Chunker, Digest, Report};

const SIDE: u16 = 8;
const BURSTS: usize = 8;
const BURST_CYCLES: usize = 400;
const GAP_CYCLES: u64 = 200_000;
const INJECT_P: f64 = 0.3;
const MAX_PAYLOAD_FLITS: u64 = 4;
/// Burst cycles per timing chunk (≈1 ms; a gap falls in the chunk it
/// follows).
const CHUNK: usize = 50;
/// Cycle cap of the final drain (far above what a drained mesh needs).
const DRAIN_CAP: u64 = 1 << 20;

const RUN: usize = 0;
const INJECT: usize = 1;
const BURST: usize = 2;
const GAP: usize = 3;
const DRAIN: usize = 4;
const NAMES: &[&str] = &[
    "bench.run",
    "noc.inject",
    "noc.burst",
    "noc.gap",
    "noc.drain",
];

/// One offered packet: (source index, destination index, payload flits).
type Offer = (u16, u16, u32);

/// Offers per burst cycle, bursts back to back.
struct Stimulus {
    cycles: Vec<Vec<Offer>>,
}

fn stimulus(seed: u64, bursts: usize, burst_cycles: usize) -> Stimulus {
    let nodes = u64::from(SIDE) * u64::from(SIDE);
    let mut rng = Xoshiro256StarStar::new(SplitMix64::new(seed).derive(0x0B5E));
    let cycles = (0..bursts * burst_cycles)
        .map(|_| {
            (0..nodes)
                .filter_map(|src| {
                    if !rng.chance(INJECT_P) {
                        return None;
                    }
                    // Uniform over the other nodes.
                    let mut dst = rng.range_u64(0, nodes - 1);
                    if dst >= src {
                        dst += 1;
                    }
                    let flits = rng.range_u64(1, MAX_PAYLOAD_FLITS + 1) as u32;
                    Some((src as u16, dst as u16, flits))
                })
                .collect()
        })
        .collect();
    Stimulus { cycles }
}

fn node(idx: u16) -> NodeId {
    NodeId::new(idx % SIDE, idx / SIDE)
}

#[derive(Default, PartialEq)]
struct Episode {
    offered: u64,
    accepted: u64,
    refused: u64,
    errors: u64,
    cycles: u64,
    flit_hops: u64,
    delivered: u64,
    undelivered: u64,
    latencies: Vec<u64>,
    digest: u64,
}

/// Runs `stim` on `net`: each burst cycle offers its packets then steps;
/// each burst is followed by a `gap`-cycle `run_for`; then a drain.
/// Returns the episode, the allocations the fabric made, and the
/// deliveries.
fn episode<F: NocFabric, S: Spans>(
    net: &mut F,
    stim: &Stimulus,
    burst_cycles: usize,
    gap: u64,
    spans: &mut S,
    chunks: &mut Chunker,
) -> (Episode, u64, Vec<Delivery>) {
    let mut e = Episode::default();
    let mut allocs = 0;
    let mut out: Vec<Delivery> = Vec::new();
    let mut next_id = 1u64;
    spans.begin(RUN, 0);
    for (i, offers) in stim.cycles.iter().enumerate() {
        let t = Instant::now();
        spans.begin(INJECT, i as u64);
        for &(src, dst, flits) in offers {
            e.offered += 1;
            let packet = Packet::new(
                next_id,
                PacketKind::IoRequest,
                node(src),
                node(dst),
                flits,
                0,
            )
            .expect("payload flits ≥ 1 by construction");
            next_id += 1;
            let (verdict, a) = alloc::counted(|| net.inject(packet));
            allocs += a;
            match verdict {
                Ok(()) => e.accepted += 1,
                Err(NocError::InjectionQueueFull { .. }) => e.refused += 1,
                Err(_) => e.errors += 1,
            }
        }
        spans.end();
        spans.begin(BURST, i as u64);
        allocs += alloc::counted(|| net.step_into(&mut out)).1;
        spans.end();
        let cycle_ns = nanos(t.elapsed());
        if (i + 1) % burst_cycles == 0 {
            spans.begin(GAP, i as u64);
            allocs += alloc::counted(|| net.run_for(gap, &mut out)).1;
            spans.end();
        }
        chunks.op(cycle_ns);
    }
    spans.begin(DRAIN, 0);
    allocs += alloc::counted(|| net.run_until_idle_into(DRAIN_CAP, &mut out)).1;
    spans.end();
    spans.end();
    e.cycles = net.now().raw();
    e.flit_hops = net.stats().flit_hops;
    e.delivered = out.len() as u64;
    e.undelivered = e.accepted.saturating_sub(e.delivered);
    let mut d = Digest::default();
    for del in &out {
        d.u64(del.packet.id());
        d.u64(del.injected_at.raw());
        d.u64(del.delivered_at.raw());
        d.u64(u64::from(del.corrupted));
    }
    e.digest = d.0;
    e.latencies = out.iter().map(|del| del.latency().raw()).collect();
    e.latencies.sort_unstable();
    (e, allocs, out)
}

fn config() -> NetworkConfig {
    NetworkConfig::mesh(SIDE, SIDE)
}

struct Phase {
    setup_s: Vec<f64>,
    best: Best,
    flit_hops: u64,
    cycles: u64,
    accepted: u64,
    offered: u64,
    allocs: u64,
    first: Episode,
    repeats_equal: bool,
    rss_mb: f64,
    reps: u64,
}

fn phase<S: Spans>(seed: u64, seconds: f64, spans: &mut S) -> Phase {
    let budget = Budget::new(seconds);
    let mut setup_s = Vec::new();
    let mut best = Best::default();
    let mut p: Option<Phase> = None;
    let mut reps = 0;
    while budget.more(reps, 2) {
        let t = Instant::now();
        let stim = stimulus(seed, BURSTS, BURST_CYCLES);
        let mut net = Network::new(config()).expect("8x8 mesh is valid");
        setup_s.push(t.elapsed().as_secs_f64());
        let mut chunks = best.rep(CHUNK);
        let (e, allocs, _) = episode(
            &mut net,
            &stim,
            BURST_CYCLES,
            GAP_CYCLES,
            spans,
            &mut chunks,
        );
        chunks.finish();
        match p.as_mut() {
            None => {
                p = Some(Phase {
                    setup_s: Vec::new(),
                    best: Best::default(),
                    flit_hops: e.flit_hops,
                    cycles: e.cycles,
                    accepted: e.accepted,
                    offered: e.offered,
                    allocs,
                    first: e,
                    repeats_equal: true,
                    rss_mb: peak_rss_mb(),
                    reps: 1,
                })
            }
            Some(p) => {
                p.repeats_equal &= e == p.first;
                p.accepted += e.accepted;
                p.offered += e.offered;
                p.allocs += allocs;
                p.reps += 1;
            }
        }
        reps += 1;
    }
    let mut p = p.expect("at least one episode");
    p.setup_s = setup_s;
    p.best = best;
    p
}

/// `Network` and `ReferenceNetwork` give the same deliveries and
/// statistics on a shortened copy of the stimulus.
fn matches_reference(seed: u64) -> bool {
    let (bursts, cycles, gap) = (2, 40, 500);
    let stim = stimulus(seed, bursts, cycles);
    let mut fast = Network::new(config()).expect("8x8 mesh is valid");
    let mut spec = ReferenceNetwork::new(config()).expect("8x8 mesh is valid");
    let mut scratch = Best::default();
    let (a, _, da) = episode(
        &mut fast,
        &stim,
        cycles,
        gap,
        &mut NoSpans,
        &mut scratch.rep(CHUNK),
    );
    let (b, _, db) = episode(
        &mut spec,
        &stim,
        cycles,
        gap,
        &mut NoSpans,
        &mut scratch.rep(CHUNK),
    );
    a == b && da == db && fast.stats() == spec.stats() && a.delivered > 0
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let half = if trace { seconds / 2.0 } else { seconds };
    let u = phase(seed, half, &mut NoSpans);
    let e = &u.first;
    let best_s = u.best.seconds();
    let samples = u.best.samples();
    report.attempted = u.offered;

    if trace {
        let mut tracer = Tracer::new(NAMES, Instant::now());
        let t = phase(seed, half, &mut tracer);
        let base = tracer.stat(RUN).total_ns as f64;
        report.shares(
            &tracer,
            base,
            &[
                (INJECT, "noc.inject.share"),
                (BURST, "noc.burst.share"),
                (GAP, "noc.gap.share"),
                (DRAIN, "noc.drain.share"),
                (RUN, "bench.unattributed.share"),
            ],
        );
        report.layer(
            "noc.inject_refused_ratio",
            e.refused as f64 / e.offered as f64,
        );
        report.layer(
            "noc.packet_latency_cycles_p50",
            percentile(&e.latencies, 50.0) as f64,
        );
        report.layer(
            "noc.packet_latency_cycles_p99",
            percentile(&e.latencies, 99.0) as f64,
        );
        report.layer("noc.allocs_per_packet", t.allocs as f64 / t.accepted as f64);
        report.layer("trace.overhead", t.best.seconds() / best_s - 1.0);
        let st = |s: usize| tracer.stat(s);
        report.named(
            "noc.inject_ns",
            st(INJECT).total_ns as f64 / t.offered as f64,
            "ns",
        );
        report.named(
            "noc.burst_ns_per_cycle",
            st(BURST).total_ns as f64 / st(BURST).calls as f64,
            "ns",
        );
        let gap_cycles = st(GAP).calls as f64 * GAP_CYCLES as f64;
        report.named(
            "noc.gap_ns_per_cycle",
            st(GAP).total_ns as f64 / gap_cycles,
            "ns",
        );
        let unattributed = st(RUN).self_ns as f64 / base;
        report.line(format!(
            "books: layer self times cover {:.2}% of traced episode time",
            100.0 * (1.0 - unattributed)
        ));
        report.check("traced books close within 5%", unattributed <= 0.05);
        report.check(
            "traced episodes match the untraced episode",
            t.first == u.first,
        );
        report.keep_tracer(tracer);
    } else {
        report.e2e("setup_s", median(&u.setup_s));
        report.e2e("ops_per_s", u.flit_hops as f64 / best_s);
        report.e2e("step_us_p50", percentile(&samples, 50.0) as f64 / 1e3);
        report.e2e("allocs_per_op", u.allocs as f64 / u.accepted as f64);
        report.e2e("peak_rss_mb", u.rss_mb);
    }

    report.named("setup_s", median(&u.setup_s), "s");
    report.named("peak_rss_mb", u.rss_mb, "MB");
    report.named(
        "allocs_per_op",
        u.allocs as f64 / u.accepted as f64,
        "count",
    );
    report.named(
        "fail_ratio",
        e.undelivered as f64 / e.accepted as f64,
        "ratio",
    );
    report.named("flit_hops_per_s", u.flit_hops as f64 / best_s, "1/s");
    report.named("cycles_per_s", u.cycles as f64 / best_s, "1/s");
    report.named(
        "burst_cycle_us_p50",
        percentile(&samples, 50.0) as f64 / 1e3,
        "us",
    );
    report.named(
        "burst_cycle_us_p99",
        percentile(&samples, 99.0) as f64 / 1e3,
        "us",
    );
    report.line(format!(
        "samples: {} episodes, {} burst cycles timed, one per cycle kept from the fastest \
         repetition of each {CHUNK}-cycle chunk; per episode {} offered, {} accepted, {} refused, \
         {} cycles, {} flit-hops",
        u.reps,
        u.reps as usize * BURSTS * BURST_CYCLES,
        e.offered,
        e.accepted,
        e.refused,
        e.cycles,
        e.flit_hops
    ));
    report.line(format!(
        "digest noc deliveries {:#018x} ({} packets)",
        e.digest, e.delivered
    ));

    report.check(
        "every repeated episode gives the same deliveries",
        u.repeats_equal,
    );
    report.check(
        "every accepted packet is delivered",
        e.undelivered == 0 && e.errors == 0,
    );
    report.check(
        "Network equals ReferenceNetwork on a shortened stimulus",
        matches_reference(seed),
    );
    report.failed = e.undelivered + e.errors;
}
