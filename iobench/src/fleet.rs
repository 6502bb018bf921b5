//! `fleet_churn`: a `FleetArrivals` churn stream (target 300 residents)
//! applied one event at a time to `Fleet::apply` on 8 shards,
//! `WorstFitBySlack`, one probe thread.
//!
//! A closed loop with one caller: the next event goes in when the previous
//! decision returns. Nearly all time is the Theorem 3 gate and the ledger's
//! probe, admit and evict, plus spillover retries after departures. The
//! stream is replayed on a fresh fleet, with the same seed, until the time
//! is spent.

use std::time::Instant;

use ioguard_fleet::{Decision, Fleet, FleetConfig, FleetStats, PlacementPolicy};
use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::trace::{NoSpans, Spans, Tracer};
use crate::{alloc, median, nanos, peak_rss_mb, percentile, Best, Budget, Chunker, Digest, Report};

/// Events per stream (≈0.4 s of host time per replay).
const EVENTS: usize = 40_000;
const TARGET_RESIDENT: usize = 300;
const SHARDS: usize = 8;

const RUN: usize = 0;
const ARRIVE: usize = 1;
const DEPART: usize = 2;
const CLIENT: usize = 3;
const NAMES: &[&str] = &["bench.run", "fleet.arrive", "fleet.depart", "bench.client"];

fn setup(seed: u64) -> (FleetArrivals, Fleet) {
    let stream = FleetArrivals::generate(&FleetArrivalConfig::new(EVENTS, TARGET_RESIDENT, seed));
    let mut config = FleetConfig::new(SHARDS, PlacementPolicy::WorstFitBySlack, seed);
    config.threads = 1;
    let fleet = Fleet::new(config).expect("canonical fleet shape is valid");
    (stream, fleet)
}

fn decision_digest(d: &mut Digest, decision: &Decision) {
    let (tag, vm, shard) = match *decision {
        Decision::Placed { vm, shard } => (1, vm, shard),
        Decision::LocalReject { vm } => (2, vm, 0),
        Decision::Spilled { vm } => (3, vm, 0),
        Decision::Dropped { vm } => (4, vm, 0),
        Decision::Departed { vm, shard } => (5, vm, shard),
        Decision::SpillCancelled { vm } => (6, vm, 0),
        Decision::SpillPlaced { vm, shard } => (7, vm, shard),
    };
    d.u64(tag);
    d.u64(vm);
    d.u64(shard as u64);
}

/// Decisions per timing chunk (≈10 ms).
const CHUNK: usize = 1_000;

struct Replay {
    arrive_ns: Vec<u64>,
    depart_ns: Vec<u64>,
    allocs: u64,
    digest: Digest,
    stats: FleetStats,
    arrivals: u64,
    fleet: Fleet,
}

fn replay<S: Spans>(
    stream: &FleetArrivals,
    mut fleet: Fleet,
    spans: &mut S,
    chunks: &mut Chunker,
) -> Replay {
    let events = stream.events();
    let mut arrive_ns = Vec::with_capacity(events.len());
    let mut depart_ns = Vec::with_capacity(events.len());
    let mut allocs = 0;
    let mut digest = Digest::default();
    spans.begin(RUN, 0);
    for event in events {
        let (span, vm, arrival) = match event {
            FleetEvent::Arrive { vm, .. } => (ARRIVE, *vm, true),
            FleetEvent::Depart { vm } => (DEPART, *vm, false),
        };
        spans.begin(span, vm);
        let t = Instant::now();
        let a = alloc::local();
        let decisions = fleet.apply(event);
        allocs += alloc::local() - a;
        let ns = nanos(t.elapsed());
        spans.end();
        spans.begin(CLIENT, vm);
        chunks.op(ns);
        if arrival {
            arrive_ns.push(ns);
        } else {
            depart_ns.push(ns);
        }
        for d in &decisions {
            decision_digest(&mut digest, d);
        }
        spans.end();
    }
    spans.end();
    Replay {
        arrivals: arrive_ns.len() as u64,
        arrive_ns,
        depart_ns,
        allocs,
        digest,
        stats: fleet.stats(),
        fleet,
    }
}

struct Phase {
    setup_s: Vec<f64>,
    best: Best,
    arrive_ns: Vec<u64>,
    depart_ns: Vec<u64>,
    events: u64,
    allocs: u64,
    first: Replay,
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
        let (stream, fleet) = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut chunks = best.rep(CHUNK);
        let r = replay(&stream, fleet, spans, &mut chunks);
        chunks.finish();
        match p.as_mut() {
            None => {
                p = Some(Phase {
                    setup_s: Vec::new(),
                    best: Best::default(),
                    arrive_ns: r.arrive_ns.clone(),
                    depart_ns: r.depart_ns.clone(),
                    events: stream.events().len() as u64,
                    allocs: r.allocs,
                    repeats_equal: true,
                    rss_mb: peak_rss_mb(),
                    reps: 1,
                    first: r,
                })
            }
            Some(p) => {
                p.repeats_equal &= r.digest == p.first.digest && r.stats == p.first.stats;
                p.arrive_ns.extend(&r.arrive_ns);
                p.depart_ns.extend(&r.depart_ns);
                p.events += stream.events().len() as u64;
                p.allocs += r.allocs;
                p.reps += 1;
            }
        }
        reps += 1;
    }
    let mut p = p.expect("at least one replay");
    p.setup_s = setup_s;
    p.best = best;
    p.arrive_ns.sort_unstable();
    p.depart_ns.sort_unstable();
    p
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let half = if trace { seconds / 2.0 } else { seconds };
    let u = phase(seed, half, &mut NoSpans);
    let f = &u.first;
    let s = f.stats;
    let events_per_replay = (u.events / u.reps) as f64;
    let rate = events_per_replay / u.best.seconds();
    let samples = u.best.samples();
    report.attempted = u.events;

    if trace {
        let mut tracer = Tracer::new(NAMES, Instant::now());
        let t = phase(seed, half, &mut tracer);
        let base = tracer.stat(RUN).total_ns as f64;
        report.shares(
            &tracer,
            base,
            &[
                (ARRIVE, "fleet.arrive.share"),
                (DEPART, "fleet.depart.share"),
                (CLIENT, "bench.client.share"),
                (RUN, "bench.unattributed.share"),
            ],
        );
        report.layer(
            "fleet.probes_per_decision",
            s.probes as f64 / events_per_replay,
        );
        report.layer(
            "sched.ledger.delta_events_per_decision",
            s.delta_events as f64 / events_per_replay,
        );
        report.layer("fleet.local_rejects", s.local_rejects as f64);
        report.layer("fleet.spilled", s.spilled as f64);
        report.layer("fleet.spill_placed", s.spill_placed as f64);
        report.layer("fleet.dropped", s.dropped as f64);
        report.layer(
            "fleet.allocs_per_decision",
            t.allocs as f64 / t.events as f64,
        );
        report.layer("trace.overhead", t.best.seconds() / u.best.seconds() - 1.0);
        for (label, samples) in [
            ("fleet.arrive_us", &t.arrive_ns),
            ("fleet.depart_us", &t.depart_ns),
        ] {
            report.named(
                &format!("{label}_p50"),
                percentile(samples, 50.0) as f64 / 1e3,
                "us",
            );
            report.named(
                &format!("{label}_p99"),
                percentile(samples, 99.0) as f64 / 1e3,
                "us",
            );
        }
        let unattributed = tracer.stat(RUN).self_ns as f64 / base;
        report.line(format!(
            "books: layer self times cover {:.2}% of traced replay time",
            100.0 * (1.0 - unattributed)
        ));
        report.check("traced books close within 5%", unattributed <= 0.05);
        report.check(
            "traced replays match the untraced replay",
            t.first.digest == f.digest && t.first.stats == s,
        );
        report.keep_tracer(tracer);
    } else {
        report.e2e("setup_s", median(&u.setup_s));
        report.e2e("ops_per_s", rate);
        report.e2e("step_us_p50", percentile(&samples, 50.0) as f64 / 1e3);
        report.e2e("allocs_per_op", u.allocs as f64 / u.events as f64);
        report.e2e("peak_rss_mb", u.rss_mb);
    }

    report.named("setup_s", median(&u.setup_s), "s");
    report.named("peak_rss_mb", u.rss_mb, "MB");
    report.named("allocs_per_op", u.allocs as f64 / u.events as f64, "count");
    report.named("fail_ratio", s.dropped as f64 / f.arrivals as f64, "ratio");
    report.named("decisions_per_s", rate, "1/s");
    report.named(
        "decision_us_p50",
        percentile(&samples, 50.0) as f64 / 1e3,
        "us",
    );
    report.named(
        "decision_us_p99",
        percentile(&samples, 99.0) as f64 / 1e3,
        "us",
    );
    report.named(
        "admit_ratio",
        (s.placed + s.spill_placed) as f64 / (f.arrivals - s.local_rejects) as f64,
        "ratio",
    );
    report.line(format!(
        "samples: {} replays, {} decisions timed ({} arrivals, {} departures), \
         {} kept from the fastest repetition of each {CHUNK}-decision chunk",
        u.reps,
        u.events,
        u.arrive_ns.len(),
        u.depart_ns.len(),
        samples.len()
    ));
    report.line(format!(
        "digest fleet decisions {:#018x} (placed {} local_rejects {} spilled {} dropped {} \
         departed {} spill_placed {} residents {})",
        f.digest.0,
        s.placed,
        s.local_rejects,
        s.spilled,
        s.dropped,
        s.departed,
        s.spill_placed,
        f.fleet.resident_count()
    ));

    report.check(
        "every repeated replay gives the same decisions",
        u.repeats_equal,
    );
    let balanced = f.arrivals == s.placed + s.local_rejects + s.spilled + s.dropped;
    report.check(
        "arrivals = placed + local_rejects + spilled + dropped",
        balanced,
    );
    report.check(
        "every shard's resident set passes the full theorem1_frame sweep",
        f.fleet
            .shards()
            .iter()
            .all(|shard| shard.verify_full().is_schedulable()),
    );
    if !balanced {
        report.failed = f
            .arrivals
            .abs_diff(s.placed + s.local_rejects + s.spilled + s.dropped);
    }
}
