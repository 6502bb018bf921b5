//! `serve_replay`: the default `serve-replay` client population
//! (`ReplayConfig::new`: 600 lifecycle events, ~96 residents, 4 shards,
//! frame 512, one decode worker), driven by the benchmark itself through
//! `ServeCluster::{connect, disconnect, ingest, step}` with requests encoded
//! by `wire::encode_request`.
//!
//! An open loop in virtual time: every resident client's tasks release on
//! their period whatever the backlog. In host time it is a batch of
//! [`REQUESTS`] requests, repeated with the same seed until the time is
//! spent. The loop mirrors `ReplayDriver::run` step for step, which a check
//! confirms by comparing response digests.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy};
use ioguard_serve::replay::ResponseFold;
use ioguard_serve::wire;
use ioguard_serve::{ReplayConfig, ReplayDriver, Request, Response, ServeCluster, ServeConfig};
use ioguard_sim::rng::SplitMix64;
use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::trace::{NoSpans, Spans, Tracer};
use crate::{alloc, median, nanos, peak_rss_mb, percentile, Best, Budget, Chunker, Report};

/// Client populations per repetition, each from its own seed derived from
/// `--seed`: one population of ~96 residents varies a lot from seed to
/// seed, eight average it out.
const POPULATIONS: u64 = 8;
/// Requests per population replay (≈0.1 s of host time).
const REQUESTS: u64 = 12_500;
/// Serve slots per timing chunk (≈5 ms).
const CHUNK: usize = 2_000;
/// Request count of the replay compared against `ReplayDriver::run`.
const CHECK_REQUESTS: u64 = 20_000;

const RUN: usize = 0;
const GENERATOR: usize = 1;
const CONNECT: usize = 2;
const DISCONNECT: usize = 3;
const ENCODE: usize = 4;
const INGEST: usize = 5;
const STEP: usize = 6;
const CLIENT: usize = 7;
const NAMES: &[&str] = &[
    "bench.run",
    "bench.generator",
    "serve.connect",
    "serve.disconnect",
    "wire.encode",
    "serve.ingest",
    "serve.step",
    "bench.client",
];

/// `ReplayDriver`'s cluster shape for `cfg` (mirrors its private
/// `ReplayConfig::serve_config`).
fn serve_config(cfg: &ReplayConfig) -> ServeConfig {
    let per_shard = (cfg.target_resident / cfg.shards.max(1))
        .max(4)
        .saturating_mul(2);
    let mut config = ServeConfig::new(cfg.shards.max(1), per_shard);
    config.frame = cfg.frame;
    config.guard = AdmissionGuard {
        window: 64,
        max_submissions: 16,
        throttle_slots: 128,
    };
    config.degradation = DegradationPolicy {
        healthy_slots_to_recover: 64,
    };
    config.backlog_capacity = 32;
    config.max_clients = u32::try_from(cfg.events).unwrap_or(u32::MAX).max(1);
    config.seed = cfg.seed;
    config
}

/// The replay of population `k` of `seed`.
fn replay_config(seed: u64, k: u64, requests: u64) -> ReplayConfig {
    let mut cfg = ReplayConfig::new(requests);
    cfg.seed = SplitMix64::new(seed).derive(k + 1);
    cfg
}

#[derive(Clone, Copy)]
struct ReleaseKey {
    client: u32,
    period: u64,
    wcet: u64,
    deadline_rel: u64,
    critical: bool,
}

/// What the benchmark knows about one sent request.
#[derive(Clone, Copy, Default)]
struct Book {
    sent: u64,
    accepted: Option<u64>,
    critical: bool,
    terminals: u8,
}

/// Virtual-time results of one replay (identical for every repetition).
#[derive(Default, PartialEq)]
struct Virtual {
    fold_digest: u64,
    fold_counts: Vec<u64>,
    sent: u64,
    slots: u64,
    critical_e2e: Vec<u64>,
    best_effort_e2e: Vec<u64>,
    backlog_wait: Vec<u64>,
    pool_service: Vec<u64>,
    critical_missed: u64,
    unbalanced: u64,
    bad_terminals: u64,
    stray: u64,
    connects: u64,
    connected: u64,
}

impl Virtual {
    /// Folds the next population's results in.
    fn absorb(&mut self, o: Virtual) {
        let mut d = crate::Digest(self.fold_digest);
        d.u64(o.fold_digest);
        self.fold_digest = d.0;
        self.fold_counts.resize(o.fold_counts.len(), 0);
        for (a, b) in self.fold_counts.iter_mut().zip(&o.fold_counts) {
            *a += b;
        }
        self.sent += o.sent;
        self.slots += o.slots;
        self.critical_e2e.extend(o.critical_e2e);
        self.best_effort_e2e.extend(o.best_effort_e2e);
        self.backlog_wait.extend(o.backlog_wait);
        self.pool_service.extend(o.pool_service);
        self.critical_missed += o.critical_missed;
        self.unbalanced += o.unbalanced;
        self.bad_terminals += o.bad_terminals;
        self.stray += o.stray;
        self.connects += o.connects;
        self.connected += o.connected;
    }
}

/// Host-time results of one replay.
#[derive(Default)]
struct Host {
    connect_ns: Vec<u64>,
    allocs: u64,
    ingest_allocs: u64,
    step_allocs: u64,
}

impl Host {
    fn absorb(&mut self, o: Host) {
        self.connect_ns.extend(o.connect_ns);
        self.allocs += o.allocs;
        self.ingest_allocs += o.ingest_allocs;
        self.step_allocs += o.step_allocs;
    }
}

/// Everything one replay needs before its first timed slot.
struct Setup {
    cfg: ReplayConfig,
    cluster: ServeCluster,
    lifecycle: VecDeque<FleetEvent>,
    books: Vec<Book>,
}

fn setup(cfg: ReplayConfig) -> Setup {
    let stream = FleetArrivals::generate(&FleetArrivalConfig {
        events: cfg.events,
        target_resident: cfg.target_resident,
        frame: cfg.frame,
        seed: cfg.seed,
    });
    Setup {
        cluster: ServeCluster::new(serve_config(&cfg)).expect("replay cluster config is valid"),
        lifecycle: stream.events().iter().cloned().collect(),
        books: Vec::with_capacity(cfg.requests as usize + 1),
        cfg,
    }
}

/// Folds responses observed at serve slot `slot` into the client's books.
fn account(
    responses: &[Response],
    slot: u64,
    books: &mut [Book],
    fold: &mut ResponseFold,
    v: &mut Virtual,
) {
    let n = books.len();
    let book = |id: u64| -> Option<usize> { (id > 0 && (id as usize) < n).then_some(id as usize) };
    for resp in responses {
        fold.push(resp);
        match *resp {
            Response::Accepted { task_id, .. } => match book(task_id) {
                Some(i) => books[i].accepted = Some(slot),
                None => v.stray += 1,
            },
            Response::Completed {
                task_id, latency, ..
            } => match book(task_id) {
                Some(i) => {
                    let b = &mut books[i];
                    b.terminals += 1;
                    // The response is observed when the step's slot ends.
                    let e2e = slot + 1 - b.sent;
                    let wait = b.accepted.map_or(u64::MAX, |a| a - b.sent);
                    if wait.checked_add(latency) != Some(e2e) {
                        v.unbalanced += 1;
                    }
                    v.backlog_wait.push(wait);
                    v.pool_service.push(latency);
                    if b.critical {
                        v.critical_e2e.push(e2e);
                    } else {
                        v.best_effort_e2e.push(e2e);
                    }
                }
                None => v.stray += 1,
            },
            Response::Missed {
                task_id, critical, ..
            } => {
                v.critical_missed += u64::from(critical);
                refuse(task_id, books, v);
            }
            Response::Rejected { task_id, .. }
            | Response::Throttled { task_id, .. }
            | Response::Shed { task_id, .. } => refuse(task_id, books, v),
            Response::Connected { .. } => {
                v.connects += 1;
                v.connected += 1;
            }
            Response::ConnectRejected { .. } => v.connects += 1,
            _ => {}
        }
    }
}

/// A terminal response other than `Completed`: the request counts as
/// beyond its deadline. Task id 0 addresses no request (a disconnect of a
/// client whose connect was refused).
fn refuse(task_id: u64, books: &mut [Book], v: &mut Virtual) {
    match usize::try_from(task_id).ok().filter(|&i| i < books.len()) {
        Some(0) => {}
        Some(i) => {
            books[i].terminals += 1;
            if books[i].critical {
                v.critical_e2e.push(u64::MAX);
            } else {
                v.best_effort_e2e.push(u64::MAX);
            }
        }
        None => v.stray += 1,
    }
}

/// Runs one server call, adds its host time to the slot's running total
/// and returns its result with the allocations it made.
#[inline]
fn timed<R>(slot_ns: &mut u64, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let a = alloc::local();
    let r = f();
    let allocs = alloc::local() - a;
    *slot_ns += nanos(t.elapsed());
    (r, allocs)
}

/// One replay, mirroring `ReplayDriver::run`: per slot, lifecycle events,
/// then releases (one coalesced frame per client), then `ingest`, then
/// `step`; after the last request, `drain_slots` more slots.
fn replay<S: Spans>(s: Setup, spans: &mut S, chunks: &mut Chunker) -> (Virtual, Host) {
    let Setup {
        cfg,
        mut cluster,
        mut lifecycle,
        mut books,
    } = s;
    books.push(Book::default());
    let mut v = Virtual::default();
    let mut h = Host::default();
    let mut fold = ResponseFold::new();
    let mut releases: BTreeMap<u64, Vec<ReleaseKey>> = BTreeMap::new();
    let mix = SplitMix64::new(cfg.seed ^ 0x5EED_CAFE);
    let mut next_event_slot = 1u64;
    let mut task_seq = 0u64;
    let mut sent = 0u64;
    let mut end_slot: Option<u64> = None;
    let mut frames: Vec<(u32, Bytes)> = Vec::new();
    spans.begin(RUN, 0);
    let mut slot = 0u64;
    loop {
        let mut slot_ns = 0u64;
        if end_slot.is_none() {
            spans.begin(GENERATOR, slot);
            while next_event_slot <= slot {
                let Some(event) = lifecycle.pop_front() else {
                    break;
                };
                let resp = match event {
                    FleetEvent::Arrive { vm, server, tasks } => {
                        let client = u32::try_from(vm).unwrap_or(u32::MAX);
                        spans.begin(CONNECT, vm);
                        let before = slot_ns;
                        let (resp, allocs) =
                            timed(&mut slot_ns, || cluster.connect(client, server, &tasks));
                        spans.end();
                        h.connect_ns.push(slot_ns - before);
                        h.allocs += allocs;
                        if matches!(resp, Response::Connected { .. }) {
                            for (idx, task) in tasks.iter().enumerate() {
                                let tag = (vm << 8) | (idx as u64);
                                let critical = mix.derive(tag ^ 0xC417) % 10 < 3;
                                let offset = mix.derive(tag ^ 0x0FF5) % task.period();
                                let first = slot.saturating_add(1).saturating_add(offset);
                                releases.entry(first).or_default().push(ReleaseKey {
                                    client,
                                    period: task.period(),
                                    wcet: task.wcet(),
                                    deadline_rel: task.deadline(),
                                    critical,
                                });
                            }
                        }
                        resp
                    }
                    FleetEvent::Depart { vm } => {
                        let client = u32::try_from(vm).unwrap_or(u32::MAX);
                        spans.begin(DISCONNECT, vm);
                        let (resp, allocs) = timed(&mut slot_ns, || cluster.disconnect(client));
                        spans.end();
                        h.allocs += allocs;
                        resp
                    }
                };
                account(&[resp], slot, &mut books, &mut fold, &mut v);
                next_event_slot = next_event_slot.saturating_add(cfg.event_spacing);
            }
            let mut per_client: BTreeMap<u32, BytesMut> = BTreeMap::new();
            while let Some(entry) = releases.first_entry() {
                if *entry.key() > slot {
                    break;
                }
                for key in entry.remove() {
                    if !cluster.connected(key.client) || sent >= cfg.requests {
                        continue;
                    }
                    task_seq += 1;
                    let request = Request {
                        client: key.client,
                        task_id: task_seq,
                        wcet: key.wcet,
                        deadline_rel: key.deadline_rel,
                        critical: key.critical,
                        payload: Bytes::copy_from_slice(&task_seq.to_le_bytes()),
                    };
                    let buffer = per_client.entry(key.client).or_default();
                    spans.begin(ENCODE, task_seq);
                    let (encoded, allocs) =
                        alloc::counted(|| wire::encode_request(&request, buffer));
                    spans.end();
                    h.allocs += allocs;
                    if encoded.is_ok() {
                        sent += 1;
                        books.push(Book {
                            sent: slot,
                            accepted: None,
                            critical: key.critical,
                            terminals: 0,
                        });
                    } else {
                        books.push(Book::default());
                    }
                    releases
                        .entry(slot.saturating_add(key.period))
                        .or_default()
                        .push(key);
                }
            }
            frames.clear();
            frames.extend(
                per_client
                    .into_iter()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(c, b)| (c, b.freeze())),
            );
            spans.end();
        } else {
            frames.clear();
        }

        spans.begin(INGEST, slot);
        let (ingested, ingest_allocs) =
            timed(&mut slot_ns, || cluster.ingest(&frames, cfg.workers));
        spans.end();
        spans.begin(STEP, slot);
        let (stepped, step_allocs) = timed(&mut slot_ns, || cluster.step());
        spans.end();
        spans.begin(CLIENT, slot);
        account(&ingested, slot, &mut books, &mut fold, &mut v);
        account(&stepped, slot, &mut books, &mut fold, &mut v);
        h.ingest_allocs += ingest_allocs;
        h.step_allocs += step_allocs;
        chunks.op(slot_ns);
        spans.end();

        match end_slot {
            Some(end) if slot >= end => break,
            Some(_) => {}
            None => {
                if sent >= cfg.requests || (releases.is_empty() && lifecycle.is_empty()) {
                    end_slot = Some(slot.saturating_add(cfg.drain_slots));
                }
            }
        }
        slot += 1;
    }
    spans.end();
    h.allocs += h.ingest_allocs + h.step_allocs;
    v.sent = sent;
    v.slots = cluster.now();
    v.fold_digest = fold.digest();
    v.fold_counts = fold.counts().to_vec();
    v.bad_terminals = books[1..].iter().filter(|b| b.terminals != 1).count() as u64;

    (v, h)
}

struct Phase {
    setup_s: Vec<f64>,
    best: Best,
    connect_ns: Vec<u64>,
    requests: u64,
    slots: u64,
    allocs: u64,
    ingest_allocs: u64,
    step_allocs: u64,
    first: Virtual,
    repeats_equal: bool,
    rss_mb: f64,
    reps: u64,
}

fn phase<S: Spans>(seed: u64, seconds: f64, spans: &mut S) -> Phase {
    let budget = Budget::new(seconds);
    let mut best = Best::default();
    let mut p: Option<Phase> = None;
    let mut setup_s = Vec::new();
    let mut reps = 0;
    // Peak memory of one population replay, before the benchmark's own
    // sample buffers grow with the repetition count.
    let mut rss_mb = 0.0;
    while budget.more(reps, 2) {
        let mut v = Virtual::default();
        let mut h = Host::default();
        let mut setup_ns = 0;
        let mut chunks = best.rep(CHUNK);
        for k in 0..POPULATIONS {
            let t = Instant::now();
            let s = setup(replay_config(seed, k, REQUESTS));
            setup_ns += nanos(t.elapsed());
            chunks.resume();
            let (pv, ph) = replay(s, spans, &mut chunks);
            chunks.cut();
            if reps == 0 && k == 0 {
                rss_mb = peak_rss_mb();
            }
            v.absorb(pv);
            h.absorb(ph);
        }
        setup_s.push(setup_ns as f64 * 1e-9);
        match p.as_mut() {
            None => {
                p = Some(Phase {
                    setup_s: Vec::new(),
                    best: Best::default(),
                    connect_ns: h.connect_ns,
                    requests: v.sent,
                    slots: v.slots,
                    allocs: h.allocs,
                    ingest_allocs: h.ingest_allocs,
                    step_allocs: h.step_allocs,
                    first: v,
                    repeats_equal: true,
                    rss_mb,
                    reps: 1,
                });
            }
            Some(p) => {
                p.repeats_equal &= v == p.first;
                p.connect_ns.extend(h.connect_ns);
                p.requests += v.sent;
                p.slots += v.slots;
                p.allocs += h.allocs;
                p.ingest_allocs += h.ingest_allocs;
                p.step_allocs += h.step_allocs;
                p.reps += 1;
            }
        }
        reps += 1;
    }
    let mut p = p.expect("at least one replay");
    p.setup_s = setup_s;
    p.best = best;
    p
}

fn p(sorted: &[u64], q: f64) -> f64 {
    match percentile(sorted, q) {
        u64::MAX => f64::INFINITY,
        v => v as f64,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let half = if trace { seconds / 2.0 } else { seconds };
    let u = phase(seed, half, &mut NoSpans);
    let rate = u.first.sent as f64 / u.best.seconds();
    let samples = u.best.samples();
    let v = &u.first;
    report.attempted = u.requests;

    if trace {
        let mut tracer = Tracer::new(NAMES, Instant::now());
        let mut t = phase(seed, half, &mut tracer);
        let base = tracer.stat(RUN).total_ns as f64;
        report.shares(
            &tracer,
            base,
            &[
                (GENERATOR, "bench.generator.share"),
                (CONNECT, "serve.connect.share"),
                (DISCONNECT, "serve.disconnect.share"),
                (ENCODE, "wire.encode.share"),
                (INGEST, "serve.ingest.share"),
                (STEP, "serve.step.share"),
                (CLIENT, "bench.client.share"),
                (RUN, "bench.unattributed.share"),
            ],
        );
        let slots = t.slots as f64;
        report.layer(
            "serve.connect_accept_ratio",
            v.connected as f64 / v.connects as f64,
        );
        report.layer("serve.allocs.ingest", t.ingest_allocs as f64 / slots);
        report.layer("serve.allocs.step", t.step_allocs as f64 / slots);
        let mut wait = v.backlog_wait.clone();
        wait.sort_unstable();
        let mut service = v.pool_service.clone();
        service.sort_unstable();
        report.layer("serve.backlog_wait_slots_p50", p(&wait, 50.0));
        report.layer("serve.backlog_wait_slots_p99", p(&wait, 99.0));
        report.layer("serve.pool_service_slots_p50", p(&service, 50.0));
        report.layer("serve.pool_service_slots_p99", p(&service, 99.0));
        for (kind, name) in [
            (4u8, "serve.responses.accepted"),
            (5, "serve.responses.completed"),
            (6, "serve.responses.missed"),
            (9, "serve.responses.shed"),
            (8, "serve.responses.throttled"),
            (7, "serve.responses.rejected"),
        ] {
            report.layer(name, v.fold_counts[usize::from(kind) - 1] as f64);
        }
        report.layer("trace.overhead", t.best.seconds() / u.best.seconds() - 1.0);

        let per_slot = |span: usize| tracer.stat(span).total_ns as f64 / slots / 1e3;
        report.named("serve.ingest_us", per_slot(INGEST), "us");
        report.named("serve.step_us", per_slot(STEP), "us");
        report.named("bench.generator_us", per_slot(GENERATOR), "us");
        let enc = tracer.stat(ENCODE);
        report.named(
            "wire.encode_ns",
            enc.total_ns as f64 / enc.calls as f64,
            "ns",
        );
        t.connect_ns.sort_unstable();
        report.named(
            "serve.connect_us_p50",
            percentile(&t.connect_ns, 50.0) as f64 / 1e3,
            "us",
        );
        report.named(
            "serve.connect_us_max",
            percentile(&t.connect_ns, 100.0) as f64 / 1e3,
            "us",
        );
        let dis = tracer.stat(DISCONNECT);
        report.named(
            "serve.disconnect_us",
            dis.total_ns as f64 / dis.calls.max(1) as f64 / 1e3,
            "us",
        );
        let unattributed = tracer.stat(RUN).self_ns as f64 / base;
        report.line(format!(
            "books: layer self times cover {:.2}% of traced replay time",
            100.0 * (1.0 - unattributed)
        ));
        report.check("traced books close within 5%", unattributed <= 0.05);
        report.check(
            "traced replays match the untraced replay",
            t.first == u.first,
        );
        report.keep_tracer(tracer);
    } else {
        report.e2e("setup_s", median(&u.setup_s));
        report.e2e("ops_per_s", rate);
        report.e2e("step_us_p50", percentile(&samples, 50.0) as f64 / 1e3);
        report.e2e("allocs_per_op", u.allocs as f64 / u.requests as f64);
        report.e2e("peak_rss_mb", u.rss_mb);
    }

    let completed = v.fold_counts[4];
    let mut crit = v.critical_e2e.clone();
    crit.sort_unstable();
    let mut be = v.best_effort_e2e.clone();
    be.sort_unstable();
    report.named("setup_s", median(&u.setup_s), "s");
    report.named("peak_rss_mb", u.rss_mb, "MB");
    report.named(
        "allocs_per_op",
        u.allocs as f64 / u.requests as f64,
        "count",
    );
    report.named(
        "fail_ratio",
        (v.sent - completed) as f64 / v.sent as f64,
        "ratio",
    );
    report.named("requests_per_s", rate, "1/s");
    report.named("slot_us_p50", percentile(&samples, 50.0) as f64 / 1e3, "us");
    report.named("slot_us_p99", percentile(&samples, 99.0) as f64 / 1e3, "us");
    report.named("critical_p99_slots", p(&crit, 99.0), "slots");
    report.named("best_effort_p99_slots", p(&be, 99.0), "slots");
    report.line(format!(
        "samples: {} repetitions of {POPULATIONS} populations, {} slots timed, {} kept from the \
         fastest repetition of each {CHUNK}-slot chunk; {} critical and {} best-effort requests \
         per repetition",
        u.reps,
        u.slots,
        samples.len(),
        crit.len(),
        be.len()
    ));
    report.line(format!(
        "digest serve responses {:#018x} ({} requests, {} virtual slots)",
        v.fold_digest, v.sent, v.slots
    ));

    report.check(
        "every repeated replay gives the same responses",
        u.repeats_equal,
    );
    report.check(
        "every sent request gets exactly one terminal response",
        v.bad_terminals == 0 && v.stray == 0,
    );
    report.check(
        "no connected client gets a critical Missed",
        v.critical_missed == 0,
    );
    report.check(
        "backlog wait + pool service = e2e latency, per request",
        v.unbalanced == 0,
    );
    let cfg = replay_config(seed, 0, CHECK_REQUESTS);
    let mut scratch = Best::default();
    let (mine, _) = replay(setup(cfg), &mut NoSpans, &mut scratch.rep(CHUNK));
    let reference = ReplayDriver::new(cfg).run().map(|r| r.fold);
    report.check(
        "response digest equals ReplayDriver::run",
        reference.is_ok_and(|f| {
            f.digest() == mine.fold_digest && f.counts() == mine.fold_counts.as_slice()
        }),
    );
    report.failed = v.bad_terminals + v.stray;
}
