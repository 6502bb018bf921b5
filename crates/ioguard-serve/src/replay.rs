//! Deterministic virtual-clock replay of live request streams.
//!
//! [`ReplayDriver`] is the serving front-end's test harness headline: it
//! synthesizes a client population from
//! [`ioguard_workload::arrivals::FleetArrivals`] (the same churn streams
//! the fleet layer replays) and drives a [`ServeCluster`] one virtual
//! slot at a time in a single loop: each slot runs the due
//! connect/disconnect lifecycle events, emits the due periodic requests
//! of every resident client, then ingests and steps the cluster —
//! millions of requests per run, zero wall-clock dependence. The
//! observable outcome (response fold digest, counter totals, latency
//! histograms) is a pure function of the [`ReplayConfig`]: same config,
//! same bytes, at *any* decode worker count, which is exactly what the
//! differential test asserts.
//!
//! [`canonical_scenario`] is the scripted sibling: a small fixed cast
//! (two well-behaved clients, one babbler, malformed frames, a device
//! stall, a mid-run connect and a disconnect) whose serve trace is
//! pinned as `tests/goldens/serve.trace`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::{Bytes, BytesMut};
use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy};
use ioguard_obs::prom;
use ioguard_obs::{CounterRegistry, Histogram, VmCounters};
use ioguard_sched::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_sim::rng::SplitMix64;
use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::server::{ServeCluster, ServeConfig, ServeError};
use crate::wire::{self, Request, Response};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv_extend(mut state: u64, text: &str) -> u64 {
    for byte in text.bytes() {
        state = (state ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    state
}

/// Memory-bounded accumulator over a response stream: per-kind counts
/// plus a running FNV-1a digest of the canonical renderings. Two runs
/// produced identical response streams iff their folds are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFold {
    counts: Vec<u64>,
    digest: u64,
    total: u64,
}

impl Default for ResponseFold {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self {
            counts: vec![0; Response::KINDS],
            digest: FNV_OFFSET,
            total: 0,
        }
    }

    /// Folds one response.
    pub fn push(&mut self, resp: &Response) {
        let ordinal = usize::from(resp.kind_ordinal());
        if let Some(count) = self.counts.get_mut(ordinal.saturating_sub(1)) {
            *count = count.saturating_add(1);
        }
        self.digest = fnv_extend(self.digest, &format!("{resp}\n"));
        self.total = self.total.saturating_add(1);
    }

    /// Order-sensitive digest of every folded response rendering.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total responses folded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-kind counts indexed by `kind_ordinal - 1`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Configuration of one replay run (the run is a pure function of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Stop emitting once this many requests have been sent.
    pub requests: u64,
    /// Client lifecycle events drawn from [`FleetArrivals`].
    pub events: usize,
    /// Steady-state resident client population the churn aims for.
    pub target_resident: usize,
    /// Serve shards.
    pub shards: usize,
    /// Decode worker threads handed to [`ServeCluster::ingest`].
    pub workers: usize,
    /// Fleet frame (power of two ≥ 512; smaller frames mean denser
    /// request streams since server periods scale with it).
    pub frame: u64,
    /// Slots between consecutive lifecycle events.
    pub event_spacing: u64,
    /// Slots the loop keeps running after the load generator stops.
    pub drain_slots: u64,
    /// Snapshot cadence in slots for [`ReplayDriver::run_with`]
    /// (0 disables snapshots).
    pub snapshot_every: u64,
    /// Root seed.
    pub seed: u64,
}

impl ReplayConfig {
    /// Calibrated defaults scaled to `requests`.
    pub fn new(requests: u64) -> Self {
        Self {
            requests,
            events: 600,
            target_resident: 96,
            shards: 4,
            workers: 1,
            frame: 512,
            event_spacing: 4,
            drain_slots: 2048,
            snapshot_every: 0,
            seed: 0x5EED,
        }
    }

    fn serve_config(&self) -> ServeConfig {
        let per_shard = (self.target_resident / self.shards.max(1))
            .max(4)
            .saturating_mul(2);
        let mut config = ServeConfig::new(self.shards.max(1), per_shard);
        config.frame = self.frame;
        config.guard = AdmissionGuard {
            window: 64,
            max_submissions: 16,
            throttle_slots: 128,
        };
        config.degradation = DegradationPolicy {
            healthy_slots_to_recover: 64,
        };
        config.backlog_capacity = 32;
        config.max_clients = u32::try_from(self.events).unwrap_or(u32::MAX).max(1);
        config.seed = self.seed;
        config
    }
}

/// Outcome of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests actually emitted (≤ the configured target).
    pub requests_sent: u64,
    /// Virtual slots the serve loop ran.
    pub slots: u64,
    /// The response-stream fold (counts + digest).
    pub fold: ResponseFold,
    /// Total counters across all clients.
    pub counter_totals: VmCounters,
    /// Live per-client counter registry at the end of the run.
    pub counters: CounterRegistry,
    /// End-to-end latency of completed critical requests.
    pub e2e_critical: Histogram,
    /// End-to-end latency of completed best-effort requests.
    pub e2e_best_effort: Histogram,
    /// Largest relative deadline among emitted critical requests — the
    /// structural per-class latency bound completions must respect.
    pub deadline_bound_critical: u64,
    /// Largest relative deadline among emitted best-effort requests.
    pub deadline_bound_best_effort: u64,
    /// Accepted requests with no completed, missed or shed response at
    /// the end of the run (must be 0: every accepted request is answered).
    pub unanswered: u64,
    /// Snapshots emitted via [`ReplayDriver::run_with`].
    pub snapshots: u64,
}

/// Folds one response and tracks each accepted request in `awaiting`
/// until its final answer.
fn record(fold: &mut ResponseFold, awaiting: &mut BTreeSet<(u32, u64)>, resp: &Response) {
    fold.push(resp);
    match *resp {
        Response::Accepted { client, task_id } => {
            awaiting.insert((client, task_id));
        }
        Response::Completed {
            client, task_id, ..
        }
        | Response::Missed {
            client, task_id, ..
        }
        | Response::Shed { client, task_id } => {
            awaiting.remove(&(client, task_id));
        }
        _ => {}
    }
}

#[derive(Debug, Clone, Copy)]
struct ReleaseKey {
    client: u32,
    period: u64,
    wcet: u64,
    deadline_rel: u64,
    critical: bool,
}

/// The deterministic replay harness (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct ReplayDriver {
    config: ReplayConfig,
}

impl ReplayDriver {
    /// A driver for `config`.
    pub fn new(config: ReplayConfig) -> Self {
        Self { config }
    }

    /// Runs the replay without snapshots.
    pub fn run(&self) -> Result<ReplayReport, ServeError> {
        self.run_with(|_, _, _| {})
    }

    /// Runs the replay, invoking `on_snapshot(slot, prom_text, json)`
    /// after the step of every slot that is a positive multiple of
    /// [`ReplayConfig::snapshot_every`], except the last slot.
    pub fn run_with(
        &self,
        mut on_snapshot: impl FnMut(u64, &str, &str),
    ) -> Result<ReplayReport, ServeError> {
        let cfg = self.config;
        let mut cluster = ServeCluster::new(cfg.serve_config())?;
        let stream = FleetArrivals::generate(&FleetArrivalConfig {
            events: cfg.events,
            target_resident: cfg.target_resident,
            frame: cfg.frame,
            seed: cfg.seed,
        });
        let mut lifecycle: VecDeque<FleetEvent> = stream.events().iter().cloned().collect();
        let mut releases: BTreeMap<u64, Vec<ReleaseKey>> = BTreeMap::new();
        let mix = SplitMix64::new(cfg.seed ^ 0x5EED_CAFE);
        let mut next_event_slot = 1u64;
        let mut task_seq = 0u64;
        let mut sent = 0u64;
        let mut bound_critical = 0u64;
        let mut bound_best_effort = 0u64;
        let mut fold = ResponseFold::new();
        // Accepted `(client, task_id)` pairs still waiting for their answer.
        let mut awaiting: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut frames: Vec<(u32, Bytes)> = Vec::new();
        // Set when the generator stops; the run ends after this slot.
        let mut end_slot: Option<u64> = None;
        let mut snapshots = 0u64;
        for slot in 0u64.. {
            frames.clear();
            if end_slot.is_none() {
                // Lifecycle events due this slot.
                while next_event_slot <= slot {
                    let Some(event) = lifecycle.pop_front() else {
                        break;
                    };
                    match event {
                        FleetEvent::Arrive { vm, server, tasks } => {
                            let client = u32::try_from(vm).unwrap_or(u32::MAX);
                            let resp = cluster.connect(client, server, &tasks);
                            fold.push(&resp);
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
                        }
                        FleetEvent::Depart { vm } => {
                            let client = u32::try_from(vm).unwrap_or(u32::MAX);
                            fold.push(&cluster.disconnect(client));
                        }
                    }
                    next_event_slot = next_event_slot.saturating_add(cfg.event_spacing);
                }
                // Releases due this slot: coalesce one frame buffer per
                // client so multi-request frames are exercised.
                let mut per_client: BTreeMap<u32, BytesMut> = BTreeMap::new();
                while let Some(entry) = releases.first_entry() {
                    if *entry.key() > slot {
                        break;
                    }
                    for key in entry.remove() {
                        if !cluster.connected(key.client) || sent >= cfg.requests {
                            continue;
                        }
                        task_seq = task_seq.saturating_add(1);
                        let request = Request {
                            client: key.client,
                            task_id: task_seq,
                            wcet: key.wcet,
                            deadline_rel: key.deadline_rel,
                            critical: key.critical,
                            payload: Bytes::copy_from_slice(&task_seq.to_le_bytes()),
                        };
                        let buffer = per_client.entry(key.client).or_default();
                        if wire::encode_request(&request, buffer).is_ok() {
                            sent = sent.saturating_add(1);
                            if key.critical {
                                bound_critical = bound_critical.max(key.deadline_rel);
                            } else {
                                bound_best_effort = bound_best_effort.max(key.deadline_rel);
                            }
                        }
                        releases
                            .entry(slot.saturating_add(key.period))
                            .or_default()
                            .push(key);
                    }
                }
                frames.extend(
                    per_client
                        .into_iter()
                        .filter(|(_, buffer)| !buffer.is_empty())
                        .map(|(client, buffer)| (client, buffer.freeze())),
                );
                if sent >= cfg.requests || (releases.is_empty() && lifecycle.is_empty()) {
                    end_slot = Some(slot.saturating_add(cfg.drain_slots));
                }
            }
            for resp in &cluster.ingest(&frames, cfg.workers) {
                record(&mut fold, &mut awaiting, resp);
            }
            for resp in &cluster.step() {
                record(&mut fold, &mut awaiting, resp);
            }
            if end_slot.is_some_and(|end| slot >= end) {
                break;
            }
            // `is_multiple_of(0)` is false for every positive slot, so a
            // zero cadence never snapshots.
            if slot > 0 && slot.is_multiple_of(cfg.snapshot_every) {
                on_snapshot(
                    slot,
                    &serve_prom_page(&cluster),
                    &serve_snapshot_json(&cluster, slot),
                );
                snapshots = snapshots.saturating_add(1);
            }
        }

        let (e2e_critical, e2e_best_effort) = cluster.e2e_histograms();
        Ok(ReplayReport {
            requests_sent: sent,
            slots: cluster.now(),
            fold,
            counter_totals: cluster.counters().totals(),
            counters: cluster.counters().clone(),
            e2e_critical,
            e2e_best_effort,
            deadline_bound_critical: bound_critical,
            deadline_bound_best_effort: bound_best_effort,
            unanswered: awaiting.len() as u64,
            snapshots,
        })
    }
}

/// Renders the cluster's live scrape page (Prometheus text format).
pub fn serve_prom_page(cluster: &ServeCluster) -> String {
    let (critical, best_effort) = cluster.e2e_histograms();
    prom::render_page(
        cluster.counters(),
        &[
            ("ioguard_e2e_critical_slots", &critical),
            ("ioguard_e2e_best_effort_slots", &best_effort),
        ],
    )
}

/// Renders a periodic `OBS_snapshot.json` document for the cluster.
pub fn serve_snapshot_json(cluster: &ServeCluster, slot: u64) -> String {
    let (critical, best_effort) = cluster.e2e_histograms();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ioguard-serve-obs/v2\",\n");
    out.push_str(&format!("  \"slot\": {slot},\n"));
    out.push_str(&format!(
        "  \"connected_clients\": {},\n",
        cluster.connected_count()
    ));
    out.push_str("  \"counters\": ");
    out.push_str(ioguard_obs::export::counters_json(cluster.counters(), 2).trim_end());
    out.push_str(",\n");
    out.push_str("  \"e2e_critical\": ");
    out.push_str(ioguard_obs::export::hist_json(&critical, 2).trim_end());
    out.push_str(",\n");
    out.push_str("  \"e2e_best_effort\": ");
    out.push_str(ioguard_obs::export::hist_json(&best_effort, 2).trim_end());
    out.push_str("\n}\n");
    out
}

/// Outcome of [`canonical_scenario`]: everything the golden and
/// differential tests compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The serve trace rendering (golden `serve.trace` content).
    pub trace: String,
    /// Live per-client counters at the end.
    pub counters: CounterRegistry,
    /// Response-stream fold.
    pub fold: ResponseFold,
    /// Whether `CounterRegistry::from_events(trace)` reproduced the live
    /// registry (the metrics/trace cross-check).
    pub fold_matches_live: bool,
}

/// The scripted canonical serve scenario: two well-behaved clients, one
/// babbler (throttled + shed), malformed/spoofed frames, a device stall
/// driving watchdog retries into graceful degradation and recovery, a
/// mid-run connect and a disconnect — 200 virtual slots, deterministic
/// at any `workers` count.
pub fn canonical_scenario(workers: usize) -> ScenarioOutcome {
    let mut config = ServeConfig::new(2, 4);
    config.guard = AdmissionGuard {
        window: 32,
        max_submissions: 4,
        throttle_slots: 64,
    };
    config.watchdog = Some(RetryPolicy {
        timeout_slots: 4,
        max_retries: 2,
        backoff_base: 2,
        backoff_cap: 8,
    });
    config.degradation = DegradationPolicy {
        healthy_slots_to_recover: 48,
    };
    config.pool_capacity = 4;
    config.backlog_capacity = 4;
    config.max_clients = 64;
    config.trace_capacity = 1 << 15;
    config.seed = 0xD1CE;
    let cluster = ServeCluster::new(config)
        .unwrap_or_else(|e| panic!("canonical scenario construction: {e}")); // lint: allow(panic-site) — scripted fixture config is statically valid; failing loudly beats a silent empty golden

    let mut state = ScenarioShared {
        cluster,
        pending: Vec::new(),
        fold: ResponseFold::new(),
        shard_of_zero: 0,
    };
    for slot in 0..=230u64 {
        if slot < 200 {
            script_slot(&mut state, slot);
        }
        let frames = std::mem::take(&mut state.pending);
        for resp in &state.cluster.ingest(&frames, workers) {
            state.fold.push(resp);
        }
        for resp in &state.cluster.step() {
            state.fold.push(resp);
        }
    }

    let trace = state.cluster.sink().render();
    let live = state.cluster.counters().clone();
    let folded = CounterRegistry::from_events(live.vms(), state.cluster.sink().iter());
    ScenarioOutcome {
        trace,
        fold: state.fold,
        fold_matches_live: folded == live,
        counters: live,
    }
}

struct ScenarioShared {
    cluster: ServeCluster,
    pending: Vec<(u32, Bytes)>,
    fold: ResponseFold,
    shard_of_zero: usize,
}

fn scenario_request(
    client: u32,
    task_id: u64,
    wcet: u64,
    deadline_rel: u64,
    critical: bool,
) -> Bytes {
    let request = Request {
        client,
        task_id,
        wcet,
        deadline_rel,
        critical,
        payload: Bytes::copy_from_slice(&task_id.to_le_bytes()),
    };
    wire::encode_request_frame(&request).unwrap_or_default()
}

fn script_slot(state: &mut ScenarioShared, slot: u64) {
    let valid_server = |theta: u64| {
        PeriodicServer::new(256, theta)
            .unwrap_or_else(|_| panic!("scripted server parameters are valid")) // lint: allow(panic-site) — fixed fixture parameters satisfy the server constructor invariants
    };
    let valid_tasks = |wcet: u64| {
        let mut tasks = TaskSet::new();
        if let Ok(task) = SporadicTask::new(2048, wcet, 1024) {
            tasks.push(task);
        }
        tasks
    };
    match slot {
        1 => {
            // The opening cast: two well-behaved clients, a babbler, a
            // Theorem 3 reject and a duplicate connect.
            for (client, theta) in [(0u32, 32u64), (1, 32), (2, 16)] {
                let resp = state
                    .cluster
                    .connect(client, valid_server(theta), &valid_tasks(2));
                if client == 0 {
                    if let Response::Connected { shard, .. } = resp {
                        state.shard_of_zero = shard as usize;
                    }
                }
                state.fold.push(&resp);
            }
            let mut tight = TaskSet::new();
            if let Ok(task) = SporadicTask::new(2048, 64, 64) {
                tight.push(task);
            }
            let resp = state.cluster.connect(3, valid_server(4), &tight);
            state.fold.push(&resp);
            let resp = state.cluster.connect(0, valid_server(32), &valid_tasks(2));
            state.fold.push(&resp);
        }
        20 => {
            // Byte soup from client 0: typed Malformed, no panic.
            state.pending.push((0, Bytes::copy_from_slice(&[0xFF; 10])));
        }
        21 => {
            // A truncated but otherwise valid frame from client 1.
            let frame = scenario_request(1, 900, 1, 16, false);
            state.pending.push((1, frame.slice(..20)));
        }
        22 => {
            // A spoofed client id inside an origin-0 frame.
            state
                .pending
                .push((0, scenario_request(9, 901, 1, 16, false)));
        }
        70 => {
            // Long enough to exhaust the watchdog (timeout 4, 2 retries
            // with backoff) and push the shard into graceful degradation;
            // recovery then brings it back within the scripted window.
            let shard = state.shard_of_zero;
            state.cluster.inject_device_stall(shard, 40);
        }
        90 => {
            let resp = state.cluster.connect(4, valid_server(32), &valid_tasks(2));
            state.fold.push(&resp);
        }
        150 => {
            let resp = state.cluster.disconnect(1);
            state.fold.push(&resp);
        }
        _ => {}
    }
    // Steady request cadence for the well-behaved clients.
    if (4..=140).contains(&slot) && slot % 8 == 4 {
        let seq = slot.saturating_mul(10);
        state
            .pending
            .push((0, scenario_request(0, seq, 1, 16, true)));
        if state.cluster.connected(1) {
            state
                .pending
                .push((1, scenario_request(1, seq.saturating_add(1), 2, 24, false)));
        }
        if state.cluster.connected(4) {
            state
                .pending
                .push((4, scenario_request(4, seq.saturating_add(2), 1, 16, true)));
        }
    }
    // The babble burst: six best-effort requests per slot in one frame.
    if (40..46).contains(&slot) {
        let mut buffer = BytesMut::new();
        for burst in 0..6u64 {
            let task_id = slot.saturating_mul(100).saturating_add(burst);
            let request = Request {
                client: 2,
                task_id,
                wcet: 1,
                deadline_rel: 8,
                critical: false,
                payload: Bytes::copy_from_slice(&task_id.to_le_bytes()),
            };
            let _ = wire::encode_request(&request, &mut buffer);
        }
        state.pending.push((2, buffer.freeze()));
    }
}
