//! The serving core: shards, the client table, backpressure, typed verdicts.
//!
//! A [`ServeCluster`] owns a row of shards, each pairing a
//! [`ioguard_fleet::shard::Shard`] (the Theorem 1 demand ledger that
//! answers *connection* admission) with a [`Hypervisor`] (σ*-driven
//! dispatch plus the [`AdmissionGuard`] answering *per-request* rate
//! admission). A client connects by declaring its periodic server
//! `Γ = (Π, Θ)` and task set — the fleet's local gate and its
//! worst-fit placement function decide shard and pool — then streams
//! request frames which are decoded zero-copy ([`crate::wire`]),
//! buffered in a **bounded** per-client backlog, and submitted to the
//! shard's hypervisor at the next slot boundary.
//!
//! One client table holds each connection's shard, pool and backlog. A
//! ready list names the clients whose backlog went from empty to
//! non-empty since the last slot, so a slot drains only the backlogs that
//! hold work, in ascending client id: its cost follows the queued
//! requests, not the connected clients.
//!
//! A slot likewise steps only the shards that hold work. A shard whose
//! hypervisor is [`Hypervisor::quiescent`] (nothing buffered, nothing left
//! to hand over, nothing watching or denying a slot) stays behind the
//! serve clock. Every call that changes a shard's hypervisor (a
//! submission, [`ServeCluster::degrade`],
//! [`ServeCluster::inject_device_stall`]) first catches it up with
//! `advance_to`. The slots it sat out could only idle or fire σ\*, which
//! serve answers with nothing, so responses and trace are those of
//! stepping every shard every slot.
//!
//! Every fate a request can meet comes back as exactly one typed
//! [`Response`]: `Accepted` (admitted to the pool), `Completed` (with
//! end-to-end latency), `Missed`, `Throttled` (flood control), `Shed`
//! (backlog overflow or degradation), or `Rejected` (typed reason). A
//! request still queued when its client disconnects is answered
//! `Rejected(NotConnected)` by the next slot.
//! Everything past the backlog is answered from the shard hypervisor's
//! typed event stream ([`HvEvent`]), event by event as it is handed over,
//! so no answer depends on a trace ring's capacity. Degradation mode
//! changes are broadcast to every client of the shard exactly once per
//! transition.
//!
//! The cluster keeps its own [`TraceSink`] keyed by *client* id and a
//! live [`CounterRegistry`] folded at the same call sites, so
//! `CounterRegistry::from_events` over the serve trace reproduces the
//! live counters — the discipline the golden/differential tests pin.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use bytes::Bytes;
use ioguard_core::engine::run_indexed;
use ioguard_fleet::placement::worst_fit;
use ioguard_fleet::shard::{locally_schedulable, Shard};
use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy, HvMode, RtJob};
use ioguard_hypervisor::{HvEvent, Hypervisor, HypervisorParams, RefuseReason, SubmitError};
use ioguard_obs::{
    CounterRegistry, Histogram, ObsEvent, ObsKind, TraceSink, VmCounters, SYSTEM_VM,
};
use ioguard_sched::{PeriodicServer, TaskSet, TimeSlotTable};

use crate::wire::{self, RejectReason, Request, Response};

/// Marker codes carried in the `task` field of serve-level
/// [`ObsKind::Marker`] trace events.
pub mod markers {
    /// A client connected; `arg` = shard index.
    pub const CONNECT: u64 = 1;
    /// A client disconnected; `arg` = shard index.
    pub const DISCONNECT: u64 = 2;
    /// An undecodable frame arrived; `arg` = [`crate::wire::WireError`]
    /// ordinal.
    pub const MALFORMED: u64 = 3;
}

/// Saturating id conversion for trace fields (the workspace idiom).
fn trace_idx(x: usize) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// Tuning for a [`ServeCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of shards (ledger + hypervisor pairs).
    pub shards: usize,
    /// Hypervisor pools per shard — the per-shard connection ceiling.
    pub pools_per_shard: usize,
    /// Fleet analysis frame handed to each shard's demand ledger.
    pub frame: u64,
    /// Per-request flood control applied at every shard.
    pub guard: AdmissionGuard,
    /// Watchdog retry policy (enables fault-driven degradation).
    pub watchdog: Option<RetryPolicy>,
    /// Graceful-degradation recovery tuning.
    pub degradation: DegradationPolicy,
    /// Hardware pool depth per client.
    pub pool_capacity: usize,
    /// Bound of each client's decode→dispatch backlog; overflow sheds.
    pub backlog_capacity: usize,
    /// Client-id registry size; ids at or above this are refused.
    pub max_clients: u32,
    /// Serve trace ring capacity (drop-oldest beyond it).
    pub trace_capacity: usize,
    /// Seed for the placement tie-break of the fleet's `worst_fit`.
    pub seed: u64,
}

impl ServeConfig {
    /// A config with calibrated defaults for `shards`×`pools_per_shard`.
    pub fn new(shards: usize, pools_per_shard: usize) -> Self {
        Self {
            shards,
            pools_per_shard,
            frame: 4096,
            guard: AdmissionGuard {
                window: 64,
                max_submissions: 8,
                throttle_slots: 128,
            },
            watchdog: None,
            degradation: DegradationPolicy::default(),
            pool_capacity: 32,
            backlog_capacity: 16,
            max_clients: 4096,
            trace_capacity: 1 << 16,
            seed: 0x00C0_FFEE,
        }
    }
}

/// Construction-time failures of a [`ServeCluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The configuration could not be realized.
    Construction {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Construction { reason } => write!(f, "serve construction: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One connection: where the client is bound and what it has queued.
struct Client {
    shard: usize,
    pool: usize,
    backlog: VecDeque<Request>,
}

struct ServeShard {
    ledger: Shard,
    hv: Hypervisor,
    free_pools: BTreeSet<usize>,
    /// pool index → bound client (stays set while a disconnected
    /// client's pool drains, for correct completion attribution).
    pool_client: Vec<Option<u32>>,
    /// Pools of disconnected clients still holding in-flight work.
    draining: BTreeSet<usize>,
}

impl ServeShard {
    /// The shard's hypervisor brought to serve slot `now`, for a call that
    /// changes it. A shard [`ServeCluster::step`] left behind is
    /// quiescent: `advance_to` reaches the state stepping the skipped slots
    /// would have, and those slots could only emit `Idle` and
    /// `PchannelSlot`, which serve answers with nothing. A shard at `now`
    /// is left as it is.
    fn at(&mut self, now: u64) -> &mut Hypervisor {
        self.hv.advance_to(now);
        &mut self.hv
    }

    /// Returns the pools of disconnected clients that have drained to the
    /// free set.
    fn free_drained(&mut self) {
        let (hv, free, pool_client) = (&self.hv, &mut self.free_pools, &mut self.pool_client);
        self.draining.retain(|&pool| {
            let empty = hv.pools().get(pool).is_none_or(|p| p.is_empty());
            if empty {
                free.insert(pool);
                if let Some(slot) = pool_client.get_mut(pool) {
                    *slot = None;
                }
            }
            !empty
        });
    }
}

/// The serving front-end state machine (see module docs).
pub struct ServeCluster {
    config: ServeConfig,
    shards: Vec<ServeShard>,
    clients: BTreeMap<u32, Client>,
    /// Clients whose backlog went from empty to non-empty since the last
    /// step; may repeat a client or name one that has since disconnected.
    /// Emptied by every step, capacity kept.
    ready: Vec<u32>,
    /// Answers to requests a disconnect took out of their backlog,
    /// returned by the next step.
    owed: Vec<Response>,
    /// Backlogs step's submission phase has visited.
    backlog_visits: u64,
    counters: CounterRegistry,
    sink: TraceSink,
    now_slot: u64,
    /// Hypervisor events handed over and not yet answered (reused).
    events: Vec<HvEvent>,
    /// End-to-end latency of completed critical requests.
    e2e_critical: Histogram,
    /// End-to-end latency of completed best-effort requests.
    e2e_best_effort: Histogram,
}

impl ServeCluster {
    /// Builds the cluster: one ledger shard + hypervisor per shard slot.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.shards == 0 || config.pools_per_shard == 0 {
            return Err(ServeError::Construction {
                reason: "shards and pools_per_shard must be positive".into(),
            });
        }
        let mut shards = Vec::with_capacity(config.shards);
        for id in 0..config.shards {
            // One reserved σ* slot in 64: the P-channel keeps its table
            // share while virtually all bandwidth serves the R-channel.
            let sigma =
                TimeSlotTable::from_occupied(64, &[0]).map_err(|e| ServeError::Construction {
                    reason: format!("sigma table: {e}"),
                })?;
            let ledger =
                Shard::new(id, sigma, config.frame).map_err(|e| ServeError::Construction {
                    reason: format!("shard {id}: {e}"),
                })?;
            let mut params = HypervisorParams {
                pool_capacity: config.pool_capacity,
                ..HypervisorParams::new(config.pools_per_shard)
            }
            .with_admission_guard(config.guard)
            .with_degradation(config.degradation);
            if let Some(watchdog) = config.watchdog {
                params = params.with_watchdog(watchdog);
            }
            let hv = Hypervisor::new(params).map_err(|e| ServeError::Construction {
                reason: format!("hypervisor {id}: {e}"),
            })?;
            shards.push(ServeShard {
                ledger,
                hv,
                free_pools: (0..config.pools_per_shard).collect(),
                pool_client: vec![None; config.pools_per_shard],
                draining: BTreeSet::new(),
            });
        }
        Ok(Self {
            shards,
            clients: BTreeMap::new(),
            ready: Vec::new(),
            owed: Vec::new(),
            backlog_visits: 0,
            counters: CounterRegistry::new(config.max_clients as usize),
            sink: TraceSink::new(config.trace_capacity),
            now_slot: 0,
            events: Vec::new(),
            e2e_critical: Histogram::new(),
            e2e_best_effort: Histogram::new(),
            config,
        })
    }

    /// Records a serve-level trace event and folds it into the live
    /// counter registry at the same call site, keeping
    /// `CounterRegistry::from_events(trace)` equal to the live registry.
    fn note(&mut self, kind: ObsKind, vm: u32, task: u64, arg: u64) {
        self.sink.record(self.now_slot, kind, vm, task, arg);
        self.counters.fold_event(&ObsEvent {
            seq: 0,
            at: self.now_slot,
            kind,
            vm,
            task,
            arg,
        });
    }

    /// The current serve slot (advanced by [`ServeCluster::step`]).
    pub fn now(&self) -> u64 {
        self.now_slot
    }

    /// Live per-client counters.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// One client's counters.
    pub fn client_counters(&self, client: u32) -> Option<&VmCounters> {
        self.counters.vm(client as usize)
    }

    /// The serve-level trace ring.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// True when `client` currently holds a connection.
    pub fn connected(&self, client: u32) -> bool {
        self.clients.contains_key(&client)
    }

    /// Number of connected clients.
    pub fn connected_count(&self) -> usize {
        self.clients.len()
    }

    /// Backlogs that [`ServeCluster::step`]'s submission phase has visited
    /// since construction: one per client with queued work per slot, not
    /// one per connected client.
    pub fn backlog_visits(&self) -> u64 {
        self.backlog_visits
    }

    /// Slot passes of every shard's hypervisor since construction
    /// ([`Hypervisor::slot_passes`], summed): one per slot a shard holding
    /// work is stepped, and one per catch-up over the slots a quiescent
    /// shard skipped.
    pub fn slot_passes(&self) -> u64 {
        self.shards.iter().map(|s| s.hv.slot_passes()).sum()
    }

    /// The degradation mode of `shard`.
    pub fn mode(&self, shard: usize) -> Option<HvMode> {
        self.shards.get(shard).map(|s| s.hv.mode())
    }

    /// Injects a transient device stall on `shard` (fault testing).
    pub fn inject_device_stall(&mut self, shard: usize, slots: u64) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.at(self.now_slot).inject_device_stall(slots);
        }
    }

    /// Forces `shard` one degradation level down (Normal → Degraded →
    /// PchannelOnly) and immediately answers the resulting mode-change
    /// and shed events. Call between steps.
    pub fn degrade(&mut self, shard: usize) -> Vec<Response> {
        let mut responses = Vec::new();
        if let Some(s) = self.shards.get_mut(shard) {
            let hv = s.at(self.now_slot);
            hv.degrade();
            hv.drain_events(&mut self.events);
        }
        self.answer(shard, &mut responses);
        responses
    }

    /// End-to-end latency histograms of completed requests across all
    /// shards, split by criticality class: `(critical, best_effort)`.
    pub fn e2e_histograms(&self) -> (Histogram, Histogram) {
        (self.e2e_critical.clone(), self.e2e_best_effort.clone())
    }

    /// Connection admission: the local gate
    /// ([`locally_schedulable`]: a period harmonic with the frame and
    /// Theorem 3), then the fleet's [`worst_fit`] over the shards that
    /// have a free pool and whose ledger probe admits `server`, seeded by
    /// [`ServeConfig::seed`]. Returns the typed verdict: a failed local
    /// gate is `NotSchedulable`, no fitting shard is `NoCapacity`.
    pub fn connect(&mut self, client: u32, server: PeriodicServer, tasks: &TaskSet) -> Response {
        if client >= self.config.max_clients {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::UnknownClient,
            };
        }
        if self.clients.contains_key(&client) {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::AlreadyConnected,
            };
        }
        if !locally_schedulable(&server, tasks, self.config.frame) {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NotSchedulable,
            };
        }
        let candidates = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, shard)| !shard.free_pools.is_empty() && shard.ledger.probe(&server))
            .map(|(idx, shard)| (idx, shard.ledger.headroom()));
        let Some(idx) = worst_fit(self.config.seed, u64::from(client), candidates) else {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        let Some(shard) = self.shards.get_mut(idx) else {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        let admitted = shard
            .ledger
            .admit(u64::from(client), server, tasks)
            .map(|outcome| outcome.admitted())
            .unwrap_or(false);
        if !admitted {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        }
        let Some(pool) = shard.free_pools.pop_first() else {
            let _ = shard.ledger.evict(u64::from(client));
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        if let Some(slot) = shard.pool_client.get_mut(pool) {
            *slot = Some(client);
        }
        self.clients.insert(
            client,
            Client {
                shard: idx,
                pool,
                backlog: VecDeque::new(),
            },
        );
        self.note(
            ObsKind::Marker,
            client,
            markers::CONNECT,
            trace_idx(idx) as u64,
        );
        Response::Connected {
            client,
            shard: trace_idx(idx),
        }
    }

    /// Tears down `client`'s connection. In-flight pool work keeps its
    /// attribution and the pool returns to the free set once drained.
    /// Each request still in its backlog is answered
    /// `Rejected(NotConnected)`, the answer a frame from a client that is
    /// not connected gets, by the next [`ServeCluster::step`].
    pub fn disconnect(&mut self, client: u32) -> Response {
        let Some(gone) = self.clients.remove(&client) else {
            return Response::Rejected {
                client,
                task_id: 0,
                reason: RejectReason::NotConnected,
            };
        };
        self.owed
            .extend(gone.backlog.iter().map(|request| Response::Rejected {
                client,
                task_id: request.task_id,
                reason: RejectReason::NotConnected,
            }));
        if let Some(shard) = self.shards.get_mut(gone.shard) {
            let _ = shard.ledger.evict(u64::from(client));
            let empty = shard
                .hv
                .pools()
                .get(gone.pool)
                .map(|p| p.is_empty())
                .unwrap_or(true);
            if empty {
                if let Some(slot) = shard.pool_client.get_mut(gone.pool) {
                    *slot = None;
                }
                shard.free_pools.insert(gone.pool);
            } else {
                shard.draining.insert(gone.pool);
            }
        }
        self.note(
            ObsKind::Marker,
            client,
            markers::DISCONNECT,
            trace_idx(gone.shard) as u64,
        );
        Response::Disconnected { client }
    }

    /// Ingests raw frames: zero-copy parallel decode (deterministic at
    /// any `workers` count — results scatter back in input order), then
    /// sequential admission into the bounded per-client backlogs.
    ///
    /// Each decodable request either enters its client's backlog
    /// (response deferred to the submission verdict at the next
    /// [`ServeCluster::step`]) or is shed on overflow; each undecodable
    /// tail yields exactly one `Rejected(Malformed)`.
    pub fn ingest(&mut self, frames: &[(u32, Bytes)], workers: usize) -> Vec<Response> {
        let (decoded, _) = run_indexed(workers, frames, |_, (_, bytes)| {
            let mut cursor = bytes.clone();
            wire::decode_stream(&mut cursor)
        });
        let mut responses = Vec::new();
        for ((origin, _), (requests, err)) in frames.iter().zip(decoded) {
            for request in requests {
                if let Some(resp) = self.accept_frame(*origin, request) {
                    responses.push(resp);
                }
            }
            if let Some(e) = err {
                self.note(ObsKind::Marker, *origin, markers::MALFORMED, e.ordinal());
                responses.push(Response::Rejected {
                    client: *origin,
                    task_id: 0,
                    reason: RejectReason::Malformed,
                });
            }
        }
        responses
    }

    fn accept_frame(&mut self, origin: u32, request: Request) -> Option<Response> {
        let task_id = request.task_id;
        if request.client != origin {
            return Some(Response::Rejected {
                client: origin,
                task_id,
                reason: RejectReason::Malformed,
            });
        }
        let cap = self.config.backlog_capacity;
        let Some(Client { backlog, .. }) = self.clients.get_mut(&origin) else {
            return Some(Response::Rejected {
                client: origin,
                task_id,
                reason: RejectReason::NotConnected,
            });
        };
        // Bounded spillover: the capacity guard is the backpressure
        // contract — beyond the bound we shed, never grow.
        if backlog.len() < cap {
            backlog.push_back(request);
            if backlog.len() == 1 {
                self.ready.push(origin);
            }
            None
        } else {
            self.note(ObsKind::Shed, origin, task_id, 1);
            Some(Response::Shed {
                client: origin,
                task_id,
            })
        }
    }

    fn submit_one(
        &mut self,
        client: u32,
        idx: usize,
        pool: usize,
        request: Request,
        responses: &mut Vec<Response>,
    ) {
        let Some(shard) = self.shards.get_mut(idx) else {
            responses.push(Response::Rejected {
                client,
                task_id: request.task_id,
                reason: RejectReason::NotConnected,
            });
            return;
        };
        let hv = shard.at(self.now_slot);
        let release = hv.now();
        let mut job = RtJob::new(
            pool,
            request.task_id,
            release,
            request.wcet,
            release.saturating_add(request.deadline_rel),
        );
        if !request.critical {
            job = job.best_effort();
        }
        let response_bytes = trace_idx(request.payload.len().max(1));
        let verdict = hv.submit_with_payload(job, response_bytes);
        hv.drain_events(&mut self.events);
        // Admissions and refusals are answered from the stream, after any
        // misses the submit-time deadline sweep found.
        self.answer(idx, responses);
        match verdict {
            Ok(()) | Err(SubmitError::Refused(_)) => {}
            // A binding to a pool the shard lacks: no event to answer from.
            Err(SubmitError::UnknownVm { .. }) => responses.push(Response::Rejected {
                client,
                task_id: request.task_id,
                reason: RejectReason::NotConnected,
            }),
        }
    }

    /// One serve slot: answer the requests disconnects took out of their
    /// backlogs, drain the backlogs on the ready list into the hypervisors
    /// (ascending client id; the backlogs left out are empty), then step
    /// every shard whose hypervisor is not quiescent, answering each
    /// shard's events before its drained pools return to the free set.
    /// A quiescent shard holds no work and no pool left to drain; it
    /// stays behind the serve clock until a submission, a stall or a
    /// degradation brings it up. Returns all responses produced this slot.
    pub fn step(&mut self) -> Vec<Response> {
        let mut responses = std::mem::take(&mut self.owed);
        // Phase 1: submissions.
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        ready.dedup();
        for client in ready.drain(..) {
            // A client that disconnected since it queued has nothing left.
            let Some(&Client { shard, pool, .. }) = self.clients.get(&client) else {
                continue;
            };
            self.backlog_visits = self.backlog_visits.saturating_add(1);
            while let Some(request) = self
                .clients
                .get_mut(&client)
                .and_then(|entry| entry.backlog.pop_front())
            {
                self.submit_one(client, shard, pool, request, &mut responses);
            }
        }
        self.ready = ready;
        // Phase 2: dispatch, on the shards that hold work. Only a quiescent
        // shard falls behind, and it stays quiescent until a call brings it
        // up, so every shard stepped here is at the serve clock.
        let now = self.now_slot;
        for idx in 0..self.shards.len() {
            let Some(shard) = self.shards.get_mut(idx) else {
                continue;
            };
            if shard.hv.quiescent() {
                debug_assert!(shard.draining.is_empty(), "shard {idx} skipped a drain");
                continue;
            }
            debug_assert_eq!(shard.hv.now(), now, "shard {idx} stepped off the clock");
            shard.hv.step_into(&mut self.events);
            self.answer(idx, &mut responses);
            if let Some(shard) = self.shards.get_mut(idx) {
                shard.free_drained();
            }
        }
        self.now_slot = self.now_slot.saturating_add(1);
        responses
    }

    /// The client bound to pool `vm` of shard `idx` (still set while a
    /// disconnected client's pool drains).
    fn client_of(&self, idx: usize, vm: usize) -> Option<u32> {
        self.shards.get(idx)?.pool_client.get(vm).copied().flatten()
    }

    /// Answers every event shard `idx` handed over into `self.events`:
    /// client responses plus serve-trace notes, in emission order.
    fn answer(&mut self, idx: usize, responses: &mut Vec<Response>) {
        let mut events = std::mem::take(&mut self.events);
        for event in events.drain(..) {
            self.answer_one(idx, event, responses);
        }
        self.events = events;
    }

    fn answer_one(&mut self, idx: usize, event: HvEvent, responses: &mut Vec<Response>) {
        let shard = trace_idx(idx);
        match event {
            HvEvent::Admitted { vm, job } => {
                if let Some(client) = self.client_of(idx, vm) {
                    let task_id = job.task_id;
                    self.note(ObsKind::Admit, client, task_id, job.remaining);
                    responses.push(Response::Accepted { client, task_id });
                }
            }
            HvEvent::Refused { vm, job, reason } => {
                let Some(client) = self.client_of(idx, vm) else {
                    return;
                };
                let task_id = job.task_id;
                let response = match reason {
                    RefuseReason::Throttled { until } => {
                        self.note(ObsKind::ThrottledSubmission, client, task_id, until);
                        Response::Throttled {
                            client,
                            task_id,
                            until,
                        }
                    }
                    RefuseReason::Degraded if !job.critical => {
                        self.note(ObsKind::Shed, client, task_id, 1);
                        Response::Shed { client, task_id }
                    }
                    RefuseReason::Degraded | RefuseReason::PoolFull => {
                        let critical = u64::from(job.critical);
                        self.note(ObsKind::DeadlineMiss, client, task_id, critical);
                        let reason = if reason == RefuseReason::PoolFull {
                            RejectReason::PoolFull
                        } else {
                            RejectReason::Degraded
                        };
                        Response::Rejected {
                            client,
                            task_id,
                            reason,
                        }
                    }
                };
                responses.push(response);
            }
            HvEvent::Missed { vm, job } => {
                if let Some(client) = self.client_of(idx, vm) {
                    let (task_id, critical) = (job.task_id, job.critical);
                    self.note(ObsKind::DeadlineMiss, client, task_id, u64::from(critical));
                    responses.push(Response::Missed {
                        client,
                        task_id,
                        critical,
                    });
                }
            }
            HvEvent::Shed { vm, job } => {
                if let Some(client) = self.client_of(idx, vm) {
                    self.note(ObsKind::Shed, client, job.task_id, 1);
                    responses.push(Response::Shed {
                        client,
                        task_id: job.task_id,
                    });
                }
            }
            HvEvent::Completed { vm, job, finish } => {
                let latency = finish.saturating_sub(job.enqueued_at);
                if job.critical {
                    self.e2e_critical.record(latency);
                } else {
                    self.e2e_best_effort.record(latency);
                }
                if let Some(client) = self.client_of(idx, vm) {
                    let task_id = job.task_id;
                    self.note(ObsKind::Complete, client, task_id, latency);
                    responses.push(Response::Completed {
                        client,
                        task_id,
                        latency,
                    });
                }
            }
            HvEvent::Retry { vm, attempt } => {
                let client = self.client_of(idx, vm).unwrap_or(SYSTEM_VM);
                self.note(ObsKind::Retry, client, 0, u64::from(attempt));
            }
            HvEvent::ThrottledSlot { vm } => {
                if let Some(client) = self.client_of(idx, vm) {
                    self.note(ObsKind::ThrottledSlot, client, 0, 0);
                }
            }
            HvEvent::Fault => self.note(ObsKind::Fault, SYSTEM_VM, u64::from(shard), 0),
            HvEvent::Recovery => self.note(ObsKind::Recovery, SYSTEM_VM, u64::from(shard), 0),
            HvEvent::ModeChange(mode) => {
                let mode = mode.ordinal();
                self.note(
                    ObsKind::ModeChange,
                    SYSTEM_VM,
                    u64::from(shard),
                    u64::from(mode),
                );
                for (&client, entry) in &self.clients {
                    if entry.shard == idx {
                        responses.push(Response::ModeChange {
                            client,
                            shard,
                            mode,
                        });
                    }
                }
            }
            // The trip is not an answer: the tripping submission gets its
            // own `Refused`.
            HvEvent::ThrottleTrip { .. } => {}
            HvEvent::Dispatch { .. }
            | HvEvent::Preempt { .. }
            | HvEvent::PchannelSlot { .. }
            | HvEvent::Grant { .. }
            | HvEvent::Stalled
            | HvEvent::Backoff
            | HvEvent::Idle => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(period: u64, budget: u64) -> PeriodicServer {
        PeriodicServer::new(period, budget).expect("valid server")
    }

    fn shard_of(response: Response) -> u32 {
        match response {
            Response::Connected { shard, .. } => shard,
            other => panic!("expected a connection, got {other}"),
        }
    }

    /// A one-shard cluster with client 0 connected, stepped for 1 000
    /// slots with nothing to do: its shard sits them all out.
    fn idle_for_1000_slots() -> ServeCluster {
        let mut cluster = ServeCluster::new(ServeConfig::new(1, 2)).expect("valid config");
        assert_eq!(
            shard_of(cluster.connect(0, server(64, 8), &TaskSet::new())),
            0
        );
        for _ in 0..1_000 {
            assert_eq!(cluster.step(), []);
        }
        assert_eq!(cluster.now(), 1_000);
        assert_eq!(cluster.slot_passes(), 0, "an idle shard is not stepped");
        cluster
    }

    /// Sends client 0's `(task_id, wcet, deadline_rel, critical)` requests
    /// in one frame, then runs `slots` slots; returns each response with
    /// the slot whose ingest or step returned it.
    fn send_and_run(
        cluster: &mut ServeCluster,
        requests: &[(u64, u64, u64, bool)],
        slots: u64,
    ) -> Vec<(u64, Response)> {
        let mut frame = bytes::BytesMut::new();
        for &(task_id, wcet, deadline_rel, critical) in requests {
            let request = Request {
                client: 0,
                task_id,
                wcet,
                deadline_rel,
                critical,
                payload: Bytes::new(),
            };
            wire::encode_request(&request, &mut frame).expect("valid request");
        }
        let slot = cluster.now();
        let mut seen: Vec<(u64, Response)> = cluster
            .ingest(&[(0, frame.freeze())], 1)
            .into_iter()
            .map(|r| (slot, r))
            .collect();
        for _ in 0..slots {
            let slot = cluster.now();
            seen.extend(cluster.step().into_iter().map(|r| (slot, r)));
        }
        seen
    }

    #[test]
    fn a_stall_after_an_idle_stretch_starts_at_the_serve_clock() {
        let mut cluster = idle_for_1000_slots();
        // The stall covers serve slots 1 000–1 004, however long ago the
        // shard last stepped.
        cluster.inject_device_stall(0, 5);
        assert_eq!(cluster.slot_passes(), 1, "one pass catches the shard up");
        let seen = send_and_run(&mut cluster, &[(1, 2, 20, true)], 10);
        // Released at 1 000, served in 1 005 and 1 006, done at the end of
        // 1 006: a latency of 7.
        let accepted = Response::Accepted {
            client: 0,
            task_id: 1,
        };
        let completed = Response::Completed {
            client: 0,
            task_id: 1,
            latency: 7,
        };
        assert_eq!(seen, [(1_000, accepted), (1_006, completed)]);
        let notes: Vec<(u64, ObsKind)> = cluster
            .sink()
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::Fault | ObsKind::Recovery))
            .map(|e| (e.at, e.kind))
            .collect();
        assert_eq!(notes, [(1_000, ObsKind::Fault), (1_005, ObsKind::Recovery)]);
    }

    #[test]
    fn a_degradation_after_an_idle_stretch_recovers_on_the_serve_clock() {
        let mut cluster = idle_for_1000_slots();
        let degraded = Response::ModeChange {
            client: 0,
            shard: 0,
            mode: HvMode::Degraded.ordinal(),
        };
        assert_eq!(cluster.degrade(0), [degraded]);
        // Degraded: the critical request runs in 1 000 and 1 001, the
        // best-effort one is shed; 64 healthy slots from 1 000 on bring
        // the shard back to normal in the step of slot 1 063.
        let seen = send_and_run(&mut cluster, &[(1, 2, 20, true), (2, 1, 20, false)], 70);
        let expected = [
            (
                1_000,
                Response::Accepted {
                    client: 0,
                    task_id: 1,
                },
            ),
            (
                1_000,
                Response::Shed {
                    client: 0,
                    task_id: 2,
                },
            ),
            (
                1_001,
                Response::Completed {
                    client: 0,
                    task_id: 1,
                    latency: 2,
                },
            ),
            (
                1_063,
                Response::ModeChange {
                    client: 0,
                    shard: 0,
                    mode: HvMode::Normal.ordinal(),
                },
            ),
        ];
        assert_eq!(seen, expected);
        assert_eq!(cluster.mode(0), Some(HvMode::Normal));
    }

    #[test]
    fn non_harmonic_server_is_not_schedulable_rather_than_no_capacity() {
        let mut cluster = ServeCluster::new(ServeConfig::new(2, 2)).expect("valid config");
        // Period 48 does not divide the 4096-slot frame: no shard can ever
        // take this declaration, so a retry must not be invited.
        assert_eq!(
            cluster.connect(0, server(48, 1), &TaskSet::new()),
            Response::ConnectRejected {
                client: 0,
                reason: RejectReason::NotSchedulable,
            }
        );
        assert_eq!(cluster.connected_count(), 0);
    }

    #[test]
    fn connect_skips_a_shard_with_more_headroom_but_no_free_pool() {
        let mut cluster = ServeCluster::new(ServeConfig::new(2, 2)).expect("valid config");
        let tasks = TaskSet::new();
        let light = shard_of(cluster.connect(0, server(64, 1), &tasks));
        // The other shard is empty, so the heavy client goes there.
        let heavy = shard_of(cluster.connect(1, server(64, 32), &tasks));
        assert_ne!(light, heavy);
        // Two light clients leave more headroom than one heavy client.
        assert_eq!(shard_of(cluster.connect(2, server(64, 1), &tasks)), light);
        // The light shard still has the most headroom, but no free pool.
        assert_eq!(shard_of(cluster.connect(3, server(64, 1), &tasks)), heavy);
    }
}
