//! Cost gates that count work instead of timing it.
//!
//! Each fast path is checked by a counter that any host reproduces
//! exactly, with the bound the wall-clock gate it replaces stood for:
//!
//! * **Idle jumps.** A sparse trickle through `Network::run_for` steps at
//!   most one cycle per flit-hop, across 2¹⁹ simulated cycles.
//! * **Incremental admission.** One `DemandLedger` decision applies only
//!   the candidate's own `frame/Π` delta events, at most a tenth of what a
//!   full Theorem 1 sweep over the residents walks.
//! * **Staircase admission.** Admitting or evicting that candidate visits
//!   at most `2·(frame/Π) + 4·log₂ frame` envelope nodes: one pruned
//!   search plus one staircase add over the tree level whose nodes line up
//!   with its steps. A period with an odd factor stays within
//!   `2·(frame/w) + 4·log₂ frame`, `w` the largest power of two dividing it.
//! * **Observation.** An `ObservedFabric` makes exactly the heap
//!   allocations the plain `Network` under it makes, and no others.
//! * **Deadline sweep.** The hypervisor walks its pools for expired work
//!   only in a slot where the comparator-tree root's deadline has passed:
//!   never more sweeps than misses.
//! * **σ\* construction.** Building a 1 001-job time slot table makes a
//!   fixed handful of allocations, not one per job.
//! * **FIFO skipping.** A FIFO baseline driven from one release to the
//!   next steps its device only in slots where a job arrives, starts or
//!   completes: at most three per offered job on a Fig. 7 trial.
//! * **σ\* walk.** An I/O-GUARD trial driven from one release to the next
//!   makes one hypervisor pass per run, and a run ends only at a release,
//!   a completion or a deadline slot: at most `2·offered + 1` passes.
//! * **Serve ready list.** A serve slot visits only the backlogs that
//!   hold work: never more backlog visits than accepted requests, however
//!   many clients are connected.
//! * **Serve shard stepping.** A serve slot steps only the shards whose
//!   hypervisor holds work, and a shard left idle catches up in one pass
//!   when work next reaches it: at most `2·accepted + shards` hypervisor
//!   passes, however many slots the replay runs.
//! * **Serve allocations.** Folding a response of any kind into a
//!   `ResponseFold` allocates nothing, and encoding a request into an
//!   empty buffer allocates once.
//!
//! Allocations are counted per thread by the allocator below, so tests
//! running in parallel never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};
use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::platform::{IoPlatform, PlatformJob};
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{Hypervisor, HypervisorParams, PchannelReclaim, RtJob};
use ioguard_hypervisor::pchannel::{PChannel, PredefinedTask};
use ioguard_hypervisor::HvEvent;
use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats, NocFabric};
use ioguard_noc::obs::ObservedFabric;
use ioguard_noc::packet::Packet;
use ioguard_noc::reference::ReferenceNetwork;
use ioguard_noc::topology::NodeId;
use ioguard_sched::ledger::{theorem1_frame, DemandLedger};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_serve::replay::ResponseFold;
use ioguard_serve::server::{ServeCluster, ServeConfig};
use ioguard_serve::wire::{self, RejectReason, Request, Response};
use ioguard_sim::rng::Xoshiro256StarStar;
use ioguard_workload::generator::{TrialConfig, TrialWorkload};

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    // Const-initialised and without `Drop`, so reading it never allocates
    // and stays valid during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which does
// not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on the
/// calling thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Payload flits per packet (5 flits on the wire with the header).
const PAYLOAD_FLITS: u32 = 4;

/// What a fabric produced under one stimulus.
#[derive(Debug, PartialEq)]
struct Outcome {
    deliveries: Vec<Delivery>,
    stats: NetworkStats,
    now: u64,
}

fn outcome_of<N: NocFabric>(net: &N, deliveries: Vec<Delivery>) -> Outcome {
    Outcome {
        deliveries,
        stats: net.stats(),
        now: net.now().raw(),
    }
}

/// One cross-mesh packet per 8 192 cycles on a 4×4 mesh, 64 packets, each
/// followed by one `run_for`: the quiescence-heavy shape where the
/// event-driven core jumps idle gaps and the reference pays every cycle.
fn drive_sparse<N: NocFabric>(net: &mut N) -> Outcome {
    let mut deliveries = Vec::new();
    for i in 0..64u64 {
        let src = NodeId::new((i % 4) as u16, (i / 4 % 4) as u16);
        let dst = NodeId::new(3 - src.x, 3 - src.y);
        let packet = Packet::request(i + 1, src, dst, PAYLOAD_FLITS).expect("valid packet");
        net.inject(packet).expect("sparse NI queue never fills");
        net.run_for(8_192, &mut deliveries);
    }
    net.run_until_idle_into(1_000_000, &mut deliveries);
    outcome_of(net, deliveries)
}

#[test]
fn sparse_trickle_steps_at_most_one_cycle_per_flit_hop() {
    let mut net = Network::new(NetworkConfig::mesh(4, 4)).expect("valid mesh");
    let engine = drive_sparse(&mut net);
    let mut reference = ReferenceNetwork::new(NetworkConfig::mesh(4, 4)).expect("valid mesh");
    assert_eq!(
        engine,
        drive_sparse(&mut reference),
        "event-driven core and reference stepper must agree exactly"
    );
    assert_eq!(engine.stats.delivered, 64, "trickle fully delivered");
    assert_eq!(engine.stats.flit_hops, 1_600);
    assert_eq!(engine.now, 64 * 8_192);
    // At most one stepped cycle per flit-hop, which also clears the old
    // floor of covering the horizon ≥3× faster than per-cycle stepping.
    let stepped = net.cycles_stepped();
    assert!(
        stepped <= engine.stats.flit_hops,
        "{stepped} cycles stepped for {} flit-hops over {} simulated cycles",
        engine.stats.flit_hops,
        engine.now
    );
}

#[test]
fn one_admission_decision_touches_a_tenth_of_a_full_sweep_at_most() {
    const FRAME: u64 = 1 << 20;
    let sigma = TimeSlotTable::from_occupied(64, &[0]).expect("valid σ*");
    let mut ledger = DemandLedger::new(sigma.clone(), FRAME).expect("harmonic frame");
    // 10⁴ residents, Π cycling over 2¹⁴…2¹⁷, Θ = 1: many small reservations.
    let menu = [1u64 << 14, 1 << 15, 1 << 16, 1 << 17];
    let mut servers = Vec::with_capacity(10_000);
    for (id, &pi) in (0..10_000u64).zip(menu.iter().cycle()) {
        let server = PeriodicServer::new(pi, 1).expect("valid server");
        let before = ledger.events_applied();
        let outcome = ledger.admit(id, server).expect("harmonic period");
        assert!(outcome.admitted(), "resident {id} fits");
        assert_eq!(
            ledger.events_applied() - before,
            FRAME / pi,
            "admitting resident {id} applied events beyond its own delta"
        );
        servers.push(server);
    }
    let oracle = theorem1_frame(&sigma, &servers, FRAME);
    assert!(oracle.is_schedulable());
    assert_eq!(ledger.verdict(), oracle, "incremental verdict diverged");

    // The full sweep walks every resident's step events.
    let full_sweep: u64 = servers.iter().map(|s| FRAME / s.period()).sum();
    assert_eq!(full_sweep, 300_000);

    let candidate = PeriodicServer::new(1 << 14, 1).expect("valid server");
    for id in 1_000_000..1_000_064u64 {
        let before = ledger.events_applied();
        let outcome = ledger.admit(id, candidate).expect("harmonic period");
        assert!(outcome.admitted(), "candidate {id} fits");
        ledger.evict(id).expect("candidate is resident");
        assert_eq!(
            ledger.events_applied() - before,
            2 * FRAME / candidate.period(),
            "an admit/evict pair applies the candidate's delta twice, nothing else"
        );
        assert_eq!(outcome.stats.delta_events, 64);
        assert!(outcome.stats.delta_events * 10 <= full_sweep);
    }
}

#[test]
fn one_admit_or_evict_visits_o_steps_plus_log_frame_nodes() {
    const FRAME: u64 = 1 << 20;
    let sigma = TimeSlotTable::from_occupied(64, &[0]).expect("valid σ*");
    let mut ledger = DemandLedger::new(sigma, FRAME).expect("harmonic frame");
    // The 10⁴-resident ledger of the gate above.
    let menu = [1u64 << 14, 1 << 15, 1 << 16, 1 << 17];
    for (id, &pi) in (0..10_000u64).zip(menu.iter().cycle()) {
        let server = PeriodicServer::new(pi, 1).expect("valid server");
        assert!(ledger
            .admit(id, server)
            .expect("harmonic period")
            .admitted());
    }
    let candidate = PeriodicServer::new(1 << 14, 1).expect("valid server");
    // 2·(frame/Π) + 4·log₂(frame) = 128 + 80. The admit visits 13 nodes
    // in its search, which reads slot `frame` from a scalar, and 141 in its
    // staircase add, 154 in all; the evict visits 141. The add is one pass
    // over the 64 nodes of the level 2¹⁴ leaves wide, the 14 nodes from
    // leaf 0 up to it and the 63 above it.
    let bound = 2 * FRAME / candidate.period() + 4 * u64::from(FRAME.ilog2());
    assert_eq!(bound, 208);
    let before = ledger.nodes_visited();
    assert!(ledger
        .admit(1_000_000, candidate)
        .expect("harmonic period")
        .admitted());
    let admit = ledger.nodes_visited() - before;
    let before = ledger.nodes_visited();
    ledger.evict(1_000_000).expect("candidate is resident");
    let evict = ledger.nodes_visited() - before;
    println!("Π = 2^14 at frame 2^20: admit visits {admit} nodes, evict {evict}");
    assert!(admit <= bound, "admit visited {admit} nodes, bound {bound}");
    assert!(evict <= bound, "evict visited {evict} nodes, bound {bound}");
}

#[test]
fn a_period_with_an_odd_factor_visits_o_frame_over_w_plus_log_frame_nodes() {
    // Π = 3·2¹² at frame 3·2¹⁸: the staircase is constant on the nodes
    // w = 2¹² leaves wide, the largest power of two dividing Π, so an add
    // is one pass over the 192 nodes of that level, three per step, plus
    // the nodes above it and leaf 0's spine. A pass over the leaves would
    // visit about 2·frame = 1 572 864.
    const FRAME: u64 = 3 << 18;
    let sigma = TimeSlotTable::from_occupied(192, &[0]).expect("valid σ*");
    let mut ledger = DemandLedger::new(sigma, FRAME).expect("harmonic frame");
    let candidate = PeriodicServer::new(3 << 12, 1).expect("valid server");
    let w = candidate.period() & candidate.period().wrapping_neg();
    assert_eq!(w, 1 << 12);
    let bound = 2 * FRAME / w + 4 * u64::from(FRAME.ilog2());
    assert_eq!(bound, 460);
    assert!(ledger
        .admit(1, candidate)
        .expect("harmonic period")
        .admitted());
    let admit = ledger.nodes_visited();
    ledger.evict(1).expect("candidate is resident");
    let evict = ledger.nodes_visited() - admit;
    println!("Π = 3·2^12 at frame 3·2^18: admit visits {admit} nodes, evict {evict}");
    assert!(admit <= bound, "admit visited {admit} nodes, bound {bound}");
    assert!(evict <= bound, "evict visited {evict} nodes, bound {bound}");
}

/// Seeded uniform-random traffic on an 8×8 mesh at 30% injection per node
/// for 1 000 cycles, then a drain. A full NI queue drops the offer:
/// saturation is the point.
fn drive_saturated<N: NocFabric>(net: &mut N) -> Outcome {
    let nodes: Vec<NodeId> = net.mesh().iter_nodes().collect();
    let mut rng = Xoshiro256StarStar::new(0x0_c0de_5eed);
    let mut deliveries = Vec::new();
    let mut next_id = 1u64;
    for _ in 0..1_000 {
        for &src in &nodes {
            if !rng.chance(0.30) {
                continue;
            }
            let dst = loop {
                let candidate = NodeId::new(rng.range_u64(0, 8) as u16, rng.range_u64(0, 8) as u16);
                if candidate != src {
                    break candidate;
                }
            };
            let packet = Packet::request(next_id, src, dst, PAYLOAD_FLITS).expect("valid packet");
            next_id += 1;
            let _ = net.inject(packet);
        }
        net.step_into(&mut deliveries);
    }
    net.run_until_idle_into(1_000_000, &mut deliveries);
    outcome_of(net, deliveries)
}

#[test]
fn observer_adds_no_heap_allocation() {
    let mut plain = Network::new(NetworkConfig::mesh(8, 8)).expect("valid mesh");
    let (plain_outcome, plain_allocs) = counted(|| drive_saturated(&mut plain));

    let inner = Network::new(NetworkConfig::mesh(8, 8)).expect("valid mesh");
    let mut observed = ObservedFabric::new(inner, 1 << 16);
    let (observed_outcome, observed_allocs) = counted(|| drive_saturated(&mut observed));

    assert_eq!(
        observed_outcome, plain_outcome,
        "observation must not perturb the NoC"
    );
    assert!(
        observed.latency().count() > 0,
        "the observer saw deliveries"
    );
    assert_eq!(
        observed_allocs, plain_allocs,
        "an attached observer allocated on the data path"
    );
}

/// Eight VMs, each sent a C 4, D 64 job every 64 slots (half the device),
/// plus one infeasible job (C 10, D 3) every 1 000 slots, for 16 000
/// slots. Only the infeasible jobs miss, and only their deadline slots
/// open the sweep.
#[test]
fn deadline_sweep_runs_only_in_slots_where_a_job_expires() {
    const VMS: usize = 8;
    let mut hv = Hypervisor::new(HypervisorParams::new(VMS)).expect("valid hypervisor");
    let mut events = Vec::new();
    let mut misses = 0u64;
    let mut next_id = 0u64;
    for slot in 0..16_000u64 {
        if slot % 64 == 0 {
            for vm in 0..VMS {
                next_id += 1;
                hv.submit(RtJob::new(vm, next_id, slot, 4, slot + 64))
                    .expect("pool has room");
            }
        }
        if slot % 1_000 == 0 {
            next_id += 1;
            let vm = (slot / 1_000) as usize % VMS;
            hv.submit(RtJob::new(vm, next_id, slot, 10, slot + 3))
                .expect("pool has room");
        }
        hv.step_into(&mut events);
        misses += events
            .drain(..)
            .filter(|e| matches!(e, HvEvent::Missed { .. }))
            .count() as u64;
    }
    assert_eq!(misses, 16, "every infeasible job misses, no other job does");
    let sweeps = hv.deadline_sweeps();
    assert!(
        (1..=misses).contains(&sweeps),
        "{sweeps} sweeps for {misses} misses"
    );
}

/// Tasks (T 8, C 1) and (T 8 000, C 3): hyper-period 8 000, 1 001 jobs to
/// place. The slot buffer is reused across jobs, so the allocation count
/// does not grow with the job count.
#[test]
fn sigma_star_build_allocates_independently_of_its_job_count() {
    let task = |task_id, period, wcet| PredefinedTask {
        task_id,
        vm: 0,
        task: SporadicTask::implicit(period, wcet).expect("valid task"),
        response_bytes: 64,
        start_offset: 0,
    };
    let tasks = vec![task(1, 8, 1), task(2, 8_000, 3)];
    let jobs: u64 = tasks.iter().map(|t| 8_000 / t.task.period()).sum();
    assert_eq!(jobs, 1_001);
    let (pchannel, allocs) = counted(|| PChannel::build(tasks, 1 << 22).expect("σ* fits"));
    assert_eq!(pchannel.hyper_period(), 8_000);
    assert!(allocs < 32, "{allocs} allocations for {jobs} jobs");
}

/// A Fig. 7 trial's load: the 8-VM workload at 100 % utilization, every
/// task released periodically from a random phase for 16 000 slots, driven
/// into each FIFO baseline with one `advance_to` per release. A device
/// event is a job taken in or dropped, or a completion, so each offered job
/// accounts for two at most; a device stepped in every slot would count
/// 16 000, and one stepped only where a job arrives, starts or completes
/// about 8 000.
#[test]
fn fifo_baselines_step_their_device_only_where_a_job_arrives_starts_or_completes() {
    const HORIZON: u64 = 16_000;
    let workload = TrialWorkload::generate(&TrialConfig::new(8, 1.0, 2021));
    let tasks = workload.tasks();
    let mut rng = Xoshiro256StarStar::new(7);
    let mut releases: Vec<(u64, usize)> = Vec::new();
    for (idx, t) in tasks.iter().enumerate() {
        let period = t.task.period();
        let phase = rng.range_u64(0, period);
        releases.extend(
            (phase..HORIZON)
                .step_by(period as usize)
                .map(|slot| (slot, idx)),
        );
    }
    releases.sort_unstable();
    let jobs: Vec<PlatformJob> = releases
        .iter()
        .enumerate()
        .map(|(k, &(slot, idx))| {
            let t = &tasks[idx];
            let deadline = slot + t.task.deadline();
            let id = k as u64 + 1;
            PlatformJob::new(
                t.vm,
                id,
                slot,
                t.task.wcet(),
                deadline,
                t.response_bytes,
                t.is_critical(),
            )
        })
        .collect();
    let drive = |platform: &mut dyn IoPlatform| {
        for &job in &jobs {
            platform.advance_to(job.release);
            platform.submit(job);
        }
        platform.advance_to(HORIZON);
    };
    let (mut legacy, mut rtxen, mut bv) = (
        LegacyPlatform::new(8, 1),
        RtXenPlatform::new(8, 1),
        BlueVisorPlatform::new(8, 1),
    );
    drive(&mut legacy);
    drive(&mut rtxen);
    drive(&mut bv);
    let offered = jobs.len() as u64;
    for (name, steps) in [
        ("BS|Legacy", legacy.device_steps()),
        ("BS|RT-XEN", rtxen.device_steps()),
        ("BS|BV", bv.device_steps()),
    ] {
        println!("{name}: {steps} device events for {offered} offered jobs");
        assert!(
            steps <= 2 * offered,
            "{name}: {steps} device events for {offered} offered jobs"
        );
    }
}

/// An I/O-GUARD-40 trial: the 4-VM workload at 40 % utilization with 40 %
/// of its tasks pre-loaded into σ\* (start offsets and slack reclamation as
/// the Fig. 7 sweep sets them), the others released periodically from a
/// random phase for 16 000 slots, driven with one `advance_to` per release.
/// A pass walks one run over σ\*, which ends at a release (or the horizon),
/// where its job completes or at its job's deadline slot; each offered job
/// completes or reaches its deadline once. A pass per σ\*-occupied slot
/// and per free run would take about 7 800, stepping every slot 16 000.
#[test]
fn hypervisor_passes_each_run_once() {
    const HORIZON: u64 = 16_000;
    let workload = TrialWorkload::generate(&TrialConfig::new(4, 0.4, 2021));
    let tasks = workload.tasks();
    let (preload, _) = workload.split_preload(0.4);
    let preloaded: Vec<bool> = tasks
        .iter()
        .map(|t| preload.iter().any(|p| p.name == t.name))
        .collect();
    let predefined: Vec<PredefinedTask> = tasks
        .iter()
        .enumerate()
        .filter(|&(idx, _)| preloaded[idx])
        .map(|(idx, t)| PredefinedTask {
            task_id: idx as u64 + 1,
            vm: t.vm,
            task: t.task,
            response_bytes: t.response_bytes,
            start_offset: (idx as u64).wrapping_mul(0x9E37_79B9) % t.task.period(),
        })
        .collect();
    let reclaim = PchannelReclaim {
        seed: 7,
        min_fraction: 0.9,
    };
    let mut platform =
        IoGuardPlatform::with_reclaim(4, predefined, GschedPolicy::GlobalEdf, reclaim)
            .expect("σ* fits");
    let mut rng = Xoshiro256StarStar::new(7);
    let mut releases: Vec<(u64, usize)> = Vec::new();
    for (idx, t) in tasks.iter().enumerate() {
        let period = t.task.period();
        let phase = rng.range_u64(0, period);
        if !preloaded[idx] {
            releases.extend(
                (phase..HORIZON)
                    .step_by(period as usize)
                    .map(|slot| (slot, idx)),
            );
        }
    }
    releases.sort_unstable();
    for (k, &(slot, idx)) in releases.iter().enumerate() {
        let t = &tasks[idx];
        platform.advance_to(slot);
        platform.submit(PlatformJob::new(
            t.vm,
            k as u64 + 1,
            slot,
            t.task.wcet(),
            slot + t.task.deadline(),
            t.response_bytes,
            t.is_critical(),
        ));
    }
    platform.advance_to(HORIZON);
    let hv = platform.hypervisor();
    let occupied = (0..HORIZON)
        .filter(|&t| hv.pchannel().fire(t).is_some())
        .count() as u64;
    let offered = releases.len() as u64;
    let bound = 2 * offered + 1;
    let passes = hv.slot_passes();
    println!(
        "{passes} passes over {HORIZON} slots ({occupied} σ*-occupied) for {offered} offered \
         jobs, {} missed; bound {bound}",
        hv.metrics().missed
    );
    assert!(
        passes <= bound,
        "{passes} passes for {offered} offered jobs"
    );
}

/// Shards of the serve cluster the two serve gates drive.
const SERVE_SHARDS: usize = 4;

/// 64 clients connected across four shards, of which client 63 alone
/// sends one request every 16 slots for 8 000 slots. Returns the cluster
/// and the requests it accepted.
fn one_sender_among_64_clients() -> (ServeCluster, u64) {
    const CLIENTS: u32 = 64;
    const SENDER: u32 = CLIENTS - 1;
    let mut cluster = ServeCluster::new(ServeConfig::new(SERVE_SHARDS, 16)).expect("valid config");
    let server = PeriodicServer::new(64, 1).expect("valid server");
    for client in 0..CLIENTS {
        let resp = cluster.connect(client, server, &TaskSet::new());
        assert!(
            matches!(resp, Response::Connected { .. }),
            "client {client}: {resp}"
        );
    }
    let mut accepted = 0u64;
    let mut frames: Vec<(u32, Bytes)> = Vec::new();
    for slot in 0..8_000u64 {
        frames.clear();
        if slot % 16 == 0 {
            let request = Request {
                client: SENDER,
                task_id: slot + 1,
                wcet: 1,
                deadline_rel: 16,
                critical: false,
                payload: Bytes::new(),
            };
            let frame = wire::encode_request_frame(&request).expect("valid request encodes");
            frames.push((SENDER, frame));
        }
        let mut responses = cluster.ingest(&frames, 1);
        responses.extend(cluster.step());
        accepted += responses
            .iter()
            .filter(|r| matches!(r, Response::Accepted { .. }))
            .count() as u64;
    }
    assert_eq!(accepted, 500, "every request is accepted");
    (cluster, accepted)
}

/// Each slot visits the backlogs that hold work, so each request of
/// [`one_sender_among_64_clients`] costs one visit; walking every
/// connected client's backlog would take 64 × 8 000 = 512 000.
#[test]
fn serve_step_visits_only_the_backlogs_that_hold_work() {
    let (cluster, accepted) = one_sender_among_64_clients();
    let visits = cluster.backlog_visits();
    assert!(
        visits <= accepted,
        "{visits} backlog visits for {accepted} requests from one of 64 connected clients"
    );
}

/// Each slot steps the shards whose hypervisor holds work. In
/// [`one_sender_among_64_clients`] a request costs its shard one pass to
/// catch up over the slots it sat out idle and one for the slot its job
/// runs in, and the three shards no request reaches are never stepped;
/// stepping every shard every slot would take 4 × 8 000 = 32 000.
#[test]
fn serve_steps_only_the_shards_that_hold_work() {
    let (cluster, accepted) = one_sender_among_64_clients();
    let bound = 2 * accepted + SERVE_SHARDS as u64;
    let passes = cluster.slot_passes();
    println!(
        "{passes} hypervisor passes over {} slots on {SERVE_SHARDS} shards for {accepted} \
         accepted requests; bound {bound}",
        cluster.now()
    );
    assert!(
        passes <= bound,
        "{passes} passes for {accepted} accepted requests"
    );
}

/// One response of every kind, every reject reason and both `Missed`
/// classes.
fn every_response_kind() -> Vec<Response> {
    let mut all = vec![
        Response::Connected {
            client: 0,
            shard: 3,
        },
        Response::Disconnected { client: u32::MAX },
        Response::Accepted {
            client: 7,
            task_id: u64::MAX,
        },
        Response::Completed {
            client: 7,
            task_id: 42,
            latency: 17,
        },
        Response::Missed {
            client: 1,
            task_id: 9,
            critical: true,
        },
        Response::Missed {
            client: 1,
            task_id: 10,
            critical: false,
        },
        Response::Throttled {
            client: 2,
            task_id: 11,
            until: 1 << 40,
        },
        Response::Shed {
            client: 2,
            task_id: 0,
        },
        Response::ModeChange {
            client: 4,
            shard: 1,
            mode: 2,
        },
    ];
    for reason in [
        RejectReason::Malformed,
        RejectReason::NotSchedulable,
        RejectReason::NoCapacity,
        RejectReason::PoolFull,
        RejectReason::Degraded,
        RejectReason::UnknownClient,
        RejectReason::AlreadyConnected,
        RejectReason::NotConnected,
    ] {
        all.push(Response::ConnectRejected { client: 5, reason });
        all.push(Response::Rejected {
            client: 5,
            task_id: 12,
            reason,
        });
    }
    all
}

/// The replay folds every response it sees into a `ResponseFold`, whose
/// digest covers each response's rendering: the rendering is written
/// into the digest state, never into a `String` (2.5 allocations per
/// response when it was).
#[test]
fn folding_a_response_allocates_nothing() {
    let responses = every_response_kind();
    let kinds: std::collections::BTreeSet<u8> =
        responses.iter().map(Response::kind_ordinal).collect();
    assert_eq!(kinds.len(), Response::KINDS, "every kind is folded");
    let mut fold = ResponseFold::new();
    let (_, allocs) = counted(|| {
        for resp in &responses {
            fold.push(resp);
        }
    });
    assert_eq!(fold.total(), responses.len() as u64);
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations to fold {} responses",
        responses.len()
    );
}

/// The replay encodes each request into a fresh per-client buffer: the
/// frame's header and payload are reserved at once, not grown in four
/// steps.
#[test]
fn encoding_a_request_allocates_once_per_frame() {
    const FRAMES: u64 = 64;
    let requests: Vec<Request> = (1..=FRAMES)
        .map(|task_id| Request {
            client: 3,
            task_id,
            wcet: 2,
            deadline_rel: 40,
            critical: task_id % 3 == 0,
            payload: Bytes::copy_from_slice(&task_id.to_le_bytes()),
        })
        .collect();
    let mut buffers: Vec<BytesMut> = Vec::with_capacity(requests.len());
    let (_, allocs) = counted(|| {
        for request in &requests {
            let mut buffer = BytesMut::new();
            wire::encode_request(request, &mut buffer).expect("valid request encodes");
            buffers.push(buffer);
        }
    });
    for buffer in &buffers {
        assert_eq!(buffer.len(), wire::REQ_HEADER_LEN + 8);
    }
    assert_eq!(allocs, FRAMES, "{allocs} allocations for {FRAMES} frames");
}
