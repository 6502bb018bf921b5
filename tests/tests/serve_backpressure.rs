//! Serving back-pressure and graceful-degradation integration tests
//! (ISSUE 10 satellite): a babbling client driven by an
//! `ioguard-faults` adversary plan floods the front-end and is answered
//! with typed `Throttled`/`Shed` verdicts while the well-behaved
//! clients on the same shard keep a **zero** deadline-miss count; and
//! staged mode changes (`Normal → Degraded → PchannelOnly`) surface as
//! typed `ModeChange` responses exactly once per connected client per
//! transition. The `ReplayDriver` tests at the end pin that a replay
//! answers every accepted request, when it ends, when it snapshots and
//! that its per-class p99 latency stays within the deadline bound.

use bytes::{Bytes, BytesMut};
use ioguard_faults::FaultPlan;
use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy, HvMode};
use ioguard_sched::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_serve::replay::{ReplayConfig, ReplayDriver};
use ioguard_serve::server::{ServeCluster, ServeConfig};
use ioguard_serve::wire::{self, Request, Response};

const WELL_BEHAVED: [u32; 2] = [0, 1];
const BABBLER: u32 = 2;

fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::new(1, 4);
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
        healthy_slots_to_recover: 1_000_000,
    };
    config.pool_capacity = 4;
    config.backlog_capacity = 4;
    config.max_clients = 16;
    config.seed = 0xBABB1E;
    config
}

fn server() -> PeriodicServer {
    PeriodicServer::new(256, 16).expect("valid server")
}

fn tasks() -> TaskSet {
    let mut set = TaskSet::new();
    set.push(SporadicTask::new(2048, 2, 1024).expect("valid task"));
    set
}

fn frame(client: u32, task_id: u64, wcet: u64, deadline_rel: u64, critical: bool) -> Bytes {
    let request = Request {
        client,
        task_id,
        wcet,
        deadline_rel,
        critical,
        payload: Bytes::copy_from_slice(&task_id.to_le_bytes()),
    };
    wire::encode_request_frame(&request).expect("valid request encodes")
}

/// One frame carrying `flood` best-effort requests from the babbler —
/// the adversary plan decides the intensity.
fn babble_frame(slot: u64, flood: u64) -> Bytes {
    let mut wire_buf = BytesMut::new();
    for burst in 0..flood {
        let request = Request {
            client: BABBLER,
            task_id: slot * 1000 + burst,
            wcet: 1,
            deadline_rel: 8,
            critical: false,
            payload: Bytes::copy_from_slice(&burst.to_le_bytes()),
        };
        wire::encode_request(&request, &mut wire_buf).expect("valid request encodes");
    }
    wire_buf.freeze()
}

#[test]
fn babbler_is_throttled_and_shed_without_hurting_the_well_behaved() {
    let plan = FaultPlan::new(0xBABB1E).with_adversary(BABBLER as usize, 6);
    let flood = plan.adversary_flood;
    let mut cluster = ServeCluster::new(serve_config()).expect("cluster builds");

    for client in WELL_BEHAVED {
        let resp = cluster.connect(client, server(), &tasks());
        assert!(
            matches!(resp, Response::Connected { .. }),
            "well-behaved client {client} must connect: {resp}"
        );
    }
    let resp = cluster.connect(BABBLER, server(), &tasks());
    assert!(
        matches!(resp, Response::Connected { .. }),
        "babbler connects: {resp}"
    );

    let mut babbler_throttled = 0u64;
    let mut babbler_shed = 0u64;
    let mut well_behaved_sent = 0u64;
    let mut well_behaved_completed = 0u64;

    for slot in 0..400u64 {
        let mut frames: Vec<(u32, Bytes)> = Vec::new();
        // The well-behaved cadence: one comfortable critical request
        // per client every 8 slots.
        if slot % 8 == 4 {
            for client in WELL_BEHAVED {
                frames.push((
                    client,
                    frame(client, slot * 10 + u64::from(client), 1, 64, true),
                ));
                well_behaved_sent += 1;
            }
        }
        // The babble storm, intensity from the adversary plan.
        if (50..120).contains(&slot) {
            frames.push((BABBLER, babble_frame(slot, flood)));
        }
        let mut responses = cluster.ingest(&frames, 1);
        responses.extend(cluster.step());
        for resp in &responses {
            match *resp {
                Response::Throttled { client, .. } if client == BABBLER => babbler_throttled += 1,
                Response::Shed { client, .. } if client == BABBLER => babbler_shed += 1,
                Response::Completed { client, .. } if WELL_BEHAVED.contains(&client) => {
                    well_behaved_completed += 1;
                }
                Response::Missed { client, .. } => {
                    assert_eq!(client, BABBLER, "only the babbler may miss deadlines");
                }
                _ => {}
            }
        }
    }

    assert!(babbler_throttled > 0, "flood must trip the admission guard");
    assert!(
        babbler_shed > 0,
        "flood must overflow the bounded backlog and shed"
    );
    assert_eq!(
        well_behaved_completed, well_behaved_sent,
        "every well-behaved request must complete"
    );
    for client in WELL_BEHAVED {
        let counters = cluster
            .client_counters(client)
            .expect("well-behaved client has counters");
        assert_eq!(counters.missed, 0, "client {client} deadline-miss count");
        assert_eq!(
            counters.critical_missed, 0,
            "client {client} critical misses"
        );
        assert_eq!(
            counters.throttled_submissions, 0,
            "client {client} throttles"
        );
    }
    let babbler_counters = cluster.client_counters(BABBLER).expect("babbler counters");
    assert!(babbler_counters.throttled_submissions > 0);
    assert!(babbler_counters.dropped_best_effort > 0);
}

#[test]
fn mode_changes_surface_exactly_once_per_client_per_transition() {
    let mut cluster = ServeCluster::new(serve_config()).expect("cluster builds");
    for client in [0u32, 1, 2] {
        let resp = cluster.connect(client, server(), &tasks());
        assert!(matches!(resp, Response::Connected { .. }), "{resp}");
    }
    // Settle one slot so the transition responses are isolated.
    let _ = cluster.step();

    let mut seen: Vec<(u32, u32)> = Vec::new();
    for (expected_mode, expected_ordinal) in
        [(HvMode::Degraded, 1u32), (HvMode::PchannelOnly, 2u32)]
    {
        let responses = cluster.degrade(0);
        assert_eq!(cluster.mode(0), Some(expected_mode));
        let mut this_transition: Vec<u32> = Vec::new();
        for resp in &responses {
            if let Response::ModeChange { client, mode, .. } = *resp {
                assert_eq!(mode, expected_ordinal, "wrong mode ordinal in {resp}");
                this_transition.push(client);
                seen.push((client, mode));
            }
        }
        this_transition.sort_unstable();
        assert_eq!(
            this_transition,
            vec![0, 1, 2],
            "each connected client hears the transition exactly once"
        );
    }
    // Two transitions × three clients, no duplicates.
    assert_eq!(seen.len(), 6);
    let mut deduped = seen.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), 6, "duplicate ModeChange responses: {seen:?}");

    // While degraded, a critical submission is refused with a typed
    // verdict and a best-effort one is shed.
    let responses = cluster.ingest(
        &[
            (0, frame(0, 9001, 1, 64, true)),
            (1, frame(1, 9002, 1, 64, false)),
        ],
        1,
    );
    let step_responses = cluster.step();
    let all: Vec<&Response> = responses.iter().chain(step_responses.iter()).collect();
    assert!(
        all.iter().any(|r| matches!(
            r,
            Response::Rejected {
                client: 0,
                reason: wire::RejectReason::Degraded,
                ..
            }
        )),
        "critical request in PchannelOnly must be rejected as degraded: {all:?}"
    );
    assert!(
        all.iter()
            .any(|r| matches!(r, Response::Shed { client: 1, .. })),
        "best-effort request in PchannelOnly must be shed: {all:?}"
    );
}

/// Runs the submit-time-sweep scenario on a one-shard cluster and returns
/// every response: best-effort tasks 1 and 2 (wcet 2, deadline 2) and
/// task 4 (wcet 2, deadline 16) at slot 0, best-effort task 3 (wcet 1,
/// deadline 8) at slot 2. Task 2 expires while task 1 runs; the deadline
/// sweep that finds it is the one task 3's submission triggers.
fn sweep_scenario(trace_capacity: usize) -> Vec<Response> {
    let mut config = ServeConfig::new(1, 4);
    config.trace_capacity = trace_capacity;
    let mut cluster = ServeCluster::new(config).expect("cluster builds");
    let mut responses = vec![cluster.connect(0, server(), &tasks())];
    for slot in 0..20u64 {
        let frames: Vec<(u32, Bytes)> = match slot {
            0 => vec![
                (0, frame(0, 1, 2, 2, false)),
                (0, frame(0, 2, 2, 2, false)),
                (0, frame(0, 4, 2, 16, false)),
            ],
            2 => vec![(0, frame(0, 3, 1, 8, false))],
            _ => Vec::new(),
        };
        responses.extend(cluster.ingest(&frames, 1));
        responses.extend(cluster.step());
    }
    responses
}

#[test]
fn every_accepted_request_gets_exactly_one_final_answer() {
    let responses = sweep_scenario(ServeConfig::new(1, 4).trace_capacity);
    let mut accepted: Vec<u64> = Vec::new();
    let mut answers: Vec<u64> = Vec::new();
    for resp in &responses {
        match *resp {
            Response::Accepted { task_id, .. } => accepted.push(task_id),
            Response::Completed { task_id, .. }
            | Response::Missed { task_id, .. }
            | Response::Shed { task_id, .. } => answers.push(task_id),
            _ => {}
        }
    }
    accepted.sort_unstable();
    answers.sort_unstable();
    assert_eq!(accepted, vec![1, 2, 3, 4], "{responses:?}");
    assert_eq!(answers, accepted, "one final answer each: {responses:?}");
    assert!(
        responses.contains(&Response::Missed {
            client: 0,
            task_id: 2,
            critical: false
        }),
        "the miss found by the submit-time sweep is answered: {responses:?}"
    );
}

#[test]
fn degradation_sheds_each_best_effort_request_by_id() {
    let mut cluster = ServeCluster::new(ServeConfig::new(1, 4)).expect("cluster builds");
    let mut responses = vec![cluster.connect(0, server(), &tasks())];
    let frames = [
        (0, frame(0, 11, 4, 64, false)),
        (0, frame(0, 12, 4, 64, false)),
        (0, frame(0, 13, 4, 64, true)),
    ];
    responses.extend(cluster.ingest(&frames, 1));
    responses.extend(cluster.step());
    responses.extend(cluster.degrade(0));
    for _ in 0..40 {
        responses.extend(cluster.step());
    }
    let shed: Vec<u64> = responses
        .iter()
        .filter_map(|r| match *r {
            Response::Shed { task_id, .. } => Some(task_id),
            _ => None,
        })
        .collect();
    assert_eq!(shed, vec![11, 12], "one Shed per request: {responses:?}");
    assert!(
        responses
            .iter()
            .any(|r| matches!(r, Response::Completed { task_id: 13, .. })),
        "the critical request still completes: {responses:?}"
    );
}

#[test]
fn trace_ring_size_never_changes_client_responses() {
    assert_eq!(sweep_scenario(1), sweep_scenario(1 << 16));
}

#[test]
fn replay_leaves_no_accepted_request_unanswered() {
    let report = ReplayDriver::new(ReplayConfig::new(5_000))
        .run()
        .expect("replay config is valid");
    assert_eq!(report.requests_sent, 5_000);
    assert_eq!(report.unanswered, 0, "{report:?}");
}

#[test]
fn replay_ends_drain_slots_after_the_generator_stops() {
    let drained = ReplayConfig::new(5_000);
    let mut undrained = drained;
    undrained.drain_slots = 0;
    let with_drain = ReplayDriver::new(drained)
        .run()
        .expect("replay config is valid");
    let without_drain = ReplayDriver::new(undrained)
        .run()
        .expect("replay config is valid");
    // The generator never reads `drain_slots`, so it stops at the same
    // slot in both runs; only the drain tail differs.
    assert_eq!(with_drain.requests_sent, without_drain.requests_sent);
    assert_eq!(
        with_drain.slots,
        without_drain.slots + drained.drain_slots,
        "the run ends exactly drain_slots after the generator stops"
    );
}

#[test]
fn snapshots_fire_on_every_multiple_before_the_last_slot() {
    // Returns the run's last slot and every slot the hook saw.
    let replay = |snapshot_every: u64| {
        let mut config = ReplayConfig::new(5_000);
        config.snapshot_every = snapshot_every;
        let mut seen: Vec<u64> = Vec::new();
        let report = ReplayDriver::new(config)
            .run_with(|slot, _page, json| {
                assert!(
                    json.contains(&format!("\"slot\": {slot},")),
                    "snapshot at slot {slot} names another slot: {json}"
                );
                seen.push(slot);
            })
            .expect("replay config is valid");
        assert_eq!(report.snapshots, seen.len() as u64);
        (report.slots - 1, seen)
    };
    let (last, seen) = replay(1000);
    let expected: Vec<u64> = (1..)
        .map(|k| k * 1000)
        .take_while(|&slot| slot < last)
        .collect();
    assert!(!expected.is_empty(), "the run is shorter than one cadence");
    assert_eq!(seen, expected);
    // A cadence landing on the last slot never fires: the run ends after
    // that slot's step.
    assert_eq!(replay(last), (last, Vec::new()));
}

#[test]
fn replay_latency_stays_within_the_deadline_bound() {
    let report = ReplayDriver::new(ReplayConfig::new(5_000))
        .run()
        .expect("replay config is valid");
    for (class, hist, bound) in [
        (
            "critical",
            &report.e2e_critical,
            report.deadline_bound_critical,
        ),
        (
            "best-effort",
            &report.e2e_best_effort,
            report.deadline_bound_best_effort,
        ),
    ] {
        let p99 = hist
            .percentile(0.99)
            .unwrap_or_else(|| panic!("no {class} request completed"));
        assert!(
            p99 <= bound,
            "{class} p99 {p99} slots exceeds the {bound}-slot deadline bound"
        );
    }
}
