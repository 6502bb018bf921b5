//! Serving back-pressure and graceful-degradation integration tests
//! (ISSUE 10 satellite): a babbling client driven by an
//! `ioguard-faults` adversary plan floods the front-end and is answered
//! with typed `Throttled`/`Shed` verdicts while the well-behaved
//! clients on the same shard keep a **zero** deadline-miss count; and
//! staged mode changes (`Normal → Degraded → PchannelOnly`) surface as
//! typed `ModeChange` responses exactly once per connected client per
//! transition. A request queued when its client disconnects is answered,
//! and a proptest over random connect/disconnect/ingest/step sequences
//! pins that every request gets exactly one admission verdict by the next
//! slot, in ascending client order. The `ReplayDriver` tests at the end
//! pin that a replay answers every accepted request, when it ends, when it
//! snapshots and that its per-class p99 latency stays within the deadline
//! bound.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use ioguard_faults::FaultPlan;
use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy, HvMode};
use ioguard_sched::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_serve::replay::{ReplayConfig, ReplayDriver};
use ioguard_serve::server::{ServeCluster, ServeConfig};
use ioguard_serve::wire::{self, RejectReason, Request, Response};
use proptest::prelude::*;

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
fn a_request_queued_at_disconnect_is_answered_not_connected() {
    let mut cluster = ServeCluster::new(serve_config()).expect("cluster builds");
    let connect = |cluster: &mut ServeCluster| {
        let resp = cluster.connect(0, server(), &tasks());
        assert!(matches!(resp, Response::Connected { .. }), "{resp}");
    };
    connect(&mut cluster);
    assert_eq!(cluster.ingest(&[(0, frame(0, 7, 1, 64, true))], 1), []);
    assert_eq!(cluster.disconnect(0), Response::Disconnected { client: 0 });
    connect(&mut cluster);
    assert_eq!(cluster.ingest(&[(0, frame(0, 8, 1, 64, true))], 1), []);
    let responses = cluster.step();
    // The owed answer comes ahead of the slot's submissions.
    assert_eq!(
        responses.first(),
        Some(&Response::Rejected {
            client: 0,
            task_id: 7,
            reason: RejectReason::NotConnected,
        }),
        "{responses:?}"
    );
    let accepted = Response::Accepted {
        client: 0,
        task_id: 8,
    };
    assert_eq!(
        responses.iter().filter(|r| **r == accepted).count(),
        1,
        "the reconnected client's request is submitted once: {responses:?}"
    );
}

/// One call on a `ServeCluster::new(2, 2)` cluster in the ready-list
/// proptest.
#[derive(Debug, Clone)]
enum Op {
    Connect(u32),
    Disconnect(u32),
    /// One frame from `origin` carrying `requests` requests.
    Ingest {
        origin: u32,
        requests: u64,
    },
    Step,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..4u32).prop_map(Op::Connect),
        (0..4u32).prop_map(Op::Disconnect),
        (0..4u32, 1..=3u64).prop_map(|(origin, requests)| Op::Ingest { origin, requests }),
        Just(Op::Step),
    ]
}

/// The admission verdict a response gives `(client, task_id)`, if any.
fn verdict(resp: &Response) -> Option<(u32, u64)> {
    match *resp {
        Response::Accepted { client, task_id }
        | Response::Throttled {
            client, task_id, ..
        }
        | Response::Shed { client, task_id }
        | Response::Rejected {
            client, task_id, ..
        } => Some((client, task_id)),
        _ => None,
    }
}

/// Adds each verdict in `responses` to its request's count.
fn tally(verdicts: &mut BTreeMap<(u32, u64), u32>, responses: &[Response]) {
    for key in responses.iter().filter_map(verdict) {
        *verdicts.entry(key).or_default() += 1;
    }
}

proptest! {
    /// Every request of every decodable frame gets exactly one verdict
    /// (`Accepted`, `Throttled`, `Shed` or `Rejected`) from its own ingest
    /// call or the next step, whatever connects and disconnects in
    /// between; and each step accepts in non-decreasing client id.
    #[test]
    fn every_request_is_answered_once_by_the_next_step(
        mut ops in proptest::collection::vec(arb_op(), 0..64),
    ) {
        ops.push(Op::Step);
        let mut cluster = ServeCluster::new(ServeConfig::new(2, 2)).expect("cluster builds");
        // Verdicts per request, and the requests sent since the last step.
        let mut verdicts: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        let mut unstepped: Vec<(u32, u64)> = Vec::new();
        let mut next_task = 1u64;
        for op in ops {
            match op {
                Op::Connect(client) => {
                    let _ = cluster.connect(client, server(), &tasks());
                }
                Op::Disconnect(client) => {
                    let _ = cluster.disconnect(client);
                }
                Op::Ingest { origin, requests } => {
                    let mut buf = BytesMut::new();
                    for _ in 0..requests {
                        let request = Request {
                            client: origin,
                            task_id: next_task,
                            wcet: 1,
                            deadline_rel: 64,
                            critical: next_task.is_multiple_of(2),
                            payload: Bytes::new(),
                        };
                        wire::encode_request(&request, &mut buf).expect("valid request encodes");
                        unstepped.push((origin, next_task));
                        next_task += 1;
                    }
                    tally(&mut verdicts, &cluster.ingest(&[(origin, buf.freeze())], 1));
                }
                Op::Step => {
                    let responses = cluster.step();
                    tally(&mut verdicts, &responses);
                    for key in unstepped.drain(..) {
                        prop_assert_eq!(
                            verdicts.get(&key).copied(),
                            Some(1),
                            "request {:?} by the next step: {:?}",
                            key,
                            responses
                        );
                    }
                    let accepted: Vec<u32> = responses
                        .iter()
                        .filter_map(|r| match *r {
                            Response::Accepted { client, .. } => Some(client),
                            _ => None,
                        })
                        .collect();
                    prop_assert!(
                        accepted.windows(2).all(|w| w[0] <= w[1]),
                        "accepted out of client order: {:?}",
                        accepted
                    );
                }
            }
        }
        prop_assert!(unstepped.is_empty());
        prop_assert_eq!(verdicts.len() as u64, next_task - 1, "a verdict for an unknown request");
        prop_assert!(
            verdicts.values().all(|&n| n == 1),
            "a request answered twice: {:?}",
            verdicts
        );
    }
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
