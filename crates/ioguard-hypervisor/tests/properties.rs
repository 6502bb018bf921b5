//! Property-based tests for the hypervisor device model.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{Hypervisor, HypervisorParams, PchannelReclaim, RtJob};
use ioguard_hypervisor::pchannel::{PChannel, PredefinedTask};
use ioguard_hypervisor::pool::{IoPool, PoolEntry};
use ioguard_hypervisor::{HvEvent, HvMetrics, RefuseReason, SubmitError};
use ioguard_sched::task::{PeriodicServer, SporadicTask};

fn arb_predefined_set() -> impl Strategy<Value = Vec<PredefinedTask>> {
    prop::collection::vec(
        (2u64..=12, 1u64..=3, 0u64..12).prop_map(|(period, wcet, offset)| {
            let wcet = wcet.min(period);
            PredefinedTask {
                task_id: period * 1000 + wcet * 100 + offset,
                vm: 0,
                task: SporadicTask::implicit(period, wcet).expect("valid"),
                response_bytes: 16,
                start_offset: offset,
            }
        }),
        0..=3,
    )
}

/// Checks that every `Missed` event among `fresh`, taken from the
/// hypervisor at slot `now`, reports its job in the job's deadline slot.
/// Submissions always carry a deadline after their release, so a miss
/// taken later than that slot was swept late.
fn misses_on_deadline(fresh: &[HvEvent], now: u64) -> Result<(), TestCaseError> {
    for event in fresh {
        if let HvEvent::Missed { job, .. } = event {
            prop_assert_eq!(job.deadline, now, "task {} missed late", job.task_id);
        }
    }
    Ok(())
}

/// Advances `hv` to slot `to` and checks it against a clone that calls
/// `step` until `to`: the whole hypervisor must be equal, and advancing
/// must make no more slot passes than stepping.
fn advance_matches_stepping(hv: &mut Hypervisor, to: u64) -> Result<(), TestCaseError> {
    let mut stepped = hv.clone();
    while stepped.now() < to {
        stepped.step();
    }
    let before = hv.slot_passes();
    hv.advance_to(to);
    prop_assert_eq!(&*hv, &stepped, "advance_to({}) diverged from stepping", to);
    prop_assert!(
        hv.slot_passes() - before <= stepped.slot_passes() - before,
        "advance_to({}) made more passes than stepping",
        to
    );
    Ok(())
}

/// Long-run cross-check of the incremental shadow register against a naive
/// linear-scan model: 10 000 randomized insert/execute/expire operations,
/// verifying `shadow()`/`shadow_key()` equal the scan minimum (ties by task
/// id) after every single operation.
#[test]
fn pool_shadow_matches_naive_model_over_10k_ops() {
    let mut pool = IoPool::new(32);
    let mut model: Vec<(u64, u64, u64)> = Vec::new(); // (deadline, task_id, remaining)
    let mut state = 0x5AD0_11E6_u64;
    let mut rand = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut next_id = 0u64;
    let mut now = 0u64;
    for step in 0..10_000u64 {
        match rand(8) {
            0..=3 => {
                next_id += 1;
                let deadline = now + 1 + rand(200);
                let remaining = 1 + rand(4);
                let admitted = pool
                    .insert(PoolEntry {
                        task_id: next_id,
                        deadline,
                        remaining,
                        enqueued_at: now,
                        first_dispatch: u64::MAX,
                        response_bytes: 0,
                        critical: true,
                    })
                    .is_ok();
                assert_eq!(admitted, model.len() < 32, "step {step}: admission");
                if admitted {
                    model.push((deadline, next_id, remaining));
                }
            }
            4..=5 => {
                if !pool.is_empty() {
                    let completed = pool.execute_slots(1).expect("pool checked non-empty");
                    let (i, _) = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(d, id, _))| (d, id))
                        .expect("model non-empty");
                    model[i].2 -= 1;
                    assert_eq!(completed.is_some(), model[i].2 == 0, "step {step}");
                    if model[i].2 == 0 {
                        let (d, id, _) = model.swap_remove(i);
                        let done = completed.expect("completed");
                        assert_eq!((done.deadline, done.task_id), (d, id));
                    }
                }
            }
            _ => {
                now += rand(40);
                let missed = pool.expire(now);
                let mut expected: Vec<(u64, u64)> = model
                    .iter()
                    .filter(|&&(d, _, _)| d <= now)
                    .map(|&(d, id, _)| (d, id))
                    .collect();
                expected.sort_unstable();
                let got: Vec<(u64, u64)> = missed.iter().map(|e| (e.deadline, e.task_id)).collect();
                assert_eq!(got, expected, "step {step}: expiry set and order");
                model.retain(|&(d, _, _)| d > now);
            }
        }
        let naive = model.iter().map(|&(d, id, _)| (d, id)).min();
        assert_eq!(pool.shadow_key(), naive, "step {step}");
        assert_eq!(
            pool.shadow().map(|e| (e.deadline, e.task_id)),
            naive,
            "step {step}"
        );
        assert_eq!(pool.len(), model.len(), "step {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// σ* invariants for any feasible pre-defined set: per hyper-period,
    /// each task owns exactly C·(H/T) slots, exactly one completing slot
    /// per job, and the free mask matches the owner map.
    #[test]
    fn pchannel_table_invariants(tasks in arb_predefined_set()) {
        let Ok(pch) = PChannel::build(tasks.clone(), 4096) else {
            return Ok(()); // infeasible set: construction correctly refuses
        };
        let h = pch.hyper_period();
        for (idx, t) in pch.tasks().iter().enumerate() {
            let jobs = h / t.task.period();
            let owned = (0..h)
                .filter(|&s| pch.fire(s).map(|o| o.task_index) == Some(idx))
                .count() as u64;
            prop_assert_eq!(owned, jobs * t.task.wcet(), "task {} slot count", idx);
            let completions = (0..h)
                .filter(|&s| {
                    pch.fire(s)
                        .map(|o| o.task_index == idx && o.completes_job)
                        .unwrap_or(false)
                })
                .count() as u64;
            prop_assert_eq!(completions, jobs, "task {} one completion per job", idx);
        }
        for s in 0..h {
            prop_assert_eq!(pch.table().is_free(s), pch.fire(s).is_none());
        }
    }

    /// Every pre-defined job's slots land inside its own release window.
    #[test]
    fn pchannel_slots_respect_windows(tasks in arb_predefined_set()) {
        let Ok(pch) = PChannel::build(tasks, 4096) else { return Ok(()) };
        let h = pch.hyper_period();
        for (idx, t) in pch.tasks().iter().enumerate() {
            let period = t.task.period();
            let offset = t.start_offset % period;
            // Walk two hyper-periods and check each owned slot falls in
            // some window [offset + kT, offset + kT + D) modulo wrap.
            for s in 0..2 * h {
                if pch.fire(s).map(|o| o.task_index) == Some(idx) {
                    let rel = (s + period - (offset % period)) % period;
                    prop_assert!(
                        rel < t.task.deadline(),
                        "task {} slot {} at window offset {} >= D {}",
                        idx,
                        s,
                        rel,
                        t.task.deadline()
                    );
                }
            }
        }
    }

    /// Pool EDF invariant: the incrementally maintained shadow register
    /// always holds the minimum `(deadline, task_id)` among buffered
    /// entries, under arbitrary insert/execute/expire interleavings.
    #[test]
    fn pool_shadow_is_always_min(
        ops in prop::collection::vec((0u8..6, 1u64..100, 1u64..4), 1..60),
    ) {
        let mut pool = IoPool::new(16);
        let mut next_id = 0u64;
        let mut now = 0u64;
        for (op, deadline, wcet) in ops {
            match op {
                0..=2 => {
                    next_id += 1;
                    let _ = pool.insert(PoolEntry {
                        task_id: next_id,
                        deadline,
                        remaining: wcet,
                        enqueued_at: 0,
                        first_dispatch: u64::MAX,
                        response_bytes: 0,
                        critical: true,
                    });
                }
                3..=4 => {
                    if !pool.is_empty() {
                        let _ = pool.execute_slots(1);
                    }
                }
                _ => {
                    // Advance the clock and expire: removals must come back
                    // earliest-deadline-first and leave the register valid.
                    now = now.max(deadline / 2);
                    let missed = pool.expire(now);
                    prop_assert!(
                        missed.windows(2).all(|w| (w[0].deadline, w[0].task_id)
                            <= (w[1].deadline, w[1].task_id)),
                        "expiry order"
                    );
                    prop_assert!(missed.iter().all(|e| e.deadline <= now));
                }
            }
            let min = pool.iter().map(|e| (e.deadline, e.task_id)).min();
            prop_assert_eq!(pool.shadow_key(), min);
            if let Some(shadow) = pool.shadow() {
                prop_assert_eq!(
                    Some((shadow.deadline, shadow.task_id)),
                    min
                );
            }
        }
    }

    /// Work conservation of the device: with a backlogged pool and a free
    /// table, no slot idles.
    #[test]
    fn no_idle_slots_under_backlog(wcets in prop::collection::vec(1u64..6, 4..12)) {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).expect("valid");
        let total: u64 = wcets.iter().sum();
        for (i, w) in wcets.iter().enumerate() {
            hv.submit(RtJob::new(0, i as u64, 0, *w, 10_000)).expect("fits");
        }
        hv.run(total);
        prop_assert_eq!(hv.metrics().idle_slots, 0);
        prop_assert_eq!(hv.metrics().rchannel_slots, total);
        prop_assert_eq!(hv.metrics().completed, wcets.len() as u64);
    }

    /// Reclamation never loses work: with slack reclamation on, every
    /// pre-defined job still completes exactly once per period, and total
    /// slot accounting balances.
    #[test]
    fn reclamation_preserves_completions(tasks in arb_predefined_set(), seed in any::<u64>()) {
        if tasks.is_empty() {
            return Ok(());
        }
        let Ok(probe) = PChannel::build(tasks.clone(), 4096) else { return Ok(()) };
        let h = probe.hyper_period();
        let expected_per_hyper: u64 = tasks.iter().map(|t| h / t.task.period()).sum();
        let params = HypervisorParams::new(1)
            .with_predefined(tasks)
            .with_reclaim(PchannelReclaim { seed, min_fraction: 0.5 });
        let mut hv = Hypervisor::new(params).expect("probe succeeded");
        let periods = 4;
        hv.run(periods * h);
        prop_assert_eq!(
            hv.metrics().predefined_completed,
            periods * expected_per_hyper
        );
        prop_assert_eq!(hv.metrics().total_slots(), periods * h);
        // Reclamation can only donate slots, never consume extra.
        prop_assert!(hv.metrics().pchannel_slots <= periods * (h - probe.table().free_slots()));
    }

    /// Fault-interleaving safety: arbitrary submit/step sequences — pool
    /// overflow storms, empty-pool slots, unknown VMs, device stalls and
    /// clears — never panic, never overfill a pool, and never lose a job
    /// from the accounting (admitted = completed + missed + in flight).
    /// The event stream is the accounting: its fold equals the live
    /// metrics, every slot emits exactly one disposition, every admitted
    /// task gets exactly one final answer, and every miss is reported in
    /// its deadline slot, never later.
    #[test]
    fn fault_interleavings_never_panic_or_overfill(
        ops in prop::collection::vec((0u8..8, 0u64..5, 1u64..40), 1..120),
    ) {
        let capacity = 4;
        let params = HypervisorParams {
            pool_capacity: capacity,
            ..HypervisorParams::new(2)
        }
        .with_policy(GschedPolicy::GuardedEdf(vec![
            PeriodicServer::new(8, 4).expect("valid");
            2
        ]))
        .with_watchdog(ioguard_hypervisor::driver::RetryPolicy {
            timeout_slots: 2,
            max_retries: 2,
            backoff_base: 1,
            backoff_cap: 4,
        })
        .with_admission_guard(ioguard_hypervisor::hypervisor::AdmissionGuard {
            window: 8,
            max_submissions: 6,
            throttle_slots: 8,
        });
        let mut hv = Hypervisor::new(params).expect("valid");
        let mut events = Vec::new();
        let mut slots = 0u64;
        let mut next_id = 0u64;
        let mut admitted = 0u64;
        let mut refused_missed = 0u64;
        for (op, vm, span) in ops {
            match op {
                // Submissions: vm 0/1 are real, larger indices malformed;
                // tight spans produce immediate-miss deadlines, wide spans
                // normal jobs. Refusals (pool full, throttled, degraded)
                // and unknown VMs are the faults under test.
                0..=3 => {
                    next_id += 1;
                    let release = hv.now();
                    let job = RtJob::new(vm as usize, next_id, release, 1 + span % 3, release + span);
                    match hv.submit(job) {
                        Ok(()) => admitted += 1,
                        // These two refusal paths count the (critical) job
                        // as missed; throttles and unknown VMs do not.
                        Err(SubmitError::Refused(RefuseReason::PoolFull | RefuseReason::Degraded)) => {
                            refused_missed += 1;
                        }
                        Err(SubmitError::Refused(RefuseReason::Throttled { .. }))
                        | Err(SubmitError::UnknownVm { .. }) => {}
                    }
                    let (now, from) = (hv.now(), events.len());
                    hv.drain_events(&mut events);
                    misses_on_deadline(&events[from..], now)?;
                }
                4..=5 => {
                    for _ in 0..span % 6 {
                        let (now, from) = (hv.now(), events.len());
                        hv.step_into(&mut events);
                        misses_on_deadline(&events[from..], now)?;
                        slots += 1;
                    }
                }
                6 => hv.inject_device_stall(span),
                _ => hv.clear_device_faults(),
            }
            for pool in hv.pools() {
                prop_assert!(pool.len() <= capacity, "pool over capacity");
            }
        }
        // Drain with the device healthy: every admitted job must end up
        // accounted as completed or missed, never vanish.
        hv.clear_device_faults();
        for _ in 0..600 {
            let (now, from) = (hv.now(), events.len());
            hv.step_into(&mut events);
            misses_on_deadline(&events[from..], now)?;
            slots += 1;
        }
        let m = hv.metrics();
        let in_flight: u64 = hv.pools().iter().map(|p| p.len() as u64).sum();
        prop_assert_eq!(in_flight, 0, "600 healthy slots drain capacity-4 backlogs");
        prop_assert_eq!(m.completed + m.missed, admitted + refused_missed,
            "every admitted or miss-counted job is conserved");

        let mut folded = HvMetrics::with_vms(2);
        for event in &events {
            folded.fold(event);
        }
        prop_assert_eq!(&folded, m, "the metrics are the fold of the stream");
        let dispositions = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    HvEvent::PchannelSlot { .. }
                        | HvEvent::Grant { .. }
                        | HvEvent::Stalled
                        | HvEvent::Backoff
                        | HvEvent::Idle
                )
            })
            .count() as u64;
        prop_assert_eq!(dispositions, slots, "one slot disposition per slot");
        let mut answers: BTreeMap<u64, u32> = BTreeMap::new();
        for event in &events {
            match *event {
                HvEvent::Admitted { job, .. } => {
                    prop_assert!(answers.insert(job.task_id, 0).is_none(), "task {} admitted twice", job.task_id);
                }
                HvEvent::Completed { job, .. } | HvEvent::Missed { job, .. } | HvEvent::Shed { job, .. } => {
                    let Some(n) = answers.get_mut(&job.task_id) else {
                        return Err(TestCaseError::fail(format!("answer for unadmitted task {}", job.task_id)));
                    };
                    *n += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(answers.len() as u64, admitted);
        prop_assert!(answers.values().all(|&n| n == 1), "every admitted task answered once: {:?}", answers);
    }

    /// Advancing is stepping: at every release and 300 slots after the
    /// last, `advance_to` leaves the whole hypervisor equal to a clone
    /// stepped slot by slot. The loads pre-load σ\* with or without slack
    /// reclamation, burst jobs into 1–8-entry pools until they overflow,
    /// give some jobs no work and some deadlines they cannot meet, and mix
    /// in best-effort jobs.
    #[test]
    fn advancing_equals_stepping_every_slot(
        tasks in arb_predefined_set(),
        reclaim in any::<bool>(),
        seed in any::<u64>(),
        vms in 1usize..=8,
        capacity in 1usize..=8,
        jobs in prop::collection::vec((0u64..12, 0usize..8, 0u64..6, 0u64..40, any::<bool>()), 1..80),
    ) {
        let mut params = HypervisorParams {
            pool_capacity: capacity,
            ..HypervisorParams::new(vms)
        }
        .with_predefined(tasks);
        if reclaim {
            params = params.with_reclaim(PchannelReclaim { seed, min_fraction: 0.5 });
        }
        let Ok(mut hv) = Hypervisor::new(params) else {
            return Ok(()); // infeasible σ*: construction correctly refuses
        };
        let mut release = 0u64;
        for (task_id, (gap, vm, wcet, window, critical)) in (0u64..).zip(jobs) {
            release += gap;
            advance_matches_stepping(&mut hv, release)?;
            let job = RtJob::new(vm % vms, task_id, release, wcet, release + window);
            let _ = hv.submit(if critical { job } else { job.best_effort() });
        }
        advance_matches_stepping(&mut hv, release + 300)?;
    }

    /// Server-based G-Sched never grants a VM more than its budget within
    /// any server period.
    #[test]
    fn server_budget_is_never_exceeded(
        budget in 1u64..4,
        period_factor in 2u64..5,
        jobs in prop::collection::vec(1u64..4, 4..20),
    ) {
        let period = budget * period_factor;
        let servers = vec![PeriodicServer::new(period, budget).expect("valid")];
        let params = HypervisorParams::new(1)
            .with_policy(GschedPolicy::ServerBased(servers));
        let mut hv = Hypervisor::new(params).expect("valid");
        // Saturate the pool.
        for (i, w) in jobs.iter().enumerate() {
            let _ = hv.submit(RtJob::new(0, i as u64, 0, *w, 100_000));
        }
        let horizon = 20 * period;
        let mut granted_in_period = 0u64;
        for t in 0..horizon {
            let before = hv.metrics().rchannel_slots;
            hv.step();
            granted_in_period += hv.metrics().rchannel_slots - before;
            if (t + 1) % period == 0 {
                prop_assert!(
                    granted_in_period <= budget,
                    "granted {} > budget {} in one period",
                    granted_in_period,
                    budget
                );
                granted_in_period = 0;
            }
        }
    }
}
