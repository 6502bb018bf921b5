//! Property tests for the online-reconfiguration protocol — the headline
//! guarantees of the PR, proven over random `(old, new, switch-cycle)`
//! triples:
//!
//! * **Exactly-once dispatch.** Every submitted job is dispatched under
//!   exactly one configuration epoch: no job completes twice across a
//!   switch, and the work-conservation totals balance — accepted jobs
//!   equal completions + misses + sheds + accounted teardowns + still
//!   in flight. Holds fault-free, under injected device stalls, and
//!   when the switch itself aborts.
//! * **Bounded drain.** Every observed drain latency is within the
//!   configured budget (the bound is enforced at commit time).
//! * **Invisible aborts.** A staged-and-aborted (or rejected) flip
//!   leaves the live system byte-identical — trace and metrics — to a
//!   run that never staged anything.

use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_obs::ObsKind;
use ioguard_reconfig::{ReconfigController, StagedConfig};
use ioguard_sched::task::{PeriodicServer, SporadicTask};
use proptest::prelude::*;

/// Server menu: light utilizations so randomly drawn populations are
/// usually schedulable (the heaviest combination is pinned below).
const MENU: [(u64, u64); 4] = [(4, 1), (8, 2), (10, 2), (16, 3)];

fn mk_config(vms: usize, picks: &[usize], sigma: bool) -> StagedConfig {
    let mut servers = Vec::new();
    let mut sets = Vec::new();
    for i in 0..vms {
        let (p, t) = MENU[picks.get(i).copied().unwrap_or(0) % MENU.len()];
        servers.push(PeriodicServer::new(p, t).unwrap());
        sets.push(vec![SporadicTask::new(40, 1, 20).unwrap()].into());
    }
    let mut c = StagedConfig::new(servers, sets);
    if sigma {
        c.predefined = vec![PredefinedTask {
            task_id: 990,
            vm: 0,
            task: SporadicTask::implicit(8, 1).unwrap(),
            response_bytes: 16,
            start_offset: 0,
        }];
    }
    c
}

/// One submission: (slot, vm, wcet, relative deadline, critical).
type Sub = (u64, usize, u64, u64, bool);

/// Drives a full reconfiguration cycle: run `old`, stage `new` and commit
/// at `commit_at`, keep submitting per `subs`, and check the headline
/// properties. Rejected stages/commits are legal outcomes (the old config
/// keeps running); the invariants hold either way.
fn check_triple(
    old: StagedConfig,
    new: StagedConfig,
    commit_at: u64,
    budget: u64,
    subs: &[Sub],
    stall: Option<(u64, u64)>,
) {
    let Ok(mut rc) = ReconfigController::new(old, budget, 128) else {
        return; // an unschedulable initial draw is simply skipped
    };
    rc.attach_obs(4096);
    let mut ids: Vec<u64> = Vec::new();
    for slot in 0..48u64 {
        if slot == commit_at {
            let staged = rc.stage(new.clone());
            if staged.is_ok() {
                let _ = rc.commit();
            }
        }
        if let Some((at, len)) = stall {
            if slot == at {
                rc.hv_mut().inject_device_stall(len);
            }
        }
        for (i, &(s, vm, wcet, rel, critical)) in subs.iter().enumerate() {
            if s == slot {
                let id = 1000 + i as u64;
                if rc.submit(vm, id, wcet, rel, critical).is_ok() {
                    ids.push(id);
                }
            }
        }
        rc.step();
    }

    let totals = rc.totals();
    assert!(totals.conserved(), "conservation broke: {totals:?}");
    assert!(
        rc.drain_latencies().iter().all(|&l| l <= budget),
        "drain latency above budget {budget}: {:?}",
        rc.drain_latencies()
    );

    // Exactly-once: collect completions across every epoch's trace.
    let mut sinks = Vec::new();
    for r in rc.retired() {
        if let Some(obs) = &r.obs {
            sinks.push(&obs.sink);
        }
    }
    if let Some(obs) = rc.hv().obs() {
        sinks.push(&obs.sink);
    }
    for sink in &sinks {
        assert_eq!(sink.dropped(), 0, "sink overflow would hide dispatches");
    }
    for &id in &ids {
        let completes: usize = sinks
            .iter()
            .map(|s| {
                s.of_kind(ObsKind::Complete)
                    .filter(|e| e.task == id)
                    .count()
            })
            .sum();
        assert!(
            completes <= 1,
            "job {id} completed {completes} times across epochs"
        );
    }
}

#[test]
fn heaviest_menu_config_is_schedulable() {
    // Pins the generator's worst case so the properties are not vacuous:
    // three copies of the heaviest server plus σ* load must verify.
    let heavy = mk_config(3, &[0, 0, 0], true);
    assert!(
        heavy.verify().is_ok(),
        "generator menu must admit its heaviest draw"
    );
}

#[test]
fn flips_between_two_and_three_vms_drain_within_budget() {
    // 64 verified flips between a two-VM and a three-VM population with a
    // 16-slot drain budget, committed at offsets sweeping the hyperperiod.
    let beat = |vm: usize, task_id: u64| PredefinedTask {
        task_id,
        vm,
        task: SporadicTask::implicit(8, 1).unwrap(),
        response_bytes: 32,
        start_offset: 0,
    };
    let mk = |servers: &[(u64, u64)], tasks: &[(u64, u64, u64)], beat: PredefinedTask| {
        let servers = servers
            .iter()
            .map(|&(p, t)| PeriodicServer::new(p, t).unwrap())
            .collect();
        let sets = tasks
            .iter()
            .map(|&(t, c, d)| vec![SporadicTask::new(t, c, d).unwrap()].into())
            .collect();
        let mut config = StagedConfig::new(servers, sets);
        config.predefined = vec![beat];
        config
    };
    let two_vm = mk(
        &[(5, 2), (10, 3)],
        &[(20, 2, 10), (40, 4, 30)],
        beat(0, 900),
    );
    let three_vm = mk(
        &[(5, 1), (10, 2), (8, 2)],
        &[(20, 1, 10), (40, 2, 30), (32, 2, 16)],
        beat(1, 901),
    );
    const DRAIN_BUDGET: u64 = 16;
    const FLIPS: u64 = 64;
    let mut rc = ReconfigController::new(two_vm.clone(), DRAIN_BUDGET, 1 << 14).unwrap();
    for flip in 0..FLIPS {
        rc.run(1 + flip % 7);
        // Keep the R-channel pools non-empty so every drain carries work.
        let _ = rc.submit(0, flip + 1, 1, 12, true);
        let candidate = if flip % 2 == 0 { &three_vm } else { &two_vm };
        rc.stage(candidate.clone()).expect("candidate verifies");
        rc.commit().expect("commit fits the budget");
        // Two hyperperiods always reach the boundary and finish the switch.
        rc.run(16);
    }
    let drains = rc.drain_latencies();
    assert_eq!(drains.len() as u64, FLIPS, "one drain recorded per flip");
    assert!(
        drains.iter().all(|&d| d <= DRAIN_BUDGET),
        "drain over the {DRAIN_BUDGET}-slot budget: {drains:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exactly_once_under_random_reconfig(
        old_shape in (1usize..=3, prop::collection::vec(0usize..4, 3), proptest::arbitrary::any::<bool>()),
        new_shape in (1usize..=3, prop::collection::vec(0usize..4, 3), proptest::arbitrary::any::<bool>()),
        commit_at in 0u64..16,
        budget in 0u64..=16,
        subs in prop::collection::vec((0u64..40, 0usize..3, 1u64..4, 8u64..32, proptest::arbitrary::any::<bool>()), 0..20),
    ) {
        let old = mk_config(old_shape.0, &old_shape.1, old_shape.2);
        let new = mk_config(new_shape.0, &new_shape.1, new_shape.2);
        check_triple(old, new, commit_at, budget, &subs, None);
    }

    #[test]
    fn exactly_once_under_faulted_reconfig(
        old_shape in (1usize..=3, prop::collection::vec(0usize..4, 3), proptest::arbitrary::any::<bool>()),
        new_shape in (1usize..=3, prop::collection::vec(0usize..4, 3), proptest::arbitrary::any::<bool>()),
        commit_at in 0u64..16,
        budget in 0u64..=16,
        subs in prop::collection::vec((0u64..40, 0usize..3, 1u64..4, 8u64..32, proptest::arbitrary::any::<bool>()), 0..20),
        stall in (0u64..32, 1u64..8),
    ) {
        // A device stall mid-drain may degrade the system and abort the
        // switch at the boundary — the invariants must hold regardless.
        let old = mk_config(old_shape.0, &old_shape.1, old_shape.2);
        let new = mk_config(new_shape.0, &new_shape.1, new_shape.2);
        check_triple(old, new, commit_at, budget, &subs, Some(stall));
    }

    #[test]
    fn aborted_flip_is_observationally_invisible(
        shape in (1usize..=3, prop::collection::vec(0usize..4, 3), proptest::arbitrary::any::<bool>()),
        flip_at in 0u64..24,
        staged_rejects in proptest::arbitrary::any::<bool>(),
        subs in prop::collection::vec((0u64..40, 0usize..3, 1u64..4, 8u64..32, proptest::arbitrary::any::<bool>()), 0..16),
    ) {
        let base = mk_config(shape.0, &shape.1, shape.2);
        let Ok(mut with_flip) = ReconfigController::new(base.clone(), 16, 128) else {
            return Ok(());
        };
        let Ok(mut without) = ReconfigController::new(base.clone(), 16, 128) else {
            return Ok(());
        };
        with_flip.attach_obs(4096);
        without.attach_obs(4096);

        let drive = |rc: &mut ReconfigController, flip: bool| {
            for slot in 0..48u64 {
                if flip && slot == flip_at {
                    if staged_rejects {
                        // An unschedulable candidate: rejected at verify.
                        let mut bad = base.clone();
                        bad.task_sets = (0..bad.vm_count())
                            .map(|_| vec![SporadicTask::new(10, 9, 10).unwrap()].into())
                            .collect();
                        assert!(rc.stage(bad).is_err());
                    } else {
                        // Verified and committed, then rolled back before
                        // the boundary can run.
                        assert!(rc.stage(base.clone()).is_ok());
                        assert!(rc.commit().is_ok());
                        assert!(rc.abort());
                    }
                }
                for (i, &(s, vm, wcet, rel, critical)) in subs.iter().enumerate() {
                    if s == slot {
                        let _ = rc.submit(vm, 2000 + i as u64, wcet, rel, critical);
                    }
                }
                rc.step();
            }
        };
        drive(&mut with_flip, true);
        drive(&mut without, false);

        prop_assert_eq!(with_flip.epoch(), 0);
        let a = with_flip.hv().obs().unwrap();
        let b = without.hv().obs().unwrap();
        prop_assert_eq!(
            a.sink.render(),
            b.sink.render(),
            "aborted flip must leave a byte-identical live trace"
        );
        prop_assert_eq!(with_flip.hv().metrics(), without.hv().metrics());
        prop_assert_eq!(with_flip.totals(), without.totals());
    }
}
