//! Property-based tests for the baseline platform models.

use proptest::prelude::*;

use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::platform::{IoPlatform, PlatformJob, PlatformMetrics};
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::PchannelReclaim;
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_sched::task::SporadicTask;

fn arb_jobs() -> impl Strategy<Value = Vec<(u64, u64, u64, bool)>> {
    // (release gap, wcet, relative deadline headroom, critical)
    prop::collection::vec((0u64..6, 1u64..8, 0u64..80, any::<bool>()), 1..40)
}

fn drive(platform: &mut dyn IoPlatform, jobs: &[(u64, u64, u64, bool)]) -> u64 {
    let mut offered = 0u64;
    let mut job_id = 0u64;
    let mut queue = jobs.iter();
    let mut next = queue.next();
    let mut t_release = 0u64;
    for _ in 0..4_000u64 {
        while let Some(&(gap, wcet, headroom, critical)) = next {
            if platform.now() < t_release + gap {
                break;
            }
            t_release = platform.now();
            job_id += 1;
            offered += 1;
            platform.submit(PlatformJob::new(
                (job_id % 2) as usize,
                job_id,
                platform.now(),
                wcet,
                platform.now() + wcet + headroom,
                64,
                critical,
            ));
            next = queue.next();
        }
        platform.step();
        if next.is_none() && platform.now() > 2_000 {
            break;
        }
    }
    offered
}

/// Conservation over every platform: offered = completed + dropped +
/// still-buffered, and every miss is accounted for. A FIFO baseline misses
/// only by finishing late or by dropping on overflow. I/O-GUARD never
/// finishes late: a pool expiry is a miss that is neither late nor
/// dropped.
fn check_conservation(m: &PlatformMetrics, offered: u64, fifo: bool) {
    let accounted = m.completed_on_time + m.completed_late + m.dropped;
    assert!(
        accounted <= offered,
        "accounted {accounted} > offered {offered}: {m:?}"
    );
    if fifo {
        assert_eq!(m.missed, m.completed_late + m.dropped, "{m:?}");
    } else {
        assert_eq!(m.completed_late, 0, "{m:?}");
        assert!(m.missed >= m.dropped, "{m:?}");
    }
    assert!(m.critical_missed <= m.missed);
    assert!(m.on_time_bytes <= m.response_bytes);
}

/// The four platforms on 4 VMs.
fn four_platforms(seed: u64) -> Vec<Box<dyn IoPlatform>> {
    vec![
        Box::new(LegacyPlatform::new(4, seed)),
        Box::new(RtXenPlatform::new(4, seed)),
        Box::new(BlueVisorPlatform::new(4, seed)),
        Box::new(IoGuardPlatform::new(4, vec![], GschedPolicy::GlobalEdf).expect("constructible")),
    ]
}

/// The four platforms and an I/O-GUARD whose P-channel pre-loads two
/// tasks with slack reclamation on, so that its `advance_to` walks σ\*
/// around occupied and reclaimed slots. The fifth is not in
/// `four_platforms`: its pre-defined jobs complete without being offered.
fn platforms_to_advance(seed: u64) -> Vec<Box<dyn IoPlatform>> {
    let preload = [(1, 8, 2), (2, 20, 3)].map(|(task_id, period, wcet)| PredefinedTask {
        task_id,
        vm: 0,
        task: SporadicTask::implicit(period, wcet).expect("valid task"),
        response_bytes: 32,
        start_offset: task_id,
    });
    let reclaim = PchannelReclaim {
        seed,
        min_fraction: 0.5,
    };
    let mut platforms = four_platforms(seed);
    platforms.push(Box::new(
        IoGuardPlatform::with_reclaim(4, preload.to_vec(), GschedPolicy::GlobalEdf, reclaim)
            .expect("σ* fits"),
    ));
    platforms
}

/// An `arb_jobs` stream with `bursts` of (slot, jobs) added, as jobs
/// sorted by release slot; jobs of one slot keep their order.
fn release_stream(jobs: &[(u64, u64, u64, bool)], bursts: &[(u64, u64)]) -> Vec<PlatformJob> {
    let mut stream = Vec::new();
    let mut release = 0u64;
    for &(gap, wcet, headroom, critical) in jobs {
        release += gap;
        stream.push((release, wcet, headroom, critical));
    }
    for &(slot, count) in bursts {
        for k in 0..count {
            stream.push((slot, 1 + k % 4, 40 + k, k % 3 != 0));
        }
    }
    stream.sort_by_key(|&(release, ..)| release);
    stream
        .iter()
        .enumerate()
        .map(|(i, &(release, wcet, headroom, critical))| {
            let id = i as u64 + 1;
            let deadline = release + wcet + headroom;
            PlatformJob::new((id % 2) as usize, id, release, wcet, deadline, 64, critical)
        })
        .collect()
}

/// Drives `platform` over `stream` to slot `end` and returns its metrics
/// at each release slot, taken after that slot's submissions, then at
/// `end`. With `jump` it advances once per release slot through
/// `advance_to`; otherwise it calls `step` on every slot.
fn metrics_at_releases(
    platform: &mut dyn IoPlatform,
    stream: &[PlatformJob],
    end: u64,
    jump: bool,
) -> Vec<PlatformMetrics> {
    let mut seen = Vec::new();
    let mut next = 0;
    while next < stream.len() {
        let slot = stream[next].release;
        if jump {
            platform.advance_to(slot);
        } else {
            while platform.now() < slot {
                platform.step();
            }
        }
        while stream.get(next).is_some_and(|j| j.release == slot) {
            platform.submit(stream[next]);
            next += 1;
        }
        seen.push(platform.metrics());
    }
    if jump {
        platform.advance_to(end);
    } else {
        while platform.now() < end {
            platform.step();
        }
    }
    assert_eq!(platform.now(), end);
    seen.push(platform.metrics());
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Metric conservation holds for all four platforms on arbitrary
    /// streams.
    #[test]
    fn metrics_conserve_jobs(jobs in arb_jobs(), seed in any::<u64>()) {
        for mut p in four_platforms(seed) {
            let offered = drive(p.as_mut(), &jobs);
            let fifo = p.name() != "I/O-GUARD";
            check_conservation(&p.metrics(), offered, fifo);
        }
    }

    /// Release-to-release driving is slot-by-slot driving: one
    /// `advance_to` per release slot leaves every platform with the
    /// metrics that calling `step` on every slot gives, at each release
    /// and at the end. Bursts of 65 or more jobs in one slot overflow the
    /// 64-deep FIFO, so the drops must match too; on I/O-GUARD they
    /// overflow the pools.
    #[test]
    fn advancing_release_to_release_equals_stepping_every_slot(
        jobs in arb_jobs(),
        bursts in prop::collection::vec((0u64..200, 65u64..100), 0..3),
        seed in any::<u64>(),
    ) {
        let stream = release_stream(&jobs, &bursts);
        let end = stream.last().map_or(0, |j| j.release) + 1_500;
        let platforms = platforms_to_advance(seed).into_iter().zip(platforms_to_advance(seed));
        for (mut jump, mut step) in platforms {
            let jumped = metrics_at_releases(jump.as_mut(), &stream, end, true);
            let stepped = metrics_at_releases(step.as_mut(), &stream, end, false);
            for (k, (a, b)) in jumped.iter().zip(&stepped).enumerate() {
                prop_assert_eq!(a, b, "{} at checkpoint {}", jump.name(), k);
            }
        }
    }

    /// Dominance under laxity inversion: whenever the FIFO meets every
    /// deadline, the preemptive pools do too (EDF never loses to FIFO on
    /// the same single-resource stream with our slot model).
    #[test]
    fn edf_dominates_fifo_on_feasible_streams(jobs in arb_jobs(), seed in any::<u64>()) {
        let mut fifo = BlueVisorPlatform::new(2, seed);
        let offered_f = drive(&mut fifo, &jobs);
        if fifo.metrics().missed != 0 {
            return Ok(()); // FIFO already misses: nothing to dominate
        }
        let mut edf = IoGuardPlatform::new(2, vec![], GschedPolicy::GlobalEdf)
            .expect("constructible");
        let offered_e = drive(&mut edf, &jobs);
        prop_assert_eq!(offered_f, offered_e, "identical offered stream");
        // BlueVisor adds a small vms-scaled service interference that the
        // direct hypervisor path does not; if FIFO met everything with
        // that handicap, EDF without it must as well.
        prop_assert_eq!(
            edf.metrics().missed,
            0,
            "EDF missed where FIFO met: {:?}",
            edf.metrics()
        );
    }

    /// Determinism across all platforms.
    #[test]
    fn platforms_are_deterministic(jobs in arb_jobs(), seed in any::<u64>()) {
        let run = |mk: &dyn Fn() -> Box<dyn IoPlatform>| {
            let mut p = mk();
            drive(p.as_mut(), &jobs);
            (
                p.metrics().completed_on_time,
                p.metrics().missed,
                p.metrics().response_bytes,
            )
        };
        let mks: Vec<Box<dyn Fn() -> Box<dyn IoPlatform>>> = vec![
            Box::new(move || Box::new(LegacyPlatform::new(3, seed))),
            Box::new(move || Box::new(RtXenPlatform::new(3, seed))),
            Box::new(move || Box::new(BlueVisorPlatform::new(3, seed))),
        ];
        for mk in &mks {
            prop_assert_eq!(run(mk.as_ref()), run(mk.as_ref()));
        }
    }
}
