//! `fig7_sweep`: the paper's Fig. 7 grid (`CaseStudyConfig::paper_shape`:
//! 4 and 8 VMs × 40–100 % × the five systems, 16 000-slot trials) on
//! `Fig7Report::run_instrumented` with two engine workers.
//!
//! A closed batch, repeated until the time is spent. The sweep is issued
//! one (VM group, utilization) column at a time, which is the order
//! `run_instrumented` walks the grid in, so each column's host time is one
//! step sample. The traced run drives every platform itself through the
//! public `IoPlatform` calls with the job stream `run_trial` builds, and
//! checks each outcome against `run_trial`.

use std::time::Instant;

use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::platform::{job_jitter, IoPlatform, PlatformJob};
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_core::casestudy::{
    run_trial, CaseStudyConfig, CaseStudyPoint, Fig7Cell, Fig7Report, SystemUnderTest, TrialOutcome,
};
use ioguard_core::engine::{self, EngineStats};
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::PchannelReclaim;
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};
use ioguard_workload::generator::{TrialConfig, TrialWorkload};
use ioguard_workload::suites::SLOT_MICROS;

use crate::trace::{Spans, Tracer};
use crate::{alloc, median, nanos, peak_rss_mb, percentile, Best, Budget, Chunker, Digest, Report};

/// Trials per grid point: 130 points × 10 trials take ≈0.6 s per sweep on
/// two workers, short enough for many repetitions per run.
const TRIALS: u64 = 10;
/// Engine workers (the host has two cores).
const WORKERS: usize = 2;
/// `casestudy`'s actual-execution floor, which `run_trial` applies to
/// every job and to the P-channel reclaim.
const ACTUAL_EXEC_MIN: f64 = 0.90;

const UNIT: usize = 0;
const GENERATE: usize = 1;
const GENERATOR: usize = 2;
const B_NEW: usize = 3;
const H_NEW: usize = 4;
const LEGACY: usize = 5;
const RTXEN: usize = 6;
const BV: usize = 7;
const IO40: usize = 8;
const IO70: usize = 9;
const B_SUBMIT: usize = 10;
const H_SUBMIT: usize = 11;
const NAMES: &[&str] = &[
    "bench.unit",
    "workload.generate",
    "bench.generator",
    "baselines.new",
    "hypervisor.new",
    "baselines.legacy",
    "baselines.rtxen",
    "baselines.bv",
    "hypervisor.io40",
    "hypervisor.io70",
    "baselines.submit",
    "hypervisor.submit",
];

/// One (VM group, utilization) column of the grid.
struct Column {
    vms: usize,
    utilization: f64,
    config: CaseStudyConfig,
}

struct Inputs {
    config: CaseStudyConfig,
    columns: Vec<Column>,
    seeds: Vec<u64>,
    digest: Digest,
}

/// Set-up: the sweep configuration and every trial input of the grid,
/// generated once and digested so a change to the inputs shows.
fn setup(seed: u64) -> Inputs {
    let mut config = CaseStudyConfig::paper_shape(TRIALS);
    config.seed = seed;
    let root = SplitMix64::new(seed);
    let seeds: Vec<u64> = (0..TRIALS).map(|t| root.derive(t + 1)).collect();
    let mut digest = Digest::default();
    let mut columns = Vec::new();
    for &vms in &config.vm_groups {
        for &utilization in &config.utilizations {
            for &s in &seeds {
                let w = TrialWorkload::generate(&TrialConfig::new(vms, utilization, s));
                for t in w.tasks() {
                    digest.bytes(t.name.as_bytes());
                    for v in [
                        t.task.period(),
                        t.task.wcet(),
                        t.task.deadline(),
                        t.vm as u64,
                    ] {
                        digest.u64(v);
                    }
                    digest.u64(u64::from(t.response_bytes));
                }
            }
            columns.push(Column {
                vms,
                utilization,
                config: CaseStudyConfig {
                    vm_groups: vec![vms],
                    utilizations: vec![utilization],
                    ..config.clone()
                },
            });
        }
    }
    Inputs {
        config,
        columns,
        seeds,
        digest,
    }
}

struct Sweep {
    cells: Vec<Fig7Cell>,
    engine: EngineStats,
    column_s: f64,
    allocs: u64,
}

/// One sweep, a column at a time; each column is its own timing chunk.
fn sweep(inputs: &Inputs, chunks: &mut Chunker) -> Sweep {
    let mut cells = Vec::with_capacity(inputs.columns.len() * inputs.config.systems.len());
    let mut stats = EngineStats::default();
    let (mut column_s, mut allocs) = (0.0, 0);
    for column in &inputs.columns {
        let a = alloc::global();
        let t = Instant::now();
        let (report, s) = Fig7Report::run_instrumented(&column.config, WORKERS);
        let ns = nanos(t.elapsed());
        allocs += alloc::global() - a;
        chunks.op(ns);
        column_s += ns as f64 * 1e-9;
        cells.extend(report.cells);
        stats.absorb(&s);
    }
    Sweep {
        cells,
        engine: stats,
        column_s,
        allocs,
    }
}

fn cells_digest(cells: &[Fig7Cell]) -> Digest {
    let mut d = Digest::default();
    for c in cells {
        d.bytes(c.system.label().as_bytes());
        d.u64(c.vms as u64);
        for v in [
            c.target_utilization,
            c.summary.success_ratio,
            c.summary.throughput_mbps,
            c.summary.throughput_std,
        ] {
            d.u64(v.to_bits());
        }
    }
    d
}

struct Untraced {
    setup_s: Vec<f64>,
    best: Best,
    trials: u64,
    allocs: u64,
    busy_s: f64,
    worker_s: f64,
    steals: u64,
    sweeps: u64,
    first: Vec<Fig7Cell>,
    repeats_equal: bool,
    rss_mb: f64,
    inputs: Inputs,
}

fn untraced(seed: u64, seconds: f64) -> Untraced {
    let budget = Budget::new(seconds);
    let mut setup_s = Vec::new();
    let mut best = Best::default();
    let mut out: Option<Untraced> = None;
    let mut reps = 0;
    while budget.more(reps, 2) {
        let t = Instant::now();
        let inputs = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut chunks = best.rep(1);
        let s = sweep(&inputs, &mut chunks);
        let trials = (s.cells.len() as u64) * TRIALS;
        let worker_s = s.column_s * WORKERS as f64;
        match out.as_mut() {
            None => {
                out = Some(Untraced {
                    setup_s: Vec::new(),
                    best: Best::default(),
                    trials,
                    allocs: s.allocs,
                    busy_s: s.engine.busy_seconds(),
                    worker_s,
                    steals: s.engine.steals,
                    sweeps: 1,
                    repeats_equal: true,
                    rss_mb: peak_rss_mb(),
                    first: s.cells,
                    inputs,
                });
            }
            Some(u) => {
                u.trials += trials;
                u.allocs += s.allocs;
                u.busy_s += s.engine.busy_seconds();
                u.worker_s += worker_s;
                u.steals += s.engine.steals;
                u.sweeps += 1;
                u.repeats_equal &= s.cells == u.first;
            }
        }
        reps += 1;
    }
    let mut u = out.expect("at least one sweep");
    u.setup_s = setup_s;
    u.best = best;
    u
}

/// Builds the platform `run_trial` would build, or `None` when I/O-GUARD
/// refuses the pre-load at construction.
fn build_platform(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
) -> Option<Box<dyn IoPlatform>> {
    let vms = workload.config().vms;
    match system {
        SystemUnderTest::Legacy => Some(Box::new(LegacyPlatform::new(vms, phase_seed))),
        SystemUnderTest::RtXen => Some(Box::new(RtXenPlatform::new(vms, phase_seed))),
        SystemUnderTest::BlueVisor => Some(Box::new(BlueVisorPlatform::new(vms, phase_seed))),
        SystemUnderTest::IoGuard { preload_pct } => {
            let names = preload_names(workload, preload_pct);
            let predefined: Vec<PredefinedTask> = workload
                .tasks()
                .iter()
                .enumerate()
                .filter(|(_, t)| names.contains(&t.name))
                .map(|(idx, t)| PredefinedTask {
                    task_id: idx as u64 + 1,
                    vm: t.vm,
                    task: t.task,
                    response_bytes: t.response_bytes,
                    start_offset: (idx as u64).wrapping_mul(0x9E37_79B9) % t.task.period(),
                })
                .collect();
            IoGuardPlatform::with_reclaim(
                vms,
                predefined,
                GschedPolicy::GlobalEdf,
                PchannelReclaim {
                    seed: phase_seed ^ 0xEC2,
                    min_fraction: ACTUAL_EXEC_MIN,
                },
            )
            .ok()
            .map(|p| Box::new(p) as Box<dyn IoPlatform>)
        }
        SystemUnderTest::IoGuardServerIsolated { .. } => None,
    }
}

fn preload_names(workload: &TrialWorkload, preload_pct: u8) -> Vec<String> {
    let (pre, _) = workload.split_preload(preload_pct as f64 / 100.0);
    pre.iter().map(|t| t.name.clone()).collect()
}

/// The job stream `run_trial` offers, as (release slot, job) in
/// submission order.
fn job_stream(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
    horizon: u64,
) -> Vec<(u64, PlatformJob)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut phase_rng = Xoshiro256StarStar::new(SplitMix64::new(phase_seed).derive(0xFA5E));
    let phases: Vec<u64> = workload
        .tasks()
        .iter()
        .map(|t| phase_rng.range_u64(0, t.task.period()))
        .collect();
    let preloaded = match system {
        SystemUnderTest::IoGuard { preload_pct } => preload_names(workload, preload_pct),
        _ => Vec::new(),
    };
    let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = workload
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| !preloaded.contains(&t.name))
        .map(|(idx, _)| Reverse((phases[idx], idx)))
        .collect();
    let mut jobs = Vec::new();
    let mut next_job_id = 1u64;
    while let Some(&Reverse((release, idx))) = calendar.peek() {
        if release >= horizon {
            break;
        }
        calendar.pop();
        let task = &workload.tasks()[idx];
        let frac = ACTUAL_EXEC_MIN
            + (1.0 - ACTUAL_EXEC_MIN)
                * (job_jitter(phase_seed ^ 0xEC, next_job_id, release, 1024) as f64 / 1024.0);
        let actual = ((task.task.wcet() as f64 * frac).round() as u64).max(1);
        jobs.push((
            release,
            PlatformJob::new(
                task.vm,
                next_job_id,
                release,
                actual,
                release + task.task.deadline(),
                task.response_bytes,
                task.is_critical(),
            ),
        ));
        next_job_id += 1;
        calendar.push(Reverse((release + task.task.period(), idx)));
    }
    jobs
}

const REFUSED: TrialOutcome = TrialOutcome {
    success: false,
    throughput_mbps: 0.0,
    critical_misses: u64::MAX,
    misses: u64::MAX,
};

fn spans_of(system: SystemUnderTest) -> (usize, usize, usize) {
    match system {
        SystemUnderTest::Legacy => (B_NEW, LEGACY, B_SUBMIT),
        SystemUnderTest::RtXen => (B_NEW, RTXEN, B_SUBMIT),
        SystemUnderTest::BlueVisor => (B_NEW, BV, B_SUBMIT),
        SystemUnderTest::IoGuard { preload_pct: 40 } => (H_NEW, IO40, H_SUBMIT),
        _ => (H_NEW, IO70, H_SUBMIT),
    }
}

/// `run_trial`, driven through the public platform calls with spans.
fn traced_trial(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
    horizon: u64,
    req: u64,
    tr: &mut Tracer,
) -> TrialOutcome {
    let (new_span, drive_span, submit_span) = spans_of(system);
    tr.begin(GENERATOR, req);
    let jobs = job_stream(system, workload, phase_seed, horizon);
    tr.end();
    tr.begin(new_span, req);
    let platform = build_platform(system, workload, phase_seed);
    tr.end();
    let Some(mut platform) = platform else {
        return REFUSED;
    };
    tr.begin(drive_span, req);
    let mut next = 0;
    for slot in 0..horizon {
        if jobs.get(next).is_some_and(|(at, _)| *at == slot) {
            let t0 = Instant::now();
            let a0 = alloc::local();
            while let Some((_, job)) = jobs.get(next).filter(|(at, _)| *at == slot) {
                platform.submit(*job);
                next += 1;
            }
            tr.leaf(submit_span, req, t0, Instant::now(), alloc::local() - a0);
        }
        platform.step();
    }
    let m = platform.metrics();
    let sim_seconds = horizon as f64 * SLOT_MICROS as f64 / 1e6;
    let outcome = TrialOutcome {
        success: m.trial_success(),
        throughput_mbps: m.on_time_bytes as f64 * 8.0 / sim_seconds / 1e6,
        critical_misses: m.critical_missed,
        misses: m.missed,
    };
    tr.end();
    outcome
}

struct Traced {
    tracer: Tracer,
    outcomes: Vec<Vec<Vec<TrialOutcome>>>,
    wall_ns: u64,
    trials: u64,
    drive_slots: [u64; 2],
}

fn traced(inputs: &Inputs, seconds: f64) -> Traced {
    let epoch = Instant::now();
    let budget = Budget::new(seconds);
    let systems = &inputs.config.systems;
    let horizon = inputs.config.horizon_slots;
    let trial_idx: Vec<usize> = (0..inputs.seeds.len()).collect();
    let mut total = Tracer::new(NAMES, epoch);
    let mut first = Vec::new();
    let (mut wall_ns, mut trials, mut reps) = (0u64, 0u64, 0usize);
    while budget.more(reps, 1) {
        for column in &inputs.columns {
            let t = Instant::now();
            let (units, _) = engine::run_indexed(WORKERS, &trial_idx, |_, &ti| {
                let seed = inputs.seeds[ti];
                let mut tr = Tracer::new(NAMES, epoch);
                tr.begin(UNIT, ti as u64);
                tr.begin(GENERATE, ti as u64);
                let w = TrialWorkload::generate(&TrialConfig::new(
                    column.vms,
                    column.utilization,
                    seed,
                ));
                tr.end();
                let outcomes: Vec<TrialOutcome> = systems
                    .iter()
                    .map(|&s| traced_trial(s, &w, seed, horizon, ti as u64, &mut tr))
                    .collect();
                tr.end();
                (outcomes, tr)
            });
            wall_ns += nanos(t.elapsed());
            trials += (units.len() * systems.len()) as u64;
            let mut column_outcomes = Vec::with_capacity(units.len());
            for (outcomes, tr) in units {
                total.absorb(&tr);
                column_outcomes.push(outcomes);
            }
            if reps == 0 {
                first.push(column_outcomes);
            }
        }
        reps += 1;
    }
    let slots = |span: usize| total.stat(span).calls * horizon;
    Traced {
        drive_slots: [
            slots(IO40) + slots(IO70),
            slots(LEGACY) + slots(RTXEN) + slots(BV),
        ],
        tracer: total,
        outcomes: first,
        wall_ns,
        trials,
    }
}

/// Every traced outcome of the first traced sweep equals `run_trial`'s.
fn traced_matches_run_trial(inputs: &Inputs, outcomes: &[Vec<Vec<TrialOutcome>>]) -> bool {
    let horizon = inputs.config.horizon_slots;
    let trial_idx: Vec<usize> = (0..inputs.seeds.len()).collect();
    inputs.columns.iter().zip(outcomes).all(|(column, traced)| {
        let (ok, _) = engine::run_indexed(WORKERS, &trial_idx, |_, &ti| {
            let seed = inputs.seeds[ti];
            let w =
                TrialWorkload::generate(&TrialConfig::new(column.vms, column.utilization, seed));
            inputs
                .config
                .systems
                .iter()
                .zip(&traced[ti])
                .all(|(&s, o)| run_trial(s, &w, seed, horizon) == *o)
        });
        ok.into_iter().all(|b| b)
    })
}

/// Share of trials I/O-GUARD refuses at construction, over all trials.
fn construction_refusals(inputs: &Inputs) -> u64 {
    let mut refused = 0;
    for column in &inputs.columns {
        for &seed in &inputs.seeds {
            let w =
                TrialWorkload::generate(&TrialConfig::new(column.vms, column.utilization, seed));
            for &s in &inputs.config.systems {
                if build_platform(s, &w, seed).is_none() {
                    refused += 1;
                }
            }
        }
    }
    refused
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let phase = if trace { seconds / 2.0 } else { seconds };
    let u = untraced(seed, phase);
    let trials_per_sweep = u.trials / u.sweeps;
    let rate = trials_per_sweep as f64 / u.best.seconds();
    let column_ns = u.best.samples();

    report.attempted = u.trials;
    let refused = construction_refusals(&u.inputs);
    let grid_trials = u.first.len() as u64 * TRIALS;
    if trace {
        let t = traced(&u.inputs, phase);
        let base = t.wall_ns as f64 * WORKERS as f64;
        report.shares(
            &t.tracer,
            base,
            &[
                (GENERATE, "workload.generate.share"),
                (GENERATOR, "bench.generator.share"),
                (B_NEW, "baselines.new.share"),
                (H_NEW, "hypervisor.new.share"),
                (LEGACY, "baselines.legacy.share"),
                (RTXEN, "baselines.rtxen.share"),
                (BV, "baselines.bv.share"),
                (IO40, "hypervisor.io40.share"),
                (IO70, "hypervisor.io70.share"),
                (B_SUBMIT, "baselines.submit.share"),
                (H_SUBMIT, "hypervisor.submit.share"),
                (UNIT, "bench.unattributed.share"),
            ],
        );
        let st = |s: usize| t.tracer.stat(s);
        let unit_ns = st(UNIT).total_ns as f64;
        report.layer("core.engine.share", (base - unit_ns) / base);
        report.layer("core.engine.busy_share", u.busy_s / u.worker_s);
        report.layer("core.engine.steals", u.steals as f64 / u.sweeps as f64);
        let hv_allocs = st(IO40).allocs + st(IO70).allocs;
        let bs_allocs = st(LEGACY).allocs + st(RTXEN).allocs + st(BV).allocs;
        report.layer(
            "hypervisor.allocs_per_slot",
            hv_allocs as f64 / t.drive_slots[0] as f64,
        );
        report.layer(
            "baselines.allocs_per_slot",
            bs_allocs as f64 / t.drive_slots[1] as f64,
        );
        let traced_rate = t.trials as f64 / (t.wall_ns as f64 * 1e-9);
        report.layer("trace.overhead", rate / traced_rate - 1.0);

        let horizon = u.inputs.config.horizon_slots as f64;
        for (span, label) in [
            (LEGACY, "baselines.legacy.slot_ns"),
            (RTXEN, "baselines.rtxen.slot_ns"),
            (BV, "baselines.bv.slot_ns"),
            (IO40, "hypervisor.io40.slot_ns"),
            (IO70, "hypervisor.io70.slot_ns"),
        ] {
            let s = st(span);
            report.named(label, s.total_ns as f64 / (s.calls as f64 * horizon), "ns");
        }
        let per_call = |s: usize| st(s).total_ns as f64 / st(s).calls.max(1) as f64;
        report.named("workload.generate_us", per_call(GENERATE) / 1e3, "us");
        report.named("bench.generator_us", per_call(GENERATOR) / 1e3, "us");
        report.named("hypervisor.new_us", per_call(H_NEW) / 1e3, "us");
        report.named("hypervisor.submit_ns", per_call(H_SUBMIT), "ns");
        let hv_step = (st(IO40).self_ns + st(IO70).self_ns) as f64 / t.drive_slots[0] as f64;
        report.named("hypervisor.step_ns", hv_step, "ns");
        report.named("traced.trials_per_s", traced_rate, "1/s");
        let unattributed = st(UNIT).self_ns as f64 / unit_ns;
        report.line(format!(
            "books: layer self times cover {:.2}% of traced unit time",
            100.0 * (1.0 - unattributed)
        ));
        report.check("traced books close within 5%", unattributed <= 0.05);
        report.check(
            "every traced trial outcome equals run_trial",
            traced_matches_run_trial(&u.inputs, &t.outcomes),
        );
        report.keep_tracer(t.tracer);
    } else {
        report.e2e("setup_s", median(&u.setup_s));
        report.e2e("ops_per_s", rate);
        report.e2e("step_us_p50", percentile(&column_ns, 50.0) as f64 / 1e3);
        report.e2e("allocs_per_op", u.allocs as f64 / u.trials as f64);
        report.e2e("peak_rss_mb", u.rss_mb);
    }
    report.named("setup_s", median(&u.setup_s), "s");
    report.named("peak_rss_mb", u.rss_mb, "MB");
    report.named("allocs_per_op", u.allocs as f64 / u.trials as f64, "count");
    report.named("fail_ratio", refused as f64 / grid_trials as f64, "ratio");
    report.named("trials_per_s", rate, "1/s");
    report.named(
        "column_us_p50",
        percentile(&column_ns, 50.0) as f64 / 1e3,
        "us",
    );
    report.named(
        "column_us_p95",
        percentile(&column_ns, 95.0) as f64 / 1e3,
        "us",
    );
    report.line(format!(
        "samples: {} sweeps, {} columns timed, the fastest repetition of each of the {} \
         kept; {} setups",
        u.sweeps,
        u.sweeps as usize * column_ns.len(),
        column_ns.len(),
        u.setup_s.len()
    ));
    report.line(format!("digest fig7 inputs {:#018x}", u.inputs.digest.0));
    report.line(format!(
        "digest fig7 table {:#018x}",
        cells_digest(&u.first).0
    ));

    report.check("every repeated sweep gives the same table", u.repeats_equal);
    let pick = &u.first[(seed % u.first.len() as u64) as usize];
    let point = CaseStudyPoint {
        system: pick.system,
        vms: pick.vms,
        target_utilization: pick.target_utilization,
        trials: TRIALS,
        seed,
        horizon_slots: u.inputs.config.horizon_slots,
    };
    report.check(
        &format!(
            "cell {} {} VMs {:.0}% equals CaseStudyPoint::run",
            pick.system.label(),
            pick.vms,
            pick.target_utilization * 100.0
        ),
        point.run() == pick.summary,
    );
    if !u.repeats_equal {
        report.failed = u.trials;
    }
}
