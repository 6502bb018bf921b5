//! The automotive case study (Sec. V-C, Fig. 7).
//!
//! One *trial* generates the 40-task automotive suite plus synthetic filler
//! at a target utilization, gives every task a random initial phase, and
//! drives one system with the resulting periodic job stream for a fixed
//! horizon. A trial *succeeds* when no safety or function task misses a
//! deadline; *throughput* is the rate of on-time response bytes. A *point*
//! repeats trials over seeds; the full *figure* sweeps systems ×
//! utilizations × VM-group sizes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::engine::{self, EngineStats};

use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::platform::{job_jitter, IoPlatform, PlatformJob, PlatformMetrics};
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};
use ioguard_sim::stats::OnlineStats;
use ioguard_workload::generator::{TrialConfig, TrialWorkload};
use ioguard_workload::suites::SLOT_MICROS;

/// Actual per-job execution time as a fraction of the task's measured WCET:
/// hybrid-measurement WCETs are conservative, so jobs usually finish early.
/// Sampled uniformly in `[ACTUAL_EXEC_MIN, 1.0]` per job, identically for
/// every system under test.
const ACTUAL_EXEC_MIN: f64 = 0.90;

/// Period of the server-isolated ablation's equal-share servers, in slots:
/// the fastest task period, so every pre-loaded period is a multiple of it.
const ISOLATION_SERVER_PERIOD: u64 = 100;

/// Which system a trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemUnderTest {
    /// BS|Legacy.
    Legacy,
    /// BS|RT-XEN.
    RtXen,
    /// BS|BV.
    BlueVisor,
    /// I/O-GUARD-x: `preload_pct`% of tasks pre-loaded into the P-channel.
    IoGuard {
        /// Percentage of tasks executed by the P-channel (the paper uses
        /// 40 and 70).
        preload_pct: u8,
    },
    /// Ablation: I/O-GUARD with the server-based G-Sched instead of global
    /// EDF (hard inter-VM isolation; slightly lower raw schedulability).
    IoGuardServerIsolated {
        /// P-channel preload percentage.
        preload_pct: u8,
    },
}

impl SystemUnderTest {
    /// The five systems of Fig. 7, in plot order.
    pub fn figure7_lineup() -> Vec<SystemUnderTest> {
        vec![
            SystemUnderTest::Legacy,
            SystemUnderTest::RtXen,
            SystemUnderTest::BlueVisor,
            SystemUnderTest::IoGuard { preload_pct: 40 },
            SystemUnderTest::IoGuard { preload_pct: 70 },
        ]
    }

    /// Display label matching the paper.
    pub fn label(&self) -> String {
        match self {
            SystemUnderTest::Legacy => "BS|Legacy".into(),
            SystemUnderTest::RtXen => "BS|RT-XEN".into(),
            SystemUnderTest::BlueVisor => "BS|BV".into(),
            SystemUnderTest::IoGuard { preload_pct } => format!("I/O-GUARD-{preload_pct}"),
            SystemUnderTest::IoGuardServerIsolated { preload_pct } => {
                format!("I/O-GUARD-{preload_pct}-srv")
            }
        }
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// True when no critical task missed a deadline.
    pub success: bool,
    /// On-time response throughput in Mbit/s.
    pub throughput_mbps: f64,
    /// Critical misses observed.
    pub critical_misses: u64,
    /// All misses observed.
    pub misses: u64,
}

/// Runs one trial of `system` on `workload` for `horizon_slots`.
///
/// Every system is offered the same releases: task phases are
/// deterministic in `phase_seed`, and the three baselines get one identical
/// job sequence (ids, actual execution times, payloads) — the paper's
/// "identical data input" guarantee. I/O-GUARD-x gets the same
/// `(release, task)` pairs minus the tasks its P-channel pre-loads. It
/// numbers only the jobs it is offered, so for the same release its job id,
/// and the actual-execution draw that depends on it, differ from the
/// baselines'.
pub fn run_trial(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
    horizon_slots: u64,
) -> TrialOutcome {
    let releases = ReleaseOrder::new(workload, phase_seed, horizon_slots);
    run_released(system, workload, &releases, phase_seed, horizon_slots)
}

/// The outcome of a trial whose pre-load the P-channel refuses.
const REFUSED: TrialOutcome = TrialOutcome {
    success: false,
    throughput_mbps: 0.0,
    critical_misses: u64::MAX,
    misses: u64::MAX,
};

/// [`run_trial`] on a release order built for the same workload, phase
/// seed and horizon.
fn run_released(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    releases: &ReleaseOrder,
    phase_seed: u64,
    horizon_slots: u64,
) -> TrialOutcome {
    let Some((mut platform, preloaded)) = build_platform(system, workload, phase_seed) else {
        // The P-channel cannot host this pre-load (overloaded sampled
        // WCETs): the trial fails outright.
        return REFUSED;
    };
    drive(
        platform.as_mut(),
        workload,
        releases,
        &preloaded,
        phase_seed,
        horizon_slots,
    );
    outcome(&platform.metrics(), horizon_slots)
}

fn outcome(m: &PlatformMetrics, horizon_slots: u64) -> TrialOutcome {
    let sim_seconds = horizon_slots as f64 * SLOT_MICROS as f64 / 1e6;
    TrialOutcome {
        success: m.trial_success(),
        throughput_mbps: m.on_time_bytes as f64 * 8.0 / sim_seconds / 1e6,
        critical_misses: m.critical_missed,
        misses: m.missed,
    }
}

/// One trial's releases before its horizon, in the order every system is
/// offered them: by release slot, then by task index. It stores one `u16`
/// task index per release, which keeps a column of trials small, and
/// recomputes the slots from the task phases as it is walked.
#[derive(Debug)]
struct ReleaseOrder {
    /// Each task's first release slot, in `[0, T)`.
    phases: Vec<u64>,
    /// The task index of each release.
    order: Vec<u16>,
}

impl ReleaseOrder {
    fn new(workload: &TrialWorkload, phase_seed: u64, horizon_slots: u64) -> Self {
        let tasks = workload.tasks();
        // Deterministic per-task initial phases in [0, T).
        let mut phase_rng = Xoshiro256StarStar::new(SplitMix64::new(phase_seed).derive(0xFA5E));
        let phases: Vec<u64> = tasks
            .iter()
            .map(|t| phase_rng.range_u64(0, t.task.period()))
            .collect();
        let releases: u64 = tasks
            .iter()
            .zip(&phases)
            .map(|(t, &phase)| {
                horizon_slots
                    .saturating_sub(phase)
                    .div_ceil(t.task.period())
            })
            .sum();
        // A calendar heap keyed `(release slot, task index)`: a due release
        // is replaced in place by the task's next one. Keys are unique, so
        // the order is total and does not depend on how the heap sifts.
        let mut calendar: BinaryHeap<Reverse<(u64, u16)>> = phases
            .iter()
            .enumerate()
            .map(|(idx, &phase)| {
                let idx = u16::try_from(idx).expect("a trial workload has under 65 536 tasks");
                Reverse((phase, idx))
            })
            .collect();
        let mut order =
            Vec::with_capacity(usize::try_from(releases).expect("the release count fits memory"));
        while let Some(mut due) = calendar.peek_mut() {
            let Reverse((release, idx)) = *due;
            if release >= horizon_slots {
                break;
            }
            order.push(idx);
            *due = Reverse((release + tasks[usize::from(idx)].task.period(), idx));
        }
        Self { phases, order }
    }

    /// `(release slot, task index)` of every release, in order.
    fn releases<'a>(
        &'a self,
        workload: &'a TrialWorkload,
    ) -> impl Iterator<Item = (u64, usize)> + 'a {
        let mut next = self.phases.clone();
        self.order.iter().map(move |&idx| {
            let idx = usize::from(idx);
            let slot = next[idx];
            next[idx] += workload.tasks()[idx].task.period();
            (slot, idx)
        })
    }
}

/// The platform a trial of `system` drives and, per task, whether its
/// P-channel pre-loads that task; `None` when I/O-GUARD refuses the
/// pre-load at construction.
fn build_platform(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
) -> Option<(Box<dyn IoPlatform>, Vec<bool>)> {
    let vms = workload.config().vms;
    // Which tasks run from the P-channel (I/O-GUARD only)?
    let (preload, policy) = match system {
        SystemUnderTest::IoGuard { preload_pct } => {
            let (pre, _) = workload.split_preload(preload_pct as f64 / 100.0);
            (pre, GschedPolicy::GlobalEdf)
        }
        SystemUnderTest::IoGuardServerIsolated { preload_pct } => {
            let (pre, _) = workload.split_preload(preload_pct as f64 / 100.0);
            // Equal-share servers over the expected free fraction, budget
            // split evenly with a small safety margin.
            let free = (1.0 - pre.iter().map(|t| t.task.utilization()).sum::<f64>()).max(0.05);
            let period = ISOLATION_SERVER_PERIOD;
            let budget = ((free * period as f64 / vms as f64).floor() as u64).max(1);
            let servers = (0..vms)
                .map(|_| {
                    ioguard_sched::task::PeriodicServer::new(period, budget.min(period))
                        .expect("1 ≤ budget ≤ period")
                })
                .collect();
            (pre, GschedPolicy::ServerBased(servers))
        }
        _ => (Vec::new(), GschedPolicy::GlobalEdf),
    };
    let preloaded: Vec<bool> = workload
        .tasks()
        .iter()
        .map(|t| preload.iter().any(|p| p.name == t.name))
        .collect();

    let platform: Box<dyn IoPlatform> = match system {
        SystemUnderTest::Legacy => Box::new(LegacyPlatform::new(vms, phase_seed)),
        SystemUnderTest::RtXen => Box::new(RtXenPlatform::new(vms, phase_seed)),
        SystemUnderTest::BlueVisor => Box::new(BlueVisorPlatform::new(vms, phase_seed)),
        SystemUnderTest::IoGuard { .. } | SystemUnderTest::IoGuardServerIsolated { .. } => {
            Box::new(build_ioguard(workload, &preloaded, policy, phase_seed).ok()?)
        }
    };
    Some((platform, preloaded))
}

/// Offers `platform` the periodic job stream of `workload`'s releases
/// without the `preloaded` tasks, which execute autonomously inside the
/// P-channel, and advances it from one release to the next and then to
/// `horizon_slots`. Job ids number the offered jobs from 1.
fn drive(
    platform: &mut dyn IoPlatform,
    workload: &TrialWorkload,
    releases: &ReleaseOrder,
    preloaded: &[bool],
    phase_seed: u64,
    horizon_slots: u64,
) {
    let mut next_job_id = 1u64;
    for (slot, idx) in releases.releases(workload) {
        if preloaded[idx] {
            continue;
        }
        let task = &workload.tasks()[idx];
        platform.advance_to(slot);
        // Per-job actual execution time (deterministic in the ids).
        let frac = ACTUAL_EXEC_MIN
            + (1.0 - ACTUAL_EXEC_MIN)
                * (job_jitter(phase_seed ^ 0xEC, next_job_id, slot, 1024) as f64 / 1024.0);
        let actual = ((task.task.wcet() as f64 * frac).round() as u64).max(1);
        platform.submit(PlatformJob::new(
            task.vm,
            next_job_id,
            slot,
            actual,
            slot + task.task.deadline(),
            task.response_bytes,
            task.is_critical(),
        ));
        next_job_id += 1;
    }
    platform.advance_to(horizon_slots);
}

/// Builds the I/O-GUARD platform for a workload, pre-loading the tasks
/// marked in `preloaded`. An infeasible pre-load (the sampled WCETs overflow
/// the table) is a construction error — the caller records the trial as
/// failed, exactly as the real system would refuse the configuration at
/// initialization.
fn build_ioguard(
    workload: &TrialWorkload,
    preloaded: &[bool],
    policy: GschedPolicy,
    phase_seed: u64,
) -> Result<IoGuardPlatform, ioguard_hypervisor::HvError> {
    let vms = workload.config().vms;
    let predefined: Vec<PredefinedTask> = workload
        .tasks()
        .iter()
        .enumerate()
        .filter(|&(idx, _)| preloaded[idx])
        .map(|(idx, t)| PredefinedTask {
            task_id: idx as u64 + 1,
            vm: t.vm,
            task: t.task,
            response_bytes: t.response_bytes,
            // Stagger start times across the period so table occupancy is
            // flat and free slots stay evenly available to the R-channel.
            start_offset: (idx as u64).wrapping_mul(0x9E37_79B9) % t.task.period(),
        })
        .collect();
    // Pre-defined jobs show the same conservative-WCET behaviour as
    // run-time jobs; early completions release their residual slots.
    IoGuardPlatform::with_reclaim(
        vms,
        predefined,
        policy,
        ioguard_hypervisor::hypervisor::PchannelReclaim {
            seed: phase_seed ^ 0xEC2,
            min_fraction: ACTUAL_EXEC_MIN,
        },
    )
}

/// One experiment point: a (system, VM count, utilization) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudyPoint {
    /// System to drive.
    pub system: SystemUnderTest,
    /// Number of active VMs (4 or 8 in the paper).
    pub vms: usize,
    /// Target utilization.
    pub target_utilization: f64,
    /// Number of trials (the paper runs 1000; examples default lower).
    pub trials: u64,
    /// Base seed; trial `i` uses a derived stream.
    pub seed: u64,
    /// Trial length in slots (16 000 slots = one suite hyper-period
    /// = 0.8 s simulated).
    pub horizon_slots: u64,
}

/// Aggregated result of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSummary {
    /// Fraction of trials with zero critical misses.
    pub success_ratio: f64,
    /// Mean on-time throughput over trials, Mbit/s.
    pub throughput_mbps: f64,
    /// Standard deviation of the throughput across trials.
    pub throughput_std: f64,
}

impl CaseStudyPoint {
    /// Runs all trials of this point in order on the calling thread.
    ///
    /// This is the reference path: [`Fig7Report::run`] distributes the same
    /// trials over the work-stealing engine and aggregates them in the same
    /// trial order, so both paths produce bit-identical summaries.
    pub fn run(&self) -> PointSummary {
        let root = SplitMix64::new(self.seed);
        let mut successes = 0u64;
        let mut tp = OnlineStats::new();
        for trial in 0..self.trials {
            let trial_seed = root.derive(trial + 1);
            let workload = TrialWorkload::generate(&TrialConfig::new(
                self.vms,
                self.target_utilization,
                trial_seed,
            ));
            let outcome = run_trial(self.system, &workload, trial_seed, self.horizon_slots);
            if outcome.success {
                successes += 1;
            }
            tp.push(outcome.throughput_mbps);
        }
        PointSummary {
            success_ratio: successes as f64 / self.trials.max(1) as f64,
            throughput_mbps: tp.mean(),
            throughput_std: tp.std_dev(),
        }
    }
}

/// Full Fig. 7 sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// VM group sizes (the paper: 4 and 8).
    pub vm_groups: Vec<usize>,
    /// Target utilizations (the paper: 0.40..=1.00 step 0.05).
    pub utilizations: Vec<f64>,
    /// Trials per point.
    pub trials: u64,
    /// Base seed.
    pub seed: u64,
    /// Trial horizon in slots.
    pub horizon_slots: u64,
    /// Systems to include.
    pub systems: Vec<SystemUnderTest>,
}

impl CaseStudyConfig {
    /// The paper's sweep with a reduced trial count (the full 1000-trial
    /// sweep is `ioguard-repro fig7 --trials 1000`).
    pub fn paper_shape(trials: u64) -> Self {
        Self {
            vm_groups: vec![4, 8],
            utilizations: (0..=12).map(|i| 0.40 + 0.05 * i as f64).collect(),
            trials,
            seed: 2021,
            horizon_slots: 16_000,
            systems: SystemUnderTest::figure7_lineup(),
        }
    }
}

/// One rendered cell of the Fig. 7 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Cell {
    /// System.
    pub system: SystemUnderTest,
    /// VM group size.
    pub vms: usize,
    /// Target utilization.
    pub target_utilization: f64,
    /// Aggregates.
    pub summary: PointSummary,
}

/// The full Fig. 7 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Report {
    /// All cells, ordered (vm group, system, utilization).
    pub cells: Vec<Fig7Cell>,
}

impl Fig7Report {
    /// Runs the whole sweep on all available cores. See
    /// [`Fig7Report::run_with_threads`].
    pub fn run(config: &CaseStudyConfig) -> Self {
        Self::run_with_threads(config, 0)
    }

    /// Runs the whole sweep on `threads` workers (`0` = all cores).
    pub fn run_with_threads(config: &CaseStudyConfig, threads: usize) -> Self {
        Self::run_instrumented(config, threads).0
    }

    /// Runs the sweep and also returns the engine counters (trial count,
    /// steals, busy seconds) for throughput reporting.
    ///
    /// Work is scheduled at *(system, trial)* granularity on the
    /// work-stealing engine, one `(vms, utilization)` group at a time. Each
    /// group generates each trial's workload and release order once and
    /// shares them across all systems — the sequential path regenerates the
    /// identical workload and order per system from the same
    /// `(vms, utilization, trial_seed)` triple, so sharing changes nothing
    /// but the work done. Outcomes are scattered back into `(system, trial)`
    /// order and aggregated in trial order, making the report bit-identical
    /// for every thread count.
    pub fn run_instrumented(config: &CaseStudyConfig, threads: usize) -> (Self, EngineStats) {
        let root = SplitMix64::new(config.seed);
        let trial_seeds: Vec<u64> = (0..config.trials).map(|t| root.derive(t + 1)).collect();
        let n_systems = config.systems.len();
        let n_utils = config.utilizations.len();
        let trials = trial_seeds.len();

        // Cells ordered (vm group, system, utilization), as documented.
        let total = config.vm_groups.len() * n_systems * n_utils;
        let mut cells: Vec<Option<Fig7Cell>> = (0..total).map(|_| None).collect();
        let mut stats = EngineStats::default();

        for (gi, &vms) in config.vm_groups.iter().enumerate() {
            for (ui, &u) in config.utilizations.iter().enumerate() {
                // One workload and one release order per trial, shared by
                // every system.
                let (inputs, gen_stats) = engine::run_indexed(threads, &trial_seeds, |_, &seed| {
                    let workload = TrialWorkload::generate(&TrialConfig::new(vms, u, seed));
                    let releases = ReleaseOrder::new(&workload, seed, config.horizon_slots);
                    (workload, releases)
                });
                stats.absorb(&gen_stats);

                let units: Vec<(usize, usize)> = (0..n_systems)
                    .flat_map(|si| (0..trials).map(move |ti| (si, ti)))
                    .collect();
                let (outcomes, run_stats) = engine::run_indexed(threads, &units, |_, &(si, ti)| {
                    let (workload, releases) = &inputs[ti];
                    run_released(
                        config.systems[si],
                        workload,
                        releases,
                        trial_seeds[ti],
                        config.horizon_slots,
                    )
                });
                stats.absorb(&run_stats);

                for (si, &system) in config.systems.iter().enumerate() {
                    let mut successes = 0u64;
                    let mut tp = OnlineStats::new();
                    for outcome in &outcomes[si * trials..(si + 1) * trials] {
                        if outcome.success {
                            successes += 1;
                        }
                        tp.push(outcome.throughput_mbps);
                    }
                    cells[(gi * n_systems + si) * n_utils + ui] = Some(Fig7Cell {
                        system,
                        vms,
                        target_utilization: u,
                        summary: PointSummary {
                            success_ratio: successes as f64 / config.trials.max(1) as f64,
                            throughput_mbps: tp.mean(),
                            throughput_std: tp.std_dev(),
                        },
                    });
                }
            }
        }
        let report = Self {
            cells: cells
                .into_iter()
                .map(|c| c.expect("every sweep cell filled"))
                .collect(),
        };
        (report, stats)
    }

    /// Cells of one (vms, system) series in utilization order.
    pub fn series(&self, vms: usize, system: SystemUnderTest) -> Vec<&Fig7Cell> {
        self.cells
            .iter()
            .filter(|c| c.vms == vms && c.system == system)
            .collect()
    }
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut vm_groups: Vec<usize> = self.cells.iter().map(|c| c.vms).collect();
        vm_groups.sort_unstable();
        vm_groups.dedup();
        let mut systems: Vec<SystemUnderTest> = Vec::new();
        for c in &self.cells {
            if !systems.contains(&c.system) {
                systems.push(c.system);
            }
        }
        for vms in vm_groups {
            writeln!(
                f,
                "== {vms}-VM group: success ratio (top), throughput Mbit/s (bottom) =="
            )?;
            let utils: Vec<f64> = {
                let mut u: Vec<f64> = self
                    .cells
                    .iter()
                    .filter(|c| c.vms == vms)
                    .map(|c| c.target_utilization)
                    .collect();
                u.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                u.dedup();
                u
            };
            write!(f, "{:<16}", "util →")?;
            for u in &utils {
                write!(f, " {:>6.0}%", u * 100.0)?;
            }
            writeln!(f)?;
            for &system in &systems {
                let series = self.series(vms, system);
                write!(f, "{:<16}", system.label())?;
                for cell in &series {
                    write!(f, " {:>6.2} ", cell.summary.success_ratio)?;
                }
                writeln!(f)?;
                write!(f, "{:<16}", "")?;
                for cell in &series {
                    write!(f, " {:>6.1} ", cell.summary.throughput_mbps)?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_point(system: SystemUnderTest, util: f64) -> PointSummary {
        CaseStudyPoint {
            system,
            vms: 4,
            target_utilization: util,
            trials: 4,
            seed: 7,
            horizon_slots: 8_000,
        }
        .run()
    }

    /// Every configuration the sweep builds fits the hypervisor's I/O
    /// pools (constrained deadlines bound in-flight jobs to one per task),
    /// and every pre-loaded period is a multiple of the server-isolated
    /// ablation's server period — on the sweep's own trial workloads.
    #[test]
    fn fig7_configs_fit_their_pools_and_server_period() {
        use ioguard_hypervisor::hypervisor::DEFAULT_POOL_CAPACITY;

        let config = CaseStudyConfig::paper_shape(25);
        let root = SplitMix64::new(config.seed);
        for &vms in &config.vm_groups {
            for &u in &config.utilizations {
                for t in 0..config.trials {
                    let workload =
                        TrialWorkload::generate(&TrialConfig::new(vms, u, root.derive(t + 1)));
                    for preload_pct in [40u8, 70] {
                        let (pre, rest) = workload.split_preload(preload_pct as f64 / 100.0);
                        for vm in 0..vms {
                            let tasks = rest.iter().filter(|t| t.vm == vm).count();
                            assert!(
                                tasks <= DEFAULT_POOL_CAPACITY,
                                "{vms} VMs, U {u:.2}, trial {t}, preload {preload_pct}%: \
                                 vm {vm} has {tasks} run-time tasks"
                            );
                        }
                        for task in &pre {
                            assert!(
                                task.task.period().is_multiple_of(ISOLATION_SERVER_PERIOD),
                                "{vms} VMs, U {u:.2}, trial {t}: pre-loaded `{}` has period {}",
                                task.name,
                                task.task.period()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemUnderTest::Legacy.label(), "BS|Legacy");
        assert_eq!(
            SystemUnderTest::IoGuard { preload_pct: 70 }.label(),
            "I/O-GUARD-70"
        );
        assert_eq!(SystemUnderTest::figure7_lineup().len(), 5);
    }

    #[test]
    fn all_systems_succeed_at_base_utilization() {
        // At the 40% base load every system should be comfortable.
        for system in SystemUnderTest::figure7_lineup() {
            let s = quick_point(system, 0.40);
            assert!(
                s.success_ratio >= 0.75,
                "{} at 40%: {:?}",
                system.label(),
                s
            );
        }
    }

    #[test]
    fn ioguard70_survives_high_utilization_better_than_fifo_baselines() {
        let iog = quick_point(SystemUnderTest::IoGuard { preload_pct: 70 }, 0.90);
        let bv = quick_point(SystemUnderTest::BlueVisor, 0.90);
        let xen = quick_point(SystemUnderTest::RtXen, 0.90);
        assert!(
            iog.success_ratio >= bv.success_ratio,
            "iog {iog:?} vs bv {bv:?}"
        );
        assert!(
            iog.success_ratio >= xen.success_ratio,
            "iog {iog:?} vs xen {xen:?}"
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let a = quick_point(SystemUnderTest::BlueVisor, 0.7);
        let b = quick_point(SystemUnderTest::BlueVisor, 0.7);
        assert_eq!(a, b);
    }

    /// Records the jobs a trial offers; its slots pass without work.
    #[derive(Default)]
    struct Recorder {
        now: u64,
        offered: Vec<PlatformJob>,
    }

    impl IoPlatform for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn submit(&mut self, job: PlatformJob) {
            assert_eq!(
                job.release, self.now,
                "a job is offered in its release slot"
            );
            self.offered.push(job);
        }

        fn step(&mut self) {
            self.now += 1;
        }

        fn now(&self) -> u64 {
            self.now
        }

        fn metrics(&self) -> PlatformMetrics {
            PlatformMetrics::default()
        }
    }

    #[test]
    fn identical_input_offered_to_all_systems() {
        let (seed, horizon) = (99, 4_000);
        let workload = TrialWorkload::generate(&TrialConfig::new(4, 0.5, seed));
        let releases = ReleaseOrder::new(&workload, seed, horizon);
        let tasks = workload.tasks();
        // Every release by a full scan of the tasks in each slot.
        let scanned: Vec<(u64, usize)> = (0..horizon)
            .flat_map(|slot| (0..tasks.len()).map(move |idx| (slot, idx)))
            .filter(|&(slot, idx)| {
                let phase = releases.phases[idx];
                slot >= phase && (slot - phase).is_multiple_of(tasks[idx].task.period())
            })
            .collect();
        let offered = |system| {
            let (_, preloaded) = build_platform(system, &workload, seed).expect("constructible");
            let mut recorder = Recorder::default();
            drive(
                &mut recorder,
                &workload,
                &releases,
                &preloaded,
                seed,
                horizon,
            );
            assert_eq!(recorder.now, horizon);
            (recorder.offered, preloaded)
        };
        // Job k (from 1) is a release of `idx` in `slot`.
        let check = |jobs: &[PlatformJob], expected: &[(u64, usize)]| {
            assert_eq!(jobs.len(), expected.len());
            for (k, (job, &(slot, idx))) in jobs.iter().zip(expected).enumerate() {
                let task = &tasks[idx];
                assert_eq!(job.task_id, k as u64 + 1);
                assert_eq!(
                    (job.vm, job.release, job.deadline),
                    (task.vm, slot, slot + task.task.deadline())
                );
                assert_eq!(
                    (job.response_bytes, job.critical),
                    (task.response_bytes, task.is_critical())
                );
                assert!((1..=task.task.wcet()).contains(&job.wcet), "{job:?}");
            }
        };

        let (legacy, preloaded) = offered(SystemUnderTest::Legacy);
        assert!(!preloaded.contains(&true));
        check(&legacy, &scanned);
        assert_eq!(offered(SystemUnderTest::RtXen).0, legacy);
        assert_eq!(offered(SystemUnderTest::BlueVisor).0, legacy);
        for preload_pct in [40, 70] {
            let (jobs, preloaded) = offered(SystemUnderTest::IoGuard { preload_pct });
            assert!(preloaded.contains(&true));
            let run_time: Vec<(u64, usize)> = scanned
                .iter()
                .copied()
                .filter(|&(_, idx)| !preloaded[idx])
                .collect();
            check(&jobs, &run_time);
        }
    }

    /// The trial loop before release-to-release driving: a calendar heap
    /// of the run-time tasks, every due release submitted, then `step()`
    /// on every slot.
    fn slot_by_slot_trial(
        system: SystemUnderTest,
        workload: &TrialWorkload,
        phase_seed: u64,
        horizon_slots: u64,
    ) -> TrialOutcome {
        let Some((mut platform, preloaded)) = build_platform(system, workload, phase_seed) else {
            return REFUSED;
        };
        let mut phase_rng = Xoshiro256StarStar::new(SplitMix64::new(phase_seed).derive(0xFA5E));
        let phases: Vec<u64> = workload
            .tasks()
            .iter()
            .map(|t| phase_rng.range_u64(0, t.task.period()))
            .collect();
        let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = (0..phases.len())
            .filter(|&idx| !preloaded[idx])
            .map(|idx| Reverse((phases[idx], idx)))
            .collect();
        let mut next_job_id = 1u64;
        for slot in 0..horizon_slots {
            while let Some(mut due) = calendar.peek_mut() {
                let Reverse((release, idx)) = *due;
                if release > slot {
                    break;
                }
                let task = &workload.tasks()[idx];
                *due = Reverse((release + task.task.period(), idx));
                let frac = ACTUAL_EXEC_MIN
                    + (1.0 - ACTUAL_EXEC_MIN)
                        * (job_jitter(phase_seed ^ 0xEC, next_job_id, slot, 1024) as f64 / 1024.0);
                let actual = ((task.task.wcet() as f64 * frac).round() as u64).max(1);
                platform.submit(PlatformJob::new(
                    task.vm,
                    next_job_id,
                    slot,
                    actual,
                    slot + task.task.deadline(),
                    task.response_bytes,
                    task.is_critical(),
                ));
                next_job_id += 1;
            }
            platform.step();
        }
        outcome(&platform.metrics(), horizon_slots)
    }

    #[test]
    fn run_trial_equals_the_slot_by_slot_loop() {
        let seed = SplitMix64::new(2021).derive(1);
        for vms in [4, 8] {
            for u in [0.40, 1.00] {
                let workload = TrialWorkload::generate(&TrialConfig::new(vms, u, seed));
                for system in SystemUnderTest::figure7_lineup() {
                    assert_eq!(
                        run_trial(system, &workload, seed, 16_000),
                        slot_by_slot_trial(system, &workload, seed, 16_000),
                        "{} at {vms} VMs, U {u:.2}",
                        system.label()
                    );
                }
            }
        }
    }

    #[test]
    fn report_renders_and_indexes() {
        let config = CaseStudyConfig {
            vm_groups: vec![2],
            utilizations: vec![0.4, 0.6],
            trials: 2,
            seed: 3,
            horizon_slots: 4000,
            systems: vec![
                SystemUnderTest::BlueVisor,
                SystemUnderTest::IoGuard { preload_pct: 40 },
            ],
        };
        let report = Fig7Report::run(&config);
        assert_eq!(report.cells.len(), 4);
        let series = report.series(2, SystemUnderTest::BlueVisor);
        assert_eq!(series.len(), 2);
        assert!(series[0].target_utilization < series[1].target_utilization);
        let text = format!("{report}");
        assert!(text.contains("BS|BV"));
        assert!(text.contains("I/O-GUARD-40"));
        assert!(text.contains("2-VM group"));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_single_threaded() {
        let config = CaseStudyConfig {
            vm_groups: vec![3],
            utilizations: vec![0.5, 0.8],
            trials: 3,
            seed: 11,
            horizon_slots: 3000,
            systems: vec![
                SystemUnderTest::Legacy,
                SystemUnderTest::BlueVisor,
                SystemUnderTest::IoGuard { preload_pct: 40 },
                SystemUnderTest::IoGuardServerIsolated { preload_pct: 40 },
            ],
        };
        let parallel = Fig7Report::run_with_threads(&config, 4);
        let forced_sequential = Fig7Report::run_with_threads(&config, 1);
        // f64 PartialEq: bit-identical, not approximately equal.
        assert_eq!(parallel, forced_sequential);
        // The engine path also matches the per-point reference path, which
        // regenerates each workload instead of sharing it.
        for cell in &parallel.cells {
            let point = CaseStudyPoint {
                system: cell.system,
                vms: cell.vms,
                target_utilization: cell.target_utilization,
                trials: config.trials,
                seed: config.seed,
                horizon_slots: config.horizon_slots,
            };
            assert_eq!(point.run(), cell.summary, "{}", cell.system.label());
        }
    }

    #[test]
    fn shared_workload_matches_regenerated_workload() {
        // The sweep generates one workload and release order per
        // (vms, utilization, seed) and shares them across systems; a trial
        // on the shared pair must equal a trial on a fresh generation.
        let shared = TrialWorkload::generate(&TrialConfig::new(4, 0.7, 123));
        let releases = ReleaseOrder::new(&shared, 123, 2000);
        let fresh = TrialWorkload::generate(&TrialConfig::new(4, 0.7, 123));
        for system in SystemUnderTest::figure7_lineup() {
            assert_eq!(
                run_released(system, &shared, &releases, 123, 2000),
                run_trial(system, &fresh, 123, 2000),
                "{}",
                system.label()
            );
        }
    }

    #[test]
    fn throughput_grows_with_utilization_when_meeting_deadlines() {
        let low = quick_point(SystemUnderTest::IoGuard { preload_pct: 70 }, 0.40);
        let high = quick_point(SystemUnderTest::IoGuard { preload_pct: 70 }, 0.70);
        assert!(
            high.throughput_mbps > low.throughput_mbps,
            "low {low:?} high {high:?}"
        );
    }
}
