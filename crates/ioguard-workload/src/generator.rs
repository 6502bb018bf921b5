//! Trial workload construction.
//!
//! One *trial* of the case study is: the 40-task base suite with
//! measurement-jittered WCETs, plus synthetic filler tasks raising the total
//! demand to a *target utilization*, partitioned across the active VMs.
//! Identical seeds yield identical workloads, which is how the paper
//! "ensured the data input to the examined systems was identical in each
//! execution".

use ioguard_sched::task::{SporadicTask, TaskSet};
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};

use crate::suites::{TaskCategory, FUNCTION_TASKS, SAFETY_TASKS};
use crate::uunifast::uunifast;

/// WCET measurement jitter: the hybrid-measurement WCET of a task varies by
/// this relative amount between trials ("the execution time of a task is
/// affected by diverse factors (e.g., cache miss rate)").
const WCET_JITTER: f64 = 0.10;

/// Periods available to synthetic filler tasks, in slots.
const SYNTHETIC_PERIODS: [u64; 6] = [100, 200, 400, 800, 1000, 2000];

/// Largest I/O service demand of a synthetic task, in slots. EEMBC-derived
/// filler performs ordinary benchmark-sized I/O operations, not
/// multi-millisecond bulk transfers.
const SYNTHETIC_MAX_WCET: u64 = 40;

/// Configuration of one trial's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialConfig {
    /// Number of active VMs (4 or 8 in the paper's groups).
    pub vms: usize,
    /// Target utilization of the shared I/O resource, in `[0, 1]`-ish
    /// (the paper sweeps 0.40–1.00).
    pub target_utilization: f64,
    /// Trial seed (workload is a pure function of the config).
    pub seed: u64,
}

impl TrialConfig {
    /// Creates a trial config.
    ///
    /// # Panics
    ///
    /// Panics if `vms == 0` or the target utilization is not positive and
    /// finite.
    pub fn new(vms: usize, target_utilization: f64, seed: u64) -> Self {
        assert!(vms > 0, "at least one VM");
        assert!(
            target_utilization.is_finite() && target_utilization > 0.0,
            "target utilization must be positive"
        );
        Self {
            vms,
            target_utilization,
            seed,
        }
    }
}

/// One concrete task instance in a generated trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialTask {
    /// Name (catalogue name or `synthetic-N`).
    pub name: String,
    /// Category.
    pub category: TaskCategory,
    /// The timing model handed to schedulers and simulators.
    pub task: SporadicTask,
    /// VM this task runs in.
    pub vm: usize,
    /// Request payload bytes per job.
    pub request_bytes: u32,
    /// Response payload bytes per job.
    pub response_bytes: u32,
}

impl TrialTask {
    /// True for tasks whose deadline misses fail a trial (safety and
    /// function tasks; synthetic filler is best-effort).
    pub fn is_critical(&self) -> bool {
        self.category != TaskCategory::Synthetic
    }
}

/// A fully generated trial workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialWorkload {
    config: TrialConfig,
    tasks: Vec<TrialTask>,
}

impl TrialWorkload {
    /// Generates the workload for `config` (deterministic in the config).
    pub fn generate(config: &TrialConfig) -> Self {
        let root = SplitMix64::new(config.seed);
        let mut rng = Xoshiro256StarStar::new(root.derive(0x57C1));
        let mut tasks = Vec::new();

        // 1. The 40-task base suite with jittered WCETs.
        for (idx, spec) in SAFETY_TASKS.iter().chain(FUNCTION_TASKS.iter()).enumerate() {
            let jitter = 1.0 + rng.range_f64(-WCET_JITTER, WCET_JITTER);
            let wcet =
                ((spec.wcet_slots as f64 * jitter).round() as u64).clamp(1, spec.period_slots);
            let task =
                SporadicTask::implicit(spec.period_slots, wcet).expect("catalogue tasks are valid");
            tasks.push(TrialTask {
                name: spec.name.to_owned(),
                category: spec.category,
                task,
                vm: idx % config.vms,
                request_bytes: spec.request_bytes,
                response_bytes: spec.response_bytes,
            });
        }
        let base_util: f64 = tasks.iter().map(|t| t.task.utilization()).sum();

        // 2. Synthetic filler up to the target utilization, one task per
        //    ~2.5% of added load, split by UUniFast.
        let fill = (config.target_utilization - base_util).max(0.0);
        if fill > 1e-9 {
            let n = ((fill / 0.025).ceil() as usize).max(1);
            let utils = uunifast(&mut rng, n, fill);
            for (i, u) in utils.into_iter().enumerate() {
                // Choose the largest period that keeps the service demand
                // at a realistic per-operation size; heavy utilization
                // shares become *frequent* small operations, not monster
                // transfers.
                let period = SYNTHETIC_PERIODS
                    .iter()
                    .copied()
                    .filter(|&p| u * p as f64 <= SYNTHETIC_MAX_WCET as f64)
                    .max()
                    .unwrap_or(SYNTHETIC_PERIODS[0]);
                let wcet =
                    ((u * period as f64).round() as u64).clamp(1, SYNTHETIC_MAX_WCET.min(period));
                let task = SporadicTask::implicit(period, wcet).expect("clamped to validity");
                let vm = rng.range_u64(0, config.vms as u64) as usize;
                tasks.push(TrialTask {
                    name: format!("synthetic-{i}"),
                    category: TaskCategory::Synthetic,
                    task,
                    vm,
                    request_bytes: 64 + 64 * (i as u32 % 4),
                    response_bytes: 32,
                });
            }
        }

        Self {
            config: *config,
            tasks,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &TrialConfig {
        &self.config
    }

    /// All tasks of the trial.
    pub fn tasks(&self) -> &[TrialTask] {
        &self.tasks
    }

    /// The actual (sampled) total utilization — near the target but not
    /// exactly on it, per the paper's "target utilization" caveat.
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(|t| t.task.utilization()).sum()
    }

    /// Per-VM [`TaskSet`]s, indexed by VM id (length = `config.vms`).
    pub fn vm_task_sets(&self) -> Vec<TaskSet> {
        let mut sets = vec![TaskSet::new(); self.config.vms];
        for t in &self.tasks {
            sets[t.vm].push(t.task);
        }
        sets
    }

    /// Splits the tasks into (pre-defined, run-time) groups for an
    /// `I/O-GUARD-x` configuration: `preload_fraction` of the tasks go to
    /// the P-channel, the rest to the R-channel.
    ///
    /// The split is deterministic and *utilization-proportional*: tasks are
    /// ordered by utilization and stride-sampled, so the pre-loaded group
    /// carries ≈ `preload_fraction` of the total utilization rather than
    /// the heaviest tail — matching the paper's "x% of I/O tasks were
    /// executed by the P channel".
    pub fn split_preload(&self, preload_fraction: f64) -> (Vec<&TrialTask>, Vec<&TrialTask>) {
        assert!(
            (0.0..=1.0).contains(&preload_fraction),
            "fraction in [0, 1]"
        );
        let mut order: Vec<&TrialTask> = self.tasks.iter().collect();
        order.sort_by(|a, b| {
            b.task
                .utilization()
                .partial_cmp(&a.task.utilization())
                .expect("utilizations are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
        let n = order.len();
        let cut = (n as f64 * preload_fraction).round() as usize;
        let mut pre = Vec::with_capacity(cut);
        let mut run = Vec::with_capacity(n - cut);
        // Stride sampling: task i is pre-loaded when the cumulative quota
        // ⌊(i+1)·cut/n⌋ advances — an even spread across the spectrum.
        let mut taken = 0usize;
        for (i, t) in order.into_iter().enumerate() {
            let quota = ((i + 1) * cut) / n.max(1);
            if quota > taken {
                taken = quota;
                pre.push(t);
            } else {
                run.push(t);
            }
        }
        (pre, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let c = TrialConfig::new(4, 0.7, 99);
        assert_eq!(TrialWorkload::generate(&c), TrialWorkload::generate(&c));
        let c2 = TrialConfig::new(4, 0.7, 100);
        assert_ne!(TrialWorkload::generate(&c), TrialWorkload::generate(&c2));
    }

    #[test]
    fn base_suite_is_always_present() {
        let w = TrialWorkload::generate(&TrialConfig::new(8, 0.4, 1));
        let safety = w
            .tasks()
            .iter()
            .filter(|t| t.category == TaskCategory::Safety)
            .count();
        let function = w
            .tasks()
            .iter()
            .filter(|t| t.category == TaskCategory::Function)
            .count();
        assert_eq!(safety, 20);
        assert_eq!(function, 20);
    }

    #[test]
    fn utilization_tracks_target() {
        for target in [0.4, 0.5, 0.7, 0.9, 1.0] {
            for seed in 0..5 {
                let w = TrialWorkload::generate(&TrialConfig::new(4, target, seed));
                let u = w.total_utilization();
                assert!(
                    (u - target).abs() < 0.08,
                    "target {target} got {u:.3} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn utilization_varies_between_trials() {
        // The "target utilization" caveat: sampled utilization differs
        // between seeds.
        let us: Vec<f64> = (0..10)
            .map(|s| TrialWorkload::generate(&TrialConfig::new(4, 0.8, s)).total_utilization())
            .collect();
        let first = us[0];
        assert!(us.iter().any(|&u| (u - first).abs() > 1e-6));
    }

    #[test]
    fn every_vm_receives_tasks() {
        for vms in [1, 4, 8] {
            let w = TrialWorkload::generate(&TrialConfig::new(vms, 0.6, 7));
            let sets = w.vm_task_sets();
            assert_eq!(sets.len(), vms);
            assert!(sets.iter().all(|s| !s.is_empty()), "vms = {vms}");
        }
    }

    #[test]
    fn vm_task_sets_partition_all_tasks() {
        let w = TrialWorkload::generate(&TrialConfig::new(4, 0.8, 3));
        let total: usize = w.vm_task_sets().iter().map(|s| s.len()).sum();
        assert_eq!(total, w.tasks().len());
    }

    #[test]
    fn split_preload_fractions() {
        let w = TrialWorkload::generate(&TrialConfig::new(4, 0.8, 11));
        let n = w.tasks().len();
        let (pre, run) = w.split_preload(0.7);
        assert_eq!(pre.len() + run.len(), n);
        let expect = (n as f64 * 0.7).round() as usize;
        assert_eq!(pre.len(), expect);
        let (pre0, run0) = w.split_preload(0.0);
        assert!(pre0.is_empty());
        assert_eq!(run0.len(), n);
        let (pre1, run1) = w.split_preload(1.0);
        assert_eq!(pre1.len(), n);
        assert!(run1.is_empty());
    }

    #[test]
    fn split_preload_is_utilization_proportional() {
        let w = TrialWorkload::generate(&TrialConfig::new(4, 0.9, 2));
        for frac in [0.4, 0.7] {
            let (pre, _) = w.split_preload(frac);
            let pre_util: f64 = pre.iter().map(|t| t.task.utilization()).sum();
            let share = pre_util / w.total_utilization();
            assert!(
                (share - frac).abs() < 0.15,
                "preload {frac}: carries {share:.2} of utilization"
            );
        }
    }

    #[test]
    fn wcet_jitter_is_bounded() {
        let w = TrialWorkload::generate(&TrialConfig::new(4, 0.4, 5));
        for (t, spec) in w
            .tasks()
            .iter()
            .zip(SAFETY_TASKS.iter().chain(FUNCTION_TASKS.iter()))
        {
            assert_eq!(t.name, spec.name);
            let lo = (spec.wcet_slots as f64 * (1.0 - WCET_JITTER - 0.01)).floor() as u64;
            let hi = (spec.wcet_slots as f64 * (1.0 + WCET_JITTER + 0.01)).ceil() as u64;
            assert!(
                (lo..=hi).contains(&t.task.wcet()),
                "{}: wcet {} outside [{lo}, {hi}]",
                t.name,
                t.task.wcet()
            );
        }
    }

    #[test]
    fn criticality_flag() {
        let w = TrialWorkload::generate(&TrialConfig::new(2, 0.9, 8));
        assert!(w
            .tasks()
            .iter()
            .filter(|t| t.category == TaskCategory::Synthetic)
            .all(|t| !t.is_critical()));
        assert!(w
            .tasks()
            .iter()
            .filter(|t| t.category != TaskCategory::Synthetic)
            .all(|t| t.is_critical()));
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_rejected() {
        let _ = TrialConfig::new(0, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_target_rejected() {
        let _ = TrialConfig::new(2, 0.0, 1);
    }
}
