//! The P-channel: pre-defined I/O tasks driven by the Time Slot Table.
//!
//! At system initialization the pre-defined (periodic) I/O tasks are loaded
//! into the memory banks together with their timing information, grouped in
//! the Time Slot Table σ\*. During execution the executor compares the
//! global timer against the table and fires the owning task's next
//! operation in every occupied slot — with zero contention and zero jitter,
//! which is where I/O-GUARD's predictability for pre-loaded tasks comes
//! from.

// lint: allow(indexing, file) — `owners` has hyper-period length and every
// index is reduced modulo that length first; `tasks[task_index]` uses the
// enumerate() index the job list was built from.

use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{checked_lcm, SporadicTask};

use crate::error::HvError;

/// One pre-defined task loaded into the banks.
#[derive(Debug, Clone, PartialEq)]
pub struct PredefinedTask {
    /// Caller-assigned identifier.
    pub task_id: u64,
    /// Owning VM (for accounting; execution needs no VM involvement).
    pub vm: usize,
    /// Timing model (strictly periodic at run time).
    pub task: SporadicTask,
    /// Response payload bytes emitted per completed job.
    pub response_bytes: u32,
    /// Start time of the first job within the hyper-period (the "start
    /// times" loaded with the tasks at initialization). Staggering offsets
    /// flattens table occupancy so free slots stay evenly distributed for
    /// the R-channel.
    pub start_offset: u64,
}

/// A P-channel table entry: which pre-defined task owns a given occupied
/// slot of σ\*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOwner {
    /// Index into the P-channel's task bank.
    pub task_index: usize,
    /// True when this slot completes one job of the task.
    pub completes_job: bool,
}

/// The P-channel: banks + σ\* + executor state.
#[derive(Debug, Clone, PartialEq)]
pub struct PChannel {
    tasks: Vec<PredefinedTask>,
    table: TimeSlotTable,
    /// Owner of each slot in one hyper-period (None = free slot).
    owners: Vec<Option<SlotOwner>>,
}

impl PChannel {
    /// Builds the channel by laying the tasks' jobs out over one
    /// hyper-period with EDF — the offline σ\* construction — retaining
    /// slot ownership so the executor knows *which* task fires.
    ///
    /// # Errors
    ///
    /// [`HvError::TableConstruction`] when the tasks overflow `max_len`
    /// slots of hyper-period or do not fit their deadlines.
    pub fn build(tasks: Vec<PredefinedTask>, max_len: u64) -> Result<Self, HvError> {
        let hyper = tasks
            .iter()
            .map(|t| t.task.period())
            .try_fold(1u64, checked_lcm)
            .ok_or_else(|| HvError::TableConstruction {
                reason: "hyper-period overflows u64".into(),
            })?;
        if hyper > max_len {
            return Err(HvError::TableConstruction {
                reason: format!("hyper-period {hyper} exceeds limit {max_len}"),
            });
        }
        let h = hyper as usize;
        let mut owners: Vec<Option<SlotOwner>> = vec![None; h];

        // All jobs over one hyper-period, EDF-ordered. Start offsets shift
        // each task's release phase; the schedule is cyclic, so placement
        // wraps modulo the hyper-period.
        let mut jobs: Vec<(u64, u64, usize)> = Vec::new(); // (deadline, release, task)
        for (idx, t) in tasks.iter().enumerate() {
            let offset = t.start_offset % t.task.period();
            let mut release = offset;
            while release < hyper.saturating_add(offset) {
                jobs.push((release.saturating_add(t.task.deadline()), release, idx));
                release = release.saturating_add(t.task.period());
            }
        }
        jobs.sort_unstable();
        // Slots placed for the current job; one buffer serves every job.
        let mut chosen: Vec<u64> = Vec::new();
        for (deadline, release, task_index) in jobs {
            let wcet = tasks[task_index].task.wcet();
            let window = deadline - release;
            // Pass 1 — *spread* placement: aim each of the job's slots at an
            // evenly strided target inside [release, deadline), probing
            // forward past collisions. Spreading keeps free slots uniformly
            // distributed across the table, so the R-channel's supply bound
            // sbf(σ, t) stays proportional to t instead of collapsing to
            // zero over long packed stretches (a greedy ASAP layout can
            // leave multi-hundred-slot windows with no free slot at all).
            chosen.clear();
            for k in 0..wcet {
                let target = release.saturating_add(k * window / wcet);
                let mut slot = target.max(release);
                while slot < deadline {
                    let s = (slot % hyper) as usize;
                    if owners[s].is_none() {
                        owners[s] = Some(SlotOwner {
                            task_index,
                            completes_job: false,
                        });
                        chosen.push(slot);
                        break;
                    }
                    slot = slot.saturating_add(1);
                }
            }
            // Pass 2 — greedy fallback for any slot the strided probe could
            // not place (heavily packed windows): take the earliest free
            // slots of the window, as the exact EDF layout would.
            if (chosen.len() as u64) < wcet {
                let mut slot = release;
                while (chosen.len() as u64) < wcet && slot < deadline {
                    let s = (slot % hyper) as usize;
                    if owners[s].is_none() {
                        owners[s] = Some(SlotOwner {
                            task_index,
                            completes_job: false,
                        });
                        chosen.push(slot);
                    }
                    slot = slot.saturating_add(1);
                }
            }
            if (chosen.len() as u64) < wcet {
                return Err(HvError::TableConstruction {
                    reason: format!(
                        "pre-defined task {} (release {release}) misses its table deadline",
                        tasks[task_index].task_id
                    ),
                });
            }
            // The chronologically last slot of the job completes it. A
            // zero-WCET task places no slots and has nothing to complete.
            let Some(&last) = chosen.iter().max() else {
                continue;
            };
            owners[(last % hyper) as usize] = Some(SlotOwner {
                task_index,
                completes_job: true,
            });
        }
        let mask: Vec<bool> = owners.iter().map(Option::is_none).collect();
        let table = TimeSlotTable::from_mask(mask).map_err(|e| HvError::TableConstruction {
            reason: e.to_string(),
        })?;
        Ok(Self {
            tasks,
            table,
            owners,
        })
    }

    /// The Time Slot Table σ\* the R-channel schedules around.
    pub fn table(&self) -> &TimeSlotTable {
        &self.table
    }

    /// The loaded pre-defined tasks.
    pub fn tasks(&self) -> &[PredefinedTask] {
        &self.tasks
    }

    /// Executor lookup: at global slot `t`, the P-channel either fires one
    /// slot of a pre-defined task (returns its owner record) or leaves the
    /// slot to the R-channel (`None`).
    pub fn fire(&self, t: u64) -> Option<SlotOwner> {
        let h = self.owners.len() as u64;
        self.owners[(t % h) as usize]
    }

    /// The owner of slot `index` of one hyper-period (`None`: free), for
    /// an executor that keeps a table cursor instead of reducing the
    /// global timer as [`PChannel::fire`] does.
    pub(crate) fn owner_at(&self, index: usize) -> Option<SlotOwner> {
        self.owners.get(index).copied().flatten()
    }

    /// Hyper-period length of the table.
    pub fn hyper_period(&self) -> u64 {
        self.owners.len() as u64
    }

    /// Total pre-defined utilization (occupied fraction of σ\*).
    pub fn utilization(&self) -> f64 {
        1.0 - self.table.free_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predefined(task_id: u64, period: u64, wcet: u64) -> PredefinedTask {
        PredefinedTask {
            task_id,
            vm: 0,
            task: SporadicTask::implicit(period, wcet).unwrap(),
            response_bytes: 64,
            start_offset: 0,
        }
    }

    #[test]
    fn empty_channel_is_all_free() {
        let p = PChannel::build(Vec::new(), 1).unwrap();
        assert_eq!(p.hyper_period(), 1);
        assert_eq!(p.fire(0), None);
        assert_eq!(p.fire(12345), None);
        assert_eq!(p.utilization(), 0.0);
        assert!(p.tasks().is_empty());
    }

    #[test]
    fn single_task_fires_once_per_period() {
        let p = PChannel::build(vec![predefined(1, 4, 1)], 100).unwrap();
        assert_eq!(p.hyper_period(), 4);
        let fires: Vec<bool> = (0..8).map(|t| p.fire(t).is_some()).collect();
        assert_eq!(
            fires,
            vec![true, false, false, false, true, false, false, false]
        );
        let owner = p.fire(0).unwrap();
        assert_eq!(owner.task_index, 0);
        assert!(owner.completes_job, "wcet 1 completes in its only slot");
    }

    #[test]
    fn multi_slot_job_completes_on_last_slot() {
        // Spread layout: (T=5, C=3) targets slots 0, 1, 3; the
        // chronologically last placed slot completes the job.
        let p = PChannel::build(vec![predefined(1, 5, 3)], 100).unwrap();
        let fired: Vec<bool> = (0..5).map(|t| p.fire(t).is_some()).collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 3);
        let completing: Vec<u64> = (0..5)
            .filter(|&t| p.fire(t).map(|o| o.completes_job).unwrap_or(false))
            .collect();
        assert_eq!(completing.len(), 1, "exactly one completing slot per job");
        let last_fired = (0..5).filter(|&t| p.fire(t).is_some()).max().unwrap();
        assert_eq!(completing[0], last_fired);
    }

    #[test]
    fn two_tasks_interleave_by_edf() {
        // (T=4, C=1) and (T=8, C=2): hyper 8, occupancy 4.
        let p = PChannel::build(vec![predefined(1, 4, 1), predefined(2, 8, 2)], 100).unwrap();
        assert_eq!(p.hyper_period(), 8);
        let occupied = (0..8).filter(|&t| p.fire(t).is_some()).count();
        assert_eq!(occupied, 4);
        assert!((p.utilization() - 0.5).abs() < 1e-12);
        // Each task fires exactly its demand per hyper-period.
        let t1_slots = (0..8)
            .filter(|&t| p.fire(t).map(|o| o.task_index) == Some(0))
            .count();
        let t2_slots = (0..8)
            .filter(|&t| p.fire(t).map(|o| o.task_index) == Some(1))
            .count();
        assert_eq!(t1_slots, 2);
        assert_eq!(t2_slots, 2);
    }

    #[test]
    fn table_matches_owner_mask() {
        let p = PChannel::build(vec![predefined(1, 6, 2)], 100).unwrap();
        for t in 0..6 {
            assert_eq!(p.table().is_free(t), p.fire(t).is_none());
        }
    }

    #[test]
    fn overload_rejected() {
        let r = PChannel::build(vec![predefined(1, 2, 2), predefined(2, 2, 1)], 100);
        assert!(matches!(r, Err(HvError::TableConstruction { .. })));
    }

    #[test]
    fn hyper_period_limit() {
        let r = PChannel::build(vec![predefined(1, 997, 1), predefined(2, 991, 1)], 1000);
        assert!(matches!(r, Err(HvError::TableConstruction { .. })));
    }

    #[test]
    fn fire_wraps_hyper_period() {
        let p = PChannel::build(vec![predefined(1, 3, 1)], 100).unwrap();
        for k in 0..5 {
            assert!(p.fire(3 * k).is_some());
            assert!(p.fire(3 * k + 1).is_none());
        }
    }

    #[test]
    fn constrained_deadline_layout_respects_deadline() {
        let tight = PredefinedTask {
            task_id: 7,
            vm: 1,
            task: SporadicTask::new(10, 2, 3).unwrap(),
            response_bytes: 32,
            start_offset: 0,
        };
        let p = PChannel::build(vec![tight], 100).unwrap();
        // Both slots of each job must land within [release, release+3).
        for k in 0..3u64 {
            let placed = (10 * k..10 * k + 3)
                .filter(|&t| p.fire(t).is_some())
                .count();
            assert_eq!(placed, 2, "job {k}");
        }
    }
}
