//! The common platform interface, the FIFO device model and the backend
//! the three FIFO baselines share.

use std::collections::VecDeque;

use ioguard_sim::rng::mix64;
use ioguard_sim::stats::OnlineStats;

/// One run-time I/O job as seen by a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlatformJob {
    /// Originating VM.
    pub vm: usize,
    /// Task identifier.
    pub task_id: u64,
    /// Release slot (the current slot at submission).
    pub release: u64,
    /// Device service demand in slots.
    pub wcet: u64,
    /// Absolute deadline slot (exclusive).
    pub deadline: u64,
    /// Response payload bytes on completion.
    pub response_bytes: u32,
    /// True when a miss fails the trial.
    pub critical: bool,
}

impl PlatformJob {
    /// Creates a job.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        vm: usize,
        task_id: u64,
        release: u64,
        wcet: u64,
        deadline: u64,
        response_bytes: u32,
        critical: bool,
    ) -> Self {
        Self {
            vm,
            task_id,
            release,
            wcet,
            deadline,
            response_bytes,
            critical,
        }
    }
}

/// Metrics common to every platform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlatformMetrics {
    /// Jobs finished before their deadline.
    pub completed_on_time: u64,
    /// Jobs finished after their deadline (they still consumed bandwidth).
    pub completed_late: u64,
    /// Jobs dropped (queue overflow) — never serviced.
    pub dropped: u64,
    /// Deadline misses (late + dropped).
    pub missed: u64,
    /// Misses of critical jobs (the success-ratio criterion).
    pub critical_missed: u64,
    /// Response bytes actually transferred (late transfers included — the
    /// wire does not know about deadlines).
    pub response_bytes: u64,
    /// Response bytes of *on-time* completions only: the goodput a control
    /// system can act on, and the Fig. 7 throughput numerator.
    pub on_time_bytes: u64,
    /// Completion latency in slots over all serviced jobs.
    pub latency: OnlineStats,
}

impl PlatformMetrics {
    /// True when no critical job missed.
    pub fn trial_success(&self) -> bool {
        self.critical_missed == 0
    }
}

/// The common interface the case-study engine drives.
pub trait IoPlatform {
    /// Display name matching the paper ("BS|Legacy", …).
    fn name(&self) -> &'static str;

    /// Submits a run-time I/O job released at the current slot. The
    /// platform never refuses — overflow is recorded as a drop/miss, as the
    /// hardware would.
    fn submit(&mut self, job: PlatformJob);

    /// Advances one time slot.
    fn step(&mut self);

    /// Advances to `slot`, reaching the state that calling [`step`] until
    /// `now() == slot` reaches; a `slot` at or before `now()` does nothing.
    /// A platform overrides it to jump over slots in which nothing happens.
    ///
    /// [`step`]: IoPlatform::step
    fn advance_to(&mut self, slot: u64) {
        while self.now() < slot {
            self.step();
        }
    }

    /// Current slot.
    fn now(&self) -> u64;

    /// Metrics so far.
    fn metrics(&self) -> PlatformMetrics;
}

/// A deadline-unaware, non-preemptive FIFO I/O device — the hardware
/// structure the paper identifies as the root predictability problem
/// ("the implementation of traditional I/O controllers relies on FIFO
/// queues, which forbids context switches at the hardware level").
///
/// Jobs are serviced strictly in arrival order and run to completion; a
/// late job keeps occupying the device (there is no notion of a deadline in
/// the hardware), so overload degrades both timeliness *and* throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct FifoDevice {
    queue: VecDeque<PlatformJob>,
    capacity: usize,
    /// Remaining service slots of the in-service job.
    in_service: Option<(PlatformJob, u64)>,
}

/// Default FIFO depth of the shared device backend.
pub const DEFAULT_FIFO_CAPACITY: usize = 64;

impl FifoDevice {
    /// Creates a device with the given queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Self {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            in_service: None,
        }
    }

    /// Enqueues a job; on overflow records a drop in `metrics` and discards
    /// the job.
    pub fn enqueue(&mut self, job: PlatformJob, metrics: &mut PlatformMetrics) {
        if self.queue.len() >= self.capacity {
            metrics.dropped += 1;
            metrics.missed += 1;
            metrics.critical_missed += u64::from(job.critical);
            return;
        }
        self.queue.push_back(job);
    }

    /// Services one slot; `now` is the slot being executed (completion time
    /// is `now + 1`). Updates `metrics` on completion.
    pub fn step(&mut self, now: u64, metrics: &mut PlatformMetrics) {
        if self.in_service.is_none() {
            if let Some(job) = self.queue.pop_front() {
                let wcet = job.wcet.max(1);
                self.in_service = Some((job, wcet));
            }
        }
        if let Some((job, remaining)) = self.in_service.take() {
            let remaining = remaining - 1;
            if remaining == 0 {
                let finish = now + 1;
                metrics.latency.push((finish - job.release) as f64);
                metrics.response_bytes += job.response_bytes as u64;
                if finish <= job.deadline {
                    metrics.completed_on_time += 1;
                    metrics.on_time_bytes += job.response_bytes as u64;
                } else {
                    metrics.completed_late += 1;
                    metrics.missed += 1;
                    metrics.critical_missed += u64::from(job.critical);
                }
            } else {
                self.in_service = Some((job, remaining));
            }
        }
    }

    /// Jobs waiting (not counting the one in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True when the device is serving a job.
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Total backlog in service slots (queued + in service).
    pub fn backlog_slots(&self) -> u64 {
        let queued: u64 = self.queue.iter().map(|j| j.wcet).sum();
        queued + self.in_service.as_ref().map_or(0, |(_, r)| *r)
    }

    /// Slots whose [`FifoDevice::step`] would only count down the job in
    /// service, or do nothing at all when the device is idle with an empty
    /// queue; the slot after them starts or completes a job.
    fn quiet_slots(&self) -> u64 {
        match self.in_service {
            Some((_, remaining)) => remaining - 1,
            None if self.queue.is_empty() => u64::MAX,
            None => 0,
        }
    }

    /// Passes `slots` of the [`FifoDevice::quiet_slots`] at once.
    fn skip(&mut self, slots: u64) {
        if let Some((_, remaining)) = &mut self.in_service {
            *remaining -= slots;
        }
    }
}

/// The backend the three FIFO baselines share: a delay line in front of a
/// [`FifoDevice`]. A baseline sends each job with the delay its path adds
/// (router traversal, VMM latency, or none). The job joins the device
/// queue in the slot it arrives, behind every job sent before it that
/// arrives in the same slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FifoBackend {
    device: FifoDevice,
    /// Jobs on their way to the device, ordered by arrival slot and, within
    /// a slot, by the order they were sent.
    delay_line: VecDeque<(u64, PlatformJob)>,
    now: u64,
    metrics: PlatformMetrics,
    device_steps: u64,
}

impl FifoBackend {
    /// A backend in front of a [`DEFAULT_FIFO_CAPACITY`]-deep device.
    pub(crate) fn new() -> Self {
        Self {
            device: FifoDevice::new(DEFAULT_FIFO_CAPACITY),
            delay_line: VecDeque::new(),
            now: 0,
            metrics: PlatformMetrics::default(),
            device_steps: 0,
        }
    }

    /// Sends `job`; it reaches the device queue `delay` slots from now.
    pub(crate) fn send(&mut self, job: PlatformJob, delay: u64) {
        let arrival = self.now + delay;
        let at = self.delay_line.partition_point(|&(a, _)| a <= arrival);
        self.delay_line.insert(at, (arrival, job));
    }

    /// Executes one slot: delivers the jobs arriving in it, then steps the
    /// device.
    pub(crate) fn step(&mut self) {
        while let Some(&(arrival, job)) = self.delay_line.front() {
            if arrival > self.now {
                break;
            }
            self.delay_line.pop_front();
            self.device.enqueue(job, &mut self.metrics);
        }
        self.device.step(self.now, &mut self.metrics);
        self.device_steps += 1;
        self.now += 1;
    }

    /// Advances to `slot`, stepping only the slots in which a job arrives,
    /// starts or completes, and jumping in O(1) over the rest.
    pub(crate) fn advance_to(&mut self, slot: u64) {
        while self.now < slot {
            let arrival = self.delay_line.front().map_or(slot, |&(a, _)| a);
            let next = self
                .now
                .saturating_add(self.device.quiet_slots())
                .min(arrival)
                .min(slot);
            if next > self.now {
                self.device.skip(next - self.now);
                self.now = next;
            } else {
                self.step();
            }
        }
    }

    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    pub(crate) fn metrics(&self) -> PlatformMetrics {
        self.metrics.clone()
    }

    /// Slots in which the device stepped since construction. Every
    /// [`FifoBackend::step`] counts one; [`FifoBackend::advance_to`] skips
    /// the slots in which no job arrives, starts or completes, so on a
    /// trial this stays far below the horizon.
    pub(crate) fn device_steps(&self) -> u64 {
        self.device_steps
    }
}

/// Deterministic per-job jitter in `[0, span)`, derived from the ids — the
/// stand-in for contention/VMM-latency noise that must be reproducible
/// across the systems ("the data input to the examined systems was
/// identical in each execution").
pub fn job_jitter(seed: u64, task_id: u64, release: u64, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    mix64(seed ^ task_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ release.rotate_left(17)) % span
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(task_id: u64, release: u64, wcet: u64, deadline: u64) -> PlatformJob {
        PlatformJob::new(0, task_id, release, wcet, deadline, 64, true)
    }

    #[test]
    fn fifo_services_in_arrival_order() {
        let mut dev = FifoDevice::new(8);
        let mut m = PlatformMetrics::default();
        dev.enqueue(job(1, 0, 2, 100), &mut m);
        dev.enqueue(job(2, 0, 1, 100), &mut m);
        dev.step(0, &mut m);
        dev.step(1, &mut m); // job 1 completes at t=2
        assert_eq!(m.completed_on_time, 1);
        dev.step(2, &mut m); // job 2 completes at t=3
        assert_eq!(m.completed_on_time, 2);
        assert_eq!(m.latency.max(), Some(3.0));
    }

    #[test]
    fn fifo_no_preemption_causes_priority_inversion() {
        // A tight job stuck behind a long lax one misses — the exact
        // failure EDF pools avoid.
        let mut dev = FifoDevice::new(8);
        let mut m = PlatformMetrics::default();
        dev.enqueue(job(1, 0, 50, 1000), &mut m); // long, lax
        dev.enqueue(job(2, 0, 2, 5), &mut m); // short, tight
        for t in 0..60 {
            dev.step(t, &mut m);
        }
        assert_eq!(m.completed_on_time, 1); // only the long one
        assert_eq!(m.completed_late, 1);
        assert_eq!(m.missed, 1);
        assert_eq!(m.critical_missed, 1);
        assert!(!m.trial_success());
    }

    #[test]
    fn late_jobs_still_consume_bandwidth() {
        let mut dev = FifoDevice::new(8);
        let mut m = PlatformMetrics::default();
        dev.enqueue(job(1, 0, 4, 2), &mut m); // can never make it
        for t in 0..4 {
            dev.step(t, &mut m);
        }
        assert_eq!(m.completed_late, 1);
        assert_eq!(m.response_bytes, 64, "late transfer still moves data");
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut dev = FifoDevice::new(2);
        let mut m = PlatformMetrics::default();
        for i in 0..4 {
            dev.enqueue(job(i, 0, 1, 100), &mut m);
        }
        assert_eq!(dev.queued(), 2);
        assert_eq!(m.dropped, 2);
        assert_eq!(m.missed, 2);
        assert_eq!(m.critical_missed, 2);
    }

    #[test]
    fn non_critical_misses_do_not_fail_trials() {
        let mut dev = FifoDevice::new(1);
        let mut m = PlatformMetrics::default();
        let mut j = job(1, 0, 4, 2);
        j.critical = false;
        dev.enqueue(j, &mut m);
        for t in 0..4 {
            dev.step(t, &mut m);
        }
        assert_eq!(m.missed, 1);
        assert_eq!(m.critical_missed, 0);
        assert!(m.trial_success());
    }

    #[test]
    fn backlog_accounting() {
        let mut dev = FifoDevice::new(8);
        let mut m = PlatformMetrics::default();
        dev.enqueue(job(1, 0, 3, 100), &mut m);
        dev.enqueue(job(2, 0, 2, 100), &mut m);
        assert_eq!(dev.backlog_slots(), 5);
        dev.step(0, &mut m);
        assert!(dev.busy());
        assert_eq!(dev.backlog_slots(), 4);
    }

    #[test]
    fn idle_device_steps_are_noops() {
        let mut dev = FifoDevice::new(2);
        let mut m = PlatformMetrics::default();
        for t in 0..10 {
            dev.step(t, &mut m);
        }
        assert_eq!(m, PlatformMetrics::default());
        assert!(!dev.busy());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for span in [1u64, 4, 16] {
            for id in 0..50 {
                let a = job_jitter(42, id, 100, span);
                let b = job_jitter(42, id, 100, span);
                assert_eq!(a, b);
                assert!(a < span);
            }
        }
        assert_eq!(job_jitter(42, 1, 1, 0), 0);
        // Different ids spread across the span.
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|id| job_jitter(7, id, 0, 16)).collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FifoDevice::new(0);
    }
}
