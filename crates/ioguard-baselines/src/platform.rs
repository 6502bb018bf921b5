//! The common platform interface and the FIFO backend the three FIFO
//! baselines share.

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

/// Default FIFO depth of the shared device backend: the jobs that may wait
/// behind the one in service.
pub const DEFAULT_FIFO_CAPACITY: usize = 64;

/// The backend the three FIFO baselines share: a delay line in front of a
/// deadline-unaware, non-preemptive FIFO device — the hardware structure
/// the paper identifies as the root predictability problem ("the
/// implementation of traditional I/O controllers relies on FIFO queues,
/// which forbids context switches at the hardware level").
///
/// A baseline sends each job with the delay its path adds (router
/// traversal, VMM latency, or none). The device takes the jobs arriving in
/// a slot in the order they were sent, and serves them strictly in that
/// order, each to completion. A late job keeps occupying the device (the
/// hardware knows no deadline), so overload degrades both timeliness and
/// throughput.
///
/// Such a schedule has a closed form per job, so the device is a
/// recurrence, not a per-slot loop. A job arriving in slot `a` is dropped
/// when [`DEFAULT_FIFO_CAPACITY`] accepted jobs with `start ≥ a` already
/// wait. Otherwise it starts at `max(a, f)`, where `f` is the finish of the
/// job accepted before it, and finishes `max(wcet, 1)` slots later. Its
/// completion folds into the metrics once the clock reaches its finish
/// slot, in FIFO order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FifoBackend {
    /// Jobs on their way to the device, ordered by arrival slot and, within
    /// a slot, by the order they were sent.
    delay_line: VecDeque<(u64, PlatformJob)>,
    /// Accepted jobs whose completion has not folded yet, in FIFO order, as
    /// `(start, finish, job)`. When a job arrives, the jobs finished by then
    /// have left and at most one of the rest has started, so this holds at
    /// most `DEFAULT_FIFO_CAPACITY + 1` jobs.
    device: VecDeque<(u64, u64, PlatformJob)>,
    now: u64,
    metrics: PlatformMetrics,
    device_events: u64,
}

impl FifoBackend {
    /// A backend in front of a [`DEFAULT_FIFO_CAPACITY`]-deep device.
    pub(crate) fn new() -> Self {
        Self {
            delay_line: VecDeque::new(),
            device: VecDeque::with_capacity(DEFAULT_FIFO_CAPACITY + 1),
            now: 0,
            metrics: PlatformMetrics::default(),
            device_events: 0,
        }
    }

    /// Sends `job`; it reaches the device `delay` slots from now.
    pub(crate) fn send(&mut self, job: PlatformJob, delay: u64) {
        let arrival = self.now + delay;
        let at = self.delay_line.partition_point(|&(a, _)| a <= arrival);
        self.delay_line.insert(at, (arrival, job));
    }

    /// Executes one slot.
    pub(crate) fn step(&mut self) {
        self.advance_to(self.now + 1);
    }

    /// Advances to `slot`: the device takes in every job arriving before
    /// `slot`, and the jobs finished by `slot` complete. A `slot` at or
    /// before `now()` does nothing.
    pub(crate) fn advance_to(&mut self, slot: u64) {
        while let Some(&(arrival, job)) = self.delay_line.front() {
            if arrival >= slot {
                break;
            }
            self.delay_line.pop_front();
            self.complete_to(arrival);
            self.take(arrival, job);
        }
        self.complete_to(slot);
        self.now = self.now.max(slot);
    }

    /// The device takes in `job`, arriving in slot `arrival`, after the
    /// jobs finished by then have completed: it drops the job when a full
    /// queue waits, and otherwise queues it behind the last accepted job.
    fn take(&mut self, arrival: u64, job: PlatformJob) {
        self.device_events += 1;
        let in_service = self
            .device
            .front()
            .is_some_and(|&(start, ..)| start < arrival);
        if self.device.len() - usize::from(in_service) >= DEFAULT_FIFO_CAPACITY {
            self.metrics.dropped += 1;
            self.metrics.missed += 1;
            self.metrics.critical_missed += u64::from(job.critical);
            return;
        }
        let start = self
            .device
            .back()
            .map_or(arrival, |&(_, finish, _)| finish.max(arrival));
        self.device.push_back((start, start + job.wcet.max(1), job));
    }

    /// Completes the jobs finished by `slot`, in FIFO order.
    fn complete_to(&mut self, slot: u64) {
        while let Some(&(_, finish, job)) = self.device.front() {
            if finish > slot {
                break;
            }
            self.device.pop_front();
            self.device_events += 1;
            let m = &mut self.metrics;
            m.latency.push((finish - job.release) as f64);
            m.response_bytes += u64::from(job.response_bytes);
            if finish <= job.deadline {
                m.completed_on_time += 1;
                m.on_time_bytes += u64::from(job.response_bytes);
            } else {
                m.completed_late += 1;
                m.missed += 1;
                m.critical_missed += u64::from(job.critical);
            }
        }
    }

    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    pub(crate) fn metrics(&self) -> PlatformMetrics {
        self.metrics.clone()
    }

    /// Device events since construction: one per job the device took in or
    /// dropped, one per completion. So it never exceeds two per job sent;
    /// a per-slot device would count every slot.
    pub(crate) fn device_steps(&self) -> u64 {
        self.device_events
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
    use proptest::prelude::*;

    fn job(task_id: u64, release: u64, wcet: u64, deadline: u64) -> PlatformJob {
        PlatformJob::new(0, task_id, release, wcet, deadline, 64, true)
    }

    /// The per-slot FIFO device the recurrence replaced, behind the same
    /// delay line: the reference model. Each slot delivers the jobs
    /// arriving in it to the queue (dropping them when `capacity` wait),
    /// starts the head job when the device is idle, and counts the job in
    /// service down by one slot.
    #[derive(Debug)]
    struct SlotFifo {
        delay_line: VecDeque<(u64, PlatformJob)>,
        queue: VecDeque<PlatformJob>,
        capacity: usize,
        /// The job in service and its remaining service slots.
        in_service: Option<(PlatformJob, u64)>,
        now: u64,
        metrics: PlatformMetrics,
    }

    impl SlotFifo {
        fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "fifo capacity must be positive");
            Self {
                delay_line: VecDeque::new(),
                queue: VecDeque::new(),
                capacity,
                in_service: None,
                now: 0,
                metrics: PlatformMetrics::default(),
            }
        }

        fn send(&mut self, job: PlatformJob, delay: u64) {
            let arrival = self.now + delay;
            let at = self.delay_line.partition_point(|&(a, _)| a <= arrival);
            self.delay_line.insert(at, (arrival, job));
        }

        fn step(&mut self) {
            while let Some(&(arrival, job)) = self.delay_line.front() {
                if arrival > self.now {
                    break;
                }
                self.delay_line.pop_front();
                if self.queue.len() >= self.capacity {
                    self.metrics.dropped += 1;
                    self.metrics.missed += 1;
                    self.metrics.critical_missed += u64::from(job.critical);
                } else {
                    self.queue.push_back(job);
                }
            }
            if self.in_service.is_none() {
                if let Some(job) = self.queue.pop_front() {
                    self.in_service = Some((job, job.wcet.max(1)));
                }
            }
            if let Some((job, remaining)) = self.in_service.take() {
                if remaining == 1 {
                    let finish = self.now + 1;
                    let m = &mut self.metrics;
                    m.latency.push((finish - job.release) as f64);
                    m.response_bytes += job.response_bytes as u64;
                    if finish <= job.deadline {
                        m.completed_on_time += 1;
                        m.on_time_bytes += job.response_bytes as u64;
                    } else {
                        m.completed_late += 1;
                        m.missed += 1;
                        m.critical_missed += u64::from(job.critical);
                    }
                } else {
                    self.in_service = Some((job, remaining - 1));
                }
            }
            self.now += 1;
        }

        /// Service slots still owed: queued jobs' demand plus what the job
        /// in service has left.
        fn backlog_slots(&self) -> u64 {
            let queued: u64 = self.queue.iter().map(|j| j.wcet).sum();
            queued + self.in_service.as_ref().map_or(0, |(_, r)| *r)
        }
    }

    /// The recurrence's counterpart of [`SlotFifo::backlog_slots`], over
    /// the jobs the device has taken in.
    fn backlog_slots(b: &FifoBackend) -> u64 {
        b.device
            .iter()
            .map(|&(start, finish, _)| finish - start.max(b.now))
            .sum()
    }

    /// True when a job taken in has started and not finished by `now()`.
    fn busy(b: &FifoBackend) -> bool {
        b.device.front().is_some_and(|&(start, ..)| start < b.now)
    }

    /// The backend and the reference model, fed and stepped together.
    struct Both {
        fast: FifoBackend,
        slow: SlotFifo,
    }

    impl Both {
        fn new() -> Self {
            Self {
                fast: FifoBackend::new(),
                slow: SlotFifo::new(DEFAULT_FIFO_CAPACITY),
            }
        }

        fn send(&mut self, job: PlatformJob) {
            self.fast.send(job, 0);
            self.slow.send(job, 0);
        }

        /// Steps both `slots` times and returns the backend's metrics,
        /// which must equal the reference model's.
        fn run(&mut self, slots: u64) -> PlatformMetrics {
            for _ in 0..slots {
                self.fast.step();
                self.slow.step();
            }
            assert_eq!(self.fast.metrics, self.slow.metrics);
            self.fast.metrics()
        }
    }

    #[test]
    fn fifo_services_in_arrival_order() {
        let mut fifo = Both::new();
        fifo.send(job(1, 0, 2, 100));
        fifo.send(job(2, 0, 1, 100));
        // Job 1 completes at t=2.
        assert_eq!(fifo.run(2).completed_on_time, 1);
        // Job 2 completes at t=3.
        let m = fifo.run(1);
        assert_eq!(m.completed_on_time, 2);
        assert_eq!(m.latency.max(), Some(3.0));
    }

    #[test]
    fn fifo_no_preemption_causes_priority_inversion() {
        // A tight job stuck behind a long lax one misses — the exact
        // failure EDF pools avoid.
        let mut fifo = Both::new();
        fifo.send(job(1, 0, 50, 1000)); // long, lax
        fifo.send(job(2, 0, 2, 5)); // short, tight
        let m = fifo.run(60);
        assert_eq!(m.completed_on_time, 1); // only the long one
        assert_eq!(m.completed_late, 1);
        assert_eq!(m.missed, 1);
        assert_eq!(m.critical_missed, 1);
        assert!(!m.trial_success());
    }

    #[test]
    fn late_jobs_still_consume_bandwidth() {
        let mut fifo = Both::new();
        fifo.send(job(1, 0, 4, 2)); // can never make it
        let m = fifo.run(4);
        assert_eq!(m.completed_late, 1);
        assert_eq!(m.response_bytes, 64, "late transfer still moves data");
    }

    #[test]
    fn overflow_drops_and_counts() {
        // Two more jobs than the queue holds arrive in one slot; the first
        // starts in it, the next 63 wait.
        let mut fifo = Both::new();
        for i in 0..DEFAULT_FIFO_CAPACITY as u64 + 2 {
            fifo.send(job(i, 0, 2, 1_000));
        }
        let m = fifo.run(1);
        assert_eq!(fifo.fast.device.len(), DEFAULT_FIFO_CAPACITY);
        assert_eq!(fifo.slow.queue.len(), DEFAULT_FIFO_CAPACITY - 1);
        assert!(busy(&fifo.fast));
        assert_eq!(m.dropped, 2);
        assert_eq!(m.missed, 2);
        assert_eq!(m.critical_missed, 2);
    }

    #[test]
    fn non_critical_misses_do_not_fail_trials() {
        let mut fifo = Both::new();
        let mut j = job(1, 0, 4, 2);
        j.critical = false;
        fifo.send(j);
        let m = fifo.run(4);
        assert_eq!(m.missed, 1);
        assert_eq!(m.critical_missed, 0);
        assert!(m.trial_success());
    }

    #[test]
    fn backlog_accounting() {
        let mut fifo = Both::new();
        fifo.send(job(1, 0, 3, 100));
        fifo.send(job(2, 0, 2, 100));
        fifo.run(1);
        assert!(busy(&fifo.fast));
        assert!(fifo.slow.in_service.is_some());
        assert_eq!(backlog_slots(&fifo.fast), 4);
        assert_eq!(fifo.slow.backlog_slots(), 4);
        fifo.run(4);
        assert!(!busy(&fifo.fast));
        assert_eq!(backlog_slots(&fifo.fast), 0);
        assert_eq!(fifo.slow.backlog_slots(), 0);
    }

    #[test]
    fn idle_device_steps_are_noops() {
        let mut fifo = Both::new();
        assert_eq!(fifo.run(10), PlatformMetrics::default());
        assert!(!busy(&fifo.fast));
        assert_eq!(fifo.fast.device_steps(), 0);
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

    /// The reference model, like the device it stands for, refuses a
    /// queue that holds nothing.
    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SlotFifo::new(0);
    }

    /// `latency` as bits, so that the comparison is exact.
    fn latency_bits(m: &PlatformMetrics) -> [u64; 5] {
        let l = &m.latency;
        [
            l.count(),
            l.mean().to_bits(),
            l.population_variance().to_bits(),
            l.min().map_or(0, f64::to_bits),
            l.max().map_or(0, f64::to_bits),
        ]
    }

    /// One differential-test job: `(release gap, delay, wcet, deadline
    /// headroom, critical)`.
    type Spec = (u64, u64, u64, u64, bool);

    /// `jobs` plus `bursts` of `(slot, jobs, delay)`, all of a burst's jobs
    /// released in one slot with one delay, as `(release, delay, job)`
    /// sorted by release; jobs of one slot keep their order.
    fn fifo_stream(jobs: &[Spec], bursts: &[(u64, u64, u64)]) -> Vec<(u64, u64, PlatformJob)> {
        let mut specs = Vec::new();
        let mut release = 0u64;
        for &(gap, delay, wcet, headroom, critical) in jobs {
            release += gap;
            specs.push((release, delay, wcet, headroom, critical));
        }
        for &(slot, count, delay) in bursts {
            for k in 0..count {
                specs.push((slot, delay, k % 9, 30 + k, k % 3 != 0));
            }
        }
        specs.sort_by_key(|&(release, ..)| release);
        specs
            .iter()
            .enumerate()
            .map(|(i, &(release, delay, wcet, headroom, critical))| {
                let id = i as u64 + 1;
                let deadline = release + wcet + headroom;
                let job =
                    PlatformJob::new((id % 2) as usize, id, release, wcet, deadline, 64, critical);
                (release, delay, job)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The device serves strictly in arrival order: the k-th
        /// completion comes exactly after the first k service times,
        /// although later arrivals have tighter deadlines.
        #[test]
        fn fifo_completion_order_is_arrival_order(wcets in prop::collection::vec(1u64..6, 1..20)) {
            let mut fifo = FifoBackend::new();
            for (i, &w) in wcets.iter().enumerate() {
                // Adversarial deadlines: later arrivals get tighter deadlines.
                let deadline = 10_000 - i as u64 * 100;
                fifo.send(PlatformJob::new(0, i as u64, 0, w, deadline, 64, true), 0);
            }
            let mut completions: Vec<(u64, u64)> = Vec::new(); // (finish, id)
            let mut prev = 0u64;
            for t in 0..10_000u64 {
                fifo.step();
                let m = fifo.metrics();
                let done = m.completed_on_time + m.completed_late;
                if done > prev {
                    prev = done;
                    completions.push((t, done));
                }
                if done == wcets.len() as u64 {
                    break;
                }
            }
            // k-th completion happens exactly after the first k service times.
            let mut acc = 0u64;
            for (k, &w) in wcets.iter().enumerate() {
                acc += w;
                prop_assert_eq!(completions[k].0 + 1, acc, "job {} completion time", k);
            }
        }

        /// The recurrence is the per-slot FIFO: on one stream of delayed
        /// jobs, with bursts of 60–100 jobs in one slot that overflow the
        /// 64-deep queue, the backend driven by `advance_to` once per
        /// release slot, or by `step` on every slot, has the reference
        /// model's metrics, `latency` bits included, at every release slot
        /// and at the end.
        #[test]
        fn recurrence_equals_the_per_slot_fifo(
            jobs in prop::collection::vec((0u64..4, 0u64..21, 0u64..9, 0u64..60, any::<bool>()), 1..120),
            bursts in prop::collection::vec((0u64..150, 60u64..101, 0u64..21), 0..3),
            jump in any::<bool>(),
        ) {
            let stream = fifo_stream(&jobs, &bursts);
            let end = stream.last().map_or(0, |&(release, ..)| release) + 1_500;
            let mut checkpoints: Vec<u64> = stream.iter().map(|&(release, ..)| release).collect();
            checkpoints.dedup();
            checkpoints.push(end);
            let mut fast = FifoBackend::new();
            let mut slow = SlotFifo::new(DEFAULT_FIFO_CAPACITY);
            let mut offers = stream.iter().peekable();
            for slot in checkpoints {
                if jump {
                    fast.advance_to(slot);
                }
                while slow.now < slot {
                    if !jump {
                        fast.step();
                    }
                    slow.step();
                }
                while let Some(&(_, delay, job)) = offers.next_if(|&&(release, ..)| release == slot) {
                    fast.send(job, delay);
                    slow.send(job, delay);
                }
                prop_assert_eq!(fast.now(), slot);
                prop_assert_eq!(&fast.metrics, &slow.metrics, "at slot {}", slot);
                prop_assert_eq!(latency_bits(&fast.metrics), latency_bits(&slow.metrics));
            }
            // The device queue never grew past the bound it was allocated at.
            prop_assert_eq!(fast.device.capacity(), FifoBackend::new().device.capacity());
        }
    }
}
