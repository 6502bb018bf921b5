//! BS|Legacy: an NoC system without virtualization support.
//!
//! Resource management is left entirely to the routers/arbiters. An I/O
//! request crosses the mesh before reaching the device, so its arrival at
//! the device FIFO is delayed by a contention-dependent router latency that
//! grows with the number of active cores (the Fig. 1 path). The device
//! itself is the conventional deadline-unaware FIFO.

use crate::platform::{job_jitter, FifoBackend, IoPlatform, PlatformJob, PlatformMetrics};

/// Router traversal: fixed hop latency plus a contention jitter whose span
/// scales with the VM count (more cores → more arbitration conflicts).
const BASE_HOP_SLOTS: u64 = 1;
const CONTENTION_SLOTS_PER_VM: u64 = 2;
/// Per-VM service interference: percent chance per VM that request and
/// response crossing the loaded mesh stretch the transfer by one slot.
const INTERFERENCE_PCT_PER_VM: u64 = 3;

/// The legacy (non-virtualized) platform.
#[derive(Debug, Clone)]
pub struct LegacyPlatform {
    /// The device FIFO behind the NoC; its delay line holds the jobs in
    /// flight across the routers.
    backend: FifoBackend,
    vms: usize,
    seed: u64,
}

impl LegacyPlatform {
    /// Creates the platform for `vms` cores.
    pub fn new(vms: usize, seed: u64) -> Self {
        Self {
            backend: FifoBackend::new(),
            vms,
            seed,
        }
    }

    /// Device events since construction: one per job the device took in
    /// or dropped, one per completion, whatever slots the platform was
    /// advanced over.
    pub fn device_steps(&self) -> u64 {
        self.backend.device_steps()
    }

    /// The router delay this platform imposes on a specific job.
    fn noc_delay(&self, job: &PlatformJob) -> u64 {
        let span = CONTENTION_SLOTS_PER_VM * self.vms as u64;
        BASE_HOP_SLOTS + job_jitter(self.seed, job.task_id, job.release, span.max(1))
    }
}

impl IoPlatform for LegacyPlatform {
    fn name(&self) -> &'static str {
        "BS|Legacy"
    }

    fn submit(&mut self, job: PlatformJob) {
        let delay = self.noc_delay(&job);
        let mut job = job;
        job.wcet += u64::from(
            job_jitter(self.seed ^ 0x1E6, job.task_id, job.release, 100)
                < INTERFERENCE_PCT_PER_VM * self.vms as u64,
        );
        self.backend.send(job, delay);
    }

    fn step(&mut self) {
        self.backend.step();
    }

    fn advance_to(&mut self, slot: u64) {
        self.backend.advance_to(slot);
    }

    fn now(&self) -> u64 {
        self.backend.now()
    }

    fn metrics(&self) -> PlatformMetrics {
        self.backend.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(task_id: u64, release: u64, wcet: u64, deadline: u64) -> PlatformJob {
        PlatformJob::new(0, task_id, release, wcet, deadline, 64, true)
    }

    #[test]
    fn light_load_completes() {
        let mut p = LegacyPlatform::new(4, 1);
        p.submit(job(1, 0, 2, 100));
        for _ in 0..30 {
            p.step();
        }
        assert_eq!(p.metrics().completed_on_time, 1);
        assert!(p.metrics().trial_success());
        // Latency includes the NoC traversal.
        assert!(p.metrics().latency.mean() >= 3.0);
    }

    #[test]
    fn more_vms_means_more_router_delay() {
        // Average NoC delay over many jobs grows with VM count.
        let avg_delay = |vms: usize| {
            let p = LegacyPlatform::new(vms, 3);
            let total: u64 = (0..200).map(|i| p.noc_delay(&job(i, 0, 1, 100))).sum();
            total as f64 / 200.0
        };
        assert!(avg_delay(8) > avg_delay(4) + 1.0);
        assert!(avg_delay(4) > avg_delay(1));
    }

    #[test]
    fn tight_deadline_lost_to_router_jitter() {
        // With 8 VMs the jitter span is 16 slots; a deadline 3 slots out
        // will be missed by most jobs.
        let mut p = LegacyPlatform::new(8, 5);
        for i in 0..20 {
            p.submit(job(i, 0, 1, 3));
        }
        for _ in 0..100 {
            p.step();
        }
        assert!(p.metrics().missed > 0, "{:?}", p.metrics());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut p = LegacyPlatform::new(4, seed);
            for i in 0..50 {
                p.submit(job(i, 0, 1 + i % 3, 40));
            }
            for _ in 0..300 {
                p.step();
            }
            (
                p.metrics().completed_on_time,
                p.metrics().missed,
                p.metrics().latency.mean(),
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(LegacyPlatform::new(1, 0).name(), "BS|Legacy");
    }
}
