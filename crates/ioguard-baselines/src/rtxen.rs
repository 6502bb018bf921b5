//! BS|RT-XEN: software virtualization with real-time patches.
//!
//! Every I/O request traps into the software VMM ("trap into VMM"): the
//! trap, request copy and backend dispatch inflate the device service time
//! by a per-operation overhead, and the VMM's VCPU scheduling adds a
//! release latency that grows with the number of VMs sharing the cores.
//! The device backend remains the conventional FIFO. Both mechanisms —
//! software path overhead and coarse scheduling quanta — are what the
//! paper's Obs. 1/3/4 attribute RT-Xen's losses to.

use crate::platform::{job_jitter, FifoBackend, IoPlatform, PlatformJob, PlatformMetrics};

/// Probability (percent) that the software path (trap + copy + dispatch)
/// costs one extra slot for a job — the quantized rendering of a ~10 µs
/// mean per-operation VMM cost.
const VMM_FIXED_OVERHEAD_PCT: u64 = 25;
/// Relative service inflation of the para-virtualized backend (rounded, so
/// it only bites on larger transfers).
const VMM_RELATIVE_OVERHEAD: f64 = 0.10;
/// Per-VM on-chip/VCPU interference: percent chance per VM of one extra
/// service slot.
const INTERFERENCE_PCT_PER_VM: u64 = 3;
/// Base VMM scheduling latency span; grows with the VM count.
const VMM_QUANTUM_BASE_SLOTS: u64 = 2;
const VMM_QUANTUM_PER_VM_SLOTS: u64 = 1;

/// The RT-Xen-like software-virtualized platform.
#[derive(Debug, Clone)]
pub struct RtXenPlatform {
    /// The backend device FIFO; its delay line holds the jobs waiting in
    /// the VMM.
    backend: FifoBackend,
    vms: usize,
    seed: u64,
}

impl RtXenPlatform {
    /// Creates the platform for `vms` virtual machines.
    pub fn new(vms: usize, seed: u64) -> Self {
        Self {
            backend: FifoBackend::new(),
            vms,
            seed,
        }
    }

    /// Slots in which the device stepped since construction (see
    /// [`IoPlatform::advance_to`], which skips the slots where nothing
    /// happens).
    pub fn device_steps(&self) -> u64 {
        self.backend.device_steps()
    }

    /// VMM scheduling latency for a specific job.
    fn vmm_latency(&self, job: &PlatformJob) -> u64 {
        let span = VMM_QUANTUM_BASE_SLOTS + VMM_QUANTUM_PER_VM_SLOTS * self.vms as u64;
        job_jitter(self.seed ^ 0xF00D, job.task_id, job.release, span.max(1))
    }

    /// Service time after software inflation, for a specific job.
    fn inflated_wcet(&self, job: &PlatformJob) -> u64 {
        let fixed = u64::from(
            job_jitter(self.seed ^ 0x51ED, job.task_id, job.release, 100) < VMM_FIXED_OVERHEAD_PCT,
        );
        let interference = u64::from(
            job_jitter(self.seed ^ 0x1F7E, job.task_id, job.release, 100)
                < INTERFERENCE_PCT_PER_VM * self.vms as u64,
        );
        job.wcet + fixed + interference + (job.wcet as f64 * VMM_RELATIVE_OVERHEAD).round() as u64
    }
}

impl IoPlatform for RtXenPlatform {
    fn name(&self) -> &'static str {
        "BS|RT-XEN"
    }

    fn submit(&mut self, job: PlatformJob) {
        let delay = self.vmm_latency(&job);
        let mut backend_job = job;
        backend_job.wcet = self.inflated_wcet(&job);
        self.backend.send(backend_job, delay);
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
    use crate::platform::FifoDevice;

    fn job(task_id: u64, release: u64, wcet: u64, deadline: u64) -> PlatformJob {
        PlatformJob::new(0, task_id, release, wcet, deadline, 64, true)
    }

    #[test]
    fn software_overhead_inflates_service_on_average() {
        let p = RtXenPlatform::new(4, 1);
        let n = 1000u64;
        let total: u64 = (0..n).map(|i| p.inflated_wcet(&job(i, 0, 4, 100))).sum();
        let mean = total as f64 / n as f64;
        // Raw wcet 4 plus ~0.25 fixed + ~0.12 interference + 0 relative.
        assert!(mean > 4.15 && mean < 4.8, "mean inflated wcet {mean}");
        // Large transfers also pay the relative term.
        let big = p.inflated_wcet(&job(1, 0, 20, 1000));
        assert!(big >= 22, "relative inflation on big ops: {big}");
    }

    #[test]
    fn light_load_still_completes() {
        let mut p = RtXenPlatform::new(4, 1);
        p.submit(job(1, 0, 2, 100));
        for _ in 0..40 {
            p.step();
        }
        assert_eq!(p.metrics().completed_on_time, 1);
    }

    #[test]
    fn rtxen_latency_exceeds_raw_service() {
        let mut p = RtXenPlatform::new(4, 1);
        for i in 0..10 {
            p.submit(job(i, 0, 2, 1000));
        }
        for _ in 0..200 {
            p.step();
        }
        // Raw service would be 2 slots; software path makes it ≥ 4 plus
        // queueing.
        assert!(p.metrics().latency.mean() >= 4.0, "{:?}", p.metrics());
    }

    #[test]
    fn same_workload_misses_earlier_than_a_raw_fifo() {
        // A workload that a raw FIFO (BlueVisor-like) would meet can fail
        // under RT-Xen's inflation: 12 jobs × wcet 8 with deadline 100 fit
        // raw (96 slots) but not inflated (~106 slots).
        let p = RtXenPlatform::new(8, 3);
        let run = |inflate: bool| {
            let mut m = PlatformMetrics::default();
            let mut dev = FifoDevice::new(64);
            for i in 0..12 {
                let mut j = job(i, 0, 8, 100);
                if inflate {
                    j.wcet = p.inflated_wcet(&j);
                }
                dev.enqueue(j, &mut m);
            }
            for t in 0..250 {
                dev.step(t, &mut m);
            }
            m.missed
        };
        assert_eq!(run(false), 0);
        assert!(run(true) > 0);
    }

    #[test]
    fn vmm_latency_grows_with_vms() {
        let avg = |vms: usize| {
            let p = RtXenPlatform::new(vms, 3);
            let total: u64 = (0..200).map(|i| p.vmm_latency(&job(i, 0, 1, 10))).sum();
            total as f64 / 200.0
        };
        assert!(avg(8) > avg(4));
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut p = RtXenPlatform::new(8, 77);
            for i in 0..60 {
                p.submit(job(i, 0, 1 + i % 4, 60));
            }
            for _ in 0..500 {
                p.step();
            }
            (p.metrics().completed_on_time, p.metrics().missed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(RtXenPlatform::new(1, 0).name(), "BS|RT-XEN");
    }
}
