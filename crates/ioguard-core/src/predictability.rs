//! Predictability experiment: response-latency distributions.
//!
//! The paper's abstract promises "time-predictability and performance …
//! simultaneously"; Sec. V examines predictability through the case study's
//! variance remarks. This module measures it directly: drive each system
//! with the same periodic workload and record the *distribution* of
//! response latencies of one probe task. A predictable system shows a
//! narrow distribution (small p99 − p50); FIFO systems under load show a
//! heavy tail.

use ioguard_baselines::platform::{IoPlatform, PlatformJob};
use ioguard_sim::stats::Histogram;

use crate::casestudy::SystemUnderTest;
use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_hypervisor::gsched::GschedPolicy;

/// Configuration of the latency-profile experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictabilityConfig {
    /// Probe task period in slots.
    pub probe_period: u64,
    /// Probe task service demand in slots.
    pub probe_wcet: u64,
    /// Number of background (interfering) tasks.
    pub background_tasks: u64,
    /// Background task service demand in slots.
    pub background_wcet: u64,
    /// Background release period in slots.
    pub background_period: u64,
    /// Horizon in slots.
    pub horizon: u64,
    /// Seed for the platform's internal jitter models.
    pub seed: u64,
}

impl Default for PredictabilityConfig {
    fn default() -> Self {
        Self {
            probe_period: 100,
            probe_wcet: 2,
            background_tasks: 6,
            background_wcet: 12,
            background_period: 100,
            horizon: 40_000,
            seed: 7,
        }
    }
}

/// Latency profile of one system.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProfile {
    /// System label.
    pub system: String,
    /// Median latency of the probe task, in slots.
    pub p50: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// Worst observed latency.
    pub max: f64,
    /// Probe jobs that missed their (period-implicit) deadline.
    pub missed: u64,
}

impl LatencyProfile {
    /// Jitter proxy: p99 − p50 (slots). Small = predictable.
    pub fn spread(&self) -> f64 {
        self.p99 - self.p50
    }
}

fn build(system: SystemUnderTest, vms: usize, seed: u64) -> Box<dyn IoPlatform> {
    match system {
        SystemUnderTest::Legacy => Box::new(LegacyPlatform::new(vms, seed)),
        SystemUnderTest::RtXen => Box::new(RtXenPlatform::new(vms, seed)),
        SystemUnderTest::BlueVisor => Box::new(BlueVisorPlatform::new(vms, seed)),
        SystemUnderTest::IoGuard { .. } | SystemUnderTest::IoGuardServerIsolated { .. } => {
            Box::new(
                IoGuardPlatform::new(vms, vec![], GschedPolicy::GlobalEdf)
                    .expect("no pre-defined tasks: always constructible"),
            )
        }
    }
}

/// Runs the latency-profile experiment for one system.
///
/// The probe task (VM 0) releases every `probe_period` slots; background
/// tasks (VM 1) release *bulk* jobs in the same phase — the adversarial
/// pattern where FIFO queues head-of-line-block the probe.
pub fn latency_profile(system: SystemUnderTest, config: &PredictabilityConfig) -> LatencyProfile {
    let mut platform = build(system, 2, config.seed);
    // Probe completions are identified exactly by a byte signature: probe
    // responses are 64 B, background responses 256 B, and at most one job
    // completes per slot on the single shared device — so each step's
    // `response_bytes` delta names the completing job class. Probe jobs
    // complete in release order in every discipline (equal relative
    // deadlines), so the oldest outstanding release matches.
    const PROBE_BYTES: u64 = 64;
    let mut hist = Histogram::new(0.0, 4.0 * config.probe_period as f64, 400);
    let mut id = 1u64;
    let mut prev_bytes = 0u64;
    let mut prev_missed = 0u64;
    let mut outstanding: std::collections::VecDeque<u64> = std::collections::VecDeque::new();

    // The probe releases a few slots after each background burst, so in a
    // FIFO it queues behind the bulk jobs (head-of-line blocking); a
    // preemptive scheduler serves it immediately regardless.
    let probe_phase = 4 % config.probe_period;
    for slot in 0..config.horizon {
        if slot % config.probe_period == probe_phase {
            platform.submit(PlatformJob::new(
                0,
                id,
                slot,
                config.probe_wcet,
                slot + config.probe_period,
                PROBE_BYTES as u32,
                true,
            ));
            outstanding.push_back(slot);
            id += 1;
        }
        if slot % config.background_period == 0 {
            for _ in 0..config.background_tasks {
                platform.submit(PlatformJob::new(
                    1,
                    id,
                    slot,
                    config.background_wcet,
                    slot + 4 * config.background_period,
                    256,
                    false,
                ));
                id += 1;
            }
        }
        platform.step();
        let m = platform.metrics();
        if m.response_bytes - prev_bytes == PROBE_BYTES {
            if let Some(rel) = outstanding.pop_front() {
                hist.record((slot + 1 - rel) as f64);
            }
        }
        // A probe that expired inside an I/O pool never completes; drop its
        // release so later completions align (only the proposed system
        // expires jobs — FIFO devices finish late instead).
        while m.critical_missed > prev_missed {
            prev_missed += 1;
            if m.response_bytes - prev_bytes != PROBE_BYTES {
                outstanding.pop_front();
            }
        }
        prev_bytes = m.response_bytes;
    }

    let m = platform.metrics();
    LatencyProfile {
        system: system.label(),
        p50: hist.quantile(0.5).unwrap_or(f64::NAN),
        p99: hist.quantile(0.99).unwrap_or(f64::NAN),
        max: hist.quantile(1.0).unwrap_or(f64::NAN),
        missed: m.critical_missed,
    }
}

/// Runs the experiment for the standard lineup (without the pre-load
/// variants — predictability is a channel property, not a table property).
pub fn latency_profiles(config: &PredictabilityConfig) -> Vec<LatencyProfile> {
    [
        SystemUnderTest::Legacy,
        SystemUnderTest::RtXen,
        SystemUnderTest::BlueVisor,
        SystemUnderTest::IoGuard { preload_pct: 0 },
    ]
    .into_iter()
    .map(|s| latency_profile(s, config))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PredictabilityConfig {
        PredictabilityConfig {
            horizon: 10_000,
            ..PredictabilityConfig::default()
        }
    }

    #[test]
    fn ioguard_probe_latency_is_tight() {
        let p = latency_profile(SystemUnderTest::IoGuard { preload_pct: 0 }, &quick_config());
        // The probe preempts background bulk jobs: latency ≈ service time.
        assert_eq!(p.missed, 0, "{p:?}");
        assert!(p.p99 <= 16.0, "{p:?}");
        assert!(p.spread() <= 12.0, "{p:?}");
    }

    #[test]
    fn fifo_probe_latency_has_heavy_tail() {
        let p = latency_profile(SystemUnderTest::BlueVisor, &quick_config());
        // Head-of-line blocking behind 6 × 12-slot bulk jobs.
        assert!(p.p99 > 30.0, "{p:?}");
    }

    #[test]
    fn ioguard_beats_all_baselines_on_spread() {
        let profiles = latency_profiles(&quick_config());
        let iog = profiles.last().expect("lineup is non-empty");
        assert!(iog.system.starts_with("I/O-GUARD"));
        for other in &profiles[..profiles.len() - 1] {
            assert!(
                iog.spread() <= other.spread(),
                "{} spread {} vs I/O-GUARD {}",
                other.system,
                other.spread(),
                iog.spread()
            );
            assert!(iog.p99 <= other.p99, "{other:?}");
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = latency_profile(SystemUnderTest::Legacy, &quick_config());
        let b = latency_profile(SystemUnderTest::Legacy, &quick_config());
        assert_eq!(a, b);
    }
}
