//! Fleet-scale VM arrival/departure streams.
//!
//! The fleet layer (`ioguard-fleet`) consumes a churn stream of VM
//! lifecycle events: each *arrival* carries the VM's periodic server
//! request `Γ = (Π, Θ)` and its I/O task set, each *departure* names a
//! previously-arrived VM. The stream is a pure function of its
//! [`FleetArrivalConfig`] — same config, same bytes — so fleet runs are
//! reproducible at any thread count and golden traces stay stable.
//!
//! Server periods are drawn from a **harmonic menu** of power-of-two
//! divisors of the analysis frame: this is what makes the per-shard
//! [`ioguard_sched::DemandLedger`] exact (every admitted period divides
//! the frame, see its module docs). Budgets and task sets are sized so
//! that most VMs are admissible but a tail of over-greedy requests and
//! tight-deadline task sets exercises the rejection and spillover paths.

use ioguard_sched::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};

/// Domain-separation tag for the arrival stream RNG.
const ARRIVALS_TAG: u64 = 0xF1EE;

/// Configuration for one generated churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetArrivalConfig {
    /// Total number of lifecycle events (arrivals + departures).
    pub events: usize,
    /// Steady-state resident population the departure pressure aims for:
    /// the departure probability ramps linearly with the live population
    /// and crosses 50% (the arrival rate) right at this target.
    pub target_resident: usize,
    /// The fleet analysis frame; all generated periods divide it.
    pub frame: u64,
    /// Root seed; the stream is a pure function of this config.
    pub seed: u64,
}

impl FleetArrivalConfig {
    /// A config with the canonical fleet frame of 4096 slots.
    pub fn new(events: usize, target_resident: usize, seed: u64) -> Self {
        Self {
            events,
            target_resident,
            frame: 4096,
            seed,
        }
    }
}

/// One VM lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A VM requests admission with server `Γ = (Π, Θ)` and `tasks`.
    Arrive {
        /// Fleet-unique VM id (monotone across the stream).
        vm: u64,
        /// The requested periodic server.
        server: PeriodicServer,
        /// The VM's I/O task set (for the per-VM Theorem 3 gate).
        tasks: TaskSet,
    },
    /// A previously-arrived VM leaves the fleet.
    Depart {
        /// The departing VM's id.
        vm: u64,
    },
}

/// A generated churn stream: deterministic in its config.
///
/// # Example
///
/// ```
/// use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals};
///
/// let config = FleetArrivalConfig::new(1000, 50, 42);
/// let a = FleetArrivals::generate(&config);
/// let b = FleetArrivals::generate(&config);
/// assert_eq!(a, b);
/// assert_eq!(a.events().len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArrivals {
    events: Vec<FleetEvent>,
}

impl FleetArrivals {
    /// Generates the stream for `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.frame` is not a power of two or is smaller
    /// than 512 (the harmonic period menu needs `frame/8 ≥ 64`).
    pub fn generate(config: &FleetArrivalConfig) -> Self {
        assert!(
            config.frame.is_power_of_two() && config.frame >= 512,
            "fleet frame must be a power of two ≥ 512, got {}",
            config.frame
        );
        let root = SplitMix64::new(config.seed);
        let mut rng = Xoshiro256StarStar::new(root.derive(ARRIVALS_TAG));
        // Harmonic menu: power-of-two divisors of the frame, Π ∈
        // {frame/64 .. frame/8}. Every entry divides the frame exactly.
        let menu = [
            config.frame / 64,
            config.frame / 32,
            config.frame / 16,
            config.frame / 8,
        ];
        let mut events = Vec::with_capacity(config.events);
        let mut live: Vec<u64> = Vec::new();
        let mut next_vm = 0u64;
        let target = config.target_resident.max(1) as f64;
        for _ in 0..config.events {
            // Equilibrium at live ≈ target: departures win above it,
            // arrivals below.
            let depart_p = (live.len() as f64 / (2.0 * target)).min(0.9);
            if !live.is_empty() && rng.chance(depart_p) {
                let at = rng.range_u64(0, live.len() as u64) as usize;
                let vm = live.swap_remove(at);
                events.push(FleetEvent::Depart { vm });
            } else {
                let pi = menu[rng.range_u64(0, menu.len() as u64) as usize];
                // Budget up to Π/16 (≤ 6.25% bandwidth), with a greedy
                // tail (~5% of arrivals ask for up to Π/4) that stresses
                // the admission gate and fills spillover.
                let max_theta = if rng.chance(0.05) { pi / 4 } else { pi / 16 };
                let theta = rng.range_u64(1, max_theta.max(1) + 1);
                let server = PeriodicServer::new(pi, theta).expect("1 ≤ Θ ≤ Π by construction");
                let tasks = Self::task_set(&mut rng, pi, theta);
                let vm = next_vm;
                next_vm += 1;
                live.push(vm);
                events.push(FleetEvent::Arrive { vm, server, tasks });
            }
        }
        Self { events }
    }

    /// 1–3 sporadic tasks sized against the server: `T ∈ {8Π, 16Π}` (well
    /// past the server's worst-case supply blackout `2(Π − Θ)`, which for
    /// low-bandwidth servers approaches `2Π`), task utilization at most
    /// half the server bandwidth, constrained deadlines at or above the
    /// blackout. Most sets pass Theorem 3; a ~10% tight-deadline tail
    /// lands inside the blackout and gets the VM rejected locally.
    fn task_set(rng: &mut Xoshiro256StarStar, pi: u64, theta: u64) -> TaskSet {
        let count = rng.range_u64(1, 4);
        let mut tasks = TaskSet::new();
        for _ in 0..count {
            let period = pi * if rng.chance(0.5) { 8 } else { 16 };
            // Per-task utilization ≤ (Θ/Π)/(2·count): the whole set stays
            // within half the server's bandwidth.
            let max_wcet = ((theta * period) / (pi * 2 * count)).max(1);
            let wcet = rng.range_u64(1, max_wcet + 1);
            // Deadline at or above the blackout-safe floor, with a ~10%
            // tight tail anywhere in [wcet, period].
            let safe_floor = (2 * (pi - theta) + wcet).min(period);
            let deadline = if rng.chance(0.1) {
                rng.range_u64(wcet, period + 1)
            } else {
                rng.range_u64(safe_floor, period + 1)
            };
            tasks.push(SporadicTask::new(period, wcet, deadline).expect("C ≤ D ≤ T"));
        }
        tasks
    }

    /// The event stream in order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic_in_config() {
        let config = FleetArrivalConfig::new(2000, 100, 7);
        assert_eq!(
            FleetArrivals::generate(&config),
            FleetArrivals::generate(&config)
        );
        let other = FleetArrivalConfig::new(2000, 100, 8);
        assert_ne!(
            FleetArrivals::generate(&config),
            FleetArrivals::generate(&other)
        );
    }

    #[test]
    fn departures_only_name_live_vms_and_ids_are_unique() {
        let stream = FleetArrivals::generate(&FleetArrivalConfig::new(5000, 80, 42));
        let mut live = BTreeSet::new();
        let mut seen = BTreeSet::new();
        for event in stream.events() {
            match event {
                FleetEvent::Arrive { vm, .. } => {
                    assert!(seen.insert(*vm), "vm id {vm} reused");
                    live.insert(*vm);
                }
                FleetEvent::Depart { vm } => {
                    assert!(live.remove(vm), "departure of non-live vm {vm}");
                }
            }
        }
    }

    #[test]
    fn periods_are_harmonic_with_the_frame() {
        let config = FleetArrivalConfig::new(3000, 60, 1337);
        let stream = FleetArrivals::generate(&config);
        for event in stream.events() {
            if let FleetEvent::Arrive { server, tasks, .. } = event {
                assert_eq!(config.frame % server.period(), 0);
                assert!(server.budget() >= 1 && server.budget() <= server.period());
                for task in tasks.iter() {
                    assert!(
                        task.period() == 8 * server.period()
                            || task.period() == 16 * server.period()
                    );
                }
            }
        }
    }

    #[test]
    fn population_hovers_near_target() {
        let config = FleetArrivalConfig::new(20_000, 100, 99);
        let stream = FleetArrivals::generate(&config);
        let mut live = 0i64;
        let mut peak = 0i64;
        for event in stream.events() {
            match event {
                FleetEvent::Arrive { .. } => live += 1,
                FleetEvent::Depart { .. } => live -= 1,
            }
            peak = peak.max(live);
        }
        // Departure pressure caps the population well below the event
        // count; exact value is seed-dependent but bounded.
        assert!(peak > 100, "population should reach the target: {peak}");
        assert!(peak < 2000, "population should saturate: {peak}");
    }

    #[test]
    fn most_arrivals_are_locally_schedulable() {
        // The Theorem 3 gate should admit the bulk of generated VMs so the
        // fleet exercises placement, not just rejection.
        let stream = FleetArrivals::generate(&FleetArrivalConfig::new(2000, 50, 5));
        let mut pass = 0u32;
        let mut total = 0u32;
        for event in stream.events() {
            if let FleetEvent::Arrive { server, tasks, .. } = event {
                total += 1;
                if ioguard_sched::lsched::theorem3_exact(server, tasks, 1 << 26)
                    .map(|v| v.is_schedulable())
                    .unwrap_or(false)
                {
                    pass += 1;
                }
            }
        }
        assert!(total > 1000);
        assert!(
            pass as f64 / total as f64 > 0.6,
            "only {pass}/{total} locally schedulable"
        );
    }
}
