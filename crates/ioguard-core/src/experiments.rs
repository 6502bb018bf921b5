//! Drivers and renderers for the non-case-study experiments.
//!
//! * **Fig. 6** — software overhead: delegates to
//!   [`ioguard_hw::footprint`].
//! * **Table I** — hardware overhead: delegates to
//!   [`ioguard_hw::reference`].
//! * **Fig. 8** — scalability: delegates to [`ioguard_hw::scale`].
//! * **Schedulability** — acceptance-ratio sweeps comparing the exact and
//!   pseudo-polynomial tests of Sec. IV, plus their runtime cost.
//! * **Ablations** — the design choices DESIGN.md §5 isolates: queue
//!   discipline, P-channel preload fraction, server isolation and NoC
//!   contention, each at a fixed operating point.

use ioguard_noc::network::{Network, NetworkConfig};
use ioguard_noc::packet::Packet;
use ioguard_noc::topology::NodeId;
use ioguard_sched::design::{synthesize_servers, SynthesisConfig};
use ioguard_sched::gsched::{theorem1_exact, theorem2_pseudo_poly};
use ioguard_sched::lsched::{theorem3_exact, theorem4_pseudo_poly};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
use ioguard_sim::rng::Xoshiro256StarStar;
use ioguard_workload::uunifast::uunifast;

use crate::casestudy::{CaseStudyPoint, PointSummary, SystemUnderTest};

/// Renders the Fig. 6 software-overhead table.
pub fn fig6_report() -> String {
    ioguard_hw::footprint::render_fig6()
}

/// Renders Table I.
pub fn table1_report() -> String {
    ioguard_hw::reference::render_table1()
}

/// Renders the Fig. 8 scalability sweep for η in `0..=eta_max`.
pub fn fig8_report(eta_max: u32) -> String {
    ioguard_hw::scale::render_fig8(&ioguard_hw::scale::fig8_sweep(eta_max))
}

/// Configuration of the schedulability acceptance-ratio experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedExperimentConfig {
    /// Number of random systems per utilization point.
    pub systems_per_point: u32,
    /// Number of VMs per system.
    pub vms: usize,
    /// Tasks per VM.
    pub tasks_per_vm: usize,
    /// Table length H.
    pub table_len: u64,
    /// Occupied (P-channel) fraction of the table.
    pub occupied_fraction: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SchedExperimentConfig {
    fn default() -> Self {
        Self {
            systems_per_point: 50,
            vms: 4,
            tasks_per_vm: 3,
            table_len: 24,
            occupied_fraction: 0.25,
            seed: 99,
        }
    }
}

/// One point of the acceptance-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptancePoint {
    /// Total R-channel utilization of the generated systems.
    pub utilization: f64,
    /// Fraction of systems accepted by the two-layer analysis (with
    /// synthesized servers).
    pub accepted: f64,
}

/// Sweeps R-channel utilization and measures which fraction of random
/// systems the two-layer analysis (Theorems 1 + 3, with synthesized
/// servers) admits. This is the analysis-side counterpart of Fig. 7: the
/// schedulable region shrinks as utilization grows.
pub fn acceptance_ratio_sweep(
    config: &SchedExperimentConfig,
    utilizations: &[f64],
) -> Vec<AcceptancePoint> {
    let mut rng = Xoshiro256StarStar::new(config.seed);
    let occupied: Vec<u64> =
        (0..((config.table_len as f64 * config.occupied_fraction) as u64)).collect();
    let sigma = TimeSlotTable::from_occupied(config.table_len, &occupied)
        .expect("table parameters are valid");
    utilizations
        .iter()
        .map(|&util| {
            let mut accepted = 0u32;
            for _ in 0..config.systems_per_point {
                let task_sets = random_task_sets(&mut rng, config, util);
                if let Ok(servers) = synthesize_servers(
                    &sigma,
                    &task_sets,
                    &SynthesisConfig::divisors_of(config.table_len),
                ) {
                    // Synthesis already validates both layers.
                    debug_assert_eq!(servers.len(), task_sets.len());
                    accepted += 1;
                }
            }
            AcceptancePoint {
                utilization: util,
                accepted: accepted as f64 / config.systems_per_point as f64,
            }
        })
        .collect()
}

fn random_task_sets(
    rng: &mut Xoshiro256StarStar,
    config: &SchedExperimentConfig,
    total_util: f64,
) -> Vec<TaskSet> {
    let n = config.vms * config.tasks_per_vm;
    let utils = uunifast(rng, n, total_util);
    let mut sets = vec![TaskSet::new(); config.vms];
    for (i, u) in utils.into_iter().enumerate() {
        // Periods divide the table length so the exact tests stay cheap.
        let period = config.table_len * rng.range_u64(1, 9);
        let wcet = ((u * period as f64).round() as u64).clamp(1, period);
        let task = SporadicTask::implicit(period, wcet).expect("clamped");
        sets[i % config.vms].push(task);
    }
    sets
}

/// Result of the exact-vs-pseudo-polynomial agreement experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AgreementReport {
    /// Systems where both tests were applicable.
    pub compared: u32,
    /// Systems where verdicts agreed.
    pub agreed: u32,
    /// Systems where the pseudo-poly precondition (slack) failed.
    pub not_applicable: u32,
}

/// Compares Theorem 1 vs 2 and Theorem 3 vs 4 on random systems; the paper
/// proves they agree whenever the slack precondition holds.
pub fn theorem_agreement(config: &SchedExperimentConfig, samples: u32) -> AgreementReport {
    let mut rng = Xoshiro256StarStar::new(config.seed ^ 0xA9);
    let mut report = AgreementReport::default();
    for _ in 0..samples {
        let h = 4 + rng.range_u64(0, 12);
        let occ: Vec<u64> = (0..h / 4).collect();
        let sigma = TimeSlotTable::from_occupied(h, &occ).expect("valid");
        let servers: Vec<PeriodicServer> = (0..2)
            .map(|_| {
                let pi = 2 + rng.range_u64(0, 10);
                PeriodicServer::new(pi, 1 + rng.range_u64(0, pi)).expect("valid")
            })
            .collect();
        let exact = theorem1_exact(&sigma, &servers, 1 << 24).expect("bounded");
        match theorem2_pseudo_poly(&sigma, &servers, 0.01) {
            Ok(pseudo) => {
                report.compared += 1;
                if pseudo.is_schedulable() == exact.is_schedulable() {
                    report.agreed += 1;
                }
            }
            Err(_) => report.not_applicable += 1,
        }
        // L-Sched side.
        let server = servers[0];
        let mut ts = TaskSet::new();
        for _ in 0..config.tasks_per_vm {
            let t = 5 + rng.range_u64(0, 40);
            let c = 1 + rng.range_u64(0, 4.min(t));
            let d = c + rng.range_u64(0, t - c + 1);
            ts.push(SporadicTask::new(t, c, d).expect("valid by construction"));
        }
        let exact = theorem3_exact(&server, &ts, 1 << 26).expect("bounded");
        match theorem4_pseudo_poly(&server, &ts, 0.01) {
            Ok(pseudo) => {
                report.compared += 1;
                if pseudo.is_schedulable() == exact.is_schedulable() {
                    report.agreed += 1;
                }
            }
            Err(_) => report.not_applicable += 1,
        }
    }
    report
}

/// One ablation operating point: 15 trials of 16 000 slots from seed 77.
pub fn ablation_point(
    system: SystemUnderTest,
    vms: usize,
    target_utilization: f64,
) -> PointSummary {
    CaseStudyPoint {
        system,
        vms,
        target_utilization,
        trials: 15,
        seed: 77,
        horizon_slots: 16_000,
    }
    .run()
}

/// I/O-GUARD at P-channel preload fractions 0–100%, driven past the
/// paper's sweep (8 VMs, 105% target) to the saturation edge where the
/// preload fraction separates the configurations (Obs. 3).
pub fn preload_ablation() -> Vec<(u8, PointSummary)> {
    [0u8, 20, 40, 60, 70, 80, 100]
        .into_iter()
        .map(|pct| {
            let system = SystemUnderTest::IoGuard { preload_pct: pct };
            (pct, ablation_point(system, 8, 1.05))
        })
        .collect()
}

/// Latency in cycles of every delivered packet when `flows` 8-flit packets
/// from the middle row of the paper's 5×5 mesh all head for node (4, 2):
/// the Fig. 1 contention the hypervisor's direct connection removes.
pub fn noc_contention_latencies(flows: u64) -> Vec<u64> {
    let mut net = Network::new(NetworkConfig::paper_platform()).expect("paper mesh is valid");
    for i in 0..flows {
        let src = NodeId::new((i % 5) as u16, 2);
        let packet = Packet::request(i + 1, src, NodeId::new(4, 2), 8).expect("valid packet");
        net.inject(packet).expect("one packet per NI fits");
    }
    net.run_until_idle(100_000)
        .iter()
        .map(|d| u64::from(d.latency()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_table1_fig8_render() {
        assert!(fig6_report().contains("I/O-GUARD"));
        assert!(table1_report().contains("Proposed"));
        let fig8 = fig8_report(4);
        assert!(fig8.lines().count() >= 5);
    }

    #[test]
    fn acceptance_ratio_decreases_with_utilization() {
        let config = SchedExperimentConfig {
            systems_per_point: 30,
            ..SchedExperimentConfig::default()
        };
        let points = acceptance_ratio_sweep(&config, &[0.2, 0.5, 0.9]);
        assert_eq!(points.len(), 3);
        assert!(points[0].accepted >= points[2].accepted);
        assert!(
            points[0].accepted > 0.8,
            "light systems admitted: {points:?}"
        );
        // Beyond the free capacity (0.75 here) nothing fits.
        assert!(
            points[2].accepted < 0.5,
            "heavy systems rejected: {points:?}"
        );
    }

    #[test]
    fn theorems_agree_on_every_applicable_sample() {
        let report = theorem_agreement(&SchedExperimentConfig::default(), 300);
        assert!(report.compared > 50);
        assert_eq!(report.agreed, report.compared, "{report:?}");
    }
}
