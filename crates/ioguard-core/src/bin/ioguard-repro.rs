//! `ioguard-repro` — regenerate any of the paper's artifacts from the
//! command line.
//!
//! ```text
//! ioguard-repro fig3                      software i/o paths
//! ioguard-repro fig6                      software overhead table
//! ioguard-repro table1                    hardware overhead table
//! ioguard-repro fig7 [--trials N] [--threads N]   the automotive case study
//! ioguard-repro fig8 [--eta N]            scalability sweep
//! ioguard-repro sched                     analysis experiments
//! ioguard-repro predictability            latency profiles
//! ioguard-repro all [--trials N] [--threads N]    everything above
//! ioguard-repro ablations                 the design ablations of DESIGN.md §5
//! ```
//!
//! `--trials` sets the per-point trial count of the Fig. 7 sweep (default
//! 25; the paper uses 1000). `--threads` caps the experiment engine's
//! worker count (default 0 = all cores); results are bit-identical for any
//! value. A flag without a parsable value prints the usage and exits 1.

use std::process::ExitCode;

use ioguard_core::casestudy::{CaseStudyConfig, Fig7Report, SystemUnderTest};
use ioguard_core::experiments::{
    ablation_point, acceptance_ratio_sweep, fig6_report, fig8_report, noc_contention_latencies,
    preload_ablation, table1_report, theorem_agreement, SchedExperimentConfig,
};
use ioguard_core::predictability::{latency_profiles, PredictabilityConfig};
use ioguard_hw::blocks::HypervisorConfig;
use ioguard_hw::footprint::{footprint, SystemKind};
use ioguard_hw::reference::MICROBLAZE;
use ioguard_sched::gsched::{theorem1_exact, theorem2_pseudo_poly, GschedVerdict};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::PeriodicServer;

const USAGE: &str = "usage: ioguard-repro \
<fig3|fig6|table1|fig7|fig8|sched|predictability|all|ablations> \
[--trials N] [--threads N] [--eta N]";

/// The value after `name`, or `default` when the flag is absent. A flag
/// with a missing or unparsable value is an error, never the default.
fn flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let text = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{name}: cannot parse {text:?}"))
}

/// `(--trials, --eta, --threads)`.
fn numeric_flags(args: &[String]) -> Result<(u64, u64, usize), String> {
    Ok((
        flag(args, "--trials", 25)?,
        flag(args, "--eta", 5)?,
        flag(args, "--threads", 0)? as usize,
    ))
}

fn run_fig3() {
    println!("== Fig. 3 — software i/o paths ==");
    println!("{}", ioguard_rtos::path::render_fig3(256));
}

fn run_fig6() {
    println!("== Fig. 6 — run-time software overhead (KB) ==");
    println!("{}", fig6_report());
    let legacy = footprint(SystemKind::Legacy).system_software_total();
    let rtxen = footprint(SystemKind::RtXen).system_software_total();
    println!(
        "RT-Xen adds {} KB (+{:.1}%) of system software over Legacy (paper: 61 KB, +129.8%)\n",
        rtxen - legacy,
        (rtxen - legacy) as f64 / legacy as f64 * 100.0
    );
}

fn run_table1() {
    println!("== Table I — hardware overhead ==");
    println!("{}", table1_report());
    let proposed = HypervisorConfig::paper_table1().cost();
    println!(
        "Proposed / MicroBlaze: {:.1}% LUTs, {:.1}% registers, {:.1}% power \
         (paper: 56.6% / 67.8% / 77.7%)\n",
        100.0 * proposed.luts as f64 / MICROBLAZE.luts as f64,
        100.0 * proposed.registers as f64 / MICROBLAZE.registers as f64,
        100.0 * proposed.power_mw as f64 / MICROBLAZE.power_mw as f64,
    );
}

fn run_fig7(trials: u64, threads: usize) {
    println!("== Fig. 7 — automotive case study ({trials} trials/point) ==");
    let (report, stats) =
        Fig7Report::run_instrumented(&CaseStudyConfig::paper_shape(trials), threads);
    println!("{report}");
    let busy = stats.busy_seconds();
    if busy > 0.0 {
        println!(
            "engine: {} tasks on {} workers, {} steals, {:.1} tasks/s/core",
            stats.tasks,
            stats.workers,
            stats.steals,
            stats.tasks as f64 / busy,
        );
    }
}

fn run_fig8(eta: u64) {
    println!("== Fig. 8 — scalability ==");
    println!("{}", fig8_report(eta as u32));
}

fn run_sched() {
    println!("== Sec. IV — schedulability analysis ==");
    let config = SchedExperimentConfig::default();
    let utils: Vec<f64> = (1..=9).map(|i| 0.1 * i as f64).collect();
    println!("acceptance ratio vs utilization:");
    for p in acceptance_ratio_sweep(&config, &utils) {
        println!("  u = {:.1}: {:>5.1}%", p.utilization, p.accepted * 100.0);
    }
    let agreement = theorem_agreement(&config, 300);
    println!(
        "theorem agreement: {}/{} (n/a {})",
        agreement.agreed, agreement.compared, agreement.not_applicable
    );
    // Theorem 1 checks up to lcm(H, Π…); Theorem 2's bound depends on σ* alone.
    let sigma = TimeSlotTable::from_occupied(12, &[0, 4, 8]).expect("valid σ*");
    let horizon = |verdict: Result<GschedVerdict, _>| match verdict {
        Ok(GschedVerdict::Schedulable { checked_up_to }) => checked_up_to.to_string(),
        other => format!("{other:?}"),
    };
    println!("checked horizon (H = 12, 3 slots taken, two Θ = 1 servers):");
    for (p, q) in [(5, 7), (11, 13), (17, 19)] {
        let servers = [p, q].map(|pi| PeriodicServer::new(pi, 1).expect("valid server"));
        println!(
            "  Π = {p:>2}, {q:>2}: Theorem 1 t ≤ {:>5}, Theorem 2 t ≤ {}",
            horizon(theorem1_exact(&sigma, &servers, 1 << 24)),
            horizon(theorem2_pseudo_poly(&sigma, &servers, 0.01)),
        );
    }
}

fn run_predictability() {
    println!("== predictability — probe latency profiles ==");
    for p in latency_profiles(&PredictabilityConfig::default()) {
        println!(
            "{:<14} p50 {:>6.1}  p99 {:>6.1}  max {:>6.1}  missed {}",
            p.system, p.p50, p.p99, p.max, p.missed
        );
    }
}

fn run_ablations() {
    println!("== Ablation: P-channel preload fraction (8 VMs, 105% load, 15 trials) ==");
    println!("preload%  success  throughput(Mbit/s)  tp-std");
    for (pct, s) in preload_ablation() {
        println!(
            "{pct:>7}   {:>6.2}   {:>8.2}   {:>6.3}",
            s.success_ratio, s.throughput_mbps, s.throughput_std
        );
    }

    println!("\n== Ablation: queue discipline (4 VMs, 85% load) ==");
    for (label, system) in [
        ("FIFO (BV)", SystemUnderTest::BlueVisor),
        (
            "EDF pools (I/O-GUARD-0)",
            SystemUnderTest::IoGuard { preload_pct: 0 },
        ),
    ] {
        let s = ablation_point(system, 4, 0.85);
        println!("{label:<26} success {:.2}", s.success_ratio);
    }

    println!(
        "\n== Ablation: global EDF vs server-isolated G-Sched (70% preload, 4 VMs, 80% load) =="
    );
    for (label, system) in [
        ("global EDF", SystemUnderTest::IoGuard { preload_pct: 70 }),
        (
            "server-isolated",
            SystemUnderTest::IoGuardServerIsolated { preload_pct: 70 },
        ),
    ] {
        let s = ablation_point(system, 4, 0.80);
        println!(
            "{label:<16} success {:.2}  throughput {:.2} Mbit/s",
            s.success_ratio, s.throughput_mbps
        );
    }

    println!("\n== Ablation: NoC contention (5x5 mesh, 8-flit packets to node (4,2)) ==");
    println!("flows  delivered  mean latency  max latency (cycles)");
    for flows in [1u64, 4, 8] {
        let lat = noc_contention_latencies(flows);
        let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
        let max = lat.iter().copied().max().unwrap_or(0);
        println!("{flows:>5}  {:>9}  {mean:>12.1}  {max:>11}", lat.len());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let (trials, eta, threads) = match numeric_flags(&args) {
        Ok(values) => values,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "fig3" => run_fig3(),
        "fig6" => run_fig6(),
        "table1" => run_table1(),
        "fig7" => run_fig7(trials, threads),
        "fig8" => run_fig8(eta),
        "sched" => run_sched(),
        "predictability" => run_predictability(),
        "all" => {
            run_fig3();
            run_fig6();
            run_table1();
            run_fig8(eta);
            run_sched();
            run_predictability();
            run_fig7(trials, threads);
        }
        "ablations" => run_ablations(),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command {other:?}; try `ioguard-repro help`");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
