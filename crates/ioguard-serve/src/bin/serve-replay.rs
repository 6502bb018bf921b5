//! `serve-replay` — the deterministic serving replay CLI.
//!
//! Runs a [`ioguard_serve::ReplayDriver`] over a `FleetArrivals` client
//! population on the virtual clock (no wall time anywhere: the run is a
//! pure function of its flags), printing the Prometheus scrape page and
//! a per-kind response summary, and optionally writing a periodic
//! `OBS_snapshot.json` plus the final scrape page under `--out-dir`.
//!
//! ```text
//! serve-replay [--requests N] [--quick] [--shards N] [--workers N]
//!              [--seed N] [--snapshot-every SLOTS] [--out-dir DIR]
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ioguard_serve::replay::{ReplayConfig, ReplayDriver};
use ioguard_serve::wire::Response;

#[derive(Debug, Clone)]
struct Cli {
    requests: u64,
    shards: usize,
    workers: usize,
    seed: u64,
    snapshot_every: u64,
    out_dir: Option<PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            requests: 1_000_000,
            shards: 4,
            workers: 1,
            seed: 0x5EED,
            snapshot_every: 0,
            out_dir: None,
        }
    }
}

const USAGE: &str = "usage: serve-replay [--requests N] [--quick] [--shards N] \
[--workers N] [--seed N] [--snapshot-every SLOTS] [--out-dir DIR]";

fn parse_value<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse::<T>()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--requests" => cli.requests = parse_value(args.next(), "--requests")?,
            "--quick" => cli.requests = 100_000,
            "--shards" => cli.shards = parse_value(args.next(), "--shards")?,
            "--workers" => cli.workers = parse_value(args.next(), "--workers")?,
            "--seed" => cli.seed = parse_value(args.next(), "--seed")?,
            "--snapshot-every" => {
                cli.snapshot_every = parse_value(args.next(), "--snapshot-every")?;
            }
            "--out-dir" => {
                cli.out_dir = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--out-dir needs a value".to_string())?,
                ));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = ReplayConfig::new(cli.requests);
    config.shards = cli.shards.max(1);
    config.workers = cli.workers.max(1);
    config.seed = cli.seed;
    config.snapshot_every = cli.snapshot_every;

    if let Some(dir) = &cli.out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("serve-replay: cannot create {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut last_page = String::new();
    let driver = ReplayDriver::new(config);
    let report = match driver.run_with(|slot, page, json| {
        last_page = page.to_string();
        if let Some(dir) = &cli.out_dir {
            if let Err(error) = std::fs::write(dir.join("OBS_snapshot.json"), json) {
                eprintln!("serve-replay: snapshot at slot {slot} failed: {error}");
            }
        }
    }) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("serve-replay: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!("serve-replay: deterministic replay summary");
    println!("  requests_sent     {}", report.requests_sent);
    println!("  slots             {}", report.slots);
    println!("  digest            {:#018x}", report.fold.digest());
    println!("  responses         {}", report.fold.total());
    for (index, &count) in report.fold.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        let ordinal = u8::try_from(index.saturating_add(1)).unwrap_or(u8::MAX);
        println!("    {:<16} {count}", Response::kind_label(ordinal));
    }
    let totals = report.counter_totals;
    println!("  completed         {}", totals.completed);
    println!("  missed            {}", totals.missed);
    println!("  critical_missed   {}", totals.critical_missed);
    println!("  shed_best_effort  {}", totals.dropped_best_effort);
    println!("  throttled_submit  {}", totals.throttled_submissions);
    for (label, hist, bound) in [
        (
            "critical",
            &report.e2e_critical,
            report.deadline_bound_critical,
        ),
        (
            "best_effort",
            &report.e2e_best_effort,
            report.deadline_bound_best_effort,
        ),
    ] {
        println!(
            "  e2e_{label}: count={} p50={} p95={} p99={} max={} bound={bound}",
            hist.count(),
            hist.percentile(0.50).unwrap_or(0),
            hist.percentile(0.95).unwrap_or(0),
            hist.percentile(0.99).unwrap_or(0),
            hist.max().unwrap_or(0),
        );
    }
    println!("  unanswered        {}", report.unanswered);
    println!("  snapshots         {}", report.snapshots);

    if let Some(dir) = &cli.out_dir {
        let body = if last_page.is_empty() {
            // No snapshot fired (snapshot_every 0): render the end-state
            // page from the counters the report carries.
            ioguard_obs::prom::render_page(
                &report.counters,
                &[
                    ("ioguard_e2e_critical_slots", &report.e2e_critical),
                    ("ioguard_e2e_best_effort_slots", &report.e2e_best_effort),
                ],
            )
        } else {
            last_page
        };
        if let Err(error) = std::fs::write(dir.join("serve_metrics.prom"), body) {
            eprintln!("serve-replay: writing scrape page failed: {error}");
            return ExitCode::FAILURE;
        }
    }

    if report.unanswered > 0 {
        eprintln!(
            "serve-replay: {} accepted requests never got a final answer",
            report.unanswered
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
