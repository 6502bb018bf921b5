//! `trace-export` — emit the canonical observability snapshot.
//!
//! Runs the two canonical observed scenarios (healthy end-to-end and a
//! device-stall chaos trial, see `ioguard_core::observe`), composes the
//! hand-formatted JSON summary, writes it to `OBS_snapshot.json` and echoes
//! it to stdout. Deterministic byte-for-byte in the seed: CI runs this
//! twice and diffs the outputs.
//!
//! Usage: `trace-export [seed] [output-path]`
//! (defaults: seed `3405691582`, path `OBS_snapshot.json`). An unparsable
//! seed prints the usage and an unwritable path the I/O error, both to
//! stderr, and exits 1.

use std::process::ExitCode;

use ioguard_core::observe::snapshot_json;

const USAGE: &str = "usage: trace-export [seed] [output-path]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let seed: u64 = match args.next().map(|s| s.parse()) {
        None => 0xCAFE_BABE,
        Some(Ok(seed)) => seed,
        Some(Err(e)) => {
            eprintln!("trace-export: seed: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let path = args
        .next()
        .unwrap_or_else(|| "OBS_snapshot.json".to_string());
    let json = snapshot_json(seed);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("trace-export: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}
