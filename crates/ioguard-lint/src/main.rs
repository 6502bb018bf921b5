//! The `ioguard-lint` CLI.
//!
//! ```text
//! cargo run -p ioguard-lint -- check                 # every crate under crates/
//! cargo run -p ioguard-lint -- check --root <dir>    # explicit workspace root
//! cargo run -p ioguard-lint -- check a.rs b.rs       # fixture mode: all rules
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error
//! (including a path that is not a `.rs` file). Violations go to stderr,
//! one per line.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ioguard_lint::rules::Violation;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(violations) if violations.is_empty() => {
            println!("ioguard-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("ioguard-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("ioguard-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Vec<Violation>, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command `{other}` (try `check`)")),
        None => return Err("usage: ioguard-lint check [--root DIR] [paths…]".into()),
    }
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "--root" {
            let dir = it.next().ok_or("--root requires a directory")?;
            root = Some(PathBuf::from(dir));
        } else {
            paths.push(PathBuf::from(arg));
        }
    }

    if !paths.is_empty() {
        let refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
        return ioguard_lint::check_paths(&refs);
    }

    // Workspace mode: source lints over every crate under crates/.
    let root = root.unwrap_or_else(default_root);
    let (violations, scanned) = ioguard_lint::check_workspace(&root)?;
    println!(
        "ioguard-lint: scanned {scanned} source files under {}",
        root.join("crates").display()
    );
    Ok(violations)
}

/// The workspace root when run via `cargo run -p ioguard-lint`.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}
