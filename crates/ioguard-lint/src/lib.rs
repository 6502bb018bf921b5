//! Workspace static analysis for the I/O-GUARD reproduction.
//!
//! Two layers, both deterministic and free of external parser crates (the
//! workspace builds offline against vendored stubs, so there is no `syn`
//! here). The crate does depend on six workspace crates: the model
//! verifier checks σ\*, servers, NoC routes and the Fig. 7 configurations
//! through their own types, JSON output uses the `ioguard-obs` escaper,
//! and file scanning runs on the `ioguard-core` engine:
//!
//! * **Layer 1 — source lints** ([`scan`], [`rules`]): a token/line-level
//!   analyzer enforcing the invariants PR 1 made load-bearing — panic-free
//!   hypervisor/sched/NoC library code, checked/saturating `u64` time
//!   arithmetic, no hash-ordered containers or wall clocks on the
//!   deterministic-simulation path, and `#![forbid(unsafe_code)]` in every
//!   crate root. Exceptions go through `// lint: allow(<rule>)` directives
//!   with mandatory justification text.
//! * **Layer 2 — model verifier** ([`model`], [`fig7`]): a static
//!   [`model::ConfigVerifier`] certifying full system configurations before
//!   simulation — σ\* well-formedness against Eqs. 1–2, periodic-server
//!   sanity, I/O-pool capacity bounds, NoC deadlock-freedom via
//!   channel-dependency-graph cycle detection, and (opt-in) the Theorem 1/3
//!   admission tests.
//!
//! The `ioguard-lint` binary wires both into `cargo run -p ioguard-lint --
//! check`, which CI runs on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultplan;
pub mod fig7;
pub mod graph;
pub mod model;
pub mod rules;
pub mod scan;

use std::path::Path;

use model::{ConfigVerifier, SystemModel};
use rules::{RuleSet, Violation};
use scan::SourceFile;

/// File extension of model files.
pub const MODEL_EXT: &str = "model";

/// File extension of chaos fault-plan fixtures.
pub const FAULT_EXT: &str = "fault";

/// Lints every workspace crate under `root/crates` with its crate-scoped
/// rule set, including the `#![forbid(unsafe_code)]` crate-root check and
/// the workspace-wide concurrency pass ([`graph::check_concurrency`]).
/// Returns the violations and the number of files scanned.
pub fn check_workspace(root: &Path) -> Result<(Vec<Violation>, usize), String> {
    check_workspace_threaded(root, 1)
}

/// [`check_workspace`] with per-file scanning spread over the
/// work-stealing engine. Per-file results are scattered back in the sorted
/// (crate, path) work-list order and the concurrency pass runs once over
/// the merged model, so the violation list is identical at any thread
/// count.
pub fn check_workspace_threaded(
    root: &Path,
    threads: usize,
) -> Result<(Vec<Violation>, usize), String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    if crate_dirs.is_empty() {
        return Err(format!("no crates under {}", crates_dir.display()));
    }
    // Work list: (rules, path, is-crate-root) per file, in deterministic
    // (crate, path) order.
    let mut jobs: Vec<(RuleSet, std::path::PathBuf, bool)> = Vec::new();
    for dir in &crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let rules = RuleSet::for_crate(&name);
        for path in rules::collect_rs_files(&src)? {
            let is_root = path == src.join("lib.rs");
            jobs.push((rules, path, is_root));
        }
    }
    let (results, _) = ioguard_core::engine::run_indexed(threads, &jobs, |_, job| {
        let (rules, path, is_root) = job;
        SourceFile::load(path).map(|file| {
            let mut v = Vec::new();
            rules::lint_file(&file, *rules, &mut v);
            if *is_root {
                rules::check_forbid_unsafe(&file, &mut v);
            }
            (file, v)
        })
    });
    let mut violations = Vec::new();
    let mut files = Vec::with_capacity(results.len());
    for r in results {
        let (file, v) = r?;
        violations.extend(v);
        files.push(file);
    }
    let scanned = files.len();
    violations.extend(graph::check_concurrency(&files));
    Ok((violations, scanned))
}

/// Verifies the Fig. 7 experiment configurations (constructed in-process
/// from the same generator and P-channel layout the case study uses).
pub fn check_fig7() -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for model in fig7::fig7_models()? {
        violations.extend(ConfigVerifier::verify(&model));
    }
    Ok(violations)
}

/// Checks explicit paths (fixture mode): `.rs` files get every source rule
/// regardless of crate scope plus the concurrency pass (one model over all
/// listed `.rs` files), `.model` files are parsed and verified, and
/// `.fault` chaos fixtures go through the fault-plan verifier.
pub fn check_paths(paths: &[&Path]) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let mut sources: Vec<SourceFile> = Vec::new();
    for path in paths {
        match path.extension().and_then(|e| e.to_str()) {
            Some("rs") => {
                let file = SourceFile::load(path)?;
                rules::lint_file(&file, RuleSet::all(), &mut violations);
                sources.push(file);
            }
            Some(ext) if ext == MODEL_EXT => match SystemModel::load(path) {
                Ok(model) => violations.extend(ConfigVerifier::verify(&model)),
                Err(v) => violations.push(v),
            },
            Some(ext) if ext == FAULT_EXT => {
                faultplan::check_fault_file(path, &mut violations)?;
            }
            _ => {
                return Err(format!(
                    "{}: expected a .rs, .{MODEL_EXT} or .{FAULT_EXT} file",
                    path.display()
                ))
            }
        }
    }
    violations.extend(graph::check_concurrency(&sources));
    Ok(violations)
}
