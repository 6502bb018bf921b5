//! Workspace static analysis for the I/O-GUARD reproduction.
//!
//! The linter reads Rust source and nothing else. It is deterministic and
//! depends on no other crate (the workspace builds offline against
//! vendored stubs, so there is no `syn` here). It has two parts:
//!
//! * **Source lints** ([`scan`], [`rules`]): a token/line-level analyzer
//!   enforcing the workspace's load-bearing invariants — panic-free
//!   hypervisor/sched/NoC library code, checked/saturating `u64` time
//!   arithmetic, no hash-ordered containers or wall clocks on the
//!   deterministic-simulation path, and `#![forbid(unsafe_code)]` in every
//!   crate root. Exceptions go through `// lint: allow(<rule>)` directives
//!   with mandatory justification text.
//! * **Concurrency pass** ([`graph`]): one interprocedural model over all
//!   scanned files, checking lock order, atomic orderings and blocking
//!   calls reachable from hot paths.
//!
//! The `ioguard-lint` binary wires both into `cargo run -p ioguard-lint --
//! check`, which CI runs on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod rules;
pub mod scan;

use std::path::Path;

use rules::{RuleSet, Violation};
use scan::SourceFile;

/// Lints every workspace crate under `root/crates` with its crate-scoped
/// rule set, including the `#![forbid(unsafe_code)]` crate-root check and
/// the workspace-wide concurrency pass ([`graph::check_concurrency`]).
/// Files are linted in sorted (crate, path) order and the concurrency pass
/// runs once over all of them. Returns the violations and the number of
/// files scanned.
pub fn check_workspace(root: &Path) -> Result<(Vec<Violation>, usize), String> {
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
    let mut violations = Vec::new();
    let mut files = Vec::new();
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
            let file = SourceFile::load(&path)?;
            rules::lint_file(&file, rules, &mut violations);
            if path == src.join("lib.rs") {
                rules::check_forbid_unsafe(&file, &mut violations);
            }
            files.push(file);
        }
    }
    violations.extend(graph::check_concurrency(&files));
    Ok((violations, files.len()))
}

/// Checks explicit `.rs` paths (fixture mode): every source rule applies
/// regardless of crate scope, plus the concurrency pass over one model of
/// all listed files. Any other path is a usage error.
pub fn check_paths(paths: &[&Path]) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let mut sources: Vec<SourceFile> = Vec::new();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            return Err(format!("{}: expected a .rs file", path.display()));
        }
        let file = SourceFile::load(path)?;
        rules::lint_file(&file, RuleSet::all(), &mut violations);
        sources.push(file);
    }
    violations.extend(graph::check_concurrency(&sources));
    Ok(violations)
}
