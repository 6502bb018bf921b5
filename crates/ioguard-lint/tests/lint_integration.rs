//! End-to-end checks of the acceptance criteria: the workspace lints
//! clean, and every seeded-bad fixture is rejected with the expected rule.

use std::path::{Path, PathBuf};
use std::process::Command;

use ioguard_lint::rules::rule;
use ioguard_lint::{check_paths, check_workspace};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_lints_clean() {
    let (violations, scanned) = check_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "workspace must lint clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // All nine pre-existing crates plus ioguard-lint itself.
    assert!(scanned >= 40, "expected a full scan, got {scanned} files");
}

#[test]
fn seeded_unwrap_fixture_is_rejected() {
    let path = fixture("bad_unwrap.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for expected in [
        rule::PANIC_SITE,
        rule::INDEXING,
        rule::UNCHECKED_ARITH,
        rule::CAST_NARROWING,
        rule::NONDETERMINISM,
        rule::MISSING_JUSTIFICATION,
    ] {
        assert!(rules.contains(&expected), "missing {expected}: {rules:?}");
    }
}

#[test]
fn seeded_spillover_fixture_is_rejected() {
    let path = fixture("bad_spillover.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.rule == rule::UNBOUNDED_SPILLOVER)
            .count(),
        3,
        "the three unguarded grows flagged, the guarded one exempt: {violations:?}"
    );
}

#[test]
fn seeded_backpressure_fixture_is_rejected() {
    let path = fixture("bad_backpressure.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.rule == rule::UNBOUNDED_SPILLOVER)
            .count(),
        2,
        "both unguarded backlog grows flagged, the bounded one exempt: {violations:?}"
    );
}

#[test]
fn seeded_hotpath_fixture_is_rejected() {
    let path = fixture("bad_hotpath.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .filter(|v| v.rule == rule::HOT_PATH_LOOKUP)
            .count()
            >= 2,
        "both loop lookups flagged: {violations:?}"
    );
}

#[test]
fn seeded_liveconfig_fixture_is_rejected() {
    let path = fixture("bad_liveconfig.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.rule == rule::LIVE_CONFIG_MUTATION)
            .count(),
        3,
        "all three in-place config patches flagged: {violations:?}"
    );
    // The builder method and the read-only accessor must stay clean — the
    // fixture seeds exactly one rule.
    assert!(
        violations
            .iter()
            .all(|v| v.rule == rule::LIVE_CONFIG_MUTATION),
        "{violations:?}"
    );
}

#[test]
fn seeded_lockorder_fixture_is_rejected() {
    let path = fixture("bad_lockorder.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .any(|v| v.rule == rule::LOCK_ORDER && v.message.contains("alpha")),
        "{violations:?}"
    );
}

#[test]
fn seeded_relaxed_fixture_is_rejected() {
    let path = fixture("bad_relaxed.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .filter(|v| v.rule == rule::RELAXED_ORDERING)
            .count()
            >= 2,
        "both the relaxed store and the unpaired acquire flagged: {violations:?}"
    );
}

#[test]
fn seeded_blocking_fixture_is_rejected() {
    let path = fixture("bad_blocking.rs");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .any(|v| v.rule == rule::BLOCKING_IN_HOT_PATH && v.message.contains("step_cycle")),
        "{violations:?}"
    );
}

#[test]
fn violations_are_identical_across_runs() {
    let paths = [
        fixture("bad_lockorder.rs"),
        fixture("bad_relaxed.rs"),
        fixture("bad_blocking.rs"),
    ];
    let refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
    let a = check_paths(&refs).expect("fixtures readable");
    let b = check_paths(&refs).expect("fixtures readable");
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn unknown_extension_is_a_usage_error() {
    let path = fixture("nope.txt");
    assert!(check_paths(&[path.as_path()]).is_err());
}

/// Runs the CLI on each `bad_*.rs` fixture alone, so a fixture that stops
/// firing cannot hide behind the others in a combined run.
#[test]
fn each_bad_fixture_fails_the_cli_on_its_own() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "rs")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("bad_"))
        })
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 8, "{fixtures:?}");
    for path in &fixtures {
        let out = Command::new(env!("CARGO_BIN_EXE_ioguard-lint"))
            .arg("check")
            .arg(path)
            .output()
            .expect("ioguard-lint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
        let prefix = path.display().to_string();
        assert!(
            stderr.lines().any(|l| l.starts_with(&prefix)),
            "{}: no violation line names it:\n{stderr}",
            path.display()
        );
    }
    // Anything but a `.rs` path is a usage error, an unknown flag included.
    for args in [
        &["check", "fixtures/x.model"][..],
        &["check", "--threads", "2"],
        &["check", "--json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ioguard-lint"))
            .args(args)
            .output()
            .expect("ioguard-lint runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
