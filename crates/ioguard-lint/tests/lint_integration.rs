//! End-to-end checks of the acceptance criteria: the workspace and the
//! Fig. 7 configurations lint clean, and every seeded-bad fixture is
//! rejected with the expected rule.

use std::path::{Path, PathBuf};

use ioguard_lint::faultplan::fault_rule;
use ioguard_lint::model::model_rule;
use ioguard_lint::rules::{render_json, rule};
use ioguard_lint::{check_fig7, check_paths, check_workspace, check_workspace_threaded};

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
fn fig7_configs_verify_clean() {
    let violations = check_fig7().expect("fig7 models construct");
    assert!(violations.is_empty(), "{violations:?}");
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
fn thread_count_does_not_change_the_verdict() {
    let root = workspace_root();
    let (seq, seq_scanned) = check_workspace_threaded(&root, 1).expect("sequential scan");
    let (par, par_scanned) = check_workspace_threaded(&root, 8).expect("parallel scan");
    assert_eq!(seq_scanned, par_scanned);
    assert_eq!(
        seq.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        par.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        "violations must come back in the same order at any thread count"
    );
    assert_eq!(render_json(&seq), render_json(&par));
}

#[test]
fn json_rendering_is_byte_identical_across_runs() {
    let paths = [
        fixture("bad_lockorder.rs"),
        fixture("bad_relaxed.rs"),
        fixture("bad_blocking.rs"),
    ];
    let refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
    let a = render_json(&check_paths(&refs).expect("fixtures readable"));
    let b = render_json(&check_paths(&refs).expect("fixtures readable"));
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes());
    for line in a.lines() {
        let keys: Vec<usize> = ["\"path\":", "\"line\":", "\"rule\":", "\"message\":"]
            .iter()
            .map(|k| line.find(k).expect("stable field present"))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "fields in fixed order: {line}"
        );
    }
}

#[test]
fn seeded_overlap_model_is_rejected() {
    let path = fixture("bad_overlap.model");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .any(|v| v.rule == model_rule::TABLE_OVERLAP),
        "{violations:?}"
    );
}

#[test]
fn seeded_cyclic_route_model_is_rejected() {
    let path = fixture("bad_cycle.model");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(
        violations
            .iter()
            .any(|v| v.rule == model_rule::NOC_DEADLOCK),
        "{violations:?}"
    );
}

#[test]
fn good_model_fixture_passes() {
    let path = fixture("good.model");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn good_fault_plan_fixture_passes() {
    let path = fixture("good.fault");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn seeded_bad_fault_plan_is_rejected() {
    let path = fixture("bad_plan.fault");
    let violations = check_paths(&[path.as_path()]).expect("fixture readable");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for expected in [
        fault_rule::RATE,
        fault_rule::RETRY,
        fault_rule::POSITIVE,
        fault_rule::PARSE,
    ] {
        assert!(rules.contains(&expected), "missing {expected}: {rules:?}");
    }
}

#[test]
fn unknown_extension_is_a_usage_error() {
    let path = fixture("nope.txt");
    assert!(check_paths(&[path.as_path()]).is_err());
}
