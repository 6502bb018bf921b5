//! Pins the `.fault` fixture format shared with `ioguard-lint`.
//!
//! The lint crate re-implements the fixture parsing and constraints
//! standalone, because it reports every problem with its line while
//! `FaultPlan::parse` stops at the first. These tests keep the two views
//! of the format from drifting: the lint's good fixture must parse and
//! validate here, and the lint's seeded-bad fixture must fail validation
//! here for the same reasons the lint rejects it.

use std::path::Path;

use ioguard_faults::FaultPlan;

fn lint_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../ioguard-lint/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lint_good_fixture_parses_and_validates() {
    let plan = FaultPlan::parse(&lint_fixture("good.fault")).expect("parses");
    plan.validate().expect("validates");
    assert_eq!(plan.seed, 42);
    assert_eq!(plan.adversary, Some(1));
    assert_eq!(plan.adversary_flood, 6);
}

#[test]
fn lint_bad_fixture_fails_here_too() {
    // The bad fixture has an unknown key, so parsing itself rejects it.
    let text = lint_fixture("bad_plan.fault");
    assert!(FaultPlan::parse(&text).is_err());
    // With the unknown key stripped, the remaining constraint violations
    // (rates, retry budget, zero burst) surface through validate().
    let stripped: String = text
        .lines()
        .filter(|l| !l.contains("unknown_knob"))
        .collect::<Vec<_>>()
        .join("\n");
    let plan = FaultPlan::parse(&stripped).expect("constraints are not parse errors");
    let errors = plan.validate().expect_err("constraints violated");
    assert!(errors.iter().any(|e| e.contains("drop_rate")), "{errors:?}");
    assert!(
        errors.iter().any(|e| e.contains("retry_budget")),
        "{errors:?}"
    );
    assert!(
        errors.iter().any(|e| e.contains("burst_packets")),
        "{errors:?}"
    );
}
