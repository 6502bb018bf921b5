//! Layer 2b: the `.fault` fixture verifier.
//!
//! Chaos fixtures (`*.fault`, consumed by `ioguard-faults::FaultPlan`) are
//! flat `key = value` files. This module re-implements their parsing and
//! static constraints rather than calling `FaultPlan::parse`, because a
//! checker must report *every* problem with its line, while
//! `FaultPlan::parse` stops at the first bad line and
//! `FaultPlan::validate` reports no lines; `ioguard-faults` carries a
//! round-trip test pinning the two views of the format together.
//!
//! Constraints certified before a plan is allowed near CI:
//!
//! * every `*_rate` lies in `[0, 1]` and is finite — a NaN or out-of-range
//!   rate silently skews a chance comparison instead of erroring at run
//!   time;
//! * `retry_budget ≤ 16` — the watchdog's worst-case recovery latency is a
//!   function of the retry budget, so an unbounded budget voids the bounded-
//!   recovery guarantee;
//! * `burst_packets` and `device_stall_slots` are positive — a zero-length
//!   burst or stall is a fixture typo, not a quiet plan.

use std::path::Path;

use crate::rules::Violation;

/// Fault-fixture rule identifiers.
pub mod fault_rule {
    /// The fixture could not be parsed (syntax, unknown key, bad value).
    pub const PARSE: &str = "fault-parse";
    /// A probability is outside `[0, 1]` or not finite.
    pub const RATE: &str = "fault-rate";
    /// The retry budget exceeds the bounded-recovery limit.
    pub const RETRY: &str = "fault-retry-budget";
    /// A length field that must be positive is zero.
    pub const POSITIVE: &str = "fault-positive";
}

/// Retry-budget bound; mirrors `ioguard_faults::plan::MAX_RETRY_BUDGET`.
pub const MAX_RETRY_BUDGET: u64 = 16;

/// The probability-valued keys of the format.
const RATE_KEYS: [&str; 6] = [
    "link_down_rate",
    "drop_rate",
    "corrupt_rate",
    "burst_rate",
    "device_stall_rate",
    "malformed_rate",
];

/// The integer-valued keys of the format.
const INT_KEYS: [&str; 7] = [
    "seed",
    "burst_packets",
    "device_stall_slots",
    "retry_budget",
    "adversary",
    "adversary_flood",
    "wcet_overrun",
];

/// Lengths that must be positive, with their defaults when omitted.
const POSITIVE_KEYS: [(&str, u64); 2] = [("burst_packets", 4), ("device_stall_slots", 8)];

/// Parses and verifies one `.fault` fixture, appending every violation
/// found (empty = certified).
pub fn check_fault_plan(path: &Path, text: &str, out: &mut Vec<Violation>) {
    let v = |rule: &'static str, line: usize, message: String| Violation {
        rule,
        path: path.to_path_buf(),
        line,
        message,
    };
    let mut ints: Vec<(&str, u64, usize)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let n = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            out.push(v(fault_rule::PARSE, n, "expected `key = value`".into()));
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if RATE_KEYS.contains(&key) {
            match value.parse::<f64>() {
                Ok(rate) if (0.0..=1.0).contains(&rate) => {}
                Ok(rate) => out.push(v(
                    fault_rule::RATE,
                    n,
                    format!("{key} = {rate} outside [0, 1]"),
                )),
                Err(e) => out.push(v(fault_rule::PARSE, n, format!("{key}: {e}"))),
            }
        } else if INT_KEYS.contains(&key) {
            match value.parse::<u64>() {
                Ok(int) => ints.push((key, int, n)),
                Err(e) => out.push(v(fault_rule::PARSE, n, format!("{key}: {e}"))),
            }
        } else {
            out.push(v(fault_rule::PARSE, n, format!("unknown key `{key}`")));
        }
    }
    for &(key, int, n) in &ints {
        if key == "retry_budget" && int > MAX_RETRY_BUDGET {
            out.push(v(
                fault_rule::RETRY,
                n,
                format!("retry_budget = {int} exceeds bound {MAX_RETRY_BUDGET} — watchdog recovery latency becomes unbounded"),
            ));
        }
    }
    for (key, _default) in POSITIVE_KEYS {
        // A key left at its (positive) default is fine; only an explicit
        // zero is a violation.
        if let Some(&(_, _, n)) = ints.iter().find(|(k, int, _)| *k == key && *int == 0) {
            out.push(v(
                fault_rule::POSITIVE,
                n,
                format!("{key} must be positive"),
            ));
        }
    }
}

/// Loads and verifies a `.fault` fixture from disk.
pub fn check_fault_file(path: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    check_fault_plan(path, &text, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn check(text: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_fault_plan(Path::new("mem.fault"), text, &mut out);
        out
    }

    #[test]
    fn clean_plan_passes() {
        let v = check(
            "# battery plan\nseed = 42\ndrop_rate = 0.1\nadversary = 1\n\
             adversary_flood = 6\nretry_budget = 3\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_range_rate_flagged_with_line() {
        let v = check("seed = 1\ndrop_rate = 1.5\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, fault_rule::RATE);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn nan_rate_is_rejected() {
        let v = check("corrupt_rate = NaN\n");
        assert!(v.iter().any(|v| v.rule == fault_rule::RATE), "{v:?}");
    }

    #[test]
    fn unbounded_retry_budget_flagged() {
        let v = check("retry_budget = 99\n");
        assert!(v.iter().any(|v| v.rule == fault_rule::RETRY), "{v:?}");
    }

    #[test]
    fn zero_lengths_flagged() {
        let v = check("burst_packets = 0\ndevice_stall_slots = 0\n");
        assert_eq!(
            v.iter().filter(|v| v.rule == fault_rule::POSITIVE).count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn unknown_keys_and_syntax_errors_flagged() {
        let v = check("bogus = 1\nno equals sign\nseed = banana\n");
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == fault_rule::PARSE));
    }

    #[test]
    fn multiple_violations_all_reported() {
        let v = check("drop_rate = 2.0\nburst_rate = -0.1\nretry_budget = 17\n");
        assert_eq!(v.len(), 3, "{v:?}");
    }
}
