//! Benchmark host crate. The measurement content lives in the
//! `benches/` targets and the `bench-summary` bin; this library holds
//! the pieces worth unit-testing, chiefly the rolling `history`
//! bookkeeping of `BENCH_noc.json`.
//!
//! History entries are one-per-line compact JSON objects starting with
//! `{"mode":` inside the summary's `history` array, so they can be
//! recovered from a previous file by line scanning without a JSON
//! parser. The invariant — regression-tested here after the aborted-run
//! bug — is that an entry is appended **only for fully-completed runs**:
//! a run that fails an acceptance gate still writes its full JSON for
//! inspection, but must not pollute the trend the next runs compare
//! against.
#![forbid(unsafe_code)]

/// Pulls the single-line `history` entries out of a previous summary
/// document, oldest first, keeping at most `keep` of the newest.
pub fn history_entries(text: &str, keep: usize) -> Vec<String> {
    let entries: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with("{\"mode\":"))
        .map(|line| line.trim_end_matches(',').to_string())
        .collect();
    let skip = entries.len().saturating_sub(keep);
    entries.into_iter().skip(skip).collect()
}

/// Reads the prior history from `path` (missing or unreadable file ⇒
/// empty history).
pub fn prior_history(path: &str, keep: usize) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => history_entries(&text, keep),
        Err(_) => Vec::new(),
    }
}

/// Rolls the history forward: appends `entry` **only when the run
/// completed** (all acceptance gates passed), then trims to the newest
/// `keep` entries. An aborted run keeps the prior history verbatim, so
/// trend lines only ever contain apples-to-apples complete runs.
pub fn rolled_history(
    mut prior: Vec<String>,
    entry: String,
    completed: bool,
    keep: usize,
) -> Vec<String> {
    if completed {
        prior.push(entry);
    }
    let skip = prior.len().saturating_sub(keep);
    prior.into_iter().skip(skip).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mode: &str, n: u64) -> String {
        format!("{{\"mode\": \"{mode}\", \"admission_speedup\": {n}.0}}")
    }

    /// A summary fragment shaped like the real file: history entries are
    /// indented, comma-separated lines inside the `history` array.
    fn summary_with_history(entries: &[String]) -> String {
        let mut text =
            String::from("{\n  \"schema\": \"ioguard-bench-noc/v7\",\n  \"history\": [\n");
        for (i, e) in entries.iter().enumerate() {
            text.push_str("    ");
            text.push_str(e);
            if i + 1 < entries.len() {
                text.push(',');
            }
            text.push('\n');
        }
        text.push_str("  ]\n}\n");
        text
    }

    #[test]
    fn history_round_trips_through_the_rendered_document() {
        let entries = vec![entry("full", 1), entry("quick", 2), entry("full", 3)];
        let text = summary_with_history(&entries);
        assert_eq!(history_entries(&text, 7), entries);
    }

    #[test]
    fn history_scan_keeps_only_the_newest() {
        let entries: Vec<String> = (0..10).map(|n| entry("full", n)).collect();
        let text = summary_with_history(&entries);
        let kept = history_entries(&text, 3);
        assert_eq!(kept, entries[7..].to_vec());
    }

    /// The regression test for the aborted-run bug: a gate-failed run
    /// must leave the rolling history exactly as it found it.
    #[test]
    fn aborted_runs_do_not_append_history() {
        let prior = vec![entry("full", 1), entry("full", 2)];
        let after = rolled_history(prior.clone(), entry("full", 99), false, 7);
        assert_eq!(after, prior, "aborted run polluted the history trend");
    }

    #[test]
    fn completed_runs_append_and_trim() {
        let prior: Vec<String> = (0..7).map(|n| entry("full", n)).collect();
        let after = rolled_history(prior.clone(), entry("full", 7), true, 7);
        assert_eq!(after.len(), 7, "history must stay bounded");
        assert_eq!(
            after.first(),
            Some(&entry("full", 1)),
            "oldest entry trimmed"
        );
        assert_eq!(after.last(), Some(&entry("full", 7)), "new entry appended");
    }

    /// End-to-end shape: write → abort → write again must equal a single
    /// completed write (the aborted middle run is invisible).
    #[test]
    fn aborted_write_is_invisible_to_the_next_run() {
        let run1 = rolled_history(Vec::new(), entry("full", 1), true, 7);
        let text1 = summary_with_history(&run1);
        // Run 2 fails a gate: full JSON still written, history unchanged.
        let run2 = rolled_history(history_entries(&text1, 7), entry("full", 2), false, 7);
        let text2 = summary_with_history(&run2);
        // Run 3 completes.
        let run3 = rolled_history(history_entries(&text2, 7), entry("full", 3), true, 7);
        assert_eq!(run3, vec![entry("full", 1), entry("full", 3)]);
    }

    #[test]
    fn missing_prior_file_means_empty_history() {
        assert!(prior_history("/nonexistent/BENCH_noc.json", 7).is_empty());
    }
}
