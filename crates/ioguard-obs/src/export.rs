//! Hand-formatted JSON fragments for `OBS_snapshot.json`.
//!
//! The workspace deliberately carries no JSON library, so exports are
//! assembled by string formatting: fixed key order, fixed indentation,
//! integers unquoted — diff-friendly and deterministic by construction.
//! These helpers produce *fragments* at a caller-chosen indent; the
//! `trace-export` bin composes them into the full document.

use crate::counters::CounterRegistry;
use crate::event::{ObsEvent, ALL_KINDS};
use crate::hist::Histogram;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a over a string: the trace-checksum primitive. Snapshots embed the
/// checksum of the canonical rendered trace instead of the full event dump,
/// so a determinism check is one integer comparison.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pad(indent: usize) -> String {
    " ".repeat(indent)
}

/// A histogram summary object: count, min, max, sum, mean, p50/p90/p99.
/// Empty histograms render their statistics as `null`.
pub fn hist_json(h: &Histogram, indent: usize) -> String {
    let p = pad(indent);
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let mean = h
        .mean()
        .map_or_else(|| "null".to_string(), |m| format!("{m:.2}"));
    format!(
        concat!(
            "{{\n",
            "{p}  \"count\": {count},\n",
            "{p}  \"min\": {min},\n",
            "{p}  \"max\": {max},\n",
            "{p}  \"sum\": {sum},\n",
            "{p}  \"mean\": {mean},\n",
            "{p}  \"p50\": {p50},\n",
            "{p}  \"p90\": {p90},\n",
            "{p}  \"p99\": {p99}\n",
            "{p}}}"
        ),
        p = p,
        count = h.count(),
        min = opt(h.min()),
        max = opt(h.max()),
        sum = h.sum(),
        mean = mean,
        p50 = opt(h.percentile(0.50)),
        p90 = opt(h.percentile(0.90)),
        p99 = opt(h.percentile(0.99)),
    )
}

/// A counter-registry object: one `"vm<N>"` entry per VM with every
/// counter field, fixed order.
pub fn counters_json(reg: &CounterRegistry, indent: usize) -> String {
    let p = pad(indent);
    let entries: Vec<String> = reg
        .per_vm()
        .iter()
        .enumerate()
        .map(|(i, vm)| {
            format!(
                concat!(
                    "{p}  \"vm{i}\": {{ \"completed\": {completed}, \"missed\": {missed}, ",
                    "\"critical_missed\": {critical_missed}, ",
                    "\"throttled_submissions\": {ts}, \"throttled_slots\": {tl}, ",
                    "\"retries\": {retries}, \"dropped_best_effort\": {shed} }}"
                ),
                p = p,
                i = i,
                completed = vm.completed,
                missed = vm.missed,
                critical_missed = vm.critical_missed,
                ts = vm.throttled_submissions,
                tl = vm.throttled_slots,
                retries = vm.retries,
                shed = vm.dropped_best_effort,
            )
        })
        .collect();
    if entries.is_empty() {
        "{}".to_string()
    } else {
        format!("{{\n{}\n{p}}}", entries.join(",\n"), p = p)
    }
}

/// Per-kind event counts over a stream: one entry per [`ALL_KINDS`] label
/// (zeros included, so the schema is fixed).
pub fn kind_counts_json<'a, I>(events: I, indent: usize) -> String
where
    I: IntoIterator<Item = &'a ObsEvent>,
{
    let p = pad(indent);
    let mut counts = vec![0u64; ALL_KINDS.len()];
    for event in events {
        if let Some(pos) = ALL_KINDS.iter().position(|k| *k == event.kind) {
            if let Some(slot) = counts.get_mut(pos) {
                *slot = slot.saturating_add(1);
            }
        }
    }
    let entries: Vec<String> = ALL_KINDS
        .iter()
        .zip(counts.iter())
        .map(|(kind, n)| format!("{p}  \"{}\": {n}", kind.label()))
        .collect();
    format!("{{\n{}\n{p}}}", entries.join(",\n"), p = p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsKind;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_eq!(fnv1a("trace"), fnv1a("trace"));
    }

    #[test]
    fn hist_json_renders_null_when_empty() {
        let h = Histogram::new();
        let json = hist_json(&h, 2);
        assert!(json.contains("\"count\": 0"));
        assert!(json.contains("\"min\": null"));
        let mut h = Histogram::new();
        h.record(5);
        assert!(hist_json(&h, 0).contains("\"min\": 5"));
    }

    #[test]
    fn counters_json_has_fixed_field_order() {
        let reg = CounterRegistry::new(2);
        let json = counters_json(&reg, 0);
        assert!(json.contains("\"vm0\""));
        assert!(json.contains("\"vm1\""));
        let completed = json.find("\"completed\"").unwrap_or(usize::MAX);
        let missed = json.find("\"missed\"").unwrap_or(0);
        assert!(completed < missed);
    }

    #[test]
    fn kind_counts_cover_every_kind() {
        let events = [ObsEvent {
            seq: 0,
            at: 0,
            kind: ObsKind::Admit,
            vm: 0,
            task: 0,
            arg: 0,
        }];
        let json = kind_counts_json(events.iter(), 0);
        assert!(json.contains("\"admit\": 1"));
        assert!(json.contains("\"noc-deliver\": 0"));
        assert_eq!(json.matches(':').count(), ALL_KINDS.len());
    }
}
