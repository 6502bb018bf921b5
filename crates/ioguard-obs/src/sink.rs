//! The trace sink: a zero-allocation, fixed-capacity event ring.
//!
//! Overflow policy: **drop-oldest**. The ring keeps the most recent
//! `capacity` events and counts evictions in [`TraceSink::dropped`], so a
//! saturated sink still tells a consumer exactly how much history it lost.
//! Sequence numbers are assigned at record time and survive eviction —
//! a reader can detect gaps. Capacity zero disables the sink entirely
//! (records become counted no-ops), which is how production-shaped runs
//! keep the hot paths obs-free.
//!
//! All storage is allocated at construction; `record` never allocates, so
//! it is safe to call from `// lint: hot-path` loops.

use std::collections::VecDeque;

use crate::event::{ObsEvent, ObsKind};

/// Fixed-capacity ring buffer of [`ObsEvent`]s.
///
/// # Example
///
/// ```
/// use ioguard_obs::{ObsKind, TraceSink};
///
/// let mut sink = TraceSink::new(2);
/// sink.record(1, ObsKind::Admit, 0, 7, 3);
/// sink.record(2, ObsKind::Dispatch, 0, 7, 0);
/// sink.record(3, ObsKind::Complete, 0, 7, 2); // evicts the admit
/// assert_eq!(sink.len(), 2);
/// assert_eq!(sink.dropped(), 1);
/// assert_eq!(sink.iter().next().map(|e| e.seq), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSink {
    capacity: usize,
    events: VecDeque<ObsEvent>,
    next_seq: u64,
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink retaining at most `capacity` events. Zero disables
    /// recording.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event. O(1), allocation-free after construction.
    #[inline]
    pub fn record(&mut self, at: u64, kind: ObsKind, vm: u32, task: u64, arg: u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.capacity == 0 {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.events.push_back(ObsEvent {
            seq,
            at,
            kind,
            vm,
            task,
            arg,
        });
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted or ignored so far (overflow indicator: a consumer
    /// asserting lossless capture checks this is zero).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Retained events of one kind, oldest first.
    pub fn of_kind(&self, kind: ObsKind) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Canonical multi-line rendering of the retained stream — the
    /// golden-trace payload. One [`ObsEvent::render`] line per event, `\n`
    /// separated, trailing newline when non-empty.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.render());
            out.push('\n');
        }
        out
    }

    /// Clears retained events (sequence and drop counters are preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_survive_eviction() {
        let mut s = TraceSink::new(2);
        for i in 0..5 {
            s.record(i, ObsKind::Marker, 0, i, 0);
        }
        let seqs: Vec<u64> = s.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.recorded(), 5);
    }

    #[test]
    fn disabled_sink_counts_but_keeps_nothing() {
        let mut s = TraceSink::new(0);
        s.record(1, ObsKind::Admit, 0, 1, 1);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.recorded(), 1);
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut s = TraceSink::new(8);
        s.record(1, ObsKind::Admit, 0, 1, 2);
        s.record(2, ObsKind::Complete, 0, 1, 1);
        let text = s.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.contains("admit"));
        assert!(text.contains("complete"));
        assert_eq!(TraceSink::new(4).render(), "");
    }

    #[test]
    fn of_kind_filters() {
        let mut s = TraceSink::new(8);
        s.record(1, ObsKind::Admit, 0, 1, 0);
        s.record(2, ObsKind::DeadlineMiss, 0, 1, 1);
        s.record(3, ObsKind::Admit, 1, 2, 0);
        assert_eq!(s.of_kind(ObsKind::Admit).count(), 2);
        assert_eq!(s.of_kind(ObsKind::DeadlineMiss).count(), 1);
        assert_eq!(s.of_kind(ObsKind::Retry).count(), 0);
    }

    #[test]
    fn clear_preserves_counters() {
        let mut s = TraceSink::new(1);
        s.record(1, ObsKind::Marker, 0, 0, 0);
        s.record(2, ObsKind::Marker, 0, 0, 0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.recorded(), 2);
    }
}
