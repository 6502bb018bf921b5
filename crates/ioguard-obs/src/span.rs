//! Lightweight span-style profiling hooks.
//!
//! A [`Profiler`] holds a fixed table of named spans; a hot path calls
//! [`Profiler::stamp`] at entry and [`Profiler::exit`] at exit. With the
//! `profiling` feature **off** (the default) the stamp is a zero-sized
//! value and `exit` compiles to nothing — no clock reads, no branches on
//! the hot path, and the crate stays fully deterministic. With the feature
//! on, spans accumulate wall-clock nanoseconds.
//!
//! [`Profiler::record_ns`] and [`Profiler::merge`] are always available
//! (merge is associative by position), so deterministic tests can exercise
//! the aggregation without the feature.

/// One named span's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name (static: the profiler's table is fixed at construction).
    pub name: &'static str,
    /// Number of completed enter/exit pairs (or `record_ns` calls).
    pub count: u64,
    /// Accumulated nanoseconds (saturating). Always zero in default builds.
    pub total_ns: u64,
}

/// An opaque entry stamp returned by [`Profiler::stamp`].
///
/// Zero-sized unless the `profiling` feature is enabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanStamp {
    #[cfg(feature = "profiling")]
    start: std::time::Instant, // lint: allow(nondeterminism) — wall clock is compiled in only under the opt-in profiling feature; default deterministic builds contain no Instant
}

/// A fixed table of profiling spans.
///
/// # Example
///
/// ```
/// use ioguard_obs::Profiler;
///
/// let mut prof = Profiler::new(&["dispatch", "noc-step"]);
/// let stamp = Profiler::stamp();
/// // ... hot work ...
/// prof.exit(0, stamp);
/// assert_eq!(prof.spans().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profiler {
    spans: Vec<Span>,
}

impl Profiler {
    /// A profiler with one zeroed span per name.
    pub fn new(names: &[&'static str]) -> Self {
        Self {
            spans: names
                .iter()
                .map(|&name| Span {
                    name,
                    count: 0,
                    total_ns: 0,
                })
                .collect(),
        }
    }

    /// Takes an entry stamp. Free when `profiling` is off.
    #[inline]
    pub fn stamp() -> SpanStamp {
        SpanStamp {
            #[cfg(feature = "profiling")]
            start: std::time::Instant::now(), // lint: allow(nondeterminism) — wall clock is compiled in only under the opt-in profiling feature; default deterministic builds contain no Instant
        }
    }

    /// Closes a span opened by [`Profiler::stamp`]. A no-op (the stamp and
    /// index are discarded) when `profiling` is off; out-of-range indices
    /// are ignored.
    #[inline]
    pub fn exit(&mut self, index: usize, stamp: SpanStamp) {
        #[cfg(feature = "profiling")]
        {
            let ns = u64::try_from(stamp.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.record_ns(index, ns);
        }
        #[cfg(not(feature = "profiling"))]
        {
            let _ = (index, stamp);
        }
    }

    /// Adds one completion of `ns` nanoseconds to span `index` (ignored
    /// when out of range). Always available, so deterministic tests can
    /// drive the aggregation directly.
    pub fn record_ns(&mut self, index: usize, ns: u64) {
        if let Some(span) = self.spans.get_mut(index) {
            span.count = span.count.saturating_add(1);
            span.total_ns = span.total_ns.saturating_add(ns);
        }
    }

    /// Merges another profiler's totals into this one, by span position.
    /// Associative and commutative, so shard profilers combine identically
    /// in any grouping.
    pub fn merge(&mut self, other: &Profiler) {
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans.iter()) {
            mine.count = mine.count.saturating_add(theirs.count);
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
        }
    }

    /// All spans, table order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_by_position() {
        let mut a = Profiler::new(&["x", "y"]);
        a.record_ns(0, 10);
        a.record_ns(1, 5);
        let mut b = Profiler::new(&["x", "y"]);
        b.record_ns(0, 7);
        a.merge(&b);
        let spans = a.spans();
        assert_eq!(spans.first().map(|s| (s.count, s.total_ns)), Some((2, 17)));
        assert_eq!(spans.get(1).map(|s| (s.count, s.total_ns)), Some((1, 5)));
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut p = Profiler::new(&["only"]);
        p.record_ns(3, 100);
        assert_eq!(p.spans().first().map(|s| s.count), Some(0));
    }

    #[cfg(not(feature = "profiling"))]
    #[test]
    fn default_build_exit_is_a_no_op() {
        let mut p = Profiler::new(&["hot"]);
        let stamp = Profiler::stamp();
        p.exit(0, stamp);
        assert_eq!(
            p.spans().first().map(|s| (s.count, s.total_ns)),
            Some((0, 0))
        );
        assert_eq!(std::mem::size_of::<SpanStamp>(), 0);
    }

    #[cfg(feature = "profiling")]
    #[test]
    fn profiling_build_accumulates() {
        let mut p = Profiler::new(&["hot"]);
        let stamp = Profiler::stamp();
        p.exit(0, stamp);
        assert_eq!(p.spans().first().map(|s| s.count), Some(1));
    }
}
