//! In-memory span tracing around the benchmark's calls into each crate.
//!
//! A span is (name, start, end, parent span, request id). Spans live only
//! in the benchmark's own files; the program is never instrumented. Each
//! name keeps running totals (calls, total and self nanoseconds, total and
//! self allocations), where self is the span minus the part its child spans
//! cover. The first [`RAW_CAP`] spans are also kept verbatim and written out
//! when the run ends.
//!
//! A span opened right after a sibling closed (under the same parent)
//! starts at the instant the sibling ended: the benchmark's glue between
//! two calls is charged to the later span instead of to nobody, and one
//! clock read (≈45 ns on a virtualised TSC) is saved per span.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Verbatim spans kept per run; totals keep counting beyond it.
const RAW_CAP: usize = 100_000;

/// The span sink a workload loop is generic over: [`Tracer`] records,
/// [`NoSpans`] compiles to nothing, so the untraced loop pays no cost.
pub trait Spans {
    /// Opens span `name` (an index into the workload's name table).
    fn begin(&mut self, name: usize, req: u64);
    /// Closes the innermost open span.
    fn end(&mut self);
    /// Records a closed leaf span the caller timed itself.
    fn leaf(&mut self, name: usize, req: u64, start: Instant, end: Instant, allocs: u64);
}

/// The untraced sink.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn begin(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn leaf(&mut self, _: usize, _: u64, _: Instant, _: Instant, _: u64) {}
}

/// Running totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
    /// Allocations inside the spans, children included.
    pub allocs: u64,
    /// Allocations inside the spans minus those of child spans.
    pub self_allocs: u64,
}

/// One verbatim span.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: usize,
    id: u32,
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: usize,
    id: u32,
    req: u64,
    start: Instant,
    allocs0: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// The recording sink.
pub struct Tracer {
    names: &'static [&'static str],
    epoch: Instant,
    stats: Vec<SpanStat>,
    stack: Vec<Open>,
    raw: Vec<SpanRec>,
    next_id: u32,
    /// End instant of the last closed span and the depth it closed at.
    last_end: Option<(Instant, usize)>,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer over `names`, with span start times measured from `epoch`.
    pub fn new(names: &'static [&'static str], epoch: Instant) -> Self {
        Self {
            names,
            epoch,
            stats: vec![SpanStat::default(); names.len()],
            stack: Vec::with_capacity(16),
            raw: Vec::new(),
            next_id: 1,
            last_end: None,
        }
    }

    /// Books the closed span `open`, which ended at `end` having made
    /// `allocs` allocations, children included.
    fn close(&mut self, open: Open, end: Instant, allocs: u64) {
        let Open {
            name,
            id,
            req,
            start,
            child_ns,
            child_allocs,
            ..
        } = open;
        let dur = ns(end.duration_since(start));
        let s = &mut self.stats[name];
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(child_ns);
        s.allocs += allocs;
        s.self_allocs += allocs.saturating_sub(child_allocs);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.id
            }
            None => 0,
        };
        if self.raw.len() < RAW_CAP {
            self.raw.push(SpanRec {
                name,
                id,
                parent,
                req,
                start_ns: ns(start.saturating_duration_since(self.epoch)),
                end_ns: ns(end.saturating_duration_since(self.epoch)),
            });
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Totals of span `name`.
    pub fn stat(&self, name: usize) -> SpanStat {
        self.stats[name]
    }

    /// Folds another tracer over the same names into this one (per-worker
    /// tracers of a parallel run).
    pub fn absorb(&mut self, other: &Tracer) {
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.allocs += theirs.allocs;
            mine.self_allocs += theirs.self_allocs;
        }
        let offset = self.next_id;
        let room = RAW_CAP.saturating_sub(self.raw.len());
        self.raw
            .extend(other.raw.iter().take(room).map(|r| SpanRec {
                id: r.id.wrapping_add(offset),
                parent: if r.parent == 0 {
                    0
                } else {
                    r.parent.wrapping_add(offset)
                },
                ..*r
            }));
        self.next_id = self.next_id.wrapping_add(other.next_id);
    }

    /// Writes the verbatim spans and the per-name totals as tab-separated
    /// text to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("# name\tcalls\ttotal_ns\tself_ns\tallocs\tself_allocs\n");
        for (name, s) in self.names.iter().zip(&self.stats) {
            let _ = writeln!(
                out,
                "# {name}\t{}\t{}\t{}\t{}\t{}",
                s.calls, s.total_ns, s.self_ns, s.allocs, s.self_allocs
            );
        }
        out.push_str("name\tid\tparent\treq\tstart_ns\tend_ns\n");
        for r in &self.raw {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                self.names[r.name], r.id, r.parent, r.req, r.start_ns, r.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Spans for Tracer {
    #[inline]
    fn begin(&mut self, name: usize, req: u64) {
        let id = self.fresh_id();
        let depth = self.stack.len();
        let start = match self.last_end.take() {
            // Root spans never chain: untimed set-up runs between them.
            Some((at, d)) if d == depth && depth > 0 => at,
            _ => Instant::now(),
        };
        self.stack.push(Open {
            name,
            id,
            req,
            start,
            allocs0: alloc::local(),
            child_ns: 0,
            child_allocs: 0,
        });
    }

    #[inline]
    fn end(&mut self) {
        let end = Instant::now();
        let allocs_now = alloc::local();
        let open = self.stack.pop().expect("span end without begin");
        let allocs = allocs_now - open.allocs0;
        self.close(open, end, allocs);
        self.last_end = Some((end, self.stack.len()));
    }

    #[inline]
    fn leaf(&mut self, name: usize, req: u64, start: Instant, end: Instant, allocs: u64) {
        let id = self.fresh_id();
        self.last_end = None;
        let open = Open {
            name,
            id,
            req,
            start,
            allocs0: 0,
            child_ns: 0,
            child_allocs: 0,
        };
        self.close(open, end, allocs);
    }
}
