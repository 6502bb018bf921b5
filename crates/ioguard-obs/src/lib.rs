//! Unified observability layer for the I/O-GUARD reproduction.
//!
//! The paper's core claim is *guaranteed* real-time performance; a claim
//! like that is only auditable if every layer of the stack reports what it
//! did through one machine-checkable surface. This crate is that surface:
//!
//! * [`event`] — one typed event model ([`ObsKind`]/[`ObsEvent`]) shared by
//!   the hypervisor, the NoC, the fault harness and the experiment engine:
//!   request admitted, G-Sched/L-Sched decision, slot dispatch, NoC
//!   inject/deliver, fault, retry, mode change, deadline met/missed.
//! * [`sink`] — [`TraceSink`], a zero-allocation fixed-capacity ring buffer
//!   of events with monotonic sequence numbers and a canonical text
//!   rendering (the golden-trace format).
//! * [`hist`] — [`Histogram`], a log-bucketed latency histogram over `u64`
//!   samples whose [`Histogram::merge`] is associative and commutative, so
//!   work-stealing shards combine bit-identically in any grouping.
//! * [`counters`] — [`VmCounters`]/[`CounterRegistry`], the monotonic
//!   per-VM counter registry (absorbed from the hypervisor's old
//!   `VmMetrics`), plus the event-stream fold that must reproduce the live
//!   registry exactly — the metrics/trace cross-check.
//! * [`export`] — hand-formatted JSON helpers for the `trace-export` bin
//!   (`OBS_snapshot.json`), because the workspace has no JSON serializer
//!   dependency.
//! * [`prom`] — Prometheus text-format rendering of the counter registry
//!   and latency histograms, the scrape surface of the `ioguard-serve`
//!   front-end.
//!
//! Everything here is deterministic by construction (no wall clocks, no
//! hash-ordered containers), so traces and histograms can be pinned as
//! goldens and replayed bit-identically at any engine thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod export;
pub mod hist;
pub mod prom;
pub mod sink;

pub use counters::{CounterRegistry, VmCounters};
pub use event::{ObsEvent, ObsKind, SYSTEM_VM};
pub use hist::Histogram;
pub use sink::TraceSink;
