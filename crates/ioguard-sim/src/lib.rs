//! Discrete-event simulation kernel for the I/O-GUARD reproduction.
//!
//! This crate is the lowest substrate of the workspace: everything that the
//! paper's FPGA platform provides "for free" — a global timer, synchronous
//! clocking, deterministic arbitration — is modelled here as a small,
//! deterministic discrete-event kernel.
//!
//! The kernel is deliberately minimal and allocation-light so the case-study
//! engine can run thousands of trials per experiment point:
//!
//! * [`time`] — strongly-typed time bases. The hypervisor schedules at
//!   *slot* granularity ([`Slots`]); the NoC runs at *cycle* granularity
//!   ([`Cycles`]); [`SlotClock`] converts between them explicitly.
//! * [`events`] — a deterministic event queue ([`EventQueue`]) with total
//!   ordering (time, then insertion sequence), plus a tiny [`Simulator`]
//!   driver loop.
//! * [`rng`] — a seedable, splittable [`SplitMix64`]/[`Xoshiro256StarStar`]
//!   RNG so every experiment is reproducible from a single `u64` seed.
//! * [`stats`] — online statistics ([`OnlineStats`]), fixed-bin
//!   [`Histogram`]s with percentile queries, and windowed counters used by
//!   the metric sinks of the case study.
//!
//! # Example
//!
//! ```
//! use ioguard_sim::events::{EventQueue, Simulator};
//! use ioguard_sim::time::Cycles;
//!
//! let mut queue = EventQueue::new();
//! queue.push(Cycles::new(10), "late");
//! queue.push(Cycles::new(5), "early");
//! let (t, ev) = queue.pop().expect("queue is non-empty");
//! assert_eq!((t, ev), (Cycles::new(5), "early"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{EventQueue, Simulator};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, OnlineStats};
pub use time::{Cycles, SlotClock, Slots};
