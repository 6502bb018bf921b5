//! Deterministic substrate for the I/O-GUARD reproduction.
//!
//! This crate is the lowest layer of the workspace: the pieces every
//! experiment needs to be reproducible from a single seed.
//!
//! * [`time`] — the [`Cycles`] time base of the NoC and I/O controllers.
//!   Hypervisor slots are plain `u64`.
//! * [`rng`] — a seedable, splittable [`SplitMix64`]/[`Xoshiro256StarStar`]
//!   RNG so every experiment is reproducible from a single `u64` seed.
//! * [`stats`] — online statistics ([`OnlineStats`]) and fixed-bin
//!   [`Histogram`]s with percentile queries, used by the metric sinks of
//!   the case study.
//!
//! # Example
//!
//! ```
//! use ioguard_sim::rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next(), b.next()); // fully deterministic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, OnlineStats};
pub use time::Cycles;
