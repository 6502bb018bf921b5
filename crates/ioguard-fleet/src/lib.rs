//! Sharded hypervisor fleet with incremental admission control.
//!
//! One I/O-GUARD hypervisor instance admits a handful of VMs against a
//! single σ\* — the paper's target platform is one board. A *fleet* scales
//! that out: `N` independent hypervisor shards, each with its own σ\* and
//! its own [`ioguard_sched::DemandLedger`], behind a deterministic
//! placement layer that routes a churn stream of 10⁵+ VM arrivals and
//! departures to shards in `O(Δ)` per decision.
//!
//! The crate is organised as three layers:
//!
//! - [`shard`] — one hypervisor shard: σ\*, the incremental slack-envelope
//!   ledger (Theorem 1 admission in `O(frame/Π)` per VM), and the per-VM
//!   Theorem 3 gate.
//! - [`placement`] — the [`placement::Fleet`]: first-fit or
//!   worst-fit-by-slack placement with seeded tie-breaking, a **bounded**
//!   spillover queue for globally-rejected VMs (retried on departures),
//!   and a renderable decision trace. Shard probes fan out over the
//!   work-stealing engine; because probes are read-only and results come
//!   back in input order, the trace is bit-identical at any thread count.
//! - [`migrate`] — exactly-once VM migration between shards, gated by the
//!   destination ledger alone: reserve in the destination ledger, then
//!   evict from the source. A fault before the point of no return rolls
//!   back; a fault after it rolls forward. Either way the VM exists on
//!   exactly one shard.
//!
//! # Example
//!
//! ```
//! use ioguard_fleet::{Fleet, FleetConfig, PlacementPolicy};
//! use ioguard_workload::{FleetArrivalConfig, FleetArrivals};
//!
//! let config = FleetConfig::new(3, PlacementPolicy::WorstFitBySlack, 42);
//! let mut fleet = Fleet::new(config).expect("valid config");
//! let stream = FleetArrivals::generate(&FleetArrivalConfig::new(200, 40, 42));
//! let decisions = fleet.run(&stream);
//! assert!(!decisions.is_empty());
//! assert!(fleet.resident_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod migrate;
pub mod placement;
pub mod shard;

pub use migrate::{MigrationError, MigrationFault, MigrationOutcome};
pub use placement::{canonical_run, Decision, Fleet, FleetConfig, FleetStats, PlacementPolicy};
pub use shard::Shard;
