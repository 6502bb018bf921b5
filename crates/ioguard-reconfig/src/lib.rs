//! Transactional online reconfiguration for the I/O-GUARD stack.
//!
//! The paper's admission story is static: σ\*, the G-Sched servers and
//! the per-VM task sets are verified once (Theorems 1–4) and then run
//! forever. This crate makes that story *live* without giving up the
//! guarantee: a new configuration is built **beside** the running system
//! as a [`StagedConfig`], pushed through the exact same admission
//! pipeline offline, and only a proof-carrying [`VerifiedConfig`] can be
//! committed — at a hyperperiod boundary of the old σ\*, after a bounded,
//! traced drain of the R-channel pools, with every in-flight transaction
//! carried into the new epoch exactly once. Anything that goes wrong at
//! any point rolls back to the old configuration.
//!
//! * [`staged`] — candidate construction, the typed [`RejectReason`]
//!   taxonomy, and offline verification ([`StagedConfig::verify`], the
//!   one admission gate for a new configuration).
//! * [`protocol`] — the [`ReconfigController`] state machine:
//!   stage → verify → commit → drain → switch, epoch ledger, and the
//!   work-conservation accounting that backs the exactly-once property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod staged;

pub use protocol::{EpochRecord, ReconfigController, ReconfigPhase, ReconfigTotals};
pub use staged::{RejectReason, StagedConfig, VerifiedConfig};
