//! # ioguard-serve — serving front-end for the I/O-GUARD stack
//!
//! Everything else in this workspace is batch trials: build a scenario,
//! run it, inspect the trace. This crate is the **online** posture the
//! ROADMAP north-star asks for — a long-running front-end that ingests a
//! live stream of I/O requests from external clients, routes each one
//! through the paper's admission machinery ([`ioguard_fleet::Shard`]
//! ledger admission for connections, the hypervisor
//! [`ioguard_hypervisor::AdmissionGuard`] for per-request rate policing),
//! dispatches on the σ*-driven hypervisor, and streams typed responses
//! back — completions with end-to-end latency, deadline misses, throttle
//! verdicts, load shedding, and graceful-degradation mode changes.
//!
//! The crate is deliberately **deterministic end to end**:
//!
//! - [`wire`] decodes requests **zero-copy** over the vendored `bytes`
//!   crate: payloads are sub-views of the ingress buffer, never copied,
//!   and malformed frames return typed errors without consuming bytes.
//! - [`server`] applies backpressure with *bounded* per-client queues
//!   (lint-clean under the `unbounded-spillover` rule) and surfaces
//!   every dropped or refused request as a typed response.
//! - [`replay`] is the test harness headline: [`replay::ReplayDriver`]
//!   is one loop over virtual slots — no wall clock, no scheduler — that
//!   feeds synthesized arrival traces (reusing
//!   [`ioguard_workload::arrivals::FleetArrivals`]) at millions of
//!   requests per run, and the observable outcome — trace bytes and
//!   counter folds — is bit-identical at any decode worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod server;
pub mod wire;

pub use replay::{ReplayConfig, ReplayDriver, ReplayReport};
pub use server::{ServeCluster, ServeConfig, ServeError};
pub use wire::{RejectReason, Request, Response, WireError};
