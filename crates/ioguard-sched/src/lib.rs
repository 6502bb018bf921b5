//! Schedulability analysis for the I/O-GUARD two-layer scheduler.
//!
//! This crate implements Sec. IV of the paper verbatim:
//!
//! * [`task`] — the workload model: sporadic I/O tasks `τ_k = (T_k, C_k,
//!   D_k)` with constrained deadlines, and periodic server tasks
//!   `Γ_i = (Π_i, Θ_i)` backing each VM.
//! * [`table`] — the *Time Slot Table* σ\* produced by the P-channel: a
//!   cyclic schedule of length `H` with `F` free slots, and the supply bound
//!   function `sbf(σ, t)` of its free slots (Eqs. 1–2).
//! * [`demand`] — demand bound functions: `dbf(Γ_i, t)` for servers (Eq. 3)
//!   and `dbf(τ_k, t)` for sporadic tasks (Eq. 9), plus the periodic resource
//!   model supply `sbf(Γ_i, t)` (Eq. 8).
//! * [`gsched`] — the G-Sched test: **Theorem 1** (exact, hyper-period
//!   bounded) and **Theorem 2** (pseudo-polynomial bound).
//! * [`lsched`] — the L-Sched test: **Theorem 3** (exact) and **Theorem 4**
//!   (pseudo-polynomial bound).
//! * [`analysis`] — the two-layer verdict: Theorem 1 on σ\* plus
//!   Theorem 3 per VM, which staged reconfiguration admits through.
//! * [`ledger`] — the O(Δ)-incremental admission path: a persistent
//!   [`DemandLedger`] materializes the slack envelope `sbf − Σ dbf` over a
//!   harmonic frame so `admit`/`evict` touch only the tree nodes the
//!   changed VM's demand staircase crosses instead of re-sweeping the
//!   hyper-period.
//! * [`edfsim`] — a slot-level preemptive-EDF reference simulator used to
//!   cross-validate the analysis (analysis says *schedulable* ⇒ the
//!   simulator observes zero deadline misses).
//! * [`design`] — server-parameter synthesis: given the per-VM task sets and
//!   σ\*, choose `(Π_i, Θ_i)` so that both layers pass their tests.
//!
//! # Example: end-to-end two-layer admission test
//!
//! ```
//! use ioguard_sched::analysis::TwoLayerAnalysis;
//! use ioguard_sched::table::TimeSlotTable;
//! use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};
//!
//! // A table with period 10 where slots 0 and 1 are taken by the P-channel.
//! let sigma = TimeSlotTable::from_occupied(10, &[0, 1])?;
//! let servers = vec![PeriodicServer::new(5, 2)?, PeriodicServer::new(10, 3)?];
//! let vm0 = TaskSet::from(vec![SporadicTask::new(20, 2, 10)?]);
//! let vm1 = TaskSet::from(vec![SporadicTask::new(40, 4, 30)?]);
//! let analysis = TwoLayerAnalysis::new(sigma, servers, vec![vm0, vm1])?;
//! let verdict = analysis.schedulable()?;
//! assert!(verdict.is_schedulable());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod demand;
pub mod design;
pub mod edfsim;
pub mod error;
pub mod gsched;
pub mod ledger;
pub mod lsched;
pub mod table;
pub mod task;

pub use analysis::{TwoLayerAnalysis, TwoLayerVerdict};
pub use error::SchedError;
pub use ledger::{AdmitOutcome, AdmitStats, DemandLedger};
pub use table::TimeSlotTable;
pub use task::{PeriodicServer, SporadicTask, TaskSet};
