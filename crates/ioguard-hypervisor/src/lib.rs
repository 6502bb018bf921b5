//! Slot-accurate functional model of the I/O-GUARD hardware hypervisor.
//!
//! The hypervisor (Sec. III of the paper) is modelled block-for-block:
//!
//! * [`pool`] — the per-VM **I/O pool**: a random-access priority queue
//!   whose slots carry the task parameters in register-backed side slots,
//!   the pool's control logic, its **L-Sched** (earliest-deadline selection
//!   within the VM) and the **shadow register** the winner is mapped to.
//! * [`pchannel`] — the **P-channel**: memory banks holding the pre-defined
//!   I/O tasks with their start times, the Time Slot Table σ\*, and the
//!   executor that fires entries when the global timer matches.
//! * [`gsched`] — the **G-Sched**: compares the deadlines in all shadow
//!   registers and the free slots of σ\*, picking the next run-time task.
//!   Two policies are provided: the literal micro-architecture (global EDF
//!   over shadow registers) and the server-based variant analyzed in
//!   Sec. IV (per-VM periodic budgets for hard inter-VM isolation).
//! * [`shadowindex`] — the comparator tree the G-Sched hardware resolves
//!   the shadow registers with: O(1) winner at the root, O(log V) refresh
//!   per pool mutation.
//! * [`driver`] — the **virtualization driver**: request/response
//!   translators with bounded per-operation latency, standardized I/O
//!   controller models (SPI, I²C, Ethernet, FlexRay) with real bandwidths,
//!   and the per-transaction **watchdog** (timeout, bounded retry with
//!   exponential backoff).
//! * [`event`] — the typed event stream every decision leaves the device
//!   on: job fates, scheduling edges and one disposition per slot.
//! * [`metrics`] — global and **per-VM** execution counters, including the
//!   fault-handling accounting (stalls, retries, throttles, shed jobs) —
//!   the fold of the event stream.
//! * [`hypervisor`] — the assembled device: `step()` advances one slot,
//!   P-channel entries preempt everything (their slots are theirs by
//!   construction), R-channel jobs run preemptively at slot granularity.
//!
//! # Example
//!
//! ```
//! use ioguard_hypervisor::hypervisor::{Hypervisor, HypervisorParams, RtJob};
//!
//! let mut hv = Hypervisor::new(HypervisorParams::new(2))?;
//! hv.submit(RtJob::new(0, 1, 0, 3, 10))?; // vm 0, task 1: 3 slots by t=10
//! for _ in 0..10 {
//!     hv.step();
//! }
//! assert_eq!(hv.metrics().completed, 1);
//! assert_eq!(hv.metrics().missed, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod error;
pub mod event;
pub mod gsched;
pub mod hypervisor;
pub mod metrics;
pub mod obs;
pub mod pchannel;
pub mod pool;
pub mod shadowindex;
pub mod system;

pub use error::{HvError, SubmitError};
pub use event::{HvEvent, RefuseReason};
pub use hypervisor::{Hypervisor, HypervisorParams, RtJob};
pub use metrics::{HvMetrics, VmMetrics};
pub use obs::HvObs;
pub use system::{IoDeviceConfig, MultiIoSystem, Transfer};
