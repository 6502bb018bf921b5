//! Baseline I/O-virtualization systems and the common platform interface.
//!
//! The case study (Sec. V-C) compares I/O-GUARD against three baselines on
//! the same workload. Each is an executable model exposing the common
//! [`IoPlatform`] trait so the experiment engine drives all four
//! identically:
//!
//! * [`legacy`] — **BS|Legacy**: no virtualization support; each processor
//!   is a VM, resource management is left to the NoC routers. I/O requests
//!   reach a *deadline-unaware FIFO* device after a contention-dependent
//!   router delay.
//! * [`rtxen`] — **BS|RT-XEN**: a software VMM (Xen + RT patches + I/O
//!   enhancement). Every I/O traps into the VMM: per-operation software
//!   overhead inflates service time and VMM scheduling adds release
//!   latency; the device backend remains FIFO.
//! * [`bluevisor`] — **BS|BV**: BlueVisor's hardware hypervisor. The fast
//!   hardware path removes the software overhead, but the I/O stack keeps
//!   the conventional *FIFO structure* — no preemption, no prioritization —
//!   which is exactly the delta the paper attributes BV's losses to.
//! * [`ioguard`] — the proposed system wrapped behind the same trait:
//!   P-channel preloading plus the preemptive two-layer R-channel from the
//!   `ioguard-hypervisor` crate.
//!
//! The three baselines share one backend in [`platform`]: a delay line in
//! front of a deadline-unaware, non-preemptive FIFO device. Each baseline
//! sends a job with the delay its path adds (the router traversal for
//! Legacy, the VMM latency for RT-XEN, none for BV), and the job joins the
//! device queue in the slot it arrives.
//!
//! A FIFO that never preempts has a closed-form schedule, so the device is
//! a recurrence over jobs, not a loop over slots. A job arriving in slot
//! `a` is dropped when [`platform::DEFAULT_FIFO_CAPACITY`] accepted jobs
//! that start at or after `a` already wait. Otherwise it starts when it
//! arrives or when the job before it finishes, whichever is later, and
//! finishes its service time later. The case study drives every platform
//! from one release to the next with [`IoPlatform::advance_to`], whose
//! default calls [`IoPlatform::step`] on every slot. The FIFO backend's
//! `advance_to` takes in the jobs arriving before the target slot and
//! completes those finished by it, in FIFO order; `step` is
//! `advance_to(now + 1)`. So a trial costs O(jobs), not O(slots), and each
//! baseline's `device_steps()` counts device events: one per job taken in
//! or dropped, one per completion.
//!
//! # Example
//!
//! ```
//! use ioguard_baselines::bluevisor::BlueVisorPlatform;
//! use ioguard_baselines::platform::{IoPlatform, PlatformJob};
//!
//! let mut bv = BlueVisorPlatform::new(4, 7);
//! bv.submit(PlatformJob::new(0, 1, 0, 2, 100, 64, true));
//! bv.advance_to(10);
//! assert_eq!(bv.metrics().completed_on_time, 1);
//! // The device took the job in and completed it: two events, not ten
//! // slots.
//! assert_eq!(bv.device_steps(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bluevisor;
pub mod ioguard;
pub mod legacy;
pub mod platform;
pub mod rtxen;

pub use platform::{IoPlatform, PlatformJob, PlatformMetrics};
