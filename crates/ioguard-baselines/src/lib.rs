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
//! front of the deadline-unaware [`platform::FifoDevice`]. Each baseline
//! sends a job with the delay its path adds (the router traversal for
//! Legacy, the VMM latency for RT-XEN, none for BV), and the job joins the
//! device queue in the slot it arrives.
//!
//! The case study drives every platform from one release to the next with
//! [`IoPlatform::advance_to`]. Its default calls [`IoPlatform::step`] on
//! every slot. The FIFO backend steps only the slots in which a job
//! arrives, starts or completes and jumps over the rest in O(1); each
//! baseline's `device_steps()` counts the slots it stepped.
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
//! assert!(bv.device_steps() < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bluevisor;
pub mod ioguard;
pub mod legacy;
pub mod platform;
pub mod rtxen;

pub use platform::{IoPlatform, PlatformJob, PlatformMetrics};
