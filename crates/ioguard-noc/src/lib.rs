//! Cycle-level mesh Network-on-Chip substrate.
//!
//! The paper's platform is a 5×5 mesh, predictability-focused NoC
//! (BlueShell) carrying I/O requests and responses between 16 MicroBlaze
//! processors, memory and the I/O peripherals. This crate models that
//! substrate at the level that matters for the evaluation: *path length*,
//! *router arbitration* and *FIFO blocking* — the three mechanisms behind
//! the baseline systems' contention-induced latency variance (Fig. 1 and
//! Obs. 4 of the paper).
//!
//! * [`topology`] — 2-D mesh coordinates, ports and deterministic XY
//!   routing.
//! * [`packet`] — the packet/flit protocol: I/O requests and responses
//!   encapsulated as wormhole flit streams with a BlueShell-style header.
//! * [`arbiter`] — the round-robin output-port arbiter.
//! * [`router`] — a single 5-port wormhole router with 4-flit input FIFOs
//!   and per-output channel locks.
//! * [`network`] — the assembled mesh: injection/ejection interfaces, an
//!   event-driven cycle stepper with dense state, a flit arena, quiescence
//!   skipping and batched uncontended traversal, and per-packet latency
//!   accounting.
//! * [`mod@reference`] — the retained per-cycle reference stepper, the
//!   equivalence oracle for the event-driven core (see DESIGN.md §10).
//!
//! # Example
//!
//! ```
//! use ioguard_noc::network::{Network, NetworkConfig};
//! use ioguard_noc::packet::{Packet, PacketKind};
//! use ioguard_noc::topology::NodeId;
//!
//! let mut net = Network::new(NetworkConfig::mesh(3, 3))?;
//! let src = NodeId::new(0, 0);
//! let dst = NodeId::new(2, 2);
//! net.inject(Packet::request(1, src, dst, 4)?)?;
//! let delivered = net.run_until_idle(10_000);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.id(), 1);
//! # Ok::<(), ioguard_noc::NocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod error;
pub mod network;
pub mod obs;
pub mod packet;
pub mod reference;
pub mod router;
pub mod topology;

pub use error::NocError;
pub use network::{Network, NetworkConfig, NocFabric};
pub use obs::ObservedFabric;
pub use packet::{Packet, PacketKind};
pub use topology::{Direction, NodeId};
