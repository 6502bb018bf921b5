//! The retained reference cycle stepper.
//!
//! [`ReferenceNetwork`] is the original per-cycle mesh simulator: one
//! [`Router`] object per node, `BTreeMap`-keyed in-flight packet state and a
//! full walk over every router and port each cycle. It is deliberately kept
//! byte-for-byte faithful to the pre-optimization semantics so the
//! event-driven [`crate::network::Network`] can be differentially tested
//! against it: the two implementations must produce bit-identical delivery
//! sequences, latency stats and contention counters under any seeded
//! traffic or fault plan (see `tests/differential.rs` and DESIGN.md §10).
//!
//! Do not optimize this module. Its value is that it stays simple enough to
//! audit by eye; the hot path lives in [`crate::network`].

// lint: allow(indexing, file) — router/injection/request arrays are sized to
// mesh.nodes() (or the fixed 5 ports) at construction and every index comes
// from mesh.index_of or a 0..len enumeration.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ioguard_sim::time::Cycles;

use crate::error::NocError;
use crate::network::{Delivery, NetworkConfig, NetworkStats, NocFabric, INJECTION_DEPTH};
use crate::packet::{Flit, Packet};
use crate::router::Router;
use crate::topology::{Direction, Mesh, NodeId};

#[derive(Debug)]
struct InFlight {
    packet: Packet,
    injected_at: Cycles,
    flits_seen: u32,
}

/// The original per-cycle mesh stepper, retained as the equivalence oracle
/// for the event-driven [`crate::network::Network`].
#[derive(Debug)]
pub struct ReferenceNetwork {
    mesh: Mesh,
    routers: Vec<Router>,
    injection: Vec<VecDeque<Flit>>,
    /// Packets currently in the fabric, by id. A `BTreeMap` so iteration
    /// order is the id order — never hasher- or platform-dependent — on the
    /// path that feeds the deterministic simulator.
    in_flight: BTreeMap<u64, InFlight>,
    now: Cycles,
    stats: NetworkStats,
    /// Failed unidirectional links as (router index, output direction
    /// index): planned moves across them are blocked like backpressure, so
    /// wormhole locks stay consistent while the link is down.
    failed_links: BTreeSet<(usize, usize)>,
    /// Packet ids to discard at ejection (CRC-fail model).
    drop_marked: BTreeSet<u64>,
    /// Packet ids to deliver with the corruption flag set.
    corrupt_marked: BTreeSet<u64>,
}

impl ReferenceNetwork {
    /// Builds the reference network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidDimensions`] for a zero-sized mesh.
    pub fn new(config: NetworkConfig) -> Result<Self, NocError> {
        if config.width == 0 || config.height == 0 {
            return Err(NocError::InvalidDimensions {
                width: config.width,
                height: config.height,
            });
        }
        let mesh = Mesh::new(config.width, config.height);
        let routers = (0..mesh.nodes()).map(|_| Router::new()).collect();
        let injection = (0..mesh.nodes())
            .map(|_| VecDeque::with_capacity(INJECTION_DEPTH))
            .collect();
        Ok(Self {
            mesh,
            routers,
            injection,
            in_flight: BTreeMap::new(),
            now: Cycles::ZERO,
            stats: NetworkStats::default(),
            failed_links: BTreeSet::new(),
            drop_marked: BTreeSet::new(),
            corrupt_marked: BTreeSet::new(),
        })
    }

    fn checked_index(&self, node: NodeId) -> Result<usize, NocError> {
        if !self.mesh.contains(node) {
            return Err(NocError::NodeOutOfRange {
                node,
                width: self.mesh.width(),
                height: self.mesh.height(),
            });
        }
        Ok(self.mesh.index_of(node))
    }

    /// Steps until no packet is in flight or `max_cycles` elapse. Returns
    /// everything delivered during the run.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Delivery> {
        let mut all = Vec::new();
        self.run_until_idle_into(max_cycles, &mut all);
        all
    }
}

impl NocFabric for ReferenceNetwork {
    fn mesh(&self) -> Mesh {
        self.mesh
    }

    fn now(&self) -> Cycles {
        self.now
    }

    fn stats(&self) -> NetworkStats {
        let mut s = self.stats;
        s.contention_cycles = self
            .routers
            .iter()
            .map(|r| r.stats().contention_cycles)
            .sum();
        s
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn failed_link_count(&self) -> usize {
        self.failed_links.len()
    }

    fn fail_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        let idx = self.checked_index(node)?;
        self.failed_links.insert((idx, out.index()));
        Ok(())
    }

    fn restore_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        let idx = self.checked_index(node)?;
        self.failed_links.remove(&(idx, out.index()));
        Ok(())
    }

    fn drop_packet(&mut self, id: u64) -> Result<(), NocError> {
        if !self.in_flight.contains_key(&id) {
            return Err(NocError::UnknownPacket { id });
        }
        self.drop_marked.insert(id);
        Ok(())
    }

    fn corrupt_packet(&mut self, id: u64) -> Result<(), NocError> {
        if !self.in_flight.contains_key(&id) {
            return Err(NocError::UnknownPacket { id });
        }
        self.corrupt_marked.insert(id);
        Ok(())
    }

    fn inject(&mut self, packet: Packet) -> Result<(), NocError> {
        for node in [packet.src(), packet.dst()] {
            if !self.mesh.contains(node) {
                return Err(NocError::NodeOutOfRange {
                    node,
                    width: self.mesh.width(),
                    height: self.mesh.height(),
                });
            }
        }
        let q = &mut self.injection[self.mesh.index_of(packet.src())];
        let flits = Flit::stream(&packet);
        // A packet longer than the whole NI buffer is admitted only into an
        // empty queue (it drains through the router as it injects).
        if q.len() + flits.len() > INJECTION_DEPTH.max(flits.len())
            || (!q.is_empty() && q.len() + flits.len() > INJECTION_DEPTH)
        {
            return Err(NocError::InjectionQueueFull { node: packet.src() });
        }
        self.in_flight.insert(
            packet.id(),
            InFlight {
                packet,
                injected_at: self.now,
                flits_seen: 0,
            },
        );
        q.extend(flits);
        Ok(())
    }

    fn step_into(&mut self, out: &mut Vec<Delivery>) {
        // Phase 1: plan one move per (router, output port).
        // A move is (router index, input port, output port).
        let mut moves: Vec<(usize, Direction, Direction)> = Vec::new();
        for idx in 0..self.routers.len() {
            let here = self.mesh.node_at(idx);
            for out_port in Direction::ALL {
                // Who owns (or wants) this output?
                let granted_input = match self.routers[idx].lock(out_port) {
                    Some(input) => {
                        // The locked input's head flit continues the packet;
                        // with nothing buffered yet this cycle, no move.
                        self.routers[idx].head(input).map(|_| input)
                    }
                    None => {
                        // Header arbitration: inputs whose head is a header
                        // flit routed to `out_port`. With no request the
                        // round robin grants nothing and keeps its pointer.
                        let mut requests = [false; 5];
                        for input in Direction::ALL {
                            if let Some(f) = self.routers[idx].head(input) {
                                requests[input.index()] =
                                    f.is_head() && self.mesh.xy_route(here, f.dst) == out_port;
                            }
                        }
                        self.routers[idx].arbitrate(out_port, &requests)
                    }
                };
                let Some(input) = granted_input else { continue };
                // A failed link blocks its traffic exactly like exhausted
                // downstream credit — flits wait upstream, locks persist.
                if !self.failed_links.is_empty()
                    && self.failed_links.contains(&(idx, out_port.index()))
                {
                    self.routers[idx].note_contention();
                    continue;
                }
                // Backpressure: the downstream buffer must have space.
                let has_space = match self.mesh.neighbor(here, out_port) {
                    Some(next) => {
                        let nidx = self.mesh.index_of(next);
                        self.routers[nidx].space(out_port.opposite()) > 0
                    }
                    None => out_port == Direction::Local, // ejection always sinks
                };
                if has_space {
                    moves.push((idx, input, out_port));
                } else {
                    self.routers[idx].note_contention();
                }
            }
        }

        // Phase 2: execute moves simultaneously.
        let mut ejected: Vec<Flit> = Vec::new();
        for (idx, input, out_port) in moves {
            let here = self.mesh.node_at(idx);
            // Phase 1 only plans moves for non-empty inputs; an empty pop
            // would mean the plan and the buffers disagree, so the move is
            // simply dropped rather than taking the fabric down.
            let Some(flit) = self.routers[idx].pop(input) else {
                debug_assert!(false, "planned move has a head flit");
                continue;
            };
            self.stats.flit_hops += 1;
            // Maintain the wormhole lock.
            if flit.is_head() && !flit.is_tail {
                self.routers[idx].acquire(out_port, input);
            } else if flit.is_tail && self.routers[idx].lock(out_port) == Some(input) {
                self.routers[idx].release(out_port);
            }
            match self.mesh.neighbor(here, out_port) {
                Some(next) => {
                    let nidx = self.mesh.index_of(next);
                    self.routers[nidx].push(out_port.opposite(), flit);
                }
                None => {
                    debug_assert_eq!(out_port, Direction::Local);
                    ejected.push(flit);
                }
            }
        }

        // Phase 3: injection queues feed Local input ports (one flit/cycle).
        for idx in 0..self.routers.len() {
            if self.routers[idx].space(Direction::Local) > 0 {
                if let Some(flit) = self.injection[idx].pop_front() {
                    self.routers[idx].push(Direction::Local, flit);
                }
            }
        }

        self.now += Cycles::new(1);

        // Phase 4: packet reassembly at destinations.
        for flit in ejected {
            // Every ejected flit was injected through `inject`, which
            // registers the packet; an unknown id is ignored defensively.
            let Some(entry) = self.in_flight.get_mut(&flit.packet) else {
                debug_assert!(false, "ejected flit belongs to an in-flight packet");
                continue;
            };
            entry.flits_seen += 1;
            if flit.is_tail {
                debug_assert_eq!(entry.flits_seen, entry.packet.total_flits());
                let Some(done) = self.in_flight.remove(&flit.packet) else {
                    continue;
                };
                if self.drop_marked.remove(&flit.packet) {
                    // CRC failure at the destination NI: the packet burned
                    // fabric bandwidth but is discarded, not delivered.
                    self.corrupt_marked.remove(&flit.packet);
                    self.stats.dropped += 1;
                    continue;
                }
                let corrupted = self.corrupt_marked.remove(&flit.packet);
                self.stats.delivered += 1;
                self.stats.corrupted += u64::from(corrupted);
                out.push(Delivery {
                    packet: done.packet,
                    injected_at: done.injected_at,
                    delivered_at: self.now,
                    corrupted,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_single_packet_crosses_mesh() {
        let mut n = ReferenceNetwork::new(NetworkConfig::mesh(5, 5)).unwrap();
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(4, 4);
        n.inject(Packet::request(1, src, dst, 3).unwrap()).unwrap();
        let out = n.run_until_idle(1000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.dst(), dst);
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn reference_rejects_zero_mesh() {
        assert!(ReferenceNetwork::new(NetworkConfig::mesh(0, 5)).is_err());
    }
}
