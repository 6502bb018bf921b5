//! The assembled mesh network — event-driven hot path.
//!
//! [`Network`] is the production simulator: a dense, allocation-free core
//! that is bit-identical to the retained per-cycle reference stepper
//! ([`crate::reference::ReferenceNetwork`]) but structured for speed:
//!
//! * **Dense state** — router FIFOs live in one flat ring-buffer arena
//!   indexed by `node * 5 + port`, wormhole locks and round-robin pointers
//!   are plain `Vec`s, and failed links are a bit-vector. Iteration order is
//!   ascending index by construction, so the PR 2 determinism guarantee
//!   holds without any tree lookups.
//! * **Flit/packet arena** — in-flight packets are slab-allocated with a
//!   free list and generation counters; flits carry their slab slot, so
//!   ejection resolves a packet in O(1) instead of a `BTreeMap` walk. No
//!   per-packet heap allocation happens after warm-up.
//! * **Activity tracking** — per-node flit counts feed router/injection
//!   bitmasks; a cycle only visits routers that hold flits, and a fully
//!   quiescent cycle costs O(1).
//! * **Express transit** — when exactly one packet is in flight, still
//!   parked in its source NI, and no link is failed, its whole uncontended
//!   wormhole traversal is applied in one batch: O(hops) arbiter updates
//!   plus O(1) stats, with the clock jumped to the exact delivery cycle the
//!   reference stepper would produce.
//! * **One route per header** — a router plan routes each buffered header
//!   once into a per-output bitmask of requesting inputs, then resolves
//!   its five outputs from those masks (lock, mask arbitration, link and
//!   backpressure gates). Two tables built by [`Network::new`] — each
//!   node's coordinates and each output port's downstream input port —
//!   replace the coordinate and neighbour arithmetic in planning and move
//!   execution.
//!
//! The per-cycle semantics (two-phase move planning/execution, NI feeding,
//! reassembly) are documented on [`crate::reference`]; this module must
//! keep producing exactly the same observable sequence — `tests/
//! differential.rs` and DESIGN.md §10 hold the equivalence argument.

// lint: allow(indexing, file) — all dense arrays are sized to mesh.nodes()
// (times the fixed 5 ports and FIFO depth) at construction; every index is
// derived from mesh.index_of, the downstream-port table (built from
// mesh.neighbor), Direction::index (0..5) or a bounded counter.

use std::collections::VecDeque;

use ioguard_sim::time::Cycles;

use crate::arbiter::RoundRobin;
use crate::error::NocError;
use crate::packet::Packet;
use crate::topology::{Direction, Mesh, NodeId};

/// Depth of each router input FIFO, in flits.
pub const FIFO_DEPTH: usize = 4;

/// Capacity of each node's injection queue, in flits.
pub const INJECTION_DEPTH: usize = 64;

/// Configuration of a mesh network: its geometry. Every router has
/// [`FIFO_DEPTH`]-flit input FIFOs and round-robin output arbiters, and
/// every node an [`INJECTION_DEPTH`]-flit injection queue.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
}

impl NetworkConfig {
    /// A `width`×`height` mesh.
    pub fn mesh(width: u16, height: u16) -> Self {
        Self { width, height }
    }

    /// The paper's platform: a 5×5 mesh.
    pub fn paper_platform() -> Self {
        Self::mesh(5, 5)
    }
}

/// A packet delivered at its destination, with timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The reassembled packet.
    pub packet: Packet,
    /// Cycle at which the packet was injected.
    pub injected_at: Cycles,
    /// Cycle at which the tail flit was ejected.
    pub delivered_at: Cycles,
    /// True when the payload failed its end-to-end check (an injected
    /// corruption fault): the packet arrived but its contents are garbage,
    /// and the receiver must treat it as lost.
    pub corrupted: bool,
}

impl Delivery {
    /// End-to-end latency in cycles (tail-to-tail).
    pub fn latency(&self) -> Cycles {
        self.delivered_at - self.injected_at
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets delivered so far.
    pub delivered: u64,
    /// Total flit-hops executed.
    pub flit_hops: u64,
    /// Total contention cycles summed over routers.
    pub contention_cycles: u64,
    /// Packets discarded at ejection (drop faults — the CRC-fail model).
    pub dropped: u64,
    /// Packets delivered with the corruption flag set.
    pub corrupted: u64,
}

/// The common mutable surface of a mesh fabric, implemented by both the
/// event-driven [`Network`] and the retained
/// [`crate::reference::ReferenceNetwork`]. Fault drivers and differential
/// harnesses are generic over this trait so the exact same stimulus can be
/// replayed against either implementation.
pub trait NocFabric {
    /// The mesh geometry.
    fn mesh(&self) -> Mesh;
    /// Current cycle.
    fn now(&self) -> Cycles;
    /// Aggregate statistics.
    fn stats(&self) -> NetworkStats;
    /// Number of packets still traversing the fabric.
    fn in_flight(&self) -> usize;
    /// Number of currently failed links.
    fn failed_link_count(&self) -> usize;
    /// Queues a packet for injection at its source node.
    ///
    /// # Errors
    ///
    /// * [`NocError::NodeOutOfRange`] if source or destination lie outside
    ///   the mesh.
    /// * [`NocError::InjectionQueueFull`] if the source NI buffer cannot
    ///   hold the packet's flits.
    fn inject(&mut self, packet: Packet) -> Result<(), NocError>;
    /// Fails the outgoing link of `node` towards `out`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if `node` is outside the mesh.
    fn fail_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError>;
    /// Restores a previously failed link (no-op if it was not failed).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if `node` is outside the mesh.
    fn restore_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError>;
    /// Marks an in-flight packet to be discarded at ejection.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownPacket`] if `id` is not in flight.
    fn drop_packet(&mut self, id: u64) -> Result<(), NocError>;
    /// Marks an in-flight packet to arrive with its corruption flag set.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownPacket`] if `id` is not in flight.
    fn corrupt_packet(&mut self, id: u64) -> Result<(), NocError>;
    /// Advances the fabric one cycle, appending this cycle's deliveries to
    /// `out` (the caller-owned scratch buffer — no allocation per step).
    fn step_into(&mut self, out: &mut Vec<Delivery>);

    /// Steps until no packet is in flight or `max_cycles` elapse, appending
    /// deliveries to `out`. Implementations may fast-forward across idle
    /// stretches as long as observable state stays cycle-exact.
    fn run_until_idle_into(&mut self, max_cycles: u64, out: &mut Vec<Delivery>) {
        for _ in 0..max_cycles {
            if self.in_flight() == 0 {
                break;
            }
            self.step_into(out);
        }
    }

    /// Advances the fabric exactly `cycles` cycles (idle or not), appending
    /// deliveries to `out`. Implementations may jump over quiescent gaps.
    fn run_for(&mut self, cycles: u64, out: &mut Vec<Delivery>) {
        for _ in 0..cycles {
            self.step_into(out);
        }
    }
}

/// Sentinel for "no input owns this output" in the dense lock array.
const NO_LOCK: u8 = 5;

/// Sentinel for "this output feeds no router" (ejection or a mesh edge) in
/// the downstream-port table.
const NO_PORT: usize = usize::MAX;

/// Dense index of the ejection port.
const LOCAL: usize = Direction::Local.index();

/// One flit in the dense core. Carries its packet's slab slot (plus the
/// slot generation for debug validation), so ejection never needs a keyed
/// lookup.
#[derive(Debug, Clone, Copy, Default)]
struct SimFlit {
    /// Slab slot of the owning packet.
    slot: u32,
    /// Slab generation at allocation (stale-reuse detector).
    gen: u32,
    /// Position within the packet: 0 = header.
    seq: u32,
    /// True for the final flit (releases the wormhole channel).
    tail: bool,
    /// Destination node.
    dst: NodeId,
}

impl SimFlit {
    #[inline]
    const fn is_head(&self) -> bool {
        self.seq == 0
    }
}

/// Slab entry for one in-flight packet. `live` is `None` for free slots.
#[derive(Debug)]
struct PacketSlot {
    gen: u32,
    live: Option<LivePacket>,
}

#[derive(Debug)]
struct LivePacket {
    packet: Packet,
    injected_at: Cycles,
    flits_seen: u32,
    /// Discard at ejection (CRC-fail model).
    drop: bool,
    /// Deliver with the corruption flag set.
    corrupt: bool,
}

/// A planned flit move: (router index, input port, output port, downstream
/// input port or `NO_PORT`).
type Move = (u32, u8, u8, usize);

/// The mesh network (event-driven core).
#[derive(Debug)]
pub struct Network {
    mesh: Mesh,

    /// Coordinates per node index.
    coords: Vec<NodeId>,
    /// Per output port `node * 5 + dir`: the input port it feeds on the
    /// neighbouring router (`next * 5 + opposite(dir)`), or `NO_PORT` for
    /// ejection and mesh edges.
    down: Vec<usize>,

    /// Flit arena: `nodes * 5` ring buffers of `FIFO_DEPTH` flits each,
    /// flattened. Port `p`'s window is `fifo[p*depth .. (p+1)*depth]`.
    fifo: Vec<SimFlit>,
    /// Ring head offset per port.
    fifo_head: Vec<u32>,
    /// Occupancy per port.
    fifo_len: Vec<u32>,
    /// Wormhole channel locks per output port (`NO_LOCK` = free).
    locks: Vec<u8>,
    /// Round-robin rotation pointer per output port.
    rr_next: Vec<u8>,
    /// Failed unidirectional links, per output port.
    failed_links: Vec<bool>,
    failed_link_count: usize,

    /// Per-node NI injection queues (allocated once, reused).
    injection: Vec<VecDeque<SimFlit>>,

    /// In-flight packet slab with free-list reuse.
    slab: Vec<PacketSlot>,
    free_slots: Vec<u32>,

    /// Flits buffered per node (all five input FIFOs combined).
    router_flits: Vec<u32>,
    /// Bitmask of nodes with at least one buffered flit.
    active_routers: Vec<u64>,
    /// Bitmask of nodes with a non-empty injection queue.
    active_inject: Vec<u64>,
    /// Total flits in the fabric (FIFOs + injection queues).
    live_flits: u64,
    /// Packets injected and not yet ejected.
    live_packets: usize,

    now: Cycles,
    stats: NetworkStats,
    /// Calls of `step_cycle`, quiescent ones included.
    cycles_stepped: u64,

    /// Scratch: planned moves for the current cycle.
    moves: Vec<Move>,
    /// Scratch: flits ejected in the current cycle.
    ejected: Vec<SimFlit>,
}

impl Network {
    /// Builds the network.
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
        let nodes = mesh.nodes();
        let ports = nodes * 5;
        let words = nodes.div_ceil(64);
        let coords: Vec<NodeId> = mesh.iter_nodes().collect();
        let down = coords
            .iter()
            .flat_map(|&node| {
                Direction::ALL.map(|d| match mesh.neighbor(node, d) {
                    Some(next) => mesh.index_of(next) * 5 + d.opposite().index(),
                    None => NO_PORT,
                })
            })
            .collect();
        Ok(Self {
            mesh,
            coords,
            down,
            fifo: vec![SimFlit::default(); ports * FIFO_DEPTH],
            fifo_head: vec![0; ports],
            fifo_len: vec![0; ports],
            locks: vec![NO_LOCK; ports],
            rr_next: vec![0; ports],
            failed_links: vec![false; ports],
            failed_link_count: 0,
            injection: (0..nodes)
                .map(|_| VecDeque::with_capacity(INJECTION_DEPTH))
                .collect(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            router_flits: vec![0; nodes],
            active_routers: vec![0; words],
            active_inject: vec![0; words],
            live_flits: 0,
            live_packets: 0,
            now: Cycles::ZERO,
            stats: NetworkStats::default(),
            cycles_stepped: 0,
            moves: Vec::new(),
            ejected: Vec::new(),
        })
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Current cycle.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Number of packets still traversing the fabric.
    pub fn in_flight(&self) -> usize {
        self.live_packets
    }

    /// Cycles stepped one at a time since construction, quiescent ones
    /// included. Idle-gap jumps and express transits advance [`Network::now`]
    /// without stepping, so on sparse traffic this stays far below the
    /// simulated horizon: it is the host-independent cost of a run.
    pub fn cycles_stepped(&self) -> u64 {
        self.cycles_stepped
    }

    /// Number of currently failed links.
    pub fn failed_link_count(&self) -> usize {
        self.failed_link_count
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

    /// Fails the outgoing link of `node` towards `out`: traffic planned
    /// across it stalls (counted as contention) until the link is restored.
    /// Wormhole locks are preserved, so traffic resumes cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if `node` is outside the mesh.
    pub fn fail_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        let idx = self.checked_index(node)?;
        let p = idx * 5 + out.index();
        if !self.failed_links[p] {
            self.failed_links[p] = true;
            self.failed_link_count += 1;
        }
        Ok(())
    }

    /// Restores a previously failed link (no-op if it was not failed).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if `node` is outside the mesh.
    pub fn restore_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        let idx = self.checked_index(node)?;
        let p = idx * 5 + out.index();
        if self.failed_links[p] {
            self.failed_links[p] = false;
            self.failed_link_count -= 1;
        }
        Ok(())
    }

    /// Slab slot holding live packet `id`, if any. In-flight counts are
    /// small (bounded by NI capacity × nodes), so a linear scan beats any
    /// keyed structure here — and keeps the state fully dense.
    fn slot_of(&self, id: u64) -> Option<u32> {
        self.slab.iter().enumerate().find_map(|(i, s)| {
            s.live
                .as_ref()
                .filter(|l| l.packet.id() == id)
                .map(|_| i as u32)
        })
    }

    /// Marks an in-flight packet to be discarded at ejection — the model of
    /// a payload that fails its CRC at the destination NI. The packet still
    /// traverses the fabric (burning real bandwidth) but never surfaces as
    /// a delivery.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownPacket`] if `id` is not in flight.
    pub fn drop_packet(&mut self, id: u64) -> Result<(), NocError> {
        let slot = self.slot_of(id).ok_or(NocError::UnknownPacket { id })?;
        if let Some(live) = self.slab[slot as usize].live.as_mut() {
            live.drop = true;
        }
        Ok(())
    }

    /// Marks an in-flight packet to arrive with its corruption flag set
    /// ([`Delivery::corrupted`]). The receiver sees the packet but must
    /// treat the payload as garbage.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownPacket`] if `id` is not in flight.
    pub fn corrupt_packet(&mut self, id: u64) -> Result<(), NocError> {
        let slot = self.slot_of(id).ok_or(NocError::UnknownPacket { id })?;
        if let Some(live) = self.slab[slot as usize].live.as_mut() {
            live.corrupt = true;
        }
        Ok(())
    }

    /// Queues a packet for injection at its source node.
    ///
    /// # Errors
    ///
    /// * [`NocError::NodeOutOfRange`] if source or destination lie outside
    ///   the mesh.
    /// * [`NocError::InjectionQueueFull`] if the source NI buffer cannot
    ///   hold the packet's flits.
    pub fn inject(&mut self, packet: Packet) -> Result<(), NocError> {
        for node in [packet.src(), packet.dst()] {
            if !self.mesh.contains(node) {
                return Err(NocError::NodeOutOfRange {
                    node,
                    width: self.mesh.width(),
                    height: self.mesh.height(),
                });
            }
        }
        let src_idx = self.mesh.index_of(packet.src());
        let total = packet.total_flits() as usize;
        let q_len = self.injection[src_idx].len();
        // A packet longer than the whole NI buffer is admitted only into an
        // empty queue (it drains through the router as it injects). Same
        // admission rule as the reference stepper, verbatim.
        if q_len + total > INJECTION_DEPTH.max(total)
            || (q_len != 0 && q_len + total > INJECTION_DEPTH)
        {
            return Err(NocError::InjectionQueueFull { node: packet.src() });
        }

        // Slab-allocate the in-flight record (free-list reuse).
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slab.push(PacketSlot { gen: 0, live: None });
                (self.slab.len() - 1) as u32
            }
        };
        let gen = self.slab[slot as usize].gen;
        let dst = packet.dst();
        self.slab[slot as usize].live = Some(LivePacket {
            packet,
            injected_at: self.now,
            flits_seen: 0,
            drop: false,
            corrupt: false,
        });

        // Stream the flits straight into the NI queue — no temporary Vec.
        let q = &mut self.injection[src_idx];
        for seq in 0..total as u32 {
            q.push_back(SimFlit {
                slot,
                gen,
                seq,
                tail: seq as usize + 1 == total,
                dst,
            });
        }
        set_bit(&mut self.active_inject, src_idx);
        self.live_flits += total as u64;
        self.live_packets += 1;
        Ok(())
    }

    // ---- dense FIFO helpers -------------------------------------------

    #[inline]
    fn fifo_space(&self, p: usize) -> usize {
        FIFO_DEPTH - self.fifo_len[p] as usize
    }

    #[inline]
    fn fifo_push(&mut self, p: usize, flit: SimFlit) {
        debug_assert!(self.fifo_space(p) > 0, "input fifo overflow at port {p}");
        // head < depth and len < depth, so one subtraction wraps the sum.
        let mut pos = self.fifo_head[p] as usize + self.fifo_len[p] as usize;
        if pos >= FIFO_DEPTH {
            pos -= FIFO_DEPTH;
        }
        self.fifo[p * FIFO_DEPTH + pos] = flit;
        self.fifo_len[p] += 1;
    }

    #[inline]
    fn fifo_pop(&mut self, p: usize) -> SimFlit {
        debug_assert!(self.fifo_len[p] > 0, "pop from empty fifo at port {p}");
        let head = self.fifo_head[p] as usize;
        let flit = self.fifo[p * FIFO_DEPTH + head];
        self.fifo_head[p] = if head + 1 == FIFO_DEPTH {
            0
        } else {
            head as u32 + 1
        };
        self.fifo_len[p] -= 1;
        flit
    }

    #[inline]
    fn add_router_flit(&mut self, node: usize) {
        if self.router_flits[node] == 0 {
            set_bit(&mut self.active_routers, node);
        }
        self.router_flits[node] += 1;
    }

    #[inline]
    fn remove_router_flit(&mut self, node: usize) {
        self.router_flits[node] -= 1;
        if self.router_flits[node] == 0 {
            clear_bit(&mut self.active_routers, node);
        }
    }

    // ---- the per-cycle hot path ---------------------------------------

    /// Plans this cycle's moves for router `idx` (phase 1). Routes each
    /// buffered header once, into a bitmask of requesting inputs per
    /// output, then resolves the outputs in the reference stepper's order:
    /// wormhole lock first, then the round robin's pick among the headers,
    /// then the failed-link and backpressure gates.
    /// Outputs with neither a lock nor a request are skipped: the reference
    /// changes no state for them.
    // lint: hot-path — per-cycle planning; dense arrays only, no keyed maps
    fn plan_router(&mut self, idx: usize) {
        let base = idx * 5;
        let here = self.coords[idx];
        let mut requests = [0u8; 5];
        let mut outputs = 0u8;
        for port in 0..5 {
            let p = base + port;
            outputs |= u8::from(self.locks[p] != NO_LOCK) << port;
            // An empty FIFO's head slot holds a stale or default flit:
            // routing it anyway and masking its request out costs less than
            // a branch.
            let f = self.fifo[p * FIFO_DEPTH + self.fifo_head[p] as usize];
            let header = u8::from((self.fifo_len[p] != 0) & f.is_head());
            let out = xy_port(here, f.dst);
            requests[out] |= header << port;
            outputs |= header << out;
        }
        while outputs != 0 {
            let out = outputs.trailing_zeros() as usize;
            outputs &= outputs - 1;
            let p = base + out;
            let lock = self.locks[p];
            let input = if lock != NO_LOCK {
                // The locked input's head flit continues the packet; with
                // nothing buffered yet this cycle, no move.
                if self.fifo_len[base + lock as usize] == 0 {
                    continue;
                }
                usize::from(lock)
            } else {
                let Some(input) = RoundRobin::grant_mask(requests[out], &mut self.rr_next[p])
                else {
                    continue;
                };
                input
            };
            // A failed link blocks its traffic exactly like exhausted
            // downstream credit — flits wait upstream, locks persist.
            if self.failed_link_count != 0 && self.failed_links[p] {
                self.stats.contention_cycles += 1;
                continue;
            }
            // Backpressure: the downstream buffer must have space; ejection
            // always sinks.
            let down = self.down[p];
            let has_space = if down == NO_PORT {
                out == LOCAL
            } else {
                (self.fifo_len[down] as usize) < FIFO_DEPTH
            };
            if has_space {
                self.moves.push((idx as u32, input as u8, out as u8, down));
            } else {
                self.stats.contention_cycles += 1;
            }
        }
    }

    /// Core of one cycle. Only routers and NI queues holding flits are
    /// visited; a quiescent fabric advances the clock in O(1).
    // lint: hot-path — the innermost simulation loop; dense arrays only
    fn step_cycle(&mut self, out: &mut Vec<Delivery>) {
        self.cycles_stepped += 1;
        // Quiescence: no flit anywhere means phases 1–4 are all no-ops in
        // the reference semantics (arbiters, locks and counters untouched).
        if self.live_flits == 0 {
            self.now += Cycles::new(1);
            return;
        }

        self.moves.clear();
        self.ejected.clear();

        // Phase 1: plan one move per (router, output port), visiting only
        // routers with buffered flits, in ascending index order (the same
        // relative order as the reference's full walk — empty routers can
        // neither move flits nor mutate arbiter state).
        for w in 0..self.active_routers.len() {
            let mut word = self.active_routers[w];
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.plan_router(idx);
            }
        }

        // Phase 2: execute moves simultaneously (planning never reads the
        // mutations below, so sequential execution is equivalent).
        for m in 0..self.moves.len() {
            let (idx, input, out, down) = self.moves[m];
            let base = idx as usize * 5;
            let flit = self.fifo_pop(base + input as usize);
            self.remove_router_flit(idx as usize);
            self.stats.flit_hops += 1;
            // Maintain the wormhole lock.
            let p = base + out as usize;
            if flit.is_head() && !flit.tail {
                debug_assert_eq!(self.locks[p], NO_LOCK, "double lock at port {p}");
                self.locks[p] = input;
            } else if flit.tail && self.locks[p] == input {
                self.locks[p] = NO_LOCK;
            }
            if down == NO_PORT {
                debug_assert_eq!(out as usize, LOCAL);
                self.ejected.push(flit);
            } else {
                self.fifo_push(down, flit);
                self.add_router_flit(down / 5);
            }
        }

        // Phase 3: injection queues feed Local input ports (one flit per
        // cycle), visiting only nodes with queued flits.
        for w in 0..self.active_inject.len() {
            let mut word = self.active_inject[w];
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let p_local = idx * 5 + Direction::Local.index();
                if self.fifo_space(p_local) > 0 {
                    // The bit is only set while the queue is non-empty.
                    if let Some(flit) = self.injection[idx].pop_front() {
                        self.fifo_push(p_local, flit);
                        self.add_router_flit(idx);
                    }
                    if self.injection[idx].is_empty() {
                        clear_bit(&mut self.active_inject, idx);
                    }
                }
            }
        }

        self.now += Cycles::new(1);

        // Phase 4: packet reassembly at destinations — O(1) slab access per
        // ejected flit, no keyed lookup.
        for e in 0..self.ejected.len() {
            let flit = self.ejected[e];
            self.live_flits -= 1;
            let slot = flit.slot as usize;
            debug_assert_eq!(
                self.slab[slot].gen, flit.gen,
                "ejected flit references a recycled slab slot"
            );
            let Some(live) = self.slab[slot].live.as_mut() else {
                debug_assert!(false, "ejected flit belongs to an in-flight packet");
                continue;
            };
            live.flits_seen += 1;
            if flit.tail {
                debug_assert_eq!(live.flits_seen, live.packet.total_flits());
                self.finish_packet(slot, out);
            }
        }
    }

    /// Retires the packet in `slot`: accounts the delivery (or drop),
    /// appends to the caller's buffer and recycles the slab slot.
    fn finish_packet(&mut self, slot: usize, out: &mut Vec<Delivery>) {
        let Some(done) = self.slab[slot].live.take() else {
            return;
        };
        self.slab[slot].gen = self.slab[slot].gen.wrapping_add(1);
        self.free_slots.push(slot as u32);
        self.live_packets -= 1;
        if done.drop {
            // CRC failure at the destination NI: the packet burned fabric
            // bandwidth but is discarded, not delivered.
            self.stats.dropped += 1;
            return;
        }
        self.stats.delivered += 1;
        self.stats.corrupted += u64::from(done.corrupt);
        out.push(Delivery {
            packet: done.packet,
            injected_at: done.injected_at,
            delivered_at: self.now,
            corrupted: done.corrupt,
        });
    }

    // ---- express transit (batched uncontended traversal) --------------

    /// When the fabric holds exactly one packet, all of its flits are still
    /// parked in the source NI and no link is failed, the whole wormhole
    /// traversal is uncontended and its outcome is fully determined: the
    /// tail ejects `total_flits + hops + 1` cycles from now (1 NI cycle +
    /// pipeline fill + serialization), each path router arbitrates the
    /// header exactly once, and no contention accrues. Returns that transit
    /// time, or `None` when the batch cannot be applied.
    ///
    /// The closed form needs FIFOs of at least two flits: with single-flit
    /// buffers the worm would stall on its own pre-state space check.
    fn express_transit(&self) -> Option<(usize, u64)> {
        const { assert!(FIFO_DEPTH >= 2) };
        if self.live_packets != 1 || self.failed_link_count != 0 {
            return None;
        }
        // Every live flit must still be queued at the source NI: then no
        // FIFO holds anything, no lock is held, and the traversal starts
        // from a clean fabric. A router holding a flit rules that out
        // before the slab scan.
        if self.active_routers.iter().any(|&word| word != 0) {
            return None;
        }
        let slot = self.slab.iter().position(|s| s.live.is_some())?;
        let live = self.slab[slot].live.as_ref()?;
        let total = u64::from(live.packet.total_flits());
        let src_idx = self.mesh.index_of(live.packet.src());
        if self.live_flits != total || self.injection[src_idx].len() as u64 != total {
            return None;
        }
        let hops = u64::from(live.packet.src().hops_to(live.packet.dst()));
        Some((slot, total + hops + 1))
    }

    /// Applies the batched traversal computed by [`Network::express_transit`]:
    /// replays the per-router header arbitrations (O(hops)), jumps the
    /// clock to the exact ejection cycle and retires the packet with the
    /// same statistics the cycle stepper would produce.
    fn express_apply(&mut self, slot: usize, transit: u64, out: &mut Vec<Delivery>) {
        let (src, dst, total) = {
            let Some(live) = self.slab[slot].live.as_ref() else {
                return;
            };
            (
                live.packet.src(),
                live.packet.dst(),
                u64::from(live.packet.total_flits()),
            )
        };
        // Replay the header's arbitration at each router on the XY path:
        // a single requester always wins, advancing the round-robin pointer
        // past the granted input — identical to `RoundRobin::grant`.
        let mut port = self.mesh.index_of(src) * 5 + LOCAL;
        loop {
            let (node, input) = (port / 5, port % 5);
            let p = node * 5 + self.mesh.xy_route(self.coords[node], dst).index();
            RoundRobin::grant_mask(1 << input, &mut self.rr_next[p]);
            let down = self.down[p];
            if down == NO_PORT {
                debug_assert_eq!(p % 5, LOCAL, "xy route stays in mesh");
                break;
            }
            port = down;
        }
        // Each of the hops+1 path routers forwards every flit exactly once
        // (the ejection pop included) and the NI feed is not a hop.
        let hops = u64::from(src.hops_to(dst));
        self.stats.flit_hops += total * (hops + 1);
        self.now += Cycles::new(transit);
        // All flits leave the fabric together with the tail.
        let src_idx = self.mesh.index_of(src);
        self.injection[src_idx].clear();
        clear_bit(&mut self.active_inject, src_idx);
        self.live_flits -= total;
        self.finish_packet(slot, out);
    }

    // ---- run loops ----------------------------------------------------

    /// Advances the fabric one cycle, appending this cycle's deliveries to
    /// `out` — the caller-owned scratch buffer. The allocation-free step.
    pub fn step_into(&mut self, out: &mut Vec<Delivery>) {
        self.step_cycle(out);
    }

    /// Advances the fabric one cycle. Returns packets delivered this cycle.
    ///
    /// Compatibility wrapper allocating a fresh `Vec`; hot paths should use
    /// [`Network::step_into`] with a reused scratch buffer.
    pub fn step(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.step_cycle(&mut out);
        out
    }

    /// Steps until no packet is in flight or `max_cycles` elapse. Returns
    /// everything delivered during the run.
    ///
    /// Compatibility wrapper; hot paths should pass a reused buffer to
    /// [`Network::run_until_idle_into`].
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Delivery> {
        let mut all = Vec::new();
        self.run_until_idle_into(max_cycles, &mut all);
        all
    }

    /// Steps until no packet is in flight or `max_cycles` elapse, appending
    /// deliveries to `out`. Uncontended single-packet traversals are
    /// batched (express transit); everything else is cycle-exact.
    pub fn run_until_idle_into(&mut self, max_cycles: u64, out: &mut Vec<Delivery>) {
        let mut remaining = max_cycles;
        while remaining > 0 {
            if self.live_packets == 0 {
                break;
            }
            if let Some((slot, transit)) = self.express_transit() {
                if transit <= remaining {
                    self.express_apply(slot, transit, out);
                    remaining -= transit;
                    continue;
                }
            }
            self.step_cycle(out);
            remaining -= 1;
        }
    }

    /// Advances the fabric exactly `cycles` cycles, appending deliveries to
    /// `out`. Quiescent stretches are skipped in one clock jump and
    /// uncontended traversals are batched, so sparse traffic costs O(work)
    /// instead of O(cycles).
    pub fn run_for(&mut self, cycles: u64, out: &mut Vec<Delivery>) {
        let mut remaining = cycles;
        while remaining > 0 {
            if self.live_flits == 0 {
                // Idle fabric: every remaining cycle is a no-op except the
                // clock. Jump across the whole gap at once.
                self.now += Cycles::new(remaining);
                return;
            }
            if let Some((slot, transit)) = self.express_transit() {
                if transit <= remaining {
                    self.express_apply(slot, transit, out);
                    remaining -= transit;
                    continue;
                }
            }
            self.step_cycle(out);
            remaining -= 1;
        }
    }
}

impl NocFabric for Network {
    fn mesh(&self) -> Mesh {
        Network::mesh(self)
    }

    fn now(&self) -> Cycles {
        Network::now(self)
    }

    fn stats(&self) -> NetworkStats {
        Network::stats(self)
    }

    fn in_flight(&self) -> usize {
        Network::in_flight(self)
    }

    fn failed_link_count(&self) -> usize {
        Network::failed_link_count(self)
    }

    fn inject(&mut self, packet: Packet) -> Result<(), NocError> {
        Network::inject(self, packet)
    }

    fn fail_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        Network::fail_link(self, node, out)
    }

    fn restore_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        Network::restore_link(self, node, out)
    }

    fn drop_packet(&mut self, id: u64) -> Result<(), NocError> {
        Network::drop_packet(self, id)
    }

    fn corrupt_packet(&mut self, id: u64) -> Result<(), NocError> {
        Network::corrupt_packet(self, id)
    }

    fn step_into(&mut self, out: &mut Vec<Delivery>) {
        self.step_cycle(out);
    }

    fn run_until_idle_into(&mut self, max_cycles: u64, out: &mut Vec<Delivery>) {
        Network::run_until_idle_into(self, max_cycles, out);
    }

    fn run_for(&mut self, cycles: u64, out: &mut Vec<Delivery>) {
        Network::run_for(self, cycles, out);
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// [`Mesh::xy_route`]'s port index, looked up from the two coordinate
/// comparisons instead of branching on them.
#[inline]
fn xy_port(here: NodeId, dst: NodeId) -> usize {
    use Direction::{East, Local, North, South, West};
    // Indexed by 3·side(x) + side(y), where side is 0 when dst lies below
    // here on that axis, 1 when level and 2 when above.
    const PORT: [Direction; 9] = [West, West, West, North, Local, South, East, East, East];
    let side = |h: u16, d: u16| usize::from(d > h) + usize::from(d >= h);
    PORT[3 * side(here.x, dst.x) + side(here.y, dst.y)].index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::topology::NodeId;

    fn net(w: u16, h: u16) -> Network {
        Network::new(NetworkConfig::mesh(w, h)).unwrap()
    }

    #[test]
    fn xy_port_is_the_xy_route_index() {
        let mesh = Mesh::new(5, 3);
        for here in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                assert_eq!(
                    xy_port(here, dst),
                    mesh.xy_route(here, dst).index(),
                    "{here} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn rejects_zero_mesh() {
        assert!(Network::new(NetworkConfig::mesh(0, 5)).is_err());
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let mut n = net(2, 2);
        let p = Packet::request(1, NodeId::new(0, 0), NodeId::new(5, 5), 1).unwrap();
        assert!(matches!(n.inject(p), Err(NocError::NodeOutOfRange { .. })));
    }

    #[test]
    fn single_packet_crosses_mesh() {
        let mut n = net(5, 5);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(4, 4);
        n.inject(Packet::request(1, src, dst, 3).unwrap()).unwrap();
        let out = n.run_until_idle(1000);
        assert_eq!(out.len(), 1);
        let d = &out[0];
        assert_eq!(d.packet.dst(), dst);
        // Minimum latency: 1 cycle NI + hops + serialization of 4 flits.
        let hops = src.hops_to(dst) as u64;
        assert!(d.latency().raw() >= hops + 3);
        assert!(d.latency().raw() < 100, "uncongested latency is small");
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn local_delivery_same_node() {
        let mut n = net(3, 3);
        let node = NodeId::new(1, 1);
        n.inject(Packet::request(7, node, node, 2).unwrap())
            .unwrap();
        let out = n.run_until_idle(100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.id(), 7);
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut n = net(4, 4);
        let mut id = 0;
        for sx in 0..4 {
            for sy in 0..4 {
                for (dx, dy) in [(0u16, 0u16), (3, 3), (1, 2)] {
                    id += 1;
                    n.inject(
                        Packet::new(
                            id,
                            PacketKind::Memory,
                            NodeId::new(sx, sy),
                            NodeId::new(dx, dy),
                            2,
                            0,
                        )
                        .unwrap(),
                    )
                    .unwrap();
                }
            }
        }
        let out = n.run_until_idle(10_000);
        assert_eq!(out.len(), 48);
        assert_eq!(n.in_flight(), 0);
        // Flit conservation: each packet has 3 flits; every flit-hop moved
        // one flit once, and each flit moves at least once (src may equal
        // dst but still transits the local port).
        assert!(n.stats().flit_hops >= 48 * 3);
    }

    #[test]
    fn flits_of_a_packet_stay_contiguous_per_link() {
        // Wormhole property: deliveries contain whole packets; a packet is
        // only delivered once all its flits arrived (reassembly asserts the
        // count). Interleave many packets from different sources into one
        // destination to stress the locks.
        let mut n = net(3, 3);
        for i in 0..9u64 {
            let src = NodeId::new((i % 3) as u16, (i / 3) as u16);
            n.inject(Packet::request(i + 1, src, NodeId::new(2, 2), 5).unwrap())
                .unwrap();
        }
        let out = n.run_until_idle(10_000);
        assert_eq!(out.len(), 9, "all packets reassembled intact");
    }

    #[test]
    fn contention_increases_latency() {
        // One packet alone vs. the same packet competing with cross traffic
        // through the mesh center.
        let solo = {
            let mut n = net(5, 5);
            n.inject(Packet::request(1, NodeId::new(0, 2), NodeId::new(4, 2), 8).unwrap())
                .unwrap();
            n.run_until_idle(10_000)[0].latency().raw()
        };
        let contended = {
            let mut n = net(5, 5);
            n.inject(Packet::request(1, NodeId::new(0, 2), NodeId::new(4, 2), 8).unwrap())
                .unwrap();
            // Competing flows crossing the same row.
            for i in 0..4u64 {
                n.inject(
                    Packet::request(100 + i, NodeId::new(i as u16, 2), NodeId::new(4, 2), 8)
                        .unwrap(),
                )
                .unwrap();
            }
            let out = n.run_until_idle(10_000);
            out.iter()
                .find(|d| d.packet.id() == 1)
                .unwrap()
                .latency()
                .raw()
        };
        assert!(
            contended > solo,
            "contended {contended} must exceed solo {solo}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = net(4, 4);
            for i in 0..20u64 {
                let src = NodeId::new((i % 4) as u16, ((i / 4) % 4) as u16);
                let dst = NodeId::new(((i + 2) % 4) as u16, ((i / 2) % 4) as u16);
                n.inject(Packet::request(i + 1, src, dst, 1 + (i % 3) as u32).unwrap())
                    .unwrap();
            }
            let mut out = n.run_until_idle(10_000);
            out.sort_by_key(|d| d.packet.id());
            out.iter()
                .map(|d| (d.packet.id(), d.delivered_at.raw()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_returns_only_new_deliveries() {
        let mut n = net(2, 2);
        n.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(1, 1), 1).unwrap())
            .unwrap();
        let mut total = 0;
        for _ in 0..100 {
            total += n.step().len();
        }
        assert_eq!(total, 1);
        assert_eq!(n.stats().delivered, 1);
    }

    #[test]
    fn injection_queue_overflow_detected() {
        let mut n = net(2, 2);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(1, 1);
        // Packets of half the NI plus one flit: the first fits, the second
        // overflows the INJECTION_DEPTH-flit queue.
        let payload = (INJECTION_DEPTH / 2) as u32;
        n.inject(Packet::request(1, src, dst, payload).unwrap())
            .unwrap();
        let r = n.inject(Packet::request(2, src, dst, payload).unwrap());
        assert!(
            matches!(r, Err(NocError::InjectionQueueFull { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn failed_link_stalls_then_restores() {
        let mut n = net(3, 1);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        n.inject(Packet::request(1, src, dst, 2).unwrap()).unwrap();
        // XY routing goes east along row 0; cut the middle link.
        n.fail_link(NodeId::new(1, 0), Direction::East).unwrap();
        assert_eq!(n.failed_link_count(), 1);
        for _ in 0..200 {
            n.step();
        }
        assert_eq!(n.in_flight(), 1, "packet held upstream of the cut");
        assert_eq!(n.stats().delivered, 0);
        assert!(n.stats().contention_cycles > 0, "stall counted");
        // Restore: traffic drains cleanly (wormhole locks intact).
        n.restore_link(NodeId::new(1, 0), Direction::East).unwrap();
        let out = n.run_until_idle(1000);
        assert_eq!(out.len(), 1);
        assert!(!out[0].corrupted);
    }

    #[test]
    fn link_fault_rejects_bad_node() {
        let mut n = net(2, 2);
        assert!(matches!(
            n.fail_link(NodeId::new(9, 9), Direction::East),
            Err(NocError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn dropped_packet_burns_bandwidth_but_never_delivers() {
        let mut n = net(3, 3);
        n.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(2, 2), 3).unwrap())
            .unwrap();
        n.inject(Packet::request(2, NodeId::new(2, 0), NodeId::new(0, 2), 3).unwrap())
            .unwrap();
        n.drop_packet(1).unwrap();
        let out = n.run_until_idle(10_000);
        assert_eq!(out.len(), 1, "only the healthy packet surfaces");
        assert_eq!(out[0].packet.id(), 2);
        assert_eq!(n.stats().dropped, 1);
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.in_flight(), 0, "dropped packet left the fabric");
        assert!(n.stats().flit_hops > 4, "the drop still burned hops");
    }

    #[test]
    fn corrupted_packet_arrives_flagged() {
        let mut n = net(3, 3);
        n.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(2, 2), 3).unwrap())
            .unwrap();
        n.corrupt_packet(1).unwrap();
        let out = n.run_until_idle(10_000);
        assert_eq!(out.len(), 1);
        assert!(out[0].corrupted);
        assert_eq!(n.stats().corrupted, 1);
        assert_eq!(n.stats().delivered, 1);
    }

    #[test]
    fn fault_marks_require_in_flight_packets() {
        let mut n = net(2, 2);
        assert_eq!(n.drop_packet(99), Err(NocError::UnknownPacket { id: 99 }));
        assert_eq!(
            n.corrupt_packet(99),
            Err(NocError::UnknownPacket { id: 99 })
        );
    }

    #[test]
    fn latency_scales_with_distance() {
        let lat = |dst: NodeId| {
            let mut n = net(5, 5);
            n.inject(Packet::request(1, NodeId::new(0, 0), dst, 2).unwrap())
                .unwrap();
            n.run_until_idle(10_000)[0].latency().raw()
        };
        let near = lat(NodeId::new(1, 0));
        let far = lat(NodeId::new(4, 4));
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn run_for_jumps_idle_gaps_exactly() {
        let mut n = net(4, 4);
        let mut scratch = Vec::new();
        // 10_000 idle cycles cost one clock jump.
        n.run_for(10_000, &mut scratch);
        assert_eq!(n.now().raw(), 10_000);
        assert_eq!(n.cycles_stepped(), 0, "the idle jump steps no cycle");
        assert!(scratch.is_empty());
        // A packet injected afterwards still gets exact timing.
        n.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(3, 3), 3).unwrap())
            .unwrap();
        n.run_for(50, &mut scratch);
        assert_eq!(n.now().raw(), 10_050);
        assert_eq!(scratch.len(), 1);
        // 1 NI cycle + 4 flits + 6 hops = injected_at + 11.
        assert_eq!(scratch[0].delivered_at.raw(), 10_000 + 4 + 6 + 1);
    }

    #[test]
    fn express_transit_matches_cycle_stepper() {
        // The batched traversal must leave identical observable state to
        // stepping every cycle: compare against a second Network driven
        // through `step` only (which never takes the express path).
        let mk = || {
            let mut n = net(5, 5);
            n.inject(Packet::request(9, NodeId::new(1, 0), NodeId::new(3, 4), 6).unwrap())
                .unwrap();
            n
        };
        let mut fast = mk();
        let mut scratch = Vec::new();
        fast.run_until_idle_into(10_000, &mut scratch);

        let mut slow = mk();
        let mut slow_out = Vec::new();
        for _ in 0..10_000 {
            if slow.in_flight() == 0 {
                break;
            }
            slow.step_into(&mut slow_out);
        }
        assert_eq!(scratch, slow_out);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.now(), slow.now());
    }

    #[test]
    fn scratch_buffer_is_appended_not_cleared() {
        let mut n = net(2, 2);
        let mut scratch = Vec::new();
        n.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(1, 1), 1).unwrap())
            .unwrap();
        n.run_until_idle_into(1_000, &mut scratch);
        n.inject(Packet::request(2, NodeId::new(1, 1), NodeId::new(0, 0), 1).unwrap())
            .unwrap();
        n.run_until_idle_into(1_000, &mut scratch);
        assert_eq!(scratch.len(), 2, "deliveries accumulate across runs");
        assert_eq!(n.stats().delivered, 2);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut n = net(2, 2);
        let mut out = Vec::new();
        for i in 0..50u64 {
            n.inject(Packet::request(i + 1, NodeId::new(0, 0), NodeId::new(1, 1), 2).unwrap())
                .unwrap();
            n.run_until_idle_into(1_000, &mut out);
        }
        assert_eq!(out.len(), 50);
        assert_eq!(n.stats().delivered, 50);
        // One packet at a time ⇒ the slab never needs more than one slot.
        assert_eq!(n.slab.len(), 1, "free list reuses the single slot");
    }
}
