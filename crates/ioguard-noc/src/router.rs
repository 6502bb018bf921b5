//! A single 5-port wormhole mesh router.
//!
//! Each router has one bounded FIFO per input port, one arbiter per output
//! port and a per-output *channel lock*: once a header flit is granted an
//! output, that output is reserved for the packet's remaining flits until
//! the tail passes — classic wormhole switching. The FIFO-per-port
//! structure is exactly the hardware property the paper calls out as the
//! root of the predictability problem ("the implementation of traditional
//! I/O controllers relies on FIFO queues, which forbids context switches at
//! the hardware level").

// lint: allow(indexing, file) — every index is Direction::index(), which is
// 0..5 by construction, into the router's fixed five-port arrays.

use std::collections::VecDeque;

use crate::arbiter::RoundRobin;
use crate::network::FIFO_DEPTH;
use crate::packet::Flit;
use crate::topology::Direction;

/// Per-router statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flits forwarded through this router.
    pub flits_forwarded: u64,
    /// Cycles in which at least one input wanted an output it did not get
    /// (arbitration or backpressure stall).
    pub contention_cycles: u64,
}

/// A 5-port wormhole router.
#[derive(Debug)]
pub struct Router {
    /// Input FIFOs indexed by [`Direction::index`].
    inputs: [VecDeque<Flit>; 5],
    /// Per-output channel locks: which input currently owns the output.
    locks: [Option<Direction>; 5],
    /// Per-output round-robin arbiters over the 5 inputs.
    arbiters: [RoundRobin; 5],
    stats: RouterStats,
}

impl Router {
    /// Creates an empty router with [`FIFO_DEPTH`]-flit input FIFOs.
    pub fn new() -> Self {
        Self {
            inputs: Default::default(),
            locks: [None; 5],
            arbiters: std::array::from_fn(|_| RoundRobin::new(5)),
            stats: RouterStats::default(),
        }
    }

    /// Remaining space in the input FIFO at `port`.
    pub fn space(&self, port: Direction) -> usize {
        FIFO_DEPTH - self.inputs[port.index()].len()
    }

    /// Pushes a flit into the input FIFO at `port`.
    ///
    /// # Panics
    ///
    /// Panics when the FIFO is full — the network layer must check
    /// [`Router::space`] first (backpressure is explicit, not silent).
    pub fn push(&mut self, port: Direction, flit: Flit) {
        assert!(self.space(port) > 0, "input fifo overflow at {port}");
        self.inputs[port.index()].push_back(flit);
    }

    /// The head flit waiting at input `port`.
    pub fn head(&self, port: Direction) -> Option<&Flit> {
        self.inputs[port.index()].front()
    }

    /// Pops the head flit at input `port`.
    pub fn pop(&mut self, port: Direction) -> Option<Flit> {
        let f = self.inputs[port.index()].pop_front();
        if f.is_some() {
            self.stats.flits_forwarded += 1;
        }
        f
    }

    /// Current owner of output `port`'s wormhole channel.
    pub fn lock(&self, port: Direction) -> Option<Direction> {
        self.locks[port.index()]
    }

    /// Reserves output `out` for packets arriving on input `input`.
    pub fn acquire(&mut self, out: Direction, input: Direction) {
        debug_assert!(self.locks[out.index()].is_none(), "double lock at {out}");
        self.locks[out.index()] = Some(input);
    }

    /// Releases output `out` (tail flit passed).
    pub fn release(&mut self, out: Direction) {
        self.locks[out.index()] = None;
    }

    /// Runs output `out`'s arbiter over the given request vector (indexed by
    /// input port).
    pub fn arbitrate(&mut self, out: Direction, requests: &[bool; 5]) -> Option<Direction> {
        self.arbiters[out.index()]
            .grant(requests)
            .map(|i| Direction::ALL[i])
    }

    /// Records a cycle in which some input stalled.
    pub fn note_contention(&mut self) {
        self.stats.contention_cycles += 1;
    }

    /// Total flits buffered across all inputs.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(VecDeque::len).sum()
    }

    /// Router statistics.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn flit(packet: u64, seq: u32, tail: bool) -> Flit {
        Flit {
            packet,
            seq,
            is_tail: tail,
            dst: NodeId::new(0, 0),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut r = Router::new();
        r.push(Direction::North, flit(1, 0, false));
        r.push(Direction::North, flit(1, 1, true));
        assert_eq!(r.head(Direction::North).unwrap().seq, 0);
        assert_eq!(r.pop(Direction::North).unwrap().seq, 0);
        assert_eq!(r.pop(Direction::North).unwrap().seq, 1);
        assert_eq!(r.pop(Direction::North), None);
        assert_eq!(r.stats().flits_forwarded, 2);
    }

    #[test]
    fn space_tracks_depth() {
        let mut r = Router::new();
        for seq in 0..FIFO_DEPTH as u32 {
            assert_eq!(r.space(Direction::East), FIFO_DEPTH - seq as usize);
            r.push(Direction::East, flit(1, seq, false));
        }
        assert_eq!(r.space(Direction::East), 0);
        assert_eq!(r.occupancy(), FIFO_DEPTH);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut r = Router::new();
        for seq in 0..=FIFO_DEPTH as u32 {
            r.push(Direction::Local, flit(1, seq, false));
        }
    }

    #[test]
    fn locks_acquire_release() {
        let mut r = Router::new();
        assert_eq!(r.lock(Direction::South), None);
        r.acquire(Direction::South, Direction::Local);
        assert_eq!(r.lock(Direction::South), Some(Direction::Local));
        r.release(Direction::South);
        assert_eq!(r.lock(Direction::South), None);
    }

    #[test]
    fn arbitration_rotates_per_output() {
        let mut r = Router::new();
        let all = [true; 5];
        assert_eq!(r.arbitrate(Direction::East, &all), Some(Direction::North));
        assert_eq!(r.arbitrate(Direction::East, &all), Some(Direction::South));
        // A different output port has its own independent arbiter.
        assert_eq!(r.arbitrate(Direction::West, &all), Some(Direction::North));
    }

    #[test]
    fn contention_counter() {
        let mut r = Router::new();
        r.note_contention();
        r.note_contention();
        assert_eq!(r.stats().contention_cycles, 2);
    }
}
