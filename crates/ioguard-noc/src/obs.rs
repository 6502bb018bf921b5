//! Observability wrapper over any [`NocFabric`] implementation.
//!
//! [`ObservedFabric`] decorates a fabric with the unified event stream
//! (`ioguard-obs`): packet injections, deliveries, corruption flags and
//! drop-count edges are recorded into a bounded [`TraceSink`], and per-packet
//! latency feeds a mergeable [`Histogram`]. The wrapper implements
//! [`NocFabric`] itself, so fault drivers and harnesses that are generic
//! over the trait observe a fabric without knowing they do.
//!
//! The stepping overrides delegate to the inner fabric's own optimized
//! `run_*` implementations (quiescence skipping, express transit) and only
//! then absorb the freshly appended deliveries, so observation never
//! changes the simulated schedule — the inner fabric cannot see the
//! observer at all.

use ioguard_obs::{Histogram, ObsKind, TraceSink, SYSTEM_VM};

use crate::error::NocError;
use crate::network::{Delivery, NetworkStats, NocFabric};
use crate::packet::Packet;
use crate::topology::{Direction, Mesh, NodeId};

use ioguard_sim::time::Cycles;

/// A [`NocFabric`] decorated with event tracing and latency histograms.
#[derive(Debug)]
pub struct ObservedFabric<N> {
    inner: N,
    sink: TraceSink,
    latency: Histogram,
    /// Drop count already attributed to [`ObsKind::NocDrop`] events (the
    /// fabric only exposes the running total).
    seen_dropped: u64,
}

impl<N: NocFabric> ObservedFabric<N> {
    /// Wraps `inner` with an event sink of `capacity` events.
    pub fn new(inner: N, capacity: usize) -> Self {
        let seen_dropped = inner.stats().dropped;
        Self {
            inner,
            sink: TraceSink::new(capacity),
            latency: Histogram::new(),
            seen_dropped,
        }
    }

    /// The recorded event stream.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Per-packet end-to-end latency (cycles), over delivered packets.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Unwraps into the fabric and the collected observations.
    pub fn into_parts(self) -> (N, TraceSink, Histogram) {
        (self.inner, self.sink, self.latency)
    }

    /// Records the deliveries appended to `out` at or past `start`, plus
    /// any drop-count increase since the last absorption.
    fn absorb(&mut self, out: &[Delivery], start: usize) {
        for d in out.iter().skip(start) {
            let lat = u64::from(d.latency());
            self.sink.record(
                u64::from(d.delivered_at),
                ObsKind::NocDeliver,
                SYSTEM_VM,
                d.packet.id(),
                lat,
            );
            if d.corrupted {
                self.sink.record(
                    u64::from(d.delivered_at),
                    ObsKind::NocCorrupt,
                    SYSTEM_VM,
                    d.packet.id(),
                    0,
                );
            }
            self.latency.record(lat);
        }
        let dropped = self.inner.stats().dropped;
        if dropped > self.seen_dropped {
            let delta = dropped.saturating_sub(self.seen_dropped);
            self.sink.record(
                u64::from(self.inner.now()),
                ObsKind::NocDrop,
                SYSTEM_VM,
                0,
                delta,
            );
            self.seen_dropped = dropped;
        }
    }
}

impl<N: NocFabric> NocFabric for ObservedFabric<N> {
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }

    fn now(&self) -> Cycles {
        self.inner.now()
    }

    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn failed_link_count(&self) -> usize {
        self.inner.failed_link_count()
    }

    fn inject(&mut self, packet: Packet) -> Result<(), NocError> {
        let id = packet.id();
        let at = u64::from(self.inner.now());
        let result = self.inner.inject(packet);
        if result.is_ok() {
            self.sink.record(at, ObsKind::NocInject, SYSTEM_VM, id, 0);
        }
        result
    }

    fn fail_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        self.inner.fail_link(node, out)
    }

    fn restore_link(&mut self, node: NodeId, out: Direction) -> Result<(), NocError> {
        self.inner.restore_link(node, out)
    }

    fn drop_packet(&mut self, id: u64) -> Result<(), NocError> {
        self.inner.drop_packet(id)
    }

    fn corrupt_packet(&mut self, id: u64) -> Result<(), NocError> {
        self.inner.corrupt_packet(id)
    }

    fn step_into(&mut self, out: &mut Vec<Delivery>) {
        let start = out.len();
        self.inner.step_into(out);
        self.absorb(out, start);
    }

    fn run_until_idle_into(&mut self, max_cycles: u64, out: &mut Vec<Delivery>) {
        let start = out.len();
        self.inner.run_until_idle_into(max_cycles, out);
        self.absorb(out, start);
    }

    fn run_for(&mut self, cycles: u64, out: &mut Vec<Delivery>) {
        let start = out.len();
        self.inner.run_for(cycles, out);
        self.absorb(out, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkConfig};

    #[test]
    fn observes_inject_and_delivery_without_changing_behavior() {
        let run_plain = || {
            let mut net = Network::new(NetworkConfig::mesh(3, 3)).unwrap();
            net.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(2, 2), 4).unwrap())
                .unwrap();
            let mut out = Vec::new();
            net.run_until_idle_into(10_000, &mut out);
            (out, net.stats(), net.now())
        };
        let (plain_out, plain_stats, plain_now) = run_plain();

        let net = Network::new(NetworkConfig::mesh(3, 3)).unwrap();
        let mut obs = ObservedFabric::new(net, 64);
        obs.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(2, 2), 4).unwrap())
            .unwrap();
        let mut out = Vec::new();
        obs.run_until_idle_into(10_000, &mut out);
        assert_eq!(out, plain_out, "observer must not perturb the fabric");
        assert_eq!(obs.stats(), plain_stats);
        assert_eq!(obs.now(), plain_now);

        assert_eq!(obs.sink().of_kind(ObsKind::NocInject).count(), 1);
        let deliver = obs
            .sink()
            .of_kind(ObsKind::NocDeliver)
            .next()
            .expect("one delivery event");
        assert_eq!(deliver.task, 1);
        assert_eq!(deliver.arg, u64::from(plain_out[0].latency()));
        assert_eq!(obs.latency().count(), 1);
        assert_eq!(obs.latency().max(), Some(deliver.arg));
    }

    #[test]
    fn drop_and_corrupt_faults_become_events() {
        let net = Network::new(NetworkConfig::mesh(3, 3)).unwrap();
        let mut obs = ObservedFabric::new(net, 64);
        obs.inject(Packet::request(1, NodeId::new(0, 0), NodeId::new(2, 0), 4).unwrap())
            .unwrap();
        obs.inject(Packet::request(2, NodeId::new(0, 1), NodeId::new(2, 1), 4).unwrap())
            .unwrap();
        obs.drop_packet(1).unwrap();
        obs.corrupt_packet(2).unwrap();
        let mut out = Vec::new();
        obs.run_until_idle_into(10_000, &mut out);
        assert_eq!(obs.sink().of_kind(ObsKind::NocDrop).count(), 1);
        assert_eq!(
            obs.sink().of_kind(ObsKind::NocDrop).next().unwrap().arg,
            1,
            "drop event carries the count delta"
        );
        assert_eq!(obs.sink().of_kind(ObsKind::NocCorrupt).count(), 1);
        assert_eq!(
            obs.latency().count(),
            1,
            "dropped packets record no latency sample"
        );
    }
}
