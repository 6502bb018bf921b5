//! Applying a [`FaultPlan`]'s NoC faults to a live fabric.
//!
//! The driver is windowed: time is cut into fixed windows and every fault
//! decision is keyed on `(coordinate, window)` through the plan's pure
//! decision function. Two drivers with the same plan therefore produce the
//! same fabric state at the same cycle regardless of when or where they
//! run — the property the chaos sweep's 1-vs-N-thread check relies on.
//!
//! The driver is generic over [`NocFabric`], so the exact same fault
//! stimulus can be replayed against the event-driven `Network` and the
//! retained reference stepper (the workspace differential tests do exactly
//! that).

use ioguard_noc::error::NocError;
use ioguard_noc::network::NocFabric;
use ioguard_noc::packet::{Packet, PacketKind};
use ioguard_noc::topology::Direction;

use crate::plan::{tags, FaultPlan};

/// Packet-id base for junk traffic injected by congestion bursts, far above
/// any id a workload generator assigns.
const BURST_ID_BASE: u64 = 1 << 48;

/// Link-numbering order used by [`NocFaultDriver::apply`]: link
/// `idx * 4 + d` is node `idx`'s output in `LINK_DIRS[d]`.
const LINK_DIRS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

/// Applies a plan's NoC faults (link up/down, congestion bursts) to a
/// network, window by window, and decides per-packet drop/corrupt marks.
#[derive(Debug, Clone, PartialEq)]
pub struct NocFaultDriver {
    plan: FaultPlan,
    /// Window length in cycles.
    window_cycles: u64,
    /// Last window whose link state was applied (`None` before the first).
    applied_window: Option<u64>,
}

impl NocFaultDriver {
    /// Creates a driver applying `plan` with the given fault window length.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn new(plan: FaultPlan, window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "fault window must be positive");
        Self {
            plan,
            window_cycles,
            applied_window: None,
        }
    }

    /// True when the plan wants packet `id` discarded at ejection.
    pub fn should_drop(&self, id: u64) -> bool {
        self.plan.chance(tags::DROP, id, 0, self.plan.drop_rate)
    }

    /// True when the plan wants packet `id` delivered corrupted.
    pub fn should_corrupt(&self, id: u64) -> bool {
        self.plan
            .chance(tags::CORRUPT, id, 0, self.plan.corrupt_rate)
    }

    /// First cycle of the window after the one containing `cycle` — the
    /// next instant at which this driver can change fabric state. Event-
    /// driven callers combine this edge with the fabric's own activity to
    /// bound how far they may fast-forward.
    pub fn next_window_edge(&self, cycle: u64) -> u64 {
        (cycle / self.window_cycles + 1).saturating_mul(self.window_cycles)
    }

    /// Marks a just-injected packet per the plan (drop wins over corrupt).
    ///
    /// # Errors
    ///
    /// Propagates [`NocError::UnknownPacket`] if `id` was never injected —
    /// a caller bug, since marking is meant to follow injection directly.
    pub fn mark_packet<N: NocFabric>(&self, net: &mut N, id: u64) -> Result<(), NocError> {
        if self.should_drop(id) {
            net.drop_packet(id)?;
        } else if self.should_corrupt(id) {
            net.corrupt_packet(id)?;
        }
        Ok(())
    }

    /// Brings the network's link state and burst traffic up to date with
    /// the window containing `cycle`. Idempotent within a window; call it
    /// once per cycle (or per window) before stepping the fabric.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from link toggling; burst packets that find
    /// a full injection queue are silently skipped (a burst into a loaded
    /// fabric is exactly the congestion being modelled).
    pub fn apply<N: NocFabric>(&mut self, net: &mut N, cycle: u64) -> Result<(), NocError> {
        let window = cycle / self.window_cycles;
        if self.applied_window == Some(window) {
            return Ok(());
        }
        self.applied_window = Some(window);
        let mesh = net.mesh();
        // Link state: link k is down in this window iff the plan says so —
        // absolute, not incremental, so a late-joining driver agrees.
        let mut link = 0u64;
        for idx in 0..mesh.nodes() {
            let node = mesh.node_at(idx);
            for dir in LINK_DIRS {
                let down = self
                    .plan
                    .chance(tags::LINK, link, window, self.plan.link_down_rate);
                if down {
                    net.fail_link(node, dir)?;
                } else {
                    net.restore_link(node, dir)?;
                }
                link += 1;
            }
        }
        // Congestion burst: a clump of junk memory packets aimed across the
        // fabric's center column.
        if self
            .plan
            .chance(tags::BURST, window, 0, self.plan.burst_rate)
        {
            for k in 0..self.plan.burst_packets {
                let word = self.plan.decision(tags::BURST, window, k + 1);
                let src = mesh.node_at((word % mesh.nodes() as u64) as usize);
                let dst = mesh.node_at(((word >> 16) % mesh.nodes() as u64) as usize);
                let id = BURST_ID_BASE + window * 4096 + k;
                let Ok(packet) = Packet::new(id, PacketKind::Memory, src, dst, 4, 0) else {
                    continue;
                };
                // Full queue: the burst met existing congestion. Skip.
                let _ = net.inject(packet);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_noc::network::{Network, NetworkConfig};
    use ioguard_noc::topology::NodeId;

    fn quiet_net() -> Network {
        Network::new(NetworkConfig::mesh(4, 4)).unwrap()
    }

    #[test]
    fn quiet_plan_touches_nothing() {
        let mut driver = NocFaultDriver::new(FaultPlan::new(1), 100);
        let mut net = quiet_net();
        driver.apply(&mut net, 0).unwrap();
        assert_eq!(net.failed_link_count(), 0);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn link_faults_follow_the_plan_deterministically() {
        let mut plan = FaultPlan::new(7);
        plan.link_down_rate = 0.3;
        let run = || {
            let mut driver = NocFaultDriver::new(plan.clone(), 50);
            let mut net = quiet_net();
            let mut counts = Vec::new();
            for cycle in (0..500).step_by(50) {
                driver.apply(&mut net, cycle).unwrap();
                counts.push(net.failed_link_count());
            }
            counts
        };
        let a = run();
        assert_eq!(a, run(), "same plan, same link schedule");
        assert!(a.iter().any(|&c| c > 0), "30% rate downs some links: {a:?}");
        // Windows differ from each other (links repair and fail over time).
        assert!(a.windows(2).any(|w| w[0] != w[1]), "{a:?}");
    }

    #[test]
    fn drop_and_corrupt_marks_apply_on_injection() {
        let mut plan = FaultPlan::new(3);
        plan.drop_rate = 0.5;
        let driver = NocFaultDriver::new(plan, 100);
        let mut net = quiet_net();
        let mut dropped_expected = 0u64;
        for id in 1..=20u64 {
            net.inject(Packet::request(id, NodeId::new(0, 0), NodeId::new(3, 3), 1).unwrap())
                .ok();
            if net.in_flight() > 0 {
                driver.mark_packet(&mut net, id).unwrap();
            }
            dropped_expected += u64::from(driver.should_drop(id));
            net.run_until_idle(10_000);
        }
        assert!(dropped_expected > 0);
        assert_eq!(net.stats().dropped, dropped_expected);
        assert_eq!(net.stats().delivered, 20 - dropped_expected);
    }

    #[test]
    fn window_edges_bound_the_activity_horizon() {
        let driver = NocFaultDriver::new(FaultPlan::new(1), 128);
        assert_eq!(driver.next_window_edge(0), 128);
        assert_eq!(driver.next_window_edge(127), 128);
        assert_eq!(driver.next_window_edge(128), 256);
        assert_eq!(driver.next_window_edge(300), 384);
    }

    #[test]
    fn bursts_inject_junk_traffic() {
        let mut plan = FaultPlan::new(11);
        plan.burst_rate = 1.0;
        plan.burst_packets = 3;
        let mut driver = NocFaultDriver::new(plan, 100);
        let mut net = quiet_net();
        driver.apply(&mut net, 0).unwrap();
        assert!(net.in_flight() > 0, "burst traffic entered the fabric");
        // Re-applying inside the same window is idempotent.
        let before = net.in_flight();
        driver.apply(&mut net, 50).unwrap();
        assert_eq!(net.in_flight(), before);
    }
}
