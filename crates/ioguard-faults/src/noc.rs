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
//! that). Its window boundaries are also the fabric's *activity horizon*:
//! between two edges the fault state cannot change, so [`
//! NocFaultDriver::drive`] lets the event-driven core fast-forward across
//! the whole gap with `run_for` instead of spinning idle cycles. The
//! horizon is refined further by [`NocFaultDriver::next_change_edge`]:
//! windows whose absolute fault verdicts match their predecessor's are
//! skipped entirely.

use ioguard_noc::error::NocError;
use ioguard_noc::network::{Delivery, NocFabric};
use ioguard_noc::packet::{Packet, PacketKind};
use ioguard_noc::topology::{Direction, Mesh};

use crate::plan::{tags, FaultPlan};

/// Packet-id base for junk traffic injected by congestion bursts, far above
/// any id a workload generator assigns.
const BURST_ID_BASE: u64 = 1 << 48;

/// Lookahead bound for [`NocFaultDriver::next_change_edge`]: how many
/// windows ahead the driver inspects the plan before giving up and
/// returning a conservative (window-aligned) edge. Bounds the cost of the
/// edge query on near-quiet plans while still letting sparse fault
/// schedules fast-forward across long uneventful stretches.
const EDGE_SCAN_WINDOWS: u64 = 64;

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

    /// True when [`NocFaultDriver::apply`] at `window` would do anything at
    /// all relative to `window - 1`: some link's up/down verdict flips, or
    /// a congestion burst fires. Pure plan arithmetic — no fabric state is
    /// consulted.
    fn window_state_changes(&self, window: u64, mesh: Mesh) -> bool {
        let links = mesh.nodes() as u64 * 4;
        for k in 0..links {
            let rate = self.plan.link_down_rate;
            if self.plan.chance(tags::LINK, k, window, rate)
                != self.plan.chance(tags::LINK, k, window - 1, rate)
            {
                return true;
            }
        }
        self.plan
            .chance(tags::BURST, window, 0, self.plan.burst_rate)
    }

    /// First cycle after `cycle` at which applying this driver can actually
    /// change fabric state: a link flips up/down or a burst fires. Always
    /// `>= next_window_edge(cycle)` — windows whose absolute link verdicts
    /// match their predecessor's and that fire no burst are skipped, so a
    /// sparse fault schedule lets the event-driven core fast-forward far
    /// beyond the next window boundary. Lookahead is bounded by
    /// [`EDGE_SCAN_WINDOWS`]; past the bound a conservative window-aligned
    /// edge is returned (sound, just not maximally far). Returns `u64::MAX`
    /// for quiet plans.
    pub fn next_change_edge(&self, cycle: u64, mesh: Mesh) -> u64 {
        if self.plan.link_down_rate <= 0.0 && self.plan.burst_rate <= 0.0 {
            // A quiet plan never changes fabric state at any window edge.
            return u64::MAX;
        }
        let window = cycle / self.window_cycles;
        let horizon = window.saturating_add(EDGE_SCAN_WINDOWS);
        let mut w = window;
        while w < horizon {
            w += 1;
            if self.window_state_changes(w, mesh) {
                return w.saturating_mul(self.window_cycles);
            }
        }
        // Windows `window ..= horizon` are all no-ops relative to their
        // predecessors, so state is provably constant until the start of
        // `horizon + 1` — the earliest unexamined edge.
        horizon.saturating_add(1).saturating_mul(self.window_cycles)
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
        // absolute, not incremental, so a late-joining driver agrees (and
        // `drive` may skip arbitrarily many no-op windows in between).
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

    /// Advances the fabric to absolute cycle `until_cycle` under this
    /// driver's faults, appending deliveries to `out`. Fault state only
    /// changes on *change* edges ([`NocFaultDriver::next_change_edge`]), so
    /// between edges the fabric is handed the whole gap at once via
    /// [`NocFabric::run_for`] — the event-driven core then skips quiescent
    /// stretches and batches uncontended traversals, while the reference
    /// stepper grinds through every cycle, and both land on the exact same
    /// state. Skipping no-op windows is sound because [`NocFaultDriver::
    /// apply`]'s link state is absolute per window, not incremental.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from fault application.
    pub fn drive<N: NocFabric>(
        &mut self,
        net: &mut N,
        until_cycle: u64,
        out: &mut Vec<Delivery>,
    ) -> Result<(), NocError> {
        loop {
            let now = net.now().raw();
            if now >= until_cycle {
                return Ok(());
            }
            self.apply(net, now)?;
            let edge = self.next_change_edge(now, net.mesh()).min(until_cycle);
            net.run_for(edge - now, out);
        }
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
    fn change_edges_skip_quiet_windows() {
        let mesh = Mesh::new(4, 4);
        // A quiet plan never changes anything: the edge is the far future.
        let quiet = NocFaultDriver::new(FaultPlan::new(1), 128);
        assert_eq!(quiet.next_change_edge(0, mesh), u64::MAX);

        // A sparse plan's change edges are window-aligned, strictly ahead,
        // and never earlier than the plain window edge.
        let mut plan = FaultPlan::new(17);
        plan.link_down_rate = 0.01;
        plan.burst_rate = 0.02;
        let driver = NocFaultDriver::new(plan, 64);
        let mut skipped_any = false;
        for cycle in (0..20_000).step_by(613) {
            let edge = driver.next_change_edge(cycle, mesh);
            assert!(edge > cycle);
            assert_eq!(edge % 64, 0, "change edges are window starts");
            assert!(edge >= driver.next_window_edge(cycle));
            skipped_any |= edge > driver.next_window_edge(cycle);
            // Soundness: every window strictly between `cycle`'s and the
            // edge is a no-op relative to its predecessor.
            for w in cycle / 64 + 1..edge / 64 {
                assert!(
                    !driver.window_state_changes(w, mesh),
                    "window {w} skipped but active"
                );
            }
        }
        assert!(skipped_any, "1-2% rates must leave skippable windows");
    }

    #[test]
    fn drive_with_sparse_faults_matches_stepping() {
        // Rates low enough that `drive` skips most windows via the change
        // edge; the result must still equal the per-cycle apply/step loop.
        let mut plan = FaultPlan::new(41);
        plan.link_down_rate = 0.02;
        plan.burst_rate = 0.05;
        plan.burst_packets = 2;
        let horizon = 4_000u64;

        let mut jumped = quiet_net();
        let mut jumped_out = Vec::new();
        let mut d1 = NocFaultDriver::new(plan.clone(), 32);
        d1.drive(&mut jumped, horizon, &mut jumped_out).unwrap();

        let mut stepped = quiet_net();
        let mut stepped_out = Vec::new();
        let mut d2 = NocFaultDriver::new(plan, 32);
        for cycle in 0..horizon {
            d2.apply(&mut stepped, cycle).unwrap();
            stepped.step_into(&mut stepped_out);
        }

        assert_eq!(jumped.now(), stepped.now());
        assert_eq!(jumped_out, stepped_out);
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.failed_link_count(), stepped.failed_link_count());
    }

    #[test]
    fn drive_matches_per_cycle_apply_and_step() {
        // Driving window-by-window (with `run_for` jumps) must land on the
        // same fabric state as the cycle-by-cycle apply/step loop.
        let mut plan = FaultPlan::new(23);
        plan.link_down_rate = 0.2;
        plan.burst_rate = 0.4;
        plan.burst_packets = 2;
        let horizon = 1000u64;

        let mut jumped = quiet_net();
        let mut jumped_out = Vec::new();
        let mut d1 = NocFaultDriver::new(plan.clone(), 64);
        d1.drive(&mut jumped, horizon, &mut jumped_out).unwrap();

        let mut stepped = quiet_net();
        let mut stepped_out = Vec::new();
        let mut d2 = NocFaultDriver::new(plan, 64);
        for cycle in 0..horizon {
            d2.apply(&mut stepped, cycle).unwrap();
            stepped.step_into(&mut stepped_out);
        }

        assert_eq!(jumped.now(), stepped.now());
        assert_eq!(jumped_out, stepped_out);
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.failed_link_count(), stepped.failed_link_count());
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
