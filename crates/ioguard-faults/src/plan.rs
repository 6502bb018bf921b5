//! Seeded fault plans.
//!
//! A [`FaultPlan`] is the single source of truth for *what goes wrong* in a
//! trial: NoC faults (link down, packet drop/corrupt, congestion bursts),
//! device faults (transaction stalls), and VM misbehavior (babbling-idiot
//! flooding, WCET overruns, malformed requests). Every decision is a pure
//! function of the plan's seed and the event's coordinates — never of
//! sequential RNG state — so outcomes are bit-identical at any thread
//! count and any evaluation order.

use ioguard_sim::rng::SplitMix64;

/// A deterministic fault plan.
///
/// # Example
///
/// ```
/// use ioguard_faults::plan::FaultPlan;
///
/// let plan = FaultPlan::new(42).with_drop_rate(0.1);
/// // Decisions are pure: same coordinates, same verdict, in any order.
/// assert_eq!(plan.chance(1, 7, 0, 0.1), plan.chance(1, 7, 0, 0.1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of every decision.
    pub seed: u64,
    /// Per-(link, window) probability that a mesh link is down.
    pub link_down_rate: f64,
    /// Per-packet drop probability (discarded at ejection, CRC-fail model).
    pub drop_rate: f64,
    /// Per-packet corruption probability (delivered flagged).
    pub corrupt_rate: f64,
    /// Per-window probability of a transient congestion burst.
    pub burst_rate: f64,
    /// Junk packets injected per congestion burst.
    pub burst_packets: u64,
    /// Per-window probability that the I/O device stalls.
    pub device_stall_rate: f64,
    /// Length of each injected device stall, in slots.
    pub device_stall_slots: u64,
    /// Watchdog retry budget the scenario configures (bounded).
    pub retry_budget: u32,
    /// Index of the adversarial VM, if any.
    pub adversary: Option<usize>,
    /// Submissions per slot the adversarial VM floods (babbling idiot).
    pub adversary_flood: u64,
    /// Extra execution slots the adversary's jobs demand beyond their
    /// declared budget (WCET overrun).
    pub wcet_overrun: u64,
    /// Probability that an adversarial submission is malformed (targets an
    /// unknown VM and must bounce off the driver with `UnknownVm`).
    pub malformed_rate: f64,
}

impl FaultPlan {
    /// A quiet plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            link_down_rate: 0.0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            burst_rate: 0.0,
            burst_packets: 4,
            device_stall_rate: 0.0,
            device_stall_slots: 8,
            retry_budget: 3,
            adversary: None,
            adversary_flood: 0,
            wcet_overrun: 0,
            malformed_rate: 0.0,
        }
    }

    /// Sets the per-packet drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the per-packet corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Marks `vm` adversarial: it floods `flood` submissions per slot.
    pub fn with_adversary(mut self, vm: usize, flood: u64) -> Self {
        self.adversary = Some(vm);
        self.adversary_flood = flood;
        self
    }

    /// Sets the transient device-stall schedule.
    pub fn with_device_stalls(mut self, rate: f64, slots: u64) -> Self {
        self.device_stall_rate = rate;
        self.device_stall_slots = slots;
        self
    }

    /// A well-mixed 64-bit decision word for the event at coordinates
    /// `(tag, a, b)`. Pure: depends only on the plan seed and the
    /// coordinates, so any thread can evaluate any event in any order.
    pub fn decision(&self, tag: u64, a: u64, b: u64) -> u64 {
        let root = SplitMix64::new(self.seed).derive(tag);
        let mid = SplitMix64::new(root).derive(a.wrapping_add(0x9E37_79B9_7F4A_7C15));
        SplitMix64::new(mid).derive(b.wrapping_add(0xD1B5_4A32_D192_ED03))
    }

    /// True with probability `rate` for the event at `(tag, a, b)`.
    pub fn chance(&self, tag: u64, a: u64, b: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // 53-bit mantissa comparison: uniform in [0, 1).
        let u = (self.decision(tag, a, b) >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }
}

/// Event-family tags for [`FaultPlan::decision`] coordinates. Distinct tags
/// give decorrelated fault streams from the one seed.
pub mod tags {
    /// Link up/down decisions: `(LINK, link index, window)`.
    pub const LINK: u64 = 1;
    /// Packet drop decisions: `(DROP, packet id, 0)`.
    pub const DROP: u64 = 2;
    /// Packet corruption decisions: `(CORRUPT, packet id, 0)`.
    pub const CORRUPT: u64 = 3;
    /// Congestion bursts: `(BURST, window, k)`.
    pub const BURST: u64 = 4;
    /// Device stalls: `(STALL, window, 0)`.
    pub const STALL: u64 = 5;
    /// Malformed adversarial submissions: `(MALFORMED, slot, k)`.
    pub const MALFORMED: u64 = 6;
    /// Online-reconfiguration flip attempts: `(RECONFIG, window, 0)`.
    pub const RECONFIG: u64 = 7;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_decides_nothing() {
        let plan = FaultPlan::new(7);
        assert!(!plan.chance(tags::DROP, 1, 0, plan.drop_rate));
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let plan = FaultPlan::new(99).with_drop_rate(0.5);
        let forward: Vec<bool> = (0..100)
            .map(|id| plan.chance(tags::DROP, id, 0, 0.5))
            .collect();
        let mut backward: Vec<bool> = (0..100)
            .rev()
            .map(|id| plan.chance(tags::DROP, id, 0, 0.5))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward, "evaluation order cannot matter");
        assert!(forward.iter().any(|&b| b) && forward.iter().any(|&b| !b));
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        let va: Vec<bool> = (0..64).map(|i| a.chance(tags::DROP, i, 0, 0.5)).collect();
        let vb: Vec<bool> = (0..64).map(|i| b.chance(tags::DROP, i, 0, 0.5)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_matches_rate_roughly() {
        let plan = FaultPlan::new(1234);
        let hits = (0..10_000)
            .filter(|&i| plan.chance(tags::CORRUPT, i, 0, 0.2))
            .count();
        assert!((1_600..2_400).contains(&hits), "{hits} hits for p=0.2");
    }
}
