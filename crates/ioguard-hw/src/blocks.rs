//! Composition of the I/O-GUARD hypervisor into FPGA resources.
//!
//! The hypervisor contains, per connected I/O device, one *virtualization
//! manager* (P-channel + R-channel) and one *virtualization driver*
//! (translators + I/O controller + banks). The R-channel holds one I/O pool
//! per VM and a G-Sched comparator tree across all pools (Sec. III).
//!
//! Per-block primitive counts are calibrated so the paper's Table I
//! configuration (16 VMs, 2 I/Os) reproduces the published "Proposed" row;
//! every other configuration then follows the same composition law, which
//! is what the scalability experiment (Fig. 8) measures.

use crate::primitives::{prim, ResourceCost};

/// Width of a scheduling comparison (deadline register) in bits.
const DEADLINE_WIDTH: u64 = 32;
/// Per-pool priority-queue depth (buffered run-time I/O tasks per VM).
const DEFAULT_POOL_DEPTH: u64 = 4;
/// P-channel memory: pre-defined tasks + time slot table per I/O.
const PCHANNEL_BANK_KB: u64 = 96;
/// Virtualization-driver memory: low-level driver store per I/O.
const DRIVER_BANK_KB: u64 = 32;

/// Configuration of one hypervisor instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HypervisorConfig {
    /// Number of VMs (one I/O pool per VM per I/O group).
    pub vms: u64,
    /// Number of connected I/O devices (one manager + driver group each).
    pub ios: u64,
    /// Priority-queue depth of each I/O pool.
    pub pool_depth: u64,
}

impl HypervisorConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(vms: u64, ios: u64) -> Self {
        assert!(vms > 0 && ios > 0, "hypervisor needs ≥1 VM and ≥1 I/O");
        Self {
            vms,
            ios,
            pool_depth: DEFAULT_POOL_DEPTH,
        }
    }

    /// The Table I evaluation configuration: 16 VMs, 2 I/Os.
    pub fn paper_table1() -> Self {
        Self::new(16, 2)
    }

    /// Cost of one I/O pool: priority-queue slots (with the register-backed
    /// parameter slots of footnote 2), control logic, shadow register and
    /// the per-VM L-Sched comparator chain.
    pub fn io_pool_cost(&self) -> ResourceCost {
        let slots = ResourceCost::logic(5, 8) * self.pool_depth;
        let control = ResourceCost::logic(8, 8);
        let shadow = ResourceCost::logic(0, 24);
        let lsched = ResourceCost::logic(20, 8);
        slots + control + shadow + lsched
    }

    /// Cost of the G-Sched: a comparator tree over all pools' shadow
    /// registers, a grant mux and its FSM.
    pub fn gsched_cost(&self) -> ResourceCost {
        let tree = prim::comparator(DEADLINE_WIDTH) * self.vms.saturating_sub(1);
        let grant_mux = prim::mux(self.vms, DEADLINE_WIDTH);
        let fsm = prim::fsm(2);
        tree + grant_mux + fsm
    }

    /// Cost of the P-channel: memory banks (tasks + time slot table), the
    /// table-walking executor and the global-timer comparator.
    pub fn pchannel_cost(&self) -> ResourceCost {
        let banks = prim::bank(PCHANNEL_BANK_KB);
        let executor = prim::fsm(4);
        let timer_cmp = prim::comparator(64);
        let walker = ResourceCost::logic(30, 40);
        banks + executor + timer_cmp + walker
    }

    /// Cost of the R-channel executor.
    pub fn rexecutor_cost(&self) -> ResourceCost {
        prim::fsm(4)
    }

    /// Cost of one virtualization driver: request/response translators, the
    /// standardized I/O controller and its driver bank.
    pub fn driver_cost(&self) -> ResourceCost {
        let translators = ResourceCost::logic(60, 50) * 2;
        let controller = ResourceCost::logic(140, 90);
        let bank = prim::bank(DRIVER_BANK_KB);
        translators + controller + bank
    }

    /// Cost of one manager + driver group (everything serving one I/O).
    pub fn group_cost(&self) -> ResourceCost {
        self.io_pool_cost() * self.vms
            + self.gsched_cost()
            + self.pchannel_cost()
            + self.rexecutor_cost()
            + self.driver_cost()
    }

    /// Total hypervisor cost with the power model applied.
    pub fn cost(&self) -> ResourceCost {
        (self.group_cost() * self.ios).with_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "≥1 VM")]
    fn zero_vms_rejected() {
        let _ = HypervisorConfig::new(0, 1);
    }

    #[test]
    fn table1_calibration_hits_proposed_row() {
        // Published "Proposed" row: 2777 LUTs, 2974 regs, 0 DSP, 256 KB,
        // 279 mW. The composition must land within 2% on LUTs/regs, exactly
        // on DSP/BRAM, and within 3% on power.
        let c = HypervisorConfig::paper_table1().cost();
        let lut_err = (c.luts as f64 - 2777.0).abs() / 2777.0;
        let reg_err = (c.registers as f64 - 2974.0).abs() / 2974.0;
        assert!(
            lut_err < 0.02,
            "LUTs = {} ({:.1}% off)",
            c.luts,
            lut_err * 100.0
        );
        assert!(
            reg_err < 0.02,
            "regs = {} ({:.1}% off)",
            c.registers,
            reg_err * 100.0
        );
        assert_eq!(c.dsp, 0);
        assert_eq!(c.bram_kb, 256);
        let pow_err = (c.power_mw as f64 - 279.0).abs() / 279.0;
        assert!(pow_err < 0.03, "power = {} mW", c.power_mw);
    }

    #[test]
    fn cost_scales_linearly_in_ios() {
        let one = HypervisorConfig::new(16, 1).cost();
        let two = HypervisorConfig::new(16, 2).cost();
        assert_eq!(two.luts, 2 * one.luts);
        assert_eq!(two.registers, 2 * one.registers);
        assert_eq!(two.bram_kb, 2 * one.bram_kb);
    }

    #[test]
    fn cost_grows_with_vms() {
        let small = HypervisorConfig::new(4, 2).cost();
        let large = HypervisorConfig::new(16, 2).cost();
        assert!(large.luts > small.luts);
        assert!(large.registers > small.registers);
        // Memory banks do not depend on the VM count (fixed table size).
        assert_eq!(large.bram_kb, small.bram_kb);
    }

    #[test]
    fn vm_marginal_cost_is_one_pool() {
        let cfg15 = HypervisorConfig::new(15, 1);
        let cfg16 = HypervisorConfig::new(16, 1);
        let delta_luts = cfg16.group_cost().luts - cfg15.group_cost().luts;
        // One extra pool plus one G-Sched tree node plus mux growth.
        let expected =
            cfg16.io_pool_cost().luts + (cfg16.gsched_cost().luts - cfg15.gsched_cost().luts);
        assert_eq!(delta_luts, expected);
    }

    #[test]
    fn pool_depth_raises_queue_cost_only() {
        let shallow = HypervisorConfig {
            pool_depth: 2,
            ..HypervisorConfig::new(8, 1)
        };
        let deep = HypervisorConfig {
            pool_depth: 16,
            ..HypervisorConfig::new(8, 1)
        };
        assert!(deep.io_pool_cost().luts > shallow.io_pool_cost().luts);
        assert_eq!(deep.gsched_cost(), shallow.gsched_cost());
        assert_eq!(deep.pchannel_cost(), shallow.pchannel_cost());
    }

    #[test]
    fn no_dsp_anywhere() {
        // The design is comparator/queue logic only — DSP slices stay zero
        // for any configuration, matching Table I.
        for vms in [1, 2, 8, 32, 64] {
            for ios in [1, 2, 4] {
                assert_eq!(HypervisorConfig::new(vms, ios).cost().dsp, 0);
            }
        }
    }
}
