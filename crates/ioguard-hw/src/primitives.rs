//! The FPGA resource vector and primitive block costs.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A synthesis-report-shaped resource vector: the five columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceCost {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flop registers.
    pub registers: u64,
    /// DSP slices.
    pub dsp: u64,
    /// Block RAM in kilobytes.
    pub bram_kb: u64,
    /// Estimated power in milliwatts (filled in by the power model; zero
    /// for raw primitive costs).
    pub power_mw: u64,
}

impl ResourceCost {
    /// A zero-cost vector.
    pub const ZERO: Self = Self {
        luts: 0,
        registers: 0,
        dsp: 0,
        bram_kb: 0,
        power_mw: 0,
    };

    /// Creates a logic-only cost (no memory, no DSP, no power annotation).
    pub const fn logic(luts: u64, registers: u64) -> Self {
        Self {
            luts,
            registers,
            dsp: 0,
            bram_kb: 0,
            power_mw: 0,
        }
    }

    /// Creates a memory-bank cost.
    pub const fn bram(kb: u64) -> Self {
        Self {
            luts: 0,
            registers: 0,
            dsp: 0,
            bram_kb: kb,
            power_mw: 0,
        }
    }

    /// Applies the calibrated VC709 power model and returns the completed
    /// vector. See [`power_model`] for the coefficients.
    pub fn with_power(mut self) -> Self {
        self.power_mw = power_model(&self);
        self
    }
}

impl Add for ResourceCost {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            luts: self.luts + rhs.luts,
            registers: self.registers + rhs.registers,
            dsp: self.dsp + rhs.dsp,
            bram_kb: self.bram_kb + rhs.bram_kb,
            power_mw: self.power_mw + rhs.power_mw,
        }
    }
}

impl AddAssign for ResourceCost {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for ResourceCost {
    type Output = Self;
    fn mul(self, n: u64) -> Self {
        Self {
            luts: self.luts * n,
            registers: self.registers * n,
            dsp: self.dsp * n,
            bram_kb: self.bram_kb * n,
            power_mw: self.power_mw * n,
        }
    }
}

impl Sum for ResourceCost {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

/// Calibrated VC709 power model (mW): static base plus per-resource dynamic
/// contributions at the platform's 100 MHz clock and simulated toggle rate.
///
/// Coefficients are fit to the published small-block rows of Table I (SPI,
/// Ethernet) for the logic terms and to the "Proposed" row for the BRAM
/// term; see `EXPERIMENTS.md` for the residuals.
pub fn power_model(cost: &ResourceCost) -> u64 {
    const STATIC_MW: f64 = 1.0;
    const MW_PER_LUT: f64 = 0.0038;
    const MW_PER_REG: f64 = 0.0024;
    const MW_PER_DSP: f64 = 2.0;
    const MW_PER_BRAM_KB: f64 = 0.99;
    (STATIC_MW
        + MW_PER_LUT * cost.luts as f64
        + MW_PER_REG * cost.registers as f64
        + MW_PER_DSP * cost.dsp as f64
        + MW_PER_BRAM_KB * cost.bram_kb as f64)
        .round() as u64
}

/// Primitive logic blocks the hypervisor is composed of, with costs
/// extracted from single-primitive synthesis runs of the BlueSpec library
/// (here: calibrated constants).
pub mod prim {
    use super::ResourceCost;

    /// A `width`-bit magnitude comparator (one L-Sched/G-Sched tree node).
    pub const fn comparator(width: u64) -> ResourceCost {
        ResourceCost::logic(width / 4, 2)
    }

    /// An `n`-to-1 multiplexer over `width`-bit values.
    pub const fn mux(n: u64, width: u64) -> ResourceCost {
        ResourceCost::logic(n * width / 8, 0)
    }

    /// A small finite-state machine with `states` states.
    pub const fn fsm(states: u64) -> ResourceCost {
        ResourceCost::logic(8 * states, 4 * states)
    }

    /// A BRAM bank of `kb` kilobytes plus its controller.
    pub const fn bank(kb: u64) -> ResourceCost {
        let ctrl = ResourceCost::logic(24, 18);
        let mem = ResourceCost::bram(kb);
        ResourceCost {
            luts: ctrl.luts + mem.luts,
            registers: ctrl.registers + mem.registers,
            dsp: 0,
            bram_kb: mem.bram_kb,
            power_mw: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = ResourceCost::logic(10, 20);
        let b = ResourceCost::bram(4);
        let s = a + b;
        assert_eq!(s.luts, 10);
        assert_eq!(s.registers, 20);
        assert_eq!(s.bram_kb, 4);
        let d = s * 3;
        assert_eq!(d.luts, 30);
        assert_eq!(d.bram_kb, 12);
        let mut acc = ResourceCost::ZERO;
        acc += a;
        acc += a;
        assert_eq!(acc.luts, 20);
        let total: ResourceCost = [a, b, a].into_iter().sum();
        assert_eq!(total.luts, 20);
        assert_eq!(total.bram_kb, 4);
    }

    #[test]
    fn power_model_matches_small_blocks() {
        // SPI row: 632 LUTs, 427 regs, no memory → ~4 mW.
        let spi = ResourceCost::logic(632, 427).with_power();
        assert!((3..=6).contains(&spi.power_mw), "spi = {} mW", spi.power_mw);
        // Ethernet row: 1321 LUTs, 793 regs → ~7 mW.
        let eth = ResourceCost::logic(1321, 793).with_power();
        assert!((6..=9).contains(&eth.power_mw), "eth = {} mW", eth.power_mw);
    }

    #[test]
    fn power_is_monotone_in_resources() {
        let small = ResourceCost::logic(100, 100).with_power();
        let big = ResourceCost::logic(1000, 1000).with_power();
        assert!(big.power_mw > small.power_mw);
        let with_mem = (ResourceCost::logic(100, 100) + ResourceCost::bram(64)).with_power();
        assert!(with_mem.power_mw > small.power_mw);
    }

    #[test]
    fn primitive_costs_scale_with_width() {
        assert!(prim::comparator(64).luts > prim::comparator(16).luts);
        assert!(prim::mux(8, 32).luts > prim::mux(2, 32).luts);
        assert!(prim::fsm(8).luts > prim::fsm(2).luts);
        let bank = prim::bank(128);
        assert_eq!(bank.bram_kb, 128);
        assert!(bank.luts > 0, "bank controller costs logic");
    }

    #[test]
    fn zero_cost_is_identity() {
        let a = ResourceCost::logic(5, 7);
        assert_eq!(a + ResourceCost::ZERO, a);
        assert_eq!(ResourceCost::default(), ResourceCost::ZERO);
    }
}
