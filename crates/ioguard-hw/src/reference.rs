//! Published Table I comparator rows and the Table I report.
//!
//! MicroBlaze, the out-of-order RISC-V, the Xilinx SPI/Ethernet IPs and
//! BlueVisor's BlueIO are *external designs*: their resource numbers are the
//! paper's published synthesis results, carried here as constants so the
//! regenerated Table I compares our composed hypervisor against the same
//! yardsticks.

use crate::blocks::HypervisorConfig;
use crate::primitives::ResourceCost;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Design name as printed in the paper.
    pub name: &'static str,
    /// Resource vector (power included).
    pub cost: ResourceCost,
    /// True for rows quoted from the paper (vs. computed by our model).
    pub published: bool,
}

/// MicroBlaze, full-featured (pipeline, data cache).
pub const MICROBLAZE: ResourceCost = ResourceCost {
    luts: 4908,
    registers: 4385,
    dsp: 6,
    bram_kb: 256,
    power_mw: 359,
};

/// Out-of-order RISC-V soft processor (Mashimo et al., ICFPT'19).
pub const RISCV_OOO: ResourceCost = ResourceCost {
    luts: 7432,
    registers: 16321,
    dsp: 21,
    bram_kb: 512,
    power_mw: 583,
};

/// Xilinx SPI controller IP.
pub const SPI: ResourceCost = ResourceCost {
    luts: 632,
    registers: 427,
    dsp: 0,
    bram_kb: 0,
    power_mw: 4,
};

/// Xilinx (tri-mode) Ethernet controller IP.
pub const ETHERNET: ResourceCost = ResourceCost {
    luts: 1321,
    registers: 793,
    dsp: 0,
    bram_kb: 0,
    power_mw: 7,
};

/// BlueVisor's BlueIO hardware I/O stack (Jiang & Audsley, RTAS'18).
pub const BLUEIO: ResourceCost = ResourceCost {
    luts: 3236,
    registers: 3346,
    dsp: 0,
    bram_kb: 256,
    power_mw: 297,
};

/// Regenerates Table I: the five published rows plus the "Proposed" row
/// computed from the block composition model at the paper's configuration.
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            name: "MicroBlaze",
            cost: MICROBLAZE,
            published: true,
        },
        Table1Row {
            name: "RISC-V",
            cost: RISCV_OOO,
            published: true,
        },
        Table1Row {
            name: "SPI",
            cost: SPI,
            published: true,
        },
        Table1Row {
            name: "Ethernet",
            cost: ETHERNET,
            published: true,
        },
        Table1Row {
            name: "BlueIO",
            cost: BLUEIO,
            published: true,
        },
        Table1Row {
            name: "Proposed",
            cost: HypervisorConfig::paper_table1().cost(),
            published: false,
        },
    ]
}

/// Renders Table I as an aligned text table (`ioguard-repro table1` prints this).
pub fn render_table1() -> String {
    let mut out = String::from("                LUTs  Registers  DSP  RAM (KB)  Power (mW)\n");
    for row in table1() {
        out.push_str(&format!(
            "{:<12}  {:>6}  {:>9}  {:>3}  {:>8}  {:>10}\n",
            row.name,
            row.cost.luts,
            row.cost.registers,
            row.cost.dsp,
            row.cost.bram_kb,
            row.cost.power_mw,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows_in_paper_order() {
        let t = table1();
        let names: Vec<&str> = t.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "MicroBlaze",
                "RISC-V",
                "SPI",
                "Ethernet",
                "BlueIO",
                "Proposed"
            ]
        );
        assert!(t[..5].iter().all(|r| r.published));
        assert!(!t[5].published);
    }

    #[test]
    fn obs2_proposed_beats_processors() {
        // Obs. 2: the hypervisor needs significantly less hardware than the
        // full-featured processors …
        let t = table1();
        let proposed = &t[5].cost;
        assert!(proposed.luts < MICROBLAZE.luts);
        assert!(proposed.registers < MICROBLAZE.registers);
        assert!(proposed.power_mw < MICROBLAZE.power_mw);
        assert!(proposed.luts < RISCV_OOO.luts);
        assert!(proposed.registers < RISCV_OOO.registers);
        assert!(proposed.power_mw < RISCV_OOO.power_mw);
        // Paper's ratios: 56.6% LUTs, 67.8% regs, 77.7% power of MicroBlaze.
        let lut_ratio = proposed.luts as f64 / MICROBLAZE.luts as f64;
        assert!((lut_ratio - 0.566).abs() < 0.02, "lut ratio {lut_ratio:.3}");
        let reg_ratio = proposed.registers as f64 / MICROBLAZE.registers as f64;
        assert!((reg_ratio - 0.678).abs() < 0.02, "reg ratio {reg_ratio:.3}");
        let pow_ratio = proposed.power_mw as f64 / MICROBLAZE.power_mw as f64;
        assert!((pow_ratio - 0.777).abs() < 0.03, "pow ratio {pow_ratio:.3}");
    }

    #[test]
    fn obs2_proposed_above_io_controllers_but_below_blueio() {
        let t = table1();
        let proposed = &t[5].cost;
        // More hardware than bare SPI/Ethernet controllers…
        assert!(proposed.luts > SPI.luts);
        assert!(proposed.luts > ETHERNET.luts);
        // …but less than BlueVisor's BlueIO with equal memory.
        assert!(proposed.luts < BLUEIO.luts);
        assert!(proposed.registers < BLUEIO.registers);
        assert!(proposed.power_mw < BLUEIO.power_mw);
        assert_eq!(proposed.bram_kb, BLUEIO.bram_kb);
    }

    #[test]
    fn render_contains_all_rows() {
        let s = render_table1();
        for name in [
            "MicroBlaze",
            "RISC-V",
            "SPI",
            "Ethernet",
            "BlueIO",
            "Proposed",
        ] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
        assert!(s.contains("4908")); // MicroBlaze LUTs as published
    }
}
