//! Critical-path / maximum-frequency model (Fig. 8(c)).
//!
//! The hypervisor's longest combinational path is the pipelined G-Sched
//! comparator tree; the legacy system's is the router's 5-port arbitration
//! plus crossbar traversal. Both paths gain a small wire-delay term as the
//! design scales (placement spreads with η). Constants are calibrated so
//! the absolute frequencies sit in the range of VC709 soft logic and the
//! hypervisor clears the legacy routers at every η — the paper's Obs. 6.

/// Frequency in MHz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct MegaHertz(pub f64);

/// The hypervisor's maximum frequency at scaling factor η (#VMs = 2^η).
///
/// The G-Sched tree is pipelined every two comparator levels, so the logic
/// depth is constant; only wire delay grows with η.
pub fn hypervisor_fmax(eta: u32) -> MegaHertz {
    const PIPELINED_LOGIC_NS: f64 = 3.3;
    const WIRE_NS_PER_ETA: f64 = 0.12;
    MegaHertz(1000.0 / (PIPELINED_LOGIC_NS + WIRE_NS_PER_ETA * eta as f64))
}

/// The legacy system's router maximum frequency at scaling factor η.
///
/// A 5-port round-robin arbiter plus crossbar is a deeper single-cycle path
/// than the pipelined comparator tree, so the legacy fabric clocks lower.
pub fn legacy_fmax(eta: u32) -> MegaHertz {
    const ROUTER_LOGIC_NS: f64 = 5.9;
    const WIRE_NS_PER_ETA: f64 = 0.15;
    MegaHertz(1000.0 / (ROUTER_LOGIC_NS + WIRE_NS_PER_ETA * eta as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs6_hypervisor_clears_legacy_at_every_eta() {
        for eta in 0..=6 {
            let h = hypervisor_fmax(eta);
            let l = legacy_fmax(eta);
            assert!(
                h.0 > l.0,
                "η = {eta}: hypervisor {:.1} MHz must exceed legacy {:.1} MHz",
                h.0,
                l.0
            );
        }
    }

    #[test]
    fn both_exceed_the_100mhz_platform_clock() {
        for eta in 0..=6 {
            assert!(hypervisor_fmax(eta).0 > 100.0);
            assert!(legacy_fmax(eta).0 > 100.0);
        }
    }

    #[test]
    fn fmax_decreases_monotonically_with_eta() {
        for eta in 0..6 {
            assert!(hypervisor_fmax(eta + 1).0 < hypervisor_fmax(eta).0);
            assert!(legacy_fmax(eta + 1).0 < legacy_fmax(eta).0);
        }
    }

    #[test]
    fn frequencies_in_plausible_fpga_range() {
        // Soft logic on a Virtex-7 at these block sizes: 100–350 MHz.
        for eta in 0..=6 {
            let h = hypervisor_fmax(eta).0;
            let l = legacy_fmax(eta).0;
            assert!((100.0..=350.0).contains(&h), "h = {h}");
            assert!((100.0..=350.0).contains(&l), "l = {l}");
        }
    }
}
