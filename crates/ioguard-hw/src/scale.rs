//! Area and power scaling with the VM-count factor η (Fig. 8(a,b)).
//!
//! The scalability experiment re-implements the platform with `2^η` basic
//! MicroBlaze cores (one VM per core, as in BS|Legacy) and, for I/O-GUARD,
//! adds the hypervisor configured for `2^η` VMs. Area is normalized by the
//! overall area of the experimental platform (the VC709's XC7VX690T).

use crate::blocks::HypervisorConfig;
use crate::fmax::{hypervisor_fmax, legacy_fmax, MegaHertz};
use crate::primitives::ResourceCost;

/// A *basic* MicroBlaze (no cache, 3-stage pipeline) — the per-core cost of
/// the scalability platform; smaller than the full-featured Table I core.
pub const MICROBLAZE_BASIC: ResourceCost = ResourceCost {
    luts: 2100,
    registers: 1900,
    dsp: 0,
    bram_kb: 64,
    power_mw: 0,
};

/// One mesh router of the platform NoC.
pub const ROUTER: ResourceCost = ResourceCost {
    luts: 520,
    registers: 610,
    dsp: 0,
    bram_kb: 0,
    power_mw: 0,
};

/// Total LUTs of the experimental platform (XC7VX690T), used as the
/// normalization denominator of Fig. 8(a).
pub const PLATFORM_LUTS: u64 = 433_200;

/// One point of the Fig. 8 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Scaling factor (VM count = 2^η).
    pub eta: u32,
    /// Normalized area (fraction of the platform's LUTs).
    pub legacy_area: f64,
    /// Normalized area including the hypervisor.
    pub ioguard_area: f64,
    /// Legacy power (mW).
    pub legacy_power_mw: u64,
    /// I/O-GUARD power (mW).
    pub ioguard_power_mw: u64,
    /// Legacy router fmax.
    pub legacy_fmax: MegaHertz,
    /// Hypervisor fmax.
    pub ioguard_fmax: MegaHertz,
}

/// Base platform (cores + routers + NoC glue) at scaling factor η.
///
/// One core per VM; the mesh is the smallest rectangle holding the cores
/// plus the memory/I/O nodes (mirroring the 5×5 mesh for 16 cores).
pub fn legacy_platform_cost(eta: u32) -> ResourceCost {
    let cores = 1u64 << eta;
    // Mesh sizing: 16 cores → 25 routers in the paper; keep the same +56%
    // router-to-core allowance for memory/I/O nodes.
    let routers = cores + cores.div_ceil(2) + 1;
    (MICROBLAZE_BASIC * cores + ROUTER * routers).with_power()
}

/// Full I/O-GUARD platform at scaling factor η: the legacy platform plus a
/// hypervisor sized for `2^η` VMs and 2 I/Os.
pub fn ioguard_platform_cost(eta: u32) -> ResourceCost {
    let legacy = legacy_platform_cost(eta);
    let hyp = HypervisorConfig::new(1 << eta, 2).cost();
    // Re-run the power model on the summed resources (power does not simply
    // add across blocks because the static term is per-die).
    ResourceCost {
        power_mw: 0,
        ..legacy + hyp
    }
    .with_power()
}

/// Computes the full Fig. 8 sweep for `eta_range` (inclusive).
pub fn fig8_sweep(eta_max: u32) -> Vec<ScalePoint> {
    (0..=eta_max)
        .map(|eta| {
            let legacy = legacy_platform_cost(eta);
            let ioguard = ioguard_platform_cost(eta);
            ScalePoint {
                eta,
                legacy_area: legacy.luts as f64 / PLATFORM_LUTS as f64,
                ioguard_area: ioguard.luts as f64 / PLATFORM_LUTS as f64,
                legacy_power_mw: legacy.power_mw,
                ioguard_power_mw: ioguard.power_mw,
                legacy_fmax: legacy_fmax(eta),
                ioguard_fmax: hypervisor_fmax(eta),
            }
        })
        .collect()
}

/// Renders the Fig. 8 sweep as an aligned text table.
pub fn render_fig8(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "η   VMs  area(legacy)  area(ioguard)  Δarea   P(legacy)mW  P(ioguard)mW  f(legacy)MHz  f(ioguard)MHz\n",
    );
    for p in points {
        let delta = (p.ioguard_area - p.legacy_area) / p.legacy_area * 100.0;
        out.push_str(&format!(
            "{:<3} {:>4}  {:>11.4}  {:>12.4}  {:>5.1}%  {:>11}  {:>12}  {:>12.1}  {:>13.1}\n",
            p.eta,
            1u64 << p.eta,
            p.legacy_area,
            p.ioguard_area,
            delta,
            p.legacy_power_mw,
            p.ioguard_power_mw,
            p.legacy_fmax.0,
            p.ioguard_fmax.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs5_area_grows_with_eta_and_margin_below_20pct() {
        let points = fig8_sweep(4);
        for w in points.windows(2) {
            assert!(w[1].legacy_area > w[0].legacy_area);
            assert!(w[1].ioguard_area > w[0].ioguard_area);
        }
        // The paper's examined cases start at 2 VMs (η ≥ 1): a one-VM
        // "platform" is a single core, where any fixed-cost hypervisor
        // dominates trivially.
        for p in points.iter().filter(|p| p.eta >= 1) {
            assert!(p.ioguard_area > p.legacy_area);
            let margin = (p.ioguard_area - p.legacy_area) / p.legacy_area;
            assert!(
                margin < 0.20,
                "η = {}: margin {:.1}% exceeds the paper's 20% bound",
                p.eta,
                margin * 100.0
            );
        }
    }

    #[test]
    fn obs5_power_scales_linearly() {
        // Doubling the cores should roughly double the dynamic power; check
        // the ratio of increments stays near 2 in the core-dominated regime.
        let points = fig8_sweep(5);
        for w in points.windows(2) {
            assert!(w[1].legacy_power_mw > w[0].legacy_power_mw);
            assert!(w[1].ioguard_power_mw > w[0].ioguard_power_mw);
        }
        let p3 = points[3].legacy_power_mw as f64;
        let p4 = points[4].legacy_power_mw as f64;
        let p5 = points[5].legacy_power_mw as f64;
        let r1 = p4 / p3;
        let r2 = p5 / p4;
        assert!((1.7..=2.2).contains(&r1), "ratio {r1}");
        assert!((1.7..=2.2).contains(&r2), "ratio {r2}");
    }

    #[test]
    fn obs6_hypervisor_fmax_always_above_legacy() {
        for p in fig8_sweep(6) {
            assert!(p.ioguard_fmax.0 > p.legacy_fmax.0, "η = {}", p.eta);
        }
    }

    #[test]
    fn paper_config_area_fraction_is_plausible() {
        // 16 cores + hypervisor must fit comfortably on the XC7VX690T.
        let p = &fig8_sweep(4)[4];
        assert!(p.ioguard_area < 0.5, "area fraction {}", p.ioguard_area);
        assert!(p.ioguard_area > 0.05);
    }

    #[test]
    fn render_has_header_and_rows() {
        let s = render_fig8(&fig8_sweep(3));
        assert!(s.lines().count() == 5);
        assert!(s.contains("Δarea"));
    }

    #[test]
    fn hypervisor_share_shrinks_relative_as_platform_grows() {
        // The hypervisor is (sub-)linear in η while cores are exponential,
        // so the relative overhead falls — consistent with Fig. 8(a)'s
        // narrowing gap.
        let points = fig8_sweep(5);
        let margin = |p: &ScalePoint| (p.ioguard_area - p.legacy_area) / p.legacy_area;
        assert!(margin(&points[5]) < margin(&points[1]));
    }
}
