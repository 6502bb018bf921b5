//! Integration checks that every published table/figure regenerates with
//! the paper's qualitative shape (small trial counts — `ioguard-repro`
//! runs the full versions), plus the preload ablation's ordering.

use ioguard_core::casestudy::{CaseStudyConfig, CaseStudyPoint, Fig7Report, SystemUnderTest};
use ioguard_core::experiments::{fig6_report, fig8_report, preload_ablation, table1_report};
use ioguard_hw::blocks::HypervisorConfig;
use ioguard_hw::reference;
use ioguard_hw::scale::fig8_sweep;

#[test]
fn table1_proposed_row_lands_on_paper_values() {
    let c = HypervisorConfig::paper_table1().cost();
    assert!(
        (c.luts as f64 - 2777.0).abs() / 2777.0 < 0.02,
        "LUTs {}",
        c.luts
    );
    assert!(
        (c.registers as f64 - 2974.0).abs() / 2974.0 < 0.02,
        "registers {}",
        c.registers
    );
    assert_eq!(c.dsp, 0);
    assert_eq!(c.bram_kb, 256);
    assert!(
        (c.power_mw as f64 - 279.0).abs() / 279.0 < 0.03,
        "power {}",
        c.power_mw
    );
    // Orderings of Obs. 2.
    assert!(c.luts < reference::BLUEIO.luts);
    assert!(c.luts < reference::MICROBLAZE.luts);
    assert!(c.luts > reference::ETHERNET.luts);
}

#[test]
fn fig6_shape_holds() {
    let report = fig6_report();
    assert!(report.contains("BS|RT-XEN"));
    // The report must show I/O-GUARD with the smallest totals.
    use ioguard_hw::footprint::{footprint, SystemKind};
    let grand = |s| footprint(s).grand_total();
    assert!(grand(SystemKind::IoGuard) < grand(SystemKind::BlueVisor));
    assert!(grand(SystemKind::BlueVisor) < grand(SystemKind::Legacy));
    assert!(grand(SystemKind::Legacy) < grand(SystemKind::RtXen));
}

#[test]
fn fig8_shape_holds() {
    let report = fig8_report(5);
    assert!(report.lines().count() >= 6);
    for p in fig8_sweep(5).iter().filter(|p| p.eta >= 1) {
        assert!(p.ioguard_area > p.legacy_area);
        assert!((p.ioguard_area - p.legacy_area) / p.legacy_area < 0.20);
        assert!(p.ioguard_fmax.0 > p.legacy_fmax.0);
        assert!(p.ioguard_power_mw > p.legacy_power_mw);
    }
}

/// Fig. 7's qualitative claims at a load point where the systems separate:
/// the I/O-GUARD configurations dominate every baseline (Obs. 3).
#[test]
fn fig7_obs3_ioguard_dominates_at_high_load() {
    let point = |system| {
        CaseStudyPoint {
            system,
            vms: 4,
            target_utilization: 0.85,
            trials: 8,
            seed: 2021,
            horizon_slots: 16_000,
        }
        .run()
    };
    let iog70 = point(SystemUnderTest::IoGuard { preload_pct: 70 });
    let iog40 = point(SystemUnderTest::IoGuard { preload_pct: 40 });
    let bv = point(SystemUnderTest::BlueVisor);
    let xen = point(SystemUnderTest::RtXen);
    let legacy = point(SystemUnderTest::Legacy);

    assert!(iog70.success_ratio >= iog40.success_ratio);
    assert!(
        iog40.success_ratio > bv.success_ratio,
        "{iog40:?} vs {bv:?}"
    );
    assert!(bv.success_ratio >= xen.success_ratio, "{bv:?} vs {xen:?}");
    assert!(iog70.success_ratio >= legacy.success_ratio);
    // Throughput ordering: the proposed system transfers at least as much
    // on-time data as any baseline.
    for other in [&bv, &xen, &legacy] {
        assert!(
            iog70.throughput_mbps >= other.throughput_mbps * 0.98,
            "iog70 {iog70:?} vs {other:?}"
        );
    }
}

/// Fig. 7's Obs. 4: growing the VM group does not hurt I/O-GUARD, while at
/// least one baseline degrades.
#[test]
fn fig7_obs4_vm_scaling() {
    let run = |system, vms| {
        CaseStudyPoint {
            system,
            vms,
            target_utilization: 0.75,
            trials: 8,
            seed: 2021,
            horizon_slots: 16_000,
        }
        .run()
        .success_ratio
    };
    let iog_4 = run(SystemUnderTest::IoGuard { preload_pct: 70 }, 4);
    let iog_8 = run(SystemUnderTest::IoGuard { preload_pct: 70 }, 8);
    assert!(
        (iog_4 - iog_8).abs() < 0.15,
        "I/O-GUARD insensitive to VM count"
    );
    let xen_4 = run(SystemUnderTest::RtXen, 4);
    let xen_8 = run(SystemUnderTest::RtXen, 8);
    assert!(
        xen_8 <= xen_4,
        "RT-Xen degrades with more VMs: 4VM {xen_4} vs 8VM {xen_8}"
    );
}

/// Obs. 3's "more pre-loading introduces more benefits" at the saturation
/// edge: success never drops sharply as the preload fraction grows.
#[test]
fn preload_ablation_success_never_drops_sharply() {
    let sweep = preload_ablation();
    assert_eq!(sweep.len(), 7);
    for pair in sweep.windows(2) {
        let ((_, prev), (pct, next)) = (pair[0], pair[1]);
        assert!(
            next.success_ratio >= prev.success_ratio - 0.15,
            "preload {pct}%: success dropped sharply vs previous step ({sweep:?})"
        );
    }
}

#[test]
fn fig7_report_covers_requested_grid() {
    let config = CaseStudyConfig {
        vm_groups: vec![4],
        utilizations: vec![0.4, 0.9],
        trials: 3,
        seed: 1,
        horizon_slots: 8_000,
        systems: vec![
            SystemUnderTest::BlueVisor,
            SystemUnderTest::IoGuard { preload_pct: 70 },
        ],
    };
    let report = Fig7Report::run(&config);
    assert_eq!(report.cells.len(), 4);
    let rendered = format!("{report}");
    assert!(rendered.contains("4-VM group"));
    assert!(table1_report().contains("Proposed")); // cross-module smoke
}
