//! Run-time software memory footprint (Fig. 6).
//!
//! The paper measures BSS + data + text of the hypervisor, the OS kernel
//! and the I/O drivers for all four systems. Our numbers come from a
//! component inventory calibrated to the figures quoted in the text:
//! RT-Xen's hypervisor + kernel modifications add 61 KB (+129.8%) over the
//! legacy kernel; hardware assistance shrinks that; I/O-GUARD eliminates
//! the software VMM entirely and reduces the drivers to thin forwarders.

/// Link-map segments of one software component, in kilobytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Segments {
    /// Code (text) KB.
    pub text: u64,
    /// Initialized data KB.
    pub data: u64,
    /// Zero-initialized (BSS) KB.
    pub bss: u64,
}

impl Segments {
    /// Creates a segment triple.
    pub const fn new(text: u64, data: u64, bss: u64) -> Self {
        Self { text, data, bss }
    }

    /// Total footprint in KB.
    pub const fn total(&self) -> u64 {
        self.text + self.data + self.bss
    }

    /// An absent component (e.g. the VMM in I/O-GUARD).
    pub const ZERO: Self = Self::new(0, 0, 0);
}

/// The four evaluated systems, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// BS|Legacy — NoC system without virtualization.
    Legacy,
    /// BS|RT-XEN — Xen with real-time patches and I/O enhancement.
    RtXen,
    /// BS|BV — BlueVisor hardware-assisted virtualization.
    BlueVisor,
    /// The proposed system.
    IoGuard,
}

impl SystemKind {
    /// All four systems in presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Legacy,
        SystemKind::RtXen,
        SystemKind::BlueVisor,
        SystemKind::IoGuard,
    ];

    /// Display label matching the paper.
    pub const fn label(self) -> &'static str {
        match self {
            SystemKind::Legacy => "BS|Legacy",
            SystemKind::RtXen => "BS|RT-XEN",
            SystemKind::BlueVisor => "BS|BV",
            SystemKind::IoGuard => "I/O-GUARD",
        }
    }
}

/// I/O driver classes evaluated in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// SPI bus driver.
    Spi,
    /// I²C bus driver.
    I2c,
    /// Ethernet MAC driver.
    Ethernet,
    /// FlexRay controller driver.
    FlexRay,
}

impl DriverKind {
    /// All evaluated drivers.
    pub const ALL: [DriverKind; 4] = [
        DriverKind::Spi,
        DriverKind::I2c,
        DriverKind::Ethernet,
        DriverKind::FlexRay,
    ];
}

/// Footprint inventory of one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemFootprint {
    /// Which system.
    pub system: SystemKind,
    /// Software hypervisor / VMM segments (zero when virtualization is in
    /// hardware or absent).
    pub vmm: Segments,
    /// OS kernel segments (FreeRTOS-based, fully featured, no I/O drivers).
    pub kernel: Segments,
    /// Per-driver segments.
    pub drivers: Vec<(DriverKind, Segments)>,
}

impl SystemFootprint {
    /// Kernel + VMM footprint (the quantity the +129.8% claim refers to).
    pub fn system_software_total(&self) -> u64 {
        self.vmm.total() + self.kernel.total()
    }

    /// Footprint of one driver.
    pub fn driver_total(&self, kind: DriverKind) -> u64 {
        self.drivers
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s.total())
            .unwrap_or(0)
    }

    /// Everything: VMM + kernel + all drivers.
    pub fn grand_total(&self) -> u64 {
        self.system_software_total() + self.drivers.iter().map(|(_, s)| s.total()).sum::<u64>()
    }
}

/// The footprint inventory of `system` (Fig. 6 input data).
pub fn footprint(system: SystemKind) -> SystemFootprint {
    use DriverKind::*;
    let (vmm, kernel, drivers) = match system {
        // Fully-featured FreeRTOS kernel, no virtualization layer.
        SystemKind::Legacy => (
            Segments::ZERO,
            Segments::new(30, 8, 9), // 47 KB
            vec![
                (Spi, Segments::new(3, 1, 1)),       // 5 KB
                (I2c, Segments::new(4, 1, 1)),       // 6 KB
                (Ethernet, Segments::new(12, 3, 3)), // 18 KB
                (FlexRay, Segments::new(8, 2, 2)),   // 12 KB
            ],
        ),
        // Xen + RT patches: a software hypervisor plus a para-virtualized
        // kernel; split front/back drivers roughly double each driver.
        SystemKind::RtXen => (
            Segments::new(25, 6, 7),   // 38 KB VMM
            Segments::new(43, 13, 14), // 70 KB modified kernel
            vec![
                (Spi, Segments::new(6, 2, 1)),       // 9 KB
                (I2c, Segments::new(7, 2, 2)),       // 11 KB
                (Ethernet, Segments::new(20, 5, 5)), // 30 KB
                (FlexRay, Segments::new(14, 4, 3)),  // 21 KB
            ],
        ),
        // BlueVisor: I/O virtualization in hardware, but a thin software VMM
        // still multiplexes the cores; kernel unmodified.
        SystemKind::BlueVisor => (
            Segments::new(6, 2, 2),  // 10 KB VMM
            Segments::new(30, 8, 9), // 47 KB
            vec![
                (Spi, Segments::new(3, 1, 0)),      // 4 KB
                (I2c, Segments::new(3, 1, 1)),      // 5 KB
                (Ethernet, Segments::new(8, 2, 2)), // 12 KB
                (FlexRay, Segments::new(5, 2, 1)),  // 8 KB
            ],
        ),
        // I/O-GUARD: no software VMM at all (bare-metal RTOS with full
        // privileges); kernel loses its I/O manager; drivers only forward
        // requests to the hypervisor.
        SystemKind::IoGuard => (
            Segments::ZERO,
            Segments::new(28, 7, 8), // 43 KB simplified kernel
            vec![
                (Spi, Segments::new(1, 0, 0)),      // 1 KB
                (I2c, Segments::new(1, 0, 0)),      // 1 KB
                (Ethernet, Segments::new(1, 1, 0)), // 2 KB
                (FlexRay, Segments::new(1, 1, 0)),  // 2 KB
            ],
        ),
    };
    SystemFootprint {
        system,
        vmm,
        kernel,
        drivers,
    }
}

/// Regenerates the Fig. 6 data set: one inventory per system.
pub fn fig6() -> Vec<SystemFootprint> {
    SystemKind::ALL.into_iter().map(footprint).collect()
}

/// Renders Fig. 6 as an aligned text table (KB).
pub fn render_fig6() -> String {
    let mut out = String::from("              VMM  Kernel  SPI  I2C  Ethernet  FlexRay  Total\n");
    for fp in fig6() {
        out.push_str(&format!(
            "{:<12}  {:>3}  {:>6}  {:>3}  {:>3}  {:>8}  {:>7}  {:>5}\n",
            fp.system.label(),
            fp.vmm.total(),
            fp.kernel.total(),
            fp.driver_total(DriverKind::Spi),
            fp.driver_total(DriverKind::I2c),
            fp.driver_total(DriverKind::Ethernet),
            fp.driver_total(DriverKind::FlexRay),
            fp.grand_total(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_total() {
        assert_eq!(Segments::new(10, 3, 4).total(), 17);
        assert_eq!(Segments::ZERO.total(), 0);
    }

    #[test]
    fn rtxen_overhead_is_61kb_and_129_8_pct() {
        // The exact numbers quoted in Sec. V-A.
        let legacy = footprint(SystemKind::Legacy).system_software_total();
        let rtxen = footprint(SystemKind::RtXen).system_software_total();
        let extra = rtxen - legacy;
        assert_eq!(extra, 61, "RT-Xen adds 61 KB");
        let pct = extra as f64 / legacy as f64 * 100.0;
        assert!((pct - 129.8).abs() < 0.5, "overhead {pct:.1}%");
    }

    #[test]
    fn ioguard_eliminates_the_vmm() {
        assert_eq!(footprint(SystemKind::IoGuard).vmm.total(), 0);
        assert!(footprint(SystemKind::BlueVisor).vmm.total() > 0);
        assert!(footprint(SystemKind::RtXen).vmm.total() > 0);
    }

    #[test]
    fn system_software_ordering_matches_obs1() {
        // I/O-GUARD < Legacy ≈ BV (sans VMM) < BV < RT-Xen.
        let total = |s| footprint(s).system_software_total();
        assert!(total(SystemKind::IoGuard) < total(SystemKind::Legacy));
        assert!(total(SystemKind::Legacy) < total(SystemKind::BlueVisor));
        assert!(total(SystemKind::BlueVisor) < total(SystemKind::RtXen));
    }

    #[test]
    fn driver_ordering_rtxen_worst_ioguard_best() {
        for kind in DriverKind::ALL {
            let d = |s: SystemKind| footprint(s).driver_total(kind);
            assert!(
                d(SystemKind::RtXen) > d(SystemKind::Legacy),
                "{kind:?}: RT-Xen always sustains the most significant overhead"
            );
            assert!(
                d(SystemKind::IoGuard) < d(SystemKind::BlueVisor),
                "{kind:?}: I/O-GUARD integrates low-level drivers into hardware"
            );
            assert!(
                d(SystemKind::BlueVisor) <= d(SystemKind::Legacy),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn driver_complexity_determines_footprint() {
        // Ethernet is the most complex driver in every system.
        for system in SystemKind::ALL {
            let fp = footprint(system);
            let eth = fp.driver_total(DriverKind::Ethernet);
            for kind in [DriverKind::Spi, DriverKind::I2c, DriverKind::FlexRay] {
                assert!(eth >= fp.driver_total(kind), "{system:?} {kind:?}");
            }
        }
    }

    #[test]
    fn grand_total_sums_components() {
        let fp = footprint(SystemKind::Legacy);
        assert_eq!(fp.grand_total(), 47 + 5 + 6 + 18 + 12);
        assert_eq!(fp.driver_total(DriverKind::Spi), 5);
    }

    #[test]
    fn render_lists_all_systems() {
        let s = render_fig6();
        for sys in SystemKind::ALL {
            assert!(s.contains(sys.label()));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SystemKind::IoGuard.label(), "I/O-GUARD");
    }
}
