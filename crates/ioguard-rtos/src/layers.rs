//! The software layer catalogue.
//!
//! Per-layer cycle costs are calibrated for a 100 MHz MicroBlaze running
//! FreeRTOS v10.4 (the paper's platform): a syscall-ish kernel entry is a
//! few hundred cycles, a Xen-style trap is ~1–2 k cycles, and payload
//! copies cost ~1 cycle per byte through the single-issue core.

/// One software layer an I/O request traverses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoftwareLayer {
    /// Layer name.
    pub name: &'static str,
    /// Fixed entry + exit cost in processor cycles.
    pub fixed_cycles: u64,
    /// True when the layer copies the payload (adds per-byte cost).
    pub copies_payload: bool,
}

impl SoftwareLayer {
    /// Cycles per payload byte for a copy through the core.
    pub const CYCLES_PER_BYTE: u64 = 1;

    /// Total cycles this layer contributes for a `payload` bytes operation.
    pub fn cycles(&self, payload: u32) -> u64 {
        self.fixed_cycles
            + if self.copies_payload {
                Self::CYCLES_PER_BYTE * payload as u64
            } else {
                0
            }
    }
}

/// The user application issuing the request (argument marshalling).
pub const APPLICATION: SoftwareLayer = SoftwareLayer {
    name: "application",
    fixed_cycles: 40,
    copies_payload: false,
};

/// FreeRTOS kernel entry + I/O manager queueing (legacy path).
pub const KERNEL_IO_MANAGER: SoftwareLayer = SoftwareLayer {
    name: "kernel i/o manager",
    fixed_cycles: 650,
    copies_payload: true,
};

/// A full low-level device driver in software (legacy + RT-Xen backend).
pub const LOW_LEVEL_DRIVER: SoftwareLayer = SoftwareLayer {
    name: "low-level driver",
    fixed_cycles: 420,
    copies_payload: true,
};

/// Para-virtual front-end driver (RT-Xen guest side).
pub const FRONTEND_DRIVER: SoftwareLayer = SoftwareLayer {
    name: "front-end driver",
    fixed_cycles: 380,
    copies_payload: true,
};

/// The "trap into VMM" mode switch (hypercall + context save/restore).
pub const VMM_TRAP: SoftwareLayer = SoftwareLayer {
    name: "trap into VMM",
    fixed_cycles: 1400,
    copies_payload: false,
};

/// The VMM's I/O scheduling and routing decision.
pub const VMM_SCHEDULER: SoftwareLayer = SoftwareLayer {
    name: "VMM i/o scheduler",
    fixed_cycles: 900,
    copies_payload: false,
};

/// Back-end driver in the driver domain (RT-Xen).
pub const BACKEND_DRIVER: SoftwareLayer = SoftwareLayer {
    name: "back-end driver",
    fixed_cycles: 520,
    copies_payload: true,
};

/// BlueVisor's thin software shim (most work is in its coprocessor).
pub const BV_SHIM: SoftwareLayer = SoftwareLayer {
    name: "BlueVisor shim",
    fixed_cycles: 260,
    copies_payload: false,
};

/// I/O-GUARD's high-level I/O driver: "the implementation of I/O drivers
/// is straightforward, as they only forward the I/O requests to the
/// hypervisor" (Sec. II-A). No kernel involvement, no payload copy — the
/// hypervisor reads the request buffer directly.
pub const IOGUARD_FORWARDER: SoftwareLayer = SoftwareLayer {
    name: "i/o-guard driver (forward)",
    fixed_cycles: 90,
    copies_payload: false,
};

#[cfg(test)]
mod tests {
    use super::*;

    // The asserted relations are between consts on purpose: the test
    // documents the calibration ordering and fails loudly if it drifts.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn fixed_costs_reflect_layer_weight() {
        // The trap is the single most expensive software step.
        for layer in [
            APPLICATION,
            KERNEL_IO_MANAGER,
            LOW_LEVEL_DRIVER,
            FRONTEND_DRIVER,
            VMM_SCHEDULER,
            BACKEND_DRIVER,
            BV_SHIM,
            IOGUARD_FORWARDER,
        ] {
            assert!(VMM_TRAP.fixed_cycles > layer.fixed_cycles, "{}", layer.name);
        }
        // The forwarder is the cheapest non-application layer.
        assert!(IOGUARD_FORWARDER.fixed_cycles < BV_SHIM.fixed_cycles);
    }

    #[test]
    fn payload_copies_scale_linearly() {
        let base = KERNEL_IO_MANAGER.cycles(0);
        assert_eq!(KERNEL_IO_MANAGER.cycles(256), base + 256);
        assert_eq!(KERNEL_IO_MANAGER.cycles(1024), base + 1024);
        // Non-copying layers are payload-independent.
        assert_eq!(VMM_TRAP.cycles(0), VMM_TRAP.cycles(4096));
        assert_eq!(IOGUARD_FORWARDER.cycles(0), IOGUARD_FORWARDER.cycles(4096));
    }
}
