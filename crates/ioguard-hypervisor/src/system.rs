//! Multi-device hypervisor assembly.
//!
//! The evaluated hypervisor "contained 2 groups of virtualization managers
//! and virtualization drivers" (Sec. V-B) — one per connected I/O device.
//! [`MultiIoSystem`] assembles one [`Hypervisor`] channel pair per device
//! behind its [`IoController`], so callers submit *transfers in bytes* and
//! the driver model translates them into slot demands at the device's line
//! rate.
//!
//! # Example
//!
//! ```
//! use ioguard_hypervisor::driver::IoProtocol;
//! use ioguard_hypervisor::system::{IoDeviceConfig, MultiIoSystem, Transfer};
//!
//! let mut sys = MultiIoSystem::new(
//!     vec![
//!         IoDeviceConfig::new(IoProtocol::Ethernet, 2),
//!         IoDeviceConfig::new(IoProtocol::FlexRay, 2),
//!     ],
//!     50_000, // 50 µs slots
//! )?;
//! // A 1500-byte inbound frame on device 0 (Ethernet), due in 100 slots.
//! sys.submit(0, Transfer::new(0, 1, 1500, 100))?;
//! sys.run(100);
//! assert_eq!(sys.metrics(0).completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::driver::{IoController, IoProtocol};
use crate::error::{HvError, SubmitError};
use crate::hypervisor::{HvMetrics, Hypervisor, HypervisorParams, RtJob};
use crate::pchannel::PredefinedTask;

/// Configuration of one device channel group.
#[derive(Debug, Clone, PartialEq)]
pub struct IoDeviceConfig {
    /// The wire protocol this group's virtualization driver speaks.
    pub protocol: IoProtocol,
    /// Manager parameters (VM count, pools, policy, pre-defined tasks).
    pub params: HypervisorParams,
}

impl IoDeviceConfig {
    /// A default-policy group for `vms` VMs on `protocol`.
    pub fn new(protocol: IoProtocol, vms: usize) -> Self {
        Self {
            protocol,
            params: HypervisorParams::new(vms),
        }
    }

    /// Sets the group's pre-defined task load.
    pub fn with_predefined(mut self, predefined: Vec<PredefinedTask>) -> Self {
        self.params.predefined = predefined;
        self
    }
}

/// A run-time transfer request in *bytes* (the driver translates to slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Originating VM.
    pub vm: usize,
    /// Task identifier.
    pub task_id: u64,
    /// Payload bytes to move.
    pub bytes: u32,
    /// Relative deadline in slots.
    pub relative_deadline: u64,
}

impl Transfer {
    /// Creates a transfer.
    pub fn new(vm: usize, task_id: u64, bytes: u32, relative_deadline: u64) -> Self {
        Self {
            vm,
            task_id,
            bytes,
            relative_deadline,
        }
    }
}

/// The assembled multi-device hypervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiIoSystem {
    groups: Vec<(IoController, Hypervisor)>,
    slot_ns: u64,
}

impl MultiIoSystem {
    /// Builds one channel group per device config.
    ///
    /// # Errors
    ///
    /// Propagates [`HvError`] from any group's construction; returns
    /// [`HvError::InvalidConfig`] for an empty device list or zero slot
    /// length.
    pub fn new(devices: Vec<IoDeviceConfig>, slot_ns: u64) -> Result<Self, HvError> {
        if devices.is_empty() {
            return Err(HvError::InvalidConfig {
                reason: "at least one i/o device".into(),
            });
        }
        if slot_ns == 0 {
            return Err(HvError::InvalidConfig {
                reason: "slot length must be positive".into(),
            });
        }
        let mut groups = Vec::with_capacity(devices.len());
        for d in devices {
            groups.push((IoController::new(d.protocol), Hypervisor::new(d.params)?));
        }
        Ok(Self { groups, slot_ns })
    }

    /// Number of device groups.
    pub fn device_count(&self) -> usize {
        self.groups.len()
    }

    /// The controller of device `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn controller(&self, idx: usize) -> IoController {
        self.groups[idx].0 // lint: allow(indexing) — documented API contract (# Panics) on a bad device index
    }

    /// Metrics of device `idx`'s manager.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn metrics(&self, idx: usize) -> &HvMetrics {
        self.groups[idx].1.metrics() // lint: allow(indexing) — documented API contract (# Panics) on a bad device index
    }

    /// Total completed jobs across devices.
    pub fn total_completed(&self) -> u64 {
        self.groups
            .iter()
            .map(|(_, h)| h.metrics().completed + h.metrics().predefined_completed)
            .sum()
    }

    /// Total misses across devices.
    pub fn total_missed(&self) -> u64 {
        self.groups.iter().map(|(_, h)| h.metrics().missed).sum()
    }

    /// Submits a byte transfer on device `device`: the group's driver
    /// translates it into a slot demand at the device's line rate
    /// (translation + wire time, fragmented per protocol).
    ///
    /// # Errors
    ///
    /// * [`SubmitError::UnknownVm`] — no such device (reported as VM
    ///   range) or VM out of range within the group.
    /// * [`SubmitError::Refused`] — the group's hypervisor refused the job
    ///   (a full pool is counted as a miss).
    pub fn submit(&mut self, device: usize, transfer: Transfer) -> Result<(), SubmitError> {
        let groups = self.groups.len();
        let Some((controller, hv)) = self.groups.get_mut(device) else {
            return Err(SubmitError::UnknownVm {
                vm: device,
                vms: groups,
            });
        };
        let wcet = controller.service_slots(transfer.bytes, self.slot_ns);
        let now = hv.now();
        hv.submit_with_payload(
            RtJob::new(
                transfer.vm,
                transfer.task_id,
                now,
                wcet,
                now.saturating_add(transfer.relative_deadline),
            ),
            transfer.bytes,
        )
    }

    /// Advances every device group one slot (they share the global timer).
    pub fn step(&mut self) {
        for (_, hv) in &mut self.groups {
            hv.step();
        }
    }

    /// Runs `slots` slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_device_system() -> MultiIoSystem {
        MultiIoSystem::new(
            vec![
                IoDeviceConfig::new(IoProtocol::Ethernet, 2),
                IoDeviceConfig::new(IoProtocol::FlexRay, 2),
            ],
            50_000,
        )
        .expect("valid configuration")
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            MultiIoSystem::new(vec![], 50_000),
            Err(HvError::InvalidConfig { .. })
        ));
        assert!(matches!(
            MultiIoSystem::new(vec![IoDeviceConfig::new(IoProtocol::Spi, 1)], 0),
            Err(HvError::InvalidConfig { .. })
        ));
        let sys = two_device_system();
        assert_eq!(sys.device_count(), 2);
        assert_eq!(sys.controller(0).protocol(), IoProtocol::Ethernet);
        assert_eq!(sys.controller(1).protocol(), IoProtocol::FlexRay);
    }

    #[test]
    fn byte_transfers_are_priced_per_device() {
        let mut sys = two_device_system();
        // 1500 B: one slot on GbE, several on 10 Mbps FlexRay.
        sys.submit(0, Transfer::new(0, 1, 1500, 1_000)).unwrap();
        sys.submit(1, Transfer::new(0, 2, 1500, 1_000)).unwrap();
        sys.run(2);
        assert_eq!(sys.metrics(0).completed, 1, "GbE finishes in one slot");
        assert_eq!(sys.metrics(1).completed, 0, "FlexRay still transferring");
        sys.run(100);
        assert_eq!(sys.metrics(1).completed, 1);
        assert!(sys.metrics(1).latency.mean() > sys.metrics(0).latency.mean());
        assert_eq!(sys.total_completed(), 2);
        assert_eq!(sys.total_missed(), 0);
    }

    #[test]
    fn devices_are_independent_channels() {
        // Saturating FlexRay does not delay Ethernet traffic — separate
        // manager/driver groups (the paper's per-I/O partitioning).
        let mut sys = two_device_system();
        for i in 0..8 {
            sys.submit(1, Transfer::new(0, 100 + i, 254, 10_000))
                .unwrap();
        }
        sys.submit(0, Transfer::new(1, 1, 256, 4)).unwrap();
        sys.run(4);
        assert_eq!(sys.metrics(0).completed, 1, "Ethernet job unaffected");
        assert_eq!(sys.metrics(0).missed, 0);
    }

    #[test]
    fn unknown_device_rejected() {
        let mut sys = two_device_system();
        assert!(sys.submit(5, Transfer::new(0, 1, 64, 10)).is_err());
    }

    #[test]
    fn deadline_misses_propagate() {
        let mut sys = two_device_system();
        // 1500 B over FlexRay needs ~25 slots; 3-slot deadline must miss.
        sys.submit(1, Transfer::new(0, 9, 1500, 3)).unwrap();
        sys.run(50);
        assert_eq!(sys.metrics(1).missed, 1);
        assert_eq!(sys.total_missed(), 1);
    }
}
