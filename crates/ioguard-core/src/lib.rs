//! # I/O-GUARD — hardware/software co-designed real-time I/O virtualization
//!
//! This is the top-level crate of the I/O-GUARD reproduction (Jiang et al.,
//! DAC 2021). It assembles the substrates into the systems the paper
//! evaluates and provides one driver per published experiment:
//!
//! * [`casestudy`] — the automotive case study (Fig. 7): success ratio and
//!   I/O throughput of Legacy / RT-Xen / BlueVisor / I/O-GUARD-40 /
//!   I/O-GUARD-70 across target utilizations and VM counts.
//! * [`experiments`] — drivers and text renderers for Fig. 6 (software
//!   overhead), Table I (hardware overhead), Fig. 8 (scalability) and the
//!   Sec. IV schedulability-analysis experiments.
//! * [`engine`] — the work-stealing experiment engine the case study runs
//!   on: deterministic results at any thread count.
//! * [`chaos`] — the robustness battery: fault-plan sweeps (adversarial
//!   VMs, lossy NoCs, stalling devices) asserting the isolation claim,
//!   plus reconfiguration sweeps that flip the VM population mid-trial
//!   and assert exactly-once dispatch with bounded drains.
//! * [`observe`] — canonical observed runs for the `ioguard-obs` layer:
//!   deterministic golden traces and the `OBS_snapshot.json` composer
//!   behind the `trace-export` binary.
//! * [`prelude`] — the commonly used types re-exported in one place.
//!
//! ## Quickstart
//!
//! ```
//! use ioguard_core::casestudy::{CaseStudyPoint, SystemUnderTest};
//!
//! // One experiment point: 4 VMs at 60% target utilization, 5 trials.
//! let point = CaseStudyPoint {
//!     system: SystemUnderTest::IoGuard { preload_pct: 70 },
//!     vms: 4,
//!     target_utilization: 0.60,
//!     trials: 5,
//!     seed: 42,
//!     horizon_slots: 16_000,
//! };
//! let summary = point.run();
//! assert!(summary.success_ratio >= 0.99, "I/O-GUARD-70 holds at 60%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudy;
pub mod chaos;
pub mod engine;
pub mod experiments;
pub mod observe;
pub mod predictability;

/// Commonly used types, re-exported.
pub mod prelude {
    pub use crate::casestudy::{
        CaseStudyConfig, CaseStudyPoint, Fig7Report, PointSummary, SystemUnderTest,
    };
    pub use crate::chaos::{
        ChaosSweep, ChaosSweepReport, ObservedSweepReport, ReconfigSweep, ReconfigSweepReport,
    };
    pub use crate::engine::{run_indexed, EngineStats};
    pub use crate::experiments::{fig6_report, fig8_report, table1_report};
    pub use crate::observe::{
        chaos_observed, end_to_end_observed, reconfig_observed, render_reconfig_trace,
        render_trace, ObservedReconfig, ObservedRun,
    };
    pub use crate::predictability::{latency_profiles, PredictabilityConfig};
    pub use ioguard_baselines::platform::{IoPlatform, PlatformJob, PlatformMetrics};
    pub use ioguard_hypervisor::{Hypervisor, HypervisorParams, RtJob};
    pub use ioguard_reconfig::{ReconfigController, ReconfigTotals, StagedConfig};
    pub use ioguard_rtos::{IoPath, SoftwareLayer};
    pub use ioguard_sched::{
        PeriodicServer, SporadicTask, TaskSet, TimeSlotTable, TwoLayerAnalysis,
    };
    pub use ioguard_workload::{TrialConfig, TrialWorkload};
}
