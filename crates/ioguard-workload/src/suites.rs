//! The calibrated automotive task catalogue.
//!
//! Stand-in for the Renesas automotive use-case database and the EEMBC
//! AutoBench suite: 20 safety tasks and 20 function tasks with nominal
//! periods, I/O service demands and payload sizes chosen to match the
//! published statistics (base utilization ≈ 40% of the shared I/O resource,
//! periods 5–80 ms, raw data in via 1 Gbps Ethernet, results out via
//! 10 Mbps FlexRay).

/// The scheduling time base of the case study: one hypervisor slot is
/// 50 µs, so a 5 ms period is 100 slots and a full 100-second trial is
/// 2 000 000 slots.
pub const SLOT_MICROS: u64 = 50;

/// Classification of a case-study task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskCategory {
    /// Automotive safety task (Renesas use-case database).
    Safety,
    /// Automotive function task (EEMBC AutoBench).
    Function,
    /// Synthetic utilization filler (EEMBC-derived).
    Synthetic,
}

/// One catalogue entry: a named task with nominal timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task name (kernel it models).
    pub name: &'static str,
    /// Category.
    pub category: TaskCategory,
    /// Nominal period in slots (implicit deadline).
    pub period_slots: u64,
    /// Nominal worst-case I/O service demand in slots.
    pub wcet_slots: u64,
    /// Request payload bytes per job (inbound over Ethernet).
    pub request_bytes: u32,
    /// Response payload bytes per job (outbound over FlexRay).
    pub response_bytes: u32,
}

impl TaskSpec {
    /// Nominal utilization `C/T`.
    pub fn utilization(&self) -> f64 {
        self.wcet_slots as f64 / self.period_slots as f64
    }
}

/// The 20 automotive **safety** tasks.
///
/// Periods in slots of [`SLOT_MICROS`] µs: e.g. 100 slots = 5 ms.
pub const SAFETY_TASKS: [TaskSpec; 20] = [
    spec("crc32-frame-check", TaskCategory::Safety, 100, 1, 256, 64),
    spec("rsa32-auth", TaskCategory::Safety, 400, 5, 512, 128),
    spec(
        "airbag-deploy-monitor",
        TaskCategory::Safety,
        100,
        2,
        128,
        32,
    ),
    spec("abs-wheel-speed", TaskCategory::Safety, 100, 2, 256, 64),
    spec("brake-pedal-sense", TaskCategory::Safety, 200, 2, 128, 64),
    spec(
        "steering-torque-check",
        TaskCategory::Safety,
        200,
        3,
        256,
        64,
    ),
    spec(
        "battery-cell-monitor",
        TaskCategory::Safety,
        400,
        3,
        512,
        64,
    ),
    spec("lane-keep-watchdog", TaskCategory::Safety, 200, 2, 512, 128),
    spec(
        "collision-radar-gate",
        TaskCategory::Safety,
        100,
        2,
        512,
        64,
    ),
    spec("tire-pressure-guard", TaskCategory::Safety, 800, 4, 256, 64),
    spec("ecu-heartbeat", TaskCategory::Safety, 100, 1, 64, 32),
    spec("can-gateway-police", TaskCategory::Safety, 200, 2, 512, 128),
    spec("seatbelt-interlock", TaskCategory::Safety, 400, 2, 128, 32),
    spec("door-lock-verify", TaskCategory::Safety, 800, 3, 128, 64),
    spec(
        "throttle-plausibility",
        TaskCategory::Safety,
        100,
        2,
        256,
        64,
    ),
    spec("yaw-rate-check", TaskCategory::Safety, 200, 2, 256, 64),
    spec("fuel-cutoff-guard", TaskCategory::Safety, 400, 3, 128, 32),
    spec("ecc-memory-scrub", TaskCategory::Safety, 800, 4, 1024, 64),
    spec("watchdog-refresh", TaskCategory::Safety, 100, 1, 64, 32),
    spec(
        "crypto-key-rotate",
        TaskCategory::Safety,
        1600,
        6,
        1024,
        256,
    ),
];

/// The 20 automotive **function** tasks.
pub const FUNCTION_TASKS: [TaskSpec; 20] = [
    spec("fft-vibration", TaskCategory::Function, 400, 4, 1024, 128),
    spec("speed-calculation", TaskCategory::Function, 100, 1, 256, 64),
    spec("angle-to-time", TaskCategory::Function, 100, 1, 128, 64),
    spec("tooth-to-spark", TaskCategory::Function, 100, 1, 256, 64),
    spec("road-speed-filter", TaskCategory::Function, 200, 3, 512, 64),
    spec("matrix-kalman", TaskCategory::Function, 400, 4, 1024, 128),
    spec("table-lookup-map", TaskCategory::Function, 200, 2, 512, 64),
    spec("idct-dashboard", TaskCategory::Function, 400, 4, 1024, 128),
    spec("iir-knock-filter", TaskCategory::Function, 100, 1, 256, 64),
    spec(
        "pointer-chase-diag",
        TaskCategory::Function,
        800,
        4,
        512,
        64,
    ),
    spec("pwm-injector", TaskCategory::Function, 100, 1, 128, 32),
    spec(
        "cache-buster-logger",
        TaskCategory::Function,
        800,
        4,
        2048,
        256,
    ),
    spec(
        "bitmanip-can-pack",
        TaskCategory::Function,
        200,
        2,
        512,
        128,
    ),
    spec("basicfloat-mix", TaskCategory::Function, 400, 3, 512, 64),
    spec("tblook-ignition", TaskCategory::Function, 200, 3, 256, 64),
    spec("a2time-crank", TaskCategory::Function, 100, 1, 256, 64),
    spec("canrdr-reader", TaskCategory::Function, 200, 2, 512, 128),
    spec("puwmod-modulation", TaskCategory::Function, 400, 4, 256, 64),
    spec("rspeed-odometer", TaskCategory::Function, 800, 5, 512, 64),
    spec(
        "aifirf-radio-filter",
        TaskCategory::Function,
        800,
        5,
        2048,
        256,
    ),
];

const fn spec(
    name: &'static str,
    category: TaskCategory,
    period_slots: u64,
    wcet_slots: u64,
    request_bytes: u32,
    response_bytes: u32,
) -> TaskSpec {
    TaskSpec {
        name,
        category,
        period_slots,
        wcet_slots,
        request_bytes,
        response_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_twenty_tasks_each() {
        assert_eq!(SAFETY_TASKS.len(), 20);
        assert_eq!(FUNCTION_TASKS.len(), 20);
        assert!(SAFETY_TASKS
            .iter()
            .all(|t| t.category == TaskCategory::Safety));
        assert!(FUNCTION_TASKS
            .iter()
            .all(|t| t.category == TaskCategory::Function));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SAFETY_TASKS
            .iter()
            .chain(FUNCTION_TASKS.iter())
            .map(|t| t.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate task names");
    }

    #[test]
    fn base_suite_is_about_forty_percent() {
        // "…with overall system utilization approximately 40%."
        let u: f64 = SAFETY_TASKS
            .iter()
            .chain(FUNCTION_TASKS.iter())
            .map(TaskSpec::utilization)
            .sum();
        assert!((0.37..=0.43).contains(&u), "base utilization {u:.3}");
    }

    #[test]
    fn all_tasks_are_feasible_constrained() {
        for t in SAFETY_TASKS.iter().chain(FUNCTION_TASKS.iter()) {
            assert!(t.wcet_slots >= 1, "{}", t.name);
            assert!(t.wcet_slots <= t.period_slots, "{}", t.name);
            assert!(t.request_bytes > 0 && t.response_bytes > 0, "{}", t.name);
        }
    }

    #[test]
    fn periods_span_5ms_to_200ms() {
        let min = SAFETY_TASKS
            .iter()
            .chain(FUNCTION_TASKS.iter())
            .map(|t| t.period_slots)
            .min()
            .unwrap();
        let max = SAFETY_TASKS
            .iter()
            .chain(FUNCTION_TASKS.iter())
            .map(|t| t.period_slots)
            .max()
            .unwrap();
        assert_eq!(min * SLOT_MICROS, 5_000, "fastest period 5 ms");
        assert!(max * SLOT_MICROS >= 80_000, "slowest period ≥ 80 ms");
    }
}
