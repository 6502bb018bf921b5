//! Error types for the hypervisor model.

use std::error::Error;
use std::fmt;

use crate::event::RefuseReason;

/// Errors raised by hypervisor configuration and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HvError {
    /// Configuration parameter out of range.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A pre-defined task table could not be constructed.
    TableConstruction {
        /// Human-readable description.
        reason: String,
    },
    /// A free slot was granted to a pool with no shadow entry — a G-Sched
    /// invariant violation (scheduler bug), surfaced as a value instead of
    /// a panic.
    EmptyPool,
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            HvError::TableConstruction { reason } => {
                write!(f, "cannot build time slot table: {reason}")
            }
            HvError::EmptyPool => {
                write!(f, "slot granted to a pool with an empty shadow register")
            }
        }
    }
}

impl Error for HvError {}

/// Why a submission did not enter a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The job named a VM the hypervisor was not configured with.
    UnknownVm {
        /// The offending VM index.
        vm: usize,
        /// Number of configured VMs.
        vms: usize,
    },
    /// The hypervisor refused the job (the same verdict the event stream
    /// carries as [`HvEvent::Refused`](crate::HvEvent::Refused)).
    Refused(RefuseReason),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownVm { vm, vms } => {
                write!(f, "vm {vm} out of range (hypervisor has {vms} pools)")
            }
            SubmitError::Refused(RefuseReason::Throttled { until }) => {
                write!(f, "throttled by flood control until slot {until}")
            }
            SubmitError::Refused(RefuseReason::Degraded) => {
                write!(f, "submission refused: hypervisor in degraded mode")
            }
            SubmitError::Refused(RefuseReason::PoolFull) => write!(f, "i/o pool is full"),
        }
    }
}

impl Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_trait() {
        let cases = [
            (
                HvError::InvalidConfig { reason: "x".into() }.to_string(),
                "invalid configuration",
            ),
            (
                HvError::TableConstruction { reason: "y".into() }.to_string(),
                "time slot table",
            ),
            (HvError::EmptyPool.to_string(), "empty shadow register"),
            (
                SubmitError::UnknownVm { vm: 9, vms: 4 }.to_string(),
                "out of range",
            ),
            (
                SubmitError::Refused(RefuseReason::PoolFull).to_string(),
                "full",
            ),
            (
                SubmitError::Refused(RefuseReason::Throttled { until: 40 }).to_string(),
                "flood control",
            ),
            (
                SubmitError::Refused(RefuseReason::Degraded).to_string(),
                "degraded",
            ),
        ];
        for (text, needle) in cases {
            assert!(text.contains(needle));
        }
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<HvError>();
        assert_err::<SubmitError>();
    }
}
