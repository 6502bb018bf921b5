//! Exactly-once VM migration between shards.
//!
//! Rebalancing moves a VM from a loaded shard to one with more slack
//! without ever dropping it or double-placing it. The destination
//! ledger's [`crate::Shard::admit`] is both the admission gate and the
//! commit point; the migrant's Theorem 3 verdict does not depend on the
//! shard, so the arrival gate ([`crate::shard::locally_schedulable`])
//! already settled it:
//!
//! 1. **Reserve** — admit the migrant into the destination ledger
//!    (Theorem 1 against the destination's σ\* and residents). A
//!    rejection aborts with the fleet untouched. On success the VM
//!    exists on both ledgers, but `locations` still names the source:
//!    observers see exactly one authoritative placement. A fault here
//!    ([`MigrationFault::AfterReserve`]) rolls *back*: the reservation
//!    is evicted and the VM stays on the source.
//! 2. **Commit** — evict from the source and repoint `locations`. This
//!    is the point of no return: a fault after the source eviction
//!    ([`MigrationFault::AfterEvict`]) rolls *forward* — the reservation
//!    is already supply-backed, so completion is always safe.
//!
//! The conservation invariant — every resident VM on exactly one shard,
//! `locations` agreeing with shard contents — holds after every return,
//! faulted or not, and is proptested below and chaos-tested in the
//! integration suite.

use crate::placement::Fleet;

/// Fault injection points for the migration protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationFault {
    /// No fault: the happy path.
    None,
    /// Crash between the destination reservation and the source evict —
    /// before the point of no return. The protocol must roll back.
    AfterReserve,
    /// Crash between the source evict and the location repoint — after
    /// the point of no return. The protocol must roll forward.
    AfterEvict,
}

/// Why a migration did not complete. In every case the fleet is left
/// consistent: the VM remains placed exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// The VM is not resident anywhere.
    UnknownVm {
        /// The requested VM.
        vm: u64,
    },
    /// The destination index is out of range.
    UnknownShard {
        /// The requested destination.
        shard: usize,
    },
    /// Source and destination are the same shard.
    SameShard {
        /// The shard named twice.
        shard: usize,
    },
    /// The destination ledger rejected the migrant; the VM stays on its
    /// source shard.
    DestRejected {
        /// The migrating VM.
        vm: u64,
        /// The rejecting destination.
        to: usize,
    },
    /// An injected [`MigrationFault::AfterReserve`] fired; the
    /// reservation was rolled back and the VM stays on its source shard.
    FaultedRolledBack {
        /// The migrating VM.
        vm: u64,
        /// The source shard it remained on.
        from: usize,
        /// The destination whose reservation was rolled back.
        to: usize,
    },
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::UnknownVm { vm } => write!(f, "unknown vm {vm}"),
            MigrationError::UnknownShard { shard } => write!(f, "unknown shard {shard}"),
            MigrationError::SameShard { shard } => {
                write!(f, "vm already on shard {shard}")
            }
            MigrationError::DestRejected { vm, to } => {
                write!(f, "shard {to} rejected vm {vm}")
            }
            MigrationError::FaultedRolledBack { vm, from, to } => {
                write!(f, "migration of vm {vm} from {from} to {to} rolled back")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// A completed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// The migrated VM.
    pub vm: u64,
    /// The shard it left.
    pub from: usize,
    /// The shard it now lives on.
    pub to: usize,
    /// True when an [`MigrationFault::AfterEvict`] fault fired and the
    /// protocol completed by rolling forward.
    pub rolled_forward: bool,
}

impl Fleet {
    /// Migrates `vm` to shard `to` with an injected `fault`, exactly
    /// once: on `Ok` the VM lives on `to`; on `Err` it lives wherever it
    /// did before. It is never on zero or two shards.
    ///
    /// # Errors
    ///
    /// [`MigrationError`] — see each variant for where the VM ends up.
    pub fn migrate(
        &mut self,
        vm: u64,
        to: usize,
        fault: MigrationFault,
    ) -> Result<MigrationOutcome, MigrationError> {
        let from = self
            .location_of(vm)
            .ok_or(MigrationError::UnknownVm { vm })?;
        if to >= self.shards().len() {
            return Err(MigrationError::UnknownShard { shard: to });
        }
        if from == to {
            return Err(MigrationError::SameShard { shard: to });
        }
        let source = self
            .shard(from)
            .ok_or(MigrationError::UnknownShard { shard: from })?;
        let server = source
            .server_of(vm)
            .ok_or(MigrationError::UnknownVm { vm })?;
        let tasks = source.tasks_of(vm).cloned().unwrap_or_default();

        // 1. Reserve in the destination ledger (Theorem 1, incremental).
        let admitted = match self.shard_mut(to) {
            Some(dest) => dest
                .admit(vm, server, &tasks)
                .map(|outcome| outcome.admitted())
                .unwrap_or(false),
            None => false,
        };
        if !admitted {
            return Err(MigrationError::DestRejected { vm, to });
        }
        if fault == MigrationFault::AfterReserve {
            // Before the point of no return: roll back the reservation.
            if let Some(dest) = self.shard_mut(to) {
                let _ = dest.evict(vm);
            }
            return Err(MigrationError::FaultedRolledBack { vm, from, to });
        }

        // 2. Commit: evict from the source. From here the only safe
        //    direction is forward — the destination already holds the
        //    supply-backed reservation.
        if let Some(old) = self.shard_mut(from) {
            let _ = old.evict(vm);
        }
        let rolled_forward = fault == MigrationFault::AfterEvict;
        self.set_location(vm, to);
        self.note_migration();
        Ok(MigrationOutcome {
            vm,
            from,
            to,
            rolled_forward,
        })
    }

    /// One deterministic rebalance step: moves the lowest-id VM from the
    /// most-loaded shard to the least-loaded shard (by resident count,
    /// ties to the lower index). Returns `None` when the fleet is
    /// already balanced to within one VM or has fewer than two shards.
    pub fn rebalance(
        &mut self,
        fault: MigrationFault,
    ) -> Option<Result<MigrationOutcome, MigrationError>> {
        let counts: Vec<usize> = self.shards().iter().map(|s| s.resident_count()).collect();
        let busiest = counts
            .iter()
            .enumerate()
            .max_by_key(|(index, count)| (**count, std::cmp::Reverse(*index)))?;
        let idlest = counts.iter().enumerate().min_by_key(|(_, count)| **count)?;
        if busiest.0 == idlest.0 || *busiest.1 <= idlest.1.saturating_add(1) {
            return None;
        }
        let vm = self.shard(busiest.0)?.residents().next()?.0;
        Some(self.migrate(vm, idlest.0, fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Fleet, FleetConfig, PlacementPolicy};
    use ioguard_workload::{FleetArrivalConfig, FleetArrivals};
    use proptest::prelude::*;

    fn loaded_fleet(seed: u64) -> Fleet {
        loaded_fleet_with(PlacementPolicy::FirstFit, seed)
    }

    fn loaded_fleet_with(policy: PlacementPolicy, seed: u64) -> Fleet {
        let config = FleetConfig::new(3, policy, seed);
        let stream = FleetArrivals::generate(&FleetArrivalConfig::new(600, 60, seed));
        let mut fleet = Fleet::new(config).expect("valid config");
        fleet.run(&stream);
        fleet
    }

    /// Every located VM on exactly one shard; totals agree.
    fn assert_conserved(fleet: &Fleet) {
        for (vm, shard) in fleet.locations() {
            for other in fleet.shards() {
                assert_eq!(
                    other.contains(vm),
                    other.id() == shard,
                    "vm {vm} placement inconsistent at shard {}",
                    other.id()
                );
            }
        }
        let total: usize = fleet.shards().iter().map(|s| s.resident_count()).sum();
        assert_eq!(total, fleet.resident_count());
    }

    #[test]
    fn happy_path_moves_exactly_once() {
        let mut fleet = loaded_fleet(11);
        let (vm, from) = fleet.locations().next().expect("non-empty fleet");
        let to = (from + 1) % fleet.shards().len();
        let outcome = fleet
            .migrate(vm, to, MigrationFault::None)
            .expect("migration fits");
        assert_eq!(outcome.from, from);
        assert_eq!(outcome.to, to);
        assert!(!outcome.rolled_forward);
        assert_eq!(fleet.location_of(vm), Some(to));
        assert_conserved(&fleet);
    }

    #[test]
    fn fault_after_reserve_rolls_back() {
        let mut fleet = loaded_fleet(12);
        let (vm, from) = fleet.locations().next().expect("non-empty fleet");
        let to = (from + 1) % fleet.shards().len();
        let err = fleet
            .migrate(vm, to, MigrationFault::AfterReserve)
            .expect_err("fault must surface");
        assert_eq!(err, MigrationError::FaultedRolledBack { vm, from, to });
        assert_eq!(fleet.location_of(vm), Some(from));
        assert_conserved(&fleet);
    }

    #[test]
    fn fault_after_evict_rolls_forward() {
        let mut fleet = loaded_fleet(13);
        let (vm, from) = fleet.locations().next().expect("non-empty fleet");
        let to = (from + 1) % fleet.shards().len();
        let outcome = fleet
            .migrate(vm, to, MigrationFault::AfterEvict)
            .expect("roll-forward completes");
        assert!(outcome.rolled_forward);
        assert_eq!(fleet.location_of(vm), Some(to));
        assert_conserved(&fleet);
    }

    #[test]
    fn bad_requests_are_typed_and_harmless() {
        let mut fleet = loaded_fleet(14);
        let (vm, from) = fleet.locations().next().expect("non-empty fleet");
        assert_eq!(
            fleet.migrate(999_999, 0, MigrationFault::None),
            Err(MigrationError::UnknownVm { vm: 999_999 })
        );
        assert_eq!(
            fleet.migrate(vm, 99, MigrationFault::None),
            Err(MigrationError::UnknownShard { shard: 99 })
        );
        assert_eq!(
            fleet.migrate(vm, from, MigrationFault::None),
            Err(MigrationError::SameShard { shard: from })
        );
        assert_conserved(&fleet);
    }

    /// Every (resident, other shard) pair of loaded fleets: the
    /// destination's read-only probe predicts the migration exactly.
    #[test]
    fn the_destination_ledger_alone_decides_a_migration() {
        let (mut rejected, mut moved) = (0, 0);
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::WorstFitBySlack] {
            for seed in 0..20 {
                let mut fleet = loaded_fleet_with(policy, seed);
                let before = fleet.clone();
                let mut moved_here = 0;
                for (vm, from) in before.locations() {
                    let server = before.shard(from).and_then(|s| s.server_of(vm)).unwrap();
                    for to in (0..before.shards().len()).filter(|&to| to != from) {
                        if !before.shard(to).unwrap().probe(&server) {
                            assert_eq!(
                                fleet.migrate(vm, to, MigrationFault::None),
                                Err(MigrationError::DestRejected { vm, to }),
                                "{policy:?} seed {seed}: vm {vm} to {to}"
                            );
                            rejected += 1;
                        } else if moved_here < 3 {
                            // An accepted move changes the fleet: try it on a copy.
                            let outcome = before.clone().migrate(vm, to, MigrationFault::None);
                            assert_eq!(
                                outcome.map(|o| (o.from, o.to)),
                                Ok((from, to)),
                                "{policy:?} seed {seed}: vm {vm}"
                            );
                            moved_here += 1;
                        }
                    }
                }
                moved += moved_here;
                assert_eq!(
                    fleet, before,
                    "{policy:?} seed {seed}: a rejection changed the fleet"
                );
            }
        }
        assert!(
            rejected > 0 && moved > 0,
            "rejected {rejected}, moved {moved}"
        );
    }

    #[test]
    fn rebalance_converges_toward_even_load() {
        let mut fleet = loaded_fleet(15);
        let spread_before = {
            let counts: Vec<usize> = fleet.shards().iter().map(|s| s.resident_count()).collect();
            counts.iter().max().copied().unwrap_or(0) - counts.iter().min().copied().unwrap_or(0)
        };
        let mut steps = 0;
        while let Some(step) = fleet.rebalance(MigrationFault::None) {
            // A rejection ends rebalancing (destination genuinely full).
            if step.is_err() {
                break;
            }
            steps += 1;
            assert!(steps <= 200, "rebalance must terminate");
        }
        let counts: Vec<usize> = fleet.shards().iter().map(|s| s.resident_count()).collect();
        let spread_after =
            counts.iter().max().copied().unwrap_or(0) - counts.iter().min().copied().unwrap_or(0);
        assert!(
            spread_after <= spread_before,
            "rebalance widened the spread: {spread_before} -> {spread_after}"
        );
        assert_conserved(&fleet);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random migrations under random fault injection never drop or
        /// double-place a VM, and each shard's incremental ledger still
        /// matches the full sweep afterwards.
        #[test]
        fn conservation_under_faulted_migrations(
            seed in 0u64..1000,
            moves in proptest::collection::vec((0usize..64, 0usize..3, 0u8..3), 1..20),
        ) {
            let mut fleet = loaded_fleet(seed);
            for (pick, to, fault_code) in moves {
                let vms: Vec<u64> = fleet.locations().map(|(vm, _)| vm).collect();
                if vms.is_empty() {
                    break;
                }
                let vm = vms[pick % vms.len()];
                let fault = match fault_code {
                    0 => MigrationFault::None,
                    1 => MigrationFault::AfterReserve,
                    _ => MigrationFault::AfterEvict,
                };
                let _ = fleet.migrate(vm, to, fault);
                assert_conserved(&fleet);
            }
            for shard in fleet.shards() {
                prop_assert!(shard.verify_full().is_schedulable());
            }
        }
    }
}
