//! Deterministic VM placement across hypervisor shards.
//!
//! The [`Fleet`] consumes a [`FleetArrivals`] churn stream and routes
//! each arrival to a shard (or to the bounded spillover queue) with a
//! per-decision cost of one Theorem 3 gate plus one pruned ledger descent
//! per shard — no full demand sweeps anywhere on the hot path.
//!
//! **Determinism.** Placement is a pure function of `(config, stream)`:
//! shard probes fan out over [`ioguard_core::engine::run_indexed`], which
//! returns results in input order regardless of thread count, and every
//! tie among equally-good shards is broken by a seeded hash with the
//! shard index as the final key. Running the same stream at 1 thread and
//! at 8 threads yields byte-identical decision traces — pinned by the
//! `fleet.trace` golden.
//!
//! **Spillover.** A VM that passes its local Theorem 3 gate but fits no
//! shard right now goes to a FIFO spillover queue, retried (in order)
//! after every departure. The queue is *bounded* by
//! [`FleetConfig::spill_capacity`]; beyond that arrivals are dropped and
//! counted, never silently queued — the lint suite's
//! `unbounded-spillover` rule enforces this shape crate-wide.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use ioguard_core::engine::run_indexed;
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::{PeriodicServer, SchedError, TaskSet};
use ioguard_sim::rng::SplitMix64;
use ioguard_workload::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::shard::{locally_schedulable, Shard};

/// How the fleet picks among shards that can admit a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The admitting shard with the lowest index.
    FirstFit,
    /// The admitting shard with the most end-of-frame slack, chosen by
    /// [`worst_fit`]. Balances load so later arrivals and migrations have
    /// somewhere to go.
    WorstFitBySlack,
}

/// Worst-fit by headroom, the one placement choice the fleet and the
/// serving front-end share.
///
/// `candidates` holds `(shard index, headroom)` for each shard that can
/// take the arriving `id`; the caller decides what "can take" means.
/// Returns the index with the most headroom. Ties go to the higher seeded
/// hash `SplitMix64::new(seed).derive(id·φ + index)`, then to the lowest
/// index, so the choice is a pure function of its inputs. `None` when
/// there is no candidate.
pub fn worst_fit(
    seed: u64,
    id: u64,
    candidates: impl IntoIterator<Item = (usize, i64)>,
) -> Option<usize> {
    let mix = SplitMix64::new(seed);
    candidates
        .into_iter()
        .max_by_key(|&(index, headroom)| {
            let tag = id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index as u64);
            (headroom, mix.derive(tag), std::cmp::Reverse(index))
        })
        .map(|(index, _)| index)
}

/// Construction parameters for a [`Fleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of hypervisor shards.
    pub shards: usize,
    /// σ\* length for every shard.
    pub sigma_len: u64,
    /// σ\* slots reserved for pre-defined P-channel traffic on every shard.
    pub occupied: Vec<u64>,
    /// Analysis frame handed to each shard's ledger; must be a multiple
    /// of `sigma_len` and of every admitted server period.
    pub frame: u64,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Seed for placement tie-breaking (and nothing else — the stream
    /// carries its own seed).
    pub seed: u64,
    /// Spillover queue capacity; arrivals beyond it are dropped.
    pub spill_capacity: usize,
    /// Worker threads for shard probes (`0` = all cores). Any value
    /// yields identical decisions.
    pub threads: usize,
}

impl FleetConfig {
    /// A config with the canonical shard shape: σ\* of 64 slots with slot
    /// 0 reserved, frame 4096, spillover capacity 256, single-threaded.
    pub fn new(shards: usize, policy: PlacementPolicy, seed: u64) -> Self {
        Self {
            shards,
            sigma_len: 64,
            occupied: vec![0],
            frame: 4096,
            policy,
            seed,
            spill_capacity: 256,
            threads: 1,
        }
    }
}

/// One placement decision, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The VM was admitted by `shard` on arrival.
    Placed {
        /// The arriving VM.
        vm: u64,
        /// The admitting shard.
        shard: usize,
    },
    /// The VM failed its own Theorem 3 gate; no shard could ever hold it.
    LocalReject {
        /// The rejected VM.
        vm: u64,
    },
    /// No shard can admit the VM right now; parked in spillover.
    Spilled {
        /// The parked VM.
        vm: u64,
    },
    /// Spillover was full; the VM was dropped (counted, not queued).
    Dropped {
        /// The dropped VM.
        vm: u64,
    },
    /// The VM departed from `shard`.
    Departed {
        /// The departing VM.
        vm: u64,
        /// The shard it left.
        shard: usize,
    },
    /// A spillover departure for a VM that was parked, not resident.
    SpillCancelled {
        /// The cancelled VM.
        vm: u64,
    },
    /// A parked VM was placed after a departure freed capacity.
    SpillPlaced {
        /// The formerly-parked VM.
        vm: u64,
        /// The admitting shard.
        shard: usize,
    },
}

/// Aggregate fleet counters, all monotone over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Arrivals admitted directly.
    pub placed: u64,
    /// Arrivals that failed their own Theorem 3 gate.
    pub local_rejects: u64,
    /// Arrivals parked in spillover.
    pub spilled: u64,
    /// Arrivals dropped because spillover was full.
    pub dropped: u64,
    /// Departures of resident VMs.
    pub departed: u64,
    /// Departures that cancelled a parked (spilled) VM.
    pub spill_cancelled: u64,
    /// Spillover entries placed after a departure.
    pub spill_placed: u64,
    /// Completed cross-shard migrations.
    pub migrations: u64,
    /// Read-only shard probes issued.
    pub probes: u64,
    /// Ledger delta events decided over across all shards (`frame/Π` per
    /// admit, accepted or rejected, and per eviction) — the incremental
    /// work, comparable against `shards × frame` for a full-sweep world.
    pub delta_events: u64,
}

/// A VM waiting in spillover: everything needed to retry placement.
#[derive(Debug, Clone, PartialEq)]
struct SpillEntry {
    vm: u64,
    server: PeriodicServer,
    tasks: TaskSet,
}

/// The sharded fleet: placement state over `N` hypervisor shards.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<Shard>,
    locations: BTreeMap<u64, usize>,
    spillover: VecDeque<SpillEntry>,
    stats: FleetStats,
}

impl Fleet {
    /// Builds an empty fleet from `config`.
    ///
    /// # Errors
    ///
    /// Propagates σ\* construction and ledger frame validation errors.
    pub fn new(config: FleetConfig) -> Result<Self, SchedError> {
        let mut shards = Vec::with_capacity(config.shards);
        for id in 0..config.shards {
            let sigma = TimeSlotTable::from_occupied(config.sigma_len, &config.occupied)?;
            shards.push(Shard::new(id, sigma, config.frame)?);
        }
        Ok(Self {
            config,
            shards,
            locations: BTreeMap::new(),
            spillover: VecDeque::new(),
            stats: FleetStats::default(),
        })
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total resident VMs across all shards.
    pub fn resident_count(&self) -> usize {
        self.locations.len()
    }

    /// Where each resident VM lives: `(vm, shard index)` in vm order.
    pub fn locations(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.locations.iter().map(|(vm, shard)| (*vm, *shard))
    }

    /// The shard index holding `vm`, if resident.
    pub fn location_of(&self, vm: u64) -> Option<usize> {
        self.locations.get(&vm).copied()
    }

    /// VMs currently parked in spillover, in arrival order.
    pub fn spilled_vms(&self) -> impl Iterator<Item = u64> + '_ {
        self.spillover.iter().map(|e| e.vm)
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    pub(crate) fn shard(&self, index: usize) -> Option<&Shard> {
        self.shards.get(index)
    }

    pub(crate) fn shard_mut(&mut self, index: usize) -> Option<&mut Shard> {
        self.shards.get_mut(index)
    }

    pub(crate) fn set_location(&mut self, vm: u64, shard: usize) {
        self.locations.insert(vm, shard);
    }

    pub(crate) fn note_migration(&mut self) {
        self.stats.migrations = self.stats.migrations.saturating_add(1);
    }

    /// Picks the shard for `(vm, server)` under the configured policy, or
    /// `None` when no shard can admit it. Probes run read-only across the
    /// work-stealing engine; results come back in shard order, so the
    /// choice is independent of thread count.
    fn choose(&mut self, vm: u64, server: &PeriodicServer) -> Option<usize> {
        let threads = self.config.threads;
        let (probes, _) = run_indexed(threads, &self.shards, |_, shard| {
            (shard.probe(server), shard.headroom())
        });
        self.stats.probes = self.stats.probes.saturating_add(probes.len() as u64);
        let fitting = probes
            .into_iter()
            .enumerate()
            .filter_map(|(index, (fits, headroom))| fits.then_some((index, headroom)));
        match self.config.policy {
            PlacementPolicy::FirstFit => fitting.map(|(index, _)| index).next(),
            PlacementPolicy::WorstFitBySlack => worst_fit(self.config.seed, vm, fitting),
        }
    }

    /// Attempts to place `(vm, server, tasks)` on the chosen shard.
    /// Returns the shard index on success; on failure the fleet is
    /// unchanged and the caller decides between spillover and drop.
    fn try_place(&mut self, vm: u64, server: PeriodicServer, tasks: &TaskSet) -> Option<usize> {
        let index = self.choose(vm, &server)?;
        let admitted = match self.shards.get_mut(index) {
            Some(shard) => match shard.admit(vm, server, tasks) {
                Ok(outcome) => {
                    self.stats.delta_events = self
                        .stats
                        .delta_events
                        .saturating_add(outcome.stats.delta_events);
                    outcome.admitted()
                }
                Err(_) => false,
            },
            None => false,
        };
        if admitted {
            self.locations.insert(vm, index);
            Some(index)
        } else {
            None
        }
    }

    /// Parks `entry` in spillover, or drops it when the queue is full.
    fn spill_or_drop(&mut self, entry: SpillEntry) -> Decision {
        let vm = entry.vm;
        if self.spillover.len() < self.config.spill_capacity {
            // Bounded by spill_capacity (checked above); never grows past it.
            self.spillover.push_back(entry);
            self.stats.spilled = self.stats.spilled.saturating_add(1);
            Decision::Spilled { vm }
        } else {
            self.stats.dropped = self.stats.dropped.saturating_add(1);
            Decision::Dropped { vm }
        }
    }

    /// After a departure, retries parked VMs in FIFO order until the
    /// front entry no longer fits anywhere. The queue is taken out of the
    /// fleet for the loop (`try_place` never reads it), so the front is
    /// retried by reference and only a placed entry leaves it.
    fn drain_spillover(&mut self, decisions: &mut Vec<Decision>) {
        let mut parked = std::mem::take(&mut self.spillover);
        while let Some(front) = parked.front() {
            let Some(shard) = self.try_place(front.vm, front.server, &front.tasks) else {
                break;
            };
            self.stats.spill_placed = self.stats.spill_placed.saturating_add(1);
            decisions.push(Decision::SpillPlaced {
                vm: front.vm,
                shard,
            });
            parked.pop_front();
        }
        self.spillover = parked;
    }

    /// Applies one lifecycle event, returning the decisions it caused (an
    /// arrival yields one; a departure yields one plus any spillover
    /// placements it unlocked).
    pub fn apply(&mut self, event: &FleetEvent) -> Vec<Decision> {
        let mut decisions = Vec::with_capacity(1);
        match event {
            FleetEvent::Arrive { vm, server, tasks } => {
                if !locally_schedulable(server, tasks, self.config.frame) {
                    self.stats.local_rejects = self.stats.local_rejects.saturating_add(1);
                    decisions.push(Decision::LocalReject { vm: *vm });
                } else if let Some(shard) = self.try_place(*vm, *server, tasks) {
                    self.stats.placed = self.stats.placed.saturating_add(1);
                    decisions.push(Decision::Placed { vm: *vm, shard });
                } else {
                    decisions.push(self.spill_or_drop(SpillEntry {
                        vm: *vm,
                        server: *server,
                        tasks: tasks.clone(),
                    }));
                }
            }
            FleetEvent::Depart { vm } => {
                if let Some(shard) = self.locations.remove(vm) {
                    if let Some(held) = self.shards.get_mut(shard) {
                        if let Ok((server, _)) = held.evict(*vm) {
                            let pi = server.period();
                            let delta = self.config.frame.checked_div(pi).unwrap_or(0);
                            self.stats.delta_events = self.stats.delta_events.saturating_add(delta);
                        }
                    }
                    self.stats.departed = self.stats.departed.saturating_add(1);
                    decisions.push(Decision::Departed { vm: *vm, shard });
                    self.drain_spillover(&mut decisions);
                } else {
                    // The VM never made it onto a shard: cancel its
                    // spillover entry (or ignore a dropped VM entirely).
                    let parked = self.spillover.iter().position(|e| e.vm == *vm);
                    if let Some(at) = parked {
                        self.spillover.remove(at);
                        self.stats.spill_cancelled = self.stats.spill_cancelled.saturating_add(1);
                        decisions.push(Decision::SpillCancelled { vm: *vm });
                    }
                }
            }
        }
        decisions
    }

    /// Runs a whole churn stream, returning every decision in order.
    pub fn run(&mut self, stream: &FleetArrivals) -> Vec<Decision> {
        let mut decisions = Vec::with_capacity(stream.events().len());
        for event in stream.events() {
            decisions.extend(self.apply(event));
        }
        decisions
    }

    /// Renders `decisions` plus the fleet's final state as a stable
    /// textual trace — the golden-file format.
    pub fn render_trace(&self, decisions: &[Decision]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet shards={} policy={:?} seed={:#x} frame={}",
            self.config.shards, self.config.policy, self.config.seed, self.config.frame
        );
        for decision in decisions {
            let _ = match decision {
                Decision::Placed { vm, shard } => writeln!(out, "place vm={vm} shard={shard}"),
                Decision::LocalReject { vm } => writeln!(out, "local-reject vm={vm}"),
                Decision::Spilled { vm } => writeln!(out, "spill vm={vm}"),
                Decision::Dropped { vm } => writeln!(out, "drop vm={vm}"),
                Decision::Departed { vm, shard } => {
                    writeln!(out, "depart vm={vm} shard={shard}")
                }
                Decision::SpillCancelled { vm } => writeln!(out, "spill-cancel vm={vm}"),
                Decision::SpillPlaced { vm, shard } => {
                    writeln!(out, "spill-place vm={vm} shard={shard}")
                }
            };
        }
        for shard in &self.shards {
            let _ = writeln!(
                out,
                "shard id={} residents={} headroom={} min_slack={}",
                shard.id(),
                shard.resident_count(),
                shard.headroom(),
                shard.min_slack()
            );
        }
        let s = self.stats;
        let _ = writeln!(
            out,
            "stats placed={} local_rejects={} spilled={} dropped={} departed={} \
             spill_cancelled={} spill_placed={} migrations={} probes={} delta_events={}",
            s.placed,
            s.local_rejects,
            s.spilled,
            s.dropped,
            s.departed,
            s.spill_cancelled,
            s.spill_placed,
            s.migrations,
            s.probes,
            s.delta_events
        );
        out
    }
}

/// The pinned fleet scenario behind the `fleet.trace` golden: 3 shards,
/// worst-fit-by-slack, a 1 000-event churn stream targeting 120 residents.
/// Returns the rendered trace; identical for every `threads` value.
///
/// # Errors
///
/// Propagates fleet construction errors (impossible for the pinned
/// parameters, but the signature keeps the crate panic-free).
pub fn canonical_run(seed: u64, threads: usize) -> Result<String, SchedError> {
    let mut config = FleetConfig::new(3, PlacementPolicy::WorstFitBySlack, seed);
    config.threads = threads;
    let stream = FleetArrivals::generate(&FleetArrivalConfig::new(1000, 120, seed));
    let mut fleet = Fleet::new(config)?;
    let decisions = fleet.run(&stream);
    Ok(fleet.render_trace(&decisions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_fleet(policy: PlacementPolicy, threads: usize) -> (Fleet, Vec<Decision>) {
        let mut config = FleetConfig::new(4, policy, 0xFEED);
        config.threads = threads;
        let stream = FleetArrivals::generate(&FleetArrivalConfig::new(2000, 150, 0xFEED));
        let mut fleet = Fleet::new(config).expect("valid config");
        let decisions = fleet.run(&stream);
        (fleet, decisions)
    }

    #[test]
    fn decisions_identical_across_thread_counts() {
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::WorstFitBySlack] {
            let (fleet1, d1) = run_fleet(policy, 1);
            let (fleet8, d8) = run_fleet(policy, 8);
            assert_eq!(d1, d8, "{policy:?} decisions diverge across threads");
            assert_eq!(
                fleet1.render_trace(&d1),
                fleet8.render_trace(&d8),
                "{policy:?} traces diverge across threads"
            );
        }
    }

    #[test]
    fn every_decision_kind_occurs_and_books_balance() {
        let (fleet, decisions) = run_fleet(PlacementPolicy::WorstFitBySlack, 1);
        let s = fleet.stats();
        assert!(s.placed > 0, "no placements");
        assert!(s.departed > 0, "no departures");
        assert!(s.spilled > 0, "spillover never exercised");
        // Residents = placements − departures, spillover books balance.
        let placed_total = s.placed + s.spill_placed;
        assert_eq!(
            fleet.resident_count() as u64,
            placed_total - s.departed,
            "resident bookkeeping broken"
        );
        // Drops never enter the queue, so the parked count is exactly
        // spilled − placed-from-spill − cancelled.
        assert_eq!(
            fleet.spilled_vms().count() as u64,
            s.spilled - s.spill_placed - s.spill_cancelled,
        );
        // Every arrival yields exactly one decision; departures of VMs
        // that never made it onto a shard (rejected/dropped) yield none.
        let arrivals = s.placed + s.local_rejects + s.spilled + s.dropped;
        assert!(decisions.len() as u64 >= arrivals);
    }

    #[test]
    fn locations_match_shard_contents() {
        let (fleet, _) = run_fleet(PlacementPolicy::FirstFit, 1);
        for (vm, shard) in fleet.locations() {
            let holder = fleet.shards().get(shard).expect("valid shard index");
            assert!(holder.contains(vm), "vm {vm} missing from shard {shard}");
            for other in fleet.shards() {
                if other.id() != shard {
                    assert!(!other.contains(vm), "vm {vm} on two shards");
                }
            }
        }
        let total: usize = fleet.shards().iter().map(|s| s.resident_count()).sum();
        assert_eq!(total, fleet.resident_count());
    }

    #[test]
    fn incremental_ledgers_agree_with_full_sweep_after_churn() {
        let (fleet, _) = run_fleet(PlacementPolicy::WorstFitBySlack, 1);
        for shard in fleet.shards() {
            assert!(
                shard.verify_full().is_schedulable(),
                "shard {} resident set fails the full sweep",
                shard.id()
            );
        }
    }

    #[test]
    fn spillover_is_bounded() {
        let mut config = FleetConfig::new(1, PlacementPolicy::FirstFit, 1);
        config.spill_capacity = 4;
        // One tiny shard: a σ* of 64 slots with slot 0 reserved and a
        // heavy stream saturates it fast, forcing spill + drop.
        let stream = FleetArrivals::generate(&FleetArrivalConfig::new(3000, 400, 9));
        let mut fleet = Fleet::new(config).expect("valid config");
        fleet.run(&stream);
        assert!(
            fleet.spilled_vms().count() <= 4,
            "spillover exceeded capacity"
        );
        assert!(fleet.stats().dropped > 0, "drop path never exercised");
    }

    #[test]
    fn worst_fit_takes_most_headroom_then_seeded_hash() {
        assert_eq!(worst_fit(7, 3, [(0, 10), (1, 30), (2, 20)]), Some(1));
        assert_eq!(worst_fit(7, 3, []), None);
        // Equal headroom: the shard whose seeded hash is higher wins,
        // whatever order the candidates come in.
        let mix = SplitMix64::new(7);
        let hash =
            |index: u64| mix.derive(3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index));
        let expected = if hash(0) > hash(2) { 0 } else { 2 };
        assert_eq!(worst_fit(7, 3, [(0, 10), (2, 10)]), Some(expected));
        assert_eq!(worst_fit(7, 3, [(2, 10), (0, 10)]), Some(expected));
    }

    #[test]
    fn non_harmonic_arrival_is_a_local_reject_and_never_blocks_spillover() {
        let mut fleet =
            Fleet::new(FleetConfig::new(1, PlacementPolicy::FirstFit, 1)).expect("valid config");
        let arrive = |vm: u64, period: u64, budget: u64| FleetEvent::Arrive {
            vm,
            server: PeriodicServer::new(period, budget).expect("valid server"),
            tasks: TaskSet::new(),
        };
        // Two Θ = 31 servers fill the 63 free slots of every 64.
        let mut decisions = Vec::new();
        for event in [
            arrive(0, 64, 31),
            arrive(1, 64, 31),
            // Period 48 does not divide the 4096-slot frame.
            arrive(2, 48, 1),
            arrive(3, 64, 31),
            FleetEvent::Depart { vm: 0 },
        ] {
            decisions.extend(fleet.apply(&event));
        }
        assert_eq!(
            decisions,
            vec![
                Decision::Placed { vm: 0, shard: 0 },
                Decision::Placed { vm: 1, shard: 0 },
                Decision::LocalReject { vm: 2 },
                Decision::Spilled { vm: 3 },
                Decision::Departed { vm: 0, shard: 0 },
                Decision::SpillPlaced { vm: 3, shard: 0 },
            ]
        );
        assert_eq!(fleet.spilled_vms().count(), 0);
    }

    #[test]
    fn canonical_run_is_stable_across_threads() {
        let a = canonical_run(0xD1CE, 1).expect("canonical run");
        let b = canonical_run(0xD1CE, 8).expect("canonical run");
        assert_eq!(a, b);
        assert!(a.lines().count() > 1000);
    }
}
