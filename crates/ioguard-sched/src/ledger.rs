//! O(Δ)-incremental G-Sched admission: the persistent [`DemandLedger`].
//!
//! Theorem 1 asks `Σ dbf(Γ_i, t) ≤ sbf(σ, t)` for all `t`. The batch
//! checkers in [`crate::gsched`] re-sweep the merged step-event stream of
//! the *whole* population on every change — exact, but O(hyper-period) per
//! join/leave. At fleet scale (10⁵ arrivals against 10⁴ residents) the
//! sweep is the admission bottleneck, so this module keeps the analysis
//! *materialized* instead: a dense **slack envelope** `slack(t) = sbf(σ, t)
//! − Σ dbf(Γ_i, t)` over a fixed analysis frame, stored in a lazy segment
//! tree.
//!
//! A server `Γ = (Π, Θ)` adds the demand staircase `Θ·⌊t/Π⌋`, so the
//! ledger needs two primitives over it, both independent of the resident
//! population:
//!
//! - **Search.** `probe`, and `admit` before it changes anything, run one
//!   left-first descent for the earliest slot where `slack(t) < Θ·⌊t/Π⌋`.
//!   A node is skipped when its minimum covers the need at its last slot;
//!   in one step the need is flat, so a node that fails that test holds a
//!   violation. The descent is a loop: a skipped node hands over to its
//!   right sibling, after climbing out of every subtree it finishes. That
//!   is O(frame/Π + log frame) nodes at worst and about log frame in
//!   practice. The slack at slot `frame` — the integer bandwidth
//!   headroom — is also kept as a scalar, moved by every staircase add.
//!   `probe` compares it with the candidate's whole-frame need
//!   `Θ·(frame/Π)` first and rejects in O(1) when it falls short: a probe
//!   only asks whether some slot violates. `admit` descends first and
//!   reads the scalar last, so a rejection names the leftmost violating
//!   slot.
//! - **Staircase add.** `admit` (on acceptance) and `evict` add `∓Θ·⌊t/Π⌋`
//!   in one pass over a single tree level, then recompute the minima
//!   above it. Let `w` be the largest power of two dividing Π. Every step
//!   boundary `m·Π` is a multiple of `w`, so each node `w` slots wide
//!   lies inside one step and takes one lazy add. Only leaf 0, which holds
//!   slot `frame` beside slots `1..w` of step 0, takes its add alone.
//!   Without padding leaves a power-of-two Π (`w = Π`) costs `2·frame/Π +
//!   log₂ Π − 1` nodes: 141 at Π = 2¹⁴, frame 2²⁰. The fleet and serve
//!   frames the benchmark and the CLIs use are powers of two, so every
//!   period they admit is one too. A period with an odd factor `q > 1`
//!   costs about `q` nodes per step, at most `2·frame/w + ⌈log₂ frame⌉`
//!   in all (394 at Π = 3·2¹², frame 3·2¹⁸; about `2·frame` at an odd Π,
//!   where `w = 1`). Only the ledger's own tests admit such periods.
//!
//! A rejected admit changes nothing. The resident set is schedulable iff
//! the envelope is non-negative everywhere, and the leftmost slot below
//! the candidate's staircase is exactly the violation the full sweep
//! reports. The `cost_counters` tests gate [`DemandLedger::nodes_visited`]
//! at `2·(frame/w) + 4·log₂ frame`.
//!
//! # Exactness
//!
//! The frame is required to be a common multiple of `H = σ.len()` and of
//! every admitted server period (enforced with typed errors; the fleet
//! workload generator draws periods from a harmonic menu of frame
//! divisors). Then over one frame both sides repeat with fixed integer
//! increments — `dbf(t + frame) = dbf(t) + dbf(frame)` and `sbf(t + frame)
//! = sbf(t) + F·frame/H` — so `slack(t + k·frame) = slack(t) +
//! k·slack(frame)`, and non-negativity over `(0, frame]` (which includes
//! `t = frame`, subsuming the bandwidth precondition in exact integer
//! arithmetic) is equivalent to non-negativity everywhere. Demand is a
//! right-continuous step function and supply is non-decreasing, so slack
//! is non-decreasing between demand jumps: the leftmost dense violation is
//! always at a jump point, which is what [`theorem1_frame`] visits.
//!
//! A differential proptest (`ledger_matches_full_sweep_under_churn` below,
//! plus the cross-crate `incremental_matches_full` suite) proves the
//! ledger's verdicts byte-equal the full re-sweep under random join/leave
//! churn.

// lint: allow(indexing, file) — the envelope arrays are sized to 2·size at
// construction and every node index stays below 2·size by the tree descent
// invariant (node < size before descending to children 2·node, 2·node+1).

use std::collections::BTreeMap;

use crate::error::SchedError;
use crate::gsched::GschedVerdict;
use crate::table::TimeSlotTable;
use crate::task::PeriodicServer;

/// Hard cap on the analysis frame: the envelope is dense, so the frame is
/// a memory commitment (two `i64` per slot plus tree overhead).
pub const MAX_FRAME: u64 = 1 << 22;

/// What one `admit`/`evict`/`probe` decides over: the candidate's own
/// demand steps, counted rather than timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmitStats {
    /// Delta events the decision covers: `frame / Π` steps of the changed
    /// server — the only checkpoints the delta can violate.
    pub delta_events: u64,
}

/// Outcome of a [`DemandLedger::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmitOutcome {
    /// The G-Sched verdict for the resident set *plus* the candidate. On
    /// `Schedulable` the candidate is now resident; on `Unschedulable`
    /// the ledger was never changed.
    pub verdict: GschedVerdict,
    /// The candidate's delta, applied on `Schedulable` only.
    pub stats: AdmitStats,
}

impl AdmitOutcome {
    /// True when the candidate was admitted.
    pub fn admitted(&self) -> bool {
        self.verdict.is_schedulable()
    }
}

/// The persistent incremental admission state for one σ\*: the dense slack
/// envelope plus the resident server set (see the module docs). Admission
/// searches the envelope once and changes it only on acceptance, with one
/// staircase add; eviction is the inverse add.
///
/// # Example
///
/// ```
/// use ioguard_sched::ledger::DemandLedger;
/// use ioguard_sched::table::TimeSlotTable;
/// use ioguard_sched::task::PeriodicServer;
///
/// let sigma = TimeSlotTable::from_occupied(8, &[0])?;
/// let mut ledger = DemandLedger::new(sigma, 64)?;
/// let vm = PeriodicServer::new(8, 3)?;
/// assert!(ledger.admit(7, vm)?.admitted());
/// assert_eq!(ledger.resident_count(), 1);
/// let hog = PeriodicServer::new(8, 5)?; // 3 + 5 > 7 free per 8 slots
/// assert!(!ledger.admit(9, hog)?.admitted());
/// assert_eq!(ledger.resident_count(), 1); // unchanged
/// ledger.evict(7)?;
/// assert!(ledger.admit(9, hog)?.admitted());
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DemandLedger {
    sigma: TimeSlotTable,
    frame: u64,
    envelope: SlackEnvelope,
    residents: BTreeMap<u64, PeriodicServer>,
    /// Lifetime count of delta events applied (admitted servers and
    /// evictions).
    events_applied: u64,
    /// Lifetime count of envelope nodes `admit` and `evict` visited.
    nodes_visited: u64,
}

/// Two ledgers are equal when they decide alike: same σ\*, frame, envelope
/// and residents. The lifetime work counters are left out, since a
/// rejected `admit` advances `nodes_visited` and changes nothing else.
impl PartialEq for DemandLedger {
    fn eq(&self, other: &Self) -> bool {
        self.sigma == other.sigma
            && self.frame == other.frame
            && self.envelope == other.envelope
            && self.residents == other.residents
    }
}

impl DemandLedger {
    /// Builds an empty ledger over `sigma` with the given analysis frame.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidFrame`] unless `0 < frame ≤ MAX_FRAME` and
    /// `σ.len()` divides `frame`.
    pub fn new(sigma: TimeSlotTable, frame: u64) -> Result<Self, SchedError> {
        if frame == 0 || frame > MAX_FRAME {
            return Err(SchedError::InvalidFrame {
                reason: format!("frame {frame} outside (0, {MAX_FRAME}]"),
            });
        }
        if !frame.is_multiple_of(sigma.len()) {
            return Err(SchedError::InvalidFrame {
                reason: format!("table length {} does not divide frame {frame}", sigma.len()),
            });
        }
        let envelope = SlackEnvelope::from_supply(&sigma, frame);
        Ok(Self {
            sigma,
            frame,
            envelope,
            residents: BTreeMap::new(),
            events_applied: 0,
            nodes_visited: 0,
        })
    }

    /// The time slot table the envelope was built from.
    pub fn sigma(&self) -> &TimeSlotTable {
        &self.sigma
    }

    /// Number of resident servers.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// True when `id` is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.residents.contains_key(&id)
    }

    /// The resident server for `id`, if any.
    pub fn resident(&self, id: u64) -> Option<&PeriodicServer> {
        self.residents.get(&id)
    }

    /// Resident `(id, server)` pairs in ascending id order.
    pub fn residents(&self) -> impl Iterator<Item = (u64, &PeriodicServer)> {
        self.residents.iter().map(|(id, s)| (*id, s))
    }

    /// Lifetime count of delta events applied by this ledger: `frame/Π`
    /// for each admitted server and each eviction, none for a rejection.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Lifetime count of envelope nodes visited by `admit` (search plus
    /// staircase add) and `evict` (staircase add): the search's descent
    /// steps plus every node a level pass adds to or recomputes. `probe`
    /// is read-only and not counted.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }

    /// Minimum slack anywhere in the frame (≥ 0 by the resident
    /// invariant).
    pub fn min_slack(&self) -> i64 {
        self.envelope.min_all()
    }

    /// Slack at `t = frame`: the integer bandwidth headroom of the
    /// resident set (`sbf(frame) − Σ dbf(frame)`), used by worst-fit
    /// placement. O(1): the envelope keeps it as a scalar.
    pub fn headroom(&self) -> i64 {
        self.envelope.at_frame
    }

    /// The G-Sched verdict for the current resident set: always
    /// `Schedulable` with `checked_up_to = frame` — a rejected admission
    /// never changes the ledger.
    pub fn verdict(&self) -> GschedVerdict {
        GschedVerdict::Schedulable {
            checked_up_to: self.frame,
        }
    }

    /// The delta events an admit/probe of `server` decides over, without
    /// doing it.
    pub fn delta_stats(&self, server: &PeriodicServer) -> AdmitStats {
        AdmitStats {
            delta_events: self.frame / server.period(),
        }
    }

    fn require_harmonic(&self, server: &PeriodicServer) -> Result<(), SchedError> {
        if !self.frame.is_multiple_of(server.period()) {
            return Err(SchedError::InvalidFrame {
                reason: format!(
                    "server period {} does not divide frame {} — \
                     incremental exactness needs a harmonic period",
                    server.period(),
                    self.frame
                ),
            });
        }
        Ok(())
    }

    /// Read-only feasibility probe: would admitting `server` keep the
    /// envelope non-negative? The bandwidth check first — `false` at once
    /// when [`Self::headroom`] is below the whole-frame need `Θ·(frame/Π)`
    /// — then one pruned descent. No mutation.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidFrame`] when the server period does not divide
    /// the frame.
    pub fn probe(&self, server: &PeriodicServer) -> Result<bool, SchedError> {
        self.require_harmonic(server)?;
        let need = Staircase::of(server);
        if self.envelope.at_frame < need.at(self.envelope.n) {
            return Ok(false);
        }
        let mut visited = 0;
        Ok(self.envelope.first_below(need, &mut visited).is_none())
    }

    /// Admits `server` as `id`: one search for the leftmost slot its
    /// staircase would push below zero, then, only if there is none, one
    /// staircase add. A rejection leaves the ledger unchanged and reports
    /// that slot, byte-equal to what [`theorem1_frame`] finds.
    ///
    /// # Errors
    ///
    /// [`SchedError::DuplicateVm`] when `id` is already resident,
    /// [`SchedError::InvalidFrame`] when the period is not harmonic.
    pub fn admit(&mut self, id: u64, server: PeriodicServer) -> Result<AdmitOutcome, SchedError> {
        if self.residents.contains_key(&id) {
            return Err(SchedError::DuplicateVm { id });
        }
        self.require_harmonic(&server)?;
        let stats = self.delta_stats(&server);
        let need = Staircase::of(&server);
        let mut visited = 0;
        let verdict = match self.envelope.first_below(need, &mut visited) {
            None => {
                visited = visited.saturating_add(self.envelope.add_staircase(need.negated()));
                self.events_applied = self.events_applied.saturating_add(stats.delta_events);
                self.residents.insert(id, server);
                GschedVerdict::Schedulable {
                    checked_up_to: self.frame,
                }
            }
            Some((t, slack)) => {
                let supply = self.sigma.sbf(t);
                // demand = sbf − slack left by the candidate, exact in i64
                // (that slack is negative here).
                let left = slack.saturating_sub(need.at(t as usize));
                let demand = u64::try_from(
                    i64::try_from(supply)
                        .unwrap_or(i64::MAX)
                        .saturating_sub(left),
                )
                .unwrap_or(0);
                GschedVerdict::Unschedulable {
                    violation_at: t,
                    demand,
                    supply,
                }
            }
        };
        self.nodes_visited = self.nodes_visited.saturating_add(visited);
        Ok(AdmitOutcome { verdict, stats })
    }

    /// Evicts resident `id` with the exact inverse staircase add.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownVm`] when `id` is not resident.
    pub fn evict(&mut self, id: u64) -> Result<PeriodicServer, SchedError> {
        let Some(server) = self.residents.remove(&id) else {
            return Err(SchedError::UnknownVm { id });
        };
        let visited = self.envelope.add_staircase(Staircase::of(&server));
        self.nodes_visited = self.nodes_visited.saturating_add(visited);
        let events = self.delta_stats(&server).delta_events;
        self.events_applied = self.events_applied.saturating_add(events);
        Ok(server)
    }

    /// Full re-sweep reference: Theorem 1 over `(0, frame]` for the
    /// resident set, recomputed from scratch. The differential tests
    /// assert the incremental state always byte-equals this.
    pub fn verify_full(&self) -> GschedVerdict {
        let servers: Vec<PeriodicServer> = self.residents.values().copied().collect();
        theorem1_frame(&self.sigma, &servers, self.frame)
    }
}

/// **Theorem 1 over a harmonic frame** (the ledger's full-recompute
/// reference): sweeps the merged step events of `servers` over
/// `(0, frame]` against `sbf(σ, ·)`. Exact when `σ.len()` and every server
/// period divide `frame` (see the module docs); no floating-point
/// bandwidth precondition is needed because the `t = frame` checkpoint
/// subsumes it in integer arithmetic.
pub fn theorem1_frame(
    sigma: &TimeSlotTable,
    servers: &[PeriodicServer],
    frame: u64,
) -> GschedVerdict {
    for (t, demand) in crate::demand::DemandSweep::servers(servers, frame) {
        let supply = sigma.sbf(t);
        if demand > supply {
            return GschedVerdict::Unschedulable {
                violation_at: t,
                demand,
                supply,
            };
        }
    }
    GschedVerdict::Schedulable {
        checked_up_to: frame,
    }
}

/// The dense slack envelope: a lazy segment tree over slots `1..=frame`
/// with one leaf per slot. Slot `t` sits at leaf `t mod frame`: leaves
/// `1..frame` hold slots `1..frame`, and leaf 0 holds slot `frame`. Node
/// `size/w + j` of the level whose nodes are `w` leaves wide then holds
/// slots `j·w … (j+1)·w − 1`, slot `frame` standing in for slot 0. When
/// `w` divides Π, a staircase of period Π is constant on every node of
/// that level but the first.
///
/// Lazy adds are stored *applied at the node* (`vals[node]` already
/// includes `pend[node]`), so updates never push down; queries accumulate
/// the pending adds of strict ancestors on the way down. The slack at slot
/// `frame` is also kept as a scalar, so reading it never walks the tree.
#[derive(Debug, Clone, PartialEq)]
struct SlackEnvelope {
    /// Leaves in use: the frame.
    n: usize,
    /// Leaf capacity (next power of two ≥ n); leaves live at
    /// `[size, size + n)`, padding holds `i64::MAX` and is never added to.
    size: usize,
    /// Subtree minima, each including the node's own pending add.
    vals: Vec<i64>,
    /// Pending adds, applied to `vals[node]` but not yet to descendants.
    pend: Vec<i64>,
    /// The slack at slot `frame`: leaf 0 plus its ancestors' pending adds.
    at_frame: i64,
}

impl SlackEnvelope {
    /// Builds the envelope for an empty resident set: `slack(t) = sbf(σ,
    /// t)` for `t ∈ 1..=frame`.
    fn from_supply(sigma: &TimeSlotTable, frame: u64) -> Self {
        let n = frame as usize;
        let size = n.next_power_of_two();
        let mut vals = vec![i64::MAX; size.saturating_mul(2)];
        // Eq. 2, sbf(t) = enum(t mod H) + ⌊t/H⌋·F, one table period of
        // leaves at a time (H divides the frame).
        let table = sigma.enum_table();
        let per_table = i64::try_from(sigma.free_slots()).unwrap_or(i64::MAX);
        let mut base = 0i64;
        for leaves in vals[size..size + n].chunks_exact_mut(table.len()) {
            for (leaf, &sbf) in leaves.iter_mut().zip(table) {
                *leaf = base.saturating_add(i64::try_from(sbf).unwrap_or(i64::MAX));
            }
            base = base.saturating_add(per_table);
        }
        // Leaf 0 holds slot `frame`: sbf(frame) = (frame/H)·F.
        vals[size] = base;
        for node in (1..size).rev() {
            vals[node] = vals[2 * node].min(vals[2 * node + 1]);
        }
        Self {
            n,
            size,
            vals,
            pend: vec![0; size.saturating_mul(2)],
            at_frame: base,
        }
    }

    /// Minimum over every slot.
    fn min_all(&self) -> i64 {
        self.vals[1]
    }

    /// The slack at slot `t ∈ 1..=frame`, read from the tree.
    #[cfg(test)]
    fn value_at(&self, t: usize) -> i64 {
        let mut node = self.size + t % self.n;
        let mut value = self.vals[node];
        while node > 1 {
            node /= 2;
            value = value.saturating_add(self.pend[node]);
        }
        value
    }

    /// Recomputes `vals[node]` from its children and its own pending add.
    fn refresh_min(&mut self, node: usize) {
        self.vals[node] = self.vals[2 * node]
            .min(self.vals[2 * node + 1])
            .saturating_add(self.pend[node]);
    }

    /// Adds `stair` to the envelope in one pass over the tree level whose
    /// nodes are `w` leaves wide, `w` the largest power of two dividing Π,
    /// and returns the nodes visited. Every step boundary `m·Π` is a
    /// multiple of `w`, so node `size/w + j` lies in step `⌊j·w/Π⌋` and
    /// takes that step's add, counted up once every `Π/w` nodes. The
    /// first node holds leaf 0 (slot `frame`, step `frame/Π`) beside
    /// slots `1..w` (step 0): leaf 0 takes its add alone and its spine up
    /// to the level is recomputed. Then the minima of every level above
    /// are recomputed over the nodes real slots reach.
    fn add_staircase(&mut self, stair: Staircase) -> u64 {
        let last = stair.at(self.n);
        self.at_frame = self.at_frame.saturating_add(last);
        let w = stair.pi & stair.pi.wrapping_neg();
        let (first, end) = (self.size / w, (self.size + self.n) / w);
        let leaf0 = self.size;
        self.vals[leaf0] = self.vals[leaf0].saturating_add(last);
        self.pend[leaf0] = self.pend[leaf0].saturating_add(last);
        let mut visited = 1;
        let mut node = leaf0 / 2;
        while node >= first {
            self.refresh_min(node);
            node /= 2;
            visited += 1;
        }
        // Step 0 adds nothing; each later step covers Π/w whole nodes.
        let per_step = stair.pi / w;
        let level = first + per_step..end;
        visited += level.len();
        let steps = self.vals[level.clone()]
            .chunks_exact_mut(per_step)
            .zip(self.pend[level].chunks_exact_mut(per_step));
        let mut add = 0i64;
        for (vals, pend) in steps {
            add = add.saturating_add(stair.rise);
            for (val, pending) in vals.iter_mut().zip(pend) {
                *val = val.saturating_add(add);
                *pending = pending.saturating_add(add);
            }
        }
        let (mut lo, mut hi) = (first, end);
        while lo > 1 {
            (lo, hi) = (lo / 2, hi.div_ceil(2));
            for node in lo..hi {
                self.refresh_min(node);
            }
            visited += hi - lo;
        }
        visited as u64
    }

    /// The leftmost slot `t` where `slack(t) < need(t)`, with `slack(t)`:
    /// one left-first descent over slots `1..frame`, then slot `frame`
    /// from the scalar. A node is skipped when its minimum covers the need
    /// at its last leaf, the largest need in it because the staircase
    /// never decreases (leaf 0, slot `frame`, is left to the scalar, and
    /// its value only lowers the minimum). A skipped node hands over to
    /// its right sibling, after climbing out of every subtree it is the
    /// last child of. Adds the nodes visited to `visited`.
    fn first_below(&self, need: Staircase, visited: &mut u64) -> Option<(u64, i64)> {
        // The node covers leaves `[lo, lo + width)`; `above` sums the
        // pending adds of its strict ancestors.
        let (mut node, mut lo, mut width, mut above) = (1, 0, self.size, 0i64);
        loop {
            *visited = visited.saturating_add(1);
            let min = self.vals[node].saturating_add(above);
            if lo < self.n && min < need.at((lo + width - 1).min(self.n - 1)) {
                if width > 1 {
                    above = above.saturating_add(self.pend[node]);
                    (node, width) = (2 * node, width / 2);
                    continue;
                }
                if lo > 0 {
                    return Some((lo as u64, min));
                }
            }
            while node % 2 == 1 {
                if node == 1 {
                    return (self.at_frame < need.at(self.n))
                        .then_some((self.n as u64, self.at_frame));
                }
                node /= 2;
                above = above.saturating_sub(self.pend[node]);
                lo -= width;
                width *= 2;
            }
            node += 1;
            lo += width;
        }
    }
}

/// The demand staircase `rise·⌊t/Π⌋` of one server: `rise = Θ` is the
/// candidate's need at slot `t`, `rise = ±Θ` its admit or evict delta.
#[derive(Debug, Clone, Copy)]
struct Staircase {
    pi: usize,
    /// `log₂ Π` when Π is a power of two, so `⌊t/Π⌋` is a shift.
    shift: Option<u32>,
    rise: i64,
}

impl Staircase {
    /// The staircase `rise·⌊t/Π⌋` with `pi = Π ≥ 1`.
    fn new(pi: usize, rise: i64) -> Self {
        Self {
            pi,
            shift: pi.is_power_of_two().then(|| pi.trailing_zeros()),
            rise,
        }
    }

    /// The need of `server`: `Θ·⌊t/Π⌋`.
    fn of(server: &PeriodicServer) -> Self {
        Self::new(
            usize::try_from(server.period()).unwrap_or(usize::MAX),
            i64::try_from(server.budget()).unwrap_or(i64::MAX),
        )
    }

    /// The same staircase with `rise` negated.
    fn negated(self) -> Self {
        Self {
            rise: self.rise.saturating_neg(),
            ..self
        }
    }

    /// The staircase's value at slot `t`.
    fn at(self, t: usize) -> i64 {
        let steps = match self.shift {
            Some(shift) => t >> shift,
            None => t / self.pi,
        };
        self.rise
            .saturating_mul(i64::try_from(steps).unwrap_or(i64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsched::theorem1_exact;
    use proptest::prelude::*;

    fn sigma(len: u64, occupied: &[u64]) -> TimeSlotTable {
        TimeSlotTable::from_occupied(len, occupied).unwrap()
    }

    fn server(pi: u64, theta: u64) -> PeriodicServer {
        PeriodicServer::new(pi, theta).unwrap()
    }

    #[test]
    fn empty_ledger_is_schedulable_with_full_slack() {
        let ledger = DemandLedger::new(sigma(8, &[0, 1]), 64).unwrap();
        assert_eq!(ledger.verdict(), ledger.verify_full());
        assert_eq!(ledger.min_slack(), 0); // sbf(1) = 0 for an occupied head
        assert_eq!(ledger.headroom(), 6 * (64 / 8)); // F per H, 8 frames
    }

    #[test]
    fn frame_preconditions_are_typed_errors() {
        assert!(matches!(
            DemandLedger::new(sigma(10, &[]), 0),
            Err(SchedError::InvalidFrame { .. })
        ));
        assert!(matches!(
            DemandLedger::new(sigma(10, &[]), 25),
            Err(SchedError::InvalidFrame { .. })
        ));
        assert!(matches!(
            DemandLedger::new(sigma(10, &[]), MAX_FRAME + 10),
            Err(SchedError::InvalidFrame { .. })
        ));
        let mut ok = DemandLedger::new(sigma(10, &[]), 100).unwrap();
        assert!(matches!(
            ok.admit(1, server(7, 1)),
            Err(SchedError::InvalidFrame { .. })
        ));
        assert!(matches!(
            ok.probe(&server(7, 1)),
            Err(SchedError::InvalidFrame { .. })
        ));
    }

    #[test]
    fn duplicate_and_unknown_ids_are_typed_errors() {
        let mut ledger = DemandLedger::new(sigma(8, &[]), 64).unwrap();
        assert!(ledger.admit(3, server(8, 1)).unwrap().admitted());
        assert!(matches!(
            ledger.admit(3, server(8, 1)),
            Err(SchedError::DuplicateVm { id: 3 })
        ));
        assert!(matches!(
            ledger.evict(4),
            Err(SchedError::UnknownVm { id: 4 })
        ));
    }

    #[test]
    fn admit_reject_rolls_back_exactly() {
        let mut ledger = DemandLedger::new(sigma(10, &[0, 1]), 40).unwrap();
        assert!(ledger.admit(0, server(5, 2)).unwrap().admitted());
        let before = ledger.clone();
        // 2/5 + 3/5 = 1.0 > 0.8 free fraction: rejected.
        let out = ledger.admit(1, server(5, 3)).unwrap();
        assert!(!out.admitted());
        // A rejection leaves the ledger equal; only the lifetime
        // nodes_visited counter counts its search.
        assert_eq!(ledger, before, "a rejection must leave the ledger equal");
        assert!(ledger.nodes_visited() > before.nodes_visited());
        assert_eq!(ledger.events_applied(), before.events_applied());
        assert_eq!(ledger.verify_full(), ledger.verdict());
    }

    #[test]
    fn rejection_verdict_matches_full_sweep() {
        let mut ledger = DemandLedger::new(sigma(10, &[0, 1]), 40).unwrap();
        assert!(ledger.admit(0, server(5, 2)).unwrap().admitted());
        let bad = server(5, 3);
        let out = ledger.admit(1, bad).unwrap();
        let mut servers: Vec<PeriodicServer> = ledger.residents().map(|(_, s)| *s).collect();
        servers.push(bad);
        assert_eq!(out.verdict, theorem1_frame(ledger.sigma(), &servers, 40));
    }

    #[test]
    fn probe_agrees_with_admit_and_never_mutates() {
        let mut ledger = DemandLedger::new(sigma(8, &[0]), 64).unwrap();
        assert!(ledger.admit(0, server(8, 3)).unwrap().admitted());
        let snapshot = ledger.clone();
        for theta in 1..=8 {
            let s = server(8, theta);
            let events_before = ledger.events_applied();
            let probed = ledger.probe(&s).unwrap();
            assert_eq!(
                ledger.envelope, snapshot.envelope,
                "probe must be read-only"
            );
            assert_eq!(ledger.residents, snapshot.residents);
            assert_eq!(ledger.events_applied(), events_before);
            let admitted = ledger.admit(99, s).unwrap().admitted();
            assert_eq!(probed, admitted, "theta = {theta}");
            if admitted {
                ledger.evict(99).unwrap();
            }
            assert_eq!(ledger.envelope, snapshot.envelope);
            assert_eq!(ledger.residents, snapshot.residents);
        }
    }

    #[test]
    fn bandwidth_first_probe_agrees_with_admit_and_the_full_sweep() {
        // The free slots come late in the table, so sbf(t) = 0 up to t = 4
        // and the early slots are the tight ones: sbf = 0 0 0 0 1 2 3 4
        // over the first table period, 8 at the frame.
        let table = sigma(8, &[0, 1, 2, 3]);
        let frame = 16;
        let mut ledger = DemandLedger::new(table.clone(), frame).unwrap();
        assert_eq!(ledger.headroom(), 8);
        // (Π, Θ, leftmost violating slot): 9 > 8 only at the frame, so the
        // bandwidth check alone rejects it; ⌊t/2⌋ passes the bandwidth
        // check (8 ≤ 8) but exceeds sbf at slots 2, 4, 6, 10, 12 and 14,
        // which only the descent sees; 2·⌊t/8⌋ fits.
        let candidates = [(16, 9, Some(16)), (2, 1, Some(2)), (8, 2, None)];
        for (id, (pi, theta, violation)) in candidates.into_iter().enumerate() {
            let s = server(pi, theta);
            let within_bandwidth = ledger.headroom() >= (theta * (frame / pi)) as i64;
            assert_eq!(within_bandwidth, violation != Some(frame), "Π = {pi}");
            let mut candidate: Vec<PeriodicServer> = ledger.residents().map(|(_, r)| *r).collect();
            candidate.push(s);
            let reference = theorem1_frame(&table, &candidate, frame);
            let probed = ledger.probe(&s).unwrap();
            let out = ledger.admit(id as u64, s).unwrap();
            assert_eq!(out.verdict, reference, "Π = {pi}");
            assert_eq!(probed, out.admitted(), "Π = {pi}");
            assert_eq!(probed, reference.is_schedulable(), "Π = {pi}");
            match out.verdict {
                GschedVerdict::Unschedulable { violation_at, .. } => {
                    assert_eq!(Some(violation_at), violation, "Π = {pi}");
                }
                GschedVerdict::Schedulable { .. } => assert_eq!(violation, None, "Π = {pi}"),
            }
        }
        assert_eq!(ledger.resident_count(), 1);
        assert_eq!(ledger.headroom(), 8 - 2 * 2);
    }

    #[test]
    fn headroom_tracks_bandwidth() {
        let mut ledger = DemandLedger::new(sigma(8, &[]), 64).unwrap();
        assert_eq!(ledger.headroom(), 64);
        ledger.admit(0, server(8, 3)).unwrap();
        assert_eq!(ledger.headroom(), 64 - 8 * 3);
        ledger.admit(1, server(16, 4)).unwrap();
        assert_eq!(ledger.headroom(), 64 - 8 * 3 - 4 * 4);
        ledger.evict(0).unwrap();
        assert_eq!(ledger.headroom(), 64 - 4 * 4);
    }

    #[test]
    fn delta_stats_report_only_the_delta() {
        let ledger = DemandLedger::new(sigma(8, &[]), 64).unwrap();
        let s = ledger.delta_stats(&server(16, 2));
        assert_eq!(s.delta_events, 4);
    }

    #[test]
    fn agrees_with_theorem1_exact_on_harmonic_systems() {
        // When the frame is a common multiple the ledger and the lcm-bound
        // exact test must agree on schedulability.
        let table = sigma(8, &[0, 5]);
        let mut ledger = DemandLedger::new(table.clone(), 128).unwrap();
        let mut resident: Vec<PeriodicServer> = Vec::new();
        for (id, (pi, theta)) in [(8u64, 2u64), (16, 3), (32, 4), (8, 1), (16, 5)]
            .into_iter()
            .enumerate()
        {
            let s = server(pi, theta);
            let mut candidate = resident.clone();
            candidate.push(s);
            let exact = theorem1_exact(&table, &candidate, 1 << 20).unwrap();
            let out = ledger.admit(id as u64, s).unwrap();
            assert_eq!(
                out.admitted(),
                exact.is_schedulable(),
                "id {id}: ledger vs theorem1_exact"
            );
            if out.admitted() {
                resident.push(s);
            }
        }
    }

    proptest! {
        /// Random join/leave churn over tables of any length H, frames
        /// `H·k` and periods that divide the frame, so some frames leave
        /// padding leaves and some steps cut through nodes. After every
        /// operation the incremental envelope byte-equals the full
        /// re-sweep, every admit verdict byte-equals the sweep on
        /// residents + candidate, `probe` agrees with `admit`, and a
        /// rejected admit leaves the ledger unchanged.
        #[test]
        fn ledger_matches_full_sweep_under_churn(
            seed in any::<u64>(),
            ops in 4usize..40,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rand = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m.max(1)
            };
            let h = [3u64, 4, 5, 6, 8, 10, 12, 16][rand(8) as usize];
            let occupied: Vec<u64> = (0..rand(h / 2 + 1)).map(|_| rand(h)).collect();
            let table = sigma(h, &occupied);
            let frame = h * (1 + rand(12));
            let periods: Vec<u64> = (1..=frame).filter(|d| frame.is_multiple_of(*d)).collect();
            let mut ledger = DemandLedger::new(table.clone(), frame).unwrap();
            let mut next_id = 0u64;
            for _ in 0..ops {
                let evict = ledger.resident_count() > 0 && rand(3) == 0;
                if evict {
                    let ids: Vec<u64> = ledger.residents().map(|(id, _)| id).collect();
                    let id = ids[rand(ids.len() as u64) as usize];
                    ledger.evict(id).unwrap();
                } else {
                    let pi = periods[rand(periods.len() as u64) as usize];
                    let theta = 1 + rand(pi);
                    let s = server(pi, theta);
                    let mut candidate: Vec<PeriodicServer> =
                        ledger.residents().map(|(_, r)| *r).collect();
                    candidate.push(s);
                    let reference = theorem1_frame(&table, &candidate, frame);
                    let before = ledger.clone();
                    let probed = ledger.probe(&s).unwrap();
                    let out = ledger.admit(next_id, s).unwrap();
                    prop_assert_eq!(out.verdict, reference, "admit verdict differs");
                    prop_assert_eq!(probed, out.admitted(), "probe differs from admit");
                    if !out.admitted() {
                        prop_assert_eq!(&ledger.envelope, &before.envelope);
                        prop_assert_eq!(&ledger.residents, &before.residents);
                        prop_assert_eq!(ledger.events_applied(), before.events_applied());
                    }
                    next_id += 1;
                }
                // The persistent state always equals a from-scratch sweep.
                prop_assert_eq!(ledger.verify_full(), ledger.verdict());
                // The frame-end scalar is sbf(frame) − Σ Θ·(frame/Π).
                let need: u64 = ledger
                    .residents()
                    .map(|(_, r)| r.budget() * (frame / r.period()))
                    .sum();
                prop_assert_eq!(ledger.headroom(), table.sbf(frame) as i64 - need as i64);
                // And a rebuilt ledger over the same residents is identical.
                let mut rebuilt = DemandLedger::new(table.clone(), frame).unwrap();
                for (id, s) in ledger.residents() {
                    prop_assert!(rebuilt.admit(id, *s).unwrap().admitted());
                }
                prop_assert_eq!(&rebuilt.envelope, &ledger.envelope);
            }
        }
    }

    #[test]
    fn envelope_staircase_add_and_first_below() {
        // Frame 12 over a fully free table: slack(t) = t. The tree has 16
        // leaves: leaves 1..=11 hold slots 1..=11, leaf 0 holds slot 12,
        // and leaves 12..=15 are padding.
        let mut env = SlackEnvelope::from_supply(&sigma(4, &[]), 12);
        let fresh = env.clone();
        let stair = Staircase::new;
        let slacks = |env: &SlackEnvelope| (1..=12).map(|t| env.value_at(t)).collect::<Vec<_>>();
        let first = |env: &SlackEnvelope, need| env.first_below(need, &mut 0);
        assert_eq!(slacks(&env), (1..=12).collect::<Vec<i64>>());
        assert_eq!(env.min_all(), 1);

        // Nothing is below ⌊t/4⌋; 5·⌊t/4⌋ first exceeds t at t = 4; and
        // 13·⌊t/12⌋ exceeds t only at t = 12, the slot held by leaf 0.
        assert_eq!(first(&env, stair(4, 1)), None);
        assert_eq!(first(&env, stair(4, 5)), Some((4, 4)));
        assert_eq!(first(&env, stair(12, 13)), Some((12, 12)));

        // Π = 4 steps on node boundaries: t − 3·⌊t/4⌋.
        env.add_staircase(stair(4, -3));
        assert_eq!(slacks(&env), [1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3]);
        // Π = 3 cuts through nodes: t − 3·⌊t/4⌋ − ⌊t/3⌋.
        env.add_staircase(stair(3, -1));
        assert_eq!(slacks(&env), [1, 2, 2, 0, 1, 1, 2, 0, 0, 1, 2, -1]);
        assert_eq!(env.min_all(), -1);
        // The frame-end scalar moves with the tree's slot 12.
        assert_eq!(env.at_frame, env.value_at(12));

        // Only slot 12 is negative; when other slots fall below the need
        // too, the leftmost of them is reported, never leaf 0 first.
        assert_eq!(first(&env, stair(12, 0)), Some((12, -1)));
        assert_eq!(first(&env, stair(4, 1)), Some((4, 0)));
        assert_eq!(first(&env, stair(1, 2)), Some((1, 1)));

        // The exact inverses restore a byte-equal envelope.
        env.add_staircase(stair(3, 1));
        env.add_staircase(stair(4, 3));
        assert_eq!(env, fresh);
    }

    #[test]
    fn level_pass_matches_a_per_slot_envelope() {
        // Frames 12, 24 and 96 leave padding leaves, 16 none; their
        // divisors include odd factors and odd periods (`w = 1`).
        for frame in [12usize, 16, 24, 96] {
            let table = sigma(4, &[0]);
            let mut env = SlackEnvelope::from_supply(&table, frame as u64);
            let fresh = env.clone();
            let mut slack: Vec<i64> = (0..=frame).map(|t| table.sbf(t as u64) as i64).collect();
            // Longest period first: Π = frame moves only slot `frame`, and
            // its −20 makes that slot the minimum.
            let stairs: Vec<Staircase> = (1..=frame)
                .rev()
                .filter(|pi| frame.is_multiple_of(*pi))
                .zip([-20, 7, -3, 11].into_iter().cycle())
                .map(|(pi, rise)| Staircase::new(pi, rise))
                .collect();
            let inverses = stairs.iter().rev().map(|stair| stair.negated());
            for stair in stairs.iter().copied().chain(inverses) {
                env.add_staircase(stair);
                for (t, value) in slack.iter_mut().enumerate().skip(1) {
                    *value += stair.rise * (t / stair.pi) as i64;
                }
                let tree: Vec<i64> = (1..=frame).map(|t| env.value_at(t)).collect();
                assert_eq!(tree, slack[1..], "frame {frame}, Π = {}", stair.pi);
                assert_eq!(
                    env.min_all(),
                    *slack[1..].iter().min().unwrap(),
                    "frame {frame}, Π = {}",
                    stair.pi
                );
                assert_eq!(
                    env.at_frame,
                    env.value_at(frame),
                    "frame {frame}, Π = {}",
                    stair.pi
                );
            }
            assert_eq!(
                env, fresh,
                "frame {frame}: the inverses must restore the envelope"
            );
        }
    }
}
