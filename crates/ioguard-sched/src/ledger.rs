//! O(Δ)-incremental G-Sched admission: the persistent [`DemandLedger`].
//!
//! Theorem 1 asks `Σ dbf(Γ_i, t) ≤ sbf(σ, t)` for all `t`. The batch
//! checkers in [`crate::gsched`] re-sweep the merged step-event stream of
//! the *whole* population on every change — exact, but O(hyper-period) per
//! join/leave. At fleet scale (10⁵ arrivals against 10⁴ residents) the
//! sweep is the admission bottleneck, so this module keeps the analysis
//! *materialized* instead: a dense **slack envelope** `slack(t) = sbf(σ, t)
//! − Σ dbf(Γ_i, t)` over a fixed analysis frame, stored in a lazy segment
//! tree with range-add, range-min and leftmost-negative search.
//!
//! Admitting a server `Γ = (Π, Θ)` only touches the checkpoints its delta
//! events can violate: `dbf(Γ, ·)` steps by `Θ` at each of the `frame/Π`
//! multiples of `Π`, so `admit` is `frame/Π` suffix range-subtractions at
//! O(log frame) each — **O(Δ log frame)**, independent of the resident
//! population. `evict` applies the exact integer inverses. The resident
//! set is schedulable iff the envelope is non-negative everywhere, and the
//! leftmost negative slot is exactly the violation the full sweep reports.
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

use crate::demand::StepEvents;
use crate::error::SchedError;
use crate::gsched::GschedVerdict;
use crate::table::TimeSlotTable;
use crate::task::PeriodicServer;

/// Hard cap on the analysis frame: the envelope is dense, so the frame is
/// a memory commitment (two `i64` per slot plus tree overhead).
pub const MAX_FRAME: u64 = 1 << 22;

/// What one `admit`/`evict`/`probe` actually did: the work a decision
/// costs, counted rather than timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmitStats {
    /// Delta events applied (or probed): `frame / Π` for the changed
    /// server — the only checkpoints the delta can violate.
    pub delta_events: u64,
    /// Envelope checkpoints (slots) covered by those delta events; equals
    /// `frame + 1 - Π` (every slot from the first jump on).
    pub checkpoints_touched: u64,
}

/// Outcome of a [`DemandLedger::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmitOutcome {
    /// The G-Sched verdict for the resident set *plus* the candidate. On
    /// `Schedulable` the candidate is now resident; on `Unschedulable`
    /// the envelope was rolled back and the resident set is unchanged.
    pub verdict: GschedVerdict,
    /// Work actually done.
    pub stats: AdmitStats,
}

impl AdmitOutcome {
    /// True when the candidate was admitted.
    pub fn admitted(&self) -> bool {
        self.verdict.is_schedulable()
    }
}

/// The persistent incremental admission state for one σ\*: the dense slack
/// envelope plus the resident server set (see the module docs).
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
/// assert_eq!(ledger.resident_count(), 1); // rolled back
/// ledger.evict(7)?;
/// assert!(ledger.admit(9, hog)?.admitted());
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandLedger {
    sigma: TimeSlotTable,
    frame: u64,
    envelope: SlackEnvelope,
    residents: BTreeMap<u64, PeriodicServer>,
    /// Lifetime count of delta events applied (admits, evicts, rollbacks).
    events_applied: u64,
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

    /// Lifetime count of delta events applied by this ledger.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Minimum slack anywhere in the frame (≥ 0 by the resident
    /// invariant).
    pub fn min_slack(&self) -> i64 {
        self.envelope.min_all()
    }

    /// Slack at `t = frame`: the integer bandwidth headroom of the
    /// resident set (`sbf(frame) − Σ dbf(frame)`), used by worst-fit
    /// placement.
    pub fn headroom(&self) -> i64 {
        self.envelope
            .value_at(self.frame.saturating_sub(1) as usize)
    }

    /// The G-Sched verdict for the current resident set: always
    /// `Schedulable` with `checked_up_to = frame` — rejected admissions
    /// are rolled back before returning.
    pub fn verdict(&self) -> GschedVerdict {
        GschedVerdict::Schedulable {
            checked_up_to: self.frame,
        }
    }

    /// Work an admit/probe of `server` performs, without doing it.
    pub fn delta_stats(&self, server: &PeriodicServer) -> AdmitStats {
        let events = self.frame / server.period();
        AdmitStats {
            delta_events: events,
            checkpoints_touched: self.frame.saturating_sub(server.period()).saturating_add(1),
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

    /// Applies the delta events of `server` to the envelope with the given
    /// sign (−Θ for admit, +Θ for evict). Exact integer inverse pairs.
    fn apply_delta(&mut self, server: &PeriodicServer, sign: i64) {
        let step = i64::try_from(server.budget()).unwrap_or(i64::MAX);
        for (t, _) in StepEvents::server(server, self.frame) {
            // Event at `t` shifts every slot from `t` on: suffix range-add
            // over leaf indices [t-1, frame-1] (leaf i holds slot i+1).
            let lo = t.saturating_sub(1) as usize;
            self.envelope.range_add(
                lo,
                self.frame.saturating_sub(1) as usize,
                sign.saturating_mul(step),
            );
            self.events_applied = self.events_applied.saturating_add(1);
        }
    }

    /// Read-only feasibility probe: would admitting `server` keep the
    /// envelope non-negative? O(Δ log frame), no mutation.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidFrame`] when the server period does not divide
    /// the frame.
    pub fn probe(&self, server: &PeriodicServer) -> Result<bool, SchedError> {
        self.require_harmonic(server)?;
        let step = i64::try_from(server.budget()).unwrap_or(i64::MAX);
        let pi = server.period();
        let mut m = 1u64;
        let mut at = pi;
        while at <= self.frame {
            // Slots in [at, at + Π) carry m full extra budgets of demand.
            let hi_slot = at.saturating_add(pi).saturating_sub(1).min(self.frame);
            let lo = at.saturating_sub(1) as usize;
            let hi = hi_slot.saturating_sub(1) as usize;
            let need = i64::try_from(m).unwrap_or(i64::MAX).saturating_mul(step);
            if self.envelope.range_min(lo, hi) < need {
                return Ok(false);
            }
            m = m.saturating_add(1);
            at = at.saturating_add(pi);
        }
        Ok(true)
    }

    /// Admits `server` as `id`, touching only the `frame/Π` checkpoints
    /// its delta can violate. On a violation the envelope is rolled back
    /// exactly (integer inverses) and the verdict reports the leftmost
    /// violating slot, byte-equal to what [`theorem1_frame`] finds.
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
        self.apply_delta(&server, -1);
        let verdict = match self.envelope.leftmost_negative() {
            None => {
                self.residents.insert(id, server);
                GschedVerdict::Schedulable {
                    checked_up_to: self.frame,
                }
            }
            Some(idx) => {
                let t = (idx as u64).saturating_add(1);
                let slack = self.envelope.value_at(idx);
                let supply = self.sigma.sbf(t);
                // demand = sbf − slack, exact in i64 (slack < 0 here).
                let demand = u64::try_from(
                    i64::try_from(supply)
                        .unwrap_or(i64::MAX)
                        .saturating_sub(slack),
                )
                .unwrap_or(0);
                self.apply_delta(&server, 1);
                GschedVerdict::Unschedulable {
                    violation_at: t,
                    demand,
                    supply,
                }
            }
        };
        Ok(AdmitOutcome { verdict, stats })
    }

    /// Evicts resident `id`, applying the exact inverse delta events.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownVm`] when `id` is not resident.
    pub fn evict(&mut self, id: u64) -> Result<PeriodicServer, SchedError> {
        let Some(server) = self.residents.remove(&id) else {
            return Err(SchedError::UnknownVm { id });
        };
        self.apply_delta(&server, 1);
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
/// (leaf `i` holds `slack(i+1)`) supporting suffix range-add, range-min
/// and leftmost-negative search, all O(log frame).
///
/// Lazy adds are stored *applied at the node* (`vals[node]` already
/// includes `pend[node]`), so updates never push down; queries accumulate
/// the pending adds of strict ancestors on the way down.
#[derive(Debug, Clone, PartialEq)]
struct SlackEnvelope {
    /// Leaves in use.
    n: usize,
    /// Leaf capacity (next power of two ≥ n); leaves live at
    /// `[size, size + n)`, padding holds `i64::MAX`.
    size: usize,
    /// Subtree minima, each including the node's own pending add.
    vals: Vec<i64>,
    /// Pending adds, applied to `vals[node]` but not yet to descendants.
    pend: Vec<i64>,
}

impl SlackEnvelope {
    /// Builds the envelope for an empty resident set: `slack(t) = sbf(σ,
    /// t)` for `t ∈ 1..=frame`.
    fn from_supply(sigma: &TimeSlotTable, frame: u64) -> Self {
        let n = frame as usize;
        let size = n.next_power_of_two().max(1);
        let mut vals = vec![i64::MAX; size.saturating_mul(2)];
        for i in 0..n {
            let t = (i as u64).saturating_add(1);
            vals[size + i] = i64::try_from(sigma.sbf(t)).unwrap_or(i64::MAX);
        }
        for node in (1..size).rev() {
            vals[node] = vals[2 * node].min(vals[2 * node + 1]);
        }
        Self {
            n,
            size,
            vals,
            pend: vec![0; size.saturating_mul(2)],
        }
    }

    /// Adds `delta` to every leaf in `[lo, hi]` (inclusive, 0-based).
    fn range_add(&mut self, lo: usize, hi: usize, delta: i64) {
        if lo > hi || lo >= self.n {
            return;
        }
        self.add_rec(1, 0, self.size - 1, lo, hi.min(self.n - 1), delta);
    }

    fn add_rec(
        &mut self,
        node: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
        delta: i64,
    ) {
        if hi < node_lo || node_hi < lo {
            return;
        }
        if lo <= node_lo && node_hi <= hi {
            self.vals[node] = self.vals[node].saturating_add(delta);
            self.pend[node] = self.pend[node].saturating_add(delta);
            return;
        }
        let mid = node_lo + (node_hi - node_lo) / 2;
        self.add_rec(2 * node, node_lo, mid, lo, hi, delta);
        self.add_rec(2 * node + 1, mid + 1, node_hi, lo, hi, delta);
        self.vals[node] = self.vals[2 * node]
            .min(self.vals[2 * node + 1])
            .saturating_add(self.pend[node]);
    }

    /// Minimum over all leaves in use.
    fn min_all(&self) -> i64 {
        if self.n == 0 {
            return i64::MAX;
        }
        self.range_min(0, self.n - 1)
    }

    /// Minimum over leaves `[lo, hi]` (inclusive, 0-based).
    fn range_min(&self, lo: usize, hi: usize) -> i64 {
        if lo > hi || lo >= self.n {
            return i64::MAX;
        }
        self.min_rec(1, 0, self.size - 1, lo, hi.min(self.n - 1), 0)
    }

    fn min_rec(
        &self,
        node: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
        acc: i64,
    ) -> i64 {
        if hi < node_lo || node_hi < lo {
            return i64::MAX;
        }
        if lo <= node_lo && node_hi <= hi {
            return self.vals[node].saturating_add(acc);
        }
        let mid = node_lo + (node_hi - node_lo) / 2;
        let down = acc.saturating_add(self.pend[node]);
        self.min_rec(2 * node, node_lo, mid, lo, hi, down)
            .min(self.min_rec(2 * node + 1, mid + 1, node_hi, lo, hi, down))
    }

    /// The value at leaf `i` (0-based).
    fn value_at(&self, i: usize) -> i64 {
        if i >= self.n {
            return i64::MAX;
        }
        let mut acc = 0i64;
        let mut node = 1usize;
        while node < self.size {
            acc = acc.saturating_add(self.pend[node]);
            let bit_span = self.size >> (node.ilog2() + 1);
            let left_hi = leaf_base(node, self.size) + bit_span - 1;
            node = if i <= left_hi { 2 * node } else { 2 * node + 1 };
        }
        self.vals[node].saturating_add(acc)
    }

    /// The leftmost leaf (0-based) with a negative value, if any.
    fn leftmost_negative(&self) -> Option<usize> {
        if self.n == 0 || self.vals[1] >= 0 {
            return None;
        }
        let mut acc = 0i64;
        let mut node = 1usize;
        while node < self.size {
            acc = acc.saturating_add(self.pend[node]);
            let left = 2 * node;
            if self.vals[left].saturating_add(acc) < 0 {
                node = left;
            } else {
                node = left + 1;
            }
        }
        let idx = node - self.size;
        // Padding leaves hold i64::MAX and can never be negative.
        (idx < self.n).then_some(idx)
    }
}

/// First leaf index covered by `node` in a perfect tree with `size`
/// leaves.
fn leaf_base(node: usize, size: usize) -> usize {
    let depth = node.ilog2();
    let span = size >> depth;
    (node - (1usize << depth)) * span
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
        // The envelope and resident set roll back byte-exactly (only the
        // lifetime events_applied counter keeps counting).
        assert_eq!(
            ledger.envelope, before.envelope,
            "rollback must be byte-exact"
        );
        assert_eq!(ledger.residents, before.residents);
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
        assert_eq!(s.checkpoints_touched, 64 - 16 + 1);
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
        /// Random join/leave churn with harmonic periods: after every
        /// operation the incremental envelope byte-equals the full
        /// re-sweep, and every admit verdict byte-equals the sweep on
        /// residents + candidate.
        #[test]
        fn ledger_matches_full_sweep_under_churn(
            seed in 0u64..500,
            ops in 4usize..40,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rand = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m.max(1)
            };
            let h = [4u64, 8, 16][rand(3) as usize];
            let occupied: Vec<u64> = (0..rand(h / 2 + 1)).map(|_| rand(h)).collect();
            let table = sigma(h, &occupied);
            let frame = h * [4u64, 8, 16][rand(3) as usize];
            let mut ledger = DemandLedger::new(table.clone(), frame).unwrap();
            let mut next_id = 0u64;
            for _ in 0..ops {
                let evict = ledger.resident_count() > 0 && rand(3) == 0;
                if evict {
                    let ids: Vec<u64> = ledger.residents().map(|(id, _)| id).collect();
                    let id = ids[rand(ids.len() as u64) as usize];
                    ledger.evict(id).unwrap();
                } else {
                    // Harmonic period: a divisor-multiple of h that divides frame.
                    let mut pi = h;
                    while rand(2) == 1 && pi * 2 <= frame && frame.is_multiple_of(pi * 2) {
                        pi *= 2;
                    }
                    let theta = 1 + rand(pi);
                    let s = server(pi, theta);
                    let mut candidate: Vec<PeriodicServer> =
                        ledger.residents().map(|(_, r)| *r).collect();
                    candidate.push(s);
                    let reference = theorem1_frame(&table, &candidate, frame);
                    let out = ledger.admit(next_id, s).unwrap();
                    prop_assert_eq!(out.verdict, reference, "admit verdict differs");
                    next_id += 1;
                }
                // The persistent state always equals a from-scratch sweep.
                prop_assert_eq!(ledger.verify_full(), ledger.verdict());
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
    fn envelope_leftmost_negative_and_point_queries() {
        let table = sigma(4, &[]);
        let mut env = SlackEnvelope::from_supply(&table, 10);
        // slack(t) = t on a fully-free table.
        for i in 0..10 {
            assert_eq!(env.value_at(i), i as i64 + 1);
        }
        assert_eq!(env.leftmost_negative(), None);
        env.range_add(3, 9, -6);
        // Slots 4..=7 now negative (4-6, 5-6, 6-6=0 not negative...):
        // values: 1,2,3,-2,-1,0,1,2,3,4.
        assert_eq!(env.leftmost_negative(), Some(3));
        assert_eq!(env.value_at(3), -2);
        assert_eq!(env.range_min(0, 2), 1);
        assert_eq!(env.range_min(4, 9), -1);
        env.range_add(3, 9, 6);
        assert_eq!(env.leftmost_negative(), None);
        assert_eq!(env.min_all(), 1);
    }
}
