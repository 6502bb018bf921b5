//! The Time Slot Table σ\* and the supply bound function of its free slots.
//!
//! The P-channel allocates pre-defined I/O jobs into a cyclic schedule σ\* of
//! length `H` slots; the remaining `F` free slots are the supply available to
//! R-channel jobs. Repeating σ\* forever yields the infinite table σ, whose
//! supply bound function `sbf(σ, t)` is computed exactly as in the paper:
//!
//! * for `0 ≤ t ≤ H − 1`, by enumerating every sliding window of length `t`
//!   over one period and taking the minimum (Eq. 1, the `enum` look-up
//!   table);
//! * for `t ≥ H`, by `sbf(σ, t) = sbf(σ, t mod H) + ⌊t/H⌋·F` (Eq. 2).

// lint: allow(indexing, file) — every mask/enum-table index is reduced
// modulo the table length H (or range-checked against it) first, and the
// prefix array of build_enum_table has length 2H+1 with indices ≤ 2H.

use std::sync::OnceLock;

use crate::error::SchedError;

/// A cyclic time slot table σ\* of length `H`: each slot is either occupied
/// by a pre-defined (P-channel) I/O job or free for R-channel jobs.
///
/// # Example
///
/// ```
/// use ioguard_sched::table::TimeSlotTable;
///
/// // H = 4, slot 0 occupied by the P-channel → F = 3 free slots per period.
/// let sigma = TimeSlotTable::from_occupied(4, &[0])?;
/// assert_eq!(sigma.len(), 4);
/// assert_eq!(sigma.free_slots(), 3);
/// // Worst window of length 2 contains the occupied slot: only 1 free slot.
/// assert_eq!(sigma.sbf(2), 1);
/// // One full period always supplies exactly F.
/// assert_eq!(sigma.sbf(4), 3);
/// # Ok::<(), ioguard_sched::SchedError>(())
/// ```
#[derive(Debug)]
pub struct TimeSlotTable {
    /// `free[s]` is true when slot `s` is available to the R-channel.
    free: Vec<bool>,
    /// Cached count of free slots (F).
    free_count: u64,
    /// Lazily built Eq. 1 look-up table: `enum_table[t] = sbf(σ, t)` for
    /// `0 ≤ t ≤ H − 1`. Construction is O(H²), so it is deferred until the
    /// first `sbf` query — the hypervisor's executor never needs it.
    enum_table: OnceLock<Vec<u64>>,
}

impl Clone for TimeSlotTable {
    fn clone(&self) -> Self {
        let enum_table = OnceLock::new();
        if let Some(t) = self.enum_table.get() {
            let _ = enum_table.set(t.clone());
        }
        Self {
            free: self.free.clone(),
            free_count: self.free_count,
            enum_table,
        }
    }
}

impl PartialEq for TimeSlotTable {
    fn eq(&self, other: &Self) -> bool {
        self.free == other.free
    }
}

impl Eq for TimeSlotTable {}

impl TimeSlotTable {
    /// Builds a table of length `len` where the listed slot indices are
    /// occupied by the P-channel and all others are free.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTable`] if `len` is zero or an index is
    /// out of range. Duplicate indices are allowed and collapse.
    pub fn from_occupied(len: u64, occupied: &[u64]) -> Result<Self, SchedError> {
        if len == 0 {
            return Err(SchedError::InvalidTable {
                reason: "table length must be positive".into(),
            });
        }
        let mut free = vec![true; len as usize];
        for &idx in occupied {
            if idx >= len {
                return Err(SchedError::InvalidTable {
                    reason: format!("occupied slot {idx} out of range for length {len}"),
                });
            }
            free[idx as usize] = false;
        }
        Ok(Self::from_free_mask(free))
    }

    /// Builds a table from an explicit free-slot mask (`true` = free).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTable`] if the mask is empty.
    pub fn from_mask(free: Vec<bool>) -> Result<Self, SchedError> {
        if free.is_empty() {
            return Err(SchedError::InvalidTable {
                reason: "table length must be positive".into(),
            });
        }
        Ok(Self::from_free_mask(free))
    }

    fn from_free_mask(free: Vec<bool>) -> Self {
        let free_count = free.iter().filter(|&&f| f).count() as u64;
        Self {
            free,
            free_count,
            enum_table: OnceLock::new(),
        }
    }

    /// Table length `H` in slots.
    pub fn len(&self) -> u64 {
        self.free.len() as u64
    }

    /// True when the table has zero length (never constructible; kept for
    /// the `len`/`is_empty` pairing convention).
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Number of free slots `F` per period.
    pub fn free_slots(&self) -> u64 {
        self.free_count
    }

    /// Fraction of free slots `F / H`.
    pub fn free_fraction(&self) -> f64 {
        self.free_count as f64 / self.len() as f64
    }

    /// True when slot `t` of the *infinite* table σ is free (wraps modulo
    /// `H`).
    pub fn is_free(&self, t: u64) -> bool {
        self.free[(t % self.len()) as usize]
    }

    /// The Eq. 1 look-up table: `enum(t) = sbf(σ, t)` for `0 ≤ t < H`.
    ///
    /// Built on first use (O(H²) once, then cached).
    pub fn enum_table(&self) -> &[u64] {
        self.enum_table.get_or_init(|| build_enum_table(&self.free))
    }

    /// The supply bound function `sbf(σ, t)`: the minimum number of free
    /// slots in *any* window of `t` consecutive slots of σ (Eqs. 1–2).
    ///
    /// # Example
    ///
    /// ```
    /// use ioguard_sched::table::TimeSlotTable;
    ///
    /// let sigma = TimeSlotTable::from_occupied(5, &[0, 1])?;
    /// assert_eq!(sigma.sbf(0), 0);
    /// assert_eq!(sigma.sbf(5), 3); // exactly F per period
    /// assert_eq!(sigma.sbf(12), 3 + 3 + sigma.sbf(2));
    /// # Ok::<(), ioguard_sched::SchedError>(())
    /// ```
    pub fn sbf(&self, t: u64) -> u64 {
        let h = self.len();
        let table = self.enum_table();
        if t < h {
            table[t as usize]
        } else {
            // Eq. 2: sbf(σ, t) = sbf(σ, t mod H) + ⌊t/H⌋·F. Saturation is
            // sound: a clamped result still lower-bounds the true supply.
            table[(t % h) as usize].saturating_add((t / h).saturating_mul(self.free_count))
        }
    }

    /// Free slots in the *specific* window `[start, start + len)` of σ
    /// (not the minimum over windows). Used by the slot-level simulators.
    pub fn supply_in_window(&self, start: u64, len: u64) -> u64 {
        let h = self.len();
        let full_periods = len / h;
        let mut total = full_periods.saturating_mul(self.free_count);
        let rem = len % h;
        for off in 0..rem {
            if self.is_free(start.saturating_add(off)) {
                total += 1;
            }
        }
        total
    }

    /// Iterator over the free-slot mask of one period.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.free.iter().copied()
    }
}

/// Brute-force construction of the Eq. 1 table: for each window length
/// `t ∈ [0, H)`, the minimum free-slot count over all `H` circular window
/// positions. O(H²) once per table; tables in this system are at most a few
/// thousand slots.
fn build_enum_table(free: &[bool]) -> Vec<u64> {
    let h = free.len();
    // Prefix sums over two periods make circular windows O(1).
    let mut prefix = vec![0u64; 2 * h + 1];
    for i in 0..2 * h {
        prefix[i + 1] = prefix[i].saturating_add(u64::from(free[i % h]));
    }
    let mut table = vec![0u64; h];
    for (t, entry) in table.iter_mut().enumerate().skip(1) {
        let mut min_supply = u64::MAX;
        for start in 0..h {
            let supply = prefix[start + t] - prefix[start];
            min_supply = min_supply.min(supply);
        }
        *entry = min_supply;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(len: u64, occupied: &[u64]) -> TimeSlotTable {
        TimeSlotTable::from_occupied(len, occupied).unwrap()
    }

    /// Reference sbf: direct minimum over a long unrolled horizon.
    fn sbf_reference(t: &TimeSlotTable, len: u64) -> u64 {
        let h = t.len();
        let mut min_supply = u64::MAX;
        for start in 0..h {
            min_supply = min_supply.min(t.supply_in_window(start, len));
        }
        min_supply
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert!(TimeSlotTable::from_occupied(0, &[]).is_err());
        assert!(TimeSlotTable::from_occupied(4, &[4]).is_err());
        assert!(TimeSlotTable::from_mask(vec![]).is_err());
    }

    #[test]
    fn duplicate_occupied_indices_collapse() {
        let t = table(4, &[1, 1, 1]);
        assert_eq!(t.free_slots(), 3);
    }

    #[test]
    fn counts_free_slots() {
        let t = table(10, &[0, 3, 7]);
        assert_eq!(t.len(), 10);
        assert_eq!(t.free_slots(), 7);
        assert!((t.free_fraction() - 0.7).abs() < 1e-12);
        assert!(!t.is_free(0));
        assert!(t.is_free(1));
        assert!(!t.is_free(13)); // wraps: 13 % 10 = 3
    }

    #[test]
    fn sbf_zero_is_zero() {
        let t = table(8, &[0, 1]);
        assert_eq!(t.sbf(0), 0);
    }

    #[test]
    fn sbf_full_period_is_f() {
        for occupied in [vec![], vec![0], vec![0, 4], vec![1, 2, 3]] {
            let t = table(8, &occupied);
            assert_eq!(t.sbf(8), t.free_slots());
            assert_eq!(t.sbf(16), 2 * t.free_slots());
        }
    }

    #[test]
    fn sbf_matches_window_enumeration_below_h() {
        let t = table(12, &[0, 1, 5, 9]);
        for len in 0..12 {
            assert_eq!(t.sbf(len), sbf_reference(&t, len), "len = {len}");
        }
    }

    #[test]
    fn sbf_eq2_extension_matches_enumeration_above_h() {
        let t = table(7, &[2, 3]);
        for len in 7..40 {
            assert_eq!(t.sbf(len), sbf_reference(&t, len), "len = {len}");
        }
    }

    #[test]
    fn sbf_is_monotone_and_subadditive_margin() {
        let t = table(16, &[0, 2, 3, 8, 9, 10, 15]);
        let mut prev = 0;
        for len in 0..64 {
            let s = t.sbf(len);
            assert!(s >= prev, "sbf must be non-decreasing");
            // Each extra slot adds at most one unit of supply.
            assert!(s <= prev + 1 || len == 0);
            prev = s;
        }
    }

    #[test]
    fn sbf_worst_window_straddles_boundary() {
        // Occupied slots at both ends: worst window wraps the period edge.
        let t = table(6, &[0, 5]);
        // Window of length 2 covering slots {5, 0} has zero free slots.
        assert_eq!(t.sbf(2), 0);
        assert_eq!(t.sbf(3), 1);
    }

    #[test]
    fn all_free_table_is_identity() {
        let t = table(5, &[]);
        for len in 0..20 {
            assert_eq!(t.sbf(len), len);
        }
    }

    #[test]
    fn fully_occupied_table_supplies_nothing() {
        let t = table(4, &[0, 1, 2, 3]);
        for len in 0..20 {
            assert_eq!(t.sbf(len), 0);
        }
        assert_eq!(t.free_slots(), 0);
    }

    #[test]
    fn supply_in_window_wraps_and_scales() {
        let t = table(4, &[0]);
        assert_eq!(t.supply_in_window(0, 4), 3);
        assert_eq!(t.supply_in_window(1, 4), 3);
        assert_eq!(t.supply_in_window(0, 8), 6);
        assert_eq!(t.supply_in_window(3, 2), 1); // slots 3 (free), 0 (occ)
        assert_eq!(t.supply_in_window(0, 0), 0);
    }

    #[test]
    fn enum_table_is_eq1() {
        let t = table(6, &[1, 4]);
        assert_eq!(t.enum_table().len(), 6);
        for (len, &val) in t.enum_table().iter().enumerate() {
            assert_eq!(val, t.sbf(len as u64));
        }
    }

    #[test]
    fn iter_yields_one_period() {
        let t = table(4, &[2]);
        let mask: Vec<bool> = t.iter().collect();
        assert_eq!(mask, vec![true, true, false, true]);
    }
}
