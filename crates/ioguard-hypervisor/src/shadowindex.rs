//! Tournament-tree index over the per-VM shadow registers.
//!
//! The G-Sched hardware compares all shadow registers *simultaneously* with
//! a comparator tree whose root holds the global winner (Sec. III-A). This
//! module models that tree: one leaf per VM carrying the VM's shadow key,
//! internal nodes carrying the minimum of their children. Reading the
//! winner is O(1) (the root); refreshing one VM's register after a pool
//! mutation is O(log V) (one root-to-leaf path) — so global-EDF slot
//! selection no longer touches every pool, let alone every pool entry.
//!
//! Ordering matches the linear scan it replaces exactly: the key is the
//! lexicographic `(deadline, task_id, vm)`, i.e. earliest deadline, ties by
//! task id, then by VM index.

// lint: allow(indexing, file) — `tree` has fixed length 2·cap; update()
// asserts vm < vms ≤ cap, so the leaf cap+vm and the halving root path
// (node ≥ 1, children 2·node and 2·node+1 < 2·cap) stay in bounds.

/// A fully-resolved comparator key: `(deadline, task_id, vm)`.
pub type ShadowKey = (u64, u64, usize);

/// The comparator tree. `None` at a leaf means "this VM's pool is empty";
/// `None` at the root means no VM has runnable work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowIndex {
    /// Number of VMs (true leaves).
    vms: usize,
    /// Leaf capacity, rounded up to a power of two so the tree is perfect.
    cap: usize,
    /// 1-indexed implicit binary tree: `tree[1]` is the root, leaves start
    /// at `tree[cap]`. Length `2 * cap`.
    tree: Vec<Option<ShadowKey>>,
}

impl ShadowIndex {
    /// Builds an empty index for `vms` VMs.
    ///
    /// # Panics
    ///
    /// Panics if `vms` is zero.
    pub fn new(vms: usize) -> Self {
        assert!(vms > 0, "at least one VM");
        let cap = vms.next_power_of_two();
        Self {
            vms,
            cap,
            tree: vec![None; 2 * cap],
        }
    }

    /// Number of VMs the index covers.
    pub fn vms(&self) -> usize {
        self.vms
    }

    /// Installs VM `vm`'s shadow key — `Some((deadline, task_id))` from the
    /// pool's register, or `None` when the pool is empty — and re-resolves
    /// the comparator path to the root. O(log V).
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn update(&mut self, vm: usize, key: Option<(u64, u64)>) {
        assert!(vm < self.vms, "vm {vm} out of range ({} VMs)", self.vms);
        let mut node = self.cap + vm;
        self.tree[node] = key.map(|(deadline, task_id)| (deadline, task_id, vm));
        while node > 1 {
            node /= 2;
            self.tree[node] = match (self.tree[2 * node], self.tree[2 * node + 1]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }

    /// The global winner: the minimum `(deadline, task_id, vm)` over all
    /// non-empty pools. O(1) — it sits at the root.
    pub fn min(&self) -> Option<ShadowKey> {
        self.tree[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_has_no_winner() {
        let idx = ShadowIndex::new(5);
        assert_eq!(idx.min(), None);
        assert_eq!(idx.vms(), 5);
    }

    #[test]
    fn min_tracks_updates_and_clears() {
        let mut idx = ShadowIndex::new(3);
        idx.update(0, Some((100, 1)));
        assert_eq!(idx.min(), Some((100, 1, 0)));
        idx.update(2, Some((50, 9)));
        assert_eq!(idx.min(), Some((50, 9, 2)));
        idx.update(1, Some((75, 2)));
        assert_eq!(idx.min(), Some((50, 9, 2)));
        idx.update(2, None); // pool drained
        assert_eq!(idx.min(), Some((75, 2, 1)));
        idx.update(1, None);
        idx.update(0, None);
        assert_eq!(idx.min(), None);
    }

    #[test]
    fn ties_break_by_task_then_vm() {
        let mut idx = ShadowIndex::new(4);
        idx.update(3, Some((10, 5)));
        idx.update(1, Some((10, 5)));
        // Same (deadline, task): lower VM index wins.
        assert_eq!(idx.min(), Some((10, 5, 1)));
        idx.update(2, Some((10, 3)));
        // Lower task id beats lower VM.
        assert_eq!(idx.min(), Some((10, 3, 2)));
    }

    #[test]
    fn non_power_of_two_vm_counts() {
        for vms in [1usize, 2, 3, 5, 6, 7, 9] {
            let mut idx = ShadowIndex::new(vms);
            for vm in 0..vms {
                idx.update(vm, Some((vm as u64 + 10, 1)));
            }
            assert_eq!(idx.min(), Some((10, 1, 0)), "vms = {vms}");
            idx.update(0, None);
            if vms > 1 {
                assert_eq!(idx.min(), Some((11, 1, 1)), "vms = {vms}");
            } else {
                assert_eq!(idx.min(), None);
            }
        }
    }

    #[test]
    fn matches_linear_scan_under_random_updates() {
        // Pseudo-random update sequence cross-checked against a naive scan.
        let mut idx = ShadowIndex::new(6);
        let mut naive: Vec<Option<(u64, u64)>> = vec![None; 6];
        let mut state = 0x9E37_79B9u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let vm = (state >> 33) as usize % 6;
            let clear = (state >> 13).is_multiple_of(4);
            let key = if clear {
                None
            } else {
                Some(((state >> 20) % 64, (state >> 7) % 16))
            };
            idx.update(vm, key);
            naive[vm] = key;
            let expect = naive
                .iter()
                .enumerate()
                .filter_map(|(v, k)| k.map(|(d, t)| (d, t, v)))
                .min();
            assert_eq!(idx.min(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_bad_vm() {
        let mut idx = ShadowIndex::new(2);
        idx.update(2, Some((1, 1)));
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_rejected() {
        let _ = ShadowIndex::new(0);
    }
}
