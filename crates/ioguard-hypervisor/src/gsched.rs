//! The G-Sched: allocating free slots of σ\* across I/O pools.
//!
//! The hardware compares all shadow registers simultaneously and picks the
//! next run-time task for each free slot. Two policies:
//!
//! * [`GschedPolicy::GlobalEdf`] — the literal micro-architecture: the
//!   earliest deadline among all shadow registers wins the slot.
//! * [`GschedPolicy::ServerBased`] — the variant analyzed in Sec. IV: each
//!   VM is backed by a periodic server `Γ_i = (Π_i, Θ_i)`; among VMs with
//!   remaining budget the earliest *server* deadline wins, and the VM's
//!   pool then runs its own L-Sched winner. This gives hard inter-VM
//!   isolation (a misbehaving VM cannot exceed its budget).

// lint: allow(indexing, file) — server_state has one entry per server by
// construction; every index is an enumerate() index over that same slice or
// over pools, whose length is debug-asserted equal at grant time.

use ioguard_sched::task::PeriodicServer;

use crate::pool::IoPool;
use crate::shadowindex::ShadowIndex;

/// Slot-allocation policy of the G-Sched.
#[derive(Debug, Clone, PartialEq)]
pub enum GschedPolicy {
    /// Pure preemptive EDF over all shadow registers.
    GlobalEdf,
    /// Periodic-server mediated allocation (one server per VM).
    ServerBased(Vec<PeriodicServer>),
    /// EDF over shadow registers, guarded by per-VM server budgets: the
    /// earliest *task* deadline wins (like [`GschedPolicy::GlobalEdf`]), but
    /// a VM that has burned its budget `Θ_i` inside the current period `Π_i`
    /// is throttled — skipped instead of stealing free slots from σ\* — so a
    /// WCET-overrunning or babbling VM cannot crowd out the others.
    GuardedEdf(Vec<PeriodicServer>),
}

/// Run-time state of the G-Sched.
#[derive(Debug, Clone, PartialEq)]
pub struct Gsched {
    policy: GschedPolicy,
    /// Per-VM (remaining budget, current server deadline) — only used by
    /// the server-backed policies.
    server_state: Vec<(u64, u64)>,
    /// Per-VM external throttle windows (`vm` gets no slot while
    /// `now < throttle_until[vm]`); empty until the first throttle.
    throttle_until: Vec<u64>,
    /// Slot of the most recent [`Gsched::tick`].
    now: u64,
}

impl Gsched {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if a server-based policy supplies a different number of
    /// servers than pools will exist (checked at grant time via slice
    /// lengths; construction just snapshots the initial budgets).
    pub fn new(policy: GschedPolicy) -> Self {
        let server_state = match &policy {
            GschedPolicy::GlobalEdf => Vec::new(),
            GschedPolicy::ServerBased(servers) | GschedPolicy::GuardedEdf(servers) => {
                servers.iter().map(|s| (s.budget(), s.period())).collect()
            }
        };
        Self {
            policy,
            server_state,
            throttle_until: Vec::new(),
            now: 0,
        }
    }

    /// Advances server replenishment to slot `now` (no-op for global EDF).
    pub fn tick(&mut self, now: u64) {
        self.now = now;
        if let GschedPolicy::ServerBased(servers) | GschedPolicy::GuardedEdf(servers) = &self.policy
        {
            for (i, server) in servers.iter().enumerate() {
                if now > 0 && now.is_multiple_of(server.period()) {
                    self.server_state[i] = (server.budget(), now.saturating_add(server.period()));
                }
            }
        }
    }

    /// Opens an external throttle window: VM `vm` receives no free slot
    /// while `now < until` regardless of policy (flood-control escalation;
    /// an out-of-range `vm` is ignored).
    pub fn throttle(&mut self, vm: usize, until: u64) {
        if self.throttle_until.len() <= vm {
            if vm >= 1 << 20 {
                return; // nonsensical VM index; don't let it size the table
            }
            self.throttle_until.resize(vm + 1, 0);
        }
        self.throttle_until[vm] = self.throttle_until[vm].max(until);
    }

    /// True while VM `vm` sits inside an external throttle window.
    pub fn is_throttled(&self, vm: usize) -> bool {
        self.throttle_until.get(vm).is_some_and(|&u| self.now < u)
    }

    /// True when any slot-denial mechanism can be active: a server-backed
    /// policy, or at least one throttle window ever opened. Callers use
    /// this to skip per-slot denial accounting on the unguarded fast path.
    pub fn has_guards(&self) -> bool {
        !matches!(self.policy, GschedPolicy::GlobalEdf) || !self.throttle_until.is_empty()
    }

    /// True when VM `vm` would be denied a free slot right now even with
    /// buffered work: externally throttled, or budget-exhausted under a
    /// server-backed policy.
    pub fn is_blocked(&self, vm: usize) -> bool {
        if self.is_throttled(vm) {
            return true;
        }
        match self.policy {
            GschedPolicy::GlobalEdf => false,
            GschedPolicy::ServerBased(_) | GschedPolicy::GuardedEdf(_) => {
                self.server_state.get(vm).is_none_or(|s| s.0 == 0)
            }
        }
    }

    /// Picks the VM that receives this free slot, inspecting the pools'
    /// shadow registers. Returns `None` when no eligible pool has work.
    ///
    /// This is the reference path; the hypervisor's hot loop uses
    /// [`Gsched::grant_indexed`] with a maintained comparator tree instead.
    pub fn grant(&mut self, pools: &[IoPool]) -> Option<usize> {
        match &self.policy {
            GschedPolicy::GlobalEdf => pools
                .iter()
                .enumerate()
                .filter(|(vm, _)| !self.is_throttled(*vm))
                .filter_map(|(vm, p)| p.shadow_key().map(|(d, t)| (d, t, vm)))
                .min()
                .map(|(_, _, vm)| vm),
            GschedPolicy::ServerBased(_) => self.grant_server_based(pools),
            GschedPolicy::GuardedEdf(_) => self.grant_guarded_edf(pools),
        }
    }

    /// Picks the VM that receives this free slot using the pre-resolved
    /// comparator tree over shadow registers.
    ///
    /// Global EDF reads the winner off the tree root in O(1); the
    /// server-based policy compares per-VM server deadlines (O(V) over the
    /// VM count, never over pool contents). Behaviour is identical to
    /// [`Gsched::grant`] as long as `index` mirrors the pools' shadow
    /// registers.
    pub fn grant_indexed(&mut self, pools: &[IoPool], index: &ShadowIndex) -> Option<usize> {
        match &self.policy {
            GschedPolicy::GlobalEdf => {
                let winner = index.min().map(|(_, _, vm)| vm);
                match winner {
                    // Fast path: comparator-tree winner is not throttled.
                    Some(vm) if !self.is_throttled(vm) => Some(vm),
                    // A throttle window is open on the winner: fall back to
                    // the filtered linear scan (rare; throttles only exist
                    // under active flood control).
                    Some(_) => self.grant(pools),
                    None => None,
                }
            }
            GschedPolicy::ServerBased(_) => self.grant_server_based(pools),
            GschedPolicy::GuardedEdf(_) => self.grant_guarded_edf(pools),
        }
    }

    /// EDF over shadow registers restricted to VMs with remaining budget
    /// and no open throttle window; the winner burns one budget slot.
    fn grant_guarded_edf(&mut self, pools: &[IoPool]) -> Option<usize> {
        debug_assert_eq!(self.server_state.len(), pools.len(), "one server per pool");
        let winner = pools
            .iter()
            .enumerate()
            .filter(|(vm, _)| self.server_state[*vm].0 > 0 && !self.is_throttled(*vm))
            .filter_map(|(vm, p)| p.shadow_key().map(|(d, t)| (d, t, vm)))
            .min()
            .map(|(_, _, vm)| vm);
        if let Some(vm) = winner {
            self.server_state[vm].0 -= 1;
        }
        winner
    }

    fn grant_server_based(&mut self, pools: &[IoPool]) -> Option<usize> {
        debug_assert_eq!(self.server_state.len(), pools.len(), "one server per pool");
        let winner = pools
            .iter()
            .enumerate()
            .filter(|(vm, p)| {
                self.server_state[*vm].0 > 0 && !p.is_empty() && !self.is_throttled(*vm)
            })
            .map(|(vm, _)| (self.server_state[vm].1, vm))
            .min();
        if let Some((_, vm)) = winner {
            self.server_state[vm].0 -= 1;
            Some(vm)
        } else {
            None
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &GschedPolicy {
        &self.policy
    }

    /// Remaining budget of VM `vm` (global EDF reports `u64::MAX`; an
    /// out-of-range VM reports zero rather than panicking).
    pub fn remaining_budget(&self, vm: usize) -> u64 {
        match self.policy {
            GschedPolicy::GlobalEdf => u64::MAX,
            GschedPolicy::ServerBased(_) | GschedPolicy::GuardedEdf(_) => {
                self.server_state.get(vm).map_or(0, |s| s.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolEntry;

    fn pool_with(deadlines: &[(u64, u64)]) -> IoPool {
        let mut p = IoPool::new(16);
        for &(task_id, deadline) in deadlines {
            p.insert(PoolEntry {
                task_id,
                deadline,
                remaining: 1,
                enqueued_at: 0,
                first_dispatch: u64::MAX,
                response_bytes: 0,
                critical: true,
            })
            .unwrap();
        }
        p
    }

    #[test]
    fn global_edf_picks_earliest_across_pools() {
        let mut g = Gsched::new(GschedPolicy::GlobalEdf);
        let pools = vec![
            pool_with(&[(1, 100)]),
            pool_with(&[(2, 50)]),
            pool_with(&[(3, 75)]),
        ];
        assert_eq!(g.grant(&pools), Some(1));
    }

    #[test]
    fn global_edf_skips_empty_pools() {
        let mut g = Gsched::new(GschedPolicy::GlobalEdf);
        let pools = vec![pool_with(&[]), pool_with(&[(7, 10)])];
        assert_eq!(g.grant(&pools), Some(1));
        let empty = vec![pool_with(&[]), pool_with(&[])];
        assert_eq!(g.grant(&empty), None);
    }

    #[test]
    fn global_edf_has_unlimited_budget() {
        let g = Gsched::new(GschedPolicy::GlobalEdf);
        assert_eq!(g.remaining_budget(0), u64::MAX);
    }

    #[test]
    fn server_based_consumes_budget() {
        let servers = vec![PeriodicServer::new(10, 2).unwrap()];
        let mut g = Gsched::new(GschedPolicy::ServerBased(servers));
        let pools = vec![pool_with(&[(1, 5), (2, 6), (3, 7)])];
        assert_eq!(g.grant(&pools), Some(0));
        assert_eq!(g.remaining_budget(0), 1);
        assert_eq!(g.grant(&pools), Some(0));
        // Budget exhausted: the pool has work but gets nothing.
        assert_eq!(g.grant(&pools), None);
        assert_eq!(g.remaining_budget(0), 0);
    }

    #[test]
    fn server_based_replenishes_each_period() {
        let servers = vec![PeriodicServer::new(4, 1).unwrap()];
        let mut g = Gsched::new(GschedPolicy::ServerBased(servers));
        let pools = vec![pool_with(&[(1, 100)])];
        assert_eq!(g.grant(&pools), Some(0));
        assert_eq!(g.grant(&pools), None);
        g.tick(4); // period boundary: budget restored
        assert_eq!(g.grant(&pools), Some(0));
    }

    #[test]
    fn server_based_isolates_misbehaving_vm() {
        // VM 0 floods its pool with tight deadlines, VM 1 has one modest
        // job. Under servers, VM 1 still gets slots once VM 0's budget runs
        // out — the paper's inter-VM isolation claim.
        let servers = vec![
            PeriodicServer::new(10, 2).unwrap(),
            PeriodicServer::new(10, 2).unwrap(),
        ];
        let mut g = Gsched::new(GschedPolicy::ServerBased(servers));
        let pools = vec![
            pool_with(&[(1, 1), (2, 2), (3, 3), (4, 4)]),
            pool_with(&[(9, 1000)]),
        ];
        let grants: Vec<Option<usize>> = (0..4).map(|_| g.grant(&pools)).collect();
        // VM 0 wins its 2 budget slots (earlier server deadline tie broken
        // by index), then VM 1 gets served despite its far deadline.
        assert_eq!(grants, vec![Some(0), Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn server_deadline_ordering_controls_grants() {
        // VM 1's server has the earlier deadline after replenishment.
        let servers = vec![
            PeriodicServer::new(20, 5).unwrap(),
            PeriodicServer::new(5, 1).unwrap(),
        ];
        let mut g = Gsched::new(GschedPolicy::ServerBased(servers));
        let pools = vec![pool_with(&[(1, 50)]), pool_with(&[(2, 999)])];
        // Initial deadlines: VM0 = 20, VM1 = 5 → VM1 first despite its task
        // deadline being later (isolation is by server, not task).
        assert_eq!(g.grant(&pools), Some(1));
        assert_eq!(g.grant(&pools), Some(0));
    }

    #[test]
    fn policy_accessor() {
        let g = Gsched::new(GschedPolicy::GlobalEdf);
        assert_eq!(*g.policy(), GschedPolicy::GlobalEdf);
    }

    #[test]
    fn guarded_edf_orders_by_task_deadline_within_budget() {
        // Unlike ServerBased (server-deadline order), GuardedEdf picks the
        // earliest *task* deadline — here VM 1 despite equal servers.
        let servers = vec![
            PeriodicServer::new(10, 2).unwrap(),
            PeriodicServer::new(10, 2).unwrap(),
        ];
        let mut g = Gsched::new(GschedPolicy::GuardedEdf(servers));
        let pools = vec![pool_with(&[(1, 100)]), pool_with(&[(2, 50)])];
        assert_eq!(g.grant(&pools), Some(1));
        assert_eq!(g.remaining_budget(1), 1);
    }

    #[test]
    fn guarded_edf_throttles_overrunning_vm() {
        // VM 0 floods with the tightest deadlines but only holds budget for
        // 2 slots per period — VM 1's single job still gets served.
        let servers = vec![
            PeriodicServer::new(10, 2).unwrap(),
            PeriodicServer::new(10, 2).unwrap(),
        ];
        let mut g = Gsched::new(GschedPolicy::GuardedEdf(servers));
        let pools = vec![
            pool_with(&[(1, 1), (2, 2), (3, 3), (4, 4)]),
            pool_with(&[(9, 1000)]),
        ];
        let grants: Vec<Option<usize>> = (0..3).map(|_| g.grant(&pools)).collect();
        assert_eq!(grants, vec![Some(0), Some(0), Some(1)]);
        assert!(g.is_blocked(0), "budget burned: vm 0 is throttled");
        assert!(!g.is_blocked(1), "vm 1 still holds budget");
        assert_eq!(g.grant(&pools), Some(1));
    }

    #[test]
    fn guarded_edf_replenishes_each_period() {
        let servers = vec![PeriodicServer::new(4, 1).unwrap()];
        let mut g = Gsched::new(GschedPolicy::GuardedEdf(servers));
        let pools = vec![pool_with(&[(1, 100)])];
        assert_eq!(g.grant(&pools), Some(0));
        assert_eq!(g.grant(&pools), None);
        g.tick(4);
        assert_eq!(g.grant(&pools), Some(0));
    }

    #[test]
    fn external_throttle_blocks_all_policies() {
        let mut g = Gsched::new(GschedPolicy::GlobalEdf);
        let pools = vec![pool_with(&[(1, 5)]), pool_with(&[(2, 50)])];
        g.tick(10);
        g.throttle(0, 20);
        assert!(g.is_throttled(0) && g.is_blocked(0));
        // The throttled VM has the earlier deadline but loses the slot.
        assert_eq!(g.grant(&pools), Some(1));
        g.tick(20); // window closed
        assert!(!g.is_throttled(0));
        assert_eq!(g.grant(&pools), Some(0));
    }

    #[test]
    fn throttle_ignores_absurd_vm_index() {
        let mut g = Gsched::new(GschedPolicy::GlobalEdf);
        g.throttle(usize::MAX, 100);
        assert!(!g.is_throttled(usize::MAX));
    }
}
