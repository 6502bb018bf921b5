//! G-Sched schedulability tests: allocating free time slots to VMs.
//!
//! The global layer schedules the periodic server tasks `{Γ_i}` on the free
//! slots of σ by EDF. **Theorem 1** gives the exact condition
//! `∀t ≥ 0: Σ dbf(Γ_i, t) ≤ sbf(σ, t)`; checking it naively requires going up
//! to the LCM of `{H} ∪ {Π_i}` (exponential in the input values).
//! **Theorem 2** bounds the check to `t < F·(H−1)/H / c` whenever the system
//! keeps slack `F/H − Σ Θ_i/Π_i ≥ c > 0`.

use crate::demand::DemandSweep;
use crate::error::SchedError;
use crate::table::TimeSlotTable;
use crate::task::{checked_lcm, PeriodicServer};

/// Outcome of a G-Sched test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GschedVerdict {
    /// All servers receive their budgets: each VM `i` gets at least `Θ_i`
    /// free slots in every `Π_i`.
    Schedulable {
        /// Largest `t` that was actually checked.
        checked_up_to: u64,
    },
    /// A violation `Σ dbf > sbf` was found.
    Unschedulable {
        /// The interval length at which demand first exceeds supply.
        violation_at: u64,
        /// Demand at the violation point.
        demand: u64,
        /// Supply at the violation point.
        supply: u64,
    },
}

impl GschedVerdict {
    /// True for the schedulable outcome.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, GschedVerdict::Schedulable { .. })
    }
}

// Demand is a right-continuous step function that only increases at the
// multiples of the `Π_i` and supply is non-decreasing, so checking the jump
// points is exact. `DemandSweep::servers` merges the per-server event
// streams and carries the running demand, so each jump point costs O(log n)
// instead of an O(n) re-summation.

/// **Theorem 1** (exact): servers `{Γ_i}` are guaranteed their budgets on σ
/// iff `Σ dbf(Γ_i, t) ≤ sbf(σ, t)` for all `t ≥ 0`.
///
/// The check enumerates demand jump points up to
/// `lcm({H} ∪ {Π_i})`; beyond one such hyper-period both sides repeat with a
/// fixed increment, so (together with the bandwidth precondition
/// `Σ Θ_i/Π_i ≤ F/H`, which is checked first) the prefix is exact.
///
/// # Errors
///
/// Returns [`SchedError::HyperPeriodOverflow`] if the LCM overflows `u64` or
/// exceeds `max_hyper_period`.
///
/// # Example
///
/// ```
/// use ioguard_sched::gsched::theorem1_exact;
/// use ioguard_sched::table::TimeSlotTable;
/// use ioguard_sched::task::PeriodicServer;
///
/// let sigma = TimeSlotTable::from_occupied(10, &[0, 1])?;
/// let servers = [PeriodicServer::new(5, 2)?, PeriodicServer::new(10, 3)?];
/// assert!(theorem1_exact(&sigma, &servers, 1_000_000)?.is_schedulable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem1_exact(
    sigma: &TimeSlotTable,
    servers: &[PeriodicServer],
    max_hyper_period: u64,
) -> Result<GschedVerdict, SchedError> {
    // Necessary bandwidth condition: total server bandwidth within the free
    // fraction. If it fails, demand eventually outruns supply.
    let bandwidth: f64 = servers.iter().map(PeriodicServer::bandwidth).sum();
    let hyper = servers
        .iter()
        .map(PeriodicServer::period)
        .try_fold(sigma.len(), checked_lcm)
        .ok_or(SchedError::HyperPeriodOverflow { limit: 0 })?;
    if hyper > max_hyper_period {
        return Err(SchedError::HyperPeriodOverflow {
            limit: max_hyper_period,
        });
    }
    // lint: allow(unchecked-arith) — an f64 comparison with a rounding margin, not slot arithmetic
    if bandwidth > sigma.free_fraction() + 1e-12 {
        // Find the violation constructively for the report: scan multiples.
        for (t, demand) in DemandSweep::servers(servers, hyper.saturating_mul(4)) {
            let supply = sigma.sbf(t);
            if demand > supply {
                return Ok(GschedVerdict::Unschedulable {
                    violation_at: t,
                    demand,
                    supply,
                });
            }
        }
        // Over-utilized but no integer violation within 4 hyper-periods can
        // only happen with floating-point hair-splitting; treat the exact
        // integer arithmetic as authoritative.
    }
    for (t, demand) in DemandSweep::servers(servers, hyper) {
        let supply = sigma.sbf(t);
        if demand > supply {
            return Ok(GschedVerdict::Unschedulable {
                violation_at: t,
                demand,
                supply,
            });
        }
    }
    Ok(GschedVerdict::Schedulable {
        checked_up_to: hyper,
    })
}

/// **Theorem 2** (pseudo-polynomial): for systems with slack
/// `F/H − Σ Θ_i/Π_i ≥ c > 0`, the Theorem 1 condition holds iff it holds for
/// all `t < F·(H−1)/H / c`.
///
/// # Errors
///
/// Returns [`SchedError::SlackTooSmall`] when the slack is below `c` — the
/// theorem's precondition fails (the paper notes this excludes only the
/// measure-zero boundary `F/H = Σ Θ/Π`).
///
/// # Example
///
/// ```
/// use ioguard_sched::gsched::theorem2_pseudo_poly;
/// use ioguard_sched::table::TimeSlotTable;
/// use ioguard_sched::task::PeriodicServer;
///
/// let sigma = TimeSlotTable::from_occupied(10, &[0, 1])?;
/// let servers = [PeriodicServer::new(5, 2)?];
/// assert!(theorem2_pseudo_poly(&sigma, &servers, 0.01)?.is_schedulable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem2_pseudo_poly(
    sigma: &TimeSlotTable,
    servers: &[PeriodicServer],
    c: f64,
) -> Result<GschedVerdict, SchedError> {
    assert!(c > 0.0, "the constant c must be positive");
    let bandwidth: f64 = servers.iter().map(PeriodicServer::bandwidth).sum();
    let slack = sigma.free_fraction() - bandwidth;
    if slack < c {
        return Err(SchedError::SlackTooSmall { slack, required: c });
    }
    let f = sigma.free_slots() as f64;
    let h = sigma.len() as f64;
    // Theorem 2 bound: t* < F·(H−1)/H / c.
    let bound = (f * (h - 1.0) / h / c).ceil() as u64;
    for (t, demand) in DemandSweep::servers(servers, bound) {
        let supply = sigma.sbf(t);
        if demand > supply {
            return Ok(GschedVerdict::Unschedulable {
                violation_at: t,
                demand,
                supply,
            });
        }
    }
    Ok(GschedVerdict::Schedulable {
        checked_up_to: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma(len: u64, occupied: &[u64]) -> TimeSlotTable {
        TimeSlotTable::from_occupied(len, occupied).unwrap()
    }

    fn server(pi: u64, theta: u64) -> PeriodicServer {
        PeriodicServer::new(pi, theta).unwrap()
    }

    #[test]
    fn empty_server_set_is_trivially_schedulable() {
        let t = sigma(8, &[0]);
        assert!(theorem1_exact(&t, &[], 1 << 20).unwrap().is_schedulable());
        assert!(theorem2_pseudo_poly(&t, &[], 0.01)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn single_server_fits_free_capacity() {
        // F/H = 0.8; server bandwidth 0.4.
        let t = sigma(10, &[0, 1]);
        let servers = [server(5, 2)];
        assert!(theorem1_exact(&t, &servers, 1 << 20)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn over_utilized_servers_rejected() {
        // F/H = 0.5 but total server bandwidth = 0.9.
        let t = sigma(10, &[0, 1, 2, 3, 4]);
        let servers = [server(10, 5), server(10, 4)];
        let v = theorem1_exact(&t, &servers, 1 << 20).unwrap();
        assert!(!v.is_schedulable());
        if let GschedVerdict::Unschedulable {
            violation_at,
            demand,
            supply,
        } = v
        {
            assert!(demand > supply);
            assert!(violation_at > 0);
        }
    }

    #[test]
    fn bandwidth_fits_but_blackout_kills_it() {
        // Table 20 slots: slots 0..10 occupied, 10..20 free → F/H = 0.5.
        // Server Π=4, Θ=2 (bandwidth 0.5 — fits on average) but the table's
        // 10-slot blackout cannot give Θ=2 every Π=4. The sweep stops at
        // the first violation: dbf(4) = 2 > sbf(4) = 0.
        let occ: Vec<u64> = (0..10).collect();
        let t = sigma(20, &occ);
        let servers = [server(4, 2)];
        assert_eq!(
            theorem1_exact(&t, &servers, 1 << 20).unwrap(),
            GschedVerdict::Unschedulable {
                violation_at: 4,
                demand: 2,
                supply: 0
            }
        );
    }

    #[test]
    fn theorems_1_and_2_agree_on_random_systems() {
        // Deterministic pseudo-random sweep: theorem 2 (when applicable) must
        // agree with theorem 1 verdicts exactly.
        let mut state = 0x1234_5678_u64;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut applicable = 0;
        for _ in 0..200 {
            let h = 4 + rand(12); // H in 4..16
            let occ_count = rand(h / 2 + 1);
            let occupied: Vec<u64> = (0..occ_count).map(|_| rand(h)).collect();
            let t = sigma(h, &occupied);
            let n = 1 + rand(3);
            let servers: Vec<PeriodicServer> = (0..n)
                .map(|_| {
                    let pi = 2 + rand(14);
                    let theta = 1 + rand(pi);
                    server(pi, theta)
                })
                .collect();
            let exact = theorem1_exact(&t, &servers, 1 << 24).unwrap();
            match theorem2_pseudo_poly(&t, &servers, 0.01) {
                Ok(pseudo) => {
                    applicable += 1;
                    assert_eq!(
                        exact.is_schedulable(),
                        pseudo.is_schedulable(),
                        "H={h} occ={occupied:?} servers={servers:?}"
                    );
                }
                Err(SchedError::SlackTooSmall { .. }) => {
                    // Precondition failed; theorem 2 makes no claim.
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(applicable > 20, "sweep should exercise theorem 2");
    }

    #[test]
    fn theorem2_requires_slack() {
        // F/H exactly equals bandwidth: 0.5 = 0.5.
        let t = sigma(2, &[0]);
        let servers = [server(2, 1)];
        assert!(matches!(
            theorem2_pseudo_poly(&t, &servers, 0.01),
            Err(SchedError::SlackTooSmall { .. })
        ));
        // Theorem 1 still decides it.
        assert!(theorem1_exact(&t, &servers, 1 << 20)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn hyper_period_limit_enforced() {
        let t = sigma(7, &[]);
        let servers = [server(11, 1), server(13, 1)];
        // lcm(7, 11, 13) = 1001 > 1000.
        assert!(matches!(
            theorem1_exact(&t, &servers, 1000),
            Err(SchedError::HyperPeriodOverflow { limit: 1000 })
        ));
        assert!(theorem1_exact(&t, &servers, 1001).is_ok());
    }

    #[test]
    fn verdict_reports_checked_bound() {
        let t = sigma(10, &[0]);
        let servers = [server(5, 1)];
        match theorem1_exact(&t, &servers, 1 << 20).unwrap() {
            GschedVerdict::Schedulable { checked_up_to } => assert_eq!(checked_up_to, 10),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn full_free_table_admits_full_bandwidth() {
        let t = sigma(4, &[]);
        // Σ Θ/Π = 1.0 = F/H. Exact test must accept a perfectly packed
        // harmonic system: Π=4,Θ=2 twice.
        let servers = [server(4, 2), server(4, 2)];
        assert!(theorem1_exact(&t, &servers, 1 << 20)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn theorem2_rejects_nonpositive_c() {
        let t = sigma(4, &[]);
        let _ = theorem2_pseudo_poly(&t, &[], 0.0);
    }
}
