//! Output-port arbitration.
//!
//! When several input ports want the same output port in the same cycle,
//! the router's arbiter picks one. The legacy baseline's predictability
//! problems (Fig. 1: "R: router/arbiter") come precisely from this shared
//! decision point. Every router arbitrates with [`RoundRobin`], the
//! BlueShell default: a fair, bounded-latency rotation.

/// Rotating-priority (round-robin) arbiter: after granting index `i`, the
/// highest priority moves to `i + 1`, giving every requester a bounded wait.
///
/// # Example
///
/// ```
/// use ioguard_noc::arbiter::RoundRobin;
///
/// let mut rr = RoundRobin::new(3);
/// assert_eq!(rr.grant(&[true, true, true]), Some(0));
/// assert_eq!(rr.grant(&[true, true, true]), Some(1));
/// assert_eq!(rr.grant(&[true, true, true]), Some(2));
/// assert_eq!(rr.grant(&[true, true, true]), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
    size: usize,
}

impl RoundRobin {
    /// Creates a round-robin arbiter over `size` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter needs at least one requester");
        Self { next: 0, size }
    }

    /// Picks the winner among `requests` (true = requesting). Returns the
    /// winning index, or `None` if nobody requests. Called once per output
    /// port per cycle.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.size);
        for offset in 0..self.size {
            let idx = (self.next + offset) % self.size;
            // lint: allow(indexing) — idx < size = requests.len(), by the modulo
            if requests[idx] {
                self.next = (idx + 1) % self.size;
                return Some(idx);
            }
        }
        None
    }

    /// Resets the rotation to start at index 0.
    pub fn reset(&mut self) {
        self.next = 0;
    }

    /// The grant over the five router ports, with the requests as a bitmask
    /// (bit `i` = input `i` requests) and `next` as the rotation pointer.
    /// Picks the same winner and leaves the same pointer as
    /// [`RoundRobin::grant`] over the same requests: the lowest requester
    /// at or above the pointer, else the lowest one below it.
    #[inline]
    pub(crate) fn grant_mask(requests: u8, next: &mut u8) -> Option<usize> {
        if requests == 0 {
            return None;
        }
        let from_next = requests >> *next;
        let winner = if from_next != 0 {
            *next + from_next.trailing_zeros() as u8
        } else {
            requests.trailing_zeros() as u8
        };
        *next = if winner == 4 { 0 } else { winner + 1 };
        Some(usize::from(winner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_under_saturation() {
        let mut rr = RoundRobin::new(4);
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            let winner = rr.grant(&[true, true, true, true]).unwrap();
            grants[winner] += 1;
        }
        assert_eq!(grants, [100, 100, 100, 100]);
    }

    #[test]
    fn round_robin_skips_idle_requesters() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.grant(&[false, false, true]), Some(2));
        assert_eq!(rr.grant(&[true, false, true]), Some(0));
        assert_eq!(rr.grant(&[false, false, false]), None);
    }

    #[test]
    fn round_robin_reset_restores_priority() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant(&[true, true]), Some(0));
        rr.reset();
        assert_eq!(rr.grant(&[true, true]), Some(0));
    }

    #[test]
    fn round_robin_bounded_waiting() {
        // A requester never waits more than size-1 grants.
        let mut rr = RoundRobin::new(5);
        let mut waited = 0;
        for round in 0..100 {
            let mut req = [true; 5];
            // Requester 4 always requests; others flicker.
            for (i, r) in req.iter_mut().enumerate().take(4) {
                *r = (round + i) % 2 == 0;
            }
            if rr.grant(&req) == Some(4) {
                waited = 0;
            } else {
                waited += 1;
                assert!(waited < 5, "round-robin must bound waiting");
            }
        }
    }

    #[test]
    fn mask_grant_equals_the_policies_on_every_request_set() {
        for requests in 0u8..32 {
            let flags: [bool; 5] = std::array::from_fn(|i| requests & (1 << i) != 0);
            for pointer in 0..5u8 {
                let mut rr = RoundRobin::new(5);
                rr.next = usize::from(pointer);
                let mut next = pointer;
                let winner = RoundRobin::grant_mask(requests, &mut next);
                // The tuple reads `rr.next` after `rr.grant` has moved it.
                let (expected, expected_next) = (rr.grant(&flags), rr.next);
                assert_eq!(
                    (winner, usize::from(next)),
                    (expected, expected_next),
                    "mask {requests:05b}, pointer {pointer}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_size_round_robin_panics() {
        let _ = RoundRobin::new(0);
    }
}
