//! Work-stealing experiment engine.
//!
//! The Fig. 7 sweep runs thousands of independent trials whose durations
//! vary wildly — an overloaded Legacy trial floods its FIFOs and takes many
//! times longer than an I/O-GUARD trial at base load. Static chunking
//! (splitting the task list up front, one chunk per thread) leaves every
//! other core idle while the unlucky chunk finishes; this engine instead
//! schedules at *task* granularity with work stealing, so the wall clock
//! tracks total work divided by core count.
//!
//! Design:
//!
//! * Each worker owns a deque of task indices, seeded round-robin. It pops
//!   from the front of its own deque and, when empty, steals the back half
//!   of a victim's deque — the classic stealing split that moves bulk work
//!   once instead of an index at a time.
//! * Results carry their task index and are scattered back into input
//!   order, so the output is **independent of the interleaving**: callers
//!   aggregate in a fixed order and get bit-identical summaries whether the
//!   run used one thread or sixteen.
//! * `threads == 1` runs inline on the caller's thread — no spawn, same
//!   results, which the determinism tests exploit.
//!
//! Each worker reads the clock twice per run, around its whole task loop,
//! not around every task: a caller with a handful of sub-microsecond
//! tasks (the fleet's shard probes) would otherwise pay more for the
//! timing than for the work. The runs' busy seconds are summed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Aggregate counters of one or more engine runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Workers used by the largest run merged in.
    pub workers: usize,
    /// Successful steal operations (bulk transfers, not items moved).
    pub steals: u64,
    /// Wall-clock seconds each worker spent in its task loop, summed over
    /// workers and runs.
    busy_seconds: f64,
}

impl EngineStats {
    /// Folds another run's counters into this one.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.tasks += other.tasks;
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.busy_seconds += other.busy_seconds;
    }

    /// Total busy seconds across all workers: each worker's task loop,
    /// from its first task to its last, including the deque operations.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }
}

/// Resolves a thread-count request: `0` means "all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Runs `f(index, &items[index])` for every item, distributing the indices
/// over `threads` work-stealing workers (`0` = all cores), and returns the
/// results **in input order** plus the run's counters.
///
/// The scatter-by-index design makes the output deterministic: for a pure
/// `f`, any thread count yields the same `Vec<R>`.
pub fn run_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, EngineStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len());
    if items.is_empty() {
        return (Vec::new(), EngineStats::default());
    }
    if workers <= 1 {
        let started = Instant::now();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (
            out,
            EngineStats {
                tasks: items.len() as u64,
                workers: 1,
                steals: 0,
                busy_seconds: started.elapsed().as_secs_f64(),
            },
        );
    }

    // Round-robin seeding: worker w starts with indices w, w+workers, …
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();
    let steals = AtomicU64::new(0);

    let harvest: Vec<(Vec<(usize, R)>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let steals = &steals;
                let f = &f;
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Some(idx) = next_task(w, deques, steals) {
                        local.push((idx, f(idx, &items[idx])));
                    }
                    (local, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });

    let mut busy_seconds = 0.0;
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (local, seconds) in harvest {
        busy_seconds += seconds;
        for (idx, r) in local {
            out[idx] = Some(r);
        }
    }
    let out: Vec<R> = out
        .into_iter()
        .map(|r| r.expect("every task index produced exactly one result"))
        .collect();
    (
        out,
        EngineStats {
            tasks: items.len() as u64,
            workers,
            // lint: allow(relaxed-ordering) — monotonic steal counter read after all workers joined; no ordering carries data
            steals: steals.load(Ordering::Relaxed),
            busy_seconds,
        },
    )
}

/// Pops the next task for worker `w`: front of its own deque, else the
/// back half of the first non-empty victim (scanning from `w + 1` around
/// the ring). Returns `None` when every deque is empty — with a static
/// task set, that means the remaining work is already claimed by the
/// workers holding it.
fn next_task(w: usize, deques: &[Mutex<VecDeque<usize>>], steals: &AtomicU64) -> Option<usize> {
    if let Some(idx) = deques[w].lock().expect("engine deque").pop_front() {
        return Some(idx);
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        let stolen: VecDeque<usize> = {
            let mut v = deques[victim].lock().expect("engine deque");
            let keep = v.len() / 2;
            v.split_off(keep)
        };
        if stolen.is_empty() {
            continue;
        }
        // lint: allow(relaxed-ordering) — statistics-only counter; the deque mutexes order the stolen tasks themselves
        steals.fetch_add(1, Ordering::Relaxed);
        let mut own = deques[w].lock().expect("engine deque");
        *own = stolen;
        let first = own.pop_front();
        return first;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, stats) = run_indexed(4, &[] as &[u32], |_, x| *x);
        assert!(out.is_empty());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let (out, stats) = run_indexed(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.tasks, 1000);
        assert!(stats.workers >= 1);
        assert!(stats.busy_seconds() >= 0.0);
    }

    #[test]
    fn one_thread_matches_many_threads() {
        let items: Vec<u64> = (0..257).collect();
        let work = |i: usize, x: &u64| (i as u64).wrapping_mul(*x ^ 0xABCD);
        let (seq, seq_stats) = run_indexed(1, &items, work);
        let (par, _) = run_indexed(6, &items, work);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.workers, 1);
        assert_eq!(seq_stats.steals, 0);
    }

    #[test]
    fn uneven_work_is_still_complete() {
        // Task 0 is much heavier than the rest: stealing must redistribute
        // the remainder and every result must still arrive.
        let items: Vec<u64> = (0..64).collect();
        let (out, _) = run_indexed(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_caps_at_item_count() {
        let (out, stats) = run_indexed(16, &[1u32, 2], |_, &x| x);
        assert_eq!(out, vec![1, 2]);
        assert!(stats.workers <= 2);
    }

    #[test]
    fn absorb_accumulates_runs() {
        let items: Vec<u64> = (0..10).collect();
        let (_, a) = run_indexed(1, &items, |_, &x| x);
        let (_, b) = run_indexed(1, &items, |_, &x| x);
        let mut total = EngineStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.tasks, 20);
        assert!(total.busy_seconds() >= 0.0);
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
