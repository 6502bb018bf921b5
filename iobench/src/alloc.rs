//! Heap-allocation counting for the benchmark binary only.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` bumps a process-wide counter
//! (read around multi-threaded calls such as the Fig. 7 sweep) and a
//! per-thread counter (read around single calls, so the benchmark's own
//! bookkeeping allocations never count against the program).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator, installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

static GLOBAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without `Drop`, so reading it never allocates
    // and stays valid during thread teardown.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // Relaxed: a statistic that publishes no other data.
    GLOBAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by every thread so far.
pub fn global() -> u64 {
    GLOBAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
#[inline]
pub fn local() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns its result with the allocations it made on the
/// calling thread.
#[inline]
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = local();
    let r = f();
    (r, local() - before)
}
