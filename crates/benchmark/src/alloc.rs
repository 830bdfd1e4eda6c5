//! Allocation counting for the traced pass.
//!
//! The wrapper counts into a **thread-local** cell, and only while the
//! `COUNTING` flag is set, so a count taken around a call is that
//! call's own: the server's reactor, the worker pool and the other
//! client thread allocate into their own cells. (`tests/alloc_counting.rs`
//! at the repository root counts into one process-global atomic and
//! therefore fails whenever a sibling test thread allocates — see the
//! README's "known issue" note.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Relaxed is enough: the flag publishes no data, and it is only ever
/// flipped by the thread whose count is being taken.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and without a destructor: reading it from
    // inside the allocator never allocates or registers a dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator; counts acquisitions (`alloc`,
/// `alloc_zeroed`, `realloc`), not frees.
pub struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: a thread being torn down may free after its TLS
        // is gone.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only a flag
// and a thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns how many allocations the **calling thread**
/// made inside it.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    // `main.rs` installs the wrapper, so it is this test binary's
    // global allocator too — with the harness's other test threads
    // allocating beside it, which is exactly the case it must survive.
    #[test]
    fn counts_only_the_calling_thread_and_only_while_enabled() {
        use std::hint::black_box;
        use std::sync::Barrier;
        black_box(vec![0u8; 64]); // flag off: not counted
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            // A sibling that allocates while this thread is counting.
            s.spawn(|| {
                barrier.wait();
                black_box(vec![0u8; 4096]);
                barrier.wait();
            });
            let ((), n) = count(|| {
                barrier.wait();
                black_box(Box::new([0u8; 64]));
                black_box(Vec::<u64>::with_capacity(32));
                barrier.wait();
            });
            assert_eq!(n, 2, "the sibling's allocation must not be counted");
        });
        let ((), none) = count(|| ());
        assert_eq!(none, 0);
    }
}
