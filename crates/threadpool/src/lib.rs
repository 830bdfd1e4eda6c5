//! Workspace-internal data parallelism: one fork-join section shape, a
//! parallel for-each over a mutable slice on scoped threads.
//!
//! The build environment for this repository has no crates.io access, so
//! — following the `rand`/`proptest` pattern — this crate
//! vendors the slice of `rayon`-style functionality the product uses.
//! The product forks in one place: the bulk fill behind
//! `sample_batch_flat` / `sample_batch_costed`, which unranks large
//! batches in fixed-size chunks, one slice element per chunk.
//!
//! # Sections
//!
//! A parallel section is one [`std::thread::scope`]: the caller and the
//! helpers it spawns claim elements of the slice until none is left, and
//! the scope joins every helper before the entry point returns, so
//! bodies borrow from the caller's stack in safe code. No thread
//! outlives its section; a spawn and join costs about 20 µs a helper
//! (EXPERIMENTS §E17), which an element's work must dwarf. The caller
//! always takes part, so a section completes with however few helpers
//! it was granted — none included — and sections nest.
//!
//! Helpers are **budgeted process-wide** by one atomic count of the
//! live ones, because many threads can be inside a section at once (a
//! server's reactors and workers) and must not each spawn a full
//! complement: a section that resolved `workers` threads takes as many
//! of its `workers − 1` helpers as keep the count at or below that,
//! runs with fewer (or alone) otherwise, and returns them when it ends,
//! unwinding included.
//!
//! A **panicking body** stops the section's threads from claiming
//! further elements; once all have finished, the first panic's original
//! payload is re-thrown on the caller. Later sections are unaffected.
//!
//! # Determinism
//!
//! Every element is processed exactly once and is handed its own index,
//! so a body that writes only its element commits by index, never by
//! completion order: parallel and single-threaded runs are bit-identical
//! for deterministic bodies — the contract the bulk fill builds on.
//! Which thread runs which element is *not* deterministic; the output
//! is.
//!
//! # Thread count
//!
//! [`num_threads`] is the thread-local override installed by
//! [`with_threads`] (tests and the benchmark pin a count with it, so
//! concurrently running tests cannot race each other), else
//! [`std::thread::available_parallelism`]: the CPUs the process may run
//! on, which `taskset` narrows. On Linux that call reads the affinity
//! mask and the cgroup CPU quota files every time — tens of microseconds
//! (25.6 µs measured on the benchmark host), more than a 16-plan sample
//! batch. It is deliberately not cached: the answer would latch the
//! affinity mask of whichever thread asked first, and callers pin
//! threads after process start. A slice of fewer than two elements is
//! recognized as inline *before* the thread count is resolved, so it
//! never pays that probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-local override; 0 = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The number of threads a parallel section may use, its caller
/// included: the [`with_threads`] override, else the CPUs the process
/// may run on. Always at least 1.
pub fn num_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with the calling thread's parallel sections pinned to `n`
/// threads, restoring the previous setting afterwards (panic-safe).
///
/// Because the override is thread-local, concurrent tests comparing
/// different thread counts cannot race each other.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    assert!(n > 0, "with_threads needs at least one thread");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(|c| {
        let prev = c.get();
        c.set(n);
        prev
    }));
    f()
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

/// Helper threads alive in the process, across every section. Like the
/// stop flag below it publishes no data — results travel through the
/// caller's slice and the scope's join — so `Relaxed` is enough.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// A section's share of the helper budget, returned when dropped.
struct Helpers(usize);

impl Helpers {
    /// Takes as many of `want` helpers as keep the live total at or
    /// below `want`.
    fn take(want: usize) -> Helpers {
        let mut granted = 0;
        let _ = LIVE_HELPERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            granted = want.saturating_sub(live);
            Some(live + granted)
        });
        Helpers(granted)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        LIVE_HELPERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// One parallel section: the caller and up to `workers − 1` scoped
/// helpers each call `step` until it returns `false` (nothing left to
/// claim) or a `step` has panicked; the first panic is re-thrown here
/// once every thread has finished.
fn fork_join(workers: usize, step: impl Fn() -> bool + Sync) {
    let helpers = Helpers::take(workers - 1);
    let stop = AtomicBool::new(false);
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let run = || {
        let drain = || loop {
            if stop.load(Ordering::Relaxed) || !step() {
                break;
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(drain)) {
            stop.store(true, Ordering::Relaxed);
            panic
                .lock()
                .expect("nothing panics holding the payload slot")
                .get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers.0 {
            // A helper the host will not start is one the section does
            // without: the caller drains whatever nobody else claims.
            let spawned = std::thread::Builder::new().spawn_scoped(scope, run);
            if spawned.is_err() {
                break;
            }
        }
        run();
    });
    drop(helpers);
    let payload = panic
        .into_inner()
        .expect("nothing panics holding the payload slot");
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// How many workers a slice of `len` elements deserves. A slice with
/// work for one worker at most is answered before [`num_threads`] is
/// asked (see the module docs for what that call can cost).
fn workers_for(len: usize) -> usize {
    if len <= 1 {
        return 1;
    }
    num_threads().min(len)
}

/// Runs `body(i, &mut items[i])` for every element, in one section —
/// the safe way to let threads fill disjoint slots of a caller-owned
/// slice (e.g. per-chunk output buffers whose capacity must survive the
/// section). Every element is its own unit of work and costs one mutex
/// lock to claim, so it should be worth far more than that; a 1-thread
/// configuration or a slice of fewer than two elements runs inline, in
/// index order. After a panic in `body`, elements not yet started are
/// left as they were.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers_for(items.len());
    if workers == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            body(i, item);
        }
        return;
    }
    let next = Mutex::new(items.iter_mut().enumerate());
    fork_join(workers, || {
        // The guard is a temporary of this statement: the lock is
        // released before `body` runs.
        let claimed = next.lock().expect("a slice iterator does not panic").next();
        let Some((i, item)) = claimed else {
            return false;
        };
        body(i, item);
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, num_threads)
        });
        assert_eq!(outer, 1);
        // Restored: the override no longer applies.
        assert_ne!(LOCAL_THREADS.with(Cell::get), 3);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = LOCAL_THREADS.with(Cell::get);
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(LOCAL_THREADS.with(Cell::get), before);
    }

    #[test]
    fn parallel_for_each_mut_visits_every_element_exactly_once() {
        for threads in [1, 2, 4, 7] {
            for len in [0usize, 1, 2, 3, 64, 257] {
                // Heap-owning elements whose capacity must survive.
                let mut items: Vec<Vec<usize>> = (0..len).map(|_| Vec::with_capacity(4)).collect();
                with_threads(threads, || {
                    parallel_for_each_mut(&mut items, |i, item| item.push(i * 3));
                });
                assert!(
                    items.iter().enumerate().all(|(i, v)| v == &[i * 3]),
                    "{threads} threads, {len} elements"
                );
            }
        }
    }

    #[test]
    fn parallel_for_each_mut_propagates_panics_and_leaves_the_pool_usable() {
        let mut items = vec![0u32; 200];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                parallel_for_each_mut(&mut items, |i, item| {
                    if i == 100 {
                        panic!("element failure");
                    }
                    *item = 1;
                });
            })
        }));
        assert!(result.is_err());
        // Each element was written at most once, none twice.
        assert!(items.iter().all(|&v| v <= 1) && items[100] == 0);
        with_threads(4, || parallel_for_each_mut(&mut items, |_, item| *item = 2));
        assert!(items.iter().all(|&v| v == 2));
    }

    /// A slice with work for one worker is sized without resolving the
    /// thread count; past that the count applies, capped by the work.
    #[test]
    fn slices_are_sized_by_work_and_thread_count() {
        let caller = std::thread::current().id();
        let mut ran_on = [None];
        with_threads(8, || {
            parallel_for_each_mut(&mut ran_on, |_, on| *on = Some(std::thread::current().id()));
        });
        assert_eq!(ran_on, [Some(caller)]);
        for len in [0, 1] {
            assert_eq!(with_threads(8, || workers_for(len)), 1, "{len} elements");
        }
        assert_eq!(with_threads(8, || workers_for(2)), 2);
        assert_eq!(with_threads(8, || workers_for(16)), 8);
        assert_eq!(with_threads(1, || workers_for(16)), 1);
    }

    #[test]
    fn concurrent_sections_share_the_pool() {
        // Several caller threads run sections at once; every section
        // commits its own results correctly.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut got = vec![0u64; 301];
                    with_threads(3, || {
                        parallel_for_each_mut(&mut got, |i, v| *v = i as u64 + t);
                    });
                    assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64 + t));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_sections_complete() {
        // Helpers have no thread-local override, so the body pins its own.
        let mut rows: Vec<Vec<usize>> = vec![vec![0; 64]; 16];
        with_threads(4, || {
            parallel_for_each_mut(&mut rows, |r, row| {
                with_threads(4, || parallel_for_each_mut(row, |i, v| *v = r * 100 + i));
            });
        });
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(*row, (0..64).map(|i| r * 100 + i).collect::<Vec<_>>());
        }
    }

    /// The helper count is process-wide, and the other tests of this
    /// binary fork on concurrent threads, the widest under
    /// `with_threads(7)`. A test that reads the count, or needs its
    /// helpers granted, fences the others out: with `FENCE` phantom
    /// helpers on the books no section of theirs is granted any, and
    /// once those already running have returned theirs the count is
    /// `FENCE` plus what the fenced test's own sections hold — which run
    /// under `with_threads(FENCE + n)` to be budgeted as
    /// `with_threads(n)` is in a quiet process.
    const FENCE: usize = 8;

    struct Fence(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Fence {
        fn raise() -> Fence {
            static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
            let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            LIVE_HELPERS.fetch_add(FENCE, Ordering::Relaxed);
            while LIVE_HELPERS.load(Ordering::Relaxed) != FENCE {
                std::thread::yield_now();
            }
            Fence(guard)
        }

        /// Helpers held by the fenced test's own sections.
        fn live_helpers(&self) -> usize {
            LIVE_HELPERS.load(Ordering::Relaxed) - FENCE
        }
    }

    impl Drop for Fence {
        fn drop(&mut self) {
            LIVE_HELPERS.fetch_sub(FENCE, Ordering::Relaxed);
        }
    }

    #[test]
    fn helpers_are_budgeted_process_wide() {
        const CALLERS: usize = 8;
        let fence = Fence::raise();
        // Every body samples the live count and then holds its section
        // open until all eight sections have run a body, so the first
        // body of the last section samples with all eight shares out.
        let (entered, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let section = || {
            let first = AtomicBool::new(true);
            let mut got = vec![0; 96];
            with_threads(FENCE + 4, || {
                parallel_for_each_mut(&mut got, |i, v| {
                    peak.fetch_max(fence.live_helpers(), Ordering::Relaxed);
                    if first.swap(false, Ordering::Relaxed) {
                        entered.fetch_add(1, Ordering::Relaxed);
                    }
                    while entered.load(Ordering::Relaxed) < CALLERS {
                        std::thread::yield_now();
                    }
                    *v = i;
                })
            });
            assert_eq!(got, (0..96).collect::<Vec<_>>());
        };
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(section);
            }
        });
        // The first section in was granted all three helpers of a
        // four-thread section; nobody pushed the total past that.
        assert_eq!(peak.load(Ordering::Relaxed), 3);
        assert_eq!(fence.live_helpers(), 0);

        let panicking = || {
            let mut items = [0; 96];
            with_threads(FENCE + 4, || {
                parallel_for_each_mut(&mut items, |i, _| assert_ne!(i, 48))
            })
        };
        assert!(std::panic::catch_unwind(panicking).is_err());
        assert_eq!(
            fence.live_helpers(),
            0,
            "a panicking section returns its helpers"
        );
    }

    #[test]
    fn the_rethrown_payload_is_the_bodys_own() {
        let _fence = Fence::raise(); // so that the section is granted its one helper
        let caller = std::thread::current().id();
        for on_helper in [true, false] {
            // The side that does not panic waits for the one that does.
            let raised = AtomicBool::new(false);
            let body = |_: usize, _: &mut u8| {
                if (std::thread::current().id() != caller) == on_helper {
                    raised.store(true, Ordering::Relaxed);
                    panic!("the body's own words");
                }
                while !raised.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            };
            let mut items = [0u8; 64];
            let section = AssertUnwindSafe(|| {
                with_threads(FENCE + 2, || parallel_for_each_mut(&mut items, body))
            });
            let payload = std::panic::catch_unwind(section).expect_err("the section re-throws");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the body's own words"),
                "on_helper = {on_helper}"
            );
        }
    }
}
