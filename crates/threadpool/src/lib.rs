//! Workspace-internal data parallelism: fork-join over an index range
//! on scoped threads — a parallel map and a parallel for-each over a
//! mutable slice.
//!
//! The build environment for this repository has no crates.io access, so
//! — following the `rand`/`proptest` pattern — this crate
//! vendors the slice of `rayon`-style functionality the plan-space
//! construction and batched sampling actually use.
//!
//! # Sections
//!
//! A parallel section is one [`std::thread::scope`]: the caller and the
//! helpers it spawns claim pieces of the range (chunks of indices from
//! an atomic cursor, or elements of the slice) until none is left, and
//! the scope joins every helper before the entry point returns, so
//! bodies borrow from the caller's stack in safe code. No thread
//! outlives its section; a spawn and join costs about 20 µs a helper
//! (EXPERIMENTS §E17), which a caller's `min_chunk` must dwarf. The
//! caller always takes part, so a section completes with however few
//! helpers it was granted — none included — and sections nest.
//!
//! Helpers are **budgeted process-wide** by one atomic count of the
//! live ones, because many threads can be inside a section at once (a
//! server's `reactors × workers`) and must not each spawn a full
//! complement: a section that resolved `workers` threads takes as many
//! of its `workers − 1` helpers as keep the count at or below that,
//! runs with fewer (or alone) otherwise, and returns them when it ends,
//! unwinding included.
//!
//! A **panicking body** stops the section's threads from claiming
//! further pieces; once all have finished, the first panic's original
//! payload is re-thrown on the caller. Results already produced are
//! dropped exactly once; later sections are unaffected.
//!
//! # Determinism
//!
//! Every index is processed exactly once and results are committed by
//! index, never by completion order ([`parallel_map`] concatenates its
//! chunks' results in chunk order), so parallel and
//! single-threaded runs are bit-identical for deterministic bodies —
//! the contract `sample_batch` builds on. Which
//! thread runs which piece is *not* deterministic; the committed output
//! is.
//!
//! # Thread-count resolution
//!
//! [`num_threads`] resolves, in order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    determinism tests to compare 1-thread and N-thread builds without
//!    races between concurrently running tests);
//! 2. the process-wide override set by [`set_num_threads`] (the CLI's
//!    `--threads N` flag lands here);
//! 3. the `PLANSAMPLE_THREADS` environment variable, re-read on every
//!    resolution — *not* cached at first use, so a test or harness that
//!    sets the variable after some earlier parallel section still gets
//!    the count it asked for;
//! 4. [`std::thread::available_parallelism`], which on Linux reads the
//!    affinity mask and the cgroup CPU quota files on every call — tens
//!    of microseconds (25.6 µs measured on the benchmark host), more
//!    than a 16-plan sample batch. It is deliberately not cached: the
//!    answer would latch the affinity mask of whichever thread asked
//!    first, and callers pin threads after process start.
//!
//! A range shorter than two `min_chunk`s is recognized as inline
//! *before* the thread count is resolved, so it never reaches steps 3
//! and 4: a small section costs no `getenv` and no host probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide override; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override; 0 = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// `PLANSAMPLE_THREADS`, parsed fresh on every call: a read cached at
/// first use made later env changes silently inert (see the
/// `env_var_changes_are_observed` regression test), and one `getenv`
/// per *parallel section* (not per chunk) is cheap enough not to cache.
fn env_threads() -> Option<usize> {
    std::env::var("PLANSAMPLE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The number of worker threads parallel sections will use, resolved as
/// described in the module docs. Always at least 1.
pub fn num_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the process-wide thread count (the CLI's `--threads N`).
/// `0` clears the override.
pub fn set_num_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
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
/// cursors and stop flags below it publishes no data — results travel
/// through mutexes and the scope's join — so `Relaxed` is enough.
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

/// How many workers a range of `len` items deserves, given the smallest
/// chunk worth a thread. A range with work for one worker at most is
/// answered before [`num_threads`] is asked (see the module docs for
/// what that call can cost).
fn workers_for(len: usize, min_chunk: usize) -> usize {
    let by_work = len / min_chunk.max(1);
    if by_work <= 1 {
        return 1;
    }
    num_threads().min(by_work)
}

/// Chunk layout of a parallel section: more chunks than workers (up to
/// 4× — dynamic claiming then load-balances uneven bodies) but never
/// chunks smaller than `min_chunk`.
fn chunk_size(len: usize, min_chunk: usize, workers: usize) -> usize {
    len.div_ceil(workers * 4).max(min_chunk.max(1))
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
    let workers = workers_for(items.len(), 1);
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

/// Maps `f` over `0..len` in one section, returning results in index
/// order. The range is split into contiguous chunks of at least
/// `min_chunk` indices; each chunk collects its own results and the
/// chunks are concatenated in chunk order. Ranges shorter than two
/// `min_chunk`s (or a 1-thread configuration) run entirely inline.
/// After a panic in `f`, results already produced are dropped.
pub fn parallel_map<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(len, min_chunk);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let chunk = chunk_size(len, min_chunk, workers);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<Vec<R>>> =
        Mutex::new((0..len.div_ceil(chunk)).map(|_| Vec::new()).collect());
    fork_join(workers, || {
        let start = cursor.fetch_add(1, Ordering::Relaxed) * chunk;
        if start >= len {
            return false;
        }
        let part: Vec<R> = (start..(start + chunk).min(len)).map(&f).collect();
        parts.lock().expect("storing a chunk does not panic")[start / chunk] = part;
        true
    });
    let parts = parts.into_inner().expect("storing a chunk does not panic");
    let mut out = Vec::with_capacity(len);
    out.extend(parts.into_iter().flatten());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Held by the tests that write `PLANSAMPLE_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

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
    fn parallel_map_matches_sequential_in_order() {
        let expect: Vec<u64> = (0..257).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 4, 9] {
            let got = with_threads(threads, || parallel_map(257, 1, |i| (i as u64) * 3 + 1));
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn parallel_map_handles_drop_types_and_reuse() {
        // Heap-owning results exercise the in-place commit path; run
        // repeatedly so pooled workers see many jobs back to back.
        for round in 0..20u64 {
            let got = with_threads(4, || parallel_map(403, 1, |i| vec![round, i as u64]));
            assert_eq!(got.len(), 403);
            assert!(got.iter().enumerate().all(|(i, v)| v == &[round, i as u64]));
        }
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

    #[test]
    fn small_ranges_run_inline() {
        // min_chunk larger than the range: must not dispatch (observable
        // via thread identity).
        let caller = std::thread::current().id();
        let ran_on = with_threads(8, || parallel_map(10, 100, |_| std::thread::current().id()));
        assert_eq!(ran_on, vec![caller; 10]);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let out: Vec<usize> = parallel_map(0, 1, |_| panic!("must not run"));
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_body_poisons_neither_pool_nor_later_callers() {
        // A panic in one section must leave the persistent workers alive
        // and subsequent (and concurrent) sections fully functional.
        for round in 0..5 {
            let result = std::panic::catch_unwind(|| {
                with_threads(4, || {
                    parallel_map(500, 1, |i| {
                        if i == 250 {
                            panic!("poisoned round {round}");
                        }
                        i
                    })
                })
            });
            assert!(result.is_err(), "round {round} must re-throw");
            // The very next section on the same pool behaves normally.
            let ok = with_threads(4, || parallel_map(500, 1, |i| i * 2));
            assert_eq!(ok.len(), 500);
            assert!(ok.iter().enumerate().all(|(i, &v)| v == i * 2));
        }
    }

    #[test]
    fn parallel_map_panic_drops_only_initialized_results() {
        // Drop-tracking payloads: after a panicking map, the number of
        // live payloads must return to zero (nothing leaked*, nothing
        // double-dropped — a double drop would underflow and wrap).
        // *The element that panicked mid-construction never existed.
        static LIVE: AtomicU64 = AtomicU64::new(0);
        struct Tracked;
        impl Tracked {
            fn new() -> Tracked {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Tracked
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(800, 1, |i| {
                    if i == 400 {
                        panic!("mid-section");
                    }
                    Tracked::new()
                })
            })
        });
        assert!(result.is_err());
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "every constructed result must be dropped exactly once"
        );
    }

    #[test]
    fn env_var_changes_are_observed() {
        // Regression for the read-once staleness bug: the env variable
        // must be re-resolved per call, even after earlier pool use.
        // Serialized against the one other test that writes the
        // variable; the rest of this binary uses `with_threads`, whose
        // thread-local override shadows the env.
        // (Asserting on `env_threads` rather than `num_threads` keeps
        // this immune to the global-override test running in parallel.)
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _pin = with_threads(2, num_threads); // touch the resolver first
        std::env::set_var("PLANSAMPLE_THREADS", "3");
        assert_eq!(env_threads(), Some(3), "first read sees the variable");
        std::env::set_var("PLANSAMPLE_THREADS", "5");
        assert_eq!(
            env_threads(),
            Some(5),
            "a later change must be observed, not served from a cache"
        );
        std::env::remove_var("PLANSAMPLE_THREADS");
        assert_eq!(env_threads(), None);
        // Overrides still take precedence over the environment.
        std::env::set_var("PLANSAMPLE_THREADS", "7");
        assert_eq!(with_threads(2, num_threads), 2);
        std::env::remove_var("PLANSAMPLE_THREADS");
    }

    /// A range with work for one worker is sized without resolving the
    /// thread count at all: under `PLANSAMPLE_THREADS=8` (no override in
    /// the way, so `num_threads` would say 8) it is still 1.
    #[test]
    fn short_ranges_are_sized_without_resolving_the_thread_count() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("PLANSAMPLE_THREADS", "8");
        for (len, min_chunk) in [(0, 1), (1, 1), (16, 256), (511, 256), (1, 0)] {
            assert_eq!(workers_for(len, min_chunk), 1, "{len} / {min_chunk}");
        }
        std::env::remove_var("PLANSAMPLE_THREADS");
        // Past the threshold the resolved count applies, capped by work.
        assert_eq!(with_threads(8, || workers_for(512, 256)), 2);
        assert_eq!(with_threads(8, || workers_for(4096, 256)), 8);
        assert_eq!(with_threads(1, || workers_for(4096, 256)), 1);
    }

    #[test]
    fn concurrent_sections_share_the_pool() {
        // Several caller threads submit jobs at once; every job commits
        // its own results correctly.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    with_threads(3, || {
                        let got = parallel_map(301, 1, move |i| i as u64 + t);
                        assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64 + t));
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn set_num_threads_global_override() {
        // Runs in its own serial block: thread-local overrides take
        // precedence, so shield against parallel tests via with_threads
        // being absent here — the global is still observable because no
        // other test sets it.
        set_num_threads(2);
        assert_eq!(num_threads(), 2);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn nested_sections_complete() {
        // Helpers have no thread-local override, so the body pins its own.
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); 16];
        with_threads(4, || {
            parallel_for_each_mut(&mut rows, |r, row| {
                *row = with_threads(4, || parallel_map(64, 1, |i| r * 100 + i));
            });
        });
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(*row, (0..64).map(|i| r * 100 + i).collect::<Vec<_>>());
        }
    }

    /// The helper count is process-wide, and the other tests of this
    /// binary fork on concurrent threads, the widest under
    /// `with_threads(9)`. A test that reads the count, or needs its
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
            let got = with_threads(FENCE + 4, || {
                parallel_map(96, 1, |i| {
                    peak.fetch_max(fence.live_helpers(), Ordering::Relaxed);
                    if first.swap(false, Ordering::Relaxed) {
                        entered.fetch_add(1, Ordering::Relaxed);
                    }
                    while entered.load(Ordering::Relaxed) < CALLERS {
                        std::thread::yield_now();
                    }
                    i
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

        let panicking = || with_threads(FENCE + 4, || parallel_map(96, 1, |i| assert_ne!(i, 48)));
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
            let body = |i: usize| {
                if (std::thread::current().id() != caller) == on_helper {
                    raised.store(true, Ordering::Relaxed);
                    panic!("the body's own words");
                }
                while !raised.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                i
            };
            let section =
                AssertUnwindSafe(|| with_threads(FENCE + 2, || parallel_map(64, 1, body)));
            let payload = std::panic::catch_unwind(section).expect_err("the section re-throws");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the body's own words"),
                "on_helper = {on_helper}"
            );
        }
    }
}
