//! Workspace-internal data parallelism: a persistent worker pool with
//! a parallel map over an index range and a parallel for-each over a
//! mutable slice.
//!
//! The build environment for this repository has no crates.io access, so
//! — following the `rand`/`proptest` pattern — this crate
//! vendors the slice of `rayon`-style functionality the plan-space
//! construction and batched sampling actually use: fork-join over a
//! contiguous index range. Workers are **persistent**: the first
//! parallel section lazily starts the global [`Pool`], and subsequent
//! sections reuse its parked threads instead of paying a spawn per fork
//! (tens of microseconds per thread under the old scoped-spawn shim —
//! larger than an entire 64-draw sample batch).
//!
//! # Architecture
//!
//! One global chunked **injector queue** of jobs. A job is a
//! lifetime-erased closure over `0..len` plus an atomic chunk cursor;
//! workers (and the submitting caller itself) repeatedly claim the next
//! chunk with a `fetch_add` until the range is exhausted. Dynamic
//! chunk claiming is what provides the load balancing a work-stealing
//! deque would — without per-worker queues, which nothing here needs:
//! jobs are index ranges, not recursive task graphs. Idle workers park
//! on a condvar and are woken per job submission; the caller blocks
//! until every chunk of *its* job has finished, so borrowed closures
//! are sound (the job cannot outlive the call). Panics inside a body
//! are caught per chunk, stop further chunks of that job, and are
//! re-thrown on the caller — the pool itself and unrelated concurrent
//! jobs are unaffected.
//!
//! # Determinism
//!
//! Both entry points are sequential-consistent by construction: every
//! index is processed exactly once and results are committed in index
//! order ([`parallel_map`] writes result `i` into slot `i` of the
//! output, whichever worker produced it), so parallel and
//! single-threaded runs are bit-identical for deterministic bodies —
//! the contract `Links::build`, `Counts::compute`, and `sample_batch`
//! build on. Which worker runs which chunk is *not* deterministic; the
//! committed output is.
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
//! The resolved count is a *target*: the global pool grows on demand to
//! one thread below it (the caller is the remaining worker) and keeps
//! the high-water mark parked for later sections. Ranges smaller than
//! two `min_chunk`s, and 1-thread configurations, run entirely inline
//! on the caller — no queue traffic, no wakeups. A range that short is
//! recognized *before* the thread count is resolved, so it never reaches
//! steps 3 and 4: a small section costs no `getenv` and no host probe.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide override; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override; 0 = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// `PLANSAMPLE_THREADS`, parsed fresh on every call. The previous shim
/// cached the first read in a `OnceLock`, which made later env changes
/// silently inert (see the `env_var_changes_are_observed` regression
/// test); one `getenv` per *parallel section* (not per chunk) is cheap
/// enough not to cache.
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
// Jobs
// ---------------------------------------------------------------------

/// A lifetime-erased parallel section queued on a pool.
///
/// `run` processes one chunk of `0..len` through `data`, which points at
/// a stack frame of the submitting caller. Soundness: the caller blocks
/// in [`Pool::run_job`] until `pending` reaches zero, and chunks are
/// only executed between a successful claim and the matching
/// `finish_chunk`, so `data` strictly outlives every dereference.
struct Job {
    /// Executes chunk `i` (of `chunks` total).
    ///
    /// # Safety
    /// Must be called with this job's `data`, while `data` is alive,
    /// and at most once per chunk index `i < chunks`.
    run: unsafe fn(*const (), usize),
    /// Borrowed closure context on the caller's stack.
    data: *const (),
    /// Next chunk to claim.
    cursor: AtomicUsize,
    /// Total chunks.
    chunks: usize,
    /// Chunks not yet finished (claimed-and-run, skipped, or abandoned).
    pending: AtomicUsize,
    /// Set once a chunk panicked: remaining chunks are skipped so the
    /// caller re-throws promptly instead of finishing a doomed section.
    poisoned: AtomicBool,
    /// First panic payload, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signal: the last finished chunk notifies the caller.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY (both impls): `data` is only dereferenced through `run` while
// the submitting caller is blocked in `run_job`, and the erased closure
// is `Sync` (the public entry points bound it). The raw pointer itself
// is what strips the automatic impls; every other field is `Send + Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// A fresh job of `chunks` chunks running `run` over `data`.
    fn new(run: unsafe fn(*const (), usize), data: *const (), chunks: usize) -> Arc<Job> {
        Arc::new(Job {
            run,
            data,
            cursor: AtomicUsize::new(0),
            chunks,
            pending: AtomicUsize::new(chunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        })
    }

    /// Claims and runs chunks until the job is exhausted or poisoned.
    /// Returns how many chunks this thread finished.
    fn work(&self) -> usize {
        let mut finished = 0;
        loop {
            let c = self.cursor.fetch_add(1, Ordering::AcqRel);
            if c >= self.chunks {
                return finished;
            }
            if !self.poisoned.load(Ordering::Acquire) {
                // SAFETY: chunk `c` was claimed exactly once above, and
                // the caller keeps `data` alive until `pending` drains.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.data, c) }));
                if let Err(payload) = result {
                    self.poisoned.store(true, Ordering::Release);
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                }
            }
            finished += 1;
            self.finish_chunk();
        }
    }

    fn finish_chunk(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Acquire) >= self.chunks
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// The injector queue shared by a pool's workers.
struct Injector {
    /// Jobs with unclaimed chunks. Workers lazily drop exhausted fronts.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Wakes parked workers on submission (and on shutdown).
    available: Condvar,
    /// Set by [`Pool::drop`]; workers exit their loop.
    shutdown: AtomicBool,
    /// Live worker threads (observability for the leak tests).
    live: AtomicUsize,
}

/// A persistent worker pool.
///
/// The module-level entry points ([`parallel_for_each_mut`],
/// [`parallel_map`]) use a lazily-started global instance that lives
/// for the process (its idle workers park on a condvar and cost
/// nothing; process exit tears them down). Separate instances exist for
/// tests of the pool's own lifecycle: dropping a `Pool` signals shutdown
/// and **joins** every worker, so no threads outlive it.
pub struct Pool {
    injector: Arc<Injector>,
    /// Join handles of spawned workers, behind a mutex so `ensure_workers`
    /// can grow the pool from any thread.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// Creates an empty pool; workers are spawned on demand by the
    /// parallel sections submitted to it.
    pub fn new() -> Pool {
        Pool {
            injector: Arc::new(Injector {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                live: AtomicUsize::new(0),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Worker threads currently spawned (the high-water mark of demanded
    /// parallelism, not the number currently busy).
    pub fn spawned_workers(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Worker threads currently running their loop — drains to zero
    /// after [`Pool`] is dropped (test observability; the handle can be
    /// cloned out before the drop).
    pub fn live_workers(&self) -> usize {
        self.injector.live.load(Ordering::Acquire)
    }

    /// Grows the pool to at least `target` workers.
    fn ensure_workers(&self, target: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < target {
            let injector = Arc::clone(&self.injector);
            injector.live.fetch_add(1, Ordering::AcqRel);
            let handle = std::thread::Builder::new()
                .name(format!("plansample-worker-{}", workers.len()))
                .spawn(move || worker_loop(&injector))
                .expect("spawning a pool worker");
            workers.push(handle);
        }
    }

    /// Runs a prepared job to completion: queues it, participates in the
    /// chunk claiming, then blocks until every chunk finished. Re-throws
    /// the first body panic.
    ///
    /// # Safety
    /// `job.data` must stay valid until this returns (guaranteed when it
    /// points into the caller's own stack frame).
    unsafe fn run_job(&self, job: Arc<Job>, helpers: usize) {
        self.ensure_workers(helpers);
        {
            let mut queue = self
                .injector
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            queue.push_back(Arc::clone(&job));
        }
        // One wakeup per helper the job can actually use; surplus parked
        // workers stay parked.
        for _ in 0..helpers {
            self.injector.available.notify_one();
        }

        // The caller is a full participant — this is what makes nested
        // sections deadlock-free: even with every worker busy, the
        // submitting thread drives its own job to completion.
        job.work();

        // Wait for chunks claimed by workers that are still running.
        let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);

        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Drop for Pool {
    /// Clean shutdown: signals every worker and joins them, so a dropped
    /// pool leaks no threads (asserted by the lifecycle tests). The
    /// global pool is never dropped; its parked workers die with the
    /// process.
    fn drop(&mut self) {
        self.injector.shutdown.store(true, Ordering::Release);
        self.injector.available.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

/// The worker body: pull a job with unclaimed chunks, drain it, park
/// when the queue is empty. Body panics are contained inside
/// [`Job::work`], so a worker survives arbitrary caller bugs.
fn worker_loop(injector: &Injector) {
    loop {
        let job: Option<Arc<Job>> = {
            let mut queue = injector.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if injector.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                // Drop exhausted fronts; claim the first live job.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break Some(Arc::clone(job));
                }
                queue = injector
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else {
            injector.live.fetch_sub(1, Ordering::AcqRel);
            return;
        };
        job.work();
    }
}

/// The process-global pool behind the module-level entry points.
fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::new)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

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

/// Runs `body(i, &mut items[i])` for every element, in parallel — the
/// safe way to let workers fill disjoint slots of a caller-owned slice
/// (e.g. per-chunk output buffers whose capacity must survive the
/// section). Every element is its own unit of work, claimed dynamically
/// by the pool's workers (the caller's thread participates); a 1-thread
/// configuration or a slice of fewer than two elements runs inline, in
/// index order.
///
/// Which worker visits which element is not deterministic; since each
/// element is visited exactly once with exclusive access, the committed
/// slice is, for deterministic bodies. Panics in `body` propagate to
/// the caller after the section quiesces; elements not yet started by
/// then are left as they were.
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

    struct EachCtx<'a, T, F> {
        body: &'a F,
        items: *mut T,
    }
    // SAFETY: `body` is `Sync`; `items` is only dereferenced at
    // distinct in-bounds indices (one per chunk, see `run_chunk`), and
    // handing `&mut T` to another thread needs `T: Send`.
    unsafe impl<T: Send, F: Sync> Sync for EachCtx<'_, T, F> {}

    /// # Safety
    /// `data` must point at a live `EachCtx<T, F>` whose `items` holds
    /// more than `c` elements, and no other call may use the same `c`.
    unsafe fn run_chunk<T: Send, F: Fn(usize, &mut T) + Sync>(data: *const (), c: usize) {
        // SAFETY: `data` points at the `EachCtx` on the submitting
        // caller's stack, alive for the whole section (see `run_job`).
        let ctx = unsafe { &*(data as *const EachCtx<'_, T, F>) };
        // SAFETY: the job has exactly `items.len()` chunks, so `c` is in
        // bounds; chunk `c` is claimed exactly once, so this is the only
        // live reference to element `c`; and the caller's `&mut [T]`
        // borrow is held (unused) by `parallel_for_each_mut` until
        // every chunk has finished.
        let item = unsafe { &mut *ctx.items.add(c) };
        (ctx.body)(c, item);
    }

    let ctx = EachCtx {
        body: &body,
        items: items.as_mut_ptr(),
    };
    let job = Job::new(
        run_chunk::<T, F>,
        &ctx as *const EachCtx<'_, T, F> as *const (),
        items.len(),
    );
    // SAFETY: `ctx` and the `items` borrow outlive `run_job`, which
    // blocks until every chunk has finished.
    unsafe { global().run_job(job, workers - 1) };
}

/// Maps `f` over `0..len` in parallel, returning results in index order
/// — the deterministic fork-join primitive the plan-space construction
/// and batched sampling are built on. The range is split into
/// contiguous chunks of at least `min_chunk` indices, claimed
/// dynamically by the pool's workers (the caller's thread participates);
/// ranges shorter than two `min_chunk`s (or a 1-thread configuration)
/// run entirely inline. Each result is written directly into its output
/// slot (no per-worker buffers), so the committed vector is identical
/// at every thread count. Panics in `f` propagate to the caller after
/// the section quiesces; results already produced are dropped.
pub fn parallel_map<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(len, min_chunk);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<R> = Vec::with_capacity(len);
    let chunk = chunk_size(len, min_chunk, workers);
    let chunks = len.div_ceil(chunk);
    // Per-chunk count of slots initialized so far: the panic path must
    // drop exactly the elements that were written and no others.
    let progress: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();

    struct MapCtx<'a, R, F> {
        f: &'a F,
        out: *mut R,
        len: usize,
        chunk: usize,
        progress: &'a [AtomicUsize],
    }
    // SAFETY: `f` and `progress` are `Sync`; `out` is only written at
    // distinct in-bounds slots (each index belongs to exactly one
    // chunk, see `run_chunk`), and moving an `R` produced on a worker
    // into the caller's buffer needs `R: Send`.
    unsafe impl<R: Send, F: Sync> Sync for MapCtx<'_, R, F> {}

    /// # Safety
    /// `data` must point at a live `MapCtx<R, F>` whose `out` has
    /// capacity for `len` elements, and no other call may use the same
    /// `c`.
    unsafe fn run_chunk<R: Send, F: Fn(usize) -> R + Sync>(data: *const (), c: usize) {
        // SAFETY: `data` points at the `MapCtx` on the submitting
        // caller's stack; chunk `c` owns the disjoint output slice
        // `[c*chunk, min((c+1)*chunk, len))`, claimed exactly once.
        let ctx = unsafe { &*(data as *const MapCtx<'_, R, F>) };
        let start = c * ctx.chunk;
        let end = (start + ctx.chunk).min(ctx.len);
        for i in start..end {
            let value = (ctx.f)(i);
            // SAFETY: `i < len ≤ capacity`, the slot is uninitialized,
            // and only this chunk writes it.
            unsafe { ctx.out.add(i).write(value) };
            ctx.progress[c].store(i - start + 1, Ordering::Release);
        }
    }

    let ctx = MapCtx {
        f: &f,
        out: out.as_mut_ptr(),
        len,
        chunk,
        progress: &progress,
    };
    let job = Job::new(
        run_chunk::<R, F>,
        &ctx as *const MapCtx<'_, R, F> as *const (),
        chunks,
    );
    // SAFETY: `ctx` (and `out`'s buffer) outlive `run_job`, which blocks
    // until every chunk has finished; afterwards either every slot is
    // initialized (normal path) or `progress` bounds what was.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe {
        global().run_job(job, workers - 1)
    }));
    match result {
        Ok(()) => {
            // SAFETY: every chunk ran to completion, so all `len` slots
            // (within the `len` capacity reserved above) are initialized.
            unsafe { out.set_len(len) };
            out
        }
        Err(payload) => {
            // Drop exactly the initialized prefix of each chunk, leave
            // `out`'s length at 0 so the vec frees only raw capacity.
            for (c, written) in progress.iter().enumerate() {
                let start = c * chunk;
                for i in start..start + written.load(Ordering::Acquire) {
                    // SAFETY: `progress[c]` counts the slots chunk `c`
                    // initialized, from its start; each is dropped once
                    // here and never again (`out`'s length stays 0).
                    unsafe { std::ptr::drop_in_place(out.as_mut_ptr().add(i)) };
                }
            }
            resume_unwind(payload);
        }
    }
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
    fn dropping_a_private_pool_joins_its_workers() {
        // The no-thread-leak contract: Drop signals shutdown and joins,
        // so after drop the workers' liveness count (read through a
        // handle that outlives the pool) is zero.
        let pool = Pool::new();
        pool.ensure_workers(3);
        assert_eq!(pool.spawned_workers(), 3);
        // Give the workers a beat to enter their loop, then grab the
        // observability handle and drop the pool.
        let injector = Arc::clone(&pool.injector);
        drop(pool);
        assert_eq!(
            injector.live.load(Ordering::Acquire),
            0,
            "drop must join every worker before returning"
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
}
