//! A pass-through [`with_threads`], left for the tracked benchmark's
//! one call to it (`with_threads(1, …)` around each library workload).
//! The product does not fork: every plan-space build and sample batch
//! runs on the thread that asks for it (DESIGN §5, EXPERIMENTS §E43).
//! The crate goes when the benchmark drops that call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runs `f` on the calling thread and returns its result. The product
/// never forks, so `_threads`, the thread count the caller asks for,
/// changes nothing.
pub fn with_threads<T>(_threads: usize, f: impl FnOnce() -> T) -> T {
    f()
}
