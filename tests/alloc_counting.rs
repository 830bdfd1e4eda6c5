//! Zero heap allocations per draw, proven with a counting allocator.
//!
//! The flat sampler's contract (DESIGN.md §11): once a reused
//! [`PlanBatch`]'s buffers have grown to the batch's size, a
//! steady-state `sample_batch_flat` fill on either fixed-width tier —
//! `u64` for single-limb spaces, `u128` for two-limb ones — touches no
//! allocator at all: every draw is a rejection-sampled rank plus
//! fixed-width arithmetic into already-owned memory. These tests swap
//! in a `#[global_allocator]` that counts every `alloc`/`realloc`/
//! `alloc_zeroed` and assert the count is **exactly zero** across a
//! warmed 512-plan fill.
//!
//! The count is **per thread** (a const-initialised thread-local cell,
//! which the allocator can read without allocating): the test harness
//! runs this file's tests on sibling threads, and one of them builds
//! chain memos by the dozen while another is inside its measured
//! window. The measured fills run inline on the test's own thread
//! (`with_threads(1)`), so the thread's count is the fill's count.
//!
//! The serving path costs every plan while it draws it
//! (`sample_batch_costed`: the cost column and the stack of open
//! operators live in the batch): the last test asserts that a costed
//! fill is allocation-free in steady state too, on both tiers.

use plansample::{CountTier, PlanBatch, PlanSpace};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Const-initialized and without a destructor: reading it from
    // inside the allocator never allocates or registers a dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's acquisitions so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[inline]
fn note() {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to the system allocator, counting every acquisition path
/// (`dealloc` is deliberately uncounted: freeing is allowed, acquiring
/// is not).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only a
// thread-local `Cell` and never allocates or unwinds.
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn chain(rels: usize) -> PlanSpace {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, rels, 20000).build_memo();
    PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain builds")
}

/// Chain-6 stays comfortably single-limb: every draw runs in `u64`.
fn single_limb_space() -> PlanSpace {
    let space = chain(6);
    assert_eq!(
        space.counts().tier(),
        CountTier::U64,
        "chain-6 must be single-limb"
    );
    space
}

/// Warms `out` with a 512-plan fill from `seed` — costed or plain —
/// then repeats the fill from the same seed — identical ranks →
/// identical plan shapes → the grown capacities are exactly what the
/// repeat needs — and asserts the repeat acquired no memory at all.
/// Returns what the *warm-up* acquired.
fn assert_steady_state_allocates_nothing(
    space: &PlanSpace,
    seed: u64,
    costed: bool,
    out: &mut PlanBatch,
) -> u64 {
    let fill = |out: &mut PlanBatch| {
        let mut rng = StdRng::seed_from_u64(seed);
        let before = allocations();
        if costed {
            space.sample_batch_costed(&mut rng, 512, out);
        } else {
            space.sample_batch_flat(&mut rng, 512, out);
        }
        allocations() - before
    };
    threadpool::with_threads(1, || {
        let tier = space.counts().tier();
        let warm_up = fill(out);
        let warm_nodes = out.total_nodes();
        let counted = fill(out);

        assert_eq!(out.len(), 512);
        assert_eq!(out.costs().len(), if costed { 512 } else { 0 });
        assert_eq!(
            out.total_nodes(),
            warm_nodes,
            "reseeded fill must repeat itself"
        );
        assert_eq!(
            counted, 0,
            "a steady-state {tier}-tier fill (costed: {costed}) must not allocate \
             (counted {counted} allocations across 512 draws)"
        );
        warm_up
    })
}

/// The smallest chain past the single-limb boundary: a genuine two-limb
/// space (not a forced one), scanned for rather than hard-coded so the
/// tests track the boundary itself.
fn two_limb_space() -> PlanSpace {
    (10..24)
        .map(chain)
        .find(|space| space.counts().tier() == CountTier::U128)
        .expect("some chain under 24 relations needs exactly two limbs")
}

#[test]
fn steady_state_flat_sampling_allocates_nothing() {
    let space = single_limb_space();
    assert_steady_state_allocates_nothing(&space, 77, false, &mut PlanBatch::new());
}

#[test]
fn steady_state_u128_tier_sampling_allocates_nothing() {
    let two_limb = two_limb_space();
    let cold = assert_steady_state_allocates_nothing(&two_limb, 78, false, &mut PlanBatch::new());

    // One batch serving both tiers in turn: its scratch is a single
    // slot retagged on a tier change, its id and bounds buffers are
    // tier-agnostic. So a `u64`-tier fill followed by a `u128`-tier
    // fill reaches the zero-allocation steady state again after one
    // warm-up — which, reusing the buffers the `u64` fills grew, needs
    // no more acquisitions than warming a brand-new batch did — and so
    // does going back.
    let single_limb = single_limb_space();
    let mut shared = PlanBatch::new();
    assert_steady_state_allocates_nothing(&single_limb, 77, false, &mut shared);
    let reused = assert_steady_state_allocates_nothing(&two_limb, 78, false, &mut shared);
    assert!(
        reused <= cold,
        "retagging a warmed batch acquired {reused} times, a new batch {cold}"
    );
    assert_steady_state_allocates_nothing(&single_limb, 77, false, &mut shared);
}

/// The serving path's fill: the cost column and the open-operator stack
/// are batch buffers like the ids, warmed once — a plain fill in between
/// empties the column without giving its memory back.
#[test]
fn steady_state_sample_then_cost_allocates_nothing() {
    for (space, seed) in [(single_limb_space(), 79), (two_limb_space(), 80)] {
        let mut batch = PlanBatch::new();
        let cold = assert_steady_state_allocates_nothing(&space, seed, true, &mut batch);
        assert!(cold > 0, "the first fill grows the buffers");
        assert_steady_state_allocates_nothing(&space, seed, false, &mut batch);
        assert_steady_state_allocates_nothing(&space, seed, true, &mut batch);
    }
}

#[test]
fn the_counter_itself_works() {
    let before = allocations();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    assert!(allocations() > before, "allocator instrumentation is dead");
}
