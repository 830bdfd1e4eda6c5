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
//! The serving path costs every plan it draws
//! (`PreparedQuery::scaled_cost_ids_in`, on a stack of subtree totals
//! the caller keeps): the last test asserts that sample-then-cost of a
//! whole batch is allocation-free in steady state too.

use plansample::{CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;
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

/// Warms `out` with a 512-plan fill from `seed`, then repeats the fill
/// from the same seed — identical ranks → identical plan shapes → the
/// grown capacities are exactly what the repeat needs — and asserts
/// the repeat acquired no memory at all. Returns what the *warm-up*
/// acquired.
fn assert_steady_state_allocates_nothing(space: &PlanSpace, seed: u64, out: &mut PlanBatch) -> u64 {
    threadpool::with_threads(1, || {
        let tier = space.counts().tier();
        let before = allocations();
        space.sample_batch_flat(&mut StdRng::seed_from_u64(seed), 512, out);
        let warm_up = allocations() - before;
        let warm_nodes = out.total_nodes();

        let mut rng = StdRng::seed_from_u64(seed);
        let before = allocations();
        space.sample_batch_flat(&mut rng, 512, out);
        let counted = allocations() - before;

        assert_eq!(out.len(), 512);
        assert_eq!(
            out.total_nodes(),
            warm_nodes,
            "reseeded fill must repeat itself"
        );
        assert_eq!(
            counted, 0,
            "steady-state {tier}-tier sample_batch_flat must not allocate (counted \
             {counted} allocations across 512 draws)"
        );
        warm_up
    })
}

#[test]
fn steady_state_flat_sampling_allocates_nothing() {
    let space = single_limb_space();
    assert_steady_state_allocates_nothing(&space, 77, &mut PlanBatch::new());
}

#[test]
fn steady_state_u128_tier_sampling_allocates_nothing() {
    // The smallest chain past the single-limb boundary: a genuine
    // two-limb space (not a forced one), scanned for rather than
    // hard-coded so the test tracks the boundary itself.
    let two_limb = (10..24)
        .map(chain)
        .find(|space| space.counts().tier() == CountTier::U128)
        .expect("some chain under 24 relations needs exactly two limbs");
    let cold = assert_steady_state_allocates_nothing(&two_limb, 78, &mut PlanBatch::new());

    // One batch serving both tiers in turn: its scratch is a single
    // slot retagged on a tier change, its id and bounds buffers are
    // tier-agnostic. So a `u64`-tier fill followed by a `u128`-tier
    // fill reaches the zero-allocation steady state again after one
    // warm-up — which, reusing the buffers the `u64` fills grew, needs
    // no more acquisitions than warming a brand-new batch did — and so
    // does going back.
    let single_limb = single_limb_space();
    let mut shared = PlanBatch::new();
    assert_steady_state_allocates_nothing(&single_limb, 77, &mut shared);
    let reused = assert_steady_state_allocates_nothing(&two_limb, 78, &mut shared);
    assert!(
        reused <= cold,
        "retagging a warmed batch acquired {reused} times, a new batch {cold}"
    );
    assert_steady_state_allocates_nothing(&single_limb, 77, &mut shared);
}

#[test]
fn steady_state_sample_then_cost_allocates_nothing() {
    let (catalog, query) = JoinGraphSpec::new(Topology::Chain, 6, 20000).build();
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
        .expect("chain-6 optimizes");
    let (mut batch, mut totals) = (PlanBatch::new(), Vec::new());
    // One serving-path batch: draw 512 plans, cost each on the reused
    // stack. Returns the costs' sum and what the pass acquired.
    let mut pass = |batch: &mut PlanBatch| {
        let before = allocations();
        prepared.sample_batch_flat(&mut StdRng::seed_from_u64(79), 512, batch);
        let sum: f64 = batch
            .iter()
            .map(|ids| prepared.scaled_cost_ids_in(ids, &mut totals))
            .sum();
        (sum, allocations() - before)
    };
    threadpool::with_threads(1, || {
        let (warm_sum, warm_up) = pass(&mut batch);
        let (sum, counted) = pass(&mut batch);
        assert!(warm_up > 0, "the first pass grows the buffers");
        assert_eq!(sum.to_bits(), warm_sum.to_bits());
        assert_eq!(
            counted, 0,
            "steady-state sample-then-cost must not allocate (counted {counted} \
             allocations across 512 plans)"
        );
    });
    // The reused stack changes where the totals live, not one bit of
    // the cost: the tree path agrees on every plan.
    let trees = prepared.sample_batch(&mut StdRng::seed_from_u64(79), 512);
    for (ids, tree) in batch.iter().zip(&trees) {
        assert_eq!(
            prepared.scaled_cost_ids_in(ids, &mut totals).to_bits(),
            prepared.scaled_cost(tree).to_bits()
        );
    }
}

#[test]
fn the_counter_itself_works() {
    let before = allocations();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    assert!(allocations() > before, "allocator instrumentation is dead");
}
