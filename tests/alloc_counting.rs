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
//! window. A fill runs on the thread that calls it, so the thread's
//! count is the fill's count.
//!
//! The serving path costs every plan while it draws it
//! (`sample_batch_costed`: the cost column and the stack of open
//! operators live in the batch): the last test asserts that a costed
//! fill is allocation-free in steady state too, on both tiers.
//!
//! The executor's contract is a ceiling, not zero (`crates/exec`'s
//! `run` module): it joins row numbers, so what it acquires is a few
//! vectors an operator — however many rows pass through — plus the rows
//! an aggregate builds and the result table. The last test counts both
//! acquisitions and bytes over sampled Q10 plans.
//!
//! The artifact decoder reserves a group's expression vectors from the
//! count the bytes declare, so it must bound that count by the bytes
//! present: `hostile_expression_counts_reserve_by_the_bytes_present`
//! holds a decode of a 2³² − 1 count to under 4 KiB acquired.

use plansample::lower::lower;
use plansample::{CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_datagen::MicroScale;
use plansample_exec::{Database, ExecNode};
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
    // Bytes asked for: an `alloc`'s size, a `realloc`'s new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's acquisitions so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// This thread's acquired bytes so far.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[inline]
fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
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
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// The executor joins row numbers, not rows: over 256 sampled Q10
/// plans it acquires memory per operator and per `Vec` doubling, never
/// per row passing through. It reads 12.6 acquisitions an operator and
/// 18.0 KB a plan (a `realloc` counted at its new size), where the
/// row-copying executor before it read 94.0 and 105.0 KB; the ceilings
/// leave a third. The second half is the part a constant cannot fake:
/// with four times the orders — and so four times the rows through
/// every join — acquisitions an operator may grow by less than half (it
/// reads 12.6 → 14.2, where copying rows read 94.0 → 335.9).
#[test]
fn executing_sampled_q10_plans_acquires_per_operator_not_per_row() {
    const PLANS: usize = 256;
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q10(&catalog);
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
        .expect("Q10 optimizes");
    let space = prepared.space();
    let mut rng = StdRng::seed_from_u64(7);
    let plans: Vec<ExecNode> = (0..PLANS)
        .map(|_| {
            let plan = space.sample(&mut rng);
            lower(space.memo(), space.query(), &catalog, &plan)
        })
        .collect();
    let operators: usize = plans.iter().map(ExecNode::size).sum();

    // (acquisitions an operator, bytes a plan, result rows) over `db`.
    let execute_all = |db: &Database| {
        let (allocations_before, bytes_before) = (allocations(), bytes());
        let mut rows = 0;
        for plan in &plans {
            let table = plan.execute(db).expect("sampled Q10 plans execute");
            rows += table.len();
            std::hint::black_box(table);
        }
        (
            (allocations() - allocations_before) as f64 / operators as f64,
            (bytes() - bytes_before) as f64 / PLANS as f64,
            rows,
        )
    };

    let tiny = MicroScale::tiny();
    let db = plansample_datagen::generate(&catalog, &tables, &tiny, 7);
    let (per_operator, bytes_per_plan, rows) = execute_all(&db);
    println!(
        "{PLANS} Q10 plans, {operators} operators, {rows} result rows: \
         {per_operator:.1} acquisitions an operator, {:.1} KB a plan",
        bytes_per_plan / 1e3
    );
    assert_eq!(rows, 13 * PLANS, "every plan returns Q10's 13 rows");
    assert!(
        per_operator <= 20.0,
        "{per_operator:.1} acquisitions an operator, ceiling 20"
    );
    assert!(
        bytes_per_plan <= 25e3,
        "{bytes_per_plan:.0} bytes a plan, ceiling 25 000"
    );

    let more_orders = MicroScale {
        orders: 4 * tiny.orders,
        ..tiny
    };
    let db = plansample_datagen::generate(&catalog, &tables, &more_orders, 7);
    let (scaled, _, scaled_rows) = execute_all(&db);
    println!("4x the orders: {scaled:.1} acquisitions an operator, {scaled_rows} result rows");
    assert!(
        scaled_rows > rows,
        "four times the orders must reach the result"
    );
    assert!(
        scaled < 1.5 * per_operator,
        "4x the orders took acquisitions an operator from {per_operator:.1} to {scaled:.1}: \
         something acquires per row"
    );
}

/// A memo section may declare any expression count; the decoder may
/// reserve only what the section's remaining bytes could hold. A valid
/// Q10 image has its memo cut to 64 bytes — one group declaring 2³² − 1
/// logical, then 2³² − 1 physical expressions over zero bytes — with
/// both sums made right so the structural decoder is reached: it runs
/// out of bytes (`Truncated`) having acquired less than 4 KiB in all,
/// the sections before the memo included.
#[test]
fn hostile_expression_counts_reserve_by_the_bytes_present() {
    use plansample_artifact::{decode, encode, inspect, lane_sum, ArtifactError};
    const HEADER_LEN: usize = 32;
    const ENTRY_LEN: usize = 32;
    const HOSTILE_LEN: usize = 64;

    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q10(&catalog);
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
        .expect("Q10 optimizes");
    let pristine = encode(&prepared);
    let info = inspect(&pristine).expect("pristine image inspects");
    let index = info.sections.iter().position(|s| s.name == "memo");
    let index = index.expect("memo section present");
    let offset = info.sections[index].offset as usize;
    assert!(info.sections[index].len as usize >= HOSTILE_LEN);

    for (logical, physical) in [(u32::MAX, 0), (0, u32::MAX)] {
        // root 0, one group keyed by relation set {0}, the two counts.
        let mut memo = Vec::new();
        memo.extend_from_slice(&0u32.to_le_bytes());
        memo.extend_from_slice(&1u32.to_le_bytes());
        memo.push(0);
        memo.extend_from_slice(&1u64.to_le_bytes());
        memo.extend_from_slice(&logical.to_le_bytes());
        if logical == 0 {
            memo.extend_from_slice(&physical.to_le_bytes());
        }
        memo.resize(HOSTILE_LEN, 0);

        let mut image = pristine.clone();
        image[offset..offset + HOSTILE_LEN].copy_from_slice(&memo);
        let entry = HEADER_LEN + index * ENTRY_LEN;
        image[entry + 16..entry + 24].copy_from_slice(&(HOSTILE_LEN as u64).to_le_bytes());
        image[entry + 24..entry + 32].copy_from_slice(&lane_sum(&memo).to_le_bytes());
        let file_sum = lane_sum(&image[HEADER_LEN..]);
        image[16..24].copy_from_slice(&file_sum.to_le_bytes());
        inspect(&image).expect("the sums are right");

        let before = bytes();
        let result = decode(&image);
        let acquired = bytes() - before;
        println!("counts ({logical}, {physical}): decode acquired {acquired} bytes");
        assert!(
            matches!(result, Err(ArtifactError::Truncated { .. })),
            "counts ({logical}, {physical}): expected Truncated, got {:?}",
            result.map(|_| ())
        );
        assert!(
            acquired < 4096,
            "counts ({logical}, {physical}): decode acquired {acquired} bytes"
        );
    }
}

/// A cold prepare acquires memory per group and per table, not per
/// expression: Q8 with cross products explores 6 059 logical
/// expressions into 22 293 physical ones, and the whole prepare —
/// populate, the scan, the cost fold, the count fold — acquires fewer
/// times than there are logical expressions: 4 300 times in release,
/// 5 472 in debug, where `Memo::append_physical`'s duplicate check
/// builds a set a group.
#[test]
fn a_cold_q8cp_prepare_allocates_fewer_times_than_its_memo_has_logical_expressions() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    let config = OptimizerConfig::with_cross_products();
    let before = allocations();
    let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("Q8+CP prepares");
    let acquired = allocations() - before;
    let logical = prepared.memo().num_logical() as u64;
    println!(
        "Q8+CP: {logical} logical, {} physical expressions; a cold prepare acquired {acquired} times",
        prepared.memo().num_physical()
    );
    assert!(
        acquired < logical,
        "a cold Q8+CP prepare acquired {acquired} times, its memo has {logical} logical expressions"
    );
}

#[test]
fn the_counter_itself_works() {
    let (allocations_before, bytes_before) = (allocations(), bytes());
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    assert!(
        allocations() > allocations_before,
        "allocator instrumentation is dead"
    );
    assert!(bytes() >= bytes_before + 4096, "byte counting is dead");
}
