//! A warm IndexScan does not sort, proven with a counting allocator.
//!
//! An IndexScan reads its table's sorted order from the `Database`,
//! which sorts it on the first scan that asks for it and keeps it. After
//! that, the scan's one acquisition is the vector of row numbers it
//! keeps, exactly what a TableScan with the same filters acquires: a
//! scan that sorted again would acquire the sort's order too. The count
//! is exact, so no timing noise can move it.
//!
//! As in `tests/alloc_counting.rs`, the count is per thread: the test
//! harness runs tests on sibling threads, and each counts only its own
//! acquisitions.

use plansample_exec::{ColFilter, Database, ExecNode};
use plansample_query::CmpOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
/// (`dealloc` is uncounted: freeing acquires nothing).
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

/// Acquisitions of one `execute` of `plan`; the result is dropped
/// outside the count.
fn acquisitions(plan: &ExecNode, db: &Database) -> u64 {
    let before = allocations();
    let table = plan.execute(db).expect("the scan executes");
    let acquired = allocations() - before;
    std::hint::black_box(table);
    acquired
}

#[test]
fn a_warm_index_scan_acquires_what_a_table_scan_does() {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let tiny = plansample_datagen::MicroScale::tiny();
    let db = plansample_datagen::generate(&catalog, &tables, &tiny, 7);
    let mut scans = 0;
    for table in [
        tables.orders,
        tables.lineitem,
        tables.customer,
        tables.nation,
    ] {
        let stored = db.table(table).unwrap();
        let drop_first_value = |col: usize| ColFilter {
            offset: col,
            op: CmpOp::Ne,
            value: stored.rows()[0][col].clone(),
        };
        let width = stored.width();
        for col in 0..width {
            let filter_lists = [
                vec![],
                vec![drop_first_value(col)],
                vec![drop_first_value(width - 1 - col)],
            ];
            for (run, filters) in filter_lists.into_iter().enumerate() {
                let by_table = ExecNode::TableScan {
                    table,
                    filters: filters.clone(),
                };
                let by_index = ExecNode::IndexScan {
                    table,
                    sort_col: col,
                    filters,
                };
                let plain = acquisitions(&by_table, &db);
                let first = acquisitions(&by_index, &db);
                let second = acquisitions(&by_index, &db);
                // The column's first scan sorts its order; every later
                // one reads it.
                if run == 0 {
                    assert!(
                        first > plain,
                        "{by_index:?}: the scan that sorts acquired {first}, \
                         the table scan {plain}"
                    );
                } else {
                    assert_eq!(first, plain, "{by_index:?} sorted again");
                }
                assert_eq!(
                    second, plain,
                    "{by_index:?}: a warm index scan acquired {second}, the table scan {plain}"
                );
                scans += 1;
            }
        }
    }
    assert!(scans > 30, "{scans} scans compared");
}
