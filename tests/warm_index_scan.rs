//! A warm IndexScan does not sort, and a warm Sort or aggregate does not
//! rank, proven with a counting allocator.
//!
//! An IndexScan reads its table's sorted order from the `Database`,
//! which sorts it on the first scan that asks for it and keeps it. After
//! that, the scan's one acquisition is the vector of row numbers it
//! keeps, exactly what a TableScan with the same filters acquires: a
//! scan that sorted again would acquire the sort's order too. Sort and
//! the aggregates compare the dense ranks the `Database` keeps beside
//! those orders, built the same way: each is one vector, so a first run
//! acquires exactly one more a rank or order it builds, and a second and
//! third run acquire alike. The counts are exact, so no timing noise can
//! move them.
//!
//! As in `tests/alloc_counting.rs`, the count is per thread: the test
//! harness runs tests on sibling threads, and each counts only its own
//! acquisitions.

use plansample_catalog::Datum;
use plansample_exec::{AggSpec, ColFilter, Database, ExecNode, JoinSpec, Side, Table};
use plansample_query::{AggFunc, CmpOp};
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

/// `table` with the numbers of column `col` negated: as many rows of the
/// same types, equal where they were equal, ordered the other way.
fn negated(table: &Table, col: usize) -> Table {
    let rows = table.rows().iter().map(|row| {
        let mut row = row.clone();
        row[col] = match &row[col] {
            Datum::Int(n) => Datum::Int(-n),
            Datum::Float(x) => Datum::Float(-x),
            other => other.clone(),
        };
        row
    });
    Table::from_rows(table.width(), rows.collect()).expect("same width")
}

#[test]
fn warm_sorts_and_aggregates_rank_once() {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let tiny = plansample_datagen::MicroScale::tiny();
    let (customer, orders) = (tables.customer, tables.orders);
    let scan = |table| {
        Box::new(ExecNode::TableScan {
            table,
            filters: vec![],
        })
    };
    // Each plan; the rank vectors and orders its first run builds; and
    // the (table, column) it negates, every table it reads replaced.
    let cases = [
        (
            // o_orderdate's order and ranks, column 0's order and the
            // whole row's ranks.
            "a Sort over a scan",
            ExecNode::Sort {
                input: scan(orders),
                keys: vec![2],
            },
            4,
            vec![(orders, 2)],
        ),
        (
            // o_totalprice's order and ranks, and each table's column-0
            // order and whole-row ranks; the join keys are negated on both
            // sides, so the same rows match.
            "a Sort over a hash join",
            ExecNode::Sort {
                input: Box::new(ExecNode::HashJoin {
                    left: scan(customer),
                    right: scan(orders),
                    spec: JoinSpec {
                        eq_pairs: vec![(0, 1)],
                        assemble: vec![(Side::Left, 0, 5), (Side::Right, 0, 5)],
                    },
                }),
                keys: vec![8],
            },
            6,
            vec![(customer, 0), (orders, 1)],
        ),
        (
            // c_nationkey's order and ranks.
            "a HashAgg",
            ExecNode::HashAgg {
                input: scan(customer),
                group: vec![2],
                aggs: vec![AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                }],
            },
            2,
            vec![(customer, 2)],
        ),
    ];
    for (name, plan, builds, replace) in cases {
        let generate = || plansample_datagen::generate(&catalog, &tables, &tiny, 7);
        let mut db = generate();
        // `generate` built nothing, so the first run builds every rank
        // and order the plan reads; the later runs build none.
        let runs = [(); 3].map(|()| acquisitions(&plan, &db));
        assert_eq!(
            runs[0] - runs[1],
            builds,
            "{name}: runs acquired {runs:?}, {builds} builds expected"
        );
        assert_eq!(runs[1], runs[2], "{name} ranked again: {runs:?}");

        let before = plan.execute(&db).expect("the plan executes");
        let mut cold = generate();
        for &(table, col) in &replace {
            let new = negated(db.table(table).unwrap(), col);
            db.insert(table, new.clone());
            cold.insert(table, new);
        }
        // What insert replaced is ranked anew, as by a first run, and the
        // plan reads the new rows.
        assert_eq!(
            acquisitions(&plan, &db),
            runs[0],
            "{name}: the run after insert"
        );
        let after = plan.execute(&db).expect("the plan executes");
        assert_eq!(after, plan.execute(&cold).unwrap(), "{name}");
        assert_ne!(after, before, "{name}: the negated rows differ");
    }
}
