//! The executor's fast paths against the plain code they stand for, on
//! random tables that hold every kind of value — repeated rows, NaN of
//! both signs, both zeros, strings and nulls:
//!
//! - an IndexScan filters the database's sorted order of its table: it
//!   must equal filtering the table and sorting after;
//! - a Sort returns input that is in order already as it came: it must
//!   equal sorting that input;
//! - a NestedLoopJoin compares key values only where the keys' hashes
//!   match: it must equal the plain pairwise loop, pair for pair and in
//!   the same order.
//!
//! `Datum`s that compare equal are equal bit for bit (floats compare by
//! `total_cmp`), so a result table shows everything a plan's output
//! can: rows that tie are interchangeable. The row numbers a Sort keeps
//! are held to a forced sort's inside the crate (`run`'s unit tests).
//!
//! The last tests hold the sorted orders to the table they were built
//! from: `Database::insert` over a scanned table, and two threads
//! scanning one database.

use plansample_catalog::{Datum, TableId};
use plansample_exec::{ColFilter, Database, ExecNode, JoinSpec, Side, Table};
use plansample_query::CmpOp;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Barrier;

type Row = Vec<Datum>;

/// Few enough values that rows repeat, and every case the order and the
/// hash must agree on: NaN of both signs, both zeros, an `Int` and a
/// `Float` of one value, the empty string.
fn palette() -> Vec<Datum> {
    vec![
        Datum::Null,
        Datum::Int(0),
        Datum::Int(-1),
        Datum::Int(7),
        Datum::Float(0.0),
        Datum::Float(-0.0),
        Datum::Float(f64::NAN),
        Datum::Float(-f64::NAN),
        Datum::Float(7.0),
        Datum::Float(f64::NEG_INFINITY),
        Datum::Str(String::new()),
        Datum::Str("a".into()),
        Datum::Str("b".into()),
    ]
}

fn arb_datum() -> impl Strategy<Value = Datum> {
    let values = palette();
    (0..values.len()).prop_map(move |i| values[i].clone())
}

fn arb_rows(width: usize, max_rows: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_datum(), width..=width),
        0..=max_rows,
    )
}

fn arb_filters(width: usize) -> impl Strategy<Value = Vec<ColFilter>> {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    proptest::collection::vec(
        (0..width, 0..OPS.len(), arb_datum()).prop_map(|(offset, op, value)| ColFilter {
            offset,
            op: OPS[op],
            value,
        }),
        0..=2,
    )
}

fn db_of(tables: Vec<(usize, Vec<Row>)>) -> Database {
    let mut db = Database::new();
    for (id, (width, rows)) in (0..).zip(tables) {
        db.insert(TableId(id), Table::from_rows(width, rows).unwrap());
    }
    db
}

fn table_scan(table: u32) -> Box<ExecNode> {
    Box::new(ExecNode::TableScan {
        table: TableId(table),
        filters: vec![],
    })
}

fn index_scan(table: u32, sort_col: usize, filters: Vec<ColFilter>) -> ExecNode {
    ExecNode::IndexScan {
        table: TableId(table),
        sort_col,
        filters,
    }
}

/// Sorts `rows` by the columns `keys`, then the whole row.
fn sorted_by(mut rows: Vec<Row>, keys: &[usize]) -> Vec<Row> {
    let key = |row: &Row| keys.iter().map(|&k| row[k].clone()).collect::<Row>();
    rows.sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.cmp(b)));
    rows
}

fn rows_of(plan: &ExecNode, db: &Database) -> Vec<Row> {
    plan.execute(db).unwrap().rows().to_vec()
}

/// A join whose output is the left row followed by the right row.
fn spec(lw: usize, rw: usize, eq_pairs: Vec<(usize, usize)>) -> JoinSpec {
    JoinSpec {
        eq_pairs,
        assemble: vec![(Side::Left, 0, lw), (Side::Right, 0, rw)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn an_index_scan_is_filter_then_sort(
        rows in arb_rows(3, 40),
        sort_col in 0..3usize,
        filters in arb_filters(3),
    ) {
        let kept: Vec<Row> = rows
            .iter()
            .filter(|row| filters.iter().all(|f| f.matches(row)))
            .cloned()
            .collect();
        let expected = sorted_by(kept, &[sort_col]);
        let db = db_of(vec![(3, rows)]);
        let scan = index_scan(0, sort_col, filters);
        // The first run sorts the table's order, the second reads it.
        prop_assert_eq!(rows_of(&scan, &db), expected.clone());
        prop_assert_eq!(rows_of(&scan, &db), expected);
    }

    #[test]
    fn a_sort_equals_sorting_its_input(
        rows in arb_rows(2, 30),
        keys in proptest::collection::vec(0..2usize, 1..=2),
        sort_col in 0..2usize,
    ) {
        let db = db_of(vec![(2, rows.clone())]);
        let sort = |input: Box<ExecNode>| ExecNode::Sort { input, keys: keys.clone() };
        let expected = sorted_by(rows, &keys);
        // Input in any order, in the order asked for, and in another
        // column's order.
        let ordered = Box::new(sort(table_scan(0)));
        let by_index = Box::new(index_scan(0, sort_col, vec![]));
        for input in [table_scan(0), ordered, by_index] {
            prop_assert_eq!(rows_of(&sort(input), &db), expected.clone());
        }
    }

    #[test]
    fn a_sort_of_a_join_in_row_order_is_the_join(
        left in arb_rows(2, 12),
        right in arb_rows(1, 6),
        keys in proptest::collection::vec(0..3usize, 1..=3),
    ) {
        let db = db_of(vec![(2, left), (1, right)]);
        // Both inputs in whole-row order (an index on the first column
        // sorts by the whole row), so the cross product is too.
        let join = ExecNode::NestedLoopJoin {
            left: Box::new(index_scan(0, 0, vec![])),
            right: Box::new(index_scan(1, 0, vec![])),
            spec: spec(2, 1, vec![]),
        };
        let joined = rows_of(&join, &db);
        let sort = ExecNode::Sort { input: Box::new(join), keys: keys.clone() };
        prop_assert_eq!(rows_of(&sort, &db), sorted_by(joined, &keys));
    }

    #[test]
    fn a_nested_loop_join_is_the_pairwise_loop(
        left in arb_rows(2, 20),
        right in arb_rows(2, 20),
        eq_pairs in proptest::collection::vec((0..2usize, 0..2usize), 0..=2),
    ) {
        let mut expected = Vec::new();
        for l in &left {
            for r in &right {
                if eq_pairs.iter().all(|&(lo, ro)| l[lo] == r[ro]) {
                    expected.push(l.iter().chain(r).cloned().collect::<Row>());
                }
            }
        }
        let db = db_of(vec![(2, left), (2, right)]);
        let join = ExecNode::NestedLoopJoin {
            left: table_scan(0),
            right: table_scan(1),
            spec: spec(2, 2, eq_pairs),
        };
        prop_assert_eq!(rows_of(&join, &db), expected);
    }
}

#[test]
fn the_palette_values_are_pairwise_distinct() {
    // Both zeros and both NaNs stay apart under `Datum`'s order, so a
    // key matches only a key drawn from the same palette entry.
    let values = palette();
    for (i, a) in values.iter().enumerate() {
        for (j, b) in values.iter().enumerate() {
            assert_eq!(a.cmp(b) == Ordering::Equal, i == j, "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn inserting_over_a_scanned_table_scans_the_new_rows() {
    let int_rows = |values: &[i64]| values.iter().map(|&v| vec![Datum::Int(v)]).collect();
    let mut db = db_of(vec![(1, int_rows(&[3, 1, 2]))]);
    let scan = index_scan(0, 0, vec![]);
    assert_eq!(rows_of(&scan, &db), int_rows(&[1, 2, 3]));
    db.insert(TableId(0), Table::from_rows(1, int_rows(&[9, 4])).unwrap());
    assert_eq!(rows_of(&scan, &db), int_rows(&[4, 9]));
    // A wider table in its place: the orders are the new table's.
    let wide = vec![
        vec![Datum::Int(5), Datum::Int(0)],
        vec![Datum::Int(4), Datum::Int(1)],
    ];
    db.insert(TableId(0), Table::from_rows(2, wide.clone()).unwrap());
    assert_eq!(rows_of(&index_scan(0, 1, vec![]), &db), wide);
    assert_eq!(rows_of(&scan, &db), sorted_by(wide, &[0]));
}

fn send_and_sync<T: Send + Sync>() {}
// A database is shared by reference between the threads that run plans.
const _: fn() = send_and_sync::<Database>;

#[test]
fn two_threads_scanning_one_database_agree() {
    let rows: Vec<Row> = (0..200i64)
        .map(|i| vec![Datum::Int((i * 37) % 23), Datum::Float((i % 5) as f64)])
        .collect();
    let expected = sorted_by(rows.clone(), &[1]);
    let db = db_of(vec![(2, rows)]);
    // The order is not built yet: both threads set off together, so
    // both may ask for it while it is being sorted.
    let scan = index_scan(0, 1, vec![]);
    let start = Barrier::new(2);
    let results: Vec<Vec<Row>> = std::thread::scope(|s| {
        let run = || {
            start.wait();
            rows_of(&scan, &db)
        };
        let threads: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(results[0], expected);
    assert_eq!(results[1], expected);
}
