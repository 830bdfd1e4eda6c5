//! The executor's fast paths against the plain code they stand for, on
//! random tables that hold every kind of value — repeated rows, NaN of
//! both signs, both zeros, strings and nulls:
//!
//! - an IndexScan filters the database's sorted order of its table: it
//!   must equal filtering the table and sorting after;
//! - a Sort orders rows by the dense ranks the database keeps of each
//!   column and each whole row, and returns input that is in that order
//!   already as it came: it must equal sorting its input's values by
//!   key, then by the whole row, over a scan, a join of several
//!   segments, a projection that reorders or drops columns, and an
//!   aggregate's built table;
//! - HashAgg and StreamAgg group rows by those ranks: they must give the
//!   groups that grouping by value gives, in the same order;
//! - a NestedLoopJoin compares key values only where the keys' hashes
//!   match: it must equal the plain pairwise loop, pair for pair and in
//!   the same order.
//!
//! `Datum`s that compare equal are equal bit for bit (floats compare by
//! `total_cmp`), so a result table shows everything a plan's output
//! can: rows that tie are interchangeable. The row numbers a Sort keeps
//! are held to those of the value comparator's sort inside the crate
//! (`run`'s unit tests).
//!
//! The last tests hold the sorted orders and the ranks to the table they
//! were built from: `Database::insert` over a scanned or sorted table,
//! and two threads scanning, or sorting, one database.

use plansample_catalog::{Datum, TableId};
use plansample_exec::{AggSpec, ColFilter, Database, ExecNode, JoinSpec, Side, Table};
use plansample_query::{AggFunc, CmpOp};
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

/// What an aggregate of `COUNT(*), MIN(arg), MAX(arg)` grouped by the
/// columns `group` gives, grouping by value: every row in the group of
/// the first equal key (`runs`: of the key just before it), groups in
/// the order their first rows come.
fn grouped_by_value(rows: &[Row], group: &[usize], arg: usize, runs: bool) -> Vec<Row> {
    let mut groups: Vec<(Row, i64, Option<Datum>, Option<Datum>)> = Vec::new();
    for row in rows {
        let key: Row = group.iter().map(|&c| row[c].clone()).collect();
        let known = if runs {
            groups.len().checked_sub(1).filter(|&g| groups[g].0 == key)
        } else {
            groups.iter().position(|g| g.0 == key)
        };
        let g = known.unwrap_or_else(|| {
            groups.push((key, 0, None, None));
            groups.len() - 1
        });
        let (_, count, min, max) = &mut groups[g];
        *count += 1;
        let value = &row[arg];
        if *value != Datum::Null {
            if min.as_ref().is_none_or(|m| value < m) {
                *min = Some(value.clone());
            }
            if max.as_ref().is_none_or(|m| value > m) {
                *max = Some(value.clone());
            }
        }
    }
    if group.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), 0, None, None));
    }
    let or_null = |value: Option<Datum>| value.unwrap_or(Datum::Null);
    groups
        .into_iter()
        .map(|(mut row, count, min, max)| {
            row.extend([Datum::Int(count), or_null(min), or_null(max)]);
            row
        })
        .collect()
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
        right in arb_rows(1, 6),
        empty_rows in 0..4usize,
        keys in proptest::collection::vec(0..4usize, 0..=3),
        sort_col in 0..2usize,
    ) {
        // Table 2 has no columns: joined, it multiplies rows and adds
        // nothing to compare.
        let db = db_of(vec![(2, rows), (1, right), (0, vec![vec![]; empty_rows])]);
        let join = Box::new(ExecNode::NestedLoopJoin {
            left: Box::new(ExecNode::HashJoin {
                left: table_scan(0),
                right: table_scan(1),
                spec: spec(2, 1, vec![(1, 0)]),
            }),
            right: table_scan(2),
            spec: JoinSpec {
                eq_pairs: vec![],
                assemble: vec![(Side::Left, 2, 1), (Side::Left, 0, 2), (Side::Right, 0, 0)],
            },
        });
        let project = |cols: Vec<usize>| Box::new(ExecNode::Project { input: join.clone(), cols });
        // A scan in any order and in a column's order, a join of three
        // segments, projections that reorder or drop its columns, and an
        // aggregate's built table.
        let inputs = [
            table_scan(0),
            Box::new(index_scan(0, sort_col, vec![])),
            join.clone(),
            project(vec![2, 1, 0]),
            project(vec![2, 0]),
            Box::new(ExecNode::HashAgg {
                input: table_scan(0),
                group: vec![1],
                aggs: vec![AggSpec { func: AggFunc::Max, arg: Some(0) }],
            }),
        ];
        for input in inputs {
            let unsorted = rows_of(&input, &db);
            let width = input.execute(&db).unwrap().width();
            let keys: Vec<usize> = keys.iter().map(|&k| k % width).collect();
            let expected = sorted_by(unsorted, &keys);
            let sort = |input: Box<ExecNode>| ExecNode::Sort { input, keys: keys.clone() };
            // ... and the input already in the order asked for.
            let ordered = Box::new(sort(input.clone()));
            for input in [input, ordered] {
                let sort = sort(input);
                prop_assert_eq!(rows_of(&sort, &db), expected.clone(), "{:?}", sort);
            }
        }
        // A Sort over rows without columns has nothing to order by.
        let sort = ExecNode::Sort { input: table_scan(2), keys: vec![] };
        prop_assert_eq!(rows_of(&sort, &db), vec![Row::new(); empty_rows]);
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
    fn the_aggregates_group_by_ranks_as_by_value(
        left in arb_rows(3, 24),
        empty_rows in 0..3usize,
        group in proptest::collection::vec(0..3usize, 0..=3),
        arg in 0..3usize,
        sorted in any::<bool>(),
    ) {
        let db = db_of(vec![(3, left), (0, vec![vec![]; empty_rows])]);
        let scan = if sorted {
            Box::new(ExecNode::Sort { input: table_scan(0), keys: group.clone() })
        } else {
            table_scan(0)
        };
        let aggs = vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::Min, arg: Some(arg) },
            AggSpec { func: AggFunc::Max, arg: Some(arg) },
        ];
        // Over a scan, and over two segments, the second without columns.
        let inputs = [
            scan.clone(),
            Box::new(ExecNode::NestedLoopJoin {
                left: scan,
                right: table_scan(1),
                spec: spec(3, 0, vec![]),
            }),
        ];
        for input in inputs {
            let rows = rows_of(&input, &db);
            let hash = ExecNode::HashAgg { input: input.clone(), group: group.clone(), aggs: aggs.clone() };
            prop_assert_eq!(rows_of(&hash, &db), grouped_by_value(&rows, &group, arg, false));
            let stream = ExecNode::StreamAgg { input, group: group.clone(), aggs: aggs.clone() };
            prop_assert_eq!(rows_of(&stream, &db), grouped_by_value(&rows, &group, arg, true));
        }
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

#[test]
fn inserting_over_a_sorted_table_sorts_the_new_rows() {
    let rows = |values: &[(i64, &str)]| -> Vec<Row> {
        let row = |&(n, s): &(i64, &str)| vec![Datum::Int(n), Datum::Str(s.into())];
        values.iter().map(row).collect()
    };
    let mut db = db_of(vec![(2, rows(&[(2, "b"), (1, "a"), (2, "a")]))]);
    let sort = ExecNode::Sort {
        input: table_scan(0),
        keys: vec![0],
    };
    let count = |group: usize| ExecNode::HashAgg {
        input: table_scan(0),
        group: vec![group],
        aggs: vec![AggSpec {
            func: AggFunc::CountStar,
            arg: None,
        }],
    };
    assert_eq!(rows_of(&sort, &db), rows(&[(1, "a"), (2, "a"), (2, "b")]));
    let counted = |groups: &[(&str, i64)]| -> Vec<Row> {
        let row = |&(s, n): &(&str, i64)| vec![Datum::Str(s.into()), Datum::Int(n)];
        groups.iter().map(row).collect()
    };
    assert_eq!(rows_of(&count(1), &db), counted(&[("b", 1), ("a", 2)]));
    // The same width and rows, other values: the ranks are the new table's.
    db.insert(
        TableId(0),
        Table::from_rows(2, rows(&[(0, "b"), (5, "a"), (-1, "c")])).unwrap(),
    );
    assert_eq!(rows_of(&sort, &db), rows(&[(-1, "c"), (0, "b"), (5, "a")]));
    assert_eq!(
        rows_of(&count(1), &db),
        counted(&[("b", 1), ("a", 1), ("c", 1)])
    );
    // Fewer columns and rows in its place.
    let narrow = vec![vec![Datum::Float(0.5)], vec![Datum::Float(-0.0)]];
    db.insert(TableId(0), Table::from_rows(1, narrow.clone()).unwrap());
    assert_eq!(rows_of(&sort, &db), sorted_by(narrow, &[0]));
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

#[test]
fn two_threads_sorting_one_database_agree() {
    let rows: Vec<Row> = (0..200i64)
        .map(|i| vec![Datum::Int((i * 37) % 23), Datum::Float((i % 5) as f64)])
        .collect();
    let expected = sorted_by(rows.clone(), &[1]);
    let db = db_of(vec![(2, rows)]);
    // No rank is built yet: both threads set off together, so both may
    // ask for the column's ranks, and the whole row's, while they are
    // being built.
    let sort = ExecNode::Sort {
        input: table_scan(0),
        keys: vec![1],
    };
    let start = Barrier::new(2);
    let results: Vec<Vec<Row>> = std::thread::scope(|s| {
        let run = || {
            start.wait();
            rows_of(&sort, &db)
        };
        let threads: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(results[0], expected);
    assert_eq!(results[1], expected);
}
