//! Property tests: all three join algorithms implement the same join, and
//! both aggregation algorithms implement the same aggregation (given
//! their property obligations are met).

use plansample_catalog::Datum::{self, Int};
use plansample_catalog::TableId;
use plansample_exec::{AggSpec, Database, ExecNode, JoinSpec, Side, Table};
use plansample_query::AggFunc;
use proptest::prelude::*;

fn arb_table(
    width: usize,
    max_rows: usize,
    key_domain: i64,
) -> impl Strategy<Value = Vec<Vec<Datum>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..key_domain).prop_map(Int), width..=width),
        0..=max_rows,
    )
}

fn db_two(w0: usize, r0: Vec<Vec<Datum>>, w1: usize, r1: Vec<Vec<Datum>>) -> Database {
    let mut db = Database::new();
    db.insert(TableId(0), Table::from_rows(w0, r0).unwrap());
    db.insert(TableId(1), Table::from_rows(w1, r1).unwrap());
    db
}

fn scan(t: u32) -> Box<ExecNode> {
    Box::new(ExecNode::TableScan {
        table: TableId(t),
        filters: vec![],
    })
}

fn spec(lw: usize, rw: usize, pairs: Vec<(usize, usize)>) -> JoinSpec {
    JoinSpec {
        eq_pairs: pairs,
        assemble: vec![(Side::Left, 0, lw), (Side::Right, 0, rw)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_join_algorithms_agree(
        l in arb_table(2, 24, 6),
        r in arb_table(2, 24, 6),
    ) {
        let db = db_two(2, l, 2, r);
        let s = spec(2, 2, vec![(0, 0)]);

        let nlj = ExecNode::NestedLoopJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let hj = ExecNode::HashJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            right: Box::new(ExecNode::Sort { input: scan(1), keys: vec![0] }),
            left_key: 0,
            right_key: 0,
            spec: s,
        };

        let a = nlj.execute(&db).unwrap();
        let b = hj.execute(&db).unwrap();
        let c = mj.execute(&db).unwrap();
        prop_assert!(a.multiset_eq(&b), "NLJ vs HashJoin");
        prop_assert!(a.multiset_eq(&c), "NLJ vs MergeJoin");
    }

    #[test]
    fn join_with_two_predicates_agrees(
        l in arb_table(2, 16, 4),
        r in arb_table(2, 16, 4),
    ) {
        let db = db_two(2, l, 2, r);
        let s = spec(2, 2, vec![(0, 0), (1, 1)]);
        let nlj = ExecNode::NestedLoopJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let hj = ExecNode::HashJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            right: Box::new(ExecNode::Sort { input: scan(1), keys: vec![0] }),
            left_key: 0,
            right_key: 0,
            spec: s,
        };
        let a = nlj.execute(&db).unwrap();
        prop_assert!(a.multiset_eq(&hj.execute(&db).unwrap()));
        prop_assert!(a.multiset_eq(&mj.execute(&db).unwrap()));
    }

    #[test]
    fn join_commutes_as_multiset(
        l in arb_table(1, 20, 5),
        r in arb_table(1, 20, 5),
    ) {
        let db = db_two(1, l, 1, r);
        // A ⋈ B assembled as (A,B) vs B ⋈ A assembled back as (A,B).
        let ab = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: spec(1, 1, vec![(0, 0)]),
        };
        let ba = ExecNode::HashJoin {
            left: scan(1),
            right: scan(0),
            spec: JoinSpec {
                eq_pairs: vec![(0, 0)],
                assemble: vec![(Side::Right, 0, 1), (Side::Left, 0, 1)],
            },
        };
        let x = ab.execute(&db).unwrap();
        let y = ba.execute(&db).unwrap();
        prop_assert!(x.multiset_eq(&y));
    }

    #[test]
    fn aggregation_algorithms_agree(rows in arb_table(2, 32, 5)) {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(2, rows).unwrap());
        let aggs = vec![
            AggSpec { func: AggFunc::Sum, arg: Some(1) },
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::Min, arg: Some(1) },
            AggSpec { func: AggFunc::Max, arg: Some(1) },
        ];
        let hash = ExecNode::HashAgg { input: scan(0), group: vec![0], aggs: aggs.clone() };
        let stream = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            group: vec![0],
            aggs,
        };
        prop_assert!(hash.execute(&db).unwrap().multiset_eq(&stream.execute(&db).unwrap()));
    }

    #[test]
    fn sort_preserves_multiset(rows in arb_table(2, 32, 10)) {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(2, rows).unwrap());
        let sorted = ExecNode::Sort { input: scan(0), keys: vec![1, 0] }.execute(&db).unwrap();
        let plain = scan(0).execute(&db).unwrap();
        prop_assert!(sorted.multiset_eq(&plain));
        // and really is sorted on the key
        for w in sorted.rows().windows(2) {
            prop_assert!(w[0][1] <= w[1][1]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pipelined (Volcano) engine and the materialized engine are
    /// independent implementations of the same algebra: they must agree
    /// on arbitrary join + aggregation pipelines.
    #[test]
    fn pipelined_engine_agrees_with_materialized(
        l in arb_table(2, 20, 5),
        r in arb_table(2, 20, 5),
    ) {
        let db = db_two(2, l, 2, r);
        let join = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: spec(2, 2, vec![(0, 0)]),
        };
        let plan = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort { input: Box::new(join), keys: vec![1] }),
            group: vec![1],
            aggs: vec![
                AggSpec { func: AggFunc::CountStar, arg: None },
                AggSpec { func: AggFunc::Sum, arg: Some(3) },
            ],
        };
        let a = plan.execute(&db).unwrap();
        let b = plan.execute_pipelined(&db).unwrap();
        prop_assert!(a.multiset_eq(&b), "{} vs {} rows", a.len(), b.len());
    }

    #[test]
    fn pipelined_merge_join_agrees(
        l in arb_table(1, 24, 4),
        r in arb_table(1, 24, 4),
    ) {
        let db = db_two(1, l, 1, r);
        let plan = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            right: Box::new(ExecNode::Sort { input: scan(1), keys: vec![0] }),
            left_key: 0,
            right_key: 0,
            spec: spec(1, 1, vec![(0, 0)]),
        };
        let a = plan.execute(&db).unwrap();
        let b = plan.execute_pipelined(&db).unwrap();
        prop_assert!(a.multiset_eq(&b));
    }
}

// ---------------------------------------------------------------------
// Shapes `lower` never emits but the engine promises to run. Every plan
// below goes through both engines, which must agree as multisets.
// ---------------------------------------------------------------------

/// Runs `plan` on both engines and returns `execute`'s table.
fn engines_agree(plan: &ExecNode, db: &Database) -> Result<Table, TestCaseError> {
    let run = plan
        .execute(db)
        .map_err(|e| TestCaseError::fail(format!("execute: {e}")))?;
    let volcano = plan
        .execute_pipelined(db)
        .map_err(|e| TestCaseError::fail(format!("execute_pipelined: {e}")))?;
    prop_assert!(
        run.multiset_eq(&volcano),
        "engines disagree ({} vs {} rows) on {plan:?}",
        run.len(),
        volcano.len()
    );
    Ok(run)
}

fn sorted(input: Box<ExecNode>, key: usize) -> Box<ExecNode> {
    Box::new(ExecNode::Sort {
        input,
        keys: vec![key],
    })
}

/// The three join algorithms over the same inputs and spec, the merge
/// join's inputs sorted on the first equality pair (or, for a cross
/// product, on column 0 of both sides).
fn three_joins(left: &ExecNode, right: &ExecNode, spec: &JoinSpec) -> [ExecNode; 3] {
    let (left_key, right_key) = spec.eq_pairs.first().copied().unwrap_or((0, 0));
    let (l, r) = (Box::new(left.clone()), Box::new(right.clone()));
    [
        ExecNode::NestedLoopJoin {
            left: l.clone(),
            right: r.clone(),
            spec: spec.clone(),
        },
        ExecNode::HashJoin {
            left: l.clone(),
            right: r.clone(),
            spec: spec.clone(),
        },
        ExecNode::MergeJoin {
            left: sorted(l, left_key),
            right: sorted(r, right_key),
            left_key,
            right_key,
            spec: spec.clone(),
        },
    ]
}

/// Cuts of a 3-column left and a 2-column right input into an assembly
/// exactly 5 columns wide: ranges may split a side in two, come in any
/// order, overlap, and repeat. Returns the assembly and, per output
/// column, its offset in the plain `left ++ right` layout.
fn arb_assembly() -> impl Strategy<Value = (Vec<(Side, usize, usize)>, Vec<usize>)> {
    proptest::collection::vec((0usize..2, 0usize..3, 1usize..4), 1..=5).prop_map(|cuts| {
        let mut assemble = Vec::new();
        let mut plain = Vec::new();
        for (side, start, len) in cuts {
            let (side, width, shift) = if side == 0 {
                (Side::Left, 3, 0)
            } else {
                (Side::Right, 2, 3)
            };
            let start = start % width;
            let len = len.min(width - start).min(5 - plain.len());
            if len > 0 {
                assemble.push((side, start, len));
                plain.extend((start..start + len).map(|c| c + shift));
            }
        }
        // Pad to the declared width, one copied column at a time.
        while plain.len() < 5 {
            assemble.push((Side::Right, 1, 1));
            plain.push(4);
        }
        (assemble, plain)
    })
}

/// A small domain of every `Datum` kind: equal-looking values of
/// different types (`1`, `1.0`, `'1'`), both float zeros, the empty
/// string and NULL.
fn arb_mixed_datum() -> impl Strategy<Value = Datum> {
    (0usize..10).prop_map(|pick| match pick {
        0 => Datum::Null,
        1 => Int(0),
        2 => Int(1),
        3 => Datum::Float(0.0),
        4 => Datum::Float(-0.0),
        5 => Datum::Float(1.0),
        6 => Datum::Str(String::new()),
        7 => Datum::Str("1".into()),
        8 => Datum::Str("key".into()),
        _ => Datum::Str("a key long enough to span several hash words".into()),
    })
}

fn arb_mixed_table(width: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<Datum>>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_mixed_datum(), width..=width),
        0..=max_rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) An assembly is any list of ranges: it equals the plain
    /// assembly followed by the projection that picks the same columns,
    /// in every join algorithm, and it keeps working one join further up.
    #[test]
    fn assemblies_that_split_reorder_and_repeat_ranges(
        l in arb_table(3, 16, 4),
        r in arb_table(2, 16, 4),
        (assemble, plain) in arb_assembly(),
    ) {
        let db = db_two(3, l, 2, r);
        let cut = JoinSpec { eq_pairs: vec![(0, 0)], assemble };
        let expected = engines_agree(
            &ExecNode::Project {
                input: Box::new(ExecNode::NestedLoopJoin {
                    left: scan(0),
                    right: scan(1),
                    spec: spec(3, 2, vec![(0, 0)]),
                }),
                cols: plain,
            },
            &db,
        )?;
        for join in three_joins(&scan(0), &scan(1), &cut) {
            let out = engines_agree(&join, &db)?;
            prop_assert!(out.multiset_eq(&expected), "{join:?}");
            // The cut layout as the input of another join and a sort.
            let above = ExecNode::Sort {
                input: Box::new(ExecNode::HashJoin {
                    left: Box::new(join),
                    right: scan(1),
                    spec: JoinSpec {
                        eq_pairs: vec![(4, 1)],
                        assemble: vec![(Side::Left, 2, 3), (Side::Right, 0, 2), (Side::Left, 0, 2)],
                    },
                }),
                keys: vec![6, 0],
            };
            engines_agree(&above, &db)?;
        }
    }

    /// (b) An aggregate's output is a table the operator owns; it must
    /// flow through sorts and joins like a stored one, also when both
    /// join inputs aggregate the same scan.
    #[test]
    fn aggregates_below_joins_and_sorts(
        l in arb_table(2, 24, 5),
        r in arb_table(2, 24, 5),
    ) {
        let distinct = {
            let mut keys: Vec<&Datum> = l.iter().map(|row| &row[0]).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        };
        let db = db_two(2, l, 2, r);
        let hashed = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![
                AggSpec { func: AggFunc::CountStar, arg: None },
                AggSpec { func: AggFunc::Sum, arg: Some(1) },
            ],
        };
        let streamed = ExecNode::StreamAgg {
            input: sorted(scan(0), 0),
            group: vec![0],
            aggs: vec![AggSpec { func: AggFunc::Max, arg: Some(1) }],
        };
        // Two aggregates of one scan, joined on the group key: one row
        // a group, whichever algorithm joins them.
        for join in three_joins(&hashed, &streamed, &spec(3, 2, vec![(0, 0)])) {
            let out = engines_agree(&join, &db)?;
            prop_assert_eq!(out.len(), distinct);
        }
        // An aggregate beside a stored table, then sorted and
        // aggregated again.
        let mut results = Vec::new();
        for join in three_joins(&hashed, &scan(1), &spec(3, 2, vec![(0, 0)])) {
            let again = ExecNode::StreamAgg {
                input: Box::new(ExecNode::Sort { input: Box::new(join), keys: vec![4, 1] }),
                group: vec![4],
                aggs: vec![AggSpec { func: AggFunc::Sum, arg: Some(2) }],
            };
            results.push(engines_agree(&again, &db)?);
        }
        prop_assert!(results[0].multiset_eq(&results[1]));
        prop_assert!(results[0].multiset_eq(&results[2]));
    }

    /// (c) A projection in the middle of a plan: the operators above it
    /// address the projected layout.
    #[test]
    fn project_above_a_join_feeds_sort_and_merge_join(
        l in arb_table(2, 20, 5),
        r in arb_table(2, 20, 5),
    ) {
        let db = db_two(2, l, 2, r);
        // (l0, l1, r0, r1) -> (r1, l0, r1, l1): reordered, one column
        // dropped, one kept twice.
        let projected = ExecNode::Project {
            input: Box::new(ExecNode::HashJoin {
                left: scan(0),
                right: scan(1),
                spec: spec(2, 2, vec![(0, 0)]),
            }),
            cols: vec![3, 0, 3, 1],
        };
        let mut results = Vec::new();
        for join in three_joins(&projected, &scan(1), &spec(4, 2, vec![(2, 1)])) {
            results.push(engines_agree(&join, &db)?);
        }
        prop_assert!(results[0].multiset_eq(&results[1]));
        prop_assert!(results[0].multiset_eq(&results[2]));
        let ordered = engines_agree(
            &ExecNode::Sort { input: Box::new(projected), keys: vec![2, 3] },
            &db,
        )?;
        for pair in ordered.rows().windows(2) {
            prop_assert!((&pair[0][2], &pair[0][3]) <= (&pair[1][2], &pair[1][3]));
        }
    }

    /// (d) The degenerate inputs: an empty side, no equality pairs, no
    /// columns, nothing to aggregate.
    #[test]
    fn empty_inputs_cross_products_and_zero_columns(
        l in arb_table(2, 8, 3),
        r in arb_table(2, 8, 3),
        emptied in 0usize..4,
    ) {
        let l = if emptied & 1 == 1 { Vec::new() } else { l };
        let r = if emptied & 2 == 2 { Vec::new() } else { r };
        let (l_rows, r_rows) = (l.len(), r.len());
        let db = db_two(2, l, 2, r);
        for pairs in [vec![], vec![(0, 0)], vec![(0, 0), (1, 1)]] {
            let cross = pairs.is_empty();
            let mut results = Vec::new();
            for join in three_joins(&scan(0), &scan(1), &spec(2, 2, pairs.clone())) {
                let rows = engines_agree(&join, &db)?;
                // No columns left, every row still there; and a scalar
                // aggregate over whatever is left, possibly nothing.
                let bare = ExecNode::Project { input: Box::new(join), cols: vec![] };
                let no_columns = engines_agree(&bare, &db)?;
                prop_assert_eq!(no_columns.width(), 0);
                prop_assert_eq!(no_columns.len(), rows.len());
                for hashing in [true, false] {
                    let (input, group) = (Box::new(bare.clone()), vec![]);
                    let aggs = vec![AggSpec { func: AggFunc::CountStar, arg: None }];
                    let count = if hashing {
                        ExecNode::HashAgg { input, group, aggs }
                    } else {
                        ExecNode::StreamAgg { input, group, aggs }
                    };
                    let counted = engines_agree(&count, &db)?;
                    let expected = i64::try_from(rows.len()).unwrap();
                    prop_assert_eq!(counted.rows(), &[vec![Int(expected)]]);
                }
                results.push(rows);
            }
            // The merge join of a cross product pairs equal column-0
            // values only: it is its own plan, not the same join.
            prop_assert!(results[0].multiset_eq(&results[1]));
            if cross {
                prop_assert_eq!(results[0].len(), l_rows * r_rows);
            } else {
                prop_assert!(results[0].multiset_eq(&results[2]));
            }
        }
        // SUM and MIN over nothing are NULL, on a grouped input nothing.
        let nothing = ExecNode::TableScan {
            table: TableId(0),
            filters: vec![plansample_exec::ColFilter {
                offset: 0,
                op: plansample_query::CmpOp::Lt,
                value: Int(0),
            }],
        };
        for group in [vec![], vec![0]] {
            let aggs = vec![
                AggSpec { func: AggFunc::Sum, arg: Some(1) },
                AggSpec { func: AggFunc::Min, arg: Some(1) },
            ];
            let hash = ExecNode::HashAgg {
                input: Box::new(nothing.clone()),
                group: group.clone(),
                aggs: aggs.clone(),
            };
            let stream = ExecNode::StreamAgg {
                input: Box::new(nothing.clone()),
                group: group.clone(),
                aggs,
            };
            let out = engines_agree(&hash, &db)?;
            prop_assert!(out.multiset_eq(&engines_agree(&stream, &db)?));
            if group.is_empty() {
                prop_assert_eq!(out.rows(), &[vec![Datum::Null, Datum::Null]]);
            } else {
                prop_assert!(out.is_empty());
            }
        }
    }

    /// (e) Keys of every type, few enough values that the chained hash
    /// table holds long chains and distinct keys share buckets: hashing
    /// must find what comparing finds.
    #[test]
    fn mixed_type_keys_through_hash_join_and_hash_agg(
        l in arb_mixed_table(2, 40),
        r in arb_mixed_table(2, 40),
    ) {
        let db = db_two(2, l, 2, r);
        for pairs in [vec![(0, 0)], vec![(0, 1), (1, 0)]] {
            let mut results = Vec::new();
            for join in three_joins(&scan(0), &scan(1), &spec(2, 2, pairs.clone())) {
                results.push(engines_agree(&join, &db)?);
            }
            prop_assert!(results[0].multiset_eq(&results[1]), "NLJ vs HashJoin on {pairs:?}");
            prop_assert!(results[0].multiset_eq(&results[2]), "NLJ vs MergeJoin on {pairs:?}");
        }
        let aggs = vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::Min, arg: Some(1) },
            AggSpec { func: AggFunc::Max, arg: Some(0) },
        ];
        for group in [vec![0], vec![1, 0]] {
            let hash = ExecNode::HashAgg { input: scan(0), group: group.clone(), aggs: aggs.clone() };
            let stream = ExecNode::StreamAgg {
                input: Box::new(ExecNode::Sort { input: scan(0), keys: group.clone() }),
                group: group.clone(),
                aggs: aggs.clone(),
            };
            let out = engines_agree(&hash, &db)?;
            prop_assert!(out.multiset_eq(&engines_agree(&stream, &db)?), "group {group:?}");
        }
    }
}
