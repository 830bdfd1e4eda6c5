//! `ColEquivalences` — the flat `(column, representative)` table behind
//! every equivalence-aware order check — against a naive transitive
//! closure: over random edge sets and scopes it must be an equivalence
//! relation and exactly the closure of the in-scope edges.

use plansample_catalog::{table, Catalog, ColType};
use plansample_memo::ColEquivalences;
use plansample_query::{ColRef, QueryBuilder, QuerySpec, RelId, RelSet};
use proptest::prelude::*;

const RELS: usize = 5;
const COLS: usize = 3;

/// An edge as `((relation, column), (relation, column))` ordinals.
type Edge = ((usize, usize), (usize, usize));

/// `t0 … t4`, three columns each, joined by `edges` in the given order.
fn query_with(edges: &[Edge]) -> QuerySpec {
    let mut catalog = Catalog::new();
    for r in 0..RELS {
        let mut t = table(&format!("t{r}"), 100);
        for c in 0..COLS {
            t = t.col(&format!("c{c}"), ColType::Int, 10);
        }
        catalog.add_table(t.build()).unwrap();
    }
    let mut qb = QueryBuilder::new(&catalog);
    for r in 0..RELS {
        qb.rel(&format!("t{r}"), None).unwrap();
    }
    for &((lr, lc), (rr, rc)) in edges {
        qb.join(
            (&format!("t{lr}"), &format!("c{lc}")),
            (&format!("t{rr}"), &format!("c{rc}")),
        )
        .unwrap();
    }
    qb.build().unwrap()
}

fn col((rel, col): (usize, usize)) -> ColRef {
    ColRef {
        rel: RelId(rel as u32),
        col: col as u32,
    }
}

fn scope_of(mask: u32) -> RelSet {
    RelSet::from_iter(
        (0..RELS)
            .filter(|r| mask >> r & 1 == 1)
            .map(|r| RelId(r as u32)),
    )
}

/// Reflexive-symmetric-transitive closure of the edges whose two
/// relations are both in `mask`, over all `RELS × COLS` columns.
fn naive_closure(edges: &[Edge], mask: u32) -> Vec<Vec<bool>> {
    let n = RELS * COLS;
    let at = |(rel, col): (usize, usize)| rel * COLS + col;
    let mut eq = vec![vec![false; n]; n];
    for (i, row) in eq.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(l, r) in edges {
        if mask >> l.0 & 1 == 1 && mask >> r.0 & 1 == 1 {
            eq[at(l)][at(r)] = true;
            eq[at(r)][at(l)] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if eq[i][k] && eq[k][j] {
                    eq[i][j] = true;
                }
            }
        }
    }
    eq
}

fn arb_edge() -> impl Strategy<Value = Edge> {
    ((0..RELS, 0..COLS), (0..RELS, 0..COLS))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_classes_are_the_closure_of_the_in_scope_edges(
        edges in proptest::collection::vec(arb_edge(), 0..12),
        mask in 1u32..(1 << RELS),
    ) {
        let query = query_with(&edges);
        let eq = ColEquivalences::within(&query, scope_of(mask));
        let closure = naive_closure(&edges, mask);
        let cols: Vec<(usize, usize)> =
            (0..RELS).flat_map(|r| (0..COLS).map(move |c| (r, c))).collect();
        for (i, &a) in cols.iter().enumerate() {
            prop_assert!(eq.equivalent(col(a), col(a)), "not reflexive at {a:?}");
            for (j, &b) in cols.iter().enumerate() {
                let ab = eq.equivalent(col(a), col(b));
                prop_assert_eq!(
                    ab, closure[i][j],
                    "{:?} ~ {:?} in scope {:#b} of {:?}", a, b, mask, &edges
                );
                prop_assert_eq!(ab, eq.equivalent(col(b), col(a)), "not symmetric");
                for &c in &cols {
                    prop_assert!(
                        !(ab && eq.equivalent(col(b), col(c))) || eq.equivalent(col(a), col(c)),
                        "not transitive over {a:?}, {b:?}, {c:?}"
                    );
                }
            }
        }
    }
}

/// `a = b`, `c = d`, then `b = c` joins two classes that already have
/// two members each — in every order of the three unions and with every
/// edge written both ways round.
#[test]
fn chained_unions_merge_whole_classes_in_every_order() {
    let (a, b, c, d) = ((0, 0), (1, 1), (2, 2), (3, 0));
    let chain = [(a, b), (c, d), (b, c)];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        for flips in 0..8u32 {
            let edges: Vec<Edge> = order
                .iter()
                .map(|&i| {
                    let (l, r) = chain[i];
                    if flips >> i & 1 == 1 {
                        (r, l)
                    } else {
                        (l, r)
                    }
                })
                .collect();
            let query = query_with(&edges);
            let all = ColEquivalences::within(&query, scope_of(0b1111));
            for x in [a, b, c, d] {
                for y in [a, b, c, d] {
                    assert!(
                        all.equivalent(col(x), col(y)),
                        "{x:?} ~ {y:?} via {edges:?}"
                    );
                }
            }
            assert!(!all.equivalent(col(a), col((4, 0))), "t4 is not joined");
            // Without t2 neither `c = d` nor `b = c` is applied.
            let without_c = ColEquivalences::within(&query, scope_of(0b1011));
            assert!(without_c.equivalent(col(a), col(b)));
            assert!(!without_c.equivalent(col(b), col(d)));
            assert!(!without_c.equivalent(col(c), col(d)));
            assert!(without_c.equivalent(col(c), col(c)));
        }
    }
}
