//! Physical properties: sort orders and property satisfaction.
//!
//! The paper (§2) stresses that "operators of the same group … may differ
//! in physical properties. … In case the parent operator requires a sort
//! order on a certain attribute, not all operators may be chosen as
//! potential children." This module defines the delivered/required order
//! model used everywhere: by the optimizer when costing, and by the
//! counting/unranking machinery when materializing parent→child links
//! (§3.1).
//!
//! Satisfaction is *equivalence-aware*: within a sub-plan covering
//! relation set `S`, every join edge internal to `S` has been applied, so
//! columns equated by those edges hold identical values on every row and
//! are interchangeable as sort keys. This mirrors how industrial
//! optimizers track column equivalence classes.

use plansample_query::{ColRef, QuerySpec, RelSet};

/// A (possibly empty) lexicographic sort order over columns.
///
/// The empty order means "no order" — as a *delivered* property it says
/// the operator guarantees nothing; as a *requirement* it is satisfied by
/// anything.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SortOrder {
    cols: Vec<ColRef>,
}

impl SortOrder {
    /// No ordering guarantee / no requirement.
    pub fn unsorted() -> Self {
        SortOrder { cols: Vec::new() }
    }

    /// Order on the given columns, major first.
    pub fn on(cols: Vec<ColRef>) -> Self {
        SortOrder { cols }
    }

    /// Order on a single column.
    pub fn on_col(col: ColRef) -> Self {
        SortOrder { cols: vec![col] }
    }

    /// The key columns, major first.
    pub fn cols(&self) -> &[ColRef] {
        &self.cols
    }

    /// `true` iff this is the empty (no-op) order.
    pub fn is_unsorted(&self) -> bool {
        self.cols.is_empty()
    }

    /// Heap bytes behind the key vector (capacity-accurate).
    pub fn heap_bytes(&self) -> usize {
        self.cols.capacity() * std::mem::size_of::<ColRef>()
    }
}

/// Column equivalence classes induced by the join edges internal to one
/// relation set.
///
/// A flat `(column, class representative)` table, searched linearly: a
/// scope has a handful of join columns, and at most one table is built
/// per group of a memo, so there is nothing for a hash map to amortize.
/// A column no in-scope edge mentions is absent and equivalent only to
/// itself.
#[derive(Debug)]
pub struct ColEquivalences {
    classes: Vec<(ColRef, ColRef)>,
}

impl ColEquivalences {
    /// Builds the classes for sub-plans covering `scope`.
    pub fn within(query: &QuerySpec, scope: RelSet) -> Self {
        // Each edge enters at most its two columns.
        let edges = query.edges_within(scope).count();
        let mut eq = ColEquivalences {
            classes: Vec::with_capacity(2 * edges),
        };
        for edge in query.edges_within(scope) {
            eq.union(edge.left, edge.right);
        }
        eq
    }

    /// The representative of `col`'s class, entering `col` as a class of
    /// its own when the table has not seen it.
    fn representative(&mut self, col: ColRef) -> ColRef {
        self.class_of(col).unwrap_or_else(|| {
            self.classes.push((col, col));
            col
        })
    }

    /// Merges the classes of `a` and `b`. Every entry points straight at
    /// its representative, so a lookup never follows a chain.
    fn union(&mut self, a: ColRef, b: ColRef) {
        let (ra, rb) = (self.representative(a), self.representative(b));
        if ra != rb {
            for (_, rep) in &mut self.classes {
                if *rep == ra {
                    *rep = rb;
                }
            }
        }
    }

    fn class_of(&self, col: ColRef) -> Option<ColRef> {
        self.classes
            .iter()
            .find(|(c, _)| *c == col)
            .map(|&(_, rep)| rep)
    }

    /// `true` iff `a` and `b` are equated by predicates inside the scope
    /// (or are the same column).
    pub fn equivalent(&self, a: ColRef, b: ColRef) -> bool {
        a == b
            || self
                .class_of(a)
                .is_some_and(|rep| self.class_of(b) == Some(rep))
    }
}

/// Does `delivered` satisfy `required` for a sub-plan covering `scope`?
///
/// `required` must be an (equivalence-aware) prefix of `delivered`: a
/// stream that is sorted on `(a, b)` is also sorted on `(a)`, and sorted
/// on `(a)` satisfies sorted on `(a')` when `a = a'` was applied inside
/// the sub-plan.
///
/// One-shot convenience over [`OrderSatisfier`]; callers that test many
/// candidates against the same scope (link materialization checks every
/// expression of a group) should hold an `OrderSatisfier` instead so the
/// equivalence classes are built at most once.
pub fn satisfies(
    query: &QuerySpec,
    scope: RelSet,
    delivered: &SortOrder,
    required: &SortOrder,
) -> bool {
    OrderSatisfier::new(query, scope).satisfies(delivered, required)
}

/// [`satisfies`] over a borrowed delivered key-column slice — the form
/// property checks use with
/// [`PhysicalExpr::delivered_cols`](crate::PhysicalExpr::delivered_cols),
/// which borrows from the operator instead of materializing a
/// [`SortOrder`].
pub fn satisfies_cols(
    query: &QuerySpec,
    scope: RelSet,
    delivered: &[ColRef],
    required: &SortOrder,
) -> bool {
    OrderSatisfier::new(query, scope).satisfies_cols(delivered, required)
}

/// A reusable order-satisfaction checker for one relation-set scope.
///
/// The syntactic prefix check needs no preparation; the equivalence-
/// aware fallback needs the scope's column equivalence classes, which
/// cost a union-find build over the internal join edges. This type
/// builds them lazily and at most once, however many candidates are
/// tested — the difference between O(edges) per *slot* and O(edges) per
/// *candidate* on the link-materialization hot path.
pub struct OrderSatisfier<'q> {
    query: &'q QuerySpec,
    scope: RelSet,
    eq: Option<ColEquivalences>,
}

impl<'q> OrderSatisfier<'q> {
    /// A checker for sub-plans covering `scope`.
    pub fn new(query: &'q QuerySpec, scope: RelSet) -> Self {
        OrderSatisfier {
            query,
            scope,
            eq: None,
        }
    }

    /// Does `delivered` satisfy `required` within this scope?
    pub fn satisfies(&mut self, delivered: &SortOrder, required: &SortOrder) -> bool {
        self.satisfies_cols(delivered.cols(), required)
    }

    /// [`satisfies`](Self::satisfies) over a borrowed delivered
    /// key-column slice (see [`satisfies_cols`]).
    pub fn satisfies_cols(&mut self, delivered: &[ColRef], required: &SortOrder) -> bool {
        self.satisfies_slice(delivered, required.cols())
    }

    /// [`satisfies`](Self::satisfies) with both orders as borrowed
    /// key-column slices: the form a slot borrowed from its operator
    /// asks in, with nothing cloned.
    pub(crate) fn satisfies_slice(&mut self, delivered: &[ColRef], required: &[ColRef]) -> bool {
        if delivered.len() < required.len() {
            return false;
        }
        // Cheap syntactic check first; equivalence classes only when
        // needed, and then only built once per scope.
        if delivered.iter().zip(required).all(|(d, r)| d == r) {
            return true;
        }
        let eq = self.equivalences();
        delivered
            .iter()
            .zip(required)
            .all(|(&d, &r)| eq.equivalent(d, r))
    }

    /// The representative of `col`'s equivalence class in this scope:
    /// two columns are interchangeable as sort keys exactly when their
    /// representatives are equal, so a one-column requirement is met by
    /// every order whose first column has the requirement's
    /// representative.
    pub(crate) fn representative(&mut self, col: ColRef) -> ColRef {
        self.equivalences().class_of(col).unwrap_or(col)
    }

    fn equivalences(&mut self) -> &ColEquivalences {
        self.eq
            .get_or_insert_with(|| ColEquivalences::within(self.query, self.scope))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::{QueryBuilder, RelId};

    pub(crate) fn chain_query() -> (Catalog, QuerySpec) {
        // a(x) -- b(y,z) -- c(w): edges a.x=b.y, b.z=c.w
        let mut cat = Catalog::new();
        cat.add_table(table("a", 10).col("x", ColType::Int, 10).build())
            .unwrap();
        cat.add_table(
            table("b", 10)
                .col("y", ColType::Int, 10)
                .col("z", ColType::Int, 10)
                .build(),
        )
        .unwrap();
        cat.add_table(table("c", 10).col("w", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.rel("c", None).unwrap();
        qb.join(("a", "x"), ("b", "y")).unwrap();
        qb.join(("b", "z"), ("c", "w")).unwrap();
        let q = qb.build().unwrap();
        (cat, q)
    }

    fn col(rel: u32, c: u32) -> ColRef {
        ColRef {
            rel: RelId(rel),
            col: c,
        }
    }

    fn rs(ids: &[u32]) -> RelSet {
        RelSet::from_iter(ids.iter().map(|&i| RelId(i)))
    }

    #[test]
    fn empty_requirement_always_satisfied() {
        let (_cat, q) = chain_query();
        assert!(satisfies(
            &q,
            rs(&[0]),
            &SortOrder::unsorted(),
            &SortOrder::unsorted()
        ));
        assert!(satisfies(
            &q,
            rs(&[0]),
            &SortOrder::on_col(col(0, 0)),
            &SortOrder::unsorted()
        ));
    }

    #[test]
    fn unsorted_never_satisfies_an_order() {
        let (_cat, q) = chain_query();
        assert!(!satisfies(
            &q,
            rs(&[0]),
            &SortOrder::unsorted(),
            &SortOrder::on_col(col(0, 0))
        ));
    }

    #[test]
    fn prefix_rule() {
        let (_cat, q) = chain_query();
        let ab = SortOrder::on(vec![col(0, 0), col(1, 1)]);
        let a = SortOrder::on_col(col(0, 0));
        assert!(satisfies(&q, rs(&[0, 1]), &ab, &a));
        assert!(!satisfies(&q, rs(&[0, 1]), &a, &ab));
        // order on a different column does not satisfy
        assert!(!satisfies(
            &q,
            rs(&[0, 1]),
            &SortOrder::on_col(col(1, 1)),
            &a
        ));
    }

    #[test]
    fn equivalence_applies_only_within_scope() {
        let (_cat, q) = chain_query();
        let ax = SortOrder::on_col(col(0, 0)); // a.x
        let by = SortOrder::on_col(col(1, 0)); // b.y (equated to a.x)

        // In scope {a,b} the edge a.x=b.y is applied: orders interchange.
        assert!(satisfies(&q, rs(&[0, 1]), &ax, &by));
        assert!(satisfies(&q, rs(&[0, 1]), &by, &ax));
        // In scope {a} alone the predicate has not been applied.
        assert!(!satisfies(&q, rs(&[0]), &ax, &by));
    }

    #[test]
    fn transitive_equivalence_through_chain() {
        // With only edges a.x=b.y and b.z=c.w, a.x is NOT equivalent to
        // b.z (different classes) even in full scope.
        let (_cat, q) = chain_query();
        let ax = SortOrder::on_col(col(0, 0));
        let bz = SortOrder::on_col(col(1, 1));
        assert!(!satisfies(&q, rs(&[0, 1, 2]), &ax, &bz));
        // but b.z ~ c.w is.
        let cw = SortOrder::on_col(col(2, 0));
        assert!(satisfies(&q, rs(&[0, 1, 2]), &bz, &cw));
    }

    #[test]
    fn equivalence_classes_direct() {
        let (_cat, q) = chain_query();
        let eq = ColEquivalences::within(&q, rs(&[0, 1, 2]));
        assert!(eq.equivalent(col(0, 0), col(1, 0)));
        assert!(eq.equivalent(col(1, 1), col(2, 0)));
        assert!(!eq.equivalent(col(0, 0), col(2, 0)));
        assert!(eq.equivalent(col(0, 0), col(0, 0)));
    }

    #[test]
    fn sort_order_basics() {
        assert!(SortOrder::unsorted().is_unsorted());
        assert!(!SortOrder::on_col(col(0, 0)).is_unsorted());
        assert_eq!(SortOrder::on_col(col(0, 0)).cols().len(), 1);
        assert_eq!(SortOrder::default(), SortOrder::unsorted());
    }
}
