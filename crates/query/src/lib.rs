//! Query specifications: the declarative input to the optimizer.
//!
//! A [`QuerySpec`] is a single select-project-join block — relations
//! (table instances with aliases, so self-joins like TPC-H Q7's two
//! `nation` references work), equality join edges, per-relation filters,
//! and an optional aggregate on top. This mirrors what the paper's initial
//! logical plan encodes before it is copied into the MEMO (Figure 1).
//!
//! The crate also owns the *statistics view* of a query: filter and join
//! selectivities and the classic System-R cardinality estimate for any
//! subset of relations, which the optimizer's cost model consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod card;
mod relset;
pub mod tpch;

pub use builder::{QueryBuilder, QueryError};
pub use relset::RelSet;

use plansample_catalog::{Catalog, Datum, TableId};

/// Index of a relation instance within one query (not a table id — the same
/// table may appear several times under different aliases).
///
/// Stored as a `u32` so a [`ColRef`] packs into 8 bytes: column
/// references appear in every join/scan operator of the MEMO, and their
/// size directly sets the per-expression memory footprint of a prepared
/// plan space (docs/DESIGN.md §6). Queries are limited to
/// [`RelSet::MAX_RELS`] = 64 relations anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The id as a usize array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A reference to one relation instance of the query.
#[derive(Debug, Clone)]
pub struct RelRef {
    /// Underlying table.
    pub table: TableId,
    /// Alias, unique within the query (defaults to the table name).
    pub alias: String,
}

/// A column of a relation instance. Packs into 8 bytes (two `u32`s) —
/// see [`RelId`] for why that matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// Which relation instance.
    pub rel: RelId,
    /// Column ordinal within that relation's table.
    pub col: u32,
}

impl ColRef {
    /// The column ordinal as a usize array index.
    #[inline]
    pub fn col_idx(self) -> usize {
        self.col as usize
    }
}

/// Comparison operators for filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on concrete values.
    pub fn eval(&self, left: &Datum, right: &Datum) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }

    /// SQL spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with its operands swapped: `a op b` ⇔
    /// `b op.reversed() a`. The SQL parser uses this to normalize
    /// literal-first predicates (`5 < col`) onto the canonical
    /// `col op literal` filter shape.
    pub fn reversed(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A single-relation predicate `col op literal`.
#[derive(Debug, Clone)]
pub struct Filter {
    /// Filtered column.
    pub col: ColRef,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Datum,
    /// Estimated fraction of rows that pass. Derived from NDVs for
    /// equality (`1/ndv`) and from the System-R magic constant (`1/3`) for
    /// ranges unless overridden by the query author.
    pub selectivity: f64,
}

/// An equality join predicate between two relation instances.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Left column.
    pub left: ColRef,
    /// Right column.
    pub right: ColRef,
    /// Estimated selectivity `1 / max(ndv_left, ndv_right)`.
    pub selectivity: f64,
}

impl JoinEdge {
    /// The pair of relations this edge connects.
    pub fn rels(&self) -> (RelId, RelId) {
        (self.left.rel, self.right.rel)
    }

    /// `true` iff one endpoint is in `left` and the other in `right`.
    pub fn crosses(&self, left: RelSet, right: RelSet) -> bool {
        (left.contains(self.left.rel) && right.contains(self.right.rel))
            || (left.contains(self.right.rel) && right.contains(self.left.rel))
    }

    /// `true` iff both endpoints are within `set`.
    pub fn within(&self, set: RelSet) -> bool {
        set.contains(self.left.rel) && set.contains(self.right.rel)
    }
}

/// Aggregate functions supported by the block's optional aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `SUM(col)`
    Sum,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `AVG(col)`
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One aggregate expression, e.g. `SUM(l_extendedprice)`.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Its argument; `None` only for `COUNT(*)`.
    pub arg: Option<ColRef>,
}

/// Optional grouping/aggregation on top of the join block.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Group-by columns (possibly empty: scalar aggregate).
    pub group_by: Vec<ColRef>,
    /// Aggregate expressions.
    pub aggs: Vec<AggExpr>,
}

/// A complete single-block query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Relation instances.
    pub relations: Vec<RelRef>,
    /// Equality join predicates.
    pub join_edges: Vec<JoinEdge>,
    /// Single-relation filters.
    pub filters: Vec<Filter>,
    /// Optional aggregate on top.
    pub aggregate: Option<Aggregate>,
    /// Optional final projection; `None` means all columns in relation
    /// order (ignored when an aggregate is present — the aggregate defines
    /// the output).
    pub projection: Option<Vec<ColRef>>,
}

impl QuerySpec {
    /// Set of all relations in the query.
    pub fn all_rels(&self) -> RelSet {
        RelSet::all(self.relations.len())
    }

    /// Join edges fully contained in `set`.
    pub fn edges_within(&self, set: RelSet) -> impl Iterator<Item = &JoinEdge> {
        self.join_edges.iter().filter(move |e| e.within(set))
    }

    /// Join edges with one endpoint in `left` and the other in `right`.
    pub fn edges_crossing(&self, left: RelSet, right: RelSet) -> Vec<&JoinEdge> {
        self.join_edges
            .iter()
            .filter(|e| e.crosses(left, right))
            .collect()
    }

    /// Filters on relation `rel`.
    pub fn filters_on(&self, rel: RelId) -> impl Iterator<Item = &Filter> {
        self.filters.iter().filter(move |f| f.col.rel == rel)
    }

    /// `true` iff `set` induces a connected subgraph of the join graph
    /// (singletons are connected; the empty set is not).
    pub fn connected(&self, set: RelSet) -> bool {
        let Some(start) = set.iter().next() else {
            return false;
        };
        let mut reached = RelSet::singleton(start);
        loop {
            let mut next = RelSet::EMPTY;
            for edge in &self.join_edges {
                let (a, b) = edge.rels();
                if set.contains(a) && set.contains(b) {
                    if reached.contains(a) && !reached.contains(b) {
                        next.insert(b);
                    }
                    if reached.contains(b) && !reached.contains(a) {
                        next.insert(a);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            reached = reached.union(next);
        }
        reached == set
    }

    /// Resolves `alias.column` to a [`ColRef`].
    pub fn resolve(&self, catalog: &Catalog, alias: &str, column: &str) -> Option<ColRef> {
        let (i, rel) = self
            .relations
            .iter()
            .enumerate()
            .find(|(_, r)| r.alias == alias)?;
        let col = catalog.table(rel.table).column_index(column)?;
        Some(ColRef {
            rel: RelId(i as u32),
            col: col as u32,
        })
    }

    /// Human-readable name `alias.column` for diagnostics.
    pub fn col_name(&self, catalog: &Catalog, col: ColRef) -> String {
        let rel = &self.relations[col.rel.idx()];
        format!(
            "{}.{}",
            rel.alias,
            catalog.table(rel.table).column(col.col_idx()).name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::ColType;

    fn two_table_spec() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(
            plansample_catalog::table("a", 100)
                .col("x", ColType::Int, 100)
                .build(),
        )
        .unwrap();
        cat.add_table(
            plansample_catalog::table("b", 200)
                .col("y", ColType::Int, 50)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "x"), ("b", "y")).unwrap();
        let spec = qb.build().unwrap();
        (cat, spec)
    }

    #[test]
    fn cmp_op_eval() {
        use Datum::Int;
        assert!(CmpOp::Eq.eval(&Int(1), &Int(1)));
        assert!(CmpOp::Ne.eval(&Int(1), &Int(2)));
        assert!(CmpOp::Lt.eval(&Int(1), &Int(2)));
        assert!(CmpOp::Le.eval(&Int(2), &Int(2)));
        assert!(CmpOp::Gt.eval(&Int(3), &Int(2)));
        assert!(CmpOp::Ge.eval(&Int(2), &Int(2)));
        assert!(!CmpOp::Lt.eval(&Int(2), &Int(2)));
        assert_eq!(CmpOp::Le.symbol(), "<=");
    }

    #[test]
    fn edge_crossing_and_within() {
        let (_cat, spec) = two_table_spec();
        let e = &spec.join_edges[0];
        let a = RelSet::singleton(RelId(0));
        let b = RelSet::singleton(RelId(1));
        assert!(e.crosses(a, b));
        assert!(e.crosses(b, a));
        assert!(!e.within(a));
        assert!(e.within(a.union(b)));
    }

    #[test]
    fn connectivity() {
        let (_cat, spec) = two_table_spec();
        assert!(spec.connected(RelSet::all(2)));
        assert!(spec.connected(RelSet::singleton(RelId(0))));
        assert!(!spec.connected(RelSet::EMPTY));
    }

    #[test]
    fn resolve_and_names() {
        let (cat, spec) = two_table_spec();
        let c = spec.resolve(&cat, "b", "y").unwrap();
        assert_eq!(
            c,
            ColRef {
                rel: RelId(1),
                col: 0
            }
        );
        assert_eq!(spec.col_name(&cat, c), "b.y");
        assert!(spec.resolve(&cat, "z", "y").is_none());
        assert!(spec.resolve(&cat, "b", "nope").is_none());
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::Sum.name(), "SUM");
        assert_eq!(AggFunc::CountStar.name(), "COUNT");
    }
}
