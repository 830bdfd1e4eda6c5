//! A relational execution engine for differential plan testing.
//!
//! The paper's §4 methodology runs *many different plans of the same
//! query* and compares their outputs: "if two candidate plans fail to
//! produce the same results, then either the optimizer considered an
//! invalid plan, or the execution code is faulty". This crate supplies
//! the machinery: in-memory tables ([`Table`], [`Database`]), a
//! self-contained physical plan tree ([`ExecNode`]) implementing every
//! operator the optimizer can emit, and multiset result comparison.
//!
//! Two engines run an [`ExecNode`]. [`ExecNode::execute`] is
//! operator-at-a-time — each node hands its parent the *row numbers* of
//! its output, and values are copied only into an aggregate's rows and
//! the result table (the `run` module's docs) — and is the one every
//! production caller uses: differential testing executes many plans of
//! one query, so this engine is that application's whole cost.
//! [`ExecNode::execute_pipelined`] is an independent Volcano-style
//! open/next/close implementation of the same operator semantics, row
//! at a time, kept as the differential oracle of the first
//! (`docs/DESIGN.md` §8 records the measurement behind that split).
//! Crucially, operators do *not*
//! repair bad plans in either engine: `StreamAgg` aggregates whatever
//! run boundaries it sees and `MergeJoin` trusts its inputs to be
//! sorted, so a plan that violates its physical-property obligations
//! produces wrong answers — which is exactly what the differential
//! tests are designed to catch (the validation strategy this crate
//! anchors is `docs/DESIGN.md` §8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compare;
mod iter;
mod node;
mod run;

pub use compare::render_table;
pub use iter::Operator;
pub use node::{AggSpec, ColFilter, ExecNode, JoinSpec, Side};

use plansample_catalog::{Datum, TableId};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A row: one datum per column.
pub type Row = Vec<Datum>;

/// An in-memory table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    width: usize,
    rows: Vec<Row>,
}

impl Table {
    /// An empty table with `width` columns.
    pub fn new(width: usize) -> Self {
        Table {
            width,
            rows: Vec::new(),
        }
    }

    /// Builds a table from rows, validating widths.
    pub fn from_rows(width: usize, rows: Vec<Row>) -> Result<Self, ExecError> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != width {
                return Err(ExecError::RowWidth {
                    row: i,
                    expected: width,
                    actual: r.len(),
                });
            }
        }
        Ok(Table { width, rows })
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width mismatches the table.
    pub fn push(&mut self, row: Row) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.rows.push(row);
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Multiset equality: same rows with the same multiplicities,
    /// regardless of order — the §4 oracle ("all plans should deliver
    /// the same outcome").
    pub fn multiset_eq(&self, other: &Table) -> bool {
        self.sorted().multiset_eq(other)
    }

    /// Rows sorted canonically (for display and hashing).
    pub fn sorted_rows(&self) -> Vec<Row> {
        self.sorted().rows.into_iter().cloned().collect()
    }

    /// This table's rows in canonical order, borrowed: sort a reference
    /// once, then compare any number of tables against it.
    pub fn sorted(&self) -> SortedRows<'_> {
        let mut rows: Vec<&Row> = self.rows.iter().collect();
        // Rows that compare equal are equal: stability shows nowhere.
        rows.sort_unstable();
        SortedRows {
            width: self.width,
            rows,
        }
    }
}

/// A [`Table`]'s rows in canonical order, borrowed from it
/// ([`Table::sorted`]).
#[derive(Debug, Clone)]
pub struct SortedRows<'a> {
    width: usize,
    rows: Vec<&'a Row>,
}

impl SortedRows<'_> {
    /// [`Table::multiset_eq`] against the table these rows came from.
    pub fn multiset_eq(&self, other: &Table) -> bool {
        self.width == other.width
            && self.rows.len() == other.rows.len()
            && self.rows == other.sorted().rows
    }
}

/// The database: tables addressable by [`TableId`].
///
/// Beside each table it keeps that table's row orders, one a column,
/// which IndexScans read, and the dense ranks Sort and the aggregates
/// compare instead of values: one a row per column, and one a row of
/// the whole row. Each is built by the first operator that asks for it,
/// behind a [`OnceLock`], so a database shared between threads stays
/// `Sync`, and [`Database::insert`] drops a replaced table's orders and
/// ranks with it.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<TableId, Stored>,
}

/// A table with its row orders and ranks, each built when an operator
/// first asks for it: a stored one, or one an aggregate built.
#[derive(Debug, Clone)]
struct Stored {
    table: Table,
    columns: Box<[Column]>,
    row_ranks: OnceLock<Vec<u32>>,
}

/// What a [`Stored`] table keeps of one of its columns.
#[derive(Debug, Clone, Default)]
struct Column {
    order: OnceLock<Vec<u32>>,
    ranks: OnceLock<Vec<u32>>,
}

impl Stored {
    /// `table` with nothing built yet.
    fn new(table: Table) -> Self {
        let columns = (0..table.width()).map(|_| Column::default()).collect();
        Stored {
            table,
            columns,
            row_ranks: OnceLock::new(),
        }
    }

    /// The row numbers ordered by column `col`, then by the whole row,
    /// then by row number. That order has no ties, so keeping the rows
    /// of it that pass a filter gives what filtering the table and then
    /// sorting would. Sorted by the first call for `col` and kept until
    /// [`Database::insert`] replaces the table.
    ///
    /// # Panics
    /// When `col` is not a column of the table or the table has more
    /// rows than `u32` row numbers name; the scan or aggregate that made
    /// the table has checked both.
    fn order(&self, col: usize) -> &[u32] {
        self.columns[col].order.get_or_init(|| {
            let rows = self.table.rows();
            let count = u32::try_from(rows.len()).expect("rows checked against u32");
            let mut ids: Vec<u32> = (0..count).collect();
            ids.sort_unstable_by(|&a, &b| {
                let (ra, rb) = (&rows[a as usize], &rows[b as usize]);
                ra[col]
                    .cmp(&rb[col])
                    .then_with(|| ra.cmp(rb))
                    .then(a.cmp(&b))
            });
            ids
        })
    }

    /// Each row's dense rank among the values of column `col`: two rows'
    /// ranks compare as their values do, by `Datum`'s total order.
    /// Numbered along [`Stored::order`], and kept, as it is, until
    /// [`Database::insert`] replaces the table.
    fn value_ranks(&self, col: usize) -> &[u32] {
        self.columns[col].ranks.get_or_init(|| {
            let rows = self.table.rows();
            dense_ranks(self.order(col), |a, b| rows[a][col] == rows[b][col])
        })
    }

    /// Each row's dense rank among the table's whole rows: two rows'
    /// ranks compare as the rows do. Numbered along the order of column
    /// 0, which is sorted by the whole row.
    ///
    /// # Panics
    /// As [`Stored::order`], and when the table has no columns: a
    /// relation reads a table's whole row only through a column of it.
    fn row_ranks(&self) -> &[u32] {
        self.row_ranks.get_or_init(|| {
            let rows = self.table.rows();
            dense_ranks(self.order(0), |a, b| rows[a] == rows[b])
        })
    }
}

/// Numbers the rows of `order` densely: a row takes the rank of the one
/// before it where `same` holds for the two, the next rank otherwise.
/// Indexed by row number.
fn dense_ranks(order: &[u32], same: impl Fn(usize, usize) -> bool) -> Vec<u32> {
    let mut ranks = vec![0; order.len()];
    let mut rank = 0;
    for pair in order.windows(2) {
        let (before, row) = (pair[0] as usize, pair[1] as usize);
        if !same(before, row) {
            rank += 1;
        }
        ranks[row] = rank;
    }
    ranks
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Installs (or replaces) the contents of a table.
    pub fn insert(&mut self, id: TableId, table: Table) {
        self.tables.insert(id, Stored::new(table));
    }

    /// Fetches a table's contents.
    pub fn table(&self, id: TableId) -> Result<&Table, ExecError> {
        self.stored(id).map(|stored| &stored.table)
    }

    /// A table with its row orders and ranks, for the scans of `run`.
    fn stored(&self, id: TableId) -> Result<&Stored, ExecError> {
        self.tables.get(&id).ok_or(ExecError::MissingTable(id))
    }

    /// Number of stored tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no tables are stored.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A plan references a table that has no stored contents.
    MissingTable(TableId),
    /// A row's width disagreed with its table.
    RowWidth {
        /// Index of the offending row.
        row: usize,
        /// Expected width.
        expected: usize,
        /// Actual width.
        actual: usize,
    },
    /// An aggregate received a value of an unusable type
    /// (e.g. `SUM` over strings).
    BadAggregateInput {
        /// The aggregate function name.
        func: &'static str,
        /// Display of the offending value.
        value: String,
    },
    /// A column offset fell outside the row produced by a child.
    OffsetOutOfRange {
        /// The offset.
        offset: usize,
        /// The row width.
        width: usize,
    },
    /// A table — stored, or built by an aggregate — or a hash
    /// operator's input has more rows than the engine's `u32` row
    /// numbers can name.
    TooManyRows {
        /// The row count.
        rows: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingTable(id) => write!(f, "no data loaded for table {id:?}"),
            ExecError::RowWidth {
                row,
                expected,
                actual,
            } => write!(f, "row {row} has width {actual}, expected {expected}"),
            ExecError::BadAggregateInput { func, value } => {
                write!(f, "{func} cannot aggregate value {value}")
            }
            ExecError::OffsetOutOfRange { offset, width } => {
                write!(f, "column offset {offset} outside row of width {width}")
            }
            ExecError::TooManyRows { rows } => {
                write!(f, "{rows} rows exceed the engine's u32 row numbers")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::Datum::Int;

    #[test]
    fn table_construction_and_access() {
        let mut t = Table::new(2);
        t.push(vec![Int(1), Int(2)]);
        t.push(vec![Int(3), Int(4)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.width(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.rows()[1][0], Int(3));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_validates_width() {
        let mut t = Table::new(2);
        t.push(vec![Int(1)]);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Table::from_rows(1, vec![vec![Int(1)], vec![Int(2)]]).is_ok());
        assert!(matches!(
            Table::from_rows(1, vec![vec![Int(1), Int(2)]]),
            Err(ExecError::RowWidth { .. })
        ));
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let a = Table::from_rows(1, vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]]).unwrap();
        let b = Table::from_rows(1, vec![vec![Int(2)], vec![Int(1)], vec![Int(2)]]).unwrap();
        let c = Table::from_rows(1, vec![vec![Int(2)], vec![Int(1)], vec![Int(1)]]).unwrap();
        assert!(a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn multiset_inequality_on_shape() {
        let a = Table::from_rows(1, vec![vec![Int(1)]]).unwrap();
        let b = Table::from_rows(2, vec![vec![Int(1), Int(1)]]).unwrap();
        let c = Table::from_rows(1, vec![]).unwrap();
        assert!(!a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn a_reference_sorted_once_compares_like_multiset_eq() {
        let reference =
            Table::from_rows(1, vec![vec![Int(2)], vec![Int(1)], vec![Int(2)]]).unwrap();
        let sorted = reference.sorted();
        let same = Table::from_rows(1, vec![vec![Int(2)], vec![Int(2)], vec![Int(1)]]).unwrap();
        let other = Table::from_rows(1, vec![vec![Int(1)], vec![Int(1)], vec![Int(2)]]).unwrap();
        let shorter = Table::from_rows(1, vec![vec![Int(1)], vec![Int(2)]]).unwrap();
        let wider = Table::from_rows(2, vec![vec![Int(1), Int(2)]; 3]).unwrap();
        for (table, equal) in [
            (&same, true),
            (&other, false),
            (&shorter, false),
            (&wider, false),
        ] {
            assert_eq!(sorted.multiset_eq(table), equal);
            assert_eq!(reference.multiset_eq(table), equal);
        }
        // Width is part of the shape even when there is no row to show it.
        assert!(!Table::new(1).sorted().multiset_eq(&Table::new(2)));
        assert!(Table::new(2).sorted().multiset_eq(&Table::new(2)));
        assert_eq!(
            reference.sorted_rows(),
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]]
        );
    }

    /// Every kind of value, most of them twice, none in order.
    fn mixed_rows() -> Vec<Row> {
        use plansample_catalog::Datum::{Float, Null, Str};
        let values = [
            Str("b".into()),
            Float(-0.0),
            Int(7),
            Float(f64::NAN),
            Null,
            Float(7.0),
            Float(0.0),
            Str("a".into()),
            Float(-f64::NAN),
            Int(-1),
        ];
        let pick = |i: usize| values[i % values.len()].clone();
        (0..23)
            .map(|i| vec![pick(i * 3), pick(i * 7 / 2)])
            .collect()
    }

    #[test]
    fn ranks_compare_as_values_do() {
        let stored = Stored::new(Table::from_rows(2, mixed_rows()).unwrap());
        let rows = stored.table.rows();
        let row_ranks = stored.row_ranks();
        for col in 0..2 {
            let ranks = stored.value_ranks(col);
            for a in 0..rows.len() {
                for b in 0..rows.len() {
                    assert_eq!(ranks[a].cmp(&ranks[b]), rows[a][col].cmp(&rows[b][col]));
                    assert_eq!(row_ranks[a].cmp(&row_ranks[b]), rows[a].cmp(&rows[b]));
                }
            }
            // Dense: every rank below the largest is taken.
            let distinct = ranks.iter().collect::<std::collections::BTreeSet<_>>();
            assert_eq!(distinct.len() as u32, ranks.iter().max().unwrap() + 1);
        }
    }

    #[test]
    fn insert_builds_no_order_and_no_rank() {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(2, mixed_rows()).unwrap());
        let built = |db: &Database| {
            let stored = db.stored(TableId(0)).unwrap();
            let columns = stored.columns.iter();
            let built = columns.flat_map(|c| [c.order.get(), c.ranks.get()]);
            built.chain([stored.row_ranks.get()]).flatten().count()
        };
        assert_eq!(built(&db), 0);
        // A Sort on column 1 builds that column's order and ranks, and the
        // whole row's ranks along column 0's order.
        let sort = ExecNode::Sort {
            input: Box::new(ExecNode::TableScan {
                table: TableId(0),
                filters: vec![],
            }),
            keys: vec![1],
        };
        sort.execute(&db).unwrap();
        assert_eq!(built(&db), 4);
        // Replacing the table drops them.
        db.insert(TableId(0), Table::from_rows(2, mixed_rows()).unwrap());
        assert_eq!(built(&db), 0);
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert(TableId(0), Table::new(1));
        assert_eq!(db.len(), 1);
        assert!(db.table(TableId(0)).is_ok());
        assert!(matches!(
            db.table(TableId(9)),
            Err(ExecError::MissingTable(_))
        ));
    }
}
