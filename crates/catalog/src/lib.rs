//! Schemas and optimizer-facing statistics.
//!
//! The optimizer never looks at rows; it sees this catalog: per-table row
//! counts, per-column distinct-value counts (NDV), and which ordered
//! single-column indexes exist (each index gives the optimizer a
//! `SortedIdxScan` alternative, exactly the `Scan A → SortedIDXScan` arrow
//! of the paper's Figure 2). The execution engine holds the actual data and
//! shares only the column *types* ([`Datum`]) with this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod datum;
pub mod tpch;

pub use datum::{Datum, Mix};

use std::collections::HashMap;
use std::fmt;

/// Identifies a table within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 64-bit signed integer (also used for dates encoded as days).
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

/// A column definition with its statistics.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Logical type.
    pub col_type: ColType,
    /// Estimated number of distinct values; drives equality selectivities
    /// `1 / max(ndv_l, ndv_r)` for joins and `1 / ndv` for point filters.
    pub ndv: u64,
}

/// An ordered single-column index. The optimizer turns each index into a
/// `SortedIdxScan` alternative that delivers rows sorted by this column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDef {
    /// Ordinal of the indexed column within the table.
    pub column: usize,
}

/// A table definition with statistics.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name, unique within the catalog.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Estimated row count.
    pub row_count: u64,
    /// Available ordered indexes.
    pub indexes: Vec<IndexDef>,
}

impl TableDef {
    /// Looks up a column ordinal by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Returns the column definition for `ordinal`, panicking when out of
    /// range (catalog consistency is validated at construction).
    pub fn column(&self, ordinal: usize) -> &ColumnDef {
        &self.columns[ordinal]
    }

    /// `true` iff an ordered index on `column` exists.
    pub fn has_index_on(&self, column: usize) -> bool {
        self.indexes.iter().any(|ix| ix.column == column)
    }
}

/// Errors from catalog construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Two columns in the same table share a name.
    DuplicateColumn {
        /// Offending table.
        table: String,
        /// Offending column name.
        column: String,
    },
    /// An index references a column ordinal that does not exist.
    IndexOutOfRange {
        /// Offending table.
        table: String,
        /// Out-of-range ordinal.
        column: usize,
    },
    /// Lookup of an unknown table name.
    UnknownTable(String),
    /// Lookup of an unknown column name.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Missing column name.
        column: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateTable(t) => write!(f, "duplicate table `{t}`"),
            CatalogError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column `{column}` in table `{table}`")
            }
            CatalogError::IndexOutOfRange { table, column } => {
                write!(
                    f,
                    "index on out-of-range column ordinal {column} in table `{table}`"
                )
            }
            CatalogError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A collection of table definitions with name-based lookup.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a table, validating uniqueness and index ranges.
    pub fn add_table(&mut self, table: TableDef) -> Result<TableId, CatalogError> {
        if self.by_name.contains_key(&table.name) {
            return Err(CatalogError::DuplicateTable(table.name));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &table.columns {
            if !seen.insert(c.name.as_str()) {
                return Err(CatalogError::DuplicateColumn {
                    table: table.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        for ix in &table.indexes {
            if ix.column >= table.columns.len() {
                return Err(CatalogError::IndexOutOfRange {
                    table: table.name.clone(),
                    column: ix.column,
                });
            }
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(table.name.clone(), id);
        self.tables.push(table);
        Ok(id)
    }

    /// Returns the definition for `id`.
    ///
    /// # Panics
    /// Panics when `id` was not issued by this catalog.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0 as usize]
    }

    /// Name-based table lookup.
    pub fn table_by_name(&self, name: &str) -> Result<(TableId, &TableDef), CatalogError> {
        let id = *self
            .by_name
            .get(name)
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))?;
        Ok((id, self.table(id)))
    }

    /// Resolves `table.column` names to ids.
    pub fn resolve_column(
        &self,
        table: &str,
        column: &str,
    ) -> Result<(TableId, usize), CatalogError> {
        let (tid, def) = self.table_by_name(table)?;
        let col = def
            .column_index(column)
            .ok_or_else(|| CatalogError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok((tid, col))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no tables have been defined.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates `(id, def)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TableDef)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }
}

/// Convenience builder for tests and examples.
///
/// ```
/// use plansample_catalog::{table, ColType};
/// let t = table("emp", 1000)
///     .col("id", ColType::Int, 1000)
///     .col("dept", ColType::Int, 20)
///     .index_on(0)
///     .build();
/// assert_eq!(t.columns.len(), 2);
/// assert!(t.has_index_on(0));
/// ```
pub fn table(name: &str, row_count: u64) -> TableBuilder {
    TableBuilder {
        def: TableDef {
            name: name.to_string(),
            columns: Vec::new(),
            row_count,
            indexes: Vec::new(),
        },
    }
}

/// Builder returned by [`table`].
pub struct TableBuilder {
    def: TableDef,
}

impl TableBuilder {
    /// Adds a column with the given statistics.
    pub fn col(mut self, name: &str, col_type: ColType, ndv: u64) -> Self {
        self.def.columns.push(ColumnDef {
            name: name.to_string(),
            col_type,
            ndv,
        });
        self
    }

    /// Adds an ordered index on column `ordinal`.
    pub fn index_on(mut self, ordinal: usize) -> Self {
        self.def.indexes.push(IndexDef { column: ordinal });
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> TableDef {
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> TableDef {
        table("emp", 1000)
            .col("id", ColType::Int, 1000)
            .col("dept", ColType::Int, 20)
            .col("name", ColType::Str, 950)
            .index_on(0)
            .build()
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = Catalog::new();
        let id = cat.add_table(emp()).unwrap();
        assert_eq!(cat.table(id).name, "emp");
        let (id2, def) = cat.table_by_name("emp").unwrap();
        assert_eq!(id, id2);
        assert_eq!(def.row_count, 1000);
        assert_eq!(cat.len(), 1);
        assert!(!cat.is_empty());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(emp()).unwrap();
        assert_eq!(
            cat.add_table(emp()),
            Err(CatalogError::DuplicateTable("emp".into()))
        );
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut cat = Catalog::new();
        let t = table("t", 1)
            .col("a", ColType::Int, 1)
            .col("a", ColType::Int, 1)
            .build();
        assert!(matches!(
            cat.add_table(t),
            Err(CatalogError::DuplicateColumn { .. })
        ));
    }

    #[test]
    fn index_out_of_range_rejected() {
        let mut cat = Catalog::new();
        let t = table("t", 1).col("a", ColType::Int, 1).index_on(3).build();
        assert!(matches!(
            cat.add_table(t),
            Err(CatalogError::IndexOutOfRange { column: 3, .. })
        ));
    }

    #[test]
    fn column_resolution() {
        let mut cat = Catalog::new();
        cat.add_table(emp()).unwrap();
        let (tid, col) = cat.resolve_column("emp", "dept").unwrap();
        assert_eq!(cat.table(tid).column(col).ndv, 20);
        assert!(cat.resolve_column("emp", "salary").is_err());
        assert!(cat.resolve_column("nope", "id").is_err());
    }

    #[test]
    fn index_queries() {
        let t = emp();
        assert!(t.has_index_on(0));
        assert!(!t.has_index_on(1));
        assert_eq!(t.column_index("name"), Some(2));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CatalogError::UnknownColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains("unknown column"));
    }
}
