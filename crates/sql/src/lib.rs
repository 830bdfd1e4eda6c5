//! SQL frontend with the paper's `OPTION (USEPLAN n)` extension.
//!
//! §4: "we extend the SQL syntax with an option to specify what plan to
//! use for the execution. The following SQL statement causes the
//! optimizer to build the MEMO structure, count the possible plans, and
//! select plan number 8 for execution":
//!
//! ```sql
//! SELECT * FROM Professors P, Students S, Enrolled E, Courses C
//! WHERE S.Name = 'Sam White' AND S.SID = E.SID AND
//!       E.Title = C.Title AND C.By = P.PID
//! OPTION (USEPLAN 8)
//! ```
//!
//! This crate parses a single-block SQL subset — `SELECT` with
//! projections or aggregates, comma-separated `FROM` with aliases,
//! conjunctive `WHERE` mixing equality joins and literal filters,
//! `GROUP BY`, `ORDER BY`, and the `OPTION (USEPLAN n)` clause with
//! arbitrarily large plan numbers — into a [`QuerySpec`] ready for the
//! optimizer.
//!
//! `ORDER BY` does not change the plan *space* (sort enforcers are
//! already part of it); it is a requirement on the plan that runs. The
//! parser resolves the columns into [`ParsedQuery::order_by`], and
//! callers check a chosen plan against it with
//! `PreparedQuery::satisfies_order` — which consults the delivered
//! orders the optimizer tracked, including column equivalences from
//! join predicates.
//!
//! Aggregate queries normalize their output column order to
//! `group-by columns ++ aggregates` (the SELECT order is not preserved);
//! this matches the execution engine's aggregate layout.
//!
//! ```
//! use plansample_catalog::tpch;
//! use plansample_sql::parse;
//!
//! let (catalog, _) = tpch::catalog();
//! let parsed = parse(
//!     &catalog,
//!     "SELECT n_name, SUM(l_extendedprice) \
//!      FROM lineitem l, supplier s, nation n \
//!      WHERE l.l_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey \
//!      GROUP BY n.n_name OPTION (USEPLAN 42)",
//! )
//! .unwrap();
//! assert_eq!(parsed.spec.relations.len(), 3);
//! assert_eq!(parsed.useplan.unwrap().to_u64(), Some(42));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lexer;
mod parser;

pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::parse;

use plansample_bignum::Nat;
use plansample_query::{ColRef, QuerySpec};
use std::fmt;

/// A parsed statement: the query plus the optional plan number.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The query specification.
    pub spec: QuerySpec,
    /// Plan number from `OPTION (USEPLAN n)`, if present.
    pub useplan: Option<Nat>,
    /// Resolved `ORDER BY` columns, in requirement order (empty when
    /// the statement has no `ORDER BY`). A delivered-order requirement
    /// on whichever plan runs, not a change to the plan space; check a
    /// plan with `PreparedQuery::satisfies_order`.
    pub order_by: Vec<ColRef>,
}

/// A parse failure with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the SQL text.
    pub offset: usize,
}

impl ParseError {
    /// Renders the error with a caret pointing at the offending spot.
    pub fn render(&self, sql: &str) -> String {
        let offset = self.offset.min(sql.len());
        let line_start = sql[..offset].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = sql[offset..]
            .find('\n')
            .map(|i| offset + i)
            .unwrap_or(sql.len());
        let column = offset - line_start;
        format!(
            "{}\n{}\n{}^",
            self.message,
            &sql[line_start..line_end],
            " ".repeat(column)
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::tpch;
    use plansample_catalog::Datum;
    use plansample_query::{AggFunc, CmpOp};

    fn cat() -> plansample_catalog::Catalog {
        tpch::catalog().0
    }

    #[test]
    fn parses_the_papers_example_shape() {
        // The §4 example uses its own schema; the same shape over TPC-H:
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT * \
             FROM customer c, orders o, lineitem l, supplier s \
             WHERE c.c_name = 'Sam White' AND \
                   c.c_custkey = o.o_custkey AND \
                   o.o_orderkey = l.l_orderkey AND \
                   l.l_suppkey = s.s_suppkey \
             OPTION (USEPLAN 8)",
        )
        .unwrap();
        assert_eq!(parsed.spec.relations.len(), 4);
        assert_eq!(parsed.spec.join_edges.len(), 3);
        assert_eq!(parsed.spec.filters.len(), 1);
        assert_eq!(parsed.spec.filters[0].value, Datum::Str("Sam White".into()));
        assert_eq!(parsed.useplan.unwrap().to_u64(), Some(8));
        assert!(parsed.spec.projection.is_none());
        assert!(parsed.spec.aggregate.is_none());
    }

    #[test]
    fn aliases_with_and_without_as() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT * FROM nation AS n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey",
        )
        .unwrap();
        assert_eq!(parsed.spec.relations[0].alias, "n1");
        assert_eq!(parsed.spec.relations[1].alias, "n2");
    }

    #[test]
    fn unqualified_columns_resolve_uniquely() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'",
        )
        .unwrap();
        assert_eq!(parsed.spec.join_edges.len(), 1);
        assert_eq!(parsed.spec.projection.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let catalog = cat();
        let err = parse(
            &catalog,
            "SELECT * FROM nation n1, nation n2 WHERE n_name = 'FRANCE'",
        )
        .unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn aggregates_and_group_by() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT n_name, SUM(l_extendedprice), COUNT(*) \
             FROM lineitem l, supplier s, nation n \
             WHERE l.l_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey \
             GROUP BY n.n_name",
        )
        .unwrap();
        let agg = parsed.spec.aggregate.unwrap();
        assert_eq!(agg.group_by.len(), 1);
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(agg.aggs[0].func, AggFunc::Sum);
        assert_eq!(agg.aggs[1].func, AggFunc::CountStar);
    }

    #[test]
    fn selected_column_must_be_grouped() {
        let catalog = cat();
        let err = parse(
            &catalog,
            "SELECT n_name, SUM(s_acctbal) FROM supplier s, nation n \
             WHERE s.s_nationkey = n.n_nationkey GROUP BY s.s_name",
        )
        .unwrap_err();
        assert!(err.message.contains("must appear in GROUP BY"), "{err}");
    }

    #[test]
    fn filters_with_all_operators() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT * FROM lineitem l WHERE l.l_quantity < 24 AND l.l_discount >= 5 \
             AND l.l_shipdate <> 100 AND l.l_suppkey <= 10 AND l.l_partkey > 3",
        )
        .unwrap();
        let ops: Vec<CmpOp> = parsed.spec.filters.iter().map(|f| f.op).collect();
        assert_eq!(
            ops,
            vec![CmpOp::Lt, CmpOp::Ge, CmpOp::Ne, CmpOp::Le, CmpOp::Gt]
        );
    }

    #[test]
    fn literal_first_filters_normalize_by_flipping() {
        let catalog = cat();
        // `24 > l_quantity` ⇔ `l_quantity < 24`, etc.
        let parsed = parse(
            &catalog,
            "SELECT * FROM lineitem l WHERE 24 > l.l_quantity AND 5 <= l.l_discount \
             AND 100 <> l.l_shipdate AND 10 >= l.l_suppkey AND 3 < l.l_partkey \
             AND 7 = l.l_orderkey",
        )
        .unwrap();
        let ops: Vec<CmpOp> = parsed.spec.filters.iter().map(|f| f.op).collect();
        assert_eq!(
            ops,
            vec![
                CmpOp::Lt,
                CmpOp::Ge,
                CmpOp::Ne,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Eq
            ]
        );
        assert_eq!(parsed.spec.filters[0].value, Datum::Int(24));

        // Both spellings lower to the identical filter.
        let canonical = parse(&catalog, "SELECT * FROM lineitem WHERE l_quantity < 24").unwrap();
        let reversed = parse(&catalog, "SELECT * FROM lineitem WHERE 24 > l_quantity").unwrap();
        assert_eq!(
            format!("{:?}", canonical.spec.filters),
            format!("{:?}", reversed.spec.filters)
        );
    }

    #[test]
    fn literal_first_string_filters_parse() {
        let catalog = cat();
        let parsed = parse(&catalog, "SELECT * FROM nation WHERE 'ASIA' = n_name").unwrap();
        assert_eq!(parsed.spec.filters[0].op, CmpOp::Eq);
        assert_eq!(parsed.spec.filters[0].value, Datum::Str("ASIA".into()));
    }

    #[test]
    fn literal_op_literal_is_rejected() {
        let catalog = cat();
        let err = parse(&catalog, "SELECT * FROM nation WHERE 1 < 2").unwrap_err();
        assert!(err.message.contains("column"), "{err}");
    }

    #[test]
    fn non_equality_column_join_rejected() {
        let catalog = cat();
        let err = parse(
            &catalog,
            "SELECT * FROM nation n, region r WHERE n.n_regionkey < r.r_regionkey",
        )
        .unwrap_err();
        assert!(err.message.contains("equality"), "{err}");
    }

    #[test]
    fn useplan_accepts_numbers_beyond_u64() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT * FROM nation OPTION (USEPLAN 340282366920938463463374607431768211456)",
        )
        .unwrap();
        let n = parsed.useplan.unwrap();
        assert!(n.to_u128().is_none(), "number exceeds u128");
        assert_eq!(n.to_decimal(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn float_literals_parse() {
        let catalog = cat();
        let parsed = parse(&catalog, "SELECT * FROM supplier s WHERE s.s_acctbal > 1.5").unwrap();
        assert_eq!(parsed.spec.filters[0].value, Datum::Float(1.5));
    }

    #[test]
    fn trailing_semicolon_and_case_insensitivity() {
        let catalog = cat();
        assert!(parse(&catalog, "select * from NATION;").is_err()); // table names are case-sensitive
        assert!(parse(&catalog, "select * from nation;").is_ok());
        // Keywords are case-insensitive; the error is `SELECT *` with GROUP BY.
        assert!(parse(&catalog, "SeLeCt * FrOm nation GrOuP By nation.n_name").is_err());
    }

    #[test]
    fn group_by_without_aggregates_is_allowed() {
        let catalog = cat();
        let parsed = parse(&catalog, "SELECT n_name FROM nation GROUP BY nation.n_name").unwrap();
        let agg = parsed.spec.aggregate.unwrap();
        assert_eq!(agg.group_by.len(), 1);
        assert!(agg.aggs.is_empty());
    }

    #[test]
    fn order_by_resolves_to_colrefs() {
        let catalog = cat();
        let parsed = parse(
            &catalog,
            "SELECT * FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey \
             ORDER BY r.r_name, n_nationkey OPTION (USEPLAN 3)",
        )
        .unwrap();
        // r.r_name: relation 1, column 1 (r_regionkey, r_name, r_comment).
        // n_nationkey resolves unqualified to nation (relation 0), column 0.
        assert_eq!(parsed.order_by.len(), 2);
        assert_eq!(parsed.order_by[0].rel.0, 1);
        assert_eq!(parsed.order_by[1].rel.0, 0);
        assert_eq!(parsed.order_by[1].col, 0);
        assert_eq!(parsed.useplan.unwrap().to_u64(), Some(3));

        let none = parse(&catalog, "SELECT * FROM nation").unwrap();
        assert!(none.order_by.is_empty());
    }

    #[test]
    fn order_by_rejects_unknown_columns_and_misplacement() {
        let catalog = cat();
        // Qualified reference to a column the aliased table lacks.
        let err = parse(&catalog, "SELECT * FROM nation n ORDER BY n.bogus").unwrap_err();
        assert!(err.message.contains("no column"), "{err}");
        // Unknown alias.
        assert!(parse(&catalog, "SELECT * FROM nation ORDER BY x.n_name").is_err());
        // ORDER BY must precede OPTION.
        assert!(parse(
            &catalog,
            "SELECT * FROM nation OPTION (USEPLAN 1) ORDER BY nation.n_name"
        )
        .is_err());
        // Dangling BY.
        assert!(parse(&catalog, "SELECT * FROM nation ORDER n_name").is_err());
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let catalog = cat();
        let sql = "SELECT * FROM bogus_table";
        let err = parse(&catalog, sql).unwrap_err();
        assert_eq!(err.offset, 14);
        let rendered = err.render(sql);
        assert!(rendered.contains('^'));
        assert!(rendered
            .lines()
            .last()
            .unwrap()
            .starts_with("              ^"));
    }

    #[test]
    fn unknown_column_and_alias_errors() {
        let catalog = cat();
        assert!(parse(&catalog, "SELECT * FROM nation WHERE nation.bogus = 1").is_err());
        assert!(parse(&catalog, "SELECT * FROM nation WHERE x.n_name = 'A'").is_err());
        assert!(parse(&catalog, "SELECT bogus FROM nation").is_err());
    }

    #[test]
    fn garbage_rejected_with_positions() {
        let catalog = cat();
        for sql in [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM nation WHERE",
            "SELECT * FROM nation OPTION (USEPLAN)",
            "SELECT * FROM nation OPTION (USEPLAN 1.5)",
            "SELECT * FROM nation extra garbage here",
            "SELECT * FROM nation, WHERE x = 1",
        ] {
            assert!(parse(&catalog, sql).is_err(), "should reject: {sql}");
        }
    }

    #[test]
    fn count_star_requires_star() {
        let catalog = cat();
        assert!(parse(&catalog, "SELECT COUNT(*) FROM nation").is_ok());
        assert!(parse(&catalog, "SELECT COUNT(n_name) FROM nation").is_err());
    }

    #[test]
    fn mixed_star_and_aggregate_rejected() {
        let catalog = cat();
        // SELECT * plus GROUP BY has no sensible meaning in the subset.
        let err = parse(&catalog, "SELECT * FROM nation GROUP BY nation.n_name");
        assert!(err.is_err());
    }
}
