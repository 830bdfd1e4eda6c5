//! Recursive-descent parser lowering the SQL subset directly to a
//! [`QuerySpec`](plansample_query::QuerySpec) (via [`QueryBuilder`])
//! plus the optional USEPLAN number.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query   := SELECT select FROM tables [WHERE conj]
//!            [GROUP BY cols] [ORDER BY cols]
//!            [OPTION '(' USEPLAN number ')'] [';']
//! select  := '*' | item (',' item)*
//! item    := colref
//!          | (SUM|MIN|MAX|AVG) '(' colref ')'
//!          | COUNT '(' '*' ')'
//! tables  := table [AS? alias] (',' table [AS? alias])*
//! conj    := group (AND group)*
//! group   := pred | '(' conj ')'        -- grouping only; nested ANDs
//!                                          flatten into one conjunction
//! pred    := colref '=' colref          -- join edge
//!          | colref op literal          -- filter
//!          | literal op colref          -- filter, normalized by
//!                                          flipping op
//! colref  := [alias '.'] column
//! ```
//!
//! Semantic notes: unqualified columns resolve when exactly one FROM
//! relation has a column of that name; aggregate queries normalize their
//! output to `group-by columns ++ aggregates` (documented in the crate
//! root).

use crate::lexer::{lex, Token, TokenKind};
use crate::{ParseError, ParsedQuery};
use plansample_bignum::Nat;
use plansample_catalog::{Catalog, Datum};
use plansample_query::{AggFunc, CmpOp, ColRef, QueryBuilder, RelId};

struct Parser<'a> {
    catalog: &'a Catalog,
    tokens: Vec<Token>,
    pos: usize,
    sql_len: usize,
}

/// Parses one statement against `catalog`.
pub fn parse(catalog: &Catalog, sql: &str) -> Result<ParsedQuery, ParseError> {
    let tokens = lex(sql).map_err(|e| ParseError {
        message: e.message,
        offset: e.offset,
    })?;
    let mut parser = Parser {
        catalog,
        tokens,
        pos: 0,
        sql_len: sql.len(),
    };
    parser.query()
}

/// One SELECT item as parsed (before aggregate/projection shaping).
enum SelectItem {
    Col(Option<String>, String, usize),
    Agg(AggFunc, Option<(Option<String>, String, usize)>),
    Star,
}

impl Parser<'_> {
    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or(self.sql_len)
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.offset(),
        })
    }

    /// Consumes an identifier matching `keyword` (case-insensitive).
    fn keyword(&mut self, keyword: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(keyword) => {
                self.pos += 1;
                Ok(())
            }
            Some(other) => self.error(format!("expected `{keyword}`, found {other}")),
            None => self.error(format!("expected `{keyword}`, found end of input")),
        }
    }

    fn at_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(keyword))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.peek() {
            Some(k) if k == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(other) => self.error(format!("expected {kind}, found {other}")),
            None => self.error(format!("expected {kind}, found end of input")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, usize), ParseError> {
        let offset = self.offset();
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok((s, offset)),
            Some(other) => self.error(format!("expected {what}, found {other}")),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    /// `[alias '.'] column`
    fn colref(&mut self) -> Result<(Option<String>, String, usize), ParseError> {
        let (first, offset) = self.ident("a column reference")?;
        if matches!(self.peek(), Some(TokenKind::Dot)) {
            self.pos += 1;
            let (col, _) = self.ident("a column name")?;
            Ok((Some(first), col, offset))
        } else {
            Ok((None, first, offset))
        }
    }

    fn query(&mut self) -> Result<ParsedQuery, ParseError> {
        self.keyword("SELECT")?;
        let select = self.select_list()?;
        self.keyword("FROM")?;

        let mut qb = QueryBuilder::new(self.catalog);
        // FROM list: aliases tracked for column resolution.
        let mut rels: Vec<(String, String)> = Vec::new(); // (alias, table)
        loop {
            let (table, offset) = self.ident("a table name")?;
            let alias = if self.at_keyword("AS") {
                self.pos += 1;
                Some(self.ident("an alias")?.0)
            } else if matches!(self.peek(), Some(TokenKind::Ident(s))
                if !is_clause_keyword(s))
            {
                Some(self.ident("an alias")?.0)
            } else {
                None
            };
            let alias = alias.unwrap_or_else(|| table.clone());
            qb.rel(&table, Some(&alias)).map_err(|e| ParseError {
                message: e.to_string(),
                offset,
            })?;
            rels.push((alias, table));
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }

        if self.at_keyword("WHERE") {
            self.pos += 1;
            self.conjunct(&mut qb, &rels)?;
        }

        let mut group_by: Vec<(String, String)> = Vec::new();
        if self.at_keyword("GROUP") {
            self.pos += 1;
            self.keyword("BY")?;
            loop {
                let (alias, col, offset) = self.colref()?;
                group_by.push(self.resolve(alias, col, offset, &rels)?);
                if matches!(self.peek(), Some(TokenKind::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        // ORDER BY: resolved to (alias, column) here, to ColRefs after
        // `build()` (which fixes the relation numbering).
        let mut order_cols: Vec<(String, String, usize)> = Vec::new();
        if self.at_keyword("ORDER") {
            self.pos += 1;
            self.keyword("BY")?;
            loop {
                let (alias, col, offset) = self.colref()?;
                let (alias, col) = self.resolve(alias, col, offset, &rels)?;
                order_cols.push((alias, col, offset));
                if matches!(self.peek(), Some(TokenKind::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        let useplan = self.option_clause()?;
        if matches!(self.peek(), Some(TokenKind::Semi)) {
            self.pos += 1;
        }
        if let Some(t) = self.peek() {
            return self.error(format!("unexpected trailing {t}"));
        }

        self.shape_output(&mut qb, select, group_by, &rels)?;
        let spec = qb.build().map_err(|e| ParseError {
            message: e.to_string(),
            offset: 0,
        })?;

        let mut order_by = Vec::with_capacity(order_cols.len());
        for (alias, col, offset) in order_cols {
            let rel = spec
                .relations
                .iter()
                .position(|r| r.alias == alias)
                .expect("resolve() only returns FROM-list aliases");
            let table = self.catalog.table(spec.relations[rel].table);
            let idx = table.column_index(&col).ok_or_else(|| ParseError {
                message: format!("relation `{alias}` has no column `{col}`"),
                offset,
            })?;
            order_by.push(ColRef {
                rel: RelId(rel as u32),
                col: idx as u32,
            });
        }
        Ok(ParsedQuery {
            spec,
            useplan,
            order_by,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        if matches!(self.peek(), Some(TokenKind::Star)) {
            self.pos += 1;
            return Ok(vec![SelectItem::Star]);
        }
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        for (name, func) in [
            ("SUM", AggFunc::Sum),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
            ("AVG", AggFunc::Avg),
            ("COUNT", AggFunc::CountStar),
        ] {
            if self.at_keyword(name)
                && matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::LParen)
                )
            {
                self.pos += 1;
                self.expect(&TokenKind::LParen)?;
                let item = if func == AggFunc::CountStar {
                    self.expect(&TokenKind::Star)?;
                    SelectItem::Agg(func, None)
                } else {
                    SelectItem::Agg(func, Some(self.colref()?))
                };
                self.expect(&TokenKind::RParen)?;
                return Ok(item);
            }
        }
        let (alias, col, offset) = self.colref()?;
        Ok(SelectItem::Col(alias, col, offset))
    }

    /// Resolves a possibly-unqualified column to `(alias, column)`.
    fn resolve(
        &self,
        alias: Option<String>,
        col: String,
        offset: usize,
        rels: &[(String, String)],
    ) -> Result<(String, String), ParseError> {
        if let Some(a) = alias {
            if !rels.iter().any(|(alias, _)| *alias == a) {
                return Err(ParseError {
                    message: format!("unknown alias `{a}`"),
                    offset,
                });
            }
            return Ok((a, col));
        }
        let matches: Vec<&(String, String)> = rels
            .iter()
            .filter(|(_, table)| {
                self.catalog
                    .table_by_name(table)
                    .map(|(_, def)| def.column_index(&col).is_some())
                    .unwrap_or(false)
            })
            .collect();
        match matches.len() {
            0 => Err(ParseError {
                message: format!("unknown column `{col}`"),
                offset,
            }),
            1 => Ok((matches[0].0.clone(), col)),
            _ => Err(ParseError {
                message: format!(
                    "ambiguous column `{col}` (matches {})",
                    matches
                        .iter()
                        .map(|(a, _)| format!("`{a}.{col}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                offset,
            }),
        }
    }

    /// `conj := group (AND group)*` — a flat AND chain of groups, each
    /// a bare predicate or a parenthesized sub-conjunction. WHERE is
    /// purely conjunctive, so nested groups flatten: every predicate
    /// lands in the same builder regardless of grouping, and
    /// `(a AND b) AND c` means exactly `a AND b AND c`. A `(` is
    /// unambiguous here — no predicate starts with one (both sides of
    /// an operator are a column reference or a literal).
    fn conjunct(
        &mut self,
        qb: &mut QueryBuilder<'_>,
        rels: &[(String, String)],
    ) -> Result<(), ParseError> {
        loop {
            if matches!(self.peek(), Some(TokenKind::LParen)) {
                self.pos += 1;
                self.conjunct(qb, rels)?;
                self.expect(&TokenKind::RParen)?;
            } else {
                self.predicate(qb, rels)?;
            }
            if self.at_keyword("AND") {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn predicate(
        &mut self,
        qb: &mut QueryBuilder<'_>,
        rels: &[(String, String)],
    ) -> Result<(), ParseError> {
        // Literal-first filter (`5 < col`): parse the literal, the
        // operator, then require a column and normalize by flipping the
        // operator onto the canonical `col op literal` shape.
        if matches!(self.peek(), Some(TokenKind::Number(_) | TokenKind::Str(_))) {
            let value = self.literal()?;
            let op = self.comparison_op()?;
            let (ralias, rcol, roffset) = self.colref()?;
            let (ra, rc) = self.resolve(ralias, rcol, roffset, rels)?;
            return qb
                .filter((&ra, &rc), op.reversed(), value)
                .map_err(|e| ParseError {
                    message: e.to_string(),
                    offset: roffset,
                });
        }
        let (lalias, lcol, loffset) = self.colref()?;
        let (la, lc) = self.resolve(lalias, lcol, loffset, rels)?;
        let op_offset = self.offset();
        let op = self.comparison_op()?;
        match self.peek() {
            Some(TokenKind::Ident(_)) => {
                // column-to-column: join edge (equality only)
                let (ralias, rcol, roffset) = self.colref()?;
                let (ra, rc) = self.resolve(ralias, rcol, roffset, rels)?;
                if op != CmpOp::Eq {
                    return Err(ParseError {
                        message: "only equality joins are supported between columns".into(),
                        offset: op_offset,
                    });
                }
                qb.join((&la, &lc), (&ra, &rc)).map_err(|e| ParseError {
                    message: e.to_string(),
                    offset: roffset,
                })
            }
            _ => {
                let offset = self.offset();
                let value = self.literal()?;
                qb.filter((&la, &lc), op, value).map_err(|e| ParseError {
                    message: e.to_string(),
                    offset,
                })
            }
        }
    }

    fn comparison_op(&mut self) -> Result<CmpOp, ParseError> {
        let op_offset = self.offset();
        match self.next() {
            Some(TokenKind::Eq) => Ok(CmpOp::Eq),
            Some(TokenKind::Ne) => Ok(CmpOp::Ne),
            Some(TokenKind::Lt) => Ok(CmpOp::Lt),
            Some(TokenKind::Le) => Ok(CmpOp::Le),
            Some(TokenKind::Gt) => Ok(CmpOp::Gt),
            Some(TokenKind::Ge) => Ok(CmpOp::Ge),
            Some(other) => Err(ParseError {
                message: format!("expected a comparison operator, found {other}"),
                offset: op_offset,
            }),
            None => Err(ParseError {
                message: "expected a comparison operator, found end of input".into(),
                offset: op_offset,
            }),
        }
    }

    fn literal(&mut self) -> Result<Datum, ParseError> {
        let offset = self.offset();
        match self.next() {
            Some(TokenKind::Number(digits)) => {
                if digits.contains('.') {
                    digits
                        .parse::<f64>()
                        .map(Datum::Float)
                        .map_err(|_| ParseError {
                            message: format!("invalid float literal `{digits}`"),
                            offset,
                        })
                } else {
                    digits
                        .parse::<i64>()
                        .map(Datum::Int)
                        .map_err(|_| ParseError {
                            message: format!("integer literal `{digits}` out of range"),
                            offset,
                        })
                }
            }
            Some(TokenKind::Str(s)) => Ok(Datum::Str(s)),
            Some(other) => Err(ParseError {
                message: format!("expected a literal, found {other}"),
                offset,
            }),
            None => Err(ParseError {
                message: "expected a literal, found end of input".into(),
                offset,
            }),
        }
    }

    /// `OPTION '(' USEPLAN number ')'`
    fn option_clause(&mut self) -> Result<Option<Nat>, ParseError> {
        if !self.at_keyword("OPTION") {
            return Ok(None);
        }
        self.pos += 1;
        self.expect(&TokenKind::LParen)?;
        self.keyword("USEPLAN")?;
        let offset = self.offset();
        let digits = match self.next() {
            Some(TokenKind::Number(d)) if !d.contains('.') => d,
            Some(other) => {
                return Err(ParseError {
                    message: format!("expected a plan number, found {other}"),
                    offset,
                })
            }
            None => {
                return Err(ParseError {
                    message: "expected a plan number, found end of input".into(),
                    offset,
                })
            }
        };
        let n = digits.parse::<Nat>().map_err(|e| ParseError {
            message: e.to_string(),
            offset,
        })?;
        self.expect(&TokenKind::RParen)?;
        Ok(Some(n))
    }

    /// Installs projection or aggregate on the builder from the SELECT
    /// shape and GROUP BY list.
    fn shape_output(
        &self,
        qb: &mut QueryBuilder<'_>,
        select: Vec<SelectItem>,
        group_by: Vec<(String, String)>,
        rels: &[(String, String)],
    ) -> Result<(), ParseError> {
        let has_aggs = select.iter().any(|i| matches!(i, SelectItem::Agg(_, _)));
        if !has_aggs && group_by.is_empty() {
            // plain projection (or SELECT *)
            let mut cols: Vec<(String, String)> = Vec::new();
            for item in select {
                match item {
                    SelectItem::Star => return Ok(()), // no projection
                    SelectItem::Col(alias, col, offset) => {
                        cols.push(self.resolve(alias, col, offset, rels)?);
                    }
                    SelectItem::Agg(..) => unreachable!("has_aggs is false"),
                }
            }
            let refs: Vec<(&str, &str)> =
                cols.iter().map(|(a, c)| (a.as_str(), c.as_str())).collect();
            qb.project(&refs).map_err(|e| ParseError {
                message: e.to_string(),
                offset: 0,
            })?;
            return Ok(());
        }

        // Aggregate query: non-aggregate select items must appear in
        // GROUP BY; output is normalized to group-by ++ aggregates.
        let mut aggs: Vec<(AggFunc, Option<(String, String)>)> = Vec::new();
        for item in select {
            match item {
                SelectItem::Star => {
                    return Err(ParseError {
                        message: "SELECT * cannot be combined with aggregates".into(),
                        offset: 0,
                    })
                }
                SelectItem::Col(alias, col, offset) => {
                    let resolved = self.resolve(alias, col, offset, rels)?;
                    if !group_by.contains(&resolved) {
                        return Err(ParseError {
                            message: format!(
                                "column `{}.{}` must appear in GROUP BY",
                                resolved.0, resolved.1
                            ),
                            offset,
                        });
                    }
                }
                SelectItem::Agg(func, arg) => {
                    let arg = match arg {
                        None => None,
                        Some((alias, col, offset)) => Some(self.resolve(alias, col, offset, rels)?),
                    };
                    aggs.push((func, arg));
                }
            }
        }
        let group_refs: Vec<(&str, &str)> = group_by
            .iter()
            .map(|(a, c)| (a.as_str(), c.as_str()))
            .collect();
        let agg_refs: Vec<(AggFunc, Option<(&str, &str)>)> = aggs
            .iter()
            .map(|(f, arg)| (*f, arg.as_ref().map(|(a, c)| (a.as_str(), c.as_str()))))
            .collect();
        qb.aggregate(&group_refs, &agg_refs)
            .map_err(|e| ParseError {
                message: e.to_string(),
                offset: 0,
            })
    }
}

fn is_clause_keyword(s: &str) -> bool {
    ["WHERE", "GROUP", "OPTION", "ON", "AND", "ORDER", "AS"]
        .iter()
        .any(|k| s.eq_ignore_ascii_case(k))
}
