//! Volcano-style pipelined execution: the open/next/close iterator
//! model of Graefe's Volcano — the engine architecture the paper's host
//! systems use ("execution iterators are tested in uncommon, but
//! possible configurations", §6).
//!
//! This is a second, independent implementation of every operator's
//! semantics. [`ExecNode::execute_pipelined`] must produce exactly the
//! same result multiset as the materialized [`ExecNode::execute`] for
//! every plan — which makes the two engines differential tests *of each
//! other*, on top of the plan-level differential testing the paper
//! performs. Property obligations carry over unchanged: `MergeJoin` and
//! `StreamAgg` trust their inputs' order and silently produce wrong
//! answers for invalid plans.
//!
//! Blocking operators (sort, hash build, hash aggregation) materialize
//! exactly what their algebra requires and nothing more; `StreamAgg`,
//! `Project`, scans, and the probe side of joins are fully streaming.

use crate::node::{AggSpec, ColFilter, ExecNode, JoinSpec};
use crate::run::Accumulators;
use crate::{Database, ExecError, Row, Table};
use plansample_catalog::Datum;
use std::collections::HashMap;

/// A Volcano-style operator: `open` prepares state, `next` yields one
/// row at a time, `close` releases state.
pub trait Operator {
    /// Prepares the operator (recursively opening children).
    fn open(&mut self) -> Result<(), ExecError>;
    /// Produces the next output row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>, ExecError>;
    /// Releases operator state (recursively closing children).
    fn close(&mut self);
}

impl ExecNode {
    /// Compiles this plan into a pipelined operator tree.
    pub fn compile<'a>(&'a self, db: &'a Database) -> Result<Box<dyn Operator + 'a>, ExecError> {
        Ok(match self {
            ExecNode::TableScan { table, filters } => Box::new(ScanIter {
                rows: db.table(*table)?.rows(),
                filters,
                pos: 0,
                sort_col: None,
                order: Vec::new(),
            }),
            ExecNode::IndexScan {
                table,
                sort_col,
                filters,
            } => Box::new(ScanIter {
                rows: db.table(*table)?.rows(),
                filters,
                pos: 0,
                sort_col: Some(*sort_col),
                order: Vec::new(),
            }),
            ExecNode::Sort { input, keys } => Box::new(SortIter {
                input: input.compile(db)?,
                keys,
                buffer: Vec::new(),
                pos: 0,
            }),
            ExecNode::NestedLoopJoin { left, right, spec } => Box::new(NestedLoopIter {
                outer: left.compile(db)?,
                inner: right.compile(db)?,
                spec,
                inner_buffer: Vec::new(),
                current_outer: None,
                inner_pos: 0,
            }),
            ExecNode::HashJoin { left, right, spec } => Box::new(HashJoinIter {
                build: left.compile(db)?,
                probe: right.compile(db)?,
                spec,
                table: HashMap::new(),
                current_probe: None,
                match_pos: 0,
            }),
            ExecNode::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                spec,
            } => Box::new(MergeJoinIter {
                left: left.compile(db)?,
                right: right.compile(db)?,
                left_key: *left_key,
                right_key: *right_key,
                spec,
                left_row: None,
                right_block: Vec::new(),
                next_right: None,
                left_started: false,
                block_pos: 0,
                left_block: Vec::new(),
                left_block_pos: 0,
            }),
            ExecNode::HashAgg { input, group, aggs } => Box::new(HashAggIter {
                input: input.compile(db)?,
                group,
                aggs,
                output: Vec::new(),
                pos: 0,
            }),
            ExecNode::StreamAgg { input, group, aggs } => Box::new(StreamAggIter {
                input: input.compile(db)?,
                group,
                aggs,
                current: None,
                done: false,
                emitted_any: false,
            }),
            ExecNode::Project { input, cols } => Box::new(ProjectIter {
                input: input.compile(db)?,
                cols,
            }),
        })
    }

    /// Runs the plan through the pipelined engine, draining into a table.
    pub fn execute_pipelined(&self, db: &Database) -> Result<Table, ExecError> {
        let width = self.output_width(db)?;
        let mut op = self.compile(db)?;
        op.open()?;
        let mut table = Table::new(width);
        while let Some(row) = op.next()? {
            if row.len() != width {
                return Err(ExecError::RowWidth {
                    row: table.len(),
                    expected: width,
                    actual: row.len(),
                });
            }
            table.push(row);
        }
        op.close();
        Ok(table)
    }

    /// Output width of this plan (columns per row).
    pub fn output_width(&self, db: &Database) -> Result<usize, ExecError> {
        Ok(match self {
            ExecNode::TableScan { table, .. } | ExecNode::IndexScan { table, .. } => {
                db.table(*table)?.width()
            }
            ExecNode::Sort { input, .. } => input.output_width(db)?,
            ExecNode::NestedLoopJoin { left, right, .. }
            | ExecNode::HashJoin { left, right, .. }
            | ExecNode::MergeJoin { left, right, .. } => {
                left.output_width(db)? + right.output_width(db)?
            }
            ExecNode::HashAgg { group, aggs, .. } | ExecNode::StreamAgg { group, aggs, .. } => {
                group.len() + aggs.len()
            }
            ExecNode::Project { cols, .. } => cols.len(),
        })
    }
}

/// Table / index scan. Index scans pre-compute a sorted visit order at
/// `open` (the sorted structure *is* the index); heap scans stream in
/// storage order.
struct ScanIter<'a> {
    rows: &'a [Row],
    filters: &'a [ColFilter],
    pos: usize,
    sort_col: Option<usize>,
    order: Vec<usize>,
}

impl Operator for ScanIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        if let Some(col) = self.sort_col {
            if col >= self.rows.first().map_or(usize::MAX, Vec::len) && !self.rows.is_empty() {
                return Err(ExecError::OffsetOutOfRange {
                    offset: col,
                    width: self.rows[0].len(),
                });
            }
            let mut order: Vec<usize> = (0..self.rows.len()).collect();
            order.sort_by(|&a, &b| {
                self.rows[a][col]
                    .cmp(&self.rows[b][col])
                    .then_with(|| self.rows[a].cmp(&self.rows[b]))
            });
            self.order = order;
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        loop {
            let idx = if self.sort_col.is_some() {
                match self.order.get(self.pos) {
                    Some(&i) => i,
                    None => return Ok(None),
                }
            } else {
                if self.pos >= self.rows.len() {
                    return Ok(None);
                }
                self.pos
            };
            self.pos += 1;
            let row = &self.rows[idx];
            if let Some(f) = self.filters.iter().find(|f| f.offset >= row.len()) {
                return Err(ExecError::OffsetOutOfRange {
                    offset: f.offset,
                    width: row.len(),
                });
            }
            if self.filters.iter().all(|f| f.matches(row)) {
                return Ok(Some(row.clone()));
            }
        }
    }

    fn close(&mut self) {
        self.order = Vec::new();
    }
}

/// Blocking sort: drains the child at `open`, then streams.
struct SortIter<'a> {
    input: Box<dyn Operator + 'a>,
    keys: &'a [usize],
    buffer: Vec<Row>,
    pos: usize,
}

impl Operator for SortIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()?;
        self.buffer.clear();
        self.pos = 0;
        while let Some(row) = self.input.next()? {
            if let Some(&k) = self.keys.iter().find(|&&k| k >= row.len()) {
                return Err(ExecError::OffsetOutOfRange {
                    offset: k,
                    width: row.len(),
                });
            }
            self.buffer.push(row);
        }
        self.input.close();
        let keys = self.keys;
        self.buffer.sort_by(|a, b| {
            keys.iter()
                .map(|&k| a[k].cmp(&b[k]))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or_else(|| a.cmp(b))
        });
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.pos >= self.buffer.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.buffer[self.pos - 1].clone()))
    }

    fn close(&mut self) {
        self.buffer = Vec::new();
    }
}

/// Block nested loops: the inner side is materialized once at `open`
/// (re-opening arbitrary subtrees per outer row would re-run blocking
/// children); the outer streams.
struct NestedLoopIter<'a> {
    outer: Box<dyn Operator + 'a>,
    inner: Box<dyn Operator + 'a>,
    spec: &'a JoinSpec,
    inner_buffer: Vec<Row>,
    current_outer: Option<Row>,
    inner_pos: usize,
}

impl Operator for NestedLoopIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.outer.open()?;
        self.inner.open()?;
        self.inner_buffer.clear();
        while let Some(row) = self.inner.next()? {
            self.inner_buffer.push(row);
        }
        self.inner.close();
        self.current_outer = None;
        self.inner_pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        loop {
            if self.current_outer.is_none() {
                self.current_outer = self.outer.next()?;
                self.inner_pos = 0;
                if self.current_outer.is_none() {
                    return Ok(None);
                }
            }
            let outer = self.current_outer.as_ref().expect("just set");
            while self.inner_pos < self.inner_buffer.len() {
                let inner = &self.inner_buffer[self.inner_pos];
                self.inner_pos += 1;
                if check_pair_offsets(self.spec, outer, inner)?
                    && self.spec.pairs_match(outer, inner)
                {
                    return Ok(Some(self.spec.assemble_row(outer, inner)));
                }
            }
            self.current_outer = None;
        }
    }

    fn close(&mut self) {
        self.inner_buffer = Vec::new();
        self.outer.close();
    }
}

fn check_pair_offsets(spec: &JoinSpec, left: &[Datum], right: &[Datum]) -> Result<bool, ExecError> {
    for &(l, r) in &spec.eq_pairs {
        if l >= left.len() {
            return Err(ExecError::OffsetOutOfRange {
                offset: l,
                width: left.len(),
            });
        }
        if r >= right.len() {
            return Err(ExecError::OffsetOutOfRange {
                offset: r,
                width: right.len(),
            });
        }
    }
    Ok(true)
}

/// Hash join: build side drained at `open`, probe side streamed with a
/// pending-match cursor.
struct HashJoinIter<'a> {
    build: Box<dyn Operator + 'a>,
    probe: Box<dyn Operator + 'a>,
    spec: &'a JoinSpec,
    table: HashMap<Vec<Datum>, Vec<Row>>,
    current_probe: Option<Row>,
    match_pos: usize,
}

impl Operator for HashJoinIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.build.open()?;
        self.probe.open()?;
        self.table.clear();
        while let Some(row) = self.build.next()? {
            for &(l, _) in &self.spec.eq_pairs {
                if l >= row.len() {
                    return Err(ExecError::OffsetOutOfRange {
                        offset: l,
                        width: row.len(),
                    });
                }
            }
            let key: Vec<Datum> = self
                .spec
                .eq_pairs
                .iter()
                .map(|&(l, _)| row[l].clone())
                .collect();
            self.table.entry(key).or_default().push(row);
        }
        self.build.close();
        self.current_probe = None;
        self.match_pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        loop {
            if let Some(probe) = &self.current_probe {
                let key: Vec<Datum> = self
                    .spec
                    .eq_pairs
                    .iter()
                    .map(|&(_, r)| probe[r].clone())
                    .collect();
                if let Some(matches) = self.table.get(&key) {
                    if self.match_pos < matches.len() {
                        let row = self.spec.assemble_row(&matches[self.match_pos], probe);
                        self.match_pos += 1;
                        return Ok(Some(row));
                    }
                }
                self.current_probe = None;
            }
            match self.probe.next()? {
                None => return Ok(None),
                Some(row) => {
                    for &(_, r) in &self.spec.eq_pairs {
                        if r >= row.len() {
                            return Err(ExecError::OffsetOutOfRange {
                                offset: r,
                                width: row.len(),
                            });
                        }
                    }
                    self.current_probe = Some(row);
                    self.match_pos = 0;
                }
            }
        }
    }

    fn close(&mut self) {
        self.table = HashMap::new();
        self.probe.close();
    }
}

/// Merge join over sorted inputs with duplicate-block buffering. Only
/// the current equal-key blocks are buffered, never whole inputs.
struct MergeJoinIter<'a> {
    left: Box<dyn Operator + 'a>,
    right: Box<dyn Operator + 'a>,
    left_key: usize,
    right_key: usize,
    spec: &'a JoinSpec,
    left_row: Option<Row>,
    left_started: bool,
    /// Buffered left rows of the current key block.
    left_block: Vec<Row>,
    left_block_pos: usize,
    /// Buffered right rows of the current key block.
    right_block: Vec<Row>,
    /// Lookahead right row (first row beyond the current block).
    next_right: Option<Row>,
    block_pos: usize,
}

impl MergeJoinIter<'_> {
    /// Advances to the next pair of equal-key blocks; returns `false`
    /// when either input is exhausted.
    fn advance_blocks(&mut self) -> Result<bool, ExecError> {
        loop {
            let Some(lrow) = self
                .left_row
                .take()
                .map(Ok)
                .or_else(|| match self.left.next() {
                    Ok(v) => v.map(Ok),
                    Err(e) => Some(Err(e)),
                })
            else {
                return Ok(false);
            };
            let lrow = lrow?;
            if self.left_key >= lrow.len() {
                return Err(ExecError::OffsetOutOfRange {
                    offset: self.left_key,
                    width: lrow.len(),
                });
            }
            let key = lrow[self.left_key].clone();

            // Advance the right side until its head key >= left key.
            loop {
                if self.next_right.is_none() {
                    self.next_right = self.right.next()?;
                }
                match &self.next_right {
                    None => return Ok(false),
                    Some(r) => {
                        if self.right_key >= r.len() {
                            return Err(ExecError::OffsetOutOfRange {
                                offset: self.right_key,
                                width: r.len(),
                            });
                        }
                        match r[self.right_key].cmp(&key) {
                            std::cmp::Ordering::Less => {
                                self.next_right = None; // skip, fetch next
                            }
                            _ => break,
                        }
                    }
                }
            }
            let rhead = self.next_right.as_ref().expect("checked above");
            if rhead[self.right_key] != key {
                // No right match for this left key: pull the next left row.
                continue;
            }

            // Collect the full blocks on both sides.
            self.left_block = vec![lrow];
            loop {
                match self.left.next()? {
                    Some(next) if next[self.left_key] == key => self.left_block.push(next),
                    other => {
                        self.left_row = other;
                        break;
                    }
                }
            }
            self.right_block.clear();
            while let Some(r) = self.next_right.take() {
                if r[self.right_key] == key {
                    self.right_block.push(r);
                    self.next_right = self.right.next()?;
                } else {
                    self.next_right = Some(r);
                    break;
                }
            }
            self.left_block_pos = 0;
            self.block_pos = 0;
            return Ok(true);
        }
    }
}

impl Operator for MergeJoinIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.left.open()?;
        self.right.open()?;
        self.left_row = None;
        self.next_right = None;
        self.left_block = Vec::new();
        self.right_block = Vec::new();
        self.left_block_pos = 0;
        self.block_pos = 0;
        self.left_started = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        loop {
            // Emit remaining pairs of the current blocks.
            while self.left_block_pos < self.left_block.len() {
                let lrow = &self.left_block[self.left_block_pos];
                while self.block_pos < self.right_block.len() {
                    let rrow = &self.right_block[self.block_pos];
                    self.block_pos += 1;
                    check_pair_offsets(self.spec, lrow, rrow)?;
                    if self.spec.pairs_match(lrow, rrow) {
                        return Ok(Some(self.spec.assemble_row(lrow, rrow)));
                    }
                }
                self.left_block_pos += 1;
                self.block_pos = 0;
            }
            if !self.advance_blocks()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) {
        self.left_block = Vec::new();
        self.right_block = Vec::new();
        self.left.close();
        self.right.close();
    }
}

/// Hash aggregation: fully blocking (all groups materialize at `open`).
struct HashAggIter<'a> {
    input: Box<dyn Operator + 'a>,
    group: &'a [usize],
    aggs: &'a [AggSpec],
    output: Vec<Row>,
    pos: usize,
}

impl Operator for HashAggIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()?;
        let mut groups: HashMap<Vec<Datum>, Accumulators> = HashMap::new();
        let mut saw_rows = false;
        while let Some(row) = self.input.next()? {
            saw_rows = true;
            check_agg_offsets(self.group, self.aggs, &row)?;
            let key: Vec<Datum> = self.group.iter().map(|&g| row[g].clone()).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| Accumulators::new(self.aggs));
            accs.update(|col| &row[col], self.aggs)?;
        }
        self.input.close();
        self.output = groups
            .into_iter()
            .map(|(key, accs)| accs.finish_into(key))
            .collect();
        if self.output.is_empty() && self.group.is_empty() && !saw_rows {
            self.output
                .push(Accumulators::new(self.aggs).finish_into(Vec::new()));
        }
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.pos >= self.output.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.output[self.pos - 1].clone()))
    }

    fn close(&mut self) {
        self.output = Vec::new();
    }
}

fn check_agg_offsets(group: &[usize], aggs: &[AggSpec], row: &[Datum]) -> Result<(), ExecError> {
    for &g in group
        .iter()
        .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
    {
        if g >= row.len() {
            return Err(ExecError::OffsetOutOfRange {
                offset: g,
                width: row.len(),
            });
        }
    }
    Ok(())
}

/// Streaming aggregation: genuinely pipelined — one group in flight,
/// emitted when the key changes.
struct StreamAggIter<'a> {
    input: Box<dyn Operator + 'a>,
    group: &'a [usize],
    aggs: &'a [AggSpec],
    current: Option<(Vec<Datum>, Accumulators)>,
    done: bool,
    emitted_any: bool,
}

impl Operator for StreamAggIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()?;
        self.current = None;
        self.done = false;
        self.emitted_any = false;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.done {
            return Ok(None);
        }
        loop {
            match self.input.next()? {
                Some(row) => {
                    check_agg_offsets(self.group, self.aggs, &row)?;
                    let key: Vec<Datum> = self.group.iter().map(|&g| row[g].clone()).collect();
                    match &mut self.current {
                        Some((k, accs)) if *k == key => {
                            accs.update(|col| &row[col], self.aggs)?;
                        }
                        Some(_) => {
                            let (k, accs) = self.current.take().expect("matched Some above");
                            let mut fresh = Accumulators::new(self.aggs);
                            fresh.update(|col| &row[col], self.aggs)?;
                            self.current = Some((key, fresh));
                            self.emitted_any = true;
                            return Ok(Some(accs.finish_into(k)));
                        }
                        None => {
                            let mut accs = Accumulators::new(self.aggs);
                            accs.update(|col| &row[col], self.aggs)?;
                            self.current = Some((key, accs));
                        }
                    }
                }
                None => {
                    self.done = true;
                    if let Some((k, accs)) = self.current.take() {
                        self.emitted_any = true;
                        return Ok(Some(accs.finish_into(k)));
                    }
                    // SQL scalar-aggregate semantics over empty input.
                    if self.group.is_empty() && !self.emitted_any {
                        return Ok(Some(Accumulators::new(self.aggs).finish_into(Vec::new())));
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// Streaming projection.
struct ProjectIter<'a> {
    input: Box<dyn Operator + 'a>,
    cols: &'a [usize],
}

impl Operator for ProjectIter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                if let Some(&c) = self.cols.iter().find(|&&c| c >= row.len()) {
                    return Err(ExecError::OffsetOutOfRange {
                        offset: c,
                        width: row.len(),
                    });
                }
                Ok(Some(self.cols.iter().map(|&c| row[c].clone()).collect()))
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
    }
}

#[cfg(test)]
mod tests {
    use crate::node::{AggSpec, ColFilter, ExecNode, JoinSpec, Side};
    use crate::{Database, Table};
    use plansample_catalog::Datum::{Int, Null};
    use plansample_catalog::TableId;
    use plansample_query::{AggFunc, CmpOp};

    fn db_two(
        w0: usize,
        r0: Vec<Vec<plansample_catalog::Datum>>,
        w1: usize,
        r1: Vec<Vec<plansample_catalog::Datum>>,
    ) -> Database {
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

    /// Both engines must agree on every operator shape.
    fn assert_engines_agree(node: &ExecNode, db: &Database) {
        let materialized = node.execute(db).unwrap();
        let pipelined = node.execute_pipelined(db).unwrap();
        assert!(
            materialized.multiset_eq(&pipelined),
            "engines disagree: {} vs {} rows",
            materialized.len(),
            pipelined.len()
        );
    }

    #[test]
    fn scans_and_filters_agree() {
        let db = db_two(
            2,
            vec![
                vec![Int(3), Int(30)],
                vec![Int(1), Int(10)],
                vec![Int(2), Int(20)],
            ],
            1,
            vec![],
        );
        assert_engines_agree(
            &ExecNode::TableScan {
                table: TableId(0),
                filters: vec![ColFilter {
                    offset: 1,
                    op: CmpOp::Gt,
                    value: Int(15),
                }],
            },
            &db,
        );
        assert_engines_agree(
            &ExecNode::IndexScan {
                table: TableId(0),
                sort_col: 0,
                filters: vec![],
            },
            &db,
        );
    }

    #[test]
    fn index_scan_streams_in_key_order() {
        let db = db_two(1, vec![vec![Int(3)], vec![Int(1)], vec![Int(2)]], 1, vec![]);
        let node = ExecNode::IndexScan {
            table: TableId(0),
            sort_col: 0,
            filters: vec![],
        };
        let out = node.execute_pipelined(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(1)], vec![Int(2)], vec![Int(3)]]);
    }

    #[test]
    fn all_join_iterators_agree_with_materialized() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)], vec![Int(4)]],
            2,
            vec![
                vec![Int(2), Int(20)],
                vec![Int(2), Int(21)],
                vec![Int(3), Int(30)],
                vec![Int(4), Int(40)],
            ],
        );
        let s = spec(1, 2, vec![(0, 0)]);
        assert_engines_agree(
            &ExecNode::NestedLoopJoin {
                left: scan(0),
                right: scan(1),
                spec: s.clone(),
            },
            &db,
        );
        assert_engines_agree(
            &ExecNode::HashJoin {
                left: scan(0),
                right: scan(1),
                spec: s.clone(),
            },
            &db,
        );
        assert_engines_agree(
            &ExecNode::MergeJoin {
                left: Box::new(ExecNode::Sort {
                    input: scan(0),
                    keys: vec![0],
                }),
                right: Box::new(ExecNode::Sort {
                    input: scan(1),
                    keys: vec![0],
                }),
                left_key: 0,
                right_key: 0,
                spec: s,
            },
            &db,
        );
    }

    #[test]
    fn merge_join_duplicate_blocks_pipelined() {
        let db = db_two(
            1,
            vec![vec![Int(2)], vec![Int(2)], vec![Int(2)]],
            1,
            vec![vec![Int(2)], vec![Int(2)]],
        );
        let node = ExecNode::MergeJoin {
            left: scan(0),
            right: scan(1),
            left_key: 0,
            right_key: 0,
            spec: spec(1, 1, vec![(0, 0)]),
        };
        assert_eq!(node.execute_pipelined(&db).unwrap().len(), 6);
    }

    #[test]
    fn cross_product_pipelined() {
        let db = db_two(1, vec![vec![Int(1)], vec![Int(2)]], 1, vec![vec![Int(3)]]);
        let node = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec: spec(1, 1, vec![]),
        };
        assert_eq!(node.execute_pipelined(&db).unwrap().len(), 2);
    }

    #[test]
    fn aggregations_agree_including_empty_input() {
        let aggs = vec![
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(1),
            },
            AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            },
            AggSpec {
                func: AggFunc::Avg,
                arg: Some(1),
            },
        ];
        // Non-empty grouped.
        let db = db_two(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(1), Int(20)],
                vec![Int(2), Int(5)],
            ],
            1,
            vec![],
        );
        assert_engines_agree(
            &ExecNode::HashAgg {
                input: scan(0),
                group: vec![0],
                aggs: aggs.clone(),
            },
            &db,
        );
        assert_engines_agree(
            &ExecNode::StreamAgg {
                input: Box::new(ExecNode::Sort {
                    input: scan(0),
                    keys: vec![0],
                }),
                group: vec![0],
                aggs: aggs.clone(),
            },
            &db,
        );
        // Empty input, scalar aggregate: both engines emit the SQL row.
        let empty = db_two(2, vec![], 1, vec![]);
        for node in [
            ExecNode::HashAgg {
                input: scan(0),
                group: vec![],
                aggs: aggs.clone(),
            },
            ExecNode::StreamAgg {
                input: scan(0),
                group: vec![],
                aggs,
            },
        ] {
            let out = node.execute_pipelined(&empty).unwrap();
            assert_eq!(out.rows(), &[vec![Null, Int(0), Null]]);
            assert_engines_agree(&node, &empty);
        }
    }

    #[test]
    fn projection_streams() {
        let db = db_two(3, vec![vec![Int(1), Int(2), Int(3)]], 1, vec![]);
        let node = ExecNode::Project {
            input: scan(0),
            cols: vec![2, 0],
        };
        let out = node.execute_pipelined(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(3), Int(1)]]);
        assert_engines_agree(&node, &db);
    }

    #[test]
    fn offset_errors_surface_in_pipelined_mode() {
        let db = db_two(1, vec![vec![Int(1)]], 1, vec![]);
        let node = ExecNode::Project {
            input: scan(0),
            cols: vec![9],
        };
        assert!(node.execute_pipelined(&db).is_err());
    }

    #[test]
    fn composed_pipeline_agrees() {
        // join -> sort -> stream agg, all pipelined.
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]],
            2,
            vec![
                vec![Int(1), Int(5)],
                vec![Int(2), Int(7)],
                vec![Int(2), Int(9)],
            ],
        );
        let join = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: spec(1, 2, vec![(0, 0)]),
        };
        let node = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort {
                input: Box::new(join),
                keys: vec![0],
            }),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(2),
            }],
        };
        assert_engines_agree(&node, &db);
        let out = node.execute_pipelined(&db).unwrap();
        let rows = out.sorted_rows();
        assert_eq!(rows[0], vec![Int(1), Int(5)]);
        assert_eq!(rows[1], vec![Int(2), Int(32)]); // (7+9) × 2 left dups
    }
}
