//! Operator execution over relations of row numbers.
//!
//! [`ExecNode::execute`] is operator-at-a-time, but an operator's
//! output is not a table of values: it is a [`Rel`], which names rows
//! instead of holding them. A `Rel` has
//!
//! * **segments** — one per base table feeding it. A base table is
//!   either borrowed from the [`Database`] (a scan starts one) or built
//!   and owned by the operator that computed it; only aggregates
//!   compute values, so only they build one;
//! * a **column map**, built once per operator: output offset →
//!   (segment, column of that segment's base table);
//! * one flat `Vec<u32>` of **row numbers**, one per segment per row.
//!
//! Scans filter a stored table into row numbers (an IndexScan filters
//! the table's sorted order, which the [`Database`] keeps), `Sort`
//! permutes them unless they are in order already, a join concatenates
//! its children's segments and emits the two rows' numbers per match —
//! [`JoinSpec::assemble`] only rewrites the column map, so a range that
//! splits, reorders, repeats or drops columns costs nothing per row —
//! and `Project` re-picks map entries. `Datum`s are cloned in exactly
//! two places: where an aggregate builds its output rows (group keys
//! and accumulator results) and where the plan's root builds the
//! [`Table`] it returns.
//!
//! Sort and the aggregates do not compare values either. Every base
//! table, stored or built, keeps dense ranks beside it, built on first
//! use: one a row per column, whose order and equality are `Datum`'s,
//! and one a row of the whole row. Sort orders rows by tuples of ranks
//! (the key columns', then the whole row's: a segment that appears whole
//! and in order by its row rank), and the aggregates hash and compare
//! the group columns' ranks ([`Ranks`]). Joins compare values, because
//! two columns do not share ranks.
//!
//! Operators with physical-property obligations (`MergeJoin`,
//! `StreamAgg`) still trust their inputs — they do not verify or repair
//! sortedness. Running an invalid plan therefore produces observable
//! wrong answers instead of errors, which is the behaviour the
//! differential-testing methodology requires. Every offset is checked
//! against its child's width before any row is read.
//!
//! The row *order* of `execute`'s result is a pure function of (plan,
//! database): hash join and hash aggregation share one chained table
//! ([`Chains`]) with a fixed hasher, and groups come out in the order
//! their first row went in. The hasher is not collision-resistant: keys
//! crafted to collide degrade a hash operator to a nested loop, which a
//! testing engine run on its own data can afford.

use crate::node::{AggSpec, ColFilter, ExecNode, JoinSpec, Side};
use crate::{Database, ExecError, Row, Stored, Table};
use plansample_catalog::{Datum, Mix, TableId};
use plansample_query::AggFunc;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

impl ExecNode {
    /// Executes the plan against `db`, producing the result table.
    pub fn execute(&self, db: &Database) -> Result<Table, ExecError> {
        self.run(db)?.into_table()
    }

    fn run<'db>(&self, db: &'db Database) -> Result<Rel<'db>, ExecError> {
        match self {
            ExecNode::TableScan { table, filters } => scan(db, *table, filters, None),
            ExecNode::IndexScan {
                table,
                sort_col,
                filters,
            } => scan(db, *table, filters, Some(*sort_col)),
            ExecNode::Sort { input, keys } => {
                let src = input.run(db)?;
                check_offsets(keys.iter().copied(), src.width())?;
                let order = {
                    // Key order first, full row as tiebreak. Rows whose
                    // tuples still tie are equal, so stability would not
                    // show.
                    let ranks = src.rank_tuples(src.value_ranks(keys).chain(src.row_ranks()));
                    let cmp = |&a: &usize, &b: &usize| ranks.of(a).cmp(ranks.of(b));
                    // Input already in order is what sorting leaves of
                    // it; the check stops at the first inversion.
                    if (0..src.len).is_sorted_by(|a, b| cmp(a, b).is_le()) {
                        None
                    } else {
                        let mut order: Vec<usize> = (0..src.len).collect();
                        order.sort_unstable_by(cmp);
                        Some(order)
                    }
                };
                let Some(order) = order else { return Ok(src) };
                let mut ids = Vec::with_capacity(src.ids.len());
                for row in order {
                    ids.extend_from_slice(src.row_ids(row));
                }
                Ok(Rel { ids, ..src })
            }
            ExecNode::NestedLoopJoin { left, right, spec } => {
                let (l, r) = (left.run(db)?, right.run(db)?);
                check_join_offsets(spec, l.width(), r.width())?;
                let mut out = Matches::default();
                {
                    let (lk, rk) = pair_keys(&l, &r, spec);
                    // Every pair, in order; equal keys hash alike, so
                    // values are compared only where the hashes match.
                    let right_hashes: Vec<u64> = (0..r.len).map(|j| rk.hash(j)).collect();
                    for i in 0..l.len {
                        let (key, hash) = (lk.of(i), lk.hash(i));
                        for (j, &right_hash) in right_hashes.iter().enumerate() {
                            if right_hash == hash && key == rk.of(j) {
                                out.emit(&l, i, &r, j);
                            }
                        }
                    }
                }
                out.assemble(l, r, spec)
            }
            ExecNode::HashJoin { left, right, spec } => {
                let (l, r) = (left.run(db)?, right.run(db)?);
                check_join_offsets(spec, l.width(), r.width())?;
                let mut out = Matches::default();
                {
                    let (lk, rk) = pair_keys(&l, &r, spec);
                    // Linked last row first, so a chain lists its rows
                    // in input order.
                    let rows = row_numbers(l.len)?;
                    let mut build = Chains::new(rows);
                    for i in (0..rows).rev() {
                        build.link(lk.hash(i as usize), i);
                    }
                    for j in 0..r.len {
                        for i in build.chain(rk.hash(j)) {
                            if lk.of(i) == rk.of(j) {
                                out.emit(&l, i, &r, j);
                            }
                        }
                    }
                }
                out.assemble(l, r, spec)
            }
            ExecNode::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                spec,
            } => {
                let (l, r) = (left.run(db)?, right.run(db)?);
                check_join_offsets(spec, l.width(), r.width())?;
                check_offsets([*left_key], l.width())?;
                check_offsets([*right_key], r.width())?;
                let mut out = Matches::default();
                {
                    let (lk, rk) = (l.keys(&[*left_key]).values, r.keys(&[*right_key]).values);
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < lk.len() && j < rk.len() {
                        match lk[i].cmp(rk[j]) {
                            Ordering::Less => i += 1,
                            Ordering::Greater => j += 1,
                            Ordering::Equal => {
                                // Duplicate blocks: all pairs of the two runs.
                                let i_end = run_end(&lk, i);
                                let j_end = run_end(&rk, j);
                                for a in i..i_end {
                                    for b in j..j_end {
                                        let residuals_hold = spec
                                            .eq_pairs
                                            .iter()
                                            .all(|&(lo, ro)| l.get(a, lo) == r.get(b, ro));
                                        if residuals_hold {
                                            out.emit(&l, a, &r, b);
                                        }
                                    }
                                }
                                i = i_end;
                                j = j_end;
                            }
                        }
                    }
                }
                out.assemble(l, r, spec)
            }
            ExecNode::HashAgg { input, group, aggs } => {
                let src = input.run(db)?;
                check_offsets(group.iter().copied(), src.width())?;
                check_offsets(aggs.iter().filter_map(|a| a.arg), src.width())?;
                let keys = src.rank_tuples(src.value_ranks(group));
                // A group is known by its first row; groups are numbered
                // in the order those rows arrive.
                let mut table = Chains::new(row_numbers(src.len)?);
                let mut groups: Vec<(usize, Accumulators)> = Vec::new();
                for row in 0..src.len {
                    let hash = keys.hash(row);
                    let known = table
                        .chain(hash)
                        .find(|&g| keys.of(groups[g].0) == keys.of(row));
                    let g = match known {
                        Some(g) => g,
                        None => {
                            table.link(hash, row_numbers(groups.len())?);
                            groups.push((row, Accumulators::new(aggs)));
                            groups.len() - 1
                        }
                    };
                    groups[g].1.update(|col| src.get(row, col), aggs)?;
                }
                let scalar_over_nothing = group.is_empty() && src.len == 0;
                aggregated(&src, group, groups, aggs, scalar_over_nothing)
            }
            ExecNode::StreamAgg { input, group, aggs } => {
                let src = input.run(db)?;
                check_offsets(group.iter().copied(), src.width())?;
                check_offsets(aggs.iter().filter_map(|a| a.arg), src.width())?;
                let keys = src.rank_tuples(src.value_ranks(group));
                // One group per run of equal keys, wherever the runs fall.
                let mut groups: Vec<(usize, Accumulators)> = Vec::new();
                for row in 0..src.len {
                    if groups
                        .last()
                        .is_none_or(|&(first, _)| keys.of(first) != keys.of(row))
                    {
                        groups.push((row, Accumulators::new(aggs)));
                    }
                    let (_, accs) = groups.last_mut().expect("just installed");
                    accs.update(|col| src.get(row, col), aggs)?;
                }
                // Scalar aggregate over an empty input: one row of empty
                // accumulators (SQL semantics), matching HashAgg.
                let scalar_over_nothing = group.is_empty() && groups.is_empty();
                aggregated(&src, group, groups, aggs, scalar_over_nothing)
            }
            ExecNode::Project { input, cols } => {
                let src = input.run(db)?;
                check_offsets(cols.iter().copied(), src.width())?;
                Ok(Rel {
                    cols: cols.iter().map(|&c| src.cols[c]).collect(),
                    ..src
                })
            }
        }
    }
}

/// The table a segment's row numbers index, with the orders and ranks
/// it keeps.
enum Base<'db> {
    /// Borrowed from the [`Database`].
    Stored(&'db Stored),
    /// Built, and owned, by an aggregate.
    Built(Stored),
}

impl Base<'_> {
    fn stored(&self) -> &Stored {
        match self {
            Base::Stored(stored) => stored,
            Base::Built(stored) => stored,
        }
    }

    fn table(&self) -> &Table {
        &self.stored().table
    }
}

/// An operator's output: `len` rows named by row numbers (module docs).
struct Rel<'db> {
    /// One base table per segment.
    segments: Vec<Base<'db>>,
    /// Output offset → (segment, column of its base table).
    cols: Vec<(usize, usize)>,
    /// Row-major: row `r`'s number in segment `s` is
    /// `ids[r * segments.len() + s]`.
    ids: Vec<u32>,
    /// Row count, kept apart from `ids` because a relation projected
    /// down to no columns still has rows.
    len: usize,
}

impl<'db> Rel<'db> {
    /// The rows `ids` of `base`, all of its columns, in that order.
    fn over(base: Base<'db>, ids: Vec<u32>) -> Self {
        Rel {
            cols: (0..base.table().width()).map(|c| (0, c)).collect(),
            segments: vec![base],
            len: ids.len(),
            ids,
        }
    }

    fn width(&self) -> usize {
        self.cols.len()
    }

    fn row_ids(&self, row: usize) -> &[u32] {
        let n = self.segments.len();
        &self.ids[row * n..][..n]
    }

    fn get(&self, row: usize, col: usize) -> &Datum {
        let (segment, base_col) = self.cols[col];
        let id = self.ids[row * self.segments.len() + segment];
        &self.segments[segment].table().rows()[id as usize][base_col]
    }

    /// The given columns of every row, read once so that a join's
    /// comparisons do not chase row numbers.
    fn keys(&self, offsets: &[usize]) -> Keys<'_> {
        self.keys_by(offsets.len(), |k| offsets[k])
    }

    /// [`Rel::keys`] of the `width` columns `offset(0..width)`.
    fn keys_by(&self, width: usize, offset: impl Fn(usize) -> usize) -> Keys<'_> {
        let mut values = Vec::with_capacity(self.len * width);
        for row in 0..self.len {
            values.extend((0..width).map(|k| self.get(row, offset(k))));
        }
        Keys { values, width }
    }

    /// The value ranks of the columns `offsets`, each as (segment, rank
    /// of each of its base table's rows).
    fn value_ranks<'a>(
        &'a self,
        offsets: &'a [usize],
    ) -> impl Iterator<Item = RankPart<'a>> + Clone {
        offsets.iter().map(|&offset| {
            let (segment, col) = self.cols[offset];
            (segment, self.segments[segment].stored().value_ranks(col))
        })
    }

    /// The whole row as rank parts, which compare as `Row`'s `Ord`
    /// would: a segment whose columns appear whole and in order is one
    /// part, its row rank; any other column is its value rank.
    fn row_ranks(&self) -> impl Iterator<Item = RankPart<'_>> + Clone {
        let mut at = 0;
        std::iter::from_fn(move || {
            let &(segment, col) = self.cols.get(at)?;
            let stored = self.segments[segment].stored();
            let width = stored.table.width();
            let whole = self.cols[at..]
                .iter()
                .take(width)
                .copied()
                .eq((0..width).map(|c| (segment, c)));
            if whole {
                at += width;
                Some((segment, stored.row_ranks()))
            } else {
                at += 1;
                Some((segment, stored.value_ranks(col)))
            }
        })
    }

    /// Each row's tuple of the ranks `parts` give it. Two rows' tuples
    /// compare as the values the parts stand for do, lexicographically.
    fn rank_tuples<'a>(&self, parts: impl Iterator<Item = RankPart<'a>> + Clone) -> Ranks {
        let width = parts.clone().count();
        let mut ranks = vec![0; self.len * width];
        let segments = self.segments.len();
        // Column by column: part `k` of every row.
        for (k, (segment, of_row)) in parts.enumerate() {
            let ids = self.ids.iter().skip(segment).step_by(segments);
            for (rank, &id) in ranks.iter_mut().skip(k).step_by(width).zip(ids) {
                *rank = of_row[id as usize];
            }
        }
        Ranks { ranks, width }
    }

    /// The root's step: every value cloned once into the result.
    fn into_table(self) -> Result<Table, ExecError> {
        let rows: Vec<Row> = (0..self.len)
            .map(|row| {
                (0..self.width())
                    .map(|col| self.get(row, col).clone())
                    .collect()
            })
            .collect();
        Table::from_rows(self.width(), rows)
    }
}

/// Key columns extracted from a relation, row-major: `width` values a
/// row.
struct Keys<'a> {
    values: Vec<&'a Datum>,
    width: usize,
}

impl Keys<'_> {
    fn of(&self, row: usize) -> &[&Datum] {
        &self.values[row * self.width..][..self.width]
    }

    fn hash(&self, row: usize) -> u64 {
        let mut hasher = Mix::default();
        for value in self.of(row) {
            value.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// A segment, and the rank of each row of its base table under one
/// measure: a column's value, or the whole row.
type RankPart<'a> = (usize, &'a [u32]);

/// Rank tuples of a relation's rows, row-major: `width` ranks a row.
/// Sort orders rows by them and the aggregates group rows by them, so
/// neither compares or hashes a `Datum`.
struct Ranks {
    ranks: Vec<u32>,
    width: usize,
}

impl Ranks {
    fn of(&self, row: usize) -> &[u32] {
        &self.ranks[row * self.width..][..self.width]
    }

    fn hash(&self, row: usize) -> u64 {
        let mut hasher = Mix::default();
        for &rank in self.of(row) {
            hasher.write_u32(rank);
        }
        hasher.finish()
    }
}

/// Both sides of `spec.eq_pairs`.
fn pair_keys<'a>(l: &'a Rel, r: &'a Rel, spec: &JoinSpec) -> (Keys<'a>, Keys<'a>) {
    let pairs = &spec.eq_pairs;
    (
        l.keys_by(pairs.len(), |k| pairs[k].0),
        r.keys_by(pairs.len(), |k| pairs[k].1),
    )
}

/// Checks that `rows` rows can be numbered in `u32`.
fn row_numbers(rows: usize) -> Result<u32, ExecError> {
    u32::try_from(rows).map_err(|_| ExecError::TooManyRows { rows })
}

/// The bucket-chained hash table of hash join and hash aggregation over
/// items numbered `0..items`: `heads[bucket]` is the chain's first
/// item, `next[item]` the one after it. Two allocations a table, none
/// an item; the caller keeps the keys and re-checks equality. Buckets are
/// the hash's high bits, [`Mix`]'s well-mixed ones.
struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
    shift: u32,
}

impl Chains {
    const END: u32 = u32::MAX;

    /// A table for at most `items` items, none linked yet.
    fn new(items: u32) -> Self {
        let items = items as usize;
        let buckets = items.next_power_of_two().max(2);
        Chains {
            heads: vec![Self::END; buckets],
            next: vec![Self::END; items],
            shift: u64::BITS - buckets.trailing_zeros(),
        }
    }

    /// Puts `item` at the front of its chain.
    fn link(&mut self, hash: u64, item: u32) {
        let head = &mut self.heads[(hash >> self.shift) as usize];
        self.next[item as usize] = std::mem::replace(head, item);
    }

    /// The items linked under `hash`'s bucket, most recent first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let item = |link: u32| (link != Self::END).then_some(link as usize);
        let first = self.heads[(hash >> self.shift) as usize];
        std::iter::successors(item(first), move |&at| item(self.next[at]))
    }
}

/// The row pairs a join matched, as the concatenation of both rows'
/// numbers.
#[derive(Default)]
struct Matches {
    ids: Vec<u32>,
    len: usize,
}

impl Matches {
    fn emit(&mut self, l: &Rel, i: usize, r: &Rel, j: usize) {
        self.ids.extend_from_slice(l.row_ids(i));
        self.ids.extend_from_slice(r.row_ids(j));
        self.len += 1;
    }

    /// The join's output: both children's segments, and the column map
    /// `spec.assemble` picks from theirs.
    fn assemble<'db>(
        self,
        l: Rel<'db>,
        r: Rel<'db>,
        spec: &JoinSpec,
    ) -> Result<Rel<'db>, ExecError> {
        let cols: Vec<(usize, usize)> = spec
            .assemble
            .iter()
            .filter(|&&(_, _, len)| len > 0)
            .flat_map(|&(side, offset, len)| {
                let (child, first_segment) = match side {
                    Side::Left => (&l, 0),
                    Side::Right => (&r, l.segments.len()),
                };
                child.cols[offset..offset + len]
                    .iter()
                    .map(move |&(segment, col)| (first_segment + segment, col))
            })
            .collect();
        // A join's rows are as wide as its inputs together; an assembly
        // of any other width is a bad row the moment there is one.
        let expected = l.width() + r.width();
        if cols.len() != expected {
            if self.len > 0 {
                return Err(ExecError::RowWidth {
                    row: 0,
                    expected,
                    actual: cols.len(),
                });
            }
            let empty = Stored::new(Table::new(expected));
            return Ok(Rel::over(Base::Built(empty), Vec::new()));
        }
        let mut segments = l.segments;
        segments.extend(r.segments);
        Ok(Rel {
            segments,
            cols,
            ids: self.ids,
            len: self.len,
        })
    }
}

fn scan<'db>(
    db: &'db Database,
    table: TableId,
    filters: &[ColFilter],
    sort_col: Option<usize>,
) -> Result<Rel<'db>, ExecError> {
    let stored = db.stored(table)?;
    let src = &stored.table;
    check_offsets(
        filters.iter().map(|f| f.offset).chain(sort_col),
        src.width(),
    )?;
    let rows = src.rows();
    let count = row_numbers(rows.len())?;
    let keep = |&id: &u32| filters.iter().all(|f| f.matches(&rows[id as usize]));
    let ids = match sort_col {
        None => (0..count).filter(keep).collect(),
        // Key order first, full row as tiebreak for determinism: the
        // database's stored order, which filtering keeps.
        Some(col) => stored.order(col).iter().copied().filter(keep).collect(),
    };
    Ok(Rel::over(Base::Stored(stored), ids))
}

/// An aggregate's output: for each group (first row of `src`,
/// accumulators) the row `group columns ++ aggregate values`, in a table
/// of its own.
fn aggregated<'db>(
    src: &Rel,
    group: &[usize],
    groups: Vec<(usize, Accumulators)>,
    aggs: &[AggSpec],
    scalar_over_nothing: bool,
) -> Result<Rel<'db>, ExecError> {
    let width = group.len() + aggs.len();
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(first, accs)| {
            let mut row = Vec::with_capacity(width);
            row.extend(group.iter().map(|&col| src.get(first, col).clone()));
            accs.finish_into(row)
        })
        .collect();
    if scalar_over_nothing {
        rows.push(Accumulators::new(aggs).finish_into(Vec::new()));
    }
    let ids = (0..row_numbers(rows.len())?).collect();
    let built = Stored::new(Table::from_rows(width, rows)?);
    Ok(Rel::over(Base::Built(built), ids))
}

/// End of the run of values equal to `values[start]`.
fn run_end(values: &[&Datum], start: usize) -> usize {
    let run = values[start..].iter().take_while(|&&v| v == values[start]);
    start + run.count()
}

fn check_offsets<I: IntoIterator<Item = usize>>(offsets: I, width: usize) -> Result<(), ExecError> {
    for offset in offsets {
        if offset >= width {
            return Err(ExecError::OffsetOutOfRange { offset, width });
        }
    }
    Ok(())
}

fn check_join_offsets(spec: &JoinSpec, lw: usize, rw: usize) -> Result<(), ExecError> {
    check_offsets(spec.eq_pairs.iter().map(|&(l, _)| l), lw)?;
    check_offsets(spec.eq_pairs.iter().map(|&(_, r)| r), rw)?;
    for &(side, offset, len) in &spec.assemble {
        let width = match side {
            Side::Left => lw,
            Side::Right => rw,
        };
        if len > 0 {
            check_offsets([offset + len - 1], width)?;
        }
    }
    Ok(())
}

/// A bank of aggregate accumulators, one per [`AggSpec`], shared by the
/// materialized and pipelined engines so both produce bit-identical
/// aggregate results.
#[derive(Debug, Clone)]
pub(crate) struct Accumulators(Vec<Acc>);

impl Accumulators {
    /// Fresh accumulators for the given aggregate list.
    pub(crate) fn new(aggs: &[AggSpec]) -> Self {
        Accumulators(aggs.iter().map(Acc::new).collect())
    }

    /// Folds one input row, read through `col`, into every accumulator.
    pub(crate) fn update<'a>(
        &mut self,
        col: impl Fn(usize) -> &'a Datum,
        aggs: &[AggSpec],
    ) -> Result<(), ExecError> {
        for (acc, spec) in self.0.iter_mut().zip(aggs) {
            acc.update(&col, spec)?;
        }
        Ok(())
    }

    /// Finalizes into an output row `key ++ aggregate values`.
    pub(crate) fn finish_into(self, mut key: Vec<Datum>) -> Row {
        key.extend(self.0.into_iter().map(Acc::finish));
        key
    }
}

/// Aggregate accumulator. Integer sums stay exact integers so results
/// are bitwise identical across join orders — a prerequisite for exact
/// differential comparison (floats would accumulate in plan-dependent
/// order).
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(SumState),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg(SumState, i64),
}

#[derive(Debug, Clone, Copy)]
enum SumState {
    Empty,
    Int(i64),
    Float(f64),
}

impl SumState {
    fn add(&mut self, v: &Datum, func: &'static str) -> Result<(), ExecError> {
        let next = match (&self, v) {
            (SumState::Empty, Datum::Int(x)) => SumState::Int(*x),
            (SumState::Empty, Datum::Float(x)) => SumState::Float(*x),
            (SumState::Int(acc), Datum::Int(x)) => SumState::Int(acc + x),
            (SumState::Int(acc), Datum::Float(x)) => SumState::Float(*acc as f64 + x),
            (SumState::Float(acc), Datum::Int(x)) => SumState::Float(acc + *x as f64),
            (SumState::Float(acc), Datum::Float(x)) => SumState::Float(acc + x),
            (_, Datum::Null) => return Ok(()), // SQL: NULLs ignored
            (_, other) => {
                return Err(ExecError::BadAggregateInput {
                    func,
                    value: other.to_string(),
                })
            }
        };
        *self = next;
        Ok(())
    }

    fn finish(self) -> Datum {
        match self {
            SumState::Empty => Datum::Null,
            SumState::Int(v) => Datum::Int(v),
            SumState::Float(v) => Datum::Float(v),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            SumState::Empty => None,
            SumState::Int(v) => Some(*v as f64),
            SumState::Float(v) => Some(*v),
        }
    }
}

impl Acc {
    fn new(spec: &AggSpec) -> Acc {
        match spec.func {
            AggFunc::CountStar => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(SumState::Empty),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(SumState::Empty, 0),
        }
    }

    fn update<'a>(
        &mut self,
        col: &impl Fn(usize) -> &'a Datum,
        spec: &AggSpec,
    ) -> Result<(), ExecError> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(state) => {
                let v = col(spec.arg.expect("SUM has an argument"));
                state.add(v, "SUM")?;
            }
            Acc::Avg(state, n) => {
                let v = col(spec.arg.expect("AVG has an argument"));
                if !matches!(v, Datum::Null) {
                    state.add(v, "AVG")?;
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                let v = col(spec.arg.expect("MIN has an argument"));
                if !matches!(v, Datum::Null) && cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let v = col(spec.arg.expect("MAX has an argument"));
                if !matches!(v, Datum::Null) && cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Datum {
        match self {
            Acc::Count(n) => Datum::Int(n),
            Acc::Sum(state) => state.finish(),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Datum::Null),
            Acc::Avg(state, n) => match (state.as_f64(), n) {
                (_, 0) | (None, _) => Datum::Null,
                (Some(sum), n) => Datum::Float(sum / n as f64),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ColFilter, Side};
    use plansample_catalog::Datum::{Float, Int, Null, Str};
    use plansample_catalog::TableId;
    use plansample_query::CmpOp;
    use proptest::prelude::*;

    fn db_one(width: usize, rows: Vec<Row>) -> Database {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(width, rows).unwrap());
        db
    }

    fn db_two(w0: usize, r0: Vec<Row>, w1: usize, r1: Vec<Row>) -> Database {
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

    fn simple_spec(lw: usize, rw: usize, pairs: Vec<(usize, usize)>) -> JoinSpec {
        JoinSpec {
            eq_pairs: pairs,
            assemble: vec![(Side::Left, 0, lw), (Side::Right, 0, rw)],
        }
    }

    /// Full-row comparison by value, as `Row`'s `Ord` would make it: what
    /// the rank parts of `Rel::row_ranks` stand for.
    fn cmp_rows(src: &Rel, a: usize, b: usize) -> Ordering {
        (0..src.width())
            .map(|col| src.get(a, col).cmp(src.get(b, col)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Sort's order by value, the reference its rank tuples are held to:
    /// key order first, full row as tiebreak.
    fn by_key_then_row<'a>(
        src: &'a Rel<'a>,
        keys: &'a Keys<'a>,
    ) -> impl Fn(&usize, &usize) -> Ordering + 'a {
        |&a, &b| {
            let by_key = keys.of(a).cmp(keys.of(b));
            by_key.then_with(|| cmp_rows(src, a, b))
        }
    }

    /// The row numbers of `src` sorted by value, with the sort call a
    /// Sort makes.
    fn sorted_by_value(src: &Rel, keys: &[usize]) -> Vec<u32> {
        let sort_keys = src.keys(keys);
        let mut order: Vec<usize> = (0..src.len).collect();
        order.sort_unstable_by(by_key_then_row(src, &sort_keys));
        order
            .iter()
            .flat_map(|&row| src.row_ids(row))
            .copied()
            .collect()
    }

    #[test]
    fn table_scan_filters() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(2), Int(20)],
                vec![Int(3), Int(30)],
            ],
        );
        let node = ExecNode::TableScan {
            table: TableId(0),
            filters: vec![ColFilter {
                offset: 1,
                op: CmpOp::Gt,
                value: Int(15),
            }],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.rows().iter().all(|r| r[1] > Int(15)));
    }

    #[test]
    fn index_scan_sorts() {
        let db = db_one(1, vec![vec![Int(3)], vec![Int(1)], vec![Int(2)]]);
        let node = ExecNode::IndexScan {
            table: TableId(0),
            sort_col: 0,
            filters: vec![],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(1)], vec![Int(2)], vec![Int(3)]]);
    }

    #[test]
    fn a_sort_of_ordered_input_keeps_the_row_numbers_a_forced_sort_would() {
        // Repeated rows, so that ties fall between different row numbers.
        let rows = [2, 1, 2, 0, 1, 2].map(|k| vec![Int(k), Float(-0.0)]);
        let db = db_two(2, rows.to_vec(), 1, vec![vec![Null], vec![Null]]);
        let by_index = || {
            Box::new(ExecNode::IndexScan {
                table: TableId(0),
                sort_col: 0,
                filters: vec![],
            })
        };
        // Each input is in whole-row order, and its columns past the
        // first hold one value each, so every key list below finds it in
        // order.
        let inputs = [
            (by_index(), vec![vec![0], vec![1], vec![0, 1]]),
            (
                Box::new(ExecNode::NestedLoopJoin {
                    left: by_index(),
                    right: scan(1),
                    spec: simple_spec(2, 1, vec![]),
                }),
                vec![vec![0], vec![2, 1], vec![0, 1, 2]],
            ),
        ];
        for (input, key_lists) in inputs {
            for keys in &key_lists {
                let src = input.run(&db).unwrap();
                let forced = sorted_by_value(&src, keys);
                let sort = ExecNode::Sort {
                    input: input.clone(),
                    keys: keys.to_vec(),
                };
                let sorted = sort.run(&db).unwrap();
                assert_eq!(sorted.ids, forced, "{sort:?}");
                assert_eq!(sorted.ids, src.ids, "already in order: {sort:?}");
            }
        }
    }

    /// Few enough values that rows repeat, of every type in one column:
    /// NaN of both signs, both zeros, an `Int` and a `Float` of one
    /// value, nulls and strings.
    fn arb_rows(width: usize) -> impl Strategy<Value = Vec<Row>> {
        let palette = [
            Null,
            Int(0),
            Int(7),
            Float(0.0),
            Float(-0.0),
            Float(f64::NAN),
            Float(-f64::NAN),
            Float(7.0),
            Str(String::new()),
            Str("a".into()),
        ];
        let datum = (0..palette.len()).prop_map(move |i| palette[i].clone());
        proptest::collection::vec(proptest::collection::vec(datum, width..=width), 0..=24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Ranks compare as values do, so the one sort call permutes row
        /// numbers as the value comparator would, tied rows included:
        /// over a scan, a join's three segments, projections that reorder,
        /// repeat or drop them, and an aggregate's built table.
        #[test]
        fn a_sort_by_ranks_keeps_the_row_numbers_the_value_comparator_would(
            left in arb_rows(2),
            right in arb_rows(1),
            third in arb_rows(2),
            keys in proptest::collection::vec(0..5usize, 1..=3),
        ) {
            let db = {
                let mut db = db_two(2, left, 1, right);
                db.insert(TableId(2), Table::from_rows(2, third).unwrap());
                db
            };
            let join = Box::new(ExecNode::NestedLoopJoin {
                left: Box::new(ExecNode::HashJoin {
                    left: scan(0),
                    right: scan(1),
                    spec: simple_spec(2, 1, vec![(1, 0)]),
                }),
                right: scan(2),
                spec: JoinSpec {
                    eq_pairs: vec![],
                    assemble: vec![(Side::Right, 1, 1), (Side::Left, 0, 3), (Side::Right, 0, 1)],
                },
            });
            let project = |cols: Vec<usize>| Box::new(ExecNode::Project { input: join.clone(), cols });
            let aggregate = Box::new(ExecNode::HashAgg {
                input: scan(0),
                group: vec![1, 0],
                aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None }],
            });
            let inputs = [
                scan(0),
                join.clone(),
                project(vec![3, 1, 2, 0, 4]),
                project(vec![2, 2, 0]),
                aggregate,
            ];
            for input in inputs {
                let src = input.run(&db).unwrap();
                let keys: Vec<usize> = keys.iter().map(|&k| k % src.width()).collect();
                let sort = ExecNode::Sort { input, keys: keys.clone() };
                prop_assert_eq!(sort.run(&db).unwrap().ids, sorted_by_value(&src, &keys), "{:?}", sort);
            }
        }
    }

    #[test]
    fn sort_is_lexicographic() {
        let db = db_one(
            2,
            vec![
                vec![Int(2), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(1), Int(1)],
            ],
        );
        let node = ExecNode::Sort {
            input: scan(0),
            keys: vec![0, 1],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(
            out.rows(),
            &[
                vec![Int(1), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(2), Int(1)]
            ]
        );
    }

    #[test]
    fn nlj_and_hash_join_agree() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]],
            2,
            vec![
                vec![Int(2), Int(20)],
                vec![Int(3), Int(30)],
                vec![Int(2), Int(21)],
            ],
        );
        let spec = simple_spec(1, 2, vec![(0, 0)]);
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec: spec.clone(),
        };
        let hj = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec,
        };
        let a = nlj.execute(&db).unwrap();
        let b = hj.execute(&db).unwrap();
        assert_eq!(a.len(), 4); // 2 left dups × 2 right dups
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn merge_join_handles_duplicate_blocks() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)], vec![Int(3)]],
            1,
            vec![vec![Int(2)], vec![Int(2)], vec![Int(4)]],
        );
        let spec = simple_spec(1, 1, vec![(0, 0)]);
        let mj = ExecNode::MergeJoin {
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
            spec: spec.clone(),
        };
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec,
        };
        let a = mj.execute(&db).unwrap();
        assert_eq!(a.len(), 4); // 2×2 block
        assert!(a.multiset_eq(&nlj.execute(&db).unwrap()));
    }

    #[test]
    fn merge_join_trusts_sortedness() {
        // Unsorted inputs: the merge join silently produces a wrong
        // (incomplete) result — by design.
        let db = db_two(
            1,
            vec![vec![Int(3)], vec![Int(1)]],
            1,
            vec![vec![Int(1)], vec![Int(3)]],
        );
        let spec = simple_spec(1, 1, vec![(0, 0)]);
        let mj = ExecNode::MergeJoin {
            left: scan(0),
            right: scan(1),
            left_key: 0,
            right_key: 0,
            spec,
        };
        let out = mj.execute(&db).unwrap();
        assert!(
            out.len() < 2,
            "bad plan must corrupt the result, got {}",
            out.len()
        );
    }

    #[test]
    fn cross_product_via_nlj() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)]],
            1,
            vec![vec![Int(10)], vec![Int(20)]],
        );
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec: simple_spec(1, 1, vec![]),
        };
        assert_eq!(nlj.execute(&db).unwrap().len(), 4);
    }

    #[test]
    fn residual_predicates_in_merge_join() {
        // Two eq predicates; merge on the first, residual on the second.
        let db = db_two(
            2,
            vec![vec![Int(1), Int(7)], vec![Int(1), Int(8)]],
            2,
            vec![vec![Int(1), Int(7)], vec![Int(1), Int(9)]],
        );
        let spec = simple_spec(2, 2, vec![(0, 0), (1, 1)]);
        let mj = ExecNode::MergeJoin {
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
            spec,
        };
        let out = mj.execute(&db).unwrap();
        assert_eq!(out.len(), 1); // only the (1,7)-(1,7) pair
    }

    #[test]
    fn hash_agg_groups_and_aggregates() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(2), Int(5)],
                vec![Int(1), Int(30)],
            ],
        );
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::Max,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    arg: Some(1),
                },
            ],
        };
        let out = agg.execute(&db).unwrap();
        let rows = out.sorted_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![Int(1), Int(40), Int(2), Int(10), Int(30), Float(20.0)]
        );
        assert_eq!(
            rows[1],
            vec![Int(2), Int(5), Int(1), Int(5), Int(5), Float(5.0)]
        );
    }

    #[test]
    fn stream_agg_matches_hash_agg_on_sorted_input() {
        let db = db_one(
            2,
            vec![
                vec![Int(2), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(1), Int(3)],
                vec![Int(2), Int(9)],
            ],
        );
        let aggs = vec![AggSpec {
            func: AggFunc::Sum,
            arg: Some(1),
        }];
        let hash = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: aggs.clone(),
        };
        let stream = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort {
                input: scan(0),
                keys: vec![0],
            }),
            group: vec![0],
            aggs,
        };
        assert!(hash
            .execute(&db)
            .unwrap()
            .multiset_eq(&stream.execute(&db).unwrap()));
    }

    #[test]
    fn stream_agg_on_unsorted_input_fragments_groups() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(1)],
                vec![Int(2), Int(1)],
                vec![Int(1), Int(1)],
            ],
        );
        let stream = ExecNode::StreamAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            }],
        };
        // group 1 appears twice (fragmented) -> 3 output rows, not 2.
        assert_eq!(stream.execute(&db).unwrap().len(), 3);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let db = db_one(1, vec![]);
        for node in [
            ExecNode::HashAgg {
                input: scan(0),
                group: vec![],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::CountStar,
                        arg: None,
                    },
                    AggSpec {
                        func: AggFunc::Sum,
                        arg: Some(0),
                    },
                ],
            },
            ExecNode::StreamAgg {
                input: scan(0),
                group: vec![],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::CountStar,
                        arg: None,
                    },
                    AggSpec {
                        func: AggFunc::Sum,
                        arg: Some(0),
                    },
                ],
            },
        ] {
            let out = node.execute(&db).unwrap();
            assert_eq!(out.rows(), &[vec![Int(0), Null]]);
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let db = db_one(1, vec![]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            }],
        };
        assert!(agg.execute(&db).unwrap().is_empty());
    }

    #[test]
    fn sum_over_strings_errors() {
        let db = db_one(1, vec![vec![Str("x".into())]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
        };
        assert!(matches!(
            agg.execute(&db),
            Err(ExecError::BadAggregateInput { func: "SUM", .. })
        ));
    }

    #[test]
    fn aggregates_skip_nulls() {
        let db = db_one(1, vec![vec![Int(5)], vec![Null], vec![Int(3)]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(0),
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(0),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    arg: Some(0),
                },
            ],
        };
        let out = agg.execute(&db).unwrap();
        assert_eq!(out.rows()[0], vec![Int(8), Int(3), Float(4.0)]);
    }

    #[test]
    fn project_selects_columns() {
        let db = db_one(3, vec![vec![Int(1), Int(2), Int(3)]]);
        let p = ExecNode::Project {
            input: scan(0),
            cols: vec![2, 0],
        };
        let out = p.execute(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(3), Int(1)]]);
    }

    #[test]
    fn offsets_validated() {
        let db = db_one(1, vec![vec![Int(1)]]);
        let p = ExecNode::Project {
            input: scan(0),
            cols: vec![5],
        };
        assert!(matches!(
            p.execute(&db),
            Err(ExecError::OffsetOutOfRange {
                offset: 5,
                width: 1
            })
        ));
    }

    #[test]
    fn mixed_int_float_sum_widens() {
        let db = db_one(1, vec![vec![Int(1)], vec![Float(0.5)]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
        };
        assert_eq!(agg.execute(&db).unwrap().rows()[0], vec![Float(1.5)]);
    }

    fn nine_group_db() -> Database {
        // Nine keys of every type, most of them twice, none in order.
        let keys = [
            Str("pear".into()),
            Int(7),
            Float(2.5),
            Null,
            Int(-3),
            Str("apple".into()),
            Int(7),
            Float(-0.0),
            Str("pear".into()),
            Float(0.0),
            Null,
            Int(40),
            Float(2.5),
            Str("apple".into()),
            Int(-3),
        ];
        let rows = keys.into_iter().zip(1..).map(|(k, v)| vec![k, Int(v)]);
        db_one(2, rows.collect())
    }

    #[test]
    fn hash_agg_row_order_is_a_function_of_plan_and_database() {
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(1),
            }],
        };
        let db = nine_group_db();
        let first = agg.execute(&db).unwrap();
        // Groups in the order their first row arrives.
        let keys: Vec<Datum> = first.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            keys,
            [
                Str("pear".into()),
                Int(7),
                Float(2.5),
                Null,
                Int(-3),
                Str("apple".into()),
                Float(-0.0),
                Float(0.0),
                Int(40)
            ]
        );
        assert_eq!(first.rows()[0][1], Int(1 + 9));
        // ... again, and over databases built afresh.
        assert_eq!(agg.execute(&db).unwrap().rows(), first.rows());
        for fresh in [db.clone(), nine_group_db()] {
            assert_eq!(agg.execute(&fresh).unwrap().rows(), first.rows());
        }
    }

    #[test]
    fn hash_join_emits_build_rows_in_input_order() {
        let db = db_two(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(2), Int(20)],
                vec![Int(1), Int(11)],
                vec![Int(1), Int(12)],
            ],
            1,
            vec![vec![Int(1)], vec![Int(3)], vec![Int(1)]],
        );
        let hj = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: simple_spec(2, 1, vec![(0, 0)]),
        };
        let tags: Vec<Datum> = hj
            .execute(&db)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[1].clone())
            .collect();
        assert_eq!(tags, [Int(10), Int(11), Int(12), Int(10), Int(11), Int(12)]);
    }

    #[test]
    fn assembly_of_the_wrong_width_is_a_bad_row_once_there_is_one() {
        let narrow = JoinSpec {
            eq_pairs: vec![(0, 0)],
            assemble: vec![(Side::Right, 0, 1)],
        };
        let join = |spec: &JoinSpec| ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: spec.clone(),
        };
        let matching = db_two(1, vec![vec![Int(1)]], 1, vec![vec![Int(1)]]);
        assert_eq!(
            join(&narrow).execute(&matching),
            Err(ExecError::RowWidth {
                row: 0,
                expected: 2,
                actual: 1
            })
        );
        let disjoint = db_two(1, vec![vec![Int(1)]], 1, vec![vec![Int(2)]]);
        let out = join(&narrow).execute(&disjoint).unwrap();
        assert_eq!((out.width(), out.len()), (2, 0));
        // The empty result is still a relation of the declared width.
        let above = ExecNode::Sort {
            input: Box::new(join(&narrow)),
            keys: vec![1],
        };
        assert_eq!(above.execute(&disjoint).unwrap().width(), 2);
    }

    #[test]
    fn row_numbers_refuse_what_u32_cannot_name() {
        assert_eq!(row_numbers(0), Ok(0));
        assert_eq!(row_numbers(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        {
            let rows = u32::MAX as usize + 1;
            assert_eq!(row_numbers(rows), Err(ExecError::TooManyRows { rows }));
        }
    }
}
