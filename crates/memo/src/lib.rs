//! The MEMO structure (paper §2): a compact, shared encoding of every
//! candidate plan the optimizer considered.
//!
//! A [`Memo`] manages a system of [`Group`]s; each group represents one
//! optimization sub-goal (here: a set of base relations, or the final
//! aggregation) and holds the *logical* expressions describing that goal
//! plus the *physical* expressions that implement it. Expression children
//! are references to groups, never to concrete expressions — that
//! indirection is what makes the structure a compact product encoding of
//! exponentially many plans, and it is exactly what the paper's counting
//! and unranking algorithms exploit.
//!
//! Group identity is the set of base relations covered (plus a marker for
//! the aggregation goal). For a single select-project-join block this is a
//! sound key: the predicates applied inside a sub-plan are a function of
//! its relation set, so two sub-plans over the same set are semantically
//! interchangeable. Duplicate expressions within a group are detected
//! structurally, mirroring the MEMO's "detect and eliminate duplicates"
//! routines.
//!
//! The memo can be populated by the optimizer (crate
//! `plansample-optimizer`) or built by hand — the latter is how the test
//! suite reproduces the worked example of the paper's Figures 2/3 and
//! appendix.
//!
//! A memo's plan graph — §3.1's "links between operators and their
//! possible children", the root group's list, and a children-before-
//! parents order — is [`Links`], made by one scan ([`Links::build`]) and
//! read by the optimizer's cost fold and by every count and rank
//! operation downstream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dense;
mod expr;
mod links;
mod plan;
mod props;
mod render;

pub use dense::{DenseId, DenseIdMap};
pub use expr::{
    ChildSlot, ListId, LogicalOp, PhysicalExpr, PhysicalOp, Requirement, SlotRecord, MAX_SLOTS,
};
pub use links::{eligible_children, Links, LinksError, LinksParts, MAX_POOL_PER_EXPR};
pub use plan::{validate_plan, PlanNode, PlanViolation};
pub use props::{satisfies, satisfies_cols, ColEquivalences, OrderSatisfier, SortOrder};
pub use render::render_memo;

use plansample_query::{ColRef, RelSet};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifies a group within a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifies a physical expression: group plus position within the
/// group's physical expression list. Displayed `group.index` (1-based on
/// the index, matching the paper's `7.7` style labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysId {
    /// Owning group.
    pub group: GroupId,
    /// Position within [`Group::physical`].
    pub index: usize,
}

impl fmt::Display for PhysId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.group.0, self.index + 1)
    }
}

/// What a group stands for: the optimization sub-goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// All plans producing the join of this relation set (a singleton set
    /// is a base-table access goal).
    Rels(RelSet),
    /// The final aggregation over the full join (at most one per memo).
    Agg,
}

impl GroupKey {
    /// The relation set this goal covers; `None` for the aggregate goal
    /// (which implicitly covers all relations).
    pub fn rels(&self) -> Option<RelSet> {
        match self {
            GroupKey::Rels(s) => Some(*s),
            GroupKey::Agg => None,
        }
    }
}

/// One optimization sub-goal and its alternative expressions.
#[derive(Debug, Clone)]
pub struct Group {
    /// This group's id.
    pub id: GroupId,
    /// The sub-goal.
    pub key: GroupKey,
    /// Logical alternatives (used during exploration; not counted).
    pub logical: Vec<LogicalOp>,
    /// Physical alternatives — the operators the paper counts and samples.
    pub physical: Vec<PhysicalExpr>,
}

impl Group {
    /// The physical expression at `index`.
    pub fn phys(&self, index: usize) -> &PhysicalExpr {
        &self.physical[index]
    }

    /// The relation set sub-plans of this group cover (the aggregate goal
    /// covers all relations of the query).
    pub fn scope(&self, query: &plansample_query::QuerySpec) -> RelSet {
        match self.key {
            GroupKey::Rels(s) => s,
            GroupKey::Agg => query.all_rels(),
        }
    }

    /// Iterates `(PhysId, expr)` pairs.
    pub fn phys_iter(&self) -> impl Iterator<Item = (PhysId, &PhysicalExpr)> {
        let gid = self.id;
        self.physical
            .iter()
            .enumerate()
            .map(move |(index, e)| (PhysId { group: gid, index }, e))
    }
}

/// The MEMO: groups, expression dedup, and a designated root group.
#[derive(Debug, Clone, Default)]
pub struct Memo {
    groups: Vec<Group>,
    by_key: HashMap<GroupKey, GroupId>,
    root: Option<GroupId>,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Returns the group for `key`, creating it on first use.
    pub fn add_group(&mut self, key: GroupKey) -> GroupId {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            id,
            key,
            logical: Vec::new(),
            physical: Vec::new(),
        });
        self.by_key.insert(key, id);
        id
    }

    /// Looks up a group by key without creating it.
    pub fn find_group(&self, key: GroupKey) -> Option<GroupId> {
        self.by_key.get(&key).copied()
    }

    /// Immutable access to a group.
    ///
    /// # Panics
    /// Panics when `id` was not issued by this memo.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    /// All groups in creation order.
    pub fn groups(&self) -> impl Iterator<Item = &Group> {
        self.groups.iter()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Marks `id` as the root group (the goal of the whole query).
    pub fn set_root(&mut self, id: GroupId) {
        assert!(
            (id.0 as usize) < self.groups.len(),
            "root group not in memo"
        );
        self.root = Some(id);
    }

    /// The root group id.
    ///
    /// # Panics
    /// Panics if no root was set.
    pub fn root(&self) -> GroupId {
        self.root.expect("memo root not set")
    }

    /// Adds a logical expression, returning `false` when an identical one
    /// already exists in the group (duplicate elimination).
    pub fn add_logical(&mut self, gid: GroupId, op: LogicalOp) -> bool {
        let group = &mut self.groups[gid.0 as usize];
        if group.logical.contains(&op) {
            return false;
        }
        group.logical.push(op);
        true
    }

    /// Appends a logical expression the caller has already made distinct
    /// from the group's, with no duplicate check: the path of a builder
    /// that offers each expression once (bottom-up exploration).
    /// [`add_logical`](Self::add_logical)'s scan of the group makes
    /// filling a group quadratic in its size; here distinctness is only
    /// `debug_assert!`ed, as in [`append_physical`](Self::append_physical).
    pub fn append_logical(&mut self, gid: GroupId, op: LogicalOp) {
        let group = &mut self.groups[gid.0 as usize];
        debug_assert!(
            !group.logical.contains(&op),
            "appended logical expression already in group {}",
            gid.0
        );
        group.logical.push(op);
    }

    /// Adds a physical expression, returning its id, or `None` when a
    /// structurally identical operator already exists in the group.
    pub fn add_physical(&mut self, gid: GroupId, expr: PhysicalExpr) -> Option<PhysId> {
        let group = &mut self.groups[gid.0 as usize];
        if group.physical.iter().any(|e| e.op == expr.op) {
            return None;
        }
        let index = group.physical.len();
        group.physical.push(expr);
        Some(PhysId { group: gid, index })
    }

    /// Appends physical expressions the caller has already made
    /// distinct — from each other and from the group's — with no
    /// duplicate check: the bulk path of a builder whose rules generate
    /// a group's alternatives distinct by construction (the optimizer's
    /// implementation pass). [`add_physical`](Self::add_physical)'s
    /// whole-group comparison is quadratic in group size (clique-10's
    /// root group is 25 084 wide); here distinctness is only
    /// `debug_assert!`ed, and [`from_parts`](Self::from_parts) re-checks
    /// it on every stored memo.
    pub fn append_physical(&mut self, gid: GroupId, exprs: Vec<PhysicalExpr>) {
        let group = &mut self.groups[gid.0 as usize];
        if group.physical.is_empty() {
            group.physical = exprs;
        } else {
            group.physical.extend(exprs);
        }
        debug_assert!(
            {
                let mut seen = HashSet::new();
                group.physical.iter().all(|e| seen.insert(&e.op))
            },
            "appended physical expressions must be distinct in group {}",
            gid.0
        );
    }

    /// The physical expression behind `id`.
    pub fn phys(&self, id: PhysId) -> &PhysicalExpr {
        &self.groups[id.group.0 as usize].physical[id.index]
    }

    /// Total number of logical expressions across groups.
    pub fn num_logical(&self) -> usize {
        self.groups.iter().map(|g| g.logical.len()).sum()
    }

    /// Total number of physical expressions across groups — the paper's
    /// "size of the MEMO" for the linear-time counting bound.
    pub fn num_physical(&self) -> usize {
        self.groups.iter().map(|g| g.physical.len()).sum()
    }

    /// Reassembles a memo from serialized group tables in one pass — the
    /// artifact loader's bulk path, equivalent to replaying `add_group` /
    /// `add_logical` / `add_physical` / `set_root` in creation order but
    /// without the per-insert duplicate scans (which are quadratic in
    /// group size and would dominate a 700k-expression reload).
    ///
    /// The incremental builders' invariants are still *checked*: group
    /// keys must be distinct, expressions structurally deduplicated
    /// within their group, every child group reference in range, and
    /// `root` one of the groups. A violation returns a description of
    /// the first broken invariant instead of producing a memo other
    /// code would misindex.
    ///
    /// So is the shape every optimizer's memo has (paper §2: a group is
    /// a relation set, and a join reads two disjoint halves of it):
    ///
    /// - a scan sits in the one-relation group of its own relation;
    /// - a join sits in a relation group, and its inputs are relation
    ///   groups with non-empty, disjoint sets whose union is its own;
    /// - an aggregate sits in the aggregate group and reads a relation
    ///   group;
    /// - a Sort may sit in any group (its input is its own group's
    ///   non-enforcers).
    ///
    /// A join's inputs are then strictly smaller than its group, so a
    /// memo that passes has an acyclic plan graph, and a plan over
    /// `r ≤ 64` relations has at most `4r` operators — `r` scans,
    /// `r − 1` joins, an aggregate and a Sort above any of those — and
    /// at most 130 levels: a scan and its Sort, a join and its Sort per
    /// further relation, an aggregate and its Sort. This is the one
    /// check a stored memo gets:
    /// everything downstream (the scan's level fold, §3.2's count fold,
    /// the tree API's recursion) relies on it.
    ///
    /// The parts are stored bytes, which come from outside the program,
    /// so the duplicate check hashes nothing: each group's operators are
    /// sorted by a packed key and neighbours compared
    /// (`repeats_an_operator`). On a group of `n` operators that is
    /// O(n log n) comparisons whatever the input, each O(1) but for sort
    /// orders, which compare their columns — so at most O(B log n) work
    /// for a group that takes `B` bytes to store. A group of 2¹⁶ merge
    /// joins over one pair of inputs costs no more than any other group
    /// of that size, nor does one whose keys all tie.
    pub fn from_parts(
        parts: Vec<(GroupKey, Vec<LogicalOp>, Vec<PhysicalExpr>)>,
        root: u32,
    ) -> Result<Memo, String> {
        if (root as usize) >= parts.len() {
            return Err(format!(
                "root group {root} out of range ({} groups)",
                parts.len()
            ));
        }
        let key_of = |g: GroupId| parts.get(g.0 as usize).map(|(key, _, _)| *key);
        let in_range = |g: &GroupId| key_of(*g).is_some();
        let mut by_key = HashMap::with_capacity(parts.len());
        let (mut keys, mut order) = (Vec::new(), Vec::new());
        for (i, (key, logical, physical)) in parts.iter().enumerate() {
            if by_key.insert(*key, GroupId(i as u32)).is_some() {
                return Err(format!("duplicate group key {key:?}"));
            }
            if repeats_an_operator(physical, &mut keys, &mut order) {
                return Err(format!("duplicate physical operator in group {i}"));
            }
            for expr in physical {
                if let Some(fault) = misfit(&expr.op, *key, key_of) {
                    return Err(format!("group {i} holds {fault}"));
                }
            }
            for op in logical {
                let children_ok = match op {
                    LogicalOp::Scan { .. } => true,
                    LogicalOp::Join { left, right } => in_range(left) && in_range(right),
                    LogicalOp::Agg { input } => in_range(input),
                };
                if !children_ok {
                    return Err(format!(
                        "group {i} logical op references a group out of range"
                    ));
                }
            }
        }
        let groups = parts
            .into_iter()
            .enumerate()
            .map(|(i, (key, logical, physical))| Group {
                id: GroupId(i as u32),
                key,
                logical,
                physical,
            })
            .collect();
        Ok(Memo {
            groups,
            by_key,
            root: Some(GroupId(root)),
        })
    }

    /// Releases the spare capacity `add_group`/`add_physical`'s amortized
    /// growth left behind in every per-group vector.
    ///
    /// A memo is built once (exploration + implementation) and then read
    /// forever by the plan-space machinery, which also keeps it resident
    /// for as long as a [`PreparedQuery`] lives — so the optimizer calls
    /// this when optimization finishes. On large memos the doubling
    /// slack is ~40% of the expression storage (docs/EXPERIMENTS.md
    /// §E10), all of it charged to cache byte budgets via
    /// [`size_bytes`](Self::size_bytes).
    ///
    /// [`PreparedQuery`]: https://docs.rs/plansample
    pub fn shrink_to_fit(&mut self) {
        self.groups.shrink_to_fit();
        for group in &mut self.groups {
            group.logical.shrink_to_fit();
            group.physical.shrink_to_fit();
        }
    }

    /// Frees every group's logical list. Exploration and implementation
    /// read it; the plan space — links, counts, samples, artifacts —
    /// reads only the physical expressions, so a memo built to be
    /// sampled need not keep it resident.
    pub fn drop_logical(&mut self) {
        for group in &mut self.groups {
            group.logical = Vec::new();
        }
    }

    /// Bytes of memory held by this memo: the struct itself plus the
    /// heap behind every group, expression, and the group-key index.
    ///
    /// Vector buffers are accounted at capacity (what the allocator
    /// actually holds); the `by_key` hash table is accounted per bucket
    /// at the standard hashbrown load factor (8/7 of the entry count),
    /// the closest observable bound to its real allocation.
    pub fn size_bytes(&self) -> usize {
        let groups_heap: usize = self
            .groups
            .iter()
            .map(|g| {
                g.logical.capacity() * std::mem::size_of::<LogicalOp>()
                    + g.physical.capacity() * std::mem::size_of::<PhysicalExpr>()
                    + g.physical
                        .iter()
                        .map(PhysicalExpr::heap_bytes)
                        .sum::<usize>()
            })
            .sum();
        let by_key = self.by_key.len() * (std::mem::size_of::<(GroupKey, GroupId)>() + 1) * 8 / 7;
        std::mem::size_of::<Self>()
            + self.groups.capacity() * std::mem::size_of::<Group>()
            + groups_heap
            + by_key
    }
}

/// What is wrong with `op` sitting in a group keyed `key` (see
/// [`Memo::from_parts`]); `None` if it fits. `key_of` reads a child
/// group's key, `None` past the last group.
fn misfit(
    op: &PhysicalOp,
    key: GroupKey,
    key_of: impl Fn(GroupId) -> Option<GroupKey>,
) -> Option<&'static str> {
    const OUT_OF_RANGE: &str = "an operator reading a group out of range";
    match *op {
        PhysicalOp::TableScan { rel } | PhysicalOp::SortedIdxScan { rel, .. } => {
            let fits = matches!(key, GroupKey::Rels(set) if set.len() == 1 && set.contains(rel));
            (!fits).then_some("a scan outside its relation's one-relation group")
        }
        PhysicalOp::Sort { .. } => None,
        PhysicalOp::NestedLoopJoin { left, right }
        | PhysicalOp::HashJoin { left, right }
        | PhysicalOp::MergeJoin { left, right, .. } => {
            let (Some(left), Some(right)) = (key_of(left), key_of(right)) else {
                return Some(OUT_OF_RANGE);
            };
            let fits = match (key, left, right) {
                (GroupKey::Rels(set), GroupKey::Rels(l), GroupKey::Rels(r)) => {
                    !l.is_empty() && !r.is_empty() && l.is_disjoint(r) && l.union(r) == set
                }
                _ => false,
            };
            (!fits).then_some("a join whose inputs do not split its relation set in two")
        }
        PhysicalOp::HashAgg { input } | PhysicalOp::StreamAgg { input, .. } => {
            let Some(input) = key_of(input) else {
                return Some(OUT_OF_RANGE);
            };
            let fits = key == GroupKey::Agg && matches!(input, GroupKey::Rels(_));
            (!fits).then_some("an aggregate outside the aggregate group or not over relations")
        }
    }
}

/// Whether two of `exprs` carry the same operator. Equal operators have
/// equal packed keys, so distinct keys — which the optimizer's memos
/// give every operator of a group — settle it with one integer sort.
/// Only when keys tie are the operators behind each tie compared: the
/// `(key, index)` pairs are sorted, and a run of more than two by the
/// operators' own order. `keys` and `order` are scratch space, reused
/// across groups.
fn repeats_an_operator(
    exprs: &[PhysicalExpr],
    keys: &mut Vec<u64>,
    order: &mut Vec<(u64, u32)>,
) -> bool {
    keys.clear();
    keys.extend(exprs.iter().map(|e| packed_key(&e.op)));
    keys.sort_unstable();
    if !keys.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    let op = |i: u32| &exprs[i as usize].op;
    order.clear();
    order.extend(
        exprs
            .iter()
            .enumerate()
            .map(|(i, e)| (packed_key(&e.op), i as u32)),
    );
    order.sort_unstable();
    order.chunk_by_mut(|a, b| a.0 == b.0).any(|run| match run {
        [_] => false,
        [a, b] => op(a.1) == op(b.1),
        _ => {
            run.sort_unstable_by(|a, b| op(a.1).cmp(op(b.1)));
            run.windows(2).any(|w| op(w[0].1) == op(w[1].1))
        }
    })
}

/// The operator's variant and leading fields packed into one word, each
/// field cut to its width — a lossy packing, not a hash: equal operators
/// get equal keys, and so do distinct ones only past the widths (group
/// ids from 2¹⁵, relations from 2⁷, columns from 2⁸, a sort's third
/// column), which the optimizer's memos do not reach.
fn packed_key(op: &PhysicalOp) -> u64 {
    let col = |c: &ColRef| u64::from(c.rel.0 & 0x7f) << 8 | u64::from(c.col & 0xff);
    let cols = |order: &SortOrder| match order.cols() {
        [] => 0,
        [a] => col(a) << 15,
        [a, b, ..] => col(a) << 15 | col(b),
    };
    let (tag, a, b, c) = match op {
        PhysicalOp::TableScan { rel } => (0, rel.0, 0, 0),
        PhysicalOp::SortedIdxScan { rel, col: key } => (1, rel.0, 0, col(key)),
        PhysicalOp::Sort { target } => (2, target.cols().len() as u32, 0, cols(target)),
        PhysicalOp::NestedLoopJoin { left, right } => (3, left.0, right.0, 0),
        PhysicalOp::HashJoin { left, right } => (4, left.0, right.0, 0),
        PhysicalOp::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => (5, left.0, right.0, col(left_key) << 15 | col(right_key)),
        PhysicalOp::HashAgg { input } => (6, input.0, 0, 0),
        PhysicalOp::StreamAgg { input, group_order } => (7, input.0, 0, cols(group_order)),
    };
    const FIELD: u64 = (1 << 15) - 1;
    (tag as u64) << 60 | (u64::from(a) & FIELD) << 45 | (u64::from(b) & FIELD) << 30 | c
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_query::{ColRef, RelId};

    fn rs(ids: &[u32]) -> RelSet {
        RelSet::from_iter(ids.iter().map(|&i| RelId(i)))
    }

    fn col(rel: u32, col: u32) -> ColRef {
        ColRef {
            rel: RelId(rel),
            col,
        }
    }

    #[test]
    fn groups_are_keyed_and_deduplicated() {
        let mut memo = Memo::new();
        let a = memo.add_group(GroupKey::Rels(rs(&[0])));
        let b = memo.add_group(GroupKey::Rels(rs(&[1])));
        let a2 = memo.add_group(GroupKey::Rels(rs(&[0])));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(memo.num_groups(), 2);
        assert_eq!(memo.find_group(GroupKey::Rels(rs(&[0]))), Some(a));
        assert_eq!(memo.find_group(GroupKey::Agg), None);
    }

    #[test]
    fn logical_dedup() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(rs(&[0])));
        assert!(memo.add_logical(g, LogicalOp::Scan { rel: RelId(0) }));
        assert!(!memo.add_logical(g, LogicalOp::Scan { rel: RelId(0) }));
        assert_eq!(memo.num_logical(), 1);
    }

    #[test]
    fn appended_logical_expressions_keep_their_order() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(rs(&[0])));
        let ops = [RelId(0), RelId(1)].map(|rel| LogicalOp::Scan { rel });
        for op in &ops {
            memo.append_logical(g, op.clone());
        }
        assert_eq!(memo.group(g).logical, ops);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "appended logical expression already in group 0")]
    fn appending_a_duplicate_logical_expression_is_caught_in_debug() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(rs(&[0])));
        memo.append_logical(g, LogicalOp::Scan { rel: RelId(0) });
        memo.append_logical(g, LogicalOp::Scan { rel: RelId(0) });
    }

    #[test]
    fn physical_dedup_is_structural() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(rs(&[0])));
        let scan = PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 100.0);
        let id = memo.add_physical(g, scan.clone()).unwrap();
        assert_eq!(id, PhysId { group: g, index: 0 });
        // same op, different cost: still a duplicate (structure decides)
        let dup = PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 99.0, 100.0);
        assert!(memo.add_physical(g, dup).is_none());
        let other = PhysicalExpr::new(
            PhysicalOp::SortedIdxScan {
                rel: RelId(0),
                col: col(0, 0),
            },
            2.0,
            100.0,
        );
        assert!(memo.add_physical(g, other).is_some());
        assert_eq!(memo.num_physical(), 2);
    }

    #[test]
    fn phys_id_display_is_one_based() {
        let id = PhysId {
            group: GroupId(7),
            index: 6,
        };
        assert_eq!(id.to_string(), "7.7");
    }

    #[test]
    fn root_handling() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Agg);
        memo.set_root(g);
        assert_eq!(memo.root(), g);
    }

    #[test]
    #[should_panic(expected = "root not set")]
    fn missing_root_panics() {
        Memo::new().root();
    }

    #[test]
    #[should_panic(expected = "root group not in memo")]
    fn foreign_root_rejected() {
        let mut memo = Memo::new();
        memo.set_root(GroupId(3));
    }

    #[test]
    fn from_parts_replays_incremental_building() {
        let mut memo = Memo::new();
        let g0 = memo.add_group(GroupKey::Rels(rs(&[0])));
        memo.add_physical(
            g0,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 10.0),
        )
        .unwrap();
        let g1 = memo.add_group(GroupKey::Rels(rs(&[1])));
        memo.add_physical(
            g1,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(1) }, 2.0, 20.0),
        )
        .unwrap();
        let g2 = memo.add_group(GroupKey::Rels(rs(&[0, 1])));
        memo.add_logical(
            g2,
            LogicalOp::Join {
                left: g0,
                right: g1,
            },
        );
        memo.add_physical(
            g2,
            PhysicalExpr::new(
                PhysicalOp::HashJoin {
                    left: g0,
                    right: g1,
                },
                3.0,
                5.0,
            ),
        )
        .unwrap();
        memo.set_root(g2);

        let parts: Vec<_> = memo
            .groups()
            .map(|g| (g.key, g.logical.clone(), g.physical.clone()))
            .collect();
        let rebuilt = Memo::from_parts(parts, memo.root().0).unwrap();
        assert_eq!(rebuilt.num_groups(), memo.num_groups());
        assert_eq!(rebuilt.num_physical(), memo.num_physical());
        assert_eq!(rebuilt.num_logical(), memo.num_logical());
        assert_eq!(rebuilt.root(), memo.root());
        assert_eq!(rebuilt.find_group(GroupKey::Rels(rs(&[0, 1]))), Some(g2));
        assert_eq!(
            format!("{:?}", rebuilt.group(g2)),
            format!("{:?}", memo.group(g2))
        );
    }

    /// `ops` (each with made-up costs), each in the group it fits —
    /// scans in `{2}`, aggregates in the aggregate group, joins and Sorts
    /// in `{0, 1}` — beside the scan groups `{0}` and `{1}` the joins
    /// read, through `from_parts`. Operators of one variant share a
    /// group, so a repeat lands beside what it repeats.
    fn one_group(ops: Vec<PhysicalOp>) -> Result<Memo, String> {
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let scan = |rel| expr(PhysicalOp::TableScan { rel: RelId(rel) });
        let mut parts = vec![
            (GroupKey::Rels(rs(&[0])), vec![], vec![scan(0)]),
            (GroupKey::Rels(rs(&[1])), vec![], vec![scan(1)]),
            (GroupKey::Rels(rs(&[0, 1])), vec![], vec![]),
            (GroupKey::Rels(rs(&[2])), vec![], vec![]),
            (GroupKey::Agg, vec![], vec![]),
        ];
        for op in ops {
            let group = match op {
                PhysicalOp::TableScan { .. } | PhysicalOp::SortedIdxScan { .. } => 3,
                PhysicalOp::HashAgg { .. } | PhysicalOp::StreamAgg { .. } => 4,
                _ => 2,
            };
            parts[group].2.push(expr(op));
        }
        Memo::from_parts(parts, 2)
    }

    /// Every variant, twice over among distinct operators of every
    /// variant, is a duplicate `from_parts` refuses — a multi-column sort
    /// and a merge join equal on inputs and both keys among them — and
    /// merge joins apart only in their keys are not duplicates.
    #[test]
    fn from_parts_rejects_a_repeat_of_every_operator_variant() {
        let (g0, g1) = (GroupId(0), GroupId(1));
        let merge = |left_key, right_key| PhysicalOp::MergeJoin {
            left: g0,
            right: g1,
            left_key,
            right_key,
        };
        let order =
            |cols: &[(u32, u32)]| SortOrder::on(cols.iter().map(|&(r, c)| col(r, c)).collect());
        let distinct = vec![
            PhysicalOp::TableScan { rel: RelId(2) },
            PhysicalOp::SortedIdxScan {
                rel: RelId(2),
                col: col(2, 1),
            },
            PhysicalOp::Sort {
                target: order(&[(0, 1), (1, 2), (0, 3)]),
            },
            PhysicalOp::Sort {
                target: order(&[(0, 1), (1, 2)]),
            },
            PhysicalOp::NestedLoopJoin {
                left: g0,
                right: g1,
            },
            PhysicalOp::HashJoin {
                left: g0,
                right: g1,
            },
            merge(col(0, 1), col(1, 1)),
            merge(col(0, 1), col(1, 2)),
            merge(col(0, 2), col(1, 1)),
            PhysicalOp::HashAgg { input: GroupId(2) },
            PhysicalOp::StreamAgg {
                input: GroupId(2),
                group_order: order(&[(0, 1), (0, 2)]),
            },
        ];
        one_group(distinct.clone()).expect("distinct operators, keys apart included");
        for (i, op) in distinct.iter().enumerate() {
            let mut repeated = distinct.clone();
            repeated.push(op.clone());
            repeated.rotate_right(i % 3);
            match one_group(repeated) {
                Err(reason) => assert!(reason.contains("duplicate physical operator"), "{reason}"),
                Ok(_) => panic!("a second {op:?} was accepted"),
            }
        }
    }

    /// 2¹⁶ merge joins over one pair of inputs, apart only in their keys:
    /// the packed key ties on every one of them, and the sort still
    /// settles the group in O(n log n) comparisons — a pairwise check
    /// would make 2³¹.
    #[test]
    fn a_group_of_two_to_the_sixteen_merge_joins_decodes() {
        let joins: Vec<PhysicalOp> = (0..1u32 << 16)
            .map(|i| PhysicalOp::MergeJoin {
                left: GroupId(0),
                right: GroupId(1),
                left_key: col(0, i >> 8),
                right_key: col(1, i & 0xff),
            })
            .collect();
        let mut repeated = joins.clone();
        let memo = one_group(joins).expect("distinct merge joins");
        assert_eq!(memo.num_physical(), 2 + (1 << 16));
        repeated.push(repeated[12_345].clone());
        assert!(one_group(repeated).is_err());
    }

    /// Operators past the packed key's widths share keys: columns
    /// `k · 2⁸` all pack as column 0, and sorts apart only in a third
    /// column pack alike. They are told apart by the operators
    /// themselves — distinct ones accepted, a repeat among them refused.
    #[test]
    fn operators_whose_keys_tie_are_compared_in_full() {
        let mut scans: Vec<PhysicalOp> = (0..1u32 << 12)
            .map(|k| PhysicalOp::SortedIdxScan {
                rel: RelId(2),
                col: col(2, k << 8),
            })
            .collect();
        let sort = |third| PhysicalOp::Sort {
            target: SortOrder::on(vec![col(0, 1), col(1, 2), col(0, third)]),
        };
        scans.extend([sort(3), sort(4), sort(5)]);
        one_group(scans.clone()).expect("distinct operators whose keys tie");
        for repeat in [7, scans.len() - 2] {
            let mut repeated = scans.clone();
            repeated.push(scans[repeat].clone());
            assert!(one_group(repeated).is_err(), "a second {:?}", scans[repeat]);
        }
    }

    /// `drop_logical` frees the logical lists — exactly their bytes —
    /// and leaves everything the plan space reads as it was.
    #[test]
    fn drop_logical_frees_only_the_logical_lists() {
        use plansample_catalog::{table, Catalog, ColType};
        use plansample_query::QueryBuilder;
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let t = table(name, 100).col("k", ColType::Int, 100).index_on(0);
            cat.add_table(t.build()).unwrap();
        }
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        let query = qb.build().unwrap();

        let mut memo = Memo::new();
        let scans: Vec<GroupId> = (0..2)
            .map(|r| {
                let g = memo.add_group(GroupKey::Rels(rs(&[r])));
                let rel = RelId(r);
                memo.add_logical(g, LogicalOp::Scan { rel });
                let idx = PhysicalOp::SortedIdxScan {
                    rel,
                    col: col(r, 0),
                };
                memo.add_physical(
                    g,
                    PhysicalExpr::new(PhysicalOp::TableScan { rel }, 1.0, 9.0),
                );
                memo.add_physical(g, PhysicalExpr::new(idx, 2.0, 9.0));
                g
            })
            .collect();
        let join = memo.add_group(GroupKey::Rels(rs(&[0, 1])));
        for (left, right) in [(scans[0], scans[1]), (scans[1], scans[0])] {
            memo.add_logical(join, LogicalOp::Join { left, right });
            let merge = PhysicalOp::MergeJoin {
                left,
                right,
                left_key: col(left.0, 0),
                right_key: col(right.0, 0),
            };
            memo.add_physical(join, PhysicalExpr::new(merge, 3.0, 9.0));
            let hash = PhysicalOp::HashJoin { left, right };
            memo.add_physical(join, PhysicalExpr::new(hash, 4.0, 9.0));
        }
        memo.set_root(join);

        let tables = |m: &Memo| format!("{:?}", Links::build(m, &query).unwrap());
        let (before, bytes) = (tables(&memo), memo.size_bytes());
        let freed = memo.groups().map(|g| g.logical.capacity()).sum::<usize>()
            * std::mem::size_of::<LogicalOp>();
        assert!(freed > 0);
        memo.drop_logical();
        assert_eq!(memo.num_logical(), 0);
        assert_eq!(memo.num_physical(), 8);
        assert_eq!(memo.size_bytes(), bytes - freed);
        assert_eq!(tables(&memo), before);
    }

    #[test]
    fn from_parts_rejects_broken_invariants() {
        let scan = |r: u32| PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(r) }, 1.0, 1.0);
        // Root out of range.
        let err = Memo::from_parts(vec![(GroupKey::Rels(rs(&[0])), vec![], vec![scan(0)])], 5)
            .unwrap_err();
        assert!(err.contains("root"), "{err}");
        // Duplicate group keys.
        let err = Memo::from_parts(
            vec![
                (GroupKey::Rels(rs(&[0])), vec![], vec![scan(0)]),
                (GroupKey::Rels(rs(&[0])), vec![], vec![scan(0)]),
            ],
            0,
        )
        .unwrap_err();
        assert!(err.contains("duplicate group key"), "{err}");
        // Duplicate operator inside one group.
        let err = Memo::from_parts(
            vec![(GroupKey::Rels(rs(&[0])), vec![], vec![scan(0), scan(0)])],
            0,
        )
        .unwrap_err();
        assert!(err.contains("duplicate physical"), "{err}");
        // Child group reference past the table.
        let join = PhysicalExpr::new(
            PhysicalOp::HashJoin {
                left: GroupId(0),
                right: GroupId(9),
            },
            1.0,
            1.0,
        );
        let err =
            Memo::from_parts(vec![(GroupKey::Rels(rs(&[0])), vec![], vec![join])], 0).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// A memo of every shape the refusal tests below need, each group
    /// holding what fits it — `{0}`, `{1}`, `{2}` (a scan each), `{0, 1}`
    /// (a join of `{0}` and `{1}`), `{1, 2}`, `{0, 1, 2}`, the empty set
    /// and the aggregate group — plus `op` in group `group`.
    fn with(group: usize, op: PhysicalOp) -> Result<Memo, String> {
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let scan = |rel| vec![expr(PhysicalOp::TableScan { rel: RelId(rel) })];
        let join = |left, right| {
            vec![expr(PhysicalOp::HashJoin {
                left: GroupId(left),
                right: GroupId(right),
            })]
        };
        let mut parts = vec![
            (GroupKey::Rels(rs(&[0])), vec![], scan(0)),
            (GroupKey::Rels(rs(&[1])), vec![], scan(1)),
            (GroupKey::Rels(rs(&[2])), vec![], scan(2)),
            (GroupKey::Rels(rs(&[0, 1])), vec![], join(0, 1)),
            (GroupKey::Rels(rs(&[1, 2])), vec![], join(1, 2)),
            (GroupKey::Rels(rs(&[0, 1, 2])), vec![], join(3, 2)),
            (GroupKey::Rels(RelSet::EMPTY), vec![], vec![]),
            (GroupKey::Agg, vec![], vec![]),
        ];
        Memo::from_parts(parts.clone(), 5).expect("every operator fits its group");
        parts[group].2.push(expr(op));
        Memo::from_parts(parts, 5)
    }

    /// `with`'s refusal, which must name `group` and `fault`.
    fn refused(group: usize, op: PhysicalOp, fault: &str) {
        match with(group, op.clone()) {
            Err(reason) => {
                assert!(reason.contains(&format!("group {group} holds")), "{reason}");
                assert!(reason.contains(fault), "{reason}");
            }
            Ok(_) => panic!("{op:?} in group {group} was accepted"),
        }
    }

    const SPLIT: &str = "a join whose inputs do not split its relation set in two";

    fn hash_join(left: u32, right: u32) -> PhysicalOp {
        PhysicalOp::HashJoin {
            left: GroupId(left),
            right: GroupId(right),
        }
    }

    /// A chain in which each join reads the group below in both slots:
    /// no optimizer makes one, and over 40 joins its one plan would be
    /// 2⁴⁰ operators and its count 2^(2⁴⁰). Refused at its first join,
    /// as is a join reading its own group twice.
    #[test]
    fn from_parts_refuses_a_join_that_reads_one_group_twice() {
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut parts = vec![(
            GroupKey::Rels(rs(&[0])),
            vec![],
            vec![expr(PhysicalOp::TableScan { rel: RelId(0) })],
        )];
        for below in 0..40 {
            let join = expr(hash_join(below, below));
            let key = GroupKey::Rels(RelSet::all(below as usize + 2));
            parts.push((key, vec![], vec![join]));
        }
        let reason = Memo::from_parts(parts, 40).unwrap_err();
        assert_eq!(reason, format!("group 1 holds {SPLIT}"));
        refused(3, hash_join(0, 0), SPLIT);
        refused(3, hash_join(3, 3), SPLIT);
    }

    /// A join's inputs must not overlap, and must cover its group.
    #[test]
    fn from_parts_refuses_join_inputs_that_overlap_or_fall_short() {
        refused(5, hash_join(3, 4), SPLIT); // {0, 1} and {1, 2}
        refused(5, hash_join(0, 1), SPLIT); // {0} and {1} in {0, 1, 2}
        refused(3, hash_join(0, 2), SPLIT); // {0} and {2} in {0, 1}
    }

    /// An input over no relation splits nothing: `{0}` is `∅ ∪ {0}`, but
    /// a join of the empty group and `{0}` is still refused, on either
    /// side.
    #[test]
    fn from_parts_refuses_a_join_input_over_no_relation() {
        refused(0, hash_join(6, 0), SPLIT);
        refused(0, hash_join(0, 6), SPLIT);
    }

    /// A scan sits in its own relation's one-relation group and nowhere
    /// else: not another relation's, not a join group, not the empty or
    /// the aggregate group.
    #[test]
    fn from_parts_refuses_a_scan_outside_its_own_group() {
        let fault = "a scan outside its relation's one-relation group";
        refused(0, PhysicalOp::TableScan { rel: RelId(1) }, fault);
        refused(3, PhysicalOp::TableScan { rel: RelId(0) }, fault);
        refused(6, PhysicalOp::TableScan { rel: RelId(0) }, fault);
        let idx = PhysicalOp::SortedIdxScan {
            rel: RelId(0),
            col: col(0, 0),
        };
        refused(7, idx, fault);
    }

    /// A relation set holds relations 0–63: a scan of relation 64 or
    /// past it fits no group, and is refused — not a panic in building
    /// the set it would need.
    #[test]
    fn from_parts_refuses_a_scan_past_a_rel_sets_width() {
        let fault = "a scan outside its relation's one-relation group";
        for rel in [64, 65, 1 << 15, u32::MAX] {
            refused(0, PhysicalOp::TableScan { rel: RelId(rel) }, fault);
            let idx = PhysicalOp::SortedIdxScan {
                rel: RelId(rel),
                col: col(rel, 0),
            };
            refused(0, idx, fault);
        }
    }

    /// An aggregate sits in the aggregate group, over a relation group:
    /// not in a relation group, and not over its own group.
    #[test]
    fn from_parts_refuses_an_aggregate_outside_its_group_or_over_it() {
        let fault = "an aggregate outside the aggregate group or not over relations";
        refused(5, PhysicalOp::HashAgg { input: GroupId(3) }, fault);
        refused(7, PhysicalOp::HashAgg { input: GroupId(7) }, fault);
        let stream = |input| PhysicalOp::StreamAgg {
            input: GroupId(input),
            group_order: SortOrder::on_col(col(0, 0)),
        };
        refused(7, stream(7), fault);
        refused(3, stream(0), fault);
        with(7, stream(5)).expect("an aggregate over the join fits");
    }

    /// A join belongs to a relation group: the aggregate group has no
    /// relation set for its inputs to split.
    #[test]
    fn from_parts_refuses_a_join_in_the_aggregate_group() {
        refused(7, hash_join(0, 1), SPLIT);
        refused(7, hash_join(3, 2), SPLIT);
    }

    #[test]
    fn group_iteration() {
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(rs(&[0])));
        let scan = PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 10.0);
        memo.add_physical(g, scan).unwrap();
        let group = memo.group(g);
        let items: Vec<_> = group.phys_iter().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, PhysId { group: g, index: 0 });
        assert_eq!(memo.groups().count(), 1);
    }
}
