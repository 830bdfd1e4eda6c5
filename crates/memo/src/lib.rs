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
pub use links::{eligible_children, MemoScan};
pub use plan::{validate_plan, PlanNode, PlanViolation};
pub use props::{satisfies, satisfies_cols, ColEquivalences, OrderSatisfier, SortOrder};
pub use render::render_memo;

use plansample_query::RelSet;
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
    /// The incremental builders' invariants are still *checked*, in
    /// O(total expressions): group keys must be distinct, expressions
    /// structurally deduplicated within their group, every child group
    /// reference in range, and `root` one of the groups. A violation
    /// returns a description of the first broken invariant instead of
    /// producing a memo other code would misindex. The duplicate check
    /// hashes through std's keyed hasher: the parts are stored bytes,
    /// which come from outside the program.
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
        let num_groups = parts.len();
        let in_range = |g: &GroupId| (g.0 as usize) < num_groups;
        let mut by_key = HashMap::with_capacity(num_groups);
        for (i, (key, logical, physical)) in parts.iter().enumerate() {
            if by_key.insert(*key, GroupId(i as u32)).is_some() {
                return Err(format!("duplicate group key {key:?}"));
            }
            let mut seen = HashSet::with_capacity(physical.len());
            for expr in physical {
                if !seen.insert(&expr.op) {
                    return Err(format!("duplicate physical operator in group {i}"));
                }
                let children_ok = match &expr.op {
                    PhysicalOp::TableScan { .. }
                    | PhysicalOp::SortedIdxScan { .. }
                    | PhysicalOp::Sort { .. } => true,
                    PhysicalOp::NestedLoopJoin { left, right }
                    | PhysicalOp::HashJoin { left, right }
                    | PhysicalOp::MergeJoin { left, right, .. } => {
                        in_range(left) && in_range(right)
                    }
                    PhysicalOp::HashAgg { input } | PhysicalOp::StreamAgg { input, .. } => {
                        in_range(input)
                    }
                };
                if !children_ok {
                    return Err(format!("group {i} references a group out of range"));
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

        let tables = |m: &Memo| format!("{:?}", MemoScan::build(m, &query).unwrap());
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
