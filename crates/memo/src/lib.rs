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

use plansample_catalog::Mix;
use plansample_query::RelSet;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

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

    /// Adds a batch of physical expressions to one group, exactly as
    /// repeated [`add_physical`](Self::add_physical) calls would: in
    /// order, dropping any whose operator the group — or an earlier
    /// expression of the batch — already holds.
    ///
    /// `add_physical` compares against the whole group, which is
    /// quadratic for a builder that fills a group at a time (clique-10's
    /// root group is 25 084 wide). Past `BULK_HASH_MIN`
    /// expressions the batch is checked against one transient hash set
    /// instead; nothing stays resident. The operators come from the
    /// optimizer and the generators, not from outside the program, so
    /// the set hashes through the fixed [`Mix`]
    /// ([`from_parts`](Self::from_parts), which reads stored bytes,
    /// keeps std's keyed hasher).
    pub fn extend_physical(&mut self, gid: GroupId, exprs: Vec<PhysicalExpr>) {
        if self.group(gid).physical.len() + exprs.len() < Self::BULK_HASH_MIN {
            for expr in exprs {
                self.add_physical(gid, expr);
            }
            return;
        }
        let group = &mut self.groups[gid.0 as usize];
        let fresh: Vec<bool> = {
            let mut seen: HashSet<&PhysicalOp, BuildHasherDefault<Mix>> =
                group.physical.iter().map(|e| &e.op).collect();
            seen.reserve(exprs.len());
            exprs.iter().map(|e| seen.insert(&e.op)).collect()
        };
        group.physical.extend(
            exprs
                .into_iter()
                .zip(fresh)
                .filter_map(|(expr, fresh)| fresh.then_some(expr)),
        );
    }

    /// Group size from which [`extend_physical`](Self::extend_physical)
    /// hashes: below it, comparing operators pairwise is cheaper than
    /// hashing each one (EXPERIMENTS §E19).
    const BULK_HASH_MIN: usize = 64;

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
    /// producing a memo other code would misindex.
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

    /// `extend_physical` is repeated `add_physical`, below and above the
    /// size from which it hashes: first occurrence wins (against the
    /// group and within the batch), order kept, costs of the kept ones.
    #[test]
    fn extend_physical_equals_repeated_add_physical() {
        let join = |i: u32| PhysicalOp::NestedLoopJoin {
            left: GroupId(i),
            right: GroupId(i + 1),
        };
        // One predicate written twice yields the same merge join twice.
        let merge = PhysicalOp::MergeJoin {
            left: GroupId(0),
            right: GroupId(1),
            left_key: col(0, 0),
            right_key: col(1, 0),
        };
        // Group plus batch come to 5 more than `tail`: the two middle
        // cases sit either side of the switch.
        let min = Memo::BULK_HASH_MIN;
        for tail in [5, min - 6, min - 5, 4 * min] {
            let resident = vec![
                PhysicalExpr::new(join(0), 1.0, 1.0),
                PhysicalExpr::new(merge.clone(), 2.0, 1.0),
            ];
            let mut batch = vec![
                PhysicalExpr::new(merge.clone(), 3.0, 1.0), // already in the group
                PhysicalExpr::new(join(1), 4.0, 1.0),
                PhysicalExpr::new(join(1), 5.0, 1.0), // repeats within the batch
            ];
            batch.extend((0..tail as u32).map(|i| {
                // Every third operator repeats an earlier one.
                PhysicalExpr::new(join(i - i % 3), 6.0 + f64::from(i), 1.0)
            }));

            let build = |bulk: bool| {
                let mut memo = Memo::new();
                let g = memo.add_group(GroupKey::Rels(rs(&[0, 1])));
                for e in resident.clone() {
                    memo.add_physical(g, e).unwrap();
                }
                if bulk {
                    memo.extend_physical(g, batch.clone());
                } else {
                    for e in batch.clone() {
                        memo.add_physical(g, e);
                    }
                }
                format!("{:?}", memo.group(g).physical)
            };
            assert_eq!(build(true), build(false), "tail of {tail}");
        }
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
