//! §3.1 — Preparatory steps: child eligibility, and the one scan that
//! materializes "the links between operators and their possible
//! children" as a memo's plan graph, [`Links`]: every expression's child
//! slots as interned lists of the expressions that may fill them. The
//! optimizer's cost fold, §3.2's count and every rank operation read it.
//!
//! This is the single source of truth for parent→child compatibility
//! (§3.1 of the paper: "Due to the differences in physical properties
//! some operators of a group may qualify as potential children while
//! others do not"). The rule, written once in [`accepts`]:
//!
//! - an [`Requirement::Order`] slot accepts every expression whose
//!   delivered order satisfies the required one (the empty requirement
//!   accepts *everything*, including enforcers — Figure 3's hash join
//!   "can have any operator from group 1 and 2", and group 1 contains the
//!   Sort 1.4);
//! - a [`Requirement::SortInput`] slot (a Sort enforcer's own input)
//!   accepts the group's non-enforcer expressions that do **not** already
//!   satisfy the sort target. Excluding enforcers rules out Sort-over-Sort
//!   chains, which keeps the plan graph finite and acyclic; excluding
//!   already-satisfying children rules out redundant sorts.
//!
//! [`eligible_children`] is the per-slot, per-expression form of the same
//! rule: the reference the test suites compare the scan against.
//!
//! # One table
//!
//! [`Links::build`] makes the links once, as flat tables over
//! [`DenseId`]s (a memo-wide contiguous `u32`, see [`DenseIdMap`]):
//!
//! ```text
//!   pool:        [DenseId]      all interned lists, concatenated
//!   list_bounds: [u32]          list l = pool[list_bounds[l] .. list_bounds[l+1]]
//!   slots:       [SlotRecord]   expr d's slot → list, padded with ListId::NONE
//!   topo:        [DenseId]      every expression, children before parents
//! ```
//!
//! and the root group's list, the one every whole-space operation starts
//! from. The lists are CSR; the slots are not. No operator has more than
//! [`MAX_SLOTS`] children and 98 % of a join memo's expressions are
//! binary joins, so one fixed record per expression is *smaller* than a
//! bounds table plus a concatenated slot table (`8·n` against
//! `4·(n+1) + 4·slots` bytes, `slots ≈ 1.96·n`) and an unranking step
//! reads it in one load instead of two dependent ones. The table view
//! ([`LinksParts`]) keeps the CSR pair, so the golden digests did not
//! change when the resident table did.
//!
//! Nothing reads links back: an artifact stores the memo, and a load
//! runs this same scan over it. A loaded plan space is therefore its
//! memo's by construction, whatever the file's other bytes say. The
//! pool is held to [`MAX_POOL_PER_EXPR`] entries per expression, so a
//! stored memo cannot make the scan allocate more than a fixed multiple
//! of its expression count.
//!
//! A prepare makes the table once, in the optimizer's best-plan
//! extraction (`compute_totals`), which hands it on; so the optimizer's
//! (min, +) fold and §3.2's (+, ×) count walk one table in one order.
//!
//! # One order
//!
//! The order is by *level*, then dense id: a leaf is level 0, and any
//! other expression one above the highest member of its slot lists (an
//! empty list counts as 0). It comes from one memoised recursion, one
//! frame a level. Every memo has an optimizer's shape — a join's inputs
//! split its group's relation set, which the builders and
//! `Memo::from_parts` check — so every plan graph is acyclic and at most
//! 130 levels deep over 64 relations, and the fold needs no cycle check
//! and no stack of its own.
//!
//! # Classes
//!
//! The rule reads two things of a candidate and nothing else: the order
//! it delivers and whether it is an enforcer. Expressions of one group
//! that agree on `(delivered_cols(), is_enforcer())` — a *class* — are
//! therefore accepted or refused together by every requirement, and a
//! group delivers a handful of orders however many expressions it holds
//! (Q8+CP: 22 293 expressions, 2 060 classes, at most 16 in a group).
//! The scan asks the rule once per `(distinct slot, class)` instead of
//! once per `(expression slot, candidate)`, through one
//! [`OrderSatisfier`] a group. Almost every question names one column —
//! a merge join's key, or the target of the Sort whose input is asked —
//! and an order meets a one-column demand exactly when its first column
//! is equivalent to the demanded one in the group's scope. So each class
//! keeps its *lead*, the equivalence representative of its first
//! delivered column, and such a question is one comparison of leads a
//! class; only a many-column question goes to the prefix rule.
//!
//! Classes also identify lists. A group's classes partition it and none
//! is empty, so two slots of one group have equal lists exactly when they
//! accept equal class sets — whatever their requirements say — and lists
//! of different groups are equal only when both are empty. Comparing
//! class sets (a few integers) is how the scan interns, where a content
//! hash would read every member of every list. The root list is interned
//! the same way: it is the answer to the unconstrained question on the
//! root group, so it is a slot's list exactly when some slot accepts
//! every class of the root group, and otherwise the last list.

use crate::expr::SlotRef;
use crate::{
    ChildSlot, DenseId, DenseIdMap, GroupId, ListId, Memo, OrderSatisfier, PhysId, Requirement,
    SlotRecord, MAX_SLOTS,
};
use plansample_query::{ColRef, QuerySpec};
use std::fmt;

/// §3.1's rule: does a slot accept a candidate, given whether the slot
/// is a Sort's input (a [`Requirement::SortInput`]), whether the
/// candidate's delivered order satisfies the slot's key columns — the
/// required order, or the sort target — and whether the candidate is an
/// enforcer?
fn accepts(sort_input: bool, satisfied: bool, enforcer: bool) -> bool {
    if sort_input {
        !enforcer && !satisfied
    } else {
        satisfied
    }
}

/// All expressions of `slot.group` eligible to fill `slot`, in group
/// order (the order that defines plan ranks) — one test per expression.
/// Production code asks per class ([`Links::build`]); this is the
/// reference it is tested against.
pub fn eligible_children(memo: &Memo, query: &QuerySpec, slot: &ChildSlot) -> Vec<PhysId> {
    let group = memo.group(slot.group);
    let mut sat = OrderSatisfier::new(query, group.scope(query));
    let (sort_input, cols) = match &slot.requirement {
        Requirement::Order(order) => (false, order.cols()),
        Requirement::SortInput { target } => (true, target.cols()),
    };
    group
        .phys_iter()
        .filter(|(_, e)| {
            let satisfied = sat.satisfies_slice(e.delivered_cols(), cols);
            accepts(sort_input, satisfied, e.op.is_enforcer())
        })
        .map(|(id, _)| id)
        .collect()
}

/// A [`Links`] as raw `u32` tables, every one of them CSR — the view in
/// which two builds of one memo are compared and the golden suites
/// digest the tables. Produced by [`Links::to_parts`]; nothing builds
/// links from it. The slots are listed here as a bounds table and a
/// concatenated table, not as the padded records the links keep
/// resident: the view has no sentinel and no width to agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinksParts {
    /// All interned alternative lists, concatenated ([`DenseId`] raws).
    pub pool: Vec<u32>,
    /// List `l` = `pool[list_bounds[l] .. list_bounds[l+1]]`.
    pub list_bounds: Vec<u32>,
    /// Per-expression slot → interned list ([`ListId`] raws).
    pub slot_lists: Vec<u32>,
    /// Expr `d`'s slots = `slot_lists[slot_bounds[d] .. slot_bounds[d+1]]`.
    pub slot_bounds: Vec<u32>,
    /// Every expression, children before parents ([`DenseId`] raws):
    /// the scan's order, by level and then dense id (see
    /// [`Links::build`]).
    pub topo: Vec<u32>,
    /// The root group's interned alternative list.
    pub root_list: u32,
}

/// §3.1's materialized links of one memo, in the flat layout of the
/// module docs: the input of §3.2's count fold. Made only by
/// [`build`](Self::build), from a memo.
#[derive(Debug, Clone)]
pub struct Links {
    ids: DenseIdMap,
    /// The interned lists, concatenated in list-id order; each in group
    /// order, hence strictly ascending, which ranking searches.
    /// Allocated at its exact length.
    pool: Vec<DenseId>,
    /// List `l` is `pool[list_bounds[l] .. list_bounds[l + 1]]`; one
    /// entry more than there are lists.
    list_bounds: Vec<u32>,
    /// Expression `d`'s slot record: the list of each of its child
    /// slots. Lists are numbered as the slots that first name them are
    /// met — over groups, then expressions, then slots, then the root —
    /// which fixes list ids, pool layout and artifact bytes.
    slots: Vec<SlotRecord>,
    /// Every expression, children before parents: sorted by level, then
    /// dense id (see [`build`](Self::build)). Both bottom-up folds walk it.
    topo: Vec<DenseId>,
    /// The root group's expressions as an interned list.
    root_list: ListId,
}

/// A level not yet known.
const UNSEEN: u32 = u32::MAX;

/// The most pool entries [`Links::build`] makes per expression of the
/// memo. The optimizer's memos need about two: at most 2.62 over TPC-H
/// Q3–Q10, with and without cross products, and the synthetic chains,
/// stars, cycles and cliques up to clique-10. The shape every memo has
/// does not bound it: a hand-built or stored memo can need
/// quadratically more, as one group of `n` index scans and the `n`
/// Sorts that enforce them gives each Sort's input a list of its own of
/// `n` members.
pub const MAX_POOL_PER_EXPR: usize = 64;

/// Why [`Links::build`] refused a memo. An optimizer's memo is never
/// refused; a hand-built or a stored one can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinksError {
    /// The lists would hold more than [`MAX_POOL_PER_EXPR`] entries per
    /// expression. The walk stops at the first list past that bound,
    /// before the pool is allocated.
    Oversized,
}

impl fmt::Display for LinksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let LinksError::Oversized = self;
        write!(
            f,
            "the memo's child lists would hold more than {MAX_POOL_PER_EXPR} entries per expression"
        )
    }
}

impl Links {
    /// Numbers `memo`'s expressions, materializes the list of every
    /// child slot and of the root group, and orders the expressions
    /// children before parents. Sequential, a pure function of the memo,
    /// and four linear passes over it:
    ///
    /// 1. **Classify**: number each group's classes (see the module docs)
    ///    in first-appearance order, by a linear search over borrowed
    ///    column slices — nothing hashed, nothing cloned — count them,
    ///    and give each its lead.
    /// 2. **Walk**: visit every expression's slots in dense order. A
    ///    question asked of a group before is looked up by its shape:
    ///    the unconstrained one by the group's index, a one-column order
    ///    by the group and the packed column, and only a Sort's input or
    ///    a many-column order by comparing borrowed slots. A group is
    ///    asked a handful of distinct questions (Q8+CP: 2 050 over 256
    ///    groups, the root's included), so the few that are searched are
    ///    searched linearly, in one table for all groups, and nothing is
    ///    hashed. A new question is decided once per class of its group —
    ///    by comparing leads when it names one column — and a class set
    ///    the group has not produced before is a new list, whose length
    ///    is the sum of its class counts; the lists' running length is
    ///    held to [`MAX_POOL_PER_EXPR`] entries per expression. Each
    ///    slot's list goes straight into its expression's record. Last,
    ///    the root group is asked the unconstrained question the same
    ///    way: its answer is the root list.
    /// 3. **Emit**: with every length known the pool is reserved exactly,
    ///    and each list is its group's dense range filtered by class — or
    ///    the whole range, copied, when the list takes every class.
    /// 4. **Order**: a leaf has level 0, and any other expression the
    ///    largest over its slot lists of 0 for an empty list and one more
    ///    than its members' largest level otherwise — one memoised
    ///    (max, +1) fold, per expression and per list, which reads a
    ///    known level in place and recurses only on a miss. `topo` is
    ///    the expressions by level, dense order within a level: the
    ///    order Kahn elimination emits frontier by frontier with each
    ///    frontier sorted.
    ///
    /// # Errors
    /// Only a hand-built or a stored memo is refused, and only with
    /// [`LinksError::Oversized`]: its lists would outgrow
    /// [`MAX_POOL_PER_EXPR`].
    ///
    /// # Panics
    /// Panics if the memo has no root group.
    pub fn build<'m>(memo: &'m Memo, query: &QuerySpec) -> Result<Links, LinksError> {
        let ids = DenseIdMap::build(memo);
        // List bounds are `u32`: the pool's bound must be one too.
        let max_pool = ids
            .len()
            .saturating_mul(MAX_POOL_PER_EXPR)
            .min(u32::MAX as usize);

        // Classify. Classes are numbered memo-wide, each group's contiguous.
        let mut sats: Vec<OrderSatisfier<'_>> = memo
            .groups()
            .map(|g| OrderSatisfier::new(query, g.scope(query)))
            .collect();
        let mut classes: Vec<Class<'_>> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(ids.len());
        let mut class_bounds: Vec<u32> = Vec::with_capacity(memo.num_groups() + 1);
        class_bounds.push(0);
        for group in memo.groups() {
            let first = classes.len();
            for expr in &group.physical {
                let (delivered, enforcer) = (expr.delivered_cols(), expr.op.is_enforcer());
                let class = classes[first..]
                    .iter()
                    .position(|c| c.enforcer == enforcer && c.delivered == delivered)
                    .map_or(classes.len(), |c| first + c);
                if class == classes.len() {
                    let sat = &mut sats[group.id.0 as usize];
                    classes.push(Class {
                        group: group.id,
                        delivered,
                        lead: delivered.first().map(|&col| sat.representative(col)),
                        enforcer,
                        len: 0,
                    });
                }
                classes[class].len += 1;
                class_of.push(class as u32);
            }
            class_bounds.push(classes.len() as u32);
        }

        // Walk. List `l` accepts the classes `sets[set_bounds[l] ..
        // set_bounds[l + 1]]`; `lists_of[g]` holds the lists of group `g`,
        // and one entry past the groups the list that accepts nothing,
        // which every group shares. A question on group `g` asked before
        // is looked up by its shape: the unconstrained one in `any[g]`, a
        // one-column order in `by_col` by its packed column, any other
        // (a Sort's input, a many-column order) in `asked` by the
        // borrowed slot.
        let mut sets: Vec<u32> = Vec::new();
        let mut set_bounds: Vec<u32> = vec![0];
        let mut list_bounds: Vec<u32> = vec![0];
        let mut lists_of: Chains<ListId> = Chains::new(memo.num_groups() + 1);
        // Set by the first list that takes the pool past `max_pool`; every
        // question after it is answered `NONE` without being decided.
        let mut oversized = false;
        let mut decide = |slot: SlotRef<'_>| {
            if oversized {
                return ListId::NONE;
            }
            let g = slot.group.0 as usize;
            let sat = &mut sats[g];
            let (at, mut len) = (sets.len(), 0usize);
            // A one-column requirement is met by the classes whose first
            // delivered column is equivalent to it; any other goes to the
            // prefix rule.
            let single = match slot.cols {
                &[col] => Some(sat.representative(col)),
                _ => None,
            };
            for class in class_bounds[g]..class_bounds[g + 1] {
                let c = &classes[class as usize];
                let satisfied = match single {
                    Some(want) => c.lead == Some(want),
                    None => sat.satisfies_slice(c.delivered, slot.cols),
                };
                if accepts(slot.sort_input, satisfied, c.enforcer) {
                    sets.push(class);
                    len += c.len as usize;
                }
            }
            let nothing = sets.len() == at;
            let home = if nothing { memo.num_groups() } else { g };
            let set_of = |l: ListId| set_bounds[l.idx()] as usize..set_bounds[l.idx() + 1] as usize;
            if let Some(&l) = lists_of.of(home).find(|&&l| sets[set_of(l)] == sets[at..]) {
                sets.truncate(at);
                return l;
            }
            let l = ListId(list_bounds.len() as u32 - 1);
            let end = list_bounds[l.idx()] as usize + len;
            if end > max_pool {
                oversized = true;
                return ListId::NONE;
            }
            set_bounds.push(sets.len() as u32);
            list_bounds.push(end as u32);
            lists_of.file(home, l);
            l
        };
        let mut any = vec![ListId::NONE; memo.num_groups()];
        let mut by_col: Chains<(u64, ListId)> = Chains::new(memo.num_groups());
        let mut asked: Chains<(SlotRef<'m>, ListId)> = Chains::new(memo.num_groups());
        let mut list_of = |slot: SlotRef<'m>| {
            let g = slot.group.0 as usize;
            match (slot.sort_input, slot.cols) {
                (false, []) => {
                    if any[g] == ListId::NONE {
                        any[g] = decide(slot);
                    }
                    any[g]
                }
                (false, &[col]) => {
                    let key = (col.rel.0 as u64) << 32 | col.col as u64;
                    by_col.met_before(g, key, || decide(slot))
                }
                _ => asked.met_before(g, slot, || decide(slot)),
            }
        };
        let mut slots: Vec<SlotRecord> = Vec::with_capacity(ids.len());
        for group in memo.groups() {
            for expr in &group.physical {
                let mut record = [ListId::NONE; MAX_SLOTS];
                for (list, slot) in record.iter_mut().zip(expr.slot_refs(group.id)) {
                    *list = list_of(slot);
                }
                slots.push(SlotRecord(record));
            }
        }
        // The empty requirement accepts every class, enforcers included:
        // the root group's full range, asked last so that no slot's list
        // id moves.
        let root_list = list_of(SlotRef {
            group: memo.root(),
            sort_input: false,
            cols: &[],
        });
        if oversized {
            return Err(LinksError::Oversized);
        }
        // The links back a long-lived, byte-budgeted artifact: drop the
        // growth slack of the one table built by pushing.
        list_bounds.shrink_to_fit();

        // Emit.
        let mut pool: Vec<DenseId> =
            Vec::with_capacity(list_bounds[list_bounds.len() - 1] as usize);
        let mut accepted = vec![false; classes.len()];
        for set in set_bounds.windows(2) {
            let set = &sets[set[0] as usize..set[1] as usize];
            let Some(&first) = set.first() else { continue };
            let group = classes[first as usize].group;
            let members = ids.group_range(group);
            let g = group.0 as usize;
            if set.len() as u32 == class_bounds[g + 1] - class_bounds[g] {
                pool.extend(members.map(DenseId));
                continue;
            }
            set.iter().for_each(|&c| accepted[c as usize] = true);
            pool.extend(
                members
                    .filter(|&d| accepted[class_of[d as usize] as usize])
                    .map(DenseId),
            );
            set.iter().for_each(|&c| accepted[c as usize] = false);
        }
        let mut links = Links {
            ids,
            pool,
            list_bounds,
            slots,
            topo: Vec::new(),
            root_list,
        };

        // Order: fold the levels, then counting-sort by level, stably.
        let levels = links.levels();
        let mut starts = vec![0; levels.iter().max().map_or(1, |&top| top as usize + 2)];
        for &level in &levels {
            starts[level as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        links.topo = vec![DenseId(0); links.num_exprs()];
        for (d, &level) in levels.iter().enumerate() {
            links.topo[starts[level as usize]] = DenseId(d as u32);
            starts[level as usize] += 1;
        }
        Ok(links)
    }

    /// Every expression's level (see [`build`](Self::build)).
    fn levels(&self) -> Vec<u32> {
        let mut levels = vec![UNSEEN; self.num_exprs()];
        let mut list_levels = vec![UNSEEN; self.num_lists()];
        for d in (0..self.num_exprs() as u32).map(DenseId) {
            self.level(d, &mut levels, &mut list_levels);
        }
        levels
    }

    /// `d`'s level, folded on a miss and memoised, each list's too. One
    /// frame a level, and every memo is at most 130 levels deep.
    fn level(&self, d: DenseId, levels: &mut [u32], list_levels: &mut [u32]) -> u32 {
        if levels[d.idx()] != UNSEEN {
            return levels[d.idx()];
        }
        let mut level = 0;
        for &l in self.slot_lists(d) {
            if list_levels[l.idx()] == UNSEEN {
                let mut above = 0;
                for &w in self.list(l) {
                    above = above.max(self.level(w, levels, list_levels) + 1);
                }
                list_levels[l.idx()] = above;
            }
            level = level.max(list_levels[l.idx()]);
        }
        levels[d.idx()] = level;
        level
    }

    /// Copies the tables out as raw `u32` CSR buffers, expanding the slot
    /// records to the bounds + concatenation pair. The dense-id table is
    /// *not* part of the view: it is a pure function of the memo.
    pub fn to_parts(&self) -> LinksParts {
        let mut slot_lists = Vec::new();
        let mut slot_bounds = Vec::with_capacity(self.slots.len() + 1);
        slot_bounds.push(0);
        for d in 0..self.slots.len() as u32 {
            slot_lists.extend(self.slot_lists(DenseId(d)).iter().map(|l| l.0));
            slot_bounds.push(slot_lists.len() as u32);
        }
        LinksParts {
            pool: self.pool.iter().map(|d| d.0).collect(),
            list_bounds: self.list_bounds.clone(),
            slot_lists,
            slot_bounds,
            topo: self.topo.iter().map(|d| d.0).collect(),
            root_list: self.root_list.0,
        }
    }

    /// The dense-id table shared by everything built on these links.
    #[inline]
    pub fn ids(&self) -> &DenseIdMap {
        &self.ids
    }

    /// Number of physical expressions covered.
    #[inline]
    pub fn num_exprs(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct (interned) alternative lists.
    #[inline]
    pub fn num_lists(&self) -> usize {
        self.list_bounds.len() - 1
    }

    /// Total entries across the interned lists (the arena size; without
    /// interning this would be the full link count).
    #[inline]
    pub fn num_pooled_links(&self) -> usize {
        self.pool.len()
    }

    /// The members of list `l`.
    #[inline]
    pub fn list(&self, l: ListId) -> &[DenseId] {
        &self.pool[self.list_range(l)]
    }

    /// The range of list `l` within the concatenated pool — the
    /// coordinate system a pool-aligned table (such as §3.2's running
    /// sums) shares: indexed by this range it yields list `l`'s entries
    /// as one contiguous slice.
    #[inline]
    pub fn list_range(&self, l: ListId) -> std::ops::Range<usize> {
        self.list_bounds[l.idx()] as usize..self.list_bounds[l.idx() + 1] as usize
    }

    /// The list of each child slot of `d`, in slot order: the occupied
    /// prefix of `d`'s slot record.
    #[inline]
    pub fn slot_lists(&self, d: DenseId) -> &[ListId] {
        self.slots[d.idx()].lists()
    }

    /// Number of child slots of `d` (the paper's `|v|`).
    #[inline]
    pub fn arity(&self, d: DenseId) -> usize {
        self.slot_lists(d).len()
    }

    /// Number of child slots of an expression, by nominal id.
    ///
    /// # Panics
    /// Panics when `id` is not part of the linked memo.
    #[inline]
    pub fn arity_of(&self, id: PhysId) -> usize {
        self.arity(self.ids.dense(id))
    }

    /// The list every whole-space operation starts from: the root group's
    /// expressions.
    #[inline]
    pub fn root_list(&self) -> ListId {
        self.root_list
    }

    /// Every expression in a children-before-parents order (see
    /// [`build`](Self::build)): the order both bottom-up folds walk
    /// instead of recursing.
    #[inline]
    pub fn topo(&self) -> &[DenseId] {
        &self.topo
    }

    /// Iterates every expression id covered by these links, in dense
    /// order. (Self-contained: the links carry their own id table.)
    pub fn all_ids(&self) -> impl Iterator<Item = PhysId> + '_ {
        self.ids.iter().map(|(_, id)| id)
    }

    /// The alternatives for each child slot of `id`, materialized as
    /// nominal ids — the nested view tests and diagnostics read; hot
    /// paths use [`slot_lists`](Self::slot_lists)/[`list`](Self::list)
    /// directly.
    pub fn children_of(&self, id: PhysId) -> Vec<Vec<PhysId>> {
        self.slot_lists(self.ids.dense(id))
            .iter()
            .map(|&l| self.list(l).iter().map(|&d| self.ids.phys(d)).collect())
            .collect()
    }

    /// Bytes of memory held by the links: the id table plus the flat
    /// buffers (pool, list bounds, slot records, topo), capacity-accurate.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<DenseIdMap>()
            + self.ids.size_bytes()
            + self.pool.capacity() * std::mem::size_of::<DenseId>()
            + self.list_bounds.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<SlotRecord>()
            + self.topo.capacity() * std::mem::size_of::<DenseId>()
    }
}

/// Items filed by group in one table, each group's chained newest
/// first: the scan keeps a handful of questions and lists a group
/// without a vector per group.
struct Chains<T> {
    /// By group: the index of its newest item; past the end if none.
    newest: Vec<u32>,
    /// Each item, and the index of the one filed before it in its group.
    items: Vec<(T, u32)>,
}

impl<T> Chains<T> {
    fn new(groups: usize) -> Self {
        Chains {
            newest: vec![u32::MAX; groups],
            items: Vec::new(),
        }
    }

    /// Group `g`'s items, newest first.
    fn of(&self, g: usize) -> impl Iterator<Item = &T> {
        let mut at = self.newest[g];
        std::iter::from_fn(move || {
            let (item, before) = self.items.get(at as usize)?;
            at = *before;
            Some(item)
        })
    }

    fn file(&mut self, g: usize, item: T) {
        self.items.push((item, self.newest[g]));
        self.newest[g] = self.items.len() as u32 - 1;
    }
}

impl<K: PartialEq> Chains<(K, ListId)> {
    /// The list filed for `key` on group `g`, or `decide`'s answer,
    /// filed for the next time `key` is met there.
    fn met_before(&mut self, g: usize, key: K, decide: impl FnOnce() -> ListId) -> ListId {
        if let Some(&(_, l)) = self.of(g).find(|(k, _)| *k == key) {
            return l;
        }
        let l = decide();
        self.file(g, (key, l));
        l
    }
}

/// One group's expressions that deliver the same order and agree on
/// being an enforcer (see the module docs).
struct Class<'m> {
    group: GroupId,
    delivered: &'m [ColRef],
    /// The representative of the first delivered column's equivalence
    /// class in the group's scope; `None` when the order is empty.
    lead: Option<ColRef>,
    enforcer: bool,
    /// How many expressions of the group are in the class; never 0.
    len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, PhysicalExpr, PhysicalOp, SortOrder};
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::{QueryBuilder, RelId, RelSet};

    /// One relation with an index on column 0; group holds TableScan,
    /// SortedIdxScan, and a Sort enforcer targeting column 0 — the exact
    /// shape of the paper's group 1 in Figures 2/3.
    fn setup() -> (Catalog, QuerySpec, Memo, crate::GroupId) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 100)
                .col("x", ColType::Int, 100)
                .col("y", ColType::Int, 10)
                .index_on(0)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        let q = qb.build().unwrap();

        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        memo.add_physical(
            g,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 100.0, 100.0),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::SortedIdxScan {
                    rel: RelId(0),
                    col: key,
                },
                120.0,
                100.0,
            ),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::Sort {
                    target: SortOrder::on_col(key),
                },
                50.0,
                100.0,
            ),
        )
        .unwrap();
        memo.set_root(g);
        (cat, q, memo, g)
    }

    #[test]
    fn empty_requirement_accepts_everything_including_sorts() {
        let (_cat, q, memo, g) = setup();
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::unsorted()),
        };
        let kids = eligible_children(&memo, &q, &slot);
        assert_eq!(kids.len(), 3, "TableScan, SortedIdxScan, Sort all qualify");
    }

    #[test]
    fn order_requirement_selects_sorted_providers() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(key)),
        };
        let kids = eligible_children(&memo, &q, &slot);
        // SortedIdxScan (index 1) and Sort (index 2) deliver the order.
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|id| id.index != 0));
    }

    #[test]
    fn unsatisfiable_order_yields_empty() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(other)),
        };
        assert!(eligible_children(&memo, &q, &slot).is_empty());
    }

    #[test]
    fn sort_input_excludes_enforcers_and_already_sorted() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(key),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // Only the TableScan: the idx scan already satisfies, the Sort is
        // an enforcer.
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].index, 0);
    }

    #[test]
    fn sort_input_for_other_target_takes_differently_sorted() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(other),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // TableScan and the x-sorted idx scan both fail to satisfy a sort
        // on y, so both are sortable inputs.
        assert_eq!(kids.len(), 2);
    }
    /// A merge-join group: two merge joins that agree on the left key and
    /// differ on the right, a nested-loops join, the group's own Sort,
    /// and an aggregate above that *requires* the order the Sort
    /// *targets* — same key columns, two different slots. Eight distinct
    /// slots over the ten expression slots filter to six lists, numbered
    /// as the slots that first name them are met.
    #[test]
    fn gather_numbers_distinct_slots_in_first_encounter_order() {
        let (_cat, q) = crate::props::tests::chain_query();
        let col = |rel, col| ColRef {
            rel: RelId(rel),
            col,
        };
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut memo = Memo::new();
        let l = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        let r = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(1))));
        let j = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let top = memo.add_group(GroupKey::Agg);
        memo.add_physical(l, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(r, expr(PhysicalOp::TableScan { rel: RelId(1) }));
        let merge = |right_key| PhysicalOp::MergeJoin {
            left: l,
            right: r,
            left_key: col(0, 0),
            right_key,
        };
        memo.add_physical(j, expr(merge(col(1, 0))));
        memo.add_physical(j, expr(merge(col(1, 1))));
        memo.add_physical(j, expr(PhysicalOp::NestedLoopJoin { left: l, right: r }));
        let on_key = SortOrder::on_col(col(0, 0));
        memo.add_physical(
            j,
            expr(PhysicalOp::Sort {
                target: on_key.clone(),
            }),
        );
        memo.add_physical(
            top,
            expr(PhysicalOp::StreamAgg {
                input: j,
                group_order: on_key,
            }),
        );
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: j }));
        memo.set_root(top);

        let scan = assert_lists_match_the_rule(&memo, &q);
        // Dense order: the two scans, then group j's four, then the two
        // aggregates. The bare scans deliver no order, so all three
        // ordered demands on them share the empty list 0; the merge
        // joins' common left slot is decided once.
        let per_expr: Vec<Vec<u32>> = (0..memo.num_physical() as u32)
            .map(|d| scan.slot_lists(DenseId(d)).iter().map(|l| l.0).collect())
            .collect();
        let expected: [&[u32]; 8] = [&[], &[], &[0, 0], &[0, 0], &[1, 2], &[3], &[4], &[5]];
        assert_eq!(per_expr, expected);
        let members = |l| scan.list(ListId(l)).iter().map(|d| d.0).collect::<Vec<_>>();
        let lists: Vec<Vec<u32>> = (0..6).map(members).collect();
        let expected: [&[u32]; 6] = [&[], &[0], &[1], &[4], &[2, 3, 5], &[2, 3, 4, 5]];
        assert_eq!(lists, expected);
        // No slot is on the aggregates' group: its range is a new list.
        assert_eq!(scan.root_list(), ListId(6));
        assert_eq!(members(6), [6, 7]);
    }

    /// Every expression slot's list against the per-expression rule, and
    /// the shape [`Links::build`] promises: one record per expression,
    /// exact bounds, an exactly sized pool, lists numbered as first met
    /// and pairwise different, the root list the root group's range —
    /// some slot's list, or the last one.
    fn assert_lists_match_the_rule(memo: &Memo, q: &QuerySpec) -> Links {
        let scan = Links::build(memo, q).unwrap();
        assert_eq!(scan.slots.len(), memo.num_physical());
        for (d, id) in scan.ids.iter() {
            let slots = memo.phys(id).child_slots(id.group);
            assert_eq!(scan.slot_lists(d).len(), slots.len(), "{id}: arity");
            for (&l, slot) in scan.slot_lists(d).iter().zip(&slots) {
                let rule: Vec<DenseId> = eligible_children(memo, q, slot)
                    .into_iter()
                    .map(|id| scan.ids.dense(id))
                    .collect();
                assert_eq!(scan.list(l), rule, "{id}: {slot:?}");
            }
        }
        let bounds = &scan.list_bounds;
        assert_eq!(bounds[0], 0);
        assert!(bounds.is_sorted());
        let num_lists = bounds.len() - 1;
        assert_eq!(bounds[num_lists] as usize, scan.pool.len());
        assert_eq!(scan.pool.capacity(), scan.pool.len());
        let mut met = 0;
        for l in scan.slots.iter().flat_map(|r| r.lists()) {
            assert!(l.0 <= met, "lists are numbered in first-encounter order");
            met = met.max(l.0 + 1);
        }
        let root = scan.ids.group_range(memo.root());
        assert_eq!(
            scan.list(scan.root_list()),
            root.map(DenseId).collect::<Vec<_>>()
        );
        if scan.root_list().0 == met {
            met += 1;
        }
        assert!(scan.root_list().0 < met);
        assert_eq!(met as usize, num_lists);
        for a in 0..num_lists as u32 {
            for b in 0..a {
                assert_ne!(
                    scan.list(ListId(a)),
                    scan.list(ListId(b)),
                    "lists {b} and {a}"
                );
            }
        }
        scan
    }

    /// The order is by level, then dense id, not by group: here the
    /// aggregate's group is numbered first and the join group's Sort
    /// before the joins it sorts, so dense order is parents first.
    #[test]
    fn topo_is_by_level_then_dense_id() {
        let (_cat, q) = crate::props::tests::chain_query();
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut memo = Memo::new();
        let top = memo.add_group(GroupKey::Agg);
        let j = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let [l, r] =
            [0, 1].map(|rel| memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(rel)))));
        let target = SortOrder::on_col(ColRef {
            rel: RelId(0),
            col: 0,
        });
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: j }));
        memo.add_physical(j, expr(PhysicalOp::Sort { target }));
        memo.add_physical(j, expr(PhysicalOp::HashJoin { left: l, right: r }));
        memo.add_physical(j, expr(PhysicalOp::NestedLoopJoin { left: l, right: r }));
        memo.add_physical(l, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(r, expr(PhysicalOp::TableScan { rel: RelId(1) }));
        memo.set_root(top);

        // Levels by dense id: the aggregate 3, the Sort 2, the joins 1,
        // the scans 0.
        let scan = Links::build(&memo, &q).unwrap();
        let topo: Vec<u32> = scan.topo().iter().map(|d| d.0).collect();
        assert_eq!(topo, [4, 5, 2, 3, 1, 0]);
    }

    /// No cap on the orders a group delivers: 70 index scans on 70
    /// columns and the 70 Sorts that enforce them make 141 classes in
    /// one group, and an aggregate group above asks for each order —
    /// 141 lists, every one what the rule says, and the aggregates' own
    /// range of 71 the 142nd.
    #[test]
    fn a_group_delivering_seventy_orders_builds_without_truncation() {
        const ORDERS: u32 = 70;
        let mut cat = Catalog::new();
        let mut wide = table("wide", 100);
        for c in 0..ORDERS {
            wide = wide.col(&format!("c{c}"), ColType::Int, 100);
        }
        cat.add_table(wide.build()).unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("wide", None).unwrap();
        let q = qb.build().unwrap();

        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let col = |col| ColRef { rel: RelId(0), col };
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        let top = memo.add_group(GroupKey::Agg);
        memo.add_physical(g, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: g }));
        for c in 0..ORDERS {
            let (rel, target) = (RelId(0), SortOrder::on_col(col(c)));
            memo.add_physical(g, expr(PhysicalOp::SortedIdxScan { rel, col: col(c) }));
            memo.add_physical(
                g,
                expr(PhysicalOp::Sort {
                    target: target.clone(),
                }),
            );
            memo.add_physical(
                top,
                expr(PhysicalOp::StreamAgg {
                    input: g,
                    group_order: target,
                }),
            );
        }
        memo.set_root(top);

        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(scan.num_lists(), 2 * ORDERS as usize + 2);
        // Each order has its scan and its Sort; each Sort may sit on the
        // table scan and the 69 other index scans; the hash aggregate
        // takes all 141; the root list is the 71 aggregates.
        let mut lens: Vec<u32> = scan.list_bounds.windows(2).map(|w| w[1] - w[0]).collect();
        lens.sort_unstable();
        lens.dedup();
        assert_eq!(lens, [2, ORDERS, ORDERS + 1, 2 * ORDERS + 1]);
    }

    /// One group of 2 000 index scans on 2 000 columns and the 2 000
    /// Sorts that enforce them: each Sort's input is a list of its own of
    /// the 2 000 scans that do not deliver its order (the table scan
    /// among them), four million entries for 4 001 expressions. The
    /// walk stops at the first list past [`MAX_POOL_PER_EXPR`] per
    /// expression, and the memo is refused.
    #[test]
    fn a_group_whose_sort_inputs_outgrow_the_pool_bound_is_refused() {
        const ORDERS: u32 = 2_000;
        let mut cat = Catalog::new();
        let mut wide = table("wide", 100);
        for c in 0..ORDERS {
            wide = wide.col(&format!("c{c}"), ColType::Int, 100);
        }
        cat.add_table(wide.build()).unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("wide", None).unwrap();
        let q = qb.build().unwrap();

        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        memo.add_physical(g, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        for c in 0..ORDERS {
            let (rel, col) = (
                RelId(0),
                ColRef {
                    rel: RelId(0),
                    col: c,
                },
            );
            memo.add_physical(g, expr(PhysicalOp::SortedIdxScan { rel, col }));
            let target = SortOrder::on_col(col);
            memo.add_physical(g, expr(PhysicalOp::Sort { target }));
        }
        memo.set_root(g);
        assert!(ORDERS as usize * ORDERS as usize > MAX_POOL_PER_EXPR * memo.num_physical());
        assert_eq!(Links::build(&memo, &q).unwrap_err(), LinksError::Oversized);
    }

    /// The two facts list identity — hence every artifact byte — rests
    /// on, over the `a.x = b.y`, `b.z = c.w` chain: slots of *different*
    /// groups share a list only when nothing is eligible, and slots of
    /// *one* group share a list when different requirements accept the
    /// same classes. Here they do so only through the group's column
    /// equivalences: in scope {a, b} the merge join's `a.x` order
    /// answers a demand for `b.y`, and the Sort's `b.y` one for `a.x`.
    #[test]
    fn equal_class_sets_share_a_list_and_empty_lists_share_one_across_groups() {
        let (_cat, q) = crate::props::tests::chain_query();
        let col = |rel, col| ColRef {
            rel: RelId(rel),
            col,
        };
        let (ax, by, cw) = (col(0, 0), col(1, 0), col(2, 0));
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let rels = |ids: &[u32]| GroupKey::Rels(RelSet::from_iter(ids.iter().map(|&i| RelId(i))));
        let mut memo = Memo::new();
        let [a, b, c] = [0, 1, 2].map(|rel| {
            let g = memo.add_group(rels(&[rel]));
            memo.add_physical(g, expr(PhysicalOp::TableScan { rel: RelId(rel) }));
            g
        });
        let ab = memo.add_group(rels(&[0, 1]));
        let abc = memo.add_group(rels(&[0, 1, 2]));
        let merge = |left, right, left_key, right_key| {
            expr(PhysicalOp::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            })
        };
        memo.add_physical(ab, merge(a, b, ax, by));
        memo.add_physical(ab, expr(PhysicalOp::HashJoin { left: a, right: b }));
        memo.add_physical(
            ab,
            expr(PhysicalOp::Sort {
                target: SortOrder::on_col(by),
            }),
        );
        memo.add_physical(abc, merge(ab, c, ax, cw));
        memo.add_physical(abc, merge(ab, c, by, cw));
        memo.set_root(abc);

        let scan = assert_lists_match_the_rule(&memo, &q);
        let list_of = |group, requirement| {
            let slot = ChildSlot { group, requirement };
            let (d, i) = (scan.ids.iter())
                .find_map(|(d, id)| {
                    let slots = memo.phys(id).child_slots(id.group);
                    Some((d, slots.iter().position(|s| *s == slot)?))
                })
                .unwrap();
            scan.slot_lists(d)[i]
        };
        let order = |c| Requirement::Order(SortOrder::on_col(c));

        // A bare table scan delivers no order: three groups, one list.
        let nothing = list_of(a, order(ax));
        assert!(scan.list(nothing).is_empty());
        assert_eq!(list_of(b, order(by)), nothing);
        assert_eq!(list_of(c, order(cw)), nothing);

        // Two requirements, one class set: the merge join and the Sort.
        let either = list_of(ab, order(ax));
        assert_eq!(list_of(ab, order(by)), either);
        assert_eq!(scan.list(either), [DenseId(3), DenseId(5)]);
        // The Sort's own input: the merge join already delivers `b.y`
        // (it is `a.x`), so only the hash join is worth sorting.
        let target = SortOrder::on_col(by);
        let input = list_of(ab, Requirement::SortInput { target });
        assert_eq!(scan.list(input), [DenseId(4)]);
    }

    /// The list [`Links::build`] gave the first slot of `memo` that
    /// asks `requirement` of `group`, as dense ids.
    fn list_asking(
        memo: &Memo,
        scan: &Links,
        group: GroupId,
        requirement: Requirement,
    ) -> Vec<u32> {
        let slot = ChildSlot { group, requirement };
        let (d, i) = (scan.ids.iter())
            .find_map(|(d, id)| {
                let slots = memo.phys(id).child_slots(id.group);
                Some((d, slots.iter().position(|s| *s == slot)?))
            })
            .expect("some slot asks it");
        scan.list(scan.slot_lists(d)[i])
            .iter()
            .map(|d| d.0)
            .collect()
    }

    /// Over the `a.x = b.y`, `b.z = c.w` chain: the scans of `a`, `b`
    /// and `c` (dense 0, 1, 2), then the groups `{a, b}` and `{a, b, c}`,
    /// empty, for a test to fill.
    fn chain_scans() -> (QuerySpec, Memo, [GroupId; 5]) {
        let (_cat, q) = crate::props::tests::chain_query();
        let rels = |ids: &[u32]| GroupKey::Rels(RelSet::from_iter(ids.iter().map(|&i| RelId(i))));
        let mut memo = Memo::new();
        let [a, b, c] = [0, 1, 2].map(|rel| {
            let g = memo.add_group(rels(&[rel]));
            let scan = PhysicalOp::TableScan { rel: RelId(rel) };
            memo.add_physical(g, PhysicalExpr::new(scan, 1.0, 1.0));
            g
        });
        let ab = memo.add_group(rels(&[0, 1]));
        let abc = memo.add_group(rels(&[0, 1, 2]));
        memo.set_root(abc);
        (q, memo, [a, b, c, ab, abc])
    }

    fn merge(left: GroupId, right: GroupId, left_key: ColRef, right_key: ColRef) -> PhysicalExpr {
        let op = PhysicalOp::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        };
        PhysicalExpr::new(op, 1.0, 1.0)
    }

    fn sort(cols: Vec<ColRef>) -> PhysicalExpr {
        let target = SortOrder::on(cols);
        PhysicalExpr::new(PhysicalOp::Sort { target }, 1.0, 1.0)
    }

    const AX: ColRef = ColRef {
        rel: RelId(0),
        col: 0,
    };
    const BY: ColRef = ColRef {
        rel: RelId(1),
        col: 0,
    };
    const BZ: ColRef = ColRef {
        rel: RelId(1),
        col: 1,
    };
    const CW: ColRef = ColRef {
        rel: RelId(2),
        col: 0,
    };

    fn order(cols: &[ColRef]) -> Requirement {
        Requirement::Order(SortOrder::on(cols.to_vec()))
    }

    /// A demand for `b.y` on `{a, b}` whose only ordered member delivers
    /// `a.x`: met only because the scope applies `a.x = b.y`, and not met
    /// on `{a}` alone, where the merge join's `a.x` is asked of a bare
    /// scan.
    #[test]
    fn an_order_met_only_through_an_equivalence_is_accepted() {
        let (q, mut memo, [a, b, c, ab, abc]) = chain_scans();
        memo.add_physical(ab, merge(a, b, AX, BY)); // 3
        memo.add_physical(
            ab,
            PhysicalExpr::new(PhysicalOp::HashJoin { left: a, right: b }, 1.0, 1.0),
        );
        memo.add_physical(abc, merge(ab, c, BY, CW)); // 5
        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(list_asking(&memo, &scan, ab, order(&[BY])), [3]);
        assert!(list_asking(&memo, &scan, a, order(&[AX])).is_empty());
    }

    /// Orders of two columns answer one-column demands on their first
    /// column only: a Sort on `(b.y, b.z)` meets `b.y` on `{b}` but not
    /// `b.z`, and on `{a, b}` a Sort on `(b.y, b.z)` meets `a.x` through
    /// the scope's `a.x = b.y`. Each Sort's own input is asked with its
    /// whole two-column target, which no one-column order meets.
    #[test]
    fn a_many_column_order_meets_a_one_column_demand_on_its_first_column() {
        let (q, mut memo, [a, b, c, ab, abc]) = chain_scans();
        memo.add_physical(b, sort(vec![BY, BZ])); // 2
        memo.add_physical(ab, merge(a, b, AX, BY)); // 4
        memo.add_physical(ab, merge(a, b, AX, BZ)); // 5
        memo.add_physical(ab, sort(vec![BY, BZ])); // 6
        memo.add_physical(abc, merge(ab, c, AX, CW)); // 7
        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(list_asking(&memo, &scan, b, order(&[BY])), [2]);
        assert!(list_asking(&memo, &scan, b, order(&[BZ])).is_empty());
        assert_eq!(list_asking(&memo, &scan, ab, order(&[AX])), [4, 5, 6]);
        let target = SortOrder::on(vec![BY, BZ]);
        let input = Requirement::SortInput { target };
        assert_eq!(list_asking(&memo, &scan, b, input.clone()), [1]);
        assert_eq!(list_asking(&memo, &scan, ab, input), [4, 5]);
    }

    /// `b.z` is joined to `c.w`, but not inside `{a, b}`: there the
    /// column is equivalent only to itself. A demand for it is met by a
    /// Sort on `b.z` alone — not by the merge join's `a.x`, nor by a
    /// Sort on `c.w`, which the scope has not equated with it.
    #[test]
    fn a_column_no_edge_in_scope_mentions_is_equivalent_only_to_itself() {
        let (q, mut memo, [a, b, c, ab, abc]) = chain_scans();
        memo.add_physical(ab, merge(a, b, AX, BY)); // 3
        memo.add_physical(ab, sort(vec![BZ])); // 4
        memo.add_physical(ab, sort(vec![CW])); // 5
        memo.add_physical(abc, merge(ab, c, BZ, CW)); // 6
        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(list_asking(&memo, &scan, ab, order(&[BZ])), [4]);
    }

    /// An [`Requirement::Order`] slot takes enforcers: the merge join's
    /// demand for `a.x` on `{a}` is met by the Sort alone, the hash
    /// join's unconstrained one by both members, and the Sort's own
    /// input is the scan.
    #[test]
    fn an_order_slot_accepts_an_enforcer_class() {
        let (q, mut memo, [a, b, _, ab, _]) = chain_scans();
        memo.add_physical(a, sort(vec![AX])); // 1
        memo.add_physical(ab, merge(a, b, AX, BY)); // 4
        memo.add_physical(
            ab,
            PhysicalExpr::new(PhysicalOp::HashJoin { left: a, right: b }, 1.0, 1.0),
        );
        memo.set_root(ab);
        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(list_asking(&memo, &scan, a, order(&[AX])), [1]);
        assert_eq!(list_asking(&memo, &scan, a, order(&[])), [0, 1]);
        let input = Requirement::SortInput {
            target: SortOrder::on_col(AX),
        };
        assert_eq!(list_asking(&memo, &scan, a, input), [0]);
    }

    /// The deepest memo 64 relations admit: a left-deep chain whose
    /// every join group `{0, …, k}` also holds a Sort, as does `{0}`,
    /// under an aggregate group holding a hash aggregate and a Sort. A
    /// join sits one level above the Sort below it and a Sort one above
    /// the join it sorts, so the levels run 0 … 129. `from_parts` admits
    /// it, and the fold, one frame a level, folds it on a 64 KiB thread.
    /// (The same chain closed into a loop is refused where it is built:
    /// `*_refuses_a_join_reading_its_own_group` in the crate root.)
    #[test]
    fn the_deepest_chain_64_relations_admit_folds_on_a_small_stack() {
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let sort = || {
            expr(PhysicalOp::Sort {
                target: SortOrder::on_col(ColRef {
                    rel: RelId(0),
                    col: 0,
                }),
            })
        };
        let scan = |rel| expr(PhysicalOp::TableScan { rel: RelId(rel) });
        let join = |left, right| {
            expr(PhysicalOp::HashJoin {
                left: GroupId(left),
                right: GroupId(right),
            })
        };
        // Groups 0–63: the scans of relations 0–63 (with `{0}`'s Sort);
        // 63 + k: the join group of relations 0–k; 127: the aggregate.
        let mut parts = vec![(
            GroupKey::Rels(RelSet::all(1)),
            vec![],
            vec![scan(0), sort()],
        )];
        parts.extend((1..64).map(|rel| {
            let key = GroupKey::Rels(RelSet::singleton(RelId(rel)));
            (key, vec![], vec![scan(rel)])
        }));
        parts.extend((1..64).map(|k| {
            let below = if k == 1 { 0 } else { 62 + k };
            let key = GroupKey::Rels(RelSet::all(k as usize + 1));
            (key, vec![], vec![join(below, k), sort()])
        }));
        let aggregate = expr(PhysicalOp::HashAgg {
            input: GroupId(126),
        });
        parts.push((GroupKey::Agg, vec![], vec![aggregate, sort()]));
        let chain = Memo::from_parts(parts, 127).expect("an optimizer's shape");

        let (_cat, q) = crate::props::tests::chain_query();
        let levels = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(move || Links::build(&chain, &q).map(|links| links.levels()))
            .unwrap()
            .join()
            .expect("the fold fits a 64 KiB stack")
            .expect("a chain's lists are small");
        assert_eq!(levels.iter().max(), Some(&129));
    }
}
