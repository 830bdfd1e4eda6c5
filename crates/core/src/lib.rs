//! Counting, enumerating, and uniform sampling of execution plans from a
//! cost-based query optimizer's MEMO.
//!
//! Reproduction of **F. Waas & C. A. Galindo-Legaria, "Counting,
//! Enumerating, and Sampling of Execution Plans in a Cost-Based Query
//! Optimizer"** (SIGMOD 2000). After regular optimization the MEMO holds
//! a compact encoding of *every* candidate plan the optimizer
//! considered; this crate post-processes that structure to
//!
//! * **count** the exact number `N` of complete plans ([`PlanSpace::total`]),
//! * establish a bijection between `0 … N−1` and the plans
//!   ([`PlanSpace::unrank`] / [`PlanSpace::rank`]),
//! * **enumerate** the whole space ([`PlanSpace::enumerate`], resumable
//!   at any rank via [`PlanSpace::enumerate_from`]), and
//! * draw **uniform random samples** ([`PlanSpace::sample`],
//!   [`PlanSpace::sample_batch`]),
//!
//! which enables the paper's two applications: differential testing of
//! optimizer and execution engine (every plan of a query must produce
//! the same result — [`validate`]) and the study of cost distributions
//! over real search spaces (§5).
//!
//! # Quick start
//!
//! The paper's whole point is that these operations are cheap *once the
//! MEMO is built*. The [`PreparedQuery`] artifact makes that explicit:
//! optimize once, then count, enumerate, and sample as often as you like
//! — from as many threads as you like (`PreparedQuery` is `Send + Sync`
//! and cheap to share in an [`std::sync::Arc`]).
//!
//! ```
//! use plansample::PreparedQuery;
//! use plansample_bignum::Nat;
//! use plansample_optimizer::OptimizerConfig;
//!
//! let (catalog, _) = plansample_catalog::tpch::catalog();
//! let query = plansample_query::tpch::q5(&catalog);
//!
//! // One optimization pass; everything below reuses its memo.
//! let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap();
//! println!("Q5 considers {} plans", prepared.total());
//!
//! // USEPLAN-style: reconstruct plan number 8.
//! let plan8 = prepared.unrank(&Nat::from(8u64)).unwrap();
//! assert_eq!(prepared.rank(&plan8).unwrap(), Nat::from(8u64));
//! ```
//!
//! The plan graph every operation walks, §3.1's materialized links, is
//! the memo crate's [`Links`], re-exported here: the optimizer's
//! best-plan extraction builds it, and a prepare keeps it.
//!
//! To run a plan on data — `OPTION (USEPLAN n)` — hand it to
//! [`PlanSpace::execute`]: `prepared.execute(&catalog, &db,
//! &prepared.unrank(&n)?)`. For a concurrent cache of prepared queries
//! see [`service::ArtifactCache`] (and [`service::PlanService`], one over
//! a single catalog).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod batch;
mod count;
mod enumerate;
pub mod lower;
mod lru;
pub mod paper_example;
mod prepared;
mod rank;
mod sample;
pub mod service;
mod subspace;
mod unrank;
pub mod validate;
mod word;

pub use batch::PlanBatch;
pub use count::{CountTier, Counts, CountsParts};
pub use enumerate::PlanCursor;
pub use lru::Lru;
pub use plansample_memo::{Links, LinksError, LinksParts, ListId};
pub use prepared::PreparedQuery;
pub use service::{cache_key, ArtifactCache, PlanService, ServiceStats};

use plansample_bignum::Nat;
use plansample_exec::ExecError;
use plansample_memo::{Memo, PhysId};
use plansample_optimizer::OptError;
use plansample_query::QuerySpec;
use std::fmt;
use std::sync::Arc;

/// Errors from plan-space construction and rank operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// `unrank` was called with a rank outside `[0, N)`.
    RankOutOfRange {
        /// The requested rank.
        rank: Nat,
        /// The space size `N`.
        total: Nat,
    },
    /// `rank` was called with a plan that is not part of this space.
    ForeignPlan {
        /// The first node that failed to resolve.
        at: PhysId,
    },
    /// Raw parts failed structural validation (the reason
    /// [`PlanSpace::from_parts`] or [`PreparedQuery::from_parts`] gave:
    /// tables of the wrong size, a best plan the memo does not hold), or
    /// a hand-built or stored memo's child lists would outgrow
    /// [`Links::build`]'s bound.
    MalformedParts {
        /// The first violated invariant.
        reason: String,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} outside the plan space of size {total}")
            }
            SpaceError::ForeignPlan { at } => {
                write!(f, "plan node {at} is not a member of this plan space")
            }
            SpaceError::MalformedParts { reason } => {
                write!(f, "malformed plan-space parts: {reason}")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

impl From<LinksError> for SpaceError {
    fn from(e: LinksError) -> Self {
        SpaceError::MalformedParts {
            reason: e.to_string(),
        }
    }
}

/// Top-level error for the whole pipeline: optimization, plan-space
/// construction, rank machinery, and plan execution.
///
/// Every layer's error converts into this type via `From`, and
/// [`std::error::Error::source`] exposes the underlying layer error, so
/// callers can both `?` across layers and walk the chain for diagnostics:
///
/// ```
/// use plansample::Error;
/// use std::error::Error as _;
///
/// let (catalog, _) = plansample_catalog::tpch::catalog();
/// let mut qb = plansample_query::QueryBuilder::new(&catalog);
/// qb.rel("nation", None).unwrap();
/// qb.rel("region", None).unwrap(); // no join edge: disconnected
/// let query = qb.build().unwrap();
///
/// let err = plansample::PreparedQuery::prepare(
///     &catalog,
///     &query,
///     &plansample_optimizer::OptimizerConfig::default(),
/// )
/// .unwrap_err();
/// assert!(matches!(err, Error::Opt(_)));
/// assert!(err.source().unwrap().to_string().contains("disconnected"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Optimization failed.
    Opt(OptError),
    /// Plan-space construction or rank machinery failed (e.g. a USEPLAN
    /// number out of range).
    Space(SpaceError),
    /// Plan execution failed.
    Exec(ExecError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Opt(_) => write!(f, "query optimization failed"),
            Error::Space(_) => write!(f, "plan-space operation failed"),
            Error::Exec(_) => write!(f, "plan execution failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Opt(e) => Some(e),
            Error::Space(e) => Some(e),
            Error::Exec(e) => Some(e),
        }
    }
}

impl From<OptError> for Error {
    fn from(e: OptError) -> Self {
        Error::Opt(e)
    }
}

impl From<SpaceError> for Error {
    fn from(e: SpaceError) -> Self {
        Error::Space(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

/// A fully prepared plan space: the memo plus materialized links (§3.1)
/// and exact counts (§3.2). All rank operations are methods on this type,
/// defined once; a [`PreparedQuery`] reaches them through `Deref`.
///
/// The space *owns* its memo and query (shared via [`Arc`]), so it can be
/// stored, cached, cloned cheaply-ish, and sent across threads — the
/// foundation of [`PreparedQuery`]. Use [`PlanSpace::build`] when you
/// hold borrowed inputs (they are cloned once), or
/// [`PlanSpace::build_shared`] to hand over already-shared ownership
/// without copying.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    pub(crate) memo: Arc<Memo>,
    pub(crate) query: Arc<QuerySpec>,
    pub(crate) links: Links,
    pub(crate) counts: Counts,
}

impl PlanSpace {
    /// Materializes links and computes counts — the paper's preparatory
    /// post-processing pass ("the overhead incurred by this kind of post
    /// processing is negligible": the tracked benchmark's
    /// `core.links.build_ms` and `core.count.compute_ms` rows against
    /// `optimizer.optimize_ms`, workload `build_q8cp`). Those rows time
    /// the standalone entry points, each of which scans the memo; a
    /// [`PreparedQuery::prepare`] scans it once, in the optimizer, and
    /// keeps the links that scan built.
    ///
    /// Clones `memo` and `query` into shared ownership; callers that
    /// already hold [`Arc`]s should prefer
    /// [`build_shared`](Self::build_shared).
    pub fn build(memo: &Memo, query: &QuerySpec) -> Result<Self, SpaceError> {
        PlanSpace::build_shared(Arc::new(memo.clone()), Arc::new(query.clone()))
    }

    /// Like [`build`](Self::build) but takes shared ownership directly,
    /// avoiding the memo copy — the path the artifact loader takes with
    /// the memo it decoded. The counts are a prepare's
    /// ([`Counts::compute`]): a decoded memo passed `Memo::from_parts`,
    /// which holds it to an optimizer's shape, so its counts are no
    /// wider than an optimizer's memo over as many relations can have.
    pub fn build_shared(memo: Arc<Memo>, query: Arc<QuerySpec>) -> Result<Self, SpaceError> {
        let links = Links::build(&memo, &query)?;
        let counts = Counts::compute(&links);
        Ok(PlanSpace {
            memo,
            query,
            links,
            counts,
        })
    }

    /// Assembles a plan space from components already built — the path
    /// of a prepare, which keeps the links its optimizer's scan built.
    /// Links are only ever a memo's own scan ([`Links::build`]); this
    /// constructor re-checks that they, the memo and the counts agree in
    /// size.
    pub fn from_parts(
        memo: Arc<Memo>,
        query: Arc<QuerySpec>,
        links: Links,
        counts: Counts,
    ) -> Result<Self, SpaceError> {
        if links.num_exprs() != memo.num_physical() {
            return Err(SpaceError::MalformedParts {
                reason: format!(
                    "links cover {} expressions but the memo holds {}",
                    links.num_exprs(),
                    memo.num_physical()
                ),
            });
        }
        if !counts.matches(&links) {
            return Err(SpaceError::MalformedParts {
                reason: "count tables do not match the links".into(),
            });
        }
        Ok(PlanSpace {
            memo,
            query,
            links,
            counts,
        })
    }

    /// `N`: the exact number of complete execution plans in the space.
    pub fn total(&self) -> &Nat {
        self.counts.total()
    }

    /// `N(v)`: plans rooted in a particular expression.
    ///
    /// # Panics
    /// Panics when `id` is not part of the underlying memo.
    pub fn count_rooted(&self, id: PhysId) -> Nat {
        self.counts.rooted(self.links.ids().dense(id))
    }

    /// Bytes of memory held by this plan space: the flat link and count
    /// buffers (exact, capacity-accurate) plus the shared memo and query.
    ///
    /// This is the size accounting [`service::ArtifactCache`]'s
    /// byte-budget eviction charges against; the shared memo is included
    /// because the space keeps it alive. The links and counts are inline
    /// in this struct, and each one's `size_bytes` counts its own struct,
    /// so that is subtracted once here.
    pub fn size_bytes(&self) -> usize {
        self.links.size_bytes() + self.counts.size_bytes() + self.memo.size_bytes()
            - std::mem::size_of::<Links>()
            - std::mem::size_of::<Counts>()
            + std::mem::size_of::<Self>()
    }

    /// The underlying memo.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// The query this space belongs to.
    pub fn query(&self) -> &QuerySpec {
        &self.query
    }

    /// The materialized links.
    pub fn links(&self) -> &Links {
        &self.links
    }

    /// The count tables (per-expression counts and per-list slot
    /// totals).
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// Which rung of the fixed-width tier ladder (`u64` → `u128` →
    /// exact `Nat`) the flat sampler runs on — a throughput property
    /// only; sampled content is tier-independent.
    pub fn tier(&self) -> CountTier {
        self.counts.tier()
    }

    /// Re-stores the counts on the slower rung `tier` of the ladder —
    /// a benchmarking and differential-testing seam for running a space
    /// in wider arithmetic than it needs (forcing a *faster* rung is a
    /// no-op). Every rank operation stays bit-identical across rungs,
    /// so forcing changes throughput and footprint, never results.
    pub fn force_tier(&mut self, tier: CountTier) {
        self.counts.force_tier(tier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_exposes_totals_and_members() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        assert_eq!(space.total().to_u64(), Some(32));
        assert_eq!(space.count_rooted(ex.hash_join_ab).to_u64(), Some(6));
        assert_eq!(space.memo().num_groups(), 5);
        assert_eq!(space.query().relations.len(), 3);
    }

    #[test]
    fn build_shared_avoids_the_copy() {
        let ex = paper_example::build();
        let memo = Arc::new(ex.memo);
        let query = Arc::new(ex.query);
        let space = PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap();
        assert!(Arc::ptr_eq(&space.memo, &memo));
        assert!(Arc::ptr_eq(&space.query, &query));
        // A clone of the space shares the same memo allocation.
        let cloned = space.clone();
        assert!(Arc::ptr_eq(&cloned.memo, &memo));
    }

    /// The space's own struct once, plus what its parts hold beyond
    /// their structs (the links and counts live inside the space's).
    #[test]
    fn size_bytes_counts_each_inline_struct_once() {
        use std::mem::size_of;
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let links_heap = space.links().size_bytes() - size_of::<Links>();
        let counts_heap = space.counts().size_bytes() - size_of::<Counts>();
        assert_eq!(
            space.size_bytes(),
            size_of::<PlanSpace>() + links_heap + counts_heap + space.memo().size_bytes()
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SpaceError::RankOutOfRange {
            rank: Nat::from(50u64),
            total: Nat::from(32u64),
        };
        let msg = e.to_string();
        assert!(msg.contains("50") && msg.contains("32"));
    }

    #[test]
    fn error_sources_chain_to_the_failing_layer() {
        use std::error::Error as _;
        let e = Error::Space(SpaceError::RankOutOfRange {
            rank: Nat::from(50u64),
            total: Nat::from(32u64),
        });
        let source = e.source().expect("layer error attached");
        assert!(source.to_string().contains("50"));
        let opt = Error::Opt(plansample_optimizer::OptError::DisconnectedQuery);
        assert!(opt.source().unwrap().to_string().contains("disconnected"));
    }
}
