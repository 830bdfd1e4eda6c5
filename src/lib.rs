//! Umbrella crate for the plansample workspace: the single `use
//! plansample::...` surface downstream code imports, plus the home of the
//! cross-crate integration tests in `tests/` and the runnable
//! `examples/`.
//!
//! Everything here is a re-export of [`plansample_core`], which implements
//! the paper's post-optimization machinery over the MEMO:
//!
//! * [`PreparedQuery`] — the owned, `Send + Sync` artifact produced once
//!   per query: counting, the rank/unrank bijection, resumable
//!   enumeration cursors ([`PlanCursor`]), and batched uniform sampling,
//!   all with zero re-optimization;
//! * [`ArtifactCache`] — the concurrent serving surface: a bounded,
//!   singleflighted LRU of prepared queries under keys its caller builds
//!   (the server keys one for every workload it serves), and
//!   [`PlanService`], that cache over one catalog, keyed by normalized
//!   query + optimizer config;
//! * [`PlanSpace`] — the lower-level owned plan space the artifact wraps;
//! * [`lower`] — turning an unranked plan into an executable operator
//!   tree;
//! * [`validate`] — [`PlanSpace::execute`], which runs one plan (the
//!   `USEPLAN` SQL option behind the CLI's `run`), and the paper's
//!   differential-testing application built on it;
//! * [`Error`] — the unified error type with `source()` chains across
//!   every layer.
//!
//! See the workspace `README.md` for the crate map and
//! `docs/ARCHITECTURE.md` for how the paper's concepts land in modules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use plansample_core::*;
