//! Online event-partner recommendation (§IV of the paper).
//!
//! The triple score `f(u, u', x) ∝ u·x + u'·x + u·u'` is not a dot product
//! between `u` and `(x, u')`, so off-the-shelf top-k inner-product machinery
//! does not apply directly. The paper's fix, implemented here:
//!
//! 1. [`transform`] — map each candidate pair `(x, u')` to the point
//!    `p = (x, u', u'ᵀx)` in a `2K+1`-dimensional space, and the target
//!    user to the query `q = (u, u, 1)`; then `q·p` equals the triple score
//!    exactly. The points are stored factored — per pair its `u'ᵀx` and
//!    event row (8 bytes), one shared row per distinct event and partner —
//!    and the space owns the one scoring expression `A + B + C`.
//! 2. [`prune`] — keep only each partner's top-k events as candidate pairs
//!    (a partner won't accept an invitation to an event they dislike),
//!    shrinking the space from `|U|·|X|` to `|U|·k`. The output,
//!    [`Candidates`], is partner-major with a fixed stride and its scores
//!    are the `u'ᵀx`, so the space takes it over as is.
//! 3. [`ta`] — Fagin's Threshold Algorithm over composite sorted lists:
//!    the exact top-n while touching a small fraction of points. The index
//!    holds only the orderings the space does not imply (8 bytes a pair).
//! 4. [`brute`] — the exhaustive scorer over the same factored space, used
//!    as the GEM-BF baseline and as the correctness oracle for TA.
//! 5. [`engine`] — the end-to-end [`RecommendationEngine`]: one build
//!    ([`RecommendationEngine::build`], or
//!    [`RecommendationEngine::build_within_budget`] with a byte ceiling,
//!    metrics and tracing) and one query core behind
//!    [`RecommendationEngine::try_recommend_with`] (fallible, for untrusted
//!    request traffic) and its infallible and batch wrappers.
//! 6. [`incremental`] — incremental TA-index maintenance under event
//!    churn: an [`IncrementalEngine`] master absorbs add/retire operations
//!    into small removed/delta overlays (a delta pair carries its
//!    `u'ᵀx` only) over an immutable base engine and publishes cheap
//!    [`EngineSnapshot`]s for concurrent serving, falling back to a full
//!    rebuild past a staleness budget. A snapshot query runs the base
//!    engine's query core; [`EngineSnapshot::try_top_n_deadline`] degrades
//!    to a verified prefix of the top-n instead of blowing its time budget.
//! 7. [`budget`] — memory-budgeted construction: [`MemBudget`] turns the
//!    reported space number into a hard ceiling enforced during
//!    [`RecommendationEngine::build_within_budget`], either failing or
//!    degrading the pruning parameter `k` when the projection exceeds it.
//! 8. [`metrics`] — pre-registered gem-obs handles ([`EngineMetrics`]) for
//!    per-query latency, TA work counters and build-phase timings; for
//!    time-resolved views, [`ServeTracing`] passed to
//!    [`RecommendationEngine::build_within_budget`] additionally emits
//!    `build.*` and `serve.*` spans into a `gem_obs::Tracer` (two-tier:
//!    slow queries are promoted to full argument detail).
//!
//! # Degenerate scores
//!
//! All score orderings use [`f32::total_cmp`], so an engine built from a
//! model containing NaN or ±∞ rows (diverged training, corrupted snapshot)
//! builds and serves deterministically instead of panicking: in every
//! descending ranking +NaN sorts above +∞ and -NaN below -∞.

#![warn(missing_docs)]

pub mod brute;
pub mod budget;
pub mod engine;
pub mod incremental;
pub mod metrics;
pub mod prune;
pub mod ta;
pub mod transform;

pub use brute::{BruteForce, BruteScratch};
pub use budget::{BudgetPolicy, BuildError, BuildReport, MemBudget};
pub use engine::{
    DeadlineRecommendations, Method, Recommendation, RecommendationEngine, ServeError,
    ServeScratch, ServeTracing,
};
pub use incremental::{EngineSnapshot, IncrementalEngine, MaintError};
pub use metrics::EngineMetrics;
pub use prune::{top_k_events_per_partner, Candidates};
pub use ta::{TaCompletion, TaIndex, TaScratch, TaStats};
pub use transform::TransformedSpace;
