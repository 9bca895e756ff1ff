//! End-to-end online recommendation engine.
//!
//! Wires the §IV pipeline together: prune candidates (top-k events per
//! partner) → take the pruned array over as the factored space (its scores
//! are the per-pair `C = u'ᵀx`; one shared row per distinct event and
//! partner) → build the TA index → serve top-n `(partner, event)`
//! recommendations per target user via either GEM-TA or GEM-BF.
//!
//! One query core serves every entry point: the plain engine's
//! [`RecommendationEngine::try_recommend_with`] and the churn-overlaid
//! [`crate::EngineSnapshot`] queries both call it, so user validation, the
//! delta-overlay merge and the `serve.*` metrics and spans exist once.

use crate::brute::{BruteForce, BruteScratch};
use crate::budget::{BuildError, BuildReport, MemBudget};
use crate::metrics::EngineMetrics;
use crate::prune::{unique, Candidates};
use crate::ta::{TaCompletion, TaIndex, TaScratch, TaSearch, TaStats};
use crate::transform::TransformedSpace;
use gem_core::math::dot;
use gem_core::GemModel;
use gem_ebsn::{EventId, UserId};
use gem_obs::{Gauge, Tracer};
use rayon::prelude::*;
use std::time::Instant;

/// Span-tracing configuration for the serving path.
///
/// Serving traffic is high-volume, so per-request spans are recorded in two
/// tiers: every query gets a bare `serve.ta` / `serve.bf` span (name +
/// duration only), and queries at or above [`ServeTracing::slow_query_ns`]
/// are *promoted* to full detail (user id, TA candidates scored, sorted-list
/// accesses) so the trace answers "why was this one slow" without paying
/// for argument packing on the fast path. `slow_query_ns == 0` promotes
/// everything (useful in tests and low-QPS debugging);
/// `slow_query_ns == u64::MAX` promotes nothing.
#[derive(Debug, Clone)]
pub struct ServeTracing {
    /// Destination for build and serve spans.
    pub tracer: Tracer,
    /// Queries lasting at least this many nanoseconds carry full arguments.
    pub slow_query_ns: u64,
}

impl ServeTracing {
    /// Tracing on, promoting queries at or above `slow_query_ns` to full
    /// detail.
    pub fn new(tracer: Tracer, slow_query_ns: u64) -> Self {
        Self { tracer, slow_query_ns }
    }

    /// No tracing: every span call is a no-op branch.
    pub fn disabled() -> Self {
        Self { tracer: Tracer::disabled(), slow_query_ns: u64::MAX }
    }
}

impl Default for ServeTracing {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A serving-path error. Serving errors are *per-query*: one bad request
/// must never take down the process (or poison a whole
/// [`RecommendationEngine::recommend_batch`] fan-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The queried user id is outside the model's user matrix. Real EBSN
    /// traffic produces these constantly (new signups, stale clients
    /// holding ids from a newer snapshot than the one serving).
    UnknownUser {
        /// The offending user id.
        user: UserId,
        /// Number of users the serving model knows about.
        num_users: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownUser { user, num_users } => {
                write!(f, "unknown user {user:?}: model has {num_users} users")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Retrieval method for [`RecommendationEngine::recommend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Threshold Algorithm (GEM-TA).
    Ta,
    /// Exhaustive scan (GEM-BF).
    BruteForce,
}

/// One recommended event-partner pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The suggested partner.
    pub partner: UserId,
    /// The suggested event.
    pub event: EventId,
    /// Eq. 8 ranking score.
    pub score: f32,
}

/// A deadline-bounded recommendation response: the (possibly pruned)
/// ranking plus how the query finished.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineRecommendations {
    /// Recommendations in descending score order. Under
    /// [`TaCompletion::Degraded`] this is a verified prefix of the exact
    /// top-n — possibly shorter than requested, never wrong.
    pub recommendations: Vec<Recommendation>,
    /// TA work counters for this query.
    pub stats: TaStats,
    /// Whether the deadline expired before the search proved exactness.
    pub completion: TaCompletion,
}

impl DeadlineRecommendations {
    /// True when the deadline expired and the result was pruned.
    pub fn is_degraded(&self) -> bool {
        self.completion == TaCompletion::Degraded
    }
}

/// Reusable per-thread serving state: the query vector, the TA working
/// memory and the brute-force score table. One instance per serving thread
/// removes all per-query allocation (beyond the returned result vector).
#[derive(Debug, Default)]
pub struct ServeScratch {
    q: Vec<f32>,
    ta: TaScratch,
    brute: BruteScratch,
}

impl ServeScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Close the build phase `name` that began at `t`: its wall-clock into
/// `gauge` and a `build` span, carrying `args`, onto `tracer`.
fn end_phase(
    tracer: &Tracer,
    gauge: &Gauge,
    name: &'static str,
    t: Instant,
    args: &[(&'static str, u64)],
) {
    let ns = t.elapsed().as_nanos() as u64;
    gauge.set(ns as f64);
    tracer.record_span(name, "build", tracer.now_ns().saturating_sub(ns), ns, args);
}

/// The tail of every engine build, one-shot or incremental: turn the
/// pruned `candidates` into the space, index it, account for both —
/// `build.*` spans on `tracing`'s tracer, phase timings and resident bytes
/// in the `build.*` gauges, and a hard byte check after each phase when
/// `limit` is set — and return the engine. `Err` is only reachable with a
/// limit.
pub(crate) fn index_candidates(
    model: GemModel,
    candidates: Candidates,
    top_k: usize,
    limit: Option<usize>,
    metrics: EngineMetrics,
    tracing: ServeTracing,
) -> Result<(RecommendationEngine, BuildReport), BuildError> {
    let check = |phase: &'static str, used: usize| match limit {
        Some(limit_bytes) if used > limit_bytes => {
            Err(BuildError::BudgetExceeded { phase, needed_bytes: used, limit_bytes })
        }
        _ => Ok(()),
    };
    let (tracer, t) = (&tracing.tracer, Instant::now());
    let space = TransformedSpace::from_candidates(&model, candidates);
    let pairs = [("pairs", space.len() as u64)];
    end_phase(tracer, &metrics.build_transform_ns, "build.transform", t, &pairs);
    let space_bytes = space.bytes();
    check("transform", space_bytes)?;

    // Build the TA index eagerly: an engine exists to be queried.
    let t = Instant::now();
    let index = TaIndex::build(&space);
    end_phase(tracer, &metrics.build_index_ns, "build.index", t, &pairs);
    let index_bytes = index.bytes();
    let total_bytes = space_bytes + index_bytes;
    check("index", total_bytes)?;

    metrics.build_candidate_pairs.set(space.len() as f64);
    metrics.build_space_bytes.set(space_bytes as f64);
    metrics.build_index_bytes.set(index_bytes as f64);
    metrics.build_total_bytes.set(total_bytes as f64);
    metrics.build_prune_k.set(top_k as f64);
    if let Some(limit_bytes) = limit {
        metrics.build_budget_limit_bytes.set(limit_bytes as f64);
    }
    let report = BuildReport {
        requested_k: top_k,
        effective_k: top_k,
        space_bytes,
        index_bytes,
        total_bytes,
        limit_bytes: limit,
    };
    Ok((RecommendationEngine { model, space, index, metrics, tracing }, report))
}

/// A ready-to-serve recommendation engine over a trained model.
///
/// The engine is built offline from a model snapshot, a partner pool, an
/// event pool (typically the upcoming/cold-start events) and the pruning
/// parameter `k`. A partner or event listed more than once is kept once, at
/// its first position, so every candidate pair is served at most once.
pub struct RecommendationEngine {
    pub(crate) model: GemModel,
    pub(crate) space: TransformedSpace,
    index: TaIndex,
    pub(crate) metrics: EngineMetrics,
    tracing: ServeTracing,
}

impl RecommendationEngine {
    /// Build the engine: prune, transform, index. No instrumentation and no
    /// byte ceiling; see [`Self::build_within_budget`] for both.
    pub fn build(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
    ) -> Self {
        let (metrics, tracing) = (EngineMetrics::disabled(), ServeTracing::disabled());
        let built =
            Self::build_phases(model, partners, events, top_k_events, None, metrics, tracing);
        built.expect("unbudgeted build cannot exceed a budget").0
    }

    /// Build under a hard memory ceiling (see [`MemBudget`]): the footprint
    /// is projected before any work and verified after every phase, so an
    /// over-budget build fails (or degrades `k`, per the policy) instead of
    /// silently blowing past `space_mib`. The returned [`BuildReport`]
    /// carries the per-component byte accounting; the same numbers land in
    /// the `build.*_bytes` gauges of `metrics`, beside the three phases'
    /// wall-clock. With `tracing` on, the phases emit `build.prune` /
    /// `build.transform` / `build.index` spans (category `build`), and every
    /// query served through the engine emits a `serve.*` span per
    /// [`ServeTracing`]'s two-tier policy.
    pub fn build_within_budget(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        budget: MemBudget,
        metrics: EngineMetrics,
        tracing: ServeTracing,
    ) -> Result<(Self, BuildReport), BuildError> {
        Self::build_phases(model, partners, events, top_k_events, Some(budget), metrics, tracing)
    }

    /// The build pipeline: dedupe the pools, resolve `k` against the
    /// budget, prune, then [`index_candidates`]. `Err` is only reachable
    /// with a budget.
    fn build_phases(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        budget: Option<MemBudget>,
        metrics: EngineMetrics,
        tracing: ServeTracing,
    ) -> Result<(Self, BuildReport), BuildError> {
        let (partners, events) = (unique(partners), unique(events));
        let (num_partners, num_events) = (partners.len(), events.len());
        let k = match budget {
            Some(b) => b.resolve_k(num_partners, num_events, model.dim, top_k_events)?,
            None => top_k_events,
        };
        let t = Instant::now();
        let candidates = Candidates::prune(&model, partners, &events, k);
        let pools = [("partners", num_partners as u64), ("events", num_events as u64)];
        end_phase(&tracing.tracer, &metrics.build_prune_ns, "build.prune", t, &pools);
        let limit = budget.map(|b| b.limit_bytes);
        let (engine, mut report) = index_candidates(model, candidates, k, limit, metrics, tracing)?;
        report.requested_k = top_k_events;
        Ok((engine, report))
    }

    /// The number of candidate pairs after pruning.
    pub fn num_candidates(&self) -> usize {
        self.space.len()
    }

    /// Approximate memory used by the transformed space, in bytes.
    pub fn space_bytes(&self) -> usize {
        self.space.bytes()
    }

    /// Approximate memory used by the TA index, in bytes.
    pub fn index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// The model the engine serves.
    pub fn model(&self) -> &GemModel {
        &self.model
    }

    /// Top-`n` event-partner recommendations for `user`. The user is never
    /// recommended as their own partner. Returns the recommendations and,
    /// for TA, the work counters (zeroed for brute force).
    ///
    /// Allocates fresh working memory per call; serving loops should hold a
    /// [`ServeScratch`] and call [`Self::recommend_with`], or use
    /// [`Self::recommend_batch`] which does so per thread.
    ///
    /// # Panics
    /// Panics if `user` is outside the model's user matrix; request paths
    /// that cannot guarantee validity should use [`Self::try_recommend_with`].
    pub fn recommend(
        &self,
        user: UserId,
        n: usize,
        method: Method,
    ) -> (Vec<Recommendation>, TaStats) {
        let mut scratch = ServeScratch::new();
        self.recommend_with(user, n, method, &mut scratch)
    }

    /// [`Self::recommend`] with caller-owned scratch: no per-query
    /// allocation beyond the returned recommendations once warm.
    ///
    /// # Panics
    /// Panics if `user` is outside the model's user matrix; use
    /// [`Self::try_recommend_with`] on untrusted request paths.
    pub fn recommend_with(
        &self,
        user: UserId,
        n: usize,
        method: Method,
        scratch: &mut ServeScratch,
    ) -> (Vec<Recommendation>, TaStats) {
        self.try_recommend_with(user, n, method, scratch)
            .unwrap_or_else(|e| panic!("recommend({user:?}): {e}"))
    }

    /// Fallible [`Self::recommend_with`]: an out-of-range user id is an
    /// [`Err`], not a panic. Records latency and TA work into the engine's
    /// metrics. Allocation-free beyond the returned recommendations once
    /// `scratch` is warm.
    pub fn try_recommend_with(
        &self,
        user: UserId,
        n: usize,
        method: Method,
        scratch: &mut ServeScratch,
    ) -> Result<(Vec<Recommendation>, TaStats), ServeError> {
        let found = self.serve(user, n, method, None, |p, _| p != user, &[], &[], scratch)?;
        Ok((found.recommendations, found.stats))
    }

    /// The query core behind every entry point: validate `user`, build the
    /// query vector, run `method` over the base pairs `filter` admits (TA
    /// stops early at `deadline`, see [`TaIndex::search`]), merge the delta
    /// overlay, record the `serve.*` metrics and span, and map the results
    /// to [`Recommendation`]s.
    ///
    /// The filter is generic so the plain engine's TA loop tests `p != user`
    /// alone. Delta pairs are scored with the base pairs' `A + B + C`
    /// decomposition, over the model rows the space's rows are copies of, so
    /// their scores compare bit for bit. A degraded search left base pairs
    /// unexamined, all of them at or below its cutoff: a delta pair joins
    /// the verified prefix only if it beats that bound too.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &self,
        user: UserId,
        n: usize,
        method: Method,
        deadline: Option<Instant>,
        filter: impl FnMut(UserId, EventId) -> bool,
        delta_pairs: &[(UserId, EventId)],
        delta_c: &[f32],
        scratch: &mut ServeScratch,
    ) -> Result<DeadlineRecommendations, ServeError> {
        let model = &self.model;
        if user.index() >= model.num_users() {
            self.metrics.invalid_users.inc();
            return Err(ServeError::UnknownUser { user, num_users: model.num_users() });
        }
        // Clock reads only when observability is on: the disabled path pays
        // one predictable branch.
        let traced = self.tracing.tracer.is_enabled();
        let started = if self.metrics.enabled || traced { Some(Instant::now()) } else { None };
        let span_start = if traced { self.tracing.tracer.now_ns() } else { 0 };
        TransformedSpace::query_vector_into(model, user, &mut scratch.q);
        let TaSearch { mut results, mut stats, completion, cutoff } = match method {
            Method::Ta => {
                self.index.search(&self.space, &scratch.q, n, filter, &mut scratch.ta, deadline)
            }
            Method::BruteForce => TaSearch {
                results: BruteForce::new(&self.space).top_n_with(
                    &scratch.q,
                    n,
                    filter,
                    &mut scratch.brute,
                ),
                stats: TaStats::default(),
                completion: TaCompletion::Exact,
                cutoff: f32::NEG_INFINITY,
            },
        };
        if !delta_pairs.is_empty() {
            let k = model.dim;
            let (u, qw) = (&scratch.q[0..k], scratch.q[2 * k]);
            for (&(p, x), &c) in delta_pairs.iter().zip(delta_c) {
                if p == user {
                    continue;
                }
                let score = dot(u, model.event_vec(x)) + dot(u, model.user_vec(p)) + c * qw;
                stats.scored += 1;
                if completion == TaCompletion::Exact || score > cutoff {
                    results.push((score, p, x));
                }
            }
            results.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
            results.truncate(n);
        }
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            if self.metrics.enabled {
                match method {
                    Method::Ta => {
                        self.metrics.query_ns_ta.record_duration(elapsed);
                        self.metrics.record_ta_work(&stats);
                    }
                    Method::BruteForce => self.metrics.query_ns_bf.record_duration(elapsed),
                }
                self.metrics.queries.inc();
                if deadline.is_some() {
                    self.metrics.deadline_queries.inc();
                    if completion == TaCompletion::Degraded {
                        self.metrics.degraded.inc();
                    }
                }
            }
            if traced {
                let ns = elapsed.as_nanos() as u64;
                let name = match method {
                    Method::Ta => "serve.ta",
                    Method::BruteForce => "serve.bf",
                };
                if ns >= self.tracing.slow_query_ns {
                    // Slow-query promotion: outliers carry full detail.
                    self.tracing.tracer.record_span(
                        name,
                        "serve",
                        span_start,
                        ns,
                        &[
                            ("user", user.index() as u64),
                            ("scored", stats.scored as u64),
                            ("sorted_accesses", stats.sorted_accesses as u64),
                        ],
                    );
                } else {
                    self.tracing.tracer.record_span(name, "serve", span_start, ns, &[]);
                }
            }
        }
        let recommendations = results
            .into_iter()
            .map(|(score, partner, event)| Recommendation { partner, event, score })
            .collect();
        Ok(DeadlineRecommendations { recommendations, stats, completion })
    }

    /// Serve many users at once, fanning the queries out across threads.
    ///
    /// Invalid users are *skipped and reported*: entry `i` of the output is
    /// `Err` exactly when `users[i]` is outside the model (also counted in
    /// the `serve.invalid_users` metric); one malformed id never poisons
    /// the rest of the batch.
    ///
    /// Each thread reuses one [`ServeScratch`] across the queries it owns,
    /// and users are assigned to threads as contiguous runs, so the output
    /// is exactly [`Self::try_recommend_with`] per user in order —
    /// bit-identical at any thread count, including one.
    pub fn recommend_batch(
        &self,
        users: &[UserId],
        n: usize,
        method: Method,
    ) -> Vec<Result<(Vec<Recommendation>, TaStats), ServeError>> {
        users
            .par_iter()
            .with_min_len(8)
            .map_init(ServeScratch::new, |scratch, &user| {
                self.try_recommend_with(user, n, method, scratch)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::toy_model;
    use crate::{EngineSnapshot, IncrementalEngine};
    use std::time::Duration;

    fn engine(k: usize) -> RecommendationEngine {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        RecommendationEngine::build(model, &partners, &events, k)
    }

    /// `engine(2)` with `metrics` and `tracing`, under a roomy budget.
    fn observed_engine(metrics: EngineMetrics, tracing: ServeTracing) -> RecommendationEngine {
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let budget = MemBudget::fail_at_mib(64);
        let build = RecommendationEngine::build_within_budget(
            toy_model(),
            &partners,
            &events,
            2,
            budget,
            metrics,
            tracing,
        );
        build.expect("the toy engine fits 64 MiB").0
    }

    #[test]
    fn ta_and_brute_force_agree() {
        let e = engine(2);
        for u in 0..3u32 {
            let (ta, _) = e.recommend(UserId(u), 3, Method::Ta);
            let (bf, _) = e.recommend(UserId(u), 3, Method::BruteForce);
            assert_eq!(ta.len(), bf.len());
            // Both methods score through `TransformedSpace::score`.
            for (a, b) in ta.iter().zip(&bf) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "u={u}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn target_user_is_never_their_own_partner() {
        let e = engine(2);
        for u in 0..3u32 {
            let (recs, _) = e.recommend(UserId(u), 10, Method::Ta);
            assert!(recs.iter().all(|r| r.partner != UserId(u)));
        }
    }

    #[test]
    fn pruning_shrinks_the_candidate_space() {
        let full = engine(2); // 3 partners × 2 events = 6
        let pruned = engine(1); // 3 partners × 1 event = 3
        assert_eq!(full.num_candidates(), 6);
        assert_eq!(pruned.num_candidates(), 3);
        assert!(pruned.space_bytes() < full.space_bytes());
    }

    #[test]
    fn recommendations_are_sorted() {
        let e = engine(2);
        let (recs, _) = e.recommend(UserId(0), 4, Method::BruteForce);
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn ta_reports_work_stats() {
        let e = engine(2);
        let (_, stats) = e.recommend(UserId(0), 2, Method::Ta);
        assert!(stats.scored > 0);
        assert!(stats.sorted_accesses > 0);
        let (_, stats_bf) = e.recommend(UserId(0), 2, Method::BruteForce);
        assert_eq!(stats_bf, TaStats::default());
    }

    #[test]
    fn batch_equals_sequential_on_toy_model() {
        let e = engine(2);
        let users: Vec<UserId> = (0..3).map(UserId).collect();
        for method in [Method::Ta, Method::BruteForce] {
            let batch = e.recommend_batch(&users, 3, method);
            assert_eq!(batch.len(), users.len());
            for (&u, got) in users.iter().zip(&batch) {
                let want = e.recommend(u, 3, method);
                assert_eq!(*got, Ok(want), "user {u:?}");
            }
        }
    }

    #[test]
    fn batch_on_empty_user_list() {
        let e = engine(2);
        assert!(e.recommend_batch(&[], 3, Method::Ta).is_empty());
    }

    // --- regression: out-of-range users must not crash the serving path ---

    #[test]
    fn try_recommend_rejects_out_of_range_user() {
        let e = engine(2); // model has users 0..3
        for method in [Method::Ta, Method::BruteForce] {
            let err =
                e.try_recommend_with(UserId(3), 5, method, &mut ServeScratch::new()).unwrap_err();
            assert_eq!(err, ServeError::UnknownUser { user: UserId(3), num_users: 3 });
            let err = e
                .try_recommend_with(UserId(u32::MAX), 5, method, &mut ServeScratch::new())
                .unwrap_err();
            assert!(matches!(err, ServeError::UnknownUser { .. }));
            assert!(err.to_string().contains("unknown user"));
        }
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn infallible_recommend_panics_with_context() {
        let e = engine(2);
        e.recommend(UserId(99), 5, Method::Ta);
    }

    #[test]
    fn batch_skips_and_reports_invalid_users() {
        let e = engine(2);
        // One bad id in the middle must not poison the batch.
        let users = [UserId(0), UserId(77), UserId(2), UserId(3)];
        for method in [Method::Ta, Method::BruteForce] {
            let batch = e.recommend_batch(&users, 3, method);
            assert_eq!(batch.len(), 4);
            assert_eq!(batch[0], Ok(e.recommend(UserId(0), 3, method)));
            assert_eq!(batch[1], Err(ServeError::UnknownUser { user: UserId(77), num_users: 3 }));
            assert_eq!(batch[2], Ok(e.recommend(UserId(2), 3, method)));
            assert_eq!(batch[3], Err(ServeError::UnknownUser { user: UserId(3), num_users: 3 }));
        }
    }

    #[test]
    fn invalid_users_are_counted_in_metrics() {
        let reg = gem_obs::MetricsRegistry::new();
        let e = observed_engine(EngineMetrics::register(&reg), ServeTracing::disabled());
        let users = [UserId(0), UserId(50), UserId(1), UserId(60)];
        let batch = e.recommend_batch(&users, 3, Method::Ta);
        assert_eq!(batch.iter().filter(|r| r.is_err()).count(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.invalid_users"), 2);
        assert_eq!(snap.counter("serve.queries"), 2);
        assert_eq!(snap.histogram("serve.query_ns.ta").unwrap().count, 2);
        assert!(snap.counter("serve.ta_scored") > 0);
        // One sample per answered TA query; rejected users record none.
        assert_eq!(snap.histogram("serve.ta_scored_per_query").unwrap().count, 2);
        assert_eq!(snap.histogram("serve.ta_sorted_accesses_per_query").unwrap().count, 2);
        assert!(snap.gauge("build.candidate_pairs") > 0.0);
    }

    // --- memory-budgeted builds ---

    #[test]
    fn budgeted_build_reports_actual_bytes_and_keeps_k() {
        let reg = gem_obs::MetricsRegistry::new();
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let (e, report) = RecommendationEngine::build_within_budget(
            model,
            &partners,
            &events,
            2,
            MemBudget::fail_at_mib(64),
            crate::EngineMetrics::register(&reg),
            ServeTracing::disabled(),
        )
        .unwrap();
        assert_eq!(report.requested_k, 2);
        assert_eq!(report.effective_k, 2);
        assert_eq!(report.space_bytes, e.space_bytes());
        assert_eq!(report.index_bytes, e.index_bytes());
        assert_eq!(report.total_bytes, report.space_bytes + report.index_bytes);
        assert_eq!(report.limit_bytes, Some(64 << 20));
        assert!(report.total_bytes <= 64 << 20);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("build.space_bytes"), e.space_bytes() as f64);
        assert_eq!(snap.gauge("build.index_bytes"), e.index_bytes() as f64);
        assert_eq!(snap.gauge("build.total_bytes"), report.total_bytes as f64);
        assert_eq!(snap.gauge("build.budget_limit_bytes"), (64 << 20) as f64);
        assert_eq!(snap.gauge("build.prune_k"), 2.0);
        // The budgeted engine serves like any other.
        let (recs, _) = e.recommend(UserId(0), 2, Method::Ta);
        assert!(!recs.is_empty());
    }

    #[test]
    fn fail_policy_refuses_an_oversized_build() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let budget = MemBudget { limit_bytes: 16, policy: crate::BudgetPolicy::Fail };
        let result = RecommendationEngine::build_within_budget(
            model,
            &partners,
            &events,
            2,
            budget,
            crate::EngineMetrics::disabled(),
            ServeTracing::disabled(),
        );
        let Err(err) = result else { panic!("oversized build must fail") };
        let BuildError::BudgetExceeded { phase, needed_bytes, limit_bytes } = err;
        assert_eq!(phase, "projection");
        assert_eq!(limit_bytes, 16);
        assert!(needed_bytes > 16);
    }

    #[test]
    fn degrade_policy_shrinks_k_until_the_build_fits() {
        use rand::RngExt;
        let dim = 8;
        let (nu, nx) = (80usize, 40usize);
        let mut rng = gem_sampling::rng_from_seed(43);
        let users: Vec<f32> = (0..nu * dim).map(|_| rng.random::<f32>()).collect();
        let events: Vec<f32> = (0..nx * dim).map(|_| rng.random::<f32>()).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let partners: Vec<UserId> = (0..nu as u32).map(UserId).collect();
        let ev: Vec<EventId> = (0..nx as u32).map(EventId).collect();
        // Roomy enough for a few events per partner, far too small for 40.
        let limit = crate::budget::Projection::new(nu, nx, dim, 5).total();
        let budget = MemBudget { limit_bytes: limit, policy: crate::BudgetPolicy::DegradeK };
        let (e, report) = RecommendationEngine::build_within_budget(
            model,
            &partners,
            &ev,
            nx,
            budget,
            crate::EngineMetrics::disabled(),
            ServeTracing::disabled(),
        )
        .unwrap();
        assert_eq!(report.requested_k, nx);
        assert_eq!(report.effective_k, 5);
        assert!(report.total_bytes <= limit, "{} > {limit}", report.total_bytes);
        assert_eq!(e.num_candidates(), nu * 5);
        // Degraded, but still a working engine.
        let (recs, _) = e.recommend(UserId(0), 5, Method::Ta);
        assert_eq!(recs.len(), 5);
    }

    // --- deadline-degraded serving, through an unchurned snapshot ---

    /// An engine over every user and event of `model` at k = all events,
    /// and the snapshot of an unchurned incremental engine over the same.
    fn engine_and_snapshot(
        model: GemModel,
        metrics: EngineMetrics,
    ) -> (RecommendationEngine, EngineSnapshot) {
        let partners: Vec<UserId> = (0..model.num_users() as u32).map(UserId).collect();
        let events: Vec<EventId> = (0..model.num_events() as u32).map(EventId).collect();
        let k = events.len();
        let inc = IncrementalEngine::build(model.clone(), &partners, &events, k, metrics);
        (RecommendationEngine::build(model, &partners, &events, k), inc.snapshot())
    }

    fn signed_model(nu: u32, nx: u32) -> GemModel {
        use rand::RngExt;
        let dim = 8;
        let mut rng = gem_sampling::rng_from_seed(41);
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        GemModel::from_raw(dim, users, events, vec![], vec![], vec![])
    }

    #[test]
    fn generous_deadline_matches_exact_ta() {
        let (e, snap) = engine_and_snapshot(signed_model(60, 20), EngineMetrics::disabled());
        let mut s = ServeScratch::new();
        for u in [0u32, 17, 59] {
            let budget = Duration::from_secs(60);
            let got = snap.try_top_n_deadline(UserId(u), 10, budget, &mut s).unwrap();
            let (exact, stats) = e.try_recommend_with(UserId(u), 10, Method::Ta, &mut s).unwrap();
            assert_eq!(got.completion, crate::TaCompletion::Exact, "u={u}");
            assert!(!got.is_degraded());
            assert_eq!(got.recommendations, exact, "u={u}");
            assert_eq!(got.stats, stats, "u={u}");
        }
    }

    #[test]
    fn zero_budget_degrades_to_a_prefix_of_the_exact_ranking() {
        let (e, snap) = engine_and_snapshot(signed_model(200, 60), EngineMetrics::disabled());
        let mut s = ServeScratch::new();
        let mut degraded = 0;
        for u in 0..10u32 {
            let got = snap.try_top_n_deadline(UserId(u), 20, Duration::ZERO, &mut s).unwrap();
            let (exact, _) = e.try_recommend_with(UserId(u), 20, Method::Ta, &mut s).unwrap();
            assert!(got.recommendations.len() <= exact.len(), "u={u}");
            for (i, (g, x)) in got.recommendations.iter().zip(&exact).enumerate() {
                assert_eq!(g.score.to_bits(), x.score.to_bits(), "u={u} rank {i}: {g:?} vs {x:?}");
            }
            if got.is_degraded() {
                degraded += 1;
            } else {
                assert_eq!(got.recommendations, exact, "u={u}");
            }
        }
        assert!(degraded > 0, "zero budget never degraded a query on a 12k-pair space");
    }

    #[test]
    fn deadline_queries_and_degradations_are_counted() {
        let reg = gem_obs::MetricsRegistry::new();
        let (_, snap) = engine_and_snapshot(toy_model(), EngineMetrics::register(&reg));
        let mut s = ServeScratch::new();
        let mut degraded = 0u64;
        for u in 0..3u32 {
            let got = snap.try_top_n_deadline(UserId(u), 3, Duration::from_secs(60), &mut s);
            degraded += got.unwrap().is_degraded() as u64;
        }
        assert!(snap.try_top_n_deadline(UserId(99), 3, Duration::from_secs(1), &mut s).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.deadline_queries"), 3);
        assert_eq!(snap.counter("serve.degraded"), degraded);
        assert_eq!(snap.counter("serve.queries"), 3);
        assert_eq!(snap.counter("serve.invalid_users"), 1);
    }

    /// Regression: a zero/expired budget must come back as a well-formed
    /// empty `Degraded` response — not an unpolled full TA round — and the
    /// expiry must land in `serve.degraded`. Before the fix the deadline
    /// was first polled after 7 full rounds, so tiny spaces finished Exact
    /// and the degradation counter stayed at zero under hard overload.
    #[test]
    fn expired_deadline_is_empty_degraded_and_counted() {
        let reg = gem_obs::MetricsRegistry::new();
        let (_, snap) = engine_and_snapshot(toy_model(), EngineMetrics::register(&reg));
        let mut s = ServeScratch::new();
        for u in 0..3u32 {
            let got = snap.try_top_n_deadline(UserId(u), 3, Duration::ZERO, &mut s).unwrap();
            assert!(got.is_degraded(), "u={u}: zero budget served {got:?}");
            assert!(got.recommendations.is_empty(), "u={u}");
            assert_eq!(got.stats, TaStats::default(), "u={u}");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.deadline_queries"), 3);
        assert_eq!(snap.counter("serve.degraded"), 3);
    }

    /// Regression: a partner listed twice put each of its pairs into the
    /// candidate set twice, so one top-n served the same pair twice —
    /// through TA, brute force and a snapshot alike. Repeats are dropped
    /// before pruning, keeping the first occurrence.
    #[test]
    fn repeated_partner_serves_each_pair_once() {
        let pool = [UserId(1), UserId(2), UserId(1)];
        let events = [EventId(0), EventId(1)];
        let e = RecommendationEngine::build(toy_model(), &pool, &events, 2);
        let unique = RecommendationEngine::build(toy_model(), &pool[..2], &events, 2);
        for method in [Method::Ta, Method::BruteForce] {
            let want = unique.recommend(UserId(0), 6, method);
            assert_eq!(e.recommend(UserId(0), 6, method), want, "{method:?}");
        }
        let inc =
            IncrementalEngine::build(toy_model(), &pool, &events, 2, EngineMetrics::disabled());
        let got = inc.snapshot().try_top_n(UserId(0), 6, &mut ServeScratch::new()).unwrap();
        assert_eq!(got, unique.recommend(UserId(0), 6, Method::Ta).0);
        assert_eq!(e.num_candidates(), 4);
    }

    /// Regression: an event listed twice filled two of a partner's top-k
    /// slots, so TA and brute force served that pair twice and pushed a
    /// real candidate out. Repeats are dropped where partners' are, before
    /// the budget sees the pool.
    #[test]
    fn repeated_event_serves_each_pair_once() {
        let partners = [UserId(1), UserId(2)];
        let pool = [EventId(0), EventId(0), EventId(1)];
        let e = RecommendationEngine::build(toy_model(), &partners, &pool, 2);
        let unique = RecommendationEngine::build(toy_model(), &partners, &pool[1..], 2);
        for method in [Method::Ta, Method::BruteForce] {
            let want = unique.recommend(UserId(0), 4, method);
            assert_eq!(e.recommend(UserId(0), 4, method), want, "{method:?}");
        }
        assert_eq!(e.num_candidates(), 4);
        // The budget projects the deduplicated pool: k = 3 over two
        // distinct events fits a ceiling sized for k = 2.
        let limit = crate::budget::Projection::new(2, 2, 2, 2).total();
        let budget = MemBudget { limit_bytes: limit, policy: crate::BudgetPolicy::Fail };
        let metrics = EngineMetrics::disabled();
        let tracing = ServeTracing::disabled();
        let built = RecommendationEngine::build_within_budget(
            toy_model(),
            &partners,
            &pool,
            3,
            budget,
            metrics,
            tracing,
        );
        assert!(built.is_ok(), "{:?}", built.err());
    }

    // --- span tracing: build phases + two-tier per-query spans ---

    fn traced_engine(slow_query_ns: u64) -> (RecommendationEngine, gem_obs::Tracer) {
        let tracer = gem_obs::Tracer::new();
        let tracing = ServeTracing::new(tracer.clone(), slow_query_ns);
        (observed_engine(EngineMetrics::disabled(), tracing), tracer)
    }

    #[test]
    fn build_emits_one_span_per_phase() {
        let (_e, tracer) = traced_engine(u64::MAX);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        let names: Vec<&str> = sink.events().iter().map(|ev| ev.name).collect();
        assert_eq!(names, ["build.prune", "build.transform", "build.index"]);
        assert!(sink.events().iter().all(|ev| ev.cat == "build"));
        // Pair counts ride on the transform/index spans.
        assert_eq!(sink.events()[1].args, [("pairs", 6)]);
        assert_eq!(sink.events()[2].args, [("pairs", 6)]);
        assert_eq!(sink.events()[0].args, [("partners", 3), ("events", 2)]);
    }

    #[test]
    fn slow_query_threshold_zero_promotes_every_span_to_full_detail() {
        let (e, tracer) = traced_engine(0);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer); // discard build spans
        e.recommend(UserId(1), 3, Method::Ta);
        e.recommend(UserId(2), 3, Method::BruteForce);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        assert_eq!(sink.events().len(), 2);
        let ta = &sink.events()[0];
        assert_eq!((ta.name, ta.cat), ("serve.ta", "serve"));
        assert_eq!(ta.args[0], ("user", 1));
        assert!(ta.args.iter().any(|&(k, v)| k == "scored" && v > 0));
        assert!(ta.args.iter().any(|&(k, v)| k == "sorted_accesses" && v > 0));
        let bf = &sink.events()[1];
        assert_eq!((bf.name, bf.cat), ("serve.bf", "serve"));
        assert_eq!(bf.args, [("user", 2), ("scored", 0), ("sorted_accesses", 0)]);
    }

    #[test]
    fn fast_queries_record_bare_spans_below_the_slow_threshold() {
        let (e, tracer) = traced_engine(u64::MAX);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer); // discard build spans
        for u in 0..3u32 {
            e.recommend(UserId(u), 3, Method::Ta);
        }
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        assert_eq!(sink.events().len(), 3);
        for ev in sink.events() {
            assert_eq!((ev.name, ev.cat), ("serve.ta", "serve"));
            assert!(ev.args.is_empty(), "fast-path span must carry no args");
        }
    }

    #[test]
    fn traced_results_match_untraced_results() {
        let (traced, _tracer) = traced_engine(0);
        let plain = engine(2);
        for u in 0..3u32 {
            for method in [Method::Ta, Method::BruteForce] {
                assert_eq!(
                    traced.recommend(UserId(u), 3, method),
                    plain.recommend(UserId(u), 3, method)
                );
            }
        }
    }

    /// A valid user whose id equals the partner-pool size: every candidate
    /// survives the self-filter, the query must serve (not index into the
    /// partner pool).
    #[test]
    fn user_id_equal_to_partner_pool_size_serves() {
        let model = toy_model(); // 3 users
        let partners = [UserId(0), UserId(1)]; // pool size 2
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build(model, &partners, &events, 2);
        // UserId(2) == partner pool len, still a valid model user.
        let (recs, _) =
            e.try_recommend_with(UserId(2), 10, Method::Ta, &mut ServeScratch::new()).unwrap();
        assert_eq!(recs.len(), 4); // 2 partners × 2 events, none filtered
        assert!(recs.iter().all(|r| r.partner != UserId(2)));
    }

    /// The target user is the *only* partner in the pool: the self-filter
    /// removes every candidate — empty result, not a crash.
    #[test]
    fn sole_partner_user_gets_empty_results() {
        let model = toy_model();
        let partners = [UserId(1)];
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build(model, &partners, &events, 2);
        for method in [Method::Ta, Method::BruteForce] {
            let (recs, _) =
                e.try_recommend_with(UserId(1), 10, method, &mut ServeScratch::new()).unwrap();
            assert!(recs.is_empty(), "{method:?}");
        }
    }

    // --- regression: NaN/∞ model rows must not panic engine build or TA ---

    /// Engine built from a model containing NaN and ∞ rows: builds, serves
    /// both methods, never panics. NaN placement is deterministic
    /// (`f32::total_cmp`: +NaN above +∞, -NaN below -∞), so corrupted rows
    /// float to the top or sink to the bottom instead of aborting.
    #[test]
    fn nan_and_inf_rows_serve_without_panicking() {
        let dim = 2;
        let mut users = vec![0.5f32; 6 * dim];
        let mut events = vec![0.25f32; 3 * dim];
        users[2] = f32::NAN; // user 1 row poisoned
        users[3] = f32::NAN;
        users[4] = f32::INFINITY; // user 2 row diverged
        events[2] = f32::NEG_INFINITY; // event 1 diverged
        events[4] = f32::NAN; // event 2 poisoned
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let partners: Vec<UserId> = (0..6).map(UserId).collect();
        let ev: Vec<EventId> = (0..3).map(EventId).collect();
        // Build runs prune + transform + index over NaN/∞ scores.
        let e = RecommendationEngine::build(model, &partners, &ev, 3);
        for u in 0..6u32 {
            for method in [Method::Ta, Method::BruteForce] {
                let (recs, _) =
                    e.try_recommend_with(UserId(u), 5, method, &mut ServeScratch::new()).unwrap();
                assert!(recs.len() <= 5);
                assert!(recs.iter().all(|r| r.partner != UserId(u)));
            }
        }
        // Querying from a NaN user row: every score is NaN; still no panic,
        // and results are deterministic across repeated queries.
        let (a, _) =
            e.try_recommend_with(UserId(1), 5, Method::Ta, &mut ServeScratch::new()).unwrap();
        let (b, _) =
            e.try_recommend_with(UserId(1), 5, Method::Ta, &mut ServeScratch::new()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.partner, x.event), (y.partner, y.event));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gem_core::GemModel;
    use proptest::prelude::*;
    use rand::RngExt;

    proptest! {
        /// `recommend_batch` is exactly the per-user sequential
        /// `recommend`, for both methods, on random models at serving
        /// scale (≥50 users, ≥20 events).
        #[test]
        fn batch_equals_sequential(
            dim in 2usize..5,
            nu in 50u32..60,
            nx in 20u32..26,
            k in 1usize..8,
            n in 1usize..8,
            seed in 0u64..1000,
        ) {
            let mut rng = gem_sampling::rng_from_seed(seed);
            let users_m: Vec<f32> =
                (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
            let events_m: Vec<f32> =
                (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
            let model = GemModel::from_raw(dim, users_m, events_m, vec![], vec![], vec![]);
            let partners: Vec<UserId> = (0..nu).map(UserId).collect();
            let events: Vec<EventId> = (0..nx).map(EventId).collect();
            let e = RecommendationEngine::build(model, &partners, &events, k);
            let targets: Vec<UserId> = (0..nu).step_by(7).map(UserId).collect();
            for method in [Method::Ta, Method::BruteForce] {
                let batch = e.recommend_batch(&targets, n, method);
                prop_assert_eq!(batch.len(), targets.len());
                for (&u, got) in targets.iter().zip(&batch) {
                    let want = Ok(e.recommend(u, n, method));
                    prop_assert_eq!(got, &want, "user {:?} method {:?}", u, method);
                }
            }
        }
    }
}
