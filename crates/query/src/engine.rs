//! End-to-end online recommendation facade.
//!
//! Wires the §IV pipeline together: prune candidates (top-k events per
//! partner) → transform to the `2K+1` space → build the TA index → serve
//! top-n `(partner, event)` recommendations per target user via either
//! GEM-TA or GEM-BF.

use crate::brute::{BruteForce, BruteScratch};
use crate::budget::{BuildError, BuildReport, MemBudget};
use crate::metrics::EngineMetrics;
use crate::prune::top_k_events_per_partner;
use crate::ta::{TaCompletion, TaIndex, TaScratch, TaStats};
use crate::transform::TransformedSpace;
use gem_core::{Checkpointer, GemModel, PersistError};
use gem_ebsn::{EventId, UserId};
use gem_obs::Tracer;
use rayon::prelude::*;
use std::time::{Duration, Instant};

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

/// Where [`RecommendationEngine::build_from_checkpoints`] got its model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointProvenance {
    /// The checkpoint generation the serving model came from.
    pub generation: u64,
    /// Newer generations that were skipped because they failed validation
    /// (torn write, checksum mismatch); empty on the happy path.
    pub skipped: Vec<u64>,
}

/// Reusable per-thread serving state: the query vector, the TA working
/// memory and the brute-force score table. One instance per serving thread
/// removes all per-query allocation (beyond the returned result vector).
#[derive(Debug, Default)]
pub struct ServeScratch {
    pub(crate) q: Vec<f32>,
    pub(crate) ta: TaScratch,
    pub(crate) brute: BruteScratch,
}

impl ServeScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Start of a phase that began at `t`, on `tracer`'s clock.
fn phase_start(tracer: &Tracer, t: &Instant) -> u64 {
    tracer.now_ns().saturating_sub(t.elapsed().as_nanos() as u64)
}

/// The tail of every engine build, one-shot or incremental: transform the
/// pruned `candidates`, index the space, and account for both — `build.*`
/// spans on `tracer`, phase timings and resident bytes in the `build.*`
/// gauges, and a hard byte check after each phase when `limit` is set.
/// `Err` is only reachable with a limit.
pub(crate) fn index_candidates(
    model: &GemModel,
    candidates: &[(UserId, EventId)],
    top_k: usize,
    limit: Option<usize>,
    metrics: &EngineMetrics,
    tracer: &Tracer,
) -> Result<(TransformedSpace, TaIndex, BuildReport), BuildError> {
    let check = |phase: &'static str, used: usize| match limit {
        Some(limit_bytes) if used > limit_bytes => {
            Err(BuildError::BudgetExceeded { phase, needed_bytes: used, limit_bytes })
        }
        _ => Ok(()),
    };
    let candidate_bytes = std::mem::size_of_val(candidates);
    check("prune", candidate_bytes)?;

    let t1 = Instant::now();
    let space = TransformedSpace::build(model, candidates);
    let transform_ns = t1.elapsed().as_nanos() as u64;
    metrics.build_transform_ns.set(transform_ns as f64);
    tracer.record_span(
        "build.transform",
        "build",
        phase_start(tracer, &t1),
        transform_ns,
        &[("pairs", space.len() as u64)],
    );
    let space_bytes = space.bytes();
    check("transform", candidate_bytes + space_bytes)?;

    // Build the TA index eagerly: an engine exists to be queried.
    let t2 = Instant::now();
    let index = TaIndex::build(&space);
    let index_ns = t2.elapsed().as_nanos() as u64;
    metrics.build_index_ns.set(index_ns as f64);
    tracer.record_span(
        "build.index",
        "build",
        phase_start(tracer, &t2),
        index_ns,
        &[("pairs", space.len() as u64)],
    );
    let index_bytes = index.bytes();
    let total_bytes = candidate_bytes + space_bytes + index_bytes;
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
        candidate_bytes,
        space_bytes,
        index_bytes,
        total_bytes,
        limit_bytes: limit,
    };
    Ok((space, index, report))
}

/// A ready-to-serve recommendation engine over a trained model.
///
/// The engine is built offline from a model snapshot, a partner pool, an
/// event pool (typically the upcoming/cold-start events) and the pruning
/// parameter `k`.
pub struct RecommendationEngine {
    model: GemModel,
    space: TransformedSpace,
    index: TaIndex,
    metrics: EngineMetrics,
    tracing: ServeTracing,
}

impl RecommendationEngine {
    /// Build the engine: prune, transform, index. No instrumentation; see
    /// [`Self::build_with_metrics`] for the observable variant.
    pub fn build(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
    ) -> Self {
        Self::build_with_metrics(model, partners, events, top_k_events, EngineMetrics::disabled())
    }

    /// [`Self::build`] with gem-obs instrumentation: the three build phases
    /// record their wall-clock into the `build.*` gauges, and every query
    /// served through the engine records into the `serve.*` metrics.
    pub fn build_with_metrics(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        metrics: EngineMetrics,
    ) -> Self {
        Self::build_traced(model, partners, events, top_k_events, metrics, ServeTracing::disabled())
    }

    /// [`Self::build_with_metrics`] plus span tracing: the three build
    /// phases additionally emit `build.prune` / `build.transform` /
    /// `build.index` spans (category `build`), and every query served
    /// through the engine emits a `serve.*` span per
    /// [`ServeTracing`]'s two-tier policy.
    pub fn build_traced(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        metrics: EngineMetrics,
        tracing: ServeTracing,
    ) -> Self {
        let (engine, _report) =
            Self::build_phases(model, partners, events, top_k_events, metrics, tracing, None)
                .expect("unbudgeted build cannot exceed a budget");
        engine
    }

    /// Build under a hard memory ceiling (see [`MemBudget`]): the footprint
    /// is projected before any work and verified after every phase, so an
    /// over-budget build fails (or degrades `k`, per the policy) instead of
    /// silently blowing past `space_mib`. The returned [`BuildReport`]
    /// carries the per-component byte accounting; the same numbers land in
    /// the `build.*_bytes` gauges of `metrics`.
    pub fn build_within_budget(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        budget: MemBudget,
        metrics: EngineMetrics,
        tracing: ServeTracing,
    ) -> Result<(Self, BuildReport), BuildError> {
        let effective_k =
            budget.resolve_k(partners.len(), events.len(), model.dim, top_k_events)?;
        let (engine, mut report) = Self::build_phases(
            model,
            partners,
            events,
            effective_k,
            metrics,
            tracing,
            Some(budget),
        )?;
        report.requested_k = top_k_events;
        Ok((engine, report))
    }

    /// The build pipeline: prune, then [`index_candidates`]. `Err` is only
    /// reachable with a budget.
    fn build_phases(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        metrics: EngineMetrics,
        tracing: ServeTracing,
        budget: Option<MemBudget>,
    ) -> Result<(Self, BuildReport), BuildError> {
        let tracer = &tracing.tracer;
        let t0 = Instant::now();
        let candidates = top_k_events_per_partner(&model, partners, events, top_k_events);
        let prune_ns = t0.elapsed().as_nanos() as u64;
        metrics.build_prune_ns.set(prune_ns as f64);
        tracer.record_span(
            "build.prune",
            "build",
            phase_start(tracer, &t0),
            prune_ns,
            &[("partners", partners.len() as u64), ("events", events.len() as u64)],
        );
        let limit = budget.map(|b| b.limit_bytes);
        let (space, index, report) =
            index_candidates(&model, &candidates, top_k_events, limit, &metrics, tracer)?;
        Ok((Self { model, space, index, metrics, tracing }, report))
    }

    /// Build the engine from the newest *valid* generation in a checkpoint
    /// directory.
    ///
    /// Generations are tried newest-first: a torn or bit-flipped snapshot
    /// (crashed trainer, partial copy) fails its checksum and is skipped in
    /// favour of the previous generation, so serving comes up on the most
    /// recent model that actually validates. The returned
    /// [`CheckpointProvenance`] says which generation won and which were
    /// skipped. Fails only when *no* generation validates (or the directory
    /// is unreadable).
    pub fn build_from_checkpoints(
        checkpoints: &Checkpointer,
        partners: &[UserId],
        events: &[EventId],
        top_k_events: usize,
        metrics: EngineMetrics,
    ) -> Result<(Self, CheckpointProvenance), PersistError> {
        let loaded = checkpoints
            .load_latest()?
            .ok_or(PersistError::Corrupt("no valid checkpoint generation"))?;
        let provenance =
            CheckpointProvenance { generation: loaded.generation, skipped: loaded.skipped };
        let engine = Self::build_with_metrics(
            loaded.checkpoint.model,
            partners,
            events,
            top_k_events,
            metrics,
        );
        Ok((engine, provenance))
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
    /// that cannot guarantee validity should use [`Self::try_recommend`].
    pub fn recommend(
        &self,
        user: UserId,
        n: usize,
        method: Method,
    ) -> (Vec<Recommendation>, TaStats) {
        let mut scratch = ServeScratch::new();
        self.recommend_with(user, n, method, &mut scratch)
    }

    /// Fallible [`Self::recommend`]: an out-of-range user id is an
    /// [`Err`], not a panic.
    pub fn try_recommend(
        &self,
        user: UserId,
        n: usize,
        method: Method,
    ) -> Result<(Vec<Recommendation>, TaStats), ServeError> {
        let mut scratch = ServeScratch::new();
        self.try_recommend_with(user, n, method, &mut scratch)
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

    /// Fallible [`Self::recommend_with`]: validates the user id, serves the
    /// query, and records latency and TA work into the engine's metrics.
    /// Allocation-free beyond the returned recommendations once `scratch`
    /// is warm.
    pub fn try_recommend_with(
        &self,
        user: UserId,
        n: usize,
        method: Method,
        scratch: &mut ServeScratch,
    ) -> Result<(Vec<Recommendation>, TaStats), ServeError> {
        if user.index() >= self.model.num_users() {
            self.metrics.invalid_users.inc();
            return Err(ServeError::UnknownUser { user, num_users: self.model.num_users() });
        }
        // Clock reads only when observability is on: the disabled path pays
        // one predictable branch.
        let traced = self.tracing.tracer.is_enabled();
        let started = if self.metrics.enabled || traced { Some(Instant::now()) } else { None };
        let span_start = if traced { self.tracing.tracer.now_ns() } else { 0 };
        TransformedSpace::query_vector_into(&self.model, user, &mut scratch.q);
        let (recs, stats) = match method {
            Method::Ta => {
                let (results, stats) = self.index.top_n_with(
                    &self.space,
                    &scratch.q,
                    n,
                    |p, _| p != user,
                    &mut scratch.ta,
                );
                (
                    results
                        .into_iter()
                        .map(|(score, partner, event)| Recommendation { partner, event, score })
                        .collect(),
                    stats,
                )
            }
            Method::BruteForce => {
                let results = BruteForce::new(&self.space).top_n_with(
                    &scratch.q,
                    n,
                    |p, _| p != user,
                    &mut scratch.brute,
                );
                (
                    results
                        .into_iter()
                        .map(|(score, partner, event)| Recommendation { partner, event, score })
                        .collect(),
                    TaStats::default(),
                )
            }
        };
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
        Ok((recs, stats))
    }

    /// Deadline-bounded TA query: serve `user`'s top-`n` within `budget`.
    ///
    /// Allocates fresh scratch per call; serving loops should use
    /// [`Self::try_recommend_deadline_with`].
    pub fn try_recommend_deadline(
        &self,
        user: UserId,
        n: usize,
        budget: Duration,
    ) -> Result<DeadlineRecommendations, ServeError> {
        let mut scratch = ServeScratch::new();
        self.try_recommend_deadline_with(user, n, budget, &mut scratch)
    }

    /// [`Self::try_recommend_deadline`] with caller-owned scratch.
    ///
    /// The search runs GEM-TA with a wall-clock deadline of
    /// `now + budget`. If the threshold proof lands in time the result is
    /// exact; otherwise the query returns early with the verified prefix of
    /// the top-n computed so far, tagged [`TaCompletion::Degraded`] (see
    /// [`TaIndex::top_n_deadline_with`] for the guarantee). Every call
    /// counts into `serve.deadline_queries`; expiries additionally count
    /// into `serve.degraded`, alongside the usual `serve.*` query metrics.
    pub fn try_recommend_deadline_with(
        &self,
        user: UserId,
        n: usize,
        budget: Duration,
        scratch: &mut ServeScratch,
    ) -> Result<DeadlineRecommendations, ServeError> {
        if user.index() >= self.model.num_users() {
            self.metrics.invalid_users.inc();
            return Err(ServeError::UnknownUser { user, num_users: self.model.num_users() });
        }
        let started = if self.metrics.enabled { Some(Instant::now()) } else { None };
        let deadline = Instant::now() + budget;
        TransformedSpace::query_vector_into(&self.model, user, &mut scratch.q);
        let (results, stats, completion) = self.index.top_n_deadline_with(
            &self.space,
            &scratch.q,
            n,
            |p, _| p != user,
            deadline,
            &mut scratch.ta,
        );
        if let Some(t0) = started {
            self.metrics.query_ns_ta.record_duration(t0.elapsed());
            self.metrics.queries.inc();
            self.metrics.deadline_queries.inc();
            if completion == TaCompletion::Degraded {
                self.metrics.degraded.inc();
            }
            self.metrics.record_ta_work(&stats);
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
    /// is exactly `users.iter().map(|&u| self.try_recommend(u, n, method))`
    /// — bit-identical at any thread count, including one.
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

    fn engine(k: usize) -> RecommendationEngine {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        RecommendationEngine::build(model, &partners, &events, k)
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
            let err = e.try_recommend(UserId(3), 5, method).unwrap_err();
            assert_eq!(err, ServeError::UnknownUser { user: UserId(3), num_users: 3 });
            let err = e.try_recommend(UserId(u32::MAX), 5, method).unwrap_err();
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
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build_with_metrics(
            model,
            &partners,
            &events,
            2,
            crate::EngineMetrics::register(&reg),
        );
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
        assert_eq!(report.candidate_bytes, e.num_candidates() * 8);
        assert_eq!(
            report.total_bytes,
            report.candidate_bytes + report.space_bytes + report.index_bytes
        );
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

    // --- deadline-degraded serving ---

    fn big_engine(nu: u32, nx: u32) -> RecommendationEngine {
        use rand::RngExt;
        let dim = 8;
        let mut rng = gem_sampling::rng_from_seed(41);
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let partners: Vec<UserId> = (0..nu).map(UserId).collect();
        let ev: Vec<EventId> = (0..nx).map(EventId).collect();
        RecommendationEngine::build(model, &partners, &ev, nx as usize)
    }

    #[test]
    fn generous_deadline_matches_exact_ta() {
        let e = big_engine(60, 20);
        for u in [0u32, 17, 59] {
            let got = e.try_recommend_deadline(UserId(u), 10, Duration::from_secs(60)).unwrap();
            let (exact, stats) = e.try_recommend(UserId(u), 10, Method::Ta).unwrap();
            assert_eq!(got.completion, crate::TaCompletion::Exact, "u={u}");
            assert!(!got.is_degraded());
            assert_eq!(got.recommendations, exact, "u={u}");
            assert_eq!(got.stats, stats, "u={u}");
        }
    }

    #[test]
    fn zero_budget_degrades_to_a_prefix_of_the_exact_ranking() {
        let e = big_engine(200, 60);
        let mut degraded = 0;
        for u in 0..10u32 {
            let got = e.try_recommend_deadline(UserId(u), 20, Duration::ZERO).unwrap();
            let (exact, _) = e.try_recommend(UserId(u), 20, Method::Ta).unwrap();
            assert!(got.recommendations.len() <= exact.len(), "u={u}");
            for (i, (g, x)) in got.recommendations.iter().zip(&exact).enumerate() {
                assert!((g.score - x.score).abs() < 1e-5, "u={u} rank {i}: {g:?} vs {x:?}");
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
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build_with_metrics(
            model,
            &partners,
            &events,
            2,
            crate::EngineMetrics::register(&reg),
        );
        let mut degraded = 0u64;
        for u in 0..3u32 {
            let got = e.try_recommend_deadline(UserId(u), 3, Duration::from_secs(60)).unwrap();
            degraded += got.is_degraded() as u64;
        }
        assert!(e.try_recommend_deadline(UserId(99), 3, Duration::from_secs(1)).is_err());
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
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build_with_metrics(
            model,
            &partners,
            &events,
            2,
            crate::EngineMetrics::register(&reg),
        );
        for u in 0..3u32 {
            let got = e.try_recommend_deadline(UserId(u), 3, Duration::ZERO).unwrap();
            assert!(got.is_degraded(), "u={u}: zero budget served {got:?}");
            assert!(got.recommendations.is_empty(), "u={u}");
            assert_eq!(got.stats, TaStats::default(), "u={u}");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.deadline_queries"), 3);
        assert_eq!(snap.counter("serve.degraded"), 3);
    }

    // --- engine construction from a checkpoint directory ---

    fn scratch_ckpt_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gem-engine-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn build_from_checkpoints_serves_the_newest_valid_generation() {
        use gem_core::{Checkpoint, Checkpointer};
        let dir = scratch_ckpt_dir("fallback");
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Checkpointer::new(&dir).unwrap();
        let model = toy_model();
        let base =
            Checkpoint { seed: 7, steps: 100, adaptive_draws: [0; 10], model: model.clone() };
        let g1 = sink.save(&base).unwrap();
        let g2 = sink.save(&Checkpoint { steps: 200, ..base.clone() }).unwrap();
        assert_eq!((g1, g2), (1, 2));

        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();

        // Happy path: newest generation validates and serves.
        let (engine, prov) = RecommendationEngine::build_from_checkpoints(
            &sink,
            &partners,
            &events,
            2,
            EngineMetrics::disabled(),
        )
        .unwrap();
        assert_eq!(prov, CheckpointProvenance { generation: 2, skipped: vec![] });
        assert!(engine.try_recommend(UserId(0), 3, Method::Ta).is_ok());

        // Tear the newest generation: construction falls back to gen 1.
        let g2_path = dir.join("gen-000002.ckpt");
        let len = std::fs::metadata(&g2_path).unwrap().len();
        let bytes = std::fs::read(&g2_path).unwrap();
        std::fs::write(&g2_path, &bytes[..len as usize / 2]).unwrap();
        let (engine, prov) = RecommendationEngine::build_from_checkpoints(
            &sink,
            &partners,
            &events,
            2,
            EngineMetrics::disabled(),
        )
        .unwrap();
        assert_eq!(prov, CheckpointProvenance { generation: 1, skipped: vec![2] });
        let (recs, _) = engine.try_recommend(UserId(0), 3, Method::Ta).unwrap();
        assert!(!recs.is_empty());

        // Tear every generation: construction reports failure, not panic.
        let g1_path = dir.join("gen-000001.ckpt");
        std::fs::write(&g1_path, b"GEMK").unwrap();
        let result = RecommendationEngine::build_from_checkpoints(
            &sink,
            &partners,
            &events,
            2,
            EngineMetrics::disabled(),
        );
        match result {
            Err(gem_core::PersistError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected failure when no generation validates"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- span tracing: build phases + two-tier per-query spans ---

    fn traced_engine(slow_query_ns: u64) -> (RecommendationEngine, gem_obs::Tracer) {
        let tracer = gem_obs::Tracer::new();
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let e = RecommendationEngine::build_traced(
            model,
            &partners,
            &events,
            2,
            crate::EngineMetrics::disabled(),
            ServeTracing::new(tracer.clone(), slow_query_ns),
        );
        (e, tracer)
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
        let (recs, _) = e.try_recommend(UserId(2), 10, Method::Ta).unwrap();
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
            let (recs, _) = e.try_recommend(UserId(1), 10, method).unwrap();
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
                let (recs, _) = e.try_recommend(UserId(u), 5, method).unwrap();
                assert!(recs.len() <= 5);
                assert!(recs.iter().all(|r| r.partner != UserId(u)));
            }
        }
        // Querying from a NaN user row: every score is NaN; still no panic,
        // and results are deterministic across repeated queries.
        let (a, _) = e.try_recommend(UserId(1), 5, Method::Ta).unwrap();
        let (b, _) = e.try_recommend(UserId(1), 5, Method::Ta).unwrap();
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
