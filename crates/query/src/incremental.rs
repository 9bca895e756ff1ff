//! Incremental TA-index maintenance under event churn.
//!
//! EBSN events are short-lived: they are announced, fill up, happen, and
//! disappear, at a cadence far faster than a full engine rebuild (prune →
//! transform → index) wants to run. This module keeps a *base* TA index
//! immutable and absorbs churn into two small overlays:
//!
//! * a **removed set** — base candidate pairs that are no longer part of
//!   any partner's pruned top-k (their event retired, or they were evicted
//!   by a better new event). The base TA search filters them out; the
//!   threshold proof stays valid because removal only shrinks the
//!   candidate set.
//! * a **delta list** — candidate pairs that entered a partner's pruned
//!   top-k after the base was built, stored as the pair and its
//!   interaction `c = u'ᵀx` only: the other `2K` coordinates of its point
//!   are the model's own rows. Deltas are scanned exhaustively per query
//!   (they are small by construction — past the staleness budget the owner
//!   rebuilds) and merged with the base TA results.
//!
//! The maintained invariant is exactly the §IV pruning rule: after any
//! sequence of [`IncrementalEngine::add_event`] /
//! [`IncrementalEngine::retire_event`] calls, the served candidate set
//! equals `top_k_events_per_partner(model, partners, live_events, k)` —
//! the same pairs, with bitwise-identical scores, as an engine rebuilt
//! from scratch on the final event set (property-tested below). Delta
//! scores are computed with the same `A + B + C` decomposition as the TA
//! random access, so base and delta candidates are directly comparable.
//!
//! Ownership is split for the serving daemon: one maintenance thread owns
//! the mutable [`IncrementalEngine`] master and periodically publishes an
//! immutable [`EngineSnapshot`] (an `Arc` over the shared base
//! [`RecommendationEngine`] plus copies of the small overlays) that any
//! number of serving threads query concurrently. A snapshot query is the
//! base engine's own query core, given the overlays.

use crate::budget::{BuildError, MemBudget};
use crate::engine::{
    index_candidates, DeadlineRecommendations, Method, Recommendation, RecommendationEngine,
    ServeError, ServeScratch, ServeTracing,
};
use crate::metrics::EngineMetrics;
use crate::prune::{cmp_entry, partner_top, unique_partners};
use gem_core::math::dot;
use gem_core::{EventScorer, GemModel};
use gem_ebsn::{EventId, UserId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An incremental-maintenance error. Like [`ServeError`], maintenance
/// errors are per-operation: one bad event id must never poison the
/// maintenance thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintError {
    /// The event id is outside the model's event matrix: there is no
    /// embedding to score it with. (Cold-start events need a model refresh,
    /// not an index patch.)
    UnknownEvent {
        /// The offending event id.
        event: EventId,
        /// Number of events the serving model knows about.
        num_events: usize,
    },
}

impl std::fmt::Display for MaintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintError::UnknownEvent { event, num_events } => {
                write!(f, "unknown event {event:?}: model has {num_events} events")
            }
        }
    }
}

impl std::error::Error for MaintError {}

/// Mutable master of the incrementally-maintained engine. Owned by one
/// maintenance thread; serving threads query [`EngineSnapshot`]s published
/// via [`Self::snapshot`].
pub struct IncrementalEngine {
    /// Immutable base generation, built from one pruning pass; shared by
    /// the master and all live snapshots.
    base: Arc<RecommendationEngine>,
    /// The partner pool, repeats dropped.
    partners: Vec<UserId>,
    top_k: usize,
    /// The prune-k the caller asked for. `top_k` can sit below this under a
    /// [`MemBudget`], and [`Self::rebuild`] re-resolves back toward it when
    /// churn shrinks the live set.
    requested_k: usize,
    /// The memory ceiling every full rebuild re-resolves `top_k` against
    /// (`None` for unbudgeted engines).
    budget: Option<MemBudget>,
    /// Live event ids, ascending.
    live: Vec<EventId>,
    /// Per-partner pruned top-k (aligned with `partners`), each in
    /// ranking order. Invariant: `tops[i] == prune::partner_top(model,
    /// partners[i], live, min(top_k, live.len()))`.
    tops: Vec<Vec<(f32, EventId)>>,
    /// `(partner, event)` raw-id pairs present in the base space.
    base_pairs: HashSet<(u32, u32)>,
    /// Base pairs currently masked out of queries.
    removed: HashSet<(u32, u32)>,
    /// Overlay pairs not present in the base, the interaction `u'ᵀx` of
    /// each (aligned with `delta_pairs`) and a lookup by raw-id pair.
    delta_pairs: Vec<(UserId, EventId)>,
    delta_c: Vec<f32>,
    delta_slot: HashMap<(u32, u32), usize>,
    /// Add/retire operations absorbed since the last (re)build.
    ops_since_rebuild: usize,
}

impl IncrementalEngine {
    /// Build the initial base generation from `events`, pruned to each
    /// partner's top-`top_k`.
    pub fn build(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k: usize,
        metrics: EngineMetrics,
    ) -> Self {
        Self::build_inner(model, partners, events, top_k, None, metrics)
            .expect("an unbudgeted build cannot exceed a budget")
    }

    /// [`Self::build`] under a hard memory ceiling: the initial prune-k is
    /// resolved against `budget` exactly like
    /// [`crate::RecommendationEngine::build_within_budget`], and — unlike a
    /// plain engine — every subsequent [`Self::rebuild`] re-resolves against
    /// the *current* live-event count, so the maintained engine degrades
    /// (or recovers toward `top_k`) as churn moves its footprint.
    ///
    /// # Errors
    /// [`BuildError::BudgetExceeded`] when even the smallest admissible
    /// build does not fit (see `MemBudget::resolve_k` semantics).
    pub fn build_within_budget(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        top_k: usize,
        budget: MemBudget,
        metrics: EngineMetrics,
    ) -> Result<Self, BuildError> {
        Self::build_inner(model, partners, events, top_k, Some(budget), metrics)
    }

    fn build_inner(
        model: GemModel,
        partners: &[UserId],
        events: &[EventId],
        requested_k: usize,
        budget: Option<MemBudget>,
        metrics: EngineMetrics,
    ) -> Result<Self, BuildError> {
        let partners = unique_partners(partners);
        let mut live: Vec<EventId> = events.to_vec();
        live.sort_unstable();
        live.dedup();
        let top_k = match budget {
            Some(b) => b.resolve_k(partners.len(), live.len(), model.dim, requested_k)?,
            None => requested_k,
        };
        let take = top_k.min(live.len());
        let mut scored = Vec::with_capacity(live.len());
        let tops: Vec<Vec<(f32, EventId)>> = partners
            .iter()
            .map(|&p| partner_top(&model, p, &live, take, &mut scored).to_vec())
            .collect();
        if let Some(b) = budget {
            metrics.build_budget_limit_bytes.set(b.limit_bytes as f64);
        }
        let (base, base_pairs) = Self::base_from_tops(model, &partners, &tops, top_k, metrics);
        Ok(Self {
            base,
            partners,
            top_k,
            requested_k,
            budget,
            live,
            tops,
            base_pairs,
            removed: HashSet::new(),
            delta_pairs: Vec::new(),
            delta_c: Vec::new(),
            delta_slot: HashMap::new(),
            ops_since_rebuild: 0,
        })
    }

    /// A fresh base generation serving exactly the pairs in `tops`. No byte
    /// limit is checked here: `top_k` was already resolved by projection,
    /// and [`Self::rebuild`] keeps serving even when no k fits any more.
    fn base_from_tops(
        model: GemModel,
        partners: &[UserId],
        tops: &[Vec<(f32, EventId)>],
        top_k: usize,
        metrics: EngineMetrics,
    ) -> (Arc<RecommendationEngine>, HashSet<(u32, u32)>) {
        let candidates: Vec<(UserId, EventId)> = partners
            .iter()
            .zip(tops)
            .flat_map(|(&p, top)| top.iter().map(move |&(_, x)| (p, x)))
            .collect();
        let base_pairs: HashSet<(u32, u32)> = candidates.iter().map(|&(p, x)| (p.0, x.0)).collect();
        // Rebuilds go through the same accounting as a first build, so the
        // `build.*` gauges stay truthful under churn.
        let (base, _report) =
            index_candidates(model, &candidates, top_k, None, metrics, ServeTracing::disabled())
                .expect("a build without a byte limit cannot exceed one");
        (Arc::new(base), base_pairs)
    }

    /// The model the engine serves.
    pub fn model(&self) -> &GemModel {
        &self.base.model
    }

    /// Live event ids, ascending.
    pub fn live_events(&self) -> &[EventId] {
        &self.live
    }

    /// Add/retire operations absorbed since the last full (re)build.
    pub fn staleness(&self) -> usize {
        self.ops_since_rebuild
    }

    /// The prune-k currently in force (≤ the requested k when a
    /// [`MemBudget`] degraded the build or a rebuild).
    pub fn prune_k(&self) -> usize {
        self.top_k
    }

    /// Candidate pairs currently served from the delta overlay.
    pub fn delta_len(&self) -> usize {
        self.delta_pairs.len()
    }

    /// Base pairs currently masked out of queries.
    pub fn removed_len(&self) -> usize {
        self.removed.len()
    }

    /// True once the absorbed churn exceeds `budget` operations: the
    /// overlays have grown enough that the per-query delta scan and
    /// removed-set filtering stop being cheap, and the owner should fold
    /// them into a fresh base via [`Self::rebuild`].
    pub fn needs_rebuild(&self, budget: usize) -> bool {
        self.ops_since_rebuild > budget
    }

    /// Record an event as live and patch every partner's pruned top-k.
    ///
    /// Returns `Ok(true)` if the event was added, `Ok(false)` if it was
    /// already live (idempotent), and an error for an id outside the
    /// model's event matrix.
    pub fn add_event(&mut self, x: EventId) -> Result<bool, MaintError> {
        if x.index() >= self.base.model.num_events() {
            return Err(MaintError::UnknownEvent {
                event: x,
                num_events: self.base.model.num_events(),
            });
        }
        let Err(pos) = self.live.binary_search(&x) else {
            return Ok(false);
        };
        self.live.insert(pos, x);
        let take = self.top_k.min(self.live.len());
        for i in 0..self.partners.len() {
            let p = self.partners[i];
            let entry = (self.base.model.score_event(p, x) as f32, x);
            if self.tops[i].len() < take {
                // The top held every live event (|live| ≤ k): it grows.
                insert_ranked(&mut self.tops[i], entry);
                self.mark_present(p, x);
            } else if take > 0 {
                let worst = *self.tops[i].last().expect("top is non-empty when take > 0");
                if cmp_entry(&entry, &worst).is_lt() {
                    insert_ranked(&mut self.tops[i], entry);
                    let evicted = self.tops[i].pop().expect("overflow entry");
                    self.mark_absent(p, evicted.1);
                    self.mark_present(p, x);
                }
            }
        }
        self.ops_since_rebuild += 1;
        self.base.metrics.maint_adds.inc();
        Ok(true)
    }

    /// Retire a live event and refill the pruned top-k of every partner
    /// that was serving it.
    ///
    /// Returns `Ok(true)` if the event was retired, `Ok(false)` if it was
    /// not live (idempotent — retiring twice is a no-op, not an error).
    pub fn retire_event(&mut self, x: EventId) -> Result<bool, MaintError> {
        let Ok(pos) = self.live.binary_search(&x) else {
            return Ok(false);
        };
        self.live.remove(pos);
        let take = self.top_k.min(self.live.len());
        for i in 0..self.partners.len() {
            let Some(at) = self.tops[i].iter().position(|e| e.1 == x) else {
                continue;
            };
            let p = self.partners[i];
            self.tops[i].remove(at);
            self.mark_absent(p, x);
            if self.tops[i].len() < take {
                // |live| > k: exactly one slot opened up — promote the best
                // live event not already in the top (same ranking order as
                // the pruning pass, so the invariant is restored exactly).
                let top = &self.tops[i];
                let refill = self
                    .live
                    .iter()
                    .filter(|&&e| !top.iter().any(|t| t.1 == e))
                    .map(|&e| (self.base.model.score_event(p, e) as f32, e))
                    .min_by(cmp_entry);
                if let Some(entry) = refill {
                    insert_ranked(&mut self.tops[i], entry);
                    self.mark_present(p, entry.1);
                }
            }
        }
        self.ops_since_rebuild += 1;
        self.base.metrics.maint_retires.inc();
        Ok(true)
    }

    /// Fold all absorbed churn into a fresh base generation: the overlays
    /// empty out and [`Self::staleness`] resets to zero. Served results are
    /// unchanged (the overlays already expressed the same candidate set);
    /// only the per-query cost of carrying them is reclaimed.
    ///
    /// Budgeted engines ([`Self::build_within_budget`]) re-resolve the
    /// prune-k against the *current* live-event count here — churn changes
    /// the footprint projection, so a rebuild must not inherit the base k
    /// blindly: adds can force a degrade, retires can win quality back. If
    /// re-resolution fails outright (the live set grew past what even
    /// `k = 1` affords), the current k is kept: the fold still reclaims the
    /// overlays, and serving at the stale k beats refusing to rebuild.
    /// The k in force is exported through the `build.prune_k` gauge.
    pub fn rebuild(&mut self) {
        if let Some(budget) = self.budget {
            let resolved = budget.resolve_k(
                self.partners.len(),
                self.live.len(),
                self.base.model.dim,
                self.requested_k,
            );
            if let Ok(k) = resolved {
                self.retarget_k(k);
            }
        }
        let model = self.base.model.clone();
        let metrics = self.base.metrics.clone();
        let (base, base_pairs) =
            Self::base_from_tops(model, &self.partners, &self.tops, self.top_k, metrics);
        self.base = base;
        self.base_pairs = base_pairs;
        self.removed.clear();
        self.delta_pairs.clear();
        self.delta_c.clear();
        self.delta_slot.clear();
        self.ops_since_rebuild = 0;
        self.base.metrics.maint_rebuilds.inc();
    }

    /// Rebuild the whole engine over a *different* model — the hot-reload
    /// half of the serving daemon's `POST /reload`. Everything else is
    /// preserved: the partner list, the current live-event set (including
    /// churn absorbed since boot), the requested prune-k and the
    /// [`MemBudget`] (budgeted engines re-resolve k against the new model's
    /// dim exactly like a fresh [`Self::build_within_budget`]).
    ///
    /// Returns a new engine; `self` is untouched, so a failed reload keeps
    /// the old master serving (rollback is the no-op).
    ///
    /// The caller must have validated coverage first: `model` needs a row
    /// for every partner and every live event (the daemon checks this via
    /// `ModelReader` dims before materializing). Scoring an uncovered id
    /// panics, same as [`Self::build`].
    ///
    /// # Errors
    /// [`BuildError::BudgetExceeded`] when the budgeted footprint no longer
    /// fits even at `k = 1` (e.g. the new model's dim grew).
    pub fn reload_model(&self, model: GemModel) -> Result<IncrementalEngine, BuildError> {
        let metrics = self.base.metrics.clone();
        Self::build_inner(model, &self.partners, &self.live, self.requested_k, self.budget, metrics)
    }

    /// Publish an immutable queryable view of the current state. Cheap:
    /// the base is `Arc`-shared and only the small overlays are copied, so
    /// the maintenance thread can publish per churn batch while serving
    /// threads keep querying older snapshots undisturbed.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.base.metrics.maint_delta_pairs.set(self.delta_pairs.len() as f64);
        self.base.metrics.maint_removed_pairs.set(self.removed.len() as f64);
        EngineSnapshot {
            base: Arc::clone(&self.base),
            removed: Arc::new(self.removed.clone()),
            delta_pairs: Arc::new(self.delta_pairs.clone()),
            delta_c: Arc::new(self.delta_c.clone()),
        }
    }

    /// Move the in-force prune-k to `k`, restoring the tops invariant for
    /// the new value. Shrinking truncates each ranked top; growing
    /// recomputes from the live set (rare — only after heavy retirement).
    /// Only called from [`Self::rebuild`], which folds the result into a
    /// fresh base immediately, so the overlays need no patching here.
    fn retarget_k(&mut self, k: usize) {
        use std::cmp::Ordering::*;
        let take = k.min(self.live.len());
        match k.cmp(&self.top_k) {
            Equal => return,
            Less => {
                for top in &mut self.tops {
                    top.truncate(take);
                }
            }
            Greater => {
                let mut scored = Vec::with_capacity(self.live.len());
                for (top, &p) in self.tops.iter_mut().zip(&self.partners) {
                    if top.len() < take {
                        *top = partner_top(&self.base.model, p, &self.live, take, &mut scored)
                            .to_vec();
                    }
                }
            }
        }
        self.top_k = k;
    }

    /// Record `(p, x)` as part of the served candidate set.
    fn mark_present(&mut self, p: UserId, x: EventId) {
        let key = (p.0, x.0);
        if self.base_pairs.contains(&key) {
            self.removed.remove(&key);
        } else if !self.delta_slot.contains_key(&key) {
            let model = &self.base.model;
            self.delta_slot.insert(key, self.delta_pairs.len());
            self.delta_pairs.push((p, x));
            self.delta_c.push(dot(model.user_vec(p), model.event_vec(x)));
        }
    }

    /// Record `(p, x)` as no longer part of the served candidate set.
    fn mark_absent(&mut self, p: UserId, x: EventId) {
        let key = (p.0, x.0);
        if self.base_pairs.contains(&key) {
            self.removed.insert(key);
        } else if let Some(slot) = self.delta_slot.remove(&key) {
            self.delta_pairs.swap_remove(slot);
            self.delta_c.swap_remove(slot);
            if let Some(&(moved_p, moved_x)) = self.delta_pairs.get(slot) {
                self.delta_slot.insert((moved_p.0, moved_x.0), slot);
            }
        }
    }
}

/// Insert `entry` into a ranking-ordered vector at its rank position.
fn insert_ranked(top: &mut Vec<(f32, EventId)>, entry: (f32, EventId)) {
    let at = top.partition_point(|e| cmp_entry(e, &entry).is_lt());
    top.insert(at, entry);
}

/// Immutable queryable view published by [`IncrementalEngine::snapshot`]:
/// a shared base [`RecommendationEngine`] plus its churn overlays.
///
/// Cloning is cheap (`Arc` bumps); snapshots are `Send + Sync` and meant to
/// sit behind an atomically swapped generation cell in the serving daemon.
#[derive(Clone)]
pub struct EngineSnapshot {
    base: Arc<RecommendationEngine>,
    removed: Arc<HashSet<(u32, u32)>>,
    delta_pairs: Arc<Vec<(UserId, EventId)>>,
    delta_c: Arc<Vec<f32>>,
}

impl EngineSnapshot {
    /// Number of users the serving model knows about.
    pub fn num_users(&self) -> usize {
        self.base.model.num_users()
    }

    /// Candidate pairs served by this snapshot (base minus removed plus
    /// delta).
    pub fn num_candidates(&self) -> usize {
        self.base.num_candidates() - self.removed.len() + self.delta_pairs.len()
    }

    /// Exact top-`n` event-partner recommendations for `user` via the base
    /// TA search merged with the delta overlay. Records the usual
    /// `serve.*` metrics.
    pub fn try_top_n(
        &self,
        user: UserId,
        n: usize,
        scratch: &mut ServeScratch,
    ) -> Result<Vec<Recommendation>, ServeError> {
        Ok(self.serve(user, n, None, scratch)?.recommendations)
    }

    /// Deadline-bounded [`Self::try_top_n`]: the base TA search runs with a
    /// wall-clock deadline of `now + budget` and may degrade to a verified
    /// prefix. The delta overlay is always scanned in full (it is small by
    /// the staleness budget), but under [`crate::TaCompletion::Degraded`]
    /// only its pairs above the base search's final threshold are served:
    /// anything lower could be beaten by a base pair the search never
    /// examined. Every call counts into `serve.deadline_queries`; expiries
    /// additionally count into `serve.degraded`.
    pub fn try_top_n_deadline(
        &self,
        user: UserId,
        n: usize,
        budget: Duration,
        scratch: &mut ServeScratch,
    ) -> Result<DeadlineRecommendations, ServeError> {
        self.serve(user, n, Some(Instant::now() + budget), scratch)
    }

    /// The base engine's query core, with the removed pairs filtered out of
    /// its search and the delta pairs merged into its results.
    fn serve(
        &self,
        user: UserId,
        n: usize,
        deadline: Option<Instant>,
        scratch: &mut ServeScratch,
    ) -> Result<DeadlineRecommendations, ServeError> {
        let removed = &*self.removed;
        let filter = |p: UserId, x: EventId| p != user && !removed.contains(&(p.0, x.0));
        let (pairs, c) = (&self.delta_pairs, &self.delta_c);
        self.base.serve(user, n, Method::Ta, deadline, filter, pairs, c, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::toy_model;
    use rand::RngExt;

    pub(super) fn random_model(nu: u32, nx: u32, dim: usize, seed: u64) -> GemModel {
        let mut rng = gem_sampling::rng_from_seed(seed);
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        GemModel::from_raw(dim, users, events, vec![], vec![], vec![])
    }

    /// Score bits, rank by rank.
    pub(super) fn score_bits(recs: &[Recommendation]) -> Vec<u32> {
        recs.iter().map(|r| r.score.to_bits()).collect()
    }

    /// The first of `users` for whom `inc`'s snapshot and the oracle — an
    /// engine rebuilt from scratch on the current live set — disagree, if
    /// any. Scores must match bit for bit, rank by rank: delta and base
    /// pairs score through the same `A + B + C`.
    pub(super) fn scratch_mismatch(
        inc: &IncrementalEngine,
        partners: &[UserId],
        users: &[UserId],
        n: usize,
    ) -> Option<String> {
        let model = inc.model().clone();
        let oracle = RecommendationEngine::build(model, partners, inc.live_events(), inc.top_k);
        let snap = inc.snapshot();
        let mut scratch = ServeScratch::new();
        users.iter().find_map(|&u| {
            let got = snap.try_top_n(u, n, &mut scratch).unwrap();
            let (want, _) = oracle.try_recommend_with(u, n, Method::Ta, &mut scratch).unwrap();
            let differ = score_bits(&got) != score_bits(&want);
            differ.then(|| format!("{u:?}: incremental {got:?} vs scratch {want:?}"))
        })
    }

    fn assert_matches_scratch(inc: &IncrementalEngine, partners: &[UserId], n: usize) {
        if let Some(mismatch) = scratch_mismatch(inc, partners, partners, n) {
            panic!("{mismatch}");
        }
    }

    #[test]
    fn fresh_build_matches_scratch_engine() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let inc = IncrementalEngine::build(model, &partners, &events, 2, EngineMetrics::disabled());
        assert_matches_scratch(&inc, &partners, 5);
        assert_eq!(inc.staleness(), 0);
    }

    #[test]
    fn reload_model_keeps_live_set_and_matches_scratch_on_new_model() {
        let old = random_model(6, 10, 3, 11);
        let new = random_model(6, 10, 3, 99);
        let partners: Vec<UserId> = (0..6).map(UserId).collect();
        let initial: Vec<EventId> = (0..5).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(old, &partners, &initial, 3, EngineMetrics::disabled());
        // Churn before the reload: the reloaded engine must carry the
        // *churned* live set, not the boot set.
        inc.add_event(EventId(8)).unwrap();
        inc.retire_event(EventId(1)).unwrap();
        let live_before: Vec<EventId> = inc.live_events().to_vec();

        let reloaded = inc.reload_model(new.clone()).expect("unbudgeted reload");
        assert_eq!(reloaded.live_events(), &live_before[..]);
        assert_eq!(reloaded.staleness(), 0, "a reload is a fresh base");
        assert_matches_scratch(&reloaded, &partners, 4);
        // The old master is untouched (rollback is the no-op).
        assert_eq!(inc.live_events(), &live_before[..]);
        assert_matches_scratch(&inc, &partners, 4);
    }

    #[test]
    fn add_and_retire_track_the_scratch_engine() {
        let nu = 20u32;
        let nx = 15u32;
        let model = random_model(nu, nx, 6, 11);
        let partners: Vec<UserId> = (0..nu).map(UserId).collect();
        let initial: Vec<EventId> = (0..6).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &initial, 4, EngineMetrics::disabled());
        for x in 6..12u32 {
            assert_eq!(inc.add_event(EventId(x)), Ok(true));
            assert_matches_scratch(&inc, &partners, 8);
        }
        for x in [0u32, 7, 3, 11] {
            assert_eq!(inc.retire_event(EventId(x)), Ok(true));
            assert_matches_scratch(&inc, &partners, 8);
        }
        assert_eq!(inc.staleness(), 10);
    }

    #[test]
    fn add_is_idempotent_and_validates_ids() {
        let model = toy_model(); // 2 events
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &[EventId(0)], 2, EngineMetrics::disabled());
        assert_eq!(inc.add_event(EventId(0)), Ok(false));
        assert_eq!(inc.add_event(EventId(1)), Ok(true));
        assert_eq!(inc.add_event(EventId(1)), Ok(false));
        assert_eq!(
            inc.add_event(EventId(9)),
            Err(MaintError::UnknownEvent { event: EventId(9), num_events: 2 })
        );
        assert_eq!(inc.retire_event(EventId(9)), Ok(false)); // never live
        assert_eq!(inc.staleness(), 1);
    }

    #[test]
    fn retiring_every_event_serves_empty_results() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &events, 2, EngineMetrics::disabled());
        assert_eq!(inc.retire_event(EventId(0)), Ok(true));
        assert_eq!(inc.retire_event(EventId(1)), Ok(true));
        assert!(inc.live_events().is_empty());
        let snap = inc.snapshot();
        let mut scratch = ServeScratch::new();
        let recs = snap.try_top_n(UserId(0), 5, &mut scratch).unwrap();
        assert!(recs.is_empty());
        // And events can come back afterwards.
        assert_eq!(inc.add_event(EventId(1)), Ok(true));
        assert_matches_scratch(&inc, &partners, 5);
    }

    #[test]
    fn rebuild_resets_staleness_and_preserves_results() {
        let nu = 12u32;
        let model = random_model(nu, 10, 4, 23);
        let partners: Vec<UserId> = (0..nu).map(UserId).collect();
        let initial: Vec<EventId> = (0..5).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &initial, 3, EngineMetrics::disabled());
        for x in 5..10u32 {
            inc.add_event(EventId(x)).unwrap();
        }
        inc.retire_event(EventId(2)).unwrap();
        assert!(inc.needs_rebuild(5));
        let before = {
            let snap = inc.snapshot();
            let mut s = ServeScratch::new();
            partners.iter().map(|&p| snap.try_top_n(p, 6, &mut s).unwrap()).collect::<Vec<_>>()
        };
        assert!(inc.delta_len() > 0);
        inc.rebuild();
        assert_eq!((inc.staleness(), inc.delta_len(), inc.removed_len()), (0, 0, 0));
        assert!(!inc.needs_rebuild(5));
        let snap = inc.snapshot();
        let mut s = ServeScratch::new();
        for (&p, want) in partners.iter().zip(&before) {
            let got = snap.try_top_n(p, 6, &mut s).unwrap();
            assert_eq!(score_bits(&got), score_bits(want), "{p:?}: {got:?} vs {want:?}");
        }
        assert_matches_scratch(&inc, &partners, 6);
    }

    #[test]
    fn budgeted_rebuild_re_resolves_prune_k_against_live_churn() {
        let reg = gem_obs::MetricsRegistry::new();
        let (nu, nx, dim) = (10u32, 24u32, 4usize);
        let model = random_model(nu, nx, dim, 77);
        let partners: Vec<UserId> = (0..nu).map(UserId).collect();
        // Ceiling sized for k = 4 over the full event pool: a small live
        // set projects under it at the requested k = 8, a grown one must
        // degrade at the next fold.
        let limit = crate::budget::Projection::new(nu as usize, nx as usize, dim, 4).total();
        let budget = MemBudget { limit_bytes: limit, policy: crate::BudgetPolicy::DegradeK };
        let initial: Vec<EventId> = (0..2).map(EventId).collect();
        let mut inc = IncrementalEngine::build_within_budget(
            model,
            &partners,
            &initial,
            8,
            budget,
            EngineMetrics::register(&reg),
        )
        .unwrap();
        assert_eq!(inc.prune_k(), 8, "2 live events fit the requested k");
        assert_eq!(reg.snapshot().gauge("build.prune_k"), 8.0);
        // The daemon path times its phases like the one-shot build does.
        const PHASE_GAUGES: [&str; 2] = ["build.transform_ns", "build.index_ns"];
        for name in PHASE_GAUGES {
            assert!(reg.snapshot().gauge(name) > 0.0, "{name} is 0 after the first build");
            reg.gauge(name).set(0.0);
        }

        for x in 2..nx {
            inc.add_event(EventId(x)).unwrap();
        }
        // The regression: a rebuild that inherits the base k keeps serving
        // k = 8 over 24 live events — past the ceiling. It must re-resolve
        // against the current live count and degrade.
        inc.rebuild();
        for name in PHASE_GAUGES {
            assert!(reg.snapshot().gauge(name) > 0.0, "{name} is 0 after rebuild()");
        }
        assert_eq!(inc.prune_k(), 4, "rebuild over the full pool degrades to the fitting k");
        assert_eq!(reg.snapshot().gauge("build.prune_k"), 4.0);
        assert!(reg.snapshot().gauge("build.total_bytes") <= limit as f64);
        assert_matches_scratch(&inc, &partners, 6);

        // Retiring back under the ceiling wins the quality back.
        for x in 3..nx {
            inc.retire_event(EventId(x)).unwrap();
        }
        inc.rebuild();
        assert_eq!(inc.prune_k(), 8, "a shrunken live set re-resolves to the requested k");
        assert_eq!(reg.snapshot().gauge("build.prune_k"), 8.0);
        assert_matches_scratch(&inc, &partners, 6);
    }

    #[test]
    fn snapshots_are_isolated_from_later_churn() {
        let model = random_model(10, 8, 4, 31);
        let partners: Vec<UserId> = (0..10).map(UserId).collect();
        let initial: Vec<EventId> = (0..4).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &initial, 3, EngineMetrics::disabled());
        let old = inc.snapshot();
        let mut s = ServeScratch::new();
        let before = old.try_top_n(UserId(0), 5, &mut s).unwrap();
        inc.add_event(EventId(7)).unwrap();
        inc.retire_event(EventId(1)).unwrap();
        // The old snapshot still serves the old candidate set.
        let after = old.try_top_n(UserId(0), 5, &mut s).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn maintenance_metrics_are_recorded() {
        let reg = gem_obs::MetricsRegistry::new();
        let model = random_model(8, 8, 4, 43);
        let partners: Vec<UserId> = (0..8).map(UserId).collect();
        let initial: Vec<EventId> = (0..4).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &initial, 2, EngineMetrics::register(&reg));
        inc.add_event(EventId(5)).unwrap();
        inc.add_event(EventId(6)).unwrap();
        inc.retire_event(EventId(0)).unwrap();
        let _ = inc.snapshot();
        inc.rebuild();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("maint.adds"), 2);
        assert_eq!(snap.counter("maint.retires"), 1);
        assert_eq!(snap.counter("maint.rebuilds"), 1);
    }

    /// Regression: a degraded query over a churned snapshot used to merge
    /// *every* delta pair into the pruned base result, so a delta pair
    /// below the TA cutoff was served while an unexamined base pair beat it
    /// (a zero budget served the overlay alone). Whatever the budget, the
    /// answer must be score-wise a prefix of the exact ranking.
    #[test]
    fn degraded_query_over_a_churned_snapshot_is_a_verified_prefix() {
        let nu = 200u32;
        let model = random_model(nu, 60, 8, 53);
        let partners: Vec<UserId> = (0..nu).map(UserId).collect();
        let initial: Vec<EventId> = (0..40).map(EventId).collect();
        let mut inc =
            IncrementalEngine::build(model, &partners, &initial, 30, EngineMetrics::disabled());
        for x in 40..60 {
            inc.add_event(EventId(x)).unwrap();
        }
        inc.retire_event(EventId(7)).unwrap();
        assert!(inc.delta_len() > 0 && inc.removed_len() > 0);
        let snap = inc.snapshot();
        let mut s = ServeScratch::new();
        // Zero expires before the key pass and a minute never does; the
        // others land mid-search on some hosts and after it on others — the
        // contract holds either way.
        for micros in [0u64, 2, 10, 40, 150, 60_000_000] {
            for u in 0..12u32 {
                let exact = snap.try_top_n(UserId(u), 10, &mut s).unwrap();
                let got = snap
                    .try_top_n_deadline(UserId(u), 10, Duration::from_micros(micros), &mut s)
                    .unwrap();
                assert!(got.recommendations.len() <= exact.len(), "u={u} {micros}us");
                for (i, (g, x)) in got.recommendations.iter().zip(&exact).enumerate() {
                    assert_eq!(g.score, x.score, "u={u} {micros}us rank {i}: {g:?} vs {x:?}");
                }
                if !got.is_degraded() {
                    assert_eq!(got.recommendations, exact, "u={u} {micros}us");
                }
                if micros == 0 {
                    assert!(got.is_degraded(), "u={u}: zero budget served {got:?}");
                    assert!(got.recommendations.is_empty(), "u={u}: nothing was verified");
                }
                assert!(micros < 60_000_000 || !got.is_degraded(), "u={u}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{random_model, score_bits, scratch_mismatch};
    use super::*;
    use crate::ta::TaCompletion;
    use proptest::prelude::*;

    proptest! {
        /// Satellite invariant: *any* sequence of add/retire operations
        /// leaves the incremental engine serving exactly what an engine
        /// rebuilt from scratch on the final live set serves.
        #[test]
        fn churn_sequence_equals_scratch_rebuild(
            dim in 2usize..5,
            nu in 4u32..16,
            nx in 3u32..14,
            k in 1usize..6,
            n in 1usize..8,
            seed in 0u64..500,
            ops in prop::collection::vec((0u32..2, 0u32..14), 0..24),
        ) {
            let model = random_model(nu, nx, dim, seed);
            let partners: Vec<UserId> = (0..nu).map(UserId).collect();
            // Start from an arbitrary prefix of the event pool.
            let initial: Vec<EventId> = (0..nx / 2).map(EventId).collect();
            let mut inc =
                IncrementalEngine::build(model, &partners, &initial, k, EngineMetrics::disabled());
            let mut live: std::collections::BTreeSet<EventId> =
                initial.iter().copied().collect();
            for &(op, raw) in &ops {
                let add = op == 0;
                let x = EventId(raw);
                if add {
                    let want = raw < nx && !live.contains(&x);
                    prop_assert_eq!(inc.add_event(x).ok() == Some(true), want);
                    if want { live.insert(x); }
                } else {
                    let want = live.remove(&x);
                    prop_assert_eq!(inc.retire_event(x), Ok(want));
                }
            }
            let final_live: Vec<EventId> = live.iter().copied().collect();
            prop_assert_eq!(inc.live_events(), &final_live[..]);
            let users = [UserId(0), UserId(nu / 2), UserId(nu - 1)];
            let mismatch = scratch_mismatch(&inc, &partners, &users, n);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
            // Folding the overlays into a fresh base must not change results.
            inc.rebuild();
            let mismatch = scratch_mismatch(&inc, &partners, &users, n);
            prop_assert!(mismatch.is_none(), "post-rebuild {}", mismatch.unwrap_or_default());
        }

        /// A snapshot with no churn serves exactly what its base engine
        /// serves: results, score bits and `TaStats` of
        /// `recommend_with(.., Method::Ta, ..)`, exact and under a 60 s
        /// deadline; and under a 0 µs deadline the same empty degraded
        /// answer the engine's own core gives.
        #[test]
        fn unchurned_snapshot_equals_engine(
            dim in 2usize..7,
            nu in 2u32..40,
            nx in 1u32..16,
            k in 1usize..10,
            n in 1usize..14,
            seed in 0u64..1000,
        ) {
            let model = random_model(nu, nx, dim, seed);
            let partners: Vec<UserId> = (0..nu).map(UserId).collect();
            let events: Vec<EventId> = (0..nx).map(EventId).collect();
            let engine = RecommendationEngine::build(model.clone(), &partners, &events, k);
            let inc = IncrementalEngine::build(model, &partners, &events, k, EngineMetrics::disabled());
            let snap = inc.snapshot();
            let mut s = ServeScratch::new();
            for u in [UserId(0), UserId(nu / 2), UserId(nu - 1)] {
                let (want, stats) = engine.recommend_with(u, n, Method::Ta, &mut s);
                let got = snap.try_top_n(u, n, &mut s).unwrap();
                prop_assert_eq!(&got, &want, "{:?}", u);
                prop_assert_eq!(score_bits(&got), score_bits(&want), "{:?}", u);
                let slow = snap.try_top_n_deadline(u, n, Duration::from_secs(60), &mut s).unwrap();
                prop_assert_eq!(slow.completion, TaCompletion::Exact, "{:?}", u);
                prop_assert_eq!(slow.stats, stats, "{:?}", u);
                prop_assert_eq!(score_bits(&slow.recommendations), score_bits(&want), "{:?}", u);
                let expired = snap.try_top_n_deadline(u, n, Duration::ZERO, &mut s).unwrap();
                let plain = |p: UserId, _| p != u;
                let core = engine.serve(u, n, Method::Ta, Some(Instant::now()), plain, &[], &[], &mut s);
                prop_assert!(expired.is_degraded() && expired.recommendations.is_empty());
                prop_assert_eq!(expired, core.unwrap(), "{:?}", u);
            }
        }
    }
}
