//! The adaptive adversarial noise sampler (§III-B, Algorithm 1).
//!
//! GEM-A replaces the static degree-based noise distribution with a
//! *rank-based* one: `P_n(v_k | v_c) ∝ exp(-r̂(v_k|v_c)/λ)`, where
//! `r̂(v_k|v_c)` is the rank of candidate `v_k` by current similarity to the
//! context node `v_c`. High-ranked (hard, "adversarial") negatives are
//! sampled far more often, which is what accelerates convergence.
//!
//! Exact rank computation is `O(|V|·K + |V|log|V|)` per draw — infeasible —
//! so the paper's approximation is implemented:
//!
//! 1. draw a rank `s` from the truncated geometric distribution,
//! 2. draw a *dimension* `f` with probability `∝ v_{c,f} · σ_f`
//!    (σ_f = per-dimension spread over the candidate set),
//! 3. return the node currently ranked `s`-th on dimension `f`.
//!
//! The per-dimension rankings and σ carry a `|V|·log₂|V|`-draw recompute
//! budget (amortised `O(K)` per draw, Algorithm 1 lines 4–15). The *cadence*
//! is step-indexed, not draw-counted: the trainer converts the draw budget
//! into a global-step interval once at construction
//! ([`AdaptiveState::set_step_interval`]) and calls
//! [`AdaptiveState::refresh_if_due`] at step-indexed check points (multiples
//! of the tightest active interval, at most one tally flush apart, and
//! chunk ends). An earlier revision bumped a shared `draws_since_refresh`
//! counter on every draw, which made the refresh schedule depend on thread
//! count and interleaving; a schedule that is a pure function of the step
//! index keeps single-thread GEM-A reproducible however a run is chunked.
//!
//! Refreshes are double-buffered: the claiming thread builds the new
//! rankings *outside* the lock while samplers keep reading the previous
//! generation, then swaps under a brief write lock — sampling from slightly
//! stale rankings is exactly the approximation the paper makes anyway.

use crate::matrix::AtomicMatrix;
use gem_obs::{CachePadded, Counter, Histogram, Tracer};
use gem_sampling::TruncatedGeometric;
use rand::{Rng, RngExt};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// Observability hooks for adaptive-ranking refreshes: how often the
/// rankings are rebuilt and how long each rebuild takes. With refreshes off
/// the draw hot path (step-indexed boundaries, built double-buffered by the
/// claiming thread or the Hogwild background refresher), the histogram now
/// measures pure rebuild cost, not worker stall.
///
/// Disabled by default (every hook a no-op); the trainer installs live
/// handles via [`AdaptiveState::set_obs`] when metrics or tracing are
/// attached.
#[derive(Clone)]
pub struct RefreshObs {
    pub(crate) refreshes: Counter,
    pub(crate) refresh_ns: Histogram,
    pub(crate) tracer: Tracer,
}

impl Default for RefreshObs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl RefreshObs {
    /// All hooks disabled.
    pub fn disabled() -> Self {
        Self {
            refreshes: Counter::disabled(),
            refresh_ns: Histogram::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Bundle live (or per-hook disabled) handles.
    pub fn new(refreshes: Counter, refresh_ns: Histogram, tracer: Tracer) -> Self {
        Self { refreshes, refresh_ns, tracer }
    }

    /// True if any hook would record something (gates the `Instant` reads).
    fn active(&self) -> bool {
        self.refreshes.is_enabled() || self.refresh_ns.is_enabled() || self.tracer.is_enabled()
    }
}

impl std::fmt::Debug for RefreshObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RefreshObs(active={})", self.active())
    }
}

/// Per-graph-side state of the adaptive sampler.
///
/// The candidate set is restricted to the nodes that actually occur on this
/// side of the graph (non-zero degree) — mirroring the degree-based sampler,
/// which by construction can never emit a zero-degree node. Without this
/// restriction, cold-start events (degree 0 in the user–event graph) would
/// be top-ranked "hard negatives" for exactly the users interested in them
/// and be pushed away from their future attendees.
pub struct AdaptiveState {
    /// Node ids eligible as noise (non-zero degree on this graph side).
    candidates: Vec<u32>,
    dim: usize,
    geometric: TruncatedGeometric,
    /// The paper's recompute budget in *draws*: `n·⌈log₂n⌉`. Kept as the
    /// reference quantity the trainer converts into a step cadence.
    refresh_interval: u64,
    /// Refresh cadence in *global steps* (0 = never refresh). Set once by
    /// the trainer at construction from `refresh_interval` and this state's
    /// expected draws per step, so the schedule is a pure function of the
    /// step index — identical for every thread count.
    step_interval: u64,
    /// Global step index at which the next refresh is due (`u64::MAX` when
    /// disabled). Claimed via compare-exchange so exactly one caller
    /// performs each scheduled refresh. Cache-line-padded: boundary checks
    /// from several threads must not invalidate the read-mostly fields
    /// around it (`geometric`, the `rankings` lock word).
    next_refresh_at: CachePadded<AtomicU64>,
    rankings: RwLock<Rankings>,
    /// Refresh observability hooks (disabled by default; read-only on the
    /// draw path, touched only inside the refresh critical section).
    obs: RefreshObs,
}

struct Rankings {
    /// Concatenated per-dimension rankings: `by_dim[f·n + s]` is the
    /// candidate node currently ranked `s`-th (descending value) on
    /// dimension `f`.
    by_dim: Vec<u32>,
    /// Per-dimension population variance over the candidates.
    sigma: Vec<f32>,
}

impl AdaptiveState {
    /// Build the initial rankings over all matrix rows.
    ///
    /// # Panics
    /// Panics if the matrix has no rows or `lambda` is invalid.
    pub fn new(matrix: &AtomicMatrix, lambda: f64) -> Self {
        let all: Vec<u32> = (0..matrix.rows() as u32).collect();
        Self::over_candidates(matrix, all, lambda)
    }

    /// Build over an explicit candidate node set (the nodes occurring on
    /// one side of a graph).
    ///
    /// # Panics
    /// Panics if `candidates` is empty or `lambda` is invalid.
    pub fn over_candidates(matrix: &AtomicMatrix, candidates: Vec<u32>, lambda: f64) -> Self {
        let n = candidates.len();
        assert!(n > 0, "adaptive sampler needs a non-empty candidate set");
        let dim = matrix.dim();
        let log2n = (n.max(2) as f64).log2().ceil() as u64;
        let rankings = RwLock::new(Self::compute(matrix, &candidates));
        let refresh_interval = (n as u64) * log2n;
        Self {
            candidates,
            dim,
            geometric: TruncatedGeometric::new(n, lambda),
            refresh_interval,
            // Until the trainer installs a cadence, one draw per step is
            // assumed: the draw budget doubles as the step interval.
            step_interval: refresh_interval,
            next_refresh_at: CachePadded::new(AtomicU64::new(refresh_interval)),
            rankings,
            obs: RefreshObs::disabled(),
        }
    }

    /// Number of candidate nodes.
    pub fn candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Install refresh observability hooks (replacing any previous set).
    pub fn set_obs(&mut self, obs: RefreshObs) {
        self.obs = obs;
    }

    fn compute(matrix: &AtomicMatrix, candidates: &[u32]) -> Rankings {
        let (n, dim) = (candidates.len(), matrix.dim());
        let mut by_dim = Vec::with_capacity(n * dim);
        let mut sigma = Vec::with_capacity(dim);
        let mut column = vec![0.0f32; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for f in 0..dim {
            // Snapshot the column once: under Hogwild the live values keep
            // moving, and sorting directly on the matrix would give the
            // comparator an inconsistent (Ord-violating) view.
            for (slot, &c) in column.iter_mut().zip(candidates) {
                *slot = matrix.get(c as usize, f);
            }
            sigma.push(crate::math::variance(&column));
            order.clear();
            order.extend(0..n as u32);
            // `total_cmp`: a NaN that slips into a live Hogwild matrix must
            // not panic the refresh (it sorts deterministically instead).
            order.sort_unstable_by(|&a, &b| {
                column[b as usize]
                    .total_cmp(&column[a as usize])
                    .then(candidates[a as usize].cmp(&candidates[b as usize]))
            });
            by_dim.extend(order.iter().map(|&i| candidates[i as usize]));
        }
        Rankings { by_dim, sigma }
    }

    /// The paper's recompute budget in draws (`n·⌈log₂n⌉`) — the quantity
    /// the trainer divides by expected draws per step to derive the step
    /// cadence.
    pub fn draw_interval(&self) -> u64 {
        self.refresh_interval
    }

    /// Install the refresh cadence in global steps. `every == 0` disables
    /// refreshes entirely (a state whose side is never drawn from). Resets
    /// the schedule: the first refresh is due at step `every`.
    pub fn set_step_interval(&mut self, every: u64) {
        self.step_interval = every;
        let first = if every == 0 { u64::MAX } else { every };
        self.next_refresh_at.store(first, Ordering::Relaxed);
    }

    /// The installed refresh cadence in global steps (0 = disabled).
    pub fn step_interval(&self) -> u64 {
        self.step_interval
    }

    /// Recompute the rankings if the step-indexed schedule says a refresh
    /// is due at `global_step`. Exactly one caller wins the compare-exchange
    /// claim per scheduled refresh; everyone else returns immediately and
    /// keeps sampling the previous generation. The winner builds the new
    /// rankings *outside* the lock (double buffer) and swaps them in under
    /// a brief write lock. Returns whether this call refreshed.
    ///
    /// The schedule is a pure function of the step index — `next = (step /
    /// every + 1) · every` — so when callers present thread-count-independent
    /// step indices (tally-flush and window boundaries), the refresh
    /// sequence is identical for every thread count.
    pub fn refresh_if_due(&self, global_step: u64, matrix: &AtomicMatrix) -> bool {
        let due = self.next_refresh_at.load(Ordering::Relaxed);
        if global_step < due {
            return false;
        }
        let next = (global_step / self.step_interval + 1) * self.step_interval;
        if self
            .next_refresh_at
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Another thread claimed this scheduled refresh.
            return false;
        }
        if gem_obs::faults::should_fail("train.adaptive_refresh") {
            panic!("injected fault: train.adaptive_refresh");
        }
        // Timing is gated on the hooks: an unobserved trainer pays no clock
        // reads here (and nothing at all on the draw path).
        let started = self.obs.active().then(|| (Instant::now(), self.obs.tracer.now_ns()));
        let fresh = Self::compute(matrix, &self.candidates);
        // A poisoned lock means a previous refresher panicked mid-swap; the
        // stale rankings it left are exactly as usable as the stale rankings
        // every non-refreshing worker reads anyway, so recover the guard
        // instead of cascading the panic through every worker.
        *self.rankings.write().unwrap_or_else(|e| e.into_inner()) = fresh;
        if let Some((wall, start_ns)) = started {
            let ns = wall.elapsed().as_nanos() as u64;
            self.obs.refreshes.inc();
            self.obs.refresh_ns.record(ns);
            self.obs.tracer.record_span(
                "train.adaptive_refresh",
                "train",
                start_ns,
                ns,
                &[("candidates", self.candidates.len() as u64)],
            );
        }
        true
    }

    /// Force an immediate refresh (used by tests and by checkpoint restore).
    /// Leaves the step-indexed schedule untouched.
    pub fn refresh_now(&self, matrix: &AtomicMatrix) {
        *self.rankings.write().unwrap_or_else(|e| e.into_inner()) =
            Self::compute(matrix, &self.candidates);
    }

    /// The step index the next refresh is due at — persisted by checkpoints
    /// so a resumed run refreshes on the same schedule it would have
    /// continued on.
    pub(crate) fn next_refresh_at(&self) -> u64 {
        self.next_refresh_at.load(Ordering::Relaxed)
    }

    /// Restore the refresh schedule from a checkpoint. A disabled state
    /// (`step_interval == 0`) stays disabled no matter what the checkpoint
    /// slot holds — e.g. one written by an older draw-counting build.
    pub(crate) fn set_next_refresh_at(&self, v: u64) {
        let v = if self.step_interval == 0 { u64::MAX } else { v };
        self.next_refresh_at.store(v, Ordering::Relaxed);
    }

    /// Draw one noise node for the given context vector (Algorithm 1 lines
    /// 16–26).
    ///
    /// Signed-embedding generalisation: the paper assumes rectified
    /// (non-negative) vectors and weighs dimensions by `v_{c,f}·σ_f`.
    /// Here dimensions are weighed by `|v_{c,f}|·σ_f`, and when the context
    /// coordinate is negative the rank is taken from the *bottom* of the
    /// dimension's ordering — nodes with the most negative value on `f`
    /// contribute the largest (most adversarial) `v_c·v_k`.
    pub fn sample<R: Rng>(&self, context: &[f32], rng: &mut R) -> u32 {
        debug_assert_eq!(context.len(), self.dim);
        // Poison recovery: see `refresh_if_due` — stale rankings from a
        // panicked refresher are within the Hogwild staleness contract.
        let rankings = self.rankings.read().unwrap_or_else(|e| e.into_inner());
        let mut total = 0.0f64;
        for (c, sigma) in context.iter().zip(&rankings.sigma) {
            total += (c.abs() * sigma) as f64;
        }
        let f = if total > 0.0 {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = self.dim - 1;
            for (f, (c, sigma)) in context.iter().zip(&rankings.sigma).enumerate() {
                target -= (c.abs() * sigma) as f64;
                if target <= 0.0 {
                    chosen = f;
                    break;
                }
            }
            chosen
        } else {
            // Degenerate context (all-zero row): any dimension is as good.
            rng.random_range(0..self.dim)
        };
        let n = self.candidates.len();
        let s = self.geometric.sample(rng);
        let pos = if context[f] >= 0.0 { s } else { n - 1 - s };
        rankings.by_dim[f * n + pos]
    }
}

/// The paper's *exact* adaptive sampler (§III-B "Exact Implementation"):
/// ranks every candidate by its true similarity `σ(v_c · v_k)` to the
/// context node and draws the rank from the truncated geometric.
///
/// Cost per draw is `O(|V|·K + |V| log |V|)`, which the paper rightly calls
/// infeasible for training — it exists only as the ground-truth reference
/// the approximate sampler is validated against in this module's tests.
#[cfg(test)]
#[derive(Debug)]
pub struct ExactAdaptiveSampler {
    candidates: Vec<u32>,
    geometric: TruncatedGeometric,
}

/// Caller-owned scratch for [`ExactAdaptiveSampler`] draws, mirroring the
/// trainer's `StepBuffers` pattern: allocate once, reuse per draw.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct ExactScratch {
    row: Vec<f32>,
    scored: Vec<(f32, u32)>,
}

#[cfg(test)]
impl ExactScratch {
    /// Empty scratch; buffers grow to the right size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
impl ExactAdaptiveSampler {
    /// Build over the candidate node ids.
    ///
    /// # Panics
    /// Panics if `candidates` is empty or `lambda` is invalid.
    pub fn new(candidates: Vec<u32>, lambda: f64) -> Self {
        assert!(!candidates.is_empty(), "exact sampler needs candidates");
        let geometric = TruncatedGeometric::new(candidates.len(), lambda);
        Self { candidates, geometric }
    }

    /// Rank all candidates by descending true dot product with `context`
    /// and return the node at a geometrically drawn rank.
    ///
    /// Allocating convenience wrapper around [`Self::sample_with`].
    pub fn sample<R: Rng>(&self, matrix: &AtomicMatrix, context: &[f32], rng: &mut R) -> u32 {
        self.sample_with(matrix, context, rng, &mut ExactScratch::new())
    }

    /// Like [`Self::sample`], but reusing caller-owned scratch so repeated
    /// draws perform no per-call allocation.
    pub fn sample_with<R: Rng>(
        &self,
        matrix: &AtomicMatrix,
        context: &[f32],
        rng: &mut R,
        scratch: &mut ExactScratch,
    ) -> u32 {
        scratch.row.resize(matrix.dim(), 0.0);
        scratch.scored.clear();
        scratch.scored.extend(self.candidates.iter().map(|&c| {
            matrix.read_row(c as usize, &mut scratch.row);
            (crate::math::dot(context, &scratch.row), c)
        }));
        scratch.scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let s = self.geometric.sample(rng);
        scratch.scored[s].1
    }

    /// The true similarity rank (0-based) of `node` w.r.t. `context` —
    /// used by tests to measure how adversarial a sampler's draws are.
    pub fn rank_of(&self, matrix: &AtomicMatrix, context: &[f32], node: u32) -> usize {
        self.rank_of_with(matrix, context, node, &mut ExactScratch::new())
    }

    /// Like [`Self::rank_of`], but reusing caller-owned scratch.
    pub fn rank_of_with(
        &self,
        matrix: &AtomicMatrix,
        context: &[f32],
        node: u32,
        scratch: &mut ExactScratch,
    ) -> usize {
        scratch.row.resize(matrix.dim(), 0.0);
        matrix.read_row(node as usize, &mut scratch.row);
        let target = crate::math::dot(context, &scratch.row);
        self.candidates
            .iter()
            .filter(|&&c| {
                matrix.read_row(c as usize, &mut scratch.row);
                crate::math::dot(context, &scratch.row) > target
            })
            .count()
    }
}

impl std::fmt::Debug for AdaptiveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AdaptiveState(n={}, dim={}, draw_budget={}, step_every={})",
            self.candidates.len(),
            self.dim,
            self.refresh_interval,
            self.step_interval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_sampling::rng_from_seed;

    /// Matrix where node i has value (n - i) on dim 0 and 0 elsewhere:
    /// ranking on dim 0 is the identity permutation.
    fn descending_matrix(n: usize, dim: usize) -> AtomicMatrix {
        let m = AtomicMatrix::zeros(n, dim);
        for i in 0..n {
            m.set(i, 0, (n - i) as f32);
        }
        m
    }

    #[test]
    fn rankings_order_by_value_descending() {
        let m = descending_matrix(10, 3);
        let state = AdaptiveState::new(&m, 2.0);
        let r = state.rankings.read().unwrap();
        // Dim 0: nodes already in rank order 0,1,2,...
        assert_eq!(&r.by_dim[0..10], &(0..10u32).collect::<Vec<_>>()[..]);
        // Dim 1 is all zeros: ties broken by id.
        assert_eq!(&r.by_dim[10..20], &(0..10u32).collect::<Vec<_>>()[..]);
        assert!(r.sigma[0] > 0.0);
        assert_eq!(r.sigma[1], 0.0);
    }

    #[test]
    fn small_lambda_samples_top_ranked_nodes() {
        let m = descending_matrix(100, 2);
        let state = AdaptiveState::new(&m, 1.0); // sharp distribution
        let mut rng = rng_from_seed(5);
        let context = [1.0f32, 0.0];
        let mut top5 = 0;
        for _ in 0..2000 {
            if state.sample(&context, &mut rng) < 5 {
                top5 += 1;
            }
        }
        // With λ=1 over 100 ranks, >99% of mass is on the top 5 ranks.
        assert!(top5 > 1900, "only {top5}/2000 draws in top 5");
    }

    #[test]
    fn context_selects_the_informative_dimension() {
        // Node values: dim 0 ranks 0..n ascending ids, dim 1 ranks reversed.
        let n = 50;
        let m = AtomicMatrix::zeros(n, 2);
        for i in 0..n {
            m.set(i, 0, (n - i) as f32);
            m.set(i, 1, i as f32);
        }
        let state = AdaptiveState::new(&m, 1.0);
        let mut rng = rng_from_seed(6);
        // Context pointing entirely along dim 1 → top ranks of dim 1 are the
        // *high-id* nodes.
        let context = [0.0f32, 1.0];
        let mut high_id = 0;
        for _ in 0..1000 {
            if state.sample(&context, &mut rng) >= (n - 5) as u32 {
                high_id += 1;
            }
        }
        assert!(high_id > 900, "only {high_id}/1000 high-id draws");
    }

    #[test]
    fn zero_context_still_samples_valid_nodes() {
        let m = descending_matrix(20, 4);
        let state = AdaptiveState::new(&m, 5.0);
        let mut rng = rng_from_seed(7);
        let context = [0.0f32; 4];
        for _ in 0..200 {
            assert!((state.sample(&context, &mut rng) as usize) < 20);
        }
    }

    #[test]
    fn refresh_tracks_matrix_changes() {
        let m = descending_matrix(10, 1);
        let state = AdaptiveState::new(&m, 0.5);
        let mut rng = rng_from_seed(8);
        let context = [1.0f32];
        // Initially node 0 is top-ranked.
        let before = state.sample(&context, &mut rng);
        assert_eq!(before, 0);
        // Flip the matrix: now node 9 has the largest value.
        for i in 0..10 {
            m.set(i, 0, i as f32);
        }
        state.refresh_now(&m);
        let mut counts = [0usize; 10];
        for _ in 0..500 {
            counts[state.sample(&context, &mut rng) as usize] += 1;
        }
        assert!(counts[9] > 400, "node 9 sampled only {} times", counts[9]);
    }

    #[test]
    fn approximate_sampler_tracks_the_exact_ranking() {
        // The approximation must be *adversarial*: its draws should land at
        // substantially better (lower) true-similarity ranks than uniform
        // sampling would. Compare mean true ranks of approximate draws vs
        // the uniform expectation n/2.
        let n = 200usize;
        let dim = 8;
        let m = AtomicMatrix::zeros(n, dim);
        let mut rng = rng_from_seed(42);
        use rand::RngExt;
        for i in 0..n {
            for d in 0..dim {
                m.set(i, d, rng.random::<f32>());
            }
        }
        let candidates: Vec<u32> = (0..n as u32).collect();
        let lambda = 10.0;
        let approx = AdaptiveState::over_candidates(&m, candidates.clone(), lambda);
        let exact = ExactAdaptiveSampler::new(candidates, lambda);
        let context: Vec<f32> = (0..dim).map(|_| rng.random::<f32>()).collect();

        let draws = 400;
        let mean_rank_of = |mut f: Box<dyn FnMut(&mut gem_sampling::SeededRng) -> u32>| {
            let mut rng = rng_from_seed(7);
            let mut total = 0usize;
            for _ in 0..draws {
                let node = f(&mut rng);
                total += exact.rank_of(&m, &context, node);
            }
            total as f64 / draws as f64
        };
        let approx_mean = mean_rank_of(Box::new(|r| approx.sample(&context, r)));
        let exact_mean = mean_rank_of(Box::new(|r| exact.sample(&m, &context, r)));
        let uniform_mean = n as f64 / 2.0;

        // Exact draws concentrate near rank λ; approximate ones must sit
        // well below uniform, even if above exact.
        assert!(exact_mean < 25.0, "exact sampler mean rank {exact_mean}");
        assert!(
            approx_mean < uniform_mean * 0.8,
            "approximate sampler mean rank {approx_mean} not adversarial (uniform {uniform_mean})"
        );
    }

    #[test]
    fn exact_sampler_hits_top_ranks_for_sharp_lambda() {
        let n = 50;
        let m = descending_matrix(n, 1);
        let exact = ExactAdaptiveSampler::new((0..n as u32).collect(), 1.0);
        let mut rng = rng_from_seed(3);
        let context = [1.0f32];
        for _ in 0..100 {
            // Top similarity = node 0 (largest value on the only dim).
            assert!(exact.sample(&m, &context, &mut rng) < 5);
        }
    }

    #[test]
    fn exact_scratch_reuse_matches_fresh_allocation() {
        let n = 30;
        let m = descending_matrix(n, 3);
        let exact = ExactAdaptiveSampler::new((0..n as u32).collect(), 0.7);
        let context = [0.9f32, -0.2, 0.4];
        let mut scratch = ExactScratch::new();
        // Identical RNG streams must give identical draws whether the
        // scratch is reused or freshly allocated per call.
        let mut rng_a = rng_from_seed(11);
        let mut rng_b = rng_from_seed(11);
        for _ in 0..50 {
            let with = exact.sample_with(&m, &context, &mut rng_a, &mut scratch);
            let fresh = exact.sample(&m, &context, &mut rng_b);
            assert_eq!(with, fresh);
            assert_eq!(
                exact.rank_of_with(&m, &context, with, &mut scratch),
                exact.rank_of(&m, &context, with)
            );
        }
    }

    #[test]
    fn refresh_obs_records_count_duration_and_span() {
        let m = descending_matrix(4, 1); // draw budget = 4 * 2 = 8
        let mut state = AdaptiveState::new(&m, 1.0);
        let reg = gem_obs::MetricsRegistry::new();
        let tracer = Tracer::new();
        state.set_obs(RefreshObs::new(
            reg.counter("train.adaptive_refreshes"),
            reg.histogram("train.adaptive_refresh_ns"),
            tracer.clone(),
        ));
        state.set_step_interval(8);
        assert!(!state.refresh_if_due(7, &m), "not due before the interval");
        assert!(state.refresh_if_due(8, &m), "due exactly at the interval");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("train.adaptive_refreshes"), 1);
        assert_eq!(snap.histogram("train.adaptive_refresh_ns").unwrap().count, 1);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].name, "train.adaptive_refresh");
        assert_eq!(sink.events()[0].cat, "train");
        assert_eq!(sink.events()[0].args, vec![("candidates", 4)]);
    }

    #[test]
    fn step_cadence_fires_once_per_interval_and_reschedules() {
        let m = descending_matrix(4, 1);
        let mut state = AdaptiveState::new(&m, 1.0);
        state.set_step_interval(8);
        for i in 0..4 {
            m.set(i, 0, i as f32); // reverse the order
        }
        assert!(state.refresh_if_due(9, &m), "step 9 is past the first due step");
        {
            let r = state.rankings.read().unwrap();
            assert_eq!(r.by_dim[0], 3, "refresh should expose the new top node");
        }
        // The claim rescheduled to the next multiple of the interval after
        // the observed step: (9 / 8 + 1) * 8 = 16.
        assert!(!state.refresh_if_due(9, &m), "already refreshed for this interval");
        assert!(!state.refresh_if_due(15, &m));
        assert!(state.refresh_if_due(16, &m));
        // The schedule is step-indexed: a late check refreshes once, not
        // once per missed interval.
        assert!(state.refresh_if_due(1000, &m));
        assert!(!state.refresh_if_due(1000, &m));
    }

    #[test]
    fn zero_step_interval_disables_refreshes() {
        let m = descending_matrix(4, 1);
        let mut state = AdaptiveState::new(&m, 1.0);
        state.set_step_interval(0);
        assert_eq!(state.step_interval(), 0);
        assert!(!state.refresh_if_due(u64::MAX - 1, &m), "disabled state never refreshes");
    }
}
