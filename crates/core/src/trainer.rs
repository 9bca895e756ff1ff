//! The joint multi-graph trainer (Algorithms 1 & 2, Eq. 4–5).
//!
//! Each step:
//!
//! 1. draw a bipartite graph (edge-count-proportional for GEM, uniform for
//!    PTE) — Algorithm 2 line 3,
//! 2. draw a positive edge from it ∝ weight (edge sampling, so weights never
//!    scale gradients and one learning rate fits all graphs),
//! 3. draw `M` noise nodes on the right side (and, bidirectionally, `M`
//!    more on the left side) using the configured sampler,
//! 4. apply the SGD update of Eq. 5 with the rectifier projection.
//!
//! With `threads > 1` the same step loop runs Hogwild-style on a shared
//! [`AtomicMatrix`] set; each worker owns an independent RNG stream derived
//! from the master seed.

use crate::adaptive::{AdaptiveState, RefreshObs};
use crate::checkpoint::Checkpoint;
use crate::config::{GraphChoice, NoiseKind, RectifyMode, SamplingDirection, TrainConfig};
use crate::error::TrainError;
use crate::journal::TrainJournal;
use crate::math::{axpy, sigmoid, SigmoidLut};
use crate::matrix::AtomicMatrix;
use crate::metrics::TrainerMetrics;
use crate::model::GemModel;
use gem_ebsn::{BipartiteGraph, NodeKind, TrainingGraphs};
use gem_obs::{faults, CachePadded, Tracer};
use gem_sampling::noise::DEFAULT_EXPONENT;
use gem_sampling::{
    rng_from_seed, split_seed, AliasError, AliasView, CsrAliasSet, GaussianSampler, SeededRng,
};
use rand::RngExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Segment layout of the trainer's packed [`CsrAliasSet`]: segment
/// [`seg::GRAPH`] picks which relation graph a step trains on, segments
/// `1..=5` sample a positive edge within graph `gi`, and segments `6..=15`
/// hold the smoothed-degree noise distribution for each (graph, side).
mod seg {
    /// Graph-choice distribution (Algorithm 2's outer draw).
    pub const GRAPH: usize = 0;
    /// Positive-edge distribution of graph `gi`.
    pub const fn edge(gi: usize) -> usize {
        1 + gi
    }
    /// Degree-noise distribution of `(gi, side)` (side 0 = left, 1 = right).
    pub const fn noise(gi: usize, side: usize) -> usize {
        6 + gi * 2 + side
    }
    /// Total segments: 1 graph choice + 5 edge + 5×2 noise.
    pub const COUNT: usize = 16;
}

/// Index of a node kind into the per-kind arrays.
fn kind_idx(kind: NodeKind) -> usize {
    match kind {
        NodeKind::User => 0,
        NodeKind::Event => 1,
        NodeKind::Region => 2,
        NodeKind::TimeSlot => 3,
        NodeKind::Word => 4,
    }
}

/// The five embedding matrices, indexed by node kind.
pub struct EmbeddingSet {
    matrices: [AtomicMatrix; 5],
}

impl EmbeddingSet {
    fn new(counts: [usize; 5], dim: usize, init_std: f64, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let mut gauss = GaussianSampler::new(0.0, init_std);
        let matrices = counts.map(|n| {
            let m = AtomicMatrix::zeros(n.max(1), dim);
            for row in 0..n {
                for k in 0..dim {
                    // |N(0, σ²)|: Gaussian magnitude, rectified from the
                    // start so the non-negativity invariant holds always.
                    m.set(row, k, gauss.sample(&mut rng).abs() as f32);
                }
            }
            m
        });
        Self { matrices }
    }

    /// Matrix of a node kind.
    #[inline]
    pub fn of(&self, kind: NodeKind) -> &AtomicMatrix {
        &self.matrices[kind_idx(kind)]
    }
}

/// Which side of an edge a noise node replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// Progress counters exposed while/after training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainProgress {
    /// Total gradient steps performed so far.
    pub steps: u64,
}

/// The GEM trainer. Create once per (graphs, config), then call
/// [`GemTrainer::run`] one or more times (convergence sweeps call it in
/// chunks and snapshot the model between chunks).
pub struct GemTrainer<'g> {
    config: TrainConfig,
    graphs: [&'g BipartiteGraph; 5],
    embeddings: EmbeddingSet,
    /// Every static distribution the step loop draws from, packed into one
    /// CSR alias family (layout in [`seg`]): graph choice, per-graph edge
    /// sampling, and per-(graph, side) smoothed-degree noise. Replaces the
    /// dozen-plus separately allocated `AliasTable`s of earlier revisions;
    /// per-segment draw streams are bit-identical (golden-hash pinned).
    tables: CsrAliasSet,
    /// Adaptive sampler state per (graph, side) over that side's
    /// non-zero-degree nodes.
    adaptive: [[Option<AdaptiveState>; 2]; 5],
    /// Cadence (in global steps) at which the step loops present step
    /// indices to the adaptive refresh schedule: the tightest active
    /// `step_interval`, capped at [`TALLY_FLUSH`]. 0 = no active schedule.
    refresh_check: u64,
    /// Precomputed sigmoid table (used when `config.sigmoid_lut`);
    /// read-only, shared by all workers.
    lut: SigmoidLut,
    /// Padded: bumped at the end of every `run`, and sharing a line with
    /// the read-mostly fields above would drag them along on every bump.
    steps_done: CachePadded<AtomicU64>,
    /// Set when a worker panicked mid-chunk: the embeddings hold a
    /// half-applied chunk, so further runs are refused until
    /// [`GemTrainer::resume_from`] restores a consistent checkpoint.
    poisoned: AtomicBool,
    metrics: TrainerMetrics,
    /// Span tracer (disabled by default). Spans are per run / worker /
    /// refresh — never per step — so tracing stays off the hot loop.
    tracer: Tracer,
}

/// Per-worker handles onto the positive-edge sampling tables: borrowed,
/// allocation-free [`AliasView`]s of one shared immutable copy.
///
/// The graph- and edge-alias probability arrays are read on *every* step
/// by *every* worker but never written after construction, so sharing is
/// safe and a view samples with the *identical* RNG draw sequence as the
/// owning table (pinned by a gem-sampling test). Earlier revisions
/// deep-copied the arrays per worker to keep the read-mostly lines
/// core-local; at the million-user tier those copies dominate per-thread
/// memory (an alias table is 12 bytes per edge), so workers now borrow
/// spans of the trainer's packed [`CsrAliasSet`] — read-only lines
/// replicate in every core's cache anyway.
struct WorkerTables<'a> {
    graph: AliasView<'a>,
    edges: [Option<AliasView<'a>>; 5],
}

/// Steps between flushes of a worker-local tally into the shared counters.
/// Large enough that the shared atomics see no contention, small enough
/// that `train.steps` tracks Hogwild progress while a run is in flight.
const TALLY_FLUSH: u64 = 4096;

/// Best-effort string from a caught panic payload (`panic!` with a literal
/// or a formatted message covers everything this crate can throw).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Worker-local accumulator, flushed into [`TrainerMetrics`] periodically
/// so the step loop never touches shared cache lines.
#[derive(Default)]
struct StepTally {
    steps: u64,
    samples: [u64; 5],
    loss_proxy_milli: u64,
    loss_per_graph_milli: [u64; 5],
}

impl StepTally {
    #[inline]
    fn observe(&mut self, outcome: Option<(usize, f32)>) {
        self.steps += 1;
        if let Some((gi, g)) = outcome {
            self.samples[gi] += 1;
            // g ∈ (0, 1); clamp guards NaN/∞ from a diverged model.
            let milli = (g.clamp(0.0, 1.0) * 1000.0) as u64;
            self.loss_proxy_milli += milli;
            self.loss_per_graph_milli[gi] += milli;
        }
    }

    fn flush_into(&mut self, metrics: &TrainerMetrics) {
        metrics.steps.add(self.steps);
        for (counter, &n) in metrics.samples.iter().zip(&self.samples) {
            counter.add(n);
        }
        metrics.loss_proxy_milli.add(self.loss_proxy_milli);
        for (counter, &n) in metrics.loss_per_graph_milli.iter().zip(&self.loss_per_graph_milli) {
            counter.add(n);
        }
        *self = Self::default();
    }
}

/// Reusable per-worker scratch space (avoids per-step allocation).
struct StepBuffers {
    vi: Vec<f32>,
    vj: Vec<f32>,
    vk: Vec<f32>,
    grad_i: Vec<f32>,
    grad_j: Vec<f32>,
}

impl StepBuffers {
    fn new(dim: usize) -> Self {
        Self {
            vi: vec![0.0; dim],
            vj: vec![0.0; dim],
            vk: vec![0.0; dim],
            grad_i: vec![0.0; dim],
            grad_j: vec![0.0; dim],
        }
    }
}

/// Per-phase wall-clock attribution of the SGD step loop, as measured by
/// [`GemTrainer::run_profiled`].
///
/// Phases: **sample** (graph/edge/noise draws, including the reject test),
/// **fetch** (row reads, dot products, sigmoid, gradient accumulation) and
/// **update** (the row writes of Eq. 5). Timer reads add a few percent of
/// overhead, so the breakdown is for *attribution*; headline steps/sec
/// comes from the unprofiled [`GemTrainer::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Steps measured.
    pub steps: u64,
    /// Nanoseconds spent drawing the graph, edge and noise nodes.
    pub sample_ns: u64,
    /// Nanoseconds spent reading rows and computing gradients.
    pub fetch_ns: u64,
    /// Nanoseconds spent applying row updates.
    pub update_ns: u64,
}

impl PhaseBreakdown {
    /// Total attributed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.sample_ns + self.fetch_ns + self.update_ns
    }
}

/// Compile-time switch between the unprofiled step (every hook a no-op the
/// optimizer erases) and the phase-attributing one, so the hot loop is
/// written once and [`GemTrainer::run`] pays nothing for the profiler.
trait StepProf {
    /// Called when a step begins.
    #[inline]
    fn begin(&mut self) {}
    /// Attribute the time since the last mark to the *sample* phase.
    #[inline]
    fn sample(&mut self) {}
    /// Attribute the time since the last mark to the *fetch* phase.
    #[inline]
    fn fetch(&mut self) {}
    /// Attribute the time since the last mark to the *update* phase.
    #[inline]
    fn update(&mut self) {}
}

/// The zero-cost profiler used by the production step loop.
struct NoProf;

impl StepProf for NoProf {}

/// The real profiler behind [`GemTrainer::run_profiled`].
struct PhaseProf {
    last: std::time::Instant,
    breakdown: PhaseBreakdown,
}

impl PhaseProf {
    fn new() -> Self {
        Self { last: std::time::Instant::now(), breakdown: PhaseBreakdown::default() }
    }

    #[inline]
    fn lap(&mut self) -> u64 {
        let now = std::time::Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }
}

impl StepProf for PhaseProf {
    #[inline]
    fn begin(&mut self) {
        self.last = std::time::Instant::now();
    }

    #[inline]
    fn sample(&mut self) {
        let ns = self.lap();
        self.breakdown.sample_ns += ns;
    }

    #[inline]
    fn fetch(&mut self) {
        let ns = self.lap();
        self.breakdown.fetch_ns += ns;
    }

    #[inline]
    fn update(&mut self) {
        let ns = self.lap();
        self.breakdown.update_ns += ns;
    }
}

impl<'g> GemTrainer<'g> {
    /// Set up a trainer over the five relation graphs.
    ///
    /// # Errors
    /// Returns [`TrainError::Config`] for an invalid configuration,
    /// [`TrainError::EmptyGraphs`] when no graph contributes any sampling
    /// mass, and [`TrainError::Sampler`] when an edge weight is non-finite
    /// or negative. A graph whose edges all have zero weight is not an
    /// error: it is excluded from graph sampling (nothing can be drawn from
    /// it) and the remaining graphs train normally.
    pub fn new(graphs: &'g TrainingGraphs, config: TrainConfig) -> Result<Self, TrainError> {
        config.validate().map_err(TrainError::Config)?;
        let graphs = graphs.all();

        let counts = {
            let mut c = [0usize; 5];
            for g in &graphs {
                c[kind_idx(g.left_kind())] = c[kind_idx(g.left_kind())].max(g.left_count());
                c[kind_idx(g.right_kind())] = c[kind_idx(g.right_kind())].max(g.right_count());
            }
            c
        };
        let embeddings =
            EmbeddingSet::new(counts, config.dim, config.init_std, split_seed(config.seed, 0));

        // Validate each graph's edge weights in graph order, replicating the
        // standalone alias-table checks exactly (invalid weight beats zero
        // mass; graph i's error surfaces before graph i+1 is examined).
        // Zero total weight is not an error: no edge can ever be drawn from
        // such a graph, so it is excluded — an empty CSR segment — and the
        // remaining graphs train normally.
        let mut edge_weights: [Vec<f64>; 5] = Default::default();
        let mut edge_live = [false; 5];
        for (i, g) in graphs.iter().enumerate() {
            if g.num_edges() == 0 {
                continue;
            }
            let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
            if weights.len() > u32::MAX as usize {
                return Err(TrainError::Sampler(AliasError::InvalidWeight {
                    index: u32::MAX as usize,
                }));
            }
            let mut total = 0.0f64;
            for (j, &w) in weights.iter().enumerate() {
                if !w.is_finite() || w < 0.0 {
                    return Err(TrainError::Sampler(AliasError::InvalidWeight { index: j }));
                }
                total += w;
            }
            if total <= 0.0 {
                continue;
            }
            edge_weights[i] = weights;
            edge_live[i] = true;
        }

        // Graph-choice weights: a graph only participates if its edge
        // segment has mass (zero-mass graphs would otherwise be drawn and
        // then have nothing to sample).
        let graph_weights: Vec<f64> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| if edge_live[i] { g.num_edges() as f64 } else { 0.0 })
            .collect();
        if graph_weights.iter().sum::<f64>() == 0.0 {
            return Err(TrainError::EmptyGraphs);
        }

        // Smoothed-degree noise weights (`deg^0.75`, word2vec). A side whose
        // weights come out degenerate (non-finite after smoothing, or no
        // positive-degree node) yields an empty segment — degree-noise draws
        // on it return `None`, exactly as the per-graph `DegreeNoise`
        // tables' swallowed build errors used to.
        let noise_weights: [[Vec<f64>; 2]; 5] = std::array::from_fn(|gi| {
            std::array::from_fn(|side| {
                if !edge_live[gi] {
                    return Vec::new();
                }
                let degrees =
                    if side == 0 { graphs[gi].left_degrees() } else { graphs[gi].right_degrees() };
                let weights: Vec<f64> = degrees
                    .iter()
                    .map(|&d| if d > 0.0 { d.powf(DEFAULT_EXPONENT) } else { 0.0 })
                    .collect();
                if weights.iter().all(|w| w.is_finite()) {
                    weights
                } else {
                    Vec::new()
                }
            })
        });

        // Pack everything into one CSR alias family, built in a single
        // pass. Per-segment draw streams are bit-identical to the
        // standalone tables this replaces (pinned by the golden hashes and
        // a gem-sampling proptest), so the refactor is invisible to every
        // seeded run.
        let mut segment_slices: Vec<&[f64]> = Vec::with_capacity(seg::COUNT);
        segment_slices.push(&graph_weights);
        segment_slices.extend(edge_weights.iter().map(|w| w.as_slice()));
        for per_graph in &noise_weights {
            segment_slices.extend(per_graph.iter().map(|w| w.as_slice()));
        }
        let tables = CsrAliasSet::build(segment_slices)
            .map_err(|e| TrainError::Sampler(e.to_alias_error()))?;

        let mut adaptive: [[Option<AdaptiveState>; 2]; 5] = if config.noise == NoiseKind::Adaptive {
            std::array::from_fn(|gi| {
                let g = graphs[gi];
                std::array::from_fn(|side| {
                    let (kind, degrees) = if side == 0 {
                        (g.left_kind(), g.left_degrees())
                    } else {
                        (g.right_kind(), g.right_degrees())
                    };
                    let candidates: Vec<u32> = degrees
                        .iter()
                        .enumerate()
                        .filter(|(_, &d)| d > 0.0)
                        .map(|(i, _)| i as u32)
                        .collect();
                    if candidates.is_empty() {
                        None
                    } else {
                        Some(AdaptiveState::over_candidates(
                            embeddings.of(kind),
                            candidates,
                            config.lambda,
                        ))
                    }
                })
            })
        } else {
            Default::default()
        };
        // Step-indexed refresh cadence (see `adaptive.rs`): convert each
        // state's `n·⌈log₂n⌉`-draw budget into global steps by dividing by
        // its expected draws per step — the owning graph's sampling share
        // times `M` negatives. A pure function of the config, so the
        // schedule is identical for every thread count. Sides that are
        // never drawn from (left side under unidirectional sampling, zero
        // sampling mass) get a disabled schedule.
        let total_mass: f64 = graph_weights.iter().sum();
        for (gi, per_graph) in adaptive.iter_mut().enumerate() {
            for (side, state) in per_graph.iter_mut().enumerate() {
                let Some(state) = state else { continue };
                let share = graph_weights[gi] / total_mass;
                let drawn_from = side == 1 || config.direction == SamplingDirection::Bidirectional;
                if !drawn_from || share <= 0.0 {
                    state.set_step_interval(0);
                } else {
                    let draws_per_step = share * config.negatives as f64;
                    let every = (state.draw_interval() as f64 / draws_per_step).ceil().max(1.0);
                    state.set_step_interval(every as u64);
                }
            }
        }
        // How often the step loops must *present* a step index to the
        // schedule: the tightest active interval, capped at one tally flush.
        // Checking only at flush boundaries would quantize a sub-flush
        // cadence up to 4096 steps and starve small fixtures of refreshes
        // (0 = no active schedule, never check).
        let refresh_check = adaptive
            .iter()
            .flatten()
            .flatten()
            .map(|s| s.step_interval())
            .filter(|&e| e > 0)
            .min()
            .map_or(0, |m| m.min(TALLY_FLUSH));

        Ok(Self {
            config,
            graphs,
            embeddings,
            tables,
            adaptive,
            refresh_check,
            lut: SigmoidLut::new(),
            steps_done: CachePadded::new(AtomicU64::new(0)),
            poisoned: AtomicBool::new(false),
            metrics: TrainerMetrics::disabled(),
            tracer: Tracer::disabled(),
        })
    }

    /// Borrow the shared positive-edge sampling tables for one worker (see
    /// [`WorkerTables`] — views, not copies; the draw sequence is
    /// identical either way).
    fn worker_tables(&self) -> WorkerTables<'_> {
        WorkerTables {
            graph: self.tables.segment(seg::GRAPH).expect("graph segment live by construction"),
            edges: std::array::from_fn(|i| self.tables.segment(seg::edge(i))),
        }
    }

    /// Attach pre-registered gem-obs handles; subsequent [`GemTrainer::run`]
    /// calls report steps, per-graph sample counts, a loss proxy and
    /// throughput through them. Builder-style:
    ///
    /// ```ignore
    /// let trainer = GemTrainer::new(&graphs, cfg)?
    ///     .with_metrics(TrainerMetrics::register(&registry));
    /// ```
    pub fn with_metrics(mut self, metrics: TrainerMetrics) -> Self {
        self.metrics = metrics;
        self.rewire_refresh_obs();
        self
    }

    /// Attach a span tracer; subsequent runs emit `train.run` /
    /// `train.worker` spans (and `train.adaptive_refresh` spans from the
    /// adaptive sampler) into it. Builder-style, like
    /// [`GemTrainer::with_metrics`]. Spans never touch the RNG streams or
    /// step order, so traced runs are bit-identical to untraced ones (the
    /// `trace_noninterference` subprocess test pins this against the golden
    /// hash).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self.rewire_refresh_obs();
        self
    }

    /// Point every adaptive sampler's refresh hooks at the current
    /// metrics + tracer handles.
    fn rewire_refresh_obs(&mut self) {
        let obs = RefreshObs::new(
            self.metrics.adaptive_refreshes.clone(),
            self.metrics.adaptive_refresh_ns.clone(),
            self.tracer.clone(),
        );
        for per_graph in self.adaptive.iter_mut() {
            for state in per_graph.iter_mut().flatten() {
                state.set_obs(obs.clone());
            }
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Whether any adaptive sampler state exists (GEM-A): gates the
    /// background refresher thread and the boundary refresh passes.
    fn has_adaptive(&self) -> bool {
        self.adaptive.iter().flatten().any(|s| s.is_some())
    }

    /// Refresh every adaptive sampler whose step-indexed schedule is due at
    /// `global_step` (see [`AdaptiveState::refresh_if_due`]). Called at
    /// step-indexed check points only — `refresh_check` multiples and chunk
    /// ends — never from the draw hot path.
    fn refresh_adaptive_due(&self, global_step: u64) {
        for (gi, per_graph) in self.adaptive.iter().enumerate() {
            for (side, state) in per_graph.iter().enumerate() {
                let Some(state) = state else { continue };
                let kind = if side == 0 {
                    self.graphs[gi].left_kind()
                } else {
                    self.graphs[gi].right_kind()
                };
                state.refresh_if_due(global_step, self.embeddings.of(kind));
            }
        }
    }

    /// First refresh-check point strictly after `step` (`u64::MAX` when no
    /// adaptive schedule is active). A pure function of the global step
    /// index, so chunked / checkpointed / profiled runs check — and
    /// therefore refresh — at identical points.
    fn next_refresh_check_after(&self, step: u64) -> u64 {
        match self.refresh_check {
            0 => u64::MAX,
            c => (step / c + 1) * c,
        }
    }

    /// Progress so far.
    pub fn progress(&self) -> TrainProgress {
        TrainProgress { steps: self.steps_done.load(Ordering::Relaxed) }
    }

    /// The live (shared) embedding matrices.
    pub fn embeddings(&self) -> &EmbeddingSet {
        &self.embeddings
    }

    /// Run `steps` gradient steps on `threads` Hogwild workers.
    ///
    /// With `threads == 1` training is fully deterministic given the seed
    /// (each call continues the stream from a per-chunk derived seed).
    ///
    /// # Panics
    /// Panics if a worker panicked or the trainer was poisoned by an
    /// earlier panic — the pre-containment behaviour. Supervisors that want
    /// to handle worker failure as a value use [`GemTrainer::try_run`].
    pub fn run(&self, steps: u64, threads: usize) {
        if let Err(e) = self.try_run(steps, threads) {
            panic!("training run failed: {e}");
        }
    }

    /// Fallible [`GemTrainer::run`]: each Hogwild worker — and, for GEM-A,
    /// the background adaptive-refresh thread (reported as worker index
    /// `threads`) — executes under `catch_unwind`, so a panicking thread (a
    /// bug, or the armed `train.worker_panic` / `train.adaptive_refresh`
    /// fail points) is *contained* — the remaining workers finish their
    /// quotas, every flushed tally survives in the metrics, and the panic
    /// comes back as [`TrainError::WorkerPanicked`] instead of unwinding
    /// through the caller's stack. On failure the shared step counter is **not**
    /// advanced (the chunk is half-applied and unusable for deterministic
    /// continuation) and the trainer is poisoned: subsequent runs return
    /// [`TrainError::Poisoned`] until [`GemTrainer::resume_from`] restores
    /// a consistent checkpoint.
    pub fn try_run(&self, steps: u64, threads: usize) -> Result<(), TrainError> {
        let threads = threads.max(1);
        let mut run_span = self.tracer.span("train.run", "train");
        run_span.arg("steps", steps);
        run_span.arg("threads", threads as u64);
        self.run_chunk(steps, threads, &mut NoProf)
    }

    /// One chunk of training — the body shared by [`GemTrainer::try_run`]
    /// and [`GemTrainer::run_profiled`], so both obey one poison contract.
    /// `prof` instruments the single-thread loop; Hogwild workers always
    /// run unprofiled.
    fn run_chunk<P: StepProf>(
        &self,
        steps: u64,
        threads: usize,
        prof: &mut P,
    ) -> Result<(), TrainError> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(TrainError::Poisoned);
        }
        let started = std::time::Instant::now();
        self.metrics.workers.set(threads as f64);
        // Per-chunk base seed: chunks continue deterministically.
        let chunk = self.steps_done.load(Ordering::Relaxed);
        let base = split_seed(self.config.seed, 0x5EED ^ chunk);
        // First panic, if any: (worker index, panic message).
        let failure = if threads == 1 {
            // Adaptive refresh at step-indexed check points (one per
            // active interval, at most one flush apart) and at the chunk
            // end, so a due refresh never slips past a chunk boundary:
            // deterministic, so single-thread GEM-A stays reproducible.
            // GEM-P pays one u64 compare per step.
            let end = chunk + steps;
            let mut next_check = self.next_refresh_check_after(chunk).min(end);
            self.step_loop(base, chunk, 1, steps, prof, |done| {
                let global = chunk + done;
                if global >= next_check {
                    self.refresh_adaptive_due(global);
                    next_check = self.next_refresh_check_after(global).min(end);
                }
            })
            .err()
            .map(|message| (0, message))
        } else {
            self.run_hogwild(steps, threads, chunk, base)
        };
        if let Some((worker, message)) = failure {
            self.poisoned.store(true, Ordering::Relaxed);
            return Err(TrainError::WorkerPanicked { worker, message });
        }
        self.steps_done.fetch_add(steps, Ordering::Relaxed);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.metrics.steps_per_sec.set(steps as f64 / elapsed);
        }
        Ok(())
    }

    /// The SGD step loop, written once for the single-thread runner, the
    /// profiler and every Hogwild worker: `quota` steps at global indices
    /// `first, first + stride, …` on a fresh RNG stream from `seed`.
    /// `after_step` is the caller's per-step hook, handed the number of
    /// steps this loop has completed (refresh checks, progress bumps); it
    /// is monomorphised, so each caller's loop carries only its own hook.
    ///
    /// The loop runs under `catch_unwind`: a panic (a bug, or the armed
    /// `train.worker_panic` / `train.adaptive_refresh` fail points) comes
    /// back as `Err(message)`. The tally is flushed *outside* the caught
    /// closure, so partial progress up to the panic still reaches the
    /// metrics and journal.
    fn step_loop<P: StepProf>(
        &self,
        seed: u64,
        first: u64,
        stride: u64,
        quota: u64,
        prof: &mut P,
        mut after_step: impl FnMut(u64),
    ) -> Result<(), String> {
        let mut rng = rng_from_seed(seed);
        let mut bufs = StepBuffers::new(self.config.dim);
        let tables = self.worker_tables();
        let mut tally = StepTally::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut t = first;
            for done in 0..quota {
                prof.begin();
                tally.observe(self.step_impl(&mut rng, &mut bufs, &tables, t, prof));
                t += stride;
                if tally.steps == TALLY_FLUSH {
                    tally.flush_into(&self.metrics);
                    // Same cadence as the flush so the disarmed check
                    // costs one relaxed load per 4096 steps.
                    if faults::should_fail("train.worker_panic") {
                        panic!("injected fault: train.worker_panic");
                    }
                }
                after_step(done + 1);
            }
        }));
        tally.flush_into(&self.metrics);
        result.map_err(|payload| panic_message(payload.as_ref()))
    }

    /// The multi-worker half of [`GemTrainer::run_chunk`]: `threads`
    /// Hogwild workers plus, for GEM-A, the background refresher. Returns
    /// the first contained panic as `(worker index, message)`.
    fn run_hogwild(
        &self,
        steps: u64,
        threads: usize,
        chunk: u64,
        base: u64,
    ) -> Option<(usize, String)> {
        let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let record = |worker: usize, message: String| {
            let mut slot = failure.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some((worker, message));
            }
        };
        // Shared progress estimate for the background refresher: each
        // worker adds its steps at `bump` granularity — the tightest
        // active refresh interval, at most one tally flush — so a
        // sub-flush schedule is not quantized up to 4096 steps.
        let bump = match self.refresh_check {
            0 => TALLY_FLUSH,
            c => c,
        };
        let live_steps = CachePadded::new(AtomicU64::new(chunk));
        let stop = AtomicBool::new(false);
        std::thread::scope(|outer| {
            // Background refresher (GEM-A only): owns every
            // adaptive-ranking rebuild so Hogwild workers never stall on
            // one — rebuilds are double-buffered, so samplers keep
            // reading the previous rankings until the swap. Workers
            // unpark it at every bump; it refreshes whatever the
            // step-indexed schedule says is due at the reported
            // progress. Its panics (e.g. the `train.adaptive_refresh`
            // fail point) are contained exactly like a worker's,
            // reported with worker index `threads`.
            let refresher = self.has_adaptive().then(|| {
                let (record, live_steps, stop) = (&record, &live_steps, &stop);
                outer.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        loop {
                            self.refresh_adaptive_due(live_steps.load(Ordering::Relaxed));
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::park_timeout(std::time::Duration::from_millis(1));
                        }
                        // Chunk-end pass so a due refresh never slips
                        // past a chunk boundary.
                        self.refresh_adaptive_due(chunk + steps);
                    }));
                    if let Err(payload) = result {
                        record(threads, panic_message(payload.as_ref()));
                    }
                })
            });
            let refresher_thread = refresher.as_ref().map(|h| h.thread().clone());
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let quota = steps / threads as u64
                        + if (t as u64) < steps % threads as u64 { 1 } else { 0 };
                    let seed = split_seed(base, t as u64 + 1);
                    let (record, live_steps) = (&record, &live_steps);
                    let refresher_thread = refresher_thread.clone();
                    scope.spawn(move || {
                        // Worker-lifetime span: each worker thread records
                        // into its own ring, so worker timelines land on
                        // separate rows of the Chrome trace.
                        let mut worker_span = self.tracer.span("train.worker", "train");
                        worker_span.arg("worker", t as u64);
                        worker_span.arg("quota", quota);
                        let mut since_bump = 0u64;
                        // Workers share the global decay clock
                        // approximately: worker `t` takes step indices
                        // `chunk + t, chunk + t + threads, ...`, so the
                        // workers jointly cover `chunk..chunk + steps` and
                        // every index drives the learning-rate schedule
                        // exactly once.
                        let result = self.step_loop(
                            seed,
                            chunk + t as u64,
                            threads as u64,
                            quota,
                            &mut NoProf,
                            |_| {
                                if let Some(rt) = &refresher_thread {
                                    since_bump += 1;
                                    if since_bump == bump {
                                        since_bump = 0;
                                        live_steps.fetch_add(bump, Ordering::Relaxed);
                                        rt.unpark();
                                    }
                                }
                            },
                        );
                        if let Err(message) = result {
                            record(t, message);
                        }
                    });
                }
            });
            // Workers are done: stop the refresher (it makes one final
            // chunk-boundary pass on the way out).
            stop.store(true, Ordering::Relaxed);
            if let Some(rt) = &refresher_thread {
                rt.unpark();
            }
        });
        failure.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `steps` single-thread gradient steps with per-phase timing.
    ///
    /// The same chunk as a single-thread [`GemTrainer::run`] — same seed
    /// stream, same refresh check points, same poison contract — so
    /// profiling does not perturb determinism, only wall-clock (timer
    /// reads are interleaved with the work).
    ///
    /// # Panics
    /// Like [`GemTrainer::run`]: if the loop panicked or the trainer was
    /// already poisoned.
    pub fn run_profiled(&self, steps: u64) -> PhaseBreakdown {
        let mut prof = PhaseProf::new();
        if let Err(e) = self.run_chunk(steps, 1, &mut prof) {
            panic!("training run failed: {e}");
        }
        prof.breakdown.steps = steps;
        // Emit the aggregate breakdown as three synthetic back-to-back
        // spans ending now: the trace shows *where* profiled step time went
        // without paying a span per step. (Phase time is interleaved in
        // reality; the trace renders its totals.)
        if self.tracer.is_enabled() {
            let b = &prof.breakdown;
            let mut cursor = self.tracer.now_ns().saturating_sub(b.total_ns());
            for (name, ns) in [
                ("train.phase.sample", b.sample_ns),
                ("train.phase.fetch", b.fetch_ns),
                ("train.phase.update", b.update_ns),
            ] {
                self.tracer.record_span(name, "train", cursor, ns, &[("steps", steps)]);
                cursor += ns;
            }
        }
        prof.breakdown
    }

    /// Run `steps` gradient steps in epoch-sized chunks, appending one
    /// journal line per chunk (see [`TrainJournal`]); the final partial
    /// epoch (if `steps` is not a multiple of the cadence) is recorded too.
    ///
    /// Loss and refresh fields need attached metrics
    /// ([`GemTrainer::with_metrics`]) — without them those fields journal
    /// as `null`/0 while steps and wall clock still record.
    ///
    /// Chunked runs derive a fresh per-chunk seed (like back-to-back
    /// [`GemTrainer::run`] calls), so a journaled run is bit-identical to
    /// plain runs chunked at the same cadence — not to one monolithic run.
    pub fn run_journaled(&self, steps: u64, threads: usize, journal: &mut TrainJournal) {
        self.run_journaled_observed(steps, threads, journal, |_, _| {});
    }

    /// [`GemTrainer::run_journaled`] with an after-epoch hook: `after_epoch`
    /// runs once per recorded epoch (e.g. to evaluate the model on held-out
    /// data, as the convergence report does). Time spent in the hook is
    /// excluded from the next epoch's journaled wall clock, so steps/sec
    /// stays a training number no matter how slow the evaluation is.
    pub fn run_journaled_observed<F>(
        &self,
        steps: u64,
        threads: usize,
        journal: &mut TrainJournal,
        mut after_epoch: F,
    ) where
        F: FnMut(&Self, &crate::journal::EpochStats),
    {
        journal.ensure_baseline(self);
        let epoch = journal.epoch_steps();
        // When traced single-thread, route each chunk through
        // [`GemTrainer::run_profiled`] — it consumes the identical seed
        // stream, and its synthetic `train.phase.*` spans land *inside* the
        // per-epoch span recorded below, giving the flame view run ⊃ epoch
        // ⊃ phase. Multi-thread chunks keep using `run`, whose workers emit
        // their own `train.worker` spans.
        let profiled = self.tracer.is_enabled() && threads <= 1;
        let run_start = self.tracer.now_ns();
        let mut remaining = steps;
        while remaining > 0 {
            let chunk = remaining.min(epoch);
            let epoch_start = self.tracer.now_ns();
            if profiled {
                self.run_profiled(chunk);
            } else {
                self.run(chunk, threads);
            }
            if self.tracer.is_enabled() {
                // Same 0-based numbering the journal line will carry.
                let number = journal.history().len() as u64;
                self.tracer.record_span(
                    "train.epoch",
                    "train",
                    epoch_start,
                    self.tracer.now_ns().saturating_sub(epoch_start),
                    &[("epoch", number), ("steps", chunk)],
                );
            }
            journal.observe(self);
            let stats = *journal.last().expect("observe just recorded an epoch");
            after_epoch(self, &stats);
            journal.rebase_clock();
            remaining -= chunk;
        }
        // `run_profiled` does not emit the `train.run` umbrella that `run`
        // does, so close one over the whole journaled run to keep the top
        // flame layer (and trace validators that require it) intact.
        if profiled {
            self.tracer.record_span(
                "train.run",
                "train",
                run_start,
                self.tracer.now_ns().saturating_sub(run_start),
                &[("steps", steps), ("threads", 1)],
            );
        }
    }

    /// Cumulative observability totals for the journal's differencing.
    pub(crate) fn obs_totals(&self) -> crate::journal::ObsTotals {
        crate::journal::ObsTotals {
            steps: self.steps_done.load(Ordering::Relaxed),
            loss_milli: self.metrics.loss_proxy_milli.get(),
            loss_per_graph_milli: std::array::from_fn(|i| {
                self.metrics.loss_per_graph_milli[i].get()
            }),
            samples: std::array::from_fn(|i| self.metrics.samples[i].get()),
            refreshes: self.metrics.adaptive_refreshes.get(),
            refresh_ns_sum: self.metrics.adaptive_refresh_ns.snapshot().sum,
        }
    }

    /// Frobenius norm of each embedding matrix, in kind order. Streams
    /// `matrix.get` under Hogwild — a consistent-enough snapshot for a
    /// drift signal, and exact between runs.
    pub(crate) fn matrix_norms(&self) -> [f64; 5] {
        std::array::from_fn(|i| {
            let m = &self.embeddings.matrices[i];
            let mut sum = 0.0f64;
            for row in 0..m.rows() {
                for k in 0..m.dim() {
                    let v = m.get(row, k) as f64;
                    sum += v * v;
                }
            }
            sum.sqrt()
        })
    }

    /// `σ(x)` through the configured evaluator (LUT by default, exact when
    /// `config.sigmoid_lut` is off).
    #[inline]
    fn sig(&self, x: f32) -> f32 {
        if self.config.sigmoid_lut {
            self.lut.value(x)
        } else {
            sigmoid(x)
        }
    }

    /// One SGD step (Algorithm 2 lines 3–6). `t` is the global step index
    /// used by the learning-rate schedule; `tables` is this worker's view
    /// of the shared positive-edge sampling tables. Generic over the
    /// profiler so [`GemTrainer::run`] (with [`NoProf`]) compiles to the
    /// bare Hogwild loop. Row traffic goes through the `math`/`matrix`
    /// dispatchers, which pick SIMD or the portable loops per call from
    /// [`crate::simd::backend`] — bit-identical either way.
    ///
    /// Returns `(graph index, positive-edge gradient coefficient)` for the
    /// metrics tally, or `None` when the step was skipped (uniform graph
    /// choice landing on an empty graph).
    fn step_impl<P: StepProf>(
        &self,
        rng: &mut SeededRng,
        bufs: &mut StepBuffers,
        tables: &WorkerTables<'_>,
        t: u64,
        prof: &mut P,
    ) -> Option<(usize, f32)> {
        // Line 3: pick a graph. Uniform choice may land on an empty graph;
        // skip it (proportional choice cannot, by construction).
        let gi = match self.config.graph_choice {
            GraphChoice::EdgeCountProportional => tables.graph.sample(rng),
            GraphChoice::Uniform => {
                let mut gi = rng.random_range(0..5);
                let mut guard = 0;
                while self.graphs[gi].num_edges() == 0 && guard < 16 {
                    gi = rng.random_range(0..5);
                    guard += 1;
                }
                if self.graphs[gi].num_edges() == 0 {
                    return None;
                }
                gi
            }
        };
        let graph = self.graphs[gi];
        // Defensive skip instead of the former `expect`: construction keeps
        // the "sampled graph has a table" invariant, but a missing table
        // must degrade to a skipped step, never panic a Hogwild worker.
        let edge_table = tables.edges[gi].as_ref()?;

        // Line 4: positive edge ∝ weight.
        let edge = graph.edges()[edge_table.sample(rng)];
        prof.sample();
        let (lkind, rkind) = (graph.left_kind(), graph.right_kind());
        let (lmat, rmat) = (self.embeddings.of(lkind), self.embeddings.of(rkind));

        // Positive-edge gradient coefficient: 1 - σ(vi·vj), the vj read
        // fused with the dot product (one pass over the row).
        lmat.read_row(edge.left as usize, &mut bufs.vi);
        let g = 1.0 - self.sig(rmat.read_row_dot(edge.right as usize, &bufs.vi, &mut bufs.vj));
        bufs.grad_i.iter_mut().zip(&bufs.vj).for_each(|(o, &v)| *o = g * v);
        bufs.grad_j.iter_mut().zip(&bufs.vi).for_each(|(o, &v)| *o = g * v);
        prof.fetch();

        let alpha = if self.config.lr_decay_t0 > 0 {
            self.config.learning_rate / (1.0 + t as f32 / self.config.lr_decay_t0 as f32).sqrt()
        } else {
            self.config.learning_rate
        };
        let m = self.config.negatives;

        // Right-side negatives (always, Eq. 3 and Eq. 4 share this term).
        for _ in 0..m {
            let k = self.draw_noise(gi, Side::Right, &bufs.vi, (edge.left, edge.right), rng);
            prof.sample();
            let Some(k) = k else { continue };
            let s = self.sig(rmat.read_row_dot(k as usize, &bufs.vi, &mut bufs.vk));
            axpy(&mut bufs.grad_i, &bufs.vk, -s);
            prof.fetch();
            // vk update: vk -= α σ(vi·vk) vi.
            self.apply(rmat, k as usize, &bufs.vi, -alpha * s, false);
            prof.update();
        }

        // Left-side negatives (bidirectional only, the second sum of Eq. 4).
        if self.config.direction == SamplingDirection::Bidirectional {
            for _ in 0..m {
                let k = self.draw_noise(gi, Side::Left, &bufs.vj, (edge.left, edge.right), rng);
                prof.sample();
                let Some(k) = k else { continue };
                let s = self.sig(lmat.read_row_dot(k as usize, &bufs.vj, &mut bufs.vk));
                axpy(&mut bufs.grad_j, &bufs.vk, -s);
                prof.fetch();
                self.apply(lmat, k as usize, &bufs.vj, -alpha * s, false);
                prof.update();
            }
        }

        // Apply Eq. 5 to the positive pair with the rectifier projection.
        self.apply(lmat, edge.left as usize, &bufs.grad_i, alpha, true);
        self.apply(rmat, edge.right as usize, &bufs.grad_j, alpha, true);
        prof.update();

        // The reject test in draw_noise uses (edge.left, edge.right); the
        // rows just written are not re-read this step, matching Eq. 5's
        // simultaneous update semantics.
        let _ = edge;
        Some((gi, g))
    }

    /// Apply one row update, rectifying per the configured policy.
    #[inline]
    fn apply(&self, m: &AtomicMatrix, row: usize, delta: &[f32], scale: f32, positive: bool) {
        let project = match self.config.rectify {
            RectifyMode::Full => true,
            RectifyMode::PositivesOnly => positive,
            RectifyMode::Off => false,
        };
        if project {
            m.add_scaled_relu(row, delta, scale)
        } else {
            m.add_scaled(row, delta, scale)
        }
    }

    /// Draw a noise node on `side` of graph `gi`, rejecting the positive
    /// partner and observed neighbours of the context node (a few retries;
    /// on repeated failure the last draw is used — the bias is negligible
    /// and this keeps the step O(K)).
    fn draw_noise(
        &self,
        gi: usize,
        side: Side,
        context: &[f32],
        edge: (u32, u32),
        rng: &mut SeededRng,
    ) -> Option<u32> {
        let graph = self.graphs[gi];
        let count = match side {
            Side::Left => graph.left_count(),
            Side::Right => graph.right_count(),
        };
        if count <= 1 {
            return None;
        }
        let mut last = None;
        for attempt in 0..4 {
            let k = match self.config.noise {
                NoiseKind::Degree => {
                    let table = self.tables.segment(seg::noise(gi, side as usize))?;
                    table.sample(rng) as u32
                }
                NoiseKind::Adaptive => {
                    // Rankings refresh elsewhere (step-indexed boundaries /
                    // the background refresher); the draw path only reads.
                    let state = self.adaptive[gi][side as usize].as_ref()?;
                    state.sample(context, rng)
                }
            };
            if (k as usize) >= count {
                // Adaptive states cover the whole node-kind matrix, which
                // can be larger than this graph's side; out-of-range draws
                // are re-drawn.
                continue;
            }
            last = Some(k);
            // Reject the positive partner and observed neighbours of the
            // context node ("nodes without any link to v_i", §III-A).
            let is_positive = match side {
                Side::Right => k == edge.1 || graph.has_edge(edge.0, k),
                Side::Left => k == edge.0 || graph.has_edge(k, edge.1),
            };
            if !is_positive {
                return Some(k);
            }
            let _ = attempt;
        }
        // All retries hit positives (dense context node): use the last draw
        // rather than spin — the occasional positive-as-negative is noise
        // the objective tolerates.
        last
    }

    /// Snapshot everything a resumed run needs: the model matrices, the
    /// step counter (which determines every future chunk's derived seed),
    /// the master seed (for mismatch detection at restore time), and the
    /// adaptive samplers' refresh schedules (the step index each one's next
    /// refresh is due at — stored in the checkpoint's historically named
    /// `adaptive_draws` slots).
    ///
    /// Taken at a chunk boundary this is a *complete* description of a
    /// single-thread run's future: per-chunk RNG streams are derived from
    /// `(seed, steps_done)`, so nothing else needs to survive the crash.
    /// The adaptive rankings themselves are not stored — they are a pure
    /// function of the matrices and are rebuilt by
    /// [`GemTrainer::resume_from`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            seed: self.config.seed,
            steps: self.steps_done.load(Ordering::Relaxed),
            adaptive_draws: std::array::from_fn(|i| {
                self.adaptive[i / 2][i % 2].as_ref().map(|s| s.next_refresh_at()).unwrap_or(0)
            }),
            model: self.model(),
        }
    }

    /// Restore a checkpoint into this trainer and clear any panic poison:
    /// matrices are overwritten, the step counter rewinds/advances to the
    /// checkpointed value (so the next chunk derives the same seed the
    /// crashed run would have), adaptive rankings are rebuilt from the
    /// restored matrices and their refresh schedules continue the
    /// pre-crash step-indexed cadence.
    ///
    /// # Errors
    /// [`TrainError::Restore`] when the checkpoint belongs to a different
    /// run: wrong seed, wrong dimension, or matrix shapes that do not match
    /// this trainer's graphs.
    pub fn resume_from(&self, ckpt: &Checkpoint) -> Result<(), TrainError> {
        if ckpt.seed != self.config.seed {
            return Err(TrainError::Restore("seed mismatch"));
        }
        if ckpt.model.dim != self.config.dim {
            return Err(TrainError::Restore("dimension mismatch"));
        }
        let sources = [
            &ckpt.model.users,
            &ckpt.model.events,
            &ckpt.model.regions,
            &ckpt.model.time_slots,
            &ckpt.model.words,
        ];
        // Validate every shape before touching any matrix: a partial
        // restore would be worse than the failure it recovers from.
        for (src, m) in sources.iter().zip(&self.embeddings.matrices) {
            if src.len() != m.rows() * m.dim() {
                return Err(TrainError::Restore("matrix shape mismatch"));
            }
        }
        for (src, m) in sources.iter().zip(&self.embeddings.matrices) {
            for row in 0..m.rows() {
                m.write_row(row, &src[row * m.dim()..(row + 1) * m.dim()]);
            }
        }
        self.steps_done.store(ckpt.steps, Ordering::Relaxed);
        for (gi, per_graph) in self.adaptive.iter().enumerate() {
            for (side, state) in per_graph.iter().enumerate() {
                let Some(state) = state else { continue };
                let kind = if side == 0 {
                    self.graphs[gi].left_kind()
                } else {
                    self.graphs[gi].right_kind()
                };
                state.refresh_now(self.embeddings.of(kind));
                state.set_next_refresh_at(ckpt.adaptive_draws[gi * 2 + side]);
            }
        }
        self.poisoned.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Run `steps` in `cadence`-sized chunks, writing a generation-numbered
    /// checkpoint through `sink` after every chunk. Returns the last
    /// committed generation.
    ///
    /// With `cadence >= steps` this is one [`GemTrainer::try_run`] call
    /// plus a single end-of-run checkpoint — the identical RNG stream, so
    /// the golden single-thread hash holds under checkpointing. Smaller
    /// cadences chunk the stream exactly like back-to-back `run` calls.
    pub fn run_checkpointed(
        &self,
        steps: u64,
        threads: usize,
        cadence: u64,
        sink: &crate::checkpoint::Checkpointer,
    ) -> Result<u64, TrainError> {
        let cadence = cadence.max(1);
        let mut remaining = steps;
        let mut last_gen = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(cadence);
            self.try_run(chunk, threads)?;
            last_gen = sink.save(&self.checkpoint())?;
            remaining -= chunk;
        }
        Ok(last_gen)
    }

    /// Snapshot the current embeddings into an immutable scoring model.
    pub fn model(&self) -> GemModel {
        GemModel::from_embeddings(
            self.config.dim,
            &self.embeddings,
            [
                self.embeddings.matrices[0].rows(),
                self.embeddings.matrices[1].rows(),
                self.embeddings.matrices[2].rows(),
                self.embeddings.matrices[3].rows(),
                self.embeddings.matrices[4].rows(),
            ],
        )
    }
}

impl std::fmt::Debug for GemTrainer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GemTrainer(dim={}, noise={:?}, dir={:?}, steps={})",
            self.config.dim,
            self.config.noise,
            self.config.direction,
            self.steps_done.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_ebsn::{ChronoSplit, GraphBuildConfig, SplitRatios, SynthConfig};

    fn small_graphs() -> (gem_ebsn::EbsnDataset, ChronoSplit, TrainingGraphs) {
        let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::tiny(99));
        let split = ChronoSplit::new(&dataset, SplitRatios::default());
        let graphs = TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[]);
        (dataset, split, graphs)
    }

    #[test]
    fn training_is_deterministic_single_thread() {
        let (_, _, graphs) = small_graphs();
        let t1 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t1.run(5_000, 1);
        let t2 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t2.run(5_000, 1);
        assert_eq!(t1.model().users, t2.model().users);
        assert_eq!(t1.model().events, t2.model().events);
    }

    #[test]
    fn embeddings_stay_finite_under_all_variants() {
        let (_, _, graphs) = small_graphs();
        for cfg in [TrainConfig::gem_a(3), TrainConfig::gem_p(3), TrainConfig::pte(3)] {
            let t = GemTrainer::new(&graphs, cfg).unwrap();
            t.run(10_000, 1);
            let m = t.model();
            for &v in m.users.iter().chain(&m.events).chain(&m.words) {
                assert!(v.is_finite(), "bad embedding value {v}");
            }
        }
    }

    #[test]
    fn full_rectifier_keeps_embeddings_nonnegative() {
        let (_, _, graphs) = small_graphs();
        let mut cfg = TrainConfig::gem_p(3);
        cfg.rectify = crate::RectifyMode::Full;
        let t = GemTrainer::new(&graphs, cfg).unwrap();
        t.run(10_000, 1);
        let m = t.model();
        for &v in m.users.iter().chain(&m.events).chain(&m.words) {
            assert!(v >= 0.0 && v.is_finite(), "bad embedding value {v}");
        }
    }

    #[test]
    fn training_separates_positive_from_negative_edges() {
        // After training, observed user-event pairs should score higher on
        // average than random pairs.
        let (_, _, graphs) = small_graphs();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_p(11)).unwrap();
        t.run(120_000, 1);
        let m = t.model();
        let ux = &graphs.user_event;
        let mut rng = rng_from_seed(1);
        let mut pos = 0.0f64;
        let mut neg = 0.0f64;
        let n = 400.min(ux.num_edges());
        for e in ux.edges().iter().take(n) {
            pos += m.score_event_raw(e.left as usize, e.right as usize) as f64;
            let rx = rng.random_range(0..ux.right_count());
            neg += m.score_event_raw(e.left as usize, rx) as f64;
        }
        assert!(
            pos > neg * 1.15,
            "positive mean {} not above negative mean {}",
            pos / n as f64,
            neg / n as f64
        );
    }

    #[test]
    fn hogwild_runs_and_stays_sane() {
        let (_, _, graphs) = small_graphs();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_p(5)).unwrap();
        t.run(40_000, 4);
        assert_eq!(t.progress().steps, 40_000);
        let m = t.model();
        assert!(m.users.iter().all(|v| v.is_finite()));
        // The model must have learned *something*: vectors are not all zero.
        assert!(m.users.iter().any(|v| v.abs() > 1e-3));
    }

    #[test]
    fn adaptive_trainer_runs() {
        let (_, _, graphs) = small_graphs();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_a(13)).unwrap();
        t.run(20_000, 1);
        let m = t.model();
        assert!(m.events.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chunked_runs_accumulate_steps() {
        let (_, _, graphs) = small_graphs();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_p(17)).unwrap();
        t.run(1_000, 1);
        t.run(2_000, 1);
        assert_eq!(t.progress().steps, 3_000);
    }

    #[test]
    fn trainer_metrics_count_steps_and_samples() {
        let (_, _, graphs) = small_graphs();
        let reg = gem_obs::MetricsRegistry::new();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_p(7))
            .unwrap()
            .with_metrics(TrainerMetrics::register(&reg));
        t.run(10_000, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("train.steps"), 10_000);
        let per_graph: u64 = crate::metrics::GRAPH_NAMES
            .iter()
            .map(|g| snap.counter(&format!("train.samples.{g}")))
            .sum();
        // Edge-count-proportional choice never skips, so every step samples
        // exactly one graph.
        assert_eq!(per_graph, 10_000);
        // The loss proxy is a mean over (0,1): its milli-sum is positive and
        // bounded by 1000 per step.
        let proxy = snap.counter("train.loss_proxy_milli");
        assert!(proxy > 0 && proxy < 1000 * 10_000, "proxy sum {proxy}");
        assert_eq!(snap.gauge("train.workers"), 2.0);
        assert!(snap.gauge("train.steps_per_sec") > 0.0);
    }

    #[test]
    fn metrics_free_training_is_unchanged() {
        // Attaching a registry must not perturb the RNG stream or updates:
        // instrumented and plain single-thread runs produce identical models.
        let (_, _, graphs) = small_graphs();
        let reg = gem_obs::MetricsRegistry::new();
        let t1 = GemTrainer::new(&graphs, TrainConfig::gem_p(7))
            .unwrap()
            .with_metrics(TrainerMetrics::register(&reg));
        t1.run(5_000, 1);
        let t2 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t2.run(5_000, 1);
        assert_eq!(t1.model().users, t2.model().users);
    }

    #[test]
    fn run_profiled_is_deterministic_and_attributes_time() {
        // The profiled runner consumes the same seed stream as a plain
        // single-thread run, so the models are bit-identical — and the
        // breakdown accounts for a positive amount of time in every phase.
        let (_, _, graphs) = small_graphs();
        let t1 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t1.run(5_000, 1);
        let t2 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        let breakdown = t2.run_profiled(5_000);
        assert_eq!(t1.model().users, t2.model().users);
        assert_eq!(t1.model().events, t2.model().events);
        assert_eq!(breakdown.steps, 5_000);
        assert!(breakdown.sample_ns > 0, "{breakdown:?}");
        assert!(breakdown.fetch_ns > 0, "{breakdown:?}");
        assert!(breakdown.update_ns > 0, "{breakdown:?}");
        assert_eq!(
            breakdown.total_ns(),
            breakdown.sample_ns + breakdown.fetch_ns + breakdown.update_ns
        );
        assert_eq!(t2.progress().steps, 5_000);
    }

    #[test]
    fn four_thread_training_converges() {
        // Hogwild with 4 workers must still descend: the mean positive-edge
        // loss proxy (1 - σ(vi·vj), in milli-units) drops between the first
        // and the last chunk of a run.
        let (_, _, graphs) = small_graphs();
        let reg = gem_obs::MetricsRegistry::new();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_p(23))
            .unwrap()
            .with_metrics(TrainerMetrics::register(&reg));
        t.run(10_000, 4);
        let first_sum = reg.snapshot().counter("train.loss_proxy_milli");
        let first = first_sum as f64 / 10_000.0;
        t.run(70_000, 4);
        let total = reg.snapshot().counter("train.loss_proxy_milli");
        let later = (total - first_sum) as f64 / 70_000.0;
        assert!(
            later < first * 0.9,
            "loss proxy did not decrease: first {first:.1}, later {later:.1}"
        );
        assert_eq!(t.progress().steps, 80_000);
    }

    #[test]
    fn traced_training_is_unchanged_and_emits_spans() {
        // A live tracer must not perturb the RNG stream or step order; it
        // must also record the run/worker span hierarchy.
        let (_, _, graphs) = small_graphs();
        let tracer = gem_obs::Tracer::new();
        let t1 =
            GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap().with_tracer(tracer.clone());
        t1.run(5_000, 1);
        let t2 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t2.run(5_000, 1);
        assert_eq!(t1.model().users, t2.model().users);
        assert_eq!(t1.model().events, t2.model().events);

        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        let runs: Vec<_> = sink.events().iter().filter(|e| e.name == "train.run").collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].args, vec![("steps", 5_000), ("threads", 1)]);
    }

    #[test]
    fn multithread_run_emits_worker_spans() {
        let (_, _, graphs) = small_graphs();
        let tracer = gem_obs::Tracer::new();
        let t =
            GemTrainer::new(&graphs, TrainConfig::gem_p(5)).unwrap().with_tracer(tracer.clone());
        t.run(8_000, 3);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        let workers: Vec<_> = sink.events().iter().filter(|e| e.name == "train.worker").collect();
        assert_eq!(workers.len(), 3);
        let mut tids: Vec<u64> = workers.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each worker records on its own timeline");
        let quota_sum: u64 =
            workers.iter().map(|e| e.args.iter().find(|(k, _)| *k == "quota").unwrap().1).sum();
        assert_eq!(quota_sum, 8_000);
    }

    #[test]
    fn adaptive_training_records_refresh_metrics_and_spans() {
        let (_, _, graphs) = small_graphs();
        let reg = gem_obs::MetricsRegistry::new();
        let tracer = gem_obs::Tracer::new();
        let t = GemTrainer::new(&graphs, TrainConfig::gem_a(13))
            .unwrap()
            .with_metrics(TrainerMetrics::register(&reg))
            .with_tracer(tracer.clone());
        t.run(20_000, 1);
        let snap = reg.snapshot();
        let refreshes = snap.counter("train.adaptive_refreshes");
        assert!(refreshes > 0, "20k adaptive steps should refresh at least once");
        let h = snap.histogram("train.adaptive_refresh_ns").unwrap();
        assert_eq!(h.count, refreshes);
        assert!(h.sum > 0);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        let spans =
            sink.events().iter().filter(|e| e.name == "train.adaptive_refresh").count() as u64;
        assert_eq!(spans, refreshes);
    }

    #[test]
    fn profiled_run_emits_phase_spans() {
        let (_, _, graphs) = small_graphs();
        let tracer = gem_obs::Tracer::new();
        let t =
            GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap().with_tracer(tracer.clone());
        let breakdown = t.run_profiled(2_000);
        let mut sink = gem_obs::TraceSink::new();
        sink.drain(&tracer);
        let phase = |name: &str| {
            sink.events().iter().find(|e| e.name == name).map(|e| e.dur_ns).unwrap_or_default()
        };
        assert_eq!(phase("train.phase.sample"), breakdown.sample_ns);
        assert_eq!(phase("train.phase.fetch"), breakdown.fetch_ns);
        assert_eq!(phase("train.phase.update"), breakdown.update_ns);
    }

    #[test]
    fn journaled_run_records_epochs_and_matches_chunked_plain_run() {
        let (_, _, graphs) = small_graphs();
        let path = std::env::temp_dir()
            .join(format!("gem_core_journal_test_{}.jsonl", std::process::id()));

        let reg = gem_obs::MetricsRegistry::new();
        let t1 = GemTrainer::new(&graphs, TrainConfig::gem_p(7))
            .unwrap()
            .with_metrics(TrainerMetrics::register(&reg));
        let mut journal = TrainJournal::create(&path, 2_000, "test").expect("create journal");
        t1.run_journaled(5_000, 1, &mut journal);

        // 2000 + 2000 + 1000: three epochs, final one partial.
        assert_eq!(journal.history().len(), 3);
        assert_eq!(journal.history()[0].steps, 2_000);
        assert_eq!(journal.history()[2].steps, 1_000);
        assert_eq!(journal.last().unwrap().steps_total, 5_000);
        assert_eq!(journal.write_errors(), 0);
        for e in journal.history() {
            assert!(e.loss_proxy > 0.0 && e.loss_proxy < 1.0, "loss {e:?}");
            assert!(e.steps_per_sec > 0.0);
            assert!(e.norms.iter().all(|n| n.is_finite()));
        }
        // Later epochs drift less than they would if the norms were junk.
        assert_eq!(journal.history()[0].drift, [0.0; 5]);

        // Journaled chunking == identical plain chunking, bit-for-bit.
        let t2 = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        t2.run(2_000, 1);
        t2.run(2_000, 1);
        t2.run(1_000, 1);
        assert_eq!(t1.model().users, t2.model().users);
        assert_eq!(t1.model().events, t2.model().events);

        // The file itself: header + 3 epoch lines, all valid JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let header = gem_obs::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("journal").unwrap().as_str(), Some("train"));
        assert_eq!(header.get("epoch_steps").unwrap().as_f64(), Some(2_000.0));
        for (i, line) in lines[1..].iter().enumerate() {
            let doc = gem_obs::json::parse(line).expect("epoch line parses");
            assert_eq!(doc.get("epoch").unwrap().as_f64(), Some(i as f64));
            assert!(doc.get("loss.user_event").is_some());
            assert!(doc.get("norm.users").is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journaled_observed_hook_runs_once_per_epoch() {
        let (_, _, graphs) = small_graphs();
        let path = std::env::temp_dir()
            .join(format!("gem_core_journal_obs_test_{}.jsonl", std::process::id()));
        let trainer = GemTrainer::new(&graphs, TrainConfig::gem_p(7)).unwrap();
        let mut journal = TrainJournal::create(&path, 2_000, "test").expect("create journal");
        let mut seen: Vec<(u64, u64)> = Vec::new();
        trainer.run_journaled_observed(5_000, 1, &mut journal, |t, e| {
            // The hook observes the trainer at the epoch boundary it was
            // told about.
            assert_eq!(t.progress().steps, e.steps_total);
            seen.push((e.epoch, e.steps_total));
        });
        assert_eq!(seen, [(0, 2_000), (1, 4_000), (2, 5_000)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (_, _, graphs) = small_graphs();
        let mut cfg = TrainConfig::gem_a(1);
        cfg.dim = 0;
        assert!(GemTrainer::new(&graphs, cfg).is_err());
    }

    use gem_sampling::rng_from_seed;
}
