//! Serving-layer throughput baseline: engine build time, single- vs
//! multi-thread queries/sec, latency percentiles, and math-kernel
//! microbenchmarks.
//!
//! Usage: `cargo run --release -p gem-bench --bin serving_throughput \
//!         [--scale 40 --steps 100000 --queries 512 --top-n 10 --prune-k 20]`
//!
//! Measures the three layers this serving stack is built from:
//!
//! 1. **Kernels** — the unrolled `dot` vs a scalar reference, and the fused
//!    [`dot_batch`] row sweep vs a per-row `dot` loop, at the `2K+1`
//!    transformed dimensionality.
//! 2. **Engine build** — prune → transform → TA index, wall-clock.
//! 3. **Serving** — queries/sec for GEM-TA and GEM-BF, sequentially on one
//!    thread (one reused [`ServeScratch`]) and through
//!    [`RecommendationEngine::recommend_batch`] across all available
//!    threads. Batch results are asserted identical to the sequential ones
//!    before any number is reported. The engine runs with a live gem-obs
//!    registry, whose per-query latency histograms (p50/p95/p99) and TA
//!    work counters are folded into the JSON report.
//!
//! 4. **Batch thread sweep** — batch qps at each count in
//!    `--serving-threads` (default `1,2,4`). The rayon compat stub reads
//!    `RAYON_NUM_THREADS` once per process, so each point runs in a child
//!    process (`--batch-child`): the parent saves the trained model to a
//!    temp file, the child reloads it, rebuilds the deterministic
//!    environment and engine, times `recommend_batch` and prints one
//!    machine-readable line the parent parses. On a single-core host the
//!    multi-thread points are skipped (`"skipped": "single-core host"` in
//!    the JSON) instead of measured: every count timeshares one core and
//!    the flat curve misreads as "no scaling".
//!
//! With `--smoke` the bench instead runs a down-scaled self-check meant for
//! CI: it asserts the instrumented engine emits metrics and that its
//! single-thread throughput stays within 2% of an identical engine built
//! with a no-op registry, then exits without writing the JSON report.
//!
//! Writes machine-readable results to `BENCH_serving.json` in the working
//! directory (schema documented in EXPERIMENTS.md), plus a JSONL journal
//! of the same measurements (`journal_serving_bench.jsonl`) for diffing
//! runs over time.

use gem_bench::{Args, City, ExperimentEnv, Variant};
use gem_core::math::{dot, dot_batch};
use gem_ebsn::UserId;
use gem_obs::MetricsRegistry;
use gem_query::{
    EngineMetrics, MemBudget, Method, RecommendationEngine, ServeScratch, ServeTracing,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fail-fast ceiling on the instrumented engines' candidate + space + index
/// bytes: the full-size Beijing leg at `--prune-k 20` accounts well under
/// it, so a build only trips it if the per-pair layout regresses.
const ENGINE_BUDGET_MIB: usize = 256;

/// Scalar reference dot product (the pre-optimization kernel shape).
fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Nanoseconds per call of `f`, auto-calibrated to a ≥50 ms measurement.
fn bench_ns(mut f: impl FnMut() -> f32) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..iters {
            acc += f();
        }
        black_box(acc);
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(50) {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(4);
    }
}

/// Deterministic pseudo-random vector (xorshift32), enough for timing.
fn filled(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_654_435_761).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

struct KernelNumbers {
    dim: usize,
    dot_naive_ns: f64,
    dot_unrolled_ns: f64,
    batch_rows: usize,
    dot_loop_ns_per_row: f64,
    dot_batch_ns_per_row: f64,
}

fn bench_kernels(dim: usize) -> KernelNumbers {
    let a = filled(dim, 3);
    let b = filled(dim, 17);
    let dot_naive_ns = bench_ns(|| naive_dot(black_box(&a), black_box(&b)));
    let dot_unrolled_ns = bench_ns(|| dot(black_box(&a), black_box(&b)));

    let batch_rows = 4096usize;
    let rows = filled(dim * batch_rows, 29);
    let mut out = vec![0.0f32; batch_rows];
    let dot_loop_ns = bench_ns(|| {
        let q = black_box(&a);
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = naive_dot(q, row);
        }
        out[0]
    });
    let dot_batch_ns = bench_ns(|| {
        dot_batch(black_box(&a), black_box(&rows), &mut out);
        out[0]
    });
    KernelNumbers {
        dim,
        dot_naive_ns,
        dot_unrolled_ns,
        batch_rows,
        dot_loop_ns_per_row: dot_loop_ns / batch_rows as f64,
        dot_batch_ns_per_row: dot_batch_ns / batch_rows as f64,
    }
}

struct ServingNumbers {
    single_thread_qps: f64,
    batch_qps: f64,
}

/// Time `users` through the engine sequentially (reused scratch) and via
/// `recommend_batch`, asserting the batch output is identical first.
fn bench_serving(
    engine: &RecommendationEngine,
    users: &[UserId],
    n: usize,
    method: Method,
    window: Duration,
) -> ServingNumbers {
    // Warm up + correctness gate: batch must reproduce sequential exactly
    // (every batch entry is Ok — these users are all in range).
    let mut scratch = ServeScratch::new();
    let sequential: Vec<_> =
        users.iter().map(|&u| engine.recommend_with(u, n, method, &mut scratch)).collect();
    let batch = engine.recommend_batch(users, n, method);
    for (got, want) in batch.iter().zip(&sequential) {
        assert_eq!(got.as_ref().ok(), Some(want), "batch serving diverged from sequential");
    }

    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < window {
        for &u in users {
            black_box(engine.recommend_with(u, n, method, &mut scratch));
        }
        reps += 1;
    }
    let single_thread_qps = (reps * users.len() as u64) as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < window {
        black_box(engine.recommend_batch(users, n, method));
        reps += 1;
    }
    let batch_qps = (reps * users.len() as u64) as f64 / start.elapsed().as_secs_f64();
    ServingNumbers { single_thread_qps, batch_qps }
}

/// Best-of-`trials` single-thread qps (max filters scheduler noise; used
/// only for the smoke overhead comparison, not the reported numbers).
fn best_qps(
    engine: &RecommendationEngine,
    users: &[UserId],
    n: usize,
    method: Method,
    trials: usize,
    window: Duration,
) -> f64 {
    let mut scratch = ServeScratch::new();
    for &u in users {
        black_box(engine.recommend_with(u, n, method, &mut scratch));
    }
    let mut best = 0.0f64;
    for _ in 0..trials {
        let start = Instant::now();
        let mut served = 0u64;
        while start.elapsed() < window {
            for &u in users {
                black_box(engine.recommend_with(u, n, method, &mut scratch));
            }
            served += users.len() as u64;
        }
        best = best.max(served as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// One point of the batch thread sweep. `qps` is `None` when the point
/// was skipped rather than measured: on a single-core host every thread
/// count timeshares the same core, and the resulting flat curve misreads
/// as "batch serving does not scale".
struct SweepPoint {
    threads: usize,
    /// `(ta_qps, bf_qps)`, or `None` for a skipped point.
    qps: Option<(f64, f64)>,
}

/// Time only `recommend_batch` (one warmup call first).
fn batch_only_qps(
    engine: &RecommendationEngine,
    users: &[UserId],
    n: usize,
    method: Method,
    window: Duration,
) -> f64 {
    black_box(engine.recommend_batch(users, n, method));
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < window {
        black_box(engine.recommend_batch(users, n, method));
        reps += 1;
    }
    (reps * users.len() as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Child-process mode for one sweep point: the rayon compat stub caches
/// `RAYON_NUM_THREADS` once per process, so each thread count needs its own
/// process. Rebuilds the deterministic environment, reloads the parent's
/// trained model, and prints one `CHILD_BATCH ...` line for the parent.
fn run_batch_child(args: &Args) {
    let scale = args.get("scale", 40usize);
    let seed = args.get("seed", 7u64);
    let queries = args.get("queries", 512usize);
    let top_n = args.get("top-n", 10usize);
    let prune_k = args.get("prune-k", 20usize);
    let window = Duration::from_millis(args.get("window-ms", 300u64));
    let model_path: String = args.get("model", String::new());
    let model = gem_core::load_model(std::path::Path::new(&model_path))
        .expect("batch child: load parent model");

    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    let partners: Vec<UserId> = (0..env.dataset.num_users).map(|u| UserId(u as u32)).collect();
    let events = env.split.test_events.clone();
    let engine = RecommendationEngine::build(model, &partners, &events, prune_k);
    let users: Vec<UserId> =
        (0..queries).map(|i| UserId(((i * 97) % env.dataset.num_users) as u32)).collect();

    let ta = batch_only_qps(&engine, &users, top_n, Method::Ta, window);
    let bf = batch_only_qps(&engine, &users, top_n, Method::BruteForce, window);
    println!("CHILD_BATCH threads={} ta_qps={ta:.1} bf_qps={bf:.1}", rayon::current_num_threads());
}

/// Run the batch sweep: one child process per thread count.
#[allow(clippy::too_many_arguments)]
fn run_batch_sweep(
    threads_list: &[usize],
    model_path: &std::path::Path,
    scale: usize,
    seed: u64,
    queries: usize,
    top_n: usize,
    prune_k: usize,
    window: Duration,
) -> Vec<SweepPoint> {
    let exe = std::env::current_exe().expect("current_exe");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    threads_list
        .iter()
        .map(|&threads| {
            if threads > 1 && cores == 1 {
                return SweepPoint { threads, qps: None };
            }
            let out = std::process::Command::new(&exe)
                .args([
                    "--batch-child",
                    "--model",
                    model_path.to_str().expect("utf-8 temp path"),
                    "--scale",
                    &scale.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--queries",
                    &queries.to_string(),
                    "--top-n",
                    &top_n.to_string(),
                    "--prune-k",
                    &prune_k.to_string(),
                    "--window-ms",
                    &window.as_millis().to_string(),
                ])
                .env("RAYON_NUM_THREADS", threads.to_string())
                .output()
                .expect("spawn batch sweep child");
            assert!(
                out.status.success(),
                "batch sweep child ({threads} threads) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout
                .lines()
                .find(|l| l.starts_with("CHILD_BATCH "))
                .expect("child printed no CHILD_BATCH line");
            let field = |key: &str| -> f64 {
                line.split_whitespace()
                    .find_map(|tok| tok.strip_prefix(key))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("missing {key} in child line: {line}"))
            };
            SweepPoint { threads, qps: Some((field("ta_qps="), field("bf_qps="))) }
        })
        .collect()
}

/// Parse `--serving-threads 1,2,4` into thread counts.
fn parse_threads_list(raw: &str) -> Vec<usize> {
    let list: Vec<usize> = raw.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    if list.is_empty() {
        vec![1, 2, 4]
    } else {
        list
    }
}

/// CI self-check: metrics must actually be emitted, and instrumentation
/// must cost <2% single-thread qps against a no-op-registry twin engine.
fn run_smoke(args: &Args) {
    let scale = args.get("scale", 160usize);
    let steps = args.get("steps", 20_000u64);
    let queries = args.get("queries", 256usize);
    let top_n = args.get("top-n", 10usize);
    let prune_k = args.get("prune-k", 20usize);
    let seed = args.get("seed", 7u64);
    let window = Duration::from_millis(args.get("window-ms", 150u64));
    let trials = args.get("trials", 5usize);

    println!("serving_throughput --smoke (Beijing 1/{scale}, {steps} steps)");
    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    let model = gem_bench::train_variant(&env.graphs, Variant::GemA, steps, 2, seed);
    let partners: Vec<UserId> = (0..env.dataset.num_users).map(|u| UserId(u as u32)).collect();
    let events = env.split.test_events.clone();
    let users: Vec<UserId> =
        (0..queries).map(|i| UserId(((i * 97) % env.dataset.num_users) as u32)).collect();

    let registry = MetricsRegistry::new();
    let (instrumented, _) = RecommendationEngine::build_within_budget(
        model.clone(),
        &partners,
        &events,
        prune_k,
        MemBudget::fail_at_mib(ENGINE_BUDGET_MIB),
        EngineMetrics::register(&registry),
        ServeTracing::disabled(),
    )
    .expect("engine fits its budget");
    let noop = RecommendationEngine::build(model, &partners, &events, prune_k);

    let mut qps_noop = best_qps(&noop, &users, top_n, Method::Ta, trials, window);
    let mut qps_inst = best_qps(&instrumented, &users, top_n, Method::Ta, trials, window);
    // Scheduler noise on small shared machines swings single runs by a few
    // percent in either direction; re-measure (bounded) before treating an
    // over-budget reading as a real instrumentation regression.
    for _ in 0..2 {
        if qps_inst >= 0.98 * qps_noop {
            break;
        }
        qps_noop = best_qps(&noop, &users, top_n, Method::Ta, trials, window);
        qps_inst = best_qps(&instrumented, &users, top_n, Method::Ta, trials, window);
    }
    let overhead = 1.0 - qps_inst / qps_noop;
    println!(
        "  GEM-TA single-thread: no-op registry {qps_noop:.0} qps, instrumented {qps_inst:.0} qps \
         ({:+.2}% overhead)",
        overhead * 100.0
    );

    // Metrics must have been emitted by the instrumented runs.
    let snap = registry.snapshot();
    let hist = snap.histogram("serve.query_ns.ta").expect("serve.query_ns.ta missing");
    assert!(hist.count > 0, "latency histogram recorded no queries");
    assert!(hist.p50() > 0, "latency p50 is zero");
    assert_eq!(
        snap.counter("serve.queries"),
        hist.count,
        "serve.queries disagrees with the TA latency histogram"
    );
    assert!(snap.counter("serve.ta_scored") > 0, "TA scored counter never incremented");
    assert!(snap.counter("serve.ta_sorted_accesses") > 0, "TA sorted-access counter empty");
    assert!(snap.gauge("build.candidate_pairs") > 0.0, "build gauges not set");
    println!(
        "  metrics: {} queries, p50 {} ns, p99 {} ns, {:.1} scored/query",
        hist.count,
        hist.p50(),
        hist.p99(),
        snap.counter("serve.ta_scored") as f64 / hist.count as f64
    );

    assert!(
        qps_inst >= 0.98 * qps_noop,
        "instrumentation overhead {:.2}% exceeds the 2% budget \
         (no-op {qps_noop:.0} qps vs instrumented {qps_inst:.0} qps)",
        overhead * 100.0
    );

    // The smoke measurements go through the same JSONL journal path the
    // full bench uses; any swallowed write error fails the smoke.
    let journal_path = std::env::temp_dir()
        .join(format!("gem-serving-smoke-journal-{}.jsonl", std::process::id()));
    let mut journal =
        gem_obs::Journal::create(&journal_path).expect("create serving smoke journal");
    journal.append(
        &gem_obs::JournalRecord::new()
            .str("journal", "serving_smoke")
            .f64("noop_qps", qps_noop)
            .f64("instrumented_qps", qps_inst)
            .u64("queries", hist.count),
    );
    let journal_errors = journal.write_errors();
    let _ = std::fs::remove_file(&journal_path);
    assert_eq!(journal_errors, 0, "serving smoke journal hit {journal_errors} write errors");

    println!("smoke OK: metrics emitted, overhead within 2%, zero journal write errors");
}

fn main() {
    let args = Args::from_env();
    if args.flag("batch-child") {
        run_batch_child(&args);
        return;
    }
    if args.flag("smoke") {
        run_smoke(&args);
        return;
    }
    let scale = args.get("scale", 40usize);
    let steps = args.get("steps", 100_000u64);
    let train_threads = args.get("threads", 4usize);
    let queries = args.get("queries", 512usize);
    let top_n = args.get("top-n", 10usize);
    let prune_k = args.get("prune-k", 20usize);
    let seed = args.get("seed", 7u64);
    let sweep_raw: String = args.get("serving-threads", "1,2,4".to_string());
    let sweep_threads = parse_threads_list(&sweep_raw);
    let serving_threads = rayon::current_num_threads();
    let window = Duration::from_millis(300);

    println!("Serving throughput baseline (Douban-Sim Beijing 1/{scale}, {serving_threads} serving threads)\n");

    println!("[1/4] kernel microbenchmarks");
    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    let model = gem_bench::train_variant(&env.graphs, Variant::GemA, steps, train_threads, seed);

    // Save the model now (the engine build consumes it) so the sweep's
    // child processes can reload it instead of retraining.
    let model_path =
        std::env::temp_dir().join(format!("gem_serving_sweep_{}.model", std::process::id()));
    gem_core::save_model(&model, &model_path).expect("save sweep model");
    let kernels = bench_kernels(2 * model.dim + 1);
    println!(
        "  dot dim={}: scalar {:.1} ns -> unrolled {:.1} ns ({:.2}x)",
        kernels.dim,
        kernels.dot_naive_ns,
        kernels.dot_unrolled_ns,
        kernels.dot_naive_ns / kernels.dot_unrolled_ns
    );
    println!(
        "  batch of {} rows: per-row loop {:.1} ns/row -> fused dot_batch {:.1} ns/row ({:.2}x)",
        kernels.batch_rows,
        kernels.dot_loop_ns_per_row,
        kernels.dot_batch_ns_per_row,
        kernels.dot_loop_ns_per_row / kernels.dot_batch_ns_per_row
    );

    println!("[2/4] engine build (prune k={prune_k} -> transform -> TA index)");
    let partners: Vec<UserId> = (0..env.dataset.num_users).map(|u| UserId(u as u32)).collect();
    let events = env.split.test_events.clone();
    let registry = MetricsRegistry::new();
    let build_start = Instant::now();
    let (engine, _) = RecommendationEngine::build_within_budget(
        model,
        &partners,
        &events,
        prune_k,
        MemBudget::fail_at_mib(ENGINE_BUDGET_MIB),
        EngineMetrics::register(&registry),
        ServeTracing::disabled(),
    )
    .expect("engine fits its budget");
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {} partners x {} events -> {} candidate pairs in {:.1} ms ({:.1} MiB)",
        partners.len(),
        events.len(),
        engine.num_candidates(),
        build_ms,
        engine.space_bytes() as f64 / (1024.0 * 1024.0)
    );

    println!("[3/4] serving throughput ({queries} queries, top-{top_n})");
    let users: Vec<UserId> =
        (0..queries).map(|i| UserId(((i * 97) % env.dataset.num_users) as u32)).collect();
    let ta = bench_serving(&engine, &users, top_n, Method::Ta, window);
    let bf = bench_serving(&engine, &users, top_n, Method::BruteForce, window);
    for (name, s) in [("GEM-TA", &ta), ("GEM-BF", &bf)] {
        println!(
            "  {name}: {:.0} qps single-thread, {:.0} qps batch x{serving_threads} ({:.2}x)",
            s.single_thread_qps,
            s.batch_qps,
            s.batch_qps / s.single_thread_qps
        );
    }

    // Fold the observability layer's view of the same run into the report:
    // per-method latency percentiles plus the aggregated TA work counters
    // (totals across warmup, correctness gate and both timing loops).
    let snap = registry.snapshot();
    let hist_ta = snap.histogram("serve.query_ns.ta").expect("serve.query_ns.ta missing");
    let hist_bf = snap.histogram("serve.query_ns.bf").expect("serve.query_ns.bf missing");
    let total_queries = snap.counter("serve.queries");
    assert_eq!(
        total_queries,
        hist_ta.count + hist_bf.count,
        "serve.queries disagrees with the latency histograms"
    );
    println!(
        "  latency: TA p50 {} ns / p99 {} ns, BF p50 {} ns / p99 {} ns ({} queries observed)",
        hist_ta.p50(),
        hist_ta.p99(),
        hist_bf.p50(),
        hist_bf.p99(),
        total_queries
    );

    println!("[4/4] batch thread sweep (--serving-threads {sweep_raw})");
    let sweep =
        run_batch_sweep(&sweep_threads, &model_path, scale, seed, queries, top_n, prune_k, window);
    for p in &sweep {
        match p.qps {
            Some((ta, bf)) => println!(
                "  {} thread(s): GEM-TA {ta:.0} qps batch, GEM-BF {bf:.0} qps batch",
                p.threads
            ),
            None => println!("  {} thread(s): skipped (single-core host)", p.threads),
        }
    }
    let _ = std::fs::remove_file(&model_path);

    // JSONL journal of the same measurements: one line per (method ×
    // mode) plus one per sweep point, so runs can be diffed over time
    // without parsing the aggregate JSON.
    let mut journal = gem_obs::Journal::create("journal_serving_bench.jsonl")
        .expect("create journal_serving_bench.jsonl");
    journal.append(
        &gem_obs::JournalRecord::new()
            .str("journal", "serving_bench")
            .u64("scale", scale as u64)
            .u64("queries", queries as u64)
            .u64("top_n", top_n as u64),
    );
    for (method, s, hist) in [("ta", &ta, &hist_ta), ("bf", &bf, &hist_bf)] {
        journal.append(
            &gem_obs::JournalRecord::new()
                .str("method", method)
                .f64("single_thread_qps", s.single_thread_qps)
                .f64("batch_qps", s.batch_qps)
                .u64("p50_ns", hist.p50())
                .u64("p95_ns", hist.p95())
                .u64("p99_ns", hist.p99()),
        );
    }
    for p in &sweep {
        let record = gem_obs::JournalRecord::new().u64("sweep_threads", p.threads as u64);
        journal.append(&match p.qps {
            Some((ta, bf)) => record.f64("ta_batch_qps", ta).f64("bf_batch_qps", bf),
            None => record.str("skipped", "single-core host"),
        });
    }
    assert_eq!(journal.write_errors(), 0, "serving journal hit I/O errors");
    println!("  journal: {} lines -> journal_serving_bench.jsonl", journal.lines_written());

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| match p.qps {
            Some((ta, bf)) => format!(
                "    {{ \"serving_threads\": {}, \"ta_batch_qps\": {ta:.1}, \"bf_batch_qps\": {bf:.1} }}",
                p.threads
            ),
            None => format!(
                "    {{ \"serving_threads\": {}, \"skipped\": \"single-core host\" }}",
                p.threads
            ),
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serving_throughput\",\n",
            "  \"city\": \"Beijing\",\n",
            "  \"scale\": {scale},\n",
            "  \"serving_threads\": {threads},\n",
            "{host},\n",
            "  \"engine\": {{\n",
            "    \"build_ms\": {build_ms:.3},\n",
            "    \"partners\": {partners},\n",
            "    \"events\": {events},\n",
            "    \"prune_k\": {prune_k},\n",
            "    \"candidate_pairs\": {pairs},\n",
            "    \"space_mib\": {mib:.3}\n",
            "  }},\n",
            "  \"serving\": {{\n",
            "    \"queries\": {queries},\n",
            "    \"top_n\": {top_n},\n",
            "    \"ta\": {{ \"single_thread_qps\": {ta1:.1}, \"batch_qps\": {tam:.1},\n",
            "      \"p50_ns\": {tap50}, \"p95_ns\": {tap95}, \"p99_ns\": {tap99}, ",
            "\"mean_ns\": {tamean:.1} }},\n",
            "    \"brute_force\": {{ \"single_thread_qps\": {bf1:.1}, \"batch_qps\": {bfm:.1},\n",
            "      \"p50_ns\": {bfp50}, \"p95_ns\": {bfp95}, \"p99_ns\": {bfp99}, ",
            "\"mean_ns\": {bfmean:.1} }},\n",
            "    \"observed\": {{ \"queries\": {oq}, \"ta_scored\": {oscored}, ",
            "\"ta_sorted_accesses\": {osorted}, \"invalid_users\": {oinvalid} }}\n",
            "  }},\n",
            "  \"batch_sweep\": [\n{sweep_json}\n  ],\n",
            "  \"kernels\": {{\n",
            "    \"dim\": {kdim},\n",
            "    \"dot_naive_ns\": {kn:.2},\n",
            "    \"dot_unrolled_ns\": {ku:.2},\n",
            "    \"batch_rows\": {krows},\n",
            "    \"dot_loop_ns_per_row\": {kl:.2},\n",
            "    \"dot_batch_ns_per_row\": {kb:.2}\n",
            "  }}\n",
            "}}\n",
        ),
        scale = scale,
        threads = serving_threads,
        host = gem_bench::host_json("  "),
        sweep_json = sweep_json.join(",\n"),
        build_ms = build_ms,
        partners = partners.len(),
        events = events.len(),
        prune_k = prune_k,
        pairs = engine.num_candidates(),
        mib = engine.space_bytes() as f64 / (1024.0 * 1024.0),
        queries = queries,
        top_n = top_n,
        ta1 = ta.single_thread_qps,
        tam = ta.batch_qps,
        tap50 = hist_ta.p50(),
        tap95 = hist_ta.p95(),
        tap99 = hist_ta.p99(),
        tamean = hist_ta.mean(),
        bf1 = bf.single_thread_qps,
        bfm = bf.batch_qps,
        bfp50 = hist_bf.p50(),
        bfp95 = hist_bf.p95(),
        bfp99 = hist_bf.p99(),
        bfmean = hist_bf.mean(),
        oq = total_queries,
        oscored = snap.counter("serve.ta_scored"),
        osorted = snap.counter("serve.ta_sorted_accesses"),
        oinvalid = snap.counter("serve.invalid_users"),
        kdim = kernels.dim,
        kn = kernels.dot_naive_ns,
        ku = kernels.dot_unrolled_ns,
        krows = kernels.batch_rows,
        kl = kernels.dot_loop_ns_per_row,
        kb = kernels.dot_batch_ns_per_row,
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nWrote BENCH_serving.json");
}
