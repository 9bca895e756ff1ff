//! `serve_trained` and `serve_wide`: build a `RecommendationEngine` under a
//! memory budget, then answer top-10 TA queries in a single-thread closed
//! loop for the length of the window. A repetition is a fixed block of
//! queries; the reported rate is the median block.

use crate::trace::{self, Tracer, NONE};
use crate::{inputs, probes, stats, Opts, Outcome};
use gem_core::{GemModel, TrainConfig};
use gem_ebsn::{EventId, UserId};
use gem_query::{
    top_k_events_per_partner, BruteForce, BruteScratch, EngineMetrics, MemBudget, Method,
    Recommendation, RecommendationEngine, ServeScratch, ServeTracing, TaIndex, TaScratch,
    TransformedSpace,
};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// GEM-A model trained on Beijing 1/10: dim 60, peaked scores.
    Trained,
    /// Uniform `[0,1)` model, 5x the partners at dim 16.
    Wide,
}

const TOP_N: usize = 10;
const PRUNE_K: usize = 8;
/// Queries compared against brute force on every run.
const GATE_QUERIES: usize = 64;

struct Sizes {
    budget: MemBudget,
    setup_reps: usize,
    /// Queries per repetition.
    block: usize,
    /// Users in the query cycle.
    users: usize,
    /// Queries behind each point of the top-1 / top-100 fit and the
    /// brute-force timing (traced pass only).
    probe_queries: usize,
}

fn sizes(shape: Shape, smoke: bool) -> Sizes {
    let budget = MemBudget::fail_at_mib(192);
    match (shape, smoke) {
        (_, true) => Sizes { budget, setup_reps: 2, block: 16, users: 64, probe_queries: 16 },
        (Shape::Trained, false) => {
            Sizes { budget, setup_reps: 15, block: 512, users: 4096, probe_queries: 256 }
        }
        (Shape::Wide, false) => {
            Sizes { budget, setup_reps: 3, block: 256, users: 4096, probe_queries: 128 }
        }
    }
}

/// The model a workload serves, from the seed alone.
fn model(shape: Shape, opts: &Opts) -> GemModel {
    match (shape, opts.smoke) {
        (Shape::Trained, smoke) => {
            let (scale, steps) = if smoke { (0, 3_000) } else { (10, 2_000_000) };
            let city = inputs::city(opts.seed, scale);
            inputs::train_model(&inputs::graphs(&city), TrainConfig::gem_a(opts.seed), steps)
        }
        (Shape::Wide, false) => inputs::uniform_model(32_056, 6_477, 16, opts.seed),
        (Shape::Wide, true) => inputs::uniform_model(600, 200, 16, opts.seed),
    }
}

struct Pools {
    partners: Vec<UserId>,
    events: Vec<EventId>,
}

fn pools(model: &GemModel) -> Pools {
    Pools {
        partners: (0..model.num_users() as u32).map(UserId).collect(),
        events: (0..model.num_events() as u32).map(EventId).collect(),
    }
}

fn build(
    model: &GemModel,
    pools: &Pools,
    s: &Sizes,
) -> (RecommendationEngine, gem_query::BuildReport) {
    RecommendationEngine::build_within_budget(
        model.clone(),
        &pools.partners,
        &pools.events,
        PRUNE_K,
        s.budget,
        EngineMetrics::disabled(),
        ServeTracing::disabled(),
    )
    .expect("the workload is sized to fit its budget")
}

/// Same ranking: equal length and scores equal to f32 rounding (pairs may
/// swap inside a tie, and the scan sums in a different order than TA).
fn same_ranking(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| (x.score - y.score).abs() <= 1e-4 * x.score.abs().max(1.0))
}

/// Gate: TA returns what the exhaustive scan returns.
fn gate_ta_equals_brute(
    out: &mut Outcome,
    engine: &RecommendationEngine,
    users: &[UserId],
    scratch: &mut ServeScratch,
) {
    let sample = &users[..GATE_QUERIES.min(users.len())];
    let mismatches = sample
        .iter()
        .filter(|&&u| {
            let (ta, _) = engine.recommend_with(u, TOP_N, Method::Ta, scratch);
            let (bf, _) = engine.recommend_with(u, TOP_N, Method::BruteForce, scratch);
            ta.len() != TOP_N || !same_ranking(&ta, &bf)
        })
        .count();
    out.ops(sample.len() as u64, mismatches as u64);
    out.gate(
        mismatches == 0,
        &format!("TA == brute force on {} sampled queries ({mismatches} differ)", sample.len()),
    );
}

/// Closed loop for `budget_s`: blocks of `block` queries over the user
/// cycle. Returns per-query latencies (us) and per-block rates (1/s).
fn query_loop(
    engine: &RecommendationEngine,
    users: &[UserId],
    block: usize,
    budget_s: f64,
    scratch: &mut ServeScratch,
    short: &mut u64,
) -> (Vec<f64>, Vec<f64>) {
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut next = 0usize;
    while window.elapsed().as_secs_f64() < budget_s {
        let started = Instant::now();
        for _ in 0..block {
            let user = users[next % users.len()];
            next += 1;
            let t = Instant::now();
            let (recs, _) = engine.recommend_with(user, TOP_N, Method::Ta, scratch);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            *short += u64::from(recs.len() != TOP_N);
            black_box(recs);
        }
        rates.push(block as f64 / started.elapsed().as_secs_f64());
    }
    (latencies, rates)
}

pub fn run(shape: Shape, opts: &Opts) -> Outcome {
    let s = sizes(shape, opts.smoke);
    let model = model(shape, opts);
    let pools = pools(&model);
    let users = inputs::query_users(model.num_users(), s.users, opts.seed ^ 0x5E21);
    println!(
        "  {} partners x {} events, dim {}, prune_k {PRUNE_K}, top-{TOP_N}",
        pools.partners.len(),
        pools.events.len(),
        model.dim
    );
    if opts.trace {
        traced(opts, &s, &model, &pools, &users)
    } else {
        end_to_end(opts, &s, &model, &pools, &users)
    }
}

fn end_to_end(
    opts: &Opts,
    s: &Sizes,
    model: &GemModel,
    pools: &Pools,
    users: &[UserId],
) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..s.setup_reps {
        let t = Instant::now();
        built = Some(build(model, pools, s));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (engine, report) = built.expect("at least one set-up repetition");
    out.set("setup_s", stats::median(&setup));
    println!(
        "  index {:.2} MiB accounted, {} candidate pairs",
        report.total_bytes as f64 / (1 << 20) as f64,
        engine.num_candidates()
    );

    let mut scratch = ServeScratch::new();
    gate_ta_equals_brute(&mut out, &engine, users, &mut scratch);

    let mut short = 0u64;
    let (latencies, rates) =
        query_loop(&engine, users, s.block, opts.seconds, &mut scratch, &mut short);
    out.ops(latencies.len() as u64, short);
    out.gate(short == 0, &format!("every query returned {TOP_N} results ({short} short)"));
    println!(
        "  recommend_with {} over {} blocks of {}",
        stats::Summary::of(&latencies).render("us"),
        rates.len(),
        s.block
    );
    // The median block, for the rate and for both latency figures.
    let (p50, p95) = stats::block_medians(&latencies, s.block).expect("the window ran queries");
    out.set("ops_per_s", stats::median(&rates));
    out.set("op_p50_us", p50);
    out.set("op_p95_us", p95);
    out
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn traced(opts: &Opts, s: &Sizes, model: &GemModel, pools: &Pools, users: &[UserId]) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true, Instant::now(), 0);

    // The build, decomposed through the public pipeline.
    let root = tr.begin("engine.build", NONE, NONE);
    let span = tr.begin("prune.top_k", root, NONE);
    let candidates = top_k_events_per_partner(model, &pools.partners, &pools.events, PRUNE_K);
    tr.end(span);
    let prune_ms = tr.ms(span);
    let span = tr.begin("transform.build", root, NONE);
    let space = TransformedSpace::build(model, &candidates);
    tr.end(span);
    let transform_ms = tr.ms(span);
    let span = tr.begin("ta.index_build", root, NONE);
    let index = TaIndex::build(&space);
    tr.end(span);
    let index_ms = tr.ms(span);
    tr.end(root);
    let pairs_scored = (pools.partners.len() * pools.events.len()) as f64;
    out.set("prune.build_ms", prune_ms);
    out.set("prune.pairs_scored", pairs_scored);
    out.set("prune.ns_per_pair", prune_ms * 1e6 / pairs_scored);
    out.set("transform.build_ms", transform_ms);
    out.set("ta.index_build_ms", index_ms);

    // The same build through the engine's one entry point.
    let t = Instant::now();
    let (engine, report) = build(model, pools, s);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    out.set("engine.build_ms", build_ms);
    out.set("engine.build_overhead_ms", build_ms - prune_ms - transform_ms - index_ms);
    out.set("engine.candidate_pairs", engine.num_candidates() as f64);
    out.set("engine.effective_k", report.effective_k as f64);
    out.set("engine.space_mib", mib(report.space_bytes));
    out.set("engine.index_only_mib", mib(report.index_bytes));
    out.set("engine.index_mib", mib(report.total_bytes));
    out.gate(
        engine.num_candidates() == space.len(),
        "the decomposed pipeline built the engine's candidate space",
    );

    let mut scratch = ServeScratch::new();
    gate_ta_equals_brute(&mut out, &engine, users, &mut scratch);

    // A quarter of the window through `recommend_with`, untraced.
    let quarter = opts.seconds / 4.0;
    let mut short = 0u64;
    let (plain, _) = query_loop(&engine, users, s.block, quarter, &mut scratch, &mut short);
    let plain_p50 = stats::median(&plain);
    out.set("engine.query_us_p50", plain_p50);

    // A quarter through the decomposed query path with a span per layer
    // call; the first queries are checked against `recommend_with`.
    let (mut q, mut ta_scratch) = (Vec::new(), TaScratch::new());
    let (mut ta_us, mut total_us) = (Vec::new(), Vec::new());
    let (mut scored, mut sorted_accesses) = (0u64, 0u64);
    let mut differ = 0u64;
    let window = Instant::now();
    let mut n = 0usize;
    while window.elapsed().as_secs_f64() < quarter {
        let user = users[n % users.len()];
        let req = n as u32;
        let query = tr.begin("engine.query", NONE, req);
        let span = tr.begin("transform.query_vector", query, req);
        TransformedSpace::query_vector_into(model, user, &mut q);
        tr.end(span);
        let span = tr.begin("ta.top_n", query, req);
        let (results, stats) =
            index.top_n_with(&space, &q, TOP_N, |p, _| p != user, &mut ta_scratch);
        tr.end(span);
        tr.end(query);
        ta_us.push(tr.ms(span) * 1e3);
        total_us.push(tr.ms(query) * 1e3);
        scored += stats.scored as u64;
        sorted_accesses += stats.sorted_accesses as u64;
        if n < GATE_QUERIES {
            let (expected, _) = engine.recommend_with(user, TOP_N, Method::Ta, &mut scratch);
            let same = results.len() == expected.len()
                && results.iter().zip(&expected).all(|(&(score, partner, event), e)| {
                    score == e.score && partner == e.partner && event == e.event
                });
            differ += u64::from(!same);
        }
        black_box(results);
        n += 1;
    }
    out.ops((plain.len() + n) as u64, short + differ);
    out.gate(differ == 0, "decomposed query path == recommend_with, bit for bit");
    let ta = stats::Summary::of(&ta_us);
    println!("  ta.top_n {}", ta.render("us"));
    out.set("ta.query_us_p50", ta.p50);
    out.set("ta.query_us_p99", ta.p99);
    out.set("ta.sorted_accesses_per_query", sorted_accesses as f64 / n as f64);
    out.set("ta.scored_per_query", scored as f64 / n as f64);
    out.set("ta.scored_share", scored as f64 / n as f64 / space.len() as f64);
    out.set("engine.query_overhead_us", plain_p50 - ta.p50);
    out.set("trace.overhead_pct", (stats::median(&total_us) / plain_p50 - 1.0) * 100.0);

    // Query vector alone: far below a span's clock reads, so a probe loop.
    let t = Instant::now();
    let reps = if opts.smoke { 1_000 } else { 200_000 };
    for i in 0..reps {
        TransformedSpace::query_vector_into(model, users[i % users.len()], &mut q);
        black_box(&q);
    }
    out.set("transform.query_vector_ns", t.elapsed().as_nanos() as f64 / reps as f64);

    // Two-point fit over stop depth: top-1 stops early, top-100 late. The
    // slope is the cost of one more scored candidate, the intercept the
    // per-query cost that does not depend on depth (keys + ordering).
    let probe = &users[..s.probe_queries.min(users.len())];
    let mut depth = |top: usize| -> (f64, f64) {
        let (mut us, mut scored) = (Vec::new(), 0u64);
        for &user in probe {
            TransformedSpace::query_vector_into(model, user, &mut q);
            let t = Instant::now();
            let (results, stats) =
                index.top_n_with(&space, &q, top, |p, _| p != user, &mut ta_scratch);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            scored += stats.scored as u64;
            black_box(results);
        }
        (us.iter().sum::<f64>() / us.len() as f64, scored as f64 / probe.len() as f64)
    };
    let (us_1, scored_1) = depth(1);
    let (us_100, scored_100) = depth(100);
    out.set("ta.query_us_n1", us_1);
    out.set("ta.query_us_n100", us_100);
    if scored_100 > scored_1 {
        let slope = (us_100 - us_1) / (scored_100 - scored_1);
        out.set("ta.us_per_scored", slope);
        out.set("ta.fixed_us", us_1 - slope * scored_1);
    }

    // The exhaustive scan over the same space (the paper's GEM-BF).
    let scan = BruteForce::new(&space);
    let mut brute_scratch = BruteScratch::new();
    let brute_us: Vec<f64> = probe
        .iter()
        .map(|&user| {
            TransformedSpace::query_vector_into(model, user, &mut q);
            let t = Instant::now();
            black_box(scan.top_n_with(&q, TOP_N, |p, _| p != user, &mut brute_scratch));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let brute_p50 = stats::median(&brute_us);
    out.set("brute.query_us_p50", brute_p50);
    out.set("brute.ns_per_pair", brute_p50 * 1e3 / space.len() as f64);
    out.set("engine.ta_over_brute", brute_p50 / ta.p50);

    // The batch entry point, on the one rayon thread the benchmark allows.
    let batch_users = &users[..(4 * probe.len()).min(users.len())];
    let t = Instant::now();
    let batch = engine.recommend_batch(batch_users, TOP_N, Method::Ta);
    out.set("engine.batch_qps", batch.len() as f64 / t.elapsed().as_secs_f64());
    out.gate(batch.iter().all(Result::is_ok), "recommend_batch answered every user");

    probes::query_kernels(&mut out, opts);

    out.set("trace.build_attributed_share", trace::attributed_share(tr.spans(), "engine.build"));
    out.set("trace.query_attributed_share", trace::attributed_share(tr.spans(), "engine.query"));
    for name in ["trace.build_attributed_share", "trace.query_attributed_share"] {
        let share = out.metrics[name];
        // On the tiny smoke inputs a span's clock reads rival the work.
        out.gate(opts.smoke || share >= 0.9, &format!("{name} {share:.3} >= 0.9"));
    }
    out.spans = tr.into_spans();
    out
}
