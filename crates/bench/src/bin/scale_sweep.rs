//! Three-decade scale sweep: engine build time, resident space and TA/BF
//! serving throughput at 1/40 Douban, full Douban (64k users) and 10×
//! Douban (641k users), every build running under a declared [`MemBudget`].
//!
//! Usage: `cargo run --release -p gem-bench --bin scale_sweep \
//!         [--queries 256 --top-n 10 --dim 16 --seed 7 --window-ms 500]`
//!
//! Each leg synthesizes a deterministic embedding model directly at the
//! target population (Table I Beijing counts × the leg's scale factor)
//! instead of generating and training on a full synthetic city: growing
//! the interaction graph to 641k users just to discard everything but the
//! embeddings would dominate the sweep without exercising the serving
//! stack differently. Embedding values are drawn uniformly from `[0, 1)`.
//! TA has no sign requirement (it ranks composite keys, and its proptests
//! run signed models); the range only keeps the scores peaked the way
//! trained ones are.
//!
//! The engine indexes at most `LIVE_EVENT_WINDOW` events per leg (the
//! full-Douban event count): a serving index covers *upcoming* events,
//! and that window is bounded by the calendar, not by how many users the
//! city has. The 10× leg therefore stresses exactly what grows — the
//! partner pool — while total events (and the persisted model) still
//! scale 10×.
//!
//! Per leg, the sweep reports:
//!
//! * **build** — `build_within_budget` wall-clock plus the [`BuildReport`]
//!   byte breakdown (transformed space, TA index) and the effective
//!   pruning `k` the budget admitted. The 1/40 and full legs run `Fail`
//!   budgets sized to hold the requested `k = 8`; the 10× leg runs a
//!   512 MiB `DegradeK` budget, which the factored space (16 bytes a pair)
//!   fits at `k = 8` with room to spare — the full sweep asserts that no
//!   leg degrades.
//! * **serving** — single-thread GEM-TA and GEM-BF queries/sec, after a
//!   TA == BF agreement gate on sampled queries.
//! * **persist v3** — chunk-streamed save, full [`load_model`] and
//!   [`ModelReader`] open (header + chunk skeleton only) wall-clock for
//!   the leg's model file.
//!
//! With `--smoke` only the full-Douban leg runs, with a pinned 16 MiB
//! `Fail` budget and hard assertions (build fits, gauges emitted, TA
//! agrees with BF, persist round-trips); the same `BENCH_scale.json` and
//! journal are still written so CI can archive them.
//!
//! Writes `BENCH_scale.json` (schema in EXPERIMENTS.md) and a JSONL
//! journal `journal_scale_bench.jsonl` in the working directory.

use gem_bench::Args;
use gem_core::{load_model, EventScorer, GemModel, ModelReader};
use gem_ebsn::{EventId, UserId};
use gem_obs::MetricsRegistry;
use gem_query::{
    BudgetPolicy, BuildReport, EngineMetrics, MemBudget, Method, RecommendationEngine,
    ServeScratch, ServeTracing,
};
use rand::RngExt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Table I Beijing population (users, events).
const DOUBAN_USERS: usize = 64_113;
const DOUBAN_EVENTS: usize = 12_955;

/// Upper bound on events the engine indexes per leg: the upcoming-event
/// window a serving index actually covers (the full-Douban event count).
const LIVE_EVENT_WINDOW: usize = DOUBAN_EVENTS;

/// Pinned budget of the full-Douban leg (also the `--smoke` gate): the
/// bytes-per-pair tripwire, ≈ 1.3× the ≈ 12.1 MiB the leg accounts at 16
/// bytes a pair.
const FULL_LEG_BUDGET_MIB: usize = 16;

/// One point of the sweep.
struct Leg {
    name: &'static str,
    users: usize,
    /// Total events at this scale (sizes the persisted model).
    events: usize,
    prune_k: usize,
    budget: MemBudget,
}

fn legs(smoke: bool) -> Vec<Leg> {
    let full = Leg {
        name: "douban-full",
        users: DOUBAN_USERS,
        events: DOUBAN_EVENTS,
        prune_k: 8,
        budget: MemBudget::fail_at_mib(FULL_LEG_BUDGET_MIB),
    };
    if smoke {
        return vec![full];
    }
    vec![
        Leg {
            name: "douban-1/40",
            users: DOUBAN_USERS / 40,
            events: DOUBAN_EVENTS / 40,
            prune_k: 8,
            budget: MemBudget::fail_at_mib(64),
        },
        full,
        // 10× users: ≈ 120 MiB accounted at k = 8. The policy stays
        // DegradeK (a daemon at this scale would rather lose k than fail);
        // the sweep records both the requested and the admitted k.
        Leg {
            name: "douban-10x",
            users: DOUBAN_USERS * 10,
            events: DOUBAN_EVENTS * 10,
            prune_k: 8,
            budget: MemBudget::degrade_at_mib(512),
        },
    ]
}

/// Deterministic synthetic model with non-negative embeddings in `[0, 1)`.
fn synth_model(users: usize, events: usize, dim: usize, seed: u64) -> GemModel {
    let mut rng = gem_sampling::rng_from_seed(seed);
    let user_rows: Vec<f32> = (0..users * dim).map(|_| rng.random::<f32>()).collect();
    let event_rows: Vec<f32> = (0..events * dim).map(|_| rng.random::<f32>()).collect();
    GemModel::from_raw(dim, user_rows, event_rows, vec![], vec![], vec![])
}

/// Single-thread queries/sec over `users` (cycled) for `window`.
fn qps(
    engine: &RecommendationEngine,
    users: &[UserId],
    n: usize,
    method: Method,
    window: Duration,
) -> f64 {
    let mut scratch = ServeScratch::new();
    black_box(engine.recommend_with(users[0], n, method, &mut scratch));
    let start = Instant::now();
    let mut served = 0u64;
    'timed: loop {
        for &u in users {
            black_box(engine.recommend_with(u, n, method, &mut scratch));
            served += 1;
            if start.elapsed() >= window {
                break 'timed;
            }
        }
    }
    served as f64 / start.elapsed().as_secs_f64()
}

/// Resident set size of this process in MiB (`None` off Linux).
fn vm_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Everything measured for one leg (feeds both the journal and the JSON).
struct LegNumbers {
    name: &'static str,
    users: usize,
    events_total: usize,
    events_indexed: usize,
    model_bytes: usize,
    limit_bytes: usize,
    policy: &'static str,
    build_ms: f64,
    report: BuildReport,
    candidate_pairs: usize,
    rss_mib: Option<f64>,
    ta_qps: f64,
    bf_qps: f64,
    persist_bytes: u64,
    save_ms: f64,
    load_ms: f64,
    reader_open_ms: f64,
}

fn run_leg(
    leg: &Leg,
    dim: usize,
    seed: u64,
    queries: usize,
    top_n: usize,
    window: Duration,
    smoke: bool,
) -> LegNumbers {
    let policy = match leg.budget.policy {
        BudgetPolicy::Fail => "fail",
        BudgetPolicy::DegradeK => "degrade_k",
    };
    println!(
        "[{name}] {users} users x {events} events (indexing {live}), k={k} under {mib} MiB ({policy})",
        name = leg.name,
        users = leg.users,
        events = leg.events,
        live = leg.events.min(LIVE_EVENT_WINDOW),
        k = leg.prune_k,
        mib = leg.budget.limit_bytes >> 20,
    );

    let model = synth_model(leg.users, leg.events, dim, seed);
    let model_bytes = (leg.users + leg.events) * dim * 4;
    let partners: Vec<UserId> = (0..leg.users).map(|u| UserId(u as u32)).collect();
    let live: Vec<EventId> =
        (0..leg.events.min(LIVE_EVENT_WINDOW)).map(|x| EventId(x as u32)).collect();

    let registry = MetricsRegistry::new();
    let build_start = Instant::now();
    let (engine, report) = RecommendationEngine::build_within_budget(
        model.clone(),
        &partners,
        &live,
        leg.prune_k,
        leg.budget,
        EngineMetrics::register(&registry),
        ServeTracing::disabled(),
    )
    .unwrap_or_else(|e| panic!("[{}] budgeted build failed: {e}", leg.name));
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let rss_mib = vm_rss_mib();
    println!(
        "  build {build_ms:.0} ms: k {} -> {}, {} pairs, {:.1} MiB accounted (limit {} MiB)",
        report.requested_k,
        report.effective_k,
        engine.num_candidates(),
        report.total_bytes as f64 / (1024.0 * 1024.0),
        leg.budget.limit_bytes >> 20,
    );
    assert!(
        report.total_bytes <= leg.budget.limit_bytes,
        "[{}] accounted bytes exceed the declared budget",
        leg.name
    );

    // TA must agree with brute force before any throughput is reported:
    // same pairs, same score bits (both methods score through one
    // expression over the factored space).
    let users: Vec<UserId> = (0..queries).map(|i| UserId(((i * 97) % leg.users) as u32)).collect();
    let mut scratch = ServeScratch::new();
    for &u in users.iter().take(8) {
        let ta = engine.recommend_with(u, top_n, Method::Ta, &mut scratch);
        let bf = engine.recommend_with(u, top_n, Method::BruteForce, &mut scratch);
        assert_eq!(ta.0, bf.0, "[{}] TA diverged from brute force for {u:?}", leg.name);
    }
    let ta_qps = qps(&engine, &users, top_n, Method::Ta, window);
    let bf_qps = qps(&engine, &users, top_n, Method::BruteForce, window);
    println!("  serving: GEM-TA {ta_qps:.0} qps, GEM-BF {bf_qps:.0} qps ({:.1}x)", ta_qps / bf_qps);

    assert_eq!(report.effective_k, leg.prune_k, "[{}] the budget degraded k", leg.name);
    if smoke {
        // The gauges are the interface ops dashboards read; the smoke
        // pins them to the report the build returned.
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("build.total_bytes"), report.total_bytes as f64);
        assert_eq!(snap.gauge("build.budget_limit_bytes"), leg.budget.limit_bytes as f64);
        assert_eq!(snap.gauge("build.prune_k"), report.effective_k as f64);
    }

    // Persist v3: chunk-streamed save, full load, reader open.
    let path = std::env::temp_dir().join(format!(
        "gem_scale_sweep_{}_{}.model",
        std::process::id(),
        leg.name.replace('/', "_")
    ));
    let save_start = Instant::now();
    gem_core::save_model_v3(&model, &path).expect("persist v3 save");
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    let persist_bytes = std::fs::metadata(&path).expect("stat model file").len();
    let load_start = Instant::now();
    let loaded = load_model(&path).expect("persist v3 load");
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded.dim, model.dim);
    assert_eq!(
        loaded.score_event(UserId(0), EventId(0)).to_bits(),
        model.score_event(UserId(0), EventId(0)).to_bits(),
        "persist v3 round-trip changed the model"
    );
    let open_start = Instant::now();
    let reader = ModelReader::open(&path).expect("persist v3 reader");
    let reader_open_ms = open_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!((reader.dim(), reader.num_users()), (dim, leg.users));
    let _ = std::fs::remove_file(&path);
    println!(
        "  persist v3: {:.1} MiB, save {save_ms:.0} ms, load {load_ms:.0} ms, reader open {reader_open_ms:.2} ms",
        persist_bytes as f64 / (1024.0 * 1024.0),
    );

    LegNumbers {
        name: leg.name,
        users: leg.users,
        events_total: leg.events,
        events_indexed: live.len(),
        model_bytes,
        limit_bytes: leg.budget.limit_bytes,
        policy,
        build_ms,
        report,
        candidate_pairs: engine.num_candidates(),
        rss_mib,
        ta_qps,
        bf_qps,
        persist_bytes,
        save_ms,
        load_ms,
        reader_open_ms,
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let dim = args.get("dim", 16usize);
    let seed = args.get("seed", 7u64);
    let top_n = args.get("top-n", 10usize);
    let queries = args.get("queries", if smoke { 64 } else { 256usize });
    let window = Duration::from_millis(args.get("window-ms", if smoke { 200 } else { 500u64 }));

    let mode = if smoke { " --smoke (full-Douban leg only)" } else { "" };
    println!("scale_sweep{mode}: dim {dim}, top-{top_n}, {queries} query users\n");

    let results: Vec<LegNumbers> = legs(smoke)
        .iter()
        .map(|leg| run_leg(leg, dim, seed, queries, top_n, window, smoke))
        .collect();

    let mut journal = gem_obs::Journal::create("journal_scale_bench.jsonl")
        .expect("create journal_scale_bench.jsonl");
    journal.append(
        &gem_obs::JournalRecord::new()
            .str("journal", "scale_bench")
            .u64("dim", dim as u64)
            .u64("top_n", top_n as u64)
            .u64("legs", results.len() as u64),
    );
    for r in &results {
        journal.append(
            &gem_obs::JournalRecord::new()
                .str("leg", r.name)
                .u64("users", r.users as u64)
                .u64("events_indexed", r.events_indexed as u64)
                .u64("effective_k", r.report.effective_k as u64)
                .f64("build_ms", r.build_ms)
                .u64("total_bytes", r.report.total_bytes as u64)
                .f64("ta_qps", r.ta_qps)
                .f64("bf_qps", r.bf_qps)
                .f64("save_ms", r.save_ms)
                .f64("load_ms", r.load_ms),
        );
    }
    assert_eq!(journal.write_errors(), 0, "scale journal hit I/O errors");
    println!("\n  journal: {} lines -> journal_scale_bench.jsonl", journal.lines_written());

    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let leg_json: Vec<String> = results
        .iter()
        .map(|r| {
            let rss = r.rss_mib.map_or("null".to_string(), |v| format!("{v:.1}"));
            format!(
                concat!(
                    "    {{\n",
                    "      \"leg\": \"{name}\",\n",
                    "      \"users\": {users},\n",
                    "      \"events_total\": {et},\n",
                    "      \"events_indexed\": {ei},\n",
                    "      \"model_mib\": {mm:.3},\n",
                    "      \"budget\": {{ \"limit_mib\": {lim}, \"policy\": \"{policy}\" }},\n",
                    "      \"build\": {{ \"build_ms\": {bms:.1}, \"requested_k\": {rk}, ",
                    "\"effective_k\": {ek}, \"candidate_pairs\": {pairs},\n",
                    "        \"space_mib\": {sm:.3}, ",
                    "\"index_mib\": {im:.3}, \"total_mib\": {tm:.3}, \"rss_mib\": {rss} }},\n",
                    "      \"serving\": {{ \"ta_qps\": {ta:.1}, \"bf_qps\": {bf:.1}, ",
                    "\"ta_speedup\": {sp:.2} }},\n",
                    "      \"persist_v3\": {{ \"file_mib\": {fm:.3}, \"save_ms\": {sa:.1}, ",
                    "\"load_ms\": {lo:.1}, \"reader_open_ms\": {ro:.3} }}\n",
                    "    }}",
                ),
                name = r.name,
                users = r.users,
                et = r.events_total,
                ei = r.events_indexed,
                mm = mib(r.model_bytes),
                lim = r.limit_bytes >> 20,
                policy = r.policy,
                bms = r.build_ms,
                rk = r.report.requested_k,
                ek = r.report.effective_k,
                pairs = r.candidate_pairs,
                sm = mib(r.report.space_bytes),
                im = mib(r.report.index_bytes),
                tm = mib(r.report.total_bytes),
                rss = rss,
                ta = r.ta_qps,
                bf = r.bf_qps,
                sp = r.ta_qps / r.bf_qps,
                fm = r.persist_bytes as f64 / (1024.0 * 1024.0),
                sa = r.save_ms,
                lo = r.load_ms,
                ro = r.reader_open_ms,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale_sweep\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"dim\": {dim},\n",
            "  \"top_n\": {top_n},\n",
            "  \"queries\": {queries},\n",
            "  \"live_event_window\": {window},\n",
            "{host},\n",
            "  \"legs\": [\n{legs}\n  ]\n",
            "}}\n",
        ),
        smoke = smoke,
        dim = dim,
        top_n = top_n,
        queries = queries,
        window = LIVE_EVENT_WINDOW,
        host = gem_bench::host_json("  "),
        legs = leg_json.join(",\n"),
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("Wrote BENCH_scale.json ({} scale points)", results.len());
    gem_bench::emit_report();
    if smoke {
        println!("smoke OK: full-Douban leg built within {FULL_LEG_BUDGET_MIB} MiB, TA == BF, gauges pinned");
    }
}
