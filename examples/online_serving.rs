//! Online serving walkthrough: space transformation → pruning → TA, with
//! work accounting, mirroring §IV of the paper end to end. Also verifies
//! live that TA returns exactly the brute-force answer, and shows the
//! whole gem-obs observability surface wired through one run:
//!
//! * one [`MetricsRegistry`] shared by training and serving, dumped in
//!   Prometheus exposition format at the end;
//! * a [`TrainJournal`] (`online_serving.journal.jsonl`) recording the
//!   per-epoch convergence curve of the training run;
//! * a [`Tracer`] threaded through the trainer, the engine build phases
//!   and every serving request, exported as Chrome trace-event JSON
//!   (`online_serving.trace.json`) — open it at <https://ui.perfetto.dev>
//!   or `chrome://tracing` to see the timeline.
//!
//! Run with: `cargo run --release --example online_serving`

use ebsn_rec::online::MemBudget;
use ebsn_rec::prelude::*;
use std::time::Instant;

fn main() {
    let registry = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(16_384);
    let mut sink = TraceSink::new();

    let mut cfg = SynthConfig::tiny(5);
    cfg.num_users = 800;
    cfg.num_events = 300;
    cfg.num_venues = 90;
    let (dataset, _) = ebsn_rec::data::synth::generate(&cfg);
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    let graphs = TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[]);
    let trainer = GemTrainer::new(&graphs, TrainConfig::gem_a(5))
        .expect("valid config")
        .with_metrics(TrainerMetrics::register(&registry))
        .with_tracer(tracer.clone());

    // Train in journaled epochs: one JSONL line per 60k steps with loss
    // proxy, steps/sec, per-graph sample counts and embedding-norm drift.
    let mut journal = TrainJournal::create("online_serving.journal.jsonl", 60_000, "GEM-A demo")
        .expect("create journal");
    trainer.run_journaled(300_000, 2, &mut journal);
    let model = trainer.model();
    println!("trained 300k steps in {} journaled epochs:", journal.history().len());
    for e in journal.history() {
        println!(
            "  epoch {}: loss proxy {:.4}, {:.0} steps/s, refreshes {}",
            e.epoch, e.loss_proxy, e.steps_per_sec, e.refreshes
        );
    }

    let partners: Vec<UserId> = (0..dataset.num_users).map(UserId::from_index).collect();
    let upcoming = &split.test_events;

    println!(
        "\ncandidate space without pruning: {} partners x {} events = {} pairs",
        partners.len(),
        upcoming.len(),
        partners.len() * upcoming.len()
    );

    // Prune to each partner's top-k events, transform, index. The engine
    // emits build.prune/transform/index spans; serving emits one span per
    // request, promoted to full argument detail when it crosses the slow
    // threshold (100µs here).
    for k in [4usize, 16, upcoming.len()] {
        let t0 = Instant::now();
        let (engine, _report) = RecommendationEngine::build_within_budget(
            model.clone(),
            &partners,
            upcoming,
            k,
            MemBudget::fail_at_mib(64),
            EngineMetrics::register(&registry),
            ServeTracing::new(tracer.clone(), 100_000),
        )
        .expect("800 partners at any k fit 64 MiB");
        let build = t0.elapsed();
        println!(
            "\nk = {k:<3} → {} candidate pairs, space {:.1} MiB, offline build {:.2}s",
            engine.num_candidates(),
            engine.space_bytes() as f64 / (1024.0 * 1024.0),
            build.as_secs_f64()
        );

        // Serve a few users with both methods and compare.
        let mut ta_time = std::time::Duration::ZERO;
        let mut bf_time = std::time::Duration::ZERO;
        let mut scored = 0usize;
        for u in (0..dataset.num_users).step_by(dataset.num_users / 8 + 1) {
            let user = UserId::from_index(u);
            let t = Instant::now();
            let (ta, stats) = engine.recommend(user, 10, Method::Ta);
            ta_time += t.elapsed();
            scored += stats.scored;
            let t = Instant::now();
            let (bf, _) = engine.recommend(user, 10, Method::BruteForce);
            bf_time += t.elapsed();
            // TA is exact: identical scores to brute force.
            for (a, b) in ta.iter().zip(&bf) {
                assert!(
                    (a.score - b.score).abs() < 1e-5,
                    "TA/BF mismatch for {user}: {a:?} vs {b:?}"
                );
            }
        }
        println!(
            "  8 queries: TA {:.1} ms (scored {:.1}% of pairs)  |  BF {:.1} ms",
            ta_time.as_secs_f64() * 1000.0,
            100.0 * scored as f64 / (engine.num_candidates().max(1) * 8) as f64,
            bf_time.as_secs_f64() * 1000.0,
        );
    }
    println!("\nTA answers verified identical to brute force at every k.");

    // Everything above — training throughput, per-graph sample counts, the
    // serving latency distribution, TA work counters — accumulated in the
    // one registry. A real deployment would expose this on /metrics.
    println!("\n--- metrics (Prometheus exposition) ---");
    print!("{}", registry.snapshot().to_prometheus());

    // And the time-resolved view: drain every thread's span ring and export
    // the Chrome trace-event file. Load it in https://ui.perfetto.dev (or
    // chrome://tracing) to see training phases, adaptive refreshes, engine
    // build phases and each serving request on one timeline.
    sink.drain(&tracer);
    sink.write_chrome_json("online_serving.trace.json").expect("write trace");
    println!(
        "\ntrace: {} span events ({} dropped) -> online_serving.trace.json",
        sink.events().len(),
        sink.dropped()
    );
    println!("journal: {} epochs -> online_serving.journal.jsonl", journal.history().len());
    println!("open the trace at https://ui.perfetto.dev or chrome://tracing");
}
