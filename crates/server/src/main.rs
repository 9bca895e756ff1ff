//! `gem-serverd` — the standalone serving daemon.
//!
//! Bootstraps an engine either from a saved model (`--model PATH`) or by
//! synthesizing a deterministic dataset and training briefly in-process
//! (the default; good enough to serve real queries for benches and CI),
//! then serves until SIGTERM/SIGINT or `POST /shutdown`.
//!
//! ```text
//! gem-serverd [--addr 127.0.0.1:0] [--model PATH] [--live-events N]
//!             [--scale 20] [--steps 8000] [--train-threads 2] [--seed 7]
//!             [--dim 24] [--top-k 16] [--workers 4] [--shards 8]
//!             [--shard-capacity 64] [--deadline-us 5000]
//!             [--staleness-budget 256] [--top-n 10] [--journal PATH]
//!             [--wal PATH] [--reload-timeout-ms 30000]
//! ```
//!
//! `--wal PATH` turns churn `202`s into crash-durability promises: ops are
//! fsync-logged before the ack and replayed on the next start (DESIGN.md
//! §5.9). `--live-events N` (with `--model`) starts with only the first N
//! events live — the soak drill uses it so churn has headroom to add.
//!
//! Prints exactly one `LISTENING <addr>` line on stdout once the socket is
//! bound (the load generator parses it to discover an ephemeral port).

use gem_core::{GemTrainer, TrainConfig};
use gem_ebsn::{
    ChronoSplit, EventId, GraphBuildConfig, SplitRatios, SynthConfig, TrainingGraphs, UserId,
};
use gem_obs::MetricsRegistry;
use gem_query::{EngineMetrics, IncrementalEngine};
use gem_server::{signal, Daemon, DaemonConfig};
use std::sync::Arc;
use std::time::Duration;

/// Minimal `--key value` / `--flag` argument parser (same syntax as
/// `gem_bench::Args`, kept local so the daemon does not pull the bench
/// crate into its dependency graph).
struct Args(Vec<String>);

impl Args {
    fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let flag = format!("--{key}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn get_opt(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0.iter().position(|a| *a == flag).and_then(|i| self.0.get(i + 1)).map(|s| s.as_str())
    }
}

/// Build the initial engine: saved model if given, otherwise synth+train.
fn bootstrap(args: &Args, registry: &MetricsRegistry) -> IncrementalEngine {
    let top_k = args.get("top-k", 16usize);
    let metrics = EngineMetrics::register(registry);

    if let Some(path) = args.get_opt("model") {
        let model = gem_core::load_model(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("load --model {path}: {e:?}"));
        let partners: Vec<UserId> = (0..model.num_users() as u32).map(UserId).collect();
        let live = args.get("live-events", model.num_events()).min(model.num_events());
        let events: Vec<EventId> = (0..live as u32).map(EventId).collect();
        eprintln!(
            "gem-serverd: loaded model from {path} ({} users, {} of {} events live)",
            partners.len(),
            events.len(),
            model.num_events(),
        );
        return IncrementalEngine::build(model, &partners, &events, top_k, metrics);
    }

    let scale = args.get("scale", 20usize);
    let steps = args.get("steps", 8_000u64);
    let threads = args.get("train-threads", 2usize);
    let seed = args.get("seed", 7u64);
    let dim = args.get("dim", 24usize);

    eprintln!("gem-serverd: synthesizing beijing-like 1/{scale} dataset (seed {seed})");
    let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::beijing_like(seed, scale));
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    let graphs = TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[]);
    let mut cfg = TrainConfig::gem_a(seed);
    cfg.dim = dim;
    eprintln!("gem-serverd: training GEM-A for {steps} steps on {threads} thread(s)");
    let trainer = GemTrainer::new(&graphs, cfg).expect("trainer construction");
    trainer.run(steps, threads);
    let model = trainer.model();

    let partners: Vec<UserId> = (0..dataset.num_users as u32).map(UserId).collect();
    // Serve the held-out (future) events; the training-era events stay
    // available for `/events/add` churn.
    let events = split.test_events.clone();
    eprintln!(
        "gem-serverd: engine over {} partners x {} live events (top-k {top_k})",
        partners.len(),
        events.len()
    );
    IncrementalEngine::build(model, &partners, &events, top_k, metrics)
}

fn main() {
    let args = Args::from_env();
    let addr: String = args.get("addr", "127.0.0.1:7878".to_string());

    let registry = Arc::new(MetricsRegistry::new());
    let engine = bootstrap(&args, &registry);

    let cfg = DaemonConfig {
        workers: args.get("workers", 4usize),
        shards: args.get("shards", 8usize),
        shard_capacity: args.get("shard-capacity", 64usize),
        deadline: Duration::from_micros(args.get("deadline-us", 5_000u64)),
        staleness_budget: args.get("staleness-budget", 256usize),
        top_n: args.get("top-n", 10usize),
        idle_timeout: Duration::from_millis(100),
        watch_os_signals: true,
        journal_path: args.get_opt("journal").map(std::path::PathBuf::from),
        wal_path: args.get_opt("wal").map(std::path::PathBuf::from),
        reload_timeout: Duration::from_millis(args.get("reload-timeout-ms", 30_000u64)),
    };

    signal::install();
    let daemon = Daemon::start(addr.as_str(), engine, cfg, registry)
        .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    // The load generator parses this exact line to find an ephemeral port.
    println!("LISTENING {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    daemon.wait_for_shutdown();
    eprintln!("gem-serverd: drain requested, finishing in-flight requests");
    let engine = daemon.join();
    eprintln!(
        "gem-serverd: drained cleanly ({} live events, staleness {})",
        engine.live_events().len(),
        engine.staleness()
    );
}
