//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` at the repo root is generated
//! from these tables (`--emit-spec`) and a unit test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train_degree",
        why: "GEM-P trainer, O(1) degree-noise draws: alias tables and SIMD row kernels do the work, the adaptive sampler none",
    },
    Workload {
        name: "train_adaptive",
        why: "GEM-A on the same data: adaptive sampling and its refresh sorts take ~2/3 of a step, so kernel and sampler gains show on different workloads",
    },
    Workload {
        name: "serve_trained",
        why: "trained dim-60 model, peaked scores, build is trivial: the query path (query vector, TA rounds, dot kernels) owns the time",
    },
    Workload {
        name: "serve_wide",
        why: "uniform dim-16 model with 5x the partners: prune owns the build and TA's per-query fixed cost owns the query",
    },
    Workload {
        name: "daemon_mixed",
        why: "in-process daemon over loopback TCP, open-loop reads with bursty WAL-backed churn: http, admission, swap, WAL and worker loop dominate a small engine",
    },
];

/// One end-to-end metric. Every workload reports every one of them; the
/// operation it counts or times differs by workload family.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// What it measures on `train_*`, on `serve_*` and on `daemon_mixed`.
    pub means: [&'static str; 3],
}

impl EndToEnd {
    pub fn means_on(&self, workload: &str) -> &'static str {
        match workload {
            w if w.starts_with("train_") => self.means[0],
            w if w.starts_with("serve_") => self.means[1],
            _ => self.means[2],
        }
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        means: [
            "TrainingGraphs::build + GemTrainer::new, median repetition",
            "RecommendationEngine::build_within_budget, median repetition",
            "IncrementalEngine::build + Daemon::start, median repetition",
        ],
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
        means: [
            "SGD steps per second, 1 thread, median block of chunks",
            "TA top-10 queries per second, closed loop, 1 thread, median block",
            "GET /recommend round trips per second, closed loop over the connections",
        ],
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        means: [
            "wall time of 1 000 SGD steps, median chunk of the median block",
            "recommend_with latency, median query",
            "read latency at 2 000 rps open loop, from when the read was due, median",
        ],
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        means: [
            "wall time of 1 000 SGD steps, 95th percentile chunk of the median block (on GEM-A: one holding a big refresh)",
            "recommend_with latency, 95th percentile",
            "read latency at 2 000 rps open loop, from when the read was due, 95th percentile",
        ],
    },
];

/// One per-layer metric. `moves` names the end-to-end metric and workload
/// an optimisation of this layer should move; everything else is predicted
/// flat. A workload that does not exercise the layer reports 0.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

const TRAIN_BOTH: &str = "ops_per_s on train_degree and train_adaptive";
const TRAIN_DEGREE: &str = "ops_per_s on train_degree";
const TRAIN_ADAPTIVE: &str = "ops_per_s on train_adaptive";
const BUILD_WIDE: &str =
    "setup_s on serve_wide (prune owns the build); flat on serve_trained queries";
const QUERY_BOTH: &str = "op_p50_us, op_p95_us, ops_per_s on serve_*";
const QUERY_TRAINED: &str = "op_p50_us on serve_trained; near-flat on serve_wide";
const QUERY_WIDE: &str = "op_p50_us on serve_wide (fixed per-query cost dominates)";
const NOT_E2E: &str =
    "none today; a planner falling back to the scan would move op_p50_us on serve_wide toward it";
const DAEMON_WRITE: &str =
    "daemon.churn_ack_p50_ms only; must leave op_p50_us on daemon_mixed flat";
const DAEMON_READ: &str = "op_p50_us, op_p95_us, ops_per_s on daemon_mixed";
const DAEMON_MAINT: &str = "daemon.publish_catchup_ms, setup_s on daemon_mixed; flat elsewhere";
const VALIDITY: &str = "validity of the open loop, not a target";
const TRACE: &str = "validity of the traced run, not a target";

pub const PER_LAYER: [Layer; 95] = [
    layer("sampling.alias_draw_ns", "ns", "lower", TRAIN_DEGREE),
    layer("sampling.csr_draw_ns", "ns", "lower", TRAIN_BOTH),
    layer("sampling.noise_draw_ns", "ns", "lower", TRAIN_DEGREE),
    layer("sampling.geometric_draw_ns", "ns", "lower", TRAIN_ADAPTIVE),
    layer("adaptive.sample_ns", "ns", "lower", TRAIN_ADAPTIVE),
    layer("adaptive.refresh_ms", "ms", "lower", "op_p95_us, ops_per_s on train_adaptive"),
    layer("adaptive.refreshes", "count", "lower", TRAIN_ADAPTIVE),
    layer("matrix.read_row_dot_ns", "ns", "lower", TRAIN_BOTH),
    layer("matrix.add_scaled_ns", "ns", "lower", TRAIN_BOTH),
    layer("math.dot_ns_d60", "ns", "lower", TRAIN_BOTH),
    layer("math.dot_ns_d121", "ns", "lower", QUERY_TRAINED),
    layer("math.dot_batch_ns_per_row_d121", "ns", "lower", QUERY_TRAINED),
    layer("math.dot_batch_ns_per_row_d33", "ns", "lower", "brute.query_us_p50 on serve_wide"),
    layer("math.sigmoid_lut_ns", "ns", "lower", TRAIN_BOTH),
    layer("simd.lanes_f32", "count", "higher", TRAIN_BOTH),
    layer("trainer.sample_share", "share", "lower", TRAIN_BOTH),
    layer("trainer.fetch_share", "share", "lower", TRAIN_BOTH),
    layer("trainer.update_share", "share", "lower", TRAIN_BOTH),
    layer("trainer.profiled_steps_per_s", "1/s", "higher", TRAIN_BOTH),
    layer("trainer.steps_per_s", "1/s", "higher", TRAIN_BOTH),
    layer("trainer.steps_per_s_t2", "1/s", "higher", "none: 2 Hogwild threads, diagnostic"),
    layer("trainer.graphs_build_ms", "ms", "lower", "setup_s on train_*"),
    layer("trainer.new_ms", "ms", "lower", "setup_s on train_*"),
    layer("trainer.acc_at_10", "share", "higher", "correctness gate on train_*"),
    layer("prune.build_ms", "ms", "lower", BUILD_WIDE),
    layer("prune.pairs_scored", "count", "lower", BUILD_WIDE),
    layer("prune.ns_per_pair", "ns", "lower", BUILD_WIDE),
    layer("transform.build_ms", "ms", "lower", "setup_s on serve_*"),
    layer("ta.index_build_ms", "ms", "lower", "setup_s on serve_*"),
    layer("engine.build_ms", "ms", "lower", "setup_s on serve_*"),
    layer("engine.build_overhead_ms", "ms", "lower", "setup_s on serve_*"),
    layer("engine.candidate_pairs", "count", "lower", "engine.index_mib, op_p50_us on serve_*"),
    layer("engine.effective_k", "count", "higher", "engine.index_mib on serve_*"),
    layer("engine.space_mib", "MiB", "lower", "engine.index_mib on serve_*"),
    layer("engine.index_only_mib", "MiB", "lower", "engine.index_mib on serve_*"),
    layer("engine.index_mib", "MiB", "lower", "memory of serve_*: BuildReport accounted total"),
    layer("transform.query_vector_ns", "ns", "lower", QUERY_BOTH),
    layer("ta.query_us_p50", "us", "lower", QUERY_BOTH),
    layer("ta.query_us_p99", "us", "lower", "op_p95_us on serve_*"),
    layer("ta.sorted_accesses_per_query", "count", "lower", QUERY_BOTH),
    layer("ta.scored_per_query", "count", "lower", QUERY_TRAINED),
    layer("ta.scored_share", "share", "lower", QUERY_TRAINED),
    layer("ta.query_us_n1", "us", "lower", QUERY_WIDE),
    layer("ta.query_us_n100", "us", "lower", QUERY_TRAINED),
    layer("ta.us_per_scored", "us", "lower", QUERY_TRAINED),
    layer("ta.fixed_us", "us", "lower", QUERY_WIDE),
    layer("engine.query_us_p50", "us", "lower", QUERY_BOTH),
    layer("engine.query_overhead_us", "us", "lower", QUERY_BOTH),
    layer("brute.query_us_p50", "us", "lower", NOT_E2E),
    layer("brute.ns_per_pair", "ns", "lower", NOT_E2E),
    layer("engine.ta_over_brute", "ratio", "higher", NOT_E2E),
    layer("engine.batch_qps", "1/s", "higher", "none: recommend_batch, rayon held to 1 thread"),
    layer("incremental.add_us", "us", "lower", DAEMON_MAINT),
    layer("incremental.retire_us", "us", "lower", DAEMON_MAINT),
    layer("incremental.rebuild_ms", "ms", "lower", DAEMON_MAINT),
    layer("incremental.snapshot_us", "us", "lower", DAEMON_MAINT),
    layer("incremental.stale_query_us_p50", "us", "lower", "op_p50_us on daemon_mixed"),
    layer("persist.save_ms", "ms", "lower", "none: model hand-off before a daemon start"),
    layer("persist.load_ms", "ms", "lower", "none: model hand-off before a daemon start"),
    layer("persist.reader_open_ms", "ms", "lower", "none: model hand-off before a daemon start"),
    layer("http.parse_ns", "ns", "lower", DAEMON_READ),
    layer("http.write_ns", "ns", "lower", DAEMON_READ),
    layer("shard.admit_ns", "ns", "lower", DAEMON_READ),
    layer("swap.load_ns", "ns", "lower", DAEMON_READ),
    layer("wal.append_us_p50", "us", "lower", DAEMON_WRITE),
    layer("wal.append_us_p99", "us", "lower", DAEMON_WRITE),
    layer("wal.compact_ms", "ms", "lower", DAEMON_WRITE),
    layer("wal.replay_ms", "ms", "lower", "setup_s on daemon_mixed after a restart"),
    layer("daemon.engine_build_ms", "ms", "lower", "setup_s on daemon_mixed"),
    layer("daemon.start_ms", "ms", "lower", "setup_s on daemon_mixed"),
    layer("daemon.server_request_us_p50", "us", "lower", DAEMON_READ),
    layer("daemon.server_request_us_p99", "us", "lower", "op_p95_us on daemon_mixed"),
    layer("daemon.client_minus_server_us", "us", "lower", DAEMON_READ),
    layer("daemon.p95_ms_r1000", "ms", "lower", DAEMON_READ),
    layer("daemon.p95_ms_r4000", "ms", "lower", DAEMON_READ),
    layer("daemon.p99_ms_r2000", "ms", "lower", "op_p95_us on daemon_mixed"),
    layer("daemon.mixed_lane_p95_ms", "ms", "lower", DAEMON_WRITE),
    layer("daemon.rate_within_limit_rps", "1/s", "higher", DAEMON_READ),
    layer("daemon.within_limit_share", "share", "higher", DAEMON_READ),
    layer("daemon.degraded_share", "share", "lower", DAEMON_READ),
    layer("daemon.sheds", "count", "lower", DAEMON_READ),
    layer("daemon.rebuilds", "count", "lower", DAEMON_MAINT),
    layer("daemon.publishes", "count", "lower", DAEMON_MAINT),
    layer("daemon.publish_catchup_ms", "ms", "lower", DAEMON_MAINT),
    layer("daemon.batch_p50_ms", "ms", "lower", DAEMON_READ),
    layer("daemon.churn_ack_p50_ms", "ms", "lower", DAEMON_WRITE),
    layer("daemon.closed_loop_rps", "1/s", "higher", "ops_per_s on daemon_mixed"),
    layer("loadgen.lateness_p95_us", "us", "lower", VALIDITY),
    layer("loadgen.sent", "count", "higher", VALIDITY),
    layer("loadgen.ok", "count", "higher", VALIDITY),
    layer("loadgen.failed", "count", "lower", VALIDITY),
    layer("trace.overhead_pct", "%", "lower", TRACE),
    layer("trace.build_attributed_share", "share", "higher", TRACE),
    layer("trace.query_attributed_share", "share", "higher", TRACE),
    layer("trace.spans", "count", "higher", TRACE),
];

/// How long one measured run lasts, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The benchmark's directory, relative to the repo root (`paths`).
pub const PATH: &str = "crates/bench/src/bin/benchmark";

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let manifest = format!("{PATH}/Cargo.toml");
    let command = ["cargo", "run", "--release", "--quiet", "--manifest-path", &manifest, "--"]
        .map(quoted)
        .join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{path}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        path = quoted(PATH),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(well_formed_name(m.name) && well_formed_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(well_formed_name(m.name) && well_formed_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(!m.moves.is_empty());
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `benchmark --emit-spec`");
        let doc = gem_obs::json::parse(on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(on_disk.len() <= 64 << 10);
    }
}
