//! Layer probes: small timed loops around one public function of one layer,
//! run only in the traced pass. They answer "what does one call of this
//! layer cost here", so that an end-to-end change can be attributed.
//!
//! Each probe times `reps` repetitions of `iters` calls and reports the
//! median repetition, per call.

use crate::{stats, Opts, Outcome};
use gem_core::math::{dot, dot_batch};
use gem_core::{AdaptiveState, AtomicMatrix, GemModel, GemTrainer, ModelReader, SigmoidLut};
use gem_ebsn::{EventId, NodeKind, TrainingGraphs, UserId};
use gem_query::{EngineMetrics, IncrementalEngine, ServeScratch};
use gem_sampling::{rng_from_seed, AliasTable, CsrAliasSet, DegreeNoise, TruncatedGeometric};
use gem_server::http::{read_request, write_response, Response};
use gem_server::{ChurnWal, GenerationCell, ShardSet, WalRecord};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

const REPS: usize = 7;

/// Median over `REPS` repetitions of the mean nanoseconds per call. What
/// the call returns is kept from the optimiser.
fn ns_per_call<T>(iters: usize, mut call: impl FnMut(usize) -> T) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                black_box(call(i));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&reps)
}

fn iters(opts: &Opts, full: usize) -> usize {
    if opts.smoke {
        (full / 100).max(10)
    } else {
        full
    }
}

/// `gem-sampling`: one draw from each kind of table the trainer uses, built
/// over the user–event graph's real weights.
pub fn sampling(out: &mut Outcome, graphs: &TrainingGraphs, opts: &Opts) {
    let g = &graphs.user_event;
    let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
    let n = iters(opts, 400_000);
    let mut rng = rng_from_seed(opts.seed);

    let alias = AliasTable::new(&weights).expect("edge weights are positive");
    out.set("sampling.alias_draw_ns", ns_per_call(n, |_| alias.sample(&mut rng)));

    let csr = CsrAliasSet::build([weights.as_slice(), g.right_degrees()]).expect("valid segments");
    let view = csr.segment(0).expect("edge segment has mass");
    out.set("sampling.csr_draw_ns", ns_per_call(n, |_| view.sample(&mut rng)));

    let noise = DegreeNoise::from_degrees(g.right_degrees()).expect("events have degrees");
    out.set("sampling.noise_draw_ns", ns_per_call(n, |_| noise.sample(&mut rng)));

    let geometric = TruncatedGeometric::new(g.right_count(), 200.0);
    out.set("sampling.geometric_draw_ns", ns_per_call(n, |_| geometric.sample(&mut rng)));
}

/// A `rows x dim` block of deterministic non-trivial floats.
fn block(rows: usize, dim: usize) -> Vec<f32> {
    (0..rows * dim).map(|i| ((i * 2_654_435_761) % 1000) as f32 / 1000.0).collect()
}

/// `gem-core` row kernels at the trainer's dimension.
pub fn kernels(out: &mut Outcome, dim: usize, opts: &Opts) {
    const ROWS: usize = 4096;
    let n = iters(opts, 400_000);
    let values = block(ROWS, dim);
    let matrix = AtomicMatrix::zeros(ROWS, dim);
    for r in 0..ROWS {
        matrix.write_row(r, &values[r * dim..(r + 1) * dim]);
    }
    let other = block(1, dim);
    let mut buf = vec![0.0f32; dim];
    out.set(
        "matrix.read_row_dot_ns",
        ns_per_call(n, |i| matrix.read_row_dot(i % ROWS, &other, &mut buf)),
    );
    out.set(
        "matrix.add_scaled_ns",
        ns_per_call(n, |i| matrix.add_scaled(i % ROWS, black_box(&other), 1e-9)),
    );
    out.set("math.dot_ns_d60", dot_ns(dim, n));
    let lut = SigmoidLut::new();
    out.set(
        "math.sigmoid_lut_ns",
        ns_per_call(n, |i| lut.value(black_box((i % 64) as f32 * 0.25 - 8.0))),
    );
    out.set("simd.lanes_f32", simd_lanes());
}

fn dot_ns(dim: usize, n: usize) -> f64 {
    const ROWS: usize = 4096;
    let values = block(ROWS, dim);
    let q = block(1, dim);
    ns_per_call(n, |i| {
        let r = i % ROWS;
        dot(black_box(&q), &values[r * dim..(r + 1) * dim])
    })
}

fn dot_batch_ns_per_row(dim: usize, n: usize) -> f64 {
    const ROWS: usize = 4096;
    let values = block(ROWS, dim);
    let q = block(1, dim);
    let mut scores = vec![0.0f32; ROWS];
    let sweeps = (n / ROWS).max(2);
    ns_per_call(sweeps, |_| {
        dot_batch(black_box(&q), &values, &mut scores);
        black_box(&scores);
    }) / ROWS as f64
}

fn simd_lanes() -> f64 {
    match gem_core::simd::backend().name() {
        "avx2" => 8.0,
        "neon" => 4.0,
        _ => 1.0,
    }
}

/// The dot kernels at the two transformed-space widths the serve workloads
/// use (`2K+1` for K = 60 and K = 16).
pub fn query_kernels(out: &mut Outcome, opts: &Opts) {
    let n = iters(opts, 400_000);
    out.set("math.dot_ns_d121", dot_ns(121, n));
    out.set("math.dot_batch_ns_per_row_d121", dot_batch_ns_per_row(121, n));
    out.set("math.dot_batch_ns_per_row_d33", dot_batch_ns_per_row(33, n));
    out.set("simd.lanes_f32", simd_lanes());
}

/// The adaptive sampler over the trainer's live event matrix: one draw, and
/// one full refresh (the per-dimension sorts).
pub fn adaptive(out: &mut Outcome, trainer: &GemTrainer<'_>, opts: &Opts) {
    let events = trainer.embeddings().of(NodeKind::Event);
    let state = AdaptiveState::new(events, trainer.config().lambda);
    let model = trainer.model();
    let mut rng = rng_from_seed(opts.seed);
    let users = model.num_users();
    out.set(
        "adaptive.sample_ns",
        ns_per_call(iters(opts, 200_000), |i| {
            let context = model.user_vec(UserId((i % users) as u32));
            state.sample(context, &mut rng)
        }),
    );
    out.set("adaptive.refresh_ms", ns_per_call(3, |_| state.refresh_now(events)) / 1e6);
}

/// `gem-server` layers that need no socket: request parsing and response
/// writing on in-memory buffers, admission, the generation cell.
pub fn server_layers(out: &mut Outcome, opts: &Opts) {
    let n = iters(opts, 200_000);
    let raw = b"GET /recommend?user=1234&n=10 HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec();
    out.set(
        "http.parse_ns",
        ns_per_call(n, |_| {
            let request = read_request(&mut Cursor::new(black_box(raw.as_slice())));
            request.expect("well-formed request")
        }),
    );
    let response = Response::json(200, "x".repeat(700));
    let mut wire = Vec::with_capacity(1024);
    out.set(
        "http.write_ns",
        ns_per_call(n, |_| {
            wire.clear();
            write_response(&mut wire, black_box(&response), false).expect("write to a Vec");
        }),
    );
    let shards = ShardSet::new(8, 64);
    out.set("shard.admit_ns", ns_per_call(n, |i| shards.try_admit(UserId(i as u32))));
    let cell = GenerationCell::new(0u64);
    out.set("swap.load_ns", ns_per_call(n, |_| cell.load_pinned()));
}

/// The churn WAL in `dir`: fsynced appends, a compaction, and a replay of
/// the log the appends built.
pub fn wal(out: &mut Outcome, dir: &Path, opts: &Opts) {
    let path = dir.join("probe.wal");
    let records = iters(opts, 300).max(40);
    let (mut log, _) = ChurnWal::open(&path).expect("open probe WAL");
    let appends: Vec<f64> = (0..records)
        .map(|i| {
            let record = if i % 2 == 0 {
                WalRecord::Add(EventId(i as u32))
            } else {
                WalRecord::Retire(EventId(i as u32 - 1))
            };
            let t = Instant::now();
            log.append(&record).expect("append to probe WAL");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let summary = stats::Summary::of(&appends);
    println!("  wal.append {}", summary.render("us"));
    out.set("wal.append_us_p50", summary.p50);
    out.set("wal.append_us_p99", summary.p99);
    drop(log);

    let t = Instant::now();
    let (mut log, replay) = ChurnWal::open(&path).expect("reopen probe WAL");
    out.set("wal.replay_ms", t.elapsed().as_secs_f64() * 1e3);
    out.gate(replay.records.len() == records, &format!("WAL replays all {records} records"));

    let live: Vec<EventId> = (0..256).map(EventId).collect();
    let t = Instant::now();
    log.compact(1, &live).expect("compact probe WAL");
    out.set("wal.compact_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// `IncrementalEngine` on its own: absorb churn, publish, query stale,
/// rebuild. Half a default staleness budget (128 ops) is absorbed before
/// the stale queries, which is where a live daemon spends its time.
pub fn incremental(
    out: &mut Outcome,
    model: &GemModel,
    partners: &[UserId],
    live: &[EventId],
    pool: &[u32],
    opts: &Opts,
) {
    let mut engine =
        IncrementalEngine::build(model.clone(), partners, live, 8, EngineMetrics::disabled());
    let adds = pool.len().min(96);
    let timed = |engine: &mut IncrementalEngine, ids: &[u32], add: bool| -> f64 {
        let us: Vec<f64> = ids
            .iter()
            .map(|&x| {
                let t = Instant::now();
                let applied = if add {
                    engine.add_event(EventId(x))
                } else {
                    engine.retire_event(EventId(x))
                };
                let dt = t.elapsed().as_secs_f64() * 1e6;
                assert_eq!(applied, Ok(true), "probe churn applies cleanly");
                dt
            })
            .collect();
        stats::median(&us)
    };
    out.set("incremental.add_us", timed(&mut engine, &pool[..adds], true));
    out.set("incremental.retire_us", timed(&mut engine, &pool[..adds / 3], false));
    out.set("incremental.snapshot_us", ns_per_call(iters(opts, 200), |_| engine.snapshot()) / 1e3);
    let snapshot = engine.snapshot();
    let mut scratch = ServeScratch::new();
    let queries = iters(opts, 2_000);
    let us: Vec<f64> = (0..queries)
        .map(|i| {
            let user = partners[(i * 7919) % partners.len()];
            let t = Instant::now();
            black_box(snapshot.try_top_n(user, 10, &mut scratch).expect("known user"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("incremental.stale_query_us_p50", stats::median(&us));
    let t = Instant::now();
    engine.rebuild();
    out.set("incremental.rebuild_ms", t.elapsed().as_secs_f64() * 1e3);
    out.gate(engine.staleness() == 0, "a rebuild folds the overlays away");
}

/// Model hand-off through `gem-core`'s persist v3: save, full load, and the
/// lazy reader's open (header + chunk skeleton only).
pub fn persist(out: &mut Outcome, model: &GemModel, dir: &Path) {
    let path = dir.join("model.gem");
    let t = Instant::now();
    gem_core::save_model_v3(model, &path).expect("save model");
    out.set("persist.save_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let loaded = gem_core::load_model(&path).expect("load model");
    out.set("persist.load_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let reader = ModelReader::open(&path).expect("open model reader");
    out.set("persist.reader_open_ms", t.elapsed().as_secs_f64() * 1e3);
    out.gate(
        loaded == *model && reader.num_users() == model.num_users(),
        "a saved model loads back bit for bit",
    );
}
