//! `train_degree` and `train_adaptive`: the single-thread trainer on
//! Douban-Sim Beijing 1/10, fed fixed-size chunks of steps for the length
//! of the window. A block of chunks is the repetition; the reported step
//! rate and step latency are the median block's median (and p95) chunk.

use crate::inputs::{self, City};
use crate::trace::{Tracer, NONE};
use crate::{host::Host, probes, stats, Opts, Outcome};
use gem_core::{GemModel, GemTrainer, TrainConfig, TrainerMetrics};
use gem_ebsn::TrainingGraphs;
use gem_eval::{eval_event_rec, EvalConfig};
use gem_obs::MetricsRegistry;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Noise {
    /// `TrainConfig::gem_p`: degree-based noise, O(1) alias draws.
    Degree,
    /// `TrainConfig::gem_a`: the paper's adaptive sampler, lambda 200.
    Adaptive,
}

struct Sizes {
    /// Douban-Sim divisor (0 = the tiny fixture).
    scale: usize,
    /// Steps per `run` call. Chunk boundaries fix the seed stream, so
    /// accuracy at `acc_steps` repeats exactly for a seed.
    chunk: u64,
    /// Chunks per repetition of the end-to-end statistics.
    block: usize,
    /// Accuracy is read after exactly this many steps.
    acc_steps: u64,
    /// Acc@10 the model must reach by then (sanity, not a target).
    acc_floor: f64,
    setup_reps: usize,
    /// Steps of each same-seed twin in the determinism gate.
    twin_steps: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 0,
            chunk: 1_000,
            block: 32,
            acc_steps: 4_000,
            acc_floor: 0.0,
            setup_reps: 2,
            twin_steps: 1_000,
        }
    } else {
        Sizes {
            scale: 10,
            chunk: 2_500,
            block: 256,
            acc_steps: 4_000_000,
            acc_floor: 0.25,
            setup_reps: 5,
            twin_steps: 100_000,
        }
    }
}

fn config(noise: Noise, seed: u64) -> TrainConfig {
    match noise {
        Noise::Degree => TrainConfig::gem_p(seed),
        Noise::Adaptive => TrainConfig::gem_a(seed),
    }
}

/// The model after exactly `at` steps, caught between chunks (outside any
/// timing) as training passes that count.
struct Snapshot {
    at: u64,
    model: Option<GemModel>,
}

impl Snapshot {
    fn observe(&mut self, trainer: &GemTrainer<'_>) {
        if trainer.progress().steps == self.at {
            self.model = Some(trainer.model());
        }
    }

    /// Train on (untimed) to `at` if the window ended short of it, then
    /// score Acc@10 on the test split.
    fn accuracy(mut self, trainer: &GemTrainer<'_>, chunk: u64, city: &City) -> f64 {
        while self.model.is_none() {
            assert!(trainer.progress().steps < self.at, "acc_steps is a whole number of chunks");
            trainer.run(chunk, 1);
            self.observe(trainer);
        }
        let model = self.model.expect("loop ends with a snapshot");
        let cfg = EvalConfig { max_cases: 1000, ..EvalConfig::default() };
        eval_event_rec(&model, &city.dataset, &city.split, &city.gt, &cfg)
            .accuracy(10)
            .unwrap_or(0.0)
    }
}

/// Run chunks until `budget_s` of chunk time has accumulated; returns the
/// per-chunk wall times in seconds.
fn run_chunks(
    trainer: &GemTrainer<'_>,
    chunk: u64,
    budget_s: f64,
    snapshot: &mut Snapshot,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while spent < budget_s {
        let t = Instant::now();
        trainer.run(chunk, 1);
        let dt = t.elapsed().as_secs_f64();
        spent += dt;
        times.push(dt);
        snapshot.observe(trainer);
    }
    times
}

pub fn run(noise: Noise, opts: &Opts, host: &Host) -> Outcome {
    let s = sizes(opts.smoke);
    let city = inputs::city(opts.seed, s.scale);
    if opts.trace {
        traced(noise, opts, host, &s, &city)
    } else {
        end_to_end(noise, opts, &s, &city)
    }
}

fn end_to_end(noise: Noise, opts: &Opts, s: &Sizes, city: &City) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: what the program does between receiving a dataset and being
    // ready to take a step. Repeated; the median is reported.
    let mut setup = Vec::new();
    let mut graphs = None;
    for _ in 0..s.setup_reps {
        let t = Instant::now();
        let g = inputs::graphs(city);
        let trainer = GemTrainer::new(&g, config(noise, opts.seed)).expect("trainer set-up");
        setup.push(t.elapsed().as_secs_f64());
        drop(trainer);
        graphs = Some(g);
    }
    let graphs: TrainingGraphs = graphs.expect("at least one set-up repetition");
    out.set("setup_s", stats::median(&setup));

    // Gate: two trainers with the same seed produce bit-identical models.
    let twin = || inputs::train_model(&graphs, config(noise, opts.seed), s.twin_steps);
    out.gate(twin() == twin(), "same seed, same model after single-thread training");

    let trainer = GemTrainer::new(&graphs, config(noise, opts.seed)).expect("trainer set-up");
    // Two untimed chunks: first-touch page faults and the steep start of
    // the learning-rate schedule stay out of the window.
    trainer.run(2 * s.chunk, 1);
    let mut snapshot = Snapshot { at: s.acc_steps, model: None };
    let times = run_chunks(&trainer, s.chunk, opts.seconds, &mut snapshot);
    out.ops(times.len() as u64, 0);

    // The median block of chunks, for the rate and both latency figures.
    // The rate is a block's steps over its wall time, not the median chunk:
    // refresh sorts land in a few chunks and are most of GEM-A's cost.
    let (p50_s, p95_s) = stats::block_medians(&times, s.block).expect("the window ran chunks");
    let per_k_steps = 1e6 * 1_000.0 / s.chunk as f64;
    let rates: Vec<f64> = stats::full_blocks(&times, s.block)
        .map(|b| (b.len() as u64 * s.chunk) as f64 / b.iter().sum::<f64>())
        .collect();
    out.set("ops_per_s", stats::median(&rates));
    out.set("op_p50_us", p50_s * per_k_steps);
    out.set("op_p95_us", p95_s * per_k_steps);
    println!(
        "  {} steps in {} chunks of {} ({} blocks of {}); chunk time {}",
        trainer.progress().steps,
        times.len(),
        s.chunk,
        rates.len(),
        s.block,
        stats::Summary::of(&times.iter().map(|t| t * 1e3).collect::<Vec<_>>()).render("ms"),
    );

    let acc = snapshot.accuracy(&trainer, s.chunk, city);
    out.gate(
        acc >= s.acc_floor,
        &format!("Acc@10 {acc:.4} after exactly {} steps (floor {})", s.acc_steps, s.acc_floor),
    );
    out
}

fn traced(noise: Noise, opts: &Opts, host: &Host, s: &Sizes, city: &City) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true, Instant::now(), 0);

    let setup = tr.begin("trainer.setup", NONE, NONE);
    let span = tr.begin("graphs.build", setup, NONE);
    let graphs = inputs::graphs(city);
    tr.end(span);
    out.set("trainer.graphs_build_ms", tr.ms(span));
    let registry = MetricsRegistry::new();
    let span = tr.begin("trainer.new", setup, NONE);
    let trainer = GemTrainer::new(&graphs, config(noise, opts.seed)).expect("trainer set-up");
    tr.end(span);
    tr.end(setup);
    out.set("trainer.new_ms", tr.ms(span));
    // The registry counts adaptive refreshes; attached after the timed
    // construction so `trainer.new_ms` is the plain constructor.
    let trainer = trainer.with_metrics(TrainerMetrics::register(&registry));
    trainer.run(2 * s.chunk, 1);

    // A quarter of the window untraced, a quarter with the step profiler.
    let quarter = opts.seconds / 4.0;
    let mut snapshot = Snapshot { at: s.acc_steps, model: None };
    let plain = run_chunks(&trainer, s.chunk, quarter, &mut snapshot);
    let rate = |chunks: &[f64]| (chunks.len() as u64 * s.chunk) as f64 / chunks.iter().sum::<f64>();
    let plain_rate = rate(&plain);
    out.set("trainer.steps_per_s", plain_rate);

    let (mut sample_ns, mut fetch_ns, mut update_ns) = (0u64, 0u64, 0u64);
    let mut profiled = Vec::new();
    let mut spent = 0.0;
    while spent < quarter {
        let segment = tr.begin("train.segment", NONE, NONE);
        let t = Instant::now();
        let b = trainer.run_profiled(s.chunk);
        let dt = t.elapsed().as_secs_f64();
        tr.end(segment);
        spent += dt;
        profiled.push(dt);
        snapshot.observe(&trainer);
        // The profiler reports totals; lay them end to end inside the
        // segment so the trace shows where the step time went.
        let mut at = tr.start_of(segment);
        for (name, ns) in [
            ("trainer.sample", b.sample_ns),
            ("trainer.fetch", b.fetch_ns),
            ("trainer.update", b.update_ns),
        ] {
            tr.push(name, at, at + ns, segment, NONE);
            at += ns;
        }
        sample_ns += b.sample_ns;
        fetch_ns += b.fetch_ns;
        update_ns += b.update_ns;
    }
    out.ops((plain.len() + profiled.len()) as u64, 0);
    let total = (sample_ns + fetch_ns + update_ns).max(1) as f64;
    out.set("trainer.sample_share", sample_ns as f64 / total);
    out.set("trainer.fetch_share", fetch_ns as f64 / total);
    out.set("trainer.update_share", update_ns as f64 / total);
    let profiled_rate = rate(&profiled);
    out.set("trainer.profiled_steps_per_s", profiled_rate);
    out.set("trace.overhead_pct", (plain_rate / profiled_rate - 1.0) * 100.0);

    let snap = registry.snapshot();
    out.set("adaptive.refreshes", snap.counter("train.adaptive_refreshes") as f64);

    // Two Hogwild threads on a fresh trainer: a diagnostic, and only a
    // measurement when the host has the second core.
    if host.cores() >= 2 {
        let twin = GemTrainer::new(&graphs, config(noise, opts.seed)).expect("trainer set-up");
        twin.run(2 * s.chunk, 2);
        let steps = (plain_rate * quarter.min(0.5)) as u64 / s.chunk * s.chunk + s.chunk;
        let t = Instant::now();
        twin.run(steps, 2);
        out.set("trainer.steps_per_s_t2", steps as f64 / t.elapsed().as_secs_f64());
    } else {
        out.unverified.push("trainer.steps_per_s_t2");
    }

    probes::sampling(&mut out, &graphs, opts);
    probes::kernels(&mut out, config(noise, opts.seed).dim, opts);
    if noise == Noise::Adaptive {
        probes::adaptive(&mut out, &trainer, opts);
    }

    let acc = snapshot.accuracy(&trainer, s.chunk, city);
    out.set("trainer.acc_at_10", acc);
    out.gate(acc >= s.acc_floor, &format!("Acc@10 {acc:.4} after {} steps", s.acc_steps));
    out.spans = tr.into_spans();
    out
}
