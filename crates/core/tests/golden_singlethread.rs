//! Golden regression for the single-thread training stream.
//!
//! Which kernels run (explicit SIMD or the portable widened loops) must not
//! change *what* single-thread training computes, only how fast. Two locks
//! hold that in place:
//!
//! 1. the model hashes to a hardcoded FNV-1a value, so *any* change to the
//!    single-thread stream — kernels, sampling order, RNG plumbing — trips
//!    this test and must be a deliberate decision;
//! 2. a child process re-runs lock 1 with `GEM_NO_SIMD=1`, so one
//!    `cargo test` on an AVX2/NEON host pins the SIMD route *and* the
//!    portable route to the same hash.

use gem_core::{GemTrainer, TrainConfig};
use gem_ebsn::{ChronoSplit, GraphBuildConfig, SplitRatios, SynthConfig, TrainingGraphs};
use std::process::Command;

/// FNV-1a over the f32 bit patterns of every embedding table.
fn model_hash(m: &gem_core::GemModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for table in [&m.users, &m.events, &m.regions, &m.time_slots, &m.words] {
        for v in table.iter() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

fn tiny_graphs() -> TrainingGraphs {
    let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::tiny(99));
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[])
}

/// The config the golden hash is pinned against: GEM-P (degree noise keeps
/// the stream independent of the adaptive sampler's refresh cadence), small
/// dim to keep the test fast, LUT off so the exact-sigmoid stream is the
/// one frozen.
fn golden_config() -> TrainConfig {
    let mut cfg = TrainConfig::gem_p(4242);
    cfg.dim = 24;
    cfg.sigmoid_lut = false;
    cfg
}

const GOLDEN_STEPS: u64 = 20_000;

/// The pinned hash. If an intentional change to the single-thread stream
/// lands (new sampling order, different RNG split, …), rerun with the
/// printed value and update this constant *in the same commit*, saying why.
const GOLDEN_HASH: u64 = 0xefda_8764_c84c_43bb;

#[test]
fn single_thread_stream_matches_golden_hash() {
    // Read back by `portable_kernel_route_matches_golden_hash`.
    println!("BACKEND:{}", gem_core::simd::backend().name());
    let graphs = tiny_graphs();
    let trainer = GemTrainer::new(&graphs, golden_config()).unwrap();
    trainer.run(GOLDEN_STEPS, 1);
    let h = model_hash(&trainer.model());
    assert_eq!(
        h, GOLDEN_HASH,
        "single-thread training stream changed: hash {h:#018x} (expected {GOLDEN_HASH:#018x}). \
         If this is intentional, update GOLDEN_HASH and explain why in the commit."
    );
}

/// The portable widened kernels — what non-AVX2/non-NEON hosts and
/// `GEM_NO_SIMD` run — must land on the same golden hash as the SIMD route.
/// The backend is detected once per process, so the portable run is a child
/// (same re-exec pattern as `trace_noninterference.rs`).
#[test]
fn portable_kernel_route_matches_golden_hash() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["single_thread_stream_matches_golden_hash", "--exact", "--nocapture"])
        .env("GEM_NO_SIMD", "1")
        .output()
        .expect("spawn child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "golden hash diverged on the portable kernel route:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("BACKEND:scalar"), "child did not run the portable route:\n{stdout}");
}

/// Checkpointing must be invisible to the training stream: a
/// `run_checkpointed` call whose cadence covers the whole run is one
/// `run`-identical chunk plus a checkpoint write, so it must reproduce the
/// same golden hash — and the committed checkpoint must carry that exact
/// model.
#[test]
fn checkpointed_run_preserves_the_golden_hash() {
    let graphs = tiny_graphs();
    let dir = std::env::temp_dir().join(format!("gem-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = gem_core::Checkpointer::new(&dir).unwrap();

    let trainer = GemTrainer::new(&graphs, golden_config()).unwrap();
    let generation = trainer.run_checkpointed(GOLDEN_STEPS, 1, GOLDEN_STEPS, &sink).unwrap();
    assert_eq!(generation, 1);

    let h = model_hash(&trainer.model());
    assert_eq!(h, GOLDEN_HASH, "checkpointing perturbed the single-thread stream: hash {h:#018x}");

    // The generation on disk is the same model, bit for bit.
    let loaded = sink.load_latest().unwrap().expect("checkpoint committed");
    assert_eq!(model_hash(&loaded.checkpoint.model), GOLDEN_HASH);
    assert_eq!(loaded.checkpoint.steps, GOLDEN_STEPS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run interrupted at a chunk boundary and resumed into a *fresh*
/// trainer lands on the same model as the same trainer running both chunks
/// back to back: per-chunk RNG streams derive from `(seed, steps_done)`,
/// which the checkpoint restores. (Chunking itself reseeds per chunk, so
/// the baseline is chunked identically.)
#[test]
fn resume_from_checkpoint_matches_uninterrupted_run() {
    let graphs = tiny_graphs();
    let half = GOLDEN_STEPS / 2;
    let uninterrupted = GemTrainer::new(&graphs, golden_config()).unwrap();
    uninterrupted.run(half, 1);
    uninterrupted.run(GOLDEN_STEPS - half, 1);

    let dir = std::env::temp_dir().join(format!("gem-golden-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = gem_core::Checkpointer::new(&dir).unwrap();
    let first = GemTrainer::new(&graphs, golden_config()).unwrap();
    first.run_checkpointed(half, 1, half, &sink).unwrap();
    drop(first); // the "crash": the first trainer is gone

    let resumed = GemTrainer::new(&graphs, golden_config()).unwrap();
    let loaded = sink.resume_latest(&resumed).unwrap().expect("checkpoint present");
    assert_eq!(loaded.checkpoint.steps, half);
    resumed.run(GOLDEN_STEPS - half, 1);

    assert_eq!(
        model_hash(&resumed.model()),
        model_hash(&uninterrupted.model()),
        "resumed run diverged from the uninterrupted stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
