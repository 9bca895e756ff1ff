//! Armed fail-point suite: every fault the `gem_obs::faults` registry can
//! inject into the persist, checkpoint and training paths, verified
//! end-to-end in one dedicated process.
//!
//! The registry is process-global, so these tests live in their own
//! integration binary and serialize on a single mutex; each test holds an
//! RAII guard that disarms everything on exit (including panics), so one
//! failing assertion cannot leak an armed fault into the next test.

use gem_core::{
    load_model, save_model_v3, Checkpointer, GemTrainer, PersistError, TrainConfig, TrainError,
};
use gem_ebsn::{ChronoSplit, GraphBuildConfig, SplitRatios, SynthConfig, TrainingGraphs};
use gem_obs::faults;
use gem_obs::FaultMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize the test + disarm every fault when the test ends, pass or
/// fail.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn acquire() -> Self {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        faults::disarm_all();
        Self(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("gem-faultinj-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn tiny_graphs() -> TrainingGraphs {
    let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::tiny(99));
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[])
}

fn small_config() -> TrainConfig {
    let mut cfg = TrainConfig::gem_p(4242);
    cfg.dim = 8;
    cfg
}

fn trained_model(graphs: &TrainingGraphs) -> gem_core::GemModel {
    let trainer = GemTrainer::new(graphs, small_config()).unwrap();
    trainer.run(2_000, 1);
    trainer.model()
}

// --- persist-path faults ---

#[test]
fn fsync_failure_surfaces_as_io_error_and_commits_nothing() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let model = trained_model(&graphs);
    let path = scratch("fsync").with_extension("model");

    faults::arm("persist.fsync", FaultMode::Times(1));
    let err = save_model_v3(&model, &path).unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err:?}");
    assert!(faults::hits("persist.fsync") > 0);
    assert!(!path.exists(), "failed save must not commit a file");
    // No temp litter either.
    let dir = path.parent().unwrap();
    let stem = path.file_name().unwrap().to_str().unwrap().to_string();
    let leftovers = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name().to_str().is_some_and(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
        })
        .count();
    assert_eq!(leftovers, 0, "failed save leaked temp files");
}

#[test]
fn rename_failure_leaves_the_previous_snapshot_intact() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let model = trained_model(&graphs);
    let path = scratch("rename").with_extension("model");
    save_model_v3(&model, &path).unwrap();

    let trainer = GemTrainer::new(&graphs, small_config()).unwrap();
    trainer.run(4_000, 1);
    let newer = trainer.model();
    faults::arm("persist.rename", FaultMode::Times(1));
    let err = save_model_v3(&newer, &path).unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err:?}");

    // The previous snapshot is byte-for-byte still there.
    let survived = load_model(&path).unwrap();
    assert_eq!(survived.users, model.users);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn short_write_commits_a_torn_file_that_load_rejects() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let model = trained_model(&graphs);
    let path = scratch("shortwrite").with_extension("model");

    // The nastiest persist fault: the write "succeeds" (rename commits),
    // but the bytes on disk are truncated — a torn page / lost tail.
    faults::arm("persist.short_write", FaultMode::Times(1));
    save_model_v3(&model, &path).unwrap();
    assert!(path.exists(), "short write still commits a (torn) file");
    let err = load_model(&path).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

// --- checkpoint-path faults ---

#[test]
fn manifest_commit_failure_keeps_the_previous_generation_live() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let dir = scratch("manifest");
    let sink = Checkpointer::new(&dir).unwrap();
    let trainer = GemTrainer::new(&graphs, small_config()).unwrap();
    trainer.run(1_000, 1);
    let g1 = sink.save(&trainer.checkpoint()).unwrap();

    trainer.run(1_000, 1);
    faults::arm("checkpoint.manifest_commit", FaultMode::Times(1));
    let err = sink.save(&trainer.checkpoint()).unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err:?}");

    // The unpublished generation file is a harmless orphan: recovery still
    // serves the last *published* generation.
    let loaded = sink.load_latest().unwrap().expect("gen 1 still live");
    assert_eq!(loaded.generation, g1);
    assert_eq!(loaded.checkpoint.steps, 1_000);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (d): a fail-point-truncated checkpoint generation is detected
/// (outer CRC) and recovery falls back to the previous generation.
#[test]
fn torn_checkpoint_generation_is_skipped_for_the_previous_one() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let dir = scratch("torn-gen");
    let sink = Checkpointer::new(&dir).unwrap();
    let trainer = GemTrainer::new(&graphs, small_config()).unwrap();
    trainer.run(1_000, 1);
    let g1 = sink.save(&trainer.checkpoint()).unwrap();

    trainer.run(1_000, 1);
    faults::arm("persist.short_write", FaultMode::Times(1));
    let g2 = sink.save(&trainer.checkpoint()).unwrap(); // commits torn
    assert_eq!(g2, g1 + 1);

    let loaded = sink.load_latest().unwrap().expect("gen 1 behind the torn one");
    assert_eq!(loaded.generation, g1, "recovery picked the torn generation");
    assert_eq!(loaded.skipped, vec![g2]);
    assert_eq!(loaded.checkpoint.steps, 1_000);
    let _ = std::fs::remove_dir_all(&dir);
}

// --- training-path faults ---

#[test]
fn worker_panic_is_contained_and_training_resumes_from_checkpoint() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let dir = scratch("worker-panic");
    let sink = Checkpointer::new(&dir).unwrap();
    let trainer = GemTrainer::new(&graphs, small_config()).unwrap();
    trainer.run(5_000, 1);
    sink.save(&trainer.checkpoint()).unwrap();
    let before = trainer.model();

    faults::arm("train.worker_panic", FaultMode::Times(1));
    let err = trainer.try_run(20_000, 2).unwrap_err();
    let TrainError::WorkerPanicked { worker, message } = err else {
        panic!("expected WorkerPanicked, got {err:?}");
    };
    assert!(worker < 2, "worker index out of range: {worker}");
    assert!(message.contains("injected fault"), "panic message lost: {message}");

    // The trainer is poisoned until a checkpoint is restored.
    assert!(matches!(trainer.try_run(100, 1), Err(TrainError::Poisoned)));
    let loaded = sink.resume_latest(&trainer).unwrap().expect("checkpoint present");
    assert_eq!(loaded.checkpoint.steps, 5_000);
    let restored = trainer.model();
    assert_eq!(restored.users, before.users, "restore did not rewind the matrices");
    trainer.try_run(1_000, 2).expect("training resumes after restore");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_profiled` is the chunk runner of every traced single-thread
/// journaled run, so it must obey the same poison contract as `run`: a
/// panic inside it poisons the trainer without advancing the step counter,
/// and a poisoned trainer refuses to profile until restored.
#[test]
fn run_profiled_obeys_the_poison_contract() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let trainer = GemTrainer::new(&graphs, small_config()).unwrap();
    trainer.run(1_000, 1);
    let clean = trainer.checkpoint();

    let panic_text = |steps: u64| {
        let unwound = catch_unwind(AssertUnwindSafe(|| trainer.run_profiled(steps)));
        let payload = unwound.expect_err("run_profiled must panic");
        payload.downcast_ref::<String>().cloned().expect("formatted panic message")
    };
    faults::arm("train.worker_panic", FaultMode::Times(1));
    // Past the first 4096-step tally flush, where the fail point is checked.
    let message = panic_text(10_000);
    assert!(message.contains("injected fault"), "panic message lost: {message}");
    assert_eq!(trainer.progress().steps, 1_000, "a failed chunk must not advance the counter");
    assert!(matches!(trainer.try_run(100, 1), Err(TrainError::Poisoned)));

    // Poisoned: refuses with the same message as `run`, still no progress.
    let message = panic_text(100);
    assert_eq!(message, format!("training run failed: {}", TrainError::Poisoned));
    assert_eq!(trainer.progress().steps, 1_000);

    trainer.resume_from(&clean).unwrap();
    assert_eq!(trainer.run_profiled(2_000).steps, 2_000);
    assert_eq!(trainer.progress().steps, 3_000);
}

#[test]
fn adaptive_refresh_panic_is_contained() {
    let _g = FaultGuard::acquire();
    let graphs = tiny_graphs();
    let mut cfg = TrainConfig::gem_a(4242);
    cfg.dim = 8;
    let trainer = GemTrainer::new(&graphs, cfg).unwrap();

    faults::arm("train.adaptive_refresh", FaultMode::Times(1));
    // Enough steps that some worker crosses an adaptive refresh interval.
    let err = trainer.try_run(60_000, 2).unwrap_err();
    assert!(matches!(err, TrainError::WorkerPanicked { .. }), "{err:?}");
    assert!(faults::hits("train.adaptive_refresh") > 0);

    // The poisoned refresh lock must not wedge or panic later runs once
    // the trainer is restored from a clean checkpoint.
    let dir = scratch("refresh-panic");
    let sink = Checkpointer::new(&dir).unwrap();
    faults::disarm_all();
    let fresh = GemTrainer::new(&graphs, {
        let mut c = TrainConfig::gem_a(4242);
        c.dim = 8;
        c
    })
    .unwrap();
    sink.save(&fresh.checkpoint()).unwrap();
    sink.resume_latest(&trainer).unwrap().expect("checkpoint present");
    trainer.try_run(5_000, 1).expect("training resumes after refresh panic");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- journal faults ---

#[test]
fn journal_write_faults_are_swallowed_and_counted() {
    let _g = FaultGuard::acquire();
    let path = scratch("journal").with_extension("jsonl");
    let mut journal = gem_obs::Journal::create(&path).unwrap();

    faults::arm("journal.write", FaultMode::Times(2));
    for i in 0..4u64 {
        journal.append(&gem_obs::JournalRecord::new().u64("i", i));
    }
    assert_eq!(journal.write_errors(), 2, "exactly the armed failures count");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 2, "non-faulted appends still landed");
    let _ = std::fs::remove_file(&path);
}

/// The env-grammar entry point (`GEM_FAILPOINTS`) arms the same registry.
#[test]
fn env_spec_grammar_arms_and_counts() {
    let _g = FaultGuard::acquire();
    faults::arm_from_spec("persist.fsync=1;unparseable==junk;journal.write=always");
    let graphs = tiny_graphs();
    let model = trained_model(&graphs);
    let path = scratch("envspec").with_extension("model");
    assert!(save_model_v3(&model, &path).is_err(), "spec-armed fsync fault did not fire");
    faults::disarm_all();
    save_model_v3(&model, &path).expect("Times(1) fault must not fire twice");
    let _ = std::fs::remove_file(&path);
}
