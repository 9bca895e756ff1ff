//! Crash drill at test scale: SIGKILL a checkpointing training run
//! mid-epoch (a real child process — no unwinding, no Drop, no flush),
//! then prove the newest valid generation restores into a fresh trainer
//! and training completes.
//!
//! The bench-scale version of this drill lives in `gem-bench`'s
//! `fault_drill` binary; this test keeps the guarantee wired into plain
//! `cargo test`.

use gem_core::{load_model, save_model_v3, Checkpointer, GemTrainer, TrainConfig};
use gem_ebsn::{ChronoSplit, GraphBuildConfig, SplitRatios, SynthConfig, TrainingGraphs};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Holds the checkpoint directory when set; its presence selects child mode.
const CHILD_ENV: &str = "GEM_CRASH_RESUME_CHILD_DIR";

/// Far more work than the driver lets the child finish.
const CHILD_STEPS: u64 = 50_000_000;
const CADENCE: u64 = 4_000;

fn tiny_graphs() -> TrainingGraphs {
    let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::tiny(99));
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[])
}

fn config() -> TrainConfig {
    let mut cfg = TrainConfig::gem_p(4242);
    cfg.dim = 16;
    cfg
}

/// Child mode: checkpoint every [`CADENCE`] steps and announce each
/// committed generation, until the driver kills us.
#[test]
fn child_train_until_killed() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return; // Only meaningful when spawned by the driver test below.
    };
    let graphs = tiny_graphs();
    let trainer = GemTrainer::new(&graphs, config()).unwrap();
    let sink = Checkpointer::new(&dir).unwrap();
    let mut out = std::io::stdout();
    let mut done = 0u64;
    while done < CHILD_STEPS {
        let generation = trainer.run_checkpointed(CADENCE, 2, CADENCE, &sink).unwrap();
        done += CADENCE;
        // Piped stdout is block-buffered: flush or the driver never sees
        // the marker and the kill never comes.
        writeln!(out, "GEN:{generation}").unwrap();
        out.flush().unwrap();
    }
}

#[test]
fn sigkill_mid_epoch_resumes_from_latest_valid_checkpoint() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("gem-crash-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args(["child_train_until_killed", "--exact", "--nocapture"])
        .env(CHILD_ENV, &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child test");

    // Let two generations commit, then pull the plug with no warning.
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut announced = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child stdout");
        // The libtest harness prints `test <name> ... ` with no newline, so
        // the first marker shares its line — match anywhere, not at start.
        if let Some(g) = line.split("GEN:").nth(1) {
            announced.push(g.trim().parse::<u64>().expect("parse GEN marker"));
        }
        if announced.len() >= 2 {
            break;
        }
    }
    child.kill().expect("SIGKILL child");
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "child was supposed to die mid-run: {status:?}");
    assert_eq!(announced, vec![1, 2], "unexpected generation sequence from child");

    // Recovery: the newest valid generation restores into a fresh trainer.
    let graphs = tiny_graphs();
    let trainer = GemTrainer::new(&graphs, config()).unwrap();
    let sink = Checkpointer::new(&dir).unwrap();
    let loaded = sink
        .resume_latest(&trainer)
        .expect("checkpoint dir readable after kill")
        .expect("no valid checkpoint survived the kill");
    assert!(loaded.generation >= 2, "recovery lost an announced generation");
    assert_eq!(loaded.checkpoint.steps, loaded.generation * CADENCE);
    assert!(loaded.skipped.len() <= 1, "more than the in-flight generation was torn");

    // Training continues and the result is a loadable model.
    trainer.run_checkpointed(CADENCE, 2, CADENCE, &sink).expect("resumed training chunk");
    let model_path = dir.join("recovered.model");
    save_model_v3(&trainer.model(), &model_path).expect("save recovered model");
    let reloaded = load_model(&model_path).expect("recovered model loads");
    assert_eq!(reloaded.users, trainer.model().users);
    let _ = std::fs::remove_dir_all(&dir);
}
