//! Crash-recovery drill: SIGKILL a checkpointing training run mid-epoch,
//! then resume from the newest valid checkpoint and train to completion.
//!
//! Usage: `cargo run --release -p gem-bench --bin fault_drill \
//!         [--scale 160 --steps 60000 --cadence 5000 --threads 2 --seed 7]`
//!
//! The drill has five legs, all of them asserted (the fifth runs only
//! under `--smoke`):
//!
//! 1. **Kill** — a child process (`--drill-child`, same binary) trains with
//!    a checkpoint generation per cadence chunk and a JSONL journal line
//!    per generation. The driver SIGKILLs it after the second generation —
//!    mid-epoch, with no chance to flush or unwind.
//! 2. **Recover** — the driver loads the newest valid generation from the
//!    killed run's checkpoint directory, restores it into a fresh trainer
//!    ([`GemTrainer::resume_from`]) and checks the surviving journal parses
//!    line-by-line (at most the final line may be torn).
//! 3. **Torn generation** — with the `persist.short_write` fail point
//!    armed, one more checkpoint commits *torn*; the drill asserts
//!    recovery skips it for the previous valid generation.
//! 4. **Finish** — the resumed trainer runs the remaining steps under the
//!    same cadence; the final model round-trips through
//!    [`save_model_v3`]/[`load_model`].
//! 5. **Checkpoint tax** — with every fail point disarmed, single-thread
//!    [`GemTrainer::run_checkpointed`] (one generation per run) must keep
//!    98% of plain [`GemTrainer::run`] steps/sec: best of 3 runs of
//!    3 M steps each, alternating between the two, so the one checkpoint
//!    write amortizes the way a production cadence would, re-measured up
//!    to twice before an over-budget reading is believed.
//!
//! `--smoke` runs the same drill at CI scale plus stage 5 and skips the
//! JSON report; the full mode writes `BENCH_fault_drill.json` with the
//! measured resume overhead (checkpoint restore and save wall-clock). Both
//! modes leave the killed run's journal at `journal_fault_drill.jsonl` for
//! artifact upload.

use gem_bench::{remeasured, Args, City, ExperimentEnv, Variant};
use gem_core::{load_model, save_model_v3, Checkpointer, GemTrainer, TrainConfig};
use gem_ebsn::TrainingGraphs;
use gem_obs::{faults, FaultMode, Journal, JournalRecord};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const JOURNAL_PATH: &str = "journal_fault_drill.jsonl";

/// Steps per checkpoint-tax reading: enough that the one checkpoint write
/// (a few ms of encode + fsync + rename) amortizes.
const TAX_STEPS: u64 = 3_000_000;

/// Best-of-3 single-thread `(plain, checkpointed)` steps/sec: one fresh
/// trainer runs [`GemTrainer::run`], a twin [`GemTrainer::run_checkpointed`]
/// into `sink` with one generation per run (cadence = steps). Each is
/// warmed with one chunk, and the trials alternate between the two, so a
/// drift in host speed lands on both.
fn plain_vs_checkpointed(
    graphs: &TrainingGraphs,
    cfg: &TrainConfig,
    sink: &Checkpointer,
) -> (f64, f64) {
    let new_trainer = || GemTrainer::new(graphs, cfg.clone()).expect("valid trainer config");
    let (plain, checkpointed) = (new_trainer(), new_trainer());
    plain.run(TAX_STEPS / 4, 1);
    checkpointed.run(TAX_STEPS / 4, 1);
    let rate = |start: Instant| TAX_STEPS as f64 / start.elapsed().as_secs_f64();
    let (mut best_plain, mut best_checkpointed) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let start = Instant::now();
        plain.run(TAX_STEPS, 1);
        best_plain = best_plain.max(rate(start));
        let start = Instant::now();
        checkpointed.run_checkpointed(TAX_STEPS, 1, TAX_STEPS, sink).expect("checkpointed run");
        best_checkpointed = best_checkpointed.max(rate(start));
    }
    (best_plain, best_checkpointed)
}

/// The victim: train `steps` with one checkpoint generation per `cadence`
/// chunk, announcing every committed generation on stdout (`GEN:<n>`) so
/// the driver knows when it is safe to pull the trigger.
fn run_drill_child(args: &Args) {
    let scale = args.get("scale", 160usize);
    let steps = args.get("steps", 60_000u64);
    let cadence = args.get("cadence", 5_000u64);
    let threads = args.get("threads", 2usize);
    let seed = args.get("seed", 7u64);
    let dir: String = args.get("dir", String::new());
    assert!(!dir.is_empty(), "--drill-child needs --dir");

    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    let cfg = Variant::GemP.config(seed);
    let trainer = GemTrainer::new(&env.graphs, cfg).expect("valid trainer config");
    let sink = Checkpointer::new(&dir).expect("create checkpoint dir");
    let resumed = sink.resume_latest(&trainer).expect("resume from checkpoint dir");
    let done = resumed.map(|l| l.checkpoint.steps).unwrap_or(0);
    let mut journal = Journal::create(JOURNAL_PATH).expect("create drill journal");

    let mut out = std::io::stdout();
    let mut remaining = steps.saturating_sub(done);
    while remaining > 0 {
        let chunk = remaining.min(cadence.max(1));
        let generation =
            trainer.run_checkpointed(chunk, threads, chunk, &sink).expect("checkpointed chunk");
        journal.append(
            &JournalRecord::new()
                .str("journal", "fault_drill")
                .u64("generation", generation)
                .u64("steps_done", steps - remaining + chunk),
        );
        assert_eq!(journal.write_errors(), 0, "drill journal hit write errors");
        // Piped stdout is block-buffered: flush so the driver sees the
        // marker before, not after, it decides to kill us.
        writeln!(out, "GEN:{generation}").expect("write GEN marker");
        out.flush().expect("flush GEN marker");
        remaining -= chunk;
    }
    writeln!(out, "DONE").expect("write DONE marker");
    out.flush().expect("flush DONE marker");
}

/// Spawn the drill child against `dir` and SIGKILL it right after its
/// second committed generation. Returns the generations it announced.
fn spawn_and_kill(
    dir: &Path,
    scale: usize,
    steps: u64,
    cadence: u64,
    threads: usize,
    seed: u64,
) -> Vec<u64> {
    let exe = std::env::current_exe().expect("locate own binary");
    let mut child = Command::new(exe)
        .args([
            "--drill-child",
            "--scale",
            &scale.to_string(),
            "--steps",
            &steps.to_string(),
            "--cadence",
            &cadence.to_string(),
            "--threads",
            &threads.to_string(),
            "--seed",
            &seed.to_string(),
            "--dir",
            dir.to_str().expect("utf-8 checkpoint dir"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn drill child");

    let stdout = child.stdout.take().expect("child stdout piped");
    let mut generations = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child stdout");
        if let Some(g) = line.strip_prefix("GEN:") {
            generations.push(g.trim().parse::<u64>().expect("parse GEN marker"));
        }
        if generations.len() >= 2 || line.trim() == "DONE" {
            break;
        }
    }
    child.kill().expect("SIGKILL drill child");
    let status = child.wait().expect("reap drill child");
    assert!(!status.success(), "child survived the kill: {status:?}");
    assert!(
        generations.len() >= 2,
        "child finished before committing two generations — raise --steps or lower --cadence"
    );
    generations
}

/// Every complete line of the killed run's journal must parse as JSON; the
/// final line is allowed to be torn (the kill can land mid-write). Returns
/// the number of intact lines.
fn validate_journal(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("read drill journal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "killed run left an empty journal");
    let mut intact = 0;
    for (i, line) in lines.iter().enumerate() {
        match gem_obs::json::parse(line) {
            Ok(_) => intact += 1,
            Err(e) => {
                assert_eq!(
                    i,
                    lines.len() - 1,
                    "non-final journal line {i} is corrupt ({e:?}): {line}"
                );
            }
        }
    }
    intact
}

fn main() {
    let args = Args::from_env();
    if args.flag("drill-child") {
        run_drill_child(&args);
        return;
    }
    let smoke = args.flag("smoke");
    let scale = args.get("scale", if smoke { 160 } else { 80usize });
    let steps = args.get("steps", if smoke { 60_000 } else { 200_000u64 });
    let cadence = args.get("cadence", if smoke { 5_000 } else { 20_000u64 });
    let threads = args.get("threads", 2usize);
    let seed = args.get("seed", 7u64);
    let mode = if smoke { " --smoke" } else { "" };
    println!("fault_drill{mode} (Beijing 1/{scale}, {steps} steps, checkpoint every {cadence})");

    let dir = std::env::temp_dir().join(format!("gem-fault-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("[1/5] kill: SIGKILL the child after its second checkpoint generation");
    let announced = spawn_and_kill(&dir, scale, steps, cadence, threads, seed);
    let killed_at = *announced.last().expect("at least one generation");
    println!("  child announced generations {announced:?}, killed after gen {killed_at}");

    println!("[2/5] recover: newest valid generation + surviving journal");
    let env = ExperimentEnv::build(City::Beijing, scale, seed);
    let cfg = Variant::GemP.config(seed);
    let trainer = GemTrainer::new(&env.graphs, cfg.clone()).expect("valid trainer config");
    let sink = Checkpointer::new(&dir).expect("reopen checkpoint dir");

    let t_restore = Instant::now();
    let loaded = sink
        .load_latest()
        .expect("read checkpoint dir")
        .expect("no valid checkpoint survived the kill");
    trainer.resume_from(&loaded.checkpoint).expect("restore checkpoint into trainer");
    let restore_ms = t_restore.elapsed().as_secs_f64() * 1e3;
    assert!(loaded.generation >= killed_at, "recovery lost an announced generation");
    assert!(loaded.checkpoint.steps < steps, "child was killed yet finished all steps");
    let journal_lines = validate_journal(Path::new(JOURNAL_PATH));
    println!(
        "  restored gen {} ({} steps) in {restore_ms:.1} ms; journal: {journal_lines} intact \
         lines -> {JOURNAL_PATH}",
        loaded.generation, loaded.checkpoint.steps
    );

    println!("[3/5] torn generation: persist.short_write armed for one commit");
    faults::arm("persist.short_write", FaultMode::Times(1));
    let torn = sink.save(&trainer.checkpoint()).expect("commit (torn) checkpoint");
    faults::disarm_all();
    assert!(faults::hits("persist.short_write") >= 1, "armed fail point never fired");
    let recovered = sink
        .load_latest()
        .expect("read checkpoint dir after tear")
        .expect("valid generation behind the torn one");
    assert_eq!(recovered.skipped, vec![torn], "torn generation was not skipped");
    assert_eq!(recovered.generation, loaded.generation, "fell back to the wrong generation");
    println!("  gen {torn} committed torn, recovery skipped it for gen {}", recovered.generation);

    println!("[4/5] finish: resume and train the remaining steps");
    let remaining = steps - loaded.checkpoint.steps;
    let t_save = Instant::now();
    let final_gen =
        trainer.run_checkpointed(remaining, threads, cadence, &sink).expect("resumed run");
    let finish_s = t_save.elapsed().as_secs_f64();
    let t_one_save = Instant::now();
    sink.save(&trainer.checkpoint()).expect("final checkpoint");
    let save_ms = t_one_save.elapsed().as_secs_f64() * 1e3;

    let model_path = dir.join("final.model");
    let model = trainer.model();
    save_model_v3(&model, &model_path).expect("save final model");
    let reloaded = load_model(&model_path).expect("final model round-trips");
    assert_eq!(reloaded.dim, model.dim, "model dimension changed across persist");
    assert_eq!(reloaded.users, model.users, "user matrix changed across persist");
    println!(
        "  resumed {remaining} steps in {finish_s:.1}s through gen {final_gen}; one checkpoint \
         save costs {save_ms:.1} ms; final model round-trips ({} users, dim {})",
        model.users.len() / model.dim.max(1),
        model.dim
    );

    // Stage 5 is a gate with no other consumer, so only `--smoke` pays
    // its 3 M-step readings.
    let tax = smoke.then(|| {
        println!("[5/5] checkpoint tax: fail points disarmed, {TAX_STEPS} steps per reading");
        let tax_sink = Checkpointer::new(dir.join("tax")).expect("create tax checkpoint dir");
        let (plain_sps, ckpt_sps) =
            remeasured(0.98, || plain_vs_checkpointed(&env.graphs, &cfg, &tax_sink));
        let tax_pct = (1.0 - ckpt_sps / plain_sps) * 100.0;
        println!(
            "  plain {plain_sps:.0} steps/sec, checkpointed {ckpt_sps:.0} steps/sec \
             ({tax_pct:+.2}% overhead)"
        );
        let tax_gen = tax_sink.load_latest().expect("read tax checkpoints back");
        assert!(tax_gen.is_some(), "checkpointed runs left no loadable generation");
        assert!(
            tax_pct <= 2.0,
            "checkpoint/fail-point overhead {tax_pct:.2}% exceeds the 2% budget \
             (plain {plain_sps:.0} steps/sec vs checkpointed {ckpt_sps:.0} steps/sec)"
        );
        format!(", checkpoint tax {tax_pct:+.2}%")
    });

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"fault_drill\",\n",
                "  \"city\": \"Beijing\",\n",
                "  \"scale\": {scale},\n",
                "  \"steps\": {steps},\n",
                "  \"cadence\": {cadence},\n",
                "  \"threads\": {threads},\n",
                "  \"killed_after_generation\": {killed},\n",
                "  \"restored_generation\": {restored},\n",
                "  \"restored_steps\": {rsteps},\n",
                "  \"restore_ms\": {restore:.3},\n",
                "  \"checkpoint_save_ms\": {save:.3},\n",
                "  \"torn_generation\": {torn},\n",
                "  \"journal_intact_lines\": {jlines}\n",
                "}}\n",
            ),
            scale = scale,
            steps = steps,
            cadence = cadence,
            threads = threads,
            killed = killed_at,
            restored = loaded.generation,
            rsteps = loaded.checkpoint.steps,
            restore = restore_ms,
            save = save_ms,
            torn = torn,
            jlines = journal_lines,
        );
        std::fs::write("BENCH_fault_drill.json", &json).expect("write BENCH_fault_drill.json");
        println!("\nWrote BENCH_fault_drill.json");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "{} kill -9 mid-epoch recovered from gen {}, torn generation skipped, resumed run \
         completed, model round-trips, journal intact{}",
        if smoke { "smoke OK:" } else { "drill OK:" },
        loaded.generation,
        tax.unwrap_or_default()
    );
}
