//! Generation-numbered training checkpoints with a manifest commit
//! protocol.
//!
//! A [`Checkpoint`] is everything a crashed run needs to continue: the
//! model matrices, the step counter (which, with the master seed, derives
//! every future chunk's RNG streams — see `GemTrainer::run`'s per-chunk
//! seeding), the seed itself for mismatch detection, and the adaptive
//! samplers' draw counters. Rankings are *not* stored: they are a pure
//! function of the matrices and are rebuilt on restore.
//!
//! On disk a checkpoint directory looks like:
//!
//! ```text
//! ckpts/
//!   gen-000001.ckpt      "GEMK" | version u32 | seed u64 | steps u64
//!   gen-000002.ckpt          | 10 × draws u64 | model_len u32
//!   MANIFEST.json            | model bytes (GEMM v3) | crc32 u32
//! ```
//!
//! The model section is exactly what [`crate::save_model_v3`] writes, and
//! is read back through the same reader as a model file. It states its own
//! version, so generations written when the section was GEMM v2 still
//! resume through the model loader's legacy branch.
//!
//! The commit protocol is write-then-publish, both halves atomic:
//!
//! 1. the generation file is written via the persist layer's atomic path
//!    (unique temp + fsync + rename), so a crash mid-write leaves no
//!    `gen-*.ckpt` at all;
//! 2. `MANIFEST.json` (`{"latest": N, "generations": [...]}`) is then
//!    rewritten the same way, *publishing* the new generation.
//!
//! A crash between (1) and (2) leaves an orphan generation the manifest
//! never points at — harmless. A torn generation that somehow got
//! committed anyway (short write + rename, simulated by the
//! `persist.short_write` fail point) fails its CRC at load time, and
//! [`Checkpointer::load_latest`] falls back to the previous listed
//! generation, recording the skip.

use crate::error::TrainError;
use crate::model::GemModel;
use crate::persist::{self, PersistError};
use gem_obs::faults;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GEMK";
const VERSION: u32 = 1;
const MANIFEST: &str = "MANIFEST.json";
/// Generations retained on disk; older files are pruned after a commit.
const KEEP_GENERATIONS: usize = 4;

/// A resumable snapshot of a training run (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Master seed of the run this checkpoint belongs to.
    pub seed: u64,
    /// Steps completed when the snapshot was taken (a chunk boundary).
    pub steps: u64,
    /// Each adaptive sampler's refresh schedule — the global step index
    /// its next rankings refresh is due at — `[graph][side]` flattened;
    /// all zeros for non-adaptive variants. (Field name kept from the
    /// draw-counting era for on-disk format compatibility; values from old
    /// checkpoints are treated as already-due schedules, which merely
    /// triggers one refresh at the next boundary.)
    pub adaptive_draws: [u64; 10],
    /// The embedding matrices.
    pub model: GemModel,
}

/// A successfully recovered checkpoint plus the recovery provenance.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Generation the checkpoint was read from.
    pub generation: u64,
    /// Newer generations that were listed but failed validation (torn or
    /// corrupt files skipped on the way down).
    pub skipped: Vec<u64>,
    /// The recovered state.
    pub checkpoint: Checkpoint,
}

/// Writes and recovers generation-numbered checkpoints in one directory.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
}

impl Checkpointer {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new<P: AsRef<Path>>(dir: P) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:06}.ckpt"))
    }

    /// Write `ckpt` as the next generation and publish it in the manifest.
    /// Returns the committed generation number.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<u64, PersistError> {
        let mut generations = self.manifest_generations().unwrap_or_default();
        let generation = generations.last().copied().unwrap_or(0) + 1;
        persist::atomic_write(&self.generation_path(generation), &encode(ckpt)?)?;
        if let Some(e) = faults::io_error("checkpoint.manifest_commit") {
            return Err(e.into());
        }
        generations.push(generation);
        self.write_manifest(&generations)?;
        self.prune(&generations);
        Ok(generation)
    }

    /// Recover the newest valid checkpoint: walk the manifest's generation
    /// list newest-first, skipping entries whose files are missing, torn,
    /// or corrupt. `Ok(None)` when the directory holds no recoverable
    /// checkpoint at all.
    pub fn load_latest(&self) -> Result<Option<LoadedCheckpoint>, PersistError> {
        let generations = self.manifest_generations().unwrap_or_default();
        let mut skipped = Vec::new();
        for &generation in generations.iter().rev() {
            match std::fs::read(self.generation_path(generation)) {
                Ok(bytes) => match parse(&bytes) {
                    Ok(checkpoint) => {
                        return Ok(Some(LoadedCheckpoint { generation, skipped, checkpoint }))
                    }
                    Err(_) => skipped.push(generation),
                },
                Err(_) => skipped.push(generation),
            }
        }
        Ok(None)
    }

    /// Convenience: recover the newest valid checkpoint and restore it into
    /// `trainer` ([`crate::GemTrainer::resume_from`]).
    pub fn resume_latest(
        &self,
        trainer: &crate::GemTrainer<'_>,
    ) -> Result<Option<LoadedCheckpoint>, TrainError> {
        let Some(loaded) = self.load_latest()? else { return Ok(None) };
        trainer.resume_from(&loaded.checkpoint)?;
        Ok(Some(loaded))
    }

    /// Generations listed by the manifest, ascending. Missing or unreadable
    /// manifests fall back to a directory scan, so a run whose manifest
    /// commit was lost can still recover its published generation files.
    fn manifest_generations(&self) -> Option<Vec<u64>> {
        let text = std::fs::read_to_string(self.dir.join(MANIFEST)).ok();
        if let Some(text) = text {
            if let Ok(doc) = gem_obs::json::parse(&text) {
                if doc.get("format").and_then(|v| v.as_str()) == Some("gem-checkpoint-manifest") {
                    if let Some(list) = doc.get("generations").and_then(|v| v.as_array()) {
                        let mut gens: Vec<u64> = list
                            .iter()
                            .filter_map(|v| v.as_f64())
                            .filter(|&g| g >= 1.0)
                            .map(|g| g as u64)
                            .collect();
                        gens.sort_unstable();
                        gens.dedup();
                        return Some(gens);
                    }
                }
            }
        }
        // Fallback: whatever generation files exist on disk.
        let mut gens: Vec<u64> = std::fs::read_dir(&self.dir)
            .ok()?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let n = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
                n.parse::<u64>().ok()
            })
            .collect();
        gens.sort_unstable();
        Some(gens)
    }

    fn write_manifest(&self, generations: &[u64]) -> Result<(), PersistError> {
        let latest = generations.last().copied().unwrap_or(0);
        let list = generations.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(",");
        let json = format!(
            "{{\"format\":\"gem-checkpoint-manifest\",\"version\":1,\
             \"latest\":{latest},\"generations\":[{list}]}}\n"
        );
        persist::atomic_write(&self.dir.join(MANIFEST), json.as_bytes())
    }

    /// Best-effort removal of generations older than the retention window.
    /// Only files *outside* the manifest's current list are deleted, so a
    /// reader walking the list never races a deletion.
    fn prune(&self, generations: &[u64]) {
        if generations.len() <= KEEP_GENERATIONS {
            return;
        }
        let keep = &generations[generations.len() - KEEP_GENERATIONS..];
        let _ = self.write_manifest(keep);
        for &old in &generations[..generations.len() - KEEP_GENERATIONS] {
            let _ = std::fs::remove_file(self.generation_path(old));
        }
    }
}

/// Serialize a checkpoint to its on-disk bytes (magic through CRC).
fn encode(ckpt: &Checkpoint) -> Result<Vec<u8>, PersistError> {
    let model = persist::encode_model(&ckpt.model)?;
    let mut bytes = Vec::with_capacity(4 + 4 + 8 + 8 + 80 + 4 + model.len() + 4);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&ckpt.seed.to_le_bytes());
    bytes.extend_from_slice(&ckpt.steps.to_le_bytes());
    for d in ckpt.adaptive_draws {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    bytes.extend_from_slice(&(model.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&model);
    let crc = gem_obs::crc::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

/// Parse checkpoint bytes, validating the outer CRC and the embedded
/// model's own format (including its own CRCs).
fn parse(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
    if bytes.len() < 12 {
        return Err(PersistError::Corrupt("truncated header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let (covered, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    if gem_obs::crc::crc32(covered) != stored {
        return Err(PersistError::Corrupt("checksum mismatch"));
    }
    let mut cur = persist::Cursor { body: &covered[8..], pos: 0 };
    let seed = cur.read_u64()?;
    let steps = cur.read_u64()?;
    let mut adaptive_draws = [0u64; 10];
    for d in &mut adaptive_draws {
        *d = cur.read_u64()?;
    }
    let model_len = cur.read_u32()? as usize;
    if cur.remaining() != model_len {
        return Err(PersistError::Corrupt("model section length mismatch"));
    }
    let model = persist::read_model(std::io::Cursor::new(cur.take_rest()))?;
    Ok(Checkpoint { seed, steps, adaptive_draws, model })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_checkpoint(steps: u64) -> Checkpoint {
        Checkpoint {
            seed: 42,
            steps,
            adaptive_draws: std::array::from_fn(|i| i as u64 * 7),
            model: GemModel::from_raw(
                2,
                vec![1.0, 2.0, 3.0, steps as f32],
                vec![0.5, -0.5],
                vec![],
                vec![1.0, 1.0],
                vec![],
            ),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gem-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_and_load_latest_round_trips() {
        let dir = tmp_dir("roundtrip");
        let sink = Checkpointer::new(&dir).unwrap();
        let ckpt = toy_checkpoint(1_000);
        assert_eq!(sink.save(&ckpt).unwrap(), 1);
        let loaded = sink.load_latest().unwrap().expect("one generation exists");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.generation, 1);
        assert!(loaded.skipped.is_empty());
        assert_eq!(loaded.checkpoint, ckpt);
    }

    #[test]
    fn newest_generation_wins() {
        let dir = tmp_dir("newest");
        let sink = Checkpointer::new(&dir).unwrap();
        sink.save(&toy_checkpoint(1_000)).unwrap();
        sink.save(&toy_checkpoint(2_000)).unwrap();
        let loaded = sink.load_latest().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.generation, 2);
        assert_eq!(loaded.checkpoint.steps, 2_000);
    }

    #[test]
    fn torn_generation_is_skipped_for_the_previous_one() {
        let dir = tmp_dir("torn");
        let sink = Checkpointer::new(&dir).unwrap();
        sink.save(&toy_checkpoint(1_000)).unwrap();
        sink.save(&toy_checkpoint(2_000)).unwrap();
        // Tear generation 2 after commit (what a crash between write and
        // fsync can leave behind on a real disk): its CRC cannot verify.
        let gen2 = sink.generation_path(2);
        let bytes = std::fs::read(&gen2).unwrap();
        std::fs::write(&gen2, &bytes[..bytes.len() / 2]).unwrap();
        let loaded = sink.load_latest().unwrap().expect("gen 1 is still valid");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.skipped, vec![2]);
        assert_eq!(loaded.checkpoint.steps, 1_000);
    }

    #[test]
    fn empty_directory_recovers_nothing() {
        let dir = tmp_dir("empty");
        let sink = Checkpointer::new(&dir).unwrap();
        assert!(sink.load_latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_falls_back_to_directory_scan() {
        let dir = tmp_dir("noman");
        let sink = Checkpointer::new(&dir).unwrap();
        sink.save(&toy_checkpoint(1_000)).unwrap();
        sink.save(&toy_checkpoint(2_000)).unwrap();
        std::fs::remove_file(dir.join(MANIFEST)).unwrap();
        let loaded = sink.load_latest().unwrap().expect("scan finds generations");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.generation, 2);
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmp_dir("prune");
        let sink = Checkpointer::new(&dir).unwrap();
        for steps in 1..=7u64 {
            sink.save(&toy_checkpoint(steps * 100)).unwrap();
        }
        // Retention window: only the last KEEP_GENERATIONS files remain.
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .count();
        let loaded = sink.load_latest().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files, KEEP_GENERATIONS);
        assert_eq!(loaded.generation, 7);
        assert_eq!(loaded.checkpoint.steps, 700);
    }

    #[test]
    fn checkpoint_bytes_reject_bit_flips() {
        let ckpt = toy_checkpoint(5);
        let clean = encode(&ckpt).unwrap();
        assert_eq!(parse(&clean).unwrap(), ckpt);
        for pos in 4..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            assert!(parse(&bytes).is_err(), "bit flip at byte {pos} parsed Ok");
        }
    }
}
