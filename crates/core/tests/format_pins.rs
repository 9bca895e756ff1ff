//! On-disk format pins. The fixtures under `tests/fixtures/` were written
//! by the code that still had the version-1/2 writers: `model_v3.gem` is
//! what `save_model_v3` wrote for [`fixture_model`], `model_v1.gem` and
//! `model_v2.gem` are the same model in the legacy layouts, and
//! `gen-000001.ckpt` is a `Checkpointer` generation embedding the model as
//! version 2. Writing v3 must stay byte-identical, and every old file must
//! keep loading exactly.

use gem_core::{load_model, save_model_v3, Checkpoint, Checkpointer, GemModel};
use std::path::{Path, PathBuf};

const MODEL_V3: &[u8] = include_bytes!("fixtures/model_v3.gem");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gem-format-pins-{name}-{}", std::process::id()))
}

fn fixture_model() -> GemModel {
    GemModel::from_raw(
        3,
        vec![1.0, -2.0, 3.5, 0.0, 0.25, 9.0],
        vec![0.5, -0.125, 1e-3],
        vec![],
        vec![1.0, 2.0, 3.0],
        vec![-4.0, 0.75, 6.5, 7.0, -8.25, 1.5e3],
    )
}

/// Bit-level equality (`GemModel`'s `==` compares floats by value).
fn assert_bits_eq(got: &GemModel, want: &GemModel) {
    let bits = |m: &GemModel| -> Vec<Vec<u32>> {
        [&m.users, &m.events, &m.regions, &m.time_slots, &m.words]
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(got.dim, want.dim);
    assert_eq!(bits(got), bits(want));
}

#[test]
fn v3_writer_output_is_byte_identical_to_the_pinned_file() {
    let path = scratch("v3");
    save_model_v3(&fixture_model(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bytes, MODEL_V3);
    assert_bits_eq(&load_model(&fixture("model_v3.gem")).unwrap(), &fixture_model());
}

#[test]
fn legacy_v1_and_v2_files_load_exactly() {
    for name in ["model_v1.gem", "model_v2.gem"] {
        assert_bits_eq(&load_model(&fixture(name)).unwrap(), &fixture_model());
    }
}

#[test]
fn checkpoint_written_with_a_v2_model_section_resumes_exactly() {
    let dir = scratch("old-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture("gen-000001.ckpt"), dir.join("gen-000001.ckpt")).unwrap();
    let loaded = Checkpointer::new(&dir).unwrap().load_latest().unwrap().expect("one generation");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((loaded.generation, loaded.skipped.len()), (1, 0));
    let ckpt = loaded.checkpoint;
    assert_eq!((ckpt.seed, ckpt.steps), (0x5EED_0042, 123_456));
    assert_eq!(ckpt.adaptive_draws, std::array::from_fn(|i| i as u64 * 1_000 + 7));
    assert_bits_eq(&ckpt.model, &fixture_model());
}

#[test]
fn new_checkpoints_embed_the_v3_bytes() {
    let dir = scratch("new-ckpt");
    let sink = Checkpointer::new(&dir).unwrap();
    let ckpt = Checkpoint { seed: 9, steps: 77, adaptive_draws: [3; 10], model: fixture_model() };
    assert_eq!(sink.save(&ckpt).unwrap(), 1);
    let bytes = std::fs::read(dir.join("gen-000001.ckpt")).unwrap();
    let loaded = sink.load_latest().unwrap().expect("one generation").checkpoint;
    std::fs::remove_dir_all(&dir).ok();
    // "GEMK" | version | seed | steps | 10 draws | model_len | model | crc
    let at = 4 + 4 + 8 + 8 + 80;
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    assert_eq!(&bytes[at + 4..at + 4 + len], MODEL_V3);
    assert_eq!(bytes.len(), at + 4 + len + 4);
    assert_eq!(loaded, ckpt);
}
