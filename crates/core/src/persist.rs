//! Model persistence: save/load a trained [`GemModel`] snapshot.
//!
//! Training to convergence takes minutes; serving restarts shouldn't. The
//! model file is the hand-off between the two, written in one format
//! (version 3) by [`save_model_v3`] and parsed by one reader,
//! [`ModelReader`]:
//!
//! ```text
//! magic "GEMM" | version=3 u32 | header section | chunk section …
//! section  :=  tag u32 | len u32 | payload[len] | crc32(tag|len|payload)
//! header   :=  dim u32 | chunk_rows u32 | 5 × (rows u32)
//! chunk    :=  matrix u32 | start_row u32 | nrows u32 | nrows·dim f32 LE
//! ```
//!
//! All integers and floats are little-endian. Chunks follow in strict
//! order — matrix 0..5, `start_row` ascending in `chunk_rows` steps, the
//! last chunk of each matrix short — so the reader knows the exact
//! sequence from the header alone and any deviation is
//! [`PersistError::Corrupt`]. Each section carries its own CRC-32, which
//! bounds both writer and reader memory at one chunk (~`chunk_rows · dim`
//! floats) beyond the model itself. Section tags are deliberately
//! `> 65 536` so a v3 file whose version byte is damaged into 1 trips the
//! v1 parser's implausible-dimension check rather than misparsing.
//!
//! Files written by older code keep loading through [`load_model`]'s
//! read-only legacy branch: version 2 is one whole-file layout
//! (`magic | version | dim | 5 × rows | 5 × (rows·dim f32) | crc32`, the
//! CRC covering every byte before it) and version 1 the same without the
//! trailer. Nothing writes either any more; to migrate an old file, call
//! `save_model_v3(&load_model(old)?, new)`.
//!
//! Saves are atomic (unique temp sibling + fsync + rename) and carry
//! `persist.*` fail points ([`gem_obs::faults`]) at each step of that
//! protocol, so the crash paths — short write, failed fsync, failed
//! rename — are deterministically testable.

use crate::model::GemModel;
use gem_obs::crc::Crc32;
use gem_obs::faults;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"GEMM";
/// The chunk-streamed format every save writes (see the module docs).
const VERSION: u32 = 3;
/// Legacy whole-file format with a CRC trailer. Read-only.
const VERSION_CHECKSUMMED: u32 = 2;
/// Legacy whole-file format without a trailer. Read-only.
const VERSION_UNCHECKSUMMED: u32 = 1;

/// Section tag of the v3 header ("HGEM"). Tags exceed 65 536 on purpose:
/// a v1-misparse reads the first tag as the model dimension and rejects it.
const TAG_HEADER: u32 = 0x4D45_4748;
/// Section tag of a v3 matrix chunk ("KHCC"-ish; value is arbitrary).
const TAG_CHUNK: u32 = 0x4B48_4343;
/// Payload bytes of the v3 header section.
const HEADER_LEN: usize = 28;

/// Rows per v3 chunk: at dim 64 this is ~1 MiB of payload per section,
/// small enough to bound writer/reader memory and large enough that
/// framing overhead is noise.
const CHUNK_ROWS: usize = 4096;

/// Errors from loading a model file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Not a GEM model file.
    BadMagic,
    /// Written by an incompatible version.
    BadVersion(
        /// version found in the file
        u32,
    ),
    /// Structurally invalid (truncated, checksum mismatch, or sizes
    /// inconsistent).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not a GEM model file"),
            PersistError::BadVersion(v) => write!(f, "unsupported model version {v}"),
            PersistError::Corrupt(what) => write!(f, "corrupt model file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Save a model to a file in the version-3 layout, atomically.
///
/// The snapshot is written to a unique temp sibling (`<file>.<pid>.<seq>.tmp`
/// — the *full* filename is the prefix, so concurrent saves of sibling
/// snapshots sharing a stem like `model.v1` / `model.v2` can never clobber
/// each other's temp file), fsynced, and renamed over `path`. On any write
/// error the temp file is removed. Peak writer memory is one chunk section,
/// not the serialized model. A matrix whose length is not a multiple of
/// `dim` is rejected as [`PersistError::Corrupt`] up front rather than
/// silently truncated to whole rows.
pub fn save_model_v3(model: &GemModel, path: &Path) -> Result<(), PersistError> {
    validate_for_save(model)?;
    atomic_write_with(path, |w| write_v3(model, CHUNK_ROWS, w))
}

/// Serialize a model to the version-3 byte layout in memory: the bytes
/// [`save_model_v3`] writes, which the checkpoint embeds as its model
/// section.
pub(crate) fn encode_model(model: &GemModel) -> Result<Vec<u8>, PersistError> {
    validate_for_save(model)?;
    let mut bytes = Vec::new();
    write_v3(model, CHUNK_ROWS, &mut bytes)?;
    Ok(bytes)
}

/// Shape checks run before any file is touched.
fn validate_for_save(model: &GemModel) -> Result<(), PersistError> {
    if model.dim == 0 {
        return Err(PersistError::Corrupt("zero dimension"));
    }
    for m in model_matrices(model) {
        if m.len() % model.dim != 0 {
            return Err(PersistError::Corrupt("ragged matrix: length not a multiple of dim"));
        }
    }
    Ok(())
}

/// The five matrices in their fixed on-disk order.
fn model_matrices(model: &GemModel) -> [&Vec<f32>; 5] {
    [&model.users, &model.events, &model.regions, &model.time_slots, &model.words]
}

/// Build a model from its five matrices in on-disk order.
fn from_matrices(dim: usize, matrices: Vec<Vec<f32>>) -> GemModel {
    let [users, events, regions, time_slots, words]: [Vec<f32>; 5] =
        matrices.try_into().expect("5 matrices");
    GemModel::from_raw(dim, users, events, regions, time_slots, words)
}

/// `(start_row, nrows)` of each chunk of a `rows`-row matrix.
fn chunk_spans(rows: usize, chunk_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows).step_by(chunk_rows).map(move |start| (start, chunk_rows.min(rows - start)))
}

/// Emit the full v3 byte stream (magic, version, header section, chunk
/// sections in strict order) through `w`, buffering at most one section.
/// The only code that writes the format.
fn write_v3<W: Write>(model: &GemModel, chunk_rows: usize, w: &mut W) -> Result<(), PersistError> {
    let matrices = model_matrices(model);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&(model.dim as u32).to_le_bytes());
    header.extend_from_slice(&(chunk_rows as u32).to_le_bytes());
    for m in matrices {
        header.extend_from_slice(&((m.len() / model.dim) as u32).to_le_bytes());
    }
    write_section(w, TAG_HEADER, &header)?;

    let mut payload = Vec::with_capacity(12 + chunk_rows.min(1 << 20) * model.dim * 4);
    for (mi, m) in matrices.iter().enumerate() {
        for (start, nrows) in chunk_spans(m.len() / model.dim, chunk_rows) {
            payload.clear();
            payload.extend_from_slice(&(mi as u32).to_le_bytes());
            payload.extend_from_slice(&(start as u32).to_le_bytes());
            payload.extend_from_slice(&(nrows as u32).to_le_bytes());
            for &v in &m[start * model.dim..(start + nrows) * model.dim] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            write_section(w, TAG_CHUNK, &payload)?;
        }
    }
    Ok(())
}

/// Frame one section: `tag | len | payload | crc32(tag|len|payload)`.
fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> Result<(), PersistError> {
    let mut crc = Crc32::new();
    let tag_bytes = tag.to_le_bytes();
    let len_bytes = (payload.len() as u32).to_le_bytes();
    crc.update(&tag_bytes);
    crc.update(&len_bytes);
    crc.update(payload);
    w.write_all(&tag_bytes)?;
    w.write_all(&len_bytes)?;
    w.write_all(payload)?;
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok(())
}

/// Write `bytes` to `path` atomically (see [`atomic_write_with`]).
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    atomic_write_with(path, |w| w.write_all(bytes).map_err(PersistError::from))
}

/// Write a file atomically: `emit` writes the payload into a buffered
/// temp-file writer, so the v3 chunk writer never holds the whole file in
/// memory. The temp file is flushed, optionally truncated to half by the
/// `persist.short_write` fault (the `kill -9` torn-write scenario — the
/// rename still commits), fsynced (`persist.fsync`), renamed over `path`
/// (`persist.rename`), and removed on any failure.
fn atomic_write_with(
    path: &Path,
    emit: impl FnOnce(&mut std::io::BufWriter<&std::fs::File>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    // Unique temp name per (process, call): concurrent savers of the same
    // or sibling paths each write their own file.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        PersistError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "snapshot path has no file name",
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".{}.{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = std::io::BufWriter::new(&file);
        emit(&mut writer)?;
        writer.flush()?;
        drop(writer);
        if faults::should_fail("persist.short_write") {
            // Simulate a torn write that the commit protocol does NOT
            // catch: the contents are cut in half but the rename proceeds,
            // leaving a committed file whose checksum cannot verify.
            let written = file.metadata()?.len();
            file.set_len(written / 2)?;
        }
        if let Some(e) = faults::io_error("persist.fsync") {
            return Err(e.into());
        }
        // After the subsequent rename the new file's *contents* must be
        // durable, or a crash could leave a valid name pointing at a
        // truncated payload.
        file.sync_all()?;
        if let Some(e) = faults::io_error("persist.rename") {
            return Err(e.into());
        }
        std::fs::rename(&tmp, path).map_err(PersistError::from)
    })();
    if result.is_err() {
        // Never leak a temp file: on any failure remove what we created.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a model from a file of any version: v3 through [`ModelReader`],
/// v1/v2 through the read-only legacy branch.
pub fn load_model(path: &Path) -> Result<GemModel, PersistError> {
    read_model(std::fs::File::open(path)?)
}

/// Read a model of any version from `src`, positioned at its magic.
pub(crate) fn read_model<R: Read + Seek>(mut src: R) -> Result<GemModel, PersistError> {
    match read_prologue(&mut src)? {
        VERSION => ModelReader::after_prologue(src)?.materialize(),
        v @ (VERSION_UNCHECKSUMMED | VERSION_CHECKSUMMED) => {
            let mut rest = Vec::new();
            src.read_to_end(&mut rest)?;
            parse_legacy(v, &rest)
        }
        v => Err(PersistError::BadVersion(v)),
    }
}

/// Read and check the 8-byte `magic | version` prologue; returns the
/// version.
fn read_prologue<R: Read>(src: &mut R) -> Result<u32, PersistError> {
    let mut prologue = [0u8; 8];
    read_exact_or_corrupt(src, &mut prologue, "truncated header")?;
    if &prologue[0..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    Ok(u32::from_le_bytes(prologue[4..8].try_into().expect("4 bytes")))
}

/// Parse the body of a legacy v1/v2 file (everything after the prologue).
/// The v2 trailer covers the prologue too.
fn parse_legacy(version: u32, rest: &[u8]) -> Result<GemModel, PersistError> {
    let body = if version == VERSION_CHECKSUMMED {
        if rest.len() < 4 {
            return Err(PersistError::Corrupt("truncated header"));
        }
        let (covered, trailer) = rest.split_at(rest.len() - 4);
        let mut crc = Crc32::new();
        crc.update(MAGIC);
        crc.update(&version.to_le_bytes());
        crc.update(covered);
        if crc.finish() != u32::from_le_bytes(trailer.try_into().expect("4 bytes")) {
            return Err(PersistError::Corrupt("checksum mismatch"));
        }
        covered
    } else {
        rest
    };
    let mut cur = Cursor { body, pos: 0 };
    let dim = cur.read_u32()? as usize;
    if dim == 0 || dim > 65_536 {
        return Err(PersistError::Corrupt("implausible dimension"));
    }
    let mut rows = [0usize; 5];
    for slot in &mut rows {
        *slot = cur.read_u32()? as usize;
    }
    let mut matrices: Vec<Vec<f32>> = Vec::with_capacity(5);
    for &n in &rows {
        let floats = n
            .checked_mul(dim)
            .filter(|&len| len * 4 <= cur.remaining())
            .ok_or(PersistError::Corrupt("truncated payload"))?;
        let mut m = Vec::with_capacity(floats);
        decode_floats(&mut cur, floats, &mut m)?;
        matrices.push(m);
    }
    // Anything left over means the header lied.
    if cur.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(from_matrices(dim, matrices))
}

/// Append `n` little-endian floats from `cur` to `out`, refusing
/// non-finite values.
fn decode_floats(cur: &mut Cursor<'_>, n: usize, out: &mut Vec<f32>) -> Result<(), PersistError> {
    for _ in 0..n {
        let v = f32::from_le_bytes(cur.read_array()?);
        if !v.is_finite() {
            return Err(PersistError::Corrupt("non-finite embedding value"));
        }
        out.push(v);
    }
    Ok(())
}

/// Bounds-checked slice reader: every short read is a structural
/// `Corrupt("truncated payload")`, never a panic.
pub(crate) struct Cursor<'a> {
    pub(crate) body: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    pub(crate) fn read_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        if self.remaining() < N {
            return Err(PersistError::Corrupt("truncated payload"));
        }
        let out = self.body[self.pos..self.pos + N].try_into().expect("checked length");
        self.pos += N;
        Ok(out)
    }

    pub(crate) fn read_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.read_array()?))
    }

    pub(crate) fn read_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.read_array()?))
    }

    pub(crate) fn take_rest(&mut self) -> &'a [u8] {
        let rest = &self.body[self.pos..];
        self.pos = self.body.len();
        rest
    }
}

/// Reader over a version-3 model: the one parser of the format.
///
/// [`ModelReader::open`] reads and CRC-verifies only the header, then walks
/// the section frames (the strict chunk order makes every frame's expected
/// tag and size a pure function of the header, so a lying frame head is
/// rejected at open) and checks that the source ends after the last chunk.
/// That answers "what shape is this model" without reading the floats.
/// [`ModelReader::materialize`] then reads the chunks once, in order,
/// through the same handle, so what it returns is the file whose shape was
/// checked even if the path has since been replaced. A corrupt chunk
/// surfaces there as [`PersistError::Corrupt`]; a wrong model can never
/// come back.
///
/// Version 1/2 files are whole-file formats — load those with
/// [`load_model`].
#[derive(Debug)]
pub struct ModelReader<R = std::fs::File> {
    src: R,
    dim: usize,
    chunk_rows: usize,
    rows: [usize; 5],
    /// Offset of the first chunk section.
    chunks_at: u64,
}

impl ModelReader {
    /// Open a v3 model file, verifying magic, version, the header section's
    /// CRC, and the chunk skeleton (tags, frame sizes, no trailing bytes).
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let mut file = std::fs::File::open(path)?;
        match read_prologue(&mut file)? {
            VERSION => Self::after_prologue(file),
            v => Err(PersistError::BadVersion(v)),
        }
    }
}

impl<R: Read + Seek> ModelReader<R> {
    /// Read the header and walk the chunk skeleton of a source whose
    /// prologue has already been read as version 3.
    fn after_prologue(mut src: R) -> Result<Self, PersistError> {
        let head = read_frame_head(&mut src, TAG_HEADER, HEADER_LEN)?;
        let mut header = Vec::new();
        read_payload(&mut src, &head, HEADER_LEN, &mut header)?;
        let mut cur = Cursor { body: &header, pos: 0 };
        let dim = cur.read_u32()? as usize;
        if dim == 0 || dim > 65_536 {
            return Err(PersistError::Corrupt("implausible dimension"));
        }
        let chunk_rows = cur.read_u32()? as usize;
        if chunk_rows == 0 {
            return Err(PersistError::Corrupt("zero chunk rows"));
        }
        let mut rows = [0usize; 5];
        for slot in &mut rows {
            *slot = cur.read_u32()? as usize;
        }

        // Walk the chunk skeleton: frame heads only, payloads skipped.
        let chunks_at = src.stream_position()?;
        for &total in &rows {
            for (_, nrows) in chunk_spans(total, chunk_rows) {
                let len = chunk_len(nrows, dim)?;
                read_frame_head(&mut src, TAG_CHUNK, len)?;
                src.seek(SeekFrom::Current(len as i64 + 4))?;
            }
        }
        // The source must end exactly after the last chunk's CRC, which
        // also bounds what `materialize` allocates by the source's size.
        let walked = src.stream_position()?;
        match src.seek(SeekFrom::End(0))?.cmp(&walked) {
            std::cmp::Ordering::Less => Err(PersistError::Corrupt("truncated section")),
            std::cmp::Ordering::Greater => Err(PersistError::Corrupt("trailing bytes")),
            std::cmp::Ordering::Equal => Ok(Self { src, dim, chunk_rows, rows, chunks_at }),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// User-matrix row count — the serving tier's "how many users does
    /// this model cover" question, without materializing anything.
    pub fn num_users(&self) -> usize {
        self.rows[0]
    }

    /// Event-matrix row count.
    pub fn num_events(&self) -> usize {
        self.rows[1]
    }

    /// Read the whole model, one chunk at a time. Each chunk's CRC is
    /// checked before its floats are decoded, so a bit flip anywhere in
    /// the file is an error, never a model. Peak memory beyond the
    /// returned model is one chunk buffer.
    pub fn materialize(mut self) -> Result<GemModel, PersistError> {
        self.src.seek(SeekFrom::Start(self.chunks_at))?;
        let mut payload = Vec::new();
        let mut matrices = Vec::with_capacity(5);
        for (mi, &total) in self.rows.iter().enumerate() {
            let mut matrix = Vec::with_capacity(total.saturating_mul(self.dim));
            for (start, nrows) in chunk_spans(total, self.chunk_rows) {
                let len = chunk_len(nrows, self.dim)?;
                let head = read_frame_head(&mut self.src, TAG_CHUNK, len)?;
                read_payload(&mut self.src, &head, len, &mut payload)?;
                let mut cur = Cursor { body: &payload, pos: 0 };
                let found = (cur.read_u32()?, cur.read_u32()?, cur.read_u32()?);
                if found != (mi as u32, start as u32, nrows as u32) {
                    return Err(PersistError::Corrupt("chunk out of order"));
                }
                decode_floats(&mut cur, nrows * self.dim, &mut matrix)?;
            }
            matrices.push(matrix);
        }
        Ok(from_matrices(self.dim, matrices))
    }
}

/// Payload bytes of a chunk section holding `nrows` rows of `dim` floats.
fn chunk_len(nrows: usize, dim: usize) -> Result<usize, PersistError> {
    nrows
        .checked_mul(dim)
        .and_then(|f| f.checked_mul(4))
        .and_then(|b| b.checked_add(12))
        .ok_or(PersistError::Corrupt("chunk size mismatch"))
}

/// Read a section's `tag | len` frame head and check both against what
/// the header says comes next (never trusting the frame's own length).
fn read_frame_head<R: Read>(src: &mut R, tag: u32, len: usize) -> Result<[u8; 8], PersistError> {
    let mut head = [0u8; 8];
    read_exact_or_corrupt(src, &mut head, "truncated section")?;
    let is_header = tag == TAG_HEADER;
    if u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) != tag {
        return Err(PersistError::Corrupt(if is_header {
            "missing header section"
        } else {
            "expected chunk section"
        }));
    }
    if u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize != len {
        return Err(PersistError::Corrupt(if is_header {
            "header size mismatch"
        } else {
            "chunk size mismatch"
        }));
    }
    Ok(head)
}

/// Read the `len`-byte payload and CRC that follow `head` into `buf`
/// (left holding just the payload) and verify the section checksum.
fn read_payload<R: Read>(
    src: &mut R,
    head: &[u8; 8],
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<(), PersistError> {
    buf.resize(len + 4, 0);
    read_exact_or_corrupt(src, buf, "truncated section")?;
    let stored = u32::from_le_bytes(buf[len..].try_into().expect("4 bytes"));
    buf.truncate(len);
    let mut crc = Crc32::new();
    crc.update(head);
    crc.update(buf);
    if crc.finish() != stored {
        return Err(PersistError::Corrupt("section checksum mismatch"));
    }
    Ok(())
}

/// `read_exact` that reports a short source as structural corruption
/// rather than a bare IO error.
fn read_exact_or_corrupt<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), PersistError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt(what)
        } else {
            PersistError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> GemModel {
        GemModel::from_raw(
            3,
            vec![1.0, -2.0, 3.5, 0.0, 0.25, 9.0],
            vec![0.5, 0.5, 0.5],
            vec![],
            vec![1.0, 2.0, 3.0],
            vec![],
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gem-persist-{name}-{}", std::process::id()))
    }

    /// The v3 bytes of `model` at `chunk_rows` rows per chunk section.
    pub(super) fn encode_chunked(model: &GemModel, chunk_rows: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_v3(model, chunk_rows, &mut bytes).unwrap();
        bytes
    }

    pub(super) fn parse(bytes: &[u8]) -> Result<GemModel, PersistError> {
        read_model(std::io::Cursor::new(bytes))
    }

    pub(super) const LEGACY_V1: &[u8] = include_bytes!("../tests/fixtures/model_v1.gem");
    pub(super) const LEGACY_V2: &[u8] = include_bytes!("../tests/fixtures/model_v2.gem");

    /// Restamp a legacy v2 file's whole-file CRC after editing it.
    fn restamp_v2(bytes: &mut [u8]) {
        let crc = gem_obs::crc::crc32(&bytes[..bytes.len() - 4]);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip_is_exact() {
        let model = toy();
        let path = tmp("roundtrip");
        save_model_v3(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, model);
    }

    /// Pins the v3 bytes at one row per chunk (`tests/format_pins.rs` pins
    /// the default chunking) by their FNV-1a 64. A whole-file CRC-32 would
    /// not do: every section ends in its own CRC, which leaves the CRC of
    /// the whole file a function of the section lengths alone.
    #[test]
    fn v3_bytes_at_one_row_per_chunk_are_pinned() {
        let model = GemModel::from_raw(
            3,
            vec![1.0, -2.0, 3.5, 0.0, 0.25, 9.0],
            vec![0.5, -0.125, 1e-3],
            vec![],
            vec![1.0, 2.0, 3.0],
            vec![-4.0, 0.75, 6.5, 7.0, -8.25, 1.5e3],
        );
        let bytes = encode_chunked(&model, 1);
        let fnv = bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!((bytes.len(), fnv), (264, 0x2883_253c_bdba_5885));
        assert_eq!(parse(&bytes).unwrap(), model);
    }

    #[test]
    fn reader_reports_shape_and_materialize_catches_payload_flips() {
        let model = toy();
        let path = tmp("verify");
        std::fs::write(&path, encode_chunked(&model, 1)).unwrap();

        let reader = ModelReader::open(&path).unwrap();
        assert_eq!((reader.dim(), reader.num_users(), reader.num_events()), (3, 2, 1));
        assert_eq!(reader.materialize().unwrap(), model);

        // Flip one byte inside the last chunk's payload: open() still
        // succeeds (it only walks frame heads), but materialize() must
        // refuse the whole model.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 8;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let reader = ModelReader::open(&path).expect("header-only open survives");
        let err = reader.materialize().unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("section checksum mismatch")), "got {err:?}");
    }

    /// A model saved over the path between `open` and `materialize` (saves
    /// commit by rename) does not leak into the reader: it returns the
    /// model whose shape `open` reported.
    #[test]
    fn materialize_returns_the_opened_model_after_the_path_is_replaced() {
        let model = toy();
        let path = tmp("replaced");
        save_model_v3(&model, &path).unwrap();
        let reader = ModelReader::open(&path).unwrap();
        let smaller = GemModel::from_raw(2, vec![1.0, 2.0], vec![], vec![], vec![], vec![]);
        save_model_v3(&smaller, &path).unwrap();
        let materialized = reader.materialize().unwrap();
        let on_disk = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(materialized, model);
        assert_eq!(on_disk, smaller);
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPExxxxxxxxxxxxxxxx").unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn rejects_truncation_as_corrupt_at_open() {
        let model = toy();
        let path = tmp("trunc");
        save_model_v3(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
        // A cut inside the last chunk's payload leaves every frame head
        // in place; `open` still refuses it, before any float is read.
        let err = ModelReader::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("truncated section")), "got {err:?}");
    }

    #[test]
    fn legacy_v2_rejects_single_bit_flip_anywhere() {
        // Flip one bit per byte position past the magic; every mutant must
        // fail to load (the CRC covers header and payload alike).
        for pos in 4..LEGACY_V2.len() {
            let mut bytes = LEGACY_V2.to_vec();
            bytes[pos] ^= 0x01;
            assert!(parse(&bytes).is_err(), "bit flip at byte {pos} loaded Ok");
        }
    }

    #[test]
    fn legacy_v2_rejects_trailing_garbage() {
        // Keep the CRC valid so the *structural* trailing-bytes check is
        // what fires: extend the covered region and restamp the trailer.
        let mut bytes = LEGACY_V2.to_vec();
        bytes.splice(bytes.len() - 4..bytes.len() - 4, [1, 2, 3]);
        restamp_v2(&mut bytes);
        let err = parse(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = encode_model(&toy()).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(parse(&bytes).unwrap_err(), PersistError::BadVersion(99)));
        let path = tmp("version");
        std::fs::write(&path, &bytes).unwrap();
        let err = ModelReader::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::BadVersion(99)));
    }

    /// Regression: `model.v1` and `model.v2` share the stem `model`, and
    /// the old `path.with_extension("tmp")` scheme sent both savers through
    /// the *same* `model.tmp`, corrupting one or both snapshots. Temp names
    /// now append to the full filename, so concurrent sibling saves are
    /// independent.
    #[test]
    fn concurrent_sibling_stems_do_not_clobber() {
        let dir = tmp("siblings");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = toy();
        let mut m2 = toy();
        m2.users[0] = 42.0;
        let p1 = dir.join("model.v1");
        let p2 = dir.join("model.v2");
        std::thread::scope(|s| {
            let (m1, m2, p1, p2) = (&m1, &m2, &p1, &p2);
            s.spawn(move || {
                for _ in 0..50 {
                    save_model_v3(m1, p1).unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..50 {
                    save_model_v3(m2, p2).unwrap();
                }
            });
        });
        assert_eq!(load_model(&p1).unwrap(), m1);
        assert_eq!(load_model(&p2).unwrap(), m2);
        // No temp files leaked.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a matrix whose length is not a multiple of `dim` used to
    /// be silently truncated to whole rows (`rows = len / dim`); it is now
    /// rejected before any file is touched.
    #[test]
    fn rejects_ragged_matrix_without_leaving_files() {
        let mut model = toy();
        model.events.push(1.5); // 4 floats, dim 3 → ragged
        let dir = tmp("ragged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let err = save_model_v3(&model, &path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "ragged save must not create files"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_removes_temp_file() {
        let dir = tmp("errclean");
        std::fs::create_dir_all(&dir).unwrap();
        let model = toy();
        // The destination is a directory: the final rename fails after the
        // temp file was fully written — it must be cleaned up.
        let dest = dir.join("occupied");
        std::fs::create_dir_all(dest.join("x")).unwrap();
        let err = save_model_v3(&model, &dest).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "got {err:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_pathless_name_errors() {
        let model = toy();
        assert!(matches!(save_model_v3(&model, Path::new("/")).unwrap_err(), PersistError::Io(_)));
    }

    #[test]
    fn v3_round_trip_is_exact_at_every_chunking() {
        let model = toy();
        for chunk_rows in [1, 2, 3, 64] {
            let path = tmp(&format!("v3rt{chunk_rows}"));
            std::fs::write(&path, encode_chunked(&model, chunk_rows)).unwrap();
            let loaded = load_model(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, model, "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn v3_single_bit_flip_anywhere_is_rejected() {
        let clean = encode_chunked(&toy(), 2);
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            assert!(parse(&bytes).is_err(), "bit flip at byte {pos} loaded Ok");
        }
    }

    #[test]
    fn v3_reordered_chunks_are_rejected() {
        let bytes = encode_chunked(&toy(), 1);
        // Sections: 8-byte prologue, 40-byte header, then chunks. The two
        // user chunks are the first two and identically sized: swap them
        // (CRCs travel with their sections, so both frames stay
        // self-consistent — only the strict order check can catch this).
        let chunk = 8 + 12 + 3 * 4 + 4; // frame + meta + 3 floats + crc
        let first = 48;
        let mut swapped = bytes.clone();
        swapped[first..first + chunk].copy_from_slice(&bytes[first + chunk..first + 2 * chunk]);
        swapped[first + chunk..first + 2 * chunk].copy_from_slice(&bytes[first..first + chunk]);
        let err = parse(&swapped).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("chunk out of order")), "got {err:?}");
    }

    #[test]
    fn v3_trailing_section_is_rejected() {
        let mut bytes = encode_chunked(&toy(), 4);
        // A perfectly well-formed extra section after the expected last
        // chunk: structurally valid on its own, but the strict sequence
        // says the file must end.
        let mut extra = Vec::new();
        write_section(&mut extra, TAG_CHUNK, &[0u8; 12]).unwrap();
        bytes.extend_from_slice(&extra);
        let err = parse(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
        let path = tmp("v3trail");
        std::fs::write(&path, &bytes).unwrap();
        let err = ModelReader::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
    }

    /// A v3 file whose version field is damaged into 1 or 2 must be
    /// rejected, not misparsed: the v1 branch reads the first section tag
    /// as the dimension (tags are > 65 536 by construction), and the v2
    /// branch fails its whole-file CRC.
    #[test]
    fn v3_with_downgraded_version_field_never_misparses() {
        for v in [1u32, 2] {
            let mut bytes = encode_chunked(&toy(), 2);
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            assert!(parse(&bytes).is_err(), "version field {v}");
        }
    }

    #[test]
    fn rejects_non_finite_values() {
        // v3: the writer does not look at values, the reader must.
        let mut model = toy();
        model.time_slots[1] = f32::NAN;
        let err = parse(&encode_model(&model).unwrap()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("non-finite embedding value")), "{err:?}");
        // Legacy v2: smuggle a NaN past the CRC (restamp the trailer) so
        // the finite check, not the checksum, is what rejects it.
        let mut bytes = LEGACY_V2.to_vec();
        let payload_start = 4 + 4 + 4 + 20;
        bytes[payload_start..payload_start + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        restamp_v2(&mut bytes);
        let err = parse(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("non-finite embedding value")), "{err:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{encode_chunked, parse};
    use super::*;
    use proptest::prelude::*;

    fn toy() -> GemModel {
        GemModel::from_raw(
            4,
            vec![0.25; 4 * 6],
            vec![-1.5; 4 * 3],
            vec![2.0; 4],
            vec![0.0; 4 * 2],
            vec![1.0; 4 * 5],
        )
    }

    proptest! {
        /// Mutating arbitrary bytes of a saved model never panics the
        /// loader, and any mutant that still loads `Ok` must describe the
        /// original shape (a wrong-dimension model can never come back).
        #[test]
        fn mutated_snapshots_never_panic_or_change_shape(
            edits in proptest::collection::vec((0usize..4096, 0usize..256), 1..8),
            chunk_rows in 1usize..8,
        ) {
            let model = toy();
            let mut bytes = encode_chunked(&model, chunk_rows);
            for (pos, val) in edits {
                let idx = pos % bytes.len();
                bytes[idx] = val as u8;
            }
            // Rejection is the expected outcome; only a CRC-colliding
            // mutant (or a no-op rewrite) loads Ok, and then the shape
            // must still be the original's.
            if let Ok(loaded) = parse(&bytes) {
                prop_assert_eq!(loaded.dim, model.dim);
                prop_assert_eq!(loaded.users.len(), model.users.len());
                prop_assert_eq!(loaded.events.len(), model.events.len());
            }
        }

        /// v3 round-trip at arbitrary shapes and chunk granularities.
        #[test]
        fn v3_round_trips_any_shape_and_chunking(
            dim in 1usize..6,
            rows in proptest::collection::vec(0usize..9, 5..6),
            chunk_rows in 1usize..12,
            seed in 0u64..1000,
        ) {
            // Deterministic pseudo-random but finite values.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
            };
            let mats: Vec<Vec<f32>> = rows.iter().map(|&r| (0..r * dim).map(|_| next()).collect()).collect();
            let model = from_matrices(dim, mats);
            prop_assert_eq!(&parse(&encode_chunked(&model, chunk_rows)).unwrap(), &model);
        }

        /// Any single-byte change anywhere in a v3 file — prologue, header,
        /// chunk meta, floats, CRCs — must fail to load. Every byte is
        /// covered by a section CRC (or is the magic/version, which have
        /// their own checks), so a wrong model can never materialize.
        #[test]
        fn v3_single_byte_mutations_always_rejected(
            pos in 0usize..65_536,
            mask in 1usize..256,
            chunk_rows in 1usize..8,
        ) {
            let mut bytes = encode_chunked(&toy(), chunk_rows);
            let idx = pos % bytes.len();
            bytes[idx] ^= mask as u8;
            prop_assert!(
                parse(&bytes).is_err(),
                "mutation at byte {} (mask {:#04x}) loaded Ok", idx, mask
            );
        }

        /// Same property against the legacy layouts; v1 has no CRC, so
        /// structural checks alone must still prevent panics and
        /// out-of-bounds allocations.
        #[test]
        fn mutated_legacy_snapshots_never_panic(
            edits in proptest::collection::vec((0usize..4096, 0usize..256), 1..8),
        ) {
            for legacy in [super::tests::LEGACY_V1, super::tests::LEGACY_V2] {
                let mut bytes = legacy.to_vec();
                for &(pos, val) in &edits {
                    let idx = pos % bytes.len();
                    bytes[idx] = val as u8;
                }
                let _ = parse(&bytes); // must not panic
            }
        }
    }
}
