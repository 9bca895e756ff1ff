//! Model persistence: save/load a trained [`GemModel`] snapshot.
//!
//! Training to convergence takes minutes; serving restarts shouldn't. The
//! format is a small self-describing binary file (version 2):
//!
//! ```text
//! magic "GEMM" | version u32 | dim u32 | 5 × (rows u32)
//!             | 5 × (rows·dim f32 LE) | crc32 u32
//! ```
//!
//! All integers and floats are little-endian. The CRC-32 trailer covers
//! every byte before it (magic through payload), so a torn write or a
//! bit-flip is rejected at load time as [`PersistError::Corrupt`] instead
//! of materializing as a garbage model. Version-1 files (identical layout
//! minus the trailer) are still readable behind a compat branch; new saves
//! always write version 2.
//!
//! # Version 3: chunk-streamed sections
//!
//! The scale tier adds a third layout for million-row models, written by
//! [`save_model_v3`] and read by [`load_model`] (materializing) or
//! [`ModelReader`] (lazy, row-on-demand):
//!
//! ```text
//! magic "GEMM" | version=3 u32 | header section | chunk section …
//! section  :=  tag u32 | len u32 | payload[len] | crc32(tag|len|payload)
//! header   :=  dim u32 | chunk_rows u32 | 5 × (rows u32)
//! chunk    :=  matrix u32 | start_row u32 | nrows u32 | nrows·dim f32 LE
//! ```
//!
//! Chunks follow in strict order — matrix 0..5, `start_row` ascending in
//! `chunk_rows` steps, the last chunk of each matrix short — so the reader
//! knows the exact sequence from the header alone and any deviation is
//! [`PersistError::Corrupt`]. Each section carries its own CRC-32, which
//! bounds both writer and reader memory at one chunk (~`chunk_rows · dim`
//! floats) instead of the whole model. Section tags are deliberately
//! `> 65 536` so a v3 file whose version byte is damaged into 1 trips the
//! v1 parser's implausible-dimension check rather than misparsing.
//!
//! Saves are atomic (unique temp sibling + fsync + rename) and carry
//! `persist.*` fail points ([`gem_obs::faults`]) at each step of that
//! protocol, so the crash paths — short write, failed fsync, failed
//! rename — are deterministically testable.

use crate::model::GemModel;
use gem_obs::crc::crc32;
use gem_obs::faults;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"GEMM";
const VERSION: u32 = 2;
/// Pre-checksum format: same layout, no CRC trailer. Read-only compat.
const VERSION_UNCHECKSUMMED: u32 = 1;
/// Chunk-streamed CRC-framed sections (see the module docs).
const VERSION_CHUNKED: u32 = 3;

/// Section tag of the v3 header ("HGEM"). Tags exceed 65 536 on purpose:
/// a v1-misparse reads the first tag as the model dimension and rejects it.
const TAG_HEADER: u32 = 0x4D45_4748;
/// Section tag of a v3 matrix chunk ("KHCC"-ish; value is arbitrary).
const TAG_CHUNK: u32 = 0x4B48_4343;

/// Rows per v3 chunk used by [`save_model_v3`]: at dim 64 this is ~1 MiB of
/// payload per section, small enough to bound writer/reader memory and
/// large enough that framing overhead is noise.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

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

/// Save a model to a file, atomically.
///
/// The snapshot is written to a unique temp sibling (`<file>.<pid>.<seq>.tmp`
/// — the *full* filename is the prefix, so concurrent saves of sibling
/// snapshots sharing a stem like `model.v1` / `model.v2` can never clobber
/// each other's temp file), fsynced, and renamed over `path`. On any write
/// error the temp file is removed. A matrix whose length is not a multiple
/// of `dim` is rejected as [`PersistError::Corrupt`] up front rather than
/// silently truncated to whole rows.
pub fn save_model(model: &GemModel, path: &Path) -> Result<(), PersistError> {
    let bytes = encode_model(model)?;
    atomic_write(path, &bytes)
}

/// Serialize a model to the version-2 on-disk byte layout (magic through
/// CRC trailer). Shared with the checkpoint format, which embeds the same
/// bytes as its model section.
pub(crate) fn encode_model(model: &GemModel) -> Result<Vec<u8>, PersistError> {
    let matrices = [&model.users, &model.events, &model.regions, &model.time_slots, &model.words];
    if model.dim == 0 {
        return Err(PersistError::Corrupt("zero dimension"));
    }
    for m in matrices {
        if m.len() % model.dim != 0 {
            return Err(PersistError::Corrupt("ragged matrix: length not a multiple of dim"));
        }
    }
    let payload: usize = matrices.iter().map(|m| m.len() * 4).sum();
    let mut bytes = Vec::with_capacity(4 + 4 + 4 + 20 + payload + 4);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(model.dim as u32).to_le_bytes());
    for m in matrices {
        bytes.extend_from_slice(&((m.len() / model.dim) as u32).to_le_bytes());
    }
    for m in matrices {
        for &v in m.iter() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

/// Save a model in the chunk-streamed version-3 layout, atomically.
///
/// Peak writer memory is one chunk (`DEFAULT_CHUNK_ROWS · dim` floats plus
/// framing), not the serialized model: each section is framed, checksummed
/// and flushed before the next is built. Readers get the same bound via
/// [`ModelReader`]. Use this for scale-tier snapshots; [`save_model`] keeps
/// writing version 2, which the checkpoint format embeds.
pub fn save_model_v3(model: &GemModel, path: &Path) -> Result<(), PersistError> {
    save_model_v3_chunked(model, path, DEFAULT_CHUNK_ROWS)
}

/// [`save_model_v3`] with an explicit chunk granularity (rows per chunk
/// section, ≥ 1). Small chunks are useful in tests; the default is
/// [`DEFAULT_CHUNK_ROWS`].
pub fn save_model_v3_chunked(
    model: &GemModel,
    path: &Path,
    chunk_rows: usize,
) -> Result<(), PersistError> {
    validate_for_save(model, chunk_rows)?;
    atomic_write_with(path, |w| write_v3(model, chunk_rows, w))
}

/// Serialize a model to the version-3 byte layout in memory (tests and
/// small models; production saves stream via [`save_model_v3`]).
#[cfg(test)]
pub(crate) fn encode_model_v3(
    model: &GemModel,
    chunk_rows: usize,
) -> Result<Vec<u8>, PersistError> {
    validate_for_save(model, chunk_rows)?;
    let mut bytes = Vec::new();
    write_v3(model, chunk_rows, &mut bytes)?;
    Ok(bytes)
}

/// Shape checks shared by both v3 entry points, run before any file is
/// touched (mirrors [`encode_model`]'s up-front rejection of ragged input).
fn validate_for_save(model: &GemModel, chunk_rows: usize) -> Result<(), PersistError> {
    if model.dim == 0 {
        return Err(PersistError::Corrupt("zero dimension"));
    }
    if chunk_rows == 0 {
        return Err(PersistError::Corrupt("zero chunk rows"));
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

/// Emit the full v3 byte stream (magic, version, header section, chunk
/// sections in strict order) through `w`, buffering at most one section.
fn write_v3<W: Write>(model: &GemModel, chunk_rows: usize, w: &mut W) -> Result<(), PersistError> {
    let matrices = model_matrices(model);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION_CHUNKED.to_le_bytes())?;

    let mut header = Vec::with_capacity(28);
    header.extend_from_slice(&(model.dim as u32).to_le_bytes());
    header.extend_from_slice(&(chunk_rows as u32).to_le_bytes());
    for m in matrices {
        header.extend_from_slice(&((m.len() / model.dim) as u32).to_le_bytes());
    }
    write_section(w, TAG_HEADER, &header)?;

    let mut payload = Vec::with_capacity(12 + chunk_rows.min(1 << 20) * model.dim * 4);
    for (mi, m) in matrices.iter().enumerate() {
        let rows = m.len() / model.dim;
        let mut start = 0usize;
        while start < rows {
            let nrows = chunk_rows.min(rows - start);
            payload.clear();
            payload.extend_from_slice(&(mi as u32).to_le_bytes());
            payload.extend_from_slice(&(start as u32).to_le_bytes());
            payload.extend_from_slice(&(nrows as u32).to_le_bytes());
            for &v in &m[start * model.dim..(start + nrows) * model.dim] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            write_section(w, TAG_CHUNK, &payload)?;
            start += nrows;
        }
    }
    Ok(())
}

/// Frame one section: `tag | len | payload | crc32(tag|len|payload)`.
fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> Result<(), PersistError> {
    let mut crc = gem_obs::crc::Crc32::new();
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

/// Write `bytes` to `path` atomically: unique temp sibling, fsync, rename,
/// temp cleanup on failure. Fail points: `persist.short_write` (the file's
/// contents are truncated to half *after* the write but the commit rename
/// still happens — the `kill -9` torn-write scenario), `persist.fsync` and
/// `persist.rename` (the corresponding syscall returns an injected error).
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    atomic_write_with(path, |w| w.write_all(bytes).map_err(PersistError::from))
}

/// Streaming variant of [`atomic_write`]: `emit` writes the payload into a
/// buffered temp-file writer, so callers (the v3 chunk writer) never hold
/// the whole file in memory. Same commit protocol and fail points: the
/// temp file is flushed, optionally truncated to half by the
/// `persist.short_write` fault (the `kill -9` torn-write scenario — the
/// rename still commits), fsynced (`persist.fsync`), renamed over `path`
/// (`persist.rename`), and removed on any failure.
pub(crate) fn atomic_write_with(
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

/// Load a model from a file.
pub fn load_model(path: &Path) -> Result<GemModel, PersistError> {
    let bytes = std::fs::read(path)?;
    parse_model(&bytes)
}

/// Parse the on-disk model layout (either version) from bytes.
pub(crate) fn parse_model(bytes: &[u8]) -> Result<GemModel, PersistError> {
    if bytes.len() < 8 {
        return Err(PersistError::Corrupt("truncated header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let body = match version {
        VERSION_UNCHECKSUMMED => &bytes[8..],
        VERSION => {
            if bytes.len() < 12 {
                return Err(PersistError::Corrupt("truncated header"));
            }
            let (covered, trailer) = bytes.split_at(bytes.len() - 4);
            let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
            if crc32(covered) != stored {
                return Err(PersistError::Corrupt("checksum mismatch"));
            }
            &covered[8..]
        }
        VERSION_CHUNKED => return parse_model_v3(&bytes[8..]),
        v => return Err(PersistError::BadVersion(v)),
    };
    parse_model_body(body)
}

/// Parse the section stream of a version-3 body (everything after the
/// 8-byte magic+version prologue): header section, then the exact expected
/// chunk sequence, then end-of-input.
fn parse_model_v3(body: &[u8]) -> Result<GemModel, PersistError> {
    let mut cur = Cursor { body, pos: 0 };
    let (tag, header) = read_section(&mut cur)?;
    if tag != TAG_HEADER {
        return Err(PersistError::Corrupt("missing header section"));
    }
    let (dim, chunk_rows, rows) = parse_v3_header(header)?;

    let mut matrices: Vec<Vec<f32>> = Vec::with_capacity(5);
    for (mi, &nrows_total) in rows.iter().enumerate() {
        let mut matrix: Vec<f32> = Vec::new();
        let mut start = 0usize;
        while start < nrows_total {
            let nrows = chunk_rows.min(nrows_total - start);
            let (tag, payload) = read_section(&mut cur)?;
            if tag != TAG_CHUNK {
                return Err(PersistError::Corrupt("expected chunk section"));
            }
            parse_chunk_into(payload, (mi, start, nrows), dim, &mut matrix)?;
            start += nrows;
        }
        matrices.push(matrix);
    }
    if cur.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    let mut it = matrices.into_iter();
    Ok(GemModel::from_raw(
        dim,
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
    ))
}

/// Validate and unpack the 28-byte v3 header payload.
fn parse_v3_header(payload: &[u8]) -> Result<(usize, usize, [usize; 5]), PersistError> {
    if payload.len() != 28 {
        return Err(PersistError::Corrupt("header size mismatch"));
    }
    let mut cur = Cursor { body: payload, pos: 0 };
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
    Ok((dim, chunk_rows, rows))
}

/// Validate a chunk payload against its expected `(matrix, start, nrows)`
/// position in the strict sequence and append its floats to `out`.
fn parse_chunk_into(
    payload: &[u8],
    expected: (usize, usize, usize),
    dim: usize,
    out: &mut Vec<f32>,
) -> Result<(), PersistError> {
    let mut cur = Cursor { body: payload, pos: 0 };
    let matrix = cur.read_u32()? as usize;
    let start = cur.read_u32()? as usize;
    let nrows = cur.read_u32()? as usize;
    if (matrix, start, nrows) != expected {
        return Err(PersistError::Corrupt("chunk out of order"));
    }
    let floats = nrows.checked_mul(dim).ok_or(PersistError::Corrupt("chunk size mismatch"))?;
    if cur.remaining() != floats * 4 {
        return Err(PersistError::Corrupt("chunk size mismatch"));
    }
    out.reserve(floats);
    for _ in 0..floats {
        let v = f32::from_le_bytes(cur.read_array()?);
        if !v.is_finite() {
            return Err(PersistError::Corrupt("non-finite embedding value"));
        }
        out.push(v);
    }
    Ok(())
}

/// Read one CRC-framed section (`tag | len | payload | crc`) and verify
/// its checksum; returns the tag and a borrow of the payload.
fn read_section<'a>(cur: &mut Cursor<'a>) -> Result<(u32, &'a [u8]), PersistError> {
    let frame_start = cur.pos;
    let tag = cur.read_u32()?;
    let len = cur.read_u32()? as usize;
    if cur.remaining() < len + 4 {
        return Err(PersistError::Corrupt("truncated section"));
    }
    let payload = &cur.body[cur.pos..cur.pos + len];
    cur.pos += len;
    let stored = cur.read_u32()?;
    if crc32(&cur.body[frame_start..frame_start + 8 + len]) != stored {
        return Err(PersistError::Corrupt("section checksum mismatch"));
    }
    Ok((tag, payload))
}

/// Parse `dim | 5×rows | payload` and reject trailing bytes.
fn parse_model_body(body: &[u8]) -> Result<GemModel, PersistError> {
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
        for _ in 0..floats {
            let v = f32::from_le_bytes(cur.read_array()?);
            if !v.is_finite() {
                return Err(PersistError::Corrupt("non-finite embedding value"));
            }
            m.push(v);
        }
        matrices.push(m);
    }
    // Anything left over means the header lied.
    if cur.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    let mut it = matrices.into_iter();
    Ok(GemModel::from_raw(
        dim,
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
        it.next().expect("5 matrices"),
    ))
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

/// Load a version-3 model with bounded memory: the file is never held in
/// RAM in full — each chunk is read, CRC-verified and appended in turn.
/// Peak overhead beyond the returned model is one chunk buffer.
pub fn load_model_streaming(path: &Path) -> Result<GemModel, PersistError> {
    ModelReader::open(path)?.materialize()
}

/// Expected location and identity of one chunk section, derived from the
/// (CRC-verified) header at open time — never from unverified chunk bytes.
#[derive(Debug, Clone, Copy)]
struct ChunkSpan {
    /// Byte offset of the section frame (its tag field) in the file.
    offset: u64,
    /// Payload length in bytes (excluding the 8-byte frame head and CRC).
    len: usize,
    /// Expected `(matrix, start_row, nrows)` of this chunk.
    expect: (usize, usize, usize),
}

/// Lazy reader over a version-3 model file: rows materialize on demand.
///
/// [`ModelReader::open`] reads and CRC-verifies only the header, then walks
/// the section frames recording where each chunk lives (the strict chunk
/// order makes every frame's expected identity and size a pure function of
/// the header, so a lying frame head is rejected at open). Chunk *payloads*
/// are read and checksum-verified on first access by [`ModelReader::row`],
/// with a one-chunk cache — sequential row scans over a matrix read the
/// file once. A corrupt chunk surfaces as [`PersistError::Corrupt`] at
/// access time; a wrong row can never be returned.
///
/// Version 1/2 files are whole-file formats — load those with
/// [`load_model`].
#[derive(Debug)]
pub struct ModelReader {
    file: std::fs::File,
    dim: usize,
    chunk_rows: usize,
    rows: [usize; 5],
    chunks: Vec<ChunkSpan>,
    /// First chunk index of each matrix in `chunks`.
    chunk_base: [usize; 5],
    /// Index into `chunks` of the verified chunk in `cached`
    /// (`usize::MAX` = nothing cached yet).
    cached_chunk: usize,
    cached: Vec<f32>,
}

impl ModelReader {
    /// Open a v3 model file, verifying magic, version, the header section's
    /// CRC, and the chunk skeleton (tags, frame sizes, no trailing bytes).
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let mut file = std::fs::File::open(path)?;
        let mut prologue = [0u8; 8];
        read_exact_or_corrupt(&mut file, &mut prologue, "truncated header")?;
        if &prologue[0..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(prologue[4..8].try_into().expect("4 bytes"));
        if version != VERSION_CHUNKED {
            return Err(PersistError::BadVersion(version));
        }

        // Header section: small, read and verify eagerly.
        let mut frame = [0u8; 8];
        read_exact_or_corrupt(&mut file, &mut frame, "truncated section")?;
        let tag = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
        if tag != TAG_HEADER {
            return Err(PersistError::Corrupt("missing header section"));
        }
        if len != 28 {
            return Err(PersistError::Corrupt("header size mismatch"));
        }
        let mut rest = vec![0u8; len + 4];
        read_exact_or_corrupt(&mut file, &mut rest, "truncated section")?;
        let mut crc = gem_obs::crc::Crc32::new();
        crc.update(&frame);
        crc.update(&rest[..len]);
        let stored = u32::from_le_bytes(rest[len..].try_into().expect("4 bytes"));
        if crc.finish() != stored {
            return Err(PersistError::Corrupt("section checksum mismatch"));
        }
        let (dim, chunk_rows, rows) = parse_v3_header(&rest[..len])?;

        // Walk the chunk skeleton: frame heads only, payloads skipped.
        let mut chunks = Vec::new();
        let mut chunk_base = [0usize; 5];
        let mut at = file.stream_position()?;
        for (mi, &nrows_total) in rows.iter().enumerate() {
            chunk_base[mi] = chunks.len();
            let mut start = 0usize;
            while start < nrows_total {
                let nrows = chunk_rows.min(nrows_total - start);
                read_exact_or_corrupt(&mut file, &mut frame, "truncated section")?;
                let tag = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
                let len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
                if tag != TAG_CHUNK {
                    return Err(PersistError::Corrupt("expected chunk section"));
                }
                let expected_len = nrows
                    .checked_mul(dim)
                    .and_then(|f| f.checked_mul(4))
                    .and_then(|b| b.checked_add(12))
                    .ok_or(PersistError::Corrupt("chunk size mismatch"))?;
                if len != expected_len {
                    return Err(PersistError::Corrupt("chunk size mismatch"));
                }
                chunks.push(ChunkSpan { offset: at, len, expect: (mi, start, nrows) });
                at = file.seek(SeekFrom::Current(len as i64 + 4))?;
                start += nrows;
            }
        }
        // EOF must land exactly after the last chunk's CRC.
        if file.read(&mut [0u8; 1])? != 0 {
            return Err(PersistError::Corrupt("trailing bytes"));
        }
        Ok(Self {
            file,
            dim,
            chunk_rows,
            rows,
            chunks,
            chunk_base,
            cached_chunk: usize::MAX,
            cached: Vec::new(),
        })
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row counts of the five matrices (users, events, regions, time
    /// slots, words — the on-disk order).
    pub fn rows(&self) -> [usize; 5] {
        self.rows
    }

    /// Rows per chunk the file was written with.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
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

    /// Read and CRC-verify every chunk without keeping the model: the full
    /// validation a hot-reload wants before committing to a swap, at one
    /// chunk buffer of peak memory. [`Self::open`] already pinned the
    /// header and the chunk skeleton; this walks the payloads too, so a
    /// bit flip anywhere in the file is caught *before* the serving tier
    /// starts building on it.
    pub fn verify(&mut self) -> Result<(), PersistError> {
        for ci in 0..self.chunks.len() {
            self.load_chunk(ci)?;
        }
        Ok(())
    }

    /// One embedding row of matrix `matrix` (0 = users … 4 = words),
    /// materialized on demand. The owning chunk is read and CRC-verified on
    /// first access and cached until a different chunk is touched.
    pub fn row(&mut self, matrix: usize, row: usize) -> Result<&[f32], PersistError> {
        if matrix >= 5 || row >= self.rows[matrix] {
            return Err(PersistError::Corrupt("row index out of range"));
        }
        let ci = self.chunk_base[matrix] + row / self.chunk_rows;
        if self.cached_chunk != ci {
            self.load_chunk(ci)?;
        }
        let at = (row % self.chunk_rows) * self.dim;
        Ok(&self.cached[at..at + self.dim])
    }

    /// Read the whole model, chunk at a time (each chunk CRC-verified).
    /// Peak memory beyond the returned model is one chunk buffer.
    pub fn materialize(&mut self) -> Result<GemModel, PersistError> {
        let mut matrices: Vec<Vec<f32>> = Vec::with_capacity(5);
        for mi in 0..5 {
            let nrows = self.rows[mi];
            let mut matrix = Vec::with_capacity(nrows.saturating_mul(self.dim));
            for ci in self.chunk_base[mi]..self.chunk_base[mi] + num_chunks(nrows, self.chunk_rows)
            {
                self.load_chunk(ci)?;
                matrix.extend_from_slice(&self.cached);
            }
            matrices.push(matrix);
        }
        let mut it = matrices.into_iter();
        Ok(GemModel::from_raw(
            self.dim,
            it.next().expect("5 matrices"),
            it.next().expect("5 matrices"),
            it.next().expect("5 matrices"),
            it.next().expect("5 matrices"),
            it.next().expect("5 matrices"),
        ))
    }

    /// Read, CRC-verify and decode chunk `ci` into the cache.
    fn load_chunk(&mut self, ci: usize) -> Result<(), PersistError> {
        let span = self.chunks[ci];
        self.file.seek(SeekFrom::Start(span.offset))?;
        let mut framed = vec![0u8; 8 + span.len + 4];
        read_exact_or_corrupt(&mut self.file, &mut framed, "truncated section")?;
        let covered = 8 + span.len;
        let stored = u32::from_le_bytes(framed[covered..].try_into().expect("4 bytes"));
        if crc32(&framed[..covered]) != stored {
            return Err(PersistError::Corrupt("section checksum mismatch"));
        }
        self.cached.clear();
        self.cached_chunk = usize::MAX;
        parse_chunk_into(&framed[8..covered], span.expect, self.dim, &mut self.cached)?;
        self.cached_chunk = ci;
        Ok(())
    }
}

/// Chunk count of a matrix with `rows` rows at `chunk_rows` granularity.
fn num_chunks(rows: usize, chunk_rows: usize) -> usize {
    rows.div_ceil(chunk_rows)
}

/// `read_exact` that reports a short file as structural corruption rather
/// than a bare IO error, matching the slice parser's vocabulary.
fn read_exact_or_corrupt(
    file: &mut std::fs::File,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), PersistError> {
    file.read_exact(buf).map_err(|e| {
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

    #[test]
    fn round_trip_is_exact() {
        let model = toy();
        let path = tmp("roundtrip");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, model);
    }

    #[test]
    fn reader_validation_surface_reports_shape_and_catches_payload_flips() {
        let model = toy();
        let path = tmp("verify");
        save_model_v3(&model, &path).unwrap();

        let mut reader = ModelReader::open(&path).unwrap();
        assert_eq!(reader.num_users(), 2);
        assert_eq!(reader.num_events(), 1);
        assert_eq!(reader.dim(), 3);
        reader.verify().expect("pristine file verifies");

        // Flip one byte inside a chunk payload: open() still succeeds (it
        // only walks frame heads), but verify() must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 8; // inside the last chunk's payload/CRC
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = ModelReader::open(&path).expect("header-only open survives");
        assert!(matches!(reader.verify(), Err(PersistError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
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
    fn rejects_truncation_as_corrupt() {
        let model = toy();
        let path = tmp("trunc");
        save_model(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn rejects_single_bit_flip_anywhere() {
        let model = toy();
        let path = tmp("bitflip");
        save_model(&model, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit per byte position past the magic; every mutant must
        // fail to load (the CRC covers header and payload alike).
        for pos in 4..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(load_model(&path).is_err(), "bit flip at byte {pos} loaded Ok");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reads_legacy_unchecksummed_version_1() {
        let model = toy();
        let mut bytes = encode_model(&model).unwrap();
        // Rewrite as a v1 file: version field back to 1, trailer dropped.
        bytes.truncate(bytes.len() - 4);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let path = tmp("legacy");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, model);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let model = toy();
        let path = tmp("trailing");
        save_model(&model, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Keep the CRC valid so the *structural* trailing-bytes check is
        // what fires: extend the covered region and restamp the trailer.
        bytes.truncate(bytes.len() - 4);
        bytes.extend_from_slice(&[1, 2, 3]);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
    }

    #[test]
    fn rejects_future_version() {
        let model = toy();
        let path = tmp("version");
        save_model(&model, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
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
                    save_model(m1, p1).unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..50 {
                    save_model(m2, p2).unwrap();
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
        let err = save_model(&model, &path).unwrap_err();
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
        let err = save_model(&model, &dest).unwrap_err();
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
        assert!(matches!(save_model(&model, Path::new("/")).unwrap_err(), PersistError::Io(_)));
    }

    #[test]
    fn v3_round_trip_is_exact_at_every_chunking() {
        let model = toy();
        for chunk_rows in [1, 2, 3, 64] {
            let path = tmp(&format!("v3rt{chunk_rows}"));
            save_model_v3_chunked(&model, &path, chunk_rows).unwrap();
            let loaded = load_model(&path).unwrap();
            let streamed = load_model_streaming(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, model, "chunk_rows {chunk_rows}");
            assert_eq!(streamed, model, "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn v3_reader_serves_rows_lazily_and_reports_shape() {
        let model = toy();
        let path = tmp("v3rows");
        save_model_v3_chunked(&model, &path, 1).unwrap();
        let mut reader = ModelReader::open(&path).unwrap();
        assert_eq!(reader.dim(), 3);
        assert_eq!(reader.rows(), [2, 1, 0, 1, 0]);
        assert_eq!(reader.chunk_rows(), 1);
        assert_eq!(reader.row(0, 1).unwrap(), &model.users[3..6]);
        assert_eq!(reader.row(0, 0).unwrap(), &model.users[0..3]);
        assert_eq!(reader.row(3, 0).unwrap(), &model.time_slots[0..3]);
        assert!(reader.row(0, 2).is_err(), "row past the end");
        assert!(reader.row(2, 0).is_err(), "empty matrix has no rows");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_chunk_corruption_is_detected_at_access_not_open() {
        let model = toy();
        let path = tmp("v3lazy");
        save_model_v3_chunked(&model, &path, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload float byte in the *last* chunk (the time-slots
        // matrix): frame heads stay intact so open() succeeds, and rows of
        // other chunks still load.
        let pos = bytes.len() - 8;
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = ModelReader::open(&path).expect("skeleton still valid");
        assert!(reader.row(0, 0).is_ok(), "undamaged chunk still readable");
        let err = reader.row(3, 0).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("section checksum mismatch")), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_single_bit_flip_anywhere_is_rejected() {
        let model = toy();
        let clean = encode_model_v3(&model, 2).unwrap();
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            assert!(parse_model(&bytes).is_err(), "bit flip at byte {pos} loaded Ok");
        }
    }

    #[test]
    fn v3_reordered_chunks_are_rejected() {
        let model = toy();
        let bytes = encode_model_v3(&model, 1).unwrap();
        // Sections: 8-byte prologue, 40-byte header, then chunks. The two
        // user chunks are the first two and identically sized: swap them
        // (CRCs travel with their sections, so both frames stay
        // self-consistent — only the strict order check can catch this).
        let chunk = 8 + 12 + 3 * 4 + 4; // frame + meta + 3 floats + crc
        let first = 48;
        let mut swapped = bytes.clone();
        swapped[first..first + chunk].copy_from_slice(&bytes[first + chunk..first + 2 * chunk]);
        swapped[first + chunk..first + 2 * chunk].copy_from_slice(&bytes[first..first + chunk]);
        let err = parse_model(&swapped).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("chunk out of order")), "got {err:?}");
    }

    #[test]
    fn v3_trailing_section_is_rejected() {
        let model = toy();
        let mut bytes = encode_model_v3(&model, 4).unwrap();
        // A perfectly well-formed extra section after the expected last
        // chunk: structurally valid on its own, but the strict sequence
        // says the file must end.
        let mut extra = Vec::new();
        write_section(&mut extra, TAG_CHUNK, &[0u8; 12]).unwrap();
        bytes.extend_from_slice(&extra);
        let err = parse_model(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
        let path = tmp("v3trail");
        std::fs::write(&path, &bytes).unwrap();
        let err = ModelReader::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("trailing bytes")), "got {err:?}");
    }

    #[test]
    fn v3_failed_save_removes_temp_file() {
        let dir = tmp("v3errclean");
        std::fs::create_dir_all(&dir).unwrap();
        let model = toy();
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
    fn v3_rejects_zero_chunk_rows_and_ragged_input() {
        let model = toy();
        let path = tmp("v3shape");
        assert!(matches!(
            save_model_v3_chunked(&model, &path, 0).unwrap_err(),
            PersistError::Corrupt("zero chunk rows")
        ));
        let mut ragged = toy();
        ragged.events.push(1.5);
        assert!(matches!(save_model_v3(&ragged, &path).unwrap_err(), PersistError::Corrupt(_)));
        assert!(!path.exists(), "failed saves must not create files");
    }

    /// A v3 file whose version field is damaged into 1 or 2 must be
    /// rejected, not misparsed: the v1 branch reads the first section tag
    /// as the dimension (tags are > 65 536 by construction), and the v2
    /// branch fails its whole-file CRC.
    #[test]
    fn v3_with_downgraded_version_field_never_misparses() {
        let model = toy();
        for v in [1u32, 2] {
            let mut bytes = encode_model_v3(&model, 2).unwrap();
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            assert!(parse_model(&bytes).is_err(), "version field {v}");
        }
    }

    #[test]
    fn rejects_non_finite_values() {
        let model = toy();
        let path = tmp("nan");
        let mut bytes = encode_model(&model).unwrap();
        // Smuggle a NaN past the CRC (restamp the trailer) so the finite
        // check, not the checksum, is what rejects it.
        let payload_start = 4 + 4 + 4 + 20;
        bytes.truncate(bytes.len() - 4);
        bytes[payload_start..payload_start + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt("non-finite embedding value")));
    }
}

#[cfg(test)]
mod proptests {
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
        ) {
            let model = toy();
            let mut bytes = encode_model(&model).unwrap();
            for (pos, val) in edits {
                let idx = pos % bytes.len();
                bytes[idx] = val as u8;
            }
            // Rejection is the expected outcome; only a CRC-colliding
            // mutant (or a no-op rewrite) loads Ok, and then the shape
            // must still be the original's.
            if let Ok(loaded) = parse_model(&bytes) {
                prop_assert_eq!(loaded.dim, model.dim);
                prop_assert_eq!(loaded.users.len(), model.users.len());
                prop_assert_eq!(loaded.events.len(), model.events.len());
            }
        }

        /// v3 round-trip at arbitrary shapes and chunk granularities: both
        /// the materializing loader and the lazy reader reproduce every
        /// row exactly.
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
            let mut mats: Vec<Vec<f32>> = Vec::new();
            for &r in &rows {
                mats.push((0..r * dim).map(|_| next()).collect());
            }
            let mut it = mats.into_iter();
            let model = GemModel::from_raw(
                dim,
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
            );
            let bytes = encode_model_v3(&model, chunk_rows).unwrap();
            prop_assert_eq!(&parse_model(&bytes).unwrap(), &model);

            let path = std::env::temp_dir().join(format!(
                "gem-persist-v3prop-{}-{seed}-{dim}-{chunk_rows}",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).unwrap();
            let mut reader = ModelReader::open(&path).unwrap();
            let streamed = reader.materialize();
            let mats =
                [&model.users, &model.events, &model.regions, &model.time_slots, &model.words];
            for (mi, m) in mats.iter().enumerate() {
                for r in 0..m.len() / dim {
                    prop_assert_eq!(reader.row(mi, r).unwrap(), &m[r * dim..(r + 1) * dim]);
                }
            }
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(&streamed.unwrap(), &model);
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
            let model = toy();
            let mut bytes = encode_model_v3(&model, chunk_rows).unwrap();
            let idx = pos % bytes.len();
            bytes[idx] ^= mask as u8;
            prop_assert!(
                parse_model(&bytes).is_err(),
                "mutation at byte {} (mask {:#04x}) loaded Ok", idx, mask
            );
        }

        /// Same property against the legacy v1 layout, which has no CRC:
        /// structural checks alone must still prevent panics and
        /// out-of-bounds allocations.
        #[test]
        fn mutated_legacy_snapshots_never_panic(
            edits in proptest::collection::vec((0usize..4096, 0usize..256), 1..8),
        ) {
            let model = toy();
            let mut bytes = encode_model(&model).unwrap();
            bytes.truncate(bytes.len() - 4);
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            for (pos, val) in edits {
                let idx = pos % bytes.len();
                bytes[idx] = val as u8;
            }
            let _ = parse_model(&bytes); // must not panic
        }
    }
}
