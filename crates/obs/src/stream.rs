//! Streaming, size-capped trace capture.
//!
//! The in-memory [`TraceSink`] keeps every drained span until export —
//! fine for a bench run, fatal for an hour-long daemon soak: either the
//! process holds millions of spans, or the rings overflow and the tail of
//! the run (usually the interesting part) is silently gone. This module
//! trades *oldest* history for boundedness instead:
//!
//! * [`TraceStreamWriter`] drains span rings into a single file organized
//!   as a **ring of fixed-size chunks**. Chunks are written sequentially
//!   and wrap around past the size cap, overwriting the oldest chunk —
//!   so the file never exceeds the cap and always holds the *newest*
//!   window of spans. Every eviction is counted, never blocking.
//! * Each chunk is independently framed (sequence number, payload length,
//!   CRC32, event count, cumulative drop count), so a crash mid-write
//!   tears at most one chunk and the rest of the file stays readable —
//!   the same torn-tail philosophy as the JSONL journal.
//! * [`read_trace_stream`] reads the surviving chunks offline (skipping
//!   CRC failures, counting them), reorders by sequence number and
//!   exposes the spans as owned events plus a Chrome trace-event export
//!   identical in format to [`TraceSink::to_chrome_json`].
//!
//! # Rotation math
//!
//! A file capped at `C` bytes with chunk size `B` holds `S = ⌊(C − 16) /
//! B⌋` chunk slots (16 bytes of file header; each slot spends 32 bytes on
//! its chunk header). Chunk `seq` lives at slot `seq mod S`: once `seq ≥
//! S` every write evicts the chunk written `S` sequences ago. With ~30–60
//! bytes per encoded span, the default 64 KiB chunk retains ≈1–2 k spans,
//! so a 4 MiB cap keeps the newest ≈100 k spans of an arbitrarily long
//! run. Payload string tables are per-chunk (names repeat across chunks,
//! a few dozen bytes each), which is what makes chunks independently
//! decodable after the writer is gone.
//!
//! ```
//! use gem_obs::{read_trace_stream, TraceStreamWriter, Tracer};
//!
//! let dir = std::env::temp_dir().join("gem_obs_stream_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("run.trace");
//! let tracer = Tracer::new();
//! let mut writer = TraceStreamWriter::create(&path, 1 << 20).unwrap();
//! tracer.record_span("train.run", "train", 0, 1_000, &[("steps", 64)]);
//! writer.drain(&tracer).unwrap();
//! let stats = writer.finish().unwrap();
//! assert_eq!(stats.events_appended, 1);
//! let trace = read_trace_stream(&path).unwrap();
//! assert_eq!(trace.events[0].name, "train.run");
//! assert!(trace.to_chrome_json().contains("\"traceEvents\""));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::crc::crc32;
use crate::trace::{render_chrome, ChromeRow, SpanEvent, TraceSink, Tracer};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic + format version.
const FILE_MAGIC: &[u8; 8] = b"GEMTRC01";
/// magic(8) + chunk_bytes(4) + slot_count(4).
const FILE_HEADER_BYTES: usize = 16;
/// seq+1(8) + payload_len(4) + crc32(4) + events(4) + reserved(4) +
/// cumulative dropped(8).
const CHUNK_HEADER_BYTES: usize = 32;

/// Default chunk size (payload + chunk header), in bytes.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;
/// Smallest usable chunk: header plus room for a string table and a span.
const MIN_CHUNK_BYTES: usize = 256;

/// Payload item tags.
const ITEM_STRING: u8 = 1;
const ITEM_EVENT: u8 = 2;

/// Cumulative accounting of one finished [`TraceStreamWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStreamStats {
    /// Spans encoded into the file over the writer's lifetime (some may
    /// since have been evicted by rotation).
    pub events_appended: u64,
    /// Spans lost to chunk rotation (their chunk was overwritten).
    pub events_evicted: u64,
    /// Spans lost to ring overflow before the writer drained them.
    pub ring_dropped: u64,
    /// Spans too large for an empty chunk (only possible with tiny chunk
    /// sizes) — dropped, counted, never blocking.
    pub oversize_dropped: u64,
    /// Chunks written (= highest sequence number + 1).
    pub chunks_written: u64,
    /// Final file size in bytes (always ≤ the configured cap).
    pub file_bytes: u64,
}

impl TraceStreamStats {
    /// Every span recorded but not present in the file: ring overflow +
    /// rotation evictions + oversize drops.
    pub fn dropped_total(&self) -> u64 {
        self.ring_dropped + self.events_evicted + self.oversize_dropped
    }
}

/// Streams span rings to a size-capped chunked file. See the module docs
/// for the file layout and rotation math.
pub struct TraceStreamWriter {
    file: File,
    chunk_bytes: usize,
    slots: usize,
    /// Next chunk sequence number (== chunks written so far).
    seq: u64,
    /// Encoded payload of the chunk being accumulated.
    buf: Vec<u8>,
    buf_events: u32,
    /// Per-chunk string table (names, cats, arg names), reset per chunk.
    strings: Vec<String>,
    /// Event count of the chunk currently resident in each slot.
    slot_events: Vec<u32>,
    evicted: u64,
    oversize: u64,
    appended: u64,
    /// Internal drain sink; its `dropped()` is the cumulative ring count.
    sink: TraceSink,
}

impl TraceStreamWriter {
    /// Create (truncating) `path` with the default chunk size, capping the
    /// file at `max_file_bytes`.
    ///
    /// # Errors
    /// I/O errors, or `InvalidInput` when the cap cannot hold even one
    /// minimal chunk (`max_file_bytes < 272`).
    pub fn create<P: AsRef<Path>>(path: P, max_file_bytes: usize) -> io::Result<Self> {
        Self::create_with_chunk(path, max_file_bytes, DEFAULT_CHUNK_BYTES)
    }

    /// [`TraceStreamWriter::create`] with an explicit chunk size. The
    /// chunk is clamped to fit the cap (and to [`MIN_CHUNK_BYTES`]); the
    /// slot count is whatever the cap then allows.
    pub fn create_with_chunk<P: AsRef<Path>>(
        path: P,
        max_file_bytes: usize,
        chunk_bytes: usize,
    ) -> io::Result<Self> {
        let room = max_file_bytes.saturating_sub(FILE_HEADER_BYTES);
        if room < MIN_CHUNK_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "trace file cap {max_file_bytes} B cannot hold one \
                     {MIN_CHUNK_BYTES}-byte chunk"
                ),
            ));
        }
        let chunk_bytes = chunk_bytes.clamp(MIN_CHUNK_BYTES, room);
        let slots = room / chunk_bytes; // ≥ 1 by the clamp above
        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(path.as_ref())?;
        let mut header = [0u8; FILE_HEADER_BYTES];
        header[..8].copy_from_slice(FILE_MAGIC);
        header[8..12].copy_from_slice(&(chunk_bytes as u32).to_le_bytes());
        header[12..16].copy_from_slice(&(slots as u32).to_le_bytes());
        file.write_all(&header)?;
        Ok(Self {
            file,
            chunk_bytes,
            slots,
            seq: 0,
            buf: Vec::with_capacity(chunk_bytes),
            buf_events: 0,
            strings: Vec::new(),
            slot_events: vec![0; slots],
            evicted: 0,
            oversize: 0,
            appended: 0,
            sink: TraceSink::new(),
        })
    }

    /// Bytes the file can reach at most: header + slots × chunk.
    pub fn capacity_bytes(&self) -> usize {
        FILE_HEADER_BYTES + self.slots * self.chunk_bytes
    }

    /// Drain every pending span out of `tracer`'s rings and append it.
    /// Call periodically (e.g. per epoch) — often enough that the rings
    /// do not overflow between drains; overflow is still only a counted
    /// drop, never a stall.
    pub fn drain(&mut self, tracer: &Tracer) -> io::Result<()> {
        self.sink.drain(tracer);
        for event in self.sink.take_events() {
            self.append(&event)?;
        }
        Ok(())
    }

    /// Append one already-drained span (for callers that keep their own
    /// [`TraceSink`] and tee events into the stream).
    pub fn append(&mut self, event: &SpanEvent) -> io::Result<()> {
        let payload_cap = self.chunk_bytes - CHUNK_HEADER_BYTES;
        let mut scratch = Vec::with_capacity(64);
        let mut added = Vec::new();
        encode_event(event, &mut self.strings, &mut added, &mut scratch);
        if self.buf.len() + scratch.len() > payload_cap {
            // Undo the table additions: the event re-interns against the
            // fresh chunk's table after the flush.
            self.strings.truncate(self.strings.len() - added.len());
            if self.buf.is_empty() {
                // A single span larger than an empty chunk: drop, count.
                self.oversize += 1;
                return Ok(());
            }
            self.flush_chunk()?;
            scratch.clear();
            added.clear();
            encode_event(event, &mut self.strings, &mut added, &mut scratch);
            if scratch.len() > payload_cap {
                self.strings.truncate(self.strings.len() - added.len());
                self.oversize += 1;
                return Ok(());
            }
        }
        self.buf.extend_from_slice(&scratch);
        self.buf_events += 1;
        self.appended += 1;
        Ok(())
    }

    /// Spans lost to ring overflow so far (before reaching the writer).
    pub fn ring_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Flush the partial chunk (if any) and return the final accounting.
    pub fn finish(mut self) -> io::Result<TraceStreamStats> {
        if self.buf_events > 0 {
            self.flush_chunk()?;
        }
        self.file.flush()?;
        let file_bytes = self.file.metadata()?.len();
        debug_assert!(file_bytes as usize <= self.capacity_bytes());
        Ok(TraceStreamStats {
            events_appended: self.appended,
            events_evicted: self.evicted,
            ring_dropped: self.sink.dropped(),
            oversize_dropped: self.oversize,
            chunks_written: self.seq,
            file_bytes,
        })
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        let slot = (self.seq % self.slots as u64) as usize;
        // Overwriting a resident chunk evicts its events — count them
        // *before* the write so the header's cumulative figure is current.
        self.evicted += self.slot_events[slot] as u64;
        self.slot_events[slot] = self.buf_events;
        let dropped_total = self.sink.dropped() + self.evicted + self.oversize;
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        header[..8].copy_from_slice(&(self.seq + 1).to_le_bytes());
        header[8..12].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
        header[12..16].copy_from_slice(&crc32(&self.buf).to_le_bytes());
        header[16..20].copy_from_slice(&self.buf_events.to_le_bytes());
        header[24..32].copy_from_slice(&dropped_total.to_le_bytes());
        let offset = (FILE_HEADER_BYTES + slot * self.chunk_bytes) as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&header)?;
        self.file.write_all(&self.buf)?;
        self.seq += 1;
        self.buf.clear();
        self.buf_events = 0;
        self.strings.clear();
        Ok(())
    }
}

impl std::fmt::Debug for TraceStreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceStreamWriter(chunk={}B, slots={}, seq={}, appended={})",
            self.chunk_bytes, self.slots, self.seq, self.appended
        )
    }
}

/// Encode one event, interning any new strings into `table` (their
/// definitions are emitted into `out` before the event record). Newly
/// added strings are also pushed to `added` so a caller can roll the
/// table back if the event does not fit the current chunk.
fn encode_event(
    event: &SpanEvent,
    table: &mut Vec<String>,
    added: &mut Vec<String>,
    out: &mut Vec<u8>,
) {
    let mut intern = |s: &str, out: &mut Vec<u8>| -> u64 {
        if let Some(i) = table.iter().position(|t| t == s) {
            return i as u64;
        }
        out.push(ITEM_STRING);
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
        table.push(s.to_string());
        added.push(s.to_string());
        (table.len() - 1) as u64
    };
    let name_id = intern(event.name, out);
    let cat_id = intern(event.cat, out);
    let arg_ids: Vec<u64> = event.args.iter().map(|&(k, _)| intern(k, out)).collect();
    out.push(ITEM_EVENT);
    put_varint(out, name_id);
    put_varint(out, cat_id);
    put_varint(out, event.tid);
    put_varint(out, event.start_ns);
    put_varint(out, event.dur_ns);
    put_varint(out, event.args.len() as u64);
    for (id, &(_, v)) in arg_ids.iter().zip(&event.args) {
        put_varint(out, *id);
        put_varint(out, v);
    }
}

/// One decoded span from a streamed trace file. The owned twin of
/// [`SpanEvent`] — names come from the file, not from interned statics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpanEvent {
    /// Span name (e.g. `train.epoch`).
    pub name: String,
    /// Category / layer (e.g. `train`).
    pub cat: String,
    /// Chrome-trace thread id.
    pub tid: u64,
    /// Start, in nanoseconds on the recording tracer's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Counters attached at close.
    pub args: Vec<(String, u64)>,
}

/// A streamed trace file read back offline.
#[derive(Debug, Clone, Default)]
pub struct StreamedTrace {
    /// Surviving spans in sequence order (oldest retained chunk first).
    pub events: Vec<OwnedSpanEvent>,
    /// Spans recorded but not present: ring overflow + rotation evictions
    /// + oversize drops, as accounted by the newest surviving chunk.
    pub dropped_events: u64,
    /// Chunks whose CRC or framing failed (torn by a crash mid-write, or
    /// bit rot) — skipped, not fatal.
    pub corrupt_chunks: u64,
    /// Chunks decoded successfully.
    pub chunks: u64,
}

impl StreamedTrace {
    /// Chrome trace-event JSON, same format and ordering contract as
    /// [`TraceSink::to_chrome_json`].
    pub fn to_chrome_json(&self) -> String {
        render_chrome(
            self.events
                .iter()
                .map(|e| ChromeRow {
                    name: &e.name,
                    cat: &e.cat,
                    tid: e.tid,
                    start_ns: e.start_ns,
                    dur_ns: e.dur_ns,
                    args: e.args.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
                })
                .collect(),
        )
    }

    /// Write [`StreamedTrace::to_chrome_json`] to a file.
    pub fn write_chrome_json<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Read a file written by [`TraceStreamWriter`]: decode every chunk that
/// passes its CRC, in sequence order. Torn or corrupt chunks are skipped
/// and counted, like the journal's torn tail.
///
/// # Errors
/// I/O errors, or `InvalidData` when the file header is not a streamed
/// trace (wrong magic / inconsistent geometry).
pub fn read_trace_stream<P: AsRef<Path>>(path: P) -> io::Result<StreamedTrace> {
    let mut bytes = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut bytes)?;
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < FILE_HEADER_BYTES || &bytes[..8] != FILE_MAGIC {
        return Err(bad("not a GEMTRC01 streamed trace"));
    }
    let chunk_bytes = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let slots = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if chunk_bytes < MIN_CHUNK_BYTES || slots == 0 {
        return Err(bad("corrupt streamed-trace geometry"));
    }
    // (seq, events, cumulative dropped at write time)
    let mut chunks: Vec<(u64, Vec<OwnedSpanEvent>, u64)> = Vec::new();
    let mut out = StreamedTrace::default();
    for slot in 0..slots {
        let at = FILE_HEADER_BYTES + slot * chunk_bytes;
        if at + CHUNK_HEADER_BYTES > bytes.len() {
            break; // File never grew this far: remaining slots are unwritten.
        }
        let header = &bytes[at..at + CHUNK_HEADER_BYTES];
        let seq_plus_one = u64::from_le_bytes(header[..8].try_into().unwrap());
        if seq_plus_one == 0 {
            continue; // Slot never written.
        }
        let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let dropped = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let start = at + CHUNK_HEADER_BYTES;
        if payload_len > chunk_bytes - CHUNK_HEADER_BYTES || start + payload_len > bytes.len() {
            out.corrupt_chunks += 1;
            continue;
        }
        let payload = &bytes[start..start + payload_len];
        if crc32(payload) != crc {
            out.corrupt_chunks += 1;
            continue;
        }
        match decode_chunk(payload) {
            Some(events) => chunks.push((seq_plus_one - 1, events, dropped)),
            None => out.corrupt_chunks += 1,
        }
    }
    chunks.sort_by_key(|&(seq, _, _)| seq);
    out.chunks = chunks.len() as u64;
    // Cumulative counts are monotone in seq: the newest chunk has the
    // final word on how much history is missing.
    out.dropped_events = chunks.last().map(|&(_, _, d)| d).unwrap_or(0);
    for (_, events, _) in chunks {
        out.events.extend(events);
    }
    Ok(out)
}

/// Decode one chunk payload; `None` on any framing violation (the CRC
/// already passed, so this only fires on a writer bug or crafted input).
fn decode_chunk(payload: &[u8]) -> Option<Vec<OwnedSpanEvent>> {
    let mut strings: Vec<String> = Vec::new();
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        match tag {
            ITEM_STRING => {
                let len = get_varint(payload, &mut pos)? as usize;
                let bytes = payload.get(pos..pos + len)?;
                pos += len;
                strings.push(String::from_utf8(bytes.to_vec()).ok()?);
            }
            ITEM_EVENT => {
                let name_id = get_varint(payload, &mut pos)? as usize;
                let cat_id = get_varint(payload, &mut pos)? as usize;
                let tid = get_varint(payload, &mut pos)?;
                let start_ns = get_varint(payload, &mut pos)?;
                let dur_ns = get_varint(payload, &mut pos)?;
                let n_args = get_varint(payload, &mut pos)? as usize;
                let mut args = Vec::with_capacity(n_args);
                for _ in 0..n_args {
                    let id = get_varint(payload, &mut pos)? as usize;
                    let v = get_varint(payload, &mut pos)?;
                    args.push((strings.get(id)?.clone(), v));
                }
                events.push(OwnedSpanEvent {
                    name: strings.get(name_id)?.clone(),
                    cat: strings.get(cat_id)?.clone(),
                    tid,
                    start_ns,
                    dur_ns,
                    args,
                });
            }
            _ => return None,
        }
    }
    Some(events)
}

/// LEB128 unsigned varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gem_obs_stream_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("trace.bin")
    }

    #[test]
    fn round_trips_spans_with_args_across_threads() {
        let path = temp_path("roundtrip");
        let tracer = Tracer::new();
        tracer.record_span("train.run", "train", 100, 5_000, &[("steps", 64), ("threads", 2)]);
        std::thread::scope(|s| {
            let t = tracer.clone();
            s.spawn(move || t.record_span("train.worker", "train", 200, 4_000, &[("worker", 0)]));
        });
        tracer.record_span("serve.ta", "serve", 6_000, 300, &[]);
        let mut writer = TraceStreamWriter::create(&path, 1 << 20).unwrap();
        writer.drain(&tracer).unwrap();
        let stats = writer.finish().unwrap();
        assert_eq!(stats.events_appended, 3);
        assert_eq!(stats.dropped_total(), 0);

        let trace = read_trace_stream(&path).unwrap();
        assert_eq!(trace.events.len(), 3);
        assert_eq!((trace.dropped_events, trace.corrupt_chunks), (0, 0));
        let run = trace.events.iter().find(|e| e.name == "train.run").unwrap();
        assert_eq!(run.cat, "train");
        assert_eq!((run.start_ns, run.dur_ns), (100, 5_000));
        assert_eq!(run.args, vec![("steps".to_string(), 64), ("threads".to_string(), 2)]);
        let worker = trace.events.iter().find(|e| e.name == "train.worker").unwrap();
        assert_ne!(worker.tid, run.tid, "worker thread gets its own timeline");

        let json = trace.to_chrome_json();
        let doc = crate::json::parse(&json).expect("chrome export parses");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn long_run_stays_under_the_cap_and_counts_every_drop() {
        let path = temp_path("bounded");
        // Ring of 128; 2 000 spans is >10× ring capacity. Cap the file so
        // rotation must evict, and drain on a cadence that also forces
        // some ring overflow (batches of 200 > 128).
        let ring_capacity = 128;
        let total_spans = 2_000u64;
        let cap = 4 * 1024;
        let tracer = Tracer::with_capacity(ring_capacity);
        let mut writer = TraceStreamWriter::create_with_chunk(&path, cap, 512).unwrap();
        for i in 0..total_spans {
            tracer.record_span("train.step", "train", i * 10, 5, &[("step", i)]);
            if i % 200 == 199 {
                writer.drain(&tracer).unwrap();
            }
        }
        writer.drain(&tracer).unwrap();
        let stats = writer.finish().unwrap();

        assert!(stats.file_bytes <= cap as u64, "{} > cap {cap}", stats.file_bytes);
        assert!(stats.ring_dropped > 0, "batches of 200 must overflow a 128 ring");
        assert!(stats.events_evicted > 0, "a 4 KiB cap must rotate");
        assert_eq!(stats.oversize_dropped, 0);
        assert_eq!(stats.events_appended + stats.ring_dropped, total_spans);

        let trace = read_trace_stream(&path).unwrap();
        assert_eq!(trace.corrupt_chunks, 0);
        assert_eq!(trace.dropped_events, stats.dropped_total());
        assert_eq!(trace.events.len() as u64, total_spans - trace.dropped_events);
        // Rotation keeps the *newest* window of what reached the writer.
        // The ring drops the newest spans of each 200-span batch once it
        // is full, so the last survivor is the 128th span of the final
        // batch, and sequence order is preserved across chunks.
        let batch = 200u64;
        let last_kept = total_spans - batch + ring_capacity as u64 - 1;
        assert_eq!(trace.events.last().unwrap().args[0].1, last_kept);
        for pair in trace.events.windows(2) {
            assert!(pair[0].start_ns < pair[1].start_ns, "events out of order");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_chunks_are_skipped_and_counted() {
        let path = temp_path("corrupt");
        let tracer = Tracer::new();
        let mut writer = TraceStreamWriter::create_with_chunk(&path, 1 << 16, 512).unwrap();
        for i in 0..200u64 {
            tracer.record_span("e", "test", i, 1, &[("i", i)]);
        }
        writer.drain(&tracer).unwrap();
        let stats = writer.finish().unwrap();
        assert!(stats.chunks_written >= 2, "need multiple chunks to corrupt one");

        // Flip one payload byte of the first chunk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[FILE_HEADER_BYTES + CHUNK_HEADER_BYTES + 3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let trace = read_trace_stream(&path).unwrap();
        assert_eq!(trace.corrupt_chunks, 1);
        assert_eq!(trace.chunks + 1, stats.chunks_written);
        assert!(!trace.events.is_empty(), "other chunks still decode");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_trace_files_and_tiny_caps() {
        let path = temp_path("reject");
        std::fs::write(&path, b"definitely not a trace file").unwrap();
        let err = read_trace_stream(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = TraceStreamWriter::create(&path, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_and_in_memory_exports_agree() {
        let path = temp_path("parity");
        let tracer = Tracer::new();
        tracer.record_span("b", "test", 2_000, 500, &[("n", 3)]);
        tracer.record_span("a", "test", 1_000, 2_500, &[]);
        let mut sink = TraceSink::new();
        sink.drain(&tracer);
        let mut writer = TraceStreamWriter::create(&path, 1 << 20).unwrap();
        for e in sink.events() {
            writer.append(e).unwrap();
        }
        writer.finish().unwrap();
        let streamed = read_trace_stream(&path).unwrap();
        assert_eq!(streamed.to_chrome_json(), sink.to_chrome_json());
        std::fs::remove_file(&path).ok();
    }
}
