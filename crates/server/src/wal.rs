//! Crash-durable churn write-ahead log.
//!
//! The daemon's `202 Accepted` on `POST /events/add|retire` is a durability
//! promise: once the client has the ack, the op must survive a crash at any
//! later instant. The maintenance mailbox alone cannot honour that (it is
//! an in-memory mpsc), so every churn op is appended to this log — and
//! fsynced — *before* the 202 leaves the socket. On startup the daemon
//! replays the log into the freshly bootstrapped engine, restoring exactly
//! the acknowledged live-event set.
//!
//! # Format
//!
//! The file opens with an 8-byte magic (`GEMWAL1\n`) followed by CRC-framed
//! records in the persist-v3 / `gem_obs::stream` style:
//!
//! ```text
//! record  := len:u32le | payload[len] | crc32(len_le || payload):u32le
//! payload := 0x01 event:u32le                      (add)
//!          | 0x02 event:u32le                      (retire)
//!          | 0x03 gen:u64le count:u32le count*u32le (snapshot)
//! ```
//!
//! A **snapshot** record is written by compaction: after the maintenance
//! thread publishes a full rebuild it rewrites the log as one snapshot of
//! the live set (stamped with the published generation watermark) so the
//! log's length is bounded by churn-since-last-rebuild, not daemon uptime.
//! Compaction goes through a temp-file + `rename` so a crash mid-compact
//! leaves either the old or the new log, never a hybrid.
//!
//! # Torn tails
//!
//! `kill -9` between `write` and `fsync` can leave a torn final record.
//! [`ChurnWal::open`] replays every valid record and stops at the first
//! short or CRC-failing frame, truncating the file back to the last valid
//! boundary — the torn bytes were never acknowledged (the ack waits for
//! fsync), so dropping them loses nothing that was promised. Corruption
//! *before* the tail also stops the replay: a CRC mismatch mid-file means
//! the storage lied, and serving a prefix is the best available recovery
//! (the proptests in this module pin both behaviours).
//!
//! # Fail points
//!
//! `wal.append` (before the frame write) and `wal.fsync` (before
//! `sync_data`) inject `io::Error` when armed — the soak drill arms them
//! over HTTP-visible churn to prove a failed append is *not* acknowledged.
//! Their test lives in its own binary (`tests/wal_fail_points.rs`): armed
//! here, a process-global fail point would fire on another test's append.

use gem_ebsn::EventId;
use gem_obs::crc::crc32;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: 7 ASCII bytes + newline, 8 bytes total.
pub const WAL_MAGIC: &[u8; 8] = b"GEMWAL1\n";

const KIND_ADD: u8 = 1;
const KIND_RETIRE: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;

/// Guard against a corrupt length field asking for gigabytes: no record the
/// daemon writes exceeds a snapshot of every event id, and event ids are
/// u32, so 64 MiB is generous headroom.
const MAX_RECORD_BYTES: usize = 64 << 20;

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Event added to the live set.
    Add(EventId),
    /// Event retired from the live set.
    Retire(EventId),
    /// Compaction baseline: the full live set at publication of
    /// `generation`. Replaces (not merges with) whatever preceded it.
    Snapshot {
        /// The snapshot generation published just before compaction.
        generation: u64,
        /// The live event set at that publication, ascending.
        live: Vec<EventId>,
    },
}

impl WalRecord {
    fn payload(&self) -> Vec<u8> {
        match self {
            WalRecord::Add(x) => {
                let mut p = Vec::with_capacity(5);
                p.push(KIND_ADD);
                p.extend_from_slice(&x.0.to_le_bytes());
                p
            }
            WalRecord::Retire(x) => {
                let mut p = Vec::with_capacity(5);
                p.push(KIND_RETIRE);
                p.extend_from_slice(&x.0.to_le_bytes());
                p
            }
            WalRecord::Snapshot { generation, live } => {
                let mut p = Vec::with_capacity(13 + 4 * live.len());
                p.push(KIND_SNAPSHOT);
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&(live.len() as u32).to_le_bytes());
                for x in live {
                    p.extend_from_slice(&x.0.to_le_bytes());
                }
                p
            }
        }
    }

    fn parse(payload: &[u8]) -> Option<WalRecord> {
        let (&kind, rest) = payload.split_first()?;
        match kind {
            KIND_ADD | KIND_RETIRE => {
                let event = EventId(u32::from_le_bytes(rest.try_into().ok()?));
                Some(if kind == KIND_ADD {
                    WalRecord::Add(event)
                } else {
                    WalRecord::Retire(event)
                })
            }
            KIND_SNAPSHOT => {
                if rest.len() < 12 {
                    return None;
                }
                let generation = u64::from_le_bytes(rest[0..8].try_into().ok()?);
                let count = u32::from_le_bytes(rest[8..12].try_into().ok()?) as usize;
                let ids = &rest[12..];
                if ids.len() != count * 4 {
                    return None;
                }
                let live = ids
                    .chunks_exact(4)
                    .map(|c| EventId(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                    .collect();
                Some(WalRecord::Snapshot { generation, live })
            }
            _ => None,
        }
    }
}

/// What [`ChurnWal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes dropped past the last valid record (torn tail or mid-file
    /// corruption). Zero for a clean log.
    pub torn_bytes: u64,
    /// Generation watermark of the newest snapshot record, if any.
    pub snapshot_generation: Option<u64>,
}

/// An open, appendable churn log.
#[derive(Debug)]
pub struct ChurnWal {
    path: PathBuf,
    file: File,
}

impl ChurnWal {
    /// Open (or create) the log at `path`, replaying whatever it holds.
    /// The file is truncated back to its last valid record boundary, so
    /// subsequent appends extend a well-formed log.
    pub fn open(path: &Path) -> io::Result<(ChurnWal, WalReplay)> {
        // `truncate(false)` spelled out: an existing log must be replayed,
        // never wiped; only the invalid tail is cut below.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut replay = WalReplay::default();
        let valid_end: u64;
        if bytes.len() < WAL_MAGIC.len() {
            // Empty or torn mid-creation: (re)write the magic.
            if !WAL_MAGIC.starts_with(&bytes[..]) && !bytes.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a churn WAL (bad magic)", path.display()),
                ));
            }
            replay.torn_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            valid_end = WAL_MAGIC.len() as u64;
        } else {
            if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a churn WAL (bad magic)", path.display()),
                ));
            }
            let mut at = WAL_MAGIC.len();
            while let Some((record, end)) = next_record(&bytes, at) {
                if let WalRecord::Snapshot { generation, .. } = &record {
                    replay.snapshot_generation = Some(*generation);
                }
                replay.records.push(record);
                at = end;
            }
            replay.torn_bytes = (bytes.len() - at) as u64;
            valid_end = at as u64;
            if replay.torn_bytes > 0 {
                file.set_len(valid_end)?;
            }
        }
        file.seek(SeekFrom::Start(valid_end))?;
        Ok((ChurnWal { path: path.to_path_buf(), file }, replay))
    }

    /// Append one record and make it durable. Returns only after
    /// `sync_data` — the caller may acknowledge the op once this returns.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if let Some(e) = gem_obs::faults::io_error("wal.append") {
            return Err(e);
        }
        let payload = record.payload();
        let frame = frame_record(&payload);
        self.file.write_all(&frame)?;
        if let Some(e) = gem_obs::faults::io_error("wal.fsync") {
            return Err(e);
        }
        self.file.sync_data()
    }

    /// Rewrite the log as a single snapshot of `live` stamped with the
    /// published `generation` watermark. Atomic: the snapshot goes to a
    /// temp sibling, is fsynced, and renamed over the log — a crash at any
    /// instant leaves either the old log or the compacted one.
    pub fn compact(&mut self, generation: u64, live: &[EventId]) -> io::Result<()> {
        if let Some(e) = gem_obs::faults::io_error("wal.compact") {
            return Err(e);
        }
        let tmp = self.path.with_extension(format!("tmp.{}", std::process::id()));
        let payload = WalRecord::Snapshot { generation, live: live.to_vec() }.payload();
        {
            let mut f = File::create(&tmp)?;
            f.write_all(WAL_MAGIC)?;
            f.write_all(&frame_record(&payload))?;
            f.sync_data()?;
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Re-open the handle onto the renamed file: the old descriptor
        // still points at the unlinked pre-compaction inode.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        Ok(())
    }

    /// Current log size in bytes (magic + valid records).
    pub fn size_bytes(&mut self) -> io::Result<u64> {
        self.file.seek(SeekFrom::End(0))
    }
}

/// Frame a payload: `len | payload | crc32(len || payload)`.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let mut covered = Vec::with_capacity(4 + payload.len());
    covered.extend_from_slice(&len);
    covered.extend_from_slice(payload);
    let crc = crc32(&covered).to_le_bytes();
    covered.extend_from_slice(&crc);
    covered
}

/// Decode the record starting at `at`, returning it and the offset past
/// its CRC. `None` for a short, oversized, CRC-failing or unparseable
/// frame — the caller treats everything from `at` on as torn.
fn next_record(bytes: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    let head = bytes.get(at..at + 4)?;
    let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let payload = bytes.get(at + 4..at + 4 + len)?;
    let stored = bytes.get(at + 4 + len..at + 8 + len)?;
    let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
    if crc32(&bytes[at..at + 4 + len]) != stored {
        return None;
    }
    let record = WalRecord::parse(payload)?;
    Some((record, at + 8 + len))
}

/// Pure replay: the live set that results from applying `records` on top
/// of `initial`. A snapshot record *replaces* the set; add/retire are
/// idempotent, mirroring `IncrementalEngine::{add_event,retire_event}`.
pub fn apply_records(initial: &[EventId], records: &[WalRecord]) -> Vec<EventId> {
    let mut live: BTreeSet<EventId> = initial.iter().copied().collect();
    for record in records {
        match record {
            WalRecord::Add(x) => {
                live.insert(*x);
            }
            WalRecord::Retire(x) => {
                live.remove(x);
            }
            WalRecord::Snapshot { live: snap, .. } => {
                live = snap.iter().copied().collect();
            }
        }
    }
    live.into_iter().collect()
}

/// Order-insensitive fingerprint of a live-event set: FNV-1a 64 over the
/// ascending ids' LE bytes, truncated to 32 bits so it survives a round
/// trip through an f64 metrics gauge exactly. The soak drill recomputes
/// this client-side from its acknowledged ops and compares against the
/// `server.live_events_fp` gauge after a crash/restart.
pub fn live_fingerprint(sorted_live: &[EventId]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for x in sorted_live {
        for b in x.0.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash & 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "gem_wal_{}_{}_{name}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "_")
        ));
        p
    }

    fn ops(seq: &[(u8, u32)]) -> Vec<WalRecord> {
        seq.iter()
            .map(
                |&(k, x)| {
                    if k == 0 {
                        WalRecord::Add(EventId(x))
                    } else {
                        WalRecord::Retire(EventId(x))
                    }
                },
            )
            .collect()
    }

    #[test]
    fn round_trip_preserves_records() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = ops(&[(0, 3), (0, 7), (1, 3), (0, 1)]);
        {
            let (mut wal, replay) = ChurnWal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let (_, replay) = ChurnWal::open(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_round_trip_and_watermark() {
        let path = tmp_path("snap");
        let _ = std::fs::remove_file(&path);
        let live: Vec<EventId> = [2u32, 5, 9].map(EventId).to_vec();
        {
            let (mut wal, _) = ChurnWal::open(&path).unwrap();
            wal.append(&WalRecord::Add(EventId(99))).unwrap();
            wal.compact(41, &live).unwrap();
            wal.append(&WalRecord::Retire(EventId(5))).unwrap();
        }
        let (_, replay) = ChurnWal::open(&path).unwrap();
        assert_eq!(replay.snapshot_generation, Some(41));
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Snapshot { generation: 41, live: live.clone() },
                WalRecord::Retire(EventId(5)),
            ]
        );
        assert_eq!(apply_records(&[EventId(0)], &replay.records), [2u32, 9].map(EventId).to_vec());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_continue() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = ChurnWal::open(&path).unwrap();
            wal.append(&WalRecord::Add(EventId(1))).unwrap();
            wal.append(&WalRecord::Add(EventId(2))).unwrap();
        }
        // Tear the file mid-way through the last record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (mut wal, replay) = ChurnWal::open(&path).unwrap();
        assert_eq!(replay.records, vec![WalRecord::Add(EventId(1))]);
        assert!(replay.torn_bytes > 0, "the torn record's bytes are reported");
        // The file was truncated back to a valid boundary: appends work.
        wal.append(&WalRecord::Add(EventId(3))).unwrap();
        drop(wal);
        let (_, replay) = ChurnWal::open(&path).unwrap();
        assert_eq!(replay.records, ops(&[(0, 1), (0, 3)]));
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected_not_replayed() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"definitely not a WAL file").unwrap();
        let err = ChurnWal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_is_order_of_set_not_history() {
        let a = apply_records(&[], &ops(&[(0, 4), (0, 2), (1, 4), (0, 9)]));
        let b = apply_records(&[EventId(9)], &ops(&[(0, 2)]));
        assert_eq!(a, b);
        assert_eq!(live_fingerprint(&a), live_fingerprint(&b));
        assert_ne!(live_fingerprint(&a), live_fingerprint(&[EventId(2)]));
        assert!(live_fingerprint(&a) <= u32::MAX as u64, "fits an f64 gauge exactly");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Tentpole invariant: replaying a WAL that recorded an
            /// arbitrary op sequence yields exactly the scratch state (the
            /// set computed by applying the ops to an in-memory mirror).
            #[test]
            fn replay_equals_scratch_state(
                initial in prop::collection::btree_set(0u32..40, 0..10),
                seq in prop::collection::vec((0u8..2, 0u32..40), 0..60),
                compact_at in 0usize..61,
            ) {
                let path = tmp_path(&format!("prop_{}_{}_{}", initial.len(), seq.len(), compact_at));
                let _ = std::fs::remove_file(&path);
                let initial: Vec<EventId> = initial.into_iter().map(EventId).collect();
                let records = ops(&seq);

                let mut mirror: BTreeSet<EventId> = initial.iter().copied().collect();
                {
                    let (mut wal, _) = ChurnWal::open(&path).unwrap();
                    for (i, r) in records.iter().enumerate() {
                        if i == compact_at {
                            let live: Vec<EventId> = mirror.iter().copied().collect();
                            wal.compact(i as u64, &live).unwrap();
                        }
                        match r {
                            WalRecord::Add(x) => { mirror.insert(*x); }
                            WalRecord::Retire(x) => { mirror.remove(x); }
                            WalRecord::Snapshot { .. } => unreachable!(),
                        }
                        wal.append(r).unwrap();
                    }
                }
                let (_, replay) = ChurnWal::open(&path).unwrap();
                prop_assert_eq!(replay.torn_bytes, 0);
                let replayed = apply_records(&initial, &replay.records);
                let scratch: Vec<EventId> = mirror.into_iter().collect();
                prop_assert_eq!(replayed, scratch);
                std::fs::remove_file(&path).unwrap();
            }

            /// Single-byte corruption anywhere past the magic never panics,
            /// never invents records, and always replays a prefix of the
            /// original sequence (possibly interrupted where the flipped
            /// byte lands).
            #[test]
            fn single_byte_corruption_yields_a_valid_prefix(
                seq in prop::collection::vec((0u8..2, 0u32..40), 1..40),
                byte_seed in 0usize..10_000,
                flip in 1u32..256,
            ) {
                let path = tmp_path(&format!("corrupt_{}_{}", seq.len(), byte_seed));
                let _ = std::fs::remove_file(&path);
                let records = ops(&seq);
                {
                    let (mut wal, _) = ChurnWal::open(&path).unwrap();
                    for r in &records {
                        wal.append(r).unwrap();
                    }
                }
                let mut bytes = std::fs::read(&path).unwrap();
                let at = WAL_MAGIC.len() + byte_seed % (bytes.len() - WAL_MAGIC.len());
                bytes[at] ^= flip as u8;
                std::fs::write(&path, &bytes).unwrap();

                let (_, replay) = ChurnWal::open(&path).unwrap();
                // Recovered records are exactly a prefix of what was
                // written: corruption truncates, it never fabricates.
                prop_assert!(replay.records.len() <= records.len());
                prop_assert_eq!(&replay.records[..], &records[..replay.records.len()]);
                // And replaying the prefix agrees with a scratch mirror of
                // that same prefix.
                let replayed = apply_records(&[], &replay.records);
                let scratch = apply_records(&[], &records[..replay.records.len()]);
                prop_assert_eq!(replayed, scratch);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
