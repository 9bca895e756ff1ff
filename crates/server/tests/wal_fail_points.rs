//! WAL append fail points, exercised in their own process.
//!
//! `wal.append` and `wal.fsync` are process-global fail points. Armed from a
//! unit test, they fire on whichever append comes next — possibly another
//! test thread's, which then fails instead of this one. This integration
//! test binary holds nothing else, so the only appends are its own.

use gem_ebsn::EventId;
use gem_obs::faults::{self, FaultMode};
use gem_server::{ChurnWal, WalRecord};

#[test]
fn append_fail_points_surface_as_errors() {
    let path = std::env::temp_dir().join(format!("gem_wal_faults_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = ChurnWal::open(&path).unwrap();
    faults::arm("wal.append", FaultMode::Times(1));
    assert!(wal.append(&WalRecord::Add(EventId(1))).is_err());
    faults::arm("wal.fsync", FaultMode::Times(1));
    assert!(wal.append(&WalRecord::Add(EventId(2))).is_err());
    // The fsync-failed frame reached the file but was never acknowledged;
    // its bytes are valid, so replay MAY include it — the daemon's contract
    // is about acked ops only. What must hold: appends after the faults
    // succeed and replay is a valid sequence.
    wal.append(&WalRecord::Add(EventId(3))).unwrap();
    drop(wal);
    let (_, replay) = ChurnWal::open(&path).unwrap();
    assert!(replay.records.contains(&WalRecord::Add(EventId(3))));
    assert!(!replay.records.contains(&WalRecord::Add(EventId(1))));
    std::fs::remove_file(&path).unwrap();
}
