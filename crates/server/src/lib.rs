//! Long-running serving daemon for GEM event-partner recommendation.
//!
//! A zero-dependency HTTP/1.1 server (hand-rolled over std `TcpListener`,
//! in the style of the vendored `compat/*` crates) fronting a user-sharded
//! recommendation engine behind an atomically double-buffered `Arc` swap:
//!
//! - [`http`] — the protocol subset: request parsing, response writing,
//!   keep-alive, strict limits.
//! - [`swap`] — [`swap::GenerationCell`], the reader/writer publication
//!   point; pins one engine generation per request or batch.
//! - [`shard`] — per-shard admission control; overload sheds with 503
//!   instead of queueing.
//! - [`signal`] — zero-dep SIGTERM/SIGINT hook (direct FFI to the libc
//!   std already links) driving the graceful drain.
//! - [`daemon`] — the [`daemon::Daemon`]: serving workers, the
//!   maintenance thread owning the mutable
//!   [`gem_query::IncrementalEngine`] (incremental add/retire, background
//!   full rebuild past the staleness budget), routes, metrics and drain.
//! - [`wal`] — the crash-durable churn write-ahead log backing the 202
//!   acknowledgement: fsync-before-ack appends, snapshot compaction after
//!   published rebuilds, torn-tail-tolerant startup replay.
//!
//! See DESIGN.md §5.6 (daemon) and §5.9 (WAL + validated hot-reload +
//! chaos soak) for the architecture and invariants, and
//! `crates/bench/src/bin/soak_drill.rs` for the open-loop, fault-injected
//! soak (nominal, overload and drain legs) that gates this daemon in CI.

#![warn(missing_docs)]

pub mod daemon;
pub mod http;
pub mod shard;
pub mod signal;
pub mod swap;
pub mod wal;

pub use daemon::{Daemon, DaemonConfig, MaintOp};
pub use shard::{ShardPermit, ShardSet};
pub use swap::GenerationCell;
pub use wal::{apply_records, live_fingerprint, ChurnWal, WalRecord, WalReplay};
