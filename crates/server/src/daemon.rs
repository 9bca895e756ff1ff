//! The serving daemon: a fixed pool of accept/serve threads over a shared
//! nonblocking `TcpListener`, fronting one [`GenerationCell`] of
//! [`EngineSnapshot`]s that a dedicated maintenance thread republishes
//! after absorbing event churn.
//!
//! # Threads
//!
//! - **Serving workers** (`DaemonConfig::workers`): accept a connection,
//!   run its keep-alive loop to completion, go back to accepting. Each
//!   request pins one snapshot generation ([`GenerationCell::load`]),
//!   passes per-shard admission ([`crate::shard::ShardSet`]) and serves
//!   under a wall-clock deadline via
//!   [`EngineSnapshot::try_top_n_deadline`] — the base engine's own query
//!   core under a deadline-degraded contract, so overload degrades result
//!   quality (verified prefixes) and sheds load (503) instead of growing
//!   queues.
//! - **Maintenance thread**: owns the mutable [`IncrementalEngine`].
//!   `POST /events/add|retire` enqueue onto its mpsc mailbox; it drains
//!   the mailbox in batches, applies the churn incrementally, runs a full
//!   rebuild once [`IncrementalEngine::needs_rebuild`] crosses the
//!   staleness budget — off the serving path; readers keep the old
//!   generation until the swap — and publishes a fresh snapshot.
//!
//! # Drain
//!
//! A drain starts when the process receives SIGTERM/SIGINT (via
//! [`crate::signal`], when `watch_os_signals` is set), or `POST /shutdown`
//! arrives, or [`Daemon::shutdown`] is called. Workers stop accepting,
//! finish the request in flight on each open connection, answer it with
//! `Connection: close`, and exit; then the maintenance mailbox is closed,
//! the maintenance thread drains it and returns the engine master; then
//! the final metrics snapshot is appended to the journal (if configured).
//!
//! # Durability
//!
//! With [`DaemonConfig::wal_path`] set, every accepted churn op is
//! appended — and fsynced — to a [`crate::wal::ChurnWal`] *before* the
//! `202` leaves the socket, and replayed into the engine on the next
//! start. `202` is then a crash-durability promise (DESIGN.md §5.9); a
//! failed append answers `500` and the op is not enqueued. After each
//! background rebuild the maintenance thread compacts the log to one
//! snapshot record stamped with the published generation watermark.
//!
//! # Routes
//!
//! | Route | Reply |
//! |---|---|
//! | `GET /healthz` | `200` JSON: status, uptime, generation, staleness, live events |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /stats` | metrics snapshot as JSON |
//! | `GET /recommend?user=U&n=N` | top-N for U, deadline-bounded |
//! | `POST /recommend_batch?n=N` (body: comma-separated user ids) | per-user top-N, one pinned generation |
//! | `POST /events/add?event=X` | `202`, WAL-fsynced (if configured) and queued for maintenance |
//! | `POST /events/retire?event=X` | `202`, WAL-fsynced (if configured) and queued for maintenance |
//! | `GET /events/live` | `200` JSON: published live-event ids + fingerprint |
//! | `POST /reload?path=P` | `200` after a validated model swap; `4xx`/`5xx` rejection keeps serving the old generation |
//! | `GET /report` | `200` HTML convergence dashboard (regenerated best-effort), else `404` with a hint |
//! | `POST /shutdown` | `200`, starts a drain |

use crate::http::{self, ParseError, Request, Response};
use crate::shard::ShardSet;
use crate::signal;
use crate::swap::GenerationCell;
use crate::wal::{apply_records, live_fingerprint, ChurnWal, WalRecord};
use gem_core::{ModelReader, PersistError};
use gem_ebsn::{EventId, UserId};
use gem_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use gem_query::{EngineSnapshot, IncrementalEngine, Recommendation, ServeError, ServeScratch};
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Serving worker threads (each handles one connection at a time).
    pub workers: usize,
    /// Admission shards (users hash to shards by index).
    pub shards: usize,
    /// Max in-flight queries per shard before shedding with 503.
    pub shard_capacity: usize,
    /// Per-query deadline for `/recommend` and each batch entry.
    pub deadline: Duration,
    /// Churn ops absorbed incrementally before a background full rebuild.
    pub staleness_budget: usize,
    /// Default `n` when a request does not pass one.
    pub top_n: usize,
    /// Idle keep-alive read timeout (also bounds drain latency: a worker
    /// blocked on an idle connection notices the drain within this).
    pub idle_timeout: Duration,
    /// Honour process-wide SIGTERM/SIGINT flags (disable in tests that
    /// share a process).
    pub watch_os_signals: bool,
    /// Path for the final drain journal (metrics snapshot); `None` skips.
    pub journal_path: Option<std::path::PathBuf>,
    /// Churn write-ahead log path. `Some` upgrades every churn `202` to a
    /// crash-durability promise: fsync-append before the ack, replay on
    /// the next start, compact after each rebuild. `None` keeps churn
    /// mailbox-only (the pre-WAL behaviour; a crash forgets queued ops).
    pub wal_path: Option<std::path::PathBuf>,
    /// Directory `GET /report` regenerates and serves `report.html` from
    /// (where the bench journals land; `.` for the working directory).
    pub report_dir: std::path::PathBuf,
    /// How long a `POST /reload` handler waits for the maintenance thread
    /// to validate + swap before answering `503` (the reload itself keeps
    /// running; a later retry observes the new generation).
    pub reload_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            shards: 8,
            shard_capacity: 64,
            deadline: Duration::from_millis(5),
            staleness_budget: 256,
            top_n: 10,
            idle_timeout: Duration::from_millis(100),
            watch_os_signals: true,
            journal_path: None,
            wal_path: None,
            report_dir: std::path::PathBuf::from("."),
            reload_timeout: Duration::from_secs(30),
        }
    }
}

/// Pre-registered `server.*` metric handles.
#[derive(Debug, Clone)]
pub(crate) struct ServerMetrics {
    pub requests: Counter,
    pub http_2xx: Counter,
    pub http_4xx: Counter,
    pub http_5xx: Counter,
    pub overload_sheds: Counter,
    pub batch_users: Counter,
    pub churn_queued: Counter,
    pub churn_rejected: Counter,
    pub request_ns: Histogram,
    pub generation: Gauge,
    pub staleness: Gauge,
    pub live_events: Gauge,
    pub publishes: Counter,
    pub rebuilds: Counter,
    /// WAL appends that reached `sync_data` (i.e. churn ops whose `202`
    /// carries the durability promise).
    pub wal_appends: Counter,
    /// WAL appends that failed (answered `500`, op not enqueued).
    pub wal_append_errors: Counter,
    /// Wall time of one append+fsync — the per-op durability tax the soak
    /// drill budgets under 2% of the serving leg.
    pub wal_append_ns: Histogram,
    /// Ops re-applied from the WAL during startup replay.
    pub wal_replayed_ops: Counter,
    /// Post-rebuild log compactions.
    pub wal_compactions: Counter,
    /// Current WAL size (magic + valid records), refreshed per append and
    /// compaction.
    pub wal_bytes: Gauge,
    /// Validated hot-reloads that swapped a new generation in.
    pub reloads: Counter,
    /// Hot-reloads rejected (corrupt file, dim mismatch, budget, injected
    /// fault) — the old generation kept serving.
    pub reloads_rejected: Counter,
    /// Order-insensitive 32-bit fingerprint of the published live-event
    /// set ([`crate::wal::live_fingerprint`]); the soak drill compares it
    /// against the fingerprint of everything it got a `202` for.
    pub live_events_fp: Gauge,
    /// `server.shard.<i>.sheds` — admission rejections per shard. The
    /// global `server.overload_sheds` stays the headline number; the
    /// per-shard split shows *which* shard is hot (skewed user hashing).
    pub shard_sheds: Vec<Counter>,
    /// `server.shard.<i>.in_flight` — queries currently admitted per
    /// shard, refreshed point-in-time at `/metrics` and `/stats` scrapes.
    pub shard_inflight: Vec<Gauge>,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry, num_shards: usize) -> Self {
        ServerMetrics {
            requests: registry.counter("server.requests"),
            http_2xx: registry.counter("server.http_2xx"),
            http_4xx: registry.counter("server.http_4xx"),
            http_5xx: registry.counter("server.http_5xx"),
            overload_sheds: registry.counter("server.overload_sheds"),
            batch_users: registry.counter("server.batch_users"),
            churn_queued: registry.counter("server.churn_queued"),
            churn_rejected: registry.counter("server.churn_rejected"),
            request_ns: registry.histogram("server.request_ns"),
            generation: registry.gauge("server.generation"),
            staleness: registry.gauge("server.staleness"),
            live_events: registry.gauge("server.live_events"),
            publishes: registry.counter("server.publishes"),
            rebuilds: registry.counter("server.rebuilds"),
            wal_appends: registry.counter("server.wal_appends"),
            wal_append_errors: registry.counter("server.wal_append_errors"),
            wal_append_ns: registry.histogram("server.wal_append_ns"),
            wal_replayed_ops: registry.counter("server.wal_replayed_ops"),
            wal_compactions: registry.counter("server.wal_compactions"),
            wal_bytes: registry.gauge("server.wal_bytes"),
            reloads: registry.counter("server.reloads"),
            reloads_rejected: registry.counter("server.reloads_rejected"),
            live_events_fp: registry.gauge("server.live_events_fp"),
            shard_sheds: (0..num_shards)
                .map(|i| registry.counter(&format!("server.shard.{i}.sheds")))
                .collect(),
            shard_inflight: (0..num_shards)
                .map(|i| registry.gauge(&format!("server.shard.{i}.in_flight")))
                .collect(),
        }
    }
}

/// Churn operations accepted over HTTP and applied by the maintenance
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintOp {
    /// Add `event` to the live set (delta overlay until the next rebuild).
    Add(EventId),
    /// Retire `event` from the live set (masked until the next rebuild).
    Retire(EventId),
}

impl MaintOp {
    /// The WAL record that makes this op durable.
    fn wal_record(self) -> WalRecord {
        match self {
            MaintOp::Add(x) => WalRecord::Add(x),
            MaintOp::Retire(x) => WalRecord::Retire(x),
        }
    }
}

/// What flows through the maintenance mailbox: churn ops, plus control
/// messages that must run on the thread owning the engine master.
enum MaintMsg {
    /// Apply one churn op.
    Op(MaintOp),
    /// Validate the model at `path` and swap it in, answering the blocked
    /// `POST /reload` handler through `reply` with the new generation or
    /// an HTTP `(status, message)` rejection.
    Reload { path: PathBuf, reply: mpsc::Sender<Result<u64, (u16, String)>> },
}

/// State shared by every worker and the maintenance thread.
struct Shared {
    cell: GenerationCell<EngineSnapshot>,
    shards: ShardSet,
    registry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
    cfg: DaemonConfig,
    shutdown: AtomicBool,
    maint_tx: mpsc::Sender<MaintMsg>,
    /// The churn WAL (when configured). The lock is held across
    /// append+enqueue so the log's record order always equals the
    /// mailbox's apply order — replay then reconstructs exactly the
    /// applied state even when ops on the *same* event raced.
    wal: Option<Mutex<ChurnWal>>,
    /// Live-event ids of the last published snapshot, for
    /// `GET /events/live` (workers never see the engine master).
    live_published: Mutex<Arc<Vec<EventId>>>,
    /// Daemon start time, for `/healthz` uptime.
    started: Instant,
    /// Milliseconds since `started` at the last snapshot publication —
    /// `/healthz` turns this into publication staleness so probes can
    /// alert on a wedged maintenance thread, not just a dead socket.
    last_publish_ms: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (self.cfg.watch_os_signals && signal::shutdown_requested())
    }

    /// Copy each shard's live in-flight count into its gauge, so a scrape
    /// sees a point-in-time split without the serving path paying for a
    /// gauge write on every admit/release.
    fn refresh_shard_gauges(&self) {
        for (i, gauge) in self.metrics.shard_inflight.iter().enumerate() {
            gauge.set(self.shards.in_flight_of(i) as f64);
        }
    }

    /// Mirror every armed fail point's hit counter into a
    /// `faults.<name>.hits` gauge, so a `/metrics` or `/stats` scrape
    /// shows which injected faults actually fired (the soak drill asserts
    /// on these). Gauges are get-or-create, so points armed after start
    /// (via `GEM_FAILPOINTS`) still show up.
    fn refresh_fault_gauges(&self) {
        for (name, hits) in gem_obs::faults::snapshot() {
            self.registry.gauge(&format!("faults.{name}.hits")).set(hits as f64);
        }
    }
}

/// A running daemon. Dropping it without [`Daemon::join`] aborts the
/// worker threads unjoined; call `join` for a graceful drain.
pub struct Daemon {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    workers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<IncrementalEngine>>,
}

impl Daemon {
    /// Bind `addr` (may be `host:0` for an ephemeral port), publish the
    /// engine's first snapshot and start serving.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        mut engine: IncrementalEngine,
        cfg: DaemonConfig,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let metrics = ServerMetrics::register(&registry, cfg.shards.max(1));

        // Replay the churn WAL before the first snapshot is published, so
        // the very first request already sees every previously
        // acknowledged op. A log that is not a churn WAL fails the bind —
        // silently serving without the promised durability would be worse.
        let wal = match &cfg.wal_path {
            Some(path) => {
                let (mut wal, replay) = ChurnWal::open(path)?;
                let replayed = replay_into(&mut engine, &replay.records, &metrics);
                if replayed > 0 && engine.needs_rebuild(cfg.staleness_budget) {
                    engine.rebuild();
                    metrics.rebuilds.inc();
                }
                if replay.torn_bytes > 0 || replayed > 0 {
                    eprintln!(
                        "gem-serverd: WAL replay from {}: {} record(s), {} op(s) re-applied, \
                         {} torn byte(s) dropped",
                        path.display(),
                        replay.records.len(),
                        replayed,
                        replay.torn_bytes,
                    );
                }
                metrics.wal_bytes.set(wal.size_bytes()? as f64);
                Some(Mutex::new(wal))
            }
            None => None,
        };

        let (maint_tx, maint_rx) = mpsc::channel::<MaintMsg>();
        let shared = Arc::new(Shared {
            cell: GenerationCell::new(engine.snapshot()),
            shards: ShardSet::new(cfg.shards, cfg.shard_capacity),
            registry,
            metrics,
            cfg,
            shutdown: AtomicBool::new(false),
            maint_tx,
            wal,
            live_published: Mutex::new(Arc::new(engine.live_events().to_vec())),
            started: Instant::now(),
            last_publish_ms: AtomicU64::new(0),
        });
        shared.metrics.live_events.set(engine.live_events().len() as f64);
        shared.metrics.live_events_fp.set(live_fingerprint(engine.live_events()) as f64);

        let maint = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gem-maint".into())
                .spawn(move || maintenance_loop(engine, maint_rx, &shared))?
        };

        let listener = Arc::new(listener);
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                thread::Builder::new()
                    .name(format!("gem-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Daemon { shared, local_addr, workers, maint: Some(maint) })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Snapshot generation currently being served.
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Request a drain (idempotent; workers notice within the accept/read
    /// poll interval).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once a drain has been requested by any trigger.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until the process-level drain flag or this daemon's
    /// [`Self::shutdown`] fires, polling every 20 ms.
    pub fn wait_for_shutdown(&self) {
        while !self.shared.draining() {
            thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful drain: stop accepting, finish in-flight requests, drain
    /// the maintenance mailbox, write the final journal. Returns the
    /// engine master (e.g. to checkpoint it).
    pub fn join(mut self) -> IncrementalEngine {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The maintenance loop polls the same drain flag, drains its
        // mailbox one last time and exits with the engine master.
        let maint = self.maint.take().expect("join called once");
        let engine = maint.join().expect("maintenance thread panicked");
        write_drain_journal(&self.shared);
        engine
    }
}

/// Append the final metrics snapshot to the drain journal, if configured.
fn write_drain_journal(shared: &Shared) {
    if let Some(path) = &shared.cfg.journal_path {
        let mut journal = match gem_obs::Journal::create(path) {
            Ok(j) => j,
            Err(_) => return,
        };
        let snap = shared.registry.snapshot();
        journal.append(
            &gem_obs::JournalRecord::new()
                .str("journal", "server_drain")
                .u64("generation", shared.cell.generation())
                .u64("requests", snap.counter("server.requests"))
                .u64("http_2xx", snap.counter("server.http_2xx"))
                .u64("http_5xx", snap.counter("server.http_5xx"))
                .u64("overload_sheds", snap.counter("server.overload_sheds"))
                .u64("degraded", snap.counter("serve.degraded"))
                .u64("in_flight_at_exit", shared.shards.in_flight() as u64),
        );
    }
}

/// Maintenance thread body: drain the mailbox in batches, absorb churn,
/// rebuild past the staleness budget, publish, compact the WAL after a
/// rebuild, run validated hot-reloads.
fn maintenance_loop(
    mut engine: IncrementalEngine,
    rx: mpsc::Receiver<MaintMsg>,
    shared: &Shared,
) -> IncrementalEngine {
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(msg) => {
                let mut dirty = handle_msg(&mut engine, msg, shared);
                // Batch whatever else is already queued into one
                // publication (and at most one rebuild).
                while let Ok(msg) = rx.try_recv() {
                    dirty |= handle_msg(&mut engine, msg, shared);
                }
                if engine.needs_rebuild(shared.cfg.staleness_budget) {
                    engine.rebuild();
                    shared.metrics.rebuilds.inc();
                    publish(&engine, shared);
                    compact_wal(&mut engine, &rx, shared);
                } else if dirty {
                    publish(&engine, shared);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.draining() {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Final churn (if any) still gets absorbed and published, so a
    // restart from this master sees everything that was acknowledged 202.
    let mut dirty = false;
    while let Ok(msg) = rx.try_recv() {
        dirty |= handle_msg(&mut engine, msg, shared);
    }
    if dirty {
        publish(&engine, shared);
    }
    engine
}

/// Dispatch one mailbox message on the maintenance thread. Returns whether
/// the engine's churn state changed and still needs publication — a
/// *rejected* reload must not disturb the serving generation (clients
/// assert "old generation keeps serving" on exactly that number), and a
/// successful reload publishes its own swap inside [`process_reload`].
fn handle_msg(engine: &mut IncrementalEngine, msg: MaintMsg, shared: &Shared) -> bool {
    match msg {
        MaintMsg::Op(op) => {
            apply_op(engine, op, shared);
            true
        }
        MaintMsg::Reload { path, reply } => {
            let outcome = process_reload(engine, &path, shared);
            match &outcome {
                Ok(_) => shared.metrics.reloads.inc(),
                Err(_) => shared.metrics.reloads_rejected.inc(),
            }
            // The handler may have timed out and gone away; the swap (if
            // any) already happened either way.
            let _ = reply.send(outcome);
            false
        }
    }
}

fn apply_op(engine: &mut IncrementalEngine, op: MaintOp, shared: &Shared) {
    let applied = match op {
        MaintOp::Add(x) => engine.add_event(x),
        MaintOp::Retire(x) => engine.retire_event(x),
    };
    if applied.is_err() {
        shared.metrics.churn_rejected.inc();
    }
}

fn publish(engine: &IncrementalEngine, shared: &Shared) {
    let generation = shared.cell.store(engine.snapshot());
    shared.metrics.publishes.inc();
    shared.metrics.generation.set(generation as f64);
    shared.metrics.staleness.set(engine.staleness() as f64);
    shared.metrics.live_events.set(engine.live_events().len() as f64);
    shared.metrics.live_events_fp.set(live_fingerprint(engine.live_events()) as f64);
    *shared.live_published.lock().expect("live list lock") =
        Arc::new(engine.live_events().to_vec());
    shared.last_publish_ms.store(shared.started.elapsed().as_millis() as u64, Ordering::Relaxed);
}

/// Rewrite the WAL as one snapshot of the live set just published by a
/// rebuild. Holding the WAL lock blocks new acks; anything acknowledged
/// *before* we took the lock but still sitting in the mailbox is folded
/// into the engine first, so the snapshot covers every `202` ever sent.
/// Best-effort: a failed compaction just leaves the log long (every
/// record is still there) and retries after the next rebuild.
fn compact_wal(engine: &mut IncrementalEngine, rx: &mpsc::Receiver<MaintMsg>, shared: &Shared) {
    let Some(wal) = &shared.wal else { return };
    let mut wal = wal.lock().expect("wal lock");
    let mut folded = false;
    while let Ok(msg) = rx.try_recv() {
        match msg {
            MaintMsg::Op(op) => {
                apply_op(engine, op, shared);
                folded = true;
            }
            // A queued reload commutes with churn (it preserves the live
            // set), so running it before the snapshot is written is fine.
            reload @ MaintMsg::Reload { .. } => {
                handle_msg(engine, reload, shared);
            }
        }
    }
    if folded {
        publish(engine, shared);
    }
    match wal.compact(shared.cell.generation(), engine.live_events()) {
        Ok(()) => {
            shared.metrics.wal_compactions.inc();
            if let Ok(bytes) = wal.size_bytes() {
                shared.metrics.wal_bytes.set(bytes as f64);
            }
        }
        Err(e) => eprintln!("gem-serverd: WAL compaction failed (log keeps growing): {e}"),
    }
}

/// Re-apply a WAL replay to a freshly bootstrapped engine: diff the
/// replayed target set against the engine's current live set and churn
/// the difference in. Returns the number of ops applied.
fn replay_into(
    engine: &mut IncrementalEngine,
    records: &[WalRecord],
    metrics: &ServerMetrics,
) -> u64 {
    let target = apply_records(engine.live_events(), records);
    let current: Vec<EventId> = engine.live_events().to_vec();
    let mut applied = 0u64;
    for &x in target.iter().filter(|x| current.binary_search(x).is_err()) {
        // An id past the bootstrap model's event matrix cannot be
        // re-added (the model shrank between runs); count it like any
        // other rejected churn rather than refusing to start.
        match engine.add_event(x) {
            Ok(_) => applied += 1,
            Err(_) => metrics.churn_rejected.inc(),
        }
    }
    for &x in current.iter().filter(|x| target.binary_search(x).is_err()) {
        match engine.retire_event(x) {
            Ok(_) => applied += 1,
            Err(_) => metrics.churn_rejected.inc(),
        }
    }
    metrics.wal_replayed_ops.add(applied);
    applied
}

/// Validate the model file at `path` and swap it into the engine.
/// Runs on the maintenance thread; serving keeps answering from the old
/// generation until (and unless) the swap publishes. Rejections map to
/// the HTTP status the blocked `/reload` handler answers with:
/// missing file 404; wrong magic/version, corruption or shape mismatch
/// 400; memory budget exceeded 503; injected `server.reload` fault 500.
fn process_reload(
    engine: &mut IncrementalEngine,
    path: &Path,
    shared: &Shared,
) -> Result<u64, (u16, String)> {
    let mut reader = ModelReader::open(path).map_err(|e| persist_status(&e, path))?;
    let serving_dim = engine.model().dim;
    if reader.dim() != serving_dim {
        return Err((
            400,
            format!(
                "dim mismatch: serving dim {serving_dim}, {} has {}",
                path.display(),
                reader.dim()
            ),
        ));
    }
    let num_users = engine.model().num_users();
    if reader.num_users() < num_users {
        return Err((
            400,
            format!(
                "user coverage shrank: serving {num_users} users, {} has {}",
                path.display(),
                reader.num_users()
            ),
        ));
    }
    if let Some(&max_live) = engine.live_events().last() {
        if max_live.index() >= reader.num_events() {
            return Err((
                400,
                format!(
                    "live event {} not covered: {} has {} events",
                    max_live.0,
                    path.display(),
                    reader.num_events()
                ),
            ));
        }
    }
    // Full-file CRC walk before committing to materialization: a bit flip
    // anywhere rejects here, with the old generation still serving.
    reader.verify().map_err(|e| persist_status(&e, path))?;
    if let Some(e) = gem_obs::faults::io_error("server.reload") {
        return Err((500, format!("injected reload failure: {e}")));
    }
    let model = gem_core::load_model(path).map_err(|e| persist_status(&e, path))?;
    let next = engine
        .reload_model(model)
        .map_err(|e| (503, format!("reload rejected by memory budget: {e}")))?;
    *engine = next;
    publish(engine, shared);
    Ok(shared.cell.generation())
}

/// Map a [`PersistError`] from reload validation to an HTTP status.
fn persist_status(e: &PersistError, path: &Path) -> (u16, String) {
    let status = match e {
        PersistError::Io(io) if io.kind() == io::ErrorKind::NotFound => 404,
        PersistError::Io(_) => 500,
        PersistError::BadMagic | PersistError::BadVersion(_) | PersistError::Corrupt(_) => 400,
    };
    (status, format!("{}: {e}", path.display()))
}

/// Worker body: accept, serve the connection's keep-alive loop, repeat
/// until drain.
fn worker_loop(listener: &TcpListener, shared: &Shared) {
    let mut scratch = ServeScratch::new();
    loop {
        if shared.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
                serve_connection(stream, shared, &mut scratch);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serve one connection until close, error or drain. The in-flight
/// request always gets its response; the drain only severs the connection
/// at a request boundary.
fn serve_connection(stream: TcpStream, shared: &Shared, scratch: &mut ServeScratch) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(ParseError::Eof) => return,
            Err(ParseError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive connection: hang up if draining, else
                // keep waiting for the next request.
                if shared.draining() {
                    return;
                }
                continue;
            }
            Err(ParseError::Io(_)) => return,
            Err(ParseError::Malformed(status, detail)) => {
                shared.metrics.http_4xx.inc();
                let _ = http::write_response(&mut writer, &Response::error(status, detail), true);
                return;
            }
        };
        let started = Instant::now();
        let response = route(&request, shared, scratch);
        match response.status {
            200 | 202 => shared.metrics.http_2xx.inc(),
            400..=499 => shared.metrics.http_4xx.inc(),
            500..=599 => shared.metrics.http_5xx.inc(),
            _ => {}
        }
        shared.metrics.request_ns.record(started.elapsed().as_nanos() as u64);
        let close = !request.keep_alive || shared.draining();
        if http::write_response(&mut writer, &response, close).is_err() || close {
            return;
        }
    }
}

/// Dispatch a parsed request.
fn route(req: &Request, shared: &Shared, scratch: &mut ServeScratch) -> Response {
    shared.metrics.requests.inc();
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => {
            shared.refresh_shard_gauges();
            shared.refresh_fault_gauges();
            Response::text(200, shared.registry.snapshot().to_prometheus())
        }
        ("GET", "/stats") => {
            shared.refresh_shard_gauges();
            shared.refresh_fault_gauges();
            Response::json(200, shared.registry.snapshot().to_json())
        }
        ("GET", "/recommend") => recommend(req, shared, scratch),
        ("POST", "/recommend_batch") => recommend_batch(req, shared, scratch),
        ("POST", "/events/add") => churn(req, shared, true),
        ("POST", "/events/retire") => churn(req, shared, false),
        ("GET", "/events/live") => events_live(shared),
        ("POST", "/reload") => reload(req, shared),
        ("GET", "/report") => report(shared),
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::text(200, "draining\n")
        }
        ("GET" | "POST", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// `GET /healthz`: a JSON body probes can alert on, not just a bare 200 —
/// a stale `generation`/`staleness_s` pair distinguishes "maintenance
/// thread wedged" from "healthy but idle" (idle daemons republish nothing,
/// so staleness only matters alongside queued churn).
fn health(shared: &Shared) -> Response {
    let uptime_ms = shared.started.elapsed().as_millis() as u64;
    let publish_ms = shared.last_publish_ms.load(Ordering::Relaxed);
    let staleness_ms = uptime_ms.saturating_sub(publish_ms);
    let body = format!(
        "{{\"status\":\"{}\",\"uptime_s\":{:.3},\"generation\":{},\"staleness_s\":{:.3},\
         \"staleness_ops\":{},\"live_events\":{}}}\n",
        if shared.draining() { "draining" } else { "ok" },
        uptime_ms as f64 / 1e3,
        shared.cell.generation(),
        staleness_ms as f64 / 1e3,
        shared.metrics.staleness.get() as u64,
        shared.metrics.live_events.get() as u64,
    );
    Response::json(200, body)
}

/// `GET /recommend?user=U&n=N`: shard admission, pinned snapshot,
/// deadline-bounded exact-or-degraded top-N.
fn recommend(req: &Request, shared: &Shared, scratch: &mut ServeScratch) -> Response {
    let Some(user) = req.query_param("user").and_then(|u| u.parse::<u32>().ok()) else {
        return Response::error(400, "missing or malformed user=");
    };
    let Ok(n) = req.query_or("n", shared.cfg.top_n) else {
        return Response::error(400, "malformed n=");
    };
    let user = UserId(user);
    let Some(_permit) = shared.shards.try_admit(user) else {
        shared.metrics.overload_sheds.inc();
        if let Some(shed) = shared.metrics.shard_sheds.get(shared.shards.shard_for(user)) {
            shed.inc();
        }
        return Response::error(503, "shard over capacity");
    };
    let snapshot = shared.cell.load();
    match snapshot.try_top_n_deadline(user, n, shared.cfg.deadline, scratch) {
        Ok(result) => Response::json(
            200,
            format!(
                "{{\"user\":{},\"degraded\":{},\"recommendations\":{}}}\n",
                user.0,
                result.is_degraded(),
                recommendations_json(&result.recommendations),
            ),
        ),
        Err(ServeError::UnknownUser { num_users, .. }) => {
            Response::error(404, &format!("unknown user {} (have {num_users})", user.0))
        }
    }
}

/// `POST /recommend_batch?n=N` with a comma/whitespace-separated user-id
/// body. The whole batch is served from ONE pinned generation (see
/// `swap.rs`); the response names it so clients can correlate.
fn recommend_batch(req: &Request, shared: &Shared, scratch: &mut ServeScratch) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "batch body is not utf-8");
    };
    let mut users = Vec::new();
    for token in body.split(|c: char| c == ',' || c.is_whitespace()).filter(|t| !t.is_empty()) {
        match token.parse::<u32>() {
            Ok(u) => users.push(UserId(u)),
            Err(_) => return Response::error(400, "batch body must be user ids"),
        }
    }
    if users.is_empty() {
        return Response::error(400, "empty batch");
    }
    let Ok(n) = req.query_or("n", shared.cfg.top_n) else {
        return Response::error(400, "malformed n=");
    };
    let (snapshot, generation) = shared.cell.load_pinned();
    let body = batch_json(&snapshot, generation, &users, n, shared.cfg.deadline, scratch);
    shared.metrics.batch_users.add(users.len() as u64);
    Response::json(200, body)
}

/// Serve `users` from one already-pinned snapshot and render the batch
/// response. Public-in-crate so the generation-pinning regression test
/// exercises exactly the code the HTTP handler runs.
pub fn batch_json(
    snapshot: &EngineSnapshot,
    generation: u64,
    users: &[UserId],
    n: usize,
    deadline: Duration,
    scratch: &mut ServeScratch,
) -> String {
    let mut out = String::with_capacity(64 * users.len());
    out.push_str(&format!("{{\"generation\":{generation},\"results\":["));
    for (i, &user) in users.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match snapshot.try_top_n_deadline(user, n, deadline, scratch) {
            Ok(result) => out.push_str(&format!(
                "{{\"user\":{},\"degraded\":{},\"recommendations\":{}}}",
                user.0,
                result.is_degraded(),
                recommendations_json(&result.recommendations),
            )),
            Err(ServeError::UnknownUser { num_users, .. }) => out.push_str(&format!(
                "{{\"user\":{},\"error\":\"unknown user (have {num_users})\"}}",
                user.0,
            )),
        }
    }
    out.push_str("]}\n");
    out
}

/// `POST /events/add|retire?event=X`: enqueue for the maintenance thread.
/// 202 means "queued", not "applied" — churn is asynchronous by design.
/// With a WAL configured it also means "durable": the op was fsynced to
/// the log before this ack, so a crash at any later instant replays it.
/// A failed append answers 500 and the op is NOT enqueued (the 202
/// promise is never made). The converse can leak: an op fsynced but then
/// answered 503 because the mailbox closed mid-drain may replay despite
/// never being acknowledged — replay applying a superset of the acked
/// ops is allowed, a subset never is.
fn churn(req: &Request, shared: &Shared, add: bool) -> Response {
    let Some(event) = req.query_param("event").and_then(|x| x.parse::<u32>().ok()) else {
        return Response::error(400, "missing or malformed event=");
    };
    let op = if add { MaintOp::Add(EventId(event)) } else { MaintOp::Retire(EventId(event)) };
    let sent = if let Some(wal) = &shared.wal {
        // Lock held across append+enqueue: WAL order == apply order.
        let mut wal = wal.lock().expect("wal lock");
        let started = Instant::now();
        if let Err(e) = wal.append(&op.wal_record()) {
            shared.metrics.wal_append_errors.inc();
            return Response::error(500, &format!("wal append failed, op not accepted: {e}"));
        }
        shared.metrics.wal_append_ns.record(started.elapsed().as_nanos() as u64);
        shared.metrics.wal_appends.inc();
        if let Ok(bytes) = wal.size_bytes() {
            shared.metrics.wal_bytes.set(bytes as f64);
        }
        shared.maint_tx.send(MaintMsg::Op(op))
    } else {
        shared.maint_tx.send(MaintMsg::Op(op))
    };
    if sent.is_err() {
        return Response::error(503, "maintenance thread is gone");
    }
    shared.metrics.churn_queued.inc();
    Response::json(202, format!("{{\"queued\":true,\"event\":{event}}}\n"))
}

/// `GET /events/live`: the published live-event set and its fingerprint —
/// what the soak drill diffs against its own ledger of acknowledged ops
/// after a crash/restart. Served from the last *published* snapshot, so
/// just-queued churn appears only after the maintenance thread's next
/// publication.
fn events_live(shared: &Shared) -> Response {
    let live = Arc::clone(&shared.live_published.lock().expect("live list lock"));
    let mut ids = String::with_capacity(8 * live.len());
    for (i, x) in live.iter().enumerate() {
        if i > 0 {
            ids.push(',');
        }
        ids.push_str(&x.0.to_string());
    }
    Response::json(
        200,
        format!(
            "{{\"generation\":{},\"count\":{},\"fingerprint\":{},\"live\":[{ids}]}}\n",
            shared.cell.generation(),
            live.len(),
            live_fingerprint(&live),
        ),
    )
}

/// `POST /reload?path=P`: hand the path to the maintenance thread, block
/// until it validated + swapped (200 with the new generation) or rejected
/// (the maintenance thread's HTTP status; the old generation never stopped
/// serving). Answers 503 on timeout — the reload keeps running and a
/// retry observes the outcome.
fn reload(req: &Request, shared: &Shared) -> Response {
    let Some(path) = req.query_param("path").filter(|p| !p.is_empty()) else {
        return Response::error(400, "missing path=");
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let msg = MaintMsg::Reload { path: PathBuf::from(path), reply: reply_tx };
    if shared.maint_tx.send(msg).is_err() {
        return Response::error(503, "maintenance thread is gone");
    }
    match reply_rx.recv_timeout(shared.cfg.reload_timeout) {
        Ok(Ok(generation)) => {
            Response::json(200, format!("{{\"reloaded\":true,\"generation\":{generation}}}\n"))
        }
        Ok(Err((status, message))) => Response::error(status, &message),
        Err(_) => Response::error(503, "reload still validating; retry to observe the outcome"),
    }
}

/// `GET /report`: regenerate `report.html` from the journals in
/// `DaemonConfig::report_dir` (best-effort) and serve it. 404 with the
/// regeneration hint when nothing renderable exists yet.
fn report(shared: &Shared) -> Response {
    let regen = gem_report::emit_into(&shared.cfg.report_dir);
    match std::fs::read(shared.cfg.report_dir.join("report.html")) {
        Ok(html) => Response::html(200, html),
        Err(_) => {
            let hint = regen.err().unwrap_or_else(|| "report.html vanished after render".into());
            Response::error(404, &format!("no report yet: {hint}"))
        }
    }
}

fn recommendations_json(recs: &[Recommendation]) -> String {
    let mut out = String::with_capacity(8 + 48 * recs.len());
    out.push('[');
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"partner\":{},\"event\":{},\"score\":{:.6}}}",
            r.partner.0, r.event.0, r.score
        ));
    }
    out.push(']');
    out
}
