//! `daemon_mixed`: an in-process `Daemon` (default config plus a churn WAL)
//! over a small engine, reached over real loopback TCP.
//!
//! The load is **open loop**: a seeded Poisson schedule (90 % reads, 5 %
//! batches, 5 % churn in bursts) is laid out in advance and dealt onto
//! keep-alive connections; every latency is measured from the moment the
//! request was *due*, so a stall is charged to every request it delays, and
//! the generator's own lateness is reported next to it. The end-to-end read
//! latency is taken at 2 000 rps; the traced pass walks the rate up
//! (1 000 / 2 000 / 4 000 rps) to find the highest rate within the limit.
//!
//! Reads are dealt round-robin over the connections; batches and churn all
//! go to the last one. A keep-alive connection answers in order, so a read
//! queued behind somebody's fsynced write waits for it — an artefact of
//! having two connections stand in for many independent users. The headline
//! latency therefore comes from the connection that carries only reads:
//! what a read costs *while the daemon is busy with writes beside it*. The
//! mixed connection's reads are reported per layer.
//!
//! Before it, a **closed-loop** phase measures capacity on the fresh engine:
//! every connection keeps a small window of pipelined reads in flight, so
//! the serving workers never wait for the client and the rate is the
//! daemon's, not the socket's.

use crate::affinity::Split;
use crate::inputs::{self, ChurnPlan, Op, OpKind};
use crate::trace::{Tracer, NONE};
use crate::{host::Host, probes, stats, Opts, Outcome};
use gem_core::{GemModel, TrainConfig};
use gem_ebsn::{EventId, UserId};
use gem_obs::MetricsRegistry;
use gem_query::{EngineMetrics, IncrementalEngine};
use gem_server::{live_fingerprint, Daemon, DaemonConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOP_N: usize = 10;
const PRUNE_K: usize = 8;
/// Embedding dimension of the served model: `gem-serverd`'s own default.
const DIM: usize = 24;
/// A read counts as answered in time when it is a 2xx, exact (not
/// deadline-degraded) and back within this long of its due time.
const LIMIT_US: f64 = 2_000.0;
/// The phase whose read latency is the end-to-end figure.
const HEADLINE_RPS: f64 = 2_000.0;
/// Reads per repetition of the closed-loop phase.
const CLOSED_BLOCK: usize = 512;
/// Pipelined reads each closed-loop connection keeps in flight.
const CLOSED_WINDOW: usize = 8;

struct Sizes {
    scale: usize,
    train_steps: u64,
    setup_reps: usize,
    /// `(rate, share of the window, spans on)` per open-loop phase.
    phases: Vec<(f64, f64, bool)>,
    /// Share of the window spent in the closed-loop phase.
    closed_share: f64,
    /// Reads per repetition of the headline statistics.
    block: usize,
}

fn sizes(opts: &Opts) -> Sizes {
    let (scale, train_steps, setup_reps, block) = match (opts.smoke, opts.trace) {
        (true, _) => (0, 2_000, 2, 50),
        (false, true) => (40, 200_000, 3, 1_000),
        (false, false) => (40, 200_000, 15, 1_000),
    };
    let (phases, closed_share) = if opts.trace {
        // The rate ladder, with the headline rate twice: once untraced, once
        // with spans, so the tracing overhead is the difference of the two.
        let ladder = vec![
            (1_000.0, 0.15, true),
            (HEADLINE_RPS, 0.2, false),
            (HEADLINE_RPS, 0.2, true),
            (4_000.0, 0.15, true),
        ];
        (ladder, 0.1)
    } else {
        (vec![(HEADLINE_RPS, 0.8, false)], 0.2)
    };
    Sizes { scale, train_steps, setup_reps, phases, closed_share, block }
}

/// The model, the partner pool, the initially live events (the held-out
/// test events) and the churn pool (training-era events, not live).
struct Inputs {
    model: GemModel,
    partners: Vec<UserId>,
    live: Vec<EventId>,
    pool: Vec<u32>,
}

fn make_inputs(opts: &Opts, s: &Sizes) -> Inputs {
    let city = inputs::city(opts.seed, s.scale);
    let config = TrainConfig { dim: DIM, ..TrainConfig::gem_a(opts.seed) };
    let model = inputs::train_model(&inputs::graphs(&city), config, s.train_steps);
    let mut live = city.split.test_events.clone();
    live.sort_unstable();
    Inputs {
        partners: (0..model.num_users() as u32).map(UserId).collect(),
        pool: city.split.train_events.iter().map(|x| x.0).collect(),
        live,
        model,
    }
}

/// A scratch directory under `target/benchmark/`, removed on drop: the WAL
/// must live inside the checkout, and nothing may be left behind.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = crate::out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build the engine and start a daemon on an ephemeral loopback port.
/// Returns the engine-build and daemon-start times too.
fn start(
    inputs: &Inputs,
    wal: &Path,
    registry: &Arc<MetricsRegistry>,
    split: Option<&Split>,
) -> (Daemon, f64, f64) {
    let t = Instant::now();
    let engine = IncrementalEngine::build(
        inputs.model.clone(),
        &inputs.partners,
        &inputs.live,
        PRUNE_K,
        EngineMetrics::register(registry),
    );
    let build_s = t.elapsed().as_secs_f64();
    let cfg = DaemonConfig {
        wal_path: Some(wal.to_path_buf()),
        watch_os_signals: false,
        ..DaemonConfig::default()
    };
    let t = Instant::now();
    // The daemon's threads inherit the affinity this thread has right now.
    split.map(Split::enter_daemon);
    let daemon = Daemon::start("127.0.0.1:0", engine, cfg, Arc::clone(registry))
        .expect("bind an ephemeral loopback port");
    let start_s = t.elapsed().as_secs_f64();
    split.map(Split::enter_generator);
    // Not part of the set-up time: an idle worker polls `accept` every 2 ms,
    // so the first round trip is a coin toss between 1 and 3 ms.
    let mut conn = Conn::open(daemon.local_addr()).expect("connect to the daemon");
    let status =
        conn.roundtrip(b"GET /healthz HTTP/1.1\r\nHost: b\r\n\r\n").expect("first request");
    assert_eq!(status, 200, "daemon not healthy after start");
    (daemon, build_s, start_s)
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, line: String::new(), body: Vec::new() })
    }

    /// Send one request, read one response; the body is left in `self.body`.
    fn roundtrip(&mut self, request: &[u8]) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.recv()
    }

    /// Read one response; the body is left in `self.body`.
    fn recv(&mut self) -> io::Result<u16> {
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

fn request_bytes(kind: &OpKind) -> Vec<u8> {
    match kind {
        OpKind::Read { user } => {
            format!("GET /recommend?user={user}&n={TOP_N} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes()
        }
        OpKind::Batch { users } => {
            let ids = users.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            format!(
                "POST /recommend_batch?n={TOP_N} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{ids}",
                ids.len()
            )
            .into_bytes()
        }
        OpKind::Add { event } | OpKind::Retire { event } => {
            let verb = if matches!(kind, OpKind::Add { .. }) { "add" } else { "retire" };
            format!("POST /events/{verb}?event={event} HTTP/1.1\r\nHost: b\r\nContent-Length: 0\r\n\r\n")
                .into_bytes()
        }
    }
}

fn count(haystack: &[u8], needle: &[u8]) -> usize {
    haystack.windows(needle.len()).filter(|w| w == &needle).count()
}

/// Does a 2xx body hold what was asked for? Every body is checked by
/// counting result objects; every 16th is also parsed as JSON. A result the
/// daemon marked deadline-degraded may be short: that is its contract (a
/// verified prefix), counted separately and never as answered in time.
fn body_ok(kind: &OpKind, body: &[u8], parse: bool) -> bool {
    let partners = count(body, b"\"partner\":");
    let degraded = count(body, b"\"degraded\":true");
    let shaped = match kind {
        OpKind::Read { .. } => partners == TOP_N || degraded == 1,
        OpKind::Batch { users } => {
            count(body, b"\"user\":") == users.len()
                && (partners == users.len() * TOP_N || degraded > 0)
        }
        OpKind::Add { .. } | OpKind::Retire { .. } => count(body, b"\"queued\":true") == 1,
    };
    shaped
        && (!parse
            || std::str::from_utf8(body)
                .is_ok_and(|text| gem_obs::json::parse(text.trim()).is_ok()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Batch,
    Churn,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    /// Sent on a connection that carries only reads.
    clean: bool,
    /// Response received, measured from the due time.
    latency_us: f64,
    /// How late the generator sent it.
    lateness_us: f64,
    status: u16,
    /// 2xx with a well-formed body.
    ok: bool,
    degraded: bool,
    /// When the response arrived (churn acks only), for the catch-up clock.
    acked_at: Option<Instant>,
}

/// One connection working through its share of a phase's schedule.
fn sender(
    addr: SocketAddr,
    start: Instant,
    ops: Vec<(u32, Op)>,
    clean: bool,
    mut tr: Tracer,
) -> (Vec<Sample>, Tracer) {
    let mut samples = Vec::with_capacity(ops.len());
    let mut conn = Conn::open(addr).ok();
    for (req, op) in ops {
        let due = start + Duration::from_secs_f64(op.due_s);
        let root = tr.begin("loadgen.request", NONE, req);
        let span = tr.begin("loadgen.wait", root, req);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tr.end(span);
        let sent = Instant::now();
        let span = tr.begin("http.roundtrip", root, req);
        let status = match conn.as_mut().map(|c| c.roundtrip(&request_bytes(&op.kind))) {
            Some(Ok(status)) => status,
            // A transport error: drop the connection and dial again.
            _ => {
                conn = Conn::open(addr).ok();
                0
            }
        };
        tr.end(span);
        tr.end(root);
        let done = Instant::now();
        let body: &[u8] = conn.as_ref().map_or(&[][..], |c| c.body.as_slice());
        let class = match op.kind {
            OpKind::Read { .. } => Class::Read,
            OpKind::Batch { .. } => Class::Batch,
            OpKind::Add { .. } | OpKind::Retire { .. } => Class::Churn,
        };
        samples.push(Sample {
            class,
            clean,
            latency_us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
            lateness_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            status,
            ok: (200..300).contains(&status) && body_ok(&op.kind, body, req % 16 == 0),
            degraded: count(body, b"\"degraded\":true") > 0,
            acked_at: (class == Class::Churn && status == 202).then_some(done),
        });
    }
    (samples, tr)
}

/// Run one open-loop phase over `conns` connections: reads round-robin over
/// all of them, batches and churn on the last (so the others stay clean, and
/// the two ops on one event stay in order). Samples come back in due order.
fn open_loop_phase(
    addr: SocketAddr,
    schedule: Vec<Op>,
    first_req: u32,
    conns: usize,
    epoch: Instant,
    spans: bool,
) -> (Vec<Sample>, Vec<Tracer>) {
    let mut lanes: Vec<Vec<(u32, Op)>> = vec![Vec::new(); conns];
    let mut reads = 0usize;
    for (i, op) in schedule.into_iter().enumerate() {
        let lane = match op.kind {
            OpKind::Read { .. } => {
                reads += 1;
                reads % conns
            }
            _ => conns - 1,
        };
        lanes[lane].push((first_req + i as u32, op));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let handles: Vec<_> = lanes
        .into_iter()
        .enumerate()
        .map(|(lane, ops)| {
            let tr = Tracer::new(spans, epoch, lane as u32 + 1);
            let order: Vec<u32> = ops.iter().map(|(req, _)| *req).collect();
            let clean = conns == 1 || lane + 1 < conns;
            (order, std::thread::spawn(move || sender(addr, start, ops, clean, tr)))
        })
        .collect();
    let (mut samples, mut tracers) = (Vec::new(), Vec::new());
    for (order, handle) in handles {
        let (s, tr) = handle.join().expect("sender thread panicked");
        samples.extend(order.into_iter().zip(s));
        tracers.push(tr);
    }
    samples.sort_by_key(|&(req, _)| req);
    (samples.into_iter().map(|(_, s)| s).collect(), tracers)
}

/// Closed loop: every connection keeps `CLOSED_WINDOW` pipelined reads in
/// flight for `budget_s`, sending one more as each answer arrives. Returns
/// the summed median block rate and `(attempted, failed)`.
fn closed_loop_phase(
    addr: SocketAddr,
    users: &[UserId],
    conns: usize,
    budget_s: f64,
) -> (f64, u64, u64) {
    let handles: Vec<_> = (0..conns)
        .map(|lane| {
            let users: Vec<UserId> = users.iter().copied().skip(lane).step_by(conns).collect();
            std::thread::spawn(move || -> io::Result<(f64, u64, u64)> {
                let mut conn = Conn::open(addr)?;
                let mut next = 0usize;
                let mut send = |conn: &mut Conn| {
                    let kind = OpKind::Read { user: users[next % users.len()].0 };
                    next += 1;
                    conn.stream.write_all(&request_bytes(&kind))
                };
                let probe = OpKind::Read { user: 0 };
                let (mut rates, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                for _ in 0..CLOSED_WINDOW {
                    send(&mut conn)?;
                }
                let window = Instant::now();
                while window.elapsed().as_secs_f64() < budget_s {
                    let started = Instant::now();
                    for _ in 0..CLOSED_BLOCK {
                        let ok = conn.recv()? == 200 && body_ok(&probe, &conn.body, false);
                        attempted += 1;
                        failed += u64::from(!ok);
                        send(&mut conn)?;
                    }
                    rates.push(CLOSED_BLOCK as f64 / started.elapsed().as_secs_f64());
                }
                for _ in 0..CLOSED_WINDOW {
                    conn.recv()?;
                }
                Ok((stats::median(&rates), attempted, failed))
            })
        })
        .collect();
    handles.into_iter().fold((0.0, 0, 0), |acc, h| {
        // A connection that broke counts as one failed operation.
        let (rate, attempted, failed) =
            h.join().expect("closed-loop thread panicked").unwrap_or((0.0, 1, 1));
        (acc.0 + rate, acc.1 + attempted, acc.2 + failed)
    })
}

/// Poll `/events/live` until the published set equals `expected`. Returns
/// the moment it matched, or `None` after two seconds.
fn await_live(addr: SocketAddr, expected: &[EventId]) -> Option<Instant> {
    let fingerprint = format!("\"fingerprint\":{},", live_fingerprint(expected));
    let mut conn = Conn::open(addr).ok()?;
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        let ok = matches!(conn.roundtrip(b"GET /events/live HTTP/1.1\r\nHost: b\r\n\r\n"), Ok(200));
        if ok && count(&conn.body, fingerprint.as_bytes()) == 1 {
            let text = std::str::from_utf8(&conn.body).ok()?;
            let doc = gem_obs::json::parse(text.trim()).ok()?;
            let live: Vec<EventId> = doc
                .get("live")?
                .as_array()?
                .iter()
                .filter_map(|v| v.as_f64().map(|id| EventId(id as u32)))
                .collect();
            if live == expected {
                return Some(Instant::now());
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

/// Read statistics of one phase.
struct PhaseStats {
    rate: f64,
    /// Reads on the read-only connection(s): p50 and p95 are the median
    /// over blocks of `block` reads, p99 is over the whole phase.
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// p95 of the reads that shared a connection with batches and churn.
    mixed_p95_us: f64,
    /// Share of the scheduled clean reads answered 2xx, exact and in time;
    /// a failed, refused or degraded read misses the limit.
    within_limit_share: f64,
    /// Median lateness of the last tenth of the clean reads: a generator
    /// that cannot keep up shows a backlog that grows towards the end.
    late_tail_us: f64,
}

fn phase_stats(rate: f64, samples: &[Sample], block: usize) -> PhaseStats {
    let reads: Vec<&Sample> = samples.iter().filter(|s| s.class == Class::Read).collect();
    let latencies = |clean: bool| -> Vec<f64> {
        reads.iter().filter(|s| s.ok && s.clean == clean).map(|s| s.latency_us).collect()
    };
    let clean = latencies(true);
    let (p50_us, p95_us) = stats::block_medians(&clean, block).unwrap_or((f64::MAX, f64::MAX));
    let whole =
        |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { stats::quantile(&stats::sorted(v), q) };
    let scheduled: Vec<&&Sample> = reads.iter().filter(|s| s.clean).collect();
    let in_time =
        scheduled.iter().filter(|s| s.ok && !s.degraded && s.latency_us <= LIMIT_US).count();
    let tail = &scheduled[scheduled.len() - (scheduled.len() / 10).max(1)..];
    PhaseStats {
        rate,
        p50_us,
        p95_us,
        p99_us: whole(&clean, 0.99),
        mixed_p95_us: whole(&latencies(false), 0.95),
        within_limit_share: in_time as f64 / scheduled.len().max(1) as f64,
        late_tail_us: stats::median(&tail.iter().map(|s| s.lateness_us).collect::<Vec<_>>()),
    }
}

impl PhaseStats {
    /// p95 within the limit and no growing backlog.
    fn sustained(&self) -> bool {
        self.p95_us <= LIMIT_US && self.late_tail_us < 1_000.0
    }
}

pub fn run(opts: &Opts, host: &Host) -> Outcome {
    let mut out = Outcome::default();
    let s = sizes(opts);
    let inputs = make_inputs(opts, &s);
    let conns = host.cores().min(2);
    let scratch = TempDir::new();
    let split = Split::of_this_process();
    split.as_ref().map(Split::enter_generator);
    println!(
        "  {} partners x {} live events (+{} churnable), dim {DIM}, {conns} connection(s); {}",
        inputs.partners.len(),
        inputs.live.len(),
        inputs.pool.len(),
        split.as_ref().map_or("threads not pinned".to_string(), Split::describe),
    );

    // Set-up, repeated on fresh WALs; the last daemon is the measured one.
    let (mut setup, mut build_ms, mut start_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut running = None;
    for rep in 0..s.setup_reps {
        if let Some((daemon, _)) = running.take() {
            let _: IncrementalEngine = Daemon::join(daemon);
        }
        let registry = Arc::new(MetricsRegistry::new());
        let wal = scratch.0.join(format!("churn-{rep}.wal"));
        let (daemon, build_s, start_s) = start(&inputs, &wal, &registry, split.as_ref());
        setup.push(build_s + start_s);
        build_ms.push(build_s * 1e3);
        start_ms.push(start_s * 1e3);
        running = Some((daemon, registry));
    }
    let (daemon, registry) = running.expect("at least one set-up repetition");
    let addr = daemon.local_addr();
    out.set("setup_s", stats::median(&setup));

    // Closed-loop capacity, on the freshly built engine: once churn has run,
    // a read costs more or less depending on how much overlay has piled up
    // since the last rebuild, which differs from seed to seed.
    let users = inputs::query_users(inputs.partners.len(), 4096, opts.seed ^ 0xC105);
    let (closed_rps, closed_attempted, closed_failed) =
        closed_loop_phase(addr, &users, conns, opts.seconds * s.closed_share);
    println!(
        "  closed loop, {conns} connection(s) x {CLOSED_WINDOW} in flight: {closed_rps:.0} reads/s"
    );

    // Open-loop phases.
    let epoch = Instant::now();
    let mut plan = ChurnPlan::new(inputs.pool.clone());
    let mut tracer = Tracer::new(opts.trace, epoch, 0);
    let mut phases: Vec<(PhaseStats, Vec<Sample>, bool)> = Vec::new();
    let mut first_req = 0u32;
    for (i, &(rate, share, spans)) in s.phases.iter().enumerate() {
        let schedule = inputs::schedule(
            gem_sampling::split_seed(opts.seed, i as u64),
            rate,
            opts.seconds * share,
            inputs.partners.len(),
            &mut plan,
        );
        let sent = schedule.len() as u32;
        let phase = tracer.begin("daemon.phase", NONE, NONE);
        let (samples, tracers) = open_loop_phase(addr, schedule, first_req, conns, epoch, spans);
        tracer.end(phase);
        tracers.into_iter().for_each(|t| tracer.absorb(t));
        first_req += sent;
        let stats = phase_stats(rate, &samples, s.block);
        println!(
            "  open loop {rate:>5} rps{}: clean reads p50 {:.0} us, p95 {:.0} us (median block of \
             {}), p99 {:.0} us; mixed-lane reads p95 {:.0} us; in time {:.4}; lateness of last \
             tenth {:.0} us; n {}",
            if spans { " (spans)" } else { "" },
            stats.p50_us,
            stats.p95_us,
            s.block,
            stats.p99_us,
            stats.mixed_p95_us,
            stats.within_limit_share,
            stats.late_tail_us,
            samples.len(),
        );
        phases.push((stats, samples, spans));
    }

    // Gate: the published live set catches up with every acknowledged op.
    let last_ack = phases.iter().flat_map(|(_, s, _)| s).filter_map(|s| s.acked_at).max();
    let mut expected: Vec<EventId> =
        inputs.live.iter().copied().chain(plan.added().map(EventId)).collect();
    expected.sort_unstable();
    let matched = await_live(addr, &expected);
    out.gate(
        matched.is_some(),
        &format!("/events/live equals the mirror of acked churn ({} live events)", expected.len()),
    );
    let catchup_ms = match (matched, last_ack) {
        (Some(m), Some(a)) => m.saturating_duration_since(a).as_secs_f64() * 1e3,
        _ => 0.0,
    };

    let snap = registry.snapshot();
    let _: IncrementalEngine = daemon.join();

    // Operations and the gates over them.
    let all: Vec<&Sample> = phases.iter().flat_map(|(_, s, _)| s).collect();
    let failed = all.iter().filter(|s| !s.ok).count() as u64;
    let hard = all.iter().filter(|s| s.status == 0 || (s.status >= 500 && s.status != 503)).count();
    let malformed = all.iter().filter(|s| (200..300).contains(&s.status) && !s.ok).count();
    out.ops(all.len() as u64 + closed_attempted, failed + closed_failed);
    out.gate(hard == 0, &format!("no transport errors and no 5xx other than 503 ({hard} seen)"));
    out.gate(malformed == 0, &format!("every 2xx body holds its results ({malformed} do not)"));

    // Headline: the untraced phase at the headline rate.
    let (headline, headline_samples, _) = phases
        .iter()
        .find(|(p, _, spans)| p.rate == HEADLINE_RPS && !spans)
        .expect("an untraced headline phase");
    out.set("ops_per_s", closed_rps);
    out.set("op_p50_us", headline.p50_us);
    out.set("op_p95_us", headline.p95_us);
    if !opts.trace {
        return out;
    }

    // Per-layer view of the same run.
    out.set("daemon.engine_build_ms", stats::median(&build_ms));
    out.set("daemon.start_ms", stats::median(&start_ms));
    out.set("daemon.closed_loop_rps", closed_rps);
    out.set("daemon.within_limit_share", headline.within_limit_share);
    out.set("daemon.p99_ms_r2000", headline.p99_us / 1e3);
    out.set("daemon.mixed_lane_p95_ms", headline.mixed_p95_us / 1e3);
    for (p, _, _) in &phases {
        match p.rate as u32 {
            1_000 => out.set("daemon.p95_ms_r1000", p.p95_us / 1e3),
            4_000 => out.set("daemon.p95_ms_r4000", p.p95_us / 1e3),
            _ => {}
        }
    }
    let sustained = phases.iter().filter(|(p, _, _)| p.sustained()).map(|(p, _, _)| p.rate);
    out.set("daemon.rate_within_limit_rps", sustained.fold(0.0, f64::max));
    let class_p50 = |class: Class| {
        let us: Vec<f64> = headline_samples
            .iter()
            .filter(|s| s.class == class && s.ok)
            .map(|s| s.latency_us)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            stats::median(&us) / 1e3
        }
    };
    out.set("daemon.batch_p50_ms", class_p50(Class::Batch));
    out.set("daemon.churn_ack_p50_ms", class_p50(Class::Churn));
    let reads = all.iter().filter(|s| s.class == Class::Read).count().max(1);
    out.set(
        "daemon.degraded_share",
        all.iter().filter(|s| s.degraded).count() as f64 / reads as f64,
    );
    out.set("daemon.publish_catchup_ms", catchup_ms);
    out.set("daemon.sheds", snap.counter("server.overload_sheds") as f64);
    out.set("daemon.rebuilds", snap.counter("server.rebuilds") as f64);
    out.set("daemon.publishes", snap.counter("server.publishes") as f64);
    if let Some(h) = snap.histogram("server.request_ns") {
        out.set("daemon.server_request_us_p50", h.p50() as f64 / 1e3);
        out.set("daemon.server_request_us_p99", h.p99() as f64 / 1e3);
        out.set("daemon.client_minus_server_us", headline.p50_us - h.p50() as f64 / 1e3);
    }
    let lateness: Vec<f64> =
        headline_samples.iter().filter(|s| s.clean).map(|s| s.lateness_us).collect();
    out.set("loadgen.lateness_p95_us", stats::Summary::of(&lateness).p95);
    out.set("loadgen.sent", all.len() as f64);
    out.set("loadgen.ok", all.iter().filter(|s| s.ok).count() as f64);
    out.set("loadgen.failed", failed as f64);
    if let Some((spanned, _, _)) =
        phases.iter().find(|(p, _, spans)| p.rate == HEADLINE_RPS && *spans)
    {
        out.set("trace.overhead_pct", (spanned.p50_us / headline.p50_us - 1.0) * 100.0);
    }

    probes::server_layers(&mut out, opts);
    probes::wal(&mut out, &scratch.0, opts);
    probes::incremental(
        &mut out,
        &inputs.model,
        &inputs.partners,
        &inputs.live,
        &inputs.pool,
        opts,
    );
    probes::persist(&mut out, &inputs.model, &scratch.0);
    out.spans = tracer.into_spans();
    out
}
