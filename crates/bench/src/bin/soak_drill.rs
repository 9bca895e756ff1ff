//! Chaos soak drill for the serving daemon's durability story.
//!
//! Usage: `cargo run --release -p gem-bench --bin soak_drill \
//!         [--smoke] [--scale 200 --steps 1500 --dim 8 --seed 7]`
//!
//! Drives a real `gem-serverd` subprocess through the failure modes the
//! churn WAL and validated hot-reload exist for (DESIGN.md §5.9):
//!
//! 1. **WAL overhead** — two identical nominal open-loop serving legs
//!    (with a concurrent churn stream), one against a WAL-less daemon and
//!    one against a WAL-enabled daemon. The completion-ratio difference is
//!    the steady-state durability tax; the smoke gate holds it under 2%,
//!    and neither leg may see a single 5xx.
//! 2. **Overload** — a deliberately small daemon (one admission shard of
//!    capacity 2, 16 workers, a 1 ms deadline) that synthesizes and
//!    trains its own larger model (1/60 scale, 2 000 steps, dim 24, about
//!    1 000 users). A nominal leg on as many connections as the
//!    capacity must see zero 5xx (an admission off-by-one would show as
//!    503s); then an overload leg on 16 connections: admission control
//!    must shed (503) and/or deadline-degrade, at least one request must
//!    complete, and the p99 of completed requests, timed from each
//!    request's scheduled arrival (no coordinated omission), must stay
//!    under 500 ms.
//! 3. **Crash + replay** — a Poisson-bursty churn stream where every
//!    `202` is fingerprinted into a client-side mirror; mid-burst the
//!    daemon gets SIGKILL, the WAL tail is additionally torn with garbage
//!    bytes, and after restart the drill asserts the served live-event set
//!    equals the mirror **exactly** (zero acknowledged-op loss) within a
//!    bounded recovery time.
//! 4. **Fault-injected appends** — the restarted daemon runs with
//!    `GEM_FAILPOINTS=wal.append=1;wal.fsync=1`: the injected failures
//!    must surface as `500` (never `202`), client retries must converge,
//!    and a second SIGKILL/restart must still reproduce the mirror.
//! 5. **Validated reload** — missing, corrupt and dim-mismatched model
//!    files (and one injected `server.reload` fault) are rejected with
//!    4xx/5xx while the old generation keeps answering; a valid reload
//!    then swaps generations with the live set preserved.
//! 6. **Drain** — a request is put in flight on a primed keep-alive
//!    connection, then SIGTERM lands: the request must still complete and
//!    the daemon must exit cleanly after all of the above.
//!
//! Writes `BENCH_soak.json` (schema in EXPERIMENTS.md) and
//! `journal_soak_bench.jsonl`; with `--smoke` every gate above is a hard
//! assert (CI `soak-smoke` job).

use gem_bench::net::{connect_with_retry, RetryPolicy};
use gem_bench::Args;
use gem_core::{save_model_v3, GemTrainer, TrainConfig};
use gem_ebsn::{ChronoSplit, EventId, GraphBuildConfig, SplitRatios, SynthConfig, TrainingGraphs};
use gem_obs::JournalRecord;
use gem_server::live_fingerprint;
use rand::RngExt;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Connect retries spent across the run (journaled: a healthy local daemon
/// needs zero, a restarting one a handful).
static CONNECT_RETRIES: AtomicU64 = AtomicU64::new(0);

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let (stream, retries) = connect_with_retry(addr, &RetryPolicy::default())?;
    CONNECT_RETRIES.fetch_add(retries as u64, Ordering::Relaxed);
    Ok(stream)
}

/// One request on a fresh connection.
fn one_shot(addr: &str, method: &str, target: &str) -> (u16, String) {
    let mut stream = connect(addr).expect("connect");
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    (status, reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

/// Read one HTTP response off a keep-alive connection; returns the status
/// and whether the body reports a deadline-degraded answer.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed"));
    }
    let status: u16 = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed
            .strip_prefix("Content-Length: ")
            .or_else(|| trimmed.strip_prefix("content-length: "))
        {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).contains("\"degraded\":true")))
}

/// Extract the number following `"key":` in a flat JSON body (the daemon's
/// `/stats` and `/healthz` formats). `None` when absent or non-numeric.
fn json_num(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `sub` from the histogram object following `"key":` in `/stats`.
fn json_hist(body: &str, key: &str, sub: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let obj_end = body[at..].find('}').map_or(body.len(), |e| at + e + 1);
    json_num(&body[at..obj_end], sub)
}

struct DaemonProc {
    child: Child,
    addr: String,
}

fn daemon_binary() -> PathBuf {
    if let Ok(path) = std::env::var("GEM_SERVERD") {
        return path.into();
    }
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("target dir");
    let candidate = dir.join("gem-serverd");
    assert!(
        candidate.exists(),
        "gem-serverd not found at {candidate:?}; build it first (cargo build -p gem-server) \
         or point $GEM_SERVERD at it"
    );
    candidate
}

/// Worker pool and admission shape a daemon is spawned with.
struct Shape {
    workers: usize,
    shards: usize,
    shard_capacity: usize,
    deadline_us: u64,
}

/// Every leg but the overload one: admission never binds at nominal load.
const NOMINAL: Shape = Shape { workers: 6, shards: 2, shard_capacity: 64, deadline_us: 5_000 };

/// The overload legs: one shard of capacity 2 behind 16 workers, so the
/// worker pool is never the bottleneck ahead of admission. Its nominal
/// leg uses as many connections as the capacity, so a healthy daemon can
/// never shed it; its overload leg uses 16, which must reach the
/// admission check and shed.
const OVERLOAD: Shape = Shape { workers: 16, shards: 1, shard_capacity: 2, deadline_us: 1_000 };
const OVERLOAD_CONNS: usize = 16;

/// Size of the model the overload daemon synthesizes and trains itself
/// (default dim 24, ≈ 1 000 users): 16 connections at 4 000 rps hold it
/// in sustained overload, where the drill's own 320-user dim-8 model
/// answers fast enough that only a handful of requests ever shed.
const OVERLOAD_SCALE: usize = 60;
const OVERLOAD_STEPS: u64 = 2_000;

/// Spawn `gem-serverd` on the model `model_flags` pick (`--model` and
/// `--live-events`, or the daemon's own `--scale`/`--steps`/`--seed`
/// synthesis), returning once `LISTENING` and `/healthz` both answer.
/// `recovery` is spawn -> first healthy reply — for restart legs this
/// bounds model load + engine build + WAL replay.
fn spawn_daemon(
    model_flags: &[String],
    wal: Option<&Path>,
    failpoints: Option<&str>,
    shape: &Shape,
) -> (DaemonProc, Duration) {
    let spawn_at = Instant::now();
    let mut cmd = Command::new(daemon_binary());
    cmd.args(model_flags);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &shape.workers.to_string(),
        "--shards",
        &shape.shards.to_string(),
        "--shard-capacity",
        &shape.shard_capacity.to_string(),
        "--deadline-us",
        &shape.deadline_us.to_string(),
        "--staleness-budget",
        "48",
    ]);
    if let Some(wal) = wal {
        cmd.args(["--wal", wal.to_str().expect("wal path utf-8")]);
    }
    if let Some(spec) = failpoints {
        cmd.env("GEM_FAILPOINTS", spec);
    }
    let mut child =
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn().expect("spawn gem-serverd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line =
            lines.next().expect("daemon exited before LISTENING").expect("read daemon stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    let (status, body) = one_shot(&addr, "GET", "/healthz");
    assert_eq!(status, 200, "daemon never became healthy: {body}");
    (DaemonProc { child, addr }, spawn_at.elapsed())
}

fn sigkill(daemon: &mut DaemonProc) {
    #[cfg(unix)]
    unsafe {
        assert_eq!(kill(daemon.child.id() as i32, SIGKILL), 0, "kill -9 failed");
    }
    let _ = daemon.child.wait();
}

fn sigterm(daemon: &DaemonProc) {
    #[cfg(unix)]
    unsafe {
        assert_eq!(kill(daemon.child.id() as i32, SIGTERM), 0, "kill(SIGTERM) failed");
    }
}

/// Wait (up to 10 s, then SIGKILL) for the daemon to exit; true on a
/// clean exit.
fn wait_exit(daemon: &mut DaemonProc) -> bool {
    let started = Instant::now();
    loop {
        match daemon.child.try_wait().expect("try_wait") {
            Some(status) => return status.success(),
            None if started.elapsed() > Duration::from_secs(10) => {
                let _ = daemon.child.kill();
                return false;
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The served live-event set per `GET /events/live`, cross-checked against
/// the fingerprint the route claims for itself.
fn served_live(addr: &str) -> BTreeSet<u32> {
    let (status, body) = one_shot(addr, "GET", "/events/live");
    assert_eq!(status, 200, "/events/live: {body}");
    let ids: BTreeSet<u32> = body
        .split_once("\"live\":[")
        .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
        .into_iter()
        .flat_map(|list| list.split(',').filter_map(|t| t.trim().parse().ok()))
        .collect();
    let sorted: Vec<EventId> = ids.iter().copied().map(EventId).collect();
    let claimed = json_num(&body, "fingerprint").unwrap_or(-1.0) as u64;
    assert_eq!(
        claimed,
        live_fingerprint(&sorted),
        "/events/live fingerprint disagrees with its own id list"
    );
    ids
}

/// The daemon's user count, from the `(have N)` of its unknown-user 404.
fn probe_num_users(addr: &str) -> usize {
    let (status, body) = one_shot(addr, "GET", "/recommend?user=4000000000");
    assert_eq!(status, 404, "user-count probe: {body}");
    let have = body.split("(have ").nth(1).and_then(|rest| rest.split(')').next());
    have.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("bad user-count probe: {body}"))
}

/// Put a request in flight: one completed round trip first, so a serving
/// worker owns the keep-alive connection (otherwise SIGTERM can win the
/// race against accept and the request was never in flight), then a
/// second request whose response the caller reads after signalling.
fn put_in_flight(addr: &str) -> BufReader<TcpStream> {
    let mut stream = connect(addr).expect("connect for drain");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"GET /recommend?user=2&n=10 HTTP/1.1\r\nHost: s\r\n\r\n")
        .expect("send priming request");
    let (status, _) = read_response(&mut reader).expect("priming response");
    assert_eq!(status, 200, "priming request failed");
    stream
        .write_all(b"GET /recommend?user=1&n=10 HTTP/1.1\r\nHost: s\r\n\r\n")
        .expect("send in-flight request");
    reader
}

/// Fingerprint of a client-side mirror set.
fn mirror_fp(mirror: &BTreeSet<u32>) -> u64 {
    let sorted: Vec<EventId> = mirror.iter().copied().map(EventId).collect();
    live_fingerprint(&sorted)
}

/// One churn op with bounded retries (injected WAL faults answer 500; a
/// client that wants the durability promise retries until it has a 202).
/// Updates `mirror` only on ack. Returns the number of 500s absorbed.
fn churn_acked(addr: &str, mirror: &mut BTreeSet<u32>, event: u32) -> usize {
    let verb = if mirror.contains(&event) { "retire" } else { "add" };
    let mut injected = 0;
    for _ in 0..4 {
        let (status, body) = one_shot(addr, "POST", &format!("/events/{verb}?event={event}"));
        match status {
            202 => {
                if verb == "add" {
                    mirror.insert(event);
                } else {
                    mirror.remove(&event);
                }
                return injected;
            }
            500 => injected += 1,
            other => panic!("churn {verb} {event}: unexpected {other}: {body}"),
        }
    }
    panic!("churn {verb} {event}: no ack after {injected} injected 500s + retries");
}

/// What one open-loop serving leg saw.
#[derive(Default)]
struct Leg {
    scheduled: usize,
    completed: usize,
    degraded: usize,
    shed_503: usize,
    other_5xx: usize,
    /// Latencies (ms) of completed requests, from scheduled arrival.
    latencies_ms: Vec<f64>,
    churn_acks: usize,
}

impl Leg {
    fn p99_ms(&self) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let at = ((sorted.len() as f64 - 1.0) * 0.99).round().max(0.0) as usize;
        sorted.get(at).copied().unwrap_or(0.0)
    }
}

/// Open-loop serving leg: pre-laid Poisson arrivals dealt onto keep-alive
/// connections, with a concurrent churn stream (the WAL's fsync path)
/// running until the leg ends. Each request's latency runs from its
/// scheduled arrival, so queueing under overload is charged to the daemon.
fn serving_leg(
    addr: &str,
    num_users: usize,
    num_events: usize,
    rate: f64,
    secs: f64,
    conns: usize,
    seed: u64,
) -> Leg {
    let mut rng = gem_sampling::rng_from_seed(seed);
    let mut arrivals: Vec<(f64, u32)> = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            break;
        }
        arrivals.push((t, (rng.random::<f64>() * num_users as f64) as u32));
    }
    let start = Instant::now() + Duration::from_millis(50);

    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        let mut crng = gem_sampling::rng_from_seed(seed ^ 0x5eed);
        std::thread::spawn(move || {
            let mut mirror = BTreeSet::new();
            let mut acks = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let event = (crng.random::<f64>() * num_events as f64) as u32;
                churn_acked(&addr, &mut mirror, event);
                acks += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            acks
        })
    };

    let senders: Vec<_> = (0..conns)
        .map(|w| {
            let mine: Vec<(f64, u32)> = arrivals.iter().skip(w).step_by(conns).copied().collect();
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut leg = Leg::default();
                let Ok(stream) = connect(&addr) else { return leg };
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                for &(offset, user) in &mine {
                    let due = start + Duration::from_secs_f64(offset);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let raw =
                        format!("GET /recommend?user={user}&n=10 HTTP/1.1\r\nHost: s\r\n\r\n");
                    let outcome =
                        stream.write_all(raw.as_bytes()).and_then(|()| read_response(&mut reader));
                    match outcome {
                        Ok((200..=299, degraded)) => {
                            leg.completed += 1;
                            leg.degraded += degraded as usize;
                            leg.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok((503, _)) => leg.shed_503 += 1,
                        Ok((500..=599, _)) => leg.other_5xx += 1,
                        Ok(_) => {}
                        Err(_) => match connect(&addr) {
                            Ok(fresh) => {
                                reader = BufReader::new(fresh.try_clone().expect("clone"));
                                stream = fresh;
                            }
                            Err(_) => break,
                        },
                    }
                }
                leg
            })
        })
        .collect();
    let mut leg = Leg { scheduled: arrivals.len(), ..Leg::default() };
    for sender in senders {
        let part = sender.join().expect("sender");
        leg.completed += part.completed;
        leg.degraded += part.degraded;
        leg.shed_503 += part.shed_503;
        leg.other_5xx += part.other_5xx;
        leg.latencies_ms.extend(part.latencies_ms);
    }
    stop.store(true, Ordering::Relaxed);
    leg.churn_acks = churner.join().expect("churner");
    leg
}

/// Train a small GEM-A model on the shared graphs and save it as v3.
fn train_and_save(
    graphs: &TrainingGraphs,
    seed: u64,
    dim: usize,
    steps: u64,
    path: &Path,
) -> gem_core::GemModel {
    let mut cfg = TrainConfig::gem_a(seed);
    cfg.dim = dim;
    let trainer = GemTrainer::new(graphs, cfg).expect("trainer construction");
    trainer.run(steps, 2);
    let model = trainer.model();
    save_model_v3(&model, path).expect("save model v3");
    model
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let seed = args.get("seed", 7u64);
    let scale = args.get("scale", 200usize);
    let dim = args.get("dim", 8usize);
    let steps = args.get("steps", 1_500u64);

    let scratch = std::env::temp_dir().join(format!("gem_soak_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    println!(
        "soak_drill{}: synthesizing 1/{scale} dataset, training dim-{dim} models",
        if smoke { " --smoke" } else { "" }
    );
    let (dataset, _) = gem_ebsn::synth::generate(&SynthConfig::beijing_like(seed, scale));
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    let graphs = TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[]);

    let model_a_path = scratch.join("soak_model_a.v3");
    let model_b_path = scratch.join("soak_model_b.v3");
    let model_dim_path = scratch.join("soak_model_dim.v3");
    let corrupt_path = scratch.join("soak_model_corrupt.v3");
    let model_a = train_and_save(&graphs, seed, dim, steps, &model_a_path);
    train_and_save(&graphs, seed + 1, dim, steps, &model_b_path);
    train_and_save(&graphs, seed + 2, dim + 4, 200, &model_dim_path);
    let mut corrupt = std::fs::read(&model_b_path).expect("read model b");
    let flip_at = corrupt.len() - 8;
    corrupt[flip_at] ^= 0x40;
    std::fs::write(&corrupt_path, &corrupt).expect("write corrupt model");

    let num_users = model_a.num_users();
    let num_events = model_a.num_events();
    let live0 = (num_events * 3 / 5).max(1);
    println!("  model: {num_users} users x {num_events} events, {live0} initially live");
    let a_path = model_a_path.to_str().expect("model path utf-8");
    let saved_a = ["--model", a_path, "--live-events", &live0.to_string()].map(String::from);

    // ---- Leg 1: steady-state WAL overhead --------------------------------
    let (rate, leg_secs, conns) = if smoke { (250.0, 2.5, 2) } else { (400.0, 6.0, 2) };
    let mut completion = [0.0f64; 2]; // [no_wal, wal]
    let mut churn_acks = [0usize; 2];
    let mut nominal_5xx = 0usize;
    let mut append_stats = (0u64, 0.0f64, 0.0f64); // (appends, mean_ms, p99_ms)
    for (i, with_wal) in [false, true].into_iter().enumerate() {
        let wal_path = scratch.join("overhead.wal");
        let _ = std::fs::remove_file(&wal_path);
        let wal = with_wal.then_some(wal_path.as_path());
        let (mut daemon, _) = spawn_daemon(&saved_a, wal, None, &NOMINAL);
        println!(
            "  [overhead {}] open-loop {rate} rps x {leg_secs}s + churn stream (wal={with_wal})",
            i + 1
        );
        let leg = serving_leg(
            &daemon.addr,
            num_users,
            num_events,
            rate,
            leg_secs,
            conns,
            seed + i as u64,
        );
        completion[i] = leg.completed as f64 / leg.scheduled.max(1) as f64;
        churn_acks[i] = leg.churn_acks;
        nominal_5xx += leg.shed_503 + leg.other_5xx;
        if with_wal {
            let (_, stats) = one_shot(&daemon.addr, "GET", "/stats");
            append_stats = (
                json_num(&stats, "server.wal_appends").unwrap_or(0.0) as u64,
                json_hist(&stats, "server.wal_append_ns", "mean").unwrap_or(0.0) / 1e6,
                json_hist(&stats, "server.wal_append_ns", "p99").unwrap_or(0.0) / 1e6,
            );
        }
        println!(
            "      completion {:.4} ({}/{} at {:.0} rps), {} 5xx, {} churn acks",
            completion[i],
            leg.completed,
            leg.scheduled,
            leg.completed as f64 / leg_secs,
            leg.shed_503 + leg.other_5xx,
            leg.churn_acks,
        );
        sigterm(&daemon);
        assert!(wait_exit(&mut daemon), "overhead-leg daemon did not drain cleanly");
    }
    let overhead_pct = ((completion[0] - completion[1]) / completion[0].max(1e-9) * 100.0).max(0.0);
    println!(
        "      WAL overhead {overhead_pct:.2}% (append mean {:.3} ms, p99 {:.3} ms over {} appends)",
        append_stats.1, append_stats.2, append_stats.0
    );

    // ---- Leg 2: nominal then overload on a small-admission daemon -------
    let synth = format!("--scale {OVERLOAD_SCALE} --steps {OVERLOAD_STEPS} --seed {seed}");
    let synth: Vec<String> = synth.split(' ').map(String::from).collect();
    let (mut daemon, _) = spawn_daemon(&synth, None, None, &OVERLOAD);
    let over_users = probe_num_users(&daemon.addr);
    let over_events = served_live(&daemon.addr).last().map_or(1, |&x| x as usize + 1);
    let (small_rate, small_secs) = if smoke { (300.0, 2.0) } else { (1_000.0, 4.0) };
    println!(
        "  [small nominal] 1/{OVERLOAD_SCALE} synth model, {over_users} users: open-loop \
         {small_rate} rps x {small_secs}s on {} conns (1 shard x capacity 2)",
        OVERLOAD.shard_capacity
    );
    let small = serving_leg(
        &daemon.addr,
        over_users,
        over_events,
        small_rate,
        small_secs,
        OVERLOAD.shard_capacity,
        seed + 2,
    );
    let small_5xx = small.shed_503 + small.other_5xx;
    println!(
        "      {}/{} completed, {small_5xx} 5xx; p99 of completed {:.2} ms",
        small.completed,
        small.scheduled,
        small.p99_ms()
    );
    let (over_rate, over_secs) = if smoke { (4_000.0, 2.0) } else { (8_000.0, 4.0) };
    println!(
        "  [overload] open-loop {over_rate} rps x {over_secs}s on {OVERLOAD_CONNS} conns \
         (1 shard x capacity 2, 1 ms deadline)"
    );
    let overload = serving_leg(
        &daemon.addr,
        over_users,
        over_events,
        over_rate,
        over_secs,
        OVERLOAD_CONNS,
        seed + 3,
    );
    let overload_p99_ms = overload.p99_ms();
    let Leg { completed, scheduled, degraded, shed_503, other_5xx, .. } = &overload;
    println!(
        "      {completed}/{scheduled} completed, {degraded} degraded, {shed_503} shed, \
         {other_5xx} other 5xx; p99 of completed {overload_p99_ms:.2} ms"
    );
    sigterm(&daemon);
    assert!(wait_exit(&mut daemon), "overload-leg daemon did not drain cleanly");

    // ---- Leg 3: Poisson-bursty churn, mid-burst SIGKILL, replay ----------
    let wal_path = scratch.join("churn.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (mut daemon, _) = spawn_daemon(&saved_a, Some(&wal_path), None, &NOMINAL);
    println!("  [crash] bursty churn on {}, SIGKILL mid-burst", daemon.addr);

    let mut mirror: BTreeSet<u32> = (0..live0 as u32).collect();
    let mut rng = gem_sampling::rng_from_seed(seed ^ 0xdead);
    let bursts = if smoke { 10 } else { 30 };
    let kill_at = (bursts / 2, 3usize); // burst index, op index within it
    let mut acked_before_kill = 0usize;
    let mut killed = false;
    for burst in 0..bursts {
        let size = 4 + (rng.random::<f64>() * 10.0) as usize;
        for op in 0..size {
            if (burst, op) == kill_at {
                sigkill(&mut daemon);
                killed = true;
                break;
            }
            let event = (rng.random::<f64>() * num_events as f64) as u32;
            churn_acked(&daemon.addr, &mut mirror, event);
            acked_before_kill += 1;
        }
        if killed {
            break;
        }
        std::thread::sleep(Duration::from_millis((rng.random::<f64>() * 60.0) as u64));
    }
    assert!(killed, "kill point never reached; widen the burst schedule");

    // Torn tail on top of whatever the SIGKILL left: replay must drop it.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).expect("open wal");
        f.write_all(&[0xde, 0xad, 0xbe]).expect("tear wal tail");
    }

    // Restart (with the next leg's WAL fail points pre-armed) and check
    // zero acknowledged-op loss.
    let failpoints = Some("wal.append=1;wal.fsync=1");
    let (mut daemon, recovery) = spawn_daemon(&saved_a, Some(&wal_path), failpoints, &NOMINAL);
    let recovery_ms = recovery.as_secs_f64() * 1e3;
    let served = served_live(&daemon.addr);
    let crash_match = served == mirror;
    let (_, stats) = one_shot(&daemon.addr, "GET", "/stats");
    let replayed_ops = json_num(&stats, "server.wal_replayed_ops").unwrap_or(0.0) as u64;
    println!(
        "      {acked_before_kill} acked ops, recovery {recovery_ms:.0} ms, \
         {replayed_ops} replayed, fingerprint {:#010x} match={crash_match}",
        mirror_fp(&mirror)
    );

    // ---- Leg 4: fault-injected appends, second crash ---------------------
    println!("  [faults] churn through armed wal.append/wal.fsync fail points");
    let mut injected_500s = 0usize;
    for _ in 0..(if smoke { 20 } else { 60 }) {
        let event = (rng.random::<f64>() * num_events as f64) as u32;
        injected_500s += churn_acked(&daemon.addr, &mut mirror, event);
    }
    let (_, metrics_text) = one_shot(&daemon.addr, "GET", "/metrics");
    let append_hits = metrics_text
        .lines()
        .find(|l| l.starts_with("faults_wal_append_hits "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0) as u64;
    let (_, stats) = one_shot(&daemon.addr, "GET", "/stats");
    let fsync_hits = json_num(&stats, "faults.wal.fsync.hits").unwrap_or(0.0) as u64;
    let append_errors = json_num(&stats, "server.wal_append_errors").unwrap_or(0.0) as u64;
    println!(
        "      {injected_500s} injected 500s absorbed by retries \
         (append hits {append_hits}, fsync hits {fsync_hits}, append errors {append_errors})"
    );

    sigkill(&mut daemon);
    let (daemon3, recovery2) =
        spawn_daemon(&saved_a, Some(&wal_path), Some("server.reload=1"), &NOMINAL);
    daemon = daemon3;
    let recovery2_ms = recovery2.as_secs_f64() * 1e3;
    let fault_match = served_live(&daemon.addr) == mirror;
    println!("      post-fault recovery {recovery2_ms:.0} ms, fingerprint match={fault_match}");

    // ---- Leg 5: validated hot-reload -------------------------------------
    println!("  [reload] rejection paths, then a real swap");
    let (_, health) = one_shot(&daemon.addr, "GET", "/healthz");
    let gen_before = json_num(&health, "generation").unwrap_or(-1.0) as u64;
    let missing = scratch.join("soak_model_missing.v3");
    let reload = |path: &Path| -> (u16, String) {
        one_shot(&daemon.addr, "POST", &format!("/reload?path={}", path.display()))
    };
    let (missing_status, _) = reload(&missing);
    let (corrupt_status, corrupt_body) = reload(&corrupt_path);
    let (dim_status, dim_body) = reload(&model_dim_path);
    let (injected_status, _) = reload(&model_b_path); // server.reload armed once
                                                      // Old generation still answering after every rejection:
    let (serve_status, _) = one_shot(&daemon.addr, "GET", "/recommend?user=1&n=5");
    let (_, health) = one_shot(&daemon.addr, "GET", "/healthz");
    let gen_after_rejects = json_num(&health, "generation").unwrap_or(-1.0) as u64;
    let serving_after_rejects = serve_status == 200 && gen_after_rejects == gen_before;
    let (success_status, success_body) = reload(&model_b_path);
    let gen_after = json_num(&success_body, "generation").unwrap_or(0.0) as u64;
    let reload_live_match = served_live(&daemon.addr) == mirror;
    let (_, stats) = one_shot(&daemon.addr, "GET", "/stats");
    let reloads = json_num(&stats, "server.reloads").unwrap_or(0.0) as u64;
    let reloads_rejected = json_num(&stats, "server.reloads_rejected").unwrap_or(0.0) as u64;
    println!(
        "      missing={missing_status} corrupt={corrupt_status} dim={dim_status} \
         injected={injected_status} success={success_status} \
         (gen {gen_before} -> {gen_after}, live preserved={reload_live_match})"
    );

    // ---- Leg 6: drain with a request in flight ---------------------------
    let mut in_flight = put_in_flight(&daemon.addr);
    sigterm(&daemon);
    let inflight_ok = matches!(read_response(&mut in_flight), Ok((200, _)));
    let drain_ok = wait_exit(&mut daemon);
    println!(
        "  [drain] SIGTERM with a request in flight: completed={inflight_ok} exit_ok={drain_ok}"
    );

    // ---- Artifacts: one record per leg, a BENCH_soak.json block and a
    // journal line each ------------------------------------------------
    let legs = [
        (
            "daemon",
            JournalRecord::new()
                .u64("scale", scale as u64)
                .u64("dim", dim as u64)
                .u64("steps", steps)
                .u64("num_users", num_users as u64)
                .u64("num_events", num_events as u64)
                .u64("initial_live", live0 as u64)
                .u64("staleness_budget", 48),
        ),
        (
            "wal_overhead",
            JournalRecord::new()
                .f64("rate_rps", rate)
                .f64("duration_s", leg_secs)
                .f64("no_wal_completion", completion[0])
                .f64("wal_completion", completion[1])
                .f64("overhead_pct", overhead_pct)
                .u64("wal_appends", append_stats.0)
                .f64("append_mean_ms", append_stats.1)
                .f64("append_p99_ms", append_stats.2)
                .u64("churn_acks_no_wal", churn_acks[0] as u64)
                .u64("churn_acks_wal", churn_acks[1] as u64)
                .u64("nominal_5xx", nominal_5xx as u64),
        ),
        (
            "overload",
            JournalRecord::new()
                .u64("scale", OVERLOAD_SCALE as u64)
                .u64("steps", OVERLOAD_STEPS)
                .u64("num_users", over_users as u64)
                .f64("nominal_rate_rps", small_rate)
                .f64("nominal_duration_s", small_secs)
                .u64("nominal_connections", OVERLOAD.shard_capacity as u64)
                .u64("nominal_scheduled", small.scheduled as u64)
                .u64("nominal_completed", small.completed as u64)
                .u64("nominal_5xx", small_5xx as u64)
                .f64("rate_rps", over_rate)
                .f64("duration_s", over_secs)
                .u64("connections", OVERLOAD_CONNS as u64)
                .u64("scheduled", overload.scheduled as u64)
                .u64("completed_2xx", overload.completed as u64)
                .u64("degraded", overload.degraded as u64)
                .u64("shed_503", overload.shed_503 as u64)
                .u64("other_5xx", overload.other_5xx as u64)
                .f64("p99_ms", overload_p99_ms),
        ),
        (
            "crash",
            JournalRecord::new()
                .u64("acked_ops", acked_before_kill as u64)
                .bool("fingerprint_match", crash_match)
                .f64("recovery_ms", recovery_ms)
                .u64("replayed_ops", replayed_ops)
                .u64("torn_bytes_injected", 3),
        ),
        (
            "faults",
            JournalRecord::new()
                .u64("injected_500s", injected_500s as u64)
                .u64("wal_append_hits", append_hits)
                .u64("wal_fsync_hits", fsync_hits)
                .u64("wal_append_errors", append_errors)
                .bool("fingerprint_match", fault_match)
                .f64("recovery_ms", recovery2_ms),
        ),
        (
            "reload",
            JournalRecord::new()
                .u64("missing_status", missing_status as u64)
                .u64("corrupt_status", corrupt_status as u64)
                .u64("dim_mismatch_status", dim_status as u64)
                .u64("injected_status", injected_status as u64)
                .u64("success_status", success_status as u64)
                .u64("generation_before", gen_before)
                .u64("generation_after", gen_after)
                .bool("serving_after_rejects", serving_after_rejects)
                .bool("live_preserved", reload_live_match)
                .u64("reloads", reloads)
                .u64("reloads_rejected", reloads_rejected),
        ),
        (
            "drain",
            JournalRecord::new()
                .bool("sigterm_exit_ok", drain_ok)
                .bool("inflight_completed", inflight_ok)
                .u64("connect_retries", CONNECT_RETRIES.load(Ordering::Relaxed)),
        ),
    ];
    let mut journal =
        gem_obs::Journal::create("journal_soak_bench.jsonl").expect("create soak journal");
    let mut json = format!(
        "{{\n  \"bench\": \"soak_drill\",\n  \"smoke\": {smoke},\n{}",
        gem_bench::host_json("  ")
    );
    for (leg, record) in &legs {
        let tag = JournalRecord::new().str("journal", "soak_bench").str("leg", leg);
        journal.append(&record.fields().iter().fold(tag, |r, (k, v)| r.field(k, v.clone())));
        json.push_str(&format!(",\n  \"{leg}\": {}", record.to_json_line()));
    }
    json.push_str("\n}\n");
    assert_eq!(journal.write_errors(), 0, "soak journal hit I/O errors");
    std::fs::write("BENCH_soak.json", &json).expect("write BENCH_soak.json");
    println!("  wrote BENCH_soak.json + journal_soak_bench.jsonl");

    let _ = std::fs::remove_dir_all(&scratch);

    // ---- Gates (asserted in smoke mode) ----------------------------------
    if smoke {
        assert!(crash_match, "acknowledged ops lost across SIGKILL + restart");
        assert!(fault_match, "acknowledged ops lost across fault-injected leg + second crash");
        assert!(
            recovery_ms < 30_000.0 && recovery2_ms < 30_000.0,
            "recovery unbounded: {recovery_ms:.0} ms / {recovery2_ms:.0} ms"
        );
        assert!(
            overhead_pct < 2.0,
            "steady-state WAL overhead {overhead_pct:.2}% breaches the 2% budget"
        );
        assert_eq!(nominal_5xx, 0, "5xx on the nominal WAL legs");
        assert_eq!(small_5xx, 0, "5xx at nominal load on the small-admission daemon");
        assert!(
            overload.shed_503 + overload.degraded > 0,
            "overload leg neither shed nor degraded: admission/deadline paths never engaged"
        );
        assert!(overload.completed > 0, "overload leg completed nothing");
        assert!(
            overload_p99_ms < 500.0,
            "p99 of completed requests under overload is unbounded ({overload_p99_ms:.1} ms): \
             load shedding is not protecting accepted traffic"
        );
        assert_eq!(missing_status, 404, "missing model file must 404");
        assert_eq!(corrupt_status, 400, "corrupt model accepted: {corrupt_body}");
        assert_eq!(dim_status, 400, "dim-mismatched model accepted: {dim_body}");
        assert_eq!(injected_status, 500, "injected reload fault not surfaced");
        assert!(serving_after_rejects, "old generation stopped serving after rejected reloads");
        assert_eq!(success_status, 200, "valid reload rejected: {success_body}");
        assert!(gen_after > gen_before, "successful reload did not advance the generation");
        assert!(reload_live_match, "reload did not preserve the live-event set");
        assert!(injected_500s >= 2, "armed WAL fail points never fired over churn");
        assert_eq!(append_hits, 1, "wal.append fail point hits");
        assert_eq!(fsync_hits, 1, "wal.fsync fail point hits");
        assert_eq!(append_errors, 2, "server.wal_append_errors");
        assert_eq!(reloads, 1, "server.reloads");
        assert_eq!(reloads_rejected, 4, "server.reloads_rejected");
        assert!(inflight_ok, "in-flight request was dropped during the SIGTERM drain");
        assert!(drain_ok, "daemon did not exit cleanly on SIGTERM after the soak");
        println!(
            "smoke OK: zero acked-op loss across 2 crashes, WAL overhead {overhead_pct:.2}%, \
             zero nominal 5xx, overload shed {} / degraded {} with p99 {overload_p99_ms:.1} ms, \
             reload rejections 404/400/400/500 with the old generation serving, clean drain \
             with the in-flight request completed",
            overload.shed_503, overload.degraded
        );
    }
}
