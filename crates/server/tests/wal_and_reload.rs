//! Crash durability and validated hot-reload, end to end (DESIGN.md §5.9).
//!
//! Two layers:
//!
//! * **Subprocess** (`wal_survives_kill_dash_nine`): a real `gem-serverd`
//!   is SIGKILLed mid-churn — including between a `202` ack and the
//!   maintenance thread absorbing the op — its WAL tail is additionally
//!   torn with garbage bytes, and a restart must reconstruct *exactly* the
//!   acknowledged live-event set.
//! * **In-process** (`reload_*`): the reload validation
//!   matrix (missing / corrupt / dim-mismatch / shrunken-coverage files
//!   are rejected with 4xx while the old generation keeps serving, and
//!   crucially keeps its *generation number*), and reload ordering
//!   against in-flight churn.

use gem_core::{save_model_v3, GemModel};
use gem_ebsn::{EventId, UserId};
use gem_obs::MetricsRegistry;
use gem_query::{EngineMetrics, IncrementalEngine};
use gem_server::{Daemon, DaemonConfig};
use rand::RngExt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Deterministic random model, same recipe as `daemon_e2e`.
fn test_model(nu: u32, nx: u32, dim: usize, seed: u64) -> GemModel {
    let mut rng = gem_sampling::rng_from_seed(seed);
    let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>()).collect();
    let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>()).collect();
    GemModel::from_raw(dim, users, events, vec![], vec![], vec![])
}

/// Scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gem_walreload_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One-shot HTTP exchange against `addr` (string form, fresh connection).
fn http(addr: &str, method: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read response");
    let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    (status, reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

/// Parse the sorted live-id list out of a `GET /events/live` body.
fn live_ids(body: &str) -> Vec<u32> {
    body.split_once("\"live\":[")
        .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
        .into_iter()
        .flat_map(|list| list.split(',').filter_map(|t| t.trim().parse().ok()))
        .collect()
}

fn json_num(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------------
// Subprocess: SIGKILL between ack and absorb, torn tail, exact replay.
// ---------------------------------------------------------------------------

fn spawn_serverd(model: &Path, wal: &Path, live: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gem-serverd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--model",
            model.to_str().unwrap(),
            "--live-events",
            &live.to_string(),
            "--wal",
            wal.to_str().unwrap(),
            "--workers",
            "2",
            // High budget: no mid-test rebuild, so the WAL is never
            // compacted and the replay path sees every raw record.
            "--staleness-budget",
            "100000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gem-serverd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("daemon exited before LISTENING").expect("read stdout");
        if let Some(a) = line.strip_prefix("LISTENING ") {
            break a.to_string();
        }
    };
    (child, addr)
}

#[test]
#[cfg(unix)]
fn wal_survives_kill_dash_nine_with_torn_tail() {
    let dir = scratch("kill9");
    let model_path = dir.join("model.v3");
    save_model_v3(&test_model(64, 32, 6, 42), &model_path).expect("save model");
    let wal_path = dir.join("churn.wal");

    let (mut child, addr) = spawn_serverd(&model_path, &wal_path, 16);
    assert_eq!(http(&addr, "GET", "/healthz").0, 200);

    // Acknowledged churn, mirrored client-side. The final burst is sent
    // back-to-back with the SIGKILL landing right after the last `202` —
    // the op is fsynced but (likely) not yet absorbed by the maintenance
    // thread, which is exactly the ack-vs-absorb gap replay must cover.
    let mut mirror: std::collections::BTreeSet<u32> = (0..16).collect();
    for (verb, id) in [
        ("add", 20),
        ("add", 21),
        ("retire", 3),
        ("add", 22),
        ("retire", 21),
        ("retire", 7),
        ("add", 30),
        ("add", 31),
    ] {
        let (status, body) = http(&addr, "POST", &format!("/events/{verb}?event={id}"));
        assert_eq!(status, 202, "churn {verb} {id}: {body}");
        if verb == "add" {
            mirror.insert(id);
        } else {
            mirror.remove(&id);
        }
    }
    unsafe {
        assert_eq!(kill(child.id() as i32, 9), 0);
    }
    let _ = child.wait();

    // Tear the tail the way a crash mid-append would.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).expect("open wal");
        f.write_all(&[0xff, 0x00, 0x13]).expect("append garbage");
    }

    let (mut child, addr) = spawn_serverd(&model_path, &wal_path, 16);
    let (status, body) = http(&addr, "GET", "/events/live");
    assert_eq!(status, 200, "{body}");
    let served: std::collections::BTreeSet<u32> = live_ids(&body).into_iter().collect();
    assert_eq!(served, mirror, "restart must serve exactly the acknowledged live set");

    let (_, stats) = http(&addr, "GET", "/stats");
    assert!(
        json_num(&stats, "server.wal_replayed_ops").unwrap_or(0.0) >= 1.0,
        "replay should have re-applied ops: {stats}"
    );

    unsafe {
        assert_eq!(kill(child.id() as i32, 15), 0);
    }
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "SIGTERM drain after replay must exit 0");
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(10), "drain timed out");
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// In-process: reload validation matrix + ordering.
// ---------------------------------------------------------------------------

fn start_daemon(cfg: DaemonConfig, live_events: u32) -> (Daemon, String) {
    let registry = Arc::new(MetricsRegistry::new());
    let model = test_model(24, 12, 6, 42);
    let partners: Vec<UserId> = (0..24).map(UserId).collect();
    let events: Vec<EventId> = (0..live_events).map(EventId).collect();
    let engine =
        IncrementalEngine::build(model, &partners, &events, 4, EngineMetrics::register(&registry));
    let daemon = Daemon::start("127.0.0.1:0", engine, cfg, registry).expect("bind ephemeral port");
    let addr = daemon.local_addr().to_string();
    (daemon, addr)
}

fn test_config() -> DaemonConfig {
    DaemonConfig { workers: 2, watch_os_signals: false, ..DaemonConfig::default() }
}

#[test]
fn reload_rejects_bad_files_and_pins_the_generation() {
    let dir = scratch("reload_reject");
    // Same shape as the serving model -> valid; everything else is a trap.
    let good = dir.join("good.v3");
    save_model_v3(&test_model(24, 12, 6, 43), &good).expect("save good");
    let bad_dim = dir.join("bad_dim.v3");
    save_model_v3(&test_model(24, 12, 8, 44), &bad_dim).expect("save bad dim");
    let fewer_users = dir.join("fewer_users.v3");
    save_model_v3(&test_model(12, 12, 6, 45), &fewer_users).expect("save fewer users");
    let fewer_events = dir.join("fewer_events.v3");
    save_model_v3(&test_model(24, 6, 6, 46), &fewer_events).expect("save fewer events");
    let corrupt = dir.join("corrupt.v3");
    let mut bytes = std::fs::read(&good).expect("read good");
    let at = bytes.len() - 9;
    bytes[at] ^= 0x20;
    std::fs::write(&corrupt, &bytes).expect("write corrupt");

    let (daemon, addr) = start_daemon(test_config(), 12);
    let (_, health) = http(&addr, "GET", "/healthz");
    let gen_before = json_num(&health, "generation").unwrap() as u64;

    let reload = |p: &Path| http(&addr, "POST", &format!("/reload?path={}", p.display()));
    assert_eq!(http(&addr, "POST", "/reload").0, 400, "missing ?path= param");
    assert_eq!(reload(&dir.join("nope.v3")).0, 404, "missing file");
    assert_eq!(reload(&corrupt).0, 400, "corrupt file");
    assert_eq!(reload(&bad_dim).0, 400, "dimension mismatch");
    assert_eq!(reload(&fewer_users).0, 400, "shrunken user coverage");
    assert_eq!(reload(&fewer_events).0, 400, "live event beyond new matrix");

    // Old generation still serving, same generation *number*.
    assert_eq!(http(&addr, "GET", "/recommend?user=1&n=4").0, 200);
    let (_, health) = http(&addr, "GET", "/healthz");
    assert_eq!(
        json_num(&health, "generation").unwrap() as u64,
        gen_before,
        "rejected reloads must not disturb the serving generation"
    );
    let (_, stats) = http(&addr, "GET", "/stats");
    // The missing-`?path=` 400 is caught at the HTTP layer and never
    // reaches the maintenance thread, so only the five file-level
    // rejections count.
    assert_eq!(json_num(&stats, "server.reloads_rejected").unwrap() as u64, 5);
    assert_eq!(json_num(&stats, "server.reloads").unwrap() as u64, 0);

    // And a valid file actually swaps.
    let (status, body) = reload(&good);
    assert_eq!(status, 200, "{body}");
    assert!(json_num(&body, "generation").unwrap() as u64 > gen_before);
    assert_eq!(http(&addr, "GET", "/recommend?user=1&n=4").0, 200);

    daemon.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_behind_in_flight_churn_keeps_the_ack() {
    let dir = scratch("reload_order");
    let good = dir.join("good.v3");
    save_model_v3(&test_model(24, 12, 6, 47), &good).expect("save good");

    let (daemon, addr) = start_daemon(test_config(), 4);
    // Ack churn, then immediately reload: the mailbox is FIFO, so the
    // maintenance thread absorbs the add before validating the reload,
    // and the post-swap live set must still contain it.
    assert_eq!(http(&addr, "POST", "/events/add?event=11").0, 202);
    let (status, body) = http(&addr, "POST", &format!("/reload?path={}", good.display()));
    assert_eq!(status, 200, "{body}");
    let (_, live) = http(&addr, "GET", "/events/live");
    assert!(
        live_ids(&live).contains(&11),
        "churn acked before the reload must survive the swap: {live}"
    );

    daemon.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}
