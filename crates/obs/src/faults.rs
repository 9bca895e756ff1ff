//! Fail-point injection: deterministic fault triggers for crash-path tests.
//!
//! Production fault tolerance is only as real as its tests, and the
//! interesting failures — a short write torn by `kill -9`, an `fsync`
//! returning `EIO`, a rename that never lands — cannot be provoked on a
//! healthy filesystem. This module is the standard remedy: named **fail
//! points** compiled into the crash-relevant paths (`gem-core`'s persist
//! and checkpoint I/O, the Hogwild worker loop, the adaptive-sampler
//! refresh) that do nothing in normal operation and inject the configured
//! fault when *armed*.
//!
//! Zero-dep and cheap by construction:
//!
//! * **Disarmed** (the default, and the production state) a fail-point
//!   check is two atomic loads — the one-time env-init flag and a
//!   process-wide arm counter — plus a predicted-not-taken branch; no
//!   locks, no allocation, no clock reads.
//!   `fault_drill --smoke` stage 5 (checkpoint tax) holds this to <2%
//!   end-to-end.
//! * **Armed** checks take a registry mutex; armed runs are test runs, so
//!   the lock cost is irrelevant.
//!
//! Arming is either programmatic ([`arm`], for same-process tests) or via
//! the `GEM_FAILPOINTS` environment variable (for subprocess drills), read
//! once on first use. The env grammar is `name=spec` entries separated by
//! `;` or `,`, where `spec` is a fire count or `always`:
//!
//! ```text
//! GEM_FAILPOINTS="persist.short_write=1;train.worker_panic=always"
//! ```
//!
//! Every trigger is counted per fail point ([`hits`]), so tests can assert
//! the injected fault actually fired and smoke drivers can report which
//! faults a drill exercised. See DESIGN.md §5.4 for the catalog of wired
//! fail points.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How an armed fail point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire on every evaluation until disarmed.
    Always,
    /// Fire on the next `n` evaluations, then disarm automatically.
    Times(u64),
}

/// Per-fail-point registry entry.
struct FaultState {
    /// `None` = always; `Some(n)` = n remaining fires.
    remaining: Option<u64>,
    /// Evaluations that fired (survives disarm, for post-run assertions).
    hits: u64,
}

/// Count of currently armed fail points — the disarmed fast path reads
/// only this.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Name → state for armed points, plus hit counts for disarmed ones.
static REGISTRY: OnceLock<Mutex<HashMap<String, FaultState>>> = OnceLock::new();

/// `GEM_FAILPOINTS` is parsed exactly once, before the first evaluation.
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, FaultState>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Read `GEM_FAILPOINTS` once and arm whatever it names. Called lazily by
/// every public entry point, so subprocess drills need no explicit init.
///
/// The cell is *set before* parsing, not via `get_or_init`: parsing calls
/// [`arm`], which re-enters this function, and a re-entrant
/// `OnceLock::get_or_init` deadlocks. The published-but-still-parsing
/// window this opens is harmless — a racing thread sees whatever subset of
/// the env spec has been armed so far, which is indistinguishable from it
/// having called a moment earlier.
fn ensure_env_init() {
    if ENV_INIT.get().is_some() {
        return;
    }
    if ENV_INIT.set(()).is_ok() {
        if let Ok(spec) = std::env::var("GEM_FAILPOINTS") {
            arm_from_spec(&spec);
        }
    }
}

/// Arm fail points from a `name=spec[;name=spec...]` string (the
/// `GEM_FAILPOINTS` grammar). Unparseable entries are ignored — a typo in
/// a test harness must not inject faults into paths it did not name.
pub fn arm_from_spec(spec: &str) {
    for entry in spec.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, mode) = match entry.split_once('=') {
            None => (entry, FaultMode::Times(1)),
            Some((name, "always")) => (name, FaultMode::Always),
            Some((name, count)) => match count.trim().parse::<u64>() {
                Ok(n) => (name, FaultMode::Times(n)),
                Err(_) => continue,
            },
        };
        arm(name.trim(), mode);
    }
}

/// Arm a fail point. Re-arming an already-armed point replaces its mode
/// (hit counts are preserved).
pub fn arm(name: &str, mode: FaultMode) {
    ensure_env_init();
    let remaining = match mode {
        FaultMode::Always => None,
        FaultMode::Times(0) => return, // arming for zero fires is a no-op
        FaultMode::Times(n) => Some(n),
    };
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let prev_hits = reg.get(name).map(|s| s.hits).unwrap_or(0);
    let was_armed = reg.get(name).map(|s| s.remaining != Some(0)).unwrap_or(false);
    reg.insert(name.to_string(), FaultState { remaining, hits: prev_hits });
    if !was_armed {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarm one fail point (its hit count is kept).
pub fn disarm(name: &str) {
    ensure_env_init();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = reg.get_mut(name) {
        if state.remaining != Some(0) {
            state.remaining = Some(0);
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Disarm every fail point (hit counts are kept).
pub fn disarm_all() {
    ensure_env_init();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for state in reg.values_mut() {
        if state.remaining != Some(0) {
            state.remaining = Some(0);
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Evaluate a fail point: `true` means the caller must inject its fault.
///
/// The disarmed fast path (no fail point armed anywhere in the process) is
/// two atomic loads — the env-init check and the arm counter — and no
/// locks; safe to call from hot loops at a modest cadence. The env check
/// must come first: until `GEM_FAILPOINTS` is parsed the arm counter is
/// zero, and a subprocess drill's very first evaluation has to see its
/// env-armed points.
#[inline]
pub fn should_fail(name: &str) -> bool {
    ensure_env_init();
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    should_fail_slow(name)
}

#[cold]
fn should_fail_slow(name: &str) -> bool {
    ensure_env_init();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = reg.get_mut(name) else { return false };
    match state.remaining {
        Some(0) => false,
        Some(n) => {
            state.remaining = Some(n - 1);
            state.hits += 1;
            if n == 1 {
                ARMED.fetch_sub(1, Ordering::Relaxed);
            }
            true
        }
        None => {
            state.hits += 1;
            true
        }
    }
}

/// Times this fail point has fired (across arms/disarms).
pub fn hits(name: &str) -> u64 {
    ensure_env_init();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.get(name).map(|s| s.hits).unwrap_or(0)
}

/// `(name, hits)` for every fail point ever armed in this process, sorted
/// by name — for drill reports ("which faults did this run exercise?").
pub fn snapshot() -> Vec<(String, u64)> {
    ensure_env_init();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(String, u64)> = reg.iter().map(|(k, v)| (k.clone(), v.hits)).collect();
    out.sort();
    out
}

/// Convenience for I/O sites: `Some(io::Error)` when the fail point fires.
pub fn io_error(name: &str) -> Option<std::io::Error> {
    should_fail(name).then(|| std::io::Error::other(format!("injected fault: {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fail-point state is process-global; these tests use `test.*` names
    // that no production code path evaluates, so parallel test threads in
    // this binary cannot interfere with each other or with real wiring.

    #[test]
    fn disarmed_points_never_fire() {
        assert!(!should_fail("test.never_armed"));
        assert_eq!(hits("test.never_armed"), 0);
    }

    #[test]
    fn times_mode_fires_exactly_n_then_disarms() {
        arm("test.times", FaultMode::Times(2));
        assert!(should_fail("test.times"));
        assert!(should_fail("test.times"));
        assert!(!should_fail("test.times"));
        assert_eq!(hits("test.times"), 2);
    }

    #[test]
    fn always_mode_fires_until_disarmed() {
        arm("test.always", FaultMode::Always);
        for _ in 0..5 {
            assert!(should_fail("test.always"));
        }
        disarm("test.always");
        assert!(!should_fail("test.always"));
        assert_eq!(hits("test.always"), 5);
    }

    #[test]
    fn spec_grammar_parses_counts_always_and_bare_names() {
        arm_from_spec("test.spec_a=3; test.spec_b=always ,test.spec_c, junk==, test.bad=x");
        assert!(should_fail("test.spec_a"));
        assert!(should_fail("test.spec_b"));
        assert!(should_fail("test.spec_c"));
        assert!(!should_fail("test.spec_c"), "bare name arms a single fire");
        assert!(!should_fail("test.bad"), "unparseable counts are ignored");
        disarm("test.spec_a");
        disarm("test.spec_b");
    }

    #[test]
    fn io_error_helper_maps_fire_to_error() {
        assert!(io_error("test.io_unarmed").is_none());
        arm("test.io", FaultMode::Times(1));
        let err = io_error("test.io").expect("armed point yields an error");
        assert!(err.to_string().contains("test.io"));
        assert!(io_error("test.io").is_none());
    }

    #[test]
    fn snapshot_reports_hit_counts() {
        arm("test.snap", FaultMode::Times(1));
        assert!(should_fail("test.snap"));
        let snap = snapshot();
        let entry = snap.iter().find(|(n, _)| n == "test.snap").expect("snapshot has test.snap");
        assert_eq!(entry.1, 1);
    }

    #[test]
    fn rearming_replaces_mode_and_keeps_hits() {
        arm("test.rearm", FaultMode::Times(1));
        assert!(should_fail("test.rearm"));
        arm("test.rearm", FaultMode::Times(1));
        assert!(should_fail("test.rearm"));
        assert_eq!(hits("test.rearm"), 2);
    }
}
