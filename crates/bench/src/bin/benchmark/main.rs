//! The benchmark of this repo: five named workloads, four end-to-end
//! metrics with regression bounds, and a per-layer trace from trainer step
//! to `dot_batch` and from HTTP request to TA round.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]]
//!           [--smoke] [--check-repeat] [--emit-spec]
//! ```
//!
//! It drives every layer from outside, through public functions only (the
//! list is in README.md), and claims no gain. The last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! per workload: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for the glossary.

mod affinity;
mod daemon;
mod host;
mod inputs;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Record benchmark-side spans and run the layer probes; report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and windows: exercises every code path in seconds, its
    /// numbers mean nothing and the accuracy gate is off.
    pub smoke: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metrics this host cannot measure (too few cores): reported as 0.
    pub unverified: Vec<&'static str>,
    pub spans: Vec<trace::Span>,
}

impl Default for Outcome {
    /// Nothing measured yet, no gate failed yet.
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            unverified: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::END_TO_END.iter().any(|m| m.name == name)
                || spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in spec.rs"
        );
        if !value.is_finite() {
            self.gate(false, &format!("{name} is not a finite number"));
            return;
        }
        self.metrics.insert(name, value);
    }

    /// A correctness gate: a failed one fails the command.
    pub fn gate(&mut self, ok: bool, what: &str) {
        println!("  gate {}: {what}", if ok { "ok" } else { "FAILED" });
        self.correct &= ok;
    }

    /// Count operations towards `attempted` / `failed`.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The contract's result line: every end-to-end metric, or with
    /// `traced` every per-layer metric (0 for layers this workload does not
    /// exercise).
    pub fn result_line(&self, traced: bool) -> String {
        let wanted: Vec<(&str, &str)> = if traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = wanted
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Where traces and full results go: `target/benchmark/` under the working
/// directory (the checkout root), which `.gitignore` covers.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("benchmark");
    std::fs::create_dir_all(&dir).expect("create target/benchmark");
    dir
}

fn run_workload(name: &str, opts: &Opts, host: &host::Host) -> Outcome {
    let why = spec::WORKLOADS.iter().find(|w| w.name == name).map_or("", |w| w.why);
    println!(
        "== {name} (seed {}, {} s{}{}) ==\n  why: {why}",
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        if opts.smoke { ", smoke" } else { "" },
    );
    let mut out = match name {
        "train_degree" => train::run(train::Noise::Degree, opts, host),
        "train_adaptive" => train::run(train::Noise::Adaptive, opts, host),
        "serve_trained" => serve::run(serve::Shape::Trained, opts),
        "serve_wide" => serve::run(serve::Shape::Wide, opts),
        "daemon_mixed" => daemon::run(opts, host),
        other => unreachable!("workload {other} was validated"),
    };
    if opts.trace {
        out.set("trace.spans", out.spans.len() as f64);
    }
    // Every metric the mode promises must have been measured by someone:
    // an end-to-end metric on every workload, a per-layer one on at least
    // the workloads that exercise it (the rest report 0).
    if !opts.trace {
        for m in &spec::END_TO_END {
            let measured = out.metrics.get(m.name).is_some_and(|&v| v > 0.0);
            if !measured {
                out.gate(false, &format!("{} was not measured", m.name));
            }
        }
    }
    report(name, opts, host, &out);
    out
}

/// Print the metrics with their units, and write the full result (host
/// block included) and the Chrome trace under `target/benchmark/`.
fn report(name: &str, opts: &Opts, host: &host::Host, out: &Outcome) {
    // End-to-end metrics with what they mean on a workload; per-layer
    // metrics with the end-to-end metric each is expected to move.
    let note =
        |n: &str| if out.unverified.contains(&n) { " (unverified on this host)" } else { "" };
    for m in spec::END_TO_END.iter().filter(|m| out.metrics.contains_key(m.name)) {
        println!(
            "  {:<32} {:>16.4} {:<6} {}",
            m.name,
            out.metrics[m.name],
            m.unit,
            m.means_on(name)
        );
    }
    for m in spec::PER_LAYER.iter().filter(|m| out.metrics.contains_key(m.name)) {
        let value = out.metrics[m.name];
        println!("  {:<32} {value:>16.4} {:<6} -> {}{}", m.name, m.unit, m.moves, note(m.name));
    }
    for name in &out.unverified {
        println!("  {name:<32} {:>16} (needs more cores than this host has)", "unverified");
    }
    if opts.trace {
        println!("  per-layer table (self = span minus what its children cover):");
        print!("{}", trace::render_table(&out.spans));
    }
    println!("  host: {}", host.json());

    let suffix = if opts.trace { ".trace" } else { "" };
    let dir = out_dir();
    let unverified =
        out.unverified.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",");
    let full = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\
         \"host\":{},\"unverified\":[{unverified}],\"result\":{}}}\n",
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        host.json(),
        out.result_line(opts.trace),
    );
    std::fs::write(dir.join(format!("{name}{suffix}.json")), full).expect("write result file");
    if opts.trace {
        std::fs::write(dir.join(format!("{name}.chrome.json")), trace::chrome_json(&out.spans))
            .expect("write chrome trace");
    }
}

/// `--check-repeat`: every workload twice back to back with the same seed;
/// an end-to-end metric that differs by more than its own bound fails.
fn check_repeat(names: &[&str], opts: &Opts, host: &host::Host) -> bool {
    let mut ok = true;
    for name in names {
        let a = run_workload(name, opts, host);
        let b = run_workload(name, opts, host);
        ok &= a.correct && b.correct;
        for m in &spec::END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = (x - y).abs() / x.min(y);
            let held = diff <= m.bound;
            println!(
                "repeat {name:<15} {:<10} {x:>14.4} vs {y:>14.4} {:<4} differ {:>6.2} % (bound {:.0} %) {}",
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if held { "ok" } else { "EXCEEDED" },
            );
            ok &= held;
        }
    }
    ok
}

struct Cli {
    workload: String,
    opts: Opts,
    check_repeat: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        opts: Opts { seed: 7, seconds: f64::from(spec::RUN_SECONDS), trace: false, smoke: false },
        check_repeat: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = value(&mut i, "--workload")?,
            "--seed" => {
                cli.opts.seed =
                    value(&mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut i, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.opts.trace = true;
                    i += 1;
                }
                _ => cli.opts.trace = true,
            },
            "--smoke" => cli.opts.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if cli.opts.smoke {
        cli.opts.seconds = cli.opts.seconds.min(0.4);
    }
    let known = spec::WORKLOADS.iter().any(|w| w.name == cli.workload);
    if !known && cli.workload != "all" {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--emit-spec") {
        print!("{}", spec::benchmark_json());
        return;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    // One rayon thread: the engine's builds fan out over however many cores
    // the host offers, and on a shared 2-core host that alone moves a build
    // time by a fifth from run to run. Every end-to-end figure here is a
    // one-thread figure; the 2-thread diagnostics use std threads.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let host = host::Host::probe();
    let names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|&n| cli.workload == "all" || cli.workload == n)
        .collect();
    let ok = if cli.check_repeat {
        check_repeat(&names, &cli.opts, &host)
    } else {
        // One result line per workload; with a single workload it is the
        // last line of standard output, as the contract asks.
        names.iter().fold(true, |ok, name| {
            let out = run_workload(name, &cli.opts, &host);
            println!("{}", out.result_line(cli.opts.trace));
            ok & out.correct
        })
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_accepts_the_driver_form_and_the_bare_trace_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli =
            parse_cli(&args("--workload serve_wide --seed 9 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (cli.workload.as_str(), cli.opts.seed, cli.opts.trace),
            ("serve_wide", 9, false)
        );
        assert_eq!(cli.opts.seconds, 10.0);
        assert!(parse_cli(&args("--workload all --trace 1")).unwrap().opts.trace);
        assert!(parse_cli(&args("--workload all --trace --smoke")).unwrap().opts.trace);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--workload all --seconds 0")).is_err());
        assert!(parse_cli(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_is_json_with_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.8127);
        out.set("ops_per_s", 1234.5);
        out.ops(1000, 0);
        for traced in [false, true] {
            let doc = gem_obs::json::parse(&out.result_line(traced)).expect("result line parses");
            let keys: Vec<&str> =
                doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(|m| m.as_object()).unwrap();
            let expected = if traced { spec::PER_LAYER.len() } else { spec::END_TO_END.len() };
            assert_eq!(metrics.len(), expected);
            for (_, m) in metrics {
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
                assert!(m.get("unit").and_then(|u| u.as_str()).is_some());
            }
        }
        let doc = gem_obs::json::parse(&out.result_line(false)).unwrap();
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
    }

    /// All five workloads, both modes, on tiny inputs: every code path runs
    /// and every gate holds. Sized to stay well under 15 s even unoptimised.
    #[test]
    fn smoke_pass_of_all_five_workloads() {
        let started = std::time::Instant::now();
        let host = host::Host::probe();
        for traced in [false, true] {
            let opts = Opts { seed: 3, seconds: 0.3, trace: traced, smoke: true };
            for w in &spec::WORKLOADS {
                let out = run_workload(w.name, &opts, &host);
                assert!(out.correct, "{} (traced: {traced}) failed a gate", w.name);
                assert_eq!(out.failed, 0, "{} had failed operations", w.name);
                gem_obs::json::parse(&out.result_line(traced)).expect("result line parses");
            }
        }
        assert!(started.elapsed().as_secs() < 15, "smoke took {:?}", started.elapsed());
    }
}
