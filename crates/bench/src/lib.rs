//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every `--bin` experiment driver builds on the same pieces:
//!
//! * [`ExperimentEnv`] — a synthetic city (Beijing- or Shanghai-shaped),
//!   chronologically split, with ground truth for both tasks and graphs
//!   built for both partner scenarios;
//! * [`train_variant`] — trains GEM-A / GEM-P / PTE on an environment;
//! * [`Args`] — a tiny `--key value` CLI parser (no external crates);
//! * [`table`] — fixed-width table printing matching the paper's layout.
//!
//! Scale note: the paper's crawl is proprietary, so experiments run on
//! Douban-Sim (see DESIGN.md §1) at `1/scale` of Table I's size
//! (default 40). Convergence step counts scale accordingly: the paper's
//! 2M samples on the full crawl correspond to roughly `2M / (scale/ 2)`
//! samples here because the number of edges shrinks by `scale`.

#![warn(missing_docs)]

use gem_core::{GemModel, GemTrainer, TrainConfig};
use gem_ebsn::{
    ChronoSplit, EbsnDataset, GraphBuildConfig, GroundTruth, PartnerScenario, SplitRatios,
    SynthConfig, SynthesisReport, TrainingGraphs,
};

/// The two simulated cities of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// Beijing-shaped dataset.
    Beijing,
    /// Shanghai-shaped dataset.
    Shanghai,
}

impl City {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::Beijing => "Beijing",
            City::Shanghai => "Shanghai",
        }
    }
}

/// The three embedding-model variants compared throughout §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// GEM with the adaptive adversarial sampler.
    GemA,
    /// GEM with the degree-based sampler.
    GemP,
    /// The PTE baseline.
    Pte,
}

impl Variant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::GemA => "GEM-A",
            Variant::GemP => "GEM-P",
            Variant::Pte => "PTE",
        }
    }

    /// The trainer preset for this variant.
    pub fn config(self, seed: u64) -> TrainConfig {
        match self {
            Variant::GemA => TrainConfig::gem_a(seed),
            Variant::GemP => TrainConfig::gem_p(seed),
            Variant::Pte => TrainConfig::pte(seed),
        }
    }
}

/// A fully prepared experiment environment.
pub struct ExperimentEnv {
    /// The synthetic dataset.
    pub dataset: EbsnDataset,
    /// Generator report (Table I numbers).
    pub report: SynthesisReport,
    /// Chronological split.
    pub split: ChronoSplit,
    /// Ground truth for both tasks.
    pub gt: GroundTruth,
    /// Graphs for scenario 1 (friend links intact).
    pub graphs: TrainingGraphs,
    /// Graphs for scenario 2 (ground-truth partner links removed).
    pub graphs_potential: TrainingGraphs,
}

impl ExperimentEnv {
    /// Build a city environment at `1/scale` of Table I's size.
    pub fn build(city: City, scale: usize, seed: u64) -> Self {
        let cfg = match city {
            City::Beijing => SynthConfig::beijing_like(seed, scale),
            City::Shanghai => SynthConfig::shanghai_like(seed, scale),
        };
        Self::from_synth(&cfg)
    }

    /// Build from an explicit generator config.
    pub fn from_synth(cfg: &SynthConfig) -> Self {
        let (dataset, report) = gem_ebsn::synth::generate(cfg);
        let split = ChronoSplit::new(&dataset, SplitRatios::default());
        let gt = GroundTruth::extract(&dataset, &split);
        let build_cfg = GraphBuildConfig::default();
        let graphs = TrainingGraphs::build(&dataset, &split, &build_cfg, &[]);
        let graphs_potential = TrainingGraphs::build(
            &dataset,
            &split,
            &build_cfg,
            gt.removed_friendships(PartnerScenario::PotentialFriends),
        );
        ExperimentEnv { dataset, report, split, gt, graphs, graphs_potential }
    }

    /// The graphs for a partner scenario.
    pub fn graphs_for(&self, scenario: PartnerScenario) -> &TrainingGraphs {
        match scenario {
            PartnerScenario::Friends => &self.graphs,
            PartnerScenario::PotentialFriends => &self.graphs_potential,
        }
    }
}

/// Train a variant for `steps` gradient steps on `threads` workers.
pub fn train_variant(
    graphs: &TrainingGraphs,
    variant: Variant,
    steps: u64,
    threads: usize,
    seed: u64,
) -> GemModel {
    let trainer = GemTrainer::new(graphs, variant.config(seed)).expect("valid trainer config");
    trainer.run(steps, threads);
    trainer.model()
}

/// Train every §V-C comparison model on one set of graphs.
///
/// Convergence budgets: the GEM variants get 2× `steps` and PTE 5× (the
/// paper's Table II ratio), so every model is evaluated at its own
/// convergence; PCMF/CBPF also get 2× (they optimise a cheaper per-step
/// objective), PER learns only a 5-weight combiner.
/// `with_cfapr` additionally builds CFAPR-E on top of the GEM-A model
/// (exactly how the paper constructs it).
pub fn train_competitors(
    env: &ExperimentEnv,
    graphs: &TrainingGraphs,
    params: &StdParams,
    with_cfapr: bool,
) -> Vec<(String, Box<dyn gem_core::EventScorer>)> {
    use gem_baselines::{Cbpf, CbpfConfig, CfaprE, Pcmf, PcmfConfig, PerConfig, PerModel};

    let mut out: Vec<(String, Box<dyn gem_core::EventScorer>)> = Vec::new();

    let gem_a = train_variant(graphs, Variant::GemA, params.steps * 2, params.threads, params.seed);
    if with_cfapr {
        let cfapr = CfaprE::build(gem_a.clone(), &env.dataset, &env.split);
        out.push(("CFAPR-E".to_string(), Box::new(cfapr)));
    }
    out.push(("GEM-A".to_string(), Box::new(gem_a)));

    let gem_p = train_variant(graphs, Variant::GemP, params.steps * 2, params.threads, params.seed);
    out.push(("GEM-P".to_string(), Box::new(gem_p)));

    let pte = train_variant(graphs, Variant::Pte, params.steps * 5, params.threads, params.seed);
    out.push(("PTE".to_string(), Box::new(pte)));

    let cbpf = Cbpf::train(
        graphs,
        &CbpfConfig { steps: params.steps * 2, seed: params.seed, ..Default::default() },
    );
    out.push(("CBPF".to_string(), Box::new(cbpf)));

    let per = PerModel::train(graphs, &PerConfig { seed: params.seed, ..Default::default() });
    out.push(("PER".to_string(), Box::new(per)));

    let pcmf = Pcmf::train(
        graphs,
        &PcmfConfig { steps: params.steps * 2, seed: params.seed, ..Default::default() },
    );
    out.push(("PCMF".to_string(), Box::new(pcmf)));

    out
}

/// Minimal `--key value` / `--flag` argument parser for the experiment
/// binaries.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the binary name). On `--help`
    /// or `-h`, print where the binary's usage is documented and exit 0
    /// before the caller does any work (every bin writes artefacts to the
    /// working directory, so running on would overwrite them).
    pub fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().collect();
        if let Some(text) = help_text(&argv) {
            println!("{text}");
            std::process::exit(0);
        }
        Self::parse(argv.into_iter().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Self {
        let mut args = Args::default();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(key) = item.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        args.pairs.push((key.to_string(), iter.next().expect("peeked")));
                    }
                    _ => args.flags.push(key.to_string()),
                }
            }
        }
        args
    }

    /// A `--key value` as a parsed type, or the default when the flag is
    /// absent.
    ///
    /// # Panics
    /// When the value does not parse as `T`, naming the flag and the raw
    /// value: a typo must not silently run with the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            Some((_, raw)) => raw
                .parse()
                .unwrap_or_else(|_| panic!("--{key}: cannot parse {raw:?} as the expected type")),
            None => default,
        }
    }

    /// True if `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// The `--help` text when `argv` (binary name first) asks for it: where
/// the binary documents its usage (each bin's module docs list its flags
/// and outputs). `None` when neither `--help` nor `-h` was passed.
pub fn help_text(argv: &[String]) -> Option<String> {
    let (bin, rest) = argv.split_first()?;
    if !rest.iter().any(|a| a == "--help" || a == "-h") {
        return None;
    }
    let name = std::path::Path::new(bin).file_stem().and_then(|s| s.to_str()).unwrap_or("<bin>");
    Some(format!(
        "{name}: usage and flags are in the module docs of crates/bench/src/bin/{name}.rs"
    ))
}

/// Bounded re-measure for the drills' timing gates: `measure` returns a
/// `(reference, candidate)` pair of rates, and a candidate below
/// `floor × reference` is measured up to twice more before it is believed,
/// because single readings on small shared machines swing by a few percent
/// either way. Returns the last pair.
pub fn remeasured(floor: f64, mut measure: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (mut reference, mut candidate) = measure();
    for _ in 0..2 {
        if candidate >= floor * reference {
            break;
        }
        (reference, candidate) = measure();
    }
    (reference, candidate)
}

/// The `"host"` block shared by every `BENCH_*.json` the bench bins
/// write: thread budget and SIMD capability of the machine the
/// numbers were measured on, so recorded results are interpretable later.
///
/// * `available_parallelism` — `std::thread::available_parallelism`
///   (cgroup/affinity aware), `1` if unavailable;
/// * `cpu_features` — what the hardware supports
///   ([`gem_core::simd::cpu_feature_name`]): `"avx2"`, `"neon"` or
///   `"scalar"`, ignoring `GEM_NO_SIMD` and test overrides;
/// * `simd_backend` — the backend dispatch actually selected for this
///   process (differs from `cpu_features` when SIMD is disabled).
pub fn host_json(indent: &str) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{indent}\"host\": {{\n\
         {indent}  \"available_parallelism\": {cores},\n\
         {indent}  \"cpu_features\": \"{features}\",\n\
         {indent}  \"simd_backend\": \"{backend}\"\n\
         {indent}}}",
        features = gem_core::simd::cpu_feature_name(),
        backend = gem_core::simd::backend().name(),
    )
}

/// Roll every `journal_*.jsonl` and `BENCH_*.json` in the working
/// directory into `report.html` — the convergence dashboard
/// (DESIGN.md §5.8). Best-effort: a bench never fails because
/// the dashboard could not render, so problems go to stderr and the
/// bench's own artifacts stay authoritative. (`convergence_report` is the
/// exception: it gates on the dashboard inline, with hard asserts.)
pub fn emit_report() {
    match gem_report::emit_into(std::path::Path::new(".")) {
        Ok(out) => println!(
            "Wrote report.html ({} charts from {} journal(s) + {} bench artifact(s))",
            out.charts, out.journals, out.benches
        ),
        Err(e) => eprintln!("report.html skipped: {e}"),
    }
}

/// TCP client plumbing for the daemon drill (`soak_drill`): connect with
/// bounded exponential-backoff retry and per-attempt timeouts instead of
/// aborting the whole run on one refused connection (daemon restarting,
/// accept queue momentarily full).
pub mod net {
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// Retry/timeout envelope for one logical connect.
    #[derive(Debug, Clone, Copy)]
    pub struct RetryPolicy {
        /// Total connect attempts before giving up.
        pub attempts: u32,
        /// Backoff before attempt `i` is `base_delay << (i-1)`, capped at
        /// [`Self::max_delay`].
        pub base_delay: Duration,
        /// Backoff cap.
        pub max_delay: Duration,
        /// Per-attempt connect timeout.
        pub connect_timeout: Duration,
        /// Read timeout installed on the returned stream.
        pub read_timeout: Duration,
    }

    impl Default for RetryPolicy {
        fn default() -> Self {
            RetryPolicy {
                attempts: 8,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_secs(1),
                connect_timeout: Duration::from_secs(2),
                read_timeout: Duration::from_secs(10),
            }
        }
    }

    /// Connect to `addr`, retrying per `policy`. Returns the stream (with
    /// nodelay + read timeout installed) and how many retries it took, so
    /// benches can journal retry counts instead of hiding them.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> io::Result<(TcpStream, u32)> {
        let sock: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                let shift = (attempt - 1).min(16);
                let delay = policy
                    .base_delay
                    .checked_mul(1u32 << shift)
                    .map_or(policy.max_delay, |d| d.min(policy.max_delay));
                std::thread::sleep(delay);
            }
            match TcpStream::connect_timeout(&sock, policy.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(policy.read_timeout))?;
                    return Ok((stream, attempt));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no attempts made")))
    }
}

/// Fixed-width table printing helpers.
pub mod table {
    /// Print a header row followed by a separator.
    pub fn header(cols: &[&str], widths: &[usize]) {
        row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>(), widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
    }

    /// Print one row with the given column widths.
    pub fn row(cols: &[String], widths: &[usize]) {
        let mut line = String::new();
        for (c, w) in cols.iter().zip(widths) {
            line.push_str(&format!("{c:>w$}  ", w = *w));
        }
        println!("{}", line.trim_end());
    }

    /// Format an accuracy as the paper prints it (3 decimals).
    pub fn acc(a: f64) -> String {
        format!("{a:.3}")
    }
}

/// Standard experiment parameters derived from the CLI.
#[derive(Debug, Clone)]
pub struct StdParams {
    /// Dataset scale divisor (Table I size / scale).
    pub scale: usize,
    /// Training steps for "converged" models.
    pub steps: u64,
    /// Hogwild worker threads.
    pub threads: usize,
    /// Max evaluation cases (0 = all).
    pub max_cases: usize,
    /// Master seed.
    pub seed: u64,
}

impl StdParams {
    /// Read the conventional flags: `--scale`, `--steps`, `--threads`,
    /// `--max-cases`, `--seed`, `--quick`.
    pub fn from_args(args: &Args) -> Self {
        let quick = args.flag("quick");
        StdParams {
            scale: args.get("scale", if quick { 80 } else { 40 }),
            steps: args.get("steps", if quick { 150_000 } else { 600_000 }),
            threads: args.get("threads", 1),
            max_cases: args.get("max-cases", if quick { 400 } else { 2000 }),
            seed: args.get("seed", 7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let a = Args::parse(["--scale", "20", "--quick", "--steps", "1000"].map(String::from));
        assert_eq!(a.get("scale", 0usize), 20);
        assert_eq!(a.get("steps", 0u64), 1000);
        assert_eq!(a.get("missing", 5i32), 5);
        assert!(a.flag("quick"));
        assert!(!a.flag("other"));
    }

    #[test]
    #[should_panic(expected = "--scale: cannot parse \"abc\"")]
    fn malformed_value_panics_naming_flag_and_value() {
        let a = Args::parse(["--scale", "abc"].map(String::from));
        let _: usize = a.get("scale", 40);
    }

    #[test]
    fn help_points_at_the_bin_module_docs() {
        let argv = ["/x/target/release/scale_sweep", "--scale", "4", "-h"].map(String::from);
        let text = help_text(&argv).expect("-h asks for help");
        assert!(text.contains("crates/bench/src/bin/scale_sweep.rs"), "{text}");
        let argv = ["scale_sweep", "--help"].map(String::from);
        assert!(help_text(&argv).is_some());
        let argv = ["scale_sweep", "--scale", "4", "--smoke"].map(String::from);
        assert_eq!(help_text(&argv), None);
    }

    #[test]
    fn last_occurrence_wins() {
        let a = Args::parse(["--x", "1", "--x", "2"].map(String::from));
        assert_eq!(a.get("x", 0i32), 2);
    }

    #[test]
    fn env_builds_consistently() {
        let cfg = SynthConfig::tiny(5);
        let env = ExperimentEnv::from_synth(&cfg);
        assert_eq!(env.dataset.validate(), Ok(()));
        assert!(!env.gt.event_cases.is_empty());
        // Scenario-2 graphs have strictly fewer social edges when partner
        // links exist.
        if !env.gt.partner_links.is_empty() {
            assert!(env.graphs_potential.user_user.num_edges() < env.graphs.user_user.num_edges());
        }
    }

    #[test]
    fn variants_produce_distinct_configs() {
        assert_ne!(Variant::GemA.config(1).noise, Variant::GemP.config(1).noise);
        assert_ne!(Variant::GemP.config(1).direction, Variant::Pte.config(1).direction);
    }

    #[test]
    fn std_params_quick_mode() {
        let a = Args::parse(["--quick"].map(String::from));
        let p = StdParams::from_args(&a);
        assert_eq!(p.scale, 80);
        assert!(p.steps < 600_000);
    }
}
