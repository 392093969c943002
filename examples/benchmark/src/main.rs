//! The repository's benchmark: four workloads over the whole stack,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced one. See `README.md` next to this file for the workloads, the
//! metric catalogue and which layer metric should move which end-to-end
//! metric.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml --
//!     [--workload NAME|all] [--seed N] [--seconds N] [--trace [0|1]]
//!     [--repeat N] [--list]
//! ```
//!
//! One workload runs in this process and prints `name value unit` lines,
//! then one JSON result line (`correct`, `attempted`, `failed`,
//! `metrics`). `--workload all` and `--repeat N` run each workload in a
//! child process of its own (repeat `i` with seed `N + i`) and summarize
//! them. The exit status is non-zero when an output check failed.

mod attack_grid;
mod mega_region;
mod paper_suite;
mod registry;
mod serve_swarm;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::registry::{Metric, END_TO_END, RUN_SECONDS, WORKLOADS};

/// The benchmark's declaration, read by `--list` from the directory the
/// benchmark runs in (the repository root).
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Output digests of the default seed, committed with the benchmark.
const DIGESTS: &str = include_str!("../digests.txt");

const DEFAULT_SEED: u64 = 2_024;

/// Everything a run writes lives under this directory.
const OUT_DIR: &str = "target/benchmark";

/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Seconds the set-up repetitions of a run take, at least. A set-up of
/// a tenth of a second is repeated about ten times, so that a burst of
/// load from other tenants of the machine drops out of the median.
const SETUP_MIN_S: f64 = 1.0;

/// What one workload run is asked to do.
#[derive(Debug)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Measuring window of an untraced run. A `--trace` run measures a
    /// fixed amount of work instead (`serve-swarm`: half the window),
    /// once untraced and once traced.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run's output files, removed at the end.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Where the `--trace` pass writes its events.
    pub fn trace_file(&self) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}.trace.jsonl", self.workload))
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (driver calls, campaign cells, submissions,
    /// grids).
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Host time of each measured operation of an untraced run, for the
    /// printed count, median and tail.
    pub ops_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Compares `digest` with the committed digest of the default seed
    /// for `(workload, item)`; other seeds have none to compare with.
    /// Every default-seed digest is echoed to stderr in the committed
    /// file's format, so `digests.txt` can be regenerated from a run.
    pub fn check_digest(&mut self, ctx: &Ctx, item: &str, digest: u64) {
        if ctx.seed != DEFAULT_SEED {
            return;
        }
        let line = format!("{} {item} {digest:016x}", ctx.workload);
        eprintln!("digest {line}");
        let prefix = format!("{} {item} ", ctx.workload);
        let committed = DIGESTS.lines().find(|l| l.starts_with(&prefix));
        self.check(committed == Some(line.as_str()), || {
            format!("output digest differs from digests.txt: {line} (committed: {committed:?})")
        });
    }
}

/// FNV-1a over a byte stream, the digest of every output check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and until the repeats
/// have taken [`SETUP_MIN_S`], keeping the last result, and returns it
/// with the median seconds one set-up took.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    while seconds.len() < SETUP_REPEATS || seconds.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&seconds))
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[derive(Debug)]
struct Options {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    list: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        list: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                options.workload = match name.as_str() {
                    "all" => None,
                    name => Some(WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
                        "unknown workload {name:?}; known: {WORKLOADS:?} or all"
                    ))?),
                };
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds needs a positive integer")?;
            }
            "--repeat" => {
                options.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a positive integer")?;
            }
            "--trace" => {
                // `--trace` alone, or with an explicit 0/1.
                options.trace = args.peek().map(String::as_str) != Some("0");
                if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                    args.next();
                }
            }
            "--list" => options.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if options.list {
        return list();
    }
    match options.workload {
        Some(workload) if options.repeat == 1 => run_one(workload, &options),
        _ => run_children(&options),
    }
}

/// `--list`: prints the registry as `BENCHMARK.json` declares it, and
/// fails if the two differ.
fn list() -> ExitCode {
    let checked = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|error| format!("cannot read {BENCHMARK_JSON}: {error}"))
        .and_then(|json| registry::check(&json).map(|()| json));
    match checked {
        Ok(json) => {
            print!("{}", registry::render(&json));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchmark: registry mismatch: {message}");
            ExitCode::from(2)
        }
    }
}

/// The metrics a run prints: end to end untraced, per layer traced.
fn metrics_for(trace: bool) -> Vec<Metric> {
    if trace {
        registry::per_layer().collect()
    } else {
        END_TO_END.to_vec()
    }
}

fn run_one(workload: &'static str, options: &Options) -> ExitCode {
    let ctx = Ctx {
        workload,
        seed: options.seed,
        seconds: options.seconds as f64,
        trace: options.trace,
        scratch: PathBuf::from(OUT_DIR).join(format!("{workload}.out")),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let mut report = match workload {
        "paper-suite" => paper_suite::run(&ctx),
        "attack-grid" => attack_grid::run(&ctx),
        "serve-swarm" => serve_swarm::run(&ctx),
        _ => mega_region::run(&ctx),
    };
    if let Err(error) = std::fs::remove_dir_all(&ctx.scratch) {
        if error.kind() != std::io::ErrorKind::NotFound {
            report.check(false, || {
                format!("cannot remove {}: {error}", ctx.scratch.display())
            });
        }
    }

    if !ctx.trace {
        // The tail is printed with its sample count but is no metric:
        // its run-to-run spread is too wide to bound a regression.
        let (percentile, tail) = stats::tail(&report.ops_ms);
        println!(
            "# {} operations: p50 {:.3} ms, p{percentile} {tail:.3} ms",
            report.ops_ms.len(),
            stats::median(&report.ops_ms),
        );
        let rss = peak_rss_mb();
        report.check(rss.is_some(), || {
            "cannot read VmHWM from /proc/self/status".to_owned()
        });
        report.set("peak_rss_mb", rss.unwrap_or(0.0));
    }

    let mut metrics = Vec::new();
    for metric in metrics_for(ctx.trace) {
        let value = report.metrics.get(metric.name).copied();
        let finite = value.is_some_and(f64::is_finite);
        report.check(finite, || {
            format!("metric {} is missing or not finite: {value:?}", metric.name)
        });
        // `+ 0.0` prints an empty sum's -0 as 0.
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
        println!("{} {value} {}", metric.name, metric.unit);
        metrics.push((
            metric.name.to_owned(),
            Value::Object(vec![
                ("value".to_owned(), Value::F64(value)),
                ("unit".to_owned(), Value::String(metric.unit.to_owned())),
            ]),
        ));
    }
    report.attempted = report.attempted.max(1);
    println!(
        "failed_frac {} frac",
        report.failed as f64 / report.attempted as f64
    );
    for problem in &report.problems {
        eprintln!("benchmark: {workload}: {problem}");
    }
    let correct = report.failed == 0;
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(report.attempted)),
        ("failed".to_owned(), Value::U64(report.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    options: &Options,
) -> Result<(ChildResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let parsed: Value = serde_json::from_str(last)
        .map_err(|_| format!("{workload} (seed {seed}) printed no result line"))?;
    let metrics = match parsed.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let correct =
        matches!(parsed.get("correct"), Some(Value::Bool(true))) && output.status.success();
    Ok((ChildResult { correct, metrics }, stdout))
}

fn run_children(options: &Options) -> ExitCode {
    let workloads: Vec<&str> = match options.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        let mut runs = Vec::new();
        for i in 0..options.repeat {
            let seed = options.seed + i as u64;
            match run_child(workload, seed, options) {
                Ok((result, stdout)) => {
                    if options.repeat == 1 {
                        println!("== {workload} (seed {seed})");
                        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                            println!("{line}");
                        }
                    }
                    all_correct &= result.correct;
                    runs.push(result);
                }
                Err(message) => {
                    eprintln!("benchmark: {message}");
                    all_correct = false;
                }
            }
        }
        if options.repeat > 1 {
            println!(
                "== {workload}: {} runs, seeds {}..={}",
                runs.len(),
                options.seed,
                options.seed + options.repeat as u64 - 1
            );
            println!(
                "{:<48} {:>12} {:>12} {:>12} {:>10}",
                "metric", "median", "q1", "q3", "iqr/med"
            );
            for metric in metrics_for(options.trace) {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect();
                let (q1, median, q3) = stats::quartiles(&values);
                let spread = if median == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / median
                };
                println!(
                    "{:<48} {median:>12.4} {q1:>12.4} {q3:>12.4} {spread:>10.4}  {}",
                    metric.name, metric.unit
                );
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let options = parse(&[
            "--workload",
            "serve-swarm",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(options.workload, Some("serve-swarm"));
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, 12, false)
        );
        assert!(parse(&["--trace", "1"]).expect("parses").trace);
        assert!(parse(&["--trace", "--list"]).expect("parses").trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn committed_digests_name_known_workloads() {
        for line in DIGESTS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 3, "malformed digest line {line:?}");
            assert!(
                WORKLOADS.contains(&fields[0]),
                "unknown workload in {line:?}"
            );
            assert_eq!(fields[2].len(), 16, "digest is not 16 hex digits: {line:?}");
        }
    }
}
