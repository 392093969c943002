//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--seed N] [--json DIR] [--quick] [--jobs N] [--trace FILE]
//! ```
//!
//! Experiments are the rows of the campaign registry
//! (`eaao_campaign::registry::EXPERIMENTS`); `all`, the default, is the
//! paper suite `fig4 … factors`.
//!
//! Every invocation is one campaign: each selected experiment runs once
//! per paper region (`us-west1` alone with `--quick`), seeded from
//! `--seed` and the run key. After the run, stdout gets each record's
//! render in grid order. The campaign's `results.jsonl`, `manifest.jsonl`
//! and `campaign.json` go to `--json DIR` (default `repro-campaign/`).
//! `--jobs N` only sets the worker count: stdout and those files are the
//! same at any N, `wall_ms` aside. Progress and wall-clock lines go to
//! stderr.
//!
//! `--quick` swaps in the reduced-scale configurations used by tests.
//! `--trace FILE` streams structured span/metrics events to `FILE` as
//! JSONL (see `docs/OBSERVABILITY.md`); summarize with `eaao trace FILE`.
//! Exit status is non-zero if any run fails.

use std::path::PathBuf;
use std::time::Instant;

use eaao_campaign::engine::Campaign;
use eaao_campaign::registry::{Experiment, EXPERIMENTS};
use eaao_campaign::runner::RunRecord;
use eaao_campaign::spec::{CampaignSpec, KNOWN_REGIONS};

struct Options {
    experiments: Vec<&'static Experiment>,
    seed: u64,
    json_dir: String,
    quick: bool,
    jobs: usize,
    trace: Option<PathBuf>,
}

fn parse_args() -> Options {
    let names = || {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        all.join(" ")
    };
    let mut selected: Vec<&'static Experiment> = Vec::new();
    let mut options = Options {
        experiments: Vec::new(),
        seed: 2_024,
        json_dir: "repro-campaign".to_owned(),
        quick: false,
        jobs: 1,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--json" => {
                options.json_dir = args.next().unwrap_or_else(|| die("--json needs a dir"));
            }
            "--jobs" => {
                options.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--trace" => {
                let path = args.next().unwrap_or_else(|| die("--trace needs a file"));
                options.trace = Some(PathBuf::from(path));
            }
            "--quick" => options.quick = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT ...] [--seed N] [--json DIR] [--quick] [--jobs N] [--trace FILE]\n\
                     experiments: {} all",
                    names()
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag:?}")),
            "all" => selected.extend(Experiment::paper_suite()),
            name => match Experiment::find(name) {
                Some(experiment) => selected.push(experiment),
                None => die(&format!(
                    "unknown experiment {name:?} (known: {} all)",
                    names()
                )),
            },
        }
    }
    if selected.is_empty() {
        selected.extend(Experiment::paper_suite());
    }
    // Registry order, each experiment once.
    options.experiments = EXPERIMENTS
        .iter()
        .filter(|e| selected.contains(e))
        .collect();
    options
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let options = parse_args();
    let regions: &[&str] = if options.quick {
        &["us-west1"]
    } else {
        &KNOWN_REGIONS
    };
    let spec = CampaignSpec {
        name: "repro".to_owned(),
        experiments: options
            .experiments
            .iter()
            .map(|e| e.name.to_owned())
            .collect(),
        regions: regions.iter().map(|r| (*r).to_owned()).collect(),
        seed: options.seed,
        quick: options.quick,
        ..CampaignSpec::default()
    };
    let out_dir = &options.json_dir;
    let started = Instant::now();
    let mut records: Vec<RunRecord> = Vec::new();
    let report = Campaign::new(spec, out_dir)
        .jobs(options.jobs)
        .trace(options.trace.clone())
        .run_with_progress(|done, total, record| {
            let status = if record.is_ok() { "ok" } else { "FAILED" };
            eprintln!(
                "[{done:>3}/{total}] {status:>6}  {}  ({:.1} s)",
                record.key,
                record.wall_ms / 1e3
            );
            records.push(record.clone());
        })
        .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
    records.sort_by_key(|record| record.index);

    let mut failed = 0;
    for record in &records {
        let experiment =
            Experiment::find(&record.experiment).expect("records name registry experiments");
        println!("\n=== {} ({}) ===", experiment.title, record.region);
        let text = match (&record.payload, &record.error) {
            (Some(payload), None) => {
                (experiment.render)(payload).map_err(|e| format!("cannot render the payload: {e}"))
            }
            (_, error) => Err(error.clone().unwrap_or_default()),
        };
        match text {
            Ok(text) => print!("{text}"),
            Err(error) => {
                failed += 1;
                println!("  FAILED: {error}");
            }
        }
    }
    eprintln!(
        "repro: {} runs, {failed} failed, in {:.1?} -> {out_dir}/results.jsonl",
        report.total,
        started.elapsed()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
