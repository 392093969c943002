//! `paper-suite`: the eighteen experiments `repro all` runs, serially,
//! at full scale with the same configurations and seed handling.
//!
//! One operation is one pass over all eighteen (the wait a researcher
//! sees); `op_p50_ms` is the suite time taken experiment by experiment
//! (see [`suite_ms`]). Set-up runs the same drivers at `--quick` scale,
//! which walks every driver's code once before timing. Outputs are checked three
//! ways: every pass serializes byte-identical results, the traced pass
//! matches the untraced one, and the default seed matches the digests
//! committed in `digests.txt`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eaao_cloudsim::service::Generation;
use eaao_core::experiment::{
    fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, opt52, other_factors, sec42,
    sec43, sec45, sec52, sec6,
};
use eaao_simcore::time::SimDuration;

use crate::trace::{self, Tracer};
use crate::{fnv1a, ms_since, repeated_setup, stats, Ctx, Report};

/// `repro all`'s experiments, in the order it runs them.
pub const EXPERIMENTS: [&str; 18] = [
    "factors",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "gen2",
    "opt",
    "sec4.2",
    "sec4.3",
    "sec4.5",
    "sec6",
    "strategy1",
];

const FULL_REGIONS: [&str; 3] = ["us-east1", "us-central1", "us-west1"];

/// Passes an untraced run makes at least, so that the median can drop
/// one slow pass.
const MIN_PASSES: usize = 3;

/// Runs experiment `name` exactly as `repro` does and returns its results
/// serialized.
fn drive(name: &str, seed: u64, quick: bool) -> String {
    macro_rules! config {
        ($module:ident :: $config:ident) => {
            if quick {
                $module::$config::quick()
            } else {
                $module::$config::default()
            }
        };
    }
    macro_rules! json {
        ($value:expr) => {
            serde_json::to_string(&$value).expect("driver results serialize")
        };
    }
    match name {
        "fig4" => json!(config!(fig04::Fig04Config).run(seed)),
        "fig5" => {
            let regions: &[&str] = if quick { &["us-west1"] } else { &FULL_REGIONS };
            let results: Vec<String> = regions
                .iter()
                .enumerate()
                .map(|(i, region)| {
                    let mut config = config!(fig05::Fig05Config);
                    config.region = (*region).to_owned();
                    json!(config.run(seed.wrapping_add(i as u64 * 97)))
                })
                .collect();
            format!("[{}]", results.join(","))
        }
        "fig6" => json!(config!(fig06::Fig06Config).run(seed)),
        "fig7" => json!(config!(fig07::Fig07Config).run(seed)),
        "fig8" => json!(config!(fig08::Fig08Config).run(seed)),
        "fig9" => {
            let config = config!(fig09::Fig09Config);
            let mut fast = config.clone();
            fast.interval = SimDuration::from_mins(2);
            let results = [
                json!(config.run(seed)),
                json!(fast.run(seed.wrapping_add(1))),
            ];
            format!("[{}]", results.join(","))
        }
        "fig10" => json!(config!(fig10::Fig10Config).run(seed)),
        "fig11a" | "fig11b" | "gen2" => {
            let mut config = config!(fig11::Fig11Config);
            if name == "gen2" {
                config.generation = Generation::Gen2;
                if !quick {
                    config.victim_counts = vec![100];
                }
            }
            if name == "fig11b" {
                json!(config.run_11b(seed))
            } else {
                json!(config.run_11a(seed))
            }
        }
        "fig12" => json!(config!(fig12::Fig12Config).run(seed)),
        "sec4.2" => json!(config!(sec42::Sec42Config).run(seed)),
        "sec4.3" => json!(config!(sec43::Sec43Config).run(seed)),
        "sec4.5" => json!(config!(sec45::Sec45Config).run(seed)),
        "strategy1" => json!(config!(sec52::Sec52Config).run(seed)),
        "sec6" => json!(config!(sec6::Sec6Config).run(seed)),
        "opt" => json!(config!(opt52::Opt52Config).run(seed)),
        "factors" => json!(config!(other_factors::OtherFactorsConfig).run(seed)),
        other => panic!("paper-suite has no experiment {other:?}"),
    }
}

/// One pass over the eighteen experiments.
struct Pass {
    ms: f64,
    /// Host time of each experiment, in milliseconds.
    experiment_ms: Vec<f64>,
    /// Digest of each experiment's serialized results, `None` if it
    /// panicked.
    digests: Vec<Option<u64>>,
}

fn pass(seed: u64, quick: bool) -> Pass {
    let started = Instant::now();
    let (experiment_ms, digests) = EXPERIMENTS
        .iter()
        .map(|name| {
            let started = Instant::now();
            let digest = catch_unwind(AssertUnwindSafe(|| {
                let span = eaao_obs::span(&format!("experiment.{name}"));
                let output = drive(name, seed, quick);
                drop(span);
                fnv1a(output.as_bytes())
            }))
            .ok();
            (ms_since(started), digest)
        })
        .unzip();
    Pass {
        ms: ms_since(started),
        experiment_ms,
        digests,
    }
}

/// The suite time of `passes`, experiment by experiment: the sum over
/// the eighteen of each one's median time across the passes. A burst of
/// load from other tenants of the machine, which lasts seconds, slows
/// one experiment of one pass and drops out of its median, where it
/// would stay in the median of whole five-second passes.
fn suite_ms(passes: &[Pass]) -> f64 {
    (0..EXPERIMENTS.len())
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| p.experiment_ms[i]).collect();
            stats::median(&times)
        })
        .sum()
}

/// Counts every driver call of `passes` and checks that each completed
/// and that all passes agree; `label` names the digests of the first.
fn check(report: &mut Report, ctx: &Ctx, label: &str, passes: &[Pass]) {
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let digests: Vec<Option<u64>> = passes.iter().map(|p| p.digests[i]).collect();
        report.attempted += digests.len() as u64;
        for digest in &digests {
            report.check(digest.is_some(), || format!("{label} {name} panicked"));
        }
        report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
            format!("{label} {name} differs between passes: {digests:x?}")
        });
        if let Some(digest) = digests[0] {
            report.check_digest(ctx, &format!("{label}.{name}"), digest);
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (warm_up, setup_s) = repeated_setup(|| pass(ctx.seed, true));
    check(&mut report, ctx, "quick", &[warm_up]);

    if !ctx.trace {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
            passes.push(pass(ctx.seed, false));
        }
        check(&mut report, ctx, "full", &passes);
        let suite_ms = suite_ms(&passes);
        report.set("setup_s", setup_s);
        report.set("op_p50_ms", suite_ms);
        report.set("ops_per_s", 1e3 / suite_ms);
        report.ops_ms = passes.iter().map(|p| p.ms).collect();
        return report;
    }

    let untraced = pass(ctx.seed, false);
    let mut tracer = Tracer::new();
    let traced = tracer.scope("pass0", || pass(ctx.seed, false));
    let overhead = traced.ms / untraced.ms - 1.0;
    check(&mut report, ctx, "full", &[untraced, traced]);
    let spans = trace::spans(tracer.events());
    trace::ledger(&mut report, &spans, &tracer.counters().counters);
    for name in EXPERIMENTS {
        let span = format!("experiment.{name}");
        report.set(
            format!("{span}.ms"),
            trace::durations_ms(&spans, &span).iter().sum(),
        );
    }
    report.set("trace_overhead_frac", overhead);
    trace::write(&mut report, ctx, &tracer);
    report
}
