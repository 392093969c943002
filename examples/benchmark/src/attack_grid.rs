//! `attack-grid`: the campaign executor over the campaign-native attack
//! trials, `--jobs 2`: attack-naive and attack-optimized × 3 regions × 3
//! platforms × 2 verifiers × 2 seeds, 72 full-scale cells per batch.
//!
//! One operation is one cell. Batches run back to back, each with its
//! own master seed derived from `--seed`, until the measuring window is
//! spent; every batch goes through the sink, the `WorldCache` branch path
//! and all three placement policies. Set-up runs one batch at `--quick`
//! scale. After timing, one cell in [`RECHECK_EVERY`] is re-run through
//! `runner::execute` without the cache and must hash the same.

use std::path::{Path, PathBuf};
use std::time::Instant;

use eaao_campaign::engine::{Campaign, CampaignError, CampaignReport};
use eaao_campaign::runner::{derive_seed, execute, RunRecord};
use eaao_campaign::spec::{CampaignSpec, KNOWN_PLATFORMS, KNOWN_REGIONS, KNOWN_VERIFIERS};
use eaao_obs::{Event, MetricsSnapshot};

use crate::trace::{self, Tracer};
use crate::{fnv1a, ms_since, repeated_setup, stats, Ctx, Report};

const JOBS: usize = 2;

const SEEDS_PER_BATCH: u32 = 2;

/// One cell in this many is re-run without the world cache.
const RECHECK_EVERY: usize = 16;

fn spec(ctx: &Ctx, batch: usize, quick: bool) -> CampaignSpec {
    let owned = |names: &[&str]| names.iter().map(|n| (*n).to_owned()).collect();
    let scale = if quick { "quick" } else { "full" };
    CampaignSpec {
        name: format!("attack-grid-{scale}-{batch}"),
        experiments: owned(&["attack-naive", "attack-optimized"]),
        regions: owned(&KNOWN_REGIONS),
        platforms: owned(&KNOWN_PLATFORMS),
        verifiers: owned(&KNOWN_VERIFIERS),
        seeds: if quick { 1 } else { SEEDS_PER_BATCH },
        seed: derive_seed(ctx.seed, &format!("attack-grid/{scale}/{batch}")),
        quick,
        ..CampaignSpec::default()
    }
}

/// One executed campaign batch.
struct Batch {
    spec: CampaignSpec,
    dir: PathBuf,
    wall_ms: f64,
    outcome: Result<CampaignReport, CampaignError>,
}

fn run_batch(ctx: &Ctx, batch: usize, quick: bool, trace: Option<PathBuf>) -> Batch {
    let spec = spec(ctx, batch, quick);
    let dir = ctx.scratch.join(&spec.name);
    let started = Instant::now();
    let outcome = Campaign::new(spec.clone(), &dir)
        .jobs(JOBS)
        .trace(trace)
        .run();
    Batch {
        spec,
        dir,
        wall_ms: ms_since(started),
        outcome,
    }
}

fn read_records(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(dir.join("results.jsonl"))
        .map_err(|e| format!("cannot read {}/results.jsonl: {e}", dir.display()))?;
    text.lines()
        .map(|line| serde_json::from_str(line).map_err(|e| format!("bad record: {e}")))
        .collect()
}

/// Checks one batch's on-disk records (complete, all ok, 1 in
/// [`RECHECK_EVERY`] equal to an uncached re-run) and returns them.
fn check(report: &mut Report, batch: usize, executed: &Batch) -> Vec<RunRecord> {
    let grid = executed
        .spec
        .expand()
        .expect("the attack grid is a valid spec");
    report.attempted += grid.len() as u64;
    let outcome_ok = matches!(&executed.outcome, Ok(r) if r.all_ok());
    report.check(outcome_ok, || {
        format!(
            "{} did not complete cleanly: {:?}",
            executed.spec.name, executed.outcome
        )
    });
    let records = match read_records(&executed.dir) {
        Ok(records) => records,
        Err(problem) => {
            report.check(false, || problem);
            return Vec::new();
        }
    };
    report.check(records.len() == grid.len(), || {
        format!(
            "{}: {} records for {} cells",
            executed.spec.name,
            records.len(),
            grid.len()
        )
    });
    for record in &records {
        report.check(record.is_ok(), || {
            format!("cell {} failed: {:?}", record.key, record.error)
        });
    }
    for run in grid
        .iter()
        .filter(|run| (run.index + batch).is_multiple_of(RECHECK_EVERY))
    {
        let fresh = execute(run, executed.spec.seed).content_hash();
        let stored = records
            .iter()
            .find(|r| r.key == run.key())
            .map(RunRecord::content_hash);
        report.check(stored == Some(fresh), || {
            format!("cell {} differs from an uncached re-run", run.key())
        });
    }
    records
}

/// The digest of a batch's records with `wall_ms` zeroed, in grid order.
fn digest(records: &[RunRecord]) -> u64 {
    let hashes: Vec<String> = records
        .iter()
        .map(|r| format!("{:016x}", r.content_hash()))
        .collect();
    fnv1a(hashes.join("\n").as_bytes())
}

fn wall_ms(records: &[RunRecord]) -> Vec<f64> {
    records.iter().map(|r| r.wall_ms).collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (warm_up, setup_s) = repeated_setup(|| run_batch(ctx, 0, true, None));
    let records = check(&mut report, 0, &warm_up);
    report.check_digest(ctx, "quick", digest(&records));

    if !ctx.trace {
        let mut batches = Vec::new();
        let mut measured_ms = 0.0;
        while batches.is_empty() || measured_ms < ctx.seconds * 1e3 {
            let batch = run_batch(ctx, batches.len(), false, None);
            measured_ms += batch.wall_ms;
            batches.push(batch);
        }
        let mut cells = Vec::new();
        let mut rates = Vec::new();
        for (index, batch) in batches.iter().enumerate() {
            let records = check(&mut report, index, batch);
            if index == 0 {
                report.check_digest(ctx, "batch0", digest(&records));
            }
            rates.push(records.len() as f64 * 1e3 / batch.wall_ms);
            cells.extend(wall_ms(&records));
        }
        report.set("setup_s", setup_s);
        report.set("op_p50_ms", stats::median(&cells));
        // The median batch, so that a burst of load from other tenants
        // of the machine during one batch drops out.
        report.set("ops_per_s", stats::median(&rates));
        report.ops_ms = cells;
        return report;
    }

    // Both windows run batch 0 into the same directory: check the
    // untraced one before the traced one replaces its files.
    let untraced = run_batch(ctx, 0, false, None);
    check(&mut report, 0, &untraced);
    let events_file = ctx.scratch.join("batch0.events.jsonl");
    let mut tracer = Tracer::new();
    let traced = tracer.scope("batch0", || {
        let _span = eaao_obs::span("campaign.batch");
        run_batch(ctx, 0, false, Some(events_file.clone()))
    });
    let records = check(&mut report, 0, &traced);
    report.check_digest(ctx, "batch0", digest(&records));
    match read_events(&events_file) {
        Ok(events) => tracer.extend(events),
        Err(problem) => report.check(false, || problem),
    }
    let mut counters = MetricsSnapshot::default();
    for record in &records {
        counters.merge(&record.metrics);
    }
    let spans = trace::spans(tracer.events());
    trace::ledger(&mut report, &spans, &counters.counters);
    let cells = wall_ms(&records);
    report.set("campaign.cell.p50_ms", stats::median(&cells));
    report.set("campaign.cell.tail_ms", stats::tail(&cells).1);
    report.set(
        "campaign.busy_frac",
        cells.iter().sum::<f64>() / (traced.wall_ms * JOBS as f64),
    );
    report.set(
        "trace_overhead_frac",
        traced.wall_ms / untraced.wall_ms - 1.0,
    );
    trace::write(&mut report, ctx, &tracer);
    report
}

fn read_events(path: &Path) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| serde_json::from_str(line).map_err(|e| format!("bad trace event: {e}")))
        .collect()
}
