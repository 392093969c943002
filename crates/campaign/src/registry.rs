//! The experiment registry: one row per experiment a campaign can run.
//!
//! A row ([`Experiment`]) is everything the stack knows about an
//! experiment: its name, the optional grid axes it takes, how to run one
//! grid cell, how to render that cell's payload as the text `eaao repro`
//! prints, and — where the experiment measures one — the co-location
//! headline [`aggregate`](crate::aggregate) estimates. Spec expansion,
//! the runner, aggregation and `eaao repro` all read [`EXPERIMENTS`]; no
//! other crate source names an experiment.

use std::fmt;

use eaao_cloudsim::mitigation::TscMitigation;
use eaao_cloudsim::service::Generation;
use eaao_core::experiment::{
    ablations, calib, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, opt52,
    other_factors, sec42, sec43, sec45, sec52, sec6,
};
use eaao_core::strategy::{NaiveLaunch, OptimizedLaunch};
use eaao_core::verify::VerifierChannel;
use eaao_orchestrator::platform::PlatformKind;
use eaao_simcore::series::Series;
use eaao_simcore::stats::Summary;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize, Value};

use crate::runner::{attack_trial, AttackTrial, WorldCache};
use crate::spec::RunSpec;

/// The optional grid axes an experiment is parameterized by. Every
/// experiment takes region and seed; an axis it does not take collapses
/// to `-` in its run keys, so no two cells compute the same thing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axes {
    pub(crate) generation: bool,
    pub(crate) mitigation: bool,
    pub(crate) platform: bool,
    pub(crate) verifier: bool,
}

impl Axes {
    /// Region and seed only. The paper drivers pin Cloud Run — they
    /// reproduce measurements *of* Cloud Run — and `sec6` and `ablations`
    /// sweep their parameters internally.
    const NONE: Axes = Axes {
        generation: false,
        mitigation: false,
        platform: false,
        verifier: false,
    };
    /// Plus the generation (Fig. 11; `gen2` *is* the Gen 2 variant).
    const GENERATION: Axes = Axes {
        generation: true,
        ..Axes::NONE
    };
    /// Plus platform and verifier: the calibration sweep.
    const PLATFORM_VERIFIER: Axes = Axes {
        platform: true,
        verifier: true,
        ..Axes::NONE
    };
    /// Every axis: the campaign-native attack trials.
    const ALL: Axes = Axes {
        generation: true,
        mitigation: true,
        platform: true,
        verifier: true,
    };
}

/// One grid cell being executed: the run, its derived seed, and the
/// campaign context the attack trials draw their worlds from.
#[derive(Debug)]
pub(crate) struct Job<'a> {
    pub(crate) run: &'a RunSpec,
    /// The run's derived seed (see [`derive_seed`](crate::runner::derive_seed)).
    pub(crate) seed: u64,
    pub(crate) master_seed: u64,
    /// The campaign's shared world store, if any.
    pub(crate) cache: Option<&'a WorldCache>,
}

impl Job<'_> {
    /// The quick or the full configuration, per the run's quick flag.
    fn pick<C>(&self, quick: fn() -> C, full: fn() -> C) -> C {
        if self.run.quick {
            quick()
        } else {
            full()
        }
    }

    fn region(&self) -> String {
        self.run.region.clone()
    }
}

/// What running a cell yields: the virtual time it modeled, where the
/// experiment has a natural horizon, and its serialized result.
pub(crate) type Outcome = (Option<f64>, Value);

/// A rendered payload, or the error reading a payload of the wrong shape.
pub type Rendered = Result<String, serde::Error>;

/// One experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The spec-file / CLI name.
    pub name: &'static str,
    /// The heading `eaao repro` prints above each of its cells.
    pub title: &'static str,
    /// Whether it belongs to the paper suite (`eaao repro all`).
    pub paper: bool,
    /// The optional grid axes it takes.
    pub(crate) axes: Axes,
    /// Runs one grid cell.
    pub(crate) run: fn(&Job<'_>) -> Outcome,
    /// Renders a successful cell's payload as text.
    pub render: fn(&Value) -> Rendered,
    /// Reads the per-run "co-located at least once" rate (0 to 1) from a
    /// payload; `None` for experiments without a co-location notion.
    pub(crate) colocation: Option<fn(&Value) -> Option<f64>>,
}

impl Experiment {
    /// The row named `name`.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// The paper suite, in paper order.
    pub fn paper_suite() -> impl Iterator<Item = &'static Experiment> {
        EXPERIMENTS.iter().filter(|e| e.paper)
    }

    const fn axes(self, axes: Axes) -> Experiment {
        Experiment { axes, ..self }
    }

    const fn colocation(self, headline: fn(&Value) -> Option<f64>) -> Experiment {
        Experiment {
            colocation: Some(headline),
            ..self
        }
    }
}

impl PartialEq for Experiment {
    fn eq(&self, other: &Experiment) -> bool {
        self.name == other.name
    }
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

const fn paper(
    name: &'static str,
    title: &'static str,
    run: fn(&Job<'_>) -> Outcome,
    render: fn(&Value) -> Rendered,
) -> Experiment {
    Experiment {
        name,
        title,
        paper: true,
        axes: Axes::NONE,
        run,
        render,
        colocation: None,
    }
}

const fn native(
    name: &'static str,
    title: &'static str,
    run: fn(&Job<'_>) -> Outcome,
    render: fn(&Value) -> Rendered,
) -> Experiment {
    Experiment {
        paper: false,
        ..paper(name, title, run, render)
    }
}

/// Every experiment, in canonical order: the paper suite in paper order,
/// then the campaign-native attack trials, calibration sweep and design
/// ablations.
pub static EXPERIMENTS: [Experiment; 22] = [
    paper(
        "fig4",
        "Figure 4: Gen 1 fingerprint accuracy vs p_boot",
        fig4,
        render_fig4,
    ),
    paper(
        "fig5",
        "Figure 5: fingerprint expiration CDF",
        fig5,
        render_fig5,
    ),
    paper(
        "fig6",
        "Figure 6: idle-instance termination",
        fig6,
        render_fig6,
    ),
    paper(
        "fig7",
        "Figure 7: base hosts across launches (45-minute interval)",
        fig7,
        render_fig7,
    ),
    paper(
        "fig8",
        "Figure 8: base hosts across accounts",
        fig8,
        render_fig8,
    ),
    paper(
        "fig9",
        "Figure 9: helper hosts (10-minute interval)",
        fig9,
        render_fig9,
    ),
    paper(
        "fig10",
        "Figure 10: helper-host footprint across episodes",
        fig10,
        render_fig10,
    ),
    paper(
        "fig11a",
        "Figure 11a: victim coverage vs victim count",
        |job| fig11(job, fig11::Fig11Config::run_11a),
        render_fig11,
    )
    .axes(Axes::GENERATION)
    .colocation(fig11_hit_rate),
    paper(
        "fig11b",
        "Figure 11b: victim coverage vs victim size",
        |job| fig11(job, fig11::Fig11Config::run_11b),
        render_fig11,
    )
    .axes(Axes::GENERATION)
    .colocation(fig11_hit_rate),
    paper(
        "fig12",
        "Figure 12: cluster-size estimation",
        fig12,
        render_fig12,
    ),
    paper(
        "sec4.2",
        "Section 4.2: measured-TSC-frequency scatter",
        sec42,
        render_sec42,
    ),
    paper(
        "sec4.3",
        "Section 4.3: verification cost, pairwise vs hierarchical",
        sec43,
        render_sec43,
    ),
    paper(
        "sec4.5",
        "Section 4.5: Gen 2 fingerprint accuracy",
        sec45,
        render_sec45,
    ),
    paper(
        "strategy1",
        "Section 5.2, Strategy 1: naive launching",
        strategy1,
        render_strategy1,
    )
    .colocation(strategy1_hit_rate),
    paper(
        "gen2",
        "Section 5.2: Strategy 2 coverage in the Gen 2 environment",
        gen2,
        render_fig11,
    )
    .colocation(fig11_hit_rate),
    paper("sec6", "Section 6: mitigations", sec6, render_sec6),
    paper("opt", "Section 5.2: attack optimizations", opt, render_opt),
    paper(
        "factors",
        "Section 5.1: other factors",
        factors,
        render_factors,
    ),
    native(
        "attack-naive",
        "Co-location attack trial, naive strategy",
        attack_naive,
        render_attack,
    )
    .axes(Axes::ALL)
    .colocation(attack_hit),
    native(
        "attack-optimized",
        "Co-location attack trial, optimized strategy",
        attack_optimized,
        render_attack,
    )
    .axes(Axes::ALL)
    .colocation(attack_hit),
    native(
        "calibration",
        "Verifier-channel threshold calibration (ROC sweep)",
        calibration,
        render_calibration,
    )
    .axes(Axes::PLATFORM_VERIFIER),
    native(
        "ablations",
        "Design ablations: demand window, popularity, CTest m, frequency source",
        ablations,
        render_ablations,
    ),
];

/// Serializes a driver result into the record payload.
fn val<T: Serialize + ?Sized>(value: &T) -> Value {
    serde_json::to_value(value).expect("driver result serializes")
}

fn read<T: Deserialize>(payload: &Value) -> Result<T, serde::Error> {
    serde_json::from_value(payload)
}

fn fig4(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig04::Fig04Config::quick, fig04::Fig04Config::default);
    config.regions = vec![job.region()];
    (None, val(&config.run(job.seed)))
}

fn render_fig4(payload: &Value) -> Rendered {
    let result: fig04::Fig04Result = read(payload)?;
    let mut table = TextTable::new(&["p_boot (s)", "FMI", "precision", "recall"]);
    for p in &result.points {
        table.row(vec![
            format!("{:.1e}", p.p_boot_s),
            format_summary(&p.fmi),
            format_summary(&p.precision),
            format_summary(&p.recall),
        ]);
    }
    Ok(format!(
        "{}  perfect clusterings at p_boot = 1 s: {} of {} runs (paper: 14 of 15 over three regions)\n",
        table.render(),
        result.perfect_runs,
        result.total_runs
    ))
}

fn fig5(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig05::Fig05Config::quick, fig05::Fig05Config::default);
    config.region = job.region();
    let virtual_s = config.duration.as_secs_f64();
    (Some(virtual_s), val(&config.run(job.seed)))
}

fn render_fig5(payload: &Value) -> Rendered {
    let result: fig05::Fig05Result = read(payload)?;
    Ok(format!(
        "  {} histories kept ({} filtered), min |r| = {:.5}\n  \
         expired by 2 days: {}   by 7 days: {}   (paper: ~10% by ~2 days)\n",
        result.histories_kept,
        result.filtered_out,
        result.min_abs_r,
        percent(result.fraction_expired_by(2.0)),
        percent(result.fraction_expired_by(7.0)),
    ))
}

fn fig6(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig06::Fig06Config::quick, fig06::Fig06Config::default);
    config.region = job.region();
    let virtual_s = config.watch.as_secs_f64();
    (Some(virtual_s), val(&config.run(job.seed)))
}

fn render_fig6(payload: &Value) -> Rendered {
    let result: fig06::Fig06Result = read(payload)?;
    // Minute-resolution samples only.
    let mut table = TextTable::new(&["minutes since disconnect", "idle instances"]);
    for &(x, y) in result.idle_over_time.points() {
        if (x - x.round()).abs() < 1e-9 {
            table.row(vec![format!("{x:.0}"), format!("{y:.0}")]);
        }
    }
    Ok(table.render())
}

fn fig7(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig07::Fig07Config::quick, fig07::Fig07Config::default);
    config.region = job.region();
    let virtual_s = config.interval.as_secs_f64() * config.launches as f64;
    (Some(virtual_s), val(&config.run(job.seed)))
}

fn render_fig7(payload: &Value) -> Rendered {
    let result: fig07::Fig07Result = read(payload)?;
    Ok(format!(
        "{}{}  cumulative growth beyond launch 1: {:.0} hosts (paper: minimal)\n",
        format_series(&result.per_launch),
        format_series(&result.cumulative),
        result.footprint_growth()
    ))
}

fn fig8(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig08::Fig08Config::quick, fig08::Fig08Config::default);
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_fig8(payload: &Value) -> Rendered {
    let result: fig08::Fig08Result = read(payload)?;
    let mut table = TextTable::new(&["launch (account)", "apparent hosts", "cumulative"]);
    let launches = result
        .per_launch
        .points()
        .iter()
        .zip(result.cumulative.points());
    for (i, ((&(_, per), &(_, cum)), owner)) in launches.zip(&result.owners).enumerate() {
        table.row(vec![
            format!("{} ({owner})", i + 1),
            format!("{per:.0}"),
            format!("{cum:.0}"),
        ]);
    }
    let (new_step, same_step) = result.step_contrast();
    Ok(format!(
        "{}  mean cumulative growth: new-account launches {new_step:.0}, repeat launches {same_step:.0}\n",
        table.render()
    ))
}

/// The payload key of Fig. 9's 2-minute-interval comparison run.
const FIG9_TWO_MINUTE: &str = "two_minute_interval";

/// Fig. 9 at its 10-minute interval, plus the 2-minute-interval
/// comparison from the text (at the next seed), added to the payload as
/// one field.
fn fig9(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig09::Fig09Config::quick, fig09::Fig09Config::default);
    config.region = job.region();
    let virtual_s = config.interval.as_secs_f64() * config.launches as f64;
    let mut payload = val(&config.run(job.seed));
    config.interval = SimDuration::from_mins(2);
    let two_minute = val(&config.run(job.seed.wrapping_add(1)));
    if let Value::Object(fields) = &mut payload {
        fields.push((FIG9_TWO_MINUTE.to_owned(), two_minute));
    }
    (Some(virtual_s), payload)
}

fn render_fig9(payload: &Value) -> Rendered {
    let result: fig09::Fig09Result = read(payload)?;
    let two_minute: fig09::Fig09Result = read(payload.field("Fig09Result", FIG9_TWO_MINUTE)?)?;
    Ok(format!(
        "{}{}  extra hosts beyond launch 1: {:.0} (paper: 177)\n  \
         with a 2-minute interval: {:.0} extra hosts (paper: ~12)\n",
        format_series(&result.per_launch),
        format_series(&result.cumulative),
        result.extra_hosts(),
        two_minute.extra_hosts()
    ))
}

fn fig10(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig10::Fig10Config::quick, fig10::Fig10Config::default);
    config.region = job.region();
    let per_episode = config.interval.as_secs_f64() * config.launches_per_episode as f64
        + config.episode_gap.as_secs_f64();
    let virtual_s = per_episode * config.episodes as f64;
    (Some(virtual_s), val(&config.run(job.seed)))
}

fn render_fig10(payload: &Value) -> Rendered {
    let result: fig10::Fig10Result = read(payload)?;
    Ok(format_series(&result.per_episode) + &format_series(&result.cumulative))
}

fn fig11_config(job: &Job<'_>) -> fig11::Fig11Config {
    let mut config = job.pick(fig11::Fig11Config::quick, fig11::Fig11Config::default);
    config.regions = vec![job.region()];
    config
}

fn fig11(job: &Job<'_>, variant: fn(&fig11::Fig11Config, u64) -> fig11::Fig11Result) -> Outcome {
    let mut config = fig11_config(job);
    if let Some(generation) = job.run.generation {
        config.generation = generation;
    }
    (None, val(&variant(&config, job.seed)))
}

fn gen2(job: &Job<'_>) -> Outcome {
    let mut config = fig11_config(job);
    config.generation = Generation::Gen2;
    if !job.run.quick {
        // The paper reports Gen 2 transfer at the default configuration.
        config.victim_counts = vec![100];
    }
    (None, val(&config.run_11a(job.seed)))
}

fn render_fig11(payload: &Value) -> Rendered {
    let result: fig11::Fig11Result = read(payload)?;
    let mut table = TextTable::new(&[
        "region",
        "victim acct",
        "victims",
        "size",
        "coverage",
        "attacker hosts",
        "host coverage",
        "cost",
    ]);
    for cell in &result.cells {
        table.row(vec![
            cell.region.clone(),
            format!("Acc.{}", cell.victim + 2),
            cell.victim_count.to_string(),
            cell.victim_size.clone(),
            format_summary(&cell.coverage),
            format!("{:.0}", cell.attacker_hosts),
            percent(cell.attacker_host_coverage),
            format!("${:.2}", cell.attack_cost_usd),
        ]);
    }
    Ok(format!(
        "{}  co-location with >=1 victim instance: {} of runs (paper: 100%)\n",
        table.render(),
        percent(result.at_least_one_rate())
    ))
}

fn fig11_hit_rate(payload: &Value) -> Option<f64> {
    let result: fig11::Fig11Result = read(payload).ok()?;
    (!result.cells.is_empty()).then(|| result.at_least_one_rate())
}

fn fig12(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(fig12::Fig12Config::quick, fig12::Fig12Config::default);
    config.regions = vec![job.region()];
    (None, val(&config.run(job.seed)))
}

fn render_fig12(payload: &Value) -> Rendered {
    let result: fig12::Fig12Result = read(payload)?;
    let mut table = TextTable::new(&["region", "estimated hosts", "true hosts", "paper"]);
    for (region, report) in &result.per_region {
        let paper = match region.as_str() {
            "us-east1" => "474",
            "us-central1" => "1702",
            "us-west1" => "199",
            _ => "-",
        };
        table.row(vec![
            region.clone(),
            report.estimated_hosts.to_string(),
            report.true_hosts.to_string(),
            paper.to_owned(),
        ]);
    }
    Ok(table.render())
}

fn sec42(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(sec42::Sec42Config::quick, sec42::Sec42Config::default);
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_sec42(payload: &Value) -> Rendered {
    let result: sec42::Sec42Result = read(payload)?;
    Ok(format!(
        "  hosts evaluated: {}   problematic (std >= 10 kHz): {} ({})\n  \
         paper: 58 of 586 hosts (~10%)\n",
        result.hosts(),
        result.problematic_hosts(),
        percent(result.problematic_fraction())
    ))
}

fn sec43(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(sec43::Sec43Config::quick, sec43::Sec43Config::default);
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_sec43(payload: &Value) -> Rendered {
    let result: sec43::Sec43Result = read(payload)?;
    let mut table = TextTable::new(&["method", "tests", "wall", "cost", "clusters"]);
    for row in [&result.hierarchical, &result.pairwise] {
        table.row(vec![
            row.method.clone(),
            row.tests.to_string(),
            format!("{:.1} min", row.wall_s / 60.0),
            format!("${:.2}", row.cost_usd),
            row.clusters.to_string(),
        ]);
    }
    Ok(format!(
        "{}  speedup {:.0}x, cost ratio {:.0}x (paper: 8.9 h/$645 vs 1-2 min/$1-3)\n",
        table.render(),
        result.speedup(),
        result.cost_ratio()
    ))
}

fn sec45(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(sec45::Sec45Config::quick, sec45::Sec45Config::default);
    config.regions = vec![job.region()];
    (None, val(&config.run(job.seed)))
}

fn render_sec45(payload: &Value) -> Rendered {
    let result: sec45::Sec45Result = read(payload)?;
    Ok(format!(
        "  FMI:        {} (paper: 0.66)\n  \
         precision:  {} (paper: 0.48)\n  \
         recall:     {} (paper: 1.0, no false negatives)\n  \
         hosts per fingerprint: {} (paper: 2.0)\n  \
         false-negative pairs: {}\n",
        format_summary(&result.fmi),
        format_summary(&result.precision),
        format_summary(&result.recall),
        format_summary(&result.hosts_per_fingerprint),
        result.false_negatives_total
    ))
}

fn strategy1(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(sec52::Sec52Config::quick, sec52::Sec52Config::default);
    config.regions = vec![job.region()];
    (None, val(&config.run(job.seed)))
}

fn render_strategy1(payload: &Value) -> Rendered {
    let result: sec52::Sec52Result = read(payload)?;
    let mut table = TextTable::new(&["region", "victim acct", "coverage", "cost"]);
    for cell in &result.cells {
        table.row(vec![
            cell.region.clone(),
            format!("Acc.{}", cell.victim + 2),
            percent(cell.coverage),
            format!("${:.2}", cell.cost_usd),
        ]);
    }
    Ok(format!(
        "{}  zero-coverage cells: {} of {}   high-coverage cells: {}\n",
        table.render(),
        result.zero_cells(),
        result.cells.len(),
        result.high_cells()
    ))
}

/// Strategy 1's rate: the fraction of cells with any coverage.
fn strategy1_hit_rate(payload: &Value) -> Option<f64> {
    let result: sec52::Sec52Result = read(payload).ok()?;
    let hits = result.cells.iter().filter(|c| c.coverage > 0.0).count();
    (!result.cells.is_empty()).then(|| hits as f64 / result.cells.len() as f64)
}

fn sec6(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(sec6::Sec6Config::quick, sec6::Sec6Config::default);
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_sec6(payload: &Value) -> Rendered {
    let result: sec6::Sec6Result = read(payload)?;
    let mut table = TextTable::new(&[
        "mitigation",
        "Gen1 FMI",
        "Gen2 precision",
        "Gen2 distinct fps",
        "db overhead",
        "web overhead",
    ]);
    for row in &result.rows {
        let name = match row.mitigation {
            TscMitigation::None => "none (paper's platforms)",
            TscMitigation::TrapAndEmulate => "trap & emulate (Gen 1)",
            TscMitigation::OffsetAndScale => "offset + scale (Gen 2)",
        };
        table.row(vec![
            name.to_owned(),
            format!("{:.4}", row.gen1_fmi),
            format!("{:.3}", row.gen2_precision),
            row.gen2_distinct_values.to_string(),
            percent(row.database_overhead),
            percent(row.web_overhead),
        ]);
    }
    Ok(format!(
        "{}  co-location-resistant scheduling: Strategy-2 coverage {} -> {}\n",
        table.render(),
        percent(result.coverage_unmitigated),
        percent(result.coverage_resistant)
    ))
}

fn opt(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(opt52::Opt52Config::quick, opt52::Opt52Config::default);
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_opt(payload: &Value) -> Rendered {
    let result: opt52::Opt52Result = read(payload)?;
    Ok(format!(
        "  multi-account: 1 account -> {} hosts, 3 accounts -> {} hosts\n  \
         fresh accounts blocked by the 10-instance quota: {}\n  \
         repeated attack: first = {} coverage, ${:.2}, {} extraction instances\n  \
         focused repeat  = {} coverage, ${:.2}, {} extraction instances ({} saved)\n",
        result.hosts_one_account,
        result.hosts_three_accounts,
        result.new_accounts_blocked,
        percent(result.first_coverage),
        result.first_cost_usd,
        result.first_fleet,
        percent(result.focused_coverage),
        result.focused_cost_usd,
        result.focused_fleet,
        percent(result.cost_saving())
    ))
}

fn factors(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(
        other_factors::OtherFactorsConfig::quick,
        other_factors::OtherFactorsConfig::default,
    );
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_factors(payload: &Value) -> Rendered {
    let result: other_factors::OtherFactorsResult = read(payload)?;
    Ok(format!(
        "  base-host footprint overlap, launches 12 h apart: {}\n  \
         overlap between Pico and Large services:          {}\n  \
         overlap between Gen 1 and Gen 2 services:         {}\n  \
         Gen 2 instances sharing hosts with live Gen 1 instances: {} of {}\n",
        percent(result.time_of_day_overlap),
        percent(result.size_overlap),
        percent(result.generation_overlap),
        result.gen2_instances_on_gen1_hosts,
        result.gen2_instances
    ))
}

fn attack_naive(job: &Job<'_>) -> Outcome {
    let strategy = if job.run.quick {
        NaiveLaunch {
            services: 3,
            instances_per_service: 400,
            ..NaiveLaunch::default()
        }
    } else {
        NaiveLaunch::default()
    };
    attack_trial(job, |world, attacker| strategy.run(world, attacker))
}

fn attack_optimized(job: &Job<'_>) -> Outcome {
    let strategy = if job.run.quick {
        OptimizedLaunch {
            services: 3,
            launches_per_service: 4,
            instances_per_launch: 300,
            ..OptimizedLaunch::default()
        }
    } else {
        OptimizedLaunch::default()
    };
    attack_trial(job, |world, attacker| strategy.run(world, attacker))
}

fn render_attack(payload: &Value) -> Rendered {
    let trial: AttackTrial = read(payload)?;
    let verified = match trial.verified_at_least_one {
        Some(verdict) => verdict.to_string(),
        None => "no co-located pair".to_owned(),
    };
    Ok(format!(
        "  {}: {} launches, {} attacker instances on {} hosts ({} of the region)\n  \
         victim coverage {} of {}, co-located: {}, verified over {}: {}, cost ${:.2}\n",
        trial.platform,
        trial.launches,
        trial.attacker_instances,
        trial.attacker_hosts,
        percent(trial.attacker_host_coverage),
        percent(trial.victim_instance_coverage),
        trial.victims,
        trial.at_least_one,
        trial.verifier,
        verified,
        trial.cost_usd
    ))
}

fn attack_hit(payload: &Value) -> Option<f64> {
    let trial: AttackTrial = read(payload).ok()?;
    Some(if trial.at_least_one { 1.0 } else { 0.0 })
}

fn calibration(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(calib::CalibConfig::quick, calib::CalibConfig::default);
    config.region = job.region();
    config.platform = job.run.platform.unwrap_or(PlatformKind::CloudRun);
    config.channel = job.run.verifier.unwrap_or(VerifierChannel::MembusLockCheck);
    let result = config.run(job.seed);
    (Some(result.wall_s), val(&result))
}

fn render_calibration(payload: &Value) -> Rendered {
    let result: calib::CalibResult = read(payload)?;
    let mut table = TextTable::new(&["min positive rounds", "TPR", "FPR"]);
    for point in &result.points {
        table.row(vec![
            point.min_positive_rounds.to_string(),
            format!("{:.3}", point.tpr),
            format!("{:.3}", point.fpr),
        ]);
    }
    Ok(format!(
        "{}  {} over {}: {} trials per class, {} rounds per test; chosen threshold {} rounds\n",
        table.render(),
        result.channel,
        result.platform,
        result.trials,
        result.rounds,
        result.chosen_min_positive_rounds
    ))
}

fn ablations(job: &Job<'_>) -> Outcome {
    let mut config = job.pick(
        ablations::AblationsConfig::quick,
        ablations::AblationsConfig::default,
    );
    config.region = job.region();
    (None, val(&config.run(job.seed)))
}

fn render_ablations(payload: &Value) -> Rendered {
    let result: ablations::AblationsResult = read(payload)?;
    let mut window = TextTable::new(&["demand window", "distinct hosts"]);
    for row in &result.demand_window {
        window.row(vec![format!("{} min", row.minutes), row.hosts.to_string()]);
    }
    let mut popularity = TextTable::new(&[
        "popularity exponent",
        "attacker host coverage",
        "victim coverage",
    ]);
    for row in &result.popularity {
        popularity.row(vec![
            format!("{:.2}", row.exponent),
            percent(row.host_coverage),
            percent(row.victim_coverage),
        ]);
    }
    let mut threshold = TextTable::new(&[
        "CTest m",
        "CTests",
        "fallback tests",
        "wall",
        "cost",
        "clusters",
        "true hosts",
    ]);
    for row in &result.ctest_m {
        threshold.row(vec![
            row.m.to_string(),
            row.ctests.to_string(),
            row.pairwise_fallback_tests.to_string(),
            format!("{:.1} s", row.wall_s),
            format!("${:.2}", row.cost_usd),
            row.clusters.to_string(),
            row.true_hosts.to_string(),
        ]);
    }
    let mut frequency = TextTable::new(&["Gen 1 FMI, reported frequency", "measured frequency"]);
    for row in &result.frequency_source {
        frequency.row(vec![
            format!("{:.4}", row.reported_fmi),
            format!("{:.4}", row.measured_fmi),
        ]);
    }
    Ok(format!(
        "  # demand window: 4 launches 10 min apart (Observation 5: ~30 min)\n{}\
         \n  # host popularity, optimized attack (DESIGN.md §6: the presets use 1.25)\n{}\
         \n  # CTest threshold m, hierarchical verification (§4.3: the paper uses m = 2)\n{}\
         \n  # Gen 1 frequency source (§4.2: the paper uses the reported one)\n{}",
        window.render(),
        popularity.render(),
        threshold.render(),
        frequency.render()
    ))
}

/// Formats a series as aligned `x  y` rows.
fn format_series(series: &Series) -> String {
    let mut out = format!("  # {}\n", series.label());
    for &(x, y) in series.points() {
        out.push_str(&format!("  {x:>8.2}  {y:>10.2}\n"));
    }
    out
}

/// Formats a mean ± std pair the way the paper's error bars read.
fn format_summary(s: &Summary) -> String {
    format!("{:.4} ± {:.4}", s.mean(), s.std_dev())
}

/// Formats a fraction as a percentage with one decimal.
fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A simple aligned text table.
struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "table needs columns");
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row as wide as the header.
    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("  ");
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_owned() + "\n"
        };
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let mut out = fmt_row(&self.header);
        out.push_str(&format!("  {}\n", "-".repeat(total)));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::execute;
    use crate::spec::CampaignSpec;

    #[test]
    fn every_row_runs_renders_and_parses_back() {
        let spec = CampaignSpec {
            experiments: EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect(),
            regions: vec!["us-west1".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        let runs = spec.expand().expect("every row name is a valid experiment");
        assert_eq!(runs.len(), EXPERIMENTS.len());
        for (run, row) in runs.iter().zip(&EXPERIMENTS) {
            let found = Experiment::find(row.name).expect("the name parses");
            assert!(
                std::ptr::eq(found, row),
                "{} parses to another row",
                row.name
            );
            let record = execute(run, 5);
            assert!(record.is_ok(), "{}: {:?}", row.name, record.error);
            let payload = record.payload.expect("ok records carry a payload");
            let text = (row.render)(&payload)
                .unwrap_or_else(|e| panic!("{} cannot render its payload: {e}", row.name));
            assert!(text.ends_with('\n'), "{}: {text:?}", row.name);
            if let Some(headline) = row.colocation {
                let rate = headline(&payload).expect("the headline reads its own payload");
                assert!((0.0..=1.0).contains(&rate), "{}: {rate}", row.name);
            }
        }
        assert!(Experiment::find("fig99").is_none());
    }

    #[test]
    fn the_paper_suite_is_the_first_eighteen_rows() {
        let suite: Vec<&str> = Experiment::paper_suite().map(|e| e.name).collect();
        assert_eq!(suite.len(), 18);
        assert_eq!(suite.first(), Some(&"fig4"));
        assert_eq!(suite.last(), Some(&"factors"));
        assert!(EXPERIMENTS[..18].iter().all(|e| e.paper));
    }

    #[test]
    fn fig9_carries_the_two_minute_comparison() {
        let spec = CampaignSpec {
            experiments: vec!["fig9".to_owned()],
            regions: vec!["us-west1".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        let record = execute(&spec.expand().expect("valid")[0], 5);
        let payload = record.payload.expect("payload");
        let main: fig09::Fig09Result = read(&payload).expect("a Fig09Result");
        let two_minute: fig09::Fig09Result =
            read(payload.get(FIG9_TWO_MINUTE).expect("the comparison field")).expect("parses");
        assert_eq!(main.interval, fig09::Fig09Config::quick().interval);
        assert_eq!(two_minute.interval, SimDuration::from_mins(2));
        assert!(two_minute.extra_hosts() < main.extra_hosts());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["region", "coverage"]);
        t.row(vec!["us-east1".into(), "97.7%".into()]);
        t.row(vec!["us-west1".into(), "100.0%".into()]);
        let s = t.render();
        assert!(s.contains("region"));
        assert!(s.contains("us-west1"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        TextTable::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn series_and_percent_format() {
        let mut s = Series::new("hosts");
        s.push(1.0, 75.0);
        let text = format_series(&s);
        assert!(text.contains("hosts"));
        assert!(text.contains("75.00"));
        assert_eq!(percent(0.5), "50.0%");
        let summary = Summary::of(&[1.0, 1.0]);
        assert!(format_summary(&summary).starts_with("1.0000"));
    }
}
