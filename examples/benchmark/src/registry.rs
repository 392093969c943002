//! The registry of workloads and metrics, checked against
//! `BENCHMARK.json` so the two cannot drift apart.

use serde_json::Value;

/// Measuring time per run, in seconds, when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 20;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-suite", "attack-grid", "serve-swarm", "mega-region"];

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Printed by every untraced run, on every workload (host time).
pub const END_TO_END: [Metric; 4] = [
    lower("setup_s", "s"),
    lower("op_p50_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Printed by every `--trace` run, on every workload: totals over the
/// traced window, 0 where the workload does not reach the layer.
pub const PER_LAYER: [Metric; 59] = [
    lower("cloudsim.self_ms", "ms"),
    lower("cloudsim.generate.self_ms", "ms"),
    lower("cloudsim.hosts_generated", "count"),
    lower("cloudsim.rng_rounds", "count"),
    lower("cloudsim.lockcheck_rounds", "count"),
    lower("orchestrator.self_ms", "ms"),
    lower("orchestrator.build.p50_ms", "ms"),
    lower("orchestrator.grid.p50_ms", "ms"),
    lower("orchestrator.branch_grid.p50_ms", "ms"),
    lower("orchestrator.branch.p50_us", "us"),
    lower("orchestrator.first_launch_after_branch.p50_ms", "ms"),
    lower("orchestrator.launch.calls", "count"),
    lower("orchestrator.launch.self_ms", "ms"),
    lower("orchestrator.launch.tail_us", "us"),
    lower("orchestrator.advance.self_ms", "ms"),
    lower("orchestrator.teardown.self_ms", "ms"),
    lower("orchestrator.placement_plans", "count"),
    lower("core.self_ms", "ms"),
    lower("core.probe.self_ms", "ms"),
    lower("core.verify.self_ms", "ms"),
    lower("core.strategy.self_ms", "ms"),
    lower("core.probe.instances", "count"),
    lower("core.verify.ctests", "count"),
    lower("core.strategy.launches", "count"),
    lower("experiment.factors.ms", "ms"),
    lower("experiment.fig10.ms", "ms"),
    lower("experiment.fig11a.ms", "ms"),
    lower("experiment.fig11b.ms", "ms"),
    lower("experiment.fig12.ms", "ms"),
    lower("experiment.fig4.ms", "ms"),
    lower("experiment.fig5.ms", "ms"),
    lower("experiment.fig6.ms", "ms"),
    lower("experiment.fig7.ms", "ms"),
    lower("experiment.fig8.ms", "ms"),
    lower("experiment.fig9.ms", "ms"),
    lower("experiment.gen2.ms", "ms"),
    lower("experiment.opt.ms", "ms"),
    lower("experiment.sec4.2.ms", "ms"),
    lower("experiment.sec4.3.ms", "ms"),
    lower("experiment.sec4.5.ms", "ms"),
    lower("experiment.sec6.ms", "ms"),
    lower("experiment.strategy1.ms", "ms"),
    lower("campaign.self_ms", "ms"),
    lower("campaign.cell.p50_ms", "ms"),
    lower("campaign.cell.tail_ms", "ms"),
    higher("campaign.busy_frac", "frac"),
    lower("serve.connect.p50_ms", "ms"),
    lower("serve.first_record.p50_ms", "ms"),
    lower("serve.first_record.tail_ms", "ms"),
    lower("serve.finalize.p50_ms", "ms"),
    lower("serve.overhead.p50_ms", "ms"),
    lower("serve.late.max_ms", "ms"),
    lower("serve.p50_ms.r100", "ms"),
    lower("serve.tail_ms.r100", "ms"),
    lower("serve.p50_ms.r200", "ms"),
    lower("serve.tail_ms.r200", "ms"),
    lower("serve.p50_ms.r400", "ms"),
    lower("serve.tail_ms.r400", "ms"),
    higher("serve.max_rate_per_s", "1/s"),
];

/// Printed with the per-layer metrics, on every workload.
pub const TRACE_OVERHEAD: Metric = lower("trace_overhead_frac", "frac");

/// Every per-layer metric, [`TRACE_OVERHEAD`] last.
pub fn per_layer() -> impl Iterator<Item = Metric> {
    PER_LAYER.into_iter().chain([TRACE_OVERHEAD])
}

fn direction(metric: &Metric) -> &'static str {
    if metric.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Checks `benchmark_json` (the text of `BENCHMARK.json`) against the
/// registry: the same workloads, the same metrics with the same units
/// and directions in the same order, and `run_seconds` equal to
/// [`RUN_SECONDS`].
pub fn check(benchmark_json: &str) -> Result<(), String> {
    let root: Value = serde_json::from_str(benchmark_json)
        .map_err(|error| format!("BENCHMARK.json does not parse: {error}"))?;
    let list = |key: &str| {
        root.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let text = |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).map(str::to_owned);

    let workloads: Vec<Option<String>> = list("workloads")?
        .iter()
        .map(|entry| text(entry, "name"))
        .collect();
    let expected: Vec<Option<String>> = WORKLOADS.iter().map(|w| Some((*w).to_owned())).collect();
    if workloads != expected {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the registry {WORKLOADS:?}"
        ));
    }
    for (key, registry) in [
        ("end_to_end", END_TO_END.to_vec()),
        ("per_layer", per_layer().collect()),
    ] {
        let found: Vec<[Option<String>; 3]> = list(key)?
            .iter()
            .map(|entry| {
                [
                    text(entry, "name"),
                    text(entry, "unit"),
                    text(entry, "better"),
                ]
            })
            .collect();
        let wanted: Vec<[Option<String>; 3]> = registry
            .iter()
            .map(|m| [m.name, m.unit, direction(m)].map(|field| Some(field.to_owned())))
            .collect();
        if found != wanted {
            return Err(format!(
                "BENCHMARK.json `{key}` differs from the registry (name, unit, better)"
            ));
        }
    }
    for entry in list("end_to_end")? {
        let bound = entry
            .get("bound")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!(
                "BENCHMARK.json end_to_end entry {entry:?} needs a bound in (0, 0.25]"
            ));
        }
    }
    let seconds = root.get("run_seconds").and_then(Value::as_u64);
    if seconds != Some(RUN_SECONDS) {
        return Err(format!(
            "BENCHMARK.json run_seconds {seconds:?} differs from the registry's {RUN_SECONDS}"
        ));
    }
    Ok(())
}

/// The `--list` text: workloads with why they exist, then every metric
/// with its unit, direction and (end to end) regression bound, all
/// from `benchmark_json`, which [`check`] has accepted.
pub fn render(benchmark_json: &str) -> String {
    let root: Value = serde_json::from_str(benchmark_json).unwrap_or(Value::Null);
    let entries = |key: &str| {
        root.get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let field = |entry: &Value, key: &str| match entry.get(key) {
        Some(Value::String(text)) => text.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_default(),
        None => "-".to_owned(),
    };
    let mut out = format!("run_seconds {RUN_SECONDS}\n\nworkloads:\n");
    for entry in entries("workloads") {
        out.push_str(&format!(
            "  {:<12} {}\n",
            field(&entry, "name"),
            field(&entry, "why")
        ));
    }
    out.push_str("\nend-to-end metrics (untraced runs):\n");
    for entry in entries("end_to_end") {
        out.push_str(&format!(
            "  {:<44} {:<6} {:<7} bound {}\n",
            field(&entry, "name"),
            field(&entry, "unit"),
            field(&entry, "better"),
            field(&entry, "bound"),
        ));
    }
    out.push_str("\nper-layer metrics (--trace runs):\n");
    for entry in entries("per_layer") {
        out.push_str(&format!(
            "  {:<44} {:<6} {}\n",
            field(&entry, "name"),
            field(&entry, "unit"),
            field(&entry, "better"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, two levels above this
    /// package.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json is readable")
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        check(&benchmark_json()).expect("registry and BENCHMARK.json agree");
    }

    #[test]
    fn a_renamed_metric_is_a_mismatch() {
        let json = benchmark_json();
        let drifted = json.replacen("\"op_p50_ms\"", "\"op_median_ms\"", 1);
        assert!(check(&drifted).is_err());
        let flipped = json.replacen("\"higher\"", "\"lower\"", 1);
        assert!(check(&flipped).is_err());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .copied()
            .chain(per_layer())
            .map(|m| m.name)
            .chain(WORKLOADS)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
