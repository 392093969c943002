//! The `--trace` pass: in-memory span collection, self time, and the
//! per-layer ledger.
//!
//! The benchmark opens `eaao_obs` spans around its own calls into each
//! layer; the program's existing spans (`world.launch`, `probe.fleet`,
//! `verify.hierarchical`, …) nest under them unchanged. Every event is
//! tagged with the request it belongs to (a pass, a campaign run key, a
//! serve submission), because span ids are only unique within one
//! request. Events stay in memory until the run ends and are then written
//! once with [`eaao_obs::TraceWriter`], in the format `eaao trace` reads.

use std::collections::BTreeMap;
use std::sync::Arc;

use eaao_obs::{with_instrument, Collector, Event, EventKind, MetricsSnapshot, TraceWriter};

use crate::{registry, stats, Ctx, Report};

/// Collects events on the current thread, one request at a time.
#[derive(Debug)]
pub struct Tracer {
    collector: Arc<Collector>,
    events: Vec<Event>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            collector: Collector::with_events(),
            events: Vec::new(),
        }
    }

    /// Runs `f` with this tracer's collector installed, tagging every
    /// event it emits with `request`.
    pub fn scope<R>(&mut self, request: &str, f: impl FnOnce() -> R) -> R {
        let out = with_instrument(self.collector.clone(), f);
        let events = self.collector.drain_events();
        self.absorb(request, events);
        out
    }

    /// Adds events collected on another thread, tagged with `request`.
    pub fn absorb(&mut self, request: &str, events: Vec<Event>) {
        self.events.extend(events.into_iter().map(|mut event| {
            event.run = Some(request.to_owned());
            event
        }));
    }

    /// Adds events that already carry their request (a campaign trace
    /// file tags each with its run key).
    pub fn extend(&mut self, events: Vec<Event>) {
        self.events.extend(events);
    }

    /// The program's counters recorded under [`Tracer::scope`] so far.
    pub fn counters(&self) -> MetricsSnapshot {
        self.collector.snapshot()
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// One finished span with its self time: its duration minus the part of
/// its interval that its child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: String,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Resolves `span_end` events into [`Span`]s with self times, ordered by
/// request and start.
pub fn spans(events: &[Event]) -> Vec<Span> {
    let mut children: BTreeMap<(&str, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut ends = Vec::new();
    for event in events {
        let (EventKind::SpanEnd, Some(id), Some(dur)) = (event.kind, event.span, event.dur_ns)
        else {
            continue;
        };
        let request = event.run.as_deref().unwrap_or("");
        let start = event.t_ns.saturating_sub(dur);
        if let Some(parent) = event.parent {
            children
                .entry((request, parent))
                .or_default()
                .push((start, event.t_ns));
        }
        ends.push((request, id, event.name.as_str(), start, dur));
    }
    let mut spans: Vec<Span> = ends
        .into_iter()
        .map(|(request, id, name, start, dur)| {
            let covered = children
                .get_mut(&(request, id))
                .map_or(0, |intervals| covered_ns(intervals, start, start + dur));
            Span {
                request: request.to_owned(),
                name: name.to_owned(),
                start_ns: start,
                dur_ns: dur,
                self_ns: dur - covered,
            }
        })
        .collect();
    spans.sort_by(|a, b| (&a.request, a.start_ns).cmp(&(&b.request, b.start_ns)));
    spans
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`: children
/// that overlap each other are counted once.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The layer a span belongs to, by the crate that owns its name.
pub fn layer(span: &str) -> Option<&'static str> {
    let prefix = span.split('.').next().unwrap_or("");
    match prefix {
        "cloudsim" => Some("cloudsim"),
        "world" | "orchestrator" | "placement" => Some("orchestrator"),
        "experiment" if span == "experiment.dispatch" => Some("campaign"),
        "probe" | "verify" | "strategy" | "experiment" | "core" => Some("core"),
        "campaign" => Some("campaign"),
        "serve" => Some("serve"),
        _ => None,
    }
}

/// Sum of self time, in milliseconds, over spans whose name passes `pick`.
pub fn self_ms(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    let self_ns: u64 = spans
        .iter()
        .filter(|span| pick(&span.name))
        .map(|span| span.self_ns)
        .sum();
    self_ns as f64 / 1e6
}

/// Durations, in milliseconds, of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.dur_ns as f64 / 1e6)
        .collect()
}

/// Per-layer metrics read from the program's own counters:
/// `(metric, counter)`.
const COUNTERS: [(&str, &str); 8] = [
    ("cloudsim.hosts_generated", "cloudsim.hosts_generated"),
    ("cloudsim.rng_rounds", "cloudsim.rng_rounds"),
    ("cloudsim.lockcheck_rounds", "cloudsim.lockcheck_rounds"),
    ("orchestrator.launch.calls", "orchestrator.launches"),
    ("orchestrator.placement_plans", "placement.plans"),
    ("core.probe.instances", "probe.instances_probed"),
    ("core.verify.ctests", "verify.ctests"),
    ("core.strategy.launches", "strategy.launches"),
];

/// Sets every per-layer metric: zero first, then everything the traced
/// window's spans and the program's counters define. Workloads add the
/// metrics only they can measure afterwards.
pub fn ledger(report: &mut Report, spans: &[Span], counters: &BTreeMap<String, u64>) {
    for metric in registry::per_layer() {
        report.set(metric.name, 0.0);
    }
    for name in ["cloudsim", "orchestrator", "core", "campaign"] {
        report.set(
            format!("{name}.self_ms"),
            self_ms(spans, |span| layer(span) == Some(name)),
        );
    }
    let exact = |wanted: &'static [&'static str]| move |name: &str| wanted.contains(&name);
    let under = |prefix: &'static str| move |name: &str| name.starts_with(prefix);
    report.set(
        "cloudsim.generate.self_ms",
        self_ms(spans, exact(&["cloudsim.datacenter.generate"])),
    );
    report.set(
        "orchestrator.launch.self_ms",
        self_ms(spans, exact(&["world.launch", "orchestrator.launch"])),
    );
    report.set(
        "orchestrator.launch.tail_us",
        stats::tail(&durations_ms(spans, "world.launch")).1 * 1e3,
    );
    report.set(
        "orchestrator.advance.self_ms",
        self_ms(spans, exact(&["orchestrator.advance"])),
    );
    report.set(
        "orchestrator.teardown.self_ms",
        self_ms(spans, exact(&["orchestrator.teardown"])),
    );
    report.set("core.probe.self_ms", self_ms(spans, under("probe.")));
    report.set("core.verify.self_ms", self_ms(spans, under("verify.")));
    report.set("core.strategy.self_ms", self_ms(spans, under("strategy.")));
    for (metric, counter) in COUNTERS {
        report.set(metric, counters.get(counter).copied().unwrap_or(0) as f64);
    }
}

/// Writes the tracer's events, as JSONL that `eaao trace` reads, to the
/// workload's trace file.
pub fn write(report: &mut Report, ctx: &Ctx, tracer: &Tracer) {
    let path = ctx.trace_file();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| TraceWriter::create(&path)?.write_events(&tracer.events));
    report.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(request: &str, name: &str, id: u64, parent: Option<u64>, end: u64, dur: u64) -> Event {
        let mut event = Event::new(EventKind::SpanEnd, name, end);
        event.run = Some(request.to_owned());
        event.span = Some(id);
        event.parent = parent;
        event.dur_ns = Some(dur);
        event
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // parent [0, 100]; children [10, 40] and [30, 60] overlap on
        // [30, 40], and [90, 120] sticks out past the parent's end.
        let events = vec![
            end("r", "child", 2, Some(1), 40, 30),
            end("r", "child", 3, Some(1), 60, 30),
            end("r", "child", 4, Some(1), 120, 30),
            end("r", "parent", 1, None, 100, 100),
        ];
        let spans = spans(&events);
        let parent = spans.iter().find(|s| s.name == "parent").expect("parent");
        // covered: [10, 60] + [90, 100] = 60
        assert_eq!(parent.self_ns, 40);
        assert_eq!(self_ms(&spans, |name| name == "child"), 90.0 / 1e6);
    }

    #[test]
    fn span_ids_are_scoped_to_their_request() {
        // Two requests reuse span ids 1 and 2; each child belongs only to
        // the parent of its own request.
        let events = vec![
            end("a", "child", 2, Some(1), 50, 50),
            end("a", "parent", 1, None, 100, 100),
            end("b", "parent", 1, None, 100, 100),
        ];
        let spans = spans(&events);
        let self_of = |request: &str| {
            spans
                .iter()
                .find(|s| s.request == request && s.name == "parent")
                .map(|s| s.self_ns)
        };
        assert_eq!(self_of("a"), Some(50));
        assert_eq!(self_of("b"), Some(100));
    }

    #[test]
    fn layers_follow_the_owning_crate() {
        assert_eq!(layer("cloudsim.datacenter.generate"), Some("cloudsim"));
        assert_eq!(layer("world.launch"), Some("orchestrator"));
        assert_eq!(layer("experiment.fig4"), Some("core"));
        assert_eq!(layer("experiment.dispatch"), Some("campaign"));
        assert_eq!(layer("verify.hierarchical"), Some("core"));
        assert_eq!(layer("serve.connect"), Some("serve"));
        assert_eq!(layer("unrelated"), None);
    }
}
