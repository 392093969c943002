//! Integration tests for the `--trace` JSONL stream: every line is a
//! schema-valid [`Event`], timestamps are monotonic within a run, spans
//! pair up, and the trace covers the campaign, experiment, and
//! orchestrator layers.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

use eaao::obs::SCHEMA_VERSION;
use eaao::prelude::*;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eaao-trace-schema").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn traced_campaign(name: &str) -> (Vec<Event>, PathBuf) {
    let dir = scratch(name);
    let trace_path = dir.join("trace.jsonl");
    let spec = CampaignSpec {
        name: "trace-schema".to_owned(),
        experiments: vec!["attack-naive".to_owned(), "fig6".to_owned()],
        regions: vec!["us-west1".to_owned()],
        seeds: 2,
        quick: true,
        ..CampaignSpec::default()
    };
    let report = Campaign::new(spec, &dir)
        .jobs(2)
        .trace(Some(trace_path.clone()))
        .run()
        .expect("traced campaign runs");
    assert!(report.all_ok(), "failures: {report:?}");

    let text = fs::read_to_string(&trace_path).expect("trace file exists");
    let events = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            #[expect(
                clippy::panic,
                reason = "a malformed trace line fails the test, naming its line number"
            )]
            serde_json::from_str::<Event>(line)
                .unwrap_or_else(|e| panic!("trace line {} does not parse: {e}", i + 1))
        })
        .collect();
    (events, trace_path)
}

#[test]
fn every_event_is_schema_valid_and_run_scoped() {
    let (events, _) = traced_campaign("schema");
    assert!(!events.is_empty(), "trace must not be empty");
    for event in &events {
        assert_eq!(event.v, SCHEMA_VERSION, "unknown schema version");
        assert!(!event.name.is_empty());
        assert!(
            event.run.is_some(),
            "campaign trace events must carry a run key (got {:?})",
            event.name
        );
        match event.kind {
            EventKind::SpanStart => {
                assert!(event.span.is_some(), "span_start without a span id");
                assert!(event.dur_ns.is_none(), "span_start must not carry dur_ns");
            }
            EventKind::SpanEnd => {
                assert!(event.span.is_some(), "span_end without a span id");
                assert!(event.dur_ns.is_some(), "span_end must carry dur_ns");
            }
            EventKind::Point | EventKind::Metrics => {}
        }
    }
}

#[test]
fn timestamps_are_monotonic_within_each_run() {
    let (events, _) = traced_campaign("monotonic");
    let mut last_by_run: BTreeMap<String, u64> = BTreeMap::new();
    for event in &events {
        let run = event.run.clone().expect("run-scoped");
        let last = last_by_run.entry(run.clone()).or_insert(0);
        assert!(
            event.t_ns >= *last,
            "t_ns went backwards in run {run}: {} after {last}",
            event.t_ns
        );
        *last = event.t_ns;
    }
    // The sweep is 2 experiments × 2 seeds.
    assert_eq!(last_by_run.len(), 4, "expected one timeline per run");
}

#[test]
fn spans_pair_up_within_each_run() {
    let (events, _) = traced_campaign("pairing");
    let mut open: BTreeMap<(String, u64), String> = BTreeMap::new();
    for event in &events {
        let run = event.run.clone().expect("run-scoped");
        match event.kind {
            EventKind::SpanStart => {
                let id = event.span.expect("span id");
                assert!(
                    open.insert((run, id), event.name.clone()).is_none(),
                    "span id reused while open"
                );
            }
            EventKind::SpanEnd => {
                let id = event.span.expect("span id");
                let name = open.remove(&(run, id)).expect("span_end without start");
                assert_eq!(name, event.name, "span start/end names disagree");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
}

#[test]
fn trace_covers_campaign_experiment_and_orchestrator_layers() {
    let (events, path) = traced_campaign("coverage");
    let names: BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for required in ["campaign.run", "experiment.dispatch", "world.build"] {
        assert!(
            names.contains(required),
            "trace is missing the {required} span (has: {names:?})"
        );
    }
    // And the aggregate reader accepts the same file.
    let summary = TraceSummary::read(&path).expect("summarizes");
    assert_eq!(summary.events as usize, events.len());
    assert!(summary.spans.iter().any(|s| s.name == "campaign.run"));
}
