//! Profiling hooks: the [`Collector`] sink, the thread-local dispatch
//! that instrumented code emits into, and RAII [`SpanGuard`]s.
//!
//! Instrumented code never owns a sink. It calls the free functions
//! ([`span`], [`count`], [`gauge`], [`observe`]) which route to whatever
//! [`Collector`] the surrounding [`with_instrument`] scope installed on
//! the current thread — or do nothing, cheaply, when no scope is active.
//! This is what lets the orchestrator, simulator, and experiment drivers
//! stay observability-agnostic while the campaign engine collects per-run
//! metrics and traces.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::event::{Event, EventKind, SCHEMA_VERSION};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

struct ActiveScope {
    collector: Arc<Collector>,
    span_stack: Vec<u64>,
    next_span: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// Runs `f` with `collector` installed as the current thread's sink,
/// restoring the previous sink (if any) afterwards — including on panic,
/// so a caught panic in instrumented code cannot leak a stale scope.
pub fn with_instrument<R>(collector: Arc<Collector>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ActiveScope>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|active| *active.borrow_mut() = self.0.take());
        }
    }
    let previous = ACTIVE.with(|active| {
        active.borrow_mut().replace(ActiveScope {
            collector,
            span_stack: Vec::new(),
            next_span: 1,
        })
    });
    let _restore = Restore(previous);
    f()
}

/// Whether a collector is installed on the current thread.
pub fn active() -> bool {
    ACTIVE.with(|active| active.borrow().is_some())
}

/// Adds `delta` to the counter `name` of the current scope's registry.
/// No-op outside a [`with_instrument`] scope.
pub fn count(name: &str, delta: u64) {
    ACTIVE.with(|active| {
        if let Some(scope) = active.borrow().as_ref() {
            scope.collector.metrics.counter(name).add(delta);
        }
    });
}

/// Sets the gauge `name` of the current scope's registry. No-op outside a
/// [`with_instrument`] scope.
pub fn gauge(name: &str, value: f64) {
    ACTIVE.with(|active| {
        if let Some(scope) = active.borrow().as_ref() {
            scope.collector.metrics.gauge(name).set(value);
        }
    });
}

/// Records `value` into the histogram `name` of the current scope's
/// registry. No-op outside a [`with_instrument`] scope.
pub fn observe(name: &str, value: u64) {
    ACTIVE.with(|active| {
        if let Some(scope) = active.borrow().as_ref() {
            scope.collector.metrics.histogram(name).record(value);
        }
    });
}

/// State of a live span; present only while a scope wants events.
#[derive(Debug)]
struct SpanActive {
    name: String,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    fields: Vec<(String, Value)>,
}

/// An RAII guard for one traced span.
///
/// Created by [`span`]; emits a `span_start` event immediately and the
/// matching `span_end` (carrying duration and any annotations added via
/// the `*_field` methods) when dropped. Outside an event-collecting
/// scope the guard is inert and allocation-free.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<SpanActive>,
}

impl SpanGuard {
    /// Attaches a deterministic annotation to the span's end event.
    pub fn field(&mut self, key: &str, value: Value) {
        if let Some(active) = &mut self.active {
            active.fields.push((key.to_owned(), value));
        }
    }

    /// Attaches an unsigned-integer annotation.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.field(key, value.to_value());
    }

    /// Attaches a string annotation.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.field(key, Value::String(value.to_owned()));
    }

    /// Attaches a boolean annotation.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.field(key, Value::Bool(value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        ACTIVE.with(|scope_cell| {
            let mut borrow = scope_cell.borrow_mut();
            let Some(scope) = borrow.as_mut() else {
                return; // The owning scope already ended; drop silently.
            };
            if let Some(position) = scope.span_stack.iter().rposition(|&id| id == active.id) {
                scope.span_stack.truncate(position);
            }
            let now = scope.collector.now_ns();
            let event = Event {
                v: SCHEMA_VERSION,
                run: None,
                kind: EventKind::SpanEnd,
                name: active.name,
                span: Some(active.id),
                parent: active.parent,
                t_ns: now,
                dur_ns: Some(now.saturating_sub(active.start_ns)),
                fields: if active.fields.is_empty() {
                    Value::Null
                } else {
                    Value::Object(active.fields)
                },
            };
            scope.collector.record(event);
        });
    }
}

/// Opens a traced span named `name`, returning its RAII guard.
///
/// The span nests under whichever span is currently open on this thread
/// (its `parent` field records that id). Outside an event-collecting
/// [`with_instrument`] scope this is a no-op returning an inert guard.
pub fn span(name: &str) -> SpanGuard {
    let active = ACTIVE.with(|scope_cell| {
        let mut borrow = scope_cell.borrow_mut();
        let scope = borrow.as_mut()?;
        if !scope.collector.collect_events {
            return None;
        }
        let id = scope.next_span;
        scope.next_span += 1;
        let parent = scope.span_stack.last().copied();
        let start_ns = scope.collector.now_ns();
        let mut start = Event::new(EventKind::SpanStart, name, start_ns);
        start.span = Some(id);
        start.parent = parent;
        scope.collector.record(start);
        scope.span_stack.push(id);
        Some(SpanActive {
            name: name.to_owned(),
            id,
            parent,
            start_ns,
            fields: Vec::new(),
        })
    });
    SpanGuard { active }
}

/// Emits a one-off [`EventKind::Point`] event named `name` with the given
/// deterministic fields. No-op outside an event-collecting scope.
pub fn point(name: &str, fields: Vec<(String, Value)>) {
    ACTIVE.with(|scope_cell| {
        let borrow = scope_cell.borrow();
        let Some(scope) = borrow.as_ref() else {
            return;
        };
        if !scope.collector.collect_events {
            return;
        }
        let mut event = Event::new(EventKind::Point, name, scope.collector.now_ns());
        event.parent = scope.span_stack.last().copied();
        event.fields = if fields.is_empty() {
            Value::Null
        } else {
            Value::Object(fields)
        };
        scope.collector.record(event);
    });
}

/// The sink of a [`with_instrument`] scope: buffers events in memory
/// (when built [`with_events`](Collector::with_events)) and owns a
/// [`MetricsRegistry`], with timestamps anchored to its creation instant.
///
/// The campaign engine installs one `Collector` per run (on the worker
/// thread executing that run), which is why per-run metrics and event
/// streams never interleave across `--jobs` workers.
pub struct Collector {
    clock: Instant,
    collect_events: bool,
    events: Mutex<Vec<Event>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("collect_events", &self.collect_events)
            .field("events", &self.events.lock().len())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// A metrics-only collector: spans are free, no events are buffered.
    pub fn new() -> Arc<Collector> {
        Collector::build(false)
    }

    /// A collector that additionally buffers every span/point event.
    pub fn with_events() -> Arc<Collector> {
        Collector::build(true)
    }

    fn build(collect_events: bool) -> Arc<Collector> {
        Arc::new(Collector {
            clock: Instant::now(),
            collect_events,
            events: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        })
    }

    /// A deterministic snapshot of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Takes the buffered events, leaving the buffer empty.
    pub fn drain_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }

    /// Buffers one event (called only when `collect_events` is set).
    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }

    /// Monotonic nanoseconds since the collector's creation instant.
    fn now_ns(&self) -> u64 {
        let elapsed = self.clock.elapsed().as_nanos();
        u64::try_from(elapsed).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_no_ops_without_a_scope() {
        assert!(!active());
        count("orphan", 1);
        observe("orphan", 1);
        let mut guard = span("orphan");
        guard.u64_field("ignored", 1);
        drop(guard); // Nothing panics, nothing is recorded anywhere.
    }

    #[test]
    fn metrics_flow_to_the_installed_collector() {
        let collector = Collector::new();
        with_instrument(collector.clone(), || {
            count("demo.launches", 2);
            count("demo.launches", 3);
            gauge("demo.spend", 1.25);
            observe("demo.latency", 128);
        });
        let snapshot = collector.snapshot();
        assert_eq!(snapshot.counters["demo.launches"], 5);
        assert!((snapshot.gauges["demo.spend"] - 1.25).abs() < 1e-12);
        assert_eq!(snapshot.histograms["demo.latency"].count, 1);
        // Metrics-only collectors never buffer events.
        with_instrument(collector.clone(), || drop(span("demo.span")));
        assert!(collector.drain_events().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_durations() {
        let collector = Collector::with_events();
        with_instrument(collector.clone(), || {
            let mut outer = span("outer");
            outer.u64_field("n", 7);
            {
                let _inner = span("inner");
            }
            drop(outer);
        });
        let events = collector.drain_events();
        let names: Vec<(&str, EventKind)> =
            events.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", EventKind::SpanStart),
                ("inner", EventKind::SpanStart),
                ("inner", EventKind::SpanEnd),
                ("outer", EventKind::SpanEnd),
            ]
        );
        let inner_start = &events[1];
        assert_eq!(inner_start.parent, events[0].span);
        let outer_end = &events[3];
        assert!(outer_end.dur_ns.is_some());
        assert_eq!(outer_end.fields.get("n").and_then(Value::as_u64), Some(7));
        // Timestamps are non-decreasing in emission order.
        for pair in events.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }

    #[test]
    fn scopes_restore_the_previous_instrument() {
        let outer = Collector::new();
        let inner = Collector::new();
        with_instrument(outer.clone(), || {
            count("depth", 1);
            with_instrument(inner.clone(), || count("depth", 10));
            count("depth", 1);
        });
        assert_eq!(outer.snapshot().counters["depth"], 2);
        assert_eq!(inner.snapshot().counters["depth"], 10);
    }

    #[test]
    fn a_panic_does_not_leak_the_scope() {
        let collector = Collector::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_instrument(collector.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!active());
    }

    #[test]
    fn point_events_attach_to_the_open_span() {
        let collector = Collector::with_events();
        with_instrument(collector.clone(), || {
            let _guard = span("stage");
            point("decision", vec![("surplus".to_owned(), Value::I64(3))]);
        });
        let events = collector.drain_events();
        assert_eq!(events[1].kind, EventKind::Point);
        assert_eq!(events[1].parent, events[0].span);
    }
}
