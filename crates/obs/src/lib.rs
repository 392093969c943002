//! Structured observability for the EAAO reproduction: span-scoped
//! tracing, a deterministic metrics registry, and profiling hooks.
//!
//! The paper's attack pipeline ("Everywhere All at Once: Co-Location
//! Attacks on Public Cloud FaaS", ASPLOS 2024) is a chain of timed,
//! stochastic stages — fingerprint collection (§4.1), hierarchical CTest
//! verification (§5), and the launch-strategy probes (§5.2, §6). This
//! crate is the measurement substrate that makes those stages visible:
//! the orchestrator, cloud simulator, experiment drivers, and campaign
//! engine all emit into it, and the `eaao --trace` / `eaao trace`
//! surfaces read it back.
//!
//! # Architecture
//!
//! * [`event`] — the versioned JSONL [`Event`] schema written to trace
//!   files.
//! * [`metrics`] — counters, gauges, and fixed-bucket log-scale
//!   [`Histogram`]s whose serialized [`MetricsSnapshot`] is deterministic
//!   (independent of thread interleaving and `--jobs`).
//! * [`instrument`] — the [`Collector`] sink, the thread-local
//!   [`with_instrument`] dispatch, and RAII [`SpanGuard`]s.
//! * [`trace`] — the on-disk [`TraceWriter`] and the [`TraceSummary`]
//!   aggregator behind `eaao trace`.
//!
//! # Determinism contract
//!
//! Two kinds of data flow through this crate, with different guarantees:
//!
//! 1. **Metrics** are fed only deterministic quantities (simulated time,
//!    counts, simulated spend). A run's [`MetricsSnapshot`] — embedded in
//!    campaign records — is byte-identical across `--jobs` values and
//!    across tracing on/off.
//! 2. **Events** carry wall-clock timestamps (`t_ns`, `dur_ns`) and are
//!    written to a *separate* `--trace` file. They are the trace-side
//!    analogue of a record's `wall_ms`: the only nondeterministic output.
//!
//! # Example
//!
//! ```
//! use eaao_obs::{count, observe, span, with_instrument, Collector};
//!
//! let collector = Collector::with_events();
//! let snapshot = with_instrument(collector.clone(), || {
//!     let mut stage = span("demo.stage");
//!     stage.u64_field("items", 3);
//!     count("demo.items", 3);
//!     observe("demo.sim_ns", 1_500);
//!     collector.snapshot()
//! });
//! assert_eq!(snapshot.counters["demo.items"], 3);
//! assert_eq!(snapshot.histograms["demo.sim_ns"].p50, 1_500);
//! // One span_start + one span_end were buffered for the trace file.
//! assert_eq!(collector.drain_events().len(), 2);
//! ```
//!
//! Instrumented code is observability-agnostic: outside a
//! [`with_instrument`] scope every hook is a cheap no-op, so library
//! users who never ask for metrics pay almost nothing.

pub mod event;
pub mod instrument;
pub mod metrics;
pub mod scrape;
pub mod trace;

pub use event::{Event, EventKind, SCHEMA_VERSION};
pub use instrument::{
    active, count, gauge, observe, point, span, with_instrument, Collector, SpanGuard,
};
pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use scrape::{render, render_with_labels};
pub use trace::{SpanStats, TraceSummary, TraceWriter};

/// The commonly used surface in one import.
pub mod prelude {
    pub use crate::event::{Event, EventKind};
    pub use crate::instrument::{
        count, gauge, observe, point, span, with_instrument, Collector, SpanGuard,
    };
    pub use crate::metrics::{MetricsRegistry, MetricsSnapshot};
    pub use crate::scrape::{render, render_with_labels};
    pub use crate::trace::{TraceSummary, TraceWriter};
}
