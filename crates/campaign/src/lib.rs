//! Batch campaign engine for the EAAO reproduction.
//!
//! A *campaign* is a declarative grid — experiments × regions × seeds ×
//! (where supported) host generations × TSC mitigations × placement
//! platforms × verification channels — executed as a batch of independent
//! simulation runs and streamed to JSONL. The engine
//! exists so the paper's headline numbers can be estimated with real
//! statistical weight (many seeds, confidence intervals) instead of one
//! run per figure, without giving up reproducibility:
//!
//! * **Determinism across parallelism.** Every run's seed is derived from
//!   `(campaign seed, run key)` via the simulator's labeled RNG forks, so
//!   `--jobs 8` and `--jobs 1` produce byte-identical results (the
//!   wall-clock `wall_ms` field aside).
//! * **Crash safety and resume.** Records are appended to
//!   `results.jsonl` *before* their append-only `manifest.jsonl` entry;
//!   `--resume` re-runs exactly the cells the manifest cannot prove
//!   finished, verifying stored records against content hashes.
//! * **Failure isolation.** A panicking experiment becomes a `"failed"`
//!   record with the panic message; it never takes the campaign down.
//!
//! Module map:
//!
//! * [`registry`] — [`EXPERIMENTS`](registry::EXPERIMENTS), one row per
//!   experiment: name, grid axes, run, text render, co-location headline.
//! * [`spec`] — [`CampaignSpec`](spec::CampaignSpec) and its expansion
//!   into [`RunSpec`](spec::RunSpec) grid cells.
//! * [`pool`] — the resident, shareable [`Executor`](pool::Executor).
//! * [`runner`] — one-cell execution: seed derivation, the row's run,
//!   panic capture, [`RunRecord`](runner::RunRecord).
//! * [`sink`] — the JSONL streams and the resume manifest.
//! * [`engine`] — [`Campaign`](engine::Campaign), tying it together.
//! * [`aggregate`] — co-location probability estimates with confidence
//!   intervals across completed runs, plus
//!   [`merged_metrics`](aggregate::merged_metrics) folding every run's
//!   observability snapshot into one campaign-wide view.
//!
//! Every run executes under a private `eaao-obs` collector: its
//! deterministic metrics land in the record's `metrics` field (and in
//! `campaign.json`), and — with [`Campaign::trace`](engine::Campaign::trace)
//! — its span events stream to a JSONL trace file next to
//! `results.jsonl`. Tracing never perturbs results: `results.jsonl` is
//! byte-identical with tracing on or off (see `docs/OBSERVABILITY.md`).

#![cfg_attr(
    not(test),
    warn(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

pub mod aggregate;
pub mod engine;
pub mod pool;
pub mod registry;
pub mod runner;
pub mod sink;
pub mod spec;

/// Convenient single-import surface.
pub mod prelude {
    pub use crate::aggregate::{
        colocation_by_group, colocation_probability, merged_metrics, Estimate,
    };
    pub use crate::engine::{Campaign, CampaignError, CampaignReport};
    pub use crate::pool::Executor;
    pub use crate::registry::{Experiment, EXPERIMENTS};
    pub use crate::runner::{derive_seed, execute, execute_traced, RunRecord, WALL_FIELD};
    pub use crate::sink::{JsonlSink, ManifestEntry, PriorRuns, RecordSink};
    pub use crate::spec::{CampaignSpec, RunSpec, SpecError};
}
