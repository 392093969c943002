//! Differential oracle for the placement/launch hot path.
//!
//! The production [`OptimizedEngine`] answers the orchestrator's two hot
//! questions — *pick a host weighted by popularity* and *how much capacity
//! is free* — with a Fenwick-tree sampler and an incrementally maintained
//! free-slot index. This crate keeps the **naive reference
//! implementations** those structures replaced:
//!
//! * [`reference::LinearSampler`] — O(n) linear-scan weighted sampling,
//! * [`reference::ScanCapacity`] — full-scan capacity lookups with a
//!   per-plan overlay recomputed from the data center every time,
//!
//! bundled as [`ReferenceEngine`]. Because `World` and `CloudRunPolicy`
//! are generic over the engine and share *all* control flow, two worlds
//! built from the same `(region, seed)` on different engines consume
//! identical RNG streams — so their entire trajectories (placements,
//! billing, reap times, the JSONL transcript bytes) must be identical.
//! Any divergence is a bookkeeping bug in one backend, and the proptest
//! suites in `tests/` hunt for one by driving randomized
//! launch/load/churn/advance schedules through both engines.
//!
//! The vendored `proptest` stand-in generates but does not shrink, so
//! [`minimize`] provides greedy counterexample minimization: failing
//! schedules are re-run under op deletion and magnitude shrinking until
//! 1-minimal, and the *minimized* schedule is what a failing test prints.
//! `docs/TESTING.md` explains how to replay one.
//!
//! [`OptimizedEngine`]: eaao_orchestrator::engine::OptimizedEngine
//! [`minimize`]: minimize::minimize

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod minimize;
pub mod reference;
pub mod schedule;
pub mod strategies;

pub use reference::ReferenceEngine;
pub use schedule::{check, run, Divergence, Op, Schedule, Trajectory};
