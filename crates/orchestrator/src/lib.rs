//! Cloud-Run-like FaaS orchestrator for the EAAO reproduction.
//!
//! This crate implements the platform behaviours the paper reverse-engineers
//! in Section 5.1 and the simulation [`World`] that experiments drive:
//!
//! * [`config`] — region presets (us-east1 / us-central1 / us-west1) and
//!   the placement tunables behind Observations 1–6.
//! * [`autoscaler`] — request-driven scale-out/scale-in decisions
//!   (Section 2.2).
//! * [`demand`] — the ~30-minute per-service demand window (Observation 5).
//! * [`engine`] — pluggable sampling/capacity backends; the optimized
//!   engine keeps an incremental free-capacity index and Fenwick samplers.
//! * [`occupancy`] — host residency (which live instance runs where), the
//!   ground truth the capacity index mirrors.
//! * [`placement`] — base hosts per account (scheduling cells), helper-host
//!   exploration under load, near-uniform spreading, dynamic placement.
//! * [`platform`] — the [`PlatformPolicy`] enum: the CloudRun policy
//!   plus Lambda-like (partitioned bin-packing) and Azure-like
//!   (reuse-biased, long keep-alive) schedulers, swept as the campaign
//!   `platform` axis (see `docs/PLATFORMS.md`).
//! * [`world`] — accounts, services, launches, the idle reaper (Figure 6),
//!   covert-channel plumbing, billing, and churn.
//! * [`error`] — launch and guest error types.
//!
//! Paper-section map: [`placement`] encodes §5.1 Observations 1–6 (base
//! hosts, helper hosts, spreading), [`autoscaler`] and [`demand`] the §2.2
//! scaling behaviour, [`world`] the end-to-end platform the §5.2
//! strategies attack and the §4.3 verification channels (plus the Close
//! Talker `/lock`–`/check` channel — PAPERS.md, arxiv 2512.10361), and
//! [`platform`] the cross-platform policy families of the related work
//! (Close Talker's Lambda/Azure sections; Placement Vulnerability Study).
//!
//! The [`World`] is instrumented with `eaao-obs`: launches, autoscaler
//! decisions, churn, covert-channel tests, and billed spend surface as
//! spans (`world.launch`, `world.ctest`, …) and deterministic metrics
//! (`orchestrator.*`, `world.*`, `autoscaler.*` — see
//! `docs/OBSERVABILITY.md`).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod autoscaler;
pub mod config;
pub mod demand;
pub mod engine;
pub mod error;
mod instances;
pub mod occupancy;
pub mod placement;
pub mod platform;
pub mod world;

pub use config::{PlacementConfig, RegionConfig};
pub use engine::{CapacityIndex, Engine, OptimizedEngine};
pub use error::{GuestError, LaunchError};
pub use occupancy::Occupancy;
pub use platform::{AzureLikePolicy, KeepAlive, LambdaLikePolicy, PlatformKind, PlatformPolicy};
pub use world::{Launch, World};

/// Convenient glob import of the orchestrator types.
pub mod prelude {
    pub use crate::autoscaler::{decide as autoscale_decide, ScaleAction};
    pub use crate::config::{PlacementConfig, RegionConfig};
    pub use crate::demand::DemandWindow;
    pub use crate::engine::{CapacityIndex, Engine, OptimizedEngine};
    pub use crate::error::{GuestError, LaunchError};
    pub use crate::occupancy::Occupancy;
    pub use crate::placement::CloudRunPolicy;
    pub use crate::platform::{
        AzureLikePolicy, KeepAlive, LambdaLikePolicy, PlatformKind, PlatformPolicy,
    };
    pub use crate::world::{Launch, World, CTEST_ROUND_DURATION};
}
