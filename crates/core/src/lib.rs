//! The EAAO attack toolkit — the paper's primary contribution.
//!
//! Everything the attacker runs, end to end. Each module maps to a section
//! of *"Everywhere All at Once"* (ASPLOS 2024):
//!
//! | Module | Paper section |
//! |---|---|
//! | [`probe`] | §4.1 — the in-container payload gathering `cpuid`, `rdtsc`, wall-clock pairs, and `tsc_khz` |
//! | [`fingerprint`] | §4.1 (Gen 1: model + rounded boot time), §4.5 (Gen 2: refined TSC frequency) |
//! | [`expiry`] | §4.2 — drift tracking and fingerprint expiration estimation (Figure 5) |
//! | [`verify`] | §4.3–4.4 — scalable co-location verification ([`verify::hierarchical`]) over pluggable channels ([`verify::VerifierChannel`]: the RNG unit, or the Close Talker `/lock`–`/check` bus — PAPERS.md, arxiv 2512.10361), plus the pairwise and SIE baselines |
//! | [`cluster`] | §4.4 — co-location cluster bookkeeping |
//! | [`metrics`] | §4.1 — precision / recall / Fowlkes–Mallows accuracy over instance pairs (Figure 4) |
//! | [`coverage`] | §5.2 — victim instance coverage measurement (Figure 11) |
//! | [`scenario`] | §5 — a builder for attacker-vs-victim setups |
//! | [`strategy`] | §5.2 — [`strategy::naive`] (Strategy 1), [`strategy::optimized`] (Strategy 2), [`strategy::explore`] (Figure 12) |
//! | [`experiment`] | one driver per paper figure/table, run by the campaign registry's rows and shared with tests and benches |
//!
//! Long-running entry points ([`verify::HierarchicalVerifier::verify`],
//! the strategies, [`probe::probe_fleet`]) are instrumented with
//! `eaao-obs` spans and counters; run `eaao repro` or `eaao campaign`
//! with `--trace FILE` to watch them (see `docs/OBSERVABILITY.md`).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod cluster;
pub mod coverage;
pub mod experiment;
pub mod expiry;
pub mod fingerprint;
pub mod metrics;
pub mod probe;
pub mod scenario;
pub mod strategy;
pub mod verify;

pub use coverage::CoverageReport;
pub use fingerprint::{Gen1Fingerprint, Gen1Fingerprinter, Gen2Fingerprint};
pub use metrics::PairConfusion;
pub use probe::ProbeReading;
pub use verify::HierarchicalVerifier;

/// Convenient glob import of the attack toolkit.
pub mod prelude {
    pub use crate::cluster::CoLocationForest;
    pub use crate::coverage::{measure_coverage, measure_coverage_verified, CoverageReport};
    pub use crate::expiry::{DriftStudy, FingerprintHistory};
    pub use crate::fingerprint::{
        group_by_fingerprint, Gen1Fingerprint, Gen1Fingerprinter, Gen2Fingerprint,
    };
    pub use crate::metrics::PairConfusion;
    pub use crate::probe::{probe_fleet, probe_instance, ProbeReading};
    pub use crate::scenario::{Arena, Scenario};
    pub use crate::strategy::{
        ClusterExplorer, ExplorationReport, MultiAccountLaunch, NaiveLaunch, OptimizedLaunch,
        RepeatAttackOutcome, RepeatedAttack, StrategyReport, VictimHostRecord,
    };
    pub use crate::verify::{
        ctest, ctest_via, pair_count, pairwise_verify, single_instance_elimination, CTestConfig,
        HierarchicalVerifier, PairwiseChannel, VerificationOutcome, VerifierChannel, VerifierStats,
    };
}
