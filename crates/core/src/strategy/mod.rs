//! Instance launching strategies (Section 5.2).
//!
//! * [`naive`] — Strategy 1: launch thousands of instances from cold
//!   services and hope. Fails whenever the attacker's and victim's base
//!   hosts differ.
//! * [`optimized`] — Strategy 2: prime services into a high-demand state
//!   with repeated large launches at a ~10-minute interval, spreading the
//!   attacker across helper hosts.
//! * [`explore`] — the cluster-size estimation campaign (Figure 12):
//!   many services from several accounts, each primed, to enumerate the
//!   data center's serving pool.
//! * [`multi_account`] — the Section 5.2 optimization of attacking from
//!   several accounts (and the new-account quota wall that limits it).
//! * [`repeat`] — fingerprint-guided repeated attacks on the same victim:
//!   record the victim's hosts once, focus the extraction fleet later.

pub mod explore;
pub mod multi_account;
pub mod naive;
pub mod optimized;
pub mod repeat;

use eaao_cloudsim::ids::{InstanceId, ServiceId};
use eaao_cloudsim::pricing::Cost;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

pub use explore::{ClusterExplorer, ExplorationReport};
pub use multi_account::MultiAccountLaunch;
pub use naive::NaiveLaunch;
pub use optimized::OptimizedLaunch;
pub use repeat::{RepeatAttackOutcome, RepeatedAttack, VictimHostRecord};

/// What a strategy run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyReport {
    /// The services the strategy deployed.
    pub services: Vec<ServiceId>,
    /// Attacker instances still alive (connected) at the end of the run.
    pub live_instances: Vec<InstanceId>,
    /// Distinct hosts those instances occupy (ground truth).
    pub hosts_occupied: usize,
    /// Total launches issued.
    pub launches: usize,
    /// Billed cost of the run.
    pub cost: Cost,
    /// Wall time of the run.
    pub wall: SimDuration,
}

impl StrategyReport {
    /// Instances per occupied host, on average.
    pub fn mean_density(&self) -> f64 {
        if self.hosts_occupied == 0 {
            0.0
        } else {
            self.live_instances.len() as f64 / self.hosts_occupied as f64
        }
    }
}

/// Annotates a strategy span with the report's headline numbers and feeds
/// the shared counters every launching strategy reports.
pub(crate) fn note_strategy_report(span: &mut eaao_obs::SpanGuard, report: &StrategyReport) {
    span.u64_field("hosts_occupied", report.hosts_occupied as u64);
    span.u64_field("launches", report.launches as u64);
    span.u64_field("live_instances", report.live_instances.len() as u64);
    eaao_obs::count("strategy.launches", report.launches as u64);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "round() fixes the micro-dollar rule for a non-negative spend far below 2^64"
    )]
    eaao_obs::count(
        "strategy.spend_microusd",
        (report.cost.as_usd() * 1e6).round() as u64,
    );
    eaao_obs::observe("strategy.hosts_occupied", report.hosts_occupied as u64);
}
