//! Figure 5 — CDF of the estimated fingerprint expiration time
//! (Section 4.4.2).
//!
//! Keep ~50 long-running instances connected for a week, fingerprint their
//! hosts hourly, and fit each host's derived boot time against measurement
//! time. Instances that the platform churns onto new hosts end their
//! history (conservatively treated as a different host); histories under
//! 24 h are filtered out. The fit is extrapolated to the next rounding
//! boundary: the fingerprint's expiration time.

use eaao_cloudsim::ids::{InstanceId, ServiceId};
use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::stats::Ecdf;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::expiry::{DriftStudy, FingerprintHistory};
use crate::fingerprint::Gen1Fingerprinter;
use crate::probe::probe_instance;

/// Configuration for the Figure 5 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Config {
    /// Region to measure.
    pub region: String,
    /// Accounts to spread the tracked instances over. One account's
    /// instances concentrate on a handful of base hosts; several accounts
    /// widen the host sample the CDF is built from.
    pub accounts: usize,
    /// Long-running instances to track (split across the accounts).
    pub instances: usize,
    /// Campaign length.
    pub duration: SimDuration,
    /// Sampling period.
    pub sample_every: SimDuration,
    /// Minimum history span to keep (the paper: 24 h).
    pub min_span: SimDuration,
    /// Rounding precision whose boundary defines expiration.
    pub p_boot: SimDuration,
}

impl Default for Fig05Config {
    fn default() -> Self {
        Fig05Config {
            region: "us-east1".to_owned(),
            accounts: 5,
            instances: 50,
            duration: SimDuration::from_days(7),
            sample_every: SimDuration::from_hours(1),
            min_span: SimDuration::from_hours(24),
            p_boot: SimDuration::from_secs(1),
        }
    }
}

impl Fig05Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig05Config {
            region: "us-west1".to_owned(),
            accounts: 4,
            instances: 40,
            duration: SimDuration::from_days(3),
            sample_every: SimDuration::from_hours(2),
            min_span: SimDuration::from_hours(24),
            p_boot: SimDuration::from_secs(1),
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if the launch fails.
    pub fn run(&self, seed: u64) -> Fig05Result {
        let mut world = World::new(region_config(&self.region), seed);
        world.enable_instance_churn(true);
        let fingerprinter = Gen1Fingerprinter::new(self.p_boot);

        // One tracked "connection slot" per requested instance, spread
        // across several accounts (and thus base-host sets). Expiration
        // times cluster per host, so each account launches a full fleet
        // and one instance per distinct host is tracked. When the platform
        // churns an instance, its slot reconnects to a fresh one and
        // starts a new history.
        let mut slots: Vec<(ServiceId, InstanceId, FingerprintHistory)> = Vec::new();
        let mut seen_hosts = std::collections::BTreeSet::new();
        for _ in 0..self.accounts.max(1) {
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let launch = world.launch(service, self.instances).expect("within caps");
            for &id in launch.instances() {
                if slots.len() < self.instances && seen_hosts.insert(world.host_of(id)) {
                    slots.push((service, id, FingerprintHistory::new()));
                }
            }
        }
        let mut finished: Vec<FingerprintHistory> = Vec::new();

        let steps = self.duration.div_duration(self.sample_every);
        for _ in 0..steps {
            for (service, id, history) in &mut slots {
                match probe_instance(&mut world, *id) {
                    Ok(reading) => {
                        if let Some(boot) = fingerprinter.raw_boot_time(&reading) {
                            history.record(world.now(), boot);
                        }
                    }
                    Err(_) => {
                        // Churned: close the history, reconnect.
                        finished.push(std::mem::take(history));
                        if let Ok(relaunch) = world.launch(*service, 1) {
                            *id = relaunch.instances()[0];
                        }
                    }
                }
            }
            world.advance(self.sample_every);
        }
        finished.extend(slots.into_iter().map(|(_, _, h)| h));

        let study = DriftStudy::from_histories(finished, self.min_span);
        let min_abs_r = study.min_abs_r().unwrap_or(0.0);
        let expiration_days = study.expiration_days(self.p_boot);
        let histories_kept = study.histories.len();
        let filtered_out = study.filtered_out;
        Fig05Result {
            region: self.region.clone(),
            histories_kept,
            filtered_out,
            min_abs_r,
            expiration_days,
        }
    }
}

/// The Figure 5 result for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig05Result {
    /// Region measured.
    pub region: String,
    /// Histories spanning at least the filter (paper: 66/67/79).
    pub histories_kept: usize,
    /// Histories discarded as too short.
    pub filtered_out: usize,
    /// Minimum |r| across the linear fits (paper: 0.9997).
    pub min_abs_r: f64,
    /// Estimated expiration time per history, in days.
    pub expiration_days: Vec<f64>,
}

impl Fig05Result {
    /// The empirical CDF of expiration times. Histories whose fingerprint
    /// never expires are excluded (they would sit at +∞).
    pub fn cdf(&self) -> Ecdf {
        Ecdf::new(self.expiration_days.clone())
    }

    /// Fraction of *kept histories* whose fingerprint expires within
    /// `days`.
    pub fn fraction_expired_by(&self, days: f64) -> f64 {
        if self.histories_kept == 0 {
            return 0.0;
        }
        let expired = self.expiration_days.iter().filter(|&&d| d <= days).count();
        expired as f64 / self.histories_kept as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_linear_and_expirations_span_days() {
        // Pool several seeds: a quick run only touches a handful of hosts,
        // and expiration times cluster per host.
        let mut kept = 0;
        let mut expired_first_day = 0.0;
        for seed in [11, 12, 13, 14, 15] {
            let result = Fig05Config::quick().run(seed);
            assert!(
                result.min_abs_r > 0.99,
                "drift not linear: min |r| = {}",
                result.min_abs_r
            );
            expired_first_day += result.fraction_expired_by(1.0) * result.histories_kept as f64;
            kept += result.histories_kept;
        }
        assert!(kept > 25, "kept {kept}");
        // Most fingerprints last beyond a single day.
        let early = expired_first_day / kept as f64;
        assert!(early < 0.4, "{:.0}% expired within a day", early * 100.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let result = Fig05Config::quick().run(12);
        let cdf = result.cdf();
        if !cdf.is_empty() {
            let f2 = cdf.fraction_at_or_below(2.0);
            let f7 = cdf.fraction_at_or_below(7.0);
            assert!(f7 >= f2);
        }
        assert!(result.fraction_expired_by(0.0) <= result.fraction_expired_by(100.0));
    }
}
