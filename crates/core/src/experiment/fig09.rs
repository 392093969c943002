//! Figure 9 — helper hosts under short launch intervals (Experiment 4,
//! Observation 5).
//!
//! Repeating the 800-instance launch every 10 minutes keeps the service
//! inside the ~30-minute demand window, so the load balancer spreads
//! instances onto helper hosts: both the per-launch and the cumulative
//! apparent-host counts grow sharply before saturating. With a 2-minute
//! interval almost every instance is reused warm and only a dozen new
//! hosts appear; with 45-minute gaps (Figure 7) no helpers appear at all.

use std::collections::BTreeSet;

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::series::Series;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::apparent_hosts;
use crate::experiment::fig04::region_config;
use crate::fingerprint::{Gen1Fingerprint, Gen1Fingerprinter};

/// Configuration for the Figure 9 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09Config {
    /// Region to measure.
    pub region: String,
    /// Launches of the service.
    pub launches: usize,
    /// Instances per launch.
    pub instances: usize,
    /// Gap between launches.
    pub interval: SimDuration,
}

impl Default for Fig09Config {
    fn default() -> Self {
        Fig09Config {
            region: "us-east1".to_owned(),
            launches: 6,
            instances: 800,
            interval: SimDuration::from_mins(10),
        }
    }
}

impl Fig09Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig09Config {
            region: "us-west1".to_owned(),
            instances: 300,
            ..Fig09Config::default()
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Fig09Result {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let fingerprinter = Gen1Fingerprinter::default();

        let mut per_launch = Series::new("apparent hosts");
        let mut cumulative = Series::new("cumulative apparent hosts");
        let mut seen: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
        for launch_id in 1..=self.launches {
            let launch = world.launch(service, self.instances).expect("within caps");
            let hosts = apparent_hosts(&mut world, launch.instances(), &fingerprinter);
            per_launch.push(launch_id as f64, hosts.len() as f64);
            seen.extend(hosts);
            cumulative.push(launch_id as f64, seen.len() as f64);
            world.disconnect_all(service);
            world.advance(self.interval);
        }
        Fig09Result {
            region: self.region.clone(),
            interval: self.interval,
            per_launch,
            cumulative,
        }
    }
}

/// The Figure 9 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig09Result {
    /// Region measured.
    pub region: String,
    /// Launch interval used.
    pub interval: SimDuration,
    /// Apparent hosts per launch.
    pub per_launch: Series,
    /// Cumulative apparent hosts.
    pub cumulative: Series,
}

impl Fig09Result {
    /// Apparent hosts gained after the first launch (the paper reports
    /// 177 more at 10-minute intervals, ~12 at 2-minute intervals).
    ///
    /// # Panics
    ///
    /// Panics if the experiment ran zero launches.
    pub fn extra_hosts(&self) -> f64 {
        let ys = self.cumulative.ys();
        ys.last().expect("non-empty") - ys.first().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_minute_interval_grows_the_footprint() {
        let result = Fig09Config::quick().run(51);
        let first = result.per_launch.ys()[0];
        // Drastic growth relative to the base footprint.
        assert!(
            result.extra_hosts() > first,
            "extra {} on a {first}-host base",
            result.extra_hosts()
        );
        // Per-launch footprint tracks the cumulative curve (the load
        // balancer spreads each hot launch across base + helpers).
        let last_per_launch = *result.per_launch.ys().last().unwrap();
        let last_cumulative = *result.cumulative.ys().last().unwrap();
        assert!(
            last_per_launch > 0.7 * last_cumulative,
            "per-launch {last_per_launch} vs cumulative {last_cumulative}"
        );
    }

    #[test]
    fn growth_saturates() {
        let result = Fig09Config::quick().run(52);
        let ys = result.cumulative.ys();
        let early = ys[2] - ys[0];
        let late = ys[5] - ys[3];
        assert!(
            late < early,
            "helper exploration should decay: early {early}, late {late}"
        );
    }

    #[test]
    fn two_minute_interval_barely_explores() {
        let slow = Fig09Config::quick().run(53);
        let fast = Fig09Config {
            interval: SimDuration::from_mins(2),
            ..Fig09Config::quick()
        }
        .run(53);
        assert!(
            fast.extra_hosts() < slow.extra_hosts() / 3.0,
            "2-min interval grew {} vs {} at 10 min",
            fast.extra_hosts(),
            slow.extra_hosts()
        );
    }
}
