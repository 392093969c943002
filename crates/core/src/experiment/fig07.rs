//! Figure 7 — base hosts across launches (Experiment 2, Observation 3).
//!
//! Launch 800 instances of one service six times with 45-minute gaps (so
//! every launch starts from a cold service). Each launch occupies a similar
//! number of *apparent hosts* and the cumulative footprint barely grows:
//! the orchestrator prefers a per-account set of base hosts.

use std::collections::BTreeSet;

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::series::Series;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::apparent_hosts;
use crate::experiment::fig04::region_config;
use crate::fingerprint::{Gen1Fingerprint, Gen1Fingerprinter};

/// Configuration for the Figure 7 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig07Config {
    /// Region to measure.
    pub region: String,
    /// Launches of the service.
    pub launches: usize,
    /// Instances per launch.
    pub instances: usize,
    /// Gap between launches (45 min ⇒ cold service each time).
    pub interval: SimDuration,
    /// Use a freshly built service (new image) for every launch — the
    /// paper's test of the image-locality hypothesis.
    pub fresh_service_per_launch: bool,
}

impl Default for Fig07Config {
    fn default() -> Self {
        Fig07Config {
            region: "us-east1".to_owned(),
            launches: 6,
            instances: 800,
            interval: SimDuration::from_mins(45),
            fresh_service_per_launch: false,
        }
    }
}

impl Fig07Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig07Config {
            region: "us-west1".to_owned(),
            instances: 200,
            ..Fig07Config::default()
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Fig07Result {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();
        let spec = ServiceSpec::default().with_max_instances(1_000);
        let fingerprinter = Gen1Fingerprinter::default();
        let mut service = world.deploy_service(account, spec);

        let mut per_launch = Series::new("apparent hosts");
        let mut cumulative = Series::new("cumulative apparent hosts");
        let mut seen: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
        for launch_id in 1..=self.launches {
            if self.fresh_service_per_launch && launch_id > 1 {
                service = world.deploy_service(account, spec);
                world.rebuild_image(service);
            }
            let launch = world.launch(service, self.instances).expect("within caps");
            let hosts = apparent_hosts(&mut world, launch.instances(), &fingerprinter);
            per_launch.push(launch_id as f64, hosts.len() as f64);
            seen.extend(hosts);
            cumulative.push(launch_id as f64, seen.len() as f64);
            world.disconnect_all(service);
            world.advance(self.interval);
        }
        Fig07Result {
            region: self.region.clone(),
            per_launch,
            cumulative,
        }
    }
}

/// The Figure 7 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig07Result {
    /// Region measured.
    pub region: String,
    /// Apparent hosts per launch.
    pub per_launch: Series,
    /// Cumulative apparent hosts.
    pub cumulative: Series,
}

impl Fig07Result {
    /// Growth of the cumulative footprint beyond the first launch.
    ///
    /// # Panics
    ///
    /// Panics if the experiment ran zero launches.
    pub fn footprint_growth(&self) -> f64 {
        let ys = self.cumulative.ys();
        ys.last().expect("non-empty") - ys.first().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_launches_reuse_base_hosts() {
        let result = Fig07Config::quick().run(31);
        let first = result.per_launch.ys()[0];
        // Growth is minimal relative to a single launch's footprint.
        assert!(
            result.footprint_growth() < first * 0.5,
            "cumulative grew by {} on a {}-host launch",
            result.footprint_growth(),
            first
        );
        // Each launch occupies a similar number of hosts.
        for &y in result.per_launch.ys().iter() {
            assert!(
                (y - first).abs() <= first * 0.2,
                "launch size {y} vs {first}"
            );
        }
    }

    #[test]
    fn fresh_services_show_the_same_pattern() {
        // The paper rebuilds images to rule out image-locality; the pattern
        // persists because base hosts are account-level.
        let mut config = Fig07Config::quick();
        config.fresh_service_per_launch = true;
        let result = config.run(32);
        let first = result.per_launch.ys()[0];
        assert!(
            result.footprint_growth() < first * 0.5,
            "fresh services grew the footprint by {}",
            result.footprint_growth()
        );
    }
}
