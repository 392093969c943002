//! Figure 10 — helper-host footprints across services (Observation 6).
//!
//! Six episodes, each priming a *different* service with six 800-instance
//! launches at 10-minute intervals. An episode's helper footprint is the
//! set of apparent hosts gained after its first launch. The cumulative
//! helper footprint grows with every episode — different services receive
//! different helper sets — but by less than each episode's own footprint:
//! the sets overlap.

use std::collections::BTreeSet;

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::series::Series;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::apparent_hosts;
use crate::experiment::fig04::region_config;
use crate::fingerprint::{Gen1Fingerprint, Gen1Fingerprinter};

/// Configuration for the Figure 10 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Config {
    /// Region to measure.
    pub region: String,
    /// Episodes (distinct services).
    pub episodes: usize,
    /// Launches per episode.
    pub launches_per_episode: usize,
    /// Instances per launch.
    pub instances: usize,
    /// Gap between launches.
    pub interval: SimDuration,
    /// Cool-down between episodes (lets the previous service go cold).
    pub episode_gap: SimDuration,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            region: "us-east1".to_owned(),
            episodes: 6,
            launches_per_episode: 6,
            instances: 800,
            interval: SimDuration::from_mins(10),
            episode_gap: SimDuration::from_mins(45),
        }
    }
}

impl Fig10Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig10Config {
            region: "us-west1".to_owned(),
            episodes: 4,
            launches_per_episode: 4,
            instances: 300,
            ..Fig10Config::default()
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Fig10Result {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();
        let spec = ServiceSpec::default().with_max_instances(1_000);
        let fingerprinter = Gen1Fingerprinter::default();

        let mut per_episode = Series::new("apparent helper hosts");
        let mut cumulative = Series::new("cumulative apparent helper hosts");
        let mut all_helpers: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
        for episode in 1..=self.episodes {
            let service = world.deploy_service(account, spec);
            let mut first_footprint: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
            let mut final_footprint: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
            for launch_id in 1..=self.launches_per_episode {
                let launch = world.launch(service, self.instances).expect("within caps");
                let hosts = apparent_hosts(&mut world, launch.instances(), &fingerprinter);
                if launch_id == 1 {
                    first_footprint = hosts.clone();
                }
                final_footprint.extend(hosts);
                world.disconnect_all(service);
                world.advance(self.interval);
            }
            // Helper footprint: hosts beyond the episode's first (cold)
            // launch.
            let helpers: BTreeSet<Gen1Fingerprint> = final_footprint
                .difference(&first_footprint)
                .cloned()
                .collect();
            per_episode.push(episode as f64, helpers.len() as f64);
            all_helpers.extend(helpers);
            cumulative.push(episode as f64, all_helpers.len() as f64);
            world.advance(self.episode_gap);
        }
        Fig10Result {
            region: self.region.clone(),
            per_episode,
            cumulative,
        }
    }
}

/// The Figure 10 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Result {
    /// Region measured.
    pub region: String,
    /// Apparent helper hosts per episode.
    pub per_episode: Series,
    /// Cumulative apparent helper-host footprint.
    pub cumulative: Series,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_episode_expands_the_cumulative_footprint() {
        let result = Fig10Config::quick().run(61);
        let ys = result.cumulative.ys();
        assert!(
            ys.windows(2).all(|w| w[1] > w[0]),
            "cumulative helper footprint must keep growing: {ys:?}"
        );
    }

    #[test]
    fn helper_sets_overlap_across_services() {
        let result = Fig10Config::quick().run(62);
        let per = result.per_episode.ys();
        let cum = result.cumulative.ys();
        // After the first episode, an episode's contribution to the
        // cumulative set is smaller than its own footprint ⇒ overlap.
        let mut overlapped = false;
        for i in 1..per.len() {
            let contribution = cum[i] - cum[i - 1];
            if contribution < per[i] {
                overlapped = true;
            }
        }
        assert!(
            overlapped,
            "no overlap between helper sets: {per:?} {cum:?}"
        );
    }
}
