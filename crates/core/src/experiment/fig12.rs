//! Figure 12 — cluster-size estimation (Section 5.2).
//!
//! Three accounts deploy eight services each; every service is primed with
//! four 800-instance launches. The cumulative number of unique apparent
//! hosts flattens out; its final value estimates the region's serving-pool
//! size (paper: 474 in us-east1, 1702 in us-central1, 199 in us-west1).

use eaao_orchestrator::world::World;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::strategy::{ClusterExplorer, ExplorationReport};

/// Configuration for the Figure 12 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Config {
    /// Regions to explore.
    pub regions: Vec<String>,
    /// The exploration campaign parameters.
    pub explorer: ClusterExplorer,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config {
            regions: vec![
                "us-east1".to_owned(),
                "us-central1".to_owned(),
                "us-west1".to_owned(),
            ],
            explorer: ClusterExplorer::default(),
        }
    }
}

impl Fig12Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig12Config {
            regions: vec!["us-west1".to_owned()],
            explorer: ClusterExplorer {
                accounts: 2,
                services_per_account: 3,
                launches_per_service: 3,
                instances_per_launch: 400,
                ..ClusterExplorer::default()
            },
        }
    }

    /// Runs the exploration in every configured region.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Fig12Result {
        let per_region = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, region)| {
                let mut world =
                    World::new(region_config(region), seed.wrapping_add(i as u64 * 101));
                let report = self.explorer.run(&mut world).expect("within caps");
                (region.clone(), report)
            })
            .collect();
        Fig12Result { per_region }
    }
}

/// The Figure 12 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Result {
    /// Exploration report per region.
    pub per_region: Vec<(String, ExplorationReport)>,
}

impl Fig12Result {
    /// The estimated pool size for a region, if it was explored.
    pub fn estimate_for(&self, region: &str) -> Option<usize> {
        self.per_region
            .iter()
            .find(|(name, _)| name == region)
            .map(|(_, r)| r.estimated_hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_track_region_sizes() {
        let result = Fig12Config::quick().run(81);
        let west = result.estimate_for("us-west1").expect("explored");
        // us-west1 is a ~205-host pool; exploration finds most of it.
        assert!((150..=215).contains(&west), "estimate {west}");
        assert!(result.estimate_for("us-east1").is_none());
    }

    #[test]
    fn growth_flattens_in_every_region() {
        let result = Fig12Config::quick().run(82);
        for (region, report) in &result.per_region {
            let ys = report.cumulative.ys();
            let n = ys.len();
            let early = ys[n / 2] - ys[0];
            let late = ys[n - 1] - ys[n / 2];
            assert!(late <= early, "{region}: early {early}, late {late}");
        }
    }
}
