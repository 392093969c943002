//! Section 4.3 — verification cost: hierarchical vs pairwise.
//!
//! Verifying the co-location of 800 instances pairwise needs 319,600
//! serialized tests — about 8.9 hours and $645 at an optimistic 100 ms per
//! test. The paper's hierarchical methodology finishes in ~1–2 minutes for
//! ~$1–3. This driver runs both campaigns on the same fleet and reports
//! the side-by-side rows.

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::experiment::{gen1_groups, PROBE_GAP};
use crate::probe::probe_fleet;
use crate::verify::hierarchical::HierarchicalVerifier;
use crate::verify::pairwise::{pair_count, pairwise_verify, PairwiseChannel};

/// One method's campaign summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Covert-channel tests executed.
    pub tests: usize,
    /// Wall time, in seconds.
    pub wall_s: f64,
    /// Cost, in USD.
    pub cost_usd: f64,
    /// Clusters found.
    pub clusters: usize,
}

/// Configuration for the Section 4.3 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec43Config {
    /// Region to measure.
    pub region: String,
    /// Instances to verify (paper: 800 ⇒ 319,600 pairs).
    pub instances: usize,
    /// Whether to actually execute the pairwise campaign (`false` computes
    /// its cost analytically — the full campaign is hours of simulated
    /// time but also millions of RNG draws).
    pub execute_pairwise: bool,
}

impl Default for Sec43Config {
    fn default() -> Self {
        Sec43Config {
            region: "us-east1".to_owned(),
            instances: 800,
            execute_pairwise: true,
        }
    }
}

impl Sec43Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Sec43Config {
            region: "us-west1".to_owned(),
            instances: 80,
            execute_pairwise: true,
        }
    }

    /// Runs the comparison.
    ///
    /// # Panics
    ///
    /// Panics if the launch fails.
    pub fn run(&self, seed: u64) -> Sec43Result {
        // Hierarchical campaign on a fresh fleet.
        let hierarchical = {
            let mut world = World::new(region_config(&self.region), seed);
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let launch = world.launch(service, self.instances).expect("within caps");
            let instances = launch.instances().to_vec();
            let readings = probe_fleet(&mut world, &instances, PROBE_GAP);
            let outcome = HierarchicalVerifier::new()
                .verify(&mut world, &gen1_groups(&readings))
                .expect("instances alive");
            MethodRow {
                method: "hierarchical (this paper)".to_owned(),
                tests: outcome.stats.ctests + outcome.stats.pairwise_fallback_tests,
                wall_s: outcome.stats.wall.as_secs_f64(),
                cost_usd: outcome.stats.cost.as_usd(),
                clusters: outcome.clusters.len(),
            }
        };

        // Pairwise campaign on an identically seeded fleet.
        let pairwise = if self.execute_pairwise {
            let mut world = World::new(region_config(&self.region), seed);
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let launch = world.launch(service, self.instances).expect("within caps");
            let instances = launch.instances().to_vec();
            let outcome = pairwise_verify(&mut world, &instances, PairwiseChannel::RngUnit)
                .expect("instances alive");
            MethodRow {
                method: "pairwise (conventional)".to_owned(),
                tests: outcome.stats.tests,
                wall_s: outcome.stats.wall.as_secs_f64(),
                cost_usd: outcome.stats.cost.as_usd(),
                clusters: outcome.clusters.len(),
            }
        } else {
            // Analytic projection with the paper's optimistic 100 ms/test.
            let tests = pair_count(self.instances);
            let wall_s = tests as f64 * 0.1;
            let rates = eaao_cloudsim::pricing::Rates::us_tier1();
            let cost = rates.fleet_cost(
                self.instances,
                eaao_cloudsim::service::ContainerSize::Small,
                eaao_simcore::time::SimDuration::from_secs_f64(wall_s),
            );
            MethodRow {
                method: "pairwise (projected)".to_owned(),
                tests,
                wall_s,
                cost_usd: cost.as_usd(),
                clusters: 0,
            }
        };

        Sec43Result {
            region: self.region.clone(),
            instances: self.instances,
            hierarchical,
            pairwise,
        }
    }
}

/// The Section 4.3 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sec43Result {
    /// Region measured.
    pub region: String,
    /// Fleet size verified.
    pub instances: usize,
    /// The hierarchical campaign.
    pub hierarchical: MethodRow,
    /// The pairwise campaign (executed or projected).
    pub pairwise: MethodRow,
}

impl Sec43Result {
    /// Wall-time speedup of hierarchical over pairwise.
    pub fn speedup(&self) -> f64 {
        self.pairwise.wall_s / self.hierarchical.wall_s.max(1e-9)
    }

    /// Cost ratio of pairwise over hierarchical.
    pub fn cost_ratio(&self) -> f64 {
        self.pairwise.cost_usd / self.hierarchical.cost_usd.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_wins_by_an_order_of_magnitude_even_small() {
        let result = Sec43Config::quick().run(101);
        assert_eq!(result.pairwise.tests, pair_count(80));
        assert!(result.hierarchical.tests < result.pairwise.tests / 10);
        assert!(result.speedup() > 10.0, "speedup {}", result.speedup());
        assert!(
            result.cost_ratio() > 10.0,
            "cost ratio {}",
            result.cost_ratio()
        );
        // Both find the same clustering.
        assert_eq!(result.hierarchical.clusters, result.pairwise.clusters);
    }

    #[test]
    fn projected_pairwise_matches_the_papers_numbers() {
        let config = Sec43Config {
            execute_pairwise: false,
            ..Sec43Config::default()
        };
        let result = config.run(102);
        assert_eq!(result.pairwise.tests, 319_600);
        // ~8.9 hours.
        assert!((result.pairwise.wall_s / 3_600.0 - 8.88).abs() < 0.02);
        // ~$645.
        assert!(
            (result.pairwise.cost_usd - 645.0).abs() < 15.0,
            "projected ${}",
            result.pairwise.cost_usd
        );
        // Hierarchical: ~1–2 minutes, ~$1–3.
        assert!(
            result.hierarchical.wall_s < 240.0,
            "hierarchical wall {}s",
            result.hierarchical.wall_s
        );
        assert!(
            result.hierarchical.cost_usd < 5.0,
            "hierarchical cost ${}",
            result.hierarchical.cost_usd
        );
    }
}
