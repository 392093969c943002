//! Section 5.2, Strategy 1 — naive instance launching.
//!
//! The naive attacker launches 4800 instances from six cold services. All
//! of them land on the attacker's base hosts, so victim coverage is
//! bimodal: zero when attacker and victim use different base hosts, high
//! when they happen to share them (the paper saw 100% for Account 2 in
//! us-west1 and 81% for Account 3 in us-central1, zero elsewhere).

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use serde::{Deserialize, Serialize};

use crate::coverage::measure_coverage;
use crate::experiment::fig04::region_config;
use crate::strategy::NaiveLaunch;

/// One (region, victim) cell of the Strategy 1 evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sec52Cell {
    /// Region name.
    pub region: String,
    /// Victim account index.
    pub victim: usize,
    /// Victim instance coverage.
    pub coverage: f64,
    /// Attack cost in USD.
    pub cost_usd: f64,
}

/// Configuration for the Strategy 1 evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec52Config {
    /// Regions to evaluate.
    pub regions: Vec<String>,
    /// Victim accounts per region.
    pub victims: usize,
    /// Victim instances (the default configuration of Figure 11).
    pub victim_count: usize,
    /// The naive strategy parameters.
    pub attacker: NaiveLaunch,
}

impl Default for Sec52Config {
    fn default() -> Self {
        Sec52Config {
            regions: vec![
                "us-east1".to_owned(),
                "us-central1".to_owned(),
                "us-west1".to_owned(),
            ],
            victims: 2,
            victim_count: 100,
            attacker: NaiveLaunch::default(),
        }
    }
}

impl Sec52Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Sec52Config {
            regions: vec!["us-east1".to_owned(), "us-west1".to_owned()],
            victims: 2,
            victim_count: 50,
            attacker: NaiveLaunch {
                services: 3,
                instances_per_service: 400,
                ..NaiveLaunch::default()
            },
        }
    }

    /// Runs the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Sec52Result {
        let mut cells = Vec::new();
        for (r, region) in self.regions.iter().enumerate() {
            for victim in 0..self.victims {
                let run_seed = seed
                    .wrapping_add(r as u64 * 7_919)
                    .wrapping_add((victim as u64) << 20);
                let mut world = World::new(region_config(region), run_seed);
                let attacker_account = world.create_account();
                let victim_accounts = [world.create_account(), world.create_account()];
                let victim_account = victim_accounts[victim.min(1)];

                let victim_service = world.deploy_service(victim_account, ServiceSpec::default());
                let victim_instances = world
                    .launch(victim_service, self.victim_count)
                    .expect("victim fits")
                    .instances()
                    .to_vec();

                let report = self
                    .attacker
                    .run(&mut world, attacker_account)
                    .expect("attacker fits");
                let coverage = measure_coverage(&world, &report.live_instances, &victim_instances);
                cells.push(Sec52Cell {
                    region: region.clone(),
                    victim,
                    coverage: coverage.victim_instance_coverage(),
                    cost_usd: report.cost.as_usd(),
                });
            }
        }
        Sec52Result { cells }
    }
}

/// The Strategy 1 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sec52Result {
    /// One cell per (region, victim).
    pub cells: Vec<Sec52Cell>,
}

impl Sec52Result {
    /// Cells with essentially zero coverage.
    pub fn zero_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.coverage < 0.05).count()
    }

    /// Cells with high coverage (shared base hosts).
    pub fn high_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.coverage > 0.5).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_coverage_is_bimodal_across_seeds() {
        // Aggregate over several seeds: most cells are ~zero, some are
        // high, and intermediate values are rare — the paper's bimodality.
        let mut zero = 0;
        let mut high = 0;
        let mut total = 0;
        for seed in 0..6 {
            let result = Sec52Config::quick().run(seed * 1_000 + 121);
            zero += result.zero_cells();
            high += result.high_cells();
            total += result.cells.len();
        }
        assert!(zero > total / 3, "zero cells {zero}/{total}");
        assert!(
            zero + high >= total * 3 / 4,
            "coverage not bimodal: zero {zero}, high {high}, total {total}"
        );
        assert!(high >= 1, "no lucky base-host overlap in {total} cells");
    }

    #[test]
    fn naive_attack_is_cheap_but_useless_on_average() {
        let result = Sec52Config::quick().run(131);
        for cell in &result.cells {
            assert!(cell.cost_usd < 50.0, "cost ${}", cell.cost_usd);
        }
    }
}
