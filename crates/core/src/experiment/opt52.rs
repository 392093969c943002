//! Section 5.2, "Potential attack optimizations" — evaluated.
//!
//! Two optimizations the paper sketches, measured end to end:
//!
//! * **More accounts**: attacking from several (established) accounts
//!   starts exploration from several base-host cells, widening the
//!   footprint; brand-new accounts hit the 10-instance quota wall.
//! * **Repeated attacks**: recording the victim's host fingerprints during
//!   the first attack lets subsequent attacks focus the extraction fleet
//!   on matching hosts only, cutting the recurring cost.

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::strategy::{MultiAccountLaunch, OptimizedLaunch, RepeatedAttack};

/// Configuration for the optimization evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Opt52Config {
    /// Region to measure.
    pub region: String,
    /// Victim instances.
    pub victim_count: usize,
    /// The per-account priming campaign.
    pub campaign: OptimizedLaunch,
    /// Extraction-phase length for the repeated-attack comparison.
    pub extraction_hold: SimDuration,
}

impl Default for Opt52Config {
    fn default() -> Self {
        Opt52Config {
            region: "us-central1".to_owned(),
            victim_count: 100,
            campaign: OptimizedLaunch::default(),
            extraction_hold: SimDuration::from_hours(1),
        }
    }
}

impl Opt52Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Opt52Config {
            region: "us-west1".to_owned(),
            victim_count: 40,
            campaign: OptimizedLaunch {
                services: 2,
                launches_per_service: 3,
                instances_per_launch: 300,
                ..OptimizedLaunch::default()
            },
            extraction_hold: SimDuration::from_mins(30),
        }
    }

    /// Runs the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails unexpectedly.
    pub fn run(&self, seed: u64) -> Opt52Result {
        // --- multi-account footprint ---
        let footprint = |accounts: usize, seed: u64| {
            let mut world = World::new(region_config(&self.region), seed);
            MultiAccountLaunch {
                accounts,
                established: true,
                per_account: self.campaign,
            }
            .run(&mut world)
            .expect("established accounts fit")
            .hosts_occupied
        };
        let hosts_one_account = footprint(1, seed);
        let hosts_three_accounts = footprint(3, seed);

        // New accounts cannot run the campaign at all.
        let new_accounts_blocked = {
            let mut world = World::new(region_config(&self.region), seed.wrapping_add(1));
            MultiAccountLaunch {
                accounts: 2,
                established: false,
                per_account: self.campaign,
            }
            .run(&mut world)
            .is_err()
        };

        // --- repeated attacks ---
        let mut world = World::new(region_config(&self.region), seed.wrapping_add(2));
        let attacker = world.create_account();
        let victim = world.create_account();
        let victim_service = world.deploy_service(victim, ServiceSpec::default());
        let victims = world
            .launch(victim_service, self.victim_count)
            .expect("victim fits")
            .instances()
            .to_vec();
        let attack = RepeatedAttack {
            campaign: self.campaign,
            extraction_hold: self.extraction_hold,
        };
        let (first, record) = attack
            .first_attack(&mut world, attacker, &victims)
            .expect("attacker fits");
        world.advance(SimDuration::from_mins(45));
        let focused = attack
            .focused_attack(&mut world, attacker, &record, &victims)
            .expect("attacker fits");

        Opt52Result {
            region: self.region.clone(),
            hosts_one_account,
            hosts_three_accounts,
            new_accounts_blocked,
            recorded_victim_hosts: record.len(),
            first_coverage: first.coverage,
            first_cost_usd: first.cost_usd,
            first_fleet: first.retained_instances.len(),
            focused_coverage: focused.coverage,
            focused_cost_usd: focused.cost_usd,
            focused_fleet: focused.retained_instances.len(),
        }
    }
}

/// The optimization-evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Opt52Result {
    /// Region measured.
    pub region: String,
    /// Hosts occupied attacking from one account.
    pub hosts_one_account: usize,
    /// Hosts occupied attacking from three accounts.
    pub hosts_three_accounts: usize,
    /// Whether fresh (quota-capped) accounts were rejected.
    pub new_accounts_blocked: bool,
    /// Victim hosts recorded during the first attack.
    pub recorded_victim_hosts: usize,
    /// First attack: victim coverage.
    pub first_coverage: f64,
    /// First attack: cost (priming + full-fleet extraction), USD.
    pub first_cost_usd: f64,
    /// First attack: extraction fleet size.
    pub first_fleet: usize,
    /// Focused repeat attack: victim coverage.
    pub focused_coverage: f64,
    /// Focused repeat attack: cost, USD.
    pub focused_cost_usd: f64,
    /// Focused repeat attack: extraction fleet size.
    pub focused_fleet: usize,
}

impl Opt52Result {
    /// Cost saving of the focused repeat attack versus the first.
    pub fn cost_saving(&self) -> f64 {
        1.0 - self.focused_cost_usd / self.first_cost_usd.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizations_pay_off() {
        let result = Opt52Config::quick().run(211);
        assert!(
            result.hosts_three_accounts >= result.hosts_one_account,
            "3 accounts {} < 1 account {}",
            result.hosts_three_accounts,
            result.hosts_one_account
        );
        assert!(result.new_accounts_blocked, "quota wall missing");
        assert!(result.recorded_victim_hosts > 0);
        assert!(
            result.focused_fleet < result.first_fleet / 2,
            "focused fleet {} vs first {}",
            result.focused_fleet,
            result.first_fleet
        );
        assert!(
            result.cost_saving() > 0.3,
            "saving {}",
            result.cost_saving()
        );
        assert!(
            result.focused_coverage > result.first_coverage * 0.7,
            "focused {} vs first {}",
            result.focused_coverage,
            result.first_coverage
        );
    }
}
