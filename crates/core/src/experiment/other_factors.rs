//! Section 5.1, "Other factors" — the four side observations.
//!
//! 1. Placement behaves the same on different dates and times of day.
//! 2. Instances with different resource specifications share the same
//!    base hosts.
//! 3. All nine US data centers behave alike except us-central1 (modeled by
//!    the dynamic-placement preset; checked elsewhere).
//! 4. Gen 2 placement behaves like Gen 1, and Gen 2 instances share hosts
//!    with Gen 1 instances.

use std::collections::BTreeSet;

use eaao_cloudsim::ids::HostId;
use eaao_cloudsim::service::{ContainerSize, Generation, ServiceSpec};
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;

/// Configuration for the side-observation checks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OtherFactorsConfig {
    /// Region to measure.
    pub region: String,
    /// Instances per launch.
    pub instances: usize,
}

impl Default for OtherFactorsConfig {
    fn default() -> Self {
        OtherFactorsConfig {
            region: "us-east1".to_owned(),
            instances: 800,
        }
    }
}

impl OtherFactorsConfig {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        OtherFactorsConfig {
            region: "us-west1".to_owned(),
            instances: 200,
        }
    }

    /// Runs all the checks.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> OtherFactorsResult {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();

        let footprint = |world: &mut World, spec: ServiceSpec, n: usize| -> BTreeSet<HostId> {
            let service = world.deploy_service(account, spec);
            let launch = world.launch(service, n).expect("within caps");
            let hosts = launch
                .instances()
                .iter()
                .map(|&i| world.host_of(i))
                .collect();
            world.kill_all(service);
            // Let the service go cold so the next launch is unaffected.
            world.advance(SimDuration::from_mins(45));
            hosts
        };
        let overlap = |a: &BTreeSet<HostId>, b: &BTreeSet<HostId>| -> f64 {
            let inter = a.intersection(b).count() as f64;
            inter / a.len().min(b.len()).max(1) as f64
        };

        let base_spec = ServiceSpec::default().with_max_instances(1_000);

        // (1) Time of day: same account, launches half a simulated day
        // apart.
        let morning = footprint(&mut world, base_spec, self.instances);
        world.advance(SimDuration::from_hours(12));
        let evening = footprint(&mut world, base_spec, self.instances);
        let time_of_day_overlap = overlap(&morning, &evening);

        // (2) Resource specifications: Pico vs Large services of the same
        // account.
        let pico = footprint(
            &mut world,
            base_spec.with_size(ContainerSize::Pico),
            self.instances,
        );
        let large = footprint(
            &mut world,
            base_spec.with_size(ContainerSize::Large),
            self.instances,
        );
        let size_overlap = overlap(&pico, &large);

        // (4) Generations: Gen 2 services land on the same base hosts, so
        // Gen 2 instances share hosts with Gen 1 instances.
        let gen1 = footprint(&mut world, base_spec, self.instances);
        let gen2 = footprint(
            &mut world,
            base_spec.with_generation(Generation::Gen2),
            self.instances,
        );
        let generation_overlap = overlap(&gen1, &gen2);

        // Direct co-residency check: run both generations concurrently.
        let gen1_svc = world.deploy_service(account, base_spec);
        let gen2_svc = world.deploy_service(account, base_spec.with_generation(Generation::Gen2));
        let gen1_live = world
            .launch(gen1_svc, self.instances / 2)
            .expect("fits")
            .instances()
            .to_vec();
        let gen2_live = world
            .launch(gen2_svc, self.instances / 2)
            .expect("fits")
            .instances()
            .to_vec();
        let gen1_hosts: BTreeSet<HostId> = gen1_live.iter().map(|&i| world.host_of(i)).collect();
        let mixed_hosts = gen2_live
            .iter()
            .filter(|&&i| gen1_hosts.contains(&world.host_of(i)))
            .count();

        OtherFactorsResult {
            time_of_day_overlap,
            size_overlap,
            generation_overlap,
            gen2_instances_on_gen1_hosts: mixed_hosts,
            gen2_instances: gen2_live.len(),
        }
    }
}

/// The side-observation results (all overlaps are fractions of the smaller
/// footprint).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OtherFactorsResult {
    /// Footprint overlap of launches 12 simulated hours apart.
    pub time_of_day_overlap: f64,
    /// Footprint overlap between Pico and Large services.
    pub size_overlap: f64,
    /// Footprint overlap between Gen 1 and Gen 2 services.
    pub generation_overlap: f64,
    /// Gen 2 instances that landed on hosts also carrying Gen 1 instances
    /// in a concurrent launch.
    pub gen2_instances_on_gen1_hosts: usize,
    /// Gen 2 instances launched in the concurrent check.
    pub gen2_instances: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_factors_match_the_paper() {
        let result = OtherFactorsConfig::quick().run(221);
        assert!(
            result.time_of_day_overlap > 0.85,
            "time-of-day overlap {}",
            result.time_of_day_overlap
        );
        assert!(
            result.size_overlap > 0.85,
            "size overlap {}",
            result.size_overlap
        );
        assert!(
            result.generation_overlap > 0.85,
            "generation overlap {}",
            result.generation_overlap
        );
        // Concurrent Gen 1 / Gen 2 fleets mingle on hosts.
        assert!(
            result.gen2_instances_on_gen1_hosts * 2 > result.gen2_instances,
            "only {} of {} Gen 2 instances share hosts with Gen 1",
            result.gen2_instances_on_gen1_hosts,
            result.gen2_instances
        );
    }
}
