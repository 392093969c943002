//! Ablations — four design choices the paper argues for, each swept
//! (DESIGN.md §7).
//!
//! Every sweep reruns one reduced experiment at the paper's setting and at
//! an alternative, on identically seeded worlds (the frequency sweep
//! scores one fleet both ways), and records the quality consequence:
//!
//! * **Demand window** (Observation 5): a service relaunched within the
//!   orchestrator's ~30-minute demand window is spread onto helper hosts.
//!   Four launches 10 minutes apart reach many more distinct hosts under
//!   a 30-minute window than under a 5-minute one.
//! * **Popularity exponent** (DESIGN.md §6): popularity-weighted host
//!   scoring concentrates placements on popular hosts, so an attacker
//!   occupies fewer distinct hosts than under uniform scoring (exponent
//!   0), while it still covers the victim, whose instances land on the
//!   same popular hosts.
//! * **CTest threshold `m`** (§4.3): one `CTest` settles a group of up to
//!   `2m − 1` instances, so a wider threshold needs fewer tests; the row
//!   also counts the pairwise fallback tests and the clusters found
//!   against the true host count, which show what the wider groups cost.
//! * **Frequency source** (§4.2): the Gen 1 fingerprint derives the boot
//!   time from the *reported* TSC frequency, because about 10% of hosts
//!   *measure* it with a scatter that splits co-located instances.

use std::collections::BTreeSet;

use eaao_cloudsim::ids::InstanceId;
use eaao_cloudsim::sandbox::GuestEnv;
use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;
use eaao_tsc::measure::measure_frequency;
use serde::{Deserialize, Serialize};

use crate::coverage::measure_coverage;
use crate::experiment::fig04::region_config;
use crate::experiment::sec42::GuestSampler;
use crate::experiment::{gen1_fmi, gen1_groups, host_labels, PROBE_GAP};
use crate::fingerprint::Gen1Fingerprinter;
use crate::metrics::PairConfusion;
use crate::probe::probe_fleet;
use crate::strategy::OptimizedLaunch;
use crate::verify::{CTestConfig, HierarchicalVerifier};

/// Demand windows swept, in minutes: a short one and the paper's ~30.
const DEMAND_WINDOWS_MIN: [i64; 2] = [5, 30];
/// Launches in the demand-window sweep.
const WINDOW_LAUNCHES: usize = 4;
/// The gap between those launches: Fig. 9's 10-minute interval.
const WINDOW_INTERVAL: SimDuration = SimDuration::from_mins(10);
/// Popularity exponents swept: uniform scoring and the presets' value.
const POPULARITY_EXPONENTS: [f64; 2] = [0.0, 1.25];
/// CTest thresholds swept; the paper uses `m = 2`.
const CTEST_THRESHOLDS: [u32; 3] = [2, 3, 4];
/// The wait between the two reads of one frequency measurement (§4.2:
/// ~100 ms).
const FREQUENCY_WAIT: SimDuration = SimDuration::from_millis(100);
/// Measurements averaged per instance (§4.2: 10).
const FREQUENCY_REPETITIONS: usize = 10;

/// Configuration for the ablation sweeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationsConfig {
    /// Region to measure.
    pub region: String,
    /// Instances per launch in the demand-window sweep.
    pub window_instances: usize,
    /// The attacker of the popularity sweep.
    pub attacker: OptimizedLaunch,
    /// Victim instances in the popularity sweep.
    pub victim_count: usize,
    /// The fleet the `m` sweep verifies (§4.3: 800 instances).
    pub verify_instances: usize,
    /// Instances fingerprinted in the frequency-source sweep.
    pub fingerprint_instances: usize,
}

impl Default for AblationsConfig {
    fn default() -> Self {
        AblationsConfig {
            region: "us-east1".to_owned(),
            window_instances: 800,
            attacker: OptimizedLaunch::default(),
            victim_count: 100,
            verify_instances: 800,
            fingerprint_instances: 800,
        }
    }
}

impl AblationsConfig {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        AblationsConfig {
            region: "us-west1".to_owned(),
            window_instances: 300,
            attacker: OptimizedLaunch {
                services: 3,
                launches_per_service: 4,
                instances_per_launch: 300,
                ..OptimizedLaunch::default()
            },
            victim_count: 50,
            verify_instances: 80,
            fingerprint_instances: 150,
        }
    }

    /// Runs all four sweeps.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> AblationsResult {
        AblationsResult {
            demand_window: DEMAND_WINDOWS_MIN
                .iter()
                .map(|&minutes| self.demand_window(minutes, seed))
                .collect(),
            popularity: POPULARITY_EXPONENTS
                .iter()
                .map(|&exponent| self.popularity(exponent, seed))
                .collect(),
            ctest_m: CTEST_THRESHOLDS
                .iter()
                .map(|&m| self.ctest_threshold(m, seed))
                .collect(),
            frequency_source: vec![self.frequency_source(seed)],
        }
    }

    /// A fresh world in the configured region with one service that may
    /// scale to 1,000 instances, launched once with `instances`.
    fn launched_world(&self, instances: usize, seed: u64) -> (World, Vec<InstanceId>) {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let ids = world
            .launch(service, instances)
            .expect("within caps")
            .instances()
            .to_vec();
        (world, ids)
    }

    /// Distinct hosts reached by launches 10 minutes apart.
    fn demand_window(&self, minutes: i64, seed: u64) -> WindowRow {
        let mut region = region_config(&self.region);
        region.placement.demand_window = SimDuration::from_mins(minutes);
        let mut world = World::new(region, seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let mut hosts = BTreeSet::new();
        for _ in 0..WINDOW_LAUNCHES {
            let launch = world
                .launch(service, self.window_instances)
                .expect("within caps");
            hosts.extend(launch.instances().iter().map(|&i| world.host_of(i)));
            world.disconnect_all(service);
            world.advance(WINDOW_INTERVAL);
        }
        WindowRow {
            minutes,
            hosts: hosts.len(),
        }
    }

    /// The optimized attack against a victim fleet under one exponent.
    fn popularity(&self, exponent: f64, seed: u64) -> PopularityRow {
        let mut region = region_config(&self.region);
        region.popularity_exponent = exponent;
        let mut world = World::new(region, seed);
        let attacker = world.create_account();
        let victim = world.create_account();
        let victim_service = world.deploy_service(victim, ServiceSpec::default());
        let victims = world
            .launch(victim_service, self.victim_count)
            .expect("victim fits")
            .instances()
            .to_vec();
        let report = self
            .attacker
            .run(&mut world, attacker)
            .expect("attacker fits");
        let coverage = measure_coverage(&world, &report.live_instances, &victims);
        PopularityRow {
            exponent,
            host_coverage: coverage.attacker_host_coverage(),
            victim_coverage: coverage.victim_instance_coverage(),
        }
    }

    /// Hierarchical verification of a fingerprint-grouped fleet with
    /// threshold `m`.
    fn ctest_threshold(&self, m: u32, seed: u64) -> ThresholdRow {
        let (mut world, ids) = self.launched_world(self.verify_instances, seed);
        let readings = probe_fleet(&mut world, &ids, PROBE_GAP);
        let true_hosts: BTreeSet<_> = ids.iter().map(|&i| world.host_of(i)).collect();
        let config = CTestConfig {
            threshold_m: m,
            ..CTestConfig::default()
        };
        let outcome = HierarchicalVerifier::new()
            .with_config(config)
            .verify(&mut world, &gen1_groups(&readings))
            .expect("instances alive");
        ThresholdRow {
            m,
            ctests: outcome.stats.ctests,
            pairwise_fallback_tests: outcome.stats.pairwise_fallback_tests,
            wall_s: outcome.stats.wall.as_secs_f64(),
            cost_usd: outcome.stats.cost.as_usd(),
            clusters: outcome.clusters.len(),
            true_hosts: true_hosts.len(),
        }
    }

    /// Gen 1 FMI of one fleet, fingerprinted with the reported and then
    /// with each instance's measured frequency.
    fn frequency_source(&self, seed: u64) -> FrequencyRow {
        let (mut world, ids) = self.launched_world(self.fingerprint_instances, seed);
        let readings = probe_fleet(&mut world, &ids, PROBE_GAP);
        let reported_fmi = gen1_fmi(&world, &readings);
        let precision = Gen1Fingerprinter::DEFAULT_PRECISION;
        let measured_boots: Vec<i64> = ids
            .iter()
            .map(|&id| {
                let mut sampler = GuestSampler::new(&mut world, id);
                let frequency =
                    measure_frequency(&mut sampler, FREQUENCY_WAIT, FREQUENCY_REPETITIONS)
                        .mean_frequency();
                world
                    .with_guest(id, |sandbox, now| sandbox.sample(now))
                    .expect("instance alive")
                    .derive_rounded_boot_time(frequency, precision)
                    .as_nanos()
            })
            .collect();
        let truth = host_labels(&world, &readings);
        FrequencyRow {
            reported_fmi,
            measured_fmi: PairConfusion::from_assignments(&measured_boots, &truth).fmi(),
        }
    }
}

/// Distinct hosts a relaunched service reaches under one demand window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowRow {
    /// The demand window, in minutes.
    pub minutes: i64,
    /// Distinct hosts reached over the launches.
    pub hosts: usize,
}

/// The optimized attack's reach under one popularity exponent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopularityRow {
    /// The Zipf exponent of host popularity.
    pub exponent: f64,
    /// Fraction of the region's hosts the attacker occupies.
    pub host_coverage: f64,
    /// Fraction of victim instances sharing a host with the attacker.
    pub victim_coverage: f64,
}

/// Hierarchical verification cost under one `CTest` threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// The threshold `m`; groups of up to `2m − 1` take one test.
    pub m: u32,
    /// Multi-instance `CTest`s run.
    pub ctests: usize,
    /// Pairwise tests run by the fallback path.
    pub pairwise_fallback_tests: usize,
    /// Simulated wall time, in seconds.
    pub wall_s: f64,
    /// Billed cost, in USD.
    pub cost_usd: f64,
    /// Clusters the verifier reports.
    pub clusters: usize,
    /// Distinct hosts the fleet actually occupies.
    pub true_hosts: usize,
}

/// Gen 1 fingerprint accuracy under each frequency source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyRow {
    /// FMI with the reported (model-name) frequency, the paper's choice.
    pub reported_fmi: f64,
    /// FMI with each instance's measured frequency.
    pub measured_fmi: f64,
}

/// The ablation result: one list of rows per sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationsResult {
    /// Demand window sweep (Observation 5).
    pub demand_window: Vec<WindowRow>,
    /// Popularity exponent sweep (DESIGN.md §6).
    pub popularity: Vec<PopularityRow>,
    /// `CTest` threshold sweep (§4.3).
    pub ctest_m: Vec<ThresholdRow>,
    /// Frequency source comparison (§4.2).
    pub frequency_source: Vec<FrequencyRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_30_minute_window_reaches_more_hosts_than_a_5_minute_one() {
        // Observation 5: relaunches inside the demand window spread onto
        // helper hosts.
        let config = AblationsConfig::quick();
        let short = config.demand_window(5, 1);
        let paper = config.demand_window(30, 1);
        assert!(paper.hosts > short.hosts, "{short:?} vs {paper:?}");
    }

    #[test]
    fn the_reported_frequency_fingerprints_better_than_the_measured_one() {
        // §4.2: measured frequencies scatter on problematic hosts.
        let row = AblationsConfig::quick().frequency_source(1);
        assert!(row.reported_fmi > row.measured_fmi, "{row:?}");
    }

    #[test]
    fn popularity_concentration_lowers_attacker_host_coverage() {
        // The paper-scale attack in us-east1, a pool it does not saturate.
        let config = AblationsConfig::default();
        assert_eq!(config.region, "us-east1");
        let uniform = config.popularity(0.0, 1);
        let concentrated = config.popularity(1.25, 1);
        assert!(
            concentrated.host_coverage < uniform.host_coverage,
            "{uniform:?} vs {concentrated:?}"
        );
    }

    #[test]
    fn a_wider_ctest_threshold_needs_no_more_ctests() {
        // §4.3: one CTest settles a group of up to 2m − 1 instances.
        let config = AblationsConfig::quick();
        let m2 = config.ctest_threshold(2, 1);
        let m3 = config.ctest_threshold(3, 1);
        assert!(m3.ctests <= m2.ctests, "{m2:?} vs {m3:?}");
    }
}
