//! Section 6 — potential mitigations, evaluated.
//!
//! The paper proposes masking the TSC value and rate (trap-and-emulate for
//! Gen 1, hardware offsetting + scaling for Gen 2) and scheduler-side
//! defenses. This driver quantifies what the paper argues qualitatively:
//!
//! * both TSC mitigations destroy the corresponding fingerprint,
//! * trap-and-emulate costs timer-heavy applications tens of percent of
//!   latency (the Cassandra observation), while offsetting + scaling is
//!   free,
//! * co-location-resistant scheduling reduces the optimized strategy's
//!   victim coverage (at the price of giving up locality-driven placement).

use eaao_cloudsim::mitigation::{TimerWorkload, TscMitigation};
use eaao_cloudsim::service::{Generation, ServiceSpec};
use eaao_orchestrator::world::World;
use serde::{Deserialize, Serialize};

use crate::coverage::measure_coverage;
use crate::experiment::fig04::region_config;
use crate::experiment::{gen1_fmi, host_labels, PROBE_GAP};
use crate::fingerprint::Gen2Fingerprint;
use crate::metrics::PairConfusion;
use crate::probe::probe_fleet;
use crate::strategy::OptimizedLaunch;

/// Effect of one TSC mitigation on both fingerprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationRow {
    /// The mitigation evaluated.
    pub mitigation: TscMitigation,
    /// Gen 1 fingerprint FMI under the mitigation (unmitigated: ~0.9999).
    pub gen1_fmi: f64,
    /// Gen 2 fingerprint precision under the mitigation (unmitigated:
    /// ~0.48).
    pub gen2_precision: f64,
    /// Distinct Gen 2 fingerprint values observed (a scaled platform
    /// collapses them to one per CPU model).
    pub gen2_distinct_values: usize,
    /// Latency overhead on a timer-heavy database write path.
    pub database_overhead: f64,
    /// Latency overhead on a lightly instrumented web request.
    pub web_overhead: f64,
}

/// Configuration for the Section 6 evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec6Config {
    /// Region to measure.
    pub region: String,
    /// Instances per fingerprint evaluation.
    pub instances: usize,
    /// Attacker configuration for the scheduler-mitigation comparison.
    pub attacker: OptimizedLaunch,
    /// Victim instances for the scheduler-mitigation comparison.
    pub victim_count: usize,
}

impl Default for Sec6Config {
    fn default() -> Self {
        Sec6Config {
            region: "us-east1".to_owned(),
            instances: 800,
            attacker: OptimizedLaunch::default(),
            victim_count: 100,
        }
    }
}

impl Sec6Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Sec6Config {
            region: "us-west1".to_owned(),
            instances: 300,
            attacker: OptimizedLaunch {
                services: 3,
                launches_per_service: 4,
                instances_per_launch: 300,
                ..OptimizedLaunch::default()
            },
            victim_count: 50,
        }
    }

    /// Runs the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Sec6Result {
        let rows = [
            TscMitigation::None,
            TscMitigation::TrapAndEmulate,
            TscMitigation::OffsetAndScale,
        ]
        .into_iter()
        .map(|m| self.evaluate_tsc_mitigation(m, seed))
        .collect();
        let (coverage_unmitigated, coverage_resistant) = self.evaluate_scheduler(seed);
        Sec6Result {
            rows,
            coverage_unmitigated,
            coverage_resistant,
        }
    }

    fn evaluate_tsc_mitigation(&self, mitigation: TscMitigation, seed: u64) -> MitigationRow {
        // Gen 1 fingerprint accuracy under the mitigation.
        let gen1_fmi = {
            let region = region_config(&self.region).with_tsc_mitigation(mitigation);
            let mut world = World::new(region, seed);
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let ids = world
                .launch(service, self.instances)
                .expect("fits")
                .instances()
                .to_vec();
            let readings = probe_fleet(&mut world, &ids, PROBE_GAP);
            gen1_fmi(&world, &readings)
        };

        // Gen 2 fingerprint precision under the mitigation.
        let (gen2_precision, gen2_distinct_values) = {
            let region = region_config(&self.region).with_tsc_mitigation(mitigation);
            let mut world = World::new(region, seed.wrapping_add(1));
            let account = world.create_account();
            let service = world.deploy_service(
                account,
                ServiceSpec::default()
                    .with_generation(Generation::Gen2)
                    .with_max_instances(1_000),
            );
            let ids = world
                .launch(service, self.instances)
                .expect("fits")
                .instances()
                .to_vec();
            let readings = probe_fleet(&mut world, &ids, PROBE_GAP);
            let predicted: Vec<u64> = readings
                .iter()
                .map(|r| {
                    Gen2Fingerprint::from_reading(r)
                        .expect("gen2")
                        .refined()
                        .as_khz()
                })
                .collect();
            let confusion =
                PairConfusion::from_assignments(&predicted, &host_labels(&world, &readings));
            let distinct = {
                let mut values = predicted.clone();
                values.sort_unstable();
                values.dedup();
                values.len()
            };
            (confusion.precision(), distinct)
        };

        MitigationRow {
            mitigation,
            gen1_fmi,
            gen2_precision,
            gen2_distinct_values,
            database_overhead: TimerWorkload::database_write().overhead_fraction(mitigation),
            web_overhead: TimerWorkload::web_request().overhead_fraction(mitigation),
        }
    }

    /// The optimized attack with and without co-location-resistant
    /// scheduling; returns the victim coverages.
    fn evaluate_scheduler(&self, seed: u64) -> (f64, f64) {
        let run = |resistant: bool| {
            let mut region = region_config(&self.region);
            region.placement.co_location_resistant = resistant;
            let mut world = World::new(region, seed.wrapping_add(2));
            let attacker = world.create_account();
            let victim = world.create_account();
            let victim_service = world.deploy_service(victim, ServiceSpec::default());
            let victim_instances = world
                .launch(victim_service, self.victim_count)
                .expect("victim fits")
                .instances()
                .to_vec();
            let report = self
                .attacker
                .run(&mut world, attacker)
                .expect("attacker fits");
            measure_coverage(&world, &report.live_instances, &victim_instances)
                .victim_instance_coverage()
        };
        (run(false), run(true))
    }
}

/// The Section 6 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sec6Result {
    /// One row per TSC mitigation.
    pub rows: Vec<MitigationRow>,
    /// Strategy-2 victim coverage under the paper's (unmitigated)
    /// scheduler.
    pub coverage_unmitigated: f64,
    /// Strategy-2 victim coverage under co-location-resistant scheduling.
    pub coverage_resistant: f64,
}

impl Sec6Result {
    /// The row for a given mitigation.
    ///
    /// # Panics
    ///
    /// Panics if the mitigation was not evaluated.
    pub fn row(&self, mitigation: TscMitigation) -> &MitigationRow {
        self.rows
            .iter()
            .find(|r| r.mitigation == mitigation)
            .expect("mitigation evaluated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_mitigations_destroy_the_fingerprints() {
        let result = Sec6Config::quick().run(201);
        let baseline = result.row(TscMitigation::None);
        assert!(
            baseline.gen1_fmi > 0.99,
            "unmitigated Gen 1 {}",
            baseline.gen1_fmi
        );
        assert!(baseline.gen2_precision < 0.95, "unmitigated Gen 2 collides");

        let trapped = result.row(TscMitigation::TrapAndEmulate);
        // The Gen 1 fingerprint degenerates: every host of one model gets
        // (approximately) the same derived boot — FMI collapses.
        assert!(
            trapped.gen1_fmi < baseline.gen1_fmi / 2.0,
            "trap-and-emulate left Gen 1 FMI at {}",
            trapped.gen1_fmi
        );

        let scaled = result.row(TscMitigation::OffsetAndScale);
        // The Gen 2 fingerprint collapses to one value per CPU model.
        assert!(
            scaled.gen2_distinct_values < baseline.gen2_distinct_values / 2,
            "scaling left {} distinct values (baseline {})",
            scaled.gen2_distinct_values,
            baseline.gen2_distinct_values
        );
        assert!(
            scaled.gen2_precision < baseline.gen2_precision,
            "scaling should reduce Gen 2 precision"
        );
    }

    #[test]
    fn overheads_match_the_papers_argument() {
        let result = Sec6Config::quick().run(202);
        let trapped = result.row(TscMitigation::TrapAndEmulate);
        assert!(
            trapped.database_overhead > 0.2,
            "db {}",
            trapped.database_overhead
        );
        assert!(trapped.web_overhead < 0.1, "web {}", trapped.web_overhead);
        let scaled = result.row(TscMitigation::OffsetAndScale);
        assert_eq!(scaled.database_overhead, 0.0);
        assert_eq!(scaled.web_overhead, 0.0);
    }

    #[test]
    fn resistant_scheduling_does_not_help_in_a_small_region() {
        // In a 205-host region the attacker covers everything either way —
        // the scheduler defense needs a large pool to matter (checked at
        // full scale by `eaao repro sec6`).
        let result = Sec6Config::quick().run(203);
        assert!(result.coverage_unmitigated > 0.8);
        assert!((0.0..=1.0).contains(&result.coverage_resistant));
    }
}
