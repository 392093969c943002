//! Figure 4 — Gen 1 fingerprint accuracy vs the rounding precision
//! `p_boot` (Section 4.4.1).
//!
//! Launch 800 concurrent instances, read each one's fingerprint inputs,
//! establish the co-location ground truth with the scalable covert-channel
//! methodology, and score the fingerprint clustering at every `p_boot` from
//! 0.1 ms to 1000 s. The paper finds a sweet spot between 100 ms and 1 s
//! with FMI ≈ 0.9999.

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;
use eaao_simcore::stats::Summary;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::PROBE_GAP;
use crate::fingerprint::{group_by_fingerprint, Gen1Fingerprinter};
use crate::metrics::PairConfusion;
use crate::probe::probe_fleet;
use crate::verify::hierarchical::HierarchicalVerifier;

/// How the co-location ground truth is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GroundTruth {
    /// The paper's workflow: the scalable covert-channel verification of
    /// Section 4.3 (costs simulated time and money).
    #[default]
    CovertChannel,
    /// The simulator's oracle (free; for fast benches).
    Oracle,
}

/// Configuration for the Figure 4 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig04Config {
    /// Regions to measure (averaged, as in the paper).
    pub regions: Vec<String>,
    /// Concurrent instances per run.
    pub instances: usize,
    /// Repetitions per region.
    pub repeats: usize,
    /// The `p_boot` sweep, in seconds.
    pub p_boots_s: Vec<f64>,
    /// Ground-truth source.
    pub ground_truth: GroundTruth,
}

impl Default for Fig04Config {
    fn default() -> Self {
        Fig04Config {
            regions: vec![
                "us-east1".to_owned(),
                "us-central1".to_owned(),
                "us-west1".to_owned(),
            ],
            instances: 800,
            repeats: 5,
            // Half-decade steps across the paper's 1e-4..1e3 s x-axis.
            p_boots_s: (-8..=6).map(|k| 10f64.powf(k as f64 / 2.0)).collect(),
            ground_truth: GroundTruth::CovertChannel,
        }
    }
}

impl Fig04Config {
    /// A scaled-down configuration for tests and benches.
    pub fn quick() -> Self {
        Fig04Config {
            regions: vec!["us-east1".to_owned()],
            instances: 400,
            repeats: 1,
            p_boots_s: vec![1e-4, 1e-2, 1.0, 1e2, 1e3],
            ground_truth: GroundTruth::Oracle,
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if a region name is unknown or a launch fails (the
    /// configuration exceeds the platform caps).
    pub fn run(&self, seed: u64) -> Fig04Result {
        let mut per_p: Vec<Vec<[f64; 3]>> = vec![Vec::new(); self.p_boots_s.len()];
        let mut perfect_runs = 0;
        let mut total_runs = 0;
        for (r, region_name) in self.regions.iter().enumerate() {
            for repeat in 0..self.repeats {
                let run_seed = seed
                    .wrapping_add(r as u64)
                    .wrapping_mul(1_000_003)
                    .wrapping_add(repeat as u64);
                let accuracies = self.run_once(region_name, run_seed);
                total_runs += 1;
                // "Perfect" at the paper's default precision (1 s).
                if let Some(idx) = self.p_boots_s.iter().position(|&p| (p - 1.0).abs() < 1e-9) {
                    #[expect(
                        clippy::float_cmp,
                        reason = "presentation-side sentinel: an accuracy of exactly 1.0 only arises from n/n, which divides exactly"
                    )]
                    if accuracies[idx][0] == 1.0 {
                        perfect_runs += 1;
                    }
                }
                for (idx, acc) in accuracies.into_iter().enumerate() {
                    per_p[idx].push(acc);
                }
            }
        }
        let points = self
            .p_boots_s
            .iter()
            .zip(per_p)
            .map(|(&p_boot_s, samples)| {
                let fmi: Vec<f64> = samples.iter().map(|a| a[0]).collect();
                let precision: Vec<f64> = samples.iter().map(|a| a[1]).collect();
                let recall: Vec<f64> = samples.iter().map(|a| a[2]).collect();
                Fig04Point {
                    p_boot_s,
                    fmi: Summary::of(&fmi),
                    precision: Summary::of(&precision),
                    recall: Summary::of(&recall),
                }
            })
            .collect();
        Fig04Result {
            points,
            perfect_runs,
            total_runs,
        }
    }

    /// One region, one repeat: returns `[fmi, precision, recall]` per
    /// `p_boot`.
    fn run_once(&self, region_name: &str, seed: u64) -> Vec<[f64; 3]> {
        let region = region_config(region_name);
        let mut world = World::new(region, seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let launch = world.launch(service, self.instances).expect("within caps");
        let instances = launch.instances().to_vec();

        // One measurement sweep; every p_boot re-derives from the same
        // readings, exactly as the paper evaluates one data set at many
        // precisions.
        let readings = probe_fleet(&mut world, &instances, PROBE_GAP);

        // Ground-truth host label per reading.
        let truth: Vec<u64> = match self.ground_truth {
            GroundTruth::Oracle => readings
                .iter()
                .map(|r| u64::from(world.host_of(r.instance).as_raw()))
                .collect(),
            GroundTruth::CovertChannel => {
                // Group by the default fingerprint, verify with the scalable
                // methodology, and use the verified clusters as truth.
                let default_fp = Gen1Fingerprinter::default();
                let (groups, _) = group_by_fingerprint(&readings, |r| default_fp.fingerprint(r));
                let groups: Vec<_> = groups
                    .into_iter()
                    .map(|(_, members)| {
                        members
                            .iter()
                            .map(|&i| readings[i].instance)
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let outcome = HierarchicalVerifier::new()
                    .verify(&mut world, &groups)
                    .expect("instances stay alive during verification");
                let ids: Vec<_> = readings.iter().map(|r| r.instance).collect();
                outcome
                    .labels_for(&ids)
                    .into_iter()
                    .map(|l| l as u64)
                    .collect()
            }
        };

        self.p_boots_s
            .iter()
            .map(|&p| {
                let fingerprinter = Gen1Fingerprinter::new(SimDuration::from_secs_f64(p));
                let predicted: Vec<String> = readings
                    .iter()
                    .enumerate()
                    .map(|(i, r)| match fingerprinter.fingerprint(r) {
                        Some(f) => f.to_string(),
                        // Unfingerprintable readings must not collide with
                        // each other: give each a unique label.
                        None => format!("unparseable-{i}"),
                    })
                    .collect();
                let confusion = PairConfusion::from_assignments(&predicted, &truth);
                [confusion.fmi(), confusion.precision(), confusion.recall()]
            })
            .collect()
    }
}

/// Resolves a paper region name to its preset.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn region_config(name: &str) -> RegionConfig {
    match name {
        "us-east1" => RegionConfig::us_east1(),
        "us-central1" => RegionConfig::us_central1(),
        "us-west1" => RegionConfig::us_west1(),
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract: CLI-facing preset lookup, names are closed-set"
        )]
        other => panic!("unknown region {other:?}"),
    }
}

/// One x-axis point of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig04Point {
    /// Rounding precision in seconds.
    pub p_boot_s: f64,
    /// FMI across runs.
    pub fmi: Summary,
    /// Precision across runs.
    pub precision: Summary,
    /// Recall across runs.
    pub recall: Summary,
}

/// The Figure 4 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig04Result {
    /// One point per `p_boot`.
    pub points: Vec<Fig04Point>,
    /// Runs with a perfect clustering at `p_boot` = 1 s (the paper: 14 of
    /// 15).
    pub perfect_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

impl Fig04Result {
    /// The point closest to a given precision.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn point_near(&self, p_boot_s: f64) -> &Fig04Point {
        self.points
            .iter()
            .min_by(|a, b| {
                let da = (a.p_boot_s.ln() - p_boot_s.ln()).abs();
                let db = (b.p_boot_s.ln() - p_boot_s.ln()).abs();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("non-empty sweep")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_the_sweet_spot() {
        let result = Fig04Config::quick().run(7);
        assert_eq!(result.points.len(), 5);
        let sweet = result.point_near(1.0);
        assert!(sweet.fmi.mean() > 0.99, "FMI at 1 s: {}", sweet.fmi.mean());
        // Tiny precision: recall collapses (noise splits hosts).
        let tiny = result.point_near(1e-4);
        assert!(
            tiny.recall.mean() < sweet.recall.mean(),
            "recall should degrade at 0.1 ms: {} vs {}",
            tiny.recall.mean(),
            sweet.recall.mean()
        );
        // Huge precision: precision collapses (hosts collide).
        let huge = result.point_near(1e3);
        assert!(
            huge.precision.mean() < 0.99,
            "precision should degrade at 1000 s: {}",
            huge.precision.mean()
        );
        assert!(huge.recall.mean() > 0.99, "recall stays high at 1000 s");
    }

    #[test]
    fn covert_ground_truth_agrees_with_oracle() {
        let mut config = Fig04Config::quick();
        config.instances = 60;
        config.ground_truth = GroundTruth::CovertChannel;
        let covert = config.run(3);
        config.ground_truth = GroundTruth::Oracle;
        let oracle = config.run(3);
        let c = covert.point_near(1.0).fmi.mean();
        let o = oracle.point_near(1.0).fmi.mean();
        assert!((c - o).abs() < 0.02, "covert {c} vs oracle {o}");
    }

    #[test]
    fn region_lookup() {
        assert_eq!(region_config("us-east1").name, "us-east1");
        assert_eq!(region_config("us-central1").host_count, 2_000);
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn region_lookup_rejects_unknown() {
        region_config("mars-north1");
    }
}
