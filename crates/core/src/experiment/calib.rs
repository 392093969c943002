//! Verifier-channel threshold calibration: an ROC-style sweep.
//!
//! The paper fixes the `CTest` decision rule at 30-of-60 positive rounds
//! for the RNG channel (§4.3). The `/lock`–`/check` memory-bus channel
//! (PAPERS.md, arxiv 2512.10361) has a *platform-dependent* noise floor,
//! so the same rule cannot be assumed — a threshold tuned on Cloud Run's
//! quiet bus false-positives on an Azure-like one. This driver measures
//! the trade-off empirically: it launches a fleet on the chosen platform,
//! runs repeated co-location tests over ground-truth co-located pairs
//! (positives) and separated pairs (negatives), and sweeps the
//! minimum-positive-rounds threshold over the recorded observations,
//! reporting a true-positive/false-positive rate per threshold and the
//! Youden-optimal operating point. `docs/PLATFORMS.md` tabulates the
//! calibrated thresholds; campaign grids run this as the `calibration`
//! experiment.

use eaao_cloudsim::ids::InstanceId;
use eaao_cloudsim::rng_unit::is_positive;
use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::platform::PlatformKind;
use eaao_orchestrator::world::World;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::verify::ctest::VerifierChannel;

/// Configuration of one calibration sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibConfig {
    /// Region to measure.
    pub region: String,
    /// Platform policy the fleet is placed under (sets the bus profile).
    pub platform: PlatformKind,
    /// Channel under calibration.
    pub channel: VerifierChannel,
    /// Fleet size to launch when hunting for ground-truth pairs.
    pub instances: usize,
    /// Repeated tests per class (co-located and separated).
    pub trials: usize,
    /// Measurement rounds per test (the paper uses 60).
    pub rounds: usize,
    /// Minimum-positive-rounds thresholds to sweep.
    pub thresholds: Vec<usize>,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            region: "us-west1".to_owned(),
            platform: PlatformKind::CloudRun,
            channel: VerifierChannel::MembusLockCheck,
            instances: 200,
            trials: 40,
            rounds: 60,
            thresholds: vec![6, 12, 18, 24, 30, 36, 42, 48, 54],
        }
    }
}

impl CalibConfig {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        CalibConfig {
            instances: 60,
            trials: 8,
            rounds: 30,
            thresholds: vec![3, 9, 15, 21, 27],
            ..CalibConfig::default()
        }
    }

    /// Runs the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the launch fails, if the fleet yields no ground-truth
    /// co-located pair (scale `instances` up), or if `thresholds` is
    /// empty or exceeds `rounds`.
    pub fn run(&self, seed: u64) -> CalibResult {
        assert!(!self.thresholds.is_empty(), "no thresholds to sweep");
        assert!(
            self.thresholds.iter().all(|&t| t > 0 && t <= self.rounds),
            "thresholds must be within 1..=rounds"
        );
        let mut world = World::new(
            region_config(&self.region).with_platform(self.platform),
            seed,
        );
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let launch = world.launch(service, self.instances).expect("within caps");
        let instances = launch.instances().to_vec();
        let pair = co_located_pair(&world, &instances);

        // Positive class: the checker sees one co-resident locker.
        // Negative class: a single-participant test — no co-resident
        // locker, which is by construction what a separated pair's
        // checker sees (channel noise only), with no dependence on the
        // platform actually spreading the fleet across hosts.
        let t0 = world.now();
        let positives: Vec<Vec<u32>> = (0..self.trials)
            .map(|_| observe(&mut world, self.channel, &pair, self.rounds))
            .collect();
        let negatives: Vec<Vec<u32>> = (0..self.trials)
            .map(|_| observe(&mut world, self.channel, &pair[..1], self.rounds))
            .collect();
        let wall_s = (world.now() - t0).as_secs_f64();

        // The observer needs m − 1 = 1 unit from others per positive round.
        let points: Vec<CalibPoint> = self
            .thresholds
            .iter()
            .map(|&threshold| {
                let tp = positives
                    .iter()
                    .filter(|o| is_positive(o, 1, threshold))
                    .count();
                let fp = negatives
                    .iter()
                    .filter(|o| is_positive(o, 1, threshold))
                    .count();
                CalibPoint {
                    min_positive_rounds: threshold,
                    tpr: tp as f64 / self.trials as f64,
                    fpr: fp as f64 / self.trials as f64,
                }
            })
            .collect();
        let chosen = points
            .iter()
            .max_by(|a, b| {
                (a.tpr - a.fpr)
                    .partial_cmp(&(b.tpr - b.fpr))
                    .expect("rates are finite")
                    // Prefer the *smaller* threshold on ties: it tolerates
                    // more dropout at the same separation.
                    .then(b.min_positive_rounds.cmp(&a.min_positive_rounds))
            })
            .expect("at least one threshold")
            .min_positive_rounds;

        CalibResult {
            region: self.region.clone(),
            platform: self.platform.name().to_owned(),
            channel: self.channel.name().to_owned(),
            rounds: self.rounds,
            trials: self.trials,
            wall_s,
            points,
            chosen_min_positive_rounds: chosen,
        }
    }
}

/// Finds a ground-truth co-located pair in a fleet.
///
/// # Panics
///
/// Panics if no two instances share a host (scale the fleet up).
fn co_located_pair(world: &World, instances: &[InstanceId]) -> [InstanceId; 2] {
    instances
        .iter()
        .enumerate()
        .find_map(|(i, &a)| {
            instances[i + 1..]
                .iter()
                .find(|&&b| world.host_of(a) == world.host_of(b))
                .map(|&b| [a, b])
        })
        .expect("fleet has a ground-truth co-located pair")
}

/// One observation of `participants[0]`'s view over the channel under
/// test.
fn observe(
    world: &mut World,
    channel: VerifierChannel,
    participants: &[InstanceId],
    rounds: usize,
) -> Vec<u32> {
    let mut obs = match channel {
        VerifierChannel::RngCtest => world.rng_covert_observations(participants, rounds),
        VerifierChannel::MembusLockCheck => world.membus_lock_observations(participants, rounds),
    }
    .expect("participants alive");
    obs.swap_remove(0)
}

/// One operating point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibPoint {
    /// The decision rule: rounds that must meet the contention threshold.
    pub min_positive_rounds: usize,
    /// True-positive rate over the co-located trials.
    pub tpr: f64,
    /// False-positive rate over the separated trials.
    pub fpr: f64,
}

/// The calibration result: an ROC curve plus the chosen operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibResult {
    /// Region measured.
    pub region: String,
    /// Platform name (canonical grid-axis form).
    pub platform: String,
    /// Channel name (canonical grid-axis form).
    pub channel: String,
    /// Rounds per test.
    pub rounds: usize,
    /// Trials per class.
    pub trials: usize,
    /// Simulated wall time the whole sweep's tests occupied, in seconds.
    pub wall_s: f64,
    /// One point per swept threshold, in sweep order.
    pub points: Vec<CalibPoint>,
    /// The Youden-optimal threshold (max `tpr − fpr`, smallest on ties).
    pub chosen_min_positive_rounds: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        let config = CalibConfig::quick();
        let a = config.run(7);
        let b = config.run(7);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes")
        );
    }

    #[test]
    fn chosen_threshold_separates_the_classes() {
        let result = CalibConfig::quick().run(11);
        let chosen = result
            .points
            .iter()
            .find(|p| p.min_positive_rounds == result.chosen_min_positive_rounds)
            .expect("chosen point is in the sweep");
        assert!(chosen.tpr > 0.9, "tpr {}", chosen.tpr);
        assert!(chosen.fpr < 0.1, "fpr {}", chosen.fpr);
    }

    #[test]
    fn extreme_thresholds_degenerate() {
        // A 1-round bar false-positives on background noise eventually; a
        // rounds-length bar false-negatives on dropout. The sweep exists
        // because the middle is where the classes separate.
        let config = CalibConfig {
            thresholds: vec![1, 15, 30],
            trials: 30,
            rounds: 30,
            ..CalibConfig::quick()
        };
        let result = config.run(13);
        let j: Vec<f64> = result.points.iter().map(|p| p.tpr - p.fpr).collect();
        assert!(result.points[0].fpr > result.points[1].fpr);
        assert!(result.points[1].tpr > result.points[2].tpr);
        assert!(j[1] > j[0] && j[1] > j[2], "J sweep {j:?}");
        assert_eq!(result.chosen_min_positive_rounds, 15);
    }

    #[test]
    fn rng_channel_calibrates_faster_than_bus() {
        let rng = CalibConfig {
            channel: VerifierChannel::RngCtest,
            ..CalibConfig::quick()
        }
        .run(17);
        let bus = CalibConfig::quick().run(17);
        assert!(
            bus.wall_s > rng.wall_s * 50.0,
            "bus {} rng {}",
            bus.wall_s,
            rng.wall_s
        );
    }

    #[test]
    fn platform_profiles_produce_distinct_curves() {
        // Same seed, same sweep — only the platform (and so the bus noise
        // floor) differs. The curves must not be byte-identical.
        let cloudrun = CalibConfig::quick().run(19);
        let azure = CalibConfig {
            platform: PlatformKind::AzureLike,
            ..CalibConfig::quick()
        }
        .run(19);
        assert_ne!(cloudrun.points, azure.points);
        assert_eq!(cloudrun.platform, "cloudrun");
        assert_eq!(azure.platform, "azure-like");
    }
}
