//! Figure 6 — idle-instance termination (Experiment 1, Observation 2).
//!
//! Launch 800 instances, disconnect, and count surviving idle instances
//! over time. Cloud Run preserves them for ~2 minutes, then terminates
//! gradually; practically all are gone ~12 minutes after disconnecting,
//! within the documented 15-minute cap.

use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::series::Series;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;

/// Configuration for the Figure 6 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig06Config {
    /// Region to measure.
    pub region: String,
    /// Instances to launch and abandon.
    pub instances: usize,
    /// Observation window after disconnecting.
    pub watch: SimDuration,
    /// Sampling period.
    pub sample_every: SimDuration,
}

impl Default for Fig06Config {
    fn default() -> Self {
        Fig06Config {
            region: "us-east1".to_owned(),
            instances: 800,
            watch: SimDuration::from_mins(16),
            sample_every: SimDuration::from_secs(15),
        }
    }
}

impl Fig06Config {
    /// A scaled-down configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        Fig06Config {
            region: "us-west1".to_owned(),
            instances: 120,
            ..Fig06Config::default()
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if the launch fails.
    pub fn run(&self, seed: u64) -> Fig06Result {
        let mut world = World::new(region_config(&self.region), seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        world.launch(service, self.instances).expect("within caps");
        world.advance(SimDuration::from_secs(30));
        world.disconnect_all(service);

        let mut idle = Series::new("idle instances");
        let steps = self.watch.div_duration(self.sample_every);
        for step in 0..=steps {
            let minutes = (step * self.sample_every.as_nanos()) as f64 / 60e9;
            idle.push(minutes, world.alive_count(service) as f64);
            world.advance(self.sample_every);
        }
        Fig06Result {
            region: self.region.clone(),
            launched: self.instances,
            idle_over_time: idle,
        }
    }
}

/// The Figure 6 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig06Result {
    /// Region measured.
    pub region: String,
    /// Instances launched.
    pub launched: usize,
    /// Surviving idle instances vs minutes since disconnecting.
    pub idle_over_time: Series,
}

impl Fig06Result {
    /// Surviving instances at (the sample nearest to) `minutes`.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn survivors_at(&self, minutes: f64) -> f64 {
        self.idle_over_time
            .points()
            .iter()
            .min_by(|a, b| {
                (a.0 - minutes)
                    .abs()
                    .partial_cmp(&(b.0 - minutes).abs())
                    .expect("finite")
            })
            .expect("non-empty series")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_termination_shape() {
        let result = Fig06Config::quick().run(21);
        let n = result.launched as f64;
        // Preserved through (approximately) the first two minutes.
        assert_eq!(result.survivors_at(0.0), n);
        assert_eq!(result.survivors_at(1.5), n);
        assert!(result.survivors_at(2.0) >= 0.93 * n);
        // Gradual decline in between.
        let mid = result.survivors_at(7.0);
        assert!(mid > 0.0 && mid < n, "midpoint {mid}");
        // Practically all gone by ~12 minutes.
        assert_eq!(result.survivors_at(12.5), 0.0);
    }

    #[test]
    fn series_is_monotone_decreasing() {
        let result = Fig06Config::quick().run(22);
        let ys = result.idle_over_time.ys();
        assert!(ys.windows(2).all(|w| w[1] <= w[0]));
    }
}
