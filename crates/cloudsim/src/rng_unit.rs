//! The hardware random-number-generator contention medium.
//!
//! The paper's scalable co-location verification (Section 4.3) uses a
//! low-noise covert channel based on contention on the host's RNG
//! (`rdrand`/`rdseed` unit), following Evtyushkin & Ponomarev. The RNG is
//! rarely used by benign software, so background contention is observed in
//! under 1% of measurement rounds — which is what makes threshold-based
//! multi-party testing reliable.
//!
//! The model: during a test window, every participating instance on a host
//! pressures the shared unit, contributing one unit of contention per round.
//! Each participant observes, per round, the contention generated by the
//! *other* participants on its host, plus rare background blips, minus
//! occasional missed rounds when the observer is descheduled.

use eaao_simcore::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Per-host RNG-unit contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RngUnit {
    /// Probability that a round sees one unit of unrelated background
    /// contention (paper: "less than 1%").
    background_probability: f64,
    /// Probability that the observer misses a round (descheduled mid-round).
    dropout_probability: f64,
}

impl Default for RngUnit {
    fn default() -> Self {
        RngUnit {
            background_probability: 0.008,
            dropout_probability: 0.02,
        }
    }
}

impl RngUnit {
    /// Creates a unit with explicit noise parameters.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(background_probability: f64, dropout_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&background_probability),
            "background probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&dropout_probability),
            "dropout probability out of range"
        );
        RngUnit {
            background_probability,
            dropout_probability,
        }
    }

    /// A noiseless unit, useful for deterministic tests.
    pub fn noiseless() -> Self {
        RngUnit::new(0.0, 0.0)
    }

    /// Background-contention probability per round.
    pub fn background_probability(&self) -> f64 {
        self.background_probability
    }

    /// Simulates what one observer sees over `rounds` rounds while
    /// `co_pressuring` *other* instances on the same host pressure the unit.
    ///
    /// Returns the observed contention level (units) per round.
    pub fn observe_rounds(
        &self,
        co_pressuring: usize,
        rounds: usize,
        rng: &mut SimRng,
    ) -> Vec<u32> {
        eaao_obs::count("cloudsim.rng_rounds", rounds as u64);
        (0..rounds)
            .map(|_| {
                if rng.chance(self.dropout_probability) {
                    return 0;
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a co-pressuring count is bounded by one host's instance slots"
                )]
                let mut units = co_pressuring as u32;
                if rng.chance(self.background_probability) {
                    units += 1;
                }
                units
            })
            .collect()
    }
}

/// Decides whether an observation history is "positive": at least
/// `min_positive_rounds` of the rounds saw contention at or above
/// `threshold_units`.
///
/// The paper requires contention in at least 30 of 60 measurements with
/// threshold `m` (Section 4.4.1).
pub fn is_positive(observations: &[u32], threshold_units: u32, min_positive_rounds: usize) -> bool {
    observations
        .iter()
        .filter(|&&u| u >= threshold_units)
        .count()
        >= min_positive_rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_instance_sees_almost_nothing() {
        let unit = RngUnit::default();
        let mut rng = SimRng::seed_from(1);
        let obs = unit.observe_rounds(0, 10_000, &mut rng);
        let noisy = obs.iter().filter(|&&u| u >= 1).count();
        // Background rate < 1%.
        assert!(noisy < 120, "{noisy} noisy rounds out of 10000");
        assert!(!is_positive(&obs[..60], 1, 30));
    }

    #[test]
    fn co_located_pair_sees_contention() {
        let unit = RngUnit::default();
        let mut rng = SimRng::seed_from(2);
        // One other instance pressuring on the same host.
        let obs = unit.observe_rounds(1, 60, &mut rng);
        assert!(is_positive(&obs, 1, 30));
    }

    #[test]
    fn threshold_m_requires_m_co_located() {
        let unit = RngUnit::default();
        let mut rng = SimRng::seed_from(3);
        // Threshold of 2 units: a single co-located partner (1 unit) fails...
        let obs_one = unit.observe_rounds(1, 60, &mut rng);
        assert!(!is_positive(&obs_one, 2, 30));
        // ...but two partners (2 units) pass.
        let obs_two = unit.observe_rounds(2, 60, &mut rng);
        assert!(is_positive(&obs_two, 2, 30));
    }

    #[test]
    fn dropouts_reduce_but_rarely_flip() {
        let unit = RngUnit::new(0.0, 0.3);
        let mut rng = SimRng::seed_from(4);
        let obs = unit.observe_rounds(1, 60, &mut rng);
        // With 30% dropout, ~42 positive rounds expected; still over 30.
        assert!(is_positive(&obs, 1, 30));
    }

    #[test]
    fn noiseless_is_exact() {
        let unit = RngUnit::noiseless();
        let mut rng = SimRng::seed_from(5);
        let obs = unit.observe_rounds(3, 10, &mut rng);
        assert!(obs.iter().all(|&u| u == 3));
    }

    #[test]
    #[should_panic(expected = "background probability out of range")]
    fn rejects_bad_probability() {
        RngUnit::new(1.5, 0.0);
    }

    #[test]
    fn accessor() {
        assert_eq!(RngUnit::noiseless().background_probability(), 0.0);
    }
}
