//! The memory-bus contention medium: pairwise-testing baseline and the
//! `/lock`–`/check` verification channel.
//!
//! Prior placement studies (Varadarajan et al., building on Wu et al.'s
//! memory-bus covert channel) verify co-location pairwise: two instances
//! hammer the memory bus with atomic operations spanning cache lines and
//! watch each other's latency. The paper uses this as the *baseline* whose
//! quadratic cost motivates the scalable RNG-based method, noting a single
//! pairwise test takes on the order of seconds. [`MemoryBus`] models that
//! baseline: one opaque verdict per pairwise test.
//!
//! [`LockCheckProfile`] promotes the same physical medium into a real
//! multi-round channel, after the "Bit of a Close Talker" `/lock`–`/check`
//! primitive (PAPERS.md, arxiv 2512.10361): a `/lock` endpoint pins bus
//! locks from one instance while `/check` endpoints on candidate
//! co-residents time their own locked operations, round by round. The
//! observation shape is identical to [`RngUnit::observe_rounds`] — per
//! round, the checker counts the contention units the lockers generate —
//! but the noise floor is far worse and *platform-dependent*: the bus is a
//! busy shared resource, and how busy depends on how densely the platform
//! packs instances. The per-platform constructors encode that ordering;
//! the calibration experiment (`eaao-core`'s `calib`) sweeps the decision
//! threshold against each profile, ROC-style.
//!
//! The model mirrors [`RngUnit`] but with a noisier background (the memory
//! bus is a busy shared resource) and an explicit per-test latency used by
//! the cost accounting.
//!
//! [`RngUnit`]: crate::rng_unit::RngUnit
//! [`RngUnit::observe_rounds`]: crate::rng_unit::RngUnit::observe_rounds

use eaao_simcore::rng::SimRng;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-host memory-bus contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBus {
    /// Probability that a round sees a unit of unrelated traffic; the bus is
    /// far busier than the RNG unit.
    background_probability: f64,
    /// Wall time one pairwise bus test occupies (Varadarajan et al. report
    /// several seconds).
    test_latency: SimDuration,
}

impl Default for MemoryBus {
    fn default() -> Self {
        MemoryBus {
            background_probability: 0.08,
            test_latency: SimDuration::from_secs(3),
        }
    }
}

impl MemoryBus {
    /// Creates a bus with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]` or the latency is not
    /// positive.
    pub fn new(background_probability: f64, test_latency: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&background_probability),
            "background probability out of range"
        );
        assert!(test_latency.as_nanos() > 0, "latency must be positive");
        MemoryBus {
            background_probability,
            test_latency,
        }
    }

    /// Wall time one pairwise test occupies.
    pub fn test_latency(&self) -> SimDuration {
        self.test_latency
    }

    /// Runs one pairwise bus test between two instances.
    ///
    /// `co_located` is the ground truth; the result is the *observed*
    /// verdict, which can false-positive on background traffic (observed
    /// contention despite separate hosts) with a small probability.
    pub fn pairwise_test(&self, co_located: bool, rng: &mut SimRng) -> bool {
        eaao_obs::count("cloudsim.membus_tests", 1);
        if co_located {
            // Dedicated hammering across one bus is unmistakable.
            true
        } else {
            // A burst of third-party traffic on both hosts can masquerade as
            // contention; require it to persist, hence the squared term.
            rng.chance(self.background_probability * self.background_probability)
        }
    }
}

/// Noise model of the `/lock`–`/check` memory-bus verification channel
/// for one platform.
///
/// During a test window every *locker* instance pins memory-bus locks
/// (atomic operations spanning cache lines) while each *checker* times
/// its own locked operation per round; a slowed round counts the
/// contention units the co-resident lockers generate. Background traffic
/// is much higher than the RNG unit's (the bus is busy on any real
/// host), and higher still on platforms that pack instances densely —
/// which is why each platform gets its own profile rather than one
/// shared constant. The numbers are stylized from the Close Talker
/// measurements; `docs/PLATFORMS.md` tabulates them next to the
/// calibrated decision thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockCheckProfile {
    /// Probability that a round sees one unit of unrelated bus traffic.
    background_probability: f64,
    /// Probability that the checker misses a round (descheduled, or its
    /// HTTP-level probe times out).
    dropout_probability: f64,
    /// Wall time one `/lock`–`/check` round occupies. The channel runs
    /// over HTTP request handlers (a `/lock` hold plus a timed `/check`
    /// round trip), not a tight `rdrand` loop, so rounds cost hundreds of
    /// milliseconds — two orders of magnitude above an RNG-channel round.
    round_duration: SimDuration,
}

impl LockCheckProfile {
    /// A profile with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or the round
    /// duration is not positive.
    pub fn new(
        background_probability: f64,
        dropout_probability: f64,
        round_duration: SimDuration,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&background_probability),
            "background probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&dropout_probability),
            "dropout probability out of range"
        );
        assert!(
            round_duration.as_nanos() > 0,
            "round duration must be positive"
        );
        LockCheckProfile {
            background_probability,
            dropout_probability,
            round_duration,
        }
    }

    /// The Cloud-Run-like profile: moderate bus background at the
    /// paper's ~10.7 instances/host target density.
    pub fn cloudrun() -> Self {
        LockCheckProfile::new(0.05, 0.03, SimDuration::from_millis(250))
    }

    /// The Lambda-like profile: Firecracker hosts are packed denser, so
    /// the neighbor-generated bus floor is higher.
    pub fn lambda_like() -> Self {
        LockCheckProfile::new(0.10, 0.04, SimDuration::from_millis(250))
    }

    /// The Azure-like profile: the busiest bus of the three — long
    /// keep-alives keep many warm neighbors resident per host.
    pub fn azure_like() -> Self {
        LockCheckProfile::new(0.16, 0.06, SimDuration::from_millis(250))
    }

    /// Background-traffic probability per round.
    pub fn background_probability(&self) -> f64 {
        self.background_probability
    }

    /// Checker dropout probability per round.
    pub fn dropout_probability(&self) -> f64 {
        self.dropout_probability
    }

    /// Wall time one round occupies.
    pub fn round_duration(&self) -> SimDuration {
        self.round_duration
    }

    /// Simulates what one checker sees over `rounds` rounds while
    /// `co_locking` *other* instances on the same host pin the bus.
    ///
    /// Returns the observed contention level (units) per round — the
    /// same shape as [`RngUnit::observe_rounds`], so the threshold
    /// decision (`is_positive`) is shared between the channels.
    ///
    /// [`RngUnit::observe_rounds`]: crate::rng_unit::RngUnit::observe_rounds
    pub fn observe_lock_rounds(
        &self,
        co_locking: usize,
        rounds: usize,
        rng: &mut SimRng,
    ) -> Vec<u32> {
        eaao_obs::count("cloudsim.lockcheck_rounds", rounds as u64);
        (0..rounds)
            .map(|_| {
                if rng.chance(self.dropout_probability) {
                    return 0;
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a co-locking count is bounded by one host's instance slots"
                )]
                let mut units = co_locking as u32;
                if rng.chance(self.background_probability) {
                    units += 1;
                }
                units
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_unit::is_positive;

    #[test]
    fn co_located_always_detected() {
        let bus = MemoryBus::default();
        let mut rng = SimRng::seed_from(1);
        assert!((0..100).all(|_| bus.pairwise_test(true, &mut rng)));
    }

    #[test]
    fn separate_hosts_rarely_false_positive() {
        let bus = MemoryBus::default();
        let mut rng = SimRng::seed_from(2);
        let fp = (0..10_000)
            .filter(|_| bus.pairwise_test(false, &mut rng))
            .count();
        // 0.08^2 = 0.64% expected.
        assert!(fp < 120, "{fp} false positives in 10000");
    }

    #[test]
    fn latency_accessor() {
        assert_eq!(
            MemoryBus::default().test_latency(),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn rejects_zero_latency() {
        MemoryBus::new(0.1, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "background probability out of range")]
    fn rejects_bad_probability() {
        MemoryBus::new(-0.1, SimDuration::from_secs(1));
    }

    #[test]
    fn lockcheck_co_located_pair_reads_positive() {
        let profile = LockCheckProfile::cloudrun();
        let mut rng = SimRng::seed_from(6);
        let obs = profile.observe_lock_rounds(1, 60, &mut rng);
        assert!(is_positive(&obs, 1, 30));
    }

    #[test]
    fn lockcheck_background_scales_with_platform() {
        // The noise floor orders cloudrun < lambda-like < azure-like,
        // and every profile stays usable: a separated pair still reads
        // negative at the paper's 30-of-60 threshold.
        let profiles = [
            LockCheckProfile::cloudrun(),
            LockCheckProfile::lambda_like(),
            LockCheckProfile::azure_like(),
        ];
        for pair in profiles.windows(2) {
            assert!(pair[0].background_probability() < pair[1].background_probability());
        }
        let mut rng = SimRng::seed_from(7);
        for profile in profiles {
            let obs = profile.observe_lock_rounds(0, 60, &mut rng);
            assert!(!is_positive(&obs, 1, 30));
        }
    }

    #[test]
    fn lockcheck_rounds_are_slower_than_rng_rounds() {
        // /lock–/check runs over HTTP handlers: hundreds of milliseconds
        // per round, vs the RNG channel's ~1.67 ms rounds.
        for profile in [
            LockCheckProfile::cloudrun(),
            LockCheckProfile::lambda_like(),
            LockCheckProfile::azure_like(),
        ] {
            assert!(profile.round_duration() >= SimDuration::from_millis(100));
            assert!(profile.dropout_probability() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "round duration must be positive")]
    fn lockcheck_rejects_zero_round() {
        LockCheckProfile::new(0.1, 0.1, SimDuration::ZERO);
    }
}
