//! Physical hosts.
//!
//! A host is the unit of co-location: instances on the same host share its
//! invariant TSC, its refined TSC frequency, its RNG unit, and its memory
//! bus. Each host carries the per-machine parameters that drive the paper's
//! fingerprints:
//!
//! * a boot time (maintenance reboots cluster fleet boot times),
//! * an actual TSC frequency `f* = f_nominal ∓ ε` (crystal error ε drives
//!   the Eq. 4.2 drift and fingerprint expiration),
//! * a refined frequency (what KVM exports to Gen 2 guests),
//! * a syscall-clock noise profile (normal vs problematic hosts),
//! * a popularity weight (how strongly the orchestrator's scoring favors
//!   this host; see `eaao-orchestrator`).
//!
//! Which instances run on a host is not host state: the orchestrator's
//! occupancy index records it.

use eaao_simcore::dist::{Exponential, LogNormal, Normal, Sample};
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::{SimDuration, SimTime};
use eaao_tsc::clocksource::ClockNoiseProfile;
use eaao_tsc::counter::InvariantTsc;
use eaao_tsc::freq::TscFrequency;
use eaao_tsc::refine::RefinedTscFrequency;

use crate::cpu::CpuModelId;
use crate::ids::HostId;
use crate::membus::MemoryBus;
use crate::rng_unit::RngUnit;

/// Parameters for generating a host population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostGenConfig {
    /// Minimum uptime at simulation start.
    pub min_uptime: SimDuration,
    /// Maximum uptime at simulation start.
    pub max_uptime: SimDuration,
    /// Mean uptime: uptimes are exponential (fleets reboot continuously,
    /// so recent boots dominate), clamped to the min/max range.
    pub mean_uptime: SimDuration,
    /// Fraction of hosts whose boot belongs to a maintenance wave (clustered
    /// boot times, the source of large-`p_boot` fingerprint collisions).
    pub wave_fraction: f64,
    /// Spacing of maintenance waves across the uptime range.
    pub wave_spacing: SimDuration,
    /// Scatter of a wave member around the wave instant: uniform over
    /// `[0, wave_scatter_s]`. Uniform (not heavy-tailed) scatter keeps
    /// sub-second boot collisions rare — the paper's fingerprints are
    /// near-perfect at `p_boot` = 1 s — while hosts of one wave still
    /// collide at 100–1000 s rounding.
    pub wave_scatter_s: f64,
    /// Fraction of hosts whose crystal error comes from the fast-drifting
    /// population.
    pub fast_drift_fraction: f64,
    /// Median |ε| of the slow-drifting population (Hz).
    pub slow_drift_median_hz: f64,
    /// Median |ε| of the fast-drifting population (Hz).
    pub fast_drift_median_hz: f64,
    /// Standard deviation of the kernel refinement measurement error (Hz).
    pub refine_error_std_hz: f64,
    /// Instance slots per host.
    pub capacity: usize,
    /// Per-round background-contention probability of the RNG covert
    /// medium (the paper measures < 1%; raise it for failure-injection
    /// studies of the verification methodology).
    pub rng_background_probability: f64,
    /// Per-round observer-dropout probability of the RNG covert medium.
    pub rng_dropout_probability: f64,
}

impl Default for HostGenConfig {
    fn default() -> Self {
        HostGenConfig {
            min_uptime: SimDuration::from_hours(1),
            max_uptime: SimDuration::from_days(60),
            mean_uptime: SimDuration::from_days(10),
            // Maintenance waves: fleets reboot in batches, clustering boot
            // times. Calibrated against Figure 4's precision drop at
            // p_boot ≥ 100 s (hosts sharing a wave collide after rounding).
            wave_fraction: 0.75,
            wave_spacing: SimDuration::from_hours(36),
            wave_scatter_s: 300.0,
            // Calibrated against Figure 5: ~10% of fingerprints expire by
            // ~2 days, roughly half within a week (p_boot = 1 s).
            fast_drift_fraction: 0.12,
            slow_drift_median_hz: 1_300.0,
            fast_drift_median_hz: 10_000.0,
            // Calibrated against §4.5: ~2 hosts share a refined value in an
            // 800-instance sample, Gen 2 precision ≈ 0.5.
            refine_error_std_hz: 800.0,
            // FaaS hosts are large multi-tenant machines packing hundreds
            // of 1-vCPU-class containers.
            capacity: 160,
            rng_background_probability: 0.008,
            rng_dropout_probability: 0.02,
        }
    }
}

/// A physical host in a data center.
#[derive(Debug, Clone)]
pub struct Host {
    id: HostId,
    cpu_model: CpuModelId,
    tsc: InvariantTsc,
    refined: RefinedTscFrequency,
    noise: ClockNoiseProfile,
    rng_unit: RngUnit,
    membus: MemoryBus,
    popularity: f64,
    epsilon_hz: f64,
    refine_rng: SimRng,
    refine_error_std_hz: f64,
}

impl Host {
    /// Generates a host with sampled per-machine parameters.
    ///
    /// `nominal` must be the nominal frequency of `cpu_model` in the owning
    /// catalog; `now` is the simulation time at generation (uptimes are
    /// sampled relative to it); `popularity` is the orchestrator scoring
    /// weight.
    pub fn generate(
        id: HostId,
        cpu_model: CpuModelId,
        nominal: TscFrequency,
        popularity: f64,
        now: SimTime,
        config: &HostGenConfig,
        rng: &mut SimRng,
    ) -> Self {
        let boot = Self::sample_boot_time(now, config, rng);
        let epsilon_hz = Self::sample_epsilon(config, rng);
        let actual = nominal.offset_by_hz(epsilon_hz);
        let mut refine_rng = rng.fork_labeled("refine");
        let refine_err = Normal::new(0.0, config.refine_error_std_hz).sample(&mut refine_rng);
        let refined = RefinedTscFrequency::refine(actual, refine_err);
        Host {
            id,
            cpu_model,
            tsc: InvariantTsc::new(boot, actual),
            refined,
            noise: ClockNoiseProfile::sample_host(rng),
            rng_unit: RngUnit::new(
                config.rng_background_probability,
                config.rng_dropout_probability,
            ),
            membus: MemoryBus::default(),
            popularity,
            epsilon_hz,
            refine_rng,
            refine_error_std_hz: config.refine_error_std_hz,
        }
    }

    fn sample_boot_time(now: SimTime, config: &HostGenConfig, rng: &mut SimRng) -> SimTime {
        let min = config.min_uptime.as_secs_f64();
        let max = config.max_uptime.as_secs_f64();
        // Recency-weighted uptime: continuous reprovisioning means most
        // hosts booted in the last couple of weeks.
        let raw = Exponential::from_mean(config.mean_uptime.as_secs_f64()).sample(rng);
        let mut uptime_s = if rng.chance(config.wave_fraction) {
            // Snap to the nearest maintenance wave, with scatter spread
            // uniformly through the wave window.
            let spacing = config.wave_spacing.as_secs_f64();
            let wave = (raw / spacing).round() * spacing;
            wave + rng.range_f64(0.0, config.wave_scatter_s)
        } else {
            raw
        };
        // Randomized clamping: a hard clamp would pile many hosts onto the
        // exact same boot instant, fabricating fingerprint collisions.
        if uptime_s < min {
            uptime_s = min + rng.range_f64(0.0, 600.0);
        } else if uptime_s > max {
            uptime_s = max - rng.range_f64(0.0, 600.0);
        }
        now - SimDuration::from_secs_f64(uptime_s)
    }

    fn sample_epsilon(config: &HostGenConfig, rng: &mut SimRng) -> f64 {
        let median = if rng.chance(config.fast_drift_fraction) {
            config.fast_drift_median_hz
        } else {
            config.slow_drift_median_hz
        };
        let magnitude = LogNormal::from_median(median, 0.8).sample(rng);
        if rng.chance(0.5) {
            magnitude
        } else {
            -magnitude
        }
    }

    /// The host id.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The CPU model installed in this host.
    pub fn cpu_model(&self) -> CpuModelId {
        self.cpu_model
    }

    /// The invariant TSC (boot time + actual frequency).
    pub fn tsc(&self) -> InvariantTsc {
        self.tsc
    }

    /// The host boot time.
    pub fn boot_time(&self) -> SimTime {
        self.tsc.boot_time()
    }

    /// The actual TSC frequency (nominal ∓ ε).
    pub fn actual_frequency(&self) -> TscFrequency {
        self.tsc.actual_frequency()
    }

    /// The nominal (labeled) frequency of this host's CPU model — what a
    /// mitigated platform presents to guests instead of the crystal's true
    /// rate.
    pub fn nominal_frequency(&self) -> TscFrequency {
        self.tsc.actual_frequency().offset_by_hz(-self.epsilon_hz)
    }

    /// The crystal error ε against the nominal frequency, in Hz (signed;
    /// positive means the crystal runs fast).
    pub fn epsilon_hz(&self) -> f64 {
        self.epsilon_hz
    }

    /// The kernel-refined frequency exported to Gen 2 guests.
    pub fn refined_frequency(&self) -> RefinedTscFrequency {
        self.refined
    }

    /// The syscall-clock noise profile.
    pub fn noise_profile(&self) -> ClockNoiseProfile {
        self.noise
    }

    /// The RNG-unit covert medium.
    pub fn rng_unit(&self) -> RngUnit {
        self.rng_unit
    }

    /// The memory-bus covert medium.
    pub fn memory_bus(&self) -> MemoryBus {
        self.membus
    }

    /// The orchestrator scoring weight.
    pub fn popularity(&self) -> f64 {
        self.popularity
    }

    /// Reboots the host at `now` for maintenance: the TSC zero point moves
    /// and the kernel re-runs frequency refinement (new measurement
    /// error). The instances it ran are the orchestrator's to displace.
    pub fn reboot(&mut self, now: SimTime) {
        self.tsc = self.tsc.rebooted_at(now);
        let refine_err = Normal::new(0.0, self.refine_error_std_hz).sample(&mut self.refine_rng);
        self.refined = RefinedTscFrequency::refine(self.tsc.actual_frequency(), refine_err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_host(seed: u64) -> Host {
        let mut rng = SimRng::seed_from(seed);
        Host::generate(
            HostId::from_raw(0),
            CpuModelId::from_index(0),
            TscFrequency::from_ghz(2.0),
            1.0,
            SimTime::ZERO,
            &HostGenConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn generated_host_is_consistent() {
        let h = test_host(1);
        assert_eq!(h.id(), HostId::from_raw(0));
        assert_eq!(h.cpu_model(), CpuModelId::from_index(0));
        assert!(
            h.boot_time() < SimTime::ZERO,
            "host booted before sim start"
        );
        let uptime = SimTime::ZERO - h.boot_time();
        assert!(uptime >= SimDuration::from_hours(1));
        assert!(uptime <= SimDuration::from_days(60) + SimDuration::from_secs(1));
        // ε is small relative to the nominal frequency.
        assert!(h.epsilon_hz().abs() < 10e6);
        assert!(
            (h.actual_frequency().as_hz() - 2e9).abs() < 10e6,
            "actual {}",
            h.actual_frequency()
        );
        assert!((h.popularity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_population_is_bimodal() {
        let mut rng = SimRng::seed_from(2);
        let config = HostGenConfig::default();
        let eps: Vec<f64> = (0..2_000)
            .map(|i| {
                Host::generate(
                    HostId::from_raw(i),
                    CpuModelId::from_index(0),
                    TscFrequency::from_ghz(2.0),
                    1.0,
                    SimTime::ZERO,
                    &config,
                    &mut rng,
                )
                .epsilon_hz()
                .abs()
            })
            .collect();
        let slow = eps.iter().filter(|&&e| e < 4_000.0).count();
        let fast = eps.iter().filter(|&&e| e >= 6_000.0).count();
        assert!(slow > 1_200, "slow population too small: {slow}");
        assert!(fast > 120, "fast population too small: {fast}");
    }

    #[test]
    fn reboot_moves_the_boot_and_rerefines() {
        let mut h = test_host(7);
        let old_boot = h.boot_time();
        let old_freq = h.actual_frequency();
        let reboot_at = SimTime::from_days(3);
        h.reboot(reboot_at);
        assert_eq!(h.boot_time(), reboot_at);
        assert_ne!(h.boot_time(), old_boot);
        // Crystal frequency survives the reboot.
        assert_eq!(h.actual_frequency(), old_freq);
    }

    #[test]
    fn wave_hosts_cluster_boot_times() {
        // With 100% wave fraction and zero-ish scatter, boot times land on a
        // coarse grid.
        let config = HostGenConfig {
            wave_fraction: 1.0,
            wave_scatter_s: 1.0,
            ..HostGenConfig::default()
        };
        let mut rng = SimRng::seed_from(8);
        let boots: Vec<i64> = (0..200)
            .map(|i| {
                Host::generate(
                    HostId::from_raw(i),
                    CpuModelId::from_index(0),
                    TscFrequency::from_ghz(2.0),
                    1.0,
                    SimTime::ZERO,
                    &config,
                    &mut rng,
                )
                .boot_time()
                .as_nanos()
            })
            .collect();
        // Count collisions at 10-minute rounding: waves every 6 h over 60
        // days give ~240 buckets for 200 hosts, so collisions abound.
        let mut rounded: Vec<i64> = boots
            .iter()
            .map(|&b| {
                SimTime::from_nanos(b)
                    .round_to(SimDuration::from_mins(10))
                    .as_nanos()
            })
            .collect();
        rounded.sort_unstable();
        rounded.dedup();
        assert!(
            rounded.len() < 190,
            "expected clustered boots, got {} distinct buckets",
            rounded.len()
        );
    }
}
