//! Region and placement configuration.
//!
//! [`RegionConfig`] describes one data center as the experiments see it;
//! the presets model the three US regions the paper studies. Host counts
//! are chosen so that the paper's exploration experiment (Figure 12)
//! discovers populations of the same order it reports: 474 apparent hosts
//! in us-east1, 1702 in us-central1, and 199 in us-west1.
//!
//! [`PlacementConfig`] collects the orchestrator tunables that the paper
//! reverse-engineers in Section 5.1 (Observations 1–6). The defaults are
//! calibrated against Figures 6–10; the `ablations` registry row
//! (`eaao repro ablations`) sweeps the demand window and, on
//! [`RegionConfig`], the popularity exponent.

use eaao_cloudsim::host::HostGenConfig;
use eaao_cloudsim::mitigation::TscMitigation;
use eaao_cloudsim::pricing::Rates;
use eaao_simcore::time::SimDuration;

use crate::platform::PlatformKind;

/// Description of a simulated region (data center).
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Region name, e.g. `"us-east1"`.
    pub name: String,
    /// Number of physical hosts in the serving pool.
    pub host_count: usize,
    /// Zipf exponent of host popularity (how concentrated the
    /// orchestrator's scoring is).
    pub popularity_exponent: f64,
    /// Host-generation parameters.
    pub host_config: HostGenConfig,
    /// Whether placement is dynamic (us-central1): a fraction of every
    /// launch lands outside the account's base hosts even from a cold state.
    pub dynamic_placement: bool,
    /// Billing rates.
    pub rates: Rates,
    /// Platform-side TSC mitigation (Section 6). The paper's platforms run
    /// unmitigated.
    pub tsc_mitigation: TscMitigation,
    /// Placement tunables.
    pub placement: PlacementConfig,
    /// Which platform's placement policy the default `World` builds
    /// (see [`crate::platform`]). The paper's regions are all Cloud Run;
    /// campaign grids override this to sweep the platform axis.
    pub platform: PlatformKind,
}

impl RegionConfig {
    /// A region preset in the style of us-east1 (medium pool, static
    /// placement).
    pub fn us_east1() -> Self {
        RegionConfig::preset("us-east1", 520, false)
    }

    /// A region preset in the style of us-central1 (the largest pool,
    /// dynamic placement).
    ///
    /// Dynamic placement pairs with much larger scheduling cells: an
    /// account's base pool is broad and every launch draws a fresh subset
    /// of it, which is why the paper sees instances move across hosts
    /// between launches and lower attack coverage (61–90%) there.
    pub fn us_central1() -> Self {
        let mut config = RegionConfig::preset("us-central1", 2_000, true);
        config.placement.cell_size = 330;
        config.placement.base_hosts_per_account = 300;
        config.placement.helper_host_max = 600;
        config
    }

    /// A region preset in the style of us-west1 (small pool, static
    /// placement).
    pub fn us_west1() -> Self {
        RegionConfig::preset("us-west1", 205, false)
    }

    /// The three presets the paper evaluates, in paper order.
    pub fn paper_regions() -> Vec<RegionConfig> {
        vec![
            RegionConfig::us_east1(),
            RegionConfig::us_central1(),
            RegionConfig::us_west1(),
        ]
    }

    fn preset(name: &str, host_count: usize, dynamic_placement: bool) -> Self {
        RegionConfig {
            name: name.to_owned(),
            host_count,
            popularity_exponent: 1.25,
            host_config: HostGenConfig::default(),
            dynamic_placement,
            rates: Rates::us_tier1(),
            tsc_mitigation: TscMitigation::None,
            placement: PlacementConfig::default(),
            platform: PlatformKind::CloudRun,
        }
    }

    /// Returns the config with a different host count (for scaled-down
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `host_count` is zero.
    pub fn with_hosts(mut self, host_count: usize) -> Self {
        assert!(host_count > 0, "need at least one host");
        self.host_count = host_count;
        self
    }

    /// Returns the config with different placement tunables.
    pub fn with_placement(mut self, placement: PlacementConfig) -> Self {
        self.placement = placement;
        self
    }

    /// Returns the config with a platform TSC mitigation deployed
    /// (Section 6).
    pub fn with_tsc_mitigation(mut self, mitigation: TscMitigation) -> Self {
        self.tsc_mitigation = mitigation;
        self
    }

    /// Returns the config with a different placement-policy platform
    /// (see [`crate::platform`]).
    pub fn with_platform(mut self, platform: PlatformKind) -> Self {
        self.platform = platform;
        self
    }
}

/// Orchestrator placement tunables (the knobs behind Observations 1–6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Hosts per scheduling cell. Accounts hash to a cell; an account's
    /// base hosts are the most popular hosts of its cell (Observations 3–4:
    /// per-account base hosts, bimodal overlap between accounts).
    pub cell_size: usize,
    /// Base hosts per account within its cell.
    pub base_hosts_per_account: usize,
    /// Target instances per host when spreading a launch (Observation 1:
    /// 800 instances land on ~75 hosts ⇒ ≈ 10.7 per host).
    pub target_density: f64,
    /// Idle grace period before any termination (Figure 6: flat for
    /// ~2 minutes).
    pub idle_grace: SimDuration,
    /// Spread of gradual idle termination after the grace period
    /// (Figure 6: almost all gone by ~12 minutes).
    pub idle_termination_spread: SimDuration,
    /// Hard idle cap (Cloud Run contract: 15 minutes).
    pub idle_hard_cap: SimDuration,
    /// Demand-window length for the load balancer (Observation 5:
    /// ~30 minutes).
    pub demand_window: SimDuration,
    /// Minimum launch size that counts as "high demand".
    pub hot_launch_threshold: usize,
    /// Maximum helper hosts a single hot service can accumulate.
    pub helper_host_max: usize,
    /// Saturation rate of helper exploration: the helper-host target after
    /// `p` launches of pressure is `helper_host_max · (1 − decay^p)`.
    pub helper_decay: f64,
    /// Mean restart interval of a long-running connected instance (platform
    /// churn: redeployments, preemptions). Restarted instances may land on
    /// a different host, truncating fingerprint histories (Section 4.4.2).
    pub instance_restart_mean: SimDuration,
    /// Co-location-resistant scheduling (Section 6, after Azar et al.):
    /// ignore base-host affinity and helper load balancing and place every
    /// launch on a uniformly random host subset instead.
    pub co_location_resistant: bool,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            cell_size: 110,
            base_hosts_per_account: 90,
            target_density: 10.7,
            // "Preserved in the first two minutes" is approximate: a
            // trickle of terminations starts just before the 2-minute mark,
            // which is what leaves ~12 new hosts at 2-minute launch
            // intervals (Experiment 4).
            idle_grace: SimDuration::from_secs(105),
            idle_termination_spread: SimDuration::from_secs(615),
            idle_hard_cap: SimDuration::from_mins(15),
            demand_window: SimDuration::from_mins(30),
            hot_launch_threshold: 100,
            helper_host_max: 260,
            helper_decay: 0.55,
            instance_restart_mean: SimDuration::from_days(5),
            co_location_resistant: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_ordering() {
        let east = RegionConfig::us_east1();
        let central = RegionConfig::us_central1();
        let west = RegionConfig::us_west1();
        assert_eq!(east.name, "us-east1");
        assert!(central.host_count > east.host_count);
        assert!(east.host_count > west.host_count);
        assert!(central.dynamic_placement);
        assert!(!east.dynamic_placement);
        assert!(!west.dynamic_placement);
        assert_eq!(RegionConfig::paper_regions().len(), 3);
    }

    #[test]
    fn with_hosts_scales_down() {
        let small = RegionConfig::us_east1().with_hosts(40);
        assert_eq!(small.host_count, 40);
        assert_eq!(small.name, "us-east1");
    }

    #[test]
    #[should_panic(expected = "need at least one host")]
    fn with_hosts_rejects_zero() {
        let _ = RegionConfig::us_east1().with_hosts(0);
    }

    #[test]
    fn default_placement_matches_observations() {
        let p = PlacementConfig::default();
        // Observation 1: ~10-11 instances per host.
        assert!((800.0 / p.target_density).round() as usize == 75);
        // Figure 6 timings: flat for ~2 minutes, all gone by ~12.
        assert!(p.idle_grace >= SimDuration::from_secs(90));
        assert!(p.idle_grace <= SimDuration::from_mins(2));
        assert!(p.idle_grace + p.idle_termination_spread <= p.idle_hard_cap);
        // Observation 5 window.
        assert_eq!(p.demand_window, SimDuration::from_mins(30));
    }

    #[test]
    fn with_placement_overrides() {
        let p = PlacementConfig {
            helper_host_max: 10,
            ..PlacementConfig::default()
        };
        let cfg = RegionConfig::us_west1().with_placement(p);
        assert_eq!(cfg.placement.helper_host_max, 10);
    }
}
