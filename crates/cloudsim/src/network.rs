//! The virtual private cloud (VPC) network layer.
//!
//! Classic cloud co-location attacks were *network-based*: Ristenpart et
//! al. (2009) used IP-address adjacency and small packet round-trip times
//! to find VMs sharing a host on EC2, and Xu et al. (2015) refreshed the
//! technique with network scanning. The paper's Section 1 and Section 7
//! explain why these are obsolete: the widespread adoption of VPCs
//! logically isolates each account's network, so addresses are private,
//! per-account, and say nothing about physical placement — which is what
//! forces the move to hardware fingerprints in the first place.
//!
//! This module models exactly that defeat: instances get addresses from
//! their *account's* VPC range (assigned sequentially, independent of
//! host), and probe RTTs are dominated by the overlay network rather than
//! physical proximity.

use eaao_simcore::dist::{LogNormal, Sample};
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::ids::AccountId;

/// A private IPv4 address inside a VPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VpcAddress {
    octets: [u8; 4],
}

impl VpcAddress {
    /// The RFC 1918 10.x.y.z address for an account's `index`-th instance.
    ///
    /// Each account gets a /16 inside 10.0.0.0/8 (keyed by account id);
    /// hosts within it are handed out sequentially — the layout says
    /// nothing about physical placement.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each `as u8` takes one octet of the address on purpose"
    )]
    pub fn assign(account: AccountId, index: u32) -> Self {
        let net = (account.as_raw() % 250) as u8;
        VpcAddress {
            octets: [10, net, (index >> 8) as u8, index as u8],
        }
    }

    /// The raw octets.
    pub fn octets(self) -> [u8; 4] {
        self.octets
    }

    /// Numeric distance between two addresses — the quantity the
    /// Ristenpart-style heuristic treats as a co-location signal.
    pub fn distance(self, other: VpcAddress) -> u32 {
        let a = u32::from_be_bytes(self.octets);
        let b = u32::from_be_bytes(other.octets);
        a.abs_diff(b)
    }
}

impl std::fmt::Display for VpcAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.octets;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// The VPC overlay's latency model.
///
/// In a pre-VPC data center, same-host packets skipped the wire and
/// returned in a few microseconds — the co-location tell. A VPC overlay
/// routes every packet through the virtual switch fabric; the paper's
/// premise is that this erases the physical-proximity signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VpcFabric {
    /// Median one-way fabric latency.
    median_rtt: SimDuration,
    /// Log-scale spread of the latency distribution.
    sigma: f64,
}

impl Default for VpcFabric {
    fn default() -> Self {
        VpcFabric {
            median_rtt: SimDuration::from_micros(180),
            sigma: 0.35,
        }
    }
}

impl VpcFabric {
    /// Creates a fabric with the given median RTT and spread.
    ///
    /// # Panics
    ///
    /// Panics if the median is not positive.
    pub fn new(median_rtt: SimDuration, sigma: f64) -> Self {
        assert!(median_rtt.as_nanos() > 0, "median must be positive");
        VpcFabric { median_rtt, sigma }
    }

    /// One probe RTT between two instances.
    ///
    /// `co_located` is accepted (the caller knows the ground truth) but —
    /// this is the point — does **not** influence the distribution: the
    /// overlay fabric routes same-host traffic through the same virtual
    /// switch path as cross-host traffic.
    pub fn probe_rtt(&self, co_located: bool, rng: &mut SimRng) -> SimDuration {
        let _ = co_located; // deliberately unused: the signal is gone
        let seconds = LogNormal::from_median(self.median_rtt.as_secs_f64(), self.sigma).sample(rng);
        SimDuration::from_secs_f64(seconds)
    }
}

/// The Ristenpart-style network heuristic: declare a pair co-located when
/// their addresses are close *and* the minimum probe RTT is small.
///
/// Returns the verdict the heuristic would emit. Against a VPC it is
/// uninformative by construction — the tests quantify exactly how.
pub fn network_heuristic_verdict(
    a: VpcAddress,
    b: VpcAddress,
    fabric: &VpcFabric,
    probes: usize,
    rng: &mut SimRng,
    co_located: bool,
) -> bool {
    let adjacent = a.distance(b) <= 8;
    let min_rtt = (0..probes)
        .map(|_| fabric.probe_rtt(co_located, rng))
        .min()
        .unwrap_or(SimDuration::MAX);
    adjacent && min_rtt < SimDuration::from_micros(120)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_account_scoped_and_sequential() {
        let a = AccountId::from_raw(1);
        let b = AccountId::from_raw(2);
        let a0 = VpcAddress::assign(a, 0);
        let a1 = VpcAddress::assign(a, 1);
        let b0 = VpcAddress::assign(b, 0);
        assert_eq!(a0.distance(a1), 1);
        assert_ne!(a0.octets()[1], b0.octets()[1], "accounts get distinct /16s");
        assert_eq!(a0.to_string(), format!("10.{}.0.0", a0.octets()[1]));
    }

    #[test]
    fn rtt_carries_no_co_location_signal() {
        let fabric = VpcFabric::default();
        let mut rng = SimRng::seed_from(1);
        let co: Vec<f64> = (0..4_000)
            .map(|_| fabric.probe_rtt(true, &mut rng).as_secs_f64())
            .collect();
        let not: Vec<f64> = (0..4_000)
            .map(|_| fabric.probe_rtt(false, &mut rng).as_secs_f64())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let diff = (mean(&co) - mean(&not)).abs() / mean(&not);
        assert!(diff < 0.05, "VPC leaked a {diff:.1}% RTT difference");
    }

    #[test]
    fn heuristic_has_no_predictive_power_on_vpc() {
        // Run the classic heuristic over simulated pairs with known ground
        // truth; its verdicts should be independent of the truth.
        let fabric = VpcFabric::default();
        let mut rng = SimRng::seed_from(2);
        let account = AccountId::from_raw(7);
        let mut true_positive = 0;
        let mut false_positive = 0;
        for i in 0..500u32 {
            let a = VpcAddress::assign(account, i);
            let b = VpcAddress::assign(account, i + 1); // adjacent addresses
            let truly_co_located = i % 2 == 0;
            let verdict = network_heuristic_verdict(a, b, &fabric, 10, &mut rng, truly_co_located);
            if verdict && truly_co_located {
                true_positive += 1;
            }
            if verdict && !truly_co_located {
                false_positive += 1;
            }
        }
        // Whatever it fires on, it fires equally on both classes.
        let gap = (true_positive as i64 - false_positive as i64).abs();
        assert!(
            gap <= 25,
            "heuristic separated the classes: TP {true_positive} vs FP {false_positive}"
        );
    }

    #[test]
    fn adjacency_is_an_artifact_of_launch_order_not_placement() {
        // Within one account, consecutive indices are adjacent regardless
        // of host — exactly why address adjacency stopped meaning anything.
        let account = AccountId::from_raw(3);
        for i in 0..100 {
            let d = VpcAddress::assign(account, i).distance(VpcAddress::assign(account, i + 1));
            assert_eq!(d, 1);
        }
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn fabric_rejects_zero_median() {
        VpcFabric::new(SimDuration::ZERO, 0.3);
    }
}
