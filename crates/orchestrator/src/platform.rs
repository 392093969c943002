//! The placement-policy families: CloudRun, Lambda-like, Azure-like.
//!
//! The paper reverse-engineers exactly one orchestrator (Cloud Run,
//! Section 5.1), but the attack pipeline — launch many, fingerprint,
//! verify — is platform-agnostic: "Bit of a Close Talker" runs the same
//! shape against AWS Lambda and Azure Functions, and the Placement
//! Vulnerability Study treats the placement policy itself as the variable
//! under attack. [`PlatformPolicy`] is the closed set of the three policy
//! families the literature measures, one enum variant each:
//!
//! * [`CloudRunPolicy`] — the paper's base-host / helper-host policy,
//!   unchanged (the `eaao-oracle` differential suite pins its
//!   trajectories byte-identical).
//! * [`LambdaLikePolicy`] — bin-packing with per-account sandbox
//!   partitioning and **no** helper-host spill: AWS places a customer's
//!   Firecracker microVMs densely on hosts claimed for that account and
//!   never co-schedules two accounts on one claimed host (the Close
//!   Talker paper's Lambda sections; cross-*account* co-location is not
//!   part of this policy's attack surface, cross-*function* within an
//!   account very much is).
//! * [`AzureLikePolicy`] — aggressive instance reuse: per-service host
//!   affinity packs repeat launches back onto warm hosts, and the idle
//!   keep-alive window is far longer than Cloud Run's 15-minute contract
//!   (the Close Talker paper's Azure sections report instances surviving
//!   idle far past the other platforms).
//!
//! [`PlatformPolicy::build`] picks the variant [`RegionConfig::platform`]
//! names, so campaign grids sweep platforms through one `World` type.
//!
//! Paper-section map: the enum's methods correspond to the §4 attack
//! pipeline's platform assumptions (launch → place → idle-reap), the
//! CloudRun variant to §5.1 Observations 1–6, and the Lambda/Azure
//! variants to the Close Talker paper's AWS and Azure placement findings
//! (PAPERS.md, arxiv 2512.10361).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::{AccountId, HostId, ServiceId};
use eaao_cloudsim::membus::LockCheckProfile;
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::SimDuration;
use eaao_simcore::wsample::{sample_distinct_excluding, IndexSampler};

use crate::config::{PlacementConfig, RegionConfig};
use crate::engine::{CapacityIndex, Engine, OptimizedEngine};
use crate::occupancy::Occupancy;
use crate::placement::{CloudRunPolicy, PlacementPlan};

/// The platform families a region can model, by name.
///
/// `cloudrun` is the paper's subject; `lambda-like` and `azure-like`
/// follow the Close Talker measurements of AWS Lambda and Azure
/// Functions. Campaign grids sweep this as the `platform` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlatformKind {
    /// Cloud Run: base hosts per account, helper-host spill under load,
    /// 15-minute idle contract (the paper's §5.1 policy).
    CloudRun,
    /// AWS-Lambda-like: per-account sandbox partitioning, bin-packing,
    /// no helper spill.
    LambdaLike,
    /// Azure-Functions-like: reuse-biased scheduling with per-service
    /// host affinity and a much longer idle keep-alive.
    AzureLike,
}

// Serialized as the canonical grid-axis name, by hand — the vendored
// serde derive has no `#[serde(rename)]`.
impl serde::Serialize for PlatformKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_owned())
    }
}

impl serde::Deserialize for PlatformKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let text = v.as_str().ok_or_else(|| {
            serde::Error::custom(format!("expected platform name, got {}", v.kind()))
        })?;
        PlatformKind::parse(text)
            .ok_or_else(|| serde::Error::custom(format!("unknown platform {text:?}")))
    }
}

impl PlatformKind {
    /// Every platform, in canonical grid order.
    pub const ALL: [PlatformKind; 3] = [
        PlatformKind::CloudRun,
        PlatformKind::LambdaLike,
        PlatformKind::AzureLike,
    ];

    /// The canonical grid-axis name (`cloudrun`, `lambda-like`,
    /// `azure-like`).
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::CloudRun => "cloudrun",
            PlatformKind::LambdaLike => "lambda-like",
            PlatformKind::AzureLike => "azure-like",
        }
    }

    /// Parses a canonical name; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `/lock`–`/check` memory-bus channel noise profile of this
    /// platform (per-platform background traffic; see
    /// [`LockCheckProfile`] and `docs/PLATFORMS.md`).
    pub fn lockcheck_profile(self) -> LockCheckProfile {
        match self {
            PlatformKind::CloudRun => LockCheckProfile::cloudrun(),
            PlatformKind::LambdaLike => LockCheckProfile::lambda_like(),
            PlatformKind::AzureLike => LockCheckProfile::azure_like(),
        }
    }
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The idle-lifecycle parameters a policy hands the reaper: how long an
/// idle instance survives before gradual termination.
///
/// [`PlatformPolicy::keep_alive`] passes the region's
/// [`PlacementConfig`] through (Cloud Run's Figure 6 timings) on every
/// platform but Azure-like, which stretches them — that is what makes
/// its warm-reuse rate observably higher under the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepAlive {
    /// Grace period before any idle termination.
    pub idle_grace: SimDuration,
    /// Spread of the gradual termination after the grace period.
    pub idle_termination_spread: SimDuration,
    /// Hard cap on total idle survival.
    pub idle_hard_cap: SimDuration,
}

impl KeepAlive {
    /// The passthrough mapping from a region's placement config.
    pub fn from_config(config: &PlacementConfig) -> Self {
        KeepAlive {
            idle_grace: config.idle_grace,
            idle_termination_spread: config.idle_termination_spread,
            idle_hard_cap: config.idle_hard_cap,
        }
    }
}

/// What [`World`](crate::world::World) schedules with: the placement
/// policy of the platform family [`RegionConfig::platform`] names.
///
/// Every policy is deterministic: every random decision draws from the
/// `SimRng` handed to [`build`](PlatformPolicy::build), in an order that
/// depends only on the call sequence. The engine contract carries over:
/// the same policy on two different engines must consume identical RNG
/// streams (the differential-oracle surface).
///
/// A clone captures the full policy state (caches, claims, affinity, RNG
/// position), so [`World::branch`](crate::world::World::branch) can fork
/// a world mid-run and the branch and an un-branched original replay
/// identically.
#[derive(Debug)]
pub enum PlatformPolicy<E: Engine = OptimizedEngine> {
    /// The paper's Cloud Run policy.
    CloudRun(CloudRunPolicy<E>),
    /// The Lambda-like partitioned bin-packer.
    LambdaLike(LambdaLikePolicy<E>),
    /// The Azure-like reuse-biased scheduler.
    AzureLike(AzureLikePolicy<E>),
}

// Manual impl: `derive(Clone)` would demand `E: Clone`.
impl<E: Engine> Clone for PlatformPolicy<E> {
    fn clone(&self) -> Self {
        match self {
            PlatformPolicy::CloudRun(p) => PlatformPolicy::CloudRun(p.clone()),
            PlatformPolicy::LambdaLike(p) => PlatformPolicy::LambdaLike(p.clone()),
            PlatformPolicy::AzureLike(p) => PlatformPolicy::AzureLike(p.clone()),
        }
    }
}

impl<E: Engine> PlatformPolicy<E> {
    /// Builds the policy [`RegionConfig::platform`] names for a data
    /// center. `rng` is the policy's private stream, pre-forked by the
    /// world (label `"policy"`).
    pub fn build(dc: &DataCenter, region: &RegionConfig, rng: SimRng) -> Self {
        match region.platform {
            // The CloudRun arm hands `rng` through untouched, so the
            // default world's RNG stream is the one `CloudRunPolicy::new`
            // always drew from (oracle byte-identity).
            PlatformKind::CloudRun => PlatformPolicy::CloudRun(CloudRunPolicy::new(
                dc,
                region.placement,
                region.dynamic_placement,
                rng,
            )),
            PlatformKind::LambdaLike => PlatformPolicy::LambdaLike(LambdaLikePolicy::new(dc, rng)),
            PlatformKind::AzureLike => PlatformPolicy::AzureLike(AzureLikePolicy::new(dc, rng)),
        }
    }

    /// Number of scheduling cells (capacity-index granularity).
    pub fn cell_count(&self) -> usize {
        match self {
            PlatformPolicy::CloudRun(p) => p.cell_count(),
            // No scheduling cells: Lambda-like's account partition is
            // dynamic (claims grow over time), Azure-like has none.
            PlatformPolicy::LambdaLike(_) | PlatformPolicy::AzureLike(_) => 1,
        }
    }

    /// The scheduling cell of each host (`map[h]` is host `h`'s cell).
    pub fn host_cells(&self) -> Vec<u32> {
        match self {
            PlatformPolicy::CloudRun(p) => p.host_cells(),
            PlatformPolicy::LambdaLike(p) => vec![0; p.pop_sampler.len()],
            PlatformPolicy::AzureLike(p) => vec![0; p.pop_sampler.len()],
        }
    }

    /// The hosts this policy prefers for an account (base hosts on
    /// CloudRun, claimed sandbox hosts on Lambda-like, seen hosts on
    /// Azure-like) — simulation-side introspection for placement
    /// analyses.
    pub fn base_hosts(&mut self, account: AccountId) -> &[HostId] {
        match self {
            PlatformPolicy::CloudRun(p) => p.base_hosts(account),
            PlatformPolicy::LambdaLike(p) => p.claims.entry(account).or_default(),
            PlatformPolicy::AzureLike(p) => p.seen.entry(account).or_default(),
        }
    }

    /// Plans placement of `need_new` new instances against `capacity`'s
    /// planning overlay (tentative only; committing is the caller's
    /// job), querying it with the world's `occupancy`. `pressure` is the
    /// service's demand pressure; only Cloud Run's load balancer reads
    /// it.
    pub fn plan(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        service: ServiceId,
        account: AccountId,
        need_new: usize,
        pressure: usize,
    ) -> PlacementPlan {
        match self {
            PlatformPolicy::CloudRun(p) => {
                p.plan(occupancy, capacity, service, account, need_new, pressure)
            }
            PlatformPolicy::LambdaLike(p) => p.plan(occupancy, capacity, account, need_new),
            PlatformPolicy::AzureLike(p) => p.plan(occupancy, capacity, service, account, need_new),
        }
    }

    /// The idle-lifecycle parameters the reaper should use: the region's
    /// configured (Cloud Run) timings, stretched by
    /// [`AZURE_KEEP_ALIVE_FACTORS`] on Azure-like.
    pub fn keep_alive(&self, config: &PlacementConfig) -> KeepAlive {
        match self {
            PlatformPolicy::AzureLike(_) => {
                let (grace, spread, cap) = AZURE_KEEP_ALIVE_FACTORS;
                KeepAlive {
                    idle_grace: config.idle_grace * grace,
                    idle_termination_spread: config.idle_termination_spread * spread,
                    idle_hard_cap: config.idle_hard_cap * cap,
                }
            }
            PlatformPolicy::CloudRun(_) | PlatformPolicy::LambdaLike(_) => {
                KeepAlive::from_config(config)
            }
        }
    }
}

/// AWS-Lambda-like placement: per-account sandbox partitioning with
/// bin-packing and no helper-host spill.
///
/// Lambda runs customer code in per-account Firecracker sandboxes: a
/// host claimed for one account serves only that account, and the
/// scheduler packs an account's instances densely onto its claimed
/// hosts before claiming fresh ones. Consequences the divergence tests
/// pin down: two accounts never share a host (the cross-account attack
/// of the paper is structurally impossible), a single account's fleet
/// occupies *few* hosts (density ≈ host capacity, not
/// `target_density`), and demand pressure causes no helper-host
/// exploration.
pub struct LambdaLikePolicy<E: Engine = OptimizedEngine> {
    rng: SimRng,
    /// Popularity sampler over the pool. Never written: fresh claims
    /// exclude `owned` on the fly, so every branch keeps sharing the
    /// data center's genesis lanes.
    pop_sampler: E::Sampler,
    /// Per-account claimed hosts, in claim (bin-packing fill) order.
    claims: BTreeMap<AccountId, Vec<HostId>>,
    /// Every claimed host, across all accounts (claims are never
    /// released).
    owned: BTreeSet<HostId>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`.
impl<E: Engine> Clone for LambdaLikePolicy<E> {
    fn clone(&self) -> Self {
        LambdaLikePolicy {
            rng: self.rng.clone(),
            pop_sampler: self.pop_sampler.clone(),
            claims: self.claims.clone(),
            owned: self.owned.clone(),
        }
    }
}

impl<E: Engine> fmt::Debug for LambdaLikePolicy<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LambdaLikePolicy")
            .field("accounts", &self.claims.len())
            .field("owned_hosts", &self.owned.len())
            .finish_non_exhaustive()
    }
}

impl<E: Engine> LambdaLikePolicy<E> {
    fn new(dc: &DataCenter, rng: SimRng) -> Self {
        // Closed-form genesis lane: no host is materialized here, and
        // the optimized engine shares the pool's cached sampler lanes.
        LambdaLikePolicy {
            rng,
            pop_sampler: E::popularity_sampler(dc),
            claims: BTreeMap::new(),
            owned: BTreeSet::new(),
        }
    }

    /// Claims the most attractive unclaimed host (popularity-weighted),
    /// or `None` when every host is claimed.
    fn claim_fresh(&mut self, account: AccountId) -> Option<HostId> {
        let owned: Vec<usize> = self.owned.iter().map(|h| h.as_usize()).collect();
        let picks = sample_distinct_excluding(&self.pop_sampler, 1, &owned, &mut self.rng);
        let &i = picks.first()?;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
        )]
        let host = HostId::from_raw(i as u32);
        self.owned.insert(host);
        self.claims.entry(account).or_default().push(host);
        Some(host)
    }

    fn plan(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        account: AccountId,
        need_new: usize,
    ) -> PlacementPlan {
        if need_new == 0 {
            return Vec::new();
        }
        eaao_obs::count("placement.plans", 1);
        eaao_obs::observe("placement.plan_size", need_new as u64);
        capacity.begin_plan();
        let mut plan = Vec::with_capacity(need_new);
        // Bin-pack the account's claimed hosts first, in claim order.
        let claimed = self.claims.entry(account).or_default().clone();
        'packed: for host in claimed {
            while capacity.plan_take(host, occupancy) {
                plan.push(host);
                if plan.len() == need_new {
                    break 'packed;
                }
            }
        }
        // Claim fresh (unclaimed-by-anyone) hosts for the remainder. A
        // short plan means the *partition* is exhausted, not the pool:
        // another account's free slots are out of bounds by design.
        while plan.len() < need_new {
            let Some(host) = self.claim_fresh(account) else {
                break;
            };
            while capacity.plan_take(host, occupancy) {
                plan.push(host);
                if plan.len() == need_new {
                    break;
                }
            }
        }
        capacity.end_plan();
        plan
    }
}

/// Azure-Functions-like placement: reuse-biased scheduling with
/// per-service host affinity and a stretched idle keep-alive.
///
/// Azure keeps function instances warm far longer than Cloud Run's
/// 15-minute contract and routes repeat invocations back onto hosts the
/// function already occupies. Modeled as: fill the service's affinity
/// hosts to capacity first, claim popularity-weighted fresh hosts for
/// any remainder (remembering them for next time), and stretch every
/// idle-reaper timing via [`PlatformPolicy::keep_alive`]. The
/// divergence tests pin the consequence: after an idle gap that kills a
/// Cloud Run fleet entirely, an Azure-like fleet still reuses warm
/// instances.
pub struct AzureLikePolicy<E: Engine = OptimizedEngine> {
    rng: SimRng,
    /// Popularity sampler; never written, exclusion-aware draws subtract
    /// excluded weights on the fly (same discipline as `CloudRunPolicy`).
    pop_sampler: E::Sampler,
    /// Per-service affinity hosts, in first-use order.
    affinity: BTreeMap<ServiceId, Vec<HostId>>,
    /// Hosts each account has ever been placed on (introspection).
    seen: BTreeMap<AccountId, Vec<HostId>>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`.
impl<E: Engine> Clone for AzureLikePolicy<E> {
    fn clone(&self) -> Self {
        AzureLikePolicy {
            rng: self.rng.clone(),
            pop_sampler: self.pop_sampler.clone(),
            affinity: self.affinity.clone(),
            seen: self.seen.clone(),
        }
    }
}

impl<E: Engine> fmt::Debug for AzureLikePolicy<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AzureLikePolicy")
            .field("services", &self.affinity.len())
            .finish_non_exhaustive()
    }
}

/// Idle keep-alive stretch factors of the Azure-like policy relative to
/// the region's Cloud-Run-calibrated timings (grace ×4, spread ×2, hard
/// cap ×4 ⇒ a 15-minute contract becomes an hour).
pub const AZURE_KEEP_ALIVE_FACTORS: (i64, i64, i64) = (4, 2, 4);

impl<E: Engine> AzureLikePolicy<E> {
    fn new(dc: &DataCenter, rng: SimRng) -> Self {
        // Closed-form genesis lane: no host is materialized here, and
        // the optimized engine shares the pool's cached sampler lanes.
        AzureLikePolicy {
            rng,
            pop_sampler: E::popularity_sampler(dc),
            affinity: BTreeMap::new(),
            seen: BTreeMap::new(),
        }
    }

    /// The affinity hosts a service has accumulated, in first-use order.
    pub fn affinity_hosts(&self, service: ServiceId) -> &[HostId] {
        self.affinity.get(&service).map_or(&[], Vec::as_slice)
    }

    /// One popularity-weighted pick outside `exclude`, or `None` when
    /// everything is excluded or weightless.
    fn sample_fresh(&mut self, exclude: &[HostId]) -> Option<HostId> {
        let exclude: Vec<usize> = exclude.iter().map(|h| h.as_usize()).collect();
        let picks = sample_distinct_excluding(&self.pop_sampler, 1, &exclude, &mut self.rng);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
        )]
        picks.first().map(|&i| HostId::from_raw(i as u32))
    }

    fn plan(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        service: ServiceId,
        account: AccountId,
        need_new: usize,
    ) -> PlacementPlan {
        if need_new == 0 {
            return Vec::new();
        }
        eaao_obs::count("placement.plans", 1);
        eaao_obs::observe("placement.plan_size", need_new as u64);
        capacity.begin_plan();
        let mut plan = Vec::with_capacity(need_new);
        // Reuse bias: pack the service's warm affinity hosts to capacity
        // first, in first-use order.
        let affine = self.affinity.entry(service).or_default().clone();
        'packed: for host in affine {
            while capacity.plan_take(host, occupancy) {
                plan.push(host);
                if plan.len() == need_new {
                    break 'packed;
                }
            }
        }
        // Claim fresh hosts for the remainder, one at a time, and
        // remember them: next launch packs onto them again.
        while plan.len() < need_new {
            let exclude = self.affinity.get(&service).cloned().unwrap_or_default();
            let Some(host) = self.sample_fresh(&exclude) else {
                break;
            };
            self.affinity.entry(service).or_default().push(host);
            while capacity.plan_take(host, occupancy) {
                plan.push(host);
                if plan.len() == need_new {
                    break;
                }
            }
        }
        // Spill: every host carries affinity but the pool may still have
        // slots elsewhere (another service's hosts are fair game here —
        // no account partition on this platform).
        while plan.len() < need_new {
            match capacity.plan_spill_pick(occupancy, &mut self.rng) {
                Some(host) => plan.push(host),
                None => break,
            }
        }
        capacity.end_plan();
        let seen = self.seen.entry(account).or_default();
        for &host in &plan {
            if !seen.contains(&host) {
                seen.push(host);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::engine::IncrementalCapacity;
    use eaao_cloudsim::host::HostGenConfig;

    fn dc(seed: u64, hosts: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        DataCenter::generate("test", hosts, &HostGenConfig::default(), 0.9, &mut rng)
    }

    fn region(hosts: usize, platform: PlatformKind) -> RegionConfig {
        RegionConfig::us_west1()
            .with_hosts(hosts)
            .with_platform(platform)
    }

    fn build(
        dc: &DataCenter,
        region: &RegionConfig,
        seed: u64,
    ) -> (PlatformPolicy, IncrementalCapacity) {
        let p = PlatformPolicy::build(dc, region, SimRng::seed_from(seed));
        let cap = IncrementalCapacity::new(dc, p.host_cells(), p.cell_count());
        (p, cap)
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in PlatformKind::ALL {
            assert_eq!(PlatformKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PlatformKind::parse("gcp"), None);
    }

    #[test]
    fn lambda_partitions_accounts_onto_disjoint_hosts() {
        let dc = dc(1, 60);
        let occ = Occupancy::default();
        let region = region(60, PlatformKind::LambdaLike);
        let (mut p, mut cap) = build(&dc, &region, 2);
        let plan_a = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(1),
            AccountId::from_raw(1),
            50,
            0,
        );
        let plan_b = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(2),
            AccountId::from_raw(2),
            50,
            0,
        );
        let hosts_a: HashSet<HostId> = plan_a.into_iter().collect();
        let hosts_b: HashSet<HostId> = plan_b.into_iter().collect();
        assert_eq!(hosts_a.intersection(&hosts_b).count(), 0);
    }

    #[test]
    fn lambda_bin_packs_densely() {
        let dc = dc(3, 60);
        let occ = Occupancy::default();
        let region = region(60, PlatformKind::LambdaLike);
        let (mut p, mut cap) = build(&dc, &region, 4);
        let plan = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(1),
            AccountId::from_raw(1),
            100,
            0,
        );
        assert_eq!(plan.len(), 100);
        let hosts: HashSet<HostId> = plan.iter().copied().collect();
        // Bin-packing: far fewer hosts than CloudRun's target-density
        // spread (100 / 10.7 ≈ 10 hosts there).
        assert!(hosts.len() < 8, "used {} hosts", hosts.len());
        assert_eq!(p.base_hosts(AccountId::from_raw(1)).len(), hosts.len());
    }

    #[test]
    fn lambda_pressure_never_grows_the_footprint() {
        let dc = dc(5, 60);
        let occ = Occupancy::default();
        let region = region(60, PlatformKind::LambdaLike);
        let (mut p, mut cap) = build(&dc, &region, 6);
        let svc = ServiceId::from_raw(1);
        let acct = AccountId::from_raw(1);
        let cold: HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 40, 0)
            .into_iter()
            .collect();
        let hot: HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 40, 5)
            .into_iter()
            .collect();
        // No helper exploration: hot launches stay inside the claimed
        // partition (which only grows when capacity demands it).
        assert!(hot.is_subset(&cold.union(&hot).copied().collect()));
        assert!(
            p.base_hosts(acct).len() <= cold.len() + hot.len(),
            "pressure must not claim speculative hosts"
        );
    }

    #[test]
    fn azure_reuses_affinity_hosts_across_launches() {
        let dc = dc(7, 60);
        let occ = Occupancy::default();
        let region = region(60, PlatformKind::AzureLike);
        let (mut p, mut cap) = build(&dc, &region, 8);
        let svc = ServiceId::from_raw(1);
        let acct = AccountId::from_raw(1);
        let first: HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 60, 0)
            .into_iter()
            .collect();
        let second: HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 60, 0)
            .into_iter()
            .collect();
        // The overlay never commits, so the capacity freed between plans
        // means the second launch packs onto the exact same hosts.
        assert_eq!(first, second, "affinity reuse");
        let PlatformPolicy::AzureLike(azure) = &p else {
            panic!("azure-like region built {p:?}");
        };
        assert_eq!(
            azure.affinity_hosts(svc).len(),
            first.len(),
            "affinity records the footprint"
        );
    }

    #[test]
    fn azure_keep_alive_is_stretched() {
        let dc = dc(9, 30);
        let base = PlacementConfig::default();
        let (azure, _cap) = build(&dc, &region(30, PlatformKind::AzureLike), 10);
        let ka = azure.keep_alive(&base);
        assert_eq!(ka.idle_grace, base.idle_grace * 4);
        assert_eq!(ka.idle_hard_cap, base.idle_hard_cap * 4);
        assert!(ka.idle_hard_cap >= SimDuration::from_mins(60));
        // CloudRun stays on the contract.
        let (cloudrun, _cap) = build(&dc, &region(30, PlatformKind::CloudRun), 11);
        assert_eq!(cloudrun.keep_alive(&base), KeepAlive::from_config(&base));
    }

    #[test]
    fn build_picks_the_region_platform() {
        let dc = dc(13, 60);
        for kind in PlatformKind::ALL {
            let (p, _cap) = build(&dc, &region(60, kind), 14);
            match (kind, &p) {
                (PlatformKind::CloudRun, PlatformPolicy::CloudRun(_)) => {}
                (PlatformKind::LambdaLike, PlatformPolicy::LambdaLike(_)) => {}
                (PlatformKind::AzureLike, PlatformPolicy::AzureLike(_)) => {}
                _ => panic!("{kind} built the wrong policy: {p:?}"),
            }
        }
    }

    #[test]
    fn lockcheck_profiles_order_by_bus_noise() {
        let cr = PlatformKind::CloudRun.lockcheck_profile();
        let lam = PlatformKind::LambdaLike.lockcheck_profile();
        let az = PlatformKind::AzureLike.lockcheck_profile();
        assert!(cr.background_probability() < lam.background_probability());
        assert!(lam.background_probability() < az.background_probability());
    }
}
