//! The Cloud-Run-like placement policy.
//!
//! This module is the generative model behind the behaviours the paper
//! reverse-engineers in Section 5.1:
//!
//! * **Observation 1** — instances of one service spread near-uniformly
//!   over the hosts used (~10–11 instances per host for an 800-instance
//!   launch).
//! * **Observations 3–4** — each account has a preferred set of *base
//!   hosts*; different accounts usually use different base hosts, but
//!   overlaps are bimodal (usually none, occasionally near-total). Modeled
//!   by hashing accounts to *scheduling cells*: hosts are dealt into cells
//!   round-robin by popularity rank, and an account's base hosts are the
//!   most popular hosts of its cell.
//! * **Observations 5–6** — a service that is hot inside the ~30-minute
//!   demand window spills onto *helper hosts*: a per-service, saturating,
//!   popularity-weighted exploration of hosts outside the account's base
//!   set. Different services get different but overlapping helper sets.
//! * **us-central1 dynamic placement** — the account's base pool is much
//!   larger and every launch draws a fresh popularity-weighted subset from
//!   it, so instances land on different hosts across launches even from a
//!   cold state (the paper's "more dynamic" observation).
//!
//! # Scaling
//!
//! The policy is generic over an [`Engine`]: all popularity-weighted
//! sampling goes through a precomputed [`IndexSampler`] over fixed-point
//! weights (one `rng.below(total)` draw per pick — see
//! [`eaao_simcore::wsample`]), and all capacity questions go through the
//! engine's [`CapacityIndex`], which `World` maintains incrementally.
//! Planning a launch therefore costs O(plan size · log hosts) instead of
//! the former O(hosts) scan/re-rank per launch, and the naive reference
//! engine in `eaao-oracle` must reproduce it draw for draw.

use std::collections::BTreeMap;
use std::sync::Arc;

use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::{AccountId, HostId, ServiceId};
use eaao_simcore::rng::SimRng;
use eaao_simcore::wsample::{sample_distinct, sample_distinct_excluding, IndexSampler};

use crate::config::PlacementConfig;
use crate::engine::{CapacityIndex, Engine, OptimizedEngine};
use crate::occupancy::Occupancy;

/// A placement decision: one target host per new instance.
pub type PlacementPlan = Vec<HostId>;

/// The placement policy state.
#[derive(Debug)]
pub struct CloudRunPolicy<E: Engine = OptimizedEngine> {
    config: PlacementConfig,
    dynamic: bool,
    /// Number of scheduling cells. Hosts are dealt into cells
    /// round-robin by popularity rank, so membership is closed-form
    /// over `by_rank` — cell `c` holds `by_rank[c]`,
    /// `by_rank[c + cell_count]`, … (see [`CloudRunPolicy::cell_hosts`])
    /// and no per-cell lists are materialized.
    cell_count: usize,
    /// Hosts in popularity order (the data center's shared genesis lane,
    /// so branches alias it).
    by_rank: Arc<Vec<HostId>>,
    /// Cached base-host assignments.
    base_cache: BTreeMap<AccountId, Vec<HostId>>,
    /// Accumulated helper hosts per service, in acquisition order.
    helpers: BTreeMap<ServiceId, Vec<HostId>>,
    /// Salt mixed into the account→cell hash.
    cell_salt: u64,
    rng: SimRng,
    /// Fixed-point popularity weight per host (constant after build; the
    /// data center's shared genesis lane, so branches alias it).
    pop_fixed: Arc<Vec<u64>>,
    /// Popularity sampler over the whole pool. Never written: exclusion-aware
    /// draws subtract excluded weights on the fly, so every branch keeps
    /// sharing the data center's genesis lanes.
    pop_sampler: E::Sampler,
    /// Lazily built uniform sampler for the co-location-resistant
    /// mitigation (never written either, so it is reusable).
    uniform: Option<E::Sampler>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`, but only the
// engine's *sampler* lives in the policy. Needed by `World::branch`.
impl<E: Engine> Clone for CloudRunPolicy<E> {
    fn clone(&self) -> Self {
        CloudRunPolicy {
            config: self.config,
            dynamic: self.dynamic,
            cell_count: self.cell_count,
            by_rank: Arc::clone(&self.by_rank),
            base_cache: self.base_cache.clone(),
            helpers: self.helpers.clone(),
            cell_salt: self.cell_salt,
            rng: self.rng.clone(),
            pop_fixed: Arc::clone(&self.pop_fixed),
            pop_sampler: self.pop_sampler.clone(),
            uniform: self.uniform.clone(),
        }
    }
}

impl<E: Engine> CloudRunPolicy<E> {
    /// Builds the policy for a data center.
    ///
    /// Construction reads only genesis parameters (the rank permutation
    /// and the closed-form popularity lane) — no host is materialized,
    /// and the shared lanes make the build O(1) beyond the data center's
    /// own once-per-pool caches.
    pub fn new(dc: &DataCenter, config: PlacementConfig, dynamic: bool, mut rng: SimRng) -> Self {
        // Hosts are dealt into cells round-robin by popularity rank, so
        // every cell spans the popularity spectrum and the cells
        // partition the pool. `hosts_by_popularity` is the inverse rank
        // permutation — exactly the popularity-descending order a sort
        // would produce, without touching a single host — and the deal
        // is closed-form over it (`cell_hosts`), so nothing is stored.
        let cell_count = dc.len().div_ceil(config.cell_size).max(1);
        let by_rank = dc.hosts_by_popularity();
        let cell_salt = rng.next_u64_salt();
        let pop_fixed = dc.popularity_weights();
        let pop_sampler = E::popularity_sampler(dc);
        CloudRunPolicy {
            config,
            dynamic,
            cell_count,
            by_rank,
            base_cache: BTreeMap::new(),
            helpers: BTreeMap::new(),
            cell_salt,
            rng,
            pop_fixed,
            pop_sampler,
            uniform: None,
        }
    }

    /// Number of scheduling cells.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// The hosts of one scheduling cell in descending popularity order:
    /// the round-robin deal puts ranks `cell`, `cell + cell_count`, …
    /// into cell `cell`, so the list is a strided view of the rank
    /// permutation and is never materialized.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cell_count()`.
    pub fn cell_hosts(&self, cell: usize) -> impl Iterator<Item = HostId> + '_ {
        assert!(cell < self.cell_count, "cell {cell} out of range");
        self.by_rank[cell..]
            .iter()
            .step_by(self.cell_count)
            .copied()
    }

    /// The scheduling cell of each host (`map[h]` is host `h`'s cell), for
    /// building a [`CapacityIndex`] that mirrors the policy's cells.
    // tidy:allow(panic-reachability) -- host ids are dense indices below the host count, and `map` is allocated with one entry per host.
    pub fn host_cells(&self) -> Vec<u32> {
        let mut map = vec![0u32; self.by_rank.len()];
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a cell index is below `cell_count`, a small configured count"
        )]
        for (rank, &h) in self.by_rank.iter().enumerate() {
            map[h.as_usize()] = (rank % self.cell_count) as u32;
        }
        map
    }

    /// The scheduling cell an account hashes to.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the hash is reduced modulo `cell_count`, so it fits a usize"
    )]
    pub fn cell_of(&self, account: AccountId) -> usize {
        let mut x = u64::from(account.as_raw()) ^ self.cell_salt;
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.cell_count as u64) as usize
    }

    /// The base hosts of an account (most popular hosts of its cell),
    /// ordered by descending popularity.
    // tidy:allow(panic-reachability) -- the entry is inserted just above, and `cell_of` reduces modulo `cell_count`.
    pub fn base_hosts(&mut self, account: AccountId) -> &[HostId] {
        if !self.base_cache.contains_key(&account) {
            let hosts: Vec<HostId> = self
                .cell_hosts(self.cell_of(account))
                .take(self.config.base_hosts_per_account)
                .collect();
            self.base_cache.insert(account, hosts);
        }
        &self.base_cache[&account]
    }

    /// The helper hosts a service has accumulated so far.
    pub fn helper_hosts(&self, service: ServiceId) -> &[HostId] {
        self.helpers.get(&service).map_or(&[], Vec::as_slice)
    }

    /// Plans the placement of `need_new` new instances for `service` owned
    /// by `account`, allocating against `capacity`'s planning overlay
    /// (tentative only — committing the plan is the caller's job);
    /// `occupancy` is the residency ground truth the index is queried with.
    ///
    /// `pressure` is the service's demand pressure (qualifying launches in
    /// the window, *excluding* the current one); `pressure > 0` marks the
    /// service hot and engages the load balancer.
    pub fn plan(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        service: ServiceId,
        account: AccountId,
        need_new: usize,
        pressure: usize,
    ) -> PlacementPlan {
        if need_new == 0 {
            return Vec::new();
        }
        eaao_obs::count("placement.plans", 1);
        eaao_obs::observe("placement.plan_size", need_new as u64);
        capacity.begin_plan();
        let plan = self.plan_inner(occupancy, capacity, service, account, need_new, pressure);
        capacity.end_plan();
        plan
    }

    fn plan_inner(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        service: ServiceId,
        account: AccountId,
        need_new: usize,
        pressure: usize,
    ) -> PlacementPlan {
        if self.config.co_location_resistant {
            // Section 6 scheduler mitigation: a fresh uniformly random
            // host subset per launch — no per-account affinity for an
            // attacker to learn, no demand-driven spreading to exploit.
            let pool = self.by_rank.len();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "ceil() before the cast and clamp(1, pool) after make the rounding rule explicit for the subset size"
            )]
            let want =
                ((need_new as f64 / self.config.target_density).ceil() as usize).clamp(1, pool);
            let uniform = self
                .uniform
                .get_or_insert_with(|| E::Sampler::from_weights(vec![1; pool]));
            let picks = sample_distinct_excluding(&*uniform, want, &[], &mut self.rng);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
            )]
            let targets: Vec<HostId> = picks
                .into_iter()
                .map(|i| HostId::from_raw(i as u32))
                .collect();
            return self.spread(occupancy, capacity, &targets, need_new);
        }
        let base: Vec<HostId> = self.base_hosts(account).to_vec();

        // Load balancer: grow the service's helper set towards the
        // saturating target, bounded by how many new instances actually
        // need a home (an idle-warm launch barely explores — the paper's
        // 2-minute-interval experiment found only ~12 new hosts).
        if pressure > 0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "round() fixes the rule for a target bounded by helper_host_max, and the pressure exponent is a small launch count"
            )]
            let target = (self.config.helper_host_max as f64
                * (1.0 - self.config.helper_decay.powi(pressure as i32)))
            .round() as usize;
            let have = self.helpers.get(&service).map_or(0, Vec::len);
            let growth = target.saturating_sub(have).min(need_new);
            if growth > 0 {
                let exclude: Vec<HostId> = base
                    .iter()
                    .copied()
                    .chain(self.helper_hosts(service).iter().copied())
                    .collect();
                let fresh = self.sample_hosts(growth, &exclude);
                self.helpers.entry(service).or_default().extend(fresh);
            }
        }

        // Target hosts for this launch.
        let helpers = self.helper_hosts(service).to_vec();
        let targets = if helpers.is_empty() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "ceil() before the cast and clamp(1, base) after make the rounding rule explicit for the subset size"
            )]
            let want = ((need_new as f64 / self.config.target_density).ceil() as usize)
                .clamp(1, base.len().max(1));
            if self.dynamic {
                // Dynamic regions (us-central1): every launch draws a fresh
                // popularity-weighted subset of the (large) base pool, so
                // footprints vary launch to launch even from cold.
                self.weighted_subset(&base, want)
            } else {
                // Cold spread: enough of the most popular base hosts to hit
                // the target density, with mild per-launch jitter (Figure 7
                // shows footprints that overlap heavily but not perfectly).
                self.jittered_prefix(&base, want)
            }
        } else {
            // Hot spread: the load balancer thins the per-host load by
            // using the full base + helper footprint (Figure 9: both curves
            // rise together).
            let mut t = base.clone();
            t.extend(helpers);
            if self.dynamic {
                // Keep the per-launch variance: sample a large subset
                // rather than always using every known host.
                let want = (t.len() * 4).div_ceil(5).max(1);
                t = self.weighted_subset(&t, want);
            }
            t
        };

        self.spread(occupancy, capacity, &targets, need_new)
    }

    /// A popularity-weighted subset of `candidates` of size `want`.
    // tidy:allow(panic-reachability) -- `pop_fixed` is fleet-sized, `candidates` are fleet HostIds, and sample_distinct returns indices below the sampler length, which equals `candidates.len()`.
    fn weighted_subset(&mut self, candidates: &[HostId], want: usize) -> Vec<HostId> {
        let weights: Vec<u64> = candidates
            .iter()
            .map(|&h| self.pop_fixed[h.as_usize()])
            .collect();
        let mut sampler = E::Sampler::from_weights(weights);
        sample_distinct(&mut sampler, want, &mut self.rng)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    }

    /// Near-uniform spread of `count` instances over `targets`, allocating
    /// against the capacity overlay and spilling popularity-weighted onto
    /// the rest of the pool when the targets fill up.
    // tidy:allow(panic-reachability) -- the loop guard `exhausted < order.len()` keeps the body unreachable when `order` is empty, and `cursor % order.len()` is below the length by construction.
    fn spread(
        &mut self,
        occupancy: &Occupancy,
        capacity: &mut E::Capacity,
        targets: &[HostId],
        count: usize,
    ) -> PlacementPlan {
        let mut order: Vec<HostId> = targets.to_vec();
        self.rng.shuffle(&mut order);
        let mut plan = Vec::with_capacity(count);
        let mut cursor = 0;
        let mut exhausted = 0;
        while plan.len() < count && exhausted < order.len() {
            let host = order[cursor % order.len()];
            cursor += 1;
            if capacity.plan_take(host, occupancy) {
                exhausted = 0;
                plan.push(host);
            } else {
                exhausted += 1;
            }
        }
        // Spill: targets are full; fall back to the rest of the pool,
        // weighted by popularity among hosts with overlay-free slots.
        while plan.len() < count {
            match capacity.plan_spill_pick(occupancy, &mut self.rng) {
                Some(host) => plan.push(host),
                None => break, // the entire data center is full
            }
        }
        plan
    }

    /// Popularity-weighted sample of `count` hosts, excluding `exclude`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
    )]
    fn sample_hosts(&mut self, count: usize, exclude: &[HostId]) -> Vec<HostId> {
        let exclude: Vec<usize> = exclude.iter().map(|h| h.as_usize()).collect();
        sample_distinct_excluding(&self.pop_sampler, count, &exclude, &mut self.rng)
            .into_iter()
            .map(|i| HostId::from_raw(i as u32))
            .collect()
    }

    /// The first `want` of `ordered`, with mild stochastic swaps from the
    /// tail so repeated launches differ slightly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the swap count rounds a small non-negative product below `want`, and below(n) draws fit a usize index"
    )]
    // tidy:allow(panic-reachability) -- `want` is clamped to `ordered.len()` first, and `from`/`to` are drawn below `want` and `tail.len()` respectively.
    fn jittered_prefix(&mut self, ordered: &[HostId], want: usize) -> Vec<HostId> {
        let want = want.min(ordered.len());
        let mut picked: Vec<HostId> = ordered[..want].to_vec();
        let tail = &ordered[want..];
        if tail.is_empty() {
            return picked;
        }
        // Swap ~4% of the prefix with random tail members.
        let swaps = (want as f64 * 0.04).round() as usize;
        for _ in 0..swaps {
            let from = self.rng.below(want as u64) as usize;
            let to = self.rng.below(tail.len() as u64) as usize;
            picked[from] = tail[to];
        }
        picked.sort_unstable();
        picked.dedup();
        picked
    }
}

/// Extension used internally for salting.
trait SaltExt {
    fn next_u64_salt(&mut self) -> u64;
}

impl SaltExt for SimRng {
    fn next_u64_salt(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::engine::IncrementalCapacity;
    use eaao_cloudsim::host::HostGenConfig;

    fn dc(seed: u64, hosts: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        DataCenter::generate("test", hosts, &HostGenConfig::default(), 0.9, &mut rng)
    }

    fn policy(dc: &DataCenter, seed: u64) -> CloudRunPolicy {
        CloudRunPolicy::new(
            dc,
            PlacementConfig::default(),
            false,
            SimRng::seed_from(seed),
        )
    }

    fn capacity_for(dc: &DataCenter, p: &CloudRunPolicy) -> IncrementalCapacity {
        IncrementalCapacity::new(dc, p.host_cells(), p.cell_count())
    }

    #[test]
    fn cells_partition_the_pool() {
        let dc = dc(1, 520);
        let p = policy(&dc, 2);
        assert_eq!(p.cell_count(), 520usize.div_ceil(110));
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for c in 0..p.cell_count() {
            for h in p.cell_hosts(c) {
                assert!(seen.insert(h), "host {h} in two cells");
                total += 1;
            }
        }
        assert_eq!(total, 520);
        // The host→cell map inverts the cell lists.
        let map = p.host_cells();
        for c in 0..p.cell_count() {
            for h in p.cell_hosts(c) {
                assert_eq!(map[h.as_usize()] as usize, c);
            }
        }
        // Cells list hosts in descending popularity.
        for c in 0..p.cell_count() {
            let pops: Vec<f64> = p.cell_hosts(c).map(|h| dc.popularity_of(h)).collect();
            for pair in pops.windows(2) {
                assert!(pair[0] > pair[1], "cell {c} not popularity-sorted");
            }
        }
    }

    #[test]
    fn base_hosts_are_stable_and_cell_scoped() {
        let dc = dc(3, 520);
        let mut p = policy(&dc, 4);
        let a = AccountId::from_raw(1);
        let first: Vec<HostId> = p.base_hosts(a).to_vec();
        let second: Vec<HostId> = p.base_hosts(a).to_vec();
        assert_eq!(first, second, "base hosts must be sticky");
        assert_eq!(first.len(), 90);
        let cell: Vec<HostId> = p.cell_hosts(p.cell_of(a)).collect();
        assert!(first.iter().all(|h| cell.contains(h)));
    }

    #[test]
    fn accounts_in_different_cells_have_disjoint_bases() {
        let dc = dc(5, 520);
        let mut p = policy(&dc, 6);
        // Find two accounts in different cells.
        let a = AccountId::from_raw(0);
        let b = (1..100)
            .map(AccountId::from_raw)
            .find(|&b| p.cell_of(b) != p.cell_of(a))
            .expect("some account lands in another cell");
        let base_a: std::collections::HashSet<HostId> = p.base_hosts(a).iter().copied().collect();
        let overlap = p
            .base_hosts(b)
            .iter()
            .filter(|h| base_a.contains(h))
            .count();
        assert_eq!(overlap, 0, "cells partition hosts");
    }

    #[test]
    fn accounts_in_same_cell_share_bases() {
        let dc = dc(7, 520);
        let mut p = policy(&dc, 8);
        let a = AccountId::from_raw(0);
        let b = (1..200)
            .map(AccountId::from_raw)
            .find(|&b| p.cell_of(b) == p.cell_of(a))
            .expect("some account shares the cell");
        let base_a: Vec<HostId> = p.base_hosts(a).to_vec();
        assert_eq!(base_a, p.base_hosts(b));
    }

    #[test]
    fn cold_launch_spreads_at_target_density() {
        let dc = dc(9, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 10);
        let mut cap = capacity_for(&dc, &p);
        let plan = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(1),
            AccountId::from_raw(1),
            800,
            0,
        );
        assert_eq!(plan.len(), 800);
        let mut hosts: Vec<HostId> = plan.clone();
        hosts.sort_unstable();
        hosts.dedup();
        // ~75 hosts (Observation 1), within jitter.
        assert!(
            (70..=85).contains(&hosts.len()),
            "used {} hosts",
            hosts.len()
        );
        // Near-uniform: max per-host count close to the mean.
        let mut counts: HashMap<HostId, usize> = HashMap::new();
        for h in plan {
            *counts.entry(h).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap();
        assert!(max <= min + 2, "spread {min}..{max} not uniform");
    }

    #[test]
    fn cold_launches_reuse_base_hosts() {
        let dc = dc(11, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 12);
        let mut cap = capacity_for(&dc, &p);
        let svc = ServiceId::from_raw(1);
        let acct = AccountId::from_raw(1);
        let mut cumulative = std::collections::HashSet::new();
        let mut per_launch = Vec::new();
        for _ in 0..6 {
            let plan = p.plan(&occ, &mut cap, svc, acct, 800, 0);
            let hosts: std::collections::HashSet<HostId> = plan.into_iter().collect();
            per_launch.push(hosts.len());
            cumulative.extend(hosts);
        }
        // Cumulative stays close to a single launch's footprint (Figure 7).
        assert!(
            cumulative.len() < per_launch[0] + 25,
            "cumulative {} vs first {}",
            cumulative.len(),
            per_launch[0]
        );
    }

    #[test]
    fn hot_launches_acquire_helpers_saturating() {
        let dc = dc(13, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 14);
        let mut cap = capacity_for(&dc, &p);
        let svc = ServiceId::from_raw(1);
        let acct = AccountId::from_raw(1);
        let mut increments = Vec::new();
        let mut prev = 0;
        for pressure in 1..=5 {
            let _ = p.plan(&occ, &mut cap, svc, acct, 800, pressure);
            let now = p.helper_hosts(svc).len();
            increments.push(now - prev);
            prev = now;
        }
        assert!(prev > 100, "helpers after 5 hot launches: {prev}");
        assert!(prev <= PlacementConfig::default().helper_host_max);
        // Saturating growth: later increments shrink.
        assert!(
            increments[0] > increments[3],
            "increments not decaying: {increments:?}"
        );
    }

    #[test]
    fn warm_hot_launch_explores_little() {
        // If only a few instances need creation, exploration is bounded by
        // that need (the paper's 2-minute-interval result).
        let dc = dc(15, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 16);
        let mut cap = capacity_for(&dc, &p);
        let svc = ServiceId::from_raw(1);
        let _ = p.plan(&occ, &mut cap, svc, AccountId::from_raw(1), 12, 2);
        assert!(p.helper_hosts(svc).len() <= 12);
    }

    #[test]
    fn helpers_exclude_own_base() {
        let dc = dc(17, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 18);
        let mut cap = capacity_for(&dc, &p);
        let svc = ServiceId::from_raw(1);
        let acct = AccountId::from_raw(1);
        let _ = p.plan(&occ, &mut cap, svc, acct, 800, 3);
        let base: std::collections::HashSet<HostId> = p.base_hosts(acct).iter().copied().collect();
        assert!(p.helper_hosts(svc).iter().all(|h| !base.contains(h)));
    }

    #[test]
    fn different_services_get_overlapping_but_distinct_helpers() {
        let dc = dc(19, 520);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 20);
        let mut cap = capacity_for(&dc, &p);
        let acct = AccountId::from_raw(1);
        for s in [1u32, 2] {
            for pressure in 1..=5 {
                let _ = p.plan(&occ, &mut cap, ServiceId::from_raw(s), acct, 800, pressure);
            }
        }
        let h1: std::collections::HashSet<HostId> = p
            .helper_hosts(ServiceId::from_raw(1))
            .iter()
            .copied()
            .collect();
        let h2: std::collections::HashSet<HostId> = p
            .helper_hosts(ServiceId::from_raw(2))
            .iter()
            .copied()
            .collect();
        let overlap = h1.intersection(&h2).count();
        assert!(overlap > 0, "popular hosts should repeat across services");
        assert!(overlap < h1.len(), "helper sets must not be identical");
    }

    #[test]
    fn dynamic_region_varies_across_launches() {
        // us-central1-style: large cells, fresh subset per launch.
        let dc = dc(21, 520);
        let occ = Occupancy::default();
        let config = PlacementConfig {
            cell_size: 260,
            base_hosts_per_account: 240,
            ..PlacementConfig::default()
        };
        let mut p: CloudRunPolicy = CloudRunPolicy::new(&dc, config, true, SimRng::seed_from(22));
        let mut cap = capacity_for(&dc, &p);
        let acct = AccountId::from_raw(1);
        let svc = ServiceId::from_raw(1);
        let first: std::collections::HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 800, 0)
            .into_iter()
            .collect();
        let second: std::collections::HashSet<HostId> = p
            .plan(&occ, &mut cap, svc, acct, 800, 0)
            .into_iter()
            .collect();
        let moved = second.difference(&first).count();
        assert!(
            moved > second.len() / 5,
            "dynamic launches should move around: only {moved} new hosts"
        );
        // But both stay inside the account's (large) base pool.
        let base: std::collections::HashSet<HostId> = p.base_hosts(acct).iter().copied().collect();
        assert!(first.iter().all(|h| base.contains(h)));
        assert!(second.iter().all(|h| base.contains(h)));
    }

    #[test]
    fn zero_need_returns_empty_plan() {
        let dc = dc(23, 100);
        let occ = Occupancy::default();
        let mut p = policy(&dc, 24);
        let mut cap = capacity_for(&dc, &p);
        assert!(p
            .plan(
                &occ,
                &mut cap,
                ServiceId::from_raw(1),
                AccountId::from_raw(1),
                0,
                5
            )
            .is_empty());
    }

    #[test]
    fn capacity_overflow_spills_to_pool() {
        // A tiny DC with tiny capacity forces spill.
        let mut rng = SimRng::seed_from(25);
        let config = HostGenConfig {
            capacity: 4,
            ..HostGenConfig::default()
        };
        let dc = DataCenter::generate("tiny", 30, &config, 0.9, &mut rng);
        let occ = Occupancy::default();
        let mut p: CloudRunPolicy = CloudRunPolicy::new(
            &dc,
            PlacementConfig {
                cell_size: 10,
                base_hosts_per_account: 8,
                ..PlacementConfig::default()
            },
            false,
            SimRng::seed_from(26),
        );
        let mut cap = capacity_for(&dc, &p);
        // 8 base hosts × 4 slots = 32 < 60 requested.
        let plan = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(1),
            AccountId::from_raw(1),
            60,
            0,
        );
        assert_eq!(plan.len(), 60);
        let mut counts: HashMap<HostId, usize> = HashMap::new();
        for h in plan {
            *counts.entry(h).or_default() += 1;
        }
        assert!(counts.values().all(|&c| c <= 4), "capacity respected");
    }

    #[test]
    fn plan_overlay_never_commits() {
        // Planning must not mutate the committed capacity view.
        let dc = dc(27, 200);
        let mut p = policy(&dc, 28);
        let mut cap = capacity_for(&dc, &p);
        let occ = Occupancy::default();
        let before = cap.total_free(&occ);
        let _ = p.plan(
            &occ,
            &mut cap,
            ServiceId::from_raw(1),
            AccountId::from_raw(1),
            500,
            0,
        );
        assert_eq!(cap.total_free(&occ), before);
    }
}
