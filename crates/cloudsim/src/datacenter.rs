//! Data centers: populations of physical hosts.
//!
//! A data center owns its CPU catalog and host pool. Hosts differ in CPU
//! model, boot time, crystal error, clock noise, and *popularity* — the
//! weight the orchestrator's scoring function gives them. Popularity follows
//! a Zipf-like law: a minority of hosts serves the bulk of the fleet's
//! container instances, which is why an attacker covering ~59% of a data
//! center's hosts can still cover ~98% of victim *instances* (Section 5.2).
//!
//! # Lazy, immutable genesis
//!
//! Generating a host (boot-time waves, crystal error, refinement, noise
//! profile) costs the better part of a microsecond, which at region scale
//! dominates world construction. The pool is therefore materialized
//! *lazily*: [`DataCenter::generate`] records only a genesis
//! description — the generation config, the shuffled popularity ranks, and
//! one keyed RNG stream base — and hosts come into existence per fixed-size
//! shard on first touch. Host `i` draws from the order-free stream
//! `SimRng::keyed(stream_base, i)`, so a host's parameters are a pure
//! function of the seed and its id: touch order, shard boundaries, and
//! whether other hosts were ever materialized cannot change a single byte
//! of it. The differential oracle pins this (lazy-vs-eager equality).
//!
//! Popularity is likewise closed-form: rank `r` weighs
//! [`Zipf::weight_of`]`(r, s)`, so popularity lanes and sampler weights are
//! computable for the whole pool without materializing any host.
//!
//! Because every shard is a pure function of the seed, generated shards are
//! immutable and belong to the genesis, which every clone of the data
//! center (see `World::branch`) shares: a shard is generated at most once
//! per pool, by whichever branch reads it first. Nothing ever writes
//! through a shard. Residency is the orchestrator's occupancy index, and a
//! maintenance reboot — the one change to a host's fingerprint state —
//! lands in a small per-data-center overlay of rebooted hosts.
//!
//! Each data center still records which shards *it* has touched, so
//! [`DataCenter::materialized_hosts`] and the `cloudsim.hosts_generated`
//! counter describe one world's history — the hosts it needed, counted as
//! if it had generated them itself — whatever its sibling branches did.
//! A touch need not generate: placing an instance only
//! [`touches`](DataCenter::touch) its host, whose shard is generated when
//! guest code first reads it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use eaao_simcore::dist::Zipf;
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::SimTime;
use eaao_simcore::wsample::{fenwick_tree, fixed_weight};
use rand::RngCore;

use crate::cpu::{default_catalog, CpuModel, CpuModelId};
use crate::host::{Host, HostGenConfig};
use crate::ids::HostId;

/// Hosts per materialization shard. Small enough that a sparse workload
/// touching a few hundred scattered hosts generates thousands, not
/// millions; large enough to amortize the per-shard allocation.
const SHARD_SIZE: usize = 64;

/// The immutable description the lazy pool is derived from, plus the
/// shards and pool-wide lanes derived from it. Every cell fills at most
/// once, with data that is a pure function of the construction seed, so
/// sharing the fills across branches cannot change what any branch sees.
#[derive(Debug)]
struct Genesis {
    name: String,
    config: HostGenConfig,
    popularity_exponent: f64,
    /// Catalog entries with their sampling weights.
    catalog: Vec<(CpuModel, f64)>,
    /// Popularity rank of host `i` (a shuffled permutation of `0..n`).
    ranks: Vec<u32>,
    /// Base of the per-host keyed RNG streams.
    stream_base: u64,
    /// The generated hosts, `SHARD_SIZE` per cell in id order.
    shards: Vec<OnceLock<Box<[Host]>>>,
    /// Fixed-point popularity lane for the whole pool (sampler weights),
    /// computed from ranks alone — no host materialization.
    pop_fixed: OnceLock<Arc<Vec<u64>>>,
    /// Inverse rank permutation (hosts in popularity order).
    by_rank: OnceLock<Arc<Vec<HostId>>>,
    /// Fenwick tree over `pop_fixed`, shared by every popularity-weighted
    /// sampler built over this pool.
    pop_tree: OnceLock<Arc<Vec<u64>>>,
}

/// A population of physical hosts sharing a region.
#[derive(Debug)]
pub struct DataCenter {
    genesis: Arc<Genesis>,
    /// One bit per shard this data center has touched.
    touched: Vec<Cell<u64>>, // tidy:allow(cow-aliasing) -- cloned by value, so every branch owns its bits; the cells only let `&self` readers record a first touch.
    /// Hosts rebooted in this data center, shadowing their genesis state.
    rebooted: BTreeMap<HostId, Host>,
}

impl Clone for DataCenter {
    // Written by hand so the share-vs-detach decision per field is explicit
    // (the fork-coverage contract): the genesis is immutable and shared;
    // the touch record and the reboot overlay are this world's own history
    // and are copied.
    fn clone(&self) -> Self {
        DataCenter {
            genesis: Arc::clone(&self.genesis),
            touched: self.touched.clone(),
            rebooted: self.rebooted.clone(),
        }
    }
}

impl DataCenter {
    /// Generates a data center with `host_count` hosts.
    ///
    /// `popularity_exponent` is the Zipf exponent of the host-popularity
    /// law (0 = uniform; ~1 = strongly concentrated).
    ///
    /// Construction is O(`host_count`) in cheap arithmetic (the rank
    /// shuffle) but generates no hosts: they materialize per shard on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if `host_count` is zero.
    pub fn generate(
        name: impl Into<String>,
        host_count: usize,
        host_config: &HostGenConfig,
        popularity_exponent: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(host_count > 0, "a data center needs hosts");
        let mut generate_span = eaao_obs::span("cloudsim.datacenter.generate");
        generate_span.u64_field("hosts", host_count as u64);

        // Popularity ranks: shuffle so rank is independent of host id.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
        )]
        let mut ranks: Vec<u32> = (0..host_count as u32).collect();
        rng.shuffle(&mut ranks);
        // One draw anchors every per-host stream; host i derives
        // SimRng::keyed(stream_base, i) when (if ever) it is first touched.
        let stream_base = rng.next_u64();

        let shard_count = host_count.div_ceil(SHARD_SIZE);
        DataCenter {
            genesis: Arc::new(Genesis {
                name: name.into(),
                config: *host_config,
                popularity_exponent,
                catalog: default_catalog(),
                ranks,
                stream_base,
                shards: (0..shard_count).map(|_| OnceLock::new()).collect(),
                pop_fixed: OnceLock::new(),
                by_rank: OnceLock::new(),
                pop_tree: OnceLock::new(),
            }),
            touched: vec![Cell::new(0); shard_count.div_ceil(64)],
            rebooted: BTreeMap::new(),
        }
    }

    fn sample_model(catalog: &[(CpuModel, f64)], rng: &mut SimRng) -> usize {
        let target = rng.unit_f64();
        let mut cumulative = 0.0;
        for (i, (_, w)) in catalog.iter().enumerate() {
            cumulative += w;
            if target < cumulative {
                return i;
            }
        }
        catalog.len() - 1
    }

    /// Materializes host `i` from its order-free keyed stream.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "host ids are u32 by design; `i` indexes a pool far below 2^32 hosts"
    )]
    fn generate_host(&self, i: usize) -> Host {
        let genesis = &*self.genesis;
        let mut rng = SimRng::keyed(genesis.stream_base, i as u64);
        let model_idx = Self::sample_model(&genesis.catalog, &mut rng);
        let nominal = genesis.catalog[model_idx].0.nominal_frequency();
        Host::generate(
            HostId::from_raw(i as u32),
            CpuModelId::from_index(model_idx),
            nominal,
            Zipf::weight_of(genesis.ranks[i] as usize, genesis.popularity_exponent),
            SimTime::ZERO,
            &genesis.config,
            &mut rng,
        )
    }

    fn shard_len(&self, index: usize) -> usize {
        SHARD_SIZE.min(self.len() - index * SHARD_SIZE)
    }

    /// Records shard `index` as touched by this data center; the first
    /// touch counts its hosts in `cloudsim.hosts_generated`.
    // tidy:allow(panic-reachability) -- `index` comes from an id below `len`, and `touched` was sized to cover the whole pool at construction.
    fn mark_touched(&self, index: usize) {
        let (word, bit) = (&self.touched[index / 64], 1u64 << (index % 64));
        if word.get() & bit == 0 {
            word.set(word.get() | bit);
            eaao_obs::count("cloudsim.hosts_generated", self.shard_len(index) as u64);
        }
    }

    /// The hosts of shard `index`, generated into the shared genesis on
    /// the pool's first read and recorded as touched by this data center.
    // tidy:allow(panic-reachability) -- `index` comes from an id below `len`, and `shards` was sized to cover the whole pool at construction.
    fn shard(&self, index: usize) -> &[Host] {
        self.mark_touched(index);
        self.genesis.shards[index].get_or_init(|| {
            let lo = index * SHARD_SIZE;
            (lo..lo + self.shard_len(index))
                .map(|i| self.generate_host(i))
                .collect()
        })
    }

    /// The region name (e.g. `"us-east1"`).
    pub fn name(&self) -> &str {
        &self.genesis.name
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.genesis.ranks.len()
    }

    /// Whether the data center has no hosts (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.genesis.ranks.is_empty()
    }

    /// Borrows a host, materializing its shard on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn host(&self, id: HostId) -> &Host {
        if let Some(host) = self.rebooted.get(&id) {
            return host;
        }
        let i = id.as_usize();
        &self.shard(i / SHARD_SIZE)[i % SHARD_SIZE]
    }

    /// Records a touch of `id`'s shard, as [`DataCenter::host`] would,
    /// without generating it: [`DataCenter::materialized_hosts`] and the
    /// `cloudsim.hosts_generated` count move exactly as for `host`, and
    /// the shard is generated on its first read. A shard is a pure
    /// function of the seed, so that read sees the same hosts.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn touch(&self, id: HostId) {
        self.mark_touched(id.as_usize() / SHARD_SIZE);
    }

    /// Iterates all hosts in id order.
    ///
    /// Materializes the entire pool: meant for tests, small worlds, and
    /// the eager reference path — production index construction uses the
    /// genesis accessors ([`DataCenter::popularity_weights`],
    /// [`DataCenter::host_capacity`]) instead.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.host_ids().map(move |id| self.host(id))
    }

    /// All host ids.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
    )]
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.len()).map(|i| HostId::from_raw(i as u32))
    }

    /// The CPU model record for a catalog id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cpu_model(&self, id: CpuModelId) -> &CpuModel {
        &self.genesis.catalog[id.index()].0
    }

    /// The CPU model record of a host.
    pub fn model_of(&self, host: HostId) -> &CpuModel {
        self.cpu_model(self.host(host).cpu_model())
    }

    /// Reboots a host for maintenance at `now`: its TSC zero point moves
    /// and the kernel re-runs frequency refinement. The rebooted host
    /// shadows the genesis one in this data center only; displacing its
    /// instances is the caller's job.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn reboot_host(&mut self, host: HostId, now: SimTime) {
        eaao_obs::count("cloudsim.host_reboots", 1);
        let mut rebooted = self.host(host).clone();
        rebooted.reboot(now);
        self.rebooted.insert(host, rebooted);
    }

    /// The uniform per-host instance capacity (a genesis parameter; no
    /// materialization).
    pub fn host_capacity(&self) -> usize {
        self.genesis.config.capacity
    }

    /// The popularity rank of a host (0 = most popular; a genesis
    /// parameter; no materialization).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn popularity_rank(&self, host: HostId) -> usize {
        self.genesis.ranks[host.as_usize()] as usize
    }

    /// The popularity weight of a host, computed closed-form from its rank
    /// (no materialization). Bit-identical to `self.host(host).popularity()`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn popularity_of(&self, host: HostId) -> f64 {
        Zipf::weight_of(self.popularity_rank(host), self.genesis.popularity_exponent)
    }

    /// The fixed-point popularity lane for the whole pool — the sampler
    /// weight of host `i` at index `i` — computed once from ranks alone
    /// and shared by every index built over this pool (and, via `Arc`, by
    /// every branch).
    pub fn popularity_weights(&self) -> Arc<Vec<u64>> {
        let genesis = &*self.genesis;
        Arc::clone(genesis.pop_fixed.get_or_init(|| {
            Arc::new(
                genesis
                    .ranks
                    .iter()
                    .map(|&r| {
                        fixed_weight(Zipf::weight_of(r as usize, genesis.popularity_exponent))
                    })
                    .collect(),
            )
        }))
    }

    /// All host ids in popularity order (most popular first): the inverse
    /// of the rank permutation, computed once from genesis (no
    /// materialization) and shared by every index built over this pool
    /// (and, via `Arc`, by every branch).
    ///
    /// Distinct ranks give strictly decreasing weights for any positive
    /// exponent, so this is exactly the popularity-descending,
    /// id-tiebroken order a sort over the materialized pool would produce;
    /// at exponent 0 (uniform weights) rank order is the canonical order.
    // tidy:allow(panic-reachability) -- `genesis.ranks` is a permutation of `0..len` by construction (`DataCenter::generate` deals ranks from a shuffled deck), so every rank indexes within `order`.
    pub fn hosts_by_popularity(&self) -> Arc<Vec<HostId>> {
        let ranks = &self.genesis.ranks;
        Arc::clone(self.genesis.by_rank.get_or_init(|| {
            let mut order = vec![HostId::from_raw(0); ranks.len()];
            #[expect(
                clippy::cast_possible_truncation,
                reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
            )]
            for (i, &rank) in ranks.iter().enumerate() {
                order[rank as usize] = HostId::from_raw(i as u32);
            }
            Arc::new(order)
        }))
    }

    /// The Fenwick tree over [`DataCenter::popularity_weights`], built
    /// once and shared (with the weight lane) by every popularity
    /// sampler over this pool — see
    /// [`FenwickSampler::from_shared`](eaao_simcore::wsample::FenwickSampler::from_shared).
    pub fn popularity_fenwick_tree(&self) -> Arc<Vec<u64>> {
        Arc::clone(
            self.genesis
                .pop_tree
                .get_or_init(|| Arc::new(fenwick_tree(&self.popularity_weights()))),
        )
    }

    /// Materializes every shard (the eager path: reference-engine worlds
    /// and differential tests).
    pub fn materialize_all(&self) {
        for index in 0..self.genesis.shards.len() {
            self.shard(index);
        }
    }

    /// Number of hosts this data center has materialized: its touched
    /// shards, whichever branch generated them, or none yet (see
    /// [`DataCenter::touch`]).
    pub fn materialized_hosts(&self) -> usize {
        (0..self.genesis.shards.len())
            .filter(|&index| {
                let word = self.touched.get(index / 64).map_or(0, Cell::get);
                word & (1 << (index % 64)) != 0
            })
            .map(|index| self.shard_len(index))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(seed: u64, hosts: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        DataCenter::generate("us-test1", hosts, &HostGenConfig::default(), 1.0, &mut rng)
    }

    #[test]
    fn generation_produces_population() {
        let dc = dc(1, 100);
        assert_eq!(dc.name(), "us-test1");
        assert_eq!(dc.len(), 100);
        assert!(!dc.is_empty());
        assert_eq!(dc.host_ids().count(), 100);
    }

    #[test]
    fn construction_is_lazy_until_touched() {
        let dc = dc(1, 1_000);
        assert_eq!(dc.materialized_hosts(), 0);
        // Genesis accessors stay lazy.
        let _ = dc.popularity_of(HostId::from_raw(500));
        let _ = dc.popularity_weights();
        let _ = dc.hosts_by_popularity();
        assert_eq!(dc.host_capacity(), 160);
        assert_eq!(dc.materialized_hosts(), 0);
        // Touching one host materializes exactly one shard.
        let _ = dc.host(HostId::from_raw(500));
        assert_eq!(dc.materialized_hosts(), SHARD_SIZE);
        dc.materialize_all();
        assert_eq!(dc.materialized_hosts(), 1_000);
    }

    #[test]
    fn touch_order_does_not_change_hosts() {
        // Byte-identical hosts no matter which shard is touched first —
        // the keyed-stream property the lazy pool is built on.
        let a = dc(11, 300);
        let b = dc(11, 300);
        let ids = [250u32, 3, 299, 64, 0];
        for &i in &ids {
            let _ = a.host(HostId::from_raw(i));
        }
        b.materialize_all();
        for (ha, hb) in a.hosts().zip(b.hosts()) {
            assert_eq!(ha.boot_time(), hb.boot_time());
            assert_eq!(ha.actual_frequency(), hb.actual_frequency());
            assert_eq!(ha.refined_frequency(), hb.refined_frequency());
            assert_eq!(ha.cpu_model(), hb.cpu_model());
        }
    }

    #[test]
    fn clones_share_generated_shards_but_not_their_history() {
        let a = dc(12, 200);
        let _ = a.host(HostId::from_raw(0));
        let b = a.clone();
        // The clone inherits what the original had touched...
        assert_eq!(b.materialized_hosts(), SHARD_SIZE);
        // ...and a shard first touched by the clone counts in the clone's
        // history only, but is generated once, for both.
        let far = HostId::from_raw(150);
        let _ = b.host(far);
        assert_eq!(b.materialized_hosts(), 2 * SHARD_SIZE);
        assert_eq!(a.materialized_hosts(), SHARD_SIZE);
        assert!(std::ptr::eq(a.host(far), b.host(far)));
    }

    /// The `cloudsim.hosts_generated` count `f` records.
    fn hosts_generated(f: impl FnOnce()) -> u64 {
        let collector = eaao_obs::Collector::new();
        eaao_obs::with_instrument(Arc::clone(&collector), f);
        let counters = collector.snapshot().counters;
        counters
            .get("cloudsim.hosts_generated")
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn a_touch_counts_like_a_read_and_the_later_read_is_unchanged() {
        let id = HostId::from_raw(130);
        let (read, touched, untouched) = (dc(15, 300), dc(15, 300), dc(15, 300));
        let read_count = hosts_generated(|| {
            let _ = read.host(id);
        });
        let touch_count = hosts_generated(|| {
            touched.touch(id);
            touched.touch(id);
        });
        assert_eq!(touch_count, read_count);
        assert_eq!(touch_count, SHARD_SIZE as u64);
        assert_eq!(touched.materialized_hosts(), read.materialized_hosts());
        // The first read generates the shard and counts nothing more; it
        // returns the host a data center that never touched it returns.
        let later_count = hosts_generated(|| {
            let (a, b) = (touched.host(id), untouched.host(id));
            // `Host` has no `PartialEq`; its `Debug` prints every field.
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        });
        // Only `untouched` counted its first touch.
        assert_eq!(later_count, SHARD_SIZE as u64);
    }

    #[test]
    fn a_reboot_shadows_the_host_in_one_data_center_only() {
        let a = dc(14, 100);
        let mut b = a.clone();
        let id = HostId::from_raw(42);
        let genesis_boot = a.host(id).boot_time();
        b.reboot_host(id, SimTime::from_secs(60));
        assert_eq!(b.host(id).boot_time(), SimTime::from_secs(60));
        assert_eq!(b.host(id).actual_frequency(), a.host(id).actual_frequency());
        assert_eq!(
            a.host(id).boot_time(),
            genesis_boot,
            "the sibling never rebooted"
        );
        // A second reboot starts from the first one's state.
        b.reboot_host(id, SimTime::from_secs(120));
        assert_eq!(b.host(id).boot_time(), SimTime::from_secs(120));
        assert_eq!(
            b.hosts().filter(|h| h.boot_time() > SimTime::ZERO).count(),
            1
        );
    }

    #[test]
    fn genesis_accessors_match_materialized_hosts() {
        let dc = dc(13, 150);
        let order = dc.hosts_by_popularity();
        assert_eq!(order.len(), 150);
        let weights = dc.popularity_weights();
        for id in dc.host_ids() {
            let host = dc.host(id);
            assert_eq!(dc.popularity_of(id), host.popularity(), "host {id}");
            assert_eq!(
                weights[id.as_usize()],
                fixed_weight(host.popularity()),
                "host {id}"
            );
        }
        // Popularity order is strictly descending at a positive exponent.
        for pair in order.windows(2) {
            assert!(dc.popularity_of(pair[0]) > dc.popularity_of(pair[1]));
        }
    }

    #[test]
    fn hosts_span_multiple_models() {
        let dc = dc(2, 200);
        let mut models: Vec<usize> = dc.hosts().map(|h| h.cpu_model().index()).collect();
        models.sort_unstable();
        models.dedup();
        assert!(
            models.len() >= 4,
            "only {} models in 200 hosts",
            models.len()
        );
        // Model metadata resolves.
        let h0 = HostId::from_raw(0);
        let model = dc.model_of(h0);
        assert!(model.name().contains("GHz"));
        // Host frequency is anchored near its model's nominal.
        let diff =
            (dc.host(h0).actual_frequency().as_hz() - model.nominal_frequency().as_hz()).abs();
        assert!(diff < 10e6, "ε too large: {diff}");
    }

    #[test]
    fn popularity_is_heterogeneous() {
        let dc = dc(3, 100);
        let pops: Vec<f64> = dc.hosts().map(Host::popularity).collect();
        let max = pops.iter().cloned().fold(f64::MIN, f64::max);
        let min = pops.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 10.0, "Zipf(1.0) should spread by >10x");
    }

    #[test]
    fn boot_times_are_diverse() {
        let dc = dc(4, 100);
        let mut boots: Vec<i64> = dc.hosts().map(|h| h.boot_time().as_nanos()).collect();
        boots.sort_unstable();
        boots.dedup();
        assert!(boots.len() > 90, "boot times should mostly differ");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dc(6, 50);
        let b = dc(6, 50);
        for (ha, hb) in a.hosts().zip(b.hosts()) {
            assert_eq!(ha.boot_time(), hb.boot_time());
            assert_eq!(ha.actual_frequency(), hb.actual_frequency());
            assert_eq!(ha.refined_frequency(), hb.refined_frequency());
        }
    }

    #[test]
    #[should_panic(expected = "a data center needs hosts")]
    fn rejects_empty() {
        let mut rng = SimRng::seed_from(7);
        DataCenter::generate("x", 0, &HostGenConfig::default(), 1.0, &mut rng);
    }
}
