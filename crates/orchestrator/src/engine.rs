//! Pluggable placement/launch engine backends.
//!
//! The hot path of [`World::launch`](crate::world::World::launch) asks two
//! questions millions of times per simulated day: *pick a host weighted by
//! popularity* and *how much free capacity is left (here / in this cell /
//! overall)*. [`Engine`] bundles the data structures that answer them:
//!
//! * [`OptimizedEngine`] — the production backend: a Fenwick-tree sampler
//!   ([`FenwickSampler`]) and [`IncrementalCapacity`], a free-slot index
//!   maintained incrementally on every instance create/terminate and host
//!   reboot. Per-launch cost depends on the launch size, not the pool size.
//! * `ReferenceEngine` (in the `eaao-oracle` crate) — the naive backend:
//!   linear weighted sampling and full-scan capacity lookups, kept as the
//!   differential-oracle ground truth.
//!
//! Both backends speak the sampling protocol of
//! [`eaao_simcore::wsample`]: integer weights, one `rng.below(total)` draw
//! per pick. Because `World` and `CloudRunPolicy` are generic over the
//! engine and share all control flow, two worlds built from the same seed
//! with different engines consume identical RNG streams and must produce
//! identical trajectories — any divergence is a bug in one backend's
//! bookkeeping, which is exactly what the oracle suite hunts for.

// tidy:allow(determinism) -- only `IncrementalCapacity::plan_taken`, a keyed-only overlay (see below)
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::HostId;
use eaao_simcore::rng::SimRng;
use eaao_simcore::wsample::{FenwickSampler, IndexSampler};

use crate::occupancy::{HostIdHasher, Occupancy};

/// A placement/launch backend: the sampler and capacity index types the
/// generic `World`/`CloudRunPolicy` machinery instantiates.
///
/// The `Clone` bounds on both associated types are what make
/// `World::branch` (copy-on-write snapshots) possible for every engine.
pub trait Engine: fmt::Debug + 'static {
    /// Weighted host sampler (see [`IndexSampler`]).
    type Sampler: IndexSampler + Clone;
    /// Free-capacity index (see [`CapacityIndex`]).
    type Capacity: CapacityIndex + Clone;

    /// Whether worlds built on this engine materialize the full host pool
    /// at construction time.
    ///
    /// The optimized engine leaves this `false`: its indices are built
    /// from genesis parameters (uniform capacity, closed-form popularity)
    /// and hosts materialize per shard on first touch. The reference
    /// engine overrides it to `true` — the naive eager build is the
    /// baseline the differential oracle compares the lazy path against.
    const EAGER_BUILD: bool = false;

    /// Materializes the hosts of one scheduling cell.
    ///
    /// `World` invokes this per cell at build time when
    /// [`EAGER_BUILD`](Engine::EAGER_BUILD) is set; lazy engines never pay
    /// it and instead let [`DataCenter`] materialize shards transparently
    /// on first touch. The hook exists so an eager backend can pin the
    /// all-hosts-up-front construction order as an oracle baseline.
    fn materialize_cell(_dc: &DataCenter, _hosts: &[HostId]) {}

    /// Builds the popularity-weighted sampler over `dc`'s whole pool.
    ///
    /// The default copies the genesis weight lane — O(n) per sampler,
    /// which is what the naive reference baseline should pay. The
    /// optimized engine overrides this to share the data center's cached
    /// weight lane and Fenwick tree, so the pool-sized popularity index
    /// is built once per data center no matter how many policies and
    /// capacity indices sit on top of it. Both constructions hold the
    /// same weights, so they sample identically draw for draw.
    fn popularity_sampler(dc: &DataCenter) -> Self::Sampler {
        Self::Sampler::from_weights(dc.popularity_weights().as_ref().clone())
    }
}

/// The production engine: Fenwick sampling + incremental capacity index.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedEngine;

impl Engine for OptimizedEngine {
    type Sampler = FenwickSampler;
    type Capacity = IncrementalCapacity;

    fn popularity_sampler(dc: &DataCenter) -> Self::Sampler {
        // O(1): shares the data center's cached weight lane and Fenwick
        // tree; the sampler unshares copy-on-write on first update.
        FenwickSampler::from_shared(dc.popularity_weights(), dc.popularity_fenwick_tree())
    }
}

/// Free-capacity bookkeeping for one data center.
///
/// `World` notifies the index on every residency change
/// ([`on_admit`](CapacityIndex::on_admit),
/// [`on_evict`](CapacityIndex::on_evict),
/// [`on_host_reboot`](CapacityIndex::on_host_reboot)) after recording it
/// in its [`Occupancy`], which every method receives as the residency
/// ground truth: the incremental index reads per-host counts from it and
/// keeps only aggregates, the reference engine's full scans read nothing
/// else. The placement policy consumes
/// the index through a *planning session*: [`begin_plan`] overlays
/// tentative slot consumption on top of the committed state,
/// [`plan_take`]/[`plan_spill_pick`] allocate against the overlay, and
/// [`end_plan`] discards it (the real admissions follow through
/// `on_admit`, one per instance, once the plan is committed).
///
/// The spill pick is popularity-weighted over hosts with free slots left
/// in the overlayed view, and must follow the one-draw protocol of
/// [`eaao_simcore::wsample`] so backends are interchangeable.
///
/// [`begin_plan`]: CapacityIndex::begin_plan
/// [`plan_take`]: CapacityIndex::plan_take
/// [`plan_spill_pick`]: CapacityIndex::plan_spill_pick
/// [`end_plan`]: CapacityIndex::end_plan
pub trait CapacityIndex: fmt::Debug {
    /// Builds the index for `dc`. `cell_of_host[h]` is the scheduling cell
    /// of host `h`; `cell_count` the number of cells.
    ///
    /// The pool is empty at build time, so an implementation may derive
    /// initial free counts from genesis parameters without materializing
    /// hosts.
    fn new(dc: &DataCenter, cell_of_host: Vec<u32>, cell_count: usize) -> Self
    where
        Self: Sized;

    /// One instance was admitted to `host`.
    fn on_admit(&mut self, host: HostId, occupancy: &Occupancy);

    /// One instance was evicted from `host`.
    fn on_evict(&mut self, host: HostId, occupancy: &Occupancy);

    /// `host` rebooted, displacing `displaced` instances (it is now empty).
    fn on_host_reboot(&mut self, host: HostId, displaced: usize, occupancy: &Occupancy);

    /// Total free slots across the data center.
    fn total_free(&self, occupancy: &Occupancy) -> u64;

    /// Free slots in one scheduling cell.
    ///
    /// # Panics
    ///
    /// May panic if `cell >= cell_count()`.
    fn cell_free(&self, cell: usize, occupancy: &Occupancy) -> u64;

    /// Number of scheduling cells.
    fn cell_count(&self) -> usize;

    /// Starts a planning session with an empty overlay.
    fn begin_plan(&mut self);

    /// Free slots of `host` net of overlay consumption.
    fn plan_free(&self, host: HostId, occupancy: &Occupancy) -> usize;

    /// Consumes one slot of `host` in the overlay; `false` if none left.
    fn plan_take(&mut self, host: HostId, occupancy: &Occupancy) -> bool;

    /// Popularity-weighted pick over hosts with overlay-free slots,
    /// consuming one slot of the picked host. Exactly one
    /// `rng.below(total)` draw on success; `None` (no draw) when the
    /// data center is full in the overlayed view.
    fn plan_spill_pick(&mut self, occupancy: &Occupancy, rng: &mut SimRng) -> Option<HostId>;

    /// Ends the planning session, discarding the overlay.
    fn end_plan(&mut self);
}

/// The optimized capacity index.
///
/// Committed aggregates (free slots per cell and in total, and a
/// popularity-masked-by-availability Fenwick sampler) are updated in
/// O(log n) on each residency change; per-host counts come from the
/// world's [`Occupancy`], so the index holds no per-host lane of its own
/// that a branch would have to copy. Planning sessions overlay tentative
/// consumption with a small per-plan ledger touching only the hosts the
/// plan uses, so a launch never scans the pool.
#[derive(Debug)]
pub struct IncrementalCapacity {
    /// Instance slots per host (uniform across the pool).
    capacity: u32,
    /// Committed free slots, summed.
    total_free: u64,
    /// Committed free slots per scheduling cell.
    cell_free: Vec<u64>,
    /// Scheduling cell of each host (immutable after build, so branches
    /// alias it).
    cell_of_host: Arc<Vec<u32>>,
    /// Fixed-point popularity of each host (constant after construction;
    /// the data center's shared genesis lane, so branches alias it).
    pop_fixed: Arc<Vec<u64>>,
    /// Sampler with weight `pop_fixed[h]` iff the *overlayed* free count
    /// of `h` is positive (committed free outside a planning session).
    avail: FenwickSampler,
    /// Overlay: slots tentatively consumed per host this planning session,
    /// under the occupancy's one-multiply host hasher. Never iterated —
    /// probed by host and drained via `plan_suppressed`/`clear`, so its
    /// order cannot reach the trajectory.
    // tidy:allow(determinism) -- keyed lookups only; iteration order provably unobservable
    plan_taken: HashMap<HostId, u32, BuildHasherDefault<HostIdHasher>>,
    /// Hosts whose `avail` weight was zeroed by the overlay only.
    plan_suppressed: Vec<usize>,
}

impl Clone for IncrementalCapacity {
    // Written by hand so the share-vs-detach decision per field is
    // explicit (the fork-coverage contract): the two Arc lanes are
    // immutable after build and shared, the sampler's own manual Clone
    // spells out its copy-on-write lanes, and the aggregates and the
    // per-plan overlay (empty between planning sessions) are copied.
    fn clone(&self) -> Self {
        IncrementalCapacity {
            capacity: self.capacity,
            total_free: self.total_free,
            cell_free: self.cell_free.clone(),
            cell_of_host: Arc::clone(&self.cell_of_host),
            pop_fixed: Arc::clone(&self.pop_fixed),
            avail: self.avail.clone(),
            plan_taken: self.plan_taken.clone(),
            plan_suppressed: self.plan_suppressed.clone(),
        }
    }
}

impl IncrementalCapacity {
    /// Committed free slots of `host`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a host's occupancy never exceeds its u32 capacity"
    )]
    fn free(&self, host: HostId, occupancy: &Occupancy) -> u32 {
        self.capacity - occupancy.count(host) as u32
    }

    fn take(&mut self, host: HostId, occupancy: &Occupancy) -> bool {
        let h = host.as_usize();
        let committed = self.free(host, occupancy);
        let taken = self.plan_taken.entry(host).or_insert(0);
        if *taken == committed {
            return false;
        }
        *taken += 1;
        if *taken == committed && self.avail.weight(h) > 0 {
            self.avail.set_weight(h, 0);
            self.plan_suppressed.push(h);
        }
        true
    }
}

impl CapacityIndex for IncrementalCapacity {
    fn new(dc: &DataCenter, cell_of_host: Vec<u32>, cell_count: usize) -> Self {
        assert_eq!(cell_of_host.len(), dc.len(), "cell map covers every host");
        // Built over an empty pool: free slots are the uniform genesis
        // capacity and the whole index comes from genesis lanes — no host
        // is materialized here.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "per-host capacity is a small configured slot count"
        )]
        let capacity = dc.host_capacity() as u32;
        let pop_fixed = dc.popularity_weights();
        let total_free = dc.len() as u64 * u64::from(capacity);
        let mut cell_free = vec![0u64; cell_count];
        for &cell in &cell_of_host {
            cell_free[cell as usize] += u64::from(capacity);
        }
        // Every host starts with free slots, so the availability sampler
        // starts as the popularity sampler itself: share the data
        // center's cached lane and tree instead of rebuilding them.
        let avail = if capacity > 0 {
            FenwickSampler::from_shared(Arc::clone(&pop_fixed), dc.popularity_fenwick_tree())
        } else {
            FenwickSampler::from_weights(vec![0; dc.len()])
        };
        IncrementalCapacity {
            capacity,
            total_free,
            cell_free,
            cell_of_host: Arc::new(cell_of_host),
            pop_fixed,
            avail,
            // tidy:allow(determinism) -- keyed-only overlay, see field doc
            plan_taken: HashMap::default(),
            plan_suppressed: Vec::new(),
        }
    }

    // tidy:allow(panic-reachability) -- `h` and its cell come from a HostId of the same fleet these lanes were sized to at construction.
    fn on_admit(&mut self, host: HostId, occupancy: &Occupancy) {
        let count = occupancy.count(host);
        assert!(
            count <= self.capacity as usize,
            "admitting past capacity on host {host}"
        );
        let h = host.as_usize();
        self.total_free -= 1;
        self.cell_free[self.cell_of_host[h] as usize] -= 1;
        if count == self.capacity as usize {
            self.avail.set_weight(h, 0);
        }
    }

    // tidy:allow(panic-reachability) -- `h` and its cell come from a HostId previously admitted into these lanes, which were sized to the fleet at construction.
    fn on_evict(&mut self, host: HostId, occupancy: &Occupancy) {
        let h = host.as_usize();
        self.total_free += 1;
        self.cell_free[self.cell_of_host[h] as usize] += 1;
        if self.free(host, occupancy) == 1 {
            self.avail.set_weight(h, self.pop_fixed[h]);
        }
    }

    // tidy:allow(panic-reachability) -- `h` and its cell come from a HostId of the same fleet these lanes were sized to at construction.
    fn on_host_reboot(&mut self, host: HostId, displaced: usize, occupancy: &Occupancy) {
        let h = host.as_usize();
        debug_assert_eq!(occupancy.count(host), 0, "reboot empties the host");
        self.total_free += displaced as u64;
        self.cell_free[self.cell_of_host[h] as usize] += displaced as u64;
        if self.capacity > 0 && displaced == self.capacity as usize {
            // It was full, so it had dropped out of the sampler.
            self.avail.set_weight(h, self.pop_fixed[h]);
        }
    }

    fn total_free(&self, _occupancy: &Occupancy) -> u64 {
        self.total_free
    }

    fn cell_free(&self, cell: usize, _occupancy: &Occupancy) -> u64 {
        self.cell_free[cell]
    }

    fn cell_count(&self) -> usize {
        self.cell_free.len()
    }

    fn begin_plan(&mut self) {
        debug_assert!(self.plan_taken.is_empty() && self.plan_suppressed.is_empty());
    }

    fn plan_free(&self, host: HostId, occupancy: &Occupancy) -> usize {
        let taken = self.plan_taken.get(&host).copied().unwrap_or(0);
        (self.free(host, occupancy) - taken) as usize
    }

    fn plan_take(&mut self, host: HostId, occupancy: &Occupancy) -> bool {
        self.take(host, occupancy)
    }

    fn plan_spill_pick(&mut self, occupancy: &Occupancy, rng: &mut SimRng) -> Option<HostId> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
        )]
        let host = HostId::from_raw(self.avail.pick(rng)? as u32);
        let took = self.take(host, occupancy);
        debug_assert!(took, "sampled host must have an overlay-free slot");
        Some(host)
    }

    // tidy:allow(panic-reachability) -- `plan_suppressed` holds indices previously admitted into these fleet-sized lanes by plan_take/plan_spill_pick.
    fn end_plan(&mut self) {
        for h in std::mem::take(&mut self.plan_suppressed) {
            // Suppressed by the overlay only: the overlay took the last of
            // the committed free slots, so in the committed view the host
            // still has some and its weight comes back.
            self.avail.set_weight(h, self.pop_fixed[h]);
        }
        self.plan_taken.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_cloudsim::host::HostGenConfig;

    fn small_dc(seed: u64, hosts: usize, capacity: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        let config = HostGenConfig {
            capacity,
            ..HostGenConfig::default()
        };
        DataCenter::generate("test", hosts, &config, 0.9, &mut rng)
    }

    fn index_for(dc: &DataCenter, cells: usize) -> IncrementalCapacity {
        let map: Vec<u32> = (0..dc.len()).map(|h| (h % cells) as u32).collect();
        IncrementalCapacity::new(dc, map, cells)
    }

    /// Committed free counts must always equal a full scan of the
    /// occupancy ground truth.
    fn assert_mirrors(cap: &IncrementalCapacity, dc: &DataCenter, occ: &Occupancy) {
        let free = |h: HostId| (dc.host_capacity() - occ.count(h)) as u64;
        let scan: u64 = dc.host_ids().map(free).sum();
        assert_eq!(cap.total_free(occ), scan);
        let cells: u64 = (0..cap.cell_count()).map(|c| cap.cell_free(c, occ)).sum();
        assert_eq!(cells, scan);
        for h in dc.host_ids() {
            assert_eq!(u64::from(cap.free(h, occ)), free(h), "host {h}");
        }
    }

    #[test]
    fn tracks_admit_evict_reboot() {
        let dc = small_dc(1, 12, 4);
        let mut occ = Occupancy::default();
        let mut cap = index_for(&dc, 3);
        assert_mirrors(&cap, &dc, &occ);

        let h = HostId::from_raw(5);
        for _ in 0..4 {
            assert!(cap.avail.weight(5) > 0, "a host with room is sampled");
            occ.admit(h);
            cap.on_admit(h, &occ);
            assert_mirrors(&cap, &dc, &occ);
        }
        assert_eq!(cap.avail.weight(5), 0, "full host drops out of sampling");

        occ.evict(h);
        cap.on_evict(h, &occ);
        assert_mirrors(&cap, &dc, &occ);
        assert!(cap.avail.weight(5) > 0, "freed host is sampleable again");

        let displaced = occ.displace(h);
        cap.on_host_reboot(h, displaced, &occ);
        assert_mirrors(&cap, &dc, &occ);
    }

    #[test]
    #[should_panic(expected = "admitting past capacity")]
    fn admit_beyond_capacity_panics() {
        let dc = small_dc(1, 4, 2);
        let mut occ = Occupancy::default();
        let mut cap = index_for(&dc, 1);
        let h = HostId::from_raw(1);
        for _ in 0..3 {
            occ.admit(h);
            cap.on_admit(h, &occ);
        }
    }

    #[test]
    fn plan_overlay_is_discarded_by_end_plan() {
        let dc = small_dc(2, 6, 2);
        let occ = Occupancy::default();
        let mut cap = index_for(&dc, 2);
        let h = HostId::from_raw(0);
        cap.begin_plan();
        assert_eq!(cap.plan_free(h, &occ), 2);
        assert!(cap.plan_take(h, &occ));
        assert!(cap.plan_take(h, &occ));
        assert!(!cap.plan_take(h, &occ), "overlay exhausted");
        assert_eq!(cap.plan_free(h, &occ), 0);
        assert_eq!(cap.avail.weight(0), 0, "exhausted in overlay");
        cap.end_plan();
        // Committed state untouched.
        assert_eq!(cap.plan_free(h, &occ), 2);
        assert!(cap.avail.weight(0) > 0);
        assert_mirrors(&cap, &dc, &occ);
    }

    #[test]
    fn spill_pick_respects_overlay_capacity() {
        let dc = small_dc(3, 4, 2);
        let occ = Occupancy::default();
        let mut cap = index_for(&dc, 1);
        let mut rng = SimRng::seed_from(4);
        cap.begin_plan();
        // 4 hosts × 2 slots: exactly 8 picks succeed, then None.
        let mut per_host = HashMap::new();
        for _ in 0..8 {
            let h = cap.plan_spill_pick(&occ, &mut rng).expect("slots left");
            *per_host.entry(h).or_insert(0u32) += 1;
        }
        assert!(cap.plan_spill_pick(&occ, &mut rng).is_none());
        assert!(per_host.values().all(|&c| c <= 2), "capacity respected");
        cap.end_plan();
        assert_eq!(cap.total_free(&occ), 8, "overlay never committed");
    }
}
