//! The naive reference engine: linear weighted sampling and full-scan
//! capacity lookups.
//!
//! These are the implementations the optimized engine replaced, kept as
//! executable ground truth. They follow the exact sampling protocol of
//! [`eaao_simcore::wsample`] — integer fixed-point weights, one
//! `rng.below(total)` draw per pick — so they are drop-in interchangeable
//! with the Fenwick/incremental backends: same RNG stream in, same picks
//! out, at O(hosts) per operation instead of O(log hosts).

use std::collections::BTreeMap;

use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::HostId;
use eaao_orchestrator::engine::{CapacityIndex, Engine};
use eaao_orchestrator::occupancy::Occupancy;
use eaao_simcore::rng::SimRng;
use eaao_simcore::wsample::{fixed_weight, IndexSampler};

/// The naive engine: [`LinearSampler`] + [`ScanCapacity`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEngine;

impl Engine for ReferenceEngine {
    type Sampler = LinearSampler;
    type Capacity = ScanCapacity;

    // The oracle baseline keeps the pre-lazy eager path: every cell is
    // materialized up front at world build, so a lazy-path bug in the
    // optimized engine (e.g. a host generated from the wrong keyed
    // stream on first touch) diverges from this engine immediately.
    const EAGER_BUILD: bool = true;

    fn materialize_cell(dc: &DataCenter, hosts: &[HostId]) {
        for &h in hosts {
            // Touching a host materializes its shard.
            let _ = dc.host(h);
        }
    }
}

/// O(n)-per-pick weighted sampler: [`locate`](IndexSampler::locate) walks
/// the cumulative sum from the front, and
/// [`set_weight`](IndexSampler::set_weight) re-sums the whole weight
/// vector rather than maintaining the total incrementally.
#[derive(Debug, Clone)]
pub struct LinearSampler {
    weights: Vec<u64>,
    total: u64,
}

fn checked_sum(weights: &[u64]) -> u64 {
    weights
        .iter()
        .try_fold(0u64, |acc, &w| acc.checked_add(w))
        .expect("total weight overflows u64")
}

impl IndexSampler for LinearSampler {
    fn from_weights(weights: Vec<u64>) -> Self {
        let total = checked_sum(&weights);
        LinearSampler { weights, total }
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn weight(&self, index: usize) -> u64 {
        self.weights[index]
    }

    // tidy:allow(panic-reachability) -- `index` is a slot previously returned by pick/locate, which only yield indices below the fixed construction-time length.
    fn set_weight(&mut self, index: usize, weight: u64) {
        self.weights[index] = weight;
        // Deliberately naive: recompute instead of applying the delta.
        self.total = checked_sum(&self.weights);
    }

    #[expect(
        clippy::panic,
        reason = "sampler contract: callers draw `target < total()`; out-of-range is a caller bug, mirrored from wsample"
    )]
    fn locate(&self, target: u64) -> usize {
        let mut cum = 0u64;
        for (i, &w) in self.weights.iter().enumerate() {
            cum += w;
            if target < cum {
                return i;
            }
        }
        panic!("target {target} >= total {cum}");
    }

    #[expect(
        clippy::panic,
        reason = "sampler contract: callers draw `target` below the unexcluded total; out-of-range is a caller bug, mirrored from wsample"
    )]
    fn locate_excluding(&self, target: u64, zeroed: &[usize], _removed: &[u64]) -> usize {
        // Deliberately naive: one cumulative scan from the front that
        // skips the excluded indices, ignoring the prefix sums.
        let mut excluded = zeroed.iter().peekable();
        let mut cum = 0u64;
        for (i, &w) in self.weights.iter().enumerate() {
            if excluded.next_if_eq(&&i).is_some() {
                continue;
            }
            cum += w;
            if target < cum {
                return i;
            }
        }
        panic!("target {target} >= unexcluded total {cum}");
    }
}

/// Full-scan capacity lookups against the world's residency ground truth.
///
/// The [`Occupancy`] index *is* the committed state, so the
/// residency-change notifications only re-check capacity, and every
/// query walks all hosts. Planning sessions overlay tentative consumption
/// in a map, and the popularity-weighted spill pick rebuilds a
/// [`LinearSampler`] over the overlayed availability on every single
/// pick — the O(hosts) cost per placed instance the incremental index
/// exists to avoid.
#[derive(Debug, Clone)]
pub struct ScanCapacity {
    cell_of_host: Vec<u32>,
    cell_count: usize,
    /// Uniform per-host slot count.
    capacity: usize,
    /// Fixed-point popularity per host, same quantization as the
    /// optimized index so spill-pick totals match exactly.
    pop_fixed: Vec<u64>,
    /// Overlay: slots tentatively consumed per host this planning session.
    taken: BTreeMap<usize, u32>,
}

impl ScanCapacity {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
    )]
    fn free(&self, host: usize, occupancy: &Occupancy) -> usize {
        self.capacity - occupancy.count(HostId::from_raw(host as u32))
    }

    fn effective_free(&self, host: usize, occupancy: &Occupancy) -> usize {
        let taken = self.taken.get(&host).copied().unwrap_or(0) as usize;
        self.free(host, occupancy) - taken
    }
}

impl CapacityIndex for ScanCapacity {
    fn new(dc: &DataCenter, cell_of_host: Vec<u32>, cell_count: usize) -> Self {
        assert_eq!(cell_of_host.len(), dc.len(), "cell map covers every host");
        let pop_fixed = dc.hosts().map(|h| fixed_weight(h.popularity())).collect();
        ScanCapacity {
            cell_of_host,
            cell_count,
            capacity: dc.host_capacity(),
            pop_fixed,
            taken: BTreeMap::new(),
        }
    }

    fn on_admit(&mut self, host: HostId, occupancy: &Occupancy) {
        assert!(
            occupancy.count(host) <= self.capacity,
            "host {host} is over capacity"
        );
    }

    fn on_evict(&mut self, _host: HostId, _occupancy: &Occupancy) {}

    fn on_host_reboot(&mut self, _host: HostId, _displaced: usize, _occupancy: &Occupancy) {}

    fn total_free(&self, occupancy: &Occupancy) -> u64 {
        (0..self.cell_of_host.len())
            .map(|h| self.free(h, occupancy) as u64)
            .sum()
    }

    fn cell_free(&self, cell: usize, occupancy: &Occupancy) -> u64 {
        assert!(cell < self.cell_count, "cell {cell} out of range");
        (0..self.cell_of_host.len())
            .filter(|&h| self.cell_of_host[h] as usize == cell)
            .map(|h| self.free(h, occupancy) as u64)
            .sum()
    }

    fn cell_count(&self) -> usize {
        self.cell_count
    }

    fn begin_plan(&mut self) {
        debug_assert!(self.taken.is_empty(), "previous plan not ended");
    }

    fn plan_free(&self, host: HostId, occupancy: &Occupancy) -> usize {
        self.effective_free(host.as_usize(), occupancy)
    }

    fn plan_take(&mut self, host: HostId, occupancy: &Occupancy) -> bool {
        let h = host.as_usize();
        if self.effective_free(h, occupancy) == 0 {
            return false;
        }
        *self.taken.entry(h).or_insert(0) += 1;
        true
    }

    fn plan_spill_pick(&mut self, occupancy: &Occupancy, rng: &mut SimRng) -> Option<HostId> {
        // Rebuild the availability-masked popularity weights from scratch
        // — exactly the weights the optimized index maintains in `avail`.
        let weights: Vec<u64> = self
            .pop_fixed
            .iter()
            .enumerate()
            .map(|(h, &weight)| {
                if self.effective_free(h, occupancy) > 0 {
                    weight
                } else {
                    0
                }
            })
            .collect();
        let sampler = LinearSampler::from_weights(weights);
        let h = sampler.pick(rng)?;
        *self.taken.entry(h).or_insert(0) += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
        )]
        Some(HostId::from_raw(h as u32))
    }

    fn end_plan(&mut self) {
        self.taken.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_cloudsim::host::HostGenConfig;
    use eaao_orchestrator::engine::IncrementalCapacity;
    use eaao_simcore::wsample::{sample_distinct, sample_distinct_excluding, FenwickSampler};

    fn small_dc(seed: u64, hosts: usize, capacity: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        let config = HostGenConfig {
            capacity,
            ..HostGenConfig::default()
        };
        DataCenter::generate("test", hosts, &config, 0.9, &mut rng)
    }

    #[test]
    fn linear_sampler_matches_fenwick_draw_for_draw() {
        let mut rng = SimRng::seed_from(3);
        let weights: Vec<u64> = (0..97).map(|_| rng.below(1_000)).collect();
        let mut lin = LinearSampler::from_weights(weights.clone());
        let mut fen = FenwickSampler::from_weights(weights);
        let mut rng_a = SimRng::seed_from(7);
        let mut rng_b = rng_a.clone();
        for round in 0..300 {
            assert_eq!(lin.total(), fen.total(), "round {round}");
            assert_eq!(lin.pick(&mut rng_a), fen.pick(&mut rng_b), "round {round}");
            // Mutate both the same way between picks.
            let i = rng.below(97) as usize;
            let w = rng.below(1_000);
            lin.set_weight(i, w);
            fen.set_weight(i, w);
        }
    }

    #[test]
    fn linear_excluding_scan_matches_zeroing_draws() {
        let mut gen = SimRng::seed_from(29);
        for round in 0..200 {
            let n = 1 + gen.below(300) as usize;
            let weights: Vec<u64> = (0..n)
                .map(|_| gen.below(4).min(1) * gen.below(1_000))
                .collect();
            let exclude: Vec<usize> = (0..gen.below(n as u64 / 2 + 1))
                .map(|_| gen.below(n as u64) as usize)
                .collect();
            let count = gen.below(n as u64 + 3) as usize;
            let shared = LinearSampler::from_weights(weights);
            let mut zeroing = shared.clone();
            for &i in &exclude {
                zeroing.set_weight(i, 0);
            }
            let (mut rng_a, mut rng_b) = (SimRng::seed_from(round), SimRng::seed_from(round));
            let expected = sample_distinct(&mut zeroing, count, &mut rng_a);
            let picks = sample_distinct_excluding(&shared, count, &exclude, &mut rng_b);
            assert_eq!(picks, expected, "round {round}");
            assert_eq!(rng_a.below(1 << 20), rng_b.below(1 << 20), "round {round}");
        }
    }

    #[test]
    fn scan_capacity_mirrors_incremental_through_residency_changes() {
        let dc = small_dc(5, 16, 3);
        let mut occ = Occupancy::default();
        let cells: Vec<u32> = (0..16).map(|h| (h % 4) as u32).collect();
        let mut fast = IncrementalCapacity::new(&dc, cells.clone(), 4);
        let mut slow = ScanCapacity::new(&dc, cells, 4);

        let h = HostId::from_raw(2);
        for _ in 0..3 {
            occ.admit(h);
            fast.on_admit(h, &occ);
            slow.on_admit(h, &occ);
            assert_eq!(fast.total_free(&occ), slow.total_free(&occ));
        }

        occ.evict(h);
        fast.on_evict(h, &occ);
        assert_eq!(fast.total_free(&occ), slow.total_free(&occ));

        let displaced = occ.displace(h);
        fast.on_host_reboot(h, displaced, &occ);
        assert_eq!(fast.total_free(&occ), slow.total_free(&occ));
        for cell in 0..4 {
            assert_eq!(fast.cell_free(cell, &occ), slow.cell_free(cell, &occ));
        }
    }

    #[test]
    #[should_panic(expected = "is over capacity")]
    fn admit_beyond_capacity_panics() {
        let dc = small_dc(5, 4, 2);
        let mut occ = Occupancy::default();
        let cells = vec![0; 4];
        let mut slow = ScanCapacity::new(&dc, cells, 1);
        let h = HostId::from_raw(1);
        for _ in 0..3 {
            occ.admit(h);
            slow.on_admit(h, &occ);
        }
    }

    #[test]
    fn spill_picks_agree_with_the_optimized_overlay() {
        let dc = small_dc(11, 10, 2);
        let occ = Occupancy::default();
        let cells: Vec<u32> = (0..10).map(|h| (h % 2) as u32).collect();
        let mut fast = IncrementalCapacity::new(&dc, cells.clone(), 2);
        let mut slow = ScanCapacity::new(&dc, cells, 2);
        let mut rng_a = SimRng::seed_from(13);
        let mut rng_b = rng_a.clone();
        fast.begin_plan();
        slow.begin_plan();
        // Drain the whole pool through the overlay: 20 picks, then None.
        for round in 0..20 {
            let a = fast.plan_spill_pick(&occ, &mut rng_a);
            let b = slow.plan_spill_pick(&occ, &mut rng_b);
            assert_eq!(a, b, "round {round}");
            assert!(a.is_some(), "round {round}");
        }
        assert_eq!(fast.plan_spill_pick(&occ, &mut rng_a), None);
        assert_eq!(slow.plan_spill_pick(&occ, &mut rng_b), None);
        fast.end_plan();
        slow.end_plan();
        // Both consumed identical RNG: the streams still agree.
        assert_eq!(rng_a.below(1 << 30), rng_b.below(1 << 30));
    }
}
