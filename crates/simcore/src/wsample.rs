//! Weighted index sampling over fixed-point integer weights.
//!
//! The placement hot path samples hosts proportionally to popularity, with
//! hosts excluded, picked without replacement, or suppressed while they
//! are full. This module defines the *sampling
//! protocol* every backend must speak so that an optimized engine and a
//! naive reference engine consume identical RNG streams and return
//! identical picks:
//!
//! 1. Weights are `u64` fixed-point values (see [`fixed_weight`]); all
//!    arithmetic is exact integer arithmetic, so partial sums never depend
//!    on evaluation order the way floating-point sums do.
//! 2. One pick costs exactly one `rng.below(total)` draw. The picked index
//!    is the unique `i` with `prefix(i) <= target < prefix(i + 1)`, where
//!    `prefix(i)` is the sum of the first `i` weights.
//!
//! 3. An exclusion-aware pick
//!    ([`locate_excluding`](IndexSampler::locate_excluding)) returns what
//!    `locate` would if the excluded indices weighed zero, without writing
//!    to the sampler: [`sample_distinct_excluding`] draws its target below
//!    the unexcluded total and hands the sorted exclusion list, with its
//!    prefix sums of weight, to the sampler.
//!
//! Any two [`IndexSampler`] implementations holding the same weights
//! therefore return the same index for the same RNG state — the property
//! the differential oracle in `crates/oracle` checks. [`FenwickSampler`]
//! is the production backend: O(log n) pick and update via a Fenwick
//! (binary indexed) tree, standing in for the precomputed table a real
//! scheduler would keep; its exclusion-aware pick is one descent that
//! subtracts, at each visited node, the excluded weight the node covers.
//! The O(n)-per-pick linear reference lives in the oracle crate.

use std::sync::Arc;

use crate::rng::SimRng;

/// Fixed-point scale for [`fixed_weight`]: weights are quantized to
/// multiples of 2⁻⁴⁰. Large enough that the least popular host of a
/// 10⁶-host Zipf(1.25) pool still gets tens of thousands of quanta, small
/// enough that 10⁶ maximal weights sum without overflowing `u64`.
pub const WEIGHT_SCALE: f64 = (1u64 << 40) as f64;

/// Quantizes a non-negative popularity weight to fixed point.
///
/// Zero maps to zero (never sampled); any positive weight maps to at least
/// one quantum, so quantization can suppress relative precision but never
/// an entire host.
///
/// # Panics
///
/// Panics if `weight` is negative, non-finite, or ≥ 2²³ (which would risk
/// overflowing the `u64` total across a million-entry pool).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the documented weight quantization boundary: round() against WEIGHT_SCALE then max(1) fixes the rule entering the u64 sampler lane"
)]
pub fn fixed_weight(weight: f64) -> u64 {
    assert!(
        weight.is_finite() && weight >= 0.0,
        "weight must be finite and non-negative, got {weight}"
    );
    assert!(weight < (1u64 << 23) as f64, "weight {weight} too large");
    if weight == 0.0 {
        0
    } else {
        ((weight * WEIGHT_SCALE).round() as u64).max(1)
    }
}

/// A mutable population of integer weights supporting weighted index picks.
///
/// See the [module docs](self) for the protocol contract. Implementations
/// must keep [`total`](IndexSampler::total) equal to the exact sum of all
/// current weights.
pub trait IndexSampler: std::fmt::Debug {
    /// Builds a sampler over `weights`.
    ///
    /// # Panics
    ///
    /// May panic if the weights sum past `u64::MAX`.
    fn from_weights(weights: Vec<u64>) -> Self
    where
        Self: Sized;

    /// Number of indexed entries (with any weight, including zero).
    fn len(&self) -> usize;

    /// Whether the sampler indexes no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact sum of all current weights.
    fn total(&self) -> u64;

    /// The current weight of `index`.
    fn weight(&self, index: usize) -> u64;

    /// Replaces the weight of `index`.
    fn set_weight(&mut self, index: usize, weight: u64);

    /// The unique index `i` with `prefix(i) <= target < prefix(i + 1)`.
    ///
    /// # Panics
    ///
    /// May panic (or return an arbitrary index) if `target >= total()`;
    /// callers must draw `target` with `rng.below(total)`.
    fn locate(&self, target: u64) -> usize;

    /// What [`locate`](IndexSampler::locate) would return for `target`
    /// if every index of `zeroed` weighed zero, without writing to the
    /// sampler.
    ///
    /// `zeroed` is ascending and deduplicated, every index in range;
    /// `removed` holds its prefix sums of weight, `zeroed.len() + 1`
    /// entries: `removed[k]` is the current weight of `zeroed[..k]`, so
    /// `removed[zeroed.len()]` is the whole excluded weight. The answer
    /// never is an excluded or zero-weight index.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not below the unexcluded total,
    /// `total() - removed[zeroed.len()]`.
    fn locate_excluding(&self, target: u64, zeroed: &[usize], removed: &[u64]) -> usize;

    /// One weighted pick: a single `rng.below(total)` draw mapped through
    /// [`locate`](IndexSampler::locate). `None` when every weight is zero
    /// (consuming no randomness).
    // tidy:allow(panic-reachability) -- `locate` receives `rng.below(total)`, which is below `total` by the rng contract, so the sampler's out-of-range panic is unreachable from here.
    fn pick(&self, rng: &mut SimRng) -> Option<usize> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        Some(self.locate(rng.below(total)))
    }
}

/// Samples up to `count` distinct indices without replacement by repeatedly
/// picking and zeroing the picked weight. Stops early when all weight is
/// exhausted.
///
/// Picked weights are left zeroed; the caller restores them (it knows the
/// original weights) when the exclusion should not persist.
pub fn sample_distinct<S: IndexSampler>(
    sampler: &mut S,
    count: usize,
    rng: &mut SimRng,
) -> Vec<usize> {
    let mut picks = Vec::with_capacity(count.min(sampler.len()));
    while picks.len() < count {
        match sampler.pick(rng) {
            Some(i) => {
                sampler.set_weight(i, 0);
                picks.push(i);
            }
            None => break,
        }
    }
    picks
}

/// Samples up to `count` distinct indices exactly as [`sample_distinct`]
/// would after zeroing the weights of `exclude` — the same picks from the
/// same `rng.below(total)` draws — but without writing to the sampler:
/// excluded and already-picked indices are kept in one sorted list, and
/// each pick is one [`IndexSampler::locate_excluding`] against it. A
/// sampler shared copy-on-write (with branches, or with a pool's genesis
/// lanes) therefore stays shared.
///
/// # Panics
///
/// Panics if an index in `exclude` is out of range.
pub fn sample_distinct_excluding<S: IndexSampler>(
    sampler: &S,
    count: usize,
    exclude: &[usize],
    rng: &mut SimRng,
) -> Vec<usize> {
    let mut zeroed = exclude.to_vec();
    zeroed.sort_unstable();
    zeroed.dedup();
    // `removed[k]`: the weight zeroed below `zeroed[k]` (one extra entry
    // for the whole set).
    let mut removed = vec![0u64];
    for &z in &zeroed {
        removed.push(removed[removed.len() - 1] + sampler.weight(z));
    }
    let mut total = sampler.total() - removed[zeroed.len()];
    let mut picks = Vec::with_capacity(count.min(sampler.len()));
    while picks.len() < count && total > 0 {
        let pick = sampler.locate_excluding(rng.below(total), &zeroed, &removed);
        let at = zeroed.partition_point(|&z| z < pick);
        let weight = sampler.weight(pick);
        zeroed.insert(at, pick);
        removed.insert(at + 1, removed[at]);
        for r in &mut removed[at + 1..] {
            *r += weight;
        }
        total -= weight;
        picks.push(pick);
    }
    picks
}

/// Builds the 1-indexed Fenwick (binary indexed) tree over `weights`:
/// `tree[i]` covers `i - lowbit(i) .. i`. O(n) bottom-up construction.
///
/// Exposed so a tree built once over an immutable weight lane (e.g. a
/// data center's popularity weights) can be cached and shared by every
/// [`FenwickSampler::from_shared`] over that lane.
///
/// # Panics
///
/// Panics if the weights sum past `u64::MAX`.
pub fn fenwick_tree(weights: &[u64]) -> Vec<u64> {
    let n = weights.len();
    let mut tree = vec![0u64; n + 1];
    tree[1..].copy_from_slice(weights);
    // O(n) bottom-up construction: fold each node into its parent.
    for i in 1..=n {
        let parent = i + (i & i.wrapping_neg());
        if parent <= n {
            tree[parent] = tree[parent]
                .checked_add(tree[i])
                .expect("total weight overflows u64");
        }
    }
    tree
}

/// The production sampler: a Fenwick (binary indexed) tree over the
/// weights, giving O(log n) [`set_weight`](IndexSampler::set_weight) and
/// O(log n) [`locate`](IndexSampler::locate) by binary descent, with the
/// total maintained incrementally.
///
/// The tree and weight lanes are `Arc`-backed copy-on-write: `Clone` is
/// O(1) and shares both lanes; the first [`set_weight`] after a clone
/// unshares them (one O(n) copy). This is what makes branching a world
/// holding pool-sized samplers cheap.
///
/// [`set_weight`]: IndexSampler::set_weight
#[derive(Debug)]
pub struct FenwickSampler {
    /// 1-indexed Fenwick tree; `tree[i]` covers `i - lowbit(i) .. i`.
    tree: Arc<Vec<u64>>,
    weights: Arc<Vec<u64>>,
    total: u64,
    /// Largest power of two ≤ len, the starting stride of the descent.
    top: usize,
}

impl Clone for FenwickSampler {
    // Written by hand so the share-vs-detach decision per field is
    // explicit (the fork-coverage contract): both lanes are
    // copy-on-write — branches share the Arcs until the first
    // `set_weight` after the clone unshares them through
    // `Arc::make_mut` — and the two scalars are plain copies describing
    // the shared lanes.
    fn clone(&self) -> Self {
        FenwickSampler {
            tree: Arc::clone(&self.tree),
            weights: Arc::clone(&self.weights),
            total: self.total,
            top: self.top,
        }
    }
}

impl FenwickSampler {
    /// Builds a sampler sharing pre-built weight and tree lanes — O(1),
    /// no per-sampler copy. `tree` must be [`fenwick_tree`]`(&weights)`;
    /// the caller typically caches both `Arc`s next to the immutable
    /// weight lane they derive from.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not shaped like a Fenwick tree over `weights`
    /// (length mismatch), or if the weights sum past `u64::MAX`.
    pub fn from_shared(weights: Arc<Vec<u64>>, tree: Arc<Vec<u64>>) -> Self {
        let n = weights.len();
        assert_eq!(tree.len(), n + 1, "tree does not match weights");
        // The total is the prefix sum of the full range: O(log n) from
        // the tree, no weight scan.
        let mut total = 0u64;
        let mut i = n;
        while i > 0 {
            total = total
                .checked_add(tree[i])
                .expect("total weight overflows u64");
            i -= i & i.wrapping_neg();
        }
        let top = if n == 0 { 0 } else { usize::pow(2, n.ilog2()) };
        FenwickSampler {
            tree,
            weights,
            total,
            top,
        }
    }
}

impl IndexSampler for FenwickSampler {
    fn from_weights(weights: Vec<u64>) -> Self {
        let tree = fenwick_tree(&weights);
        FenwickSampler::from_shared(Arc::new(weights), Arc::new(tree))
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
        let old = self.weights[index];
        if old == weight {
            return;
        }
        // First write after a clone: unshare the copy-on-write lanes.
        let weights = Arc::make_mut(&mut self.weights);
        let tree = Arc::make_mut(&mut self.tree);
        weights[index] = weight;
        let mut i = index + 1;
        if weight > old {
            let delta = weight - old;
            self.total = self.total.checked_add(delta).expect("total overflow");
            while i < tree.len() {
                tree[i] += delta;
                i += i & i.wrapping_neg();
            }
        } else {
            let delta = old - weight;
            self.total -= delta;
            while i < tree.len() {
                tree[i] -= delta;
                i += i & i.wrapping_neg();
            }
        }
    }

    // tidy:allow(panic-reachability) -- every `tree[next]` access is guarded by `next < self.tree.len()` on the same line.
    fn locate(&self, target: u64) -> usize {
        debug_assert!(
            target < self.total,
            "target {target} >= total {}",
            self.total
        );
        // Binary descent: find the largest position whose prefix sum is
        // ≤ target; the entry right after it is the picked index.
        let mut pos = 0usize;
        let mut rem = target;
        let mut stride = self.top;
        while stride > 0 {
            let next = pos + stride;
            if next < self.tree.len() && self.tree[next] <= rem {
                rem -= self.tree[next];
                pos = next;
            }
            stride >>= 1;
        }
        pos
    }

    // tidy:allow(panic-reachability) -- `tree[next]` is guarded by `next < self.tree.len()`; `below <= inside <= zeroed.len() < removed.len()` by the caller's contract, and the assert is the documented out-of-range panic.
    fn locate_excluding(&self, target: u64, zeroed: &[usize], removed: &[u64]) -> usize {
        let unexcluded = self.total - removed[zeroed.len()];
        assert!(
            target < unexcluded,
            "target {target} >= unexcluded total {unexcluded}"
        );
        // The descent of `locate` over the weights net of the exclusion:
        // the node at `next` covers indices `pos..next`, and the excluded
        // indices inside it are `zeroed[below..inside]`, where `below`
        // counts the excluded indices under `pos`.
        let mut pos = 0usize;
        let mut rem = target;
        let mut below = 0usize;
        let mut stride = self.top;
        while stride > 0 {
            let next = pos + stride;
            if next < self.tree.len() {
                let inside = match zeroed.get(below) {
                    Some(&z) if z < next => below + zeroed[below..].partition_point(|&z| z < next),
                    _ => below,
                };
                let net = self.tree[next] - (removed[inside] - removed[below]);
                if net <= rem {
                    rem -= net;
                    pos = next;
                    below = inside;
                }
            }
            stride >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obvious O(n) locate, used to cross-check the descent.
    fn linear_locate(weights: &[u64], target: u64) -> usize {
        let mut cum = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            cum += w;
            if target < cum {
                return i;
            }
        }
        panic!("target {target} >= total {cum}");
    }

    #[test]
    fn fixed_weight_quantizes_without_dropping() {
        assert_eq!(fixed_weight(0.0), 0);
        assert_eq!(fixed_weight(1.0), 1u64 << 40);
        // Tiny but positive weights survive quantization.
        assert!(fixed_weight(1e-15) >= 1);
        // Monotone on representable values.
        assert!(fixed_weight(0.25) < fixed_weight(0.5));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn fixed_weight_rejects_negative() {
        fixed_weight(-1.0);
    }

    #[test]
    fn locate_matches_linear_scan_exhaustively() {
        let weights = vec![3u64, 0, 5, 1, 0, 0, 7, 2, 4, 0, 6];
        let s = FenwickSampler::from_weights(weights.clone());
        assert_eq!(s.total(), 28);
        for target in 0..28 {
            assert_eq!(
                s.locate(target),
                linear_locate(&weights, target),
                "target {target}"
            );
        }
    }

    #[test]
    fn locate_matches_linear_after_random_updates() {
        let mut rng = SimRng::seed_from(42);
        let mut weights: Vec<u64> = (0..257).map(|_| rng.below(100)).collect();
        let mut s = FenwickSampler::from_weights(weights.clone());
        for _ in 0..500 {
            let i = rng.below(weights.len() as u64) as usize;
            let w = rng.below(100);
            weights[i] = w;
            s.set_weight(i, w);
            assert_eq!(s.total(), weights.iter().sum::<u64>());
            if s.total() > 0 {
                let target = rng.below(s.total());
                assert_eq!(s.locate(target), linear_locate(&weights, target));
            }
        }
    }

    #[test]
    fn pick_never_returns_zero_weight() {
        let mut rng = SimRng::seed_from(7);
        let weights = vec![0u64, 4, 0, 0, 9, 0, 1, 0];
        let s = FenwickSampler::from_weights(weights.clone());
        for _ in 0..200 {
            let i = s.pick(&mut rng).expect("positive total");
            assert!(weights[i] > 0, "picked zero-weight index {i}");
        }
    }

    #[test]
    fn pick_on_empty_total_is_none_and_draws_nothing() {
        let mut rng = SimRng::seed_from(9);
        let mut probe = rng.clone();
        let s = FenwickSampler::from_weights(vec![0, 0, 0]);
        assert_eq!(s.pick(&mut rng), None);
        // No RNG state consumed.
        assert_eq!(rng.below(1000), probe.below(1000));
    }

    #[test]
    fn sample_distinct_is_distinct_and_exhausts() {
        let mut rng = SimRng::seed_from(11);
        let mut s = FenwickSampler::from_weights(vec![5, 1, 3, 2]);
        let picks = sample_distinct(&mut s, 10, &mut rng);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picks.len(), "duplicate picks");
        assert_eq!(picks.len(), 4, "exhausts the population then stops");
        assert_eq!(s.total(), 0);
    }

    /// Excluding draws match the draws of a sampler zeroed by
    /// `set_weight` over `exclude`: the same picks, and the same RNG state
    /// after them.
    fn assert_excluding_matches_zeroing(
        weights: Vec<u64>,
        exclude: &[usize],
        count: usize,
        seed: u64,
    ) {
        let shared = FenwickSampler::from_weights(weights);
        let mut zeroing = shared.clone();
        for &i in exclude {
            zeroing.set_weight(i, 0);
        }
        let (mut rng_a, mut rng_b) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        let expected = sample_distinct(&mut zeroing, count, &mut rng_a);
        let picks = sample_distinct_excluding(&shared, count, exclude, &mut rng_b);
        let n = shared.len();
        assert_eq!(picks, expected, "seed {seed}, n {n}");
        assert_eq!(
            rng_a.below(1 << 20),
            rng_b.below(1 << 20),
            "seed {seed}, n {n}"
        );
    }

    #[test]
    fn excluding_draws_match_zeroing_draws_without_writing() {
        let mut gen = SimRng::seed_from(17);
        for round in 0..200 {
            let n = 1 + gen.below(60) as usize;
            let weights: Vec<u64> = (0..n).map(|_| gen.below(4) * gen.below(50)).collect();
            let exclude: Vec<usize> = (0..gen.below(8))
                .map(|_| gen.below(n as u64) as usize)
                .collect();
            let count = gen.below(n as u64 + 2) as usize;
            assert_excluding_matches_zeroing(weights, &exclude, count, round);
        }
    }

    #[test]
    fn excluding_draws_match_zeroing_draws_on_deep_trees() {
        // Sizes at and beside powers of two put the last index at every
        // depth of the descent; the random ones fill in between.
        let edges = (4..=11).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        let mut gen = SimRng::seed_from(23);
        let random: Vec<usize> = (0..36).map(|_| 1 + gen.below(3_000) as usize).collect();
        for (round, n) in (1_000..).zip(edges.chain(random)) {
            let weights: Vec<u64> = (0..n)
                .map(|_| gen.below(4).min(1) * gen.below(1 << 30))
                .collect();
            let exclude: Vec<usize> = (0..gen.below(n as u64 / 2 + 1))
                .map(|_| gen.below(n as u64) as usize)
                .collect();
            let count = gen.below(n as u64 + 3) as usize;
            assert_excluding_matches_zeroing(weights, &exclude, count, round);
        }
    }

    #[test]
    #[should_panic(expected = "unexcluded total")]
    fn locate_excluding_rejects_a_target_past_the_unexcluded_total() {
        let s = FenwickSampler::from_weights(vec![3, 5, 7]);
        // Excluding index 1 leaves a total of 10.
        let _ = s.locate_excluding(10, &[1], &[0, 5]);
    }

    #[test]
    fn pick_distribution_tracks_weights() {
        let mut rng = SimRng::seed_from(13);
        let s = FenwickSampler::from_weights(vec![9000, 900, 90, 10]);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[s.pick(&mut rng).unwrap()] += 1;
        }
        assert!(counts[0] > 8_500, "heavy index under-sampled: {counts:?}");
        assert!(counts[3] < 100, "light index over-sampled: {counts:?}");
    }

    #[test]
    fn from_shared_matches_from_weights() {
        let weights = vec![3u64, 0, 5, 1, 0, 0, 7, 2, 4, 0, 6];
        let owned = FenwickSampler::from_weights(weights.clone());
        let lane = Arc::new(weights);
        let tree = Arc::new(fenwick_tree(&lane));
        let shared = FenwickSampler::from_shared(Arc::clone(&lane), tree);
        assert_eq!(shared.total(), owned.total());
        assert_eq!(shared.len(), owned.len());
        for target in 0..shared.total() {
            assert_eq!(shared.locate(target), owned.locate(target));
        }
    }

    #[test]
    #[should_panic(expected = "tree does not match weights")]
    fn from_shared_rejects_mismatched_tree() {
        let lane = Arc::new(vec![1u64, 2, 3]);
        let tree = Arc::new(fenwick_tree(&[1u64, 2]));
        let _ = FenwickSampler::from_shared(lane, tree);
    }

    #[test]
    fn clones_are_copy_on_write() {
        let weights = vec![3u64, 5, 7, 2];
        let parent = FenwickSampler::from_weights(weights.clone());
        let mut child = parent.clone();
        // A write to the clone never perturbs the original...
        child.set_weight(1, 0);
        assert_eq!(child.weight(1), 0);
        assert_eq!(child.total(), 12);
        assert_eq!(parent.weight(1), 5);
        assert_eq!(parent.total(), 17);
        // ...and both stay internally consistent afterwards.
        for target in 0..parent.total() {
            assert_eq!(parent.locate(target), linear_locate(&weights, target));
        }
        let edited = vec![3u64, 0, 7, 2];
        for target in 0..child.total() {
            assert_eq!(child.locate(target), linear_locate(&edited, target));
        }
    }

    #[test]
    fn single_entry_and_empty_samplers() {
        let s = FenwickSampler::from_weights(vec![42]);
        assert_eq!(s.locate(0), 0);
        assert_eq!(s.locate(41), 0);
        let empty = FenwickSampler::from_weights(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.total(), 0);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(empty.pick(&mut rng), None);
    }
}
