//! The paper's scalable co-location verification (Section 4.3, Figure 3).
//!
//! Given instances pre-grouped by fingerprint, the verifier
//!
//! 1. splits every group into sub-groups of at most `2m − 1` instances,
//! 2. `CTest`s each sub-group, merging verified co-located members into
//!    clusters, then hierarchically merges sub-group representatives —
//!    falling back to pairwise tests inside a group only when the
//!    hierarchy disagrees (fingerprint false positives),
//! 3. sweeps for false negatives: one representative per cluster, all
//!    tested at once; positives are refined pairwise and their clusters
//!    merged.
//!
//! Only step 2's chunk tests, of up to `2m − 1` instances or
//! representatives, use the configured threshold `m`. The pairwise
//! fallback and all of step 3 run at `m = 2`: a host may hold just two of
//! their participants, and two co-located instances never reach a higher
//! threshold. At the paper's `m = 2` the two configurations are equal.
//!
//! Best case — accurate fingerprints — the cost is O(number of hosts),
//! versus O(N²) for conventional pairwise testing. The Gen 2 fingerprint
//! cannot produce false negatives, so step 3 can be skipped entirely
//! (Section 4.5).

use eaao_cloudsim::ids::InstanceId;
use eaao_cloudsim::pricing::Cost;
use eaao_orchestrator::error::GuestError;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::cluster::CoLocationForest;
use crate::verify::ctest::{ctest, CTestConfig};

/// Accounting for one verification campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VerifierStats {
    /// Multi-instance `CTest` invocations.
    pub ctests: usize,
    /// Pairwise tests issued by the fallback path.
    pub pairwise_fallback_tests: usize,
    /// Wall time consumed (tests are serialized to avoid interference).
    pub wall: SimDuration,
    /// Billed cost of keeping the instances active during the campaign.
    pub cost: Cost,
}

/// The result of verifying a set of instances.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationOutcome {
    /// Verified co-location clusters (each sorted, ordered by first
    /// member). Every input instance appears exactly once.
    pub clusters: Vec<Vec<InstanceId>>,
    /// Test accounting.
    pub stats: VerifierStats,
}

impl VerificationOutcome {
    /// Cluster labels aligned with `instances` — for metric computation.
    ///
    /// # Panics
    ///
    /// Panics if an instance was not part of the verification.
    pub fn labels_for(&self, instances: &[InstanceId]) -> Vec<usize> {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract: callers pass verified instances only"
        )]
        instances
            .iter()
            .map(|id| {
                self.clusters
                    .iter()
                    .position(|c| c.contains(id))
                    .unwrap_or_else(|| panic!("instance {id} not verified"))
            })
            .collect()
    }
}

/// The scalable verifier.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalVerifier {
    config: CTestConfig,
    /// Skip the false-negative sweep (valid for Gen 2 fingerprints, which
    /// cannot split one host across fingerprints).
    skip_false_negative_sweep: bool,
}

impl HierarchicalVerifier {
    /// Creates a verifier with the paper's default test parameters
    /// (`m = 2`, 30-of-60 rounds, RNG channel).
    pub fn new() -> Self {
        HierarchicalVerifier {
            config: CTestConfig::default(),
            skip_false_negative_sweep: false,
        }
    }

    /// Uses a custom `CTest` configuration.
    pub fn with_config(mut self, config: CTestConfig) -> Self {
        config.validate();
        self.config = config;
        self
    }

    /// Skips step 3 — sound when fingerprints cannot produce false
    /// negatives (Gen 2).
    pub fn without_false_negative_sweep(mut self) -> Self {
        self.skip_false_negative_sweep = true;
        self
    }

    /// Verifies `groups` (instances pre-grouped by fingerprint) and
    /// returns the ground-truth co-location clusters plus accounting.
    ///
    /// # Errors
    ///
    /// Returns a [`GuestError`] if any instance dies mid-campaign.
    ///
    /// # Panics
    ///
    /// Panics if an instance appears in two groups.
    pub fn verify(
        &self,
        world: &mut World,
        groups: &[Vec<InstanceId>],
    ) -> Result<VerificationOutcome, GuestError> {
        let mut verify_span = eaao_obs::span("verify.hierarchical");
        verify_span.u64_field("groups", groups.len() as u64);
        let all: Vec<InstanceId> = groups.iter().flatten().copied().collect();
        verify_span.u64_field("instances", all.len() as u64);
        let mut forest = CoLocationForest::new(all);
        let mut stats = VerifierStats::default();
        let wall_start = world.now();
        let cost_start = world.billed();

        // Step 2: verify each fingerprint group.
        for group in groups {
            self.verify_group(world, group, &mut forest, &mut stats)?;
        }

        // Step 3: false-negative sweep across cluster representatives.
        if !self.skip_false_negative_sweep {
            self.false_negative_sweep(world, &mut forest, &mut stats)?;
        }

        stats.wall = world.now() - wall_start;
        stats.cost = world.billed() - cost_start;
        verify_span.u64_field("ctests", stats.ctests as u64);
        verify_span.u64_field("pairwise_fallback", stats.pairwise_fallback_tests as u64);
        eaao_obs::observe("verify.sim_ns", stats.wall.as_nanos() as u64);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "round() fixes the micro-dollar rule for a non-negative spend far below 2^64"
        )]
        eaao_obs::count(
            "verify.cost_microusd",
            (stats.cost.as_usd() * 1e6).round() as u64,
        );
        Ok(VerificationOutcome {
            clusters: forest.clusters(),
            stats,
        })
    }

    /// Splits a fingerprint group into `≤ 2m−1` chunks, tests each, and
    /// hierarchically merges the chunk representatives.
    fn verify_group(
        &self,
        world: &mut World,
        group: &[InstanceId],
        forest: &mut CoLocationForest,
        stats: &mut VerifierStats,
    ) -> Result<(), GuestError> {
        if group.len() < 2 {
            return Ok(());
        }
        let max = self.config.max_unambiguous_group();
        for chunk in group.chunks(max) {
            if chunk.len() >= 2 {
                self.test_and_merge(world, chunk, forest, stats)?;
            }
        }
        // Hierarchically merge representatives of the sub-clusters.
        loop {
            let reps = self.representatives(group, forest);
            if reps.len() < 2 {
                return Ok(());
            }
            let mut merged_any = false;
            for chunk in reps.chunks(max) {
                if chunk.len() >= 2 && self.test_and_merge(world, chunk, forest, stats)? {
                    merged_any = true;
                }
            }
            if !merged_any {
                break;
            }
        }
        // The hierarchy saw negatives (a fingerprint false positive split
        // the group across hosts): fall back to pairwise tests inside the
        // group, as the paper does for simplicity.
        let reps = self.representatives(group, forest);
        let pair = self.pair_config();
        for i in 0..reps.len() {
            for j in (i + 1)..reps.len() {
                if forest.same_cluster(reps[i], reps[j]) {
                    continue;
                }
                let verdicts = ctest(world, &[reps[i], reps[j]], &pair)?;
                stats.pairwise_fallback_tests += 1;
                if verdicts[0] && verdicts[1] {
                    forest.merge(reps[i], reps[j]);
                }
            }
        }
        Ok(())
    }

    /// Runs one `CTest`; merges the verified positives. Returns whether a
    /// merge happened.
    fn test_and_merge(
        &self,
        world: &mut World,
        participants: &[InstanceId],
        forest: &mut CoLocationForest,
        stats: &mut VerifierStats,
    ) -> Result<bool, GuestError> {
        debug_assert!(participants.len() <= self.config.max_unambiguous_group());
        let verdicts = ctest(world, participants, &self.config)?;
        stats.ctests += 1;
        let positives: Vec<InstanceId> = participants
            .iter()
            .zip(&verdicts)
            .filter_map(|(&id, &v)| v.then_some(id))
            .collect();
        // At least m instances must be co-located for any to test
        // positive; within 2m−1 participants they share one host.
        if positives.len() >= self.config.threshold_m as usize {
            forest.merge_all(&positives);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The configuration of the tests that may hold only two instances of
    /// one host: the pairwise fallback, and the sweep over cluster
    /// representatives with its pairwise refinement. Two co-located
    /// instances reach a threshold of 2 and no higher, so these run at
    /// `m = 2`; only the chunk tests use the configured `m`.
    fn pair_config(&self) -> CTestConfig {
        CTestConfig {
            threshold_m: 2,
            ..self.config
        }
    }

    /// One representative (smallest id) per current cluster among
    /// `members`.
    fn representatives(
        &self,
        members: &[InstanceId],
        forest: &mut CoLocationForest,
    ) -> Vec<InstanceId> {
        let mut reps: Vec<InstanceId> = Vec::new();
        let mut seen: Vec<InstanceId> = Vec::new();
        for &m in members {
            if seen.iter().any(|&r| forest.same_cluster(r, m)) {
                continue;
            }
            seen.push(m);
            reps.push(m);
        }
        reps
    }

    /// Step 3: test one representative per cluster, all at once; refine
    /// positives pairwise and merge their clusters.
    fn false_negative_sweep(
        &self,
        world: &mut World,
        forest: &mut CoLocationForest,
        stats: &mut VerifierStats,
    ) -> Result<(), GuestError> {
        let reps: Vec<InstanceId> = forest.clusters().iter().map(|c| c[0]).collect();
        if reps.len() < 2 {
            return Ok(());
        }
        let pair = self.pair_config();
        let verdicts = ctest(world, &reps, &pair)?;
        stats.ctests += 1;
        let positives: Vec<InstanceId> = reps
            .iter()
            .zip(&verdicts)
            .filter_map(|(&id, &v)| v.then_some(id))
            .collect();
        // Refine: find which positive representatives actually share hosts.
        for i in 0..positives.len() {
            for j in (i + 1)..positives.len() {
                if forest.same_cluster(positives[i], positives[j]) {
                    continue;
                }
                let verdicts = ctest(world, &[positives[i], positives[j]], &pair)?;
                stats.ctests += 1;
                if verdicts[0] && verdicts[1] {
                    forest.merge(positives[i], positives[j]);
                }
            }
        }
        Ok(())
    }
}

impl Default for HierarchicalVerifier {
    fn default() -> Self {
        HierarchicalVerifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_cloudsim::service::ServiceSpec;
    use eaao_orchestrator::config::RegionConfig;
    use std::collections::HashMap;

    fn launch_world(seed: u64, count: usize) -> (World, Vec<InstanceId>) {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(40), seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let launch = world.launch(service, count).expect("fits");
        (world, launch.instances().to_vec())
    }

    fn true_groups(world: &World, ids: &[InstanceId]) -> Vec<Vec<InstanceId>> {
        let mut map: HashMap<_, Vec<InstanceId>> = HashMap::new();
        for &id in ids {
            map.entry(world.host_of(id)).or_default().push(id);
        }
        let mut groups: Vec<Vec<InstanceId>> = map.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    fn clusters_match_ground_truth(
        world: &World,
        outcome: &VerificationOutcome,
        ids: &[InstanceId],
    ) -> bool {
        let mut truth = true_groups(world, ids);
        let mut got = outcome.clusters.clone();
        truth.sort();
        got.sort();
        truth == got
    }

    #[test]
    fn perfect_groups_verify_in_one_pass() {
        let (mut world, ids) = launch_world(1, 80);
        let groups = true_groups(&world, &ids);
        let verifier = HierarchicalVerifier::new();
        let outcome = verifier.verify(&mut world, &groups).expect("alive");
        assert!(clusters_match_ground_truth(&world, &outcome, &ids));
        assert!(outcome.stats.ctests > 0);
        assert_eq!(outcome.stats.pairwise_fallback_tests, 0);
        assert!(outcome.stats.wall.as_secs_f64() > 0.0);
        assert!(outcome.stats.cost.as_usd() > 0.0);
    }

    #[test]
    fn false_positive_groups_get_split() {
        let (mut world, ids) = launch_world(2, 60);
        // Merge everything into one big bogus "fingerprint group".
        let groups = vec![ids.clone()];
        let verifier = HierarchicalVerifier::new();
        let outcome = verifier.verify(&mut world, &groups).expect("alive");
        assert!(clusters_match_ground_truth(&world, &outcome, &ids));
    }

    #[test]
    fn false_negative_groups_get_merged() {
        let (mut world, ids) = launch_world(3, 60);
        // Every instance its own group: only the step-3 sweep can merge.
        let groups: Vec<Vec<InstanceId>> = ids.iter().map(|&i| vec![i]).collect();
        let verifier = HierarchicalVerifier::new();
        let outcome = verifier.verify(&mut world, &groups).expect("alive");
        assert!(clusters_match_ground_truth(&world, &outcome, &ids));
    }

    /// Builds the fingerprint groups a test hands the verifier.
    type Grouping = fn(&World, &[InstanceId]) -> Vec<Vec<InstanceId>>;

    #[test]
    fn thresholds_above_two_still_recover_ground_truth() {
        // Two co-located instances reach a threshold of 2 and no higher,
        // so a pair test or a sweep over cluster representatives only
        // finds them at m = 2, whatever m the chunk tests use.
        let cases: [(u64, usize, Grouping); 3] = [
            // A fingerprint false positive: one group of every instance.
            (2, 60, |_, ids| vec![ids.to_vec()]),
            // False negatives: every instance alone, so only the sweep
            // can merge.
            (3, 60, |_, ids| ids.iter().map(|&i| vec![i]).collect()),
            // One host's true group split in two: the sweep sees a host
            // with two representatives.
            (1, 80, |world, ids| {
                let mut groups = true_groups(world, ids);
                let widest = (0..groups.len())
                    .max_by_key(|&g| groups[g].len())
                    .expect("instances launched");
                let half = groups[widest].len() / 2;
                let split = groups[widest].split_off(half);
                groups.push(split);
                groups
            }),
        ];
        for m in [3, 4] {
            let verifier = HierarchicalVerifier::new().with_config(CTestConfig {
                threshold_m: m,
                ..CTestConfig::default()
            });
            for (seed, count, grouping) in cases {
                let (mut world, ids) = launch_world(seed, count);
                let groups = grouping(&world, &ids);
                let outcome = verifier.verify(&mut world, &groups).expect("alive");
                assert!(
                    clusters_match_ground_truth(&world, &outcome, &ids),
                    "m = {m}, seed {seed}: {} clusters over {} hosts",
                    outcome.clusters.len(),
                    true_groups(&world, &ids).len()
                );
            }
        }
    }

    #[test]
    fn skipping_sweep_saves_tests_but_keeps_splits() {
        let (mut world, ids) = launch_world(4, 60);
        let groups: Vec<Vec<InstanceId>> = ids.iter().map(|&i| vec![i]).collect();
        let verifier = HierarchicalVerifier::new().without_false_negative_sweep();
        let outcome = verifier.verify(&mut world, &groups).expect("alive");
        // Without the sweep, the bogus all-singleton grouping stays split.
        assert_eq!(outcome.clusters.len(), ids.len());
        assert_eq!(outcome.stats.ctests, 0);
    }

    #[test]
    fn best_case_test_count_scales_with_hosts_not_pairs() {
        let (mut world, ids) = launch_world(5, 100);
        let groups = true_groups(&world, &ids);
        let host_count = groups.len();
        let verifier = HierarchicalVerifier::new();
        let outcome = verifier.verify(&mut world, &groups).expect("alive");
        let pairwise_count = ids.len() * (ids.len() - 1) / 2;
        assert!(
            outcome.stats.ctests < pairwise_count / 10,
            "hierarchical used {} tests vs {} pairwise",
            outcome.stats.ctests,
            pairwise_count
        );
        // Rough O(hosts): each host needs a handful of chunk tests plus
        // the rep hierarchy and one sweep.
        assert!(
            outcome.stats.ctests <= host_count * 8 + 2,
            "{} tests for {} hosts",
            outcome.stats.ctests,
            host_count
        );
    }

    #[test]
    fn labels_align_with_input() {
        let (mut world, ids) = launch_world(6, 30);
        let groups = true_groups(&world, &ids);
        let outcome = HierarchicalVerifier::new()
            .verify(&mut world, &groups)
            .expect("alive");
        let labels = outcome.labels_for(&ids);
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                assert_eq!(
                    labels[i] == labels[j],
                    world.co_located(a, b),
                    "label mismatch for {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let (mut world, ids) = launch_world(7, 1);
        let outcome = HierarchicalVerifier::new()
            .verify(&mut world, &[])
            .expect("trivial");
        assert!(outcome.clusters.is_empty());
        let outcome = HierarchicalVerifier::new()
            .verify(&mut world, &[vec![ids[0]]])
            .expect("trivial");
        assert_eq!(outcome.clusters, vec![vec![ids[0]]]);
        assert_eq!(outcome.stats.ctests, 0);
    }
}
