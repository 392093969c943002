//! Co-location clusters and the union-find that builds them.
//!
//! Verification (Section 4.3) incrementally merges instances that are
//! proven to share a host. A tiny union-find keeps that bookkeeping exact
//! regardless of the order in which evidence arrives.

use std::collections::BTreeMap;

use eaao_cloudsim::ids::InstanceId;

/// Union-find over a fixed set of instances.
#[derive(Debug, Clone)]
pub struct CoLocationForest {
    ids: Vec<InstanceId>,
    index: BTreeMap<InstanceId, usize>,
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl CoLocationForest {
    /// Creates a forest where every instance is its own cluster.
    ///
    /// # Panics
    ///
    /// Panics if `ids` contains duplicates.
    pub fn new(ids: impl IntoIterator<Item = InstanceId>) -> Self {
        let ids: Vec<InstanceId> = ids.into_iter().collect();
        let mut index = BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let previous = index.insert(id, i);
            assert!(previous.is_none(), "duplicate instance {id}");
        }
        let parent = (0..ids.len()).collect();
        let rank = vec![0; ids.len()];
        CoLocationForest {
            ids,
            index,
            parent,
            rank,
        }
    }

    /// Number of instances tracked.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the forest tracks no instances.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Index of a tracked instance; the documented `# Panics` contract of
    /// `merge`/`same_cluster`.
    fn index_of(&self, id: InstanceId) -> usize {
        match self.index.get(&id) {
            Some(&i) => i,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract: callers must pass tracked ids"
            )]
            None => panic!("unknown instance {id}"),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Records evidence that `a` and `b` share a host.
    ///
    /// # Panics
    ///
    /// Panics if either instance is not tracked.
    pub fn merge(&mut self, a: InstanceId, b: InstanceId) {
        let (ia, ib) = (self.index_of(a), self.index_of(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }

    /// Records evidence that all of `members` share one host.
    pub fn merge_all(&mut self, members: &[InstanceId]) {
        for window in members.windows(2) {
            self.merge(window[0], window[1]);
        }
    }

    /// Whether `a` and `b` are currently in the same cluster.
    ///
    /// # Panics
    ///
    /// Panics if either instance is not tracked.
    pub fn same_cluster(&mut self, a: InstanceId, b: InstanceId) -> bool {
        let (ia, ib) = (self.index_of(a), self.index_of(b));
        self.find(ia) == self.find(ib)
    }

    /// Extracts the clusters, each sorted by instance id, ordered by their
    /// smallest member.
    // tidy:allow(panic-reachability) -- `i` ranges over `0..self.ids.len()`.
    pub fn clusters(&mut self) -> Vec<Vec<InstanceId>> {
        let mut by_root: BTreeMap<usize, Vec<InstanceId>> = BTreeMap::new();
        for i in 0..self.ids.len() {
            let root = self.find(i);
            by_root.entry(root).or_default().push(self.ids[i]);
        }
        let mut clusters: Vec<Vec<InstanceId>> = by_root.into_values().collect();
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// A cluster label per tracked instance, in the order the instances
    /// were supplied — useful for metric computation.
    pub fn labels(&mut self) -> Vec<usize> {
        (0..self.ids.len()).map(|i| self.find(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<InstanceId> {
        (0..n).map(InstanceId::from_raw).collect()
    }

    #[test]
    fn starts_fully_disjoint() {
        let mut f = CoLocationForest::new(ids(4));
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert_eq!(f.clusters().len(), 4);
        assert!(!f.same_cluster(InstanceId::from_raw(0), InstanceId::from_raw(1)));
    }

    #[test]
    fn merge_is_transitive() {
        let mut f = CoLocationForest::new(ids(5));
        f.merge(InstanceId::from_raw(0), InstanceId::from_raw(1));
        f.merge(InstanceId::from_raw(1), InstanceId::from_raw(2));
        assert!(f.same_cluster(InstanceId::from_raw(0), InstanceId::from_raw(2)));
        let clusters = f.clusters();
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], ids(3));
    }

    #[test]
    fn merge_all_links_a_group() {
        let mut f = CoLocationForest::new(ids(6));
        f.merge_all(&[
            InstanceId::from_raw(1),
            InstanceId::from_raw(3),
            InstanceId::from_raw(5),
        ]);
        assert!(f.same_cluster(InstanceId::from_raw(1), InstanceId::from_raw(5)));
        assert_eq!(f.clusters().len(), 4);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut f = CoLocationForest::new(ids(2));
        let (a, b) = (InstanceId::from_raw(0), InstanceId::from_raw(1));
        f.merge(a, b);
        f.merge(a, b);
        f.merge(b, a);
        assert_eq!(f.clusters().len(), 1);
    }

    #[test]
    fn labels_align_with_clusters() {
        let mut f = CoLocationForest::new(ids(4));
        f.merge(InstanceId::from_raw(0), InstanceId::from_raw(2));
        let labels = f.labels();
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[3]);
    }

    #[test]
    #[should_panic(expected = "duplicate instance")]
    fn rejects_duplicates() {
        CoLocationForest::new(vec![InstanceId::from_raw(1), InstanceId::from_raw(1)]);
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn rejects_unknown_merge() {
        let mut f = CoLocationForest::new(ids(2));
        f.merge(InstanceId::from_raw(0), InstanceId::from_raw(9));
    }
}
