//! Host residency: how many live instances run on each host.
//!
//! Residency is mutable world state, so it lives here, next to the
//! instance registry it mirrors, and not in the data center's hosts: those
//! are immutable genesis data that every branch of a world shares. The
//! capacity index reads per-host counts from it, and the reference engine
//! and the invariant tests scan it as ground truth. Which instances run on
//! a host is the registry's answer (`ContainerInstance::host`); only a
//! host reboot asks it, so the index keeps counts, not lists.

// tidy:allow(determinism) -- `Occupancy::counts` is keyed by host and never iterated, so the map's order cannot reach a trajectory
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use eaao_cloudsim::ids::HostId;

/// The world's residency index: the live instance count of every occupied
/// host, and their total.
///
/// Only occupied hosts have an entry, so the index (and a branch's copy
/// of it) costs O(occupied hosts), never O(pool). Admitting and evicting
/// an instance is one counter update.
#[derive(Debug, Clone, Default)]
pub struct Occupancy {
    /// Live instances per occupied host; empty hosts have no entry.
    /// Probed by host only, so the map's order cannot reach a trajectory.
    // tidy:allow(determinism) -- keyed lookups only, see the field doc
    counts: HashMap<HostId, u32, BuildHasherDefault<HostIdHasher>>,
    /// Residents across all hosts.
    len: usize,
}

/// Hashes a host id with one multiply, at a fraction of SipHash's cost on
/// the placement hot path (every free-slot check reads a count). The
/// constant is odd, so ids that differ modulo a power-of-two table's size
/// land in distinct buckets, and the multiply mixes the high bits the
/// table tags entries with.
#[derive(Debug, Default)]
pub(crate) struct HostIdHasher(u64);

impl Hasher for HostIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(8) ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Occupancy {
    /// Places one instance on `host`.
    pub fn admit(&mut self, host: HostId) {
        *self.counts.entry(host).or_insert(0) += 1;
        self.len += 1;
    }

    /// Removes one instance from `host`.
    ///
    /// # Panics
    ///
    /// Panics if no instance is resident there — an orchestrator bug.
    pub fn evict(&mut self, host: HostId) {
        let count = self
            .counts
            .get_mut(&host)
            .expect("evicting from a host with no resident instance");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&host);
        }
        self.len -= 1;
    }

    /// Removes every resident of `host` (a reboot), returning how many
    /// there were.
    pub fn displace(&mut self, host: HostId) -> usize {
        let displaced = self.counts.remove(&host).map_or(0, |n| n as usize);
        self.len -= displaced;
        displaced
    }

    /// Number of instances resident on `host`.
    pub fn count(&self, host: HostId) -> usize {
        self.counts.get(&host).map_or(0, |&n| n as usize)
    }

    /// Total resident instances across all hosts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no instance is resident anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_evict_and_displace_track_residency() {
        let mut occ = Occupancy::default();
        let (h1, h2) = (HostId::from_raw(1), HostId::from_raw(2));
        for _ in 0..3 {
            occ.admit(h1);
        }
        occ.admit(h2);
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.count(h1), 3);
        occ.evict(h1);
        assert_eq!((occ.count(h1), occ.len()), (2, 3));
        // A reboot displaces one host's residents, and only them.
        assert_eq!(occ.displace(h1), 2);
        assert_eq!((occ.count(h1), occ.len()), (0, 1));
        assert_eq!(occ.count(h2), 1);
        assert_eq!(occ.displace(h1), 0);
        assert_eq!(occ.len(), 1);
    }

    #[test]
    fn an_emptied_host_leaves_no_entry() {
        let mut occ = Occupancy::default();
        let h = HostId::from_raw(8);
        occ.admit(h);
        occ.evict(h);
        assert!(occ.is_empty());
        assert!(occ.counts.is_empty());
    }

    #[test]
    fn clones_detach() {
        let mut occ = Occupancy::default();
        let h = HostId::from_raw(3);
        occ.admit(h);
        occ.admit(h);
        let mut branch = occ.clone();
        assert_eq!(branch.count(h), 2);
        branch.evict(h);
        assert_eq!((branch.count(h), branch.len()), (1, 1));
        assert_eq!((occ.count(h), occ.len()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "no resident instance")]
    fn evict_missing_panics() {
        let mut occ = Occupancy::default();
        occ.evict(HostId::from_raw(0));
    }
}
