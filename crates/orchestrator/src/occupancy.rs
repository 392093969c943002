//! Host residency: which live instances run on which host.
//!
//! Residency is mutable world state, so it lives here, next to the
//! instance registry it mirrors, and not in the data center's hosts: those
//! are immutable genesis data that every branch of a world shares. The
//! capacity index reads per-host counts from it; a host reboot displaces
//! the identities it records; the reference engine and the invariant
//! tests scan it as ground truth.

// tidy:allow(determinism) -- `Occupancy::residents` is keyed by host and never iterated, so the map's order cannot reach a trajectory
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use eaao_cloudsim::ids::{HostId, InstanceId};

/// The world's residency index: every live instance, keyed by its host.
///
/// Only occupied hosts have an entry, so the index (and a branch's copy
/// of it) costs O(live instances), like the instance registry itself,
/// never O(pool).
#[derive(Debug, Clone, Default)]
pub struct Occupancy {
    /// The residents of every occupied host, ascending by id; empty hosts
    /// have no entry. A host's count is the length of its list. Probed by
    /// host only, so the map's order cannot reach a trajectory.
    // tidy:allow(determinism) -- keyed lookups only, see the field doc
    residents: HashMap<HostId, Vec<InstanceId>, BuildHasherDefault<HostIdHasher>>,
    /// Residents across all hosts.
    len: usize,
}

/// Hashes a host id with one multiply, at a fraction of SipHash's cost on
/// the placement hot path (every free-slot check reads a count). The
/// constant is odd, so ids that differ modulo a power-of-two table's size
/// land in distinct buckets, and the multiply mixes the high bits the
/// table tags entries with.
#[derive(Debug, Default)]
struct HostIdHasher(u64);

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
    /// Places `instance` on `host`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is already resident there — an orchestrator
    /// bug.
    pub fn admit(&mut self, host: HostId, instance: InstanceId) {
        let residents = self.residents.entry(host).or_default();
        let at = residents.partition_point(|&i| i < instance);
        assert!(
            residents.get(at) != Some(&instance),
            "instance {instance} already on host {host}"
        );
        // Fresh ids only grow, so this is nearly always a push.
        residents.insert(at, instance);
        self.len += 1;
    }

    /// Removes `instance` from `host`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not resident there — an orchestrator
    /// bug.
    pub fn evict(&mut self, host: HostId, instance: InstanceId) {
        let residents = self.residents.entry(host).or_default();
        let at = residents.partition_point(|&i| i < instance);
        assert!(
            residents.get(at) == Some(&instance),
            "instance {instance} not on host {host}"
        );
        residents.remove(at);
        if residents.is_empty() {
            self.residents.remove(&host);
        }
        self.len -= 1;
    }

    /// Removes every resident of `host` (a reboot), returning them in
    /// ascending id order.
    pub fn displace(&mut self, host: HostId) -> Vec<InstanceId> {
        let displaced = self.residents.remove(&host).unwrap_or_default();
        self.len -= displaced.len();
        displaced
    }

    /// The residents of `host`, ascending by id.
    pub fn residents_of(&self, host: HostId) -> &[InstanceId] {
        self.residents.get(&host).map_or(&[], Vec::as_slice)
    }

    /// Number of instances resident on `host`.
    pub fn count(&self, host: HostId) -> usize {
        self.residents_of(host).len()
    }

    /// Whether `instance` runs on `host`.
    pub fn contains(&self, host: HostId, instance: InstanceId) -> bool {
        self.residents_of(host).binary_search(&instance).is_ok()
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

    fn ids(raw: &[u32]) -> Vec<InstanceId> {
        raw.iter().copied().map(InstanceId::from_raw).collect()
    }

    #[test]
    fn admit_evict_and_displace_track_residency() {
        let mut occ = Occupancy::default();
        let (h1, h2) = (HostId::from_raw(1), HostId::from_raw(2));
        for raw in [7, 3, 9] {
            occ.admit(h1, InstanceId::from_raw(raw));
        }
        occ.admit(h2, InstanceId::from_raw(4));
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.count(h1), 3);
        assert!(occ.contains(h1, InstanceId::from_raw(3)));
        assert!(!occ.contains(h2, InstanceId::from_raw(3)));
        occ.evict(h1, InstanceId::from_raw(9));
        assert_eq!(occ.residents_of(h1), ids(&[3, 7]).as_slice());
        // A reboot displaces one host's residents, ascending, and only them.
        assert_eq!(occ.displace(h1), ids(&[3, 7]));
        assert_eq!(occ.count(h1), 0);
        assert_eq!(occ.residents_of(h2), ids(&[4]).as_slice());
        assert_eq!(occ.displace(h1), ids(&[]));
    }

    #[test]
    fn clones_detach() {
        let mut occ = Occupancy::default();
        let h = HostId::from_raw(3);
        occ.admit(h, InstanceId::from_raw(5));
        occ.admit(h, InstanceId::from_raw(6));
        let mut branch = occ.clone();
        assert_eq!(branch.count(h), 2);
        branch.evict(h, InstanceId::from_raw(5));
        assert_eq!((branch.count(h), branch.len()), (1, 1));
        assert_eq!((occ.count(h), occ.len()), (2, 2));
        assert_eq!(occ.residents_of(h), ids(&[5, 6]).as_slice());
    }

    #[test]
    #[should_panic(expected = "already on host")]
    fn double_admit_panics() {
        let mut occ = Occupancy::default();
        occ.admit(HostId::from_raw(0), InstanceId::from_raw(1));
        occ.admit(HostId::from_raw(0), InstanceId::from_raw(1));
    }

    #[test]
    #[should_panic(expected = "not on host")]
    fn evict_missing_panics() {
        let mut occ = Occupancy::default();
        occ.evict(HostId::from_raw(0), InstanceId::from_raw(9));
    }
}
