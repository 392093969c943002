//! The instance registry: every instance a world ever created, by id.
//!
//! Instance ids are handed out densely from zero, so the registry is a
//! vector indexed by id rather than a search tree keyed by it. It is
//! append-only: terminated instances stay, because `World::instance`
//! answers for them after the fact (`is_alive`, `sigterm_at`). Iteration
//! runs in ascending id order, the order billing sums depend on.

use std::ops::Index;

use eaao_cloudsim::ids::InstanceId;
use eaao_cloudsim::instance::ContainerInstance;

/// Instances per chunk. A power of two, so an id splits into chunk and
/// slot with a shift and a mask.
const CHUNK: usize = 2_048;

/// The first chunk's first allocation.
const FIRST_CHUNK_MIN: usize = 8;

/// Every instance of a world, indexed by [`InstanceId`].
///
/// Instances live in chunks of [`CHUNK`] entries. Every chunk after the
/// first is allocated at full size once, so growth never moves an
/// instance that is already registered; the first chunk instead grows
/// on demand, so a world with a handful of instances pays for a handful.
#[derive(Debug, Default)]
pub(crate) struct InstanceRegistry {
    /// Chunk `c` holds ids `c * CHUNK ..`; every chunk but the last is
    /// full.
    chunks: Vec<Vec<ContainerInstance>>,
}

// Manual impl: `Vec::clone` sizes a copy to its length, so a derived
// clone's partly filled last chunk would reallocate as the branch grows.
impl Clone for InstanceRegistry {
    fn clone(&self) -> Self {
        let mut chunks: Vec<Vec<ContainerInstance>> = self.chunks.iter().map(Vec::clone).collect();
        // The first chunk grows on demand; any later one gets its full
        // reservation back.
        if let [_, .., last] = chunks.as_mut_slice() {
            last.reserve_exact(CHUNK - last.len());
        }
        InstanceRegistry { chunks }
    }
}

impl InstanceRegistry {
    /// Number of instances ever registered.
    pub(crate) fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    /// The id the next registered instance must carry.
    pub(crate) fn next_id(&self) -> InstanceId {
        InstanceId::from_raw(u32::try_from(self.len()).expect("instance ids fit in u32"))
    }

    /// Registers `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the instance does not carry [`next_id`](Self::next_id).
    pub(crate) fn push(&mut self, instance: ContainerInstance) {
        assert_eq!(
            instance.id(),
            self.next_id(),
            "instances register in id order"
        );
        if self.chunks.last().is_none_or(|last| last.len() == CHUNK) {
            let capacity = if self.chunks.is_empty() { 0 } else { CHUNK };
            self.chunks.push(Vec::with_capacity(capacity));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room exists");
        if chunk.len() == chunk.capacity() {
            // Only the first chunk fills its allocation early: double it,
            // but never past one chunk.
            chunk.reserve_exact(chunk.len().max(FIRST_CHUNK_MIN).min(CHUNK - chunk.len()));
        }
        chunk.push(instance);
    }

    /// The instance `id`, live or terminated, if it was ever registered.
    pub(crate) fn get(&self, id: InstanceId) -> Option<&ContainerInstance> {
        let i = id.as_usize();
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Mutable access to the instance `id`, if it was ever registered.
    pub(crate) fn get_mut(&mut self, id: InstanceId) -> Option<&mut ContainerInstance> {
        let i = id.as_usize();
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }

    /// Every registered instance, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ContainerInstance> {
        self.chunks.iter().flatten()
    }
}

impl Index<InstanceId> for InstanceRegistry {
    type Output = ContainerInstance;

    /// # Panics
    ///
    /// Panics if the id was never registered.
    fn index(&self, id: InstanceId) -> &ContainerInstance {
        self.get(id).expect("unknown instance id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_cloudsim::ids::{AccountId, HostId, ServiceId};
    use eaao_cloudsim::sandbox::Sandbox;
    use eaao_cloudsim::service::{ContainerSize, Generation};
    use eaao_simcore::rng::SimRng;
    use eaao_simcore::time::SimTime;

    /// Registers `n` more instances; instance `i` runs on host `i % 7`.
    fn push_n(registry: &mut InstanceRegistry, n: usize) {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..n {
            let id = registry.next_id();
            registry.push(ContainerInstance::new(
                id,
                ServiceId::from_raw(0),
                AccountId::from_raw(0),
                HostId::from_raw((id.as_usize() % 7) as u32),
                ContainerSize::Small,
                Generation::Gen2,
                Sandbox::fork_clock_seed(Generation::Gen2, &mut rng),
                SimTime::ZERO,
            ));
        }
    }

    fn registry(n: usize) -> InstanceRegistry {
        let mut registry = InstanceRegistry::default();
        push_n(&mut registry, n);
        registry
    }

    fn id(raw: usize) -> InstanceId {
        InstanceId::from_raw(raw as u32)
    }

    #[test]
    fn ids_resolve_on_both_sides_of_a_chunk_boundary() {
        let mut registry = registry(CHUNK + 1);
        assert_eq!(registry.len(), CHUNK + 1);
        for raw in [0, CHUNK - 1, CHUNK] {
            assert_eq!(registry[id(raw)].id(), id(raw));
            assert_eq!(registry[id(raw)].host(), HostId::from_raw((raw % 7) as u32));
        }
        assert!(registry.get(id(CHUNK + 1)).is_none());
        registry
            .get_mut(id(CHUNK - 1))
            .expect("registered")
            .terminate(SimTime::from_secs(3));
        assert!(!registry[id(CHUNK - 1)].is_alive());
        assert!(registry[id(CHUNK)].is_alive());
    }

    #[test]
    fn growth_never_moves_a_registered_instance() {
        let mut registry = registry(CHUNK + 1);
        let mut branch = registry.clone();
        let before: *const ContainerInstance = &registry[id(CHUNK)];
        let branch_before: *const ContainerInstance = &branch[id(CHUNK)];
        push_n(&mut registry, CHUNK - 1);
        push_n(&mut branch, CHUNK - 1);
        assert!(std::ptr::eq(before, &registry[id(CHUNK)]));
        assert!(std::ptr::eq(branch_before, &branch[id(CHUNK)]));
        assert_eq!(branch.len(), 2 * CHUNK);
    }

    #[test]
    fn the_first_chunk_grows_on_demand() {
        assert_eq!(InstanceRegistry::default().len(), 0);
        assert_eq!(registry(3).chunks[0].capacity(), FIRST_CHUNK_MIN);
        assert_eq!(registry(CHUNK).chunks[0].capacity(), CHUNK);
        // A copy made mid-growth keeps doubling, never past one chunk.
        let mut branch = registry(CHUNK - 100).clone();
        push_n(&mut branch, 1);
        assert_eq!(branch.chunks[0].capacity(), CHUNK);
    }

    #[test]
    fn iteration_runs_in_ascending_id_order() {
        let n = 2 * CHUNK + 5;
        let ids: Vec<InstanceId> = registry(n).iter().map(ContainerInstance::id).collect();
        assert_eq!(ids, (0..n).map(id).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "unknown instance id")]
    fn an_unknown_id_panics() {
        let registry = registry(3);
        let _ = registry[id(3)].id();
    }

    #[test]
    #[should_panic(expected = "register in id order")]
    fn out_of_order_registration_panics() {
        let mut registry = registry(2);
        let stray = registry[id(0)].clone();
        registry.push(stray);
    }
}
