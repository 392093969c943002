//! Shared support for the root integration suites.
//!
//! The world-schedule generators live in [`eaao_oracle::strategies`]
//! (re-exported here as [`strategies`]) so the model-based suites, the
//! placement invariants, and the differential oracle all draw from the
//! same distribution of tenant behavior. This module adds the fixtures
//! and small generators that are shared across suites but too
//! root-specific for the oracle crate.

#![allow(
    dead_code,
    unused_imports,
    reason = "each suite compiles this module independently and uses its own slice"
)]

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use eaao::prelude::*;

pub use eaao_oracle::strategies;

/// The standard model-based fixture: a 25-host us-west1 world with
/// `services` services deployed under one account.
pub fn small_world(seed: u64, services: usize) -> (World, Vec<ServiceId>) {
    let mut world = World::new(RegionConfig::us_west1().with_hosts(25), seed);
    let account = world.create_account();
    let services = (0..services)
        .map(|_| world.deploy_service(account, ServiceSpec::default().with_max_instances(200)))
        .collect();
    (world, services)
}

/// Live instances per host of `services`, counted from each service's
/// live ids (`alive_instances_of`) and the registry's hosts (`host_of`).
/// The residency index must hold exactly these counts.
pub fn live_per_host(world: &World, services: &[ServiceId]) -> BTreeMap<HostId, usize> {
    let mut per_host = BTreeMap::new();
    for &service in services {
        for id in world.alive_instances_of(service) {
            *per_host.entry(world.host_of(id)).or_default() += 1;
        }
    }
    per_host
}

/// Event due-times for queue-ordering properties.
pub fn event_times() -> impl Strategy<Value = Vec<i64>> {
    vec(0i64..1_000, 0..100)
}

/// Paired `(predicted, truth)` cluster labels for confusion-metric
/// properties.
pub fn label_pairs() -> impl Strategy<Value = Vec<(u8, u8)>> {
    vec((0u8..6, 0u8..6), 0..60)
}
