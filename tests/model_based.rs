//! Model-based testing: drive the World with arbitrary operation
//! sequences and check its global invariants after every step.
//!
//! The operations and their generators are shared with the differential
//! oracle (`eaao_oracle::schedule::Op`, `eaao_oracle::strategies`), and
//! every op is applied through `eaao_oracle::schedule::apply` — the same
//! surface the oracle drives — so an invariant violation found here is
//! immediately replayable as an oracle schedule.

mod common;

use proptest::prelude::*;

use common::strategies;
use eaao::orchestrator::engine::OptimizedEngine;
use eaao::prelude::*;
use eaao_oracle::schedule::{apply, Session};

fn check_invariants(world: &World, services: &[ServiceId]) -> Result<(), TestCaseError> {
    let occupancy = world.occupancy();
    let dc = world.data_center();
    // 1. Each service's live ids are strictly ascending, alive, its own,
    //    and as many as it counts. Both oracle engines share `World`'s
    //    per-service bookkeeping, so the differential cannot see a fault
    //    in it; this check can, and it runs first because the checks
    //    below count from these lists.
    for &service in services {
        let ids = world.alive_instances_of(service);
        prop_assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "{} live ids not strictly ascending: {:?}",
            service,
            ids
        );
        for &id in &ids {
            let instance = world.instance(id);
            prop_assert!(instance.is_alive(), "{} lists dead {}", service, id);
            prop_assert_eq!(
                instance.service(),
                service,
                "{} lists {} of another service",
                service,
                id
            );
        }
        prop_assert_eq!(ids.len(), world.alive_count(service), "{} count", service);
    }
    // 2. The residency index matches the instance registry.
    let alive_total: usize = services.iter().map(|&s| world.alive_count(s)).sum();
    prop_assert_eq!(occupancy.len(), alive_total, "residency index out of sync");
    // 3. No host exceeds its capacity.
    for host in dc.host_ids() {
        prop_assert!(
            occupancy.count(host) <= dc.host_capacity(),
            "host {} over capacity",
            host
        );
    }
    // 4. Every host's residency count is the number of live instances
    //    the registry places on it; with 2., no other host counts any.
    let per_host = common::live_per_host(world, services);
    for (&host, &live) in &per_host {
        prop_assert_eq!(
            occupancy.count(host),
            live,
            "host {} residency out of sync",
            host
        );
    }
    prop_assert_eq!(occupancy.len(), per_host.values().sum::<usize>());
    // 5. The engine's free-slot index agrees with ground truth.
    let ground_truth: u64 = dc
        .host_ids()
        .map(|h| (dc.host_capacity() - occupancy.count(h)) as u64)
        .sum();
    prop_assert_eq!(world.free_slots(), ground_truth, "capacity index drifted");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn world_invariants_hold_under_arbitrary_ops(
        seed in 0u64..1_000,
        ops in strategies::ops(3, 40),
    ) {
        let (mut world, services) = common::small_world(seed, 3);
        let mut billed_before = world.billed().as_usd();
        for op in ops {
            // Ops may legitimately fail (cap/capacity); must not corrupt.
            let _ = apply(&mut world, &services, op);
            check_invariants(&world, &services)?;
            // 6. Billing is monotone.
            let billed_now = world.billed().as_usd();
            prop_assert!(
                billed_now >= billed_before - 1e-12,
                "billing went backwards: {billed_before} -> {billed_now}"
            );
            billed_before = billed_now;
        }
        // 7. After a full teardown and a reaper cycle, nothing is left.
        for &s in &services {
            world.kill_all(s);
        }
        world.advance(SimDuration::from_mins(20));
        prop_assert!(world.occupancy().is_empty());
    }

    /// Cold-cell bursts: the pool is big enough for several scheduling
    /// cells, the warm-up ops drive only service 0, and the closing
    /// burst lands on a service whose cell has (with high probability)
    /// never been touched — so the lazily built world materializes
    /// shared genesis lanes deep into the run. The global invariants
    /// must hold through that mid-run first touch exactly as they do
    /// from a warm start.
    #[test]
    fn world_invariants_hold_through_cold_cell_bursts(
        s in strategies::cold_cell_burst_schedule(),
    ) {
        let mut session = Session::<OptimizedEngine>::new(&s);
        for (step, op) in s.ops.iter().enumerate() {
            session.apply_step(step, *op);
            check_invariants(session.world(), session.services())?;
        }
        // The burst's placements are live state, not a planning ghost:
        // if the closing launch succeeded, its instances are resident.
        let cold = *session.services().last().expect("at least one service");
        let world = session.world();
        for (&host, &live) in &common::live_per_host(world, &[cold]) {
            prop_assert!(
                world.occupancy().count(host) >= live,
                "burst instances missing from host {}",
                host
            );
        }
    }

    #[test]
    fn placement_is_a_function_of_the_seed(
        seed in 0u64..500,
        n in 1usize..150,
    ) {
        let run = |seed: u64| {
            let (mut world, services) = common::small_world(seed, 1);
            world
                .launch(services[0], n)
                .expect("fits")
                .instances()
                .iter()
                .map(|&i| world.host_of(i).as_raw())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

#[test]
fn launch_rollback_rearms_the_reaper() {
    // A tiny data center where a warm-reuse launch can fail: the rolled
    // back instances must still be reaped eventually, not leak as
    // permanent idlers.
    let mut region = RegionConfig::us_west1().with_hosts(3);
    region.host_config.capacity = 20;
    let mut world = World::new(region, 9);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(200));
    // Fill half the pool and go idle.
    world.launch(service, 30).expect("fits");
    world.disconnect_all(service);
    world.advance(SimDuration::from_secs(30));
    // Another tenant grabs the remaining capacity.
    let other = world.create_account();
    let hog = world.deploy_service(other, ServiceSpec::default().with_max_instances(200));
    world.launch(hog, 30).expect("fits");
    // The original service now asks for more than fits: warm reuse (30)
    // plus new instances that cannot be placed -> rollback.
    let result = world.launch(service, 60);
    assert!(result.is_err(), "expected DataCenterFull");
    // The rolled-back warm instances must be reaped like any idle ones.
    world.advance(SimDuration::from_mins(20));
    assert_eq!(
        world.alive_count(service),
        0,
        "rollback leaked idle instances"
    );
}
