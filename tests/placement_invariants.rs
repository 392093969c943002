//! Cross-crate invariants of the orchestrator and data-center model:
//! conservation, capacity, determinism, billing sanity.

mod common;

use std::collections::HashMap;

use proptest::prelude::*;

use common::strategies;
use eaao::obs::{with_instrument, Collector};
use eaao::orchestrator::engine::OptimizedEngine;
use eaao::prelude::*;
use eaao_oracle::schedule::run;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Whole trajectories — placements, reap times, billing bits — are a
    /// pure function of the schedule, not just the first launch. This is
    /// the root-level restatement of the determinism the differential
    /// oracle relies on.
    #[test]
    fn trajectories_are_a_function_of_the_schedule(s in strategies::schedule()) {
        prop_assert_eq!(
            run::<OptimizedEngine>(&s).transcript(),
            run::<OptimizedEngine>(&s).transcript()
        );
    }

    /// The same property under the cold-cell burst shape: the closing
    /// burst forces a never-touched scheduling cell to materialize deep
    /// into the run, and the order in which cells were materialized (or
    /// whether the copy-on-write genesis lanes were ever unshared) must
    /// not leak into placements, reap times, or billing bits.
    #[test]
    fn cold_cell_materialization_order_cannot_reach_the_trajectory(
        s in strategies::cold_cell_burst_schedule(),
    ) {
        prop_assert_eq!(
            run::<OptimizedEngine>(&s).transcript(),
            run::<OptimizedEngine>(&s).transcript()
        );
    }
}

/// Branches of one snapshot share the host shards generated into the data
/// center's genesis, yet each counts the hosts it touched in its own
/// metrics. The count depends on the branch's own history, never on which
/// sibling generated a shard first — which is what keeps campaign records
/// (they carry the counter) byte-identical at any `--jobs`.
#[test]
fn branch_metrics_do_not_depend_on_sibling_branches() {
    let mut world = World::new(RegionConfig::us_east1(), 12);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    world.launch(service, 400).expect("fits");
    let snapshot = world.snapshot();
    let run_branch = || {
        let collector = Collector::new();
        let hosts = with_instrument(collector.clone(), || {
            let mut branch = snapshot.branch();
            let tenant = branch.create_account();
            let svc =
                branch.deploy_service(tenant, ServiceSpec::default().with_max_instances(1_000));
            let launch = branch.launch(svc, 800).expect("fits");
            launch
                .instances()
                .iter()
                .map(|&i| branch.host_of(i))
                .collect::<Vec<_>>()
        });
        let counters = collector.snapshot().counters;
        (hosts, counters.get("cloudsim.hosts_generated").copied())
    };
    let first = run_branch();
    let second = run_branch();
    assert!(first.1 > Some(0), "the new tenant's hosts were all warm");
    assert_eq!(
        first, second,
        "a sibling's first touches leaked into a branch"
    );
}

#[test]
fn residency_mirrors_instances_through_a_full_lifecycle() {
    let mut world = World::new(RegionConfig::us_west1(), 1);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    for round in 0..4 {
        world.launch(service, 200).expect("fits");
        // Every host counts exactly the live instances placed on it.
        let per_host = common::live_per_host(&world, &[service]);
        for (&host, &live) in &per_host {
            assert_eq!(
                world.occupancy().count(host),
                live,
                "round {round}: host {host} residency out of sync"
            );
        }
        assert_eq!(per_host.values().sum::<usize>(), 200);
        assert_eq!(world.occupancy().len(), 200);
        world.disconnect_all(service);
        world.advance(SimDuration::from_mins(20));
        assert!(
            world.occupancy().is_empty(),
            "round {round}: reaper left residents behind"
        );
    }
}

#[test]
fn capacity_is_never_exceeded() {
    let mut region = RegionConfig::us_west1().with_hosts(12);
    region.host_config.capacity = 20;
    let mut world = World::new(region, 2);
    let account = world.create_account();
    // Saturate the data center across several services.
    for _ in 0..3 {
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let _ = world.launch(service, 80);
    }
    let capacity = world.data_center().host_capacity();
    for host in world.data_center().host_ids() {
        let residents = world.occupancy().count(host);
        assert!(
            residents <= capacity,
            "host {host} over capacity: {residents}"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_placement() {
    let run = || {
        let mut world = World::new(RegionConfig::us_east1(), 33);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let launch = world.launch(service, 300).expect("fits");
        launch
            .instances()
            .iter()
            .map(|&i| world.host_of(i).as_raw())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "placement must be deterministic under a seed");
}

#[test]
fn different_seeds_shuffle_the_world() {
    let boot = |seed| {
        let world = World::new(RegionConfig::us_west1(), seed);
        world.data_center().host(HostId::from_raw(0)).boot_time()
    };
    assert_ne!(boot(1), boot(2));
}

#[test]
fn launch_spread_is_near_uniform_at_paper_scale() {
    let mut world = World::new(RegionConfig::us_east1(), 4);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world.launch(service, 800).expect("fits");
    let mut per_host: HashMap<HostId, usize> = HashMap::new();
    for &id in launch.instances() {
        *per_host.entry(world.host_of(id)).or_default() += 1;
    }
    // Observation 1: ~75 hosts, 10-11 instances on the majority of them.
    assert!(
        (70..=85).contains(&per_host.len()),
        "{} hosts",
        per_host.len()
    );
    let ten_or_eleven = per_host.values().filter(|&&c| c == 10 || c == 11).count();
    assert!(
        ten_or_eleven * 3 > per_host.len() * 2,
        "only {ten_or_eleven}/{} hosts at 10-11 instances",
        per_host.len()
    );
}

#[test]
fn billing_is_monotone_and_idle_free() {
    let mut world = World::new(RegionConfig::us_west1(), 5);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default());
    world.launch(service, 50).expect("fits");
    let mut last = world.billed_for(account);
    // Active time accrues.
    for _ in 0..5 {
        world.advance(SimDuration::from_secs(10));
        let now = world.billed_for(account);
        assert!(now > last);
        last = now;
    }
    // Idle time is free.
    world.disconnect_all(service);
    let after_disconnect = world.billed_for(account);
    world.advance(SimDuration::from_mins(20));
    let after_idle = world.billed_for(account);
    assert!((after_idle.as_usd() - after_disconnect.as_usd()).abs() < 1e-12);
}

#[test]
fn accounts_are_billed_separately() {
    let mut world = World::new(RegionConfig::us_west1(), 6);
    let a = world.create_account();
    let b = world.create_account();
    let service_a = world.deploy_service(a, ServiceSpec::default());
    let service_b = world.deploy_service(b, ServiceSpec::default().with_size(ContainerSize::Large));
    world.launch(service_a, 10).expect("fits");
    world.launch(service_b, 10).expect("fits");
    world.advance(SimDuration::from_secs(60));
    let bill_a = world.billed_for(a).as_usd();
    let bill_b = world.billed_for(b).as_usd();
    assert!(
        bill_b > bill_a * 3.0,
        "Large instances cost more: {bill_a} vs {bill_b}"
    );
    assert!((world.billed().as_usd() - bill_a - bill_b).abs() < 1e-9);
}

#[test]
fn host_reboot_changes_fingerprint_but_not_crystal() {
    let mut world = World::new(RegionConfig::us_west1().with_hosts(10), 7);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default());
    let launch = world.launch(service, 5).expect("fits");
    let host_id = world.host_of(launch.instances()[0]);
    let before_boot = world.data_center().host(host_id).boot_time();
    let before_freq = world.data_center().host(host_id).actual_frequency();
    world.enable_host_churn(SimDuration::from_hours(2));
    world.advance(SimDuration::from_days(2));
    let host = world.data_center().host(host_id);
    assert_ne!(host.boot_time(), before_boot, "host should have rebooted");
    assert_eq!(host.actual_frequency(), before_freq, "crystal survives");
    // Displaced instances were terminated.
    assert!(!world.instance(launch.instances()[0]).is_alive());
}

#[test]
fn quotas_gate_new_accounts_until_promotion() {
    let mut world = World::new(RegionConfig::us_west1(), 8);
    let newbie = world.create_new_account();
    let service = world.deploy_service(newbie, ServiceSpec::default().with_max_instances(1_000));
    assert!(world.launch(service, 11).is_err());
    assert!(world.launch(service, 10).is_ok());
}
