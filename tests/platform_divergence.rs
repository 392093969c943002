//! Platform-policy divergence: one fixed schedule must produce
//! observably different trajectories under the three placement families
//! (`docs/PLATFORMS.md`). The CloudRun trajectories' byte-identity is
//! pinned by the `eaao-oracle` suite.

use std::collections::BTreeSet;

use eaao::orchestrator::platform::PlatformKind;
use eaao::prelude::*;

fn region(platform: PlatformKind) -> RegionConfig {
    RegionConfig::us_west1().with_platform(platform)
}

/// Hosts currently backing `instances`.
fn footprint(world: &World, instances: &[InstanceId]) -> BTreeSet<HostId> {
    instances.iter().map(|&i| world.host_of(i)).collect()
}

/// Launches `total` instances cold (one burst, no demand pressure) and
/// returns the fleet's host footprint size.
fn cold_footprint(platform: PlatformKind, total: usize) -> usize {
    let mut world = World::new(region(platform), 21);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world.launch(service, total).expect("fits");
    footprint(&world, launch.instances()).len()
}

/// Launches the same `total` hot — five bursts above the hot threshold,
/// inside the demand window — and returns the footprint size.
fn hot_footprint(platform: PlatformKind, total: usize) -> usize {
    let mut world = World::new(region(platform), 21);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let mut fleet = Vec::new();
    for _ in 0..5 {
        let launch = world.launch(service, total / 5).expect("fits");
        fleet.extend_from_slice(launch.instances());
        world.advance(SimDuration::from_secs(30));
    }
    footprint(&world, &fleet).len()
}

/// Helper-host spill is a CloudRun behavior: demand pressure grows the
/// footprint beyond the cold-start spread (§5.1 Observation 5, Figure 9).
/// The Lambda-like bin-packer has no load balancer at all — hot or cold,
/// the fleet stays inside the account's claimed partition.
#[test]
fn helper_spill_is_cloudrun_only() {
    let cloudrun_cold = cold_footprint(PlatformKind::CloudRun, 750);
    let cloudrun_hot = hot_footprint(PlatformKind::CloudRun, 750);
    assert!(
        cloudrun_hot > cloudrun_cold,
        "pressure must spill onto helper hosts: hot {cloudrun_hot} vs cold {cloudrun_cold}"
    );

    let lambda_cold = cold_footprint(PlatformKind::LambdaLike, 750);
    let lambda_hot = hot_footprint(PlatformKind::LambdaLike, 750);
    assert!(
        lambda_hot <= lambda_cold + 1,
        "bin-packing must not explore under pressure: hot {lambda_hot} vs cold {lambda_cold}"
    );
    // And the families sit at opposite ends of the density spectrum:
    // ~10.7 instances/host on CloudRun vs ~host-capacity on Lambda.
    assert!(
        cloudrun_cold > 4 * lambda_cold,
        "CloudRun spreads ({cloudrun_cold} hosts), Lambda packs ({lambda_cold} hosts)"
    );
}

/// Lambda's per-account sandbox partition: two accounts never share a
/// host, which makes the paper's cross-account attack structurally
/// impossible there. The same schedule on CloudRun shares freely (one
/// popularity-weighted pool).
#[test]
fn lambda_partitions_accounts_cloudrun_shares() {
    let shared_hosts = |platform: PlatformKind| {
        let mut world = World::new(region(platform), 22);
        let mut fleets = Vec::new();
        for _ in 0..2 {
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let launch = world.launch(service, 400).expect("fits");
            fleets.push(footprint(&world, launch.instances()));
        }
        fleets[0].intersection(&fleets[1]).count()
    };
    assert_eq!(
        shared_hosts(PlatformKind::LambdaLike),
        0,
        "Lambda-like accounts must stay host-disjoint"
    );
    assert!(
        shared_hosts(PlatformKind::CloudRun) > 0,
        "CloudRun accounts draw from one shared pool"
    );
}

/// Azure's stretched keep-alive: after an idle gap past Cloud Run's
/// 15-minute contract but inside the Azure-like 60-minute cap, a Cloud
/// Run fleet is gone while an Azure-like fleet still has warm instances
/// to reuse.
#[test]
fn azure_warm_reuse_outlives_the_cloudrun_idle_contract() {
    let survivors = |platform: PlatformKind| {
        let mut world = World::new(region(platform), 23);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        world.launch(service, 40).expect("fits");
        world.disconnect_all(service);
        world.advance(SimDuration::from_mins(16));
        let alive = world.alive_count(service);
        let relaunch = world.launch(service, 10).expect("fits");
        (alive, relaunch.reused())
    };
    let (cloudrun_alive, cloudrun_reused) = survivors(PlatformKind::CloudRun);
    assert_eq!(cloudrun_alive, 0, "past the 15-minute contract");
    assert_eq!(cloudrun_reused, 0, "nothing warm left to reuse");
    let (azure_alive, azure_reused) = survivors(PlatformKind::AzureLike);
    assert!(
        azure_alive > 0,
        "Azure-like keep-alive stretches to an hour"
    );
    assert!(azure_reused > 0, "warm instances must be reused");
}

/// Warm-reuse rate orders Azure ≥ CloudRun under a *short* idle gap too:
/// both are within their grace periods, but the Azure-like scheduler also
/// packs replacements onto affinity hosts, so reuse never trails.
#[test]
fn reuse_rate_orders_azure_above_cloudrun() {
    let reuse_rate = |platform: PlatformKind| {
        let mut world = World::new(region(platform), 24);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        world.launch(service, 100).expect("fits");
        world.disconnect_all(service);
        world.advance(SimDuration::from_mins(6));
        let relaunch = world.launch(service, 100).expect("fits");
        relaunch.reused() as f64 / 100.0
    };
    let azure = reuse_rate(PlatformKind::AzureLike);
    let cloudrun = reuse_rate(PlatformKind::CloudRun);
    assert!(
        azure > cloudrun,
        "azure reuse {azure} must beat cloudrun {cloudrun}"
    );
    assert!(
        azure > 0.9,
        "6 minutes idle is inside Azure's 7-minute grace"
    );
}
