//! Serde round-trips for the data types downstream tooling consumes (the
//! `eaao repro` output files and the experiment configurations).

use eaao::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

/// Round-trips `value` and additionally requires the re-serialization to
/// reproduce the original bytes — the contract resumable JSONL files
/// (campaign manifests, trace streams, oracle corpora) rely on.
fn stable_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(
        serde_json::to_string(&back).expect("re-serialize"),
        json,
        "re-serialization must be byte-identical"
    );
    back
}

#[test]
fn time_types_round_trip() {
    let t = SimTime::from_secs_f64(123.456789);
    assert_eq!(roundtrip(&t), t);
    let d = SimDuration::from_nanos(-42);
    assert_eq!(roundtrip(&d), d);
}

#[test]
fn ids_round_trip() {
    assert_eq!(roundtrip(&HostId::from_raw(7)), HostId::from_raw(7));
    assert_eq!(roundtrip(&InstanceId::from_raw(9)), InstanceId::from_raw(9));
    assert_eq!(roundtrip(&AccountId::from_raw(1)), AccountId::from_raw(1));
    assert_eq!(roundtrip(&ServiceId::from_raw(3)), ServiceId::from_raw(3));
}

#[test]
fn service_specs_round_trip() {
    for size in ContainerSize::TABLE1 {
        let spec = ServiceSpec::default()
            .with_size(size)
            .with_generation(Generation::Gen2)
            .with_max_instances(800);
        let back = roundtrip(&spec);
        assert_eq!(back, spec);
    }
    let custom = ServiceSpec::default().with_size(ContainerSize::Custom {
        vcpus: 0.5,
        memory_mb: 128,
    });
    assert_eq!(roundtrip(&custom), custom);
}

#[test]
fn fingerprints_round_trip() {
    // Build real fingerprints through the pipeline rather than by hand.
    let mut world = World::new(RegionConfig::us_west1().with_hosts(20), 1);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default());
    let launch = world.launch(service, 5).expect("fits");
    let readings = probe_fleet(&mut world, launch.instances(), SimDuration::from_millis(10));
    let fingerprinter = Gen1Fingerprinter::default();
    for reading in &readings {
        assert_eq!(roundtrip(reading), *reading);
        let fp = fingerprinter.fingerprint(reading).expect("parseable");
        assert_eq!(roundtrip(&fp), fp);
    }
}

#[test]
fn experiment_results_round_trip_as_json() {
    use eaao::core::experiment::{fig06, sec45};
    let fig6 = fig06::Fig06Config::quick().run(2);
    let back = roundtrip(&fig6);
    assert_eq!(back.idle_over_time.ys(), fig6.idle_over_time.ys());

    let gen2 = sec45::Sec45Config {
        regions: vec!["us-west1".to_owned()],
        instances: 100,
        repeats: 1,
    }
    .run(3);
    let back = roundtrip(&gen2);
    assert_eq!(back.fmi.mean(), gen2.fmi.mean());
    assert_eq!(back.false_negatives_total, gen2.false_negatives_total);
}

#[test]
fn strategy_and_coverage_reports_round_trip() {
    let mut arena = Scenario::in_region("us-west1").seed(4).victims(20).build();
    let report = NaiveLaunch {
        services: 1,
        instances_per_service: 50,
        ..NaiveLaunch::default()
    }
    .run(&mut arena.world, arena.attacker)
    .expect("fits");
    let back: StrategyReport = roundtrip(&report);
    assert_eq!(back, report);

    let coverage = measure_coverage(&arena.world, &report.live_instances, &arena.victims);
    assert_eq!(roundtrip(&coverage), coverage);
}

#[test]
fn campaign_manifest_entries_round_trip_byte_stable() {
    // The resume path re-reads manifest.jsonl and compares hashes against
    // re-serialized records, so the wire format must be byte-stable.
    for (status, hash) in [("ok", 0u64), ("failed", u64::MAX), ("ok", 0xdead_beef)] {
        let entry = ManifestEntry {
            key: "fig06/us-west1/-/-/-/-/s3".to_owned(),
            status: status.to_owned(),
            hash,
        };
        assert_eq!(stable_roundtrip(&entry), entry);
    }
}

#[test]
fn trace_events_round_trip_byte_stable() {
    use eaao::obs::SCHEMA_VERSION;

    // Every kind through its wire name, with the optional fields both
    // empty and populated.
    for kind in [
        EventKind::SpanStart,
        EventKind::SpanEnd,
        EventKind::Point,
        EventKind::Metrics,
    ] {
        let bare = Event::new(kind, "world.ctest", 1_234);
        assert_eq!(stable_roundtrip(&bare), bare);
    }
    let mut full = Event::new(EventKind::SpanEnd, "campaign.run", 9_999);
    full.run = Some("fig06/us-west1/-/-/-/-/s0".to_owned());
    full.span = Some(7);
    full.parent = Some(3);
    full.dur_ns = Some(1_000_000);
    full.fields = serde_json::from_str(r#"{"cells":40,"ok":true}"#).expect("literal");
    let back = stable_roundtrip(&full);
    assert_eq!(back, full);
    assert_eq!(back.v, SCHEMA_VERSION);
}

#[test]
fn mitigation_types_round_trip() {
    for m in [
        TscMitigation::None,
        TscMitigation::TrapAndEmulate,
        TscMitigation::OffsetAndScale,
    ] {
        assert_eq!(roundtrip(&m), m);
    }
    let w = TimerWorkload::database_write();
    assert_eq!(roundtrip(&w), w);
}
