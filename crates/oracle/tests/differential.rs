//! The differential-oracle property suite: randomized schedules through
//! both engines, byte-identical transcripts required.
//!
//! Each property targets one regime of the hot path (general mixes,
//! idle-reap timing, churn, capacity spill, dynamic placement, and the
//! exact billing/free-slot accounting). A failure is first minimized with
//! the greedy shrinker and the *minimized* schedule is printed as JSON —
//! paste it into a corpus file or `replay` it per `docs/TESTING.md`.
//! Schedules build Cloud Run regions only; the last test drives the
//! Lambda-like and Azure-like platforms through both engines.

use proptest::prelude::*;

use eaao_cloudsim::ids::ServiceId;
use eaao_cloudsim::service::ServiceSpec;
use eaao_oracle::minimize::minimize;
use eaao_oracle::schedule::{apply, check, run, Op, Schedule, Session, Trajectory};
use eaao_oracle::strategies;
use eaao_oracle::ReferenceEngine;
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::engine::{Engine, OptimizedEngine};
use eaao_orchestrator::platform::PlatformKind;
use eaao_orchestrator::world::World;
use eaao_simcore::rng::SimRng;

/// Runs a schedule on the optimized engine with every shard force-
/// materialized at build — the lazy path's own eager twin. Unlike the
/// reference engine (a different sampler/capacity implementation), this
/// isolates exactly one variable: *when* hosts materialize.
fn run_prematerialized(schedule: &Schedule) -> Trajectory {
    let mut session = Session::<OptimizedEngine>::new(schedule);
    session.world().data_center().materialize_all();
    let lines = schedule
        .ops
        .iter()
        .enumerate()
        .map(|(step, &op)| session.apply_step(step, op))
        .collect();
    Trajectory { lines }
}

/// Checks the schedule on both engines; on divergence, shrinks it and
/// fails with the minimized reproducer.
fn assert_engines_agree(schedule: &Schedule) -> Result<(), TestCaseError> {
    if check(schedule).is_ok() {
        return Ok(());
    }
    let minimized = minimize(schedule.clone(), |s| check(s).is_err());
    let divergence = check(&minimized).expect_err("minimized schedule still fails");
    Err(TestCaseError::fail(format!(
        "{divergence}\nminimized schedule (save to corpus / replay per docs/TESTING.md):\n{}",
        serde_json::to_string(&minimized).expect("schedule serializes")
    )))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Property 1: arbitrary schedules — every op mix, capacity override,
    /// churn switch, and region flavor the generator can produce.
    #[test]
    fn transcripts_identical_for_arbitrary_schedules(s in strategies::schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 2: idle-reap timing — disconnects and sub-reaper-period
    /// advances, so instances vanish mid-schedule and the reap times
    /// (observable as alive-set shrinkage per step) must line up exactly.
    #[test]
    fn reap_times_identical_under_idle_cycles(s in strategies::reap_heavy_schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 3: churn — instance restarts and host reboot sweeps fire
    /// many times; every displaced-instance unindex and capacity update
    /// must keep the engines in lockstep.
    #[test]
    fn churn_trajectories_identical(s in strategies::churn_heavy_schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 4: capacity spill — tiny hosts force launches past their
    /// target sets into the popularity-weighted spill pick, the most
    /// intricate shared code path between the two capacity backends.
    #[test]
    fn spill_paths_identical_when_pool_saturates(s in strategies::spill_heavy_schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 5: dynamic placement (us-central1-style) — per-launch
    /// weighted-subset draws go through the engines' samplers.
    #[test]
    fn dynamic_region_transcripts_identical(s in strategies::dynamic_schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 6: the financial view in isolation — billing bits and
    /// engine-reported free slots, extracted from the transcript, match
    /// at every step (a focused failure message when only accounting
    /// drifts).
    #[test]
    fn billing_and_free_slots_identical(s in strategies::reap_heavy_schedule()) {
        let a = run::<OptimizedEngine>(&s);
        let b = run::<ReferenceEngine>(&s);
        prop_assert_eq!(a.lines.len(), b.lines.len());
        for (la, lb) in a.lines.iter().zip(&b.lines) {
            let ra: eaao_oracle::schedule::StepRecord =
                serde_json::from_str(la).expect("valid record");
            let rb: eaao_oracle::schedule::StepRecord =
                serde_json::from_str(lb).expect("valid record");
            prop_assert_eq!(ra.billed_bits, rb.billed_bits, "billing bits at step {}", ra.step);
            prop_assert_eq!(ra.free_slots, rb.free_slots, "free slots at step {}", ra.step);
        }
    }

    /// Property 7: cold-cell bursts — the closing launch lands in a
    /// scheduling cell no earlier op touched, so the optimized engine
    /// materializes its shards mid-run while the eager reference engine
    /// materialized them at build. Both transcripts must still match
    /// byte for byte (lazy-vs-eager world equality, cross-engine).
    #[test]
    fn cold_cell_bursts_identical_across_engines(s in strategies::cold_cell_burst_schedule()) {
        assert_engines_agree(&s)?;
    }

    /// Property 8: materialization *order* is unobservable — the same
    /// optimized engine run twice, once lazy and once with every shard
    /// force-materialized at build, produces identical transcripts. This
    /// isolates the keyed-RNG-stream contract ([`SimRng::keyed`]: host
    /// `i`'s stream is a pure function of the genesis base and `i`) from
    /// every other engine difference.
    #[test]
    fn lazy_and_prematerialized_transcripts_identical(s in strategies::schedule()) {
        let lazy = run::<OptimizedEngine>(&s);
        let eager = run_prematerialized(&s);
        prop_assert_eq!(
            lazy.transcript(),
            eager.transcript(),
            "materialization order leaked into the trajectory"
        );
    }

    /// Property 8, cold-cell flavored: the regime where lazy and eager
    /// construction differ the most (most shards still unmaterialized
    /// when the burst fires).
    #[test]
    fn lazy_and_prematerialized_agree_on_cold_cells(s in strategies::cold_cell_burst_schedule()) {
        let lazy = run::<OptimizedEngine>(&s);
        let eager = run_prematerialized(&s);
        prop_assert_eq!(lazy.transcript(), eager.transcript());
    }
}

/// One line per op of a fixed session on a 60-host us-west1 region under
/// `platform`: four services, one account each, and 24 rounds of a
/// launch, a 40 s advance, and a disconnect-all or kill-all, drawn from
/// `seed`.
fn platform_transcript<E: Engine>(platform: PlatformKind, seed: u64) -> Vec<String> {
    let region = RegionConfig::us_west1()
        .with_hosts(60)
        .with_platform(platform);
    let mut world: World<E> = World::with_engine(region, seed);
    let services: Vec<ServiceId> = (0..4)
        .map(|_| {
            let account = world.create_account();
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000))
        })
        .collect();
    let mut draws = SimRng::seed_from(seed);
    let mut lines = Vec::new();
    for _ in 0..24 {
        let launch = Op::Launch {
            service: draws.below(4) as usize,
            count: 1 + draws.below(400) as usize,
        };
        let service = draws.below(4) as usize;
        let close = if draws.below(2) == 0 {
            Op::DisconnectAll { service }
        } else {
            Op::KillAll { service }
        };
        for op in [launch, Op::Advance { seconds: 40 }, close] {
            let (outcome, placements) = apply(&mut world, &services, op);
            lines.push(format!(
                "{outcome} {placements:?} free={}",
                world.free_slots()
            ));
        }
    }
    lines
}

/// The Lambda-like and Azure-like policies place identically on both
/// engines. Every fresh host either one takes is an exclusion-aware
/// draw: outside every claimed host (Lambda-like) or outside the
/// service's affinity hosts (Azure-like).
#[test]
fn non_cloudrun_platforms_place_identically_across_engines() {
    for platform in [PlatformKind::LambdaLike, PlatformKind::AzureLike] {
        for seed in 0..8 {
            assert_eq!(
                platform_transcript::<OptimizedEngine>(platform, seed),
                platform_transcript::<ReferenceEngine>(platform, seed),
                "{platform:?}, seed {seed}"
            );
        }
    }
}
