//! `mega-region`: a 10M-host us-east1 pool under the launch/idle/relaunch
//! grid that `crates/bench/benches/scale.rs` times.
//!
//! Set-up builds the world and runs the untimed warm-up, five times; all
//! but the last world then run one grid each from fresh (their end state
//! is the reference every other grid must reproduce), and the last is
//! frozen as a snapshot. One operation is `snapshot.branch()` plus the grid on
//! the branch, which is what campaign trials do: cold shards, first-touch
//! host generation and copy-on-write unsharing dominate, unlike the small
//! pools of `paper-suite`.

use std::time::Instant;

use eaao_campaign::runner::derive_seed;
use eaao_cloudsim::service::ServiceSpec;
use eaao_obs::span;
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::{World, WorldSnapshot};
use eaao_simcore::time::SimDuration;

use crate::trace::{self, Span, Tracer};
use crate::{fnv1a, ms_since, stats, Ctx, Report, SETUP_REPEATS};

const HOSTS: usize = 10_000_000;

/// Branch grids in each half of a `--trace` run.
const TRACE_GRIDS: usize = 10;

fn build(seed: u64) -> World {
    let mut world = {
        let _span = span("orchestrator.build");
        World::new(RegionConfig::us_east1().with_hosts(HOSTS), seed)
    };
    warm(&mut world);
    world
}

/// The untimed warm-up of `scale.rs`: one grid-sized launch cycle whose
/// first writes unshare the pool-global copy-on-write lanes.
fn warm(world: &mut World) {
    let _span = span("orchestrator.warm");
    let account = world.create_account();
    let svc = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    world.launch(svc, 400).expect("fits");
    world.advance(SimDuration::from_mins(1));
    world.launch(svc, 400).expect("fits");
    world.kill_all(svc);
    world.advance(SimDuration::from_mins(30));
}

/// The grid of `scale.rs`: 8 services across 4 accounts, staggered
/// launches, an idle/reap cycle, three relaunch waves, and a teardown.
fn grid(world: &mut World) {
    let services: Vec<_> = {
        let _span = span("orchestrator.deploy");
        (0..4)
            .flat_map(|_| {
                let account = world.create_account();
                [0, 1].map(|_| {
                    world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000))
                })
            })
            .collect()
    };
    let launch = |world: &mut World, svc, count| {
        let _span = span("orchestrator.launch");
        world.launch(svc, count).expect("fits");
    };
    let advance = |world: &mut World, minutes| {
        let _span = span("orchestrator.advance");
        world.advance(SimDuration::from_mins(minutes));
    };
    for &svc in &services {
        launch(world, svc, 400);
        advance(world, 1);
    }
    {
        let _span = span("orchestrator.disconnect");
        for &svc in &services {
            world.disconnect_all(svc);
        }
    }
    advance(world, 20);
    for round in 0..3 {
        for &svc in &services {
            launch(world, svc, 200 + 100 * round);
            advance(world, 2);
        }
    }
    {
        let _span = span("orchestrator.teardown");
        for &svc in &services {
            world.kill_all(svc);
        }
    }
    advance(world, 30);
}

/// What every grid must end in: simulated clock, billed-cost bits, free
/// slots.
type EndState = (i64, u64, u64);

fn end_state(world: &World) -> EndState {
    (
        world.now().as_nanos(),
        world.billed().as_usd().to_bits(),
        world.free_slots(),
    )
}

/// A grid on a fresh world, in milliseconds, and its end state.
fn fresh_grid(seed: u64) -> (f64, EndState) {
    let mut world = build(seed);
    let _span = span("orchestrator.grid");
    let started = Instant::now();
    grid(&mut world);
    (ms_since(started), end_state(&world))
}

/// A grid on a new branch of `snapshot`, branch included, in
/// milliseconds, and its end state. Like [`fresh_grid`], neither the
/// time nor the span covers dropping the world.
fn branch_grid(snapshot: &WorldSnapshot) -> (f64, EndState) {
    let grid_span = span("orchestrator.branch_grid");
    let started = Instant::now();
    let mut world = {
        let _span = span("orchestrator.branch");
        snapshot.branch()
    };
    grid(&mut world);
    let ms = ms_since(started);
    drop(grid_span);
    (ms, end_state(&world))
}

fn check_states(report: &mut Report, reference: EndState, states: &[EndState]) {
    for state in states {
        report.attempted += 1;
        report.check(*state == reference, || {
            format!("a grid ended in {state:?}, the fresh grid in {reference:?}")
        });
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let seed = derive_seed(ctx.seed, "mega-region");
    if ctx.trace {
        return run_traced(ctx, seed, report);
    }

    let mut setup_s = Vec::new();
    let mut states = Vec::new();
    let mut snapshot = None;
    for repeat in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut world = build(seed);
        setup_s.push(started.elapsed().as_secs_f64());
        if repeat + 1 < SETUP_REPEATS {
            grid(&mut world);
            states.push(end_state(&world));
        } else {
            snapshot = Some(world.snapshot());
        }
    }
    let snapshot = snapshot.expect("the last set-up froze a snapshot");
    let reference = states[0];
    report.check_digest(ctx, "end-state", fnv1a(format!("{reference:?}").as_bytes()));

    let mut ops = Vec::new();
    while ops.is_empty() || ops.iter().sum::<f64>() < ctx.seconds * 1e3 {
        let (ms, state) = branch_grid(&snapshot);
        ops.push(ms);
        states.push(state);
    }
    check_states(&mut report, reference, &states);
    let op_ms = stats::median(&ops);
    report.set("setup_s", stats::median(&setup_s));
    report.set("op_p50_ms", op_ms);
    report.set("ops_per_s", 1e3 / op_ms);
    report.ops_ms = ops;
    report
}

/// The `--trace` run: an untraced then a traced half, each one fresh
/// grid plus [`TRACE_GRIDS`] branch grids, on one shared snapshot. The
/// fresh worlds are built before the snapshot so that only one 10M-host
/// world is alive at a time.
fn run_traced(ctx: &Ctx, seed: u64, mut report: Report) -> Report {
    let mut tracer = Tracer::new();
    let (_, reference) = fresh_grid(seed);
    let counted = |tracer: &Tracer| {
        let counters = tracer.counters().counters;
        counters
            .get("cloudsim.hosts_generated")
            .copied()
            .unwrap_or(0)
    };
    let (_, traced_fresh) = tracer.scope("fresh", || fresh_grid(seed));
    let snapshot = build(seed).snapshot();
    let mut states = vec![traced_fresh];
    let mut untraced = Vec::new();
    for _ in 0..TRACE_GRIDS {
        let (ms, state) = branch_grid(&snapshot);
        untraced.push(ms);
        states.push(state);
    }
    let mut traced = Vec::new();
    let mut grid_hosts = 0;
    for k in 0..TRACE_GRIDS {
        let before = counted(&tracer);
        let (ms, state) = tracer.scope(&format!("grid{k}"), || branch_grid(&snapshot));
        grid_hosts += counted(&tracer) - before;
        traced.push(ms);
        states.push(state);
    }
    check_states(&mut report, reference, &states);

    let spans = trace::spans(tracer.events());
    trace::ledger(&mut report, &spans, &tracer.counters().counters);
    let p50 = |name: &str| stats::median(&trace::durations_ms(&spans, name));
    report.set("orchestrator.build.p50_ms", p50("orchestrator.build"));
    report.set("orchestrator.grid.p50_ms", p50("orchestrator.grid"));
    report.set(
        "orchestrator.branch_grid.p50_ms",
        p50("orchestrator.branch_grid"),
    );
    report.set(
        "orchestrator.branch.p50_us",
        p50("orchestrator.branch") * 1e3,
    );
    report.set(
        "orchestrator.first_launch_after_branch.p50_ms",
        stats::median(&first_launch_after_branch_ms(&spans)),
    );
    // Hosts generated inside the traced grids only, not by the warm-up.
    report.set("cloudsim.hosts_generated", grid_hosts as f64);
    report.set(
        "trace_overhead_frac",
        stats::median(&traced) / stats::median(&untraced) - 1.0,
    );
    trace::write(&mut report, ctx, &tracer);
    report
}

/// Per branch-grid request, the duration of its first launch: the
/// copy-on-write unshare of the lanes the branch still shares.
fn first_launch_after_branch_ms(spans: &[Span]) -> Vec<f64> {
    let mut firsts: Vec<&Span> = Vec::new();
    for span in spans.iter().filter(|s| s.name == "orchestrator.launch") {
        if span.request.starts_with("grid")
            && firsts.last().is_none_or(|f| f.request != span.request)
        {
            firsts.push(span);
        }
    }
    firsts.iter().map(|s| s.dur_ns as f64 / 1e6).collect()
}
