//! `serve-swarm`: the campaign daemon under a client swarm.
//!
//! An in-process `Server` (2 executor jobs, 2 dispatchers) takes
//! submissions from one generator with [`CLIENTS`] threads, one
//! connection each at a time. The mix is exactly 3:1 `fig6` quick
//! one-seed and `attack-optimized` quick two-seed campaigns, drawn by
//! seed from a pool of [`POOL`] specs. The per-submission compute is
//! small, so framing, admission, output-directory setup and finalize
//! dominate.
//!
//! One operation is one submission. The untraced run is closed loop:
//! each client submits again as soon as its previous submission is
//! `Done`, which keeps both cores busy. Open-loop latency at a light
//! 100/s waits on idle cores to be woken several times per submission,
//! and how long that takes depends on the host: over eight runs
//! interleaved with closed-loop ones, its median ranged from 2.4 ms to
//! 5.6 ms (IQR ÷ median 0.71), the closed loop's from 4.7 ms to 7.0 ms
//! (0.24). So [`STEPS`] run only in the `--trace` run, feeding
//! per-layer metrics: 100/s, 200/s and 400/s, each submission timed
//! from when it was due so that a stall also delays every later one,
//! then a closed-loop tail.
//!
//! Every submission leaves a directory and three files, and the run
//! keeps them (see [`kept_root`]), 100–150 MB a run. On ext4 without a
//! journal, the file system this benchmark was tuned on, a file creation
//! scans past the inodes of its block group that were deleted in the
//! last minutes. When each run deleted its output, later runs created
//! files up to ten times slower, and the latency of back-to-back runs
//! doubled over eight runs.
//!
//! Set-up starts the server and computes each pool spec's records with
//! `runner::execute`; every served record must hash the same.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eaao_campaign::runner::{derive_seed, execute, RunRecord};
use eaao_campaign::spec::{CampaignSpec, KNOWN_REGIONS};
use eaao_obs::{with_instrument, Collector, Event, MetricsSnapshot};
use eaao_serve::client::Client;
use eaao_serve::server::{ServeConfig, Server};
use eaao_simcore::rng::SimRng;

use crate::trace::{self, Tracer};
use crate::{fnv1a, ms_since, repeated_setup, stats, Ctx, Report};

const JOBS: usize = 2;

const DISPATCHERS: usize = 2;

/// Generator threads, each holding at most one connection.
const CLIENTS: usize = 2;

/// Open-loop steps of a `--trace` window, in order: `(submissions per
/// second, share of the window)`. The rest of the window is closed loop.
const STEPS: [(f64, f64); 3] = [(100.0, 0.5), (200.0, 0.15), (400.0, 0.15)];

/// The step index of closed-loop submissions.
const CLOSED: usize = usize::MAX;

/// Seconds of closed loop run, and checked, before any measuring window.
const WARM_UP_S: f64 = 1.0;

/// Distinct specs the mix draws from; every fourth is an attack.
const POOL: usize = 32;

/// A step is sustained when its tail latency and its lateness at the
/// step's end both stay within this many milliseconds.
const LIMIT_MS: f64 = 50.0;

/// The pool spec of the `n`-th submission of a loop: exactly every
/// fourth submission is an attack, and which spec of its kind is drawn
/// from `rng`.
fn draw(n: usize, rng: &mut SimRng) -> usize {
    4 * rng.below(POOL as u64 / 4) as usize + n % 4
}

/// The submission pool and the records each spec must produce.
struct Pool {
    specs: Vec<String>,
    /// Per spec: run key → `content_hash` of `runner::execute`'s record.
    expected: Vec<BTreeMap<String, u64>>,
}

fn pool(ctx: &Ctx) -> Pool {
    let mut specs = Vec::with_capacity(POOL);
    let mut expected = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let attack = i % 4 == 3;
        let spec = CampaignSpec {
            name: format!("swarm{i}"),
            experiments: vec![if attack { "attack-optimized" } else { "fig6" }.to_owned()],
            regions: vec![KNOWN_REGIONS[i % KNOWN_REGIONS.len()].to_owned()],
            seeds: if attack { 2 } else { 1 },
            seed: derive_seed(ctx.seed, &format!("serve-swarm/spec/{i}")),
            quick: true,
            ..CampaignSpec::default()
        };
        let grid = spec.expand().expect("pool specs are valid");
        expected.push(
            grid.iter()
                .map(|run| (run.key(), execute(run, spec.seed).content_hash()))
                .collect(),
        );
        specs.push(serde_json::to_string(&spec).expect("specs serialize"));
    }
    Pool { specs, expected }
}

/// A running server, drained when stopped or dropped.
struct Daemon(Option<Server>);

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running").addr()
    }

    fn stop(&mut self) -> std::io::Result<()> {
        match self.0.take() {
            Some(server) => {
                server.shutdown();
                server.wait()
            }
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One open-loop submission.
struct Due {
    step: usize,
    at_ms: f64,
    spec: usize,
}

/// The seed-derived submissions of one window.
struct Plan {
    open: Vec<Due>,
    closed_from_ms: f64,
    closed_to_ms: f64,
    /// Keys the closed loop's spec draws: its `n`-th submission uses
    /// `SimRng::keyed(closed_mix, n)`.
    closed_mix: u64,
}

/// A window of `seconds`: the open-loop `steps` first, then closed loop.
fn plan(ctx: &Ctx, seconds: f64, steps: &[(f64, f64)]) -> Plan {
    let mut rng = SimRng::seed_from(derive_seed(ctx.seed, "serve-swarm/mix"));
    let mut open = Vec::new();
    let mut step_start_ms = 0.0;
    for (step, &(rate, share)) in steps.iter().enumerate() {
        let length_ms = share * seconds * 1e3;
        let count = (rate * length_ms / 1e3).round() as usize;
        for k in 0..count {
            open.push(Due {
                step,
                at_ms: step_start_ms + k as f64 * 1e3 / rate,
                spec: draw(open.len(), &mut rng),
            });
        }
        step_start_ms += length_ms;
    }
    Plan {
        open,
        closed_from_ms: step_start_ms,
        closed_to_ms: seconds * 1e3,
        closed_mix: derive_seed(ctx.seed, "serve-swarm/closed"),
    }
}

/// What one submission saw, in milliseconds since the window started.
#[derive(Debug, Default)]
struct Sample {
    step: usize,
    /// When it was due: its slot in the open loop, its start in the
    /// closed loop.
    due_ms: f64,
    began_ms: f64,
    connected_ms: f64,
    first_ms: Option<f64>,
    last_ms: Option<f64>,
    done_ms: f64,
    /// `wall_ms` of each served record.
    record_ms: Vec<f64>,
    /// Why the submission or its records failed the checks.
    problems: Vec<String>,
    /// The served records' counters and the client's spans, in a traced
    /// window.
    counters: MetricsSnapshot,
    events: Vec<Event>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }
}

/// Submits pool spec `spec` and checks what comes back. Records are
/// checked (and dropped) once `Done` arrives, so memory stays flat
/// however many submissions a window holds.
fn submit(
    addr: SocketAddr,
    pool: &Pool,
    window: Instant,
    (step, spec, due_ms): (usize, usize, f64),
) -> Sample {
    let mut sample = Sample {
        step,
        due_ms,
        began_ms: ms_since(window),
        ..Sample::default()
    };
    let expected = &pool.expected[spec];
    let traced = eaao_obs::active();
    let span = eaao_obs::span("serve.submit");
    let connect_span = eaao_obs::span("serve.connect");
    let client = Client::connect(addr);
    drop(connect_span);
    sample.connected_ms = ms_since(window);
    let mut records = Vec::new();
    let outcome = client.and_then(|client| {
        let _stream = eaao_obs::span("serve.stream");
        client.submit(&pool.specs[spec], None, |record| {
            let now = ms_since(window);
            sample.first_ms.get_or_insert(now);
            sample.last_ms = Some(now);
            records.push(record.json);
        })
    });
    sample.done_ms = ms_since(window);
    drop(span);
    match outcome {
        Ok(done) if done.failed == 0 && done.complete && done.executed == expected.len() as u64 => {
        }
        other => sample
            .problems
            .push(format!("submission of spec {spec} ended {other:?}")),
    }
    if records.len() != expected.len() {
        sample.problems.push(format!(
            "submission of spec {spec} streamed {} records",
            records.len()
        ));
    }
    for json in records {
        match serde_json::from_str::<RunRecord>(&json) {
            Ok(record) if expected.get(&record.key) == Some(&record.content_hash()) => {
                sample.record_ms.push(record.wall_ms);
                if traced {
                    sample.counters.merge(&record.metrics);
                }
            }
            Ok(record) => sample.problems.push(format!(
                "served record {} differs from runner::execute",
                record.key
            )),
            Err(error) => sample
                .problems
                .push(format!("served record does not parse: {error}")),
        }
    }
    sample
}

/// Runs `plan` against the daemon with [`CLIENTS`] threads, each taking
/// the next open-loop submission (sleeping until it is due) and, once
/// those are gone, submitting back to back until the window ends.
/// Returns the samples in submission order.
fn window(addr: SocketAddr, pool: &Pool, plan: &Plan, traced: bool) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    // A short lead so the first submissions are not late by the time
    // the client threads start.
    let window = Instant::now() + Duration::from_millis(20);
    let at = |ms: f64| window + Duration::from_secs_f64(ms / 1e3);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let collector = Collector::with_events();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (step, spec, due) = match plan.open.get(i) {
                            Some(due) => (due.step, due.spec, at(due.at_ms)),
                            None => {
                                let n = i - plan.open.len();
                                let spec = draw(n, &mut SimRng::keyed(plan.closed_mix, n as u64));
                                (CLOSED, spec, at(plan.closed_from_ms).max(Instant::now()))
                            }
                        };
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let due_ms = due.duration_since(window).as_secs_f64() * 1e3;
                        if step == CLOSED && due_ms >= plan.closed_to_ms {
                            break;
                        }
                        let job = (step, spec, due_ms);
                        let sample = if traced {
                            let mut sample = with_instrument(collector.clone(), || {
                                submit(addr, pool, window, job)
                            });
                            sample.events = collector.drain_events();
                            sample
                        } else {
                            submit(addr, pool, window, job)
                        };
                        mine.push((i, sample));
                    }
                    mine
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client threads do not panic"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, sample)| sample).collect()
}

fn check(report: &mut Report, samples: &[Sample]) {
    for sample in samples {
        report.attempted += 1;
        report.check(sample.problems.is_empty(), || sample.problems.join("; "));
    }
}

/// What one open-loop step showed.
struct Step {
    rate: f64,
    tail_ms: f64,
    /// How late the step's last submission started.
    end_late_ms: f64,
    /// No submission of the step failed.
    clean: bool,
}

/// The highest rate up to which every step kept its tail latency and its
/// end-of-step lateness within [`LIMIT_MS`] with no failed submission: a
/// step that falls behind ends the climb. 0 when the first step did not.
fn sustained_rate(steps: &[Step]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.tail_ms <= LIMIT_MS && s.end_late_ms <= LIMIT_MS && s.clean)
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Closed-loop submissions completed in each whole second of `plan`'s
/// closed loop. Their median is the throughput, so that a burst of load
/// from other tenants of the machine, which lasts a second or two,
/// drops out.
fn per_second(samples: &[Sample], plan: &Plan) -> Vec<f64> {
    let seconds = ((plan.closed_to_ms - plan.closed_from_ms) / 1e3).floor() as usize;
    let mut done = vec![0.0; seconds];
    for sample in samples.iter().filter(|s| s.step == CLOSED) {
        let second = ((sample.done_ms - plan.closed_from_ms) / 1e3).floor();
        if second >= 0.0 && (second as usize) < seconds {
            done[second as usize] += 1.0;
        }
    }
    done
}

fn latencies(samples: &[Sample], step: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.step == step)
        .map(Sample::latency_ms)
        .collect()
}

/// A new directory, `target/benchmark/serve-swarm.kept/run<n>`, for
/// this run's daemon output. Runs keep their output rather than delete
/// it, so that no run slows the next one's file creation (see the module
/// documentation); removing the directory is left to whoever removes the
/// checkout.
fn kept_root() -> std::io::Result<PathBuf> {
    let parent = Path::new(crate::OUT_DIR).join("serve-swarm.kept");
    std::fs::create_dir_all(&parent)?;
    let mut n = 0;
    loop {
        let dir = parent.join(format!("run{n}"));
        match std::fs::create_dir(&dir) {
            Err(error) if error.kind() == ErrorKind::AlreadyExists => n += 1,
            created => return created.map(|()| dir),
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let kept = match kept_root() {
        Ok(dir) => dir,
        Err(error) => {
            report.check(false, || {
                format!("cannot create the daemon's output directory: {error}")
            });
            return report;
        }
    };
    let mut servers = 0;
    let ((mut daemon, pool), setup_s) = repeated_setup(|| {
        servers += 1;
        let config = ServeConfig {
            jobs: JOBS,
            dispatchers: DISPATCHERS,
            out_root: kept.join(format!("server{servers}")),
            ..ServeConfig::default()
        };
        let server = Server::start(config).expect("the daemon starts on a loopback port");
        (Daemon(Some(server)), pool(ctx))
    });
    let digests: Vec<String> = pool
        .expected
        .iter()
        .flat_map(|runs| runs.iter().map(|(key, hash)| format!("{key} {hash:016x}")))
        .collect();
    report.check_digest(ctx, "pool", fnv1a(digests.join("\n").as_bytes()));

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // Throughput climbs over the first second of load (threads, sockets
    // and the allocator settle), so a short closed loop warms up first.
    let warm_up = window(daemon.addr(), &pool, &plan(ctx, WARM_UP_S, &[]), false);
    let steps: &[(f64, f64)] = if ctx.trace { &STEPS } else { &[] };
    let plan = plan(ctx, seconds, steps);
    let untraced = window(daemon.addr(), &pool, &plan, false);
    let traced = ctx.trace.then(|| window(daemon.addr(), &pool, &plan, true));
    let stopped = daemon.stop();
    report.check(stopped.is_ok(), || {
        format!("the daemon did not drain cleanly: {stopped:?}")
    });
    check(&mut report, &warm_up);
    check(&mut report, &untraced);

    let Some(traced) = traced else {
        let closed = latencies(&untraced, CLOSED);
        report.set("setup_s", setup_s);
        report.set("op_p50_ms", stats::median(&closed));
        report.set("ops_per_s", stats::median(&per_second(&untraced, &plan)));
        report.ops_ms = closed;
        return report;
    };

    check(&mut report, &traced);
    let mut tracer = Tracer::new();
    let mut counters = MetricsSnapshot::default();
    for (i, sample) in traced.iter().enumerate() {
        tracer.absorb(&format!("submission{i}"), sample.events.clone());
        counters.merge(&sample.counters);
    }
    let spans = trace::spans(tracer.events());
    trace::ledger(&mut report, &spans, &counters.counters);

    // Latency decomposition over the open-loop submissions.
    let open: Vec<&Sample> = traced.iter().filter(|s| s.step != CLOSED).collect();
    let per = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
        open.iter().filter_map(|s| f(s)).collect()
    };
    let first = per(&|s| Some(s.first_ms? - s.began_ms));
    report.set(
        "serve.connect.p50_ms",
        stats::median(&per(&|s| Some(s.connected_ms - s.began_ms))),
    );
    report.set("serve.first_record.p50_ms", stats::median(&first));
    report.set("serve.first_record.tail_ms", stats::tail(&first).1);
    report.set(
        "serve.finalize.p50_ms",
        stats::median(&per(&|s| Some(s.done_ms - s.last_ms?))),
    );
    report.set(
        "serve.overhead.p50_ms",
        stats::median(&per(&|s| {
            Some(s.latency_ms() - s.record_ms.iter().sum::<f64>())
        })),
    );
    report.set(
        "serve.late.max_ms",
        per(&|s| Some(s.began_ms - s.due_ms))
            .into_iter()
            .fold(0.0, f64::max),
    );
    let mut steps = Vec::new();
    for (step, (rate, _)) in STEPS.into_iter().enumerate() {
        let latency = latencies(&traced, step);
        let in_step: Vec<&Sample> = traced.iter().filter(|s| s.step == step).collect();
        steps.push(Step {
            rate,
            tail_ms: stats::tail(&latency).1,
            end_late_ms: in_step
                .last()
                .map_or(f64::INFINITY, |s| s.began_ms - s.due_ms),
            clean: in_step.iter().all(|s| s.problems.is_empty()),
        });
        report.set(format!("serve.p50_ms.r{rate}"), stats::median(&latency));
        report.set(format!("serve.tail_ms.r{rate}"), steps[step].tail_ms);
    }
    report.set("serve.max_rate_per_s", sustained_rate(&steps));

    let record_ms: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.record_ms.iter().copied())
        .collect();
    let window_ms = traced.iter().map(|s| s.done_ms).fold(0.0, f64::max);
    report.set("campaign.cell.p50_ms", stats::median(&record_ms));
    report.set("campaign.cell.tail_ms", stats::tail(&record_ms).1);
    report.set(
        "campaign.busy_frac",
        record_ms.iter().sum::<f64>() / (window_ms * JOBS as f64),
    );
    // Both halves run the same plan; its 100/s step stays below capacity.
    report.set(
        "trace_overhead_frac",
        stats::median(&latencies(&traced, 0)) / stats::median(&latencies(&untraced, 0)) - 1.0,
    );
    trace::write(&mut report, ctx, &tracer);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ctx() -> Ctx {
        Ctx {
            workload: "serve-swarm",
            seed: 7,
            seconds: 10.0,
            trace: true,
            scratch: PathBuf::new(),
        }
    }

    #[test]
    fn the_open_loop_is_due_on_a_fixed_schedule_then_closes() {
        let mixed = plan(&ctx(), 10.0, &STEPS);
        // 100/s for 5 s, 200/s and 400/s for 1.5 s each.
        assert_eq!(mixed.open.len(), 500 + 300 + 600);
        assert_eq!(mixed.open[1].at_ms, 10.0);
        assert_eq!(mixed.open[500].at_ms, 5_000.0);
        assert_eq!(mixed.open[501].at_ms, 5_005.0);
        assert_eq!(
            (mixed.closed_from_ms, mixed.closed_to_ms),
            (8_000.0, 10_000.0)
        );
        // Exactly every fourth submission is an attack spec.
        assert!(mixed
            .open
            .iter()
            .enumerate()
            .all(|(n, due)| (due.spec % 4 == 3) == (n % 4 == 3)));
        // Without open-loop steps the whole window is closed loop.
        let closed = plan(&ctx(), 10.0, &[]);
        assert!(closed.open.is_empty());
        assert_eq!(
            (closed.closed_from_ms, closed.closed_to_ms),
            (0.0, 10_000.0)
        );
    }

    #[test]
    fn open_loop_latency_counts_the_lateness() {
        // Due at 100 ms, started 30 ms late, done 5 ms after starting.
        let sample = Sample {
            due_ms: 100.0,
            began_ms: 130.0,
            done_ms: 135.0,
            ..Sample::default()
        };
        assert_eq!(sample.latency_ms(), 35.0);
    }

    #[test]
    fn throughput_counts_closed_loop_completions_per_whole_second() {
        let plan = plan(&ctx(), 3.5, &[]);
        let done = |step, done_ms| Sample {
            step,
            done_ms,
            ..Sample::default()
        };
        let samples = [
            done(CLOSED, 10.0),
            done(CLOSED, 999.0),
            done(CLOSED, 1_000.0),
            done(0, 1_500.0),
            done(CLOSED, 2_999.0),
            // In the half second past the last whole one: not counted.
            done(CLOSED, 3_200.0),
        ];
        assert_eq!(per_second(&samples, &plan), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn the_sustained_rate_is_the_last_step_before_falling_behind() {
        let step = |rate, tail_ms, end_late_ms| Step {
            rate,
            tail_ms,
            end_late_ms,
            clean: true,
        };
        let keeping_up = [
            step(100.0, 10.0, 0.5),
            step(200.0, 20.0, 1.0),
            step(400.0, 30.0, 2.0),
        ];
        assert_eq!(sustained_rate(&keeping_up), 400.0);
        // A backlog at 400/s: the tail and the lateness both blow up.
        let backlog = [
            step(100.0, 10.0, 0.5),
            step(200.0, 20.0, 1.0),
            step(400.0, 300.0, 250.0),
        ];
        assert_eq!(sustained_rate(&backlog), 200.0);
        // Lateness alone disqualifies a step, and ends the climb.
        let late = [
            step(100.0, 10.0, 0.5),
            step(200.0, 20.0, 80.0),
            step(400.0, 30.0, 2.0),
        ];
        assert_eq!(sustained_rate(&late), 100.0);
        let failing = [Step {
            clean: false,
            ..step(100.0, 10.0, 0.5)
        }];
        assert_eq!(sustained_rate(&failing), 0.0);
    }
}
