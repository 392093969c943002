//! Randomized world schedules and the differential runner.
//!
//! A [`Schedule`] is a serializable description of one simulated tenant
//! session: a region shape, churn switches, and a sequence of [`Op`]s
//! (launch / autoscale / disconnect / kill / advance). [`run`] drives a
//! schedule through a `World` on any [`Engine`] and records a
//! [`Trajectory`] — one JSONL line per op capturing the placements, the
//! per-service alive sets (so reap times are observable), the free-slot
//! count, and the exact billing bits. [`check`] runs the same schedule on
//! the optimized and reference engines and reports the first line where
//! the transcripts diverge.

use eaao_cloudsim::ids::ServiceId;
use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::engine::{Engine, OptimizedEngine};
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::reference::ReferenceEngine;

/// One operation of a schedule. Service indices are taken modulo the
/// schedule's service count, so shrinking the fleet never invalidates ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Open `count` concurrent connections on service `service`.
    Launch {
        /// Index into the schedule's deployed services.
        service: usize,
        /// Connections to open.
        count: usize,
    },
    /// Autoscale service `service` to `demand` concurrent requests.
    SetLoad {
        /// Index into the schedule's deployed services.
        service: usize,
        /// Target concurrent requests.
        demand: usize,
    },
    /// Close every connection of service `service`.
    DisconnectAll {
        /// Index into the schedule's deployed services.
        service: usize,
    },
    /// Terminate every instance of service `service` immediately.
    KillAll {
        /// Index into the schedule's deployed services.
        service: usize,
    },
    /// Let `seconds` of simulated time pass (reapers and churn fire).
    Advance {
        /// Simulated seconds to advance.
        seconds: i64,
    },
}

/// A reproducible world session: everything [`run`] needs, and nothing
/// else — serialize it, commit it to the seed corpus, replay it later.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// World seed.
    pub seed: u64,
    /// Host-pool size.
    pub hosts: usize,
    /// Per-host slot capacity override; `0` keeps the region preset.
    pub host_capacity: usize,
    /// Number of services deployed.
    pub services: usize,
    /// Number of accounts the services round-robin over (service `i`
    /// belongs to account `i % accounts`); `0` behaves as 1. Distinct
    /// accounts hash to distinct scheduling cells, which is how a
    /// schedule reaches cold (never-materialized) cells late in a run.
    pub accounts: usize,
    /// Use the dynamic-placement region preset (us-central1-style).
    pub dynamic: bool,
    /// Enable platform instance churn before the ops run.
    pub instance_churn: bool,
    /// Enable host maintenance reboots with this mean (minutes per host).
    pub host_churn_mins: Option<i64>,
    /// The operation sequence.
    pub ops: Vec<Op>,
}

impl Schedule {
    /// The region this schedule builds.
    pub fn region(&self) -> RegionConfig {
        let mut region = if self.dynamic {
            RegionConfig::us_central1()
        } else {
            RegionConfig::us_west1()
        };
        region = region.with_hosts(self.hosts.max(1));
        if self.host_capacity > 0 {
            region.host_config.capacity = self.host_capacity;
        }
        region
    }
}

/// Host assignment of one newly created instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Raw instance id.
    pub instance: u32,
    /// Raw host id.
    pub host: u32,
}

/// One transcript line: the op's observable outcome plus a digest of the
/// whole world state after it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Index of the op in the schedule.
    pub step: usize,
    /// Simulated time after the op, in nanoseconds.
    pub now_ns: i64,
    /// What the op did (launch counts, autoscaler verdicts, errors).
    pub outcome: String,
    /// Hosts assigned to instances created by this op.
    pub placements: Vec<Placement>,
    /// Alive instance ids per service — reap times show up as instances
    /// vanishing from these sets across `Advance` steps.
    pub alive: Vec<Vec<u32>>,
    /// Ground-truth resident instances across all hosts.
    pub resident: usize,
    /// Free slots reported by the engine's capacity index.
    pub free_slots: u64,
    /// Exact bit pattern of the billed-USD total (no float tolerance:
    /// both engines must bill identically to the last bit).
    pub billed_bits: u64,
}

/// The full observable history of one schedule run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// One serialized [`StepRecord`] per op.
    pub lines: Vec<String>,
}

impl Trajectory {
    /// The transcript as JSONL bytes — the byte-equality surface of the
    /// differential oracle, shaped like a campaign `results.jsonl`.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// A schedule mid-run: the world plus its deployed services, with the
/// step-record logic of [`run`] factored out so callers can pause at any
/// op boundary, [`branch`](Session::branch) the world, and replay the
/// remainder on both sides — the snapshot/branch differential surface.
#[derive(Debug)]
pub struct Session<E: Engine> {
    world: World<E>,
    services: Vec<ServiceId>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`.
impl<E: Engine> Clone for Session<E> {
    fn clone(&self) -> Self {
        Session {
            world: self.world.clone(),
            services: self.services.clone(),
        }
    }
}

impl<E: Engine> Session<E> {
    /// Builds the schedule's world, accounts, and services; enables the
    /// churn switches. No op has run yet.
    // tidy:allow(panic-reachability) -- `accounts` holds `max(1)` entries, and the service loop indexes it modulo its length.
    pub fn new(schedule: &Schedule) -> Self {
        let mut world: World<E> = World::with_engine(schedule.region(), schedule.seed);
        let accounts: Vec<_> = (0..schedule.accounts.max(1))
            .map(|_| world.create_account())
            .collect();
        let services: Vec<ServiceId> = (0..schedule.services.max(1))
            .map(|i| {
                world.deploy_service(
                    accounts[i % accounts.len()],
                    ServiceSpec::default().with_max_instances(150),
                )
            })
            .collect();
        if schedule.instance_churn {
            world.enable_instance_churn(true);
        }
        if let Some(mins) = schedule.host_churn_mins {
            world.enable_host_churn(SimDuration::from_mins(mins.max(1)));
        }
        Session { world, services }
    }

    /// Applies op number `step` and returns its serialized
    /// [`StepRecord`] line.
    pub fn apply_step(&mut self, step: usize, op: Op) -> String {
        let (outcome, placements) = apply(&mut self.world, &self.services, op);
        let alive: Vec<Vec<u32>> = self
            .services
            .iter()
            .map(|&s| {
                self.world
                    .alive_instances_of(s)
                    .into_iter()
                    .map(|id| id.as_raw())
                    .collect()
            })
            .collect();
        let record = StepRecord {
            step,
            now_ns: self.world.now().as_nanos(),
            outcome,
            placements,
            alive,
            resident: self.world.occupancy().len(),
            free_slots: self.world.free_slots(),
            billed_bits: self.world.billed().as_usd().to_bits(),
        };
        serde_json::to_string(&record).expect("record serializes")
    }

    /// Forks an independent session from the current state (the world is
    /// [`World::branch`]ed; the service handles are copied).
    pub fn branch(&self) -> Self {
        Session {
            world: self.world.branch(),
            services: self.services.clone(),
        }
    }

    /// The services the schedule deployed, in deployment order (op
    /// service indices index into this slice).
    pub fn services(&self) -> &[ServiceId] {
        &self.services
    }

    /// The world under the session (read-only introspection).
    pub fn world(&self) -> &World<E> {
        &self.world
    }

    /// The world under the session (mutable — for tests that perturb a
    /// branch outside the schedule's op vocabulary).
    pub fn world_mut(&mut self) -> &mut World<E> {
        &mut self.world
    }
}

/// Runs a schedule on engine `E` and records its trajectory.
pub fn run<E: Engine>(schedule: &Schedule) -> Trajectory {
    let mut session = Session::<E>::new(schedule);
    let lines = schedule
        .ops
        .iter()
        .enumerate()
        .map(|(step, &op)| session.apply_step(step, op))
        .collect();
    Trajectory { lines }
}

/// Applies one op, returning its outcome line and any new placements.
/// Shared by the differential runner and the model-based root tests so
/// both drive the world through the same surface.
///
/// # Panics
///
/// Panics if `services` is empty: ops address services modulo the
/// roster, so there must be at least one.
pub fn apply<E: Engine>(
    world: &mut World<E>,
    services: &[ServiceId],
    op: Op,
) -> (String, Vec<Placement>) {
    let pick = |service: usize| services[service % services.len()];
    match op {
        Op::Launch { service, count } => match world.launch(pick(service), count) {
            Ok(launch) => {
                let placements = launch.instances()[launch.reused()..]
                    .iter()
                    .map(|&id| Placement {
                        instance: id.as_raw(),
                        host: world.host_of(id).as_raw(),
                    })
                    .collect();
                (
                    format!(
                        "launch: reused={} created={}",
                        launch.reused(),
                        launch.created()
                    ),
                    placements,
                )
            }
            Err(e) => (format!("launch error: {e:?}"), Vec::new()),
        },
        Op::SetLoad { service, demand } => match world.set_load(pick(service), demand) {
            Ok(serving) => (format!("set_load: serving={}", serving.len()), Vec::new()),
            Err(e) => (format!("set_load error: {e:?}"), Vec::new()),
        },
        Op::DisconnectAll { service } => {
            world.disconnect_all(pick(service));
            ("disconnect_all".to_owned(), Vec::new())
        }
        Op::KillAll { service } => {
            world.kill_all(pick(service));
            ("kill_all".to_owned(), Vec::new())
        }
        Op::Advance { seconds } => {
            world.advance(SimDuration::from_secs(seconds.max(0)));
            ("advance".to_owned(), Vec::new())
        }
    }
}

/// The first transcript line where the two engines disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first differing line (or the shorter length when one
    /// transcript is a prefix of the other).
    pub step: usize,
    /// The optimized engine's line at `step`, if any.
    pub optimized: Option<String>,
    /// The reference engine's line at `step`, if any.
    pub reference: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "engines diverged at step {}", self.step)?;
        writeln!(f, "  optimized: {:?}", self.optimized)?;
        write!(f, "  reference: {:?}", self.reference)
    }
}

/// Runs `schedule` on both engines and compares the transcripts byte for
/// byte.
///
/// # Errors
///
/// Returns the first [`Divergence`] if the trajectories differ.
pub fn check(schedule: &Schedule) -> Result<(), Divergence> {
    let optimized = run::<OptimizedEngine>(schedule);
    let reference = run::<ReferenceEngine>(schedule);
    if optimized == reference {
        return Ok(());
    }
    let step = optimized
        .lines
        .iter()
        .zip(&reference.lines)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| optimized.lines.len().min(reference.lines.len()));
    Err(Divergence {
        step,
        optimized: optimized.lines.get(step).cloned(),
        reference: reference.lines.get(step).cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schedule() -> Schedule {
        Schedule {
            seed: 7,
            hosts: 20,
            host_capacity: 0,
            services: 2,
            accounts: 1,
            dynamic: false,
            instance_churn: false,
            host_churn_mins: None,
            ops: vec![
                Op::Launch {
                    service: 0,
                    count: 30,
                },
                Op::SetLoad {
                    service: 1,
                    demand: 12,
                },
                Op::DisconnectAll { service: 0 },
                Op::Advance { seconds: 900 },
                Op::KillAll { service: 1 },
            ],
        }
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let s = demo_schedule();
        let json = serde_json::to_string(&s).expect("serializes");
        let back: Schedule = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, s);
        // Byte-stable re-serialization, so corpus files stay diffable.
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }

    #[test]
    fn runs_are_deterministic_per_engine() {
        let s = demo_schedule();
        assert_eq!(
            run::<OptimizedEngine>(&s).transcript(),
            run::<OptimizedEngine>(&s).transcript()
        );
        assert_eq!(
            run::<ReferenceEngine>(&s).transcript(),
            run::<ReferenceEngine>(&s).transcript()
        );
    }

    #[test]
    fn demo_schedule_passes_the_oracle() {
        check(&demo_schedule()).expect("engines agree");
    }

    #[test]
    fn transcript_is_jsonl() {
        let t = run::<OptimizedEngine>(&demo_schedule());
        assert_eq!(t.lines.len(), 5);
        for line in &t.lines {
            let record: StepRecord = serde_json::from_str(line).expect("valid JSON line");
            assert!(!line.contains('\n'));
            assert_eq!(
                serde_json::to_string(&record).expect("re-serializes"),
                *line,
                "transcript lines re-serialize byte-identically"
            );
        }
    }
}
