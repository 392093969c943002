//! Executes one grid cell: derives the run's seed, runs the cell's
//! [`Experiment`](crate::registry::Experiment) row, catches panics, and
//! packages a [`RunRecord`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use parking_lot::Mutex;

use eaao_cloudsim::ids::{AccountId, HostId, InstanceId};
use eaao_cloudsim::mitigation::TscMitigation;
use eaao_cloudsim::service::Generation;
use eaao_core::coverage::measure_coverage;
use eaao_core::scenario::{Arena, Scenario};
use eaao_core::strategy::StrategyReport;
use eaao_core::verify::{ctest_via, CTestConfig, VerifierChannel};
use eaao_obs::{Collector, Event, MetricsSnapshot};
use eaao_orchestrator::platform::PlatformKind;
use eaao_orchestrator::{LaunchError, World};
use eaao_simcore::rng::SimRng;
use rand::RngCore;
use serde::{Deserialize, Serialize, Value};

use crate::registry::{Job, Outcome};
use crate::spec::RunSpec;

/// The per-run wall-time field name — the **only** nondeterministic field
/// in a record. Consumers comparing result streams byte-for-byte (e.g.
/// the determinism tests) drop this field and nothing else.
pub const WALL_FIELD: &str = "wall_ms";

/// The outcome of one run, as streamed to `results.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Stable identity of the grid cell (see [`RunSpec::key`]).
    pub key: String,
    /// Position in the expanded grid.
    pub index: u64,
    /// Experiment name.
    pub experiment: String,
    /// Region swept.
    pub region: String,
    /// Generation axis value (`"-"` when collapsed).
    pub generation: String,
    /// Mitigation axis value (`"-"` when collapsed).
    pub mitigation: String,
    /// Platform axis value (`"-"` when collapsed).
    pub platform: String,
    /// Verifier axis value (`"-"` when collapsed).
    pub verifier: String,
    /// Seed index within the campaign.
    pub seed_index: u32,
    /// The derived per-run seed actually passed to the driver.
    pub seed: u64,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Panic message, for failed runs.
    pub error: Option<String>,
    /// Virtual (simulated) time the run modeled, where the experiment has
    /// a natural horizon.
    pub virtual_s: Option<f64>,
    /// Real time the run took. Nondeterministic; see [`WALL_FIELD`].
    pub wall_ms: f64,
    /// Deterministic per-run metrics collected while the driver ran:
    /// counters, gauges, and stage-latency histograms over **simulated**
    /// quantities only, so this block is byte-identical across `--jobs`
    /// values and across tracing on/off.
    pub metrics: MetricsSnapshot,
    /// The driver's full serialized result, for successful runs.
    pub payload: Option<Value>,
}

impl RunRecord {
    /// Whether the run completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// FNV-1a hash of the record's deterministic content (the canonical
    /// JSON with [`WALL_FIELD`] zeroed). Stored in the manifest; a resume
    /// re-runs any cell whose stored record no longer matches its hash.
    pub fn content_hash(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.wall_ms = 0.0;
        let text = serde_json::to_string(&canonical).expect("record serializes");
        fnv1a(text.as_bytes())
    }
}

/// FNV-1a over a byte stream.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Derives the run's seed from the campaign master seed and the run key.
///
/// Every run forks a fresh labeled stream off `SimRng::seed_from(master)`,
/// so the mapping depends only on (master seed, run key) — never on
/// worker count or execution order. This is what makes campaign output
/// byte-identical across `--jobs` values.
pub fn derive_seed(master: u64, key: &str) -> u64 {
    SimRng::seed_from(master).fork_labeled(key).next_u64()
}

/// A campaign-wide store of built attack arenas, keyed by
/// [`RunSpec::world_key`].
///
/// Attack-trial cells sharing a world key (same region, generation,
/// mitigation, platform, seed index, and quick flag — e.g. the naive and
/// optimized strategies on one axis point, or the same trial over
/// different verifier channels) build byte-identical worlds. The cache
/// builds each such world once and hands every cell a copy-on-write
/// [`Arena::branch`]: the data center's genesis, and every host shard any
/// cell generates into it, stays shared, and the branch replays — metrics
/// included — exactly as a fresh build would. Thread-safe, so the grid
/// executor shares one cache across its workers at any `--jobs` value.
#[derive(Debug, Default)]
pub struct WorldCache {
    arenas: Mutex<BTreeMap<String, Arena>>,
}

impl WorldCache {
    /// An empty cache.
    pub fn new() -> WorldCache {
        WorldCache::default()
    }

    /// Returns a fresh branch of the arena cached under `key`, building
    /// and caching the master copy with `build` on first use.
    ///
    /// Holding the lock across `build` (and the cheap `branch`) is
    /// deliberate: concurrent workers asking for the *same* key would
    /// otherwise race to duplicate the expensive world build the cache
    /// exists to avoid — and the master arena's lazily materialized
    /// internals are single-threaded, so reads of it are serialized too.
    ///
    /// `build` runs under a detached metrics collector: under a shared
    /// cache, *which* record triggers a build depends on execution
    /// order, so letting build-time metrics land in that record would
    /// break the byte-identical-across-`--jobs` contract.
    // tidy:allow(determinism-taint) -- the detached Collector stamps build spans with wall-clock Instants, but it is dropped with the build and its events land in no record, so cache-hit order cannot reach campaign bytes.
    pub fn branch(&self, key: &str, build: impl FnOnce() -> Arena) -> Arena {
        let mut arenas = self.arenas.lock();
        let master = arenas
            .entry(key.to_owned())
            .or_insert_with(|| eaao_obs::with_instrument(Collector::new(), build));
        // tidy:allow(lock-order) -- `Arena::branch` never touches a `WorldCache`; the name-based resolver pins `.branch` to this method itself.
        master.branch()
    }

    /// Number of distinct worlds built so far.
    pub fn worlds_built(&self) -> usize {
        self.arenas.lock().len()
    }
}

/// Runs one grid cell to completion, never panicking: driver panics are
/// caught and reported as failed records.
pub fn execute(run: &RunSpec, master_seed: u64) -> RunRecord {
    execute_traced(run, master_seed, false).0
}

/// Like [`execute`], with an [`eaao_obs::Collector`] installed around the
/// driver so instrumented code (orchestrator, experiments, verification)
/// reports into the record's `metrics` block. When `collect_events` is
/// true the collector additionally buffers trace events, which are
/// returned tagged with the run key — event collection never changes the
/// record itself.
pub fn execute_traced(
    run: &RunSpec,
    master_seed: u64,
    collect_events: bool,
) -> (RunRecord, Vec<Event>) {
    execute_traced_cached(run, master_seed, collect_events, None)
}

/// Like [`execute_traced`], with an optional shared [`WorldCache`] the
/// attack-trial cells draw copy-on-write world branches from. Records
/// are byte-identical with and without a cache (attack-trial worlds are
/// seeded from [`RunSpec::world_key`] either way); the cache only
/// removes redundant world builds.
pub fn execute_traced_cached(
    run: &RunSpec,
    master_seed: u64,
    collect_events: bool,
    cache: Option<&WorldCache>,
) -> (RunRecord, Vec<Event>) {
    let key = run.key();
    let seed = derive_seed(master_seed, &key);
    let collector = if collect_events {
        Collector::with_events()
    } else {
        Collector::new()
    };
    let started = Instant::now();
    let job = Job {
        run,
        seed,
        master_seed,
        cache,
    };
    let outcome = eaao_obs::with_instrument(collector.clone(), || {
        let mut run_span = eaao_obs::span("campaign.run");
        run_span.str_field("key", &key);
        run_span.str_field("experiment", run.experiment.name);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut dispatch_span = eaao_obs::span("experiment.dispatch");
            dispatch_span.str_field("experiment", run.experiment.name);
            (run.experiment.run)(&job)
        }));
        run_span.bool_field("ok", outcome.is_ok());
        match &outcome {
            Ok((virtual_s, _)) => {
                eaao_obs::count("campaign.runs_ok", 1);
                if let Some(virtual_s) = virtual_s {
                    eaao_obs::observe("campaign.virtual_ms", (virtual_s * 1e3) as u64);
                }
            }
            Err(_) => eaao_obs::count("campaign.runs_failed", 1),
        }
        outcome
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (status, error, virtual_s, payload) = match outcome {
        Ok((virtual_s, payload)) => ("ok".to_owned(), None, virtual_s, Some(payload)),
        Err(cause) => {
            let message = if let Some(text) = cause.downcast_ref::<String>() {
                text.clone()
            } else if let Some(text) = cause.downcast_ref::<&str>() {
                (*text).to_owned()
            } else {
                "non-string panic payload".to_owned()
            };
            ("failed".to_owned(), Some(message), None, None)
        }
    };
    let metrics = collector.snapshot();
    let mut events = collector.drain_events();
    for event in &mut events {
        event.run = Some(key.clone());
    }
    let record = RunRecord {
        key,
        index: run.index as u64,
        experiment: run.experiment.name.to_owned(),
        region: run.region.clone(),
        generation: run.generation.map_or("-", Generation::name).to_owned(),
        mitigation: run.mitigation.map_or("-", TscMitigation::name).to_owned(),
        platform: run.platform.map_or("-", PlatformKind::name).to_owned(),
        verifier: run.verifier.map_or("-", VerifierChannel::name).to_owned(),
        seed_index: run.seed_index,
        seed,
        status,
        error,
        virtual_s,
        wall_ms,
        metrics,
        payload,
    };
    (record, events)
}

/// The campaign-native experiment: one full co-location attack against a
/// fresh victim, on every axis the campaign sweeps (region × generation ×
/// mitigation × platform × verifier). This is the cell behind
/// strategy/region sweeps like `examples/campaign_sweep.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackTrial {
    /// Victim instances deployed.
    pub victims: u64,
    /// Attacker instances alive at the end of the attack.
    pub attacker_instances: u64,
    /// Distinct hosts the attacker occupies (ground truth).
    pub attacker_hosts: u64,
    /// Launches the strategy issued.
    pub launches: u64,
    /// Fraction of victim instances co-located with >= 1 attacker.
    pub victim_instance_coverage: f64,
    /// Whether the attacker co-located with at least one victim instance.
    pub at_least_one: bool,
    /// Fraction of the region's hosts the attacker occupies.
    pub attacker_host_coverage: f64,
    /// Total billed cost of the attack.
    pub cost_usd: f64,
    /// Platform the trial ran on (canonical grid-axis name).
    pub platform: String,
    /// Channel the confirmation test ran over (canonical grid-axis name).
    pub verifier: String,
    /// Verdict of one covert-channel test over a ground-truth co-located
    /// attacker–victim pair — the verified counterpart of
    /// `at_least_one`. `None` when no such pair exists.
    pub verified_at_least_one: Option<bool>,
}

/// Builds the attack arena for a run's world axes.
///
/// Seeded from the run's [`world_key`] (not its full key), so every grid
/// cell sharing those axes — naive vs optimized strategy, different
/// verifier channels — builds the *same* world and can share one cached
/// copy, while seeds still derive purely from (master seed, key) and
/// records stay byte-identical at every `--jobs` value.
///
/// [`world_key`]: RunSpec::world_key
fn build_attack_arena(run: &RunSpec, master_seed: u64) -> Arena {
    let mut scenario = Scenario::in_region(&run.region);
    scenario
        .seed(derive_seed(master_seed, &run.world_key()))
        .victims(if run.quick { 40 } else { 100 })
        .generation(run.generation.unwrap_or(Generation::Gen1))
        .tsc_mitigation(run.mitigation.unwrap_or(TscMitigation::None))
        .platform(run.platform.unwrap_or(PlatformKind::CloudRun));
    scenario.build()
}

/// Runs one attack trial: `launch` runs the strategy in a branch of the
/// run's attack world, then coverage and one covert-channel confirmation
/// are measured.
pub(crate) fn attack_trial(
    job: &Job<'_>,
    launch: impl FnOnce(&mut World, AccountId) -> Result<StrategyReport, LaunchError>,
) -> Outcome {
    let run = job.run;
    let platform = run.platform.unwrap_or(PlatformKind::CloudRun);
    let channel = run.verifier.unwrap_or(VerifierChannel::RngCtest);
    // Both paths hand the trial a *branch* of a detached-collector build,
    // so a record's metrics block is identical whether its world came
    // from the cache or was built on the spot.
    let build = || build_attack_arena(run, job.master_seed);
    let mut arena = match job.cache {
        Some(cache) => cache.branch(&run.world_key(), build),
        None => eaao_obs::with_instrument(Collector::new(), build).branch(),
    };
    let report = launch(&mut arena.world, arena.attacker).expect("attack fleet fits the region");
    let coverage = measure_coverage(&arena.world, &report.live_instances, &arena.victims);
    // Confirm one ground-truth co-located attacker–victim pair over the
    // run's verification channel: the fingerprint pipeline only *suspects*
    // co-location, the covert channel proves it (§4.3).
    let verified_at_least_one =
        first_co_located_pair(&arena.world, &report.live_instances, &arena.victims).map(|pair| {
            let verdicts = ctest_via(&mut arena.world, &pair, &CTestConfig::default(), channel)
                .expect("pair instances are alive");
            verdicts.iter().all(|&v| v)
        });
    let trial = AttackTrial {
        victims: arena.victims.len() as u64,
        attacker_instances: report.live_instances.len() as u64,
        attacker_hosts: report.hosts_occupied as u64,
        launches: report.launches as u64,
        victim_instance_coverage: coverage.victim_instance_coverage(),
        at_least_one: coverage.at_least_one(),
        attacker_host_coverage: coverage.attacker_host_coverage(),
        cost_usd: report.cost.as_usd(),
        platform: platform.name().to_owned(),
        verifier: channel.name().to_owned(),
        verified_at_least_one,
    };
    let virtual_s = arena.world.now().as_secs_f64();
    let payload = serde_json::to_value(&trial).expect("attack trial serializes");
    (Some(virtual_s), payload)
}

/// The first ground-truth co-located attacker–victim pair: the first
/// attacker, in `attackers` order, sharing a host with any victim, paired
/// with the first victim on that host in `victims` order. One pass over
/// each list, where a nested scan costs up to `attackers × victims` host
/// lookups when no early pair exists.
fn first_co_located_pair(
    world: &World,
    attackers: &[InstanceId],
    victims: &[InstanceId],
) -> Option<[InstanceId; 2]> {
    let mut first_victim_on: BTreeMap<HostId, InstanceId> = BTreeMap::new();
    for &victim in victims {
        first_victim_on
            .entry(world.host_of(victim))
            .or_insert(victim);
    }
    attackers.iter().find_map(|&attacker| {
        first_victim_on
            .get(&world.host_of(attacker))
            .map(|&victim| [attacker, victim])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use eaao_core::strategy::NaiveLaunch;

    fn quick_run(experiment: &str) -> RunSpec {
        let spec = CampaignSpec {
            experiments: vec![experiment.to_owned()],
            regions: vec!["us-west1".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        spec.expand().expect("valid")[0].clone()
    }

    #[test]
    fn derived_seeds_depend_only_on_master_and_key() {
        let a = derive_seed(7, "fig6/us-west1/-/-/-/-/s0");
        assert_eq!(a, derive_seed(7, "fig6/us-west1/-/-/-/-/s0"));
        assert_ne!(a, derive_seed(8, "fig6/us-west1/-/-/-/-/s0"));
        assert_ne!(a, derive_seed(7, "fig6/us-west1/-/-/-/-/s1"));
    }

    #[test]
    fn a_quick_cell_executes_to_an_ok_record() {
        let record = execute(&quick_run("fig6"), 11);
        assert!(record.is_ok(), "error: {:?}", record.error);
        assert_eq!(record.experiment, "fig6");
        assert_eq!(record.generation, "-");
        assert!(record.payload.is_some());
        assert!(record.virtual_s.unwrap() > 0.0);
    }

    #[test]
    fn attack_trials_record_coverage() {
        let record = execute(&quick_run("attack-optimized"), 11);
        assert!(record.is_ok(), "error: {:?}", record.error);
        assert_eq!(record.generation, "gen1");
        assert_eq!(record.mitigation, "none");
        assert_eq!(record.platform, "cloudrun");
        assert_eq!(record.verifier, "rng-ctest");
        let payload = record.payload.expect("payload");
        let coverage = payload
            .get("victim_instance_coverage")
            .and_then(Value::as_f64)
            .expect("coverage field");
        assert!((0.0..=1.0).contains(&coverage));
        // The covert-channel confirmation agrees with the ground truth.
        let at_least_one = matches!(payload.get("at_least_one"), Some(Value::Bool(true)));
        let verified = matches!(
            payload.get("verified_at_least_one"),
            Some(Value::Bool(true))
        );
        assert_eq!(at_least_one, verified);
    }

    #[test]
    fn the_pair_index_picks_what_the_nested_scan_picks() {
        let run = quick_run("attack-naive");
        let mut arena = build_attack_arena(&run, 11);
        let attackers = NaiveLaunch {
            services: 3,
            instances_per_service: 400,
            ..NaiveLaunch::default()
        }
        .run(&mut arena.world, arena.attacker)
        .expect("fits")
        .live_instances;
        let world = &arena.world;
        let nested = |attackers: &[InstanceId], victims: &[InstanceId]| {
            attackers.iter().find_map(|&attacker| {
                victims
                    .iter()
                    .find(|&&victim| world.host_of(attacker) == world.host_of(victim))
                    .map(|&victim| [attacker, victim])
            })
        };
        let reversed = |ids: &[InstanceId]| ids.iter().rev().copied().collect::<Vec<_>>();
        let orders = [
            (attackers.clone(), arena.victims.clone()),
            (reversed(&attackers), arena.victims.clone()),
            (attackers.clone(), reversed(&arena.victims)),
            (
                attackers[attackers.len() / 2..].to_vec(),
                arena.victims.clone(),
            ),
            (Vec::new(), arena.victims.clone()),
            (attackers.clone(), Vec::new()),
        ];
        let mut found = 0;
        for (attackers, victims) in &orders {
            let pair = first_co_located_pair(world, attackers, victims);
            assert_eq!(pair, nested(attackers, victims));
            found += usize::from(pair.is_some());
        }
        assert!(found >= 4, "the fleet co-locates with some victim");
    }

    #[test]
    fn calibration_cells_execute_on_every_platform() {
        let spec = CampaignSpec {
            experiments: vec!["calibration".to_owned()],
            regions: vec!["us-west1".to_owned()],
            platforms: vec!["cloudrun".to_owned(), "azure-like".to_owned()],
            verifiers: vec!["membus-lockcheck".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        let runs = spec.expand().expect("valid");
        assert_eq!(runs.len(), 2);
        for run in &runs {
            let record = execute(run, 11);
            assert!(record.is_ok(), "error: {:?}", record.error);
            assert_eq!(record.verifier, "membus-lockcheck");
            let payload = record.payload.expect("payload");
            assert_eq!(
                payload.get("platform").and_then(Value::as_str),
                Some(record.platform.as_str())
            );
            assert!(payload.get("chosen_min_positive_rounds").is_some());
        }
    }

    #[test]
    fn cached_and_uncached_attack_trials_are_byte_identical() {
        let run = quick_run("attack-naive");
        let cache = WorldCache::new();
        let mut cached = execute_traced_cached(&run, 11, false, Some(&cache)).0;
        let mut fresh = execute(&run, 11);
        cached.wall_ms = 0.0;
        fresh.wall_ms = 0.0;
        assert_eq!(cached, fresh);
        assert_eq!(cache.worlds_built(), 1);
        // A second cell with the same world key reuses the built world.
        let again = execute_traced_cached(&run, 11, false, Some(&cache)).0;
        assert_eq!(again.content_hash(), fresh.content_hash());
        assert_eq!(cache.worlds_built(), 1);
    }

    #[test]
    fn strategies_share_one_world_per_key() {
        // attack-naive and attack-optimized collapse to the same world
        // key (the experiment segment is dropped), so a grid sweeping
        // both builds one world — and both trials see identical victims.
        let spec = CampaignSpec {
            experiments: vec!["attack-naive".to_owned(), "attack-optimized".to_owned()],
            regions: vec!["us-west1".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        let runs = spec.expand().expect("valid");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].world_key(), runs[1].world_key());
        let cache = WorldCache::new();
        let records: Vec<RunRecord> = runs
            .iter()
            .map(|run| execute_traced_cached(run, 11, false, Some(&cache)).0)
            .collect();
        assert_eq!(cache.worlds_built(), 1);
        for record in &records {
            assert!(record.is_ok(), "error: {:?}", record.error);
        }
        // Branch isolation: the records still key their *seeds* off the
        // full run key, and the strategies diverge after the shared
        // world prefix.
        assert_ne!(records[0].seed, records[1].seed);
        assert_ne!(records[0].payload, records[1].payload);
    }

    #[test]
    fn content_hash_ignores_wall_time() {
        let mut a = execute(&quick_run("fig6"), 3);
        let mut b = a.clone();
        a.wall_ms = 1.0;
        b.wall_ms = 9_999.0;
        assert_eq!(a.content_hash(), b.content_hash());
        b.seed ^= 1;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let record = execute(&quick_run("fig6"), 5);
        let line = serde_json::to_string(&record).expect("serializes");
        let back: RunRecord = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, record);
    }
}
