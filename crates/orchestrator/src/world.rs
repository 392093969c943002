//! The simulation world: one region, its orchestrator, and every account,
//! service, and instance in it.
//!
//! [`World`] is the façade experiment drivers talk to. It mirrors the
//! surface an attacker has on a real FaaS platform — deploy services, open
//! and close connections (which launches and idles instances through
//! autoscaling), run code inside instances — plus the *ground-truth* and
//! *measurement* hooks a simulation affords: true host residency, covert
//! channel observations, and billing.

use std::collections::BTreeMap;

use eaao_cloudsim::account::{Account, Standing};
use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::{AccountId, HostId, InstanceId, ServiceId};
use eaao_cloudsim::instance::ContainerInstance;
use eaao_cloudsim::pricing::{BillingMeter, Cost};
use eaao_cloudsim::sandbox::Sandbox;
use eaao_cloudsim::service::{Service, ServiceSpec};
use eaao_obs as obs;
use eaao_simcore::dist::{Exponential, Sample};
use eaao_simcore::events::EventQueue;
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::{SimDuration, SimTime};

use crate::autoscaler::{decide, ScaleAction};
use crate::config::RegionConfig;
use crate::demand::DemandWindow;
use crate::engine::{CapacityIndex, Engine, OptimizedEngine};
use crate::error::{GuestError, LaunchError};
use crate::instances::InstanceRegistry;
use crate::occupancy::Occupancy;
use crate::placement::PlacementPlan;
use crate::platform::PlatformPolicy;

/// Wall time one round of the RNG covert-channel test occupies. 60 rounds
/// ≈ 100 ms, matching the paper's "optimistic 100 ms per test".
pub const CTEST_ROUND_DURATION: SimDuration = SimDuration::from_micros(1_670);

/// Result of a launch: the connected instances, split by provenance.
#[derive(Debug, Clone)]
pub struct Launch {
    instances: Vec<InstanceId>,
    reused: usize,
}

impl Launch {
    /// All connected instances (reused warm instances first).
    pub fn instances(&self) -> &[InstanceId] {
        &self.instances
    }

    /// How many instances were warm idle instances reused.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// How many instances were newly created.
    pub fn created(&self) -> usize {
        self.instances.len() - self.reused
    }
}

/// Internal scheduled events.
#[derive(Debug, Clone, Copy)]
enum WorldEvent {
    /// Reap an idle instance, provided it is still idle since `idle_since`.
    Reap {
        instance: InstanceId,
        idle_since: SimTime,
    },
    /// Platform churn: restart a long-running instance.
    Restart(InstanceId),
    /// Maintenance: reboot one host of the pool, picked uniformly when
    /// the sweep fires. `n` independent per-host Poisson reboot processes
    /// of rate `1/mean` are statistically identical to this single merged
    /// process of rate `n/mean` with uniform host marks, so host churn
    /// needs one pending event instead of one per host.
    RebootSweep,
}

/// One deployed service: its definition, its demand window and the ids
/// of its live instances, kept sorted so that every lookup is a binary
/// search and every bulk move is one pass over a vector.
#[derive(Debug, Clone)]
struct ServiceState {
    service: Service,
    demand: DemandWindow,
    /// Active instances, ascending id.
    active: Vec<InstanceId>,
    /// Idle instances as `(idle since, id)`, ascending. Warm reuse reads
    /// it newest instant first, ascending id within an instant
    /// ([`ServiceState::take_warm`]).
    idle: Vec<(SimTime, InstanceId)>,
}

impl ServiceState {
    fn remove_active(&mut self, id: InstanceId) {
        if let Ok(at) = self.active.binary_search(&id) {
            self.active.remove(at);
        }
    }

    fn insert_idle(&mut self, since: SimTime, id: InstanceId) {
        let at = self.idle.partition_point(|&entry| entry < (since, id));
        self.idle.insert(at, (since, id));
    }

    fn remove_idle(&mut self, since: SimTime, id: InstanceId) {
        if let Ok(at) = self.idle.binary_search(&(since, id)) {
            self.idle.remove(at);
        }
    }

    /// Removes up to `count` idle instances in warm-reuse order, most
    /// recently idled first (they are the least likely to be reaped) and
    /// ascending id within an instant, and returns them in that order.
    /// Whole instants leave from the back of the vector; a partly reused
    /// instant keeps its highest ids.
    fn take_warm(&mut self, count: usize) -> Vec<InstanceId> {
        let mut warm = Vec::with_capacity(count.min(self.idle.len()));
        let mut end = self.idle.len();
        while warm.len() < count {
            let Some(&(instant, _)) = end.checked_sub(1).and_then(|last| self.idle.get(last))
            else {
                break;
            };
            let start = self.idle.partition_point(|&(since, _)| since < instant);
            let take = (count - warm.len()).min(end - start);
            warm.extend(self.idle.iter().skip(start).take(take).map(|&(_, id)| id));
            if start + take < end {
                self.idle.truncate(end);
                self.idle.drain(start..start + take);
                return warm;
            }
            end = start;
        }
        self.idle.truncate(end);
        warm
    }
}

/// Merges the ascending `new` into the ascending `into` in one pass.
/// Entries past the end of `into`, the common case, are appended.
fn merge_ascending<T: Copy + Ord>(into: &mut Vec<T>, new: &[T]) {
    let Some(&first) = new.first() else {
        return;
    };
    let start = into.partition_point(|&x| x < first);
    let tail = into.split_off(start);
    into.reserve(tail.len() + new.len());
    let (mut old, mut fresh) = (tail.iter().peekable(), new.iter().peekable());
    while let (Some(&&a), Some(&&b)) = (old.peek(), fresh.peek()) {
        if a < b {
            into.push(a);
            old.next();
        } else {
            into.push(b);
            fresh.next();
        }
    }
    into.extend(old);
    into.extend(fresh);
}

/// One simulated region with its orchestrator.
///
/// Generic over the placement [`Engine`], which picks the
/// sampling/capacity backends; the default is the production
/// [`OptimizedEngine`], and the `eaao-oracle` crate instantiates the same
/// `World` with its naive reference engine and asserts both trajectories
/// are identical. The [`PlatformPolicy`] enum picks the scheduler family
/// [`RegionConfig::platform`] names, so the paper's Cloud Run policy, the
/// Lambda-like partitioned bin-packer, and the Azure-like reuse-biased
/// scheduler all run through one `World` type (see [`crate::platform`]).
#[derive(Debug)]
pub struct World<E: Engine = OptimizedEngine> {
    region: RegionConfig,
    /// The simulation time; moved only by [`World::run_until`].
    now: SimTime,
    dc: DataCenter,
    /// How many live instances run on each host.
    occupancy: Occupancy,
    policy: PlatformPolicy<E>,
    /// Free-capacity index mirroring `occupancy`; maintained on every
    /// instance create/terminate and host reboot.
    capacity: E::Capacity,
    /// Every account, indexed by id. The next account takes the next id.
    accounts: Vec<Account>,
    /// Every deployed service with its live instances, indexed by id.
    /// The next service takes the next id.
    services: Vec<ServiceState>,
    /// Every instance ever created, terminated ones included, indexed by
    /// id; whole-fleet iteration (billing sums) runs in ascending id
    /// order. The next instance takes the next id.
    instances: InstanceRegistry,
    events: EventQueue<WorldEvent>,
    billing: BillingMeter,
    rng: SimRng,
    instance_churn: bool,
    host_churn_mean: Option<SimDuration>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`, but the world
// only holds the engine's *associated types* (`E::Capacity`), which the
// `Engine` trait already bounds `Clone`. Cloning is the fork primitive
// behind [`World::snapshot`] and [`World::branch`]: the data center's
// immutable genesis (and every host shard generated into it) is shared,
// the index lanes are copy-on-write, and everything else (time,
// residency, instances, event queue, RNG position) is copied so the two
// worlds replay independently but identically from the fork point.
impl<E: Engine> Clone for World<E> {
    fn clone(&self) -> Self {
        World {
            region: self.region.clone(),
            now: self.now,
            dc: self.dc.clone(),
            occupancy: self.occupancy.clone(),
            policy: self.policy.clone(),
            capacity: self.capacity.clone(),
            accounts: self.accounts.clone(),
            services: self.services.clone(),
            instances: self.instances.clone(),
            events: self.events.clone(),
            billing: self.billing,
            rng: self.rng.clone(),
            instance_churn: self.instance_churn,
            host_churn_mean: self.host_churn_mean,
        }
    }
}

/// A frozen copy-on-write snapshot of a [`World`], taken by
/// [`World::snapshot`].
///
/// The snapshot is immutable: it can only be [`branch`]ed into fresh
/// mutable worlds, any number of times. Each branch resumes from the
/// captured state and replays exactly as the original world would have
/// — and mutating a branch never perturbs the snapshot or its other
/// branches (immutable shared genesis in the data center, copy-on-write
/// index lanes, plain copies everywhere else). Dropping the snapshot (or
/// the world it came from) leaves live branches fully intact.
///
/// [`branch`]: WorldSnapshot::branch
#[derive(Debug)]
pub struct WorldSnapshot<E: Engine = OptimizedEngine> {
    frozen: World<E>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`.
impl<E: Engine> Clone for WorldSnapshot<E> {
    fn clone(&self) -> Self {
        WorldSnapshot {
            frozen: self.frozen.clone(),
        }
    }
}

impl<E: Engine> WorldSnapshot<E> {
    /// The simulation time the snapshot was taken at.
    pub fn taken_at(&self) -> SimTime {
        self.frozen.now()
    }

    /// Forks a fresh mutable world resuming from the captured state.
    pub fn branch(&self) -> World<E> {
        self.frozen.clone()
    }
}

impl World {
    /// Builds a world for `region` on the production engine,
    /// deterministic under `seed`.
    pub fn new(region: RegionConfig, seed: u64) -> Self {
        Self::with_engine(region, seed)
    }
}

impl<E: Engine> World<E> {
    /// Builds a world for `region` on engine `E`, deterministic under
    /// `seed`. Two worlds built from the same `(region, seed)` on
    /// different engines consume identical RNG streams and must follow
    /// identical trajectories (the differential-oracle contract).
    // tidy:allow(panic-reachability) -- the eager-build block indexes `cells` (allocated with `cell_count` entries) by `host_cells` values, which are reduced modulo the cell count by every policy.
    pub fn with_engine(region: RegionConfig, seed: u64) -> Self {
        let mut build_span = obs::span("world.build");
        build_span.str_field("region", &region.name);
        build_span.u64_field("hosts", region.host_count as u64);
        let mut rng = SimRng::seed_from(seed);
        let mut dc_rng = rng.fork_labeled("datacenter");
        let dc = DataCenter::generate(
            region.name.clone(),
            region.host_count,
            &region.host_config,
            region.popularity_exponent,
            &mut dc_rng,
        );
        let policy = PlatformPolicy::build(&dc, &region, rng.fork_labeled("policy"));
        if E::EAGER_BUILD {
            // The oracle baseline: materialize every scheduling cell up
            // front, in ascending cell order (hosts ascending within a
            // cell), before any index is built. The optimized engine
            // skips this and lets cells materialize on first touch —
            // byte-identity between the two paths is exactly what the
            // differential oracle asserts.
            let host_cells = policy.host_cells();
            let mut cells: Vec<Vec<HostId>> = vec![Vec::new(); policy.cell_count()];
            #[expect(
                clippy::cast_possible_truncation,
                reason = "host ids are u32 by design; pools stay far below 2^32 hosts"
            )]
            for (h, &cell) in host_cells.iter().enumerate() {
                cells[cell as usize].push(HostId::from_raw(h as u32));
            }
            for hosts in &cells {
                E::materialize_cell(&dc, hosts);
            }
        }
        let capacity = E::Capacity::new(&dc, policy.host_cells(), policy.cell_count());
        let billing = BillingMeter::new(region.rates);
        World {
            now: SimTime::ZERO,
            dc,
            occupancy: Occupancy::default(),
            policy,
            capacity,
            accounts: Vec::new(),
            services: Vec::new(),
            instances: InstanceRegistry::default(),
            events: EventQueue::new(),
            billing,
            rng,
            instance_churn: false,
            host_churn_mean: None,
            region,
        }
    }

    // ------------------------------------------------------------------
    // Platform surface (what a real user/attacker can do)
    // ------------------------------------------------------------------

    /// Creates an established account (full quotas).
    pub fn create_account(&mut self) -> AccountId {
        self.create_account_with_standing(Standing::Established)
    }

    /// Creates a brand-new account (capped quotas, Section 5.2's
    /// "potential attack optimizations" constraint).
    pub fn create_new_account(&mut self) -> AccountId {
        self.create_account_with_standing(Standing::New)
    }

    fn create_account_with_standing(&mut self, standing: Standing) -> AccountId {
        let id =
            AccountId::from_raw(u32::try_from(self.accounts.len()).expect("account ids are u32"));
        self.accounts.push(Account::new(id, standing));
        id
    }

    /// Deploys a service owned by `account`.
    ///
    /// # Panics
    ///
    /// Panics if the account does not exist.
    pub fn deploy_service(&mut self, account: AccountId, spec: ServiceSpec) -> ServiceId {
        assert!(
            account.as_usize() < self.accounts.len(),
            "unknown account {account}"
        );
        let id =
            ServiceId::from_raw(u32::try_from(self.services.len()).expect("service ids are u32"));
        self.services.push(ServiceState {
            service: Service::new(id, account, spec, self.now),
            demand: DemandWindow::new(
                self.region.placement.demand_window,
                self.region.placement.hot_launch_threshold,
            ),
            active: Vec::new(),
            idle: Vec::new(),
        });
        id
    }

    /// Rebuilds a service's container image (invalidates image caches).
    ///
    /// # Panics
    ///
    /// Panics if the service does not exist.
    pub fn rebuild_image(&mut self, service: ServiceId) {
        let now = self.now;
        self.services
            .get_mut(service.as_usize())
            .expect("unknown service")
            .service
            .rebuild_image(now);
    }

    /// Opens `count` concurrent connections to `service`; the autoscaler
    /// reuses warm idle instances and creates the rest.
    ///
    /// # Errors
    ///
    /// Returns a [`LaunchError`] if the request exceeds the service cap or
    /// the account quota, or if the data center cannot place all instances.
    pub fn launch(&mut self, service: ServiceId, count: usize) -> Result<Launch, LaunchError> {
        let mut launch_span = obs::span("world.launch");
        launch_span.u64_field("requested", count as u64);
        let now = self.now;
        let state = self
            .services
            .get_mut(service.as_usize())
            .ok_or(LaunchError::UnknownService(service))?;
        let spec = state.service.spec();
        let owner = state.service.owner();
        if count > spec.max_instances {
            return Err(LaunchError::ExceedsServiceCap {
                requested: count,
                cap: spec.max_instances,
            });
        }
        let quota = self
            .accounts
            .get(owner.as_usize())
            .expect("service owners have accounts")
            .quota()
            .max_instances_per_service;
        if count > quota {
            return Err(LaunchError::ExceedsAccountQuota {
                requested: count,
                quota,
            });
        }

        // Reuse warm idle instances first, then merge them into the
        // active ids in one pass.
        let warm = state.take_warm(count);
        for &id in &warm {
            self.instances
                .get_mut(id)
                .expect("warm instance exists")
                .reactivate(now);
        }
        let mut reactivated = warm.clone();
        reactivated.sort_unstable();
        merge_ascending(&mut state.active, &reactivated);
        let reused = warm.len();
        let need_new = count - reused;

        // Plan placement for the remainder. Hotness is evaluated *before*
        // recording this launch, so a cold service's first launch stays on
        // base hosts.
        let pressure = state.demand.pressure(now);
        let plan = self.policy.plan(
            &self.occupancy,
            &mut self.capacity,
            service,
            owner,
            need_new,
            pressure,
        );
        if plan.len() < need_new {
            // Roll the reused instances back to idle to keep the request
            // atomic; `disconnect_instance` re-arms their reaper timers.
            for &id in &warm {
                self.disconnect_instance(id, now);
            }
            return Err(LaunchError::DataCenterFull {
                placed: plan.len(),
                requested: need_new,
            });
        }
        state.demand.record_launch(now, count);

        let mut instances = warm;
        instances.extend(self.create_instances(service, owner, &plan, spec, now));
        launch_span.u64_field("reused", reused as u64);
        launch_span.u64_field("created", need_new as u64);
        obs::count("orchestrator.launches", 1);
        obs::count("orchestrator.instances_reused", reused as u64);
        obs::count("orchestrator.instances_created", need_new as u64);
        obs::observe("orchestrator.launch_size", count as u64);
        Ok(Launch { instances, reused })
    }

    /// Creates one instance per plan entry — the batched path. Each
    /// instance forks its sandbox's clock seed off the world RNG, and
    /// [`with_guest`](World::with_guest) builds the sandbox from it on
    /// first use. Churn-restart events are scheduled in a single batch.
    fn create_instances(
        &mut self,
        service: ServiceId,
        owner: AccountId,
        plan: &PlacementPlan,
        spec: ServiceSpec,
        now: SimTime,
    ) -> Vec<InstanceId> {
        let mut ids = Vec::with_capacity(plan.len());
        for &host in plan {
            let id = self.instances.next_id();
            self.occupancy.admit(host);
            self.capacity.on_admit(host, &self.occupancy);
            // Nothing reads the host here, but touching its shard keeps
            // this world's touch record, and so the
            // `cloudsim.hosts_generated` count campaign records carry,
            // independent of which instances ever run guest code. The
            // shard itself is generated on its first read.
            self.dc.touch(host);
            let clock_seed = Sandbox::fork_clock_seed(spec.generation, &mut self.rng);
            self.instances.push(ContainerInstance::new(
                id,
                service,
                owner,
                host,
                spec.size,
                spec.generation,
                clock_seed,
                now,
            ));
            ids.push(id);
        }
        // Fresh ids exceed every id handed out before them.
        self.service_mut(service).active.extend_from_slice(&ids);
        if self.instance_churn {
            let mean = self.region.placement.instance_restart_mean.as_secs_f64();
            let restarts: Vec<(SimTime, WorldEvent)> = ids
                .iter()
                .map(|&id| {
                    let delay = Exponential::from_mean(mean).sample(&mut self.rng);
                    (
                        now + SimDuration::from_secs_f64(delay),
                        WorldEvent::Restart(id),
                    )
                })
                .collect();
            self.events.schedule_batch(restarts);
        }
        ids
    }

    /// Autoscales `service` to `demand` concurrent requests: scales out by
    /// launching the shortfall (reusing warm instances first) or scales in
    /// by idling the most recently created surplus instances, whose actual
    /// termination is left to the idle reaper (Section 2.2).
    ///
    /// Returns the live instances serving the load after the adjustment.
    ///
    /// # Errors
    ///
    /// Returns a [`LaunchError`] if scaling out exceeds quotas or capacity.
    pub fn set_load(
        &mut self,
        service: ServiceId,
        demand: usize,
    ) -> Result<Vec<InstanceId>, LaunchError> {
        let state = self
            .services
            .get(service.as_usize())
            .ok_or(LaunchError::UnknownService(service))?;
        match decide(
            state.active.len(),
            demand,
            state.service.spec().max_instances,
        ) {
            ScaleAction::Hold => {
                obs::count("autoscaler.hold", 1);
            }
            ScaleAction::Out(shortfall) => {
                obs::count("autoscaler.scale_out", 1);
                obs::observe("autoscaler.scale_out_size", shortfall as u64);
                // `launch` implements the scale-out path for the shortfall:
                // it reuses warm idle instances and places the remainder.
                self.launch(service, shortfall)?;
            }
            ScaleAction::In(surplus) => {
                obs::count("autoscaler.scale_in", 1);
                obs::observe("autoscaler.scale_in_size", surplus as u64);
                let now = self.now;
                // Newest instances drain first (they have the least warm
                // state worth keeping).
                let doomed: Vec<InstanceId> =
                    state.active.iter().rev().take(surplus).copied().collect();
                for id in doomed {
                    self.disconnect_instance(id, now);
                }
            }
        }
        let state = self
            .services
            .get(service.as_usize())
            .expect("service exists");
        Ok(state.active.clone())
    }

    /// Closes every connection of `service`: its active instances go idle
    /// and the reaper schedules their gradual termination (Figure 6).
    pub fn disconnect_all(&mut self, service: ServiceId) {
        let now = self.now;
        let Some(state) = self.services.get_mut(service.as_usize()) else {
            return;
        };
        let active = std::mem::take(&mut state.active);
        if active.is_empty() {
            return;
        }
        // Ascending id order: the billing records and the reap-jitter RNG
        // draws follow it.
        for &id in &active {
            self.idle_out(id, now);
        }
        let idled: Vec<(SimTime, InstanceId)> = active.iter().map(|&id| (now, id)).collect();
        merge_ascending(&mut self.service_mut(service).idle, &idled);
        // One gauge write for the whole service, as the last
        // per-instance write would have left it.
        self.note_spend();
    }

    fn disconnect_instance(&mut self, id: InstanceId, now: SimTime) {
        let service = self.idle_out(id, now);
        self.note_spend();
        let state = self.service_mut(service);
        state.remove_active(id);
        state.insert_idle(now, id);
    }

    /// Idles an active instance: bills its active period and schedules
    /// its reap, leaving the service's vectors and the spend gauge to the
    /// caller. Returns its service.
    fn idle_out(&mut self, id: InstanceId, now: SimTime) -> ServiceId {
        let instance = self.instances.get_mut(id).expect("instance exists");
        let service = instance.service();
        let period = instance.go_idle(now);
        let size = instance.size();
        self.billing.record(size, period);
        // Gradual termination: preserved through the grace period, then
        // reaped at a uniformly random point across the spread, capped by
        // the platform's idle contract (15 minutes on Cloud Run; the
        // Azure-like policy stretches all three via its keep-alive —
        // same single RNG draw either way).
        let ka = self.policy.keep_alive(&self.region.placement);
        let extra = SimDuration::from_secs_f64(
            self.rng
                .range_f64(0.0, ka.idle_termination_spread.as_secs_f64()),
        );
        let mut due = now + ka.idle_grace + extra;
        if due > now + ka.idle_hard_cap {
            due = now + ka.idle_hard_cap;
        }
        self.events.schedule(
            due,
            WorldEvent::Reap {
                instance: id,
                idle_since: now,
            },
        );
        service
    }

    fn service_mut(&mut self, service: ServiceId) -> &mut ServiceState {
        self.services
            .get_mut(service.as_usize())
            .expect("service exists")
    }

    /// Advances simulated time by `d`, processing due events in order.
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Advances simulated time to `target`, processing due events in order.
    ///
    /// # Event-tie ordering
    ///
    /// Events due at the same `SimTime` fire in **FIFO order** — the order
    /// they were scheduled in, enforced by the event queue's monotone
    /// sequence numbers (see [`EventQueue`]). This is a determinism
    /// contract, not an implementation accident: a same-tick reap and
    /// restart of one instance must resolve the same way on every run and
    /// on every engine, or downstream RNG draws (and therefore entire
    /// trajectories) diverge. [`EventQueue::schedule_batch`] assigns
    /// sequence numbers in batch order, so the batched launch path cannot
    /// reorder ties either. Covered by `same_tick_event_ties_fire_fifo`.
    pub fn run_until(&mut self, target: SimTime) {
        let start = self.now;
        let mut processed = 0u64;
        while let Some(due) = self.events.next_due() {
            if due > target {
                break;
            }
            let event = self.events.pop_due(due).expect("event is due");
            // Time never moves backwards: an already-due event fires now.
            self.now = self.now.max(event.due());
            self.handle_event(*event.payload());
            processed += 1;
        }
        self.now = self.now.max(target);
        obs::count("world.events_processed", processed);
        let advanced = self.now.duration_since(start);
        if advanced.as_nanos() > 0 {
            obs::count("world.sim_advanced_ns", advanced.as_nanos() as u64);
        }
    }

    fn handle_event(&mut self, event: WorldEvent) {
        let now = self.now;
        match event {
            WorldEvent::Reap {
                instance,
                idle_since,
            } => {
                let Some(i) = self.instances.get(instance) else {
                    return;
                };
                if i.idle_since() == Some(idle_since) {
                    obs::count("world.instances_reaped", 1);
                    self.terminate_instance(instance);
                }
            }
            WorldEvent::Restart(instance) => {
                // Platform churn kills the instance; the client's dropped
                // connection is its signal to reconnect (a fresh `launch`),
                // which may land on a different host — exactly how the
                // paper's week-long tracking loses fingerprint histories.
                let Some(i) = self.instances.get(instance) else {
                    return;
                };
                if i.is_alive() {
                    obs::count("world.instance_restarts", 1);
                    self.terminate_instance(instance);
                }
            }
            WorldEvent::RebootSweep => {
                let Some(mean) = self.host_churn_mean else {
                    return;
                };
                // Uniform mark of the merged per-host Poisson processes.
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "below(len) is a host index, and host ids are u32 by design"
                )]
                let host = HostId::from_raw(self.rng.below(self.dc.len() as u64) as u32);
                obs::count("world.host_reboots", 1);
                self.dc.reboot_host(host, now);
                let displaced = self.occupancy.displace(host);
                obs::count("world.instances_displaced", displaced as u64);
                if displaced > 0 {
                    let residents = self.live_on(host);
                    debug_assert_eq!(residents.len(), displaced, "residency out of sync");
                    for id in residents {
                        let instance = self.instances.get_mut(id).expect("resident exists");
                        let service = instance.service();
                        let idle_since = instance.idle_since();
                        let closed = instance.terminate(now);
                        if let Some(period) = closed {
                            self.billing.record(instance.size(), period);
                        }
                        self.unindex(service, id, idle_since);
                    }
                }
                self.capacity
                    .on_host_reboot(host, displaced, &self.occupancy);
                self.note_spend();
                // Aggregate rate is hosts/mean ⇒ next sweep after
                // Exp(mean / hosts).
                let delay = Exponential::from_mean(mean.as_secs_f64() / self.dc.len() as f64)
                    .sample(&mut self.rng);
                self.events.schedule(
                    now + SimDuration::from_secs_f64(delay),
                    WorldEvent::RebootSweep,
                );
            }
        }
    }

    fn terminate_instance(&mut self, id: InstanceId) {
        let (service, idle_since) = self.retire(id);
        self.unindex(service, id, idle_since);
        if idle_since.is_none() {
            self.note_spend();
        }
    }

    /// The live instances on `host`, ascending by id: a scan of every
    /// service's vectors, O(live instances). Only a host reboot asks,
    /// which is why residency keeps counts rather than lists.
    fn live_on(&self, host: HostId) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self
            .services
            .iter()
            .flat_map(|state| {
                let idle = state.idle.iter().map(|&(_, id)| id);
                state.active.iter().copied().chain(idle)
            })
            .filter(|&id| {
                let instance = self.instances.get(id).expect("indexed instances exist");
                instance.host() == host
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Terminates a live instance, bills its open active period and frees
    /// its host slot, leaving the service indexes and the spend gauge to
    /// the caller. Returns its service and, if it was idle, since when;
    /// an instance that was not idle was active, and its period was billed.
    fn retire(&mut self, id: InstanceId) -> (ServiceId, Option<SimTime>) {
        let now = self.now;
        let instance = self.instances.get_mut(id).expect("instance exists");
        let host = instance.host();
        let service = instance.service();
        let idle_since = instance.idle_since();
        let closed = instance.terminate(now);
        let size = instance.size();
        if let Some(period) = closed {
            self.billing.record(size, period);
        }
        self.occupancy.evict(host);
        self.capacity.on_evict(host, &self.occupancy);
        (service, idle_since)
    }

    /// Drops a just-terminated instance from its service's vectors.
    /// `idle_since` is `Some` iff it was idle at termination time.
    fn unindex(&mut self, service: ServiceId, id: InstanceId, idle_since: Option<SimTime>) {
        let state = self.service_mut(service);
        match idle_since {
            Some(since) => state.remove_idle(since, id),
            None => state.remove_active(id),
        }
    }

    /// Mirrors the settled billing total into the `world.billed_usd`
    /// gauge. The value is pure simulation state, so the gauge stays
    /// deterministic.
    fn note_spend(&self) {
        obs::gauge("world.billed_usd", self.billing.total().as_usd());
    }

    /// Terminates one live instance immediately (the owner closing and
    /// discarding a single container). No-op if the instance is already
    /// gone.
    ///
    /// # Panics
    ///
    /// Panics if the id was never created.
    pub fn kill_instance(&mut self, id: InstanceId) {
        if self.instances[id].is_alive() {
            self.terminate_instance(id);
        }
    }

    /// Terminates every live instance of `service` immediately (the
    /// attacker deleting a revision, used between strategy launches).
    pub fn kill_all(&mut self, service: ServiceId) {
        // The service's vectors empty at once, and its instances are
        // terminated in ascending-id order so bulk termination (and its
        // billing records) is deterministic.
        let Some(state) = self.services.get_mut(service.as_usize()) else {
            return;
        };
        let mut doomed = std::mem::take(&mut state.active);
        doomed.extend(state.idle.drain(..).map(|(_, id)| id));
        doomed.sort_unstable();
        let mut billed = false;
        for id in doomed {
            let (_, idle_since) = self.retire(id);
            billed |= idle_since.is_none();
        }
        // One gauge write for the whole bulk kill, as the last per-instance
        // write would have left it.
        if billed {
            self.note_spend();
        }
    }

    /// Enables platform churn that restarts long-running instances
    /// (exponential with the configured mean). Affects instances created
    /// afterwards.
    pub fn enable_instance_churn(&mut self, enabled: bool) {
        self.instance_churn = enabled;
    }

    /// Enables host maintenance reboots with the given mean interval per
    /// host.
    ///
    /// Modeled as the superposition of the per-host exponential reboot
    /// processes: one recurring sweep event fires at aggregate rate
    /// `hosts / mean` and reboots a uniformly random host — statistically
    /// identical to scheduling an independent reboot timer per host (the
    /// law of each host's reboot times is unchanged), but O(1) pending
    /// events and no materialized host-id list, which matters at a
    /// million hosts. This is the "statistically equivalent" determinism
    /// tier of `docs/TESTING.md`: per-seed trajectories differ from the
    /// old per-host-timer model, the distribution does not.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn enable_host_churn(&mut self, mean: SimDuration) {
        assert!(mean.as_nanos() > 0, "mean must be positive");
        let first = self.host_churn_mean.is_none();
        self.host_churn_mean = Some(mean);
        if first {
            let now = self.now;
            let delay = Exponential::from_mean(mean.as_secs_f64() / self.dc.len() as f64)
                .sample(&mut self.rng);
            self.events.schedule(
                now + SimDuration::from_secs_f64(delay),
                WorldEvent::RebootSweep,
            );
        }
    }

    // ------------------------------------------------------------------
    // Guest execution (attacker code inside instances)
    // ------------------------------------------------------------------

    /// Runs `body` against the sandbox of a live instance, passing the
    /// current simulation time.
    ///
    /// The first call on an instance builds its sandbox, from the clock
    /// seed forked for it at creation, its host's record and CPU model,
    /// the region's TSC mitigation and its creation time. The host cannot
    /// have changed since the instance was created: a host reboot
    /// terminates every instance on it.
    ///
    /// # Errors
    ///
    /// Returns a [`GuestError`] if the instance is unknown or terminated.
    pub fn with_guest<R>(
        &mut self,
        id: InstanceId,
        body: impl FnOnce(&mut Sandbox, SimTime) -> R,
    ) -> Result<R, GuestError> {
        let now = self.now;
        let instance = self
            .instances
            .get_mut(id)
            .ok_or(GuestError::UnknownInstance(id))?;
        if !instance.is_alive() {
            return Err(GuestError::Terminated(id));
        }
        let (dc, mitigation) = (&self.dc, self.region.tsc_mitigation);
        let (host, generation, created_at) = (
            instance.host(),
            instance.generation(),
            instance.created_at(),
        );
        let sandbox = instance.sandbox_or_build(|clock_stream| {
            Sandbox::from_clock_stream(
                generation,
                dc.host(host),
                dc.model_of(host),
                mitigation,
                created_at,
                clock_stream,
            )
        });
        Ok(body(sandbox, now))
    }

    /// Runs the RNG covert-channel test: all `participants` pressure their
    /// hosts' RNG units simultaneously for `rounds` rounds; returns each
    /// participant's per-round contention observations.
    ///
    /// Advances the clock by the test duration.
    ///
    /// # Errors
    ///
    /// Returns a [`GuestError`] if any participant is unknown or dead.
    // tidy:allow(panic-reachability) -- participants are validated against `self.instances` in the loop above the indexing, and `per_host` was keyed from those same instances.
    pub fn rng_covert_observations(
        &mut self,
        participants: &[InstanceId],
        rounds: usize,
    ) -> Result<Vec<Vec<u32>>, GuestError> {
        let mut ctest_span = obs::span("world.ctest");
        ctest_span.u64_field("participants", participants.len() as u64);
        ctest_span.u64_field("rounds", rounds as u64);
        obs::count("world.ctests", 1);
        obs::observe(
            "world.ctest_sim_ns",
            (CTEST_ROUND_DURATION * rounds as i64).as_nanos() as u64,
        );
        let mut per_host: BTreeMap<HostId, usize> = BTreeMap::new();
        for &id in participants {
            let instance = self
                .instances
                .get(id)
                .ok_or(GuestError::UnknownInstance(id))?;
            if !instance.is_alive() {
                return Err(GuestError::Terminated(id));
            }
            *per_host.entry(instance.host()).or_default() += 1;
        }
        let observations = participants
            .iter()
            .map(|&id| {
                let host = self.instances[id].host();
                let others = per_host[&host] - 1;
                self.dc
                    .host(host)
                    .rng_unit()
                    .observe_rounds(others, rounds, &mut self.rng)
            })
            .collect();
        self.advance(CTEST_ROUND_DURATION * rounds as i64);
        Ok(observations)
    }

    /// Runs the `/lock`–`/check` memory-bus verification channel: all
    /// `participants` pin bus locks for `rounds` rounds while timing
    /// their own locked operations; returns each participant's per-round
    /// contention observations (same shape as
    /// [`rng_covert_observations`](World::rng_covert_observations), so
    /// the threshold decision is shared). The noise profile comes from
    /// the region's platform ([`PlatformKind::lockcheck_profile`]).
    ///
    /// Advances the clock by the test duration — orders of magnitude
    /// longer than the RNG channel's, which is the cost the calibration
    /// experiment quantifies.
    ///
    /// # Errors
    ///
    /// Returns a [`GuestError`] if any participant is unknown or dead.
    ///
    /// [`PlatformKind::lockcheck_profile`]: crate::platform::PlatformKind::lockcheck_profile
    // tidy:allow(panic-reachability) -- participants are validated against `self.instances` in the loop above the indexing, and `per_host` was keyed from those same instances.
    pub fn membus_lock_observations(
        &mut self,
        participants: &[InstanceId],
        rounds: usize,
    ) -> Result<Vec<Vec<u32>>, GuestError> {
        let mut span = obs::span("world.lockcheck");
        span.u64_field("participants", participants.len() as u64);
        span.u64_field("rounds", rounds as u64);
        obs::count("world.lockcheck_tests", 1);
        let profile = self.region.platform.lockcheck_profile();
        obs::observe(
            "world.lockcheck_sim_ns",
            (profile.round_duration() * rounds as i64).as_nanos() as u64,
        );
        let mut per_host: BTreeMap<HostId, usize> = BTreeMap::new();
        for &id in participants {
            let instance = self
                .instances
                .get(id)
                .ok_or(GuestError::UnknownInstance(id))?;
            if !instance.is_alive() {
                return Err(GuestError::Terminated(id));
            }
            *per_host.entry(instance.host()).or_default() += 1;
        }
        let observations = participants
            .iter()
            .map(|&id| {
                let host = self.instances[id].host();
                let others = per_host[&host] - 1;
                profile.observe_lock_rounds(others, rounds, &mut self.rng)
            })
            .collect();
        self.advance(profile.round_duration() * rounds as i64);
        Ok(observations)
    }

    /// Runs one memory-bus pairwise test between two live instances
    /// (the Varadarajan-style baseline). Advances the clock by the bus
    /// test latency and returns the observed verdict.
    ///
    /// # Errors
    ///
    /// Returns a [`GuestError`] if either instance is unknown or dead.
    // tidy:allow(panic-reachability) -- both ids are validated against `self.instances` in the loop above the indexing.
    pub fn membus_pairwise_test(
        &mut self,
        a: InstanceId,
        b: InstanceId,
    ) -> Result<bool, GuestError> {
        for id in [a, b] {
            let instance = self
                .instances
                .get(id)
                .ok_or(GuestError::UnknownInstance(id))?;
            if !instance.is_alive() {
                return Err(GuestError::Terminated(id));
            }
        }
        let host_a = self.instances[a].host();
        let truth = host_a == self.instances[b].host();
        let bus = self.dc.host(host_a).memory_bus();
        let verdict = bus.pairwise_test(truth, &mut self.rng);
        obs::count("world.membus_tests", 1);
        obs::observe("world.membus_sim_ns", bus.test_latency().as_nanos() as u64);
        self.advance(bus.test_latency());
        Ok(verdict)
    }

    // ------------------------------------------------------------------
    // Observability (simulation-only ground truth & accounting)
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The region configuration.
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// The data center (read-only).
    pub fn data_center(&self) -> &DataCenter {
        &self.dc
    }

    /// **Ground truth**: how many live instances run on each host.
    pub fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    /// An instance record, live or terminated.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn instance(&self, id: InstanceId) -> &ContainerInstance {
        &self.instances[id]
    }

    /// **Ground truth**: the host an instance runs (or ran) on. Real
    /// attackers cannot call this; it exists to validate fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn host_of(&self, id: InstanceId) -> HostId {
        self.instances[id].host()
    }

    /// **Ground truth**: whether two instances share a host.
    pub fn co_located(&self, a: InstanceId, b: InstanceId) -> bool {
        self.host_of(a) == self.host_of(b)
    }

    /// Live instances of a service.
    pub fn alive_instances_of(&self, service: ServiceId) -> Vec<InstanceId> {
        let Some(state) = self.services.get(service.as_usize()) else {
            return Vec::new();
        };
        let mut ids = state.active.clone();
        ids.extend(state.idle.iter().map(|&(_, id)| id));
        ids.sort_unstable();
        ids
    }

    /// Number of live (active or idle) instances of a service.
    pub fn alive_count(&self, service: ServiceId) -> usize {
        self.services
            .get(service.as_usize())
            .map_or(0, |state| state.active.len() + state.idle.len())
    }

    /// Total free instance slots across the region (from the incremental
    /// capacity index).
    pub fn free_slots(&self) -> u64 {
        self.capacity.total_free(&self.occupancy)
    }

    /// Total billed cost so far, including active periods that are still
    /// open (accrued but not yet settled by a disconnect or termination).
    pub fn billed(&self) -> Cost {
        let now = self.now;
        let rates = self.region.rates;
        let open: Cost = self
            .instances
            .iter()
            .filter_map(|i| {
                i.open_active_period(now)
                    .map(|period| rates.instance_cost(i.size(), period))
            })
            .sum();
        self.billing.total() + open
    }

    /// The bill of one account so far (accrued active time of all its
    /// instances, open periods included) — what that customer would pay.
    pub fn billed_for(&self, account: AccountId) -> Cost {
        let now = self.now;
        let rates = self.region.rates;
        self.instances
            .iter()
            .filter(|i| i.owner() == account)
            .map(|i| rates.instance_cost(i.size(), i.billed_active_time(now)))
            .sum()
    }

    /// The base hosts the policy assigned to an account (simulation-side
    /// introspection for placement analyses).
    pub fn base_hosts_of(&mut self, account: AccountId) -> Vec<HostId> {
        self.policy.base_hosts(account).to_vec()
    }

    // ------------------------------------------------------------------
    // Snapshots & branches (copy-on-write forking)
    // ------------------------------------------------------------------

    /// Takes a frozen copy-on-write snapshot of the current state.
    ///
    /// Snapshots are cheap in proportion to the live state: the data
    /// center's genesis and every host generated into it are shared, the
    /// pool-sized index lanes share an `Arc` until one side writes.
    /// The snapshot can be [`branch`](WorldSnapshot::branch)ed any
    /// number of times; every branch replays from this exact state.
    pub fn snapshot(&self) -> WorldSnapshot<E> {
        obs::count("world.snapshots", 1);
        WorldSnapshot {
            frozen: self.clone(),
        }
    }

    /// Forks a fresh mutable world from the current state — equivalent
    /// to `self.snapshot().branch()` without keeping the snapshot.
    ///
    /// The branch and `self` replay independently but identically from
    /// the fork point: both resume from the same RNG position, event
    /// queue, and indices, and mutating either never perturbs the
    /// other's subsequent trajectory (the oracle's branch-isolation
    /// property). Drop order is irrelevant — a branch outlives its
    /// parent without borrowing from it.
    pub fn branch(&self) -> Self {
        obs::count("world.branches", 1);
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::RegionConfig;
    use eaao_cloudsim::cpu::CpuidInfo;
    use eaao_cloudsim::instance::InstanceState;
    use eaao_cloudsim::mitigation::TscMitigation;
    use eaao_cloudsim::rng_unit::is_positive;
    use eaao_cloudsim::sandbox::{Gen1Sandbox, Gen2Sandbox, GuestEnv};
    use eaao_cloudsim::service::{ContainerSize, Generation};
    use eaao_tsc::refine::RefinedTscFrequency;

    fn small_world(seed: u64) -> (World, AccountId, ServiceId) {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(60), seed);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        (world, account, service)
    }

    #[test]
    fn launch_creates_connected_instances() {
        let (mut world, _, service) = small_world(1);
        let launch = world.launch(service, 100).expect("within caps");
        assert_eq!(launch.instances().len(), 100);
        assert_eq!(launch.created(), 100);
        assert_eq!(launch.reused(), 0);
        assert_eq!(world.alive_count(service), 100);
        for &id in launch.instances() {
            assert_eq!(world.instance(id).state(), InstanceState::Active);
        }
        // Residency is recorded per host.
        assert_eq!(world.occupancy().len(), 100);
    }

    #[test]
    fn instances_share_hosts_near_uniformly() {
        let (mut world, _, service) = small_world(2);
        let launch = world.launch(service, 100).expect("within caps");
        let mut per_host: HashMap<HostId, usize> = HashMap::new();
        for &id in launch.instances() {
            *per_host.entry(world.host_of(id)).or_default() += 1;
        }
        assert!(per_host.len() > 1, "multiple hosts used");
        let max = per_host.values().max().unwrap();
        let min = per_host.values().min().unwrap();
        assert!(max - min <= 2, "uniform spread violated: {min}..{max}");
    }

    #[test]
    fn quota_and_cap_enforced() {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(60), 3);
        let account = world.create_account();
        let capped = world.deploy_service(account, ServiceSpec::default()); // cap 100
        assert_eq!(
            world.launch(capped, 101).unwrap_err(),
            LaunchError::ExceedsServiceCap {
                requested: 101,
                cap: 100
            }
        );
        let newbie = world.create_new_account();
        let svc = world.deploy_service(newbie, ServiceSpec::default().with_max_instances(500));
        assert_eq!(
            world.launch(svc, 11).unwrap_err(),
            LaunchError::ExceedsAccountQuota {
                requested: 11,
                quota: 10
            }
        );
        assert!(world.launch(svc, 10).is_ok());
    }

    #[test]
    fn unknown_service_rejected() {
        let (mut world, _, _) = small_world(4);
        assert_eq!(
            world.launch(ServiceId::from_raw(99), 1).unwrap_err(),
            LaunchError::UnknownService(ServiceId::from_raw(99))
        );
    }

    #[test]
    fn idle_instances_terminate_gradually() {
        let (mut world, _, service) = small_world(5);
        world.launch(service, 100).expect("within caps");
        world.advance(SimDuration::from_secs(30));
        world.disconnect_all(service);
        // Grace period: all preserved for the first ~100 seconds.
        world.advance(SimDuration::from_secs(100));
        assert_eq!(world.alive_count(service), 100);
        // Midway: some terminated.
        world.advance(SimDuration::from_mins(5));
        let mid = world.alive_count(service);
        assert!(mid < 100 && mid > 0, "partial termination: {mid}");
        // After the hard cap: all gone.
        world.advance(SimDuration::from_mins(10));
        assert_eq!(world.alive_count(service), 0);
        assert_eq!(world.occupancy().len(), 0);
    }

    #[test]
    fn warm_instances_are_reused() {
        let (mut world, _, service) = small_world(6);
        let first = world.launch(service, 50).expect("within caps");
        world.advance(SimDuration::from_secs(10));
        world.disconnect_all(service);
        // Within the grace period every instance is warm.
        world.advance(SimDuration::from_secs(60));
        let second = world.launch(service, 50).expect("within caps");
        assert_eq!(second.reused(), 50);
        assert_eq!(second.created(), 0);
        let mut a: Vec<InstanceId> = first.instances().to_vec();
        let mut b: Vec<InstanceId> = second.instances().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same instances reused");
    }

    #[test]
    fn warm_reuse_takes_the_newest_instant_first_in_ascending_id_order() {
        let (mut world, _, service) = small_world(26);
        let ids = |range: std::ops::Range<u32>| -> Vec<InstanceId> {
            range.map(InstanceId::from_raw).collect()
        };
        assert_eq!(world.set_load(service, 20).expect("fits"), ids(0..20));
        world.advance(SimDuration::from_secs(10));
        // Scale-in idles 19, 18, ..., 10 at one instant.
        assert_eq!(world.set_load(service, 10).expect("fits"), ids(0..10));
        world.advance(SimDuration::from_secs(10));
        world.disconnect_all(service);
        world.advance(SimDuration::from_secs(10));
        let launch = world.launch(service, 15).expect("within caps");
        assert_eq!(launch.reused(), 15);
        assert_eq!(launch.instances(), [ids(0..10), ids(10..15)].concat());
        // The partly reused instant kept its highest ids.
        let rest = world.launch(service, 5).expect("within caps");
        assert_eq!((rest.reused(), rest.instances()), (5, &ids(15..20)[..]));
    }

    #[test]
    fn merge_ascending_interleaves_and_appends() {
        let mut into = vec![1, 4, 6, 9];
        merge_ascending(&mut into, &[0, 5, 7, 10, 11]);
        assert_eq!(into, [0, 1, 4, 5, 6, 7, 9, 10, 11]);
        merge_ascending(&mut into, &[]);
        merge_ascending(&mut into, &[12, 13]);
        assert_eq!(into, [0, 1, 4, 5, 6, 7, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn billing_accrues_active_time_only() {
        let (mut world, _, service) = small_world(7);
        world.launch(service, 10).expect("within caps");
        world.advance(SimDuration::from_secs(30));
        world.disconnect_all(service);
        // 10 Small instances × 30 s × $2.525e-5/s.
        let expected = 10.0 * 30.0 * 2.525e-5;
        assert!((world.billed().as_usd() - expected).abs() < 1e-9);
        // Idle time costs nothing.
        world.advance(SimDuration::from_mins(20));
        assert!((world.billed().as_usd() - expected).abs() < 1e-9);
    }

    #[test]
    fn covert_channel_detects_co_location() {
        let (mut world, _, service) = small_world(8);
        let launch = world.launch(service, 40).expect("within caps");
        // Find two co-located and one solo instance via ground truth.
        let ids = launch.instances();
        let mut by_host: HashMap<HostId, Vec<InstanceId>> = HashMap::new();
        for &id in ids {
            by_host.entry(world.host_of(id)).or_default().push(id);
        }
        let pair = by_host
            .values()
            .find(|v| v.len() >= 2)
            .expect("co-located pair");
        let (a, b) = (pair[0], pair[1]);
        let obs = world.rng_covert_observations(&[a, b], 60).expect("live");
        assert!(is_positive(&obs[0], 1, 30));
        assert!(is_positive(&obs[1], 1, 30));
        // A pair on different hosts sees nothing.
        let other = ids
            .iter()
            .copied()
            .find(|&i| world.host_of(i) != world.host_of(a))
            .expect("other host");
        let obs = world
            .rng_covert_observations(&[a, other], 60)
            .expect("live");
        assert!(!is_positive(&obs[0], 1, 30));
        assert!(!is_positive(&obs[1], 1, 30));
    }

    #[test]
    fn covert_test_advances_clock_about_100ms() {
        let (mut world, _, service) = small_world(9);
        let launch = world.launch(service, 2).expect("within caps");
        let before = world.now();
        world
            .rng_covert_observations(launch.instances(), 60)
            .expect("live");
        let elapsed = world.now() - before;
        assert!(
            (elapsed.as_secs_f64() - 0.1).abs() < 0.01,
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn membus_pairwise_matches_ground_truth_mostly() {
        let (mut world, _, service) = small_world(10);
        let launch = world.launch(service, 30).expect("within caps");
        let ids = launch.instances();
        let before = world.now();
        let truth = world.co_located(ids[0], ids[1]);
        let verdict = world.membus_pairwise_test(ids[0], ids[1]).expect("live");
        if truth {
            assert!(verdict);
        }
        assert_eq!((world.now() - before), SimDuration::from_secs(3));
    }

    #[test]
    fn guest_probe_runs_inside_sandbox() {
        let (mut world, _, service) = small_world(11);
        let launch = world.launch(service, 1).expect("within caps");
        let id = launch.instances()[0];
        let model = world
            .with_guest(id, |sandbox, _| {
                use eaao_cloudsim::sandbox::GuestEnv;
                sandbox.cpuid_model().to_owned()
            })
            .expect("alive");
        assert!(model.contains("GHz"), "gen1 cpuid leaks the model: {model}");
        // Terminated instances refuse guest code.
        world.kill_all(service);
        assert_eq!(
            world.with_guest(id, |_, _| ()),
            Err(GuestError::Terminated(id))
        );
        assert_eq!(
            world.with_guest(InstanceId::from_raw(9_999), |_, _| ()),
            Err(GuestError::UnknownInstance(InstanceId::from_raw(9_999)))
        );
    }

    #[test]
    fn kill_all_clears_service() {
        let (mut world, _, service) = small_world(12);
        world.launch(service, 20).expect("within caps");
        world.kill_all(service);
        assert_eq!(world.alive_count(service), 0);
        assert_eq!(world.occupancy().len(), 0);
    }

    #[test]
    fn instance_churn_kills_connected_instances() {
        let (mut world, _, service) = small_world(13);
        world.enable_instance_churn(true);
        world.launch(service, 20).expect("within caps");
        // Run well past the 5-day mean restart interval: churn terminates
        // most of the fleet (clients would reconnect via a fresh launch).
        world.advance(SimDuration::from_days(20));
        assert!(
            world.alive_count(service) < 10,
            "{} still alive",
            world.alive_count(service)
        );
        // Reconnecting gets fresh instances.
        let relaunch = world.launch(service, 5).expect("within caps");
        assert_eq!(relaunch.instances().len(), 5);
    }

    #[test]
    fn host_churn_reboots_hosts() {
        let (mut world, _, service) = small_world(14);
        world.launch(service, 30).expect("within caps");
        world.enable_host_churn(SimDuration::from_days(10));
        world.advance(SimDuration::from_days(30));
        // Most hosts rebooted at least once; their boot times moved past 0.
        let rebooted = world
            .data_center()
            .hosts()
            .filter(|h| h.boot_time() > SimTime::ZERO)
            .count();
        assert!(rebooted > 30, "only {rebooted} hosts rebooted");
        // Displaced instances were terminated, not leaked: residency counts
        // exactly the live instances the registry places on each host.
        assert_residency_mirrors_registry(&world, &[service]);
    }

    /// Every host's residency count equals the number of live instances
    /// the registry places on it, and the total equals the live total.
    fn assert_residency_mirrors_registry(world: &World, services: &[ServiceId]) {
        let mut per_host: BTreeMap<HostId, usize> = BTreeMap::new();
        for &service in services {
            for id in world.alive_instances_of(service) {
                *per_host.entry(world.host_of(id)).or_default() += 1;
            }
        }
        for (&host, &live) in &per_host {
            assert_eq!(world.occupancy().count(host), live, "host {host}");
        }
        assert_eq!(world.occupancy().len(), per_host.values().sum::<usize>());
    }

    /// Arms a maintenance sweep, due now, that reboots `mark`. The sweep
    /// picks its host with the next `below(pool)` draw, so this burns
    /// draws until that draw is `mark`.
    fn arm_reboot_sweep(world: &mut World, mark: HostId) {
        let pool = world.dc.len() as u64;
        while world.rng.clone().below(pool) != u64::from(mark.as_raw()) {
            world.rng.unit_f64();
        }
        world.host_churn_mean = Some(SimDuration::from_days(365));
        world.events.schedule(world.now(), WorldEvent::RebootSweep);
    }

    /// Runs the armed sweep; returns the `world.instances_displaced` count.
    fn fire_reboot_sweep(world: &mut World) -> Option<u64> {
        let collector = eaao_obs::Collector::new();
        let now = world.now();
        eaao_obs::with_instrument(collector.clone(), || world.run_until(now));
        let counters = collector.snapshot().counters;
        counters.get("world.instances_displaced").copied()
    }

    /// Two services on a two-host pool, each with active and idle
    /// instances on one host (the idle ones inside their grace period),
    /// and every active period a different length; the other host is
    /// empty. Returns the services, the occupied host and its instances,
    /// ascending.
    fn occupied_host_world() -> (World, [ServiceId; 2], HostId, Vec<InstanceId>) {
        let mut region = RegionConfig::us_west1().with_hosts(2);
        region.host_config.capacity = 40;
        let mut world = World::new(region, 25);
        let account = world.create_account();
        let spec = ServiceSpec::default().with_max_instances(100);
        let services = [
            world.deploy_service(account, spec),
            world.deploy_service(account, spec),
        ];
        let mut launched: Vec<InstanceId> = Vec::new();
        for step in 0..40u64 {
            let service = services[(step % 2) as usize];
            let id = world.launch(service, 1).expect("fits").instances()[0];
            if launched
                .first()
                .is_none_or(|&first| world.co_located(first, id))
            {
                launched.push(id);
            } else {
                world.kill_instance(id);
            }
            // Irregular spacing, so the active periods' float sums depend
            // on their order.
            world.advance(SimDuration::from_nanos(
                1_337_000_000 + 71_234_567 * step as i64 + 12_345 * (step * step) as i64,
            ));
            if launched.len() == 12 {
                break;
            }
        }
        assert_eq!(launched.len(), 12, "one host drew a dozen instances");
        let host = world.host_of(launched[0]);
        // Two of each service's instances go idle: scale-in idles the
        // newest.
        for service in services {
            let live = world.alive_count(service);
            world.set_load(service, live - 2).expect("fits");
        }
        world.advance(SimDuration::from_secs(5));
        (world, services, host, launched)
    }

    #[test]
    fn a_reboot_terminates_exactly_the_hosts_live_instances_in_id_order() {
        let (mut world, services, host, launched) = occupied_host_world();
        assert_eq!(world.occupancy().count(host), 12);
        let idle = |world: &World, service| {
            launched
                .iter()
                .filter(|&&id| {
                    let i = world.instance(id);
                    i.service() == service && i.state() == InstanceState::Idle
                })
                .count()
        };
        assert!(
            services.iter().all(|&s| idle(&world, s) > 0),
            "idle on both"
        );
        let now = world.now();
        let free_before = world.free_slots();
        // The bill the reboot must leave: the open active periods recorded
        // in ascending id order. Float sums depend on their order, and
        // this scenario's periods tell the two id orders apart.
        let replay = |ids: &mut dyn Iterator<Item = &InstanceId>| {
            let mut meter = world.billing;
            for &id in ids {
                let i = world.instance(id);
                if let Some(period) = i.open_active_period(now) {
                    meter.record(i.size(), period);
                }
            }
            meter
        };
        let expected = replay(&mut launched.iter());
        let descending = replay(&mut launched.iter().rev());
        assert_ne!(
            expected.billed_instance_seconds().to_bits(),
            descending.billed_instance_seconds().to_bits(),
            "the scenario cannot tell the termination orders apart"
        );

        arm_reboot_sweep(&mut world, host);
        assert_eq!(fire_reboot_sweep(&mut world), Some(12));

        assert_eq!(world.data_center().host(host).boot_time(), now);
        for &id in &launched {
            assert_eq!(world.instance(id).sigterm_at(), Some(now), "{id}");
        }
        for service in services {
            assert_eq!(world.alive_count(service), 0);
        }
        assert_eq!(world.occupancy().count(host), 0);
        assert!(world.occupancy().is_empty());
        assert_eq!(world.free_slots(), free_before + 12);
        assert_eq!(
            world.billing.total().as_usd().to_bits(),
            expected.total().as_usd().to_bits()
        );
        assert_eq!(
            world.billing.billed_instance_seconds().to_bits(),
            expected.billed_instance_seconds().to_bits()
        );
    }

    #[test]
    fn a_reboot_of_an_empty_host_terminates_nothing() {
        let (mut world, services, host, launched) = occupied_host_world();
        let empty = HostId::from_raw(1 - host.as_raw());
        let counts = |world: &World| [host, empty].map(|h| world.occupancy().count(h));
        assert_eq!(counts(&world), [12, 0]);
        let before = (
            world.free_slots(),
            world.billed(),
            services.map(|s| world.alive_instances_of(s)),
        );
        let now = world.now();

        arm_reboot_sweep(&mut world, empty);
        assert_eq!(fire_reboot_sweep(&mut world), Some(0));

        assert_eq!(world.data_center().host(empty).boot_time(), now);
        assert!(launched.iter().all(|&id| world.instance(id).is_alive()));
        assert_eq!(counts(&world), [12, 0]);
        assert_eq!(world.occupancy().len(), 12);
        assert_eq!(
            (
                world.free_slots(),
                world.billed(),
                services.map(|s| world.alive_instances_of(s)),
            ),
            before
        );
    }

    #[test]
    fn dynamic_region_moves_instances_across_launches() {
        let footprint_shift = |mut world: World| {
            let account = world.create_account();
            let svc =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let mut runs = Vec::new();
            for _ in 0..2 {
                let launch = world.launch(svc, 400).expect("fits");
                let hosts: std::collections::HashSet<HostId> = launch
                    .instances()
                    .iter()
                    .map(|&i| world.host_of(i))
                    .collect();
                runs.push(hosts);
                world.kill_all(svc);
                // Wait out the demand window so the next launch is cold.
                world.advance(SimDuration::from_mins(45));
            }
            runs[1].difference(&runs[0]).count()
        };
        let static_shift = footprint_shift(World::new(RegionConfig::us_east1(), 15));
        let dynamic_shift = footprint_shift(World::new(RegionConfig::us_central1(), 15));
        assert!(
            dynamic_shift > static_shift + 5,
            "dynamic shift {dynamic_shift} vs static {static_shift}"
        );
    }

    #[test]
    fn rollback_on_datacenter_full() {
        let mut region = RegionConfig::us_west1().with_hosts(4);
        region.host_config.capacity = 10;
        let mut world = World::new(region, 16);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        // Capacity is 40; ask for more.
        let err = world.launch(service, 60).expect_err("cannot fit");
        assert!(matches!(err, LaunchError::DataCenterFull { .. }));
        assert_eq!(world.alive_count(service), 0);
    }

    #[test]
    fn set_load_autoscales_out_and_in() {
        let (mut world, _, service) = small_world(18);
        // Surge to 60 concurrent requests.
        let serving = world.set_load(service, 60).expect("fits");
        assert_eq!(serving.len(), 60);
        assert_eq!(world.alive_count(service), 60);
        // Surge further: only the shortfall is created.
        let serving = world.set_load(service, 90).expect("fits");
        assert_eq!(serving.len(), 90);
        // Demand declines: surplus instances go idle, not dead.
        let serving = world.set_load(service, 30).expect("fits");
        assert_eq!(serving.len(), 30);
        assert_eq!(
            world.alive_count(service),
            90,
            "scaled-in instances idle first"
        );
        for &id in &serving {
            assert_eq!(world.instance(id).state(), InstanceState::Active);
        }
        // Idle surplus is reaped over time (Figure 6)...
        world.advance(SimDuration::from_mins(20));
        assert_eq!(world.alive_count(service), 30);
        // ...and equilibrium holds.
        let serving = world.set_load(service, 30).expect("fits");
        assert_eq!(serving.len(), 30);
    }

    #[test]
    fn set_load_respects_the_service_cap() {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(60), 19);
        let account = world.create_account();
        let service = world.deploy_service(account, ServiceSpec::default()); // cap 100
        let serving = world.set_load(service, 250).expect("truncated at cap");
        assert_eq!(serving.len(), 100);
        assert!(world.set_load(ServiceId::from_raw(99), 1).is_err());
    }

    #[test]
    fn scale_in_drains_newest_instances_first() {
        let (mut world, _, service) = small_world(20);
        let first = world.set_load(service, 10).expect("fits");
        world.advance(SimDuration::from_secs(10));
        world.set_load(service, 20).expect("fits");
        world.advance(SimDuration::from_secs(10));
        let after = world.set_load(service, 10).expect("fits");
        // The survivors are the original ten.
        assert_eq!(after, first);
    }

    #[test]
    fn same_tick_event_ties_fire_fifo() {
        // The determinism contract documented on `run_until`: events due at
        // the same instant fire in the order they were scheduled, whether
        // scheduled singly or in a batch. A reap and a churn restart of the
        // same instance landing on one tick must resolve reap-first here
        // (reap scheduled first), so the restart finds the instance gone
        // and the trajectory cannot fork on heap layout.
        let (mut world, _, service) = small_world(21);
        let launch = world.launch(service, 1).expect("within caps");
        let id = launch.instances()[0];
        let now = world.now();
        let tick = now + SimDuration::from_secs(42);
        let idle_since = now;
        world.events.schedule(
            tick,
            WorldEvent::Reap {
                instance: id,
                idle_since,
            },
        );
        world
            .events
            .schedule_batch([(tick, WorldEvent::Restart(id))]);
        // Make the instance eligible for the reap we forged: idle since
        // `now`. (Disconnect schedules its own reap far past `tick`.)
        world.disconnect_instance(id, idle_since);
        world.advance(SimDuration::from_secs(42));
        // Reap fired first and terminated the idle instance; the restart
        // then saw a dead instance and did nothing. Had the restart fired
        // first, the instance would count as a restart, not a reap — and
        // restarts of *idle* instances don't happen, so the observable
        // split below would differ.
        assert_eq!(world.alive_count(service), 0);
        assert!(!world.instance(id).is_alive());
        // Scheduling order is total across singles and batches: seq
        // numbers are handed out in call order (see EventQueue tests for
        // the pure-queue property).
    }

    #[test]
    fn a_branch_of_a_multi_chunk_world_leaves_the_parent_alone() {
        let (mut world, account, service) = small_world(22);
        // Three launch/kill rounds register 3,000 instances, more than one
        // registry chunk; the last round's 1,000 stay live.
        for round in 0..3 {
            world.launch(service, 1_000).expect("within caps");
            world.advance(SimDuration::from_secs(30));
            if round < 2 {
                world.kill_all(service);
            }
        }
        let records = |world: &World| -> Vec<String> {
            (0..3_000)
                .map(|raw| format!("{:?}", world.instance(InstanceId::from_raw(raw))))
                .collect()
        };
        let (instances, billed, alive) = (
            records(&world),
            world.billed_for(account),
            world.alive_instances_of(service),
        );
        assert_eq!(alive.len(), 1_000);

        let mut branch = world.branch();
        branch.kill_all(service);
        branch.advance(SimDuration::from_secs(60));
        let relaunch = branch.launch(service, 500).expect("within caps");
        assert_eq!(relaunch.instances()[0], InstanceId::from_raw(3_000));
        branch.advance(SimDuration::from_secs(30));
        assert_eq!(branch.alive_instances_of(service), relaunch.instances());
        assert_ne!(branch.billed_for(account), billed);

        assert_eq!(records(&world), instances);
        assert_eq!(world.billed_for(account), billed);
        assert_eq!(world.alive_instances_of(service), alive);
        // The parent still hands out the ids the branch took.
        let launch = world.launch(service, 1).expect("within caps");
        assert_eq!(launch.instances()[0], InstanceId::from_raw(3_000));
    }

    /// Everything guest code can read from a sandbox at `now`.
    type GuestReadings = (
        u64,
        SimTime,
        Option<RefinedTscFrequency>,
        CpuidInfo,
        SimDuration,
        SimDuration,
    );

    fn read_guest(sandbox: &mut Sandbox, now: SimTime) -> GuestReadings {
        (
            sandbox.rdtsc(now),
            sandbox.clock_gettime(now),
            sandbox.tsc_khz(),
            sandbox.cpuid_info(),
            sandbox.proc_uptime(now),
            sandbox.timer_read_cost(),
        )
    }

    /// A world with one `generation` service under `mitigation`, its clock
    /// moved past zero so that creation time shows in guest readings.
    fn guest_world(generation: Generation, mitigation: TscMitigation) -> (World, ServiceId) {
        let region = RegionConfig::us_west1()
            .with_hosts(60)
            .with_tsc_mitigation(mitigation);
        let mut world = World::new(region, 23);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_generation(generation));
        world.advance(SimDuration::from_secs(7));
        (world, service)
    }

    #[test]
    fn a_sandbox_built_on_first_use_reads_like_one_built_at_creation() {
        for generation in [Generation::Gen1, Generation::Gen2] {
            for mitigation in [
                TscMitigation::None,
                TscMitigation::TrapAndEmulate,
                TscMitigation::OffsetAndScale,
            ] {
                let (mut world, service) = guest_world(generation, mitigation);
                let mut rng = world.rng.clone();
                let launch = world.launch(service, 1).expect("within caps");
                let id = launch.instances()[0];
                let (host, created) = (world.host_of(id), world.now());
                let dc = world.data_center();
                let mut eager = match generation {
                    Generation::Gen1 => Sandbox::Gen1(Gen1Sandbox::with_mitigation(
                        dc.host(host),
                        dc.model_of(host),
                        mitigation,
                        created,
                        &mut rng,
                    )),
                    Generation::Gen2 => Sandbox::Gen2(Gen2Sandbox::with_mitigation(
                        dc.host(host),
                        mitigation,
                        created,
                        &mut rng,
                    )),
                };
                // Creation made the one draw the eager build makes.
                assert_eq!(world.rng.clone().below(1 << 30), rng.below(1 << 30));
                for secs in [3, 40, 600] {
                    world.advance(SimDuration::from_secs(secs));
                    let lazy = world.with_guest(id, read_guest).expect("alive");
                    assert_eq!(
                        lazy,
                        read_guest(&mut eager, world.now()),
                        "{generation:?} under {mitigation:?}, +{secs} s"
                    );
                }
            }
        }
    }

    #[test]
    fn probing_a_branch_first_leaves_the_parent_sandbox_alone() {
        for generation in [Generation::Gen1, Generation::Gen2] {
            let launched = || {
                let (mut world, service) = guest_world(generation, TscMitigation::None);
                let id = world.launch(service, 1).expect("within caps").instances()[0];
                world.advance(SimDuration::from_secs(30));
                (world, id)
            };
            let probe_twice = |world: &mut World, id| {
                let first = world.with_guest(id, read_guest).expect("alive");
                world.advance(SimDuration::from_secs(5));
                (first, world.with_guest(id, read_guest).expect("alive"))
            };
            let (mut alone, id) = launched();
            let expected = probe_twice(&mut alone, id);

            let (mut parent, id) = launched();
            let mut branch = parent.branch();
            assert_eq!(probe_twice(&mut branch, id), expected, "{generation:?}");
            assert_eq!(probe_twice(&mut parent, id), expected, "{generation:?}");
        }
    }

    #[test]
    fn a_host_reboot_terminates_instances_whose_sandbox_was_never_built() {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(1), 24);
        let account = world.create_account();
        let service = world.deploy_service(account, ServiceSpec::default());
        let before = world.launch(service, 1).expect("within caps").instances()[0];
        let host = world.host_of(before);
        let old_tsc = world.data_center().host(host).tsc();
        world.enable_host_churn(SimDuration::from_hours(1));
        while world.data_center().host(host).tsc() == old_tsc {
            world.advance(SimDuration::from_mins(10));
        }
        assert_eq!(
            world.with_guest(before, |_, _| ()),
            Err(GuestError::Terminated(before))
        );

        let after = world.launch(service, 1).expect("within caps").instances()[0];
        let now = world.now();
        let tsc = world
            .with_guest(after, |sandbox, now| sandbox.rdtsc(now))
            .expect("alive");
        assert_eq!(tsc, world.data_center().host(host).tsc().read(now));
        assert_ne!(tsc, old_tsc.read(now), "the rebooted host's counter");
    }

    #[test]
    fn launch_result_accessors() {
        let (mut world, _, service) = small_world(17);
        let launch = world.launch(service, 5).expect("within caps");
        assert_eq!(launch.instances().len(), 5);
        assert_eq!(launch.created() + launch.reused(), 5);
        // Sizes flow through.
        let id = launch.instances()[0];
        assert_eq!(world.instance(id).size(), ContainerSize::Small);
    }
}
