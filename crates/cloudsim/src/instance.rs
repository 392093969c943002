//! Container instances and their lifecycle.
//!
//! An instance is one running container of a service, pinned to a host. Its
//! lifecycle follows the Cloud Run container contract (Section 2.2 and
//! Experiment 1):
//!
//! ```text
//! Active ──(disconnect)──▶ Idle ──(reaper SIGTERM)──▶ Terminated
//!    ▲                       │
//!    └──────(new request)────┘
//! ```
//!
//! Active time is billed; idle time is not (which is why the paper's attack
//! is cheap). On termination the orchestrator delivers SIGTERM, which the
//! paper's probe catches to timestamp terminations (Figure 6).
//!
//! An instance's [`Sandbox`] is built the first time guest code runs in it,
//! from the private clock-stream seed forked for it at creation: most
//! instances an attack launches are killed without ever running a probe.

use eaao_simcore::rng::SimRng;
use eaao_simcore::time::{SimDuration, SimTime};

use crate::ids::{AccountId, HostId, InstanceId, ServiceId};
use crate::sandbox::Sandbox;
use crate::service::{ContainerSize, Generation};

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Serving a connection; CPU allocated and billed.
    Active,
    /// No connection; preserved for reuse, minimally billed.
    Idle,
    /// Destroyed by the orchestrator (or its host).
    Terminated,
}

/// A container instance.
///
/// A world registers one record per instance it ever creates, so the
/// record is kept small: 80 bytes, with the sandbox boxed and built on
/// first use.
#[derive(Debug, Clone)]
pub struct ContainerInstance {
    id: InstanceId,
    service: ServiceId,
    owner: AccountId,
    host: HostId,
    size: ContainerSize,
    generation: Generation,
    state: InstanceState,
    /// The seed of the sandbox's clock stream, forked at creation
    /// ([`Sandbox::fork_clock_seed`]).
    clock_seed: u64,
    /// The sandbox, once guest code has run.
    sandbox: Option<Box<Sandbox>>,
    created_at: SimTime,
    /// When the current state began: the start of the open activity
    /// period if active, when the instance went idle if idle, SIGTERM
    /// delivery if terminated.
    since: SimTime,
    /// Total billed active time of the closed activity periods.
    active_total: SimDuration,
}

impl ContainerInstance {
    /// Creates an instance in the `Active` state (it starts by serving the
    /// request that triggered its creation). `clock_seed` seeds the
    /// sandbox's clock stream; it is forked off the world's RNG by
    /// [`Sandbox::fork_clock_seed`].
    #[expect(
        clippy::too_many_arguments,
        reason = "one-shot constructor mirroring the record"
    )]
    pub fn new(
        id: InstanceId,
        service: ServiceId,
        owner: AccountId,
        host: HostId,
        size: ContainerSize,
        generation: Generation,
        clock_seed: u64,
        now: SimTime,
    ) -> Self {
        ContainerInstance {
            id,
            service,
            owner,
            host,
            size,
            generation,
            state: InstanceState::Active,
            clock_seed,
            sandbox: None,
            created_at: now,
            since: now,
            active_total: SimDuration::ZERO,
        }
    }

    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The service this instance belongs to.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The owning account.
    pub fn owner(&self) -> AccountId {
        self.owner
    }

    /// The host this instance runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The container size.
    pub fn size(&self) -> ContainerSize {
        self.size
    }

    /// The execution environment generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// Creation time.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the instance went idle, if it is idle.
    pub fn idle_since(&self) -> Option<SimTime> {
        (self.state == InstanceState::Idle).then_some(self.since)
    }

    /// When SIGTERM was delivered, if terminated.
    pub fn sigterm_at(&self) -> Option<SimTime> {
        (self.state == InstanceState::Terminated).then_some(self.since)
    }

    /// Whether the instance is alive (active or idle).
    pub fn is_alive(&self) -> bool {
        self.state != InstanceState::Terminated
    }

    /// Mutable access to the sandbox, for running attacker code inside.
    /// The first call builds it: `build` receives the instance's clock
    /// stream, seeded from its clock seed, and must build the sandbox for
    /// the host and creation time of this instance.
    ///
    /// # Panics
    ///
    /// Panics if the instance is terminated — there is no container to run
    /// code in.
    pub fn sandbox_or_build(&mut self, build: impl FnOnce(SimRng) -> Sandbox) -> &mut Sandbox {
        assert!(
            self.is_alive(),
            "instance {} is terminated; cannot execute code",
            self.id
        );
        let clock_seed = self.clock_seed;
        self.sandbox
            .get_or_insert_with(|| Box::new(build(SimRng::seed_from(clock_seed))))
    }

    /// Total billed active time so far (including the open period at `now`).
    pub fn billed_active_time(&self, now: SimTime) -> SimDuration {
        match self.open_active_period(now) {
            Some(open) => self.active_total + open,
            None => self.active_total,
        }
    }

    /// The currently open active period at `now`, if the instance is
    /// active — time already consumed but not yet settled into billing.
    pub fn open_active_period(&self, now: SimTime) -> Option<SimDuration> {
        (self.state == InstanceState::Active).then(|| now.duration_since(self.since))
    }

    /// Transitions to idle at `now` (connection closed). Returns the length
    /// of the active period that just closed, for billing.
    ///
    /// # Panics
    ///
    /// Panics unless the instance is active.
    pub fn go_idle(&mut self, now: SimTime) -> SimDuration {
        assert_eq!(
            self.state,
            InstanceState::Active,
            "instance {} cannot go idle from {:?}",
            self.id,
            self.state
        );
        let period = now.duration_since(self.since);
        self.active_total += period;
        self.state = InstanceState::Idle;
        self.since = now;
        period
    }

    /// Transitions back to active at `now` (warm reuse by a new request).
    ///
    /// # Panics
    ///
    /// Panics unless the instance is idle.
    pub fn reactivate(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            InstanceState::Idle,
            "instance {} cannot reactivate from {:?}",
            self.id,
            self.state
        );
        self.state = InstanceState::Active;
        self.since = now;
    }

    /// Terminates the instance at `now`, delivering SIGTERM. Returns the
    /// active period that was still open, if any, for billing.
    ///
    /// Safe to call from any live state (hosts going down terminate active
    /// instances too); terminating twice panics.
    ///
    /// # Panics
    ///
    /// Panics if already terminated.
    pub fn terminate(&mut self, now: SimTime) -> Option<SimDuration> {
        assert_ne!(
            self.state,
            InstanceState::Terminated,
            "instance {} terminated twice",
            self.id
        );
        let closed = self.open_active_period(now);
        if let Some(period) = closed {
            self.active_total += period;
        }
        self.state = InstanceState::Terminated;
        self.since = now;
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CacheGeometry, CpuModel, CpuModelId};
    use crate::host::{Host, HostGenConfig};
    use crate::mitigation::TscMitigation;
    use crate::sandbox::{Gen1Sandbox, GuestEnv};
    use eaao_tsc::freq::TscFrequency;

    fn test_host() -> Host {
        Host::generate(
            HostId::from_raw(0),
            CpuModelId::from_index(0),
            TscFrequency::from_ghz(2.0),
            1.0,
            SimTime::ZERO,
            &HostGenConfig::default(),
            &mut SimRng::seed_from(1),
        )
    }

    fn test_model() -> CpuModel {
        CpuModel::new(
            "Intel(R) Xeon(R) CPU @ 2.00GHz",
            TscFrequency::from_ghz(2.0),
            CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1_024,
                l3_kib: 39 * 1_024,
            },
        )
    }

    fn test_instance(now: SimTime) -> ContainerInstance {
        ContainerInstance::new(
            InstanceId::from_raw(1),
            ServiceId::from_raw(2),
            AccountId::from_raw(3),
            HostId::from_raw(0),
            ContainerSize::Small,
            Generation::Gen1,
            Sandbox::fork_clock_seed(Generation::Gen1, &mut SimRng::seed_from(2)),
            now,
        )
    }

    /// Builds the Gen 1 sandbox of [`test_instance`]'s host.
    fn build_on_test_host(now: SimTime) -> impl FnOnce(SimRng) -> Sandbox {
        move |clock_stream| {
            Sandbox::from_clock_stream(
                Generation::Gen1,
                &test_host(),
                &test_model(),
                TscMitigation::None,
                now,
                clock_stream,
            )
        }
    }

    #[test]
    fn starts_active_with_accessors() {
        let t0 = SimTime::from_secs(100);
        let i = test_instance(t0);
        assert_eq!(i.state(), InstanceState::Active);
        assert!(i.is_alive());
        assert_eq!(i.id(), InstanceId::from_raw(1));
        assert_eq!(i.service(), ServiceId::from_raw(2));
        assert_eq!(i.owner(), AccountId::from_raw(3));
        assert_eq!(i.host(), HostId::from_raw(0));
        assert_eq!(i.size(), ContainerSize::Small);
        assert_eq!(i.generation(), Generation::Gen1);
        assert_eq!(i.created_at(), t0);
        assert!(i.idle_since().is_none());
        assert!(i.sigterm_at().is_none());
    }

    #[test]
    fn billing_accrues_only_while_active() {
        let t0 = SimTime::from_secs(0);
        let mut i = test_instance(t0);
        // 30 s active.
        let closed = i.go_idle(SimTime::from_secs(30));
        assert_eq!(closed, SimDuration::from_secs(30));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(100)),
            SimDuration::from_secs(30)
        );
        // Reactivate for 10 more seconds.
        i.reactivate(SimTime::from_secs(100));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(110)),
            SimDuration::from_secs(40)
        );
        i.terminate(SimTime::from_secs(110));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(500)),
            SimDuration::from_secs(40)
        );
    }

    #[test]
    fn the_record_stays_within_80_bytes() {
        assert!(
            std::mem::size_of::<ContainerInstance>() <= 80,
            "{} bytes",
            std::mem::size_of::<ContainerInstance>()
        );
    }

    #[test]
    fn one_timestamp_follows_the_lifecycle() {
        let mut i = test_instance(SimTime::from_secs(10));
        let at = SimTime::from_secs;
        let secs = SimDuration::from_secs;
        // Active since creation.
        assert_eq!((i.idle_since(), i.sigterm_at()), (None, None));
        assert_eq!(i.open_active_period(at(25)), Some(secs(15)));
        assert_eq!(i.billed_active_time(at(25)), secs(15));
        // Idle: the closed period is billed, nothing stays open.
        assert_eq!(i.go_idle(at(30)), secs(20));
        assert_eq!((i.idle_since(), i.sigterm_at()), (Some(at(30)), None));
        assert_eq!(i.open_active_period(at(50)), None);
        assert_eq!(i.billed_active_time(at(50)), secs(20));
        // Active again: a fresh period opens at reuse.
        i.reactivate(at(60));
        assert_eq!((i.idle_since(), i.sigterm_at()), (None, None));
        assert_eq!(i.open_active_period(at(65)), Some(secs(5)));
        assert_eq!(i.billed_active_time(at(65)), secs(25));
        // Terminated: the open period closes and SIGTERM is stamped.
        assert_eq!(i.terminate(at(70)), Some(secs(10)));
        assert_eq!((i.idle_since(), i.sigterm_at()), (None, Some(at(70))));
        assert_eq!(i.open_active_period(at(90)), None);
        assert_eq!(i.billed_active_time(at(90)), secs(30));
        assert_eq!(i.created_at(), at(10));
    }

    #[test]
    fn idle_then_terminate_records_sigterm() {
        let mut i = test_instance(SimTime::ZERO);
        i.go_idle(SimTime::from_secs(5));
        assert_eq!(i.state(), InstanceState::Idle);
        assert_eq!(i.idle_since(), Some(SimTime::from_secs(5)));
        i.terminate(SimTime::from_secs(300));
        assert_eq!(i.state(), InstanceState::Terminated);
        assert_eq!(i.sigterm_at(), Some(SimTime::from_secs(300)));
        assert!(!i.is_alive());
    }

    #[test]
    fn terminate_while_active_is_allowed() {
        let mut i = test_instance(SimTime::ZERO);
        let closed = i.terminate(SimTime::from_secs(3));
        assert_eq!(closed, Some(SimDuration::from_secs(3)));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(9)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    #[should_panic(expected = "cannot go idle")]
    fn go_idle_from_idle_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.go_idle(SimTime::from_secs(1));
        i.go_idle(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot reactivate")]
    fn reactivate_from_active_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.reactivate(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.terminate(SimTime::from_secs(1));
        i.terminate(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot execute code")]
    fn sandbox_of_terminated_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.terminate(SimTime::from_secs(1));
        let _ = i.sandbox_or_build(build_on_test_host(SimTime::ZERO));
    }

    #[test]
    fn the_sandbox_is_built_once_from_the_clock_stream() {
        let t0 = SimTime::from_secs(5);
        let mut i = test_instance(t0);
        let mut eager =
            Gen1Sandbox::for_instance(&test_host(), &test_model(), t0, &mut SimRng::seed_from(2));
        let later = SimTime::from_secs(9);
        let first = i.sandbox_or_build(build_on_test_host(t0));
        assert!(matches!(first, Sandbox::Gen1(_)));
        assert_eq!(first.clock_gettime(later), eager.clock_gettime(later));
        // The second call reuses the built sandbox: its clock has moved on.
        let second = i.sandbox_or_build(|_| panic!("built twice"));
        assert_eq!(second.clock_gettime(later), eager.clock_gettime(later));
        assert_eq!(second.proc_uptime(later), SimDuration::from_secs(4));
    }
}
