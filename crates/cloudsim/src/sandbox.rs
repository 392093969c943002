//! Sandboxed execution environments (Section 2.3).
//!
//! What an attacker program can observe from inside a container depends on
//! the sandbox:
//!
//! * **Gen 1** ([`Gen1Sandbox`]) — gVisor intercepts system calls and
//!   virtualizes `/proc` (model name in `/proc/cpuinfo` is concealed,
//!   uptime and IP are the *sandbox*'s), but **unprivileged instructions hit
//!   the real hardware**: `cpuid` returns the true CPU model and `rdtsc`
//!   returns the raw host TSC. This is the gap the Gen 1 fingerprint
//!   exploits (Section 4.1).
//! * **Gen 2** ([`Gen2Sandbox`]) — a lightweight VM. The hypervisor traps
//!   `cpuid` (virtualized model string) and applies TSC offsetting, so
//!   `rdtsc` reveals only time since *VM* boot. But KVM exports the refined
//!   host TSC frequency to the guest kernel (`tsc_khz`), where a root guest
//!   user can read it (Section 4.5).

use eaao_simcore::rng::{label_key, SimRng};
use eaao_simcore::time::{SimDuration, SimTime};
use eaao_tsc::boot::TscSample;
use eaao_tsc::clocksource::SyscallClock;
use eaao_tsc::counter::InvariantTsc;
use eaao_tsc::offset::OffsetTsc;
use eaao_tsc::refine::RefinedTscFrequency;

use crate::cpu::{CpuModel, CpuidInfo};
use crate::host::Host;
use crate::mitigation::TscMitigation;
use crate::service::Generation;

/// The guest-visible model string in the Gen 2 environment, where `cpuid`
/// is trapped and the host model concealed.
pub const GEN2_VIRTUAL_MODEL: &str = "Intel(R) Xeon(R) Processor (virtualized)";

/// The fork keys of the two generations' clock streams: the labels
/// `gen1-clock` and `gen2-clock`, mixed at compile time.
const GEN1_CLOCK_KEY: u64 = label_key("gen1-clock");
const GEN2_CLOCK_KEY: u64 = label_key("gen2-clock");

/// What an attacker program can do from inside its container.
///
/// All reads take the true simulation time `now`; the environment decides
/// what the guest actually observes.
pub trait GuestEnv {
    /// The CPU model name via the unprivileged `cpuid` instruction.
    fn cpuid_model(&self) -> &str;

    /// The full `cpuid` surface: model, cache hierarchy (needed for cache
    /// side channels), invariant-TSC bit, and the absent leaves the paper
    /// discusses (TSC frequency, PSN).
    fn cpuid_info(&self) -> CpuidInfo;

    /// A raw `rdtsc` read.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `now` precedes the (host or VM) boot.
    fn rdtsc(&mut self, now: SimTime) -> u64;

    /// A wall-clock timestamp via a system call — noisy (see
    /// [`ClockNoiseProfile`](eaao_tsc::clocksource::ClockNoiseProfile)).
    fn clock_gettime(&mut self, now: SimTime) -> SimTime;

    /// The kernel's refined TSC frequency, if the environment exposes one.
    ///
    /// `None` in Gen 1: the sandboxed container can only talk to gVisor, not
    /// the host kernel. `Some` in Gen 2: the guest kernel received the
    /// refined *host* frequency from KVM.
    fn tsc_khz(&self) -> Option<RefinedTscFrequency>;

    /// Uptime reported by `/proc/uptime` — virtualized in both generations
    /// (sandbox-relative, never the host's).
    fn proc_uptime(&self, now: SimTime) -> SimDuration;

    /// Wall cost of one `rdtsc` under the platform's TSC mitigation
    /// (Section 6): native when unmitigated or hardware-scaled, a kernel
    /// round-trip when trapped and emulated.
    fn timer_read_cost(&self) -> SimDuration;

    /// Takes one paired (tsc, wall) sample, the primitive of Eq. 4.1.
    fn sample(&mut self, now: SimTime) -> TscSample {
        TscSample::new(self.rdtsc(now), self.clock_gettime(now))
    }
}

/// The gVisor-based Gen 1 environment.
#[derive(Debug, Clone)]
pub struct Gen1Sandbox {
    cpuid: CpuidInfo,
    tsc: InvariantTsc,
    /// The counter served when `rdtsc` is trapped: zero at sandbox start,
    /// ticking at the nominal model frequency.
    emulated_tsc: InvariantTsc,
    mitigation: TscMitigation,
    clock: SyscallClock,
    started_at: SimTime,
}

impl Gen1Sandbox {
    /// Builds the sandbox for an instance starting on `host` at `now`.
    ///
    /// `model` must be the host's CPU model record (from the owning
    /// catalog); `rng` seeds the instance's private noise stream.
    pub fn for_instance(host: &Host, model: &CpuModel, now: SimTime, rng: &mut SimRng) -> Self {
        Gen1Sandbox::with_mitigation(host, model, TscMitigation::None, now, rng)
    }

    /// Builds the sandbox under a platform TSC mitigation (Section 6),
    /// forking its clock stream off `rng`.
    pub fn with_mitigation(
        host: &Host,
        model: &CpuModel,
        mitigation: TscMitigation,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Self {
        let clock_stream = Sandbox::fork_clock_stream(Generation::Gen1, rng);
        Gen1Sandbox::from_clock_stream(host, model, mitigation, now, clock_stream)
    }

    /// Builds the sandbox from an already forked clock stream (see
    /// [`Sandbox::fork_clock_stream`]).
    pub fn from_clock_stream(
        host: &Host,
        model: &CpuModel,
        mitigation: TscMitigation,
        now: SimTime,
        clock_stream: SimRng,
    ) -> Self {
        Gen1Sandbox {
            // Not virtualized: the guest sees the hardware's cpuid surface.
            cpuid: model.cpuid_info(),
            tsc: host.tsc(),
            emulated_tsc: InvariantTsc::new(now, host.nominal_frequency()),
            mitigation,
            clock: SyscallClock::new(host.noise_profile(), clock_stream),
            started_at: now,
        }
    }
}

impl GuestEnv for Gen1Sandbox {
    fn cpuid_model(&self) -> &str {
        // Not virtualized: unprivileged cpuid reaches the hardware.
        &self.cpuid.model_name
    }

    fn cpuid_info(&self) -> CpuidInfo {
        self.cpuid.clone()
    }

    fn rdtsc(&mut self, now: SimTime) -> u64 {
        if self.mitigation.exposes_host_tsc_value() {
            // Not virtualized: the raw host counter.
            self.tsc.read(now)
        } else {
            // CR4.TSD trapped: the kernel serves a per-sandbox counter at
            // the nominal rate — no host boot time, no crystal error.
            self.emulated_tsc.read(now)
        }
    }

    fn clock_gettime(&mut self, now: SimTime) -> SimTime {
        self.clock.read(now)
    }

    fn tsc_khz(&self) -> Option<RefinedTscFrequency> {
        None
    }

    fn proc_uptime(&self, now: SimTime) -> SimDuration {
        // gVisor virtualizes /proc: uptime is the sandbox's, not the host's.
        now.duration_since(self.started_at)
    }

    fn timer_read_cost(&self) -> SimDuration {
        self.mitigation.timer_read_cost()
    }
}

/// The VM-based Gen 2 environment.
#[derive(Debug, Clone)]
pub struct Gen2Sandbox {
    guest_tsc: OffsetTsc,
    /// The counter served under hardware offsetting *and scaling*: zero at
    /// VM boot, ticking at exactly the nominal rate.
    scaled_tsc: InvariantTsc,
    refined: RefinedTscFrequency,
    nominal: RefinedTscFrequency,
    mitigation: TscMitigation,
    clock: SyscallClock,
    started_at: SimTime,
}

impl Gen2Sandbox {
    /// Builds the sandbox for an instance starting on `host` at `now`.
    ///
    /// The hypervisor snapshots the host TSC at VM boot (TSC offsetting) and
    /// hands the guest kernel the refined host frequency.
    pub fn for_instance(host: &Host, now: SimTime, rng: &mut SimRng) -> Self {
        Gen2Sandbox::with_mitigation(host, TscMitigation::None, now, rng)
    }

    /// Builds the sandbox under a platform TSC mitigation (Section 6),
    /// forking its clock stream off `rng`.
    pub fn with_mitigation(
        host: &Host,
        mitigation: TscMitigation,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Self {
        let clock_stream = Sandbox::fork_clock_stream(Generation::Gen2, rng);
        Gen2Sandbox::from_clock_stream(host, mitigation, now, clock_stream)
    }

    /// Builds the sandbox from an already forked clock stream (see
    /// [`Sandbox::fork_clock_stream`]).
    pub fn from_clock_stream(
        host: &Host,
        mitigation: TscMitigation,
        now: SimTime,
        clock_stream: SimRng,
    ) -> Self {
        let nominal_hz = host.nominal_frequency().as_hz();
        Gen2Sandbox {
            guest_tsc: OffsetTsc::for_vm_booted_at(host.tsc(), now),
            scaled_tsc: InvariantTsc::new(now, host.nominal_frequency()),
            refined: host.refined_frequency(),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "round() fixes the Hz-to-kHz rule; a positive GHz frequency fits u64 kHz"
            )]
            nominal: RefinedTscFrequency::from_khz((nominal_hz / 1_000.0).round() as u64),
            mitigation,
            clock: SyscallClock::new(host.noise_profile(), clock_stream),
            started_at: now,
        }
    }
}

impl GuestEnv for Gen2Sandbox {
    fn cpuid_model(&self) -> &str {
        // Trapped and emulated by the hypervisor.
        GEN2_VIRTUAL_MODEL
    }

    fn cpuid_info(&self) -> CpuidInfo {
        // The hypervisor traps the leaves: generic model, no cache detail,
        // no host identifiers.
        CpuidInfo {
            model_name: GEN2_VIRTUAL_MODEL.to_owned(),
            cache: None,
            invariant_tsc: true,
            tsc_frequency_hz: None,
            psn: None,
        }
    }

    fn rdtsc(&mut self, now: SimTime) -> u64 {
        if self.mitigation.exposes_host_tsc_rate() {
            // Hardware applies the offset: zero at VM boot, host rate.
            self.guest_tsc.read(now)
        } else {
            // Offsetting + scaling: zero at VM boot, nominal rate.
            self.scaled_tsc.read(now)
        }
    }

    fn clock_gettime(&mut self, now: SimTime) -> SimTime {
        self.clock.read(now)
    }

    fn tsc_khz(&self) -> Option<RefinedTscFrequency> {
        if self.mitigation.exposes_host_tsc_rate() {
            Some(self.refined)
        } else {
            // The hypervisor reports the scaled (nominal) frequency; every
            // host of a model looks identical.
            Some(self.nominal)
        }
    }

    fn proc_uptime(&self, now: SimTime) -> SimDuration {
        now.duration_since(self.started_at)
    }

    fn timer_read_cost(&self) -> SimDuration {
        self.mitigation.timer_read_cost()
    }
}

/// An instance's sandbox, either generation.
#[derive(Debug, Clone)]
pub enum Sandbox {
    /// gVisor Linux container.
    Gen1(Gen1Sandbox),
    /// Lightweight VM.
    Gen2(Gen2Sandbox),
}

impl Sandbox {
    /// Forks the seed of the private stream a `generation` sandbox's
    /// syscall clock draws its noise from: the seed
    /// [`SimRng::fork_labeled`] would build that stream from under the
    /// label `gen1-clock` or `gen2-clock`. This is the only draw building
    /// a sandbox makes from `rng`.
    pub fn fork_clock_seed(generation: Generation, rng: &mut SimRng) -> u64 {
        rng.fork_seed(match generation {
            Generation::Gen1 => GEN1_CLOCK_KEY,
            Generation::Gen2 => GEN2_CLOCK_KEY,
        })
    }

    /// Forks the clock stream itself: `SimRng::seed_from` of
    /// [`Sandbox::fork_clock_seed`], the same seeding an instance applies
    /// to its stored seed when its sandbox is first built.
    pub fn fork_clock_stream(generation: Generation, rng: &mut SimRng) -> SimRng {
        SimRng::seed_from(Sandbox::fork_clock_seed(generation, rng))
    }

    /// Builds the `generation` sandbox of an instance started on `host`
    /// at `now`, from its forked clock stream. `model` is the host's CPU
    /// model record; only Gen 1 exposes it.
    pub fn from_clock_stream(
        generation: Generation,
        host: &Host,
        model: &CpuModel,
        mitigation: TscMitigation,
        now: SimTime,
        clock_stream: SimRng,
    ) -> Self {
        match generation {
            Generation::Gen1 => Sandbox::Gen1(Gen1Sandbox::from_clock_stream(
                host,
                model,
                mitigation,
                now,
                clock_stream,
            )),
            Generation::Gen2 => Sandbox::Gen2(Gen2Sandbox::from_clock_stream(
                host,
                mitigation,
                now,
                clock_stream,
            )),
        }
    }
}

impl GuestEnv for Sandbox {
    fn cpuid_model(&self) -> &str {
        match self {
            Sandbox::Gen1(s) => s.cpuid_model(),
            Sandbox::Gen2(s) => s.cpuid_model(),
        }
    }

    fn cpuid_info(&self) -> CpuidInfo {
        match self {
            Sandbox::Gen1(s) => s.cpuid_info(),
            Sandbox::Gen2(s) => s.cpuid_info(),
        }
    }

    fn rdtsc(&mut self, now: SimTime) -> u64 {
        match self {
            Sandbox::Gen1(s) => s.rdtsc(now),
            Sandbox::Gen2(s) => s.rdtsc(now),
        }
    }

    fn clock_gettime(&mut self, now: SimTime) -> SimTime {
        match self {
            Sandbox::Gen1(s) => s.clock_gettime(now),
            Sandbox::Gen2(s) => s.clock_gettime(now),
        }
    }

    fn tsc_khz(&self) -> Option<RefinedTscFrequency> {
        match self {
            Sandbox::Gen1(s) => s.tsc_khz(),
            Sandbox::Gen2(s) => s.tsc_khz(),
        }
    }

    fn proc_uptime(&self, now: SimTime) -> SimDuration {
        match self {
            Sandbox::Gen1(s) => s.proc_uptime(now),
            Sandbox::Gen2(s) => s.proc_uptime(now),
        }
    }

    fn timer_read_cost(&self) -> SimDuration {
        match self {
            Sandbox::Gen1(s) => s.timer_read_cost(),
            Sandbox::Gen2(s) => s.timer_read_cost(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModelId;
    use crate::host::{Host, HostGenConfig};
    use crate::ids::HostId;
    use eaao_tsc::freq::TscFrequency;
    use rand::RngCore;

    fn test_host(seed: u64) -> Host {
        let mut rng = SimRng::seed_from(seed);
        Host::generate(
            HostId::from_raw(0),
            CpuModelId::from_index(0),
            TscFrequency::from_ghz(2.0),
            1.0,
            SimTime::ZERO,
            &HostGenConfig::default(),
            &mut rng,
        )
    }

    const MODEL: &str = "Intel(R) Xeon(R) CPU @ 2.00GHz";

    fn test_model() -> crate::cpu::CpuModel {
        crate::cpu::CpuModel::new(
            MODEL,
            TscFrequency::from_ghz(2.0),
            crate::cpu::CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1_024,
                l3_kib: 39 * 1_024,
            },
        )
    }

    #[test]
    fn clock_streams_fork_as_their_labels_would() {
        for (generation, label) in [
            (Generation::Gen1, "gen1-clock"),
            (Generation::Gen2, "gen2-clock"),
        ] {
            let mut parent = SimRng::seed_from(17);
            let mut stream = Sandbox::fork_clock_stream(generation, &mut parent);
            let mut labeled_parent = SimRng::seed_from(17);
            let mut labeled = labeled_parent.fork_labeled(label);
            for _ in 0..16 {
                assert_eq!(stream.next_u64(), labeled.next_u64(), "{label}");
            }
            assert_eq!(parent.next_u64(), labeled_parent.next_u64());
        }
    }

    #[test]
    fn gen1_exposes_raw_host_tsc_and_model() {
        let host = test_host(1);
        let mut rng = SimRng::seed_from(100);
        let now = SimTime::from_secs(10);
        let mut sandbox = Gen1Sandbox::for_instance(&host, &test_model(), now, &mut rng);
        assert_eq!(sandbox.cpuid_model(), MODEL);
        assert_eq!(sandbox.rdtsc(now), host.tsc().read(now));
        assert!(sandbox.tsc_khz().is_none());
    }

    #[test]
    fn gen1_virtualizes_proc_uptime() {
        let host = test_host(2);
        let mut rng = SimRng::seed_from(101);
        let start = SimTime::from_secs(100);
        let sandbox = Gen1Sandbox::for_instance(&host, &test_model(), start, &mut rng);
        let up = sandbox.proc_uptime(SimTime::from_secs(160));
        // Sandbox uptime is 60 s even though the host has been up for days.
        assert_eq!(up, SimDuration::from_secs(60));
        assert!(SimTime::ZERO - host.boot_time() > SimDuration::from_hours(1));
    }

    #[test]
    fn gen1_sample_derives_host_boot_time() {
        let host = test_host(3);
        let mut rng = SimRng::seed_from(102);
        let now = SimTime::from_secs(30);
        let mut sandbox = Gen1Sandbox::for_instance(&host, &test_model(), now, &mut rng);
        let sample = sandbox.sample(now);
        let derived = sample.derive_boot_time(host.actual_frequency());
        // With the true frequency, derivation recovers the host boot to
        // within clock noise (well under a second).
        let err = (derived - host.boot_time()).abs();
        assert!(err < SimDuration::from_millis(100), "err {err}");
    }

    #[test]
    fn gen2_hides_boot_but_leaks_refined_frequency() {
        let host = test_host(4);
        let mut rng = SimRng::seed_from(103);
        let vm_boot = SimTime::from_secs(500);
        let mut sandbox = Gen2Sandbox::for_instance(&host, vm_boot, &mut rng);
        assert_eq!(sandbox.cpuid_model(), GEN2_VIRTUAL_MODEL);
        assert_eq!(sandbox.rdtsc(vm_boot), 0);
        assert_eq!(sandbox.tsc_khz(), Some(host.refined_frequency()));
        assert_eq!(
            sandbox.proc_uptime(SimTime::from_secs(530)),
            SimDuration::from_secs(30)
        );
    }

    #[test]
    fn gen2_guest_rate_matches_host() {
        let host = test_host(5);
        let mut rng = SimRng::seed_from(104);
        let mut sandbox = Gen2Sandbox::for_instance(&host, SimTime::from_secs(0), &mut rng);
        let t1 = SimTime::from_secs(100);
        let t2 = SimTime::from_secs(200);
        let delta = sandbox.rdtsc(t2) - sandbox.rdtsc(t1);
        let expected = host.tsc().read(t2) - host.tsc().read(t1);
        assert_eq!(delta, expected);
    }

    #[test]
    fn cpuid_info_differs_by_generation() {
        let host = test_host(7);
        let mut rng = SimRng::seed_from(106);
        let now = SimTime::from_secs(10);
        let g1 = Gen1Sandbox::for_instance(&host, &test_model(), now, &mut rng);
        let info = g1.cpuid_info();
        assert_eq!(info.model_name, MODEL);
        assert!(info.cache.is_some(), "Gen 1 leaks the cache hierarchy");
        assert!(info.invariant_tsc);
        assert!(info.tsc_frequency_hz.is_none(), "leaf 0x15 absent");
        assert!(info.psn.is_none(), "PSN discontinued");

        let g2 = Gen2Sandbox::for_instance(&host, now, &mut rng);
        let info = g2.cpuid_info();
        assert_eq!(info.model_name, GEN2_VIRTUAL_MODEL);
        assert!(info.cache.is_none(), "the hypervisor conceals the geometry");
    }

    #[test]
    fn sandbox_enum_dispatches() {
        let host = test_host(6);
        let mut rng = SimRng::seed_from(105);
        let now = SimTime::from_secs(10);
        let mut g1 = Sandbox::Gen1(Gen1Sandbox::for_instance(
            &host,
            &test_model(),
            now,
            &mut rng,
        ));
        let mut g2 = Sandbox::Gen2(Gen2Sandbox::for_instance(&host, now, &mut rng));
        assert_eq!(g1.cpuid_model(), MODEL);
        assert_eq!(g2.cpuid_model(), GEN2_VIRTUAL_MODEL);
        assert!(g1.tsc_khz().is_none());
        assert!(g2.tsc_khz().is_some());
        let later = SimTime::from_secs(20);
        assert!(g1.rdtsc(later) > g2.rdtsc(later));
        let s = g1.sample(later);
        assert!(s.wall > SimTime::ZERO);
        assert_eq!(g1.proc_uptime(later), SimDuration::from_secs(10));
        assert_eq!(g2.proc_uptime(later), SimDuration::from_secs(10));
        let _ = g2.clock_gettime(later);
    }
}
