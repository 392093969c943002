//! Platform-side mitigations (Section 6).
//!
//! Both fingerprints exploit the fact that the TSC *value* (Gen 1) or its
//! *frequency* (Gen 2) is shared between the host and untrusted
//! containers. The paper discusses masking both:
//!
//! * **Gen 1 — trap and emulate**: disable `rdtsc`/`rdtscp` in Ring 3 via
//!   `CR4.TSD`, so the kernel traps each read and serves a virtualized
//!   counter. Kills the fingerprint, but every timer access now pays a
//!   kernel round-trip — the paper cites Cassandra's write latency
//!   improving 43% when moving the *other* way (from a trapping `xen`
//!   clock source to raw TSC).
//! * **Gen 2 — hardware TSC offsetting *and scaling***: the VM already has
//!   an offset; adding hardware scaling presents a *nominal* frequency to
//!   the guest (and the hypervisor stops exporting the refined host
//!   frequency). No overhead — the mitigation the paper's shepherd
//!   suggested.
//! * **Scheduler-side**: co-location-resistant placement [Azar et al.]
//!   (modeled in `eaao-orchestrator` as a placement policy option).

use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How the platform masks the timestamp counter from containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TscMitigation {
    /// No mitigation: the state of the platforms the paper studied.
    #[default]
    None,
    /// Gen 1 style: trap `rdtsc`/`rdtscp` (CR4.TSD) and emulate against
    /// the sandbox's virtual clock. The guest sees a counter that is zero
    /// at sandbox start and ticks at the *nominal* model frequency; every
    /// read costs a kernel transition.
    TrapAndEmulate,
    /// Gen 2 style: hardware TSC offsetting plus scaling, and the
    /// hypervisor stops exporting the refined host frequency. The guest
    /// sees a counter that is zero at VM boot, ticking at exactly the
    /// nominal frequency, at native read cost.
    OffsetAndScale,
}

impl TscMitigation {
    /// Every mitigation, in canonical grid order.
    pub const ALL: [TscMitigation; 3] = [
        TscMitigation::None,
        TscMitigation::TrapAndEmulate,
        TscMitigation::OffsetAndScale,
    ];

    /// The canonical grid-axis name (`none`, `trap-and-emulate`,
    /// `offset-and-scale`).
    pub fn name(self) -> &'static str {
        match self {
            TscMitigation::None => "none",
            TscMitigation::TrapAndEmulate => "trap-and-emulate",
            TscMitigation::OffsetAndScale => "offset-and-scale",
        }
    }

    /// Parses a canonical name; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Wall-clock cost of one guest timer read under this mitigation.
    ///
    /// `rdtsc` retires in a few cycles (~10 ns with serialization);
    /// a trapped read costs a kernel round-trip (~1 µs in a sandboxed
    /// container — gVisor adds its own bounce).
    pub fn timer_read_cost(self) -> SimDuration {
        match self {
            TscMitigation::None | TscMitigation::OffsetAndScale => SimDuration::from_nanos(10),
            TscMitigation::TrapAndEmulate => SimDuration::from_nanos(1_200),
        }
    }

    /// Whether the raw host TSC value is visible to the guest.
    pub fn exposes_host_tsc_value(self) -> bool {
        self == TscMitigation::None
    }

    /// Whether the host's actual/refined TSC frequency is observable.
    pub fn exposes_host_tsc_rate(self) -> bool {
        // Trap-and-emulate serves the virtual clock (nominal rate);
        // offset-and-scale scales to nominal. Only the unmitigated
        // platform ticks at the host crystal's true rate.
        self == TscMitigation::None
    }
}

/// A timer-intensive request workload, for quantifying the end-to-end
/// overhead of timer emulation (the paper's examples: fine-grained
/// timestamps for concurrency control, logging, financial data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerWorkload {
    /// Base request processing time, excluding timer reads.
    pub base_latency: SimDuration,
    /// Timer reads issued per request.
    pub timer_reads: u32,
}

impl TimerWorkload {
    /// A Cassandra-like write path: sub-millisecond base latency with
    /// thousands of timestamp reads (commit log, memtable ordering,
    /// metrics).
    pub fn database_write() -> Self {
        TimerWorkload {
            base_latency: SimDuration::from_micros(350),
            timer_reads: 220,
        }
    }

    /// A latency-critical web request with light instrumentation.
    pub fn web_request() -> Self {
        TimerWorkload {
            base_latency: SimDuration::from_millis(2),
            timer_reads: 40,
        }
    }

    /// End-to-end request latency under a mitigation.
    pub fn request_latency(&self, mitigation: TscMitigation) -> SimDuration {
        self.base_latency + mitigation.timer_read_cost() * i64::from(self.timer_reads)
    }

    /// Relative latency overhead of `mitigation` versus no mitigation.
    pub fn overhead_fraction(&self, mitigation: TscMitigation) -> f64 {
        let base = self.request_latency(TscMitigation::None).as_secs_f64();
        let with = self.request_latency(mitigation).as_secs_f64();
        with / base - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unmitigated() {
        let m = TscMitigation::default();
        assert_eq!(m, TscMitigation::None);
        assert!(m.exposes_host_tsc_value());
        assert!(m.exposes_host_tsc_rate());
    }

    #[test]
    fn trap_and_emulate_hides_everything_but_costs() {
        let m = TscMitigation::TrapAndEmulate;
        assert!(!m.exposes_host_tsc_value());
        assert!(!m.exposes_host_tsc_rate());
        assert!(m.timer_read_cost() > TscMitigation::None.timer_read_cost() * 50);
    }

    #[test]
    fn offset_and_scale_is_free() {
        let m = TscMitigation::OffsetAndScale;
        assert!(!m.exposes_host_tsc_value());
        assert!(!m.exposes_host_tsc_rate());
        assert_eq!(m.timer_read_cost(), TscMitigation::None.timer_read_cost());
    }

    #[test]
    fn database_write_overhead_is_cassandra_scale() {
        // The paper's reference point: Cassandra writes sped up 43% moving
        // from a trapping clock source to raw TSC — i.e. trapping costs
        // tens of percent on timer-heavy paths.
        let w = TimerWorkload::database_write();
        let overhead = w.overhead_fraction(TscMitigation::TrapAndEmulate);
        assert!(
            (0.3..1.2).contains(&overhead),
            "database overhead {:.0}%",
            overhead * 100.0
        );
        assert_eq!(w.overhead_fraction(TscMitigation::OffsetAndScale), 0.0);
    }

    #[test]
    fn web_request_overhead_is_small_but_real() {
        let w = TimerWorkload::web_request();
        let overhead = w.overhead_fraction(TscMitigation::TrapAndEmulate);
        assert!(
            (0.005..0.1).contains(&overhead),
            "web overhead {:.2}%",
            overhead * 100.0
        );
    }

    #[test]
    fn latency_is_monotone_in_reads() {
        let few = TimerWorkload {
            base_latency: SimDuration::from_micros(100),
            timer_reads: 1,
        };
        let many = TimerWorkload {
            base_latency: SimDuration::from_micros(100),
            timer_reads: 1_000,
        };
        assert!(
            many.request_latency(TscMitigation::TrapAndEmulate)
                > few.request_latency(TscMitigation::TrapAndEmulate)
        );
    }
}
