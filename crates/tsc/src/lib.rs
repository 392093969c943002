//! x86 timestamp-counter model for the EAAO reproduction.
//!
//! This crate models every piece of x86 timekeeping the paper's host
//! fingerprints depend on (Sections 2.4, 4.2 and 4.5):
//!
//! * [`freq`] — TSC frequencies; the *reported* frequency parsed from CPU
//!   model names vs the *actual* per-host frequency `f* = f_r + ε`.
//! * [`counter`] — the invariant TSC: zero at host boot, fixed tick rate.
//! * [`offset`] — hardware TSC offsetting as configured by hypervisors for
//!   guest VMs (the Gen 2 environment).
//! * [`refine`] — the kernel's boot-time frequency refinement to 1 kHz,
//!   which KVM exports to guests (`tsc_khz`) — the Gen 2 fingerprint.
//! * [`clocksource`] — the sandboxed syscall clock with per-host noise
//!   profiles, including the ~10% "problematic" host population.
//! * [`boot`] — boot-time derivation (Eq. 4.1), rounding to `p_boot`, and
//!   the linear drift law (Eq. 4.2) with expiration prediction.
//! * [`measure`] — the attacker's frequency-measurement procedure and the
//!   statistics that disqualify it on problematic hosts.
//!
//! # Examples
//!
//! Derive a host's boot time from a raw TSC read, the way the Gen 1
//! fingerprint does:
//!
//! ```
//! use eaao_simcore::time::{SimDuration, SimTime};
//! use eaao_tsc::prelude::*;
//!
//! let reported = parse_base_frequency("Intel Xeon CPU @ 2.00GHz").unwrap();
//! let actual = reported.offset_by_hz(4_000.0); // ε = +4 kHz, unknown to us
//! let tsc = InvariantTsc::new(SimTime::from_secs(500), actual);
//!
//! let now = SimTime::from_hours(2);
//! let sample = TscSample::new(tsc.read(now), now);
//! let boot = sample.derive_rounded_boot_time(reported, SimDuration::from_secs(1));
//! assert_eq!(boot, SimTime::from_secs(500)); // correct at this time scale
//! ```

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod boot;
pub mod clocksource;
pub mod counter;
pub mod freq;
pub mod measure;
pub mod offset;
pub mod refine;

pub use boot::TscSample;
pub use counter::InvariantTsc;
pub use freq::TscFrequency;
pub use refine::RefinedTscFrequency;

/// Convenient glob import of the TSC model types.
pub mod prelude {
    pub use crate::boot::{drift_rate, predicted_drift, time_to_expiration, TscSample};
    pub use crate::clocksource::{ClockNoiseProfile, SyscallClock};
    pub use crate::counter::InvariantTsc;
    pub use crate::freq::{parse_base_frequency, TscFrequency};
    pub use crate::measure::{measure_frequency, FrequencyMeasurement, TimeSampler};
    pub use crate::offset::OffsetTsc;
    pub use crate::refine::RefinedTscFrequency;
}
