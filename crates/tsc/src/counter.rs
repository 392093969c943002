//! The invariant timestamp counter.
//!
//! An invariant TSC resets to zero at host boot and increments at a fixed
//! rate — the host's *actual* TSC frequency — irrespective of frequency
//! scaling and power states (Section 2.4 of the paper). Reading it with
//! `rdtsc`/`rdtscp` is unprivileged, which is exactly what the Gen 1
//! fingerprint exploits.

use eaao_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::freq::TscFrequency;

/// An invariant TSC: zero at host boot, ticking at the host's actual
/// frequency forever after.
///
/// # Examples
///
/// ```
/// use eaao_simcore::time::SimTime;
/// use eaao_tsc::counter::InvariantTsc;
/// use eaao_tsc::freq::TscFrequency;
///
/// let boot = SimTime::from_secs(100);
/// let tsc = InvariantTsc::new(boot, TscFrequency::from_ghz(2.0));
/// // 10 seconds of uptime = 20 billion ticks at 2 GHz.
/// assert_eq!(tsc.read(SimTime::from_secs(110)), 20_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvariantTsc {
    boot: SimTime,
    actual: TscFrequency,
}

impl InvariantTsc {
    /// Creates a counter for a host that booted at `boot` with actual
    /// frequency `actual`.
    pub fn new(boot: SimTime, actual: TscFrequency) -> Self {
        InvariantTsc { boot, actual }
    }

    /// The host boot instant (when the counter was zero).
    pub fn boot_time(self) -> SimTime {
        self.boot
    }

    /// The actual tick rate.
    pub fn actual_frequency(self) -> TscFrequency {
        self.actual
    }

    /// Reads the counter at virtual time `now` (the `rdtsc` instruction).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the boot instant — the host did not exist
    /// yet.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "round() fixes the tick rule; non-negative uptime at GHz rates stays far below 2^64 ticks"
    )]
    pub fn read(self, now: SimTime) -> u64 {
        let uptime = now.duration_since(self.boot);
        assert!(
            !uptime.is_negative(),
            "TSC read before host boot ({} < {})",
            now,
            self.boot
        );
        self.actual.ticks_over(uptime.as_secs_f64()).round() as u64
    }

    /// Re-arms the counter after a host reboot at `new_boot`.
    ///
    /// The actual frequency is a property of the crystal and survives
    /// reboots; only the zero point moves.
    pub fn rebooted_at(self, new_boot: SimTime) -> InvariantTsc {
        InvariantTsc {
            boot: new_boot,
            actual: self.actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_simcore::time::SimDuration;

    #[test]
    fn zero_at_boot() {
        let boot = SimTime::from_secs(50);
        let tsc = InvariantTsc::new(boot, TscFrequency::from_ghz(2.0));
        assert_eq!(tsc.read(boot), 0);
        assert_eq!(tsc.boot_time(), boot);
    }

    #[test]
    fn ticks_at_actual_rate_not_reported() {
        let reported = TscFrequency::from_ghz(2.0);
        let actual = reported.offset_by_hz(1_000_000.0); // +1 MHz
        let tsc = InvariantTsc::new(SimTime::ZERO, actual);
        let t = SimTime::from_secs(100);
        assert_eq!(tsc.read(t), 200_100_000_000);
    }

    #[test]
    fn monotone_over_time() {
        let tsc = InvariantTsc::new(SimTime::ZERO, TscFrequency::from_ghz(2.2));
        let mut prev = 0;
        for s in 1..100 {
            let v = tsc.read(SimTime::from_secs(s));
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "TSC read before host boot")]
    fn read_before_boot_panics() {
        let tsc = InvariantTsc::new(SimTime::from_secs(10), TscFrequency::from_ghz(2.0));
        tsc.read(SimTime::from_secs(9));
    }

    #[test]
    fn reboot_resets_zero_point_keeps_rate() {
        let f = TscFrequency::from_ghz(2.0).offset_by_hz(500.0);
        let tsc = InvariantTsc::new(SimTime::ZERO, f);
        let rebooted = tsc.rebooted_at(SimTime::from_secs(1_000));
        assert_eq!(rebooted.read(SimTime::from_secs(1_000)), 0);
        assert_eq!(rebooted.actual_frequency(), f);
        assert_eq!(
            rebooted.read(SimTime::from_secs(1_000) + SimDuration::from_secs(1)),
            2_000_000_500
        );
    }
}
