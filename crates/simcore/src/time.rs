//! Virtual time primitives.
//!
//! All simulated experiments run against a virtual timeline measured in
//! nanoseconds. [`SimTime`] is an absolute instant on that timeline (the
//! simulated "real-world time" of the paper, `T_w` in Eq. 4.1) and
//! [`SimDuration`] is a signed span between two instants.
//!
//! Both types are thin newtypes over integer nanosecond counts so that all
//! arithmetic is exact; floating-point conversions are explicit and only used
//! at the edges (statistics, frequency math).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: i64 = 1_000_000_000;

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// simulation epoch.
///
/// The epoch is arbitrary (the start of the simulation); what matters is that
/// all hosts and guests in one simulation share it, mirroring how all
/// machines in a data center share real-world (NTP-synchronized) time.
///
/// # Examples
///
/// ```
/// use eaao_simcore::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs(90);
/// assert_eq!(t1 - t0, SimDuration::from_secs(90));
/// assert_eq!(t1.as_secs_f64(), 90.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(i64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant.
    pub const MAX: SimTime = SimTime(i64::MAX);

    /// Creates an instant from whole nanoseconds since the epoch.
    pub const fn from_nanos(nanos: i64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation
    /// (±292 simulated years).
    pub const fn from_secs(secs: i64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from whole minutes since the epoch.
    pub const fn from_mins(mins: i64) -> Self {
        SimTime(mins * 60 * NANOS_PER_SEC)
    }

    /// Creates an instant from whole hours since the epoch.
    pub const fn from_hours(hours: i64) -> Self {
        SimTime(hours * 3_600 * NANOS_PER_SEC)
    }

    /// Creates an instant from whole days since the epoch.
    pub const fn from_days(days: i64) -> Self {
        SimTime(days * 86_400 * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds since the epoch.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the documented float-to-tick quantization boundary: round() fixes the rule before entering the i64 tick lane"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * NANOS_PER_SEC as f64).round() as i64)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// Unlike the standard library this is signed: if `earlier` is actually
    /// later, the result is negative.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating addition of a duration, clamping at the representable range.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Rounds this instant to the nearest multiple of `precision`.
    ///
    /// This implements the paper's `p_boot` rounding of derived boot times
    /// (Section 4.2): instants within half a precision bucket of each other
    /// collapse to the same value.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is not positive.
    pub fn round_to(self, precision: SimDuration) -> SimTime {
        assert!(
            precision.as_nanos() > 0,
            "rounding precision must be positive"
        );
        let p = precision.as_nanos();
        // Round half up; div_euclid keeps the bucket grid consistent across
        // negative instants.
        let adjusted = self.0.saturating_add(p / 2);
        SimTime(adjusted.div_euclid(p) * p)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A signed span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use eaao_simcore::time::SimDuration;
///
/// let launch_interval = SimDuration::from_mins(10);
/// assert_eq!(launch_interval.as_secs_f64(), 600.0);
/// assert!(launch_interval > SimDuration::from_secs(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(i64::MAX);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(nanos: i64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: i64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: i64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: i64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(mins: i64) -> Self {
        SimDuration(mins * 60 * NANOS_PER_SEC)
    }

    /// Creates a span from whole hours.
    pub const fn from_hours(hours: i64) -> Self {
        SimDuration(hours * 3_600 * NANOS_PER_SEC)
    }

    /// Creates a span from whole days.
    pub const fn from_days(days: i64) -> Self {
        SimDuration(days * 86_400 * NANOS_PER_SEC)
    }

    /// Creates a span from fractional seconds.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the documented float-to-tick quantization boundary: round() fixes the rule before entering the i64 tick lane"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * NANOS_PER_SEC as f64).round() as i64)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds in this span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Days in this span, as a float.
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    /// Whether this span is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value of this span.
    pub const fn abs(self) -> SimDuration {
        SimDuration(self.0.abs())
    }

    /// Integer division of this span by another, yielding a count.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub const fn div_duration(self, rhs: SimDuration) -> i64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs.abs() >= 86_400.0 {
            write!(f, "{:.2}d", secs / 86_400.0)
        } else if secs.abs() >= 3_600.0 {
            write!(f, "{:.2}h", secs / 3_600.0)
        } else if secs.abs() >= 60.0 {
            write!(f, "{:.2}min", secs / 60.0)
        } else {
            write!(f, "{:.6}s", secs)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;

    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the documented float-to-tick quantization boundary: round() fixes the rule before re-entering the i64 tick lane"
    )]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as i64)
    }
}

impl Div<i64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimTime::from_secs(7).as_secs_f64(), 7.0);
    }

    #[test]
    fn fractional_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(0.123456789);
        assert_eq!(d.as_nanos(), 123_456_789);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!(t + d, SimTime::from_secs(140));
        assert_eq!(t - d, SimTime::from_secs(60));
        assert_eq!(SimTime::from_secs(140) - t, d);
        assert_eq!(
            t.duration_since(SimTime::from_secs(150)),
            -SimDuration::from_secs(50)
        );
    }

    #[test]
    fn assign_ops() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(5);
        t -= SimDuration::from_secs(2);
        assert_eq!(t, SimTime::from_secs(3));
        let mut d = SimDuration::from_secs(1);
        d += SimDuration::from_secs(1);
        d -= SimDuration::from_millis(500);
        assert_eq!(d, SimDuration::from_millis(1500));
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_secs(3) * 2, SimDuration::from_secs(6));
        assert_eq!(
            SimDuration::from_secs(3) * 0.5,
            SimDuration::from_millis(1500)
        );
        assert_eq!(
            SimDuration::from_secs(10) / 4,
            SimDuration::from_millis(2500)
        );
        assert_eq!(
            SimDuration::from_mins(1).div_duration(SimDuration::from_secs(6)),
            10
        );
    }

    #[test]
    fn rounding_collapses_nearby_instants() {
        let p = SimDuration::from_secs(1);
        let a = SimTime::from_secs_f64(99.6);
        let b = SimTime::from_secs_f64(100.4);
        assert_eq!(a.round_to(p), SimTime::from_secs(100));
        assert_eq!(b.round_to(p), SimTime::from_secs(100));
        let c = SimTime::from_secs_f64(100.6);
        assert_eq!(c.round_to(p), SimTime::from_secs(101));
    }

    #[test]
    fn rounding_handles_negative_times() {
        let p = SimDuration::from_secs(1);
        assert_eq!(SimTime::from_secs_f64(-0.4).round_to(p), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs_f64(-0.6).round_to(p),
            SimTime::from_secs(-1)
        );
    }

    #[test]
    #[should_panic(expected = "rounding precision must be positive")]
    fn rounding_rejects_zero_precision() {
        SimTime::ZERO.round_to(SimDuration::ZERO);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(SimDuration::from_days(2).to_string(), "2.00d");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3.00h");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5.00min");
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn negation_and_abs() {
        let d = SimDuration::from_secs(5);
        assert_eq!(-d, SimDuration::from_secs(-5));
        assert!((-d).is_negative());
        assert_eq!((-d).abs(), d);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }
}
