//! Kernel-style TSC frequency refinement.
//!
//! At boot, Linux refines the TSC frequency against other hardware clocks
//! and keeps the refined value — at 1 kHz precision — for timekeeping
//! (Section 2.4). In the Gen 2 environment, KVM exports this refined *host*
//! frequency to the guest (`tsc_khz`), where the paper reads it as the
//! Gen 2 fingerprint (Section 4.5).
//!
//! Two properties matter and are both modeled here:
//!
//! * refinement happens **once per host boot**, so co-located instances
//!   always observe the same value — the Gen 2 fingerprint has no false
//!   negatives;
//! * the refinement measurement itself carries an error (the kernel
//!   calibrates against imperfect clocks), and the result is rounded to
//!   1 kHz, so distinct hosts frequently collide — the Gen 2 fingerprint's
//!   low precision (~2 hosts per fingerprint in the paper).

use serde::{Deserialize, Serialize};

use crate::freq::TscFrequency;

/// Precision of the kernel refinement, in Hz (Linux refines to 1 kHz).
pub const REFINEMENT_PRECISION_HZ: f64 = 1_000.0;

/// A refined TSC frequency as exported by the kernel: whole kilohertz.
///
/// # Examples
///
/// ```
/// use eaao_tsc::freq::TscFrequency;
/// use eaao_tsc::refine::RefinedTscFrequency;
///
/// let actual = TscFrequency::from_ghz(2.0).offset_by_hz(5_400.0);
/// // Refinement measured the frequency 300 Hz low, then rounded to 1 kHz.
/// let refined = RefinedTscFrequency::refine(actual, -300.0);
/// assert_eq!(refined.as_khz(), 2_000_005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RefinedTscFrequency(u64);

impl RefinedTscFrequency {
    /// Runs the boot-time refinement: measures `actual` with a calibration
    /// error of `measurement_error_hz`, then rounds to 1 kHz.
    ///
    /// # Panics
    ///
    /// Panics if the perturbed frequency would be non-positive.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the documented frequency quantization boundary: round() against REFINEMENT_PRECISION_HZ fixes the rule entering the u64 lane"
    )]
    pub fn refine(actual: TscFrequency, measurement_error_hz: f64) -> Self {
        let measured_hz = actual.as_hz() + measurement_error_hz;
        assert!(measured_hz > 0.0, "refined frequency must be positive");
        RefinedTscFrequency((measured_hz / REFINEMENT_PRECISION_HZ).round() as u64)
    }

    /// Creates a refined value directly from whole kHz (e.g. parsed from a
    /// guest kernel's `tsc_khz`).
    pub fn from_khz(khz: u64) -> Self {
        RefinedTscFrequency(khz)
    }

    /// The refined frequency in whole kHz.
    pub fn as_khz(self) -> u64 {
        self.0
    }

    /// The refined frequency in Hz.
    pub fn as_hz(self) -> f64 {
        self.0 as f64 * REFINEMENT_PRECISION_HZ
    }
}

impl std::fmt::Display for RefinedTscFrequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}kHz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_whole_khz() {
        let actual = TscFrequency::from_hz(2_000_000_499.0);
        assert_eq!(RefinedTscFrequency::refine(actual, 0.0).as_khz(), 2_000_000);
        let actual = TscFrequency::from_hz(2_000_000_501.0);
        assert_eq!(RefinedTscFrequency::refine(actual, 0.0).as_khz(), 2_000_001);
    }

    #[test]
    fn measurement_error_shifts_result() {
        let actual = TscFrequency::from_ghz(2.0);
        let low = RefinedTscFrequency::refine(actual, -2_000.0);
        let high = RefinedTscFrequency::refine(actual, 2_000.0);
        assert_eq!(high.as_khz() - low.as_khz(), 4);
    }

    #[test]
    fn nearby_hosts_collide() {
        // Two hosts whose true frequencies differ by less than the rounding
        // bucket share a fingerprint — the source of Gen 2 false positives.
        let a = TscFrequency::from_ghz(2.0).offset_by_hz(100.0);
        let b = TscFrequency::from_ghz(2.0).offset_by_hz(300.0);
        assert_eq!(
            RefinedTscFrequency::refine(a, 0.0),
            RefinedTscFrequency::refine(b, 0.0)
        );
    }

    #[test]
    fn round_trips_and_display() {
        let r = RefinedTscFrequency::from_khz(2_200_007);
        assert_eq!(r.as_khz(), 2_200_007);
        assert_eq!(r.as_hz(), 2_200_007_000.0);
        assert_eq!(r.to_string(), "2200007kHz");
    }

    #[test]
    fn ord_allows_sorting() {
        let mut v = [
            RefinedTscFrequency::from_khz(3),
            RefinedTscFrequency::from_khz(1),
            RefinedTscFrequency::from_khz(2),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|r| r.as_khz()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "refined frequency must be positive")]
    fn rejects_nonpositive_measurement() {
        RefinedTscFrequency::refine(TscFrequency::from_hz(100.0), -200.0);
    }
}
