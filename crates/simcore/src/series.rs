//! Time-series recording for experiment drivers.
//!
//! Figures 6–12 of the paper are all "quantity over launches / over time"
//! plots. [`Series`] collects `(x, y)` observations with labels and offers the
//! aggregations the repro harness needs (cumulative counts, averaging across
//! repeated runs).

use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// A labeled sequence of `(x, y)` observations.
///
/// # Examples
///
/// ```
/// use eaao_simcore::series::Series;
///
/// let mut hosts = Series::new("apparent hosts");
/// hosts.push(1.0, 75.0);
/// hosts.push(2.0, 74.0);
/// assert_eq!(hosts.len(), 2);
/// assert_eq!(hosts.ys()[1], 74.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends an observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The x coordinates.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|&(x, _)| x).collect()
    }

    /// The y coordinates.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }

    /// A new series whose y values are the running sum of this one's.
    pub fn cumulative(&self) -> Series {
        let mut total = 0.0;
        let points = self
            .points
            .iter()
            .map(|&(x, y)| {
                total += y;
                (x, total)
            })
            .collect();
        Series {
            label: format!("cumulative {}", self.label),
            points,
        }
    }

    /// Averages several same-shaped series pointwise, producing the mean
    /// series and a per-point [`Summary`] (for error bars).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or the series disagree on length or x
    /// coordinates.
    pub fn average(runs: &[Series]) -> (Series, Vec<Summary>) {
        assert!(!runs.is_empty(), "no series to average");
        let n = runs[0].len();
        for s in runs {
            assert_eq!(s.len(), n, "series length mismatch");
        }
        let mut mean = Series::new(format!("mean {}", runs[0].label));
        let mut summaries = Vec::with_capacity(n);
        for i in 0..n {
            let x = runs[0].points[i].0;
            #[expect(
                clippy::float_cmp,
                reason = "the runs share one x grid, so matching coordinates are bit-identical copies"
            )]
            for s in runs {
                assert_eq!(s.points[i].0, x, "series x-coordinate mismatch");
            }
            let ys: Vec<f64> = runs.iter().map(|s| s.points[i].1).collect();
            let summary = Summary::of(&ys);
            mean.push(x, summary.mean());
            summaries.push(summary);
        }
        (mean, summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(label: &str, ys: &[f64]) -> Series {
        let mut s = Series::new(label);
        for (i, &y) in ys.iter().enumerate() {
            s.push(i as f64 + 1.0, y);
        }
        s
    }

    #[test]
    fn push_and_accessors() {
        let s = series("hosts", &[75.0, 74.0, 76.0]);
        assert_eq!(s.label(), "hosts");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.xs(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.ys(), vec![75.0, 74.0, 76.0]);
        assert_eq!(s.points()[0], (1.0, 75.0));
    }

    #[test]
    fn cumulative_sums() {
        let s = series("new hosts", &[75.0, 10.0, 5.0]);
        let c = s.cumulative();
        assert_eq!(c.ys(), vec![75.0, 85.0, 90.0]);
        assert_eq!(c.label(), "cumulative new hosts");
    }

    #[test]
    fn average_of_runs() {
        let a = series("cov", &[0.9, 1.0]);
        let b = series("cov", &[1.1, 1.0]);
        let (mean, summaries) = Series::average(&[a, b]);
        assert_eq!(mean.ys(), vec![1.0, 1.0]);
        assert!((summaries[0].std_dev() - 0.1414).abs() < 1e-3);
        assert_eq!(summaries[1].std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no series to average")]
    fn average_rejects_empty() {
        Series::average(&[]);
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn average_rejects_mismatched_lengths() {
        let a = series("x", &[1.0]);
        let b = series("x", &[1.0, 2.0]);
        Series::average(&[a, b]);
    }
}
