//! Statistics used by experiment drivers and analysis code.
//!
//! Three tools the paper relies on repeatedly:
//!
//! * descriptive summaries (mean / standard deviation) for error bars,
//! * ordinary least-squares linear regression with the Pearson r-value, used
//!   in Section 4.4.2 to establish that derived boot times drift linearly,
//! * empirical CDFs, used for Figure 5.

use serde::{Deserialize, Serialize};

/// Descriptive summary of a sample: count, mean, and standard deviation.
///
/// Standard deviation is the *sample* deviation (`n − 1` denominator), which
/// is what error bars in the paper's figures represent.
///
/// # Examples
///
/// ```
/// use eaao_simcore::stats::Summary;
///
/// let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - 2.138089935299395).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// An empty sample yields zeros; a single-element sample has zero
    /// deviation.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (`n − 1` denominator).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest observation (0 for an empty sample).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 for an empty sample).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Result of an ordinary least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    slope: f64,
    intercept: f64,
    r_value: f64,
}

impl LinearFit {
    /// The fitted slope.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Pearson correlation coefficient of the fit.
    ///
    /// An `|r|` close to 1 indicates a strong linear relationship; the paper
    /// reports a minimum `|r|` of 0.9997 across all boot-time drift
    /// histories.
    pub fn r_value(&self) -> f64 {
        self.r_value
    }

    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits `y ≈ slope·x + intercept` by least squares.
///
/// Returns `None` when fewer than two points are given or all `x` are
/// identical (the slope is then undefined). If all residual variance is zero
/// (perfectly collinear points), `r_value` is ±1 with the sign of the slope;
/// if `y` is constant, `r_value` is 0 by convention.
///
/// # Examples
///
/// ```
/// use eaao_simcore::stats::linear_fit;
///
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [1.0, 3.0, 5.0, 7.0];
/// let fit = linear_fit(&xs, &ys).expect("well-posed");
/// assert!((fit.slope() - 2.0).abs() < 1e-12);
/// assert!((fit.intercept() - 1.0).abs() < 1e-12);
/// assert!((fit.r_value() - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_value = if syy == 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    };
    Some(LinearFit {
        slope,
        intercept,
        r_value,
    })
}

/// An empirical cumulative distribution function.
///
/// # Examples
///
/// ```
/// use eaao_simcore::stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Non-finite values are discarded.
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite after retain"));
        Ecdf { sorted: xs }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x` (0 for an empty sample).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The smallest observation with at least fraction `q` of the sample at
    /// or below it.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "ceil() before the cast and clamp(1, len) after make the nearest-rank rule explicit"
        )]
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Iterates `(value, cumulative_fraction)` step points.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_and_single() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        let single = Summary::of(&[4.2]);
        assert_eq!(single.count(), 1);
        assert_eq!(single.mean(), 4.2);
        assert_eq!(single.std_dev(), 0.0);
        assert_eq!(single.min(), 4.2);
        assert_eq!(single.max(), 4.2);
    }

    #[test]
    fn summary_min_max() {
        let s = Summary::of(&[3.0, -1.0, 7.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn linear_fit_recovers_line_with_noise() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                3.0 * x - 2.0
                    + if (x as u64).is_multiple_of(2) {
                        0.1
                    } else {
                        -0.1
                    }
            })
            .collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope() - 3.0).abs() < 1e-3);
        assert!((fit.intercept() + 2.0).abs() < 0.05);
        assert!(fit.r_value() > 0.999999);
        assert!((fit.predict(10.0) - 28.0).abs() < 0.05);
    }

    #[test]
    fn linear_fit_negative_slope_has_negative_r() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [4.0, 2.0, 0.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!(fit.slope() < 0.0);
        assert!((fit.r_value() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(linear_fit(&[], &[]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
        // Constant y: slope 0, r 0.
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope(), 0.0);
        assert_eq!(fit.r_value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatched sample lengths")]
    fn linear_fit_rejects_mismatch() {
        linear_fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ecdf_fractions_and_quantiles() {
        let cdf = Ecdf::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.quantile(0.25), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[3], (4.0, 1.0));
    }

    #[test]
    fn ecdf_discards_non_finite() {
        let cdf = Ecdf::new(vec![f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn ecdf_empty_behaviour() {
        let cdf = Ecdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty sample")]
    fn ecdf_quantile_empty_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }
}
