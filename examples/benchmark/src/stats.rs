//! Order statistics for the benchmark's reports.

/// The percentiles the tail rule walks, highest first, in tenths of a
/// percent.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported percentile must have beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (the mean of the middle two for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default exclusive method), so `--repeat`
/// reports the spread the acceptance rule measures.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative, or above 4, where the clamp moved `j`: Python then
        // extrapolates from the two end samples, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] with at least ten samples beyond it (nearest rank),
/// as `(percentile, value)`. Below twenty samples no percentile
/// qualifies and the maximum is reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len() as u64;
    for tenths in TAIL_LADDER {
        let rank = (tenths * n).div_ceil(1000);
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            return (tenths as f64 / 10.0, sorted[rank as usize - 1]);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 960 samples: p99 would leave 9 beyond, so p95 (rank 912) wins.
        assert_eq!(tail(&ramp(960)), (95.0, 912.0));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)), (99.9, 9_990.0));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        // Too few for any percentile: the maximum.
        assert_eq!(tail(&ramp(19)), (100.0, 19.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
