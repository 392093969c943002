//! Cross-run aggregation: turning a stream of [`RunRecord`]s into the
//! numbers campaigns exist to estimate — above all, the probability that
//! an attack achieves co-location at least once.

use eaao_obs::MetricsSnapshot;
use eaao_simcore::stats::Summary;
use serde::Serialize;

use crate::registry::Experiment;
use crate::runner::RunRecord;

/// A mean with a Student-t 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Estimate {
    /// Number of samples behind the estimate.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval, `t · s/√n`, where `s`
    /// is the sample standard deviation and `t` the 0.975 quantile of
    /// Student's t with `n − 1` degrees of freedom (12.706 at two
    /// samples, 2.262 at ten); zero for fewer than two samples.
    pub ci95: f64,
}

/// The 0.975 quantiles of Student's t for 1 to 30 degrees of freedom.
const T_975: [f64; 30] = [
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157,
    2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
    2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831,
    2.048407, 2.045230, 2.042272,
];

/// The two-sided 95% critical value of Student's t with `df` degrees of
/// freedom: tabulated up to 30, and past that the Cornish–Fisher
/// expansion around the normal quantile to second order in `1/df`,
/// within 0.005% of the exact value there.
fn t_975(df: usize) -> f64 {
    if let Some(&t) = df.checked_sub(1).and_then(|i| T_975.get(i)) {
        return t;
    }
    let z: f64 = 1.959_963_984_540_054;
    let nu = df as f64;
    z + (z.powi(3) + z) / (4.0 * nu)
        + (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / (96.0 * nu.powi(2))
}

impl Estimate {
    /// Estimates from raw samples.
    pub fn of(samples: &[f64]) -> Estimate {
        let summary = Summary::of(samples);
        let n = samples.len();
        let ci95 = if n >= 2 {
            t_975(n - 1) * summary.std_dev() / (n as f64).sqrt()
        } else {
            0.0
        };
        Estimate {
            n,
            mean: summary.mean(),
            ci95,
        }
    }

    /// `mean ± ci95` as a display string.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.ci95)
    }
}

/// Extracts the per-run "did the attacker co-locate at least once" rate
/// (0 to 1) from a successful record, through its experiment's
/// co-location headline in the [registry](crate::registry).
///
/// Returns `None` for failed runs and experiments without a co-location
/// notion (e.g. the placement-reverse-engineering figures).
pub fn colocation_probability(record: &RunRecord) -> Option<f64> {
    if !record.is_ok() {
        return None;
    }
    let headline = Experiment::find(&record.experiment)?.colocation?;
    headline(record.payload.as_ref()?)
}

/// Groups records by `(experiment, region, generation, mitigation,
/// platform, verifier)` and estimates the co-location probability of each
/// group across its seeds. Groups whose experiment has no co-location
/// notion are omitted.
pub fn colocation_by_group(records: &[RunRecord]) -> Vec<(String, Estimate)> {
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for record in records {
        let Some(sample) = colocation_probability(record) else {
            continue;
        };
        let label = format!(
            "{}/{}/{}/{}/{}/{}",
            record.experiment,
            record.region,
            record.generation,
            record.mitigation,
            record.platform,
            record.verifier
        );
        match groups.iter_mut().find(|(key, _)| *key == label) {
            Some((_, samples)) => samples.push(sample),
            None => groups.push((label, vec![sample])),
        }
    }
    groups
        .into_iter()
        .map(|(label, samples)| (label, Estimate::of(&samples)))
        .collect()
}

/// Folds every record's per-run `metrics` block into one campaign-level
/// snapshot: counters add, gauges keep their maximum, and stage-latency
/// histograms merge bucket-wise (so the aggregate p50/p95/p99 reflect the
/// whole campaign). This is the `metrics` object written to
/// `campaign.json`.
pub fn merged_metrics(records: &[RunRecord]) -> MetricsSnapshot {
    let mut aggregate = MetricsSnapshot::default();
    for record in records {
        aggregate.merge(&record.metrics);
    }
    aggregate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::execute;
    use crate::spec::CampaignSpec;

    #[test]
    fn estimates_match_hand_computation() {
        let estimate = Estimate::of(&[0.0, 1.0, 1.0, 1.0]);
        assert_eq!(estimate.n, 4);
        assert!((estimate.mean - 0.75).abs() < 1e-12);
        assert!(estimate.ci95 > 0.0);
        assert_eq!(Estimate::of(&[0.5]).ci95, 0.0);
    }

    #[test]
    fn the_interval_uses_students_t_for_n_minus_one_degrees_of_freedom() {
        for (n, t) in [(2, 12.706), (10, 2.262), (40, 2.023)] {
            let samples: Vec<f64> = (0..n).map(|i| f64::from(i % 2)).collect();
            let summary = Summary::of(&samples);
            let estimate = Estimate::of(&samples);
            let critical = estimate.ci95 / (summary.std_dev() / (n as f64).sqrt());
            assert!(
                (critical - t).abs() < 5e-4,
                "n = {n}: {critical} against {t}"
            );
        }
    }

    #[test]
    fn the_expansion_continues_the_table() {
        // Exact quantiles at 31, 39 and 100 degrees of freedom.
        for (df, exact) in [(31, 2.039513), (39, 2.022691), (100, 1.983972)] {
            assert!((t_975(df) - exact).abs() < 1e-4, "{df} df");
        }
        // Falling throughout, across the seam at 30 too.
        assert!((1..200).all(|df| t_975(df) > t_975(df + 1)));
    }

    #[test]
    fn attack_runs_yield_zero_or_one() {
        let spec = CampaignSpec {
            experiments: vec!["attack-optimized".to_owned()],
            regions: vec!["us-west1".to_owned()],
            seeds: 2,
            quick: true,
            ..CampaignSpec::default()
        };
        let records: Vec<RunRecord> = spec
            .expand()
            .expect("valid")
            .iter()
            .map(|run| execute(run, 9))
            .collect();
        for record in &records {
            let p = colocation_probability(record).expect("attack runs have the indicator");
            assert!(p == 0.0 || p == 1.0);
        }
        let groups = colocation_by_group(&records);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.n, 2);
    }

    #[test]
    fn experiments_without_the_notion_are_omitted() {
        let spec = CampaignSpec {
            experiments: vec!["fig6".to_owned()],
            quick: true,
            ..CampaignSpec::default()
        };
        let record = execute(&spec.expand().expect("valid")[0], 9);
        assert!(record.is_ok());
        assert_eq!(colocation_probability(&record), None);
        assert!(colocation_by_group(&[record]).is_empty());
    }
}
