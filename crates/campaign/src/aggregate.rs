//! Cross-run aggregation: turning a stream of [`RunRecord`]s into the
//! numbers campaigns exist to estimate — above all, the probability that
//! an attack achieves co-location at least once.

use eaao_obs::MetricsSnapshot;
use eaao_simcore::stats::Summary;
use serde::Serialize;

use crate::registry::Experiment;
use crate::runner::RunRecord;

/// A mean with a normal-approximation 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Estimate {
    /// Number of samples behind the estimate.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`1.96 · s/√n`; zero for
    /// fewer than two samples).
    pub ci95: f64,
}

impl Estimate {
    /// Estimates from raw samples.
    pub fn of(samples: &[f64]) -> Estimate {
        let summary = Summary::of(samples);
        let n = samples.len();
        let ci95 = if n >= 2 {
            1.96 * summary.std_dev() / (n as f64).sqrt()
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
