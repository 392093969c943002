//! Experiment drivers: one module per table/figure of the paper.
//!
//! Every driver is a config struct with paper-scale defaults, a `quick()`
//! constructor for fast test runs, and a `run(seed)` method returning a
//! serializable result — the same rows/series the paper reports. The
//! campaign registry's rows (run by `eaao repro` and `eaao campaign`) and
//! the tests share these.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig04`] | Fig. 4 — Gen 1 fingerprint accuracy vs `p_boot` |
//! | [`fig05`] | Fig. 5 — fingerprint expiration CDF |
//! | [`fig06`] | Fig. 6 — idle-instance termination curve |
//! | [`fig07`] | Fig. 7 — base hosts across 45-minute launches |
//! | [`fig08`] | Fig. 8 — base hosts across accounts (step pattern) |
//! | [`fig09`] | Fig. 9 — helper hosts at 10-minute intervals |
//! | [`fig10`] | Fig. 10 — helper-host footprint across episodes |
//! | [`fig11`] | Fig. 11 — victim instance coverage (Strategy 2) |
//! | [`fig12`] | Fig. 12 — cluster-size estimation |
//! | [`sec42`] | §4.2 — measured-TSC-frequency scatter |
//! | [`sec43`] | §4.3 — verification cost: pairwise vs hierarchical |
//! | [`sec45`] | §4.5 — Gen 2 fingerprint accuracy |
//! | [`sec52`] | §5.2 — Strategy 1 (naive) coverage and attack cost |
//! | [`sec6`] | §6 — mitigations: fingerprint kill rate, overheads, scheduler defense |
//! | [`opt52`] | §5.2 — attack optimizations: multi-account, repeated attacks |
//! | [`other_factors`] | §5.1 "Other factors" — time-of-day, sizes, generations |
//! | [`calib`] | related work — `/lock`–`/check` threshold calibration (ROC sweep) |
//! | [`ablations`] | DESIGN.md §7 — demand window, popularity, CTest `m`, frequency source |

pub mod ablations;
pub mod calib;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod opt52;
pub mod other_factors;
pub mod sec42;
pub mod sec43;
pub mod sec45;
pub mod sec52;
pub mod sec6;

use std::collections::BTreeSet;

use eaao_cloudsim::ids::InstanceId;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;

use crate::fingerprint::{group_by_fingerprint, Gen1Fingerprint, Gen1Fingerprinter};
use crate::metrics::PairConfusion;
use crate::probe::{probe_fleet, ProbeReading};

/// Gap between successive instance probes in a measurement sweep.
pub(crate) const PROBE_GAP: SimDuration = SimDuration::from_millis(10);

/// Probes a fleet and returns its distinct Gen 1 fingerprints — the
/// *apparent hosts* of Section 5 ("when we rely on fingerprints to identify
/// hosts without verifying them ... we refer to these hosts as the apparent
/// hosts").
pub(crate) fn apparent_hosts(
    world: &mut World,
    instances: &[InstanceId],
    fingerprinter: &Gen1Fingerprinter,
) -> BTreeSet<Gen1Fingerprint> {
    probe_fleet(world, instances, PROBE_GAP)
        .iter()
        .filter_map(|r| fingerprinter.fingerprint(r))
        .collect()
}

/// Groups probed instances by their default Gen 1 fingerprint: the input
/// of hierarchical verification (Section 4.3). Unparseable readings drop
/// out.
pub(crate) fn gen1_groups(readings: &[ProbeReading]) -> Vec<Vec<InstanceId>> {
    let fingerprinter = Gen1Fingerprinter::default();
    let (groups, _) = group_by_fingerprint(readings, |r| fingerprinter.fingerprint(r));
    groups
        .into_iter()
        .map(|(_, members)| members.iter().map(|&i| readings[i].instance).collect())
        .collect()
}

/// FMI of the default Gen 1 fingerprint against the ground-truth hosts; a
/// reading without a fingerprint is a cluster of its own.
pub(crate) fn gen1_fmi(world: &World, readings: &[ProbeReading]) -> f64 {
    let fingerprinter = Gen1Fingerprinter::default();
    let predicted: Vec<String> = readings
        .iter()
        .enumerate()
        .map(|(i, r)| match fingerprinter.fingerprint(r) {
            Some(f) => f.to_string(),
            None => format!("none-{i}"),
        })
        .collect();
    PairConfusion::from_assignments(&predicted, &host_labels(world, readings)).fmi()
}

/// The ground-truth host of each reading's instance.
pub(crate) fn host_labels(world: &World, readings: &[ProbeReading]) -> Vec<u32> {
    readings
        .iter()
        .map(|r| world.host_of(r.instance).as_raw())
        .collect()
}
