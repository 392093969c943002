//! Declarative campaign specifications and their expansion into run grids.
//!
//! A [`CampaignSpec`] names the experiments to run and the axes to sweep
//! (region × generation × mitigation × platform × verifier × seed).
//! [`CampaignSpec::expand`] turns it into a flat, deterministically
//! ordered list of [`RunSpec`]s — the unit of work the executor
//! schedules.

use std::fmt;

use eaao_cloudsim::mitigation::TscMitigation;
use eaao_cloudsim::service::Generation;
use eaao_core::verify::VerifierChannel;
use eaao_orchestrator::platform::PlatformKind;
use serde::{Serialize, Value};

use crate::registry::{Experiment, EXPERIMENTS};

/// The paper regions a campaign may sweep.
pub const KNOWN_REGIONS: [&str; 3] = ["us-east1", "us-central1", "us-west1"];

/// Accepted names for the generation axis.
pub const KNOWN_GENERATIONS: [&str; 2] = ["gen1", "gen2"];

/// Accepted names for the mitigation axis.
pub const KNOWN_MITIGATIONS: [&str; 3] = ["none", "trap-and-emulate", "offset-and-scale"];

/// Accepted names for the platform axis (see
/// [`PlatformKind`] and `docs/PLATFORMS.md`).
pub const KNOWN_PLATFORMS: [&str; 3] = ["cloudrun", "lambda-like", "azure-like"];

/// Accepted names for the verifier axis (see
/// [`VerifierChannel`]).
pub const KNOWN_VERIFIERS: [&str; 2] = ["rng-ctest", "membus-lockcheck"];

/// A declarative campaign: experiments × regions × generations ×
/// mitigations × platforms × verifiers × seeds.
///
/// Axes an experiment is not parameterized by are collapsed rather than
/// multiplied, so the grid never contains two runs that would compute the
/// same thing (and every run key stays unique).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignSpec {
    /// Campaign name (used in the output manifest).
    pub name: String,
    /// Experiments to run; see [`EXPERIMENTS`] for the names.
    pub experiments: Vec<String>,
    /// Regions to sweep.
    pub regions: Vec<String>,
    /// Seeds per grid cell (seed indices `0..seeds`).
    pub seeds: u32,
    /// Campaign master seed; per-run seeds derive from it hierarchically.
    pub seed: u64,
    /// Execution-environment generations to sweep.
    pub generations: Vec<String>,
    /// Platform TSC mitigations to sweep.
    pub mitigations: Vec<String>,
    /// Placement-policy platforms to sweep (see [`KNOWN_PLATFORMS`]).
    pub platforms: Vec<String>,
    /// Verification channels to sweep (see [`KNOWN_VERIFIERS`]).
    pub verifiers: Vec<String>,
    /// Use the scaled-down `quick()` experiment configurations.
    pub quick: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_owned(),
            experiments: Vec::new(),
            regions: vec!["us-east1".to_owned()],
            seeds: 1,
            seed: 2_024,
            generations: vec!["gen1".to_owned()],
            mitigations: vec!["none".to_owned()],
            platforms: vec!["cloudrun".to_owned()],
            verifiers: vec!["rng-ctest".to_owned()],
            quick: false,
        }
    }
}

/// A problem with a campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// An experiment name is not one of [`EXPERIMENTS`].
    UnknownExperiment(String),
    /// A region name is not one of [`KNOWN_REGIONS`].
    UnknownRegion(String),
    /// A generation name is not one of [`KNOWN_GENERATIONS`].
    UnknownGeneration(String),
    /// A mitigation name is not one of [`KNOWN_MITIGATIONS`].
    UnknownMitigation(String),
    /// A platform name is not one of [`KNOWN_PLATFORMS`].
    UnknownPlatform(String),
    /// A verifier name is not one of [`KNOWN_VERIFIERS`].
    UnknownVerifier(String),
    /// A sweep axis is empty (no experiments, regions, seeds, ...).
    EmptyAxis(&'static str),
    /// Two grid cells collapsed to the same run key (duplicate axis
    /// entries).
    DuplicateRun(String),
    /// The spec file was not valid JSON.
    Parse(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownExperiment(name) => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                write!(
                    f,
                    "unknown experiment {name:?}; known experiments: {}",
                    known.join(" ")
                )
            }
            SpecError::UnknownRegion(name) => {
                write!(
                    f,
                    "unknown region {name:?}; known regions: {}",
                    KNOWN_REGIONS.join(" ")
                )
            }
            SpecError::UnknownGeneration(name) => {
                write!(
                    f,
                    "unknown generation {name:?}; known generations: {}",
                    KNOWN_GENERATIONS.join(" ")
                )
            }
            SpecError::UnknownMitigation(name) => {
                write!(
                    f,
                    "unknown mitigation {name:?}; known mitigations: {}",
                    KNOWN_MITIGATIONS.join(" ")
                )
            }
            SpecError::UnknownPlatform(name) => {
                write!(
                    f,
                    "unknown platform {name:?}; known platforms: {}",
                    KNOWN_PLATFORMS.join(" ")
                )
            }
            SpecError::UnknownVerifier(name) => {
                write!(
                    f,
                    "unknown verifier {name:?}; known verifiers: {}",
                    KNOWN_VERIFIERS.join(" ")
                )
            }
            SpecError::EmptyAxis(axis) => write!(f, "campaign sweeps no {axis}"),
            SpecError::DuplicateRun(key) => {
                write!(f, "duplicate run {key:?}; remove repeated axis entries")
            }
            SpecError::Parse(message) => write!(f, "invalid campaign spec: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn parse_generation(name: &str) -> Result<Generation, SpecError> {
    Generation::parse(name).ok_or_else(|| SpecError::UnknownGeneration(name.to_owned()))
}

fn parse_mitigation(name: &str) -> Result<TscMitigation, SpecError> {
    TscMitigation::parse(name).ok_or_else(|| SpecError::UnknownMitigation(name.to_owned()))
}

fn parse_platform(name: &str) -> Result<PlatformKind, SpecError> {
    PlatformKind::parse(name).ok_or_else(|| SpecError::UnknownPlatform(name.to_owned()))
}

fn parse_verifier(name: &str) -> Result<VerifierChannel, SpecError> {
    VerifierChannel::parse(name).ok_or_else(|| SpecError::UnknownVerifier(name.to_owned()))
}

impl CampaignSpec {
    /// Parses a spec from its JSON form: an object whose keys are
    /// [`CampaignSpec`] fields. Missing fields take their [`Default`]
    /// values; `experiments` is the only required field.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] for text that is not a JSON object,
    /// a key that names no field, or a field of the wrong type.
    pub fn from_json(text: &str) -> Result<CampaignSpec, SpecError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        let Value::Object(fields) = value else {
            return Err(SpecError::Parse(format!(
                "a spec is a JSON object, not {}",
                value.kind()
            )));
        };
        let string_list = |value: &Value, field: &str| -> Result<Vec<String>, SpecError> {
            value
                .as_array()
                .ok_or_else(|| SpecError::Parse(format!("{field} must be an array of strings")))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| SpecError::Parse(format!("{field} entries must be strings")))
                })
                .collect()
        };
        let mut spec = CampaignSpec::default();
        for (field, v) in &fields {
            match field.as_str() {
                "name" => {
                    spec.name = v
                        .as_str()
                        .ok_or_else(|| SpecError::Parse("name must be a string".to_owned()))?
                        .to_owned();
                }
                "experiments" => spec.experiments = string_list(v, field)?,
                "regions" => spec.regions = string_list(v, field)?,
                "generations" => spec.generations = string_list(v, field)?,
                "mitigations" => spec.mitigations = string_list(v, field)?,
                "platforms" => spec.platforms = string_list(v, field)?,
                "verifiers" => spec.verifiers = string_list(v, field)?,
                "seeds" => {
                    spec.seeds =
                        v.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| {
                                SpecError::Parse("seeds must be a small integer".to_owned())
                            })?;
                }
                "seed" => {
                    spec.seed = v
                        .as_u64()
                        .ok_or_else(|| SpecError::Parse("seed must be an integer".to_owned()))?;
                }
                "quick" => {
                    spec.quick = match v {
                        Value::Bool(b) => *b,
                        _ => return Err(SpecError::Parse("quick must be a boolean".to_owned())),
                    };
                }
                unknown => {
                    return Err(SpecError::Parse(format!(
                        "unknown field {unknown:?}; a spec takes name, experiments, regions, \
                         seeds, seed, generations, mitigations, platforms, verifiers, quick"
                    )));
                }
            }
        }
        Ok(spec)
    }

    /// Checks every name against the known sets without expanding.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.expand().map(|_| ())
    }

    /// Expands the spec into the deterministic, duplicate-free run list.
    pub fn expand(&self) -> Result<Vec<RunSpec>, SpecError> {
        if self.experiments.is_empty() {
            return Err(SpecError::EmptyAxis("experiments"));
        }
        if self.regions.is_empty() {
            return Err(SpecError::EmptyAxis("regions"));
        }
        if self.generations.is_empty() {
            return Err(SpecError::EmptyAxis("generations"));
        }
        if self.mitigations.is_empty() {
            return Err(SpecError::EmptyAxis("mitigations"));
        }
        if self.platforms.is_empty() {
            return Err(SpecError::EmptyAxis("platforms"));
        }
        if self.verifiers.is_empty() {
            return Err(SpecError::EmptyAxis("verifiers"));
        }
        if self.seeds == 0 {
            return Err(SpecError::EmptyAxis("seeds"));
        }
        for region in &self.regions {
            if !KNOWN_REGIONS.contains(&region.as_str()) {
                return Err(SpecError::UnknownRegion(region.clone()));
            }
        }
        let generations: Vec<Generation> = self
            .generations
            .iter()
            .map(|g| parse_generation(g))
            .collect::<Result<_, _>>()?;
        let mitigations: Vec<TscMitigation> = self
            .mitigations
            .iter()
            .map(|m| parse_mitigation(m))
            .collect::<Result<_, _>>()?;
        let platforms: Vec<PlatformKind> = self
            .platforms
            .iter()
            .map(|p| parse_platform(p))
            .collect::<Result<_, _>>()?;
        let verifiers: Vec<VerifierChannel> = self
            .verifiers
            .iter()
            .map(|v| parse_verifier(v))
            .collect::<Result<_, _>>()?;
        let mut runs = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for name in &self.experiments {
            let experiment =
                Experiment::find(name).ok_or_else(|| SpecError::UnknownExperiment(name.clone()))?;
            // Collapse axes the experiment is not parameterized by, so no
            // two runs compute the same thing under different keys.
            let gens: Vec<Option<Generation>> = if experiment.axes.generation {
                generations.iter().copied().map(Some).collect()
            } else {
                vec![None]
            };
            let mits: Vec<Option<TscMitigation>> = if experiment.axes.mitigation {
                mitigations.iter().copied().map(Some).collect()
            } else {
                vec![None]
            };
            let plats: Vec<Option<PlatformKind>> = if experiment.axes.platform {
                platforms.iter().copied().map(Some).collect()
            } else {
                vec![None]
            };
            let vers: Vec<Option<VerifierChannel>> = if experiment.axes.verifier {
                verifiers.iter().copied().map(Some).collect()
            } else {
                vec![None]
            };
            for region in &self.regions {
                for &generation in &gens {
                    for &mitigation in &mits {
                        for &platform in &plats {
                            for &verifier in &vers {
                                for seed_index in 0..self.seeds {
                                    let run = RunSpec {
                                        index: runs.len(),
                                        experiment,
                                        region: region.clone(),
                                        generation,
                                        mitigation,
                                        platform,
                                        verifier,
                                        seed_index,
                                        quick: self.quick,
                                    };
                                    if !seen.insert(run.key()) {
                                        return Err(SpecError::DuplicateRun(run.key()));
                                    }
                                    runs.push(run);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(runs)
    }
}

/// One cell of the expanded campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the expanded grid (defines canonical output order).
    pub index: usize,
    /// The experiment to run.
    pub experiment: &'static Experiment,
    /// Region to run it in.
    pub region: String,
    /// Generation override, when the experiment supports one.
    pub generation: Option<Generation>,
    /// Mitigation override, when the experiment supports one.
    pub mitigation: Option<TscMitigation>,
    /// Placement-policy platform, when the experiment supports one.
    pub platform: Option<PlatformKind>,
    /// Verification channel, when the experiment supports one.
    pub verifier: Option<VerifierChannel>,
    /// Which of the campaign's seeds this run uses.
    pub seed_index: u32,
    /// Use the scaled-down configuration.
    pub quick: bool,
}

impl RunSpec {
    /// The run's stable identity: every axis value, no positional parts —
    /// the same cell keys identically across spec edits that only reorder
    /// or extend the grid.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/s{}{}",
            self.experiment,
            self.region,
            self.generation.map_or("-", Generation::name),
            self.mitigation.map_or("-", TscMitigation::name),
            self.platform.map_or("-", PlatformKind::name),
            self.verifier.map_or("-", VerifierChannel::name),
            self.seed_index,
            if self.quick { "/quick" } else { "" }
        )
    }

    /// The run's *world* identity: the [`key`] segments that determine
    /// how the simulated world is built — region, generation, mitigation,
    /// platform, seed index, and the quick flag — with the experiment and
    /// verifier segments (which only affect what runs *inside* the world)
    /// dropped.
    ///
    /// Grid cells with equal world keys construct byte-identical worlds,
    /// so the executor builds the world once per key and hands each cell
    /// a copy-on-write [`branch`] (see `WorldCache`): the 10M-host
    /// regime makes rebuilding per cell the dominant grid cost.
    ///
    /// [`key`]: RunSpec::key
    /// [`branch`]: eaao_orchestrator::world::World::branch
    pub fn world_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/s{}{}",
            self.region,
            self.generation.map_or("-", Generation::name),
            self.mitigation.map_or("-", TscMitigation::name),
            self.platform.map_or("-", PlatformKind::name),
            self.seed_index,
            if self.quick { "/quick" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> CampaignSpec {
        CampaignSpec {
            experiments: vec!["fig6".to_owned(), "attack-optimized".to_owned()],
            regions: vec!["us-west1".to_owned(), "us-east1".to_owned()],
            seeds: 3,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn expansion_is_a_cross_product_with_collapsed_axes() {
        let runs = base_spec().expand().expect("valid spec");
        // fig6 ignores generation/mitigation/platform/verifier:
        // 2 regions x 3 seeds = 6. attack-optimized sweeps all four:
        // 2 x 1 x 1 x 1 x 1 x 3 = 6.
        assert_eq!(runs.len(), 12);
        let keys: Vec<String> = runs.iter().map(RunSpec::key).collect();
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(keys, deduped);
        assert!(keys[0].starts_with("fig6/us-west1/-/-/-/-/s0"));
        assert!(keys
            .iter()
            .any(|k| k == "attack-optimized/us-east1/gen1/none/cloudrun/rng-ctest/s2"));
    }

    #[test]
    fn platform_and_verifier_axes_multiply_only_supporting_experiments() {
        let mut spec = base_spec();
        spec.platforms = KNOWN_PLATFORMS.iter().map(|&p| p.to_owned()).collect();
        spec.verifiers = KNOWN_VERIFIERS.iter().map(|&v| v.to_owned()).collect();
        spec.experiments.push("calibration".to_owned());
        let runs = spec.expand().expect("valid spec");
        // fig6 still collapses: 2 regions x 3 seeds = 6.
        // attack-optimized: 2 x 1 x 1 x 3 plat x 2 ver x 3 seeds = 36.
        // calibration (no gen/mitigation): 2 x 3 x 2 x 3 = 36.
        assert_eq!(runs.len(), 6 + 36 + 36);
        let keys: Vec<String> = runs.iter().map(RunSpec::key).collect();
        assert!(keys
            .iter()
            .any(|k| k == "calibration/us-west1/-/-/azure-like/membus-lockcheck/s1"));
        assert!(keys
            .iter()
            .any(|k| k == "attack-optimized/us-east1/gen1/none/lambda-like/rng-ctest/s0"));
    }

    #[test]
    fn known_axis_names_match_the_canonical_enums() {
        assert_eq!(
            KNOWN_GENERATIONS.to_vec(),
            Generation::ALL.map(Generation::name).to_vec()
        );
        assert_eq!(
            KNOWN_MITIGATIONS.to_vec(),
            TscMitigation::ALL.map(TscMitigation::name).to_vec()
        );
        assert_eq!(
            KNOWN_PLATFORMS.to_vec(),
            PlatformKind::ALL.map(PlatformKind::name).to_vec()
        );
        assert_eq!(
            KNOWN_VERIFIERS.to_vec(),
            VerifierChannel::ALL.map(VerifierChannel::name).to_vec()
        );
    }

    #[test]
    fn unknown_platform_and_verifier_are_rejected() {
        let mut spec = base_spec();
        spec.platforms = vec!["borg".to_owned()];
        let err = spec.expand().unwrap_err();
        assert_eq!(err, SpecError::UnknownPlatform("borg".to_owned()));
        assert!(err.to_string().contains("lambda-like"));

        let mut spec = base_spec();
        spec.verifiers = vec!["prime-probe".to_owned()];
        let err = spec.expand().unwrap_err();
        assert_eq!(err, SpecError::UnknownVerifier("prime-probe".to_owned()));
        assert!(err.to_string().contains("membus-lockcheck"));
    }

    #[test]
    fn unknown_names_are_rejected_with_the_known_set() {
        let mut spec = base_spec();
        spec.experiments.push("fig99".to_owned());
        let err = spec.expand().unwrap_err();
        assert_eq!(err, SpecError::UnknownExperiment("fig99".to_owned()));
        assert!(err.to_string().contains("fig4"));

        let mut spec = base_spec();
        spec.regions = vec!["eu-mars1".to_owned()];
        assert_eq!(
            spec.expand().unwrap_err(),
            SpecError::UnknownRegion("eu-mars1".to_owned())
        );
    }

    #[test]
    fn duplicate_axis_entries_are_rejected() {
        let mut spec = base_spec();
        spec.experiments = vec!["fig6".to_owned(), "fig6".to_owned()];
        assert!(matches!(
            spec.expand().unwrap_err(),
            SpecError::DuplicateRun(_)
        ));
    }

    #[test]
    fn json_round_trip_applies_defaults() {
        let spec =
            CampaignSpec::from_json(r#"{"experiments": ["fig6"], "seeds": 5, "quick": true}"#)
                .expect("parses");
        assert_eq!(spec.experiments, vec!["fig6".to_owned()]);
        assert_eq!(spec.seeds, 5);
        assert!(spec.quick);
        assert_eq!(spec.regions, vec!["us-east1".to_owned()]);
        assert_eq!(spec.seed, 2_024);
        assert_eq!(spec.platforms, vec!["cloudrun".to_owned()]);
        assert_eq!(spec.verifiers, vec!["rng-ctest".to_owned()]);

        assert!(CampaignSpec::from_json("not json").is_err());
        assert!(CampaignSpec::from_json(r#"{"experiments": "fig6"}"#).is_err());
    }

    #[test]
    fn json_rejects_non_objects_and_unknown_keys() {
        for text in [r#"["fig6"]"#, r#""fig6""#, "3", "null"] {
            assert!(
                matches!(CampaignSpec::from_json(text), Err(SpecError::Parse(_))),
                "accepted {text}"
            );
        }
        // A typo must not silently fall back to a default: "region" and
        // "sedes" would otherwise run one us-east1 cell.
        let typo = r#"{"experiments":["fig6"],"region":["us-west1"],"sedes":3}"#;
        let Err(SpecError::Parse(message)) = CampaignSpec::from_json(typo) else {
            panic!("a misspelled field was accepted");
        };
        assert!(message.contains("\"region\""), "{message}");
        // Every field the spec serializes parses back.
        let spec = base_spec();
        let text = serde_json::to_string(&spec).expect("serializes");
        assert_eq!(CampaignSpec::from_json(&text).expect("parses"), spec);
    }

    #[test]
    fn json_platform_and_verifier_fields_parse() {
        let spec = CampaignSpec::from_json(
            r#"{"experiments": ["calibration"],
                "platforms": ["azure-like", "cloudrun"],
                "verifiers": ["membus-lockcheck"]}"#,
        )
        .expect("parses");
        assert_eq!(
            spec.platforms,
            vec!["azure-like".to_owned(), "cloudrun".to_owned()]
        );
        assert_eq!(spec.verifiers, vec!["membus-lockcheck".to_owned()]);
        // Unknown names are caught at validation, same as the other axes.
        let bad = CampaignSpec {
            experiments: vec!["calibration".to_owned()],
            platforms: vec!["gke".to_owned()],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            bad.validate().unwrap_err(),
            SpecError::UnknownPlatform(_)
        ));
    }
}
