//! CPU model catalog.
//!
//! The Gen 1 fingerprint combines the host boot time with the CPU model name
//! read through the unprivileged `cpuid` instruction (Section 4.1). Cloud
//! fleets mix many CPU generations, and the model-name string carries the
//! labeled base frequency the attacker uses as the reported TSC frequency.

use eaao_tsc::freq::{parse_base_frequency, TscFrequency};
use serde::{Deserialize, Serialize};

/// Index into a data center's CPU model catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuModelId(usize);

impl CpuModelId {
    /// Creates an id from a catalog index.
    pub const fn from_index(index: usize) -> Self {
        CpuModelId(index)
    }

    /// The catalog index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Cache geometry exposed through `cpuid`, in kibibytes per level.
///
/// The paper notes attackers extract the cache hierarchy via `cpuid` for
/// cache side-channel attacks; the fingerprint itself only needs the model
/// name, but a credible host model carries the full structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// L1 data cache size (KiB, per core).
    pub l1d_kib: u32,
    /// L2 cache size (KiB, per core).
    pub l2_kib: u32,
    /// Shared L3 cache size (KiB).
    pub l3_kib: u32,
}

/// What the unprivileged `cpuid` instruction reveals to a program.
///
/// The paper notes attackers use `cpuid` for the model name (fingerprint
/// input) and the cache hierarchy (needed by cache side-channel attacks),
/// and that the Processor Serial Number of the Pentium III era — which
/// would have identified hosts outright — was discontinued for privacy
/// reasons (its footnote 1). On Cloud Run, `cpuid` does not report the TSC
/// frequency either, which forces the labeled-base-frequency fallback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuidInfo {
    /// Brand/model string.
    pub model_name: String,
    /// Cache hierarchy, when the environment exposes it (Gen 1 does; a
    /// Gen 2 hypervisor traps the leaves and may conceal it).
    pub cache: Option<CacheGeometry>,
    /// Whether the invariant-TSC bit is set (true on every host the paper
    /// observed).
    pub invariant_tsc: bool,
    /// TSC frequency as reported by leaf 0x15, when available (absent on
    /// Cloud Run — the reported-frequency method parses the model name
    /// instead).
    pub tsc_frequency_hz: Option<f64>,
    /// The Pentium-III Processor Serial Number — always `None` on the
    /// modern processors the fleet runs.
    pub psn: Option<u64>,
}

/// One CPU model: name string, nominal (labeled) frequency, cache geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    name: String,
    nominal: TscFrequency,
    cache: CacheGeometry,
}

impl CpuModel {
    /// Creates a model whose name embeds a parseable base frequency.
    ///
    /// # Panics
    ///
    /// Panics if the base frequency cannot be parsed back from `name` or
    /// disagrees with `nominal` — the fleet invariant the reported-frequency
    /// method relies on.
    pub fn new(name: impl Into<String>, nominal: TscFrequency, cache: CacheGeometry) -> Self {
        let name = name.into();
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract: fleet model names embed their base frequency"
        )]
        let parsed = parse_base_frequency(&name)
            .unwrap_or_else(|| panic!("model name {name:?} has no parseable base frequency"));
        assert!(
            (parsed.as_hz() - nominal.as_hz()).abs() < 0.5,
            "label disagrees with nominal frequency for {name:?}"
        );
        CpuModel {
            name,
            nominal,
            cache,
        }
    }

    /// The model-name string as returned by `cpuid`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nominal (labeled base) frequency — the attacker's reported TSC
    /// frequency for this model.
    pub fn nominal_frequency(&self) -> TscFrequency {
        self.nominal
    }

    /// The cache geometry.
    pub fn cache(&self) -> CacheGeometry {
        self.cache
    }

    /// What `cpuid` reveals on bare (non-virtualized) hardware of this
    /// model.
    pub fn cpuid_info(&self) -> CpuidInfo {
        CpuidInfo {
            model_name: self.name.clone(),
            cache: Some(self.cache),
            invariant_tsc: true,
            // Cloud Run's processors do not populate leaf 0x15.
            tsc_frequency_hz: None,
            psn: None,
        }
    }
}

/// The default catalog: a fleet mix of Intel Xeon generations with distinct
/// labeled base frequencies, in the style Cloud Run exposes.
///
/// Returns `(model, fleet_weight)` pairs; weights sum to 1 and skew towards
/// the recent high-volume parts.
pub fn default_catalog() -> Vec<(CpuModel, f64)> {
    let xeon = |ghz: f64, l3_mib: u32| {
        CpuModel::new(
            format!("Intel(R) Xeon(R) CPU @ {ghz:.2}GHz"),
            TscFrequency::from_ghz(ghz),
            CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1_024,
                l3_kib: l3_mib * 1_024,
            },
        )
    };
    vec![
        (xeon(2.00, 39), 0.22), // Skylake-SP era
        (xeon(2.20, 55), 0.18), // Broadwell era
        (xeon(2.30, 45), 0.14),
        (xeon(2.25, 32), 0.12), // AMD-competitive SKU, Intel-style label
        (xeon(2.60, 24), 0.10),
        (xeon(2.80, 33), 0.09),
        (xeon(2.10, 28), 0.08),
        (xeon(3.10, 25), 0.07),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reports_its_label() {
        let m = CpuModel::new(
            "Intel(R) Xeon(R) CPU @ 2.20GHz",
            TscFrequency::from_ghz(2.2),
            CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1024,
                l3_kib: 39 * 1024,
            },
        );
        assert_eq!(m.name(), "Intel(R) Xeon(R) CPU @ 2.20GHz");
        assert_eq!(m.nominal_frequency().as_ghz(), 2.2);
        assert_eq!(m.cache().l1d_kib, 32);
    }

    #[test]
    #[should_panic(expected = "no parseable base frequency")]
    fn rejects_unlabeled_name() {
        CpuModel::new(
            "AMD EPYC 7B12",
            TscFrequency::from_ghz(2.25),
            CacheGeometry {
                l1d_kib: 32,
                l2_kib: 512,
                l3_kib: 16 * 1024,
            },
        );
    }

    #[test]
    #[should_panic(expected = "label disagrees with nominal frequency")]
    fn rejects_label_mismatch() {
        CpuModel::new(
            "Intel(R) Xeon(R) CPU @ 2.20GHz",
            TscFrequency::from_ghz(2.0),
            CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1024,
                l3_kib: 39 * 1024,
            },
        );
    }

    #[test]
    fn default_catalog_is_consistent() {
        let catalog = default_catalog();
        assert!(catalog.len() >= 6, "fleet needs model diversity");
        let total: f64 = catalog.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        // All frequencies distinct (Gen 2 fingerprint bins depend on it).
        for (i, (a, _)) in catalog.iter().enumerate() {
            for (b, _) in catalog.iter().skip(i + 1) {
                assert_ne!(
                    a.nominal_frequency().as_hz(),
                    b.nominal_frequency().as_hz(),
                    "duplicate nominal frequency"
                );
            }
        }
    }

    #[test]
    fn model_id_round_trips() {
        assert_eq!(CpuModelId::from_index(3).index(), 3);
    }

    #[test]
    fn cpuid_info_matches_the_papers_observations() {
        let (model, _) = &default_catalog()[0];
        let info = model.cpuid_info();
        assert_eq!(info.model_name, model.name());
        assert!(
            info.invariant_tsc,
            "all observed CPUs support invariant TSC"
        );
        assert!(
            info.tsc_frequency_hz.is_none(),
            "leaf 0x15 absent on Cloud Run"
        );
        assert!(info.psn.is_none(), "PSN discontinued after the Pentium III");
        assert_eq!(info.cache, Some(model.cache()));
    }
}
