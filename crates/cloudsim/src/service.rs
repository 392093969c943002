//! Services (functions) and their container specifications.
//!
//! A *service* is a deployed function: a container image plus a resource
//! specification and an execution-environment generation. Table 1 of the
//! paper defines the four container sizes used throughout the evaluation.

use eaao_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::ids::{AccountId, ServiceId};

/// Execution environment generation (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Generation {
    /// gVisor-sandboxed Linux containers — no hardware virtualization; the
    /// Cloud Run default at the time of the paper.
    #[default]
    Gen1,
    /// Lightweight VMs with hardware virtualization (TSC offsetting).
    Gen2,
}

impl Generation {
    /// Every generation, in canonical grid order.
    pub const ALL: [Generation; 2] = [Generation::Gen1, Generation::Gen2];

    /// The canonical grid-axis name (`gen1`, `gen2`).
    pub fn name(self) -> &'static str {
        match self {
            Generation::Gen1 => "gen1",
            Generation::Gen2 => "gen2",
        }
    }

    /// Parses a canonical name; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.name() == name)
    }
}

/// Container resource size (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ContainerSize {
    /// 0.25 vCPU, 256 MB.
    Pico,
    /// 1 vCPU, 512 MB — the paper's default and Cloud Run's standard size.
    #[default]
    Small,
    /// 2 vCPU, 1 GB.
    Medium,
    /// 4 vCPU, 4 GB.
    Large,
    /// A user-defined size (the paper notes users are not limited to the
    /// four studied sizes).
    Custom {
        /// Fractional vCPUs requested.
        vcpus: f64,
        /// Memory in MB.
        memory_mb: u32,
    },
}

impl ContainerSize {
    /// The four catalog sizes of Table 1, in ascending order.
    pub const TABLE1: [ContainerSize; 4] = [
        ContainerSize::Pico,
        ContainerSize::Small,
        ContainerSize::Medium,
        ContainerSize::Large,
    ];

    /// vCPUs requested.
    pub fn vcpus(self) -> f64 {
        match self {
            ContainerSize::Pico => 0.25,
            ContainerSize::Small => 1.0,
            ContainerSize::Medium => 2.0,
            ContainerSize::Large => 4.0,
            ContainerSize::Custom { vcpus, .. } => vcpus,
        }
    }

    /// Memory requested, in MB.
    pub fn memory_mb(self) -> u32 {
        match self {
            ContainerSize::Pico => 256,
            ContainerSize::Small => 512,
            ContainerSize::Medium => 1_024,
            ContainerSize::Large => 4_096,
            ContainerSize::Custom { memory_mb, .. } => memory_mb,
        }
    }

    /// Memory requested, in GB (decimal, as the pricing formula uses).
    pub fn memory_gb(self) -> f64 {
        f64::from(self.memory_mb()) / 1_024.0
    }

    /// A short display label matching the paper's naming.
    pub fn label(self) -> &'static str {
        match self {
            ContainerSize::Pico => "Pico",
            ContainerSize::Small => "Small",
            ContainerSize::Medium => "Medium",
            ContainerSize::Large => "Large",
            ContainerSize::Custom { .. } => "Custom",
        }
    }
}

/// Deployment specification for a service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Container resource size.
    pub size: ContainerSize,
    /// Execution environment generation.
    pub generation: Generation,
    /// Maximum concurrent instances (Cloud Run default: 100; raisable to
    /// 1000).
    pub max_instances: usize,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            size: ContainerSize::Small,
            generation: Generation::Gen1,
            max_instances: 100,
        }
    }
}

impl ServiceSpec {
    /// Returns the spec with a different size.
    pub fn with_size(mut self, size: ContainerSize) -> Self {
        self.size = size;
        self
    }

    /// Returns the spec with a different generation.
    pub fn with_generation(mut self, generation: Generation) -> Self {
        self.generation = generation;
        self
    }

    /// Returns the spec with a raised (or lowered) instance cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_instances` is zero or exceeds the platform hard cap
    /// of 1000.
    pub fn with_max_instances(mut self, max_instances: usize) -> Self {
        assert!(
            (1..=1_000).contains(&max_instances),
            "max_instances must be in 1..=1000"
        );
        self.max_instances = max_instances;
        self
    }
}

/// A deployed service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Service {
    id: ServiceId,
    owner: AccountId,
    spec: ServiceSpec,
    /// When the container image was (re)built; rebuilding invalidates image
    /// caches on hosts (used by the paper's locality-hypothesis test).
    image_built_at: SimTime,
}

impl Service {
    /// Creates a service record.
    pub fn new(id: ServiceId, owner: AccountId, spec: ServiceSpec, now: SimTime) -> Self {
        Service {
            id,
            owner,
            spec,
            image_built_at: now,
        }
    }

    /// The service id.
    pub fn id(&self) -> ServiceId {
        self.id
    }

    /// The owning account.
    pub fn owner(&self) -> AccountId {
        self.owner
    }

    /// The deployment spec.
    pub fn spec(&self) -> ServiceSpec {
        self.spec
    }

    /// When the image was last built.
    pub fn image_built_at(&self) -> SimTime {
        self.image_built_at
    }

    /// Rebuilds the container image at `now` (invalidates host image
    /// caches).
    pub fn rebuild_image(&mut self, now: SimTime) {
        self.image_built_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_match_paper() {
        assert_eq!(ContainerSize::Pico.vcpus(), 0.25);
        assert_eq!(ContainerSize::Pico.memory_mb(), 256);
        assert_eq!(ContainerSize::Small.vcpus(), 1.0);
        assert_eq!(ContainerSize::Small.memory_mb(), 512);
        assert_eq!(ContainerSize::Medium.vcpus(), 2.0);
        assert_eq!(ContainerSize::Medium.memory_mb(), 1_024);
        assert_eq!(ContainerSize::Large.vcpus(), 4.0);
        assert_eq!(ContainerSize::Large.memory_mb(), 4_096);
        assert_eq!(ContainerSize::TABLE1.len(), 4);
    }

    #[test]
    fn memory_gb_and_labels() {
        assert_eq!(ContainerSize::Small.memory_gb(), 0.5);
        assert_eq!(ContainerSize::Large.memory_gb(), 4.0);
        assert_eq!(ContainerSize::Medium.label(), "Medium");
        let custom = ContainerSize::Custom {
            vcpus: 0.5,
            memory_mb: 128,
        };
        assert_eq!(custom.vcpus(), 0.5);
        assert_eq!(custom.memory_mb(), 128);
        assert_eq!(custom.label(), "Custom");
    }

    #[test]
    fn default_spec_is_small_gen1_100() {
        let spec = ServiceSpec::default();
        assert_eq!(spec.size, ContainerSize::Small);
        assert_eq!(spec.generation, Generation::Gen1);
        assert_eq!(spec.max_instances, 100);
    }

    #[test]
    fn builder_methods_chain() {
        let spec = ServiceSpec::default()
            .with_size(ContainerSize::Large)
            .with_generation(Generation::Gen2)
            .with_max_instances(800);
        assert_eq!(spec.size, ContainerSize::Large);
        assert_eq!(spec.generation, Generation::Gen2);
        assert_eq!(spec.max_instances, 800);
    }

    #[test]
    #[should_panic(expected = "max_instances must be in 1..=1000")]
    fn rejects_over_platform_cap() {
        ServiceSpec::default().with_max_instances(1_001);
    }

    #[test]
    fn service_rebuild_updates_image() {
        let mut s = Service::new(
            ServiceId::from_raw(1),
            AccountId::from_raw(2),
            ServiceSpec::default(),
            SimTime::ZERO,
        );
        assert_eq!(s.id(), ServiceId::from_raw(1));
        assert_eq!(s.owner(), AccountId::from_raw(2));
        assert_eq!(s.image_built_at(), SimTime::ZERO);
        s.rebuild_image(SimTime::from_secs(5));
        assert_eq!(s.image_built_at(), SimTime::from_secs(5));
        assert_eq!(s.spec().max_instances, 100);
    }
}
