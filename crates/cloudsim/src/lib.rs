//! FaaS data-center model for the EAAO reproduction.
//!
//! This crate models everything physical about the platform the paper
//! attacks — the layer *below* the orchestrator:
//!
//! * [`ids`] — typed identifiers for hosts, accounts, services, instances.
//! * [`cpu`] — the CPU model catalog (`cpuid` strings with labeled base
//!   frequencies).
//! * [`host`] — physical hosts: boot times, crystal error ε, refined TSC
//!   frequency, clock-noise profiles, popularity weights.
//! * [`datacenter`] — host populations per region, generated lazily from
//!   an immutable, branch-shared genesis.
//! * [`account`], [`service`], [`instance`] — the FaaS object model,
//!   including Table 1 container sizes and the instance lifecycle.
//! * [`sandbox`] — what attacker code can observe inside Gen 1 (gVisor) and
//!   Gen 2 (lightweight VM) environments.
//! * [`rng_unit`], [`membus`] — the covert-channel contention media.
//! * [`mitigation`] — the Section 6 defenses (TSC trap-and-emulate,
//!   offsetting + scaling) and their timer-overhead model.
//! * [`network`] — the VPC overlay that defeats classic network-based
//!   co-location probing (the paper's motivation, Sections 1 and 7).
//! * [`pricing`] — the Cloud Run billing formula and rates.
//!
//! Paper-section map: [`sandbox`] and [`host`] model §3 (the two execution
//! environments and their TSC exposure), [`rng_unit`] the §4.3 covert
//! channel, [`membus`] the §4.3 pairwise baseline, [`mitigation`] the §6
//! defenses, [`network`] the §1/§7 motivation, and [`pricing`] the cost
//! figures quoted throughout §5.
//!
//! The orchestrator that places instances onto these hosts lives in
//! `eaao-orchestrator`; the attacks live in `eaao-core`. Contention media
//! and host generation feed `eaao-obs` counters
//! (`cloudsim.rng_rounds`, `cloudsim.membus_tests`,
//! `cloudsim.hosts_generated`, …) so campaign records report how hard the
//! simulated hardware was driven.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod account;
pub mod cpu;
pub mod datacenter;
pub mod host;
pub mod ids;
pub mod instance;
pub mod membus;
pub mod mitigation;
pub mod network;
pub mod pricing;
pub mod rng_unit;
pub mod sandbox;
pub mod service;

pub use datacenter::DataCenter;
pub use host::Host;
pub use ids::{AccountId, HostId, InstanceId, ServiceId};
pub use instance::ContainerInstance;
pub use sandbox::{GuestEnv, Sandbox};
pub use service::{ContainerSize, Generation, ServiceSpec};

/// Convenient glob import of the data-center model types.
pub mod prelude {
    pub use crate::account::{Account, Quota, Standing};
    pub use crate::cpu::{CacheGeometry, CpuModel, CpuModelId};
    pub use crate::datacenter::DataCenter;
    pub use crate::host::{Host, HostGenConfig};
    pub use crate::ids::{AccountId, HostId, InstanceId, ServiceId};
    pub use crate::instance::{ContainerInstance, InstanceState};
    pub use crate::membus::{LockCheckProfile, MemoryBus};
    pub use crate::mitigation::{TimerWorkload, TscMitigation};
    pub use crate::network::{network_heuristic_verdict, VpcAddress, VpcFabric};
    pub use crate::pricing::{BillingMeter, Cost, Rates};
    pub use crate::rng_unit::{is_positive, RngUnit};
    pub use crate::sandbox::{Gen1Sandbox, Gen2Sandbox, GuestEnv, Sandbox};
    pub use crate::service::{ContainerSize, Generation, Service, ServiceSpec};
}
