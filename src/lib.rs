//! # EAAO — Everywhere All at Once
//!
//! A reproduction of *"Everywhere All at Once: Co-Location Attacks on Public
//! Cloud FaaS"* (Zhao, Morrison, Fletcher, Torrellas — ASPLOS 2024).
//!
//! This facade crate re-exports the workspace's public API. See the
//! individual crates for details:
//!
//! * [`simcore`] — virtual time, event queue, deterministic RNG, statistics.
//! * [`tsc`] — the x86 timestamp-counter model (invariant TSC, offsetting,
//!   frequency refinement, noisy syscall clocks, boot-time derivation).
//! * [`cloudsim`] — physical hosts, Gen 1 / Gen 2 sandboxes, covert-channel
//!   media, Cloud Run pricing.
//! * [`orchestrator`] — the Cloud-Run-like orchestrator (base/helper host
//!   placement, autoscaling, idle reaping) and the simulation
//!   [`World`](orchestrator::world::World).
//! * [`core`] — the paper's attack toolkit: host fingerprinting, scalable
//!   co-location verification, launch strategies, and the per-figure
//!   experiment drivers.
//! * [`campaign`] — the batch campaign engine: declarative experiment
//!   grids run on a resident worker pool, streamed to resumable JSONL with
//!   seeds derived so results are identical at any parallelism.
//! * [`serve`] — the streaming campaign service: a daemon multiplexing
//!   concurrent client submissions over one shared executor, speaking a
//!   dependency-free length-prefixed wire protocol (see
//!   `docs/SERVICE.md`).
//! * [`obs`] — the structured observability layer: span tracing, a
//!   deterministic metrics registry, and JSONL trace files (see
//!   `docs/OBSERVABILITY.md`).
//!
//! # Quickstart
//!
//! ```
//! use eaao::prelude::*;
//!
//! // A small us-west1-like data center, deterministic under seed 7.
//! let mut world = World::new(RegionConfig::us_west1().with_hosts(40), 7);
//! let account = world.create_account();
//! let service = world.deploy_service(account, ServiceSpec::default());
//!
//! // Launch 20 instances and fingerprint their hosts.
//! let launch = world.launch(service, 20).expect("within quota");
//! let fingerprinter = Gen1Fingerprinter::default();
//! let readings = probe_fleet(&mut world, launch.instances(), SimDuration::from_millis(10));
//! let fingerprints: Vec<_> = readings
//!     .iter()
//!     .filter_map(|r| fingerprinter.fingerprint(r))
//!     .collect();
//! assert_eq!(fingerprints.len(), 20);
//! ```

pub use eaao_campaign as campaign;
pub use eaao_cloudsim as cloudsim;
pub use eaao_core as core;
pub use eaao_obs as obs;
pub use eaao_orchestrator as orchestrator;
pub use eaao_serve as serve;
pub use eaao_simcore as simcore;
pub use eaao_tsc as tsc;

/// One-stop import for examples and downstream users.
pub mod prelude {
    pub use eaao_campaign::prelude::*;
    pub use eaao_cloudsim::prelude::*;
    pub use eaao_core::prelude::*;
    pub use eaao_obs::prelude::*;
    pub use eaao_orchestrator::prelude::*;
    pub use eaao_serve::prelude::*;
    pub use eaao_simcore::prelude::*;
    pub use eaao_tsc::prelude::*;
}
