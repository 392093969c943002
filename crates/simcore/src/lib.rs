//! Simulation substrate for the EAAO reproduction.
//!
//! This crate provides the deterministic foundations every other crate in the
//! workspace builds on:
//!
//! * [`time`] — virtual instants and spans ([`SimTime`], [`SimDuration`]),
//! * [`events`] — a deterministic discrete-event queue ([`EventQueue`]),
//! * [`rng`] — forkable, seedable random number generation ([`SimRng`]),
//! * [`dist`] — the distributions used by the noise and placement models,
//! * [`stats`] — summaries, linear regression, and empirical CDFs,
//! * [`series`] — `(x, y)` series recording for the figure drivers,
//! * [`wsample`] — fixed-point weighted index sampling ([`wsample::IndexSampler`]).
//!
//! Everything is deterministic under a fixed seed: re-running an experiment
//! reproduces the exact same data center, noise, and placement decisions.
//!
//! # Examples
//!
//! ```
//! use eaao_simcore::prelude::*;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut events = EventQueue::new();
//! let due = SimTime::ZERO + SimDuration::from_mins(10);
//! events.schedule(due, "reap");
//! let jitter = Normal::new(0.0, 1e-6).sample(&mut rng);
//! assert_eq!(events.next_due(), Some(due));
//! assert!(jitter.abs() < 1e-4);
//! ```

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod dist;
pub mod events;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod wsample;

pub use events::EventQueue;
pub use rng::SimRng;
pub use series::Series;
pub use time::{SimDuration, SimTime};

/// Convenient glob import of the most common substrate types.
pub mod prelude {
    pub use crate::dist::{weighted_sample_indices, Exponential, LogNormal, Normal, Sample, Zipf};
    pub use crate::events::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::series::Series;
    pub use crate::stats::{linear_fit, Ecdf, LinearFit, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::wsample::{fixed_weight, sample_distinct, FenwickSampler, IndexSampler};
}
