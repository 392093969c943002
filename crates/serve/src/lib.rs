//! Streaming campaign service for the EAAO reproduction.
//!
//! The batch `eaao campaign` path runs one experiment grid and exits.
//! This crate lifts it into a long-running daemon — the shape the
//! paper's measurement infrastructure actually needs, where many
//! experimenters (and future adaptive-attacker loops) submit campaigns
//! concurrently against one shared simulation budget:
//!
//! * [`proto`] — the dependency-free wire protocol: length-prefixed
//!   JSON frames, version handshake, typed rejection/backpressure
//!   frames, and a symmetric codec used by both sides.
//! * [`server`] — the daemon: bounded admission, a shared executor
//!   multiplexing every campaign's runs, per-client bounded
//!   outbound queues with slow-consumer handling, a plaintext metrics
//!   scrape endpoint, and graceful drain-on-shutdown.
//! * [`client`] — the client library behind `eaao submit` /
//!   `eaao shutdown`.
//!
//! # Determinism
//!
//! Serving adds no scheduling input to any run: per-run seeds are
//! derived from `(campaign seed, run key)` exactly as in the batch
//! path, and every streamed `Record` frame carries the record's exact
//! batch-path serialization — so a served campaign is byte-identical
//! to `eaao campaign` output, modulo `wall_ms`. `docs/SERVICE.md`
//! documents the protocol and the guarantee.
//!
//! This is the one crate in the workspace sanctioned to use `std::net`
//! and spawn service threads; the root `clippy.toml` bans the socket
//! types everywhere, and the attribute below lifts the ban here.

#![allow(
    clippy::disallowed_types,
    reason = "eaao-serve owns the wire protocol, so it is the one crate that opens sockets"
)]
#![cfg_attr(
    not(test),
    warn(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, StreamedRecord, SubmitOutcome};
pub use proto::{
    read_frame, write_frame, ClientFrame, FrameError, ServerFrame, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};

/// The commonly used surface in one import.
pub mod prelude {
    pub use crate::client::{Client, ClientError, StreamedRecord, SubmitOutcome};
    pub use crate::proto::{ClientFrame, FrameError, ServerFrame, PROTOCOL_VERSION};
    pub use crate::server::{ServeConfig, Server};
}
