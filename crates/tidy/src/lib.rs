//! `eaao-tidy` — the workspace's determinism & hygiene static-analysis pass.
//!
//! Everything this reproduction claims rests on byte-identical determinism:
//! the differential oracle validates the placement/reaper/spill model by
//! byte-equal JSONL trajectories, and campaign results must be identical at
//! any `--jobs`. Tests enforce that contract *after the fact*; this crate
//! enforces it *at the source level*, in the style of rustc's `tidy` — a
//! dependency-free pass built on a masking lexer, so it builds anywhere
//! the workspace does.
//!
//! The rules a compiler lint can check live in the workspace lint table
//! instead (`[workspace.lints]` in the root `Cargo.toml`, `clippy.toml`,
//! and crate-level `#![cfg_attr(not(test), warn(...))]` lines): no
//! `unsafe`, documented public items, no `unwrap`/`panic!` in library
//! code, sockets only in `eaao-serve`, no swallowed `#[must_use]` results
//! in the service runtime, and no float `==` or truncating casts in the
//! simulation crates. This crate keeps what no lint can do.
//!
//! The pass has four layers. The **lexical** checks look at one masked
//! line at a time. The **semantic** checks parse every `src/` file into an
//! item-level model ([`parse`]), assemble a workspace call graph
//! ([`graph`]), and reason about what functions *reach*, not just what
//! they spell — so a wrapper in a host crate can no longer launder
//! `Instant::now()` into the simulation, and a `pub fn` three calls above
//! an `unwrap()` still owes its callers a `# Panics` section. The
//! **field-level** checks ([`fields`]) model the snapshot/branch fork
//! surface — which types flow through `clone`/`fork`/`branch`/`snapshot`,
//! and what each of their fields is made of — so a fork path that forgets
//! a field, or an `Arc` lane written around `Arc::make_mut`, is a
//! finding. The **concurrency** checks model the service runtime's
//! thread lifecycle — spawn sites and the fate of each `JoinHandle`,
//! queue constructions with bounded/unbounded classification, and the
//! wire-protocol enums against the peers and docs that must track them —
//! so a detached worker, an unbounded daemon queue, or a frame the
//! server no longer handles is a finding.
//!
//! # Checks
//!
//! | check | layer | what it forbids |
//! |---|---|---|
//! | `determinism` | lexical | `HashMap`/`HashSet`, `SystemTime`/`Instant`, `std::env`, `std::fs`/`std::net`/`std::process`, and non-seeded RNG construction in simulation-critical crates |
//! | `registration` | meta | a crate under `crates/` with no policy row, a registered crate whose manifest lacks `[lints] workspace = true`, or an unreadable manifest or source file |
//! | `suppression` | meta | malformed, unknown, or unused `tidy:allow` suppressions |
//! | `panic-reachability` | call-graph | a public API that transitively reaches an undocumented panic source |
//! | `determinism-taint` | call-graph | a simulation-critical function calling a host-crate function that transitively reaches a nondeterminism source |
//! | `lock-order` | call-graph | cycles in the `Mutex` acquisition-order graph; locks held across calls into lock-taking functions |
//! | `fork-coverage` | field-level | a fork-surface type whose fork path does not decide every field's share-vs-detach fate (a `derive(Clone)` sharing an `Arc` field, or a fork body that never names a field) |
//! | `cow-aliasing` | field-level | writes to fork-surface `Arc` lanes that dodge `Arc::make_mut`; interior mutability inside a shared `Arc` or on a `Clone` fork-surface type |
//! | `thread-lifecycle` | concurrency | discarded or leaked `JoinHandle`s, and spawned workers that can die to an uncaught panic, in `concurrency` crates |
//! | `queue-bounds` | concurrency | queue constructions that neither fix a capacity nor name their bound in a `// bound: …` comment |
//! | `wire-schema` | concurrency | protocol-enum variants unhandled by the peer or out of sync with the `docs/SERVICE.md` frame tables |
//!
//! The per-crate policy table lives in [`policy`]; which checks apply where
//! is data, not convention.
//!
//! # Suppressions
//!
//! A finding is silenced inline with
//!
//! ```text
//! // tidy:allow(check-name) -- justification
//! ```
//!
//! A trailing comment covers its own line; a comment standing alone on a
//! line covers the next line. The justification is mandatory (a suppression
//! without one is itself a finding), the check name must exist, and a
//! suppression that no longer silences anything is reported as unused so
//! stale escapes cannot accumulate. For the semantic checks a suppression
//! on a function's signature line is also a propagation *barrier*. The
//! lint table's findings are silenced the compiler's way instead:
//! `#[expect(clippy::lint, reason = "why")]` on the narrowest item or
//! statement, which rustc reports once it stops firing. A finding is
//! either fixed or suppressed; there is no other way to accept one.
//!
//! # Running
//!
//! ```text
//! cargo run -p eaao-tidy                       # non-zero exit on any finding
//! cargo run -p eaao-tidy -- --list-checks      # registry: contract + scope per check
//! ```
//!
//! Diagnostics are `file:line: [check-name] message`, sorted by path, and
//! byte-identical across runs on the same tree.

pub mod checks;
pub mod cli;
pub mod diag;
pub mod fields;
pub mod graph;
pub mod parse;
pub mod policy;
pub mod source;
pub mod walk;

pub use diag::{CheckId, Diagnostic};
pub use policy::{CratePolicy, FileKind, POLICIES};
pub use source::SourceFile;
pub use walk::{scan_workspace, ScanOutcome};
