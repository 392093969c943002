//! The per-crate policy table: which checks apply to which crate.
//!
//! This table is the registry of workspace crates. A crate directory that
//! exists under `crates/` but has no row here is itself a finding, and so
//! is a registered crate whose manifest does not opt into the workspace
//! lint table (`[lints] workspace = true`) — adding a crate forces an
//! explicit decision about which rules it lives under. The rules rustc and
//! clippy enforce (unsafe code, docs, panics, sockets, swallowed results,
//! float comparisons and casts) are configured in the root `Cargo.toml`,
//! `clippy.toml`, and crate-level attributes, not here.

/// Where a source file sits in a crate's layout. Library sources carry the
/// full policy; test/example/bench targets are exempt from the determinism
/// check (they are allowed to collect into `HashMap`s and measure
/// wall-clock time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` — library (or binary) code shipped by the crate.
    LibSrc,
    /// `tests/**` — integration tests.
    Tests,
    /// `examples/**`.
    Examples,
    /// `benches/**`.
    Benches,
}

/// Policy row for one workspace crate.
#[derive(Debug, Clone, Copy)]
pub struct CratePolicy {
    /// Package name as in its `Cargo.toml`.
    pub name: &'static str,
    /// Crate directory relative to the workspace root (`""` for the root
    /// facade crate).
    pub dir: &'static str,
    /// Whether the determinism check applies to this crate's library
    /// sources. True for every crate on the simulation-critical path —
    /// anything whose behaviour can reach an oracle trajectory or a
    /// campaign record. False for host-side tools that legitimately read
    /// wall clocks and touch the filesystem.
    pub determinism: bool,
    /// Whether the crate's library sources feed the workspace call graph
    /// that the semantic checks (panic-reachability, determinism-taint,
    /// lock-order) run over. True for the model and host crates whose
    /// APIs call each other (including `serve`, whose dispatcher path the
    /// concurrency checks walk); false for the root facade binary,
    /// `bench`, and this crate — self-analysis of the analyzer would
    /// dominate the findings with its own parser internals.
    pub call_graph: bool,
    /// Whether the crate's types participate in the snapshot/branch
    /// contract, so the field-level checks (`fork-coverage`,
    /// `cow-aliasing`) model its structs. True for the model crates plus
    /// `campaign` (which tees worlds across trials); false for host
    /// tools whose `Clone`s never cross a `World::branch()`.
    pub fork_surface: bool,
    /// Whether the concurrency-lifecycle checks (`thread-lifecycle`,
    /// `queue-bounds`) scan the crate's library sources. True for the
    /// long-running service runtime — `eaao-serve` and the shared
    /// `eaao-campaign` executor — whose threads and queues are exactly the
    /// bug classes of a daemon (dead dispatcher, leaked per-connection
    /// handles, unbounded snapshots).
    /// Implies `call_graph`: the panic-barrier half of thread-lifecycle
    /// walks callees.
    pub concurrency: bool,
}

/// The workspace policy table.
///
/// Simulation-critical (`determinism: true`): `simcore`, `tsc`,
/// `cloudsim`, `orchestrator`, `core`, `oracle`. Host tools
/// (`determinism: false`): the root facade/CLI (`eaao`), the `campaign`
/// runner (wall clocks for elapsed-time reporting, owns the JSONL sink),
/// `obs` (trace files are explicit ambient I/O), `bench` (timing is its
/// job), `serve` (the one crate the root `clippy.toml` socket ban
/// exempts), and this crate (a filesystem scanner by definition).
pub const POLICIES: &[CratePolicy] = &[
    CratePolicy {
        name: "eaao",
        dir: "",
        determinism: false,
        call_graph: false,
        fork_surface: false,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-simcore",
        dir: "crates/simcore",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-tsc",
        dir: "crates/tsc",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-cloudsim",
        dir: "crates/cloudsim",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-orchestrator",
        dir: "crates/orchestrator",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-core",
        dir: "crates/core",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-oracle",
        dir: "crates/oracle",
        determinism: true,
        call_graph: true,
        fork_surface: true,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-campaign",
        dir: "crates/campaign",
        determinism: false,
        call_graph: true,
        fork_surface: true,
        concurrency: true,
    },
    CratePolicy {
        name: "eaao-obs",
        dir: "crates/obs",
        determinism: false,
        call_graph: true,
        fork_surface: false,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-bench",
        dir: "crates/bench",
        determinism: false,
        call_graph: false,
        fork_surface: false,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-tidy",
        dir: "crates/tidy",
        determinism: false,
        call_graph: false,
        fork_surface: false,
        concurrency: false,
    },
    CratePolicy {
        name: "eaao-serve",
        dir: "crates/serve",
        determinism: false,
        call_graph: true,
        fork_surface: false,
        concurrency: true,
    },
];

/// Looks up the policy row for a crate directory.
pub fn policy_for_dir(dir: &str) -> Option<&'static CratePolicy> {
    POLICIES.iter().find(|p| p.dir == dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_unique_and_lookup_works() {
        for (i, a) in POLICIES.iter().enumerate() {
            for b in &POLICIES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate policy row");
                assert_ne!(a.dir, b.dir, "duplicate policy dir");
            }
        }
        assert!(policy_for_dir("crates/simcore").is_some_and(|p| p.determinism));
        assert!(policy_for_dir("crates/campaign").is_some_and(|p| !p.determinism));
        assert!(policy_for_dir("crates/unknown").is_none());
    }

    #[test]
    fn fork_surface_covers_the_model_crates() {
        // Every simulation-critical crate is modelled by the field pass.
        for p in POLICIES {
            assert!(
                !p.determinism || p.fork_surface,
                "{} has determinism without fork_surface",
                p.name
            );
        }
        // campaign tees worlds across trials; serve never forks one.
        assert!(policy_for_dir("crates/campaign").is_some_and(|p| p.fork_surface));
        assert!(policy_for_dir("crates/serve").is_some_and(|p| !p.fork_surface));
    }

    #[test]
    fn concurrency_covers_exactly_the_service_runtime() {
        for p in POLICIES {
            assert_eq!(
                p.concurrency,
                matches!(p.name, "eaao-serve" | "eaao-campaign"),
                "concurrency scope drifted for {}",
                p.name
            );
            // The panic-barrier half of thread-lifecycle needs call
            // edges, so every concurrency crate must feed the graph.
            assert!(
                !p.concurrency || p.call_graph,
                "{} has concurrency without call_graph",
                p.name
            );
        }
    }
}
