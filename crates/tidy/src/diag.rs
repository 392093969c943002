//! Structured diagnostics: `file:line: [check-name] message`.

use std::fmt;

/// The checks this pass can report. The string form (used in diagnostics
/// and in `tidy:allow(...)` suppressions) is kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// Iteration-order hazards, wall-clock reads, ambient I/O, and
    /// non-seeded RNG construction in simulation-critical crates.
    Determinism,
    /// A crate absent from the policy table, a registered crate whose
    /// manifest does not opt into the workspace lint table, or a manifest
    /// or source file of a registered crate that cannot be read.
    Registration,
    /// A malformed, unknown, or unused `tidy:allow` suppression.
    Suppression,
    /// A public API that can transitively reach an undocumented panic
    /// source (call-graph check).
    PanicReach,
    /// A simulation-critical function calling into a host-crate function
    /// that transitively reaches a nondeterminism source (call-graph
    /// check).
    DeterminismTaint,
    /// A potential lock-order cycle, or a lock held across a call into
    /// another lock-taking function (call-graph check).
    LockOrder,
    /// A fork-surface type whose fork-path impl (`clone`/`fork`/
    /// `branch`/`snapshot`) does not mention every field, so a new field's
    /// share-vs-detach behavior was never decided (field-level check).
    ForkCoverage,
    /// An `Arc` field of a fork-surface type written around
    /// `Arc::make_mut`, or interior mutability visible through a sharing
    /// clone (field-level check).
    CowAliasing,
    /// A spawned thread whose `JoinHandle` is discarded or never joined,
    /// or a dispatcher-path worker closure that can panic without a
    /// `catch_unwind` barrier (concurrency check).
    ThreadLifecycle,
    /// A cross-thread queue built unbounded with no `bound:` comment
    /// naming the enforcing mechanism (concurrency check).
    QueueBounds,
    /// Drift between the `proto.rs` wire enums, the frames the peer
    /// actually handles, and the frame tables in `docs/SERVICE.md`
    /// (concurrency check).
    WireSchema,
}

impl CheckId {
    /// The kebab-case name used in diagnostics and suppressions — the one
    /// place a check's name is written.
    pub fn name(self) -> &'static str {
        match self {
            CheckId::Determinism => "determinism",
            CheckId::Registration => "registration",
            CheckId::Suppression => "suppression",
            CheckId::PanicReach => "panic-reachability",
            CheckId::DeterminismTaint => "determinism-taint",
            CheckId::LockOrder => "lock-order",
            CheckId::ForkCoverage => "fork-coverage",
            CheckId::CowAliasing => "cow-aliasing",
            CheckId::ThreadLifecycle => "thread-lifecycle",
            CheckId::QueueBounds => "queue-bounds",
            CheckId::WireSchema => "wire-schema",
        }
    }

    /// Resolves a suppression name back to a check. The `meta` checks
    /// (`registration`, `suppression`) are not suppressible —
    /// findings about the tool's own inputs must be fixed, not silenced.
    pub fn from_name(name: &str) -> Option<CheckId> {
        suppressible().find(|check| check.name() == name)
    }
}

/// The checks a `tidy:allow(...)` may name: every registered check outside
/// the `meta` layer, in registry order.
pub fn suppressible() -> impl Iterator<Item = CheckId> {
    CHECK_REGISTRY
        .iter()
        .filter(|info| info.layer != "meta")
        .map(|info| info.check)
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the check registry: what `--list-checks` prints, and what
/// the drift test holds against the policy table and the docs.
#[derive(Debug, Clone, Copy)]
pub struct CheckInfo {
    /// The check.
    pub check: CheckId,
    /// Analysis layer: `lexical` (per-line), `call-graph` (workspace
    /// function graph), `field-level` (struct/field model), `concurrency`
    /// (thread/queue/wire lifecycle model), or `meta` (findings about the
    /// tool's own inputs, which no suppression can silence).
    pub layer: &'static str,
    /// One-line contract: what a finding means.
    pub contract: &'static str,
    /// Which crates the check scans, in terms of the policy table.
    pub scope: &'static str,
}

/// Every registered check, in `CheckId` order. `--list-checks` renders
/// this table, suppression names resolve against it, and tests assert it
/// stays in sync with [`CheckId`] and `docs/STATIC_ANALYSIS.md`.
pub const CHECK_REGISTRY: &[CheckInfo] = &[
    CheckInfo {
        check: CheckId::Determinism,
        layer: "lexical",
        contract: "no iteration-order, wall-clock, ambient-I/O, or unseeded-RNG hazards",
        scope: "library sources of crates with policy determinism=true",
    },
    CheckInfo {
        check: CheckId::Registration,
        layer: "meta",
        contract: "every crate has a policy row and sets `[lints] workspace = true`; every registered manifest and source file is readable",
        scope: "every crate directory under crates/ and every registered crate",
    },
    CheckInfo {
        check: CheckId::Suppression,
        layer: "meta",
        contract: "every tidy:allow is well-formed, known, justified, and used",
        scope: "every Rust file in the workspace",
    },
    CheckInfo {
        check: CheckId::PanicReach,
        layer: "call-graph",
        contract: "no public API transitively reaches an undocumented panic source",
        scope: "library sources of crates with policy call_graph=true",
    },
    CheckInfo {
        check: CheckId::DeterminismTaint,
        layer: "call-graph",
        contract: "no simulation-critical function reaches a nondeterminism source",
        scope: "crates with policy determinism=true, through call_graph=true callees",
    },
    CheckInfo {
        check: CheckId::LockOrder,
        layer: "call-graph",
        contract: "no lock-order cycles; no lock held across a lock-taking call",
        scope: "library sources of crates with policy call_graph=true",
    },
    CheckInfo {
        check: CheckId::ForkCoverage,
        layer: "field-level",
        contract: "fork-surface types mention every field in each fork-path impl",
        scope: "library sources of crates with policy fork_surface=true",
    },
    CheckInfo {
        check: CheckId::CowAliasing,
        layer: "field-level",
        contract: "Arc fields of fork-surface types written only through Arc::make_mut; no interior mutability visible through a sharing clone",
        scope: "library sources of crates with policy fork_surface=true",
    },
    CheckInfo {
        check: CheckId::ThreadLifecycle,
        layer: "concurrency",
        contract: "every spawned thread is joined, tracked, or justified; dispatcher-path workers carry catch_unwind barriers",
        scope: "library sources of crates with policy concurrency=true",
    },
    CheckInfo {
        check: CheckId::QueueBounds,
        layer: "concurrency",
        contract: "every cross-thread queue is bounded or names its bound in a `bound:` comment",
        scope: "library sources of crates with policy concurrency=true",
    },
    CheckInfo {
        check: CheckId::WireSchema,
        layer: "concurrency",
        contract: "proto.rs wire enums, peer match arms, and docs/SERVICE.md frame tables agree",
        scope: "the service crate's proto.rs/server.rs/client.rs plus docs/SERVICE.md",
    },
];

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// The check that fired.
    pub check: CheckId,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Stable symbol the finding is about (a qualified function name for
    /// the call-graph checks, a cycle signature for lock-order). Empty
    /// for purely lexical findings. The fixture tests pin each semantic
    /// finding by it, and it orders findings that share a line.
    pub symbol: String,
}

impl Diagnostic {
    /// Builds a diagnostic with no symbol (lexical findings).
    pub fn new(file: &str, line: usize, check: CheckId, message: impl Into<String>) -> Self {
        Diagnostic {
            file: file.to_owned(),
            line,
            check,
            message: message.into(),
            symbol: String::new(),
        }
    }

    /// Attaches the stable symbol the finding is about.
    pub fn with_symbol(mut self, symbol: impl Into<String>) -> Self {
        self.symbol = symbol.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_contract() {
        let d = Diagnostic::new("crates/x/src/lib.rs", 7, CheckId::Determinism, "no HashMap");
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [determinism] no HashMap"
        );
    }

    #[test]
    fn names_round_trip() {
        for check in suppressible() {
            assert_eq!(CheckId::from_name(check.name()), Some(check));
        }
        assert_eq!(CheckId::from_name("registration"), None);
        assert_eq!(CheckId::from_name("suppression"), None);
        assert_eq!(CheckId::from_name("bogus"), None);
    }

    #[test]
    fn the_registry_covers_every_check_exactly_once() {
        // CHECK_REGISTRY is in CheckId order and total: strictly
        // ascending ids, one per variant, each with a distinct name.
        for pair in CHECK_REGISTRY.windows(2) {
            assert!(pair[0].check < pair[1].check, "registry out of order");
        }
        assert_eq!(CHECK_REGISTRY.len(), 11, "new CheckId? register it here");
        for (i, a) in CHECK_REGISTRY.iter().enumerate() {
            for b in &CHECK_REGISTRY[i + 1..] {
                assert_ne!(a.check.name(), b.check.name(), "duplicate name");
            }
            // `from_name` reads the `meta` layer, so pin suppressibility
            // per check rather than through the layer it derives from.
            assert_eq!(
                CheckId::from_name(a.check.name()).is_some(),
                !matches!(a.check, CheckId::Registration | CheckId::Suppression),
                "suppressibility drifted for {}",
                a.check
            );
            assert!(!a.contract.is_empty() && !a.scope.is_empty());
            assert!(matches!(
                a.layer,
                "lexical" | "call-graph" | "field-level" | "concurrency" | "meta"
            ));
        }
    }
}
