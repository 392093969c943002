//! The repository's own gate: the workspace must scan clean.
//!
//! This is the same pass `cargo run -p eaao-tidy` (and the CI tidy step)
//! performs, wired into `cargo test` so a violation cannot land through
//! either door. "Clean" includes the semantic layer: every call-graph,
//! field-level and concurrency finding is fixed or carries a justified,
//! used `tidy:allow`.

use std::path::{Path, PathBuf};

use eaao_tidy::walk::scan_workspace;

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tidy sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "not a workspace: {root:?}"
    );
    root
}

#[test]
fn the_workspace_scans_clean() {
    let outcome = scan_workspace(&workspace_root());
    let rendered: Vec<String> = outcome.findings.iter().map(|d| d.to_string()).collect();
    assert!(
        outcome.findings.is_empty(),
        "eaao-tidy found {} violation(s):\n{}",
        outcome.findings.len(),
        rendered.join("\n")
    );
}

/// The field-level pass ran and its sanctioned sites are held by *used*
/// suppressions. A `tidy:allow` that nothing fires on is itself a finding
/// (`suppression`: unused), so "the comment is present in the source" plus
/// "the workspace scans clean" together prove the check fired at that
/// exact site — deleting the field mention, the `Arc::make_mut` call, or
/// the check itself would break one of the two halves.
#[test]
fn the_field_level_sanctioned_sites_are_live() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);

    // SimRng: fork detaches by reseeding, never naming the state field.
    let rng = read("crates/simcore/src/rng.rs");
    assert!(
        rng.contains("tidy:allow(fork-coverage)"),
        "SimRng::fork's detach-by-reseed contract must carry a fork-coverage allow"
    );

    // DataCenter: the share-vs-detach decision is written down as a manual
    // Clone naming every field. The genesis it shares is immutable; the
    // per-world touch record is the one interior-mutable field, and it
    // carries a cow-aliasing allow.
    let dc = read("crates/cloudsim/src/datacenter.rs");
    assert!(
        dc.contains("impl Clone for DataCenter"),
        "DataCenter must spell out its share-vs-detach decision in a manual Clone"
    );
    assert!(
        dc.contains("touched: Vec<Cell<u64>>, // tidy:allow(cow-aliasing)"),
        "DataCenter's per-world touch record needs its justified cow-aliasing allow"
    );

    // The COW index types reached only through `E::Sampler`/`E::Capacity`
    // associated types: both spell their share-vs-detach decision in a
    // manual Clone, so deleting a field mention from either fork path is
    // a fork-coverage finding (the acceptance-criterion bug class).
    let ws = read("crates/simcore/src/wsample.rs");
    assert!(
        ws.contains("impl Clone for FenwickSampler"),
        "FenwickSampler must spell out its COW share decision in a manual Clone"
    );
    let engine = read("crates/orchestrator/src/engine.rs");
    assert!(
        engine.contains("impl Clone for IncrementalCapacity"),
        "IncrementalCapacity must spell out its share-vs-detach decision in a manual Clone"
    );
}

/// Counts the `#[expect(<lint>, reason = …)]` attributes in `text`,
/// however rustfmt wrapped them.
fn expects(text: &str, lint: &str) -> usize {
    text.split("#[expect(")
        .skip(1)
        .filter(|rest| rest.trim_start().starts_with(lint))
        .count()
}

/// The concurrency-lifecycle pass ran and its sanctioned sites are held
/// by *used* suppressions and live `// bound:` annotations — the same
/// two-halves proof as the field-level test above: the comment must be
/// present in the source, and the clean gate proves the check actually
/// fired (or was satisfied) at that exact site. The deliberate discards
/// are held by `#[expect(clippy::let_underscore_must_use)]`, whose other
/// half is clippy's `unfulfilled_lint_expectations` under `-D warnings`.
#[test]
fn the_concurrency_sanctioned_sites_are_live() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);

    // The executor pool: its Drop joins discard errors (panics were
    // already delivered through the result channel), the job queue and
    // the result channel are unbounded by construction-counted design,
    // and — since the Condvar wait model landed — its blocking queues
    // need no lock-order suppressions at all.
    let pool = read("crates/campaign/src/pool.rs");
    assert!(
        expects(&pool, "clippy::let_underscore_must_use") >= 3,
        "the pool's deliberate best-effort discards carry justified expectations"
    );
    assert!(
        pool.matches("// bound:").count() >= 2,
        "the pool's unbounded job queue and result channel both name their bounds"
    );
    assert!(
        !pool.contains("tidy:allow(lock-order)"),
        "Condvar::wait releases its guard in the model; the pool's old lock-order \
         suppressions must stay gone"
    );

    // The server: both deques name their bound, the socket-tuning and
    // wakeup-nudge discards are sanctioned, and every other former
    // `let _ =` write was converted to a counted error.
    let server = read("crates/serve/src/server.rs");
    assert!(
        server.matches("// bound:").count() >= 2,
        "the server's outbound and pending deques both name their bounds"
    );
    assert!(
        expects(&server, "clippy::let_underscore_must_use") >= 4,
        "the server's best-effort socket tuning and wakeup nudges carry justified expectations"
    );
    assert!(
        server.contains("fn send_final"),
        "terminal-frame write errors are counted through send_final, not swallowed"
    );
    assert!(
        !server.contains("tidy:allow(lock-order)"),
        "the server's blocking queues need no lock-order suppressions under the \
         Condvar-aware model"
    );

    // The wire contract: both frame tables in docs/SERVICE.md are bound
    // to their enums by the conformance markers the wire-schema check
    // keys on.
    let service_doc = read("docs/SERVICE.md");
    assert!(
        service_doc.contains("<!-- tidy:wire-schema frames: ClientFrame -->")
            && service_doc.contains("<!-- tidy:wire-schema frames: ServerFrame -->"),
        "docs/SERVICE.md must carry both wire-schema conformance markers"
    );
}

/// `--list-checks` and the docs describe the same pass: every registered
/// check appears in the CLI listing and in docs/STATIC_ANALYSIS.md, so
/// neither can silently drift from the policy table the scanner runs.
#[test]
fn the_check_registry_matches_cli_listing_and_docs() {
    let root = workspace_root();
    let listing = eaao_tidy::cli::render_check_list();
    let docs = std::fs::read_to_string(root.join("docs/STATIC_ANALYSIS.md")).expect("docs present");
    for info in eaao_tidy::diag::CHECK_REGISTRY {
        let name = info.check.name();
        assert!(listing.contains(name), "--list-checks is missing `{name}`");
        assert!(
            docs.contains(name),
            "docs/STATIC_ANALYSIS.md does not mention `{name}`"
        );
    }
}
