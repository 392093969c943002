//! The concurrency fixture corpus: mini-workspaces under
//! `tests/fixtures/semantic/` that each pin the concurrency-lifecycle
//! checks to an exact file, line, and symbol — plus companion proofs
//! that the lexical pass alone misses every one of them, which is the
//! reason the spawn/queue/wire models exist.

use std::path::{Path, PathBuf};

use eaao_tidy::checks;
use eaao_tidy::diag::Diagnostic;
use eaao_tidy::policy::{policy_for_dir, FileKind};
use eaao_tidy::walk::scan_workspace;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(name)
}

/// Runs the lexical layer only (exactly what `check_rust_file` applies)
/// on one fixture file and returns its findings.
fn lexical_only(root: &Path, dir: &str, rel: &str) -> Vec<Diagnostic> {
    let policy = policy_for_dir(dir).expect("fixture reuses a registered crate dir");
    let text = std::fs::read_to_string(root.join(rel)).expect("fixture file exists");
    let mut out = Vec::new();
    checks::check_rust_file(policy, FileKind::LibSrc, rel, &text, &mut out);
    out
}

#[test]
fn spawn_fates_are_pinned_and_lexically_invisible() {
    let root = fixture_root("thread_leak");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 3, "{findings:?}");

    // Statement-position spawn: the handle is discarded on the spot.
    let discarded = &findings[0];
    assert_eq!(discarded.file, "crates/serve/src/lib.rs");
    assert_eq!(discarded.line, 10, "anchored at the spawn");
    assert_eq!(discarded.check.name(), "thread-lifecycle");
    assert_eq!(discarded.symbol, "eaao_serve::detached#spawn0");
    assert!(
        discarded.message.contains("discarded"),
        "{}",
        discarded.message
    );

    // Bound handle that never reappears: a silent detach at scope end.
    let leaked = &findings[1];
    assert_eq!(leaked.file, "crates/serve/src/lib.rs");
    assert_eq!(leaked.line, 14, "anchored at the spawn");
    assert_eq!(leaked.check.name(), "thread-lifecycle");
    assert_eq!(leaked.symbol, "eaao_serve::leaky#spawn0");
    assert!(
        leaked.message.contains("`watcher` is never joined"),
        "{}",
        leaked.message
    );

    // A worker whose closure can panic with no catch_unwind in sight.
    let unsafe_worker = &findings[2];
    assert_eq!(unsafe_worker.file, "crates/serve/src/lib.rs");
    assert_eq!(unsafe_worker.line, 19, "anchored at the spawn");
    assert_eq!(unsafe_worker.check.name(), "thread-lifecycle");
    assert_eq!(unsafe_worker.symbol, "eaao_serve::unsafe_worker#spawn0");
    assert!(
        unsafe_worker.message.contains("via eaao_serve::risky"),
        "{}",
        unsafe_worker.message
    );

    // Negative halves in the same file: `joined` joins its handle and
    // `barriered` wraps the risky call in catch_unwind — neither fires.

    // Companion proof: spawns, bindings, and panic flow are invisible to
    // the per-line checks.
    let lexical = lexical_only(&root, "crates/serve", "crates/serve/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn queue_bounds_are_pinned_and_lexically_invisible() {
    let root = fixture_root("queue_unbounded");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 2, "{findings:?}");

    let deque = &findings[0];
    assert_eq!(deque.file, "crates/serve/src/lib.rs");
    assert_eq!(deque.line, 9, "anchored at the construction");
    assert_eq!(deque.check.name(), "queue-bounds");
    assert_eq!(deque.symbol, "eaao_serve::unbounded_deque#queue0");
    assert!(
        deque.message.contains("`VecDeque::new`"),
        "{}",
        deque.message
    );

    let channel = &findings[1];
    assert_eq!(channel.file, "crates/serve/src/lib.rs");
    assert_eq!(channel.line, 13, "anchored at the construction");
    assert_eq!(channel.check.name(), "queue-bounds");
    assert_eq!(channel.symbol, "eaao_serve::unbounded_channel#queue0");
    assert!(
        channel.message.contains("`mpsc::channel`"),
        "{}",
        channel.message
    );

    // Negative halves: `sync_channel`, `with_capacity`, and the
    // `// bound:`-commented deque raise nothing.

    // Companion proof: every construction is ordinary Rust to the
    // per-line checks — only the queue model sees them.
    let lexical = lexical_only(&root, "crates/serve", "crates/serve/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn wire_schema_drift_is_pinned_and_lexically_invisible() {
    let root = fixture_root("wire_drift");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 3, "{findings:?}");

    // A client frame the server never learned to handle.
    let unhandled = &findings[0];
    assert_eq!(unhandled.file, "crates/serve/src/proto.rs");
    assert_eq!(unhandled.line, 10, "anchored at the variant");
    assert_eq!(unhandled.check.name(), "wire-schema");
    assert_eq!(unhandled.symbol, "ClientFrame::Cancel");
    assert!(
        unhandled
            .message
            .contains("never named in crates/serve/src/server.rs"),
        "{}",
        unhandled.message
    );

    // A documented frame that no longer exists, anchored at the enum.
    let stale = &findings[1];
    assert_eq!(stale.file, "crates/serve/src/proto.rs");
    assert_eq!(stale.line, 14, "anchored at the enum definition");
    assert_eq!(stale.check.name(), "wire-schema");
    assert_eq!(stale.symbol, "ServerFrame::Legacy");
    assert!(
        stale.message.contains("no longer exists"),
        "{}",
        stale.message
    );

    // A live frame the docs never learned, anchored at the variant.
    let undocumented = &findings[2];
    assert_eq!(undocumented.file, "crates/serve/src/proto.rs");
    assert_eq!(undocumented.line, 20, "anchored at the variant");
    assert_eq!(undocumented.check.name(), "wire-schema");
    assert_eq!(undocumented.symbol, "ServerFrame::Progress");
    assert!(
        undocumented.message.contains("missing from"),
        "{}",
        undocumented.message
    );

    // Negative halves: every `ServerFrame` variant is named in
    // client.rs, and the `ClientFrame` table is complete — no peer or
    // doc finding fires for either.

    // Companion proof: the drift spans three files and a markdown table;
    // each file alone is lexically spotless.
    for rel in [
        "crates/serve/src/proto.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/client.rs",
    ] {
        let lexical = lexical_only(&root, "crates/serve", rel);
        assert!(lexical.is_empty(), "{rel}: {lexical:?}");
    }
}
