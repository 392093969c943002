//! The semantic fixture corpus: mini-workspaces under
//! `tests/fixtures/semantic/` that each pin one call-graph finding to an
//! exact file, line, and symbol — plus a companion proof that the lexical
//! pass alone misses it, which is the whole reason the graph layer exists.
//! The meta check that needs a whole workspace (a crate outside the lint
//! policy) is pinned here too.

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
fn two_hop_panic_reachability_is_pinned_and_lexically_invisible() {
    let root = fixture_root("panic_reach");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let d = &findings[0];
    assert_eq!(d.file, "crates/core/src/lib.rs");
    assert_eq!(d.line, 5);
    assert_eq!(d.check.name(), "panic-reachability");
    assert_eq!(d.symbol, "eaao_core::api");
    assert!(
        d.message
            .contains("`slice indexing` at crates/core/src/lib.rs:14"),
        "{}",
        d.message
    );
    assert!(
        d.message
            .contains("via `eaao_core::mid` -> `eaao_core::deep`"),
        "{}",
        d.message
    );

    // Companion proof: the same file sails through the lexical pass —
    // non-literal indexing two private calls below a `pub fn` is exactly
    // what the per-line checks cannot see.
    let lexical = lexical_only(&root, "crates/core", "crates/core/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn taint_laundered_through_a_host_wrapper_is_pinned_and_lexically_invisible() {
    let root = fixture_root("taint");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let d = &findings[0];
    assert_eq!(d.file, "crates/core/src/lib.rs");
    assert_eq!(d.line, 8);
    assert_eq!(d.check.name(), "determinism-taint");
    assert_eq!(d.symbol, "eaao_core::place -> eaao_campaign::wall_ms");
    assert!(
        d.message
            .contains("`Instant` at crates/campaign/src/lib.rs:6"),
        "{}",
        d.message
    );

    // Companion proof: the critical crate has no banned token of its own,
    // and the host crate is allowed to read the wall clock — both files
    // are lexically clean. Only the cross-crate edge is the violation.
    let core = lexical_only(&root, "crates/core", "crates/core/src/lib.rs");
    assert!(core.is_empty(), "{core:?}");
    let campaign = lexical_only(&root, "crates/campaign", "crates/campaign/src/lib.rs");
    assert!(campaign.is_empty(), "{campaign:?}");
}

#[test]
fn two_mutex_ordering_cycle_is_pinned_and_lexically_invisible() {
    let root = fixture_root("lock_order");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let d = &findings[0];
    assert_eq!(d.file, "crates/obs/src/lib.rs");
    assert_eq!(d.line, 17, "anchored at the first inverted acquisition");
    assert_eq!(d.check.name(), "lock-order");
    assert_eq!(d.symbol, "S.alpha -> S.beta -> S.alpha");
    assert!(d.message.contains("lock-order cycle"), "{}", d.message);
    assert!(
        d.message
            .contains("`S.beta` -> `S.alpha` (crates/obs/src/lib.rs:24)"),
        "{}",
        d.message
    );

    // Companion proof: no lexical check even looks at `.lock()`.
    let lexical = lexical_only(&root, "crates/obs", "crates/obs/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn fork_path_dropping_a_field_is_pinned_and_lexically_invisible() {
    let root = fixture_root("fork_missing_field");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let d = &findings[0];
    assert_eq!(d.file, "crates/simcore/src/lib.rs");
    assert_eq!(d.line, 9, "anchored at the dropped field's declaration");
    assert_eq!(d.check.name(), "fork-coverage");
    assert_eq!(d.symbol, "Stream::fork.epoch");
    assert!(
        d.message.contains("does not mention field `epoch`"),
        "{}",
        d.message
    );

    // `Complete::fork` names every field and raises nothing — the
    // negative half: sanctioned fork paths pass.

    // Companion proof: dropping a field from a struct-update fork body is
    // invisible to both the lexical pass and the call-graph pass (there
    // is no call edge and no banned token — only a missing field name).
    let lexical = lexical_only(&root, "crates/simcore", "crates/simcore/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn arc_write_bypassing_make_mut_is_pinned_and_lexically_invisible() {
    let root = fixture_root("cow_bypass");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 2, "{findings:?}");

    // Interior mutability smuggled into a Clone fork-surface type,
    // anchored at the field.
    let hits = &findings[0];
    assert_eq!(hits.file, "crates/cloudsim/src/lib.rs");
    assert_eq!(hits.line, 11, "anchored at the `Cell` field");
    assert_eq!(hits.check.name(), "cow-aliasing");
    assert_eq!(hits.symbol, "Sampler.hits");
    assert!(hits.message.contains("`Cell`"), "{}", hits.message);

    // The write that dodges `Arc::make_mut`, anchored at the write site.
    let tree = &findings[1];
    assert_eq!(tree.file, "crates/cloudsim/src/lib.rs");
    assert_eq!(tree.line, 32, "anchored at the `Arc::get_mut` write");
    assert_eq!(tree.check.name(), "cow-aliasing");
    assert_eq!(tree.symbol, "Sampler.tree");
    assert!(tree.message.contains("Arc::get_mut"), "{}", tree.message);

    // Negative halves in the same file: `CowSampler::rescale` writes
    // through `Arc::make_mut` and `Scratch` sits outside the fork
    // surface — neither raises anything.

    // Companion proof: `Arc::get_mut` is a perfectly legal call; only the
    // field model knows `tree` is a COW lane of a branchable type.
    let lexical = lexical_only(&root, "crates/cloudsim", "crates/cloudsim/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn a_crate_outside_the_lint_policy_is_a_registration_finding() {
    let root = fixture_root("unlinted");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let d = &findings[0];
    assert_eq!(d.file, "crates/core/Cargo.toml");
    assert_eq!(d.line, 1);
    assert_eq!(d.check.name(), "registration");
    assert!(
        d.message
            .contains("`eaao-core` does not set `[lints] workspace = true`"),
        "{}",
        d.message
    );
}

#[test]
fn text_output_is_byte_identical_across_runs() {
    let root = fixture_root("panic_reach");
    let render = || {
        let findings = scan_workspace(&root).findings;
        findings
            .iter()
            .map(|d| format!("{d}\n"))
            .collect::<String>()
    };
    let first = render();
    assert!(!first.is_empty());
    assert_eq!(
        first,
        render(),
        "the scan must be deterministic to the byte"
    );
}
