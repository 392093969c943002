//! End-to-end tests over the known-bad fixture corpus in
//! `tests/fixtures/` (a directory the workspace walk skips by contract).
//!
//! Each fixture pins the exact `file:line` every check must report, plus
//! the suppression semantics: a justified `tidy:allow` silences exactly
//! the named check, an unjustified one silences nothing, and an unused
//! one is itself a finding.

use eaao_tidy::checks;
use eaao_tidy::policy::policy_for_dir;
use eaao_tidy::{CheckId, CratePolicy, Diagnostic, FileKind};

fn sim_policy() -> &'static CratePolicy {
    policy_for_dir("crates/core").expect("core is registered")
}

fn host_policy() -> &'static CratePolicy {
    policy_for_dir("crates/campaign").expect("campaign is registered")
}

fn run(policy: &CratePolicy, kind: FileKind, rel: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    checks::check_rust_file(policy, kind, rel, text, &mut diags);
    diags.sort_by_key(|d| (d.line, d.check.name()));
    diags
}

fn lines_of(diags: &[Diagnostic], check: CheckId) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.check == check)
        .map(|d| d.line)
        .collect()
}

#[test]
fn determinism_fixture_fires_at_exact_lines() {
    let text = include_str!("fixtures/determinism.rs");
    let d = run(
        sim_policy(),
        FileKind::LibSrc,
        "crates/core/src/bad.rs",
        text,
    );
    assert_eq!(
        lines_of(&d, CheckId::Determinism),
        vec![3, 4, 5, 6, 9, 10],
        "{d:?}"
    );
    assert_eq!(d.len(), 6, "only determinism findings expected: {d:?}");
}

#[test]
fn determinism_fixture_is_exempt_for_host_crates_and_tests() {
    let text = include_str!("fixtures/determinism.rs");
    let host = run(
        host_policy(),
        FileKind::LibSrc,
        "crates/campaign/src/ok.rs",
        text,
    );
    assert!(lines_of(&host, CheckId::Determinism).is_empty(), "{host:?}");
    let tests = run(
        sim_policy(),
        FileKind::Tests,
        "crates/core/tests/t.rs",
        text,
    );
    assert!(tests.is_empty(), "{tests:?}");
}

#[test]
fn justified_suppressions_silence_exactly_the_named_check() {
    let text = include_str!("fixtures/suppressed.rs");
    let d = run(sim_policy(), FileKind::LibSrc, "crates/core/src/s.rs", text);
    assert!(d.is_empty(), "all findings suppressed, none unused: {d:?}");
}

#[test]
fn unjustified_suppression_does_not_suppress() {
    let text = include_str!("fixtures/unjustified.rs");
    let d = run(sim_policy(), FileKind::LibSrc, "crates/core/src/s.rs", text);
    assert_eq!(lines_of(&d, CheckId::Determinism), vec![4], "{d:?}");
    assert_eq!(lines_of(&d, CheckId::Suppression), vec![3], "{d:?}");
}

#[test]
fn wrong_check_suppression_silences_nothing_and_reads_as_unused() {
    let text = include_str!("fixtures/wrong_check.rs");
    let d = run(sim_policy(), FileKind::LibSrc, "crates/core/src/s.rs", text);
    assert_eq!(lines_of(&d, CheckId::Determinism), vec![4], "{d:?}");
    assert_eq!(lines_of(&d, CheckId::Suppression), vec![3], "{d:?}");
}

#[test]
fn unused_suppression_is_a_finding() {
    let text = include_str!("fixtures/unused.rs");
    let d = run(sim_policy(), FileKind::LibSrc, "crates/core/src/s.rs", text);
    assert_eq!(lines_of(&d, CheckId::Suppression), vec![3], "{d:?}");
    assert_eq!(d.len(), 1, "{d:?}");
}

#[test]
fn diagnostics_render_as_file_line_check_message() {
    let text = include_str!("fixtures/determinism.rs");
    let d = run(sim_policy(), FileKind::LibSrc, "crates/core/src/d.rs", text);
    let rendered = d[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/d.rs:3: [determinism]"),
        "{rendered}"
    );
}
