//! The checks, and the shared per-file plumbing they all use.
//!
//! The lexical check (`determinism`) scans one file at a time;
//! the semantic checks (`panic_reach`, `taint`, `lock_order`) run over the
//! whole-workspace call graph; the field-level checks (`fork_cov`, `cow`)
//! run over the struct/field model; the concurrency checks (`threads`,
//! `queues`, `wire`) run over the per-function lifecycle model. All kinds
//! produce *raw* findings; the driver applies inline suppressions once,
//! centrally, via [`filter_suppressed`] and [`account_suppressions`] —
//! per-check suppression handling is deliberately impossible to
//! re-implement, because a second copy of that logic is how suppression
//! semantics drift.

pub mod cow;
pub mod determinism;
pub mod fork_cov;
pub mod lock_order;
pub mod panic_reach;
pub mod queues;
pub mod taint;
pub mod threads;
pub mod wire;

use crate::diag::{self, CheckId, Diagnostic};
use crate::policy::{CratePolicy, FileKind};
use crate::source::{Line, SourceFile};

/// Finds `pattern` in masked code with identifier boundaries on both ends
/// (`HashMap` does not match `FxHashMap` or `HashMaps`; `std::fs` does
/// match `use std::fs::File`). Returns the byte offset of the first hit.
pub fn find_token(code: &str, pattern: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(pattern) {
        let at = from + rel;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + pattern.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + pattern.len();
    }
    None
}

/// Iterates the non-test lines of a file as `(1-based line number, line)`
/// — the shared `#[cfg(test)]`-region filter every library-code check
/// uses instead of re-implementing the skip.
pub fn lib_code_lines(src: &SourceFile) -> impl Iterator<Item = (usize, &Line)> {
    src.lines
        .iter()
        .enumerate()
        .filter(|(_, line)| !line.in_test)
        .map(|(idx, line)| (idx + 1, line))
}

/// Consults (and consumes) inline suppressions across the workspace.
/// Implemented by the driver; the semantic checks use it both to honor
/// barrier suppressions during propagation and to mark them used so the
/// unused-suppression meta-check stays accurate.
pub trait SuppressionOracle {
    /// Whether `(file_idx, line)` carries a justified suppression for
    /// `check`; a hit is recorded as *used*.
    fn suppressed(&mut self, file_idx: usize, line: usize, check: CheckId) -> bool;
}

/// Runs the per-file lexical checks on one Rust file, appending **raw**
/// (pre-suppression) findings to `raw`.
pub fn lexical_checks(
    policy: &CratePolicy,
    kind: FileKind,
    rel: &str,
    src: &SourceFile,
    raw: &mut Vec<Diagnostic>,
) {
    if policy.determinism && kind == FileKind::LibSrc {
        determinism::check(rel, src, raw);
    }
}

/// Applies the file's inline suppressions to `raw`, pushing the surviving
/// findings to `out` and marking consumed suppressions in `used`.
pub fn filter_suppressed(
    src: &SourceFile,
    raw: Vec<Diagnostic>,
    used: &mut [bool],
    out: &mut Vec<Diagnostic>,
) {
    for d in raw {
        if !src.is_suppressed(d.line, d.check, used) {
            out.push(d);
        }
    }
}

/// Reports the suppression meta-findings for one file: unknown check
/// names, missing justifications, and suppressions that silenced nothing.
pub fn account_suppressions(rel: &str, src: &SourceFile, used: &[bool], out: &mut Vec<Diagnostic>) {
    for (s, used) in src.suppressions.iter().zip(used) {
        if s.check.is_none() {
            let known: Vec<&str> = diag::suppressible().map(CheckId::name).collect();
            out.push(Diagnostic::new(
                rel,
                s.declared_at,
                CheckId::Suppression,
                format!(
                    "unknown check `{}` in tidy:allow (known: {})",
                    s.check_name,
                    known.join(", ")
                ),
            ));
        } else if !s.justified {
            out.push(Diagnostic::new(
                rel,
                s.declared_at,
                CheckId::Suppression,
                format!(
                    "tidy:allow({}) needs a justification: \
                     `// tidy:allow({}) -- why this is sound`",
                    s.check_name, s.check_name
                ),
            ));
        } else if !used {
            out.push(Diagnostic::new(
                rel,
                s.declared_at,
                CheckId::Suppression,
                format!(
                    "unused suppression tidy:allow({}): nothing on the covered \
                     line fires this check — remove it",
                    s.check_name
                ),
            ));
        }
    }
}

/// Runs every source-level check on one Rust file **with** suppression
/// semantics applied — the single-file entry point used by the fixture
/// tests. The workspace driver composes the same pieces itself so the
/// semantic checks can participate in suppression accounting.
pub fn check_rust_file(
    policy: &CratePolicy,
    kind: FileKind,
    rel: &str,
    text: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let src = SourceFile::parse(text);
    let mut raw: Vec<Diagnostic> = Vec::new();
    lexical_checks(policy, kind, rel, &src, &mut raw);
    let mut used = vec![false; src.suppressions.len()];
    filter_suppressed(&src, raw, &mut used, diags);
    account_suppressions(rel, &src, &used, diags);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(find_token("use std::collections::HashMap;", "HashMap").is_some());
        assert!(find_token("type FxHashMap = ();", "HashMap").is_none());
        assert!(find_token("fn hashmaps()", "HashMap").is_none());
        assert!(find_token("use std::fs::File;", "std::fs").is_some());
        assert!(find_token("use mystd::fs;", "std::fs").is_none());
    }

    #[test]
    fn lib_code_lines_skips_test_regions() {
        let src = SourceFile::parse("use a;\n#[cfg(test)]\nmod tests {\n    use b;\n}\nuse c;");
        let numbers: Vec<usize> = lib_code_lines(&src).map(|(n, _)| n).collect();
        assert_eq!(numbers, vec![1, 6]);
    }
}
