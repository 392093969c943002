//! Workspace traversal and the scan pipeline.
//!
//! The walk is driven by the policy table, not by globbing: each
//! registered crate contributes its `src/`, `tests/`, `examples/`, and
//! `benches/` trees (with [`FileKind`] deciding which checks apply), and
//! its manifest must opt into the workspace lint table (the
//! `registration` check). `vendor/` sources are third-party stand-ins and
//! are not scanned; `tests/fixtures/` subtrees are the analyzer's own
//! known-bad corpus and are skipped by contract.
//!
//! The scan runs in phases over files that are each read and lexed
//! **once**:
//!
//! 1. lexical per-file checks collect raw findings,
//! 2. the item models of all `src/` files feed the workspace call graph,
//!    over which the semantic checks (panic-reachability,
//!    determinism-taint, lock-order) run — consulting and consuming
//!    inline suppressions through a [`SuppressionOracle`] — alongside
//!    the field-level checks and the concurrency-lifecycle checks
//!    (thread-lifecycle, queue-bounds, wire-schema), and
//! 3. suppressions are applied and accounted centrally.
//!
//! Each phase is timed; `--timings` renders the breakdown so the
//! analysis' own runtime stays an explicit budget.

use std::fs;
use std::path::{Path, PathBuf};

use crate::checks::{self, SuppressionOracle};
use crate::diag::{CheckId, Diagnostic};
use crate::fields::{self, FieldModel};
use crate::graph::{GraphInput, Workspace};
use crate::parse::FileModel;
use crate::policy::{policy_for_dir, CratePolicy, FileKind, POLICIES};
use crate::source::SourceFile;

/// The result of a full workspace scan.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Everything that fails the run: lexical and semantic findings that
    /// no suppression silenced, plus the meta findings. Sorted by (file,
    /// line, check, symbol) and deduplicated.
    pub findings: Vec<Diagnostic>,
    /// Wall-clock milliseconds per scan phase, in execution order — what
    /// `--timings` renders, and what the CI runtime-budget gate reads.
    pub timings: Vec<(&'static str, f64)>,
}

/// One scanned Rust file, read and lexed once for all phases.
struct FileCtx {
    rel: String,
    policy: &'static CratePolicy,
    kind: FileKind,
    src: SourceFile,
    used: Vec<bool>,
    raw: Vec<Diagnostic>,
}

/// Adapter giving the semantic checks suppression access across files.
struct WorkspaceSuppressions<'a> {
    files: &'a mut [FileCtx],
}

impl SuppressionOracle for WorkspaceSuppressions<'_> {
    fn suppressed(&mut self, file_idx: usize, line: usize, check: CheckId) -> bool {
        let ctx = &mut self.files[file_idx];
        ctx.src.is_suppressed(line, check, &mut ctx.used)
    }
}

/// Runs the full scan pipeline; see the module docs for the phases.
pub fn scan_workspace(root: &Path) -> ScanOutcome {
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut files: Vec<FileCtx> = Vec::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let mut mark = std::time::Instant::now();
    let mut lap = |label: &'static str, timings: &mut Vec<(&'static str, f64)>| {
        let now = std::time::Instant::now();
        timings.push((label, (now - mark).as_secs_f64() * 1e3));
        mark = now;
    };

    // Read + lex every file once.
    for policy in POLICIES {
        collect_crate(root, policy, &mut files, &mut findings);
    }
    lap("read+lex", &mut timings);

    // Phase 1: lexical checks, raw findings per file.
    for ctx in &mut files {
        checks::lexical_checks(ctx.policy, ctx.kind, &ctx.rel, &ctx.src, &mut ctx.raw);
    }
    lap("lexical", &mut timings);

    // Phase 2: the call graph and the semantic checks. Only `src/` files
    // of graph-participating crates contribute (tests/examples/benches
    // are not part of any API surface; see `CratePolicy::call_graph`).
    let models: Vec<(usize, FileModel)> = files
        .iter()
        .enumerate()
        .filter(|(_, ctx)| ctx.kind == FileKind::LibSrc && ctx.policy.call_graph)
        .map(|(idx, ctx)| (idx, FileModel::parse(&ctx.rel, &ctx.src)))
        .collect();
    let inputs: Vec<GraphInput<'_>> = models
        .iter()
        .map(|(idx, model)| GraphInput {
            rel: &files[*idx].rel,
            file_idx: *idx,
            policy: files[*idx].policy,
            model,
        })
        .collect();
    let ws = Workspace::build(&inputs);
    drop(inputs);
    lap("model+graph", &mut timings);

    // Phase 2b: the field-level model and checks (fork-coverage,
    // cow-aliasing) plus the concurrency-lifecycle checks
    // (thread-lifecycle, queue-bounds, wire-schema) over the same parsed
    // models. Raw pairs are collected while `files`
    // is still borrowed immutably; the suppression oracle (which needs
    // `&mut files`) filters them below.
    let mut field_raw: Vec<(usize, Diagnostic)> = Vec::new();
    {
        let field_inputs: Vec<fields::FileInput<'_>> = models
            .iter()
            .map(|(idx, model)| fields::FileInput {
                rel: &files[*idx].rel,
                file_idx: *idx,
                policy: files[*idx].policy,
                src: &files[*idx].src,
                model,
            })
            .collect();
        let fm = FieldModel::build(&field_inputs);
        checks::fork_cov::check(&fm, &mut field_raw);
        checks::cow::check(&fm, &field_inputs, &mut field_raw);
        checks::threads::check(&ws, &mut field_raw);
        checks::queues::check(&ws, &mut field_raw);
        let service_doc = fs::read_to_string(root.join("docs/SERVICE.md")).ok();
        checks::wire::check(&field_inputs, service_doc.as_deref(), &mut field_raw);
    }
    lap("field+concurrency", &mut timings);

    {
        let mut oracle = WorkspaceSuppressions { files: &mut files };
        checks::panic_reach::check(&ws, &mut oracle, &mut findings);
        checks::taint::check(&ws, &mut oracle, &mut findings);
        checks::lock_order::check(&ws, &mut oracle, &mut findings);
        for (file_idx, diag) in field_raw {
            if !oracle.suppressed(file_idx, diag.line, diag.check) {
                findings.push(diag);
            }
        }
    }
    lap("semantic", &mut timings);

    // Phase 3: apply + account suppressions for the lexical findings.
    // (Semantic findings consulted the oracle when they were emitted.)
    for ctx in &mut files {
        let raw = std::mem::take(&mut ctx.raw);
        checks::filter_suppressed(&ctx.src, raw, &mut ctx.used, &mut findings);
        checks::account_suppressions(&ctx.rel, &ctx.src, &ctx.used, &mut findings);
    }

    check_registration(root, &mut findings);
    sort_diags(&mut findings);
    findings.dedup();
    lap("suppress", &mut timings);
    ScanOutcome { findings, timings }
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check.name(), a.symbol.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.check.name(),
            b.symbol.as_str(),
        ))
    });
}

fn collect_crate(
    root: &Path,
    policy: &'static CratePolicy,
    files: &mut Vec<FileCtx>,
    findings: &mut Vec<Diagnostic>,
) {
    const SUBDIRS: &[(&str, FileKind)] = &[
        ("src", FileKind::LibSrc),
        ("tests", FileKind::Tests),
        ("examples", FileKind::Examples),
        ("benches", FileKind::Benches),
    ];
    let crate_root = root.join(policy.dir);
    for &(subdir, kind) in SUBDIRS {
        let dir = crate_root.join(subdir);
        if !dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&dir, &mut paths);
        paths.sort();
        for path in paths {
            let rel = rel_path(root, &path);
            match fs::read_to_string(&path) {
                Ok(text) => {
                    let src = SourceFile::parse(&text);
                    let used = vec![false; src.suppressions.len()];
                    files.push(FileCtx {
                        rel,
                        policy,
                        kind,
                        src,
                        used,
                        raw: Vec::new(),
                    });
                }
                Err(err) => findings.push(Diagnostic::new(
                    &rel,
                    1,
                    CheckId::Registration,
                    format!("cannot read source file: {err}"),
                )),
            }
        }
    }
}

/// Recursively collects `.rs` files, skipping `fixtures/` subtrees (the
/// analyzer's deliberately-bad test corpus).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `registration` check. Every directory under `crates/` must have a
/// row in the policy table, so adding a crate forces an explicit decision
/// about its rules, and every registered crate's manifest must inherit
/// the workspace lint table, so a new crate cannot slip out of the
/// rustc/clippy policy.
fn check_registration(root: &Path, diags: &mut Vec<Diagnostic>) {
    // A policy row whose crate directory is absent contributes nothing:
    // fixture mini-workspaces materialize only a couple of the registered
    // crates. (A *present* crate with an unreadable manifest is still a
    // finding.)
    for policy in POLICIES
        .iter()
        .filter(|p| p.dir.is_empty() || root.join(p.dir).is_dir())
    {
        let path = root.join(policy.dir).join("Cargo.toml");
        let message = match fs::read_to_string(&path) {
            Ok(text) if inherits_workspace_lints(&text) => continue,
            Ok(_) => format!(
                "`{}` does not set `[lints] workspace = true`; every \
                 workspace crate inherits the lint policy declared in the \
                 root Cargo.toml",
                policy.name
            ),
            Err(err) => format!("cannot read manifest: {err}"),
        };
        let rel = rel_path(root, &path);
        diags.push(Diagnostic::new(&rel, 1, CheckId::Registration, message));
    }

    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs.into_iter().filter(|d| d.is_dir()) {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if policy_for_dir(&format!("crates/{name}")).is_none() {
            diags.push(Diagnostic::new(
                &format!("crates/{name}/Cargo.toml"),
                1,
                CheckId::Registration,
                format!(
                    "crate `{name}` is not registered in eaao-tidy's policy \
                     table (crates/tidy/src/policy.rs); every workspace crate \
                     must declare which checks it lives under"
                ),
            ));
        }
    }
}

/// Whether a manifest's `[lints]` table sets `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for raw in manifest.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints {
            let mut kv = line.splitn(2, '=').map(str::trim);
            if kv.next() == Some("workspace") && kv.next() == Some("true") {
                return true;
            }
        }
    }
    false
}

/// Drops a `# comment` unless the `#` sits inside a quoted string.
pub(crate) fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
