//! The `eaao-tidy` command-line driver behind the `eaao-tidy` binary.
//!
//! ```text
//! eaao-tidy [--root DIR] [--json PATH] [--write-baseline] [--list-checks]
//!           [--timings]
//! ```
//!
//! * `--json PATH` additionally writes the findings as a machine-readable
//!   JSON document (`-` for stdout). The document is byte-identical
//!   across runs on the same tree.
//! * `--timings` prints a per-phase wall-clock breakdown after the scan,
//!   so the analysis' own runtime stays an explicit budget (the CI smoke
//!   step gates on the total).
//! * `--write-baseline` rewrites `tidy-baseline.json` so the current
//!   semantic findings are accepted as known debt, carrying over
//!   justifications for keys that already had them. New entries get an
//!   empty justification, which is itself a finding until a human fills
//!   it in — accepting debt takes two deliberate steps.
//! * `--list-checks` prints every registered check with its one-line
//!   contract and policy scope, straight from the registry the scanner
//!   runs — the listing cannot drift from the implementation.

use std::fs;
use std::path::PathBuf;

use crate::baseline::{self, BASELINE_FILE};
use crate::diag::{Diagnostic, CHECK_REGISTRY};
use crate::jsonio;
use crate::walk;

/// Parsed command line.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    json: Option<String>,
    write_baseline: bool,
    list_checks: bool,
    timings: bool,
}

const USAGE: &str = "usage: eaao-tidy [--root WORKSPACE_DIR] [--json PATH|-] [--write-baseline] \
     [--list-checks] [--timings]";

/// Runs the CLI on already-split arguments (exclusive of the program
/// name). Returns the process exit code: 0 clean, 1 findings, 2 usage
/// error.
pub fn run(args: &[String]) -> u8 {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(path) => opts.root = Some(PathBuf::from(path)),
                None => return usage_error("--root needs a path"),
            },
            "--json" => match it.next() {
                Some(path) => opts.json = Some(path.clone()),
                None => return usage_error("--json needs a path (or `-` for stdout)"),
            },
            "--write-baseline" => opts.write_baseline = true,
            "--list-checks" => opts.list_checks = true,
            "--timings" => opts.timings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if opts.list_checks {
        print!("{}", render_check_list());
        return 0;
    }
    let root = opts.root.unwrap_or_else(default_root);

    let outcome = walk::scan_workspace(&root);

    if opts.write_baseline {
        let previous = walk::load_baseline(&root).unwrap_or_default();
        let next = baseline::rebuild(&previous, &outcome.semantic);
        let holes = next
            .entries
            .iter()
            .filter(|e| e.justification.trim().is_empty())
            .count();
        if let Err(err) = fs::write(root.join(BASELINE_FILE), next.render()) {
            eprintln!("eaao-tidy: cannot write {BASELINE_FILE}: {err}");
            return 2;
        }
        println!(
            "eaao-tidy: wrote {BASELINE_FILE} with {} entr{} ({holes} missing a \
             justification — fill those in before committing)",
            next.entries.len(),
            if next.entries.len() == 1 { "y" } else { "ies" },
        );
        return 0;
    }

    for d in &outcome.findings {
        println!("{d}");
    }
    if opts.timings {
        print!("{}", render_timings(&outcome.timings));
    }
    if let Some(path) = &opts.json {
        let doc = render_json(&outcome.findings);
        if path == "-" {
            print!("{doc}");
        } else if let Err(err) = fs::write(path, doc) {
            eprintln!("eaao-tidy: cannot write {path}: {err}");
            return 2;
        }
    }
    if outcome.findings.is_empty() {
        println!("eaao-tidy: clean");
        0
    } else {
        eprintln!(
            "eaao-tidy: {} finding(s); see docs/STATIC_ANALYSIS.md for the \
             policy, the `// tidy:allow(check) -- why` suppression syntax, \
             and the {BASELINE_FILE} ratchet",
            outcome.findings.len()
        );
        1
    }
}

/// Renders the `--list-checks` table: one line per registered check with
/// its layer, contract, and policy scope, straight from [`CHECK_REGISTRY`].
pub fn render_check_list() -> String {
    let width = CHECK_REGISTRY
        .iter()
        .map(|info| info.check.name().len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for info in CHECK_REGISTRY {
        out.push_str(&format!(
            "{:width$}  [{}] {}\n{:width$}  scope: {}\n",
            info.check.name(),
            info.layer,
            info.contract,
            "",
            info.scope,
        ));
    }
    out
}

/// Renders the `--timings` breakdown: one line per scan phase plus the
/// total, in milliseconds. The `total-ms` line is the machine-readable
/// hook the CI runtime-budget gate greps for.
pub fn render_timings(timings: &[(&'static str, f64)]) -> String {
    let width = timings
        .iter()
        .map(|(label, _)| label.len())
        .max()
        .unwrap_or(0)
        .max("total-ms".len());
    let mut out = String::from("eaao-tidy timings:\n");
    let mut total = 0.0;
    for (label, ms) in timings {
        total += ms;
        out.push_str(&format!("  {label:width$}  {ms:9.2}\n"));
    }
    out.push_str(&format!("  {:width$}  {total:9.2}\n", "total-ms"));
    out
}

/// Renders the findings document: a stable, versioned JSON array sorted
/// the same way the text output is.
pub fn render_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\n      \"file\": {},\n      \"line\": {},\n      \"check\": {},\n      \
             \"symbol\": {},\n      \"message\": {}\n    }}",
            jsonio::quote(&d.file),
            d.line,
            jsonio::quote(d.check.name()),
            jsonio::quote(&d.symbol),
            jsonio::quote(&d.message),
        ));
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn usage_error(msg: &str) -> u8 {
    eprintln!("eaao-tidy: {msg}");
    eprintln!("{USAGE}");
    2
}

/// The workspace that built this binary (`CARGO_MANIFEST_DIR`'s
/// grandparent when that looks like a workspace), else the current
/// directory.
fn default_root() -> PathBuf {
    if let Some(manifest_dir) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let dir = PathBuf::from(manifest_dir);
        for up in dir.ancestors().skip(1) {
            if up.join("Cargo.toml").is_file() && up.join("crates").is_dir() {
                return up.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::CheckId;

    #[test]
    fn json_document_shape_is_stable() {
        let findings = vec![
            Diagnostic::new("a.rs", 3, CheckId::Determinism, "msg \"quoted\""),
            Diagnostic::new("b.rs", 7, CheckId::LockOrder, "cycle").with_symbol("x -> y -> x"),
        ];
        let doc = render_json(&findings);
        let parsed = jsonio::parse(&doc).expect("valid JSON");
        let Some(jsonio::Json::Arr(items)) = parsed.get("findings") else {
            panic!("findings array missing");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("file").and_then(jsonio::Json::as_str),
            Some("a.rs")
        );
        assert_eq!(
            items[1].get("symbol").and_then(jsonio::Json::as_str),
            Some("x -> y -> x")
        );
        assert_eq!(render_json(&findings), doc, "byte-stable");
    }

    #[test]
    fn check_list_names_every_registered_check_once() {
        let listing = render_check_list();
        for info in CHECK_REGISTRY {
            let headers = listing
                .lines()
                .filter(|l| {
                    l.starts_with(&format!("{} ", info.check.name()))
                        && l.contains(&format!("[{}]", info.layer))
                })
                .count();
            assert_eq!(
                headers,
                1,
                "check `{}` must appear exactly once in --list-checks",
                info.check.name()
            );
            assert!(
                listing.contains(info.contract),
                "contract for `{}` missing from --list-checks",
                info.check.name()
            );
            assert!(
                listing.contains(info.scope),
                "scope for `{}` missing from --list-checks",
                info.check.name()
            );
        }
        assert_eq!(render_check_list(), listing, "byte-stable");
    }

    #[test]
    fn empty_findings_render_an_empty_array() {
        let doc = render_json(&[]);
        let parsed = jsonio::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("findings"), Some(&jsonio::Json::Arr(Vec::new())));
    }
}
