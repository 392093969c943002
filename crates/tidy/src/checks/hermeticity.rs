//! The hermeticity check: every dependency in every `Cargo.toml` must
//! resolve inside the repository.
//!
//! The workspace builds offline by construction — external crates exist
//! only as in-tree stand-ins under `vendor/`. A single registry (`foo =
//! "1.0"`, `version = …`) or `git = …` dependency would silently
//! reintroduce network access and unpinned code; this check keeps the
//! guarantee honest, including for the vendor stand-ins themselves.

use crate::diag::{CheckId, Diagnostic};

/// Scans one `Cargo.toml` (already read into `text`; `rel` is the
/// workspace-relative path used in diagnostics).
pub fn check(rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let mut in_dep_section = false;
    // `[dependencies.foo]` table form: (header line, name, saw path/workspace,
    // offending key if any).
    let mut dep_table: Option<(usize, String, bool, Option<String>)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_dep_table(rel, &mut dep_table, out);
            let header = line.trim_matches(|c| c == '[' || c == ']');
            if let Some(name) = header
                .strip_prefix("dependencies.")
                .or_else(|| header.strip_prefix("dev-dependencies."))
                .or_else(|| header.strip_prefix("build-dependencies."))
                .or_else(|| header.strip_prefix("workspace.dependencies."))
            {
                dep_table = Some((idx + 1, name.to_owned(), false, None));
                in_dep_section = false;
            } else {
                in_dep_section = is_dep_section(header);
            }
            continue;
        }
        if let Some((_, _, ok, bad)) = dep_table.as_mut() {
            let key = line.split('=').next().unwrap_or("").trim();
            if key == "path" || (key == "workspace" && line.contains("true")) {
                *ok = true;
            } else if matches!(
                key,
                "git" | "version" | "registry" | "branch" | "tag" | "rev"
            ) {
                *bad = Some(key.to_owned());
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, value)) = split_dep_line(&line) else {
            continue;
        };
        let hermetic = value.contains("path =")
            || value.contains("path=")
            || value.contains("workspace = true")
            || value.contains("workspace=true")
            || name.ends_with(".workspace");
        if !hermetic {
            let name = name.trim_end_matches(".workspace");
            out.push(Diagnostic::new(
                rel,
                idx + 1,
                CheckId::Hermeticity,
                format!(
                    "dependency `{name}` does not resolve in-tree ({value}); the \
                     workspace is hermetic — vendor a stand-in under vendor/ and \
                     use a path or workspace dependency"
                ),
            ));
        }
    }
    flush_dep_table(rel, &mut dep_table, out);
}

fn flush_dep_table(
    rel: &str,
    table: &mut Option<(usize, String, bool, Option<String>)>,
    out: &mut Vec<Diagnostic>,
) {
    if let Some((line, name, ok, bad)) = table.take() {
        if let Some(key) = bad {
            out.push(Diagnostic::new(
                rel,
                line,
                CheckId::Hermeticity,
                format!("dependency table `{name}` uses `{key} = …`; only path/workspace dependencies are allowed"),
            ));
        } else if !ok {
            out.push(Diagnostic::new(
                rel,
                line,
                CheckId::Hermeticity,
                format!("dependency table `{name}` has no `path` or `workspace = true` key"),
            ));
        }
    }
}

fn is_dep_section(header: &str) -> bool {
    header == "dependencies"
        || header == "dev-dependencies"
        || header == "build-dependencies"
        || header == "workspace.dependencies"
        || header.ends_with(".dependencies")
        || header.ends_with(".dev-dependencies")
        || header.ends_with(".build-dependencies")
}

/// Splits `name = value`, ignoring `=` inside the value.
fn split_dep_line(line: &str) -> Option<(&str, &str)> {
    let eq = line.find('=')?;
    let name = line[..eq].trim();
    if name.is_empty() || name.contains(' ') {
        return None;
    }
    Some((name, line[eq + 1..].trim()))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check("Cargo.toml", text, &mut out);
        out
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let toml = r#"
[dependencies]
eaao-simcore = { path = "crates/simcore" }
serde = { path = "vendor/serde", features = ["derive"] }
rand.workspace = true
eaao-core = { workspace = true }

[dev-dependencies]
proptest = { path = "vendor/proptest" }
"#;
        assert!(run(toml).is_empty());
    }

    #[test]
    fn registry_and_git_deps_fail() {
        let toml = r#"
[dependencies]
rand = "0.8"
serde = { version = "1", features = ["derive"] }
foo = { git = "https://example.com/foo" }
"#;
        let d = run(toml);
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert!(d.iter().all(|d| d.check == CheckId::Hermeticity));
    }

    #[test]
    fn dep_tables_are_checked() {
        let good = "[dependencies.serde]\npath = \"vendor/serde\"\nfeatures = [\"derive\"]\n";
        assert!(run(good).is_empty());
        let bad = "[dependencies.rand]\nversion = \"0.8\"\n";
        let d = run(bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        let missing = "[dependencies.rand]\nfeatures = [\"std\"]\n";
        assert_eq!(run(missing).len(), 1);
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let toml = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\n[features]\ndefault = []\n";
        assert!(run(toml).is_empty());
    }
}
