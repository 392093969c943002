//! The ratcheting baseline for semantic findings.
//!
//! `tidy-baseline.json` at the workspace root carries the *known debt* of
//! the call-graph checks: entries keyed by `(check, file, symbol)` — not
//! line numbers, so unrelated edits never invalidate them. The ratchet
//! only turns one way:
//!
//! * a semantic finding with a **justified** matching entry is filtered
//!   out (known debt),
//! * a finding with no entry fails the run (new debt is refused),
//! * an entry matching no finding is itself a finding (fixed debt must be
//!   deleted — the baseline can only shrink), and
//! * an entry with an empty `justification`, a duplicate key, or an
//!   unknown check name is a finding (debt must be owned, once).
//!
//! Lexical findings never pass through the baseline: they are cheap to
//! fix on the spot, and the inline `tidy:allow` mechanism already covers
//! the justified exceptions. Baseline findings themselves
//! ([`CheckId::Baseline`]) are not suppressible or baselinable.

use std::collections::BTreeMap;

use crate::diag::{CheckId, Diagnostic};
use crate::jsonio::{self, Json};

/// Workspace-relative path of the baseline file.
pub const BASELINE_FILE: &str = "tidy-baseline.json";

/// One accepted finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Check name (`panic-reachability`, `determinism-taint`,
    /// `lock-order`).
    pub check: String,
    /// Workspace-relative file of the accepted finding.
    pub file: String,
    /// The finding's stable symbol.
    pub symbol: String,
    /// Why this debt is tolerated (required; empty is a finding).
    pub justification: String,
    /// 1-based line of the entry in the baseline file (0 when built
    /// in-memory rather than parsed).
    pub line: usize,
}

impl Entry {
    fn key(&self) -> (String, String, String) {
        (self.check.clone(), self.file.clone(), self.symbol.clone())
    }
}

/// The parsed baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parses the baseline document. Structural errors (not JSON, missing
    /// fields, wrong version) are unrecoverable and returned as `Err`; the
    /// caller turns them into a [`CheckId::Baseline`] finding.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = jsonio::parse(text)?;
        match doc.get("version") {
            Some(Json::Num(v)) if *v == 1.0 => {}
            _ => return Err("baseline `version` must be 1".to_owned()),
        }
        let Some(Json::Arr(items)) = doc.get("entries") else {
            return Err("baseline must have an `entries` array".to_owned());
        };
        let mut entries = Vec::new();
        for item in items {
            let Json::Obj(_, line) = item else {
                return Err("every baseline entry must be an object".to_owned());
            };
            let field = |name: &str| -> Result<String, String> {
                item.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("line {line}: entry is missing string field `{name}`"))
            };
            entries.push(Entry {
                check: field("check")?,
                file: field("file")?,
                symbol: field("symbol")?,
                justification: field("justification")?,
                line: *line,
            });
        }
        Ok(Baseline { entries })
    }

    /// Renders the baseline deterministically: entries sorted by key,
    /// two-space indent, trailing newline.
    pub fn render(&self) -> String {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(Entry::key);
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
        for (i, e) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"check\": {},\n", jsonio::quote(&e.check)));
            out.push_str(&format!("      \"file\": {},\n", jsonio::quote(&e.file)));
            out.push_str(&format!(
                "      \"symbol\": {},\n",
                jsonio::quote(&e.symbol)
            ));
            out.push_str(&format!(
                "      \"justification\": {}\n",
                jsonio::quote(&e.justification)
            ));
            out.push_str("    }");
        }
        if sorted.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Applies the baseline to the semantic findings: returns the findings
/// that survive (unmatched, or matched by an unjustified entry) plus the
/// baseline's own meta-findings (stale/duplicate/unjustified/unknown
/// entries).
pub fn apply(baseline: &Baseline, semantic: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut meta: Vec<Diagnostic> = Vec::new();
    let mut by_key: BTreeMap<(String, String, String), &Entry> = BTreeMap::new();
    let mut matched: BTreeMap<(String, String, String), bool> = BTreeMap::new();
    for e in &baseline.entries {
        if CheckId::from_name(&e.check).is_none_or(|c| !c.is_semantic()) {
            meta.push(Diagnostic::new(
                BASELINE_FILE,
                e.line,
                CheckId::Baseline,
                format!(
                    "`{}` is not a baselinable check: only semantic (call-graph, \
                     field-level, concurrency) findings may be baselined",
                    e.check
                ),
            ));
            continue;
        }
        if e.justification.trim().is_empty() {
            meta.push(Diagnostic::new(
                BASELINE_FILE,
                e.line,
                CheckId::Baseline,
                format!(
                    "entry ({}, {}, {}) has no justification: say why this debt is \
                     tolerated, or fix the finding and delete the entry",
                    e.check, e.file, e.symbol
                ),
            ));
            continue;
        }
        if by_key.insert(e.key(), e).is_some() {
            meta.push(Diagnostic::new(
                BASELINE_FILE,
                e.line,
                CheckId::Baseline,
                format!("duplicate entry ({}, {}, {})", e.check, e.file, e.symbol),
            ));
            continue;
        }
        matched.insert(e.key(), false);
    }
    let mut surviving = Vec::new();
    for d in semantic {
        let key = (d.check.name().to_owned(), d.file.clone(), d.symbol.clone());
        if let Some(hit) = matched.get_mut(&key) {
            *hit = true;
        } else {
            surviving.push(d);
        }
    }
    for (key, hit) in &matched {
        if !hit {
            let e = by_key[key];
            meta.push(Diagnostic::new(
                BASELINE_FILE,
                e.line,
                CheckId::Baseline,
                format!(
                    "stale entry ({}, {}, {}): the finding no longer fires — delete the \
                     entry so the ratchet tightens",
                    e.check, e.file, e.symbol
                ),
            ));
        }
    }
    meta.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    (surviving, meta)
}

/// Builds the baseline that would make the given semantic findings pass,
/// carrying over justifications from `previous` where keys match. New
/// entries get an empty justification, which is itself a finding until a
/// human writes one — accepting debt is deliberate, twice.
pub fn rebuild(previous: &Baseline, semantic: &[Diagnostic]) -> Baseline {
    let mut carried: BTreeMap<(String, String, String), String> = BTreeMap::new();
    for e in &previous.entries {
        carried.insert(e.key(), e.justification.clone());
    }
    let mut seen: BTreeMap<(String, String, String), ()> = BTreeMap::new();
    let mut entries = Vec::new();
    for d in semantic {
        let key = (d.check.name().to_owned(), d.file.clone(), d.symbol.clone());
        if seen.insert(key.clone(), ()).is_some() {
            continue;
        }
        entries.push(Entry {
            check: key.0.clone(),
            file: key.1.clone(),
            symbol: key.2.clone(),
            justification: carried.get(&key).cloned().unwrap_or_default(),
            line: 0,
        });
    }
    Baseline { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(check: CheckId, file: &str, symbol: &str) -> Diagnostic {
        Diagnostic::new(file, 10, check, "m").with_symbol(symbol)
    }

    #[test]
    fn justified_entries_filter_matching_findings() {
        let b = Baseline {
            entries: vec![Entry {
                check: "lock-order".into(),
                file: "a.rs".into(),
                symbol: "x -> y".into(),
                justification: "historical".into(),
                line: 4,
            }],
        };
        let (surviving, meta) = apply(
            &b,
            vec![
                diag(CheckId::LockOrder, "a.rs", "x -> y"),
                diag(CheckId::LockOrder, "a.rs", "y -> z"),
            ],
        );
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].symbol, "y -> z");
        assert!(meta.is_empty(), "{meta:?}");
    }

    #[test]
    fn stale_unjustified_and_duplicate_entries_are_findings() {
        let entry = |sym: &str, just: &str, line: usize| Entry {
            check: "panic-reachability".into(),
            file: "a.rs".into(),
            symbol: sym.into(),
            justification: just.into(),
            line,
        };
        let b = Baseline {
            entries: vec![
                entry("gone", "was real once", 4),
                entry("dup", "x", 9),
                entry("dup", "x", 14),
                entry("empty", "", 19),
            ],
        };
        let (surviving, meta) = apply(&b, vec![diag(CheckId::PanicReach, "a.rs", "dup")]);
        assert!(surviving.is_empty(), "{surviving:?}");
        let lines: Vec<usize> = meta.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 14, 19], "{meta:?}");
        assert!(meta[0].message.contains("stale"), "{}", meta[0].message);
        assert!(meta[1].message.contains("duplicate"), "{}", meta[1].message);
        assert!(
            meta[2].message.contains("justification"),
            "{}",
            meta[2].message
        );
    }

    #[test]
    fn unjustified_entries_do_not_filter() {
        let b = Baseline {
            entries: vec![Entry {
                check: "lock-order".into(),
                file: "a.rs".into(),
                symbol: "x -> y".into(),
                justification: " ".into(),
                line: 4,
            }],
        };
        let (surviving, meta) = apply(&b, vec![diag(CheckId::LockOrder, "a.rs", "x -> y")]);
        assert_eq!(surviving.len(), 1);
        assert_eq!(meta.len(), 1);
    }

    #[test]
    fn render_parse_round_trip_is_stable() {
        let b = Baseline {
            entries: vec![
                Entry {
                    check: "lock-order".into(),
                    file: "b.rs".into(),
                    symbol: "x \"q\" y".into(),
                    justification: "multi\nline".into(),
                    line: 0,
                },
                Entry {
                    check: "determinism-taint".into(),
                    file: "a.rs".into(),
                    symbol: "p -> q".into(),
                    justification: "j".into(),
                    line: 0,
                },
            ],
        };
        let text = b.render();
        let parsed = Baseline::parse(&text).expect("round-trips");
        // Sorted by key on render.
        assert_eq!(parsed.entries[0].check, "determinism-taint");
        assert_eq!(parsed.entries[1].symbol, "x \"q\" y");
        assert_eq!(parsed.entries[1].justification, "multi\nline");
        assert_eq!(Baseline::parse(&text).expect("stable").render(), text);
    }

    #[test]
    fn rebuild_carries_justifications_for_kept_keys() {
        let prev = Baseline {
            entries: vec![Entry {
                check: "lock-order".into(),
                file: "a.rs".into(),
                symbol: "x -> y".into(),
                justification: "known".into(),
                line: 4,
            }],
        };
        let next = rebuild(
            &prev,
            &[
                diag(CheckId::LockOrder, "a.rs", "x -> y"),
                diag(CheckId::DeterminismTaint, "a.rs", "p -> q"),
            ],
        );
        assert_eq!(next.entries.len(), 2);
        let by_symbol: BTreeMap<&str, &str> = next
            .entries
            .iter()
            .map(|e| (e.symbol.as_str(), e.justification.as_str()))
            .collect();
        assert_eq!(by_symbol["x -> y"], "known");
        assert_eq!(by_symbol["p -> q"], "");
    }
}
