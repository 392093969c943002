//! The workspace symbol table and call graph.
//!
//! [`Workspace::build`] collects every [`crate::parse::FnItem`]
//! from the library sources of every registered crate, then resolves call
//! sites to workspace functions by name: same-file first, then the file's
//! import map, then a capped whole-workspace fallback. Method calls
//! resolve to *every* workspace method of that name (static dispatch is
//! out of reach for a lexical pass, so the graph over-approximates trait
//! calls) except for a denylist of ubiquitous `std` method names, which
//! would otherwise connect everything to everything.
//!
//! Everything is ordered: functions by (file, line), edges by callee id,
//! traversals by sorted neighbor lists — so every downstream diagnostic
//! is byte-stable across runs.

use std::collections::BTreeMap;

use crate::parse::{CallTarget, FileModel, FnItem, Visibility};
use crate::policy::CratePolicy;

/// Method names that never resolve to workspace functions: they are
/// overwhelmingly `std`/vendored receivers, and edges through them would
/// connect the whole graph through `len()`/`push()`-style noise.
const METHOD_DENYLIST: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_nanos",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "bytes",
    "ceil",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "next_back",
    "notify_all",
    "notify_one",
    "ok",
    "or_else",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "product",
    "push",
    "read",
    "remove",
    "replace",
    "reserve",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_once",
    "starts_with",
    "sum",
    "swap",
    "take",
    "then",
    "then_with",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_from",
    "try_into",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "with_capacity",
    "wrapping_add",
    "write",
    "write_all",
    "zip",
];

/// External roots a path call can never resolve into.
const EXTERNAL_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "serde",
    "serde_json",
    "rand",
    "proptest",
    "crossbeam",
    "parking_lot",
];

/// A free-call fallback only fires when the simple name is this rare in
/// the workspace; an ambiguous name resolves to every candidate, and a
/// name more ambiguous than this resolves to none.
const AMBIGUITY_CAP: usize = 8;

/// One function in the workspace table.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// The parsed item.
    pub item: FnItem,
    /// Workspace-relative file path.
    pub rel: String,
    /// Index of the file in the scan (for suppression lookups).
    pub file_idx: usize,
    /// Fully-qualified display name
    /// (`crate_name::module::Type::name`).
    pub qual: String,
    /// Policy of the owning crate.
    pub policy: &'static CratePolicy,
    /// Resolved call edges: (callee fn id, call-site line, locks held at
    /// the call). Sorted by (line, callee).
    pub edges: Vec<(usize, usize, Vec<String>)>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All functions, sorted by (file, line). Ids are indices.
    pub fns: Vec<FnNode>,
    by_simple: BTreeMap<String, Vec<usize>>,
    by_type_method: BTreeMap<(String, String), Vec<usize>>,
}

/// One library source file contributed to the symbol table.
pub struct GraphInput<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Index of the file in the scan (opaque to the graph; carried
    /// through to [`FnNode::file_idx`]).
    pub file_idx: usize,
    /// Owning crate's policy row.
    pub policy: &'static CratePolicy,
    /// The parsed item model.
    pub model: &'a FileModel,
}

impl std::fmt::Debug for GraphInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphInput")
            .field("rel", &self.rel)
            .finish_non_exhaustive()
    }
}

/// `eaao-core` → `eaao_core`: the lib name used in cross-crate paths.
pub fn crate_lib_name(policy: &CratePolicy) -> String {
    policy.name.replace('-', "_")
}

/// Module path of a file inside its crate: `src/lib.rs`/`src/main.rs` →
/// empty, `src/a/b.rs` → `a::b`, `src/a/mod.rs` → `a`.
fn file_module_path(rel: &str, crate_dir: &str) -> Vec<String> {
    let within = rel
        .strip_prefix(crate_dir)
        .unwrap_or(rel)
        .trim_start_matches('/');
    let within = within.strip_prefix("src/").unwrap_or(within);
    let mut parts: Vec<String> = within
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_owned)
        .collect();
    if parts
        .last()
        .is_some_and(|p| p == "lib" || p == "main" || p == "mod")
    {
        parts.pop();
    }
    parts
}

impl Workspace {
    /// Builds the symbol table and resolves every call site.
    pub fn build(inputs: &[GraphInput<'_>]) -> Workspace {
        let mut ws = Workspace::default();
        // Per-fn file model index (parallel to ws.fns) for resolution.
        let mut model_of: Vec<usize> = Vec::new();
        for (input_idx, input) in inputs.iter().enumerate() {
            let crate_name = crate_lib_name(input.policy);
            let file_mods = file_module_path(input.rel, input.policy.dir);
            for item in &input.model.fns {
                let mut qual = vec![crate_name.clone()];
                qual.extend(file_mods.iter().cloned());
                qual.extend(item.module.iter().cloned());
                if let Some(ty) = &item.type_ctx {
                    qual.push(ty.clone());
                }
                qual.push(item.name.clone());
                let id = ws.fns.len();
                ws.by_simple.entry(item.name.clone()).or_default().push(id);
                if let Some(ty) = &item.type_ctx {
                    ws.by_type_method
                        .entry((ty.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                }
                ws.fns.push(FnNode {
                    item: item.clone(),
                    rel: input.rel.to_owned(),
                    file_idx: input.file_idx,
                    qual: qual.join("::"),
                    policy: input.policy,
                    edges: Vec::new(),
                });
                model_of.push(input_idx);
            }
        }
        // Resolve calls.
        for id in 0..ws.fns.len() {
            let input = &inputs[model_of[id]];
            let calls = ws.fns[id].item.calls.clone();
            let mut edges: Vec<(usize, usize, Vec<String>)> = Vec::new();
            for call in &calls {
                for callee in ws.resolve(id, input, &call.target) {
                    if callee != id {
                        edges.push((callee, call.line, call.holding.clone()));
                    }
                }
            }
            edges.sort_by_key(|a| (a.1, a.0));
            edges.dedup();
            ws.fns[id].edges = edges;
        }
        ws
    }

    /// All function ids whose simple name is `name`.
    fn simple(&self, name: &str) -> &[usize] {
        self.by_simple.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves one call target from the body of `caller` to candidate
    /// callee ids (sorted, possibly empty).
    fn resolve(&self, caller: usize, input: &GraphInput<'_>, target: &CallTarget) -> Vec<usize> {
        let mut out = match target {
            CallTarget::Method(name) => self.resolve_method(name),
            CallTarget::Free(name) => self.resolve_free(caller, input, name),
            CallTarget::Path(segs) => self.resolve_path(caller, input, segs),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resolve_method(&self, name: &str) -> Vec<usize> {
        if METHOD_DENYLIST.binary_search(&name).is_ok() {
            return Vec::new();
        }
        let candidates: Vec<usize> = self
            .simple(name)
            .iter()
            .copied()
            .filter(|&id| self.fns[id].item.type_ctx.is_some())
            .collect();
        if candidates.len() > AMBIGUITY_CAP {
            Vec::new()
        } else {
            candidates
        }
    }

    fn resolve_free(&self, caller: usize, input: &GraphInput<'_>, name: &str) -> Vec<usize> {
        // 1. A free function in the same file.
        let caller_file = self.fns[caller].file_idx;
        let same_file: Vec<usize> = self
            .simple(name)
            .iter()
            .copied()
            .filter(|&id| {
                self.fns[id].file_idx == caller_file && self.fns[id].item.type_ctx.is_none()
            })
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        // 2. The file's import map.
        if let Some(path) = input.model.imports.get(name) {
            let resolved = self.resolve_suffix(caller, path);
            if !resolved.is_empty() {
                return resolved;
            }
            if is_external_path(path) {
                return Vec::new();
            }
        }
        // 2b. Glob imports.
        for base in &input.model.globs {
            let mut path = base.clone();
            path.push(name.to_owned());
            let resolved = self.resolve_suffix(caller, &path);
            if !resolved.is_empty() {
                return resolved;
            }
        }
        // 3. Capped whole-workspace fallback on the bare name.
        let all: Vec<usize> = self
            .simple(name)
            .iter()
            .copied()
            .filter(|&id| self.fns[id].item.type_ctx.is_none())
            .collect();
        if all.is_empty() || all.len() > AMBIGUITY_CAP {
            Vec::new()
        } else {
            all
        }
    }

    fn resolve_path(&self, caller: usize, input: &GraphInput<'_>, segs: &[String]) -> Vec<usize> {
        if segs.len() < 2 {
            return Vec::new();
        }
        if is_external_path(segs) {
            return Vec::new();
        }
        let name = segs.last().expect("path has segments").as_str();
        let qualifier = &segs[..segs.len() - 1];
        let ql = qualifier.last().expect("qualifier non-empty");
        // `Type::assoc(…)` / `Self::assoc(…)`.
        if ql == "Self" {
            if let Some(ty) = &self.fns[caller].item.type_ctx {
                return self
                    .by_type_method
                    .get(&(ty.clone(), name.to_owned()))
                    .cloned()
                    .unwrap_or_default();
            }
            return Vec::new();
        }
        if ql.chars().next().is_some_and(char::is_uppercase) {
            // The type name may itself be an import alias; the simple
            // (type, method) index covers both spellings.
            return self
                .by_type_method
                .get(&(ql.clone(), name.to_owned()))
                .cloned()
                .unwrap_or_default();
        }
        // Module-qualified call: expand a leading import alias
        // (`helper::step()` with `use crate::deep::helper;`), then match
        // the path suffix against qualified names.
        let mut expanded: Vec<String> = segs.to_vec();
        if let Some(mapped) = input.model.imports.get(&segs[0]) {
            let mut full = mapped.clone();
            full.extend(segs[1..].iter().cloned());
            expanded = full;
        }
        self.resolve_suffix(caller, &expanded)
    }

    /// Matches a (possibly `crate`/`super`-relative) path against the
    /// qualified names in the table.
    fn resolve_suffix(&self, caller: usize, path: &[String]) -> Vec<usize> {
        if path.is_empty() {
            return Vec::new();
        }
        let mut segs: Vec<String> = Vec::new();
        let mut require_crate: Option<String> = None;
        for (i, seg) in path.iter().enumerate() {
            match seg.as_str() {
                "crate" if i == 0 => {
                    require_crate = Some(crate_lib_name(self.fns[caller].policy));
                }
                "super" | "self" => {} // fuzzy: match by suffix only
                _ => segs.push(seg.clone()),
            }
        }
        let Some(name) = segs.last().cloned() else {
            return Vec::new();
        };
        if segs.first().is_some_and(|s| s.starts_with("eaao")) {
            require_crate = Some(segs[0].clone());
        }
        let suffix = format!("::{}", segs.join("::"));
        self.simple(&name)
            .iter()
            .copied()
            .filter(|&id| {
                let q = &self.fns[id].qual;
                if let Some(c) = &require_crate {
                    // A crate-anchored path must stay in that crate.
                    if !q.starts_with(&format!("{c}::")) {
                        return false;
                    }
                }
                q.ends_with(&suffix) || *q == segs.join("::")
            })
            .collect()
    }

    /// Ids of every function, in deterministic (file, line) order — the
    /// order they were inserted.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.fns.len()
    }

    /// Whether the function is part of a crate's surface: `pub` and not a
    /// bodiless trait signature.
    pub fn is_public_api(&self, id: usize) -> bool {
        self.fns[id].item.vis == Visibility::Public
    }
}

fn is_external_path(path: &[String]) -> bool {
    path.first()
        .is_some_and(|p| EXTERNAL_ROOTS.contains(&p.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    fn build(files: &[(&str, &str, &str)]) -> Workspace {
        let models: Vec<(String, &'static CratePolicy, FileModel)> = files
            .iter()
            .map(|(dir, rel, text)| {
                let policy = policy_for_dir(dir).expect("registered dir");
                let model = FileModel::parse(rel, &SourceFile::parse(text));
                ((*rel).to_owned(), policy, model)
            })
            .collect();
        let inputs: Vec<GraphInput<'_>> = models
            .iter()
            .enumerate()
            .map(|(i, (rel, policy, model))| GraphInput {
                rel,
                file_idx: i,
                policy,
                model,
            })
            .collect();
        Workspace::build(&inputs)
    }

    fn find(ws: &Workspace, qual: &str) -> usize {
        ws.ids()
            .find(|&id| ws.fns[id].qual == qual)
            .unwrap_or_else(|| {
                panic!(
                    "{qual} not in {:?}",
                    ws.fns.iter().map(|f| &f.qual).collect::<Vec<_>>()
                )
            })
    }

    fn callees(ws: &Workspace, id: usize) -> Vec<String> {
        ws.fns[id]
            .edges
            .iter()
            .map(|&(callee, _, _)| ws.fns[callee].qual.clone())
            .collect()
    }

    #[test]
    fn method_denylist_is_sorted_for_binary_search() {
        assert!(METHOD_DENYLIST.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn same_file_calls_resolve_first() {
        let ws = build(&[(
            "crates/core",
            "crates/core/src/lib.rs",
            "pub fn entry() {\n    step();\n}\nfn step() {}\n",
        )]);
        let entry = find(&ws, "eaao_core::entry");
        assert_eq!(callees(&ws, entry), vec!["eaao_core::step"]);
    }

    #[test]
    fn cross_crate_calls_resolve_via_imports_and_paths() {
        let ws = build(&[
            (
                "crates/core",
                "crates/core/src/lib.rs",
                "use eaao_campaign::wall_now;\npub fn record() {\n    wall_now();\n    eaao_campaign::other();\n}\n",
            ),
            (
                "crates/campaign",
                "crates/campaign/src/lib.rs",
                "pub fn wall_now() {}\npub fn other() {}\n",
            ),
        ]);
        let record = find(&ws, "eaao_core::record");
        assert_eq!(
            callees(&ws, record),
            vec!["eaao_campaign::wall_now", "eaao_campaign::other"]
        );
    }

    #[test]
    fn type_methods_resolve_by_type_and_name() {
        let ws = build(&[(
            "crates/obs",
            "crates/obs/src/lib.rs",
            "pub struct C;\nimpl C {\n    pub fn new() -> C {\n        C::init();\n        C\n    }\n    fn init() {}\n}\nfn f(c: &C) {\n    c.poke();\n}\nimpl C {\n    pub fn poke(&self) {}\n}\n",
        )]);
        let new = find(&ws, "eaao_obs::C::new");
        assert_eq!(callees(&ws, new), vec!["eaao_obs::C::init"]);
        let f = find(&ws, "eaao_obs::f");
        assert_eq!(callees(&ws, f), vec!["eaao_obs::C::poke"]);
    }

    #[test]
    fn denylisted_and_external_calls_resolve_to_nothing() {
        let ws = build(&[(
            "crates/core",
            "crates/core/src/lib.rs",
            "pub fn f(xs: &mut Vec<u32>) {\n    xs.push(1);\n    std::mem::take(xs);\n    serde_json::to_string(xs);\n}\npub fn push() {}\n",
        )]);
        let f = find(&ws, "eaao_core::f");
        assert!(callees(&ws, f).is_empty(), "{:?}", callees(&ws, f));
    }

    #[test]
    fn module_files_get_module_paths() {
        let ws = build(&[(
            "crates/core",
            "crates/core/src/strategies/naive.rs",
            "pub fn run() {}\n",
        )]);
        find(&ws, "eaao_core::strategies::naive::run");
    }
}
