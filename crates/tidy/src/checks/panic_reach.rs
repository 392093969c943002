//! Panic-reachability: public APIs that can transitively reach a panic.
//!
//! Clippy's panic lints (`unwrap_used`, `panic`) see `unwrap()` on the
//! line it is written; this check follows the call graph, so a `pub fn`
//! that calls a private helper that calls something that slices with a
//! non-literal index is still on the hook. Panic **sources** are `panic!`, `todo!`,
//! `unimplemented!`, bare `unwrap()`, and non-literal indexing (`xs[i]`;
//! `xs[0]` and range slices are exempt). `expect("...")` is deliberately
//! *not* a source: it is the sanctioned spelling for checked invariants.
//!
//! Propagation stops at **barriers**: a function whose docs carry a
//! `# Panics` section (the contract is stated — callers can read it), or
//! one whose signature line carries a justified
//! `tidy:allow(panic-reachability)`. Only `pub` functions are required to
//! document; private helpers merely conduct reachability.

use crate::checks::SuppressionOracle;
use crate::diag::{CheckId, Diagnostic};
use crate::graph::Workspace;

/// Runs the check over the workspace graph, appending post-suppression
/// findings to `out`.
pub fn check(ws: &Workspace, supp: &mut dyn SuppressionOracle, out: &mut Vec<Diagnostic>) {
    let n = ws.fns.len();
    let direct: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| !f.item.panic_sources.is_empty())
        .collect();
    let doc_barrier: Vec<bool> = ws.fns.iter().map(|f| f.item.has_panics_doc).collect();

    // First pass ignores suppression barriers so we only consume a
    // suppression on a function that genuinely reaches a panic — a
    // panic-reachability suppression on a panic-free function stays
    // unused and is flagged by the suppression meta-check.
    let reach0 = reach_fixpoint(ws, &direct, &doc_barrier);
    let mut barrier = doc_barrier.clone();
    let mut self_suppressed = vec![false; n];
    for id in ws.ids() {
        if reach0[id]
            && supp.suppressed(
                ws.fns[id].file_idx,
                ws.fns[id].item.line,
                CheckId::PanicReach,
            )
        {
            barrier[id] = true;
            self_suppressed[id] = true;
        }
    }
    let reach = reach_fixpoint(ws, &direct, &barrier);

    for id in ws.ids() {
        let f = &ws.fns[id];
        if !ws.is_public_api(id)
            || !f.item.has_body
            || f.item.has_panics_doc
            || self_suppressed[id]
            || !reach[id]
        {
            continue;
        }
        let Some((path, src_id, site_line, what)) = witness(ws, id, &direct, &reach, &barrier)
        else {
            continue; // unreachable: reach[id] implies a witness exists
        };
        let via = if path.len() > 1 {
            let hops: Vec<String> = path[1..]
                .iter()
                .map(|&p| format!("`{}`", ws.fns[p].qual))
                .collect();
            format!(" via {}", hops.join(" -> "))
        } else {
            String::new()
        };
        out.push(
            Diagnostic::new(
                &f.rel,
                f.item.line,
                CheckId::PanicReach,
                format!(
                    "public `{}` can reach a panic (`{}` at {}:{}){via}: document it with a \
                     `# Panics` section, or suppress with a justification",
                    f.qual, what, ws.fns[src_id].rel, site_line
                ),
            )
            .with_symbol(&f.qual),
        );
    }
}

/// Backward fixpoint: `reach[i]` iff `i` has a direct source or calls a
/// non-barrier function that reaches one.
fn reach_fixpoint(ws: &Workspace, direct: &[bool], barrier: &[bool]) -> Vec<bool> {
    let n = ws.fns.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for id in 0..n {
        for &(callee, _, _) in &ws.fns[id].edges {
            rev[callee].push(id);
        }
    }
    let mut reach = direct.to_vec();
    let mut work: Vec<usize> = (0..n).filter(|&i| reach[i]).collect();
    while let Some(j) = work.pop() {
        if barrier[j] {
            continue; // reachability does not escape a documented/suppressed fn
        }
        for &i in &rev[j] {
            if !reach[i] {
                reach[i] = true;
                work.push(i);
            }
        }
    }
    reach
}

/// Shortest witness from `id` to a direct source, walking edges in
/// deterministic order. Returns the call path (starting at `id`), the
/// function holding the source, and the source's line/description.
fn witness(
    ws: &Workspace,
    id: usize,
    direct: &[bool],
    reach: &[bool],
    barrier: &[bool],
) -> Option<(Vec<usize>, usize, usize, String)> {
    let n = ws.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[id] = true;
    queue.push_back(id);
    while let Some(at) = queue.pop_front() {
        if direct[at] {
            let mut path = vec![at];
            while let Some(p) = parent[path[path.len() - 1]] {
                path.push(p);
            }
            path.reverse();
            let site = &ws.fns[at].item.panic_sources[0];
            return Some((path, at, site.line, site.what.clone()));
        }
        for &(callee, _, _) in &ws.fns[at].edges {
            if !seen[callee] && reach[callee] && !barrier[callee] {
                seen[callee] = true;
                parent[callee] = Some(at);
                queue.push_back(callee);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphInput, Workspace};
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    struct NoSupp;
    impl SuppressionOracle for NoSupp {
        fn suppressed(&mut self, _: usize, _: usize, _: CheckId) -> bool {
            false
        }
    }

    fn run(text: &str) -> Vec<Diagnostic> {
        let policy = policy_for_dir("crates/core").expect("registered");
        let src = SourceFile::parse(text);
        let model = FileModel::parse("crates/core/src/lib.rs", &src);
        let inputs = [GraphInput {
            rel: "crates/core/src/lib.rs",
            file_idx: 0,
            policy,
            model: &model,
        }];
        let ws = Workspace::build(&inputs);
        let mut out = Vec::new();
        check(&ws, &mut NoSupp, &mut out);
        out
    }

    #[test]
    fn two_hop_reachability_is_flagged_with_a_witness() {
        let d = run(
            "pub fn api() {\n    mid();\n}\nfn mid() {\n    deep();\n}\nfn deep(xs: &[u32], i: usize) -> u32 {\n    xs[i]\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].symbol, "eaao_core::api");
        assert!(d[0].message.contains("slice indexing"), "{}", d[0].message);
        assert!(
            d[0].message
                .contains("`eaao_core::mid` -> `eaao_core::deep`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn panics_doc_is_an_absorbing_barrier() {
        // `mid` documents its panic: neither it (documented) nor `api`
        // (shielded by the barrier) is flagged.
        let d = run(
            "pub fn api() {\n    mid();\n}\n/// # Panics\n/// When out of range.\npub fn mid(xs: &[u32], i: usize) -> u32 {\n    xs[i]\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn private_functions_are_not_required_to_document() {
        let d = run("fn quiet() {\n    panic!(\"boom\");\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn expect_is_not_a_source() {
        let d = run("pub fn api(x: Option<u32>) -> u32 {\n    x.expect(\"checked above\")\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
