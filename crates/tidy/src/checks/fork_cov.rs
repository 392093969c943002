//! `fork-coverage`: every field of a fork-surface type must be mentioned
//! in each of its fork-path impls.
//!
//! This is the static form of the SimClock bug: PR 8 added a struct field
//! whose share-vs-detach behavior was never decided, and a sharing
//! `derive(Clone)` silently leaked simulated time across
//! `World::branch()`. The check makes that decision mandatory:
//!
//! - A manual `clone`/`fork`/`branch`/`snapshot` that re-produces the
//!   type (returns `Self` or the type by name) must name every field (or
//!   enum variant) in its body — a missing mention means a new field was
//!   added without deciding what the fork path does with it. A pure
//!   delegator (no field mentions, calls another fork-path fn, like
//!   `World::branch` = `self.clone()`) hands the obligation to its
//!   delegate.
//! - `derive(Clone)` on a fork-surface type with an `Arc` field is a
//!   finding on its own: the derive shares the pointee without anyone
//!   writing that decision down. Either impl `Clone` manually (the
//!   mention requirement then documents each field) or suppress at the
//!   field with the sanctioned-sharing justification.
//!
//! Findings anchor at the field's declaration line with symbol
//! `Type.field` (or `Type::fn.field` for a missing mention), so inline
//! suppressions sit on the field.

use crate::diag::{CheckId, Diagnostic};
use crate::fields::{classify, has_named_fields, returns_self, FieldModel};

/// Runs the check over the field model, appending raw
/// `(file_idx, finding)` pairs (the driver applies suppressions).
pub fn check(model: &FieldModel, out: &mut Vec<(usize, Diagnostic)>) {
    for t in model.fork_surface() {
        if !has_named_fields(&t.def) {
            continue;
        }
        // Rule 1: derive(Clone) + Arc field = an undocumented share.
        if t.derives_clone() {
            for field in &t.def.fields {
                if classify(&field.ty).arc {
                    out.push((
                        t.file_idx,
                        Diagnostic::new(
                            &t.rel,
                            field.line,
                            CheckId::ForkCoverage,
                            format!(
                                "derive(Clone) on fork-surface type `{}` silently \
                                 shares `Arc` field `{}`; impl Clone by hand so the \
                                 share-vs-detach decision is written down, or \
                                 suppress here with the sanctioned-sharing reason",
                                t.def.name, field.name
                            ),
                        )
                        .with_symbol(format!("{}.{}", t.def.name, field.name)),
                    ));
                }
            }
        }
        // Rule 2: each re-producing fork-path body mentions every field.
        // A *pure delegator* — a body naming no field at all but naming
        // another fork-path fn (`World::branch` is `self.clone()`) — hands
        // its obligation to the delegate; a body mentioning *some* fields
        // is constructing the value and owes all of them.
        for f in &t.fork_fns {
            if !returns_self(f, &t.def.name) {
                continue;
            }
            let mentions_any = t
                .def
                .fields
                .iter()
                .any(|fl| f.body_idents.contains(&fl.name));
            let delegates = crate::fields::FORK_FN_NAMES
                .iter()
                .any(|n| *n != f.name && f.body_idents.contains(*n));
            if !mentions_any && delegates {
                continue;
            }
            for field in &t.def.fields {
                if f.body_idents.contains(&field.name) {
                    continue;
                }
                out.push((
                    t.file_idx,
                    Diagnostic::new(
                        &t.rel,
                        field.line,
                        CheckId::ForkCoverage,
                        format!(
                            "`{}::{}` does not mention field `{}`: decide its \
                             share-vs-detach behavior in the fork path (the \
                             SimClock bug class), or suppress here with the reason",
                            t.def.name, f.name, field.name
                        ),
                    )
                    .with_symbol(format!("{}::{}.{}", t.def.name, f.name, field.name)),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{FieldModel, FileInput};
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str, &str)]) -> Vec<(usize, Diagnostic)> {
        let parsed: Vec<(&str, SourceFile)> = files
            .iter()
            .map(|(_, rel, text)| (*rel, SourceFile::parse(text)))
            .collect();
        let models: Vec<FileModel> = parsed
            .iter()
            .map(|(rel, src)| FileModel::parse(rel, src))
            .collect();
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .zip(&parsed)
            .zip(&models)
            .enumerate()
            .map(|(i, (((dir, rel, _), (_, src)), model))| FileInput {
                rel,
                file_idx: i,
                policy: policy_for_dir(dir).expect("registered dir"),
                src,
                model,
            })
            .collect();
        let fm = FieldModel::build(&inputs);
        let mut out = Vec::new();
        check(&fm, &mut out);
        out
    }

    #[test]
    fn a_fork_body_missing_a_field_is_flagged_at_the_field() {
        let out = run(&[(
            "crates/simcore",
            "crates/simcore/src/rng.rs",
            "pub struct Rng {\n    state: u64,\n    stream: u64,\n}\n\
             impl Rng {\n    pub fn fork(&mut self) -> Rng {\n        \
             Rng { state: self.state ^ 1, stream: 0 }\n    }\n}\n\
             pub struct Missing {\n    a: u64,\n    b: u64,\n}\n\
             impl Missing {\n    pub fn fork(&mut self) -> Self {\n        \
             Missing { a: self.a, ..Default::default() }\n    }\n}\n",
        )]);
        assert_eq!(out.len(), 1);
        let (_, d) = &out[0];
        assert_eq!(d.check, CheckId::ForkCoverage);
        assert_eq!(d.line, 12); // `b: u64` in Missing
        assert_eq!(d.symbol, "Missing::fork.b");
        assert!(d.message.contains("does not mention field `b`"));
    }

    #[test]
    fn derived_clone_with_arc_field_is_an_undocumented_share() {
        let out = run(&[(
            "crates/simcore",
            "crates/simcore/src/clock.rs",
            "#[derive(Debug, Clone)]\npub struct Clock {\n    now: Arc<Mutex<u64>>,\n    \
             epoch: u64,\n}\n\
             impl Clock {\n    pub fn fork(&self) -> Clock {\n        \
             let now = self.now;\n        let epoch = self.epoch;\n        \
             Clock { now, epoch }\n    }\n}\n",
        )]);
        // Only the Arc field under derive(Clone); the fork body covers both.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.symbol, "Clock.now");
        assert!(out[0].1.message.contains("derive(Clone)"));
    }

    #[test]
    fn manual_clone_mentioning_every_field_passes() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/wsample.rs",
            "pub struct Sampler {\n    tree: Arc<Vec<u64>>,\n    total: u64,\n}\n\
             impl Clone for Sampler {\n    fn clone(&self) -> Self {\n        \
             Sampler { tree: Arc::clone(&self.tree), total: self.total }\n    }\n}\n\
             impl Sampler {\n    pub fn branch(&self) -> Self {\n        self.clone()\n    }\n}\n",
        )]);
        // The manual clone names both fields; `branch` is a pure
        // delegator (`self.clone()`, no field mentions) so its obligation
        // transfers to `clone`. Nothing fires.
        assert!(out.is_empty(), "got {:?}", out);
    }

    #[test]
    fn partial_field_mentions_are_not_delegation() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/wsample.rs",
            "pub struct Sampler {\n    tree: Arc<Vec<u64>>,\n    total: u64,\n}\n\
             impl Sampler {\n    pub fn branch(&self) -> Self {\n        \
             Sampler { tree: Arc::clone(&self.tree), ..self.clone() }\n    }\n}\n",
        )]);
        // Mentions `tree` (and the word `clone`), so it is constructing,
        // not delegating: `total` is still owed.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.symbol, "Sampler::branch.total");
    }

    #[test]
    fn non_reproducing_snapshots_owe_nothing_for_the_source_type() {
        let out = run(&[(
            "crates/orchestrator",
            "crates/orchestrator/src/world.rs",
            "pub struct World {\n    hosts: u64,\n    idle: u64,\n}\n\
             impl World {\n    pub fn snapshot(&self) -> WorldSnapshot {\n        \
             WorldSnapshot { sealed: self.hosts }\n    }\n}\n\
             pub struct WorldSnapshot {\n    sealed: u64,\n}\n",
        )]);
        assert!(out.is_empty(), "got {:?}", out);
    }

    #[test]
    fn enum_fork_paths_must_match_every_variant() {
        let out = run(&[(
            "crates/orchestrator",
            "crates/orchestrator/src/platform.rs",
            "pub enum Policy {\n    Fixed(u64),\n    Sampled(u64),\n}\n\
             impl Clone for Policy {\n    fn clone(&self) -> Self {\n        \
             match self {\n            Policy::Fixed(x) => Policy::Fixed(*x),\n            \
             _ => unreachable!(),\n        }\n    }\n}\n\
             impl Policy {\n    pub fn branch(&self) -> Self {\n        \
             match self {\n            Policy::Fixed(x) => Policy::Fixed(*x),\n            \
             Policy::Sampled(x) => Policy::Sampled(*x),\n        }\n    }\n}\n",
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.symbol, "Policy::clone.Sampled");
    }
}
