//! `cow-aliasing`: `Arc` state in fork-surface types stays copy-on-write.
//!
//! PR 8's sharing discipline is: clones/branches share genesis lanes via
//! `Arc`, and the **only** sanctioned write path is `Arc::make_mut`,
//! which unshares before mutating. Everything else aliases state across
//! branches:
//!
//! - `Arc::get_mut` silently returns `None` (and typically panics or
//!   no-ops behind an `if let`) once a branch exists; `Arc::as_ptr` /
//!   `Arc::into_raw` escape the count entirely. Any of these naming an
//!   `Arc` field of a fork-surface type in one of its methods is a
//!   finding at the write site.
//! - `Arc<Mutex<..>>`-shaped fields (interior mutability *inside* the
//!   shared pointer) make every write visible to every clone — the exact
//!   shape of the SimClock shared-time bug. Finding at the field.
//! - `Mutex`/`Cell`-family fields on a type whose `Clone` ships (any
//!   `Clone` fork-surface type) smuggle write-through state across a
//!   branch even without an `Arc` around them. Finding at the field;
//!   non-`Clone` types (caches keyed off shared state, e.g. `WorldCache`)
//!   are exempt because they never cross a branch.
//!
//! Field findings carry symbol `Type.field`; write-site findings carry
//! `Type.field` too, so a field stays one symbol no matter how often it
//! is written.

use crate::checks::find_token;
use crate::diag::{CheckId, Diagnostic};
use crate::fields::{classify, FieldModel, FileInput};

/// `Arc` associated functions that bypass copy-on-write.
const ARC_ESCAPES: &[&str] = &["Arc::get_mut", "Arc::as_ptr", "Arc::into_raw"];

/// Runs the check, appending raw `(file_idx, finding)` pairs.
pub fn check(model: &FieldModel, inputs: &[FileInput<'_>], out: &mut Vec<(usize, Diagnostic)>) {
    field_findings(model, out);
    write_site_findings(model, inputs, out);
}

/// Field-shape findings: interior-in-`Arc`, and interior mutability on a
/// `Clone` type.
fn field_findings(model: &FieldModel, out: &mut Vec<(usize, Diagnostic)>) {
    for t in model.fork_surface() {
        for field in &t.def.fields {
            let class = classify(&field.ty);
            if class.interior_in_arc {
                let wrapper = class.interior.unwrap_or("interior mutability");
                out.push((
                    t.file_idx,
                    Diagnostic::new(
                        &t.rel,
                        field.line,
                        CheckId::CowAliasing,
                        format!(
                            "`{}` inside a shared `Arc` on fork-surface type `{}` \
                             (field `{}`): writes alias across every clone/branch \
                             — hold owned data behind the Arc and write through \
                             Arc::make_mut, or suppress here naming why sharing \
                             is the contract",
                            wrapper, t.def.name, field.name
                        ),
                    )
                    .with_symbol(format!("{}.{}", t.def.name, field.name)),
                ));
            } else if let (Some(wrapper), true) = (class.interior, t.is_clone) {
                out.push((
                    t.file_idx,
                    Diagnostic::new(
                        &t.rel,
                        field.line,
                        CheckId::CowAliasing,
                        format!(
                            "`{}` field `{}` on `Clone` fork-surface type `{}`: \
                             interior writes cross a branch without unsharing — \
                             make the lane copy-on-write, or suppress here with \
                             the genesis-lane justification",
                            wrapper, field.name, t.def.name
                        ),
                    )
                    .with_symbol(format!("{}.{}", t.def.name, field.name)),
                ));
            }
        }
    }
}

/// Write-site findings: `Arc::get_mut`/`as_ptr`/`into_raw` naming an
/// `Arc` field of a fork-surface type, inside one of that type's methods.
fn write_site_findings(
    model: &FieldModel,
    inputs: &[FileInput<'_>],
    out: &mut Vec<(usize, Diagnostic)>,
) {
    for input in inputs {
        if !input.policy.fork_surface {
            continue;
        }
        for f in &input.model.fns {
            if !f.has_body {
                continue;
            }
            let Some(ty_name) = &f.type_ctx else { continue };
            // The type this method belongs to, if it is fork-surface and
            // defined in the same crate.
            let Some(t) = model.types.iter().find(|t| {
                t.fork_surface && t.def.name == *ty_name && t.policy.dir == input.policy.dir
            }) else {
                continue;
            };
            let arc_fields: Vec<&str> = t
                .def
                .fields
                .iter()
                .filter(|field| classify(&field.ty).arc)
                .map(|field| field.name.as_str())
                .collect();
            if arc_fields.is_empty() {
                continue;
            }
            for lineno in f.line..=f.end_line.min(input.src.lines.len()) {
                let line = &input.src.lines[lineno - 1];
                if line.in_test {
                    continue;
                }
                let Some(escape) = ARC_ESCAPES
                    .iter()
                    .find(|esc| find_token(&line.code, esc).is_some())
                else {
                    continue;
                };
                for field in &arc_fields {
                    if find_token(&line.code, field).is_none() {
                        continue;
                    }
                    out.push((
                        input.file_idx,
                        Diagnostic::new(
                            input.rel,
                            lineno,
                            CheckId::CowAliasing,
                            format!(
                                "`{escape}` on `Arc` field `{field}` of fork-surface \
                                 type `{ty_name}`: use Arc::make_mut so the write \
                                 unshares (copy-on-write) instead of failing or \
                                 aliasing once a branch exists"
                            ),
                        )
                        .with_symbol(format!("{ty_name}.{field}")),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::FieldModel;
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
        check(&fm, &inputs, &mut out);
        out
    }

    const SAMPLER: &str = "pub struct Sampler {\n    tree: Arc<Vec<u64>>,\n}\n\
         impl Clone for Sampler {\n    fn clone(&self) -> Self {\n        \
         Sampler { tree: Arc::clone(&self.tree) }\n    }\n}\n";

    #[test]
    fn get_mut_on_an_arc_field_is_a_write_site_finding() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/wsample.rs",
            &format!(
                "{SAMPLER}impl Sampler {{\n    pub fn branch(&self) -> Self {{\n        \
                 self.clone()\n    }}\n    pub fn bump(&mut self) {{\n        \
                 if let Some(t) = Arc::get_mut(&mut self.tree) {{\n            \
                 t.push(1);\n        }}\n    }}\n}}\n"
            ),
        )]);
        // branch misses `tree` under fork-coverage, not this check; here
        // exactly the get_mut line fires.
        assert_eq!(out.len(), 1);
        let (_, d) = &out[0];
        assert_eq!(d.check, CheckId::CowAliasing);
        assert_eq!(d.line, 14);
        assert_eq!(d.symbol, "Sampler.tree");
        assert!(d.message.contains("Arc::get_mut"));
        assert!(d.message.contains("Arc::make_mut"));
    }

    #[test]
    fn make_mut_is_the_sanctioned_write_path() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/wsample.rs",
            &format!(
                "{SAMPLER}impl Sampler {{\n    pub fn branch(&self) -> Self {{\n        \
                 self.clone()\n    }}\n    pub fn bump(&mut self) {{\n        \
                 Arc::make_mut(&mut self.tree).push(1);\n    }}\n}}\n"
            ),
        )]);
        assert!(out.is_empty(), "got {:?}", out);
    }

    #[test]
    fn interior_mutability_inside_a_shared_arc_is_flagged_at_the_field() {
        let out = run(&[(
            "crates/simcore",
            "crates/simcore/src/clock.rs",
            "pub struct Clock {\n    now: Arc<Mutex<u64>>,\n}\n\
             impl Clock {\n    pub fn fork(&self) -> Self {\n        \
             Clock { now: Arc::new(Mutex::new(0)) }\n    }\n}\n",
        )]);
        assert_eq!(out.len(), 1);
        let (_, d) = &out[0];
        assert_eq!(d.line, 2);
        assert_eq!(d.symbol, "Clock.now");
        assert!(d.message.contains("Mutex"));
        assert!(d.message.contains("alias across every clone"));
    }

    #[test]
    fn interior_mutability_on_a_clone_type_is_flagged_but_non_clone_is_exempt() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/datacenter.rs",
            "#[derive(Clone)]\npub struct Center {\n    shards: Vec<OnceCell<u64>>,\n}\n\
             impl Center {\n    pub fn branch(&self) -> Self {\n        \
             Center { shards: self.shards.clone() }\n    }\n}\n\
             pub struct Cache {\n    memo: Mutex<u64>,\n}\n\
             impl Cache {\n    pub fn snapshot(&self) -> Self {\n        \
             Cache { memo: Mutex::new(0) }\n    }\n}\n",
        )]);
        // Center is Clone with a OnceCell lane: finding. Cache has a
        // snapshot fn (fork-surface root) but is not Clone: exempt.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.symbol, "Center.shards");
        assert!(out[0].1.message.contains("OnceCell"));
    }

    #[test]
    fn arc_escapes_outside_fork_surface_types_are_ignored() {
        let out = run(&[(
            "crates/cloudsim",
            "crates/cloudsim/src/scratch.rs",
            "pub struct Scratch {\n    buf: Arc<Vec<u64>>,\n}\n\
             impl Scratch {\n    pub fn bump(&mut self) {\n        \
             if let Some(b) = Arc::get_mut(&mut self.buf) {\n            \
             b.push(1);\n        }\n    }\n}\n",
        )]);
        // Scratch has no fork/branch/snapshot and nothing pulls it into
        // the surface; the call-graph taint checks own the rest.
        assert!(out.is_empty(), "got {:?}", out);
    }
}
