//! Field-level workspace model: the struct/field layer under the
//! `fork-coverage` and `cow-aliasing` checks.
//!
//! The call graph ([`crate::graph`]) reasons about what functions *reach*;
//! this model reasons about what types *carry*. It collects every
//! `struct`/`enum` definition in the fork-surface crates (the
//! [`CratePolicy::fork_surface`] policy column), classifies each field's
//! declared type (`Arc`-shared, interior-mutable), attaches the
//! fork-path functions (`clone`/`fork`/`branch`/`snapshot` impls), and
//! computes the **fork surface**: the transitive closure of types that
//! participate in the snapshot/branch contract.
//!
//! A type is in the fork surface if it has an inherent `fork`, `branch`,
//! or `snapshot` function, or if it is (transitively) named in a field —
//! or a generic-parameter default, an enum-variant payload, or an
//! associated-type binding (`type Sampler = FenwickSampler;`) of an
//! `impl` for a type — that does. `World` roots the closure; `SimRng`
//! and `DataCenter` are pulled in through its fields, `OptimizedEngine`
//! through the header default `E: Engine = OptimizedEngine`, and
//! `FenwickSampler` / `IncrementalCapacity` through the engine's
//! associated types — so the checks see exactly the structs a
//! `World::branch()` shares, even when the world only names them as
//! `E::Sampler`.

use std::collections::BTreeMap;

use crate::parse::{FileModel, FnItem, StructItem, TypeDefKind};
use crate::policy::CratePolicy;
use crate::source::SourceFile;

/// Function names that constitute the fork path of a type. `clone` is
/// included because `Clone` *is* the sharing half of the snapshot
/// contract (`World::branch` is `self.clone()`: whatever a `Clone`
/// shares, a branch shares).
pub const FORK_FN_NAMES: &[&str] = &["branch", "clone", "fork", "snapshot"];

/// The names that make a type a fork-surface *root* (having `clone` alone
/// does not opt a type into the surface — everything is `Clone`).
pub const FORK_ROOT_NAMES: &[&str] = &["branch", "fork", "snapshot"];

/// Interior-mutability wrapper tokens, matched with identifier
/// boundaries (`OnceCell` does not match `Cell`).
pub const INTERIOR_TOKENS: &[&str] = &[
    "AtomicBool",
    "AtomicI64",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Cell",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "RwLock",
    "UnsafeCell",
];

/// One file's worth of input to the field model (and to the cow-aliasing
/// and wire-schema line scans): the lexed source and the item model of a
/// `src/` file, tagged with its crate policy.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Index into the driver's file table (for the suppression oracle).
    pub file_idx: usize,
    /// The crate's policy row.
    pub policy: &'static CratePolicy,
    /// The lexed source (masked lines).
    pub src: &'a SourceFile,
    /// The parsed item model.
    pub model: &'a FileModel,
}

/// How a field's declared type participates in sharing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldClass {
    /// The type text names `Arc` — cloning shares the pointee.
    pub arc: bool,
    /// The first interior-mutability wrapper token found, if any.
    pub interior: Option<&'static str>,
    /// The interior wrapper sits *inside* the `Arc` (`Arc<Mutex<T>>`):
    /// writes through it are visible to every clone.
    pub interior_in_arc: bool,
}

/// Classifies a field's declared type text.
pub fn classify(ty: &str) -> FieldClass {
    let arc_at = crate::checks::find_token(ty, "Arc");
    let mut interior = None;
    let mut interior_at = usize::MAX;
    for &token in INTERIOR_TOKENS {
        if let Some(at) = crate::checks::find_token(ty, token) {
            if at < interior_at {
                interior_at = at;
                interior = Some(token);
            }
        }
    }
    FieldClass {
        arc: arc_at.is_some(),
        interior,
        interior_in_arc: matches!((arc_at, interior), (Some(a), Some(_)) if a < interior_at),
    }
}

/// One workspace type with everything the field-level checks need.
#[derive(Debug, Clone)]
pub struct TypeRecord {
    /// File the definition lives in (workspace-relative).
    pub rel: String,
    /// Index of that file in the driver's table.
    pub file_idx: usize,
    /// The crate's policy row.
    pub policy: &'static CratePolicy,
    /// The parsed definition (name, line, fields, derives, header).
    pub def: StructItem,
    /// `clone`/`fork`/`branch`/`snapshot` items whose `impl` names this
    /// type, from any file of the same crate.
    pub fork_fns: Vec<FnItem>,
    /// Whether the type is `Clone` (derived or via a manual `clone` fn).
    pub is_clone: bool,
    /// Whether the type is in the fork surface (root or transitive).
    pub fork_surface: bool,
}

impl TypeRecord {
    /// Whether the type derives `Clone` (as opposed to a manual impl).
    pub fn derives_clone(&self) -> bool {
        self.def.derives.iter().any(|d| d == "Clone")
    }
}

/// The workspace field-level model.
#[derive(Debug, Clone, Default)]
pub struct FieldModel {
    /// Every type defined in a fork-surface crate, in deterministic
    /// (crate dir, name, file, line) order.
    pub types: Vec<TypeRecord>,
}

impl FieldModel {
    /// Builds the model from the parsed `src/` files of fork-surface
    /// crates (other inputs are ignored).
    pub fn build(inputs: &[FileInput<'_>]) -> FieldModel {
        // (crate dir, type name) -> index. Re-declarations (e.g. the same
        // name behind mutually exclusive cfgs) keep the first definition.
        let mut index: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
        let mut types: Vec<TypeRecord> = Vec::new();
        let mut sorted: Vec<&FileInput<'_>> =
            inputs.iter().filter(|f| f.policy.fork_surface).collect();
        sorted.sort_by_key(|f| f.rel);
        for input in &sorted {
            for def in &input.model.structs {
                let key = (input.policy.dir, def.name.clone());
                if index.contains_key(&key) {
                    continue;
                }
                index.insert(key, types.len());
                types.push(TypeRecord {
                    rel: input.rel.to_owned(),
                    file_idx: input.file_idx,
                    policy: input.policy,
                    def: def.clone(),
                    fork_fns: Vec::new(),
                    is_clone: false,
                    fork_surface: false,
                });
            }
        }
        // Attach fork-path fns (same crate, impl type name matches).
        for input in &sorted {
            for f in &input.model.fns {
                if !f.has_body || !FORK_FN_NAMES.contains(&f.name.as_str()) {
                    continue;
                }
                let Some(ty) = &f.type_ctx else { continue };
                if let Some(&idx) = index.get(&(input.policy.dir, ty.clone())) {
                    types[idx].fork_fns.push(f.clone());
                }
            }
        }
        for t in &mut types {
            t.is_clone = t.derives_clone() || t.fork_fns.iter().any(|f| f.name == "clone");
        }
        // Fork-surface closure: roots have an inherent fork/branch/
        // snapshot; membership propagates into every workspace type named
        // in a member's field types, enum-variant payloads,
        // generic-parameter defaults, or associated-type bindings of an
        // `impl` for a member (`impl Engine for OptimizedEngine { type
        // Sampler = FenwickSampler; }` carries the surface from the
        // engine to the concrete sampler a `World<E>` field only spells
        // as `E::Sampler`).
        let names: Vec<String> = types.iter().map(|t| t.def.name.clone()).collect();
        // (owner index, bound type text) for every associated-type
        // binding whose owner is a workspace type of the same crate.
        let assoc: Vec<(usize, String)> = sorted
            .iter()
            .flat_map(|input| {
                input.model.assoc_types.iter().filter_map(|a| {
                    index
                        .get(&(input.policy.dir, a.owner.clone()))
                        .map(|&idx| (idx, a.ty.clone()))
                })
            })
            .collect();
        let mut surface: Vec<bool> = types
            .iter()
            .map(|t| {
                t.fork_fns
                    .iter()
                    .any(|f| FORK_ROOT_NAMES.contains(&f.name.as_str()))
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..types.len() {
                if !surface[i] {
                    continue;
                }
                let mention = |text: &str, surface: &mut Vec<bool>, changed: &mut bool| {
                    for (j, name) in names.iter().enumerate() {
                        if !surface[j] && crate::checks::find_token(text, name).is_some() {
                            surface[j] = true;
                            *changed = true;
                        }
                    }
                };
                let header = types[i].def.header.clone();
                mention(&header, &mut surface, &mut changed);
                let fields: Vec<String> =
                    types[i].def.fields.iter().map(|f| f.ty.clone()).collect();
                for ty in &fields {
                    mention(ty, &mut surface, &mut changed);
                }
            }
            for (owner, ty) in &assoc {
                if !surface[*owner] {
                    continue;
                }
                for (j, name) in names.iter().enumerate() {
                    if !surface[j] && crate::checks::find_token(ty, name).is_some() {
                        surface[j] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (t, s) in types.iter_mut().zip(surface) {
            t.fork_surface = s;
        }
        FieldModel { types }
    }

    /// The fork-surface types, in model order.
    pub fn fork_surface(&self) -> impl Iterator<Item = &TypeRecord> {
        self.types.iter().filter(|t| t.fork_surface)
    }
}

/// Whether a fork-path fn's return type re-produces the type itself —
/// only those fns owe per-field coverage (`World::snapshot` returns
/// `WorldSnapshot`, so it answers for *that* type's fields, not
/// `World`'s).
pub fn returns_self(f: &FnItem, type_name: &str) -> bool {
    crate::checks::find_token(&f.ret, "Self").is_some()
        || crate::checks::find_token(&f.ret, type_name).is_some()
}

/// Whether `def` is a braced definition with named fields or variants
/// (unit and tuple structs have nothing to cover).
pub fn has_named_fields(def: &StructItem) -> bool {
    !def.fields.is_empty() || def.kind == TypeDefKind::Enum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    fn build(files: &[(&str, &str, &str)]) -> FieldModel {
        let parsed: Vec<(&str, &'static CratePolicy, SourceFile)> = files
            .iter()
            .map(|(dir, rel, text)| {
                (
                    *rel,
                    policy_for_dir(dir).expect("registered dir"),
                    SourceFile::parse(text),
                )
            })
            .collect();
        let models: Vec<FileModel> = parsed
            .iter()
            .map(|(rel, _, src)| FileModel::parse(rel, src))
            .collect();
        let inputs: Vec<FileInput<'_>> = parsed
            .iter()
            .zip(&models)
            .enumerate()
            .map(|(i, ((rel, policy, src), model))| FileInput {
                rel,
                file_idx: i,
                policy,
                src,
                model,
            })
            .collect();
        FieldModel::build(&inputs)
    }

    #[test]
    fn classification_distinguishes_arc_orderings() {
        let c = classify("Arc<Mutex<SimTime>>");
        assert!(c.arc && c.interior == Some("Mutex") && c.interior_in_arc);
        let c = classify("Vec<OnceCell<Arc<Shard>>>");
        assert!(c.arc && c.interior == Some("OnceCell") && !c.interior_in_arc);
        let c = classify("Arc<Vec<u64>>");
        assert!(c.arc && c.interior.is_none());
        let c = classify("BTreeMap<String, u64>");
        assert!(!c.arc && c.interior.is_none());
        // Token boundaries: `OnceCell` is not `Cell`.
        assert_eq!(classify("OnceCell<u64>").interior, Some("OnceCell"));
    }

    #[test]
    fn fork_surface_closes_over_fields_and_defaults() {
        let fm = build(&[(
            "crates/orchestrator",
            "crates/orchestrator/src/lib.rs",
            "pub struct World<P = AnyPolicy> {\n    clock: Clock,\n    idle: u64,\n}\n\
             impl World {\n    pub fn branch(&self) -> Self {\n        self.clone()\n    }\n}\n\
             pub struct Clock {\n    now: Arc<Mutex<u64>>,\n}\n\
             pub enum AnyPolicy {\n    Fixed(FixedPolicy),\n}\n\
             pub struct FixedPolicy {\n    pop: Arc<Vec<u64>>,\n}\n\
             pub struct Unrelated {\n    x: u64,\n}\n",
        )]);
        let surface: Vec<&str> = fm.fork_surface().map(|t| t.def.name.as_str()).collect();
        assert_eq!(surface, vec!["World", "Clock", "AnyPolicy", "FixedPolicy"]);
    }

    #[test]
    fn fork_surface_follows_associated_type_bindings() {
        // World names the engine only through a header default and its
        // fields only as `E::Sampler`; the sampler must still join the
        // surface, via `impl Engine for FastEngine { type Sampler = … }`.
        let fm = build(&[(
            "crates/orchestrator",
            "crates/orchestrator/src/lib.rs",
            "pub struct World<E: Engine = FastEngine> {\n    sampler: E::Sampler,\n}\n\
             impl<E: Engine> World<E> {\n    pub fn branch(&self) -> Self {\n        self.clone()\n    }\n}\n\
             pub struct FastEngine;\n\
             impl Engine for FastEngine {\n    type Sampler = TreeSampler;\n}\n\
             pub struct TreeSampler {\n    tree: Arc<Vec<u64>>,\n}\n\
             pub struct SlowEngine;\n\
             impl Engine for SlowEngine {\n    type Sampler = ScanSampler;\n}\n\
             pub struct ScanSampler {\n    weights: Vec<u64>,\n}\n",
        )]);
        let surface: Vec<&str> = fm.fork_surface().map(|t| t.def.name.as_str()).collect();
        assert!(
            surface.contains(&"FastEngine"),
            "header default: {surface:?}"
        );
        assert!(
            surface.contains(&"TreeSampler"),
            "assoc binding: {surface:?}"
        );
        // SlowEngine is never named by a surface type, so its binding
        // must not leak its sampler in.
        assert!(!surface.contains(&"ScanSampler"), "surface: {surface:?}");
    }

    #[test]
    fn fork_fns_attach_and_clone_is_detected() {
        let fm = build(&[(
            "crates/simcore",
            "crates/simcore/src/lib.rs",
            "#[derive(Debug, Clone)]\npub struct Rng {\n    s: u64,\n}\n\
             impl Rng {\n    pub fn fork(&mut self) -> Rng {\n        Rng { s: 1 }\n    }\n}\n",
        )]);
        let rng = &fm.types[0];
        assert!(rng.fork_surface);
        assert!(rng.is_clone && rng.derives_clone());
        assert_eq!(rng.fork_fns.len(), 1);
        assert!(returns_self(&rng.fork_fns[0], "Rng"));
    }

    #[test]
    fn non_fork_surface_crates_contribute_nothing() {
        let fm = build(&[(
            "crates/serve",
            "crates/serve/src/lib.rs",
            "pub struct Conn {\n    buf: Arc<Vec<u8>>,\n}\n\
             impl Conn {\n    pub fn snapshot(&self) -> Self {\n        unreachable!()\n    }\n}\n",
        )]);
        assert!(fm.types.is_empty());
    }
}
