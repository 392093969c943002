//! Item-level Rust parsing on top of the masking lexer.
//!
//! [`FileModel::parse`] walks the masked lines of one source file and
//! extracts the facts the semantic checks need: `use` imports, `fn` items
//! (with visibility, doc-`# Panics` presence, and body span), and per-body
//! facts — call sites, panic sources, determinism sources, and
//! `parking_lot` lock acquisitions. It is *not* a Rust parser: it tracks
//! brace depth on masked code and pattern-matches item keywords, exactly
//! deep enough for a call graph over a rustfmt-formatted workspace. Known
//! approximations (at most one item start per line, guards assumed held to
//! the end of their binding block) are documented in
//! `docs/STATIC_ANALYSIS.md`.

use std::collections::BTreeMap;

use crate::source::{Line, SourceFile};

/// Visibility of an `fn` item, as far as the pass distinguishes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// `pub fn` — part of the crate's public API surface.
    Public,
    /// `pub(crate)` / `pub(super)` / `pub(in …)` — crate-internal.
    Restricted,
    /// No `pub` at all.
    Private,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `foo(…)` — a bare name.
    Free(String),
    /// `a::b::foo(…)` — a path; segments in order, callee last.
    Path(Vec<String>),
    /// `.foo(…)` — a method call on some receiver.
    Method(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What the call names.
    pub target: CallTarget,
    /// 1-based line of the call.
    pub line: usize,
    /// Lock names (see [`LockAcquire::lock`]) held when the call is made.
    pub holding: Vec<String>,
}

/// One `.lock()` acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// Canonical lock name: `Type.field` for `self.field.lock()` inside an
    /// `impl Type`, otherwise `file-stem::name` for locals and statics.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Locks already held at this acquisition (each yields an order edge).
    pub held: Vec<String>,
}

/// A panic or determinism source found in a function body.
#[derive(Debug, Clone)]
pub struct SourceSite {
    /// 1-based line.
    pub line: usize,
    /// Short description of the construct (`panic!`, `Instant`, `xs[i]`).
    pub what: String,
}

/// One OS-thread spawn site (`thread::spawn`, `std::thread::spawn`, or a
/// `thread::Builder` chain's `.spawn(…)`) inside a function body.
///
/// The handle's fate is classified lexically: a `let` binding is watched
/// for reuse on later lines of the same function, a statement-position
/// spawn whose value meets a bare `;` is a discard, and everything else
/// (pushed, collected, returned, wrapped) is treated as flowing into a
/// tracked container. Nested spawns inside another spawn's argument list
/// are not tracked separately.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line of the spawn call.
    pub line: usize,
    /// 1-based line where the spawn's argument list closes — call edges
    /// within `line..=end_line` are the thread's entry functions.
    pub end_line: usize,
    /// `let` binding receiving the `JoinHandle`, if any (`let _ = …`
    /// records no binding: the handle is dropped on the spot).
    pub binding: Option<String>,
    /// The handle is dropped where it is made: statement position with no
    /// binding.
    pub discarded: bool,
    /// The binding reappears on a later line of the same function
    /// (joined, stored, or returned by name).
    pub binding_used: bool,
}

/// One cross-thread-queue construction site (`VecDeque`, crossbeam
/// `channel`, or `std::sync::mpsc`).
#[derive(Debug, Clone)]
pub struct QueueSite {
    /// 1-based line.
    pub line: usize,
    /// The constructor as written (`VecDeque::new`, `channel::unbounded`, …).
    pub what: String,
    /// Whether the constructor itself fixes a capacity
    /// (`channel::bounded`, `mpsc::sync_channel`, `VecDeque::with_capacity`).
    pub bounded: bool,
    /// Whether the construction line (or the line directly above) names
    /// the enforcing mechanism in a `bound:` comment.
    pub bound_named: bool,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub type_ctx: Option<String>,
    /// Module path inside the crate (inline `mod`s appended to the
    /// file-derived path).
    pub module: Vec<String>,
    /// 1-based signature line (the line carrying the `fn` token) — the
    /// anchor for diagnostics and inline suppressions.
    pub line: usize,
    /// 1-based line of the body's closing `}` (the signature line while
    /// the body is still open, or for bodyless signatures).
    pub end_line: usize,
    /// Visibility of the `fn` token itself.
    pub vis: Visibility,
    /// Return type text after `->` (empty for `()`), with any `where`
    /// clause stripped. Token-matched, never resolved.
    pub ret: String,
    /// Whether the doc comment above the item has a `# Panics` section.
    pub has_panics_doc: bool,
    /// Whether the item has a body (`false` for trait method signatures).
    pub has_body: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Panic sources in the body (`panic!`, bare `unwrap()`, `todo!`,
    /// `unimplemented!`, non-literal slice indexing).
    pub panic_sources: Vec<SourceSite>,
    /// Determinism sources in the body (banned tokens plus names imported
    /// from banned `std` modules).
    pub det_sources: Vec<SourceSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockAcquire>,
    /// OS-thread spawn sites in the body.
    pub spawns: Vec<SpawnSite>,
    /// Cross-thread-queue construction sites in the body.
    pub queues: Vec<QueueSite>,
    /// 1-based lines carrying a `catch_unwind` token — unwind barriers
    /// for the thread-lifecycle check.
    pub catch_unwinds: Vec<usize>,
    /// Every identifier token appearing in the body — the raw material of
    /// the per-field mention tracking behind the `fork-coverage` check.
    pub body_idents: std::collections::BTreeSet<String>,
}

/// Whether a type definition is a `struct` or an `enum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeDefKind {
    /// `struct Name { … }` (or unit/tuple struct).
    Struct,
    /// `enum Name { … }` — variants are recorded as [`FieldItem`]s, the
    /// variant payload text standing in for a field type.
    Enum,
}

/// One named field of a struct, or one variant of an enum.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field (or variant) name.
    pub name: String,
    /// Declared type text for a field; payload text (`(CloudRunPolicy<E>)`)
    /// for an enum variant. First physical line only.
    pub ty: String,
    /// 1-based declaration line — the anchor for field-level diagnostics
    /// and inline suppressions.
    pub line: usize,
}

/// One associated-type binding (`type Name = Ty;`) inside an `impl` or
/// `trait` block — the edge that lets the fork-surface closure follow
/// `impl Engine for OptimizedEngine { type Sampler = FenwickSampler; }`
/// from the engine to the sampler it plugs in.
#[derive(Debug, Clone)]
pub struct AssocTypeItem {
    /// The enclosing block's type name (for `impl Trait for T`, `T`).
    pub owner: String,
    /// Associated-type name.
    pub name: String,
    /// Bound type text after `=`, up to `;`. First physical line only.
    pub ty: String,
    /// 1-based line of the binding.
    pub line: usize,
}

/// One parsed `struct`/`enum` definition.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Type name.
    pub name: String,
    /// Whether this is a struct or an enum.
    pub kind: TypeDefKind,
    /// Module path inside the crate.
    pub module: Vec<String>,
    /// 1-based line of the `struct`/`enum` keyword.
    pub line: usize,
    /// Declaration-header text after the name (generic parameters with
    /// their defaults, tuple-struct payload) up to `{`/`;`.
    pub header: String,
    /// Traits named in `#[derive(...)]` attributes directly above.
    pub derives: Vec<String>,
    /// Named fields (structs) or variants (enums), in source order.
    /// Tuple structs record none.
    pub fields: Vec<FieldItem>,
}

/// Everything the semantic pass knows about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// `fn` items in source order (test-gated items excluded).
    pub fns: Vec<FnItem>,
    /// `struct`/`enum` definitions in source order (test-gated excluded).
    pub structs: Vec<StructItem>,
    /// Associated-type bindings in source order (test-gated excluded).
    pub assoc_types: Vec<AssocTypeItem>,
    /// Import map: local name → full path segments (`use a::b::c` maps
    /// `c → [a, b, c]`; `as` aliases and one-level groups handled).
    pub imports: BTreeMap<String, Vec<String>>,
    /// Glob import bases (`use a::b::*` records `[a, b]`).
    pub globs: Vec<Vec<String>>,
}

/// Identifier characters (same definition as the lexer).
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Reserved words that can never be call targets.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "mut", "ref", "move", "as", "in",
    "impl", "dyn", "where", "unsafe", "else", "break", "continue", "struct", "enum", "union",
    "trait", "type", "use", "mod", "pub", "crate", "super", "self", "Self", "const", "static",
    "await", "async", "box", "yield",
];

/// Names imported from these `std` modules count as determinism sources in
/// function bodies (`use std::fs::File` makes `File` a source token for
/// the file). `std::time` is *not* listed: `SystemTime`/`Instant` are
/// banned tokens in their own right while `Duration` is deterministic.
const BANNED_IMPORT_ROOTS: &[&str] = &["std::fs", "std::net", "std::process", "std::env"];

#[derive(Debug)]
enum Ctx {
    /// Inline `mod name {` — `depth` is the brace depth its `{` opened at.
    Mod(String, i64),
    /// `impl Type {` / `trait Name {`.
    Type(String, i64),
    /// A function body; index into `FileModel::fns`.
    Fn(usize, i64),
    /// A `struct`/`enum` body; index into `FileModel::structs`.
    Struct(usize, i64),
}

#[derive(Debug)]
struct PendingFn {
    item: FnItem,
    paren_depth: i64,
    /// Signature text accumulated so far (for return-type extraction).
    sig: String,
}

/// A lock guard currently held in the body being parsed.
#[derive(Debug)]
struct HeldGuard {
    /// Canonical lock name (see [`LockAcquire::lock`]).
    lock: String,
    /// The guard's `let` binding, so an explicit `drop(binding)` releases
    /// it before its block closes.
    binding: Option<String>,
    /// Brace depth the binding's block opened at.
    depth: i64,
}

/// Paren-depth tracking for a spawn whose argument list spans lines:
/// which site to finish classifying once the matching `)` (and the
/// character after it) is seen.
#[derive(Debug, Clone, Copy)]
struct ParenTrack {
    fn_idx: usize,
    site_idx: usize,
    depth: i64,
    /// The argument list closed at end-of-line; the next line's first
    /// significant character decides statement-vs-value position.
    awaiting_tail: bool,
}

struct Parser<'a> {
    lines: &'a [Line],
    file_stem: String,
    model: FileModel,
    depth: i64,
    ctx: Vec<Ctx>,
    pending: Option<PendingFn>,
    /// `{` still owed to a just-seen `mod`/`impl`/`trait` header.
    pending_ctx: Option<Ctx>,
    /// Held lock guards, released at block close or an explicit `drop`.
    held: Vec<HeldGuard>,
    /// Open multi-line spawn argument list, if any.
    spawn_track: Option<ParenTrack>,
    /// Per-file derived determinism tokens (from banned imports).
    derived_tokens: Vec<String>,
    /// Lines with a justified `tidy:allow(determinism)` (sources there are
    /// trusted and do not taint) — only honored for determinism-critical
    /// crates by the caller; the parser records them unconditionally.
    det_suppressed: Vec<usize>,
    /// Names `let`-bound in the current function body. A bare call through
    /// one of these is a closure or function-pointer invocation, which the
    /// name-based resolver must not confuse with a workspace free fn.
    locals: std::collections::BTreeSet<String>,
    /// 1-based line currently being processed (for `FnItem::end_line`).
    cur_line: usize,
}

impl FileModel {
    /// Parses the masked `src` (as produced by [`SourceFile::parse`]) of
    /// the file `rel` into the item-level model. Test-gated lines are
    /// ignored except for brace tracking.
    pub fn parse(rel: &str, src: &SourceFile) -> FileModel {
        let file_stem = rel
            .rsplit('/')
            .next()
            .unwrap_or(rel)
            .trim_end_matches(".rs")
            .to_owned();
        let det_suppressed = src
            .suppressions
            .iter()
            .filter(|s| s.justified && s.check_name == "determinism")
            .map(|s| s.covers)
            .collect();
        let mut parser = Parser {
            lines: &src.lines,
            file_stem,
            model: FileModel::default(),
            depth: 0,
            ctx: Vec::new(),
            pending: None,
            pending_ctx: None,
            held: Vec::new(),
            spawn_track: None,
            derived_tokens: Vec::new(),
            det_suppressed,
            locals: std::collections::BTreeSet::new(),
            cur_line: 0,
        };
        parser.parse_imports();
        for idx in 0..src.lines.len() {
            parser.line(idx);
        }
        // A pending signature at EOF (malformed file) is dropped silently.
        parser.model
    }
}

impl Parser<'_> {
    /// Collects `use` items (which may span lines) into the import map.
    fn parse_imports(&mut self) {
        let mut i = 0;
        while i < self.lines.len() {
            let code = self.lines[i].code.trim();
            let in_test = self.lines[i].in_test;
            let after_use = code
                .strip_prefix("pub use ")
                .or_else(|| code.strip_prefix("pub(crate) use "))
                .or_else(|| code.strip_prefix("use "));
            let Some(first) = after_use else {
                i += 1;
                continue;
            };
            let mut text = first.to_owned();
            while !text.contains(';') && i + 1 < self.lines.len() {
                i += 1;
                text.push(' ');
                text.push_str(self.lines[i].code.trim());
            }
            if !in_test {
                let stmt = text.split(';').next().unwrap_or("");
                self.record_use(stmt);
            }
            i += 1;
        }
    }

    /// Records one `use` statement body (without `use` / `;`).
    fn record_use(&mut self, stmt: &str) {
        if let Some(open) = stmt.find('{') {
            let base: Vec<String> = stmt[..open]
                .split("::")
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect();
            let inner = stmt[open + 1..].trim_end().trim_end_matches('}');
            for item in split_group(inner) {
                self.record_use_leaf(&base, item.trim());
            }
        } else {
            self.record_use_leaf(&[], stmt.trim());
        }
    }

    /// Records one leaf of a `use` (possibly `path as alias`, `self`, `*`).
    fn record_use_leaf(&mut self, base: &[String], leaf: &str) {
        if leaf.contains('{') {
            // Nested groups are rare in this workspace; skip them rather
            // than guess.
            return;
        }
        let (path_part, alias) = match leaf.split_once(" as ") {
            Some((p, a)) => (p.trim(), Some(a.trim().to_owned())),
            None => (leaf, None),
        };
        let mut segs: Vec<String> = base.to_vec();
        let mut self_import = false;
        for seg in path_part
            .split("::")
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            if seg == "*" {
                self.model.globs.push(segs.clone());
                return;
            }
            if seg == "self" && !segs.is_empty() {
                self_import = true;
                continue;
            }
            segs.push(seg.to_owned());
        }
        let _ = self_import;
        let Some(last) = segs.last().cloned() else {
            return;
        };
        let local = alias.unwrap_or(last);
        self.model.imports.insert(local, segs);
        self.record_banned_import(path_part, base);
    }

    /// If the import path sits under a banned `std` module, its local name
    /// becomes a derived determinism token for this file.
    fn record_banned_import(&mut self, path_part: &str, base: &[String]) {
        let full = if base.is_empty() {
            path_part.to_owned()
        } else {
            format!("{}::{}", base.join("::"), path_part)
        };
        for root in BANNED_IMPORT_ROOTS {
            if full == *root || full.starts_with(&format!("{root}::")) {
                if let Some(name) = full.rsplit("::").next() {
                    if name != "self" && !name.is_empty() {
                        self.derived_tokens.push(name.to_owned());
                    }
                }
                // `use std::fs;` — the module name itself is the token.
                if full == *root {
                    if let Some(name) = root.rsplit("::").next() {
                        self.derived_tokens.push(name.to_owned());
                    }
                }
            }
        }
    }

    fn module_path(&self) -> Vec<String> {
        self.ctx
            .iter()
            .filter_map(|c| match c {
                Ctx::Mod(name, _) => Some(name.clone()),
                _ => None,
            })
            .collect()
    }

    fn type_ctx(&self) -> Option<String> {
        self.ctx.iter().rev().find_map(|c| match c {
            Ctx::Type(name, _) => Some(name.clone()),
            _ => None,
        })
    }

    fn in_fn(&self) -> Option<usize> {
        self.ctx.iter().rev().find_map(|c| match c {
            Ctx::Fn(idx, _) => Some(*idx),
            _ => None,
        })
    }

    /// Processes one line: item detection, body facts, brace tracking.
    fn line(&mut self, idx: usize) {
        let lineno = idx + 1;
        self.cur_line = lineno;
        let code = self.lines[idx].code.clone();
        let in_test = self.lines[idx].in_test;

        if let Some(pending) = &mut self.pending {
            // Mid-signature: look for the body `{` or a `;` terminator.
            for (pos, c) in code.char_indices() {
                match c {
                    '(' | '[' => pending.paren_depth += 1,
                    ')' | ']' => pending.paren_depth -= 1,
                    ';' if pending.paren_depth == 0 => {
                        let pend = self.pending.take().expect("pending fn");
                        let mut item = pend.item;
                        item.has_body = false;
                        item.ret = ret_from_sig(&pend.sig);
                        if !in_test {
                            self.model.fns.push(item);
                        }
                        return self.scan_braces_only(&code);
                    }
                    '{' if pending.paren_depth == 0 => {
                        let pend = self.pending.take().expect("pending fn");
                        let mut item = pend.item;
                        item.ret = ret_from_sig(&pend.sig);
                        let fn_idx = self.model.fns.len();
                        if self.in_fn().is_none() {
                            self.locals.clear();
                        }
                        self.model.fns.push(item);
                        self.ctx.push(Ctx::Fn(fn_idx, self.depth));
                        self.depth += 1;
                        let rest: String = code[pos + c.len_utf8()..].to_owned();
                        return self.body_line(&rest, lineno, in_test);
                    }
                    _ => pending.sig.push(c),
                }
            }
            if let Some(pending) = &mut self.pending {
                pending.sig.push(' ');
            }
            return;
        }

        if self.in_fn().is_some() {
            return self.body_line(&code, lineno, in_test);
        }

        // Inside a struct/enum body at its own depth: field/variant lines.
        if let Some(&Ctx::Struct(s_idx, open_depth)) = self.ctx.last() {
            if self.depth == open_depth + 1 {
                if !in_test {
                    self.struct_body_line(s_idx, &code, lineno);
                }
                return self.scan_braces_only(&code);
            }
        }

        // Item position: detect at most one item start per line.
        if !in_test {
            if let Some(at) = crate::checks::find_token(&code, "fn") {
                if let Some(name) = ident_after(&code, at + 2) {
                    self.start_fn(idx, at, name);
                    // Re-process the remainder of this line as signature.
                    let rest = &code[at..];
                    let mut paren = 0i64;
                    for (pos, c) in rest.char_indices() {
                        match c {
                            '(' | '[' => paren += 1,
                            ')' | ']' => paren -= 1,
                            ';' if paren == 0 => {
                                let pend = self.pending.take().expect("pending fn");
                                let mut item = pend.item;
                                item.has_body = false;
                                item.ret = ret_from_sig(&pend.sig);
                                self.model.fns.push(item);
                                return self.scan_braces_only(&code);
                            }
                            '{' if paren == 0 => {
                                let pend = self.pending.take().expect("pending fn");
                                let mut item = pend.item;
                                item.ret = ret_from_sig(&pend.sig);
                                let fn_idx = self.model.fns.len();
                                if self.in_fn().is_none() {
                                    self.locals.clear();
                                }
                                self.model.fns.push(item);
                                self.ctx.push(Ctx::Fn(fn_idx, self.depth));
                                self.depth += 1;
                                let body_rest: String = rest[pos + c.len_utf8()..].to_owned();
                                return self.body_line(&body_rest, lineno, in_test);
                            }
                            c => {
                                if let Some(p) = &mut self.pending {
                                    p.sig.push(c);
                                }
                            }
                        }
                    }
                    // Signature continues on the next line: carry the
                    // bracket depth over so the body `{` is still found.
                    if let Some(p) = &mut self.pending {
                        p.paren_depth = paren;
                        p.sig.push(' ');
                    }
                    return;
                }
            }
            if let Some(at) = crate::checks::find_token(&code, "mod") {
                if let Some(name) = ident_after(&code, at + 3) {
                    if code.contains('{') || !code.trim_end().ends_with(';') {
                        self.pending_ctx = Some(Ctx::Mod(name, 0));
                    }
                }
            } else if let Some(at) = crate::checks::find_token(&code, "impl") {
                if let Some(name) = impl_type_name(&code[at + 4..]) {
                    self.pending_ctx = Some(Ctx::Type(name, 0));
                }
            } else if let Some(at) = crate::checks::find_token(&code, "trait") {
                if let Some(name) = ident_after(&code, at + 5) {
                    self.pending_ctx = Some(Ctx::Type(name, 0));
                }
            } else if let Some((at, kind)) = struct_or_enum_at(&code) {
                let kw_len = match kind {
                    TypeDefKind::Struct => "struct".len(),
                    TypeDefKind::Enum => "enum".len(),
                };
                if let Some(name) = ident_after(&code, at + kw_len) {
                    self.start_struct(idx, at + kw_len, name, kind);
                }
            } else if let Some(at) = crate::checks::find_token(&code, "type") {
                // Associated-type binding inside an impl/trait block:
                // `type Name = Ty;` (a bare declaration has no `=`).
                if let Some(owner) = self.type_ctx() {
                    if let Some(name) = ident_after(&code, at + 4) {
                        let rest = &code[at + 4..];
                        if let (Some(eq), Some(semi)) = (rest.find('='), rest.find(';')) {
                            if eq < semi {
                                self.model.assoc_types.push(AssocTypeItem {
                                    owner,
                                    name,
                                    ty: rest[eq + 1..semi].trim().to_owned(),
                                    line: lineno,
                                });
                            }
                        }
                    }
                }
            }
        }
        self.scan_braces_only(&code);
    }

    /// Records a `struct`/`enum` definition starting on line `idx` and, if
    /// it has a braced body, queues the struct context for its `{`.
    fn start_struct(&mut self, idx: usize, after_kw: usize, name: String, kind: TypeDefKind) {
        let code = self.lines[idx].code.clone();
        let header_end = code
            .find('{')
            .or_else(|| code.find(';'))
            .unwrap_or(code.len());
        let after_name = code[after_kw..header_end]
            .find(&name)
            .map_or(header_end, |p| after_kw + p + name.len());
        let header = code[after_name..header_end].trim().to_owned();
        let item = StructItem {
            name,
            kind,
            module: self.module_path(),
            line: idx + 1,
            header,
            derives: derives_above(self.lines, idx),
            fields: Vec::new(),
        };
        let s_idx = self.model.structs.len();
        self.model.structs.push(item);
        // `;` before `{` means a unit/tuple struct: no body to track. A
        // header continuing onto the next line queues the context; a later
        // `;` cancels it in `scan_braces_only` if no `{` ever opens.
        let has_body = match (code.find('{'), code.find(';')) {
            (Some(b), Some(s)) => b < s,
            (Some(_), None) | (None, None) => true,
            (None, Some(_)) => false,
        };
        if has_body {
            self.pending_ctx = Some(Ctx::Struct(s_idx, 0));
        }
    }

    /// Parses one line of a struct/enum body at field depth.
    fn struct_body_line(&mut self, s_idx: usize, code: &str, lineno: usize) {
        let Some(item) = self.model.structs.get_mut(s_idx) else {
            return;
        };
        let trimmed = code.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('}') {
            return;
        }
        match item.kind {
            TypeDefKind::Struct => {
                // `pub name: Type,` — strip visibility, split on the first
                // `:` (a `::` in the type never comes first).
                let mut rest = trimmed;
                if let Some(at) = crate::checks::find_token(rest, "pub") {
                    if at == 0 {
                        rest = rest[3..].trim_start();
                        if rest.starts_with('(') {
                            if let Some(close) = rest.find(')') {
                                rest = rest[close + 1..].trim_start();
                            }
                        }
                    }
                }
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                if name.is_empty() || name.chars().next().is_some_and(char::is_numeric) {
                    return;
                }
                let after = rest[name.len()..].trim_start();
                let Some(ty_text) = after.strip_prefix(':') else {
                    return;
                };
                if after.starts_with("::") {
                    return;
                }
                let ty = ty_text.trim().trim_end_matches(',').trim().to_owned();
                item.fields.push(FieldItem {
                    name,
                    ty,
                    line: lineno,
                });
            }
            TypeDefKind::Enum => {
                // `Name`, `Name(Payload)`, or `Name { … }`.
                let name: String = trimmed.chars().take_while(|&c| is_ident(c)).collect();
                if name.is_empty() || !name.chars().next().is_some_and(char::is_uppercase) {
                    return;
                }
                let ty = trimmed[name.len()..]
                    .trim()
                    .trim_end_matches(',')
                    .trim()
                    .to_owned();
                item.fields.push(FieldItem {
                    name,
                    ty,
                    line: lineno,
                });
            }
        }
    }

    /// Starts a pending `fn` item from the signature line.
    fn start_fn(&mut self, idx: usize, fn_at: usize, name: String) {
        let code = &self.lines[idx].code;
        let before = &code[..fn_at];
        let vis = if let Some(pub_at) = crate::checks::find_token(before, "pub") {
            if before[pub_at + 3..].trim_start().starts_with('(') {
                Visibility::Restricted
            } else {
                Visibility::Public
            }
        } else {
            Visibility::Private
        };
        let item = FnItem {
            name,
            type_ctx: self.type_ctx(),
            module: self.module_path(),
            line: idx + 1,
            end_line: idx + 1,
            vis,
            ret: String::new(),
            has_panics_doc: docs_have_panics(self.lines, idx),
            has_body: true,
            calls: Vec::new(),
            panic_sources: Vec::new(),
            det_sources: Vec::new(),
            locks: Vec::new(),
            spawns: Vec::new(),
            queues: Vec::new(),
            catch_unwinds: Vec::new(),
            body_idents: std::collections::BTreeSet::new(),
        };
        self.pending = Some(PendingFn {
            item,
            paren_depth: 0,
            sig: String::new(),
        });
    }

    /// Tracks braces outside function bodies, attaching pending contexts.
    fn scan_braces_only(&mut self, code: &str) {
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(mut ctx) = self.pending_ctx.take() {
                        match &mut ctx {
                            Ctx::Mod(_, d)
                            | Ctx::Type(_, d)
                            | Ctx::Fn(_, d)
                            | Ctx::Struct(_, d) => *d = self.depth,
                        }
                        self.ctx.push(ctx);
                    }
                    self.depth += 1;
                }
                '}' => self.close_brace(),
                ';' => {
                    // `mod name;` / `impl Trait for T;` never opened.
                    self.pending_ctx = None;
                }
                _ => {}
            }
        }
    }

    fn close_brace(&mut self) {
        self.depth -= 1;
        let close_at = self.depth;
        let pop = matches!(
            self.ctx.last(),
            Some(Ctx::Mod(_, d) | Ctx::Type(_, d) | Ctx::Fn(_, d) | Ctx::Struct(_, d))
                if *d == close_at
        );
        if pop {
            if let Some(Ctx::Fn(fn_idx, _)) = self.ctx.pop() {
                if let Some(f) = self.model.fns.get_mut(fn_idx) {
                    f.end_line = self.cur_line;
                }
            }
        }
        self.held.retain(|g| g.depth <= close_at);
    }

    /// Scans one line of a function body: facts first, then braces.
    fn body_line(&mut self, code: &str, lineno: usize, in_test: bool) {
        if !in_test {
            self.advance_track(code, lineno);
            self.scan_locals(code);
            self.scan_locks(code, lineno);
            self.scan_spawn_bindings(code, lineno);
            self.scan_spawns(code, lineno);
            self.scan_queues(code, lineno);
            self.scan_calls(code, lineno);
            if crate::checks::find_token(code, "catch_unwind").is_some() {
                if let Some(f) = self.current_fn_mut() {
                    f.catch_unwinds.push(lineno);
                }
            }
            self.scan_panic_sources(code, lineno);
            self.scan_det_sources(code, lineno);
            self.scan_body_idents(code);
        }
        self.scan_braces_only(code);
    }

    /// Collects every identifier token on a body line into the enclosing
    /// function's mention set.
    fn scan_body_idents(&mut self, code: &str) {
        let mut idents: Vec<String> = Vec::new();
        let mut cur = String::new();
        for c in code.chars() {
            if is_ident(c) {
                cur.push(c);
            } else if !cur.is_empty() {
                idents.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            idents.push(cur);
        }
        if let Some(f) = self.current_fn_mut() {
            for ident in idents {
                if !ident.chars().next().is_some_and(char::is_numeric) {
                    f.body_idents.insert(ident);
                }
            }
        }
    }

    fn current_fn_mut(&mut self) -> Option<&mut FnItem> {
        let idx = self.in_fn()?;
        self.model.fns.get_mut(idx)
    }

    fn held_names(&self) -> Vec<String> {
        self.held.iter().map(|g| g.lock.clone()).collect()
    }

    /// Records names bound by `let` (with optional `mut`) on this line, so
    /// later `name(...)` calls through closures and function pointers do
    /// not resolve to same-named workspace functions.
    fn scan_locals(&mut self, code: &str) {
        let mut from = 0;
        while let Some(at) = crate::checks::find_token(&code[from..], "let") {
            let mut rest = code[from + at + 3..].trim_start();
            from += at + 3;
            if let Some(stripped) = rest.strip_prefix("mut ") {
                rest = stripped.trim_start();
            }
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            if !name.is_empty() && !name.chars().next().is_some_and(char::is_numeric) {
                self.locals.insert(name);
            }
        }
    }

    /// Detects `.lock()` acquisitions, derives lock names, and maintains
    /// the held-guard set.
    fn scan_locks(&mut self, code: &str, lineno: usize) {
        let has_let = crate::checks::find_token(code, "let").is_some();
        let type_ctx = self.type_ctx();
        let mut from = 0;
        while let Some(rel_at) = code[from..].find(".lock(") {
            let at = from + rel_at;
            from = at + ".lock(".len();
            // Receiver: walk back over `ident`, `.`, `:` chains.
            let recv: String = code[..at]
                .chars()
                .rev()
                .take_while(|&c| is_ident(c) || c == '.' || c == ':')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            let recv = recv.trim_matches(|c| c == '.' || c == ':');
            let last = recv
                .rsplit(['.', ':'])
                .find(|s| !s.is_empty())
                .unwrap_or("");
            if last.is_empty() {
                continue;
            }
            let lock = if recv.starts_with("self.") {
                let owner = type_ctx.clone().unwrap_or_else(|| self.file_stem.clone());
                format!("{owner}.{last}")
            } else {
                format!("{}::{last}", self.file_stem)
            };
            // Bound guard: `let g = m.lock();` (the `)` directly followed
            // by `;`). Anything else is a transient same-statement use.
            let tail = &code[at + ".lock(".len()..];
            let bound = has_let && tail.trim_start().starts_with(");");
            let held = self.held_names();
            let bind_depth = self.depth;
            if let Some(f) = self.current_fn_mut() {
                f.locks.push(LockAcquire {
                    lock: lock.clone(),
                    line: lineno,
                    held,
                });
            }
            if bound {
                let binding = let_binding(code);
                self.held.push(HeldGuard {
                    lock,
                    binding,
                    depth: bind_depth,
                });
            }
        }
    }

    /// Detects call sites: `name(`, `a::b::name(`, `.name(` — with
    /// optional turbofish — skipping keywords and macro invocations.
    fn scan_calls(&mut self, code: &str, lineno: usize) {
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if !is_ident(chars[i]) || chars[i].is_numeric() {
                i += 1;
                continue;
            }
            let start = i;
            while i < chars.len() && is_ident(chars[i]) {
                i += 1;
            }
            let name: String = chars[start..i].iter().collect();
            // Position after optional turbofish `::<…>`.
            let mut j = i;
            if chars.get(j) == Some(&':')
                && chars.get(j + 1) == Some(&':')
                && chars.get(j + 2) == Some(&'<')
            {
                let mut angle = 0i64;
                let mut k = j + 2;
                while k < chars.len() {
                    match chars[k] {
                        '<' => angle += 1,
                        '>' => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if angle == 0 {
                    j = k + 1;
                }
            }
            if chars.get(j) != Some(&'(') {
                continue;
            }
            if KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            // Macro invocation `name!(` never reaches here (the `!` breaks
            // the adjacency test above), but `name !(` would; reject any
            // `!` directly after the identifier.
            if chars.get(i) == Some(&'!') {
                continue;
            }
            let prev = chars[..start].iter().rev().find(|c| !c.is_whitespace());
            let target = match prev {
                Some('.') => {
                    if name == "lock" {
                        continue; // handled by scan_locks
                    }
                    // A condvar wait (`cv.wait(&mut guard)`) atomically
                    // releases its guard for the wait's duration, so it
                    // is not a call made while holding the lock: treating
                    // it as one would fabricate lock-order edges.
                    if WAIT_METHODS.contains(&name.as_str()) {
                        let rest: String = chars[j + 1..].iter().collect();
                        if takes_mut_ref(&rest) {
                            continue;
                        }
                    }
                    CallTarget::Method(name)
                }
                Some(':') => {
                    // Collect the full leading path `a::b::name`.
                    let mut segs = vec![name];
                    let mut end = start;
                    loop {
                        let before: String = chars[..end].iter().collect();
                        let trimmed = before.trim_end();
                        if !trimmed.ends_with("::") {
                            break;
                        }
                        let upto = trimmed.len() - 2;
                        let seg_chars: &str = &trimmed[..upto];
                        let seg: String = seg_chars
                            .chars()
                            .rev()
                            .take_while(|&c| is_ident(c))
                            .collect::<String>()
                            .chars()
                            .rev()
                            .collect();
                        if seg.is_empty() {
                            break;
                        }
                        segs.insert(0, seg.clone());
                        end = seg_chars.len() - seg.len();
                        // Only the segment directly before `::` matters for
                        // further chaining; keep walking.
                        let before_seg: String = seg_chars[..end].to_owned();
                        if !before_seg.trim_end().ends_with("::") {
                            break;
                        }
                        end = before_seg.len();
                    }
                    if segs.len() == 1 {
                        CallTarget::Free(segs.remove(0))
                    } else {
                        CallTarget::Path(segs)
                    }
                }
                _ => CallTarget::Free(name),
            };
            if matches!(&target, CallTarget::Free(n) if self.locals.contains(n)) {
                continue;
            }
            // An explicit `drop(guard)` releases a held lock before its
            // block closes; `drop` itself is never a workspace callee.
            if matches!(&target, CallTarget::Free(n) if n == "drop") {
                let rest: String = chars[j + 1..].iter().collect();
                if let Some(arg) = single_ident_arg(&rest) {
                    self.held
                        .retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                }
                continue;
            }
            let holding = self.held_names();
            if let Some(fn_idx) = self.in_fn() {
                self.model.fns[fn_idx].calls.push(CallSite {
                    target,
                    line: lineno,
                    holding,
                });
            }
        }
    }

    /// Advances the open multi-line spawn tracker over one more body
    /// line, finishing its classification once the matching `)` and the
    /// character after it have been seen.
    fn advance_track(&mut self, code: &str, lineno: usize) {
        if let Some(track) = self.spawn_track {
            self.spawn_track = match step_track(code, track.depth, track.awaiting_tail) {
                TrackOutcome::Open(depth) => Some(ParenTrack { depth, ..track }),
                TrackOutcome::AwaitTail => Some(ParenTrack {
                    depth: 0,
                    awaiting_tail: true,
                    ..track
                }),
                TrackOutcome::Done(dropped) => {
                    if let Some(site) = self
                        .model
                        .fns
                        .get_mut(track.fn_idx)
                        .and_then(|f| f.spawns.get_mut(track.site_idx))
                    {
                        site.end_line = lineno;
                        site.discarded = dropped && site.binding.is_none();
                    }
                    None
                }
            };
        }
    }

    /// Marks spawn-handle bindings that reappear on a later body line of
    /// the same function (joined, pushed, returned — any mention counts).
    fn scan_spawn_bindings(&mut self, code: &str, lineno: usize) {
        let Some(fn_idx) = self.in_fn() else {
            return;
        };
        let open_spawn = self.spawn_track;
        let Some(f) = self.model.fns.get_mut(fn_idx) else {
            return;
        };
        for (idx, site) in f.spawns.iter_mut().enumerate() {
            if site.binding_used || site.line >= lineno {
                continue;
            }
            // Lines inside the spawn's own argument list cannot see the
            // binding (it is not bound yet) — skip them.
            if open_spawn.is_some_and(|t| t.fn_idx == fn_idx && t.site_idx == idx) {
                continue;
            }
            if let Some(name) = &site.binding {
                if crate::checks::find_token(code, name).is_some() {
                    site.binding_used = true;
                }
            }
        }
    }

    /// Detects OS-thread spawn sites: `thread::spawn(…)` (optionally
    /// `std::`-qualified) and, on lines naming `thread::Builder`, the
    /// chain's `.spawn(…)`. The handle's fate starts from the `let`
    /// binding on the same line; the discard classification finishes when
    /// the argument list's matching `)` is seen.
    fn scan_spawns(&mut self, code: &str, lineno: usize) {
        let Some(fn_idx) = self.in_fn() else {
            return;
        };
        let mut parens: Vec<usize> = Vec::new();
        let mut from = 0;
        while let Some(rel) = code[from..].find("thread::spawn(") {
            let at = from + rel;
            from = at + "thread::spawn(".len();
            if code[..at].ends_with(is_ident) {
                continue; // not a token boundary
            }
            parens.push(at + "thread::spawn".len());
        }
        if code.contains("thread::Builder") {
            let mut from = 0;
            while let Some(rel) = code[from..].find(".spawn(") {
                let at = from + rel;
                from = at + ".spawn(".len();
                parens.push(at + ".spawn".len());
            }
        }
        parens.sort_unstable();
        parens.dedup();
        let binding = let_binding(code);
        for paren in parens {
            if self.spawn_track.is_some() {
                break; // nested spawns are not tracked separately
            }
            let site_idx = self.model.fns[fn_idx].spawns.len();
            self.model.fns[fn_idx].spawns.push(SpawnSite {
                line: lineno,
                end_line: lineno,
                binding: binding.clone(),
                discarded: false,
                binding_used: false,
            });
            match step_track(&code[paren..], 0, false) {
                TrackOutcome::Open(depth) => {
                    self.spawn_track = Some(ParenTrack {
                        fn_idx,
                        site_idx,
                        depth,
                        awaiting_tail: false,
                    });
                }
                TrackOutcome::AwaitTail => {
                    self.spawn_track = Some(ParenTrack {
                        fn_idx,
                        site_idx,
                        depth: 0,
                        awaiting_tail: true,
                    });
                }
                TrackOutcome::Done(dropped) => {
                    let site = &mut self.model.fns[fn_idx].spawns[site_idx];
                    site.discarded = dropped && site.binding.is_none();
                }
            }
        }
    }

    /// Detects cross-thread-queue construction sites with their
    /// bounded/unbounded classification and whether a `bound:` comment on
    /// the line (or the line directly above) names the enforcing
    /// mechanism.
    fn scan_queues(&mut self, code: &str, lineno: usize) {
        if self.in_fn().is_none() {
            return;
        }
        let mut found: Vec<(usize, QueueSite)> = Vec::new();
        for &(ctor, bounded) in QUEUE_CTORS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(ctor) {
                let at = from + rel;
                from = at + ctor.len();
                if code[..at].ends_with(is_ident) {
                    continue; // not a token boundary
                }
                let next = code[at + ctor.len()..].chars().next();
                if !matches!(next, Some('(' | '<' | ':')) {
                    continue; // a mention, not a construction
                }
                found.push((
                    at,
                    QueueSite {
                        line: lineno,
                        what: ctor.to_owned(),
                        bounded,
                        bound_named: self.bound_comment_near(lineno),
                    },
                ));
            }
        }
        found.sort_by_key(|&(at, _)| at);
        if let Some(f) = self.current_fn_mut() {
            f.queues.extend(found.into_iter().map(|(_, q)| q));
        }
    }

    /// Whether the line (or the line directly above) carries a `bound:`
    /// comment naming a queue's enforcing mechanism.
    fn bound_comment_near(&self, lineno: usize) -> bool {
        (lineno.saturating_sub(1)..=lineno).any(|l| {
            l >= 1
                && self
                    .lines
                    .get(l - 1)
                    .is_some_and(|line| line.comment.contains("bound:"))
        })
    }

    /// Detects panic sources: bare `unwrap()`, the panic macros, and
    /// slice indexing with a non-literal index.
    fn scan_panic_sources(&mut self, code: &str, lineno: usize) {
        let mut sources: Vec<String> = Vec::new();
        if has_bare_unwrap(code) {
            sources.push("unwrap()".to_owned());
        }
        for mac in ["panic", "todo", "unimplemented"] {
            if is_macro_call(code, mac) {
                sources.push(format!("{mac}!"));
            }
        }
        if has_non_literal_index(code) {
            sources.push("slice indexing".to_owned());
        }
        if let Some(f) = self.current_fn_mut() {
            for what in sources {
                f.panic_sources.push(SourceSite { line: lineno, what });
            }
        }
    }

    /// Detects determinism sources: the banned token list plus names
    /// imported from banned `std` modules. Lines under a justified
    /// `tidy:allow(determinism)` are trusted and skipped.
    fn scan_det_sources(&mut self, code: &str, lineno: usize) {
        if self.det_suppressed.contains(&lineno) {
            return;
        }
        let mut sources: Vec<String> = Vec::new();
        for &(token, _) in crate::checks::determinism::BANNED {
            if crate::checks::find_token(code, token).is_some() {
                sources.push(token.to_owned());
            }
        }
        for token in &self.derived_tokens {
            if crate::checks::find_token(code, token).is_some() {
                sources.push(format!("{token} (imported from a banned std module)"));
            }
        }
        sources.sort();
        sources.dedup();
        if let Some(f) = self.current_fn_mut() {
            for what in sources {
                f.det_sources.push(SourceSite { line: lineno, what });
            }
        }
    }
}

/// Splits a one-level `use` group body on top-level commas.
fn split_group(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in inner.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The identifier starting at or after `from` (skipping whitespace), if
/// the very next token is one.
fn ident_after(code: &str, from: usize) -> Option<String> {
    let rest = code.get(from..)?.trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

/// Condvar wait-family method names. Each takes the guard as a `&mut`
/// first argument and atomically releases it for the wait's duration.
const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_timeout_while",
    "wait_until",
    "wait_while",
];

/// Cross-thread-queue constructors and whether each fixes a capacity at
/// the construction site.
const QUEUE_CTORS: &[(&str, bool)] = &[
    ("VecDeque::new", false),
    ("VecDeque::default", false),
    ("VecDeque::with_capacity", true),
    ("channel::bounded", true),
    ("channel::unbounded", false),
    ("mpsc::channel", false),
    ("mpsc::sync_channel", true),
];

/// What advancing a [`ParenTrack`] over one line concluded.
enum TrackOutcome {
    /// Still open at this paren depth.
    Open(i64),
    /// Closed at end-of-line; the next line's first significant character
    /// decides the classification.
    AwaitTail,
    /// Finished: `true` when the matching `)` met a bare `;` (the value
    /// was dropped in statement position).
    Done(bool),
}

/// Advances a paren tracker over `code`, starting at `depth` (or, when
/// `awaiting_tail`, inspecting only the first significant character).
fn step_track(code: &str, depth: i64, awaiting_tail: bool) -> TrackOutcome {
    if awaiting_tail {
        return match code.chars().find(|c| !c.is_whitespace()) {
            None => TrackOutcome::AwaitTail,
            Some(';') => TrackOutcome::Done(true),
            Some(_) => TrackOutcome::Done(false),
        };
    }
    let mut depth = depth;
    for (pos, c) in code.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return match code[pos + 1..].chars().find(|c| !c.is_whitespace()) {
                        None => TrackOutcome::AwaitTail,
                        Some(';') => TrackOutcome::Done(true),
                        Some(_) => TrackOutcome::Done(false),
                    };
                }
            }
            _ => {}
        }
    }
    TrackOutcome::Open(depth)
}

/// The first `let [mut] name` binding on the line, if any (`_`, tuple and
/// struct patterns, and digit starts all yield `None`).
fn let_binding(code: &str) -> Option<String> {
    let at = crate::checks::find_token(code, "let")?;
    let mut rest = code[at + 3..].trim_start();
    if let Some(stripped) = rest.strip_prefix("mut ") {
        rest = stripped.trim_start();
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name == "_" || name.chars().next().is_some_and(char::is_numeric) {
        None
    } else {
        Some(name)
    }
}

/// Whether an argument list (text after the opening `(`) starts with a
/// `&mut ident` argument.
fn takes_mut_ref(rest: &str) -> bool {
    rest.trim_start()
        .strip_prefix("&mut")
        .and_then(|arg| arg.trim_start().chars().next())
        .is_some_and(|c| is_ident(c) && !c.is_numeric())
}

/// The single-identifier argument of a call like `drop(guard)` (text
/// after the opening `(`), if the list is exactly one identifier closed
/// on the same line.
fn single_ident_arg(rest: &str) -> Option<String> {
    let close = rest.find(')')?;
    let arg = rest[..close].trim();
    if !arg.is_empty()
        && arg.chars().all(is_ident)
        && !arg.chars().next().is_some_and(char::is_numeric)
    {
        Some(arg.to_owned())
    } else {
        None
    }
}

/// Extracts the implemented type's name from the text after `impl`:
/// `<…> Trait for Type {` → `Type`; `Type<G> {` → `Type`.
fn impl_type_name(rest: &str) -> Option<String> {
    let mut rest = rest;
    // Skip the generic parameter list, if any.
    let trimmed = rest.trim_start();
    if let Some(stripped) = trimmed.strip_prefix('<') {
        let mut depth = 1i64;
        let mut end = None;
        for (pos, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(pos);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &stripped[end? + 1..];
    } else {
        rest = trimmed;
    }
    let head = rest.split('{').next().unwrap_or(rest);
    let head = match crate::checks::find_token(head, "for") {
        Some(at) => &head[at + 3..],
        None => head,
    };
    // Last path segment before generics/where.
    let head = head.split('<').next().unwrap_or(head);
    let head = match crate::checks::find_token(head, "where") {
        Some(at) => &head[..at],
        None => head,
    };
    head.trim()
        .rsplit("::")
        .next()
        .map(|s| s.trim().trim_start_matches('&').to_owned())
        .filter(|s| !s.is_empty() && s.chars().all(is_ident))
}

/// Finds a `struct` or `enum` keyword in item position on the line.
fn struct_or_enum_at(code: &str) -> Option<(usize, TypeDefKind)> {
    if let Some(at) = crate::checks::find_token(code, "struct") {
        return Some((at, TypeDefKind::Struct));
    }
    if let Some(at) = crate::checks::find_token(code, "enum") {
        return Some((at, TypeDefKind::Enum));
    }
    None
}

/// Collects the traits named in `#[derive(...)]` attributes in the
/// contiguous doc/attribute block above line `idx` (0-based).
fn derives_above(lines: &[Line], idx: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.trim().is_empty() {
                break; // blank line ends the block
            }
            continue; // doc or plain comment
        }
        if !code.starts_with('#') {
            break;
        }
        if let Some(open) = code.find("derive(") {
            let inner = &code[open + "derive(".len()..];
            let inner = inner.split(')').next().unwrap_or("");
            for name in inner.split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    out.push(name.rsplit("::").next().unwrap_or(name).to_owned());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Extracts the return type from accumulated signature text: everything
/// after the last top-level `->`, with any `where` clause stripped.
fn ret_from_sig(sig: &str) -> String {
    let Some(at) = sig.rfind("->") else {
        return String::new();
    };
    let mut ret = &sig[at + 2..];
    if let Some(w) = crate::checks::find_token(ret, "where") {
        ret = &ret[..w];
    }
    ret.trim().to_owned()
}

/// Whether the contiguous doc/attribute block above line `idx` (0-based)
/// contains a `# Panics` section.
fn docs_have_panics(lines: &[Line], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let comment = line.comment.trim_start();
        let is_doc =
            comment.starts_with('/') || comment.starts_with('!') || comment.starts_with('*');
        let code = line.code.trim();
        if is_doc && code.is_empty() {
            if line.comment.contains("# Panics") {
                return true;
            }
            continue;
        }
        if code.starts_with("#[")
            || code.starts_with("#![")
            || code.ends_with(']') && code.starts_with('#')
        {
            continue; // attribute
        }
        if code.is_empty() && !line.comment.trim().is_empty() {
            continue; // plain comment (e.g. a tidy:allow line)
        }
        break;
    }
    false
}

/// `unwrap` immediately followed by `()` — same rule as the lexical
/// panic check.
fn has_bare_unwrap(code: &str) -> bool {
    let mut rest = code;
    while let Some(at) = crate::checks::find_token(rest, "unwrap") {
        let tail = rest[at + "unwrap".len()..].trim_start();
        if let Some(t) = tail.strip_prefix('(') {
            if t.trim_start().starts_with(')') {
                return true;
            }
        }
        rest = &rest[at + "unwrap".len()..];
    }
    false
}

/// `name` followed directly by `!`.
fn is_macro_call(code: &str, name: &str) -> bool {
    let mut rest = code;
    while let Some(at) = crate::checks::find_token(rest, name) {
        if rest[at + name.len()..].starts_with('!') {
            return true;
        }
        rest = &rest[at + name.len()..];
    }
    false
}

/// `expr[index]` where `index` is not a pure literal / literal range —
/// the detectable slice-indexing panic site (`xs[i]`, `map[&k]`). Array
/// *literals* (`[1, 2]`), attributes, and `xs[0]` / `xs[..]` forms are
/// not matched.
fn has_non_literal_index(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        let indexing = matches!(prev, Some(p) if is_ident(*p) || *p == ')' || *p == ']');
        if !indexing {
            continue;
        }
        // A keyword before `[` means an array *literal* position
        // (`for x in [a, b]`, `return [x]`, `if [a, b].iter()…`), not a
        // place expression.
        let before: String = chars[..i]
            .iter()
            .rev()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| is_ident(**c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if matches!(
            before.as_str(),
            "in" | "return" | "break" | "else" | "match" | "mut" | "ref" | "if" | "while"
        ) {
            continue;
        }
        // Attribute `#[…]` — the `#` is never an identifier char, so the
        // check above already excluded it.
        let mut depth = 1i64;
        let mut j = i + 1;
        let mut content = String::new();
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            if depth > 0 {
                content.push(chars[j]);
            }
            j += 1;
        }
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        let literal_only = content
            .chars()
            .all(|c| c.is_numeric() || c == '.' || c == '_' || c.is_whitespace());
        if !literal_only {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> FileModel {
        FileModel::parse("crates/x/src/demo.rs", &SourceFile::parse(text))
    }

    #[test]
    fn extracts_fns_with_visibility_and_docs() {
        let m = parse(
            "/// Does a thing.\n///\n/// # Panics\n/// On bad input.\npub fn a() {}\n\
             pub(crate) fn b() {}\nfn c() {}\n",
        );
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].name, "a");
        assert_eq!(m.fns[0].vis, Visibility::Public);
        assert!(m.fns[0].has_panics_doc);
        assert_eq!(m.fns[0].line, 5);
        assert_eq!(m.fns[1].vis, Visibility::Restricted);
        assert_eq!(m.fns[2].vis, Visibility::Private);
        assert!(!m.fns[2].has_panics_doc);
    }

    #[test]
    fn attributes_between_docs_and_fn_are_transparent() {
        let m = parse("/// # Panics\n/// Yes.\n#[inline]\npub fn a() {}\n");
        assert!(m.fns[0].has_panics_doc);
    }

    #[test]
    fn impl_and_mod_contexts_qualify_items() {
        let m = parse(
            "pub struct W;\nimpl W {\n    pub fn go(&self) {}\n}\n\
             impl std::fmt::Debug for W {\n    fn fmt(&self) {}\n}\n\
             mod inner {\n    pub fn deep() {}\n}\n",
        );
        let names: Vec<(String, Option<String>, Vec<String>)> = m
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.type_ctx.clone(), f.module.clone()))
            .collect();
        assert_eq!(names[0], ("go".into(), Some("W".into()), vec![]));
        assert_eq!(names[1], ("fmt".into(), Some("W".into()), vec![]));
        assert_eq!(names[2], ("deep".into(), None, vec!["inner".into()]));
    }

    #[test]
    fn generic_impls_resolve_the_type_name() {
        let m = parse("impl<E: Engine> World<E> {\n    pub fn launch(&mut self) {}\n}\n");
        assert_eq!(m.fns[0].type_ctx.as_deref(), Some("World"));
    }

    #[test]
    fn trait_method_signatures_have_no_body() {
        let m = parse(
            "pub trait T {\n    fn must(&self) -> u32;\n    fn dflt(&self) -> u32 {\n        self.must()\n    }\n}\n",
        );
        assert_eq!(m.fns.len(), 2);
        assert!(!m.fns[0].has_body);
        assert!(m.fns[1].has_body);
        assert_eq!(m.fns[1].calls.len(), 1);
    }

    #[test]
    fn calls_are_extracted_with_kinds() {
        let m = parse(
            "fn f() {\n    helper();\n    crate::a::b();\n    Widget::new(1);\n    x.tick();\n    vec![1].len();\n}\n",
        );
        let f = &m.fns[0];
        let targets: Vec<&CallTarget> = f.calls.iter().map(|c| &c.target).collect();
        assert!(targets.contains(&&CallTarget::Free("helper".into())));
        assert!(targets.contains(&&CallTarget::Path(vec![
            "crate".into(),
            "a".into(),
            "b".into()
        ])));
        assert!(targets.contains(&&CallTarget::Path(vec!["Widget".into(), "new".into()])));
        assert!(targets.contains(&&CallTarget::Method("tick".into())));
        assert!(targets.contains(&&CallTarget::Method("len".into())));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let m = parse("fn f() {\n    if ready(x) {\n        assert!(g());\n    }\n}\n");
        let f = &m.fns[0];
        let names: Vec<String> = f
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Free(n) | CallTarget::Method(n) => n.clone(),
                CallTarget::Path(p) => p.join("::"),
            })
            .collect();
        assert_eq!(names, vec!["ready", "g"], "{:?}", f.calls);
    }

    #[test]
    fn panic_sources_detected() {
        let m = parse(
            "fn f(xs: &[u32], i: usize) -> u32 {\n    let a = xs[i];\n    let b = xs[0];\n    x.unwrap();\n    panic!(\"no\");\n    a\n}\n",
        );
        let whats: Vec<&str> = m.fns[0]
            .panic_sources
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert!(whats.contains(&"slice indexing"));
        assert!(whats.contains(&"unwrap()"));
        assert!(whats.contains(&"panic!"));
        // xs[0] (literal index) contributes nothing.
        assert_eq!(
            m.fns[0]
                .panic_sources
                .iter()
                .filter(|s| s.what == "slice indexing")
                .count(),
            1
        );
    }

    #[test]
    fn array_literals_are_not_indexing() {
        let m = parse(
            "fn f(a: u32, b: u32, xs: &[u32], i: usize) -> u32 {\n    \
             for x in [a, b] {\n        let _ = x;\n    }\n    \
             let pair = [a, b];\n    \
             let margin = xs;\n    \
             margin[i] + pair[0]\n}\n",
        );
        let indexing = m.fns[0]
            .panic_sources
            .iter()
            .filter(|s| s.what == "slice indexing")
            .count();
        // Only `margin[i]`: the `in [a, b]` literal, the `= [a, b]`
        // literal, and the literal-index `pair[0]` contribute nothing.
        assert_eq!(indexing, 1);
    }

    #[test]
    fn det_sources_include_derived_imports() {
        let m = parse(
            "use std::fs::File;\nuse std::time::Duration;\nfn f() {\n    let h = File::create(p);\n    let t = Instant::now();\n    let d = Duration::from_secs(1);\n}\n",
        );
        let whats: Vec<&str> = m.fns[0]
            .det_sources
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert!(whats.iter().any(|w| w.starts_with("File")), "{whats:?}");
        assert!(whats.contains(&"Instant"));
        assert!(!whats.iter().any(|w| w.starts_with("Duration")));
    }

    #[test]
    fn locks_and_held_edges() {
        let m = parse(
            "struct S;\nimpl S {\n    fn ab(&self) {\n        let a = self.alpha.lock();\n        self.beta.lock().push(1);\n        helper();\n    }\n}\n",
        );
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].lock, "S.alpha");
        assert!(f.locks[0].held.is_empty());
        assert_eq!(f.locks[1].lock, "S.beta");
        assert_eq!(f.locks[1].held, vec!["S.alpha".to_owned()]);
        let call = f
            .calls
            .iter()
            .find(|c| matches!(&c.target, CallTarget::Free(n) if n == "helper"))
            .expect("helper call");
        assert_eq!(call.holding, vec!["S.alpha".to_owned()]);
    }

    #[test]
    fn guard_released_at_block_close() {
        let m = parse(
            "fn f(m: &M) {\n    {\n        let g = m.lock();\n        inner1();\n    }\n    inner2();\n}\n",
        );
        let f = &m.fns[0];
        let holding: Vec<(String, Vec<String>)> = f
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Free(n) => (n.clone(), c.holding.clone()),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(holding[0].0, "inner1");
        assert_eq!(holding[0].1, vec!["demo::m".to_owned()]);
        assert_eq!(holding[1].0, "inner2");
        assert!(holding[1].1.is_empty());
    }

    #[test]
    fn imports_map_and_globs() {
        let m = parse(
            "use crate::graph::{Workspace, resolve as res};\nuse eaao_core::cluster;\nuse super::util::*;\nfn f() {}\n",
        );
        assert_eq!(
            m.imports.get("Workspace"),
            Some(&vec!["crate".into(), "graph".into(), "Workspace".into()])
        );
        assert_eq!(
            m.imports.get("res"),
            Some(&vec!["crate".into(), "graph".into(), "resolve".into()])
        );
        assert_eq!(
            m.imports.get("cluster"),
            Some(&vec!["eaao_core".into(), "cluster".into()])
        );
        assert_eq!(m.globs, vec![vec!["super".to_owned(), "util".to_owned()]]);
    }

    #[test]
    fn structs_fields_and_derives_are_extracted() {
        let m = parse(
            "/// A sampler.\n#[derive(Debug, Clone)]\npub struct Sampler {\n    /// Shared lane.\n    tree: Arc<Vec<u64>>,\n    pub total: u64,\n}\n\npub struct Unit;\npub struct Pair(u32, u32);\n",
        );
        assert_eq!(m.structs.len(), 3);
        let s = &m.structs[0];
        assert_eq!(s.name, "Sampler");
        assert_eq!(s.kind, TypeDefKind::Struct);
        assert_eq!(s.line, 3);
        assert_eq!(s.derives, vec!["Clone".to_owned(), "Debug".to_owned()]);
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "tree");
        assert_eq!(s.fields[0].ty, "Arc<Vec<u64>>");
        assert_eq!(s.fields[0].line, 5);
        assert_eq!(s.fields[1].name, "total");
        assert_eq!(s.fields[1].ty, "u64");
        assert!(m.structs[1].fields.is_empty());
        assert!(m.structs[2].fields.is_empty());
    }

    #[test]
    fn enum_variants_are_recorded_as_fields() {
        let m = parse(
            "#[derive(Debug)]\npub enum Any<E: Engine = Opt> {\n    CloudRun(CloudRunPolicy<E>),\n    Bare,\n}\n",
        );
        let s = &m.structs[0];
        assert_eq!(s.kind, TypeDefKind::Enum);
        assert_eq!(s.header, "<E: Engine = Opt>");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "CloudRun");
        assert_eq!(s.fields[0].ty, "(CloudRunPolicy<E>)");
        assert_eq!(s.fields[1].name, "Bare");
    }

    #[test]
    fn return_types_body_idents_and_end_lines() {
        let m = parse(
            "pub struct Clock;\nimpl Clock {\n    pub fn fork(&self) -> Clock {\n        Clock::starting_at(self.now())\n    }\n    pub fn share(&self) -> Self {\n        self.clone()\n    }\n    fn silent(&self) {}\n}\n",
        );
        let fork = &m.fns[0];
        assert_eq!(fork.ret, "Clock");
        assert_eq!(fork.line, 3);
        assert_eq!(fork.end_line, 5);
        assert!(fork.body_idents.contains("now"));
        assert!(fork.body_idents.contains("starting_at"));
        assert!(!fork.body_idents.contains("share"));
        assert_eq!(m.fns[1].ret, "Self");
        assert_eq!(m.fns[2].ret, "");
    }

    #[test]
    fn multi_line_signatures_capture_the_return_type() {
        let m = parse(
            "pub fn branch(\n    &self,\n    key: &str,\n) -> WorldSnapshot<E, P> {\n    self.freeze()\n}\n",
        );
        assert_eq!(m.fns[0].ret, "WorldSnapshot<E, P>");
        assert!(m.fns[0].body_idents.contains("freeze"));
    }

    #[test]
    fn test_gated_structs_are_skipped() {
        let m = parse(
            "pub struct Real {\n    x: u32,\n}\n#[cfg(test)]\nstruct Fake {\n    y: u32,\n}\n",
        );
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].name, "Real");
    }

    #[test]
    fn test_gated_items_are_skipped() {
        let m = parse(
            "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {\n        x.unwrap();\n    }\n}\n",
        );
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "real");
    }

    #[test]
    fn condvar_waits_are_not_calls() {
        let m = parse(
            "impl P {\n    fn park(&self) {\n        let mut park = self.park.lock();\n        self.ready.wait(&mut park);\n        self.space.wait_while(&mut park, |s| s.full);\n        child.wait();\n    }\n}\n",
        );
        let waits: Vec<usize> = m.fns[0]
            .calls
            .iter()
            .filter(|c| matches!(&c.target, CallTarget::Method(n) if n.starts_with("wait")))
            .map(|c| c.line)
            .collect();
        // Only the `.wait()` without a `&mut guard` argument is a call.
        assert_eq!(waits, vec![6]);
    }

    #[test]
    fn explicit_drop_releases_a_held_guard() {
        let m = parse(
            "impl P {\n    fn go(&self) {\n        let a = self.alpha.lock();\n        drop(a);\n        helper();\n        let b = self.beta.lock();\n        other();\n    }\n}\n",
        );
        let f = &m.fns[0];
        let helper = f
            .calls
            .iter()
            .find(|c| c.target == CallTarget::Free("helper".into()))
            .expect("helper call recorded");
        assert!(helper.holding.is_empty(), "drop(a) released the guard");
        let other = f
            .calls
            .iter()
            .find(|c| c.target == CallTarget::Free("other".into()))
            .expect("other call recorded");
        assert_eq!(other.holding, vec!["P.beta".to_owned()]);
    }

    #[test]
    fn spawn_sites_classify_the_handle_fate() {
        let m = parse(
            "fn f() {\n    std::thread::spawn(run);\n    let h = std::thread::spawn(run);\n    h.join().unwrap();\n    let leak = std::thread::spawn(run);\n    let v: Vec<_> = (0..2).map(|_| std::thread::spawn(run)).collect();\n}\n",
        );
        let s = &m.fns[0].spawns;
        assert_eq!(s.len(), 4);
        assert!(s[0].discarded && s[0].binding.is_none());
        assert_eq!(s[1].binding.as_deref(), Some("h"));
        assert!(s[1].binding_used, "h reappears on the join line");
        assert_eq!(s[2].binding.as_deref(), Some("leak"));
        assert!(!s[2].binding_used);
        assert!(
            !s[3].discarded && s[3].binding.as_deref() == Some("v"),
            "a collected spawn flows into the binding"
        );
    }

    #[test]
    fn multi_line_spawns_finish_at_the_closing_paren() {
        let m = parse(
            "fn f() {\n    std::thread::spawn(move || {\n        work();\n    });\n    let keep = std::thread::spawn(move || {\n        work();\n    });\n    keep.join().ok();\n}\n",
        );
        let s = &m.fns[0].spawns;
        assert_eq!(s.len(), 2);
        assert!(s[0].discarded);
        assert_eq!((s[0].line, s[0].end_line), (2, 4));
        assert!(!s[1].discarded && s[1].binding_used);
        assert_eq!((s[1].line, s[1].end_line), (5, 7));
    }

    #[test]
    fn builder_spawns_are_spawn_sites() {
        let m = parse(
            "fn f() {\n    let h = std::thread::Builder::new().name(n).spawn(run);\n    h.unwrap().join().unwrap();\n}\n",
        );
        let s = &m.fns[0].spawns;
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].binding.as_deref(), Some("h"));
        assert!(s[0].binding_used);
    }

    #[test]
    fn queue_sites_classify_bounds_and_annotations() {
        let m = parse(
            "fn f() {\n    let a: VecDeque<u32> = VecDeque::new();\n    let b = VecDeque::with_capacity(8);\n    let (tx, rx) = channel::bounded(4);\n    let (utx, urx) = channel::unbounded();\n    // bound: drained by callers\n    let c: VecDeque<u32> = VecDeque::new();\n    let d = VecDeque::default(); // bound: capped by push\n}\n",
        );
        let q = &m.fns[0].queues;
        let view: Vec<(&str, bool, bool)> = q
            .iter()
            .map(|s| (s.what.as_str(), s.bounded, s.bound_named))
            .collect();
        assert_eq!(
            view,
            vec![
                ("VecDeque::new", false, false),
                ("VecDeque::with_capacity", true, false),
                ("channel::bounded", true, false),
                ("channel::unbounded", false, false),
                ("VecDeque::new", false, true),
                ("VecDeque::default", false, true),
            ]
        );
    }

    #[test]
    fn catch_unwind_lines_are_recorded() {
        let m =
            parse("fn f() {\n    let r = std::panic::catch_unwind(|| work());\n    r.ok();\n}\n");
        assert_eq!(m.fns[0].catch_unwinds, vec![2]);
    }
}
