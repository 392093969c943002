//! Wire-schema conformance: the protocol enums, the peers, and the docs
//! must agree.
//!
//! The service wire protocol is defined once, in the service crate's
//! `src/proto.rs` (`ClientFrame`/`ServerFrame`), but *used* in three
//! places that can silently drift: the server must handle every client
//! frame, the client must handle every server frame, and the frame
//! tables in `docs/SERVICE.md` are the operator-facing contract. This
//! check cross-references all three:
//!
//! * every `ClientFrame` variant must appear as a `ClientFrame::V` token
//!   in `src/server.rs` (and `ServerFrame` in `src/client.rs`) — an
//!   unmatched variant is exactly the frame a peer answers with a
//!   runtime `Garbage`/`Error` instead of a compile- or tidy-time
//!   failure;
//! * every variant must appear in the `docs/SERVICE.md` table annotated
//!   `<!-- tidy:wire-schema frames: EnumName -->`, and every documented
//!   frame must still exist — the marker declares the table as this
//!   check's source of truth.
//!
//! Findings anchor in `proto.rs` (the variant or enum line) so the fix
//! and the finding live where the schema is defined.

use crate::checks::{find_token, lib_code_lines};
use crate::diag::{CheckId, Diagnostic};
use crate::fields::FileInput;
use crate::parse::TypeDefKind;

/// The service crate, whose `src/` holds the wire enums and both peers.
const SERVICE_DIR: &str = "crates/serve";

/// The wire enums and the peer source file that must handle each.
const ENUMS: &[(&str, &str)] = &[
    ("ClientFrame", "src/server.rs"),
    ("ServerFrame", "src/client.rs"),
];

/// Runs the check, appending raw `(file_idx, diagnostic)` pairs (the
/// driver applies suppressions). `service_doc` is the contents of
/// `docs/SERVICE.md`, when present.
pub fn check(
    inputs: &[FileInput<'_>],
    service_doc: Option<&str>,
    out: &mut Vec<(usize, Diagnostic)>,
) {
    let Some(proto) = inputs
        .iter()
        .find(|i| i.policy.dir == SERVICE_DIR && i.rel.ends_with("src/proto.rs"))
    else {
        return;
    };
    for &(enum_name, peer_suffix) in ENUMS {
        let Some(def) = proto
            .model
            .structs
            .iter()
            .find(|s| s.name == enum_name && s.kind == TypeDefKind::Enum)
        else {
            continue;
        };

        // Half 1: every variant is named somewhere in the peer's library
        // code (a match arm or a construction — either proves the peer
        // knows the frame exists).
        if let Some(peer) = inputs
            .iter()
            .find(|i| i.policy.dir == SERVICE_DIR && i.rel.ends_with(peer_suffix))
        {
            for v in &def.fields {
                let pat = format!("{enum_name}::{}", v.name);
                let handled = lib_code_lines(peer.src)
                    .any(|(_, line)| find_token(&line.code, &pat).is_some());
                if !handled {
                    out.push((
                        proto.file_idx,
                        Diagnostic::new(
                            proto.rel,
                            v.line,
                            CheckId::WireSchema,
                            format!(
                                "wire frame `{pat}` is never named in {}; an \
                                 unhandled frame surfaces as a runtime protocol \
                                 error instead of a tidy finding",
                                peer.rel
                            ),
                        )
                        .with_symbol(&pat),
                    ));
                }
            }
        }

        // Half 2: the annotated frame table in docs/SERVICE.md.
        match service_doc.map(|doc| doc_frames(doc, enum_name)) {
            Some(Some(documented)) => {
                for v in &def.fields {
                    if !documented.contains(&v.name) {
                        out.push((
                            proto.file_idx,
                            Diagnostic::new(
                                proto.rel,
                                v.line,
                                CheckId::WireSchema,
                                format!(
                                    "wire frame `{enum_name}::{}` is missing from \
                                     the docs/SERVICE.md frame table (the \
                                     `tidy:wire-schema frames: {enum_name}` \
                                     table is the documented contract)",
                                    v.name
                                ),
                            )
                            .with_symbol(format!("{enum_name}::{}", v.name)),
                        ));
                    }
                }
                for name in &documented {
                    if !def.fields.iter().any(|v| &v.name == name) {
                        out.push((
                            proto.file_idx,
                            Diagnostic::new(
                                proto.rel,
                                def.line,
                                CheckId::WireSchema,
                                format!(
                                    "docs/SERVICE.md documents a `{enum_name}` \
                                     frame `{name}` that no longer exists in \
                                     proto.rs"
                                ),
                            )
                            .with_symbol(format!("{enum_name}::{name}")),
                        ));
                    }
                }
            }
            Some(None) | None => {
                out.push((
                    proto.file_idx,
                    Diagnostic::new(
                        proto.rel,
                        def.line,
                        CheckId::WireSchema,
                        format!(
                            "docs/SERVICE.md has no frame table annotated \
                             `<!-- tidy:wire-schema frames: {enum_name} -->`; \
                             the wire contract must be documented where this \
                             check can hold it to the enum"
                        ),
                    )
                    .with_symbol(enum_name),
                ));
            }
        }
    }
}

/// Extracts the frame names from the markdown table following the
/// `<!-- tidy:wire-schema frames: enum_name -->` marker: the leading
/// identifier of each row's first backticked cell. `None` when the
/// marker is absent.
fn doc_frames(doc: &str, enum_name: &str) -> Option<Vec<String>> {
    let marker = format!("<!-- tidy:wire-schema frames: {enum_name} -->");
    let mut lines = doc.lines();
    lines.find(|l| l.trim() == marker)?;
    let mut frames = Vec::new();
    let mut in_table = false;
    for line in lines {
        let t = line.trim();
        if !t.starts_with('|') {
            if in_table {
                break; // the table ended
            }
            continue; // prose between the marker and the table
        }
        in_table = true;
        let Some(cell) = t.trim_start_matches('|').split('|').next() else {
            continue;
        };
        // Header and separator rows have no backticked cell.
        let Some(name) = cell.trim().strip_prefix('`') else {
            continue;
        };
        let name: String = name
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.chars().next().is_some_and(char::is_uppercase) {
            frames.push(name);
        }
    }
    Some(frames)
}
