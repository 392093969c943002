//! Lexical source model: comment/string masking, `#[cfg(test)]` region
//! tracking, and `tidy:allow` suppression parsing.
//!
//! The pass never parses Rust properly — like rustc's `tidy`, it masks
//! string/char literals and comments out of each line and pattern-matches
//! the remaining code tokens. That keeps the analyzer dependency-free and
//! immune to the "my banned word appeared in a doc comment" class of false
//! positives.

use crate::diag::CheckId;

/// One analyzed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comments and literal *contents* replaced by spaces
    /// (delimiters are kept, so `"HashMap"` contributes no tokens).
    pub code: String,
    /// The concatenated comment text on the line (without `//` markers).
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]`-gated region.
    pub in_test: bool,
}

/// One `tidy:allow(...)` suppression found in comments.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the suppression covers (its own line for a trailing
    /// comment, the next line for a comment standing alone).
    pub covers: usize,
    /// 1-based line the suppression is written on.
    pub declared_at: usize,
    /// The check name inside the parentheses, verbatim.
    pub check_name: String,
    /// The check it resolves to, if the name is known.
    pub check: Option<CheckId>,
    /// Whether a non-empty justification follows ` -- `.
    pub justified: bool,
}

/// A parsed source file: masked lines plus suppressions.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Masked lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// All suppressions declared in the file.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Parses `text` into the lexical model.
    pub fn parse(text: &str) -> SourceFile {
        let (mut lines, raw_comments) = mask(text);
        mark_test_regions(&mut lines);
        let suppressions = parse_suppressions(&lines, &raw_comments);
        SourceFile {
            lines,
            suppressions,
        }
    }

    /// Whether `line` (1-based) is suppressed for `check`. Marks matching
    /// suppressions in `used` (same indexing as `self.suppressions`).
    pub fn is_suppressed(&self, line: usize, check: CheckId, used: &mut [bool]) -> bool {
        let mut hit = false;
        for (i, s) in self.suppressions.iter().enumerate() {
            if s.covers == line && s.check == Some(check) && s.justified {
                used[i] = true;
                hit = true;
            }
        }
        hit
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Masks comments and literal contents out of `text`, producing per-line
/// code and comment strings. Handles line comments, nested block comments,
/// string/char/byte literals, raw strings (`r"…"`, `r#"…"#`, byte
/// variants), and the lifetime-vs-char-literal ambiguity.
fn mask(text: &str) -> (Vec<Line>, Vec<String>) {
    let chars: Vec<char> = text.chars().collect();
    let mut code: Vec<String> = vec![String::new()];
    let mut comment: Vec<String> = vec![String::new()];

    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut state = State::Normal;
    let mut i = 0;
    let push = |v: &mut Vec<String>, c: char| {
        v.last_mut().expect("line buffer exists").push(c);
    };
    let blank = |v: &mut Vec<String>| {
        v.last_mut().expect("line buffer exists").push(' ');
    };
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            code.push(String::new());
            comment.push(String::new());
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    blank(&mut code);
                    blank(&mut code);
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    blank(&mut code);
                    blank(&mut code);
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    push(&mut code, '"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte literal prefix: r" r#" b" br" rb#" …
                    let mut j = i;
                    while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') && j - i < 2 {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    let raw = chars[i..j].contains(&'r');
                    while raw && chars.get(j + hashes as usize) == Some(&'#') {
                        hashes += 1;
                    }
                    let open = j + hashes as usize;
                    if chars.get(open) == Some(&'"') {
                        for _ in i..open {
                            blank(&mut code);
                        }
                        push(&mut code, '"');
                        state = if raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i = open + 1;
                    } else {
                        push(&mut code, c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime or char literal?
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) if is_ident(n) => {
                            let mut j = i + 1;
                            while j < chars.len() && is_ident(chars[j]) {
                                j += 1;
                            }
                            chars.get(j) == Some(&'\'')
                        }
                        Some('\'') => true,
                        Some(_) => true,
                        None => false,
                    };
                    push(&mut code, '\'');
                    if is_char {
                        state = State::Char;
                    }
                    i += 1;
                } else {
                    push(&mut code, c);
                    i += 1;
                }
            }
            State::LineComment => {
                push(&mut comment, c);
                blank(&mut code);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    blank(&mut code);
                    blank(&mut code);
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    blank(&mut code);
                    blank(&mut code);
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    push(&mut comment, c);
                    blank(&mut code);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    blank(&mut code);
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        blank(&mut code);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    push(&mut code, '"');
                    state = State::Normal;
                    i += 1;
                } else {
                    blank(&mut code);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        push(&mut code, '"');
                        for _ in 0..hashes {
                            blank(&mut code);
                        }
                        state = State::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        blank(&mut code);
                        i += 1;
                    }
                } else {
                    blank(&mut code);
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    blank(&mut code);
                    if i + 1 < chars.len() {
                        blank(&mut code);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    push(&mut code, '\'');
                    state = State::Normal;
                    i += 1;
                } else {
                    blank(&mut code);
                    i += 1;
                }
            }
        }
    }
    let comments = comment.clone();
    let lines = code
        .into_iter()
        .zip(comment)
        .map(|(code, comment)| Line {
            code,
            comment,
            in_test: false,
        })
        .collect();
    (lines, comments)
}

/// Marks lines inside `#[cfg(test)]`-gated items. Tracks brace depth on the
/// masked code; a pending `#[cfg(test)]` attribute opens a region at the
/// next `{` (a whole `mod tests { … }` / gated fn), or covers a single
/// braceless item ending in `;` (`#[cfg(test)] use …;`).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_entry: Option<i64> = None;
    for line in lines.iter_mut() {
        if region_entry.is_some() {
            line.in_test = true;
        }
        if line.code.contains("cfg(test)") && region_entry.is_none() {
            pending = true;
            line.in_test = true;
        }
        let mut line_has_open = false;
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        region_entry = Some(depth);
                        pending = false;
                        line.in_test = true;
                    }
                    depth += 1;
                    line_has_open = true;
                }
                '}' => {
                    depth -= 1;
                    if region_entry.is_some_and(|entry| depth <= entry) {
                        region_entry = None;
                    }
                }
                _ => {}
            }
        }
        // `#[cfg(test)] use …;` — a gated braceless item.
        if pending && !line_has_open && line.code.trim_end().ends_with(';') {
            line.in_test = true;
            pending = false;
        }
    }
}

/// Extracts `tidy:allow(name) -- justification` suppressions from comment
/// text. `raw_comments` is the per-line comment text from [`mask`].
///
/// Doc comments never declare suppressions: after masking, the text of
/// `/// …` starts with `/`, of `//! …` with `!`, and of a block-doc
/// continuation line with `*` — all skipped, so documentation may quote
/// the syntax without activating it.
fn parse_suppressions(lines: &[Line], raw_comments: &[String]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, comment) in raw_comments.iter().enumerate() {
        if matches!(comment.trim_start().chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let lineno = idx + 1;
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("tidy:allow") {
            rest = &rest[pos + "tidy:allow".len()..];
            let Some(open) = rest.find('(') else {
                break;
            };
            let Some(close) = rest.find(')') else {
                break;
            };
            if open > close {
                break;
            }
            let check_name = rest[open + 1..close].trim().to_owned();
            let tail = &rest[close + 1..];
            let justified = tail
                .trim_start()
                .strip_prefix("--")
                .is_some_and(|j| !j.trim().is_empty());
            let code_is_blank = lines[idx].code.trim().is_empty();
            let covers = if code_is_blank { lineno + 1 } else { lineno };
            out.push(Suppression {
                covers,
                declared_at: lineno,
                check: CheckId::from_name(&check_name),
                check_name,
                justified,
            });
            rest = tail;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let f = SourceFile::parse("let x = \"HashMap\"; // HashMap here\nuse std::fs;\n");
        assert!(!f.lines[0].code.contains("HashMap"), "{}", f.lines[0].code);
        assert!(f.lines[0].comment.contains("HashMap"));
        assert!(f.lines[1].code.contains("std::fs"));
    }

    #[test]
    fn masks_raw_strings_and_char_literals() {
        let f = SourceFile::parse(
            "let a = r#\"unsafe { HashMap }\"#;\nlet b: &'static str = x;\nlet c = '{';\nlet d = b\"unsafe\";\n",
        );
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[1].code.contains("'static"), "{}", f.lines[1].code);
        assert!(!f.lines[2].code.contains('{'), "{}", f.lines[2].code);
        assert!(!f.lines[3].code.contains("unsafe"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f = SourceFile::parse("/* a /* b */ HashMap */\nHashMap\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("HashMap"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "use a;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\nuse b;\n";
        let f = SourceFile::parse(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_single_item() {
        let f = SourceFile::parse("#[cfg(test)]\nuse proptest::prelude::*;\nuse b;\n");
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn suppression_trailing_and_standalone() {
        let src = "use x; // tidy:allow(determinism) -- keyed lookups only\n\
                   // tidy:allow(lock-order) -- invariant documented\n\
                   let y = 1;\n\
                   // tidy:allow(determinism)\n\
                   let z = 2;\n\
                   // tidy:allow(bogus-check) -- whatever\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.suppressions.len(), 4);
        assert_eq!(f.suppressions[0].covers, 1);
        assert!(f.suppressions[0].justified);
        assert_eq!(f.suppressions[0].check, Some(CheckId::Determinism));
        assert_eq!(f.suppressions[1].covers, 3);
        assert_eq!(f.suppressions[2].covers, 5);
        assert!(!f.suppressions[2].justified, "missing justification");
        assert!(f.suppressions[3].check.is_none(), "unknown check name");
    }

    #[test]
    fn doc_comments_do_not_declare_suppressions() {
        let src = "/// tidy:allow(determinism) -- quoted in docs\n\
                   //! tidy:allow(lock-order) -- quoted in docs\n\
                   /* * tidy:allow(determinism) -- x */\n\
                   let a = 1;\n";
        let f = SourceFile::parse(src);
        assert!(f.suppressions.is_empty(), "{:?}", f.suppressions);
    }
}
