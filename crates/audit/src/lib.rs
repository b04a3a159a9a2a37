//! `geogrid-audit`: an offline, dependency-light static-analysis pass over
//! the workspace's own Rust sources, run as `cargo lint-all`.
//!
//! It checks only what rustc, clippy, the workspace lint table, the
//! runtime auditor (`geogrid_core::audit`) and the tests cannot express:
//! call-site discipline for the coupled mutation primitives. It uses a
//! hand-rolled token scanner (no `syn` — the build environment has no
//! registry access, and a lossy-but-honest lexer is all these rules need).
//!
//! # Rule catalog
//!
//! | ID | Rule |
//! |-------|------|
//! | GG000 | marker hygiene: every `// audit:` marker uses a known family and attaches to a function |
//! | GG001 | marked-site primitives ([`SITE_FAMILIES`]): geometry rewrites, snapshot publication and store hand-off are called only from functions carrying their marker, and every marked function calls what its marker requires |
//!
//! Both rules are *lexical* (per-function token patterns). The missing
//! ids belong to retired rules whose invariants other checks now enforce;
//! DESIGN.md §7 names the enforcer of every invariant.
//!
//! Every rule has a fix-it hint ([`hint`]) and seeded-violation self-tests
//! proving it catches the mistake it exists for.
//!
//! The scanner is *lossy by design*: it lexes identifiers, operators,
//! strings and comments exactly (so markers in comments and banned calls
//! in code are never confused with string contents), but it does not
//! build an AST. Function bodies are recovered by brace matching, test
//! code by `#[cfg(test)]`/`#[test]` attribute tracking. That is enough
//! for rules keyed on call-shaped token patterns, and it keeps the tool
//! running in milliseconds with zero dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------------

/// One lint rule: machine-readable id, summary, and fix-it hint.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Machine-readable rule id (`GG001` …).
    pub id: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
}

/// The full rule catalog, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "GG000",
        summary: "marker hygiene: every `// audit:` marker uses a known family \
                  and attaches to a function",
        hint: "use one of the known marker families (geometry-rewrite, \
               snapshot-publish, store-handoff) and place the marker directly \
               above a function",
    },
    RuleInfo {
        id: "GG001",
        summary: "marked-site primitives: geometry-rewrite helpers, snapshot \
                  publication and store hand-off are called only from functions \
                  carrying their `// audit:` marker, and every marked function \
                  calls what the marker requires",
        hint: "move the call into an already-marked site, or mark the function \
               with the family's marker (geometry-rewrite, snapshot-publish, \
               store-handoff) and make it call the required primitives",
    },
];

/// The fix-it hint for a rule id.
pub fn hint(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.hint)
        .unwrap_or("see crates/audit/src/lib.rs for the rule catalog")
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's id (`GG001` …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description of this specific violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}\n  {}\n  fix: {}",
            self.rule,
            self.path,
            self.line,
            self.message,
            hint(self.rule)
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A lexed token (comments are captured separately as [`Marker`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (content only, escapes left as written).
    Str(String),
    /// Operator or punctuation (multi-character operators kept whole).
    Op(String),
    /// Numeric or char literal (content irrelevant to every rule).
    Lit,
    /// Lifetime (`'a`).
    Life,
}

impl Tok {
    fn is(&self, s: &str) -> bool {
        match self {
            Tok::Ident(t) | Tok::Op(t) => t == s,
            _ => false,
        }
    }
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// An `// audit: ...` marker comment.
#[derive(Debug, Clone)]
pub struct Marker {
    /// 1-based line of the comment.
    pub line: u32,
    /// Text after `audit:`, trimmed.
    pub text: String,
}

/// Lexer output: code tokens plus audit marker comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All `// audit:` markers in source order.
    pub markers: Vec<Marker>,
}

const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lexes Rust source into tokens and audit markers. Comments, string and
/// char literals are consumed exactly so rule patterns can never match
/// inside them; everything else is tokenized loosely but safely.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = src[start..i].trim_start_matches('/').trim();
                if let Some(rest) = text.strip_prefix("audit:") {
                    out.markers.push(Marker {
                        line,
                        text: rest.trim().to_string(),
                    });
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (content, ni, nl) = lex_string(src, i, line);
                out.tokens.push(Token {
                    tok: Tok::Str(content),
                    line,
                });
                i = ni;
                line = nl;
            }
            b'\'' => {
                let (tok, ni, nl) = lex_quote(src, i, line);
                out.tokens.push(Token { tok, line });
                i = ni;
                line = nl;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                // Raw/byte string prefixes: r"", r#""#, b"", br#""#.
                if let Some((content, ni, nl)) = try_raw_or_byte_string(src, i, line) {
                    out.tokens.push(Token {
                        tok: Tok::Str(content),
                        line,
                    });
                    i = ni;
                    line = nl;
                    continue;
                }
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                // Raw identifier `r#name`: keep the bare name.
                let mut text = &src[start..i];
                if text == "r" && b.get(i) == Some(&b'#') {
                    let s2 = i + 1;
                    let mut j = s2;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                    if j > s2 {
                        text = &src[s2..j];
                        i = j;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(text.to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    let continues = d == b'_'
                        || d.is_ascii_alphanumeric()
                        || (d == b'.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                        || ((d == b'+' || d == b'-')
                            && matches!(b.get(i - 1), Some(&b'e') | Some(&b'E')));
                    if !continues {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            _ => {
                let rest = &src[i..];
                let op = MULTI_OPS.iter().find(|op| rest.starts_with(**op));
                match op {
                    Some(op) => {
                        out.tokens.push(Token {
                            tok: Tok::Op(op.to_string()),
                            line,
                        });
                        i += op.len();
                    }
                    None => {
                        out.tokens.push(Token {
                            tok: Tok::Op((c as char).to_string()),
                            line,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

/// Lexes a `"..."` string starting at `i` (the opening quote). Returns
/// (content, next index, next line).
fn lex_string(src: &str, i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let mut j = i + 1;
    let start = j;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                line += 1;
                j += 1;
            }
            b'"' => return (src[start..j].to_string(), j + 1, line),
            _ => j += 1,
        }
    }
    (src[start..j.min(src.len())].to_string(), j, line)
}

/// Lexes the token starting with `'`: a char literal or a lifetime.
fn lex_quote(src: &str, i: usize, line: u32) -> (Tok, usize, u32) {
    let b = src.as_bytes();
    let j = i + 1;
    if j >= b.len() {
        return (Tok::Op("'".to_string()), j, line);
    }
    if b[j] == b'\\' {
        // Escaped char literal: '\n', '\'', '\u{..}', '\x7f'.
        let mut k = j + 1;
        if b.get(k) == Some(&b'u') && b.get(k + 1) == Some(&b'{') {
            while k < b.len() && b[k] != b'}' {
                k += 1;
            }
            k += 1;
        } else if b.get(k) == Some(&b'x') {
            k += 3;
        } else {
            k += 1;
        }
        if b.get(k) == Some(&b'\'') {
            k += 1;
        }
        return (Tok::Lit, k.min(src.len()), line);
    }
    // One char then a closing quote → char literal; otherwise lifetime.
    let mut chars = src[j..].chars();
    if let Some(c0) = chars.next() {
        let after = j + c0.len_utf8();
        if b.get(after) == Some(&b'\'') {
            return (Tok::Lit, after + 1, line);
        }
    }
    let mut k = j;
    while k < b.len() && (b[k] == b'_' || b[k].is_ascii_alphanumeric()) {
        k += 1;
    }
    (Tok::Life, k.max(j + 1), line)
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##` starting at ident char
/// `i`; returns `None` if the text there is not a raw/byte string.
fn try_raw_or_byte_string(src: &str, i: usize, mut line: u32) -> Option<(String, usize, u32)> {
    let b = src.as_bytes();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') || (!raw && (hashes > 0 || j == i)) {
        return None;
    }
    if !raw {
        // Plain byte string b"…": same escape rules as a normal string.
        let (s, ni, nl) = lex_string(src, j, line);
        return Some((s, ni, nl));
    }
    j += 1;
    let start = j;
    let closer: String = std::iter::once('"')
        .chain("#".repeat(hashes).chars())
        .collect();
    while j < b.len() {
        if b[j] == b'\n' {
            line += 1;
        }
        if src[j..].starts_with(&closer) {
            return Some((src[start..j].to_string(), j + closer.len(), line));
        }
        j += 1;
    }
    Some((src[start..].to_string(), j, line))
}

// ---------------------------------------------------------------------------
// Item model: functions, attributes, test regions
// ---------------------------------------------------------------------------

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// `// audit:` markers attached to this function.
    pub markers: Vec<String>,
    /// Token-index range of the body (between the braces, exclusive).
    pub body: Range<usize>,
    /// Whether the function is test-only (`#[test]`, `#[cfg(test)]`, or
    /// inside a `#[cfg(test)] mod`).
    pub is_test: bool,
}

/// A file's lexed tokens plus the recovered item structure.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// All code tokens.
    pub tokens: Vec<Token>,
    /// Every recovered function.
    pub fns: Vec<FnItem>,
    /// `// audit:` markers not attached to any function (GG000).
    pub stray_markers: Vec<Marker>,
}

fn is_cfg_test(attr: &str) -> bool {
    attr.starts_with("cfg") && attr.contains("test")
}

fn is_test_attr(attr: &str) -> bool {
    attr == "test" || is_cfg_test(attr)
}

/// Builds the item model from lexed tokens.
pub fn model(path: &str, lexed: &Lexed) -> FileModel {
    let toks = &lexed.tokens;
    let mut fm = FileModel {
        path: path.to_string(),
        tokens: Vec::new(),
        fns: Vec::new(),
        stray_markers: Vec::new(),
    };
    // Token ranges of `#[cfg(test)] mod` bodies.
    let mut test_ranges: Vec<Range<usize>> = Vec::new();
    let mut marker_cursor = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].tok.is("#") && toks.get(i + 1).is_some_and(|t| t.tok.is("[")) {
            // One or more outer attributes, then the item they decorate.
            let mut attrs = Vec::new();
            let mut j = i;
            while toks.get(j).is_some_and(|t| t.tok.is("#"))
                && toks.get(j + 1).is_some_and(|t| t.tok.is("["))
            {
                match collect_attr(toks, j + 1) {
                    Some((text, end)) => {
                        attrs.push(text);
                        j = end;
                    }
                    None => break,
                }
            }
            j = skip_visibility_and_qualifiers(toks, j);
            if toks.get(j).is_some_and(|t| t.tok.is("fn")) {
                let next = handle_fn(toks, j, attrs, lexed, &mut marker_cursor, &mut fm);
                i = next;
                continue;
            }
            if toks.get(j).is_some_and(|t| t.tok.is("mod")) && attrs.iter().any(|a| is_cfg_test(a))
            {
                // `#[cfg(test)] mod …`: record the body as a test range
                // and keep scanning inside it (fns there are still
                // segmented, flagged as tests via the range).
                if let Some(open) = find_from(toks, j, "{") {
                    if let Some(close) = match_brace(toks, open) {
                        test_ranges.push(open..close + 1);
                    }
                    i = open + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        if toks[i].tok.is("fn") {
            let next = handle_fn(toks, i, Vec::new(), lexed, &mut marker_cursor, &mut fm);
            i = next;
            continue;
        }
        i += 1;
    }
    // Markers the fn scan never attached (e.g. trailing at end of file).
    fm.stray_markers
        .extend(lexed.markers[marker_cursor..].iter().cloned());
    // Re-check test status now that all ranges are known, and keep the
    // token stream for the rules.
    for f in &mut fm.fns {
        if test_ranges.iter().any(|r| r.contains(&f.body.start)) {
            f.is_test = true;
        }
    }
    fm.tokens = toks.clone();
    fm
}

/// Collects an attribute's tokens starting at the `[` index; returns the
/// flattened text and the index just past the closing `]`.
fn collect_attr(toks: &[Token], open: usize) -> Option<(String, usize)> {
    if !toks.get(open)?.tok.is("[") {
        return None;
    }
    let mut depth = 0i32;
    let mut parts = Vec::new();
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j].tok;
        if t.is("[") {
            depth += 1;
            if depth > 1 {
                parts.push("[".to_string());
            }
        } else if t.is("]") {
            depth -= 1;
            if depth == 0 {
                return Some((parts.join(" "), j + 1));
            }
            parts.push("]".to_string());
        } else {
            parts.push(match t {
                Tok::Ident(s) | Tok::Op(s) => s.clone(),
                Tok::Str(s) => format!("{s:?}"),
                Tok::Lit => "#lit".to_string(),
                Tok::Life => "'_".to_string(),
            });
        }
        j += 1;
    }
    None
}

fn skip_visibility_and_qualifiers(toks: &[Token], mut j: usize) -> usize {
    if toks.get(j).is_some_and(|t| t.tok.is("pub")) {
        j += 1;
        if toks.get(j).is_some_and(|t| t.tok.is("(")) {
            if let Some(close) = match_paren(toks, j) {
                j = close + 1;
            }
        }
    }
    while toks.get(j).is_some_and(|t| {
        t.tok.is("const") || t.tok.is("async") || t.tok.is("unsafe") || t.tok.is("extern")
    }) {
        j += 1;
        if let Some(Tok::Str(_)) = toks.get(j).map(|t| &t.tok) {
            j += 1; // extern "C"
        }
    }
    j
}

fn find_from(toks: &[Token], from: usize, what: &str) -> Option<usize> {
    (from..toks.len()).find(|&k| toks[k].tok.is(what))
}

fn match_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.tok.is("{") {
            depth += 1;
        } else if t.tok.is("}") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn match_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.tok.is("(") {
            depth += 1;
        } else if t.tok.is(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Segments the fn starting at token `fn_idx`; returns the index scanning
/// should continue from (past the body, so nested closures/f­ns belong to
/// this item).
fn handle_fn(
    toks: &[Token],
    fn_idx: usize,
    attrs: Vec<String>,
    lexed: &Lexed,
    marker_cursor: &mut usize,
    fm: &mut FileModel,
) -> usize {
    let Some(Tok::Ident(name)) = toks.get(fn_idx + 1).map(|t| &t.tok) else {
        return fn_idx + 1; // `fn(` pointer type — not an item
    };
    let line = toks[fn_idx].line;
    // Body: first `{` at bracket/paren depth 0; a `;` first means no body.
    let mut j = fn_idx + 2;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut open = None;
    while j < toks.len() {
        let t = &toks[j].tok;
        if t.is("(") {
            paren += 1;
        } else if t.is(")") {
            paren -= 1;
        } else if t.is("[") {
            bracket += 1;
        } else if t.is("]") {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is("{") {
                open = Some(j);
                break;
            }
            if t.is(";") {
                break;
            }
        }
        j += 1;
    }
    let Some(open) = open else {
        return j + 1;
    };
    let close = match_brace(toks, open).unwrap_or(toks.len().saturating_sub(1));
    // Attach every unconsumed marker written above this fn.
    let mut markers = Vec::new();
    while *marker_cursor < lexed.markers.len() && lexed.markers[*marker_cursor].line <= line {
        markers.push(lexed.markers[*marker_cursor].text.clone());
        *marker_cursor += 1;
    }
    fm.fns.push(FnItem {
        name: name.clone(),
        line,
        markers,
        body: open + 1..close,
        is_test: attrs.iter().any(|a| is_test_attr(a)),
    });
    close + 1
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The private `Topology` helpers that together form one geometry rewrite
/// (epoch bump, grid index + slot mirror, express-finger maintenance).
/// Helpers in this list are exempt as *callers* — the finger routines
/// compose each other freely inside the protected layer.
pub const PROTECTED_CALLEES: &[&str] = &[
    "bump_epoch",
    "rewrite_geometry",
    "alloc_slot",
    "free_slot",
    "rebuild_fingers_of",
    "fingers_after_split",
    "fingers_after_merge",
    "clear_fingers_of",
    "retarget_in_links",
    "recompute_one_finger",
];

/// One GG001 row: a family of coupled mutation primitives that may be
/// called only from functions carrying `// audit: <marker>` (or one of the
/// `also` markers), while every function carrying the marker must call at
/// least one callee of each `requires` group. A marker may override the
/// groups with a `requires = a, b|c` clause. The primitives may call each
/// other, and test code — `#[cfg(test)]` items and whole `tests/` and
/// `benches/` trees — may call them freely to probe them.
#[derive(Debug)]
pub struct SiteFamily {
    /// The `// audit:` marker family that licenses a call site.
    pub marker: &'static str,
    /// The guarded primitives.
    pub primitives: &'static [&'static str],
    /// Other marker families that also license a call.
    pub also: &'static [&'static str],
    /// Default required-callee groups for a marked function.
    pub requires: &'static [&'static [&'static str]],
}

/// The GG001 table.
///
/// * `geometry-rewrite`: [`PROTECTED_CALLEES`]. `rewrite_geometry`,
///   `alloc_slot` and `free_slot` each maintain the grid index *and* the
///   slot mirror, so one call covers both coupled sites; `bump_epoch` is
///   always separately required.
/// * `snapshot-publish`: the only way a new `TopologySnapshot` reaches
///   concurrent readers. An unmarked publication site could hand readers a
///   snapshot that skips (or duplicates) a geometry epoch. The rewrite
///   sites publish beside their epoch bump, so their marker licenses it.
/// * `store-handoff`: the only way records and subscriptions move between
///   `RegionStore`s wholesale (`split_for` partitions a store in place,
///   `absorb` unions one in with HLC last-write-wins). An unmarked
///   hand-off site could drop or duplicate live records during a geometry
///   rewrite.
pub const SITE_FAMILIES: &[SiteFamily] = &[
    SiteFamily {
        marker: "geometry-rewrite",
        primitives: PROTECTED_CALLEES,
        also: &[],
        requires: &[
            &["bump_epoch"],
            &["rewrite_geometry", "alloc_slot", "free_slot"],
        ],
    },
    SiteFamily {
        marker: "snapshot-publish",
        primitives: &["publish_snapshot", "install_snapshot"],
        also: &["geometry-rewrite"],
        requires: &[&["publish_snapshot", "install_snapshot"]],
    },
    SiteFamily {
        marker: "store-handoff",
        primitives: &["split_for", "absorb"],
        also: &[],
        requires: &[&["split_for", "absorb"]],
    },
];

/// Marker families the audit vocabulary knows; anything else is a GG000
/// violation (most often a typo that would silently disable a rule).
pub const MARKER_FAMILIES: &[&str] = &["geometry-rewrite", "snapshot-publish", "store-handoff"];

/// Whether the body range contains a call to `name` (identifier followed
/// by `(`, not a definition).
fn body_calls(toks: &[Token], body: &Range<usize>, name: &str) -> bool {
    for k in body.clone() {
        if toks[k].tok.is(name)
            && toks.get(k + 1).is_some_and(|t| t.tok.is("("))
            && (k == 0 || !toks[k - 1].tok.is("fn"))
        {
            return true;
        }
    }
    false
}

/// The callee groups a function carrying `marker` must call: the marker's
/// `requires = a, b|c` clause, else the family's default groups.
fn requires<'a>(family: &SiteFamily, marker: &'a str) -> Vec<Vec<&'a str>> {
    let rest = marker.trim_start_matches(family.marker).trim();
    if let Some(list) = rest.strip_prefix("requires") {
        let list = list.trim_start().trim_start_matches('=');
        return list
            .split(',')
            .map(|g| g.split('|').map(str::trim).collect())
            .filter(|g: &Vec<&str>| !g.iter().all(|a| a.is_empty()))
            .collect();
    }
    family.requires.iter().map(|g| g.to_vec()).collect()
}

/// Whether `path` is an integration-test or bench tree (`tests/`,
/// `benches/`): item-level `#[cfg(test)]` tracking can't see these, the
/// directory itself is the test marker.
fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.split('/').any(|seg| seg == "tests" || seg == "benches")
}

/// Runs the rules (GG000, GG001) over one modelled file.
fn lint_file(fm: &FileModel, out: &mut Vec<Finding>) {
    if !is_test_path(&fm.path) {
        rule_marked_sites(fm, out);
    }
    rule_marker_hygiene(fm, out);
}

/// The marker family: text up to the first whitespace or `(`.
fn marker_family(text: &str) -> &str {
    let end = text
        .find(|c: char| c.is_whitespace() || c == '(')
        .unwrap_or(text.len());
    &text[..end]
}

/// GG000: marker hygiene. Every `// audit:` marker must (a) name a known
/// family and (b) precede a function so a rule actually consumes it. A
/// marker failing either silently disables the rule it was meant to
/// engage, which is worse than no marker at all. (A marker separated
/// from its function by other items still attaches to that function —
/// if the pairing is wrong, GG001's dead-marker check fires instead.)
fn rule_marker_hygiene(fm: &FileModel, out: &mut Vec<Finding>) {
    for f in &fm.fns {
        for m in &f.markers {
            let family = marker_family(m);
            if !MARKER_FAMILIES.contains(&family) {
                out.push(Finding {
                    rule: "GG000",
                    path: fm.path.clone(),
                    line: f.line,
                    message: format!(
                        "`{}` carries unknown marker family `audit: {family}` \
                         (known: {})",
                        f.name,
                        MARKER_FAMILIES.join(", "),
                    ),
                });
            }
        }
    }
    for m in &fm.stray_markers {
        out.push(Finding {
            rule: "GG000",
            path: fm.path.clone(),
            line: m.line,
            message: format!(
                "stray `audit: {}` marker not attached to any function \
                 (no rule will ever read it)",
                marker_family(&m.text),
            ),
        });
    }
}

/// GG001: marked-site primitives, one pass per [`SITE_FAMILIES`] row.
fn rule_marked_sites(fm: &FileModel, out: &mut Vec<Finding>) {
    for family in SITE_FAMILIES {
        for f in &fm.fns {
            let mut flag = |message: String| {
                out.push(Finding {
                    rule: "GG001",
                    path: fm.path.clone(),
                    line: f.line,
                    message,
                })
            };
            if let Some(marker) = f.markers.iter().find(|m| marker_family(m) == family.marker) {
                for group in requires(family, marker) {
                    if !group.iter().any(|c| body_calls(&fm.tokens, &f.body, c)) {
                        flag(format!(
                            "`{}` is marked `audit: {}` but never calls {}",
                            f.name,
                            family.marker,
                            group.join(" | "),
                        ));
                    }
                }
                continue;
            }
            if f.is_test
                || family.primitives.contains(&f.name.as_str())
                || f.markers
                    .iter()
                    .any(|m| family.also.contains(&marker_family(m)))
            {
                continue;
            }
            for callee in family.primitives {
                if body_calls(&fm.tokens, &f.body, callee) {
                    flag(format!(
                        "`{}` calls `{callee}` without an `audit: {}` marker",
                        f.name, family.marker,
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories never scanned: third-party shims, build output, VCS.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "results"];

/// Collects every first-party `.rs` file under `root` (workspace-relative
/// paths), skipping [`SKIP_DIRS`].
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&path)?;
                out.push((rel, text));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Reads every first-party source under `root` and runs every rule;
/// findings come in path order.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (path, text) in collect_sources(root)? {
        lint_file(&model(&path, &lex(&text)), &mut findings);
    }
    Ok(findings)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded-violation self-tests: every rule must catch the mistake it
// exists for, and must stay quiet on the compliant version.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_file(&model(path, &lex(src)), &mut out);
        out
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const CORE_PATH: &str = "crates/core/src/topology.rs";

    /// Every GG001 row: an unmarked call fires, a dead marker fires, and a
    /// compliant marked site is quiet.
    #[test]
    fn gg001_every_family_fires_and_accepts_compliant_sites() {
        // (marker, a primitive call, a body that satisfies the marker)
        let rows = [
            (
                "geometry-rewrite",
                "self.free_slot(rid);",
                "self.bump_epoch(); self.rewrite_geometry(rid, &old, new);",
            ),
            (
                "snapshot-publish",
                "cell.install_snapshot(self.snapshot());",
                "self.publish_snapshot();",
            ),
            (
                "store-handoff",
                "let half = self.store.split_for(&kept, &given);",
                "self.store.absorb(other);",
            ),
        ];
        assert_eq!(rows.len(), SITE_FAMILIES.len());
        for (marker, call, compliant) in rows {
            let unmarked =
                lint_source(CORE_PATH, &format!("pub fn sneaky(&mut self) {{ {call} }}"));
            assert_eq!(rules_of(&unmarked), vec!["GG001"], "{marker}: {unmarked:?}");
            assert!(
                unmarked[0].message.contains("without an `audit: ")
                    && unmarked[0].message.contains(marker),
                "{}",
                unmarked[0].message
            );

            let dead = lint_source(
                CORE_PATH,
                &format!("// audit: {marker}\npub fn site(&mut self) {{ self.region = merged; }}"),
            );
            assert!(!dead.is_empty(), "{marker}: dead marker went unreported");
            for f in &dead {
                assert_eq!(f.rule, "GG001");
                assert!(f.message.contains("never calls"), "{}", f.message);
            }

            let ok = lint_source(
                CORE_PATH,
                &format!("// audit: {marker}\npub fn site(&mut self) {{ {compliant} }}"),
            );
            assert!(ok.is_empty(), "{marker}: {ok:?}");
        }
    }

    #[test]
    fn gg001_catches_missing_epoch_bump() {
        let src = r#"
            // audit: geometry-rewrite
            pub fn split_region(&mut self) {
                self.rewrite_geometry(rid, &old, new);
            }
        "#;
        let f = lint_source(CORE_PATH, src);
        assert_eq!(rules_of(&f), vec!["GG001"]);
        assert!(f[0].message.contains("bump_epoch"), "{}", f[0].message);
    }

    #[test]
    fn gg001_catches_missing_grid_rewrite() {
        let src = r#"
            // audit: geometry-rewrite
            pub fn merge_regions(&mut self) {
                self.bump_epoch();
            }
        "#;
        let f = lint_source(CORE_PATH, src);
        assert_eq!(rules_of(&f), vec!["GG001"]);
        assert!(f[0].message.contains("rewrite_geometry"));
    }

    #[test]
    fn gg001_respects_custom_requires_clause() {
        let src = r#"
            // audit: geometry-rewrite requires = bump_epoch, special_update
            pub fn custom(&mut self) {
                self.bump_epoch();
            }
        "#;
        let f = lint_source(CORE_PATH, src);
        assert_eq!(rules_of(&f), vec!["GG001"]);
        assert!(f[0].message.contains("special_update"));
    }

    #[test]
    fn gg001_accepts_primitives_rewrite_publication_and_test_code() {
        let src = r#"
            fn bump_epoch(&mut self) { self.epoch += 1; }
            // audit: snapshot-publish
            fn publish_snapshot(&mut self) {
                if let Some(cell) = &self.publish {
                    cell.install_snapshot(self.snapshot());
                }
            }
            // audit: geometry-rewrite requires = bump_epoch, publish_snapshot
            pub fn split_region(&mut self) {
                self.bump_epoch();
                self.publish_snapshot();
            }
            pub fn split_for(&mut self, own: &Region, other: &Region) -> RegionStore {
                self.partition(own, other)
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn probes_primitives() {
                    t.free_slot(rid);
                    cell.install_snapshot(old);
                    let b = a.split_for(&low, &high);
                    a.absorb(b);
                }
            }
        "#;
        assert!(lint_source(CORE_PATH, src).is_empty());
        // Integration-test and bench trees call primitives without markers.
        let probe = r#"
            fn run_ops(stores: &mut Vec<RegionStore>) {
                let s = stores[0].split_for(&own, &other);
                stores[0].absorb(s);
                cell.install_snapshot(snap);
            }
        "#;
        assert!(lint_source("crates/core/tests/store_model.rs", probe).is_empty());
        assert!(lint_source("crates/bench/benches/routing.rs", probe).is_empty());
    }

    #[test]
    fn gg000_catches_unknown_marker_family() {
        let src = r#"
            // audit: hotpath-exempt(typo'd family)
            fn promote(&mut self) {}
        "#;
        let f = lint_source(CORE_PATH, src);
        assert_eq!(rules_of(&f), vec!["GG000"]);
        assert!(f[0].message.contains("unknown marker family"));
    }

    #[test]
    fn gg000_catches_stray_marker() {
        // No function follows this marker, so no rule will ever consume
        // it — the exemption (or site allowance) it promises is dead.
        let src = r#"
            fn promote(&mut self) {}
            // audit: store-handoff (dangling: attached to a const, not a fn)
            const SLAB_SLOTS: usize = 64;
        "#;
        let f = lint_source(CORE_PATH, src);
        assert_eq!(rules_of(&f), vec!["GG000"]);
        assert!(f[0].message.contains("stray"), "{}", f[0].message);
    }

    #[test]
    fn lexer_keeps_string_contents_out_of_code_tokens() {
        let src = r##"
            fn f<'a>(x: &'a str) -> char {
                let s = r#"has ".unwrap()" and self.free_slot(rid) inside"#;
                let b = b"bytes";
                let c = '\n';
                let d = 'x';
                'outer: loop { break 'outer; }
                c
            }
        "##;
        let toks = lex(src).tokens;
        assert!(!toks
            .iter()
            .any(|t| t.tok.is("unwrap") || t.tok.is("free_slot")));
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Life).count(), 4);
        assert!(lint_source(CORE_PATH, src).is_empty());
    }

    #[test]
    fn rule_table_is_consistent() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["GG000", "GG001"]);
        for r in RULES {
            assert!(!r.summary.is_empty());
            assert!(!r.hint.is_empty());
            assert_eq!(hint(r.id), r.hint);
        }
    }
}
