//! Approximate workspace call graph and the reachability rules GG008 and
//! GG011.
//!
//! The per-file rules in the crate root check token patterns inside one
//! function body. The rules here need to see *through* helper calls: a
//! `#[hot_path]` function that delegates its allocation to a helper is
//! exactly as slow as one that allocates inline. This module links every
//! function definition and call site in the workspace into a call graph
//! and walks it.
//!
//! # Call resolution (approximate, by design)
//!
//! There is no type information — resolution is a name-based best effort,
//! in tiers:
//!
//! 1. **Same module**: a plain `helper()` call resolves to a function of
//!    that name in the same file, if there is exactly one.
//! 2. **`use`-imported**: `wire::get_message()` and imported plain names
//!    resolve through the file's parsed `use` tree (including nested
//!    groups and `as` renames), then by locating the target crate
//!    (`crate::` / `geogrid_*::`) and module file by stem.
//! 3. **Unique name**: a name defined exactly once in the workspace
//!    resolves to that definition even without an import (methods called
//!    on non-`self` receivers rely on this tier).
//!
//! Anything still ambiguous lands in an explicit **unresolved bucket**
//! ([`Analysis::unresolved`], printed under `--verbose`) rather than
//! being silently dropped — an auditor should know what it could not see.
//! Calls into external crates (`std`, the vendored shims, …) are counted
//! but not traversed.
//!
//! # Known false-negative classes
//!
//! * **Trait dispatch**: a call through `dyn Trait` or a generic bound
//!   resolves to nothing (no type info). Derived / trait-provided methods
//!   (`T::default()`, `.cmp()`) are treated as external.
//! * **Common std method names**: `.get()`, `.insert()`, `.len()`, … are
//!   assumed to be std container methods when not called on `self`; a
//!   first-party method sharing such a name is not traversed.
//! * **Function pointers / closures passed as values** are not edges.
//! * **`std::sync::RwLock`** is not in the GG011 blocking set (the core
//!   topology handle is deliberately RwLock-based and transport never
//!   holds it across `.await`).
//!
//! These are documented in DESIGN.md §7 next to the invariant each rule
//! enforces.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::path::Path;

use crate::{
    collect_sources, is_hot_path_attr, lex, lint_file, match_brace, match_paren, model, FileModel,
    Finding, Tok, Token, HOT_BANNED_MACROS, HOT_BANNED_METHODS, HOT_BANNED_TYPES,
};

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A call site the resolver could not link to a definition or dismiss as
/// external. Reported under `--verbose` so the approximation is auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedCall {
    /// Workspace-relative path of the call site.
    pub path: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Name of the calling function.
    pub caller: String,
    /// Rendered callee (`helper`, `.method()`, `a::b::f`).
    pub callee: String,
}

/// Result of a whole-workspace analysis: findings from every rule plus
/// call-graph statistics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings (per-file lexical rules, then graph rules), in
    /// deterministic order.
    pub findings: Vec<Finding>,
    /// Call sites the resolver could not link (see module docs).
    pub unresolved: Vec<UnresolvedCall>,
    /// Number of function definitions in the graph.
    pub functions: usize,
    /// Number of call edges resolved to a first-party definition.
    pub edges_resolved: usize,
    /// Number of call edges dismissed as external (std / vendored shims).
    pub edges_external: usize,
}

/// Runs the full analysis (per-file rules + call-graph rules) over
/// in-memory sources. `files` holds `(workspace-relative path, text)`
/// pairs, as produced by [`collect_sources`].
pub fn analyze_files(files: &[(String, String)]) -> Analysis {
    let mut findings = Vec::new();
    let mut models = Vec::new();
    for (path, text) in files {
        let fm = model(path, &lex(text));
        lint_file(&fm, &mut findings);
        models.push(fm);
    }
    let graph = Graph::build(&models);
    let mut graph_findings = Vec::new();
    graph.rule_hot_transitive(&mut graph_findings);
    graph.rule_async_blocking(&mut graph_findings);
    graph_findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.extend(graph_findings);
    Analysis {
        findings,
        unresolved: graph.unresolved,
        functions: graph.nodes.len(),
        edges_resolved: graph.edges.iter().map(Vec::len).sum(),
        edges_external: graph.edges_external,
    }
}

/// Reads every first-party source under `root` and runs [`analyze_files`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze_files(&collect_sources(root)?))
}

// ---------------------------------------------------------------------------
// Graph model
// ---------------------------------------------------------------------------

/// Crates whose paths are never first-party: calls rooted there are
/// external by definition.
const EXTERNAL_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "tokio",
    "parking_lot",
    "bytes",
    "rand",
    "proptest",
    "criterion",
];

/// Method names assumed to be std-container/iterator/number methods when
/// not called on `self`. Suppressing resolution here trades a documented
/// false-negative class for a graph with no bogus edges.
const STD_METHOD_NAMES: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "clear",
    "drain",
    "extend",
    "append",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "next",
    "peek",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "flat_map",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "rev",
    "take",
    "skip",
    "step_by",
    "chain",
    "zip",
    "enumerate",
    "last",
    "nth",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "binary_search",
    "binary_search_by",
    "split",
    "split_at",
    "split_off",
    "join",
    "concat",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "chars",
    "bytes",
    "as_str",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "borrow",
    "borrow_mut",
    "into",
    "try_into",
    "to_le_bytes",
    "to_be_bytes",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "abs",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "powi",
    "powf",
    "cmp",
    "partial_cmp",
    "eq",
    "hash",
    "fmt",
];

/// Keywords that look like `name (` in token streams but are not calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "return", "for", "loop", "in", "as", "move", "else", "let", "fn",
    "where", "impl", "use", "mod", "ref", "mut", "dyn", "type", "unsafe", "async", "await", "self",
    "super", "crate",
];

#[derive(Debug, Clone)]
enum CallKind {
    /// `helper(...)`.
    Plain(String),
    /// `recv.name(...)`; `on_self` when the receiver is literally `self`.
    Method { name: String, on_self: bool },
    /// `a::b::name(...)` — `path` excludes the final `name`.
    Qualified { path: Vec<String>, name: String },
}

#[derive(Debug, Clone)]
struct Call {
    kind: CallKind,
    line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactKind {
    Alloc,
    Panic,
    Blocking,
}

#[derive(Debug, Clone)]
struct Fact {
    kind: FactKind,
    line: u32,
    what: String,
}

#[derive(Debug)]
struct FileData {
    path: String,
    stem: String,
    crate_key: String,
    imports: HashMap<String, Vec<String>>,
}

#[derive(Debug)]
struct FnNode {
    file: usize,
    name: String,
    line: u32,
    is_test: bool,
    is_async: bool,
    hot: bool,
    exempt: bool,
    impl_type: Option<String>,
    calls: Vec<Call>,
    facts: Vec<Fact>,
}

struct Graph {
    files: Vec<FileData>,
    nodes: Vec<FnNode>,
    /// Resolved adjacency (node -> callees), sorted + deduped.
    edges: Vec<Vec<usize>>,
    unresolved: Vec<UnresolvedCall>,
    edges_external: usize,
}

enum Resolution {
    Node(usize),
    External,
    Unresolved,
}

/// The crate a workspace-relative path belongs to (`crates/<key>/…`), or
/// `"root"` for the workspace package itself.
fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(key) = parts.next() {
            return key.to_string();
        }
    }
    "root".to_string()
}

/// Module stem used for path-based resolution: the file stem, or the
/// parent directory name for `mod.rs`.
fn module_stem(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let file = parts.last().copied().unwrap_or_default();
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if stem == "mod" && parts.len() >= 2 {
        parts[parts.len() - 2].to_string()
    } else {
        stem.to_string()
    }
}

fn starts_uppercase(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

// ---------------------------------------------------------------------------
// Per-file extraction
// ---------------------------------------------------------------------------

/// Parses every `use` declaration in the token stream into a map from
/// locally visible name to full path segments. Handles nested groups,
/// `as` renames, and `self` group members; globs are ignored.
fn parse_imports(toks: &[Token]) -> HashMap<String, Vec<String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok.is("use") {
            i = parse_use_tree(toks, i + 1, &[], &mut map);
        } else {
            i += 1;
        }
    }
    map
}

/// Parses one use-tree starting at `i` with `prefix` already consumed;
/// returns the index of the token after the tree (past `;`, or at the
/// `,` / `}` that ends it inside a group).
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    prefix: &[String],
    map: &mut HashMap<String, Vec<String>>,
) -> usize {
    let mut segs: Vec<String> = prefix.to_vec();
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if s == "self" => {
                // `use a::b::{self, ...}`: binds the parent segment.
                if let Some(last) = segs.last().cloned() {
                    map.insert(last, segs.clone());
                }
                i += 1;
            }
            Some(Tok::Ident(s)) => {
                segs.push(s.clone());
                i += 1;
                match toks.get(i).map(|t| &t.tok) {
                    Some(t) if t.is("::") => {
                        i += 1;
                        continue;
                    }
                    Some(Tok::Ident(kw)) if kw == "as" => {
                        if let Some(Tok::Ident(alias)) = toks.get(i + 1).map(|t| &t.tok) {
                            map.insert(alias.clone(), segs.clone());
                        }
                    }
                    _ => {
                        map.insert(s.clone(), segs.clone());
                    }
                }
            }
            Some(t) if t.is("{") => {
                i += 1;
                loop {
                    match toks.get(i).map(|t| &t.tok) {
                        Some(t) if t.is("}") => {
                            i += 1;
                            break;
                        }
                        Some(t) if t.is(",") => i += 1,
                        None => break,
                        _ => i = parse_use_tree(toks, i, &segs, map),
                    }
                }
            }
            _ => {}
        }
        // Consume to the end of this tree.
        loop {
            match toks.get(i).map(|t| &t.tok) {
                Some(t) if t.is(";") => return i + 1,
                Some(t) if t.is(",") || t.is("}") => return i,
                None => return i,
                _ => i += 1,
            }
        }
    }
}

/// `(body-range, type-name)` for every inherent/trait impl block. The
/// type name is the last depth-0 identifier before the opening brace,
/// skipping generic parameters, `for`, `dyn`, and the `where` clause.
fn impl_ranges(toks: &[Token]) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].tok.is("impl") {
            i += 1;
            continue;
        }
        // `impl` in type position (`-> impl Future`, `(impl Buf, ...)`)
        // is not an item.
        if i > 0 {
            let prev = &toks[i - 1].tok;
            let type_pos = ["->", "(", ",", ":", "=", "&", "<", "+", "|"]
                .iter()
                .any(|s| prev.is(s));
            if type_pos {
                i += 1;
                continue;
            }
        }
        let mut angle = 0i32;
        let mut j = i + 1;
        let mut last_ident: Option<String> = None;
        let mut after_where = false;
        let mut open = None;
        while j < toks.len() {
            let t = &toks[j].tok;
            if t.is("<") {
                angle += 1;
            } else if t.is("<<") {
                angle += 2;
            } else if t.is(">") {
                angle -= 1;
            } else if t.is(">>") {
                angle -= 2;
            } else if angle <= 0 {
                if t.is("{") {
                    open = Some(j);
                    break;
                }
                if t.is(";") {
                    break;
                }
                if t.is("where") {
                    after_where = true;
                }
                if !after_where {
                    if let Tok::Ident(s) = t {
                        if s != "for" && s != "dyn" && s != "where" {
                            last_ident = Some(s.clone());
                        }
                    }
                }
            }
            j += 1;
        }
        if let (Some(open), Some(name)) = (open, last_ident) {
            if let Some(close) = match_brace(toks, open) {
                out.push((open + 1..close, name));
                i = open + 1;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// Token ranges inside `spawn_blocking(...)` arguments: code there runs
/// on the blocking pool, so it is detached from the caller for both call
/// edges and facts.
fn detached_ranges(toks: &[Token], body: &Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for k in body.clone() {
        if toks[k].tok.is("spawn_blocking") && toks.get(k + 1).is_some_and(|t| t.tok.is("(")) {
            if let Some(close) = match_paren(toks, k + 1) {
                out.push(k + 2..close);
            }
        }
    }
    out
}

/// Walks back over `ident ::` pairs ending at the call name token `k`,
/// returning the qualifying path segments in source order.
fn qualifier_path(toks: &[Token], k: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = k;
    while j >= 2 && toks[j - 1].tok.is("::") {
        if let Tok::Ident(s) = &toks[j - 2].tok {
            segs.push(s.clone());
            j -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Expands the leading path segment through the file's imports.
fn expand_path(imports: &HashMap<String, Vec<String>>, path: &[String]) -> Vec<String> {
    if let Some(first) = path.first() {
        if let Some(exp) = imports.get(first) {
            let mut full = exp.clone();
            full.extend(path[1..].iter().cloned());
            return full;
        }
    }
    path.to_vec()
}

/// Whether an expanded qualified call is a known blocking std call;
/// returns a description if so.
fn blocking_call(full: &[String], name: &str) -> Option<String> {
    if full.first().map(String::as_str) != Some("std") {
        return None;
    }
    match full.get(1).map(String::as_str) {
        Some("thread") if name == "sleep" => {
            Some("`std::thread::sleep` (blocks the executor thread)".to_string())
        }
        Some("fs") => Some(format!("`std::fs::{name}` (blocking file IO)")),
        Some("net") => {
            let ty = full.get(2).map(String::as_str)?;
            if ["TcpStream", "TcpListener", "UdpSocket"].contains(&ty) {
                Some(format!("`std::net::{ty}::{name}` (blocking socket IO)"))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Extracts call sites and danger facts from one function body.
fn extract(
    toks: &[Token],
    body: &Range<usize>,
    imports: &HashMap<String, Vec<String>>,
) -> (Vec<Call>, Vec<Fact>) {
    let detached = detached_ranges(toks, body);
    let is_detached = |k: usize| detached.iter().any(|r| r.contains(&k));
    let std_mutex = imports.get("Mutex").is_some_and(|p| {
        p.first().map(String::as_str) == Some("std") && p.get(1).map(String::as_str) == Some("sync")
    });
    let mut calls = Vec::new();
    let mut facts = Vec::new();
    for k in body.clone() {
        if is_detached(k) {
            continue;
        }
        let Tok::Ident(name) = &toks[k].tok else {
            continue;
        };
        let line = toks[k].line;
        let next_open = toks.get(k + 1).is_some_and(|t| t.tok.is("("));
        let next_bang = toks.get(k + 1).is_some_and(|t| t.tok.is("!"));
        let prev_dot = k > 0 && toks[k - 1].tok.is(".");
        let prev_path = k > 0 && toks[k - 1].tok.is("::");

        // Macro facts.
        if next_bang {
            if HOT_BANNED_MACROS.contains(&name.as_str()) {
                facts.push(Fact {
                    kind: FactKind::Alloc,
                    line,
                    what: format!("`{name}!` (allocates)"),
                });
            }
            if ["panic", "todo", "unimplemented"].contains(&name.as_str()) {
                facts.push(Fact {
                    kind: FactKind::Panic,
                    line,
                    what: format!("`{name}!`"),
                });
            }
            continue;
        }

        // `Type::new` style allocation facts.
        if HOT_BANNED_TYPES.contains(&name.as_str())
            && toks.get(k + 1).is_some_and(|t| t.tok.is("::"))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.tok.is("new") || t.tok.is("from") || t.tok.is("with_capacity"))
        {
            if let Some(Tok::Ident(m)) = toks.get(k + 2).map(|t| &t.tok) {
                facts.push(Fact {
                    kind: FactKind::Alloc,
                    line,
                    what: format!("`{name}::{m}` (allocates)"),
                });
            }
        }

        if prev_dot {
            // Method facts (allow `.collect::<T>()` turbofish).
            let callish = next_open || toks.get(k + 1).is_some_and(|t| t.tok.is("::"));
            if callish && HOT_BANNED_METHODS.contains(&name.as_str()) {
                facts.push(Fact {
                    kind: FactKind::Alloc,
                    line,
                    what: format!("`.{name}()` (allocates or copies)"),
                });
            }
            if next_open && name == "unwrap" {
                facts.push(Fact {
                    kind: FactKind::Panic,
                    line,
                    what: "`.unwrap()` (may panic)".to_string(),
                });
            }
            if next_open && name == "expect" {
                let documented = matches!(
                    toks.get(k + 2).map(|t| &t.tok),
                    Some(Tok::Str(s)) if s.starts_with("invariant:")
                );
                if !documented {
                    facts.push(Fact {
                        kind: FactKind::Panic,
                        line,
                        what: "`.expect(...)` without an `\"invariant: ...\"` message".to_string(),
                    });
                }
            }
            if next_open && name == "lock" && std_mutex {
                facts.push(Fact {
                    kind: FactKind::Blocking,
                    line,
                    what: "`.lock()` on std::sync::Mutex (blocking lock)".to_string(),
                });
            }
            if next_open {
                let on_self = k >= 2 && toks[k - 2].tok.is("self");
                calls.push(Call {
                    kind: CallKind::Method {
                        name: name.clone(),
                        on_self,
                    },
                    line,
                });
            }
            continue;
        }

        if !next_open {
            continue;
        }
        if prev_path {
            let path = qualifier_path(toks, k);
            if path.is_empty() {
                continue;
            }
            if starts_uppercase(name) {
                continue; // enum variant / tuple-struct constructor
            }
            let full = expand_path(imports, &path);
            if let Some(what) = blocking_call(&full, name) {
                facts.push(Fact {
                    kind: FactKind::Blocking,
                    line,
                    what,
                });
            }
            calls.push(Call {
                kind: CallKind::Qualified {
                    path,
                    name: name.clone(),
                },
                line,
            });
            continue;
        }
        // Plain call.
        if k > 0 && toks[k - 1].tok.is("fn") {
            continue; // definition, not a call
        }
        if CALL_KEYWORDS.contains(&name.as_str()) || starts_uppercase(name) {
            continue;
        }
        // Imported plain names can still be blocking
        // (`use std::thread::sleep; sleep(..)`).
        if let Some(exp) = imports.get(name.as_str()) {
            if exp.len() >= 2 {
                if let Some(what) = blocking_call(&exp[..exp.len() - 1], name) {
                    facts.push(Fact {
                        kind: FactKind::Blocking,
                        line,
                        what,
                    });
                }
            }
        }
        calls.push(Call {
            kind: CallKind::Plain(name.clone()),
            line,
        });
    }
    (calls, facts)
}

// ---------------------------------------------------------------------------
// Graph construction and resolution
// ---------------------------------------------------------------------------

impl Graph {
    fn build(models: &[FileModel]) -> Graph {
        let mut files = Vec::new();
        let mut nodes = Vec::new();
        for (fi, fm) in models.iter().enumerate() {
            let imports = parse_imports(&fm.tokens);
            let impls = impl_ranges(&fm.tokens);
            for f in &fm.fns {
                let impl_type = impls
                    .iter()
                    .filter(|(r, _)| r.contains(&f.body.start))
                    .min_by_key(|(r, _)| r.end - r.start)
                    .map(|(_, name)| name.clone());
                let (calls, facts) = extract(&fm.tokens, &f.body, &imports);
                nodes.push(FnNode {
                    file: fi,
                    name: f.name.clone(),
                    line: f.line,
                    is_test: f.is_test || crate::is_test_path(&fm.path),
                    is_async: f.is_async,
                    hot: f.attrs.iter().any(|a| is_hot_path_attr(a)),
                    exempt: f.markers.iter().any(|m| m.starts_with("hot-path-exempt")),
                    impl_type,
                    calls,
                    facts,
                });
            }
            files.push(FileData {
                path: fm.path.clone(),
                stem: module_stem(&fm.path),
                crate_key: crate_key(&fm.path),
                imports,
            });
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut unresolved = Vec::new();
        let mut edges_external = 0usize;
        {
            // Inner scope: the name indexes borrow `nodes` and must be
            // gone before `nodes` moves into the returned graph.
            let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
            let mut by_type_method: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
            let mut by_file_name: HashMap<(usize, &str), Vec<usize>> = HashMap::new();
            for (id, n) in nodes.iter().enumerate() {
                by_name.entry(&n.name).or_default().push(id);
                if let Some(ty) = &n.impl_type {
                    by_type_method
                        .entry((ty.as_str(), &n.name))
                        .or_default()
                        .push(id);
                }
                by_file_name.entry((n.file, &n.name)).or_default().push(id);
            }
            for u in 0..nodes.len() {
                for call in &nodes[u].calls {
                    let res = resolve(
                        &files,
                        &nodes,
                        &by_name,
                        &by_type_method,
                        &by_file_name,
                        u,
                        &call.kind,
                    );
                    match res {
                        Resolution::Node(v) => edges[u].push(v),
                        Resolution::External => edges_external += 1,
                        Resolution::Unresolved => unresolved.push(UnresolvedCall {
                            path: files[nodes[u].file].path.clone(),
                            line: call.line,
                            caller: nodes[u].name.clone(),
                            callee: render_call(&call.kind),
                        }),
                    }
                }
                edges[u].sort_unstable();
                edges[u].dedup();
            }
        }
        unresolved.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.callee.as_str()).cmp(&(
                b.path.as_str(),
                b.line,
                b.callee.as_str(),
            ))
        });
        unresolved.dedup();
        Graph {
            files,
            nodes,
            edges,
            unresolved,
            edges_external,
        }
    }
}

fn render_call(kind: &CallKind) -> String {
    match kind {
        CallKind::Plain(name) => name.clone(),
        CallKind::Method { name, .. } => format!(".{name}()"),
        CallKind::Qualified { path, name } => format!("{}::{name}", path.join("::")),
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    files: &[FileData],
    nodes: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    by_type_method: &HashMap<(&str, &str), Vec<usize>>,
    by_file_name: &HashMap<(usize, &str), Vec<usize>>,
    u: usize,
    kind: &CallKind,
) -> Resolution {
    let file = nodes[u].file;
    let unique = |cands: &[usize]| {
        if cands.len() == 1 {
            Some(cands[0])
        } else {
            None
        }
    };
    match kind {
        CallKind::Method { name, on_self } => {
            if !on_self && STD_METHOD_NAMES.contains(&name.as_str()) {
                return Resolution::External;
            }
            if *on_self {
                if let Some(ty) = &nodes[u].impl_type {
                    if let Some(c) = by_type_method.get(&(ty.as_str(), name.as_str())) {
                        if let Some(v) = unique(c) {
                            return Resolution::Node(v);
                        }
                        let same: Vec<usize> = c
                            .iter()
                            .copied()
                            .filter(|&v| nodes[v].file == file)
                            .collect();
                        if let Some(v) = unique(&same) {
                            return Resolution::Node(v);
                        }
                        return Resolution::Unresolved;
                    }
                }
                if STD_METHOD_NAMES.contains(&name.as_str()) {
                    return Resolution::External;
                }
            }
            match by_name.get(name.as_str()) {
                None => Resolution::External,
                Some(c) => {
                    let same: Vec<usize> = c
                        .iter()
                        .copied()
                        .filter(|&v| nodes[v].file == file)
                        .collect();
                    if let Some(v) = unique(&same) {
                        return Resolution::Node(v);
                    }
                    if let Some(v) = unique(c) {
                        return Resolution::Node(v);
                    }
                    Resolution::Unresolved
                }
            }
        }
        CallKind::Qualified { path, name } => {
            let last = path.last().expect("qualified path is non-empty");
            if last == "Self" {
                if let Some(ty) = &nodes[u].impl_type {
                    if let Some(c) = by_type_method.get(&(ty.as_str(), name.as_str())) {
                        if let Some(v) = unique(c) {
                            return Resolution::Node(v);
                        }
                        return Resolution::Unresolved;
                    }
                }
                return Resolution::External; // derived / trait-provided
            }
            if starts_uppercase(last) {
                // `Type::assoc_fn(..)`.
                match by_type_method.get(&(last.as_str(), name.as_str())) {
                    None => Resolution::External, // derived / trait-provided
                    Some(c) => {
                        if let Some(v) = unique(c) {
                            return Resolution::Node(v);
                        }
                        let same_crate: Vec<usize> = c
                            .iter()
                            .copied()
                            .filter(|&v| files[nodes[v].file].crate_key == files[file].crate_key)
                            .collect();
                        if let Some(v) = unique(&same_crate) {
                            return Resolution::Node(v);
                        }
                        Resolution::Unresolved
                    }
                }
            } else {
                resolve_module_path(files, nodes, by_name, by_file_name, u, path, name)
            }
        }
        CallKind::Plain(name) => {
            if let Some(c) = by_file_name.get(&(file, name.as_str())) {
                if let Some(v) = unique(c) {
                    return Resolution::Node(v);
                }
                let same_impl: Vec<usize> = c
                    .iter()
                    .copied()
                    .filter(|&v| nodes[v].impl_type == nodes[u].impl_type)
                    .collect();
                if let Some(v) = unique(&same_impl) {
                    return Resolution::Node(v);
                }
                return Resolution::Unresolved;
            }
            if let Some(full) = files[file].imports.get(name.as_str()) {
                if full.len() >= 2 {
                    let (path, leaf) = full.split_at(full.len() - 1);
                    let path = path.to_vec();
                    return resolve_module_path(
                        files,
                        nodes,
                        by_name,
                        by_file_name,
                        u,
                        &path,
                        &leaf[0],
                    );
                }
            }
            match by_name.get(name.as_str()) {
                None => Resolution::External,
                Some(c) => match unique(c) {
                    Some(v) => Resolution::Node(v),
                    None => Resolution::Unresolved,
                },
            }
        }
    }
}

/// Resolves a lowercase module path (`wire::get_message`,
/// `crate::bootstrap::load_host_cache`, `geogrid_core::engine::…`).
fn resolve_module_path(
    files: &[FileData],
    nodes: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    by_file_name: &HashMap<(usize, &str), Vec<usize>>,
    u: usize,
    path: &[String],
    name: &str,
) -> Resolution {
    let file = nodes[u].file;
    let full = expand_path(&files[file].imports, path);
    let root = full[0].as_str();
    if EXTERNAL_ROOTS.contains(&root) {
        return Resolution::External;
    }
    let (target_crate, mods): (String, &[String]) = if root == "crate" {
        (files[file].crate_key.clone(), &full[1..])
    } else if let Some(key) = root.strip_prefix("geogrid_") {
        (key.to_string(), &full[1..])
    } else if root == "self" {
        match by_file_name.get(&(file, name)) {
            Some(c) if c.len() == 1 => return Resolution::Node(c[0]),
            Some(_) => return Resolution::Unresolved,
            None => return Resolution::Unresolved,
        }
    } else if root == "super" {
        return Resolution::Unresolved;
    } else {
        // Bare sibling-module path in the same crate.
        (files[file].crate_key.clone(), &full[..])
    };
    // Locate the module file by stem within the target crate.
    if let Some(stem) = mods.last() {
        let mut cands = Vec::new();
        for (fi, fd) in files.iter().enumerate() {
            if fd.crate_key == target_crate && fd.stem == *stem {
                if let Some(c) = by_file_name.get(&(fi, name)) {
                    cands.extend(c.iter().copied());
                }
            }
        }
        if cands.len() == 1 {
            return Resolution::Node(cands[0]);
        }
        if cands.len() > 1 {
            return Resolution::Unresolved;
        }
    }
    // Crate-wide unique fallback.
    let in_crate: Vec<usize> = by_name
        .get(name)
        .map(|c| {
            c.iter()
                .copied()
                .filter(|&v| files[nodes[v].file].crate_key == target_crate)
                .collect()
        })
        .unwrap_or_default();
    match in_crate.as_slice() {
        [v] => Resolution::Node(*v),
        [] => Resolution::Unresolved,
        _ => Resolution::Unresolved,
    }
}

// ---------------------------------------------------------------------------
// Reachability rules
// ---------------------------------------------------------------------------

impl Graph {
    /// BFS from `entry` over resolved edges. Returns visit order and
    /// parent pointers. Exempt nodes are recorded in `touched_exempt`
    /// but neither expanded nor returned when `respect_exempt` is set.
    fn bfs(
        &self,
        entry: usize,
        respect_exempt: bool,
        touched_exempt: &mut HashSet<usize>,
    ) -> (Vec<usize>, HashMap<usize, usize>) {
        let mut order = Vec::new();
        let mut parent = HashMap::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(entry);
        queue.push_back(entry);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &self.edges[v] {
                if seen.contains(&w) {
                    continue;
                }
                if respect_exempt && self.nodes[w].exempt {
                    touched_exempt.insert(w);
                    continue;
                }
                seen.insert(w);
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
        (order, parent)
    }

    /// Renders `entry -> ... -> v` using the parent map.
    fn chain(&self, parent: &HashMap<usize, usize>, entry: usize, v: usize) -> String {
        let mut names = vec![self.nodes[v].name.clone()];
        let mut cur = v;
        while cur != entry {
            cur = parent[&cur];
            names.push(self.nodes[cur].name.clone());
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Entry ids for a predicate, in deterministic (path, line) order.
    fn entries(&self, pred: impl Fn(&FnNode) -> bool) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_test && pred(&self.nodes[i]))
            .collect();
        ids.sort_by(|&a, &b| {
            (
                self.files[self.nodes[a].file].path.as_str(),
                self.nodes[a].line,
            )
                .cmp(&(
                    self.files[self.nodes[b].file].path.as_str(),
                    self.nodes[b].line,
                ))
        });
        ids
    }

    fn push_fact_finding(
        &self,
        out: &mut Vec<Finding>,
        seen: &mut HashSet<(usize, u32, String)>,
        rule: &'static str,
        entry_label: &str,
        entry: usize,
        v: usize,
        parent: &HashMap<usize, usize>,
        fact: &Fact,
    ) {
        if !seen.insert((v, fact.line, fact.what.clone())) {
            return;
        }
        let node = &self.nodes[v];
        let message = if v == entry {
            format!("{} in {entry_label} `{}`", fact.what, node.name)
        } else {
            format!(
                "{} reachable from {entry_label} `{}` via {}",
                fact.what,
                self.nodes[entry].name,
                self.chain(parent, entry, v),
            )
        };
        out.push(Finding {
            rule,
            path: self.files[node.file].path.clone(),
            line: fact.line,
            message,
        });
    }

    /// GG008: transitive `#[hot_path]` purity.
    fn rule_hot_transitive(&self, out: &mut Vec<Finding>) {
        let mut touched_exempt = HashSet::new();
        let mut seen = HashSet::new();
        for entry in self.entries(|n| n.hot && !n.exempt) {
            let (order, parent) = self.bfs(entry, true, &mut touched_exempt);
            for v in order {
                for fact in &self.nodes[v].facts {
                    self.push_fact_finding(
                        out,
                        &mut seen,
                        "GG008",
                        "#[hot_path]",
                        entry,
                        v,
                        &parent,
                        fact,
                    );
                }
            }
        }
        // Exempt markers that no hot walk ever reached are dead: the
        // exemption excuses nothing and likely outlived a refactor.
        for (i, n) in self.nodes.iter().enumerate() {
            if n.exempt && !n.hot && !touched_exempt.contains(&i) {
                out.push(Finding {
                    rule: "GG008",
                    path: self.files[n.file].path.clone(),
                    line: n.line,
                    message: format!(
                        "`{}` has a dead `audit: hot-path-exempt` marker — no #[hot_path] \
                         call chain reaches it",
                        n.name,
                    ),
                });
            }
        }
    }

    /// GG011: no blocking call reachable from transport async fns.
    fn rule_async_blocking(&self, out: &mut Vec<Finding>) {
        let mut seen = HashSet::new();
        let mut unused = HashSet::new();
        for entry in self.entries(|n| n.is_async && self.files[n.file].crate_key == "transport") {
            let (order, parent) = self.bfs(entry, false, &mut unused);
            for v in order {
                for fact in &self.nodes[v].facts {
                    if fact.kind == FactKind::Blocking {
                        self.push_fact_finding(
                            out, &mut seen, "GG011", "async fn", entry, v, &parent, fact,
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded-violation self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze_files(&owned)
    }

    fn rule_findings<'a>(a: &'a Analysis, rule: &str) -> Vec<&'a Finding> {
        a.findings.iter().filter(|f| f.rule == rule).collect()
    }

    // ---- resolution over a fixture module tree ----

    #[test]
    fn resolves_same_module_imported_and_unique_names() {
        let a = analyze(&[
            (
                "crates/core/src/alpha.rs",
                r#"
                use crate::beta::shared_helper;
                pub fn caller() {
                    local();
                    shared_helper();
                    crate::beta::other_helper();
                }
                fn local() {}
                "#,
            ),
            (
                "crates/core/src/beta.rs",
                r#"
                pub fn shared_helper() {}
                pub fn other_helper() { unique_everywhere(); }
                "#,
            ),
            (
                "crates/transport/src/gamma.rs",
                r#"
                pub fn unique_everywhere() {}
                pub fn cross() { geogrid_core::alpha::local(); }
                "#,
            ),
        ]);
        assert_eq!(a.functions, 6);
        // caller->local, caller->shared_helper, caller->other_helper,
        // other_helper->unique_everywhere, cross->local.
        assert_eq!(a.edges_resolved, 5, "unresolved: {:?}", a.unresolved);
        assert!(a.unresolved.is_empty(), "{:?}", a.unresolved);
    }

    #[test]
    fn ambiguous_plain_call_lands_in_unresolved_bucket() {
        let a = analyze(&[
            ("crates/core/src/a.rs", "pub fn twin() {}"),
            ("crates/core/src/b.rs", "pub fn twin() {}"),
            ("crates/core/src/c.rs", "pub fn caller() { twin(); }"),
        ]);
        assert_eq!(a.edges_resolved, 0);
        assert_eq!(a.unresolved.len(), 1);
        assert_eq!(a.unresolved[0].caller, "caller");
        assert_eq!(a.unresolved[0].callee, "twin");
    }

    #[test]
    fn std_and_vendored_calls_are_external_not_noise() {
        let a = analyze(&[(
            "crates/core/src/a.rs",
            r#"
            use std::collections::HashMap;
            pub fn f(m: &mut HashMap<u32, u32>) {
                m.insert(1, 2);
                std::mem::drop(m.get(&1));
            }
            "#,
        )]);
        assert!(a.unresolved.is_empty(), "{:?}", a.unresolved);
        assert_eq!(a.edges_resolved, 0);
        assert!(a.edges_external >= 2);
    }

    // ---- GG008 ----

    #[test]
    fn gg008_catches_direct_allocations_in_hot_fn() {
        let a = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            #[hot_path]
            fn probe(&self) -> Vec<u32> {
                let a = Vec::new();
                let b = self.hops.clone();
                let c: Vec<u32> = it.collect();
                let d = vec![0u8; 4];
                b.to_vec()
            }
            "#,
        )]);
        let rules: Vec<&str> = a.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["GG008"; 5], "{:?}", a.findings);
        assert!(a.findings[0].message.contains("in #[hot_path] `probe`"));
    }

    #[test]
    fn gg008_ignores_unreached_cold_helpers() {
        let a = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            fn cold(&self) -> Vec<u32> { self.hops.clone() }
            #[hot_path]
            fn hot(&self, scratch: &mut RouteScratch) -> u32 {
                scratch.grow(self.len());
                self.stamps[slot]
            }
            "#,
        )]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn gg008_catches_alloc_reachable_through_helpers() {
        let a = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            #[hot_path]
            pub fn hot_entry(&self) { self.mid(); }
            fn mid(&self) { deep(); }
            fn deep() { let v = vec![1, 2]; }
            "#,
        )]);
        let f = rule_findings(&a, "GG008");
        assert_eq!(f.len(), 1, "{:?}", a.findings);
        assert!(
            f[0].message.contains("hot_entry -> mid -> deep"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("vec!"), "{}", f[0].message);
    }

    #[test]
    fn gg008_catches_panic_in_hot_fn_itself() {
        let a = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            #[hot_path]
            pub fn hot_entry(x: Option<u32>) -> u32 { x.unwrap() }
            "#,
        )]);
        let f = rule_findings(&a, "GG008");
        assert_eq!(f.len(), 1, "{:?}", a.findings);
        assert!(f[0].message.contains("unwrap"), "{}", f[0].message);
    }

    #[test]
    fn gg008_exempt_marker_silences_and_dead_marker_reports() {
        let clean = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            #[hot_path]
            pub fn hot_entry() { cold_fallback(); }
            // audit: hot-path-exempt(rebuild only runs on topology change)
            fn cold_fallback() { let v = vec![1]; }
            "#,
        )]);
        assert!(
            rule_findings(&clean, "GG008").is_empty(),
            "{:?}",
            clean.findings
        );

        let dead = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            // audit: hot-path-exempt(nothing hot calls this)
            fn orphan() { let v = vec![1]; }
            "#,
        )]);
        let f = rule_findings(&dead, "GG008");
        assert_eq!(f.len(), 1, "{:?}", dead.findings);
        assert!(f[0].message.contains("dead"), "{}", f[0].message);
    }

    #[test]
    fn gg008_quiet_on_clean_chain() {
        let a = analyze(&[(
            "crates/core/src/routing.rs",
            r#"
            #[hot_path]
            pub fn hot_entry(&self) -> u32 { self.mid(7) }
            fn mid(&self, x: u32) -> u32 { x ^ 0xABCD }
            "#,
        )]);
        assert!(rule_findings(&a, "GG008").is_empty(), "{:?}", a.findings);
    }

    // ---- GG011 ----

    #[test]
    fn gg011_catches_blocking_io_reachable_from_async_fn() {
        let a = analyze(&[(
            "crates/transport/src/runtime.rs",
            r#"
            pub async fn pump() { persist(); }
            fn persist() {
                let _ = std::fs::write("cache", b"x");
            }
            "#,
        )]);
        let f = rule_findings(&a, "GG011");
        assert_eq!(f.len(), 1, "{:?}", a.findings);
        assert!(f[0].message.contains("std::fs::write"), "{}", f[0].message);
        assert!(f[0].message.contains("pump -> persist"), "{}", f[0].message);
    }

    #[test]
    fn gg011_catches_sleep_and_std_mutex_lock() {
        let a = analyze(&[(
            "crates/transport/src/runtime.rs",
            r#"
            use std::sync::Mutex;
            use std::thread;
            pub async fn tick(m: &Mutex<u32>) {
                thread::sleep(core::time::Duration::from_millis(1));
                let _ = m.lock();
            }
            "#,
        )]);
        let f = rule_findings(&a, "GG011");
        assert_eq!(f.len(), 2, "{:?}", a.findings);
        assert!(f.iter().any(|f| f.message.contains("thread::sleep")));
        assert!(f.iter().any(|f| f.message.contains("std::sync::Mutex")));
    }

    #[test]
    fn gg011_spawn_blocking_detaches_and_non_transport_async_ignored() {
        let a = analyze(&[(
            "crates/transport/src/runtime.rs",
            r#"
            pub async fn pump() {
                tokio::task::spawn_blocking(|| {
                    let _ = std::fs::write("cache", b"x");
                });
            }
            "#,
        )]);
        assert!(rule_findings(&a, "GG011").is_empty(), "{:?}", a.findings);

        let core_async = analyze(&[(
            "crates/core/src/util.rs",
            "pub async fn f() { let _ = std::fs::read_to_string(\"x\"); }",
        )]);
        assert!(rule_findings(&core_async, "GG011").is_empty());
    }

    #[test]
    fn gg011_parking_lot_lock_is_not_blocking() {
        let a = analyze(&[(
            "crates/transport/src/runtime.rs",
            r#"
            use parking_lot::Mutex;
            pub async fn tick(m: &Mutex<u32>) { let _ = m.lock(); }
            "#,
        )]);
        assert!(rule_findings(&a, "GG011").is_empty(), "{:?}", a.findings);
    }

    // ---- plumbing ----

    #[test]
    fn import_parser_handles_groups_renames_and_self() {
        let lexed = lex(r#"
            use std::collections::{HashMap, HashSet as Set};
            use crate::wire::{self, get_message};
            use geogrid_core::engine::node;
        "#);
        let map = parse_imports(&lexed.tokens);
        assert_eq!(map["HashMap"], vec!["std", "collections", "HashMap"]);
        assert_eq!(map["Set"], vec!["std", "collections", "HashSet"]);
        assert_eq!(map["wire"], vec!["crate", "wire"]);
        assert_eq!(map["get_message"], vec!["crate", "wire", "get_message"]);
        assert_eq!(map["node"], vec!["geogrid_core", "engine", "node"]);
    }

    #[test]
    fn impl_scanner_finds_type_names_not_return_position_impls() {
        let lexed = lex(r#"
            impl<T: Clone> Wrapper<T> {
                fn method(&self) {}
            }
            impl std::fmt::Display for Thing {
                fn fmt(&self) -> impl Iterator<Item = u8> { body() }
            }
        "#);
        let impls = impl_ranges(&lexed.tokens);
        let names: Vec<&str> = impls.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["Wrapper", "Thing"]);
    }
}
