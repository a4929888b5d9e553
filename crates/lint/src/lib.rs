//! `lbsp-lint`: repo-specific static analysis for the privacy-aware LBS
//! workspace.
//!
//! The paper's architecture stands on one invariant — exact user
//! coordinates stop at the trusted Location Anonymizer, and only cloaked
//! rectangles reach the database server. This tool makes the invariant
//! (and two reliability disciplines that protect it) machine-checked on
//! every CI run, using a self-contained Rust tokenizer so the workspace
//! keeps building offline with zero new dependencies.
//!
//! Per-file rule families (token-local, one lex per file):
//!
//! * **taint** — structs marked as crossing the anonymizer→server
//!   boundary (`server-bound` annotation) may not carry exact-location
//!   fields or types (`Point`, `UserLocation`, `x`/`y`/`position`/...),
//!   a fixed list of boundary structs must carry the marker so the check
//!   cannot be disabled by deleting it, and public functions in the
//!   server's `private_*` query modules may not take exact locations
//!   unless escaped with a justified `allow(taint)` annotation.
//! * **panic** — `unwrap`/`expect` calls, panicking macros, and direct
//!   slice indexing are banned in the hostile-input surfaces
//!   (`crates/net/src` and `crates/core/src/wire.rs`); a justified
//!   `allow(panic)` annotation escapes a site whose infallibility is a
//!   real invariant.
//! * **lock** — every raw `Mutex`/`RwLock` construction must either be
//!   the `TrackedMutex`/`TrackedRwLock` wrappers (whose first argument
//!   is a registry rank) or carry a `lock(RankName)` annotation naming a
//!   rank declared in `lbsp_core::locks::LockRank`.
//! * **unsafe** — every crate root must carry `#![forbid(unsafe_code)]`,
//!   and the `unsafe` keyword may not appear anywhere.
//! * **codec** — inside `crates/core/src`, the `bytes` little-endian
//!   accessors (`put_*_le` / `get_*_le`) appear only in `codec.rs`, so
//!   every field the wire and the journal share is laid out in one place.
//!
//! Semantic passes (workspace-wide, over a shared symbol table
//! ([`symbols`]) and resolved call graph ([`callgraph`]); the same
//! token streams, lexed once):
//!
//! * **taint-flow** ([`taint_flow`]) — interprocedural dataflow from
//!   exact-position sources to server-bound sinks, with cloak
//!   constructors as sanitizers; leaks through helper functions are
//!   findings carrying the full source→sink `file:line` hop chain.
//! * **lock-order** ([`lock_graph`]) — the static lock-acquisition
//!   graph (which ranks can be held when each function acquires
//!   another), proved acyclic against the declared rank order; any
//!   descending edge or rank cycle is a finding with a witness chain.
//! * **wire** ([`wire_conformance`]) — the `mod tag` registry and
//!   codecs: unique tag values, strict encode/decode pairing, dispatch
//!   coverage in the server and cluster router, server-bound structs
//!   pinned in [`REQUIRED_SERVER_BOUND`], and agreement with the
//!   DESIGN.md wire-tag table.
//!
//! Annotations are line comments directly above the offending item (doc
//! comments and attribute lines in between are allowed), starting with
//! `lint:` after the comment marker. `allow(...)` escapes must carry a
//! justification after `--`. Output is deterministic: findings sort by
//! (file, line, rule), and the binary's `--json` mode emits them as
//! line-delimited JSON for CI archiving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod callgraph;
mod lock_graph;
mod symbols;
mod taint_flow;
mod wire_conformance;

pub use lock_graph::LockEdge;

use symbols::{SourceFile, SymbolTable};

/// One rule violation, formatted `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Rule family: `taint`, `panic`, `lock`, `unsafe`, `codec`,
    /// `annotation` (per-file), or `taint-flow`, `lock-order`, `wire`
    /// (semantic).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Machine-readable form: one flat JSON object. The `--json` CLI
    /// mode emits one per line (mirroring `bench::json`) so CI can
    /// archive and diff findings without parsing prose.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            json_escape(self.rule),
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Which rule families apply to a file (derived from its path).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Hostile-input surface: ban unwrap/expect/panics/indexing.
    pub panic_free: bool,
    /// Server private-query API: ban exact-location parameters.
    pub private_api: bool,
    /// Check raw `Mutex`/`RwLock` construction against the registry.
    pub lock_discipline: bool,
    /// Crate root: require `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// Core source outside the codec: ban little-endian accessors.
    pub codec_only_le: bool,
}

/// The scope the workspace run applies to `rel` (a workspace-relative
/// path with forward slashes).
pub fn scope_for(rel: &str) -> Scope {
    Scope {
        panic_free: rel.starts_with("crates/net/src/")
            // Everything the store crate reads back from disk is as
            // hostile as network bytes: a flipped bit must surface as a
            // Corrupt diagnostic, never a panic.
            || rel.starts_with("crates/store/src/")
            || rel == "crates/core/src/wire.rs"
            // The journal codecs decode WAL bytes on the recovery path,
            // and both decode through the one codec.
            || rel == "crates/core/src/journal.rs"
            || rel == "crates/core/src/codec.rs"
            // The observability registry records on hot paths and its
            // snapshots are served to remote scrapers.
            || rel == "crates/core/src/obs.rs"
            // The cluster router terminates client connections and
            // relays frames between nodes: every byte it touches is as
            // hostile as the network, and a panic takes down the whole
            // front door, not one request.
            || rel.starts_with("crates/cluster/src/"),
        private_api: rel.starts_with("crates/server/src/private_"),
        // The registry module itself implements the tracked wrappers on
        // top of raw std locks.
        lock_discipline: rel != "crates/core/src/locks.rs",
        crate_root: rel.ends_with("src/lib.rs"),
        codec_only_le: rel.starts_with("crates/core/src/") && rel != "crates/core/src/codec.rs",
    }
}

/// Boundary structs that must carry the `server-bound` marker, so the
/// field check cannot be silently disabled by removing the annotation.
pub(crate) const REQUIRED_SERVER_BOUND: &[(&str, &str)] = &[
    ("crates/core/src/wire.rs", "RangeQueryMsg"),
    ("crates/anonymizer/src/anonymizer.rs", "CloakedUpdate"),
    ("crates/anonymizer/src/anonymizer.rs", "CloakedQuery"),
    ("crates/anonymizer/src/cloak.rs", "CloakedRegion"),
    // A STATS scrape leaves the trust boundary too: the snapshot may
    // carry aggregates only, never positions or identities.
    ("crates/core/src/obs.rs", "RegistrySnapshot"),
    // Standing count queries live on the untrusted server: both the
    // registration (area only) and the pushed state (aggregates only)
    // cross the boundary. Standing *range* registrations and states stay
    // on the trusted hop (they name a user / carry public candidate
    // positions), so they are deliberately absent here.
    ("crates/core/src/wire.rs", "RegisterStandingCountMsg"),
    ("crates/core/src/wire.rs", "StandingCountState"),
];

/// Field names that may not appear in a server-bound struct.
const BANNED_FIELD_NAMES: &[&str] = &[
    "x",
    "y",
    "position",
    "location",
    "user",
    "user_id",
    "lat",
    "lon",
    "latitude",
    "longitude",
];

/// Type identifiers that carry an exact location.
const BANNED_LOCATION_TYPES: &[&str] = &["Point", "UserLocation"];

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokKind {
    Ident,
    Punct(char),
    Str,
    Num,
    Lifetime,
    CharLit,
}

#[derive(Debug, Clone)]
pub(crate) struct Tok {
    pub(crate) kind: TokKind,
    pub(crate) text: String,
    pub(crate) line: usize,
}

impl Tok {
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A `//` comment, by line, with the text after the slashes.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    pub(crate) line: usize,
    pub(crate) text: String,
}

pub(crate) struct Lexed {
    pub(crate) toks: Vec<Tok>,
    pub(crate) comments: Vec<Comment>,
}

/// Tokenizes Rust source: identifiers, loose numbers, string/char
/// literals, lifetimes, single-char punctuation. Line and block comments
/// go to a side list (block comments nest, per Rust).
pub(crate) fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = bytes.len();
    let at = |i: usize| bytes.get(i).copied().unwrap_or('\0');
    while i < n {
        let c = at(i);
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && at(j) != '\n' {
                j += 1;
            }
            comments.push(Comment {
                line,
                text: bytes[start..j].iter().collect(),
            });
            i = j;
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if at(j) == '\n' {
                    line += 1;
                    j += 1;
                } else if at(j) == '/' && at(j + 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if at(j) == '*' && at(j + 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"'
            || (c == 'r' && (at(i + 1) == '"' || at(i + 1) == '#'))
            || (c == 'b' && at(i + 1) == '"')
            || (c == 'b' && at(i + 1) == 'r' && (at(i + 2) == '"' || at(i + 2) == '#'))
        {
            // String literal: plain, byte, raw, or raw byte.
            let mut j = i;
            if at(j) == 'b' {
                j += 1;
            }
            let raw = at(j) == 'r';
            if raw {
                j += 1;
            }
            let mut hashes = 0;
            while raw && at(j) == '#' {
                hashes += 1;
                j += 1;
            }
            if at(j) != '"' {
                // `r` / `b` identifier followed by something else after
                // all; treat as ident start.
                let (tok, nj, nl) = lex_ident(&bytes, i, line);
                toks.push(tok);
                i = nj;
                line = nl;
                continue;
            }
            j += 1; // opening quote
            loop {
                if j >= n {
                    break;
                }
                let cj = at(j);
                if cj == '\n' {
                    line += 1;
                    j += 1;
                } else if !raw && cj == '\\' {
                    j += 2;
                } else if cj == '"' {
                    if raw {
                        let mut k = 0;
                        while k < hashes && at(j + 1 + k) == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break;
                        }
                        j += 1;
                    } else {
                        j += 1;
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            i = j;
        } else if c == '\'' {
            // Lifetime vs char literal: a lifetime is `'ident` not
            // followed by a closing quote.
            let mut j = i + 1;
            if (at(j).is_alphabetic() || at(j) == '_') && {
                let mut k = j;
                while k < n && (at(k).is_alphanumeric() || at(k) == '_') {
                    k += 1;
                }
                at(k) != '\''
            } {
                let start = j;
                while j < n && (at(j).is_alphanumeric() || at(j) == '_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: bytes[start..j].iter().collect(),
                    line,
                });
                i = j;
            } else {
                // Char literal, escapes included.
                j = i + 1;
                while j < n {
                    let cj = at(j);
                    if cj == '\\' {
                        j += 2;
                    } else if cj == '\'' {
                        j += 1;
                        break;
                    } else {
                        if cj == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::CharLit,
                    text: String::new(),
                    line,
                });
                i = j;
            }
        } else if c.is_alphabetic() || c == '_' {
            let (tok, nj, nl) = lex_ident(&bytes, i, line);
            toks.push(tok);
            i = nj;
            line = nl;
        } else if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < n && (at(j).is_alphanumeric() || at(j) == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: bytes[start..j].iter().collect(),
                line,
            });
            i = j;
        } else {
            toks.push(Tok {
                kind: TokKind::Punct(c),
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    Lexed { toks, comments }
}

fn lex_ident(bytes: &[char], i: usize, line: usize) -> (Tok, usize, usize) {
    let mut j = i;
    while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Ident,
            text: bytes[i..j].iter().collect(),
            line,
        },
        j,
        line,
    )
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while",
];

pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

// ---------------------------------------------------------------------
// Test-code stripping
// ---------------------------------------------------------------------

/// Removes items behind `#[cfg(test)]` / `#[test]` attributes (and the
/// attributes themselves), so the rules judge shipped code only.
pub(crate) fn strip_test_items(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute's tokens.
            let mut j = i + 2;
            let mut depth = 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if toks[j].kind == TokKind::Ident {
                    idents.push(&toks[j].text);
                }
                j += 1;
            }
            let is_test_attr = idents.first() == Some(&"test")
                || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
            if is_test_attr {
                // Skip this attribute, any further attributes, and the
                // item they decorate (to its closing brace or `;`).
                i = j;
                while i < toks.len()
                    && toks[i].is_punct('#')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 1;
                    i += 2;
                    while i < toks.len() && d > 0 {
                        if toks[i].is_punct('[') {
                            d += 1;
                        } else if toks[i].is_punct(']') {
                            d -= 1;
                        }
                        i += 1;
                    }
                }
                let mut brace = 0i64;
                while i < toks.len() {
                    if toks[i].is_punct('{') {
                        brace += 1;
                    } else if toks[i].is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            i += 1;
                            break;
                        }
                    } else if toks[i].is_punct(';') && brace == 0 {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Annotation {
    Allow(String),
    Lock(String),
    ServerBound,
}

/// Parses one comment for a `lint:` directive. `Err` carries a finding
/// message for a malformed directive.
pub(crate) fn parse_annotation(text: &str) -> Option<Result<Annotation, String>> {
    let t = text.trim_start();
    let rest = t.strip_prefix("lint:")?.trim_start();
    if rest.starts_with("server-bound") {
        return Some(Ok(Annotation::ServerBound));
    }
    for (prefix, kind) in [("allow(", "allow"), ("lock(", "lock")] {
        if let Some(arg_on) = rest.strip_prefix(prefix) {
            let Some(close) = arg_on.find(')') else {
                return Some(Err(format!("unclosed `lint: {kind}(...)` annotation")));
            };
            let arg = arg_on[..close].trim().to_string();
            let tail = arg_on[close + 1..].trim_start();
            if kind == "allow" {
                if !["taint", "panic", "lock"].contains(&arg.as_str()) {
                    return Some(Err(format!(
                        "unknown lint escape `allow({arg})` (expected taint, panic, or lock)"
                    )));
                }
                let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
                if justification.len() < 8 {
                    return Some(Err(format!(
                        "`lint: allow({arg})` requires a justification: \
                         `// lint: allow({arg}) -- why this site is exempt`"
                    )));
                }
                return Some(Ok(Annotation::Allow(arg)));
            }
            return Some(Ok(Annotation::Lock(arg)));
        }
    }
    Some(Err(format!(
        "unrecognized lint annotation `{}` (expected allow(...), lock(...), or server-bound)",
        t.trim_end()
    )))
}

/// Collects the annotations in the comment block ending directly above
/// `line` (consecutive comment lines; doc comments pass through).
pub(crate) fn annotations_above(comments: &[Comment], line: usize) -> Vec<Annotation> {
    let by_line: std::collections::HashMap<usize, &Comment> =
        comments.iter().map(|c| (c.line, c)).collect();
    let mut out = Vec::new();
    let mut l = line;
    while l > 1 {
        l -= 1;
        match by_line.get(&l) {
            Some(c) => {
                if let Some(Ok(a)) = parse_annotation(&c.text) {
                    out.push(a);
                }
            }
            None => break,
        }
    }
    out
}

/// The anchor line of the item whose keyword token sits at `idx`: walks
/// backward over `pub`, visibility arguments, and attribute groups so
/// annotations above `#[derive(...)]` still attach to the item.
pub(crate) fn item_anchor_line(toks: &[Tok], idx: usize) -> usize {
    let mut line = toks[idx].line;
    let mut i = idx;
    while i > 0 {
        let prev = &toks[i - 1];
        if prev.is_ident("pub") {
            i -= 1;
        } else if prev.is_punct(')') && i >= 2 {
            // `pub(crate)` and friends: walk to the matching `(`.
            let mut depth = 1;
            let mut j = i - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                }
            }
            if j > 0 && toks[j - 1].is_ident("pub") {
                i = j - 1;
            } else {
                break;
            }
        } else if prev.is_punct(']') {
            // Attribute group `#[...]` (or `#![...]`).
            let mut depth = 1;
            let mut j = i - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                }
            }
            if j > 0 && toks[j - 1].is_punct('!') {
                j -= 1;
            }
            if j > 0 && toks[j - 1].is_punct('#') {
                i = j - 1;
            } else {
                break;
            }
        } else {
            break;
        }
        line = line.min(toks[i].line);
    }
    line
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Lints one file's source under `scope` with the per-file rule set
/// only (the semantic passes need the whole workspace — see
/// [`analyze_sources`]). `registry` is the list of declared lock-rank
/// names; `rel` labels findings.
pub fn lint_file(rel: &str, src: &str, scope: Scope, registry: &[String]) -> Vec<Finding> {
    lint_source_file(&SourceFile::parse(rel, src), scope, registry)
}

/// The per-file rules, on an already-lexed file (each file is lexed
/// exactly once per run; the token stream is shared with the semantic
/// passes).
fn lint_source_file(file: &SourceFile, scope: Scope, registry: &[String]) -> Vec<Finding> {
    let rel = file.rel.as_str();
    let toks = &file.toks;
    let comments = &file.comments;
    let mut findings = Vec::new();
    let push = |findings: &mut Vec<Finding>, line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
        });
    };

    // Malformed annotations are findings wherever they appear.
    for c in comments {
        if let Some(Err(msg)) = parse_annotation(&c.text) {
            push(&mut findings, c.line, "annotation", msg);
        }
    }

    // unsafe: banned everywhere; crate roots must forbid it.
    for t in toks {
        if t.is_ident("unsafe") {
            push(
                &mut findings,
                t.line,
                "unsafe",
                "`unsafe` is banned workspace-wide (#![forbid(unsafe_code)])".to_string(),
            );
        }
    }
    if scope.crate_root && !has_forbid_unsafe(toks) {
        push(
            &mut findings,
            1,
            "unsafe",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    if scope.panic_free {
        lint_panic_free(rel, toks, comments, &mut findings);
    }
    if scope.lock_discipline {
        lint_lock_discipline(rel, toks, comments, registry, &mut findings);
    }
    lint_server_bound_structs(rel, toks, comments, &mut findings);
    if scope.private_api {
        lint_private_api(rel, toks, comments, &mut findings);
    }
    if scope.codec_only_le {
        for t in toks.iter().filter(|t| is_le_accessor(t)) {
            push(
                &mut findings,
                t.line,
                "codec",
                format!(
                    "`{}` outside crates/core/src/codec.rs: little-endian fields are \
                     written and read only through the codec's Put/Get impls",
                    t.text
                ),
            );
        }
    }
    findings
}

/// `true` for a `bytes` little-endian accessor: `put_u64_le`,
/// `get_f64_le`, …
fn is_le_accessor(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && (t.text.starts_with("put_") || t.text.starts_with("get_"))
        && t.text.ends_with("_le")
}

fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

pub(crate) fn allowed(comments: &[Comment], line: usize, what: &str) -> bool {
    annotations_above(comments, line)
        .iter()
        .any(|a| matches!(a, Annotation::Allow(k) if k == what))
}

/// Panic-freedom on hostile-input surfaces: no `.unwrap()`/`.expect()`,
/// no panicking macros, no direct indexing.
fn lint_panic_free(rel: &str, toks: &[Tok], comments: &[Comment], findings: &mut Vec<Finding>) {
    let _ = rel;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            if !allowed(comments, t.line, "panic") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "panic",
                    message: format!(
                        "`.{}()` on a hostile-input surface can panic a worker thread; \
                         return a typed error or disconnect instead",
                        t.text
                    ),
                });
            }
        } else if t.kind == TokKind::Ident
            && ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
            && next.is_some_and(|n| n.is_punct('!'))
        {
            if !allowed(comments, t.line, "panic") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "panic",
                    message: format!(
                        "`{}!` on a hostile-input surface; handle the case instead",
                        t.text
                    ),
                });
            }
        } else if t.is_punct('[') {
            // Indexing: `expr[...]` — `[` directly after a value token.
            let indexes = prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !is_keyword(&p.text))
                    || p.is_punct(')')
                    || p.is_punct(']')
                    || p.is_punct('?')
            });
            if indexes && !allowed(comments, t.line, "panic") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "panic",
                    message: "direct slice indexing can panic on hostile input; \
                              use get()/get_mut() or split_first()"
                        .to_string(),
                });
            }
        }
    }
}

/// Lock discipline: raw `Mutex::new`/`RwLock::new` must carry a
/// `lock(Rank)` annotation naming a registry rank; the tracked wrappers
/// must be constructed with a `LockRank` rank.
fn lint_lock_discipline(
    rel: &str,
    toks: &[Tok],
    comments: &[Comment],
    registry: &[String],
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        let is_ctor = |name: &str| {
            t.is_ident(name)
                && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 3).is_some_and(|a| a.is_ident("new"))
        };
        if is_ctor("Mutex") || is_ctor("RwLock") {
            let anns = annotations_above(comments, t.line);
            let lock_ann = anns.iter().find_map(|a| match a {
                Annotation::Lock(name) => Some(name.clone()),
                _ => None,
            });
            match lock_ann {
                None => findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "lock",
                    message: format!(
                        "raw `{}::new` outside the lock registry; use \
                         Tracked{} with a LockRank, or annotate \
                         `// lint: lock(Rank)` with a declared rank",
                        t.text, t.text
                    ),
                }),
                Some(name) if !registry.iter().any(|r| r == &name) => {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: t.line,
                        rule: "lock",
                        message: format!(
                            "lock annotation names `{name}`, which is not declared in \
                             lbsp_core::locks::LockRank ({})",
                            registry.join(", ")
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        let is_tracked = |name: &str| {
            t.is_ident(name)
                && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 3).is_some_and(|a| a.is_ident("new"))
                && toks.get(i + 4).is_some_and(|a| a.is_punct('('))
        };
        if (is_tracked("TrackedMutex") || is_tracked("TrackedRwLock"))
            && !toks.get(i + 5).is_some_and(|a| a.is_ident("LockRank"))
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "lock",
                message: format!(
                    "`{}::new` must take a literal `LockRank::...` rank as its \
                     first argument so the acquisition order is auditable",
                    t.text
                ),
            });
        }
    }
}

/// Server-bound struct fields: no exact-location names or types may
/// cross the anonymizer→server boundary; the fixed boundary structs
/// must carry the marker.
fn lint_server_bound_structs(
    rel: &str,
    toks: &[Tok],
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) {
    let mut marked: Vec<(String, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("struct") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let anchor = item_anchor_line(toks, i);
        let anns = annotations_above(comments, anchor);
        let is_server_bound = anns.contains(&Annotation::ServerBound);
        let is_exempt = anns
            .iter()
            .any(|a| matches!(a, Annotation::Allow(k) if k == "taint"));
        if is_server_bound {
            marked.push((name_tok.text.clone(), name_tok.line));
        }
        if !is_server_bound || is_exempt {
            continue;
        }
        check_struct_fields(rel, toks, i + 2, &name_tok.text, findings);
    }
    for (file, name) in REQUIRED_SERVER_BOUND {
        if rel == *file && !marked.iter().any(|(n, _)| n == name) {
            findings.push(Finding {
                file: rel.to_string(),
                line: 1,
                rule: "taint",
                message: format!(
                    "boundary struct `{name}` must carry a `// lint: server-bound` marker \
                     (it crosses the anonymizer→server boundary)"
                ),
            });
        }
    }
}

/// Scans a struct body starting after its name token at `start` for
/// banned field names and exact-location types.
fn check_struct_fields(
    rel: &str,
    toks: &[Tok],
    mut i: usize,
    struct_name: &str,
    findings: &mut Vec<Finding>,
) {
    // Skip generics.
    let mut angle = 0i64;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            angle += 1;
        } else if toks[i].is_punct('>') {
            angle -= 1;
        } else if angle == 0
            && (toks[i].is_punct('{') || toks[i].is_punct('(') || toks[i].is_punct(';'))
        {
            break;
        }
        i += 1;
    }
    if i >= toks.len() || toks[i].is_punct(';') {
        return;
    }
    let (open, close) = if toks[i].is_punct('{') {
        ('{', '}')
    } else {
        ('(', ')')
    };
    let mut depth = 1;
    let mut j = i + 1;
    let mut expecting_name = open == '{';
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
        } else if depth == 1 && t.kind == TokKind::Ident {
            let next_is_colon = toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'));
            if expecting_name && next_is_colon {
                let lname = t.text.to_ascii_lowercase();
                if BANNED_FIELD_NAMES.contains(&lname.as_str()) || lname.starts_with("exact") {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: t.line,
                        rule: "taint",
                        message: format!(
                            "server-bound struct `{struct_name}` has field `{}` — exact \
                             locations and true identities may not cross the \
                             anonymizer→server boundary (only cloaked regions do)",
                            t.text
                        ),
                    });
                }
            } else if BANNED_LOCATION_TYPES.contains(&t.text.as_str()) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "taint",
                    message: format!(
                        "server-bound struct `{struct_name}` embeds exact-location type \
                         `{}`; only Mbr/Rect cloaked regions may cross the boundary",
                        t.text
                    ),
                });
            }
        }
        if depth == 1 && t.is_punct(',') {
            expecting_name = open == '{';
        } else if depth == 1 && t.is_punct(':') {
            expecting_name = false;
        }
        j += 1;
    }
}

/// Private-query API surface: `pub fn` parameters in the server's
/// `private_*` modules may not carry exact locations.
fn lint_private_api(rel: &str, toks: &[Tok], comments: &[Comment], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_ident("pub") && toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))) {
            i += 1;
            continue;
        }
        let fn_kw = i + 1;
        let Some(name_tok) = toks.get(fn_kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let anchor = item_anchor_line(toks, fn_kw);
        if allowed(comments, anchor, "taint") {
            i = fn_kw + 1;
            continue;
        }
        // Scan the parameter list for exact-location types.
        let mut j = fn_kw + 2;
        while j < toks.len() && !toks[j].is_punct('(') {
            j += 1;
        }
        let mut depth = 0i64;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].kind == TokKind::Ident
                && BANNED_LOCATION_TYPES.contains(&toks[j].text.as_str())
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: toks[j].line,
                    rule: "taint",
                    message: format!(
                        "private-query API `{}` takes exact-location type `{}`; the \
                         server side of the boundary may only see cloaked regions \
                         (escape client-side refinement with `// lint: allow(taint) -- ...`)",
                        name_tok.text, toks[j].text
                    ),
                });
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
}

// ---------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------

/// Parses the rank names out of `enum LockRank { ... }` in
/// `crates/core/src/locks.rs`.
pub fn parse_registry(locks_src: &str) -> Vec<String> {
    let lexed = lex(locks_src);
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("enum") && toks.get(i + 1).is_some_and(|n| n.is_ident("LockRank")) {
            let mut names = Vec::new();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            j += 1;
            while j < toks.len() && !toks[j].is_punct('}') {
                if toks[j].kind == TokKind::Ident {
                    names.push(toks[j].text.clone());
                }
                j += 1;
            }
            return names;
        }
    }
    Vec::new()
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

///// The result of a whole-workspace (or whole-source-set) run: the
/// findings plus the structures the semantic passes proved, so tests
/// and tools can assert the proofs are not vacuous.
pub struct Analysis {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every held→acquired lock-rank edge the static pass derived from
    /// guard liveness and the call graph. The workspace is deadlock-free
    /// by rank order iff every edge is non-descending (checked; any
    /// descending edge or rank cycle is also a finding).
    pub lock_edges: Vec<LockEdge>,
    /// The wire-tag registry parsed from `crates/core/src/wire.rs`:
    /// `(name, value)` in declaration order.
    pub wire_tags: Vec<(String, u8)>,
}

/// Runs the per-file rules *and* the three workspace-wide semantic
/// passes (taint dataflow, lock-order graph, wire conformance) over an
/// in-memory source set. Each entry is `(workspace-relative path,
/// source)`; each file is lexed once and the token stream is shared by
/// every pass. `design` is the DESIGN.md text for the wire-tag table
/// cross-check (skipped when `None`).
pub fn analyze_sources(
    sources: &[(String, String)],
    registry: &[String],
    design: Option<&str>,
) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(lint_source_file(file, scope_for(&file.rel), registry));
    }
    let syms = SymbolTable::extract(&files);
    findings.extend(taint_flow::check(&files, &syms));
    let (lock_findings, lock_edges) = lock_graph::check(&files, &syms, registry);
    findings.extend(lock_findings);
    let (wire_findings, wire_tags) = wire_conformance::check(&files, &syms, design);
    findings.extend(wire_findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    Analysis {
        findings,
        lock_edges,
        wire_tags,
    }
}

/// Collects the workspace sources rooted at `root` (`src/` plus every
/// `crates/*/src/` tree — vendored stubs, benches, examples, and
/// integration-test directories are out of scope) and runs the full
/// analysis, including the DESIGN.md wire-tag cross-check when the file
/// is present.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let locks_path = root.join("crates/core/src/locks.rs");
    let registry = match fs::read_to_string(&locks_path) {
        Ok(src) => parse_registry(&src),
        Err(e) => {
            return Err(io::Error::new(
                e.kind(),
                format!("cannot read lock registry {}: {e}", locks_path.display()),
            ))
        }
    };
    if registry.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no `enum LockRank` found in crates/core/src/locks.rs",
        ));
    }

    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        rust_files(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                rust_files(&src, &mut files)?;
            }
        }
    }

    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(analyze_sources(&sources, &registry, design.as_deref()))
}

/// Lints the whole workspace rooted at `root`; the findings half of
/// [`analyze_workspace`], kept as the stable entry point for the CI
/// gate.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_workspace(root)?.findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Vec<String> {
        vec!["Engine".to_string(), "ResultSink".to_string()]
    }

    #[test]
    fn tokenizer_handles_strings_comments_lifetimes() {
        let lexed =
            lex("fn f<'a>(s: &'a str) { let _ = \"un\\\"wrap\"; /* unwrap() */ let c = '\\n'; }");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn test_items_are_stripped() {
        let src = "fn keep() {}\n#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\n";
        let f = lint_file(
            "crates/net/src/x.rs",
            src,
            scope_for("crates/net/src/x.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_flagged_in_scope_with_line() {
        let src = "fn f(v: Vec<u8>) {\n    let _ = v.first().unwrap();\n}\n";
        let f = lint_file(
            "crates/net/src/frame.rs",
            src,
            scope_for("crates/net/src/frame.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "panic");
        // Out of scope: same source is clean.
        let f = lint_file(
            "crates/geom/src/point.rs",
            src,
            scope_for("crates/geom/src/point.rs"),
            &reg(),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_flagged_but_types_and_macros_are_not() {
        let src = "fn f(v: &[u8]) -> [u8; 4] {\n    let _a: [u8; 4] = [0; 4];\n    let _b = vec![1, 2];\n    let _c = v[0];\n    [0; 4]\n}\n";
        let f = lint_file(
            "crates/net/src/frame.rs",
            src,
            scope_for("crates/net/src/frame.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn justified_allow_escapes_and_unjustified_is_reported() {
        let ok = "fn f(v: Vec<u8>) {\n    // lint: allow(panic) -- invariant: v is non-empty by construction\n    let _ = v.first().unwrap();\n}\n";
        let f = lint_file(
            "crates/net/src/frame.rs",
            ok,
            scope_for("crates/net/src/frame.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");
        let bad =
            "fn f(v: Vec<u8>) {\n    // lint: allow(panic)\n    let _ = v.first().unwrap();\n}\n";
        let f = lint_file(
            "crates/net/src/frame.rs",
            bad,
            scope_for("crates/net/src/frame.rs"),
            &reg(),
        );
        assert!(f.iter().any(|x| x.rule == "annotation"), "{f:?}");
    }

    #[test]
    fn raw_lock_requires_registered_annotation() {
        let bare = "fn f() { let _m = std::sync::Mutex::new(0); }";
        let f = lint_file(
            "crates/geom/src/x.rs",
            bare,
            scope_for("crates/geom/src/x.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock");

        let annotated =
            "fn f() {\n    // lint: lock(Engine)\n    let _m = std::sync::Mutex::new(0);\n}";
        let f = lint_file(
            "crates/geom/src/x.rs",
            annotated,
            scope_for("crates/geom/src/x.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");

        let unknown =
            "fn f() {\n    // lint: lock(Bogus)\n    let _m = std::sync::Mutex::new(0);\n}";
        let f = lint_file(
            "crates/geom/src/x.rs",
            unknown,
            scope_for("crates/geom/src/x.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Bogus"));
    }

    #[test]
    fn tracked_ctor_requires_literal_rank() {
        let src = "fn f(r: LockRank) { let _m = TrackedMutex::new(r, 0); }";
        let f = lint_file(
            "crates/core/src/x.rs",
            src,
            scope_for("crates/core/src/x.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock");
        let ok = "fn f() { let _m = TrackedMutex::new(LockRank::Engine, 0); }";
        let f = lint_file(
            "crates/core/src/x.rs",
            ok,
            scope_for("crates/core/src/x.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn server_bound_struct_rejects_point_and_identity_fields() {
        let src = "// lint: server-bound\n#[derive(Debug)]\npub struct Msg {\n    pub pseudonym: u64,\n    pub pos: Point,\n    pub user: u64,\n}\n";
        let f = lint_file(
            "crates/geom/src/m.rs",
            src,
            scope_for("crates/geom/src/m.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "taint"));
    }

    #[test]
    fn required_marker_enforced_for_boundary_structs() {
        let src = "pub struct RangeQueryMsg { pub region: Rect }\n";
        let f = lint_file(
            "crates/core/src/wire.rs",
            src,
            scope_for("crates/core/src/wire.rs"),
            &reg(),
        );
        assert!(
            f.iter()
                .any(|x| x.rule == "taint" && x.message.contains("server-bound")),
            "{f:?}"
        );
    }

    #[test]
    fn private_api_rejects_point_params_unless_escaped() {
        let src = "pub fn q(store: &Store, p: Point) {}\n";
        let f = lint_file(
            "crates/server/src/private_x.rs",
            src,
            scope_for("crates/server/src/private_x.rs"),
            &reg(),
        );
        assert_eq!(f.len(), 1);
        let ok = "// lint: allow(taint) -- runs client-side on the device\npub fn q(store: &Store, p: Point) {}\n";
        let f = lint_file(
            "crates/server/src/private_x.rs",
            ok,
            scope_for("crates/server/src/private_x.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn crate_root_must_forbid_unsafe() {
        let f = lint_file(
            "crates/geom/src/lib.rs",
            "pub fn f() {}",
            scope_for("crates/geom/src/lib.rs"),
            &reg(),
        );
        assert!(f.iter().any(|x| x.rule == "unsafe"));
        let f = lint_file(
            "crates/geom/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
            scope_for("crates/geom/src/lib.rs"),
            &reg(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn registry_parses_lockrank_enum() {
        let src = "pub enum LockRank {\n    /// doc\n    A,\n    B,\n}";
        assert_eq!(parse_registry(src), vec!["A".to_string(), "B".to_string()]);
    }
}
