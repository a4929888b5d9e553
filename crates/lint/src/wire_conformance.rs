//! Wire-protocol conformance pass. Parses the `mod tag` registry and
//! the `encode_*`/`decode_*` codec functions out of every `wire.rs` in
//! the source set and enforces:
//!
//! - tag values are unique;
//! - every `encode_X` has a `decode_X` and vice versa (a one-sided
//!   codec means one end of the protocol is guessing);
//! - every request-plane tag (value < 0x80) has a dispatch arm in
//!   the node tier (`handle_request`, or `serve` for the batched
//!   update run) or is a front-door built-in (`is_builtin`), and every
//!   client-plane tag (value < 0x20) is a built-in or routed by the
//!   cluster `Router`;
//! - every struct marked `server-bound` is pinned in
//!   [`crate::REQUIRED_SERVER_BOUND`], so the boundary set cannot grow
//!   without a reviewed registry edit;
//! - the wire-tag table in DESIGN.md matches the registry exactly, so
//!   the documented protocol cannot drift from the implemented one.

use crate::symbols::{SourceFile, SymbolTable};
use crate::{Finding, TokKind, REQUIRED_SERVER_BOUND};
use std::collections::{BTreeMap, HashSet};

/// One parsed tag constant: name, value, declaration line.
struct TagDecl {
    name: String,
    value: u8,
    line: usize,
}

pub(crate) fn check(
    files: &[SourceFile],
    syms: &SymbolTable,
    design: Option<&str>,
) -> (Vec<Finding>, Vec<(String, u8)>) {
    let mut findings = Vec::new();
    let mut all_tags = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        if !file.rel.ends_with("wire.rs") {
            continue;
        }
        let tags = parse_tags(file);

        // Tag values must be unique: a collision makes decode dispatch
        // ambiguous and is invisible at runtime until the wrong frame
        // arrives.
        let mut by_value: BTreeMap<u8, &TagDecl> = BTreeMap::new();
        for t in &tags {
            if let Some(first) = by_value.get(&t.value) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: "wire",
                    message: format!(
                        "duplicate wire tag value 0x{:02X}: `{}` collides with `{}` (line {})",
                        t.value, t.name, first.name, first.line
                    ),
                });
            } else {
                by_value.insert(t.value, t);
            }
        }

        // Strict encode/decode pairing, per wire file.
        let mut encodes: BTreeMap<String, usize> = BTreeMap::new();
        let mut decodes: BTreeMap<String, usize> = BTreeMap::new();
        for f in syms.fns.iter().filter(|f| f.file == fi) {
            if let Some(rest) = f.name.strip_prefix("encode_") {
                encodes.entry(rest.to_string()).or_insert(f.line);
            } else if let Some(rest) = f.name.strip_prefix("decode_") {
                decodes.entry(rest.to_string()).or_insert(f.line);
            }
        }
        for (name, line) in &encodes {
            if !decodes.contains_key(name) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: *line,
                    rule: "wire",
                    message: format!(
                        "`encode_{name}` has no matching `decode_{name}`: \
                         the peer cannot read this frame"
                    ),
                });
            }
        }
        for (name, line) in &decodes {
            if !encodes.contains_key(name) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: *line,
                    rule: "wire",
                    message: format!(
                        "`decode_{name}` has no matching `encode_{name}`: \
                         nothing can produce this frame"
                    ),
                });
            }
        }

        check_dispatch(files, syms, file, &tags, &mut findings);

        all_tags.extend(tags.into_iter().map(|t| (t.name, t.value)));
    }

    check_pinning(files, syms, &mut findings);

    if let Some(design) = design {
        check_design_table(design, &all_tags, &mut findings);
    }

    (findings, all_tags)
}

/// Parses `mod tag { pub const NAME: u8 = 0xNN; ... }`.
fn parse_tags(file: &SourceFile) -> Vec<TagDecl> {
    let toks = &file.toks;
    let n = toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !(toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("tag"))) {
            continue;
        }
        let mut j = i + 2;
        while j < n && !toks[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 1i64;
        j += 1;
        while j < n && depth > 0 {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
            } else if toks[j].is_ident("const") {
                // const NAME : u8 = VALUE ;
                let name = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident);
                let value = toks.get(j + 5).filter(|t| t.kind == TokKind::Num);
                if let (Some(name), Some(value)) = (name, value) {
                    if let Some(v) = parse_u8(&value.text) {
                        out.push(TagDecl {
                            name: name.text.clone(),
                            value: v,
                            line: name.line,
                        });
                    }
                }
            }
            j += 1;
        }
        break;
    }
    out
}

fn parse_u8(text: &str) -> Option<u8> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Every request-plane tag must have a `tag::NAME` arm in the node
/// tier's dispatch (`handle_request` / `serve`) or be one the front
/// door answers for every tier (`is_builtin`); every client-plane tag
/// must be such a built-in or appear in the cluster router. Skipped when
/// those files are not in the source set (fixture runs analyze a wire
/// file in isolation).
fn check_dispatch(
    files: &[SourceFile],
    syms: &SymbolTable,
    wire: &SourceFile,
    tags: &[TagDecl],
    findings: &mut Vec<Finding>,
) {
    // The `tag::NAME` mentions inside the named functions of server.rs.
    let server = files
        .iter()
        .position(|f| f.rel == "crates/net/src/server.rs");
    let refs_in = |names: &[&str]| {
        let mut seen = HashSet::new();
        for f in syms
            .fns
            .iter()
            .filter(|f| Some(f.file) == server && names.contains(&f.name.as_str()))
        {
            if let (Some(si), Some(body)) = (server, f.body) {
                collect_tag_refs(&files[si], body, &mut seen);
            }
        }
        seen
    };
    let builtin = refs_in(&["is_builtin"]);
    if server.is_some() {
        let mut seen = refs_in(&["handle_request", "serve"]);
        seen.extend(builtin.iter().cloned());
        for t in tags.iter().filter(|t| t.value < 0x80) {
            if !seen.contains(&t.name) {
                findings.push(Finding {
                    file: wire.rel.clone(),
                    line: t.line,
                    rule: "wire",
                    message: format!(
                        "request tag `{}` (0x{:02X}) has no dispatch arm in the node \
                         tier and is not a front-door built-in",
                        t.name, t.value
                    ),
                });
            }
        }
    }

    // Router coverage: client-plane tags only; a whole-file check, plus
    // the built-ins the front door answers before the router sees them.
    let router = files
        .iter()
        .position(|f| f.rel == "crates/cluster/src/router.rs");
    if let Some(ri) = router {
        let mut seen = builtin;
        let end = files[ri].toks.len();
        collect_tag_refs(&files[ri], (0, end), &mut seen);
        for t in tags.iter().filter(|t| t.value < 0x20) {
            if !seen.contains(&t.name) {
                findings.push(Finding {
                    file: wire.rel.clone(),
                    line: t.line,
                    rule: "wire",
                    message: format!(
                        "client tag `{}` (0x{:02X}) is not routed by the cluster Router",
                        t.name, t.value
                    ),
                });
            }
        }
    }
}

/// Collects every `tag::NAME` path reference in `toks[range]`.
fn collect_tag_refs(file: &SourceFile, range: (usize, usize), seen: &mut HashSet<String>) {
    let toks = &file.toks;
    let (start, end) = range;
    for i in start..end.min(toks.len()) {
        if toks[i].is_ident("tag")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            seen.insert(toks[i + 3].text.clone());
        }
    }
}

/// Every struct carrying the `server-bound` marker must be pinned in
/// `REQUIRED_SERVER_BOUND`, so adding a boundary struct forces a
/// reviewed edit of the registry (the per-file rule already enforces
/// the converse: pinned structs must be marked).
fn check_pinning(files: &[SourceFile], syms: &SymbolTable, findings: &mut Vec<Finding>) {
    for s in syms.structs.iter().filter(|s| s.server_bound) {
        let rel = files[s.file].rel.as_str();
        let pinned = REQUIRED_SERVER_BOUND
            .iter()
            .any(|(f, n)| *f == rel && *n == s.name);
        if !pinned {
            findings.push(Finding {
                file: rel.to_string(),
                line: s.line,
                rule: "wire",
                message: format!(
                    "server-bound struct `{}` is not pinned in REQUIRED_SERVER_BOUND",
                    s.name
                ),
            });
        }
    }
}

/// Cross-checks the DESIGN.md wire-tag table against the parsed
/// registry: every tag documented, every documented value current, no
/// phantom rows.
fn check_design_table(design: &str, tags: &[(String, u8)], findings: &mut Vec<Finding>) {
    if tags.is_empty() {
        return;
    }
    // Table rows: `| \`NAME\` | 0xNN | ... |`.
    let mut rows: BTreeMap<String, (u8, usize)> = BTreeMap::new();
    for (lineno, line) in design.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let Some(name) = extract_backticked(t) else {
            continue;
        };
        let Some(value) = extract_hex(t) else {
            continue;
        };
        rows.entry(name).or_insert((value, lineno + 1));
    }
    if rows.is_empty() {
        findings.push(Finding {
            file: "DESIGN.md".to_string(),
            line: 1,
            rule: "wire",
            message: "no wire-tag registry table found in DESIGN.md \
                      (expected rows of the form `| `NAME` | 0xNN | ... |`)"
                .to_string(),
        });
        return;
    }
    for (name, value) in tags {
        match rows.get(name) {
            None => findings.push(Finding {
                file: "DESIGN.md".to_string(),
                line: 1,
                rule: "wire",
                message: format!(
                    "wire tag `{name}` (0x{value:02X}) is missing from the \
                     DESIGN.md wire-tag table"
                ),
            }),
            Some((doc_value, line)) if doc_value != value => findings.push(Finding {
                file: "DESIGN.md".to_string(),
                line: *line,
                rule: "wire",
                message: format!(
                    "DESIGN.md documents `{name}` as 0x{doc_value:02X} but the \
                     registry declares 0x{value:02X}"
                ),
            }),
            _ => {}
        }
    }
    for (name, (value, line)) in &rows {
        if !tags.iter().any(|(n, _)| n == name) {
            findings.push(Finding {
                file: "DESIGN.md".to_string(),
                line: *line,
                rule: "wire",
                message: format!(
                    "DESIGN.md documents wire tag `{name}` (0x{value:02X}) \
                     which does not exist in the registry"
                ),
            });
        }
    }
}

/// First `` `NAME` `` span in a table row.
fn extract_backticked(line: &str) -> Option<String> {
    let start = line.find('`')?;
    let rest = &line[start + 1..];
    let end = rest.find('`')?;
    let name = &rest[..end];
    let ok = !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    ok.then(|| name.to_string())
}

/// First `0xNN` literal in a table row.
fn extract_hex(line: &str) -> Option<u8> {
    let start = line.find("0x")?;
    let hex: String = line[start + 2..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    if hex.is_empty() {
        return None;
    }
    u8::from_str_radix(&hex, 16).ok()
}
