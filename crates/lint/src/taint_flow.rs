//! Interprocedural taint-flow pass: proves that exact positions cannot
//! reach the untrusted server, flow-sensitively.
//!
//! - **Sources** are `Point`/`UserLocation` values: parameters of those
//!   types, struct literals of those types, and calls to any function
//!   whose return type mentions them (the exact-position getters).
//! - **Sinks** are constructions of `server-bound` structs and calls to
//!   `encode_*` functions whose parameters are server-bound types.
//! - **Sanitizers** are the cloak constructors — any function returning
//!   a `CloakedRegion`/`CloakedUpdate`/`CloakedQuery`. A call to one
//!   launders its arguments (that is the declassification point the
//!   paper's model trusts), and sanitizer bodies are sink-exempt.
//!
//! Taint is value-shaped, not object-shaped: mentioning a tainted
//! aggregate keeps taint only when the whole value is used, a position
//! field (`.x`, `.pos`, …) or tuple index is projected, or the access
//! goes through a taint-preserving std method (`clone`, `unwrap`,
//! iterator adapters). Projecting an aggregate field (`q.radius`,
//! `msg.region`) drops it — that is what lets the trusted tier hold
//! exact positions while the pass still proves none of them reach a
//! wire frame.
//!
//! Calls resolve to workspace functions with qualifier > same-file >
//! whole-workspace preference, so `Engine::new` never inherits the
//! summary of an unrelated `new`. The pass computes per-function
//! summaries (does the body return taint? which parameters flow into a
//! sink?) to a fixpoint, then replays each body once more to emit
//! findings carrying the full source→sink path as `file:line` hops.
//! Escape hatch: `// lint: allow(taint) -- why` above the sink line or
//! the enclosing function.

use crate::callgraph::{is_bare, qualifier_of, Resolver};
use crate::symbols::{FnSym, SourceFile, SymbolTable};
use crate::{allowed, is_keyword, item_anchor_line, Finding, Tok, TokKind};
use std::collections::{BTreeMap, HashMap};

const SOURCE_TYPES: &[&str] = &["Point", "UserLocation"];
const SANITIZER_RET_TYPES: &[&str] = &["CloakedRegion", "CloakedUpdate", "CloakedQuery"];

/// Field names whose projection keeps position taint.
const POSITION_FIELDS: &[&str] = &[
    "x", "y", "pos", "position", "location", "point", "target", "lat", "lon", "lng",
];

/// Std methods that pass their receiver's taint through to the result
/// (option/result plumbing, cloning, iterator adapters, collection
/// access). Anything else on a tainted receiver is resolved by the
/// callee's own summary instead.
const PASSTHROUGH_METHODS: &[&str] = &[
    "clone",
    "cloned",
    "copied",
    "to_owned",
    "to_vec",
    "into",
    "as_ref",
    "as_mut",
    "borrow",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "ok_or",
    "ok_or_else",
    "iter",
    "into_iter",
    "iter_mut",
    "map",
    "and_then",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "collect",
    "take",
    "skip",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "get",
    "get_mut",
    "first",
    "last",
    "pop",
    "remove",
    "drain",
    "reduce",
    "fold",
    "min_by_key",
    "max_by_key",
];

/// Hop chains longer than this are truncated — the head identifies the
/// source and the tail the sink; the middle is commentary.
const MAX_HOPS: usize = 12;

type Hops = Vec<String>;

/// Taint carried by one value: `src` is exact-position taint with its
/// origin chain; `params` maps enclosing-function parameter indices to
/// the chain from that parameter (so callers can be blamed precisely).
#[derive(Debug, Default, Clone)]
struct Taint {
    src: Option<Hops>,
    params: BTreeMap<usize, Hops>,
}

impl Taint {
    fn is_empty(&self) -> bool {
        self.src.is_none() && self.params.is_empty()
    }

    fn merge_src(&mut self, hops: Hops) {
        if self.src.as_ref().is_none_or(|h| h.len() > hops.len()) {
            self.src = Some(hops);
        }
    }

    fn merge(&mut self, other: &Taint, at: &str) {
        if let Some(h) = &other.src {
            self.merge_src(append_hop(h, at));
        }
        for (idx, h) in &other.params {
            self.params.entry(*idx).or_insert_with(|| append_hop(h, at));
        }
    }
}

/// What a function does with taint, as seen from a call site.
#[derive(Debug, Default, Clone, PartialEq)]
struct FnSummary {
    /// The return value carries exact-position taint (by return type or
    /// by body dataflow), with the chain to the origin.
    ret_src: Option<Hops>,
    /// Parameter `i` flows into a server-bound sink inside the body (or
    /// transitively), with the chain from entry to sink.
    param_sinks: BTreeMap<usize, Hops>,
}

struct Ctx<'a> {
    files: &'a [SourceFile],
    syms: &'a SymbolTable,
    resolver: Resolver,
    /// Per-function class flags, by symbol index.
    is_sanitizer: Vec<bool>,
    is_source_ret: Vec<bool>,
    is_encode_sink: Vec<bool>,
}

pub(crate) fn check(files: &[SourceFile], syms: &SymbolTable) -> Vec<Finding> {
    let mut is_sanitizer = Vec::with_capacity(syms.fns.len());
    let mut is_source_ret = Vec::with_capacity(syms.fns.len());
    let mut is_encode_sink = Vec::with_capacity(syms.fns.len());
    for f in &syms.fns {
        let ret_has = |set: &[&str]| f.ret_types.iter().any(|t| set.contains(&t.as_str()));
        let sanitizer = ret_has(SANITIZER_RET_TYPES);
        is_sanitizer.push(sanitizer);
        is_source_ret.push(!sanitizer && ret_has(SOURCE_TYPES));
        is_encode_sink.push(
            f.name.starts_with("encode_")
                && f.params
                    .iter()
                    .any(|p| p.types.iter().any(|t| syms.server_bound.contains(t))),
        );
    }
    let ctx = Ctx {
        files,
        syms,
        resolver: Resolver::build(syms),
        is_sanitizer,
        is_source_ret,
        is_encode_sink,
    };

    let mut summaries: Vec<FnSummary> = vec![FnSummary::default(); syms.fns.len()];

    // Fixpoint on summaries (the call graph is shallow; six rounds is
    // far beyond the deepest taint-relevant chain).
    for _ in 0..6 {
        let mut changed = false;
        for (i, f) in syms.fns.iter().enumerate() {
            if f.body.is_none() || ctx.is_sanitizer[i] {
                continue;
            }
            let s = analyze_fn(f, &ctx, &summaries, false, &mut Vec::new());
            if s != summaries[i] {
                summaries[i] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Emission replay with the converged summaries.
    let mut findings = Vec::new();
    for (i, f) in syms.fns.iter().enumerate() {
        if f.body.is_none() || ctx.is_sanitizer[i] {
            continue;
        }
        analyze_fn(f, &ctx, &summaries, true, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

fn append_hop(hops: &Hops, at: &str) -> Hops {
    let mut out = hops.clone();
    if out.last().map(String::as_str) != Some(at) {
        out.push(at.to_string());
    }
    out.truncate(MAX_HOPS);
    out
}

fn analyze_fn(
    f: &FnSym,
    ctx: &Ctx<'_>,
    summaries: &[FnSummary],
    emit: bool,
    findings: &mut Vec<Finding>,
) -> FnSummary {
    let file = &ctx.files[f.file];
    let toks = &file.toks;
    let (start, end) = f.body.expect("analyze_fn requires a body");
    let site = |line: usize| format!("{}:{}", file.rel, line);

    let mut vars: HashMap<String, Taint> = HashMap::new();
    for (idx, p) in f.params.iter().enumerate() {
        let mut t = Taint::default();
        t.params.insert(idx, vec![site(f.line)]);
        if p.types.iter().any(|ty| SOURCE_TYPES.contains(&ty.as_str())) {
            t.src = Some(vec![site(f.line)]);
        }
        vars.insert(p.name.clone(), t);
    }

    let mut summary = FnSummary::default();
    if f.ret_types
        .iter()
        .any(|t| SOURCE_TYPES.contains(&t.as_str()))
    {
        summary.ret_src = Some(vec![site(f.line)]);
    }
    let fn_allowed = allowed(&file.comments, item_anchor_line(toks, f.kw), "taint");

    let sink_hit = |summary: &mut FnSummary,
                    findings: &mut Vec<Finding>,
                    taint: &Taint,
                    line: usize,
                    what: &str| {
        if let Some(hops) = &taint.src {
            if emit && !fn_allowed && !allowed(&file.comments, line, "taint") {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line,
                    rule: "taint-flow",
                    message: format!(
                        "exact position flows to server-bound sink {what}: {}",
                        append_hop(hops, &site(line)).join(" -> ")
                    ),
                });
            }
        }
        for (idx, hops) in &taint.params {
            summary
                .param_sinks
                .entry(*idx)
                .or_insert_with(|| append_hop(hops, &site(line)));
        }
    };

    // Prefix brace depths so top-level statement boundaries are O(1).
    let mut depths = Vec::with_capacity(end - start);
    let mut d = 0i64;
    for t in &toks[start..end] {
        depths.push(d);
        if t.is_punct('{') {
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
        }
    }

    let mut i = start;
    let mut last_stmt_start = start;
    while i < end {
        let t = &toks[i];

        // Track the start of the trailing top-level segment for the
        // tail-expression return check.
        if (t.is_punct(';') && depths[i - start] == 0)
            || (t.is_punct('}') && depths[i - start] == 1)
        {
            last_stmt_start = i + 1;
        }

        if t.is_ident("let") {
            // Pattern names: idents up to the top-level `=` (type
            // ascriptions after `:` excluded, tuple patterns bind all).
            let (names, eq) = let_pattern(toks, i + 1, end);
            if let Some(eq) = eq {
                let e_end = stmt_end(toks, eq + 1, end);
                let mut taint = eval_init(toks, (eq + 1, e_end), &vars, f, ctx, summaries, &site);
                if !taint.is_empty() {
                    let at = site(t.line);
                    if let Some(h) = taint.src.take() {
                        taint.src = Some(append_hop(&h, &at));
                    }
                    for name in &names {
                        vars.insert(name.clone(), taint.clone());
                    }
                } else {
                    for name in &names {
                        vars.remove(name);
                    }
                }
                // Continue walking *into* the initializer so sink
                // checks inside it still fire.
                i = eq + 1;
                continue;
            }
            i += 1;
            continue;
        }

        if t.is_ident("for") {
            // `for NAMES in EXPR {`: the loop variable inherits the
            // iterated expression's taint.
            if let Some((names, in_pos, brace)) = for_header(toks, i, end) {
                let taint = eval_expr(toks, (in_pos + 1, brace), &vars, f, ctx, summaries, &site);
                for name in &names {
                    if taint.is_empty() {
                        vars.remove(name);
                    } else {
                        vars.insert(name.clone(), taint.clone());
                    }
                }
                i = in_pos + 1;
                continue;
            }
            i += 1;
            continue;
        }

        if t.is_ident("return") {
            let e_end = stmt_end(toks, i + 1, end);
            let taint = eval_expr(toks, (i + 1, e_end), &vars, f, ctx, summaries, &site);
            if let Some(h) = &taint.src {
                summary.ret_src.get_or_insert_with(|| h.clone());
            }
            i += 1;
            continue;
        }

        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            // Server-bound struct literal: a sink.
            if ctx.syms.server_bound.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && !(i > 0 && is_item_keyword(&toks[i - 1]))
            {
                let close = match_delim(toks, i + 1, '{', '}', end);
                let taint = eval_expr(toks, (i + 2, close), &vars, f, ctx, summaries, &site);
                sink_hit(
                    &mut summary,
                    findings,
                    &taint,
                    t.line,
                    &format!("`{}`", t.text),
                );
            }

            // Call site: encode-sink check plus callee param-sink
            // propagation.
            if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !(i > 0 && toks[i - 1].is_ident("fn"))
            {
                let close = match_delim(toks, i + 1, '(', ')', end);
                let targets =
                    ctx.resolver
                        .resolve(qualifier_of(toks, i), is_bare(toks, i), f, &t.text);
                if targets.iter().any(|&ti| ctx.is_encode_sink[ti]) {
                    let taint = eval_expr(toks, (i + 2, close), &vars, f, ctx, summaries, &site);
                    sink_hit(
                        &mut summary,
                        findings,
                        &taint,
                        t.line,
                        &format!("`{}`", t.text),
                    );
                }
                let sinks_params = !targets.iter().any(|&ti| ctx.is_sanitizer[ti])
                    && targets
                        .iter()
                        .any(|&ti| !summaries[ti].param_sinks.is_empty());
                if sinks_params {
                    for (j, (a_start, a_end)) in
                        split_args(toks, i + 2, close).into_iter().enumerate()
                    {
                        let sink_hops = targets
                            .iter()
                            .find_map(|&ti| summaries[ti].param_sinks.get(&j));
                        let Some(sink_hops) = sink_hops else { continue };
                        let at = eval_expr(toks, (a_start, a_end), &vars, f, ctx, summaries, &site);
                        if let Some(src_hops) = &at.src {
                            if emit && !fn_allowed && !allowed(&file.comments, t.line, "taint") {
                                let mut chain = append_hop(src_hops, &site(t.line));
                                chain.extend(sink_hops.iter().cloned());
                                chain.truncate(MAX_HOPS);
                                findings.push(Finding {
                                    file: file.rel.clone(),
                                    line: t.line,
                                    rule: "taint-flow",
                                    message: format!(
                                        "exact position flows to server-bound sink via \
                                         `{}` (argument {}): {}",
                                        t.text,
                                        j,
                                        chain.join(" -> ")
                                    ),
                                });
                            }
                        }
                        for (pidx, phops) in &at.params {
                            let mut chain = append_hop(phops, &site(t.line));
                            chain.extend(sink_hops.iter().cloned());
                            chain.truncate(MAX_HOPS);
                            summary.param_sinks.entry(*pidx).or_insert(chain);
                        }
                    }
                }
                i += 1;
                continue;
            }

            // Plain assignment / field assignment: re-taint the target.
            if toks.get(i + 1).is_some_and(|n| n.is_punct('='))
                && !toks.get(i + 2).is_some_and(|n| n.is_punct('='))
                && !(i > 0 && is_compound_op(&toks[i - 1]))
            {
                let field_assign = i > 0 && toks[i - 1].is_punct('.');
                let target = if field_assign {
                    dotted_root(toks, i)
                } else {
                    Some(t.text.clone())
                };
                let e_end = stmt_end(toks, i + 2, end);
                let taint = eval_expr(toks, (i + 2, e_end), &vars, f, ctx, summaries, &site);
                if let Some(target) = target.filter(|n| n != "self") {
                    if field_assign {
                        // A field write adds taint to the aggregate.
                        if !taint.is_empty() {
                            vars.entry(target).or_default().merge(&taint, &site(t.line));
                        }
                    } else if taint.is_empty() {
                        vars.remove(&target);
                    } else {
                        vars.insert(target, taint);
                    }
                }
                i += 2;
                continue;
            }
        }

        i += 1;
    }

    // Tail expression: the last top-level segment is the return value.
    if last_stmt_start < end {
        let taint = eval_expr(
            toks,
            (last_stmt_start, end),
            &vars,
            f,
            ctx,
            summaries,
            &site,
        );
        if let Some(h) = &taint.src {
            summary.ret_src.get_or_insert_with(|| h.clone());
        }
    }

    summary
}

/// Evaluates a `let` initializer. A block initializer (`= { ... }`)
/// takes the taint of the block's tail expression — the intermediate
/// statements bind their own locals and are walked separately.
fn eval_init(
    toks: &[Tok],
    range: (usize, usize),
    vars: &HashMap<String, Taint>,
    f: &FnSym,
    ctx: &Ctx<'_>,
    summaries: &[FnSummary],
    site: &dyn Fn(usize) -> String,
) -> Taint {
    let (s, e) = range;
    if s < e && toks[s].is_punct('{') && match_delim(toks, s, '{', '}', e) + 1 == e {
        // Narrow to the block's tail segment.
        let inner = (s + 1, e - 1);
        let mut depth = 0i64;
        let mut tail = inner.0;
        for (off, t) in toks[inner.0..inner.1].iter().enumerate() {
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if t.is_punct('}') && depth == 0 {
                    tail = inner.0 + off + 1;
                }
            } else if t.is_punct(';') && depth == 0 {
                tail = inner.0 + off + 1;
            }
        }
        if tail > inner.0 {
            if tail >= inner.1 {
                return Taint::default();
            }
            return eval_expr(toks, (tail, inner.1), vars, f, ctx, summaries, site);
        }
    }
    eval_expr(toks, (s, e), vars, f, ctx, summaries, site)
}

/// Expression taint: the union of every tainted-variable use that
/// survives projection filtering and every source-returning call, with
/// sanitizer call arguments skipped (laundered).
fn eval_expr(
    toks: &[Tok],
    range: (usize, usize),
    vars: &HashMap<String, Taint>,
    f: &FnSym,
    ctx: &Ctx<'_>,
    summaries: &[FnSummary],
    site: &dyn Fn(usize) -> String,
) -> Taint {
    let mut out = Taint::default();
    let (s, e) = range;
    let mut i = s;
    while i < e.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                let targets =
                    ctx.resolver
                        .resolve(qualifier_of(toks, i), is_bare(toks, i), f, &t.text);
                if targets.iter().any(|&ti| ctx.is_sanitizer[ti]) {
                    // Declassification: skip the whole call.
                    i = match_delim(toks, i + 1, '(', ')', e) + 1;
                    continue;
                }
                if targets.iter().any(|&ti| ctx.is_source_ret[ti]) {
                    out.merge_src(vec![site(t.line)]);
                } else if let Some(rh) = targets
                    .iter()
                    .find_map(|&ti| summaries[ti].ret_src.as_ref())
                {
                    out.merge_src(append_hop(rh, &site(t.line)));
                }
                i += 1;
                continue;
            }
            // A source-type struct literal is itself a source.
            if SOURCE_TYPES.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && !(i > 0 && is_item_keyword(&toks[i - 1]))
            {
                out.merge_src(vec![site(t.line)]);
            }
            if let Some(vt) = vars.get(&t.text) {
                // Skip uses that are field labels (`x: ...` in a struct
                // literal) rather than reads of the variable.
                let colon_next = toks.get(i + 1).is_some_and(|n| n.is_punct(':'));
                let path_colon = toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
                let after_dot_or_colon =
                    i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
                let is_label = colon_next && !path_colon && !after_dot_or_colon;
                let is_field_of_other = i > 0 && toks[i - 1].is_punct('.');
                if !is_label && !is_field_of_other && projection_keeps_taint(toks, i, e) {
                    out.merge(vt, &site(t.line));
                }
            }
        }
        i += 1;
    }
    out
}

/// Whether the use of a tainted variable at `idx` keeps its taint
/// through the projection chain that follows. Whole-value uses do;
/// position fields and tuple indices do; taint-preserving std methods
/// pass it along; any other field or method projection drops it (the
/// projected value is an aggregate, and method results are covered by
/// the callee's own summary).
fn projection_keeps_taint(toks: &[Tok], idx: usize, end: usize) -> bool {
    let mut j = idx + 1;
    loop {
        if j >= end || !toks[j].is_punct('.') {
            return true; // whole value (or end of chain after passthrough)
        }
        let Some(seg) = toks.get(j + 1) else {
            return true;
        };
        match seg.kind {
            TokKind::Num => return true, // tuple index
            TokKind::Ident => {
                let is_call = toks.get(j + 2).is_some_and(|n| n.is_punct('('));
                if is_call {
                    if PASSTHROUGH_METHODS.contains(&seg.text.as_str()) {
                        j = match_delim(toks, j + 2, '(', ')', end) + 1;
                        continue;
                    }
                    return false;
                }
                if POSITION_FIELDS.contains(&seg.text.as_str()) {
                    return true;
                }
                j += 2;
            }
            _ => return true,
        }
    }
}

fn is_item_keyword(t: &Tok) -> bool {
    ["struct", "enum", "union", "impl", "trait", "mod"]
        .iter()
        .any(|k| t.is_ident(k))
}

fn is_compound_op(t: &Tok) -> bool {
    ['=', '!', '<', '>', '+', '-', '*', '/', '%', '&', '|', '^']
        .iter()
        .any(|c| t.is_punct(*c))
}

/// Binding names of a `let` pattern starting at `s` (just past `let`),
/// and the index of the top-level `=` if present. Idents following `:`
/// (type ascription) and path qualifiers are excluded.
fn let_pattern(toks: &[Tok], s: usize, end: usize) -> (Vec<String>, Option<usize>) {
    let mut names = Vec::new();
    let mut in_type = false;
    let mut depth = 0i64;
    let mut i = s;
    while i < end {
        let t = &toks[i];
        if depth == 0 && t.is_punct('=') && !toks.get(i + 1).is_some_and(|n| n.is_punct('=')) {
            return (names, Some(i));
        }
        if t.is_punct(';') && depth == 0 {
            return (names, None);
        }
        match () {
            _ if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') => depth += 1,
            _ if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') => depth -= 1,
            _ if t.is_punct(':') => {
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    || (i > 0 && toks[i - 1].is_punct(':'))
                {
                    // Path separator inside an enum pattern.
                } else {
                    in_type = true;
                }
            }
            _ if t.is_punct(',') && depth <= 1 => in_type = false,
            _ if t.kind == TokKind::Ident && !is_keyword(&t.text) && !in_type => {
                // Skip path qualifiers (`Some`, `Ok`, enum names): an
                // ident directly followed by `(`/`{`/`::` is a path,
                // not a binding.
                let next = toks.get(i + 1);
                let is_path =
                    next.is_some_and(|n| n.is_punct('(') || n.is_punct('{') || n.is_punct(':'));
                if !is_path && t.text != "_" {
                    names.push(t.text.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (names, None)
}

/// `for NAMES in EXPR {` header: binding names, the `in` index, and the
/// index of the loop-body `{`.
fn for_header(toks: &[Tok], for_idx: usize, end: usize) -> Option<(Vec<String>, usize, usize)> {
    let mut names = Vec::new();
    let mut i = for_idx + 1;
    let mut in_pos = None;
    while i < end {
        let t = &toks[i];
        if t.is_ident("in") {
            in_pos = Some(i);
            break;
        }
        if t.is_punct('{') || t.is_punct(';') {
            return None;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) && t.text != "_" {
            let is_path = toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
            if !is_path {
                names.push(t.text.clone());
            }
        }
        i += 1;
    }
    let in_pos = in_pos?;
    // The iterated expression runs to the loop-body `{`. A `{` directly
    // after an uppercase ident is a struct literal and stays inside the
    // expression.
    let mut depth = 0i64;
    let mut j = in_pos + 1;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') {
            let literal = j > 0
                && toks[j - 1].kind == TokKind::Ident
                && toks[j - 1]
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase());
            if depth == 0 && !literal {
                return Some((names, in_pos, j));
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        }
        j += 1;
    }
    None
}

/// End of the statement starting at `s`: the first `;` at bracket depth
/// zero, or `end`.
fn stmt_end(toks: &[Tok], s: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut i = s;
    while i < end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    end
}

/// Index of the delimiter matching `toks[open]` (which must be
/// `open_c`), bounded by `end`.
fn match_delim(toks: &[Tok], open: usize, open_c: char, close_c: char, end: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < end {
        if toks[i].is_punct(open_c) {
            depth += 1;
        } else if toks[i].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// Top-level comma-separated argument spans inside `(s, e)`.
fn split_args(toks: &[Tok], s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut seg = s;
    let mut i = s;
    while i < e {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push((seg, i));
            seg = i + 1;
        }
        i += 1;
    }
    if seg < e {
        out.push((seg, e));
    }
    out
}

/// Root variable of a dotted chain ending just before `idx` (`a.b.c` at
/// `c` → `a`).
fn dotted_root(toks: &[Tok], idx: usize) -> Option<String> {
    let mut i = idx;
    while i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokKind::Ident {
        i -= 2;
    }
    (toks[i].kind == TokKind::Ident).then(|| toks[i].text.clone())
}
