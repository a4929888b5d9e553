//! Static lock-order pass. The runtime `TrackedMutex`/`TrackedRwLock`
//! wrappers panic on rank inversion, but only for the interleavings a
//! debug run happens to exercise. This pass derives the whole-program
//! acquisition graph statically — which ranks can be held when each
//! function acquires another — and proves it acyclic against the
//! declared `LockRank` order, so an inversion is a lint finding before
//! it is ever a 3 a.m. deadlock.
//!
//! Rank assignment for an acquisition site, in precedence order:
//!
//! 1. a `// lint: lock(Rank)` annotation directly above the acquiring
//!    line (needed for closure variables the name scan cannot see);
//! 2. the receiver name (`name.lock()`, or `name[i].lock()` for a member
//!    of a sharded lock array), resolved through a workspace-wide map
//!    built from `TrackedMutex::new(LockRank::X, ..)` construction sites
//!    and annotated raw-lock constructions.
//!
//! Unresolvable receivers are skipped — the pass over-approximates
//! flows on what it resolves and stays silent on what it cannot, and
//! the runtime checker still covers the remainder.

use crate::callgraph::{calls_in, is_bare, qualifier_of, CallSite, Resolver};
use crate::symbols::{SourceFile, SymbolTable};
use crate::{allowed, annotations_above, Annotation, Finding, Tok, TokKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One held→acquired edge in the static lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Rank held at the acquisition site.
    pub from: String,
    /// Rank acquired while `from` is held.
    pub to: String,
    /// File of the inner acquisition (or the call that leads to it).
    pub file: String,
    /// Line of the inner acquisition (or the call that leads to it).
    pub line: usize,
}

/// One resolved acquisition site inside a function body.
struct Acq {
    rank: String,
    tok: usize,
    line: usize,
    /// Token index one past the region the guard is considered live.
    span_end: usize,
}

pub(crate) fn check(
    files: &[SourceFile],
    syms: &SymbolTable,
    registry: &[String],
) -> (Vec<Finding>, Vec<LockEdge>) {
    let rank_index: HashMap<&str, usize> = registry
        .iter()
        .enumerate()
        .map(|(i, r)| (r.as_str(), i))
        .collect();
    let names = lock_name_map(files);

    // Per-function resolved acquisitions and call sites.
    let mut fn_acqs: Vec<Vec<Acq>> = Vec::with_capacity(syms.fns.len());
    let mut fn_calls: Vec<Vec<CallSite>> = Vec::with_capacity(syms.fns.len());
    for f in &syms.fns {
        match f.body {
            Some(body) => {
                let file = &files[f.file];
                fn_acqs.push(acquisitions(file, body, &names));
                fn_calls.push(calls_in(&file.toks, body));
            }
            None => {
                fn_acqs.push(Vec::new());
                fn_calls.push(Vec::new());
            }
        }
    }

    // May-acquire fixpoint over the resolved call graph: for each
    // function, the ranks it can acquire directly or transitively, with
    // one witness chain of `file:line` hops per rank.
    let resolver = Resolver::build(syms);
    let mut may: Vec<BTreeMap<String, Vec<(String, usize)>>> =
        vec![BTreeMap::new(); syms.fns.len()];
    for (i, f) in syms.fns.iter().enumerate() {
        for a in &fn_acqs[i] {
            may[i]
                .entry(a.rank.clone())
                .or_insert_with(|| vec![(files[f.file].rel.clone(), a.line)]);
        }
    }
    loop {
        let mut changed = false;
        for (i, f) in syms.fns.iter().enumerate() {
            let toks = &files[f.file].toks;
            let mut add: Vec<(String, Vec<(String, usize)>)> = Vec::new();
            for c in &fn_calls[i] {
                // `.lock()`/`.read()`/`.write()` are modelled as direct
                // acquisitions, not calls.
                if matches!(c.callee.as_str(), "lock" | "read" | "write") {
                    continue;
                }
                for &ti in resolver.resolve(
                    qualifier_of(toks, c.tok),
                    is_bare(toks, c.tok),
                    f,
                    &c.callee,
                ) {
                    for (rank, chain) in &may[ti] {
                        if may[i].contains_key(rank) {
                            continue;
                        }
                        let mut witness = vec![(files[f.file].rel.clone(), c.line)];
                        witness.extend(chain.iter().cloned());
                        add.push((rank.clone(), witness));
                    }
                }
            }
            for (rank, witness) in add {
                if let std::collections::btree_map::Entry::Vacant(e) = may[i].entry(rank) {
                    e.insert(witness);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge emission: inside each guard's live span, every direct
    // acquisition and every call's may-acquire set produces an edge.
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let push_edge = |edges: &mut Vec<LockEdge>,
                     findings: &mut Vec<Finding>,
                     file: &SourceFile,
                     from: &str,
                     to: &str,
                     line: usize,
                     via: &[(String, usize)]| {
        let edge = LockEdge {
            from: from.to_string(),
            to: to.to_string(),
            file: file.rel.clone(),
            line,
        };
        if !edges.contains(&edge) {
            edges.push(edge);
        }
        let (Some(&fi), Some(&ti)) = (rank_index.get(from), rank_index.get(to)) else {
            return;
        };
        if ti >= fi || allowed(&file.comments, line, "lock") {
            return;
        }
        let chain = if via.is_empty() {
            String::new()
        } else {
            let hops: Vec<String> = via.iter().map(|(f, l)| format!("{f}:{l}")).collect();
            format!(" via {}", hops.join(" -> "))
        };
        findings.push(Finding {
            file: file.rel.clone(),
            line,
            rule: "lock-order",
            message: format!(
                "acquires `{to}` (rank {ti}) while holding `{from}` (rank {fi}): \
                 declared order requires holding only lower-or-equal ranks{chain}"
            ),
        });
    };

    for (i, f) in syms.fns.iter().enumerate() {
        let file = &files[f.file];
        for a in &fn_acqs[i] {
            for b in &fn_acqs[i] {
                if b.tok > a.tok && b.tok < a.span_end {
                    push_edge(
                        &mut edges,
                        &mut findings,
                        file,
                        &a.rank,
                        &b.rank,
                        b.line,
                        &[],
                    );
                }
            }
            for c in &fn_calls[i] {
                if c.tok <= a.tok || c.tok >= a.span_end {
                    continue;
                }
                if matches!(c.callee.as_str(), "lock" | "read" | "write") {
                    continue;
                }
                for &ti in resolver.resolve(
                    qualifier_of(&file.toks, c.tok),
                    is_bare(&file.toks, c.tok),
                    f,
                    &c.callee,
                ) {
                    for (rank, chain) in &may[ti] {
                        push_edge(
                            &mut edges,
                            &mut findings,
                            file,
                            &a.rank,
                            rank,
                            c.line,
                            chain,
                        );
                    }
                }
            }
        }
    }

    findings.extend(cycle_findings(&edges, registry));
    (findings, edges)
}

/// Reports every simple cycle among distinct ranks (a cycle necessarily
/// contains a descending edge, so these supplement the per-edge
/// findings with the full deadlock path).
fn cycle_findings(edges: &[LockEdge], registry: &[String]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
    }
    let mut findings = Vec::new();
    let mut reported: HashSet<Vec<&str>> = HashSet::new();
    // Bounded DFS from each declared rank; the rank set is tiny.
    for start in registry {
        let mut stack: Vec<(&str, Vec<&LockEdge>)> = vec![(start.as_str(), Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if path.len() > registry.len() {
                continue;
            }
            for e in adj.get(node).map_or(&[][..], |v| v) {
                if e.to == *start {
                    let mut cycle: Vec<&str> = path.iter().map(|p| p.from.as_str()).collect();
                    cycle.push(e.from.as_str());
                    let mut key = cycle.clone();
                    key.sort_unstable();
                    key.dedup();
                    if key.len() < 2 || !reported.insert(key) {
                        continue;
                    }
                    let mut full = path.clone();
                    full.push(e);
                    let ranks: Vec<&str> = cycle.iter().copied().chain([start.as_str()]).collect();
                    let sites: Vec<String> = full
                        .iter()
                        .map(|e| format!("{}:{}", e.file, e.line))
                        .collect();
                    findings.push(Finding {
                        file: full[0].file.clone(),
                        line: full[0].line,
                        rule: "lock-order",
                        message: format!(
                            "potential deadlock: lock-rank cycle {} (witness sites: {})",
                            ranks.join(" -> "),
                            sites.join(", ")
                        ),
                    });
                } else if !path.iter().any(|p| p.from == e.to) && e.to != *start {
                    let mut next = path.clone();
                    next.push(e);
                    stack.push((e.to.as_str(), next));
                }
            }
        }
    }
    findings
}

/// Workspace-wide receiver-name → rank map from construction sites.
fn lock_name_map(files: &[SourceFile]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for file in files {
        let toks = &file.toks;
        let n = toks.len();
        for i in 0..n {
            let t = &toks[i];
            let tracked = t.is_ident("TrackedMutex") || t.is_ident("TrackedRwLock");
            let raw = t.is_ident("Mutex") || t.is_ident("RwLock");
            if !tracked && !raw {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 3).is_some_and(|x| x.is_ident("new")))
            {
                continue;
            }
            // Rank: the `LockRank::X` first argument, or a
            // `lint: lock(Rank)` annotation above a raw construction.
            let rank = if tracked {
                (i..n.min(i + 10)).find_map(|j| {
                    (toks[j].is_ident("LockRank")
                        && toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
                        && toks.get(j + 2).is_some_and(|x| x.is_punct(':')))
                    .then(|| toks.get(j + 3))
                    .flatten()
                    .map(|x| x.text.clone())
                })
            } else {
                annotations_above(&file.comments, t.line)
                    .into_iter()
                    .find_map(|a| match a {
                        Annotation::Lock(name) => Some(name),
                        _ => None,
                    })
            };
            let Some(rank) = rank else { continue };
            if let Some(name) = binding_name_before(toks, i) {
                map.insert(name, rank);
            }
        }
    }
    map
}

/// Walks backward from a construction site to the name it is bound to:
/// `name: <ctor>` (struct field init or declaration), `let [mut] name`,
/// or `x.name = <ctor>`. Stops at the statement boundary.
fn binding_name_before(toks: &[Tok], ctor: usize) -> Option<String> {
    let mut p = ctor;
    let mut steps = 0;
    while p > 0 && steps < 80 {
        p -= 1;
        steps += 1;
        let t = &toks[p];
        if t.is_punct(';') {
            return None;
        }
        if t.kind != TokKind::Ident || crate::is_keyword(&t.text) || t.text == "_" {
            continue;
        }
        let next_colon = toks.get(p + 1).is_some_and(|x| x.is_punct(':'))
            && !toks.get(p + 2).is_some_and(|x| x.is_punct(':'))
            && !(p > 0 && toks[p - 1].is_punct(':'));
        let after_let = p > 0
            && (toks[p - 1].is_ident("let")
                || (toks[p - 1].is_ident("mut") && p > 1 && toks[p - 2].is_ident("let")));
        let field_assign =
            toks.get(p + 1).is_some_and(|x| x.is_punct('=')) && p > 0 && toks[p - 1].is_punct('.');
        if next_colon || after_let || field_assign {
            return Some(t.text.clone());
        }
    }
    None
}

/// Resolved acquisition sites (`.lock(` / `.read(` / `.write(`) in a
/// function body, with guard-liveness spans.
fn acquisitions(
    file: &SourceFile,
    body: (usize, usize),
    names: &HashMap<String, String>,
) -> Vec<Acq> {
    let toks = &file.toks;
    let (start, end) = body;
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "lock" | "read" | "write") {
            continue;
        }
        let is_method_call =
            i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|x| x.is_punct('('));
        if !is_method_call {
            continue;
        }
        // Annotation override first (closure variables and tuple fields
        // have no resolvable receiver name), then the receiver name.
        let annotated = annotations_above(&file.comments, t.line)
            .into_iter()
            .find_map(|a| match a {
                Annotation::Lock(name) => Some(name),
                _ => None,
            });
        let rank = match annotated {
            Some(r) => r,
            None => {
                let recv = receiver_before(toks, i).filter(|r| r.kind == TokKind::Ident);
                match recv.and_then(|r| names.get(&r.text)) {
                    Some(r) => r.clone(),
                    None => continue,
                }
            }
        };
        out.push(Acq {
            rank,
            tok: i,
            line: t.line,
            span_end: guard_span_end(toks, i, end),
        });
    }
    out
}

/// The token naming the receiver of the method call at `method`:
/// `name` in `name.lock()`, and also in `name[i].lock()` — a member of a
/// sharded lock array carries the array's rank.
fn receiver_before(toks: &[Tok], method: usize) -> Option<&Tok> {
    let mut p = method.checked_sub(2)?;
    if toks[p].is_punct(']') {
        let mut depth = 0usize;
        loop {
            if toks[p].is_punct(']') {
                depth += 1;
            } else if toks[p].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            p = p.checked_sub(1)?;
        }
        p = p.checked_sub(1)?;
    }
    toks.get(p)
}

/// One past the last token where the guard from the acquisition at
/// `acq` is live: end of the enclosing block for a `let`-bound guard,
/// end of the statement for a temporary. A chained call on the guard
/// (`x.lock().recv()`) consumes it within the expression — the binding,
/// if any, holds the chain's result, not the guard — so it counts as a
/// temporary even under `let`.
fn guard_span_end(toks: &[Tok], acq: usize, body_end: usize) -> usize {
    let chained = {
        let mut depth = 0i64;
        let mut j = acq + 1;
        let mut after = None;
        while j < body_end {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    after = Some(j + 1);
                    break;
                }
            }
            j += 1;
        }
        after
            .and_then(|a| toks.get(a))
            .is_some_and(|t| t.is_punct('.'))
    };
    let let_bound = !chained && {
        let mut p = acq;
        let mut found = false;
        while p > 0 {
            p -= 1;
            let t = &toks[p];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.is_ident("let") {
                found = true;
                break;
            }
        }
        found
    };
    let mut depth = 0i64;
    let mut j = acq;
    while j < body_end {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if !let_bound && depth == 0 && t.is_punct(';') {
            return j;
        }
        j += 1;
    }
    body_end
}
