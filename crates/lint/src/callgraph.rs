//! Call-site extraction and call-target resolution for the
//! interprocedural passes. Extraction is purely lexical: an identifier
//! immediately followed by `(` is a call site. Macros never match (the
//! `!` sits between the name and the paren), and `fn` declarations are
//! excluded by looking one token back.
//!
//! Resolution is name-based but scoped: a qualified call `Q::f` binds
//! to the workspace `impl Q` functions named `f`; an unqualified call
//! prefers same-file functions, then falls back to every function of
//! that name anywhere. The fallback keeps the passes conservative
//! (over-approximate, never miss a resolved flow) while the two
//! preferred tiers stop ubiquitous names like `new` or `len` from
//! unioning unrelated summaries across the workspace. A bare call
//! `f(..)` — no receiver, no path — can only name a free function in
//! Rust, so it never binds to a method: `drop(guard)` is not the
//! file's `impl Drop`.

use crate::symbols::{FnSym, SymbolTable};
use crate::{is_keyword, Tok, TokKind};
use std::collections::HashMap;

/// One syntactic call site inside a function body.
pub(crate) struct CallSite {
    pub(crate) callee: String,
    /// Token index of the callee identifier.
    pub(crate) tok: usize,
    pub(crate) line: usize,
}

/// All call sites in `toks[range.0..range.1]`.
pub(crate) fn calls_in(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        out.push(CallSite {
            callee: t.text.clone(),
            tok: i,
            line: t.line,
        });
    }
    out
}

/// The `Q` of a `Q::f(` call whose callee identifier sits at `idx`.
pub(crate) fn qualifier_of(toks: &[Tok], idx: usize) -> Option<&str> {
    (idx >= 3
        && toks[idx - 1].is_punct(':')
        && toks[idx - 2].is_punct(':')
        && toks[idx - 3].kind == TokKind::Ident)
        .then(|| toks[idx - 3].text.as_str())
}

/// `true` when the callee identifier at `idx` is called bare: not a
/// method (`x.f(`) and not a path (`Q::f(`).
pub(crate) fn is_bare(toks: &[Tok], idx: usize) -> bool {
    idx == 0 || !(toks[idx - 1].is_punct('.') || toks[idx - 1].is_punct(':'))
}

/// Method names every std container answers. A call to one of these
/// almost always targets `Vec`/`HashMap`/slice — not the workspace type
/// that happens to share the name — so they resolve through the owner
/// and same-file tiers only, never the whole-workspace fallback
/// (`buf.len()` must not inherit the summary of a grid's `len`).
const UBIQUITOUS: &[&str] = &[
    "new",
    "default",
    "from",
    "into",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "clear",
    "drain",
    "map",
    "sum",
    "min",
    "max",
    "next",
    "cmp",
    "eq",
    "fmt",
    "hash",
    "drop",
    "extend",
    "as_ref",
    "as_mut",
    "flush",
];

/// Call-target resolution with qualifier > same-file > whole-workspace
/// preference. An uppercase path qualifier that matches no workspace
/// impl resolves to nothing — it names a foreign type, and inheriting
/// an unrelated same-named function's summary would only add noise.
/// Lowercase qualifiers are module paths and fall through to the
/// name-based tiers; `Self::` resolves against the caller's own impl.
pub(crate) struct Resolver {
    by_owner: HashMap<(String, String), Vec<usize>>,
    by_file: HashMap<(usize, String), Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
    /// The same two tiers over free functions only, for bare calls.
    free_by_file: HashMap<(usize, String), Vec<usize>>,
    free_by_name: HashMap<String, Vec<usize>>,
}

impl Resolver {
    pub(crate) fn build(syms: &SymbolTable) -> Resolver {
        let mut by_owner: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_file: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut free_by_file: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in syms.fns.iter().enumerate() {
            if let Some(o) = &f.owner {
                by_owner
                    .entry((o.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            } else {
                free_by_file
                    .entry((f.file, f.name.clone()))
                    .or_default()
                    .push(i);
                free_by_name.entry(f.name.clone()).or_default().push(i);
            }
            by_file.entry((f.file, f.name.clone())).or_default().push(i);
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        Resolver {
            by_owner,
            by_file,
            by_name,
            free_by_file,
            free_by_name,
        }
    }

    /// Symbol indices a call to `name` (qualified by `qualifier`, bare
    /// when `bare`, made from inside `caller`) can reach.
    pub(crate) fn resolve(
        &self,
        qualifier: Option<&str>,
        bare: bool,
        caller: &FnSym,
        name: &str,
    ) -> &[usize] {
        let q = match qualifier {
            Some("Self") => caller.owner.as_deref(),
            other => other,
        };
        if let Some(q) = q {
            if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                return self
                    .by_owner
                    .get(&(q.to_string(), name.to_string()))
                    .map_or(&[], Vec::as_slice);
            }
        }
        let (by_file, by_name) = if bare {
            (&self.free_by_file, &self.free_by_name)
        } else {
            (&self.by_file, &self.by_name)
        };
        if let Some(v) = by_file.get(&(caller.file, name.to_string())) {
            return v;
        }
        if UBIQUITOUS.contains(&name) {
            return &[];
        }
        by_name.get(name).map_or(&[], Vec::as_slice)
    }
}
