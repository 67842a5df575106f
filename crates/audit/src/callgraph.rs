//! Pass 2 of the interprocedural analysis: the workspace call graph.
//!
//! For every function body in the symbol table, call sites are extracted
//! from the token stream (`helper(...)`, `recv.method(...)`,
//! `Type::assoc(...)`, turbofish variants) and resolved against the
//! table by **name + arity**, refined by the receiver/qualifier, the
//! caller's module and crate, and trait membership:
//!
//! 1. candidates = same name, same arity (receiver counted), non-test;
//! 2. `self.m(...)` keeps candidates owned by the caller's `impl` type;
//! 3. `Q::m(...)` keeps candidates whose owner, module tail or crate
//!    matches `Q`;
//! 4. a unique survivor resolves the edge; otherwise prefer the unique
//!    same-module, then same-crate candidate;
//! 5. candidates that are all impls of one trait method resolve as a
//!    fan-out edge to *every* impl (class-hierarchy style — sound
//!    over-approximation for taint reachability);
//! 6. what remains is **ambiguous** and must be settled by a
//!    `[callgraph] resolve` override in `policy.toml` (`"name/arity ->
//!    <id-suffix>|*|external"`) — the audit exits 2 with a hint
//!    otherwise, because an unresolved edge is a hole in the
//!    reachability argument.
//!
//! Calls that match no workspace symbol at all are *external*
//! (`std`/vendored) and only counted; the resolution ratio
//! (`resolved / (resolved + ambiguous)`, reported per-mille) is part of
//! the JSON report so coverage regressions fail the baseline gate.

use crate::lexer::TokenKind;
use crate::policy::{CallGraphPolicy, ResolveTarget};
use crate::symbols::{count_params, FileTokens, FnDef, SymbolTable};
use std::collections::BTreeSet;

/// One resolved call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Callee index into [`SymbolTable::fns`].
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: usize,
}

/// A call the resolver could not settle: multiple unrelated workspace
/// candidates share the name and arity. Reported as a setup error.
#[derive(Clone, Debug)]
pub struct AmbiguousCall {
    /// Workspace-relative path of the call site.
    pub path: String,
    /// 1-based line of the call site.
    pub line: usize,
    /// The called name.
    pub name: String,
    /// The call's arity (receiver counted for method calls).
    pub arity: usize,
    /// Display ids of the competing candidates.
    pub candidates: Vec<String>,
}

/// Aggregate resolution statistics, reported in `AUDIT_report.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Function definitions in the symbol table (non-test, with a body).
    pub functions: usize,
    /// Resolved caller→callee edges (fan-outs count each target).
    pub edges: usize,
    /// Call sites examined.
    pub calls_total: usize,
    /// Call sites resolved to at least one workspace definition.
    pub calls_resolved: usize,
    /// Call sites matching no workspace symbol (std/vendored).
    pub calls_external: usize,
    /// Call sites needing a policy override that have none.
    pub calls_ambiguous: usize,
}

impl GraphStats {
    /// `resolved / (resolved + ambiguous)`, in per-mille (deterministic
    /// integer — no float formatting in the stable report). External
    /// calls are excluded: they are out of scope, not unresolved.
    pub fn resolution_permille(&self) -> u64 {
        let in_scope = self.calls_resolved + self.calls_ambiguous;
        if in_scope == 0 {
            return 1000;
        }
        (self.calls_resolved as u64 * 1000) / in_scope as u64
    }
}

/// The workspace call graph over a [`SymbolTable`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per function index, sorted by (callee, line).
    pub edges: Vec<Vec<Edge>>,
    /// Calls needing a `[callgraph] resolve` override.
    pub ambiguous: Vec<AmbiguousCall>,
    /// Resolution statistics.
    pub stats: GraphStats,
}

impl CallGraph {
    /// Builds the graph: extracts and resolves every call site in every
    /// non-test function body.
    pub fn build(
        files: &[FileTokens],
        symbols: &SymbolTable,
        policy: &CallGraphPolicy,
    ) -> CallGraph {
        let mut graph = CallGraph {
            edges: vec![Vec::new(); symbols.fns.len()],
            ..CallGraph::default()
        };
        graph.stats.functions = symbols
            .fns
            .iter()
            .filter(|d| d.body.is_some() && !d.is_test)
            .count();
        for (caller_idx, def) in symbols.fns.iter().enumerate() {
            let Some((start, end)) = def.body else {
                continue;
            };
            if def.is_test {
                continue;
            }
            let ft = &files[def.file];
            for call in extract_calls(ft, start, end) {
                graph.stats.calls_total += 1;
                match resolve(&call, Some(def), symbols, policy) {
                    Resolution::Edges(targets) => {
                        graph.stats.calls_resolved += 1;
                        for t in targets {
                            graph.edges[caller_idx].push(Edge {
                                callee: t,
                                line: call.line,
                            });
                        }
                    }
                    Resolution::External => graph.stats.calls_external += 1,
                    Resolution::Ambiguous(candidates) => {
                        graph.stats.calls_ambiguous += 1;
                        graph.ambiguous.push(AmbiguousCall {
                            path: def.path.clone(),
                            line: call.line,
                            name: call.name.clone(),
                            arity: call.arity,
                            candidates: candidates.iter().map(|&c| symbols.fns[c].id()).collect(),
                        });
                    }
                }
            }
        }
        for edges in &mut graph.edges {
            edges.sort_by_key(|e| (e.callee, e.line));
            edges.dedup();
        }
        graph.stats.edges = graph.edges.iter().map(Vec::len).sum();
        graph
            .ambiguous
            .sort_by(|a, b| (&a.path, a.line, &a.name).cmp(&(&b.path, b.line, &b.name)));
        graph
    }

    /// Public functions with no non-test caller: plain-`pub`, bodied,
    /// non-test, non-trait fns (other than `main`) outside `called_elsewhere`
    /// that no function calls except, transitively, other such orphans or
    /// themselves. Sorted by symbol index. A token-level graph misses calls
    /// through fn pointers, so this is a list of deletion candidates to
    /// check, not a verdict.
    pub fn orphans(&self, symbols: &SymbolTable, called_elsewhere: &BTreeSet<usize>) -> Vec<usize> {
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); symbols.fns.len()];
        for (caller, edges) in self.edges.iter().enumerate() {
            for e in edges {
                if e.callee != caller {
                    callers[e.callee].push(caller);
                }
            }
        }
        let candidate = |i: usize, d: &FnDef| {
            d.is_pub
                && d.body.is_some()
                && !d.is_test
                && d.trait_name.is_none()
                && d.name != "main"
                && !called_elsewhere.contains(&i)
        };
        let mut orphan = vec![false; symbols.fns.len()];
        // Peel to a fixpoint: a candidate whose every caller is already an
        // orphan becomes one, which may free its own callees.
        let mut changed = true;
        while changed {
            changed = false;
            for (i, d) in symbols.fns.iter().enumerate() {
                if !orphan[i] && candidate(i, d) && callers[i].iter().all(|&c| orphan[c]) {
                    orphan[i] = true;
                    changed = true;
                }
            }
        }
        (0..orphan.len()).filter(|&i| orphan[i]).collect()
    }

    /// Function indices with a resolved edge to any of `targets`.
    pub fn callers_of(&self, targets: &[usize]) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, es)| es.iter().any(|e| targets.contains(&e.callee)))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Every workspace fn that code outside the scanned crates calls: the
/// non-test call sites of `files` (exempt crates, the facade), resolved
/// like in-graph calls but with no caller preference. An ambiguous call
/// counts for every candidate, so a name collision can hide an orphan
/// but never invent one.
pub fn calls_from(
    files: &[FileTokens],
    symbols: &SymbolTable,
    policy: &CallGraphPolicy,
) -> BTreeSet<usize> {
    let mut called = BTreeSet::new();
    for ft in files {
        for call in extract_calls(ft, 0, ft.tokens.len()) {
            match resolve(&call, None, symbols, policy) {
                Resolution::Edges(t) | Resolution::Ambiguous(t) => called.extend(t),
                Resolution::External => {}
            }
        }
    }
    called
}

/// One extracted call site, before resolution.
#[derive(Clone, Debug)]
struct CallSite {
    name: String,
    /// `Some("self")` for `self.m()`, `Some("Q")` for `Q::m()`.
    qualifier: Option<String>,
    /// Receiver counted: `x.m(a)` has arity 2.
    arity: usize,
    line: usize,
}

/// Rust keywords that can directly precede `(` in expression position.
const CALLISH_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "return", "for", "in", "loop", "move", "break", "continue", "as",
    "await",
];

/// The call sites in tokens `start..end`, skipping `#[cfg(test)] mod`
/// spans.
fn extract_calls(ft: &FileTokens, start: usize, end: usize) -> Vec<CallSite> {
    let tokens = &ft.tokens;
    let mut calls = Vec::new();
    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || CALLISH_KEYWORDS.iter().any(|k| t.is_ident(k))
            || ft.in_test_span(i)
        {
            i += 1;
            continue;
        }
        // The argument list opens either directly (`name(`) or after a
        // turbofish (`name::<T>(`).
        let open = if tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            Some(i + 1)
        } else if tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("<"))
        {
            skip_angles_fwd(tokens, i + 2)
                .filter(|&j| tokens.get(j).is_some_and(|n| n.is_punct("(")))
        } else {
            None
        };
        let Some(open) = open else {
            i += 1;
            continue;
        };
        // Definitions (`fn name(`) are not calls; macro names never reach
        // here (`name!` has no direct `(`), but macro *arguments* are
        // still walked for calls within.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some((args, _)) = count_params(tokens, open, false) else {
            i += 1;
            continue;
        };
        let is_method = i > 0 && tokens[i - 1].is_punct(".");
        let qualifier = if is_method {
            // `self.m(...)` — but not `x.self...`; `self` is a keyword.
            (i >= 2 && tokens[i - 2].is_ident("self") && !(i >= 3 && tokens[i - 3].is_punct(".")))
                .then(|| "self".to_string())
        } else if i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].kind == TokenKind::Ident {
            Some(tokens[i - 2].text.clone())
        } else {
            None
        };
        calls.push(CallSite {
            name: t.text.clone(),
            qualifier,
            arity: args + usize::from(is_method),
            line: t.line,
        });
        i += 1;
    }
    calls
}

fn skip_angles_fwd(tokens: &[crate::lexer::Token], mut j: usize) -> Option<usize> {
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("<") {
            depth += 1;
        } else if tokens[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if tokens[j].is_punct(";") || tokens[j].is_punct("{") {
            return None;
        }
        j += 1;
    }
    None
}

enum Resolution {
    Edges(Vec<usize>),
    External,
    Ambiguous(Vec<usize>),
}

/// Resolves one call site. `caller` is the calling fn's definition, or
/// `None` for a call from outside the scanned crates, which gets no
/// owner/module/crate preference.
fn resolve(
    call: &CallSite,
    caller: Option<&FnDef>,
    symbols: &SymbolTable,
    policy: &CallGraphPolicy,
) -> Resolution {
    let Some(all) = symbols.by_name.get(&call.name) else {
        return Resolution::External;
    };
    let mut c: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| !symbols.fns[i].is_test && symbols.fns[i].arity == call.arity)
        .collect();
    if c.is_empty() {
        return Resolution::External;
    }
    // Receiver/qualifier refinement. `Self::m(...)` is the caller's own
    // impl type, same as a `self.m(...)` receiver.
    match call.qualifier.as_deref() {
        Some("self") | Some("Self") => {
            if let Some(owner) = caller.and_then(|c| c.owner.as_ref()) {
                let owned: Vec<usize> = c
                    .iter()
                    .copied()
                    .filter(|&i| symbols.fns[i].owner.as_ref() == Some(owner))
                    .collect();
                if !owned.is_empty() {
                    c = owned;
                }
            }
        }
        Some(q) => {
            let crate_of = q.strip_prefix("cshard_").unwrap_or(q);
            let qualified: Vec<usize> = c
                .iter()
                .copied()
                .filter(|&i| {
                    let d = &symbols.fns[i];
                    d.owner.as_deref() == Some(q)
                        || d.module == q
                        || d.module.ends_with(&format!("::{q}"))
                        || d.krate == crate_of
                })
                .collect();
            if qualified.is_empty() {
                // An explicit qualifier naming no workspace owner, module
                // or crate is a std/vendored path (`Vec::new`,
                // `BTreeMap::new`) that happens to share a method name
                // with workspace types.
                return Resolution::External;
            }
            c = qualified;
        }
        None => {}
    }
    let bodied = |v: &[usize]| -> Vec<usize> {
        v.iter()
            .copied()
            .filter(|&i| symbols.fns[i].body.is_some())
            .collect()
    };
    if c.len() == 1 {
        let b = bodied(&c);
        // A lone trait declaration fans out to that trait's impls.
        if b.is_empty() {
            if let Some(tn) = &symbols.fns[c[0]].trait_name {
                let impls = symbols.trait_impls(tn, &call.name);
                if !impls.is_empty() {
                    return Resolution::Edges(impls);
                }
            }
            return Resolution::External;
        }
        return Resolution::Edges(b);
    }
    // Prefer the caller's own module, then crate.
    if let Some(caller) = caller {
        let same_module: Vec<usize> = c
            .iter()
            .copied()
            .filter(|&i| {
                symbols.fns[i].krate == caller.krate && symbols.fns[i].module == caller.module
            })
            .collect();
        if same_module.len() == 1 && symbols.fns[same_module[0]].body.is_some() {
            return Resolution::Edges(same_module);
        }
        let same_crate: Vec<usize> = c
            .iter()
            .copied()
            .filter(|&i| symbols.fns[i].krate == caller.krate)
            .collect();
        if same_crate.len() == 1 && symbols.fns[same_crate[0]].body.is_some() {
            return Resolution::Edges(same_crate);
        }
    }
    // Trait fan-out: every candidate belongs to one trait method.
    let traits: Vec<&str> = c
        .iter()
        .filter_map(|&i| symbols.fns[i].trait_name.as_deref())
        .collect();
    if traits.len() == c.len() {
        let first = traits[0];
        if traits.iter().all(|&t| t == first) {
            let impls = bodied(&c);
            if !impls.is_empty() {
                return Resolution::Edges(impls);
            }
            return Resolution::External;
        }
    }
    // Policy override, or give up as ambiguous.
    match policy.resolve_for(&call.name, call.arity) {
        Some(ResolveTarget::External) => Resolution::External,
        Some(ResolveTarget::All) => {
            let b = bodied(&c);
            if b.is_empty() {
                Resolution::External
            } else {
                Resolution::Edges(b)
            }
        }
        Some(ResolveTarget::To(suffix)) => {
            let picked: Vec<usize> = c
                .iter()
                .copied()
                .filter(|&i| symbols.fns[i].id().ends_with(suffix.as_str()))
                .filter(|&i| symbols.fns[i].body.is_some())
                .collect();
            if picked.is_empty() {
                Resolution::Ambiguous(c)
            } else {
                Resolution::Edges(picked)
            }
        }
        None => Resolution::Ambiguous(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CallGraphPolicy;

    fn build(srcs: &[(&str, &str, &str)]) -> (Vec<FileTokens>, SymbolTable, CallGraph) {
        let files: Vec<FileTokens> = srcs
            .iter()
            .map(|(k, rel, src)| FileTokens::new(k, rel, src))
            .collect();
        let symbols = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols, &CallGraphPolicy::default());
        (files, symbols, graph)
    }

    fn edge_between(symbols: &SymbolTable, graph: &CallGraph, from: &str, to: &str) -> bool {
        let f = symbols.fns.iter().position(|d| d.name == from).unwrap();
        graph.edges[f]
            .iter()
            .any(|e| symbols.fns[e.callee].name == to)
    }

    #[test]
    fn free_call_resolves_across_files() {
        let (_, s, g) = build(&[
            (
                "core",
                "crates/core/src/a.rs",
                "pub fn entry() { helper(1); }",
            ),
            (
                "core",
                "crates/core/src/b.rs",
                "pub fn helper(x: u32) -> u32 { x }",
            ),
        ]);
        assert!(edge_between(&s, &g, "entry", "helper"));
        assert_eq!(g.stats.calls_resolved, 1);
        assert_eq!(g.stats.calls_ambiguous, 0);
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let src = "
            struct A; struct B;
            impl A { fn go(&self) { self.helper(); } fn helper(&self) {} }
            impl B { fn helper(&self) {} }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let go = s.fns.iter().position(|d| d.name == "go").unwrap();
        assert_eq!(g.edges[go].len(), 1);
        let callee = &s.fns[g.edges[go][0].callee];
        assert_eq!(callee.owner.as_deref(), Some("A"));
    }

    #[test]
    fn trait_method_fans_out_to_every_impl() {
        let src = "
            trait Stage { fn run(&mut self, x: u32) -> u32; }
            struct S1; struct S2;
            impl Stage for S1 { fn run(&mut self, x: u32) -> u32 { x } }
            impl Stage for S2 { fn run(&mut self, x: u32) -> u32 { x + 1 } }
            fn driver(s: &mut dyn Stage) { s.run(7); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let driver = s.fns.iter().position(|d| d.name == "driver").unwrap();
        assert_eq!(g.edges[driver].len(), 2, "{:?}", g.edges[driver]);
        assert_eq!(g.stats.calls_resolved, 1);
    }

    #[test]
    fn unrelated_same_name_same_arity_is_ambiguous() {
        let src = "
            mod x { pub fn go(a: u32) {} }
            mod y { pub fn go(a: u32) {} }
            fn entry() { go(1); }
        ";
        let (_, _, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert_eq!(g.stats.calls_ambiguous, 1, "{:?}", g.ambiguous);
        assert_eq!(g.ambiguous[0].name, "go");
        assert_eq!(g.ambiguous[0].candidates.len(), 2);
    }

    #[test]
    fn policy_override_settles_ambiguity() {
        let src = "
            mod x { pub fn go(a: u32) {} }
            mod y { pub fn go(a: u32) {} }
            fn entry() { go(1); }
        ";
        let files = vec![FileTokens::new("core", "crates/core/src/a.rs", src)];
        let symbols = SymbolTable::build(&files);
        let mut policy = CallGraphPolicy::default();
        policy
            .resolve
            .insert(("go".into(), 1), ResolveTarget::To("x::go".into()));
        let g = CallGraph::build(&files, &symbols, &policy);
        assert_eq!(g.stats.calls_ambiguous, 0);
        assert_eq!(g.stats.calls_resolved, 1);
        let entry = symbols.fns.iter().position(|d| d.name == "entry").unwrap();
        assert_eq!(g.edges[entry].len(), 1);
        assert!(symbols.fns[g.edges[entry][0].callee]
            .id()
            .ends_with("x::go"));
    }

    #[test]
    fn std_calls_are_external_not_ambiguous() {
        let src = "fn entry(v: Vec<u32>) -> usize { v.len() }";
        let (_, _, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert_eq!(g.stats.calls_external, 1);
        assert_eq!(g.stats.calls_ambiguous, 0);
    }

    #[test]
    fn qualified_call_filters_by_owner() {
        let src = "
            struct A; struct B;
            impl A { fn new(x: u32) -> A { A } }
            impl B { fn new(x: u32) -> B { B } }
            fn entry() { let a = A::new(1); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let entry = s.fns.iter().position(|d| d.name == "entry").unwrap();
        assert_eq!(g.edges[entry].len(), 1);
        assert_eq!(s.fns[g.edges[entry][0].callee].owner.as_deref(), Some("A"));
    }

    #[test]
    fn macro_names_are_not_calls_but_their_args_are_walked() {
        let src = "
            fn helper(x: u32) -> u32 { x }
            fn entry() { println!(\"{}\", helper(1)); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert!(edge_between(&s, &g, "entry", "helper"));
    }

    #[test]
    fn resolution_permille_is_deterministic() {
        let stats = GraphStats {
            calls_resolved: 7,
            calls_ambiguous: 1,
            ..GraphStats::default()
        };
        assert_eq!(stats.resolution_permille(), 875);
        assert_eq!(GraphStats::default().resolution_permille(), 1000);
    }

    #[test]
    fn orphans_peel_through_callers_that_are_orphans_themselves() {
        let src = "
            pub fn entry() { used(); }
            pub fn used() {}
            fn private_entry() { kept(); }
            pub fn kept() {}
            pub fn recursive() { recursive(); }
            pub(crate) fn restricted() {}
            pub fn lonely() {}
            trait Tr { fn m(&self); }
            struct S;
            impl Tr for S { fn m(&self) {} }
            impl S { pub fn method(&self) {} }
            #[cfg(test)]
            mod tests { fn t() { super::lonely(); } }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/lib.rs", src)]);
        let names: Vec<&str> = g
            .orphans(&s, &BTreeSet::new())
            .into_iter()
            .map(|i| s.fns[i].name.as_str())
            .collect();
        // `used` is only called by the orphan `entry`; `lonely` only from
        // test code; `recursive` only by itself. `kept` has a live
        // (private) caller; private, restricted and trait-impl fns are
        // never listed.
        assert_eq!(names, ["entry", "used", "recursive", "lonely", "method"]);
    }

    #[test]
    fn generic_parameter_types_count_once_in_the_arity() {
        let src = "
            pub fn route(pins: &BTreeMap<Address, ShardId>, txs: &[u8]) -> u32 { 0 }
            pub fn entry(a: u32, b: u32) -> u32 { route(&pins, &txs) + (a < b) as u32 }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/lib.rs", src)]);
        let route = s.fns.iter().find(|d| d.name == "route").unwrap();
        assert_eq!(route.arity, 2);
        assert!(edge_between(&s, &g, "entry", "route"));
    }
}
