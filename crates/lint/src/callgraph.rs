//! Workspace call graph and the H2 `hot-path-reach` pass.
//!
//! The symbol table maps function names (and `(owner, name)` pairs for
//! methods) to their defining `FnItem`s across
//! every indexed file. An allocation written inside a `lint:hot-path`
//! fence is a zero-hop finding whose chain is the allocation site
//! alone. For each call site inside a fence, a breadth-first walk
//! follows resolvable calls until it reaches a function that allocates;
//! the shortest such chain becomes the finding's evidence
//! (`via path:line \`name\`` hops in the report).
//!
//! Resolution is deliberately conservative about *qualified* names:
//! `Vec::new(..)` only resolves to a workspace `impl Vec` (there is
//! none), never to every `new` in the tree, and `recv.route(..)` with a
//! declaration-typed receiver (`ws: &mut SolverWorkspace`) only resolves
//! within that type — so `SolverWorkspace::route` is not confused with
//! the allocating `Topology::route`. Unresolvable calls (std, closures,
//! trait objects) are skipped; an allocation they hide is only caught
//! when it is written inside the fence itself.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::findings::{Finding, Rule};
use crate::parse::{in_fence, FileIndex, NondetSite};

/// BFS depth cap: chains longer than this are beyond what a reviewer
/// can audit and almost certainly heuristic noise.
const MAX_CHAIN: usize = 8;

/// Sink-root fn names for N1: summary emission and accumulator merge
/// points. Anything these reach must be deterministic — they produce
/// the bytes the bit-identity contract is about.
const SINK_ROOTS: &[&str] = &["to_json", "merge", "snapshot"];

/// Method names ubiquitous on std types (`Option::expect`,
/// `Vec::push`, iterator adapters, ...). A method call with an
/// *unknown* receiver type never fans out to a same-named workspace
/// method for these — otherwise every `.expect("...")` in a fenced
/// region would resolve to e.g. a workspace `ParamKind::expect` and
/// fabricate an allocation chain. Typed receivers (`self`, declaration
/// heuristic, `Type::` qualification) still resolve these names
/// precisely.
const COMMON_STD_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "begin",
    "binary_search",
    "borrow",
    "borrow_mut",
    "chain",
    "chunks",
    "chunks_mut",
    "clear",
    "cmp",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "drain",
    "end",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_or",
    "max",
    "min",
    "next",
    "ok",
    "ok_or",
    "or_else",
    "or_insert_with",
    "parse",
    "pop",
    "position",
    "push",
    "remove",
    "resize",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_at_mut",
    "starts_with",
    "sum",
    "swap",
    "take",
    "trim",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "zip",
];

/// A function key: (file index, fn index).
pub(crate) type FnKey = (usize, usize);

/// Workspace symbol table: conservative, deterministic resolution of
/// call sites to candidate definitions. Shared with the abstract
/// interpreter's summary propagation (`absint`).
pub(crate) struct Symbols<'a> {
    files: &'a [(String, FileIndex)],
    /// name → definitions (test items excluded).
    by_name: BTreeMap<&'a str, Vec<FnKey>>,
    /// (owner, name) → definitions.
    by_owner: BTreeMap<(&'a str, &'a str), Vec<FnKey>>,
}

impl<'a> Symbols<'a> {
    pub(crate) fn build(files: &'a [(String, FileIndex)]) -> Symbols<'a> {
        let mut by_name: BTreeMap<&str, Vec<FnKey>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<FnKey>> = BTreeMap::new();
        for (fi, (_, index)) in files.iter().enumerate() {
            for (gi, f) in index.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(&f.name).or_default().push((fi, gi));
                if let Some(owner) = &f.owner {
                    by_owner
                        .entry((owner.as_str(), f.name.as_str()))
                        .or_default()
                        .push((fi, gi));
                }
            }
        }
        Symbols {
            files,
            by_name,
            by_owner,
        }
    }

    /// Resolves one call site made from `caller` (used for `Self::` and
    /// `self.` receivers) in file `file_idx`. Deterministic order.
    pub(crate) fn resolve(
        &self,
        call: &crate::parse::CallSite,
        file_idx: usize,
        caller: FnKey,
    ) -> Vec<FnKey> {
        let caller_owner = self.files[caller.0].1.fns[caller.1].owner.as_deref();
        let owned = |owner: Option<&str>, name: &str| -> Vec<FnKey> {
            owner
                .and_then(|o| self.by_owner.get(&(o, name)))
                .cloned()
                .unwrap_or_default()
        };
        if let Some(q) = call.qual.as_deref() {
            // Qualified calls resolve only within the named type —
            // `Vec::new` must not match every workspace `new`.
            let owner = if q == "Self" { caller_owner } else { Some(q) };
            return owned(owner, &call.callee);
        }
        if call.method {
            if let Some(r) = call.recv.as_deref() {
                if r == "self" {
                    return owned(caller_owner, &call.callee);
                }
                // Declaration-typed receiver: resolve within that type
                // only (even when empty — a `HashMap` receiver must not
                // fan out to every same-named workspace method).
                if let Some(ty) = self.files[file_idx].1.typed.get(r) {
                    if ty != "?" {
                        return owned(Some(ty), &call.callee);
                    }
                }
            }
            // Unknown receiver: every non-test method with this name —
            // unless the name is a common std method, where name-only
            // fan-out would misattribute std calls to workspace code.
            if COMMON_STD_METHODS.contains(&call.callee.as_str()) {
                return Vec::new();
            }
            return self
                .by_name
                .get(call.callee.as_str())
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&(fi, gi)| self.files[fi].1.fns[gi].has_self)
                        .collect()
                })
                .unwrap_or_default();
        }
        // Bare call: free functions with this name.
        self.by_name
            .get(call.callee.as_str())
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&(fi, gi)| !self.files[fi].1.fns[gi].has_self)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Display name for a function: `Owner::name` or `name`.
fn fn_label(index: &FileIndex, gi: usize) -> String {
    let f = &index.fns[gi];
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Runs the H2 `hot-path-reach` pass over a set of per-file indexes.
/// `files` must be sorted by path for deterministic output. Emits one
/// finding per allocation written inside a fence (zero hops, the
/// allocation site as the whole chain) and one per fenced call site
/// whose callee transitively allocates, carrying the shortest call
/// chain as evidence.
#[must_use]
pub fn check_reachable_allocs(files: &[(String, FileIndex)]) -> Vec<Finding> {
    let symbols = Symbols::build(files);
    let mut findings = Vec::new();
    for (fi, (path, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for alloc in f.allocs.iter().filter(|a| in_fence(&index.fences, a.line)) {
                findings.push(
                    Finding::new(
                        Rule::HotPathReach,
                        path,
                        alloc.line,
                        format!("{} allocates inside a `lint:hot-path` fence", alloc.what),
                    )
                    .with_chain(vec![format!("{path}:{} {}", alloc.line, alloc.what)]),
                );
            }
            for call in f.calls.iter().filter(|c| c.in_fence) {
                if let Some(finding) = trace_call(&symbols, path, fi, (fi, gi), call) {
                    findings.push(finding);
                }
            }
        }
    }
    findings
}

/// BFS from one fenced call site; returns the finding for the shortest
/// allocation chain, if any callee transitively allocates.
fn trace_call(
    symbols: &Symbols<'_>,
    path: &str,
    file_idx: usize,
    caller: FnKey,
    call: &crate::parse::CallSite,
) -> Option<Finding> {
    let mut queue: VecDeque<(FnKey, Vec<String>)> = VecDeque::new();
    let mut visited: BTreeSet<FnKey> = BTreeSet::new();
    for key @ (tfi, tgi) in symbols.resolve(call, file_idx, caller) {
        if visited.insert(key) {
            let index = &symbols.files[tfi].1;
            queue.push_back((
                key,
                vec![format!(
                    "{}:{} `{}`",
                    symbols.files[tfi].0,
                    index.fns[tgi].line,
                    fn_label(index, tgi)
                )],
            ));
        }
    }
    while let Some(((tfi, tgi), chain)) = queue.pop_front() {
        let (tpath, index) = &symbols.files[tfi];
        let f = &index.fns[tgi];
        if let Some(alloc) = f.allocs.first() {
            let mut chain = chain;
            chain.push(format!("{tpath}:{} {}", alloc.line, alloc.what));
            return Some(
                Finding::new(
                    Rule::HotPathReach,
                    path,
                    call.line,
                    format!(
                        "`{}` is called inside a `lint:hot-path` fence but reaches an allocation ({} in `{}`)",
                        call.callee,
                        alloc.what,
                        fn_label(index, tgi),
                    ),
                )
                .with_chain(chain),
            );
        }
        if chain.len() >= MAX_CHAIN {
            continue;
        }
        for next in &f.calls {
            for key @ (nfi, ngi) in symbols.resolve(next, tfi, (tfi, tgi)) {
                if visited.insert(key) {
                    let nindex = &symbols.files[nfi].1;
                    let mut c = chain.clone();
                    c.push(format!(
                        "{}:{} `{}`",
                        symbols.files[nfi].0,
                        nindex.fns[ngi].line,
                        fn_label(nindex, ngi)
                    ));
                    queue.push_back((key, c));
                }
            }
        }
    }
    None
}

/// Runs the N1 `nondet-taint` pass over a set of per-file indexes
/// (`files` sorted by path for deterministic output).
///
/// Taint seeds are the parser's `NondetSite`s (plus hash-order sites
/// injected by the hash-iter rule), minus sources covered by a
/// *verified* `lint:order-invisible` fence. Seeds propagate backward
/// over the conservative call graph (caller of tainted is tainted);
/// every non-test sink root — a fn named `to_json`/`merge`/`snapshot` —
/// that ends up tainted gets one finding carrying the shortest
/// source chain as H2-style `via` evidence.
///
/// The call graph is resolved once into an adjacency map shared by the
/// backward taint pass and every per-root forward chain search — the
/// per-rule reachability cache that keeps the pass linear in calls.
#[must_use]
pub fn check_nondet_taint(files: &[(String, FileIndex)]) -> Vec<Finding> {
    // Active (un-suppressed) sources per fn.
    let mut sources: BTreeMap<FnKey, Vec<&NondetSite>> = BTreeMap::new();
    for (fi, (_, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let active: Vec<&NondetSite> = f
                .nondet
                .iter()
                .filter(|n| !index.nondet_suppressed(gi, n.line))
                .collect();
            if !active.is_empty() {
                sources.insert((fi, gi), active);
            }
        }
    }
    if sources.is_empty() {
        return Vec::new();
    }

    let symbols = Symbols::build(files);
    // Resolve every call site once; `edges` is reused by the backward
    // worklist and every forward chain search below.
    let mut edges: BTreeMap<FnKey, Vec<FnKey>> = BTreeMap::new();
    for (fi, (_, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut out: Vec<FnKey> = f
                .calls
                .iter()
                .flat_map(|call| symbols.resolve(call, fi, (fi, gi)))
                .collect();
            out.sort_unstable();
            out.dedup();
            edges.insert((fi, gi), out);
        }
    }
    let mut rev: BTreeMap<FnKey, Vec<FnKey>> = BTreeMap::new();
    for (&k, outs) in &edges {
        for &o in outs {
            rev.entry(o).or_default().push(k);
        }
    }

    // Backward propagation: tainted = can reach a source.
    let mut tainted: BTreeSet<FnKey> = sources.keys().copied().collect();
    let mut work: VecDeque<FnKey> = tainted.iter().copied().collect();
    while let Some(k) = work.pop_front() {
        for &c in rev.get(&k).into_iter().flatten() {
            if tainted.insert(c) {
                work.push_back(c);
            }
        }
    }

    let mut findings = Vec::new();
    for (fi, (path, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test || !SINK_ROOTS.contains(&f.name.as_str()) {
                continue;
            }
            let root = (fi, gi);
            if !tainted.contains(&root) {
                continue;
            }
            if let Some((chain, site)) =
                shortest_source_chain(&symbols, &edges, &sources, &tainted, root)
            {
                findings.push(
                    Finding::new(
                        Rule::NondetTaint,
                        path,
                        f.line,
                        format!(
                            "`{}` emits summary/merged state but transitively reaches nondeterminism source {} ({}); make the value deterministic, fold in fixed order behind a `lint:order-invisible` fence, or waive with `// lint:allow(nondet-taint) <reason>`",
                            fn_label(index, gi),
                            site.what,
                            site.kind.name(),
                        ),
                    )
                    .with_chain(chain),
                );
            }
        }
    }
    findings
}

/// Forward BFS from a tainted sink root, restricted to tainted fns,
/// for the shortest chain to a fn holding an active source. Hops use
/// the H2 evidence format; the terminal entry names the source site.
fn shortest_source_chain<'a>(
    symbols: &Symbols<'_>,
    edges: &BTreeMap<FnKey, Vec<FnKey>>,
    sources: &BTreeMap<FnKey, Vec<&'a NondetSite>>,
    tainted: &BTreeSet<FnKey>,
    root: FnKey,
) -> Option<(Vec<String>, &'a NondetSite)> {
    if let Some(sites) = sources.get(&root) {
        let site = sites[0];
        let path = &symbols.files[root.0].0;
        return Some((vec![format!("{path}:{} {}", site.line, site.what)], site));
    }
    let mut queue: VecDeque<(FnKey, Vec<String>)> = VecDeque::new();
    let mut visited: BTreeSet<FnKey> = BTreeSet::new();
    visited.insert(root);
    queue.push_back((root, Vec::new()));
    while let Some((key, chain)) = queue.pop_front() {
        for &next in edges.get(&key).into_iter().flatten() {
            if !tainted.contains(&next) || !visited.insert(next) {
                continue;
            }
            let (npath, nindex) = &symbols.files[next.0];
            let mut c = chain.clone();
            c.push(format!(
                "{npath}:{} `{}`",
                nindex.fns[next.1].line,
                fn_label(nindex, next.1)
            ));
            if let Some(sites) = sources.get(&next) {
                let site = sites[0];
                c.push(format!("{npath}:{} {}", site.line, site.what));
                return Some((c, site));
            }
            if c.len() < MAX_CHAIN {
                queue.push_back((next, c));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::tokenizer::tokenize;

    fn index_all(sources: &[(&str, &str)]) -> Vec<(String, FileIndex)> {
        sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), parse_file(p, &tokenize(s)).0))
            .collect()
    }

    #[test]
    fn two_hop_chain_is_reported_with_evidence() {
        let fenced = "\
fn hot(xs: &[u64], out: &mut [u64]) {
    // lint:hot-path
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = expand(x);
    }
    // lint:hot-path-end
}
";
        let helper = "\
pub fn expand(x: u64) -> u64 {
    widen(x) + 1
}
pub fn widen(x: u64) -> u64 {
    let scratch: Vec<u64> = Vec::new();
    scratch.len() as u64 + x
}
";
        let files = index_all(&[
            ("crates/x/src/fenced.rs", fenced),
            ("crates/x/src/helper.rs", helper),
        ]);
        let findings = check_reachable_allocs(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, Rule::HotPathReach);
        assert_eq!(f.path, "crates/x/src/fenced.rs");
        assert_eq!(f.line, 4);
        assert_eq!(
            f.chain,
            vec![
                "crates/x/src/helper.rs:1 `expand`".to_string(),
                "crates/x/src/helper.rs:4 `widen`".to_string(),
                "crates/x/src/helper.rs:5 `Vec::new()`".to_string(),
            ]
        );
    }

    #[test]
    fn hot_path_fence_catches_allocations() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
fn hot(xs: &[u64], out: &mut Vec<u64>) {
    // lint:hot-path
    out.extend_from_slice(xs);
    let c = xs.to_vec();
    let s = format!(\"{}\", c.len());
    let v = Vec::new();
    // lint:hot-path-end
    drop((s, v));
    let fine = xs.to_vec();
    drop(fine);
}
",
        )]);
        let got: Vec<(Rule, u32, Vec<String>)> = check_reachable_allocs(&files)
            .into_iter()
            .map(|f| (f.rule, f.line, f.chain))
            .collect();
        let hop = |line: u32, what: &str| vec![format!("crates/x/src/a.rs:{line} {what}")];
        assert_eq!(
            got,
            vec![
                (Rule::HotPathReach, 4, hop(4, "`.to_vec()`")),
                (Rule::HotPathReach, 5, hop(5, "`format!`")),
                (Rule::HotPathReach, 6, hop(6, "`Vec::new()`")),
            ],
            "zero-hop allocations fire with the site as the whole chain; \
             line 9's .to_vec() is outside the fence"
        );
    }

    #[test]
    fn clean_helpers_do_not_fire() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
fn hot(x: u64) -> u64 {
    // lint:hot-path
    let y = double(x);
    // lint:hot-path-end
    y
}
fn double(x: u64) -> u64 { x * 2 }
",
        )]);
        assert!(check_reachable_allocs(&files).is_empty());
    }

    #[test]
    fn typed_receiver_does_not_cross_types() {
        // `ws.route(..)` must resolve to `Workspace::route` (clean), not
        // to the allocating `Topology::route`.
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
struct Workspace { routes: Vec<u32> }
impl Workspace {
    fn route(&self, i: usize) -> u32 { self.routes[i] }
}
struct Topology;
impl Topology {
    fn route(&self, i: usize) -> Vec<u32> { (0..i as u32).collect() }
}
fn hot(ws: &Workspace) -> u32 {
    // lint:hot-path
    let r = ws.route(3);
    // lint:hot-path-end
    r
}
",
        )]);
        assert!(check_reachable_allocs(&files).is_empty());
    }

    #[test]
    fn self_and_qualified_calls_resolve_within_owner() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
struct S;
impl S {
    fn hot(&self) {
        // lint:hot-path
        self.step();
        // lint:hot-path-end
    }
    fn step(&self) { S::scratch(); }
    fn scratch() { let v = Vec::new(); drop(v); }
}
",
        )]);
        let findings = check_reachable_allocs(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].chain.len(), 3);
        assert!(findings[0].chain[0].ends_with("`S::step`"));
        assert!(findings[0].chain[1].ends_with("`S::scratch`"));
    }

    #[test]
    fn nondet_taint_reports_two_hop_chain() {
        let source_file = "\
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
pub fn shard_plan(n: usize) -> usize {
    worker_count() + n
}
";
        let sink_file = "\
pub struct Summary { total: u64 }
impl Summary {
    pub fn to_json(&self) -> u64 {
        shard_plan(3) as u64 + self.total
    }
}
";
        let files = index_all(&[
            ("crates/x/src/sink.rs", sink_file),
            ("crates/x/src/source.rs", source_file),
        ]);
        let findings = check_nondet_taint(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, Rule::NondetTaint);
        assert_eq!(f.path, "crates/x/src/sink.rs");
        assert_eq!(f.line, 3);
        assert_eq!(
            f.chain,
            vec![
                "crates/x/src/source.rs:4 `shard_plan`".to_string(),
                "crates/x/src/source.rs:1 `worker_count`".to_string(),
                "crates/x/src/source.rs:2 `available_parallelism()`".to_string(),
            ]
        );
    }

    #[test]
    fn honored_order_fence_suppresses_taint() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
pub struct Tally { parts: Vec<u64> }
impl Tally {
    pub fn merge(&self) -> u64 {
        // lint:order-invisible jobs only caps the worker count
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut acc = jobs.min(4) as u64 * 0;
        for p in &self.parts { acc += *p; }
        acc
    }
}
",
        )]);
        assert!(check_nondet_taint(&files).is_empty());
    }

    #[test]
    fn unfenced_source_in_sink_root_fires_directly() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
pub struct Tally { total: u64 }
impl Tally {
    pub fn merge(&self) -> u64 {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.total + jobs as u64
    }
}
",
        )]);
        let findings = check_nondet_taint(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert_eq!(
            findings[0].chain,
            vec!["crates/x/src/a.rs:4 `available_parallelism()`".to_string()]
        );
    }

    #[test]
    fn recursion_terminates_and_test_fns_are_invisible() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
fn hot() {
    // lint:hot-path
    ping();
    // lint:hot-path-end
}
fn ping() { pong(); }
fn pong() { ping(); }
#[cfg(test)]
mod tests {
    fn ping() { let v: Vec<u8> = Vec::new(); }
}
",
        )]);
        assert!(check_reachable_allocs(&files).is_empty());
    }
}
