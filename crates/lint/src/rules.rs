//! The single-file rules: D1 hash-iter, D2 wall-clock, R1
//! thread-capture, and the N1 order-fence check, evaluated over one
//! tokenized + parsed file. (H2 `hot-path-reach` needs the whole
//! workspace and lives in [`crate::callgraph`].)
//!
//! The analysis is type-free by design (no rustc, no syn — the build
//! environment is offline), so D1 uses a local declaration heuristic:
//! an identifier counts as *hash-typed* when the file declares it with a
//! `HashMap`/`HashSet` type ascription (`x: HashMap<..>`, struct fields,
//! fn params) or initialises it from one (`let x = HashMap::new()`,
//! including `std::collections::` paths). Iterating such an identifier
//! (`for .. in &x`, `x.iter()`, `.keys()`, `.values()`, `.drain()`, ...)
//! fires D1 unless the result demonstrably feeds a sort: either within
//! the same statement, or a sort on the `let` binding the statement
//! produces within the next few statements (boundaries come from the
//! token stream, not line distance). Identifiers that acquire hash
//! types across files or through closures are out of reach — the rule
//! is a tripwire for the overwhelmingly common local patterns, not a
//! proof; DESIGN.md §10 spells out the limits.

use std::collections::BTreeSet;

use crate::findings::{Finding, Rule};
use crate::parse::{self, CaptureKind, FileIndex};
use crate::tokenizer::{tokenize, Tok, TokKind, TokenizedFile};
use crate::waiver;

/// Hash-iteration methods that fire D1 when called on a hash-typed
/// identifier.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Sorting methods that legitimise a hash iteration (collect-then-sort).
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// How many statements below a collect-into-binding statement a sort on
/// that binding may appear and still count as "feeds a sort".
const SORT_SCAN_STMTS: u32 = 3;

/// One file's full single-file analysis: the semantic index (for the
/// cross-file passes and the cache) plus the findings, inline-waived
/// ones already marked.
#[derive(Debug)]
pub struct Analysis {
    /// Parsed items, calls, fences, spawns, locks, waivers.
    pub index: FileIndex,
    /// Findings from every single-file rule, sorted and deduped.
    pub findings: Vec<Finding>,
}

/// Parses and lints one source file. `path_rel` is workspace-relative
/// with forward slashes (used for findings and the D2 location
/// exemptions).
#[must_use]
pub fn analyze(path_rel: &str, src: &str) -> Analysis {
    let file = tokenize(src);
    let (mut index, mut findings) = parse::parse_file(path_rel, &file);

    let hash_sites = check_hash_iter(path_rel, &file, &mut findings);
    // Surviving (unsorted, not inline-waived) hash iterations are also
    // N1 taint seeds: an order-dependent traversal whose results reach
    // a summary sink breaks bit-identity even where D1 was accepted.
    for (line, what) in hash_sites {
        let inline_waived = index
            .waivers
            .iter()
            .any(|w| w.rule == Rule::HashIter && (w.line == line || w.line + 1 == line));
        if !inline_waived {
            index.attach_hash_order(line, what);
        }
    }
    check_wall_clock(path_rel, &file, &mut findings);
    check_spawns(path_rel, &index, &mut findings);
    check_order_fences(path_rel, &index, &mut findings);

    waiver::apply_inline(&mut findings, &index.waivers);
    crate::findings::sort_dedup(&mut findings);
    Analysis { index, findings }
}

/// Lints one source file, findings only (see [`analyze`]). Cross-file
/// rules (H2, N1 taint, B1, L3) are not evaluated — they need the
/// whole workspace; [`crate::lint_sources`] runs them.
#[must_use]
pub fn lint_source(path_rel: &str, src: &str) -> Vec<Finding> {
    analyze(path_rel, src).findings
}

/// Identifiers declared with a `HashMap`/`HashSet` type in this file.
fn hash_typed_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk left over a `std::collections::`-style path prefix.
        let mut j = i;
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // `name: HashMap<..>` (let, fn param, struct field) — possibly
        // through `&`/`mut`.
        let mut k = j - 1;
        while k > 0 && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
            k -= 1;
        }
        if toks[k].is_punct(':')
            && k >= 1
            && toks[k - 1].kind == TokKind::Ident
            && !(k >= 2 && toks[k - 2].is_punct(':'))
        {
            out.insert(toks[k - 1].text.to_string());
            continue;
        }
        // `name = HashMap::new()` / `= std::collections::HashSet::new()`.
        if toks[k].is_punct('=') && k >= 1 && toks[k - 1].kind == TokKind::Ident {
            out.insert(toks[k - 1].text.to_string());
        }
    }
    out
}

/// Finds the end of the statement containing the token at `si`: the
/// first `;`, `{`, or `}` at the site's own bracket depth (a `)` or `]`
/// that closes a group the site is nested in also ends the scan).
fn statement_end(toks: &[Tok], si: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(si) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return j;
        }
    }
    toks.len()
}

/// Walks backwards from `si` to the start of its statement; returns the
/// identifier bound by a `let [mut] name` heading it, if any.
fn statement_binding<'a>(toks: &[Tok<'a>], si: usize) -> Option<&'a str> {
    let mut depth = 0i32;
    let mut j = si;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                return None;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return None;
        } else if depth == 0 && t.is_ident("let") {
            let mut k = j + 1;
            if k < toks.len() && toks[k].is_ident("mut") {
                k += 1;
            }
            return (k < toks.len() && toks[k].kind == TokKind::Ident).then(|| toks[k].text);
        }
    }
    None
}

/// "Feeds a sort" escape for a method-call D1 site at token `si`: true
/// when a `.sort*(` appears inside the same statement, or the statement
/// binds `let x = ...` and `x.sort*(` follows within the next
/// [`SORT_SCAN_STMTS`] statements of the same block.
fn feeds_a_sort(toks: &[Tok], si: usize) -> bool {
    let end = statement_end(toks, si);
    let is_sort_at = |j: usize| {
        j + 2 < toks.len()
            && toks[j].is_punct('.')
            && toks[j + 1].kind == TokKind::Ident
            && SORT_METHODS.contains(&toks[j + 1].text)
            && toks[j + 2].is_punct('(')
    };
    if (si..end).any(is_sort_at) {
        return true;
    }
    let Some(binding) = statement_binding(toks, si) else {
        return false;
    };
    // Scan the following statements of the same block for
    // `binding.sort*(`; a `}` at depth 0 ends the block and the search.
    let mut depth = 0i32;
    let mut stmts = 0u32;
    let mut j = end + 1;
    while j < toks.len() && stmts < SORT_SCAN_STMTS {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            stmts += 1;
        } else if depth == 0 && t.is_ident(binding) && is_sort_at(j + 1) {
            return true;
        }
        j += 1;
    }
    false
}

/// D1: iteration over hash-typed identifiers. Returns the surviving
/// sites as `(line, label)` so [`analyze`] can register them as N1
/// hash-order taint seeds.
fn check_hash_iter(
    path: &str,
    file: &TokenizedFile,
    findings: &mut Vec<Finding>,
) -> Vec<(u32, String)> {
    let hashed = hash_typed_idents(&file.toks);
    if hashed.is_empty() {
        return Vec::new();
    }
    let toks = &file.toks;
    // (line, message, escapable site token index). `for`-loop sites get
    // no escape: a bare loop cannot feed its elements into a sort.
    let mut sites: Vec<(u32, String, Option<usize>)> = Vec::new();

    // Method-call sites: `x.iter()`, `x.keys()`, ...
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].kind == TokKind::Ident
            && hashed.contains(toks[i].text)
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 2].text)
            && toks[i + 3].is_punct('(')
        {
            sites.push((
                toks[i + 2].line,
                format!(
                    "`{}.{}()` iterates a hash collection",
                    toks[i].text,
                    toks[i + 2].text
                ),
                Some(i + 2),
            ));
        }
    }

    // `for pat in <expr> {`: flag when the iterable expression mentions a
    // hash-typed identifier (e.g. `for (k, v) in &self.lines`).
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find `in` at bracket depth 0 (the pattern may contain tuples).
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match () {
                () if toks[j].is_punct('(') || toks[j].is_punct('[') => depth += 1,
                () if toks[j].is_punct(')') || toks[j].is_punct(']') => depth -= 1,
                () if depth == 0 && toks[j].is_ident("in") => break,
                () if depth == 0 && (toks[j].is_punct('{') || toks[j].is_punct(';')) => {
                    // `impl Trait for Type {` and friends: not a loop.
                    j = toks.len();
                }
                () => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            i += 1;
            continue;
        }
        // Iterable expression: tokens until the body `{` at depth 0.
        let mut k = j + 1;
        depth = 0;
        while k < toks.len() {
            if toks[k].is_punct('(') || toks[k].is_punct('[') {
                depth += 1;
            } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                depth -= 1;
            } else if depth == 0 && toks[k].is_punct('{') {
                break;
            }
            k += 1;
        }
        if let Some(t) = toks[j + 1..k]
            .iter()
            .find(|t| t.kind == TokKind::Ident && hashed.contains(t.text))
        {
            sites.push((
                toks[i].line,
                format!("`for` loop iterates hash collection `{}`", t.text),
                None,
            ));
        }
        i = j + 1;
    }

    // A site can match both the `for`-loop and method-call patterns;
    // keep one finding per line (stable sort keeps the escapable
    // method-site variant first).
    sites.sort_by_key(|(line, _, _)| *line);
    sites.dedup_by_key(|(line, _, _)| *line);

    let mut surviving = Vec::new();
    for (line, msg, site) in sites {
        if site.is_some_and(|si| feeds_a_sort(toks, si)) {
            continue;
        }
        findings.push(Finding::new(
            Rule::HashIter,
            path,
            line,
            format!("{msg}; iterate a BTree collection or index order instead, or waive with `// lint:allow(hash-iter) <reason>`"),
        ));
        surviving.push((line, msg));
    }
    surviving
}

/// D2: wall-clock reads outside the sanctioned timing sites.
fn check_wall_clock(path: &str, file: &TokenizedFile, findings: &mut Vec<Finding>) {
    // The batch executor times scenarios, `ehp-bench` is a benchmark
    // harness, and the serving layer (`ehp-serve` + its harness glue)
    // measures request latency and worker timeouts; everything else
    // must be simulated-time only.
    if path.starts_with("crates/bench/")
        || path.starts_with("crates/serve/")
        || path == "crates/harness/src/executor.rs"
        || path == "crates/harness/src/serving.rs"
    {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if toks[i].is_ident("SystemTime") {
            findings.push(Finding::new(
                Rule::WallClock,
                path,
                toks[i].line,
                "`SystemTime` outside bench/executor breaks replayability; use `SimTime`",
            ));
        }
        if toks[i].is_ident("Instant")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
        {
            findings.push(Finding::new(
                Rule::WallClock,
                path,
                toks[i].line,
                "`Instant::now()` outside bench/executor breaks replayability; use `SimTime`",
            ));
        }
    }
}

/// R1: spawn closures capturing shared mutable state. Mutex/atomic/
/// channel sharing and `move`-per-worker partitions never match the
/// capture patterns, so they pass.
fn check_spawns(path: &str, index: &FileIndex, findings: &mut Vec<Finding>) {
    for sp in &index.spawns {
        if sp.in_test {
            continue;
        }
        for c in &sp.captures {
            let msg = match &c.kind {
                CaptureKind::MutBorrow => format!(
                    "spawn closure takes `&mut {}` captured from the enclosing scope; share via Mutex/atomics/channels or hand each worker an owned partition (`chunks_mut` + `move`)",
                    c.ident
                ),
                CaptureKind::CellLike(ty) => format!(
                    "spawn closure captures `{}` (declared as `{ty}`), which is not thread-safe; use Mutex/atomic state instead",
                    c.ident
                ),
            };
            findings.push(Finding::new(Rule::ThreadCapture, path, c.line, msg));
        }
    }
}

/// N1 fence verification: a `lint:order-invisible` fence must cover a
/// nondeterminism source (on its line or the next) inside a fn that
/// demonstrably folds results in fixed order. A fence covering nothing
/// is stale; a fence on a fn with no fold evidence is rejected — the
/// order-invisibility claim is unverifiable.
fn check_order_fences(path: &str, index: &FileIndex, findings: &mut Vec<Finding>) {
    for of in &index.order_fences {
        let covered = index.fns.iter().find(|f| {
            f.nondet
                .iter()
                .any(|n| n.line == of.line || n.line == of.line + 1)
        });
        match covered {
            None => findings.push(Finding::new(
                Rule::Waiver,
                path,
                of.line,
                "`lint:order-invisible` fence covers no nondeterminism source on its own or the next line — stale; delete it",
            )),
            Some(f) if !FileIndex::fn_folds_in_order(f) => findings.push(Finding::new(
                Rule::NondetTaint,
                path,
                of.line,
                format!(
                    "`lint:order-invisible` fence rejected: `{}` shows no fixed-order fold (no `for` loop or `.fold()` call), so the order-invisibility claim is unverifiable; restructure the merge or waive with `// lint:allow(nondet-taint) <reason>`",
                    f.name
                ),
            )),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<(Rule, u32, bool)> {
        lint_source("crates/x/src/a.rs", src)
            .into_iter()
            .map(|f| (f.rule, f.line, f.waived.is_some()))
            .collect()
    }

    #[test]
    fn hash_iter_fires_on_for_and_methods() {
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    for (_k, v) in m.iter() {
        s += v;
    }
    s += m.values().sum::<f64>();
    s
}
";
        let got = rules_of(src);
        assert_eq!(
            got,
            vec![(Rule::HashIter, 4, false), (Rule::HashIter, 7, false)]
        );
    }

    #[test]
    fn hash_iter_registration_covers_let_field_and_full_paths() {
        for src in [
            "struct S { lines: HashMap<u64, u64> }\nimpl S { fn g(&self) { for x in &self.lines {} } }",
            "fn f() { let mut set = std::collections::HashSet::new(); set.insert(1); for x in set.iter() {} }",
            "fn f(m: &mut HashMap<u32, u32>) { m.drain(); }",
        ] {
            assert!(
                rules_of(src).iter().any(|(r, _, _)| *r == Rule::HashIter),
                "should fire: {src}"
            );
        }
    }

    #[test]
    fn hash_lookup_and_insert_do_not_fire() {
        let src = "\
use std::collections::HashMap;
fn f(m: &mut HashMap<u32, u32>) -> Option<u32> {
    m.insert(1, 2);
    m.get(&1).copied()
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn feeding_a_sort_is_exempt() {
        let src = "\
use std::collections::HashMap;
fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut ks: Vec<u32> = m.keys().copied().collect();
    ks.sort_unstable();
    ks
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn sort_escape_spans_multiline_chains() {
        // The collect chain spans 5 lines; the old 3-line window missed
        // the sort and fired spuriously. Statement-based matching sees
        // the binding feed the sort.
        let src = "\
use std::collections::HashMap;
fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut ks: Vec<u32> = m
        .keys()
        .copied()
        .filter(|k| *k % 2 == 0)
        .collect();
    ks.sort_unstable();
    ks
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn unrelated_sort_nearby_is_no_longer_an_escape() {
        // The old line-window heuristic let ANY sort within 3 lines
        // legitimise the iteration — even one on an unrelated vector.
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>, other: &mut Vec<u32>) -> u64 {
    let mut total = 0u64;
    for (_k, v) in m.iter() {
        total += u64::from(*v);
    }
    other.sort_unstable();
    total
}
";
        assert_eq!(rules_of(src), vec![(Rule::HashIter, 4, false)]);
    }

    #[test]
    fn sort_on_a_different_binding_is_not_an_escape() {
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
    let ks: Vec<u32> = m.keys().copied().collect();
    let mut other = vec![3, 1, 2];
    other.sort_unstable();
    ks
}
";
        assert_eq!(rules_of(src), vec![(Rule::HashIter, 3, false)]);
    }

    #[test]
    fn inline_waiver_marks_not_drops() {
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    // lint:allow(hash-iter) pure count, order-independent
    m.iter().count()
}
";
        assert_eq!(rules_of(src), vec![(Rule::HashIter, 4, true)]);
    }

    #[test]
    fn wall_clock_fires_except_in_sanctioned_files() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(src), vec![(Rule::WallClock, 1, false)]);
        assert!(lint_source("crates/bench/src/microbench.rs", src).is_empty());
        assert!(lint_source("crates/harness/src/executor.rs", src).is_empty());
        // Two mentions on one line dedupe to a single finding.
        assert_eq!(
            rules_of("fn f() -> std::time::SystemTime { std::time::SystemTime::now() }").len(),
            1
        );
        assert_eq!(
            rules_of("fn f() {\n let t = SystemTime::now();\n let u = Instant::now();\n}").len(),
            2
        );
    }

    #[test]
    fn fence_bookkeeping_errors_fire() {
        assert_eq!(
            rules_of("// lint:hot-path\nfn f() {}\n"),
            vec![(Rule::Fence, 1, false)]
        );
        assert_eq!(
            rules_of("// lint:hot-path-end\nfn f() {}\n"),
            vec![(Rule::Fence, 1, false)]
        );
        assert_eq!(
            rules_of("// lint:hot-path\n// lint:hot-path\nfn f() {}\n// lint:hot-path-end\n"),
            vec![(Rule::Fence, 2, false)]
        );
    }

    #[test]
    fn thread_capture_fires_on_shared_mut_not_partitions() {
        let bad = "\
fn racy() {
    let mut total = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| { *(&mut total) += 1; });
    });
}
";
        assert_eq!(rules_of(bad), vec![(Rule::ThreadCapture, 4, false)]);

        let ok = "\
fn partitioned(data: &mut [u64]) {
    std::thread::scope(|s| {
        for block in data.chunks_mut(8) {
            s.spawn(move || {
                for v in block.iter_mut() { *v += 1; }
            });
        }
    });
}
";
        assert!(rules_of(ok).is_empty());
    }

    #[test]
    fn order_invisible_fence_verification() {
        let honored = "\
fn capped(parts: &[u64]) -> u64 {
    // lint:order-invisible jobs only caps the worker count
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut acc = jobs as u64;
    for p in parts { acc += *p; }
    acc
}
";
        assert!(rules_of(honored).is_empty());

        let rejected = "\
fn racy(parts: &[u64]) -> u64 {
    // lint:order-invisible claims invisibility but shows no fold
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    jobs as u64
}
";
        assert_eq!(rules_of(rejected), vec![(Rule::NondetTaint, 2, false)]);

        let stale = "\
fn plain() -> u64 {
    // lint:order-invisible nothing nondeterministic below
    7
}
";
        assert_eq!(rules_of(stale), vec![(Rule::Waiver, 2, false)]);
    }

    #[test]
    fn surviving_hash_iteration_seeds_nondet_taint() {
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u64 {
    let mut total = 0u64;
    for (_k, v) in m.iter() { total += u64::from(*v); }
    total
}
";
        let a = analyze("crates/x/src/a.rs", src);
        assert_eq!(a.index.fns[0].nondet.len(), 1);
        assert_eq!(a.index.fns[0].nondet[0].kind, parse::NondetKind::HashOrder);

        let waived = "\
use std::collections::HashMap;
fn g(m: &HashMap<u32, u32>) -> usize {
    // lint:allow(hash-iter) pure count, order-independent
    m.iter().count()
}
";
        let a = analyze("crates/x/src/a.rs", waived);
        assert!(a.index.fns[0].nondet.is_empty());
    }

    #[test]
    fn words_inside_strings_never_fire() {
        let src = r##"
fn f() -> &'static str {
    "for x in HashMap Instant::now as f32 format! Vec::new"
}
"##;
        assert!(rules_of(src).is_empty());
    }
}
