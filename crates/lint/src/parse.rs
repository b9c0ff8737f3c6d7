//! The per-file item parser: a lightweight semantic layer on top of the
//! tokenizer (DESIGN.md §11).
//!
//! [`parse_file`] extracts every function item (name, owning `impl`
//! type, `#[cfg(test)]`/`#[test]` context), its outgoing call sites and
//! allocation sites, the `// lint:hot-path` fence regions, `spawn`
//! closure captures, and `.lock()` sites with guard liveness —
//! everything the rules (H2 hot-path-reach, R1 thread-capture, N1
//! nondet-taint, B1 correlated-selectors, L3 lock-order) and the
//! incremental cache need, without keeping the token stream around.
//!
//! Like the rest of the linter the parser is type-free and heuristic: a
//! declaration heuristic maps identifiers to type names (`ws: &mut
//! SolverWorkspace`, `x = RefCell::new(..)`, struct fields), which the
//! call graph uses to resolve method receivers. It is a tripwire, not a
//! proof — DESIGN.md §11 spells out the limits.

use std::collections::BTreeMap;

use ehp_sim_core::json::Json;

use crate::findings::{Finding, Rule};
use crate::tokenizer::{Tok, TokKind, TokenizedFile};
use crate::waiver::{self, InlineWaiver};

/// Begin marker for H2 fences.
pub const FENCE_BEGIN: &str = "lint:hot-path";
/// End marker for H2 fences.
pub const FENCE_END: &str = "lint:hot-path-end";
/// Marker for sanctioned nondeterminism-laundering sites (N1): declares
/// that the nondeterministic value produced on the next line cannot
/// affect merged results. Verified, never trusted — the rule rejects it
/// unless the enclosing fn folds results in a fixed order.
pub const ORDER_FENCE: &str = "lint:order-invisible";

/// Allocation entry points: methods called as `.name(`...
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned", "collect"];
/// ... constructor paths `Type::new` ...
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box"];
/// ... allocating macros `name!` ...
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// ... and bare allocating calls.
const ALLOC_BARE: &[&str] = &["with_capacity"];

/// Cell-like types whose capture by a spawn closure races (R1).
const CELL_TYPES: &[&str] = &["RefCell", "Cell", "Rc"];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "move", "in", "let", "else", "Some", "None",
    "Ok", "Err",
];

/// One outgoing call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called function name (last path segment / method name).
    pub callee: String,
    /// Path qualifier directly before the name (`Vec::new` → `Vec`,
    /// `Self::f` → `Self`), if the call was path-qualified.
    pub qual: Option<String>,
    /// Receiver identifier for `recv.name(..)` method calls, when the
    /// receiver is a simple identifier (`self` included).
    pub recv: Option<String>,
    /// `true` for `.name(` method-call syntax.
    pub method: bool,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Whether the call site sits inside a `lint:hot-path` fence.
    pub in_fence: bool,
}

/// One allocation site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Human label, e.g. `` `Vec::new()` `` or `` `.clone()` ``.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// Name under which a function's `return`/tail expression values are
/// recorded in [`FnItem::binds`].
pub const RET_BIND: &str = "=ret";

/// Cap on captured binds per fn; a body past this is analysis-hostile
/// and the abstract interpreter would saturate on it anyway.
const MAX_BINDS: usize = 96;
/// Cap on tokens per captured expression (oversized ones become the
/// opaque `"?"` so the evaluator never mis-parses a truncation).
const MAX_EXPR_TOKS: usize = 160;

/// One captured value binding inside a function body — the abstract
/// interpreter's input (B1 bit-provenance, [`crate::absint`]).
///
/// `expr` holds the right-hand side as space-joined token texts in
/// source order (string/char literals become `#`, oversized
/// expressions become `?`); the interpreter re-classifies each word by
/// its first character, so no token structure is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindSite {
    /// Bound identifier; [`RET_BIND`] for `return`/tail values.
    pub name: String,
    /// 1-based source line of the statement.
    pub line: u32,
    /// Encoded right-hand-side token stream.
    pub expr: String,
}

/// One function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `impl` target type, for methods and associated functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` module (or carries a `test` attribute).
    pub is_test: bool,
    /// Whether the parameter list mentions `self`.
    pub has_self: bool,
    /// Outgoing calls, in source order.
    pub calls: Vec<CallSite>,
    /// Allocation sites anywhere in the body, in source order.
    pub allocs: Vec<AllocSite>,
    /// Nondeterminism sources in the body (N1 taint seeds).
    pub nondet: Vec<NondetSite>,
    /// Lines of `for` loops in the body — evidence of fixed-order
    /// iteration, consulted when verifying `lint:order-invisible`.
    pub loops: Vec<u32>,
    /// Parameter names in declaration order (`self` excluded) — the
    /// abstract interpreter's lane sources (B1).
    pub params: Vec<String>,
    /// Captured value bindings, in source order (B1).
    pub binds: Vec<BindSite>,
}

/// The kind of nondeterminism a taint source introduces (N1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetKind {
    /// `std::thread::available_parallelism()` — machine-dependent.
    Parallelism,
    /// `thread::current().id()` — scheduling-dependent.
    ThreadId,
    /// `Instant::now()` / `SystemTime` — wall clock.
    WallClock,
    /// Iteration over a `HashMap`/`HashSet` without a sort escape.
    HashOrder,
    /// Address-as-value: a raw pointer cast to an integer.
    AddrCast,
}

impl NondetKind {
    /// Stable serialization name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NondetKind::Parallelism => "parallelism",
            NondetKind::ThreadId => "thread-id",
            NondetKind::WallClock => "wall-clock",
            NondetKind::HashOrder => "hash-order",
            NondetKind::AddrCast => "addr-cast",
        }
    }

    fn from_name(s: &str) -> Option<NondetKind> {
        Some(match s {
            "parallelism" => NondetKind::Parallelism,
            "thread-id" => NondetKind::ThreadId,
            "wall-clock" => NondetKind::WallClock,
            "hash-order" => NondetKind::HashOrder,
            "addr-cast" => NondetKind::AddrCast,
            _ => return None,
        })
    }
}

/// One nondeterminism source site inside a function body (N1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NondetSite {
    /// 1-based source line.
    pub line: u32,
    /// Source kind.
    pub kind: NondetKind,
    /// Human label, e.g. `` `available_parallelism()` ``.
    pub what: String,
}

/// One `// lint:order-invisible <reason>` fence (N1). Declares the
/// nondeterministic value on the next line order-invisible; honored
/// only after verification, never on trust.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderFence {
    /// 1-based comment line; covers sources on this or the next line.
    pub line: u32,
    /// Mandatory justification.
    pub reason: String,
}

/// One `.lock()` call site with guard-liveness context (L3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// 1-based source line of the `lock` identifier.
    pub line: u32,
    /// Inside test code.
    pub in_test: bool,
    /// Receiver identifier of this `.lock()` when it is ident-rooted
    /// (`slots[i].lock()` → `slots`, `self.a.lock()` → `a`) — the L3
    /// lock-order graph node being acquired.
    pub target: Option<String>,
    /// Lock target of the still-live guard, when known — the L3 edge
    /// source (`held_target` → `target` is an acquisition-order edge).
    pub held_target: Option<String>,
}

/// What a spawn closure captured that it must not (R1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureKind {
    /// `&mut x` where `x` is declared outside the closure.
    MutBorrow,
    /// Use of an identifier declared as `RefCell`/`Cell`/`Rc` outside
    /// the closure; payload is the type name.
    CellLike(String),
}

/// One illegal capture inside a spawn closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// Captured identifier.
    pub ident: String,
    /// 1-based source line of the capture.
    pub line: u32,
    /// How it was captured.
    pub kind: CaptureKind,
}

/// One `spawn(..)` call and its closure's illegal captures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnSite {
    /// 1-based source line of the `spawn` identifier.
    pub line: u32,
    /// Inside test code.
    pub in_test: bool,
    /// Illegal captures, in source order.
    pub captures: Vec<Capture>,
}

/// Everything the cross-file passes need to know about one file. This
/// is what the incremental cache stores per content hash, so a cached
/// file never needs re-tokenizing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileIndex {
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// `lint:hot-path` fence regions as `(begin_line, end_line)`.
    pub fences: Vec<(u32, u32)>,
    /// Spawn closure captures (R1).
    pub spawns: Vec<SpawnSite>,
    /// Inline `lint:allow` waivers (kept so cross-file findings computed
    /// later can still be waived at their root line).
    pub waivers: Vec<InlineWaiver>,
    /// Declaration-heuristic identifier types (`ws` → `SolverWorkspace`);
    /// ambiguous identifiers map to `"?"`.
    pub typed: BTreeMap<String, String>,
    /// `lint:order-invisible` fences (N1).
    pub order_fences: Vec<OrderFence>,
    /// `.lock()` call sites with guard-liveness context (L3).
    pub locks: Vec<LockSite>,
    /// File-local integer constants (`const NUM_BANKS: u64 = 16;`), so
    /// the abstract interpreter can resolve selector bounds like
    /// `row % NUM_BANKS` (B1).
    pub consts: BTreeMap<String, u64>,
}

/// Extracts fence regions from a file's comments; unbalanced or nested
/// markers become [`Rule::Fence`] findings.
#[must_use]
pub fn fence_regions(path: &str, file: &TokenizedFile) -> (Vec<(u32, u32)>, Vec<Finding>) {
    let mut regions = Vec::new();
    let mut findings = Vec::new();
    let mut open: Option<u32> = None;
    for c in &file.comments {
        let text = c.text.trim();
        // End-marker test first: BEGIN is a prefix of END.
        if text.starts_with(FENCE_END) {
            match open.take() {
                Some(begin) => regions.push((begin, c.line)),
                None => findings.push(Finding::new(
                    Rule::Fence,
                    path,
                    c.line,
                    "`lint:hot-path-end` without a matching `lint:hot-path`",
                )),
            }
        } else if text.starts_with(FENCE_BEGIN) {
            if let Some(begin) = open {
                findings.push(Finding::new(
                    Rule::Fence,
                    path,
                    c.line,
                    format!("nested `lint:hot-path` (previous fence opened on line {begin})"),
                ));
            } else {
                open = Some(c.line);
            }
        }
    }
    if let Some(begin) = open {
        findings.push(Finding::new(
            Rule::Fence,
            path,
            begin,
            "`lint:hot-path` fence never closed (`lint:hot-path-end` missing)",
        ));
    }
    (regions, findings)
}

/// Whether `line` falls strictly inside any fence region.
#[must_use]
pub fn in_fence(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(b, e)| line > b && line < e)
}

/// Extracts `lint:order-invisible` fences from a file's comments; a
/// fence without a reason is a [`Rule::Waiver`] finding, like a
/// reason-less `lint:allow`.
#[must_use]
pub fn order_fences(path: &str, file: &TokenizedFile) -> (Vec<OrderFence>, Vec<Finding>) {
    let mut fences = Vec::new();
    let mut findings = Vec::new();
    for c in &file.comments {
        let Some(rest) = c.text.trim().strip_prefix(ORDER_FENCE) else {
            continue;
        };
        if !rest.is_empty() && !rest.starts_with(char::is_whitespace) {
            continue;
        }
        let reason = rest.trim();
        if reason.is_empty() {
            findings.push(Finding::new(
                Rule::Waiver,
                path,
                c.line,
                "`lint:order-invisible` fence has no reason",
            ));
            continue;
        }
        fences.push(OrderFence {
            line: c.line,
            reason: reason.to_string(),
        });
    }
    (fences, findings)
}

/// Declaration-heuristic identifier typing: `name: [&][mut] Type`,
/// struct fields, fn params, and `name = Type::new(..)`-style inits.
/// Identifiers ascribed two different types collapse to `"?"`.
fn typed_idents(toks: &[Tok]) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = BTreeMap::new();
    let mut record = |name: &str, ty: &str| {
        match out.get(name) {
            Some(prev) if prev != ty => out.insert(name.to_string(), "?".to_string()),
            Some(_) => None,
            None => out.insert(name.to_string(), ty.to_string()),
        };
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !t.text.starts_with(char::is_uppercase) {
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
        // `name: [&][mut] Type` (let, fn param, struct field).
        let mut k = j - 1;
        while k > 0 && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
            k -= 1;
        }
        if toks[k].is_punct(':')
            && k >= 1
            && toks[k - 1].kind == TokKind::Ident
            && !(k >= 2 && toks[k - 2].is_punct(':'))
        {
            record(toks[k - 1].text, t.text);
            continue;
        }
        // `name = Type::new(..)` / `= Type::default()` / `= Type::with_capacity(..)`.
        if toks[k].is_punct('=')
            && k >= 1
            && toks[k - 1].kind == TokKind::Ident
            && i + 4 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
            && matches!(toks[i + 3].text, "new" | "default" | "with_capacity")
            && toks[i + 4].is_punct('(')
        {
            record(toks[k - 1].text, t.text);
        }
    }
    out
}

/// Finds the index of the matching close for the open delimiter at
/// `open` (which must hold `(`, `[`, or `{`); returns `toks.len()` when
/// unbalanced.
fn matching_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Scope kinds tracked while walking the brace structure.
enum Scope {
    Mod { is_test: bool },
    Impl { ty: Option<String> },
    Fn { idx: usize },
    Block,
}

/// Parses one tokenized file into its [`FileIndex`]. Fence bookkeeping
/// errors and malformed inline waivers are returned as findings.
#[must_use]
pub fn parse_file(path: &str, file: &TokenizedFile) -> (FileIndex, Vec<Finding>) {
    let (fences, mut findings) = fence_regions(path, file);
    let (order_fences, mut order_fence_errors) = order_fences(path, file);
    findings.append(&mut order_fence_errors);
    let (waivers, mut waiver_errors) = waiver::inline_waivers(path, &file.comments);
    findings.append(&mut waiver_errors);

    let toks = &file.toks;
    let mut index = FileIndex {
        fences,
        order_fences,
        waivers,
        typed: typed_idents(toks),
        ..FileIndex::default()
    };

    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Scope> = None;
    let mut pending_test_attr = false;
    // Live lock guards for L3: (binding name, scope depth at the
    // binding, token index after which the guard is live, lock target
    // the guard holds).
    let mut guards: Vec<(String, usize, usize, Option<String>)> = Vec::new();

    let in_test_scope = |scopes: &[Scope]| {
        scopes
            .iter()
            .any(|s| matches!(s, Scope::Mod { is_test: true }))
    };
    let current_impl = |scopes: &[Scope]| {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Impl { ty } => Some(ty.clone()),
            _ => None,
        })
    };
    let current_fn = |scopes: &[Scope]| {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Fn { idx } => Some(*idx),
            _ => None,
        })
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        // Attribute group: `#[ ... ]`. A `test` ident anywhere inside
        // (covers `#[test]` and `#[cfg(test)]`) marks the next item.
        if t.is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = matching_close(toks, i + 1);
            if toks[i + 2..close].iter().any(|t| t.is_ident("test")) {
                pending_test_attr = true;
            }
            i = close + 1;
            continue;
        }

        // `mod name {` opens a module scope; `mod name;` declares a file
        // module (no scope).
        if t.is_ident("mod") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            pending = Some(Scope::Mod {
                is_test: pending_test_attr || in_test_scope(&scopes),
            });
            pending_test_attr = false;
            i += 2;
            continue;
        }

        // `impl [<..>] [Trait for] Type {`.
        if t.is_ident("impl") {
            let mut angle = 0i32;
            let mut last_ident: Option<&str> = None;
            let mut after_for: Option<&str> = None;
            let mut saw_for = false;
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if angle == 0 && tj.is_ident("where") {
                    break;
                } else if angle == 0 && tj.is_ident("for") {
                    saw_for = true;
                } else if angle == 0 && tj.kind == TokKind::Ident {
                    if saw_for {
                        after_for = Some(tj.text);
                    } else {
                        last_ident = Some(tj.text);
                    }
                }
                j += 1;
            }
            pending = Some(Scope::Impl {
                ty: if saw_for { after_for } else { last_ident }.map(str::to_string),
            });
            pending_test_attr = false;
            i += 1;
            continue;
        }

        // `fn name ( .. )`.
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.to_string();
            let line = t.line;
            // Find the parameter list (skipping generics) and check for
            // `self`; then decide body `{` vs trait signature `;`.
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() && !(angle == 0 && toks[j].is_punct('(')) {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') {
                    angle -= 1;
                }
                j += 1;
            }
            let (has_self, params, binds) = if j < toks.len() {
                let close = matching_close(toks, j).min(toks.len());
                let args = &toks[j + 1..close.min(toks.len())];
                let has_self = args.iter().any(|t| t.is_ident("self"));
                let params = param_names(args);
                // The body `{` follows the signature; a `;` instead
                // means a trait method declaration (no body).
                let mut b = close + 1;
                while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                    b += 1;
                }
                let mut binds = Vec::new();
                if b < toks.len() && toks[b].is_punct('{') {
                    let end = matching_close(toks, b).min(toks.len());
                    collect_binds(toks, b + 1, end, true, &mut binds);
                }
                (has_self, params, binds)
            } else {
                (false, Vec::new(), Vec::new())
            };
            let idx = index.fns.len();
            index.fns.push(FnItem {
                name,
                owner: current_impl(&scopes).flatten(),
                line,
                is_test: pending_test_attr || in_test_scope(&scopes),
                has_self,
                calls: Vec::new(),
                allocs: Vec::new(),
                nondet: Vec::new(),
                loops: Vec::new(),
                params,
                binds,
            });
            pending = Some(Scope::Fn { idx });
            pending_test_attr = false;
            i += 2;
            continue;
        }

        if t.is_punct('{') {
            scopes.push(pending.take().unwrap_or(Scope::Block));
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            scopes.pop();
            // Guards bound inside the closed block die with it.
            guards.retain(|(_, depth, ..)| *depth <= scopes.len());
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            // Cancels any item header still waiting for a body
            // (`mod x;`, trait method signatures).
            pending = None;
            i += 1;
            continue;
        }

        // File-local integer constants: `const NAME: T = <literal>;` —
        // resolvable selector bounds for the abstract interpreter.
        if t.is_ident("const") {
            if let Some((name, value)) = const_literal(toks, i) {
                index.consts.entry(name).or_insert(value);
            }
        }

        // Lock-guard bindings, explicit drops, and `.lock()` sites (L3).
        if t.is_ident("let") {
            if let Some((name, live_from, target)) = guard_binding(toks, i) {
                guards.push((name, scopes.len(), live_from, target));
            }
        }
        if t.is_ident("drop")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct('(')
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is_punct(')')
        {
            let dropped = toks[i + 2].text;
            guards.retain(|(name, ..)| *name != dropped);
        }
        if t.is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].is_ident("lock")
            && toks[i + 2].is_punct('(')
        {
            let live = guards.iter().rev().find(|(_, _, from, _)| *from < i);
            index.locks.push(LockSite {
                line: toks[i + 1].line,
                in_test: pending_test_attr
                    || in_test_scope(&scopes)
                    || current_fn(&scopes).is_some_and(|idx| index.fns[idx].is_test),
                target: lock_target(toks, i),
                held_target: live.and_then(|(.., target)| target.clone()),
            });
        }

        // Spawn closures: `spawn( [move] |..| body )` (R1).
        if t.is_ident("spawn") && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            let close = matching_close(toks, i + 1);
            let spawn_args = &toks[i + 2..close.min(toks.len())];
            let in_test = pending_test_attr
                || in_test_scope(&scopes)
                || current_fn(&scopes).is_some_and(|idx| index.fns[idx].is_test);
            index
                .spawns
                .push(scan_spawn(t.line, spawn_args, &index.typed, in_test));
        }

        // Calls and allocation sites attribute to the innermost fn; item
        // headers awaiting a body (`pending`) are signature tokens, not
        // body code.
        if pending.is_none() {
            if let Some(idx) = current_fn(&scopes) {
                scan_alloc(toks, i, &mut index.fns[idx].allocs);
                scan_call(toks, i, &index.fences, &mut index.fns[idx].calls);
                scan_nondet(toks, i, &mut index.fns[idx].nondet);
                // `for` loops witness fixed-order iteration; `for<` is a
                // higher-ranked bound, not a loop.
                if t.is_ident("for") && !(i + 1 < toks.len() && toks[i + 1].is_punct('<')) {
                    index.fns[idx].loops.push(t.line);
                }
            }
        }
        pending_test_attr = false;
        i += 1;
    }

    (index, findings)
}

/// Records an allocation site if the token at `i` starts one (H2 tests
/// the fenced sites and, through the call graph, callee bodies).
fn scan_alloc(toks: &[Tok], i: usize, out: &mut Vec<AllocSite>) {
    let t = &toks[i];
    // `.clone()`, `.collect()`, ...
    if t.is_punct('.')
        && i + 2 < toks.len()
        && toks[i + 1].kind == TokKind::Ident
        && ALLOC_METHODS.contains(&toks[i + 1].text)
        && toks[i + 2].is_punct('(')
    {
        out.push(AllocSite {
            what: format!("`.{}()`", toks[i + 1].text),
            line: toks[i + 1].line,
        });
    }
    // `Vec::new(`, `String::new(`, `Box::new(`.
    if t.kind == TokKind::Ident
        && ALLOC_TYPES.contains(&t.text)
        && i + 3 < toks.len()
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_ident("new")
    {
        out.push(AllocSite {
            what: format!("`{}::new()`", t.text),
            line: t.line,
        });
    }
    // `format!(`, `vec![`.
    if t.kind == TokKind::Ident
        && ALLOC_MACROS.contains(&t.text)
        && i + 1 < toks.len()
        && toks[i + 1].is_punct('!')
    {
        out.push(AllocSite {
            what: format!("`{}!`", t.text),
            line: t.line,
        });
    }
    // `with_capacity(` through any path.
    if t.kind == TokKind::Ident && ALLOC_BARE.contains(&t.text) {
        out.push(AllocSite {
            what: format!("`{}`", t.text),
            line: t.line,
        });
    }
}

/// Records a call site if the token at `i` starts one.
fn scan_call(toks: &[Tok], i: usize, fences: &[(u32, u32)], out: &mut Vec<CallSite>) {
    let t = &toks[i];
    // Method call `recv.name(`; allocation methods are recorded by
    // `scan_alloc` instead.
    if t.is_punct('.')
        && i + 2 < toks.len()
        && toks[i + 1].kind == TokKind::Ident
        && toks[i + 2].is_punct('(')
        && !ALLOC_METHODS.contains(&toks[i + 1].text)
    {
        let recv =
            (i > 0 && toks[i - 1].kind == TokKind::Ident).then(|| toks[i - 1].text.to_string());
        out.push(CallSite {
            callee: toks[i + 1].text.to_string(),
            qual: None,
            recv,
            method: true,
            line: toks[i + 1].line,
            in_fence: in_fence(fences, toks[i + 1].line),
        });
        return;
    }
    if t.kind != TokKind::Ident {
        return;
    }
    // Path call `Qual::name(` — the pattern only matches at the last
    // path segment, so `a::b::c(` resolves qualifier `b`.
    if i + 4 < toks.len()
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].kind == TokKind::Ident
        && toks[i + 4].is_punct('(')
    {
        out.push(CallSite {
            callee: toks[i + 3].text.to_string(),
            qual: Some(t.text.to_string()),
            recv: None,
            method: false,
            line: toks[i + 3].line,
            in_fence: in_fence(fences, toks[i + 3].line),
        });
        return;
    }
    // Bare call `name(`.
    if i + 1 < toks.len()
        && toks[i + 1].is_punct('(')
        && !NON_CALL_KEYWORDS.contains(&t.text)
        && !(i >= 1 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct('!')))
        && !(i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':'))
        && !(i >= 1 && toks[i - 1].is_ident("fn"))
    {
        out.push(CallSite {
            callee: t.text.to_string(),
            qual: None,
            recv: None,
            method: false,
            line: t.line,
            in_fence: in_fence(fences, t.line),
        });
    }
}

/// Records a nondeterminism source if the token at `i` starts one (N1).
/// Hash-order sources are injected later by the hash-iter rule, which
/// owns the sort-escape analysis.
fn scan_nondet(toks: &[Tok], i: usize, out: &mut Vec<NondetSite>) {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    match t.text {
        // `available_parallelism(` through any path.
        "available_parallelism" if i + 1 < toks.len() && toks[i + 1].is_punct('(') => {
            out.push(NondetSite {
                line: t.line,
                kind: NondetKind::Parallelism,
                what: "`available_parallelism()`".to_string(),
            });
        }
        // `thread::current().id()`.
        "current"
            if i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("thread")
                && i + 4 < toks.len()
                && toks[i + 1].is_punct('(')
                && toks[i + 2].is_punct(')')
                && toks[i + 3].is_punct('.')
                && toks[i + 4].is_ident("id") =>
        {
            out.push(NondetSite {
                line: t.line,
                kind: NondetKind::ThreadId,
                what: "`thread::current().id()`".to_string(),
            });
        }
        // `Instant::now(` and any `SystemTime` mention: wall clock.
        "Instant"
            if i + 3 < toks.len()
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && toks[i + 3].is_ident("now") =>
        {
            out.push(NondetSite {
                line: t.line,
                kind: NondetKind::WallClock,
                what: "`Instant::now()`".to_string(),
            });
        }
        "SystemTime" => {
            out.push(NondetSite {
                line: t.line,
                kind: NondetKind::WallClock,
                what: "`SystemTime`".to_string(),
            });
        }
        // `.as_ptr() as <ty>`: the allocation address becomes data.
        "as_ptr" | "as_mut_ptr"
            if i >= 1
                && toks[i - 1].is_punct('.')
                && i + 3 < toks.len()
                && toks[i + 1].is_punct('(')
                && toks[i + 2].is_punct(')')
                && toks[i + 3].is_ident("as") =>
        {
            out.push(NondetSite {
                line: t.line,
                kind: NondetKind::AddrCast,
                what: format!("`.{}() as _` address cast", t.text),
            });
        }
        // `as *const T as usize`-style double cast to an integer.
        "as" if i + 2 < toks.len()
            && toks[i + 1].is_punct('*')
            && (toks[i + 2].is_ident("const") || toks[i + 2].is_ident("mut")) =>
        {
            let int_cast = toks[i + 3..toks.len().min(i + 9)].windows(2).any(|w| {
                w[0].is_ident("as")
                    && matches!(w[1].text, "usize" | "u64" | "u32" | "isize" | "i64")
            });
            if int_cast {
                out.push(NondetSite {
                    line: t.line,
                    kind: NondetKind::AddrCast,
                    what: "raw pointer cast to integer".to_string(),
                });
            }
        }
        _ => {}
    }
}

/// If the `let` at `i` binds a lock guard — `let [mut] name [: T] =
/// <expr with .lock() at paren depth 0>[.unwrap()/.expect(..)];` —
/// returns `(name, stmt_end, lock target)` where `stmt_end` is the
/// index of the terminating `;` (the guard is live only after its own
/// statement) and the target is the `.lock()` receiver when it is
/// ident-rooted (L3). Initializers that start with `*` deref-copy the
/// value out, so the guard is a dropped temporary, not a binding.
fn guard_binding(toks: &[Tok], i: usize) -> Option<(String, usize, Option<String>)> {
    let mut j = i + 1;
    if toks.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.to_string();
    j += 1;
    match toks.get(j)? {
        t if t.is_punct('=') => j += 1,
        t if t.is_punct(':') => {
            // Skip the type ascription to the `=` at bracket depth 0.
            let mut depth = 0i32;
            loop {
                j += 1;
                let t = toks.get(j)?;
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        return None;
                    }
                } else if depth == 0 && t.is_punct('=') {
                    j += 1;
                    break;
                } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
                    return None;
                }
            }
        }
        _ => return None,
    }
    if toks.get(j)?.is_punct('*') {
        return None;
    }
    // Find `.lock(` at bracket depth 0 within the initializer.
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return None;
        } else if depth == 0
            && t.is_punct('.')
            && k + 2 < toks.len()
            && toks[k + 1].is_ident("lock")
            && toks[k + 2].is_punct('(')
        {
            let mut m = matching_close(toks, k + 2) + 1;
            // Allowed trailing chain: `.unwrap()` / `.expect(..)`. Any
            // other method extracts a value — the guard is a temporary.
            while m + 2 < toks.len()
                && toks[m].is_punct('.')
                && (toks[m + 1].is_ident("unwrap") || toks[m + 1].is_ident("expect"))
                && toks[m + 2].is_punct('(')
            {
                m = matching_close(toks, m + 2) + 1;
            }
            return toks.get(m).is_some_and(|t| t.is_punct(';')).then_some((
                name,
                m,
                lock_target(toks, k),
            ));
        }
        k += 1;
    }
    None
}

/// Receiver identifier for the `.lock()` whose dot sits at `dot`:
/// walks left over one postfix-chain element, so `slots[i].lock()`
/// yields `slots` and `self.a.lock()` yields `a`. `None` when the
/// receiver is not ident-rooted (call results, parenthesised
/// expressions) — those sites contribute no L3 graph node.
fn lock_target(toks: &[Tok], dot: usize) -> Option<String> {
    let mut k = dot;
    while k > 0 {
        let p = &toks[k - 1];
        if p.kind == TokKind::Ident {
            // `self.lock()` itself names nothing useful.
            return (!p.is_ident("self")).then(|| p.text.to_string());
        }
        if p.is_punct(']') {
            // Index expression: hop to the matching `[`, keep walking.
            let mut depth = 0i32;
            let mut j = k - 1;
            loop {
                let t = &toks[j];
                if t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            k = j;
            continue;
        }
        return None;
    }
    None
}

/// If the `const` at `i` declares an integer with a literal value —
/// `const NAME: T = <int literal>;` — returns `(name, value)`.
fn const_literal(toks: &[Tok], i: usize) -> Option<(String, u64)> {
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident || !toks.get(i + 2)?.is_punct(':') {
        return None;
    }
    // Scan the (simple, for integers) type ascription to the `=`.
    let mut k = i + 3;
    while k < toks.len() && !toks[k].is_punct('=') {
        if toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}') {
            return None;
        }
        k += 1;
    }
    let num = toks.get(k + 1)?;
    if num.kind != TokKind::Num || !toks.get(k + 2)?.is_punct(';') {
        return None;
    }
    Some((name.text.to_string(), int_literal(num.text)?))
}

/// Parses a Rust integer literal (`0xFF_u64`, `1_024`, `0b1010`,
/// suffixes allowed); `None` for floats and non-numeric text.
pub(crate) fn int_literal(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16u32)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else {
        (t.as_str(), 10)
    };
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(p, _)| p);
    // A `.` right after the digits is a float, not a typed suffix.
    if end == 0 || digits[end..].starts_with('.') {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Parameter names from a fn's parameter token span: each `name :` at
/// bracket/angle depth 0. `self`, path segments (`a::b`), and
/// destructuring patterns contribute nothing.
fn param_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if depth == 0
            && angle <= 0
            && t.is_punct(':')
            && k >= 1
            && toks[k - 1].kind == TokKind::Ident
            && !toks[k - 1].is_ident("self")
            && !(k >= 2 && toks[k - 2].is_punct(':'))
            && !toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
        {
            out.push(toks[k - 1].text.to_string());
        }
    }
    out
}

/// Operator characters that can prefix `=` in a compound assignment.
const COMPOUND_OPS: &[char] = &['+', '-', '*', '/', '%', '^', '&', '|', '<', '>'];

/// Splits the body token span `[lo, hi)` into statements and records
/// the value bindings the abstract interpreter consumes: `let`
/// statements, (compound) assignments, `return`s, and — when `tail` —
/// the final expression, recursing into tail `if`/`else` blocks so
/// conditional returns contribute per-branch values. Statement-position
/// blocks (loops, plain `if`, `match` bodies) are recursed non-tail so
/// bindings inside them are still seen.
fn collect_binds(toks: &[Tok], lo: usize, hi: usize, tail: bool, out: &mut Vec<BindSite>) {
    let mut start = lo;
    let mut k = lo;
    while k < hi && out.len() < MAX_BINDS {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            k = matching_close(toks, k).min(hi) + 1;
            continue;
        }
        if t.is_punct('{') {
            let close = matching_close(toks, k).min(hi);
            // An unclosed block runs to the end of the span; its
            // statement must not reach past the last token.
            let end = (close + 1).min(toks.len());
            let next = toks.get(end).filter(|_| end < hi);
            // `else` chains and postfix uses keep the statement open.
            if next.is_some_and(|n| n.is_ident("else") || n.is_punct('.') || n.is_punct('?')) {
                k = end;
                continue;
            }
            if next.is_some_and(|n| n.is_punct(';')) {
                record_stmt(toks, start, end, false, out);
                start = end + 1;
                k = end + 1;
                continue;
            }
            // The block ends the statement: a statement-position
            // `if`/`match`/loop, or the body's tail expression.
            record_stmt(toks, start, end, tail && end >= hi, out);
            start = end;
            k = end;
            continue;
        }
        if t.is_punct(';') {
            record_stmt(toks, start, k, false, out);
            start = k + 1;
        }
        k += 1;
    }
    if start < hi && out.len() < MAX_BINDS {
        record_stmt(toks, start, hi, tail, out);
    }
}

/// Records the binding (if any) produced by one statement span
/// `[lo, hi)`; see [`collect_binds`].
fn record_stmt(toks: &[Tok], mut lo: usize, hi: usize, is_tail: bool, out: &mut Vec<BindSite>) {
    // Separators left behind by match-arm and close-brace splitting.
    while lo < hi && (toks[lo].is_punct(',') || toks[lo].is_punct('}')) {
        lo += 1;
    }
    if lo >= hi || out.len() >= MAX_BINDS {
        return;
    }
    let t = &toks[lo];
    if t.is_ident("let") {
        let mut j = lo + 1;
        if j < hi && toks[j].is_ident("mut") {
            j += 1;
        }
        // Destructuring patterns and `let .. else` refutable binds are
        // not value bindings the interpreter can use; plain names only.
        if j >= hi || toks[j].kind != TokKind::Ident {
            return;
        }
        let (name, line) = (toks[j].text.to_string(), toks[j].line);
        // Find the binder `=` at bracket depth 0 (skips `: Vec<u64>`
        // ascriptions; an `fn(..) -> ..` ascription confuses the angle
        // count and simply drops the bind — conservative).
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < hi {
            let tk = &toks[k];
            if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('<') {
                depth += 1;
            } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('>') {
                depth -= 1;
            } else if depth == 0 && tk.is_punct('=') {
                if k + 1 < hi {
                    out.push(BindSite {
                        name,
                        line,
                        expr: encode_expr(toks, k + 1, hi),
                    });
                }
                return;
            }
            k += 1;
        }
        return;
    }
    if t.is_ident("return") {
        if lo + 1 < hi {
            out.push(BindSite {
                name: RET_BIND.to_string(),
                line: t.line,
                expr: encode_expr(toks, lo + 1, hi),
            });
        }
        return;
    }
    if t.is_ident("if")
        || t.is_ident("match")
        || t.is_ident("for")
        || t.is_ident("while")
        || t.is_ident("loop")
        || t.is_ident("unsafe")
        || t.is_punct('{')
    {
        // Tail `if`/block chains contribute branch return values;
        // everything else is recursed only for its inner bindings.
        let branch_tail = is_tail && (t.is_ident("if") || t.is_ident("unsafe") || t.is_punct('{'));
        let mut k = lo;
        while k < hi && out.len() < MAX_BINDS {
            if toks[k].is_punct('{') {
                let close = matching_close(toks, k).min(hi);
                collect_binds(toks, k + 1, close, branch_tail, out);
                k = close + 1;
            } else if toks[k].is_punct('(') || toks[k].is_punct('[') {
                k = matching_close(toks, k).min(hi) + 1;
            } else {
                k += 1;
            }
        }
        return;
    }
    if is_tail {
        out.push(BindSite {
            name: RET_BIND.to_string(),
            line: t.line,
            expr: encode_expr(toks, lo, hi),
        });
        return;
    }
    // `name = expr;` assignments and `name <op>= expr;` compound
    // assignments (synthesized as `name <op> ( expr )`).
    if t.kind == TokKind::Ident && lo + 1 < hi {
        let mut ops: Vec<&str> = Vec::new();
        let mut k = lo + 1;
        while k < hi
            && ops.len() < 2
            && toks[k].kind == TokKind::Punct
            && toks[k].text.len() == 1
            && COMPOUND_OPS.contains(&toks[k].text.chars().next().unwrap_or(' '))
        {
            ops.push(toks[k].text);
            k += 1;
        }
        let is_assign = k < hi
            && toks[k].is_punct('=')
            && !toks
                .get(k + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
        if is_assign && k + 1 < hi {
            let rhs = encode_expr(toks, k + 1, hi);
            let expr = if ops.is_empty() {
                rhs
            } else {
                format!("{} {} ( {rhs} )", t.text, ops.join(" "))
            };
            out.push(BindSite {
                name: t.text.to_string(),
                line: t.line,
                expr,
            });
        }
    }
}

/// Encodes an expression token span for [`BindSite::expr`]: texts
/// space-joined, literals as `#`, oversized spans as the opaque `?`.
fn encode_expr(toks: &[Tok], lo: usize, hi: usize) -> String {
    if hi <= lo || hi - lo > MAX_EXPR_TOKS {
        return "?".to_string();
    }
    let mut out = String::new();
    for t in &toks[lo..hi] {
        if !out.is_empty() {
            out.push(' ');
        }
        if t.kind == TokKind::Lit {
            out.push('#');
        } else {
            out.push_str(t.text);
        }
    }
    out
}

/// Analyzes one `spawn(..)` argument list for illegal captures.
fn scan_spawn(
    line: u32,
    args: &[Tok],
    typed: &BTreeMap<String, String>,
    in_test: bool,
) -> SpawnSite {
    let mut site = SpawnSite {
        line,
        in_test,
        captures: Vec::new(),
    };
    // Locate the closure: optional `move`, then `|params|`.
    let Some(p1) = args.iter().position(|t| t.is_punct('|')) else {
        return site;
    };
    let Some(rel) = args[p1 + 1..].iter().position(|t| t.is_punct('|')) else {
        return site;
    };
    let p2 = p1 + 1 + rel;
    // Idents bound by the closure itself: params plus `let` bindings in
    // the body (over-approximate: any ident in the param list counts).
    let mut bound: Vec<&str> = args[p1 + 1..p2]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect();
    let body = &args[p2 + 1..];
    for (j, t) in body.iter().enumerate() {
        if t.is_ident("let") {
            // Bind every ident in the pattern up to the `=` (or the end
            // of the statement): covers `let mut x`, destructuring
            // tuples/structs, and `while let Some(mut x)`. The enum
            // path idents this over-binds (`Some`, `Ok`) are
            // capitalised and never borrowed mutably, so the
            // over-approximation stays safe.
            for tok in &body[j + 1..] {
                if tok.is_punct('=') || tok.is_punct(';') {
                    break;
                }
                if tok.kind == TokKind::Ident && !tok.is_ident("mut") {
                    bound.push(tok.text);
                }
            }
        }
    }
    for (j, t) in body.iter().enumerate() {
        // `&mut x` borrowing an identifier declared outside the closure.
        if t.is_punct('&')
            && j + 2 < body.len()
            && body[j + 1].is_ident("mut")
            && body[j + 2].kind == TokKind::Ident
            && !bound.contains(&body[j + 2].text)
        {
            site.captures.push(Capture {
                ident: body[j + 2].text.to_string(),
                line: body[j + 2].line,
                kind: CaptureKind::MutBorrow,
            });
        }
        // Use of a RefCell/Cell/Rc-typed identifier from outside.
        if t.kind == TokKind::Ident && !bound.contains(&t.text) {
            if let Some(ty) = typed.get(t.text) {
                if CELL_TYPES.contains(&ty.as_str()) {
                    site.captures.push(Capture {
                        ident: t.text.to_string(),
                        line: t.line,
                        kind: CaptureKind::CellLike(ty.clone()),
                    });
                }
            }
        }
    }
    site
}

// ---------------------------------------------------------------------
// Cache serialization: FileIndex <-> Json, hand-rolled like the rest of
// the zero-dependency stack.
// ---------------------------------------------------------------------

impl FileIndex {
    /// Attaches a nondeterminism source to the fn whose body contains
    /// `line` (the last fn starting at or before it). Used by the
    /// hash-iter rule to register unsorted hash iteration as an N1
    /// taint seed.
    pub fn attach_nondet(&mut self, line: u32, kind: NondetKind, what: String) {
        if let Some(f) = self.fns.iter_mut().rev().find(|f| f.line <= line) {
            f.nondet.push(NondetSite { line, kind, what });
        }
    }

    /// Whether the source at `line` inside `fn_idx` is covered by an
    /// honored `lint:order-invisible` fence: the fence sits on the
    /// source line or the line above, and the enclosing fn shows
    /// fixed-order folding (a `for` loop or a `.fold(` call).
    #[must_use]
    pub fn nondet_suppressed(&self, fn_idx: usize, line: u32) -> bool {
        let f = &self.fns[fn_idx];
        let fenced = self
            .order_fences
            .iter()
            .any(|of| of.line == line || of.line + 1 == line);
        fenced && Self::fn_folds_in_order(f)
    }

    /// Fixed-order-fold evidence for a fn: any `for` loop in the body
    /// or a `.fold(` call site (N1 fence verification).
    #[must_use]
    pub fn fn_folds_in_order(f: &FnItem) -> bool {
        !f.loops.is_empty() || f.calls.iter().any(|c| c.method && c.callee == "fold")
    }

    /// Machine form for the incremental cache.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let fns = self.fns.iter().map(|f| {
            Json::object([
                ("name", Json::from(f.name.as_str())),
                ("owner", f.owner.as_deref().map_or(Json::Null, Json::from)),
                ("line", Json::from(u64::from(f.line))),
                ("is_test", Json::from(f.is_test)),
                ("has_self", Json::from(f.has_self)),
                (
                    "calls",
                    Json::array(f.calls.iter().map(|c| {
                        Json::object([
                            ("callee", Json::from(c.callee.as_str())),
                            ("qual", c.qual.as_deref().map_or(Json::Null, Json::from)),
                            ("recv", c.recv.as_deref().map_or(Json::Null, Json::from)),
                            ("method", Json::from(c.method)),
                            ("line", Json::from(u64::from(c.line))),
                            ("in_fence", Json::from(c.in_fence)),
                        ])
                    })),
                ),
                (
                    "allocs",
                    Json::array(f.allocs.iter().map(|a| {
                        Json::object([
                            ("what", Json::from(a.what.as_str())),
                            ("line", Json::from(u64::from(a.line))),
                        ])
                    })),
                ),
                (
                    "nondet",
                    Json::array(f.nondet.iter().map(|n| {
                        Json::object([
                            ("line", Json::from(u64::from(n.line))),
                            ("kind", Json::from(n.kind.name())),
                            ("what", Json::from(n.what.as_str())),
                        ])
                    })),
                ),
                (
                    "loops",
                    Json::array(f.loops.iter().map(|&l| Json::from(u64::from(l)))),
                ),
                (
                    "params",
                    Json::array(f.params.iter().map(|p| Json::from(p.as_str()))),
                ),
                (
                    "binds",
                    Json::array(f.binds.iter().map(|b| {
                        Json::object([
                            ("name", Json::from(b.name.as_str())),
                            ("line", Json::from(u64::from(b.line))),
                            ("expr", Json::from(b.expr.as_str())),
                        ])
                    })),
                ),
            ])
        });
        Json::object([
            ("fns", Json::array(fns)),
            (
                "fences",
                Json::array(self.fences.iter().map(|&(b, e)| {
                    Json::array([Json::from(u64::from(b)), Json::from(u64::from(e))])
                })),
            ),
            (
                "spawns",
                Json::array(self.spawns.iter().map(|s| {
                    Json::object([
                        ("line", Json::from(u64::from(s.line))),
                        ("in_test", Json::from(s.in_test)),
                        (
                            "captures",
                            Json::array(s.captures.iter().map(|c| {
                                let (kind, ty) = match &c.kind {
                                    CaptureKind::MutBorrow => ("mut", Json::Null),
                                    CaptureKind::CellLike(t) => ("cell", Json::from(t.as_str())),
                                };
                                Json::object([
                                    ("ident", Json::from(c.ident.as_str())),
                                    ("line", Json::from(u64::from(c.line))),
                                    ("kind", Json::from(kind)),
                                    ("ty", ty),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
            (
                "order_fences",
                Json::array(self.order_fences.iter().map(|of| {
                    Json::object([
                        ("line", Json::from(u64::from(of.line))),
                        ("reason", Json::from(of.reason.as_str())),
                    ])
                })),
            ),
            (
                "locks",
                Json::array(self.locks.iter().map(|l| {
                    Json::object([
                        ("line", Json::from(u64::from(l.line))),
                        ("in_test", Json::from(l.in_test)),
                        ("target", l.target.as_deref().map_or(Json::Null, Json::from)),
                        (
                            "held_target",
                            l.held_target.as_deref().map_or(Json::Null, Json::from),
                        ),
                    ])
                })),
            ),
            (
                // Values as hex strings: u64 consts can exceed f64's
                // exact integer range, like the cache's content hashes.
                "consts",
                Json::Obj(
                    self.consts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(format!("{v:x}"))))
                        .collect(),
                ),
            ),
            (
                "waivers",
                Json::array(self.waivers.iter().map(|w| {
                    Json::object([
                        ("rule", Json::from(w.rule.name())),
                        ("line", Json::from(u64::from(w.line))),
                        ("reason", Json::from(w.reason.as_str())),
                    ])
                })),
            ),
            (
                "typed",
                Json::Obj(
                    self.typed
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds an index from its [`FileIndex::to_json`] form; `None` on
    /// any shape mismatch (the caller then re-parses the file).
    #[must_use]
    pub fn from_json(j: &Json) -> Option<FileIndex> {
        let line_u32 =
            |j: &Json, key: &str| -> Option<u32> { u32::try_from(j.get(key)?.as_u64()?).ok() };
        let opt_str = |j: &Json, key: &str| -> Option<Option<String>> {
            match j.get(key)? {
                Json::Null => Some(None),
                other => Some(Some(other.as_str()?.to_string())),
            }
        };
        let mut index = FileIndex::default();
        for f in j.get("fns")?.as_arr()? {
            let mut item = FnItem {
                name: f.get("name")?.as_str()?.to_string(),
                owner: opt_str(f, "owner")?,
                line: line_u32(f, "line")?,
                is_test: f.get("is_test")?.as_bool()?,
                has_self: f.get("has_self")?.as_bool()?,
                calls: Vec::new(),
                allocs: Vec::new(),
                nondet: Vec::new(),
                loops: Vec::new(),
                params: Vec::new(),
                binds: Vec::new(),
            };
            for c in f.get("calls")?.as_arr()? {
                item.calls.push(CallSite {
                    callee: c.get("callee")?.as_str()?.to_string(),
                    qual: opt_str(c, "qual")?,
                    recv: opt_str(c, "recv")?,
                    method: c.get("method")?.as_bool()?,
                    line: line_u32(c, "line")?,
                    in_fence: c.get("in_fence")?.as_bool()?,
                });
            }
            for a in f.get("allocs")?.as_arr()? {
                item.allocs.push(AllocSite {
                    what: a.get("what")?.as_str()?.to_string(),
                    line: line_u32(a, "line")?,
                });
            }
            for n in f.get("nondet")?.as_arr()? {
                item.nondet.push(NondetSite {
                    line: line_u32(n, "line")?,
                    kind: NondetKind::from_name(n.get("kind")?.as_str()?)?,
                    what: n.get("what")?.as_str()?.to_string(),
                });
            }
            for l in f.get("loops")?.as_arr()? {
                item.loops.push(u32::try_from(l.as_u64()?).ok()?);
            }
            for p in f.get("params")?.as_arr()? {
                item.params.push(p.as_str()?.to_string());
            }
            for b in f.get("binds")?.as_arr()? {
                item.binds.push(BindSite {
                    name: b.get("name")?.as_str()?.to_string(),
                    line: line_u32(b, "line")?,
                    expr: b.get("expr")?.as_str()?.to_string(),
                });
            }
            index.fns.push(item);
        }
        for f in j.get("fences")?.as_arr()? {
            let pair = f.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            index.fences.push((
                u32::try_from(pair[0].as_u64()?).ok()?,
                u32::try_from(pair[1].as_u64()?).ok()?,
            ));
        }
        for s in j.get("spawns")?.as_arr()? {
            let mut site = SpawnSite {
                line: line_u32(s, "line")?,
                in_test: s.get("in_test")?.as_bool()?,
                captures: Vec::new(),
            };
            for c in s.get("captures")?.as_arr()? {
                let kind = match c.get("kind")?.as_str()? {
                    "mut" => CaptureKind::MutBorrow,
                    "cell" => CaptureKind::CellLike(c.get("ty")?.as_str()?.to_string()),
                    _ => return None,
                };
                site.captures.push(Capture {
                    ident: c.get("ident")?.as_str()?.to_string(),
                    line: line_u32(c, "line")?,
                    kind,
                });
            }
            index.spawns.push(site);
        }
        for of in j.get("order_fences")?.as_arr()? {
            index.order_fences.push(OrderFence {
                line: line_u32(of, "line")?,
                reason: of.get("reason")?.as_str()?.to_string(),
            });
        }
        for l in j.get("locks")?.as_arr()? {
            index.locks.push(LockSite {
                line: line_u32(l, "line")?,
                in_test: l.get("in_test")?.as_bool()?,
                target: opt_str(l, "target")?,
                held_target: opt_str(l, "held_target")?,
            });
        }
        for (k, v) in j.get("consts")?.as_obj()? {
            index
                .consts
                .insert(k.clone(), u64::from_str_radix(v.as_str()?, 16).ok()?);
        }
        for w in j.get("waivers")?.as_arr()? {
            index.waivers.push(InlineWaiver {
                rule: crate::findings::Rule::from_name(w.get("rule")?.as_str()?)?,
                line: line_u32(w, "line")?,
                reason: w.get("reason")?.as_str()?.to_string(),
            });
        }
        for (k, v) in j.get("typed")?.as_obj()? {
            index.typed.insert(k.clone(), v.as_str()?.to_string());
        }
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn parse(src: &str) -> FileIndex {
        parse_file("crates/x/src/a.rs", &tokenize(src)).0
    }

    #[test]
    fn fn_items_record_owner_and_test_context() {
        let src = "\
struct S;
impl S {
    fn method(&self) -> u64 { helper(1) }
}
impl Default for S {
    fn default() -> S { S }
}
fn helper(x: u64) -> u64 { x }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { helper(2); }
}
";
        let idx = parse(src);
        let names: Vec<(&str, Option<&str>, bool, bool)> = idx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.is_test, f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("method", Some("S"), false, true),
                ("default", Some("S"), false, false),
                ("helper", None, false, false),
                ("t", None, true, false),
            ]
        );
        assert_eq!(idx.fns[0].calls.len(), 1);
        assert_eq!(idx.fns[0].calls[0].callee, "helper");
    }

    #[test]
    fn impl_type_resolution_handles_generics_and_traits() {
        let src = "\
impl<'a> Solver<'a> { fn go(&self) {} }
impl ToJson for NodeKey { fn to_json(&self) -> Json { Json::Null } }
";
        let idx = parse(src);
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Solver"));
        assert_eq!(idx.fns[1].owner.as_deref(), Some("NodeKey"));
    }

    #[test]
    fn calls_record_qualifier_receiver_and_fence() {
        let src = "\
fn hot(ws: &mut Workspace) {
    // lint:hot-path
    ws.reset(1, 2);
    Self::stage(ws);
    plain(3);
    // lint:hot-path-end
    cold();
}
";
        let idx = parse(src);
        let calls = &idx.fns[0].calls;
        assert_eq!(calls.len(), 4);
        assert_eq!(calls[0].recv.as_deref(), Some("ws"));
        assert!(calls[0].method && calls[0].in_fence);
        assert_eq!(calls[1].qual.as_deref(), Some("Self"));
        assert_eq!(calls[2].callee, "plain");
        assert!(calls[2].in_fence);
        assert_eq!(calls[3].callee, "cold");
        assert!(!calls[3].in_fence);
        assert_eq!(idx.typed.get("ws").map(String::as_str), Some("Workspace"));
    }

    #[test]
    fn allocs_are_recorded_per_fn() {
        let src = "\
fn a() -> Vec<u64> { Vec::new() }
fn b(xs: &[u64]) -> Vec<u64> { xs.to_vec() }
";
        let idx = parse(src);
        assert_eq!(idx.fns[0].allocs.len(), 1);
        assert_eq!(idx.fns[0].allocs[0].what, "`Vec::new()`");
        assert_eq!(idx.fns[1].allocs.len(), 1);
        assert_eq!(idx.fns[1].allocs[0].what, "`.to_vec()`");
    }

    #[test]
    fn spawn_captures_flag_mut_borrows_but_not_partitions() {
        let bad = "\
fn racy(data: &[u64]) {
    let mut total = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            let t = &mut total;
            *t += data.len() as u64;
        });
    });
}
";
        let idx = parse(bad);
        assert_eq!(idx.spawns.len(), 1);
        assert_eq!(idx.spawns[0].captures.len(), 1);
        assert_eq!(idx.spawns[0].captures[0].ident, "total");
        assert_eq!(idx.spawns[0].captures[0].kind, CaptureKind::MutBorrow);

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
        let idx = parse(ok);
        assert_eq!(idx.spawns.len(), 1);
        assert!(idx.spawns[0].captures.is_empty());
    }

    #[test]
    fn spawn_captures_bind_let_pattern_idents() {
        // `while let Some(mut item)` binds `item` inside the closure;
        // borrowing its fields mutably is not a capture. `outer` still
        // is.
        let src = "\
fn stealing(queues: &[Mutex<VecDeque<Item>>]) {
    let mut outer = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(mut item) = claim(queues) {
                drain(&mut item.unit);
            }
            let Wrapper { mut tally } = summarise(queues);
            push(&mut tally, &mut outer);
        });
    });
}
";
        let idx = parse(src);
        assert_eq!(idx.spawns.len(), 1);
        let caps: Vec<&str> = idx.spawns[0]
            .captures
            .iter()
            .map(|c| c.ident.as_str())
            .collect();
        assert_eq!(caps, vec!["outer"]);
    }

    #[test]
    fn spawn_captures_flag_cell_like_state() {
        let src = "\
fn cell_shared() {
    let counter = RefCell::new(0u64);
    std::thread::scope(|s| {
        s.spawn(|| { counter.borrow_mut(); });
    });
}
";
        let idx = parse(src);
        assert_eq!(idx.spawns[0].captures.len(), 1);
        assert_eq!(
            idx.spawns[0].captures[0].kind,
            CaptureKind::CellLike("RefCell".to_string())
        );
    }

    #[test]
    fn nondet_sources_detected_per_fn() {
        let src = "\
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
fn stamp() -> u64 {
    let t = Instant::now();
    let id = thread::current().id();
    0
}
fn addr(xs: &[u64]) -> usize {
    xs.as_ptr() as usize
}
fn indexed(xs: &[u64], i: usize) -> u64 {
    xs[i as usize]
}
";
        let idx = parse(src);
        let kinds: Vec<Vec<NondetKind>> = idx
            .fns
            .iter()
            .map(|f| f.nondet.iter().map(|n| n.kind).collect())
            .collect();
        assert_eq!(
            kinds,
            vec![
                vec![NondetKind::Parallelism],
                vec![NondetKind::WallClock, NondetKind::ThreadId],
                vec![NondetKind::AddrCast],
                vec![],
            ]
        );
    }

    #[test]
    fn order_fences_require_reasons() {
        let src = "\
fn capped(jobs: usize) -> usize {
    // lint:order-invisible worker count only splits the queue
    let n = std::thread::available_parallelism().map_or(1, |x| x.get());
    // lint:order-invisible
    let m = std::thread::available_parallelism().map_or(1, |x| x.get());
    n + m
}
";
        let (idx, findings) = parse_file("crates/x/src/a.rs", &tokenize(src));
        assert_eq!(idx.order_fences.len(), 1);
        assert_eq!(idx.order_fences[0].line, 2);
        assert_eq!(
            idx.order_fences[0].reason,
            "worker count only splits the queue"
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::Waiver);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn lock_sites_track_guard_liveness() {
        let src = "\
fn nested(a: &Mutex<u64>, b: &Mutex<u64>) {
    let first = a.lock().unwrap();
    let second = b.lock().unwrap();
}
fn disciplined(a: &Mutex<u64>, b: &Mutex<u64>) {
    let v = *a.lock().unwrap();
    let w = b.lock().unwrap();
}
fn dropped(a: &Mutex<u64>, b: &Mutex<u64>) {
    let g = a.lock().unwrap();
    drop(g);
    let h = b.lock().unwrap();
}
fn scoped(a: &Mutex<u64>, b: &Mutex<u64>) {
    { let g = a.lock().unwrap(); }
    let h = b.lock().unwrap();
}
fn stdio() {
    let out = std::io::stdout().lock();
}
";
        let idx = parse(src);
        let held: Vec<(u32, Option<&str>)> = idx
            .locks
            .iter()
            .map(|l| (l.line, l.held_target.as_deref()))
            .collect();
        assert_eq!(
            held,
            vec![
                (2, None),
                (3, Some("a")),
                (6, None),
                (7, None),
                (10, None),
                (12, None),
                (15, None),
                (16, None),
                // A call-result receiver names no lock-order node.
                (19, None),
            ]
        );
    }

    #[test]
    fn lock_sites_flag_two_locks_in_one_statement() {
        // Both sites are recorded, but the two temporaries die with the
        // statement: neither is a held guard, so neither orders the other.
        let src = "\
fn transfer(a: &Mutex<u64>, b: &Mutex<u64>) {
    swap(&mut *a.lock().unwrap(), &mut *b.lock().unwrap());
}
";
        let idx = parse(src);
        let held: Vec<(u32, Option<&str>)> = idx
            .locks
            .iter()
            .map(|l| (l.line, l.held_target.as_deref()))
            .collect();
        assert_eq!(held, vec![(2, None), (2, None)]);
    }

    #[test]
    fn spawn_captures_leave_sync_state_alone() {
        // Mutex and atomic captures are the sanctioned sharing patterns:
        // storing into them, deref-assigning a slot, or polling a flag
        // is no R1 capture.
        for src in [
            "\
fn lost(xs: &[u64]) {
    let collected = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for x in xs {
            s.spawn(move || { collected.lock().unwrap().push(*x); });
        }
    });
}
",
            "\
fn merged(xs: &[u64]) -> Vec<u64> {
    let slots: Vec<Mutex<u64>> = xs.iter().map(|_| Mutex::new(0)).collect();
    std::thread::scope(|s| {
        for (i, x) in xs.iter().enumerate() {
            s.spawn(move || { *slots[i].lock().unwrap() = *x; });
        }
    });
    slots.iter().map(|m| *m.lock().unwrap()).collect()
}
",
            "\
fn reads(flag: &AtomicBool) {
    std::thread::scope(|s| {
        s.spawn(move || { while !flag.load(Ordering::Acquire) {} });
    });
}
",
        ] {
            let idx = parse(src);
            assert_eq!(idx.spawns.len(), 1, "{src}");
            assert!(idx.spawns[0].captures.is_empty(), "{src}");
        }
    }

    #[test]
    fn fn_fold_evidence_counts_loops_and_folds() {
        let src = "\
fn looped(xs: &[u64]) -> u64 {
    let mut acc = 0;
    for x in xs { acc += x; }
    acc
}
fn folded(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |a, b| a + b)
}
fn neither(x: u64) -> u64 { x }
";
        let idx = parse(src);
        assert!(FileIndex::fn_folds_in_order(&idx.fns[0]));
        assert!(FileIndex::fn_folds_in_order(&idx.fns[1]));
        assert!(!FileIndex::fn_folds_in_order(&idx.fns[2]));
    }

    #[test]
    fn index_json_round_trips() {
        let src = "\
const BANKS: u64 = 16;
fn hot(ws: &mut Workspace) {
    // lint:hot-path
    ws.reset(SplitMix64::new(9));
    let g = LOCKED.lock().unwrap();
    // lint:hot-path-end
    // lint:allow(hash-iter) demo reason
    std::thread::scope(|s| { s.spawn(|| { let x = &mut GLOBALISH; }); });
}
fn capped(done: &AtomicUsize) -> usize {
    // lint:order-invisible worker count only splits the queue
    let n = std::thread::available_parallelism().map_or(1, |x| x.get());
    std::thread::scope(|s| { s.spawn(move || { done.fetch_add(1, Ordering::SeqCst); }); });
    for i in 0..n { let _ = i; }
    n
}
fn slot(addr: u64) -> u64 {
    let bank = (addr >> 10) % BANKS;
    bank
}
";
        let idx = parse(src);
        assert!(!idx.order_fences.is_empty());
        assert!(!idx.locks.is_empty());
        assert!(idx.spawns.iter().any(|s| !s.captures.is_empty()));
        assert!(idx.fns.iter().any(|f| !f.nondet.is_empty()));
        assert!(idx.fns.iter().any(|f| !f.binds.is_empty()));
        assert!(idx.fns.iter().any(|f| !f.params.is_empty()));
        assert!(idx.locks.iter().any(|l| l.target.is_some()));
        assert_eq!(idx.consts.get("BANKS"), Some(&16));
        let back = FileIndex::from_json(&idx.to_json()).expect("round trip");
        assert_eq!(back, idx);
    }

    #[test]
    fn binds_capture_lets_assignments_returns_and_tails() {
        let src = "\
fn mix(block: u64, banks: u64) -> u64 {
    let mut g = block ^ ( block >> 5 );
    g ^= block >> 9;
    if g > 100 {
        return g & 0xFF;
    }
    g % banks
}
";
        let idx = parse(src);
        assert_eq!(idx.fns[0].params, vec!["block", "banks"]);
        let binds: Vec<(&str, u32, &str)> = idx.fns[0]
            .binds
            .iter()
            .map(|b| (b.name.as_str(), b.line, b.expr.as_str()))
            .collect();
        assert_eq!(
            binds,
            vec![
                ("g", 2, "block ^ ( block > > 5 )"),
                ("g", 3, "g ^ ( block > > 9 )"),
                ("=ret", 5, "g & 0xFF"),
                ("=ret", 7, "g % banks"),
            ]
        );
    }

    #[test]
    fn binds_capture_tail_if_branches_per_branch() {
        let src = "\
fn pick(x: u64, fallback: u64) -> u64 {
    if x > 3 {
        x >> 2
    } else {
        fallback
    }
}
";
        let idx = parse(src);
        let binds: Vec<(&str, &str)> = idx.fns[0]
            .binds
            .iter()
            .map(|b| (b.name.as_str(), b.expr.as_str()))
            .collect();
        assert_eq!(binds, vec![("=ret", "x > > 2"), ("=ret", "fallback")]);
    }

    #[test]
    fn lock_sites_record_targets_for_l3() {
        let src = "\
fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
    let g = a.lock().unwrap();
    let h = b.lock().unwrap();
}
fn indexed(slots: &[Mutex<u64>], i: usize) {
    let g = slots[i].lock().unwrap();
}
";
        let idx = parse(src);
        let targets: Vec<(Option<&str>, Option<&str>)> = idx
            .locks
            .iter()
            .map(|l| (l.target.as_deref(), l.held_target.as_deref()))
            .collect();
        assert_eq!(
            targets,
            vec![
                (Some("a"), None),
                (Some("b"), Some("a")),
                (Some("slots"), None),
            ]
        );
    }
}
