//! Bit-provenance abstract interpretation (DESIGN.md §16).
//!
//! An intraprocedural abstract interpreter over the integer expressions
//! [`crate::parse`] captures as `BindSite`s. For every local it
//! tracks, per function parameter, the set of *source bit lanes* the
//! value can depend on: masks narrow lanes, shifts translate them,
//! XOR/OR folds union them (and remember that they folded), additions
//! smear the per-bit alignment, unknown operations fall back to a
//! saturating join over the identifiers they mention. Per-function
//! summaries (param lanes → return lanes) are propagated over the
//! conservative call graph's symbol table, to convergence and
//! re-evaluating a function only when a callee's summary changed, so
//! helpers like `bank_mix` compose across files.
//!
//! One rule lives on top, next to the L3 lock-order graph pass
//! ([`check_lock_order`]): **B1 correlated-selectors**
//! ([`check_lanes`]) — two bounded selector values in one fn whose lane
//! sets intersect on the same source parameter, the PR 8 interleave bug
//! class. A selector that XOR-folds disjoint higher lanes across the
//! overlap (the `bank_mix` pattern) is recognized as decorrelated and
//! stays silent.
//!
//! Like the rest of the linter this is a tripwire, not a proof: branch
//! *conditions* do not contribute dependence, additive carries are
//! treated as lane-preserving, and selector-hood is approximated by
//! boundedness (`% literal` or a small power-of-two mask). DESIGN.md
//! §16 spells out the caveats.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::callgraph::{FnKey, Symbols};
use crate::findings::{Finding, Rule};
use crate::parse::{int_literal, BindSite, CallSite, FileIndex, FnItem, RET_BIND};

/// Masks larger than this are windows, not selectors (`& 0xFFF` grabs
/// an offset; `& 0xF` picks a slot).
const MAX_SELECTOR_BOUND: u64 = 256;

// ---------------------------------------------------------------------
// The lattice.
// ---------------------------------------------------------------------

/// Dependency-lane info for one source parameter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lanes {
    /// Source bits the value may depend on.
    pub(crate) lanes: u64,
    /// Alignment: with `Some(s)`, value bit `b` depends only on source
    /// bit `b + s`. `None` means smeared — the per-bit correspondence
    /// is lost (additions, unknown ops) but the lane *set* still holds.
    pub(crate) shift: Option<i32>,
    /// Lanes that arrived via a multi-alignment XOR/OR fold — entropy
    /// mixed across bit positions, the sanctioned decorrelator.
    pub(crate) folded: u64,
}

/// Abstract value: per-parameter lane dependencies plus constant and
/// selector refinements.
#[derive(Debug, Clone, Default)]
pub(crate) struct AbsVal {
    /// Parameter index → lane info. Empty = no tracked dependence.
    pub(crate) deps: BTreeMap<usize, Lanes>,
    /// Known constant value.
    pub(crate) konst: Option<u64>,
    /// The value is range-bounded like a selector (`% m`, small mask).
    pub(crate) bounded: bool,
}

impl AbsVal {
    fn constant(v: u64) -> AbsVal {
        AbsVal {
            konst: Some(v),
            ..AbsVal::default()
        }
    }

    /// Restores the `folded ⊆ lanes` invariant and drops empty deps.
    fn normalize(mut self) -> AbsVal {
        for l in self.deps.values_mut() {
            l.folded &= l.lanes;
        }
        self.deps.retain(|_, l| l.lanes != 0);
        self
    }
}

/// Bits at positions `>= n` (the whole word for `n <= 0`).
fn mask_ge(n: i32) -> u64 {
    if n <= 0 {
        u64::MAX
    } else if n >= 64 {
        0
    } else {
        u64::MAX << n
    }
}

/// Translates a value-space mask into source-lane space: with
/// alignment `s`, value bit `b` corresponds to source bit `b + s`.
fn shift_mask(m: u64, s: i32) -> u64 {
    if s >= 64 || s <= -64 {
        0
    } else if s >= 0 {
        m << s
    } else {
        m >> (-s)
    }
}

/// Lattice join: union of lane sets, agreement-or-loss on refinements.
fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let mut deps = a.deps.clone();
    for (p, lb) in &b.deps {
        deps.entry(*p)
            .and_modify(|la| {
                la.lanes |= lb.lanes;
                la.folded |= lb.folded;
                if la.shift != lb.shift {
                    la.shift = None;
                }
            })
            .or_insert(*lb);
    }
    AbsVal {
        deps,
        konst: if a.konst == b.konst { a.konst } else { None },
        bounded: a.bounded && b.bounded,
    }
    .normalize()
}

/// Merge for operators that combine bit patterns per position
/// (`^`/`|`): same-alignment deps stay aligned; mixed alignments mark
/// every involved lane as folded.
fn bitmix(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let mut deps = a.deps.clone();
    for (p, lb) in &b.deps {
        deps.entry(*p)
            .and_modify(|la| {
                let both = la.lanes | lb.lanes;
                if la.shift == lb.shift && la.shift.is_some() {
                    la.lanes = both;
                    la.folded |= lb.folded;
                } else {
                    // Two alignments of the same source meet: that is
                    // the XOR-fold decorrelation pattern.
                    la.lanes = both;
                    la.folded = both;
                    la.shift = None;
                }
            })
            .or_insert(*lb);
    }
    AbsVal {
        deps,
        ..AbsVal::default()
    }
    .normalize()
}

/// Merge for carry-propagating or otherwise alignment-destroying
/// binary ops (`+`, `-`, unknown): union the lane sets, smear.
fn smear(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let mut out = join(a, b);
    for l in out.deps.values_mut() {
        l.shift = None;
    }
    out.konst = None;
    out.bounded = false;
    out
}

// ---------------------------------------------------------------------
// Per-function summaries.
// ---------------------------------------------------------------------

/// How one parameter flows into a function's return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParamFlow {
    /// Param bits that can reach the return value (param-bit space).
    pub(crate) mask: u64,
    /// Return alignment relative to the param, when preserved.
    pub(crate) shift: Option<i32>,
    /// The flow passes through a multi-alignment fold.
    pub(crate) folded: bool,
}

/// Lane summary for one function: per-param flows plus whether the
/// return value is a selector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FnSummary {
    /// Indexed by parameter position; `None` = does not flow.
    pub(crate) flows: Vec<Option<ParamFlow>>,
    /// The return value is selector-bounded.
    pub(crate) bounded: bool,
}

fn summarize(f: &FnItem, ret: &AbsVal) -> FnSummary {
    let flows = (0..f.params.len())
        .map(|i| {
            ret.deps.get(&i).map(|l| ParamFlow {
                mask: l.lanes,
                shift: l.shift,
                folded: l.folded != 0,
            })
        })
        .collect();
    FnSummary {
        flows,
        bounded: ret.bounded,
    }
}

/// Instantiates a callee summary at a call site: callee param-space
/// masks translate through each argument's alignment into caller
/// source-lane space, shifts compose, folds propagate.
fn apply_summary(sum: &FnSummary, args: &[AbsVal]) -> AbsVal {
    let mut out = AbsVal {
        bounded: sum.bounded,
        ..AbsVal::default()
    };
    for (i, arg) in args.iter().enumerate() {
        let flow = match sum.flows.get(i) {
            Some(Some(flow)) => *flow,
            // Known non-flowing param: the argument is dropped.
            Some(None) => continue,
            // Arity mismatch (method receivers, variadic-looking
            // macros): keep the argument conservatively, smeared.
            None => ParamFlow {
                mask: u64::MAX,
                shift: None,
                folded: false,
            },
        };
        for (p, l) in &arg.deps {
            let lanes = match l.shift {
                Some(s) => shift_mask(flow.mask, s) & l.lanes,
                None => l.lanes,
            };
            if lanes == 0 {
                continue;
            }
            let shift = match (l.shift, flow.shift) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            let folded = (l.folded & lanes) | if flow.folded { lanes } else { 0 };
            let entry = out.deps.entry(*p).or_default();
            entry.lanes |= lanes;
            entry.folded |= folded;
            entry.shift = if entry.lanes == lanes { shift } else { None };
        }
    }
    out.normalize()
}

// ---------------------------------------------------------------------
// Expression evaluation over the encoded BindSite token stream.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EKind {
    Num,
    Ident,
    Opaque,
    Punct(char),
}

/// Decodes a [`BindSite::expr`] back into classified tokens: words are
/// re-typed by their first character (digit → number, letter/`_` →
/// identifier, `#` → opaque literal, anything else → punct).
fn decode(expr: &str) -> Vec<(EKind, &str)> {
    expr.split_whitespace()
        .map(|w| {
            let first = w.chars().next().unwrap_or(' ');
            let kind = if first.is_ascii_digit() {
                EKind::Num
            } else if first.is_alphabetic() || first == '_' {
                EKind::Ident
            } else if first == '#' {
                EKind::Opaque
            } else {
                EKind::Punct(first)
            };
            (kind, w)
        })
        .collect()
}

/// Callee summary lookup used by the evaluator for call expressions.
type Resolver<'a> = dyn Fn(Option<&str>, &str, Option<&str>, bool, &[AbsVal]) -> AbsVal + 'a;

struct Eval<'a> {
    toks: &'a [(EKind, &'a str)],
    pos: usize,
    env: &'a BTreeMap<String, AbsVal>,
    consts: &'a BTreeMap<String, u64>,
    resolve: &'a Resolver<'a>,
}

type EvalResult = Result<AbsVal, ()>;

impl<'a> Eval<'a> {
    fn peek(&self, ahead: usize) -> Option<(EKind, &'a str)> {
        self.toks.get(self.pos + ahead).copied()
    }

    fn is_punct(&self, ahead: usize, c: char) -> bool {
        matches!(self.peek(ahead), Some((EKind::Punct(p), _)) if p == c)
    }

    fn bump(&mut self) -> Option<(EKind, &'a str)> {
        let t = self.peek(0);
        self.pos += 1;
        t
    }

    /// Entry point: loosest level, comparisons and boolean connectives
    /// (whose integer content the lattice does not track).
    fn expr(&mut self) -> EvalResult {
        let mut v = self.or_level()?;
        loop {
            // `==` `!=` `<=` `>=` `<` `>` `&&` `||` — consume and keep
            // only the dependency union, smeared.
            let (a, b) = (self.peek(0), self.peek(1));
            let two = |x: char, y: char| matches!((a, b), (Some((EKind::Punct(p), _)), Some((EKind::Punct(q), _))) if p == x && q == y);
            let one_cmp = matches!(a, Some((EKind::Punct(p), _)) if p == '<' || p == '>');
            if two('=', '=')
                || two('!', '=')
                || two('<', '=')
                || two('>', '=')
                || two('&', '&')
                || two('|', '|')
            {
                self.pos += 2;
            } else if one_cmp {
                self.pos += 1;
            } else {
                return Ok(v);
            }
            let rhs = self.or_level()?;
            v = smear(&v, &rhs);
        }
    }

    fn or_level(&mut self) -> EvalResult {
        let mut v = self.xor_level()?;
        while self.is_punct(0, '|') && !self.is_punct(1, '|') {
            self.pos += 1;
            let rhs = self.xor_level()?;
            v = self.bitwise(&v, &rhs, false);
        }
        Ok(v)
    }

    fn xor_level(&mut self) -> EvalResult {
        let mut v = self.and_level()?;
        while self.is_punct(0, '^') {
            self.pos += 1;
            let rhs = self.and_level()?;
            v = self.bitwise(&v, &rhs, true);
        }
        Ok(v)
    }

    fn and_level(&mut self) -> EvalResult {
        let mut v = self.shift_level()?;
        while self.is_punct(0, '&') && !self.is_punct(1, '&') {
            self.pos += 1;
            let rhs = self.shift_level()?;
            v = and_op(&v, &rhs);
        }
        Ok(v)
    }

    fn shift_level(&mut self) -> EvalResult {
        let mut v = self.add_level()?;
        loop {
            let (left, right) = (
                self.is_punct(0, '<') && self.is_punct(1, '<'),
                self.is_punct(0, '>') && self.is_punct(1, '>'),
            );
            if !left && !right {
                return Ok(v);
            }
            self.pos += 2;
            let rhs = self.add_level()?;
            v = shift_op(&v, &rhs, left);
        }
    }

    fn add_level(&mut self) -> EvalResult {
        let mut v = self.mul_level()?;
        loop {
            let plus = self.is_punct(0, '+');
            let minus = self.is_punct(0, '-') && !self.is_punct(1, '>');
            if !plus && !minus {
                return Ok(v);
            }
            self.pos += 1;
            let rhs = self.mul_level()?;
            v = add_op(&v, &rhs, plus);
        }
    }

    fn mul_level(&mut self) -> EvalResult {
        let mut v = self.cast_level()?;
        loop {
            let op = match self.peek(0) {
                Some((EKind::Punct(p), _)) if p == '*' || p == '/' || p == '%' => p,
                _ => return Ok(v),
            };
            self.pos += 1;
            let rhs = self.cast_level()?;
            v = match op {
                '*' => mul_op(&v, &rhs),
                '/' => div_op(&v, &rhs),
                _ => mod_op(&v, &rhs),
            };
        }
    }

    fn cast_level(&mut self) -> EvalResult {
        let mut v = self.unary()?;
        while matches!(self.peek(0), Some((EKind::Ident, "as"))) {
            self.pos += 1;
            let Some((EKind::Ident, ty)) = self.bump() else {
                return Err(());
            };
            v = cast_op(&v, ty);
        }
        Ok(v)
    }

    fn unary(&mut self) -> EvalResult {
        match self.peek(0) {
            Some((EKind::Punct('!'), _)) => {
                self.pos += 1;
                let mut v = self.unary()?;
                v.konst = v.konst.map(|k| !k);
                v.bounded = false;
                Ok(v)
            }
            Some((EKind::Punct('-'), _)) => {
                self.pos += 1;
                let v = self.unary()?;
                Ok(smear(&v, &AbsVal::default()))
            }
            // References and derefs are lane-transparent.
            Some((EKind::Punct('&'), _)) | Some((EKind::Punct('*'), _)) => {
                self.pos += 1;
                if matches!(self.peek(0), Some((EKind::Ident, "mut"))) {
                    self.pos += 1;
                }
                self.unary()
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> EvalResult {
        let (mut v, mut recv) = self.primary()?;
        loop {
            if self.is_punct(0, '?') {
                self.pos += 1;
                continue;
            }
            if !self.is_punct(0, '.') {
                return Ok(v);
            }
            match self.peek(1) {
                // Tuple/newtype field access keeps the value (`t.0`).
                Some((EKind::Num, _)) => {
                    self.pos += 2;
                }
                Some((EKind::Ident, name)) => {
                    if self.is_punct(2, '(') {
                        self.pos += 3;
                        let args = self.call_args()?;
                        v = self.method(&v, recv, name, &args);
                    } else {
                        // Struct field: dependence unknown — keep the
                        // base's deps, smeared.
                        self.pos += 2;
                        v = smear(&v, &AbsVal::default());
                    }
                    recv = None;
                }
                _ => return Err(()),
            }
        }
    }

    /// Parses a parenthesized argument list, positioned after the `(`.
    fn call_args(&mut self) -> Result<Vec<AbsVal>, ()> {
        let mut args = Vec::new();
        if self.is_punct(0, ')') {
            self.pos += 1;
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.is_punct(0, ',') {
                self.pos += 1;
                continue;
            }
            if self.is_punct(0, ')') {
                self.pos += 1;
                return Ok(args);
            }
            return Err(());
        }
    }

    fn method(
        &mut self,
        base: &AbsVal,
        recv: Option<&'a str>,
        name: &str,
        args: &[AbsVal],
    ) -> AbsVal {
        match (name, args) {
            ("wrapping_add", [a]) => add_op(base, a, true),
            ("wrapping_sub", [a]) => add_op(base, a, false),
            ("wrapping_mul", [a]) => mul_op(base, a),
            ("unwrap" | "expect" | "clone" | "into" | "get" | "copied", _) => base.clone(),
            ("min", [a]) => {
                let mut out = join(base, a);
                out.bounded = base.bounded || a.bounded;
                out
            }
            ("max", [a]) => {
                let mut out = join(base, a);
                out.bounded = base.bounded && a.bounded;
                out
            }
            _ => {
                // Workspace method: resolve through the symbol table;
                // unknown methods degrade to a smeared join there.
                let with_recv: Vec<AbsVal> = std::iter::once(base.clone())
                    .chain(args.iter().cloned())
                    .collect();
                (self.resolve)(None, name, recv, true, &with_recv)
            }
        }
    }

    /// Primary expression; also returns the receiver identifier when
    /// the primary was a plain identifier (for method resolution).
    fn primary(&mut self) -> Result<(AbsVal, Option<&'a str>), ()> {
        match self.bump() {
            Some((EKind::Num, text)) => Ok((
                int_literal(text).map_or_else(AbsVal::default, AbsVal::constant),
                None,
            )),
            Some((EKind::Opaque, _)) => Ok((AbsVal::default(), None)),
            Some((EKind::Punct('('), _)) => {
                let mut v = self.expr()?;
                // Tuples join their elements.
                while self.is_punct(0, ',') {
                    self.pos += 1;
                    if self.is_punct(0, ')') {
                        break;
                    }
                    let next = self.expr()?;
                    v = join(&v, &next);
                }
                if !self.is_punct(0, ')') {
                    return Err(());
                }
                self.pos += 1;
                Ok((v, None))
            }
            Some((EKind::Ident, "if")) => self.if_chain().map(|v| (v, None)),
            Some((EKind::Ident, "as")) => Err(()),
            Some((EKind::Ident, name)) => {
                // Path segments: `Qual :: name` (constants or calls).
                if self.is_punct(0, ':') && self.is_punct(1, ':') {
                    let mut qual = name;
                    let mut last = name;
                    while self.is_punct(0, ':') && self.is_punct(1, ':') {
                        self.pos += 2;
                        match self.bump() {
                            Some((EKind::Ident, seg)) => {
                                qual = last;
                                last = seg;
                            }
                            _ => return Err(()),
                        }
                    }
                    if self.is_punct(0, '(') {
                        self.pos += 1;
                        let args = self.call_args()?;
                        return Ok(((self.resolve)(Some(qual), last, None, false, &args), None));
                    }
                    if last == "MAX" {
                        return Ok((AbsVal::constant(u64::MAX), None));
                    }
                    return Ok((AbsVal::default(), None));
                }
                // Macro invocation: skip its group, value unknown.
                if self.is_punct(0, '!') && (self.is_punct(1, '(') || self.is_punct(1, '[')) {
                    self.pos += 1;
                    self.skip_group()?;
                    return Ok((AbsVal::default(), None));
                }
                // Bare call.
                if self.is_punct(0, '(') {
                    self.pos += 1;
                    let args = self.call_args()?;
                    return Ok(((self.resolve)(None, name, None, false, &args), None));
                }
                // Struct literal: bail to the fallback join.
                if self.is_punct(0, '{') {
                    return Err(());
                }
                if let Some(v) = self.env.get(name) {
                    return Ok((v.clone(), Some(name)));
                }
                if let Some(&c) = self.consts.get(name) {
                    return Ok((AbsVal::constant(c), Some(name)));
                }
                Ok((AbsVal::default(), Some(name)))
            }
            _ => Err(()),
        }
    }

    /// `if cond { .. } else if cond { .. } else { .. }` as a value:
    /// the join of the branch groups. Condition dependence is ignored
    /// (documented soundness caveat).
    fn if_chain(&mut self) -> EvalResult {
        let mut v: Option<AbsVal> = None;
        loop {
            // Skip the condition: everything up to the `{` at depth 0.
            let mut depth = 0i32;
            loop {
                match self.peek(0) {
                    Some((EKind::Punct('(' | '['), _)) => depth += 1,
                    Some((EKind::Punct(')' | ']'), _)) => depth -= 1,
                    Some((EKind::Punct('{'), _)) if depth == 0 => break,
                    None => return Err(()),
                    _ => {}
                }
                self.pos += 1;
            }
            let body = self.brace_group()?;
            let branch = eval_span(&body, self.env, self.consts, self.resolve);
            v = Some(match v {
                Some(prev) => join(&prev, &branch),
                None => branch,
            });
            if matches!(self.peek(0), Some((EKind::Ident, "else"))) {
                self.pos += 1;
                if matches!(self.peek(0), Some((EKind::Ident, "if"))) {
                    self.pos += 1;
                    continue;
                }
                let body = self.brace_group()?;
                let branch = eval_span(&body, self.env, self.consts, self.resolve);
                v = Some(join(&v.unwrap_or_default(), &branch));
            }
            // A missing else-branch yields `()`: join with nothing.
            return v.ok_or(());
        }
    }

    /// Consumes a `{ .. }` group (cursor on the `{`), returning the
    /// interior tokens.
    fn brace_group(&mut self) -> Result<Vec<(EKind, &'a str)>, ()> {
        if !self.is_punct(0, '{') {
            return Err(());
        }
        let start = self.pos + 1;
        self.skip_group()?;
        Ok(self.toks[start..self.pos - 1].to_vec())
    }

    /// Skips one balanced bracket group (cursor on the opener).
    fn skip_group(&mut self) -> Result<(), ()> {
        let mut depth = 0i32;
        while let Some((k, _)) = self.peek(0) {
            match k {
                EKind::Punct('(' | '[' | '{') => depth += 1,
                EKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return Ok(());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(())
    }

    fn bitwise(&self, a: &AbsVal, b: &AbsVal, xor: bool) -> AbsVal {
        let mut out = bitmix(a, b);
        out.konst = match (a.konst, b.konst) {
            (Some(x), Some(y)) => Some(if xor { x ^ y } else { x | y }),
            _ => None,
        };
        out
    }
}

/// Evaluates one encoded expression; parse failures and leftover tokens
/// fall back to a smeared join over every identifier the expression
/// mentions — dependence is never silently dropped.
fn eval_tokens(
    toks: &[(EKind, &str)],
    env: &BTreeMap<String, AbsVal>,
    consts: &BTreeMap<String, u64>,
    resolve: &Resolver<'_>,
) -> AbsVal {
    let mut ev = Eval {
        toks,
        pos: 0,
        env,
        consts,
        resolve,
    };
    match ev.expr() {
        Ok(v) if ev.pos == toks.len() => v,
        _ => {
            let mut out = AbsVal::default();
            for (k, text) in toks {
                if *k == EKind::Ident {
                    if let Some(v) = env.get(*text) {
                        out = smear(&out, v);
                    }
                }
            }
            out
        }
    }
}

fn eval_span(
    toks: &[(EKind, &str)],
    env: &BTreeMap<String, AbsVal>,
    consts: &BTreeMap<String, u64>,
    resolve: &Resolver<'_>,
) -> AbsVal {
    eval_tokens(toks, env, consts, resolve)
}

// ---------------------------------------------------------------------
// Transfer functions.
// ---------------------------------------------------------------------

fn shift_op(a: &AbsVal, b: &AbsVal, left: bool) -> AbsVal {
    let Some(k) = b
        .konst
        .and_then(|k| i32::try_from(k).ok())
        .filter(|k| *k < 64)
    else {
        // Shift by an unknown amount: lanes survive, alignment dies.
        return smear(a, &AbsVal::default());
    };
    let mut out = a.clone();
    out.bounded = false;
    out.konst = a.konst.map(|x| if left { x << k } else { x >> k });
    for l in out.deps.values_mut() {
        if let Some(s) = l.shift {
            if left {
                // Value bits above 63 - k fall off the top.
                l.lanes &= !mask_ge(s + 64 - k);
                l.shift = Some(s - k);
            } else {
                // Value bits below k are discarded.
                l.lanes &= mask_ge(s + k);
                l.shift = Some(s + k);
            }
        }
    }
    out.normalize()
}

fn and_op(a: &AbsVal, b: &AbsVal) -> AbsVal {
    // Lane narrowing only composes against a known mask; `x & (m - 1)`
    // with unknown `m` (a runtime mask, as in the address decode) keeps
    // lanes and does NOT become a selector — runtime masks are windows
    // until proven otherwise.
    let (v, m) = match (a.konst, b.konst) {
        (_, Some(m)) => (a, m),
        (Some(m), _) => (b, m),
        _ => {
            let mut out = smear(a, b);
            out.konst = None;
            return out;
        }
    };
    let mut out = v.clone();
    out.konst = match (a.konst, b.konst) {
        (Some(x), Some(y)) => Some(x & y),
        _ => None,
    };
    for l in out.deps.values_mut() {
        if let Some(s) = l.shift {
            l.lanes &= shift_mask(m, s);
        }
    }
    // A small power-of-two-sized mask is a selector.
    let size = m.wrapping_add(1);
    if size.is_power_of_two() && size <= MAX_SELECTOR_BOUND {
        out.bounded = true;
    }
    out.normalize()
}

fn add_op(a: &AbsVal, b: &AbsVal, plus: bool) -> AbsVal {
    let mut out = smear(a, b);
    out.konst = match (a.konst, b.konst) {
        (Some(x), Some(y)) => Some(if plus {
            x.wrapping_add(y)
        } else {
            x.wrapping_sub(y)
        }),
        _ => None,
    };
    out
}

fn mul_op(a: &AbsVal, b: &AbsVal) -> AbsVal {
    // Multiplication by a power of two is a left shift.
    for (v, k) in [(a, b.konst), (b, a.konst)] {
        if let Some(k) = k.filter(|k| k.is_power_of_two()) {
            return shift_op(v, &AbsVal::constant(u64::from(k.trailing_zeros())), true);
        }
    }
    let mut out = smear(a, b);
    out.konst = match (a.konst, b.konst) {
        (Some(x), Some(y)) => Some(x.wrapping_mul(y)),
        _ => None,
    };
    out
}

fn div_op(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let Some(k) = b.konst.filter(|k| k.is_power_of_two()) {
        return shift_op(a, &AbsVal::constant(u64::from(k.trailing_zeros())), false);
    }
    smear(a, b)
}

fn mod_op(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match b.konst {
        Some(m) if m.is_power_of_two() => {
            // `% 2^k` == `& (2^k - 1)`, which also marks the selector.
            let mut out = and_op(a, &AbsVal::constant(m - 1));
            out.konst = a.konst.map(|x| x % m);
            out.bounded = true;
            out
        }
        Some(m) if m > 0 => {
            // Non-power-of-two modulus: every lane leaks into every
            // result bit, but the result is selector-bounded.
            let mut out = smear(a, &AbsVal::default());
            out.konst = a.konst.map(|x| x % m);
            out.bounded = true;
            out
        }
        _ => {
            // `% unknown`: bounded by construction; the divisor's own
            // lanes leak in.
            let mut out = smear(a, b);
            out.bounded = true;
            out
        }
    }
}

fn cast_op(a: &AbsVal, ty: &str) -> AbsVal {
    let width: u32 = match ty {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        _ => return a.clone(), // u64/usize/f64/...: lane-transparent
    };
    let mask = (1u64 << width) - 1;
    let mut out = a.clone();
    out.konst = a.konst.map(|x| x & mask);
    for l in out.deps.values_mut() {
        if let Some(s) = l.shift {
            l.lanes &= shift_mask(mask, s);
        }
    }
    out.normalize()
}

// ---------------------------------------------------------------------
// Per-function evaluation & workspace fixpoint.
// ---------------------------------------------------------------------

/// Evaluated bind values for one fn, in source order.
struct FnLanes {
    /// `(bind index, value)` for every captured bind.
    vals: Vec<(usize, AbsVal)>,
    /// Join of all return/tail values, when any parsed.
    ret: Option<AbsVal>,
    /// Every workspace fn a call in the body resolved to, sorted and
    /// deduplicated: the summaries this evaluation read.
    callees: Vec<FnKey>,
}

fn eval_fn(
    files: &[(String, FileIndex)],
    symbols: &Symbols<'_>,
    summaries: &BTreeMap<FnKey, FnSummary>,
    key: FnKey,
) -> FnLanes {
    let (fi, gi) = key;
    let index = &files[fi].1;
    let f = &index.fns[gi];
    let mut env: BTreeMap<String, AbsVal> = BTreeMap::new();
    for (i, p) in f.params.iter().enumerate() {
        env.insert(
            p.clone(),
            AbsVal {
                deps: BTreeMap::from([(
                    i,
                    Lanes {
                        lanes: u64::MAX,
                        shift: Some(0),
                        folded: 0,
                    },
                )]),
                ..AbsVal::default()
            },
        );
    }
    let callees = RefCell::new(Vec::new());
    let mut vals = Vec::new();
    let mut ret: Option<AbsVal> = None;
    for (bi, bind) in f.binds.iter().enumerate() {
        let resolve = |qual: Option<&str>,
                       name: &str,
                       recv: Option<&str>,
                       method: bool,
                       args: &[AbsVal]|
         -> AbsVal {
            let call = CallSite {
                callee: name.to_string(),
                qual: qual.map(str::to_string),
                recv: recv.map(str::to_string),
                method,
                line: 0,
                in_fence: false,
            };
            let targets = symbols.resolve(&call, fi, key);
            callees.borrow_mut().extend_from_slice(&targets);
            let sums: Vec<&FnSummary> = targets.iter().filter_map(|t| summaries.get(t)).collect();
            if sums.is_empty() || sums.len() != targets.len() {
                // Unknown or partially-known callee: smeared join of
                // the arguments — dependence survives, structure dies.
                return args.iter().fold(AbsVal::default(), |acc, a| smear(&acc, a));
            }
            // For method calls the receiver rides as the first arg and
            // the callee's params line up after `self` — re-align by
            // dropping the receiver when the callee has a self param.
            let mut out: Option<AbsVal> = None;
            for (t, sum) in targets.iter().zip(&sums) {
                let skip = usize::from(
                    method && files[t.0].1.fns[t.1].has_self && sum.flows.len() + 1 == args.len(),
                );
                let applied = apply_summary(sum, &args[skip..]);
                out = Some(match out {
                    Some(prev) => join(&prev, &applied),
                    None => applied,
                });
            }
            out.unwrap_or_default()
        };
        let toks = decode(&bind.expr);
        let v = eval_tokens(&toks, &env, &index.consts, &resolve).normalize();
        if bind.name == RET_BIND {
            ret = Some(match ret {
                Some(prev) => join(&prev, &v),
                None => v.clone(),
            });
        } else {
            env.insert(bind.name.clone(), v.clone());
        }
        vals.push((bi, v));
    }
    let mut callees = callees.into_inner();
    callees.sort_unstable();
    callees.dedup();
    FnLanes { vals, ret, callees }
}

/// The workspace summary fixpoint, evaluated dirty-driven: a fn is
/// re-evaluated only when a callee's summary changed at or after its
/// last evaluation. Each evaluation also stores the fn's B1
/// findings, so [`check_lanes`] reuses them instead of evaluating
/// every fn once more. Per-fn state is flat, indexed `base[fi] + gi`,
/// and holds no lane values.
struct Fixpoint {
    /// Flat index of each file's first fn.
    base: Vec<usize>,
    summaries: BTreeMap<FnKey, FnSummary>,
    /// Stamp of the fn's last evaluation (0 = never evaluated).
    evaluated: Vec<u64>,
    /// Stamp of the evaluation that last changed the fn's summary
    /// (0 = never).
    changed: Vec<u64>,
    /// Flat indexes of the callees the last evaluation resolved.
    callees: Vec<Vec<usize>>,
    /// B1 findings of the last evaluation.
    findings: Vec<Vec<Finding>>,
    /// Evaluations so far; the stamp of the latest.
    clock: u64,
}

impl Fixpoint {
    /// Runs summary passes over every analysable fn, in (file, fn)
    /// order, until a pass changes no summary. Evaluating only stale
    /// fns is exact: each pass leaves the same summaries as a pass
    /// that evaluates every fn. An acyclic call graph of `n` analysable
    /// fns settles within `n` passes and the next one confirms, so
    /// the `n + 1` pass guard only ever stops a recursive cycle.
    fn solve(files: &[(String, FileIndex)], symbols: &Symbols<'_>) -> Fixpoint {
        let mut base = Vec::with_capacity(files.len());
        let mut total = 0;
        for (_, index) in files {
            base.push(total);
            total += index.fns.len();
        }
        let mut fx = Fixpoint {
            base,
            summaries: BTreeMap::new(),
            evaluated: vec![0; total],
            changed: vec![0; total],
            callees: vec![Vec::new(); total],
            findings: vec![Vec::new(); total],
            clock: 0,
        };
        let keys = analysable(files);
        for _ in 0..=keys.len() {
            let mut changed = false;
            for &key in &keys {
                if !fx.is_stale(key) {
                    continue;
                }
                let Some(sum) = fx.evaluate(files, symbols, key) else {
                    continue;
                };
                if fx.summaries.get(&key) != Some(&sum) {
                    fx.summaries.insert(key, sum);
                    let k = fx.flat(key);
                    fx.changed[k] = fx.clock;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        fx
    }

    fn flat(&self, (fi, gi): FnKey) -> usize {
        self.base[fi] + gi
    }

    /// `true` when the fn was never evaluated or a callee's summary
    /// changed at or after its last evaluation (a fn that calls itself
    /// did not see the summary its own evaluation produced).
    fn is_stale(&self, key: FnKey) -> bool {
        let k = self.flat(key);
        let at = self.evaluated[k];
        at == 0 || self.callees[k].iter().any(|&c| self.changed[c] >= at)
    }

    /// Evaluates one fn against the current summaries, storing its
    /// callees and findings; returns the summary it computed, if the
    /// fn returns a value.
    fn evaluate(
        &mut self,
        files: &[(String, FileIndex)],
        symbols: &Symbols<'_>,
        key: FnKey,
    ) -> Option<FnSummary> {
        self.clock += 1;
        let lanes = eval_fn(files, symbols, &self.summaries, key);
        let k = self.flat(key);
        let (path, index) = &files[key.0];
        let f = &index.fns[key.1];
        self.evaluated[k] = self.clock;
        self.callees[k] = lanes.callees.iter().map(|&c| self.flat(c)).collect();
        self.findings[k] = lane_findings(path, f, &lanes);
        lanes.ret.map(|ret| summarize(f, &ret))
    }
}

/// Every fn the lane analysis evaluates, in (file, fn) order: non-test
/// fns with at least one captured bind.
fn analysable(files: &[(String, FileIndex)]) -> Vec<FnKey> {
    files
        .iter()
        .enumerate()
        .flat_map(|(fi, (_, index))| {
            index
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_test && !f.binds.is_empty())
                .map(move |(gi, _)| (fi, gi))
        })
        .collect()
}

// ---------------------------------------------------------------------
// B1 correlated-selectors.
// ---------------------------------------------------------------------

/// Formats a lane mask as bit ranges: `8-11`, `{3, 10-13}`.
fn fmt_lanes(m: u64) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut bit = 0u32;
    while bit < 64 {
        if m & (1u64 << bit) == 0 {
            bit += 1;
            continue;
        }
        let start = bit;
        while bit < 64 && m & (1u64 << bit) != 0 {
            bit += 1;
        }
        if bit - start == 1 {
            parts.push(format!("{start}"));
        } else {
            parts.push(format!("{start}-{}", bit - 1));
        }
    }
    parts.join(",")
}

/// Runs the bit-provenance rule (B1) over the workspace: the
/// findings each fn's last fixpoint evaluation stored, in (file, fn)
/// order. Only a fn whose stored result is stale — possible only when
/// the pass guard stopped a recursive cycle — is evaluated again.
#[must_use]
pub fn check_lanes(files: &[(String, FileIndex)]) -> Vec<Finding> {
    let symbols = Symbols::build(files);
    let mut fx = Fixpoint::solve(files, &symbols);
    let mut findings = Vec::new();
    for key in analysable(files) {
        if fx.is_stale(key) {
            fx.evaluate(files, &symbols, key);
        }
        let k = fx.flat(key);
        findings.append(&mut fx.findings[k]);
    }
    findings
}

/// B1 over one evaluated fn: pairwise lane intersection of its
/// selector bindings on a shared source param.
fn lane_findings(path: &str, f: &FnItem, lanes: &FnLanes) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Selector bindings: bounded, source-dependent, named.
    let sels: Vec<(&BindSite, &AbsVal)> = lanes
        .vals
        .iter()
        .filter_map(|(bi, v)| {
            let b = &f.binds[*bi];
            (b.name != RET_BIND && v.bounded && v.konst.is_none() && !v.deps.is_empty())
                .then_some((b, v))
        })
        .collect();
    for ai in 0..sels.len() {
        for bi in ai + 1..sels.len() {
            let (ba, va) = sels[ai];
            let (bb, vb) = sels[bi];
            if ba.name == bb.name {
                continue; // reassignment, not a second selector
            }
            for (p, la) in &va.deps {
                let Some(lb) = vb.deps.get(p) else { continue };
                let overlap = la.lanes & lb.lanes;
                if overlap == 0 {
                    continue;
                }
                // Folded lanes outside the overlap mean one
                // selector mixed in disjoint entropy — the
                // bank_mix decorrelation pattern.
                if (la.folded | lb.folded) & !overlap != 0 {
                    continue;
                }
                let param = f.params.get(*p).map_or("<param>", String::as_str);
                findings.push(
                    Finding::new(
                        Rule::CorrelatedSelectors,
                        path,
                        bb.line,
                        format!(
                            "selectors `{}` and `{}` both derive from bits {} of \
                             `{param}` — correlated placement collapses the cross \
                             product (the PR 8 interleave bug class); XOR-fold \
                             disjoint higher bits into one of them or waive with \
                             a reason",
                            ba.name,
                            bb.name,
                            fmt_lanes(overlap),
                        ),
                    )
                    .with_chain(vec![
                        format!(
                            "{path}:{} `{}` ← bits {} of `{param}`",
                            ba.line,
                            ba.name,
                            fmt_lanes(la.lanes)
                        ),
                        format!(
                            "{path}:{} `{}` ← bits {} of `{param}`",
                            bb.line,
                            bb.name,
                            fmt_lanes(lb.lanes)
                        ),
                    ]),
                );
                break; // one finding per pair
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// L3 lock-order.
// ---------------------------------------------------------------------

/// Builds the workspace lock-acquisition-order graph from the parser's
/// guard-liveness data and reports cycles (potential deadlocks). Each
/// cycle is reported once, anchored at the witness site of the edge
/// leaving its lexicographically smallest node.
#[must_use]
pub fn check_lock_order(files: &[(String, FileIndex)]) -> Vec<Finding> {
    // Edge (held, acquired) → first witness (file idx, line).
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (fi, (_, index)) in files.iter().enumerate() {
        for l in &index.locks {
            if l.in_test {
                continue;
            }
            let (Some(h), Some(t)) = (&l.held_target, &l.target) else {
                continue;
            };
            if h == t {
                continue;
            }
            edges.entry((h.clone(), t.clone())).or_insert((fi, l.line));
        }
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (h, t) in edges.keys() {
        adj.entry(h.as_str()).or_default().push(t.as_str());
    }
    let mut findings = Vec::new();
    for ((a, b), &(fi, line)) in &edges {
        let Some(path_back) = bfs_path(&adj, b, a) else {
            continue;
        };
        // `path_back` = [b, .., a]; the cycle's nodes are those plus a.
        if path_back.iter().any(|n| *n < a.as_str()) {
            continue; // reported from the smallest node's edge instead
        }
        let mut chain = vec![hop(files, &edges, a, b)];
        for w in path_back.windows(2) {
            chain.push(hop(files, &edges, w[0], w[1]));
        }
        let cycle: Vec<&str> = std::iter::once(a.as_str())
            .chain(path_back.iter().copied())
            .collect();
        findings.push(
            Finding::new(
                Rule::LockOrder,
                &files[fi].0,
                line,
                format!(
                    "lock-order cycle `{}`: another path acquires these locks in the \
                     opposite order, so two threads can deadlock — pick one global \
                     acquisition order",
                    cycle.join("` → `"),
                ),
            )
            .with_chain(chain),
        );
    }
    findings
}

fn hop(
    files: &[(String, FileIndex)],
    edges: &BTreeMap<(String, String), (usize, u32)>,
    from: &str,
    to: &str,
) -> String {
    match edges.get(&(from.to_string(), to.to_string())) {
        Some(&(fi, line)) => format!(
            "{}:{line} `{to}` acquired while holding `{from}`",
            files[fi].0
        ),
        None => format!("`{to}` acquired while holding `{from}`"),
    }
}

/// Deterministic BFS: shortest node path from `from` to `to` (both
/// inclusive), or `None` when unreachable.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &'a str,
) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    parent.insert(from, from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while parent[cur] != cur {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if !parent.contains_key(next) {
                parent.insert(next, n);
                queue.push_back(next);
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

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, FileIndex)> {
        srcs.iter()
            .map(|(p, s)| ((*p).to_string(), parse_file(p, &tokenize(s)).0))
            .collect()
    }

    #[test]
    fn decode_classifies_words() {
        let toks = decode("addr > > 10 & 0xF # ?");
        let kinds: Vec<EKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                EKind::Ident,
                EKind::Punct('>'),
                EKind::Punct('>'),
                EKind::Num,
                EKind::Punct('&'),
                EKind::Num,
                EKind::Opaque,
                EKind::Punct('?'),
            ]
        );
    }

    #[test]
    fn shifts_translate_and_masks_narrow_lanes() {
        let fs = files(&[(
            "a.rs",
            "fn ch(addr: u64) -> u64 { let c = (addr >> 8) & 0xF; c }\n",
        )]);
        let symbols = Symbols::build(&fs);
        let lanes = eval_fn(&fs, &symbols, &BTreeMap::new(), (0, 0));
        let (_, v) = &lanes.vals[0];
        let l = v.deps.get(&0).expect("dep on addr");
        assert_eq!(l.lanes, 0xF << 8);
        assert_eq!(l.shift, Some(8));
        assert!(v.bounded);
    }

    #[test]
    fn xor_folds_union_lanes_and_mark_folded() {
        let fs = files(&[(
            "a.rs",
            "fn mix(block: u64) -> u64 { let g = block ^ (block >> 13); g }\n",
        )]);
        let symbols = Symbols::build(&fs);
        let lanes = eval_fn(&fs, &symbols, &BTreeMap::new(), (0, 0));
        let (_, v) = &lanes.vals[0];
        let l = v.deps.get(&0).expect("dep on block");
        assert_eq!(l.lanes, u64::MAX);
        assert_eq!(l.folded, u64::MAX);
        assert_eq!(l.shift, None);
    }

    #[test]
    fn summaries_compose_across_helpers() {
        let fs = files(&[(
            "a.rs",
            "fn low(x: u64) -> u64 { x & 0xFF }\n\
             fn user(addr: u64) -> u64 { let v = low(addr >> 4); v }\n",
        )]);
        let symbols = Symbols::build(&fs);
        let summaries = Fixpoint::solve(&fs, &symbols).summaries;
        let lanes = eval_fn(&fs, &symbols, &summaries, (0, 1));
        let (_, v) = &lanes.vals[0];
        let l = v.deps.get(&0).expect("dep on addr");
        // low() keeps param bits 0-7; the arg is addr >> 4, so source
        // bits 4-11 survive.
        assert_eq!(l.lanes, 0xFF << 4);
    }

    #[test]
    fn unknown_ops_saturate_to_smeared_joins() {
        let fs = files(&[(
            "a.rs",
            "fn f(addr: u64) -> u64 { let v = helper_unknown(addr).leading_zeros() as u64; v }\n",
        )]);
        let symbols = Symbols::build(&fs);
        let lanes = eval_fn(&fs, &symbols, &BTreeMap::new(), (0, 0));
        let (_, v) = &lanes.vals[0];
        let l = v.deps.get(&0).expect("dep survives saturation");
        assert_eq!(l.lanes, u64::MAX);
        assert_eq!(l.shift, None);
        assert!(!v.bounded);
    }

    /// `top` XORs `h1(addr)` with `addr % 16`, where `h1 → … → hN`
    /// ends in `x & 0xF`: both selectors read bits 0-3 of `addr`. The
    /// callers come first, so each pass settles one more helper.
    fn chain(depth: usize) -> String {
        let mut src = String::from(
            "fn top(addr: u64) -> u64 { let a = h1(addr); let b = addr % 16; a ^ b }\n",
        );
        for i in 1..depth {
            src += &format!("fn h{i}(x: u64) -> u64 {{ h{}(x) }}\n", i + 1);
        }
        src += &format!("fn h{depth}(x: u64) -> u64 {{ x & 0xF }}\n");
        src
    }

    #[test]
    fn deep_caller_first_chains_converge_before_b1() {
        for depth in [1, 4, 6, 12] {
            let fs = files(&[("a.rs", &chain(depth))]);
            let findings = check_lanes(&fs);
            assert_eq!(findings.len(), 1, "depth {depth}: {findings:?}");
            assert_eq!(findings[0].rule, Rule::CorrelatedSelectors);
            assert!(findings[0].message.contains("bits 0-3 of `addr`"));
        }
    }

    #[test]
    fn mutually_recursive_fns_stop_at_the_pass_guard() {
        // Each pass strips two more low lanes off both summaries, so
        // the pair would need ~32 passes; the guard stops it at 3.
        let fs = files(&[(
            "a.rs",
            "fn ping(x: u64) -> u64 { pong(x >> 1) }\n\
             fn pong(x: u64) -> u64 { ping(x >> 1) }\n",
        )]);
        let symbols = Symbols::build(&fs);
        let fx = Fixpoint::solve(&fs, &symbols);
        assert_eq!(fx.clock, 3 * 2, "every pass re-evaluated both fns");
        assert!(analysable(&fs).iter().any(|&k| fx.is_stale(k)));
        assert!(check_lanes(&fs).is_empty());
    }

    /// The summary passes before evaluation was dirty-driven: every
    /// analysable fn, every pass, under the same pass guard.
    fn all_fn_passes(fs: &[(String, FileIndex)]) -> BTreeMap<FnKey, FnSummary> {
        let symbols = Symbols::build(fs);
        let keys = analysable(fs);
        let mut summaries = BTreeMap::new();
        for _ in 0..=keys.len() {
            let mut changed = false;
            for &key in &keys {
                let lanes = eval_fn(fs, &symbols, &summaries, key);
                let Some(ret) = lanes.ret else { continue };
                let sum = summarize(&fs[key.0].1.fns[key.1], &ret);
                if summaries.get(&key) != Some(&sum) {
                    summaries.insert(key, sum);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        summaries
    }

    #[test]
    fn dirty_passes_match_all_fn_passes() {
        let gen = callers_first_workspace();
        let chain6 = chain(6);
        let cases: Vec<Vec<(&str, &str)>> = vec![
            vec![("chain.rs", &chain6)],
            vec![("walk.rs", "fn walk(x: u64) -> u64 { walk(x >> 1) }\n")],
            vec![(
                "pair.rs",
                "fn ping(x: u64) -> u64 { pong(x >> 1) }\n\
                 fn pong(x: u64) -> u64 { ping(x >> 1) }\n",
            )],
            gen.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect(),
        ];
        for srcs in cases {
            let fs = files(&srcs);
            let fx = Fixpoint::solve(&fs, &Symbols::build(&fs));
            assert_eq!(fx.summaries, all_fn_passes(&fs), "{srcs:?}");
        }
    }

    /// B1 by evaluating every fn from scratch against the final
    /// summaries: what `check_lanes` computed before it reused the
    /// fixpoint's evaluations.
    fn from_scratch(fs: &[(String, FileIndex)]) -> Vec<Finding> {
        let symbols = Symbols::build(fs);
        let summaries = Fixpoint::solve(fs, &symbols).summaries;
        analysable(fs)
            .into_iter()
            .flat_map(|key| {
                let (path, index) = &fs[key.0];
                let lanes = eval_fn(fs, &symbols, &summaries, key);
                lane_findings(path, &index.fns[key.1], &lanes)
            })
            .collect()
    }

    /// Ten files whose placement fns call helpers declared after them,
    /// in the same file and in the next one; every third one is
    /// correlated.
    fn callers_first_workspace() -> Vec<(String, String)> {
        (0..10)
            .map(|i| {
                let next = (i + 1) % 10;
                let bank = if i % 3 == 0 {
                    "addr >> 8"
                } else {
                    "addr >> 12"
                };
                let src = format!(
                    "pub fn place{i}(addr: u64) -> (u64, u64) {{\n\
                     \x20   let chan = slot{i}(addr);\n\
                     \x20   let bank = fold{next}({bank}) % 16;\n\
                     \x20   (chan, bank)\n\
                     }}\n\
                     fn slot{i}(a: u64) -> u64 {{ low{i}(a >> 8) }}\n\
                     fn low{i}(v: u64) -> u64 {{ v & 0xF }}\n\
                     pub fn fold{i}(b: u64) -> u64 {{ let m = b & 0xFF; m }}\n"
                );
                (format!("m{i}.rs"), src)
            })
            .collect()
    }

    #[test]
    fn check_lanes_reuses_exactly_what_a_fresh_evaluation_finds() {
        let b1 = include_str!("../tests/fixtures/b1_correlated.rs");
        let chain6 = chain(6);
        // The pass guard stops the ping/pong cycle, leaving `top` and
        // the pair stale: `check_lanes` must evaluate them once more.
        let cycle = "fn top(addr: u64) -> u64 { let a = ping(addr) & 0xF; let b = (addr >> 60) & 0xF; a ^ b }\n\
                     fn ping(x: u64) -> u64 { pong(x >> 1) }\n\
                     fn pong(x: u64) -> u64 { ping(x >> 1) }\n";
        let gen = callers_first_workspace();
        let cases: Vec<Vec<(&str, &str)>> = vec![
            vec![("b1.rs", b1)],
            vec![("chain.rs", &chain6)],
            vec![("cycle.rs", cycle)],
            gen.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect(),
        ];
        for srcs in cases {
            let fs = files(&srcs);
            let reused = check_lanes(&fs);
            assert!(!reused.is_empty(), "{srcs:?} plants B1 sites");
            assert_eq!(reused, from_scratch(&fs), "{srcs:?}");
        }
        // The generated workspace really re-evaluates callers in pass 1,
        // and no more than the callers.
        let fs = files(
            &gen.iter()
                .map(|(p, s)| (p.as_str(), s.as_str()))
                .collect::<Vec<_>>(),
        );
        let fns = analysable(&fs).len() as u64;
        let fx = Fixpoint::solve(&fs, &Symbols::build(&fs));
        assert!(
            fx.clock > fns && fx.clock < 2 * fns,
            "{} evaluations of {fns} fns",
            fx.clock
        );
    }

    #[test]
    fn lock_order_cycle_detected_between_files() {
        let fs = files(&[
            (
                "x.rs",
                "fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {\n\
                 \x20   let g = a.lock().unwrap();\n\
                 \x20   let h = b.lock().unwrap();\n\
                 }\n",
            ),
            (
                "y.rs",
                "fn ba(a: &Mutex<u64>, b: &Mutex<u64>) {\n\
                 \x20   let g = b.lock().unwrap();\n\
                 \x20   let h = a.lock().unwrap();\n\
                 }\n",
            ),
        ]);
        let findings = check_lock_order(&fs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::LockOrder);
        assert_eq!((findings[0].path.as_str(), findings[0].line), ("x.rs", 3));
        assert_eq!(findings[0].chain.len(), 2);
    }
}
