//! Lint findings: the named rules, their machine-readable form, and
//! deterministic ordering.

use std::cmp::Ordering;

use ehp_sim_core::json::{Json, ToJson};

/// The project invariants `ehp-lint` enforces (DESIGN.md §10–§11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: no iteration over `HashMap`/`HashSet` in sim crates.
    HashIter,
    /// D2: no wall-clock reads outside `bench` / `harness::executor`.
    WallClock,
    /// H2: no allocation inside a `// lint:hot-path` fence, written there
    /// (zero hops) or reachable through the workspace call graph.
    HotPathReach,
    /// R1: `thread::scope`/`spawn` closures may not capture `&mut`,
    /// `RefCell`, `Cell`, or `Rc` state shared across spawns.
    ThreadCapture,
    /// N1: no summary-emission or merge path (`to_json`/`merge`/
    /// `snapshot`) may transitively reach a nondeterminism source
    /// (`available_parallelism`, thread ids, wall clocks, hash-order
    /// iteration, address-as-value casts) unless laundered through a
    /// verified `// lint:order-invisible` fence.
    NondetTaint,
    /// L3: the workspace lock-acquisition-order graph (built from the
    /// parser's guard-liveness data) must be cycle-free — a cycle is a
    /// deadlock waiting for the right interleaving.
    LockOrder,
    /// B1: two selector values in one fn derived from overlapping bit
    /// lanes of the same source value, both bounded for placement /
    /// indexing — the correlated-interleave bug class (PR 8).
    CorrelatedSelectors,
    /// S1: scenario specs must match their experiment's parameter schema.
    ScenarioSchema,
    /// Malformed fence markers (unbalanced / nested `lint:hot-path`).
    Fence,
    /// Malformed waivers (unknown rule name, missing reason).
    Waiver,
}

impl Rule {
    /// Stable kebab-case rule name (used in waivers and output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::HotPathReach => "hot-path-reach",
            Rule::ThreadCapture => "thread-capture",
            Rule::NondetTaint => "nondet-taint",
            Rule::LockOrder => "lock-order",
            Rule::CorrelatedSelectors => "correlated-selectors",
            Rule::ScenarioSchema => "scenario-schema",
            Rule::Fence => "fence",
            Rule::Waiver => "waiver",
        }
    }

    /// Short code used in the issue tracker and reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::HashIter => "D1",
            Rule::WallClock => "D2",
            Rule::HotPathReach | Rule::Fence => "H2",
            Rule::ThreadCapture => "R1",
            Rule::NondetTaint => "N1",
            Rule::LockOrder => "L3",
            Rule::CorrelatedSelectors => "B1",
            Rule::ScenarioSchema => "S1",
            Rule::Waiver => "W0",
        }
    }

    /// Every rule a workspace run can evaluate, in code order — the
    /// stable enumeration used for per-rule report counts.
    pub const ALL: &'static [Rule] = &[
        Rule::HashIter,
        Rule::WallClock,
        Rule::HotPathReach,
        Rule::ThreadCapture,
        Rule::NondetTaint,
        Rule::LockOrder,
        Rule::CorrelatedSelectors,
        Rule::ScenarioSchema,
        Rule::Fence,
        Rule::Waiver,
    ];

    /// Resolves a waiverable rule by name (fence/waiver misuse findings
    /// cannot themselves be waived).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "hash-iter" => Some(Rule::HashIter),
            "wall-clock" => Some(Rule::WallClock),
            "hot-path-reach" => Some(Rule::HotPathReach),
            "thread-capture" => Some(Rule::ThreadCapture),
            "nondet-taint" => Some(Rule::NondetTaint),
            "lock-order" => Some(Rule::LockOrder),
            "correlated-selectors" => Some(Rule::CorrelatedSelectors),
            "scenario-schema" => Some(Rule::ScenarioSchema),
            _ => None,
        }
    }

    /// Resolves any rule by name, including the bookkeeping rules that
    /// cannot be waived — used by the incremental cache round trip and
    /// `--explain`.
    #[must_use]
    pub fn from_name_any(name: &str) -> Option<Rule> {
        match name {
            "fence" => Some(Rule::Fence),
            "waiver" => Some(Rule::Waiver),
            other => Rule::from_name(other),
        }
    }

    /// One-paragraph explanation of the rule, printed by
    /// `ehp lint --explain <rule>`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HashIter => {
                "D1 hash-iter: iterating a HashMap/HashSet feeds hash-order \
                 (which varies across runs and platforms) into downstream \
                 results, breaking byte-identical replays. Iterate a BTree \
                 collection or dense index order instead. Escape: binding the \
                 collected result with `let` and sorting that binding in one \
                 of the next statements (collect-then-sort destroys the \
                 nondeterministic order, so it is allowed)."
            }
            Rule::WallClock => {
                "D2 wall-clock: Instant::now()/SystemTime read real time, so \
                 two identical runs observe different values. Sim code must \
                 use SimTime only; crates/bench, the batch executor, and the \
                 serving layer (crates/serve plus the harness serving glue, \
                 which time requests and worker chunks) are the sanctioned \
                 timing sites."
            }
            Rule::HotPathReach => {
                "H2 hot-path-reach: no allocation (Vec::new, .clone(), \
                 .to_vec(), .collect(), format!, vec!, with_capacity, ...) \
                 between // lint:hot-path and // lint:hot-path-end, either \
                 written there (zero hops) or in any function called from \
                 the fence, transitively through the workspace call graph. \
                 The fenced regions are the replay/solver inner loops; \
                 steady state must reuse caller-held workspaces. The \
                 finding prints the full call chain from the fenced site \
                 to the allocation so the hop that needs a workspace (or a \
                 reasoned waiver) is obvious."
            }
            Rule::ThreadCapture => {
                "R1 thread-capture: std::thread::scope/spawn closures may \
                 not capture &mut borrows of state declared outside the \
                 closure, nor RefCell/Cell/Rc values (non-Sync shared \
                 mutation races across spawns). Mutex/atomic/channel state \
                 and move-per-worker partitions (chunks_mut handed to each \
                 worker by value) are the sanctioned patterns."
            }
            Rule::NondetTaint => {
                "N1 nondet-taint: summary emission and accumulator merge \
                 paths (any fn transitively called from a non-test \
                 `to_json`, `merge`, or `snapshot`) must never observe a \
                 nondeterminism source: available_parallelism(), \
                 thread::current().id(), Instant::now()/SystemTime, \
                 hash-order iteration, or address-as-value pointer casts. \
                 The finding prints the shortest call chain from the \
                 emission root to the source, like H2. Sites where the \
                 value provably cannot reach merged results (e.g. a \
                 thread-pool size cap whose work is folded in fixed index \
                 order) are declared with `// lint:order-invisible \
                 <reason>` on the line above; the fence is honored only \
                 when the enclosing fn contains a fixed-order fold (a \
                 `for` loop or `.fold()`) and is otherwise rejected as a \
                 finding of its own."
            }
            Rule::LockOrder => {
                "L3 lock-order: taking lock B while holding lock A adds the \
                 edge A -> B to the workspace lock-acquisition-order graph \
                 (built from the parser's guard-liveness data, with the \
                 lock's receiver identifier as the graph node). A cycle in \
                 that graph means two code paths acquire the same locks in \
                 opposite orders — a deadlock waiting for the right thread \
                 interleaving. The finding shows one witness site per edge \
                 of the cycle; fix it by picking one global acquisition \
                 order (or collapsing the critical sections)."
            }
            Rule::CorrelatedSelectors => {
                "B1 correlated-selectors: two selector values in one fn \
                 (bounded by `% n` or a small power-of-two mask, i.e. used \
                 for placement or indexing) whose abstract bit-lane sets \
                 intersect on the same source value. Correlated selectors \
                 collapse the cross product: the pre-PR-8 interleave bug \
                 drew the channel hash from address bits 8-11 and the bank \
                 index from bits 10-13, so only a quarter of the banks per \
                 channel were ever populated. The finding shows both \
                 derivation chains as `via` evidence. The sanctioned fix is \
                 to decorrelate one selector by XOR-folding disjoint \
                 higher source bits across it (like `bank_mix`) — the \
                 analyzer recognizes multi-shift folds and stays silent; \
                 fold-free overlap fires."
            }
            Rule::ScenarioSchema => {
                "S1 scenario-schema: scenarios/*.json must match the \
                 parameter schema its experiment declares in the registry: \
                 known keys, right kinds, in-range values, for both params \
                 and sweep axes."
            }
            Rule::Fence => {
                "fence: lint:hot-path / lint:hot-path-end markers must be \
                 balanced and unnested; a broken fence silently disables H2 \
                 for the region, so it is itself a finding."
            }
            Rule::Waiver => {
                "waiver: lint:allow(<rule>) <reason> and lint.waivers \
                 entries must name a known rule and carry a non-empty \
                 reason; stale file-level entries (matching no finding) are \
                 findings so silence stays auditable."
            }
        }
    }
}

/// One finding: a rule fired at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line (0 for file-level findings, e.g. unparsable JSON).
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Call-chain evidence (H2): each hop as `path:line name`, root call
    /// first, the allocation site last. Empty for single-site rules.
    pub chain: Vec<String>,
    /// `Some(reason)` if an inline or file waiver covers this finding.
    pub waived: Option<String>,
}

impl Finding {
    /// Builds an unwaived finding.
    #[must_use]
    pub fn new(rule: Rule, path: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
            chain: Vec::new(),
            waived: None,
        }
    }

    /// Attaches call-chain evidence (H2).
    #[must_use]
    pub fn with_chain(mut self, chain: Vec<String>) -> Finding {
        self.chain = chain;
        self
    }

    /// Deterministic ordering: path, then line, then rule.
    #[must_use]
    pub fn sort_key(&self) -> (String, u32, Rule) {
        (self.path.clone(), self.line, self.rule)
    }

    /// One-line human rendering (`path:line: [D1 hash-iter] message`),
    /// with the call chain appended hop by hop when present.
    #[must_use]
    pub fn render(&self) -> String {
        let waived = match &self.waived {
            Some(reason) => format!(" (waived: {reason})"),
            None => String::new(),
        };
        let mut out = format!(
            "{}:{}: [{} {}] {}{}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message,
            waived
        );
        for hop in &self.chain {
            out.push_str("\n    via ");
            out.push_str(hop);
        }
        out
    }

    /// Rebuilds a finding from its [`ToJson`] form (incremental cache).
    #[must_use]
    pub fn from_json(j: &Json) -> Option<Finding> {
        let rule = Rule::from_name_any(j.get("rule")?.as_str()?)?;
        let chain = match j.get("chain") {
            Some(c) => c
                .as_arr()?
                .iter()
                .map(|h| h.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            None => Vec::new(),
        };
        Some(Finding {
            rule,
            path: j.get("path")?.as_str()?.to_string(),
            line: u32::try_from(j.get("line")?.as_u64()?).ok()?,
            message: j.get("message")?.as_str()?.to_string(),
            chain,
            waived: j.get("waived").and_then(|w| w.as_str()).map(str::to_string),
        })
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::object([
            ("rule", Json::from(self.rule.name())),
            ("code", Json::from(self.rule.code())),
            ("path", Json::from(self.path.as_str())),
            ("line", Json::from(u64::from(self.line))),
            ("message", Json::from(self.message.as_str())),
            (
                "chain",
                Json::array(self.chain.iter().map(|h| Json::from(h.as_str()))),
            ),
            (
                "waived",
                match &self.waived {
                    Some(reason) => Json::from(reason.as_str()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Sorts findings deterministically (path, line, rule, message) and
/// drops exact duplicates. Distinct findings on the same line (e.g. two
/// bad scenario parameters anchored to one line) are all kept.
pub fn sort_dedup(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| match a.sort_key().cmp(&b.sort_key()) {
        Ordering::Equal => a.message.cmp(&b.message),
        o => o,
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.line == b.line && a.message == b.message
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for &rule in Rule::ALL {
            assert_eq!(Rule::from_name_any(rule.name()), Some(rule));
            assert!(!rule.explain().is_empty());
            // Every rule but the bookkeeping ones can be waived by name.
            let waivable = !matches!(rule, Rule::Fence | Rule::Waiver);
            assert_eq!(Rule::from_name(rule.name()).is_some(), waivable);
        }
        assert_eq!(Rule::from_name("nope"), None);
    }

    #[test]
    fn finding_json_round_trips_including_chain() {
        let f = Finding::new(
            Rule::HotPathReach,
            "crates/x/src/a.rs",
            9,
            "reaches `Vec::new()`",
        )
        .with_chain(vec![
            "crates/x/src/a.rs:9 helper".to_string(),
            "crates/x/src/b.rs:4 `Vec::new()`".to_string(),
        ]);
        let back = Finding::from_json(&f.to_json()).expect("round trip");
        assert_eq!(back, f);
        assert!(f.render().contains("via crates/x/src/b.rs:4"));

        let mut waived = Finding::new(Rule::Fence, "lint.waivers", 0, "stale");
        waived.waived = Some("because".to_string());
        assert_eq!(Finding::from_json(&waived.to_json()), Some(waived));
    }

    #[test]
    fn findings_sort_and_dedup() {
        let mut f = vec![
            Finding::new(Rule::HashIter, "b.rs", 2, "x"),
            Finding::new(Rule::HashIter, "a.rs", 9, "y"),
            Finding::new(Rule::HashIter, "b.rs", 2, "x"),
            Finding::new(Rule::HashIter, "b.rs", 2, "distinct message"),
        ];
        sort_dedup(&mut f);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].path, "a.rs");
    }

    #[test]
    fn json_shape() {
        let f = Finding::new(Rule::WallClock, "crates/x/src/a.rs", 3, "Instant::now");
        let j = f.to_json();
        assert_eq!(j.get("code").and_then(Json::as_str), Some("D2"));
        assert_eq!(j.get("line").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("waived"), Some(&Json::Null));
    }
}
