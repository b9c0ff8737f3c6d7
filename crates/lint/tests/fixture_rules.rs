//! Every lint rule demonstrated to fire on a committed known-bad
//! fixture, with exact file/line assertions. If a rule regresses into
//! silence, these tests — not a production incident — catch it.

use ehp_lint::rules::lint_source;
use ehp_lint::schema::{validate_scenario, ExperimentSchema, ParamKind, ParamSpec};
use ehp_lint::{lint_sources, Finding, Rule};
use ehp_sim_core::json::{Json, ToJson};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// (rule, line, waived?) triples for a source fixture.
fn fired(name: &str) -> Vec<(Rule, u32, bool)> {
    lint_source(&format!("fixtures/{name}"), &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line, f.waived.is_some()))
        .collect()
}

#[test]
fn d1_hash_iter_fires_and_sort_escape_holds() {
    assert_eq!(
        fired("d1_hash_iter.rs"),
        vec![(Rule::HashIter, 9, false), (Rule::HashIter, 16, false)],
        "for-loop and .values() must fire; collect-then-sort must not"
    );
}

#[test]
fn d2_wall_clock_fires() {
    assert_eq!(
        fired("d2_wall_clock.rs"),
        vec![
            (Rule::WallClock, 7, false),
            (Rule::WallClock, 11, false),
            (Rule::WallClock, 12, false),
        ]
    );
}

#[test]
fn h1_hot_path_alloc_fires_only_inside_fence() {
    // Allocations written inside the fence are H2 at zero hops, so the
    // cross-file passes must run: `lint_sources`, not `lint_source`.
    let src = fixture("h1_hot_alloc.rs");
    let findings = lint_sources(&[("fixtures/h1_hot_alloc.rs", &src)]);
    let fired: Vec<(Rule, u32, usize)> = findings
        .iter()
        .map(|f| (f.rule, f.line, f.chain.len()))
        .collect();
    assert_eq!(
        fired,
        vec![
            (Rule::HotPathReach, 9, 1),
            (Rule::HotPathReach, 10, 1),
            (Rule::HotPathReach, 11, 1),
        ],
        "line 18's identical .to_vec() is outside the fence: {findings:?}"
    );
}

#[test]
fn d1_statement_escape_fixes_the_line_window_false_negative() {
    assert_eq!(
        fired("d1_sort_statement.rs"),
        vec![(Rule::HashIter, 10, false)],
        "the for-loop must fire despite an unrelated sort 3 lines below; \
         the multi-line collect chain feeding ks.sort_unstable() must not"
    );
}

#[test]
fn r1_thread_capture_fires_on_shared_state_not_partitions() {
    assert_eq!(
        fired("r1_thread_capture.rs"),
        vec![
            (Rule::ThreadCapture, 9, false),
            (Rule::ThreadCapture, 20, false),
        ],
        "&mut capture and RefCell capture fire; chunks_mut + move does not"
    );
}

#[test]
fn h2_two_hop_cross_file_chain_fires_with_evidence() {
    let fenced = fixture("h2_fenced.rs");
    let helpers = fixture("h2_helpers.rs");
    let findings = lint_sources(&[
        ("fixtures/h2_fenced.rs", &fenced),
        ("fixtures/h2_helpers.rs", &helpers),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::HotPathReach);
    assert_eq!((f.path.as_str(), f.line), ("fixtures/h2_fenced.rs", 7));
    assert_eq!(
        f.chain,
        vec![
            "fixtures/h2_helpers.rs:4 `expand`",
            "fixtures/h2_helpers.rs:8 `widen`",
            "fixtures/h2_helpers.rs:9 `Vec::new()`",
        ],
        "the full two-hop chain is the evidence, in call order"
    );
    // The chain must be visible in the human rendering...
    let text = f.render();
    assert!(
        text.contains("via fixtures/h2_helpers.rs:4 `expand`"),
        "{text}"
    );
    assert!(
        text.contains("via fixtures/h2_helpers.rs:8 `widen`"),
        "{text}"
    );
    // ...and carried verbatim in the JSON report.
    let json = f.to_json();
    let chain = json
        .as_obj()
        .and_then(|o| o.get("chain"))
        .and_then(Json::as_arr)
        .expect("chain array in JSON");
    assert_eq!(chain.len(), 3);
    assert_eq!(
        chain[2].as_str(),
        Some("fixtures/h2_helpers.rs:9 `Vec::new()`")
    );
}

#[test]
fn n1_two_hop_cross_file_taint_fires_with_chain() {
    let source = fixture("n1_source.rs");
    let sink = fixture("n1_sink.rs");
    let findings = lint_sources(&[
        ("fixtures/n1_sink.rs", &sink),
        ("fixtures/n1_source.rs", &source),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::NondetTaint);
    assert_eq!((f.path.as_str(), f.line), ("fixtures/n1_sink.rs", 6));
    assert_eq!(
        f.chain,
        vec![
            "fixtures/n1_source.rs:7 `shard_plan`",
            "fixtures/n1_source.rs:3 `worker_count`",
            "fixtures/n1_source.rs:4 `available_parallelism()`",
        ],
        "the shortest source chain is the evidence, in call order"
    );
    assert!(f.message.contains("Summary::to_json"), "{}", f.message);
    assert!(f.message.contains("(parallelism)"), "{}", f.message);
}

#[test]
fn n1_order_invisible_fence_honored_vs_rejected() {
    let src = fixture("n1_order_invisible.rs");
    let findings = lint_sources(&[("fixtures/n1_order_invisible.rs", &src)]);
    let fired: Vec<(Rule, u32, bool)> = findings
        .iter()
        .map(|f| (f.rule, f.line, f.waived.is_some()))
        .collect();
    assert_eq!(
        fired,
        vec![
            (Rule::NondetTaint, 10, false),
            (Rule::NondetTaint, 11, false),
        ],
        "`merge` (line 4 fence, backed by a fold) must stay silent; \
         `snapshot`'s unbacked fence is rejected and its source taints the sink: {findings:?}"
    );
    // The rejected fence leaves the source live, so the sink root reports
    // a direct (one-entry) chain to it.
    assert_eq!(
        findings[0].chain,
        vec!["fixtures/n1_order_invisible.rs:12 `available_parallelism()`"]
    );
    assert!(
        findings[1].message.contains("rejected"),
        "{}",
        findings[1].message
    );
}

#[test]
fn b1_retro_fixture_catches_the_pr8_interleave_bug_with_both_chains() {
    let src = fixture("b1_correlated.rs");
    let findings = lint_sources(&[("fixtures/b1_correlated.rs", &src)]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::CorrelatedSelectors);
    assert_eq!((f.path.as_str(), f.line), ("fixtures/b1_correlated.rs", 20));
    assert!(f.message.contains("bits 10-11"), "{}", f.message);
    assert_eq!(
        f.chain,
        vec![
            "fixtures/b1_correlated.rs:18 `chan` ← bits 8-11 of `addr`",
            "fixtures/b1_correlated.rs:20 `bank` ← bits 10-13 of `addr`",
        ],
        "both derivation chains are the evidence"
    );
    // The decorrelated version (XOR-folded block bits) stays clean —
    // its only finding would be a second B1, and there is none.
    let text = f.render();
    assert!(text.contains("via fixtures/b1_correlated.rs:18"), "{text}");
}

#[test]
fn l3_lock_order_cycle_reported_once_with_both_witnesses() {
    let ab = fixture("l3_order_ab.rs");
    let ba = fixture("l3_order_ba.rs");
    let findings = lint_sources(&[
        ("fixtures/l3_order_ab.rs", &ab),
        ("fixtures/l3_order_ba.rs", &ba),
    ]);
    let fired: Vec<(Rule, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        fired,
        vec![(Rule::LockOrder, "fixtures/l3_order_ab.rs", 9)],
        "the cycle fires L3 exactly once: {findings:?}"
    );
    let l3 = &findings[0];
    assert_eq!(
        l3.chain,
        vec![
            "fixtures/l3_order_ab.rs:9 `stats` acquired while holding `queue`",
            "fixtures/l3_order_ba.rs:8 `queue` acquired while holding `stats`",
        ],
        "both acquisition sites are the evidence"
    );
    assert!(l3.message.contains("deadlock"), "{}", l3.message);
}

/// Names of rules the linter used to have: a waiver naming one must
/// be reported, not silently accepted or ignored.
const DELETED_RULES: &[&str] = &[
    "f32-truncation",
    "seed-discipline",
    "lock-discipline",
    "spawn-merge",
    "lossy-narrowing",
];

#[test]
fn inline_waiver_naming_a_deleted_rule_is_an_unknown_rule_finding() {
    for name in DELETED_RULES {
        let src = format!("// lint:allow({name}) reason\nfn f() {{}}\n");
        let findings = lint_sources(&[("crates/x/src/a.rs", &src)]);
        let fired: Vec<(&str, u32, &str)> = findings
            .iter()
            .map(|f| (f.rule.code(), f.line, f.message.as_str()))
            .collect();
        assert_eq!(
            fired,
            vec![(
                "W0",
                1,
                format!("waiver names unknown rule {name:?}").as_str()
            )]
        );
    }
}

#[test]
fn inline_waivers_mark_findings_without_dropping_them() {
    assert_eq!(
        fired("inline_waiver.rs"),
        vec![(Rule::HashIter, 9, true), (Rule::HashIter, 13, true)],
        "waived findings stay in the report with waived=true"
    );
}

/// A reduced ic_sweep-like schema for the S1 fixture (the real schemas
/// live in the harness registry, which depends on this crate).
const S1_SCHEMAS: &[ExperimentSchema] = &[ExperimentSchema {
    id: "ic_sweep",
    params: &[
        ParamSpec {
            name: "ic_mib",
            kind: ParamKind::U64 { min: 0, max: 4096 },
        },
        ParamSpec {
            name: "pattern",
            kind: ParamKind::EnumStr(&["sequential", "strided", "random", "chase", "hot"]),
        },
        ParamSpec {
            name: "jobs",
            kind: ParamKind::U64 { min: 1, max: 64 },
        },
        ParamSpec {
            name: "write_fraction",
            kind: ParamKind::Num { min: 0.0, max: 1.0 },
        },
    ],
}];

#[test]
fn s1_scenario_schema_fires_per_violation() {
    let text = fixture("s1_bad_scenario.json");
    let findings = validate_scenario("fixtures/s1_bad_scenario.json", &text, S1_SCHEMAS);
    let lines: Vec<(u32, &str)> = findings
        .iter()
        .map(|f| (f.line, f.message.as_str()))
        .collect();
    assert_eq!(findings.len(), 4, "{lines:?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ScenarioSchema));
    // Unknown parameter (typo'd ic_mib), line 5.
    assert!(lines.iter().any(|(l, m)| *l == 5 && m.contains("ic_mb")));
    // Enum mismatch, line 6.
    assert!(lines.iter().any(|(l, m)| *l == 6 && m.contains("zigzag")));
    // jobs out of range, line 7.
    assert!(lines.iter().any(|(l, m)| *l == 7 && m.contains("1..=64")));
    // Sweep value type mismatch, line 10.
    assert!(lines.iter().any(|(l, m)| *l == 10 && m.contains("half")));
}

#[test]
fn clean_real_shaped_scenario_passes() {
    let src = r#"{
  "experiment": "ic_sweep",
  "name": "ok",
  "params": {"ic_mib": 4, "pattern": "hot", "jobs": 2},
  "sweep": {"write_fraction": [0.0, 0.3], "seed": [1, 2, 3]}
}"#;
    let findings: Vec<Finding> = validate_scenario("x.json", src, S1_SCHEMAS);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn every_rule_fires_on_some_fixture() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    let sources: Vec<(String, String)> = names
        .iter()
        .map(|n| (format!("fixtures/{n}"), fixture(n)))
        .collect();
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    let mut findings = lint_sources(&refs);
    findings.extend(validate_scenario(
        "fixtures/s1_bad_scenario.json",
        &fixture("s1_bad_scenario.json"),
        S1_SCHEMAS,
    ));
    let silent: Vec<&str> = Rule::ALL
        .iter()
        .filter(|r| !matches!(r, Rule::Fence | Rule::Waiver))
        .filter(|r| !findings.iter().any(|f| f.rule == **r))
        .map(|r| r.code())
        .collect();
    assert!(
        silent.is_empty(),
        "rules with no known-bad fixture that fires them: {silent:?}"
    );
}
