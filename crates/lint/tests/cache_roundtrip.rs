//! End-to-end incremental-cache behaviour on a throwaway mini
//! workspace: first run misses every file, an unchanged rerun hits
//! every file and reproduces the report byte-for-byte, and editing one
//! file re-lints only that file — while cross-file H2 conclusions
//! still update from the cached indexes.

use std::fs;
use std::path::{Path, PathBuf};

use ehp_lint::{lint_workspace, LintConfig, Rule};

const FENCED: &str = "\
pub fn hot(xs: &[u64], out: &mut [u64]) {
    // lint:hot-path
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = expand(x);
    }
    // lint:hot-path-end
}
";

const HELPER_ALLOCATING: &str = "\
pub fn expand(x: u64) -> u64 {
    let scratch: Vec<u64> = Vec::new();
    drop(scratch);
    x + 1
}
";

const HELPER_CLEAN: &str = "\
pub fn expand(x: u64) -> u64 {
    x + 1
}
";

const HASH_ITERATING: &str = "\
use std::collections::HashMap;
pub fn total(m: &HashMap<u64, u64>) -> u64 {
    m.values().sum()
}
";

/// B1 caller: channel selector from bits 8–11, bank index delegated to
/// a helper in another file — the cross-file summary carries the lanes.
const B1_CALLER: &str = "\
pub fn place(addr: u64) -> (u64, u64) {
    let chan = (addr >> 8) & 0xF;
    let bank = pick_bank(addr);
    (chan, bank)
}
";

/// Correlated callee: bank from `row % 16` = address bits 10–13,
/// overlapping the caller's channel lanes.
const BANK_CORRELATED: &str = "\
pub fn pick_bank(addr: u64) -> u64 {
    let row = addr >> 10;
    row % 16
}
";

/// Decorrelated callee: the block fold mixes disjoint higher bits into
/// the lane before the modulus.
const BANK_DECORRELATED: &str = "\
pub fn pick_bank(addr: u64) -> u64 {
    let row = addr >> 10;
    let block = row >> 4;
    let mix = block ^ (block >> 5) ^ (block >> 9);
    (row + mix) % 16
}
";

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

fn mini_workspace(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\n");
    write(&root, "crates/demo/src/hot.rs", FENCED);
    write(&root, "crates/demo/src/helper.rs", HELPER_ALLOCATING);
    write(&root, "crates/demo/src/tally.rs", HASH_ITERATING);
    root
}

fn cfg(root: &Path) -> LintConfig<'static> {
    LintConfig {
        root: root.to_path_buf(),
        schemas: &[],
        use_cache: true,
        jobs: 1,
    }
}

#[test]
fn second_run_hits_every_file_and_report_is_byte_identical() {
    let root = mini_workspace("cache-hit");
    let first = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!(first.files_scanned, 3);
    assert_eq!(first.cache_hits, 0, "cold cache must miss everything");
    assert_eq!(first.cache_misses, 3);
    assert!(
        first.findings.iter().any(|f| f.rule == Rule::HotPathReach),
        "{:?}",
        first.findings
    );
    assert!(root.join("target/lint-cache.json").is_file());

    let second = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!(second.cache_hits, 3, "warm cache must hit every file");
    assert_eq!(second.cache_misses, 0);
    assert_eq!(
        first.to_json().to_string_pretty(),
        second.to_json().to_string_pretty(),
        "cached rerun must reproduce the report byte-for-byte"
    );
}

#[test]
fn editing_one_file_relints_only_it_and_updates_cross_file_h2() {
    let root = mini_workspace("cache-edit");
    let first = lint_workspace(&cfg(&root)).unwrap();
    assert!(first.findings.iter().any(|f| f.rule == Rule::HotPathReach));

    // Remove the allocation from the helper: only helper.rs should miss,
    // and the H2 chain rooted in the *unchanged* hot.rs must disappear,
    // proving reachability is recomputed from cached per-file indexes.
    write(&root, "crates/demo/src/helper.rs", HELPER_CLEAN);
    let third = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!(third.cache_misses, 1, "only the edited file re-lints");
    assert_eq!(third.cache_hits, 2);
    assert!(
        !third.findings.iter().any(|f| f.rule == Rule::HotPathReach),
        "{:?}",
        third.findings
    );
    // The unrelated D1 finding in the untouched file survives from cache.
    assert!(third.findings.iter().any(|f| f.rule == Rule::HashIter));
}

#[test]
fn editing_a_callee_lane_summary_updates_cross_file_b1_from_cache() {
    let root = mini_workspace("cache-lanes");
    write(&root, "crates/demo/src/place.rs", B1_CALLER);
    write(&root, "crates/demo/src/bank.rs", BANK_CORRELATED);
    let b1_lines = |report: &ehp_lint::LintReport| -> Vec<(String, u32)> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CorrelatedSelectors)
            .map(|f| (f.path.clone(), f.line))
            .collect()
    };

    let first = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!(first.cache_misses, 5);
    assert_eq!(
        b1_lines(&first),
        vec![("crates/demo/src/place.rs".to_string(), 3)],
        "the correlated callee's summary reaches the caller's selector pair"
    );

    // Warm rerun: everything from cache, same B1 conclusion, same bytes.
    let second = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!((second.cache_hits, second.cache_misses), (5, 0));
    assert_eq!(
        first.to_json().to_string_pretty(),
        second.to_json().to_string_pretty()
    );

    // Decorrelate the callee: only bank.rs re-lints, yet the B1 rooted
    // in the *unchanged* caller disappears — lane summaries are
    // recomputed from cached indexes, never cached themselves.
    write(&root, "crates/demo/src/bank.rs", BANK_DECORRELATED);
    let third = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!((third.cache_hits, third.cache_misses), (4, 1));
    assert_eq!(b1_lines(&third), vec![], "{:?}", third.findings);
}

#[test]
fn stale_file_waiver_is_reported_as_a_finding() {
    let root = mini_workspace("stale-waiver");
    write(
        &root,
        "lint.waivers",
        "# comment\n\
         \n\
         hash-iter crates/demo/src/tally.rs the sum is order-independent\n\
         wall-clock crates/demo/src/hot.rs this site was deleted long ago\n",
    );
    let report = lint_workspace(&cfg(&root)).unwrap();
    let stale: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Waiver && f.message.contains("stale waiver"))
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert!(stale[0].contains("wall-clock crates/demo/src/hot.rs"));
    let unwaived: Vec<Rule> = report.unwaived().map(|f| f.rule).collect();
    assert_eq!(
        unwaived,
        vec![Rule::HotPathReach, Rule::Waiver],
        "the live hash-iter waiver holds; the stale entry fails the run next to hot.rs's H2"
    );
}

#[test]
fn waiver_file_entry_naming_a_deleted_rule_is_an_unknown_rule_finding() {
    let root = mini_workspace("deleted-rule-waiver");
    write(
        &root,
        "lint.waivers",
        "f32-truncation crates/demo/src/tally.rs the oracle needs f32 precision loss\n",
    );
    let report = lint_workspace(&cfg(&root)).unwrap();
    let w0: Vec<(&str, &str, u32, &str)> = report
        .unwaived()
        .filter(|f| f.rule == Rule::Waiver)
        .map(|f| (f.rule.code(), f.path.as_str(), f.line, f.message.as_str()))
        .collect();
    assert_eq!(
        w0,
        vec![(
            "W0",
            "lint.waivers",
            1,
            "unknown rule \"f32-truncation\" in waiver file"
        )]
    );
}
