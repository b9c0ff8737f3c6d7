//! Mutation fuzz of the analyzer front end: no source text, however
//! broken, may panic `lint_sources`, and linting the same text twice
//! must give the same findings.
//!
//! Mutants are derived from the committed fixtures by SplitMix64-driven
//! character inserts, deletes, and truncations. The insert alphabet is
//! weighted towards the tokens the parser balances (brackets, quotes,
//! comment starts, fence markers), because unbalanced spans are where
//! index arithmetic goes wrong. Two such inputs once panicked the
//! statement splitter and are pinned below as fixed cases.

use ehp_lint::{lint_sources, Finding};
use ehp_sim_core::SplitMix64;

/// Mutants per run; each is linted twice.
const MUTANTS: usize = 20_000;

/// Base seed of the mutation stream.
const SEED: u64 = 0x11A7_F022;

/// Single (ASCII) characters the mutator inserts...
const CHARS: &str = "{}()[]<>\"'/*#!;:,.=\n rbx0_|&\\";

/// ... and the multi-character fragments.
const FRAGMENTS: &[&str] = &[
    "//",
    "/*",
    "*/",
    "r#\"",
    "fn ",
    "let ",
    "mod ",
    "impl ",
    "for ",
    "// lint:hot-path\n",
    "// lint:hot-path-end\n",
    "// lint:order-invisible x\n",
    "// lint:allow(hash-iter) x\n",
];

fn fixture_dir() -> String {
    format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))
}

fn fixtures() -> Vec<(String, String)> {
    let dir = fixture_dir();
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
    names
        .into_iter()
        .map(|n| {
            let text = std::fs::read_to_string(format!("{dir}/{n}")).expect("read fixture");
            (format!("fixtures/{n}"), text)
        })
        .collect()
}

/// Applies one to three random edits at character boundaries.
fn mutate(rng: &mut SplitMix64, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(chars.len() as u64 + 1) as usize;
        match rng.next_below(10) {
            0..=3 => {
                let pool = CHARS.as_bytes();
                chars.insert(
                    at,
                    char::from(pool[rng.next_below(pool.len() as u64) as usize]),
                );
            }
            4 => {
                let ins = FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize];
                chars.splice(at..at, ins.chars());
            }
            5..=8 => {
                if at < chars.len() {
                    chars.remove(at);
                }
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

fn lint_twice(path: &str, text: &str) -> Vec<Finding> {
    let first = lint_sources(&[(path, text)]);
    let second = lint_sources(&[(path, text)]);
    assert_eq!(
        first, second,
        "non-deterministic findings for {path}:\n{text}"
    );
    first
}

#[test]
fn unclosed_bracket_in_a_fn_signature_does_not_panic() {
    lint_twice("fixtures/repro.rs", "pub fn worker_count() -> u{size {");
}

#[test]
fn truncated_let_with_a_stray_bracket_does_not_panic() {
    // A nested-guard fn with a bracket inside a `let` name, cut off
    // mid-way through the next fn's fence marker.
    let src = "\
//! Nested lock guards.

use std::sync::Mutex;

pub fn nested(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    let first = a.lock().unwrap();
    let s[econd = b.lock().unwrap();
    *first + *second
}

pub fn fenced(m: &Mutex<u64>) -> u64 {
    // lint";
    lint_twice("fixtures/repro.rs", src);
}

#[test]
fn mutated_fixtures_never_panic_and_lint_deterministically() {
    let bases = fixtures();
    assert!(bases.len() >= 10, "fixtures missing: {}", bases.len());
    let mut rng = SplitMix64::new(SEED);
    for i in 0..MUTANTS {
        let (path, text) = &bases[i % bases.len()];
        let mutant = mutate(&mut rng, text);
        let outcome = std::panic::catch_unwind(|| lint_twice(path, &mutant));
        assert!(
            outcome.is_ok(),
            "mutant {i} of {path} panicked the linter:\n{mutant}"
        );
    }
}
