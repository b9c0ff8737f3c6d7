//! Mutation fuzz of the parsers that read untrusted bytes: the JSON
//! codec (`Json::parse`), socket and pipe frames
//! (`ehp_serve::frame::read_frame`) and scenario specs
//! (`Scenario::from_json`, `ScenarioSpec::parse_file`). A client of
//! `ehp serve` controls all three.
//!
//! Each loop shows three things:
//! * mutated bytes never panic;
//! * output round-trips: printing a parsed value and parsing the text
//!   gives back the same value (this found `Json::parse` accepting
//!   `1e400` as infinity, which printed as `null`);
//! * the caps hold: nesting past `json::MAX_DEPTH` is an error, never a
//!   stack overflow, and a frame length above `MAX_FRAME_BYTES` is
//!   rejected before any body is read.
//!
//! Mutants are derived from a seed corpus (the committed scenario
//! specs plus serve and worker requests) by SplitMix64-driven byte
//! inserts, deletes, bit flips, duplications and truncations. The
//! insert alphabet is weighted towards JSON structure and escapes.
//! The 100,000-`[` depth bomb, which once overflowed `ehp serve`'s
//! stack, is the first fixed case of every loop.

use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ehp_harness::scenario::{Scenario, ScenarioSpec};
use ehp_serve::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use ehp_sim_core::json::{Json, MAX_DEPTH};
use ehp_sim_core::SplitMix64;

/// Mutants per loop.
const MUTANTS: usize = 20_000;

/// Base seed of the mutation streams.
const SEED: u64 = 0x7457_B0DE;

/// Single bytes the mutator inserts (two halves of a UTF-8 sequence
/// and 0xFF included, so frames also see invalid UTF-8)...
const BYTES: &[u8] = b"{}[]\",:\\/-+.0123456789eEtrufalsn \n\x00\x1f\xc3\xa9\xff";

/// ... and the multi-byte fragments.
const FRAGMENTS: &[&str] = &[
    "[[[[[[[[",
    "{\"a\":",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "1e400",
    "-0",
    "null",
    "\"experiment\":",
    "\"seed\":",
    "\"params\":{",
    "\"sweep\":{\"a\":[",
];

/// The 100,000-`[` depth bomb.
fn depth_bomb() -> String {
    "[".repeat(100_000)
}

fn corpus() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut docs: Vec<String> = names
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read spec"))
        .collect();
    assert!(docs.len() >= 2, "scenario specs missing");
    let scenario = Scenario::default_for("ic_sweep")
        .with_param("pattern", "hot")
        .with_param("write_fraction", 0.25);
    let mut seeded = scenario.clone();
    seeded.seed = Some(2_489_373_970_666_277);
    docs.extend([
        scenario.to_json().to_string_pretty(),
        Json::object([
            ("id", Json::from(3u64)),
            ("chunk", Json::Arr(vec![seeded.to_json()])),
        ])
        .to_string_compact(),
        r#"{"op":"run","seed":7,"spec":{"experiment":"figure13","sweep":{"workgroups":[8,16]}}}"#
            .to_string(),
        r#"{"s":"é中\u0001\"\\/\b\f\n\r\t","n":[-0,1e-7,1.5e300,-12345678901234567890,0.1],"b":[true,false,null],"o":{}}"#
            .to_string(),
    ]);
    docs
}

/// Applies one to three random edits to `bytes`.
fn mutate(rng: &mut SplitMix64, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(out.len() as u64 + 1) as usize;
        match rng.next_below(12) {
            0..=3 => out.insert(at, BYTES[rng.next_below(BYTES.len() as u64) as usize]),
            4 | 5 => {
                let frag = FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize];
                out.splice(at..at, frag.bytes());
            }
            6..=8 => {
                if at < out.len() {
                    out.remove(at);
                }
            }
            9 => {
                if at < out.len() {
                    out[at] ^= 1 << rng.next_below(8);
                }
            }
            10 => {
                let end = (at + 1 + rng.next_below(16) as usize).min(out.len());
                let dup = out[at.min(end)..end].to_vec();
                out.splice(at..at, dup);
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// Runs `f` on one input, failing the test with the input on a panic.
fn no_panic<T>(what: &str, input: &[u8], f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        panic!(
            "{what} panicked on:\n{}",
            String::from_utf8_lossy(&input[..input.len().min(2_000)])
        )
    })
}

/// Nesting depth of a value (a scalar is 0).
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// Printing `v`, compact or pretty, and parsing it back gives `v`.
fn assert_round_trips(v: &Json) {
    for text in [v.to_string_compact(), v.to_string_pretty()] {
        let back =
            Json::parse(&text).unwrap_or_else(|e| panic!("own output rejected: {e}\n{text}"));
        assert_eq!(&back, v, "value changed through:\n{text}");
    }
}

#[test]
fn json_parse_survives_mutants_and_round_trips() {
    let mut fixed = vec![
        depth_bomb(),
        "{\"a\":".repeat(100_000),
        "[{\"a\":".repeat(50_000),
        "\"\\u".to_string(),
        "\"\\ud800\"".to_string(),
        "\"é\\u00".to_string(),
        "-".to_string(),
        "1e400".to_string(),
    ];
    let bomb_err = Json::parse(&fixed[0]).expect_err("depth bomb must be rejected");
    assert_eq!(bomb_err.offset, MAX_DEPTH);

    let docs = corpus();
    let mut rng = SplitMix64::new(SEED);
    for i in 0..MUTANTS {
        let doc = &docs[i % docs.len()];
        fixed.push(String::from_utf8_lossy(&mutate(&mut rng, doc.as_bytes())).into_owned());
    }
    let mut parsed = 0;
    for text in fixed.iter().chain(&docs) {
        let result = no_panic("Json::parse", text.as_bytes(), || Json::parse(text));
        if let Ok(v) = result {
            parsed += 1;
            assert!(depth(&v) <= MAX_DEPTH, "parsed past MAX_DEPTH:\n{text}");
            no_panic("print/parse round trip", text.as_bytes(), || {
                assert_round_trips(&v);
            });
        }
    }
    // Some mutants must stay valid, or the round-trip half tests nothing.
    assert!(parsed > MUTANTS / 10, "only {parsed} mutants parsed");
}

#[test]
fn generated_values_round_trip_exactly() {
    fn value(rng: &mut SplitMix64, budget: usize) -> Json {
        match rng.next_below(if budget == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::Num(number(rng)),
            3 => Json::Str(string(rng)),
            4 => Json::Arr(
                (0..rng.next_below(4))
                    .map(|_| value(rng, budget - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next_below(4))
                    .map(|_| (string(rng), value(rng, budget - 1)))
                    .collect(),
            ),
        }
    }
    fn number(rng: &mut SplitMix64) -> f64 {
        let x = rng.next_f64();
        match rng.next_below(7) {
            0 => rng.next_below(1 << 20) as f64 - (1 << 19) as f64,
            1 => (x - 0.5) * 1e6,
            2 => x * 1e300,
            3 => -x * 1e-300,
            4 => 9_007_199_254_740_992.0 + 2.0 * rng.next_below(8) as f64,
            5 => -0.0,
            _ => f64::from_bits(rng.next_u64() >> 2),
        }
    }
    fn string(rng: &mut SplitMix64) -> String {
        (0..rng.next_below(8))
            .map(|_| match rng.next_below(4) {
                0 => char::from(b"\"\\/\n\r\t\x00\x1f"[rng.next_below(8) as usize]),
                1 => char::from_u32(rng.next_below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from(b'a' + rng.next_below(26) as u8),
            })
            .collect()
    }

    let mut rng = SplitMix64::new(SEED ^ 1);
    for _ in 0..2_000 {
        assert_round_trips(&value(&mut rng, 5));
    }
}

/// Reads frames until the stream ends or breaks, round-tripping every
/// frame that decodes. Returns how many decoded.
fn drain_frames(stream: &[u8]) -> usize {
    let mut r = stream;
    let mut decoded = 0;
    // Every successful read consumes at least the 4-byte prefix.
    for _ in 0..=stream.len() / 4 {
        match read_frame(&mut r) {
            Ok(Some(v)) => {
                decoded += 1;
                let mut buf = Vec::new();
                write_frame(&mut buf, &v).expect("re-encode a decoded frame");
                let back = read_frame(&mut buf.as_slice()).expect("re-read own frame");
                assert_eq!(back, Some(v));
            }
            Ok(None) | Err(_) => return decoded,
        }
    }
    panic!("frame reader did not make progress");
}

#[test]
fn read_frame_survives_mutated_streams() {
    let mut bomb = 100_000u32.to_le_bytes().to_vec();
    bomb.extend_from_slice(depth_bomb().as_bytes());
    let err = read_frame(&mut bomb.as_slice()).expect_err("depth bomb frame");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    let docs = corpus();
    let streams: Vec<Vec<u8>> = docs
        .windows(2)
        .map(|pair| {
            let mut s = Vec::new();
            for doc in pair {
                write_frame(&mut s, &Json::parse(doc).expect("corpus parses")).unwrap();
            }
            s
        })
        .collect();
    let mut rng = SplitMix64::new(SEED ^ 2);
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let stream = mutate(&mut rng, &streams[i % streams.len()]);
        decoded += no_panic("read_frame", &stream, || drain_frames(&stream));
    }
    assert!(decoded > MUTANTS / 10, "only {decoded} frames decoded");
}

#[test]
fn frame_length_cap_rejects_before_reading_the_body() {
    /// A reader that fails the test if anything past the prefix is read.
    struct PrefixOnly([u8; 4], usize);
    impl Read for PrefixOnly {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(self.1 < 4, "read past an over-cap length prefix");
            let n = buf.len().min(4 - self.1);
            buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
            self.1 += n;
            Ok(n)
        }
    }
    let mut rng = SplitMix64::new(SEED ^ 3);
    let over = u64::from(u32::MAX) - MAX_FRAME_BYTES as u64;
    for _ in 0..1_000 {
        let len = MAX_FRAME_BYTES as u64 + 1 + rng.next_below(over);
        let prefix = (len as u32).to_le_bytes();
        let err = read_frame(&mut PrefixOnly(prefix, 0)).expect_err("over-cap frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
    // At the cap, a short body is a truncated frame, not a cap error.
    let at_cap = (MAX_FRAME_BYTES as u32).to_le_bytes();
    let err = read_frame(&mut at_cap.as_slice()).expect_err("missing body");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn scenario_specs_survive_mutants_and_round_trip() {
    let bomb = format!(r#"{{"experiment":"x","params":{{"a":{}}}}}"#, depth_bomb());
    assert!(ScenarioSpec::parse_file(&bomb).is_err());
    assert!(ScenarioSpec::parse_file(&depth_bomb()).is_err());

    let docs = corpus();
    let mut rng = SplitMix64::new(SEED ^ 4);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let bytes = mutate(&mut rng, docs[i % docs.len()].as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        let _ = no_panic("ScenarioSpec::parse_file", &bytes, || {
            ScenarioSpec::parse_file(&text)
        });
        let Ok(v) = Json::parse(&text) else { continue };
        // Bare scenarios arrive whole (cache entries), as worker chunk
        // items, and as a serve request's `spec` when it has no sweep.
        for candidate in [
            Some(&v),
            v.get("spec"),
            v.get("chunk").and_then(|c| c.as_arr()?.first()),
        ]
        .into_iter()
        .flatten()
        {
            let Ok(sc) = no_panic("Scenario::from_json", &bytes, || {
                Scenario::from_json(candidate)
            }) else {
                continue;
            };
            accepted += 1;
            let text = sc.to_json().to_string_compact();
            let back = Scenario::from_json(&Json::parse(&text).expect("own output parses"))
                .expect("own output decodes");
            assert_eq!(back, sc, "scenario changed through {text}");
        }
    }
    assert!(accepted > MUTANTS / 50, "only {accepted} scenarios decoded");
}
