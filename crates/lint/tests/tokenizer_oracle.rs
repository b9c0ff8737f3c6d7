//! The `Vec<char>` tokenizer that the borrowing byte tokenizer
//! replaced, kept verbatim as a test-only oracle. Every token's
//! (kind, text, line) and every line comment's (line, text) must match
//! it on every workspace source file, every fixture, a pinned set of
//! non-ASCII edge cases, and SplitMix64 mutants of the fixtures whose
//! edits insert non-ASCII text (`é`, `λ`, `—`, U+3000, `'😀'`) next to
//! unterminated strings, raw strings and block comments, byte literals
//! and lifetimes. The production tokenizer runs under `catch_unwind`,
//! so a byte slice cut inside a UTF-8 character fails here with the
//! offending source rather than panicking `ehp lint`.

use std::path::{Path, PathBuf};

use ehp_lint::tokenizer::{self, TokKind};
use ehp_sim_core::rng::SplitMix64;

/// Mutants per run.
const MUTANTS: usize = 20_000;

/// Base seed of the mutation stream.
const SEED: u64 = 0x70C0_0AC1;

/// Single characters the mutator inserts: delimiters, escapes, and
/// non-ASCII letters, punctuation and whitespace (U+3000).
const CHARS: &[char] = &[
    '"', '\'', '\\', '/', '*', '#', 'r', 'b', '_', '0', '.', '\n', ' ', '\u{0B}', 'é', 'λ', '—',
    '\u{3000}', '\u{85}', '²', '😀',
];

/// Multi-character fragments: literal and comment openers that run to
/// the end of the file when left unterminated.
const FRAGMENTS: &[&str] = &[
    "\"",
    "\"é",
    "r\"",
    "r#\"",
    "br##\"λ\"#",
    "\"##",
    "/*",
    "/* é /* — */",
    "*/",
    "//",
    "// é\n",
    "b'x'",
    "b'\\''",
    "'😀'",
    "'é'",
    "'\\u{3000}'",
    "'a ",
    "<'a>",
    "&'static ",
    "1.5é",
    "0..λ",
];

/// Hand-picked inputs where bytes and chars part ways.
const EDGES: &[&str] = &[
    "let é = 'é'; let λx = \"λ\";",
    "\"\\é\" tail",
    "'\\😀' tail",
    "'😀' x 'é",
    "x\u{3000}y\u{85}z\u{0B}w",
    "1é 2² ²x x² 0.5λ",
    "a—b 😀",
    "r#\"é\"# br\"—\" b'é' b\"λ\"",
    "/* é */ // λ\n/* unterminated é",
    "\"unterminated — ",
    "'a",
    "'é",
    "'",
    "é",
];

mod oracle {
    /// Token classes the rules distinguish.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TokKind {
        /// Identifier or keyword.
        Ident,
        /// Numeric literal (loose: includes type suffixes like `1.5f32`).
        Num,
        /// String, raw-string, byte-string, or char literal (content dropped).
        Lit,
        /// Single punctuation character.
        Punct,
    }

    /// One token with its source line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Tok {
        /// Token class.
        pub kind: TokKind,
        /// Token text (`""` for literals — content is never rule-relevant).
        pub text: String,
        /// 1-based source line.
        pub line: u32,
    }

    /// A `//` line comment (the carrier for lint markers and waivers).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LineComment {
        /// 1-based source line the comment starts on.
        pub line: u32,
        /// Comment text after the `//` (leading `/` of doc comments kept).
        pub text: String,
    }

    /// A tokenized source file: the token stream plus every line comment.
    #[derive(Debug, Default)]
    pub struct TokenizedFile {
        /// Tokens in source order.
        pub toks: Vec<Tok>,
        /// Line comments in source order.
        pub comments: Vec<LineComment>,
    }

    /// Tokenizes Rust source. Never fails: unterminated literals consume
    /// the rest of the file, which is the safe direction for a linter
    /// (nothing after them can fire spuriously).
    #[must_use]
    pub fn tokenize(src: &str) -> TokenizedFile {
        let b: Vec<char> = src.chars().collect();
        let mut out = TokenizedFile::default();
        let mut i = 0usize;
        let mut line = 1u32;

        let ident_start = |c: char| c.is_alphabetic() || c == '_';
        let ident_cont = |c: char| c.is_alphanumeric() || c == '_';

        while i < b.len() {
            let c = b[i];
            if c == '\n' {
                line += 1;
                i += 1;
            } else if c.is_whitespace() {
                i += 1;
            } else if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
                // Line comment.
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                out.comments.push(LineComment {
                    line,
                    text: b[start..j].iter().collect(),
                });
                i = j;
            } else if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                // Block comment, nested.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && j + 1 < b.len() && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < b.len() && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            } else if c == '"' {
                i = skip_string(&b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line,
                });
            } else if (c == 'r' || c == 'b') && raw_string_hashes(&b, i).is_some() {
                let hashes = raw_string_hashes(&b, i).expect("checked");
                i = skip_raw_string(&b, i, hashes, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line,
                });
            } else if c == 'b' && i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '\'') {
                let quote = b[i + 1];
                i = if quote == '"' {
                    skip_string(&b, i + 1, &mut line)
                } else {
                    skip_char(&b, i + 1, &mut line)
                };
                out.toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line,
                });
            } else if c == '\'' {
                // Char literal or lifetime. `'a'` is a char; `'a` (no closing
                // quote after the identifier) is a lifetime, which we drop.
                let mut j = i + 1;
                if j < b.len() && b[j] == '\\' {
                    i = skip_char(&b, i, &mut line);
                    out.toks.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                } else {
                    while j < b.len() && ident_cont(b[j]) {
                        j += 1;
                    }
                    if j < b.len() && b[j] == '\'' && j > i + 1 {
                        // 'x' style char literal (single ident-char run).
                        i = j + 1;
                        out.toks.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                    } else if j == i + 1 && j < b.len() {
                        // Non-identifier char like '(' — a char literal.
                        i = skip_char(&b, i, &mut line);
                        out.toks.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                    } else {
                        // Lifetime: drop it.
                        i = j;
                    }
                }
            } else if ident_start(c) {
                let start = i;
                while i < b.len() && ident_cont(b[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < b.len() && (ident_cont(b[i])) {
                    i += 1;
                }
                // `1.5` / `1.5f32`: take the fraction only if a digit follows
                // the dot (so `0..n` stays three tokens).
                if i + 1 < b.len() && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && ident_cont(b[i]) {
                        i += 1;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            } else {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
        out
    }

    /// If position `i` starts a raw (byte) string (`r"`, `r#"`, `br##"`,
    /// ...), returns the number of `#`s; otherwise `None`.
    fn raw_string_hashes(b: &[char], i: usize) -> Option<usize> {
        let mut j = i;
        if b[j] == 'b' {
            j += 1;
        }
        if j >= b.len() || b[j] != 'r' {
            return None;
        }
        j += 1;
        let mut hashes = 0usize;
        while j < b.len() && b[j] == '#' {
            hashes += 1;
            j += 1;
        }
        (j < b.len() && b[j] == '"').then_some(hashes)
    }

    /// Skips a `"..."` string starting at the opening quote; returns the
    /// index after the closing quote.
    fn skip_string(b: &[char], open: usize, line: &mut u32) -> usize {
        let mut j = open + 1;
        while j < b.len() {
            match b[j] {
                '\\' => j += 2,
                '"' => return j + 1,
                '\n' => {
                    *line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        j
    }

    /// Skips a raw string `r##"..."##` (position at the `r`/`b`).
    fn skip_raw_string(b: &[char], start: usize, hashes: usize, line: &mut u32) -> usize {
        let mut j = start;
        while j < b.len() && b[j] != '"' {
            j += 1;
        }
        j += 1; // past opening quote
        while j < b.len() {
            if b[j] == '\n' {
                *line += 1;
                j += 1;
            } else if b[j] == '"'
                && b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == '#')
                    .count()
                    == hashes
            {
                return j + 1 + hashes;
            } else {
                j += 1;
            }
        }
        j
    }

    /// Skips a `'...'` char literal starting at the opening quote.
    fn skip_char(b: &[char], open: usize, line: &mut u32) -> usize {
        let mut j = open + 1;
        while j < b.len() {
            match b[j] {
                '\\' => j += 2,
                '\'' => return j + 1,
                '\n' => {
                    *line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        j
    }
}

fn workspace_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut out = Vec::new();
    let mut krates: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    krates.sort();
    for src in krates {
        walk(&src, &mut out);
    }
    out
}

fn fixtures() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read fixtures")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read fixture");
            (p.display().to_string(), text)
        })
        .collect()
}

fn kind(k: oracle::TokKind) -> TokKind {
    match k {
        oracle::TokKind::Ident => TokKind::Ident,
        oracle::TokKind::Num => TokKind::Num,
        oracle::TokKind::Lit => TokKind::Lit,
        oracle::TokKind::Punct => TokKind::Punct,
    }
}

/// Asserts the production tokenizer matches the oracle on `src`.
fn agree(what: &str, src: &str) {
    let got = std::panic::catch_unwind(|| {
        let f = tokenizer::tokenize(src);
        let toks: Vec<(TokKind, String, u32)> = f
            .toks
            .iter()
            .map(|t| (t.kind, t.text.to_string(), t.line))
            .collect();
        let comments: Vec<(u32, String)> = f
            .comments
            .iter()
            .map(|c| (c.line, c.text.to_string()))
            .collect();
        (toks, comments)
    });
    let Ok((toks, comments)) = got else {
        panic!("{what}: the tokenizer panicked on:\n{src:?}");
    };
    let want = oracle::tokenize(src);
    let want_toks: Vec<(TokKind, String, u32)> = want
        .toks
        .into_iter()
        .map(|t| (kind(t.kind), t.text, t.line))
        .collect();
    let want_comments: Vec<(u32, String)> = want
        .comments
        .into_iter()
        .map(|c| (c.line, c.text))
        .collect();
    if let Some(i) = (0..toks.len().max(want_toks.len())).find(|&i| toks.get(i) != want_toks.get(i))
    {
        panic!(
            "{what}: token {i} is {:?}, the oracle's is {:?}, in:\n{src:?}",
            toks.get(i),
            want_toks.get(i)
        );
    }
    assert_eq!(
        comments, want_comments,
        "{what}: line comments differ in:\n{src:?}"
    );
}

/// Applies one to three random edits at character boundaries.
fn mutate(rng: &mut SplitMix64, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(chars.len() as u64 + 1) as usize;
        match rng.next_below(10) {
            0..=3 => chars.insert(at, CHARS[rng.next_below(CHARS.len() as u64) as usize]),
            4..=6 => {
                let ins = FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize];
                chars.splice(at..at, ins.chars());
            }
            7 | 8 => {
                if at < chars.len() {
                    chars.remove(at);
                }
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn matches_the_oracle_on_every_workspace_source_and_fixture() {
    let sources = workspace_sources();
    assert!(
        sources.len() >= 50,
        "workspace sources missing: {}",
        sources.len()
    );
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read source");
        agree(&path.display().to_string(), &text);
    }
    for (path, text) in fixtures() {
        agree(&path, &text);
    }
}

#[test]
fn matches_the_oracle_on_non_ascii_edge_cases() {
    for (i, src) in EDGES.iter().enumerate() {
        agree(&format!("edge case {i}"), src);
    }
}

#[test]
fn matches_the_oracle_on_non_ascii_mutants() {
    let bases = fixtures();
    assert!(bases.len() >= 10, "fixtures missing: {}", bases.len());
    let mut rng = SplitMix64::new(SEED);
    for i in 0..MUTANTS {
        let (path, text) = &bases[i % bases.len()];
        agree(&format!("mutant {i} of {path}"), &mutate(&mut rng, text));
    }
}
