//! A lightweight Rust tokenizer — just enough lexical fidelity for the
//! lint rules, with zero external dependencies (the same philosophy as
//! `ehp_sim_core::json`).
//!
//! The tokenizer guarantees the two properties the rules depend on:
//!
//! 1. **Comments and literals never produce identifier tokens.** The
//!    word `HashMap` inside a string, doc comment, or raw string can
//!    never trigger a rule.
//! 2. **Every token knows its 1-based source line**, so findings point
//!    at real locations.
//!
//! It is deliberately not a full lexer: numbers are lexed loosely
//! (`1.5f32` is one token, `0..n` is three), multi-character operators
//! are emitted as single-character punctuation, and lifetimes are
//! dropped entirely. None of the rules need more.
//!
//! It scans the source's bytes and allocates nothing per token: every
//! [`Tok`] and [`LineComment`] borrows its text as a slice of the
//! source. A `char` is decoded only at a non-ASCII byte, where the
//! Unicode `is_whitespace` / `is_alphabetic` / `is_alphanumeric`
//! classes still apply; all delimiters are ASCII, so a scan that skips
//! bytes inside a literal or comment can never end mid-character.

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

/// One token with its source line; `text` borrows the source.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Token text (`""` for literals — content is never rule-relevant).
    pub text: &'a str,
    /// 1-based source line.
    pub line: u32,
}

impl Tok<'_> {
    /// `true` if this is the identifier `name`.
    #[must_use]
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// `true` if this is the punctuation character `c`.
    #[must_use]
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `//` line comment (the carrier for lint markers and waivers).
#[derive(Debug, Clone, Copy)]
pub struct LineComment<'a> {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// Comment text after the `//` (leading `/` of doc comments kept).
    pub text: &'a str,
}

/// A tokenized source file: the token stream plus every line comment,
/// both borrowing the source text.
#[derive(Debug, Default)]
pub struct TokenizedFile<'a> {
    /// Tokens in source order.
    pub toks: Vec<Tok<'a>>,
    /// Line comments in source order.
    pub comments: Vec<LineComment<'a>>,
}

/// Tokenizes Rust source. Never fails: unterminated literals consume
/// the rest of the file, which is the safe direction for a linter
/// (nothing after them can fire spuriously).
#[must_use]
pub fn tokenize(src: &str) -> TokenizedFile<'_> {
    let b = src.as_bytes();
    let mut out = TokenizedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let lit = |line| Tok {
        kind: TokKind::Lit,
        text: "",
        line,
    };

    while i < b.len() {
        let c = b[i];
        if !c.is_ascii() {
            // The only place a char is decoded: whitespace, identifier
            // start, or a one-char punctuation token.
            let ch = char_at(src, i);
            let end = i + ch.len_utf8();
            if ch.is_whitespace() {
                i = end;
            } else if ch.is_alphabetic() {
                let start = i;
                i = ident_end(src, end);
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[start..i],
                    line,
                });
            } else {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: &src[i..end],
                    line,
                });
                i = end;
            }
        } else if c == b'\n' {
            line += 1;
            i += 1;
        } else if is_ascii_space(c) {
            i += 1;
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            // Line comment.
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            out.comments.push(LineComment {
                line,
                text: &src[start..j],
            });
            i = j;
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            // Block comment, nested.
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'\n' {
                    line += 1;
                    j += 1;
                } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == b'"' {
            i = skip_quoted(b, i, b'"', &mut line);
            out.toks.push(lit(line));
        } else if let Some(hashes) = raw_string_hashes(b, i) {
            i = skip_raw_string(b, i, hashes, &mut line);
            out.toks.push(lit(line));
        } else if c == b'b' && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'\'') {
            i = skip_quoted(b, i + 1, b[i + 1], &mut line);
            out.toks.push(lit(line));
        } else if c == b'\'' {
            // Char literal or lifetime. `'a'` is a char; `'a` (no closing
            // quote after the identifier) is a lifetime, which we drop.
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                i = skip_quoted(b, i, b'\'', &mut line);
                out.toks.push(lit(line));
            } else {
                let j = ident_end(src, i + 1);
                if j < b.len() && b[j] == b'\'' && j > i + 1 {
                    // 'x' style char literal (single ident-char run).
                    i = j + 1;
                    out.toks.push(lit(line));
                } else if j == i + 1 && j < b.len() {
                    // Non-identifier char like '(' — a char literal.
                    i = skip_quoted(b, i, b'\'', &mut line);
                    out.toks.push(lit(line));
                } else {
                    // Lifetime: drop it.
                    i = j;
                }
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            i = ident_end(src, i + 1);
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: &src[start..i],
                line,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            i = ident_end(src, i + 1);
            // `1.5` / `1.5f32`: take the fraction only if a digit follows
            // the dot (so `0..n` stays three tokens).
            if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                i = ident_end(src, i + 1);
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: &src[start..i],
                line,
            });
        } else {
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: &src[i..=i],
                line,
            });
            i += 1;
        }
    }
    out
}

/// The char starting at byte `i`, which must be a char boundary.
fn char_at(src: &str, i: usize) -> char {
    src[i..].chars().next().expect("i < src.len()")
}

/// ASCII bytes `char::is_whitespace` accepts, `\n` aside (it counts
/// lines). Unlike `u8::is_ascii_whitespace`, this includes `\x0B`.
fn is_ascii_space(c: u8) -> bool {
    matches!(c, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// End of the identifier-continue run (`_` or alphanumeric) that
/// starts at byte `j`, a char boundary.
fn ident_end(src: &str, mut j: usize) -> usize {
    let b = src.as_bytes();
    while j < b.len() {
        let c = b[j];
        if c.is_ascii_alphanumeric() || c == b'_' {
            j += 1;
        } else if c.is_ascii() {
            break;
        } else {
            let ch = char_at(src, j);
            if !ch.is_alphanumeric() {
                break;
            }
            j += ch.len_utf8();
        }
    }
    j
}

/// If position `i` starts a raw (byte) string (`r"`, `r#"`, `br##"`,
/// ...), returns the number of `#`s; otherwise `None` (always for a
/// byte other than `r` or `b`).
fn raw_string_hashes(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some(hashes)
}

/// Skips a `"..."` string or `'...'` char literal starting at the
/// opening `quote`; returns the index after the closing quote. An
/// escape skips one byte, which may land inside a multi-byte char: the
/// scan only compares ASCII bytes, so it resynchronises on its own.
fn skip_quoted(b: &[u8], open: usize, quote: u8, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            q if q == quote => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips a raw string `r##"..."##` (position at the `r`/`b`).
fn skip_raw_string(b: &[u8], start: usize, hashes: usize, line: &mut u32) -> usize {
    let mut j = start;
    while j < b.len() && b[j] != b'"' {
        j += 1;
    }
    j += 1; // past opening quote
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
        } else if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
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

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn words_in_literals_and_comments_are_invisible() {
        let src = r###"
            // HashMap in a comment
            /* HashMap in a block /* nested */ comment */
            let s = "HashMap";
            let r = r#"HashMap"#;
            let c = 'H';
            let b = b"HashMap";
        "###;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let a = 1;\n// lint:hot-path\nlet b = 2; // trailing\n";
        let f = tokenize(src);
        assert_eq!(f.comments.len(), 2);
        assert_eq!(f.comments[0].line, 2);
        assert!(f.comments[0].text.contains("lint:hot-path"));
        assert_eq!(f.comments[1].line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "impl<'a> Foo<'a> { fn f(&'a self) -> &'a str { \"x\" } }";
        let f = tokenize(src);
        // Everything after a mis-lexed lifetime would vanish; check the
        // trailing tokens survived.
        assert!(f.toks.iter().any(|t| t.is_ident("str")));
        assert_eq!(f.toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 1);
    }

    #[test]
    fn char_literals_are_skipped() {
        let f = tokenize("let c = 'x'; let d = '\\n'; let e = '('; let g = c;");
        assert_eq!(f.toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 3);
        assert!(f.toks.iter().any(|t| t.is_ident("g")));
    }

    #[test]
    fn lines_are_tracked_through_multiline_literals() {
        let src = "let a = \"one\ntwo\nthree\";\nlet b = 1;";
        let f = tokenize(src);
        let b_tok = f.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 4);
    }

    #[test]
    fn numbers_lex_loosely_but_keep_suffixes() {
        let f = tokenize("let x = 1.5f32; let r = 0..n; let y = 0xFFu64;");
        let nums: Vec<_> = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, ["1.5f32", "0", "0xFFu64"]);
    }
}
