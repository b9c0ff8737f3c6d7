//! A small, dependency-free JSON value type with a deterministic writer
//! and a strict recursive-descent parser.
//!
//! The build environment cannot vendor `serde`/`serde_json`, so the
//! experiment harness serialises through this module instead. Two
//! properties matter more here than raw speed:
//!
//! 1. **Determinism** — objects keep their keys in a [`BTreeMap`], and
//!    numbers render through Rust's shortest-round-trip formatter, so the
//!    same value always produces byte-identical text. Batch-run summaries
//!    rely on this to be reproducible.
//! 2. **Strictness** — the parser accepts exactly the JSON grammar
//!    (RFC 8259) minus exotic escapes nobody writes by hand; scenario
//!    spec files fail loudly instead of half-loading.
//!
//! ## Example
//!
//! ```
//! use ehp_sim_core::json::Json;
//! let v = Json::parse(r#"{"b": [1, 2.5], "a": true}"#).unwrap();
//! assert_eq!(v.get("a").and_then(Json::as_bool), Some(true));
//! // Keys are sorted on output: deterministic regardless of input order.
//! assert_eq!(v.to_string_compact(), r#"{"a":true,"b":[1,2.5]}"#);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2⁵³ round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are kept sorted for deterministic output.
    Obj(BTreeMap<String, Json>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile document of a
/// few hundred kilobytes of `[` overflows the stack; every document the
/// project writes nests a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub(crate) message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    ///
    /// Later duplicates of a key overwrite earlier ones.
    pub fn object<K, V, I>(pairs: I) -> Json
    where
        K: Into<String>,
        V: Into<Json>,
        I: IntoIterator<Item = (K, V)>,
    {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn array<V: Into<Json>, I: IntoIterator<Item = V>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Looks up a key on an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and sorted keys.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialises without any whitespace.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(map) => {
                let entries: Vec<_> = map.iter().collect();
                write_seq(out, indent, '{', '}', entries.len(), |out, i, ind| {
                    let (k, v) = entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind);
                });
            }
        }
    }

    /// Parses a JSON document; trailing whitespace is allowed, trailing
    /// content is an error.
    ///
    /// # Errors
    ///
    /// Malformed input, trailing content, or arrays/objects nested more
    /// than [`MAX_DEPTH`] levels deep.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(v)
    }
}

fn write_number(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional fallback.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's shortest-round-trip float formatting is deterministic.
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        }
        item(out, i, indent.map(|l| l + 1));
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Opens one array/object level, failing past [`MAX_DEPTH`]. An
    /// error aborts the whole parse, so only successful closes call
    /// [`Parser::leave`].
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("arrays/objects nested too deeply"));
        }
        self.pos += 1; // '[' or '{'
        Ok(())
    }

    fn leave(&mut self, v: Json) -> Result<Json, JsonError> {
        self.depth -= 1;
        self.pos += 1; // ']' or '}'
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected `null`"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("expected `true`"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected `false`"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.leave(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.leave(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.leave(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.leave(Json::Obj(map)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired; spec
                            // files have no business containing them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // boundary math is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            // A number past f64's range would come back out as `null`.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for src in ["null", "true", "false", "0", "-3", "2.5", "1e3"] {
            let v = Json::parse(src).unwrap();
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "round trip of {src}");
        }
    }

    #[test]
    fn object_keys_are_sorted() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.to_string_compact(), r#"{"a":2,"m":3,"z":1}"#);
    }

    #[test]
    fn pretty_printer_is_stable() {
        let v = Json::object([
            ("name", Json::from("fig")),
            ("values", Json::array([1u64, 2, 3])),
        ]);
        let a = v.to_string_pretty();
        let b = Json::parse(&a).unwrap().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\n  \"name\": \"fig\""));
    }

    #[test]
    fn string_escapes_round_trip() {
        let src = "line\nbreak \"quote\" back\\slash \t tab \u{1}";
        let v = Json::Str(src.to_string());
        let parsed = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(parsed.as_str(), Some(src));
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Json::parse(r#""é中""#).unwrap();
        assert_eq!(v.as_str(), Some("é中"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn rejects_garbage() {
        for src in [
            "", "{", "[1,", "tru", "{\"a\"}", "1 2", "{'a':1}", "1e400", "-1e400",
        ] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "fails on the first level too deep");
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn nesting_limit_is_exact() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        // Depth counts open levels, not total containers: siblings at
        // the limit are fine.
        let deep = arrays(MAX_DEPTH - 1);
        assert!(Json::parse(&format!("[{deep},{deep}]")).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 7, "s": "x", "a": [1], "b": false}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }
}
