//! # htsat-json
//!
//! A minimal hand-rolled JSON codec shared by the workspace.
//!
//! The workspace is deliberately std-only, so instead of serde this crate
//! implements the small JSON subset its consumers need: objects, arrays,
//! strings (with full escape handling including `\uXXXX` and surrogate
//! pairs), numbers, booleans and null. Object keys keep insertion order, so
//! encoded documents are deterministic — the same value always serializes
//! to the same bytes, which keeps golden tests, on-the-wire diffs and the
//! bench-artifact round-trip honest.
//!
//! Two consumers drive the design:
//!
//! * `htsat-serve` — the newline-delimited JSON wire protocol (this codec
//!   started life as its `json` module and is re-exported there unchanged),
//! * `htsat-bench` — the `BENCH_<host>_<date>.json` perf-trajectory
//!   artifacts, whose emit → parse → emit round trip must be byte-identical
//!   so committed reference artifacts diff cleanly.
//!
//! Parsing is strict where it matters for a network daemon (no trailing
//! garbage, depth-limited recursion so a hostile peer cannot overflow the
//! stack) and lenient where JSON itself is (any amount of whitespace between
//! tokens).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Maximum nesting depth accepted by the parser. Protocol messages are at
/// most ~3 levels deep; the limit only exists to bound recursion on hostile
/// input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, stored as `f64` (protocol integers stay exact up to
    /// 2^53, far beyond any counter this daemon reports).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order and duplicates keep the last
    /// occurrence on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (last duplicate wins). `None` for
    /// non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    ///
    /// The bound is strict: `u64::MAX as f64` rounds *up* to 2^64, so a
    /// `<=` comparison would accept 2^64 and saturate it to `u64::MAX` —
    /// silently turning an out-of-range value into a different in-range
    /// one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as array elements, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to its compact JSON text form.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                // JSON has no NaN/Infinity; encode them as null rather than
                // emitting un-parseable text.
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Whether `byte` must be escaped inside a JSON string. Every such byte is
/// ASCII, so the runs between them are whole UTF-8 sequences.
fn needs_escape(byte: u8) -> bool {
    byte == b'"' || byte == b'\\' || byte < 0x20
}

/// Bytes tested per branch while scanning a string: the test of a whole
/// block has no early exit, so it compiles to a few vector instructions.
const SCAN_BLOCK: usize = 32;

/// The length of the longest prefix of `bytes` that needs no escape.
fn escape_free_len(bytes: &[u8]) -> usize {
    let clean_blocks = bytes
        .chunks(SCAN_BLOCK)
        .take_while(|block| !block.iter().fold(false, |any, &b| any | needs_escape(b)))
        .count();
    let start = (clean_blocks * SCAN_BLOCK).min(bytes.len());
    bytes[start..]
        .iter()
        .position(|&b| needs_escape(b))
        .map_or(bytes.len(), |offset| start + offset)
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that need
/// no escape with one `push_str`.
fn write_escaped(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut rest = s;
    loop {
        let run = escape_free_len(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&byte) = rest.as_bytes().get(run) else {
            break;
        };
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => out.push_str(&format!("\\u{byte:04x}")),
        }
        rest = &rest[run + 1..];
    }
    out.push('"');
}

/// A JSON syntax error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    /// The document; every slice between ASCII delimiters is valid UTF-8.
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    /// Scans one number by the JSON grammar — `-? (0 | [1-9][0-9]*)
    /// (.[0-9]+)? ([eE][+-]?[0-9]+)?` — and converts it with `f64::parse`,
    /// which on its own would also accept `01`, `-.5` and `1.`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let invalid = |p: &Parser<'_>| JsonError {
            message: format!("invalid number `{}`", &p.input[start..p.pos]),
            offset: start,
        };
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(invalid(self));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(invalid(self));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| invalid(self))
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Parses a string, copying each run of bytes without an escape with
    /// one `push_str`: the delimiters are ASCII, so a run is whole UTF-8.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            self.pos += escape_free_len(&self.bytes[run..]);
            out.push_str(&self.input[run..self.pos]);
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Raw control characters are invalid inside JSON strings.
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// Parses the four hex digits of a `\u` escape. Each must be an ASCII
    /// hex digit: `u32::from_str_radix` would also take a sign (`\u+041`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let value = digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shaped_messages() {
        let msg = Json::obj(vec![
            ("cmd", "sample".into()),
            ("n", Json::Num(16.0)),
            ("seed", Json::Num(7.0)),
            ("solutions", Json::Arr(vec!["0101".into(), "1100".into()])),
            ("ok", true.into()),
            ("note", Json::Null),
        ]);
        let text = msg.encode();
        assert_eq!(Json::parse(&text).expect("parse"), msg);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::Num(42.0).encode(), "42");
        assert_eq!(Json::Num(-3.0).encode(), "-3");
        assert_eq!(Json::Num(1.5).encode(), "1.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\nback\\slash",
            "héllo ✓",
        ] {
            let text = Json::Str(s.to_string()).encode();
            assert_eq!(
                Json::parse(&text).expect("parse"),
                Json::Str(s.to_string()),
                "input {s:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_are_decoded() {
        assert_eq!(
            Json::parse(r#""Aé""#).expect("parse"),
            Json::Str("Aé".to_string())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""😀""#).expect("parse"),
            Json::Str("\u{1f600}".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn control_characters_are_escaped_on_encode() {
        let text = Json::Str("\u{01}".to_string()).encode();
        assert_eq!(text, "\"\\u0001\"");
        assert_eq!(
            Json::parse(&text).expect("parse"),
            Json::Str("\u{01}".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "\u{7f}",
            r#""\u+041""#,
            r#""\u 041""#,
            "01",
            "-01",
            "-.5",
            ".5",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            "-",
            "[1.]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v =
            Json::parse(r#"{"a": 1, "b": "x", "c": true, "d": [2, 3], "a": 9}"#).expect("parse");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(9), "last dup wins");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("d").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // u64::MAX as f64 rounds UP to 2^64: it must be rejected, not
        // saturated to a different in-range value.
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(Json::Num((1u64 << 53) as f64).as_u64(), Some(1 << 53));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \t{\n \"k\" : [ 1 , 2 ] \r}\n").expect("parse");
        assert_eq!(
            v.get("k").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
