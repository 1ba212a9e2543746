//! A minimal hand-rolled JSON writer **and reader** for stable report
//! output, fabric spec documents and service request bodies.
//!
//! The build environment has no registry access, so there is no serde;
//! reports instead implement [`ToJson`] on top of the tiny
//! [`JsonObject`]/[`JsonArray`] builders below. The output contract is
//! deliberately strict so downstream tooling can pin it:
//!
//! * object keys appear in the order the builder emitted them;
//! * strings are escaped per RFC 8259 (quotes, backslashes, control
//!   characters as `\u00XX`);
//! * integers are written verbatim; floats with **two decimal places**
//!   (non-finite floats become `null`);
//! * no whitespace is emitted anywhere.
//!
//! The read side ([`JsonValue::parse`]) is the mirror image: a strict
//! recursive-descent RFC 8259 parser used by the `qspr serve` HTTP
//! endpoints to decode request bodies and by `qspr-fabric` to load
//! declarative fabric spec files. It preserves object key order,
//! rejects trailing garbage and duplicate keys, and bounds nesting
//! depth so untrusted bodies cannot blow the stack.
//!
//! This crate sits below every other QSPR crate (it has no
//! dependencies); `qspr::json` re-exports it unchanged.
//!
//! # Examples
//!
//! ```
//! use qspr_json::JsonObject;
//!
//! let json = JsonObject::new()
//!     .string("circuit", "[[5,1,3]]")
//!     .number("latency_us", 634)
//!     .float("improvement_pct", 23.798)
//!     .boolean("mvfb_wins", true)
//!     .build();
//! assert_eq!(
//!     json,
//!     r#"{"circuit":"[[5,1,3]]","latency_us":634,"improvement_pct":23.80,"mvfb_wins":true}"#
//! );
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Types that serialize themselves to a stable JSON string.
pub trait ToJson {
    /// Renders `self` as one JSON value with the stability guarantees
    /// documented at the [crate level](crate).
    fn to_json(&self) -> String;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> String {
        (**self).to_json()
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Builder for one JSON object, emitting keys in call order.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn number(mut self, key: &str, value: u64) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field, formatted with two decimal places
    /// (`null` when not finite).
    pub fn float(mut self, key: &str, value: f64) -> JsonObject {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.2}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> JsonObject {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Finishes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Builder for one JSON array of pre-rendered values.
#[derive(Debug, Clone, Default)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> JsonArray {
        JsonArray { buf: String::new() }
    }

    /// Appends a pre-rendered JSON value.
    pub fn push_raw(&mut self, value: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(value);
    }

    /// Collects the JSON renderings of `items` into one array.
    pub fn of<T: ToJson>(items: impl IntoIterator<Item = T>) -> String {
        let mut arr = JsonArray::new();
        for item in items {
            arr.push_raw(&item.to_json());
        }
        arr.build()
    }

    /// Finishes the array.
    pub fn build(self) -> String {
        format!("[{}]", self.buf)
    }
}

/// A parsed JSON value.
///
/// Objects keep their fields **in source order** (mirroring the writer,
/// which emits keys in call order), so a parse/serialize round trip is
/// order-preserving.
///
/// # Examples
///
/// ```
/// use qspr_json::JsonValue;
///
/// let v = JsonValue::parse(r#"{"program":"H a\n","m":25,"trace":true}"#).unwrap();
/// assert_eq!(v.get("program").and_then(JsonValue::as_str), Some("H a\n"));
/// assert_eq!(v.get("m").and_then(JsonValue::as_u64), Some(25));
/// assert_eq!(v.get("trace").and_then(JsonValue::as_bool), Some(true));
/// assert!(v.get("router").is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; see [`JsonValue::as_u64`]).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object: `(key, value)` pairs in source order, keys unique.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON parse failure: what went wrong and the byte offset at which
/// the parser gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input at which the problem was detected.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum nesting depth accepted by [`JsonValue::parse`]; deeper
/// inputs are rejected rather than recursed into (service bodies are
/// untrusted).
const MAX_DEPTH: usize = 64;

impl JsonValue {
    /// Parses `text` as exactly one JSON value (trailing garbage is an
    /// error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] describing the first syntax
    /// violation: malformed literals, unterminated strings, invalid
    /// escapes, duplicate object keys, nesting deeper than 64 levels,
    /// or bytes left over after the value.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for absent keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, when this is a number with
    /// no fractional part that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Recursive-descent parser over raw bytes (ASCII structure; string
/// contents are validated as UTF-8 by construction since the input is
/// `&str`).
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            message: message.into(),
            offset: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(
        &mut self,
        literal: &str,
        value: JsonValue,
    ) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal (expected {literal:?})")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 64 levels"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", JsonValue::Null),
            Some(b't') => self.expect_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.expect_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.at += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(JsonValue::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.at += 1; // consume '{'
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key in object"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(JsonValue::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}' in object"));
            }
        }
    }

    /// RFC 8259 `number`: `-? int frac? exp?` with `int` either `0` or
    /// a non-zero-leading digit run. The grammar is validated here —
    /// `f64::from_str` alone would admit `"01"`, `"1."` and `".5"`.
    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.at;
        let fail = |at: usize, bytes: &[u8]| JsonParseError {
            message: format!(
                "invalid number {:?}",
                String::from_utf8_lossy(&bytes[start..at.min(bytes.len())])
            ),
            offset: start,
        };
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        // int: "0" | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.at += 1;
                }
            }
            _ => return Err(fail(self.at + 1, self.bytes)),
        }
        // frac: "." [0-9]+
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(fail(self.at, self.bytes));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        // exp: [eE] [+-]? [0-9]+
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(fail(self.at, self.bytes));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII slice");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => Err(fail(self.at, self.bytes)),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.at += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired \uXXXX.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid codepoint"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(self.error(format!("invalid escape \\{}", other as char)))
                        }
                    }
                }
                c if c < 0x20 => return Err(self.error("raw control character in string")),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so resync on
                    // the char boundary and copy the whole character.
                    let rest = std::str::from_utf8(&self.bytes[self.at - 1..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.at += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.at + 4;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.at = end;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("µs ok"), "µs ok");
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().build(), "{}");
        assert_eq!(JsonArray::new().build(), "[]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let json = JsonObject::new().float("x", f64::NAN).build();
        assert_eq!(json, r#"{"x":null}"#);
    }

    #[test]
    fn nested_raw_values() {
        let inner = JsonObject::new().number("n", 1).build();
        let mut arr = JsonArray::new();
        arr.push_raw(&inner);
        arr.push_raw("2");
        let outer = JsonObject::new().raw("items", &arr.build()).build();
        assert_eq!(outer, r#"{"items":[{"n":1},2]}"#);
    }

    #[test]
    fn parser_accepts_every_value_kind() {
        let v = JsonValue::parse(
            r#" {"s":"a\u00b5s","n":-2.5,"i":7,"b":false,"z":null,"a":[1,{"k":"v"},[]]} "#,
        )
        .unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("aµs"));
        assert_eq!(v.get("n"), Some(&JsonValue::Number(-2.5)));
        assert_eq!(v.get("i").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("z"), Some(&JsonValue::Null));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].get("k").and_then(JsonValue::as_str), Some("v"));
        // Fields stay in source order.
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["s", "n", "i", "b", "z", "a"]);
    }

    #[test]
    fn parser_round_trips_the_writer() {
        let written = JsonObject::new()
            .string("circuit", "[[5,1,3]]\n\"quoted\"")
            .number("latency_us", 634)
            .float("improvement_pct", 23.798)
            .boolean("mvfb_wins", true)
            .build();
        let v = JsonValue::parse(&written).unwrap();
        assert_eq!(
            v.get("circuit").and_then(JsonValue::as_str),
            Some("[[5,1,3]]\n\"quoted\"")
        );
        assert_eq!(v.get("latency_us").and_then(JsonValue::as_u64), Some(634));
        assert_eq!(v.get("improvement_pct"), Some(&JsonValue::Number(23.80)));
        assert_eq!(v.get("mvfb_wins").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":1,}"#,
            r#"{"a":1 "b":2}"#,
            r#"{"a":1}x"#,
            "tru",
            "1e999",
            "\"\\q\"",
            "\"unterminated",
            "\"\u{01}\"",
            r#"{"dup":1,"dup":2}"#,
            "nan",
            "+1",
            "--1",
            // RFC 8259 number grammar: no leading zeros, no bare dot or
            // exponent, no trailing dot.
            "01",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            "-",
            "1.2.3",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
        // ...while every legal shape still parses.
        for good in ["0", "-0", "10", "0.5", "1e3", "1E-2", "-1.25e+2"] {
            assert!(JsonValue::parse(good).is_ok(), "{good:?} should parse");
        }
        // The error carries a position and prints as one line.
        let err = JsonValue::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("at byte 4"));
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\ud83dx""#).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(0.0).as_u64(), Some(0));
        assert_eq!(JsonValue::String("7".into()).as_u64(), None);
    }
}
