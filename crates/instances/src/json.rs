//! A minimal JSON reader/writer used by [`crate::io`] and the NDJSON
//! serving protocol.
//!
//! The build environment vendors no `serde`, and the formats this crate
//! exchanges are small and fixed (instance and schedule files, request
//! records). Two readers share them:
//!
//! * [`parse`], a recursive-descent parser into an owned [`Value`] tree:
//!   the semantic reference, strict on structure (trailing garbage,
//!   duplicate keys and truncation are errors), permissive on whitespace;
//! * [`scan`], borrowing cursors that read the hot shapes — an instance
//!   file, a request record, a jobs array — without building a tree, and
//!   decline whatever needs [`parse`]. Instance files of tens of thousands
//!   of jobs read several times faster this way.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` exactly (no decimal point or exponent in
    /// the source). Kept separate from [`Value::Number`] so coordinates and
    /// costs round-trip losslessly even beyond 2⁵³.
    Int(i64),
    /// Any other JSON number, stored as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

/// A parse or shape error, with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// The value as an exact `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(n) => Some(n),
            // a float that happens to be integral and small enough to be
            // exact (e.g. from a producer that writes `4.0`)
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
                Some(n as i64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an optional object field (`None` when the value is not an
    /// object or lacks the key) — the lookup NDJSON records use, where
    /// almost every field has a default and unknown fields are ignored.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Looks up a required object field.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(map) => map
                .get(key)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            _ => Err(JsonError(format!("expected object with field `{key}`"))),
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(JsonError(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(JsonError(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError(format!(
                "unexpected input at offset {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(JsonError(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError("unterminated string".into())),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError("invalid \\u escape".into()))?;
                            // no surrogate-pair support: this crate never
                            // writes astral-plane characters escaped
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("invalid \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(JsonError("invalid escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                    let ch = s.chars().next().expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

/// Looks up an optional integer field of an object: `Ok(None)` when the
/// key is absent or `null`, an error when present but not an in-range
/// integer. The shared helper behind every "field with a default" in the
/// generator-spec and NDJSON record formats, so all of them treat `null`
/// the same way (as absent).
pub fn opt_int<T: TryFrom<i64>>(value: &Value, key: &str) -> Result<Option<T>, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let raw = v
                .as_i64()
                .ok_or_else(|| JsonError(format!("field `{key}` must be an integer")))?;
            T::try_from(raw)
                .map(Some)
                .map_err(|_| JsonError(format!("field `{key}` out of range")))
        }
    }
}

/// Serializes a string with JSON escaping.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Zero-copy scanning primitives over raw JSON text.
///
/// These are the building blocks of the NDJSON fast path: borrowing
/// cursors that resolve hot fields without building a [`Value`] tree. The
/// contract is *conservative agreement* with [`parse`]: every function
/// returns `None` the moment the input needs semantic work (escape
/// sequences, non-integer numbers, nested objects) or could disagree with
/// the owned parser — callers then fall back to [`parse`], so the fast
/// path can never accept what the owned parser rejects or vice versa.
///
/// Readers take the full text plus a byte offset and return the new
/// offset on success; whitespace and structure between values stay with
/// the caller, or with [`scan::object`], which walks one object and hands
/// each field's value to a reader.
pub mod scan {
    /// Advances past JSON whitespace (space, tab, CR, LF).
    pub fn skip_ws(s: &str, mut pos: usize) -> usize {
        let bytes = s.as_bytes();
        while let Some(&b) = bytes.get(pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                pos += 1;
            } else {
                break;
            }
        }
        pos
    }

    /// Borrows a quoted string containing no escapes: expects `"` at
    /// `pos`, returns the content slice and the offset past the closing
    /// quote. `None` on a missing/unterminated quote **or any backslash**
    /// (escape decoding needs an owned buffer — fall back).
    pub fn string_borrowed(s: &str, pos: usize) -> Option<(&str, usize)> {
        let bytes = s.as_bytes();
        if bytes.get(pos) != Some(&b'"') {
            return None;
        }
        let start = pos + 1;
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'"' => return Some((&s[start..i], i + 1)),
                b'\\' => return None,
                _ => i += 1,
            }
        }
        None
    }

    /// Reads a strictly integral number: `-?[0-9]+` not followed by any
    /// of `.eE+-` (those shapes may still be valid JSON numbers — `4.0`,
    /// `1e3` — which the owned parser accepts as integers; deciding that
    /// needs float semantics, so the fast path declines).
    pub fn int_strict(s: &str, pos: usize) -> Option<(i64, usize)> {
        let bytes = s.as_bytes();
        let mut i = pos;
        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        let digits = i;
        while matches!(bytes.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
        if i == digits {
            return None;
        }
        if matches!(bytes.get(i), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return None;
        }
        s[pos..i].parse::<i64>().ok().map(|n| (n, i))
    }

    /// Reads a strict integer that is a valid parallelism `g`: in `u32`
    /// and at least 1. Declines otherwise, leaving the owned parser to
    /// normalize or reject it.
    pub fn positive_u32(s: &str, pos: usize) -> Option<(u32, usize)> {
        let (n, next) = int_strict(s, pos)?;
        let n = u32::try_from(n).ok().filter(|&n| n >= 1)?;
        Some((n, next))
    }

    /// Walks the object at `pos`, handing each field's key and value
    /// offset to `field`, which reads the value and returns the offset
    /// past it. Returns the offset past the closing `}`. Declines on
    /// malformed structure, on a repeated key (an owned-parser error) and
    /// past `N` keys (the repeat check scans a fixed array).
    pub fn object<'s, const N: usize>(
        s: &'s str,
        pos: usize,
        mut field: impl FnMut(&'s str, usize) -> Option<usize>,
    ) -> Option<usize> {
        let bytes = s.as_bytes();
        if bytes.get(pos) != Some(&b'{') {
            return None;
        }
        let mut pos = skip_ws(s, pos + 1);
        if bytes.get(pos) == Some(&b'}') {
            return Some(pos + 1);
        }
        let mut seen: [&str; N] = [""; N];
        for nkeys in 0..N {
            let (key, next) = string_borrowed(s, pos)?;
            if seen[..nkeys].contains(&key) {
                return None;
            }
            seen[nkeys] = key;
            pos = skip_ws(s, next);
            if bytes.get(pos) != Some(&b':') {
                return None;
            }
            pos = skip_ws(s, field(key, skip_ws(s, pos + 1))?);
            match bytes.get(pos)? {
                b',' => pos = skip_ws(s, pos + 1),
                b'}' => return Some(pos + 1),
                _ => return None,
            }
        }
        None
    }

    /// Stores a read value in `slot` and passes its end offset on: the
    /// glue between a reader and an [`object`] field callback.
    pub fn store<T>(slot: &mut Option<T>, (value, next): (T, usize)) -> usize {
        *slot = Some(value);
        next
    }

    /// Matches an exact literal (`true`, `false`, `null`) at `pos`.
    pub fn literal(s: &str, pos: usize, lit: &str) -> Option<usize> {
        s.as_bytes()[pos..]
            .starts_with(lit.as_bytes())
            .then(|| pos + lit.len())
    }

    /// Reads a `[[start, end], …]` jobs array of strict-integer pairs with
    /// `start ≤ end`, building each job with `job`. Declines on float
    /// endpoints, malformed pairs and `start > end` (the owned parser's
    /// errors, or its float normalization).
    pub fn job_pairs<T>(
        s: &str,
        pos: usize,
        job: impl Fn(i64, i64) -> T,
    ) -> Option<(Vec<T>, usize)> {
        let bytes = s.as_bytes();
        if bytes.get(pos) != Some(&b'[') {
            return None;
        }
        let mut pos = skip_ws(s, pos + 1);
        let mut jobs = Vec::new();
        if bytes.get(pos) == Some(&b']') {
            return Some((jobs, pos + 1));
        }
        loop {
            if bytes.get(pos) != Some(&b'[') {
                return None;
            }
            let (start, p) = int_strict(s, skip_ws(s, pos + 1))?;
            pos = skip_ws(s, p);
            if bytes.get(pos) != Some(&b',') {
                return None;
            }
            let (end, p) = int_strict(s, skip_ws(s, pos + 1))?;
            pos = skip_ws(s, p);
            if bytes.get(pos) != Some(&b']') || start > end {
                return None;
            }
            jobs.push(job(start, end));
            pos = skip_ws(s, pos + 1);
            match bytes.get(pos)? {
                b',' => pos = skip_ws(s, pos + 1),
                b']' => return Some((jobs, pos + 1)),
                _ => return None,
            }
        }
    }

    /// Skips one value the fast path does not need, *without* accepting
    /// anything [`super::parse`] would reject: strings must be
    /// escape-free, numbers must actually parse (`12-3` is consumed by the
    /// owned lexer's character class and then rejected — so it is rejected
    /// here too), arrays recurse to a fixed depth, and objects always
    /// return `None` (an unknown object field forces the owned parser).
    pub fn skip_simple_value(s: &str, pos: usize, depth: usize) -> Option<usize> {
        let bytes = s.as_bytes();
        match bytes.get(pos)? {
            b'"' => string_borrowed(s, pos).map(|(_, next)| next),
            b't' => literal(s, pos, "true"),
            b'f' => literal(s, pos, "false"),
            b'n' => literal(s, pos, "null"),
            b'-' | b'0'..=b'9' => {
                let mut i = pos;
                if bytes[i] == b'-' {
                    i += 1;
                }
                while matches!(
                    bytes.get(i),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    i += 1;
                }
                let text = &s[pos..i];
                (text.parse::<i64>().is_ok() || text.parse::<f64>().is_ok()).then_some(i)
            }
            b'[' => {
                if depth == 0 {
                    return None;
                }
                let mut i = skip_ws(s, pos + 1);
                if bytes.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = skip_ws(s, skip_simple_value(s, i, depth - 1)?);
                    match bytes.get(i)? {
                        b',' => i = skip_ws(s, i + 1),
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(parse("1.5").unwrap(), Value::Number(1.5));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"jobs": [[0, 4], [1, 5]], "g": 2, "name": "x"}"#).unwrap();
        assert_eq!(v.field("g").unwrap().as_i64(), Some(2));
        let jobs = v.field("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs[1].as_array().unwrap()[0].as_i64(), Some(1));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn huge_integers_round_trip_exactly() {
        // beyond 2^53: lost by an f64-only representation
        let big = 9_007_199_254_740_993i64;
        assert_eq!(parse(&big.to_string()).unwrap().as_i64(), Some(big));
        assert_eq!(
            parse(&i64::MIN.to_string()).unwrap().as_i64(),
            Some(i64::MIN)
        );
        // integral floats still recover where exact
        assert_eq!(parse("4.0").unwrap().as_i64(), Some(4));
    }

    #[test]
    fn string_roundtrip() {
        let tricky = "quote\" slash\\ newline\n tab\t unicode é";
        let mut out = String::new();
        write_string(&mut out, tricky);
        assert_eq!(parse(&out).unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn missing_field_reported() {
        let v = parse(r#"{"a": 1}"#).unwrap();
        let err = v.field("b").unwrap_err();
        assert!(err.to_string().contains("`b`"));
    }

    #[test]
    fn scan_string_borrowed() {
        assert_eq!(scan::string_borrowed("\"abc\"", 0), Some(("abc", 5)));
        assert_eq!(scan::string_borrowed("\"\"", 0), Some(("", 2)));
        assert_eq!(scan::string_borrowed("\"héé\"x", 0), Some(("héé", 7)));
        // escapes, missing quote, unterminated → decline
        assert_eq!(scan::string_borrowed("\"a\\nb\"", 0), None);
        assert_eq!(scan::string_borrowed("abc", 0), None);
        assert_eq!(scan::string_borrowed("\"abc", 0), None);
    }

    #[test]
    fn scan_int_strict() {
        assert_eq!(scan::int_strict("42,", 0), Some((42, 2)));
        assert_eq!(scan::int_strict("-7]", 0), Some((-7, 2)));
        assert_eq!(scan::int_strict("0123", 0), Some((123, 4))); // as parse()
                                                                 // float shapes and overflow decline (fall back)
        assert_eq!(scan::int_strict("4.0", 0), None);
        assert_eq!(scan::int_strict("1e3", 0), None);
        assert_eq!(scan::int_strict("99999999999999999999", 0), None);
        assert_eq!(scan::int_strict("-", 0), None);
        assert_eq!(scan::int_strict("x", 0), None);
    }

    #[test]
    fn scan_skip_simple_value_agrees_with_parse() {
        // whatever skip accepts, parse must accept too (the reverse may
        // not hold: skip is deliberately conservative)
        let cases = [
            "true",
            "false",
            "null",
            "\"str\"",
            "42",
            "-1.5",
            "1e3",
            "[]",
            "[1, 2, 3]",
            "[[0, 4], [1, 5]]",
            "\"a\\\"b\"",
            "12-3",
            "{\"a\":1}",
            "tru",
        ];
        for case in cases {
            if let Some(next) = scan::skip_simple_value(case, 0, 8) {
                assert_eq!(next, case.len(), "{case}");
                assert!(
                    parse(case).is_ok(),
                    "skip accepted what parse rejects: {case}"
                );
            }
        }
        // the conservative declines
        assert_eq!(scan::skip_simple_value("{\"a\":1}", 0, 8), None); // object
        assert_eq!(scan::skip_simple_value("\"a\\\"b\"", 0, 8), None); // escape
        assert_eq!(scan::skip_simple_value("12-3", 0, 8), None); // bad number
        assert_eq!(scan::skip_simple_value("[[[[1]]]]", 0, 2), None); // depth
    }
}
