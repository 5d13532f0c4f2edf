//! Dependency-free JSON: string escaping, number rendering and a small
//! recursive-descent parser.
//!
//! The workspace builds offline (no serde), so every crate that speaks JSON
//! — the CLI emitters, the `BENCH_SIM.json` cycle record in
//! `refrint-bench`, the `refrint-serve` request parser — shares this one
//! implementation. The parser covers enough of RFC 8259 for the documents
//! the suite exchanges and reports malformed input as a typed
//! [`JsonError`] carrying the offending byte offset, never a panic.

use std::fmt;

/// Escapes `s` as the contents of a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is valid JSON.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders a [`Value`] as compact JSON text.
///
/// For any tree whose numbers are finite, `parse(&emit(v))` reconstructs
/// `v` exactly: strings round-trip through [`escape`], and numbers use
/// Rust's shortest-roundtrip float formatting. Non-finite numbers render
/// as `null` (JSON cannot represent them), which is the one lossy case.
#[must_use]
pub fn emit(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => num(*n),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(emit).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), emit(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string (escapes already resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; fields keep their document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of object field `key`, if this is an object that has it.
    #[must_use]
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is `true` or `false`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in document order, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if this is a non-negative
    /// number without a fractional part.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected byte {c:#04x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError {
                offset: start,
                reason: "non-UTF-8 number".to_owned(),
            })?
            .to_owned();
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => {
                self.pos = start;
                self.err(format!("invalid number '{text}'"))
            }
        }
    }

    /// Four hex digits starting at byte `at`, as a code unit.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'u') => {
                            let Some(unit) = self.hex4(self.pos + 1) else {
                                return self.err("bad \\u escape");
                            };
                            match unit {
                                // High surrogate: standard serializers
                                // encode non-BMP characters as a
                                // \uD8xx\uDCxx pair, so a low surrogate
                                // escape must follow.
                                0xD800..=0xDBFF => {
                                    let low = if self.bytes.get(self.pos + 5) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 6) == Some(&b'u')
                                    {
                                        self.hex4(self.pos + 7)
                                    } else {
                                        None
                                    };
                                    match low {
                                        Some(low @ 0xDC00..=0xDFFF) => {
                                            let c =
                                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                            out.push(
                                                char::from_u32(c)
                                                    .expect("combined surrogates are a scalar"),
                                            );
                                            self.pos += 10;
                                        }
                                        _ => return self.err("unpaired \\u surrogate"),
                                    }
                                }
                                0xDC00..=0xDFFF => return self.err("unpaired \\u surrogate"),
                                _ => {
                                    out.push(
                                        char::from_u32(unit)
                                            .expect("non-surrogate BMP code point is a scalar"),
                                    );
                                    self.pos += 4;
                                }
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            offset: self.pos,
                            reason: "non-UTF-8 string".to_owned(),
                        })?;
                    let c = rest.chars().next().expect("peeked byte exists");
                    out.push(c);
                    self.pos += c.len_utf8();
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
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            "{\"s\": \"a\\u0041\", \"n\": -2.5e2, \"b\": true, \
             \"z\": null, \"a\": [1, 2], \"o\": {\"k\": false}}",
        )
        .unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("aA"));
        assert_eq!(v.get("n").and_then(Value::as_num), Some(-250.0));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("z"), Some(&Value::Null));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("o").unwrap().get("k").is_some());
        assert_eq!(v.as_obj().map(<[(String, Value)]>::len), Some(6));
    }

    #[test]
    fn malformed_input_reports_the_offset() {
        let err = parse("{\"k\": ").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        let err = parse("{}extra").unwrap_err();
        assert!(err.reason.contains("trailing"), "{err}");
        assert!(parse("[1, ]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12monkeys").is_err());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_surrogates_error() {
        // How serializers with ASCII-only output (e.g. Python json.dumps)
        // encode non-BMP characters.
        assert_eq!(
            parse("\"\\ud83d\\udcbe\"").unwrap().as_str(),
            Some("\u{1F4BE}")
        );
        assert_eq!(
            parse("\"a\\ud83d\\ude00b\"").unwrap().as_str(),
            Some("a😀b")
        );
        for bad in [
            "\"\\ud83d\"",        // lone high surrogate
            "\"\\ud83dxx\"",      // high surrogate not followed by \u
            "\"\\ud83d\\u0041\"", // high surrogate followed by non-low
            "\"\\udcbe\"",        // lone low surrogate
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.reason.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn round_trips_escaped_strings() {
        let original = "quote\" slash\\ newline\n tab\t";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }
}
