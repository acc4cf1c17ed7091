//! Hand-rolled JSON: a small value model, a deterministic writer, and a
//! strict parser — shared by the serve subsystem, `fetchmech-lint --json`,
//! and the bench writers.
//!
//! The workspace builds hermetically (no registry access), so it cannot pull
//! in `serde`; before this module existed the lint CLI, the analysis crate,
//! and `examples/runner_bench.rs` each hand-rolled their own escaping and
//! number formatting. This module is the single implementation:
//!
//! * [`Value`] — an order-preserving JSON document model (object fields render
//!   in insertion order, so output is byte-deterministic).
//! * [`Value::render`] / [`Value::pretty`] — compact and indented writers.
//! * [`escape`] / [`escape_into`] — string escaping per RFC 8259.
//! * [`parse`] — a recursive-descent parser with a depth limit, used by the
//!   experiment service to decode request bodies.
//! * [`diagnostics_value`] — the lint CLI's diagnostic reporter, so every
//!   JSON emitter shares one writer.
//!
//! Numbers render deterministically: integers print exactly ([`Value::Uint`]
//! and [`Value::Int`] hold the full 64-bit range), and floats use Rust's
//! shortest round-trip `Display`, with non-finite values rendering as `null`
//! (JSON has no NaN/Infinity).

use std::fmt;

use fetchmech_analysis::Diagnostic;

/// A JSON document.
///
/// Objects preserve insertion order (they are a `Vec` of pairs, not a map),
/// which keeps rendered output byte-deterministic — the property the serve
/// subsystem's "concurrent responses are byte-identical to serial execution"
/// guarantee rests on.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (renders exactly, no float round-trip).
    Uint(u64),
    /// A signed integer (renders exactly, no float round-trip).
    Int(i64),
    /// A float (shortest round-trip formatting; non-finite renders `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a field of an object (`None` for non-objects and missing
    /// keys; first match wins on duplicate keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a `u64`, when it is a non-negative integer (including a
    /// float with an exact integral value, e.g. from a parser that produced
    /// `Num`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Uint(n) => Some(n),
            Value::Int(n) => u64::try_from(n).ok(),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// This value as an `f64`, when it is any kind of number.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Uint(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace). Deterministic: field order is
    /// insertion order, numbers format as documented on [`Value`].
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation (trailing newline not included).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Uint(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Num(x) => out.push_str(&format_f64(*x)),
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Value::Array(items) => {
                write_seq(out, indent, depth, items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Value::Object(fields) => {
                write_seq_delim(out, indent, depth, fields.len(), ('{', '}'), |out, i| {
                    let (k, v) = &fields[i];
                    out.push('"');
                    escape_into(out, k);
                    out.push_str(if indent.is_some() { "\": " } else { "\":" });
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    item: impl FnMut(&mut String, usize),
) {
    write_seq_delim(out, indent, depth, len, ('[', ']'), item);
}

fn write_seq_delim(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    (open, close): (char, char),
    mut item: impl FnMut(&mut String, usize),
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
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Formats an `f64` as a JSON number: shortest round-trip decimal for finite
/// values, `null` for NaN and the infinities (JSON cannot express them).
#[must_use]
pub fn format_f64(x: f64) -> String {
    if x.is_finite() {
        // Rust's `Display` for floats is the shortest string that parses back
        // to the same bits — deterministic and locale-independent. It never
        // uses exponent notation, so the output is always a valid JSON number.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` for inclusion in a JSON string literal (without the quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending into an existing buffer.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Diagnostics as a JSON array — the lint CLI's machine-readable reporter
/// (schema: `[{"rule_id", "severity", "location", "message"}]`), rendered
/// alone or embedded in a larger report.
#[must_use]
pub fn diagnostics_value(diags: &[Diagnostic]) -> Value {
    Value::Array(
        diags
            .iter()
            .map(|d| {
                Value::object([
                    ("rule_id", Value::Str(d.rule_id.to_string())),
                    ("severity", Value::Str(d.severity.to_string())),
                    ("location", Value::Str(d.location.to_string())),
                    ("message", Value::Str(d.message.clone())),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum nesting depth [`parse`] accepts (defense against stack-abuse from
/// untrusted request bodies).
pub const MAX_DEPTH: usize = 32;

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// Integer literals that fit `u64`/`i64` parse to [`Value::Uint`] /
/// [`Value::Int`] exactly; everything else numeric becomes [`Value::Num`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", char::from(c)))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            // RFC 8259 leaves duplicate-key behaviour undefined; for a
            // parser fed untrusted uploads, silently keeping one of the two
            // values is a smuggling vector, so reject outright.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?} in object")));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape_sequence(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape_sequence(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require a following \uXXXX low half.
                    if !self.eat("\\u") {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            other => {
                return Err(self.err(format!("unknown escape \\{}", char::from(other))));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            // `1e999` parses to infinity, which `render` would emit as
            // `null`; reject here so hostile input cannot round-trip a
            // number into a different type.
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            Ok(_) => Err(self.err(format!("number {text:?} overflows"))),
            Err(_) => Err(self.err(format!("invalid number {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_analysis::{Location, Severity};

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
        assert_eq!(escape("line\nfeed\ttab\rret"), "line\\nfeed\\ttab\\rret");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(escape("π≈3"), "π≈3");
    }

    #[test]
    fn number_formatting_is_exact_and_json_safe() {
        assert_eq!(Value::Uint(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Value::Int(i64::MIN).render(), "-9223372036854775808");
        assert_eq!(Value::Num(0.1).render(), "0.1");
        assert_eq!(Value::Num(1.0).render(), "1");
        assert_eq!(Value::Num(-2.5).render(), "-2.5");
        // Non-finite floats cannot be JSON numbers.
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        assert_eq!(format_f64(3.125), "3.125");
    }

    #[test]
    fn render_is_compact_and_ordered() {
        let v = Value::object([
            ("b", Value::Uint(1)),
            ("a", Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[true,null]}");
    }

    #[test]
    fn pretty_indents_and_handles_empties() {
        let v = Value::object([
            ("empty_obj", Value::Object(vec![])),
            ("empty_arr", Value::Array(vec![])),
            ("n", Value::Uint(7)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": [],\n  \"n\": 7\n}"
        );
        assert_eq!(Value::Array(vec![]).pretty(), "[]");
    }

    #[test]
    fn parse_roundtrips_documents() {
        let text = r#"{"a": [1, -2, 2.5, "x\n\"y\"", true, false, null], "b": {"c": 18446744073709551615}}"#;
        let v = parse(text).expect("parses");
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Uint(u64::MAX))
        );
        let arr = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(arr[0], Value::Uint(1));
        assert_eq!(arr[1], Value::Int(-2));
        assert_eq!(arr[2], Value::Num(2.5));
        assert_eq!(arr[3].as_str(), Some("x\n\"y\""));
        // Render → parse → render is a fixed point.
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("reparse").render(), rendered);
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        let v = parse(r#""é😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate rejected");
    }

    #[test]
    fn parse_rejects_garbage_with_position() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\u{1}\""] {
            let err = parse(bad).expect_err(bad);
            assert!(err.pos <= bad.len(), "{bad}: {err}");
        }
        assert!(
            parse(&("[".repeat(40) + &"]".repeat(40))).is_err(),
            "depth limit"
        );
    }

    #[test]
    fn parse_rejects_hostile_input() {
        // Duplicate keys are a smuggling vector, not a tie to break.
        let e = parse(r#"{"a": 1, "a": 2}"#).expect_err("dup key");
        assert!(e.to_string().contains("duplicate key \"a\""), "{e}");
        assert!(parse(r#"{"a": {"x": 1, "x": 1}}"#).is_err(), "nested dup");
        // Same key at different depths is fine.
        assert!(parse(r#"{"a": {"a": 1}, "b": {"a": 2}}"#).is_ok());

        // Numbers that overflow to non-finite floats would silently become
        // `null` on re-render; reject them at the door.
        for bad in ["1e999", "-1e999", "1e99999999"] {
            let e = parse(bad).expect_err(bad);
            assert!(e.to_string().contains("overflows"), "{bad}: {e}");
        }
        // Large but representable magnitudes still parse.
        assert_eq!(parse("1e308"), Ok(Value::Num(1e308)));

        // Bad escapes never panic, they report a position.
        for bad in [r#""\q""#, r#""\u12""#, r#""\u{7}""#, r#""\ud800\ud800""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors_coerce_sanely() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::Uint(5).as_f64(), Some(5.0));
        assert_eq!(Value::Str("x".into()).as_u64(), None);
        let obj = Value::object([("k", Value::Bool(true))]);
        assert_eq!(obj.get("k").and_then(Value::as_bool), Some(true));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn diagnostics_reporter_matches_the_old_schema() {
        let diags = vec![
            Diagnostic {
                rule_id: "prog.test-rule",
                severity: Severity::Error,
                location: Location::Program,
                message: "something \"quoted\"\nbroke".to_string(),
            },
            Diagnostic {
                rule_id: "layout.other",
                severity: Severity::Warning,
                location: Location::Trace(3),
                message: "suspicious".to_string(),
            },
        ];
        let json = diagnostics_value(&diags).pretty();
        assert!(json.contains("\\\"quoted\\\"\\nbroke"), "{json}");
        assert!(json.contains("\"rule_id\": \"prog.test-rule\""), "{json}");
        assert!(json.contains("\"severity\": \"warning\""), "{json}");
        assert!(json.contains("\"location\": \"trace#3\""), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        assert_eq!(diagnostics_value(&[]).pretty(), "[]");
        // The reporter's output is itself valid JSON.
        let parsed = parse(&json).expect("reporter emits valid JSON");
        assert_eq!(parsed.as_array().map(<[Value]>::len), Some(2));
    }
}
