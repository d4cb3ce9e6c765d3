//! Minimal hand-rolled JSON values: a parser and two writers (compact and
//! pretty), shared by the netlist IR and the serve front end.
//!
//! The workspace deliberately has no serde dependency; telemetry renders its
//! reports by hand and this module is the matching *reader* side. It covers
//! the JSON grammar the IR and request formats need: objects, arrays,
//! strings (with `\uXXXX` escapes and surrogate pairs), finite numbers,
//! booleans, and `null`. Object key order is preserved, so a value written
//! by [`JsonValue::write`] parses back to an equal value.
//!
//! Parsing is linear in the input length: every byte is visited a bounded
//! number of times, and a string's plain runs (everything up to the next
//! quote, backslash or control byte) are copied as whole slices. Request
//! lines are untrusted, so a long string must cost its length and no more;
//! the serve front end parses each request line exactly once and decodes
//! its IR from the parsed value.

use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved and duplicates are kept.
    Obj(Vec<(String, JsonValue)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Deeper
/// documents fail with a [`JsonError`] instead of overflowing the stack
/// (the parser recurses once per level, so untrusted input must be
/// depth-bounded).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The top-level member whose value span is recorded, if any.
    span_key: Option<&'a str>,
    /// Byte span of the first top-level `span_key` member's value.
    span: Option<Range<usize>>,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            pos: self.pos,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError {
                pos: start,
                msg: "invalid UTF-8 in number".into(),
            })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(JsonError {
                pos: start,
                msg: format!("invalid number '{text}'"),
            }),
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError {
                pos: self.pos,
                msg: "invalid UTF-8 in \\u escape".into(),
            })?;
        let v = u16::from_str_radix(text, 16).map_err(|_| JsonError {
            pos: self.pos,
            msg: format!("invalid \\u escape '{text}'"),
        })?;
        self.pos += 4;
        Ok(v)
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let c = 0x10000
                                    + ((hi as u32 - 0xD800) << 10)
                                    + (lo as u32 - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(hi as u32)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte in one step. The run
                    // ends on an ASCII byte or at end of input, so it is a
                    // complete UTF-8 slice of the `&str` input and checking
                    // it costs only its own length.
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += len;
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                        JsonError {
                            pos: start + e.valid_up_to(),
                            msg: "invalid UTF-8 in string".into(),
                        }
                    })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.descend()?;
        let v = self.array_body();
        self.depth -= 1;
        v
    }

    fn array_body(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.descend()?;
        let v = self.object_body();
        self.depth -= 1;
        v
    }

    fn object_body(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value()?;
            if self.depth == 1 && self.span.is_none() && self.span_key == Some(key.as_str()) {
                self.span = Some(start..self.pos);
            }
            items.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(items));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Escape `s` into `out` as the body of a JSON string (no surrounding
/// quotes). This is the one escaping helper shared by every hand-rolled
/// JSON emitter in the workspace (telemetry reports, serve summaries,
/// access logs): hostile cell/wire/tenant names must never break a JSON
/// document, so new emitters must route strings through here.
pub fn escape_json(s: &str, out: &mut String) {
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
}

/// Write a finite `f64` deterministically (shortest round-tripping form,
/// Rust's `{}` formatting). Non-finite values are a caller bug; they are
/// written as `null` so the output stays valid JSON.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// [`JsonValue::field`]'s error, out of line: formatted inside every
/// `field` instance, it made `Ir::from_value` ~10% slower.
#[cold]
fn wrong_shape(key: &str, want: &str) -> String {
    format!("field '{key}' must be {want}")
}

impl JsonValue {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error, as is array/object nesting deeper than [`MAX_DEPTH`] levels.
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        Self::parse_document(s, None).map(|(v, _)| v)
    }

    /// [`parse`](Self::parse), also reporting the byte span in `s` of the
    /// value of the first top-level member named `key` (the member
    /// [`get`](Self::get) returns), recorded during the same single pass.
    /// The span is `None` when the document is not an object or has no
    /// such member. The tree and every error are exactly `parse`'s.
    pub fn parse_with_span(
        s: &str,
        key: &str,
    ) -> Result<(JsonValue, Option<Range<usize>>), JsonError> {
        Self::parse_document(s, Some(key))
    }

    fn parse_document(
        s: &str,
        span_key: Option<&str>,
    ) -> Result<(JsonValue, Option<Range<usize>>), JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
            span_key,
            span: None,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after document");
        }
        Ok((v, p.span))
    }

    /// Member `key` of an object, or `None` for non-objects / absent keys.
    /// The first occurrence wins when keys repeat.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(items) => items.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` read through `as_t`: the one rule the IR and request
    /// decoders share. An absent or `null` member is `Ok(None)`; a member
    /// `as_t` rejects is the error `field '<key>' must be <want>`.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => as_t(v).map(Some).ok_or_else(|| wrong_shape(key, want)),
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an exact
    /// integral value.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(items) => Some(items),
            _ => None,
        }
    }

    /// Write compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_f64(*n, out),
            JsonValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(items) => {
                out.push('{');
                for (i, (k, v)) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Write with 2-space-per-level indentation — the fixture / golden-file
    /// form. Arrays of scalars stay on one line; arrays or objects holding
    /// containers break one element per line.
    pub fn write_pretty(&self, indent: usize, out: &mut String) {
        fn pad(n: usize, out: &mut String) {
            for _ in 0..n {
                out.push_str("  ");
            }
        }
        let is_container =
            |v: &JsonValue| matches!(v, JsonValue::Arr(a) if !a.is_empty()) || matches!(v, JsonValue::Obj(o) if !o.is_empty());
        match self {
            JsonValue::Arr(items) if items.iter().any(is_container) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(indent + 1, out);
                    v.write_pretty(indent + 1, out);
                }
                out.push('\n');
                pad(indent, out);
                out.push(']');
            }
            JsonValue::Obj(items) if !items.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(indent + 1, out);
                    out.push('"');
                    escape_json(k, out);
                    out.push_str("\": ");
                    v.write_pretty(indent + 1, out);
                }
                out.push('\n');
                pad(indent, out);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// The compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// The pretty multi-line rendering (ends without a trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u00e9\"").unwrap(),
            JsonValue::Str("a\nbé".into())
        );
    }

    #[test]
    fn parses_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "tru", "{", "[1,", "{\"a\":}", "1 2", "\"\\q\"", "nan", "1e999",
            "\"\\ud83d\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // REVIEW regression: the recursive parser must bound its depth —
        // a line of hundreds of thousands of '[' previously aborted the
        // whole process with a stack overflow.
        let bomb = "[".repeat(200_000);
        let err = JsonValue::parse(&bomb).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let deep_obj = "{\"k\":".repeat(MAX_DEPTH + 1);
        let err = JsonValue::parse(&deep_obj).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn write_parse_round_trip() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x \"y\" z","d":null},"e":true,"f":[]}"#;
        let v = JsonValue::parse(doc).unwrap();
        let compact = v.to_compact();
        assert_eq!(JsonValue::parse(&compact).unwrap(), v);
        let pretty = v.to_pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::parse(r#"{"n":3,"s":"x","b":false,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Num(1.5).as_usize(), None);
        assert_eq!(JsonValue::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn field_reads_absent_and_null_as_none_and_names_a_wrong_shape() {
        let v = JsonValue::parse(r#"{"n":3,"z":null,"s":"3","big":1e300}"#).unwrap();
        let int = |key| v.field(key, "an integer", JsonValue::as_usize);
        assert_eq!(int("n"), Ok(Some(3)));
        assert_eq!(int("z"), Ok(None));
        assert_eq!(int("missing"), Ok(None));
        assert_eq!(int("s"), Err("field 's' must be an integer".into()));
        assert_eq!(int("big"), Err("field 'big' must be an integer".into()));
        assert_eq!(v.field("s", "a string", JsonValue::as_str), Ok(Some("3")));
        // A non-object has no members.
        assert_eq!(
            JsonValue::Num(1.0).field("n", "x", JsonValue::as_f64),
            Ok(None)
        );
    }

    #[test]
    fn error_offsets_inside_long_plain_runs() {
        // A raw control byte after a long plain run (ASCII, then two-byte
        // characters) is reported at its own byte offset.
        let line = format!("\"{}{}\u{1}tail\"", "a".repeat(5000), "é".repeat(3000));
        let err = JsonValue::parse(&line).unwrap_err();
        assert_eq!(err.pos, 1 + 5000 + 6000, "{err}");
        assert_eq!(err.msg, "raw control character in string");
        // A raw control byte as the very first string byte.
        let err = JsonValue::parse("{\"k\":\"\n\"}").unwrap_err();
        assert_eq!(
            (err.pos, err.msg.as_str()),
            (6, "raw control character in string")
        );
        // An unterminated string fails at end of input, also when the
        // document ends right after an escape or a multi-byte character.
        for body in [
            "x".repeat(4096),
            format!("{}ü", "x".repeat(10)),
            "ab\\n".into(),
        ] {
            let line = format!("[\"{body}");
            let err = JsonValue::parse(&line).unwrap_err();
            assert_eq!(
                (err.pos, err.msg.as_str()),
                (line.len(), "unterminated string")
            );
        }
        // Escape errors keep their offsets after a plain run.
        let err = JsonValue::parse("\"abcdef\\q\"").unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (8, "invalid escape"));
        let err = JsonValue::parse("\"abc\\ud83dxyz\"").unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (10, "unpaired surrogate"));
        let err = JsonValue::parse("\"abc\\u12").unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (6, "truncated \\u escape"));
    }

    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        // A multi-megabyte string costs one pass over its bytes.
        const REPS: usize = 2 << 20; // 5-byte units: 10 MiB
        let big = "ab€".repeat(REPS) + "\\n\\u00e9" + &"z".repeat(1 << 20);
        let line = format!("{{\"kind\":\"ping\",\"id\":\"{big}\"}}");
        let v = JsonValue::parse(&line).unwrap();
        let id = v.get("id").and_then(JsonValue::as_str).unwrap();
        assert_eq!(id.len(), 5 * REPS + 3 + (1 << 20));
        assert!(id.starts_with("ab€ab€"));
        assert!(id.ends_with("zzz"));
        assert_eq!(id.matches("\né").count(), 1);
    }

    #[test]
    fn member_span_covers_the_first_top_level_value() {
        let line = r#"{"kind":"simulate", "ir" :  {"ir":[1, 2]} ,"ir":3,"x":{"ir":4}}"#;
        let (v, span) = JsonValue::parse_with_span(line, "ir").unwrap();
        assert_eq!(v, JsonValue::parse(line).unwrap());
        let span = span.unwrap();
        assert_eq!(&line[span.clone()], r#"{"ir":[1, 2]}"#);
        assert_eq!(
            JsonValue::parse(&line[span]).unwrap(),
            *v.get("ir").unwrap()
        );
        // Nested members, non-objects and absent keys report no span.
        for doc in [r#"{"x":{"ir":1}}"#, r#"[{"ir":1}]"#, r#""ir""#, "{}"] {
            assert_eq!(JsonValue::parse_with_span(doc, "ir").unwrap().1, None, "{doc}");
        }
        // A scalar value's span is just its token.
        let (_, span) = JsonValue::parse_with_span(r#"{"ir":-1.5e3}"#, "ir").unwrap();
        assert_eq!(span, Some(6..12));
        // Errors are parse's, byte for byte.
        for bad in [r#"{"ir":{"a":}}"#, r#"{"ir":1} x"#, r#"{"ir""#] {
            assert_eq!(
                JsonValue::parse_with_span(bad, "ir").unwrap_err(),
                JsonValue::parse(bad).unwrap_err()
            );
        }
    }

    /// A string mixing every class the parser and writer treat
    /// differently: printable ASCII, quotes and backslashes, control
    /// characters, and two-, three- and four-byte UTF-8.
    fn mixed_string(parts: &[(u32, u32)]) -> String {
        parts
            .iter()
            .map(|&(class, x)| match class {
                0 => char::from_u32(0x20 + x % 96).unwrap(),
                1 => ['"', '\\', '/'][(x % 3) as usize],
                2 => char::from_u32(x % 0x20).unwrap(),
                3 => char::from_u32(0x80 + x % 0x780).unwrap(),
                4 => char::from_u32(0x800 + x % 0xF800).unwrap_or('\u{fffd}'),
                _ => char::from_u32(0x10000 + x % 0x10_0000).unwrap(),
            })
            .collect()
    }

    /// `s` written with every character as a `\uXXXX` escape (surrogate
    /// pairs above the BMP).
    fn all_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for unit in s.encode_utf16() {
            let _ = write!(out, "\\u{unit:04X}");
        }
        out.push('"');
        out
    }

    proptest::proptest! {
        #[test]
        fn strings_round_trip_through_write_and_parse(
            parts in proptest::collection::vec((0u32..6, 0u32..0x11_0000), 0..48),
        ) {
            let s = mixed_string(&parts);
            let v = JsonValue::Str(s.clone());
            let text = v.to_compact();
            proptest::prop_assert_eq!(JsonValue::parse(&text).unwrap(), v.clone());
            // The same string as an object key, and fully escaped.
            let obj = JsonValue::Obj(vec![(s.clone(), v.clone())]);
            proptest::prop_assert_eq!(JsonValue::parse(&obj.to_compact()).unwrap(), obj);
            proptest::prop_assert_eq!(JsonValue::parse(&all_escaped(&s)).unwrap(), v);
        }
    }
}
