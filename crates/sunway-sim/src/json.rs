//! A minimal JSON value, writer, and recursive-descent parser.
//!
//! The workspace builds fully offline (see README "Offline builds"), so
//! serde is not available; the observability layer needs only a small,
//! dependency-free subset: objects, arrays, strings, numbers, bools, and
//! null. Numbers are carried as `f64`, which is exact for the integer
//! counters the metrics registry emits up to 2^53 (wall-clock nanoseconds
//! overflow that after ~104 days of accumulated kernel time).
//!
//! # Non-finite numbers (pinned convention)
//!
//! JSON has no literal for NaN or ±Inf, and a diagnostic export must never
//! abort the run that produced it. A non-finite [`Json::Num`] therefore
//! serializes as a *bit-pattern string*, `"f64:<16 lowercase hex digits>"`
//! (the raw IEEE-754 bits, the same wire format checkpoint fields use), so
//! the emitted document stays standard JSON and the value — including any
//! NaN payload — survives losslessly. The parser is plain JSON and reads
//! the token back as a [`Json::Str`]; [`Json::as_f64`] decodes the prefix
//! form, so numeric accessors round-trip every `f64` bit pattern exactly.

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected, arrays and objects nested at most [`MAX_DEPTH`]
    /// deep).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
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

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, also decoding the `"f64:<16 hex>"` bit-pattern string
    /// the writer emits for non-finite numbers (see the module docs).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Str(s) => parse_f64_bits(s),
            _ => None,
        }
    }

    /// Numeric field as a non-negative integer (counters, call counts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline — the
    /// format of the committed `BENCH_*.json` baselines.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // Pinned convention (module docs): NaN/±Inf become bit-pattern
        // strings so the document stays standard JSON and `as_f64` can
        // recover the exact bits.
        let _ = write!(out, "\"f64:{:016x}\"", x.to_bits());
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // `{:?}` round-trips f64 exactly through parse.
        let _ = write!(out, "{x:?}");
    }
}

/// Decode the `"f64:<16 lowercase hex digits>"` bit-pattern form.
fn parse_f64_bits(s: &str) -> Option<f64> {
    let hex = s.strip_prefix("f64:")?;
    if hex.len() != 16
        || !hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

fn write_str(out: &mut String, s: &str) {
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

/// The deepest array/object nesting [`Json::parse`] accepts. Committed
/// documents nest 3 deep; the limit keeps the recursive descent a bounded
/// stack depth on any input, so deep nesting is a [`JsonError`], never a
/// stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// A value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
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
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not reassembled; the writer never
                            // emits them (it escapes only control characters).
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so always valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-3.25e2").unwrap(), Json::Num(-325.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{open}");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "12 34", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(vec![
                    ("halo.bytes".into(), Json::Num(12_582_912.0)),
                    ("odd".into(), Json::Num(0.125)),
                ]),
            ),
            (
                "names".into(),
                Json::Arr(vec![Json::Str("a/b".into()), Json::Null]),
            ),
            ("quote\"tab\t".into(), Json::Bool(false)),
        ]);
        let text = v.pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Integers print without a fraction.
        assert!(text.contains("12582912"), "{text}");
    }

    #[test]
    fn non_finite_numbers_round_trip_as_bit_pattern_strings() {
        // Regression: `write_num` used to assert finiteness, so one NaN
        // wall-time or diagnostic aborted the whole metrics/trace export.
        let quiet_nan = f64::from_bits(0x7ff8_0000_dead_beef); // payloaded NaN
        for x in [f64::NAN, quiet_nan, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Num(x).pretty();
            let back = Json::parse(&text).expect("stays standard JSON");
            let y = back.as_f64().expect("bit-pattern string decodes");
            assert_eq!(y.to_bits(), x.to_bits(), "lossless for {x}");
        }
        assert_eq!(
            Json::Num(f64::INFINITY).pretty().trim(),
            "\"f64:7ff0000000000000\""
        );
        // Finite numbers keep the plain literal form.
        assert_eq!(Json::Num(2.5).pretty().trim(), "2.5");
    }

    #[test]
    fn as_f64_rejects_malformed_bit_pattern_strings() {
        for bad in [
            "f64:",
            "f64:123",               // too short
            "f64:7ff00000000000000", // too long
            "f64:7FF0000000000000",  // uppercase is not the pinned form
            "f64:7ffz000000000000",  // non-hex
            "not a number",
        ] {
            assert_eq!(Json::Str(bad.into()).as_f64(), None, "accepted {bad:?}");
        }
        // The sanctioned form decodes even when embedded in a document.
        let doc = Json::parse(r#"{"p99": "f64:7ff8000000000000"}"#).unwrap();
        assert!(doc.get("p99").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn u64_accessor_guards_range_and_fraction() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
        assert_eq!(
            Json::parse(&Json::Str("héllo → wörld".into()).pretty()).unwrap(),
            v
        );
    }
}
