//! Minimal JSON reader/writer used by the serving layer's request and
//! response bodies.
//!
//! Hand-rolled because the build environment has no registry access for
//! `serde`/`serde_json`. Implements exactly what its callers need: a
//! document tree ([`Value`]), a strict parser, and a compact writer.
//!
//! Numbers round-trip through Rust's shortest-representation `Display`, so
//! every finite `f32` survives write→parse bit-exactly (the shortest decimal
//! form of an `f32` parses back to the same bits). Non-finite floats are
//! written as `null` — JSON has no NaN/∞ — and read back as `NaN`.

use std::fmt::Write as _;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Num(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

/// Error with byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte position where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Looks up a field of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements, or `None` if this is not an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Number as f64, or `None`. `null` reads as NaN (non-finite floats are
    /// written as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Number as usize (must be a non-negative integer).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// String contents, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a document tree to compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 && !(n == 0.0 && n.is_sign_negative())
    {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's Display prints the shortest decimal that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum container nesting depth the parser accepts. The parser is
/// recursive, so without a limit a hostile body of `[[[[…` (one byte per
/// level) exhausts the thread stack and aborts the process instead of
/// returning an error — unacceptable now that the serving layer feeds it
/// network input. 128 is far deeper than any document this workspace
/// writes (the serving documents nest a few levels) while keeping
/// worst-case recursion to a few KiB of stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError { at: pos, msg: "trailing characters after document" });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, msg: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, msg })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH {
        return Err(ParseError { at: *pos, msg: "nesting too deep" });
    }
    match bytes.get(*pos) {
        None => Err(ParseError { at: *pos, msg: "unexpected end of input" }),
        Some(b'n') => parse_lit(bytes, pos, b"null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or '}'" }),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(ParseError { at: *pos, msg: "unexpected character" }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Value,
) -> Result<Value, ParseError> {
    if bytes.get(*pos..).is_some_and(|rest| rest.starts_with(lit)) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError { at: *pos, msg: "invalid literal" })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or(ParseError { at: start, msg: "invalid number" })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError { at: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                out.push_str(utf8_chunk(bytes, chunk_start, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(utf8_chunk(bytes, chunk_start, *pos)?);
                *pos += 1;
                let esc = bytes.get(*pos).ok_or(ParseError { at: *pos, msg: "bad escape" })?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            expect(bytes, pos, b'\\', "expected low surrogate")?;
                            expect(bytes, pos, b'u', "expected low surrogate")?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(ParseError { at: *pos, msg: "invalid low surrogate" });
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or(ParseError { at: *pos, msg: "invalid codepoint" })?,
                        );
                    }
                    _ => return Err(ParseError { at: *pos - 1, msg: "unknown escape" }),
                }
                chunk_start = *pos;
            }
            Some(c) if *c < 0x20 => {
                return Err(ParseError { at: *pos, msg: "raw control character in string" })
            }
            Some(_) => *pos += 1,
        }
    }
}

fn utf8_chunk(bytes: &[u8], start: usize, end: usize) -> Result<&str, ParseError> {
    // analyze:allow(panic, start..end is the parse_string cursor range; both are positions of already-matched bytes, so the range is in bounds)
    std::str::from_utf8(&bytes[start..end])
        .map_err(|_| ParseError { at: start, msg: "invalid utf-8 in string" })
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    if *pos + 4 > bytes.len() {
        return Err(ParseError { at: *pos, msg: "truncated \\u escape" });
    }
    let s = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| ParseError { at: *pos, msg: "bad \\u escape" })?;
    let v = u32::from_str_radix(s, 16).map_err(|_| ParseError { at: *pos, msg: "bad \\u escape" })?;
    *pos += 4;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("imdb \"tiny\"\n".into())),
            ("n".into(), Value::Num(42.0)),
            ("x".into(), Value::Num(0.15625)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            ("arr".into(), Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5)])),
        ]);
        let text = to_string(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn f32_bits_survive_roundtrip() {
        let cases = [0.0f32, -0.0, 1.0, -1.5, 0.1, 3.4e38, 1.1754944e-38, 7.038531e-26];
        for x in cases {
            let text = to_string(&Value::Num(x as f64));
            let back = parse(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled to {back}");
        }
        // Non-finite becomes null and reads back as NaN.
        let text = to_string(&Value::Num(f64::NAN));
        assert_eq!(text, "null");
        assert!(parse(&text).unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json at all").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\tbé😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\tbé😀");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k": [1, 2, 3], "s": "x"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[2].as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Num(1.5).as_usize(), None);
    }
}
