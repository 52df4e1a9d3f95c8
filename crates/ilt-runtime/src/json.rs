//! The workspace's one JSON codec: the escaper and number formatter every
//! hand-rolled writer uses, and the strict reader every record format goes
//! through (run journal, checkpoint WAL, server state log, shard wire
//! lines).
//!
//! The reader is a recursive-descent parser over already-validated UTF-8.
//! Some of its input crosses a trust boundary (shard responses come from
//! cluster workers), so it is strict rather than lenient: nesting is capped
//! at 32 levels, an object may not repeat a key, and trailing bytes,
//! raw control characters, truncated `\u` escapes, lone surrogates and
//! non-UTF-8 input are all typed `Err(String)`s — never a panic, never a
//! best-effort value. Objects keep their key order.

/// Deepest nesting of arrays/objects [`parse`] accepts. The workspace's own
/// records nest two levels; the cap keeps hostile input off the stack.
const MAX_DEPTH: usize = 32;

/// Largest integer an `f64` holds exactly (2^53); integer accessors reject
/// anything above it instead of silently rounding.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Escapes a string for embedding in a JSON string literal.
///
/// Covers the full set RFC 8259 requires: `"` and `\`, the short escapes
/// `\b \f \n \r \t`, and `\u00XX` for every remaining control character in
/// U+0000..=U+001F. This is the one escaping helper in the workspace —
/// every JSON producer (journal, WAL, state log, wire, HTTP responses,
/// bench results) calls it; do not fork it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip JSON number for an `f64` (no NaN/inf in records by
/// construction; they are mapped to `null` defensively, which
/// [`Value::field_f64`] reads back as 0).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A parsed JSON value. Objects are ordered key/value lists, so key order
/// survives a parse.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as the `f64` it parses to.
    Num(f64),
    /// A decoded string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order; keys are unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key` when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: `None` for fractions,
    /// negatives and anything above 2^53 (never a lossy cast).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && *n <= MAX_EXACT_INT && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, when `self` is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| format!("missing field {key}"))
    }

    /// Field `key` as a string.
    ///
    /// # Errors
    ///
    /// A message when the field is absent or not a string.
    pub fn field_str(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_str().ok_or_else(|| format!("field {key} is not a string"))
    }

    /// Field `key` as an exact unsigned integer (see [`Value::as_u64`]).
    ///
    /// # Errors
    ///
    /// A message when the field is absent or not such an integer.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.as_u64().ok_or_else(|| format!("field {key} is not an integer"))
    }

    /// [`Value::field_u64`] narrowed to `usize`.
    ///
    /// # Errors
    ///
    /// As [`Value::field_u64`], plus values that do not fit a `usize`.
    pub fn field_usize(&self, key: &str) -> Result<usize, String> {
        usize::try_from(self.field_u64(key)?).map_err(|_| format!("field {key} is out of range"))
    }

    /// Field `key` as an `f64`; `null` — what [`json_f64`] writes for a
    /// non-finite value — reads back as 0.
    ///
    /// # Errors
    ///
    /// A message when the field is absent or neither a number nor `null`.
    pub fn field_f64(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Value::Null => Ok(0.0),
            v => v.as_f64().ok_or_else(|| format!("field {key} is not a number")),
        }
    }

    /// Field `key` as a `u64` written as a hex string (fingerprints, hashes).
    ///
    /// # Errors
    ///
    /// A message when the field is absent, not a string, or not hex.
    pub fn field_hex(&self, key: &str) -> Result<u64, String> {
        let raw = self.field_str(key)?;
        u64::from_str_radix(raw, 16).map_err(|_| format!("field {key} is not hex: {raw}"))
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the byte offset for malformed, truncated, over-deep
/// (more than 32 levels), duplicate-key or non-UTF-8 input, and for anything
/// but whitespace after the value.
pub fn parse(doc: impl AsRef<[u8]>) -> Result<Value, String> {
    let text = std::str::from_utf8(doc.as_ref()).map_err(|e| format!("invalid UTF-8: {e}"))?;
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes().get(self.pos).copied().ok_or_else(|| "unexpected end of document".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected {:?} at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(format!("expected a key string at byte {}", self.pos));
            }
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth + 1)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    break;
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
        // First-match lookup must never be a choice between two values.
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate key {:?} in one object", dup[0]));
        }
        Ok(Value::Object(fields))
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one piece: shard lines carry ~20 KB base64 strings. None of
            // those bytes occurs inside a multi-byte UTF-8 sequence, so the
            // slice ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(format!("raw control character at byte {}", self.pos - 1)),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let esc = *self.bytes().get(self.pos).ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(format!("lone surrogate \\u{hi:04x}"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(format!("lone surrogate \\u{hi:04x}"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x}"))?
            }
            other => return Err(format!("bad escape \\{}", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("truncated or bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes().get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        match raw.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(format!("bad number {raw:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Object(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn escape_covers_every_control_character() {
        for cp in 0u32..0x20 {
            let ch = char::from_u32(cp).unwrap();
            let escaped = json_escape(&ch.to_string());
            assert!(escaped.is_ascii(), "U+{cp:04X} -> {escaped:?}");
            assert!(escaped.starts_with('\\'), "U+{cp:04X} must be escaped, got {escaped:?}");
            // ...and the reader inverts every one of them.
            assert_eq!(parse(format!("\"{escaped}\"")), Ok(Value::Str(ch.to_string())));
        }
        assert_eq!(json_escape("\u{0008}\u{000c}"), "\\b\\f");
        assert_eq!(json_escape("\u{0000}\u{001f}"), "\\u0000\\u001f");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        // Non-control unicode passes through untouched.
        assert_eq!(json_escape("λ=193nm"), "λ=193nm");
    }

    #[test]
    fn accepted_documents() {
        let cases: Vec<(&str, Value)> = vec![
            ("null", Value::Null),
            (" true ", Value::Bool(true)),
            ("-12.5e1", Value::Num(-125.0)),
            ("[]", Value::Array(vec![])),
            ("{}", obj(&[])),
            ("[1, [2, null], \"x\"]", {
                let inner = Value::Array(vec![Value::Num(2.0), Value::Null]);
                Value::Array(vec![Value::Num(1.0), inner, Value::Str("x".into())])
            }),
            // Whitespace-tolerant, nested objects, key order kept.
            (
                "{\n  \"b\": 1,\n  \"a\": {\"k\": false}\n}\n",
                obj(&[("b", Value::Num(1.0)), ("a", obj(&[("k", Value::Bool(false))]))]),
            ),
            // Every escape, a surrogate pair, and raw multi-byte UTF-8.
            (
                r#""\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00λ""#,
                Value::Str("\"\\/\u{8}\u{c}\n\r\té😀λ".into()),
            ),
            // Text that looks like keys inside a string value is just text.
            (
                r#"{"case":"evil\",\"status\":\"done","status":"failed"}"#,
                obj(&[
                    ("case", Value::Str("evil\",\"status\":\"done".into())),
                    ("status", Value::Str("failed".into())),
                ]),
            ),
        ];
        for (doc, want) in cases {
            assert_eq!(parse(doc), Ok(want), "{doc:?}");
        }
    }

    #[test]
    fn rejected_documents_are_typed_errors() {
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 2);
        let deep_arr = "[".repeat(MAX_DEPTH + 2);
        let cases: Vec<(&[u8], &str)> = vec![
            (b"", "unexpected end"),
            (b"nonsense", "bad literal"),
            (b"{\"a\": }", "unexpected"),
            (b"{\"a\": 1} trailing", "trailing garbage"),
            (b"{\"a\": 1", "unexpected end"), // torn document
            (b"{\"a\":1,\"a\":2}", "duplicate key"),
            (b"\"abc", "unterminated string"),
            (b"\"a\nb\"", "raw control"),
            (b"\"\\u12\"", "\\u escape"),
            (b"\"\\u12", "\\u escape"),
            (b"\"\\ud800\"", "lone surrogate"),
            (b"\"\\udc00\"", "lone surrogate"),
            (b"\"\\ud800\\u0041\"", "lone surrogate"),
            (b"\"\\q\"", "bad escape"),
            (b"\"\xff\"", "invalid UTF-8"),
            (b"1e999", "bad number"),
            (b"--1", "bad number"),
            (deep_obj.as_bytes(), "nesting deeper"),
            (deep_arr.as_bytes(), "nesting deeper"),
        ];
        for (doc, want) in cases {
            let err = parse(doc).expect_err(&String::from_utf8_lossy(doc));
            assert!(err.contains(want), "{:?}: {err}", String::from_utf8_lossy(doc));
        }
        // Exactly MAX_DEPTH levels of nesting is still fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(ok).is_ok());
    }

    #[test]
    fn accessors_check_types_and_integer_range() {
        let v = parse(
            r#"{"s":"x","n":7,"f":1.5,"neg":-1,"big":9007199254740994,"z":null,"h":"00ff","b":true}"#,
        )
        .unwrap();
        assert_eq!(v.field_str("s"), Ok("x"));
        assert_eq!(v.field_u64("n"), Ok(7));
        assert_eq!(v.field_usize("n"), Ok(7));
        assert_eq!(v.field_f64("f"), Ok(1.5));
        assert_eq!(v.field_f64("z"), Ok(0.0), "null is json_f64's non-finite");
        assert_eq!(v.field_hex("h"), Ok(255));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        for key in ["f", "neg", "big", "s", "z"] {
            assert!(v.field_u64(key).is_err(), "{key} is not an exact unsigned integer");
        }
        assert!(v.field_str("n").is_err());
        assert!(v.field_hex("s").is_err());
        assert_eq!(v.field_str("absent"), Err("missing field absent".into()));
        // Non-objects have no fields.
        assert!(Value::Null.field_str("s").is_err());
        // Round trip of the number formatter.
        for x in [0.0, -1.5, 1e-9, 123456.789, f64::MAX] {
            assert_eq!(parse(json_f64(x)), Ok(Value::Num(x)));
        }
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
