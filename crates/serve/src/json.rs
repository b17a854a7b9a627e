//! A minimal, bounded JSON layer for the wire format.
//!
//! Hand-rolled because the workspace builds offline with no JSON
//! library: a recursive-descent parser over UTF-8 bytes with hard
//! depth and size limits, plus the escape/number helpers the encoders
//! share. Everything here is panic-free by construction — malformed,
//! truncated, or hostile input comes back as [`JsonError`], never as
//! an unwind (the wire fuzz tests pin exactly that).
//!
//! Numbers are kept as `f64`. Rust's `Display` for finite `f64` prints
//! the shortest string that round-trips, so `encode → parse` is
//! *bitwise* lossless for every finite value — the property the
//! serving edge's bit-identity guarantee leans on.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]. Deeper documents are
/// rejected before recursion can get anywhere near the real stack
/// limit.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved, duplicate keys are kept
    /// (lookups see the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: finite,
    /// non-negative, fractionless, and at most `2^53` (beyond which
    /// `f64` cannot represent every integer).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`as_u64`](Json::as_u64) narrowed to `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        let n = self.as_u64()?;
        u32::try_from(n).ok()
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Why a document failed to parse; carries the byte offset where the
/// parser gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable reason.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document from `input`. Trailing non-whitespace,
/// invalid UTF-8 in strings, and nesting beyond [`MAX_DEPTH`] are all
/// errors.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos.saturating_add(word.len());
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth >= MAX_DEPTH {
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // High surrogate: require a low-surrogate
                            // escape right behind it.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code =
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: validate the whole sequence.
                    let len = match b {
                        0xc2..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf4 => 4,
                        _ => return Err(self.err("invalid utf-8 in string")),
                    };
                    let start = self.pos - 1;
                    let end = start.saturating_add(len);
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf-8 in string"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            value = (value << 4) | d;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one leading zero, or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            self.digits();
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

/// Append a quoted, escaped string literal.
pub fn push_str_lit(value: &str, out: &mut String) {
    out.push('"');
    evorec_obs::render::escape_json(value, out);
    out.push('"');
}

/// Append an `f64`. Finite values use `Display` (shortest round-trip
/// form — bitwise lossless through [`parse`]); non-finite values,
/// which JSON cannot carry, degrade to `null`.
pub fn push_f64(value: f64, out: &mut String) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(parse(b"null"), Ok(Json::Null));
        assert_eq!(parse(b"true"), Ok(Json::Bool(true)));
        assert_eq!(parse(b"-12.5e2"), Ok(Json::Num(-1250.0)));
        assert_eq!(parse(b"\"a\\u0041\\n\""), Ok(Json::Str("aA\n".into())));
    }

    #[test]
    fn object_lookup_and_ints() {
        let doc = parse(br#"{"user": 7, "window": "sliding", "deep": {"x": [1, 2]}}"#)
            .expect("parses");
        assert_eq!(doc.get("user").and_then(Json::as_u32), Some(7));
        assert_eq!(doc.get("window").and_then(Json::as_str), Some("sliding"));
        let xs = doc.get("deep").and_then(|d| d.get("x")).and_then(Json::as_arr);
        assert_eq!(xs.map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("user").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn rejects_hostile_input() {
        assert!(parse(b"").is_err());
        assert!(parse(b"{").is_err());
        assert!(parse(b"[1,]").is_err());
        assert!(parse(b"01").is_err());
        assert!(parse(b"1 2").is_err());
        assert!(parse(b"\"\\x\"").is_err());
        assert!(parse(b"\"\xff\"").is_err());
        assert!(parse(b"\"\\ud800\"").is_err());
        assert!(parse("1e400".as_bytes()).is_err());
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(br#""\ud83d\ude00""#), Ok(Json::Str("\u{1f600}".into())));
    }

    #[test]
    fn f64_display_is_bitwise_round_trip() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 123456.789] {
            let mut s = String::new();
            push_f64(v, &mut s);
            let back = match parse(s.as_bytes()) {
                Ok(Json::Num(n)) => n,
                other => panic!("expected number, got {other:?}"),
            };
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn u64_guards_reject_lossy_values() {
        assert_eq!(parse(b"1.5").ok().and_then(|j| j.as_u64()), None);
        assert_eq!(parse(b"-1").ok().and_then(|j| j.as_u64()), None);
        assert_eq!(parse(b"1e60").ok().and_then(|j| j.as_u64()), None);
        assert_eq!(parse(b"4294967296").ok().and_then(|j| j.as_u32()), None);
    }
}
