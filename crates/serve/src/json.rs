//! A minimal line-JSON value type: parse and serialize exactly the
//! subset the serve protocol needs (objects, arrays, strings, `i64`
//! numbers, booleans, null), with standard string escaping.
//!
//! Vendored by hand because the build environment is offline — see the
//! `vendor/` README for the policy. The parser is strict about structure
//! (every error names the byte offset) but deliberately small: no
//! floating point, no `\u` surrogate pairs beyond the BMP escape itself.

use std::fmt;

/// A JSON value over `i64` numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol's only number shape).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Arrays and objects nest at most this deep. The parser recurses once
/// per level and a request line is capped in bytes, not depth, so without
/// a cap a line of `[`s would overflow a connection thread's stack.
pub const MAX_DEPTH: usize = 32;

/// Parse one JSON value from `text` (the whole string must be consumed,
/// trailing whitespace aside). Errors carry the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(MAX_DEPTH)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A value in which at most `room` more arrays or objects may open.
    fn value(&mut self, room: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if room == 0 => Err(format!(
                "value nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(room - 1),
            Some(b'[') => self.array(room - 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, room: usize) -> Result<Json, String> {
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
            let val = self.value(room)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, room: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(room)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundary is a char boundary: `"`/`\`/controls are
            // single-byte and UTF-8 continuation bytes are >= 0x80.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or_else(|| {
                                format!("\\u escape is not a scalar value at byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                other as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                Some(_) => return Err(format!("control byte in string at byte {}", self.pos)),
                None => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floating-point numbers are not part of the protocol (byte {start})"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse::<i64>()
            .map(Json::Num)
            .map_err(|_| format!("number out of i64 range at byte {start}"))
    }
}

/// Build an object from key/value pairs (serialization convenience).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        for text in [
            r#"{"cmd":"begin"}"#,
            r#"{"cmd":"insert","rel":"EMP","row":[1,"math",-7]}"#,
            r#"{"ok":true,"violations":["IND #0"],"count":1}"#,
            r#"{"a":null,"b":[true,false],"c":{}}"#,
            r#"[]"#,
            r#""esc \" \\ \n \t é""#,
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "round trip of {text}");
        }
    }

    #[test]
    fn escapes_serialize_and_reparse() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_owned());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"cmd":"insert","row":[1,"x"],"n":5}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("insert"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(5));
        assert_eq!(
            v.get("row").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            r#"{"a"}"#,
            "[1,]",
            "1.5",
            "1e3",
            "99999999999999999999",
            "tru",
            r#""unterminated"#,
            r#"{"a":1} extra"#,
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// `depth` arrays, each holding the next, around a `1`.
    fn nested(depth: usize) -> String {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let mut v = Json::Num(1);
        for _ in 0..MAX_DEPTH {
            v = Json::Arr(vec![v]);
        }
        assert_eq!(parse(&nested(MAX_DEPTH)).unwrap(), v);
        let obj = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&obj).is_ok());
    }

    #[test]
    fn nesting_past_max_depth_fails_at_its_byte() {
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err(),
            format!("value nested deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // An object opening the 33rd level, after 32 `{"a":` prefixes of 5 bytes.
        let obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&obj).unwrap_err(),
            format!(
                "value nested deeper than {MAX_DEPTH} levels at byte {}",
                5 * MAX_DEPTH
            )
        );
        // Far past the cap, the same error, not a stack overflow.
        assert!(parse(&nested(100_000)).unwrap_err().contains("at byte 32"));
    }
}
