//! Minimal JSON support for the tracked benchmark's files.
//!
//! The environment has no serde, so this module hand-rolls exactly the
//! slice `plansample-benchmark` needs to write its result files and
//! read `BENCHMARK.json` and earlier results back: an order-preserving
//! object writer and a small recursive-descent parser. The parser handles
//! the full JSON value grammar minus `\u` escapes, never panics on
//! malformed input, and bounds recursion depth.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; the artifact's counters fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (validation only).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// An open object scope.
#[derive(Debug)]
struct Scope {
    /// Whether the scope already has a member (comma control).
    has_member: bool,
}

/// Incremental writer for one JSON object tree. Keys are written in
/// insertion order, values must be pushed via the typed methods, and
/// `finish` closes every open scope — so the output is well-formed by
/// construction.
#[derive(Debug, Default)]
pub struct ObjWriter {
    out: String,
    scopes: Vec<Scope>,
}

impl ObjWriter {
    /// Starts the root object.
    pub fn new() -> Self {
        ObjWriter {
            out: "{".into(),
            scopes: vec![Scope { has_member: false }],
        }
    }

    fn comma(&mut self) {
        if let Some(last) = self.scopes.last_mut() {
            if last.has_member {
                self.out.push(',');
            }
            last.has_member = true;
        }
    }

    fn key(&mut self, key: &str) {
        self.comma();
        let _ = write!(self.out, "{}:", quoted(key));
    }

    /// Writes a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(&quoted(value));
        self
    }

    /// Writes an integer member.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a float member (finite; NaN/inf become null).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Opens a nested object member.
    pub fn obj(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('{');
        self.scopes.push(Scope { has_member: false });
        self
    }

    /// Closes the innermost nested scope.
    pub fn end(&mut self) -> &mut Self {
        if self.scopes.pop().is_some() {
            self.out.push('}');
        }
        self
    }

    /// Closes every open scope and returns the document.
    pub fn finish(mut self) -> String {
        while self.scopes.pop().is_some() {
            self.out.push('}');
        }
        self.out
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses a JSON document. Returns a message naming the failure offset
/// on malformed input; never panics.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            other => {
                                return Err(format!("unsupported escape {other:?} at byte {pos}"))
                            }
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is &str, so
                        // boundaries are valid).
                        let start = *pos;
                        let mut end = start + 1;
                        while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&bytes[start..end])
                                .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                        );
                        *pos = end;
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reparses() {
        let mut w = ObjWriter::new();
        w.str("name", "load \"test\"").int("n", 42);
        w.obj("nested").float("p50", 1.25).end().int("after", 7);
        let text = w.finish();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get("n").and_then(Json::as_num), Some(42.0));
        assert_eq!(parsed.get("after").and_then(Json::as_num), Some(7.0));
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("p50"))
                .and_then(Json::as_num),
            Some(1.25)
        );
        assert_eq!(parsed.get("name"), Some(&Json::Str("load \"test\"".into())));
    }

    #[test]
    fn arrays_parse() {
        let text =
            r#"{"reactors":2,"per_reactor":[{"index":0,"requests":0},{"index":1,"requests":10}]}"#;
        let parsed = parse(text).unwrap();
        let arr = match parsed.get("per_reactor") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("requests").and_then(Json::as_num), Some(10.0));
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,",
            "\"unterminated",
            "{\"a\":01x}",
            "nul",
            "{}}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }
}
