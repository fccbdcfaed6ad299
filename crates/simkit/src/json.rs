//! The workspace's one JSON module: a value type, its renderer and its
//! parser, dependency-free.
//!
//! Every JSON document the workspace writes is built as a [`Json`] tree
//! and rendered by [`Json::render`]: the golden `Summary` lines, the
//! event-stream JSON Lines, `BENCH_*.json`, the telemetry snapshot and
//! the Perfetto export. Rendering is one line with `", "` between items
//! and `": "` after keys; numbers use Rust's `{}` (shortest round-trip,
//! never an exponent, so `8.0` renders as `8`) and non-finite numbers
//! render as `null`; strings escape `"`, `\` and every control
//! character. Objects keep their insertion order, so a writer fixes its
//! key order by building the object in that order.
//!
//! [`Json::parse`] reads RFC 8259 JSON into the same tree and rejects
//! what the grammar forbids (raw control characters in strings, numbers
//! such as `+1`, `.5`, `1.` or `01`). An object that repeats a key keeps
//! the later value, at the first occurrence's position.
//!
//! ```
//! use modm_simkit::json::Json;
//!
//! let doc = Json::obj([("name", "a \"b\"".into()), ("n", 8.0.into()), ("nan", f64::NAN.into())]);
//! let text = doc.render();
//! assert_eq!(text, r#"{"name": "a \"b\"", "n": 8, "nan": null}"#);
//! assert_eq!(Json::parse(&text).unwrap().get("n").and_then(Json::as_f64), Some(8.0));
//! ```

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered as `null` when not finite).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as one line of JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("string write"),
            Json::Null | Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("string write"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses `text` as one JSON document (surrounding whitespace
    /// allowed).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] at the first byte that breaks the grammar.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(parser.err("trailing garbage after document"));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let fields = self.as_obj()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

// Integers convert through `f64`, exact up to 2^53.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_number!(f64, u16, u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
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
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// A recursive-descent parser over `text`, positioned at byte `pos`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// The deepest nesting [`Json::parse`] accepts, so a hostile document
/// cannot overflow the stack; the workspace's own documents nest at most
/// four levels deep.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.eat(b"0123456789") {}
        self.pos - start
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        if self.eat(b"[") {
            let mut items = Vec::new();
            self.items(b']', |p| p.value().map(|v| items.push(v)))?;
            return Ok(Json::Arr(items));
        }
        if self.eat(b"{") {
            let mut fields: Vec<(String, Json)> = Vec::new();
            self.items(b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                if !p.eat(b":") {
                    return Err(p.err("expected ':'"));
                }
                let value = p.value()?;
                match fields.iter_mut().find(|(k, _)| *k == key) {
                    Some(field) => field.1 = value,
                    None => fields.push((key, value)),
                }
                Ok(())
            })?;
            return Ok(Json::Obj(fields));
        }
        if self.peek() == Some(b'"') {
            return self.string().map(Json::Str);
        }
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        self.number()
    }

    /// Parses `item`s separated by commas up to the `close` byte, just
    /// after the opening one.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        self.skip_ws();
        let mut closed = self.eat(&[close]);
        while !closed {
            item(self)?;
            self.skip_ws();
            closed = self.eat(&[close]);
            if !closed && !self.eat(b",") {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b"-");
        let int = self.pos;
        let int_ok = match self.digits() {
            0 => false,
            len => len == 1 || self.text.as_bytes()[int] != b'0',
        };
        let frac_ok = !self.eat(b".") || self.digits() > 0;
        let exp_ok = !self.eat(b"eE") || {
            self.eat(b"+-");
            self.digits() > 0
        };
        match self.text[start..self.pos].parse() {
            Ok(n) if int_ok && frac_ok && exp_ok => Ok(Json::Num(n)),
            _ => Err(JsonError {
                message: "invalid number",
                at: start,
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b"\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte; those are all ASCII, so the run
            // ends on a character boundary.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b"\"") {
                return Ok(out);
            }
            if !self.eat(b"\\") {
                let what = if self.peek().is_some() {
                    "raw control character in string"
                } else {
                    "unterminated string"
                };
                return Err(self.err(what));
            }
            let escaped = match self.peek() {
                Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let code =
                        u32::from_str_radix(hex.ok_or_else(|| self.err("bad \\u escape"))?, 16);
                    self.pos += 4;
                    // A surrogate half is no scalar value on its own.
                    char::from_u32(code.expect("four hex digits")).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            };
            out.push(escaped);
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"traceEvents": [{"ph": "X", "ts": 1.5, "args": {"ok": true}}, {"ph": "i"}],
                "otherData": {"n": -3e2, "name": "a \"quoted\" name", "none": null}}"#,
        )
        .unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            events[0].get("args").unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("n").unwrap().as_f64(), Some(-300.0));
        assert_eq!(
            other.get("name").unwrap().as_str(),
            Some("a \"quoted\" name")
        );
        assert_eq!(other.get("none"), Some(&Json::Null));
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["traceEvents", "otherData"], "document order");
    }

    #[test]
    fn repeated_keys_keep_the_later_value_in_place() {
        let doc = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(doc, Json::obj([("a", 3.0.into()), ("b", 2.0.into())]));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = Json::parse(r#"["A\n\t", "héllo", [], "\u00e9\u0001\/"]"#).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("A\n\t"));
        assert_eq!(arr[1].as_str(), Some("héllo"));
        assert_eq!(arr[2], Json::Arr(vec![]));
        assert_eq!(arr[3].as_str(), Some("é\u{1}/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "tru",
            "{\"a\": 1} x",
            "\"unterminated",
            "[1,]2",
            // RFC 8259: no raw control characters inside strings ...
            "\"a\nb\"",
            "\"a\u{1}b\"",
            // ... and no sign, bare point, leading zero or empty part.
            "+1",
            ".5",
            "1.",
            "01",
            "-",
            "1e",
            "-01",
            "\"\\u12\"",
            "\"\\u+123\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&nested(100_000)).is_err(), "no stack overflow");
    }

    #[test]
    fn roundtrips_numbers() {
        let doc = Json::parse("[0, -1.25, 6.02e23, 1e-3, -0, 0.5E+2]").unwrap();
        let nums: Vec<f64> = doc
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(nums, vec![0.0, -1.25, 6.02e23, 1e-3, 0.0, 50.0]);
    }

    #[test]
    fn json_renders_and_escapes() {
        let v = Json::obj([
            ("name", "a \"quoted\"\nvalue\\\u{1}".into()),
            ("x", 1.5.into()),
            ("n", 8u64.into()),
            ("inf", f64::INFINITY.into()),
            ("none", None::<f64>.into()),
            (
                "arr",
                Json::Arr(vec![1.0.into(), "two".into(), true.into()]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name": "a \"quoted\"\nvalue\\\u0001", "x": 1.5, "n": 8, "inf": null, "none": null, "arr": [1, "two", true]}"#
        );
    }

    /// A random value `depth` levels deep at most, with strings full of
    /// quotes, backslashes, control characters and non-ASCII text, and
    /// numbers across the f64 range, non-finite ones included.
    fn random_value(rng: &mut SimRng, depth: usize) -> Json {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '中', '🦀',
        ];
        let string = |rng: &mut SimRng| -> String {
            (0..rng.index(6))
                .map(|_| ALPHABET[rng.index(ALPHABET.len())])
                .collect()
        };
        match rng.index(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::Str(string(rng)),
            3 => Json::Num(match rng.index(4) {
                0 => rng.index(1_000_000) as f64,
                1 => rng.normal(0.0, 1e3),
                2 => f64::from_bits(rng.next_u64()),
                _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.index(4)],
            }),
            4 => Json::Num(rng.uniform_in(-1.0, 1.0) * 10f64.powi(rng.index(40) as i32 - 20)),
            5 => Json::Arr(
                (0..rng.index(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => {
                // Distinct keys: a repeated key would not survive a parse.
                let mut fields: Vec<(String, Json)> = Vec::new();
                for i in 0..rng.index(4) {
                    let key = format!("{}{i}", string(rng));
                    fields.push((key, random_value(rng, depth - 1)));
                }
                Json::Obj(fields)
            }
        }
    }

    /// `value` as the parser must read it back: non-finite numbers
    /// become `null`.
    fn finite_only(value: &Json) -> Json {
        match value {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(finite_only).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), finite_only(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn render_then_parse_roundtrips_seeded_values() {
        let mut rng = SimRng::seed_from(24);
        for _ in 0..2_000 {
            let value = random_value(&mut rng, 4);
            let text = value.render();
            assert!(
                text.chars().all(|c| c >= ' '),
                "raw control character in {text:?}"
            );
            let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
            assert_eq!(parsed, finite_only(&value), "{text}");
            assert_eq!(parsed.render(), text, "rendering is a fixed point");
        }
    }
}
