//! Offline stand-in for `serde_json`.
//!
//! The build environment has no registry access, so this workspace vendors a
//! small, std-only JSON implementation that is API-compatible with the
//! subset of `serde_json` the repo uses: the dynamic [`Value`] tree, the
//! [`json!`] literal macro, [`to_string`] / [`to_string_pretty`], and
//! [`from_str`] — plus [`escape_into`], the writer's string escaper, for
//! code that writes JSON text without building a `Value`. There is no
//! `Serialize`/`Deserialize` trait machinery — structured output goes
//! through `Value` explicitly.

use std::collections::BTreeMap;
use std::fmt;

/// Object representation. `serde_json::Map` preserves-or-sorts depending on
/// features; this shim always sorts (BTreeMap), which keeps artifact JSON
/// deterministic — a property the golden-trace tests rely on.
pub type Map = BTreeMap<String, Value>;

/// A JSON number: integers stay integers so traces and artifacts print
/// without a spurious `.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Finite float.
    Float(f64),
}

impl Number {
    /// The value as an `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(v) => v as f64,
            Number::UInt(v) => v as f64,
            Number::Float(v) => v,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    if v == v.trunc() && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no NaN/inf; serde_json errors here, we emit null.
                    write!(f, "null")
                }
            }
        }
    }
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys).
    Object(Map),
}

impl Value {
    /// Borrow as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Borrow as `u64` if an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(v)) if *v >= 0 => Some(*v as u64),
            Value::Number(Number::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// Borrow as `bool` if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as `&str` if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an array if one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as an object if one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self { Value::Number(Number::Int(v as i64)) }
        }
    )*};
}
from_int!(i8, i16, i32, i64, u8, u16, u32, isize);

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            Value::Number(Number::Int(v as i64))
        } else {
            Value::Number(Number::UInt(v))
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(Number::Float(v))
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Number(Number::Float(v as f64))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::String(v.clone())
    }
}
impl From<Map> for Value {
    fn from(v: Map) -> Self {
        Value::Object(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}
impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Null
    }
}
/// By-reference conversion used by the `json!` macro. Upstream `json!`
/// serializes expression operands from a reference (so a `String` field
/// mentioned in a loop isn't moved out); mirror that by cloning.
pub trait ToValue {
    /// Converts `self` to a [`Value`] without consuming it.
    fn to_value(&self) -> Value;
}

impl<T: Clone + Into<Value>> ToValue for T {
    fn to_value(&self) -> Value {
        self.clone().into()
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`, `\`
/// and control characters escaped. The writer escapes every string and
/// key with it; callers that write JSON text directly use it to escape
/// exactly as the writer does. A string with nothing to escape is copied
/// in one push.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_close, sep) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * (level + 1)),
            " ".repeat(w * level),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad);
                write_value(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad);
                escape_into(k, out);
                out.push_str(sep);
                write_value(val, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(self, &mut s, None, 0);
        f.write_str(&s)
    }
}

/// Serialization error (infallible for `Value`, kept for API parity).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Compact serialization of a [`Value`].
pub fn to_string(v: &Value) -> Result<String, Error> {
    Ok(v.to_string())
}

/// Pretty (2-space indented) serialization of a [`Value`].
pub fn to_string_pretty(v: &Value) -> Result<String, Error> {
    let mut s = String::new();
    write_value(v, &mut s, Some(2), 0);
    Ok(s)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "expected string")?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next `"` or `\` in one go.
                    // Both are ASCII, so the run holds whole scalars and
                    // only it needs validating.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(&self.bytes[self.pos..], |n| {
                            &self.bytes[self.pos..self.pos + n]
                        });
                    s.push_str(std::str::from_utf8(run).map_err(|_| self.err("invalid utf-8"))?);
                    self.pos += run.len();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.err("invalid number"))
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected eof"))? {
            b'n' => self.eat_lit("null", Value::Null),
            b't' => self.eat_lit("true", Value::Bool(true)),
            b'f' => self.eat_lit("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {}
                        _ => return Err(self.err("expected , or ]")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut map = Map::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':', "expected :")?;
                    let val = self.parse_value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {}
                        _ => return Err(self.err("expected , or }")),
                    }
                }
            }
            _ => self.parse_number(),
        }
    }
}

/// Parses a JSON document into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Builds a [`Value`] from a JSON-like literal, mirroring `serde_json::json!`.
///
/// Supports object literals with string-literal keys, array literals, and
/// arbitrary expressions convertible via `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let arr: Vec<$crate::Value> = {
            let mut arr = Vec::new();
            $crate::json_array!(arr, $($tt)*);
            arr
        };
        $crate::Value::Array(arr)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_object!(map, $($tt)*);
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal: parses the body of a `json!` object literal.
#[macro_export]
#[doc(hidden)]
macro_rules! json_object {
    ($map:ident,) => {};
    ($map:ident) => {};
    ($map:ident, $k:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($k.to_string(), $crate::Value::Null);
        $crate::json_object!($map, $($($rest)*)?);
    };
    ($map:ident, $k:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($k.to_string(), $crate::json!({ $($v)* }));
        $crate::json_object!($map, $($($rest)*)?);
    };
    ($map:ident, $k:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($k.to_string(), $crate::json!([ $($v)* ]));
        $crate::json_object!($map, $($($rest)*)?);
    };
    ($map:ident, $k:literal : $v:expr $(, $($rest:tt)*)?) => {
        $map.insert($k.to_string(), $crate::ToValue::to_value(&$v));
        $crate::json_object!($map, $($($rest)*)?);
    };
}

/// Internal: parses the body of a `json!` array literal.
#[macro_export]
#[doc(hidden)]
macro_rules! json_array {
    ($arr:ident,) => {};
    ($arr:ident) => {};
    ($arr:ident, null $(, $($rest:tt)*)?) => {
        $arr.push($crate::Value::Null);
        $crate::json_array!($arr, $($($rest)*)?);
    };
    ($arr:ident, { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!({ $($v)* }));
        $crate::json_array!($arr, $($($rest)*)?);
    };
    ($arr:ident, [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!([ $($v)* ]));
        $crate::json_array!($arr, $($($rest)*)?);
    };
    ($arr:ident, $v:expr $(, $($rest:tt)*)?) => {
        $arr.push($crate::ToValue::to_value(&$v));
        $crate::json_array!($arr, $($($rest)*)?);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let v = json!({
            "name": "fig",
            "n": 3,
            "ratio": 1.5,
            "nested": { "ok": true, "xs": [1, 2, 3] },
            "arr": [{ "a": 1 }, "s", 2.0],
        });
        assert_eq!(v["name"].as_str(), Some("fig"));
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["nested"]["xs"][2].as_f64(), Some(3.0));
        assert_eq!(v["arr"][0]["a"].as_u64(), Some(1));
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({ "a": [1, 2.5, "x", null, true], "b": { "c": -7 } });
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&s).unwrap(), v);
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(json!(42u64).to_string(), "42");
        assert_eq!(json!(2.0).to_string(), "2.0");
        assert_eq!(json!(-3i32).to_string(), "-3");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = json!({ "s": "a\"b\\c\nd\te" });
        assert_eq!(from_str(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn multi_byte_scalars_next_to_escapes_roundtrip() {
        let mut cases = vec!["éé𝄞𝄞é".to_string()];
        for esc in ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}'] {
            for m in ['é', '𝄞'] {
                cases.push(format!("{m}{esc}{m}"));
                cases.push(format!("{esc}{m}{esc}"));
            }
        }
        cases.push(cases.concat());
        for s in cases {
            let v = Value::from(s.as_str());
            assert_eq!(from_str(&v.to_string()).unwrap(), v, "{s:?}");
        }
        // Escapes the writer never emits decode too.
        assert_eq!(
            from_str("\"é\\/𝄞\\u00e9\\b𝄞\"").unwrap(),
            Value::from("é/𝄞é\u{8}𝄞")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2,] trailing").is_err());
        assert!(from_str("nope").is_err());
    }

    #[test]
    fn trailing_commas_in_arrays_parse() {
        // serde_json rejects these; we accept them (lenient reader, strict
        // writer) — our writer never emits them.
        assert_eq!(from_str("[1, 2,]").unwrap(), json!([1, 2]));
    }
}
