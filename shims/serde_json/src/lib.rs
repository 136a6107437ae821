//! Offline stand-in for `serde_json`.
//!
//! The build environment has no registry access, so this workspace vendors a
//! small, std-only JSON implementation that is API-compatible with the
//! subset of `serde_json` the repo uses: the dynamic [`Value`] tree, the
//! [`json!`] literal macro, [`to_string`] / [`to_string_pretty`], and
//! [`from_str`] — plus the pieces under them, for code that reads or
//! writes JSON text without building a `Value`: [`Lexer`], the parser's
//! pull lexer, and [`escape_into`] and [`float_into`], the writer's string
//! escaper and float format. There is no `Serialize`/`Deserialize` trait
//! machinery — structured output goes through `Value` explicitly.

use std::borrow::Cow;
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

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::Int(v) if v >= 0 => Some(v as u64),
            Number::UInt(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => float_into(v, f),
        }
    }
}

/// Writes `v` as the writer prints a float: `{v:.1}` when integral and
/// `|v| < 1e15`, `{v}` otherwise, `null` when not finite (JSON has no
/// NaN or infinity; serde_json errors here, this shim emits `null`).
/// [`Number`]'s `Display` is this; a writer that appends to a `String`
/// calls it directly, with one formatting layer instead of two.
pub fn float_into(v: f64, out: &mut impl fmt::Write) -> fmt::Result {
    if !v.is_finite() {
        out.write_str("null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
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
            Value::Number(n) => n.as_u64(),
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

/// A parse error, naming the byte it was found at. (Serializing a
/// `Value` cannot fail; its `Result` is kept for API parity.)
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

/// How deep arrays and objects may nest.
const MAX_DEPTH: usize = 128;

/// One step of a [`Lexer`]: a whole scalar, or the opening bracket of an
/// array or object.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: an `i64` if it is one, else a `u64`, else an `f64`.
    Number(Number),
    /// A string, borrowed from the text when it has no escapes.
    String(Cow<'a, str>),
    /// `[`: read elements until [`Lexer::close`]`(b']')`.
    Array,
    /// `{`: read members until [`Lexer::close`]`(b'}')`.
    Object,
}

/// The JSON grammar as a pull lexer over one document. [`from_str`]
/// builds its [`Value`] tree from these steps; a reader that wants typed
/// values takes the same steps and keeps what it needs, with the same
/// errors at the same bytes.
///
/// Arrays and objects nest at most 128 deep, `serde_json`'s default
/// recursion limit; a deeper document is an [`Error`], not a stack
/// overflow. An object is read as:
///
/// ```
/// # use serde_json::{Lexer, Token};
/// let mut lx = Lexer::new(r#"{"a": [1, 2]}"#);
/// assert_eq!(lx.token().unwrap(), Token::Object);
/// while !lx.close(b'}') {
///     let key = lx.key().unwrap();
///     let first = lx.token().unwrap();
///     let value = lx.value_from(first).unwrap();
///     assert_eq!((&*key, value), ("a", serde_json::json!([1, 2])));
///     lx.item_end(b'}').unwrap();
/// }
/// lx.end().unwrap();
/// ```
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, t: Token<'a>) -> Result<Token<'a>, Error> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(t)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads the next value's first step: a scalar whole, or an opening
    /// bracket, which counts against the nesting limit.
    pub fn token(&mut self) -> Result<Token<'a>, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected eof"))? {
            b'n' => self.literal("null", Token::Null),
            b't' => self.literal("true", Token::Bool(true)),
            b'f' => self.literal("false", Token::Bool(false)),
            b'"' => Ok(Token::String(self.string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("recursion limit exceeded"));
                }
                self.depth += 1;
                self.pos += 1;
                Ok(if open == b'[' {
                    Token::Array
                } else {
                    Token::Object
                })
            }
            _ => Ok(Token::Number(self.number()?)),
        }
    }

    /// Skips whitespace and, if the next byte is `close` (`]` or `}`),
    /// reads it and reports the container closed.
    pub fn close(&mut self, close: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            true
        } else {
            false
        }
    }

    /// Reads an object member's key and the `:` after it.
    pub fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':', "expected :")?;
        Ok(key)
    }

    /// Reads what follows an element or member: a `,`, or the container's
    /// `close` byte, which is left for [`Lexer::close`]. A `,` before the
    /// close is accepted (lenient reader, strict writer).
    pub fn item_end(&mut self, close: u8) -> Result<(), Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(())
            }
            Some(b) if b == close => Ok(()),
            _ => Err(self.err(if close == b']' {
                "expected , or ]"
            } else {
                "expected , or }"
            })),
        }
    }

    /// Checks that only whitespace follows the document's value.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing garbage"))
        }
    }

    /// Reads a string, borrowed from the text when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"', "expected string")?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        // The run up to the next `"` or `\`: the whole string when it has
        // no escapes. Both are ASCII, so the run holds whole scalars.
        let run = bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| start + n);
        if bytes.get(run) == Some(&b'"') {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.src[start..run]));
        }
        let mut s = String::from(&self.src[start..run]);
        self.pos = run;
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
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
                            let mut code = self.hex4()?;
                            // A high and a low surrogate spell one scalar; a
                            // lone surrogate reads as U+FFFD.
                            if (0xd800..0xdc00).contains(&code)
                                && self.src[self.pos..].starts_with("\\u")
                            {
                                self.pos += 2;
                                match self.hex4()? {
                                    low @ 0xdc00..0xe000 => {
                                        code = 0x10000 + (code - 0xd800) * 0x400 + low - 0xdc00
                                    }
                                    _ => self.pos -= 6, // no low half: it reads alone
                                }
                            }
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next `"` or `\` in one go.
                    let run = bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(bytes.len(), |n| self.pos + n);
                    s.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape: no sign, no fewer.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.src.get(self.pos..self.pos + 4);
        let code = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Number, Error> {
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
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Value, Error> {
        let first = self.token()?;
        self.value_from(first)
    }

    /// Reads the rest of the value `first` began, as a tree.
    pub fn value_from(&mut self, first: Token<'a>) -> Result<Value, Error> {
        Ok(match first {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Number(n) => Value::Number(n),
            Token::String(s) => Value::String(s.into_owned()),
            Token::Array => {
                let mut items = Vec::new();
                while !self.close(b']') {
                    items.push(self.value()?);
                    self.item_end(b']')?;
                }
                Value::Array(items)
            }
            Token::Object => {
                let mut map = Map::new();
                while !self.close(b'}') {
                    let key = self.key()?.into_owned();
                    let val = self.value()?;
                    map.insert(key, val);
                    self.item_end(b'}')?;
                }
                Value::Object(map)
            }
        })
    }
}

/// Parses a JSON document into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut lx = Lexer::new(s);
    let v = lx.value()?;
    lx.end()?;
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
    fn a_surrogate_pair_escape_reads_as_its_one_scalar() {
        assert_eq!(
            from_str("\"\\ud834\\udd1e\"").unwrap(),
            Value::from("\u{1d11e}")
        );
        assert_eq!(
            from_str("\"a\\uD834\\uDD1Eb\\u00e9\"").unwrap(),
            Value::from("a\u{1d11e}b\u{e9}")
        );
    }

    #[test]
    fn a_lone_surrogate_escape_reads_as_the_replacement_char() {
        for (text, want) in [
            ("\"\\ud834\"", "\u{fffd}"),
            ("\"\\ud834x\"", "\u{fffd}x"),
            ("\"\\udd1e\"", "\u{fffd}"),
            // A high half followed by an escape that is no low half: the
            // second escape reads on its own.
            ("\"\\ud834\\u0041\"", "\u{fffd}A"),
            ("\"\\ud834\\ud834\\udd1e\"", "\u{fffd}\u{1d11e}"),
        ] {
            assert_eq!(from_str(text).unwrap(), Value::from(want), "{text}");
        }
    }

    #[test]
    fn a_unicode_escape_needs_exactly_four_hex_digits() {
        for text in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u04g1\"",
            "\"\\ud834\\u+c00\"",
        ] {
            let err = from_str(text).unwrap_err().to_string();
            assert!(err.contains("bad \\u at byte"), "{text}: {err}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2,] trailing").is_err());
        assert!(from_str("nope").is_err());
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(from_str(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str(&objects(MAX_DEPTH)).is_ok());
        // The error names the first bracket past the limit.
        for (deep, at) in [
            (arrays(MAX_DEPTH + 1), MAX_DEPTH),
            (objects(MAX_DEPTH + 1), 5 * MAX_DEPTH),
        ] {
            assert_eq!(
                from_str(&deep).unwrap_err().to_string(),
                format!("json error: recursion limit exceeded at byte {at}")
            );
        }
        // Far past the limit is the same error, not a stack overflow.
        assert_eq!(
            from_str(&arrays(50_000)).unwrap_err().to_string(),
            format!("json error: recursion limit exceeded at byte {MAX_DEPTH}")
        );
        // Depth counts the containers open at once, not those seen.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str(&wide).is_ok());
    }

    #[test]
    fn lexer_borrows_strings_without_escapes() {
        let mut lx = Lexer::new(r#" "plain é" "esc\naped" 7 -1 18446744073709551615 1e0"#);
        assert!(matches!(
            lx.token().unwrap(),
            Token::String(Cow::Borrowed("plain é"))
        ));
        assert!(matches!(lx.token().unwrap(), Token::String(Cow::Owned(s)) if s == "esc\naped"));
        assert_eq!(lx.token().unwrap(), Token::Number(Number::Int(7)));
        assert_eq!(lx.token().unwrap(), Token::Number(Number::Int(-1)));
        assert_eq!(lx.token().unwrap(), Token::Number(Number::UInt(u64::MAX)));
        assert_eq!(lx.token().unwrap(), Token::Number(Number::Float(1.0)));
        lx.end().unwrap();
        assert_eq!(Number::Int(-1).as_u64(), None);
        assert_eq!(Number::Float(1.0).as_u64(), None);
    }

    /// `float_into` against the format `Number`'s `Display` had when it
    /// nested a second `write!`: byte for byte, on edge values and on
    /// random bit patterns.
    #[test]
    fn float_format_is_unchanged() {
        fn nested(v: f64) -> String {
            if v.is_finite() {
                if v == v.trunc() && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            } else {
                "null".into()
            }
        }
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -5e-324,
            999_999_999_999_999.0,
            1e15,
            1e15 + 2.0,
            -1e15,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let random = (0..10_000).map(|_| {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        });
        for v in edges.into_iter().chain(random) {
            let mut s = String::new();
            float_into(v, &mut s).unwrap();
            assert_eq!(s, nested(v), "{:#x}", v.to_bits());
            assert_eq!(Number::Float(v).to_string(), s);
        }
    }

    #[test]
    fn trailing_commas_in_arrays_parse() {
        // serde_json rejects these; we accept them (lenient reader, strict
        // writer) — our writer never emits them.
        assert_eq!(from_str("[1, 2,]").unwrap(), json!([1, 2]));
    }
}
