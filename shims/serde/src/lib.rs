//! Offline stand-in for `serde`.
//!
//! The build environment for this repository has no access to crates.io,
//! so the workspace vendors a minimal serialization framework under the
//! familiar `serde` name. It supports exactly the subset the workspace
//! uses: `#[derive(Serialize, Deserialize)]` on structs and enums
//! (including `#[serde(transparent)]` newtypes), and JSON text via the
//! sibling `serde_json` shim.
//!
//! The data model is a self-describing [`Value`] tree rather than the
//! real serde's visitor architecture; that keeps the implementation a
//! few hundred lines while remaining wire-compatible with serde_json for
//! the types this workspace serializes (externally tagged enums, maps
//! with integer-like keys, newtype structs collapsing to their inner
//! value).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or to-be-printed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// Any number written with a fraction or exponent (or out of integer
    /// range).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order (serde_json's default preserves the
    /// struct's field order, which keeps output diffable).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object lookup by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The fields of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Numeric view accepting any of the three number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization failure: what was expected and what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

fn type_err<T>(expected: &str, found: &Value) -> Result<T, DeError> {
    Err(DeError(format!(
        "expected {expected}, found {}",
        found.kind()
    )))
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the JSON data model.
    fn serialize(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the JSON data model.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] on a shape or type mismatch.
    fn deserialize(v: &Value) -> Result<Self, DeError>;

    /// The value to use when an object field is absent (`None` = the
    /// field is required). Overridden by `Option<T>`.
    fn absent() -> Option<Self> {
        None
    }
}

/// Looks up a struct field in an object, honouring [`Deserialize::absent`].
///
/// # Errors
///
/// Returns [`DeError`] when the field is missing and required, or fails
/// to deserialize.
pub fn field<T: Deserialize>(fields: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v).map_err(|e| DeError(format!("field `{name}`: {}", e.0))),
        None => T::absent().ok_or_else(|| DeError(format!("missing field `{name}`"))),
    }
}

// ---------------------------------------------------------------------
// Serialize impls for primitives and std containers.
// ---------------------------------------------------------------------

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$n.serialize()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Renders a serialized key as a JSON object key, matching serde_json's
/// convention of stringifying integer-like map keys.
fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(u) => u.to_string(),
        Value::I64(i) => i.to_string(),
        other => panic!("unsupported map key type: {}", other.kind()),
    }
}

fn key_from_str(s: &str) -> Value {
    if let Ok(u) = s.parse::<u64>() {
        Value::U64(u)
    } else if let Ok(i) = s.parse::<i64>() {
        Value::I64(i)
    } else {
        Value::Str(s.to_owned())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(&k.serialize()), v.serialize()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Deserialize impls.
// ---------------------------------------------------------------------

macro_rules! de_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::U64(u) => <$t>::try_from(u)
                        .map_err(|_| DeError(format!("{u} out of range for {}", stringify!($t)))),
                    _ => type_err("unsigned integer", v),
                }
            }
        }
    )*};
}
de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! de_signed {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide: i64 = match *v {
                    Value::U64(u) => i64::try_from(u)
                        .map_err(|_| DeError(format!("{u} out of range for i64")))?,
                    Value::I64(i) => i,
                    _ => return type_err("integer", v),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
de_signed!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_f64().map_or_else(|| type_err("number", v), Ok)
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => type_err("bool", v),
        }
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => type_err("string", v),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            _ => type_err("array", v),
        }
    }
}

macro_rules! de_tuple {
    ($(($len:expr; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($t::deserialize(&items[$n])?,)+))
                    }
                    Value::Array(items) => Err(DeError(format!(
                        "expected array of length {}, found {}", $len, items.len()
                    ))),
                    _ => type_err("array", v),
                }
            }
        }
    )*};
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, val)| Ok((K::deserialize(&key_from_str(k))?, V::deserialize(val)?)))
                .collect(),
            _ => type_err("object", v),
        }
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// JSON text encoding / decoding (used by the serde_json shim).
// ---------------------------------------------------------------------

/// JSON text support for [`Value`].
pub mod json {
    use super::{DeError, Value};
    use std::fmt::Write as _;

    /// Prints a value as compact JSON.
    pub fn write(v: &Value, out: &mut String) {
        write_indent(v, out, None, 0);
    }

    /// Prints a value as pretty JSON with two-space indentation
    /// (serde_json's default).
    pub fn write_pretty(v: &Value, out: &mut String) {
        write_indent(v, out, Some(2), 0);
    }

    fn newline(out: &mut String, step: Option<usize>, depth: usize) {
        if let Some(step) = step {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }

    fn write_indent(v: &Value, out: &mut String, step: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Value::I64(i) => {
                let _ = write!(out, "{i}");
            }
            Value::F64(f) => write_f64(*f, out),
            Value::Str(s) => write_string(s, out),
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
                    newline(out, step, depth + 1);
                    write_indent(item, out, step, depth + 1);
                }
                newline(out, step, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, step, depth + 1);
                    write_string(k, out);
                    out.push(':');
                    if step.is_some() {
                        out.push(' ');
                    }
                    write_indent(val, out, step, depth + 1);
                }
                newline(out, step, depth);
                out.push('}');
            }
        }
    }

    /// Matches serde_json: non-finite floats print as `null`; finite
    /// floats use Rust's shortest round-trippable decimal, with a
    /// trailing `.0` to keep them number-typed on re-read.
    fn write_f64(f: f64, out: &mut String) {
        if !f.is_finite() {
            out.push_str("null");
            return;
        }
        let s = format!("{f}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }

    fn write_string(s: &str, out: &mut String) {
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

    /// The deepest array/object nesting [`parse`] accepts — serde_json's
    /// default recursion limit. The parser recurses once per level, so
    /// without a bound a few kilobytes of `[` overflow the stack of
    /// whichever thread reads them.
    pub const MAX_DEPTH: usize = 128;

    /// Parses JSON text into a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] with a byte offset on malformed input or on
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, DeError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(DeError(format!("trailing characters at byte {pos}")));
        }
        Ok(v)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), DeError> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(DeError(format!("expected `{}` at byte {}", b as char, pos)))
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, DeError> {
        skip_ws(bytes, pos);
        if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return Err(DeError(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
            )));
        }
        match bytes.get(*pos) {
            None => Err(DeError("unexpected end of input".into())),
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
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(DeError(format!("expected `,` or `]` at byte {pos}"))),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos, depth + 1)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(DeError(format!("expected `,` or `}}` at byte {pos}"))),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], v: Value) -> Result<Value, DeError> {
        if bytes[*pos..].starts_with(lit) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(DeError(format!("invalid literal at byte {pos}")))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, DeError> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(DeError("unterminated string".into())),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| DeError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| DeError("invalid \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| DeError("invalid \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| DeError("invalid \\u escape".into()))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(DeError(format!("invalid escape at byte {pos}"))),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &bytes[*pos..];
                    let s =
                        std::str::from_utf8(rest).map_err(|_| DeError("invalid UTF-8".into()))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, DeError> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| DeError("invalid number".into()))?;
        if text.is_empty() || text == "-" {
            return Err(DeError(format!("expected a value at byte {start}")));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| DeError(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        let v = json::parse(text).unwrap();
        let mut out = String::new();
        json::write(&v, &mut out);
        assert_eq!(out, text);
    }

    #[test]
    fn compact_round_trips() {
        round_trip("null");
        round_trip("true");
        round_trip("[1,2.5,-3]");
        round_trip(r#"{"a":[],"b":{},"c":"x\ny"}"#);
        round_trip("10.25");
        round_trip("18446744073709551615");
    }

    #[test]
    fn float_formatting_matches_serde_json() {
        let mut out = String::new();
        json::write(&Value::F64(4.0), &mut out);
        assert_eq!(out, "4.0");
    }

    #[test]
    fn map_keys_stringify() {
        let mut m = BTreeMap::new();
        m.insert(3u64, "x".to_owned());
        let v = m.serialize();
        assert_eq!(v.get("3"), Some(&Value::Str("x".into())));
        let back: BTreeMap<u64, String> = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than 128"), "{}", err.0);
        let objects = format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129));
        assert!(json::parse(&objects).is_err());
        // An 8 KiB body of `[` on a spawned thread (2 MiB stack, like
        // an HTTP handler's) is rejected, not a stack overflow that
        // aborts the process.
        let body = "[".repeat(8192);
        let verdict = std::thread::spawn(move || json::parse(&body).is_err()).join();
        assert!(verdict.unwrap());
    }

    #[test]
    fn option_fields_default_to_none() {
        let fields = vec![("a".to_owned(), Value::U64(1))];
        let missing: Option<u64> = field(&fields, "b").unwrap();
        assert_eq!(missing, None);
        let present: Option<u64> = field(&fields, "a").unwrap();
        assert_eq!(present, Some(1));
        assert!(field::<u64>(&fields, "b").is_err());
    }
}
