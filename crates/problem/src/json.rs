//! A minimal, dependency-free JSON document model with an exact parser and
//! compact writer.
//!
//! This is the wire substrate for [`crate::ProblemSpec`] and the serializable
//! domain types. The build environment cannot fetch `serde`/`serde_json`, so
//! the workspace ships its own small implementation; the subset implemented
//! (null, booleans, 64-bit integers, strings with full escape handling,
//! arrays, objects) is exactly what the LCL wire format needs, and integers
//! are kept exact rather than routed through floating point.
//!
//! There is one lexer, the pull `Reader`. It hands out the value the
//! caller asks for and validates as it goes — nesting depth, escapes and
//! surrogate pairs, control bytes, number syntax, trailing bytes — without
//! building anything: strings come back borrowed unless they hold an escape,
//! and integers are accumulated in place with checked arithmetic. Two
//! readers sit on top of it. [`JsonValue::parse`] builds a tree (and refuses
//! duplicate keys through its map); the service's `classify` front end
//! (`RequestEnvelope::read_classify`) reads a frame straight into a
//! [`crate::ProblemSpec`] with no tree at all. The writers
//! ([`write_string`], [`write_int`]) copy unescaped runs whole and print
//! integers without a temporary string, for the tree serializer and for
//! types that write their canonical bytes directly. The earlier
//! byte-at-a-time reader is kept as a test oracle (`json/reference.rs`): on
//! valid documents, malformed ones, truncations and byte flips,
//! [`JsonValue::parse`] must return the oracle's value or its `(offset,
//! message)` error.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Objects use a [`BTreeMap`] so that serialization is canonical: two equal
/// documents always print to the same string, which the engine's cache keys
/// and the round-trip tests rely on.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. The wire format never needs fractions; fractional input is
    /// rejected by the parser with a clear error.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with canonically ordered keys.
    Object(BTreeMap<String, JsonValue>),
}

/// Error produced when parsing or interpreting a JSON document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset the error was detected at (0 for semantic errors).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, JsonValue)>>(pairs: I) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of integers.
    pub fn int_array<I: IntoIterator<Item = i64>>(values: I) -> JsonValue {
        JsonValue::Array(values.into_iter().map(JsonValue::Int).collect())
    }

    /// Builds an array of strings.
    pub fn str_array<I, S>(values: I) -> JsonValue
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        JsonValue::Array(
            values
                .into_iter()
                .map(|s| JsonValue::Str(s.into()))
                .collect(),
        )
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Looks up a required field, with a descriptive error.
    pub fn require(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key).ok_or_else(|| JsonError {
            offset: 0,
            message: format!("missing required field `{key}`"),
        })
    }

    /// Interprets this value as an integer.
    pub fn as_int(&self) -> Result<i64, JsonError> {
        match self {
            JsonValue::Int(v) => Ok(*v),
            other => Err(type_error("integer", other)),
        }
    }

    /// Interprets this value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(type_error("boolean", other)),
        }
    }

    /// Interprets this value as a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// Interprets this value as an array.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// Serializes to a compact JSON string with canonical key order.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// [`JsonValue::to_json_string`] into a caller-provided buffer: appends
    /// the serialized document to `out` without allocating a fresh string,
    /// so per-connection hot loops can reuse one scratch buffer across
    /// frames instead of paying an allocation per envelope.
    pub fn write_json_string(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => write_int(*v, out),
            JsonValue::Str(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document, requiring the whole input to be consumed:
    /// the tree builder over `Reader`.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

fn type_error(expected: &str, got: &JsonValue) -> JsonError {
    let kind = match got {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "boolean",
        JsonValue::Int(_) => "integer",
        JsonValue::Str(_) => "string",
        JsonValue::Array(_) => "array",
        JsonValue::Object(_) => "object",
    };
    JsonError {
        offset: 0,
        message: format!("expected {expected}, found {kind}"),
    }
}

/// Writes `s` as a JSON string literal, escaped exactly as
/// [`JsonValue::to_json_string`] escapes it. For writers that emit canonical
/// JSON without building a tree.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the unescaped runs
    // between them end on character boundaries and are copied whole.
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Writes `v` in decimal without a temporary string, as
/// [`JsonValue::to_json_string`] prints an integer.
pub fn write_int(v: i64, out: &mut String) {
    // |i64::MIN| has 19 digits.
    let mut digits = [0u8; 19];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document: the one lexer behind
/// [`JsonValue::parse`] and the service's `classify` front end.
///
/// The caller asks for the value it expects next and the reader checks it
/// in place: strings come back borrowed from the input unless they hold an
/// escape, integers are accumulated without a temporary string, and nothing
/// else is allocated. Every read validates what it consumes — nesting depth
/// (at most 128 open arrays and objects), escapes and surrogate pairs,
/// control bytes, number syntax — and [`Reader::finish`] rejects trailing
/// bytes. Object keys are not remembered, so duplicate keys are the
/// caller's to refuse: [`JsonValue::parse`] does it with its map, a reader
/// of a fixed shape with a mask of the fields it has seen.
///
/// Errors carry the byte offset they were detected at and the same messages
/// the tree parser has always produced, because the tree parser is this
/// reader plus a map.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    /// The document; `bytes` is the same text, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current offset.
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn unexpected(&self) -> JsonError {
        match self.peek() {
            Some(other) => self.error(format!("unexpected character `{}`", other as char)),
            None => self.error("unexpected end of input"),
        }
    }

    /// Skips whitespace and checks the nesting depth before a value.
    fn value_start(&mut self) -> Result<Option<u8>, JsonError> {
        self.skip_whitespace();
        if self.depth >= MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        Ok(self.peek())
    }

    fn keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    /// Reads an integer. The wire format has no fractions, so `.`, `e` or
    /// `E` after the digits is an error, as are leading zeros and values
    /// outside `i64`.
    ///
    /// # Errors
    ///
    /// When the next value is not an integer that fits `i64`.
    pub(crate) fn read_int(&mut self) -> Result<i64, JsonError> {
        if !matches!(self.value_start()?, Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        self.number()
    }

    /// The integer at the cursor, which is on a `-` or a digit.
    fn number(&mut self) -> Result<i64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let first_digit = self.pos;
        // Accumulated toward the sign, so `i64::MIN` builds without
        // overflowing; `None` once the digits no longer fit.
        let mut value = Some(0i64);
        while let Some(&d @ b'0'..=b'9') = self.bytes.get(self.pos) {
            let digit = i64::from(d - b'0');
            value = value.and_then(|v| v.checked_mul(10)).and_then(|v| {
                if negative {
                    v.checked_sub(digit)
                } else {
                    v.checked_add(digit)
                }
            });
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.error("fractional numbers are not part of the wire format"));
        }
        let text = &self.text[start..self.pos];
        let digits = self.pos - first_digit;
        // RFC 8259: no leading zeros ("01" is invalid; "0" and "-0" are fine).
        if digits > 1 && self.bytes[first_digit] == b'0' {
            return Err(self.error(format!("leading zero in number `{text}`")));
        }
        match value {
            Some(v) if digits > 0 => Ok(v),
            _ => Err(self.error(format!("invalid integer `{text}`"))),
        }
    }

    /// Reads a string value, borrowed from the input when it holds no
    /// escape.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed string.
    pub(crate) fn read_str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.value_start()? != Some(b'"') {
            return Err(self.unexpected());
        }
        self.string()
    }

    /// Reads an object key and the `:` after it. Call it where
    /// [`Reader::begin_object`] or [`Reader::object_continues`] said a
    /// member follows.
    ///
    /// # Errors
    ///
    /// When the next token is not a string followed by `:`.
    pub(crate) fn read_key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_whitespace();
        let key = self.string()?;
        self.skip_whitespace();
        self.expect(b':')?;
        Ok(key)
    }

    /// The string at the cursor, opening quote included.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        // The run up to the next quote, backslash or control byte is taken
        // whole: all three are ASCII, so the run ends on a character
        // boundary of the (already valid UTF-8) text. A string without
        // escapes is one run, borrowed.
        let run = self.scan_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[run..self.pos - 1]));
        }
        let mut out = String::from(&text[run..self.pos]);
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => self.escape(&mut out)?,
                // RFC 8259: control characters must be escaped.
                _ => {
                    return Err(
                        self.error(format!("unescaped control character 0x{b:02x} in string"))
                    )
                }
            }
            let run = self.scan_run();
            out.push_str(&text[run..self.pos]);
        }
    }

    /// Advances past bytes that need no escape handling; returns where the
    /// run began.
    fn scan_run(&mut self) -> usize {
        let run = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        run
    }

    /// Decodes one escape (the backslash already consumed) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by an
                // escaped low surrogate.
                let c = if (0xd800..0xdc00).contains(&code) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                match c {
                    Some(c) => out.push(c),
                    None => return Err(self.error("invalid unicode escape")),
                }
            }
            other => return Err(self.error(format!("invalid escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.error("truncated unicode escape"));
        };
        // Pure hex digits only: a leading `+` is not an escape.
        let mut code = 0;
        for &d in digits {
            match char::from(d).to_digit(16) {
                Some(v) => code = code * 16 + v,
                None => return Err(self.error("invalid unicode escape")),
            }
        }
        self.pos += 4;
        Ok(code)
    }

    /// Opens an array: `true` when an item follows, `false` when it was
    /// `[]` (already closed).
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or nests too deeply.
    pub(crate) fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.open(b'[', b']')
    }

    /// After an array item: `true` when another item follows (the `,` is
    /// consumed), `false` when the array closed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `]` follows.
    pub(crate) fn array_continues(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected `,` or `]` in array")
    }

    /// Opens an object: `true` when a member follows, `false` when it was
    /// `{}` (already closed).
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or nests too deeply.
    pub(crate) fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.open(b'{', b'}')
    }

    /// After an object member's value: `true` when another member follows
    /// (the `,` is consumed), `false` when the object closed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `}` follows.
    pub(crate) fn object_continues(&mut self) -> Result<bool, JsonError> {
        self.next_member(b'}', "expected `,` or `}` in object")
    }

    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        if self.value_start()? != Some(open) {
            return Err(self.unexpected());
        }
        Ok(self.enter(close))
    }

    /// Steps into the array or object whose opening bracket is at the
    /// cursor: `true` when a member follows, `false` when `close` ends it
    /// at once.
    fn enter(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.depth += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return false;
        }
        true
    }

    fn next_member(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.error(message)),
        }
    }

    /// Ends the document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// On trailing bytes.
    pub(crate) fn finish(mut self) -> Result<(), JsonError> {
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.value_start()? {
            Some(b'n') => {
                self.keyword("null")?;
                JsonValue::Null
            }
            Some(b't') => {
                self.keyword("true")?;
                JsonValue::Bool(true)
            }
            Some(b'f') => {
                self.keyword("false")?;
                JsonValue::Bool(false)
            }
            Some(b'"') => JsonValue::Str(self.string()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => JsonValue::Int(self.number()?),
            Some(b'[') => {
                let mut items = Vec::new();
                if self.enter(b']') {
                    loop {
                        items.push(self.value()?);
                        if !self.array_continues()? {
                            break;
                        }
                    }
                }
                JsonValue::Array(items)
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                if self.enter(b'}') {
                    loop {
                        let key = self.read_key()?.into_owned();
                        let value = self.value()?;
                        match map.entry(key) {
                            Entry::Vacant(slot) => {
                                slot.insert(value);
                            }
                            // Last-one-wins would let a duplicate silently
                            // override an already-validated field; the wire
                            // format rejects it.
                            Entry::Occupied(slot) => {
                                return Err(
                                    self.error(format!("duplicate object key `{}`", slot.key()))
                                )
                            }
                        }
                        if !self.object_continues()? {
                            break;
                        }
                    }
                }
                JsonValue::Object(map)
            }
            _ => return Err(self.unexpected()),
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_pulls_the_values_it_is_asked_for() {
        let mut reader = Reader::new(r#"{"id": 7, "tags": ["a", "b\n"]}"#);
        assert!(reader.begin_object().unwrap());
        assert_eq!(reader.read_key().unwrap(), "id");
        assert_eq!(reader.read_int().unwrap(), 7);
        assert!(reader.object_continues().unwrap());
        assert_eq!(reader.read_key().unwrap(), "tags");
        let mut tags = Vec::new();
        if reader.begin_array().unwrap() {
            loop {
                tags.push(reader.read_str().unwrap());
                if !reader.array_continues().unwrap() {
                    break;
                }
            }
        }
        // The unescaped string is borrowed; the escaped one is not.
        assert!(matches!(tags[0], Cow::Borrowed("a")));
        assert!(matches!(&tags[1], Cow::Owned(s) if s == "b\n"));
        assert!(!reader.object_continues().unwrap());
        reader.finish().unwrap();
    }

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-12", "9007199254740993"] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_json_string(), text);
        }
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let original = JsonValue::Str("a\"b\\c\nd\te\u{1f600}π".to_string());
        let text = original.to_json_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), original);
        // Escapes and surrogate pairs parse.
        let parsed = JsonValue::parse(r#""\u00e9\ud83d\ude00\/""#).unwrap();
        assert_eq!(parsed, JsonValue::Str("é😀/".to_string()));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let doc = JsonValue::object([
            ("b", JsonValue::int_array([1, 2, 3])),
            ("a", JsonValue::str_array(["x", "y"])),
            (
                "c",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
        ]);
        let text = doc.to_json_string();
        // Canonical key order regardless of insertion order.
        assert_eq!(text, r#"{"a":["x","y"],"b":[1,2,3],"c":[null,true]}"#);
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    /// Documents every reader must refuse.
    const MALFORMED: &[&str] = &[
        "",
        "nul",
        "[1,",
        "{\"a\":}",
        "\"unterminated",
        "1.5",
        "1e3",
        "[1] trailing",
        "{\"a\" 1}",
        "\"\\q\"",
        "--1",
        r#""\u+0ab""#,
        r#""\ud83d\u+e00""#,
        r#"{"a":1,"a":2}"#,
        "01",
        "-01",
        "\"raw\ncontrol\"",
        "\"tab\there\"",
        "-",
        "-a",
        "9223372036854775808",
        "-9223372036854775809",
        "99999999999999999999999",
        "\"é\u{1}\"",
        "\"π😀\u{1f}x\"",
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ude0""#,
        r#""\u12""#,
        r#""\u12"#,
        "\"\\",
        r#"{"é":1,"é":2}"#,
        "-.5",
        "0e",
        "[-]",
    ];

    /// Valid documents at the edges of what the reader accepts.
    const EDGE_VALID: &[&str] = &[
        "9223372036854775807",
        "-9223372036854775808",
        "-0",
        "0",
        r#""\ud83d\ude00""#,
        r#""\u00e9\u0000\u001f\b\f\n\r\t\/\\\"""#,
        "\"é😀π mixed \\n run\"",
        r#"{"a":[],"b":{},"c":[{"d":null}],"e":""}"#,
        " \t\r\n[ true , false , null ] \n",
    ];

    /// `depth` nested arrays around an integer.
    fn nested(depth: usize) -> String {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }

    /// Both readers on `text`: equal values, or equal `(offset, message)`.
    fn assert_readers_agree(text: &str) {
        assert_eq!(
            JsonValue::parse(text),
            reference::parse(text),
            "readers disagree on {text:?}"
        );
    }

    /// A seeded xorshift stream, so truncations and flips reproduce.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Classify request frames around `lcl-gen` draws of every family, in
    /// the canonical spelling and with whitespace after each separator.
    fn generated_frames() -> Vec<String> {
        let mut frames = Vec::new();
        for i in 0..64u64 {
            let config = lcl_gen::GenConfig::new(300 + i)
                .family(lcl_gen::Family::ALL[i as usize % 4])
                .input_labels(1 + i as usize % 3)
                .output_labels(2 + i as usize % 5);
            let spec = lcl_gen::generate(&config)
                .unwrap()
                .to_spec()
                .to_json_string();
            let frame = format!(
                "{{\"id\":{},\"kind\":\"classify\",\"payload\":{{\"problem\":{spec}}},\"v\":1}}",
                i as i64 - 32
            );
            frames.push(frame.replace(',', " ,\n ").replace(':', ": "));
            frames.push(frame);
        }
        frames
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in MALFORMED {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in EDGE_VALID {
            assert!(JsonValue::parse(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn integers_cover_the_whole_i64_range() {
        for v in [i64::MIN, i64::MIN + 1, -10, -1, 0, 9, 10, i64::MAX] {
            let text = JsonValue::Int(v).to_json_string();
            assert_eq!(text, v.to_string());
            assert_eq!(JsonValue::parse(&text).unwrap(), JsonValue::Int(v));
        }
    }

    #[test]
    fn writer_escapes_exactly_as_before() {
        // The old writer: one char at a time, `\u{:04x}` for the other
        // control characters.
        fn old_write_string(s: &str) -> String {
            let mut out = String::from('"');
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
            out.push('"');
            out
        }
        let mut every_control: String = (0u8..0x20).map(char::from).collect();
        every_control.push_str("\"\\\u{7f}é😀 plain");
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\te\u{1f600}π",
            "\u{0}\u{8}\u{c}\u{1b}",
            &every_control,
        ] {
            let mut out = String::new();
            write_string(s, &mut out);
            assert_eq!(out, old_write_string(s), "{s:?}");
        }
    }

    #[test]
    fn reader_agrees_with_the_reference_reader() {
        let mut documents: Vec<String> = MALFORMED
            .iter()
            .chain(EDGE_VALID)
            .map(|s| s.to_string())
            .collect();
        for depth in [127, 128, 129] {
            documents.push(nested(depth));
            documents.push(format!("{}{}", "{\"k\":".repeat(depth), "}".repeat(depth)));
        }
        let frames = generated_frames();
        documents.extend(frames.iter().cloned());
        for document in &documents {
            assert_readers_agree(document);
        }
        // Every frame is valid; its truncations and byte flips mostly not.
        for frame in &frames {
            assert!(JsonValue::parse(frame).is_ok(), "{frame}");
        }
        const FLIPS: &[u8] = b"\"\\{}[],:-09.eE \nuntf\x01a";
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut edited = documents.clone();
        edited.extend(MALFORMED.iter().chain(EDGE_VALID).map(|s| format!("[{s}]")));
        for document in &edited {
            for _ in 0..16 {
                let len = document.len();
                if len == 0 {
                    break;
                }
                let at = (xorshift(&mut state) % len as u64) as usize;
                if document.is_char_boundary(at) {
                    assert_readers_agree(&document[..at]);
                }
                // Flip one ASCII byte to a structural or escape byte; the
                // result stays UTF-8 because both bytes are ASCII.
                if document.as_bytes()[at].is_ascii() {
                    let flip = FLIPS[(xorshift(&mut state) % FLIPS.len() as u64) as usize];
                    let mut bytes = document.clone().into_bytes();
                    bytes[at] = flip;
                    assert_readers_agree(&String::from_utf8(bytes).unwrap());
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_capped() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push('[');
        }
        for _ in 0..200 {
            text.push(']');
        }
        assert!(JsonValue::parse(&text).is_err());
    }

    #[test]
    fn accessors_report_type_errors() {
        let v = JsonValue::parse(r#"{"n":3,"s":"x"}"#).unwrap();
        assert_eq!(v.require("n").unwrap().as_int().unwrap(), 3);
        assert_eq!(v.require("s").unwrap().as_str().unwrap(), "x");
        assert!(v.require("missing").is_err());
        assert!(v.require("n").unwrap().as_str().is_err());
        assert!(v.as_int().is_err());
        let err = v.require("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
