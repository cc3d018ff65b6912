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
//! Every request frame goes through [`JsonValue::parse`], so the reader
//! does no per-byte allocation or UTF-8 work. The input is already a
//! `&str`, so each unescaped run of a string is copied whole up to the next
//! quote, backslash or control byte. Object keys move into their map
//! through the entry API, and integers are accumulated in place with
//! checked arithmetic. The writer likewise copies unescaped runs whole and
//! prints integers without a temporary string. The earlier byte-at-a-time
//! reader is kept as a test oracle (`json/reference.rs`): on valid
//! documents, malformed ones, truncations and byte flips both readers must
//! return equal values or equal `(offset, message)` errors.

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

    /// Parses a JSON document, requiring the whole input to be consumed.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
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

fn write_string(s: &str, out: &mut String) {
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

/// Writes `v` in decimal without a temporary string.
fn write_int(v: i64, out: &mut String) {
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

struct Parser<'a> {
    /// The document; `bytes` is the same text, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
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
            Some(v) if digits > 0 => Ok(JsonValue::Int(v)),
            _ => Err(self.error(format!("invalid integer `{text}`"))),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote, backslash or control byte is
            // copied whole: all three are ASCII, so the run ends on a
            // character boundary of the (already valid UTF-8) text.
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
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
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
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
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                // RFC 8259: control characters must be escaped.
                _ => {
                    return Err(
                        self.error(format!("unescaped control character 0x{b:02x} in string"))
                    )
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
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

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                // Last-one-wins would let a duplicate silently override an
                // already-validated field; the wire format rejects it.
                Entry::Occupied(slot) => {
                    return Err(self.error(format!("duplicate object key `{}`", slot.key())))
                }
            }
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

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
