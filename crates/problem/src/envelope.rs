//! The versioned NDJSON request/response envelope of the classification
//! service.
//!
//! Where [`crate::ProblemSpec`] is the wire form of one *problem*, the
//! envelope types here are the wire form of one *exchange*: every frame the
//! `lcl-server` crate reads or writes is a single line of JSON shaped as a
//! [`RequestEnvelope`] or a [`ResponseEnvelope`]. The envelope lives in this
//! crate (next to the rest of the wire format) so that clients, servers and
//! test harnesses share one strict parser and one canonical serializer —
//! equal envelopes always print byte-identically.
//!
//! A request carries the protocol version (`"v"`), a caller-chosen integer
//! request id (`"id"`, echoed back verbatim), a request kind (`"kind"`) and
//! an optional kind-specific `"payload"` object. A response echoes the id and
//! kind and carries either `"ok": true` with a `"payload"`, or `"ok": false`
//! with a structured [`ErrorReply`] (`category` + `message`). The request
//! kinds themselves (`classify`, `classify_many`, `solve`, `stats`,
//! `health`) are interpreted by the server crate; this module only fixes the
//! frame shape. See `docs/PROTOCOL.md` at the repository root for the full
//! protocol specification with examples.

use crate::json::{JsonValue, Reader};
use crate::{NormalizedLcl, ProblemError, ProblemSpec, Result};
use std::fmt;

/// The current version of the service protocol. Requests carrying any other
/// version are rejected before their payload is interpreted.
pub const PROTOCOL_VERSION: i64 = 1;

/// One parsed request frame: `{"v":1,"id":7,"kind":"classify","payload":…}`.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestEnvelope {
    /// Caller-chosen request id; the response echoes it, which lets a client
    /// detect desynchronized streams.
    pub id: i64,
    /// The request kind (e.g. `classify`); interpreted by the server.
    pub kind: String,
    /// Kind-specific payload document; [`JsonValue::Null`] when absent.
    pub payload: JsonValue,
}

impl RequestEnvelope {
    /// Builds a request envelope for the current protocol version.
    pub fn new(id: i64, kind: impl Into<String>, payload: JsonValue) -> Self {
        RequestEnvelope {
            id,
            kind: kind.into(),
            payload,
        }
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> JsonValue {
        self.clone().into_json()
    }

    /// Serializes to a JSON document, consuming the envelope. Unlike
    /// [`RequestEnvelope::to_json`] this does not deep-copy the payload
    /// tree — the difference matters to pipelining clients serializing
    /// thousands of frames per second.
    pub fn into_json(self) -> JsonValue {
        JsonValue::object([
            ("v", JsonValue::Int(PROTOCOL_VERSION)),
            ("id", JsonValue::Int(self.id)),
            ("kind", JsonValue::Str(self.kind)),
            ("payload", self.payload),
        ])
    }

    /// Serializes to a compact single-line JSON string (one NDJSON frame).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// [`RequestEnvelope::into_json`], serialized to one NDJSON frame.
    pub fn into_json_string(self) -> String {
        self.into_json().to_json_string()
    }

    /// Reads a request back from a parsed JSON document, enforcing the
    /// protocol version and field types. The document is consumed: the
    /// payload tree moves into the envelope instead of being copied.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on a missing/unsupported `v`, a missing or
    /// non-integer `id`, or a missing/empty `kind`. The payload is *not*
    /// validated here — its shape depends on the kind.
    pub fn from_json(value: JsonValue) -> Result<Self> {
        let version = value.require("v")?.as_int()?;
        if version != PROTOCOL_VERSION {
            return Err(ProblemError::Wire {
                what: format!(
                    "unsupported protocol version {version} (supported: {PROTOCOL_VERSION})"
                ),
            });
        }
        let id = value.require("id")?.as_int()?;
        let kind = value.require("kind")?.as_str()?.to_string();
        if kind.is_empty() {
            return Err(ProblemError::Wire {
                what: "request kind must not be empty".to_string(),
            });
        }
        let payload = take_field(value, "payload").unwrap_or(JsonValue::Null);
        Ok(RequestEnvelope { id, kind, payload })
    }

    /// Parses a request from one NDJSON frame.
    ///
    /// # Errors
    ///
    /// See [`RequestEnvelope::from_json`]; additionally reports JSON syntax
    /// errors.
    pub fn from_json_str(text: &str) -> Result<Self> {
        Self::from_json(JsonValue::parse(text)?)
    }

    /// The request front end for `classify`: reads one frame in a single
    /// pass of the JSON pull reader — envelope fields in any order, the payload's
    /// `problem` straight into a [`ProblemSpec`] — and builds the problem
    /// from it ([`ProblemSpec::into_problem`]). No [`JsonValue`] tree is
    /// built.
    ///
    /// Returns `None` on anything it does not accept whole: another kind,
    /// an unsupported version, a missing, repeated or unknown field at any
    /// level, a syntax error or trailing bytes, a problem that does not
    /// build. Where it returns `Some((id, problem))`, the tree path —
    /// [`RequestEnvelope::from_json_str`], then [`ProblemSpec::from_json`]
    /// on `payload.problem` and [`ProblemSpec::to_problem`] — succeeds with
    /// the same id and an equal problem. Where the tree path fails, this
    /// returns `None`, so a caller that falls back to the tree path on
    /// `None` replies to every frame exactly as the tree path alone would.
    pub fn read_classify(text: &str) -> Option<(i64, NormalizedLcl)> {
        const V: u8 = 1;
        const ID: u8 = 2;
        const KIND: u8 = 4;
        const PAYLOAD: u8 = 8;
        let mut reader = Reader::new(text);
        let (mut id, mut spec, mut seen) = (0, None, 0u8);
        let mut more = reader.begin_object().ok()?;
        while more {
            let key = reader.read_key().ok()?;
            let field = match key.as_ref() {
                "v" => V,
                "id" => ID,
                "kind" => KIND,
                "payload" => PAYLOAD,
                _ => return None,
            };
            if seen & field != 0 {
                return None;
            }
            seen |= field;
            match field {
                V => (reader.read_int().ok()? == PROTOCOL_VERSION).then_some(())?,
                ID => id = reader.read_int().ok()?,
                KIND => (reader.read_str().ok()? == "classify").then_some(())?,
                _ => {
                    // `{"problem": <spec>}` and nothing else.
                    if !reader.begin_object().ok()? || reader.read_key().ok()? != "problem" {
                        return None;
                    }
                    spec = Some(ProblemSpec::read(&mut reader)?);
                    if reader.object_continues().ok()? {
                        return None;
                    }
                }
            }
            more = reader.object_continues().ok()?;
        }
        reader.finish().ok()?;
        if seen != V | ID | KIND | PAYLOAD {
            return None;
        }
        Some((id, spec?.into_problem().ok()?))
    }
}

/// A structured error carried by a failed response: a stable machine-readable
/// `category` (which subsystem produced the error — `problem`, `semigroup`,
/// `simulator`, `lba`, `classifier` — or `protocol` for malformed frames and
/// `overloaded` for admission-control rejections) and a human-readable
/// `message`. Overloaded rejections additionally carry a `retryable` flag
/// and a `retry_after_millis` backoff hint; both fields are **optional** on
/// the wire and omitted entirely when absent, so every pre-existing error
/// reply serializes byte-identically.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ErrorReply {
    /// Stable error category identifier.
    pub category: String,
    /// Human-readable description.
    pub message: String,
    /// Whether retrying the identical request later may succeed (present on
    /// `overloaded` rejections; absent — and omitted from the wire — on
    /// every other error).
    pub retryable: Option<bool>,
    /// Suggested client backoff before retrying, in milliseconds (present
    /// only alongside [`ErrorReply::retryable`]).
    pub retry_after_millis: Option<u64>,
}

impl ErrorReply {
    /// Builds an error reply.
    pub fn new(category: impl Into<String>, message: impl Into<String>) -> Self {
        ErrorReply {
            category: category.into(),
            message: message.into(),
            retryable: None,
            retry_after_millis: None,
        }
    }

    /// Builds an `overloaded` admission-control rejection: retryable, with a
    /// suggested backoff of `retry_after_millis`.
    pub fn overloaded(message: impl Into<String>, retry_after_millis: u64) -> Self {
        ErrorReply {
            category: "overloaded".to_string(),
            message: message.into(),
            retryable: Some(true),
            retry_after_millis: Some(retry_after_millis),
        }
    }

    /// Serializes to a JSON document. The retry fields are emitted only when
    /// present, so non-overloaded errors keep their historical byte shape.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("category", JsonValue::Str(self.category.clone())),
            ("message", JsonValue::Str(self.message.clone())),
        ];
        if let Some(millis) = self.retry_after_millis {
            fields.push(("retry_after_millis", JsonValue::Int(millis as i64)));
        }
        if let Some(retryable) = self.retryable {
            fields.push(("retryable", JsonValue::Bool(retryable)));
        }
        JsonValue::object(fields)
    }

    /// Reads an error reply back from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on missing or non-string required fields,
    /// or mistyped optional retry fields.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let retryable = match value.get("retryable") {
            Some(v) => Some(v.as_bool()?),
            None => None,
        };
        let retry_after_millis = match value.get("retry_after_millis") {
            Some(v) => {
                let millis = v.as_int()?;
                Some(u64::try_from(millis).map_err(|_| ProblemError::Wire {
                    what: format!("retry_after_millis must be non-negative, got {millis}"),
                })?)
            }
            None => None,
        };
        Ok(ErrorReply {
            category: value.require("category")?.as_str()?.to_string(),
            message: value.require("message")?.as_str()?.to_string(),
            retryable,
            retry_after_millis,
        })
    }
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.category, self.message)
    }
}

/// One response frame: either
/// `{"id":7,"kind":"classify","ok":true,"payload":…}` or
/// `{"id":7,"kind":"classify","ok":false,"error":{…}}`.
#[derive(Clone, PartialEq, Debug)]
pub struct ResponseEnvelope {
    /// The echoed request id; `None` when the request was so malformed that
    /// no id could be recovered (serialized as JSON `null`).
    pub id: Option<i64>,
    /// The echoed request kind (the literal `invalid` when unknown).
    pub kind: String,
    /// The outcome: a kind-specific payload, or a structured error.
    pub result: std::result::Result<JsonValue, ErrorReply>,
}

impl ResponseEnvelope {
    /// Builds a success response.
    pub fn ok(id: i64, kind: impl Into<String>, payload: JsonValue) -> Self {
        ResponseEnvelope {
            id: Some(id),
            kind: kind.into(),
            result: Ok(payload),
        }
    }

    /// Builds an error response.
    pub fn error(id: Option<i64>, kind: impl Into<String>, error: ErrorReply) -> Self {
        ResponseEnvelope {
            id,
            kind: kind.into(),
            result: Err(error),
        }
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> JsonValue {
        self.clone().into_json()
    }

    /// Serializes to a JSON document, consuming the envelope. Unlike
    /// [`ResponseEnvelope::to_json`] this does not deep-copy the payload
    /// tree; the server serializes every reply through this.
    pub fn into_json(self) -> JsonValue {
        let id = match self.id {
            Some(id) => JsonValue::Int(id),
            None => JsonValue::Null,
        };
        match self.result {
            Ok(payload) => JsonValue::object([
                ("id", id),
                ("kind", JsonValue::Str(self.kind)),
                ("ok", JsonValue::Bool(true)),
                ("payload", payload),
            ]),
            Err(error) => JsonValue::object([
                ("id", id),
                ("kind", JsonValue::Str(self.kind)),
                ("ok", JsonValue::Bool(false)),
                ("error", error.to_json()),
            ]),
        }
    }

    /// Serializes to a compact single-line JSON string (one NDJSON frame).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// [`ResponseEnvelope::into_json`], serialized to one NDJSON frame.
    pub fn into_json_string(self) -> String {
        self.into_json().to_json_string()
    }

    /// Reads a response back from a parsed JSON document. The document is
    /// consumed: the payload tree moves into the envelope instead of being
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on missing fields or a non-boolean `ok`.
    pub fn from_json(value: JsonValue) -> Result<Self> {
        let id = match value.require("id")? {
            JsonValue::Null => None,
            other => Some(other.as_int()?),
        };
        let kind = value.require("kind")?.as_str()?.to_string();
        let result = if value.require("ok")?.as_bool()? {
            // `require` reports a missing payload; a present one moves out.
            value.require("payload")?;
            Ok(take_field(value, "payload").expect("checked by require"))
        } else {
            Err(ErrorReply::from_json(value.require("error")?)?)
        };
        Ok(ResponseEnvelope { id, kind, result })
    }

    /// Parses a response from one NDJSON frame.
    ///
    /// # Errors
    ///
    /// See [`ResponseEnvelope::from_json`]; additionally reports JSON syntax
    /// errors.
    pub fn from_json_str(text: &str) -> Result<Self> {
        Self::from_json(JsonValue::parse(text)?)
    }
}

/// Moves field `key` out of an object document; `None` when `value` is not
/// an object or has no such field.
fn take_field(value: JsonValue, key: &str) -> Option<JsonValue> {
    match value {
        JsonValue::Object(mut map) => map.remove(key),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let payload = JsonValue::object([("x", JsonValue::Int(1))]);
        let request = RequestEnvelope::new(7, "classify", payload);
        let text = request.to_json_string();
        assert_eq!(
            text,
            r#"{"id":7,"kind":"classify","payload":{"x":1},"v":1}"#
        );
        assert_eq!(RequestEnvelope::from_json_str(&text).unwrap(), request);
    }

    #[test]
    fn request_payload_defaults_to_null() {
        let request = RequestEnvelope::from_json_str(r#"{"v":1,"id":1,"kind":"health"}"#).unwrap();
        assert_eq!(request.payload, JsonValue::Null);
        assert_eq!(request.kind, "health");
    }

    #[test]
    fn bad_requests_are_rejected() {
        // Syntax error.
        assert!(RequestEnvelope::from_json_str("{").is_err());
        // Missing version.
        assert!(RequestEnvelope::from_json_str(r#"{"id":1,"kind":"health"}"#).is_err());
        // Unsupported version.
        let err = RequestEnvelope::from_json_str(r#"{"v":2,"id":1,"kind":"health"}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported protocol version 2"));
        // Missing / non-integer id.
        assert!(RequestEnvelope::from_json_str(r#"{"v":1,"kind":"health"}"#).is_err());
        assert!(RequestEnvelope::from_json_str(r#"{"v":1,"id":"x","kind":"health"}"#).is_err());
        // Missing / empty kind.
        assert!(RequestEnvelope::from_json_str(r#"{"v":1,"id":1}"#).is_err());
        assert!(RequestEnvelope::from_json_str(r#"{"v":1,"id":1,"kind":""}"#).is_err());
    }

    #[test]
    fn ok_response_roundtrips() {
        let response = ResponseEnvelope::ok(3, "stats", JsonValue::object([]));
        assert!(response.is_ok());
        let text = response.to_json_string();
        assert_eq!(text, r#"{"id":3,"kind":"stats","ok":true,"payload":{}}"#);
        assert_eq!(ResponseEnvelope::from_json_str(&text).unwrap(), response);
    }

    #[test]
    fn error_response_roundtrips_with_null_id() {
        let response = ResponseEnvelope::error(
            None,
            "invalid",
            ErrorReply::new("protocol", "malformed request frame"),
        );
        assert!(!response.is_ok());
        let text = response.to_json_string();
        assert_eq!(
            text,
            r#"{"error":{"category":"protocol","message":"malformed request frame"},"id":null,"kind":"invalid","ok":false}"#
        );
        let back = ResponseEnvelope::from_json_str(&text).unwrap();
        assert_eq!(back, response);
        assert_eq!(
            back.result.unwrap_err().to_string(),
            "protocol: malformed request frame"
        );
    }

    #[test]
    fn overloaded_errors_carry_retry_hints() {
        let response = ResponseEnvelope::error(
            Some(9),
            "classify",
            ErrorReply::overloaded("load shed: pool queue depth 64 >= 8", 250),
        );
        let text = response.to_json_string();
        assert_eq!(
            text,
            r#"{"error":{"category":"overloaded","message":"load shed: pool queue depth 64 >= 8","retry_after_millis":250,"retryable":true},"id":9,"kind":"classify","ok":false}"#
        );
        let back = ResponseEnvelope::from_json_str(&text).unwrap();
        assert_eq!(back, response);
        let error = back.result.unwrap_err();
        assert_eq!(error.retryable, Some(true));
        assert_eq!(error.retry_after_millis, Some(250));
        // Negative backoffs are wire errors, not silent wraps.
        assert!(ErrorReply::from_json(
            &JsonValue::parse(r#"{"category":"overloaded","message":"m","retry_after_millis":-1}"#)
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn bad_responses_are_rejected() {
        assert!(ResponseEnvelope::from_json_str(r#"{"id":1,"kind":"x"}"#).is_err());
        assert!(ResponseEnvelope::from_json_str(r#"{"id":1,"kind":"x","ok":1}"#).is_err());
        // ok:true without payload / ok:false without error.
        assert!(ResponseEnvelope::from_json_str(r#"{"id":1,"kind":"x","ok":true}"#).is_err());
        assert!(ResponseEnvelope::from_json_str(r#"{"id":1,"kind":"x","ok":false}"#).is_err());
    }
}
