//! Id-splicing for the zero-serialization classify fast lane.
//!
//! A hot `classify` hit serves pre-serialized reply-payload bytes cached
//! next to the verdict ([`Engine::cached_reply`]); the request id echo is
//! the only byte that differs between two hits on the same problem. This
//! module owns that byte-level decomposition of the success envelope,
//!
//! ```text
//! {"id":<id>,"kind":"classify","ok":true,"payload":<cached bytes>}
//! ```
//!
//! so the connection core's reply queue can write a reply frame as the head,
//! the shared payload and [`FRAME_TAIL`] in one vectored write, without
//! building a [`JsonValue`] tree or serializing anything. The decomposition is
//! pinned byte-identical to the canonical serializer
//! ([`ResponseEnvelope::ok`]) by the tests below — splicing is invisible on
//! the wire.
//!
//! [`Engine::cached_reply`]: lcl_paths::Engine::cached_reply
//! [`JsonValue`]: lcl_paths::problem::json::JsonValue
//! [`ResponseEnvelope::ok`]: lcl_paths::problem::ResponseEnvelope::ok

use lcl_paths::problem::json;
use std::sync::Arc;

/// The bytes of a success envelope before the id: `{"id":`.
const HEAD: &str = "{\"id\":";

/// The bytes between the id and the payload. The canonical serializer
/// prints object keys sorted, so for a success envelope the id is always
/// followed by exactly `,"kind":"classify","ok":true,"payload":`.
const MID: &str = ",\"kind\":\"classify\",\"ok\":true,\"payload\":";

/// Appends everything of a `classify` success frame before its payload —
/// `{"id":<id>,"kind":"classify","ok":true,"payload":` — to `out`. The
/// frame ends with the payload and one `}`.
pub(crate) fn write_head(id: i64, out: &mut String) {
    out.push_str(HEAD);
    json::write_int(id, out);
    out.push_str(MID);
}

/// The bytes after the payload, newline terminator included: the envelope's
/// closing brace plus the NDJSON frame separator.
pub(crate) const FRAME_TAIL: &[u8] = b"}\n";

/// A `classify` reply assembled from cached payload bytes plus the request
/// id — the terminal frame of the zero-serialization fast lane, carried by
/// [`StreamFrame::Spliced`](crate::StreamFrame::Spliced).
///
/// The payload bytes are shared (`Arc<[u8]>`) with the engine's reply-bytes
/// cache; on every front end the payload is written straight from the
/// cache entry by a vectored write. [`SplicedReply::to_frame_string`]
/// produces the exact line the canonical serializer would have produced.
#[derive(Clone, Debug)]
pub struct SplicedReply {
    id: i64,
    payload: Arc<[u8]>,
}

impl SplicedReply {
    /// Wraps cached payload bytes for the given request id.
    pub(crate) fn new(id: i64, payload: Arc<[u8]>) -> Self {
        SplicedReply { id, payload }
    }

    /// The shared payload bytes (the serialized `{"verdict":…}` document).
    pub(crate) fn payload(&self) -> &Arc<[u8]> {
        &self.payload
    }

    /// Everything before the payload — `{"id":<id>,"kind":…,"payload":` —
    /// as one owned buffer. The reply queue pairs this with a borrowed
    /// payload segment and [`FRAME_TAIL`].
    pub(crate) fn head_bytes(&self) -> Vec<u8> {
        // HEAD + up to 20 id bytes ("-9223372036854775808") + MID.
        let mut head = String::with_capacity(HEAD.len() + 20 + MID.len());
        write_head(self.id, &mut head);
        head.into_bytes()
    }

    /// Materializes the reply as the serialized envelope line (without the
    /// newline terminator), byte-identical to what
    /// [`ResponseEnvelope::ok`](lcl_paths::problem::ResponseEnvelope::ok)
    /// would have printed. For embedders consuming
    /// [`PendingResponse::wait`](crate::PendingResponse::wait) and tests;
    /// the front ends write the pieces directly instead.
    pub fn to_frame_string(&self) -> String {
        let mut out = self.head_bytes();
        out.extend_from_slice(&self.payload);
        out.push(b'}');
        String::from_utf8(out).expect("cached payload is serialized JSON, hence UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_paths::problem::json::JsonValue;
    use lcl_paths::problem::ResponseEnvelope;

    fn payload() -> JsonValue {
        JsonValue::object([(
            "verdict",
            JsonValue::object([
                ("complexity", JsonValue::Str("log-star".to_string())),
                ("problem_name", JsonValue::Str("3-coloring".to_string())),
            ]),
        )])
    }

    fn spliced(id: i64) -> SplicedReply {
        SplicedReply::new(id, payload().to_json_string().into_bytes().into())
    }

    fn canonical(id: i64) -> String {
        ResponseEnvelope::ok(id, "classify", payload()).into_json_string()
    }

    #[test]
    fn spliced_frames_match_the_canonical_serializer_for_extreme_ids() {
        for id in [0, 7, -1, 42, i64::MAX, i64::MIN] {
            assert_eq!(spliced(id).to_frame_string(), canonical(id), "id {id}");
        }
    }

    #[test]
    fn head_payload_tail_segments_concatenate_to_the_wire_frame() {
        let reply = spliced(1234);
        let mut wire = reply.head_bytes();
        wire.extend_from_slice(reply.payload());
        wire.extend_from_slice(FRAME_TAIL);
        assert_eq!(wire, format!("{}\n", canonical(1234)).into_bytes());
    }
}
