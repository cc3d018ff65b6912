//! The stdio front-end: the same NDJSON frames over any reader/writer pair.
//!
//! This is the `lcl-serve --stdio` pipe mode
//! (`echo '{"v":1,…}' | lcl-serve --stdio`), and doubles as the in-memory
//! harness the protocol-robustness tests drive with `io::Cursor`. It drives
//! the connection core (`conn.rs`) lock-step, one frame in flight.

use crate::conn::{FrameDecoder, ReplyQueue};
use crate::frame::MAX_FRAME_BYTES;
use crate::service::{Origin, Service};
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Serves frames from `input` until EOF, writing one terminal response line
/// per frame to `output` — preceded by its intermediate chunk frames for
/// `solve_stream`, flushed whenever the next one is not ready yet, so a
/// pipe consumer sees labeling progress with O(chunk) buffering. Oversized
/// and malformed frames get structured error replies; only I/O errors abort
/// the loop.
///
/// Each frame goes through [`Service::dispatch`] exactly as over TCP — the
/// splice lane, admission, then a pool job — and its reply is
/// written before the next frame is read (lock-step), so the wire bytes and
/// the cache tallies are identical whichever front-end served the workload.
///
/// # Errors
///
/// Propagates read/write failures on the underlying streams.
pub fn serve_stdio(
    service: &Arc<Service>,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    service.metrics().set_backend("stdio");
    let origin = Origin::default();
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut replies = ReplyQueue::new(service.max_chunk_bytes());
    while let Some(frame) = decoder.read_from(&mut input)? {
        replies.push(service.dispatch(frame, &origin));
        replies.drain_to(&mut output)?;
        output.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_paths::problem::json::JsonValue;
    use lcl_paths::problem::{RequestEnvelope, ResponseEnvelope};
    use lcl_paths::{problems, Engine};

    #[test]
    fn stdio_round_trips_frames() {
        let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
        let classify = RequestEnvelope::new(
            1,
            "classify",
            JsonValue::object([("problem", problems::coloring(3).to_spec().to_json())]),
        )
        .to_json_string();
        let input = format!("{classify}\n\n{{\"v\":1,\"id\":2,\"kind\":\"health\"}}\n");
        let mut output = Vec::new();
        serve_stdio(&service, input.as_bytes(), &mut output).unwrap();

        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "blank frame produces no reply");
        let first = ResponseEnvelope::from_json_str(lines[0]).unwrap();
        assert_eq!(first.id, Some(1));
        assert!(first.is_ok());
        let second = ResponseEnvelope::from_json_str(lines[1]).unwrap();
        assert_eq!(second.id, Some(2));
        assert!(second.is_ok());
    }

    #[test]
    fn stdio_spliced_replies_match_fresh_serialization() {
        let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
        let classify = |id: i64| {
            RequestEnvelope::new(
                id,
                "classify",
                JsonValue::object([("problem", problems::coloring(3).to_spec().to_json())]),
            )
            .to_json_string()
        };
        // Frame 1 is the cold miss, frame 2 attaches the reply bytes, frame
        // 3 is a pure bytes hit — all three must print identically modulo
        // the id.
        let input = format!("{}\n{}\n{}\n", classify(1), classify(2), classify(3));
        let mut output = Vec::new();
        serve_stdio(&service, input.as_bytes(), &mut output).unwrap();

        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1].replace("\"id\":2", "\"id\":1"),
            lines[0],
            "spliced reply must differ from the fresh one only in the id"
        );
        assert_eq!(lines[2].replace("\"id\":3", "\"id\":1"), lines[0]);
        assert_eq!(service.metrics().spliced_frames(), 2);
        assert_eq!(service.engine().cache_stats().bytes_hits, 1);
        assert_eq!(service.engine().cache_stats().bytes_misses, 1);
    }
}
