//! Bounded NDJSON frame reading and writing.
//!
//! The thread backend's connection reader and the stdio loop read frames
//! through [`read_frame`] (the reactor scans its own buffer the same way),
//! which enforces [`MAX_FRAME_BYTES`]: an oversized line is consumed (and
//! discarded) up to its terminating newline, so the connection stays usable
//! and the offender gets a structured error reply instead of unbounded
//! buffering or a dropped stream. Every [`Frame`] goes to
//! [`Service::dispatch`](crate::Service::dispatch). Responses leave through
//! [`write_frame`], which appends the newline terminator but deliberately
//! does **not** flush — the TCP writer thread batches several pipelined
//! replies per flush, while the stdio loop flushes after every frame.

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Hard bound on the length of one NDJSON frame (request line), in bytes.
/// Frames beyond this are rejected with a `protocol` error reply but do not
/// terminate the connection.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One frame read off a connection, as handed to
/// [`Service::dispatch`](crate::Service::dispatch).
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without its newline). Invalid UTF-8 is replaced
    /// lossily — the JSON parser then rejects the frame with a structured
    /// error rather than the reader killing the connection.
    Line(String),
    /// The line exceeded the limit; it was consumed and dropped.
    Oversized {
        /// How many bytes the peer sent in the rejected frame (lower bound
        /// if the stream ended mid-frame).
        discarded: usize,
        /// When the overflow was detected — draining the rest of a multi-MB
        /// frame can take real time, and accounting it from this instant
        /// (rather than from after the drain) keeps the `invalid` latency
        /// histogram honest.
        started: Instant,
    },
}

/// Reads the next `\n`-terminated frame of at most `max` bytes, skipping
/// blank lines (they get no reply); `None` at a clean end of stream.
///
/// A final unterminated line at EOF is returned as a normal line (pipes often
/// omit the trailing newline). I/O errors abort the read.
pub(crate) fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Option<Frame>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed: Option<Instant> = None;
    let mut discarded = 0usize;
    loop {
        let (done, used, eof) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                (true, 0, true)
            } else if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                if overflowed.is_some() {
                    discarded += pos;
                } else if buf.len() + pos > max {
                    overflowed = Some(Instant::now());
                    discarded = buf.len() + pos;
                } else {
                    buf.extend_from_slice(&available[..pos]);
                }
                (true, pos + 1, false)
            } else {
                if overflowed.is_some() {
                    discarded += available.len();
                } else if buf.len() + available.len() > max {
                    overflowed = Some(Instant::now());
                    discarded = buf.len() + available.len();
                    buf.clear();
                } else {
                    buf.extend_from_slice(available);
                }
                (false, available.len(), false)
            }
        };
        reader.consume(used);
        if done {
            if let Some(started) = overflowed {
                return Ok(Some(Frame::Oversized { discarded, started }));
            }
            if eof && buf.is_empty() {
                return Ok(None);
            }
            let line = into_string(std::mem::take(&mut buf));
            if !line.trim().is_empty() {
                return Ok(Some(Frame::Line(line)));
            }
        }
    }
}

/// Bytes to text, replacing invalid UTF-8 lossily — the JSON parser then
/// rejects the frame with a structured error rather than the reader killing
/// the connection. Shared with the reactor's frame scanner.
pub(crate) fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Writes one response frame (`line` must not contain a newline) and its
/// `\n` terminator. Flushing is the caller's policy.
pub(crate) fn write_frame(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Every frame up to and including the end-of-stream `None`.
    fn frames(input: &[u8], max: usize) -> Vec<Option<Frame>> {
        let mut reader = BufReader::with_capacity(7, input); // tiny buffer: force refills
        let mut out = Vec::new();
        loop {
            let frame = read_frame(&mut reader, max).unwrap();
            let eof = frame.is_none();
            out.push(frame);
            if eof {
                return out;
            }
        }
    }

    fn line(text: &str) -> Option<Frame> {
        Some(Frame::Line(text.into()))
    }

    #[test]
    fn splits_lines_and_reports_eof() {
        let got = frames(b"one\n\n \ntwo\n", 100);
        assert_eq!(
            got,
            vec![line("one"), line("two"), None],
            "blank lines skipped"
        );
    }

    #[test]
    fn final_unterminated_line_is_returned() {
        let got = frames(b"tail-no-newline", 100);
        assert_eq!(got[0], line("tail-no-newline"));
        assert_eq!(got[1], None);
    }

    #[test]
    fn oversized_line_is_discarded_but_stream_continues() {
        let mut input = vec![b'a'; 50];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = frames(&input, 10);
        assert!(
            matches!(got[0], Some(Frame::Oversized { discarded: 50, .. })),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1], line("ok"));
        assert_eq!(got[2], None);
    }

    #[test]
    fn oversized_line_at_eof_is_reported() {
        let got = frames(&[b'x'; 40], 10);
        assert!(
            matches!(got[0], Some(Frame::Oversized { discarded: 40, .. })),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1], None);
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let got = frames(b"\xff\xfe{\n", 100);
        match &got[0] {
            Some(Frame::Line(line)) => assert!(line.contains('{')),
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn exact_max_is_allowed() {
        let mut input = vec![b'a'; 10];
        input.push(b'\n');
        let got = frames(&input, 10);
        assert_eq!(got[0], line(&"a".repeat(10)));
    }
}
