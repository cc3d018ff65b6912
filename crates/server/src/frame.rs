//! The NDJSON frame contract: [`Frame`] and its [`MAX_FRAME_BYTES`] bound.
//!
//! One frame is one `\n`-terminated line. The connection core's decoder
//! (`conn.rs`) is the only code that splits bytes into frames, for every
//! front end: an oversized line is consumed and discarded up to its
//! newline, so the connection stays usable and the offender gets a
//! structured error reply instead of unbounded buffering or a dropped
//! stream. Every [`Frame`] goes to
//! [`Service::dispatch`](crate::Service::dispatch).

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
