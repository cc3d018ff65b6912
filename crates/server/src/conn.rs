//! The sans-IO connection core: bytes in, ordered reply bytes out, with no
//! socket and no thread. Every front end drives its two halves, so the wire
//! bytes are the same on all of them by construction:
//!
//! * [`FrameDecoder`] — bytes in, [`Frame`]s out. It owns the framing
//!   contract: the [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES) limit,
//!   oversized-line discard with its `started`/`discarded` accounting,
//!   blank-line skipping, lossy UTF-8 and a final unterminated line at EOF.
//! * [`ReplyQueue`] — [`PendingResponse`]s in, strictly in order, byte
//!   segments out: owned chunk and final lines, and for a spliced reply its
//!   head, the cache's shared payload and [`FRAME_TAIL`]. It caps the
//!   unwritten backlog, counts replies in flight until their last byte is
//!   written (the reactor's window slots) and stamps each trace's write
//!   stage once the reply's bytes have left.

use crate::frame::Frame;
use crate::service::{PendingResponse, StreamFrame};
use crate::splice::FRAME_TAIL;
use crate::trace::Trace;
use std::collections::VecDeque;
use std::io::{self, BufRead, IoSlice, Write};
use std::sync::Arc;
use std::time::Instant;

/// Splits a byte stream into [`Frame`]s.
///
/// [`FrameDecoder::feed`] appends bytes, [`FrameDecoder::finish`] marks the
/// end of the stream and [`FrameDecoder::next_frame`] takes complete frames
/// out. How the bytes were chunked never changes the frames.
pub(crate) struct FrameDecoder {
    max: usize,
    buf: Vec<u8>,
    /// Start of the unconsumed region of `buf`; `feed` compacts it away.
    consumed: usize,
    /// `buf[consumed..scanned]` holds no newline.
    scanned: usize,
    /// Mid-discard of an oversized line: when the overflow was detected and
    /// how many bytes the line has had so far.
    overflow: Option<(Instant, usize)>,
    eof: bool,
}

impl FrameDecoder {
    /// A decoder for frames of at most `max` bytes.
    pub(crate) fn new(max: usize) -> FrameDecoder {
        FrameDecoder {
            max,
            buf: Vec::new(),
            consumed: 0,
            scanned: 0,
            overflow: None,
            eof: false,
        }
    }

    /// Appends bytes read off the stream.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.scanned -= self.consumed;
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Marks the end of the stream: a final unterminated line (or the
    /// oversized line it cut off) becomes the last frame.
    pub(crate) fn finish(&mut self) {
        self.eof = true;
    }

    /// Whether [`FrameDecoder::finish`] was called.
    pub(crate) fn at_eof(&self) -> bool {
        self.eof
    }

    /// The end of the stream was seen and every frame taken out.
    pub(crate) fn is_done(&self) -> bool {
        self.eof && self.buffered() == 0 && self.overflow.is_none()
    }

    /// Bytes fed but not yet consumed as frames.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// The next complete frame, skipping blank lines; `None` until more
    /// bytes (or the end of the stream) arrive.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        loop {
            let end = self.buf.len();
            let newline = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|pos| self.scanned + pos);
            if let Some((started, discarded)) = self.overflow {
                let to = newline.unwrap_or(end);
                let discarded = discarded + to - self.consumed;
                if newline.is_none() && !self.eof {
                    self.overflow = Some((started, discarded));
                    self.consume_to(end);
                    return None;
                }
                self.overflow = None;
                self.consume_to(newline.map_or(end, |pos| pos + 1));
                return Some(Frame::Oversized { discarded, started });
            }
            let line_end = match newline {
                Some(pos) => pos,
                None if end - self.consumed > self.max || (self.eof && self.consumed < end) => end,
                None => {
                    self.scanned = end;
                    return None;
                }
            };
            if line_end - self.consumed > self.max {
                // Over the limit: discard up to the newline (or EOF), in
                // the branch above.
                self.overflow = Some((Instant::now(), 0));
                continue;
            }
            // Invalid UTF-8 is replaced: the JSON parser then rejects the
            // frame with a structured error instead of the connection dying.
            let line = String::from_utf8(self.buf[self.consumed..line_end].to_vec())
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            self.consume_to(newline.map_or(end, |pos| pos + 1));
            if !line.trim().is_empty() {
                return Some(Frame::Line(line));
            }
        }
    }

    /// Blocking drive for stdio: the next frame from `reader`, `None` at the
    /// end of the stream.
    pub(crate) fn read_from(&mut self, reader: &mut impl BufRead) -> io::Result<Option<Frame>> {
        while !self.eof {
            if let Some(frame) = self.next_frame() {
                return Ok(Some(frame));
            }
            match reader.fill_buf() {
                Ok([]) => self.finish(),
                Ok(bytes) => {
                    let n = bytes.len();
                    self.feed(bytes);
                    reader.consume(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.next_frame())
    }

    fn consume_to(&mut self, to: usize) {
        self.consumed = to;
        self.scanned = to;
    }
}

/// Most segments gathered into one vectored write: consecutive ready
/// replies leave in a single syscall, and 16 segments comfortably cover a
/// burst of five spliced replies.
const WRITE_BATCH: usize = 16;

/// One piece of pending output. An owned segment *moves* the job's
/// serialized `String` (no copy), a shared one *borrows* the engine's
/// cached reply payload, a static one is a constant tail.
enum OutSeg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
    Static(&'static [u8]),
}

impl OutSeg {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutSeg::Owned(bytes) => bytes,
            OutSeg::Shared(bytes) => bytes,
            OutSeg::Static(bytes) => bytes,
        }
    }
}

struct Segment {
    bytes: OutSeg,
    /// Set on a reply's last segment: writing it completes the reply, which
    /// releases its window slot and stamps `trace`.
    ends_reply: bool,
    trace: Option<Arc<Trace>>,
}

/// A connection's in-order replies and their unwritten bytes.
///
/// [`ReplyQueue::push`] in dispatch order; [`ReplyQueue::poll`] turns the
/// head reply's frames into segments; [`ReplyQueue::write_to`] writes them
/// ([`ReplyQueue::drain_to`] does both on a blocking writer). A reply counts
/// as in flight from its push until its last byte has been written.
pub(crate) struct ReplyQueue {
    replies: VecDeque<PendingResponse>,
    out: VecDeque<Segment>,
    /// Bytes of the front segment already written.
    front_written: usize,
    /// Total unwritten bytes in `out`.
    unwritten: usize,
    in_flight: usize,
    /// Stop pulling frames while more than this is unwritten: two chunk
    /// ceilings. A slow peer then stalls the queue, the stream's bounded
    /// frame channel fills and the producing worker parks, instead of a
    /// million-node stream buffering here.
    backlog_cap: usize,
}

impl ReplyQueue {
    /// An empty queue for `solve_stream` chunks of at most
    /// `max_chunk_bytes`.
    pub(crate) fn new(max_chunk_bytes: usize) -> ReplyQueue {
        ReplyQueue {
            replies: VecDeque::new(),
            out: VecDeque::new(),
            front_written: 0,
            unwritten: 0,
            in_flight: 0,
            backlog_cap: 2 * max_chunk_bytes,
        }
    }

    /// Appends the next reply in request order.
    pub(crate) fn push(&mut self, reply: PendingResponse) {
        self.replies.push_back(reply);
        self.in_flight += 1;
    }

    /// Replies pushed whose bytes have not all been written.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether there are bytes to write.
    pub(crate) fn has_output(&self) -> bool {
        self.unwritten > 0
    }

    /// Takes every frame already available from the head of the queue
    /// without blocking, while the backlog is under its cap; whether any
    /// was taken. A still-running head stops the poll: replies leave in
    /// request order.
    pub(crate) fn poll(&mut self) -> bool {
        let mut progressed = false;
        while self.unwritten <= self.backlog_cap {
            let Some(frame) = self
                .replies
                .front_mut()
                .and_then(PendingResponse::try_frame)
            else {
                break;
            };
            self.enqueue(frame);
            progressed = true;
        }
        progressed
    }

    /// Issues one vectored write of up to [`WRITE_BATCH`] segments; each
    /// reply it completes leaves [`ReplyQueue::in_flight`] (the reactor's
    /// window slot is released).
    ///
    /// # Errors
    ///
    /// The writer's error (`WouldBlock` on a full nonblocking socket), or
    /// `WriteZero` when it accepted nothing.
    pub(crate) fn write_to(&mut self, writer: &mut impl Write) -> io::Result<()> {
        let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
        let mut count = 0;
        for (slice, segment) in slices.iter_mut().zip(&self.out) {
            let skip = if count == 0 { self.front_written } else { 0 };
            *slice = IoSlice::new(&segment.bytes.as_slice()[skip..]);
            count += 1;
        }
        match writer.write_vectored(&slices[..count])? {
            0 => Err(io::ErrorKind::WriteZero.into()),
            written => {
                self.advance(written);
                Ok(())
            }
        }
    }

    /// Blocking drive for stdio: writes every pushed reply in full, waiting
    /// on still-running heads. The writer is flushed before each wait, so
    /// bytes already written never sit in a buffer behind a slow job.
    pub(crate) fn drain_to(&mut self, writer: &mut impl Write) -> io::Result<()> {
        while self.in_flight > 0 {
            self.poll();
            if !self.has_output() {
                // The head is still running (nothing is written unless
                // something is in flight): block on its next frame.
                writer.flush()?;
                let head = self.replies.front_mut().expect("a reply is pending");
                let frame = head.wait_frame();
                self.enqueue(frame);
                continue;
            }
            match self.write_to(writer) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Queues a frame's bytes; a terminal frame retires the head reply onto
    /// its last segment.
    fn enqueue(&mut self, frame: StreamFrame) {
        let terminal = !matches!(frame, StreamFrame::Chunk(_));
        match frame {
            StreamFrame::Chunk(text) | StreamFrame::Final(text) => {
                let mut line = text.into_bytes();
                line.push(b'\n');
                self.push_segment(OutSeg::Owned(line));
            }
            StreamFrame::Spliced(spliced) => {
                self.push_segment(OutSeg::Owned(spliced.head_bytes()));
                self.push_segment(OutSeg::Shared(Arc::clone(spliced.payload())));
                self.push_segment(OutSeg::Static(FRAME_TAIL));
            }
        }
        if terminal {
            let trace = self.replies.pop_front().and_then(|mut r| r.trace.take());
            let last = self.out.back_mut().expect("a terminal frame is not empty");
            (last.ends_reply, last.trace) = (true, trace);
        }
    }

    fn push_segment(&mut self, bytes: OutSeg) {
        let len = bytes.as_slice().len();
        if len > 0 {
            // An empty segment would stall the write loop.
            self.unwritten += len;
            self.out.push_back(Segment {
                bytes,
                ends_reply: false,
                trace: None,
            });
        }
    }

    /// Accounts `n` written bytes: pops fully written segments, completing
    /// the replies they end.
    fn advance(&mut self, mut n: usize) {
        self.unwritten -= n;
        while let Some(front) = self.out.front() {
            let remaining = front.bytes.as_slice().len() - self.front_written;
            if n < remaining {
                self.front_written += n;
                break;
            }
            n -= remaining;
            self.front_written = 0;
            let segment = self.out.pop_front().expect("front checked");
            if let Some(trace) = segment.trace {
                trace.finish_written();
            }
            if segment.ends_reply {
                self.in_flight -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame the decoder yields for `input` fed in `chunks`, then the
    /// end of the stream.
    fn decode(chunks: &[&[u8]], max: usize) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new(max);
        let mut frames = Vec::new();
        for chunk in chunks {
            decoder.feed(chunk);
            frames.extend(std::iter::from_fn(|| decoder.next_frame()));
        }
        decoder.finish();
        frames.extend(std::iter::from_fn(|| decoder.next_frame()));
        assert!(decoder.is_done(), "the decoder drains at EOF");
        frames
    }

    /// Comparable form of a frame: the oversized timestamp is dropped.
    fn shape(frame: &Frame) -> (Option<&str>, usize) {
        match frame {
            Frame::Line(line) => (Some(line), 0),
            Frame::Oversized { discarded, .. } => (None, *discarded),
        }
    }

    /// Decodes `input` whole, byte-at-a-time and at every two-chunk split
    /// point; every feeding must yield the same frames, which are returned.
    fn frames(input: &[u8], max: usize) -> Vec<Frame> {
        let whole = decode(&[input], max);
        let expected: Vec<_> = whole.iter().map(shape).collect();
        let bytes: Vec<&[u8]> = input.chunks(1).collect();
        let got = decode(&bytes, max);
        assert_eq!(
            got.iter().map(shape).collect::<Vec<_>>(),
            expected,
            "byte-at-a-time"
        );
        for split in 0..=input.len() {
            let (a, b) = input.split_at(split);
            let got = decode(&[a, b], max);
            assert_eq!(
                got.iter().map(shape).collect::<Vec<_>>(),
                expected,
                "split at {split}"
            );
        }
        whole
    }

    fn line(text: &str) -> Frame {
        Frame::Line(text.into())
    }

    #[test]
    fn splits_lines_and_reports_eof() {
        let got = frames(b"one\n\n \ntwo\n", 100);
        assert_eq!(got, vec![line("one"), line("two")], "blank lines skipped");
    }

    #[test]
    fn final_unterminated_line_is_returned() {
        assert_eq!(
            frames(b"tail-no-newline", 100),
            vec![line("tail-no-newline")]
        );
        assert_eq!(frames(b"a\n  ", 100), vec![line("a")], "blank tail skipped");
    }

    #[test]
    fn oversized_line_is_discarded_but_stream_continues() {
        let mut input = vec![b'a'; 50];
        input.extend_from_slice(b"\nok\n");
        let got = frames(&input, 10);
        assert!(
            matches!(got[0], Frame::Oversized { discarded: 50, .. }),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1..], [line("ok")]);
    }

    #[test]
    fn oversized_line_at_eof_is_reported() {
        let got = frames(&[b'x'; 40], 10);
        assert!(
            matches!(got[..], [Frame::Oversized { discarded: 40, .. }]),
            "{got:?}"
        );
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        match &frames(b"\xff\xfe{\n", 100)[..] {
            [Frame::Line(line)] => assert!(line.contains('{')),
            other => panic!("expected one line, got {other:?}"),
        }
    }

    #[test]
    fn exact_max_is_allowed() {
        let mut input = vec![b'a'; 10];
        input.push(b'\n');
        input.extend_from_slice(&[b'b'; 11]);
        let got = frames(&input, 10);
        assert_eq!(got[0], line(&"a".repeat(10)));
        assert!(
            matches!(got[1], Frame::Oversized { discarded: 11, .. }),
            "one byte over the limit is oversized: {:?}",
            got[1]
        );
    }

    /// A writer that takes at most three bytes per call, so short writes
    /// cross every segment boundary.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_complete_each_reply_once_in_order() {
        use crate::service::{Origin, Service};
        use lcl_paths::problem::{json::JsonValue, RequestEnvelope};
        use lcl_paths::{problems, Engine};

        let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
        let origin = Origin::default();
        let classify = |id: i64| {
            let problem = problems::coloring(3).to_spec().to_json();
            let payload = JsonValue::object([("problem", problem)]);
            Frame::Line(RequestEnvelope::new(id, "classify", payload).to_json_string())
        };
        // Warm the reply-bytes cache so a classify comes back spliced.
        service.dispatch(classify(1), &origin).wait();
        service.dispatch(classify(2), &origin).wait();
        let frames = || {
            [
                Frame::Oversized {
                    discarded: 7,
                    started: Instant::now(),
                },
                classify(3),
                Frame::Line("{".into()),
            ]
        };
        let mut expected = Vec::new();
        for frame in frames() {
            expected.extend_from_slice(service.dispatch(frame, &origin).wait().as_bytes());
            expected.push(b'\n');
        }

        let spliced_before = service.metrics().spliced_frames();
        let mut replies = ReplyQueue::new(service.max_chunk_bytes());
        for frame in frames() {
            replies.push(service.dispatch(frame, &origin));
        }
        assert_eq!(service.metrics().spliced_frames(), spliced_before + 1);
        assert_eq!(replies.in_flight(), 3);
        let mut wire = Trickle(Vec::new());
        let mut released = Vec::new();
        while replies.in_flight() > 0 {
            replies.poll();
            if !replies.has_output() {
                std::thread::yield_now(); // the malformed frame's pool job
                continue;
            }
            let before = replies.in_flight();
            replies
                .write_to(&mut wire)
                .expect("a Vec accepts every write");
            released.push(before - replies.in_flight());
        }
        assert_eq!(
            wire.0, expected,
            "the same bytes as the materialized replies"
        );
        assert!(released.iter().all(|&n| n <= 1), "{released:?}");
        assert_eq!(released.iter().sum::<usize>(), 3);
        assert_eq!(replies.in_flight(), 0);
        assert!(!replies.has_output());
    }
}
