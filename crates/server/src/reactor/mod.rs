//! The readiness-based connection backend: one `epoll`-driven event loop
//! serving every TCP connection on a **fixed thread budget** — the reactor
//! thread plus the engine's worker pool — instead of the portable thread
//! backend's two OS threads per connection.
//!
//! The protocol contract is byte-identical to the thread backend
//! (`docs/PROTOCOL.md` v1.1): per-connection in-order replies, id echo, the
//! exact `max_inflight` window, structured errors for malformed and
//! oversized frames, and backpressure by *not reading* from a connection
//! whose window is full. What changes is purely the execution shape:
//!
//! * **One event loop** ([`Reactor::run`]) owns the listener, every
//!   connection socket (all nonblocking) and an [`EventFd`] waker, parked in
//!   `epoll_wait` when nothing is ready.
//! * **Per-connection state machines** ([`Conn`]) carry what the thread
//!   backend kept in stack frames: a partial-frame read buffer, the in-order
//!   queue of [`PendingResponse`]s, the serialized-but-unwritten output bytes,
//!   and the in-flight window accounting (a slot is taken when a frame is
//!   dispatched and released when its reply's bytes have been fully written
//!   to the socket).
//! * **Completion signaling** replaces the parked writer thread: each
//!   connection's [`Origin`] carries a notify hook, built once at accept,
//!   that every pool job it dispatches runs
//!   ([`lcl_paths::Engine::dispatch_notify`]) to mark the connection dirty
//!   and signal the eventfd once a frame is observable, so the reactor
//!   wakes, resolves the connection's queue head and writes. Ready replies
//!   (spliced hits, sheds, oversized rejections) need no wakeup: they are
//!   resolved in the same pump that dispatched them.
//! * **Interest toggling** drives backpressure both ways: read interest is
//!   dropped while the window is full (the peer's frames pend in kernel
//!   buffers as plain TCP flow control), write interest is raised only
//!   while serialized reply bytes could not be written without blocking. A
//!   socket with no interest at all is deregistered entirely, which also
//!   keeps `EPOLLHUP`-spamming dead peers from busy-looping the reactor.
//!
//! The module is Linux-only (`epoll`); `crate::tcp` keeps the
//! thread-per-connection code as the portable fallback and picks the
//! default per platform ([`crate::Backend`]).

mod poll;
mod sys;

pub(crate) use poll::EventFd;

use crate::frame::{into_string, Frame, MAX_FRAME_BYTES};
use crate::service::{Origin, PendingResponse, Service, StreamFrame};
use crate::splice::FRAME_TAIL;
use crate::trace::Trace;
use poll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT, EVENT_BATCH};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sys::IoVec;

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the control eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Bytes read from a ready socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Most output segments gathered into one `writev` call: consecutive ready
/// replies coalesce into a single syscall per flush iteration, and 16
/// segments comfortably cover a burst of five spliced replies.
const WRITEV_BATCH: usize = 16;

/// Shared control state between a running backend, its `ServerHandle` and
/// the worker pool's completion hooks: the shutdown flag, the eventfd that
/// wakes the event loop (or the thread backend's accept wait), and the
/// dirty list of connections whose jobs completed since the last wakeup.
#[derive(Debug)]
pub(crate) struct Control {
    shutdown: AtomicBool,
    wake: EventFd,
    dirty: Mutex<Vec<u64>>,
}

impl Control {
    /// Creates the control block (allocates the eventfd).
    pub(crate) fn new() -> io::Result<Arc<Control>> {
        Ok(Arc::new(Control {
            shutdown: AtomicBool::new(false),
            wake: EventFd::new()?,
            dirty: Mutex::new(Vec::new()),
        }))
    }

    /// Requests shutdown and wakes whatever loop is parked on the eventfd.
    /// This is what replaced the old "dial your own listen address" hack:
    /// shutdown no longer depends on the listen address being connectable.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    /// Whether shutdown has been requested.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The eventfd loops register for wakeups.
    pub(crate) fn waker(&self) -> &EventFd {
        &self.wake
    }

    /// Called from a worker's completion hook: records that `token` has a
    /// finished job and wakes the reactor.
    fn mark_dirty(&self, token: u64) {
        self.dirty
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(token);
        self.wake.signal();
    }

    /// Moves the accumulated dirty tokens into `into` (deduplication is the
    /// caller's concern).
    fn take_dirty(&self, into: &mut Vec<u64>) {
        into.append(
            &mut self
                .dirty
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
    }
}

/// The thread backend's accept-side wait on Linux: an epoll set holding
/// just the listener and the control eventfd, so a blocked accept loop can
/// be woken by [`Control::trigger_shutdown`] instead of by dialing its own
/// listen address.
pub(crate) struct AcceptPoll {
    epoll: Epoll,
}

impl AcceptPoll {
    /// Registers the listener and the control waker.
    pub(crate) fn new(listener: &TcpListener, control: &Control) -> io::Result<AcceptPoll> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(control.waker().raw(), EPOLLIN, TOKEN_WAKER)?;
        Ok(AcceptPoll { epoll })
    }

    /// Parks until the listener is ready or the control eventfd fires (the
    /// eventfd is deliberately never drained here: once shutdown signals it,
    /// every later wait returns immediately and the loop observes the flag).
    pub(crate) fn wait(&mut self) {
        let mut buf = [EpollEvent::default(); EVENT_BATCH];
        let _ = self.epoll.wait(&mut buf, -1);
    }
}

/// The readiness event loop: listener + waker + every connection, one
/// thread. Construct with [`Reactor::new`] (which registers the static fds,
/// so setup failures surface before any thread is spawned), then
/// [`Reactor::run`] until shutdown.
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    service: Arc<Service>,
    control: Arc<Control>,
    max_inflight: usize,
    max_conns: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Accepting is paused after a hard accept failure: the listener is out
    /// of the epoll set until the next wakeup re-arms it.
    listener_paused: bool,
}

impl Reactor {
    /// Sets up the epoll instance: nonblocking listener and the control
    /// eventfd registered, no connections yet.
    pub(crate) fn new(
        listener: TcpListener,
        service: Arc<Service>,
        control: Arc<Control>,
        max_inflight: usize,
        max_conns: usize,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(control.waker().raw(), EPOLLIN, TOKEN_WAKER)?;
        Ok(Reactor {
            epoll,
            listener,
            service,
            control,
            max_inflight: max_inflight.max(1),
            max_conns,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            listener_paused: false,
        })
    }

    /// Runs the event loop until [`Control::trigger_shutdown`]; on exit every
    /// open connection is closed and deregistered from the metrics gauges.
    ///
    /// # Errors
    ///
    /// A failed `epoll_wait` is fatal — there is nothing left to serve with;
    /// the error is returned after the cleanup so the caller can report it
    /// (the foreground `lcl-serve --addr` path exits nonzero on it).
    pub(crate) fn run(mut self) -> io::Result<()> {
        let outcome = self.serve();
        for _ in self.conns.drain() {
            self.service.metrics().connection_closed();
        }
        outcome
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut buf = [EpollEvent::default(); EVENT_BATCH];
        let mut touched: Vec<u64> = Vec::new();
        loop {
            // While accepting is paused (see `accept_ready`), poll on a
            // short interval so the listener gets re-armed even if no other
            // event ever fires.
            let timeout_ms = if self.listener_paused { 50 } else { -1 };
            let ready = self.epoll.wait(&mut buf, timeout_ms)?;
            self.service.metrics().reactor_wakeup();
            if self.control.shutdown_requested() {
                return Ok(());
            }
            touched.clear();
            let mut accept_ready = false;
            let mut woken = false;
            for event in ready {
                match event.data {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => woken = true,
                    token => touched.push(token),
                }
            }
            if woken {
                self.control.waker().drain();
                let before = touched.len();
                self.control.take_dirty(&mut touched);
                self.service
                    .metrics()
                    .reactor_completions((touched.len() - before) as u64);
            }
            if self.listener_paused
                && self
                    .epoll
                    .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                    .is_ok()
            {
                self.listener_paused = false;
                accept_ready = true; // readiness may have been missed while paused
            }
            if accept_ready {
                self.accept_ready();
            }
            // A connection can appear several times (socket event + several
            // completed jobs); pumping is idempotent but not free.
            touched.sort_unstable();
            touched.dedup();
            for &token in &touched {
                self.pump(token);
            }
        }
    }

    /// Accepts until the listener would block, registering each connection
    /// with read interest (or closing it straight away past `max_conns`).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.max_conns {
                        // Reject-with-close: the cap bounds fd usage, and a
                        // closed socket is an unambiguous signal the client
                        // can retry on.
                        self.service.metrics().connection_rejected();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // One small response frame per request: Nagle would
                    // stall pipelined round-trips against delayed ACKs.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
                        continue; // fd pressure; drop the connection
                    }
                    self.service.metrics().connection_opened();
                    let peer = stream.peer_addr().ok().map(|addr| addr.ip());
                    let control = Arc::clone(&self.control);
                    let origin = Origin::new(peer).with_notify(move || control.mark_dirty(token));
                    self.conns
                        .insert(token, Conn::new(stream, origin, self.max_inflight));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard accept failure (fd exhaustion, aborted
                    // handshake). The level-triggered listener would
                    // re-report readiness on every wait; sleeping here would
                    // stall every open connection, so pause accepting
                    // instead — drop the listener's registration and let the
                    // short-timeout poll in `serve` re-arm it.
                    if self.epoll.delete(self.listener.as_raw_fd()).is_ok() {
                        self.listener_paused = true;
                    } else {
                        // Could not even deregister: last-resort backoff so
                        // the loop cannot spin hot.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    break;
                }
            }
        }
    }

    /// Runs one connection's state machine to quiescence, then closes it or
    /// re-arms its epoll interest.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // completion notice for an already-closed connection
        };
        conn.pump(&self.service);
        if conn.finished() {
            if conn.registered {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
            }
            self.conns.remove(&token);
            self.service.metrics().connection_closed();
            return;
        }
        let desired = conn.desired_interest();
        let rearmed = if desired == 0 {
            // Nothing to wait for on the socket (window full and output
            // drained): deregister entirely so a half-dead peer's EPOLLHUP
            // cannot busy-loop the reactor; job completions re-arm us.
            if conn.registered {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
                conn.registered = false;
            }
            true
        } else if !conn.registered {
            conn.registered = self
                .epoll
                .add(conn.stream.as_raw_fd(), desired, token)
                .is_ok();
            conn.interest = desired;
            conn.registered
        } else if desired != conn.interest {
            conn.interest = desired;
            self.epoll
                .modify(conn.stream.as_raw_fd(), desired, token)
                .is_ok()
        } else {
            true
        };
        if !rearmed {
            // Epoll bookkeeping failed (fd pressure): the connection can
            // never be woken again, so close it now rather than leak it.
            self.conns.remove(&token);
            self.service.metrics().connection_closed();
        }
    }
}

/// One piece of a connection's pending output. Replies are enqueued as
/// segments instead of being copied into one flat buffer: an owned segment
/// *moves* the job's serialized `String` (no copy, no per-frame
/// reallocation), a shared segment *borrows* the engine's cached reply
/// payload (a spliced reply never copies its bytes at all), and the flush
/// gathers up to [`WRITEV_BATCH`] segments into one vectored write.
enum OutSeg {
    /// An owned serialized frame (the dispatch job's `String`, moved in).
    Owned(Vec<u8>),
    /// Payload bytes shared with the engine's reply-bytes cache.
    Shared(Arc<[u8]>),
    /// A constant piece (the spliced frame's `}` + newline tail).
    Static(&'static [u8]),
}

impl OutSeg {
    fn as_bytes(&self) -> &[u8] {
        match self {
            OutSeg::Owned(bytes) => bytes,
            OutSeg::Shared(bytes) => bytes,
            OutSeg::Static(bytes) => bytes,
        }
    }
}

/// One connection's complete state: everything the thread backend kept in
/// two blocked threads' stacks, as data.
struct Conn {
    stream: TcpStream,
    window: usize,
    /// The peer's IP (for per-client quotas) and the completion hook that
    /// marks this connection dirty, passed with every dispatched frame.
    origin: Origin,
    /// Bytes read off the socket, not yet consumed as frames.
    read_buf: Vec<u8>,
    /// Start of the unconsumed region in `read_buf`; frames are consumed by
    /// advancing this cursor, and `parse` compacts the buffer once per call.
    consumed: usize,
    /// Scan position: `read_buf[consumed..scanned]` holds no newline.
    scanned: usize,
    /// Mid-discard of an oversized frame (no newline seen yet).
    overflowed: bool,
    /// When the in-progress overflow was detected, so the rejection
    /// accounts the full discard drain into the `invalid` histogram
    /// (mirrors `frame::read_frame`'s `Frame::Oversized::started`).
    overflow_started: Option<Instant>,
    /// Bytes discarded so far from the oversized frame.
    discarded: usize,
    /// Peer half-closed its write side; drain the window, then finish.
    eof: bool,
    /// Unrecoverable socket error; finish immediately.
    dead: bool,
    /// In-order reply queue: one entry per dispatched frame.
    pending: VecDeque<PendingResponse>,
    /// Window slots taken: frames dispatched whose replies are not yet
    /// fully written to the socket. Always `<= window`.
    inflight: usize,
    /// Serialized replies awaiting (or mid-) write, as ordered segments.
    /// Fully-written segments are popped; the front segment may be
    /// partially written (`seg_written`).
    out: VecDeque<OutSeg>,
    /// Total bytes ever enqueued on `out` (a cumulative stream offset).
    out_enqueued: u64,
    /// Total bytes ever written to the socket; `out_enqueued - out_written`
    /// is the unflushed backlog.
    out_written: u64,
    /// Bytes of the front segment already written (mid-segment progress of
    /// a short write).
    seg_written: usize,
    /// Cumulative end offset of each queued reply, in order; crossing one
    /// while writing releases a window slot and stamps that reply's trace
    /// write stage (the bytes actually entered the socket).
    reply_ends: VecDeque<(u64, Option<Arc<Trace>>)>,
    /// Interest mask currently registered with the epoll instance.
    interest: u32,
    /// Whether the fd is currently in the epoll set at all.
    registered: bool,
}

impl Conn {
    fn new(stream: TcpStream, origin: Origin, window: usize) -> Conn {
        Conn {
            stream,
            window,
            origin,
            read_buf: Vec::new(),
            consumed: 0,
            scanned: 0,
            overflowed: false,
            overflow_started: None,
            discarded: 0,
            eof: false,
            dead: false,
            pending: VecDeque::new(),
            inflight: 0,
            out: VecDeque::new(),
            out_enqueued: 0,
            out_written: 0,
            seg_written: 0,
            reply_ends: VecDeque::new(),
            interest: EPOLLIN,
            registered: true,
        }
    }

    /// Runs read → parse/dispatch → resolve → write until no stage can make
    /// progress. Stages feed each other in both directions (writing releases
    /// window slots, which unblocks parsing), hence the fixpoint loop.
    fn pump(&mut self, service: &Arc<Service>) {
        loop {
            let mut progressed = self.fill();
            progressed |= self.parse(service);
            progressed |= self.resolve(service);
            progressed |= self.flush(service);
            if !progressed || self.dead {
                break;
            }
        }
    }

    /// The connection is over: a socket error, or EOF with every reply
    /// written and every buffered byte consumed.
    fn finished(&self) -> bool {
        self.dead
            || (self.eof
                && self.pending.is_empty()
                && self.out_written == self.out_enqueued
                && self.read_buf.is_empty()
                && !self.overflowed)
    }

    /// The epoll interest this connection currently needs: readable while
    /// the window has room, writable while serialized output is stuck.
    fn desired_interest(&self) -> u32 {
        let mut mask = 0;
        if !self.eof && self.inflight < self.window {
            mask |= EPOLLIN;
        }
        if self.out_written < self.out_enqueued {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Reads from the socket while the window accepts dispatches **and**
    /// the buffer is below its cap. Not reading on a full window is the
    /// backpressure contract: the peer's frames pend in kernel buffers as
    /// ordinary TCP flow control. The buffer cap (one maximum frame plus a
    /// read chunk) keeps a flooding client from growing `read_buf` past
    /// what the parser can consume — anything buffered beyond
    /// `MAX_FRAME_BYTES` already guarantees the parser a complete frame or
    /// an oversized rejection, so further bytes can stay in the kernel.
    fn fill(&mut self) -> bool {
        if self.eof || self.dead || self.inflight >= self.window {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK];
        while self.read_buf.len() <= MAX_FRAME_BYTES {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() {
                        break; // socket very likely drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Consumes complete frames from `read_buf` — dispatching each with this
    /// connection's [`Origin`] — while window slots are available. Mirrors
    /// `frame::read_frame` exactly: blank lines are skipped without a reply,
    /// over-limit lines are discarded up to their newline and answered with
    /// a structured rejection, a final unterminated line at EOF counts as a
    /// frame.
    ///
    /// Frames are consumed by advancing the `consumed` cursor; the buffer
    /// is compacted **once** per call, so a burst of N buffered frames
    /// costs O(buffer) rather than O(N × buffer) in byte moves.
    fn parse(&mut self, service: &Arc<Service>) -> bool {
        let mut progressed = false;
        while self.inflight < self.window && !self.dead {
            if self.overflowed {
                match find_newline(&self.read_buf, self.consumed) {
                    Some(pos) => {
                        self.discarded += pos - self.consumed;
                        self.consume_to(pos + 1);
                        self.finish_overflow(service);
                        progressed = true;
                    }
                    None => {
                        self.discarded += self.read_buf.len() - self.consumed;
                        self.consume_to(self.read_buf.len());
                        if !self.eof {
                            break; // need more bytes (or the close)
                        }
                        self.finish_overflow(service);
                        progressed = true;
                    }
                }
                continue;
            }
            match find_newline(&self.read_buf, self.scanned.max(self.consumed)) {
                Some(pos) if pos - self.consumed > MAX_FRAME_BYTES => {
                    // The whole line arrived before the limit check could
                    // interrupt it; reject it exactly like a streamed one.
                    self.overflow_started = Some(Instant::now());
                    self.discarded = pos - self.consumed;
                    self.consume_to(pos + 1);
                    self.finish_overflow(service);
                    progressed = true;
                }
                Some(pos) => {
                    let line = into_string(self.read_buf[self.consumed..pos].to_vec());
                    self.consume_to(pos + 1);
                    if !line.trim().is_empty() {
                        self.dispatch(Frame::Line(line), service);
                    }
                    progressed = true;
                }
                None if self.read_buf.len() - self.consumed > MAX_FRAME_BYTES => {
                    self.overflowed = true;
                    self.overflow_started = Some(Instant::now());
                    self.discarded = self.read_buf.len() - self.consumed;
                    self.consume_to(self.read_buf.len());
                    progressed = true;
                }
                None if self.eof && self.consumed < self.read_buf.len() => {
                    // Final unterminated line (pipes often omit the newline).
                    let line = into_string(self.read_buf[self.consumed..].to_vec());
                    self.consume_to(self.read_buf.len());
                    if !line.trim().is_empty() {
                        self.dispatch(Frame::Line(line), service);
                    }
                    progressed = true;
                }
                None => {
                    self.scanned = self.read_buf.len();
                    break;
                }
            }
        }
        // One compaction per call: drop the consumed prefix.
        if self.consumed > 0 {
            self.read_buf.drain(..self.consumed);
            self.scanned = self.scanned.saturating_sub(self.consumed);
            self.consumed = 0;
        }
        progressed
    }

    /// Advances the consumed cursor to `to` and resets the newline-scan
    /// position (everything before `to` is spoken for).
    fn consume_to(&mut self, to: usize) {
        self.consumed = to;
        self.scanned = to;
    }

    /// Dispatches one frame, taking a window slot until its reply is
    /// written.
    fn dispatch(&mut self, frame: Frame, service: &Arc<Service>) {
        self.pending
            .push_back(service.dispatch(frame, &self.origin));
        self.inflight += 1;
    }

    /// Dispatches the discarded oversized frame for its structured
    /// rejection.
    fn finish_overflow(&mut self, service: &Arc<Service>) {
        let started = self.overflow_started.take().unwrap_or_else(Instant::now);
        let discarded = std::mem::take(&mut self.discarded);
        self.overflowed = false;
        self.dispatch(Frame::Oversized { discarded, started }, service);
    }

    /// Moves completed replies — strictly from the queue head, which is the
    /// in-order guarantee — into the output buffer. Stops at the first
    /// still-computing job; its completion hook will pump us again.
    ///
    /// A head may be a *stream*: it yields chunk frames before its
    /// terminal envelope. Chunks are appended without marking a reply end —
    /// the window slot stays taken until the terminal frame — and the drain
    /// is bounded by the output backlog: once two chunk ceilings' worth of
    /// bytes sit unwritten, no further frames are pulled until the socket
    /// drains (EPOLLOUT re-pumps). The producer then blocks on its bounded
    /// frame channel; that chain — socket full → backlog capped → channel
    /// full → worker parked — is how a slow peer backpressures a
    /// million-node stream instead of it buffering here.
    fn resolve(&mut self, service: &Arc<Service>) -> bool {
        let backlog_cap = 2 * service.max_chunk_bytes() as u64;
        let mut progressed = false;
        while let Some(front) = self.pending.front_mut() {
            if self.out_enqueued - self.out_written > backlog_cap {
                break; // let the socket drain before pulling more
            }
            let Some(frame) = front.try_frame() else {
                break;
            };
            // A serialized frame *moves* into the output queue (the job's
            // `String` allocation becomes the segment — no copy); a spliced
            // reply contributes its head, the cache's shared payload bytes
            // and the constant tail as three segments, copying nothing.
            let terminal = match frame {
                StreamFrame::Chunk(line) => {
                    let mut bytes = line.into_bytes();
                    bytes.push(b'\n');
                    self.enqueue(OutSeg::Owned(bytes));
                    false
                }
                StreamFrame::Final(line) => {
                    let mut bytes = line.into_bytes();
                    bytes.push(b'\n');
                    self.enqueue(OutSeg::Owned(bytes));
                    true
                }
                StreamFrame::Spliced(spliced) => {
                    self.enqueue(OutSeg::Owned(spliced.head_bytes()));
                    self.enqueue(OutSeg::Shared(Arc::clone(spliced.payload())));
                    self.enqueue(OutSeg::Static(FRAME_TAIL));
                    true
                }
            };
            if terminal {
                let trace = self.pending.pop_front().and_then(|mut p| p.take_trace());
                self.reply_ends.push_back((self.out_enqueued, trace));
            }
            progressed = true;
        }
        progressed
    }

    /// Appends one output segment, advancing the cumulative enqueued
    /// offset.
    fn enqueue(&mut self, seg: OutSeg) {
        let len = seg.as_bytes().len();
        if len == 0 {
            return; // an empty segment would stall the flush loop
        }
        self.out_enqueued += len as u64;
        self.out.push_back(seg);
    }

    /// Writes queued output segments until the socket would block, gathering
    /// up to [`WRITEV_BATCH`] segments into one vectored write per
    /// iteration — a burst of ready replies (or the three pieces of a
    /// spliced reply) leaves in a single syscall — and releasing the window
    /// slot of every reply whose bytes fully left the queue.
    fn flush(&mut self, service: &Arc<Service>) -> bool {
        let mut progressed = false;
        while self.out_written < self.out_enqueued && !self.dead {
            let mut iov = [IoVec::empty(); WRITEV_BATCH];
            let mut segs = 0;
            for seg in self.out.iter().take(WRITEV_BATCH) {
                // Only the front segment can be partially written.
                let skip = if segs == 0 { self.seg_written } else { 0 };
                iov[segs] = IoVec::from_bytes(&seg.as_bytes()[skip..]);
                segs += 1;
            }
            let wrote = sys::sys_writev(self.stream.as_raw_fd(), &iov[..segs]);
            if wrote < 0 {
                match io::Error::last_os_error().kind() {
                    io::ErrorKind::WouldBlock => break,
                    io::ErrorKind::Interrupted => continue,
                    _ => self.dead = true,
                }
            } else if wrote == 0 {
                self.dead = true;
            } else {
                service.metrics().record_writev_batch();
                self.advance_written(wrote as usize);
                progressed = true;
            }
        }
        while self
            .reply_ends
            .front()
            .is_some_and(|&(end, _)| end <= self.out_written)
        {
            let (_, trace) = self.reply_ends.pop_front().expect("checked front");
            if let Some(trace) = trace {
                trace.finish_written();
            }
            self.inflight -= 1;
            progressed = true; // a freed slot can unblock parsing
        }
        progressed
    }

    /// Accounts `n` bytes written: pops fully-written segments (releasing
    /// owned buffers and shared payload references) and records the front
    /// segment's partial progress.
    fn advance_written(&mut self, mut n: usize) {
        self.out_written += n as u64;
        while n > 0 {
            let front_len = self
                .out
                .front()
                .expect("written bytes come from queued segments")
                .as_bytes()
                .len();
            let remaining = front_len - self.seg_written;
            if n >= remaining {
                n -= remaining;
                self.seg_written = 0;
                self.out.pop_front();
            } else {
                self.seg_written += n;
                n = 0;
            }
        }
    }
}

/// First newline at or after `from`.
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .iter()
        .position(|&b| b == b'\n')
        .map(|pos| from + pos)
}
