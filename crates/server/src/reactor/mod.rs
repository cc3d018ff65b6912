//! The TCP connection backend: one `epoll`-driven event loop serving every
//! connection on a **fixed thread budget** — the reactor thread plus the
//! engine's worker pool — whatever the connection count.
//!
//! Framing and reply bytes come from the connection core shared with stdio
//! (`conn.rs`), so the protocol (`docs/PROTOCOL.md` v1.1) is identical:
//! per-connection in-order replies, id echo, the exact `max_inflight`
//! window, structured errors for malformed and oversized frames, and
//! backpressure by *not reading* from a connection whose window is full.
//!
//! * **One event loop** ([`Reactor::run`]) owns the listener, every
//!   connection socket (all nonblocking) and an [`EventFd`] waker, parked in
//!   `epoll_wait` when nothing is ready.
//! * **Per-connection state** ([`Conn`]) is the socket, its epoll interest
//!   and the connection core's two halves (`conn.rs`): the frame decoder
//!   holding a partial frame, and the reply queue holding the in-order
//!   [`PendingResponse`](crate::PendingResponse)s, their unwritten bytes and
//!   the in-flight count (a slot is taken when a frame is dispatched and
//!   released when its reply's bytes have been fully written). Reads are
//!   nonblocking `read`s, writes one `writev` per flush iteration.
//! * **Completion signaling**: each connection's [`Origin`] carries a
//!   notify hook, built once at accept,
//!   that every pool job it dispatches runs
//!   ([`lcl_paths::Engine::submit_notify`]) to mark the connection dirty
//!   and signal the eventfd once a frame is observable, so the reactor
//!   wakes, resolves the connection's queue head and writes. Ready replies
//!   (spliced hits, `classify` misses the inline lane finished within its
//!   work slice, sheds, oversized rejections) need no wakeup: they are
//!   resolved in the same pump that dispatched them. The inline lane is
//!   the only classification work the reactor thread does, and its work
//!   meter bounds it (`Service::dispatch`); it never waits on another
//!   thread.
//! * **Interest toggling** drives backpressure both ways: read interest is
//!   dropped while the window is full (the peer's frames pend in kernel
//!   buffers as plain TCP flow control), write interest is raised only
//!   while serialized reply bytes could not be written without blocking. A
//!   socket with no interest at all is deregistered entirely, which also
//!   keeps `EPOLLHUP`-spamming dead peers from busy-looping the reactor.

mod poll;
mod sys;

use crate::conn::{FrameDecoder, ReplyQueue};
use crate::frame::MAX_FRAME_BYTES;
use crate::service::{Origin, Service};
use poll::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLOUT, EVENT_BATCH};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the control eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Bytes read from a ready socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Shared control state between a running reactor, its `ServerHandle` and
/// the worker pool's completion hooks: the shutdown flag, the eventfd that
/// wakes the event loop, and the dirty list of connections whose jobs
/// completed since the last wakeup.
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

    /// Requests shutdown and wakes the event loop through the eventfd, so
    /// shutdown never depends on the listen address being connectable.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    /// Whether shutdown has been requested.
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The eventfd the event loop registers for wakeups.
    fn waker(&self) -> &EventFd {
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
                    let conn = Conn::new(
                        stream,
                        origin,
                        self.max_inflight,
                        self.service.max_chunk_bytes(),
                    );
                    self.conns.insert(token, conn);
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
        let fd = conn.stream.as_raw_fd();
        let rearmed = !conn.finished()
            && match (conn.desired_interest(), conn.registered) {
                // Nothing to wait for on the socket (window full and output
                // drained): deregister entirely so a half-dead peer's
                // EPOLLHUP cannot busy-loop the reactor; job completions
                // re-arm us.
                (0, true) => {
                    let _ = self.epoll.delete(fd);
                    conn.registered = false;
                    true
                }
                (0, false) => true,
                (desired, false) => {
                    conn.interest = desired;
                    conn.registered = self.epoll.add(fd, desired, token).is_ok();
                    conn.registered
                }
                (desired, true) if desired != conn.interest => {
                    conn.interest = desired;
                    self.epoll.modify(fd, desired, token).is_ok()
                }
                _ => true,
            };
        if !rearmed {
            // Finished, or the epoll bookkeeping failed (fd pressure) and
            // the connection could never be woken again: close it now.
            if conn.registered {
                let _ = self.epoll.delete(fd);
            }
            self.conns.remove(&token);
            self.service.metrics().connection_closed();
        }
    }
}

/// One connection: the socket, its epoll interest, and the connection
/// core's two halves, which hold everything else — the partial-frame
/// buffer, the in-order reply queue with its unwritten bytes, and the
/// in-flight count.
struct Conn {
    stream: TcpStream,
    window: usize,
    /// The peer's IP (for per-client quotas) and the completion hook that
    /// marks this connection dirty, passed with every dispatched frame.
    origin: Origin,
    decoder: FrameDecoder,
    replies: ReplyQueue,
    /// Unrecoverable socket error; finish immediately.
    dead: bool,
    /// Interest mask currently registered with the epoll instance.
    interest: u32,
    /// Whether the fd is currently in the epoll set at all.
    registered: bool,
}

impl Conn {
    fn new(stream: TcpStream, origin: Origin, window: usize, max_chunk_bytes: usize) -> Conn {
        Conn {
            stream,
            window,
            origin,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            replies: ReplyQueue::new(max_chunk_bytes),
            dead: false,
            interest: EPOLLIN,
            registered: true,
        }
    }

    /// Runs read → decode/dispatch → poll replies → write until no stage
    /// can make progress. Stages feed each other in both directions
    /// (writing releases window slots, which unblocks dispatching), hence
    /// the fixpoint loop. A still-computing head reply stops the poll; its
    /// completion hook pumps us again.
    fn pump(&mut self, service: &Arc<Service>) {
        loop {
            let mut progressed = self.fill();
            while self.replies.in_flight() < self.window {
                let Some(frame) = self.decoder.next_frame() else {
                    break;
                };
                self.replies.push(service.dispatch(frame, &self.origin));
                progressed = true;
            }
            progressed |= self.replies.poll();
            progressed |= self.flush(service);
            if !progressed || self.dead {
                break;
            }
        }
    }

    /// The connection is over: a socket error, or EOF with every frame
    /// decoded and every reply written.
    fn finished(&self) -> bool {
        self.dead || (self.decoder.is_done() && self.replies.in_flight() == 0)
    }

    /// The epoll interest this connection currently needs: readable while
    /// the window has room, writable while reply bytes are stuck.
    fn desired_interest(&self) -> u32 {
        let mut mask = 0;
        if !self.decoder.at_eof() && self.replies.in_flight() < self.window {
            mask |= EPOLLIN;
        }
        if self.replies.has_output() {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Reads from the socket while the window accepts dispatches **and**
    /// the decoder holds at most one maximum frame. Not reading on a full
    /// window is the backpressure contract: the peer's frames pend in
    /// kernel buffers as ordinary TCP flow control. Past `MAX_FRAME_BYTES`
    /// buffered, the decoder is guaranteed a complete frame or an
    /// oversized rejection, so further bytes can stay in the kernel.
    fn fill(&mut self) -> bool {
        if self.decoder.at_eof() || self.dead || self.replies.in_flight() >= self.window {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK];
        while self.decoder.buffered() <= MAX_FRAME_BYTES {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.decoder.finish();
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.feed(&chunk[..n]);
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

    /// Writes reply bytes until the socket would block, one vectored write
    /// (`writev`) per iteration: a burst of ready replies, or the three
    /// pieces of a spliced reply, leaves in a single syscall.
    fn flush(&mut self, service: &Arc<Service>) -> bool {
        let mut progressed = false;
        while self.replies.has_output() && !self.dead {
            match self.replies.write_to(&mut &self.stream) {
                Ok(()) => {
                    service.metrics().record_writev_batch();
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        progressed
    }
}
