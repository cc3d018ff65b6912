//! The TCP front-end: a listener with two interchangeable connection
//! backends and graceful shutdown. Both drive the same connection core
//! (`conn.rs`: one frame decoder, one ordered reply queue), so they emit
//! the same bytes.
//!
//! * [`Backend::Reactor`] (Linux, the default there) — a single
//!   epoll-driven event loop serves **every** connection on a fixed thread
//!   budget: one reactor thread plus the engine's worker pool, whatever the
//!   connection count (see `reactor/mod.rs`).
//! * [`Backend::Threads`] (portable fallback) — each accepted socket gets a
//!   **reader** thread (decodes frames and dispatches each into the worker
//!   pool immediately) and a **writer** thread (drains the reply queue in
//!   request order). Neither holds a lock across a blocking read or write.
//!   Two OS threads per connection: fine for hundreds of sockets, the
//!   reason the reactor exists for thousands.
//!
//! Both backends implement the `docs/PROTOCOL.md` v1.1 contract: every
//! frame produces one reply, replies arrive in request order per
//! connection, at most [`Server::max_inflight`] requests per connection are
//! dispatched-but-unwritten at once (a full window stops the reads — plain
//! TCP backpressure), and [`Server::max_conns`] bounds how many connections
//! are served at all (the excess is closed at accept).
//!
//! [`ServerHandle::shutdown`] stops the accept loop **via an eventfd
//! wakeup** — not by dialing its own listen address, so shutdown works even
//! when the listener's address is not connectable from here — then unblocks
//! every open connection and joins all threads before returning.

use crate::conn::{FrameDecoder, ReplyQueue};
use crate::frame::MAX_FRAME_BYTES;
use crate::service::{Origin, PendingResponse, Service};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::reactor::{Control, Reactor};

/// Default bound on a connection's pipelined in-flight window (requests
/// dispatched but not yet written back), tunable per server with
/// [`Server::max_inflight`] / `lcl-serve --max-inflight`.
pub const DEFAULT_MAX_INFLIGHT: usize = 32;

/// Environment variable consulted by [`Backend::from_env_or_platform`] (and
/// therefore by [`Server::bind`]'s default): set it to `reactor` or
/// `threads` to pick the connection backend without touching code — this is
/// how CI runs the server test suites once per backend.
pub const BACKEND_ENV_VAR: &str = "LCL_SERVER_BACKEND";

/// How a server multiplexes its connections onto OS threads. The wire
/// protocol is identical either way; see the module docs for the trade-off.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Backend {
    /// One epoll event loop for all connections (Linux only). Thread budget:
    /// 1 reactor thread + the worker pool, independent of connection count.
    Reactor,
    /// Two threads (reader + writer) per connection. Portable, but caps the
    /// practical connection count at hundreds.
    Threads,
}

impl Backend {
    /// The stable name used by `--backend` and [`BACKEND_ENV_VAR`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reactor => "reactor",
            Backend::Threads => "threads",
        }
    }

    /// Parses a [`Backend::name`].
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "reactor" => Some(Backend::Reactor),
            "threads" => Some(Backend::Threads),
            _ => None,
        }
    }

    /// Whether this backend can run on the current platform.
    pub fn available(self) -> bool {
        match self {
            Backend::Reactor => cfg!(target_os = "linux"),
            Backend::Threads => true,
        }
    }

    /// The platform default: the reactor where epoll exists (Linux), the
    /// thread backend everywhere else.
    pub fn platform_default() -> Backend {
        if Backend::Reactor.available() {
            Backend::Reactor
        } else {
            Backend::Threads
        }
    }

    /// The backend [`BACKEND_ENV_VAR`] names, [`Backend::platform_default`]
    /// when it is unset. A named backend this platform lacks falls back to
    /// the thread backend at start.
    ///
    /// # Errors
    ///
    /// `InvalidInput` naming the value when it is not a backend name, so a
    /// typo cannot silently run the other backend.
    pub fn from_env_or_platform() -> io::Result<Backend> {
        let Ok(name) = std::env::var(BACKEND_ENV_VAR) else {
            return Ok(Backend::platform_default());
        };
        Backend::from_name(name.trim()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{BACKEND_ENV_VAR}={name:?} is not a backend (expected reactor or threads)"
                ),
            )
        })
    }

    /// This backend when available on the current platform, the portable
    /// thread backend otherwise.
    fn resolve(self) -> Backend {
        if self.available() {
            self
        } else {
            Backend::Threads
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The portable stand-in for [`crate::reactor::Control`] on platforms
/// without eventfd: the shutdown flag alone. The nonblocking accept loop
/// polls it on a short interval instead of being woken.
#[cfg(not(target_os = "linux"))]
#[derive(Debug)]
pub(crate) struct Control {
    shutdown: std::sync::atomic::AtomicBool,
}

#[cfg(not(target_os = "linux"))]
impl Control {
    pub(crate) fn new() -> io::Result<Arc<Control>> {
        Ok(Arc::new(Control {
            shutdown: std::sync::atomic::AtomicBool::new(false),
        }))
    }

    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Bookkeeping of the thread backend: open-connection registry (so shutdown
/// can unblock parked readers) and handler join handles.
#[derive(Debug, Default)]
struct ServerState {
    /// Clones of every open connection's stream, so shutdown can unblock
    /// readers; handlers deregister themselves on exit (keyed by a
    /// connection sequence number).
    connections: Mutex<HashMap<u64, TcpStream>>,
    connection_seq: AtomicU64,
    handlers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// *This server's* open-connection count, the `max_conns` basis — the
    /// `ServerMetrics` gauge would conflate several servers sharing one
    /// `Service` (the reactor likewise counts only its own connections).
    open: AtomicU64,
}

/// A bound TCP server, not yet accepting connections.
///
/// Bind to port `0` for an ephemeral loopback port (tests, benches, the
/// `--smoke` mode); then either [`Server::start`] a background accept loop
/// with a graceful-shutdown handle, or [`Server::run`] it on the calling
/// thread (the `lcl-serve --addr` path).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    max_inflight: usize,
    max_conns: usize,
    backend: Backend,
}

impl Server {
    /// Binds the listener. The pipelined in-flight window defaults to
    /// [`DEFAULT_MAX_INFLIGHT`], the connection count is unbounded
    /// ([`Server::max_conns`]) and the backend defaults to
    /// [`Backend::from_env_or_platform`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` when [`BACKEND_ENV_VAR`] names no backend; otherwise
    /// the bind failure (address in use, permission, …).
    pub fn bind(service: Arc<Service>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let backend = Backend::from_env_or_platform()?;
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            max_conns: usize::MAX,
            backend,
        })
    }

    /// Sets the per-connection in-flight window: how many requests one
    /// connection may have dispatched (queued or computing on the pool, or
    /// awaiting their turn at the writer) before its reads stop. Clamped to
    /// at least 1; `1` degenerates to lock-step dispatch. Applies to
    /// connections accepted after the call.
    pub fn max_inflight(mut self, window: usize) -> Server {
        self.max_inflight = window.max(1);
        self
    }

    /// Caps how many connections are served simultaneously: a connection
    /// accepted past the cap is closed immediately (reject-with-close) and
    /// counted under `server.connections.rejected` in the `stats` reply.
    /// This bounds the server's fd usage — and, on the thread backend, its
    /// thread usage — under connection floods. Clamped to at least 1.
    pub fn max_conns(mut self, cap: usize) -> Server {
        self.max_conns = cap.max(1);
        self
    }

    /// Selects the connection backend. [`Backend::Reactor`] on a platform
    /// without epoll falls back to [`Backend::Threads`] at start.
    pub fn backend(mut self, backend: Backend) -> Server {
        self.backend = backend;
        self
    }

    /// The actually bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the serving loop (reactor, or thread-backend accept loop) on a
    /// background thread and returns the handle used for graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn, socket-name and (reactor) epoll/eventfd
    /// setup failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let control = Control::new()?;
        let name = format!("lcl-server-{}", self.backend.resolve());
        let (serve, thread_state) = self.prepare(&control)?;
        let main = thread::Builder::new().name(name).spawn(move || {
            // A mid-service epoll failure is fatal and cannot be surfaced
            // through the handle; at least say so.
            if let Err(e) = serve() {
                eprintln!("lcl-server: serving loop failed: {e}");
            }
        })?;
        Ok(ServerHandle {
            addr,
            control,
            main: Some(main),
            thread_state,
        })
    }

    /// Runs the serving loop on the calling thread; returns only on a fatal
    /// setup error (this is the foreground `lcl-serve --addr` mode, ended by
    /// killing the process).
    ///
    /// # Errors
    ///
    /// Propagates listener-setup and (reactor) epoll/eventfd failures.
    pub fn run(self) -> io::Result<()> {
        let control = Control::new()?;
        let (serve, _) = self.prepare(&control)?;
        serve()
    }

    /// Sets up the backend's serving loop without running it, so setup
    /// failures surface to the caller instead of producing a server that
    /// looks started but serves nothing. The thread backend also returns
    /// the connection registry shutdown unblocks.
    fn prepare(self, control: &Arc<Control>) -> io::Result<(ServeLoop, Option<Arc<ServerState>>)> {
        let backend = self.backend.resolve();
        self.service.metrics().set_backend(backend.name());
        #[cfg(target_os = "linux")]
        if backend == Backend::Reactor {
            let reactor = Reactor::new(
                self.listener,
                self.service,
                Arc::clone(control),
                self.max_inflight,
                self.max_conns,
            )?;
            return Ok((Box::new(move || reactor.run()), None));
        }
        // Nonblocking accepts + an explicit wait let shutdown interrupt the
        // loop without the old trick of dialing the listen address.
        self.listener.set_nonblocking(true)?;
        let state = Arc::<ServerState>::default();
        let (loop_state, control) = (Arc::clone(&state), Arc::clone(control));
        let serve = move || {
            accept_loop(
                self.listener,
                self.service,
                loop_state,
                control,
                self.max_inflight,
                self.max_conns,
            );
            Ok(())
        };
        Ok((Box::new(serve), Some(state)))
    }
}

/// A backend's serving loop, ready to run on whichever thread serves.
type ServeLoop = Box<dyn FnOnce() -> io::Result<()> + Send>;

/// Handle to a server started with [`Server::start`]: exposes the bound
/// address and performs graceful shutdown (on [`ServerHandle::shutdown`] or
/// drop).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<Control>,
    main: Option<thread::JoinHandle<()>>,
    /// Thread backend only: the open-connection registry to unblock.
    thread_state: Option<Arc<ServerState>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully shuts the server down: stops accepting, unblocks and joins
    /// every connection handler, joins the serving thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(main) = self.main.take() else {
            return;
        };
        // Sets the flag and wakes the loop through the eventfd (Linux) or
        // the accept poll interval (elsewhere) — never by connecting to the
        // listen address.
        self.control.trigger_shutdown();
        // Thread backend: unblock handlers parked in read().
        if let Some(state) = &self.thread_state {
            for (_, stream) in state.connections.lock().expect("connections lock").drain() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let _ = main.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// The thread-backend accept loop's wait until the listener is ready (or a
/// shutdown wakeup arrives). On Linux this is an epoll wait on the listener
/// and the control eventfd; elsewhere (or if that setup fails) it degrades
/// to a short sleep, which bounds both accept latency and shutdown latency
/// at the poll interval.
fn accept_waiter(listener: &TcpListener, control: &Control) -> Box<dyn FnMut()> {
    #[cfg(target_os = "linux")]
    if let Ok(mut poll) = crate::reactor::AcceptPoll::new(listener, control) {
        return Box::new(move || poll.wait());
    }
    let _ = (listener, control);
    Box::new(|| thread::sleep(Duration::from_millis(10)))
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<Service>,
    state: Arc<ServerState>,
    control: Arc<Control>,
    max_inflight: usize,
    max_conns: usize,
) {
    // The caller already flipped the listener nonblocking; accepts plus an
    // explicit wait let shutdown interrupt the loop without the old trick
    // of dialing the listen address.
    let mut wait = accept_waiter(&listener, &control);
    loop {
        if control.shutdown_requested() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait();
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failures (fd exhaustion, aborted
                // handshakes) must not busy-spin the loop at 100% CPU.
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if state.open.load(Ordering::Relaxed) >= max_conns as u64 {
            service.metrics().connection_rejected();
            drop(stream); // reject-with-close
            continue;
        }
        // The accepted socket must block again: the reader/writer threads
        // park on it by design.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // One small response frame per request: Nagle would stall every
        // round-trip against delayed ACKs.
        let _ = stream.set_nodelay(true);
        let id = state.connection_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            state
                .connections
                .lock()
                .expect("connections lock")
                .insert(id, clone);
        }
        // Shutdown may have raced us between accept() and the registration
        // above — it set the flag, then drained a registry we were not in
        // yet. Re-checking after registering closes that window: if the flag
        // is set now, the drain either already closed our entry or never
        // will, so close the socket ourselves and stop.
        if control.shutdown_requested() {
            if let Some(conn) = state
                .connections
                .lock()
                .expect("connections lock")
                .remove(&id)
            {
                let _ = conn.shutdown(Shutdown::Both);
            }
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        service.metrics().connection_opened();
        state.open.fetch_add(1, Ordering::Relaxed);
        let conn_service = Arc::clone(&service);
        let conn_state = Arc::clone(&state);
        let spawned = thread::Builder::new()
            .name(format!("lcl-server-conn-{id}"))
            .spawn(move || {
                handle_connection(stream, &conn_service, id, max_inflight);
                // Deregister so the registry does not grow (and hold fds)
                // for the server's whole lifetime.
                conn_state
                    .connections
                    .lock()
                    .expect("connections lock")
                    .remove(&id);
                conn_state.open.fetch_sub(1, Ordering::Relaxed);
                conn_service.metrics().connection_closed();
            });
        let mut handlers = state.handlers.lock().expect("handlers lock");
        match spawned {
            Ok(handle) => handlers.push(handle),
            Err(_) => {
                state.open.fetch_sub(1, Ordering::Relaxed);
                service.metrics().connection_closed();
            }
        }
        // Reap finished handlers so the list stays bounded by the number of
        // concurrently open connections.
        let mut live = Vec::with_capacity(handlers.len());
        for handle in handlers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        *handlers = live;
    }
    let handlers: Vec<_> = state
        .handlers
        .lock()
        .expect("handlers lock")
        .drain(..)
        .collect();
    for handle in handlers {
        let _ = handle.join();
    }
}

/// The exact per-connection in-flight accounting: one slot per request that
/// has been dispatched and not yet *written* back. The reader acquires
/// before dispatching, the writer releases after writing, so at no instant
/// do more than `capacity` requests of one connection exist anywhere in the
/// pipeline — which is precisely the `--max-inflight` contract in
/// `docs/PROTOCOL.md`, and what makes `--max-inflight 1` genuine lock-step.
struct InflightWindow {
    used: Mutex<WindowState>,
    changed: Condvar,
    capacity: usize,
}

struct WindowState {
    used: usize,
    /// Set by the writer on exit so a reader parked in `acquire` wakes up
    /// instead of waiting on slots that will never be released.
    closed: bool,
}

impl InflightWindow {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(InflightWindow {
            used: Mutex::new(WindowState {
                used: 0,
                closed: false,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowState> {
        self.used
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until a slot is free and takes it; `false` once the window is
    /// closed (the writer is gone, so the connection is over).
    fn acquire(&self) -> bool {
        let mut state = self.lock();
        while state.used >= self.capacity && !state.closed {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if state.closed {
            return false;
        }
        state.used += 1;
        true
    }

    /// Returns `slots` slots (their replies were written back).
    fn release(&self, slots: usize) {
        self.lock().used -= slots;
        self.changed.notify_one();
    }

    /// Wakes any parked reader permanently; slots stop mattering.
    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }
}

/// Serves one connection, pipelined: this thread decodes frames and
/// dispatches each into the worker pool, a paired writer thread drains the
/// replies through the connection core's [`ReplyQueue`] in request order,
/// and an [`InflightWindow`] bounds how many requests are
/// dispatched-but-unwritten — when the window is full the reader stops
/// pulling frames, which backpressures the peer through TCP. Oversized and
/// malformed frames get structured error replies and do NOT close the
/// connection; the stream ends on EOF or an I/O error, after the window
/// drains.
fn handle_connection(stream: TcpStream, service: &Arc<Service>, id: u64, max_inflight: usize) {
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let origin = Origin::new(stream.peer_addr().ok().map(|addr| addr.ip()));
    let window = InflightWindow::new(max_inflight);
    let (ordered_tx, ordered_rx) = mpsc::channel::<PendingResponse>();
    let writer_window = Arc::clone(&window);
    let max_chunk_bytes = service.max_chunk_bytes();
    let Ok(writer) = thread::Builder::new()
        .name(format!("lcl-server-conn-{id}-writer"))
        .spawn(move || write_loop(&writer_stream, &ordered_rx, &writer_window, max_chunk_bytes))
    else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    // Take a window slot BEFORE dispatching, so the bound holds exactly;
    // `acquire` blocks while the window is full (that is the backpressure),
    // wakes as the writer drains it, gives up when the writer died. The
    // queue itself is unbounded (the window is the bound) and only
    // disconnects when the writer died; then the read side ends too.
    while let Ok(Some(frame)) = decoder.read_from(&mut reader) {
        if !window.acquire() || ordered_tx.send(service.dispatch(frame, &origin)).is_err() {
            break;
        }
    }
    // Closing the queue lets the writer drain the remaining window and exit;
    // join it so the connection's registry entry outlives all its I/O.
    drop(ordered_tx);
    let _ = writer.join();
}

/// The writer half of a pipelined connection: moves every reply already
/// dispatched into the [`ReplyQueue`] and drains it to the socket, which
/// gathers ready replies into vectored writes and releases each reply's
/// window slot once its bytes are written. A streaming request occupies
/// exactly one slot end to end. On exit (peer gone, or the reader closed
/// the queue) the window closes, so a reader parked on it wakes and stops.
fn write_loop(
    mut stream: &TcpStream,
    ordered_rx: &mpsc::Receiver<PendingResponse>,
    window: &InflightWindow,
    max_chunk_bytes: usize,
) {
    let mut replies = ReplyQueue::new(max_chunk_bytes);
    while let Ok(reply) = ordered_rx.recv() {
        replies.push(reply);
        ordered_rx.try_iter().for_each(|reply| replies.push(reply));
        if replies
            .drain_to(&mut stream, |released| window.release(released))
            .is_err()
        {
            break;
        }
    }
    window.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip_and_platform_default_is_available() {
        for backend in [Backend::Reactor, Backend::Threads] {
            assert_eq!(Backend::from_name(backend.name()), Some(backend));
            assert_eq!(backend.to_string(), backend.name());
        }
        assert_eq!(Backend::from_name("neither"), None);
        assert!(Backend::platform_default().available());
        assert!(Backend::Threads.resolve().available());
        assert!(Backend::Reactor.resolve().available());
        #[cfg(target_os = "linux")]
        assert_eq!(Backend::platform_default(), Backend::Reactor);
    }
}
