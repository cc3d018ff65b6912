//! The TCP front-end: a listener served by the epoll reactor
//! (`reactor/mod.rs`) — one event-loop thread plus the engine's worker
//! pool, whatever the connection count — with graceful shutdown. It drives
//! the same connection core as stdio (`conn.rs`: one frame decoder, one
//! ordered reply queue), so both emit the same bytes.
//!
//! The server implements the `docs/PROTOCOL.md` v1.1 contract: every frame
//! produces one reply, replies arrive in request order per connection, at
//! most [`Server::max_inflight`] requests per connection are
//! dispatched-but-unwritten at once (a full window stops the reads — plain
//! TCP backpressure), and [`Server::max_conns`] bounds how many connections
//! are served at all (the excess is closed at accept).
//!
//! [`ServerHandle::shutdown`] stops the event loop **via an eventfd
//! wakeup** — not by dialing its own listen address, so shutdown works even
//! when the listener's address is not connectable from here — then closes
//! every open connection and joins the serving thread before returning.

use crate::reactor::{Control, Reactor};
use crate::service::Service;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread;

/// Default bound on a connection's pipelined in-flight window (requests
/// dispatched but not yet written back), tunable per server with
/// [`Server::max_inflight`] / `lcl-serve --max-inflight`.
pub const DEFAULT_MAX_INFLIGHT: usize = 32;

/// How a server multiplexes its connections onto OS threads. The epoll
/// reactor is the only backend; the enum and [`Server::backend`] remain for
/// source compatibility with callers that name it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Backend {
    /// One epoll event loop for all connections. Thread budget: 1 reactor
    /// thread + the worker pool, independent of connection count.
    Reactor,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reactor")
    }
}

/// A bound TCP server, not yet accepting connections.
///
/// Bind to port `0` for an ephemeral loopback port (tests, benches, the
/// `--smoke` mode); then either [`Server::start`] the event loop on a
/// background thread with a graceful-shutdown handle, or [`Server::run`] it
/// on the calling thread (the `lcl-serve --addr` path).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    max_inflight: usize,
    max_conns: usize,
}

impl Server {
    /// Binds the listener. The pipelined in-flight window defaults to
    /// [`DEFAULT_MAX_INFLIGHT`] and the connection count is unbounded
    /// ([`Server::max_conns`]).
    ///
    /// # Errors
    ///
    /// The bind failure (address in use, permission, …).
    pub fn bind(service: Arc<Service>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            max_conns: usize::MAX,
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
    /// This bounds the server's fd usage under connection floods. Clamped
    /// to at least 1.
    pub fn max_conns(mut self, cap: usize) -> Server {
        self.max_conns = cap.max(1);
        self
    }

    /// Selects the connection backend; [`Backend::Reactor`] is the only one,
    /// so this changes nothing. Kept for source compatibility.
    pub fn backend(self, _backend: Backend) -> Server {
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

    /// Spawns the event loop on a background thread and returns the handle
    /// used for graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn, socket-name and epoll/eventfd setup
    /// failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let control = Control::new()?;
        let reactor = self.reactor(&control)?;
        let main = thread::Builder::new()
            .name("lcl-server-reactor".to_string())
            .spawn(move || {
                // A mid-service epoll failure is fatal and cannot be
                // surfaced through the handle; at least say so.
                if let Err(e) = reactor.run() {
                    eprintln!("lcl-server: serving loop failed: {e}");
                }
            })?;
        Ok(ServerHandle {
            addr,
            control,
            main: Some(main),
        })
    }

    /// Runs the event loop on the calling thread; returns only on a fatal
    /// error (this is the foreground `lcl-serve --addr` mode, ended by
    /// killing the process).
    ///
    /// # Errors
    ///
    /// Propagates listener-setup and epoll/eventfd failures.
    pub fn run(self) -> io::Result<()> {
        let control = Control::new()?;
        self.reactor(&control)?.run()
    }

    /// Sets up the event loop without running it, so setup failures surface
    /// to the caller instead of producing a server that looks started but
    /// serves nothing.
    fn reactor(self, control: &Arc<Control>) -> io::Result<Reactor> {
        self.service.metrics().set_backend("reactor");
        Reactor::new(
            self.listener,
            self.service,
            Arc::clone(control),
            self.max_inflight,
            self.max_conns,
        )
    }
}

/// Handle to a server started with [`Server::start`]: exposes the bound
/// address and performs graceful shutdown (on [`ServerHandle::shutdown`] or
/// drop).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<Control>,
    main: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully shuts the server down: stops accepting, closes every open
    /// connection, joins the serving thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(main) = self.main.take() else {
            return;
        };
        // Sets the flag and wakes the loop through the eventfd — never by
        // connecting to the listen address.
        self.control.trigger_shutdown();
        let _ = main.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}
