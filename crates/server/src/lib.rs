//! # lcl-server
//!
//! A dependency-free (`std::net` + `std::thread`) network service exposing
//! the LCL classification pipeline — the `Engine` of `lcl-classifier` — over
//! a newline-delimited JSON (NDJSON) protocol.
//!
//! **Platform: Linux only.** TCP is served by an `epoll` reactor, so the
//! crate refuses to compile elsewhere; the library crates it serves stay
//! portable.
//!
//! Every frame is one line of JSON: requests are
//! [`RequestEnvelope`](lcl_paths::problem::RequestEnvelope)s
//! (`{"v":1,"id":7,"kind":"classify","payload":{…}}`), responses are
//! [`ResponseEnvelope`](lcl_paths::problem::ResponseEnvelope)s echoing the
//! request id and carrying either a payload or a structured error reply
//! derived from [`lcl_paths::Error`]. Nine request kinds are served:
//! `classify`, `classify_many`, `solve`, `solve_stream`, `generate`,
//! `stats`, `health`, `metrics` and `snapshot` (see `docs/PROTOCOL.md` at the
//! repository root for the full specification). `solve_stream` labels paths and cycles of
//! millions of nodes without ever materializing them: the reply is a
//! sequence of ordered chunk frames ([`StreamFrame`]) bounded by
//! [`Service::max_chunk_bytes`], produced under end-to-end backpressure;
//! `generate` draws seeded problems from the
//! [`lcl_paths::gen`] workload families.
//!
//! Every front-end hands each [`Frame`] to one entry point,
//! [`Service::dispatch`], with the connection's [`Origin`] (peer address
//! plus completion hook), and writes the returned [`PendingResponse`]s in
//! request order. Cached `classify` hits (an id-splice), admission
//! rejections and oversized-frame rejections resolve on the calling thread;
//! every other frame runs as one job on the engine's *persistent worker
//! pool*. [`Service::handle_line`] runs that job body inline for lock-step
//! embedders.
//!
//! One sans-IO connection core (`conn.rs`) holds the only frame decoder
//! and the only ordered reply queue; every front end drives it, so the wire
//! bytes are the same by construction:
//!
//! * **TCP** ([`Server`]) — *pipelined* connections: every frame is
//!   dispatched immediately (bounded per-connection window,
//!   [`Server::max_inflight`]) and replies are emitted **in request
//!   order**, so a single connection can keep the whole pool busy;
//!   [`ServerHandle`] shuts the listener and every open connection down
//!   gracefully. One epoll **reactor** thread serves *all* connections;
//!   [`Server::max_conns`] caps the accepted-connection count;
//! * **stdio** ([`serve_stdio`]) — the `lcl-serve --stdio` pipe mode, same
//!   frames over stdin/stdout, lock-step (each reply is written before the
//!   next frame is read).
//!
//! [`Client`] is the matching blocking client helper used by the integration
//! tests, the CI smoke step and the `server_throughput` bench;
//! [`Client::classify_many_pipelined`] floods the server's window instead of
//! lock-stepping round-trips. See `docs/ARCHITECTURE.md` at the repository
//! root for how the crates fit together, and `docs/PROTOCOL.md` for the
//! ordering guarantees a pipelined client may rely on.
//!
//! # Example
//!
//! ```
//! use lcl_paths::{problems, Engine};
//! use lcl_server::{Client, Server, Service};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
//! let server = Server::bind(service, "127.0.0.1:0")?; // ephemeral port
//! let handle = server.start()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let verdict = client.classify(&problems::coloring(3).to_spec())?;
//! assert_eq!(verdict.complexity.wire_name(), "log-star");
//! assert_eq!(client.health()?.require("status")?.as_str()?, "ok");
//!
//! drop(client);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the reactor's epoll binding
// (`reactor/sys.rs`) is the one module allowed to contain `unsafe` — raw
// `extern "C"` declarations in the spirit of the workspace's offline
// `shims/`. Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("lcl-server serves TCP through an epoll reactor and builds on Linux only");

mod admission;
pub mod client;
mod conn;
mod expo;
mod frame;
mod metrics;
mod reactor;
mod scrape;
mod service;
mod splice;
mod stdio;
mod tcp;
mod trace;

pub use admission::AdmissionConfig;
pub use client::{Client, ClientError, SolveReply, StreamSummary, DEFAULT_PIPELINE_WINDOW};
pub use expo::{render_exposition, validate_exposition};
pub use frame::{Frame, MAX_FRAME_BYTES};
pub use metrics::{KindSnapshot, MetricsSnapshot, ServerMetrics};
pub use scrape::MetricsListener;
pub use service::{
    error_reply, Origin, PendingResponse, RequestKind, Service, StreamFrame, CLASSIFY_SLICE_UNITS,
    CLASSIFY_STAGE_CAP_UNITS, DEFAULT_MAX_CHUNK_BYTES,
};
pub use splice::SplicedReply;
pub use stdio::serve_stdio;
pub use tcp::{Backend, Server, ServerHandle, DEFAULT_MAX_INFLIGHT};
pub use trace::{slow_trace_line, TraceSink};
