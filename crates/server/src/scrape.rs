//! The `--metrics-addr` pull endpoint: a minimal HTTP/1.1 responder that
//! serves the metrics exposition ([`crate::expo`]) to scrapers.
//!
//! This is deliberately not a web server: one accept thread handing each
//! connection to a short-lived responder thread (so a scraper that hangs
//! mid-request cannot delay the next scrape), blocking per-request I/O
//! with short timeouts and a byte cap, `Connection: close` on every
//! response. `GET /metrics` (or `/`) answers `200` with the plaintext
//! exposition (`text/plain; version=0.0.4`); any other path answers `404`;
//! anything unreadable as a request line answers `400`. The listener polls
//! a nonblocking accept so [`MetricsListener::shutdown`] (or drop) stops it
//! promptly without needing a wakeup connection.
//!
//! Scraping is off the request path entirely: a scrape only reads the
//! lock-free counters (one [`crate::MetricsSnapshot`] per scrape), so a
//! stuck or slow scraper cannot backpressure the NDJSON protocol service.

use crate::service::Service;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long the accept loop sleeps between polls, and the ceiling on how
/// long shutdown can take to be observed.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection I/O timeout: a scraper that stalls mid-request is cut
/// off rather than pinning its responder thread.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on the bytes read from one scraper (request line plus headers). A
/// real scrape request is ~100 bytes; a peer that streams more than this
/// is answered from what arrived and cut off, instead of growing a buffer.
const MAX_SCRAPE_REQUEST_BYTES: u64 = 8 * 1024;

/// A running metrics scrape endpoint. Stops serving on
/// [`MetricsListener::shutdown`] or drop.
#[derive(Debug)]
pub struct MetricsListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl MetricsListener {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks an ephemeral one)
    /// and starts the single listener thread serving scrapes of `service`.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<MetricsListener> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking accept + poll: the loop observes `stop` without a
        // self-connection to wake it.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let observed_stop = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("lcl-metrics-scrape".to_string())
            .spawn(move || {
                while !observed_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Each scrape gets its own short-lived thread: a
                            // scraper that connects and hangs times out on
                            // *its* thread while the listener keeps
                            // accepting. Serving inline would let one wedged
                            // peer delay every later scrape by the full I/O
                            // timeout. A scrape failure (peer vanished, bad
                            // request, spawn refused) only affects that
                            // scraper.
                            let scraped = Arc::clone(&service);
                            let _ = thread::Builder::new()
                                .name("lcl-metrics-scrape-conn".to_string())
                                .spawn(move || {
                                    let _ = serve_scrape(&scraped, stream);
                                });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(ACCEPT_POLL);
                        }
                        // Transient accept errors (EMFILE, resets): back off
                        // and keep listening.
                        Err(_) => thread::sleep(ACCEPT_POLL),
                    }
                }
            })?;
        Ok(MetricsListener {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers one scrape connection and closes it.
fn serve_scrape(service: &Service, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    // The byte cap bounds the whole request read (line and headers): past
    // it every read_line returns 0, which ends the drain loop below.
    let mut reader = io::Read::take(
        BufReader::new(stream.try_clone()?),
        MAX_SCRAPE_REQUEST_BYTES,
    );
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line
        .strip_prefix("GET ")
        .and_then(|rest| rest.split(' ').next());
    // Drain the request headers so the peer never sees a reset from
    // unread-input teardown; ignore their content.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let capped = reader.limit() == 0;
    let mut stream = reader.into_inner().into_inner();
    let outcome = match path {
        Some("/metrics") | Some("/") => {
            let body = crate::expo::render_exposition(&service.metrics_snapshot());
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        Some(_) => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "only /metrics is served here\n",
        ),
        None => respond(
            &mut stream,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "expected `GET /metrics HTTP/1.1`\n",
        ),
    };
    // When the byte cap cut the request short, discard (bounded) what it
    // left unread before closing: dropping a socket with pending input
    // resets it, and the reset can outrun the response bytes on the
    // peer's side. Normal requests were read to their blank line and skip
    // this, so their responder thread never waits out the read timeout.
    if capped {
        let _ = io::copy(
            &mut io::Read::take(&stream, 8 * MAX_SCRAPE_REQUEST_BYTES),
            &mut io::sink(),
        );
    }
    outcome
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::validate_exposition;
    use lcl_paths::Engine;
    use std::io::Read;

    fn listener() -> MetricsListener {
        let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
        MetricsListener::bind(service, "127.0.0.1:0").expect("bind ephemeral")
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn a_scrape_returns_a_valid_exposition() {
        let listener = listener();
        let (head, body) = get(listener.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4"),
            "{head}"
        );
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "{head}"
        );
        validate_exposition(&body).expect("scraped exposition validates");
    }

    #[test]
    fn unknown_paths_get_404_and_garbage_gets_400() {
        let listener = listener();
        let (head, _) = get(listener.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let mut stream = TcpStream::connect(listener.addr()).expect("connect");
        write!(stream, "PUT /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }

    #[test]
    fn a_hung_scraper_does_not_wedge_subsequent_scrapes() {
        let listener = listener();
        let addr = listener.addr();
        // Two scrapers connect and send nothing. Served inline, each would
        // hold the listener for the full per-connection I/O timeout and the
        // real scrape below would wait out both.
        let _hung_one = TcpStream::connect(addr).expect("connect");
        let _hung_two = TcpStream::connect(addr).expect("connect");
        // Let the accept loop pick both up before the real scrape arrives.
        thread::sleep(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        validate_exposition(&body).expect("scrape behind hung peers validates");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "scrape waited {:?} behind hung peers",
            started.elapsed()
        );
    }

    #[test]
    fn an_oversized_request_is_answered_from_the_capped_prefix() {
        let listener = listener();
        let mut stream = TcpStream::connect(listener.addr()).expect("connect");
        // A request line far past the byte cap: the responder answers from
        // the prefix it read (an unknown path → 404) instead of buffering
        // the rest.
        let long = "x".repeat(64 * 1024);
        write!(stream, "GET /{long} HTTP/1.1\r\n\r\n").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }

    #[test]
    fn shutdown_stops_serving() {
        let mut listener = listener();
        let addr = listener.addr();
        listener.shutdown();
        listener.shutdown(); // idempotent
                             // The port may be reachable briefly on some stacks, but a fresh
                             // connection must not be answered once the thread is joined.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut stream) => {
                let _ = write!(stream, "GET /metrics HTTP/1.1\r\n\r\n");
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut response = String::new();
                assert!(
                    stream.read_to_string(&mut response).is_err() || response.is_empty(),
                    "a shut-down listener must not answer: {response}"
                );
            }
        }
    }
}
