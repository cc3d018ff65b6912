//! Cross-front-end framing identity: one scripted byte stream, delivered in
//! seeded random write sizes (1-byte writes included), must produce the very
//! same reply bytes from `serve_stdio` and the TCP reactor.
//!
//! The script exercises the whole NDJSON framing contract: blank and
//! whitespace-only lines, a line of exactly [`MAX_FRAME_BYTES`], oversized
//! lines split across many writes and arriving in one write, invalid UTF-8,
//! a malformed frame, a deterministic `solve_stream`, a `classify` cold miss
//! followed by two spliced hits, and the stream's end. Only one line can end
//! a stream, so the script is served once per ending: a final unterminated
//! line before the half-close, and an oversized line cut off by EOF.

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{RequestEnvelope, StreamInputs, StreamInstanceSpec, Topology};
use lcl_paths::{problems, Engine};
use lcl_server::{serve_stdio, Backend, Server, Service, MAX_FRAME_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread;

/// One piece of the script and how it is delivered.
struct Piece {
    bytes: Vec<u8>,
    /// Written with a single `write` call instead of random chunks.
    one_write: bool,
}

fn chunked(bytes: impl Into<Vec<u8>>) -> Piece {
    Piece {
        bytes: bytes.into(),
        one_write: false,
    }
}

fn line(text: &str) -> Vec<u8> {
    format!("{text}\n").into_bytes()
}

fn classify_line(id: i64, k: usize) -> String {
    RequestEnvelope::new(
        id,
        "classify",
        JsonValue::object([("problem", problems::coloring(k).to_spec().to_json())]),
    )
    .to_json_string()
}

/// How the scripted stream ends.
#[derive(Copy, Clone, Debug)]
enum Ending {
    /// A short request line with no newline, then the half-close.
    UnterminatedLine,
    /// An oversized line still running when the stream ends.
    OversizedAtEof,
}

fn script(ending: Ending) -> Vec<Piece> {
    // A valid request padded with leading spaces to exactly the limit.
    let request = classify_line(1, 4);
    let exact = format!("{}{request}", " ".repeat(MAX_FRAME_BYTES - request.len()));
    assert_eq!(exact.len(), MAX_FRAME_BYTES);

    let stream = RequestEnvelope::new(
        5,
        "solve_stream",
        JsonValue::object([
            ("problem", problems::coloring(3).to_spec().to_json()),
            (
                "instance",
                StreamInstanceSpec {
                    topology: Topology::Cycle,
                    length: 240,
                    inputs: StreamInputs::Uniform { label: 0 },
                }
                .to_json(),
            ),
        ]),
    )
    .to_json_string();

    let mut oversized_one_write = vec![b'y'; MAX_FRAME_BYTES + 17];
    oversized_one_write.push(b'\n');

    let mut pieces = vec![
        chunked(b"\n   \n\t \n\n".to_vec()),
        chunked(line(&exact)),
        chunked([vec![b'x'; MAX_FRAME_BYTES + 1], b"\n".to_vec()].concat()),
        Piece {
            bytes: oversized_one_write,
            one_write: true,
        },
        chunked(b"\xff\xfe{\"v\":1,\"id\":2,\xc3\x28\"kind\":\"health\"}\n".to_vec()),
        chunked(line("{\"v\":1,\"id\":3,\"kind\":")),
        chunked(line(" \t ")),
        chunked(line(&stream)),
        chunked(line(&classify_line(6, 3))),
        chunked(line(&classify_line(7, 3))),
        chunked(line(&classify_line(8, 3))),
    ];
    pieces.push(match ending {
        Ending::UnterminatedLine => chunked(classify_line(9, 5)),
        Ending::OversizedAtEof => chunked(vec![b'z'; MAX_FRAME_BYTES + 3]),
    });
    pieces
}

/// The script as a list of writes: random chunk sizes from 1 byte up to
/// 64 KiB, a quarter of them single bytes, except for `one_write` pieces.
fn writes(script: &[Piece], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for piece in script {
        if piece.one_write {
            out.push(piece.bytes.clone());
            continue;
        }
        let mut rest = piece.bytes.as_slice();
        while !rest.is_empty() {
            let cap = match rng.gen_range(0..4u32) {
                0 => 1,
                1 => 16,
                2 => 4096,
                _ => 65536,
            };
            let take = rng.gen_range(1..cap + 1).min(rest.len());
            out.push(rest[..take].to_vec());
            rest = &rest[take..];
        }
    }
    out
}

fn service() -> Arc<Service> {
    Arc::new(Service::new(Engine::builder().parallelism(2).build()).with_max_chunk_bytes(1024))
}

/// A reader that hands out the scripted writes one per `read` call, so
/// stdio sees the same chunk boundaries a socket reader could.
struct ScriptedReader {
    writes: VecDeque<Vec<u8>>,
}

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(front) = self.writes.front_mut() else {
            return Ok(0);
        };
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        front.drain(..n);
        if front.is_empty() {
            self.writes.pop_front();
        }
        Ok(n)
    }
}

fn via_stdio(writes: Vec<Vec<u8>>) -> Vec<u8> {
    let input = BufReader::with_capacity(
        1 << 16,
        ScriptedReader {
            writes: writes.into(),
        },
    );
    let mut output = Vec::new();
    serve_stdio(&service(), input, &mut output).expect("stdio serves the script");
    output
}

fn via_tcp(backend: Backend, writes: Vec<Vec<u8>>) -> Vec<u8> {
    let handle = Server::bind(service(), "127.0.0.1:0")
        .expect("bind loopback")
        .backend(backend)
        .start()
        .expect("start server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Read concurrently, so the replies never back up into the server while
    // the script is still being written.
    let mut reader = stream.try_clone().expect("clone stream");
    let replies = thread::spawn(move || {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).expect("read replies");
        bytes
    });
    for write in &writes {
        stream.write_all(write).expect("write script");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let bytes = replies.join().expect("reader thread");
    handle.shutdown();
    bytes
}

fn backends() -> Vec<Backend> {
    vec![Backend::Reactor]
}

#[test]
fn framing_is_byte_identical_across_stdio_threads_and_reactor() {
    for (round, ending) in [Ending::UnterminatedLine, Ending::OversizedAtEof]
        .into_iter()
        .enumerate()
    {
        let script = script(ending);
        let seed = |front_end: u64| 0x5eed_0000 + 16 * round as u64 + front_end;
        let reference = via_stdio(writes(&script, seed(0)));
        let text = String::from_utf8(reference.clone()).expect("replies are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            13,
            "{ending:?}: ten terminal replies plus three stream chunks"
        );
        let oversized = lines.iter().filter(|l| l.contains("discarded")).count();
        let expect_oversized = match ending {
            Ending::UnterminatedLine => 2,
            Ending::OversizedAtEof => 3,
        };
        assert_eq!(oversized, expect_oversized, "{ending:?}: oversized replies");
        assert!(
            lines[0].starts_with("{\"id\":1,"),
            "exact-limit line served"
        );

        for (i, backend) in backends().into_iter().enumerate() {
            let got = via_tcp(backend, writes(&script, seed(1 + i as u64)));
            assert!(
                got == reference,
                "{ending:?}: {backend} replies differ from stdio\n{backend}:\n{}\nstdio:\n{}",
                String::from_utf8_lossy(&got),
                text
            );
        }
    }
}
