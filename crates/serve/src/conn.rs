//! The connection core shared by the daemon and `htsat-router`: the
//! socket constants, the stop-aware line reader, the accept loop, line
//! writes, the v1 request/reply exchange, and the request prelude that
//! turns a wire line into a decoded [`Request`] — or into the exact error
//! the client must see.
//!
//! Both servers answer malformed lines, `HELLO` and the per-connection
//! protocol errors through the builders here, so a client cannot tell a
//! routed connection from a direct one by its error frames.

use crate::client::{dial, ConnectOptions};
use crate::json::Json;
use crate::proto::{
    error_response, frame_error, ok_response, request_id, request_trace, ErrorCode, ProtoError,
    Request, PROTOCOL_MAX, PROTOCOL_V1, PROTOCOL_V2,
};
use htsat_obs::TraceId;
use htsat_runtime::StopToken;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted line, terminator excluded (a paper-scale inline DIMACS
/// is a few MiB; the cap only bounds a hostile endless line).
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Read timeout of every line socket: the interval at which a blocked
/// read wakes up to poll its stop token and deadline.
pub const READ_POLL: Duration = Duration::from_millis(50);

/// Write timeout of every line socket: a peer that stops draining its
/// socket stalls writes for at most this long before the connection is
/// declared dead — a stuck peer must not hold up shutdown.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bound of a connection's outbound v2 frame queue, in frames. Producers
/// block when it fills, which is per-connection backpressure.
pub const FRAME_QUEUE_DEPTH: usize = 64;

/// How often the accept loop polls for new connections and the stop token.
pub const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Reads `\n`-terminated lines from a socket whose read timeout is
/// [`READ_POLL`], keeping a partially received line across timeouts (a
/// plain `BufRead::read_line` would lose it) and checking a stop token
/// and an optional deadline between polls.
pub struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Bytes of `pending` already scanned for a newline, so each appended
    /// chunk is scanned once (a full rescan per chunk would make multi-MiB
    /// inline-DIMACS lines quadratic).
    scanned: usize,
}

impl LineReader {
    /// Wraps `stream`, setting its read timeout to [`READ_POLL`].
    ///
    /// # Errors
    ///
    /// Returns the error of setting the read timeout.
    pub fn new(stream: TcpStream) -> std::io::Result<LineReader> {
        stream.set_read_timeout(Some(READ_POLL))?;
        Ok(LineReader {
            stream,
            pending: Vec::new(),
            scanned: 0,
        })
    }

    /// The next complete line with its `\n` or `\r\n` stripped, or `None`
    /// on EOF, a socket error, `stop`, a passed `deadline`, a line longer
    /// than [`MAX_LINE_BYTES`], or invalid UTF-8 (which cannot be protocol
    /// JSON). After `None` the connection should be dropped.
    pub fn next_line(&mut self, stop: &StopToken, deadline: Option<Instant>) -> Option<String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let mut line: Vec<u8> = self.pending.drain(..=self.scanned + pos).collect();
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > MAX_LINE_BYTES {
                    return None;
                }
                return String::from_utf8(line).ok();
            }
            self.scanned = self.pending.len();
            if self.pending.len() > MAX_LINE_BYTES
                || stop.is_stopped()
                || deadline.is_some_and(|at| Instant::now() >= at)
            {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None, // peer hung up (a partial line is dropped)
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return None,
            }
        }
    }
}

/// Prepares an accepted or dialled socket for line traffic: no Nagle
/// delay, [`WRITE_TIMEOUT`] on the returned write half, and a
/// [`LineReader`] over a clone.
///
/// # Errors
///
/// Returns the error of configuring or cloning the socket.
pub fn split(stream: TcpStream) -> std::io::Result<(TcpStream, LineReader)> {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let reader = LineReader::new(stream.try_clone()?)?;
    Ok((stream, reader))
}

/// Writes `line` plus its `\n` in a single `write_all`, so concurrent
/// writers to one socket never interleave within a line.
///
/// # Errors
///
/// Returns the write error (including a [`WRITE_TIMEOUT`] expiry).
pub fn write_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Accepts connections on the non-blocking `listener` until `stop` fires,
/// running `session` on one thread per connection (named `thread_name`),
/// then joins the session threads. A session thread that cannot be
/// spawned is logged and its connection dropped; the loop keeps going.
pub fn accept_loop<F>(listener: &TcpListener, stop: &StopToken, thread_name: &str, session: F)
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    let session = Arc::new(session);
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !stop.is_stopped() {
        match listener.accept() {
            Ok((stream, peer)) => {
                htsat_obs::debug!("connection accepted from {peer}");
                let session = session.clone();
                match std::thread::Builder::new()
                    .name(thread_name.to_string())
                    .spawn(move || session(stream))
                {
                    Ok(handle) => sessions.push(handle),
                    Err(e) => htsat_obs::error!("cannot spawn session thread: {e}"),
                }
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) => {
                if e.kind() != ErrorKind::WouldBlock {
                    htsat_obs::error!("accept failed: {e}");
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    // Graceful drain: stop has fired, so every session finishes its
    // current response and exits at its next read poll.
    for handle in sessions {
        let _ = handle.join();
    }
}

/// Sends one line on an open connection and reads the reply line, waiting
/// at most `timeout` (forever with `None`) unless `stop` fires first.
///
/// # Errors
///
/// Returns the write error, or `UnexpectedEof` when no reply line arrives.
pub fn exchange(
    writer: &mut TcpStream,
    reader: &mut LineReader,
    line: &str,
    stop: &StopToken,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    write_line(writer, line.to_string())?;
    let deadline = timeout.map(|t| Instant::now() + t);
    reader.next_line(stop, deadline).ok_or_else(|| {
        std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "no reply line (closed, timed out, stopped or oversized)",
        )
    })
}

/// One v1 lockstep exchange on a fresh connection: dial `addr`, send
/// `line`, return the raw reply line (see [`exchange`]).
///
/// # Errors
///
/// Returns the dial error or the [`exchange`] error, prefixed with `addr`.
pub fn v1_exchange(
    addr: &str,
    line: &str,
    options: &ConnectOptions,
    stop: &StopToken,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    let (mut writer, mut reader) = split(dial(addr, options)?)?;
    exchange(&mut writer, &mut reader, line, stop, timeout)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))
}

/// Parses a reply line.
///
/// # Errors
///
/// Returns `InvalidData` when the line is not JSON.
pub fn parse_reply(reply: &str) -> std::io::Result<Json> {
    Json::parse(reply)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bad reply: {e}")))
}

/// Parses a reply line and requires `"ok": true`.
///
/// # Errors
///
/// Returns the [`parse_reply`] error, or the server's `error` message when
/// the reply is a rejection.
pub fn expect_ok(reply: &str) -> std::io::Result<Json> {
    let msg = parse_reply(reply)?;
    if msg.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(msg);
    }
    let detail = msg
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("request rejected");
    Err(std::io::Error::other(detail.to_string()))
}

/// A request line that made it through the prelude.
pub struct RequestLine {
    /// The parsed line (a router rewrites and re-encodes it).
    pub msg: Json,
    /// The client-supplied trace id, to be echoed on v2 frames.
    pub trace: Option<TraceId>,
    /// The decoded request.
    pub request: Request,
}

/// The v1 request prelude: parse → `trace` → [`Request::decode`].
///
/// # Errors
///
/// Returns the v1 error response to send for a malformed line.
pub fn decode_v1(line: &str) -> Result<RequestLine, Json> {
    let msg = Json::parse(line)
        .map_err(|e| error_response(ErrorCode::BadJson, &format!("invalid JSON: {e}")))?;
    finish_decode(msg).map_err(|e| error_response(ErrorCode::BadRequest, &e))
}

/// The v2 request prelude: parse → `id` → `trace` → [`Request::decode`].
/// Returns the request's id with the decoded line.
///
/// # Errors
///
/// Returns the v2 error frame to send for a malformed line (`"id": null`
/// when the line cannot be attributed to an id).
pub fn decode_v2(line: &str) -> Result<(u64, RequestLine), Json> {
    let msg = Json::parse(line)
        .map_err(|e| frame_error(None, ErrorCode::BadJson, &format!("invalid JSON: {e}")))?;
    let id = match request_id(&msg) {
        Ok(Some(id)) => id,
        Ok(None) => {
            return Err(frame_error(
                None,
                ErrorCode::BadRequest,
                "v2 requests need an `id`",
            ))
        }
        Err(ProtoError(e)) => return Err(frame_error(None, ErrorCode::BadRequest, &e)),
    };
    let decoded =
        finish_decode(msg).map_err(|e| frame_error(Some(id), ErrorCode::BadRequest, &e))?;
    Ok((id, decoded))
}

/// The framing-independent tail of the prelude.
fn finish_decode(msg: Json) -> Result<RequestLine, String> {
    let trace = request_trace(&msg).map_err(|ProtoError(e)| e)?;
    let request = Request::decode(&msg).map_err(|ProtoError(e)| e)?;
    Ok(RequestLine {
        msg,
        trace,
        request,
    })
}

/// The v1-framed answer to `HELLO`, and whether the connection now speaks
/// v2. An unsupported version is `bad-request` and the connection stays v1.
#[must_use]
pub fn hello_reply(version: u64) -> (Json, bool) {
    if !(PROTOCOL_V1..=PROTOCOL_MAX).contains(&version) {
        let message = format!(
            "unsupported protocol version {version} (supported: {PROTOCOL_V1}..={PROTOCOL_MAX})"
        );
        return (error_response(ErrorCode::BadRequest, &message), false);
    }
    let reply = ok_response(vec![
        ("version", version.into()),
        ("max_version", PROTOCOL_MAX.into()),
    ]);
    (reply, version == PROTOCOL_V2)
}

/// The v2 answer to a `HELLO` after negotiation.
#[must_use]
pub fn hello_again(id: u64) -> Json {
    frame_error(
        Some(id),
        ErrorCode::BadRequest,
        "protocol version already negotiated",
    )
}

/// The v1 answer to a v2-only subscription verb.
#[must_use]
pub fn v2_only(request: &Request) -> Json {
    let message = if matches!(request, Request::Subscribe(_)) {
        "`subscribe` requires protocol v2 (negotiate with `hello` first)"
    } else {
        "subscription verbs require protocol v2 (negotiate with `hello` first)"
    };
    error_response(ErrorCode::BadRequest, message)
}

/// The v2 answer to a request reusing an id that is still in flight.
#[must_use]
pub fn duplicate_id(id: u64) -> Json {
    frame_error(
        Some(id),
        ErrorCode::BadRequest,
        &format!("duplicate in-flight `id` {id}"),
    )
}

/// The v2 answer to `CREDIT`/`UNSUBSCRIBE` naming no open subscription.
#[must_use]
pub fn unknown_sub(id: u64, sub: u64) -> Json {
    frame_error(
        Some(id),
        ErrorCode::BadRequest,
        &format!("unknown subscription `{sub}` (ended or never opened here)"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback pair: the raw peer and a reader on the other end.
    fn pair() -> (TcpStream, LineReader) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (peer, LineReader::new(accepted).expect("reader"))
    }

    fn never() -> StopToken {
        StopToken::new()
    }

    #[test]
    fn partial_line_survives_a_read_poll_timeout() {
        let (mut peer, mut reader) = pair();
        let writer = std::thread::spawn(move || {
            peer.write_all(b"{\"cmd\":").expect("first half");
            std::thread::sleep(READ_POLL * 3);
            peer.write_all(b"\"status\"}\n").expect("second half");
            peer
        });
        assert_eq!(
            reader.next_line(&never(), None).as_deref(),
            Some("{\"cmd\":\"status\"}")
        );
        drop(writer.join());
    }

    #[test]
    fn crlf_is_stripped() {
        let (mut peer, mut reader) = pair();
        peer.write_all(b"first\r\nsecond\n\r\n").expect("write");
        assert_eq!(reader.next_line(&never(), None).as_deref(), Some("first"));
        assert_eq!(reader.next_line(&never(), None).as_deref(), Some("second"));
        assert_eq!(reader.next_line(&never(), None).as_deref(), Some(""));
    }

    #[test]
    fn overflow_line_yields_none() {
        let (mut peer, mut reader) = pair();
        let writer = std::thread::spawn(move || {
            let block = vec![b'a'; 1024 * 1024];
            let mut sent = 0;
            while sent <= MAX_LINE_BYTES {
                if peer.write_all(&block).is_err() {
                    return; // the reader gave up and closed
                }
                sent += block.len();
            }
            let _ = peer.write_all(b"\n");
        });
        assert_eq!(reader.next_line(&never(), None), None);
        drop(reader);
        writer.join().expect("writer");
    }

    #[test]
    fn invalid_utf8_yields_none() {
        let (mut peer, mut reader) = pair();
        peer.write_all(b"{\"cmd\":\"\xff\xfe\"}\n").expect("write");
        assert_eq!(reader.next_line(&never(), None), None);
    }

    #[test]
    fn passed_deadline_returns_promptly() {
        let (_peer, mut reader) = pair();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(100);
        assert_eq!(reader.next_line(&never(), Some(deadline)), None);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        // An already-passed deadline returns without waiting for a poll.
        let start = Instant::now();
        assert_eq!(reader.next_line(&never(), Some(start)), None);
        assert!(start.elapsed() < READ_POLL);
    }

    #[test]
    fn stop_token_ends_a_blocked_read() {
        let (_peer, mut reader) = pair();
        let stop = StopToken::new();
        let stopper = stop.clone();
        let trigger = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            stopper.stop();
        });
        let start = Instant::now();
        assert_eq!(reader.next_line(&stop, None), None);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        trigger.join().expect("trigger");
    }
}
