//! A blocking client for the daemon's wire protocol, v1 and v2.
//!
//! A fresh [`Client`] speaks **v1**: one in-flight request at a time —
//! write a request line, read the response line. Calling [`Client::hello`]
//! upgrades the connection to **v2** (tagged frames): the same one-call
//! methods keep working unchanged, and the pipelined API opens up —
//! [`Client::sample_start`] / [`Client::sample_next`] multiplex several
//! chunked `SAMPLE` streams over one connection, and
//! [`Client::subscribe`] / [`Client::sub_next`] join push feeds with
//! automatic credit replenishment. The client is what the end-to-end
//! tests and the `repro serve-bench` harness drive the daemon with, and
//! doubles as the reference implementation of the protocol's client side.

use crate::json::{Json, JsonError};
use crate::proto::{
    decode_packed, decode_stats, encode_u64_exact, request_id, LoadSource, Request, SampleParams,
    SubscribeParams, PROTOCOL_V2,
};
use htsat_cnf::{Fingerprint, Solution};
use htsat_obs::{TraceId, TraceReport};
use htsat_runtime::StreamStats;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or a server hang-up).
    Io(std::io::Error),
    /// The configured read timeout elapsed with no complete reply line.
    /// Any partially received line is retained — the next read resumes it —
    /// and `pending` lists the request ids still awaiting a terminal frame
    /// (empty on a v1 connection, where requests are not tagged).
    Timeout {
        /// Request ids in flight when the timeout fired, ascending.
        pending: Vec<u64>,
    },
    /// The server's bytes were not a valid protocol message.
    Protocol(String),
    /// The server answered `ok:false` with this message.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout { pending } if pending.is_empty() => {
                write!(f, "timed out waiting for the server")
            }
            ClientError::Timeout { pending } => {
                let ids: Vec<String> = pending.iter().map(u64::to_string).collect();
                write!(
                    f,
                    "timed out waiting for the server (pending requests: {})",
                    ids.join(", ")
                )
            }
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// How [`dial`] (and so [`Client::connect_with`]) establishes the TCP
/// connection.
///
/// `ECONNREFUSED` gets special treatment because it is the signature of
/// the daemon-startup race: the process exists but has not reached `bind`
/// yet. Those attempts are retried with exponential backoff up to
/// `refused_retries` times; every other error (timeout, unreachable,
/// resolution failure) fails immediately — retrying would not fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Per-attempt connect timeout; `None` uses the OS default.
    pub connect_timeout: Option<Duration>,
    /// How many times to retry after `ECONNREFUSED` (0 = fail fast).
    pub refused_retries: u32,
    /// Sleep before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Upper bound of the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for ConnectOptions {
    /// 5 s per-attempt timeout; 5 refused retries backing off
    /// 20 ms → 40 → 80 → 160 → 320 (≈ 620 ms of patience total).
    fn default() -> Self {
        ConnectOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            refused_retries: 5,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
        }
    }
}

/// Dials `addr` with the per-attempt timeout of `options`, retrying
/// `ECONNREFUSED` with exponential backoff (see [`ConnectOptions`]). Every
/// resolved address is tried before an attempt counts as failed (the usual
/// multi-address case is localhost v4+v6). [`Client::connect_with`] and the
/// router's backend dials both connect through it.
///
/// # Errors
///
/// Returns the last attempt's connect error once the retry budget is
/// spent, or immediately for errors retrying cannot fix (unresolvable
/// address, unreachable network, timeout).
pub fn dial<A: ToSocketAddrs>(addr: A, options: &ConnectOptions) -> std::io::Result<TcpStream> {
    let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        ));
    }
    let mut backoff = options.initial_backoff;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let mut last_err: Option<std::io::Error> = None;
        let mut refused = false;
        for sock_addr in &addrs {
            let result = match options.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(sock_addr, timeout),
                None => TcpStream::connect(sock_addr),
            };
            match result {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    refused |= e.kind() == ErrorKind::ConnectionRefused;
                    last_err = Some(e);
                }
            }
        }
        let err = last_err.expect("at least one address was tried");
        // Only a refusal is the retryable startup race; other errors
        // (unreachable, timeout) fail fast.
        if !refused || attempt > options.refused_retries {
            return Err(err);
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(options.max_backoff);
    }
}

/// The reply to a successful `LOAD`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReply {
    /// Canonical fingerprint — with the engine, the key for subsequent
    /// `SAMPLE`s.
    pub fingerprint: Fingerprint,
    /// Canonical name of the engine the formula was prepared for.
    pub engine: String,
    /// Whether the (formula, engine) pair was already resident (no
    /// re-preparation).
    pub cached: bool,
    /// Variable count of the parsed CNF.
    pub vars: usize,
    /// Clause count of the parsed CNF.
    pub clauses: usize,
}

/// The reply to a successful `SAMPLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleReply {
    /// Unique satisfying assignments, in stream order.
    pub solutions: Vec<Solution>,
    /// The request's stream statistics.
    pub stats: StreamStats,
    /// Server-side wall-clock of the stream, in milliseconds.
    pub elapsed_ms: f64,
    /// Whether the stream hit its stale limit (solution space exhausted).
    pub exhausted: bool,
}

/// The terminal `done` frame of a v2 chunked `SAMPLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleDone {
    /// The request's stream statistics.
    pub stats: StreamStats,
    /// Server-side wall-clock of the stream, in milliseconds.
    pub elapsed_ms: f64,
    /// Whether the stream hit its stale limit (solution space exhausted).
    pub exhausted: bool,
    /// `chunk` frames the stream produced before this `done`.
    pub chunks: u64,
}

/// One event of a pipelined v2 `SAMPLE` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleEvent {
    /// An incremental batch of unique solutions, in stream order.
    Batch(Vec<Solution>),
    /// The terminal frame: the stream is complete.
    Done(SampleDone),
}

/// One event of a v2 subscription feed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubEvent {
    /// A fanned-out batch. `seq` is the feed-global batch number: a gap
    /// means this subscriber was stalled (out of credit or backed up)
    /// while the feed advanced.
    Batch {
        /// Feed-global batch sequence number.
        seq: u64,
        /// The batch's unique solutions.
        solutions: Vec<Solution>,
    },
    /// The feed ended (trajectory exhausted): per-seat delivery counts and
    /// the shared stream's statistics.
    Done {
        /// Batches delivered to this subscriber.
        delivered: u64,
        /// Batches this subscriber missed while stalled.
        stalls: u64,
        /// The shared stream's statistics.
        stats: StreamStats,
    },
}

/// Per-subscription client-side credit accounting for automatic
/// replenishment.
struct SubCredit {
    /// Credit level to top back up to.
    target: u64,
    /// Frames the server may still push before the next top-up.
    remaining: u64,
}

/// Which frames a read loop is waiting for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Want {
    /// Frames tagged with this request id.
    Req(u64),
    /// Frames addressed to this subscription.
    Sub(u64),
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Negotiated protocol version (1 until [`Client::hello`] succeeds).
    version: u64,
    next_id: u64,
    /// Partially received line, preserved across read timeouts.
    line_buf: Vec<u8>,
    /// Request ids awaiting their terminal frame.
    pending: BTreeSet<u64>,
    /// Frames read while waiting for a different request id.
    routed_req: HashMap<u64, VecDeque<Json>>,
    /// Frames read while waiting for a different subscription.
    routed_sub: HashMap<u64, VecDeque<Json>>,
    /// Live subscriptions and their credit accounting.
    subs: HashMap<u64, SubCredit>,
    /// Automatic `CREDIT` request ids, mapped to their subscription so a
    /// rejection can be attributed (and ignored once the feed has ended).
    auto_credit: HashMap<u64, u64>,
    /// Trace id stamped on every outgoing request (see
    /// [`Client::set_trace`]); `None` sends untraced requests.
    trace_id: Option<TraceId>,
}

impl Client {
    /// Connects to a daemon (protocol v1 until [`Client::hello`]).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, &ConnectOptions::default())
    }

    /// Connects through [`dial`]: an explicit per-attempt timeout and a
    /// bounded retry-with-backoff on `ECONNREFUSED`, so the refusal window
    /// between a daemon's spawn and its `bind` does not fail the first
    /// client that races it.
    ///
    /// # Errors
    ///
    /// Returns [`dial`]'s error.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        options: &ConnectOptions,
    ) -> Result<Client, ClientError> {
        let stream = dial(addr, options)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            version: 1,
            next_id: 0,
            line_buf: Vec::new(),
            pending: BTreeSet::new(),
            routed_req: HashMap::new(),
            routed_sub: HashMap::new(),
            subs: HashMap::new(),
            auto_credit: HashMap::new(),
            trace_id: None,
        })
    }

    /// Stamps (or stops stamping) a trace id on every subsequent request.
    /// A traced request always records a span timeline server-side —
    /// regardless of the daemon's sampling knob — and, on a v2 connection,
    /// every one of its frames echoes the id back in a `"trace"` key.
    /// Retrieve the recorded timelines with [`Client::trace`].
    pub fn set_trace(&mut self, trace: Option<TraceId>) {
        self.trace_id = trace;
    }

    /// Appends the configured `"trace"` context to an outgoing request
    /// object (no-op when tracing is off).
    fn stamp_trace(&self, msg: &mut Json) {
        if let (Some(trace), Json::Obj(pairs)) = (self.trace_id, msg) {
            pairs.push(("trace".to_string(), Json::Str(trace.to_hex())));
        }
    }

    /// Sets (or clears) the read timeout. With a timeout set, a read that
    /// sees no complete reply line in time fails with
    /// [`ClientError::Timeout`] — and the connection stays usable: a
    /// partially received line is resumed by the next read.
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Negotiates protocol v2. After this succeeds, every subsequent call
    /// travels as tagged frames and the pipelined APIs
    /// ([`Client::sample_start`], [`Client::subscribe`]) become available.
    /// Returns the negotiated version.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the daemon does not speak v2.
    pub fn hello(&mut self) -> Result<u64, ClientError> {
        let reply = self.call_v1(&Request::Hello {
            version: PROTOCOL_V2,
        })?;
        let version = reply
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("hello reply without version".to_string()))?;
        self.version = version;
        Ok(version)
    }

    /// The negotiated protocol version (1 before [`Client::hello`]).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn write_line(&mut self, mut line: String) -> Result<(), ClientError> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next complete line, preserving a partial one across
    /// timeouts.
    fn read_line(&mut self) -> Result<String, ClientError> {
        let eof = || {
            ClientError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        };
        match self.reader.read_until(b'\n', &mut self.line_buf) {
            Ok(0) => Err(eof()),
            Ok(_) => {
                if self.line_buf.last() == Some(&b'\n') {
                    let bytes = std::mem::take(&mut self.line_buf);
                    String::from_utf8(bytes)
                        .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".to_string()))
                } else {
                    // Delimiter not found and no error: EOF mid-line.
                    Err(eof())
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Bytes read so far stay in `line_buf` for the retry.
                Err(ClientError::Timeout {
                    pending: self.pending.iter().copied().collect(),
                })
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Reads frames until one addressed to `want` arrives, stashing frames
    /// of other requests/subscriptions for their own readers.
    fn next_frame(&mut self, want: Want) -> Result<Json, ClientError> {
        let stashed = match want {
            Want::Req(id) => self.routed_req.get_mut(&id).and_then(VecDeque::pop_front),
            Want::Sub(sub) => self.routed_sub.get_mut(&sub).and_then(VecDeque::pop_front),
        };
        if let Some(frame) = stashed {
            return Ok(frame);
        }
        loop {
            let line = self.read_line()?;
            let msg = Json::parse(line.trim_end())?;
            // An explicit `"id": null` error frame means the server could
            // not attribute one of our lines — a client bug; surface it.
            if msg.get("id") == Some(&Json::Null) {
                return Err(ClientError::Server(
                    msg.get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unattributable request line")
                        .to_string(),
                ));
            }
            let addr = match request_id(&msg).map_err(|e| ClientError::Protocol(e.to_string()))? {
                Some(id) => Want::Req(id),
                None => match msg.get("sub").and_then(Json::as_u64) {
                    Some(sub) => Want::Sub(sub),
                    None => {
                        return Err(ClientError::Protocol(
                            "frame without `id` or `sub`".to_string(),
                        ))
                    }
                },
            };
            // Terminal request frames retire their id from the pending set
            // the moment they are *received*, stash or not.
            if let Want::Req(id) = addr {
                if matches!(
                    msg.get("frame").and_then(Json::as_str),
                    Some("reply" | "done" | "error")
                ) {
                    self.pending.remove(&id);
                }
                // Replies to automatic CREDIT top-ups are swallowed here.
                // A rejection surfaces only while the subscription is still
                // believed live: a top-up that raced the feed's own end is
                // expected to bounce and carries no information.
                if let Some(sub) = self.auto_credit.remove(&id) {
                    if msg.get("ok").and_then(Json::as_bool) == Some(false)
                        && self.subs.contains_key(&sub)
                    {
                        return Err(ClientError::Server(
                            msg.get("error")
                                .and_then(Json::as_str)
                                .unwrap_or("credit top-up rejected")
                                .to_string(),
                        ));
                    }
                    continue;
                }
            }
            if addr == want {
                return Ok(msg);
            }
            match addr {
                Want::Req(id) => self.routed_req.entry(id).or_default().push_back(msg),
                Want::Sub(sub) => self.routed_sub.entry(sub).or_default().push_back(msg),
            }
        }
    }

    /// v1 lockstep exchange: one line out, one line in.
    fn call_v1(&mut self, request: &Request) -> Result<Json, ClientError> {
        let mut msg = request.encode();
        self.stamp_trace(&mut msg);
        self.write_line(msg.encode())?;
        let reply = self.read_line()?;
        let msg = Json::parse(reply.trim_end())?;
        match msg.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(msg),
            Some(false) => Err(ClientError::Server(
                msg.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            )),
            None => Err(ClientError::Protocol("reply without `ok`".to_string())),
        }
    }

    /// Sends a request with a fresh tag and returns the id.
    fn send_tagged(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        let mut msg = request.encode();
        if let Json::Obj(pairs) = &mut msg {
            pairs.push(("id".to_string(), encode_u64_exact(id)));
        }
        self.stamp_trace(&mut msg);
        self.write_line(msg.encode())?;
        self.pending.insert(id);
        Ok(id)
    }

    /// v2 unary exchange: tagged request out, terminal frame back (chunks,
    /// which only `SAMPLE` produces, are not expected here).
    fn call_v2(&mut self, request: &Request) -> Result<Json, ClientError> {
        let id = self.send_tagged(request)?;
        loop {
            let frame = self.next_frame(Want::Req(id))?;
            match frame.get("frame").and_then(Json::as_str) {
                Some("reply" | "done") => return Ok(frame),
                Some("error") => {
                    return Err(ClientError::Server(
                        frame
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified server error")
                            .to_string(),
                    ))
                }
                _ => {} // stray chunk: skip to the terminal frame
            }
        }
    }

    /// Sends one request and reads its terminal response, returning the
    /// payload object of a successful reply. Works on both protocol
    /// versions (framing is handled internally).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for failure replies, [`ClientError::Io`] /
    /// [`ClientError::Timeout`] / [`ClientError::Protocol`] for transport
    /// and framing problems.
    pub fn call(&mut self, request: &Request) -> Result<Json, ClientError> {
        if self.version >= PROTOCOL_V2 {
            self.call_v2(request)
        } else {
            self.call_v1(request)
        }
    }

    /// Registers inline DIMACS text under an optional display name,
    /// prepared for the default (`"gd"`) engine.
    ///
    /// # Errors
    ///
    /// Parse and transform failures surface as [`ClientError::Server`].
    pub fn load_dimacs(
        &mut self,
        name: Option<&str>,
        dimacs: &str,
    ) -> Result<LoadReply, ClientError> {
        self.load(name, None, LoadSource::Inline(dimacs.to_string()))
    }

    /// Registers inline DIMACS text prepared for a specific engine
    /// (`"gd"`, `"walksat"`, `"unigen"`, `"cmsgen"`, `"quicksampler"` or
    /// `"diffsampler"`).
    ///
    /// # Errors
    ///
    /// Unknown engine names surface as [`ClientError::Server`].
    pub fn load_dimacs_engine(
        &mut self,
        name: Option<&str>,
        engine: &str,
        dimacs: &str,
    ) -> Result<LoadReply, ClientError> {
        self.load(name, Some(engine), LoadSource::Inline(dimacs.to_string()))
    }

    /// Registers a CNF from a path readable by the *server* process.
    ///
    /// # Errors
    ///
    /// Fails unless the server was started with path loads enabled.
    pub fn load_path(&mut self, name: Option<&str>, path: &str) -> Result<LoadReply, ClientError> {
        self.load(name, None, LoadSource::Path(path.to_string()))
    }

    fn load(
        &mut self,
        name: Option<&str>,
        engine: Option<&str>,
        source: LoadSource,
    ) -> Result<LoadReply, ClientError> {
        let reply = self.call(&Request::Load {
            name: name.map(str::to_string),
            engine: engine.map(str::to_string),
            source,
        })?;
        let fingerprint = reply
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("load reply without fingerprint".to_string()))?
            .parse()
            .map_err(|e| ClientError::Protocol(format!("bad fingerprint: {e}")))?;
        let field = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or_default() as usize;
        Ok(LoadReply {
            fingerprint,
            engine: reply
                .get("engine")
                .and_then(Json::as_str)
                .unwrap_or(crate::proto::DEFAULT_ENGINE)
                .to_string(),
            cached: reply.get("cached").and_then(Json::as_bool).unwrap_or(false),
            vars: field("vars"),
            clauses: field("clauses"),
        })
    }

    /// Streams unique solutions of a loaded formula, blocking until the
    /// stream completes. On a v2 connection the solutions arrive as
    /// incremental chunks and are reassembled here — the result is
    /// bit-identical to the v1 single-response form.
    ///
    /// # Errors
    ///
    /// Unknown fingerprints and invalid parameters surface as
    /// [`ClientError::Server`].
    pub fn sample(&mut self, params: &SampleParams) -> Result<SampleReply, ClientError> {
        if self.version >= PROTOCOL_V2 {
            let id = self.sample_start(params)?;
            let mut solutions = Vec::new();
            loop {
                match self.sample_next(id)? {
                    SampleEvent::Batch(batch) => solutions.extend(batch),
                    SampleEvent::Done(done) => {
                        return Ok(SampleReply {
                            solutions,
                            stats: done.stats,
                            elapsed_ms: done.elapsed_ms,
                            exhausted: done.exhausted,
                        })
                    }
                }
            }
        }
        let reply = self.call_v1(&Request::Sample(params.clone()))?;
        let solutions = decode_solution_array(&reply)?;
        let stats = reply.get("stats").map(decode_stats).unwrap_or_default();
        Ok(SampleReply {
            solutions,
            stats,
            elapsed_ms: reply
                .get("elapsed_ms")
                .and_then(Json::as_f64)
                .unwrap_or_default(),
            exhausted: reply
                .get("exhausted")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Starts a pipelined chunked `SAMPLE` (v2 only) and returns its
    /// request id. Several streams may be in flight at once; interleave
    /// [`Client::sample_next`] calls to drain them.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] before [`Client::hello`]; transport
    /// failures.
    pub fn sample_start(&mut self, params: &SampleParams) -> Result<u64, ClientError> {
        self.require_v2()?;
        self.send_tagged(&Request::Sample(params.clone()))
    }

    /// Reads the next event of a pipelined `SAMPLE` stream: a solution
    /// batch, or the terminal [`SampleDone`].
    ///
    /// # Errors
    ///
    /// A terminal server error frame (e.g. code `shutdown` when the daemon
    /// stops mid-stream) surfaces as [`ClientError::Server`].
    pub fn sample_next(&mut self, id: u64) -> Result<SampleEvent, ClientError> {
        let frame = self.next_frame(Want::Req(id))?;
        match frame.get("frame").and_then(Json::as_str) {
            Some("chunk") => Ok(SampleEvent::Batch(decode_solution_array(&frame)?)),
            Some("done") => Ok(SampleEvent::Done(SampleDone {
                stats: frame.get("stats").map(decode_stats).unwrap_or_default(),
                elapsed_ms: frame
                    .get("elapsed_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or_default(),
                exhausted: frame
                    .get("exhausted")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                chunks: frame.get("chunks").and_then(Json::as_u64).unwrap_or(0),
            })),
            Some("error") => Err(ClientError::Server(
                frame
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            )),
            other => Err(ClientError::Protocol(format!(
                "unexpected frame kind {other:?} for sample {id}"
            ))),
        }
    }

    /// Runs one chunked `SAMPLE` as an iterator of solution batches (v2
    /// only). For pipelining several streams, use [`Client::sample_start`]
    /// / [`Client::sample_next`] directly.
    ///
    /// # Errors
    ///
    /// As for [`Client::sample_start`].
    pub fn sample_stream(
        &mut self,
        params: &SampleParams,
    ) -> Result<SampleStream<'_>, ClientError> {
        let id = self.sample_start(params)?;
        Ok(SampleStream {
            client: self,
            id,
            done: None,
            failed: false,
        })
    }

    /// Joins (or starts) a push feed (v2 only) and returns the
    /// subscription id. The client tracks credit locally and tops it up
    /// automatically inside [`Client::sub_next`].
    ///
    /// # Errors
    ///
    /// Validation failures (formula not loaded, caps) surface as
    /// [`ClientError::Server`].
    pub fn subscribe(&mut self, params: &SubscribeParams) -> Result<u64, ClientError> {
        self.require_v2()?;
        let reply = self.call_v2(&Request::Subscribe(params.clone()))?;
        let sub = reply
            .get("sub")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("subscribe reply without sub".to_string()))?;
        self.subs.insert(
            sub,
            SubCredit {
                target: params.credit,
                remaining: params.credit,
            },
        );
        Ok(sub)
    }

    /// Reads the next event of a subscription, replenishing credit when it
    /// runs low (at or below half the initial grant, topped back up to the
    /// full grant). A subscription opened with zero credit is never topped
    /// up automatically — grant explicitly with [`Client::grant_credit`].
    ///
    /// # Errors
    ///
    /// A terminal feed error (e.g. code `shutdown`) surfaces as
    /// [`ClientError::Server`]; the subscription is closed either way.
    pub fn sub_next(&mut self, sub: u64) -> Result<SubEvent, ClientError> {
        let top_up = match self.subs.get(&sub) {
            Some(credit) if credit.target > 0 && credit.remaining <= credit.target / 2 => {
                Some(credit.target - credit.remaining)
            }
            Some(_) => None,
            None => {
                return Err(ClientError::Protocol(format!(
                    "unknown subscription `{sub}`"
                )))
            }
        };
        // While a backlog of already-received frames is queued locally there
        // is no point asking for more — the feed may even have ended inside
        // that backlog.
        let draining_stash = self
            .routed_sub
            .get(&sub)
            .is_some_and(|queue| !queue.is_empty());
        if let Some(n) = top_up.filter(|n| *n > 0 && !draining_stash) {
            let id = self.send_tagged(&Request::Credit { sub, n })?;
            self.auto_credit.insert(id, sub);
            if let Some(credit) = self.subs.get_mut(&sub) {
                credit.remaining += n;
            }
        }
        let frame = self.next_frame(Want::Sub(sub))?;
        match frame.get("frame").and_then(Json::as_str) {
            Some("pushed") => {
                if let Some(credit) = self.subs.get_mut(&sub) {
                    credit.remaining = credit.remaining.saturating_sub(1);
                }
                Ok(SubEvent::Batch {
                    seq: frame.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    solutions: decode_solution_array(&frame)?,
                })
            }
            Some("done") => {
                self.subs.remove(&sub);
                Ok(SubEvent::Done {
                    delivered: frame
                        .get("sub_delivered")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    stalls: frame.get("sub_stalls").and_then(Json::as_u64).unwrap_or(0),
                    stats: frame.get("stats").map(decode_stats).unwrap_or_default(),
                })
            }
            Some("error") => {
                self.subs.remove(&sub);
                Err(ClientError::Server(
                    frame
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("feed closed")
                        .to_string(),
                ))
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected frame kind {other:?} for subscription {sub}"
            ))),
        }
    }

    /// Explicitly grants a subscription `n` more pushed frames (the manual
    /// alternative to [`Client::sub_next`]'s automatic top-up). Returns
    /// the server-side credit total.
    ///
    /// # Errors
    ///
    /// Unknown subscription ids surface as [`ClientError::Server`].
    pub fn grant_credit(&mut self, sub: u64, n: u64) -> Result<u64, ClientError> {
        self.require_v2()?;
        let reply = self.call_v2(&Request::Credit { sub, n })?;
        if let Some(credit) = self.subs.get_mut(&sub) {
            credit.remaining += n;
        }
        Ok(reply.get("credit").and_then(Json::as_u64).unwrap_or(0))
    }

    /// Leaves a feed and discards any still-queued pushed frames for it.
    ///
    /// # Errors
    ///
    /// Unknown subscription ids surface as [`ClientError::Server`].
    pub fn unsubscribe(&mut self, sub: u64) -> Result<(), ClientError> {
        self.require_v2()?;
        self.subs.remove(&sub);
        let result = self.call_v2(&Request::Unsubscribe { sub });
        // Pushed frames that raced the unsubscribe are stale either way.
        self.routed_sub.remove(&sub);
        result.map(|_| ())
    }

    fn require_v2(&self) -> Result<(), ClientError> {
        if self.version >= PROTOCOL_V2 {
            Ok(())
        } else {
            Err(ClientError::Protocol(
                "pipelined APIs need protocol v2: call hello() first".to_string(),
            ))
        }
    }

    /// Fetches the raw status payload (uptime, registry contents, counters).
    ///
    /// # Errors
    ///
    /// Transport failures only; `status` itself cannot fail server-side.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        self.call(&Request::Status)
    }

    /// Fetches the daemon's metrics snapshot (the `STATS` verb), parsed
    /// into the typed [`htsat_obs::Snapshot`].
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Protocol`] when the reply is
    /// not a schema-`htsat-stats-v1` snapshot.
    pub fn stats(&mut self) -> Result<htsat_obs::Snapshot, ClientError> {
        let reply = self.call(&Request::Stats { reset: false })?;
        htsat_obs::Snapshot::from_json(&reply).map_err(ClientError::Protocol)
    }

    /// Fetches the metrics snapshot and resets the daemon's counters and
    /// histograms in the same request (`STATS reset`). The returned
    /// snapshot reports the totals *before* the reset; gauges survive.
    ///
    /// # Errors
    ///
    /// As for [`Client::stats`].
    pub fn stats_reset(&mut self) -> Result<htsat_obs::Snapshot, ClientError> {
        let reply = self.call(&Request::Stats { reset: true })?;
        htsat_obs::Snapshot::from_json(&reply).map_err(ClientError::Protocol)
    }

    /// Fetches recent request timelines from the daemon's trace ring (the
    /// `TRACE` verb), newest first, parsed into the typed
    /// [`htsat_obs::TraceReport`]. `last` caps the count (`None` = the
    /// whole ring), `verb` keeps only that wire verb's timelines, and
    /// `min_ms` keeps only requests at least that slow.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Protocol`] when the reply is
    /// not a schema-`htsat-trace-v1` report.
    pub fn trace(
        &mut self,
        last: Option<u64>,
        verb: Option<&str>,
        min_ms: Option<u64>,
    ) -> Result<TraceReport, ClientError> {
        let reply = self.call(&Request::Trace {
            last,
            verb: verb.map(str::to_string),
            min_ms,
        })?;
        TraceReport::from_json(&reply).map_err(ClientError::Protocol)
    }

    /// Drops every engine's entry of one fingerprint; returns whether
    /// anything was resident.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn evict(&mut self, fingerprint: Fingerprint) -> Result<bool, ClientError> {
        let reply = self.call(&Request::Evict {
            fingerprint,
            engine: None,
        })?;
        Ok(reply
            .get("evicted")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Drops one (fingerprint, engine) entry; returns whether it was
    /// resident.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn evict_engine(
        &mut self,
        fingerprint: Fingerprint,
        engine: &str,
    ) -> Result<bool, ClientError> {
        let reply = self.call(&Request::Evict {
            fingerprint,
            engine: Some(engine.to_string()),
        })?;
        Ok(reply
            .get("evicted")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown)?;
        Ok(())
    }
}

/// Decodes a frame/reply's `solutions` array of bit strings straight into
/// packed solutions.
fn decode_solution_array(msg: &Json) -> Result<Vec<Solution>, ClientError> {
    msg.get("solutions")
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol("message without solutions".to_string()))?
        .iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| ClientError::Protocol("non-string solution".to_string()))
                .and_then(|text| {
                    decode_packed(text).map_err(|e| ClientError::Protocol(e.to_string()))
                })
        })
        .collect()
}

/// Iterator over one chunked `SAMPLE` stream's batches (see
/// [`Client::sample_stream`]). After the iterator returns `None`, the
/// terminal frame is available from [`SampleStream::done`].
pub struct SampleStream<'a> {
    client: &'a mut Client,
    id: u64,
    done: Option<SampleDone>,
    failed: bool,
}

impl SampleStream<'_> {
    /// The stream's request id (for correlating with server logs).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The terminal frame, once the iterator has returned `None`.
    #[must_use]
    pub fn done(&self) -> Option<&SampleDone> {
        self.done.as_ref()
    }
}

impl Iterator for SampleStream<'_> {
    type Item = Result<Vec<Solution>, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done.is_some() || self.failed {
            return None;
        }
        match self.client.sample_next(self.id) {
            Ok(SampleEvent::Batch(batch)) => Some(Ok(batch)),
            Ok(SampleEvent::Done(done)) => {
                self.done = Some(done);
                None
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A loopback port nothing listens on (bound once, then released).
    fn closed_port() -> u16 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    }

    #[test]
    fn dial_gives_up_on_a_closed_port_after_the_refused_retries() {
        let options = ConnectOptions {
            connect_timeout: Some(Duration::from_secs(1)),
            refused_retries: 2,
            initial_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(10),
        };
        let started = Instant::now();
        let err = dial(("127.0.0.1", closed_port()), &options).expect_err("nothing listens");
        let elapsed = started.elapsed();
        assert_eq!(err.kind(), ErrorKind::ConnectionRefused);
        // Three attempts sleep 200 + 400 ms between them; a fourth would
        // add another 800 ms.
        assert!(elapsed >= Duration::from_millis(600), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(1400), "{elapsed:?}");
    }

    #[test]
    fn dial_reaches_a_listener_bound_during_the_backoff() {
        let port = closed_port();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let listener = TcpListener::bind(("127.0.0.1", port)).expect("late bind");
            listener.accept().expect("accept").1
        });
        // Defaults: 5 refused retries backing off 20 ms → 320 ms.
        let stream = dial(("127.0.0.1", port), &ConnectOptions::default()).expect("dial");
        let peer = late.join().expect("listener thread");
        assert_eq!(stream.local_addr().expect("local addr"), peer);
    }
}
