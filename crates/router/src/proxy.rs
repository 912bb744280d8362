//! Per-connection proxy sessions: v1 lockstep forwarding, v2 multiplexed
//! forwarding with subscription rewriting and mid-stream failover, and the
//! aggregation verbs.
//!
//! The forwarding invariant that keeps determinism intact: frames of
//! routed requests (`LOAD`, `SAMPLE`) are relayed as the backend's **raw
//! bytes** — the router never re-encodes them — so a client cannot
//! distinguish a routed stream from a direct one. The only rewritten
//! frames are subscription-addressed ones (`sub` is renumbered because
//! two backends may hand out the same feed id), where the router parses,
//! patches the one field and re-encodes in place (field order preserved).

use crate::server::RouterState;
use htsat_json::Json;
use htsat_obs::trace::{TraceFilter, TraceReport};
use htsat_obs::Snapshot;
use htsat_runtime::StopToken;
use htsat_serve::proto::{
    encode_u64_exact, error_response, frame_error, frame_feed_error, frame_from_response,
    ok_response, request_id, ErrorCode, LoadSource, ProtoError, Request, DEFAULT_ENGINE,
    DEFAULT_REGISTER_TTL_MS, PROTOCOL_MAX, PROTOCOL_V1, PROTOCOL_V2,
};
use htsat_serve::{dial, ConnectOptions};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked reads wake up to poll stop flags.
const READ_POLL: Duration = Duration::from_millis(50);

/// Reject lines longer than this instead of buffering without bound.
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Socket write timeout towards clients and backends.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a backend gets to answer the router's `HELLO`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Read timeout of one aggregation exchange per backend.
const AGGREGATE_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Depth of the per-client outbound frame queue. Backend readers block on
/// a full queue, which propagates client-side backpressure upstream.
const FRAME_QUEUE_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// Line reading
// ---------------------------------------------------------------------------

/// A stop-aware newline-delimited reader (the socket carries a short read
/// timeout so blocked reads can poll the stop flags).
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    scanned: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> std::io::Result<LineReader> {
        stream.set_read_timeout(Some(READ_POLL))?;
        Ok(LineReader {
            stream,
            pending: Vec::new(),
            scanned: 0,
        })
    }

    /// The next complete line (without its terminator), or `None` on EOF,
    /// stop, overflow, invalid UTF-8, a passed deadline, or a socket
    /// error.
    fn next_line(&mut self, stop: &StopToken, deadline: Option<Instant>) -> Option<String> {
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.scanned + pos;
                let mut line: Vec<u8> = self.pending.drain(..=end).collect();
                self.scanned = 0;
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).ok();
            }
            self.scanned = self.pending.len();
            if self.pending.len() > MAX_LINE_BYTES || stop.is_stopped() {
                return None;
            }
            if deadline.is_some_and(|at| Instant::now() >= at) {
                return None;
            }
            let mut buf = [0u8; 64 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    }
}

/// One v1 lockstep exchange with a backend on a fresh connection: send
/// `line`, return the raw reply line.
fn v1_exchange(
    addr: &str,
    line: &str,
    options: &ConnectOptions,
    read_timeout: Option<Duration>,
) -> std::io::Result<String> {
    let stream = dial(addr, options)?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut reader = LineReader::new(stream)?;
    let deadline = read_timeout.map(|t| Instant::now() + t);
    reader
        .next_line(&StopToken::new(), deadline)
        .ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, format!("{addr} closed mid-reply"))
        })
}

/// The engine name a request shards under.
fn engine_of(engine: &Option<String>) -> &str {
    engine.as_deref().unwrap_or(DEFAULT_ENGINE)
}

/// Decodes a `sub` field that may travel as a number or a decimal string.
fn field_sub(msg: &Json) -> Option<u64> {
    match msg.get("sub") {
        Some(Json::Str(text)) => text.parse().ok(),
        Some(other) => other.as_u64(),
        None => None,
    }
}

/// Replaces the value of the `sub` field in place (field order kept).
fn with_sub(mut msg: Json, sub: u64) -> Json {
    if let Json::Obj(pairs) = &mut msg {
        for (key, value) in pairs.iter_mut() {
            if key == "sub" {
                *value = encode_u64_exact(sub);
            }
        }
    }
    msg
}

// ---------------------------------------------------------------------------
// Routing decisions
// ---------------------------------------------------------------------------

/// What to forward for a `LOAD`: the wire line (rewritten to inline DIMACS
/// for router-side path loads), the shard fingerprint and the engine.
struct LoadRoute {
    line: String,
    fingerprint_hex: String,
    engine: String,
}

/// Computes a `LOAD`'s shard key (and, for path loads, the inline
/// rewrite). The router must parse the DIMACS anyway to know the
/// fingerprint, so malformed text fails here with the same code the
/// daemon would use.
fn route_load(
    state: &RouterState,
    raw: &str,
    msg: &Json,
    engine: &Option<String>,
    source: &LoadSource,
) -> Result<LoadRoute, (ErrorCode, String)> {
    let (text, rewrite) = match source {
        LoadSource::Inline(text) => (text.clone(), false),
        LoadSource::Path(path) => {
            if !state.config.allow_path_load {
                return Err((
                    ErrorCode::PathLoadDisabled,
                    "path loads are disabled on this router (start with --allow-path-load)"
                        .to_string(),
                ));
            }
            match std::fs::read_to_string(path) {
                Ok(text) => (text, true),
                Err(e) => return Err((ErrorCode::Io, format!("cannot read {path}: {e}"))),
            }
        }
    };
    let cnf = htsat_cnf::dimacs::parse_str(&text).map_err(|e| {
        (
            ErrorCode::TransformFailed,
            format!("DIMACS parse error: {e}"),
        )
    })?;
    let fingerprint_hex = htsat_cnf::Fingerprint::of(&cnf).to_hex();
    let line = if rewrite {
        // Swap `path` for the inline text; every other field (id, name,
        // engine, trace) is carried through untouched.
        let Json::Obj(pairs) = msg else {
            unreachable!("a decoded request is an object")
        };
        let rewritten: Vec<(String, Json)> = pairs
            .iter()
            .map(|(key, value)| {
                if key == "path" {
                    ("dimacs".to_string(), Json::Str(text.clone()))
                } else {
                    (key.clone(), value.clone())
                }
            })
            .collect();
        Json::Obj(rewritten).encode()
    } else {
        raw.to_string()
    };
    Ok(LoadRoute {
        line,
        fingerprint_hex,
        engine: engine_of(engine).to_string(),
    })
}

// ---------------------------------------------------------------------------
// Aggregation verbs
// ---------------------------------------------------------------------------

/// Runs one v1 exchange against every live backend, returning the parsed
/// replies by address. Unreachable backends are recorded as failures and
/// reported as `Err`.
fn poll_backends(state: &RouterState, line: &str) -> Vec<(String, std::io::Result<Json>)> {
    state
        .discovery
        .live()
        .into_iter()
        .map(|addr| {
            let result = v1_exchange(&addr, line, &state.config.dial, Some(AGGREGATE_IO_TIMEOUT))
                .and_then(|reply| {
                    Json::parse(&reply).map_err(|e| {
                        std::io::Error::new(ErrorKind::InvalidData, format!("bad reply: {e}"))
                    })
                });
            match &result {
                Ok(_) => state.discovery.record_success(&addr),
                Err(e) => {
                    htsat_obs::counter!("router.aggregate.backend_errors").inc();
                    htsat_obs::warn!("aggregate poll of {addr} failed: {e}");
                    state.discovery.record_failure(&addr);
                }
            }
            (addr, result)
        })
        .collect()
}

/// Merges one histogram into another (counts, sums and buckets add).
fn merge_histogram(into: &mut htsat_obs::HistogramSnapshot, other: &htsat_obs::HistogramSnapshot) {
    into.count += other.count;
    into.sum += other.sum;
    for &(index, n) in &other.buckets {
        match into.buckets.iter_mut().find(|(i, _)| *i == index) {
            Some((_, count)) => *count += n,
            None => into.buckets.push((index, n)),
        }
    }
    into.buckets.sort_by_key(|&(index, _)| index);
}

/// Merges `other` into `base`: counters and gauges sum by name,
/// histograms merge bucket-wise. Sections stay name-sorted so the merged
/// snapshot encodes deterministically.
fn merge_snapshot(base: &mut Snapshot, other: &Snapshot) {
    for (name, value) in &other.counters {
        match base.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += value,
            None => base.counters.push((name.clone(), *value)),
        }
    }
    for (name, value) in &other.gauges {
        match base.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += value,
            None => base.gauges.push((name.clone(), *value)),
        }
    }
    for (name, hist) in &other.histograms {
        match base.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, into)) => merge_histogram(into, hist),
            None => base.histograms.push((name.clone(), hist.clone())),
        }
    }
    base.counters.sort_by(|a, b| a.0.cmp(&b.0));
    base.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    base.histograms.sort_by(|a, b| a.0.cmp(&b.0));
}

/// `STATS` through the router: the router's own snapshot merged with
/// every live backend's into one `htsat-stats-v1` document. `reset`
/// forwards to the backends and resets the router's registry too.
fn aggregate_stats(state: &RouterState, reset: bool) -> Json {
    htsat_obs::counter!("router.requests.stats").inc();
    htsat_obs::gauge!("process.uptime_ms")
        .set(i64::try_from(state.started.elapsed().as_millis()).unwrap_or(i64::MAX));
    let mut merged = htsat_obs::global().snapshot();
    if reset {
        htsat_obs::global().reset();
    }
    let line = Request::Stats { reset }.encode().encode();
    let mut polled = 0u64;
    for (_, result) in poll_backends(state, &line) {
        if let Ok(reply) = result {
            if let Ok(snapshot) = Snapshot::from_json(&reply) {
                merge_snapshot(&mut merged, &snapshot);
                polled += 1;
            }
        }
    }
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("reset".to_string(), Json::Bool(reset)),
    ];
    if let Json::Obj(snapshot_pairs) = merged.to_json() {
        pairs.extend(snapshot_pairs);
    }
    pairs.push(("backends_polled".to_string(), polled.into()));
    Json::Obj(pairs)
}

/// `TRACE` through the router: the router's timelines first, then every
/// live backend's (by address), `dropped_traces` summed and the `last`
/// cap re-applied to the merged list.
fn aggregate_trace(
    state: &RouterState,
    last: Option<u64>,
    verb: Option<String>,
    min_ms: Option<u64>,
) -> Json {
    htsat_obs::counter!("router.requests.trace").inc();
    let filter = TraceFilter {
        last: usize::try_from(last.unwrap_or(0)).unwrap_or(usize::MAX),
        verb: verb.clone(),
        min_total_ns: min_ms.unwrap_or(0).saturating_mul(1_000_000),
    };
    let mut merged = htsat_obs::trace::snapshot_traces(&filter);
    let line = Request::Trace { last, verb, min_ms }.encode().encode();
    for (_, result) in poll_backends(state, &line) {
        if let Ok(reply) = result {
            if let Ok(report) = TraceReport::from_json(&reply) {
                merged.timelines.extend(report.timelines);
                merged.dropped_traces += report.dropped_traces;
            }
        }
    }
    if filter.last > 0 && filter.last != usize::MAX {
        merged.timelines.truncate(filter.last);
    }
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(report_pairs) = merged.to_json() {
        pairs.extend(report_pairs);
    }
    Json::Obj(pairs)
}

/// `STATUS` through the router: registry counters summed, `entries`
/// concatenated, plus a router-only `backends` array with discovery-map
/// liveness and dispatch accounting.
fn aggregate_status(state: &RouterState) -> Json {
    htsat_obs::counter!("router.requests.status").inc();
    let line = Request::Status.encode().encode();
    let polls = poll_backends(state, &line);
    let mut entries = Vec::new();
    let mut sums: HashMap<&str, u64> = HashMap::new();
    let mut reachable: HashMap<String, bool> = HashMap::new();
    for (addr, result) in &polls {
        reachable.insert(addr.clone(), result.is_ok());
        let Ok(reply) = result else { continue };
        if let Some(Json::Arr(backend_entries)) = reply.get("entries") {
            entries.extend(backend_entries.iter().cloned());
        }
        for key in [
            "resident_bytes",
            "budget_bytes",
            "hits",
            "misses",
            "compiles",
            "evictions",
            "disk_hits",
            "in_flight",
            "feeds",
            "subscribers",
        ] {
            let value = reply.get(key).and_then(Json::as_u64).unwrap_or(0);
            *sums.entry(key).or_insert(0) += value;
        }
    }
    let backends: Vec<Json> = state
        .discovery
        .statuses()
        .into_iter()
        .map(|status| {
            Json::obj(vec![
                ("addr", status.addr.clone().into()),
                ("live", status.live.into()),
                (
                    "reachable",
                    reachable
                        .get(&status.addr)
                        .copied()
                        .map_or(Json::Null, Json::Bool),
                ),
                (
                    "expires_in_ms",
                    status.expires_in_ms.map_or(Json::Null, Json::from),
                ),
                ("inflight", status.inflight.into()),
                ("dispatched", status.dispatched.into()),
                ("failures", status.failures.into()),
            ])
        })
        .collect();
    let sum = |key: &str| -> Json { sums.get(key).copied().unwrap_or(0).into() };
    ok_response(vec![
        (
            "uptime_ms",
            (state.started.elapsed().as_secs_f64() * 1e3).into(),
        ),
        (
            "connections",
            state
                .connections_served
                .load(std::sync::atomic::Ordering::Relaxed)
                .into(),
        ),
        ("entries", Json::Arr(entries)),
        ("resident_bytes", sum("resident_bytes")),
        ("budget_bytes", sum("budget_bytes")),
        ("hits", sum("hits")),
        ("misses", sum("misses")),
        ("compiles", sum("compiles")),
        ("evictions", sum("evictions")),
        ("disk_hits", sum("disk_hits")),
        ("in_flight", sum("in_flight")),
        ("feeds", sum("feeds")),
        ("subscribers", sum("subscribers")),
        ("backends", Json::Arr(backends)),
    ])
}

/// `EVICT` through the router: broadcast to every live backend,
/// `evicted_count` summed.
fn broadcast_evict(
    state: &RouterState,
    fingerprint: htsat_cnf::Fingerprint,
    engine: Option<String>,
) -> Json {
    htsat_obs::counter!("router.requests.evict").inc();
    let line = Request::Evict {
        fingerprint,
        engine,
    }
    .encode()
    .encode();
    let mut evicted = 0u64;
    for (_, result) in poll_backends(state, &line) {
        if let Ok(reply) = result {
            evicted += reply
                .get("evicted_count")
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
    }
    ok_response(vec![
        ("evicted", (evicted > 0).into()),
        ("evicted_count", evicted.into()),
    ])
}

/// `SHUTDOWN` through the router: broadcast to every live backend
/// (best-effort), then the router itself stops.
fn broadcast_shutdown(state: &RouterState) -> Json {
    htsat_obs::counter!("router.requests.shutdown").inc();
    htsat_obs::info!("shutdown requested; broadcasting to backends");
    let line = Request::Shutdown.encode().encode();
    for (addr, result) in poll_backends(state, &line) {
        if let Err(e) = result {
            htsat_obs::warn!("shutdown broadcast to {addr} failed: {e}");
        }
    }
    ok_response(vec![("shutdown", true.into())])
}

/// `REGISTER`: updates the discovery map and echoes the accepted window.
fn handle_register(state: &RouterState, addr: &str, ttl_ms: Option<u64>) -> Json {
    htsat_obs::counter!("router.requests.register").inc();
    let ttl = ttl_ms.unwrap_or(DEFAULT_REGISTER_TTL_MS);
    if state.discovery.register(addr, Duration::from_millis(ttl)) {
        htsat_obs::info!("backend {addr} registered (ttl {ttl} ms)");
        htsat_obs::counter!("router.backends.joined").inc();
    }
    ok_response(vec![("addr", addr.into()), ("ttl_ms", ttl.into())])
}

// ---------------------------------------------------------------------------
// The v1 session
// ---------------------------------------------------------------------------

/// Forwards one v1 request line to the shard owner, failing over down the
/// rendezvous ranking. Returns the raw reply line to relay.
fn forward_unary_v1(
    state: &RouterState,
    fingerprint_hex: &str,
    engine: &str,
    line: &str,
) -> String {
    let ranked = state.discovery.ranked(fingerprint_hex, engine);
    if ranked.is_empty() {
        return error_response(
            ErrorCode::NoBackend,
            "no live backend (register daemons with --register, or seed --backend)",
        )
        .encode();
    }
    for addr in &ranked {
        state.discovery.record_dispatch(addr);
        htsat_obs::counter!("router.forward.dispatched").inc();
        let result = v1_exchange(addr, line, &state.config.dial, None);
        state.discovery.record_done(addr);
        match result {
            Ok(reply) => {
                state.discovery.record_success(addr);
                return reply;
            }
            Err(e) => {
                htsat_obs::counter!("router.forward.failovers").inc();
                htsat_obs::warn!("backend {addr} failed ({e}); trying the next candidate");
                state.discovery.record_failure(addr);
            }
        }
    }
    error_response(ErrorCode::NoBackend, "every candidate backend failed").encode()
}

/// Serves one client connection. Starts in v1 lockstep; a `HELLO`
/// negotiating v2 hands the rest of the connection to [`session_v2`].
pub(crate) fn session(stream: TcpStream, state: &Arc<RouterState>) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let Ok(mut reader) = LineReader::new(reader_stream) else {
        return;
    };
    let mut writer = stream;
    let mut write_line = move |text: &str| -> bool {
        writer.write_all(text.as_bytes()).is_ok() && writer.write_all(b"\n").is_ok()
    };
    while let Some(line) = reader.next_line(&state.stop, None) {
        if line.trim().is_empty() {
            continue;
        }
        let msg = match Json::parse(&line) {
            Ok(msg) => msg,
            Err(e) => {
                let response = error_response(ErrorCode::BadJson, &format!("invalid JSON: {e}"));
                if !write_line(&response.encode()) {
                    return;
                }
                continue;
            }
        };
        let request = match Request::decode(&msg) {
            Ok(request) => request,
            Err(ProtoError(e)) => {
                let response = error_response(ErrorCode::BadRequest, &e);
                if !write_line(&response.encode()) {
                    return;
                }
                continue;
            }
        };
        let reply: String = match request {
            Request::Hello { version } => match version {
                PROTOCOL_V1 | PROTOCOL_V2 => {
                    let response = ok_response(vec![
                        ("version", version.into()),
                        ("max_version", PROTOCOL_MAX.into()),
                    ]);
                    if !write_line(&response.encode()) {
                        return;
                    }
                    if version == PROTOCOL_V2 {
                        return session_v2(reader, write_line, state);
                    }
                    continue;
                }
                other => error_response(
                    ErrorCode::BadRequest,
                    &format!(
                        "unsupported protocol version {other} (supported: \
                         {PROTOCOL_V1}..={PROTOCOL_MAX})"
                    ),
                )
                .encode(),
            },
            Request::Register { addr, ttl_ms } => handle_register(state, &addr, ttl_ms).encode(),
            Request::Status => aggregate_status(state).encode(),
            Request::Stats { reset } => aggregate_stats(state, reset).encode(),
            Request::Trace { last, verb, min_ms } => {
                aggregate_trace(state, last, verb, min_ms).encode()
            }
            Request::Evict {
                fingerprint,
                engine,
            } => broadcast_evict(state, fingerprint, engine).encode(),
            Request::Shutdown => {
                let response = broadcast_shutdown(state);
                let _ = write_line(&response.encode());
                state.stop.stop();
                return;
            }
            Request::Load {
                ref engine,
                ref source,
                ..
            } => match route_load(state, &line, &msg, engine, source) {
                Ok(route) => {
                    htsat_obs::counter!("router.requests.load").inc();
                    forward_unary_v1(state, &route.fingerprint_hex, &route.engine, &route.line)
                }
                Err((code, message)) => error_response(code, &message).encode(),
            },
            Request::Sample(ref params) => {
                htsat_obs::counter!("router.requests.sample").inc();
                forward_unary_v1(
                    state,
                    &params.fingerprint.to_hex(),
                    engine_of(&params.engine),
                    &line,
                )
            }
            Request::Subscribe(_) | Request::Credit { .. } | Request::Unsubscribe { .. } => {
                error_response(
                    ErrorCode::BadRequest,
                    "subscriptions need protocol v2 (negotiate with hello)",
                )
                .encode()
            }
        };
        if !write_line(&reply) {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// The v2 session
// ---------------------------------------------------------------------------

/// One routed in-flight request.
struct Inflight {
    /// Backend the request went to.
    backend: String,
    /// The forwarded wire line, kept for transparent re-dispatch.
    line: String,
    /// Shard key, for re-ranking on failover.
    fingerprint_hex: String,
    engine: String,
    /// Whether any output frame reached the client (once it has, the
    /// request cannot be silently re-routed).
    relayed: bool,
}

/// Subscription id translation: the router renumbers feeds because two
/// backends may both hand out `sub` 1.
#[derive(Default)]
struct SubTable {
    by_router: HashMap<u64, (String, u64)>,
    by_backend: HashMap<(String, u64), u64>,
}

/// One upstream v2 connection to a backend, shared by the session's
/// threads. Writes are line-atomic under the mutex; the paired reader
/// thread funnels every backend frame into the client's writer queue.
struct BackendConn {
    addr: String,
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl BackendConn {
    fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut stream = self.writer.lock().expect("backend writer lock");
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")
    }

    /// Closes the socket so the paired reader thread unblocks.
    fn close(&self) {
        if let Ok(stream) = self.writer.lock() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// State shared by a v2 session's reader, writer, backend-reader and
/// aggregation threads.
struct V2Shared {
    state: Arc<RouterState>,
    /// Outbound frames towards the client (drained by the writer thread).
    tx: SyncSender<String>,
    /// Fires when the session winds down (client EOF, write failure,
    /// router shutdown).
    stop: StopToken,
    inflight: Mutex<HashMap<u64, Inflight>>,
    subs: Mutex<SubTable>,
    conns: Mutex<HashMap<String, Arc<BackendConn>>>,
}

impl V2Shared {
    /// Queues a raw line for the client. Errors (writer gone) are
    /// ignored — the session is winding down.
    fn send_raw(&self, line: String) {
        let _ = self.tx.send(line);
    }

    fn send_frame(&self, frame: Json) {
        self.send_raw(frame.encode());
    }
}

/// Serves the v2 half of a connection. `write_line` is the lockstep
/// writer inherited from the v1 phase; it moves into the writer thread.
fn session_v2<W>(mut reader: LineReader, mut write_line: W, state: &Arc<RouterState>)
where
    W: FnMut(&str) -> bool + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::sync_channel::<String>(FRAME_QUEUE_DEPTH);
    let shared = Arc::new(V2Shared {
        state: state.clone(),
        tx,
        stop: StopToken::new(),
        inflight: Mutex::new(HashMap::new()),
        subs: Mutex::new(SubTable::default()),
        conns: Mutex::new(HashMap::new()),
    });
    let writer_stop = shared.stop.clone();
    let writer = std::thread::Builder::new()
        .name("htsat-router-writer".to_string())
        .spawn(move || {
            writer_loop(&rx, &mut write_line, &writer_stop);
        })
        .expect("spawn writer thread");
    while let Some(line) = reader.next_line(&state.stop, None) {
        if shared.stop.is_stopped() {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        if !v2_handle_line(&shared, &line) {
            break;
        }
    }
    // Teardown: closing the upstream connections is the cleanup — each
    // backend sees its client (this router session) disconnect and
    // reclaims feeds and in-flight work itself.
    shared.stop.stop();
    let conns: Vec<Arc<BackendConn>> = shared
        .conns
        .lock()
        .map(|mut map| map.drain().map(|(_, conn)| conn).collect())
        .unwrap_or_default();
    for conn in conns {
        conn.alive.store(false, Ordering::SeqCst);
        conn.close();
    }
    drop(shared);
    let _ = writer.join();
}

/// Drains the frame queue to the client until the queue closes or a write
/// fails.
fn writer_loop<W: FnMut(&str) -> bool>(
    rx: &Receiver<String>,
    write_line: &mut W,
    stop: &StopToken,
) {
    while let Ok(line) = rx.recv() {
        if !write_line(&line) {
            stop.stop();
            return;
        }
    }
}

/// Handles one client line in v2. Returns `false` to end the session.
fn v2_handle_line(shared: &Arc<V2Shared>, line: &str) -> bool {
    let state = &shared.state;
    let msg = match Json::parse(line) {
        Ok(msg) => msg,
        Err(e) => {
            shared.send_frame(frame_error(
                None,
                ErrorCode::BadJson,
                &format!("invalid JSON: {e}"),
            ));
            return true;
        }
    };
    let id = match request_id(&msg) {
        Ok(Some(id)) => id,
        Ok(None) => {
            shared.send_frame(frame_error(
                None,
                ErrorCode::BadRequest,
                "v2 requests must carry `id`",
            ));
            return true;
        }
        Err(ProtoError(e)) => {
            shared.send_frame(frame_error(None, ErrorCode::BadRequest, &e));
            return true;
        }
    };
    let request = match Request::decode(&msg) {
        Ok(request) => request,
        Err(ProtoError(e)) => {
            shared.send_frame(frame_error(Some(id), ErrorCode::BadRequest, &e));
            return true;
        }
    };
    match request {
        Request::Hello { .. } => {
            shared.send_frame(frame_error(
                Some(id),
                ErrorCode::BadRequest,
                "protocol version already negotiated",
            ));
        }
        Request::Register { addr, ttl_ms } => {
            let response = handle_register(state, &addr, ttl_ms);
            shared.send_frame(frame_from_response(id, &response));
        }
        Request::Status | Request::Stats { .. } | Request::Trace { .. } | Request::Evict { .. } => {
            // Aggregation dials every backend (bounded by the aggregate
            // timeout) — run it off the reader thread so pipelined
            // streams keep flowing.
            let worker = shared.clone();
            let _ = std::thread::Builder::new()
                .name("htsat-router-aggregate".to_string())
                .spawn(move || {
                    let response = match request {
                        Request::Status => aggregate_status(&worker.state),
                        Request::Stats { reset } => aggregate_stats(&worker.state, reset),
                        Request::Trace { last, verb, min_ms } => {
                            aggregate_trace(&worker.state, last, verb, min_ms)
                        }
                        Request::Evict {
                            fingerprint,
                            engine,
                        } => broadcast_evict(&worker.state, fingerprint, engine),
                        _ => unreachable!("matched above"),
                    };
                    worker.send_frame(frame_from_response(id, &response));
                });
        }
        Request::Shutdown => {
            let response = broadcast_shutdown(state);
            shared.send_frame(frame_from_response(id, &response));
            state.stop.stop();
            return false;
        }
        Request::Load {
            ref engine,
            ref source,
            ..
        } => match route_load(state, line, &msg, engine, source) {
            Ok(route) => {
                htsat_obs::counter!("router.requests.load").inc();
                dispatch_forward(
                    shared,
                    id,
                    route.line,
                    route.fingerprint_hex,
                    route.engine,
                    None,
                );
            }
            Err((code, message)) => {
                shared.send_frame(frame_error(Some(id), code, &message));
            }
        },
        Request::Sample(ref params) => {
            htsat_obs::counter!("router.requests.sample").inc();
            dispatch_forward(
                shared,
                id,
                line.to_string(),
                params.fingerprint.to_hex(),
                engine_of(&params.engine).to_string(),
                None,
            );
        }
        Request::Subscribe(ref params) => {
            htsat_obs::counter!("router.requests.subscribe").inc();
            dispatch_forward(
                shared,
                id,
                line.to_string(),
                params.fingerprint.to_hex(),
                engine_of(&params.engine).to_string(),
                None,
            );
        }
        Request::Credit { sub, .. } | Request::Unsubscribe { sub } => {
            forward_sub_control(
                shared,
                id,
                sub,
                &msg,
                matches!(request, Request::Unsubscribe { .. }),
            );
        }
    }
    true
}

/// Forwards a `CREDIT`/`UNSUBSCRIBE` to the backend owning the feed,
/// rewriting the router's `sub` back to the backend's own id.
fn forward_sub_control(shared: &Arc<V2Shared>, id: u64, sub: u64, msg: &Json, unsubscribe: bool) {
    let target = {
        let mut subs = shared.subs.lock().expect("subs lock");
        let target = subs.by_router.get(&sub).cloned();
        if unsubscribe {
            // Drop the mapping now: trailing pushed frames racing the
            // unsubscribe are discarded, matching the feed's own "ended"
            // semantics.
            if let Some((addr, backend_sub)) = &target {
                subs.by_router.remove(&sub);
                subs.by_backend.remove(&(addr.clone(), *backend_sub));
            }
        }
        target
    };
    let Some((addr, backend_sub)) = target else {
        shared.send_frame(frame_error(
            Some(id),
            ErrorCode::BadRequest,
            &format!("unknown subscription `{sub}` (ended or never opened here)"),
        ));
        return;
    };
    let conn = shared
        .conns
        .lock()
        .ok()
        .and_then(|map| map.get(&addr).cloned())
        .filter(|conn| conn.alive.load(Ordering::SeqCst));
    let Some(conn) = conn else {
        shared.send_frame(frame_error(
            Some(id),
            ErrorCode::BackendLost,
            "the backend owning this subscription is gone",
        ));
        return;
    };
    let rewritten = with_sub(msg.clone(), backend_sub).encode();
    if conn.write_line(&rewritten).is_err() {
        handle_backend_loss(shared, &conn);
        shared.send_frame(frame_error(
            Some(id),
            ErrorCode::BackendLost,
            "the backend owning this subscription is gone",
        ));
    }
}

/// Routes one id-tagged request to the shard owner (or the next live
/// candidate), registering it in the in-flight map *before* the line goes
/// out so the backend reader can attribute every frame. `exclude` skips a
/// backend that just died during transparent re-dispatch.
fn dispatch_forward(
    shared: &Arc<V2Shared>,
    id: u64,
    line: String,
    fingerprint_hex: String,
    engine: String,
    exclude: Option<&str>,
) {
    {
        let inflight = shared.inflight.lock().expect("inflight lock");
        if inflight.contains_key(&id) {
            drop(inflight);
            shared.send_frame(frame_error(
                Some(id),
                ErrorCode::BadRequest,
                &format!("duplicate in-flight id {id}"),
            ));
            return;
        }
    }
    let ranked = shared.state.discovery.ranked(&fingerprint_hex, &engine);
    let candidates: Vec<&String> = ranked
        .iter()
        .filter(|addr| exclude.is_none_or(|dead| addr.as_str() != dead))
        .collect();
    if candidates.is_empty() {
        shared.send_frame(frame_error(
            Some(id),
            ErrorCode::NoBackend,
            "no live backend (register daemons with --register, or seed --backend)",
        ));
        return;
    }
    for addr in candidates {
        let conn = match ensure_conn(shared, addr) {
            Ok(conn) => conn,
            Err(e) => {
                htsat_obs::counter!("router.forward.failovers").inc();
                htsat_obs::warn!("cannot reach backend {addr}: {e}; trying the next candidate");
                shared.state.discovery.record_failure(addr);
                continue;
            }
        };
        {
            let mut inflight = shared.inflight.lock().expect("inflight lock");
            inflight.insert(
                id,
                Inflight {
                    backend: addr.clone(),
                    line: line.clone(),
                    fingerprint_hex: fingerprint_hex.clone(),
                    engine: engine.clone(),
                    relayed: false,
                },
            );
        }
        shared.state.discovery.record_dispatch(addr);
        htsat_obs::counter!("router.forward.dispatched").inc();
        if let Err(e) = conn.write_line(&line) {
            htsat_obs::warn!("write to backend {addr} failed: {e}");
            {
                let mut inflight = shared.inflight.lock().expect("inflight lock");
                inflight.remove(&id);
            }
            shared.state.discovery.record_done(addr);
            handle_backend_loss(shared, &conn);
            continue;
        }
        return;
    }
    shared.send_frame(frame_error(
        Some(id),
        ErrorCode::NoBackend,
        "every candidate backend failed",
    ));
}

/// The session's upstream v2 connection to `addr`, dialing and
/// negotiating (and spawning the paired reader thread) on first use.
fn ensure_conn(shared: &Arc<V2Shared>, addr: &str) -> std::io::Result<Arc<BackendConn>> {
    if let Some(conn) = shared
        .conns
        .lock()
        .ok()
        .and_then(|map| map.get(addr).cloned())
    {
        if conn.alive.load(Ordering::SeqCst) {
            return Ok(conn);
        }
    }
    let stream = dial(addr, &shared.state.config.dial)?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = LineReader::new(stream.try_clone()?)?;
    // Negotiate v2 with the backend (the reply is v1-framed).
    let hello = Request::Hello {
        version: PROTOCOL_V2,
    }
    .encode()
    .encode();
    {
        let mut writer = stream.try_clone()?;
        writer.write_all(hello.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    let reply = reader
        .next_line(&shared.stop, Some(Instant::now() + HANDSHAKE_TIMEOUT))
        .ok_or_else(|| {
            std::io::Error::new(ErrorKind::TimedOut, format!("{addr}: no hello reply"))
        })?;
    let accepted = Json::parse(&reply)
        .ok()
        .and_then(|msg| msg.get("ok").and_then(Json::as_bool))
        == Some(true);
    if !accepted {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("{addr} rejected the v2 handshake"),
        ));
    }
    let conn = Arc::new(BackendConn {
        addr: addr.to_string(),
        writer: Mutex::new(stream),
        alive: AtomicBool::new(true),
    });
    {
        let mut conns = shared.conns.lock().expect("conns lock");
        if let Some(existing) = conns.get(addr) {
            if existing.alive.load(Ordering::SeqCst) {
                // Lost a benign race; use the established connection.
                conn.close();
                return Ok(existing.clone());
            }
        }
        conns.insert(addr.to_string(), conn.clone());
    }
    let reader_shared = shared.clone();
    let reader_conn = conn.clone();
    std::thread::Builder::new()
        .name("htsat-router-upstream".to_string())
        .spawn(move || backend_reader(&reader_shared, &reader_conn, reader))
        .map_err(|e| std::io::Error::other(format!("cannot spawn reader: {e}")))?;
    Ok(conn)
}

/// Funnels one backend's frames to the client, renumbering subscription
/// ids and keeping the in-flight map honest. Frames that need no rewrite
/// are relayed as the backend's raw bytes.
fn backend_reader(shared: &Arc<V2Shared>, conn: &Arc<BackendConn>, mut reader: LineReader) {
    while let Some(line) = reader.next_line(&shared.stop, None) {
        if !conn.alive.load(Ordering::SeqCst) {
            return;
        }
        let Ok(msg) = Json::parse(&line) else {
            // A backend emitting junk is as good as dead.
            break;
        };
        let frame = msg.get("frame").and_then(Json::as_str).unwrap_or("");
        let id = request_id(&msg).ok().flatten();
        if let Some(backend_sub) = field_sub(&msg) {
            if let Some(id) = id {
                // A reply that carries both `id` and `sub` opens a feed:
                // mint the router-side id and start translating.
                let removed = {
                    let mut inflight = shared.inflight.lock().expect("inflight lock");
                    inflight.remove(&id)
                };
                if removed.is_some() {
                    shared.state.discovery.record_done(&conn.addr);
                }
                let router_sub = shared.state.next_sub.fetch_add(1, Ordering::Relaxed);
                {
                    let mut subs = shared.subs.lock().expect("subs lock");
                    subs.by_router
                        .insert(router_sub, (conn.addr.clone(), backend_sub));
                    subs.by_backend
                        .insert((conn.addr.clone(), backend_sub), router_sub);
                }
                shared.send_frame(with_sub(msg, router_sub));
            } else {
                // Feed-addressed frame (`pushed`, feed `done`/`error`).
                let router_sub = {
                    let mut subs = shared.subs.lock().expect("subs lock");
                    let key = (conn.addr.clone(), backend_sub);
                    let router_sub = subs.by_backend.get(&key).copied();
                    if matches!(frame, "done" | "error") {
                        if let Some(router_sub) = router_sub {
                            subs.by_backend.remove(&key);
                            subs.by_router.remove(&router_sub);
                        }
                    }
                    router_sub
                };
                if let Some(router_sub) = router_sub {
                    shared.send_frame(with_sub(msg, router_sub));
                } // else: ended locally (e.g. just unsubscribed) — drop.
            }
            continue;
        }
        if let Some(id) = id {
            if matches!(frame, "reply" | "done" | "error") {
                let removed = {
                    let mut inflight = shared.inflight.lock().expect("inflight lock");
                    inflight.remove(&id)
                };
                if removed.is_some() {
                    shared.state.discovery.record_done(&conn.addr);
                }
            } else {
                let mut inflight = shared.inflight.lock().expect("inflight lock");
                if let Some(entry) = inflight.get_mut(&id) {
                    entry.relayed = true;
                }
            }
        }
        shared.send_raw(line);
    }
    if conn.alive.load(Ordering::SeqCst) && !shared.stop.is_stopped() {
        handle_backend_loss(shared, conn);
    }
}

/// A backend connection died. Orphaned requests that produced no output
/// yet are transparently re-dispatched down the rendezvous ranking;
/// anything mid-stream gets a terminal `backend-lost` error (the client
/// re-issues and — same seed — receives the identical stream). Feeds on
/// the dead backend end with a feed-addressed `backend-lost` error.
fn handle_backend_loss(shared: &Arc<V2Shared>, conn: &Arc<BackendConn>) {
    if !conn.alive.swap(false, Ordering::SeqCst) {
        return; // already handled
    }
    conn.close();
    if let Ok(mut conns) = shared.conns.lock() {
        if conns
            .get(&conn.addr)
            .is_some_and(|current| Arc::ptr_eq(current, conn))
        {
            conns.remove(&conn.addr);
        }
    }
    shared.state.discovery.record_failure(&conn.addr);
    htsat_obs::counter!("router.backends.lost").inc();
    htsat_obs::warn!("backend {} lost", conn.addr);
    if shared.stop.is_stopped() {
        return;
    }
    let orphaned: Vec<(u64, Inflight)> = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        let ids: Vec<u64> = inflight
            .iter()
            .filter(|(_, entry)| entry.backend == conn.addr)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| inflight.remove(&id).map(|entry| (id, entry)))
            .collect()
    };
    let lost_feeds: Vec<u64> = {
        let mut subs = shared.subs.lock().expect("subs lock");
        let routers: Vec<u64> = subs
            .by_router
            .iter()
            .filter(|(_, (addr, _))| *addr == conn.addr)
            .map(|(&router_sub, _)| router_sub)
            .collect();
        for router_sub in &routers {
            if let Some((addr, backend_sub)) = subs.by_router.remove(router_sub) {
                subs.by_backend.remove(&(addr, backend_sub));
            }
        }
        routers
    };
    for router_sub in lost_feeds {
        shared.send_frame(frame_feed_error(
            router_sub,
            ErrorCode::BackendLost,
            "the backend feeding this subscription is gone",
        ));
    }
    for (id, entry) in orphaned {
        shared.state.discovery.record_done(&conn.addr);
        if entry.relayed {
            shared.send_frame(frame_error(
                Some(id),
                ErrorCode::BackendLost,
                "backend lost mid-stream; re-issue the request to re-route",
            ));
        } else {
            htsat_obs::counter!("router.forward.failovers").inc();
            dispatch_forward(
                shared,
                id,
                entry.line,
                entry.fingerprint_hex,
                entry.engine,
                Some(&conn.addr),
            );
        }
    }
}
