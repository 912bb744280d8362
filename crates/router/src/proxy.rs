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
use htsat_cnf::Fingerprint;
use htsat_json::Json;
use htsat_obs::trace::{TraceFilter, TraceReport};
use htsat_obs::{Snapshot, TraceId};
use htsat_runtime::StopToken;
use htsat_serve::conn::{self, LineReader, RequestLine, FRAME_QUEUE_DEPTH};
use htsat_serve::dial;
use htsat_serve::proto::{
    encode_u64_exact, error_response, frame_error, frame_feed_error, frame_from_response,
    frame_traced, ok_response, request_id, ErrorCode, LoadSource, Request, DEFAULT_ENGINE,
    DEFAULT_REGISTER_TTL_MS, PROTOCOL_V2,
};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a backend gets to answer the router's `HELLO`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Read timeout of one aggregation exchange per backend.
const AGGREGATE_IO_TIMEOUT: Duration = Duration::from_secs(5);

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

/// A formula-addressed request on its way to a shard owner: everything
/// needed to (re-)dispatch it down the rendezvous ranking.
#[derive(Clone)]
struct Forward {
    /// The forwarded wire line.
    line: String,
    /// Shard key: fingerprint and engine.
    fingerprint_hex: String,
    engine: String,
    /// The client's trace id, echoed on frames the router composes for
    /// this request (the backend echoes it on its own).
    trace: Option<TraceId>,
}

impl Forward {
    /// Forwards `line` verbatim, sharded by (`fingerprint`, `engine`).
    fn verbatim(
        line: &str,
        fingerprint: &Fingerprint,
        engine: &Option<String>,
        trace: Option<TraceId>,
    ) -> Forward {
        Forward {
            line: line.to_string(),
            fingerprint_hex: fingerprint.to_hex(),
            engine: engine.as_deref().unwrap_or(DEFAULT_ENGINE).to_string(),
            trace,
        }
    }
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
) -> Result<Forward, (ErrorCode, String)> {
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
                Err(e) => return Err((ErrorCode::Io, format!("cannot read `{path}`: {e}"))),
            }
        }
    };
    let cnf = htsat_cnf::dimacs::parse_str(&text).map_err(|e| {
        (
            ErrorCode::TransformFailed,
            format!("DIMACS parse error: {e}"),
        )
    })?;
    let mut forward = Forward::verbatim(raw, &Fingerprint::of(&cnf), engine, None);
    if rewrite {
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
        forward.line = Json::Obj(rewritten).encode();
    }
    Ok(forward)
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
            let timeout = Some(AGGREGATE_IO_TIMEOUT);
            let result = conn::v1_exchange(&addr, line, &state.config.dial, &state.stop, timeout)
                .and_then(|reply| conn::parse_reply(&reply));
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
fn forward_unary_v1(state: &RouterState, forward: &Forward) -> String {
    let ranked = state
        .discovery
        .ranked(&forward.fingerprint_hex, &forward.engine);
    if ranked.is_empty() {
        return error_response(ErrorCode::NoBackend, NO_LIVE_BACKEND).encode();
    }
    for addr in &ranked {
        state.discovery.record_dispatch(addr);
        htsat_obs::counter!("router.forward.dispatched").inc();
        // Not the router's stop token: aborting a relayed v1 reply at
        // shutdown would be misread as a backend failure.
        let never = StopToken::new();
        let result = conn::v1_exchange(addr, &forward.line, &state.config.dial, &never, None);
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
    error_response(ErrorCode::NoBackend, EVERY_CANDIDATE_FAILED).encode()
}

/// The `no-backend` message when the shard has no live candidate.
const NO_LIVE_BACKEND: &str =
    "no live backend (register daemons with --register, or seed --backend)";

/// The `no-backend` message when every candidate failed the dispatch.
const EVERY_CANDIDATE_FAILED: &str = "every candidate backend failed";

/// Serves one client connection. Starts in v1 lockstep; a `HELLO`
/// negotiating v2 hands the rest of the connection to [`session_v2`].
pub(crate) fn session(stream: TcpStream, state: &Arc<RouterState>) {
    state.connections_served.fetch_add(1, Ordering::Relaxed);
    htsat_obs::counter!("router.connections.total").inc();
    let Ok((mut writer, mut reader)) = conn::split(stream) else {
        return;
    };
    while let Some(line) = reader.next_line(&state.stop, None) {
        if line.trim().is_empty() {
            continue;
        }
        let reply = match conn::decode_v1(&line) {
            Err(response) => response.encode(),
            Ok(RequestLine {
                request: Request::Hello { version },
                ..
            }) => {
                let (response, upgrade) = conn::hello_reply(version);
                if upgrade {
                    if conn::write_line(&mut writer, response.encode()).is_ok() {
                        session_v2(reader, writer, state);
                    }
                    return;
                }
                response.encode()
            }
            Ok(RequestLine {
                request: Request::Shutdown,
                ..
            }) => {
                let _ = conn::write_line(&mut writer, broadcast_shutdown(state).encode());
                state.stop.stop();
                return;
            }
            Ok(decoded) => answer_v1(state, &line, &decoded),
        };
        if conn::write_line(&mut writer, reply).is_err() {
            return;
        }
    }
}

/// The v1 reply line to one decoded request other than `HELLO` and
/// `SHUTDOWN` (which change the session itself).
fn answer_v1(state: &RouterState, line: &str, decoded: &RequestLine) -> String {
    match &decoded.request {
        Request::Register { addr, ttl_ms } => handle_register(state, addr, *ttl_ms).encode(),
        Request::Status => aggregate_status(state).encode(),
        Request::Stats { reset } => aggregate_stats(state, *reset).encode(),
        Request::Trace { last, verb, min_ms } => {
            aggregate_trace(state, *last, verb.clone(), *min_ms).encode()
        }
        Request::Evict {
            fingerprint,
            engine,
        } => broadcast_evict(state, *fingerprint, engine.clone()).encode(),
        Request::Load { engine, source, .. } => {
            match route_load(state, line, &decoded.msg, engine, source) {
                Ok(forward) => {
                    htsat_obs::counter!("router.requests.load").inc();
                    forward_unary_v1(state, &forward)
                }
                Err((code, message)) => error_response(code, &message).encode(),
            }
        }
        Request::Sample(params) => {
            htsat_obs::counter!("router.requests.sample").inc();
            let forward = Forward::verbatim(line, &params.fingerprint, &params.engine, None);
            forward_unary_v1(state, &forward)
        }
        request
        @ (Request::Subscribe(_) | Request::Credit { .. } | Request::Unsubscribe { .. }) => {
            conn::v2_only(request).encode()
        }
        Request::Hello { .. } | Request::Shutdown => unreachable!("answered by the session"),
    }
}

// ---------------------------------------------------------------------------
// The v2 session
// ---------------------------------------------------------------------------

/// One routed in-flight request.
struct Inflight {
    /// Backend the request went to.
    backend: String,
    /// The request, kept for transparent re-dispatch.
    forward: Forward,
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
    fn write_line(&self, line: String) -> std::io::Result<()> {
        conn::write_line(&mut *self.writer.lock().expect("backend writer lock"), line)
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

    /// Queues a frame the router composed, echoing the request's trace id
    /// (`None` for untraced requests and feed-addressed frames).
    fn send_frame(&self, frame: Json, trace: Option<TraceId>) {
        self.send_raw(frame_traced(frame, trace).encode());
    }
}

/// Serves the v2 half of a connection; `writer` moves into the writer
/// thread, the only place the client socket is written from now on.
fn session_v2(mut reader: LineReader, writer: TcpStream, state: &Arc<RouterState>) {
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
        .spawn(move || writer_loop(&rx, writer, &writer_stop))
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
/// fails. Unlike the daemon's writer it records no `serve.*` metrics, so a
/// fleet-wide `STATS` merge never counts a frame twice.
fn writer_loop(rx: &Receiver<String>, mut writer: TcpStream, stop: &StopToken) {
    while let Ok(line) = rx.recv() {
        if conn::write_line(&mut writer, line).is_err() {
            stop.stop();
            return;
        }
    }
}

/// Handles one client line in v2. Returns `false` to end the session.
fn v2_handle_line(shared: &Arc<V2Shared>, line: &str) -> bool {
    let state = &shared.state;
    let (id, decoded) = match conn::decode_v2(line) {
        Ok(decoded) => decoded,
        Err(frame) => {
            shared.send_frame(frame, None);
            return true;
        }
    };
    let trace = decoded.trace;
    match &decoded.request {
        Request::Hello { .. } => shared.send_frame(conn::hello_again(id), trace),
        Request::Register { addr, ttl_ms } => {
            let response = handle_register(state, addr, *ttl_ms);
            shared.send_frame(frame_from_response(id, &response), trace);
        }
        Request::Status | Request::Stats { .. } | Request::Trace { .. } | Request::Evict { .. } => {
            // Aggregation dials every backend (bounded by the aggregate
            // timeout) — run it off the reader thread so pipelined
            // streams keep flowing.
            let worker = shared.clone();
            let request = decoded.request;
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
                    worker.send_frame(frame_from_response(id, &response), trace);
                });
        }
        Request::Shutdown => {
            let response = broadcast_shutdown(state);
            shared.send_frame(frame_from_response(id, &response), trace);
            state.stop.stop();
            return false;
        }
        Request::Load { engine, source, .. } => {
            match route_load(state, line, &decoded.msg, engine, source) {
                Ok(forward) => {
                    htsat_obs::counter!("router.requests.load").inc();
                    dispatch_forward(shared, id, Forward { trace, ..forward }, None);
                }
                Err((code, message)) => {
                    shared.send_frame(frame_error(Some(id), code, &message), trace);
                }
            }
        }
        Request::Sample(params) => {
            htsat_obs::counter!("router.requests.sample").inc();
            let forward = Forward::verbatim(line, &params.fingerprint, &params.engine, trace);
            dispatch_forward(shared, id, forward, None);
        }
        Request::Subscribe(params) => {
            htsat_obs::counter!("router.requests.subscribe").inc();
            let forward = Forward::verbatim(line, &params.fingerprint, &params.engine, trace);
            dispatch_forward(shared, id, forward, None);
        }
        Request::Credit { sub, .. } | Request::Unsubscribe { sub } => {
            let unsubscribe = matches!(decoded.request, Request::Unsubscribe { .. });
            forward_sub_control(shared, id, *sub, &decoded, unsubscribe);
        }
    }
    true
}

/// Forwards a `CREDIT`/`UNSUBSCRIBE` to the backend owning the feed,
/// rewriting the router's `sub` back to the backend's own id.
fn forward_sub_control(
    shared: &Arc<V2Shared>,
    id: u64,
    sub: u64,
    decoded: &RequestLine,
    unsubscribe: bool,
) {
    let trace = decoded.trace;
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
        shared.send_frame(conn::unknown_sub(id, sub), trace);
        return;
    };
    let lost = || {
        frame_error(
            Some(id),
            ErrorCode::BackendLost,
            "the backend owning this subscription is gone",
        )
    };
    let conn = shared
        .conns
        .lock()
        .ok()
        .and_then(|map| map.get(&addr).cloned())
        .filter(|conn| conn.alive.load(Ordering::SeqCst));
    let Some(conn) = conn else {
        shared.send_frame(lost(), trace);
        return;
    };
    let rewritten = with_sub(decoded.msg.clone(), backend_sub).encode();
    if conn.write_line(rewritten).is_err() {
        handle_backend_loss(shared, &conn);
        shared.send_frame(lost(), trace);
    }
}

/// Routes one id-tagged request to the shard owner (or the next live
/// candidate), registering it in the in-flight map *before* the line goes
/// out so the backend reader can attribute every frame. `exclude` skips a
/// backend that just died during transparent re-dispatch.
fn dispatch_forward(shared: &Arc<V2Shared>, id: u64, forward: Forward, exclude: Option<&str>) {
    let trace = forward.trace;
    if shared
        .inflight
        .lock()
        .expect("inflight lock")
        .contains_key(&id)
    {
        shared.send_frame(conn::duplicate_id(id), trace);
        return;
    }
    let ranked = shared
        .state
        .discovery
        .ranked(&forward.fingerprint_hex, &forward.engine);
    let candidates: Vec<&String> = ranked
        .iter()
        .filter(|addr| exclude.is_none_or(|dead| addr.as_str() != dead))
        .collect();
    if candidates.is_empty() {
        let frame = frame_error(Some(id), ErrorCode::NoBackend, NO_LIVE_BACKEND);
        shared.send_frame(frame, trace);
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
        let line = forward.line.clone();
        shared.inflight.lock().expect("inflight lock").insert(
            id,
            Inflight {
                backend: addr.clone(),
                forward: forward.clone(),
                relayed: false,
            },
        );
        shared.state.discovery.record_dispatch(addr);
        htsat_obs::counter!("router.forward.dispatched").inc();
        if let Err(e) = conn.write_line(line) {
            htsat_obs::warn!("write to backend {addr} failed: {e}");
            shared.inflight.lock().expect("inflight lock").remove(&id);
            shared.state.discovery.record_done(addr);
            handle_backend_loss(shared, &conn);
            continue;
        }
        return;
    }
    let frame = frame_error(Some(id), ErrorCode::NoBackend, EVERY_CANDIDATE_FAILED);
    shared.send_frame(frame, trace);
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
    let (mut stream, mut reader) = conn::split(dial(addr, &shared.state.config.dial)?)?;
    // Negotiate v2 with the backend (the reply is v1-framed).
    let hello = Request::Hello {
        version: PROTOCOL_V2,
    }
    .encode()
    .encode();
    let timeout = Some(HANDSHAKE_TIMEOUT);
    let reply = conn::exchange(&mut stream, &mut reader, &hello, &shared.stop, timeout)?;
    conn::expect_ok(&reply)?;
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
                shared.send_frame(with_sub(msg, router_sub), None);
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
                    shared.send_frame(with_sub(msg, router_sub), None);
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
        let frame = frame_feed_error(
            router_sub,
            ErrorCode::BackendLost,
            "the backend feeding this subscription is gone",
        );
        shared.send_frame(frame, None);
    }
    for (id, entry) in orphaned {
        shared.state.discovery.record_done(&conn.addr);
        if entry.relayed {
            let frame = frame_error(
                Some(id),
                ErrorCode::BackendLost,
                "backend lost mid-stream; re-issue the request to re-route",
            );
            shared.send_frame(frame, entry.forward.trace);
        } else {
            htsat_obs::counter!("router.forward.failovers").inc();
            dispatch_forward(shared, id, entry.forward, Some(&conn.addr));
        }
    }
}
