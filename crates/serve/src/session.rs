//! Per-connection sessions: the v1 lockstep loop, `HELLO` negotiation, and
//! the v2 multiplexed reader/writer split.
//!
//! Every connection starts in **v1** — one request line in, one response
//! line out, bit-for-bit the pre-v2 daemon — and stays there unless the
//! client negotiates v2 with `HELLO`. After the upgrade the connection
//! splits into:
//!
//! * a **reader** (this thread): parses tagged request lines, answers
//!   cheap verbs inline, and spawns a worker thread per `LOAD`/`SAMPLE`
//!   so slow requests never block the line;
//! * a single **writer** thread draining a bounded frame queue — the one
//!   place the socket is written, so interleaved frames from concurrent
//!   workers and feed producers never tear;
//! * per-request **workers**: `SAMPLE` streams incremental `chunk` frames
//!   straight off its [`EngineStream`](htsat_core::EngineStream) as rounds
//!   complete, then a terminal `done` (or `error` code `shutdown` when the
//!   daemon stops mid-stream).
//!
//! Backpressure is the frame queue's bound: a worker with a full queue
//! blocks (its own request slows down), while `SUBSCRIBE` feed producers
//! only ever `try_send` — a slow subscriber stalls itself, never the
//! trajectory (see [`crate::feed`]). The queue depth observed at every
//! enqueue is sampled into the `serve.write_queue_depth` histogram, and
//! the time each frame waits in the queue into `serve.worker.queue_wait`.
//!
//! # Request-scoped tracing
//!
//! Each request may record a span timeline into the `htsat_obs::trace`
//! ring: always when the client supplied a `"trace"` id, otherwise
//! whenever the sampling knob elects it. The session owns the timeline's
//! lifecycle: the reader starts it (and records a `serve.reader` span for
//! its share of the work), the worker installs it as the thread-local
//! current trace — so the `serve.request` span and every engine-round
//! span beneath it bind to the owning request automatically — and frames
//! carry the handle through the queue to the writer, which splits out
//! queue-wait vs. serialize vs. write time and *finishes* the timeline
//! after writing the request's terminal frame (firing the slow-request
//! WARN when `--trace-slow-ms` is configured). Client-supplied trace ids
//! are echoed as a `"trace"` key on every v2 frame of that request;
//! untraced requests and all v1 responses keep the pre-trace wire shape
//! bit-for-bit.

use crate::conn::{self, LineReader, RequestLine, FRAME_QUEUE_DEPTH};
use crate::feed::Feed;
use crate::json::Json;
use crate::proto::{
    frame_chunk, frame_done, frame_error, frame_from_response, frame_reply, frame_traced,
    ErrorCode, Request, SampleParams,
};
use crate::server::{
    admit_sample, dispatch_request, note_response, sample_tail_payload, AdmittedSample, ServerState,
};
use htsat_obs::trace::{self, SpanName, TraceHandle};
use htsat_obs::TraceId;
use htsat_runtime::StopToken;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Pre-interned trace span names, resolved once per process so the
/// per-request path never takes the intern lock.
struct TraceNames {
    hello: SpanName,
    load: SpanName,
    sample: SpanName,
    status: SpanName,
    stats: SpanName,
    evict: SpanName,
    shutdown: SpanName,
    subscribe: SpanName,
    credit: SpanName,
    unsubscribe: SpanName,
    trace: SpanName,
    register: SpanName,
    reader: SpanName,
    queue_wait: SpanName,
    serialize: SpanName,
    write: SpanName,
}

fn trace_names() -> &'static TraceNames {
    static NAMES: OnceLock<TraceNames> = OnceLock::new();
    NAMES.get_or_init(|| TraceNames {
        hello: trace::span_name("hello"),
        load: trace::span_name("load"),
        sample: trace::span_name("sample"),
        status: trace::span_name("status"),
        stats: trace::span_name("stats"),
        evict: trace::span_name("evict"),
        shutdown: trace::span_name("shutdown"),
        subscribe: trace::span_name("subscribe"),
        credit: trace::span_name("credit"),
        unsubscribe: trace::span_name("unsubscribe"),
        trace: trace::span_name("trace"),
        register: trace::span_name("register"),
        reader: trace::span_name("serve.reader"),
        queue_wait: trace::span_name("serve.worker.queue_wait"),
        serialize: trace::span_name("serve.writer.serialize"),
        write: trace::span_name("serve.writer.write"),
    })
}

/// The wire verb a timeline is filed (and `TRACE`-filtered) under.
fn verb_name(request: &Request) -> SpanName {
    let names = trace_names();
    match request {
        Request::Hello { .. } => names.hello,
        Request::Load { .. } => names.load,
        Request::Sample(_) => names.sample,
        Request::Status => names.status,
        Request::Stats { .. } => names.stats,
        Request::Evict { .. } => names.evict,
        Request::Shutdown => names.shutdown,
        Request::Subscribe(_) => names.subscribe,
        Request::Credit { .. } => names.credit,
        Request::Unsubscribe { .. } => names.unsubscribe,
        Request::Trace { .. } => names.trace,
        Request::Register { .. } => names.register,
    }
}

/// One request's trace context, minted by the reader and carried (it is
/// `Copy`) to the worker and writer.
#[derive(Clone, Copy)]
pub(crate) struct RequestTrace {
    /// The timeline's id: client-supplied, or minted by the sampler.
    id: TraceId,
    /// Echo `"trace"` on this request's v2 frames — only for
    /// client-supplied ids, so untraced clients see unchanged frames.
    echo: bool,
    /// The claimed ring slot; `None` when the ring was momentarily full
    /// (the id is still echoed, nothing is recorded).
    handle: Option<TraceHandle>,
}

/// Starts a timeline for one decoded request: always when the client
/// supplied an explicit trace id, otherwise when the sampling knob elects
/// it. `None` means the request is not traced at all.
fn begin_trace(
    request: &Request,
    explicit: Option<TraceId>,
    request_id: u64,
) -> Option<RequestTrace> {
    let (id, echo) = match explicit {
        Some(id) => (id, true),
        None => {
            if !trace::should_sample() {
                return None;
            }
            (TraceId::mint(), false)
        }
    };
    Some(RequestTrace {
        id,
        echo,
        handle: trace::start(id, verb_name(request), request_id),
    })
}

/// The configured slow-request WARN threshold in nanoseconds.
fn trace_slow_ns(state: &ServerState) -> Option<u64> {
    state
        .config
        .trace_slow_ms
        .map(|ms| ms.saturating_mul(1_000_000))
}

/// Finishes a timeline, logging the structured slow-request WARN (with
/// the full timeline document) when it crossed the configured threshold.
fn finish_trace(handle: TraceHandle, slow_ns: Option<u64>) {
    let (total_ns, slow) = trace::finish(handle, slow_ns);
    if let Some(timeline) = slow {
        // The WARN path may allocate freely: it only runs for requests
        // already past the slowness threshold.
        let report = trace::TraceReport {
            timelines: vec![timeline],
            dropped_traces: 0,
        };
        let t = &report.timelines[0];
        htsat_obs::warn!(
            "slow request trace={} verb={} total_ms={:.3} {}",
            t.trace.to_hex(),
            t.verb,
            total_ns as f64 / 1e6,
            report.to_json().encode()
        );
    }
}

/// Records the reader thread's share of a request (parse + inline
/// handling or worker spawn) into its timeline.
fn record_reader_span(rt: Option<RequestTrace>, start_ns: u64) {
    if let Some(handle) = rt.and_then(|t| t.handle) {
        trace::record_span(
            handle,
            trace_names().reader,
            start_ns,
            trace::timestamp_ns().saturating_sub(start_ns),
        );
    }
}

/// RAII level of concurrently open connections: the gauge rises on session
/// entry and falls on every exit path (EOF, shutdown, write failure).
struct ConnectionGauge;

impl ConnectionGauge {
    fn enter() -> ConnectionGauge {
        htsat_obs::gauge!("serve.connections.active").inc();
        ConnectionGauge
    }
}

impl Drop for ConnectionGauge {
    fn drop(&mut self) {
        htsat_obs::gauge!("serve.connections.active").dec();
    }
}

/// RAII level of in-flight worker requests (v1 blocking `SAMPLE`s and v2
/// `LOAD`/`SAMPLE` workers alike): the `serve.inflight` gauge.
struct InflightGauge;

impl InflightGauge {
    fn enter() -> InflightGauge {
        htsat_obs::gauge!("serve.inflight").inc();
        InflightGauge
    }
}

impl Drop for InflightGauge {
    fn drop(&mut self) {
        htsat_obs::gauge!("serve.inflight").dec();
    }
}

/// Serves one connection, starting in the v1 lockstep loop. A `HELLO`
/// negotiating version 2 hands the transport to [`session_v2`] and never
/// comes back.
pub(crate) fn session(stream: TcpStream, state: &Arc<ServerState>) {
    let _active = ConnectionGauge::enter();
    state.connections_served.fetch_add(1, Ordering::Relaxed);
    htsat_obs::counter!("serve.connections.total").inc();
    let Ok((mut writer, mut reader)) = conn::split(stream) else {
        return;
    };
    let slow_ns = trace_slow_ns(state);
    // v1 requests carry no wire id; a per-connection sequence number
    // stands in as the timeline's request id.
    let mut request_seq: u64 = 0;
    loop {
        let Some(line) = reader.next_line(&state.stop, None) else {
            return;
        };
        htsat_obs::counter!("serve.bytes_in").add(line.len() as u64);
        if line.trim().is_empty() {
            continue;
        }
        request_seq += 1;
        let (response, action, rt) = dispatch_v1_line(&line, state, request_seq);
        note_response(&response);
        let text = response.encode();
        htsat_obs::counter!("serve.bytes_out").add(text.len() as u64 + 1);
        let write_start = trace::timestamp_ns();
        let write_failed = conn::write_line(&mut writer, text).is_err();
        if let Some(handle) = rt.and_then(|t| t.handle) {
            // v1 is lockstep: this thread wrote the response itself, so it
            // records the write span and closes the timeline in place.
            trace::record_span(
                handle,
                trace_names().write,
                write_start,
                trace::timestamp_ns().saturating_sub(write_start),
            );
            finish_trace(handle, slow_ns);
        }
        if write_failed {
            return;
        }
        match action {
            V1Action::Continue => {}
            V1Action::Shutdown => {
                // Acknowledge first, then stop the world: the master flag
                // ends the accept loop, the stop set cancels in-flight
                // streams on other sessions.
                state.stop.stop();
                state.requests.stop_all();
                return;
            }
            V1Action::UpgradeV2 => {
                return session_v2(reader, writer, state);
            }
        }
    }
}

/// What the v1 loop does after writing a response line.
enum V1Action {
    Continue,
    Shutdown,
    UpgradeV2,
}

/// Parses and executes one v1 request line, intercepting `HELLO` (version
/// negotiation is a session concern, not a dispatch one). Returns the
/// response, the follow-up action, and the request's trace context — the
/// caller finishes the timeline after writing the response, so the write
/// itself is part of the recorded total.
fn dispatch_v1_line(
    line: &str,
    state: &Arc<ServerState>,
    request_seq: u64,
) -> (Json, V1Action, Option<RequestTrace>) {
    let RequestLine {
        trace: explicit,
        request,
        ..
    } = match conn::decode_v1(line) {
        Ok(decoded) => decoded,
        Err(response) => return (response, V1Action::Continue, None),
    };
    let rt = begin_trace(&request, explicit, request_seq);
    let _scope = rt.and_then(|t| t.handle).map(trace::install);
    if let Request::Hello { version } = request {
        htsat_obs::counter!("serve.requests.hello").inc();
        let (response, upgrade) = conn::hello_reply(version);
        let action = if upgrade {
            V1Action::UpgradeV2
        } else {
            V1Action::Continue
        };
        return (response, action, rt);
    }
    let span = htsat_obs::span!("serve.request");
    let (response, shutdown) = dispatch_request(request, state);
    drop(span);
    (
        response,
        if shutdown {
            V1Action::Shutdown
        } else {
            V1Action::Continue
        },
        rt,
    )
}

/// In-flight v2 requests of one connection: id → stop token. The reader
/// inserts before spawning a worker (so duplicate ids are caught
/// synchronously); the worker removes its own entry when it finishes.
type InflightMap = Arc<Mutex<HashMap<u64, StopToken>>>;

/// Trace attribution carried with one queued frame to the writer.
#[derive(Clone, Copy)]
pub(crate) struct FrameTrace {
    handle: TraceHandle,
    /// The request's last frame: after writing it the writer finishes the
    /// timeline (and fires the slow-request WARN past the threshold).
    terminal: bool,
}

/// One frame in flight to the connection's writer thread.
pub(crate) struct QueuedFrame {
    frame: Json,
    trace: Option<FrameTrace>,
    /// Enqueue timestamp, so the writer can attribute queue-wait time.
    enqueued_ns: u64,
}

/// Why a lossy [`FrameSender::try_send`] did not enqueue.
pub(crate) enum FrameTrySendError {
    /// The connection's frame queue is full (the subscriber is stalled).
    Full,
    /// The writer is gone (connection closed).
    Disconnected,
}

/// A handle on one connection's frame queue: the sending half of the
/// writer channel plus the shared depth counter every enqueue samples
/// into the `serve.write_queue_depth` histogram.
#[derive(Clone)]
pub(crate) struct FrameSender {
    tx: SyncSender<QueuedFrame>,
    depth: Arc<AtomicUsize>,
}

impl FrameSender {
    /// Blocking enqueue with the error funnel — the reader's and workers'
    /// path (they accept backpressure from their own connection's queue).
    fn send(&self, frame: Json, trace: Option<FrameTrace>) {
        note_response(&frame);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        htsat_obs::histogram!("serve.write_queue_depth").record(depth as u64);
        let queued = QueuedFrame {
            frame,
            trace,
            enqueued_ns: trace::timestamp_ns(),
        };
        if self.tx.send(queued).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Lossy enqueue — the feed producers' path (a full queue stalls the
    /// subscriber, never the shared trajectory). Deliberately outside the
    /// `note_response` funnel, like the raw sender it replaced: feed
    /// frames are addressed by seat, not request, and their terminal
    /// errors are accounted by the feed itself.
    pub(crate) fn try_send(&self, frame: Json) -> Result<(), FrameTrySendError> {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let queued = QueuedFrame {
            frame,
            trace: None,
            enqueued_ns: trace::timestamp_ns(),
        };
        match self.tx.try_send(queued) {
            Ok(()) => {
                htsat_obs::histogram!("serve.write_queue_depth").record(depth as u64);
                Ok(())
            }
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(match e {
                    TrySendError::Full(_) => FrameTrySendError::Full,
                    TrySendError::Disconnected(_) => FrameTrySendError::Disconnected,
                })
            }
        }
    }
}

/// The v2 multiplexed loop: this thread keeps reading tagged requests, a
/// dedicated thread owns all writes, and `LOAD`/`SAMPLE` run on per-request
/// worker threads — concurrent requests on one connection complete out of
/// order.
fn session_v2(mut reader: LineReader, writer: TcpStream, state: &Arc<ServerState>) {
    let depth = Arc::new(AtomicUsize::new(0));
    let (raw_tx, rx) = std::sync::mpsc::sync_channel::<QueuedFrame>(FRAME_QUEUE_DEPTH);
    let tx = FrameSender {
        tx: raw_tx,
        depth: depth.clone(),
    };
    let slow_ns = trace_slow_ns(state);
    let writer_handle = std::thread::Builder::new()
        .name("htsat-serve-writer".to_string())
        .spawn(move || writer_loop(writer, &rx, &depth, slow_ns))
        .expect("spawn writer thread");
    let inflight: InflightMap = Arc::new(Mutex::new(HashMap::new()));
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut subs: HashMap<u64, Arc<Feed>> = HashMap::new();
    let mut shutdown = false;

    while let Some(line) = reader.next_line(&state.stop, None) {
        htsat_obs::counter!("serve.bytes_in").add(line.len() as u64);
        if line.trim().is_empty() {
            continue;
        }
        match handle_v2_line(&line, state, &tx, &inflight, &mut subs, &mut workers) {
            V2Action::Continue => {}
            V2Action::Shutdown => {
                shutdown = true;
                break;
            }
        }
        workers.retain(|w| !w.is_finished());
    }

    if shutdown {
        // Stop the world before joining this connection's workers, so the
        // in-flight streams cancel and emit their terminal `shutdown`
        // error frames while the writer is still draining.
        state.stop.stop();
        state.requests.stop_all();
    }
    // Cancel this connection's own in-flight streams (client hang-up) and
    // release its feed seats so producers drop their queue handles.
    for token in inflight.lock().expect("inflight poisoned").values() {
        token.stop();
    }
    for (sub, feed) in subs {
        feed.remove(sub);
    }
    for worker in workers {
        let _ = worker.join();
    }
    // All frame producers are gone; the writer drains the queue and exits.
    drop(tx);
    let _ = writer_handle.join();
}

/// What the v2 reader does after handling one line.
enum V2Action {
    Continue,
    Shutdown,
}

/// Sends one frame of a (possibly) traced request: echoes the client's
/// trace id and carries the recording handle to the writer; `terminal`
/// marks the frame whose write closes the timeline.
fn send_traced(tx: &FrameSender, frame: Json, rt: Option<RequestTrace>, terminal: bool) {
    let echo = rt.filter(|t| t.echo).map(|t| t.id);
    let attribution = rt
        .and_then(|t| t.handle)
        .map(|handle| FrameTrace { handle, terminal });
    tx.send(frame_traced(frame, echo), attribution);
}

/// Parses and executes one v2 request line on the reader thread.
fn handle_v2_line(
    line: &str,
    state: &Arc<ServerState>,
    tx: &FrameSender,
    inflight: &InflightMap,
    subs: &mut HashMap<u64, Arc<Feed>>,
    workers: &mut Vec<JoinHandle<()>>,
) -> V2Action {
    let reader_start = trace::timestamp_ns();
    let (
        id,
        RequestLine {
            trace: explicit,
            request,
            ..
        },
    ) = match conn::decode_v2(line) {
        Ok(decoded) => decoded,
        Err(frame) => {
            tx.send(frame, None);
            return V2Action::Continue;
        }
    };
    let rt = begin_trace(&request, explicit, id);
    match request {
        Request::Hello { .. } => {
            htsat_obs::counter!("serve.requests.hello").inc();
            record_reader_span(rt, reader_start);
            send_traced(tx, conn::hello_again(id), rt, true);
        }
        Request::Status
        | Request::Stats { .. }
        | Request::Evict { .. }
        | Request::Trace { .. }
        | Request::Register { .. } => {
            let frame = {
                let _scope = rt.and_then(|t| t.handle).map(trace::install);
                let _span = htsat_obs::span!("serve.request");
                let (response, _) = dispatch_request(request, state);
                frame_from_response(id, &response)
            };
            record_reader_span(rt, reader_start);
            send_traced(tx, frame, rt, true);
        }
        Request::Shutdown => {
            let frame = {
                let _scope = rt.and_then(|t| t.handle).map(trace::install);
                let _span = htsat_obs::span!("serve.request");
                let (response, _) = dispatch_request(request, state);
                frame_from_response(id, &response)
            };
            record_reader_span(rt, reader_start);
            send_traced(tx, frame, rt, true);
            return V2Action::Shutdown;
        }
        Request::Subscribe(params) => {
            let frame = {
                let _scope = rt.and_then(|t| t.handle).map(trace::install);
                let _span = htsat_obs::span!("serve.request");
                htsat_obs::counter!("serve.requests.subscribe").inc();
                match state.feeds.subscribe(state, &params, tx.clone()) {
                    Ok((sub, feed)) => {
                        subs.insert(sub, feed);
                        frame_reply(
                            id,
                            vec![
                                ("sub", crate::proto::encode_u64_exact(sub)),
                                ("seed", crate::proto::encode_u64_exact(params.seed)),
                                ("credit", params.credit.into()),
                                ("chunk", params.chunk.into()),
                            ],
                        )
                    }
                    Err((code, message)) => frame_error(Some(id), code, &message),
                }
            };
            record_reader_span(rt, reader_start);
            send_traced(tx, frame, rt, true);
        }
        Request::Credit { sub, n } => {
            htsat_obs::counter!("serve.requests.credit").inc();
            let frame = match subs.get(&sub).and_then(|feed| feed.credit(sub, n)) {
                Some(total) => frame_reply(
                    id,
                    vec![
                        ("sub", crate::proto::encode_u64_exact(sub)),
                        ("credit", total.into()),
                    ],
                ),
                None => conn::unknown_sub(id, sub),
            };
            record_reader_span(rt, reader_start);
            send_traced(tx, frame, rt, true);
        }
        Request::Unsubscribe { sub } => {
            htsat_obs::counter!("serve.requests.unsubscribe").inc();
            let frame = match subs.remove(&sub) {
                Some(feed) => {
                    feed.remove(sub);
                    frame_reply(
                        id,
                        vec![
                            ("sub", crate::proto::encode_u64_exact(sub)),
                            ("unsubscribed", true.into()),
                        ],
                    )
                }
                None => conn::unknown_sub(id, sub),
            };
            record_reader_span(rt, reader_start);
            send_traced(tx, frame, rt, true);
        }
        Request::Load { .. } | Request::Sample(_) => {
            // Admission happens on the reader so a duplicate in-flight id
            // is rejected synchronously — before the next line is read —
            // without touching the existing stream.
            let mut map = inflight.lock().expect("inflight poisoned");
            if map.contains_key(&id) {
                drop(map);
                record_reader_span(rt, reader_start);
                send_traced(tx, conn::duplicate_id(id), rt, true);
                return V2Action::Continue;
            }
            // SAMPLE workers get a daemon-registered token (their streams
            // must cancel on shutdown); LOAD is not cancellable and gets a
            // local one, used only to interrupt nothing.
            let token = match request {
                Request::Sample(_) => state.requests.issue(),
                _ => StopToken::new(),
            };
            map.insert(id, token.clone());
            htsat_obs::histogram!("serve.multiplex_depth").record(map.len() as u64);
            drop(map);
            record_reader_span(rt, reader_start);
            let worker_state = state.clone();
            let worker_tx = tx.clone();
            let worker_inflight = inflight.clone();
            let handle = std::thread::Builder::new()
                .name("htsat-serve-worker".to_string())
                .spawn(move || {
                    let _inflight_level = InflightGauge::enter();
                    // Installing the trace binds every span this thread
                    // opens — `serve.request` and the engine-round spans
                    // inside the stream — to the owning request.
                    let _scope = rt.and_then(|t| t.handle).map(trace::install);
                    match request {
                        Request::Sample(params) => {
                            sample_worker(&worker_state, &worker_tx, id, &params, &token, rt);
                        }
                        request => {
                            let frame = {
                                let _span = htsat_obs::span!("serve.request");
                                let (response, _) = dispatch_request(request, &worker_state);
                                frame_from_response(id, &response)
                            };
                            send_traced(&worker_tx, frame, rt, true);
                        }
                    }
                    worker_inflight
                        .lock()
                        .expect("inflight poisoned")
                        .remove(&id);
                })
                .expect("spawn worker thread");
            workers.push(handle);
        }
    }
    V2Action::Continue
}

/// Streams one v2 `SAMPLE`: `chunk` frames straight off the stream as
/// rounds complete, then the terminal `done` — or an `error` frame with
/// code `shutdown` when the daemon stops the stream mid-flight.
fn sample_worker(
    state: &Arc<ServerState>,
    tx: &FrameSender,
    id: u64,
    params: &SampleParams,
    token: &StopToken,
    rt: Option<RequestTrace>,
) {
    htsat_obs::counter!("serve.requests.sample").inc();
    // Dropped explicitly before the terminal frame is enqueued, so the
    // writer never races the span's timeline record while finishing.
    let span = htsat_obs::span!("serve.request");
    let admitted = match admit_sample(state, params, token) {
        Ok(admitted) => admitted,
        Err((code, message)) => {
            token.stop();
            drop(span);
            send_traced(tx, frame_error(Some(id), code, &message), rt, true);
            return;
        }
    };
    let AdmittedSample {
        entry,
        threads,
        mut stream,
    } = admitted;
    let mut remaining = params.n;
    let mut seq: u64 = 0;
    while remaining > 0 {
        let batch = stream.next_batch(remaining);
        if batch.is_empty() {
            break; // cancelled, deadline passed, or exhausted
        }
        remaining -= batch.len();
        send_traced(tx, frame_chunk(id, seq, &batch), rt, false);
        seq += 1;
    }
    let stats = *stream.stats();
    let elapsed = stream.elapsed();
    let exhausted = stream.is_exhausted();
    drop(stream);
    let cancelled = remaining > 0 && !exhausted && token.is_stopped();
    token.stop();
    entry.record_stats(&stats);
    if cancelled {
        // Satellite of the shutdown contract: every open stream gets a
        // terminal error frame before the socket closes.
        drop(span);
        send_traced(
            tx,
            frame_error(
                Some(id),
                ErrorCode::Shutdown,
                "stream cancelled: server is shutting down",
            ),
            rt,
            true,
        );
        return;
    }
    let mut payload = vec![
        ("fingerprint", params.fingerprint.to_hex().into()),
        ("engine", entry.engine_name.into()),
        ("seed", crate::proto::encode_u64_exact(params.seed)),
        ("threads", threads.into()),
        ("chunks", seq.into()),
    ];
    payload.extend(sample_tail_payload(state, &stats, elapsed, exhausted));
    drop(span);
    send_traced(tx, frame_done(id, payload), rt, true);
}

/// The single writer: drains the frame queue onto the socket, recording
/// each traced frame's queue-wait, serialize and write time into its
/// request's timeline, and closing the timeline after the request's
/// terminal frame. After a write failure it keeps draining (senders must
/// never block on a dead socket) without writing.
fn writer_loop(
    mut writer: TcpStream,
    rx: &Receiver<QueuedFrame>,
    depth: &AtomicUsize,
    slow_ns: Option<u64>,
) {
    let names = trace_names();
    let mut dead = false;
    while let Ok(queued) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        let dequeued_ns = trace::timestamp_ns();
        let waited_ns = dequeued_ns.saturating_sub(queued.enqueued_ns);
        htsat_obs::histogram!("serve.worker.queue_wait").record(waited_ns);
        if let Some(t) = queued.trace {
            trace::record_span(t.handle, names.queue_wait, queued.enqueued_ns, waited_ns);
        }
        if dead {
            // The socket is gone but timelines must still close, or the
            // ring slot would leak until overwritten.
            if let Some(t) = queued.trace.filter(|t| t.terminal) {
                finish_trace(t.handle, slow_ns);
            }
            continue;
        }
        let text = queued.frame.encode();
        let serialized_ns = trace::timestamp_ns();
        htsat_obs::counter!("serve.bytes_out").add(text.len() as u64 + 1);
        dead = conn::write_line(&mut writer, text).is_err();
        if let Some(t) = queued.trace {
            let written_ns = trace::timestamp_ns();
            trace::record_span(
                t.handle,
                names.serialize,
                dequeued_ns,
                serialized_ns.saturating_sub(dequeued_ns),
            );
            trace::record_span(
                t.handle,
                names.write,
                serialized_ns,
                written_ns.saturating_sub(serialized_ns),
            );
            if t.terminal {
                finish_trace(t.handle, slow_ns);
            }
        }
    }
}
