//! The TCP daemon: accept loop, per-connection sessions, graceful shutdown.

use crate::client::ConnectOptions;
use crate::conn;
use crate::feed::FeedRegistry;
use crate::json::Json;
use crate::proto::{
    encode_solution, encode_stats, error_response, ok_response, ErrorCode, LoadSource, Request,
    SampleParams, DEFAULT_ENGINE, DEFAULT_REGISTER_TTL_MS,
};
use crate::registry::{RegistryConfig, RegistryEntry, SamplerRegistry};
use crate::session::session;
use crate::ServeError;
use htsat_cnf::dimacs;
use htsat_core::{EngineStream, SessionConfig};
use htsat_runtime::{StopSet, StopToken};
use htsat_tensor::Backend;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address is
    /// reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Default worker threads for `SAMPLE` requests that do not pin their
    /// own count (`0` = one worker per core).
    pub default_threads: usize,
    /// Registry options (memory budget, model parameters).
    pub registry: RegistryConfig,
    /// Allow `LOAD` requests that name a server-side `path`. Disabled by
    /// default: a daemon reachable over TCP should not read arbitrary local
    /// files unless the operator opts in.
    pub allow_path_load: bool,
    /// Emit the metrics snapshot as a structured `info` log line at this
    /// interval (`None` = off). The daemon's `--log-stats <secs>` flag.
    pub log_stats: Option<Duration>,
    /// Log a structured `warn` line carrying the full span timeline for any
    /// traced request slower than this many milliseconds (`None` = off;
    /// `0` warns on every traced request). The daemon's `--trace-slow-ms`
    /// flag.
    pub trace_slow_ms: Option<u64>,
    /// Address of an `htsat-router` to announce this daemon to (`None` =
    /// standalone). A background thread re-registers every
    /// [`DEFAULT_REGISTER_TTL_MS`]` / 3` milliseconds so the router's
    /// liveness window never lapses while the daemon is up. The daemon's
    /// `--register` flag.
    pub register: Option<String>,
    /// Address to announce to the router (`None` = the bound address).
    /// Needed when the daemon binds a wildcard or sits behind NAT, where
    /// the bound address is not what the router should dial. The daemon's
    /// `--advertise` flag.
    pub advertise: Option<String>,
}

impl Default for ServeConfig {
    /// Loopback on an ephemeral port, auto-sized sampling threads, default
    /// registry budget, path loads disabled.
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            default_threads: 0,
            registry: RegistryConfig::default(),
            allow_path_load: false,
            log_stats: None,
            trace_slow_ms: None,
            register: None,
            advertise: None,
        }
    }
}

/// Shared state every connection session works against.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) registry: SamplerRegistry,
    /// Master stop flag: set once, never cleared — the daemon is done.
    pub(crate) stop: StopToken,
    /// Stop tokens of in-flight `SAMPLE` streams and feed producers, fired
    /// on shutdown.
    pub(crate) requests: StopSet,
    /// Shared `SUBSCRIBE` feeds and their producer threads.
    pub(crate) feeds: FeedRegistry,
    pub(crate) started: Instant,
    pub(crate) connections_served: AtomicU64,
}

/// A running daemon.
///
/// Dropping the handle shuts the daemon down gracefully (equivalent to
/// [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    stats_logger: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

/// Starts the daemon described by `config` and returns its handle.
///
/// The accept loop and every connection session run on background threads;
/// the call returns as soon as the listener is bound, so callers can read
/// the ephemeral port from [`ServerHandle::local_addr`] immediately.
///
/// # Errors
///
/// Returns the bind error if the address is unusable.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let registry = SamplerRegistry::new(config.registry.clone());
    if config.registry.cache_dir.is_some() {
        let restored = registry.warm_start();
        if restored > 0 {
            htsat_obs::info!(
                "warm-started {restored} registry entr{} from the compile cache",
                if restored == 1 { "y" } else { "ies" }
            );
        }
    }
    let state = Arc::new(ServerState {
        registry,
        config,
        stop: StopToken::new(),
        requests: StopSet::new(),
        feeds: FeedRegistry::new(),
        started: Instant::now(),
        connections_served: AtomicU64::new(0),
    });
    htsat_obs::debug!("htsat-serve bound on {addr}");
    let accept_state = state.clone();
    let accept = std::thread::Builder::new()
        .name("htsat-serve-accept".to_string())
        .spawn(move || {
            let stop = accept_state.stop.clone();
            conn::accept_loop(&listener, &stop, "htsat-serve-session", move |stream| {
                session(stream, &accept_state);
            });
        })
        .expect("spawn accept thread");
    let stats_logger = state.config.log_stats.map(|period| {
        let logger_state = state.clone();
        std::thread::Builder::new()
            .name("htsat-serve-stats".to_string())
            .spawn(move || stats_log_loop(&logger_state, period))
            .expect("spawn stats logger thread")
    });
    let heartbeat = state.config.register.clone().map(|router| {
        let advertise = state
            .config
            .advertise
            .clone()
            .unwrap_or_else(|| addr.to_string());
        let heartbeat_state = state.clone();
        std::thread::Builder::new()
            .name("htsat-serve-heartbeat".to_string())
            .spawn(move || heartbeat_loop(&heartbeat_state, &router, &advertise))
            .expect("spawn heartbeat thread")
    });
    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        stats_logger,
        heartbeat,
    })
}

/// How often the heartbeat thread polls the stop flag between
/// re-registrations.
const HEARTBEAT_POLL: Duration = Duration::from_millis(25);

/// Connect timeout and reply deadline of one registration exchange: the
/// router answers a `REGISTER` inline, so anything slower than this is as
/// good as down.
const REGISTER_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Announces the daemon to `router` every TTL/3 until the daemon stops.
/// Failures are expected (the router may start later, restart, or be
/// briefly unreachable) and only logged — the next tick retries.
fn heartbeat_loop(state: &Arc<ServerState>, router: &str, advertise: &str) {
    let period = Duration::from_millis(DEFAULT_REGISTER_TTL_MS / 3);
    let mut announced = false;
    let mut next = Instant::now(); // register immediately on boot
    while !state.stop.is_stopped() {
        if Instant::now() >= next {
            next = Instant::now() + period;
            match register_once(router, advertise, &state.stop) {
                Ok(()) => {
                    htsat_obs::counter!("serve.register.sent").inc();
                    if !announced {
                        announced = true;
                        htsat_obs::info!("registered with router {router} as {advertise}");
                    }
                }
                Err(e) => {
                    htsat_obs::counter!("serve.register.failed").inc();
                    if announced {
                        announced = false;
                        htsat_obs::warn!("lost router {router}: {e} (retrying)");
                    } else {
                        htsat_obs::debug!("register with {router} failed: {e} (retrying)");
                    }
                }
            }
        }
        std::thread::sleep(HEARTBEAT_POLL);
    }
}

/// One registration exchange: dial, send `REGISTER`, require `ok:true` —
/// bounded by [`REGISTER_IO_TIMEOUT`] and abandoned when the daemon stops.
fn register_once(router: &str, advertise: &str, stop: &StopToken) -> std::io::Result<()> {
    let options = ConnectOptions {
        connect_timeout: Some(REGISTER_IO_TIMEOUT),
        refused_retries: 0,
        ..ConnectOptions::default()
    };
    let request = Request::Register {
        addr: advertise.to_string(),
        ttl_ms: Some(DEFAULT_REGISTER_TTL_MS),
    };
    let line = request.encode().encode();
    let reply = conn::v1_exchange(router, &line, &options, stop, Some(REGISTER_IO_TIMEOUT))?;
    conn::expect_ok(&reply).map(drop)
}

/// How often the stats logger polls the stop flag between emissions.
const STATS_LOG_POLL: Duration = Duration::from_millis(50);

/// Emits the global metrics snapshot as one structured `info` line per
/// period until the daemon stops.
fn stats_log_loop(state: &Arc<ServerState>, period: Duration) {
    let mut next = Instant::now() + period;
    while !state.stop.is_stopped() {
        std::thread::sleep(STATS_LOG_POLL);
        if Instant::now() >= next {
            next += period;
            htsat_obs::info!(
                "stats {}",
                htsat_obs::global().snapshot().to_json().encode()
            );
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry, for in-process inspection by tests and benchmarks.
    #[must_use]
    pub fn registry(&self) -> &SamplerRegistry {
        &self.state.registry
    }

    /// Whether the daemon has been told to stop (by [`ServerHandle::shutdown`]
    /// or a `SHUTDOWN` request).
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.state.stop.is_stopped()
    }

    /// Blocks until the daemon stops (a `SHUTDOWN` request arrives or
    /// another thread calls [`ServerHandle::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(logger) = self.stats_logger.take() {
            let _ = logger.join();
        }
        if let Some(heartbeat) = self.heartbeat.take() {
            let _ = heartbeat.join();
        }
        // Feed producers are owned by the daemon, not by any one session:
        // their stop tokens were fired with the rest of the request set, so
        // by now each is sending its terminal frames and exiting.
        self.state.feeds.join_all();
    }

    /// Stops the daemon gracefully: fires every in-flight request's stop
    /// token, closes the accept loop and joins the session threads.
    pub fn shutdown(&mut self) {
        self.state.stop.stop();
        self.state.requests.stop_all();
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Counts and logs a failure response (v1 line or v2 frame): the aggregate
/// error counter, the per-code counter, and a `warn` log line.
///
/// Every response funnels through here — the v1 lockstep loop and every v2
/// frame producer alike — so error telemetry is framing-independent.
pub(crate) fn note_response(response: &Json) {
    if response.get("ok").and_then(Json::as_bool) == Some(false) {
        htsat_obs::counter!("serve.errors").inc();
        let code = response.get("code").and_then(Json::as_str).unwrap_or("?");
        let message = response.get("error").and_then(Json::as_str).unwrap_or("");
        // Dynamic (allocating) registry lookup is fine here: this is the
        // error path, never the per-sample hot path.
        htsat_obs::global()
            .counter(&format!("serve.errors.{code}"))
            .inc();
        htsat_obs::warn!("request failed ({code}): {message}");
    }
}

/// Executes one decoded request against the shared state. Returns the v1
/// response object and whether the daemon should shut down after it.
///
/// `HELLO` never reaches here (version negotiation is the session layer's
/// job), and the v2-only verbs answer `bad-request` — which is exactly the
/// v1 behaviour a pre-v2 client must observe.
pub(crate) fn dispatch_request(request: Request, state: &Arc<ServerState>) -> (Json, bool) {
    match request {
        // The session layer intercepts HELLO before dispatch; seeing one
        // here means a session-layer bug, answered defensively.
        Request::Hello { .. } => (
            error_response(ErrorCode::BadRequest, "hello is negotiated per-connection"),
            false,
        ),
        request
        @ (Request::Subscribe(_) | Request::Credit { .. } | Request::Unsubscribe { .. }) => {
            (conn::v2_only(&request), false)
        }
        Request::Load {
            name,
            engine,
            source,
        } => {
            htsat_obs::counter!("serve.requests.load").inc();
            (
                handle_load(
                    state,
                    name.as_deref(),
                    engine.as_deref().unwrap_or(DEFAULT_ENGINE),
                    &source,
                ),
                false,
            )
        }
        Request::Sample(params) => {
            htsat_obs::counter!("serve.requests.sample").inc();
            (handle_sample(state, &params), false)
        }
        Request::Status => {
            htsat_obs::counter!("serve.requests.status").inc();
            (handle_status(state), false)
        }
        Request::Stats { reset } => {
            htsat_obs::counter!("serve.requests.stats").inc();
            (handle_stats(state, reset), false)
        }
        Request::Evict {
            fingerprint,
            engine,
        } => {
            htsat_obs::counter!("serve.requests.evict").inc();
            let evicted = state.registry.evict(&fingerprint, engine.as_deref());
            (
                ok_response(vec![
                    ("evicted", (evicted > 0).into()),
                    ("evicted_count", evicted.into()),
                ]),
                false,
            )
        }
        Request::Shutdown => {
            htsat_obs::counter!("serve.requests.shutdown").inc();
            htsat_obs::info!("shutdown requested");
            (ok_response(vec![("shutdown", true.into())]), true)
        }
        Request::Trace { last, verb, min_ms } => {
            htsat_obs::counter!("serve.requests.trace").inc();
            (handle_trace(last, verb, min_ms), false)
        }
        // Discovery announcements belong to the routing layer; a sampling
        // daemon is never a registration target.
        Request::Register { .. } => (
            error_response(
                ErrorCode::BadRequest,
                "register is only accepted by htsat-router",
            ),
            false,
        ),
    }
}

/// Answers `TRACE`: recent request timelines from the process-global trace
/// ring, newest first, optionally filtered by verb and minimum duration.
/// The reply merges the `htsat-trace-v1` report document into the usual
/// `ok` envelope (mirroring how `STATS` carries its snapshot).
fn handle_trace(last: Option<u64>, verb: Option<String>, min_ms: Option<u64>) -> Json {
    let filter = htsat_obs::trace::TraceFilter {
        last: usize::try_from(last.unwrap_or(0)).unwrap_or(usize::MAX),
        verb,
        min_total_ns: min_ms.unwrap_or(0).saturating_mul(1_000_000),
    };
    let report = htsat_obs::trace::snapshot_traces(&filter);
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(report_pairs) = report.to_json() {
        pairs.extend(report_pairs);
    }
    Json::Obj(pairs)
}

/// Thread count of this process, from `/proc/self/status` (`1` when the
/// procfs read is unavailable, e.g. on non-Linux hosts).
fn process_threads() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                line.strip_prefix("Threads:")
                    .and_then(|rest| rest.trim().parse::<i64>().ok())
            })
        })
        .unwrap_or(1)
}

/// Answers `STATS`: the full metrics snapshot, optionally followed by a
/// counter/histogram reset.
///
/// The snapshot is taken *before* the reset, so a `STATS reset` reply
/// always reports the totals the reset wiped — callers never lose a
/// reporting window. Gauges (levels like in-flight connections) survive
/// the reset by [`htsat_obs::Registry::reset`]'s contract.
fn handle_stats(state: &Arc<ServerState>, reset: bool) -> Json {
    // Refresh level-style gauges the moment they are observed, so a
    // snapshot is coherent even if no request touched them recently.
    htsat_obs::gauge!("serve.registry.resident_entries").set(state.registry.len() as i64);
    htsat_obs::gauge!("process.uptime_ms")
        .set(i64::try_from(state.started.elapsed().as_millis()).unwrap_or(i64::MAX));
    htsat_obs::gauge!("process.threads").set(process_threads());
    let snapshot = htsat_obs::global().snapshot();
    if reset {
        htsat_obs::global().reset();
    }
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("reset".to_string(), Json::Bool(reset)),
    ];
    if let Json::Obj(snapshot_pairs) = snapshot.to_json() {
        pairs.extend(snapshot_pairs);
    }
    Json::Obj(pairs)
}

fn handle_load(
    state: &Arc<ServerState>,
    name: Option<&str>,
    engine: &str,
    source: &LoadSource,
) -> Json {
    let cnf = match source {
        LoadSource::Inline(text) => match dimacs::parse_str(text) {
            Ok(cnf) => cnf,
            Err(e) => {
                return error_response(
                    ErrorCode::TransformFailed,
                    &format!("DIMACS parse error: {e}"),
                )
            }
        },
        LoadSource::Path(path) => {
            if !state.config.allow_path_load {
                return error_response(
                    ErrorCode::PathLoadDisabled,
                    "path loads are disabled on this server (start with --allow-path-load)",
                );
            }
            match dimacs::read_file(path) {
                Ok(cnf) => cnf,
                Err(e) => {
                    return error_response(ErrorCode::Io, &format!("cannot read `{path}`: {e}"))
                }
            }
        }
    };
    match state.registry.load(&cnf, engine, name) {
        Ok((entry, cached)) => {
            let mut payload = vec![
                ("fingerprint", entry.fingerprint.to_hex().into()),
                ("engine", entry.engine_name.into()),
                ("name", entry.name.clone().into()),
                ("cached", cached.into()),
                ("vars", entry.engine.cnf().num_vars().into()),
                ("clauses", entry.engine.cnf().num_clauses().into()),
            ];
            // Engine-specific artifact sizes (compiled inputs/nodes for the
            // GD engine, circuit nodes for DiffSampler, nothing for the
            // solver-backed baselines).
            for (dim, value) in entry.engine.artifact_dims() {
                payload.push((dim, value.into()));
            }
            ok_response(payload)
        }
        Err(ServeError::Transform(e)) => {
            error_response(ErrorCode::TransformFailed, &format!("transform error: {e}"))
        }
        Err(e) => {
            let code = match &e {
                ServeError::Transform(_) => ErrorCode::TransformFailed,
                ServeError::UnknownEngine(_) => ErrorCode::EngineUnknown,
                ServeError::FingerprintCollision(_) => ErrorCode::FingerprintCollision,
                ServeError::Io(_) => ErrorCode::Io,
            };
            error_response(code, &e.to_string())
        }
    }
}

/// Server-side ceilings on wire-supplied sampling knobs: a daemon must not
/// let one request spawn unbounded OS threads, allocate an unbounded logit
/// matrix, or queue an absurd solution target.
const MAX_REQUEST_THREADS: usize = 1024;
const MAX_REQUEST_BATCH: usize = 1 << 16;
const MAX_REQUEST_N: usize = 1 << 20;

/// A validated, admitted sampling request: the resident entry, the resolved
/// worker count and the stream (the caller's stop token, deadline and
/// stale limit already applied).
pub(crate) struct AdmittedSample {
    pub(crate) entry: Arc<RegistryEntry>,
    pub(crate) threads: usize,
    pub(crate) stream: EngineStream,
}

/// Validates a `SAMPLE`-shaped request (caps, residency, config) and mints
/// its stream — the shared front half of the v1 blocking handler, the v2
/// chunked worker and the feed producer. `token` must already be issued
/// from the daemon's [`StopSet`]; on *any* error the caller still owns it
/// and must stop it.
///
/// # Errors
///
/// Returns the error code and message the caller should answer with.
pub(crate) fn admit_sample(
    state: &Arc<ServerState>,
    params: &SampleParams,
    token: &StopToken,
) -> Result<AdmittedSample, (ErrorCode, String)> {
    let engine = params.engine.as_deref().unwrap_or(DEFAULT_ENGINE);
    // `get_or_warm`: a non-resident pair can still be served when the
    // persistent cache has its artifact — the failover path of a routed
    // deployment, where a backend receives `SAMPLE`s for formulas another
    // backend loaded into the shared cache directory.
    let Some(entry) = state.registry.get_or_warm(&params.fingerprint, engine) else {
        return Err((
            ErrorCode::NotLoaded,
            format!(
                "(formula {}, engine {engine}) is not loaded (use `load` first, or it was evicted)",
                params.fingerprint
            ),
        ));
    };
    let threads = params.threads.unwrap_or(state.config.default_threads);
    if threads > MAX_REQUEST_THREADS {
        return Err((
            ErrorCode::BadRequest,
            format!("`threads` exceeds the cap {MAX_REQUEST_THREADS}"),
        ));
    }
    if params.n > MAX_REQUEST_N {
        return Err((
            ErrorCode::BadRequest,
            format!("`n` exceeds the cap {MAX_REQUEST_N}"),
        ));
    }
    if let Some(batch) = params.batch {
        if batch > MAX_REQUEST_BATCH {
            return Err((
                ErrorCode::BadRequest,
                format!("`batch` exceeds the cap {MAX_REQUEST_BATCH}"),
            ));
        }
    }
    let config = SessionConfig {
        seed: params.seed,
        backend: Backend::Threads(threads),
        batch: params.batch,
    };
    // Registry hit path: the stream is minted from the resident prepared
    // engine — no parse, no transform, no kernel compilation. Going through
    // `SampleEngine::stream` (not `session` + a manual wrap) lets engines
    // apply their stream options (e.g. quicksampler's source-side dedup).
    let stream = match entry.engine.stream(&config) {
        Ok(stream) => stream,
        Err(e) => {
            return Err((
                ErrorCode::BadRequest,
                format!("invalid sampler config: {e}"),
            ))
        }
    };
    // Close the shutdown race: if the master stop fired before the
    // caller's token was registered, `StopSet::stop_all` may already have
    // swept the set — a stream on a fresh token would then outlive the
    // drain and block shutdown forever. Issuing first and re-checking
    // second guarantees the token is stopped on either side of the race.
    if state.stop.is_stopped() {
        return Err((ErrorCode::Shutdown, "server is shutting down".to_string()));
    }
    let mut stream = stream.with_stop_token(token.clone());
    if let Some(ms) = params.deadline_ms {
        stream = stream.with_timeout(Duration::from_millis(ms));
    }
    if let Some(stale) = params.max_stale {
        stream = stream.with_stale_limit(stale);
    }
    Ok(AdmittedSample {
        entry,
        threads,
        stream,
    })
}

/// The terminal payload both framings share: stream stats, elapsed wall
/// clock, exhaustion and the shutdown flag.
pub(crate) fn sample_tail_payload(
    state: &Arc<ServerState>,
    stats: &htsat_runtime::StreamStats,
    elapsed: Duration,
    exhausted: bool,
) -> Vec<(&'static str, Json)> {
    vec![
        ("stats", encode_stats(stats)),
        ("elapsed_ms", (elapsed.as_secs_f64() * 1e3).into()),
        ("exhausted", exhausted.into()),
        ("stopped", state.stop.is_stopped().into()),
    ]
}

fn handle_sample(state: &Arc<ServerState>, params: &SampleParams) -> Json {
    let token = state.requests.issue();
    let admitted = match admit_sample(state, params, &token) {
        Ok(admitted) => admitted,
        Err((code, message)) => {
            token.stop();
            return error_response(code, &message);
        }
    };
    let AdmittedSample {
        entry,
        threads,
        mut stream,
    } = admitted;
    let solutions: Vec<Json> = stream
        .by_ref()
        .take(params.n)
        .map(|bits| Json::Str(encode_solution(&bits)))
        .collect();
    let stats = *stream.stats();
    let elapsed = stream.elapsed();
    let exhausted = stream.is_exhausted();
    drop(stream);
    // Mark this request's token done so the StopSet can prune it.
    token.stop();
    entry.record_stats(&stats);
    let mut payload = vec![
        ("fingerprint", params.fingerprint.to_hex().into()),
        ("engine", entry.engine_name.into()),
        ("seed", crate::proto::encode_u64_exact(params.seed)),
        ("threads", threads.into()),
        ("solutions", Json::Arr(solutions)),
    ];
    payload.extend(sample_tail_payload(state, &stats, elapsed, exhausted));
    ok_response(payload)
}

fn handle_status(state: &Arc<ServerState>) -> Json {
    let counters = state.registry.counters();
    let entries: Vec<Json> = state
        .registry
        .snapshot()
        .into_iter()
        .map(|entry| {
            let mut pairs = vec![
                ("fingerprint", entry.fingerprint.to_hex().into()),
                ("engine", entry.engine_name.into()),
                ("name", entry.name.clone().into()),
                ("vars", entry.engine.cnf().num_vars().into()),
                ("clauses", entry.engine.cnf().num_clauses().into()),
            ];
            for (dim, value) in entry.engine.artifact_dims() {
                pairs.push((dim, value.into()));
            }
            pairs.push(("bytes", entry.bytes.into()));
            pairs.push(("hits", entry.hits().into()));
            pairs.push(("stats", encode_stats(&entry.cumulative_stats())));
            Json::obj(pairs)
        })
        .collect();
    ok_response(vec![
        (
            "uptime_ms",
            (state.started.elapsed().as_secs_f64() * 1e3).into(),
        ),
        (
            "connections",
            state.connections_served.load(Ordering::Relaxed).into(),
        ),
        ("entries", Json::Arr(entries)),
        ("resident_bytes", state.registry.resident_bytes().into()),
        ("budget_bytes", state.registry.config().budget_bytes.into()),
        ("hits", counters.hits.into()),
        ("misses", counters.misses.into()),
        ("compiles", counters.compiles.into()),
        ("evictions", counters.evictions.into()),
        ("disk_hits", counters.disk_hits.into()),
        ("in_flight", state.requests.len().into()),
        ("feeds", state.feeds.feed_count().into()),
        ("subscribers", state.feeds.subscriber_count().into()),
    ])
}
