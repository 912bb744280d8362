//! The wire protocol: line-oriented, newline-delimited JSON.
//!
//! Every request and every response is exactly one JSON object on one line
//! (`\n`-terminated). Requests carry a `"cmd"` discriminator; responses
//! always carry `"ok"` — `true` with command-specific payload fields, or
//! `false` with a human-readable `"error"` string. A malformed line yields
//! an `ok:false` response and the connection stays usable, so one bad
//! request never poisons a session.
//!
//! # Grammar (one line per message)
//!
//! ```text
//! request  = hello | load | sample | status | stats | evict | shutdown
//!          | subscribe | credit | unsubscribe | trace | register
//! hello    = {"cmd":"hello", "version":int}
//! load     = {"cmd":"load", "name"?:str, "engine"?:str, "dimacs":str} |
//!            {"cmd":"load", "name"?:str, "engine"?:str, "path":str}
//! sample   = {"cmd":"sample", "fingerprint":hex32, "engine"?:str,
//!             "n"?:int, "seed"?:int|decimal-str, "deadline_ms"?:int,
//!             "max_stale"?:int, "threads"?:int, "batch"?:int}
//! status   = {"cmd":"status"}
//! stats    = {"cmd":"stats", "reset"?:bool}
//! evict    = {"cmd":"evict", "fingerprint":hex32, "engine"?:str}
//! shutdown = {"cmd":"shutdown"}
//! subscribe   = {"cmd":"subscribe", "fingerprint":hex32, "engine"?:str,
//!                "seed"?:int|decimal-str, "threads"?:int, "batch"?:int,
//!                "max_stale"?:int, "credit"?:int, "chunk"?:int}
//! credit      = {"cmd":"credit", "sub":int, "n":int}
//! unsubscribe = {"cmd":"unsubscribe", "sub":int}
//! trace       = {"cmd":"trace", "last"?:int, "verb"?:str, "min_ms"?:int}
//! register    = {"cmd":"register", "addr":"host:port", "ttl_ms"?:int}
//! ```
//!
//! `REGISTER` is the discovery verb of the routing layer: a backend daemon
//! announces its dialable `addr` to an `htsat-router`, which adds it to the
//! shard map for `ttl_ms` milliseconds ([`DEFAULT_REGISTER_TTL_MS`] when
//! omitted). The registration expires unless renewed, so backends
//! re-register on a heartbeat (every `ttl_ms / 3`; see `--register` on
//! `htsat-serve`). The reply echoes `{"addr":…, "ttl_ms":…}`. Sampling
//! daemons themselves answer `REGISTER` with `bad-request` — only the
//! router accepts it.
//!
//! # Request-scoped tracing
//!
//! Any request may carry an optional `"trace"` field: 1–32 hex characters
//! naming a client-chosen 128-bit trace id. The daemon records a
//! per-request span timeline under that id and — on a v2 connection —
//! echoes `"trace"` on **every** frame the request produces (`reply`,
//! `chunk`, `done`, `error`), so a client can correlate interleaved frames
//! with its own distributed trace. v1 responses never carry a `trace` key
//! (the field is accepted and recorded, but the v1 wire shape is frozen).
//! An ill-formed `trace` value is a `bad-request`.
//!
//! The `TRACE` verb returns the most recent completed timelines as a
//! schema-versioned `htsat-trace-v1` document (see
//! [`htsat_obs::TraceReport`]): `last` caps how many (0 or absent = all
//! retained), `verb` keeps only timelines of one verb (e.g. `"sample"`),
//! and `min_ms` keeps only requests at least that slow.
//!
//! # Protocol versions
//!
//! A connection starts in **v1**: strictly one request in, one response
//! out, in order. A client upgrades by sending `HELLO` with
//! `"version": 2`; the `HELLO` reply itself is still v1-framed, and every
//! line after it is a v2 **frame**. Clients that never send `HELLO` (or
//! negotiate version 1) get v1 behaviour bit-for-bit — no `"frame"` or
//! `"id"` keys ever appear in their responses.
//!
//! In v2 every request carries a client-chosen `"id"` (a 64-bit integer,
//! unique among that connection's in-flight requests) and responses are
//! tagged frames that may interleave across requests:
//!
//! ```text
//! frame  = reply | chunk | done | pushed | error
//! reply  = {"frame":"reply",  "id":int, "ok":true, ...payload}
//! chunk  = {"frame":"chunk",  "id":int, "seq":int, "solutions":[bits...]}
//! done   = {"frame":"done",   "id":int, "ok":true, ...payload}
//! pushed = {"frame":"pushed", "sub":int, "seq":int, "solutions":[bits...]}
//! error  = {"frame":"error",  "id":int|null, "ok":false, "error":str,
//!           "code":str}
//! ```
//!
//! `reply` completes a unary request. A v2 `SAMPLE` streams: zero or more
//! `chunk` frames (batches straight off the engine's `SampleStream`, `seq`
//! counting from 0) then one terminal `done` carrying the stream stats; the
//! concatenated chunks are bit-identical to the in-process sequence for
//! the same seed. `pushed` frames belong to a subscription feed (see
//! `SUBSCRIBE` — they are addressed by `sub`, not `id`). `error` is
//! terminal for its `id`; `"id": null` means the request line itself was
//! undecodable.
//!
//! `STATS` returns the daemon's metrics snapshot (schema
//! `htsat-stats-v1`, see `htsat-obs`) merged into the response object;
//! `"reset": true` additionally zeroes counters and histograms *after*
//! taking the returned snapshot (gauges are levels and keep their values).
//!
//! Error responses carry both a human-readable `"error"` message and a
//! stable machine-readable `"code"` (see [`ErrorCode`]) so clients can
//! branch on failure kinds without parsing prose.
//!
//! `engine` selects which prepared sampling engine serves the formula
//! (`"gd"` — the paper's sampler and the default — or any baseline:
//! `"walksat"`, `"unigen"`, `"cmsgen"`, `"quicksampler"`,
//! `"diffsampler"`). The daemon registry caches prepared artifacts per
//! (fingerprint, engine): `LOAD` the pair first, then `SAMPLE` it; an
//! `EVICT` without `engine` drops every engine of that fingerprint.
//!
//! `seed` spans the full 64-bit range; values above 2^53 travel as decimal
//! strings (and are echoed back the same way) because a JSON number is an
//! `f64` and would silently round them — a rounded seed breaks the
//! same-seed determinism contract.
//!
//! Solutions travel as bit strings (`"0110…"`, one character per CNF
//! variable, `'1'` = true), the densest JSON-safe encoding that needs no
//! base64 machinery.

use crate::json::Json;
use htsat_cnf::{Fingerprint, Solution};
use htsat_obs::TraceId;
use htsat_runtime::StreamStats;

/// Default number of unique solutions a `SAMPLE` request asks for when `n`
/// is omitted.
pub const DEFAULT_SAMPLE_N: usize = 16;

/// The baseline protocol every connection starts in: one request in, one
/// response out, in order.
pub const PROTOCOL_V1: u64 = 1;

/// The tagged, multiplexed frame protocol negotiated via `HELLO`.
pub const PROTOCOL_V2: u64 = 2;

/// Highest protocol version this build speaks.
pub const PROTOCOL_MAX: u64 = PROTOCOL_V2;

/// Initial credit a `SUBSCRIBE` request grants itself when `credit` is
/// omitted: how many `pushed` frames the server may send before the
/// subscriber must top up with `CREDIT`.
pub const DEFAULT_SUBSCRIBE_CREDIT: u64 = 4;

/// Solutions per `pushed` frame when a `SUBSCRIBE` request omits `chunk`.
pub const DEFAULT_SUBSCRIBE_CHUNK: usize = 16;

/// The engine a request targets when its `engine` field is omitted: the
/// paper's transformed-circuit GD sampler.
pub const DEFAULT_ENGINE: &str = "gd";

/// How long a `REGISTER` announcement stays live when `ttl_ms` is omitted.
/// Backends heartbeat at a third of their TTL, so the default tolerates
/// two missed heartbeats before the router drops the backend.
pub const DEFAULT_REGISTER_TTL_MS: u64 = 3000;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Negotiate the protocol version for the rest of the connection.
    Hello {
        /// Version the client wants to speak ([`PROTOCOL_V1`] or
        /// [`PROTOCOL_V2`]).
        version: u64,
    },
    /// Register a formula (inline DIMACS text or a server-side path) in the
    /// sampler registry, prepared for one engine.
    Load {
        /// Display name for status listings; defaults to the fingerprint.
        name: Option<String>,
        /// Engine to prepare the formula for (`None` = [`DEFAULT_ENGINE`]).
        engine: Option<String>,
        /// Where the DIMACS text comes from.
        source: LoadSource,
    },
    /// Stream unique solutions of a registered (formula, engine) pair.
    Sample(SampleParams),
    /// Report registry contents, cumulative stream statistics and uptime.
    Status,
    /// Return the metrics snapshot; optionally reset counters/histograms
    /// after snapshotting.
    Stats {
        /// Zero counters and histograms after taking the snapshot.
        reset: bool,
    },
    /// Drop registry entries of one formula.
    Evict {
        /// Registry key to drop.
        fingerprint: Fingerprint,
        /// Engine whose entry to drop (`None` = every engine of the
        /// fingerprint).
        engine: Option<String>,
    },
    /// Stop the daemon: fire all request stop-tokens, drain in-flight
    /// connections, exit the accept loop.
    Shutdown,
    /// Join (or start) the shared push feed of a (formula, engine, seed)
    /// trajectory. v2-only.
    Subscribe(SubscribeParams),
    /// Grant a subscription more `pushed` frames. v2-only.
    Credit {
        /// Subscription id (from the `SUBSCRIBE` reply).
        sub: u64,
        /// Additional frames the server may push.
        n: u64,
    },
    /// Leave a feed and reclaim its seat. v2-only.
    Unsubscribe {
        /// Subscription id to drop.
        sub: u64,
    },
    /// Announce a backend daemon to a router's discovery map (renewed on a
    /// heartbeat; expires after the TTL). Only `htsat-router` accepts it —
    /// sampling daemons answer `bad-request`.
    Register {
        /// Address the router should dial the backend at (`host:port`).
        addr: String,
        /// Liveness window in milliseconds
        /// (`None` = [`DEFAULT_REGISTER_TTL_MS`]).
        ttl_ms: Option<u64>,
    },
    /// Return recent request timelines from the trace ring (schema
    /// `htsat-trace-v1`, see [`htsat_obs::TraceReport`]).
    Trace {
        /// Keep only the most recent N timelines (`None`/0 = all retained).
        last: Option<u64>,
        /// Keep only timelines of this verb (e.g. `"sample"`).
        verb: Option<String>,
        /// Keep only requests that took at least this many milliseconds.
        min_ms: Option<u64>,
    },
}

/// Where a `LOAD` request's DIMACS text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadSource {
    /// DIMACS text carried inline in the request.
    Inline(String),
    /// A path readable by the *server* process.
    Path(String),
}

/// Parameters of a `SAMPLE` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleParams {
    /// Registry key of the formula to sample.
    pub fingerprint: Fingerprint,
    /// Engine to sample with (`None` = [`DEFAULT_ENGINE`]); the
    /// (fingerprint, engine) pair must have been loaded.
    pub engine: Option<String>,
    /// Unique solutions requested.
    pub n: usize,
    /// Sampler seed; the same seed always reproduces the same solution
    /// sequence, at any thread count.
    pub seed: u64,
    /// Per-request deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Stale-round limit override (`None` = the stream default).
    pub max_stale: Option<u32>,
    /// Worker threads for this request (`None` = server default;
    /// `Some(0)` = one worker per core).
    pub threads: Option<usize>,
    /// Batch size override (`None` = the sampler default).
    pub batch: Option<usize>,
}

impl SampleParams {
    /// Parameters with every knob at its default for `fingerprint`.
    #[must_use]
    pub fn new(fingerprint: Fingerprint) -> Self {
        SampleParams {
            fingerprint,
            engine: None,
            n: DEFAULT_SAMPLE_N,
            seed: 0,
            deadline_ms: None,
            max_stale: None,
            threads: None,
            batch: None,
        }
    }

    /// Parameters targeting a specific engine, every other knob default.
    #[must_use]
    pub fn with_engine(fingerprint: Fingerprint, engine: &str) -> Self {
        SampleParams {
            engine: Some(engine.to_string()),
            ..SampleParams::new(fingerprint)
        }
    }
}

/// Parameters of a `SUBSCRIBE` request.
///
/// The (fingerprint, engine, seed, threads, batch, max_stale, chunk) tuple
/// keys the shared feed: subscribers with identical parameters share one
/// resident engine session, and its solution batches fan out to all of
/// them. `credit` is per-subscriber and does not key the feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeParams {
    /// Registry key of the formula to sample.
    pub fingerprint: Fingerprint,
    /// Engine to sample with (`None` = [`DEFAULT_ENGINE`]); the
    /// (fingerprint, engine) pair must have been loaded.
    pub engine: Option<String>,
    /// Seed of the shared trajectory.
    pub seed: u64,
    /// Worker threads for the shared session (`None` = server default).
    pub threads: Option<usize>,
    /// Batch size override (`None` = the sampler default).
    pub batch: Option<usize>,
    /// Stale-round limit override (`None` = the stream default).
    pub max_stale: Option<u32>,
    /// Initial credit: `pushed` frames the server may send before the
    /// subscriber tops up with `CREDIT`. Zero joins stalled.
    pub credit: u64,
    /// Solutions per `pushed` frame.
    pub chunk: usize,
}

impl SubscribeParams {
    /// Parameters with every knob at its default for `fingerprint`.
    #[must_use]
    pub fn new(fingerprint: Fingerprint) -> Self {
        SubscribeParams {
            fingerprint,
            engine: None,
            seed: 0,
            threads: None,
            batch: None,
            max_stale: None,
            credit: DEFAULT_SUBSCRIBE_CREDIT,
            chunk: DEFAULT_SUBSCRIBE_CHUNK,
        }
    }
}

/// A protocol-level decoding error (valid JSON, invalid request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Largest integer a JSON number (an `f64`) carries exactly. Fields that
/// may exceed it (the 64-bit seed) travel as decimal strings instead.
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Decodes a full-width `u64` field that may arrive as a JSON number *or*
/// a decimal string. Strings are the lossless transport: a JSON number is
/// an `f64` and silently rounds integers above 2^53, which for a sampler
/// seed would violate the same-seed determinism contract.
fn field_u64_exact(obj: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(text)) => text
            .parse()
            .map(Some)
            .map_err(|_| ProtoError(format!("`{key}` string must be a decimal 64-bit integer"))),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Encodes a full-width `u64` losslessly: as a number while exact in `f64`,
/// as a decimal string above 2^53 (a JSON number is an `f64` and would
/// silently round). The server echoes seeds with this too.
#[must_use]
pub fn encode_u64_exact(value: u64) -> Json {
    if value <= MAX_EXACT_JSON_INT {
        value.into()
    } else {
        Json::Str(value.to_string())
    }
}

/// Decodes the optional `engine` field (a string when present).
fn field_engine(obj: &Json) -> Result<Option<String>, ProtoError> {
    match obj.get("engine") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(name)) => Ok(Some(name.clone())),
        Some(_) => Err(ProtoError("`engine` must be a string".to_string())),
    }
}

fn field_fingerprint(obj: &Json) -> Result<Fingerprint, ProtoError> {
    let text = obj
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError("missing `fingerprint`".to_string()))?;
    text.parse()
        .map_err(|e| ProtoError(format!("invalid fingerprint: {e}")))
}

impl Request {
    /// Decodes a request from its parsed JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] naming the offending field for unknown
    /// commands, missing required fields and ill-typed values.
    pub fn decode(msg: &Json) -> Result<Request, ProtoError> {
        let cmd = msg
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("missing `cmd`".to_string()))?;
        match cmd {
            "hello" => {
                let version = field_u64(msg, "version")?
                    .ok_or_else(|| ProtoError("hello needs `version`".to_string()))?;
                Ok(Request::Hello { version })
            }
            "load" => {
                let name = msg.get("name").and_then(Json::as_str).map(str::to_string);
                let engine = field_engine(msg)?;
                let source = match (
                    msg.get("dimacs").and_then(Json::as_str),
                    msg.get("path").and_then(Json::as_str),
                ) {
                    (Some(text), None) => LoadSource::Inline(text.to_string()),
                    (None, Some(path)) => LoadSource::Path(path.to_string()),
                    (Some(_), Some(_)) => {
                        return Err(ProtoError(
                            "`dimacs` and `path` are mutually exclusive".to_string(),
                        ))
                    }
                    (None, None) => {
                        return Err(ProtoError("load needs `dimacs` or `path`".to_string()))
                    }
                };
                Ok(Request::Load {
                    name,
                    engine,
                    source,
                })
            }
            "sample" => {
                let mut params = SampleParams::new(field_fingerprint(msg)?);
                params.engine = field_engine(msg)?;
                if let Some(n) = field_u64(msg, "n")? {
                    params.n = n as usize;
                }
                if let Some(seed) = field_u64_exact(msg, "seed")? {
                    params.seed = seed;
                }
                params.deadline_ms = field_u64(msg, "deadline_ms")?;
                params.max_stale = field_u64(msg, "max_stale")?.map(|v| v as u32);
                params.threads = field_u64(msg, "threads")?.map(|v| v as usize);
                params.batch = field_u64(msg, "batch")?.map(|v| v as usize);
                if params.batch == Some(0) {
                    return Err(ProtoError("`batch` must be non-zero".to_string()));
                }
                Ok(Request::Sample(params))
            }
            "status" => Ok(Request::Status),
            "stats" => {
                let reset = match msg.get("reset") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(ProtoError("`reset` must be a boolean".to_string())),
                };
                Ok(Request::Stats { reset })
            }
            "evict" => Ok(Request::Evict {
                fingerprint: field_fingerprint(msg)?,
                engine: field_engine(msg)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            "subscribe" => {
                let mut params = SubscribeParams::new(field_fingerprint(msg)?);
                params.engine = field_engine(msg)?;
                if let Some(seed) = field_u64_exact(msg, "seed")? {
                    params.seed = seed;
                }
                params.threads = field_u64(msg, "threads")?.map(|v| v as usize);
                params.batch = field_u64(msg, "batch")?.map(|v| v as usize);
                params.max_stale = field_u64(msg, "max_stale")?.map(|v| v as u32);
                if let Some(credit) = field_u64(msg, "credit")? {
                    params.credit = credit;
                }
                if let Some(chunk) = field_u64(msg, "chunk")? {
                    params.chunk = chunk as usize;
                }
                if params.batch == Some(0) {
                    return Err(ProtoError("`batch` must be non-zero".to_string()));
                }
                if params.chunk == 0 {
                    return Err(ProtoError("`chunk` must be non-zero".to_string()));
                }
                Ok(Request::Subscribe(params))
            }
            "credit" => {
                let sub = field_u64(msg, "sub")?
                    .ok_or_else(|| ProtoError("credit needs `sub`".to_string()))?;
                let n = field_u64(msg, "n")?
                    .ok_or_else(|| ProtoError("credit needs `n`".to_string()))?;
                if n == 0 {
                    return Err(ProtoError("`n` must be non-zero".to_string()));
                }
                Ok(Request::Credit { sub, n })
            }
            "unsubscribe" => {
                let sub = field_u64(msg, "sub")?
                    .ok_or_else(|| ProtoError("unsubscribe needs `sub`".to_string()))?;
                Ok(Request::Unsubscribe { sub })
            }
            "register" => {
                let addr = msg
                    .get("addr")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError("register needs `addr`".to_string()))?;
                if addr.is_empty() {
                    return Err(ProtoError("`addr` must be non-empty".to_string()));
                }
                let ttl_ms = field_u64(msg, "ttl_ms")?;
                if ttl_ms == Some(0) {
                    return Err(ProtoError("`ttl_ms` must be non-zero".to_string()));
                }
                Ok(Request::Register {
                    addr: addr.to_string(),
                    ttl_ms,
                })
            }
            "trace" => {
                let verb = match msg.get("verb") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(name)) => Some(name.clone()),
                    Some(_) => return Err(ProtoError("`verb` must be a string".to_string())),
                };
                Ok(Request::Trace {
                    last: field_u64(msg, "last")?,
                    verb,
                    min_ms: field_u64(msg, "min_ms")?,
                })
            }
            other => Err(ProtoError(format!("unknown command `{other}`"))),
        }
    }

    /// Encodes the request to its JSON wire form (the client side of
    /// [`Request::decode`]).
    #[must_use]
    pub fn encode(&self) -> Json {
        match self {
            Request::Hello { version } => Json::obj(vec![
                ("cmd", "hello".into()),
                ("version", (*version).into()),
            ]),
            Request::Load {
                name,
                engine,
                source,
            } => {
                let mut pairs = vec![("cmd", Json::from("load"))];
                if let Some(name) = name {
                    pairs.push(("name", name.clone().into()));
                }
                if let Some(engine) = engine {
                    pairs.push(("engine", engine.clone().into()));
                }
                match source {
                    LoadSource::Inline(text) => pairs.push(("dimacs", text.clone().into())),
                    LoadSource::Path(path) => pairs.push(("path", path.clone().into())),
                }
                Json::obj(pairs)
            }
            Request::Sample(p) => {
                let mut pairs = vec![
                    ("cmd", Json::from("sample")),
                    ("fingerprint", p.fingerprint.to_hex().into()),
                    ("n", p.n.into()),
                    ("seed", encode_u64_exact(p.seed)),
                ];
                if let Some(engine) = &p.engine {
                    pairs.push(("engine", engine.clone().into()));
                }
                if let Some(ms) = p.deadline_ms {
                    pairs.push(("deadline_ms", ms.into()));
                }
                if let Some(stale) = p.max_stale {
                    pairs.push(("max_stale", u64::from(stale).into()));
                }
                if let Some(threads) = p.threads {
                    pairs.push(("threads", threads.into()));
                }
                if let Some(batch) = p.batch {
                    pairs.push(("batch", batch.into()));
                }
                Json::obj(pairs)
            }
            Request::Status => Json::obj(vec![("cmd", "status".into())]),
            Request::Stats { reset } => {
                let mut pairs = vec![("cmd", Json::from("stats"))];
                if *reset {
                    pairs.push(("reset", true.into()));
                }
                Json::obj(pairs)
            }
            Request::Evict {
                fingerprint,
                engine,
            } => {
                let mut pairs = vec![
                    ("cmd", "evict".into()),
                    ("fingerprint", fingerprint.to_hex().into()),
                ];
                if let Some(engine) = engine {
                    pairs.push(("engine", engine.clone().into()));
                }
                Json::obj(pairs)
            }
            Request::Shutdown => Json::obj(vec![("cmd", "shutdown".into())]),
            Request::Subscribe(p) => {
                let mut pairs = vec![
                    ("cmd", Json::from("subscribe")),
                    ("fingerprint", p.fingerprint.to_hex().into()),
                    ("seed", encode_u64_exact(p.seed)),
                ];
                if let Some(engine) = &p.engine {
                    pairs.push(("engine", engine.clone().into()));
                }
                if let Some(threads) = p.threads {
                    pairs.push(("threads", threads.into()));
                }
                if let Some(batch) = p.batch {
                    pairs.push(("batch", batch.into()));
                }
                if let Some(stale) = p.max_stale {
                    pairs.push(("max_stale", u64::from(stale).into()));
                }
                pairs.push(("credit", p.credit.into()));
                pairs.push(("chunk", p.chunk.into()));
                Json::obj(pairs)
            }
            Request::Credit { sub, n } => Json::obj(vec![
                ("cmd", "credit".into()),
                ("sub", (*sub).into()),
                ("n", (*n).into()),
            ]),
            Request::Unsubscribe { sub } => {
                Json::obj(vec![("cmd", "unsubscribe".into()), ("sub", (*sub).into())])
            }
            Request::Register { addr, ttl_ms } => {
                let mut pairs = vec![
                    ("cmd", Json::from("register")),
                    ("addr", addr.clone().into()),
                ];
                if let Some(ttl) = ttl_ms {
                    pairs.push(("ttl_ms", (*ttl).into()));
                }
                Json::obj(pairs)
            }
            Request::Trace { last, verb, min_ms } => {
                let mut pairs = vec![("cmd", Json::from("trace"))];
                if let Some(last) = last {
                    pairs.push(("last", (*last).into()));
                }
                if let Some(verb) = verb {
                    pairs.push(("verb", verb.clone().into()));
                }
                if let Some(ms) = min_ms {
                    pairs.push(("min_ms", (*ms).into()));
                }
                Json::obj(pairs)
            }
        }
    }
}

/// Decodes the v2 request tag: the client-chosen `"id"` echoed on every
/// frame the request produces. `Ok(None)` when absent (a v1 request, or a
/// v2 framing error the session layer reports with `"id": null`).
///
/// # Errors
///
/// Returns a [`ProtoError`] when `id` is present but not a non-negative
/// integer (or decimal string) — ids span the full `u64` range, so strings
/// are accepted like seeds.
pub fn request_id(msg: &Json) -> Result<Option<u64>, ProtoError> {
    field_u64_exact(msg, "id")
}

/// Decodes the optional client-supplied `"trace"` field: 1–32 hex
/// characters naming a 128-bit [`TraceId`] the request's timeline is
/// recorded under. `Ok(None)` when absent.
///
/// # Errors
///
/// Returns a [`ProtoError`] when `trace` is present but not a hex string
/// (answered as `bad-request`).
pub fn request_trace(msg: &Json) -> Result<Option<TraceId>, ProtoError> {
    match msg.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(text)) => TraceId::parse(text).map(Some).ok_or_else(|| {
            ProtoError("`trace` must be 1-32 hex characters (a 128-bit trace id)".to_string())
        }),
        Some(_) => Err(ProtoError("`trace` must be a hex string".to_string())),
    }
}

/// Appends the `"trace"` echo to a v2 frame of a client-traced request (a
/// no-op with `None` — untraced requests keep the pre-trace frame shape
/// bit-for-bit).
#[must_use]
pub fn frame_traced(mut frame: Json, trace: Option<TraceId>) -> Json {
    if let (Some(id), Json::Obj(pairs)) = (trace, &mut frame) {
        pairs.push(("trace".to_string(), Json::Str(id.to_hex())));
    }
    frame
}

/// Builds a v2 `reply` frame: the terminal (and only) frame of a unary
/// request, payload fields appended after `ok:true`.
#[must_use]
pub fn frame_reply(id: u64, payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("frame", Json::from("reply")),
        ("id", encode_u64_exact(id)),
        ("ok", true.into()),
    ];
    pairs.extend(payload);
    Json::obj(pairs)
}

/// A solution the frame builders can write as its wire bit string.
///
/// [`Solution`] is what every session emits and what the daemon sends.
/// The `Vec<bool>` implementation is a compatibility shim for the benchmark
/// in `perfbench/`, which still frames `Vec<bool>` rounds; it is deleted,
/// and the builders take `&[Solution]`, when the benchmark moves to
/// `Solution` (ROADMAP.md, item 7).
pub trait WireSolution {
    /// The wire bit string (`'1'` = true), one character per variable.
    fn wire_text(&self) -> String;
}

impl WireSolution for Solution {
    fn wire_text(&self) -> String {
        encode_packed(self)
    }
}

impl WireSolution for Vec<bool> {
    fn wire_text(&self) -> String {
        encode_solution(self)
    }
}

/// The `solutions` array of a `chunk` or `pushed` frame.
fn solution_array<S: WireSolution>(solutions: &[S]) -> Json {
    Json::Arr(
        solutions
            .iter()
            .map(|solution| solution.wire_text().into())
            .collect(),
    )
}

/// Builds a v2 `chunk` frame: one incremental batch of a streaming
/// `SAMPLE`, `seq` counting from 0 per request.
#[must_use]
pub fn frame_chunk<S: WireSolution>(id: u64, seq: u64, solutions: &[S]) -> Json {
    Json::obj(vec![
        ("frame", "chunk".into()),
        ("id", encode_u64_exact(id)),
        ("seq", seq.into()),
        ("solutions", solution_array(solutions)),
    ])
}

/// Builds a v2 `done` frame: the terminal frame of a streaming request,
/// payload fields (stats, elapsed) appended after `ok:true`.
#[must_use]
pub fn frame_done(id: u64, payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("frame", Json::from("done")),
        ("id", encode_u64_exact(id)),
        ("ok", true.into()),
    ];
    pairs.extend(payload);
    Json::obj(pairs)
}

/// Builds a v2 `pushed` frame: one fanned-out feed batch, addressed by
/// subscription id (`sub`), `seq` counting the feed's batches from 0.
#[must_use]
pub fn frame_pushed<S: WireSolution>(sub: u64, seq: u64, solutions: &[S]) -> Json {
    Json::obj(vec![
        ("frame", "pushed".into()),
        ("sub", encode_u64_exact(sub)),
        ("seq", seq.into()),
        ("solutions", solution_array(solutions)),
    ])
}

/// Builds the terminal `done` frame of a *feed*: addressed by subscription
/// id (`sub`, like `pushed`) because a feed outlives the `SUBSCRIBE`
/// request that opened it. Sent when the shared trajectory ends naturally
/// (solution space exhausted).
#[must_use]
pub fn frame_feed_done(sub: u64, payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("frame", Json::from("done")),
        ("sub", encode_u64_exact(sub)),
        ("ok", true.into()),
    ];
    pairs.extend(payload);
    Json::obj(pairs)
}

/// Builds the terminal `error` frame of a *feed* (addressed by `sub`, like
/// [`frame_feed_done`]) — e.g. code `shutdown` when the daemon stops under
/// live subscriptions.
#[must_use]
pub fn frame_feed_error(sub: u64, code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        ("frame", "error".into()),
        ("sub", encode_u64_exact(sub)),
        ("ok", false.into()),
        ("error", message.into()),
        ("code", code.as_str().into()),
    ])
}

/// Wraps a v1 response object into its v2 frame: `reply` for `ok:true`,
/// `error` for `ok:false`, with the response's own fields carried verbatim
/// after the `frame`/`id` tags. This is how the v2 session reuses every
/// unary v1 handler unchanged.
#[must_use]
pub fn frame_from_response(id: u64, response: &Json) -> Json {
    let kind = if response.get("ok").and_then(Json::as_bool) == Some(true) {
        "reply"
    } else {
        "error"
    };
    let mut pairs = vec![
        ("frame".to_string(), Json::from(kind)),
        ("id".to_string(), encode_u64_exact(id)),
    ];
    if let Json::Obj(fields) = response {
        pairs.extend(fields.iter().cloned());
    }
    Json::Obj(pairs)
}

/// Builds a v2 `error` frame: terminal for its `id`. `id: None` encodes as
/// `"id": null` and means the request line itself could not be attributed
/// to a request (bad JSON, missing id).
#[must_use]
pub fn frame_error(id: Option<u64>, code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        ("frame", "error".into()),
        ("id", id.map_or(Json::Null, encode_u64_exact)),
        ("ok", false.into()),
        ("error", message.into()),
        ("code", code.as_str().into()),
    ])
}

/// Stable machine-readable classification of a failure response.
///
/// The kebab-case wire form ([`ErrorCode::as_str`]) travels in the
/// response's `"code"` field and keys the per-code error counters
/// (`serve.errors.<code>`). Codes are append-only: clients may rely on an
/// existing code never changing meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    BadJson,
    /// Valid JSON but an invalid request: unknown command, missing or
    /// ill-typed field, out-of-range parameter, or a cap exceeded.
    BadRequest,
    /// The requested engine name is not one the daemon knows.
    EngineUnknown,
    /// The (fingerprint, engine) pair has not been loaded.
    NotLoaded,
    /// A `path` load was requested but the daemon runs without
    /// `--allow-path-load`.
    PathLoadDisabled,
    /// The server failed to read a requested resource (e.g. a `path` load).
    Io,
    /// The CNF could not be parsed or prepared for the engine.
    TransformFailed,
    /// Two distinct formulas collided on one fingerprint.
    FingerprintCollision,
    /// The daemon is shutting down and takes no further work.
    Shutdown,
    /// No live backend owns the requested shard (router-only: the
    /// discovery map is empty or every candidate refused the dial).
    NoBackend,
    /// The backend owning an in-flight request died mid-stream
    /// (router-only: terminal for that request; retry re-routes).
    BackendLost,
}

impl ErrorCode {
    /// The stable kebab-case wire form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::EngineUnknown => "engine-unknown",
            ErrorCode::NotLoaded => "not-loaded",
            ErrorCode::PathLoadDisabled => "path-load-disabled",
            ErrorCode::Io => "io",
            ErrorCode::TransformFailed => "transform-failed",
            ErrorCode::FingerprintCollision => "fingerprint-collision",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::NoBackend => "no-backend",
            ErrorCode::BackendLost => "backend-lost",
        }
    }

    /// The metric name its occurrences are counted under.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "serve.errors.bad-json",
            ErrorCode::BadRequest => "serve.errors.bad-request",
            ErrorCode::EngineUnknown => "serve.errors.engine-unknown",
            ErrorCode::NotLoaded => "serve.errors.not-loaded",
            ErrorCode::PathLoadDisabled => "serve.errors.path-load-disabled",
            ErrorCode::Io => "serve.errors.io",
            ErrorCode::TransformFailed => "serve.errors.transform-failed",
            ErrorCode::FingerprintCollision => "serve.errors.fingerprint-collision",
            ErrorCode::Shutdown => "serve.errors.shutdown",
            ErrorCode::NoBackend => "serve.errors.no-backend",
            ErrorCode::BackendLost => "serve.errors.backend-lost",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Builds the standard failure response: the human-readable `error`
/// message (unchanged across releases for a given failure) plus the stable
/// machine-readable `code`.
#[must_use]
pub fn error_response(code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        ("ok", false.into()),
        ("error", message.into()),
        ("code", code.as_str().into()),
    ])
}

/// Builds a success response from payload fields (prepends `"ok": true`).
#[must_use]
pub fn ok_response(mut payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut payload);
    Json::obj(pairs)
}

/// Encodes a solution bit-vector as the wire bit string (`'1'` = true).
#[must_use]
pub fn encode_solution(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The wire text of every byte of a packed solution: character `i` of
/// entry `b` is `'1'` exactly when bit `i` of `b` is set.
const BYTE_TEXT: [[u8; 8]; 256] = {
    let mut table = [[b'0'; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][bit] = b'1';
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Encodes a packed solution as the wire bit string, eight characters per
/// table lookup — the same text [`encode_solution`] gives its bits.
#[must_use]
pub(crate) fn encode_packed(solution: &Solution) -> String {
    let mut text = Vec::with_capacity(solution.words().len() * 64);
    for word in solution.words() {
        for byte in word.to_le_bytes() {
            text.extend_from_slice(&BYTE_TEXT[usize::from(byte)]);
        }
    }
    text.truncate(solution.len());
    String::from_utf8(text).expect("the table holds only ASCII digits")
}

/// Decodes a wire bit string back into a solution bit-vector.
///
/// # Errors
///
/// Returns a [`ProtoError`] on characters other than `'0'`/`'1'`.
pub fn decode_solution(text: &str) -> Result<Vec<bool>, ProtoError> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(ProtoError(format!("invalid solution bit `{other}`"))),
        })
        .collect()
}

/// Encodes [`StreamStats`] as a JSON object using the stable
/// [`StreamStats::fields`] names.
#[must_use]
pub fn encode_stats(stats: &StreamStats) -> Json {
    Json::Obj(
        stats
            .fields()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value.into()))
            .collect(),
    )
}

/// Decodes a stats object produced by [`encode_stats`]; missing fields
/// decode as zero.
#[must_use]
pub fn decode_stats(msg: &Json) -> StreamStats {
    let field = |name: &str| msg.get(name).and_then(Json::as_u64).unwrap_or_default() as usize;
    StreamStats {
        rounds: field("rounds"),
        attempts: field("attempts"),
        valid: field("valid"),
        yielded: field("yielded"),
        duplicates: field("duplicates"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsat_cnf::Cnf;

    fn fp() -> Fingerprint {
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, 2]);
        Fingerprint::of(&cnf)
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let requests = [
            Request::Load {
                name: Some("demo".to_string()),
                engine: None,
                source: LoadSource::Inline("p cnf 1 1\n1 0\n".to_string()),
            },
            Request::Load {
                name: None,
                engine: Some("walksat".to_string()),
                source: LoadSource::Path("/tmp/x.cnf".to_string()),
            },
            Request::Sample(SampleParams {
                n: 8,
                seed: 42,
                deadline_ms: Some(250),
                max_stale: Some(4),
                threads: Some(8),
                batch: Some(64),
                ..SampleParams::new(fp())
            }),
            Request::Sample(SampleParams::new(fp())),
            Request::Sample(SampleParams::with_engine(fp(), "unigen")),
            Request::Sample(SampleParams {
                // Above 2^53: must survive the wire exactly (string form).
                seed: u64::MAX - 1,
                ..SampleParams::new(fp())
            }),
            Request::Status,
            Request::Stats { reset: false },
            Request::Stats { reset: true },
            Request::Evict {
                fingerprint: fp(),
                engine: None,
            },
            Request::Evict {
                fingerprint: fp(),
                engine: Some("cmsgen".to_string()),
            },
            Request::Shutdown,
            Request::Hello { version: 2 },
            Request::Subscribe(SubscribeParams::new(fp())),
            Request::Subscribe(SubscribeParams {
                engine: Some("walksat".to_string()),
                seed: u64::MAX - 3, // above 2^53: travels as a string
                threads: Some(8),
                batch: Some(32),
                max_stale: Some(6),
                credit: 0,
                chunk: 5,
                ..SubscribeParams::new(fp())
            }),
            Request::Credit { sub: 3, n: 10 },
            Request::Unsubscribe { sub: 3 },
            Request::Trace {
                last: None,
                verb: None,
                min_ms: None,
            },
            Request::Trace {
                last: Some(5),
                verb: Some("sample".to_string()),
                min_ms: Some(250),
            },
            Request::Register {
                addr: "127.0.0.1:7878".to_string(),
                ttl_ms: None,
            },
            Request::Register {
                addr: "10.0.0.2:9000".to_string(),
                ttl_ms: Some(1500),
            },
        ];
        for request in requests {
            let line = request.encode().encode();
            let parsed = Json::parse(&line).expect("valid JSON");
            assert_eq!(Request::decode(&parsed).expect("decodes"), request);
        }
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        for (text, needle) in [
            (r#"{"n": 3}"#, "missing `cmd`"),
            (r#"{"cmd": "frobnicate"}"#, "unknown command"),
            (r#"{"cmd": "load"}"#, "`dimacs` or `path`"),
            (
                r#"{"cmd": "load", "dimacs": "x", "path": "y"}"#,
                "mutually exclusive",
            ),
            (r#"{"cmd": "sample"}"#, "missing `fingerprint`"),
            (
                r#"{"cmd": "sample", "fingerprint": "zz"}"#,
                "invalid fingerprint",
            ),
            (
                r#"{"cmd": "evict", "fingerprint": 7}"#,
                "missing `fingerprint`",
            ),
            (
                r#"{"cmd": "load", "dimacs": "x", "engine": 3}"#,
                "`engine` must be a string",
            ),
            (
                r#"{"cmd": "stats", "reset": "yes"}"#,
                "`reset` must be a boolean",
            ),
            (r#"{"cmd": "hello"}"#, "hello needs `version`"),
            (r#"{"cmd": "subscribe"}"#, "missing `fingerprint`"),
            (r#"{"cmd": "credit", "n": 1}"#, "credit needs `sub`"),
            (
                r#"{"cmd": "credit", "sub": 1, "n": 0}"#,
                "`n` must be non-zero",
            ),
            (r#"{"cmd": "unsubscribe"}"#, "unsubscribe needs `sub`"),
            (r#"{"cmd": "trace", "verb": 7}"#, "`verb` must be a string"),
            (r#"{"cmd": "register"}"#, "register needs `addr`"),
            (
                r#"{"cmd": "register", "addr": ""}"#,
                "`addr` must be non-empty",
            ),
            (
                r#"{"cmd": "register", "addr": "x:1", "ttl_ms": 0}"#,
                "`ttl_ms` must be non-zero",
            ),
            (
                r#"{"cmd": "trace", "last": "many"}"#,
                "`last` must be a non-negative integer",
            ),
        ] {
            let msg = Json::parse(text).expect("valid JSON");
            let err = Request::decode(&msg).expect_err(text);
            assert!(err.0.contains(needle), "{text}: {err}");
        }
        let bad_n = Json::parse(&format!(
            r#"{{"cmd": "sample", "fingerprint": "{}", "n": -1}}"#,
            fp().to_hex()
        ))
        .expect("valid JSON");
        assert!(Request::decode(&bad_n).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn packed_solutions_encode_like_their_bits(seed in proptest::prelude::any::<u64>()) {
            // Empty, one bit, both sides of the byte and word boundaries,
            // and paper scale.
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 10_600] {
                let bits: Vec<bool> = (0..len)
                    .map(|i| derive_bit(seed, i))
                    .collect();
                let packed = Solution::from_bits(&bits);
                proptest::prop_assert_eq!(encode_packed(&packed), encode_solution(&bits));
                proptest::prop_assert_eq!(packed.wire_text(), bits.wire_text());
            }
        }
    }

    /// Bit `i` of a SplitMix64 stream seeded with `seed`.
    fn derive_bit(seed: u64, i: usize) -> bool {
        let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    }

    #[test]
    fn both_solution_shapes_frame_identically() {
        let bits = vec![vec![true, false, true], vec![false; 3]];
        let packed: Vec<Solution> = bits.iter().map(|b| Solution::from_bits(b)).collect();
        assert_eq!(frame_chunk(3, 0, &bits), frame_chunk(3, 0, &packed));
        assert_eq!(frame_pushed(3, 0, &bits), frame_pushed(3, 0, &packed));
    }

    #[test]
    fn solution_bit_strings_round_trip() {
        let bits = vec![true, false, false, true, true];
        let text = encode_solution(&bits);
        assert_eq!(text, "10011");
        assert_eq!(decode_solution(&text).expect("decodes"), bits);
        assert!(decode_solution("01x").is_err());
    }

    #[test]
    fn stats_round_trip() {
        let stats = StreamStats {
            rounds: 3,
            attempts: 300,
            valid: 50,
            yielded: 40,
            duplicates: 10,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)), stats);
        assert_eq!(decode_stats(&Json::obj(vec![])), StreamStats::default());
    }

    #[test]
    fn response_builders_shape() {
        let ok = ok_response(vec![("x", 1usize.into())]);
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("x").and_then(Json::as_u64), Some(1));
        let err = error_response(ErrorCode::BadRequest, "boom");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("boom"));
        assert_eq!(err.get("code").and_then(Json::as_str), Some("bad-request"));
    }

    #[test]
    fn subscribe_rejects_zero_chunk() {
        let msg = Json::parse(&format!(
            r#"{{"cmd": "subscribe", "fingerprint": "{}", "chunk": 0}}"#,
            fp().to_hex()
        ))
        .expect("valid JSON");
        let err = Request::decode(&msg).expect_err("zero chunk");
        assert!(err.0.contains("`chunk` must be non-zero"), "{err}");
    }

    #[test]
    fn request_id_decodes_numbers_strings_and_absence() {
        let tagged = Json::parse(r#"{"cmd":"status","id":7}"#).expect("json");
        assert_eq!(request_id(&tagged).expect("decodes"), Some(7));
        // Full-width ids travel as decimal strings, like seeds.
        let wide = Json::parse(&format!(r#"{{"id":"{}"}}"#, u64::MAX)).expect("json");
        assert_eq!(request_id(&wide).expect("decodes"), Some(u64::MAX));
        let untagged = Json::parse(r#"{"cmd":"status"}"#).expect("json");
        assert_eq!(request_id(&untagged).expect("decodes"), None);
        let bad = Json::parse(r#"{"id":-3}"#).expect("json");
        assert!(request_id(&bad).is_err());
    }

    #[test]
    fn v2_frames_have_the_documented_shape() {
        let reply = frame_reply(4, vec![("version", 2u64.into())]);
        assert_eq!(reply.get("frame").and_then(Json::as_str), Some("reply"));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("version").and_then(Json::as_u64), Some(2));

        let solutions = vec![vec![true, false], vec![false, true]];
        let chunk = frame_chunk(4, 1, &solutions);
        assert_eq!(chunk.get("frame").and_then(Json::as_str), Some("chunk"));
        assert_eq!(chunk.get("seq").and_then(Json::as_u64), Some(1));
        let encoded = match chunk.get("solutions") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect::<Vec<_>>(),
            other => panic!("solutions not an array: {other:?}"),
        };
        assert_eq!(encoded, vec!["10", "01"]);

        let done = frame_done(4, vec![("exhausted", false.into())]);
        assert_eq!(done.get("frame").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));

        let pushed = frame_pushed(9, 0, &solutions);
        assert_eq!(pushed.get("frame").and_then(Json::as_str), Some("pushed"));
        assert_eq!(pushed.get("sub").and_then(Json::as_u64), Some(9));

        let err = frame_error(Some(4), ErrorCode::Shutdown, "stopping");
        assert_eq!(err.get("frame").and_then(Json::as_str), Some("error"));
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("code").and_then(Json::as_str), Some("shutdown"));
        let anon = frame_error(None, ErrorCode::BadJson, "not json");
        assert_eq!(anon.get("id"), Some(&Json::Null));
    }

    #[test]
    fn request_trace_decodes_hex_absence_and_rejects_junk() {
        let traced = Json::parse(r#"{"cmd":"status","trace":"00ff"}"#).expect("json");
        assert_eq!(
            request_trace(&traced).expect("decodes"),
            Some(TraceId::from_u128(0xff))
        );
        // Full-width ids round-trip through their own hex form.
        let id = TraceId::from_u128(u128::MAX - 17);
        let wide = Json::parse(&format!(r#"{{"trace":"{}"}}"#, id.to_hex())).expect("json");
        assert_eq!(request_trace(&wide).expect("decodes"), Some(id));
        let untraced = Json::parse(r#"{"cmd":"status"}"#).expect("json");
        assert_eq!(request_trace(&untraced).expect("decodes"), None);
        for bad in [r#"{"trace":"zz"}"#, r#"{"trace":""}"#, r#"{"trace":12}"#] {
            let msg = Json::parse(bad).expect("json");
            assert!(request_trace(&msg).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn frame_traced_echoes_on_every_frame_kind_and_preserves_untraced() {
        let id = TraceId::from_u128(0xabc);
        let solutions = vec![vec![true, false]];
        for frame in [
            frame_reply(4, vec![("version", 2u64.into())]),
            frame_chunk(4, 0, &solutions),
            frame_done(4, vec![("exhausted", false.into())]),
            frame_error(Some(4), ErrorCode::BadRequest, "boom"),
        ] {
            let untraced = frame_traced(frame.clone(), None);
            assert_eq!(untraced, frame, "None must not change the frame");
            assert!(untraced.get("trace").is_none());
            let traced = frame_traced(frame, Some(id));
            assert_eq!(
                traced.get("trace").and_then(Json::as_str),
                Some(id.to_hex().as_str())
            );
        }
    }

    #[test]
    fn error_codes_are_kebab_case_and_distinct() {
        let codes = [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::EngineUnknown,
            ErrorCode::NotLoaded,
            ErrorCode::PathLoadDisabled,
            ErrorCode::Io,
            ErrorCode::TransformFailed,
            ErrorCode::FingerprintCollision,
            ErrorCode::Shutdown,
            ErrorCode::NoBackend,
            ErrorCode::BackendLost,
        ];
        let mut seen = std::collections::HashSet::new();
        for code in codes {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate code {s}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{s} must be kebab-case"
            );
            assert_eq!(code.metric_name(), format!("serve.errors.{s}"));
        }
    }
}
