//! # htsat-serve
//!
//! The serving front-end of the htsat workspace: a **dependency-free TCP
//! daemon** that keeps compiled samplers resident between requests, so the
//! per-request cost of sampling a known formula drops from
//! *parse + transform + compile + sample* to just *sample*.
//!
//! The crate is std-only on top of the workspace (no tokio, no hyper, no
//! serde): the wire protocol is newline-delimited JSON with a hand-rolled
//! codec ([`json`]), transport is `std::net::TcpStream`, and request
//! parallelism comes from `std::thread` plus the workspace's own
//! [`htsat_runtime::ThreadPool`] underneath each sampler.
//!
//! The moving parts:
//!
//! * [`json`] — the minimal JSON codec (the shared `htsat-json` crate,
//!   re-exported under its historical module path).
//! * [`proto`] — the request/response message shapes and the protocol
//!   grammar (`LOAD`, `SAMPLE`, `STATUS`, `STATS`, `EVICT`, `SHUTDOWN`),
//!   including the per-request `engine` selector and the stable
//!   machine-readable [`ErrorCode`] every failure response carries.
//! * [`registry`] — the (formula, engine)-keyed sampler registry:
//!   ([`htsat_cnf::Fingerprint`], engine name) → a prepared
//!   [`htsat_core::SampleEngine`] (the GD sampler or any baseline, built
//!   through [`htsat_baselines::engine_by_name`]), with LRU eviction under
//!   a [`htsat_tensor::MemoryModel`]-driven byte budget. The registry hit
//!   path performs **no re-preparation** (asserted by its compile counter).
//! * [`server`] — the accept loop, per-connection sessions, per-request
//!   [`htsat_runtime::StopToken`]s grouped in a
//!   [`htsat_runtime::StopSet`], and graceful shutdown (in-flight streams
//!   cancelled, sessions drained).
//! * [`conn`] — the connection core shared with `htsat-router`: the line
//!   reader, accept loop, line writes, the v1 exchange and the request
//!   prelude, so both servers answer malformed lines identically.
//! * [`client`] — a blocking client used by tests, CI and
//!   `repro serve-bench`.
//!
//! The daemon is instrumented through `htsat-obs`: request counts per
//! verb, a request-latency histogram, connection and byte counters,
//! registry hit/miss/compile/eviction/coalesce counters and per-engine
//! residency gauges — all observer-only (instrumented runs stay
//! bit-identical) and exported over the wire by the `STATS` verb as a
//! schema-versioned [`htsat_obs::Snapshot`]. Diagnostics go through the
//! `htsat-obs` leveled logger (`HTSAT_LOG=error|warn|info|debug`).
//!
//! Determinism survives the wire for **every engine**: a `SAMPLE` with a
//! fixed seed returns the identical solution sequence as the in-process
//! [`htsat_core::SampleEngine::stream`] API, at any worker thread count —
//! the end-to-end tests assert byte equality at 1 and 8 threads across the
//! whole engine matrix, so clients can A/B the GD sampler against any
//! baseline bit-for-bit.
//!
//! # Example
//!
//! ```
//! use htsat_serve::proto::SampleParams;
//! use htsat_serve::{serve, Client, ServeConfig};
//!
//! // An ephemeral-port daemon (the default config binds 127.0.0.1:0).
//! let server = serve(ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! let load = client.load_dimacs(Some("demo"), "p cnf 2 1\n1 2 0\n")?;
//! let reply = client.sample(&SampleParams {
//!     n: 3,
//!     seed: 7,
//!     ..SampleParams::new(load.fingerprint)
//! })?;
//! assert_eq!(reply.solutions.len(), 3);
//! client.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod conn;
mod feed;
pub use htsat_json as json;
pub mod proto;
pub mod registry;
pub mod server;
mod session;

pub use cache::CompileCache;
pub use client::{
    dial, Client, ClientError, ConnectOptions, LoadReply, SampleDone, SampleEvent, SampleReply,
    SampleStream, SubEvent,
};
pub use proto::ErrorCode;
pub use registry::{RegistryConfig, RegistryCounters, SamplerRegistry};
pub use server::{serve, ServeConfig, ServerHandle};

use htsat_core::TransformError;

/// Errors of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The formula could not be prepared for the requested engine
    /// (structurally unsatisfiable, or an invalid engine configuration).
    Transform(TransformError),
    /// The request named an engine the daemon does not know.
    UnknownEngine(String),
    /// A loaded formula hashed to a resident entry's fingerprint but is a
    /// different formula — serving would return the wrong solutions.
    FingerprintCollision(htsat_cnf::Fingerprint),
    /// Transport-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Transform(e) => write!(f, "{e}"),
            ServeError::UnknownEngine(name) => write!(
                f,
                "unknown engine `{name}` (known: {})",
                htsat_baselines::ENGINE_NAMES.join(", ")
            ),
            ServeError::FingerprintCollision(fp) => write!(
                f,
                "fingerprint collision: a different resident formula already hashes to {fp}"
            ),
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TransformError> for ServeError {
    fn from(e: TransformError) -> Self {
        ServeError::Transform(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
