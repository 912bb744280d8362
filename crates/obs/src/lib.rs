//! # htsat-obs
//!
//! Std-only observability for the htsat stack: metrics, spans, and a tiny
//! leveled logger. Sits **below** `htsat-runtime`, `htsat-core`, and
//! `htsat-serve` in the dependency order and depends only on std plus the
//! hand-rolled `htsat-json` codec, so any layer can instrument itself
//! without new dependencies.
//!
//! Three pieces:
//!
//! * **Metrics** — a process-wide [`Registry`] of lock-free [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s, registered by
//!   name through the [`counter!`], [`gauge!`], and [`histogram!`] macros.
//!   Updates are single relaxed atomics; [`Registry::snapshot`] produces a
//!   deterministic, schema-versioned JSON [`Snapshot`] the daemon serves
//!   over the `STATS` verb.
//! * **Spans** — [`span!`]`("name")` returns a guard that records the
//!   scope's wall-time into a histogram on drop, with optional per-span
//!   event counters. Zero heap allocations after a call site's first
//!   execution (proven by the `alloc_free` counting-allocator test), so it
//!   is safe inside the sampler round loop.
//! * **Logging** — [`error!`] / [`warn!`] / [`info!`] / [`debug!`] macros
//!   behind an `HTSAT_LOG` environment filter, writing timestamped lines to
//!   stderr with one locked write per record.
//! * **Tracing** — the [`trace`] module keeps per-request span *timelines*
//!   (name, parent, start offset, duration) in a pre-allocated lock-free
//!   ring. A thread with a current trace installed ([`trace::install`])
//!   binds every [`span!`] guard to that request; the daemon serves the
//!   retained timelines over the `TRACE` verb as a schema-versioned
//!   (`htsat-trace-v1`) JSON document.
//!
//! Metrics are **observer-only** by contract: nothing in this crate feeds
//! back into sampling behavior, so instrumented and uninstrumented runs
//! produce bit-identical streams (the serve e2e determinism gates run with
//! instrumentation enabled).
//!
//! # Example
//!
//! ```
//! use htsat_obs as obs;
//!
//! {
//!     let span = obs::span!("demo.round");
//!     obs::counter!("demo.samples").add(8);
//!     span.event();
//! }
//! let snapshot = obs::global().snapshot();
//! assert!(snapshot.counter("demo.samples").unwrap() >= 8);
//! let text = snapshot.to_json().encode();
//! assert!(text.starts_with("{\"schema\":\"htsat-stats-v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod logging;
mod metrics;
mod snapshot;
mod span;
mod time;
pub mod trace;

pub use logging::{log_enabled, max_level, set_max_level, write_log, Level};
pub use metrics::{global, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, Snapshot, SNAPSHOT_SCHEMA};
pub use span::{SpanGuard, SpanMeter};
pub use time::Stopwatch;
pub use trace::{TraceId, TraceReport, TRACE_SCHEMA};
