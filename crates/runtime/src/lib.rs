//! # htsat-runtime
//!
//! The execution runtime of the htsat workspace: a dependency-free
//! `std::thread` scoped thread pool behind an [`Executor`] trait, plus the
//! generic **streaming sampling service** ([`SampleStream`]) built on top of
//! it.
//!
//! The paper's headline result is that sampling is *data-parallel*: every
//! batch element is an independent gradient-descent problem. This crate
//! supplies that parallelism:
//!
//! * [`Executor`] — the abstraction the tensor backend dispatches through:
//!   run a row-wise kernel over a mutable batch buffer, or map a function
//!   over indices, partitioned into chunks.
//! * [`ThreadPool`] — a scoped worker pool. Work is split into a queue of
//!   contiguous chunks and the workers *claim* chunks through a shared atomic
//!   cursor, so a slow chunk never stalls the others (counter-based work
//!   stealing, no external dependencies, no `unsafe`).
//! * [`SequentialExecutor`] — the same contract on the calling thread, used
//!   as the single-threaded short-circuit and as the reference in tests.
//! * [`StopToken`] — a cloneable cancellation flag shared across threads,
//!   with [`StopSet`] grouping many tokens under one scope (a connection, a
//!   server) so they can all be fired at once.
//! * [`RoundSource`] / [`SampleStream`] — the streaming service: any
//!   generator that produces batches ("rounds") of items becomes an
//!   `Iterator` with incremental deduplication, deadline handling,
//!   cancellation and progress statistics.
//! * [`Stopwatch`] / [`measure`] — monotonic timing helpers for measurement
//!   code (the bench harness's warmup/timed phase separation is built on
//!   them). Re-exported from `htsat-obs` so bench timing and the `span!`
//!   telemetry share one substrate.
//!
//! The pool and the stream are instrumented through `htsat-obs`
//! (`runtime.*` region counters/histograms, `engine.*` stream totals).
//! Metrics are observer-only — relaxed atomics recorded per region and per
//! stream, never per row — so instrumented runs stay bit-identical.
//!
//! Determinism is a design constraint, not an accident: the executor
//! preserves index order in [`Executor::map_indices`], and
//! [`derive_stream_seed`] gives callers per-row RNG streams so results are
//! identical for a given seed at *any* thread count.
//!
//! # Example
//!
//! ```
//! use htsat_runtime::{Executor, SequentialExecutor, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map_indices(100, |i| i * i);
//! assert_eq!(squares, SequentialExecutor.map_indices(100, |i| i * i));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod pool;
mod stop;
mod stream;
mod timing;

pub use executor::{Executor, SequentialExecutor};
pub use pool::ThreadPool;
pub use stop::{StopSet, StopToken};
pub use stream::{unique_throughput, RoundSource, SampleStream, StreamStats, MIN_MEASURABLE_TICK};
pub use timing::{measure, Stopwatch};

/// Mixes a base seed and a stream index into an independent RNG seed.
///
/// This is the SplitMix64 finalizer: statistically independent outputs for
/// adjacent indices, so every batch row can own a private RNG stream derived
/// from one master seed. Sampling code seeds row `i` of a round with
/// `derive_stream_seed(round_seed, i)`, which makes the produced samples a
/// function of `(seed, row)` alone — independent of which thread runs the
/// row, and therefore of the thread count.
#[must_use]
pub fn derive_stream_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_differ_per_index() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_stream_seed(42, i)).collect();
        let unique: std::collections::HashSet<&u64> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn stream_seeds_are_deterministic() {
        assert_eq!(derive_stream_seed(7, 3), derive_stream_seed(7, 3));
        assert_ne!(derive_stream_seed(7, 3), derive_stream_seed(8, 3));
    }
}
