//! The workspace-wide sampling-engine abstraction.
//!
//! The paper's headline claim is a *comparison*: the transformed-circuit GD
//! sampler against UniGen-, CMSGen-, QuickSampler- and DiffSampler-style
//! baselines. This module defines the one contract every one of those
//! samplers is served, benchmarked and tested through:
//!
//! > **prepare once → mint cheap per-request sessions → stream solutions.**
//!
//! * **Prepare once** — a [`SampleEngine`] is a formula-specific artifact:
//!   whatever is expensive and request-independent (the CNF-to-circuit
//!   transformation and kernel compilation for the GD sampler, the soft-CNF
//!   circuit for a DiffSampler-style engine, just the formula for the
//!   solver-backed baselines) is built exactly once and shared.
//! * **Mint sessions** — [`SampleEngine::session`] turns a per-request
//!   [`SessionConfig`] (seed, backend, batch override) into a cheap
//!   [`BoxedSession`]: a round-based producer of valid solutions that owns
//!   all mutable state (RNGs, solvers, logit matrices) for that request.
//! * **Stream** — sessions plug into the runtime's
//!   [`SampleStream`], which supplies incremental deduplication, deadlines,
//!   stale-round exhaustion, [`StopToken`](htsat_runtime::StopToken)
//!   cancellation and per-stream [`StreamStats`](htsat_runtime::StreamStats)
//!   uniformly — no engine re-implements any of it.
//!
//! Determinism is part of the contract: for a fixed [`SessionConfig::seed`],
//! an engine's solution *sequence* must be identical at any thread count and
//! on every mint (sessions share no mutable state). That is what lets a
//! serving daemon cache one prepared engine per (formula, engine) pair and
//! answer `SAMPLE` requests bit-for-bit reproducibly.

use crate::sampler::SampleReport;
use crate::TransformError;
use htsat_cnf::{Cnf, Solution};
use htsat_runtime::{RoundSource, SampleStream};
use htsat_tensor::{Backend, MemoryModel};
use std::time::Duration;

/// A per-request sampling session: a boxed round source over packed
/// [`Solution`]s. Sessions must emit only *valid* solutions of the engine's
/// CNF; deduplication is the stream's job.
pub type BoxedSession = Box<dyn RoundSource<Item = Solution> + Send>;

/// The stream type minted by [`SampleEngine::stream`].
pub type EngineStream = SampleStream<BoxedSession>;

/// Per-request run-time configuration of an engine session.
///
/// Everything request-independent lives in the engine itself (it was fixed
/// at prepare time); everything here may vary per request without touching
/// the prepared artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// Seed of the session's randomness. The same seed reproduces the same
    /// solution sequence — at any thread count, on any mint of the engine.
    pub seed: u64,
    /// Execution backend for engines with a data-parallel batch dimension
    /// (the GD and DiffSampler-style engines). Solver-backed engines ignore
    /// it, which keeps them trivially thread-count deterministic.
    pub backend: Backend,
    /// Batch-size override for batched engines (`None` = engine default).
    pub batch: Option<usize>,
}

impl SessionConfig {
    /// A config with the given seed and every other knob at its default.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SessionConfig {
            seed,
            ..SessionConfig::default()
        }
    }
}

/// A prepared, formula-specific sampling engine.
///
/// Implementations are immutable request-independent artifacts: `&self`
/// methods only, `Send + Sync`, shareable behind an `Arc` by a server. All
/// per-request mutability lives in the sessions an engine mints.
pub trait SampleEngine: Send + Sync {
    /// Stable engine identifier — the wire/registry name (`"gd"`,
    /// `"walksat"`, `"unigen"`, …).
    fn name(&self) -> &'static str;

    /// The CNF this engine was prepared for. Sessions emit assignments over
    /// exactly this variable universe.
    fn cnf(&self) -> &Cnf;

    /// Mints a per-request session.
    ///
    /// Minting must be cheap relative to preparation (no recompilation, no
    /// transformation) and must not observe other sessions: two sessions
    /// minted with the same config produce identical solution sequences.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidConfig`] for run-time configurations
    /// the engine cannot honour (e.g. a zero batch override).
    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError>;

    /// Modelled resident bytes of one sampling run at `batch` rows over
    /// `workers` pool workers — the quantity a serving registry budgets by.
    ///
    /// The default models the formula itself (solver-backed engines hold
    /// little beyond the CNF); engines with compiled artifacts override it.
    fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        MemoryModel::new(self.cnf().num_vars(), self.cnf().num_clauses(), batch)
            .with_workers(workers)
    }

    /// Structural sizes of the prepared artifacts as stable `(name, value)`
    /// pairs for status reporting (empty when the engine has no compiled
    /// artifacts worth reporting).
    fn artifact_dims(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    /// Mints a session and wraps it in a [`SampleStream`]: a lazy iterator
    /// of unique solutions with deduplication, deadline, stale-limit and
    /// cancellation support via the stream's builder methods.
    ///
    /// Engines do not override this: it is where every session is counted
    /// (`engine.sessions` and `engine.sessions.<name>`). A session that
    /// deduplicates itself says so through
    /// [`RoundSource::dedups_internally`].
    ///
    /// # Errors
    ///
    /// Propagates [`SampleEngine::session`] errors.
    fn stream(&self, config: &SessionConfig) -> Result<EngineStream, TransformError> {
        let session = self.session(config)?;
        // Session minting is the engine-session entry point: count it both
        // in total and per engine. Round/sample/dedup totals are recorded by
        // the stream itself when it drops (`engine.*` counters).
        htsat_obs::counter!("engine.sessions").inc();
        htsat_obs::global()
            .counter(&format!("engine.sessions.{}", self.name()))
            .inc();
        Ok(SampleStream::new(session))
    }

    /// The blocking convenience wrapper over [`SampleEngine::stream`]:
    /// samples until `min_solutions` unique solutions are collected, the
    /// timeout elapses, or the stream exhausts — whichever comes first.
    /// Unique solutions the final round discovered beyond the target are
    /// included (they were already paid for).
    ///
    /// # Errors
    ///
    /// Propagates [`SampleEngine::session`] errors.
    fn sample(
        &self,
        config: &SessionConfig,
        min_solutions: usize,
        timeout: Duration,
    ) -> Result<SampleReport, TransformError> {
        Ok(SampleReport::collect(
            self.stream(config)?.with_timeout(timeout),
            min_solutions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::PreparedFormula;
    use crate::transform::TransformConfig;
    use htsat_cnf::dimacs;

    fn cnf() -> Cnf {
        dimacs::parse_str("p cnf 4 3\n1 2 0\n-2 3 0\n3 4 0\n").expect("valid DIMACS")
    }

    fn engine() -> PreparedFormula {
        PreparedFormula::prepare(&cnf(), &TransformConfig::default()).expect("prepare")
    }

    #[test]
    fn engine_streams_valid_unique_solutions() {
        let engine = engine();
        let config = SessionConfig::with_seed(3);
        let solutions: Vec<Solution> = engine.stream(&config).expect("stream").take(4).collect();
        assert_eq!(solutions.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for s in &solutions {
            assert!(engine.cnf().is_satisfied_by_bits(&s.to_bits()));
            assert!(seen.insert(s.clone()), "duplicate across the stream");
        }
    }

    #[test]
    fn sessions_are_independent_and_deterministic() {
        let engine = engine();
        let config = SessionConfig::with_seed(11);
        let take = |config: &SessionConfig| -> Vec<Solution> {
            engine.stream(config).expect("stream").take(5).collect()
        };
        // Two mints with the same config: identical sequences (no shared
        // mutable state), and a different seed diverges.
        assert_eq!(take(&config), take(&config));
        assert_ne!(take(&config), take(&SessionConfig::with_seed(12)));
    }

    #[test]
    fn blocking_sample_collects_the_stream() {
        let engine = engine();
        let report = engine
            .sample(
                &SessionConfig::default(),
                3,
                std::time::Duration::from_secs(5),
            )
            .expect("sample");
        assert!(report.solutions.len() >= 3);
        assert!(report.rounds > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn session_batch_override_is_honoured() {
        let engine = engine();
        // A zero batch override must be rejected, not panic downstream.
        let zero = SessionConfig {
            batch: Some(0),
            ..SessionConfig::default()
        };
        assert!(engine.session(&zero).is_err());
        let small = SessionConfig {
            batch: Some(8),
            ..SessionConfig::default()
        };
        assert!(engine.session(&small).is_ok());
    }

    #[test]
    fn memory_model_reflects_batch_and_workers() {
        let engine = engine();
        let small = SampleEngine::memory_model(&engine, 64, 1).total_bytes();
        let large = SampleEngine::memory_model(&engine, 4096, 8).total_bytes();
        assert!(large > small);
    }

    #[test]
    fn artifact_dims_report_the_compiled_circuit() {
        let engine = engine();
        let dims = engine.artifact_dims();
        let dim = |name: &str| dims.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
        assert!(dim("inputs") > Some(0));
        assert!(dim("nodes") > Some(0));
        // The cone sizes are the netlist's constrained cone.
        let netlist = &engine.transform_result().netlist;
        let cone = netlist
            .constrained_cone()
            .into_iter()
            .filter(|&c| c)
            .count();
        assert_eq!(dim("cone_nodes"), Some(cone));
        assert_eq!(dim("cone_inputs"), Some(netlist.partition_inputs().0.len()));
        assert!(dim("cone_nodes") <= dim("nodes"));
    }
}
