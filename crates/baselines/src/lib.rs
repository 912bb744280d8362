//! # htsat-baselines
//!
//! Baseline SAT samplers the paper compares against, re-implemented on top of
//! the workspace's own CDCL, WalkSAT and tensor substrates, each as a
//! prepared [`htsat_core::SampleEngine`]:
//!
//! * [`CmsGenEngine`] — a CDCL solver with randomised polarity and
//!   branching, re-solved with fresh seeds per sample (the CMSGen recipe),
//! * [`UniGenEngine`] — XOR-hash-based near-uniform sampling: random parity
//!   constraints partition the solution space and the surviving cell is
//!   enumerated (the UniGen3 recipe, without the approximate-counting
//!   machinery),
//! * [`QuickSamplerEngine`] — one seed model plus atomic flips and flip
//!   combinations, validated against the formula,
//! * [`WalkSatEngine`] — repeated stochastic local search from random
//!   starting points,
//! * [`DiffSamplerEngine`] — gradient descent directly on the CNF's soft
//!   clause relaxation (the DiffSampler recipe), sharing the tensor backend
//!   with the transformed-circuit sampler so the ablation isolates the
//!   effect of the transformation itself.
//!
//! The paper's own sampler is [`htsat_core::PreparedFormula`]. Every engine
//! is prepared once per formula from the CNF alone — the recipe parameters
//! are module constants — and mints cheap per-request sessions streaming
//! solutions through [`htsat_runtime::SampleStream`], with the seed, backend
//! and batch of the request's [`htsat_core::SessionConfig`], deadlines,
//! stale-limits, cancellation and per-stream statistics. [`engine_by_name`]
//! builds any of them from its wire name; a blocking run is
//! `engine_by_name(..)?.sample(&SessionConfig, n, timeout)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cmsgen;
mod diffsampler;
mod quicksampler;
mod unigen;
mod walksat_sampler;
pub mod xor;

pub use cmsgen::CmsGenEngine;
pub use diffsampler::DiffSamplerEngine;
pub use quicksampler::QuickSamplerEngine;
pub use unigen::UniGenEngine;
pub use walksat_sampler::WalkSatEngine;

use htsat_cnf::Cnf;
use htsat_core::{PreparedFormula, SampleEngine, TransformConfig, TransformError};

/// Canonical engine names, as used on the wire, in the serving registry and
/// by [`engine_by_name`]. The paper's sampler is `"gd"`; the rest are the
/// baselines of the Table II / Fig. 2 comparison.
pub const ENGINE_NAMES: [&str; 6] = [
    "gd",
    "diffsampler",
    "cmsgen",
    "unigen",
    "quicksampler",
    "walksat",
];

/// Resolves an engine name to its canonical `'static` form (the exact
/// strings of [`ENGINE_NAMES`]), or `None` for unknown names.
#[must_use]
pub fn resolve_engine_name(name: &str) -> Option<&'static str> {
    ENGINE_NAMES.iter().find(|&&n| n == name).copied()
}

/// Builds a prepared [`SampleEngine`] for `cnf` from its canonical name.
///
/// This is the one extension point a serving daemon or benchmark needs: any
/// sampler reachable here can be cached per (formula, engine), minted into
/// per-request sessions and streamed over the wire. `transform` is only
/// consulted by the `"gd"` engine (the CNF-to-circuit transformation
/// options); the baselines prepare from the CNF alone.
///
/// # Errors
///
/// Returns [`TransformError::InvalidConfig`] for unknown names and
/// propagates transformation failures of the `"gd"` engine (structurally
/// unsatisfiable formulas).
pub fn engine_by_name(
    name: &str,
    cnf: &Cnf,
    transform: &TransformConfig,
) -> Result<Box<dyn SampleEngine>, TransformError> {
    match resolve_engine_name(name) {
        Some("gd") => Ok(Box::new(PreparedFormula::prepare(cnf, transform)?)),
        Some("diffsampler") => Ok(Box::new(DiffSamplerEngine::prepare(cnf))),
        Some("cmsgen") => Ok(Box::new(CmsGenEngine::prepare(cnf))),
        Some("unigen") => Ok(Box::new(UniGenEngine::prepare(cnf))),
        Some("quicksampler") => Ok(Box::new(QuickSamplerEngine::prepare(cnf))),
        Some("walksat") => Ok(Box::new(WalkSatEngine::prepare(cnf))),
        _ => Err(TransformError::InvalidConfig(format!(
            "unknown engine `{name}` (known: {})",
            ENGINE_NAMES.join(", ")
        ))),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use htsat_cnf::Cnf;
    use htsat_core::{SampleReport, SessionConfig, TransformConfig};
    use std::time::Duration;

    /// A loose formula with many solutions: (x1 ∨ x2)(x3 ∨ ¬x4)(x5 ∨ x6 ∨ x7).
    pub fn loose_cnf() -> Cnf {
        let mut cnf = Cnf::new(7);
        cnf.add_dimacs_clause([1, 2]);
        cnf.add_dimacs_clause([3, -4]);
        cnf.add_dimacs_clause([5, 6, 7]);
        cnf
    }

    /// A gate-structured formula: x3 = x1 AND x2 constrained true, plus a MUX.
    pub fn gate_cnf() -> Cnf {
        let mut cnf = Cnf::new(6);
        // x3 = OR(x1, x2)
        cnf.add_dimacs_clause([-3, 1, 2]);
        cnf.add_dimacs_clause([3, -1]);
        cnf.add_dimacs_clause([3, -2]);
        // x6 = MUX(x3; x4, x5)
        cnf.add_dimacs_clause([-3, -4, 6]);
        cnf.add_dimacs_clause([-3, 4, -6]);
        cnf.add_dimacs_clause([3, -5, 6]);
        cnf.add_dimacs_clause([3, 5, -6]);
        // output constrained
        cnf.add_dimacs_clause([6]);
        cnf
    }

    /// A blocking run of the named engine: `n` solutions at the default
    /// session config, within ten seconds.
    pub fn sample(name: &str, cnf: &Cnf, n: usize) -> SampleReport {
        super::engine_by_name(name, cnf, &TransformConfig::default())
            .expect("known engine")
            .sample(&SessionConfig::default(), n, Duration::from_secs(10))
            .expect("session")
    }

    pub fn assert_valid_unique(report: &SampleReport, cnf: &Cnf) {
        let mut seen = std::collections::HashSet::new();
        for s in &report.solutions {
            assert!(cnf.is_satisfied_by_bits(s), "invalid solution returned");
            assert!(seen.insert(s.clone()), "duplicate solution returned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsat_core::SessionConfig;
    use htsat_tensor::Backend;
    use test_support::{assert_valid_unique, gate_cnf, loose_cnf, sample};

    #[test]
    fn factory_builds_every_engine() {
        let cnf = test_support::gate_cnf();
        for name in ENGINE_NAMES {
            let engine =
                engine_by_name(name, &cnf, &TransformConfig::default()).expect("known engine");
            assert_eq!(engine.name(), name);
            assert_eq!(engine.cnf().num_vars(), cnf.num_vars());
            let solutions: Vec<Vec<bool>> = engine
                .stream(&SessionConfig::with_seed(5))
                .expect("stream")
                .take(2)
                .collect();
            assert!(!solutions.is_empty(), "engine {name} found nothing");
            for s in &solutions {
                assert!(cnf.is_satisfied_by_bits(s), "engine {name} invalid");
            }
        }
    }

    #[test]
    fn factory_rejects_unknown_names() {
        let cnf = test_support::loose_cnf();
        assert!(engine_by_name("frobnicate", &cnf, &TransformConfig::default()).is_err());
        assert_eq!(resolve_engine_name("walksat"), Some("walksat"));
        assert_eq!(resolve_engine_name("WALKSAT"), None);
    }

    #[test]
    fn every_engine_is_thread_count_deterministic() {
        // The engine contract: a fixed seed reproduces the identical
        // solution sequence at any thread count. Solver-backed baselines
        // ignore the backend; the batched engines use per-row RNG streams.
        let cnf = test_support::gate_cnf();
        for name in ENGINE_NAMES {
            let engine =
                engine_by_name(name, &cnf, &TransformConfig::default()).expect("known engine");
            let run = |threads: usize| -> Vec<Vec<bool>> {
                engine
                    .stream(&SessionConfig {
                        seed: 9,
                        backend: Backend::Threads(threads),
                        batch: None,
                    })
                    .expect("stream")
                    .take(3)
                    .collect()
            };
            assert_eq!(run(1), run(8), "engine {name} depends on thread count");
        }
    }

    #[test]
    fn engine_streams_are_promptly_cancellable() {
        let cnf = test_support::gate_cnf();
        for name in ENGINE_NAMES {
            let engine =
                engine_by_name(name, &cnf, &TransformConfig::default()).expect("known engine");
            let mut stream = engine.stream(&SessionConfig::with_seed(1)).expect("stream");
            stream.stop_token().stop();
            assert_eq!(stream.next(), None, "engine {name} ignored the stop token");
        }
    }

    #[test]
    fn gd_engine_samples_valid_solutions() {
        let cnf = gate_cnf();
        let report = sample("gd", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn gd_engine_handles_loose_formulas() {
        let cnf = loose_cnf();
        let report = sample("gd", &cnf, 10);
        assert!(report.solutions.len() >= 5);
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn gd_engine_rejects_unsatisfiable_input_with_a_typed_error() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause([1]);
        cnf.add_dimacs_clause([-1]);
        assert!(matches!(
            engine_by_name("gd", &cnf, &TransformConfig::default()),
            Err(TransformError::ConstantConflict)
        ));
    }

    #[test]
    fn every_engine_stream_counts_its_session() {
        // Every engine mints through the provided `SampleEngine::stream`,
        // so each raises its own per-engine session counter.
        let cnf = gate_cnf();
        for name in ENGINE_NAMES {
            let counter = htsat_obs::global().counter(&format!("engine.sessions.{name}"));
            let before = counter.get();
            let engine =
                engine_by_name(name, &cnf, &TransformConfig::default()).expect("known engine");
            drop(engine.stream(&SessionConfig::with_seed(1)).expect("stream"));
            assert!(counter.get() > before, "engine {name} skipped its counter");
        }
    }
}
