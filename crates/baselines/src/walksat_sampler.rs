//! WalkSAT-based sampler: repeated stochastic local search from random
//! starting assignments.

use htsat_cnf::Cnf;
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{RoundSource, StopToken};
use htsat_solver::walksat::{walksat, WalkSatConfig, WalkSatResult};
use std::sync::Arc;

/// WalkSAT restarts attempted per [`RoundSource::round`] call. Small enough
/// that deadlines and stop tokens are honoured promptly, large enough that
/// the stream's per-round bookkeeping is amortised.
const RUNS_PER_ROUND: usize = 8;

/// Flip budget of one WalkSAT run.
const MAX_FLIPS: u64 = 20_000;

/// Probability of a random-walk flip.
const NOISE: f64 = 0.5;

/// The prepared WalkSAT engine: just the formula. Preparation is trivially
/// cheap — the value of the engine form is the shared streaming surface
/// (seeds, deadlines, cancellation, stats).
#[derive(Debug, Clone)]
pub struct WalkSatEngine {
    cnf: Arc<Cnf>,
}

impl WalkSatEngine {
    /// Prepares the engine for `cnf` (sessions seed from their
    /// [`SessionConfig`]).
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        WalkSatEngine {
            cnf: Arc::new(cnf.clone()),
        }
    }
}

impl SampleEngine for WalkSatEngine {
    fn name(&self) -> &'static str {
        "walksat"
    }

    fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError> {
        Ok(Box::new(WalkSatSession {
            cnf: self.cnf.clone(),
            seed: config.seed,
            run: 0,
            last_attempts: 0,
        }))
    }
}

/// One request's WalkSAT state: run `i` restarts the local search with seed
/// `session_seed + i` (a function of the seed alone, so the sequence is
/// deterministic and thread-count independent).
struct WalkSatSession {
    cnf: Arc<Cnf>,
    seed: u64,
    run: u64,
    /// Restarts the most recent round actually performed (a stop token can
    /// cut a round short), reported via `round_size`.
    last_attempts: usize,
}

impl RoundSource for WalkSatSession {
    type Item = Vec<bool>;

    fn round(&mut self, stop: &StopToken) -> Vec<Vec<bool>> {
        let mut batch = Vec::new();
        self.last_attempts = 0;
        for _ in 0..RUNS_PER_ROUND {
            if stop.is_stopped() {
                break;
            }
            self.run += 1;
            self.last_attempts += 1;
            let config = WalkSatConfig {
                max_flips: MAX_FLIPS,
                noise: NOISE,
                seed: self.seed.wrapping_add(self.run),
            };
            if let WalkSatResult::Sat(model) = walksat(&self.cnf, config) {
                batch.push(model);
            }
        }
        batch
    }

    fn round_size(&self) -> usize {
        self.last_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_valid_unique, gate_cnf, loose_cnf, sample};

    #[test]
    fn samples_loose_formula() {
        let cnf = loose_cnf();
        let report = sample("walksat", &cnf, 10);
        assert!(
            report.solutions.len() >= 5,
            "found {}",
            report.solutions.len()
        );
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn respects_gate_constraints() {
        let cnf = gate_cnf();
        let report = sample("walksat", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn engine_sessions_are_seed_deterministic() {
        let cnf = loose_cnf();
        let engine = WalkSatEngine::prepare(&cnf);
        let take = |seed: u64| -> Vec<Vec<bool>> {
            engine
                .stream(&SessionConfig::with_seed(seed))
                .expect("stream")
                .take(4)
                .collect()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }
}
