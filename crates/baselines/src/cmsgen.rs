//! CMSGen-style sampler: CDCL with randomised heuristics.
//!
//! CMSGen ("Designing Samplers is Easy: The Boon of Testers", FMCAD 2021) is
//! CryptoMiniSat with random polarities, random branching and frequent
//! restarts, re-run once per requested sample. [`CmsGenEngine`] is the same
//! recipe on top of this workspace's CDCL solver.

use htsat_cnf::Cnf;
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{RoundSource, StopToken};
use htsat_solver::{CdclConfig, CdclSolver, SolveResult};
use std::sync::Arc;

/// Re-seeded CDCL solves per [`RoundSource::round`] call — the granularity
/// at which deadlines and stop tokens are checked by the stream.
const SOLVES_PER_ROUND: usize = 8;

/// Probability of a random branching decision.
const RANDOM_BRANCH_FREQ: f64 = 0.2;

/// Conflict budget per solve; a solve that exhausts it counts as an attempt
/// and the next seed is tried.
const MAX_CONFLICTS_PER_SOLVE: u64 = 100_000;

/// The prepared CMSGen-style engine: the formula, solved with randomised
/// CDCL (sessions seed from their [`SessionConfig`]).
#[derive(Debug, Clone)]
pub struct CmsGenEngine {
    cnf: Arc<Cnf>,
}

impl CmsGenEngine {
    /// Prepares the engine for `cnf`.
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        CmsGenEngine {
            cnf: Arc::new(cnf.clone()),
        }
    }
}

impl SampleEngine for CmsGenEngine {
    fn name(&self) -> &'static str {
        "cmsgen"
    }

    fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError> {
        let solver_config = CdclConfig {
            random_polarity: true,
            random_branch_freq: RANDOM_BRANCH_FREQ,
            seed: config.seed,
            max_conflicts: Some(MAX_CONFLICTS_PER_SOLVE),
            ..CdclConfig::default()
        };
        Ok(Box::new(CmsGenSession {
            solver: CdclSolver::with_config(&self.cnf, solver_config),
            seed: config.seed,
            solve: 0,
            done: false,
            last_attempts: 0,
        }))
    }
}

/// One request's solver state. The solver is created once per session and
/// re-seeded per solve (solve `i` uses `session_seed + i`), so learned
/// clauses accumulate across solves as in the CMSGen recipe and the model
/// sequence is a function of the seed alone.
struct CmsGenSession {
    solver: CdclSolver,
    seed: u64,
    solve: u64,
    done: bool,
    /// Solves the most recent round actually performed (cancellation and
    /// the unsat short-circuit cut rounds short), reported via `round_size`.
    last_attempts: usize,
}

impl RoundSource for CmsGenSession {
    type Item = Vec<bool>;

    fn round(&mut self, stop: &StopToken) -> Vec<Vec<bool>> {
        let mut batch = Vec::new();
        self.last_attempts = 0;
        if self.done {
            return batch;
        }
        for _ in 0..SOLVES_PER_ROUND {
            if stop.is_stopped() {
                break;
            }
            self.solve += 1;
            self.last_attempts += 1;
            self.solver.reseed(self.seed.wrapping_add(self.solve));
            match self.solver.solve() {
                SolveResult::Sat(model) => batch.push(model),
                // Unsat is final: report nothing and let the stream's stale
                // limit end the request without re-solving forever.
                SolveResult::Unsat => {
                    self.done = true;
                    break;
                }
                // Conflict budget exhausted: count the attempt, try the
                // next seed.
                SolveResult::Unknown => {}
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
    fn finds_diverse_solutions_on_loose_formula() {
        let cnf = loose_cnf();
        let report = sample("cmsgen", &cnf, 10);
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
        let report = sample("cmsgen", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn unsat_formula_returns_no_solutions() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause([1]);
        cnf.add_dimacs_clause([-1]);
        assert!(sample("cmsgen", &cnf, 5).solutions.is_empty());
    }

    #[test]
    fn stops_once_solution_space_is_exhausted() {
        // Exactly two solutions: x1 xor x2.
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, 2]);
        cnf.add_dimacs_clause([-1, -2]);
        let report = sample("cmsgen", &cnf, 100);
        assert!(report.solutions.len() <= 2);
        assert!(!report.solutions.is_empty());
    }

    #[test]
    fn engine_sessions_are_seed_deterministic() {
        let cnf = loose_cnf();
        let engine = CmsGenEngine::prepare(&cnf);
        let take = |seed: u64| -> Vec<Vec<bool>> {
            engine
                .stream(&SessionConfig::with_seed(seed))
                .expect("stream")
                .take(4)
                .collect()
        };
        assert_eq!(take(7), take(7));
    }
}
