//! UniGen3-style sampler: XOR hashing plus in-cell enumeration.
//!
//! UniGen3 partitions the solution space into roughly equal cells with random
//! parity constraints and enumerates one random cell, which yields
//! almost-uniform samples. [`UniGenEngine`] follows the same recipe on our
//! CDCL solver: it adapts the number of XOR constraints so cells stay
//! enumerable, enumerates a cell per round and pools the unique solutions.
//! The approximate model-counting machinery of the real tool is replaced by
//! the adaptive cell-size feedback loop, which preserves the performance
//! characteristics that matter to the paper's comparison (CPU-bound CDCL
//! enumeration per sample batch). One session round is one hashed-cell
//! enumeration.

use crate::xor;
use htsat_cnf::{Cnf, Var};
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{RoundSource, StopToken};
use htsat_solver::{enumerate, CdclConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Hard ceiling on hashed-cell rounds per session — a stuck adaptive loop
/// must terminate even without a deadline.
const MAX_ROUNDS: usize = 10_000;

/// Maximum number of models enumerated inside one cell.
const CELL_CAPACITY: usize = 64;

/// Number of XOR constraints a session starts hashing with.
const INITIAL_XORS: usize = 2;

/// Conflict budget per cell enumeration.
const MAX_CONFLICTS_PER_CALL: u64 = 200_000;

/// The adaptive hash-strength rule: the XOR count for the next cell after
/// one cell of `cell_size` models was enumerated under `num_xors` XORs, or
/// `None` when the formula itself is unsatisfiable.
///
/// Empty cells mean too many XORs, overflowing cells too few. An empty
/// *unhashed* cell proves unsatisfiability only when the enumeration ran to
/// completion (`exhausted`); a conflict-budget cut-off proves nothing, so
/// the count stays and the next round retries under a fresh seed.
fn next_hash_strength(num_xors: usize, cell_size: usize, exhausted: bool) -> Option<usize> {
    if cell_size == 0 && num_xors > 0 {
        Some(num_xors - 1)
    } else if cell_size > CELL_CAPACITY {
        Some(num_xors + 1)
    } else if cell_size == 0 && exhausted {
        None
    } else {
        Some(num_xors)
    }
}

/// The prepared UniGen-style engine: the formula and its occurring-variable
/// pool (computed once; sessions seed from their [`SessionConfig`]).
#[derive(Debug, Clone)]
pub struct UniGenEngine {
    cnf: Arc<Cnf>,
    pool: Arc<Vec<Var>>,
}

impl UniGenEngine {
    /// Prepares the engine for `cnf`.
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        UniGenEngine {
            pool: Arc::new(cnf.occurring_vars()),
            cnf: Arc::new(cnf.clone()),
        }
    }
}

impl SampleEngine for UniGenEngine {
    fn name(&self) -> &'static str {
        "unigen"
    }

    fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError> {
        Ok(Box::new(UniGenSession {
            cnf: self.cnf.clone(),
            pool: self.pool.clone(),
            rng: SmallRng::seed_from_u64(config.seed),
            seed: config.seed,
            num_xors: INITIAL_XORS,
            round: 0,
            done: false,
            last_cell: 0,
        }))
    }
}

/// One request's hashing state: the parity-constraint RNG, the adaptive XOR
/// count and the round counter (which also seeds the per-cell enumeration).
struct UniGenSession {
    cnf: Arc<Cnf>,
    pool: Arc<Vec<Var>>,
    rng: SmallRng,
    seed: u64,
    num_xors: usize,
    round: usize,
    done: bool,
    /// Models the most recent cell actually enumerated (the per-round
    /// attempt count varies with the hash strength), reported via
    /// `round_size`.
    last_cell: usize,
}

impl RoundSource for UniGenSession {
    type Item = Vec<bool>;

    fn round(&mut self, stop: &StopToken) -> Vec<Vec<bool>> {
        self.last_cell = 0;
        if self.done || stop.is_stopped() {
            return Vec::new();
        }
        self.round += 1;
        if self.round > MAX_ROUNDS {
            self.done = true;
            return Vec::new();
        }
        // Build the hashed formula: original CNF plus random parity
        // constraints over the occurring variables.
        let mut hashed = (*self.cnf).clone();
        xor::add_random_parity_constraints(&mut hashed, &self.pool, self.num_xors, &mut self.rng);
        let budget = enumerate::EnumerationBudget {
            max_models: CELL_CAPACITY + 1,
            max_conflicts_per_call: Some(MAX_CONFLICTS_PER_CALL),
        };
        let result = enumerate::enumerate_models(
            &hashed,
            &self.pool,
            budget,
            CdclConfig {
                seed: self.seed.wrapping_add(self.round as u64),
                ..CdclConfig::default()
            },
        );
        let cell_size = result.models.len();
        self.last_cell = cell_size;
        let batch: Vec<Vec<bool>> = result
            .models
            .into_iter()
            .map(|model| model[..self.cnf.num_vars()].to_vec())
            .filter(|projected| self.cnf.is_satisfied_by_bits(projected))
            .collect();
        match next_hash_strength(self.num_xors, cell_size, result.exhausted) {
            Some(num_xors) => self.num_xors = num_xors,
            None => self.done = true,
        }
        batch
    }

    fn round_size(&self) -> usize {
        self.last_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_valid_unique, gate_cnf, loose_cnf, sample};

    #[test]
    fn samples_valid_unique_solutions() {
        let cnf = loose_cnf();
        let report = sample("unigen", &cnf, 10);
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
        let report = sample("unigen", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn unsat_formula_yields_nothing() {
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1]);
        cnf.add_dimacs_clause([-1]);
        assert!(sample("unigen", &cnf, 3).solutions.is_empty());
    }

    #[test]
    fn sampling_distribution_covers_most_of_a_small_space() {
        // x1 ∨ x2 over 3 variables: 6 solutions on occurring vars (x3 free is
        // not occurring, so the projection has 3 solutions).
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, 2]);
        let report = sample("unigen", &cnf, 3);
        assert!(report.solutions.len() >= 2);
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn hash_strength_only_ends_the_session_on_a_complete_empty_cell() {
        // Empty hashed cells drop one XOR, overflowing cells add one, and a
        // cell within capacity keeps the count.
        assert_eq!(next_hash_strength(3, 0, true), Some(2));
        assert_eq!(next_hash_strength(3, 0, false), Some(2));
        assert_eq!(next_hash_strength(3, CELL_CAPACITY + 1, false), Some(4));
        assert_eq!(next_hash_strength(3, CELL_CAPACITY, true), Some(3));
        // An empty unhashed cell proves unsatisfiability only when the
        // enumeration ran to completion...
        assert_eq!(next_hash_strength(0, 0, true), None);
        // ...a conflict-budget cut-off is not a proof: keep sampling.
        assert_eq!(next_hash_strength(0, 0, false), Some(0));
    }

    #[test]
    fn engine_sessions_are_seed_deterministic() {
        let cnf = loose_cnf();
        let engine = UniGenEngine::prepare(&cnf);
        let take = |seed: u64| -> Vec<Vec<bool>> {
            engine
                .stream(&SessionConfig::with_seed(seed))
                .expect("stream")
                .take(4)
                .collect()
        };
        assert_eq!(take(13), take(13));
    }
}
