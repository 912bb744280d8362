//! QuickSampler-style sampler: a seed model plus atomic flips and their
//! combinations.
//!
//! QuickSampler (ICSE 2018) derives many candidate samples from few solver
//! calls by flipping individual variables of a known solution ("atomic
//! mutations") and combining successful flips, validating candidates against
//! the formula. [`QuickSamplerEngine`] follows the same recipe with our CDCL
//! solver providing the seed models, one seed-model-plus-mutations block per
//! session round.

use htsat_cnf::{Cnf, Solution};
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{RoundSource, StopToken};
use htsat_solver::{CdclConfig, CdclSolver, SolveResult};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Hard ceiling on seed-model rounds per session.
const MAX_ROUNDS: u64 = 10_000;

/// Maximum number of successful atomic flips combined per seed model.
const MAX_COMBINED_FLIPS: usize = 64;

/// The prepared QuickSampler-style engine: the formula and its occurring
/// variables (computed once; sessions seed from their [`SessionConfig`]).
#[derive(Debug, Clone)]
pub struct QuickSamplerEngine {
    cnf: Arc<Cnf>,
    occurring: Arc<Vec<usize>>,
}

impl QuickSamplerEngine {
    /// Prepares the engine for `cnf`.
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        QuickSamplerEngine {
            occurring: Arc::new(cnf.occurring_vars().iter().map(|v| v.as_usize()).collect()),
            cnf: Arc::new(cnf.clone()),
        }
    }
}

impl SampleEngine for QuickSamplerEngine {
    fn name(&self) -> &'static str {
        "quicksampler"
    }

    fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError> {
        Ok(Box::new(QuickSamplerSession {
            cnf: self.cnf.clone(),
            occurring: self.occurring.clone(),
            rng: SmallRng::seed_from_u64(config.seed),
            seed: config.seed,
            round: 0,
            done: false,
            seen: HashSet::new(),
            last_attempts: 0,
        }))
    }
}

/// One request's mutation state.
///
/// Unlike the other sessions, this one deduplicates *internally* (and emits
/// only fresh solutions): whether an atomic flip counts as "successful" —
/// and therefore participates in the combination stage — depends on it
/// producing a *new* unique solution, which only the session's own memory
/// can answer. The session declares this
/// ([`RoundSource::dedups_internally`]), so the stream keeps no second,
/// identical seen-set.
struct QuickSamplerSession {
    cnf: Arc<Cnf>,
    occurring: Arc<Vec<usize>>,
    rng: SmallRng,
    seed: u64,
    round: u64,
    done: bool,
    seen: HashSet<Solution>,
    /// Candidates generated by the most recent round (the per-round attempt
    /// count varies with the flip successes), reported via `round_size`.
    last_attempts: usize,
}

impl QuickSamplerSession {
    /// Validates and deduplicates one candidate; packs and pushes fresh
    /// solutions.
    fn offer(&mut self, batch: &mut Vec<Solution>, candidate: &[bool]) -> bool {
        self.last_attempts += 1;
        if !self.cnf.is_satisfied_by_bits(candidate) {
            return false;
        }
        let solution = Solution::from_bits(candidate);
        if self.seen.insert(solution.clone()) {
            batch.push(solution);
            true
        } else {
            false
        }
    }
}

impl RoundSource for QuickSamplerSession {
    type Item = Solution;

    fn round(&mut self, stop: &StopToken) -> Vec<Solution> {
        self.last_attempts = 0;
        let mut batch = Vec::new();
        if self.done || stop.is_stopped() {
            return batch;
        }
        self.round += 1;
        if self.round > MAX_ROUNDS {
            self.done = true;
            return batch;
        }
        // Obtain a fresh seed model with randomised polarities.
        let mut solver = CdclSolver::with_config(
            &self.cnf,
            CdclConfig {
                random_polarity: true,
                seed: self.seed.wrapping_add(self.round),
                max_conflicts: Some(200_000),
                ..CdclConfig::default()
            },
        );
        let base = match solver.solve() {
            SolveResult::Sat(model) => model,
            SolveResult::Unsat => {
                self.done = true;
                return batch;
            }
            SolveResult::Unknown => return batch,
        };
        self.offer(&mut batch, &base);
        // Atomic mutations: flip one occurring variable at a time.
        let mut successful_flips = Vec::new();
        let mut order = (*self.occurring).clone();
        order.shuffle(&mut self.rng);
        for &idx in &order {
            if stop.is_stopped() {
                return batch;
            }
            let mut candidate = base.clone();
            candidate[idx] = !candidate[idx];
            if self.offer(&mut batch, &candidate) {
                successful_flips.push(idx);
            }
        }
        // Combine random subsets of the successful flips.
        let combos = successful_flips.len().min(MAX_COMBINED_FLIPS);
        for _ in 0..combos {
            if stop.is_stopped() {
                return batch;
            }
            let mut candidate = base.clone();
            for &idx in &successful_flips {
                if self.rng.gen_bool(0.5) {
                    candidate[idx] = !candidate[idx];
                }
            }
            self.offer(&mut batch, &candidate);
        }
        batch
    }

    fn round_size(&self) -> usize {
        self.last_attempts
    }

    fn dedups_internally(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_valid_unique, gate_cnf, loose_cnf, sample};

    #[test]
    fn generates_many_unique_solutions_cheaply() {
        let cnf = loose_cnf();
        let report = sample("quicksampler", &cnf, 20);
        assert!(
            report.solutions.len() >= 10,
            "found {}",
            report.solutions.len()
        );
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn respects_gate_constraints() {
        let cnf = gate_cnf();
        let report = sample("quicksampler", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn unsat_formula_yields_nothing() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause([1]);
        cnf.add_dimacs_clause([-1]);
        assert!(sample("quicksampler", &cnf, 3).solutions.is_empty());
    }

    #[test]
    fn engine_sessions_are_seed_deterministic() {
        let cnf = loose_cnf();
        let engine = QuickSamplerEngine::prepare(&cnf);
        let take = |seed: u64| -> Vec<Solution> {
            engine
                .stream(&SessionConfig::with_seed(seed))
                .expect("stream")
                .take(6)
                .collect()
        };
        assert_eq!(take(2), take(2));
    }
}
