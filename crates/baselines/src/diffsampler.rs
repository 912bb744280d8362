//! DiffSampler-style sampler: gradient descent directly on the CNF.
//!
//! DiffSampler (DAC 2024 late-breaking results) relaxes every *clause* of the
//! CNF into a soft OR over literal probabilities and minimises the distance
//! of all clause values from 1 with a GPU-accelerated optimiser. It is the
//! closest prior work to the paper's sampler but skips the CNF-to-circuit
//! transformation, so comparing the two isolates the transformation's
//! contribution. [`DiffSamplerEngine`] compiles the soft-CNF model into the
//! same [`FlatKernel`] the transformed-circuit sampler runs, a single time,
//! and shares it with every minted session, mirroring how
//! [`htsat_core::PreparedFormula`] shares its compiled circuit.
//!
//! Both engines run one descent, [`FlatKernel::descend`], and one
//! group-wide validation, [`Cnf::satisfying_lanes`] over [`GROUP_ROWS`]
//! rows at a time, so the ablation
//! differs only in the circuit (the flat CNF against the transformed
//! circuit), the embedding (the plain [`ops::sigmoid`] against the
//! clamped [`ops::embed_logit`]) and the recipe constants below. In the
//! soft-CNF circuit, input column `v` is variable `v`, so the signs of a
//! row's logits are its assignment.

use htsat_cnf::{Cnf, Solution};
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{derive_stream_seed, RoundSource, StopToken};
use htsat_tensor::{ops, Backend, BatchMatrix, FlatKernel, MemoryModel, SoftCircuit, SoftGate};
use htsat_tensor::{GROUP_ROWS, GROUP_WORDS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Candidates learned in parallel per round, unless the session overrides
/// it ([`SessionConfig::batch`]).
const BATCH_SIZE: usize = 256;

/// Gradient-descent iterations per round.
const ITERATIONS: usize = 20;

/// Learning rate of the descent.
const LEARNING_RATE: f32 = 2.0;

/// Scale of the uniform logit initialisation.
const INIT_SCALE: f32 = 2.0;

/// Builds the soft-CNF circuit: one OR node per clause, each constrained
/// to 1, with literal polarity handled by NOT nodes.
fn build_soft_cnf(cnf: &Cnf) -> SoftCircuit {
    let n = cnf.num_vars();
    let mut circuit = SoftCircuit::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| circuit.input(i)).collect();
    let mut negated: Vec<Option<usize>> = vec![None; n];
    for clause in cnf.clauses() {
        let mut fanin = Vec::with_capacity(clause.len());
        for lit in clause.lits() {
            let v = lit.var().as_usize();
            if lit.is_positive() {
                fanin.push(inputs[v]);
            } else {
                let node = match negated[v] {
                    Some(node) => node,
                    None => {
                        let node = circuit.gate(SoftGate::Not, vec![inputs[v]]);
                        negated[v] = Some(node);
                        node
                    }
                };
                fanin.push(node);
            }
        }
        let clause_node = if fanin.len() == 1 {
            fanin[0]
        } else {
            circuit.gate(SoftGate::Or, fanin)
        };
        circuit.constrain(clause_node, 1.0);
    }
    circuit
}

/// The prepared DiffSampler-style engine: the soft-CNF circuit, compiled
/// once into a [`FlatKernel`] and shared (behind an [`Arc`]) with every
/// minted session. Sessions take their seed, backend and batch override
/// from their [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct DiffSamplerEngine {
    cnf: Arc<Cnf>,
    kernel: Arc<FlatKernel>,
}

impl DiffSamplerEngine {
    /// Builds the soft clause relaxation of `cnf`.
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        DiffSamplerEngine {
            kernel: Arc::new(FlatKernel::compile(&build_soft_cnf(cnf))),
            cnf: Arc::new(cnf.clone()),
        }
    }
}

impl SampleEngine for DiffSamplerEngine {
    fn name(&self) -> &'static str {
        "diffsampler"
    }

    fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    fn session(&self, config: &SessionConfig) -> Result<BoxedSession, TransformError> {
        let batch_size = config.batch.unwrap_or(BATCH_SIZE);
        if batch_size == 0 {
            return Err(TransformError::InvalidConfig(
                "batch size must be non-zero".into(),
            ));
        }
        Ok(Box::new(DiffSamplerSession {
            cnf: self.cnf.clone(),
            kernel: self.kernel.clone(),
            logits: BatchMatrix::zeros(batch_size, self.cnf.num_vars()),
            backend: config.backend,
            rng: SmallRng::seed_from_u64(config.seed),
            last_attempts: 0,
        }))
    }

    /// The descent plus each worker's group of sign words per variable.
    fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        self.kernel
            .memory_model(batch, workers)
            .with_hard_words(GROUP_WORDS * self.cnf.num_vars())
    }

    fn artifact_dims(&self) -> Vec<(&'static str, usize)> {
        vec![("nodes", self.kernel.num_nodes())]
    }
}

/// One request's descent state: per-round logit initialisation from per-row
/// RNG streams (thread-count independent, like the transformed sampler).
struct DiffSamplerSession {
    cnf: Arc<Cnf>,
    kernel: Arc<FlatKernel>,
    /// The batch logit matrix, one column per variable, allocated once and
    /// descended in place every round.
    logits: BatchMatrix,
    backend: Backend,
    rng: SmallRng,
    /// Candidates the most recent round actually hardened (zero when a stop
    /// token abandoned the descent mid-round), reported via `round_size`.
    last_attempts: usize,
}

impl RoundSource for DiffSamplerSession {
    type Item = Solution;

    fn round(&mut self, stop: &StopToken) -> Vec<Solution> {
        self.last_attempts = 0;
        let n = self.cnf.num_vars();
        let scale = INIT_SCALE;
        // Per-row RNG streams, like the transformed sampler: the drawn
        // candidates depend on (seed, row) only, never on how the
        // backend schedules the batch across threads.
        let round_seed: u64 = self.rng.gen();
        self.backend
            .for_each_row(self.logits.as_mut_slice(), n, |b, row| {
                let mut row_rng = SmallRng::seed_from_u64(derive_stream_seed(round_seed, b));
                for v in row.iter_mut() {
                    *v = row_rng.gen_range(-scale..=scale);
                }
            });
        self.kernel.descend(
            &mut self.logits,
            self.backend,
            LEARNING_RATE,
            ITERATIONS,
            || stop.is_stopped(),
            ops::sigmoid,
        );
        if stop.is_stopped() {
            return Vec::new();
        }
        let batch = self.logits.batch();
        self.last_attempts = batch;
        let groups = self.backend.map_indices(batch.div_ceil(GROUP_ROWS), |g| {
            let (signs, rows) = self.logits.sign_words::<GROUP_WORDS>(g * GROUP_ROWS);
            self.cnf.satisfying_lanes(&signs, rows)
        });
        groups
            .into_iter()
            .flatten()
            .map(|(_, solution)| solution)
            .collect()
    }

    fn round_size(&self) -> usize {
        self.last_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_valid_unique, gate_cnf, loose_cnf, sample};
    use htsat_tensor::LANES;

    #[test]
    fn soft_cnf_loss_is_zero_exactly_on_models() {
        let cnf = gate_cnf();
        let circuit = build_soft_cnf(&cnf);
        let n = cnf.num_vars();
        let mut grad = vec![0.0f32; n];
        for mask in 0..(1u32 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let probs: Vec<f32> = bits.iter().map(|&b| f32::from(u8::from(b))).collect();
            let loss = circuit.loss_and_grad_single(&probs, &mut grad);
            assert_eq!(
                loss < 1e-9,
                cnf.is_satisfied_by_bits(&bits),
                "mask {mask:b}"
            );
        }
    }

    /// A formula whose unit clause, repeated 64 times, drives `x1`'s logit
    /// far past where the plain sigmoid rounds to 1.0.
    fn saturating_cnf() -> Cnf {
        let mut cnf = Cnf::new(4);
        for _ in 0..64 {
            cnf.add_dimacs_clause([1]);
        }
        cnf.add_dimacs_clause([-1, 2]);
        cnf.add_dimacs_clause([-1, -2, 3]);
        cnf.add_dimacs_clause([-1, 3, 4]);
        cnf
    }

    #[test]
    fn rounds_match_a_row_by_row_replay_on_the_reference_circuit() {
        for cnf in [gate_cnf(), loose_cnf(), saturating_cnf()] {
            let engine = DiffSamplerEngine::prepare(&cnf);
            let circuit = build_soft_cnf(&cnf);
            let n = cnf.num_vars();
            for (batch, threads) in [(17, 1), (33, 3)] {
                let mut session = DiffSamplerSession {
                    cnf: engine.cnf.clone(),
                    kernel: engine.kernel.clone(),
                    logits: BatchMatrix::zeros(batch, n),
                    backend: Backend::Threads(threads),
                    rng: SmallRng::seed_from_u64(9),
                    last_attempts: 0,
                };
                for round in 0..2 {
                    let round_seed: u64 = session.rng.clone().gen();
                    let solutions = session.round(&StopToken::new());
                    let mut expected = Vec::new();
                    for b in 0..batch {
                        // The staged recipe, one row at a time: plain
                        // sigmoid, reference loss and gradient, chain rule,
                        // descent.
                        let mut rng = SmallRng::seed_from_u64(derive_stream_seed(round_seed, b));
                        let mut row: Vec<f32> = (0..n)
                            .map(|_| rng.gen_range(-INIT_SCALE..=INIT_SCALE))
                            .collect();
                        let mut grad = vec![0.0f32; n];
                        for _ in 0..ITERATIONS {
                            let probs: Vec<f32> = row.iter().map(|&v| ops::sigmoid(v)).collect();
                            circuit.loss_and_grad_single(&probs, &mut grad);
                            for ((v, &g), &p) in row.iter_mut().zip(&grad).zip(&probs) {
                                *v -= LEARNING_RATE * (g * ops::sigmoid_grad_from_output(p));
                            }
                        }
                        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(session.logits.row(b)),
                            bits(&row),
                            "batch {batch}, threads {threads}, round {round}, row {b}"
                        );
                        let signs: Vec<bool> = row.iter().map(|&v| v > 0.0).collect();
                        if cnf.is_satisfied_by_bits(&signs) {
                            expected.push(Solution::from_bits(&signs));
                        }
                    }
                    assert_eq!(solutions, expected, "batch {batch}, round {round}");
                    assert_eq!(session.round_size(), batch);
                }
            }
        }
    }

    #[test]
    fn memory_model_counts_one_block_workspace_per_worker() {
        let engine = DiffSamplerEngine::prepare(&gate_cnf());
        let block = engine.kernel.lane_workspace::<LANES>().bytes() as u64;
        for workers in [1, 3] {
            for batch in [1, 256] {
                let model = engine.memory_model(batch, workers);
                assert_eq!(model.workspace_bytes(), workers as u64 * block);
                let signs = GROUP_WORDS * engine.cnf.num_vars() * 8;
                assert_eq!(model.hard_bytes(), (workers * signs) as u64);
            }
        }
    }

    #[test]
    fn samples_loose_formula() {
        let cnf = loose_cnf();
        let report = sample("diffsampler", &cnf, 10);
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
        let report = sample("diffsampler", &cnf, 5);
        assert!(!report.solutions.is_empty());
        assert_valid_unique(&report, &cnf);
    }

    #[test]
    fn engine_sessions_are_deterministic_across_thread_counts() {
        let cnf = gate_cnf();
        let engine = DiffSamplerEngine::prepare(&cnf);
        let take = |threads: usize| -> Vec<Solution> {
            engine
                .stream(&SessionConfig {
                    seed: 5,
                    backend: Backend::Threads(threads),
                    batch: Some(64),
                })
                .expect("stream")
                .take(4)
                .collect()
        };
        assert_eq!(take(1), take(4));
    }
}
