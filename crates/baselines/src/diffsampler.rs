//! DiffSampler-style sampler: gradient descent directly on the CNF.
//!
//! DiffSampler (DAC 2024 late-breaking results) relaxes every *clause* of the
//! CNF into a soft OR over literal probabilities and minimises the distance
//! of all clause values from 1 with a GPU-accelerated optimiser. It is the
//! closest prior work to the paper's sampler but skips the CNF-to-circuit
//! transformation, so comparing the two isolates the transformation's
//! contribution. [`DiffSamplerEngine`] builds the soft-CNF model on the same
//! tensor backend used by the transformed-circuit sampler, a single time,
//! and shares it with every minted session, mirroring how
//! [`htsat_core::PreparedFormula`] shares its compiled circuit.

use htsat_cnf::Cnf;
use htsat_core::{BoxedSession, SampleEngine, SessionConfig, TransformError};
use htsat_runtime::{derive_stream_seed, RoundSource, StopToken};
use htsat_tensor::{ops, Backend, BatchMatrix, MemoryModel, SoftCircuit, SoftGate};
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

/// The prepared DiffSampler-style engine: the soft-CNF circuit, built once
/// and shared (behind an [`Arc`]) with every minted session. Sessions take
/// their seed, backend and batch override from their [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct DiffSamplerEngine {
    cnf: Arc<Cnf>,
    circuit: Arc<SoftCircuit>,
}

impl DiffSamplerEngine {
    /// Builds the soft clause relaxation of `cnf`.
    #[must_use]
    pub fn prepare(cnf: &Cnf) -> Self {
        DiffSamplerEngine {
            circuit: Arc::new(build_soft_cnf(cnf)),
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
            circuit: self.circuit.clone(),
            batch_size,
            backend: config.backend,
            rng: SmallRng::seed_from_u64(config.seed),
            last_attempts: 0,
        }))
    }

    fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        // The staged soft-CNF path keeps the cloned probability matrix and
        // the gradient matrix resident per iteration, like the reference
        // kernel of the transformed sampler.
        MemoryModel::new(self.cnf.num_vars(), self.circuit.num_nodes(), batch)
            .with_workers(workers)
            .with_staged_matrices(2)
    }

    fn artifact_dims(&self) -> Vec<(&'static str, usize)> {
        vec![("nodes", self.circuit.num_nodes())]
    }
}

/// One request's descent state: per-round logit initialisation from per-row
/// RNG streams (thread-count independent, like the transformed sampler).
struct DiffSamplerSession {
    cnf: Arc<Cnf>,
    circuit: Arc<SoftCircuit>,
    batch_size: usize,
    backend: Backend,
    rng: SmallRng,
    /// Candidates the most recent round actually hardened (zero when a stop
    /// token abandoned the descent mid-round), reported via `round_size`.
    last_attempts: usize,
}

impl RoundSource for DiffSamplerSession {
    type Item = Vec<bool>;

    fn round(&mut self, stop: &StopToken) -> Vec<Vec<bool>> {
        self.last_attempts = 0;
        let n = self.cnf.num_vars();
        let scale = INIT_SCALE;
        // Per-row RNG streams, like the transformed sampler: the drawn
        // candidates depend on (seed, row) only, never on how the
        // backend schedules the batch across threads.
        let round_seed: u64 = self.rng.gen();
        let mut logits = BatchMatrix::zeros(self.batch_size, n);
        self.backend
            .for_each_row(logits.as_mut_slice(), n, |b, row| {
                let mut row_rng = SmallRng::seed_from_u64(derive_stream_seed(round_seed, b));
                for v in row.iter_mut() {
                    *v = row_rng.gen_range(-scale..=scale);
                }
                0.0
            });
        for _ in 0..ITERATIONS {
            if stop.is_stopped() {
                return Vec::new();
            }
            let mut probs = logits.clone();
            probs.map_inplace(ops::sigmoid);
            let (_loss, grad_p) = self.circuit.loss_and_input_grads(&probs, self.backend);
            let mut grad_v = grad_p;
            for (g, &p) in grad_v
                .as_mut_slice()
                .iter_mut()
                .zip(probs.as_slice().iter())
            {
                *g *= ops::sigmoid_grad_from_output(p);
            }
            logits.saxpy_neg(LEARNING_RATE, &grad_v);
        }
        self.last_attempts = self.batch_size;
        (0..self.batch_size)
            .map(|b| {
                logits
                    .row(b)
                    .iter()
                    .map(|&v| v > 0.0)
                    .collect::<Vec<bool>>()
            })
            .filter(|bits| self.cnf.is_satisfied_by_bits(bits))
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

    #[test]
    fn soft_cnf_loss_is_zero_exactly_on_models() {
        let cnf = gate_cnf();
        let circuit = build_soft_cnf(&cnf);
        let n = cnf.num_vars();
        for mask in 0..(1u32 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let probs = BatchMatrix::from_fn(1, n, |_, c| if bits[c] { 1.0 } else { 0.0 });
            let (loss, _) = circuit.loss_and_input_grads(&probs, Backend::Sequential);
            assert_eq!(
                loss < 1e-9,
                cnf.is_satisfied_by_bits(&bits),
                "mask {mask:b}"
            );
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
        let take = |threads: usize| -> Vec<Vec<bool>> {
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
