//! Lowering the extracted netlist to a differentiable circuit.
//!
//! Every gate of the multi-level, multi-output Boolean function is replaced
//! by its probabilistic counterpart from the paper's Table I, primary inputs
//! become learnable input columns, and output constraints become ℓ2 targets.

use crate::TransformResult;
use htsat_cnf::{transpose_block, Cnf, Solution, Var, WORD_BITS};
use htsat_logic::{GateKind, NodeRef};
use htsat_tensor::{BatchMatrix, FlatKernel, SoftCircuit, SoftGate};

/// Rows one word of the hardening pass covers: one per bit of a `u64`.
pub const WORD_ROWS: usize = 64;

/// A compiled differentiable circuit together with the mapping from input
/// columns back to CNF variables.
///
/// Both execution forms are carried: [`SoftCircuit`] is the auditable
/// reference implementation, and [`FlatKernel`] is the same circuit
/// compiled into the allocation-free flat layout the sampler's hot path
/// runs on. The two produce bit-identical losses and gradients.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// The differentiable circuit (reference implementation).
    pub circuit: SoftCircuit,
    /// The flat fused kernel compiled from `circuit`.
    pub kernel: FlatKernel,
    /// CNF variable corresponding to each input column.
    pub input_vars: Vec<Var>,
    /// Input column of each variable, by zero-based variable index.
    columns: Vec<Option<usize>>,
    /// Netlist node driving each variable of the formula's universe, by
    /// zero-based variable index; `None` for a free variable.
    drivers: Vec<Option<usize>>,
}

impl CompiledCircuit {
    /// Number of learnable input columns.
    pub fn num_inputs(&self) -> usize {
        self.input_vars.len()
    }

    /// The column of a primary-input variable, if it is one.
    pub fn column_of(&self, var: Var) -> Option<usize> {
        self.columns.get(var.as_usize()).copied().flatten()
    }

    /// Hardens, reconstructs and validates one word of a logit matrix: the
    /// rows `WORD_ROWS * word ..` (up to [`WORD_ROWS`] of them; fewer in a
    /// partial last word), each held in one bit lane of a `u64`.
    ///
    /// 1. Every input column's logits are thresholded (`> 0.0`, so NaN and
    ///    `-0.0` give 0) into one word.
    /// 2. The kernel evaluates every node word-wide
    ///    ([`FlatKernel::forward_words`]).
    /// 3. Each variable of the formula's universe takes its driver node's
    ///    word; a free variable takes [`free_value`] per row.
    /// 4. [`Cnf::satisfied_lanes`] checks every clause, masked to the
    ///    word's rows.
    ///
    /// Returns `(row, solution)` for each row whose assignment satisfies
    /// `cnf`, in row order. Each surviving row is packed by transposing the
    /// variable words 64 variables at a time ([`transpose_block`]), so a
    /// row costs one word copy per 64 variables rather than one bit test
    /// per variable. Row for row this is the scalar composition
    /// [`TransformResult::assignment_from_inputs`] (inputs read through
    /// [`CompiledCircuit::column_of`], free variables from [`free_value`])
    /// followed by [`Cnf::is_satisfied_by_bits`], keeping the valid rows.
    ///
    /// # Panics
    ///
    /// Panics if `logits` does not have one column per circuit input, if
    /// the word lies beyond the matrix, or if `cnf` has more variables than
    /// the formula this circuit was compiled from.
    pub fn harden_word(
        &self,
        cnf: &Cnf,
        logits: &BatchMatrix,
        word: usize,
        free_seed: u64,
    ) -> Vec<(usize, Solution)> {
        assert_eq!(
            logits.width(),
            self.num_inputs(),
            "one logit per input column"
        );
        let first = word * WORD_ROWS;
        assert!(first < logits.batch(), "word {word} lies beyond the batch");
        let rows = (logits.batch() - first).min(WORD_ROWS);
        let mut inputs = vec![0u64; self.num_inputs()];
        for lane in 0..rows {
            for (bits, &v) in inputs.iter_mut().zip(logits.row(first + lane)) {
                *bits |= u64::from(v > 0.0) << lane;
            }
        }
        let mut nodes = vec![0u64; self.kernel.num_nodes()];
        self.kernel.forward_words(&inputs, &mut nodes);
        let vars: Vec<u64> = self
            .drivers
            .iter()
            .enumerate()
            .map(|(i, driver)| match *driver {
                Some(node) => nodes[node],
                None => (0..rows).fold(0, |bits, lane| {
                    let free = free_value(free_seed, first + lane, Var::from_zero_based(i));
                    bits | u64::from(free) << lane
                }),
            })
            .collect();
        let valid = cnf.satisfied_lanes(&vars, !0 >> (WORD_ROWS - rows));
        let lanes: Vec<usize> = (0..rows).filter(|lane| valid >> lane & 1 == 1).collect();
        if lanes.is_empty() {
            return Vec::new();
        }
        let mut packed = vec![vec![0u64; vars.len().div_ceil(WORD_BITS)]; lanes.len()];
        let mut block = [0u64; WORD_BITS];
        for (k, chunk) in vars.chunks(WORD_BITS).enumerate() {
            // A partial last chunk leaves the variables beyond the universe
            // zero, which keeps every row's padding bits zero.
            block.fill(0);
            block[..chunk.len()].copy_from_slice(chunk);
            transpose_block(&mut block);
            for (row, &lane) in packed.iter_mut().zip(&lanes) {
                row[k] = block[lane];
            }
        }
        lanes
            .into_iter()
            .zip(packed)
            .map(|(lane, words)| {
                let solution = Solution::from_words(words.into_boxed_slice(), vars.len());
                (first + lane, solution)
            })
            .collect()
    }
}

/// The value sampled row `row` gives a free variable (one no netlist node
/// drives): a hash of the round's `free_seed`, the row and the variable.
/// Free variables are unconstrained, so randomising them per row adds
/// diversity while keeping the output a function of the seed.
pub fn free_value(free_seed: u64, row: usize, var: Var) -> bool {
    let mut h = free_seed ^ (row as u64).wrapping_mul(0x9e3779b97f4a7c15);
    h ^= (var.index() as u64).wrapping_mul(0xd6e8feb86659fd93);
    h = h.wrapping_mul(0x2545f4914f6cdd1d);
    (h >> 63) & 1 == 1
}

/// Compiles the transformation result into a [`SoftCircuit`].
///
/// The node order of the netlist is preserved, so netlist node `i` becomes
/// soft-circuit node `i`.
pub fn compile(result: &TransformResult) -> CompiledCircuit {
    let netlist = &result.netlist;
    let input_vars: Vec<Var> = netlist
        .primary_inputs()
        .iter()
        .map(|&v| Var::new(v))
        .collect();
    let highest_input = input_vars.iter().map(|v| v.index() as usize).max();
    let mut columns = vec![None; highest_input.unwrap_or(0)];
    for (col, var) in input_vars.iter().enumerate() {
        columns[var.as_usize()] = Some(col);
    }
    // Bindings beyond the formula's universe do not reach an assignment
    // (as in `TransformResult::assignment_from_inputs`).
    let mut drivers = vec![None; result.num_vars()];
    for (var, node) in netlist.bound_vars() {
        let slot = (var as usize)
            .checked_sub(1)
            .and_then(|i| drivers.get_mut(i));
        if let Some(slot) = slot {
            *slot = Some(node.index());
        }
    }

    let mut circuit = SoftCircuit::new(input_vars.len());
    for node in netlist.nodes() {
        match node {
            NodeRef::Input(var) => {
                let col =
                    columns[Var::new(*var).as_usize()].expect("input nodes are primary inputs");
                circuit.input(col);
            }
            NodeRef::Const(b) => {
                circuit.constant(if *b { 1.0 } else { 0.0 });
            }
            NodeRef::Gate { kind, fanin } => {
                let gate = match kind {
                    GateKind::Buf => SoftGate::Buf,
                    GateKind::Not => SoftGate::Not,
                    GateKind::And => SoftGate::And,
                    GateKind::Or => SoftGate::Or,
                    GateKind::Nand => SoftGate::Nand,
                    GateKind::Nor => SoftGate::Nor,
                    GateKind::Xor => SoftGate::Xor,
                    GateKind::Xnor => SoftGate::Xnor,
                };
                let fanin: Vec<usize> = fanin.iter().map(|f| f.index()).collect();
                circuit.gate(gate, fanin);
            }
        }
    }
    for output in netlist.outputs() {
        circuit.constrain(output.node.index(), if output.target { 1.0 } else { 0.0 });
    }
    let kernel = FlatKernel::compile(&circuit);
    CompiledCircuit {
        circuit,
        kernel,
        input_vars,
        columns,
        drivers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform;
    use htsat_cnf::Cnf;
    use htsat_tensor::{Backend, BatchMatrix};

    fn and_constrained_cnf() -> Cnf {
        // x3 = x1 AND x2, x3 constrained to 1.
        let mut cnf = Cnf::new(3);
        cnf.add_dimacs_clause([3, -1, -2]);
        cnf.add_dimacs_clause([-3, 1]);
        cnf.add_dimacs_clause([-3, 2]);
        cnf.add_dimacs_clause([3]);
        cnf
    }

    #[test]
    fn compiled_circuit_mirrors_netlist_shape() {
        let cnf = and_constrained_cnf();
        let result = transform(&cnf).expect("transform");
        let compiled = compile(&result);
        assert_eq!(compiled.circuit.num_nodes(), result.netlist.num_nodes());
        assert_eq!(compiled.num_inputs(), result.primary_inputs().len());
        assert_eq!(
            compiled.circuit.outputs().len(),
            result.netlist.outputs().len()
        );
        assert_eq!(compiled.kernel.num_nodes(), compiled.circuit.num_nodes());
        assert_eq!(compiled.kernel.num_inputs(), compiled.num_inputs());
    }

    #[test]
    fn flat_kernel_matches_reference_on_compiled_circuits() {
        let cnf = and_constrained_cnf();
        let result = transform(&cnf).expect("transform");
        let compiled = compile(&result);
        let n = compiled.num_inputs();
        let mut ws = compiled.kernel.workspace();
        let mut ref_grad = vec![0.0f32; n];
        let mut flat_grad = vec![0.0f32; n];
        for trial in 0..8u32 {
            let inputs: Vec<f32> = (0..n)
                .map(|c| ((trial as usize + c * 3) % 7) as f32 / 7.0)
                .collect();
            let ref_loss = compiled
                .circuit
                .loss_and_grad_single(&inputs, &mut ref_grad);
            let flat_loss = compiled
                .kernel
                .loss_and_grad(&inputs, &mut flat_grad, &mut ws);
            assert_eq!(ref_loss.to_bits(), flat_loss.to_bits(), "trial {trial}");
            assert_eq!(ref_grad, flat_grad, "trial {trial}");
        }
    }

    #[test]
    fn hard_corner_evaluation_matches_netlist() {
        let cnf = and_constrained_cnf();
        let result = transform(&cnf).expect("transform");
        let compiled = compile(&result);
        let n = compiled.num_inputs();
        for mask in 0..(1u32 << n) {
            let probs = BatchMatrix::from_fn(1, n, |_, c| ((mask >> c) & 1) as f32);
            let out = compiled
                .circuit
                .forward_outputs(&probs, Backend::Sequential);
            let netlist_ok = result.netlist.outputs_satisfied(|v| {
                compiled
                    .column_of(Var::new(v))
                    .map(|c| (mask >> c) & 1 == 1)
                    .unwrap_or(false)
            });
            let soft_ok = (0..out.width()).all(|o| {
                let target = compiled.circuit.outputs()[o].1;
                (out.get(0, o) - target).abs() < 1e-6
            });
            assert_eq!(netlist_ok, soft_ok, "mask {mask:b}");
        }
    }

    #[test]
    fn column_lookup_round_trips() {
        let cnf = and_constrained_cnf();
        let result = transform(&cnf).expect("transform");
        let compiled = compile(&result);
        for (col, &var) in compiled.input_vars.iter().enumerate() {
            assert_eq!(compiled.column_of(var), Some(col));
        }
        assert_eq!(compiled.column_of(Var::new(3)), None);
    }
}
