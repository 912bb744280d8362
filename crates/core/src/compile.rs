//! Lowering the extracted netlist to a differentiable circuit.
//!
//! Every gate of the multi-level, multi-output Boolean function is replaced
//! by its probabilistic counterpart from the paper's Table I, primary inputs
//! become learnable input columns, and output constraints become ℓ2 targets.

use crate::TransformResult;
use htsat_cnf::{Cnf, Solution, Var};
use htsat_logic::{GateKind, NodeRef};
use htsat_tensor::{BatchMatrix, FlatKernel, MemoryModel, SoftCircuit, SoftGate};
use htsat_tensor::{GROUP_ROWS, GROUP_WORDS};
use std::ops::Range;

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

    /// Hardens, reconstructs and validates the rows `rows` of a logit
    /// matrix, at most [`GROUP_ROWS`] of them, each held in one bit lane of
    /// [`GROUP_WORDS`] `u64`s.
    ///
    /// 1. Every input column's logits are thresholded into one group of
    ///    words ([`BatchMatrix::sign_words`]).
    /// 2. The kernel evaluates every node group-wide
    ///    ([`FlatKernel::forward_words`]).
    /// 3. Each variable of the formula's universe takes its driver node's
    ///    words; a free variable takes [`free_value`] per row.
    /// 4. [`Cnf::satisfying_lanes`] checks every clause for the group's
    ///    rows and packs each satisfying row into a [`Solution`].
    ///
    /// Returns `(row, solution)` for each row whose assignment satisfies
    /// `cnf`, in row order. Row for row this is the scalar composition
    /// [`TransformResult::assignment_from_inputs`] (inputs read through
    /// [`CompiledCircuit::column_of`], free variables from [`free_value`])
    /// followed by [`Cnf::is_satisfied_by_bits`], keeping the valid rows.
    ///
    /// # Panics
    ///
    /// Panics if `logits` does not have one column per circuit input, if
    /// `rows` holds more than [`GROUP_ROWS`] rows or ends beyond the
    /// matrix, or if `cnf` has more variables than the formula this circuit
    /// was compiled from.
    pub fn harden_rows(
        &self,
        cnf: &Cnf,
        logits: &BatchMatrix,
        rows: Range<usize>,
        free_seed: u64,
    ) -> Vec<(usize, Solution)> {
        assert_eq!(
            logits.width(),
            self.num_inputs(),
            "one logit per input column"
        );
        assert!(rows.len() <= GROUP_ROWS, "at most one group of rows");
        let first = rows.start;
        let (inputs, rows) = logits.sign_words::<GROUP_WORDS>(rows);
        let mut nodes = vec![[0u64; GROUP_WORDS]; self.kernel.num_nodes()];
        self.kernel.forward_words(&inputs, &mut nodes);
        let vars: Vec<[u64; GROUP_WORDS]> = self
            .drivers
            .iter()
            .enumerate()
            .map(|(i, driver)| match *driver {
                Some(node) => nodes[node],
                None => (0..rows).fold([0; GROUP_WORDS], |mut bits, row| {
                    let free = free_value(free_seed, first + row, Var::from_zero_based(i));
                    bits[row / 64] |= u64::from(free) << (row % 64);
                    bits
                }),
            })
            .collect();
        cnf.satisfying_lanes(&vars, rows)
            .into_iter()
            .map(|(row, solution)| (first + row, solution))
            .collect()
    }

    /// [`FlatKernel::memory_model`] plus each worker's hard pass: a group
    /// of words per column, node and variable.
    pub fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        let held = self.num_inputs() + self.kernel.num_nodes() + self.drivers.len();
        self.kernel
            .memory_model(batch, workers)
            .with_hard_words(GROUP_WORDS * held)
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
/// The nodes are emitted cone-first: the fan-in cone of the constrained
/// outputs ([`htsat_logic::Netlist::constrained_cone`], the paper's
/// "constrained paths"), then every other node, each half in netlist
/// order. The cone is closed under fan-in, so both halves stay
/// topological, and the cone is exactly the kernel's descend prefix
/// ([`FlatKernel::descend_nodes`]), because its last node is an output
/// (every other cone node feeds a later one): the descent never runs a
/// node outside it. Cone nodes keep their relative order, so every gradient accumulates
/// from the same consumers in the same order as in netlist order — the
/// reordering changes no bit of any loss, gradient or solution.
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
    let cone = netlist.constrained_cone();
    let order: Vec<usize> = (0..cone.len())
        .filter(|&i| cone[i])
        .chain((0..cone.len()).filter(|&i| !cone[i]))
        .collect();
    // `position[i]`: where netlist node `i` lands in the circuit.
    let mut position = vec![0; order.len()];
    for (new, &old) in order.iter().enumerate() {
        position[old] = new;
    }
    // Bindings beyond the formula's universe do not reach an assignment
    // (as in `TransformResult::assignment_from_inputs`).
    let mut drivers = vec![None; result.num_vars()];
    for (var, node) in netlist.bound_vars() {
        let slot = (var as usize)
            .checked_sub(1)
            .and_then(|i| drivers.get_mut(i));
        if let Some(slot) = slot {
            *slot = Some(position[node.index()]);
        }
    }

    let mut circuit = SoftCircuit::new(input_vars.len());
    for &old in &order {
        match &netlist.nodes()[old] {
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
                let fanin: Vec<usize> = fanin.iter().map(|f| position[f.index()]).collect();
                circuit.gate(gate, fanin);
            }
        }
    }
    for output in netlist.outputs() {
        let target = if output.target { 1.0 } else { 0.0 };
        circuit.constrain(position[output.node.index()], target);
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
    use htsat_instances::suite::{table2_instance, SuiteScale};

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
        let mut acts = Vec::new();
        for mask in 0..(1u32 << n) {
            let probs: Vec<f32> = (0..n).map(|c| ((mask >> c) & 1) as f32).collect();
            compiled.circuit.forward_single(&probs, &mut acts);
            let netlist_ok = result.netlist.outputs_satisfied(|v| {
                compiled
                    .column_of(Var::new(v))
                    .map(|c| (mask >> c) & 1 == 1)
                    .unwrap_or(false)
            });
            let soft_ok = compiled
                .circuit
                .outputs()
                .iter()
                .all(|&(node, target)| (acts[node] - target).abs() < 1e-6);
            assert_eq!(netlist_ok, soft_ok, "mask {mask:b}");
        }
    }

    #[test]
    fn cone_first_order_is_topological_and_keeps_every_driver() {
        // Small `s15850a_3_2`: its cone is a part of the circuit.
        let instance = table2_instance("s15850a_3_2", SuiteScale::Small).expect("instance");
        let result = transform(&instance.cnf).expect("transform");
        let compiled = compile(&result);
        let nodes = compiled.circuit.nodes();
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.fanin.iter().all(|&f| f < i),
                "node {i} reads a later node"
            );
        }
        let cone = result.netlist.constrained_cone();
        let in_cone = cone.iter().filter(|&&c| c).count();
        assert!(in_cone < nodes.len(), "the cone is partial");
        assert_eq!(compiled.kernel.descend_nodes(), in_cone);

        // Each variable's driver node computes, word-wide, what its
        // netlist driver computes in netlist order, row by row.
        let n = compiled.num_inputs();
        let inputs: Vec<[u64; 1]> = (0..n)
            .map(|c| [(c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)])
            .collect();
        let mut words = vec![[0u64]; compiled.kernel.num_nodes()];
        compiled.kernel.forward_words(&inputs, &mut words);
        for lane in 0..64 {
            let values = result.netlist.evaluate(|v| {
                let col = compiled.column_of(Var::new(v)).expect("primary input");
                inputs[col][0] >> lane & 1 == 1
            });
            for (i, driver) in compiled.drivers.iter().enumerate() {
                let var = i as u32 + 1;
                let netlist_driver = result.netlist.driver_of(var).map(|d| d.index());
                assert_eq!(driver.is_some(), netlist_driver.is_some(), "x{var}");
                if let (Some(node), Some(d)) = (driver, netlist_driver) {
                    assert_eq!(
                        words[*node][0] >> lane & 1 == 1,
                        values[d],
                        "x{var}, row {lane}"
                    );
                }
            }
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
