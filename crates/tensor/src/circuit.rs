//! Differentiable (probabilistic) circuits with reverse-mode gradients.

use crate::ops;

/// Index of a node inside a [`SoftCircuit`].
pub type NodeIdx = usize;

/// The function computed by a soft-circuit node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoftGate {
    /// A learnable input: reads column `usize` of the input probability
    /// matrix.
    Input(usize),
    /// A constant probability (0.0 or 1.0 for Boolean constants).
    Const(f32),
    /// Identity.
    Buf,
    /// Soft NOT: `1 - p`.
    Not,
    /// Soft AND: `∏ pᵢ`.
    And,
    /// Soft OR: `1 - ∏ (1-pᵢ)`.
    Or,
    /// Complemented soft AND.
    Nand,
    /// Complemented soft OR.
    Nor,
    /// Soft XOR (pairwise fold of `a + b - 2ab`).
    Xor,
    /// Complemented soft XOR.
    Xnor,
}

/// A node: a gate plus its fan-in (indices of strictly earlier nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftNode {
    /// The gate function.
    pub gate: SoftGate,
    /// Fan-in node indices (empty for `Input`/`Const`).
    pub fanin: Vec<NodeIdx>,
}

/// A topologically ordered differentiable circuit.
///
/// The circuit maps one row of input probabilities to output probabilities
/// and provides the gradient of the ℓ2 loss between the outputs and their
/// constrained targets with respect to the inputs — exactly the model the
/// paper trains with gradient descent. It runs one row at a time and is
/// the reference the fused [`FlatKernel`](crate::FlatKernel) is checked
/// against bit for bit.
#[derive(Debug, Clone, Default)]
pub struct SoftCircuit {
    nodes: Vec<SoftNode>,
    num_inputs: usize,
    outputs: Vec<(NodeIdx, f32)>,
    max_fanin: usize,
}

impl SoftCircuit {
    /// Creates an empty circuit reading `num_inputs` input columns.
    pub fn new(num_inputs: usize) -> Self {
        SoftCircuit {
            nodes: Vec::new(),
            num_inputs,
            outputs: Vec::new(),
            max_fanin: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of input columns the circuit reads.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The constrained outputs as `(node, target)` pairs.
    pub fn outputs(&self) -> &[(NodeIdx, f32)] {
        &self.outputs
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[SoftNode] {
        &self.nodes
    }

    /// The widest fan-in of any node (0 for a circuit of leaves).
    pub fn max_fanin(&self) -> usize {
        self.max_fanin
    }

    /// Adds a node reading input column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is outside `0..num_inputs`.
    pub fn input(&mut self, col: usize) -> NodeIdx {
        assert!(col < self.num_inputs, "input column out of range");
        self.push(SoftNode {
            gate: SoftGate::Input(col),
            fanin: Vec::new(),
        })
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: f32) -> NodeIdx {
        self.push(SoftNode {
            gate: SoftGate::Const(value),
            fanin: Vec::new(),
        })
    }

    /// Adds a gate node over existing nodes.
    ///
    /// # Panics
    ///
    /// Panics if the gate is `Input`/`Const` (use the dedicated methods), if a
    /// fan-in index is out of range, or if a unary gate has fan-in ≠ 1.
    pub fn gate(&mut self, gate: SoftGate, fanin: Vec<NodeIdx>) -> NodeIdx {
        assert!(
            !matches!(gate, SoftGate::Input(_) | SoftGate::Const(_)),
            "use input()/constant() for leaf nodes"
        );
        assert!(
            fanin.iter().all(|&f| f < self.nodes.len()),
            "fan-in index out of range"
        );
        if matches!(gate, SoftGate::Buf | SoftGate::Not) {
            assert_eq!(fanin.len(), 1, "unary gate must have exactly one input");
        }
        self.push(SoftNode { gate, fanin })
    }

    fn push(&mut self, node: SoftNode) -> NodeIdx {
        self.max_fanin = self.max_fanin.max(node.fanin.len());
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Constrains the output of `node` to `target` (0.0 or 1.0) in the loss.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn constrain(&mut self, node: NodeIdx, target: f32) {
        assert!(node < self.nodes.len(), "node out of range");
        self.outputs.push((node, target));
    }

    /// Forward pass for a single batch row, writing every node activation
    /// into `acts` (resized as needed).
    pub fn forward_single(&self, inputs: &[f32], acts: &mut Vec<f32>) {
        acts.clear();
        acts.resize(self.nodes.len(), 0.0);
        let mut fanin_buf = vec![0.0f32; self.max_fanin];
        for (i, node) in self.nodes.iter().enumerate() {
            let k = node.fanin.len();
            for (slot, &f) in fanin_buf.iter_mut().zip(node.fanin.iter()) {
                *slot = acts[f];
            }
            let ps = &fanin_buf[..k];
            acts[i] = match node.gate {
                SoftGate::Input(col) => inputs[col],
                SoftGate::Const(v) => v,
                SoftGate::Buf => ps[0],
                SoftGate::Not => ops::not(ps[0]),
                SoftGate::And => ops::and(ps),
                SoftGate::Or => ops::or(ps),
                SoftGate::Nand => ops::not(ops::and(ps)),
                SoftGate::Nor => ops::not(ops::or(ps)),
                SoftGate::Xor => ops::xor(ps),
                SoftGate::Xnor => ops::xnor(ps),
            };
        }
    }

    /// Loss and input gradient for one batch row.
    ///
    /// `grad_inputs` (length `num_inputs`) receives `∂L/∂p` for each input
    /// column; the return value is the summed ℓ2 loss over the constrained
    /// outputs.
    pub fn loss_and_grad_single(&self, inputs: &[f32], grad_inputs: &mut [f32]) -> f64 {
        let n = self.nodes.len();
        let mut acts = Vec::with_capacity(n);
        self.forward_single(inputs, &mut acts);

        let mut node_grad = vec![0.0f32; n];
        let mut loss = 0.0f64;
        for &(node, target) in &self.outputs {
            let (l, g) = ops::l2_loss_and_grad(acts[node], target);
            loss += l as f64;
            node_grad[node] += g;
        }

        for g in grad_inputs.iter_mut() {
            *g = 0.0;
        }
        let mut fanin_p = vec![0.0f32; self.max_fanin];
        let mut fanin_g = vec![0.0f32; self.max_fanin];
        for i in (0..n).rev() {
            let g = node_grad[i];
            if g == 0.0 {
                continue;
            }
            let node = &self.nodes[i];
            let k = node.fanin.len();
            match node.gate {
                SoftGate::Input(col) => {
                    grad_inputs[col] += g;
                    continue;
                }
                SoftGate::Const(_) => continue,
                SoftGate::Buf => {
                    node_grad[node.fanin[0]] += g;
                    continue;
                }
                SoftGate::Not => {
                    node_grad[node.fanin[0]] -= g;
                    continue;
                }
                _ => {}
            }
            for (slot, &f) in fanin_p.iter_mut().zip(node.fanin.iter()) {
                *slot = acts[f];
            }
            let ps = &fanin_p[..k];
            let gs = &mut fanin_g[..k];
            let sign = match node.gate {
                SoftGate::And => {
                    ops::and_grad(ps, gs);
                    1.0
                }
                SoftGate::Nand => {
                    ops::and_grad(ps, gs);
                    -1.0
                }
                SoftGate::Or => {
                    ops::or_grad(ps, gs);
                    1.0
                }
                SoftGate::Nor => {
                    ops::or_grad(ps, gs);
                    -1.0
                }
                SoftGate::Xor => {
                    ops::xor_grad(ps, gs);
                    1.0
                }
                SoftGate::Xnor => {
                    ops::xor_grad(ps, gs);
                    -1.0
                }
                _ => unreachable!("leaf and unary gates handled above"),
            };
            for (idx, &f) in node.fanin.iter().enumerate() {
                node_grad[f] += sign * g * gs[idx];
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// out = (a AND b) OR (NOT a AND c), constrained to 1 — a soft 2:1 mux.
    fn mux_circuit() -> SoftCircuit {
        let mut c = SoftCircuit::new(3);
        let a = c.input(0);
        let b = c.input(1);
        let x = c.input(2);
        let na = c.gate(SoftGate::Not, vec![a]);
        let t1 = c.gate(SoftGate::And, vec![a, b]);
        let t2 = c.gate(SoftGate::And, vec![na, x]);
        let out = c.gate(SoftGate::Or, vec![t1, t2]);
        c.constrain(out, 1.0);
        c
    }

    #[test]
    fn forward_matches_boolean_semantics_at_corners() {
        let c = mux_circuit();
        let mut acts = Vec::new();
        for bits in 0..8u32 {
            let inputs: Vec<f32> = (0..3).map(|i| ((bits >> i) & 1) as f32).collect();
            c.forward_single(&inputs, &mut acts);
            let (a, b, x) = (inputs[0] > 0.5, inputs[1] > 0.5, inputs[2] > 0.5);
            let expected = if a { b } else { x };
            let out = acts[c.outputs()[0].0];
            assert_eq!(out > 0.5, expected, "inputs {inputs:?}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let c = mux_circuit();
        let inputs = vec![0.4f32, 0.7, 0.2];
        let mut grads = vec![0.0f32; 3];
        let loss = c.loss_and_grad_single(&inputs, &mut grads);
        assert!(loss > 0.0);
        let h = 1e-3f32;
        for i in 0..3 {
            let mut plus = inputs.clone();
            plus[i] += h;
            let mut minus = inputs.clone();
            minus[i] -= h;
            let mut scratch = vec![0.0f32; 3];
            let lp = c.loss_and_grad_single(&plus, &mut scratch);
            let lm = c.loss_and_grad_single(&minus, &mut scratch);
            let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
            assert!(
                (grads[i] - fd).abs() < 1e-2,
                "i={i}: {} vs {}",
                grads[i],
                fd
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let c = mux_circuit();
        let mut probs = [0.5f32; 3];
        let mut grads = [0.0f32; 3];
        let initial = c.loss_and_grad_single(&probs, &mut grads);
        for _ in 0..20 {
            c.loss_and_grad_single(&probs, &mut grads);
            for (p, g) in probs.iter_mut().zip(grads) {
                *p = (*p - 0.2 * g).clamp(0.0, 1.0);
            }
        }
        let final_loss = c.loss_and_grad_single(&probs, &mut grads);
        assert!(final_loss < initial, "{final_loss} should be < {initial}");
    }

    #[test]
    fn xor_and_xnor_nodes_backprop() {
        let mut c = SoftCircuit::new(2);
        let a = c.input(0);
        let b = c.input(1);
        let x = c.gate(SoftGate::Xor, vec![a, b]);
        let y = c.gate(SoftGate::Xnor, vec![a, b]);
        c.constrain(x, 1.0);
        c.constrain(y, 0.0);
        let inputs = vec![0.3f32, 0.6];
        let mut grads = vec![0.0f32; 2];
        let loss = c.loss_and_grad_single(&inputs, &mut grads);
        assert!(loss > 0.0);
        assert!(grads.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn constant_nodes_block_gradient() {
        let mut c = SoftCircuit::new(1);
        let a = c.input(0);
        let k = c.constant(0.0);
        let g = c.gate(SoftGate::And, vec![a, k]);
        c.constrain(g, 1.0);
        let mut grads = vec![0.0f32; 1];
        let loss = c.loss_and_grad_single(&[0.9], &mut grads);
        assert!(loss > 0.9); // output stuck at 0, target 1
        assert_eq!(grads[0], 0.0); // ∂(a·0)/∂a = 0
    }

    #[test]
    fn circuit_with_no_inputs_reports_constant_loss() {
        let mut c = SoftCircuit::new(0);
        let k = c.constant(1.0);
        c.constrain(k, 0.0);
        assert_eq!(c.loss_and_grad_single(&[], &mut []), 1.0);
    }
}
