//! Allocation-free fused kernel over a flat, CSR-style circuit layout.
//!
//! [`SoftCircuit`] is the *reference* implementation: pointer-chasing
//! per-node `Vec`s, scratch vectors allocated per call — easy to audit,
//! slow to run. [`FlatKernel`] compiles a circuit once into four dense
//! arrays (opcodes, per-node payload, a CSR fan-in list with offsets, and
//! the constrained-output list) and executes forward, backward and the
//! sampler's whole gradient-descent step out of a caller-owned
//! [`Workspace`] — zero heap allocations per row.
//!
//! The kernel replicates the reference implementation *operation for
//! operation* (same `ops::` calls, same accumulation order, same skip
//! logic), so its losses and gradients are **bit-identical** to
//! [`SoftCircuit::loss_and_grad_single`] — property-tested in
//! `tests/proptest_flat.rs` and replayed over the generated corpus in CI.

use crate::circuit::{SoftCircuit, SoftGate};
use crate::ops;

/// Dense per-node instruction of the flat kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpCode {
    /// Read the input column stored in the payload.
    Input,
    /// Produce the constant stored (as `f32` bits) in the payload.
    Const,
    /// Identity.
    Buf,
    /// Soft NOT.
    Not,
    /// Soft AND.
    And,
    /// Soft OR.
    Or,
    /// Complemented soft AND.
    Nand,
    /// Complemented soft OR.
    Nor,
    /// Soft XOR.
    Xor,
    /// Complemented soft XOR.
    Xnor,
}

/// Reusable per-worker scratch state for [`FlatKernel`] execution.
///
/// A workspace owns every buffer a kernel invocation touches: the embedded
/// probabilities and input gradients of one batch row, the node activations
/// and node gradients, and the fan-in gather scratch. Build one with
/// [`FlatKernel::workspace`], then reuse it for every row a worker
/// processes — the kernels fully overwrite whatever they read, so a
/// workspace carries no state between rows. Executors thread workspaces
/// through `reduce_rows_with`, building one per worker per parallel region.
#[derive(Debug, Clone)]
pub struct Workspace {
    probs: Vec<f32>,
    grad_inputs: Vec<f32>,
    acts: Vec<f32>,
    node_grad: Vec<f32>,
    fanin_p: Vec<f32>,
    fanin_g: Vec<f32>,
}

impl Workspace {
    /// The node activations written by the last forward pass.
    pub fn activations(&self) -> &[f32] {
        &self.acts
    }

    /// Total bytes of scratch this workspace owns.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.probs.capacity()
                + self.grad_inputs.capacity()
                + self.acts.capacity()
                + self.node_grad.capacity()
                + self.fanin_p.capacity()
                + self.fanin_g.capacity())
    }
}

/// A [`SoftCircuit`] compiled into a flat, cache-friendly layout.
///
/// Node `i`'s fan-in lives at `fanin[offsets[i]..offsets[i + 1]]` (CSR), its
/// instruction in `opcodes[i]`, and its immediate operand (input column or
/// constant bits) in `payload[i]`. Compilation is cheap and infallible;
/// execution never allocates — all scratch lives in a [`Workspace`].
#[derive(Debug, Clone)]
pub struct FlatKernel {
    opcodes: Vec<OpCode>,
    payload: Vec<u32>,
    fanin: Vec<u32>,
    offsets: Vec<u32>,
    outputs: Vec<(u32, f32)>,
    num_inputs: usize,
    max_fanin: usize,
}

impl FlatKernel {
    /// Compiles a circuit into the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` nodes or fan-in edges
    /// (far beyond any transformable CNF).
    pub fn compile(circuit: &SoftCircuit) -> FlatKernel {
        let n = circuit.num_nodes();
        let mut opcodes = Vec::with_capacity(n);
        let mut payload = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        offsets.push(0u32);
        for node in circuit.nodes() {
            let (op, pay) = match node.gate {
                SoftGate::Input(col) => (OpCode::Input, u32::try_from(col).expect("column fits")),
                SoftGate::Const(v) => (OpCode::Const, v.to_bits()),
                SoftGate::Buf => (OpCode::Buf, 0),
                SoftGate::Not => (OpCode::Not, 0),
                SoftGate::And => (OpCode::And, 0),
                SoftGate::Or => (OpCode::Or, 0),
                SoftGate::Nand => (OpCode::Nand, 0),
                SoftGate::Nor => (OpCode::Nor, 0),
                SoftGate::Xor => (OpCode::Xor, 0),
                SoftGate::Xnor => (OpCode::Xnor, 0),
            };
            opcodes.push(op);
            payload.push(pay);
            for &f in &node.fanin {
                fanin.push(u32::try_from(f).expect("node index fits"));
            }
            offsets.push(u32::try_from(fanin.len()).expect("edge count fits"));
        }
        let outputs = circuit
            .outputs()
            .iter()
            .map(|&(node, target)| (u32::try_from(node).expect("node index fits"), target))
            .collect();
        FlatKernel {
            opcodes,
            payload,
            fanin,
            offsets,
            outputs,
            num_inputs: circuit.num_inputs(),
            max_fanin: circuit.max_fanin(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.opcodes.len()
    }

    /// Number of input columns the kernel reads.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The widest fan-in of any node.
    pub fn max_fanin(&self) -> usize {
        self.max_fanin
    }

    /// Number of constrained outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Builds a workspace sized for this kernel.
    pub fn workspace(&self) -> Workspace {
        Workspace {
            probs: vec![0.0; self.num_inputs],
            grad_inputs: vec![0.0; self.num_inputs],
            acts: vec![0.0; self.opcodes.len()],
            node_grad: vec![0.0; self.opcodes.len()],
            fanin_p: vec![0.0; self.max_fanin],
            fanin_g: vec![0.0; self.max_fanin],
        }
    }

    /// Debug-build guard: a workspace sized for a *different* kernel would
    /// not panic on its own (the fan-in gather zips against the scratch
    /// length and would silently truncate) — catch the misuse loudly.
    fn check_workspace(&self, ws: &Workspace) {
        debug_assert_eq!(
            ws.acts.len(),
            self.opcodes.len(),
            "workspace/kernel mismatch"
        );
        debug_assert_eq!(
            ws.node_grad.len(),
            self.opcodes.len(),
            "workspace/kernel mismatch"
        );
        debug_assert_eq!(ws.probs.len(), self.num_inputs, "workspace/kernel mismatch");
        debug_assert_eq!(
            ws.grad_inputs.len(),
            self.num_inputs,
            "workspace/kernel mismatch"
        );
        debug_assert!(
            ws.fanin_p.len() >= self.max_fanin,
            "workspace/kernel mismatch"
        );
        debug_assert!(
            ws.fanin_g.len() >= self.max_fanin,
            "workspace/kernel mismatch"
        );
    }

    /// Forward pass for one batch row; activations land in
    /// [`Workspace::activations`].
    ///
    /// Matches [`SoftCircuit::forward_single`] bit for bit.
    pub fn forward(&self, inputs: &[f32], ws: &mut Workspace) {
        self.check_workspace(ws);
        self.forward_into(inputs, &mut ws.acts, &mut ws.fanin_p);
    }

    /// Loss and input gradient for one batch row, matching
    /// [`SoftCircuit::loss_and_grad_single`] bit for bit.
    ///
    /// `grad_inputs` (length `num_inputs`) receives `∂L/∂p` per input
    /// column; the return value is the summed ℓ2 loss over the constrained
    /// outputs. Allocation-free: all scratch lives in `ws`.
    pub fn loss_and_grad(
        &self,
        inputs: &[f32],
        grad_inputs: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        self.check_workspace(ws);
        let Workspace {
            acts,
            node_grad,
            fanin_p,
            fanin_g,
            ..
        } = ws;
        self.forward_into(inputs, acts, fanin_p);
        self.backward_into(acts, node_grad, grad_inputs, fanin_p, fanin_g)
    }

    /// The sampler's fused gradient-descent step for one batch row of
    /// logits, in a single allocation-free pass:
    ///
    /// 1. sigmoid-embed the logits into probabilities
    ///    ([`ops::embed_logit`] — clamped so saturated logits stay
    ///    differentiable),
    /// 2. forward through the circuit,
    /// 3. backward from the ℓ2 loss to the input gradients,
    /// 4. chain rule through the sigmoid and descend:
    ///    `v ← v − γ · ∂L/∂p · σ'(p)`, written straight back into `logits`.
    ///
    /// Returns the row's loss. With `learning_rate == 0` this is a pure
    /// loss evaluation (the logits are left untouched), which is what the
    /// finite-difference tests use.
    pub fn fused_gd_step(&self, logits: &mut [f32], learning_rate: f32, ws: &mut Workspace) -> f64 {
        self.check_workspace(ws);
        let Workspace {
            probs,
            grad_inputs,
            acts,
            node_grad,
            fanin_p,
            fanin_g,
        } = ws;
        for (p, &v) in probs.iter_mut().zip(logits.iter()) {
            *p = ops::embed_logit(v);
        }
        self.forward_into(probs, acts, fanin_p);
        let loss = self.backward_into(acts, node_grad, grad_inputs, fanin_p, fanin_g);
        for ((v, &g), &p) in logits.iter_mut().zip(grad_inputs.iter()).zip(probs.iter()) {
            *v -= learning_rate * (g * ops::sigmoid_grad_from_output(p));
        }
        loss
    }

    /// Forward pass writing every node activation into `acts`.
    ///
    /// Replicates `SoftCircuit::forward_single` exactly: gather the fan-in
    /// activations into scratch, apply the same `ops::` rule. The slice
    /// lengths are pinned to the node count up front so the optimiser can
    /// hoist the per-node bounds checks out of the loop.
    fn forward_into(&self, inputs: &[f32], acts: &mut [f32], fanin_buf: &mut [f32]) {
        let n = self.opcodes.len();
        let opcodes = &self.opcodes[..n];
        let payload = &self.payload[..n];
        let offsets = &self.offsets[..n + 1];
        let acts = &mut acts[..n];
        let mut lo = 0usize;
        for i in 0..n {
            let hi = offsets[i + 1] as usize;
            let k = hi - lo;
            let op = opcodes[i];
            // Fast path for the dominant shape: a binary gate. Skips the
            // gather loop and the generic n-ary folds. Bit-identical to the
            // generic rules because `1.0 * x == x` and `xor2(0, p) == p`
            // exactly in IEEE arithmetic.
            if k == 2 && !matches!(op, OpCode::Input | OpCode::Const) {
                let p0 = acts[self.fanin[lo] as usize];
                let p1 = acts[self.fanin[lo + 1] as usize];
                acts[i] = match op {
                    OpCode::Buf => p0,
                    OpCode::Not => ops::not(p0),
                    OpCode::And => p0 * p1,
                    OpCode::Or => 1.0 - (1.0 - p0) * (1.0 - p1),
                    OpCode::Nand => ops::not(p0 * p1),
                    OpCode::Nor => ops::not(1.0 - (1.0 - p0) * (1.0 - p1)),
                    OpCode::Xor => ops::xor2(p0, p1),
                    OpCode::Xnor => 1.0 - ops::xor2(p0, p1),
                    OpCode::Input | OpCode::Const => unreachable!("excluded above"),
                };
                lo = hi;
                continue;
            }
            for (slot, &f) in fanin_buf.iter_mut().zip(&self.fanin[lo..hi]) {
                *slot = acts[f as usize];
            }
            let ps = &fanin_buf[..k];
            acts[i] = match op {
                OpCode::Input => inputs[payload[i] as usize],
                OpCode::Const => f32::from_bits(payload[i]),
                OpCode::Buf => ps[0],
                OpCode::Not => ops::not(ps[0]),
                OpCode::And => ops::and(ps),
                OpCode::Or => ops::or(ps),
                OpCode::Nand => ops::not(ops::and(ps)),
                OpCode::Nor => ops::not(ops::or(ps)),
                OpCode::Xor => ops::xor(ps),
                OpCode::Xnor => ops::xnor(ps),
            };
            lo = hi;
        }
    }

    /// Hard-logic forward pass over 64 rows at once, one bit lane per row:
    /// bit `j` of `inputs[c]` is input column `c` of row `j` hardened to a
    /// bit, and bit `j` of `nodes[i]` receives node `i`'s Boolean value in
    /// that row.
    ///
    /// Nodes run in the same CSR order as [`FlatKernel::forward`]. An input
    /// reads its column's word; a constant is all ones when its value is
    /// above one half and all zeros otherwise; a gate folds its fan-in words
    /// with `&`, `|` or `^` and complements the result for the inverting
    /// kinds. Lanes are independent, so whatever the caller puts in unused
    /// lanes stays there. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`FlatKernel::num_inputs`] or
    /// `nodes` shorter than [`FlatKernel::num_nodes`].
    pub fn forward_words(&self, inputs: &[u64], nodes: &mut [u64]) {
        let n = self.opcodes.len();
        let inputs = &inputs[..self.num_inputs];
        let nodes = &mut nodes[..n];
        for i in 0..n {
            let fanin = &self.fanin[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            let words = fanin.iter().map(|&f| nodes[f as usize]);
            let value = match self.opcodes[i] {
                OpCode::Input => inputs[self.payload[i] as usize],
                OpCode::Const if f32::from_bits(self.payload[i]) > 0.5 => !0,
                OpCode::Const => 0,
                OpCode::Buf => nodes[fanin[0] as usize],
                OpCode::Not => !nodes[fanin[0] as usize],
                OpCode::And => words.fold(!0, |a, w| a & w),
                OpCode::Or => words.fold(0, |a, w| a | w),
                OpCode::Nand => !words.fold(!0, |a, w| a & w),
                OpCode::Nor => !words.fold(0, |a, w| a | w),
                OpCode::Xor => words.fold(0, |a, w| a ^ w),
                OpCode::Xnor => !words.fold(0, |a, w| a ^ w),
            };
            nodes[i] = value;
        }
    }

    /// Reverse pass from the constrained outputs to `grad_inputs`, returning
    /// the summed ℓ2 loss.
    ///
    /// Replicates the reverse sweep of `SoftCircuit::loss_and_grad_single`
    /// exactly: same zero-gradient skip, same special cases, same
    /// prefix/suffix gradient rules, same accumulation order.
    fn backward_into(
        &self,
        acts: &[f32],
        node_grad: &mut [f32],
        grad_inputs: &mut [f32],
        fanin_p: &mut [f32],
        fanin_g: &mut [f32],
    ) -> f64 {
        node_grad.fill(0.0);
        let mut loss = 0.0f64;
        for &(node, target) in &self.outputs {
            let (l, g) = ops::l2_loss_and_grad(acts[node as usize], target);
            loss += l as f64;
            node_grad[node as usize] += g;
        }
        for g in grad_inputs.iter_mut() {
            *g = 0.0;
        }
        let n = self.opcodes.len();
        let opcodes = &self.opcodes[..n];
        let payload = &self.payload[..n];
        let offsets = &self.offsets[..n + 1];
        let node_grad = &mut node_grad[..n];
        for i in (0..n).rev() {
            let g = node_grad[i];
            if g == 0.0 {
                continue;
            }
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            let k = hi - lo;
            match opcodes[i] {
                OpCode::Input => {
                    grad_inputs[payload[i] as usize] += g;
                    continue;
                }
                OpCode::Const => continue,
                OpCode::Buf => {
                    node_grad[self.fanin[lo] as usize] += g;
                    continue;
                }
                OpCode::Not => {
                    node_grad[self.fanin[lo] as usize] -= g;
                    continue;
                }
                _ => {}
            }
            // Fast path for binary gates: the per-input partials reduce to
            // closed forms, so the gather and the generic prefix/suffix
            // passes are skipped. Bit-identical to the generic rules (the
            // generic paths multiply the same factors by exactly 1.0).
            if k == 2 {
                let f0 = self.fanin[lo] as usize;
                let f1 = self.fanin[lo + 1] as usize;
                let (p0, p1) = (acts[f0], acts[f1]);
                let (g0, g1, sign) = match opcodes[i] {
                    OpCode::And => (p1, p0, 1.0f32),
                    OpCode::Nand => (p1, p0, -1.0),
                    OpCode::Or => (1.0 - p1, 1.0 - p0, 1.0),
                    OpCode::Nor => (1.0 - p1, 1.0 - p0, -1.0),
                    OpCode::Xor => (1.0 - 2.0 * p1, 1.0 - 2.0 * p0, 1.0),
                    OpCode::Xnor => (1.0 - 2.0 * p1, 1.0 - 2.0 * p0, -1.0),
                    _ => unreachable!("leaf and unary gates handled above"),
                };
                node_grad[f0] += sign * g * g0;
                node_grad[f1] += sign * g * g1;
                continue;
            }
            for (slot, &f) in fanin_p.iter_mut().zip(&self.fanin[lo..hi]) {
                *slot = acts[f as usize];
            }
            let ps = &fanin_p[..k];
            let gs = &mut fanin_g[..k];
            let sign = match opcodes[i] {
                OpCode::And => {
                    ops::and_grad(ps, gs);
                    1.0
                }
                OpCode::Nand => {
                    ops::and_grad(ps, gs);
                    -1.0
                }
                OpCode::Or => {
                    ops::or_grad(ps, gs);
                    1.0
                }
                OpCode::Nor => {
                    ops::or_grad(ps, gs);
                    -1.0
                }
                OpCode::Xor => {
                    ops::xor_grad(ps, gs);
                    1.0
                }
                OpCode::Xnor => {
                    ops::xor_grad(ps, gs);
                    -1.0
                }
                _ => unreachable!("leaf and unary gates handled above"),
            };
            for (&f, &gf) in self.fanin[lo..hi].iter().zip(gs.iter()) {
                node_grad[f as usize] += sign * g * gf;
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchMatrix;

    /// A circuit exercising every gate type, every leaf type, and shared
    /// fan-out.
    fn all_gates_circuit() -> SoftCircuit {
        let mut c = SoftCircuit::new(4);
        let a = c.input(0);
        let b = c.input(1);
        let x = c.input(2);
        let y = c.input(3);
        let one = c.constant(1.0);
        let buf = c.gate(SoftGate::Buf, vec![a]);
        let not = c.gate(SoftGate::Not, vec![b]);
        let and = c.gate(SoftGate::And, vec![buf, not, x]);
        let or = c.gate(SoftGate::Or, vec![a, y, one]);
        let nand = c.gate(SoftGate::Nand, vec![b, x]);
        let nor = c.gate(SoftGate::Nor, vec![and, y]);
        let xor = c.gate(SoftGate::Xor, vec![or, nand, a]);
        let xnor = c.gate(SoftGate::Xnor, vec![nor, x]);
        c.constrain(and, 1.0);
        c.constrain(xor, 0.0);
        c.constrain(xnor, 1.0);
        c
    }

    #[test]
    fn flat_forward_matches_reference_bit_for_bit() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        let mut ws = kernel.workspace();
        let mut ref_acts = Vec::new();
        let inputs = [0.3f32, 0.8, 0.1, 0.6];
        c.forward_single(&inputs, &mut ref_acts);
        kernel.forward(&inputs, &mut ws);
        assert_eq!(ws.activations(), ref_acts.as_slice());
    }

    #[test]
    fn word_forward_matches_the_soft_forward_at_every_corner() {
        // All 16 corners of the 4 inputs, one per lane; lanes 16..64 hold
        // ones and must not leak into the low lanes.
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        let inputs: Vec<u64> = (0..4)
            .map(|col| (0..16).fold(!0u64 << 16, |w, lane| w | ((lane >> col) & 1) << lane))
            .collect();
        let mut nodes = vec![0u64; kernel.num_nodes()];
        kernel.forward_words(&inputs, &mut nodes);
        let mut ws = kernel.workspace();
        for lane in 0..16 {
            let corner: Vec<f32> = (0..4).map(|col| ((lane >> col) & 1) as f32).collect();
            kernel.forward(&corner, &mut ws);
            for (i, &act) in ws.activations().iter().enumerate() {
                assert_eq!(nodes[i] >> lane & 1 == 1, act > 0.5, "lane {lane} node {i}");
            }
        }
    }

    #[test]
    fn flat_loss_and_grad_match_reference_bit_for_bit() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        let mut ws = kernel.workspace();
        let inputs = [0.25f32, 0.9, 0.45, 0.7];
        let mut ref_grad = vec![0.0f32; 4];
        let mut flat_grad = vec![0.0f32; 4];
        let ref_loss = c.loss_and_grad_single(&inputs, &mut ref_grad);
        let flat_loss = kernel.loss_and_grad(&inputs, &mut flat_grad, &mut ws);
        assert_eq!(ref_loss.to_bits(), flat_loss.to_bits());
        assert_eq!(ref_grad, flat_grad);
    }

    #[test]
    fn workspace_carries_no_state_between_rows() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        let mut fresh = kernel.workspace();
        let mut reused = kernel.workspace();
        let rows = BatchMatrix::from_fn(6, 4, |b, w| ((b * 7 + w * 3) % 10) as f32 / 10.0);
        let mut grad_fresh = vec![0.0f32; 4];
        let mut grad_reused = vec![0.0f32; 4];
        for b in 0..rows.batch() {
            let mut one_shot = kernel.workspace();
            let loss_fresh = kernel.loss_and_grad(rows.row(b), &mut grad_fresh, &mut one_shot);
            let loss_reused = kernel.loss_and_grad(rows.row(b), &mut grad_reused, &mut reused);
            assert_eq!(loss_fresh.to_bits(), loss_reused.to_bits(), "row {b}");
            assert_eq!(grad_fresh, grad_reused, "row {b}");
        }
        // Fused steps likewise: interleaving rows never changes a result.
        let mut row_a = [0.5f32, -1.0, 2.0, 0.0];
        let mut row_b = row_a;
        kernel.fused_gd_step(&mut [9.0, -9.0, 0.1, 3.0], 10.0, &mut reused);
        kernel.fused_gd_step(&mut row_a, 10.0, &mut reused);
        kernel.fused_gd_step(&mut row_b, 10.0, &mut fresh);
        assert_eq!(row_a, row_b);
    }

    #[test]
    fn fused_gradient_matches_finite_difference_for_every_gate_type() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        let mut ws = kernel.workspace();
        let logits = [0.4f32, -0.8, 0.2, 1.1];
        // A zero learning rate makes the fused step a pure loss evaluation;
        // a unit learning rate makes `v_before - v_after` the gradient.
        let loss_at = |v: &[f32], ws: &mut Workspace| {
            let mut row = v.to_vec();
            kernel.fused_gd_step(&mut row, 0.0, ws)
        };
        let base_loss = loss_at(&logits, &mut ws);
        assert!(base_loss > 0.0);
        let mut stepped = logits;
        kernel.fused_gd_step(&mut stepped, 1.0, &mut ws);
        for i in 0..logits.len() {
            let grad = f64::from(logits[i] - stepped[i]);
            let h = 1e-3f32;
            let mut plus = logits;
            plus[i] += h;
            let mut minus = logits;
            minus[i] -= h;
            let fd = (loss_at(&plus, &mut ws) - loss_at(&minus, &mut ws)) / (2.0 * f64::from(h));
            assert!(
                (grad - fd).abs() < 1e-2,
                "input {i}: fused {grad} vs finite-difference {fd}"
            );
        }
    }

    #[test]
    fn saturated_logits_keep_flowing_gradient() {
        // A single buffered input constrained to 0. At v = 100 the plain
        // sigmoid saturates to exactly 1.0 and σ' = 0 — without the clamp
        // the logit would be stuck forever. The embedding pins p at
        // 1 - PROB_EPS, so the fused step still descends.
        let mut c = SoftCircuit::new(1);
        let a = c.input(0);
        let buf = c.gate(SoftGate::Buf, vec![a]);
        c.constrain(buf, 0.0);
        let kernel = FlatKernel::compile(&c);
        let mut ws = kernel.workspace();
        let mut row = [100.0f32];
        let loss = kernel.fused_gd_step(&mut row, 1e7, &mut ws);
        assert!(loss > 0.9, "saturated wrong logit should have ~unit loss");
        assert!(
            row[0] < 100.0,
            "clamped embedding must leave a usable gradient, got {}",
            row[0]
        );
    }

    #[test]
    fn kernel_shape_accessors_mirror_the_circuit() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        assert_eq!(kernel.num_nodes(), c.num_nodes());
        assert_eq!(kernel.num_inputs(), c.num_inputs());
        assert_eq!(kernel.max_fanin(), c.max_fanin());
        assert_eq!(kernel.num_outputs(), c.outputs().len());
        assert!(kernel.workspace().bytes() > 0);
    }

    #[test]
    fn empty_circuit_compiles_and_runs() {
        let c = SoftCircuit::new(0);
        let kernel = FlatKernel::compile(&c);
        let mut ws = kernel.workspace();
        assert_eq!(kernel.loss_and_grad(&[], &mut [], &mut ws), 0.0);
        assert_eq!(kernel.fused_gd_step(&mut [], 10.0, &mut ws), 0.0);
    }
}
