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
//! There is one kernel body, generic over a lane count `L`: every node slot
//! of a `Workspace<L>` holds `[f32; L]`, one value per batch row, so each
//! CSR step moves `L` rows through one node in inner loops over the lanes
//! that the compiler vectorises. The per-row API ([`FlatKernel::forward`],
//! [`FlatKernel::loss_and_grad`], [`FlatKernel::fused_gd_step`]) is the
//! `L = 1` instantiation; [`FlatKernel::descend`] runs a whole logit
//! matrix in blocks of [`LANES`] rows through [`FlatKernel::fused_gd_block`].
//! Both gradient engines descend through it: the transformed circuit's
//! sampler embeds logits with [`ops::embed_logit`], the DiffSampler
//! baseline's soft CNF with the plain [`ops::sigmoid`].
//!
//! The descent runs only the *descend prefix*: the nodes up to and including
//! the last constrained output. No later node can reach an output, so none
//! receives a gradient or feeds the loss. A circuit compiled cone-first (the
//! outputs' fan-in cone before every other node, as `htsat_core::compile`
//! orders it) has exactly its cone as that prefix, which is the paper's
//! "constrained paths". Only the input columns the prefix reads move
//! through the descent; every other column's gradient is zero, so its logit
//! would not change anyway. The hard-logic pass [`FlatKernel::forward_words`]
//! and the one-row [`FlatKernel::forward`] still run every node.
//!
//! Every lane replays the reference implementation *operation for
//! operation* (same `ops::` rules, same accumulation order, same binary fast
//! paths). A node whose gradient is zero in every lane is skipped; otherwise
//! each accumulation is a per-lane select that leaves the target untouched
//! where the lane's gradient is zero, exactly as the reference skips the
//! node. Losses and gradients are therefore **bit-identical** to
//! [`SoftCircuit::loss_and_grad_single`] in every lane — property-tested in
//! `tests/proptest_flat.rs` and replayed over the generated corpus in CI.

use crate::circuit::{SoftCircuit, SoftGate};
use crate::{ops, Backend, MemoryModel};

/// Batch rows the sampler's descend region moves through the kernel per
/// CSR step: two 64-byte cache lines per node per buffer.
pub const LANES: usize = 32;

/// `u64` words per node in the samplers' hard pass ([`FlatKernel::forward_words`]).
pub const GROUP_WORDS: usize = 4;

/// Batch rows one hard-pass group holds, a bit lane each: 256, the default batch.
pub const GROUP_ROWS: usize = GROUP_WORDS * u64::BITS as usize;

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

/// Reusable per-worker scratch state for [`FlatKernel`] execution over `L`
/// batch rows at once, one lane per row.
///
/// A workspace owns every buffer a kernel invocation touches: the logits,
/// embedded probabilities and input gradients of the descend columns, the
/// activations and gradients of the descend prefix's nodes, and the fan-in
/// gather scratch — each entry `[f32; L]`. Build one with
/// [`FlatKernel::workspace`] (`L = 1`, with room for every node's
/// activation, as [`FlatKernel::forward`] needs) or
/// [`FlatKernel::lane_workspace`], then reuse it for every row or block a
/// worker processes — the kernels fully overwrite whatever they read, so a
/// workspace carries no state between calls. [`Backend::for_each_row_with`]
/// threads workspaces through, building one per worker per parallel region.
#[derive(Debug, Clone)]
pub struct Workspace<const L: usize = 1> {
    logits: Vec<[f32; L]>,
    probs: Vec<[f32; L]>,
    grad_inputs: Vec<[f32; L]>,
    acts: Vec<[f32; L]>,
    node_grad: Vec<[f32; L]>,
    fanin_p: Vec<[f32; L]>,
    fanin_g: Vec<[f32; L]>,
}

impl Workspace {
    /// The node activations written by the last forward pass.
    pub fn activations(&self) -> &[f32] {
        self.acts.as_flattened()
    }
}

impl<const L: usize> Workspace<L> {
    /// Total bytes of scratch this workspace owns.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<[f32; L]>()
            * (self.logits.capacity()
                + self.probs.capacity()
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
    /// `payload` of the descend prefix, with each input node's column
    /// replaced by its slot in `descend_columns`; its length is the
    /// prefix length.
    descend_payload: Vec<u32>,
    /// The input columns the descend prefix reads, ascending: workspace
    /// slot `k` holds column `descend_columns[k]`.
    descend_columns: Vec<u32>,
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
        let outputs: Vec<(u32, f32)> = circuit
            .outputs()
            .iter()
            .map(|&(node, target)| (u32::try_from(node).expect("node index fits"), target))
            .collect();
        // The descend prefix ends at the last constrained output: no later
        // node reaches an output. Its input nodes read `descend_columns`,
        // and the descent addresses them by slot.
        let prefix = outputs.iter().map(|&(node, _)| node as usize + 1).max();
        let prefix = prefix.unwrap_or(0);
        let mut read = vec![false; circuit.num_inputs()];
        for i in 0..prefix {
            if opcodes[i] == OpCode::Input {
                read[payload[i] as usize] = true;
            }
        }
        let descend_columns: Vec<u32> = (0..read.len() as u32)
            .filter(|&col| read[col as usize])
            .collect();
        let mut slot = vec![0u32; read.len()];
        for (k, &col) in descend_columns.iter().enumerate() {
            slot[col as usize] = k as u32;
        }
        let descend_payload = (0..prefix)
            .map(|i| match opcodes[i] {
                OpCode::Input => slot[payload[i] as usize],
                _ => payload[i],
            })
            .collect();
        FlatKernel {
            opcodes,
            payload,
            fanin,
            offsets,
            outputs,
            num_inputs: circuit.num_inputs(),
            max_fanin: circuit.max_fanin(),
            descend_payload,
            descend_columns,
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

    /// Number of nodes the descent runs: the prefix up to and including
    /// the last constrained output (zero without outputs). In a cone-first
    /// circuit this is the outputs' fan-in cone.
    pub fn descend_nodes(&self) -> usize {
        self.descend_payload.len()
    }

    /// Number of input columns the descent reads and updates: those the
    /// descend prefix's input nodes read.
    pub fn descend_inputs(&self) -> usize {
        self.descend_columns.len()
    }

    /// Builds a one-row workspace sized for this kernel, with room for
    /// every node's activation.
    pub fn workspace(&self) -> Workspace {
        self.sized_workspace(self.opcodes.len())
    }

    /// Builds a workspace sized for this kernel's descent that carries `L`
    /// rows side by side, for [`FlatKernel::fused_gd_block`]: the descend
    /// columns and the descend prefix's nodes.
    pub fn lane_workspace<const L: usize>(&self) -> Workspace<L> {
        self.sized_workspace(self.descend_nodes())
    }

    /// A workspace for the descent with room for `acts` node activations.
    fn sized_workspace<const L: usize>(&self, acts: usize) -> Workspace<L> {
        let lanes = |len| vec![[0.0; L]; len];
        let (columns, nodes) = (self.descend_inputs(), self.descend_nodes());
        Workspace {
            logits: lanes(columns),
            probs: lanes(columns),
            grad_inputs: lanes(columns),
            acts: lanes(acts),
            node_grad: lanes(nodes),
            fanin_p: lanes(self.max_fanin),
            fanin_g: lanes(self.max_fanin),
        }
    }

    /// Forward pass for one batch row over every node; activations land in
    /// [`Workspace::activations`].
    ///
    /// Matches [`SoftCircuit::forward_single`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `ws` has no room for every node's activation (a lane
    /// workspace only holds the descend prefix; use
    /// [`FlatKernel::workspace`]).
    pub fn forward(&self, inputs: &[f32], ws: &mut Workspace) {
        self.forward_lanes(&self.payload, inputs.as_chunks().0, &mut ws.acts);
    }

    /// Loss and input gradient for one batch row, matching
    /// [`SoftCircuit::loss_and_grad_single`] bit for bit.
    ///
    /// `grad_inputs` (length `num_inputs`) receives `∂L/∂p` per input
    /// column; the return value is the summed ℓ2 loss over the constrained
    /// outputs. Only the descend prefix runs. Allocation-free: all scratch
    /// lives in `ws`.
    pub fn loss_and_grad(
        &self,
        inputs: &[f32],
        grad_inputs: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        let Workspace {
            acts,
            node_grad,
            fanin_p,
            fanin_g,
            ..
        } = ws;
        let prefix = &self.payload[..self.descend_nodes()];
        self.forward_lanes(prefix, inputs.as_chunks().0, acts);
        let [loss] = self.backward_lanes(
            prefix,
            acts,
            node_grad,
            grad_inputs.as_chunks_mut().0,
            fanin_p,
            fanin_g,
        );
        loss
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
    /// finite-difference tests use. This is the one-lane instance of
    /// [`FlatKernel::fused_gd_block`] running one iteration.
    pub fn fused_gd_step(&self, logits: &mut [f32], learning_rate: f32, ws: &mut Workspace) -> f64 {
        let [loss] = self.fused_gd_block(logits, learning_rate, 1, || false, ops::embed_logit, ws);
        loss
    }

    /// Runs up to `iterations` fused gradient-descent steps in place on
    /// `rows`, whole row-major rows of logits (a logit matrix, or a range
    /// of its rows): they are cut into blocks of [`LANES`] rows, the
    /// backend maps over the blocks, and each worker reuses one
    /// [`FlatKernel::lane_workspace`] for every block it claims — zero
    /// allocations per block. Each block runs
    /// [`FlatKernel::fused_gd_block`] with `stopped` (polled before every
    /// iteration) and `embed`.
    ///
    /// Rows are independent, so every row ends bit-identical whatever the
    /// range it is descended in, the backend or the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a whole number of rows of
    /// [`FlatKernel::num_inputs`] logits.
    pub fn descend(
        &self,
        rows: &mut [f32],
        backend: Backend,
        learning_rate: f32,
        iterations: usize,
        stopped: impl Fn() -> bool + Sync,
        embed: impl Fn(f32) -> f32 + Sync,
    ) {
        backend.for_each_row_with(
            rows,
            self.num_inputs * LANES,
            || self.lane_workspace::<LANES>(),
            |_, block, ws| {
                self.fused_gd_block(block, learning_rate, iterations, &stopped, &embed, ws);
            },
        );
    }

    /// The buffer model of [`FlatKernel::descend`] over `batch` rows and
    /// `workers` pool workers: the persistent logit matrix plus one
    /// [`LANES`]-wide block workspace per worker over the descend prefix
    /// and its input columns; each engine adds its hard pass.
    pub fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        MemoryModel::new(self.num_inputs, self.descend_nodes(), batch)
            .with_workspace_inputs(self.descend_inputs())
            .with_workers(workers)
            .with_max_fanin(self.max_fanin)
            .with_lanes(LANES)
    }

    /// Runs up to `iterations` fused gradient-descent steps (see
    /// [`FlatKernel::fused_gd_step`]) on a block of at most `L` row-major
    /// logit rows at once, one lane per row, embedding each logit into a
    /// probability with `embed`: [`ops::embed_logit`] for the transformed
    /// circuit's sampler, the unclamped [`ops::sigmoid`] for the
    /// DiffSampler baseline. The embedding is a type parameter, so each
    /// choice compiles to its own loop with no branch per value.
    ///
    /// The rows' descend columns are transposed into the workspace once,
    /// `stopped` is polled before every iteration (the block stops at the
    /// first `true`), each iteration runs the descend prefix only, and the
    /// columns are transposed back. Every other column is left as it was:
    /// its gradient is zero, so for any finite, non-negative learning rate
    /// the update `v ← v − γ · 0` would leave it bit-identical anyway.
    /// Lanes past the last row of a partial block compute on zero logits
    /// and are never written back. Every row ends bit-identical to running
    /// [`FlatKernel::fused_gd_step`] on it the same number of times.
    ///
    /// Returns each lane's loss from the last iteration run (zero when none
    /// ran).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a whole number of rows of
    /// [`FlatKernel::num_inputs`] logits, or holds more than `L` of them,
    /// or if `ws` is too small for this kernel's descent.
    pub fn fused_gd_block<const L: usize>(
        &self,
        rows: &mut [f32],
        learning_rate: f32,
        iterations: usize,
        stopped: impl Fn() -> bool,
        embed: impl Fn(f32) -> f32,
        ws: &mut Workspace<L>,
    ) -> [f64; L] {
        let n = self.num_inputs;
        assert!(
            rows.len() <= L * n && rows.len().is_multiple_of(n),
            "a block holds at most {L} whole rows of {n} logits, got {} values",
            rows.len()
        );
        let (payload, columns) = (&self.descend_payload, &self.descend_columns);
        let Workspace {
            logits,
            probs,
            grad_inputs,
            acts,
            node_grad,
            fanin_p,
            fanin_g,
        } = ws;
        let logits = &mut logits[..columns.len()];
        let probs = &mut probs[..columns.len()];
        let grad_inputs = &mut grad_inputs[..columns.len()];
        if rows.len() < L * n {
            logits.fill([0.0; L]);
        }
        // `max(1)`: a kernel without inputs has no rows to move.
        for (lane, row) in rows.chunks_exact(n.max(1)).enumerate() {
            for (v, &col) in logits.iter_mut().zip(columns) {
                v[lane] = row[col as usize];
            }
        }
        let mut loss = [0.0; L];
        for _ in 0..iterations {
            if stopped() {
                break;
            }
            for (p, v) in probs.iter_mut().zip(logits.iter()) {
                *p = v.map(&embed);
            }
            self.forward_lanes(payload, probs, acts);
            loss = self.backward_lanes(payload, acts, node_grad, grad_inputs, fanin_p, fanin_g);
            for ((v, g), p) in logits.iter_mut().zip(grad_inputs.iter()).zip(probs.iter()) {
                for l in 0..L {
                    v[l] -= learning_rate * (g[l] * ops::sigmoid_grad_from_output(p[l]));
                }
            }
        }
        for (lane, row) in rows.chunks_exact_mut(n.max(1)).enumerate() {
            for (v, &col) in logits.iter().zip(columns) {
                row[col as usize] = v[lane];
            }
        }
        loss
    }

    /// Forward pass over the first `payload.len()` nodes, writing their
    /// activations into `acts`, `L` rows at a time; an input node reads
    /// `inputs[payload[i]]`.
    ///
    /// Replicates `SoftCircuit::forward_single` in every lane: the same
    /// `ops::` rule per gate, the n-ary folds in fan-in order (product from
    /// `1.0`, XOR from `0.0`). The slice lengths are pinned to the node
    /// count up front so the optimiser can hoist the per-node bounds checks
    /// out of the loop.
    fn forward_lanes<const L: usize>(
        &self,
        payload: &[u32],
        inputs: &[[f32; L]],
        acts: &mut [[f32; L]],
    ) {
        let n = payload.len();
        let opcodes = &self.opcodes[..n];
        let offsets = &self.offsets[..n + 1];
        let acts = &mut acts[..n];
        let mut lo = 0usize;
        for i in 0..n {
            let hi = offsets[i + 1] as usize;
            let fanin = &self.fanin[lo..hi];
            lo = hi;
            let op = opcodes[i];
            // Fast path for the dominant shape: a binary gate. Bit-identical
            // to the generic folds because `1.0 * x == x` and
            // `xor2(0, p) == p` exactly in IEEE arithmetic.
            let value = if fanin.len() == 2 && !matches!(op, OpCode::Input | OpCode::Const) {
                let p0 = &acts[fanin[0] as usize];
                let p1 = &acts[fanin[1] as usize];
                match op {
                    OpCode::Buf => *p0,
                    OpCode::Not => p0.map(ops::not),
                    OpCode::And => zip_lanes(p0, p1, |a, b| a * b),
                    OpCode::Or => zip_lanes(p0, p1, |a, b| 1.0 - (1.0 - a) * (1.0 - b)),
                    OpCode::Nand => zip_lanes(p0, p1, |a, b| ops::not(a * b)),
                    OpCode::Nor => zip_lanes(p0, p1, |a, b| ops::not(1.0 - (1.0 - a) * (1.0 - b))),
                    OpCode::Xor => zip_lanes(p0, p1, ops::xor2),
                    OpCode::Xnor => zip_lanes(p0, p1, |a, b| 1.0 - ops::xor2(a, b)),
                    OpCode::Input | OpCode::Const => unreachable!("excluded above"),
                }
            } else {
                let product = |a: f32, p: f32| a * p;
                let co_product = |a: f32, p: f32| a * (1.0 - p);
                match op {
                    OpCode::Input => inputs[payload[i] as usize],
                    OpCode::Const => [f32::from_bits(payload[i]); L],
                    OpCode::Buf => acts[fanin[0] as usize],
                    OpCode::Not => acts[fanin[0] as usize].map(ops::not),
                    OpCode::And => fold_lanes(acts, fanin, 1.0, product),
                    OpCode::Or => fold_lanes(acts, fanin, 1.0, co_product).map(|q| 1.0 - q),
                    OpCode::Nand => fold_lanes(acts, fanin, 1.0, product).map(ops::not),
                    OpCode::Nor => {
                        fold_lanes(acts, fanin, 1.0, co_product).map(|q| ops::not(1.0 - q))
                    }
                    OpCode::Xor => fold_lanes(acts, fanin, 0.0, ops::xor2),
                    OpCode::Xnor => fold_lanes(acts, fanin, 0.0, ops::xor2).map(|q| 1.0 - q),
                }
            };
            acts[i] = value;
        }
    }

    /// Hard-logic forward pass over `64 * W` rows at once, one bit lane per
    /// row: bit `j` of word `w` of `inputs[c]` is input column `c` of row
    /// `64 * w + j` hardened to a bit, and the same bit of `nodes[i]`
    /// receives node `i`'s Boolean value in that row.
    ///
    /// Nodes run in the same CSR order as [`FlatKernel::forward`]. An input
    /// reads its column's words; a constant is all ones when its value is
    /// above one half and all zeros otherwise; a gate folds its fan-in words
    /// with `&`, `|` or `^` and complements the result for the inverting
    /// kinds. Lanes and words are independent, so whatever the caller puts
    /// in unused lanes stays there, and each word ends as a one-word pass
    /// over it would leave it. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`FlatKernel::num_inputs`] or
    /// `nodes` shorter than [`FlatKernel::num_nodes`].
    pub fn forward_words<const W: usize>(&self, inputs: &[[u64; W]], nodes: &mut [[u64; W]]) {
        let n = self.opcodes.len();
        let inputs = &inputs[..self.num_inputs];
        let nodes = &mut nodes[..n];
        let (payload, offsets) = (&self.payload[..n], &self.offsets[..n + 1]);
        let mut lo = 0usize;
        for i in 0..n {
            let hi = offsets[i + 1] as usize;
            let fanin = &self.fanin[lo..hi];
            lo = hi;
            nodes[i] = match self.opcodes[i] {
                OpCode::Input => inputs[payload[i] as usize],
                OpCode::Const if f32::from_bits(payload[i]) > 0.5 => [!0; W],
                OpCode::Const => [0; W],
                OpCode::Buf => nodes[fanin[0] as usize],
                OpCode::Not => nodes[fanin[0] as usize].map(|w| !w),
                OpCode::And => fold_lanes(nodes, fanin, !0, |a, w| a & w),
                OpCode::Or => fold_lanes(nodes, fanin, 0, |a, w| a | w),
                OpCode::Nand => fold_lanes(nodes, fanin, !0, |a, w| a & w).map(|w| !w),
                OpCode::Nor => fold_lanes(nodes, fanin, 0, |a, w| a | w).map(|w| !w),
                OpCode::Xor => fold_lanes(nodes, fanin, 0, |a, w| a ^ w),
                OpCode::Xnor => fold_lanes(nodes, fanin, 0, |a, w| a ^ w).map(|w| !w),
            };
        }
    }

    /// Reverse pass from the constrained outputs to `grad_inputs` over the
    /// first `payload.len()` nodes (which must hold every output), `L` rows
    /// at a time, returning each lane's summed ℓ2 loss; an input node adds
    /// into `grad_inputs[payload[i]]`.
    ///
    /// Replicates the reverse sweep of `SoftCircuit::loss_and_grad_single`
    /// in every lane: same special cases, same prefix/suffix gradient
    /// rules, same accumulation order. The reference skips a node whose
    /// gradient is zero; here a node is skipped when its gradient is zero
    /// in every lane, and otherwise each accumulation leaves the lanes with
    /// a zero gradient untouched ([`add_where_live`]).
    fn backward_lanes<const L: usize>(
        &self,
        payload: &[u32],
        acts: &[[f32; L]],
        node_grad: &mut [[f32; L]],
        grad_inputs: &mut [[f32; L]],
        fanin_p: &mut [[f32; L]],
        fanin_g: &mut [[f32; L]],
    ) -> [f64; L] {
        let n = payload.len();
        let node_grad = &mut node_grad[..n];
        node_grad.fill([0.0; L]);
        let mut loss = [0.0f64; L];
        for &(node, target) in &self.outputs {
            let node = node as usize;
            for l in 0..L {
                let (y, g) = ops::l2_loss_and_grad(acts[node][l], target);
                loss[l] += y as f64;
                node_grad[node][l] += g;
            }
        }
        grad_inputs.fill([0.0; L]);
        let opcodes = &self.opcodes[..n];
        let offsets = &self.offsets[..n + 1];
        for i in (0..n).rev() {
            let g = node_grad[i];
            if g.iter().fold(true, |dead, &x| dead & (x == 0.0)) {
                continue;
            }
            let fanin = &self.fanin[offsets[i] as usize..offsets[i + 1] as usize];
            match opcodes[i] {
                OpCode::Input => {
                    add_where_live(&mut grad_inputs[payload[i] as usize], &g, |a, g, _| a + g);
                    continue;
                }
                OpCode::Const => continue,
                OpCode::Buf => {
                    add_where_live(&mut node_grad[fanin[0] as usize], &g, |a, g, _| a + g);
                    continue;
                }
                OpCode::Not => {
                    add_where_live(&mut node_grad[fanin[0] as usize], &g, |a, g, _| a - g);
                    continue;
                }
                _ => {}
            }
            let op = opcodes[i];
            let sign = if matches!(op, OpCode::Nand | OpCode::Nor | OpCode::Xnor) {
                -1.0f32
            } else {
                1.0
            };
            // Fast path for binary gates: the per-input partials reduce to
            // closed forms, so the gather and the generic prefix/suffix
            // passes are skipped. Bit-identical to the generic rules (the
            // generic paths multiply the same factors by exactly 1.0).
            if let &[f0, f1] = fanin {
                let (f0, f1) = (f0 as usize, f1 as usize);
                let (p0, p1) = (acts[f0], acts[f1]);
                let complement = |p: [f32; L]| p.map(|p| 1.0 - p);
                let flip = |p: [f32; L]| p.map(|p| 1.0 - 2.0 * p);
                let (g0, g1) = match op {
                    OpCode::And | OpCode::Nand => (p1, p0),
                    OpCode::Or | OpCode::Nor => (complement(p1), complement(p0)),
                    OpCode::Xor | OpCode::Xnor => (flip(p1), flip(p0)),
                    _ => unreachable!("leaf and unary gates handled above"),
                };
                add_where_live(&mut node_grad[f0], &g, |a, g, l| a + sign * g * g0[l]);
                add_where_live(&mut node_grad[f1], &g, |a, g, l| a + sign * g * g1[l]);
                continue;
            }
            // Sliced to the fan-in first: scratch too short for it panics
            // rather than truncating the gather.
            for (slot, &f) in fanin_p[..fanin.len()].iter_mut().zip(fanin) {
                *slot = acts[f as usize];
            }
            let ps = &fanin_p[..fanin.len()];
            let gs = &mut fanin_g[..fanin.len()];
            match op {
                OpCode::And | OpCode::Nand => product_grad_lanes(ps, gs, |p| p),
                OpCode::Or | OpCode::Nor => product_grad_lanes(ps, gs, |p| 1.0 - p),
                OpCode::Xor | OpCode::Xnor => xor_grad_lanes(ps, gs),
                _ => unreachable!("leaf and unary gates handled above"),
            }
            for (&f, gf) in fanin.iter().zip(gs.iter()) {
                add_where_live(&mut node_grad[f as usize], &g, |a, g, l| {
                    a + sign * g * gf[l]
                });
            }
        }
        loss
    }
}

/// `f` applied lane by lane to two lane vectors.
#[inline(always)]
fn zip_lanes<T: Copy, const L: usize>(a: &[T; L], b: &[T; L], f: impl Fn(T, T) -> T) -> [T; L] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// Folds the values of `fanin` (soft activations or hard words) into one
/// lane vector, starting every lane at `init` and combining in fan-in
/// order.
#[inline(always)]
fn fold_lanes<T: Copy, const L: usize>(
    acts: &[[T; L]],
    fanin: &[u32],
    init: T,
    f: impl Fn(T, T) -> T,
) -> [T; L] {
    fanin
        .iter()
        .fold([init; L], |acc, &j| zip_lanes(&acc, &acts[j as usize], &f))
}

/// Sets `acc[l] = f(acc[l], g[l], l)` in every lane whose gradient `g[l]`
/// is non-zero and leaves the other lanes untouched — the per-lane form of
/// the reference's "skip a node with zero gradient", which keeps signed
/// zeros and non-finite partials out of the accumulators exactly as it
/// does.
#[inline(always)]
fn add_where_live<const L: usize>(
    acc: &mut [f32; L],
    g: &[f32; L],
    f: impl Fn(f32, f32, usize) -> f32,
) {
    for l in 0..L {
        let updated = f(acc[l], g[l], l);
        acc[l] = if g[l] == 0.0 { acc[l] } else { updated };
    }
}

/// Lane form of [`ops::and_grad`] (`factor(p) = p`) and [`ops::or_grad`]
/// (`factor(p) = 1 - p`): `out[i] = ∏_{j≠i} factor(ps[j])` by the same
/// prefix and suffix products.
#[inline(always)]
fn product_grad_lanes<const L: usize>(
    ps: &[[f32; L]],
    out: &mut [[f32; L]],
    factor: impl Fn(f32) -> f32,
) {
    let mut prefix = [1.0f32; L];
    for (o, p) in out.iter_mut().zip(ps) {
        *o = prefix;
        for l in 0..L {
            prefix[l] *= factor(p[l]);
        }
    }
    let mut suffix = [1.0f32; L];
    for (o, p) in out.iter_mut().zip(ps).rev() {
        for l in 0..L {
            o[l] *= suffix[l];
            suffix[l] *= factor(p[l]);
        }
    }
}

/// Lane form of [`ops::xor_grad`]: the fold's upstream factor
/// `1 - 2·acc` times the downstream product of `1 - 2·p`.
#[inline(always)]
fn xor_grad_lanes<const L: usize>(ps: &[[f32; L]], out: &mut [[f32; L]]) {
    let mut acc = [0.0f32; L];
    for (o, p) in out.iter_mut().zip(ps) {
        for l in 0..L {
            o[l] = 1.0 - 2.0 * acc[l];
            acc[l] = ops::xor2(acc[l], p[l]);
        }
    }
    let mut downstream = [1.0f32; L];
    for (o, p) in out.iter_mut().zip(ps).rev() {
        for l in 0..L {
            o[l] *= downstream[l];
            downstream[l] *= 1.0 - 2.0 * p[l];
        }
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
        let inputs: Vec<[u64; 1]> = (0..4)
            .map(|col| [(0..16).fold(!0u64 << 16, |w, lane| w | ((lane >> col) & 1) << lane)])
            .collect();
        let mut nodes = vec![[0u64]; kernel.num_nodes()];
        kernel.forward_words(&inputs, &mut nodes);
        let mut ws = kernel.workspace();
        for lane in 0..16 {
            let corner: Vec<f32> = (0..4).map(|col| ((lane >> col) & 1) as f32).collect();
            kernel.forward(&corner, &mut ws);
            for (i, &act) in ws.activations().iter().enumerate() {
                assert_eq!(
                    nodes[i][0] >> lane & 1 == 1,
                    act > 0.5,
                    "lane {lane} node {i}"
                );
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_circuit_without_outputs_descends_nothing() {
        let mut c = SoftCircuit::new(2);
        let a = c.input(0);
        let b = c.input(1);
        c.gate(SoftGate::Nand, vec![a, b]);
        let kernel = FlatKernel::compile(&c);
        assert_eq!((kernel.descend_nodes(), kernel.descend_inputs()), (0, 0));
        let mut rows = [1.5f32, -0.0, f32::NAN, -3.25, 0.0, f32::INFINITY];
        let before = rows;
        let mut ws = kernel.lane_workspace::<LANES>();
        let loss = kernel.fused_gd_block(&mut rows, 10.0, 5, || false, ops::embed_logit, &mut ws);
        assert_eq!(loss, [0.0; LANES]);
        assert_eq!(bits(&rows), bits(&before));
        let mut grad = [7.0f32; 2];
        let loss = kernel.loss_and_grad(&[0.3, 0.9], &mut grad, &mut kernel.workspace());
        assert_eq!((loss, grad), (0.0, [0.0; 2]));
    }

    #[test]
    fn a_whole_cone_prefix_covers_every_node() {
        // The last node is constrained, so the prefix is the whole circuit.
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        assert_eq!(kernel.descend_nodes(), kernel.num_nodes());
        assert_eq!(kernel.descend_inputs(), kernel.num_inputs());
        let block = kernel.lane_workspace::<LANES>().bytes();
        assert_eq!(block, LANES * kernel.workspace().bytes());
    }

    /// Columns 0–2 feed the constrained output; columns 3 and 4 are read
    /// only after it, outside the descend prefix.
    fn partial_cone_circuit() -> SoftCircuit {
        let mut c = SoftCircuit::new(5);
        let a = c.input(0);
        let b = c.input(1);
        let x = c.input(2);
        let and = c.gate(SoftGate::And, vec![a, b]);
        let out = c.gate(SoftGate::Xor, vec![and, x]);
        c.constrain(out, 1.0);
        let y = c.input(3);
        let z = c.input(4);
        c.gate(SoftGate::Or, vec![y, z, out]);
        c
    }

    #[test]
    fn a_block_on_a_partial_cone_leaves_out_of_cone_logits_bit_identical() {
        let c = partial_cone_circuit();
        let kernel = FlatKernel::compile(&c);
        assert_eq!((kernel.descend_nodes(), kernel.descend_inputs()), (5, 3));

        // A partial block; the out-of-cone columns hold a signed zero and
        // a NaN.
        let rows = LANES - 1;
        let mut block: Vec<f32> = (0..rows * 5)
            .map(|i| match i % 5 {
                3 => -0.0,
                4 => f32::NAN,
                _ => (i as f32 * 0.37).sin() * 3.0,
            })
            .collect();
        let before = block.clone();
        let (learning_rate, iterations) = (10.0, 5);
        let mut ws = kernel.lane_workspace::<LANES>();
        kernel.fused_gd_block(
            &mut block,
            learning_rate,
            iterations,
            || false,
            ops::embed_logit,
            &mut ws,
        );
        for (r, (after, before)) in block.chunks(5).zip(before.chunks(5)).enumerate() {
            assert_eq!(bits(&after[3..]), bits(&before[3..]), "row {r}");
            // The cone columns descend as the reference composition does.
            let mut cone = before[..3].to_vec();
            let mut grad = [0.0f32; 5];
            for _ in 0..iterations {
                let probs: Vec<f32> = (0..5)
                    .map(|col| ops::embed_logit(cone.get(col).copied().unwrap_or(0.0)))
                    .collect();
                c.loss_and_grad_single(&probs, &mut grad);
                for ((v, &g), &p) in cone.iter_mut().zip(&grad).zip(&probs) {
                    *v -= learning_rate * (g * ops::sigmoid_grad_from_output(p));
                }
            }
            assert_eq!(bits(&after[..3]), bits(&cone), "row {r}");
            assert_ne!(bits(&after[..3]), bits(&before[..3]), "row {r} descended");
        }
    }

    /// `rows` through `fused_gd_block::<L>` in blocks of `L` (the last one
    /// partial), three iterations each: the logits' bits and each row's
    /// loss bits.
    fn descend_in_blocks<const L: usize>(
        kernel: &FlatKernel,
        rows: &BatchMatrix,
    ) -> (Vec<u32>, Vec<u64>) {
        let n = kernel.num_inputs();
        let mut logits = rows.as_slice().to_vec();
        let mut ws = kernel.lane_workspace::<L>();
        let mut losses = Vec::new();
        for block in logits.chunks_mut(L * n) {
            let loss = kernel.fused_gd_block(block, 10.0, 3, || false, ops::embed_logit, &mut ws);
            losses.extend(loss[..block.len() / n].iter().map(|l| l.to_bits()));
        }
        (bits(&logits), losses)
    }

    #[test]
    fn the_lane_count_changes_no_bit_of_any_row() {
        // `LANES` is a performance constant only: every row ends the same
        // through one-, 16- and 32-lane blocks, full or partial.
        for c in [all_gates_circuit(), partial_cone_circuit()] {
            let kernel = FlatKernel::compile(&c);
            for batch in [1, 31, 33] {
                let rows = BatchMatrix::from_fn(batch, c.num_inputs(), |b, w| {
                    ((b * 7 + w * 5) % 41) as f32 * 0.25 - 5.0
                });
                let one = descend_in_blocks::<1>(&kernel, &rows);
                assert_eq!(
                    descend_in_blocks::<16>(&kernel, &rows),
                    one,
                    "batch {batch}"
                );
                assert_eq!(
                    descend_in_blocks::<32>(&kernel, &rows),
                    one,
                    "batch {batch}"
                );
            }
        }
    }

    #[test]
    fn descend_moves_every_row_as_its_embedding_dictates_on_every_backend() {
        let c = all_gates_circuit();
        let kernel = FlatKernel::compile(&c);
        // Two full blocks and a partial third, with logits out to ±20,
        // where the plain sigmoid rounds to 0.0 or 1.0.
        let start = BatchMatrix::from_fn(2 * LANES + 3, 4, |b, w| {
            ((b * 7 + w * 5) % 41) as f32 - 20.0
        });
        let (learning_rate, iterations) = (10.0, 3);
        // Each row through the reference composition with `embed`.
        let replay = |embed: fn(f32) -> f32| -> Vec<u32> {
            let mut grad = [0.0f32; 4];
            let rows = start.rows().flat_map(|row| {
                let mut row = row.to_vec();
                for _ in 0..iterations {
                    let probs: Vec<f32> = row.iter().map(|&v| embed(v)).collect();
                    c.loss_and_grad_single(&probs, &mut grad);
                    for ((v, &g), &p) in row.iter_mut().zip(&grad).zip(&probs) {
                        *v -= learning_rate * (g * ops::sigmoid_grad_from_output(p));
                    }
                }
                row
            });
            bits(&rows.collect::<Vec<_>>())
        };
        assert_ne!(replay(ops::embed_logit), replay(ops::sigmoid));
        for embed in [ops::embed_logit, ops::sigmoid] {
            let expected = replay(embed);
            for backend in [Backend::Threads(1), Backend::Threads(3)] {
                let mut logits = start.clone();
                kernel.descend(
                    logits.as_mut_slice(),
                    backend,
                    learning_rate,
                    iterations,
                    || false,
                    embed,
                );
                assert_eq!(bits(logits.as_slice()), expected, "{backend:?}");
            }
        }
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
