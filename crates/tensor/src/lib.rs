//! # htsat-tensor
//!
//! Batched tensor engine and differentiable (probabilistic) circuit
//! evaluation for the high-throughput SAT sampling library.
//!
//! The paper relaxes every logic gate of the transformed circuit into its
//! probabilistic counterpart (Table I), turning the circuit into a
//! differentiable model mapping input probabilities to output probabilities,
//! and drives a *batch* of independent candidate assignments towards
//! satisfying solutions with plain gradient descent. The reference
//! implementation uses PyTorch on NVIDIA V100 GPUs; this crate provides the
//! equivalent substrate in pure Rust:
//!
//! * [`BatchMatrix`] — a dense row-major `[batch, width]` `f32` matrix, whose
//!   [`BatchMatrix::sign_words`] hardens `64 * W` rows into one `[u64; W]`
//!   per column ([`GROUP_ROWS`] rows for the samplers' hard pass),
//! * [`ops`] — the soft gate forward rules and their derivatives,
//! * [`SoftCircuit`] — a topologically ordered differentiable circuit with a
//!   reverse-mode gradient pass for one row (the reference implementation,
//!   kept as the oracle),
//! * [`FlatKernel`] / [`Workspace`] — the same circuit compiled once into a
//!   CSR-style flat layout, executing the fused
//!   embed + forward + backward + descent step on blocks of [`LANES`]
//!   rows (one lane per row) with zero allocations out of reusable
//!   per-worker workspaces. [`FlatKernel::descend`] is the one descent both
//!   gradient engines run: the transformed circuit's sampler and the
//!   DiffSampler baseline differ only in the circuit and the embedding,
//! * [`Backend`] — `Sequential` (the paper's CPU baseline) or `Threads(n)`
//!   (the [`htsat_runtime`] thread pool across the batch, standing in for
//!   the GPU),
//! * [`MemoryModel`] — the memory-usage model behind the paper's Fig. 3.
//!
//! # Example
//!
//! ```
//! use htsat_tensor::{FlatKernel, SoftCircuit, SoftGate};
//!
//! // A circuit computing `out = a AND b`, constrained to 1.
//! let mut circuit = SoftCircuit::new(2);
//! let a = circuit.input(0);
//! let b = circuit.input(1);
//! let g = circuit.gate(SoftGate::And, vec![a, b]);
//! circuit.constrain(g, 1.0);
//!
//! // The reference: loss and input gradient of one row of probabilities.
//! let mut grad = [0.0f32; 2];
//! let loss = circuit.loss_and_grad_single(&[0.9, 0.9], &mut grad);
//! assert!(loss < 0.05);
//!
//! // The fused kernel descends one row of logits towards `a = b = 1`.
//! let kernel = FlatKernel::compile(&circuit);
//! let mut workspace = kernel.workspace();
//! let mut logits = [0.0f32; 2];
//! for _ in 0..5 {
//!     kernel.fused_gd_step(&mut logits, 10.0, &mut workspace);
//! }
//! assert!(logits.iter().all(|&v| v > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod circuit;
mod flat;
mod matrix;
mod memory;
pub mod ops;

pub use backend::Backend;
pub use circuit::{NodeIdx, SoftCircuit, SoftGate, SoftNode};
pub use flat::{FlatKernel, Workspace, GROUP_ROWS, GROUP_WORDS, LANES};
pub use matrix::BatchMatrix;
pub use memory::MemoryModel;
