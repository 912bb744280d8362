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
//! * [`BatchMatrix`] — a dense row-major `[batch, width]` `f32` matrix,
//! * [`ops`] — the soft gate forward rules and their derivatives,
//! * [`SoftCircuit`] — a topologically ordered differentiable circuit with a
//!   reverse-mode gradient pass per batch element (the reference
//!   implementation),
//! * [`FlatKernel`] / [`Workspace`] — the same circuit compiled once into a
//!   CSR-style flat layout, executing the sampler's fused
//!   sigmoid + forward + backward + descent step on blocks of [`LANES`]
//!   rows (one lane per row) with zero allocations out of reusable
//!   per-worker workspaces,
//! * [`Backend`] — `Sequential` (the paper's CPU baseline) or `Threads(n)`
//!   (the [`htsat_runtime`] thread pool across the batch, standing in for
//!   the GPU),
//! * [`MemoryModel`] — the memory-usage model behind the paper's Fig. 3.
//!
//! # Example
//!
//! ```
//! use htsat_tensor::{Backend, BatchMatrix, SoftCircuit, SoftGate};
//!
//! // A circuit computing `out = a AND b`, constrained to 1.
//! let mut circuit = SoftCircuit::new(2);
//! let a = circuit.input(0);
//! let b = circuit.input(1);
//! let g = circuit.gate(SoftGate::And, vec![a, b]);
//! circuit.constrain(g, 1.0);
//!
//! let probs = BatchMatrix::filled(1, 2, 0.9);
//! let (loss, _grads) = circuit.loss_and_input_grads(&probs, Backend::Sequential);
//! assert!(loss < 0.05);
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
pub use flat::{FlatKernel, Workspace, LANES};
pub use matrix::BatchMatrix;
pub use memory::MemoryModel;
