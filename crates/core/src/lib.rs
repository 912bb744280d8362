//! # htsat-core
//!
//! The primary contribution of *High-Throughput SAT Sampling* (DATE 2025):
//! a CNF-to-circuit transformation paired with gradient-based, batch-parallel
//! sampling of satisfying assignments.
//!
//! The pipeline has three stages, each exposed as a module:
//!
//! 1. [`mod@transform`] — Algorithm 1 of the paper: the flat CNF is rewritten
//!    into an equisatisfiable multi-level, multi-output Boolean function
//!    ([`htsat_logic::Netlist`]). Sub-clause groups are recognised as the
//!    Tseitin encoding of a Boolean sub-expression by deriving the candidate
//!    output's on-set and off-set expressions and checking that they are
//!    complementary; variables are classified as primary inputs, intermediate
//!    variables and primary outputs.
//! 2. [`compile`] — the netlist is lowered to a differentiable
//!    [`htsat_tensor::SoftCircuit`] in which every gate follows the
//!    probabilistic semantics of the paper's Table I.
//! 3. [`sampler`] — a batch of input logits is pushed through a sigmoid
//!    embedding, the ℓ2 loss against the constrained outputs is minimised
//!    with gradient descent (learning rate 10, five iterations by default),
//!    hardened assignments are validated against the *original* CNF and the
//!    unique valid ones are served as samples — lazily through
//!    [`GdSampler::stream`] (an `Iterator` with cancellation and deadlines,
//!    built on [`htsat_runtime::SampleStream`]) or collected by the blocking
//!    [`GdSampler::sample`] wrapper.
//!
//! The crate additionally defines the workspace-wide [`mod@engine`]
//! abstraction ([`SampleEngine`]: *prepare once → mint cheap per-request
//! sessions → stream solutions*) that this sampler and every baseline
//! implement, so servers and benchmarks drive heterogeneous samplers
//! through one contract; [`PreparedFormula`] is the `"gd"` engine.
//!
//! # Example
//!
//! ```
//! use htsat_cnf::Cnf;
//! use htsat_core::{GdSampler, SamplerConfig};
//!
//! // x3 = x1 AND x2, constrained to 1 (so x1 = x2 = 1, x3 = 1).
//! let mut cnf = Cnf::new(3);
//! cnf.add_dimacs_clause([-1, -2, 3]);
//! cnf.add_dimacs_clause([1, -3]);
//! cnf.add_dimacs_clause([2, -3]);
//! cnf.add_dimacs_clause([3]);
//!
//! let mut sampler = GdSampler::new(&cnf, SamplerConfig::default())?;
//! let report = sampler.sample(1, std::time::Duration::from_secs(5));
//! assert!(!report.solutions.is_empty());
//! for solution in &report.solutions {
//!     assert!(cnf.is_satisfied_by_bits(solution));
//! }
//! # Ok::<(), htsat_core::TransformError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod diversity;
pub mod engine;
mod error;
pub mod sampler;
pub mod signature;
pub mod transform;

pub use engine::{BoxedSession, EngineStream, SampleEngine, SessionConfig};
pub use error::TransformError;
pub use htsat_runtime::{SampleStream, StopToken, StreamStats};
pub use sampler::{GdSampler, PreparedFormula, SampleReport, SamplerConfig};
pub use transform::{transform, TransformConfig, TransformResult, TransformStats, VarClass};
