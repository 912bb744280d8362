//! # htsat-cnf
//!
//! Conjunctive normal form (CNF) substrate for the high-throughput SAT
//! sampling library.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace:
//!
//! * [`Var`] and [`Lit`] — variables and literals with a compact integer
//!   encoding,
//! * [`Clause`] — a disjunction of literals,
//! * [`Cnf`] — a conjunction of clauses together with the declared variable
//!   count,
//! * [`Assignment`] — a (possibly partial) mapping from variables to truth
//!   values,
//! * [`Solution`] — a complete assignment packed one bit per variable, the
//!   form every sampler emits,
//! * [`Fingerprint`] — a canonical content hash stable under clause and
//!   literal reordering, the registry key of the serving layer,
//! * DIMACS parsing and writing ([`dimacs`]),
//! * unit propagation and formula simplification ([`propagate`]),
//! * bit-wise operation counting in 2-input gate equivalents ([`ops`]), used
//!   by the paper's Fig. 4 "ops reduction" ablation.
//!
//! # Example
//!
//! ```
//! use htsat_cnf::{Cnf, Lit};
//!
//! // (x1 ∨ ¬x2) ∧ (x2)
//! let mut cnf = Cnf::new(2);
//! cnf.add_clause([Lit::pos(1), Lit::neg(2)]);
//! cnf.add_clause([Lit::pos(2)]);
//!
//! let model = [true, true];
//! assert!(cnf.is_satisfied_by_bits(&model));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod clause;
pub mod dimacs;
mod error;
mod fingerprint;
mod formula;
mod lit;
pub mod ops;
pub mod propagate;
mod solution;

pub use assignment::Assignment;
pub use clause::Clause;
pub use error::ParseDimacsError;
pub use fingerprint::{Fingerprint, ParseFingerprintError};
pub use formula::Cnf;
pub use lit::{Lit, Var};
pub use solution::{transpose_block, Solution, WORD_BITS};
