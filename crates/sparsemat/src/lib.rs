//! # sparsemat — sparse matrix substrate for the SpTRSV reproduction
//!
//! This crate provides everything the solvers need from the sparse
//! linear-algebra world:
//!
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed sparse column/row
//!   storage with validated invariants (sorted indices, no duplicates).
//!   CSC is the solver-facing format, exactly as in the paper (§II-A).
//! * [`build::TripletBuilder`] — COO assembly with duplicate summing.
//! * [`levels`] — level-set analysis (Fig. 1b) and the paper's
//!   `dependency = nnz/rows` and `parallelism = rows/levels` metrics.
//! * [`io`] — Matrix Market reader/writer for real SuiteSparse inputs.
//! * [`factor`] — ILU(0) and triangular-part extraction, standing in
//!   for the paper's MA48 factorization step.
//! * [`fingerprint`] — content-addressed factor identity
//!   ([`FactorFingerprint`]: structural hash + value epoch), the
//!   routing key of the serving fleet's factor cache.
//! * [`gen`] — synthetic triangular-system generators with exact
//!   control over the level structure, dependency and locality.
//! * [`mod@corpus`] — the 16-matrix Table-I analog suite used by every
//!   experiment harness.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's pseudocode

pub mod build;
pub mod corpus;
pub mod csc;
pub mod csr;
pub mod error;
pub mod factor;
pub mod fingerprint;
pub mod gen;
pub mod io;
pub mod levels;
pub mod reorder;

pub use build::TripletBuilder;
pub use corpus::{corpus, spd_corpus, NamedMatrix, PaperStats, SpdMatrix};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::MatrixError;
pub use factor::{audit_factor, FactorAudit};
pub use fingerprint::FactorFingerprint;
pub use levels::{ChainPartition, LevelSets};
pub use reorder::Permutation;

/// Row/column index type. `u32` keeps hot arrays compact (see the Rust
/// Performance Book on smaller integers); matrices beyond 4G rows are
/// out of scope.
pub type Idx = u32;

/// Which triangle a triangular system refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Triangle {
    /// Lower triangular (`Lx = b`, forward substitution).
    Lower,
    /// Upper triangular (`Ux = b`, backward substitution).
    Upper,
}

impl Triangle {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Triangle::Lower => "lower",
            Triangle::Upper => "upper",
        }
    }
}
