//! `mf-solve`: dense direct solvers with mixed-precision iterative
//! refinement — the paper's §1 motivating scenario as a tested library
//! API (promoted from `examples/iterative_refinement.rs`).
//!
//! Condition numbers of 10^10–10^20 make a plain double-precision solution
//! meaningless, yet factorizing in extended precision throws away the
//! hardware's fast path. The classic mixed-precision pattern (Higham &
//! Mary 2022, cited throughout the paper's introduction) keeps the O(n³)
//! factorization in `f64` and spends extended precision only on the O(n²)
//! residual `r = b − A·x`; each refinement step then recovers roughly
//! `−log₂(cond(A)·ε)` bits until the extended residual's own precision
//! floors out. The residual is computed with the branch-free
//! `MultiFloat<f64, N>` arithmetic on the [`mf_blas::simd::dot_rows`] row
//! engine: each row is the same serial dot chain as
//! [`mf_blas::kernels::dot`], and eight rows run in lock-step across SIMD
//! lanes.
//!
//! Contents:
//!
//! * [`lu`] — `f64` LU with partial pivoting ([`lu::LuFactors`]), forward/
//!   back substitution, and the triangular solves they build on;
//! * [`refine`] — mixed-precision iterative refinement
//!   ([`refine::refine_lu`]) returning per-iteration residual norms, and
//!   its adaptive form ([`refine::refine_adaptive`]) whose residual
//!   precision climbs a ladder (`f64 → F64x2 → F64x3 → F64x4 → exact`)
//!   only when the correction norm stalls.
//!
//! Telemetry (feature-gated no-ops otherwise): the
//! `solve.refine.iterations` gauge holds the iteration count of the most
//! recent refinement, and each refinement pass runs under a
//! `solve.refine.step` span.

pub mod lu;
pub mod refine;

pub use lu::{lu_factor, LuFactors};
pub use refine::{
    refine_adaptive, refine_adaptive_with_factors, refine_lu, refine_with_factors,
    AdaptiveRefinement, RefineOptions, Refinement, ResidualRung,
};

/// Re-exported matrix type shared with the BLAS layer (`f64` instantiation
/// of the generic dense row-major matrix).
pub type MatrixF64 = mf_blas::Matrix<f64>;

/// Errors from the direct solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A zero (or non-finite) pivot: the matrix is singular to working
    /// precision at the reported elimination step.
    SingularPivot { step: usize, pivot: f64 },
    /// Shape mismatch between the operands.
    Shape(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::SingularPivot { step, pivot } => {
                write!(f, "singular pivot {pivot:e} at elimination step {step}")
            }
            SolveError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The `n x n` Hilbert matrix `H[i][j] = 1 / (i + j + 1)` — the standard
/// ill-conditioned test problem (condition number grows like `e^{3.5 n}`;
/// ~1e16 at n = 12).
pub fn hilbert(n: usize) -> MatrixF64 {
    MatrixF64::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64))
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Infinity norm of a matrix (max absolute row sum).
pub fn matrix_norm_inf(a: &MatrixF64) -> f64 {
    (0..a.rows)
        .map(|i| a.row(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_shape_and_entries() {
        let h = hilbert(4);
        assert_eq!((h.rows, h.cols), (4, 4));
        assert_eq!(h.at(0, 0), 1.0);
        assert_eq!(h.at(1, 2), 0.25);
        assert_eq!(h.at(3, 3), 1.0 / 7.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[1.0, -3.5, 2.0]), 3.5);
        assert_eq!(norm_inf(&[]), 0.0);
        let a = MatrixF64::from_fn(2, 2, |i, j| if i == 0 { 1.0 } else { -(j as f64) - 1.0 });
        assert_eq!(matrix_norm_inf(&a), 3.0);
    }
}
