//! `mf-mpsoft`: an arbitrary-precision binary floating-point library built on
//! a limb-based big integer, in the style of GMP/MPFR (paper §2.2, "Software
//! FPU emulation").
//!
//! This crate plays three roles in the workspace:
//!
//! 1. **Baseline.** The paper compares its branch-free FPAN algorithms
//!    against GMP, MPFR, FLINT, and Boost.Multiprecision — all libraries
//!    that represent the mantissa as an array of machine words and therefore
//!    need data-dependent branching for alignment, normalization, and
//!    rounding after every operation. [`MpFloat`] implements exactly that
//!    mechanism (see `DESIGN.md`, substitution T4) with MPFR-style
//!    semantics: a fixed precision in bits chosen per value and correct
//!    round-to-nearest-even on every operation.
//!
//! 2. **Oracle.** Every `f64`/`f32` is a binary rational, so an [`MpFloat`]
//!    with enough precision computes sums and products of machine floats
//!    *exactly*. The whole workspace's accuracy test suites measure errors
//!    against this crate.
//!
//! 3. **Exact accumulator.** [`LongAccumulator`] sums `f64·f64` products
//!    into a fixed-point register that spans every product exponent, with
//!    no rounding, alignment or allocation per product, and builds one
//!    [`MpFloat`] at the end. It is the production exact rung of mf-blas's
//!    adaptive DOT/GEMV/AXPY and of mf-solve's exact residual;
//!    [`MpFloat::exact_dot`] stays as the oracle it is tested against.
//!
//! # Example
//!
//! ```
//! use mf_mpsoft::MpFloat;
//!
//! let a = MpFloat::from_f64(0.1, 212); // exact: 53 bits fit in 212
//! let b = MpFloat::from_f64(0.2, 212);
//! let c = a.add(&b, 212);
//! // 0.1 + 0.2 in 212-bit arithmetic is *not* 0.3 (the f64 constants carry
//! // their own representation error), but it is close:
//! let d = c.sub(&MpFloat::from_decimal_str("0.3", 212).unwrap(), 212);
//! assert!(d.abs().to_f64() < 1e-16);
//! ```

pub mod float;
pub mod functions;
pub mod limb;
pub mod long_acc;

pub use float::{MpFloat, Sign};
pub use long_acc::LongAccumulator;

#[cfg(test)]
mod tests;
