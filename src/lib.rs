//! **multifloats** — high-performance branch-free extended-precision
//! floating-point arithmetic.
//!
//! A Rust reproduction of Zhang & Aiken, *"High-Performance Branch-Free
//! Algorithms for Extended-Precision Floating-Point Arithmetic"* (SC '25).
//! This facade re-exports the workspace crates under one roof; see
//! `README.md` for the architecture and `DESIGN.md` for the experiment map.
//!
//! ```
//! use multifloats::F64x4; // ~64 decimal digits
//!
//! let third = F64x4::ONE / F64x4::from(3.0);
//! assert!((third * F64x4::from(3.0) - F64x4::ONE).abs().to_f64() < 1e-62);
//!
//! // Constants at full precision, correct decimal I/O:
//! let pi = F64x4::pi();
//! assert!(pi.to_decimal_string(50).starts_with("3.141592653589793238462643383279502884197169399375"));
//! ```
//!
//! # Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`MultiFloat`], [`F64x2`]… | `mf-core` | the branch-free expansion arithmetic (the paper's contribution) |
//! | [`eft`] | `mf-eft` | error-free transformations and the [`FloatBase`] abstraction |
//! | [`fpan`] | `mf-fpan` | accumulation networks: executor, verifier, annealing search |
//! | [`softfloat`] | `mf-softfloat` | bit-exact soft float for small-precision verification |
//! | [`mpsoft`] | `mf-mpsoft` | limb-based arbitrary precision: baseline and exact oracle |
//! | [`baselines`] | `mf-baselines` | QD and CAMPARY ports |
//! | [`blas`] | `mf-blas` | extended-precision AXPY/DOT/GEMV/GEMM (AoS, SoA, parallel, tiled) |
//! | [`solve`] | `mf-solve` | f64 LU/QR + mixed-precision iterative refinement |

pub use mf_core::{Adaptive, AdaptiveStats, EscalationPolicy, Evaluated, Rung};
pub use mf_core::{F32x2, F32x3, F32x4, F64x2, F64x3, F64x4, FloatBase, MultiFloat};
pub use mf_core::{GuardFlags, GuardPath, GuardPolicy, Guarded};

pub use mf_baselines as baselines;
pub use mf_blas as blas;
pub use mf_core as core_crate;
pub use mf_eft as eft;
pub use mf_fpan as fpan;
pub use mf_mpsoft as mpsoft;
pub use mf_softfloat as softfloat;
pub use mf_solve as solve;

pub use mf_mpsoft::MpFloat;
pub use mf_softfloat::SoftFloat;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
