//! `mf-core`: branch-free extended-precision floating-point arithmetic on
//! floating-point expansions — the paper's primary contribution.
//!
//! [`MultiFloat<T, N>`] represents a high-precision number as an
//! **unevaluated sum** of `N` machine-precision values (`N = 1..=4`),
//! maintained *nonoverlapping* (paper Eq. 8): `|c[i]| <= ulp(c[i-1]) / 2`.
//! On an `f64` base this provides roughly quadruple (N=2, 103-bit), sextuple
//! (N=3, 156-bit), and octuple (N=4, 208-bit) precision; on an `f32` base it
//! extends single-precision hardware the same way (the paper's GPU
//! configuration, Figure 11).
//!
//! Every arithmetic operation is a **fixed, branch-free sequence** of
//! machine additions, [`mf_eft::two_sum`] / [`mf_eft::fast_two_sum`] /
//! [`mf_eft::two_prod`] gates — a *floating-point accumulation network*
//! (FPAN, paper §3). There are no data-dependent branches and no heap
//! allocation, which is what lets compilers vectorize these kernels across
//! array elements (see `mf-blas`) and what makes them an order of magnitude
//! faster than big-integer-based multiprecision libraries.
//!
//! # Quick start
//!
//! ```
//! use mf_core::F64x2; // ~32 significant decimal digits
//!
//! let a = F64x2::from(1.0) / F64x2::from(3.0);
//! let b = a * F64x2::from(3.0);
//! let err = (b - F64x2::ONE).abs();
//! assert!(err.to_f64() < 1e-31);
//! ```
//!
//! # Operation inventory (paper §4)
//!
//! | Operation | Algorithm | Where |
//! |-----------|-----------|-------|
//! | `+`, `-`  | addition FPANs (pairing layer → error absorption → renormalization) | [`addition`] |
//! | `*`       | pruned `TwoProd` expansion + commutative accumulation FPAN | [`multiplication`] |
//! | `/`, `recip` | division-free Newton–Raphson, optional Karp–Markstein fusion | [`division`] |
//! | `sqrt`, `rsqrt` | Newton–Raphson on 1/√a | [`sqrt`] |
//! | `exp`, `ln`, `powi`, … | extensions built on the above | [`math`] |
//!
//! # Semantics of special values
//!
//! Exactly as the paper's §4.4: `-0.0` is not distinguished from `+0.0`,
//! `±Inf` collapses to NaN through the error-free transformations, and the
//! usable magnitude range is that of the base type (no extended exponent
//! range). NaNs propagate.

pub mod adaptive;
pub mod addition;
pub mod audit_hook;
pub mod cmp;
pub mod complex;
pub mod consts;
pub mod convert;
pub mod division;
pub mod guard;
pub mod math;
pub mod multiplication;
pub mod nets;
pub mod ops;
pub mod renorm;
pub mod renorm_probes;
pub mod rounding;
pub mod sqrt;
pub mod trig;

pub use adaptive::{EscalationPolicy, Rung};
pub use guard::{GuardFlags, GuardPath, GuardPolicy, Guarded};
pub use mf_eft::FloatBase;

impl<T: FloatBase, const N: usize> Default for MultiFloat<T, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

/// An extended-precision number: the unevaluated, nonoverlapping sum of `N`
/// base-precision components, most significant first.
///
/// `N` must be between 1 and 4; `MultiFloat<T, 1>` behaves as a transparent
/// wrapper over `T` (the paper's `MultiFloat<T, 1>` alias).
#[derive(Clone, Copy, Debug)]
pub struct MultiFloat<T: FloatBase, const N: usize> {
    /// Components, `c[0]` largest. Public to the crate; external users go
    /// through [`Self::components`] / [`Self::from_components_renorm`].
    pub(crate) c: [T; N],
}

/// Double-word `f64` expansion: ~106-bit significand (quadruple precision).
pub type F64x2 = MultiFloat<f64, 2>;
/// Triple-word `f64` expansion: ~159-bit significand (sextuple precision).
pub type F64x3 = MultiFloat<f64, 3>;
/// Quadruple-word `f64` expansion: ~212-bit significand (octuple precision).
pub type F64x4 = MultiFloat<f64, 4>;
/// Double-word `f32` expansion (the GPU substitution base type).
pub type F32x2 = MultiFloat<f32, 2>;
/// Triple-word `f32` expansion.
pub type F32x3 = MultiFloat<f32, 3>;
/// Quadruple-word `f32` expansion.
pub type F32x4 = MultiFloat<f32, 4>;

impl<T: FloatBase, const N: usize> MultiFloat<T, N> {
    const CHECK: () = assert!(N >= 1 && N <= 4, "MultiFloat supports N in 1..=4");

    /// Zero.
    pub const ZERO: Self = {
        #[allow(clippy::let_unit_value)]
        let _ = Self::CHECK;
        MultiFloat { c: [T::ZERO; N] }
    };

    /// One.
    pub const ONE: Self = {
        let mut c = [T::ZERO; N];
        c[0] = T::ONE;
        MultiFloat { c }
    };

    /// Construct from raw components **that are already nonoverlapping**
    /// (checked in debug builds). Use [`Self::from_components_renorm`] for
    /// arbitrary component values.
    pub fn from_components(c: [T; N]) -> Self {
        let out = MultiFloat { c };
        debug_assert!(
            out.is_nonoverlapping() || !out.is_finite(),
            "components are overlapping; use from_components_renorm"
        );
        out
    }

    /// Construct from arbitrary components, renormalizing them into a valid
    /// nonoverlapping expansion of their exact sum (up to `N`-term
    /// truncation error).
    pub fn from_components_renorm(c: [T; N]) -> Self {
        MultiFloat {
            c: renorm::renorm(c),
        }
    }

    /// The raw components, most significant first.
    pub fn components(&self) -> [T; N] {
        self.c
    }

    /// Most significant component (a base-precision approximation of the
    /// full value, correct to within half an ulp for valid expansions).
    pub fn hi(&self) -> T {
        self.c[0]
    }

    /// Lift a base value exactly.
    pub fn from_scalar(x: T) -> Self {
        let mut c = [T::ZERO; N];
        c[0] = x;
        MultiFloat { c }
    }

    /// Round to the base type (sums components from least significant).
    pub fn to_scalar(&self) -> T {
        // For a valid nonoverlapping expansion each tail term is below half
        // an ulp of the head, but summing low-to-high resolves the cases
        // where the tail nudges a rounding decision.
        let mut acc = T::ZERO;
        for i in (0..N).rev() {
            acc = acc + self.c[i];
        }
        acc
    }

    /// Round to `f64` (through the base type).
    pub fn to_f64(&self) -> f64 {
        // Sum in f64 from least significant for the f32-based variants.
        let mut acc = 0.0f64;
        for i in (0..N).rev() {
            acc += self.c[i].to_f64();
        }
        acc
    }

    /// True if any component is NaN.
    pub fn is_nan(&self) -> bool {
        self.c.iter().any(|x| x.is_nan())
    }

    /// True if all components are finite.
    pub fn is_finite(&self) -> bool {
        self.c.iter().all(|x| x.is_finite())
    }

    /// True if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        // For a valid expansion, zero head implies zero tail.
        self.c[0].is_zero()
    }

    /// True if the value is negative (sign of the leading component).
    pub fn is_negative(&self) -> bool {
        self.c[0] < T::ZERO
    }

    /// Check the nonoverlapping invariant (paper Eq. 8):
    /// `|c[i]| <= ulp(c[i-1]) / 2`, with zero components only followed by
    /// zeros being the canonical form (trailing zeros are permitted after
    /// any component).
    pub fn is_nonoverlapping(&self) -> bool {
        for i in 1..N {
            if self.c[i].is_zero() {
                continue;
            }
            if self.c[i - 1].is_zero() {
                return false; // nonzero term after a zero term
            }
            if self.c[i].abs() > self.c[i - 1].ulp() * T::HALF {
                return false;
            }
        }
        true
    }

    /// Negation (exact: negates every component).
    pub fn neg(&self) -> Self {
        let mut c = self.c;
        for x in &mut c {
            *x = -*x;
        }
        MultiFloat { c }
    }

    /// Absolute value (exact).
    pub fn abs(&self) -> Self {
        if self.is_negative() {
            self.neg()
        } else {
            *self
        }
    }

    /// Exact multiplication by a power of two of the base radix (scales each
    /// component; exact as long as no component over/underflows).
    pub fn scale_exp2(&self, e: i32) -> Self {
        let f = T::exp2i(e);
        let mut c = self.c;
        for x in &mut c {
            *x = *x * f;
        }
        MultiFloat { c }
    }

    /// Effective precision in bits of this format: `N*p + N - 1` (paper
    /// Eq. 7): 53→53, 2→107 usable (reported as 103 with error margins),
    /// etc. This is the *representation* precision; guaranteed operation
    /// accuracy is slightly lower (see the per-operation error bounds).
    pub const fn representation_precision_bits() -> u32 {
        N as u32 * T::PRECISION + N as u32 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(F64x2::ZERO.is_zero());
        assert_eq!(F64x4::ONE.to_f64(), 1.0);
        assert!(F64x3::ZERO.is_nonoverlapping());
        assert!(F64x3::ONE.is_nonoverlapping());
    }

    #[test]
    fn from_scalar_roundtrip() {
        for x in [0.0, 1.5, -2.25e10, 1e-300] {
            assert_eq!(F64x3::from_scalar(x).to_f64(), x);
        }
    }

    #[test]
    fn nonoverlap_checker() {
        // 1 + eps/2 overlaps? c1 = 2^-53 = ulp(1)/2: allowed (boundary).
        let ok = F64x2::from_components([1.0, 2.0f64.powi(-53)]);
        assert!(ok.is_nonoverlapping());
        let bad = MultiFloat::<f64, 2> {
            c: [1.0, 2.0f64.powi(-52)],
        };
        assert!(!bad.is_nonoverlapping());
        let bad2 = MultiFloat::<f64, 2> { c: [0.0, 1.0] };
        assert!(!bad2.is_nonoverlapping());
    }

    #[test]
    fn neg_abs() {
        let x = F64x2::from_components([-3.0, 2.0f64.powi(-55)]);
        assert!(x.is_negative());
        assert!(!x.abs().is_negative());
        assert_eq!(x.neg().hi(), 3.0);
    }

    #[test]
    fn scale_exp2_exact() {
        let x = F64x2::from_components([3.0, 2.0f64.powi(-52)]);
        let y = x.scale_exp2(10);
        assert_eq!(y.hi(), 3.0 * 1024.0);
        assert_eq!(y.components()[1], 2.0f64.powi(-42));
        let z = y.scale_exp2(-10);
        assert_eq!(z.components(), x.components());
    }

    #[test]
    fn representation_precision() {
        assert_eq!(F64x2::representation_precision_bits(), 107);
        assert_eq!(F64x3::representation_precision_bits(), 161);
        assert_eq!(F64x4::representation_precision_bits(), 215);
        assert_eq!(F32x4::representation_precision_bits(), 99);
    }

    #[test]
    fn nan_propagation() {
        let x = F64x2::from_scalar(f64::NAN);
        assert!(x.is_nan());
        assert!(!x.is_finite());
    }
}
