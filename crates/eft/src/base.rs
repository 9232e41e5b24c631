//! The [`FloatBase`] trait: the machine floating-point format that expansions
//! are built from.
//!
//! Mirrors the paper's `MultiFloat<T, N>` parameter `T` (§5): the arithmetic
//! algorithms never inspect bit patterns, so any type providing correctly
//! rounded (RNE) `+ - * /`, `sqrt`, and a fused multiply-add can serve as the
//! base. The workspace provides three implementations:
//!
//! * `f64` — the configuration used for the paper's CPU tables,
//! * `f32` — the GPU-substitution configuration (paper Figure 11 uses
//!   `T = float` because RDNA3 lacks double-precision units),
//! * `SoftFloat<P>` (in `mf-softfloat`) — a bit-exact software float with a
//!   parameterizable precision, used by the FPAN verifier.

use core::fmt::{Debug, Display, LowerExp};
use core::ops::{Add, Div, Mul, Neg, Sub};

/// A machine floating-point format with correctly rounded (round-to-nearest,
/// ties-to-even) arithmetic and a fused multiply-add.
///
/// # Contract
///
/// Implementations must round every arithmetic result with IEEE 754
/// `roundTiesToEven`; the error-free transformations in [`crate::ops`] are
/// only exact under that rounding rule (paper §2.1). `mul_add` must perform a
/// *fused* multiply-add (a single rounding); an implementation that rounds
/// the product separately breaks [`crate::two_prod`].
pub trait FloatBase:
    Copy
    + Clone
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + LowerExp
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Precision `p` in bits, counting the implicit leading bit
    /// (53 for `f64`, 24 for `f32`).
    const PRECISION: u32;
    /// Minimum normalized base-2 exponent (`value >= 2^MIN_EXP` for
    /// normalized values); matches `f64::MIN_EXP - 1` convention where the
    /// smallest normalized value is `2^MIN_EXP`.
    const MIN_EXP: i32;
    /// Maximum base-2 exponent: the largest finite value is just below
    /// `2^(MAX_EXP + 1)`.
    const MAX_EXP: i32;

    const ZERO: Self;
    const ONE: Self;
    const NEG_ONE: Self;
    const HALF: Self;
    const TWO: Self;
    /// Machine epsilon `2^(1-p)` (distance from 1.0 to the next float up).
    const EPSILON: Self;
    const MAX: Self;
    const MIN_POSITIVE: Self;
    const INFINITY: Self;
    const NEG_INFINITY: Self;
    const NAN: Self;

    /// Fused multiply-add: `self * a + b` with a single rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Correctly rounded square root.
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn recip(self) -> Self;
    fn floor(self) -> Self;
    fn ceil(self) -> Self;
    /// Round half away from zero (like `f64::round`).
    fn round(self) -> Self;
    fn trunc(self) -> Self;

    fn is_nan(self) -> bool;
    fn is_infinite(self) -> bool;
    fn is_finite(self) -> bool;
    fn is_sign_negative(self) -> bool;
    /// True for `+0.0` and `-0.0`.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Unbiased base-2 exponent of a finite nonzero value: the unique `e`
    /// with `2^e <= |self| < 2^(e+1)`. Returns `MIN_EXP - PRECISION as i32`
    /// for zero (below every representable magnitude).
    fn exponent(self) -> i32;
    /// The precondition of `FastTwoSum(self, y)`: `self` or `y` is zero, or
    /// `exponent(self) >= exponent(y)`. Vector types check it lane by lane,
    /// since each lane is its own `FastTwoSum`.
    fn fast_two_sum_ok(self, y: Self) -> bool {
        self.is_zero() || y.is_zero() || self.exponent() >= y.exponent()
    }
    /// Unit in the last place of `self`: `2^(exponent(self) - p + 1)`.
    fn ulp(self) -> Self {
        if self.is_zero() {
            return Self::MIN_POSITIVE;
        }
        Self::exp2i(self.exponent() - (Self::PRECISION as i32) + 1)
    }
    /// Exact power of two `2^e` (must be within range).
    fn exp2i(e: i32) -> Self;

    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn from_i64(x: i64) -> Self {
        Self::from_f64(x as f64)
    }
    fn from_u64(x: u64) -> Self {
        Self::from_f64(x as f64)
    }
    fn from_i32(x: i32) -> Self {
        Self::from_f64(f64::from(x))
    }

    /// `copysign`: magnitude of `self`, sign of `sign`.
    fn copysign(self, sign: Self) -> Self;
    fn min(self, other: Self) -> Self;
    fn max(self, other: Self) -> Self;
}

macro_rules! impl_float_base {
    // $mant_bits: explicit mantissa bits (52 / 23); $bias: exponent bias;
    // $min_sub: exponent of the smallest subnormal (-1074 / -149).
    ($t:ty, $prec:expr, $min_exp:expr, $max_exp:expr, $bits:ty, $mant_bits:expr, $bias:expr, $min_sub:expr) => {
        impl FloatBase for $t {
            const PRECISION: u32 = $prec;
            const MIN_EXP: i32 = $min_exp;
            const MAX_EXP: i32 = $max_exp;

            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_ONE: Self = -1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const INFINITY: Self = <$t>::INFINITY;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const NAN: Self = <$t>::NAN;

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                <$t>::recip(self)
            }
            #[inline(always)]
            fn floor(self) -> Self {
                <$t>::floor(self)
            }
            #[inline(always)]
            fn ceil(self) -> Self {
                <$t>::ceil(self)
            }
            #[inline(always)]
            fn round(self) -> Self {
                <$t>::round(self)
            }
            #[inline(always)]
            fn trunc(self) -> Self {
                <$t>::trunc(self)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline(always)]
            fn is_infinite(self) -> bool {
                <$t>::is_infinite(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn is_sign_negative(self) -> bool {
                <$t>::is_sign_negative(self)
            }
            #[inline(always)]
            fn exponent(self) -> i32 {
                if self == 0.0 {
                    return Self::MIN_EXP - Self::PRECISION as i32;
                }
                let bits = self.abs().to_bits();
                let raw = (bits >> $mant_bits) as i32;
                if raw == 0 {
                    // Subnormal: exponent from the position of the top
                    // mantissa bit. bits == 1 corresponds to 2^$min_sub.
                    let top = (<$bits>::BITS - 1 - bits.leading_zeros()) as i32;
                    $min_sub + top
                } else {
                    raw - $bias
                }
            }
            #[inline(always)]
            fn exp2i(e: i32) -> Self {
                debug_assert!(
                    ($min_sub..=$max_exp).contains(&e),
                    "exp2i out of range: {}",
                    e
                );
                if e >= $min_exp {
                    <$t>::from_bits(((e + $bias) as $bits) << $mant_bits)
                } else {
                    <$t>::from_bits((1 as $bits) << (e - $min_sub))
                }
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn copysign(self, sign: Self) -> Self {
                <$t>::copysign(self, sign)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
        }
    };
}

impl_float_base!(f64, 53, -1022, 1023, u64, 52, 1023, -1074);
impl_float_base!(f32, 24, -126, 127, u32, 23, 127, -149);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_constants() {
        assert_eq!(f64::PRECISION, 53);
        assert_eq!(<f64 as FloatBase>::EPSILON, 2.0f64.powi(-52));
        assert_eq!(<f64 as FloatBase>::MIN_EXP, -1022);
        assert_eq!(<f64 as FloatBase>::MAX_EXP, 1023);
    }

    #[test]
    fn f32_constants() {
        assert_eq!(f32::PRECISION, 24);
        assert_eq!(<f32 as FloatBase>::EPSILON, 2.0f32.powi(-23));
    }

    #[test]
    fn exponent_normal_f64() {
        assert_eq!(FloatBase::exponent(1.0f64), 0);
        assert_eq!(FloatBase::exponent(1.5f64), 0);
        assert_eq!(FloatBase::exponent(2.0f64), 1);
        assert_eq!(FloatBase::exponent(0.75f64), -1);
        assert_eq!(FloatBase::exponent(-8.0f64), 3);
        assert_eq!(FloatBase::exponent(f64::MAX), 1023);
        assert_eq!(FloatBase::exponent(f64::MIN_POSITIVE), -1022);
    }

    #[test]
    fn exponent_subnormal_f64() {
        let sub = f64::from_bits(1); // 2^-1074
        assert_eq!(FloatBase::exponent(sub), -1074);
        let sub2 = f64::from_bits(1 << 51); // 2^-1023
        assert_eq!(FloatBase::exponent(sub2), -1023);
    }

    #[test]
    fn exponent_normal_f32() {
        assert_eq!(FloatBase::exponent(1.0f32), 0);
        assert_eq!(FloatBase::exponent(3.0f32), 1);
        assert_eq!(FloatBase::exponent(f32::MIN_POSITIVE), -126);
        assert_eq!(FloatBase::exponent(f32::from_bits(1)), -149);
    }

    #[test]
    fn exp2i_roundtrip_f64() {
        // powi is inexact deep in the subnormal range, so walk by exact
        // halving instead.
        let mut expect = 1.0f64;
        for e in (-1074..=0).rev() {
            assert_eq!(<f64 as FloatBase>::exp2i(e), expect, "e = {e}");
            assert_eq!(FloatBase::exponent(expect), e, "e = {e}");
            expect *= 0.5;
        }
        let mut expect = 1.0f64;
        for e in 0..=1023 {
            assert_eq!(<f64 as FloatBase>::exp2i(e), expect, "e = {e}");
            assert_eq!(FloatBase::exponent(expect), e, "e = {e}");
            expect *= 2.0;
        }
    }

    #[test]
    fn exp2i_roundtrip_f32() {
        let mut expect = 1.0f32;
        for e in (-149..=0).rev() {
            assert_eq!(<f32 as FloatBase>::exp2i(e), expect, "e = {e}");
            expect *= 0.5;
        }
        let mut expect = 1.0f32;
        for e in 0..=127 {
            assert_eq!(<f32 as FloatBase>::exp2i(e), expect, "e = {e}");
            expect *= 2.0;
        }
    }

    #[test]
    fn ulp_matches_definition_f64() {
        assert_eq!(FloatBase::ulp(1.0f64), f64::EPSILON);
        assert_eq!(FloatBase::ulp(2.0f64), 2.0 * f64::EPSILON);
        assert_eq!(FloatBase::ulp(1.5f64), f64::EPSILON);
        // ulp of zero is the smallest positive normalized value (convention).
        assert_eq!(FloatBase::ulp(0.0f64), f64::MIN_POSITIVE);
    }

    #[test]
    fn exponent_agrees_with_next_power_of_two() {
        let vals = [0.1, 0.5, 1.0, 1.999, 3.0, 1e10, 1e-10, 123456.789];
        for &v in &vals {
            let e = FloatBase::exponent(v);
            assert!(2.0f64.powi(e) <= v && v < 2.0f64.powi(e + 1), "v = {v}");
        }
    }
}
