//! Conversions between `MultiFloat`, machine types, decimal strings, and
//! the arbitrary-precision oracle type [`MpFloat`].
//!
//! Decimal parsing and formatting route through `mf-mpsoft`, which performs
//! the (inherently branchy, allocation-heavy) base conversion exactly; this
//! keeps the arithmetic kernels pure while making I/O correctly rounded.

use crate::{FloatBase, MultiFloat};
use core::fmt;
use core::str::FromStr;
use mf_mpsoft::MpFloat;

impl<T: FloatBase, const N: usize> MultiFloat<T, N> {
    /// Working precision (bits) used for I/O conversions of this format.
    fn io_prec() -> u32 {
        N as u32 * (T::PRECISION + 1) + 64
    }

    /// Exact conversion to an [`MpFloat`] carrying at least `prec` bits
    /// (the expansion's value is a sum of machine floats, hence exactly
    /// representable).
    pub fn to_mp(&self, prec: u32) -> MpFloat {
        let mut acc = MpFloat::zero(prec.max(Self::io_prec()));
        for i in (0..N).rev() {
            let term = MpFloat::from_f64(self.c[i].to_f64(), 53);
            acc = acc.add(&term, prec.max(Self::io_prec()));
        }
        acc
    }

    /// Correctly rounded conversion from an [`MpFloat`]: peels off one
    /// base-precision component at a time (paper Eq. 6). Values beyond the
    /// base type's range overflow to `±inf` (without this check the peeling
    /// loop would emit an overlapping `[MAX, MAX, ..]` expansion, because
    /// `MpFloat::to_f64` saturates at `MAX`).
    pub fn from_mp(mp: &MpFloat) -> Self {
        if let Some(e) = mp.exp2() {
            let max_e = T::MAX_EXP as i64 + 1; // MAX lives in [2^MAX_EXP, 2^(MAX_EXP+1))
            let overflows = e > max_e
                || (e == max_e && mp.round(T::PRECISION).exp2().unwrap_or(i64::MIN) > max_e);
            if overflows {
                return Self::from_scalar(if mp.is_negative() {
                    T::NEG_INFINITY
                } else {
                    T::INFINITY
                });
            }
        }
        // Work at the input's own precision when it exceeds io_prec:
        // rounding up front would truncate sparse expansions (e.g.
        // [1.0, 2^-216, 2^-286]) whose component span is wider than any
        // fixed working precision.
        let prec = Self::io_prec().max(mp.precision());
        let mut c = [T::ZERO; N];
        let mut rem = mp.round(prec);
        for slot in c.iter_mut() {
            // Round the remainder onto the base type's grid and subtract.
            let head = Self::round_to_base(&rem);
            *slot = T::from_f64(head);
            if head == 0.0 {
                break;
            }
            rem = rem.sub(&MpFloat::from_f64(slot.to_f64(), T::PRECISION), prec);
        }
        MultiFloat { c }
    }

    /// `v` rounded once, to nearest with ties to even, onto the base type's
    /// grid (returned as the `f64` holding it). Below `2^MIN_EXP` that grid
    /// has fewer than `T::PRECISION` bits, so rounding to `T::PRECISION`
    /// bits first and then onto the grid would round twice (`2^-1075 +
    /// 2^-1130` would become the tie `2^-1075` and then `0`, not
    /// `2^-1074`). `MpFloat::to_f64` rounds once onto the `f64` grid,
    /// subnormals included; a narrower base scales its subnormal range
    /// onto `f64`'s (exact power-of-two scalings) so that the one rounding
    /// lands on its own grid.
    fn round_to_base(v: &MpFloat) -> f64 {
        // log2 of the base's subnormal spacing over f64's 2^-1074.
        let shift = T::MIN_EXP - T::PRECISION as i32 + 1 + 1074;
        if shift == 0 {
            return v.to_f64();
        }
        match v.exp2() {
            Some(e) if e <= T::MIN_EXP as i64 => {
                let down = MpFloat::from_f64(2.0f64.powi(-shift), 2);
                v.mul(&down, v.precision()).to_f64() * 2.0f64.powi(shift)
            }
            _ => v.round(T::PRECISION).to_f64(),
        }
    }

    /// Parse a decimal string, correctly rounded to this format.
    ///
    /// Accepts the non-finite spellings `Display`/[`Self::to_decimal_string`]
    /// emit — `inf`, `infinity`, `nan` in any case, with an optional sign —
    /// so parse/print roundtrips through special values.
    pub fn parse_decimal(s: &str) -> Result<Self, String> {
        let t = s.trim();
        let (neg, rest) = match t.as_bytes().first() {
            Some(b'-') => (true, &t[1..]),
            Some(b'+') => (false, &t[1..]),
            _ => (false, t),
        };
        if rest.eq_ignore_ascii_case("inf") || rest.eq_ignore_ascii_case("infinity") {
            return Ok(Self::from_scalar(if neg {
                T::NEG_INFINITY
            } else {
                T::INFINITY
            }));
        }
        if rest.eq_ignore_ascii_case("nan") {
            return Ok(Self::from_scalar(T::NAN));
        }
        // Scale the working precision with the input length: a decimal
        // spelling exact in binary (e.g. one printed by to_decimal_string)
        // carries ~3.33 bits per digit, far more than io_prec for long
        // strings, and rounding it early would break print/parse
        // roundtrips of sparse expansions.
        let digits = t.bytes().filter(u8::is_ascii_digit).count() as u32;
        let prec = Self::io_prec().max(digits * 10 / 3 + 64);
        let mp = MpFloat::from_decimal_str(t, prec)?;
        Ok(Self::from_mp(&mp))
    }

    /// Format with `digits` significant decimal digits. NaN and infinite
    /// values format as `NaN` / `inf` / `-inf`.
    pub fn to_decimal_string(&self, digits: usize) -> String {
        if self.is_nan() {
            return "NaN".to_string();
        }
        if !self.is_finite() {
            return if self.is_negative() { "-inf" } else { "inf" }.to_string();
        }
        let mp = self.to_mp(Self::io_prec());
        if mp.is_zero() {
            return "0.0".to_string();
        }
        mp.to_decimal_string(digits)
    }

    /// Number of decimal digits this format can meaningfully carry.
    pub fn decimal_digits() -> usize {
        ((Self::representation_precision_bits() as f64) * core::f64::consts::LOG10_2).floor()
            as usize
    }
}

impl<T: FloatBase, const N: usize> From<f64> for MultiFloat<T, N> {
    /// Exact when the base type is `f64`; correctly rounded for `f32`.
    fn from(x: f64) -> Self {
        if T::PRECISION >= 53 {
            Self::from_scalar(T::from_f64(x))
        } else {
            // Peel components so e.g. MultiFloat<f32, 2> holds f64 values
            // beyond single precision exactly.
            let mut c = [T::ZERO; N];
            let mut rem = x;
            for slot in c.iter_mut() {
                *slot = T::from_f64(rem);
                rem -= slot.to_f64();
                if rem == 0.0 {
                    break;
                }
            }
            MultiFloat {
                c: crate::renorm::renorm(c),
            }
        }
    }
}

impl<T: FloatBase, const N: usize> From<f32> for MultiFloat<T, N> {
    fn from(x: f32) -> Self {
        Self::from(x as f64)
    }
}

impl<T: FloatBase, const N: usize> From<i32> for MultiFloat<T, N> {
    fn from(x: i32) -> Self {
        Self::from(f64::from(x))
    }
}

impl<T: FloatBase, const N: usize> From<u32> for MultiFloat<T, N> {
    fn from(x: u32) -> Self {
        Self::from(f64::from(x))
    }
}

impl<T: FloatBase, const N: usize> From<i64> for MultiFloat<T, N> {
    /// Exact for every `i64` as long as the format carries >= 64 bits
    /// (otherwise correctly rounded).
    fn from(x: i64) -> Self {
        let hi = x >> 32; // fits f64 exactly
        let lo = x - (hi << 32);
        let hi_mf = Self::from((hi as f64) * 4294967296.0);
        hi_mf.add_scalar(T::from_f64(lo as f64))
    }
}

impl<T: FloatBase, const N: usize> From<u64> for MultiFloat<T, N> {
    fn from(x: u64) -> Self {
        let hi = x >> 32;
        let lo = x & 0xffff_ffff;
        let hi_mf = Self::from((hi as f64) * 4294967296.0);
        hi_mf.add_scalar(T::from_f64(lo as f64))
    }
}

impl<T: FloatBase, const N: usize> FromStr for MultiFloat<T, N> {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse_decimal(s)
    }
}

impl<T: FloatBase, const N: usize> fmt::Display for MultiFloat<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nan() {
            return write!(f, "NaN");
        }
        if !self.is_finite() {
            return write!(f, "{}inf", if self.is_negative() { "-" } else { "" });
        }
        let digits = f.precision().unwrap_or_else(|| Self::decimal_digits());
        write!(f, "{}", self.to_decimal_string(digits.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{F32x2, F64x2, F64x3, F64x4};
    use mf_mpsoft::{MpFloat, Sign};

    #[test]
    fn parse_and_print_roundtrip() {
        let cases = [
            "3.14159265358979323846264338327950288419716939937510",
            "-1.4142135623730950488016887242096980785696718753769",
            "1e-40",
            "6.02214076e23",
            "0.1",
        ];
        for &s in &cases {
            let x: F64x4 = s.parse().unwrap();
            let printed = x.to_decimal_string(60);
            let back: F64x4 = printed.parse().unwrap();
            assert_eq!(x.components(), back.components(), "roundtrip {s}");
        }
    }

    #[test]
    fn parse_uses_full_precision() {
        // The first 32+ digits of pi need all of F64x2's precision.
        let pi: F64x2 = "3.14159265358979323846264338327950288".parse().unwrap();
        let c = pi.components();
        assert_eq!(c[0], core::f64::consts::PI);
        assert!(c[1] != 0.0, "second component must capture the residual");
        // Error vs the oracle below 2^-105.
        let exact =
            MpFloat::from_decimal_str("3.14159265358979323846264338327950288", 400).unwrap();
        assert!(pi.to_mp(400).rel_error_vs(&exact) < 2.0f64.powi(-105));
    }

    #[test]
    fn from_integers_exact() {
        let big: i64 = 0x7fff_ffff_ffff_fff3;
        let x = F64x2::from(big);
        let exact = MpFloat::from_i64(big, 80);
        assert!(x.to_mp(100) == exact, "i64 conversion must be exact");
        let u: u64 = u64::MAX - 7;
        let y = F64x2::from(u);
        let exact = MpFloat::from_u64(u, 80);
        assert!(y.to_mp(100) == exact);
        assert_eq!(F64x3::from(42i32).to_f64(), 42.0);
    }

    #[test]
    fn f32_base_holds_doubles() {
        let x = F32x2::from(1.0000001f64);
        // A single f32 can't hold 1.0000001 but two can get much closer.
        assert!((x.to_f64() - 1.0000001).abs() < 1e-10);
    }

    #[test]
    fn display_formats() {
        let x = F64x2::from(0.5);
        assert!(format!("{x}").starts_with("5.0"));
        assert!(format!("{x}").contains("e-1"));
        let nan = F64x2::from(f64::NAN);
        assert_eq!(format!("{nan}"), "NaN");
        let zero = F64x2::ZERO;
        assert_eq!(format!("{zero}"), "0.0");
        // Precision control.
        let pi: F64x3 = "3.14159265358979323846264338327950288".parse().unwrap();
        assert_eq!(format!("{pi:.5}"), "3.1416");
    }

    #[test]
    fn decimal_digit_capacity() {
        assert_eq!(F64x2::decimal_digits(), 32);
        assert_eq!(F64x4::decimal_digits(), 64);
    }

    #[test]
    fn non_finite_roundtrip() {
        for s in [
            "inf",
            "+inf",
            "-inf",
            "Infinity",
            "-INFINITY",
            "NaN",
            "nan",
            "-nan",
        ] {
            let x: F64x2 = s.parse().unwrap();
            let printed = format!("{x}");
            let back: F64x2 = printed.parse().unwrap();
            if x.is_nan() {
                assert!(back.is_nan(), "roundtrip {s}");
            } else {
                assert_eq!(x.to_f64(), back.to_f64(), "roundtrip {s}");
            }
        }
        assert_eq!("inf".parse::<F64x3>().unwrap().to_f64(), f64::INFINITY);
        assert_eq!("-inf".parse::<F64x3>().unwrap().to_f64(), f64::NEG_INFINITY);
        assert!("nan".parse::<F64x3>().unwrap().is_nan());
        // Still rejects non-numeric garbage.
        assert!("infx".parse::<F64x2>().is_err());
        assert!("".parse::<F64x2>().is_err());
    }

    #[test]
    fn parse_overflow_saturates_to_infinity() {
        // Out-of-range magnitudes must overflow to ±inf, not produce an
        // invalid [MAX, MAX, ..] expansion from the saturating peel loop.
        assert_eq!("1e999".parse::<F64x2>().unwrap().to_f64(), f64::INFINITY);
        assert_eq!(
            "-1e999".parse::<F64x4>().unwrap().to_f64(),
            f64::NEG_INFINITY
        );
        // Just inside the range stays finite.
        let big: F64x2 = "1.7e308".parse().unwrap();
        assert!(big.is_finite() && big.to_f64() > 1e308);
        // MAX itself parses back to MAX.
        let max_s = format!("{:e}", f64::MAX);
        let max: F64x2 = max_s.parse().unwrap();
        assert!(max.is_finite());
        assert_eq!(max.to_f64(), f64::MAX);
    }

    #[test]
    fn mp_roundtrip_preserves_sparse_expansions() {
        // The component span here (2^0 down to 2^-286) is wider than
        // io_prec; a fixed working precision would silently drop the last
        // component on the way back. Found by the conformance harness.
        let x = F64x4::from_components([
            -1.0,
            9.495567745759799e-66,              // 2^-216 region
            f64::from_bits(0x2e10000000000000), // 2^-286
            0.0,
        ]);
        let back = F64x4::from_mp(&x.to_mp(512));
        assert_eq!(back.components(), x.components());
    }

    /// A head in the subnormal range rounds once onto the subnormal grid:
    /// `2^-1075 + 2^-1130` is above the midpoint between 0 and `2^-1074`
    /// (rounding it to 53 bits first would give the tie `2^-1075`, which
    /// goes to even, 0). The same holds for the `f32` base at
    /// `2^-150 + 2^-200`.
    #[test]
    fn from_mp_rounds_subnormal_heads_once() {
        let p2 = |e: i64| MpFloat::from_int_scaled(Sign::Pos, vec![1], e, 2, false);
        let v = p2(-1075).add(&p2(-1130), 128);
        let tiny = f64::from_bits(1);
        assert_eq!(v.to_f64(), tiny);
        for got in [
            F64x2::from_mp(&v).components().to_vec(),
            F64x3::from_mp(&v).components().to_vec(),
            F64x4::from_mp(&v).components().to_vec(),
        ] {
            assert_eq!(got[0].to_bits(), tiny.to_bits(), "{got:?}");
            assert!(got[1..].iter().all(|&c| c == 0.0), "{got:?}");
        }
        // The exact tie still goes to even, and just below it to zero.
        assert_eq!(F64x2::from_mp(&p2(-1075)).components(), [0.0, 0.0]);
        let below = p2(-1075).sub(&p2(-1130), 128);
        assert_eq!(F64x2::from_mp(&below).components(), [0.0, 0.0]);
        // A normal head whose remainder lands in the subnormal range.
        let w = p2(-1000).add(&v, 256);
        let c = F64x2::from_mp(&w).components();
        assert_eq!(c, [2.0f64.powi(-1000), tiny]);

        let v32 = p2(-150).add(&p2(-200), 128);
        let got = F32x2::from_mp(&v32).components();
        assert_eq!(got[0].to_bits(), f32::from_bits(1).to_bits(), "{got:?}");
        assert_eq!(F32x2::from_mp(&p2(-150)).components(), [0.0, 0.0]);
        // An exactly representable subnormal tail passes unchanged.
        let n32 = p2(-100).add(&p2(-130), 128);
        assert_eq!(
            F32x2::from_mp(&n32).components(),
            [2.0f32.powi(-100), f32::from_bits(1 << 19)] // 2^-130
        );
    }

    #[test]
    fn from_mp_respects_rounding() {
        // A value needing more bits than the format: the expansion must be
        // the correctly rounded N-term representation.
        let mp =
            MpFloat::from_decimal_str("0.333333333333333333333333333333333333333", 500).unwrap();
        let x = F64x2::from_mp(&mp);
        let err = x.to_mp(500).rel_error_vs(&mp);
        assert!(err <= 2.0f64.powi(-106), "err 2^{:.1}", err.log2());
    }
}
