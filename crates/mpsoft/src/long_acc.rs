//! [`LongAccumulator`]: a Kulisch-style fixed-point accumulator that sums
//! `f64·f64` products exactly and rounds once, at the end.
//!
//! [`MpFloat::exact_dot`] reaches the same exact value through one
//! realigning, heap-allocating `MpFloat::add` per product — the per-operation
//! alignment, normalization and allocation the paper (§2.2) charges
//! limb-based floats with. Every `f64·f64` product, however, is an integer
//! of at most 106 bits times a power of two between `2^-2148`
//! (subnormal·subnormal) and `2^1942`, so one fixed-point register wide
//! enough for that whole range holds any sum of products without rounding.
//! Adding a product is then a 128-bit multiply and a three-limb add (or
//! subtract) with a carry (or borrow) ripple: no alignment decision, no
//! normalization, no allocation. [`LongAccumulator::to_mp`] builds a single
//! [`MpFloat`] from the register, and the caller rounds that once, with the
//! crate's own rounding rules (`to_f64`, or `MultiFloat::from_mp` in
//! mf-core), so the accumulator carries no second copy of them.
//!
//! The register is 68 little-endian `u64` limbs in two's complement,
//! bit 0 worth `2^-2148`. The largest product (`f64::MAX²` < `2^2048`) ends
//! at bit 4196, leaving 156 bits of headroom below the sign bit: more than
//! `2^150` products of any magnitude can be summed before the register
//! could wrap.

use crate::float::{MpFloat, Sign};

/// Limbs in the register: 4352 bits, bit 0 worth `2^-2148`.
const LIMBS: usize = 68;

/// Exponent of the register's bit 0: the lsb of subnormal·subnormal.
const LSB_EXP: i64 = -2148;

/// Exact fixed-point sum of `f64·f64` products. See the module docs.
#[derive(Debug)]
pub struct LongAccumulator {
    limbs: [u64; LIMBS],
}

impl Default for LongAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// `|x|` as `(m, k)` with `|x| = m · 2^k`, `m < 2^53`.
#[inline(always)]
fn split(x: f64) -> (u64, i64) {
    let bits = x.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1 << 52) - 1);
    if raw_exp == 0 {
        (frac, -1074)
    } else {
        (frac | (1 << 52), raw_exp - 1075)
    }
}

impl LongAccumulator {
    /// An accumulator holding zero.
    pub fn new() -> Self {
        LongAccumulator { limbs: [0; LIMBS] }
    }

    /// Add the exact product `x · y`. Panics on NaN or infinity, as
    /// [`MpFloat::exact_dot`] does (neither has an exact value).
    #[inline]
    pub fn add_product(&mut self, x: f64, y: f64) {
        assert!(
            x.is_finite() && y.is_finite(),
            "LongAccumulator::add_product({x}, {y})"
        );
        let (mx, kx) = split(x);
        let (my, ky) = split(y);
        let p = u128::from(mx) * u128::from(my);
        if p == 0 {
            return;
        }
        // p < 2^106 lands at bit `off` ≤ 4090: three limbs from `i` hold it
        // (i + 2 ≤ 65).
        let off = (kx + ky - LSB_EXP) as usize;
        let (i, s) = (off / 64, off % 64);
        let shifted = p << s; // keeps the low 128 bits of p·2^s
        let w = [
            shifted as u64,
            (shifted >> 64) as u64,
            if s == 0 { 0 } else { (p >> (128 - s)) as u64 },
        ];
        if x.is_sign_negative() != y.is_sign_negative() {
            self.sub_at(i, w);
        } else {
            self.add_at(i, w);
        }
    }

    #[inline(always)]
    fn add_at(&mut self, i: usize, w: [u64; 3]) {
        let mut carry = false;
        for (limb, wj) in self.limbs[i..i + 3].iter_mut().zip(w) {
            let (s1, c1) = limb.overflowing_add(wj);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *limb = s2;
            carry = c1 | c2;
        }
        let mut j = i + 3;
        while carry && j < LIMBS {
            let (s, c) = self.limbs[j].overflowing_add(1);
            self.limbs[j] = s;
            carry = c;
            j += 1;
        }
    }

    #[inline(always)]
    fn sub_at(&mut self, i: usize, w: [u64; 3]) {
        let mut borrow = false;
        for (limb, wj) in self.limbs[i..i + 3].iter_mut().zip(w) {
            let (d1, b1) = limb.overflowing_sub(wj);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *limb = d2;
            borrow = b1 | b2;
        }
        let mut j = i + 3;
        while borrow && j < LIMBS {
            let (d, b) = self.limbs[j].overflowing_sub(1);
            self.limbs[j] = d;
            borrow = b;
            j += 1;
        }
    }

    /// The exact sum as one [`MpFloat`] whose precision is the value's own
    /// significant span (top set bit to lowest set bit), so building it
    /// never rounds. A zero sum is `MpFloat::zero` (+0: the register keeps
    /// no sign of zero).
    pub fn to_mp(&self) -> MpFloat {
        let mut mag = self.limbs;
        let negative = mag[LIMBS - 1] >> 63 == 1;
        if negative {
            // Two's-complement negation: invert, then add one.
            let mut carry = true;
            for limb in mag.iter_mut() {
                let (s, c) = (!*limb).overflowing_add(u64::from(carry));
                *limb = s;
                carry = c;
            }
        }
        let Some(hi) = mag.iter().rposition(|&l| l != 0) else {
            return MpFloat::zero(2);
        };
        let lo = mag.iter().position(|&l| l != 0).unwrap_or(hi);
        let top = 64 * hi + 64 - mag[hi].leading_zeros() as usize;
        let bottom = 64 * lo + mag[lo].trailing_zeros() as usize;
        let span = (top - bottom) as u32;
        let sign = if negative { Sign::Neg } else { Sign::Pos };
        MpFloat::from_int_scaled(
            sign,
            mag[lo..=hi].to_vec(),
            LSB_EXP + 64 * lo as i64,
            span.max(2),
            false,
        )
    }
}
