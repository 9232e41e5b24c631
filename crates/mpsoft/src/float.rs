//! [`MpFloat`]: an MPFR-style arbitrary-precision binary float.
//!
//! A nonzero value is `sign · M · 2^(exp - prec)` where the mantissa big
//! integer `M` has exactly `prec` significant bits (top bit set), i.e. the
//! value lies in `[2^(exp-1), 2^exp)`. Every operation takes the precision of
//! the *result* in bits and rounds once, to nearest with ties to even —
//! exactly the semantics of MPFR's `mpfr_add(rop, a, b, MPFR_RNDN)`.
//!
//! As the paper notes (§2.2), implementing a float on top of big integers
//! requires data-dependent branching for mantissa alignment, normalization,
//! and rounding after each operation; this file is where all of that
//! branching lives, and it is the mechanistic reason this baseline is slow
//! relative to the branch-free expansion arithmetic in `mf-core`.
//!
//! Special values: there is no NaN/Inf representation. Operations whose IEEE
//! result would be NaN or infinite (division by zero, sqrt of a negative)
//! panic. The workspace uses this type as a baseline and as an *exact
//! oracle*, both of which only ever see finite values.

use crate::limb;
use core::cmp::Ordering;
use std::fmt;

/// Sign of an [`MpFloat`]. Zero is represented as `Pos` with an empty
/// mantissa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    Neg,
    Pos,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Neg => Sign::Pos,
            Sign::Pos => Sign::Neg,
        }
    }
    fn to_f64(self) -> f64 {
        match self {
            Sign::Neg => -1.0,
            Sign::Pos => 1.0,
        }
    }
}

/// Arbitrary-precision binary floating-point number. See the module docs for
/// the representation invariant.
#[derive(Debug, Clone)]
pub struct MpFloat {
    sign: Sign,
    /// Value is in `[2^(exp-1), 2^exp)`; meaningless when zero.
    exp: i64,
    /// Little-endian limbs with exactly `prec` significant bits; empty = 0.
    mant: Vec<u64>,
    /// Precision in bits this value carries.
    prec: u32,
}

impl MpFloat {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Zero at the given precision.
    pub fn zero(prec: u32) -> Self {
        MpFloat {
            sign: Sign::Pos,
            exp: 0,
            mant: Vec::new(),
            prec,
        }
    }

    /// Build from an integer mantissa scaled by a power of two:
    /// value = `sign · limbs · 2^lsb_exp`, rounded (RNE) to `prec` bits.
    /// `extra_sticky` marks bits already known lost below `limbs`.
    pub fn from_int_scaled(
        sign: Sign,
        mut limbs: Vec<u64>,
        lsb_exp: i64,
        prec: u32,
        extra_sticky: bool,
    ) -> Self {
        assert!(prec >= 2, "precision must be at least 2 bits");
        limb::trim(&mut limbs);
        if limbs.is_empty() {
            // A pure sticky residue rounds to zero at any precision here;
            // RNE of a value strictly inside (0, 2^lsb) rounds toward the
            // nearer representable, which we cannot know — but this path is
            // only reached when the value itself is exactly zero.
            debug_assert!(!extra_sticky, "sticky residue with zero mantissa");
            return MpFloat::zero(prec);
        }
        let bits = limb::bit_len(&limbs);
        let target = prec as usize;
        if bits <= target {
            let shift = target - bits;
            let mant = limb::shl(&limbs, shift);
            return MpFloat {
                sign,
                exp: lsb_exp + bits as i64,
                mant,
                prec,
            };
        }
        // Round: keep the top `prec` bits; guard is the next bit; sticky is
        // anything strictly below the guard, plus `extra_sticky`.
        let drop = bits - target;
        let guard = limb::get_bit(&limbs, drop - 1);
        let sticky_below = extra_sticky || (drop >= 2 && limb::shr_sticky(&limbs, drop - 1).1);
        let (mut kept, _) = limb::shr_sticky(&limbs, drop);
        let lsb = limb::get_bit(&kept, 0);
        let round_up = guard && (sticky_below || lsb);
        let mut exp = lsb_exp + bits as i64;
        if round_up {
            kept = limb::add_small(&kept, 1);
            if limb::bit_len(&kept) > target {
                // Carry rippled all the way: mantissa became 2^prec.
                let (k2, _) = limb::shr_sticky(&kept, 1);
                kept = k2;
                exp += 1;
            }
        }
        MpFloat {
            sign,
            exp,
            mant: kept,
            prec,
        }
    }

    /// Exact conversion from `f64` if `prec >= 53`; correctly rounded
    /// otherwise. Panics on NaN or infinity.
    pub fn from_f64(x: f64, prec: u32) -> Self {
        assert!(x.is_finite(), "MpFloat::from_f64({x})");
        if x == 0.0 {
            return MpFloat::zero(prec);
        }
        let bits = x.abs().to_bits();
        let raw_exp = (bits >> 52) as i64;
        let (m, k) = if raw_exp == 0 {
            (bits & ((1 << 52) - 1), -1074i64)
        } else {
            (bits & ((1 << 52) - 1) | (1 << 52), raw_exp - 1075)
        };
        let sign = if x < 0.0 { Sign::Neg } else { Sign::Pos };
        MpFloat::from_int_scaled(sign, vec![m], k, prec, false)
    }

    /// From a signed integer, rounded to `prec` bits (exact if it fits).
    pub fn from_i64(x: i64, prec: u32) -> Self {
        if x == 0 {
            return MpFloat::zero(prec);
        }
        let sign = if x < 0 { Sign::Neg } else { Sign::Pos };
        MpFloat::from_int_scaled(sign, vec![x.unsigned_abs()], 0, prec, false)
    }

    pub fn from_u64(x: u64, prec: u32) -> Self {
        if x == 0 {
            return MpFloat::zero(prec);
        }
        MpFloat::from_int_scaled(Sign::Pos, vec![x], 0, prec, false)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn is_zero(&self) -> bool {
        self.mant.is_empty()
    }

    pub fn is_negative(&self) -> bool {
        !self.is_zero() && self.sign == Sign::Neg
    }

    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Precision in bits.
    pub fn precision(&self) -> u32 {
        self.prec
    }

    /// Base-2 exponent: value in `[2^(exp-1), 2^exp)`. None for zero.
    pub fn exp2(&self) -> Option<i64> {
        if self.is_zero() {
            None
        } else {
            Some(self.exp)
        }
    }

    /// Exponent of the least significant mantissa bit: the value is an exact
    /// integer multiple of `2^lsb_exp()`.
    fn lsb_exp(&self) -> i64 {
        self.exp - self.prec as i64
    }

    // ------------------------------------------------------------------
    // Sign / magnitude helpers
    // ------------------------------------------------------------------

    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        if !out.is_zero() {
            out.sign = out.sign.flip();
        }
        out
    }

    pub fn abs(&self) -> Self {
        let mut out = self.clone();
        out.sign = Sign::Pos;
        out
    }

    /// Total-order comparison (no NaN exists here).
    pub fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => return Ordering::Equal,
            (true, false) => {
                return if other.sign == Sign::Pos {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                return if self.sign == Sign::Pos {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            _ => {}
        }
        match (self.sign, other.sign) {
            (Sign::Pos, Sign::Neg) => Ordering::Greater,
            (Sign::Neg, Sign::Pos) => Ordering::Less,
            (Sign::Pos, Sign::Pos) => self.cmp_abs(other),
            (Sign::Neg, Sign::Neg) => other.cmp_abs(self),
        }
    }

    /// Compare |self| to |other|.
    pub fn cmp_abs(&self, other: &Self) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        if self.exp != other.exp {
            return self.exp.cmp(&other.exp);
        }
        // Align mantissas of possibly different precisions to a common lsb.
        let ka = self.lsb_exp();
        let kb = other.lsb_exp();
        if ka == kb {
            limb::cmp(&self.mant, &other.mant)
        } else if ka < kb {
            let b = limb::shl(&other.mant, (kb - ka) as usize);
            limb::cmp(&self.mant, &b)
        } else {
            let a = limb::shl(&self.mant, (ka - kb) as usize);
            limb::cmp(&a, &other.mant)
        }
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// `self + other`, rounded to `prec` bits.
    pub fn add(&self, other: &Self, prec: u32) -> Self {
        if self.is_zero() {
            return other.round(prec);
        }
        if other.is_zero() {
            return self.round(prec);
        }
        if self.sign == other.sign {
            self.add_abs(other, self.sign, prec)
        } else {
            match self.cmp_abs(other) {
                Ordering::Equal => MpFloat::zero(prec),
                Ordering::Greater => self.sub_abs(other, self.sign, prec),
                Ordering::Less => other.sub_abs(self, other.sign, prec),
            }
        }
    }

    /// `self - other`, rounded to `prec` bits.
    pub fn sub(&self, other: &Self, prec: u32) -> Self {
        self.add(&other.neg(), prec)
    }

    /// Re-round this value to a (usually lower) precision.
    pub fn round(&self, prec: u32) -> Self {
        if self.is_zero() {
            return MpFloat::zero(prec);
        }
        MpFloat::from_int_scaled(self.sign, self.mant.clone(), self.lsb_exp(), prec, false)
    }

    /// Magnitude addition: |self| + |other| with the given result sign.
    fn add_abs(&self, other: &Self, sign: Sign, prec: u32) -> Self {
        let (hi, lo) = if self.exp >= other.exp {
            (self, other)
        } else {
            (other, self)
        };
        // Fast path: `lo` is entirely below both the rounding point of the
        // result *and* the lowest significant bit of `hi` (if `hi` carries
        // more precision than the result, its own low bits reach below the
        // result's guard position, so the threshold must cover them too).
        let gap = hi.exp - lo.exp;
        if gap > (prec.max(hi.prec)) as i64 + 2 {
            // hi + tiny: round hi at prec with a sticky nudge.
            return MpFloat::from_int_scaled(
                sign,
                limb::shl(&hi.mant, 2), // two guard bits
                hi.lsb_exp() - 2,
                prec,
                true,
            );
        }
        let ka = hi.lsb_exp();
        let kb = lo.lsb_exp();
        let k = ka.min(kb);
        let a = limb::shl(&hi.mant, (ka - k) as usize);
        let b = limb::shl(&lo.mant, (kb - k) as usize);
        let sum = limb::add(&a, &b);
        MpFloat::from_int_scaled(sign, sum, k, prec, false)
    }

    /// Magnitude subtraction: |self| - |other| (requires |self| > |other|)
    /// with the given result sign.
    fn sub_abs(&self, other: &Self, sign: Sign, prec: u32) -> Self {
        let gap = self.exp - other.exp;
        if gap > (prec.max(self.prec)) as i64 + 2 {
            // Subtracting a tiny value: nudge down by one ulp-of-guard and
            // mark sticky so RNE resolves correctly. The guard position must
            // sit below the RESULT's rounding point, not just below our own
            // lsb — when `prec` exceeds `self.prec`, a nudge at `lsb - 2`
            // lands above the rounding point and is stored exactly as a
            // (huge) real error instead of a rounding hint.
            let bits = limb::bit_len(&self.mant) as i64;
            let extra = ((prec as i64 + 2) - bits).max(2) as usize;
            let shifted = limb::shl(&self.mant, extra);
            let nudged = limb::sub(&shifted, &[1]);
            return MpFloat::from_int_scaled(
                sign,
                nudged,
                self.lsb_exp() - extra as i64,
                prec,
                true,
            );
        }
        let ka = self.lsb_exp();
        let kb = other.lsb_exp();
        let k = ka.min(kb);
        let a = limb::shl(&self.mant, (ka - k) as usize);
        let b = limb::shl(&other.mant, (kb - k) as usize);
        let diff = limb::sub(&a, &b);
        MpFloat::from_int_scaled(sign, diff, k, prec, false)
    }

    /// `self * other`, rounded to `prec` bits.
    pub fn mul(&self, other: &Self, prec: u32) -> Self {
        if self.is_zero() || other.is_zero() {
            return MpFloat::zero(prec);
        }
        let sign = if self.sign == other.sign {
            Sign::Pos
        } else {
            Sign::Neg
        };
        let prod = limb::mul(&self.mant, &other.mant);
        MpFloat::from_int_scaled(sign, prod, self.lsb_exp() + other.lsb_exp(), prec, false)
    }

    /// `self / other`, rounded to `prec` bits. Panics if `other` is zero.
    pub fn div(&self, other: &Self, prec: u32) -> Self {
        assert!(!other.is_zero(), "MpFloat division by zero");
        if self.is_zero() {
            return MpFloat::zero(prec);
        }
        let sign = if self.sign == other.sign {
            Sign::Pos
        } else {
            Sign::Neg
        };
        let la = limb::bit_len(&self.mant) as i64;
        let lb = limb::bit_len(&other.mant) as i64;
        // Shift the numerator so the quotient has ~prec + 3 bits.
        let s = (prec as i64 + 3 + lb - la).max(0) as usize;
        let num = limb::shl(&self.mant, s);
        let (q, r) = limb::div_rem(&num, &other.mant);
        let sticky = !limb::is_zero(&r);
        let lsb = self.lsb_exp() - other.lsb_exp() - s as i64;
        MpFloat::from_int_scaled(sign, q, lsb, prec, sticky)
    }

    /// `sqrt(self)`, rounded to `prec` bits. Panics on negative input.
    pub fn sqrt(&self, prec: u32) -> Self {
        assert!(!self.is_negative(), "MpFloat sqrt of negative value");
        if self.is_zero() {
            return MpFloat::zero(prec);
        }
        let k = self.lsb_exp();
        // Radicand R = M << t with k - t even and enough bits that
        // isqrt(R) carries > prec + 2 significant bits.
        let lm = limb::bit_len(&self.mant) as i64;
        let mut t = (2 * (prec as i64 + 3) - lm).max(0);
        if (k - t) % 2 != 0 {
            t += 1;
        }
        let r = limb::shl(&self.mant, t as usize);
        let s = limb::isqrt(&r);
        let exact = limb::cmp(&limb::mul(&s, &s), &r) == Ordering::Equal;
        MpFloat::from_int_scaled(Sign::Pos, s, (k - t) / 2, prec, !exact)
    }

    // ------------------------------------------------------------------
    // Conversions out
    // ------------------------------------------------------------------

    /// Round to the nearest `f64` (ties to even). Values beyond the f64
    /// range saturate to ±MAX; results that land in the subnormal range
    /// are rounded once, onto the `2^-1074` grid (down to ±0).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if self.exp >= -1021 {
            let r = self.round(53);
            if r.exp > 1024 {
                return self.sign.to_f64() * f64::MAX;
            }
            // r.mant has exactly 53 bits; value = m * 2^(exp - 53).
            let m = r.mant[0];
            let e = (r.exp - 53) as i32;
            let v = if e >= -1021 {
                (m as f64) * 2.0f64.powi(e)
            } else {
                // powi saturates below 2^-1074; scale in two exact steps.
                (m as f64) * 2.0f64.powi(-500) * 2.0f64.powi(e + 500)
            };
            return self.sign.to_f64() * v;
        }
        // Subnormal-range result: fewer than 53 significand bits are
        // available on the 2^-1074 grid, so round ONCE at exactly that
        // precision. Rounding to 53 bits first and letting the scale
        // multiply round again would double-round, and a coarse cutoff
        // would flush representable values near 2^-1074 to zero.
        let bits = self.exp + 1074;
        if bits <= 0 {
            // v in [2^(exp-1), 2^exp) with exp <= -1074. Only exp == -1074
            // can reach the smallest subnormal: v > 2^-1075 rounds up,
            // the exact midpoint 2^-1075 ties to even (zero).
            let up = bits == 0 && !self.is_pow2();
            let mag = if up { f64::from_bits(1) } else { 0.0 };
            return self.sign.to_f64() * mag;
        }
        if bits == 1 {
            // v in [2^-1074, 2^-1073): candidates are those two endpoints,
            // midpoint 1.5 * 2^-1074. `round` needs >= 2 bits, so decide
            // from the second mantissa bit directly (a set bit means
            // v >= midpoint; the exact tie rounds to even, which is up).
            let second = (self.prec as usize) - 2;
            let up = self.mant[second / 64] >> (second % 64) & 1 == 1;
            let mag = f64::from_bits(if up { 2 } else { 1 });
            return self.sign.to_f64() * mag;
        }
        let r = self.round(bits as u32);
        // value = m * 2^(exp - bits); the scale is exact in two steps
        // because the product is representable (a multiple of 2^-1074).
        let m = r.mant[0];
        let e = (r.exp - bits) as i32;
        self.sign.to_f64() * (m as f64) * 2.0f64.powi(-500) * 2.0f64.powi(e + 500)
    }

    /// True when the mantissa is a power of two (only the top bit set),
    /// i.e. the value is exactly `±2^(exp-1)`.
    fn is_pow2(&self) -> bool {
        self.mant.iter().map(|l| l.count_ones()).sum::<u32>() == 1
    }

    // ------------------------------------------------------------------
    // Decimal I/O
    // ------------------------------------------------------------------

    /// Parse a decimal string `[-+]ddd[.ddd][eE[-+]ddd]`, rounded to `prec`
    /// bits.
    pub fn from_decimal_str(s: &str, prec: u32) -> Result<Self, String> {
        let s = s.trim();
        let (sign, rest) = match s.as_bytes().first() {
            Some(b'-') => (Sign::Neg, &s[1..]),
            Some(b'+') => (Sign::Pos, &s[1..]),
            _ => (Sign::Pos, s),
        };
        let (mant_str, exp10) = match rest.find(['e', 'E']) {
            Some(i) => {
                let e: i32 = rest[i + 1..]
                    .parse()
                    .map_err(|_| format!("bad exponent in {s:?}"))?;
                (&rest[..i], e)
            }
            None => (rest, 0),
        };
        let mut digits = Vec::new();
        let mut frac_digits = 0i32;
        let mut seen_dot = false;
        let mut seen_digit = false;
        for c in mant_str.chars() {
            match c {
                '0'..='9' => {
                    digits.push(c as u8 - b'0');
                    seen_digit = true;
                    if seen_dot {
                        frac_digits += 1;
                    }
                }
                '.' if !seen_dot => seen_dot = true,
                '_' => {}
                _ => return Err(format!("bad character {c:?} in {s:?}")),
            }
        }
        if !seen_digit {
            return Err(format!("no digits in {s:?}"));
        }
        // Integer N = digits as big int; value = N * 10^(exp10 - frac_digits)
        let mut n: Vec<u64> = Vec::new();
        for &d in &digits {
            n = limb::mul_small(&n, 10);
            n = limb::add_small(&n, d as u64);
        }
        let e10 = exp10 - frac_digits;
        if limb::is_zero(&n) {
            return Ok(MpFloat::zero(prec));
        }
        if e10 >= 0 {
            let scaled = limb::mul(&n, &limb::pow10(e10 as u32));
            Ok(MpFloat::from_int_scaled(sign, scaled, 0, prec, false))
        } else {
            // value = N / 10^(-e10): shift N up so the quotient keeps
            // prec + 3 bits, then round with sticky.
            let d = limb::pow10((-e10) as u32);
            let shift =
                (prec as i64 + 3 + limb::bit_len(&d) as i64 - limb::bit_len(&n) as i64).max(0);
            let num = limb::shl(&n, shift as usize);
            let (q, r) = limb::div_rem(&num, &d);
            let sticky = !limb::is_zero(&r);
            Ok(MpFloat::from_int_scaled(sign, q, -shift, prec, sticky))
        }
    }

    /// Format as a decimal string in scientific notation with `digits`
    /// significant digits (correctly rounded, round-half-even on the last
    /// digit up to the precision actually carried).
    pub fn to_decimal_string(&self, digits: usize) -> String {
        assert!(digits >= 1);
        if self.is_zero() {
            return "0.0".to_string();
        }
        // value = M * 2^k. Find d10 = floor(log10(|value|)) approximately,
        // then compute the first `digits` decimal digits by scaling.
        let k = self.lsb_exp();
        // log10(|v|) = log10(M) + k*log10(2)
        let approx_log10 =
            (limb::bit_len(&self.mant) as f64 + k as f64) * std::f64::consts::LOG10_2;
        let mut d10 = approx_log10.floor() as i32;
        // We want I = round(|v| * 10^(digits - 1 - d10)) with 10^(digits-1)
        // <= I < 10^digits. The estimate of d10 can be off by one; fix up.
        for _ in 0..3 {
            let scale10 = digits as i32 - 1 - d10;
            let i = self.scaled_decimal_int(scale10);
            let lo = limb::pow10(digits as u32 - 1);
            let hi = limb::pow10(digits as u32);
            if limb::cmp(&i, &lo) == Ordering::Less {
                d10 -= 1;
                continue;
            }
            if limb::cmp(&i, &hi) != Ordering::Less {
                d10 += 1;
                continue;
            }
            // Render digits of I.
            let mut digs = Vec::with_capacity(digits);
            let mut cur = i;
            while !limb::is_zero(&cur) {
                let (q, r) = limb::div_rem_small(&cur, 10);
                digs.push(b'0' + r as u8);
                cur = q;
            }
            while digs.len() < digits {
                digs.push(b'0');
            }
            digs.reverse();
            let mut out = String::new();
            if self.sign == Sign::Neg {
                out.push('-');
            }
            out.push(digs[0] as char);
            out.push('.');
            if digs.len() > 1 {
                out.extend(digs[1..].iter().map(|&b| b as char));
            } else {
                out.push('0');
            }
            if d10 != 0 {
                out.push('e');
                out.push_str(&d10.to_string());
            }
            return out;
        }
        unreachable!("decimal exponent estimate failed to converge");
    }

    /// `round(|self| * 10^scale10)` as a big integer (RNE on the last digit).
    fn scaled_decimal_int(&self, scale10: i32) -> Vec<u64> {
        let k = self.lsb_exp();
        // |v| * 10^scale10 = M * 2^k * 10^scale10
        let (num, den) = if scale10 >= 0 {
            (
                limb::mul(&self.mant, &limb::pow10(scale10 as u32)),
                Vec::new(),
            )
        } else {
            (self.mant.clone(), limb::pow10((-scale10) as u32))
        };
        // Multiply by 2^k (shift) and divide by den, rounding to nearest.
        if k >= 0 {
            let shifted = limb::shl(&num, k as usize);
            if den.is_empty() {
                shifted
            } else {
                div_round_nearest(&shifted, &den)
            }
        } else {
            // Divide by 2^(-k) (and den): combine into one division.
            let mut d = limb::shl(&[1u64], (-k) as usize);
            if !den.is_empty() {
                d = limb::mul(&d, &den);
            }
            div_round_nearest(&num, &d)
        }
    }

    // ------------------------------------------------------------------
    // Oracle conveniences
    // ------------------------------------------------------------------

    /// Exact sum of a slice of doubles (no rounding: the precision is chosen
    /// large enough to hold the exact result).
    pub fn exact_sum(xs: &[f64]) -> Self {
        // Exponent span of f64 is < 2200 bits; add headroom for the count.
        let prec = 2400 + 64;
        let mut acc = MpFloat::zero(prec);
        for &x in xs {
            acc = acc.add(&MpFloat::from_f64(x, 53), prec);
        }
        acc
    }

    /// Exact dot product of two slices of doubles.
    pub fn exact_dot(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len());
        let prec = 4800 + 64;
        let mut acc = MpFloat::zero(prec);
        for (&x, &y) in xs.iter().zip(ys) {
            let p = MpFloat::from_f64(x, 53).mul(&MpFloat::from_f64(y, 53), 110);
            acc = acc.add(&p, prec);
        }
        acc
    }

    /// |self - other| / |other| as f64 (other must be nonzero); a convenient
    /// relative-error measure for tests.
    pub fn rel_error_vs(&self, other: &Self) -> f64 {
        assert!(!other.is_zero());
        let prec = self.prec.max(other.prec) + 64;
        let diff = self.sub(other, prec).abs();
        diff.div(&other.abs(), 64).to_f64()
    }
}

/// `round(a / b)` to nearest integer, ties away from zero (only used for
/// decimal digit extraction where the tie direction is washed out by the
/// guard-digit convention).
fn div_round_nearest(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (q, r) = limb::div_rem(a, b);
    let r2 = limb::shl(&r, 1);
    if limb::cmp(&r2, b) != Ordering::Less {
        limb::add_small(&q, 1)
    } else {
        q
    }
}

impl fmt::Display for MpFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = ((self.prec as f64) * std::f64::consts::LOG10_2).ceil() as usize + 1;
        write!(f, "{}", self.to_decimal_string(digits.max(3)))
    }
}

impl PartialEq for MpFloat {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl PartialOrd for MpFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
