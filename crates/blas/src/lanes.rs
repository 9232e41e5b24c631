//! The portable lane type of the lock-step engine.
//!
//! [`Lanes<T, L>`] is a `[T; L]` behaving as a single [`FloatBase`] value
//! with **element-wise** arithmetic. Because the extended-precision kernels
//! in `mf-core` are branch-free straight-line code over any `FloatBase`,
//! instantiating them at `Lanes<T, 8>` executes 8 *independent*
//! extended-precision operations in lock-step — one AVX-512 register per
//! wire. This is the paper's GPU/SIMT execution model verbatim (§5: each
//! GPU lane runs the same FPAN on its own data).
//!
//! `Lanes<T, 8>` is the portable realization of [`crate::simd`]'s lane
//! engine for every base type: the intrinsic realizations (AVX2, AVX-512,
//! NEON) exist for `f64` only, and all of them must match this one bit for
//! bit. It is compiled without any `#[target_feature]` frame, so it is the
//! no-intrinsics reference that the forced-ISA tests and the `blas-simd`
//! conformance class compare against.
//!
//! Semantics notes:
//!
//! * Arithmetic, `mul_add`, `sqrt`, `abs`, `min`/`max` are lane-wise and
//!   exactly as accurate as scalar `f64` — the kernels compute the same
//!   bits per lane as they would scalar.
//! * Comparisons and predicates (`PartialOrd`, `is_nan`, `exponent`, …)
//!   cannot be lane-wise and still satisfy the trait; they reduce over
//!   lanes conservatively (documented per method). The arithmetic kernels
//!   never branch on them — that is the entire point of branch-free
//!   algorithms — so reductions only affect debug assertions.

use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};
use mf_core::FloatBase;

/// `L` independent lanes of base type `T` executing in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<T: FloatBase, const L: usize>(pub [T; L]);

impl<T: FloatBase, const L: usize> Lanes<T, L> {
    #[inline(always)]
    fn map(self, f: impl Fn(T) -> T) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = f(*v);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut out = self.0;
        for (v, w) in out.iter_mut().zip(&o.0) {
            *v = f(*v, *w);
        }
        Lanes(out)
    }
}

impl<T: FloatBase, const L: usize> Default for Lanes<T, L> {
    fn default() -> Self {
        Lanes([T::ZERO; L])
    }
}

impl<T: FloatBase, const L: usize> fmt::Display for Lanes<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0[0])
    }
}

impl<T: FloatBase, const L: usize> fmt::LowerExp for Lanes<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:e}", self.0[0])
    }
}

impl<T: FloatBase, const L: usize> PartialOrd for Lanes<T, L> {
    /// A *partial* order consistent with the derived `PartialEq`
    /// (all-lanes equality): `Some(Equal)` iff every lane compares equal,
    /// `Less`/`Greater` by lane-0 when lane 0 strictly orders, and `None`
    /// when lane 0 ties but some other lane differs (no single ordering is
    /// meaningful lane-wise; the arithmetic kernels never branch on
    /// comparisons — that is the entire point of branch-free algorithms —
    /// so this only affects debug assertions and generic callers).
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        match self.0[0].partial_cmp(&other.0[0]) {
            Some(core::cmp::Ordering::Equal) => {
                if self == other {
                    Some(core::cmp::Ordering::Equal)
                } else {
                    None
                }
            }
            ord => ord,
        }
    }
}

impl<T: FloatBase, const L: usize> Add for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
}

impl<T: FloatBase, const L: usize> Sub for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

impl<T: FloatBase, const L: usize> Mul for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
}

impl<T: FloatBase, const L: usize> Div for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
}

impl<T: FloatBase, const L: usize> Neg for Lanes<T, L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|a| -a)
    }
}

impl<T: FloatBase, const L: usize> FloatBase for Lanes<T, L> {
    const PRECISION: u32 = T::PRECISION;
    const MIN_EXP: i32 = T::MIN_EXP;
    const MAX_EXP: i32 = T::MAX_EXP;
    const ZERO: Self = Lanes([T::ZERO; L]);
    const ONE: Self = Lanes([T::ONE; L]);
    const NEG_ONE: Self = Lanes([T::NEG_ONE; L]);
    const HALF: Self = Lanes([T::HALF; L]);
    const TWO: Self = Lanes([T::TWO; L]);
    const EPSILON: Self = Lanes([T::EPSILON; L]);
    const MAX: Self = Lanes([T::MAX; L]);
    const MIN_POSITIVE: Self = Lanes([T::MIN_POSITIVE; L]);
    const INFINITY: Self = Lanes([T::INFINITY; L]);
    const NEG_INFINITY: Self = Lanes([T::NEG_INFINITY; L]);
    const NAN: Self = Lanes([T::NAN; L]);

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for i in 0..L {
            out[i] = out[i].mul_add(a.0[i], b.0[i]);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(T::sqrt)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        self.map(T::abs)
    }

    #[inline(always)]
    fn recip(self) -> Self {
        self.map(T::recip)
    }

    fn floor(self) -> Self {
        self.map(T::floor)
    }

    fn ceil(self) -> Self {
        self.map(T::ceil)
    }

    fn round(self) -> Self {
        self.map(T::round)
    }

    fn trunc(self) -> Self {
        self.map(T::trunc)
    }

    /// Any-lane reduction (conservative for NaN poisoning checks).
    fn is_nan(self) -> bool {
        self.0.iter().any(|v| v.is_nan())
    }

    fn is_infinite(self) -> bool {
        self.0.iter().any(|v| v.is_infinite())
    }

    fn is_finite(self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    fn is_sign_negative(self) -> bool {
        self.0[0].is_sign_negative()
    }

    /// All-lanes-zero.
    fn is_zero(self) -> bool {
        self.0.iter().all(|&v| v.is_zero())
    }

    /// Max over lanes.
    fn exponent(self) -> i32 {
        self.0.iter().map(|&v| v.exponent()).max().unwrap_or(0)
    }

    /// Lane by lane: lanes of unrelated magnitudes (different rows of a
    /// GEMV, say) each meet the precondition on their own, which no
    /// all-lanes zero test or max-exponent comparison can express.
    fn fast_two_sum_ok(self, y: Self) -> bool {
        self.0.iter().zip(&y.0).all(|(&a, &b)| a.fast_two_sum_ok(b))
    }

    fn exp2i(e: i32) -> Self {
        Lanes([T::exp2i(e); L])
    }

    fn from_f64(x: f64) -> Self {
        Lanes([T::from_f64(x); L])
    }

    fn to_f64(self) -> f64 {
        self.0[0].to_f64()
    }

    fn copysign(self, sign: Self) -> Self {
        self.zip(sign, T::copysign)
    }

    fn min(self, other: Self) -> Self {
        self.zip(other, T::min)
    }

    fn max(self, other: Self) -> Self {
        self.zip(other, T::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lanes_arithmetic_matches_scalar_bitwise() {
        let mut rng = SmallRng::seed_from_u64(1700);
        for _ in 0..2_000 {
            let a: [f64; 4] = core::array::from_fn(|_| rng.gen_range(-1.0e10..1.0e10));
            let b: [f64; 4] = core::array::from_fn(|_| rng.gen_range(-1.0e10..1.0e10));
            let la = Lanes::<f64, 4>(a);
            let lb = Lanes::<f64, 4>(b);
            let (s, e) = mf_eft::two_sum(la, lb);
            for l in 0..4 {
                let (ss, es) = mf_eft::two_sum(a[l], b[l]);
                assert_eq!(s.0[l], ss);
                assert_eq!(e.0[l], es);
            }
            let (p, pe) = mf_eft::two_prod(la, lb);
            for l in 0..4 {
                let (ps, pes) = mf_eft::two_prod(a[l], b[l]);
                assert_eq!(p.0[l], ps);
                assert_eq!(pe.0[l], pes);
            }
        }
    }

    #[test]
    fn lockstep_kernel_matches_scalar_kernel_bitwise() {
        // The FPAN kernels at T = Lanes<4> must produce, lane by lane,
        // exactly the scalar kernels' bits.
        let mut rng = SmallRng::seed_from_u64(1701);
        for _ in 0..2_000 {
            let mk = |rng: &mut SmallRng| -> [[f64; 3]; 4] {
                core::array::from_fn(|_| {
                    mf_core::renorm::renorm([
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1e-18..1e-18),
                        rng.gen_range(-1e-36..1e-36),
                    ])
                })
            };
            let xs = mk(&mut rng);
            let ys = mk(&mut rng);
            // Pack into lanes.
            let lx: [Lanes<f64, 4>; 3] =
                core::array::from_fn(|k| Lanes(core::array::from_fn(|l| xs[l][k])));
            let ly: [Lanes<f64, 4>; 3] =
                core::array::from_fn(|k| Lanes(core::array::from_fn(|l| ys[l][k])));
            let lsum = mf_core::addition::add(&lx, &ly);
            let lprod = mf_core::multiplication::mul(&lx, &ly);
            for l in 0..4 {
                let ssum = mf_core::addition::add(&xs[l], &ys[l]);
                let sprod = mf_core::multiplication::mul(&xs[l], &ys[l]);
                for k in 0..3 {
                    assert_eq!(lsum[k].0[l], ssum[k], "add lane {l} comp {k}");
                    assert_eq!(lprod[k].0[l], sprod[k], "mul lane {l} comp {k}");
                }
            }
        }
    }

    /// `PartialOrd` must agree with the derived all-lanes `PartialEq`:
    /// `partial_cmp == Some(Equal)` exactly when `==` holds. Lane-0 ties
    /// with differing tail lanes are unordered, never falsely `Equal`.
    #[test]
    fn partial_ord_consistent_with_partial_eq() {
        let a = Lanes::<f64, 3>([1.0, 2.0, 3.0]);
        let b = Lanes::<f64, 3>([1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.partial_cmp(&b), Some(core::cmp::Ordering::Equal));

        // Lane 0 equal, lane 2 differs: the old lane-0-only ordering
        // returned Some(Equal) here while `==` was false.
        let c = Lanes::<f64, 3>([1.0, 2.0, 99.0]);
        assert_ne!(a, c);
        assert_eq!(a.partial_cmp(&c), None);

        // Lane-0 strict ordering is preserved.
        let d = Lanes::<f64, 3>([0.5, 9.0, 9.0]);
        assert_eq!(d.partial_cmp(&a), Some(core::cmp::Ordering::Less));
        assert_eq!(a.partial_cmp(&d), Some(core::cmp::Ordering::Greater));

        // NaN lanes stay unordered.
        let n = Lanes::<f64, 3>([f64::NAN, 2.0, 3.0]);
        assert_eq!(n.partial_cmp(&a), None);
    }
}
