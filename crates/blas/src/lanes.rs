//! Explicit SIMD-lane execution of the FPAN kernels.
//!
//! [`Lanes<L>`] is an `[f64; L]` behaving as a single [`FloatBase`] value
//! with **element-wise** arithmetic. Because the extended-precision kernels
//! in `mf-core` are branch-free straight-line code over any `FloatBase`,
//! instantiating them at `T = Lanes<8>` executes 8 *independent*
//! extended-precision operations in lock-step — one AVX-512 register per
//! wire. This is the paper's GPU/SIMT execution model verbatim (§5: each
//! GPU lane runs the same FPAN on its own data), and it removes the need
//! for the autovectorizer to discover the parallelism on its own.
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
use mf_core::{addition, multiplication, FloatBase, MultiFloat};

/// `L` independent lanes of base type `T` executing in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<T: FloatBase, const L: usize>(pub [T; L]);

impl<T: FloatBase, const L: usize> Lanes<T, L> {
    #[inline(always)]
    pub fn splat(v: T) -> Self {
        Lanes([v; L])
    }

    #[inline(always)]
    pub fn from_slice(s: &[T]) -> Self {
        let mut out = [T::ZERO; L];
        out.copy_from_slice(&s[..L]);
        Lanes(out)
    }

    /// Masked load: fills the first `min(s.len(), L)` lanes and
    /// zero-pads the rest, so chunk tails shorter than `L` load without
    /// panicking ([`Lanes::from_slice`] requires a full lane block) and
    /// without callers hand-rolling padding. Zero lanes are inert through
    /// the element-wise FPANs — they can only *weaken* the `FastTwoSum`
    /// exponent preconditions (both sides' lane-max exponents move toward
    /// `exponent(0)` monotonically), never falsely trip them — and the
    /// matching [`Lanes::store_partial`] discards them.
    #[inline(always)]
    pub fn from_slice_partial(s: &[T]) -> Self {
        let mut out = [T::ZERO; L];
        let take = s.len().min(L);
        out[..take].copy_from_slice(&s[..take]);
        Lanes(out)
    }

    /// Masked store: writes the first `min(out.len(), L)` lanes; padding
    /// lanes from [`Lanes::from_slice_partial`] are discarded.
    #[inline(always)]
    pub fn store_partial(self, out: &mut [T]) {
        let take = out.len().min(L);
        out[..take].copy_from_slice(&self.0[..take]);
    }

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

/// Lane width used by the lock-step kernels (one AVX-512 register of
/// f64). Measured on this container: 8 lanes beat 4 at every expansion
/// width for reductions, despite the register spills at N >= 3 — the
/// spill cost is smaller than the dependency-chain stalls it buys off.
pub const SIMD_LANES: usize = 8;

/// Lock-step DOT over component slices: processes `SIMD_LANES` elements per
/// step with `T = Lanes<8>`, giving each FPAN wire a full vector register.
///
/// At `T = f64` this dispatches to the explicit-intrinsic realization
/// selected by [`crate::simd::active`] (bit-identical by construction:
/// same lane structure, correctly-rounded lane ops); other base types run
/// the portable [`Lanes`] body.
pub fn dot_lockstep<T: FloatBase, const N: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    if let Some(r) = crate::simd::try_dot_f64::<T, N>(xc, xoff, yc, yoff, n) {
        return r;
    }
    dot_lockstep_l::<T, N, SIMD_LANES>(xc, xoff, yc, yoff, n)
}

/// Lock-step DOT at an explicit lane count.
pub fn dot_lockstep_l<T: FloatBase, const N: usize, const L: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    let xs: [&[T]; N] = core::array::from_fn(|k| &xc[k][xoff..xoff + n]);
    let ys: [&[T]; N] = core::array::from_fn(|k| &yc[k][yoff..yoff + n]);
    let mut acc: [Lanes<T, L>; N] = [Lanes([T::ZERO; L]); N];
    let chunks = n / L;
    for c in 0..chunks {
        let base = c * L;
        let xi: [Lanes<T, L>; N] = core::array::from_fn(|k| Lanes::from_slice(&xs[k][base..]));
        let yi: [Lanes<T, L>; N] = core::array::from_fn(|k| Lanes::from_slice(&ys[k][base..]));
        let p = multiplication::mul(&xi, &yi);
        acc = addition::add(&acc, &p);
    }
    // Reduce the lanes: extract L scalar expansions and sum them.
    let mut lanes_out: [[T; N]; L] = [[T::ZERO; N]; L];
    for l in 0..L {
        for k in 0..N {
            lanes_out[l][k] = acc[k].0[l];
        }
    }
    // Ceil-half tree reduction: lane l pairs with lane l + ceil(width/2),
    // and an odd top lane rides down to the next round unpaired. The
    // previous floor-half version (`width /= 2` then add `l + width`)
    // silently dropped the top lane(s) whenever `L` was not a power of
    // two — e.g. at L=3, lanes_out[2] was never added.
    let mut width = L;
    while width > 1 {
        let half = width.div_ceil(2);
        for l in 0..width / 2 {
            lanes_out[l] = addition::add(&lanes_out[l], &lanes_out[l + half]);
        }
        width = half;
    }
    // Tail elements (scalar).
    let mut total = lanes_out[0];
    for i in chunks * L..n {
        let xi: [T; N] = core::array::from_fn(|k| xs[k][i]);
        let yi: [T; N] = core::array::from_fn(|k| ys[k][i]);
        let p = multiplication::mul(&xi, &yi);
        total = addition::add(&total, &p);
    }
    MultiFloat::from_components(total)
}

/// Lock-step AXPY over component slices.
pub fn axpy_lockstep<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    xc: &[Vec<T>],
    yc: &mut [Vec<T>],
    n: usize,
) {
    axpy_lockstep_at(alpha, xc, 0, yc, 0, n)
}

/// Lock-step AXPY over component slices starting at the given offsets
/// (used by the SoA GEMM inner loop, where x/y are matrix rows).
///
/// At `T = f64` this dispatches like [`dot_lockstep`]. AXPY is
/// element-wise, so — unlike the reduction — the tail shorter than `L`
/// also rides the vector lanes, via the masked
/// [`Lanes::from_slice_partial`]/[`Lanes::store_partial`] pair (each real
/// lane computes the same bits as the old scalar tail loop; padding lanes
/// are zero in, discarded out).
pub fn axpy_lockstep_at<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    xc: &[Vec<T>],
    xoff: usize,
    yc: &mut [Vec<T>],
    yoff: usize,
    n: usize,
) {
    if crate::simd::try_axpy_f64::<T, N>(alpha, xc, xoff, yc, yoff, n) {
        return;
    }
    const L: usize = SIMD_LANES;
    let a = alpha.components();
    let av: [Lanes<T, L>; N] = core::array::from_fn(|k| Lanes::splat(a[k]));
    let chunks = n / L;
    for c in 0..chunks {
        let base = c * L;
        let xi: [Lanes<T, L>; N] =
            core::array::from_fn(|k| Lanes::from_slice(&xc[k][xoff + base..]));
        let yi: [Lanes<T, L>; N] =
            core::array::from_fn(|k| Lanes::from_slice(&yc[k][yoff + base..]));
        let p = multiplication::mul(&av, &xi);
        let s = addition::add(&p, &yi);
        for k in 0..N {
            yc[k][yoff + base..yoff + base + L].copy_from_slice(&s[k].0);
        }
    }
    let done = chunks * L;
    if done < n {
        let xi: [Lanes<T, L>; N] =
            core::array::from_fn(|k| Lanes::from_slice_partial(&xc[k][xoff + done..xoff + n]));
        let yi: [Lanes<T, L>; N] =
            core::array::from_fn(|k| Lanes::from_slice_partial(&yc[k][yoff + done..yoff + n]));
        let p = multiplication::mul(&av, &xi);
        let s = addition::add(&p, &yi);
        for k in 0..N {
            s[k].store_partial(&mut yc[k][yoff + done..yoff + n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaVec;
    use mf_core::F64x4;
    use mf_mpsoft::MpFloat;
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

    #[test]
    fn dot_lockstep_matches_oracle() {
        let mut rng = SmallRng::seed_from_u64(1702);
        for n in [0usize, 5, 8, 64, 1000, 1003] {
            let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
            let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
            let sx = SoaVec::from_slice(&xs);
            let sy = SoaVec::from_slice(&ys);
            let got = dot_lockstep::<f64, 4>(&sx.comps, 0, &sy.comps, 0, n);
            let exact = MpFloat::exact_dot(&x64, &y64);
            if exact.is_zero() {
                assert!(got.is_zero());
                continue;
            }
            let err = got.to_mp(400).rel_error_vs(&exact);
            assert!(err <= 2.0f64.powi(-190), "n={n} err 2^{:.1}", err.log2());
        }
    }

    /// Regression for the non-power-of-two lane reduction: the old
    /// floor-half tree (`width /= 2; add l + width`) never added the top
    /// lane(s) for L ∈ {3, 5, 6}, so with small-integer inputs (where every
    /// summation order is exact and any dropped term shifts the result by
    /// a whole integer) the dot product came out wrong bitwise. Each L is
    /// checked against the scalar AoS kernel.
    #[test]
    fn dot_lockstep_covers_all_lanes_at_odd_l() {
        fn check<const L: usize>() {
            let mut rng = SmallRng::seed_from_u64(1704 + L as u64);
            // n spans several full lane blocks plus a scalar tail.
            for n in [L, 2 * L, 5 * L + L - 1, 64] {
                let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-64..64i32) as f64).collect();
                let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-64..64i32) as f64).collect();
                let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
                let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
                let sx = SoaVec::from_slice(&xs);
                let sy = SoaVec::from_slice(&ys);
                let got = dot_lockstep_l::<f64, 4, L>(&sx.comps, 0, &sy.comps, 0, n);
                let want = crate::kernels::dot(&xs, &ys);
                assert_eq!(
                    got.components(),
                    want.components(),
                    "L={L} n={n}: lane reduction dropped a lane"
                );
            }
        }
        check::<3>();
        check::<5>();
        check::<6>();
        // Power-of-two widths keep their old (already correct) behaviour.
        check::<4>();
        check::<8>();
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

    #[test]
    fn axpy_lockstep_matches_scalar_axpy_bitwise() {
        let mut rng = SmallRng::seed_from_u64(1703);
        let n = 203;
        let xs: Vec<F64x4> = (0..n)
            .map(|_| F64x4::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let ys: Vec<F64x4> = (0..n)
            .map(|_| F64x4::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let alpha = F64x4::from(1.000001);
        let sx = SoaVec::from_slice(&xs);
        let mut sy = SoaVec::from_slice(&ys);
        axpy_lockstep::<f64, 4>(alpha, &sx.comps, &mut sy.comps, n);
        let mut y_ref = ys.clone();
        crate::kernels::axpy(alpha, &xs, &mut y_ref);
        for i in 0..n {
            assert_eq!(sy.get(i).components(), y_ref[i].components(), "i={i}");
        }
    }

    /// `from_slice` panics on short tails by contract; the masked pair
    /// must handle every length `0..=L` without padding leaking out.
    #[test]
    fn partial_load_store_round_trip() {
        const L: usize = 8;
        for len in 0..=L {
            let src: Vec<f64> = (0..len).map(|i| -(i as f64) - 1.0).collect();
            let v = Lanes::<f64, L>::from_slice_partial(&src);
            for l in 0..L {
                let want = if l < len { -(l as f64) - 1.0 } else { 0.0 };
                assert_eq!(v.0[l], want, "len={len} lane {l}");
            }
            let mut out = [7.5f64; L];
            v.store_partial(&mut out[..len]);
            for (i, &o) in out.iter().enumerate() {
                let want = if i < len { -(i as f64) - 1.0 } else { 7.5 };
                assert_eq!(o, want, "len={len} out[{i}]");
            }
        }
    }

    /// Vectorized AXPY tails (masked lanes) must match the scalar kernel
    /// bitwise at every tail length `1..L`, including n < L outright.
    #[test]
    fn axpy_lockstep_short_tails_match_scalar_bitwise() {
        let mut rng = SmallRng::seed_from_u64(1705);
        for n in [1usize, 2, 3, 5, 7, 8, 9, 11, 15, 17, 23] {
            let xs: Vec<F64x4> = (0..n)
                .map(|_| F64x4::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let ys: Vec<F64x4> = (0..n)
                .map(|_| F64x4::from(rng.gen_range(-1.0..1.0)))
                .collect();
            let alpha = F64x4::from(-0.517);
            let sx = SoaVec::from_slice(&xs);
            let mut sy = SoaVec::from_slice(&ys);
            axpy_lockstep::<f64, 4>(alpha, &sx.comps, &mut sy.comps, n);
            let mut y_ref = ys.clone();
            crate::kernels::axpy(alpha, &xs, &mut y_ref);
            for i in 0..n {
                assert_eq!(sy.get(i).components(), y_ref[i].components(), "n={n} i={i}");
            }
        }
    }
}
