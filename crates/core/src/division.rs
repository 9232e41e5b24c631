//! Branch-free division via division-free Newton–Raphson iteration
//! (paper §4.3, after Karp & Markstein 1997).
//!
//! The reciprocal `1/a` is the root of `f(x) = 1/x - a`, giving the
//! division-free recurrence `x <- x + x(1 - a·x)` (paper Eq. 15). The
//! initial guess is the machine-precision reciprocal `1.0 ⊘ a₀`, good to
//! about one term, and each step doubles the number of correct terms. Each
//! step therefore runs at the width its result can be accurate to (the
//! precision-doubling iteration of Joldes, Muller and Popescu): a step at
//! width `W` takes `a` cut to `W` terms, forms the residual `1 - a·x` at
//! width `W` and the correction product `x·(1 - a·x)` at width 2. This
//! *width ladder* ([`ladder`]) takes the reciprocal to `max(2, N - 1)` terms
//! (a step at width 2, then at `N = 4` one at width 3), and [`recip`] closes
//! it with one step at width `N`.
//!
//! [`div_karp_markstein`] implements the paper's Karp–Markstein
//! optimization: the closing step is fused with the multiplication by the
//! numerator. `q₀ = b·y` runs at the ladder's width, only the residual
//! `b - a·q₀` and the final sum at width `N` — benchmarked against plain
//! `mul(b, recip(a))` in the ablation suite (DESIGN.md §3.5). [`div_scalar`]
//! climbs the same way from `b·(1 ⊘ s)`, one term per step.
//!
//! # Exponent range
//!
//! The Newton kernels overflow, even when the result is representable, for
//! a divisor head below `2^(MIN_EXP+3)` (the seed `1/a₀`) or near
//! `2^MAX_EXP` (the reciprocal's tails), and for a dividend head at
//! `2^MAX_EXP` (the residual `a·q₀ ≈ b`). [`recip`], [`div_karp_markstein`]
//! and [`div_scalar`] therefore scale their operands by an exact power of
//! two read from the divisor's head exponent, which brings the divisor near
//! `2^0` and leaves the quotient as it is, run the unchanged kernel, and
//! (for the reciprocal) scale the result by the same factor. The shift is
//! an integer select that is 0 inside the window, where every operand is
//! multiplied by exactly `1.0` and keeps its bits.

use crate::addition::{add, sub};
use crate::multiplication::{mul, mul_scalar, sqr};
use crate::nets::fit;
use mf_eft::FloatBase;

/// `x * f` termwise. Exact when `f` is a power of two and no term leaves the
/// normal range; `f = 1` returns `x` bit for bit.
#[inline(always)]
pub(crate) fn scale<T: FloatBase, const N: usize>(x: &[T; N], f: T) -> [T; N] {
    let mut out = *x;
    for v in &mut out {
        *v = *v * f;
    }
    out
}

/// The shift `s` that brings a head `h` outside `[2^lo, 2^(hi+1))` to
/// `h·2^-s` near `2^0`: its exponent, clamped so that `2^-s` and a quarter
/// of it are normal powers of two and `s` may be rounded down to even; 0
/// inside the window. Zero and non-finite heads may shift too: the kernels
/// return NaN or ±inf for them either way.
#[inline(always)]
pub(crate) fn window_shift<T: FloatBase>(h: T, lo: i32, hi: i32) -> i32 {
    let m = h.abs();
    if !((m >= T::exp2i(lo)) & (m < T::exp2i(hi + 1))) {
        h.exponent().clamp(1 - T::MAX_EXP, -T::MIN_EXP - 2)
    } else {
        0
    }
}

/// Factors `(fb, fa, up)` for `b / a`. Both operands take the divisor's
/// `fa = 2^-s` (its [`window_shift`] for the window
/// `[2^(MIN_EXP+3), 2^(MAX_EXP-3))`), which leaves the quotient as it is;
/// the dividend then sits within a factor `2^P` of the quotient, so its
/// tails flush no earlier than the quotient's own. A dividend head at
/// `2^MAX_EXP` is also quartered, so that `a·q₀ ≈ b` stays in range, and
/// the quotient multiplied by `up = 4`. `fa` never depends on the
/// dividend, so the divisor's Newton iterations need not wait for it.
#[inline(always)]
fn quotient_factors<T: FloatBase>(b: T, a: T) -> (T, T, T) {
    let fa = T::exp2i(-window_shift(a, T::MIN_EXP + 3, T::MAX_EXP - 4));
    let m = b.abs();
    if (m >= T::exp2i(T::MAX_EXP)) & (m < T::INFINITY) {
        (fa * (T::HALF * T::HALF), fa, T::TWO * T::TWO)
    } else {
        (fa, fa, T::ONE)
    }
}

/// The step every Newton kernel here and in `sqrt.rs` ends with:
/// `x·up + c·r·up` at width `W`, for the residual `r` of an iterate `x` and
/// its multiplier `c`. The iterate is good to at least `W - 1` terms, so
/// `r` is below about `2^(-P·(W-1))` and the correction needs only about `P`
/// more bits: its product runs at width 2 (a one-term `c` takes the scalar
/// product). The factor `up` goes onto the terms of the sum rather than
/// onto the result: LLVM's SLP vectorizer packs a store of `result * up`
/// together with the whole N = 2 network, at a cost in shuffles. (A result
/// this scales overflows only past `2^(MAX_EXP-1)`, where the contract
/// allows a non-finite result.)
#[inline(always)]
pub(crate) fn correct<T: FloatBase, const W: usize, const C: usize>(
    x: &[T; W],
    c: &[T; C],
    r: &[T; W],
    up: T,
) -> [T; W] {
    let cr: [T; 2] = if C == 1 {
        mul_scalar(&fit(r), c[0])
    } else {
        mul(&fit(c), &fit(r))
    };
    add(&scale(x, up), &scale(&fit(&cr), up))
}

/// One Newton step at width `W` on `a` cut to `W` terms, times `up`: toward
/// `1/a`, `x + x·(1 - a·x)` (paper Eq. 15), or with `root` toward `1/√a`,
/// `x + ½x·(1 - a·x²)` (Eq. 16; the halving is exact termwise).
#[inline(always)]
pub(crate) fn newton_step<T: FloatBase, const N: usize, const W: usize>(
    a: &[T; N],
    x: &[T; W],
    root: bool,
    up: T,
) -> [T; W] {
    let a: [T; W] = fit(a);
    let (ax, c) = if root {
        (mul(&a, &sqr(x)), scale(x, T::HALF))
    } else {
        (mul(&a, x), *x)
    };
    correct(x, &c, &sub(&fit(&[T::ONE]), &ax), up)
}

/// The width ladder: `1/a` (or with `root` `1/√a`) to `R <= 3` terms from
/// the scalar seed, by a step at width 2 and, for `R = 3`, one at width 3.
#[inline(always)]
pub(crate) fn ladder<T: FloatBase, const N: usize, const R: usize>(
    a: &[T; N],
    root: bool,
) -> [T; R] {
    let seed = if root {
        a[0].sqrt().recip()
    } else {
        a[0].recip()
    };
    let x = newton_step(a, &[seed, T::ZERO], root, T::ONE);
    if R > 2 {
        newton_step(a, &fit(&x), root, T::ONE)
    } else {
        fit(&x)
    }
}

/// `1/a` (or with `root` `1/√a`) to `N` terms, times `up`, for heads inside
/// the window: the ladder to `max(2, N - 1)` terms closed by a step at
/// width `N`.
#[inline(always)]
pub(crate) fn newton<T: FloatBase, const N: usize>(a: &[T; N], root: bool, up: T) -> [T; N] {
    match N {
        4 => newton_step(a, &fit(&ladder::<T, N, 3>(a, root)), root, up),
        _ => newton_step(a, &fit(&ladder::<T, N, 2>(a, root)), root, up),
    }
}

/// `1 / a` as an `N`-term expansion, range-safe (see the module docs).
#[inline(always)]
pub fn recip<T: FloatBase, const N: usize>(a: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = a[0].recip();
        return out;
    }
    // 1/a = (1/(a·2^-s))·2^-s: one factor scales both ways.
    let f = T::exp2i(-window_shift(a[0], T::MIN_EXP + 3, T::MAX_EXP - 4));
    scale(&newton(&scale(a, f), false, T::ONE), f)
}

/// `b / a` via a full-precision reciprocal: `b * recip(a)`.
#[inline(always)]
pub fn div_via_recip<T: FloatBase, const N: usize>(b: &[T; N], a: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = b[0] / a[0];
        return out;
    }
    mul(b, &recip(a))
}

/// `b / a` with the Karp–Markstein fusion: take the reciprocal `y` one
/// Newton step short of full precision, form `q₀ = b·y`, and correct with
/// the residual `r = b - a·q₀`: `q = q₀ + y·r`. This trades the
/// reciprocal's closing step for one multiply-and-add at the *quotient*,
/// which converges because `q₀` is already as accurate as `y`.
/// Range-safe (see the module docs).
#[inline(always)]
pub fn div_karp_markstein<T: FloatBase, const N: usize>(b: &[T; N], a: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = b[0] / a[0];
        return out;
    }
    let (fb, fa, up) = quotient_factors(b[0], a[0]);
    let (b, a) = (scale(b, fb), scale(a, fa));
    match N {
        4 => km_newton::<T, N, 3>(&b, &a, up),
        _ => km_newton::<T, N, 2>(&b, &a, up),
    }
}

/// The Karp–Markstein quotient times `up`, for operand heads inside the
/// window, from the reciprocal's ladder to `R` terms: `q₀` at width `R`,
/// the residual at width `N`.
#[inline(always)]
fn km_newton<T: FloatBase, const N: usize, const R: usize>(
    b: &[T; N],
    a: &[T; N],
    up: T,
) -> [T; N] {
    let y = ladder::<T, N, R>(a, false);
    let q0 = fit(&mul(&fit(b), &y));
    let r = sub(b, &mul(a, &q0));
    correct(&q0, &y, &r, up)
}

/// `x / s` for a base-precision divisor, via the scalar reciprocal and a
/// residual correction (cheaper than widening `s` to an expansion).
/// Range-safe like [`div_karp_markstein`].
#[inline(always)]
pub fn div_scalar<T: FloatBase, const N: usize>(x: &[T; N], s: T) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = x[0] / s;
        return out;
    }
    let (fx, fs, up) = quotient_factors(x[0], s);
    div_scalar_newton(&scale(x, fx), s * fs, up)
}

/// The scalar-divisor quotient times `up`, for operand heads inside the
/// window. `y = 1 ⊘ s` is good to one term, so each correction
/// `q + y·(x - q·s)` gains one term: from `q = x·y` at width 2, the steps
/// run at widths 2, ..., `N`.
#[inline(always)]
fn div_scalar_newton<T: FloatBase, const N: usize>(x: &[T; N], s: T, up: T) -> [T; N] {
    let y = s.recip();
    let q = mul_scalar(&fit::<T, N, 2>(x), y);
    match N {
        2 => fit(&scalar_step(x, s, y, &q, up)),
        3 => scalar_step(x, s, y, &fit(&scalar_step(x, s, y, &q, T::ONE)), up),
        _ => {
            let q: [T; 3] = fit(&scalar_step(x, s, y, &q, T::ONE));
            scalar_step(x, s, y, &fit(&scalar_step(x, s, y, &q, T::ONE)), up)
        }
    }
}

/// One correction `q + y·(x - q·s)` at width `W` on `x` cut to `W` terms,
/// times `up`.
#[inline(always)]
fn scalar_step<T: FloatBase, const N: usize, const W: usize>(
    x: &[T; N],
    s: T,
    y: T,
    q: &[T; W],
    up: T,
) -> [T; W] {
    correct(q, &[y], &sub(&fit(x), &mul_scalar(q, s)), up)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addition::tests::rand_expansion;
    use crate::sqrt::{rsqrt, sqrt};
    use crate::MultiFloat;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact_quotient(b: &[f64], a: &[f64], prec: u32) -> MpFloat {
        MpFloat::exact_sum(b).div(&MpFloat::exact_sum(a), prec)
    }

    fn check_div<const N: usize>(
        rng: &mut SmallRng,
        bound_exp: i32,
        iters: usize,
        km: bool,
    ) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..iters {
            let b = {
                let e0 = rng.gen_range(-30..30);
                rand_expansion::<N>(rng, e0)
            };
            let a = {
                let e0 = rng.gen_range(-30..30);
                rand_expansion::<N>(rng, e0)
            };
            if a[0] == 0.0 {
                continue;
            }
            let q = if km {
                div_karp_markstein(&b, &a)
            } else {
                div_via_recip(&b, &a)
            };
            assert!(
                MultiFloat::<f64, N> { c: q }.is_nonoverlapping(),
                "overlapping quotient: b={b:?} a={a:?} q={q:?}"
            );
            let exact = exact_quotient(&b, &a, 1200);
            let got = MpFloat::exact_sum(&q);
            if exact.is_zero() {
                assert!(got.is_zero(), "b={b:?} a={a:?}");
                continue;
            }
            let rel = got.rel_error_vs(&exact);
            worst = worst.max(rel);
            assert!(
                rel <= 2.0f64.powi(bound_exp),
                "error 2^{:.2} exceeds 2^{bound_exp}: b={b:?} a={a:?} (km={km})",
                rel.log2()
            );
        }
        worst
    }

    #[test]
    fn div2_accuracy() {
        let mut rng = SmallRng::seed_from_u64(400);
        let w = check_div::<2>(&mut rng, -101, 10_000, false);
        eprintln!("div2 (recip) worst rel error: 2^{:.2}", w.log2());
        let w = check_div::<2>(&mut rng, -101, 10_000, true);
        eprintln!("div2 (km) worst rel error: 2^{:.2}", w.log2());
    }

    #[test]
    fn div3_accuracy() {
        let mut rng = SmallRng::seed_from_u64(401);
        let w = check_div::<3>(&mut rng, -152, 6_000, false);
        eprintln!("div3 (recip) worst rel error: 2^{:.2}", w.log2());
        let w = check_div::<3>(&mut rng, -152, 6_000, true);
        eprintln!("div3 (km) worst rel error: 2^{:.2}", w.log2());
    }

    #[test]
    fn div4_accuracy() {
        let mut rng = SmallRng::seed_from_u64(402);
        let w = check_div::<4>(&mut rng, -203, 4_000, false);
        eprintln!("div4 (recip) worst rel error: 2^{:.2}", w.log2());
        let w = check_div::<4>(&mut rng, -203, 4_000, true);
        eprintln!("div4 (km) worst rel error: 2^{:.2}", w.log2());
    }

    #[test]
    fn recip_of_recip_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(403);
        for _ in 0..5_000 {
            let a = {
                let e0 = rng.gen_range(-20..20);
                rand_expansion::<3>(&mut rng, e0)
            };
            if a[0] == 0.0 {
                continue;
            }
            let r = recip(&recip(&a));
            let exact = MpFloat::exact_sum(&a);
            let got = MpFloat::exact_sum(&r);
            assert!(got.rel_error_vs(&exact) <= 2.0f64.powi(-150), "a={a:?}");
        }
    }

    #[test]
    fn exact_divisions() {
        // Powers of two and exactly representable ratios stay exact.
        let a: [f64; 2] = [4.0, 0.0];
        let b: [f64; 2] = [1.0, 0.0];
        let q = div_via_recip(&b, &a);
        assert_eq!(q, [0.25, 0.0]);
        let q = div_karp_markstein(&b, &a);
        assert_eq!(q, [0.25, 0.0]);
        let six: [f64; 3] = [6.0, 0.0, 0.0];
        let three: [f64; 3] = [3.0, 0.0, 0.0];
        assert_eq!(div_via_recip(&six, &three), [2.0, 0.0, 0.0]);
    }

    #[test]
    fn one_third_times_three() {
        let one: [f64; 4] = [1.0, 0.0, 0.0, 0.0];
        let three: [f64; 4] = [3.0, 0.0, 0.0, 0.0];
        let third = div_via_recip(&one, &three);
        let back = mul(&third, &three);
        let err = MpFloat::exact_sum(&back)
            .sub(&MpFloat::from_f64(1.0, 53), 300)
            .abs()
            .to_f64();
        assert!(err < 2.0f64.powi(-205), "err = {err:e}");
    }

    #[test]
    fn div_scalar_accuracy() {
        let mut rng = SmallRng::seed_from_u64(404);
        for _ in 0..10_000 {
            let x = {
                let e0 = rng.gen_range(-20..20);
                rand_expansion::<3>(&mut rng, e0)
            };
            let s: f64 = rng.gen_range(0.5..2.0) * 2.0f64.powi(rng.gen_range(-10..10));
            let q = div_scalar(&x, s);
            let exact = exact_quotient(&x, &[s], 1000);
            let got = MpFloat::exact_sum(&q);
            if exact.is_zero() {
                assert!(got.abs().to_f64() < 1e-280);
                continue;
            }
            assert!(
                got.rel_error_vs(&exact) <= 2.0f64.powi(-152),
                "x={x:?} s={s:e}"
            );
        }
    }

    /// A nonzero `rand_expansion` moved to head exponent `e`, in two exact
    /// steps so that `e` may reach the subnormal range.
    fn expansion_at<const N: usize>(rng: &mut SmallRng, e: i32) -> [f64; N] {
        let x = loop {
            let x = rand_expansion::<N>(rng, 0);
            if x[0] != 0.0 {
                break x;
            }
        };
        let d = e - x[0].exponent();
        let p = <f64 as FloatBase>::exp2i;
        scale(&scale(&x, p(d / 2)), p(d - d / 2))
    }

    /// Operand heads outside the Newton window — a divisor or radicand
    /// below 2^-1019 (down to the smallest subnormal), a divisor from 2^1020
    /// up, a dividend or radicand at 2^1023 — made the unshifted kernels
    /// return NaN. With the range shift, every quotient, reciprocal and
    /// root whose terms all stay normal must meet the in-window bound.
    fn check_out_of_window<const N: usize>(rng: &mut SmallRng, bound_exp: i32) {
        let one = MpFloat::from_f64(1.0, 53);
        for i in 0..3_000 {
            let (ea, eb) = match i % 3 {
                0 => (rng.gen_range(-1074..-1019), rng.gen_range(-1074..0)),
                1 => (rng.gen_range(1020..1024), rng.gen_range(300..1024)),
                _ => (rng.gen_range(30..300), 1023),
            };
            let a = expansion_at::<N>(rng, ea);
            let b = expansion_at::<N>(rng, eb);
            let x = if a[0] < 0.0 { a.map(|v| -v) } else { a };
            let root = MpFloat::exact_sum(&x).sqrt(1200);
            // In-window radicands near the top keep the unshifted kernel's
            // flushed x² tails (the conformance checker's flush excuse).
            let shifted_root = ea < -1019 || ea == 1023;
            for (got, exact, judged) in [
                (
                    div_karp_markstein(&b, &a),
                    exact_quotient(&b, &a, 1200),
                    true,
                ),
                (
                    div_scalar(&b, a[0]),
                    exact_quotient(&b, &a[..1], 1200),
                    true,
                ),
                (recip(&a), exact_quotient(&[1.0], &a, 1200), true),
                (sqrt(&x), root.clone(), shifted_root),
                (rsqrt(&x), one.div(&root, 1200), shifted_root),
            ] {
                let e = exact.exp2().unwrap_or(0);
                if !judged || e < -1000 + 53 * N as i64 || e > 1022 {
                    continue;
                }
                let rel = MpFloat::exact_sum(&got).rel_error_vs(&exact);
                assert!(
                    rel <= 2.0f64.powi(bound_exp),
                    "error 2^{:.2} exceeds 2^{bound_exp}: b={b:?} a={a:?} got={got:?}",
                    rel.log2()
                );
            }
        }
    }

    #[test]
    fn out_of_window_operands_match_oracle() {
        let mut rng = SmallRng::seed_from_u64(405);
        check_out_of_window::<2>(&mut rng, -101);
        check_out_of_window::<3>(&mut rng, -152);
        check_out_of_window::<4>(&mut rng, -203);
        let p = <f64 as FloatBase>::exp2i;
        // 2^-100 / 2^-1040: the Newton seed 1/2^-1040 overflowed.
        let q = MultiFloat::<f64, 2>::from(p(-100)).div_scalar(p(-1040));
        assert_eq!(q.components(), [p(940), 0.0]);
        // Out-of-range results saturate instead of collapsing to NaN.
        assert_eq!(recip(&[p(-1040), 0.0])[0], f64::INFINITY);
        assert_eq!(recip(&[-p(-1074), 0.0, 0.0])[0], f64::NEG_INFINITY);
        // Exact powers: sqrt(2^-1074) = 2^-537, rsqrt(2^-1024) = 2^512.
        assert_eq!(sqrt(&[p(-1074), 0.0]), [p(-537), 0.0]);
        assert_eq!(rsqrt(&[p(-1024), 0.0]), [p(512), 0.0]);
    }

    #[test]
    fn division_by_zero_propagates_nan() {
        // Paper §4.4: Inf semantics collapse to NaN through the EFTs.
        let b: [f64; 2] = [1.0, 0.0];
        let a: [f64; 2] = [0.0, 0.0];
        let q = div_via_recip(&b, &a);
        assert!(q[0].is_nan() || q[0].is_infinite(), "q = {q:?}");
    }
}
