//! Branch-free square root via Newton–Raphson on the *inverse* square root
//! (paper §4.3).
//!
//! `1/√a` is the positive root of `f(x) = 1/x² - a`, giving the
//! division-free recurrence `x <- x + ½·x(1 - a·x²)` (paper Eq. 16; the
//! multiplication by ½ is exact termwise in binary floating point). It runs
//! on the same width ladder as the reciprocal (`division.rs`): a step at
//! width 2 from the scalar seed, at `N = 4` one at width 3, and for
//! [`rsqrt`] a closing step at width `N`. The square root instead takes
//! `s = a · (1/√a)` at the ladder's width and closes with one fused
//! correction `s <- s + (a - s²)·(½·y)` — the square-root analogue of the
//! Karp–Markstein fusion — whose residual `a - s²` runs at width `N`.
//!
//! Both kernels are range-safe like the division kernels: a radicand head
//! below `2^(MIN_EXP+3)` (where `a·x²` overflows) or at and above
//! `2^(-MIN_EXP-(N-1)·P-7)` (where the tails of the `N`-term `x² ≈ 1/a`
//! lose bits at the subnormal floor; for `f64` that is `2^962`, `2^909`
//! and `2^856` at `N = 2, 3, 4`) is scaled by an even power of two
//! `2^-2m`, and the result by `2^m` (`2^-m` for the inverse root). Inside
//! the window the shift is 0.

use crate::addition::sub;
use crate::division::{correct, ladder, newton, scale, window_shift};
use crate::multiplication::{mul, sqr};
use crate::nets::fit;
use mf_eft::FloatBase;

/// `1 / sqrt(a)` as an `N`-term expansion. NaN for negative input (the
/// scalar seed is NaN and propagates, paper §4.4); zero input produces an
/// infinite/NaN result like the scalar operation would.
#[inline(always)]
pub fn rsqrt<T: FloatBase, const N: usize>(a: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = a[0].sqrt().recip();
        return out;
    }
    let s = radicand_shift::<T, N>(a[0]);
    newton(&scale(a, T::exp2i(-s)), true, T::exp2i(-s / 2))
}

/// Even shift for a radicand head: its [`window_shift`] for the window
/// `[2^(MIN_EXP+3), 2^(-MIN_EXP-(N-1)·P-7))`, rounded down to even. At the
/// window top the last term of `x² ≈ 1/a` sits 8 binades above the normal
/// range's floor, so every term keeps its full precision.
#[inline(always)]
fn radicand_shift<T: FloatBase, const N: usize>(h: T) -> i32 {
    let top = -T::MIN_EXP - (N as i32 - 1) * T::PRECISION as i32 - 8;
    window_shift(h, T::MIN_EXP + 3, top) & !1
}

/// `sqrt(a)` as an `N`-term expansion. `sqrt(0) = 0` is restored with a
/// single conditional-move-style select, as the paper's §4.4 prescribes for
/// special values.
#[inline(always)]
pub fn sqrt<T: FloatBase, const N: usize>(a: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = a[0].sqrt();
        return out;
    }
    if a[0].is_zero() {
        // Select: √0 = 0 (the Newton seed 1/√0 = ∞ would otherwise poison
        // the result with 0·∞ = NaN).
        return [T::ZERO; N];
    }
    let s = radicand_shift::<T, N>(a[0]);
    let (a, up) = (scale(a, T::exp2i(-s)), T::exp2i(s / 2));
    match N {
        4 => sqrt_newton::<T, N, 3>(&a, up),
        _ => sqrt_newton::<T, N, 2>(&a, up),
    }
}

/// Square root with the fused closing correction, times `up`, for radicand
/// heads inside the window: `y ≈ 1/√a` from the ladder to `R` terms and
/// `s = a·y` at width `R`, the residual at width `N`. At `N = 2` the
/// inverse root takes its own closing step first, one more than the root's
/// accuracy needs, which keeps the N = 2 root's bits (`bit_digest` pins
/// them).
#[inline(always)]
fn sqrt_newton<T: FloatBase, const N: usize, const R: usize>(a: &[T; N], up: T) -> [T; N] {
    let y: [T; R] = if N == 2 {
        fit(&newton(a, true, T::ONE))
    } else {
        ladder(a, true)
    };
    let s = fit(&mul(&fit(a), &y));
    let r = sub(a, &sqr(&s));
    correct(&s, &scale(&y, T::HALF), &r, up)
}

/// `sqrt` of a base-precision scalar, widened to an expansion (more accurate
/// than `from_scalar(x.sqrt())`, which carries the scalar rounding error).
#[inline(always)]
pub fn sqrt_scalar<T: FloatBase, const N: usize>(x: T) -> [T; N] {
    let mut a = [T::ZERO; N];
    a[0] = x;
    sqrt(&a)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addition::tests::rand_expansion;
    use crate::MultiFloat;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check_sqrt<const N: usize>(rng: &mut SmallRng, bound_exp: i32, iters: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..iters {
            let mut a = {
                let e0 = rng.gen_range(-30..30);
                rand_expansion::<N>(rng, e0)
            };
            if a[0] == 0.0 {
                continue;
            }
            if a[0] < 0.0 {
                for v in &mut a {
                    *v = -*v;
                }
                a = crate::renorm::renorm(a);
            }
            let s = sqrt(&a);
            assert!(
                MultiFloat::<f64, N> { c: s }.is_nonoverlapping(),
                "overlapping sqrt: a={a:?} s={s:?}"
            );
            let exact = MpFloat::exact_sum(&a).sqrt(1200);
            let got = MpFloat::exact_sum(&s);
            let rel = got.rel_error_vs(&exact);
            worst = worst.max(rel);
            assert!(
                rel <= 2.0f64.powi(bound_exp),
                "error 2^{:.2} exceeds 2^{bound_exp}: a={a:?}",
                rel.log2()
            );
        }
        worst
    }

    #[test]
    fn sqrt2_accuracy() {
        let mut rng = SmallRng::seed_from_u64(500);
        let w = check_sqrt::<2>(&mut rng, -102, 10_000);
        eprintln!("sqrt2 worst rel error: 2^{:.2}", w.log2());
    }

    #[test]
    fn sqrt3_accuracy() {
        let mut rng = SmallRng::seed_from_u64(501);
        let w = check_sqrt::<3>(&mut rng, -154, 6_000);
        eprintln!("sqrt3 worst rel error: 2^{:.2}", w.log2());
    }

    #[test]
    fn sqrt4_accuracy() {
        let mut rng = SmallRng::seed_from_u64(502);
        let w = check_sqrt::<4>(&mut rng, -205, 4_000);
        eprintln!("sqrt4 worst rel error: 2^{:.2}", w.log2());
    }

    /// Worst log2 relative errors of `sqrt` and `rsqrt` over radicand heads
    /// `2^850..2^1023`, `draws` full expansions per exponent.
    fn large_radicand_errors<const N: usize>(rng: &mut SmallRng, draws: usize) -> (f64, f64) {
        let (mut w_sqrt, mut w_rsqrt) = (f64::MIN, f64::MIN);
        for e in 850..=1023 {
            for _ in 0..draws {
                let mut a = rand_expansion::<N>(rng, 1);
                if a[0].abs() < 1.0 {
                    continue; // keep the head in [1, 2), so it lands at 2^e
                }
                if a[0] < 0.0 {
                    a = crate::renorm::renorm(a.map(|v| -v));
                }
                let a = a.map(|v| v * 2.0f64.powi(e));
                let x = MpFloat::exact_sum(&a);
                let root = x.sqrt(1200);
                let inv = MpFloat::from_f64(1.0, 53).div(&root, 1200);
                let err = |got: [f64; N], want: &MpFloat| {
                    MpFloat::exact_sum(&got).rel_error_vs(want).log2()
                };
                w_sqrt = w_sqrt.max(err(sqrt(&a), &root));
                w_rsqrt = w_rsqrt.max(err(rsqrt(&a), &inv));
            }
        }
        (w_sqrt, w_rsqrt)
    }

    /// Large radicands keep the full-precision bound: the window top moves
    /// down with `N`, so the `N`-term `x² ≈ 1/a` never reaches the
    /// subnormal floor.
    #[test]
    fn large_radicands_keep_full_precision() {
        let mut rng = SmallRng::seed_from_u64(505);
        for (n, (ws, wr), bound) in [
            (2, large_radicand_errors::<2>(&mut rng, 6), -102.0),
            (3, large_radicand_errors::<3>(&mut rng, 6), -154.0),
            (4, large_radicand_errors::<4>(&mut rng, 6), -205.0),
        ] {
            eprintln!("N={n}: sqrt 2^{ws:.1}, rsqrt 2^{wr:.1}");
            assert!(
                ws <= bound && wr <= bound,
                "N={n}: sqrt 2^{ws:.1}, rsqrt 2^{wr:.1}"
            );
        }
    }

    #[test]
    fn rsqrt_times_sqrt_is_one() {
        let mut rng = SmallRng::seed_from_u64(503);
        for _ in 0..4_000 {
            let mut a = {
                let e0 = rng.gen_range(-20..20);
                rand_expansion::<3>(&mut rng, e0)
            };
            if a[0] == 0.0 {
                continue;
            }
            if a[0] < 0.0 {
                for v in &mut a {
                    *v = -*v;
                }
                a = crate::renorm::renorm(a);
            }
            let prod = mul(&sqrt(&a), &rsqrt(&a));
            let got = MpFloat::exact_sum(&prod);
            let one = MpFloat::from_f64(1.0, 53);
            assert!(got.rel_error_vs(&one) <= 2.0f64.powi(-150), "a={a:?}");
        }
    }

    #[test]
    fn perfect_squares_are_near_exact() {
        // Newton does not guarantee bit-exact results on perfect squares,
        // but the head must be exact and any tail must be far below the
        // format's precision (observed: ~2^-425 relative).
        for n in 1..200u32 {
            let sq = [(n * n) as f64, 0.0, 0.0, 0.0];
            let s = sqrt(&sq);
            assert_eq!(s[0], n as f64, "sqrt({})", n * n);
            assert!(
                s[1].abs() <= (n as f64) * 2.0f64.powi(-220),
                "sqrt({}) tail {:e}",
                n * n,
                s[1]
            );
        }
        // Powers of four are exact (the scalar seed is already exact).
        let v: [f64; 2] = [2.0f64.powi(100), 0.0];
        assert_eq!(sqrt(&v), [2.0f64.powi(50), 0.0]);
    }

    #[test]
    fn sqrt_special_values() {
        assert_eq!(sqrt(&[0.0f64, 0.0]), [0.0, 0.0]);
        let neg = sqrt(&[-1.0f64, 0.0]);
        assert!(neg[0].is_nan());
        let nan = sqrt(&[f64::NAN, 0.0]);
        assert!(nan[0].is_nan());
    }

    #[test]
    fn sqrt_squared_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(504);
        for _ in 0..4_000 {
            let a: f64 = rng.gen_range(0.01..100.0);
            let s: [f64; 4] = sqrt_scalar(a);
            let back = sqr(&s);
            let exact = MpFloat::from_f64(a, 53);
            let got = MpFloat::exact_sum(&back);
            assert!(got.rel_error_vs(&exact) <= 2.0f64.powi(-200), "a={a}");
        }
    }
}
