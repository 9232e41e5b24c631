//! Branch-free commutative multiplication FPANs (paper §4.2).
//!
//! Multiplication reduces to summation through the distributive law: the
//! exact product of two expansions is the sum of all pairwise component
//! products, each computable exactly by `TwoProd`. Two optimizations from
//! the paper are applied:
//!
//! * **Pruning**: with nonoverlapping inputs, the product term `p_ij` can be
//!   discarded whenever `i + j >= n` and the error term `e_ij` whenever
//!   `i + j + 1 >= n`, cutting the expansion step to `n(n-1)/2` `TwoProd`s
//!   plus `n` plain products and the accumulation FPAN to `n^2` inputs.
//! * **Commutativity layer**: symmetric terms `(p_ij, p_ji)` meet in a
//!   `TwoSum` (or plain add — also commutative) *first*, so the computed
//!   product is exactly invariant under swapping the operands. The paper
//!   notes this matters for complex arithmetic, where a non-commutative
//!   product gives `(a+bi)(a-bi)` a spurious imaginary part.
//!
//! The expansion step and gate lists of [`mul2`]/[`mul3`]/[`mul4`] live in
//! [`crate::nets`], which expands each into the kernel re-exported here and
//! into the data `mf-fpan` verifies. [`mul_scalar`] and [`sqr`] are
//! hand-written specializations.

use crate::nets::fit;
pub use crate::nets::{mul2, mul3, mul4};
use crate::renorm::renorm_m_to_n;
use mf_eft::{fast_two_sum, two_prod, two_sum, FloatBase};

/// Dispatch: multiply two `N`-term nonoverlapping expansions.
#[inline(always)]
pub fn mul<T: FloatBase, const N: usize>(x: &[T; N], y: &[T; N]) -> [T; N] {
    match N {
        1 => {
            let mut out = [T::ZERO; N];
            out[0] = x[0] * y[0];
            out
        }
        2 => fit(&mul2([x[0], x[1]], [y[0], y[1]])),
        3 => fit(&mul3([x[0], x[1], x[2]], [y[0], y[1], y[2]])),
        4 => fit(&mul4([x[0], x[1], x[2], x[3]], [y[0], y[1], y[2], y[3]])),
        _ => unreachable!("N is checked at construction"),
    }
}

/// Multiply an expansion by a single base-precision value.
#[inline(always)]
pub fn mul_scalar<T: FloatBase, const N: usize>(x: &[T; N], y: T) -> [T; N] {
    match N {
        1 => {
            let mut out = [T::ZERO; N];
            out[0] = x[0] * y;
            out
        }
        2 => {
            let (p0, e0) = two_prod(x[0], y);
            let p1 = x[1].mul_add(y, e0);
            let (z0, z1) = fast_two_sum(p0, p1);
            fit(&[z0, z1])
        }
        3 => {
            let (p0, e0) = two_prod(x[0], y);
            let (p1, e1) = two_prod(x[1], y);
            let p2 = x[2].mul_add(y, e1);
            let (s1, t1) = two_sum(p1, e0);
            let tail = p2 + t1;
            renorm_m_to_n([p0, s1, tail, T::ZERO])
        }
        4 => {
            let (p0, e0) = two_prod(x[0], y);
            let (p1, e1) = two_prod(x[1], y);
            let (p2, e2) = two_prod(x[2], y);
            let p3 = x[3].mul_add(y, e2);
            let (s1, t1) = two_sum(p1, e0);
            let (s2, t2) = two_sum(p2, e1);
            let (s2b, u1) = two_sum(s2, t1);
            let tail = (p3 + t2) + u1;
            renorm_m_to_n([p0, s1, s2b, tail, T::ZERO])
        }
        _ => unreachable!(),
    }
}

/// Squaring: exploits symmetry (`p_ij == p_ji`), saving the commutativity
/// layer and several products.
#[inline(always)]
pub fn sqr<T: FloatBase, const N: usize>(x: &[T; N]) -> [T; N] {
    match N {
        1 => {
            let mut out = [T::ZERO; N];
            out[0] = x[0] * x[0];
            out
        }
        2 => {
            let (p00, q00) = two_prod(x[0], x[0]);
            let cross = (x[0] * x[1]) * T::TWO;
            let lo = q00 + cross;
            let (z0, z1) = fast_two_sum(p00, lo);
            fit(&[z0, z1])
        }
        3 => {
            let (p00, q00) = two_prod(x[0], x[0]);
            let (p01, q01) = two_prod(x[0], x[1] + x[1]);
            let r2 = (x[0] * x[2]) * T::TWO;
            let r11 = x[1] * x[1];
            let (s1, c2) = two_sum(p01, q00);
            let t2 = ((q01 + r2) + r11) + c2;
            renorm_m_to_n([p00, s1, t2])
        }
        4 => {
            let (p00, q00) = two_prod(x[0], x[0]);
            let x1d = x[1] + x[1];
            let (p01, q01) = two_prod(x[0], x1d);
            let (p02, q02) = two_prod(x[0], x[2] + x[2]);
            let (p11, q11) = two_prod(x[1], x[1]);
            let r3 = (x[0] * x[3] + x[1] * x[2]) * T::TWO;
            let (s1, c2) = two_sum(p01, q00);
            let (t2, d3a) = two_sum(p02, p11);
            let (t2, d3b) = two_sum(t2, q01);
            let (t2, d3c) = two_sum(t2, c2);
            let t3 = ((q11 + q02) + r3) + ((d3a + d3b) + d3c);
            renorm_m_to_n([p00, s1, t2, t3])
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addition::tests::rand_in;
    use crate::MultiFloat;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact_product(x: &[f64], y: &[f64]) -> MpFloat {
        let prec = 5000;
        let xs = MpFloat::exact_sum(x);
        let ys = MpFloat::exact_sum(y);
        xs.mul(&ys, prec)
    }

    fn check_mul<const N: usize>(rng: &mut SmallRng, bound_exp: i32, iters: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..iters {
            let x = rand_in::<N>(rng, -30..30);
            let y = rand_in::<N>(rng, -30..30);
            let z = mul(&x, &y);
            let mfz = MultiFloat::<f64, N> { c: z };
            assert!(
                mfz.is_nonoverlapping(),
                "overlapping output: x={x:?} y={y:?} z={z:?}"
            );
            let exact = exact_product(&x, &y);
            let got = MpFloat::exact_sum(&z);
            if exact.is_zero() {
                assert!(got.is_zero(), "x={x:?} y={y:?} z={z:?}");
                continue;
            }
            let rel = got.rel_error_vs(&exact);
            worst = worst.max(rel);
            assert!(
                rel <= 2.0f64.powi(bound_exp),
                "error 2^{:.2} exceeds 2^{bound_exp}: x={x:?} y={y:?}",
                rel.log2()
            );
        }
        worst
    }

    #[test]
    fn mul2_error_bound() {
        // Paper Figure 5: 2^-(2p-3) = 2^-103.
        let mut rng = SmallRng::seed_from_u64(300);
        let worst = check_mul::<2>(&mut rng, -103, 40_000);
        eprintln!("mul2 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn mul3_error_bound() {
        // Paper Figure 6: 2^-(3p-3) = 2^-156.
        let mut rng = SmallRng::seed_from_u64(301);
        let worst = check_mul::<3>(&mut rng, -156, 30_000);
        eprintln!("mul3 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn mul4_error_bound() {
        // Paper Figure 7: 2^-(4p-4) = 2^-208.
        let mut rng = SmallRng::seed_from_u64(302);
        let worst = check_mul::<4>(&mut rng, -208, 20_000);
        eprintln!("mul4 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn multiplication_is_exactly_commutative() {
        // The paper's §4.2 headline property: bitwise identical results
        // under operand swap, at every N.
        let mut rng = SmallRng::seed_from_u64(303);
        for _ in 0..20_000 {
            let x2 = rand_in::<2>(&mut rng, -30..30);
            let y2 = rand_in::<2>(&mut rng, -30..30);
            assert_eq!(mul(&x2, &y2), mul(&y2, &x2), "x={x2:?} y={y2:?}");
            let x3 = rand_in::<3>(&mut rng, -30..30);
            let y3 = rand_in::<3>(&mut rng, -30..30);
            assert_eq!(mul(&x3, &y3), mul(&y3, &x3), "x={x3:?} y={y3:?}");
            let x4 = rand_in::<4>(&mut rng, -30..30);
            let y4 = rand_in::<4>(&mut rng, -30..30);
            assert_eq!(mul(&x4, &y4), mul(&y4, &x4), "x={x4:?} y={y4:?}");
        }
    }

    #[test]
    fn mul_by_one_and_zero() {
        let mut rng = SmallRng::seed_from_u64(304);
        let mut one4 = [0.0f64; 4];
        one4[0] = 1.0;
        for _ in 0..5_000 {
            let x = rand_in::<4>(&mut rng, -30..30);
            assert_eq!(mul(&x, &one4), x, "x * 1 != x for x={x:?}");
            assert_eq!(mul(&x, &[0.0; 4]), [0.0; 4]);
        }
    }

    #[test]
    fn mul_powers_of_two_exact() {
        let mut rng = SmallRng::seed_from_u64(305);
        for _ in 0..5_000 {
            let x = rand_in::<3>(&mut rng, -30..30);
            let two = {
                let mut t = [0.0f64; 3];
                t[0] = 2.0;
                t
            };
            let d = mul(&x, &two);
            for i in 0..3 {
                assert_eq!(d[i], 2.0 * x[i], "x={x:?}");
            }
        }
    }

    #[test]
    fn sqr_matches_mul_value() {
        let mut rng = SmallRng::seed_from_u64(306);
        for _ in 0..20_000 {
            let x = rand_in::<4>(&mut rng, -20..20);
            let s = sqr(&x);
            let exact = exact_product(&x, &x);
            let got = MpFloat::exact_sum(&s);
            if exact.is_zero() {
                assert!(got.is_zero());
                continue;
            }
            assert!(
                got.rel_error_vs(&exact) <= 2.0f64.powi(-205),
                "x={x:?} s={s:?}"
            );
            assert!(MultiFloat::<f64, 4> { c: s }.is_nonoverlapping(), "x={x:?}");
        }
        for _ in 0..20_000 {
            let x = rand_in::<2>(&mut rng, -20..20);
            let s = sqr(&x);
            let exact = exact_product(&x, &x);
            let got = MpFloat::exact_sum(&s);
            if exact.is_zero() {
                assert!(got.is_zero());
                continue;
            }
            assert!(got.rel_error_vs(&exact) <= 2.0f64.powi(-102), "x={x:?}");
        }
    }

    #[test]
    fn mul_scalar_matches_full_mul() {
        let mut rng = SmallRng::seed_from_u64(307);
        for _ in 0..20_000 {
            let x = rand_in::<3>(&mut rng, -20..20);
            let y: f64 = rng.gen_range(-2.0..2.0);
            if y == 0.0 {
                continue;
            }
            let got = mul_scalar(&x, y);
            let exact = exact_product(&x, &[y]);
            let got_mp = MpFloat::exact_sum(&got);
            if exact.is_zero() {
                assert!(got_mp.is_zero());
                continue;
            }
            assert!(
                got_mp.rel_error_vs(&exact) <= 2.0f64.powi(-155),
                "x={x:?} y={y:e}"
            );
        }
    }

    #[test]
    fn complex_conjugate_product_is_real() {
        // The motivating example from §4.2: (a+bi)(a-bi) must have exactly
        // zero imaginary part. Im = b*a + a*(-b) computed with the same
        // commutative kernel.
        let mut rng = SmallRng::seed_from_u64(308);
        for _ in 0..10_000 {
            let a = rand_in::<2>(&mut rng, -10..10);
            let b = rand_in::<2>(&mut rng, -10..10);
            let nb = [-b[0], -b[1]];
            // Im((a+bi)(a+(-b)i)) = a*(-b) + b*a
            let t1 = mul(&a, &nb);
            let t2 = mul(&b, &a);
            let im = crate::addition::add(&t1, &t2);
            assert_eq!(im, [0.0; 2], "a={a:?} b={b:?} t1={t1:?} t2={t2:?}");
        }
    }
}
