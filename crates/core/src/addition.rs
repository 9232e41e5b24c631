//! Branch-free addition and subtraction FPANs (paper §4.1).
//!
//! Each kernel is a fixed sequence of gates with the structure the paper
//! describes: an initial layer of `TwoSum` gates pairing corresponding terms
//! `(x_i, y_i)` of the two input expansions (which makes the sum exactly
//! invariant under swapping the operands — commutativity), followed by an
//! error-absorption cascade, followed by renormalization. The discarded
//! error terms are bounded relative to the leading output (paper Figures
//! 2–4 captions); the achieved bounds are measured by the E5 experiment and
//! asserted by `tests/error_bounds.rs`.
//!
//! The gate lists of [`add2`]/[`add3`]/[`add4`] live in [`crate::nets`],
//! which expands each into the kernel re-exported here and into the data
//! `mf-fpan` verifies. The exact gate diagrams of the paper's Figures 2–4
//! are images and not recoverable from its text; the 2-term network is the
//! provably correct `AccurateDWPlusDW` sequence (Joldes–Muller–Popescu
//! 2017, Algorithm 6) whose size (6) and depth (4) match the paper's
//! optimal network, and the 3/4-term networks follow the paper's own
//! construction recipe (see DESIGN.md substitution T8).

use crate::nets::fit;
pub use crate::nets::{add2, add3, add4};
use crate::renorm::renorm_m_to_n;
use mf_eft::{fast_two_sum, two_sum, FloatBase};

/// Dispatch: add two `N`-term nonoverlapping expansions, producing an
/// `N`-term nonoverlapping expansion of their sum.
#[inline(always)]
pub fn add<T: FloatBase, const N: usize>(x: &[T; N], y: &[T; N]) -> [T; N] {
    match N {
        1 => {
            let mut out = [T::ZERO; N];
            out[0] = x[0] + y[0];
            out
        }
        2 => fit(&add2([x[0], x[1]], [y[0], y[1]])),
        3 => fit(&add3([x[0], x[1], x[2]], [y[0], y[1], y[2]])),
        4 => fit(&add4([x[0], x[1], x[2], x[3]], [y[0], y[1], y[2], y[3]])),
        _ => unreachable!("N is checked at construction"),
    }
}

/// Add a single base-precision value to an expansion.
#[inline(always)]
pub fn add_scalar<T: FloatBase, const N: usize>(x: &[T; N], y: T) -> [T; N] {
    match N {
        1 => {
            let mut out = [T::ZERO; N];
            out[0] = x[0] + y;
            out
        }
        2 => fit(&add2_scalar([x[0], x[1]], y)),
        3 => {
            let (s0, e0) = two_sum(x[0], y);
            renorm_m_to_n([s0, x[1], x[2], e0])
        }
        4 => {
            let (s0, e0) = two_sum(x[0], y);
            renorm_m_to_n([s0, x[1], x[2], x[3], e0])
        }
        _ => unreachable!(),
    }
}

/// 2-term + scalar: `DWPlusFP` (size 4): exact except the final
/// renormalizing `FastTwoSum` (error `<= 2u^2 |x + y|`).
#[inline(always)]
pub fn add2_scalar<T: FloatBase>(x: [T; 2], y: T) -> [T; 2] {
    let (s, e) = two_sum(x[0], y);
    let v = x[1] + e;
    let (z0, z1) = fast_two_sum(s, v);
    [z0, z1]
}

/// Generic-N addition (DESIGN.md ablation §3.1): the uniform construction
/// — pairing layer, triangular absorption, descending tail fold,
/// renormalization — written as loops over `N`. The fixed kernels
/// [`add3`]/[`add4`] are exactly this sequence unrolled, and the test suite
/// checks bitwise agreement; this version exists to (a) prove that claim
/// independently of the gate lists in [`crate::nets`], which both the
/// kernels and `mf-fpan`'s networks are expanded from, and (b) measure what
/// the compiler does with the rolled form.
pub fn add_generic<T: FloatBase, const N: usize>(x: &[T; N], y: &[T; N]) -> [T; N] {
    if N == 1 {
        let mut out = [T::ZERO; N];
        out[0] = x[0] + y[0];
        return out;
    }
    let mut s = [T::ZERO; N];
    let mut e = [T::ZERO; N];
    // Pairing layer (commutativity layer).
    for i in 0..N {
        let (si, ei) = two_sum(x[i], y[i]);
        s[i] = si;
        e[i] = ei;
    }
    // Triangular absorption: sweep k drops each surviving error one level.
    for k in 1..N {
        for i in k..N {
            let (si, ei) = two_sum(s[i], e[i - k]);
            s[i] = si;
            e[i - k] = ei;
        }
    }
    // Tail fold, descending (matches the unrolled kernels' association).
    let mut tail = e[N - 1];
    for i in (0..N - 1).rev() {
        tail = tail + e[i];
    }
    // Renormalize [s..., tail] in a fixed-capacity buffer (N <= 4).
    let mut buf = [T::ZERO; 5];
    buf[..N].copy_from_slice(&s);
    buf[N] = tail;
    crate::renorm::renorm_slice(&mut buf[..N + 1]);
    let mut out = [T::ZERO; N];
    out.copy_from_slice(&buf[..N]);
    out
}

/// Subtraction: negate and add (negation is exact).
#[inline(always)]
pub fn sub<T: FloatBase, const N: usize>(x: &[T; N], y: &[T; N]) -> [T; N] {
    let mut ny = *y;
    for v in &mut ny {
        *v = -*v;
    }
    add(x, &ny)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MultiFloat;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    /// Random nonoverlapping N-term expansion with leading exponent `e0`
    /// and occasional zero tails / boundary gaps.
    pub(crate) fn rand_expansion<const N: usize>(rng: &mut SmallRng, e0: i32) -> [f64; N] {
        let mut c = [0.0f64; N];
        let mut e = e0;
        for slot in c.iter_mut().take(N) {
            // Occasionally truncate the expansion early.
            if rng.gen_ratio(1, 12) {
                break;
            }
            let m: f64 = rng.gen_range(-1.0f64..1.0);
            if m == 0.0 {
                break;
            }
            *slot = m * 2.0f64.powi(e);
            // Next term strictly below half an ulp of this one; sometimes
            // exactly at the boundary, sometimes with a wide gap.
            let gap = if rng.gen_ratio(1, 8) {
                0
            } else {
                rng.gen_range(0..8)
            };
            e = FloatBase::exponent(*slot) - 53 - gap;
            if e < -1000 {
                break;
            }
        }
        crate::renorm::renorm(c)
    }

    /// [`rand_expansion`] with its leading exponent drawn from `range`.
    pub(crate) fn rand_in<const N: usize>(rng: &mut SmallRng, range: Range<i32>) -> [f64; N] {
        let e0 = rng.gen_range(range);
        rand_expansion(rng, e0)
    }

    fn exact(v: &[f64]) -> MpFloat {
        MpFloat::exact_sum(v)
    }

    fn check_add<const N: usize>(rng: &mut SmallRng, bound_exp: i32, iters: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..iters {
            let e0 = rng.gen_range(-40..40);
            // Sometimes make the operands close in magnitude (cancellation),
            // sometimes far apart.
            let e1 = if rng.gen_ratio(1, 2) {
                e0 + rng.gen_range(-2..3)
            } else {
                rng.gen_range(-40..40)
            };
            let x = rand_expansion::<N>(rng, e0);
            let y = {
                let mut y = rand_expansion::<N>(rng, e1);
                // Half the time force heavy cancellation on the head.
                if rng.gen_ratio(1, 4) {
                    y[0] = -x[0];
                    y = crate::renorm::renorm(y);
                }
                y
            };
            let z = add(&x, &y);
            let mf = MultiFloat::<f64, N> { c: z };
            assert!(
                mf.is_nonoverlapping(),
                "overlapping output: x={x:?} y={y:?} z={z:?}"
            );
            let exact_sum = {
                let mut all = x.to_vec();
                all.extend_from_slice(&y);
                exact(&all)
            };
            let got = exact(&z);
            if exact_sum.is_zero() {
                assert!(got.is_zero(), "x={x:?} y={y:?} z={z:?}");
                continue;
            }
            let rel = got.rel_error_vs(&exact_sum);
            worst = worst.max(rel);
            assert!(
                rel <= 2.0f64.powi(bound_exp),
                "error 2^{:.2} exceeds 2^{bound_exp}: x={x:?} y={y:?} z={z:?}",
                rel.log2()
            );
        }
        worst
    }

    #[test]
    fn add2_error_bound() {
        // Paper Figure 2: bound 2^-(2p-1) = 2^-105. AccurateDWPlusDW's
        // proven bound is 3u^2 ≈ 2^-104.4; assert 2^-104.
        let mut rng = SmallRng::seed_from_u64(200);
        let worst = check_add::<2>(&mut rng, -104, 40_000);
        eprintln!("add2 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn add3_error_bound() {
        // Paper Figure 3: bound 2^-(3p-3) = 2^-156.
        let mut rng = SmallRng::seed_from_u64(201);
        let worst = check_add::<3>(&mut rng, -156, 30_000);
        eprintln!("add3 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn add4_error_bound() {
        // Paper Figure 4: bound 2^-(4p-4) = 2^-208.
        let mut rng = SmallRng::seed_from_u64(202);
        let worst = check_add::<4>(&mut rng, -208, 20_000);
        eprintln!("add4 worst observed rel error: 2^{:.2}", worst.log2());
    }

    #[test]
    fn addition_is_commutative() {
        let mut rng = SmallRng::seed_from_u64(203);
        for _ in 0..20_000 {
            let x = rand_in::<3>(&mut rng, -30..30);
            let y = rand_in::<3>(&mut rng, -30..30);
            assert_eq!(add(&x, &y), add(&y, &x), "x={x:?} y={y:?}");
        }
        for _ in 0..20_000 {
            let x = rand_in::<4>(&mut rng, -30..30);
            let y = rand_in::<4>(&mut rng, -30..30);
            assert_eq!(add(&x, &y), add(&y, &x), "x={x:?} y={y:?}");
        }
    }

    #[test]
    fn add_zero_is_identity() {
        let mut rng = SmallRng::seed_from_u64(204);
        let zero2 = [0.0f64; 2];
        let zero3 = [0.0f64; 3];
        let zero4 = [0.0f64; 4];
        for _ in 0..5_000 {
            let x2 = rand_in::<2>(&mut rng, -30..30);
            assert_eq!(add(&x2, &zero2), x2, "x={x2:?}");
            let x3 = rand_in::<3>(&mut rng, -30..30);
            assert_eq!(add(&x3, &zero3), x3, "x={x3:?}");
            let x4 = rand_in::<4>(&mut rng, -30..30);
            assert_eq!(add(&x4, &zero4), x4, "x={x4:?}");
        }
    }

    #[test]
    fn x_minus_x_is_zero() {
        let mut rng = SmallRng::seed_from_u64(205);
        for _ in 0..10_000 {
            let x = rand_in::<4>(&mut rng, -30..30);
            let z = sub(&x, &x);
            assert_eq!(z, [0.0; 4], "x={x:?}");
        }
    }

    #[test]
    fn add_scalar_matches_full_add() {
        let mut rng = SmallRng::seed_from_u64(206);
        for _ in 0..20_000 {
            let x = rand_in::<2>(&mut rng, -20..20);
            let y: f64 = rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-20..20));
            let got = add_scalar(&x, y);
            // Compare against the exact sum.
            let exact_sum = exact(&[x[0], x[1], y]);
            let got_mp = exact(&got);
            if exact_sum.is_zero() {
                assert!(got_mp.is_zero());
                continue;
            }
            assert!(
                got_mp.rel_error_vs(&exact_sum) <= 2.0f64.powi(-104),
                "x={x:?} y={y:?}"
            );
        }
    }

    #[test]
    fn add_generic_matches_fixed_kernels_bitwise() {
        // The N=3/4 fixed kernels are the generic construction unrolled
        // (N=2 instead ships the cheaper proven AccurateDWPlusDW, so only
        // its *accuracy* is compared, below in add_generic_accuracy).
        let mut rng = SmallRng::seed_from_u64(250);
        for _ in 0..20_000 {
            let x3 = rand_in::<3>(&mut rng, -30..30);
            let y3 = rand_in::<3>(&mut rng, -30..30);
            assert_eq!(
                add(&x3, &y3),
                add_generic(&x3, &y3),
                "N=3 x={x3:?} y={y3:?}"
            );
            let x4 = rand_in::<4>(&mut rng, -30..30);
            let y4 = rand_in::<4>(&mut rng, -30..30);
            assert_eq!(
                add(&x4, &y4),
                add_generic(&x4, &y4),
                "N=4 x={x4:?} y={y4:?}"
            );
        }
    }

    #[test]
    fn add_generic_accuracy_n2() {
        let mut rng = SmallRng::seed_from_u64(251);
        for _ in 0..20_000 {
            let x = rand_in::<2>(&mut rng, -30..30);
            let y = rand_in::<2>(&mut rng, -30..30);
            let z = add_generic(&x, &y);
            assert!(
                MultiFloat::<f64, 2> { c: z }.is_nonoverlapping(),
                "x={x:?} y={y:?} z={z:?}"
            );
            let mut all = x.to_vec();
            all.extend_from_slice(&y);
            let exact_sum = exact(&all);
            let got = exact(&z);
            if exact_sum.is_zero() {
                assert!(got.is_zero());
                continue;
            }
            assert!(
                got.rel_error_vs(&exact_sum) <= 2.0f64.powi(-104),
                "x={x:?} y={y:?}"
            );
        }
    }

    #[test]
    fn boundary_half_ulp_tails() {
        // Tails exactly at the ulp/2 nonoverlap boundary.
        let x = [1.0, 2.0f64.powi(-53)];
        let y = [1.0, 2.0f64.powi(-53)];
        let z = add2(x, y);
        assert_eq!(exact(&z).to_f64(), 2.0 + 2.0f64.powi(-52));
        let m = MultiFloat::<f64, 2> { c: z };
        assert!(m.is_nonoverlapping());
    }

    #[test]
    fn massive_cancellation_keeps_low_bits() {
        // (1 + a) - (1 + b) where a, b differ only deep in the tail: the
        // result must be exactly a - b.
        let a = 2.0f64.powi(-70);
        let b = 2.0f64.powi(-71);
        let x = [1.0, a];
        let y = [-1.0, -b];
        let z = add2(x, y);
        assert_eq!(exact(&z).to_f64(), a - b);
    }
}
