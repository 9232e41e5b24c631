//! Array-of-structs BLAS kernels, generic over [`Scalar`].
//!
//! These are the straightforward formulations every library is benchmarked
//! with (the paper compiles each library's kernels "with identical
//! parallelization strategies, using ij loop ordering for GEMV and ikj
//! loop ordering for GEMM").
//!
//! Every kernel runs its `#[inline(always)]` `*_body` through
//! [`fma_frame`]: inside the crate's one AVX2+FMA frame when the
//! active realization is an x86 vector ISA, so the EFT `mul_add`s lower to
//! `vfmadd` instead of soft-float libm calls, and portably otherwise. Both
//! lowerings are correctly rounded, so the results are bit-identical; the
//! check is one cached atomic load per kernel call. Each wrapper reports
//! the kernel's `(adds, muls)` once through [`Scalar::s_record_ops`]
//! before entering the frame; the bodies carry no probe state.

use crate::simd::fma_frame;
use crate::{Matrix, Scalar};
use core::ops::Range;
use mf_telemetry::audit::{self, OpClass};

#[inline(always)]
pub(crate) fn axpy_body<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = yi.s_mul_acc(alpha, xi);
    }
}

/// `y <- alpha * x + y`.
///
/// Shadow-oracle audit: with probability `len · rate` one element `j` is
/// drawn per call and `y_out[j] ?= alpha·x[j] + y_in[j]` is recomputed
/// exactly on the background auditor ([`mf_telemetry::audit`]). The
/// sampled read happens outside the kernel loop, so the kernel stays
/// bit-identical to `axpy_body` whether or not the draw hits.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    let picked = audit::should_sample_index(x.len());
    let before = picked.map(|j| (j, y[j]));
    S::s_record_ops(x.len(), x.len());
    fma_frame(
        #[inline(always)]
        || axpy_body(alpha, x, y),
    );
    if let Some((j, yj)) = before {
        crate::audit_submit(OpClass::Axpy, alpha, x[j], yj, y[j]);
    }
}

#[inline(always)]
pub(crate) fn dot_body<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len());
    let mut acc = S::s_zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc = acc.s_mul_acc(xi, yi);
    }
    acc
}

/// Dot product `x · y`.
///
/// Shadow-oracle audit: with probability `len · rate` one element `j` is
/// drawn and its product term `x[j]·y[j]` is recomputed through the same
/// scalar kernel, then scored exactly by the background auditor (class
/// `dot`, `c = 0`). The accumulator itself is not intercepted — the
/// sampled term exercises the type's multiply path without perturbing or
/// re-running the reduction.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    S::s_record_ops(x.len(), x.len());
    let acc = fma_frame(
        #[inline(always)]
        || dot_body(x, y),
    );
    if let Some(j) = audit::should_sample_index(x.len()) {
        crate::audit_submit(OpClass::Dot, x[j], y[j], S::s_zero(), x[j].s_mul(y[j]));
    }
    acc
}

/// `y <- alpha * A * x + beta * y`, `ij` loop order (row-major `A`).
///
/// Standard BLAS semantics: `beta == 0` *overwrites* `y` without reading
/// it, so NaN/Inf in an uninitialized output buffer never propagates. The
/// branch is hoisted out of the row loop; the loop bodies stay branch-free.
///
/// Each row is the serial chain of [`dot`]; `MultiFloat<f64, N>` runs
/// eight rows at a time on the [`crate::simd`] row engine
/// ([`Scalar::s_dot_rows`]) with the same bits.
pub fn gemv<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(a.rows, y.len());
    let (adds, muls) = gemv_ops(a.rows, a.cols, beta.s_is_zero());
    S::s_record_ops(adds, muls);
    gemv_rows(alpha, a, x, beta, y, 0);
}

/// Rows `lo..lo + y.len()` of [`gemv`], `y` holding just those rows: the
/// block the serial kernel runs whole and [`crate::parallel::gemv`] runs
/// per chunk. Reports no operation count (its callers report the whole
/// GEMV once) and makes one shadow-oracle draw ([`audit_rows`]).
pub(crate) fn gemv_rows<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    x: &[S],
    beta: S,
    y: &mut [S],
    lo: usize,
) {
    fma_frame(
        #[inline(always)]
        || gemv_rows_body(alpha, a, x, beta, y, lo),
    )
}

#[inline(always)]
pub(crate) fn gemv_rows_body<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    x: &[S],
    beta: S,
    y: &mut [S],
    lo: usize,
) {
    assert_eq!(a.cols, x.len());
    let rows = lo..lo + y.len();
    audit_rows(y.len(), a.cols, |i, j| (a.at(lo + i, j), x[j]));
    if beta.s_is_zero() {
        S::s_dot_rows(a, x, rows, |i, acc| y[i - lo] = alpha.s_mul(acc));
    } else {
        S::s_dot_rows(a, x, rows, |i, acc| {
            y[i - lo] = beta.s_mul(y[i - lo]).s_add(alpha.s_mul(acc));
        });
    }
}

/// The serial GEMV row loop, one [`dot`] chain per row: the default
/// [`Scalar::s_dot_rows`].
#[inline(always)]
pub(crate) fn dot_rows_serial<S: Scalar>(
    a: &Matrix<S>,
    x: &[S],
    rows: Range<usize>,
    mut emit: impl FnMut(usize, S),
) {
    for i in rows {
        emit(i, dot_body(a.row(i), x));
    }
}

/// One shadow-oracle draw per row-engine call over its `rows x cols`
/// products: a hit at `(i, j)` (`i` relative to the call's first row)
/// submits the product `a_ij · x_j`, from `at(i, j)`, as class `dot`,
/// exactly as [`dot`] submits its sampled term.
#[inline]
pub(crate) fn audit_rows<S: Scalar>(
    rows: usize,
    cols: usize,
    at: impl FnOnce(usize, usize) -> (S, S),
) {
    if let Some(k) = audit::should_sample_index(rows * cols) {
        let (a, x) = at(k / cols, k % cols);
        crate::audit_submit(OpClass::Dot, a, x, S::s_zero(), a.s_mul(x));
    }
}

/// `C <- alpha * A * B + beta * C`, `ikj` loop order.
pub fn gemm<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    assert_eq!(a.cols, b.rows);
    assert_eq!(c.rows, a.rows);
    assert_eq!(c.cols, b.cols);
    let (adds, muls) = gemm_ops(a.rows, a.cols, b.cols, beta.s_is_zero());
    S::s_record_ops(adds, muls);
    gemm_rows(alpha, a, b, beta, &mut c.data, 0);
}

/// Output rows `lo..` of [`gemm`], `c` holding just those rows (row-major,
/// `b.cols` wide): the block the serial kernel runs whole and
/// [`crate::parallel::gemm`] runs per chunk. Reports no operation count
/// (its callers report the whole GEMM once).
pub(crate) fn gemm_rows<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut [S],
    lo: usize,
) {
    fma_frame(
        #[inline(always)]
        || gemm_rows_body(alpha, a, b, beta, c, lo),
    )
}

#[inline(always)]
pub(crate) fn gemm_rows_body<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut [S],
    lo: usize,
) {
    // Scale C by beta first (ikj accumulates into C). beta == 0 overwrites
    // instead of scaling (standard BLAS semantics: garbage/NaN in C must
    // not propagate); the branch is per-call, the loops stay branch-free.
    if beta.s_is_zero() {
        for v in c.iter_mut() {
            *v = S::s_zero();
        }
    } else {
        for v in c.iter_mut() {
            *v = beta.s_mul(*v);
        }
    }
    let n = b.cols;
    for (r, crow) in c.chunks_exact_mut(n.max(1)).enumerate() {
        for k in 0..a.cols {
            let aik = alpha.s_mul(a.at(lo + r, k));
            let brow = &b.data[k * n..(k + 1) * n];
            for j in 0..n {
                crow[j] = crow[j].s_mul_acc(aik, brow[j]);
            }
        }
    }
}

/// `(adds, muls)` of an `m x k` GEMV: `m` dot rows of `k` mul-adds, one
/// `alpha·row` per row, and with `beta ≠ 0` one `beta·y` and one add more.
pub(crate) fn gemv_ops(m: usize, k: usize, beta_zero: bool) -> (usize, usize) {
    let extra = usize::from(!beta_zero) * m;
    (m * k + extra, m * k + m + extra)
}

/// `(adds, muls)` of an `m x k` by `k x n` GEMM in `ikj` order: `m·k·n`
/// mul-adds, one `alpha·a_ik` per `(i, k)`, and with `beta ≠ 0` one
/// `beta·c_ij` per output.
pub(crate) fn gemm_ops(m: usize, k: usize, n: usize, beta_zero: bool) -> (usize, usize) {
    let scale = usize::from(!beta_zero) * m * n;
    (m * k * n, m * k * n + m * k + scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_baselines::dd::DoubleDouble;
    use mf_baselines::qd::QuadDouble;
    use mf_core::{F64x2, F64x3, F64x4};
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn dot_matches_exact_oracle_where_f64_fails() {
        // Ill-conditioned dot product: huge cancellation.
        let mut rng = SmallRng::seed_from_u64(900);
        for _ in 0..50 {
            let n = 200;
            let mut x = rand_vec(&mut rng, n);
            let mut y = rand_vec(&mut rng, n);
            // Plant cancelling pairs scaled by 1e15.
            for k in 0..n / 4 {
                let big = rng.gen_range(0.5..1.0) * 1e15;
                x[4 * k] = big;
                y[4 * k] = 1.0;
                x[4 * k + 1] = -big;
                y[4 * k + 1] = 1.0;
            }
            let exact = MpFloat::exact_dot(&x, &y).to_f64();

            let xs: Vec<F64x2> = x.iter().map(|&v| F64x2::from(v)).collect();
            let ys: Vec<F64x2> = y.iter().map(|&v| F64x2::from(v)).collect();
            let d2 = dot(&xs, &ys).to_f64();
            assert!(
                (d2 - exact).abs() <= 1e-12 * exact.abs().max(1.0),
                "F64x2 dot off: {d2:e} vs {exact:e}"
            );

            let xs: Vec<F64x4> = x.iter().map(|&v| F64x4::from(v)).collect();
            let ys: Vec<F64x4> = y.iter().map(|&v| F64x4::from(v)).collect();
            let d4 = dot(&xs, &ys).to_f64();
            assert!(
                (d4 - exact).abs() <= 1e-12 * exact.abs().max(1.0),
                "F64x4 dot off: {d4:e} vs {exact:e}"
            );
        }
    }

    #[test]
    fn axpy_linear_in_alpha() {
        let mut rng = SmallRng::seed_from_u64(901);
        let n = 257;
        let x: Vec<F64x3> = (0..n)
            .map(|_| F64x3::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let y0: Vec<F64x3> = (0..n)
            .map(|_| F64x3::from(rng.gen_range(-1.0..1.0)))
            .collect();
        // axpy(a, x, axpy(b, x, y)) == axpy(a+b, x, y) to working precision.
        let (a, b) = (F64x3::from(0.3), F64x3::from(0.7));
        let mut y1 = y0.clone();
        axpy(b, &x, &mut y1);
        axpy(a, &x, &mut y1);
        let mut y2 = y0.clone();
        axpy(a.add(b), &x, &mut y2);
        for i in 0..n {
            let d = y1[i].sub(y2[i]).abs().to_f64();
            assert!(d <= 1e-45 * y2[i].abs().to_f64().max(1e-30), "i={i}");
        }
    }

    #[test]
    fn gemv_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(902);
        let (m, n) = (23, 31);
        let a = Matrix::from_fn(m, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let x: Vec<F64x2> = (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let mut y: Vec<F64x2> = (0..m)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let y0 = y.clone();
        let alpha = F64x2::from(1.5);
        let beta = F64x2::from(-0.5);
        gemv(alpha, &a, &x, beta, &mut y);
        // Reference in exact arithmetic.
        for i in 0..m {
            let mut row64 = Vec::new();
            let mut x64 = Vec::new();
            for j in 0..n {
                row64.push(a.at(i, j).to_f64());
                x64.push(x[j].to_f64());
            }
            let exact = 1.5 * MpFloat::exact_dot(&row64, &x64).to_f64() - 0.5 * y0[i].to_f64();
            assert!(
                (y[i].to_f64() - exact).abs() <= 1e-10 * exact.abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn gemm_matches_gemv_columnwise() {
        let mut rng = SmallRng::seed_from_u64(903);
        let (m, k, n) = (9, 11, 7);
        let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let b = Matrix::from_fn(k, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let mut c = Matrix::from_fn(m, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let c0 = c.clone();
        let alpha = F64x2::from(2.0);
        let beta = F64x2::from(0.25);
        gemm(alpha, &a, &b, beta, &mut c);
        // Column j of C equals gemv(alpha, A, B[:,j], beta, C0[:,j]).
        for j in 0..n {
            let bj: Vec<F64x2> = (0..k).map(|r| b.at(r, j)).collect();
            let mut yj: Vec<F64x2> = (0..m).map(|i| c0.at(i, j)).collect();
            gemv(alpha, &a, &bj, beta, &mut yj);
            for i in 0..m {
                let d = c.at(i, j).sub(yj[i]).abs().to_f64();
                assert!(d <= 1e-26, "c[{i}][{j}] d={d:e}");
            }
        }
    }

    /// Regression: `beta == 0` must overwrite the output, never read it.
    /// The old kernels computed `beta * y[i]` / `beta * C` unconditionally,
    /// so a NaN-poisoned (uninitialized/garbage) output buffer produced
    /// `0 * NaN = NaN` and the result was destroyed.
    #[test]
    fn beta_zero_overwrites_poisoned_output() {
        let mut rng = SmallRng::seed_from_u64(905);
        let (m, k, n) = (7, 9, 5);
        let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let b = Matrix::from_fn(k, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let x: Vec<F64x2> = (0..k)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let alpha = F64x2::from(1.5);
        let beta = F64x2::from(0.0);

        // gemv: y poisoned with NaN and Inf.
        let mut y = vec![F64x2::from(f64::NAN); m];
        y[1] = F64x2::from(f64::INFINITY);
        gemv(alpha, &a, &x, beta, &mut y);
        let mut y_clean = vec![F64x2::ZERO; m];
        gemv(alpha, &a, &x, beta, &mut y_clean);
        for i in 0..m {
            assert!(y[i].to_f64().is_finite(), "gemv row {i} kept the poison");
            assert_eq!(y[i].components(), y_clean[i].components(), "row {i}");
        }

        // gemm: C poisoned with NaN.
        let mut c = Matrix::from_fn(m, n, |_, _| F64x2::from(f64::NAN));
        gemm(alpha, &a, &b, beta, &mut c);
        let mut c_clean = Matrix::from_fn(m, n, |_, _| F64x2::ZERO);
        gemm(alpha, &a, &b, beta, &mut c_clean);
        for i in 0..m * n {
            assert!(c.data[i].to_f64().is_finite(), "gemm elem {i} kept NaN");
            assert_eq!(c.data[i].components(), c_clean.data[i].components());
        }
    }

    fn gemv_rows_case<const N: usize>() {
        use mf_core::MultiFloat;
        let mut rng = SmallRng::seed_from_u64(907 + N as u64);
        let mut mf = || {
            MultiFloat::<f64, N>::from_components_renorm(core::array::from_fn(|k| {
                rng.gen_range(-1.0..1.0f64) * 2f64.powi(-53 * k as i32)
            }))
        };
        let alpha = mf();
        let beta = mf();
        let zero = MultiFloat::<f64, N>::ZERO;
        let bits = |v: &[MultiFloat<f64, N>]| {
            v.iter()
                .map(|m| m.components().map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        for rows in [0usize, 1, 7, 8, 9, 17, 192] {
            for cols in [0usize, 1, 9, 64] {
                let a = Matrix::from_fn(rows, cols, |_, _| mf());
                let x: Vec<_> = (0..cols).map(|_| mf()).collect();
                let y0: Vec<_> = (0..rows).map(|_| mf()).collect();
                let dots: Vec<_> = (0..rows).map(|i| dot_body(a.row(i), &x)).collect();
                let want_zero: Vec<_> = dots.iter().map(|&d| alpha.mul(d)).collect();
                let want_beta: Vec<_> = (0..rows)
                    .map(|i| beta.mul(y0[i]).add(alpha.mul(dots[i])))
                    .collect();
                // beta == 0 overwrites a NaN/Inf-poisoned y without reading it.
                let mut poisoned: Vec<_> = (0..rows)
                    .map(|i| MultiFloat::from([f64::NAN, f64::INFINITY][i % 2]))
                    .collect();
                let mut yb = y0.clone();
                gemv(alpha, &a, &x, zero, &mut poisoned);
                gemv(alpha, &a, &x, beta, &mut yb);
                let what = format!("N={N} {rows}x{cols}");
                assert_eq!(bits(&poisoned), bits(&want_zero), "beta=0 {what}");
                assert_eq!(bits(&yb), bits(&want_beta), "beta {what}");
                // No 9-row chunks: `parallel`'s span test owns that size.
                for threads in [3, 4] {
                    let mut yp = y0.clone();
                    crate::parallel::gemv(alpha, &a, &x, beta, &mut yp, threads);
                    assert_eq!(bits(&yp), bits(&want_beta), "parallel/{threads} {what}");
                }
            }
        }
    }

    /// GEMV through the row engine (`MultiFloat<f64, N>`, N = 1..4) is
    /// bit-identical to the serial per-row `dot_body` formula under the
    /// active realization, serial and pooled, for full row groups, tails
    /// and empty shapes, with `beta` zero (poisoned `y`) and nonzero.
    #[test]
    fn gemv_row_engine_matches_serial_rows() {
        gemv_rows_case::<1>();
        gemv_rows_case::<2>();
        gemv_rows_case::<3>();
        gemv_rows_case::<4>();
    }

    #[test]
    fn all_scalar_types_agree_on_small_problem() {
        let mut rng = SmallRng::seed_from_u64(904);
        let n = 64;
        let x64 = rand_vec(&mut rng, n);
        let y64 = rand_vec(&mut rng, n);
        let exact = MpFloat::exact_dot(&x64, &y64).to_f64();

        macro_rules! check {
            ($t:ty, $tol:expr) => {{
                let xs: Vec<$t> = x64.iter().map(|&v| <$t as Scalar>::s_from_f64(v)).collect();
                let ys: Vec<$t> = y64.iter().map(|&v| <$t as Scalar>::s_from_f64(v)).collect();
                let d = dot(&xs, &ys).s_to_f64();
                assert!(
                    (d - exact).abs() <= $tol * exact.abs().max(1.0),
                    concat!(stringify!($t), " dot off: {:e} vs {:e}"),
                    d,
                    exact
                );
            }};
        }
        check!(f64, 1e-13);
        check!(F64x2, 1e-15);
        check!(F64x3, 1e-15);
        check!(F64x4, 1e-15);
        check!(DoubleDouble, 1e-15);
        check!(QuadDouble, 1e-15);
        check!(mf_baselines::campary::Expansion<2>, 1e-15);
        check!(mf_baselines::campary::Expansion<4>, 1e-15);
    }

    /// Tentpole end-to-end: at rate 1.0 the flat kernels sample one element
    /// per call into the audit classes `axpy`/`dot`, and clean inputs keep
    /// comfortable positive bound margin.
    #[cfg(feature = "telemetry")]
    #[test]
    fn flat_kernels_feed_the_shadow_oracle() {
        use mf_telemetry::audit;
        use std::time::Duration;
        let saved = audit::rate();
        audit::set_rate(1.0);
        let before = mf_telemetry::snapshot();

        let mut rng = SmallRng::seed_from_u64(906);
        let xs: Vec<F64x2> = rand_vec(&mut rng, 64)
            .iter()
            .map(|&v| F64x2::from(v))
            .collect();
        let ys: Vec<F64x2> = rand_vec(&mut rng, 64)
            .iter()
            .map(|&v| F64x2::from(v))
            .collect();
        for _ in 0..8 {
            let _ = dot(&xs, &ys);
            let mut y = ys.clone();
            axpy(F64x2::from(1.5), &xs, &mut y);
        }
        assert!(audit::flush(Duration::from_secs(10)), "auditor stalled");
        audit::set_rate(saved);

        let delta = mf_telemetry::snapshot().delta_since(&before);
        let counter = |name: &str| {
            delta
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(counter("audit.sampled") >= 16, "one draw per kernel call");
        let audited = |class: &str| {
            delta
                .histograms
                .iter()
                .find(|h| h.name == format!("audit.ulp.{class}"))
                .map(|h| h.count)
                .unwrap_or(0)
        };
        assert!(audited("dot") >= 8, "each dot call lands one sample");
        assert!(audited("axpy") >= 8, "each axpy call lands one sample");
        // Clean element products carry comfortable positive margin. (Axpy
        // margin is left unasserted: a sibling test deliberately collapses
        // a flat axpy, and an ambient-rate draw there may legitimately pin
        // the process-lifetime axpy minimum negative.)
        let m = audit::min_margin(audit::OpClass::Dot).expect("dot audited");
        assert!(m > 0, "dot margin {m} bits");
    }

    /// The dispatched entry points must be bit-identical to the portable
    /// bodies — both `mul_add` lowerings (vfmadd vs soft-float) are
    /// correctly rounded, so the AVX2+FMA path may not change a single
    /// bit. On non-AVX2 hosts this degenerates to body-vs-body (trivially
    /// true); on AVX2 hosts it exercises the real claim.
    #[test]
    fn fma_dispatch_is_bit_identical_to_portable_body() {
        let mut rng = SmallRng::seed_from_u64(905);
        let (m, k, n) = (13, 17, 11);
        let xs: Vec<F64x4> = rand_vec(&mut rng, 257)
            .iter()
            .map(|&v| F64x4::from(v))
            .collect();
        let ys: Vec<F64x4> = rand_vec(&mut rng, 257)
            .iter()
            .map(|&v| F64x4::from(v))
            .collect();
        assert_eq!(dot(&xs, &ys).components(), dot_body(&xs, &ys).components());

        let alpha = F64x4::from(1.25);
        let mut y_disp = ys.clone();
        axpy(alpha, &xs, &mut y_disp);
        let mut y_body = ys.clone();
        axpy_body(alpha, &xs, &mut y_body);
        for i in 0..xs.len() {
            assert_eq!(y_disp[i].components(), y_body[i].components(), "i={i}");
        }

        let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let b = Matrix::from_fn(k, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let al = F64x2::from(-0.5);
        let be = F64x2::from(0.25);
        let c0 = Matrix::from_fn(m, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let mut c_disp = c0.clone();
        gemm(al, &a, &b, be, &mut c_disp);
        let mut c_body = c0.clone();
        gemm_rows_body(al, &a, &b, be, &mut c_body.data, 0);
        for i in 0..m * n {
            assert_eq!(c_disp.data[i].components(), c_body.data[i].components());
        }

        let x: Vec<F64x2> = rand_vec(&mut rng, k)
            .iter()
            .map(|&v| F64x2::from(v))
            .collect();
        let mut yv_disp = vec![F64x2::from(0.5); m];
        gemv(al, &a, &x, be, &mut yv_disp);
        let mut yv_body = vec![F64x2::from(0.5); m];
        gemv_rows_body(al, &a, &x, be, &mut yv_body, 0);
        for i in 0..m {
            assert_eq!(yv_disp[i].components(), yv_body[i].components(), "row {i}");
        }
    }
}
