//! Exact `core.renorm.{calls,sweeps}` accounting: every kernel entry point
//! reports `operation count × per-operation cost` once per call, so the
//! counter deltas across a call equal a closed form in the kernel's shape.
//!
//! The counters are process-global, so this file holds a single test (its
//! own test binary, no concurrent kernel calls).
#![cfg(feature = "telemetry")]

use mf_blas::soa::{SoaMatrix, SoaVec};
use mf_blas::{kernels, parallel, soa, tile, Matrix};
use mf_core::MultiFloat;

/// `(calls, sweeps)` of one add and one mul at width `N`: the `N <= 2`
/// networks never renormalize; add3/mul3 run one 4-sweep renorm, add4
/// one 5-sweep renorm, mul4 one 4-sweep renorm.
fn per_op(n: usize) -> ((u64, u64), (u64, u64)) {
    match n {
        1 | 2 => ((0, 0), (0, 0)),
        3 => ((1, 4), (1, 4)),
        4 => ((1, 5), (1, 4)),
        _ => unreachable!(),
    }
}

fn closed_form(n: usize, adds: u64, muls: u64) -> (u64, u64) {
    let ((ac, asw), (mc, msw)) = per_op(n);
    (adds * ac + muls * mc, adds * asw + muls * msw)
}

/// `(calls, sweeps)` delta of the renorm counters across `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = mf_telemetry::snapshot();
    let _ = f();
    let delta = mf_telemetry::snapshot().delta_since(&before);
    let counter = |name: &str| {
        delta
            .counters
            .iter()
            .find(|(c, _)| c == name)
            .map_or(0, |(_, v)| *v)
    };
    (counter("core.renorm.calls"), counter("core.renorm.sweeps"))
}

fn val<const N: usize>(i: usize) -> MultiFloat<f64, N> {
    MultiFloat::from(1.0 + (i % 7) as f64 / 8.0)
}

fn check_at<const N: usize>() {
    let (len, m, k, n) = (37usize, 5usize, 6usize, 7usize);
    let x: Vec<MultiFloat<f64, N>> = (0..len).map(val).collect();
    let y: Vec<MultiFloat<f64, N>> = (0..len).map(|i| val(i + 3)).collect();
    let alpha = val::<N>(1);
    let beta = val::<N>(2);
    let zero = MultiFloat::<f64, N>::ZERO;
    let a = Matrix::from_fn(m, k, |i, j| val::<N>(i * k + j));
    let b = Matrix::from_fn(k, n, |i, j| val::<N>(i + j));
    let xv: Vec<MultiFloat<f64, N>> = (0..k).map(val).collect();
    let (lu, mu, ku, nu) = (len as u64, m as u64, k as u64, n as u64);

    let want = closed_form(N, lu, lu);
    assert_eq!(counted(|| kernels::dot(&x, &y)), want, "dot N={N}");
    let mut yy = y.clone();
    assert_eq!(
        counted(|| kernels::axpy(alpha, &x, &mut yy)),
        want,
        "axpy N={N}"
    );

    let mut out = vec![zero; m];
    assert_eq!(
        counted(|| kernels::gemv(alpha, &a, &xv, zero, &mut out)),
        closed_form(N, mu * ku, mu * ku + mu),
        "gemv beta=0 N={N}"
    );
    assert_eq!(
        counted(|| kernels::gemv(alpha, &a, &xv, beta, &mut out)),
        closed_form(N, mu * ku + mu, mu * ku + 2 * mu),
        "gemv N={N}"
    );

    let gemm_zero = closed_form(N, mu * ku * nu, mu * ku * nu + mu * ku);
    let gemm_beta = closed_form(N, mu * ku * nu, mu * ku * nu + mu * ku + mu * nu);
    let mut c = Matrix::zeros(m, n);
    assert_eq!(
        counted(|| kernels::gemm(alpha, &a, &b, zero, &mut c)),
        gemm_zero,
        "gemm beta=0 N={N}"
    );
    assert_eq!(
        counted(|| kernels::gemm(alpha, &a, &b, beta, &mut c)),
        gemm_beta,
        "gemm N={N}"
    );

    // The wrappers that reach N >= 3 report the same closed forms: the
    // SoA and tiled GEMMs (serial here) and the pooled GEMM.
    let sa = SoaMatrix::from_fn(m, k, |i, j| a.at(i, j));
    let sb = SoaMatrix::from_fn(k, n, |i, j| b.at(i, j));
    let mut sc = SoaMatrix::zeros(m, n);
    assert_eq!(
        counted(|| soa::gemm(alpha, &sa, &sb, beta, &mut sc)),
        gemm_beta
    );
    assert_eq!(
        counted(|| tile::gemm_tiled(alpha, &sa, &sb, beta, &mut sc, 1)),
        gemm_beta
    );
    assert_eq!(
        counted(|| parallel::gemm(alpha, &a, &b, beta, &mut c, 2)),
        gemm_beta
    );
    let mut out = vec![zero; m];
    assert_eq!(
        counted(|| parallel::gemv(alpha, &a, &xv, beta, &mut out, 2)),
        closed_form(N, mu * ku + mu, mu * ku + 2 * mu),
        "parallel gemv N={N}"
    );
    let (sx, mut sy) = (SoaVec::from_slice(&x), SoaVec::from_slice(&y));
    assert_eq!(counted(|| soa::axpy(alpha, &sx, &mut sy)), want);

    // Over several pooled row chunks the tiled GEMM reports the flat
    // closed form once, whatever the chunking.
    let (m, k, n) = (7usize, 3usize, 5usize);
    let sa = SoaMatrix::from_fn(m, k, |i, j| val::<N>(i * k + j));
    let sb = SoaMatrix::from_fn(k, n, |i, j| val::<N>(i + j));
    let mut sc = SoaMatrix::zeros(m, n);
    let (mu, ku, nu) = (m as u64, k as u64, n as u64);
    assert_eq!(
        counted(|| tile::gemm_tiled(alpha, &sa, &sb, beta, &mut sc, 2)),
        closed_form(N, mu * ku * nu, mu * ku * nu + mu * ku + mu * nu),
        "pooled gemm_tiled N={N}"
    );
}

#[test]
fn renorm_counts_match_closed_form() {
    check_at::<2>();
    check_at::<3>();
    check_at::<4>();
    // N = 2 never renormalizes, so its kernels add nothing at all.
    let x = vec![MultiFloat::<f64, 2>::ONE; 64];
    assert_eq!(counted(|| kernels::dot(&x, &x)), (0, 0));
}
