//! The four-kernel sweep behind the paper's performance figures: AXPY,
//! DOT, GEMV and GEMM over one element type, on the seeded inputs of
//! [`crate::workloads`]. `tables` runs it over the f64-base precisions and
//! the comparison libraries (Figures 9/10), `gpu_sim` over the f32 base
//! (Figure 11). Each kernel is recorded in the history as `{KERNEL}/{tag}`.

use crate::workloads::{rand_f64s, Sizes};
use crate::{measure_kernel, sink};
use mf_blas::soa::{self, SoaMatrix, SoaVec};
use mf_blas::{kernels, parallel, Matrix, Scalar};
use mf_core::{FloatBase, MultiFloat};

/// The kernels in sweep order; every sweep returns its Gop/s in this order.
pub const KERNELS: [&str; 4] = ["AXPY", "DOT", "GEMV", "GEMM"];

/// Measure all four kernels for one `Scalar` type in AoS layout, through
/// the pooled `parallel` kernels when `threads > 1`.
pub fn bench_aos<S: Scalar>(sizes: &Sizes, threads: usize, tag: &str) -> [f64; 4] {
    let n = sizes.vec_len;
    let xs: Vec<S> = rand_f64s(1, n).into_iter().map(S::s_from_f64).collect();
    let mut ys: Vec<S> = rand_f64s(2, n).into_iter().map(S::s_from_f64).collect();
    let alpha = S::s_from_f64(1.000000321);

    let axpy = measure_kernel(
        &format!("AXPY/{tag}"),
        sizes.ops("AXPY"),
        sizes.min_secs,
        || {
            if threads > 1 {
                parallel::axpy(alpha, &xs, &mut ys, threads);
            } else {
                kernels::axpy(alpha, &xs, &mut ys);
            }
            sink(ys[0]);
        },
    );

    let dot = measure_kernel(
        &format!("DOT/{tag}"),
        sizes.ops("DOT"),
        sizes.min_secs,
        || {
            let d = if threads > 1 {
                parallel::dot(&xs, &ys, threads)
            } else {
                kernels::dot(&xs, &ys)
            };
            sink(d);
        },
    );

    let matrix = |seed: u64, n: usize| Matrix {
        rows: n,
        cols: n,
        data: rand_f64s(seed, n * n)
            .into_iter()
            .map(S::s_from_f64)
            .collect(),
    };
    let gn = sizes.gemv_n;
    let a = matrix(3, gn);
    let xv: Vec<S> = rand_f64s(4, gn).into_iter().map(S::s_from_f64).collect();
    let mut yv: Vec<S> = rand_f64s(5, gn).into_iter().map(S::s_from_f64).collect();
    let beta = S::s_from_f64(0.999999712);
    let gemv = measure_kernel(
        &format!("GEMV/{tag}"),
        sizes.ops("GEMV"),
        sizes.min_secs,
        || {
            if threads > 1 {
                parallel::gemv(alpha, &a, &xv, beta, &mut yv, threads);
            } else {
                kernels::gemv(alpha, &a, &xv, beta, &mut yv);
            }
            sink(yv[0]);
        },
    );

    let mn = sizes.gemm_n;
    let am = matrix(6, mn);
    let bm = matrix(7, mn);
    let mut cm = Matrix::<S>::zeros(mn, mn);
    let gemm = measure_kernel(
        &format!("GEMM/{tag}"),
        sizes.ops("GEMM"),
        sizes.min_secs,
        || {
            if threads > 1 {
                parallel::gemm(alpha, &am, &bm, beta, &mut cm, threads);
            } else {
                kernels::gemm(alpha, &am, &bm, beta, &mut cm);
            }
            sink(cm.at(0, 0));
        },
    );

    [axpy.gops, dot.gops, gemv.gops, gemm.gops]
}

/// Measure all four kernels for `MultiFloat<T, N>` in SoA layout.
pub fn bench_soa<T: FloatBase, const N: usize>(sizes: &Sizes, tag: &str) -> [f64; 4] {
    let n = sizes.vec_len;
    let to_mf = |v: f64| MultiFloat::<T, N>::from(v);
    let soa_vec = |seed: u64, n: usize| {
        SoaVec::from_slice(
            &rand_f64s(seed, n)
                .into_iter()
                .map(to_mf)
                .collect::<Vec<_>>(),
        )
    };
    let xs = soa_vec(1, n);
    let mut ys = soa_vec(2, n);
    let alpha = to_mf(1.000000321);
    let beta = to_mf(0.999999712);

    let axpy = measure_kernel(
        &format!("AXPY/{tag}"),
        sizes.ops("AXPY"),
        sizes.min_secs,
        || {
            soa::axpy(alpha, &xs, &mut ys);
            sink(ys.comps[0][0]);
        },
    );

    let dot = measure_kernel(
        &format!("DOT/{tag}"),
        sizes.ops("DOT"),
        sizes.min_secs,
        || {
            sink(soa::dot(&xs, &ys));
        },
    );

    let matrix = |seed: u64, n: usize| {
        let vals = rand_f64s(seed, n * n);
        SoaMatrix::from_fn(n, n, |i, j| to_mf(vals[i * n + j]))
    };
    let gn = sizes.gemv_n;
    let a = matrix(3, gn);
    let xv = soa_vec(4, gn);
    let mut yv = soa_vec(5, gn);
    let gemv = measure_kernel(
        &format!("GEMV/{tag}"),
        sizes.ops("GEMV"),
        sizes.min_secs,
        || {
            soa::gemv(alpha, &a, &xv, beta, &mut yv);
            sink(yv.comps[0][0]);
        },
    );

    let mn = sizes.gemm_n;
    let am = matrix(6, mn);
    let bm = matrix(7, mn);
    let mut cm = SoaMatrix::<T, N>::zeros(mn, mn);
    let gemm = measure_kernel(
        &format!("GEMM/{tag}"),
        sizes.ops("GEMM"),
        sizes.min_secs,
        || {
            soa::gemm(alpha, &am, &bm, beta, &mut cm);
            sink(cm.comps[0][0]);
        },
    );

    [axpy.gops, dot.gops, gemv.gops, gemm.gops]
}

/// Per-kernel maximum of two sweeps (the tables report each library's best
/// layout).
pub fn max4(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
    core::array::from_fn(|i| a[i].max(b[i]))
}
