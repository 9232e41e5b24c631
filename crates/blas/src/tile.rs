//! Pooled GEMM over SoA matrices: [`crate::soa::gemm`]'s row loop run
//! over row blocks on the worker pool.
//!
//! `C`'s rows are split with the same chunking as [`crate::parallel::gemm`]
//! and each chunk runs the SoA `ikj` body (one `axpy_at` row update per
//! `k`, vectorized across `j` inside the FMA frame) on its rows. With one
//! chunk `gemm_tiled` is `soa::gemm`. The module and function keep their
//! "tiled" names because the perfbench layer `blas.tile` and the history
//! kernels `GEMM/<n>/mf/tile` name this entry point; the packed,
//! cache-blocked micro-kernel they once measured ran slower than this
//! body at every shape tried, 512³ included (EXPERIMENTS.md ablation 25).
//!
//! **Bitwise contract:** every element gets `beta*c_ij` (or the
//! `beta == 0` overwrite) first, then `c_ij += (alpha*a_ik)*b_kj` in
//! ascending `k`, so the result is bit-identical to [`crate::soa::gemm`]
//! and [`crate::kernels::gemm`] at any thread count, which the
//! conformance harness asserts.
//!
//! **Parallelism & degrade:** the chunks run through the crate's one chunk
//! executor, `parallel::run_chunks`. Each chunk reads `C` only and
//! returns its rows as an owned SoA buffer; `gemm_tiled` writes them back
//! after the dispatch. A panicking scalar therefore leaves `C` untouched,
//! and the executor degrades that chunk to a rerun on the calling thread
//! (`blas.parallel.degraded_*` telemetry, the contract of `parallel.rs`).
//! Telemetry: the `blas.parallel.*` dispatch counters, one
//! `par.gemm.tiled` span per call and one `par.gemm.tiled.chunk` span per
//! pooled chunk.

use crate::kernels;
use crate::parallel::{dispatch_ranges, run_chunks};
use crate::soa::{self, SoaMatrix};
use mf_core::{renorm_probes, FloatBase, MultiFloat};
use mf_telemetry::trace;

/// `C <- alpha*A*B + beta*C`, one pool job per row chunk. Bit-identical to
/// [`crate::soa::gemm`] / [`crate::kernels::gemm`] (asserted by the
/// conformance harness) at any thread count.
pub fn gemm_tiled<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &mut SoaMatrix<T, N>,
    threads: usize,
) {
    assert_eq!(
        a.cols, b.rows,
        "gemm_tiled: A is {}x{} but B is {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        c.rows, a.rows,
        "gemm_tiled: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    assert_eq!(
        c.cols, b.cols,
        "gemm_tiled: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    let _sp = trace::span("par.gemm.tiled", (c.rows * c.cols) as u64);
    // One chunk runs serially, with no dispatch.
    if threads.min(c.rows) <= 1 {
        return soa::gemm(alpha, a, b, beta, c);
    }
    let (adds, muls) = kernels::gemm_ops(c.rows, a.cols, c.cols, beta.is_zero());
    renorm_probes::record_ops(N, adds as u64, muls as u64);
    let ranges = dispatch_ranges(c.rows, threads);
    let n = c.cols;
    let shared = &*c;
    let (blocks, _) = run_chunks(
        "gemm_tiled",
        Some("par.gemm.tiled.chunk"),
        threads,
        &ranges,
        &mut [(); 0],
        0,
        |_, (lo, hi), _| {
            let mut block: Vec<Vec<T>> = (shared.comps.iter())
                .map(|comp| comp[lo * n..hi * n].to_vec())
                .collect();
            soa::gemm_rows(alpha, a, b, beta, &mut block, lo..hi);
            block
        },
    );
    // Write the finished row blocks back, after every chunk's arithmetic.
    for (&(lo, hi), block) in ranges.iter().zip(blocks) {
        for (comp, rows) in c.comps.iter_mut().zip(block) {
            comp[lo * n..hi * n].copy_from_slice(&rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use mf_core::F64x2;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_soa<const N: usize>(rng: &mut SmallRng, rows: usize, cols: usize) -> SoaMatrix<f64, N> {
        SoaMatrix::from_fn(rows, cols, |_, _| {
            MultiFloat::from(rng.gen_range(-1.0..1.0f64))
        })
    }

    fn to_aos<const N: usize>(m: &SoaMatrix<f64, N>) -> Matrix<MultiFloat<f64, N>> {
        Matrix::from_fn(m.rows, m.cols, |i, j| m.get(i, j))
    }

    /// `gemm_tiled` at `threads` against `soa::gemm` and `kernels::gemm`
    /// on the same values, bit for bit.
    fn assert_tiled_matches_flat<const N: usize>(
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = rand_soa::<N>(&mut rng, m, k);
        let b = rand_soa::<N>(&mut rng, k, n);
        let c0 = rand_soa::<N>(&mut rng, m, n);
        let alpha = MultiFloat::<f64, N>::from(1.25);
        let beta = MultiFloat::<f64, N>::from(-0.5);

        let mut c_soa = c0.clone();
        soa::gemm(alpha, &a, &b, beta, &mut c_soa);
        let mut c_aos = to_aos(&c0);
        kernels::gemm(alpha, &to_aos(&a), &to_aos(&b), beta, &mut c_aos);
        let mut c_tile = c0.clone();
        gemm_tiled(alpha, &a, &b, beta, &mut c_tile, threads);
        for q in 0..N {
            assert_eq!(
                c_soa.comps[q], c_tile.comps[q],
                "N={N} {m}x{k}x{n} t={threads} comp {q}: tiled != soa"
            );
        }
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    c_aos.at(i, j).components(),
                    c_tile.get(i, j).components(),
                    "N={N} {m}x{k}x{n} t={threads} at ({i},{j}): tiled != kernels"
                );
            }
        }
    }

    /// Property: at awkward shapes (1x1x1, primes, a single row, a long
    /// `k`, more chunks than two, rows < threads, 16 threads on 2 rows)
    /// the pooled GEMM is bit-identical to the serial kernels.
    #[test]
    fn tiled_matches_flat_at_awkward_shapes() {
        let shapes: [(usize, usize, usize); 8] = [
            (1, 1, 1),
            (3, 1, 2),
            (1, 7, 5),
            (7, 13, 11),
            (31, 37, 29),
            (5, 300, 9),
            (67, 17, 41),
            (2, 3, 2),
        ];
        for (idx, &(m, k, n)) in shapes.iter().enumerate() {
            for threads in [1usize, 2, 5] {
                assert_tiled_matches_flat::<2>(m, k, n, threads, 2000 + idx as u64);
                assert_tiled_matches_flat::<3>(m, k, n, threads, 2100 + idx as u64);
            }
        }
        assert_tiled_matches_flat::<2>(2, 3, 2, 16, 2300);
        assert_tiled_matches_flat::<3>(2, 3, 2, 16, 2301);
    }

    /// With `k = 0` the product is empty: the result is exactly `beta*C`.
    #[test]
    fn tiled_empty_inner_dim_scales_c() {
        let mut rng = SmallRng::seed_from_u64(2400);
        let (m, n) = (9, 6);
        let a = SoaMatrix::<f64, 2>::zeros(m, 0);
        let b = SoaMatrix::<f64, 2>::zeros(0, n);
        let c0 = rand_soa::<2>(&mut rng, m, n);
        let beta = F64x2::from(-0.75);
        for threads in [1usize, 2, 5] {
            let mut c = c0.clone();
            gemm_tiled(F64x2::from(3.0), &a, &b, beta, &mut c, threads);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c.get(i, j).components(),
                        beta.mul(c0.get(i, j)).components(),
                        "t={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_beta_zero_overwrites_poisoned_c() {
        let mut rng = SmallRng::seed_from_u64(2200);
        let (m, k, n) = (13, 9, 21);
        let a = rand_soa::<2>(&mut rng, m, k);
        let b = rand_soa::<2>(&mut rng, k, n);
        let alpha = F64x2::from(2.0);
        let beta = F64x2::from(0.0);
        let mut c = SoaMatrix::from_fn(m, n, |_, _| F64x2::from(f64::NAN));
        gemm_tiled(alpha, &a, &b, beta, &mut c, 3);
        let mut c_ref = SoaMatrix::from_fn(m, n, |_, _| F64x2::from(0.0));
        soa::gemm(alpha, &a, &b, beta, &mut c_ref);
        for q in 0..2 {
            assert_eq!(c.comps[q], c_ref.comps[q], "comp {q}");
        }
        for i in 0..m {
            for j in 0..n {
                assert!(c.get(i, j).to_f64().is_finite(), "({i},{j}) kept NaN");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm_tiled: A is")]
    fn tiled_rejects_inner_dim_mismatch() {
        let a = SoaMatrix::<f64, 2>::zeros(3, 4);
        let b = SoaMatrix::<f64, 2>::zeros(5, 2);
        let mut c = SoaMatrix::<f64, 2>::zeros(3, 2);
        gemm_tiled(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }
}
