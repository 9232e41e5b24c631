//! Structure-of-arrays kernels for `MultiFloat` — the vectorization layout.
//!
//! An array of `MultiFloat<f64, N>` stores each element's `N` components
//! contiguously (AoS), so the machine loads of "component 0 of elements
//! i..i+8" are strided and the compiler often gives up on vectorizing the
//! FPAN arithmetic across elements. Storing each *component* in its own
//! array (SoA) makes every load unit-stride, and the branch-free FPAN
//! kernels then run 8 elements in lock-step — one AVX-512 register per
//! network wire. This is the paper's central performance mechanism (§1,
//! §5), and it is *only* available to branch-free algorithms: QD's and
//! CAMPARY's zero-tests and magnitude merges create lane-divergent control
//! flow, which is why their 3/4-term columns collapse in Figure 9.
//!
//! Each kernel has one implementation: the public entry reports its
//! operation count, then runs its `#[inline(always)]` `*_body` through
//! [`simd::fma_frame`]. The element-wise kernels (AXPY and GEMM's inner
//! update) run a plain element loop, which LLVM vectorizes across `i`
//! inside that frame; the explicit lock-step engine measured
//! slower on them at N <= 2 and for every `f32` width, the widths the
//! benchmark workloads run (EXPERIMENTS.md ablation 15). The reductions
//! (DOT, GEMV rows) run the lock-step lane engine
//! ([`crate::simd::dot_lockstep`]), whose independent lane accumulators
//! break the add chain.

use crate::kernels;
use crate::simd::{self, LANES};
use mf_core::{addition, multiplication, renorm_probes, FloatBase, MultiFloat};

/// A vector of `MultiFloat<T, N>` in structure-of-arrays layout.
#[derive(Debug, Clone)]
pub struct SoaVec<T: FloatBase, const N: usize> {
    /// `comps[k][i]` is component `k` of element `i`.
    pub comps: Vec<Vec<T>>,
    len: usize,
}

impl<T: FloatBase, const N: usize> SoaVec<T, N> {
    pub fn zeros(len: usize) -> Self {
        SoaVec {
            comps: (0..N).map(|_| vec![T::ZERO; len]).collect(),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn from_slice(xs: &[MultiFloat<T, N>]) -> Self {
        let mut out = Self::zeros(xs.len());
        for (i, x) in xs.iter().enumerate() {
            let c = x.components();
            for k in 0..N {
                out.comps[k][i] = c[k];
            }
        }
        out
    }

    pub fn get(&self, i: usize) -> MultiFloat<T, N> {
        let mut c = [T::ZERO; N];
        for k in 0..N {
            c[k] = self.comps[k][i];
        }
        MultiFloat::from_components(c)
    }

    pub fn set(&mut self, i: usize, v: MultiFloat<T, N>) {
        let c = v.components();
        for k in 0..N {
            self.comps[k][i] = c[k];
        }
    }

    pub fn to_vec(&self) -> Vec<MultiFloat<T, N>> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// A row-major matrix of `MultiFloat<T, N>` in SoA layout.
#[derive(Debug, Clone)]
pub struct SoaMatrix<T: FloatBase, const N: usize> {
    pub comps: Vec<Vec<T>>,
    pub rows: usize,
    pub cols: usize,
}

impl<T: FloatBase, const N: usize> SoaMatrix<T, N> {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SoaMatrix {
            comps: (0..N).map(|_| vec![T::ZERO; rows * cols]).collect(),
            rows,
            cols,
        }
    }

    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> MultiFloat<T, N>,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    pub fn get(&self, i: usize, j: usize) -> MultiFloat<T, N> {
        let mut c = [T::ZERO; N];
        for k in 0..N {
            c[k] = self.comps[k][i * self.cols + j];
        }
        MultiFloat::from_components(c)
    }

    pub fn set(&mut self, i: usize, j: usize, v: MultiFloat<T, N>) {
        let c = v.components();
        for k in 0..N {
            self.comps[k][i * self.cols + j] = c[k];
        }
    }
}

/// Borrow the component vectors as an array of equal-length slices
/// (hoists the `Vec` indirection and lets the optimizer elide per-element
/// bounds checks).
#[inline(always)]
fn slices<T: FloatBase, const N: usize>(comps: &[Vec<T>], lo: usize, hi: usize) -> [&[T]; N] {
    core::array::from_fn(|k| &comps[k][lo..hi])
}

#[inline(always)]
fn slices_mut<T: FloatBase, const N: usize>(
    comps: &mut [Vec<T>],
    lo: usize,
    hi: usize,
) -> [&mut [T]; N] {
    let mut it = comps.iter_mut();
    core::array::from_fn(|_| &mut it.next().unwrap()[lo..hi])
}

/// `y <- alpha*x + y` over SoA vectors. The loop body is branch-free
/// straight-line FPAN code; with unit-stride loads LLVM vectorizes it
/// across `i`.
pub fn axpy<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    x: &SoaVec<T, N>,
    y: &mut SoaVec<T, N>,
) {
    renorm_probes::record_ops(N, x.len() as u64, x.len() as u64);
    simd::fma_frame(
        #[inline(always)]
        || axpy_body(alpha, x, y),
    )
}

#[inline(always)]
fn axpy_body<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    x: &SoaVec<T, N>,
    y: &mut SoaVec<T, N>,
) {
    assert_eq!(x.len(), y.len());
    axpy_at::<T, N>(alpha, &x.comps, 0, &mut y.comps, 0, x.len());
}

/// `y[yoff..yoff + n] <- alpha*x[xoff..xoff + n] + y[yoff..yoff + n]` over
/// component vectors: the element loop shared by `axpy` and GEMM's inner
/// update. Each element runs `mul` then `add`, exactly as `kernels::axpy`.
#[inline(always)]
fn axpy_at<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    xc: &[Vec<T>],
    xoff: usize,
    yc: &mut [Vec<T>],
    yoff: usize,
    n: usize,
) {
    let a = alpha.components();
    let xs: [&[T]; N] = slices(xc, xoff, xoff + n);
    let ys: [&mut [T]; N] = slices_mut(yc, yoff, yoff + n);
    for i in 0..n {
        let xi: [T; N] = core::array::from_fn(|k| xs[k][i]);
        let yi: [T; N] = core::array::from_fn(|k| ys[k][i]);
        let p = multiplication::mul(&a, &xi);
        let s = addition::add(&p, &yi);
        for k in 0..N {
            ys[k][i] = s[k];
        }
    }
}

/// Dot product on the lock-step lane engine: [`LANES`] independent
/// accumulators, then a lane tree and a serial tail.
pub fn dot<T: FloatBase, const N: usize>(x: &SoaVec<T, N>, y: &SoaVec<T, N>) -> MultiFloat<T, N> {
    renorm_probes::record_ops(N, (x.len() + LANES - 1) as u64, x.len() as u64);
    simd::fma_frame(
        #[inline(always)]
        || dot_body(x, y),
    )
}

#[inline(always)]
fn dot_body<T: FloatBase, const N: usize>(x: &SoaVec<T, N>, y: &SoaVec<T, N>) -> MultiFloat<T, N> {
    assert_eq!(x.len(), y.len());
    simd::dot_lockstep::<T, N>(&x.comps, 0, &y.comps, 0, x.len())
}

/// `y <- alpha*A*x + beta*y`, `ij` order, SoA layout.
pub fn gemv<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    x: &SoaVec<T, N>,
    beta: MultiFloat<T, N>,
    y: &mut SoaVec<T, N>,
) {
    // The flat GEMV count plus each row reduction's lane tree.
    let (adds, muls) = kernels::gemv_ops(a.rows, a.cols, beta.is_zero());
    let adds = adds + a.rows * (LANES - 1);
    renorm_probes::record_ops(N, adds as u64, muls as u64);
    simd::fma_frame(
        #[inline(always)]
        || gemv_body(alpha, a, x, beta, y),
    )
}

#[inline(always)]
fn gemv_body<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    x: &SoaVec<T, N>,
    beta: MultiFloat<T, N>,
    y: &mut SoaVec<T, N>,
) {
    assert_eq!(a.cols, x.len());
    assert_eq!(a.rows, y.len());
    // beta == 0 overwrites y without reading it (standard BLAS semantics;
    // matches the AoS kernels' fix — no NaN propagation from garbage y).
    if beta.is_zero() {
        for i in 0..a.rows {
            let row = simd::dot_lockstep::<T, N>(&a.comps, i * a.cols, &x.comps, 0, a.cols);
            y.set(i, alpha.mul(row));
        }
    } else {
        for i in 0..a.rows {
            let row = simd::dot_lockstep::<T, N>(&a.comps, i * a.cols, &x.comps, 0, a.cols);
            let yi = y.get(i);
            y.set(i, beta.mul(yi).add(alpha.mul(row)));
        }
    }
}

/// `C <- alpha*A*B + beta*C`, `ikj` order, SoA layout (the inner `j` loop
/// is the vectorized one).
pub fn gemm<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &mut SoaMatrix<T, N>,
) {
    let (adds, muls) = kernels::gemm_ops(a.rows, a.cols, b.cols, beta.is_zero());
    renorm_probes::record_ops(N, adds as u64, muls as u64);
    simd::fma_frame(
        #[inline(always)]
        || gemm_body(alpha, a, b, beta, c),
    )
}

#[inline(always)]
fn gemm_body<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &mut SoaMatrix<T, N>,
) {
    assert_eq!(a.cols, b.rows);
    assert_eq!(c.rows, a.rows);
    assert_eq!(c.cols, b.cols);
    let n = b.cols;
    // Scale C by beta; beta == 0 overwrites (no read of possibly-garbage C).
    if beta.is_zero() {
        for comp in c.comps.iter_mut() {
            for v in comp.iter_mut() {
                *v = T::ZERO;
            }
        }
    } else {
        for i in 0..c.rows {
            for j in 0..n {
                let v = c.get(i, j);
                c.set(i, j, beta.mul(v));
            }
        }
    }
    for i in 0..a.rows {
        let cbase = i * n;
        for k in 0..a.cols {
            let aik = alpha.mul(a.get(i, k));
            axpy_at::<T, N>(aik, &b.comps, k * n, &mut c.comps, cbase, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::Matrix;
    use mf_core::{F64x2, F64x4};
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mf(rng: &mut SmallRng) -> F64x4 {
        F64x4::from(rng.gen_range(-1.0..1.0f64))
    }

    #[test]
    fn soa_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(910);
        let xs: Vec<F64x4> = (0..37).map(|_| rand_mf(&mut rng)).collect();
        let soa = SoaVec::from_slice(&xs);
        let back = soa.to_vec();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.components(), b.components());
        }
    }

    /// A full-precision random expansion: every component carries bits.
    fn rand_full<T: FloatBase, const N: usize>(rng: &mut SmallRng) -> MultiFloat<T, N> {
        MultiFloat::from_components_renorm(core::array::from_fn(|k| {
            T::from_f64(rng.gen_range(-1.0..1.0f64) * 2f64.powi(-(T::PRECISION as i32) * k as i32))
        }))
    }

    const LENS: [usize; 6] = [0, 1, 7, 8, 9, 103];

    /// SoA AXPY runs the same `mul`/`add` per element as AoS
    /// `kernels::axpy`, so the two agree bit for bit at every width, base
    /// and length (lane-width multiples, tails and empty included).
    fn axpy_case<T: FloatBase, const N: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for n in LENS {
            let xs: Vec<MultiFloat<T, N>> = (0..n).map(|_| rand_full(&mut rng)).collect();
            let ys: Vec<MultiFloat<T, N>> = (0..n).map(|_| rand_full(&mut rng)).collect();
            let alpha = rand_full(&mut rng);
            let mut y_aos = ys.clone();
            kernels::axpy(alpha, &xs, &mut y_aos);
            let mut y_soa = SoaVec::from_slice(&ys);
            axpy(alpha, &SoaVec::from_slice(&xs), &mut y_soa);
            for (i, want) in y_aos.iter().enumerate() {
                assert_eq!(
                    y_soa.get(i).components(),
                    want.components(),
                    "axpy N={N} n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn axpy_soa_matches_aos_bitwise() {
        axpy_case::<f64, 1>(911);
        axpy_case::<f64, 2>(912);
        axpy_case::<f64, 3>(913);
        axpy_case::<f64, 4>(914);
        axpy_case::<f32, 1>(915);
        axpy_case::<f32, 2>(916);
        axpy_case::<f32, 3>(917);
        axpy_case::<f32, 4>(918);
    }

    #[test]
    fn dot_soa_matches_oracle() {
        let mut rng = SmallRng::seed_from_u64(912);
        let n = 1000;
        let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xs: Vec<F64x4> = x64.iter().map(|&v| F64x4::from(v)).collect();
        let ys: Vec<F64x4> = y64.iter().map(|&v| F64x4::from(v)).collect();
        let exact = MpFloat::exact_dot(&x64, &y64);
        let soa = dot(&SoaVec::from_slice(&xs), &SoaVec::from_slice(&ys));
        let err = soa.to_mp(400).rel_error_vs(&exact);
        assert!(err <= 2.0f64.powi(-190), "err 2^{:.1}", err.log2());
        // And agrees with the AoS kernel to the format's precision
        // (different association order, same accuracy class).
        let aos = kernels::dot(&xs, &ys);
        let d = soa.sub(aos).abs().to_f64();
        assert!(d <= 2.0f64.powi(-190) * exact.abs().to_f64().max(1e-300));
    }

    /// SoA GEMM's inner update is the AXPY element loop, so it matches
    /// AoS `kernels::gemm` bit for bit; the row length `n` runs over the
    /// same lengths as the AXPY test.
    fn gemm_case<T: FloatBase, const N: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m, k) = (5, 6);
        for n in LENS {
            let a_el: Vec<MultiFloat<T, N>> = (0..m * k).map(|_| rand_full(&mut rng)).collect();
            let b_el: Vec<MultiFloat<T, N>> = (0..k * n).map(|_| rand_full(&mut rng)).collect();
            let c_el: Vec<MultiFloat<T, N>> = (0..m * n).map(|_| rand_full(&mut rng)).collect();
            let alpha = rand_full(&mut rng);
            let beta = rand_full(&mut rng);
            for beta in [MultiFloat::ZERO, beta] {
                let mut c_aos = Matrix::from_fn(m, n, |i, j| c_el[i * n + j]);
                kernels::gemm(
                    alpha,
                    &Matrix::from_fn(m, k, |i, j| a_el[i * k + j]),
                    &Matrix::from_fn(k, n, |i, j| b_el[i * n + j]),
                    beta,
                    &mut c_aos,
                );
                let mut c_soa = SoaMatrix::from_fn(m, n, |i, j| c_el[i * n + j]);
                gemm(
                    alpha,
                    &SoaMatrix::from_fn(m, k, |i, j| a_el[i * k + j]),
                    &SoaMatrix::from_fn(k, n, |i, j| b_el[i * n + j]),
                    beta,
                    &mut c_soa,
                );
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            c_aos.at(i, j).components(),
                            c_soa.get(i, j).components(),
                            "gemm N={N} n={n} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_and_gemm_match_aos() {
        gemm_case::<f64, 1>(921);
        gemm_case::<f64, 2>(922);
        gemm_case::<f64, 3>(923);
        gemm_case::<f64, 4>(924);
        gemm_case::<f32, 1>(925);
        gemm_case::<f32, 2>(926);
        gemm_case::<f32, 3>(927);
        gemm_case::<f32, 4>(928);

        // GEMV: accuracy-level agreement (SoA uses the laned reduction).
        let mut rng = SmallRng::seed_from_u64(913);
        let (m, k) = (17, 13);
        let a_aos = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let a_soa = SoaMatrix::from_fn(m, k, |i, j| a_aos.at(i, j));
        let alpha = F64x2::from(1.25);
        let beta = F64x2::from(0.5);
        let x: Vec<F64x2> = (0..k)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let mut y_aos: Vec<F64x2> = (0..m).map(|_| F64x2::from(0.5)).collect();
        kernels::gemv(alpha, &a_aos, &x, beta, &mut y_aos);
        let x_soa = SoaVec::from_slice(&x);
        let mut y_soa = SoaVec::from_slice(&vec![F64x2::from(0.5); m]);
        gemv(alpha, &a_soa, &x_soa, beta, &mut y_soa);
        for i in 0..m {
            let d = y_aos[i].sub(y_soa.get(i)).abs().to_f64();
            assert!(d <= 1e-28, "gemv row {i}: d={d:e}");
        }
    }

    /// Same contract as the AoS kernels' dispatch test: the AVX2+FMA
    /// instantiation may not change a single bit vs the portable body.
    #[test]
    fn fma_dispatch_is_bit_identical_to_portable_body() {
        let mut rng = SmallRng::seed_from_u64(915);
        let n = 203;
        let xs: Vec<F64x4> = (0..n).map(|_| rand_mf(&mut rng)).collect();
        let ys: Vec<F64x4> = (0..n).map(|_| rand_mf(&mut rng)).collect();
        let x_soa = SoaVec::from_slice(&xs);
        let y_soa = SoaVec::from_slice(&ys);
        assert_eq!(
            dot(&x_soa, &y_soa).components(),
            dot_body(&x_soa, &y_soa).components()
        );

        let alpha = rand_mf(&mut rng);
        let mut y_disp = SoaVec::from_slice(&ys);
        axpy(alpha, &x_soa, &mut y_disp);
        let mut y_body = SoaVec::from_slice(&ys);
        axpy_body(alpha, &x_soa, &mut y_body);
        for k in 0..4 {
            assert_eq!(y_disp.comps[k], y_body.comps[k], "axpy comp {k}");
        }

        let (m, kk, nn) = (9, 11, 7);
        let a = SoaMatrix::<f64, 2>::from_fn(m, kk, |i, j| {
            F64x2::from((i * kk + j) as f64 * 0.013 - 0.7)
        });
        let b = SoaMatrix::<f64, 2>::from_fn(kk, nn, |i, j| {
            F64x2::from((i * nn + j) as f64 * 0.017 - 0.6)
        });
        let al = F64x2::from(1.5);
        let be = F64x2::from(-0.25);
        let c0 = SoaMatrix::<f64, 2>::from_fn(m, nn, |i, j| F64x2::from((i + j) as f64 * 0.1));
        let mut c_disp = c0.clone();
        gemm(al, &a, &b, be, &mut c_disp);
        let mut c_body = c0.clone();
        gemm_body(al, &a, &b, be, &mut c_body);
        for k in 0..2 {
            assert_eq!(c_disp.comps[k], c_body.comps[k], "gemm comp {k}");
        }

        let xv = SoaVec::<f64, 2>::from_slice(
            &(0..kk)
                .map(|j| F64x2::from(j as f64 * 0.05 - 0.2))
                .collect::<Vec<_>>(),
        );
        let y0 = SoaVec::<f64, 2>::from_slice(&vec![F64x2::from(0.5); m]);
        let mut yv_disp = y0.clone();
        gemv(al, &a, &xv, be, &mut yv_disp);
        let mut yv_body = y0.clone();
        gemv_body(al, &a, &xv, be, &mut yv_body);
        for k in 0..2 {
            assert_eq!(yv_disp.comps[k], yv_body.comps[k], "gemv comp {k}");
        }
    }

    #[test]
    fn dot_handles_non_multiple_of_lanes() {
        let mut rng = SmallRng::seed_from_u64(914);
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63] {
            let x64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y64: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xs: Vec<F64x2> = x64.iter().map(|&v| F64x2::from(v)).collect();
            let ys: Vec<F64x2> = y64.iter().map(|&v| F64x2::from(v)).collect();
            let got = dot(&SoaVec::from_slice(&xs), &SoaVec::from_slice(&ys)).to_f64();
            let exact = MpFloat::exact_dot(&x64, &y64).to_f64();
            assert!((got - exact).abs() <= 1e-13 * exact.abs().max(1.0), "n={n}");
        }
    }
}
