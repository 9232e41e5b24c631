//! Cache-blocked (tiled) GEMM over SoA matrices.
//!
//! The flat kernels ([`crate::kernels::gemm`], [`crate::parallel::gemm`])
//! stream every row of `B` through the cache once per row of `A`: at
//! production sizes (n >= 256, 16-64 bytes per extended-precision element)
//! the working set of one `ikj` pass is the whole of `B`, so the inner
//! AXPY runs at memory speed instead of lane-kernel speed. This module
//! implements the standard remedy (BLIS-style cache blocking): `C` is cut
//! into `MC x NC` tiles, each tile's update is computed through `KC`-deep
//! panels of `A` and `B` that are **packed** into contiguous AoS scratch
//! buffers sized for cache residency (`alpha*A` row-major, `B` block-major
//! per `JB`-column block), and the micro-kernel accumulates `JB` columns
//! of one C row in registers across the whole k-panel. The tile body runs
//! inside the crate's AVX2+FMA frame ([`crate::simd::fma_frame`]) when the
//! active realization is an x86 vector ISA, turning `two_prod`'s `mul_add`
//! into a single `vfmadd` (bit-identical — both are correctly rounded).
//!
//! **Bitwise contract:** per element, the tiled kernel performs exactly
//! the serial kernels' operation sequence — `beta*c_ij` (or the `beta == 0`
//! overwrite) first, then `c_ij += (alpha*a_ik)*b_kj` in ascending `k`
//! order (k-panels iterate in order, packing folds `alpha` in without
//! changing the product). The result is therefore bit-identical to
//! [`crate::soa::gemm`] and [`crate::kernels::gemm`], which the
//! conformance harness asserts.
//!
//! **Parallelism & degrade:** one pool job per C-tile through the crate's
//! one chunk executor ([`crate::parallel::run_chunks`]), like every other
//! dispatch. Each tile task computes into a thread-local packed C buffer
//! and touches the shared matrix only in its final write-back, after all
//! of its arithmetic. A panicking scalar therefore leaves its tile of
//! `C` untouched, and the executor degrades that tile to a rerun on the
//! calling thread (`blas.parallel.degraded_*` telemetry, same contract as
//! `parallel.rs`; a second panic propagates with the kernel name and tile
//! row range). Telemetry: `blas.tile.dispatches`/`blas.tile.tiles`
//! counters, one `par.gemm.tile` span per tile (arg = tile element count)
//! under a `par.gemm.tiled` dispatch span, and the `blas.tile.queue_wait`
//! section sketching dispatch-to-tile-start latency.

use crate::parallel::run_chunks;
use crate::soa::SoaMatrix;
use crate::{kernels, simd, Scalar};
use mf_core::{renorm_probes, FloatBase, MultiFloat};
use mf_telemetry::{trace, Counter, Section};
use std::time::Instant;

static TILE_DISPATCHES: Counter = Counter::new("blas.tile.dispatches");
static TILE_TILES: Counter = Counter::new("blas.tile.tiles");
/// Latency from dispatch to each tile task starting (the pool's queue
/// wait).
static TILE_QUEUE_WAIT: Section = Section::new("blas.tile.queue_wait");

/// Tile heights/widths (rows/cols of C per tile) and k-panel depth.
/// Sized so one packed B panel (`KC x NC x N` doubles) plus one packed C
/// tile stays L2-resident at every supported width N, while NC keeps the
/// micro-kernel in full `JB`-wide register blocks.
pub const MC: usize = 32;
pub const NC: usize = 128;
pub const KC: usize = 128;
/// Register-block width: columns of one C row accumulated on the stack
/// across a whole k-panel (JB independent accumulation chains per sweep).
const JB: usize = 8;

/// Per-component raw view of a SoA matrix's storage, allowing concurrent
/// disjoint-tile mutation from pool threads. The pool hands out tile
/// *indices*; distinct tile indices map to disjoint row/col rectangles
/// of `C`, so no two concurrently live accesses alias.
struct SoaTiles<'a, T> {
    comps: Vec<*mut T>,
    cols: usize,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: distinct tile indices address disjoint element rectangles (the
// only way the pointers are used), so concurrent access from pool
// threads is data-race-free for any `Send` component type.
unsafe impl<T: Send> Sync for SoaTiles<'_, T> {}

impl<'a, T: FloatBase> SoaTiles<'a, T> {
    fn new<const N: usize>(c: &'a mut SoaMatrix<T, N>) -> Self {
        let cols = c.cols;
        let len = c.rows * c.cols;
        SoaTiles {
            comps: c.comps.iter_mut().map(|v| v.as_mut_ptr()).collect(),
            cols,
            len,
            _life: std::marker::PhantomData,
        }
    }

    /// Mutable view of component `q` of row `i`, columns `j0..j1`.
    ///
    /// # Safety
    ///
    /// The (row, column-range) rectangle must be in bounds and disjoint
    /// from every other live view; each tile index runs at most once per
    /// dispatch (the pool guarantees this).
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, q: usize, i: usize, j0: usize, j1: usize) -> &'a mut [T] {
        debug_assert!(j0 <= j1 && i * self.cols + j1 <= self.len);
        std::slice::from_raw_parts_mut(self.comps[q].add(i * self.cols + j0), j1 - j0)
    }
}

/// One C-tile: half-open row and column ranges.
#[derive(Clone, Copy, Debug)]
struct Tile {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

fn tiles_of(rows: usize, cols: usize) -> Vec<Tile> {
    let mut out = Vec::new();
    let mut i0 = 0;
    while i0 < rows {
        let i1 = (i0 + MC).min(rows);
        let mut j0 = 0;
        while j0 < cols {
            let j1 = (j0 + NC).min(cols);
            out.push(Tile { i0, i1, j0, j1 });
            j0 = j1;
        }
        i0 = i1;
    }
    out
}

/// Compute one C-tile: [`compute_tile_body`] inside the FMA frame
/// ([`simd::fma_frame`]), where `two_prod`'s `mul_add` is one `vfmadd`
/// instead of a soft-float libm call (bit-identical: both are correctly
/// rounded), worth several× on the fused extended-precision kernels.
fn compute_tile<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &SoaTiles<'_, T>,
    t: Tile,
) {
    simd::fma_frame(
        #[inline(always)]
        || compute_tile_body(alpha, a, b, beta, c, t),
    )
}

/// Compute one C-tile through packed panels. The tile of `C` and the
/// `alpha*A` / `B` panels are repacked from SoA into AoS scratch buffers
/// (`B` block-major: each `JB`-column block stores its `kh` rows
/// contiguously, so the micro-kernel streams it with `chunks_exact` —
/// no index arithmetic, no bounds checks in the hot loop).
///
/// Per element this performs the flat kernels' exact op sequence —
/// `beta*c_ij` (or the `beta == 0` overwrite) first, then
/// `c_ij.s_mul_acc(alpha*a_ik, b_kj)` in ascending `k` — so the result is
/// bit-identical to `soa::gemm` / `kernels::gemm`.
#[inline(always)]
fn compute_tile_body<T: FloatBase, const N: usize>(
    alpha: MultiFloat<T, N>,
    a: &SoaMatrix<T, N>,
    b: &SoaMatrix<T, N>,
    beta: MultiFloat<T, N>,
    c: &SoaTiles<'_, T>,
    t: Tile,
) {
    let (ih, jw) = (t.i1 - t.i0, t.j1 - t.j0);
    let kdim = a.cols;
    let full = jw / JB; // full JB-wide column blocks; then a `tail`-wide one
    let tail = jw - full * JB;

    // Packed C tile (AoS, row-major ih x jw). Load + beta-scale up front
    // (beta == 0 overwrites: ct already zero).
    let mut ct: Vec<MultiFloat<T, N>> = vec![MultiFloat::ZERO; ih * jw];
    if !beta.is_zero() {
        for r in 0..ih {
            // SAFETY: this tile's rectangle; disjoint from other tiles.
            let rows: [&[T]; N] =
                core::array::from_fn(|q| &*unsafe { c.row_mut(q, t.i0 + r, t.j0, t.j1) });
            for (x, cij) in ct[r * jw..(r + 1) * jw].iter_mut().enumerate() {
                let v: [T; N] = core::array::from_fn(|q| rows[q][x]);
                *cij = beta.s_mul(MultiFloat::from_components(v));
            }
        }
    }

    // Panel scratch, reused across k-blocks: alpha*A (row-major, KC
    // stride; alpha folded in at pack time — the identical product the
    // flat kernels compute per (i, k), just computed once) and block-major
    // B (block `blk` holds rows k0..k1 of columns blk*JB.. at width w,
    // rows contiguous).
    let mut ap: Vec<MultiFloat<T, N>> = vec![MultiFloat::ZERO; ih * KC];
    let mut bp: Vec<MultiFloat<T, N>> = vec![MultiFloat::ZERO; KC * jw];

    let mut k0 = 0;
    while k0 < kdim {
        let k1 = (k0 + KC).min(kdim);
        let kh = k1 - k0;
        for r in 0..ih {
            for k in 0..kh {
                ap[r * KC + k] = alpha.s_mul(a.get(t.i0 + r, k0 + k));
            }
        }
        let mut blk = 0;
        let mut boff = 0;
        while blk * JB < jw {
            let w = JB.min(jw - blk * JB);
            for k in 0..kh {
                for x in 0..w {
                    let j = t.j0 + blk * JB + x;
                    let v: [T; N] = core::array::from_fn(|q| b.comps[q][(k0 + k) * b.cols + j]);
                    bp[boff + k * w + x] = MultiFloat::from_components(v);
                }
            }
            blk += 1;
            boff += kh * w;
        }

        // Register-blocked micro-kernel: each JB-column block of a C tile
        // row accumulates on the stack across the *entire* k-panel — the
        // flat kernels reload and restore every c_ij once per k; with the
        // k loop innermost that round trip disappears, and the JB
        // independent accumulation chains feed the out-of-order core ILP
        // that one element's serial `add(mul)` dependency chain cannot.
        for r in 0..ih {
            let arow = &ap[r * KC..r * KC + kh];
            for blk in 0..full {
                let bblk = &bp[blk * JB * kh..(blk + 1) * JB * kh];
                let cbase = r * jw + blk * JB;
                let mut acc: [MultiFloat<T, N>; JB] = core::array::from_fn(|x| ct[cbase + x]);
                for (aik, bk) in arow.iter().zip(bblk.chunks_exact(JB)) {
                    for x in 0..JB {
                        acc[x] = acc[x].s_mul_acc(*aik, bk[x]);
                    }
                }
                ct[cbase..cbase + JB].copy_from_slice(&acc);
            }
            if tail > 0 {
                let boff = full * JB * kh;
                let bblk = &bp[boff..boff + tail * kh];
                let cbase = r * jw + full * JB;
                let mut acc: [MultiFloat<T, N>; JB] =
                    core::array::from_fn(|x| ct[cbase + x.min(tail - 1)]);
                for (aik, bk) in arow.iter().zip(bblk.chunks_exact(tail)) {
                    for (x, bkj) in bk.iter().enumerate() {
                        acc[x] = acc[x].s_mul_acc(*aik, *bkj);
                    }
                }
                ct[cbase..cbase + tail].copy_from_slice(&acc[..tail]);
            }
        }
        k0 = k1;
    }

    // Write the finished tile back: the only shared-matrix mutation. It
    // runs after every scalar op, so a panic in this tile's arithmetic
    // leaves its rectangle of C untouched and the executor's rerun needs
    // nothing restored.
    for r in 0..ih {
        // SAFETY: this tile's rectangle; disjoint from other tiles.
        let rows: [&mut [T]; N] =
            core::array::from_fn(|q| unsafe { c.row_mut(q, t.i0 + r, t.j0, t.j1) });
        for (x, cij) in ct[r * jw..(r + 1) * jw].iter().enumerate() {
            let comps = cij.components();
            for q in 0..N {
                rows[q][x] = comps[q];
            }
        }
    }
}

/// `C <- alpha*A*B + beta*C`, cache-blocked, one pool job per C-tile.
/// Bit-identical to [`crate::soa::gemm`] / [`crate::kernels::gemm`]
/// (asserted by the conformance harness) at any thread count.
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
    if c.rows == 0 || c.cols == 0 {
        return;
    }
    let tiles = tiles_of(c.rows, c.cols);
    if mf_telemetry::ENABLED {
        TILE_DISPATCHES.incr();
        TILE_TILES.add(tiles.len() as u64);
        // The flat GEMM count, except that `alpha·a_ik` is packed once per
        // tile rather than once per output row.
        let (adds, muls) = kernels::gemm_ops(c.rows, a.cols, c.cols, beta.is_zero());
        let packs: usize = tiles.iter().map(|t| (t.i1 - t.i0) * a.cols).sum();
        let muls = muls - c.rows * a.cols + packs;
        renorm_probes::record_ops(N, adds as u64, muls as u64);
    }
    let _sp = trace::span("par.gemm.tiled", (c.rows * c.cols) as u64);
    let shared = SoaTiles::new(c);
    // One tile runs serially, with no dispatch.
    let threads = if tiles.len() == 1 { 1 } else { threads };
    let dispatched = Instant::now();
    let ranges: Vec<_> = tiles.iter().map(|t| (t.i0, t.i1)).collect();
    run_chunks(
        "gemm_tiled",
        None,
        threads,
        &ranges,
        &mut [(); 0],
        0,
        |ti, _, _| {
            let t = tiles[ti];
            if threads > 1 {
                TILE_QUEUE_WAIT.add_ns(dispatched.elapsed().as_nanos() as u64);
            }
            let _tsp = trace::span("par.gemm.tile", ((t.i1 - t.i0) * (t.j1 - t.j0)) as u64);
            compute_tile(alpha, a, b, beta, &shared, t)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::{self, SoaMatrix};
    use mf_core::F64x2;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_soa<const N: usize>(rng: &mut SmallRng, rows: usize, cols: usize) -> SoaMatrix<f64, N> {
        SoaMatrix::from_fn(rows, cols, |_, _| {
            MultiFloat::from(rng.gen_range(-1.0..1.0f64))
        })
    }

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

        let mut c_flat = c0.clone();
        soa::gemm(alpha, &a, &b, beta, &mut c_flat);
        let mut c_tile = c0.clone();
        gemm_tiled(alpha, &a, &b, beta, &mut c_tile, threads);
        for q in 0..N {
            assert_eq!(
                c_flat.comps[q], c_tile.comps[q],
                "N={N} {m}x{k}x{n} t={threads} comp {q}: tiled != flat"
            );
        }
    }

    /// Property: at non-multiple-of-tile shapes (1x1, primes, single rows,
    /// rows < threads, exact tile multiples, and > 1 tile in each
    /// dimension) the tiled kernel is bit-identical to the flat SoA kernel.
    #[test]
    fn tiled_matches_flat_at_awkward_shapes() {
        let shapes: [(usize, usize, usize); 8] = [
            (1, 1, 1),
            (3, 1, 2),
            (7, 13, 11),
            (31, 37, 29),
            (MC, KC, NC),
            (MC + 1, KC + 3, NC + 5),
            (2 * MC + 7, 17, 2 * NC + 1),
            (5, 300, 9), // k spans > 2 k-panels
        ];
        for (idx, &(m, k, n)) in shapes.iter().enumerate() {
            for threads in [1usize, 2, 5] {
                assert_tiled_matches_flat::<2>(m, k, n, threads, 2000 + idx as u64);
            }
        }
        // N = 3 exercises the generic-width micro-kernel instantiation.
        assert_tiled_matches_flat::<3>(19, 23, 17, 3, 2100);
        assert_tiled_matches_flat::<3>(MC + 2, 5, NC + 2, 2, 2101);
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
    fn tiles_cover_exactly() {
        for (rows, cols) in [(1, 1), (MC, NC), (MC + 1, NC - 1), (100, 300), (3, 500)] {
            let ts = tiles_of(rows, cols);
            let mut covered = vec![false; rows * cols];
            for t in &ts {
                for i in t.i0..t.i1 {
                    for j in t.j0..t.j1 {
                        assert!(!covered[i * cols + j], "tile overlap at ({i},{j})");
                        covered[i * cols + j] = true;
                    }
                }
            }
            assert!(covered.iter().all(|&v| v), "{rows}x{cols} not covered");
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

    /// N = 3 at a shape whose tiles exercise both row and column
    /// remainders under a thread count above the tile count.
    #[test]
    fn tiled_more_threads_than_tiles() {
        assert_tiled_matches_flat::<3>(2, 3, 2, 16, 2300);
    }
}
