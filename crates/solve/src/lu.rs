//! `f64` LU factorization with partial pivoting and triangular solves.
//!
//! The factorization is a right-looking *blocked* elimination with row
//! pivoting, stored packed (`L` strictly below the diagonal with unit
//! diagonal implied, `U` on and above). Each step of `NB` = 32 columns runs
//! in three parts inside mf-blas's AVX2+FMA frame
//! ([`mf_blas::simd::fma_frame`]):
//!
//! 1. **Panel:** the `NB`-column panel is copied to a column-major buffer
//!    and factored there by the unblocked algorithm, so the pivot search,
//!    the division by the pivot and the elimination all run down
//!    contiguous columns. Each pivot swap is applied at once to the rest
//!    of the row outside the panel.
//! 2. **Block row:** a unit-lower triangular solve turns the rows of the
//!    panel right of it into the `U` block row.
//! 3. **Trailing update:** `A22 -= L21 · U12` by a 4 x 8 register-tiled
//!    micro-kernel over packed operands.
//!
//! **Bitwise contract.** The factors and permutation, or the step and pivot
//! of a [`SolveError::SingularPivot`], are bit-identical to the textbook
//! unblocked `kij` loop, for every input and every `MF_SIMD` value: each
//! element still receives its updates `a - l·u` (a rounded product, then a
//! rounded difference, never a fused multiply-add) in ascending
//! elimination step, and each pivot search sees the same column values
//! with the same first-maximum tie rule. Blocking only changes *when* an
//! update happens, never which ones or in what order.
//!
//! Pivoting *is* data-dependent branching — that is fine here: the paper's
//! branch-free discipline applies to the extended-precision arithmetic
//! kernels, and this solver deliberately keeps the O(n³) factorization in
//! plain hardware `f64` (the mixed-precision pattern; see
//! [`crate::refine`]).

use crate::{MatrixF64, SolveError};
use mf_blas::simd::fma_frame;

/// Panel width: the columns eliminated per blocked step.
const NB: usize = 32;
/// Rows of the trailing-update micro-kernel tile.
const MR: usize = 4;
/// Columns of the trailing-update micro-kernel tile (two AVX2 registers).
const NR: usize = 8;

/// Packed LU factors with the pivoting permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed `L\U` (row-major, `n x n`).
    pub lu: MatrixF64,
    /// Row permutation: elimination step `k` swapped rows `k` and
    /// `perm[k]` of the working matrix (LAPACK `ipiv` convention applied
    /// eagerly — `perm` maps output rows to original rows).
    pub perm: Vec<usize>,
}

/// Factor a square matrix. Returns [`SolveError::SingularPivot`] when the
/// best available pivot at some step is zero or non-finite (singular to
/// working precision).
pub fn lu_factor(a: &MatrixF64) -> Result<LuFactors, SolveError> {
    if a.rows != a.cols {
        return Err(SolveError::Shape(format!(
            "lu_factor needs a square matrix, got {}x{}",
            a.rows, a.cols
        )));
    }
    let n = a.rows;
    let mut lu = a.clone();
    let perm = fma_frame(
        #[inline(always)]
        || factor_blocked(&mut lu.data, n),
    )?;
    Ok(LuFactors { lu, perm })
}

/// The blocked factorization of the row-major `n x n` matrix `a`, in
/// place; returns the permutation.
#[inline(always)]
fn factor_blocked(a: &mut [f64], n: usize) -> Result<Vec<usize>, SolveError> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut panel = vec![0.0f64; NB.min(n) * n];
    let mut upack = Vec::new();
    for k0 in (0..n).step_by(NB) {
        let w = NB.min(n - k0);
        let m = n - k0;
        let p = &mut panel[..w * m];
        for r in 0..m {
            let row = &a[(k0 + r) * n + k0..][..w];
            for c in 0..w {
                p[c * m + r] = row[c];
            }
        }
        factor_panel(a, n, k0, w, p, &mut perm)?;
        for r in 0..m {
            let row = &mut a[(k0 + r) * n + k0..][..w];
            for c in 0..w {
                row[c] = p[c * m + r];
            }
        }
        if k0 + w < n {
            solve_block_row(a, n, k0, w, p);
            update_trailing(a, n, k0, w, p, &mut upack);
        }
    }
    Ok(perm)
}

/// Unblocked elimination of the column-major panel `p` (`m = n - k0` rows
/// by `w` columns, global columns `k0..k0 + w`). Row swaps are applied to
/// `p` and, outside the panel's columns, to `a`.
#[inline(always)]
fn factor_panel(
    a: &mut [f64],
    n: usize,
    k0: usize,
    w: usize,
    p: &mut [f64],
    perm: &mut [usize],
) -> Result<(), SolveError> {
    let m = n - k0;
    for kk in 0..w {
        let k = k0 + kk;
        // Partial pivot: the first largest |entry| in column k at or
        // below the diagonal.
        let col = &p[kk * m..(kk + 1) * m];
        let (mut pi, mut pv) = (kk, col[kk].abs());
        for r in kk + 1..m {
            let v = col[r].abs();
            if v > pv {
                pi = r;
                pv = v;
            }
        }
        if pv == 0.0 || !pv.is_finite() {
            return Err(SolveError::SingularPivot {
                step: k,
                pivot: col[pi],
            });
        }
        if pi != kk {
            for c in 0..w {
                p.swap(c * m + kk, c * m + pi);
            }
            let (top, bot) = a.split_at_mut((k0 + pi) * n);
            let (ra, rb) = (&mut top[k * n..(k + 1) * n], &mut bot[..n]);
            ra[..k0].swap_with_slice(&mut rb[..k0]);
            ra[k0 + w..].swap_with_slice(&mut rb[k0 + w..]);
            perm.swap(k, k0 + pi);
        }
        // Eliminate below the pivot, column by column.
        let (left, right) = p.split_at_mut((kk + 1) * m);
        let col = &mut left[kk * m..];
        let pivot = col[kk];
        for r in kk + 1..m {
            col[r] /= pivot;
        }
        for dst in right.chunks_exact_mut(m) {
            let u = dst[kk];
            for r in kk + 1..m {
                dst[r] -= col[r] * u;
            }
        }
    }
    Ok(())
}

/// The `U` block row: rows `k0..k0 + w`, columns right of the panel, by
/// forward substitution with the panel's unit-lower `L11`.
#[inline(always)]
fn solve_block_row(a: &mut [f64], n: usize, k0: usize, w: usize, p: &[f64]) {
    let (m, k1) = (n - k0, k0 + w);
    for kk in 0..w {
        let (top, bot) = a.split_at_mut((k0 + kk + 1) * n);
        let u = &top[(k0 + kk) * n + k1..];
        for r in kk + 1..w {
            let l = p[kk * m + r];
            let dst = &mut bot[(r - kk - 1) * n + k1..][..n - k1];
            for (d, &uj) in dst.iter_mut().zip(u) {
                *d -= l * uj;
            }
        }
    }
}

/// `A22 -= L21 · U12` over rows and columns `k0 + w..n`, one
/// [`MR`]` x `[`NR`] tile of `A22` at a time through [`tile_update`].
///
/// Both operands are packed first, so the micro-kernel streams contiguous
/// memory: `U12` into `upack` as `NR`-column slivers (`w` steps of `NR`
/// entries each) and, per row tile, `L21` into `MR`-row steps. Without
/// packing, the power-of-two row stride of `U12` (and the column stride of
/// the panel at `m = 256`) maps every step of a tile to the same few L1
/// sets. Ragged edges are zero-padded in the packs; the padded lanes are
/// computed and never stored.
#[inline(always)]
fn update_trailing(a: &mut [f64], n: usize, k0: usize, w: usize, p: &[f64], upack: &mut Vec<f64>) {
    let (m, k1) = (n - k0, k0 + w);
    let rest = n - k1;
    let (top, a22) = a.split_at_mut(k1 * n);
    upack.clear();
    upack.resize(rest.div_ceil(NR) * w * NR, 0.0);
    for kk in 0..w {
        let row = &top[(k0 + kk) * n + k1..(k0 + kk + 1) * n];
        for (s, seg) in row.chunks(NR).enumerate() {
            upack[(s * w + kk) * NR..][..seg.len()].copy_from_slice(seg);
        }
    }
    let mut lpack = [[0.0f64; MR]; NB];
    for i in (0..rest).step_by(MR) {
        let rows = MR.min(rest - i);
        for (kk, lk) in lpack[..w].iter_mut().enumerate() {
            let col = &p[kk * m + w + i..][..rows];
            lk[..rows].copy_from_slice(col);
            lk[rows..].fill(0.0);
        }
        for (s, us) in upack.chunks_exact(w * NR).enumerate() {
            let j = s * NR;
            let c = &mut a22[i * n + k1 + j..];
            tile_update(c, n, &lpack[..w], us, rows, NR.min(rest - j));
        }
    }
}

/// The `rows x cols` corner (at most `MR x NR`) of the tile `c` (row
/// stride `ldc`) less `l · u`. A full tile is loaded straight into the
/// register accumulators; an edge tile goes through a zero-padded copy, so
/// the accumulator array is only ever indexed by constants.
#[inline(always)]
fn tile_update(c: &mut [f64], ldc: usize, l: &[[f64; MR]], u: &[f64], rows: usize, cols: usize) {
    let mut acc = [[0.0f64; NR]; MR];
    if rows == MR && cols == NR {
        for (r, row) in acc.iter_mut().enumerate() {
            *row = c[r * ldc..][..NR].try_into().unwrap();
        }
        acc = tile_kernel(acc, l, u);
        for (r, row) in acc.iter().enumerate() {
            c[r * ldc..][..NR].copy_from_slice(row);
        }
    } else {
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            row[..cols].copy_from_slice(&c[r * ldc..][..cols]);
        }
        acc = tile_kernel(acc, l, u);
        for (r, row) in acc.iter().enumerate().take(rows) {
            c[r * ldc..][..cols].copy_from_slice(&row[..cols]);
        }
    }
}

/// The micro-kernel: `acc -= l · u` with `l` packed as `MR` entries per
/// step and `u` as `NR` entries per step. Each step is a separate multiply
/// and subtract, in ascending step order.
#[inline(always)]
fn tile_kernel(mut acc: [[f64; NR]; MR], l: &[[f64; MR]], u: &[f64]) -> [[f64; NR]; MR] {
    for (lk, uk) in l.iter().zip(u.chunks_exact(NR)) {
        for r in 0..MR {
            for q in 0..NR {
                acc[r][q] -= lk[r] * uk[q];
            }
        }
    }
    acc
}

impl LuFactors {
    /// Solve `A x = b` from the packed factors (permute, forward-, then
    /// back-substitute).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "lu solve: b has {} elements, need {n}", b.len());
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        forward_substitute_unit(&self.lu, &mut x);
        back_substitute(&self.lu, &mut x);
        x
    }
}

/// In-place `L y = b` with the unit-diagonal `L` packed strictly below the
/// diagonal of `m`.
pub fn forward_substitute_unit(m: &MatrixF64, x: &mut [f64]) {
    let n = m.rows;
    for i in 1..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= m.at(i, j) * x[j];
        }
        x[i] = acc;
    }
}

/// In-place `U x = y` with `U` packed on and above the diagonal of `m`.
pub fn back_substitute(m: &MatrixF64, x: &mut [f64]) {
    let n = m.rows;
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in i + 1..n {
            acc -= m.at(i, j) * x[j];
        }
        x[i] = acc / m.at(i, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mat_vec(a: &MatrixF64, x: &[f64]) -> Vec<f64> {
        (0..a.rows)
            .map(|i| a.row(i).iter().zip(x).map(|(&aij, &xj)| aij * xj).sum())
            .collect()
    }

    /// The unblocked `kij` elimination the blocked [`lu_factor`] must
    /// reproduce bit for bit.
    fn lu_factor_reference(a: &MatrixF64) -> Result<LuFactors, SolveError> {
        assert_eq!(a.rows, a.cols);
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let (mut pi, mut pv) = (k, lu.at(k, k).abs());
            for i in k + 1..n {
                let v = lu.at(i, k).abs();
                if v > pv {
                    pi = i;
                    pv = v;
                }
            }
            if pv == 0.0 || !pv.is_finite() {
                return Err(SolveError::SingularPivot {
                    step: k,
                    pivot: lu.at(pi, k),
                });
            }
            if pi != k {
                for j in 0..n {
                    let t = lu.at(k, j);
                    lu.set(k, j, lu.at(pi, j));
                    lu.set(pi, j, t);
                }
                perm.swap(k, pi);
            }
            let pivot = lu.at(k, k);
            for i in k + 1..n {
                let f = lu.at(i, k) / pivot;
                lu.set(i, k, f);
                for j in k + 1..n {
                    let v = lu.at(i, j) - f * lu.at(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// `lu_factor(a)` equals `lu_factor_reference(a)` bitwise: the packed
    /// factors and permutation, or the failing step and pivot bits.
    fn assert_matches_reference(a: &MatrixF64, what: &str) {
        match (lu_factor(a), lu_factor_reference(a)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.perm, want.perm, "{what}: perm");
                let bits = |m: &MatrixF64| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let (g, w) = (bits(&got.lu), bits(&want.lu));
                if let Some(e) = (0..g.len()).find(|&e| g[e] != w[e]) {
                    panic!(
                        "{what}: lu[{}][{}] = {:016x}, reference {:016x}",
                        e / a.cols,
                        e % a.cols,
                        g[e],
                        w[e]
                    );
                }
            }
            (
                Err(SolveError::SingularPivot { step, pivot }),
                Err(SolveError::SingularPivot {
                    step: ws,
                    pivot: wp,
                }),
            ) => {
                assert_eq!(step, ws, "{what}: singular step");
                assert_eq!(pivot.to_bits(), wp.to_bits(), "{what}: singular pivot");
            }
            (got, want) => panic!("{what}: {got:?} vs reference {want:?}"),
        }
    }

    fn random_matrix(rng: &mut SmallRng, n: usize) -> MatrixF64 {
        MatrixF64::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Sizes on both sides of the panel width and the micro-kernel tile,
    /// none of them a multiple of the tile past the first panel.
    #[test]
    fn blocked_matches_reference_across_sizes() {
        let mut rng = SmallRng::seed_from_u64(7102);
        for n in [1usize, 2, 3, NB - 1, NB, NB + 1, 2 * NB + 3, 257] {
            assert_matches_reference(&random_matrix(&mut rng, n), &format!("random n={n}"));
        }
    }

    #[test]
    fn blocked_matches_reference_hilbert() {
        for n in [12usize, 64] {
            assert_matches_reference(&crate::hilbert(n), &format!("hilbert {n}"));
        }
    }

    #[test]
    fn blocked_matches_reference_diagonally_dominant() {
        let mut rng = SmallRng::seed_from_u64(7103);
        for n in [5usize, NB + 7, 100] {
            let a = MatrixF64::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 + 1.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            });
            assert_matches_reference(&a, &format!("diagonally dominant n={n}"));
        }
    }

    /// `A = H1 H2 diag(sigma) H3 H4`: random Householder reflectors around
    /// singular values spaced geometrically from 1 down to
    /// `10^-log_cond`, the shape of the dense systems the refinement
    /// benchmark solves.
    fn householder_system(rng: &mut SmallRng, n: usize, log_cond: i32) -> MatrixF64 {
        let mut a = MatrixF64::from_fn(n, n, |i, j| {
            if i == j {
                10f64.powf(-(log_cond as f64) * i as f64 / (n - 1) as f64)
            } else {
                0.0
            }
        });
        for r in 0..4 {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let vv: f64 = v.iter().map(|x| x * x).sum();
            if r < 2 {
                for j in 0..n {
                    let s = (0..n).map(|i| v[i] * a.at(i, j)).sum::<f64>() * 2.0 / vv;
                    for i in 0..n {
                        a.set(i, j, a.at(i, j) - s * v[i]);
                    }
                }
            } else {
                for i in 0..n {
                    let s = (0..n).map(|j| a.at(i, j) * v[j]).sum::<f64>() * 2.0 / vv;
                    for j in 0..n {
                        a.set(i, j, a.at(i, j) - s * v[j]);
                    }
                }
            }
        }
        a
    }

    #[test]
    fn blocked_matches_reference_householder_systems() {
        let mut rng = SmallRng::seed_from_u64(7104);
        for (n, log_cond) in [(192usize, 6), (224, 9), (256, 12), (256, 15)] {
            let a = householder_system(&mut rng, n, log_cond);
            assert_matches_reference(&a, &format!("householder n={n} cond=1e{log_cond}"));
        }
    }

    /// Entries of exactly ±1: every pivot search starts with ties in
    /// magnitude, so the first-maximum rule decides the permutation.
    #[test]
    fn blocked_matches_reference_pivot_ties() {
        let mut rng = SmallRng::seed_from_u64(7105);
        for n in [NB + 5, 2 * NB + 3] {
            let a = MatrixF64::from_fn(n, n, |_, _| if rng.gen::<bool>() { 1.0 } else { -1.0 });
            assert_matches_reference(&a, &format!("±1 n={n}"));
        }
    }

    /// A zero column past the first panel: every update leaves it zero, so
    /// the pivot search fails at that column's step, inside a later panel.
    #[test]
    fn blocked_singular_pivot_in_later_panel() {
        let mut rng = SmallRng::seed_from_u64(7106);
        for (n, zero_col) in [(80usize, NB + 13), (150, 2 * NB + 9)] {
            let mut a = random_matrix(&mut rng, n);
            for i in 0..n {
                a.set(i, zero_col, 0.0);
            }
            match lu_factor(&a) {
                Err(SolveError::SingularPivot { step, .. }) => assert_eq!(step, zero_col),
                other => panic!("n={n}: expected SingularPivot, got {other:?}"),
            }
            assert_matches_reference(&a, &format!("zero column {zero_col} n={n}"));
        }
    }

    #[test]
    fn blocked_matches_reference_non_finite() {
        let mut rng = SmallRng::seed_from_u64(7107);
        let n = 2 * NB + 3;
        let base = random_matrix(&mut rng, n);
        for (i, j, v) in [
            (0usize, 0usize, f64::NAN),
            (50, 40, f64::NAN),
            (60, 5, f64::INFINITY),
            (3, 60, f64::NEG_INFINITY),
            (n - 1, n - 1, f64::INFINITY),
        ] {
            let mut a = base.clone();
            a.set(i, j, v);
            assert!(lu_factor(&a).is_err(), "{v} at ({i}, {j}) must fail");
            assert_matches_reference(&a, &format!("{v} at ({i}, {j})"));
        }
    }

    #[test]
    fn lu_recovers_random_solution() {
        let mut rng = SmallRng::seed_from_u64(7100);
        for n in [1usize, 2, 5, 20, 64] {
            // Diagonally dominant => well-conditioned and non-singular.
            let a = MatrixF64::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 + 1.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            });
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = mat_vec(&a, &x_true);
            let f = lu_factor(&a).expect("non-singular");
            let x = f.solve(&b);
            for i in 0..n {
                assert!(
                    (x[i] - x_true[i]).abs() <= 1e-10 * x_true[i].abs().max(1.0),
                    "n={n} i={i}: {} vs {}",
                    x[i],
                    x_true[i]
                );
            }
        }
    }

    #[test]
    fn lu_pivots_past_zero_leading_entry() {
        // a[0][0] = 0 forces a pivot swap immediately.
        let a = MatrixF64 {
            rows: 2,
            cols: 2,
            data: vec![0.0, 1.0, 1.0, 0.0],
        };
        let f = lu_factor(&a).expect("permutation matrix is non-singular");
        let x = f.solve(&[3.0, 4.0]);
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = MatrixF64 {
            rows: 2,
            cols: 2,
            data: vec![1.0, 2.0, 2.0, 4.0],
        };
        match lu_factor(&a) {
            Err(SolveError::SingularPivot { step, .. }) => assert_eq!(step, 1),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn lu_rejects_non_square() {
        let a = MatrixF64::zeros(2, 3);
        assert!(matches!(lu_factor(&a), Err(SolveError::Shape(_))));
    }

    #[test]
    fn triangular_solves_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(7101);
        let n = 9;
        // A packed L\U with a safely bounded-away diagonal.
        let m = MatrixF64::from_fn(n, n, |i, j| {
            if i == j {
                rng.gen_range(1.0..2.0)
            } else {
                rng.gen_range(-0.5..0.5)
            }
        });
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Forward: compute b = L y, then solve back to y.
        let mut b = y.clone();
        for i in (0..n).rev() {
            for j in 0..i {
                b[i] += m.at(i, j) * b[j]; // b = L y computed in place
            }
        }
        let mut x = b;
        forward_substitute_unit(&m, &mut x);
        for i in 0..n {
            assert!((x[i] - y[i]).abs() <= 1e-12, "forward i={i}");
        }
        // Back: b = U y, solve back.
        let mut b: Vec<f64> = (0..n)
            .map(|i| (i..n).map(|j| m.at(i, j) * y[j]).sum())
            .collect();
        back_substitute(&m, &mut b);
        for i in 0..n {
            assert!((b[i] - y[i]).abs() <= 1e-12, "back i={i}");
        }
    }
}
