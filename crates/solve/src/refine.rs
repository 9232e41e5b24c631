//! Mixed-precision iterative refinement (Higham & Mary 2022; the paper's
//! §1 motivating scenario).
//!
//! The O(n³) factorization stays in hardware `f64`; only the O(n²)
//! residual `r = b − A·x` is computed in extended precision, at a
//! [`ResidualRung`]: `MultiFloat<f64, N>` (one branch-free
//! extended-precision dot chain per row, eight rows at a time in SIMD
//! lanes on the [`mf_blas::simd::dot_rows`] engine, which reads the `f64`
//! matrix in place) or the exact residual. Each step solves `A d = r` from
//! the cached factors and updates `x += d`; with an extended-precision
//! residual the iteration converges to a forward error near working
//! precision whenever `cond(A) · ε_f64` is comfortably below 1, instead of
//! stalling at the condition-number floor the way an `f64` residual does.
//!
//! One loop serves both entry points: [`refine_with_factors`] pins the
//! residual to one rung, and [`refine_adaptive_with_factors`] starts at
//! `f64` and climbs the ladder when the correction stalls.

use crate::lu::LuFactors;
use crate::{norm_inf, MatrixF64, SolveError};
use mf_blas::simd;
use mf_core::adaptive::EscalationPolicy;
use mf_core::{MultiFloat, Rung};
use mf_mpsoft::LongAccumulator;
use mf_telemetry::{trace, Counter, Gauge};

/// Iteration count of the most recent refinement (live-view gauge).
static REFINE_ITERS: Gauge = Gauge::new("solve.refine.iterations");

/// Residual-precision climbs performed by adaptive refinement.
static ADAPT_ESCALATIONS: Counter = Counter::new("solve.refine.adaptive.escalations");

/// Knobs for [`refine_with_factors`] and [`refine_adaptive_with_factors`].
#[derive(Debug, Clone, Copy)]
pub struct RefineOptions {
    /// Hard cap on refinement steps.
    pub max_iters: usize,
    /// Convergence: stop once the correction is negligible,
    /// `||d||_inf <= tol_factor * eps * ||x||_inf`. A residual-based test
    /// would be useless here — LU with partial pivoting is already
    /// normwise backward stable, so the *residual* of the unrefined
    /// solution sits at the `n·eps` level even when its *forward* error is
    /// `cond(A)·eps`; it is the correction norm that tracks the remaining
    /// forward error (Higham & Mary 2022; same criterion as LAPACK's
    /// `dsgesv`).
    pub tol_factor: f64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_iters: 40,
            tol_factor: 4.0,
        }
    }
}

/// Residual-precision rungs. The refinement ladder has one rung below
/// [`Rung`]'s (`f64` — the classical fixed-precision residual) and tops
/// out at the exact residual instead of a rounded oracle evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResidualRung {
    /// Plain `f64` residual (no extended precision).
    #[default]
    F64,
    /// `MultiFloat<f64, 2>` residual (~107-bit).
    X2,
    /// `MultiFloat<f64, 3>` residual (~161-bit).
    X3,
    /// `MultiFloat<f64, 4>` residual (~215-bit).
    X4,
    /// Exact residual: each row's products summed without rounding in an
    /// [`mf_mpsoft::LongAccumulator`] (a fixed-point register, no
    /// allocation per product), then one rounding to `f64` per entry. At
    /// n = 256 it costs about as much as the `X4` residual (EXPERIMENTS.md
    /// ablation 19).
    Exact,
}

impl ResidualRung {
    fn next(self) -> Self {
        match self {
            ResidualRung::F64 => ResidualRung::X2,
            ResidualRung::X2 => ResidualRung::X3,
            ResidualRung::X3 => ResidualRung::X4,
            _ => ResidualRung::Exact,
        }
    }

    /// Map an [`EscalationPolicy`] ladder cap onto residual rungs
    /// (`N2 → X2`, …, `Oracle → Exact`).
    pub fn from_cap(r: Rung) -> Self {
        match r {
            Rung::N2 => ResidualRung::X2,
            Rung::N3 => ResidualRung::X3,
            Rung::N4 => ResidualRung::X4,
            Rung::Oracle => ResidualRung::Exact,
        }
    }
}

impl std::fmt::Display for ResidualRung {
    /// Honours width and alignment (`{rung:>5}`), so rung names line up
    /// in tables.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            ResidualRung::F64 => "f64",
            ResidualRung::X2 => "F64x2",
            ResidualRung::X3 => "F64x3",
            ResidualRung::X4 => "F64x4",
            ResidualRung::Exact => "exact",
        })
    }
}

/// Refinement outcome and its escalation trace.
#[derive(Debug, Clone)]
pub struct AdaptiveRefinement {
    pub x: Vec<f64>,
    /// `||b − A·x_k||_inf` before step `k` (at that step's rung, rounded
    /// to `f64`), plus one final entry for the returned `x`, so the vector
    /// has `iterations + 1` entries.
    pub residual_norms: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// Residual rung of each entry of `residual_norms`, in order
    /// (`rung_history[k]` produced `residual_norms[k]`, the final residual
    /// included).
    pub rung_history: Vec<ResidualRung>,
    /// Ladder climbs performed.
    pub escalations: u32,
}

impl AdaptiveRefinement {
    /// The rung the refinement settled on: that of the final residual.
    pub fn final_rung(&self) -> ResidualRung {
        self.rung_history.last().copied().unwrap_or_default()
    }
}

/// Residual `r = b − A·x` at `rung`, rounded to `f64` entry by entry.
///
/// # Panics
///
/// If `b` does not have one entry per row of `A`, or `x` one per column.
pub fn residual(a: &MatrixF64, b: &[f64], x: &[f64], rung: ResidualRung) -> Vec<f64> {
    assert!(
        a.rows == b.len() && a.cols == x.len(),
        "residual: A is {}x{}, b has {} elements and x {}",
        a.rows,
        a.cols,
        b.len(),
        x.len()
    );
    match rung {
        ResidualRung::F64 => residual_extended::<1>(a, b, x),
        ResidualRung::X2 => residual_extended::<2>(a, b, x),
        ResidualRung::X3 => residual_extended::<3>(a, b, x),
        ResidualRung::X4 => residual_extended::<4>(a, b, x),
        ResidualRung::Exact => residual_exact(a, b, x),
    }
}

/// Residual with every row dot product accumulated in
/// `MultiFloat<f64, N>`, rounded to `f64` on return.
///
/// The rows run eight at a time on the [`mf_blas::simd::dot_rows`]
/// engine, which widens the `f64` entries of `A` and `x` as it reads them;
/// each row is bit-identical to `kernels::dot` of the widened row and `x`.
fn residual_extended<const N: usize>(a: &MatrixF64, b: &[f64], x: &[f64]) -> Vec<f64>
where
    MultiFloat<f64, N>: mf_blas::Scalar,
{
    let mut r = Vec::with_capacity(b.len());
    // Rows arrive in ascending order.
    simd::dot_rows(a, x, |i, ax| {
        r.push(MultiFloat::<f64, N>::from(b[i]).sub(ax).to_f64());
    });
    // The engine counted the row dots; add the `b - A·x` subtractions.
    mf_core::renorm_probes::record_ops(N, b.len() as u64, 0);
    r
}

/// Exact residual `r = b − A·x`: each row's products and `b_i` summed in
/// a [`LongAccumulator`] with no rounding, then rounded once to `f64`.
fn residual_exact(a: &MatrixF64, b: &[f64], x: &[f64]) -> Vec<f64> {
    (0..b.len())
        .map(|i| {
            let mut acc = LongAccumulator::new();
            for (&aij, &xj) in a.row(i).iter().zip(x) {
                acc.add_product(aij, -xj);
            }
            acc.add_product(b[i], 1.0);
            acc.to_mp().to_f64()
        })
        .collect()
}

/// A correction shrinking by less than this factor per step means the
/// iteration is floored on residual precision, not still converging: with
/// an adequate residual the contraction ratio is `~cond(A)·ε` per step,
/// while at the precision floor consecutive corrections have the same
/// magnitude (random rounding noise).
const STALL_RATIO: f64 = 0.5;

/// Solve `A x = b` from pre-computed `f64` LU factors by iterative
/// refinement with every residual at `rung` (factor once, refine many
/// right-hand sides). `F64` is plain `f64` refinement (the ablation
/// baseline); `X2` (quad) already recovers working-precision solutions at
/// condition numbers ~1e12–1e14, `X4` (octuple) at ~1e16.
pub fn refine_with_factors(
    a: &MatrixF64,
    factors: &LuFactors,
    b: &[f64],
    opts: RefineOptions,
    rung: ResidualRung,
) -> Result<AdaptiveRefinement, SolveError> {
    refine(a, factors, b, opts, rung, rung)
}

/// Solve `A x = b` from pre-computed `f64` LU factors by iterative
/// refinement whose residual precision climbs a ladder
/// (`f64 → F64x2 → F64x3 → F64x4 → exact`) instead of being fixed up
/// front. When the correction norm stalls (`STALL_RATIO`) before the
/// convergence test passes, the residual precision escalates one rung —
/// so well-conditioned systems never pay for extended precision, and
/// ill-conditioned ones climb exactly as high as their condition number
/// demands.
///
/// Only the `max_rung` knob of [`EscalationPolicy`] applies here (mapped
/// through [`ResidualRung::from_cap`]); `tol_bits` is the adaptive BLAS
/// chunks' head bound.
pub fn refine_adaptive_with_factors(
    a: &MatrixF64,
    factors: &LuFactors,
    b: &[f64],
    opts: RefineOptions,
    policy: &EscalationPolicy,
) -> Result<AdaptiveRefinement, SolveError> {
    let cap = ResidualRung::from_cap(policy.max_rung);
    refine(a, factors, b, opts, ResidualRung::F64, cap)
}

/// The refinement loop: residuals start at `rung` and climb no higher than
/// `max_rung`, so `rung == max_rung` never escalates. The operands must
/// agree (`A` square, `b` and the factors of its size); a mismatch is a
/// [`SolveError::Shape`], not a panic in the triangular solves or the
/// residual's row engine.
fn refine(
    a: &MatrixF64,
    factors: &LuFactors,
    b: &[f64],
    opts: RefineOptions,
    mut rung: ResidualRung,
    max_rung: ResidualRung,
) -> Result<AdaptiveRefinement, SolveError> {
    let n = factors.lu.rows;
    if a.rows != a.cols || a.rows != b.len() || a.rows != n {
        return Err(SolveError::Shape(format!(
            "refine: A is {}x{}, b has {} elements and the factors are {n}x{n}",
            a.rows,
            a.cols,
            b.len()
        )));
    }
    let mut x = factors.solve(b);
    let mut residual_norms = Vec::new();
    let mut rung_history = Vec::new();
    let mut escalations = 0u32;
    let mut converged = false;
    let mut iterations = 0;
    // Correction norm of the previous step *at the current rung*; reset on
    // escalation so every rung gets one ungated step before being judged.
    let mut prev_d: Option<f64> = None;
    for _ in 0..opts.max_iters {
        let _sp = trace::span("solve.refine.step", n as u64);
        let r = residual(a, b, &x, rung);
        residual_norms.push(norm_inf(&r));
        rung_history.push(rung);
        let d = factors.solve(&r);
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += di;
        }
        iterations += 1;
        let dnorm = norm_inf(&d);
        if dnorm <= opts.tol_factor * f64::EPSILON * norm_inf(&x) {
            converged = true;
            break;
        }
        if let Some(p) = prev_d {
            if dnorm > STALL_RATIO * p && rung < max_rung {
                rung = rung.next();
                escalations += 1;
                prev_d = None;
                continue;
            }
        }
        prev_d = Some(dnorm);
    }
    // One final residual so the caller always sees iterations + 1 norms,
    // the last reflecting the returned x at the rung it was computed on.
    let r = residual(a, b, &x, rung);
    residual_norms.push(norm_inf(&r));
    rung_history.push(rung);
    REFINE_ITERS.set(iterations as i64);
    ADAPT_ESCALATIONS.add(u64::from(escalations));
    Ok(AdaptiveRefinement {
        x,
        residual_norms,
        iterations,
        converged,
        rung_history,
        escalations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hilbert, lu_factor, matrix_norm_inf};
    use mf_mpsoft::MpFloat;

    /// Right-hand side `b = H * ones` with every entry computed through
    /// the exact MpFloat dot oracle, rounded once to `f64` — the ground
    /// truth is solid even where the matrix is nearly singular.
    fn hilbert_rhs_ones(h: &MatrixF64) -> Vec<f64> {
        let ones = vec![1.0f64; h.cols];
        (0..h.rows)
            .map(|i| MpFloat::exact_dot(h.row(i), &ones).to_f64())
            .collect()
    }

    const ORACLE_PREC: u32 = 512;

    /// Oracle solve of the *stored* `f64` system at 512-bit precision.
    /// This is the right reference: rounding `b = H·ones` to `f64` already
    /// perturbs the true solution of the stored system away from `ones` by
    /// ~`cond(H)·eps` (O(1) at n = 12!), so refinement must be judged
    /// against the exact solution of what it was actually given, not
    /// against `ones`. Hilbert matrices are SPD, so elimination without
    /// pivoting is fine at this precision.
    fn oracle_solve(h: &MatrixF64, b: &[f64]) -> Vec<f64> {
        let (n, p) = (h.rows, ORACLE_PREC);
        let mut m: Vec<Vec<MpFloat>> = (0..n)
            .map(|i| {
                h.row(i)
                    .iter()
                    .chain(std::iter::once(&b[i]))
                    .map(|&v| MpFloat::from_f64(v, p))
                    .collect()
            })
            .collect();
        for k in 0..n {
            let pivot_row = m[k].clone();
            for row in m.iter_mut().skip(k + 1) {
                let f = row[k].div(&pivot_row[k], p);
                for (dst, src) in row.iter_mut().zip(&pivot_row).skip(k) {
                    *dst = dst.sub(&f.mul(src, p), p);
                }
            }
        }
        let mut xs: Vec<MpFloat> = vec![MpFloat::zero(p); n];
        for i in (0..n).rev() {
            let mut acc = m[i][n].clone();
            for j in i + 1..n {
                acc = acc.sub(&m[i][j].mul(&xs[j], p), p);
            }
            xs[i] = acc.div(&m[i][i], p);
        }
        xs.iter().map(|v| v.to_f64()).collect()
    }

    fn ferr_vs(x: &[f64], x_ref: &[f64]) -> f64 {
        x.iter()
            .zip(x_ref)
            .fold(0.0f64, |m, (&xi, &ri)| m.max((xi - ri).abs()))
    }

    /// Exact residual norm via MpFloat: `||b − H·x||_inf` with the dot
    /// products computed exactly (r_i = exact_dot([row, b_i], [-x, 1])).
    fn exact_residual_norm(h: &MatrixF64, b: &[f64], x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..h.rows {
            let mut xs = h.row(i).to_vec();
            xs.push(b[i]);
            let mut ys: Vec<f64> = x.iter().map(|&v| -v).collect();
            ys.push(1.0);
            worst = worst.max(MpFloat::exact_dot(&xs, &ys).to_f64().abs());
        }
        worst
    }

    /// The headline claim (paper §1, Higham & Mary 2022): on Hilbert
    /// systems with condition numbers up to ~1e16, F64x4-residual
    /// refinement converges to the residual bound — verified against the
    /// exact MpFloat oracle, not against the refinement's own arithmetic —
    /// and recovers the solution to near machine accuracy, while the
    /// factorization alone is orders of magnitude off.
    #[test]
    fn refine_converges_to_f64x4_residual_bound_on_hilbert_vs_oracle() {
        for n in [8usize, 10, 12] {
            let h = hilbert(n);
            let b = hilbert_rhs_ones(&h);
            let f = lu_factor(&h).unwrap();
            let out = refine_with_factors(&h, &f, &b, RefineOptions::default(), ResidualRung::X4)
                .unwrap();
            assert!(
                out.converged,
                "n={n}: did not converge: {:?}",
                out.residual_norms
            );

            // Forward error vs the 512-bit oracle solution of the stored
            // system: refinement reaches near machine accuracy where the
            // plain LU solve is off by ~cond(H)*eps (≈1e-6 at n=8, O(1) at
            // n=12).
            let x_ref = oracle_solve(&h, &b);
            let ferr = ferr_vs(&out.x, &x_ref);
            let xnorm = norm_inf(&x_ref);
            assert!(
                ferr <= 1e-12 * xnorm,
                "n={n}: forward error {ferr:e} (||x|| = {xnorm:e})"
            );
            let plain = f.solve(&b);
            let plain_err = ferr_vs(&plain, &x_ref);
            assert!(
                plain_err > 100.0 * ferr.max(1e-15),
                "n={n}: refinement should beat plain LU ({plain_err:e} vs {ferr:e})"
            );

            // Residual bound, judged by the *oracle*: the true residual of
            // the refined x sits at the scaled backward-error level the
            // F64x4 residual reported, not above it.
            let r_exact = exact_residual_norm(&h, &b, &out.x);
            let scale = matrix_norm_inf(&h) * norm_inf(&out.x) + norm_inf(&b);
            let bound = RefineOptions::default().tol_factor * n as f64 * f64::EPSILON * scale;
            assert!(
                r_exact <= bound,
                "n={n}: exact residual {r_exact:e} above bound {bound:e}"
            );
            // And the F64x4 residual agreed with the oracle when it
            // declared convergence (same bound, so they can differ by at
            // most rounding in the extended dot).
            let reported = *out.residual_norms.last().unwrap();
            assert!(
                (reported - r_exact).abs() <= 1e-3 * r_exact.max(f64::EPSILON * scale),
                "n={n}: reported {reported:e} vs exact {r_exact:e}"
            );

            // Residual norms decrease until convergence.
            for w in out.residual_norms.windows(2) {
                assert!(
                    w[1] <= w[0] * 0.9 || w[1] <= bound,
                    "n={n}: non-decreasing residuals {:?}",
                    out.residual_norms
                );
            }
        }
    }

    /// F64x2 residuals suffice at moderate conditioning, and the f64
    /// baseline stalls at the condition-number floor where the
    /// extended residual does not — the mixed-precision ablation.
    #[test]
    fn residual_precision_ablation() {
        let n = 10;
        let h = hilbert(n);
        let b = hilbert_rhs_ones(&h);
        let x_ref = oracle_solve(&h, &b);
        let f = lu_factor(&h).unwrap();
        let x2 =
            refine_with_factors(&h, &f, &b, RefineOptions::default(), ResidualRung::X2).unwrap();
        assert!(x2.converged, "F64x2 at cond ~1e13 must converge");
        let ferr2 = ferr_vs(&x2.x, &x_ref);
        assert!(ferr2 <= 1e-12, "F64x2 forward error {ferr2:e}");

        let opts = RefineOptions {
            max_iters: 10,
            ..Default::default()
        };
        let x1 = refine_with_factors(&h, &f, &b, opts, ResidualRung::F64).unwrap();
        let ferr1 = ferr_vs(&x1.x, &x_ref);
        assert!(
            ferr1 > 100.0 * ferr2.max(1e-15),
            "f64 residual should stall ({ferr1:e}) vs F64x2 ({ferr2:e})"
        );
    }

    #[test]
    fn residual_extended_matches_oracle_rounding() {
        let n = 9;
        let h = hilbert(n);
        let b = hilbert_rhs_ones(&h);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-9).collect();
        let r4 = residual(&h, &b, &x, ResidualRung::X4);
        for i in 0..n {
            let mut xs = h.row(i).to_vec();
            xs.push(b[i]);
            let mut ys: Vec<f64> = x.iter().map(|&v| -v).collect();
            ys.push(1.0);
            let exact = MpFloat::exact_dot(&xs, &ys).to_f64();
            let tol = 1e-3 * exact.abs().max(1e-300);
            assert!(
                (r4[i] - exact).abs() <= tol,
                "row {i}: {:-e} vs {exact:e}",
                r4[i]
            );
        }
    }

    /// The residual before the row engine: each row widened into a
    /// `MultiFloat` copy and reduced by `kernels::dot`.
    fn residual_per_row<const N: usize>(a: &MatrixF64, b: &[f64], x: &[f64]) -> Vec<f64>
    where
        MultiFloat<f64, N>: mf_blas::Scalar,
    {
        let xe: Vec<MultiFloat<f64, N>> = x.iter().map(|&v| MultiFloat::from(v)).collect();
        (0..b.len())
            .map(|i| {
                let row: Vec<MultiFloat<f64, N>> =
                    a.row(i).iter().map(|&v| MultiFloat::from(v)).collect();
                let ax = mf_blas::kernels::dot(&row, &xe);
                MultiFloat::<f64, N>::from(b[i]).sub(ax).to_f64()
            })
            .collect()
    }

    fn residual_matches_per_row<const N: usize>(a: &MatrixF64, b: &[f64], x: &[f64], what: &str) {
        let got = residual_extended::<N>(a, b, x);
        let want = residual_per_row::<N>(a, b, x);
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{what} N={N}");
    }

    /// The row-engine residual is bit-identical to the per-row formula at
    /// every width, on a Hilbert system (refinement iterate) and a random
    /// system whose row count leaves a partial group of eight.
    #[test]
    fn residual_extended_bit_identical_to_per_row_dots() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let h = hilbert(12);
        let b = hilbert_rhs_ones(&h);
        let x = lu_factor(&h).unwrap().solve(&b);
        let mut rng = SmallRng::seed_from_u64(0x5E51);
        let n = 37;
        let a = MatrixF64::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let br: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xr: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        macro_rules! at {
            ($($n:literal)*) => {$(
                residual_matches_per_row::<$n>(&h, &b, &x, "hilbert");
                residual_matches_per_row::<$n>(&a, &br, &xr, "random");
            )*};
        }
        at!(1 2 3 4);
    }

    #[test]
    fn refine_reuses_factors_across_rhs() {
        let n = 8;
        let h = hilbert(n);
        let f = lu_factor(&h).unwrap();
        let b1 = hilbert_rhs_ones(&h);
        let x_ref = oracle_solve(&h, &b1);
        // Power-of-two scalings of b are exact in f64, so the stored
        // system's solution scales exactly too.
        for scale in [1.0f64, -2.0, 0.5] {
            let b: Vec<f64> = b1.iter().map(|v| v * scale).collect();
            let out = refine_with_factors(&h, &f, &b, RefineOptions::default(), ResidualRung::X4)
                .unwrap();
            assert!(out.converged);
            for (xi, ri) in out.x.iter().zip(&x_ref) {
                assert!((xi - scale * ri).abs() <= 1e-12, "{xi} vs {}", scale * ri);
            }
        }
    }

    /// Every operand mismatch is a shape error from both entry points, not
    /// a panic: `b` of the wrong length, factors of another size, and a
    /// non-square `A`.
    #[test]
    fn shape_mismatches_rejected_by_both_entry_points() {
        let (h4, wide) = (hilbert(4), MatrixF64::from_fn(3, 4, |i, j| (i + j) as f64));
        let (f3, f4) = (lu_factor(&hilbert(3)).unwrap(), lu_factor(&h4).unwrap());
        let opts = RefineOptions::default();
        let policy = EscalationPolicy::default();
        let cases: [(&str, &MatrixF64, &LuFactors, &[f64]); 3] = [
            ("b too long", &h4, &f4, &[1.0; 5]),
            ("factors too small", &h4, &f3, &[1.0; 4]),
            ("A not square", &wide, &f3, &[1.0; 3]),
        ];
        for (what, a, f, b) in cases {
            assert!(
                matches!(
                    refine_with_factors(a, f, b, opts, ResidualRung::X2),
                    Err(SolveError::Shape(_))
                ),
                "fixed: {what}"
            );
            assert!(
                matches!(
                    refine_adaptive_with_factors(a, f, b, opts, &policy),
                    Err(SolveError::Shape(_))
                ),
                "adaptive: {what}"
            );
        }
    }

    /// The ladder's reason to exist: on an ill-conditioned system the
    /// `f64`-residual base rung stalls at the condition-number floor (the
    /// `residual_precision_ablation` fact), the stall detector climbs, and
    /// the final solution matches the exact oracle to near machine
    /// accuracy — same quality the fixed `X4` refinement reaches.
    #[test]
    fn adaptive_escalates_past_f64_stall_and_converges() {
        let n = 10;
        let h = hilbert(n);
        let b = hilbert_rhs_ones(&h);
        let f = lu_factor(&h).unwrap();
        let policy = EscalationPolicy::default();
        let out =
            refine_adaptive_with_factors(&h, &f, &b, RefineOptions::default(), &policy).unwrap();
        assert!(out.converged, "norms: {:?}", out.residual_norms);
        assert_eq!(
            out.rung_history[0],
            ResidualRung::F64,
            "starts at base rung"
        );
        assert!(
            out.escalations >= 1,
            "cond ~1e13 must defeat the f64 residual (history: {:?})",
            out.rung_history
        );
        assert!(out.final_rung() >= ResidualRung::X2);
        let x_ref = oracle_solve(&h, &b);
        let ferr = ferr_vs(&out.x, &x_ref);
        assert!(ferr <= 1e-12 * norm_inf(&x_ref), "forward error {ferr:e}");
    }

    /// Well-conditioned systems converge on the free `f64` rung — zero
    /// escalations, zero extended-precision work.
    #[test]
    fn adaptive_stays_on_f64_for_well_conditioned_systems() {
        let n = 8;
        let a = MatrixF64::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / ((i + j + 1) as f64)
            }
        });
        let b: Vec<f64> = (0..n).map(|i| 1.0 + 0.25 * i as f64).collect();
        let f = lu_factor(&a).unwrap();
        let policy = EscalationPolicy::default();
        let out =
            refine_adaptive_with_factors(&a, &f, &b, RefineOptions::default(), &policy).unwrap();
        assert!(out.converged);
        assert_eq!(out.escalations, 0, "history: {:?}", out.rung_history);
        assert!(out.rung_history.iter().all(|&r| r == ResidualRung::F64));
    }

    /// `max_rung` caps the residual ladder at the matching rung.
    #[test]
    fn adaptive_respects_max_rung_cap() {
        let n = 10;
        let h = hilbert(n);
        let b = hilbert_rhs_ones(&h);
        let capped = EscalationPolicy {
            max_rung: mf_core::Rung::N2,
            ..EscalationPolicy::default()
        };
        let f = lu_factor(&h).unwrap();
        let out =
            refine_adaptive_with_factors(&h, &f, &b, RefineOptions::default(), &capped).unwrap();
        assert!(
            out.rung_history.iter().all(|&r| r <= ResidualRung::X2),
            "history: {:?}",
            out.rung_history
        );
        // F64x2 suffices at cond ~1e13 (the ablation fact), so the capped
        // ladder still converges.
        assert!(out.converged);
        let x_ref = oracle_solve(&h, &b);
        assert!(ferr_vs(&out.x, &x_ref) <= 1e-12);
    }

    /// On the hardest tier-1 problem (n = 12, cond ~1e16) the adaptive
    /// ladder reaches the same quality as the fixed F64x4 refinement.
    #[test]
    fn adaptive_matches_fixed_n4_quality_on_hard_hilbert() {
        let n = 12;
        let h = hilbert(n);
        let b = hilbert_rhs_ones(&h);
        let f = lu_factor(&h).unwrap();
        let opts = RefineOptions::default();
        let adaptive =
            refine_adaptive_with_factors(&h, &f, &b, opts, &EscalationPolicy::default()).unwrap();
        assert!(adaptive.converged, "norms: {:?}", adaptive.residual_norms);
        let fixed = refine_with_factors(&h, &f, &b, opts, ResidualRung::X4).unwrap();
        let x_ref = oracle_solve(&h, &b);
        let ferr_a = ferr_vs(&adaptive.x, &x_ref);
        let ferr_f = ferr_vs(&fixed.x, &x_ref);
        let xnorm = norm_inf(&x_ref);
        assert!(ferr_a <= 1e-12 * xnorm, "adaptive {ferr_a:e}");
        assert!(
            ferr_a <= 10.0 * ferr_f.max(1e-15 * xnorm),
            "adaptive {ferr_a:e} vs fixed {ferr_f:e}"
        );
    }

    /// `residual_exact` row by row against the `exact_dot` reference,
    /// bitwise.
    fn residual_exact_matches_exact_dot(a: &MatrixF64, b: &[f64], x: &[f64], what: &str) {
        let got = residual_exact(a, b, x);
        for i in 0..a.rows {
            let mut xs = a.row(i).to_vec();
            xs.push(b[i]);
            let mut ys: Vec<f64> = x.iter().map(|&v| -v).collect();
            ys.push(1.0);
            let want = MpFloat::exact_dot(&xs, &ys).to_f64();
            assert_eq!(
                got[i].to_bits(),
                want.to_bits(),
                "{what} row {i}: {:e} vs {want:e}",
                got[i]
            );
        }
    }

    /// The exact rung's accumulator gives the oracle's bits on a Hilbert
    /// iterate, a random system, a row that cancels exactly to zero and
    /// rows whose entries sit near `2^±1000` (products past the `f64`
    /// range and in the subnormal range).
    #[test]
    fn residual_exact_bit_identical_to_exact_dot() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let h = hilbert(12);
        let b = hilbert_rhs_ones(&h);
        let x = lu_factor(&h).unwrap().solve(&b);
        residual_exact_matches_exact_dot(&h, &b, &x, "hilbert 12");

        let mut rng = SmallRng::seed_from_u64(0xE8AC7);
        let n = 23;
        let a = MatrixF64::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let br: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xr: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        residual_exact_matches_exact_dot(&a, &br, &xr, "random");

        let (big, small) = (2.0f64.powi(1000), 2.0f64.powi(-1000));
        let a = MatrixF64::from_fn(4, 3, |i, j| match (i, j) {
            (0, _) => 1.0,
            (1, 0) | (1, 1) => big,
            (1, 2) => -big,
            (2, _) => small * (1.0 + j as f64 * 0.375),
            _ => (j as f64 - 1.0) * big,
        });
        let x = [0.5, 0.25, 0.125];
        // Row 0: 1·(0.5 + 0.25 + 0.125) cancels b_0 exactly.
        // Row 1: products near 2^1000 cancel against a 2^1000 b_1.
        // Row 2: products near 2^-1000 against a tiny b_2.
        // Row 3: products near 2^1000 with a b_3 far below them.
        let b = [0.875, 0.625 * big, 3.0 * small, 1e-300];
        residual_exact_matches_exact_dot(&a, &b, &x, "cancel and extremes");
        assert_eq!(residual_exact(&a, &b, &x)[0].to_bits(), 0.0f64.to_bits());
    }

    /// With `max_rung: Oracle`, a system beyond the `f64` factorization's
    /// reach (Hilbert n = 13, cond ~1e18) stalls on every fixed rung and
    /// settles on the exact residual; the last reported norm is the exact
    /// residual of the returned `x`, bit for bit.
    #[test]
    fn adaptive_reaches_the_exact_rung() {
        let h = hilbert(13);
        let b = hilbert_rhs_ones(&h);
        let policy = EscalationPolicy {
            max_rung: mf_core::Rung::Oracle,
            ..EscalationPolicy::default()
        };
        let opts = RefineOptions {
            max_iters: 12,
            ..RefineOptions::default()
        };
        let f = lu_factor(&h).unwrap();
        let out = refine_adaptive_with_factors(&h, &f, &b, opts, &policy).unwrap();
        assert_eq!(
            out.final_rung(),
            ResidualRung::Exact,
            "history: {:?}",
            out.rung_history
        );
        assert_eq!(out.escalations, 4, "history: {:?}", out.rung_history);
        assert!(out.rung_history.windows(2).all(|w| w[0] <= w[1]));
        let last = *out.residual_norms.last().unwrap();
        assert_eq!(
            last.to_bits(),
            exact_residual_norm(&h, &b, &out.x).to_bits()
        );
    }

    /// Every rung rejects operands of the wrong length.
    #[test]
    fn residual_rejects_mismatched_operands() {
        let h = hilbert(3);
        for rung in [ResidualRung::F64, ResidualRung::X2, ResidualRung::Exact] {
            for (b, x) in [
                (&[1.0; 2][..], &[1.0; 3][..]),
                (&[1.0; 4], &[1.0; 3]),
                (&[1.0; 3], &[1.0; 2]),
            ] {
                let r = std::panic::catch_unwind(|| residual(&h, b, x, rung));
                assert!(r.is_err(), "{rung}: b {} x {}", b.len(), x.len());
            }
        }
    }

    #[test]
    fn residual_rung_display_and_cap_mapping() {
        assert_eq!(ResidualRung::F64.to_string(), "f64");
        assert_eq!(ResidualRung::Exact.to_string(), "exact");
        assert_eq!(format!("[{:>5}]", ResidualRung::F64), "[  f64]");
        assert_eq!(ResidualRung::from_cap(mf_core::Rung::N3), ResidualRung::X3);
        assert_eq!(
            ResidualRung::from_cap(mf_core::Rung::Oracle),
            ResidualRung::Exact
        );
        assert!(ResidualRung::F64 < ResidualRung::X2);
        assert_eq!(ResidualRung::Exact.next(), ResidualRung::Exact);
    }

    /// Word-wise FNV-1a over the bits of `words`.
    fn digest(words: &[f64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Fixed-rung refinement keeps its bits: the `x` and `residual_norms`
    /// digests of `refine_with_factors` at `F64`/`X2`/`X4` on `hilbert(12)`
    /// (row-sum right-hand side) and a seeded random n = 64 system, as
    /// computed by the separate fixed-precision loop this one replaced.
    #[test]
    fn fixed_rung_outputs_pinned() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let h = hilbert(12);
        let bh: Vec<f64> = (0..12).map(|i| h.row(i).iter().sum()).collect();
        let mut rng = SmallRng::seed_from_u64(0x9E_F1E5);
        let n = 64;
        let a = MatrixF64::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let ba: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // (system, rung, x digest, residual_norms digest, iterations)
        let pins = [
            (
                "hilbert12",
                ResidualRung::F64,
                0x9a13_8df6_b443_646b,
                0xfd3a_d4fd_729e_c93f,
                40,
            ),
            (
                "hilbert12",
                ResidualRung::X2,
                0x9dbc_3adf_4c35_e56d,
                0x9e87_c6b3_bce8_0218,
                13,
            ),
            (
                "hilbert12",
                ResidualRung::X4,
                0x9dbc_3adf_4c35_e56d,
                0x3195_d752_d192_f6a6,
                13,
            ),
            (
                "random64",
                ResidualRung::F64,
                0x9a95_3b19_8de5_68f5,
                0xf19a_dfcc_20f6_ef8d,
                9,
            ),
            (
                "random64",
                ResidualRung::X2,
                0xf721_99c7_7c78_98d9,
                0x0e13_cb2c_feb8_f8f7,
                2,
            ),
            (
                "random64",
                ResidualRung::X4,
                0xf721_99c7_7c78_98d9,
                0x0e13_cb2c_feb8_f8f7,
                2,
            ),
        ];
        for (name, rung, want_x, want_norms, want_iters) in pins {
            let (m, b) = if name == "hilbert12" {
                (&h, &bh)
            } else {
                (&a, &ba)
            };
            let f = lu_factor(m).unwrap();
            let out = refine_with_factors(m, &f, b, RefineOptions::default(), rung).unwrap();
            let got = (digest(&out.x), digest(&out.residual_norms), out.iterations);
            assert_eq!(got, (want_x, want_norms, want_iters), "{name} {rung}");
            assert_eq!(
                out.escalations, 0,
                "{name} {rung}: a pinned rung never climbs"
            );
        }
    }

    /// `rung_history` has one entry per residual norm, the final residual
    /// included, so `final_rung` names the rung of the last norm: after an
    /// escalation on the last allowed step, and for a pinned rung that
    /// takes no step at all.
    #[test]
    fn final_rung_is_the_final_residuals_rung() {
        let h = hilbert(12);
        let b = hilbert_rhs_ones(&h);
        let f = lu_factor(&h).unwrap();
        let policy = EscalationPolicy {
            max_rung: mf_core::Rung::Oracle,
            ..EscalationPolicy::default()
        };
        let opts = RefineOptions {
            max_iters: 2,
            ..RefineOptions::default()
        };
        let out = refine_adaptive_with_factors(&h, &f, &b, opts, &policy).unwrap();
        assert_eq!(out.escalations, 1, "history: {:?}", out.rung_history);
        assert_eq!(out.rung_history.len(), out.residual_norms.len());
        assert_eq!(out.final_rung(), ResidualRung::X2);
        let last = *out.residual_norms.last().unwrap();
        let want = norm_inf(&residual(&h, &b, &out.x, ResidualRung::X2));
        assert_eq!(last.to_bits(), want.to_bits());

        let none = RefineOptions {
            max_iters: 0,
            ..RefineOptions::default()
        };
        let out = refine_with_factors(&h, &f, &b, none, ResidualRung::X4).unwrap();
        assert_eq!(out.rung_history, [ResidualRung::X4]);
        assert_eq!(out.residual_norms.len(), 1);
        assert_eq!(out.final_rung(), ResidualRung::X4);
    }
}
