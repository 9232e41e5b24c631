//! Iterative refinement of an ill-conditioned linear system — the paper's
//! motivating scenario (§1: condition numbers of 10^10–10^20 make plain
//! double-precision solutions meaningless).
//!
//! We solve `H x = b` for the n = 12 Hilbert matrix (condition number
//! ~1e16) with `multifloats::solve`'s mixed-precision refinement: one f64
//! LU factorization, then per step a residual `r = b - H·x` computed in
//! extended precision (`MultiFloat<f64, N>`, picked by a `ResidualRung`)
//! and a cheap f64 correction solve — the classic pattern of LAPACK
//! `dsgesv` / Higham & Mary 2022. The `f64` rung (plain f64 residuals) is
//! the control: it stalls at the
//! condition-number floor, because the residual itself is computed with
//! ~κ·eps relative error.
//!
//! **Measuring the error honestly:** we manufacture `b = H·1` in octuple
//! precision and round it to f64. That rounding already moves the *stored*
//! system's true solution away from the all-ones vector by ~κ·eps —
//! O(1e-1) here! — so judging refinement against `1` would show every
//! method "stalling" at 3e-1. The fair reference is the exact solution of
//! the f64 system actually being solved, which we get from a 512-bit
//! `MpFloat` elimination. Run with:
//! `cargo run --release --example iterative_refinement`

use multifloats::blas::kernels;
use multifloats::solve::{
    hilbert, lu_factor, norm_inf, refine_with_factors, RefineOptions, ResidualRung,
};
use multifloats::{F64x4, MpFloat};

const PREC: u32 = 512;

/// Exact solution of the stored f64 system via 512-bit Gaussian
/// elimination (Hilbert is symmetric positive definite, so pivots stay
/// comfortably nonzero without row exchanges).
fn oracle_solve(a: &multifloats::solve::MatrixF64, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mp = |v: f64| MpFloat::from_f64(v, PREC);
    let mut m: Vec<Vec<MpFloat>> = (0..n)
        .map(|i| (0..n).map(|j| mp(a.data[i * n + j])).collect())
        .collect();
    let mut rhs: Vec<MpFloat> = b.iter().map(|&v| mp(v)).collect();
    for k in 0..n {
        for i in k + 1..n {
            let f = m[i][k].div(&m[k][k], PREC);
            for j in k..n {
                let t = f.mul(&m[k][j], PREC);
                m[i][j] = m[i][j].sub(&t, PREC);
            }
            let t = f.mul(&rhs[k], PREC);
            rhs[i] = rhs[i].sub(&t, PREC);
        }
    }
    let mut x = vec![MpFloat::zero(PREC); n];
    for i in (0..n).rev() {
        let mut acc = rhs[i].clone();
        for j in i + 1..n {
            let t = m[i][j].mul(&x[j], PREC);
            acc = acc.sub(&t, PREC);
        }
        x[i] = acc.div(&m[i][i], PREC);
    }
    x.iter().map(|v| v.to_f64()).collect()
}

fn main() {
    let n = 12; // Hilbert condition number ~1e16 at n = 12
    let h = hilbert(n);
    // b = H·(1,...,1) computed in octuple precision, then rounded to f64.
    let b: Vec<f64> = (0..n)
        .map(|i| {
            let row: Vec<F64x4> = h.data[i * n..(i + 1) * n]
                .iter()
                .map(|&v| F64x4::from(v))
                .collect();
            let ones = vec![F64x4::from(1.0); n];
            kernels::dot(&row, &ones).to_f64()
        })
        .collect();

    let x_ref = oracle_solve(&h, &b);
    let err = |x: &[f64]| norm_inf(&x.iter().zip(&x_ref).map(|(a, b)| a - b).collect::<Vec<_>>());

    let factors = lu_factor(&h).expect("Hilbert matrix is nonsingular in f64");
    println!("Hilbert system, n = {n} (condition number ~1e16)\n");
    println!(
        "plain f64 LU solve:           error_inf = {:.3e}",
        err(&factors.solve(&b))
    );

    let opts = RefineOptions::default();
    for rung in [ResidualRung::F64, ResidualRung::X2, ResidualRung::X4] {
        let r = refine_with_factors(&h, &factors, &b, opts, rung)
            .expect("refinement on a factored system cannot fail");
        println!(
            "refined ({rung:>5} residual):   error_inf = {:.3e}   ({} iters, converged = {}, final ||r||_inf = {:.2e})",
            err(&r.x),
            r.iterations,
            r.converged,
            r.residual_norms.last().unwrap()
        );
    }

    println!(
        "\nExtended-precision residuals recover the stored system's solution to\n\
         machine accuracy; f64 residuals stall at the condition-number floor.\n\
         Only the residual (an extended-precision DOT per row, O(n^2) against\n\
         the O(n^3) factorization) pays the extra cost."
    );
}
