//! `refine-solve`: the user-facing "solve to working accuracy" path. Each
//! unit factors every seeded system once (`f64` LU) and refines several
//! right-hand sides against the factors with the adaptive residual ladder.

use super::{Call, CallTime, Check, Layer, Workload, BITS_CAP};
use crate::inputs::Rng;
use crate::measure::Tracer;
use mf_core::{EscalationPolicy, Rung};
use mf_mpsoft::MpFloat;
use mf_solve::{
    lu_factor, refine_adaptive_with_factors, AdaptiveRefinement, MatrixF64, RefineOptions,
};

/// `(n, log10 of the condition number)` per system: condition numbers from
/// 1e6 to 1e15 make the residual ladder settle on different rungs. At
/// 8 bytes per entry the largest matrix is 512 KiB, inside one core's
/// 4 MiB L2.
pub const SYSTEMS: [(usize, i32); 4] = [(192, 6), (224, 9), (256, 12), (256, 15)];
pub const RHS_PER_SYSTEM: usize = 2;

/// The residual ladder is capped below the exact `MpFloat` rung, whose
/// cost would swamp the unit; F64x4 residuals resolve every system here.
fn policy() -> EscalationPolicy {
    EscalationPolicy {
        max_rung: Rung::N4,
        ..EscalationPolicy::default()
    }
}

/// Oracle precision for the reference solves: 1e15 costs 50 bits, so 192
/// leaves ~140 bits beyond the 53 a refined solution can carry.
const SOLVE_PREC: u32 = 192;

/// A solution passes with a normwise relative forward error of at most
/// 2^-48, i.e. within 32 units of `f64` roundoff of the exact solution of
/// the stored system.
const NEED_BITS: f64 = 48.0;

const LU: u16 = 0;
const REFINE: u16 = 1;

pub struct System {
    a: Vec<f64>,
    n: usize,
    rhs: Vec<Vec<f64>>,
}

pub struct Inputs {
    systems: Vec<System>,
}

/// Apply the Householder reflector `I - 2 v v^T / (v^T v)` to the n x n
/// row-major `m`, from the left or the right.
fn reflect(m: &mut [f64], n: usize, v: &[f64], left: bool) {
    let vv: f64 = v.iter().map(|x| x * x).sum();
    if left {
        for j in 0..n {
            let s: f64 = (0..n).map(|i| v[i] * m[i * n + j]).sum::<f64>() * 2.0 / vv;
            for i in 0..n {
                m[i * n + j] -= s * v[i];
            }
        }
    } else {
        for i in 0..n {
            let row = &mut m[i * n..(i + 1) * n];
            let s: f64 = row.iter().zip(v).map(|(a, b)| a * b).sum::<f64>() * 2.0 / vv;
            for (a, b) in row.iter_mut().zip(v) {
                *a -= s * b;
            }
        }
    }
}

impl Inputs {
    /// `A = H1 H2 diag(sigma) H3 H4` with random reflectors and singular
    /// values spaced geometrically from 1 down to `10^-log_cond`; each
    /// right-hand side is `A x` for a random `x` in `[-1, 1]`.
    pub fn generate(seed: u64) -> Self {
        let systems = SYSTEMS
            .iter()
            .enumerate()
            .map(|(k, &(n, log_cond))| {
                let mut rng = Rng::new(seed, 400 + k as u64);
                let mut a = vec![0.0; n * n];
                for i in 0..n {
                    a[i * n + i] = 10f64.powf(-(log_cond as f64) * i as f64 / (n - 1) as f64);
                }
                for r in 0..4 {
                    let v: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                    reflect(&mut a, n, &v, r < 2);
                }
                let rhs = (0..RHS_PER_SYSTEM)
                    .map(|_| {
                        let x: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                        (0..n)
                            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
                            .collect()
                    })
                    .collect();
                System { a, n, rhs }
            })
            .collect();
        Inputs { systems }
    }
}

/// Exact-enough solutions of the stored system `A X = B` (all right-hand
/// sides at once) by Gaussian elimination with partial pivoting in
/// `MpFloat`.
fn oracle_solve(s: &System) -> Vec<Vec<MpFloat>> {
    let (n, p, k) = (s.n, SOLVE_PREC, s.rhs.len());
    let mut m: Vec<Vec<MpFloat>> = (0..n)
        .map(|i| {
            let row = s.a[i * n..(i + 1) * n]
                .iter()
                .chain(s.rhs.iter().map(|b| &b[i]));
            row.map(|&v| MpFloat::from_f64(v, p)).collect()
        })
        .collect();
    for c in 0..n {
        let piv = (c..n)
            .max_by(|&i, &j| m[i][c].cmp_abs(&m[j][c]))
            .expect("non-empty column");
        m.swap(c, piv);
        let (top, rest) = m.split_at_mut(c + 1);
        let prow = &top[c];
        let inv = MpFloat::from_f64(1.0, p).div(&prow[c], p);
        for row in rest.iter_mut() {
            let f = row[c].mul(&inv, p);
            for j in c + 1..n + k {
                row[j] = row[j].sub(&f.mul(&prow[j], p), p);
            }
        }
    }
    (0..k)
        .map(|r| {
            let mut x = vec![MpFloat::zero(p); n];
            for i in (0..n).rev() {
                let mut acc = m[i][n + r].clone();
                for j in i + 1..n {
                    acc = acc.sub(&m[i][j].mul(&x[j], p), p);
                }
                x[i] = acc.div(&m[i][i], p);
            }
            x
        })
        .collect()
}

/// Correct bits of `x` in the normwise sense: `-log2(max|x - x*| / max|x*|)`.
fn normwise_bits(x: &[f64], exact: &[MpFloat]) -> f64 {
    let p = SOLVE_PREC + 64;
    let err = x
        .iter()
        .zip(exact)
        .map(|(&v, e)| MpFloat::from_f64(v, p).sub(e, p).to_f64().abs())
        .fold(0.0, f64::max);
    let scale = exact.iter().map(|e| e.to_f64().abs()).fold(0.0, f64::max);
    let rel = err / scale;
    if rel.is_nan() {
        0.0
    } else {
        // -log2(0) = inf clamps to the cap.
        (-rel.log2()).clamp(0.0, BITS_CAP)
    }
}

pub struct RefineSolve {
    inp: Inputs,
    calls: [Call; 2],
    mats: Vec<MatrixF64>,
    policy: EscalationPolicy,
    results: Vec<AdaptiveRefinement>,
}

impl RefineSolve {
    pub fn setup(inp: Inputs) -> Self {
        let mats = inp
            .systems
            .iter()
            .map(|s| MatrixF64 {
                rows: s.n,
                cols: s.n,
                data: s.a.clone(),
            })
            .collect();
        RefineSolve {
            calls: [
                Call {
                    span: "solve.lu_factor",
                    layer: Layer::SolveLu,
                    ops: 1.0,
                },
                Call {
                    span: "solve.refine",
                    layer: Layer::SolveRefine,
                    ops: 1.0,
                },
            ],
            mats,
            policy: policy(),
            results: Vec::with_capacity(SYSTEMS.len() * RHS_PER_SYSTEM),
            inp,
        }
    }

    fn per_solve(&self, f: impl Fn(&AdaptiveRefinement) -> f64) -> f64 {
        self.results.iter().map(f).sum::<f64>() / self.results.len().max(1) as f64
    }
}

impl Workload for RefineSolve {
    fn calls(&self) -> &[Call] {
        &self.calls
    }

    fn unit(&mut self, tr: &mut Tracer) {
        self.results.clear();
        for (s, a) in self.inp.systems.iter().zip(&self.mats) {
            let f = tr
                .span(LU, || lu_factor(a))
                .expect("seeded systems are nonsingular in f64");
            for b in &s.rhs {
                let r = tr.span(REFINE, || {
                    refine_adaptive_with_factors(a, &f, b, RefineOptions::default(), &self.policy)
                });
                self.results.push(r.expect("shapes match by construction"));
            }
        }
    }

    fn outputs(&self, out: &mut Vec<u64>) {
        for r in &self.results {
            out.extend(r.x.iter().map(|v| v.to_bits()));
            out.extend([
                r.iterations as u64,
                u64::from(r.escalations),
                r.final_rung() as u64,
                u64::from(r.converged),
            ]);
        }
    }

    fn check(&self) -> Check {
        let mut c = Check::default();
        let mut results = self.results.iter();
        for s in &self.inp.systems {
            for exact in oracle_solve(s) {
                let r = results.next().expect("one result per right-hand side");
                c.record(normwise_bits(&r.x, &exact), NEED_BITS);
                if !r.converged {
                    c.failed += 1;
                }
            }
        }
        c
    }

    fn layer_metrics(&self, times: &[CallTime]) -> Vec<(String, f64)> {
        let refine = &times[REFINE as usize];
        let iters = self.per_solve(|r| r.iterations as f64);
        vec![
            (
                "solve.lu_factor.ms".into(),
                times[LU as usize].ms_per_call(),
            ),
            ("solve.refine.ms_per_solve".into(), refine.ms_per_call()),
            (
                "solve.refine.ms_per_iter".into(),
                refine.ms_per_call() / iters,
            ),
            ("solve.refine.iters_per_solve".into(), iters),
            (
                "solve.refine.escalations_per_solve".into(),
                self.per_solve(|r| f64::from(r.escalations)),
            ),
        ]
    }
}
