//! One shadow-oracle rule for every row-engine caller: each call (each
//! pooled GEMV chunk included) makes one `should_sample_index(rows·cols)`
//! draw and submits the sampled `a_ij · x_j` product as class `dot`. At
//! rate 1.0 every call samples, so serial GEMV, pooled GEMV and the
//! extended residual each land `audit.ulp.dot` samples.
#![cfg(feature = "telemetry")]

use mf_blas::{kernels, parallel, Matrix};
use mf_core::F64x2;
use mf_solve::{residual, MatrixF64, ResidualRung};
use mf_telemetry::audit;
use std::time::Duration;

/// `audit.ulp.dot` samples scored across `f` (flushed).
fn dot_samples(f: impl FnOnce()) -> u64 {
    let before = mf_telemetry::snapshot();
    f();
    assert!(audit::flush(Duration::from_secs(10)), "auditor stalled");
    let delta = mf_telemetry::snapshot().delta_since(&before);
    delta
        .histograms
        .iter()
        .find(|h| h.name == "audit.ulp.dot")
        .map_or(0, |h| h.count)
}

#[test]
fn every_row_engine_caller_lands_dot_samples() {
    let saved = audit::rate();
    audit::set_rate(1.0);
    let (rows, cols) = (19usize, 13usize);
    let val = |i: usize, j: usize| 1.0 / ((i + j + 1) as f64);
    let a = Matrix::from_fn(rows, cols, |i, j| F64x2::from(val(i, j)));
    let x: Vec<F64x2> = (0..cols).map(|j| F64x2::from(0.5 + j as f64)).collect();
    let calls = 4;

    let serial = dot_samples(|| {
        for _ in 0..calls {
            let mut y = vec![F64x2::ZERO; rows];
            kernels::gemv(F64x2::from(1.5), &a, &x, F64x2::ZERO, &mut y);
        }
    });
    let pooled = dot_samples(|| {
        for _ in 0..calls {
            let mut y = vec![F64x2::ONE; rows];
            parallel::gemv(F64x2::from(1.5), &a, &x, F64x2::from(0.25), &mut y, 2);
        }
    });
    let af = MatrixF64::from_fn(rows, cols, val);
    let b: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let xf: Vec<f64> = (0..cols).map(|j| 0.5 + j as f64).collect();
    let residual = dot_samples(|| {
        for _ in 0..calls {
            let _ = residual(&af, &b, &xf, ResidualRung::X3);
        }
    });
    audit::set_rate(saved);

    assert!(serial >= calls, "serial gemv: {serial} samples");
    assert!(
        pooled >= 2 * calls,
        "pooled gemv, 2 chunks: {pooled} samples"
    );
    assert!(residual >= calls, "residual: {residual} samples");
    let m = audit::min_margin(audit::OpClass::Dot).expect("dot audited");
    assert!(m > 0, "dot margin {m} bits");
}
