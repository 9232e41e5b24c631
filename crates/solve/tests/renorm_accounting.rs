//! Exact `core.renorm.{calls,sweeps}` accounting of the extended residual:
//! one call reports its `rows·cols` mul-adds (row engine) and `rows`
//! subtractions once, so the counter deltas equal a closed form in the
//! system's shape.
//!
//! The counters are process-global, so this file holds a single test (its
//! own test binary, no concurrent kernel calls).
#![cfg(feature = "telemetry")]

use mf_solve::{residual, MatrixF64, ResidualRung};

/// `(calls, sweeps)` of one add and one mul at width `N` (see
/// `mf_core::renorm::renorm_cost`).
fn per_op(n: usize) -> ((u64, u64), (u64, u64)) {
    match n {
        2 => ((0, 0), (0, 0)),
        3 => ((1, 4), (1, 4)),
        4 => ((1, 5), (1, 4)),
        _ => unreachable!(),
    }
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

#[test]
fn residual_counts_match_closed_form() {
    // 11 rows: one full group of eight and a partial one.
    let (rows, cols) = (11usize, 6usize);
    let a = MatrixF64::from_fn(rows, cols, |i, j| 1.0 / ((i + 2 * j + 1) as f64));
    let b: Vec<f64> = (0..rows).map(|i| 1.0 - i as f64 / 16.0).collect();
    let x: Vec<f64> = (0..cols).map(|j| 0.5 + j as f64 / 8.0).collect();
    let (mac, sub) = ((rows * cols) as u64, rows as u64);
    let want = |n: usize| {
        let ((ac, asw), (mc, msw)) = per_op(n);
        ((mac + sub) * ac + mac * mc, (mac + sub) * asw + mac * msw)
    };
    for (n, rung) in [
        (2, ResidualRung::X2),
        (3, ResidualRung::X3),
        (4, ResidualRung::X4),
    ] {
        assert_eq!(counted(|| residual(&a, &b, &x, rung)), want(n), "{rung}");
    }
    assert_eq!(want(2), (0, 0), "N = 2 never renormalizes");
}
