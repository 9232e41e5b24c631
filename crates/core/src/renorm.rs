//! Branch-free renormalization of floating-point expansions.
//!
//! Renormalization takes a sequence of values whose exact sum is the number
//! of interest — but whose components may overlap — and redistributes
//! mantissa bits so the result is a *nonoverlapping* expansion (paper
//! Eq. 8). It is built from `TwoSum` sweeps (the "VecSum" error-free vector
//! transformation): a bottom-up sweep that concentrates the value into the
//! head, followed by top-down sweeps that push each rounding error strictly
//! below the ulp of the term above it.
//!
//! Unlike the renormalization loops of QD and CAMPARY, which branch on
//! intermediate zeros, these sweeps are straight-line code: a zero term
//! simply flows through the `TwoSum` gates (TwoSum(x, 0) = (x, 0) exactly).
//!
//! The per-operation kernels ([`crate::nets`], `add_scalar`, `mul_scalar`,
//! `sqr`) call [`renorm_m_to_n`] on sequences they have already partially
//! ordered; [`renorm`] is the fully general entry point used by
//! `MultiFloat::from_components_renorm`.

use crate::nets::{self, NetSpec};
use mf_eft::{two_sum, FloatBase};

/// Sweeps the kernel schedule ([`renorm_m_to_n`]) runs on `m` values:
/// up, up, then `max(2, m - 2)` down. `mf-fpan` unrolls the networks'
/// renormalization with this schedule.
pub const fn kernel_sweeps(m: usize) -> u64 {
    2 + if m > 4 { m as u64 - 2 } else { 2 }
}

/// Sweeps the general-purpose schedule ([`renorm`]) runs on `n` values:
/// up, up, then `max(3, n - 1)` down.
const fn general_sweeps(n: usize) -> u64 {
    2 + if n > 4 { n as u64 - 1 } else { 3 }
}

/// Renormalizations one operation performs, and the sweeps they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RenormCost {
    pub calls: u64,
    pub sweeps: u64,
}

/// The operations whose renormalization schedule [`renorm_cost`] fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RenormOp {
    /// [`crate::addition::add`] / [`crate::addition::sub`].
    Add,
    /// [`crate::multiplication::mul`].
    Mul,
    /// One general-purpose [`renorm`] (`MultiFloat::from_components_renorm`).
    Renorm,
}

/// Renormalization cost of one `op` at width `n` — the per-op table behind
/// the `core.renorm.{calls,sweeps}` counts. Every network has a fixed
/// schedule, so these are exact: one [`renorm_m_to_n`] over the network's
/// renorm wires ([`NetSpec::renorm`]; the `N <= 2` networks end in
/// `FastTwoSum` and list none). Kernel entry points multiply these by their
/// operation counts once per call (`mf_blas`, `mf_solve`); the unit tests
/// below pin the table against the renormalizations `add`/`mul` actually
/// run.
pub(crate) const fn renorm_cost(op: RenormOp, n: usize) -> RenormCost {
    let spec: Option<&NetSpec> = match op {
        RenormOp::Add => nets::add_spec(n),
        RenormOp::Mul => nets::mul_spec(n),
        RenormOp::Renorm => {
            return RenormCost {
                calls: 1,
                sweeps: general_sweeps(n),
            }
        }
    };
    match spec {
        Some(s) if !s.renorm.is_empty() => RenormCost {
            calls: 1,
            sweeps: kernel_sweeps(s.renorm.len()),
        },
        _ => RenormCost {
            calls: 0,
            sweeps: 0,
        },
    }
}

/// Test-only tally of the renormalizations this thread actually ran, so
/// the unit tests can pin [`renorm_cost`] against the networks.
#[cfg(test)]
mod tally {
    use std::cell::Cell;

    thread_local! {
        static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn record(sweeps: u64) {
        TALLY.with(|t| {
            let (c, s) = t.get();
            t.set((c + 1, s + sweeps));
        });
    }

    /// `(calls, sweeps)` since the last call, then reset.
    pub(super) fn take() -> (u64, u64) {
        TALLY.with(|t| t.replace((0, 0)))
    }
}

/// One bottom-up `TwoSum` sweep: after the sweep `v[0]` holds the rounded
/// sum of the whole vector and the exact total is preserved.
#[inline(always)]
pub fn sweep_up<T: FloatBase, const M: usize>(v: &mut [T; M]) {
    for i in (0..M - 1).rev() {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// One top-down `TwoSum` sweep: pushes overlap downward.
#[inline(always)]
pub fn sweep_down<T: FloatBase, const M: usize>(v: &mut [T; M]) {
    for i in 0..M - 1 {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Renormalize `M` arbitrary values into an `N`-term nonoverlapping
/// expansion of their exact sum (`M >= N`; terms beyond `N` are the
/// discarded error, bounded by the callers' FPAN error analyses).
///
/// Sweep schedule: **up, up**, then **max(2, M-2) down** sweeps.
///
/// * The first up sweep concentrates the rounded total in the head, but
///   cancellation can bury residual mass below zeros (e.g.
///   `[0, -a, a, tiny]` leaves `tiny` at the bottom); the second up sweep
///   pulls any such straggler the full height in one pass (a down sweep
///   would move it only one slot).
/// * The down sweeps push each remaining overlap strictly below the ulp of
///   the term above. A single pass can leave a value exactly at the
///   overlap boundary when a lower `TwoSum` rounds upward, and for M = 5
///   the empirical verifier found double-cancellation inputs (about 1 in
///   20k adversarial trials) where even two passes leave a ~1.25x boundary
///   overlap in the middle pair — three passes survive 10^6 adversarial
///   trials at every width (see EXPERIMENTS.md E5).
///
/// This is the arithmetic kernels' renormalization. Their accumulation
/// stages emit weakly ordered sequences, but multi-level cancellation can
/// still bury residual mass below zeros; the empirical verifier (`mf-fpan`)
/// rejects every cheaper schedule tried on exactly those inputs.
#[inline(always)]
pub fn renorm_m_to_n<T: FloatBase, const M: usize, const N: usize>(mut v: [T; M]) -> [T; N] {
    #[cfg(test)]
    tally::record(kernel_sweeps(M));
    sweep_up(&mut v);
    sweep_up(&mut v);
    for _ in 0..kernel_sweeps(M) - 2 {
        sweep_down(&mut v);
    }
    let mut out = [T::ZERO; N];
    out[..N].copy_from_slice(&v[..N]);
    out
}

/// Renormalize in place, same width in as out.
///
/// This is the **general-purpose** entry point
/// (`MultiFloat::from_components_renorm`, tests, arbitrary caller data) and
/// runs one more down sweep than the kernel-internal schedule: kernel
/// inputs arrive pre-conditioned by the accumulation stages (verified at
/// 10^6 adversarial trials in that form), but fully arbitrary component
/// vectors can exhibit a ~1-in-10^4 marginal boundary overlap after only
/// two down sweeps (see `tests/fpan_system.rs::hand_built_sum_network_verifies`).
#[inline(always)]
pub fn renorm<T: FloatBase, const N: usize>(mut v: [T; N]) -> [T; N] {
    #[cfg(test)]
    tally::record(general_sweeps(N));
    sweep_up(&mut v);
    sweep_up(&mut v);
    for _ in 0..general_sweeps(N) - 2 {
        sweep_down(&mut v);
    }
    v
}

/// Slice variants of the sweeps, for callers whose working width is not a
/// compile-time constant (the generic-N ablation kernels).
pub fn sweep_up_slice<T: FloatBase>(v: &mut [T]) {
    for i in (0..v.len().saturating_sub(1)).rev() {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Top-down slice sweep (see [`sweep_down`]).
pub fn sweep_down_slice<T: FloatBase>(v: &mut [T]) {
    for i in 0..v.len().saturating_sub(1) {
        let (s, e) = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Slice renormalization with the same schedule as [`renorm_m_to_n`].
pub fn renorm_slice<T: FloatBase>(v: &mut [T]) {
    #[cfg(test)]
    tally::record(kernel_sweeps(v.len()));
    sweep_up_slice(v);
    sweep_up_slice(v);
    for _ in 0..kernel_sweeps(v.len()) - 2 {
        sweep_down_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn is_nonoverlapping(v: &[f64]) -> bool {
        for i in 1..v.len() {
            if v[i] == 0.0 {
                continue;
            }
            if v[i - 1] == 0.0 {
                return false;
            }
            if v[i].abs() > FloatBase::ulp(v[i - 1]) * 0.5 {
                return false;
            }
        }
        true
    }

    fn exact_sum_preserved(before: &[f64], after: &[f64], slack_bits: i32) -> bool {
        let a = MpFloat::exact_sum(before);
        let b = MpFloat::exact_sum(after);
        if a.is_zero() {
            return b.is_zero() || b.abs().to_f64() < 1e-290;
        }
        a.rel_error_vs(&b) < 2.0f64.powi(-slack_bits)
    }

    /// Run `f` and return the renormalizations it performed on this thread.
    fn tallied<R>(f: impl FnOnce() -> R) -> RenormCost {
        tally::take();
        let _ = f();
        let (calls, sweeps) = tally::take();
        RenormCost { calls, sweeps }
    }

    fn pinned_at<const N: usize>() {
        let x: [f64; N] = core::array::from_fn(|i| 1.5 * 2.0f64.powi(-60 * i as i32));
        let y: [f64; N] = core::array::from_fn(|i| -0.75 * 2.0f64.powi(-58 * i as i32));
        let add = tallied(|| crate::addition::add(&x, &y));
        let sub = tallied(|| crate::addition::sub(&x, &y));
        let mul = tallied(|| crate::multiplication::mul(&x, &y));
        let general = tallied(|| renorm(x));
        assert_eq!(add, renorm_cost(RenormOp::Add, N), "add at N={N}");
        assert_eq!(sub, renorm_cost(RenormOp::Add, N), "sub at N={N}");
        assert_eq!(mul, renorm_cost(RenormOp::Mul, N), "mul at N={N}");
        assert_eq!(general, renorm_cost(RenormOp::Renorm, N), "renorm at N={N}");
    }

    #[test]
    fn cost_table_matches_the_networks() {
        pinned_at::<1>();
        pinned_at::<2>();
        pinned_at::<3>();
        pinned_at::<4>();
        // The closed forms the table and the kernel accounting rely on.
        let cost = |calls, sweeps| RenormCost { calls, sweeps };
        assert_eq!(renorm_cost(RenormOp::Add, 2), cost(0, 0));
        assert_eq!(renorm_cost(RenormOp::Mul, 2), cost(0, 0));
        assert_eq!(renorm_cost(RenormOp::Add, 3), cost(1, 4));
        assert_eq!(renorm_cost(RenormOp::Mul, 3), cost(1, 4));
        assert_eq!(renorm_cost(RenormOp::Add, 4), cost(1, 5));
        assert_eq!(renorm_cost(RenormOp::Mul, 4), cost(1, 4));
    }

    #[test]
    fn renorm_random_overlapping() {
        let mut rng = SmallRng::seed_from_u64(100);
        for _ in 0..20_000 {
            let v: [f64; 4] = core::array::from_fn(|_| {
                let e = rng.gen_range(-30..30);
                let m: f64 = rng.gen_range(-1.0..1.0);
                m * 2.0f64.powi(e)
            });
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            // 4 outputs keep the sum to ~4p bits; demand at least 200.
            assert!(exact_sum_preserved(&v, &out, 200), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_cancellation_patterns() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..20_000 {
            // Massive cancellation: near-equal opposite values plus dust.
            let big: f64 = rng.gen_range(1.0..2.0) * 2.0f64.powi(rng.gen_range(-5..5));
            let dust1 = rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-80..-60));
            let dust2 = rng.gen_range(-1.0..1.0) * 2.0f64.powi(rng.gen_range(-120..-100));
            let v = [big, -big + dust1 * 0.0, dust1, dust2];
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 150), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_with_zeros_anywhere() {
        let patterns: [[f64; 4]; 6] = [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1e-40],
            [1.0, 0.0, 1e-20, 0.0],
            [0.0, 0.0, 1e10, -1e-10],
            [1e100, 0.0, 0.0, 1e50],
            [0.0, -3.5, 3.5, 1e-60],
        ];
        for v in patterns {
            let out = renorm(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 140), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn renorm_m_to_n_truncates_low_bits_only() {
        // 5 values renormalized into 4 slots: the dropped part must be below
        // the 4-term precision.
        let mut rng = SmallRng::seed_from_u64(102);
        for _ in 0..10_000 {
            let v: [f64; 5] = core::array::from_fn(|i| {
                let e = -55 * i as i32 + rng.gen_range(-3..3);
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(e)
            });
            let out: [f64; 4] = renorm_m_to_n(v);
            assert!(is_nonoverlapping(&out), "in {v:?} out {out:?}");
            assert!(exact_sum_preserved(&v, &out, 205), "in {v:?} out {out:?}");
        }
    }

    #[test]
    fn sweep_up_preserves_exact_sum() {
        let mut rng = SmallRng::seed_from_u64(103);
        for _ in 0..10_000 {
            let v: [f64; 4] = core::array::from_fn(|_| {
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(rng.gen_range(-40..40))
            });
            let mut w = v;
            sweep_up(&mut w);
            // TwoSum sweeps are exact transformations of the vector sum.
            let a = MpFloat::exact_sum(&v);
            let b = MpFloat::exact_sum(&w);
            assert!(a == b, "in {v:?} out {w:?}");
            let mut w2 = w;
            sweep_down(&mut w2);
            let c = MpFloat::exact_sum(&w2);
            assert!(a == c);
        }
    }

    #[test]
    fn renorm_idempotent_on_valid_expansions() {
        let mut rng = SmallRng::seed_from_u64(104);
        for _ in 0..10_000 {
            let v: [f64; 3] = core::array::from_fn(|_| {
                rng.gen_range(-1.0f64..1.0) * 2.0f64.powi(rng.gen_range(-20..20))
            });
            let once = renorm(v);
            let twice = renorm(once);
            assert_eq!(once, twice, "renorm must be idempotent: {v:?}");
        }
    }
}
