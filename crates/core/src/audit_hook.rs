//! The shadow-oracle recompute behind [`mf_telemetry::audit`]: turns a
//! sampled operation back into exact [`MpFloat`] arithmetic and scores the
//! shipped result's relative error.
//!
//! `mf-telemetry` deliberately has no arithmetic dependencies, so the audit
//! sampler transports plain-data [`AuditSample`]s and the oracle is an
//! installable function pointer. This module owns that function: the guard
//! layer (and the `mf-blas` kernels) install it lazily the first time a
//! sample is actually drawn, so a process that never samples never touches
//! the oracle machinery.
//!
//! **Error metric.** The finding's `rel_err` is backward-style, with a
//! cancellation-safe denominator per class:
//!
//! * `Add`/`Sub` — `|r − (a+b)| / (|a| + |b|)`: a catastrophic-cancellation
//!   sum has a tiny exact value but the *inputs* carry the magnitude the
//!   kernel actually worked at, so dividing by `|exact|` would manufacture
//!   false alarms on mathematically-fine results;
//! * `Mul`/`Div`/`Recip`/`Sqrt` — `|r − exact| / |exact|`: these classes
//!   cannot cancel, and the paper's bounds are forward-relative;
//! * `Dot`/`Axpy` (fused `a·b + c`) — `|r − (a·b+c)| / (|a·b| + |c|)`:
//!   same cancellation argument as addition, on the product term.
//!
//! A zero denominator with a zero numerator scores an exact 0; a nonzero
//! numerator over a zero denominator (a nonzero result where everything in
//! sight is zero) scores `f64::INFINITY`. Non-finite result components
//! score `INFINITY` with `nonfinite` set; non-finite *inputs* decline the
//! sample (NaN propagation is documented §4.4 behavior, not an error).

use crate::{FloatBase, MultiFloat};
use mf_mpsoft::MpFloat;
use mf_telemetry::audit::{self, AuditFinding, AuditSample, OpClass};

/// Extra working precision on top of the sample's own `n · (prec+1)` bits:
/// enough that oracle rounding is invisible next to any bound the auditor
/// checks (all bounds sit ≥ 8 bits under the format precision).
const ORACLE_GUARD_BITS: u32 = 64;

/// Install the oracle (idempotent, first-wins). Called lazily from the
/// sampling sites; callable directly by harnesses that submit hand-built
/// samples before any instrumented op runs.
pub fn install() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| audit::install_oracle(oracle));
}

/// Exact value of a sample operand: the component sum, which `exact_sum`
/// reproduces without rounding.
fn operand(parts: &[f64; 4]) -> MpFloat {
    MpFloat::exact_sum(parts)
}

fn finite(parts: &[f64; 4]) -> bool {
    parts.iter().all(|x| x.is_finite())
}

/// The oracle recompute. See the module docs for the error metric.
fn oracle(s: &AuditSample) -> Option<AuditFinding> {
    if s.n == 0 || s.n > 4 || s.prec == 0 {
        return None;
    }
    if !finite(&s.a) || (!s.class.is_unary() && !finite(&s.b)) || !finite(&s.c) {
        return None;
    }
    if !finite(&s.r) {
        return Some(AuditFinding {
            rel_err: f64::INFINITY,
            nonfinite: true,
        });
    }
    let wp = (s.prec as u32 + 1) * s.n as u32 + ORACLE_GUARD_BITS;
    let a = operand(&s.a);
    let b = operand(&s.b);
    let c = operand(&s.c);
    let r = operand(&s.r);
    let (exact, denom) = match s.class {
        OpClass::Add => (a.add(&b, wp), a.abs().add(&b.abs(), wp)),
        OpClass::Sub => (a.sub(&b, wp), a.abs().add(&b.abs(), wp)),
        OpClass::Mul => {
            let e = a.mul(&b, wp);
            let d = e.abs();
            (e, d)
        }
        OpClass::Div => {
            if b.is_zero() {
                return None;
            }
            let e = a.div(&b, wp);
            let d = e.abs();
            (e, d)
        }
        OpClass::Recip => {
            if a.is_zero() {
                return None;
            }
            let e = MpFloat::from_f64(1.0, wp).div(&a, wp);
            let d = e.abs();
            (e, d)
        }
        OpClass::Sqrt => {
            if a.is_negative() {
                return None;
            }
            let e = a.sqrt(wp);
            let d = e.abs();
            (e, d)
        }
        OpClass::Dot | OpClass::Axpy => {
            let prod = a.mul(&b, wp);
            let exact = prod.add(&c, wp);
            let denom = prod.abs().add(&c.abs(), wp);
            (exact, denom)
        }
    };
    let diff = r.sub(&exact, wp).abs();
    let rel_err = if diff.is_zero() {
        0.0
    } else if denom.is_zero() {
        f64::INFINITY
    } else {
        diff.div(&denom, 64).to_f64()
    };
    crate::renorm_probes::record_sample(s);
    Some(AuditFinding {
        rel_err,
        nonfinite: false,
    })
}

/// Lossless `f64` widening of an expansion's components (`None` when the
/// expansion is too long for a sample's fixed slots).
pub fn parts<T: FloatBase, const N: usize>(x: &MultiFloat<T, N>) -> Option<[f64; 4]> {
    if N > 4 {
        return None;
    }
    let mut out = [0.0f64; 4];
    for (slot, c) in out.iter_mut().zip(&x.c) {
        *slot = c.to_f64();
    }
    Some(out)
}

/// Submit one sampled binary op (`r ?= a ∘ b`). The caller has already won
/// the sampling draw; this builds the plain-data sample and hands it to the
/// background auditor.
#[cold]
pub fn submit_binary<T: FloatBase, const N: usize>(
    class: OpClass,
    a: &MultiFloat<T, N>,
    b: &MultiFloat<T, N>,
    r: &MultiFloat<T, N>,
) {
    let (Some(a), Some(b), Some(r)) = (parts(a), parts(b), parts(r)) else {
        return;
    };
    install();
    audit::submit(AuditSample {
        class,
        n: N as u8,
        prec: T::PRECISION as u16,
        a,
        b,
        c: [0.0; 4],
        r,
    });
}

/// Submit one sampled unary op (`r ?= op(a)`).
#[cold]
pub fn submit_unary<T: FloatBase, const N: usize>(
    class: OpClass,
    a: &MultiFloat<T, N>,
    r: &MultiFloat<T, N>,
) {
    let (Some(a), Some(r)) = (parts(a), parts(r)) else {
        return;
    };
    install();
    audit::submit(AuditSample {
        class,
        n: N as u8,
        prec: T::PRECISION as u16,
        a,
        b: [0.0; 4],
        c: [0.0; 4],
        r,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F64x2;

    fn sample(class: OpClass, a: [f64; 4], b: [f64; 4], c: [f64; 4], r: [f64; 4]) -> AuditSample {
        AuditSample {
            class,
            n: 2,
            prec: 53,
            a,
            b,
            c,
            r,
        }
    }

    fn pow2(e: i32) -> f64 {
        <f64 as FloatBase>::exp2i(e)
    }

    #[test]
    fn exact_results_score_zero() {
        let z = [0.0; 4];
        for (class, a, b, r) in [
            (
                OpClass::Add,
                [1.0, pow2(-60), 0.0, 0.0],
                [2.0, 0.0, 0.0, 0.0],
                [3.0, pow2(-60), 0.0, 0.0],
            ),
            (
                OpClass::Mul,
                [3.0, 0.0, 0.0, 0.0],
                [5.0, 0.0, 0.0, 0.0],
                [15.0, 0.0, 0.0, 0.0],
            ),
            (
                OpClass::Div,
                [1.0, 0.0, 0.0, 0.0],
                [4.0, 0.0, 0.0, 0.0],
                [0.25, 0.0, 0.0, 0.0],
            ),
        ] {
            let f = oracle(&sample(class, a, b, z, r)).expect("judged");
            assert_eq!(f.rel_err, 0.0, "{class:?}");
            assert!(!f.nonfinite);
        }
        // Unary: sqrt(4) == 2 and recip(8) == 0.125 exactly.
        let f = oracle(&sample(
            OpClass::Sqrt,
            [4.0, 0.0, 0.0, 0.0],
            z,
            z,
            [2.0, 0.0, 0.0, 0.0],
        ))
        .unwrap();
        assert_eq!(f.rel_err, 0.0);
        let f = oracle(&sample(
            OpClass::Recip,
            [8.0, 0.0, 0.0, 0.0],
            z,
            z,
            [0.125, 0.0, 0.0, 0.0],
        ))
        .unwrap();
        assert_eq!(f.rel_err, 0.0);
    }

    #[test]
    fn known_error_is_scored_in_bits() {
        // r = (a+b)(1 + 2^-100): rel_err must come back within a factor of
        // 2 of 2^-100 (the add denominator |a|+|b| equals |exact| here).
        let z = [0.0; 4];
        let a = [1.0, 0.0, 0.0, 0.0];
        let b = [1.0, 0.0, 0.0, 0.0];
        let r = [2.0, pow2(-99), 0.0, 0.0];
        let f = oracle(&sample(OpClass::Add, a, b, z, r)).unwrap();
        let bits = -f.rel_err.log2();
        assert!((99.0..101.0).contains(&bits), "got {bits} bits");
    }

    #[test]
    fn cancellation_is_judged_against_input_magnitude() {
        // a - b with a ≈ b: exact result 2^-80, result off by 2^-110.
        // Against |exact| that is a catastrophic 2^-30 relative error;
        // against |a|+|b| (the audit metric) it is ~2^-111 — clean.
        let z = [0.0; 4];
        let a = [1.0, pow2(-80), 0.0, 0.0];
        let b = [1.0, 0.0, 0.0, 0.0];
        let r = [pow2(-80), pow2(-110), 0.0, 0.0];
        let f = oracle(&sample(OpClass::Sub, a, b, z, r)).unwrap();
        assert!(
            -f.rel_err.log2() > 105.0,
            "cancellation misjudged: {} bits",
            -f.rel_err.log2()
        );
    }

    #[test]
    fn fused_classes_check_a_mul_b_plus_c() {
        let f = oracle(&sample(
            OpClass::Axpy,
            [2.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [7.0, 0.0, 0.0, 0.0],
        ))
        .unwrap();
        assert_eq!(f.rel_err, 0.0);
        // Against zero c the class degenerates to mul.
        let f = oracle(&sample(
            OpClass::Dot,
            [2.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
            [0.0; 4],
            [6.0, pow2(-100), 0.0, 0.0],
        ))
        .unwrap();
        assert!(f.rel_err > 0.0 && -f.rel_err.log2() > 97.0);
    }

    #[test]
    fn nonfinite_results_and_degenerate_samples() {
        let z = [0.0; 4];
        let one = [1.0, 0.0, 0.0, 0.0];
        // NaN result from finite inputs: the collapse signature.
        let f = oracle(&sample(
            OpClass::Div,
            one,
            one,
            z,
            [f64::NAN, 0.0, 0.0, 0.0],
        ))
        .unwrap();
        assert!(f.nonfinite && f.rel_err.is_infinite());
        // NaN input: declined.
        assert!(oracle(&sample(
            OpClass::Add,
            [f64::NAN, 0.0, 0.0, 0.0],
            one,
            z,
            one
        ))
        .is_none());
        // Division by zero, recip(0), sqrt(<0): documented NaN semantics,
        // declined rather than scored.
        assert!(oracle(&sample(OpClass::Div, one, z, z, one)).is_none());
        assert!(oracle(&sample(OpClass::Recip, z, z, z, one)).is_none());
        assert!(oracle(&sample(OpClass::Sqrt, [-1.0, 0.0, 0.0, 0.0], z, z, one)).is_none());
        // Zero-length / oversized samples are declined.
        let mut bad = sample(OpClass::Add, one, one, z, one);
        bad.n = 0;
        assert!(oracle(&bad).is_none());
        bad.n = 5;
        assert!(oracle(&bad).is_none());
        // 0 + 0 must be 0: a nonzero result over an all-zero denominator is
        // an unconditional violation.
        let f = oracle(&sample(OpClass::Add, z, z, z, [1.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(f.rel_err.is_infinite() && !f.nonfinite);
        let f = oracle(&sample(OpClass::Add, z, z, z, z)).unwrap();
        assert_eq!(f.rel_err, 0.0);
    }

    #[test]
    fn parts_widen_losslessly() {
        let x = F64x2::from(1.0) / F64x2::from(3.0);
        let p = parts(&x).unwrap();
        assert_eq!(&p[..2], &x.components()[..]);
        assert_eq!(p[2], 0.0);
        let y: MultiFloat<f64, 5> = MultiFloat::from(1.0);
        assert!(parts(&y).is_none());
        // f32 components embed exactly.
        let w: MultiFloat<f32, 2> = MultiFloat::from_scalar(0.1f32);
        let p = parts(&w).unwrap();
        assert_eq!(p[0], 0.1f32 as f64);
    }
}
