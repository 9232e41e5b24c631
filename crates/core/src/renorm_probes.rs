//! The `core.renorm.*` probes, kept off the per-operation path.
//!
//! The renormalization sweeps in [`crate::renorm`] are the same
//! straight-line code in every build: they carry no probe state. What the
//! probes report is recovered where it costs nothing per operation:
//!
//! * `core.renorm.calls` / `core.renorm.sweeps` — counters, added **once
//!   per kernel or solver call** (`mf-blas` kernel entry points,
//!   `mf-solve` residuals) as `operation count × per-operation cost`.
//!   Every network has a fixed schedule (`renorm::renorm_cost`), so the
//!   totals are exact for that work. Free-standing operator calls (`a + b`
//!   on a `MultiFloat` outside a kernel or solver) are not counted.
//! * `core.renorm.cancellation_bits` / `core.renorm.terms_zeroed` —
//!   audit-sampled: recorded on the auditor thread for each judged
//!   [`AuditSample`], so they follow the `MF_AUDIT_RATE` sampling rate and
//!   never run on the calling thread.

use crate::renorm::{renorm_cost, RenormOp};
use mf_eft::FloatBase;
use mf_telemetry::audit::{AuditSample, OpClass};
use mf_telemetry::{Counter, Histogram};

static RENORM_CALLS: Counter = Counter::new("core.renorm.calls");
static RENORM_SWEEPS: Counter = Counter::new("core.renorm.sweeps");
static RENORM_TERMS_ZEROED: Counter = Counter::new("core.renorm.terms_zeroed");
/// How many leading bits cancelled in a judged sample: exponent of the
/// largest input magnitude minus the exponent of the result's head,
/// clamped at zero. Bucket k covers severities in `[2^(k-1), 2^k)`.
static RENORM_CANCELLATION_BITS: Histogram = Histogram::new("core.renorm.cancellation_bits");

/// Account one kernel call's `adds` additions/subtractions and `muls`
/// multiplications at width `n` (two counter updates; nothing at all when
/// telemetry is compiled out or the width never renormalizes).
#[inline]
pub fn record_ops(n: usize, adds: u64, muls: u64) {
    if !mf_telemetry::ENABLED {
        return;
    }
    let (a, m) = (renorm_cost(RenormOp::Add, n), renorm_cost(RenormOp::Mul, n));
    record(
        adds * a.calls + muls * m.calls,
        adds * a.sweeps + muls * m.sweeps,
    );
}

/// Account `count` general-purpose renormalizations at width `n`
/// (`MultiFloat::from_components_renorm` inside a kernel wrapper).
#[inline]
pub fn record_renorms(n: usize, count: u64) {
    if !mf_telemetry::ENABLED {
        return;
    }
    let c = renorm_cost(RenormOp::Renorm, n);
    record(count * c.calls, count * c.sweeps);
}

#[inline]
fn record(calls: u64, sweeps: u64) {
    if calls != 0 {
        RENORM_CALLS.add(calls);
        RENORM_SWEEPS.add(sweeps);
    }
}

fn max_exponent(parts: &[f64]) -> i32 {
    parts
        .iter()
        .map(|&x| x.exponent())
        .max()
        .unwrap_or(i32::MIN)
}

/// Exponent of the magnitude a sample's operation worked at, for the
/// classes that can cancel: the larger addend for `Add`/`Sub`, the larger
/// of `a·b` and `c` for the fused classes. `None` for `Mul`/`Div`/`Recip`/
/// `Sqrt`, whose result magnitude follows from the inputs.
fn work_exponent(s: &AuditSample) -> Option<i32> {
    let n = s.n as usize;
    match s.class {
        OpClass::Add | OpClass::Sub => Some(max_exponent(&s.a[..n]).max(max_exponent(&s.b[..n]))),
        OpClass::Dot | OpClass::Axpy => {
            let prod = s.a[0].exponent() + s.b[0].exponent();
            Some(prod.max(max_exponent(&s.c[..n])))
        }
        OpClass::Mul | OpClass::Div | OpClass::Recip | OpClass::Sqrt => None,
    }
}

/// Record the value probes for one judged audit sample (auditor thread;
/// the caller has checked that every component is finite). Classes that
/// cannot cancel record 0 bits.
pub(crate) fn record_sample(s: &AuditSample) {
    if !mf_telemetry::ENABLED || s.n == 0 || s.n > 4 {
        return;
    }
    let r = &s.r[..s.n as usize];
    RENORM_TERMS_ZEROED.add(r.iter().filter(|&&x| x == 0.0).count() as u64);
    let bits = work_exponent(s).map_or(0, |e| e as i64 - r[0].exponent() as i64);
    RENORM_CANCELLATION_BITS.record_clamped(bits);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pow2(e: i32) -> f64 {
        <f64 as FloatBase>::exp2i(e)
    }

    /// A hand-built cancelling addition, judged by the real oracle on the
    /// auditor thread, lands in the cancellation bucket of its severity.
    #[cfg(feature = "telemetry")]
    #[test]
    fn cancelling_add_sample_moves_its_bucket() {
        use mf_telemetry::audit;
        use std::time::Duration;

        crate::audit_hook::install();
        // (1 + 2^-80) + (-1) = 2^-80: 80 leading bits cancel, and the
        // exact two-term result leaves its second term zero.
        let sample = AuditSample {
            class: OpClass::Add,
            n: 2,
            prec: 53,
            a: [1.0, pow2(-80), 0.0, 0.0],
            b: [-1.0, 0.0, 0.0, 0.0],
            c: [0.0; 4],
            r: [pow2(-80), 0.0, 0.0, 0.0],
        };
        let bucket = Histogram::bucket_of(80);
        assert_eq!(bucket, 7, "80 bits sits in [64, 128)");
        let before = RENORM_CANCELLATION_BITS.snapshot_data();
        let zeroed_before = RENORM_TERMS_ZEROED.get();
        audit::submit(sample);
        assert!(audit::flush(Duration::from_secs(10)), "auditor drained");
        let after = RENORM_CANCELLATION_BITS.snapshot_data();
        assert!(after.buckets[bucket] > before.buckets[bucket]);
        assert!(RENORM_TERMS_ZEROED.get() > zeroed_before);
    }

    #[test]
    fn work_exponent_by_class() {
        let mut s = AuditSample {
            class: OpClass::Sub,
            n: 3,
            prec: 53,
            a: [4.0, pow2(-60), 0.0, 0.0],
            b: [8.0, 0.0, 0.0, 0.0],
            c: [pow2(10), 0.0, 0.0, 0.0],
            r: [-4.0, 0.0, 0.0, 0.0],
        };
        assert_eq!(work_exponent(&s), Some(3));
        s.class = OpClass::Axpy;
        assert_eq!(work_exponent(&s), Some(10), "c outweighs a·b = 2^5");
        s.class = OpClass::Mul;
        assert_eq!(work_exponent(&s), None);
    }
}
