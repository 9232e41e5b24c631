//! Adaptive BLAS entry points: per-chunk precision escalation.
//!
//! The scalar guard layer (`checked_*` under `GuardPolicy::OracleFallback`)
//! recovers one operation at a time; at BLAS granularity that would put a
//! recovery decision on every element. These entry points instead treat a **fixed-size chunk**
//! ([`ADAPTIVE_CHUNK`] elements, or one matrix row for GEMV) as the
//! escalation unit: each chunk runs the plain branch-free `N=2` kernel
//! first, is judged by the guard layer's slice detectors
//! ([`mf_core::guard::escalated_nonfinite`] / `noncanonical` plus a chunk
//! head-consistency bound), and is recomputed exactly only when the
//! judgment fails. Clean workloads therefore run at full kernel speed with
//! one naive `f64` pass of overhead per chunk, and a single hostile chunk
//! pays for precision without slowing its neighbours.
//!
//! The ladder has two rungs, `N=2 → exact`, like the scalar guard's. The
//! chunks that trip are range collapses (transient overflow, flushed
//! tails), and a `MultiFloat` has only its base type's exponent range
//! (paper §4.4): rerunning such a chunk at `N=3` or `N=4` trips again, so
//! wider middle rungs would only add their cost to the exact one.
//!
//! The exact rung sums the chunk's `f64` cross products in an
//! [`mf_mpsoft::LongAccumulator`], a fixed-point register spanning every
//! `f64·f64` product exponent: each product is one 128-bit multiply and a
//! three-limb add, with no rounding and no allocation, and the sum is
//! rounded once to `F64x2` by `from_mp`. It gives the bits
//! `MpFloat::exact_dot` gave (the test oracle) at a fraction of its cost
//! (EXPERIMENTS.md ablation 19).
//!
//! Chunk boundaries are fixed by element index — **not** by thread count —
//! so results are bitwise identical across `threads` settings; the
//! parallel path runs on [`crate::parallel`]'s chunk executor and its
//! panic degrade-to-serial contract (a panicking worker chunk is restored
//! from its snapshot and rerun, adaptively, on the calling thread).
//!
//! [`EscalationPolicy`] has two knobs, and both apply here: a chunk's
//! rung is decided fresh on every call against the `tol_bits` head bound,
//! and a `max_rung` below [`Rung::Oracle`] switches escalation off: every
//! chunk keeps its base result, tripped or not.

use mf_core::adaptive::{EscalationPolicy, Rung};
use mf_core::guard::{escalated_nonfinite, noncanonical};
use mf_core::F64x2;
use mf_mpsoft::LongAccumulator;
use mf_telemetry::audit::{self, OpClass};
use mf_telemetry::{trace, Counter};

use crate::parallel::{chunk_ranges, run_chunks};
use crate::{simd, Matrix, Scalar};

static ADAPT_CHUNKS: Counter = Counter::new("blas.adaptive.chunks");
static ADAPT_ESCALATIONS: Counter = Counter::new("blas.adaptive.escalations");
static ADAPT_ORACLE_FALLS: Counter = Counter::new("blas.adaptive.oracle_falls");

/// Elements per escalation unit. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore results — are reproducible.
/// Small enough that one hostile element escalates at most 128 elements of
/// work; large enough that the naive `f64` judgment pass stays a few
/// percent of the `N=2` kernel. The chunk head-consistency bound tolerates
/// `len · 2^-P` of naive-summation noise, so 128 keeps ~2^-46 of slack
/// under the default `tol_bits = 40`.
pub const ADAPTIVE_CHUNK: usize = 128;

/// Per-call escalation tally, merged across chunks in chunk order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// Escalation units examined (element chunks; rows count their own
    /// element chunks for GEMV).
    pub chunks: u64,
    /// Units that left the base rung.
    pub escalated: u64,
    /// Units settled at `N=3`: always 0, as is `n4`. The ladder escalates
    /// straight to the exact rung; both fields stay so that every reader
    /// of a report (the `simd --dump` report lines, the benchmark's output
    /// digest) keeps its shape.
    pub n3: u64,
    /// Units settled at `N=4`: always 0 (see `n3`).
    pub n4: u64,
    /// Units recomputed by the exact evaluation (equal to `escalated`).
    pub oracle: u64,
    /// Units rerun serially after a worker panic (the parallel degrade
    /// contract; the rerun is still adaptive, so results are unchanged).
    pub degraded: u64,
}

impl AdaptiveReport {
    /// Escalated units per unit — the per-workload headline rate.
    pub fn escalation_rate(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.escalated as f64 / self.chunks as f64
        }
    }

    fn tally(&mut self, rung: Rung) {
        self.chunks += 1;
        if rung == Rung::Oracle {
            self.escalated += 1;
            self.oracle += 1;
        }
    }

    fn merge(&mut self, other: &AdaptiveReport) {
        self.chunks += other.chunks;
        self.escalated += other.escalated;
        self.oracle += other.oracle;
        self.degraded += other.degraded;
    }

    fn flush_telemetry(&self) {
        if !mf_telemetry::ENABLED {
            return;
        }
        ADAPT_CHUNKS.add(self.chunks);
        ADAPT_ESCALATIONS.add(self.escalated);
        ADAPT_ORACLE_FALLS.add(self.oracle);
    }
}

/// Fixed-size chunk ranges over `0..len` (one empty range for `len == 0`,
/// mirroring `chunk_ranges`' workers-iterate-it contract).
fn fixed_chunks(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return vec![(0, 0)];
    }
    (0..len)
        .step_by(ADAPTIVE_CHUNK)
        .map(|lo| (lo, (lo + ADAPTIVE_CHUNK).min(len)))
        .collect()
}

/// Post-condition judgment shared by every unit: escalate when a finite
/// input chunk produced a non-finite or noncanonical value, or when the
/// accumulated heads drifted from the naive `f64` evaluation by more than
/// `mag · 2^-tol_bits`. Mirrors the guard layer's `post_flags` +
/// `head_inconsistent` semantics on aggregates; non-finite inputs pass
/// through untouched (§4.4 propagation is not a collapse).
fn aggregate_trip(
    inputs_finite: bool,
    out_bad: bool,
    naive: f64,
    mag: f64,
    head_sum: f64,
    tol_bits: u32,
) -> bool {
    if out_bad {
        return true;
    }
    if !inputs_finite {
        return false;
    }
    if !naive.is_finite() || !mag.is_finite() || !head_sum.is_finite() {
        return false;
    }
    (naive - head_sum).abs() > mag * 2.0f64.powi(-(tol_bits as i32))
}

/// Per-value post flags: non-finite escalation or canonical-form violation.
fn value_bad(inputs_finite: bool, v: &F64x2) -> bool {
    let c = v.components();
    let finite = v.is_finite();
    escalated_nonfinite(inputs_finite, &c) | (noncanonical(&c) & finite)
}

// ---------------------------------------------------------------------------
// DOT
// ---------------------------------------------------------------------------

/// The exact rung of one dot chunk: the `4·len` cross products summed in
/// a [`LongAccumulator`] and rounded once by `from_mp`, with no
/// per-product allocation and no buffer of products.
fn dot_exact(x: &[F64x2], y: &[F64x2]) -> F64x2 {
    let mut acc = LongAccumulator::new();
    for (xi, yi) in x.iter().zip(y) {
        let [x0, x1] = xi.components();
        let [y0, y1] = yi.components();
        acc.add_product(x0, y0);
        acc.add_product(x0, y1);
        acc.add_product(x1, y0);
        acc.add_product(x1, y1);
    }
    F64x2::from_mp(&acc.to_mp())
}

/// The fused base-rung pass: the same `s_mul_acc` accumulation as
/// [`crate::kernels::dot`] (bitwise identical partial) with the detector inputs —
/// operand finiteness, naive `f64` head sum, magnitude — gathered in the
/// same traversal. The independent `f64` chains ride in the execution
/// slots the serial `F64x2` accumulation leaves idle, so the clean-input
/// detector cost is close to free.
fn dot_chunk_base(x: &[F64x2], y: &[F64x2]) -> (F64x2, bool, f64, f64) {
    // The FMA frame, as for the plain kernels: the raw path the overhead
    // gate compares against gets `vfmadd` lowering, so the base pass must
    // too.
    simd::fma_frame(
        #[inline(always)]
        || dot_chunk_base_body(x, y),
    )
}

#[inline(always)]
fn dot_chunk_base_body(x: &[F64x2], y: &[F64x2]) -> (F64x2, bool, f64, f64) {
    let mut acc = F64x2::ZERO;
    let mut finite = true;
    let mut naive = 0.0f64;
    let mut mag = 0.0f64;
    for (xi, yi) in x.iter().zip(y) {
        finite &= xi.is_finite() & yi.is_finite();
        let p = xi.hi() * yi.hi();
        naive += p;
        mag += p.abs();
        acc = acc.s_mul_acc(*xi, *yi);
    }
    (acc, finite, naive, mag)
}

/// Evaluate one dot chunk: the base pass, then the exact rung if the base
/// result tripped and the policy allows escalation. Returns the accepted
/// partial and its rung.
fn dot_chunk(x: &[F64x2], y: &[F64x2], policy: &EscalationPolicy) -> (F64x2, Rung) {
    let (v, finite, naive, mag) = dot_chunk_base(x, y);
    let trip = aggregate_trip(
        finite,
        value_bad(finite, &v),
        naive,
        mag,
        v.hi(),
        policy.tol_bits,
    );
    if trip && policy.max_rung == Rung::Oracle {
        (dot_exact(x, y), Rung::Oracle)
    } else {
        (v, Rung::N2)
    }
}

/// Serial adaptive dot over fixed chunks, tallying into `report`.
fn dot_serial(
    x: &[F64x2],
    y: &[F64x2],
    policy: &EscalationPolicy,
    report: &mut AdaptiveReport,
) -> F64x2 {
    let mut acc = F64x2::ZERO;
    for (lo, hi) in fixed_chunks(x.len()) {
        let (v, rung) = dot_chunk(&x[lo..hi], &y[lo..hi], policy);
        report.tally(rung);
        acc += v;
    }
    acc
}

/// Adaptive dot product: per-chunk escalation, chunk-ordered reduce.
/// Results are bitwise identical for every `threads` value.
pub fn dot_adaptive(
    x: &[F64x2],
    y: &[F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> (F64x2, AdaptiveReport) {
    assert_eq!(x.len(), y.len());
    let _sp = trace::span("blas.adaptive.dot", x.len() as u64);
    let ranges = fixed_chunks(x.len());
    // One chunk runs serially, with no dispatch.
    let threads = if ranges.len() == 1 { 1 } else { threads };
    let (partials, degraded) = run_chunks(
        "adaptive_dot",
        Some("blas.adaptive.dot.chunk"),
        threads,
        &ranges,
        &mut [(); 0],
        0,
        |_, (lo, hi), _| dot_chunk(&x[lo..hi], &y[lo..hi], policy),
    );
    let mut report = AdaptiveReport::default();
    let mut acc = F64x2::ZERO;
    for (v, rung) in partials {
        report.tally(rung);
        acc += v;
    }
    report.degraded = degraded as u64;
    report.flush_telemetry();
    (acc, report)
}

// ---------------------------------------------------------------------------
// AXPY
// ---------------------------------------------------------------------------

/// Exact per-element `alpha·x + y`: the four cross products of
/// `alpha·x` and both components of `y` summed in a [`LongAccumulator`],
/// rounded once by `from_mp`.
fn axpy_exact(alpha: F64x2, x: &[F64x2], snap: &[F64x2], y: &mut [F64x2]) {
    let [a0, a1] = alpha.components();
    for ((out, xi), yi) in y.iter_mut().zip(x).zip(snap) {
        let [x0, x1] = xi.components();
        let [y0, y1] = yi.components();
        let mut acc = LongAccumulator::new();
        acc.add_product(a0, x0);
        acc.add_product(a0, x1);
        acc.add_product(a1, x0);
        acc.add_product(a1, x1);
        acc.add_product(y0, 1.0);
        acc.add_product(y1, 1.0);
        *out = F64x2::from_mp(&acc.to_mp());
    }
}

/// The fused base-rung axpy pass (in the FMA frame like [`dot_chunk_base`]):
/// updates `y` in place and returns the detector inputs.
fn axpy_chunk_base(alpha: F64x2, x: &[F64x2], y: &mut [F64x2]) -> (bool, f64, f64) {
    simd::fma_frame(
        #[inline(always)]
        || axpy_chunk_base_body(alpha, x, y),
    )
}

#[inline(always)]
fn axpy_chunk_base_body(alpha: F64x2, x: &[F64x2], y: &mut [F64x2]) -> (bool, f64, f64) {
    let mut finite = alpha.is_finite();
    let mut naive = 0.0f64;
    let mut mag = 0.0f64;
    let a_hi = alpha.hi();
    for (yi, xi) in y.iter_mut().zip(x) {
        finite &= xi.is_finite() & yi.is_finite();
        let p = a_hi * xi.hi();
        naive += p + yi.hi();
        mag += p.abs() + yi.hi().abs();
        *yi = yi.s_mul_acc(alpha, *xi);
    }
    (finite, naive, mag)
}

/// Evaluate one axpy chunk in place. Returns the rung.
///
/// Shadow-oracle audit: one element per chunk may be drawn (probability
/// `chunk_len · rate`) and its *settled* value — after any escalation —
/// checked as `y_out[j] ?= alpha·x[j] + y_in[j]` on the background
/// auditor. Sampling reads around the kernel, never inside it, so results
/// stay bitwise identical across thread counts and draws.
fn axpy_chunk(alpha: F64x2, x: &[F64x2], y: &mut [F64x2], policy: &EscalationPolicy) -> Rung {
    let before = audit::should_sample_index(y.len()).map(|j| (j, y[j]));
    let rung = axpy_chunk_run(alpha, x, y, policy);
    if let Some((j, yj)) = before {
        crate::audit_submit(OpClass::Axpy, alpha, x[j], yj, y[j]);
    }
    rung
}

/// The two rungs of [`axpy_chunk`]: the base pass, then, if it tripped and
/// the policy allows escalation, the exact rung over the pre-kernel
/// snapshot of `y`.
///
/// The base rung is fused: the update is the same `s_mul_acc` as
/// [`crate::kernels::axpy`] (bitwise identical), with the detector inputs gathered
/// in the same traversal before each element is overwritten.
fn axpy_chunk_run(alpha: F64x2, x: &[F64x2], y: &mut [F64x2], policy: &EscalationPolicy) -> Rung {
    let snap = y.to_vec();
    let (finite, naive, mag) = axpy_chunk_base(alpha, x, y);
    let mut bad = false;
    let mut head_sum = 0.0f64;
    for v in y.iter() {
        bad |= value_bad(finite, v);
        head_sum += v.hi();
    }
    let trip = aggregate_trip(finite, bad, naive, mag, head_sum, policy.tol_bits);
    if trip && policy.max_rung == Rung::Oracle {
        axpy_exact(alpha, x, &snap, y);
        Rung::Oracle
    } else {
        Rung::N2
    }
}

/// Adaptive `y <- alpha*x + y`: per-chunk escalation. Results are bitwise
/// identical for every `threads` value.
pub fn axpy_adaptive(
    alpha: F64x2,
    x: &[F64x2],
    y: &mut [F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> AdaptiveReport {
    assert_eq!(x.len(), y.len());
    let _sp = trace::span("blas.adaptive.axpy", y.len() as u64);
    let ranges = fixed_chunks(y.len());
    // One chunk runs serially, with no dispatch.
    let threads = if ranges.len() == 1 { 1 } else { threads };
    let (rungs, degraded) = run_chunks(
        "adaptive_axpy",
        Some("blas.adaptive.axpy.chunk"),
        threads,
        &ranges,
        y,
        1,
        |_, (lo, hi), y| axpy_chunk(alpha, &x[lo..hi], y, policy),
    );
    let mut report = AdaptiveReport::default();
    for rung in rungs {
        report.tally(rung);
    }
    report.degraded = degraded as u64;
    report.flush_telemetry();
    report
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// Adaptive `y = A·x`: every row is an adaptive dot over fixed element
/// chunks; rows are divided among threads. Results are bitwise identical
/// for every `threads` value.
pub fn gemv_adaptive(
    a: &Matrix<F64x2>,
    x: &[F64x2],
    policy: &EscalationPolicy,
    threads: usize,
) -> (Vec<F64x2>, AdaptiveReport) {
    assert_eq!(
        a.cols,
        x.len(),
        "gemv_adaptive: A is {}x{} but x has {} elements",
        a.rows,
        a.cols,
        x.len()
    );
    let _sp = trace::span("blas.adaptive.gemv", a.rows as u64);
    let mut y = vec![F64x2::ZERO; a.rows];
    // One row runs serially, with no dispatch.
    let threads = if a.rows <= 1 { 1 } else { threads };
    let ranges = chunk_ranges(a.rows, threads);
    let (reports, degraded) = run_chunks(
        "adaptive_gemv",
        Some("blas.adaptive.gemv.chunk"),
        threads,
        &ranges,
        &mut y,
        1,
        |_, (lo, _), y| {
            let mut local = AdaptiveReport::default();
            for (r, out) in (lo..).zip(y) {
                *out = dot_serial(a.row(r), x, policy, &mut local);
            }
            local
        },
    );
    let mut report = AdaptiveReport::default();
    for local in &reports {
        report.merge(local);
    }
    report.degraded = degraded as u64;
    report.flush_telemetry();
    (y, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use mf_mpsoft::MpFloat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(rng: &mut SmallRng, n: usize) -> Vec<F64x2> {
        (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)) * F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn policy() -> EscalationPolicy {
        EscalationPolicy::default()
    }

    #[test]
    fn clean_inputs_stay_on_base_rung_and_match_kernels() {
        let mut rng = SmallRng::seed_from_u64(0xADA1);
        let n = 300; // three chunks
        let x = rand_vec(&mut rng, n);
        let y = rand_vec(&mut rng, n);

        let (d, rep) = dot_adaptive(&x, &y, &policy(), 1);
        assert_eq!(rep.chunks, 3);
        assert_eq!(rep.escalated, 0);
        let d_ser = kernels::dot(&x, &y);
        assert!((d.to_f64() - d_ser.to_f64()).abs() <= 1e-25);

        let alpha = F64x2::from(1.5);
        let mut y_ad = y.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y_ad, &policy(), 1);
        assert_eq!(rep.escalated, 0);
        let mut y_ser = y.clone();
        kernels::axpy(alpha, &x, &mut y_ser);
        for i in 0..n {
            assert_eq!(y_ad[i].components(), y_ser[i].components(), "i={i}");
        }
    }

    /// The base pass's partial is `kernels::dot`'s, bit for bit, under the
    /// active realization: the same `s_mul_acc` chain in the same frame.
    #[test]
    fn base_pass_partial_is_kernels_dot_bitwise() {
        let mut rng = SmallRng::seed_from_u64(0xADA9);
        for n in [0usize, 1, 7, 9, ADAPTIVE_CHUNK] {
            let x = rand_vec(&mut rng, n);
            let y = rand_vec(&mut rng, n);
            let (v, ..) = dot_chunk_base(&x, &y);
            assert_eq!(v.components(), kernels::dot(&x, &y).components(), "n={n}");
        }
    }

    #[test]
    fn results_are_bitwise_identical_across_thread_counts() {
        let mut rng = SmallRng::seed_from_u64(0xADA2);
        let n = 450;
        let x = rand_vec(&mut rng, n);
        let y = rand_vec(&mut rng, n);
        let (d1, r1) = dot_adaptive(&x, &y, &policy(), 1);
        for threads in [2usize, 4, 7] {
            let (dt, rt) = dot_adaptive(&x, &y, &policy(), threads);
            assert_eq!(dt.components(), d1.components(), "t={threads}");
            assert_eq!(rt.chunks, r1.chunks);
        }

        let alpha = F64x2::from(-0.75);
        let mut y1 = y.clone();
        axpy_adaptive(alpha, &x, &mut y1, &policy(), 1);
        for threads in [2usize, 4] {
            let mut yt = y.clone();
            axpy_adaptive(alpha, &x, &mut yt, &policy(), threads);
            for i in 0..n {
                assert_eq!(yt[i].components(), y1[i].components(), "t={threads} i={i}");
            }
        }

        let a = Matrix::from_fn(19, 23, |i, j| F64x2::from((i * 23 + j) as f64 * 0.01 - 2.0));
        let xv = rand_vec(&mut rng, 23);
        let (g1, _) = gemv_adaptive(&a, &xv, &policy(), 1);
        for threads in [2usize, 5] {
            let (gt, _) = gemv_adaptive(&a, &xv, &policy(), threads);
            for i in 0..19 {
                assert_eq!(gt[i].components(), g1[i].components(), "t={threads} i={i}");
            }
        }
    }

    /// Transient overflow inside one chunk's accumulation: the plain kernel
    /// returns inf, the adaptive path escalates that chunk to the exact
    /// evaluation and recovers the representable true value.
    #[test]
    fn dot_recovers_transient_overflow_via_oracle() {
        let mut rng = SmallRng::seed_from_u64(0xADA3);
        let n = 300;
        let mut x = rand_vec(&mut rng, n);
        let mut y = rand_vec(&mut rng, n);
        // Chunk 1 accumulates 2^1023 + 2^1023 (inf) before the -1.5·2^1023
        // term could have brought it back in range: exact sum is 2^1022.
        let big = 2.0f64.powi(512);
        x[150] = F64x2::from_scalar(big);
        y[150] = F64x2::from_scalar(big / 2.0);
        x[151] = F64x2::from_scalar(big);
        y[151] = F64x2::from_scalar(big / 2.0);
        x[152] = F64x2::from_scalar(-1.5 * big);
        y[152] = F64x2::from_scalar(big / 2.0);

        assert!(
            !kernels::dot(&x, &y).is_finite(),
            "plain kernel must collapse for this test to be meaningful"
        );
        // The hostile chunk's partial is the correctly rounded exact sum
        // of its four cross products per element, bit for bit.
        let (lo, hi) = (ADAPTIVE_CHUNK, 2 * ADAPTIVE_CHUNK);
        let (v, rung) = dot_chunk(&x[lo..hi], &y[lo..hi], &policy());
        assert_eq!(rung, Rung::Oracle);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (xi, yi) in x[lo..hi].iter().zip(&y[lo..hi]) {
            let ([x0, x1], [y0, y1]) = (xi.components(), yi.components());
            xs.extend([x0, x0, x1, x1]);
            ys.extend([y0, y1, y0, y1]);
        }
        let exact = F64x2::from_mp(&MpFloat::exact_dot(&xs, &ys));
        assert_eq!(v.components(), exact.components());
        for threads in [1usize, 3] {
            let (d, rep) = dot_adaptive(&x, &y, &policy(), threads);
            assert!(d.is_finite(), "t={threads}");
            // 2^1022 dominates the clean elements entirely.
            assert_eq!(d.hi(), 2.0f64.powi(1022), "t={threads}");
            assert_eq!(rep.chunks, 3);
            assert_eq!(rep.escalated, 1, "only the hostile chunk escalates");
            assert_eq!(rep.oracle, 1, "overflow regimes escalate to the exact rung");
            assert_eq!((rep.n3, rep.n4), (0, 0), "no middle rungs");
        }
    }

    #[test]
    fn axpy_recovers_transient_overflow_via_oracle() {
        let n = 200;
        let alpha = F64x2::from_scalar(2.0f64.powi(512));
        let x: Vec<F64x2> = (0..n).map(|i| F64x2::from(i as f64 * 1e-3)).collect();
        let mut y: Vec<F64x2> = (0..n).map(|i| F64x2::from(1.0 - i as f64 * 1e-3)).collect();
        // alpha·x[7] = 2^1024 (inf at N=2); y[7] pulls the exact value back
        // to 2^1023, which is representable.
        let mut x = x;
        x[7] = F64x2::from_scalar(2.0f64.powi(512));
        y[7] = F64x2::from_scalar(-(2.0f64.powi(1023)));

        let mut y_plain = y.clone();
        kernels::axpy(alpha, &x, &mut y_plain);
        assert!(!y_plain[7].is_finite(), "plain kernel must collapse");

        let mut y_ad = y.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y_ad, &policy(), 1);
        assert_eq!(y_ad[7].to_f64(), 2.0f64.powi(1023));
        assert_eq!(rep.chunks, 2);
        assert_eq!(rep.escalated, 1);
        assert_eq!(rep.oracle, 1);
        // The clean chunk is untouched relative to the plain kernel.
        for i in 128..n {
            assert_eq!(y_ad[i].components(), y_plain[i].components(), "i={i}");
        }
    }

    #[test]
    fn gemv_escalates_only_the_hostile_row() {
        let rows = 8;
        let cols = 40;
        let big = 2.0f64.powi(512);
        let a = Matrix::from_fn(rows, cols, |i, j| {
            if i == 3 && j < 3 {
                // Same transient-overflow pattern as the dot test.
                F64x2::from_scalar([big, big, -1.5 * big][j])
            } else {
                F64x2::from((i + j) as f64 * 0.01 + 0.1)
            }
        });
        let x: Vec<F64x2> = (0..cols)
            .map(|j| {
                if j < 3 {
                    F64x2::from_scalar(big / 2.0)
                } else {
                    F64x2::from(0.5)
                }
            })
            .collect();

        for threads in [1usize, 4] {
            let (yv, rep) = gemv_adaptive(&a, &x, &policy(), threads);
            assert!(yv.iter().all(|v| v.is_finite()), "t={threads}");
            assert_eq!(yv[3].hi(), 2.0f64.powi(1022), "t={threads}");
            assert_eq!(rep.chunks, rows as u64, "one chunk per 40-element row");
            assert_eq!(rep.escalated, 1);
            assert_eq!(rep.oracle, 1);
        }
    }

    /// Component bit patterns: compares NaNs as equal when their bits are.
    fn bits(v: F64x2) -> [u64; 2] {
        v.components().map(f64::to_bits)
    }

    /// A `max_rung` below the oracle switches escalation off: the tripped
    /// chunk keeps its collapsed base result, bit for bit the plain
    /// kernel's, and the report counts no escalation.
    #[test]
    fn max_rung_below_oracle_keeps_the_base_result() {
        let big = 2.0f64.powi(512);
        let x = vec![
            F64x2::from_scalar(big),
            F64x2::from_scalar(big),
            F64x2::from_scalar(-1.5 * big),
        ];
        let y = vec![F64x2::from_scalar(big / 2.0); 3];
        let alpha = F64x2::from_scalar(big);
        let ya = vec![F64x2::from_scalar(-(2.0f64.powi(1023))); 3];
        let mut ya_plain = ya.clone();
        kernels::axpy(alpha, &x, &mut ya_plain);
        assert!(!ya_plain[0].is_finite(), "plain axpy must collapse");
        let base_only = AdaptiveReport {
            chunks: 1,
            ..AdaptiveReport::default()
        };
        for max_rung in [Rung::N2, Rung::N3, Rung::N4] {
            let capped = EscalationPolicy {
                max_rung,
                ..EscalationPolicy::default()
            };
            let (d, rep) = dot_adaptive(&x, &y, &capped, 1);
            assert!(!d.is_finite(), "cap {max_rung}");
            assert_eq!(bits(d), bits(kernels::dot(&x, &y)), "cap {max_rung}");
            assert_eq!(rep, base_only, "cap {max_rung}");

            let mut ya_ad = ya.clone();
            let rep = axpy_adaptive(alpha, &x, &mut ya_ad, &capped, 1);
            for (got, want) in ya_ad.iter().zip(&ya_plain) {
                assert_eq!(bits(*got), bits(*want), "cap {max_rung}");
            }
            assert_eq!(rep, base_only, "cap {max_rung}");
        }
    }

    #[test]
    fn nonfinite_inputs_pass_through_without_escalation() {
        let x = vec![F64x2::from_scalar(f64::NAN), F64x2::from(1.0)];
        let y = vec![F64x2::from(2.0), F64x2::from(3.0)];
        let (d, rep) = dot_adaptive(&x, &y, &policy(), 1);
        assert!(d.is_nan());
        assert_eq!(rep.escalated, 0, "§4.4 propagation is not a collapse");
    }

    #[test]
    fn empty_inputs() {
        let (d, rep) = dot_adaptive(&[], &[], &policy(), 4);
        assert_eq!(d.to_f64(), 0.0);
        assert_eq!(rep.chunks, 1);
        assert_eq!(rep.escalated, 0);
        let mut y: Vec<F64x2> = Vec::new();
        let rep = axpy_adaptive(F64x2::ONE, &[], &mut y, &policy(), 4);
        assert_eq!(rep.escalated, 0);
    }
}
