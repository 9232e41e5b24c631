//! The four workloads. Each one owns its library-side operands (built in
//! [`Workload`] set-up), runs one fixed batch of calls per unit with every
//! call wrapped in a benchmark-side span, and checks the last unit's
//! outputs against the `mf-mpsoft` oracle.

pub mod dd;
pub mod refine;
pub mod wide;

use crate::measure::{correct_bits, Tracer};
use mf_core::MultiFloat;
use mf_mpsoft::MpFloat;

/// Working precision of the oracle. Products of two 4-term expansions
/// need at most ~430 bits, so every reference below is exact or rounded
/// far below the 212 bits the widest checked output can carry.
pub const ORACLE_PREC: u32 = 640;

/// Correct-bits cap: an exact match reads as this many bits.
pub const BITS_CAP: f64 = 400.0;

/// The layers a span can be charged to (the library module it calls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Core,
    BlasKernels,
    BlasSoa,
    BlasTile,
    BlasParallel,
    BlasAdaptive,
    SolveLu,
    SolveRefine,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Core,
        Layer::BlasKernels,
        Layer::BlasSoa,
        Layer::BlasTile,
        Layer::BlasParallel,
        Layer::BlasAdaptive,
        Layer::SolveLu,
        Layer::SolveRefine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::BlasKernels => "blas.kernels",
            Layer::BlasSoa => "blas.soa",
            Layer::BlasTile => "blas.tile",
            Layer::BlasParallel => "blas.parallel",
            Layer::BlasAdaptive => "blas.adaptive",
            Layer::SolveLu => "solve.lu",
            Layer::SolveRefine => "solve.refine",
        }
    }
}

/// One library call made per unit. The span name is also the stem of the
/// call's per-layer metric; `ops` counts its work (one multiply plus one
/// add for kernels, one operation for scalar chains).
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub span: &'static str,
    pub layer: Layer,
    pub ops: f64,
}

/// Traced time of one call over the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTime {
    pub self_ns: u64,
    pub count: u64,
}

impl CallTime {
    /// Operations per nanosecond, i.e. Gop/s.
    pub fn gops(&self, call: &Call) -> f64 {
        call.ops * self.count as f64 / self.self_ns.max(1) as f64
    }

    pub fn ns_per_op(&self, call: &Call) -> f64 {
        self.self_ns as f64 / (call.ops * self.count as f64).max(1.0)
    }

    pub fn ms_per_call(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

/// Outcome of the oracle check.
#[derive(Clone, Copy, Debug)]
pub struct Check {
    pub min_bits: f64,
    pub checked: usize,
    pub failed: usize,
}

impl Default for Check {
    fn default() -> Self {
        Check {
            min_bits: BITS_CAP,
            checked: 0,
            failed: 0,
        }
    }
}

impl Check {
    /// Record one output with `bits` correct bits; it passes with at least
    /// `need`.
    pub fn record(&mut self, bits: f64, need: f64) {
        self.min_bits = self.min_bits.min(bits);
        self.checked += 1;
        if bits < need {
            self.failed += 1;
        }
    }

    pub fn expect(&mut self, computed: &MpFloat, reference: &MpFloat, need: f64) {
        self.record(correct_bits(computed, reference, BITS_CAP), need);
    }

    pub fn expect_mf<const N: usize>(
        &mut self,
        computed: &MultiFloat<f64, N>,
        reference: &MpFloat,
        need: f64,
    ) {
        self.expect(&computed.to_mp(ORACLE_PREC), reference, need);
    }
}

/// Bits an `N`-term result must keep after `len` dependent operations:
/// each operation is within `2^-(53N - 16)` of exact (the loosest
/// per-operation bound the library documents, for division and square
/// root), and with same-signed inputs nothing cancels, so the errors of a
/// reduction or chain add up to at most `2 len` times that.
pub fn need_bits(n: usize, len: usize) -> f64 {
    (53 * n) as f64 - 16.0 - (2.0 * len as f64).log2()
}

pub fn mp<const N: usize>(x: &MultiFloat<f64, N>) -> MpFloat {
    x.to_mp(ORACLE_PREC)
}

/// Exact-enough dot product in the oracle's precision.
pub fn mp_dot<const N: usize>(x: &[MultiFloat<f64, N>], y: &[MultiFloat<f64, N>]) -> MpFloat {
    x.iter()
        .zip(y)
        .fold(MpFloat::zero(ORACLE_PREC), |acc, (a, b)| {
            acc.add(&mp(a).mul(&mp(b), ORACLE_PREC), ORACLE_PREC)
        })
}

/// Oracle row-major GEMV `alpha * A * x` (rows of `a` have `x.len()` entries).
pub fn mp_gemv<const N: usize>(
    alpha: &MultiFloat<f64, N>,
    a: &[MultiFloat<f64, N>],
    x: &[MultiFloat<f64, N>],
) -> Vec<MpFloat> {
    a.chunks(x.len())
        .map(|row| mp(alpha).mul(&mp_dot(row, x), ORACLE_PREC))
        .collect()
}

/// Oracle row-major GEMM `alpha * A * B` for `m x k` times `k x n`.
pub fn mp_gemm<const N: usize>(
    alpha: &MultiFloat<f64, N>,
    a: &[MultiFloat<f64, N>],
    b: &[MultiFloat<f64, N>],
    k: usize,
    n: usize,
) -> Vec<MpFloat> {
    let bt: Vec<MultiFloat<f64, N>> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
    a.chunks(k)
        .flat_map(|row| {
            bt.chunks(k)
                .map(|col| mp(alpha).mul(&mp_dot(row, col), ORACLE_PREC))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Bit patterns of an expansion, for the unit-to-unit bitwise comparison.
pub fn push_bits<const N: usize>(out: &mut Vec<u64>, xs: &[MultiFloat<f64, N>]) {
    for x in xs {
        out.extend(x.components().iter().map(|c| c.to_bits()));
    }
}

/// A workload: the fixed batch of calls that makes one unit.
pub trait Workload {
    /// Calls made per unit; a span's name indexes this table.
    fn calls(&self) -> &[Call];
    /// Run one unit. Every library call sits inside `tr.span`.
    fn unit(&mut self, tr: &mut Tracer);
    /// Append the bit patterns of every output of the last unit.
    fn outputs(&self, out: &mut Vec<u64>);
    /// Check the last unit's outputs against the oracle.
    fn check(&self) -> Check;
    /// Per-layer metrics of this workload from the traced call times
    /// (indexed like [`Workload::calls`]).
    fn layer_metrics(&self, times: &[CallTime]) -> Vec<(String, f64)>;
}

/// `<span>.gops` for every call of `layers`.
pub fn gops_metrics(calls: &[Call], times: &[CallTime], layers: &[Layer]) -> Vec<(String, f64)> {
    calls
        .iter()
        .zip(times)
        .filter(|(c, _)| layers.contains(&c.layer))
        .map(|(c, t)| (format!("{}.gops", c.span), t.gops(c)))
        .collect()
}
