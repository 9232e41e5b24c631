//! `mf-blas`: extended-precision BLAS kernels (paper §5).
//!
//! The paper evaluates its algorithms through four kernels that cover the
//! standard computational intensities:
//!
//! * **AXPY** — `y <- α·x + y` (vector-vector, streaming)
//! * **DOT** — `x · y` (vector-vector reduction)
//! * **GEMV** — `y <- α·A·x + β·y` (matrix-vector), `ij` loop order
//! * **GEMM** — `C <- α·A·B + β·C` (matrix-matrix), `ikj` loop order
//!
//! Both loop orders match the paper's setup. Kernels come in three forms:
//!
//! * [`kernels`] — scalar array-of-structs kernels, generic over [`Scalar`]
//!   (every arithmetic type in the workspace: `f64`/`f32`, `MultiFloat`,
//!   QD, CAMPARY), used for all baselines;
//! * [`soa`] — structure-of-arrays kernels for `MultiFloat`, the layout
//!   that lets LLVM autovectorize the branch-free FPAN arithmetic across
//!   elements (the paper's SIMD mechanism; branchy baselines *cannot* be
//!   written this way, which is the source of the order-of-magnitude gap);
//! * [`simd`] — the lock-step lane engine: the same FPAN networks
//!   instantiated at an 8-lane vector type (one AVX-512 register per FPAN
//!   wire), realized with AVX2, AVX-512 or NEON intrinsics for `f64` and by
//!   the portable [`lanes::Lanes`] for every base. It runs the SoA DOT and
//!   GEMV reductions and the AoS GEMV row engine, bit-identical across
//!   ISAs;
//! * [`mp`] — kernels over the limb-based `MpFloat` (the GMP/MPFR-class
//!   baseline, with its allocation and branching costs included, as in the
//!   real libraries);
//! * [`parallel`] — chunked thread-parallel wrappers running on the
//!   persistent worker [`pool`] (the paper runs thread-per-core; this
//!   container has one core, so the harness reports the max over
//!   serial/parallel — see DESIGN.md T7).

pub mod adaptive;
pub mod kernels;
pub mod lanes;
pub mod mp;
pub mod parallel;
pub mod pool;
pub mod simd;
pub mod soa;
pub mod tile;

use core::ops::Range;
use mf_baselines::campary::Expansion;
use mf_baselines::dd::DoubleDouble;
use mf_baselines::qd::QuadDouble;
use mf_core::{FloatBase, MultiFloat};

/// The arithmetic interface the generic kernels need. One op is one
/// multiplication plus one addition (the paper's counting convention).
pub trait Scalar: Copy + Send + Sync + Default + 'static {
    fn s_zero() -> Self;
    fn s_add(self, o: Self) -> Self;
    fn s_mul(self, o: Self) -> Self;
    fn s_from_f64(x: f64) -> Self;
    fn s_to_f64(self) -> f64;
    /// Exact zero test, used by the kernels to select the BLAS
    /// `beta == 0` overwrite path (outputs are *written*, never read, so
    /// NaN/Inf in an uninitialized buffer cannot propagate). Must be an
    /// exact representation test — never a lossy round-trip through `f64`.
    fn s_is_zero(self) -> bool;
    /// `acc + a*b`; types with cheaper fused paths may override.
    #[inline(always)]
    fn s_mul_acc(self, a: Self, b: Self) -> Self {
        self.s_add(a.s_mul(b))
    }
    /// Plain-data widening for the shadow-oracle audit sampler:
    /// `(terms, precision bits, components losslessly widened to f64)`.
    /// `None` (the default) opts the type out of audit sampling — types
    /// whose exact value does not embed in ≤ 4 lossless `f64` terms.
    #[inline(always)]
    fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
        None
    }
    /// Per-call operation accounting: a kernel entry point reports the
    /// `adds` additions and `muls` multiplications it performed, once per
    /// call. `MultiFloat` turns them into the exact `core.renorm.*`
    /// counts; the default (every other type) ignores them.
    #[inline(always)]
    fn s_record_ops(adds: usize, muls: usize) {
        let _ = (adds, muls);
    }
    /// GEMV row reductions: `emit(i, a.row(i) · x)` for each `i` in
    /// `rows`, every row the serial chain of [`kernels::dot`]. The default
    /// is the serial row loop; `MultiFloat<f64, N>` runs eight rows at a
    /// time on the [`simd`] row engine, with the same bits.
    #[inline(always)]
    fn s_dot_rows(a: &Matrix<Self>, x: &[Self], rows: Range<usize>, emit: impl FnMut(usize, Self)) {
        kernels::dot_rows_serial(a, x, rows, emit);
    }
}

macro_rules! scalar_native {
    ($t:ty, $prec:expr) => {
        impl Scalar for $t {
            #[inline(always)]
            fn s_zero() -> Self {
                0.0
            }
            #[inline(always)]
            fn s_add(self, o: Self) -> Self {
                self + o
            }
            #[inline(always)]
            fn s_mul(self, o: Self) -> Self {
                self * o
            }
            #[inline(always)]
            fn s_from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn s_to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn s_is_zero(self) -> bool {
                self == 0.0
            }
            #[inline(always)]
            fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
                Some((1, $prec, [self as f64, 0.0, 0.0, 0.0]))
            }
        }
    };
}
scalar_native!(f64, 53);
scalar_native!(f32, 24);

impl<T: FloatBase, const N: usize> Scalar for MultiFloat<T, N> {
    #[inline(always)]
    fn s_zero() -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn s_add(self, o: Self) -> Self {
        self.add(o)
    }
    #[inline(always)]
    fn s_mul(self, o: Self) -> Self {
        self.mul(o)
    }
    #[inline(always)]
    fn s_from_f64(x: f64) -> Self {
        Self::from(x)
    }
    #[inline(always)]
    fn s_to_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn s_is_zero(self) -> bool {
        self.is_zero()
    }
    #[inline(always)]
    fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
        if N > 4 {
            return None;
        }
        let mut parts = [0.0f64; 4];
        for (slot, c) in parts.iter_mut().zip(&self.components()) {
            *slot = c.to_f64();
        }
        Some((N as u8, T::PRECISION as u16, parts))
    }
    #[inline(always)]
    fn s_record_ops(adds: usize, muls: usize) {
        mf_core::renorm_probes::record_ops(N, adds as u64, muls as u64);
    }
    #[inline(always)]
    fn s_dot_rows(
        a: &Matrix<Self>,
        x: &[Self],
        rows: Range<usize>,
        mut emit: impl FnMut(usize, Self),
    ) {
        if !simd::try_dot_rows_mf(a, x, rows.clone(), &mut emit) {
            kernels::dot_rows_serial(a, x, rows, emit);
        }
    }
}

impl Scalar for DoubleDouble {
    #[inline(always)]
    fn s_zero() -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn s_add(self, o: Self) -> Self {
        self.add(o)
    }
    #[inline(always)]
    fn s_mul(self, o: Self) -> Self {
        self.mul(o)
    }
    #[inline(always)]
    fn s_from_f64(x: f64) -> Self {
        Self::from_f64(x)
    }
    #[inline(always)]
    fn s_to_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn s_is_zero(self) -> bool {
        self.hi == 0.0 && self.lo == 0.0
    }
    #[inline(always)]
    fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
        Some((2, 53, [self.hi, self.lo, 0.0, 0.0]))
    }
}

impl Scalar for QuadDouble {
    #[inline(always)]
    fn s_zero() -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn s_add(self, o: Self) -> Self {
        self.add(o)
    }
    #[inline(always)]
    fn s_mul(self, o: Self) -> Self {
        self.mul(o)
    }
    #[inline(always)]
    fn s_from_f64(x: f64) -> Self {
        Self::from_f64(x)
    }
    #[inline(always)]
    fn s_to_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn s_is_zero(self) -> bool {
        self.0.iter().all(|&c| c == 0.0)
    }
    #[inline(always)]
    fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
        Some((4, 53, self.0))
    }
}

impl<const N: usize> Scalar for Expansion<N> {
    #[inline(always)]
    fn s_zero() -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn s_add(self, o: Self) -> Self {
        self.add(o)
    }
    #[inline(always)]
    fn s_mul(self, o: Self) -> Self {
        self.mul(o)
    }
    #[inline(always)]
    fn s_from_f64(x: f64) -> Self {
        Self::from_f64(x)
    }
    #[inline(always)]
    fn s_to_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn s_is_zero(self) -> bool {
        self.0.iter().all(|&c| c == 0.0)
    }
    #[inline(always)]
    fn s_audit_parts(self) -> Option<(u8, u16, [f64; 4])> {
        if N > 4 {
            return None;
        }
        let mut parts = [0.0f64; 4];
        parts[..N].copy_from_slice(&self.0);
        Some((N as u8, 53, parts))
    }
}

/// Submit one sampled kernel element to the shadow-oracle auditor (the
/// caller already won the sampling draw). Types that opt out of
/// [`Scalar::s_audit_parts`] silently skip.
#[cold]
pub(crate) fn audit_submit<S: Scalar>(class: mf_telemetry::audit::OpClass, a: S, b: S, c: S, r: S) {
    let (Some((n, prec, pa)), Some((_, _, pb)), Some((_, _, pc)), Some((_, _, pr))) = (
        a.s_audit_parts(),
        b.s_audit_parts(),
        c.s_audit_parts(),
        r.s_audit_parts(),
    ) else {
        return;
    };
    mf_core::audit_hook::install();
    mf_telemetry::audit::submit(mf_telemetry::audit::AuditSample {
        class,
        n,
        prec,
        a: pa,
        b: pb,
        c: pc,
        r: pr,
    });
}

/// Dense row-major matrix over any [`Scalar`].
#[derive(Debug, Clone)]
pub struct Matrix<S> {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::s_zero(); rows * cols],
        }
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    #[inline(always)]
    pub fn row(&self, i: usize) -> &[S] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> S {
        self.data[i * self.cols + j]
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        self.data[i * self.cols + j] = v;
    }
}
