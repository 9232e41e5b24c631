//! Explicit SIMD lane backend: intrinsic-backed 8-lane vector types
//! running the *same* generic FPAN networks as the scalar kernels.
//!
//! PR 3's fault-injection campaign showed the autovectorizer is fragile —
//! an added guard check silently broke cross-iteration vectorization of
//! `mul` — and [`crate::lanes::Lanes`] only *hopes* the compiler maps its
//! `[f64; L]` zips onto vector registers. This module removes the hope:
//! each realization below is an `[f64; 8]` wrapper whose `+`, `-`, `*`,
//! `mul_add`, … lower to explicit `core::arch` intrinsics, and it
//! implements [`FloatBase`], so the *unchanged* branch-free networks in
//! `mf-core` (`two_sum`/`two_prod` gates, `addition`/`multiplication`
//! FPANs, renorm sweeps) execute 8 independent extended-precision values
//! per instruction.
//!
//! **Bitwise-identity contract.** Every hot operation the networks use
//! (add, sub, mul, div, fma, sqrt, abs, neg) is IEEE-754 correctly rounded
//! in every realization, and each kernel is one body generic over the
//! realization, so the lane structure (fixed 8-lane chunks, ceil-half tree
//! reduction, scalar tail for the DOT reduction) never depends on the ISA.
//! Each lane therefore computes the same bits whichever realization runs —
//! the forced-ISA CI matrix and the `"blas-simd"` conformance class assert
//! this against the portable [`Lanes`] instantiation. Cold predicates
//! (`min`/`max`, `is_*`, `exponent`) are scalar per-lane loops mirroring
//! `Lanes` semantics exactly, because e.g. `_mm256_max_pd` has different
//! NaN behaviour than `f64::max` and the predicates feed `debug_assert!`s
//! that must agree across realizations.
//!
//! **Two layouts, one lane engine.** The SoA DOT body ([`dot_lockstep`])
//! puts eight consecutive *elements* in the lanes; it runs on the intrinsic
//! realizations for `f64` and on the portable `Lanes<T, 8>` for every other
//! base. The AoS row engine ([`dot_rows`], and `Scalar::s_dot_rows` for
//! `MultiFloat<f64, N>`) puts eight GEMV *rows* in the lanes, each lane
//! running its row's serial `kernels::dot` chain unchanged, so every row
//! keeps its serial bits.
//!
//! **Selection ladder.** [`active`] resolves once per process:
//!
//! 1. `MF_SIMD=scalar|avx2|avx512|neon` forces a realization; forcing an
//!    ISA the host/build cannot run is a hard panic (fail loud, never
//!    silently measure the wrong path).
//! 2. `MF_SIMD=auto` (or unset) detects: AVX2+FMA on x86-64, NEON on
//!    aarch64, scalar otherwise. AVX-512 is deliberately *not* auto-picked
//!    even when detected — PR 7 measured license-downclocking regressions
//!    on wide-vector frames; it stays an explicit opt-in (DESIGN.md).
//!
//! **One frame ladder.** The crate's only `#[target_feature]` frames are
//! here, one per realization: `avx2,fma` and, under `cfg(mf_avx512)`,
//! `avx512f,fma` (NEON is aarch64 baseline and needs none). Every kernel
//! enters them through one of two functions:
//!
//! - [`fma_frame`] runs a scalar body (the flat, SoA, tiled and adaptive
//!   kernels, and mf-solve's blocked `f64` LU) in the AVX2+FMA frame when
//!   the active realization is an x86 vector ISA, so its `mul_add`s lower
//!   to `vfmadd`, and portably otherwise. `MF_SIMD=scalar` thus pins every layer to portable codegen
//!   with one env var, which makes the forced-ISA CI matrix a like-for-like
//!   bit comparison.
//! - [`on_isa`] runs a [`LaneKernel`] — a body generic over the lane type —
//!   on `Lanes`, `V8Avx2`, `V8Avx512` or `V8Neon`.
//!
//! A new kernel therefore adds a body, never a frame. A closure handed to
//! a frame must be written `#[inline(always)] || body(..)`: without the
//! attribute LLVM may emit it as a standalone function outside the frame,
//! same bits but slower code, which `scripts/check_frames.sh` catches from
//! the symbol table.

use crate::lanes::Lanes;
use crate::Matrix;
use core::any::TypeId;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Range, Sub};
use mf_core::{addition, multiplication, FloatBase, MultiFloat};
use std::sync::atomic::{AtomicU8, Ordering};

/// Lane width of every realization: one AVX-512 register, two AVX2
/// registers, or four NEON registers per FPAN wire. Fixed so the reduction
/// *structure* (and hence the computed bits) never depends on which ISA
/// runs. 8 lanes beat 4 at every expansion width for reductions, despite
/// the register spills at N >= 3: the spill cost is smaller than the
/// dependency-chain stalls it buys off.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

/// The instruction-set realizations of the 8-lane backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable `[f64; 8]` code ([`Lanes`]), compiled without any
    /// `#[target_feature]` frame: the reference realization.
    Scalar,
    /// x86-64 AVX2+FMA: each lane group is two `__m256d` registers.
    Avx2,
    /// x86-64 AVX-512F: each lane group is one `__m512d` register.
    /// Compile-probe gated (`cfg(mf_avx512)`) and opt-in only.
    Avx512,
    /// aarch64 NEON: each lane group is four `float64x2_t` registers.
    Neon,
}

impl Isa {
    pub const ALL: [Isa; 4] = [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon];

    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    pub fn parse(s: &str) -> Option<Isa> {
        Isa::ALL.iter().copied().find(|i| i.name() == s)
    }

    /// Whether this realization can run here: compiled in *and* the host
    /// CPU has the features its `#[target_feature]` frames enable.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Isa::Avx512 => {
                #[cfg(all(target_arch = "x86_64", mf_avx512))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(all(target_arch = "x86_64", mf_avx512)))]
                {
                    false
                }
            }
            // NEON is part of the aarch64 baseline: always available there.
            Isa::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
            Isa::Neon => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        Isa::ALL.iter().copied().find(|i| i.to_u8() == v)
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What `auto` resolves to on this host. AVX-512 is intentionally absent:
/// it must be requested explicitly (PR 7's license-downclock finding).
fn detect_auto() -> Isa {
    if cfg!(target_arch = "aarch64") {
        Isa::Neon
    } else if Isa::Avx2.supported() {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Cached selection. `u8::MAX` = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

fn resolve_from_env() -> Isa {
    let var = std::env::var("MF_SIMD").ok();
    let req = var.as_deref().map(str::trim).filter(|s| !s.is_empty());
    match req {
        None | Some("auto") => detect_auto(),
        Some(s) => match Isa::parse(s) {
            Some(isa) if isa.supported() => isa,
            // Fail loud: a forced ISA that silently fell back would make
            // the forced-ISA CI matrix (and any benchmark run) measure the
            // wrong path while claiming otherwise.
            Some(isa) => panic!(
                "MF_SIMD={s}: the {isa} realization is not supported on this host/build \
                 (use MF_SIMD=auto for detection)"
            ),
            None => panic!("MF_SIMD={s}: unknown ISA (expected scalar|avx2|avx512|neon|auto)"),
        },
    }
}

/// The active realization, resolved once from `MF_SIMD` + host detection
/// (see the module docs for the ladder) and cached for the process.
#[inline]
pub fn active() -> Isa {
    match Isa::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(isa) => isa,
        None => {
            let isa = resolve_from_env();
            ACTIVE.store(isa.to_u8(), Ordering::Relaxed);
            isa
        }
    }
}

/// Force the active realization, bypassing `MF_SIMD`. Panics if `isa` is
/// not [`Isa::supported`]. This is a harness hook — the `simd` bench bin
/// and the forced-ISA tests flip realizations in-process with it; library
/// code must never call it.
pub fn force(isa: Isa) {
    assert!(
        isa.supported(),
        "simd::force({isa}): realization not supported on this host/build"
    );
    ACTIVE.store(isa.to_u8(), Ordering::Relaxed);
}

/// Whether the AVX2+FMA frame may be entered: the active realization is
/// an x86 vector ISA, so that frame's features were detected. False under
/// `MF_SIMD=scalar`, which pins every [`fma_frame`] body to portable
/// codegen at once.
#[cfg(target_arch = "x86_64")]
#[inline]
fn fma_frame_allowed() -> bool {
    matches!(active(), Isa::Avx2 | Isa::Avx512)
}

// ---------------------------------------------------------------------------
// The vector-lane trait and its realizations
// ---------------------------------------------------------------------------

/// An 8-lane vector of base `T` usable as the base type of the generic
/// FPAN networks. Storage is always a plain `[T; 8]` — the intrinsic
/// realizations (`T = f64` only) load registers on entry to each op and
/// store on exit; inside a `#[target_feature]` frame LLVM's mem2reg keeps
/// the values in registers across the whole network body.
pub(crate) trait VLane<T>: FloatBase {
    fn from_array(a: [T; LANES]) -> Self;
    fn to_array(self) -> [T; LANES];
}

/// Full-width load: `s.len() >= LANES`.
#[inline(always)]
fn vload<T: FloatBase, V: VLane<T>>(s: &[T]) -> V {
    let mut a = [T::ZERO; LANES];
    a.copy_from_slice(&s[..LANES]);
    V::from_array(a)
}

impl<T: FloatBase> VLane<T> for Lanes<T, LANES> {
    #[inline(always)]
    fn from_array(a: [T; LANES]) -> Self {
        Lanes(a)
    }
    #[inline(always)]
    fn to_array(self) -> [T; LANES] {
        self.0
    }
}

/// Implement everything *except* the hot arithmetic for an `[f64; 8]`
/// vector newtype: operator traits forwarding to the type's `v_*` inherent
/// methods, plus the cold [`FloatBase`] surface as scalar per-lane loops
/// with exactly [`Lanes`]' reduction semantics (any-NaN, all-zero,
/// max-exponent, lane-0 sign/ordering). The hot `v_*` methods are supplied
/// per ISA with intrinsics.
macro_rules! v8_realization {
    ($T:ident) => {
        impl Default for $T {
            fn default() -> Self {
                $T([0.0; LANES])
            }
        }

        impl fmt::Display for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0[0])
            }
        }

        impl fmt::LowerExp for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:e}", self.0[0])
            }
        }

        impl PartialOrd for $T {
            /// Same partial order as [`Lanes`]: `Some(Equal)` iff all lanes
            /// equal, lane-0 ordering when strict, `None` on mixed ties.
            fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
                match self.0[0].partial_cmp(&other.0[0]) {
                    Some(core::cmp::Ordering::Equal) => {
                        if self == other {
                            Some(core::cmp::Ordering::Equal)
                        } else {
                            None
                        }
                    }
                    ord => ord,
                }
            }
        }

        impl $T {
            #[inline(always)]
            fn map_scalar(self, f: impl Fn(f64) -> f64) -> Self {
                let mut out = self.0;
                for v in &mut out {
                    *v = f(*v);
                }
                $T(out)
            }

            #[inline(always)]
            fn zip_scalar(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
                let mut out = self.0;
                for (v, w) in out.iter_mut().zip(&o.0) {
                    *v = f(*v, *w);
                }
                $T(out)
            }
        }

        impl Add for $T {
            type Output = Self;
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                self.v_add(o)
            }
        }

        impl Sub for $T {
            type Output = Self;
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                self.v_sub(o)
            }
        }

        impl Mul for $T {
            type Output = Self;
            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                self.v_mul(o)
            }
        }

        impl Div for $T {
            type Output = Self;
            #[inline(always)]
            fn div(self, o: Self) -> Self {
                self.v_div(o)
            }
        }

        impl Neg for $T {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                self.v_neg()
            }
        }

        impl FloatBase for $T {
            const PRECISION: u32 = f64::PRECISION;
            const MIN_EXP: i32 = <f64 as FloatBase>::MIN_EXP;
            const MAX_EXP: i32 = <f64 as FloatBase>::MAX_EXP;
            const ZERO: Self = $T([0.0; LANES]);
            const ONE: Self = $T([1.0; LANES]);
            const NEG_ONE: Self = $T([-1.0; LANES]);
            const HALF: Self = $T([0.5; LANES]);
            const TWO: Self = $T([2.0; LANES]);
            const EPSILON: Self = $T([f64::EPSILON; LANES]);
            const MAX: Self = $T([f64::MAX; LANES]);
            const MIN_POSITIVE: Self = $T([f64::MIN_POSITIVE; LANES]);
            const INFINITY: Self = $T([f64::INFINITY; LANES]);
            const NEG_INFINITY: Self = $T([f64::NEG_INFINITY; LANES]);
            const NAN: Self = $T([f64::NAN; LANES]);

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.v_mul_add(a, b)
            }

            #[inline(always)]
            fn sqrt(self) -> Self {
                self.v_sqrt()
            }

            #[inline(always)]
            fn abs(self) -> Self {
                self.v_abs()
            }

            /// `f64::recip` is exactly `1.0 / self`, so the vector divide
            /// is bit-identical to the scalar reciprocal (no `vrcp14pd`
            /// approximation here).
            #[inline(always)]
            fn recip(self) -> Self {
                Self::ONE / self
            }

            fn floor(self) -> Self {
                self.map_scalar(f64::floor)
            }

            fn ceil(self) -> Self {
                self.map_scalar(f64::ceil)
            }

            fn round(self) -> Self {
                self.map_scalar(f64::round)
            }

            fn trunc(self) -> Self {
                self.map_scalar(f64::trunc)
            }

            /// Any-lane reduction (conservative), as in [`Lanes`].
            fn is_nan(self) -> bool {
                self.0.iter().any(|v| v.is_nan())
            }

            fn is_infinite(self) -> bool {
                self.0.iter().any(|v| v.is_infinite())
            }

            fn is_finite(self) -> bool {
                self.0.iter().all(|v| v.is_finite())
            }

            fn is_sign_negative(self) -> bool {
                self.0[0].is_sign_negative()
            }

            /// All-lanes-zero, as in [`Lanes`].
            fn is_zero(self) -> bool {
                self.0.iter().all(|&v| FloatBase::is_zero(v))
            }

            /// Max over lanes, as in [`Lanes`].
            fn exponent(self) -> i32 {
                self.0
                    .iter()
                    .map(|&v| FloatBase::exponent(v))
                    .max()
                    .unwrap_or(0)
            }

            /// Lane by lane, as in [`Lanes`].
            fn fast_two_sum_ok(self, y: Self) -> bool {
                self.0
                    .iter()
                    .zip(&y.0)
                    .all(|(&a, &b)| FloatBase::fast_two_sum_ok(a, b))
            }

            fn exp2i(e: i32) -> Self {
                $T([<f64 as FloatBase>::exp2i(e); LANES])
            }

            fn from_f64(x: f64) -> Self {
                $T([x; LANES])
            }

            fn to_f64(self) -> f64 {
                self.0[0]
            }

            /// Scalar per-lane loops for `copysign`/`min`/`max`: the packed
            /// `min/max` instructions have different NaN semantics than
            /// `f64::min/max`, and these only run on cold paths.
            fn copysign(self, sign: Self) -> Self {
                self.zip_scalar(sign, f64::copysign)
            }

            fn min(self, other: Self) -> Self {
                self.zip_scalar(other, f64::min)
            }

            fn max(self, other: Self) -> Self {
                self.zip_scalar(other, f64::max)
            }
        }

        impl VLane<f64> for $T {
            #[inline(always)]
            fn from_array(a: [f64; LANES]) -> Self {
                $T(a)
            }
            #[inline(always)]
            fn to_array(self) -> [f64; LANES] {
                self.0
            }
        }
    };
}

/// AVX2+FMA realization: two `__m256d` per value.
///
/// # Safety invariant
///
/// Values of this type are only constructed and operated on inside
/// [`on_isa`]`(Isa::Avx2, ..)`, whose `isa` is [`Isa::supported`], so the
/// `avx2`/`fma` CPU features are guaranteed present when any `v_*` method
/// executes its intrinsics. The
/// type is `pub(crate)` so no outside code can break the invariant.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{fmt, Add, Div, FloatBase, Mul, Neg, Sub, VLane, LANES};
    use core::arch::x86_64::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(C, align(32))]
    pub(crate) struct V8Avx2(pub(crate) [f64; LANES]);

    /// Apply a two-operand `__m256d` intrinsic to both halves.
    macro_rules! lanewise2 {
        ($a:expr, $b:expr, $op:ident) => {{
            let (a, b) = ($a, $b);
            // SAFETY: see the module-level safety invariant (avx2+fma were
            // detected before any value of this type was constructed); the
            // pointers cover the 8-f64 backing arrays.
            unsafe {
                let a0 = _mm256_loadu_pd(a.0.as_ptr());
                let a1 = _mm256_loadu_pd(a.0.as_ptr().add(4));
                let b0 = _mm256_loadu_pd(b.0.as_ptr());
                let b1 = _mm256_loadu_pd(b.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), $op(a0, b0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), $op(a1, b1));
                V8Avx2(out)
            }
        }};
    }

    impl V8Avx2 {
        #[inline(always)]
        fn v_add(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_add_pd)
        }

        #[inline(always)]
        fn v_sub(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_sub_pd)
        }

        #[inline(always)]
        fn v_mul(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_mul_pd)
        }

        #[inline(always)]
        fn v_div(self, o: Self) -> Self {
            lanewise2!(self, o, _mm256_div_pd)
        }

        /// `self * a + b` with one rounding (`vfmadd`).
        #[inline(always)]
        fn v_mul_add(self, a: Self, b: Self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let s0 = _mm256_loadu_pd(self.0.as_ptr());
                let s1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let a0 = _mm256_loadu_pd(a.0.as_ptr());
                let a1 = _mm256_loadu_pd(a.0.as_ptr().add(4));
                let b0 = _mm256_loadu_pd(b.0.as_ptr());
                let b1 = _mm256_loadu_pd(b.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_fmadd_pd(s0, a0, b0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_fmadd_pd(s1, a1, b1));
                V8Avx2(out)
            }
        }

        /// Sign-bit flip (exact, preserves `-0.0` semantics unlike `0-x`).
        #[inline(always)]
        fn v_neg(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let sign = _mm256_set1_pd(-0.0);
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_xor_pd(a0, sign));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_xor_pd(a1, sign));
                V8Avx2(out)
            }
        }

        /// Sign-bit clear.
        #[inline(always)]
        fn v_abs(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let sign = _mm256_set1_pd(-0.0);
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_andnot_pd(sign, a0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_andnot_pd(sign, a1));
                V8Avx2(out)
            }
        }

        #[inline(always)]
        fn v_sqrt(self) -> Self {
            // SAFETY: as for `lanewise2`.
            unsafe {
                let a0 = _mm256_loadu_pd(self.0.as_ptr());
                let a1 = _mm256_loadu_pd(self.0.as_ptr().add(4));
                let mut out = [0.0f64; LANES];
                _mm256_storeu_pd(out.as_mut_ptr(), _mm256_sqrt_pd(a0));
                _mm256_storeu_pd(out.as_mut_ptr().add(4), _mm256_sqrt_pd(a1));
                V8Avx2(out)
            }
        }
    }

    v8_realization!(V8Avx2);
}
#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::V8Avx2;

/// AVX-512F realization: one `__m512d` per value. Compile-probe gated
/// (`cfg(mf_avx512)`, see `build.rs`); runtime opt-in via `MF_SIMD=avx512`.
///
/// # Safety invariant
///
/// As [`V8Avx2`], with `avx512f` in place of `avx2`.
#[cfg(all(target_arch = "x86_64", mf_avx512))]
mod avx512 {
    use super::{fmt, Add, Div, FloatBase, Mul, Neg, Sub, VLane, LANES};
    use core::arch::x86_64::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(C, align(64))]
    pub(crate) struct V8Avx512(pub(crate) [f64; LANES]);

    macro_rules! zmm2 {
        ($a:expr, $b:expr, $op:ident) => {{
            let (a, b) = ($a, $b);
            // SAFETY: see the module-level safety invariant (avx512f+fma
            // were detected before any value of this type was constructed).
            unsafe {
                let va = _mm512_loadu_pd(a.0.as_ptr());
                let vb = _mm512_loadu_pd(b.0.as_ptr());
                let mut out = [0.0f64; LANES];
                _mm512_storeu_pd(out.as_mut_ptr(), $op(va, vb));
                V8Avx512(out)
            }
        }};
    }

    impl V8Avx512 {
        #[inline(always)]
        fn v_add(self, o: Self) -> Self {
            zmm2!(self, o, _mm512_add_pd)
        }

        #[inline(always)]
        fn v_sub(self, o: Self) -> Self {
            zmm2!(self, o, _mm512_sub_pd)
        }

        #[inline(always)]
        fn v_mul(self, o: Self) -> Self {
            zmm2!(self, o, _mm512_mul_pd)
        }

        #[inline(always)]
        fn v_div(self, o: Self) -> Self {
            zmm2!(self, o, _mm512_div_pd)
        }

        #[inline(always)]
        fn v_mul_add(self, a: Self, b: Self) -> Self {
            // SAFETY: as for `zmm2`.
            unsafe {
                let vs = _mm512_loadu_pd(self.0.as_ptr());
                let va = _mm512_loadu_pd(a.0.as_ptr());
                let vb = _mm512_loadu_pd(b.0.as_ptr());
                let mut out = [0.0f64; LANES];
                _mm512_storeu_pd(out.as_mut_ptr(), _mm512_fmadd_pd(vs, va, vb));
                V8Avx512(out)
            }
        }

        /// Sign-bit flip via the integer domain: `_mm512_xor_pd` needs
        /// AVX-512DQ, which the frame does not enable; the `si512` xor is
        /// plain AVX-512F and bit-equivalent.
        #[inline(always)]
        fn v_neg(self) -> Self {
            // SAFETY: as for `zmm2`.
            unsafe {
                let v = _mm512_castpd_si512(_mm512_loadu_pd(self.0.as_ptr()));
                let sign = _mm512_set1_epi64(i64::MIN);
                let mut out = [0.0f64; LANES];
                _mm512_storeu_pd(
                    out.as_mut_ptr(),
                    _mm512_castsi512_pd(_mm512_xor_si512(v, sign)),
                );
                V8Avx512(out)
            }
        }

        #[inline(always)]
        fn v_abs(self) -> Self {
            // SAFETY: as for `zmm2`.
            unsafe {
                let v = _mm512_castpd_si512(_mm512_loadu_pd(self.0.as_ptr()));
                let mag = _mm512_set1_epi64(i64::MAX);
                let mut out = [0.0f64; LANES];
                _mm512_storeu_pd(
                    out.as_mut_ptr(),
                    _mm512_castsi512_pd(_mm512_and_si512(v, mag)),
                );
                V8Avx512(out)
            }
        }

        #[inline(always)]
        fn v_sqrt(self) -> Self {
            // SAFETY: as for `zmm2`.
            unsafe {
                let v = _mm512_loadu_pd(self.0.as_ptr());
                let mut out = [0.0f64; LANES];
                _mm512_storeu_pd(out.as_mut_ptr(), _mm512_sqrt_pd(v));
                V8Avx512(out)
            }
        }
    }

    v8_realization!(V8Avx512);
}
#[cfg(all(target_arch = "x86_64", mf_avx512))]
pub(crate) use avx512::V8Avx512;

/// NEON realization: four `float64x2_t` per value. NEON is part of the
/// aarch64 baseline, so no runtime detection or `#[target_feature]` frame
/// is needed — the intrinsics are statically available.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{fmt, Add, Div, FloatBase, Mul, Neg, Sub, VLane, LANES};
    use core::arch::aarch64::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(C, align(16))]
    pub(crate) struct V8Neon(pub(crate) [f64; LANES]);

    macro_rules! neon2 {
        ($a:expr, $b:expr, $op:ident) => {{
            let (a, b) = ($a, $b);
            let mut out = [0.0f64; LANES];
            // SAFETY: pointer loads/stores cover the 8-f64 backing arrays;
            // the arithmetic intrinsics are baseline NEON on aarch64.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    let vb = vld1q_f64(b.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), $op(va, vb));
                }
            }
            V8Neon(out)
        }};
    }

    macro_rules! neon1 {
        ($a:expr, $op:ident) => {{
            let a = $a;
            let mut out = [0.0f64; LANES];
            // SAFETY: as for `neon2`.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), $op(va));
                }
            }
            V8Neon(out)
        }};
    }

    impl V8Neon {
        #[inline(always)]
        fn v_add(self, o: Self) -> Self {
            neon2!(self, o, vaddq_f64)
        }

        #[inline(always)]
        fn v_sub(self, o: Self) -> Self {
            neon2!(self, o, vsubq_f64)
        }

        #[inline(always)]
        fn v_mul(self, o: Self) -> Self {
            neon2!(self, o, vmulq_f64)
        }

        #[inline(always)]
        fn v_div(self, o: Self) -> Self {
            neon2!(self, o, vdivq_f64)
        }

        /// `self * a + b`: `vfmaq_f64(acc, x, y)` computes `acc + x * y`
        /// fused, so the accumulator argument is `b`.
        #[inline(always)]
        fn v_mul_add(self, a: Self, b: Self) -> Self {
            let mut out = [0.0f64; LANES];
            // SAFETY: as for `neon2`.
            #[allow(unused_unsafe)]
            unsafe {
                for q in 0..4 {
                    let vs = vld1q_f64(self.0.as_ptr().add(2 * q));
                    let va = vld1q_f64(a.0.as_ptr().add(2 * q));
                    let vb = vld1q_f64(b.0.as_ptr().add(2 * q));
                    vst1q_f64(out.as_mut_ptr().add(2 * q), vfmaq_f64(vb, vs, va));
                }
            }
            V8Neon(out)
        }

        #[inline(always)]
        fn v_neg(self) -> Self {
            neon1!(self, vnegq_f64)
        }

        #[inline(always)]
        fn v_abs(self) -> Self {
            neon1!(self, vabsq_f64)
        }

        #[inline(always)]
        fn v_sqrt(self) -> Self {
            neon1!(self, vsqrtq_f64)
        }
    }

    v8_realization!(V8Neon);
}
#[cfg(target_arch = "aarch64")]
pub(crate) use neon::V8Neon;

// ---------------------------------------------------------------------------
// The frame ladder: one `#[target_feature]` frame per realization
// ---------------------------------------------------------------------------

/// The AVX2+FMA frame. Everything inlined into it is compiled with those
/// features, so the `v_*` intrinsics become bare instructions, LLVM keeps
/// the plain-array lane storage in registers across the inlined networks,
/// and the EFT `mul_add`s lower to `vfmadd`.
///
/// # Safety
///
/// Caller must ensure the `avx2` and `fma` CPU features are present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_frame<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The AVX-512F+FMA frame, as [`avx2_frame`].
///
/// # Safety
///
/// Caller must ensure the `avx512f` and `fma` CPU features are present.
#[cfg(all(target_arch = "x86_64", mf_avx512))]
#[target_feature(enable = "avx512f,fma")]
unsafe fn avx512_frame<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Run a scalar body (no lane type) inside the AVX2+FMA frame when
/// [`active`] is an x86 vector ISA, and as portable code otherwise. Its
/// `mul_add`s then lower to `vfmadd`; both lowerings are correctly rounded,
/// so the bits do not change. Pass `#[inline(always)] || body(..)` (module
/// docs).
///
/// Public so that downstream crates enter the same frame instead of
/// declaring their own `#[target_feature]`: `mf_solve::lu_factor` runs
/// its blocked `f64` factorization here. A body with no `mul_add` still
/// gains the frame's 256-bit vectorization; plain `*` and `-` are never
/// contracted, so its bits do not change either.
#[inline(always)]
pub fn fma_frame<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if fma_frame_allowed() {
        // SAFETY: `fma_frame_allowed` holds only for ISA selections whose
        // avx2+fma features were runtime-detected.
        return unsafe { avx2_frame(f) };
    }
    f()
}

/// A kernel body generic over the lane realization `V`, run by
/// [`on_isa`]. `run` must be `#[inline(always)]` so the body lands inside
/// the realization's frame.
pub(crate) trait LaneKernel {
    type Out;
    fn run<V: VLane<f64>>(self) -> Self::Out;
}

/// Run `k` on the realization `isa`: the portable [`Lanes`] for
/// `Isa::Scalar`, else the ISA's vector type inside its frame (NEON is
/// baseline on aarch64 and needs none). `isa` must be
/// [`Isa::supported`], which [`active`] and [`force`] guarantee.
#[inline(always)]
pub(crate) fn on_isa<K: LaneKernel>(isa: Isa, k: K) -> K::Out {
    debug_assert!(isa.supported());
    match isa {
        Isa::Scalar => k.run::<Lanes<f64, LANES>>(),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.supported()` established avx2+fma via runtime
        // detection.
        Isa::Avx2 => unsafe {
            avx2_frame(
                #[inline(always)]
                || k.run::<V8Avx2>(),
            )
        },
        #[cfg(all(target_arch = "x86_64", mf_avx512))]
        // SAFETY: as above, with avx512f+fma.
        Isa::Avx512 => unsafe {
            avx512_frame(
                #[inline(always)]
                || k.run::<V8Avx512>(),
            )
        },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => k.run::<V8Neon>(),
        #[allow(unreachable_patterns)]
        other => unreachable!("on_isa: {other} not compiled into this build"),
    }
}

// ---------------------------------------------------------------------------
// Generic kernel bodies (one source, instantiated per realization)
// ---------------------------------------------------------------------------

/// The lock-step DOT body, the one source of every realization: 8-lane
/// chunks through the generic mul/add FPANs, a ceil-half tree reduction
/// over the extracted scalar expansions, then a scalar tail. The reduction
/// structure is what fixes the bits; only the realization of the lane
/// arithmetic varies.
#[inline(always)]
fn dot_lockstep_body<T: FloatBase, V: VLane<T>, const N: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    let xs: [&[T]; N] = core::array::from_fn(|k| &xc[k][xoff..xoff + n]);
    let ys: [&[T]; N] = core::array::from_fn(|k| &yc[k][yoff..yoff + n]);
    let mut acc: [V; N] = [V::ZERO; N];
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let xi: [V; N] = core::array::from_fn(|k| vload(&xs[k][base..]));
        let yi: [V; N] = core::array::from_fn(|k| vload(&ys[k][base..]));
        let p = multiplication::mul(&xi, &yi);
        acc = addition::add(&acc, &p);
    }
    // Extract the lanes and tree-reduce with the scalar FPANs. Lane l
    // pairs with lane l + ceil(width/2); an odd top lane rides down to the
    // next round unpaired.
    let mut lanes_out: [[T; N]; LANES] = [[T::ZERO; N]; LANES];
    for (k, a) in acc.iter().enumerate() {
        let arr = a.to_array();
        for l in 0..LANES {
            lanes_out[l][k] = arr[l];
        }
    }
    let mut width = LANES;
    while width > 1 {
        let half = width.div_ceil(2);
        for l in 0..width / 2 {
            lanes_out[l] = addition::add(&lanes_out[l], &lanes_out[l + half]);
        }
        width = half;
    }
    // Scalar tail: reductions are association-order sensitive, so the tail
    // must stay serial to keep the bits of the 8-lane structure.
    let mut total = lanes_out[0];
    for i in chunks * LANES..n {
        let xi: [T; N] = core::array::from_fn(|k| xs[k][i]);
        let yi: [T; N] = core::array::from_fn(|k| ys[k][i]);
        let p = multiplication::mul(&xi, &yi);
        total = addition::add(&total, &p);
    }
    MultiFloat::from_components(total)
}

/// The SoA DOT body over `f64` components as a [`LaneKernel`]: the
/// arguments `(xc, xoff, yc, yoff, n)` of [`dot_lockstep`].
struct DotLockstep<'a, const N: usize>(&'a [Vec<f64>], usize, &'a [Vec<f64>], usize, usize);

impl<const N: usize> LaneKernel for DotLockstep<'_, N> {
    type Out = MultiFloat<f64, N>;

    #[inline(always)]
    fn run<V: VLane<f64>>(self) -> MultiFloat<f64, N> {
        let DotLockstep(xc, xoff, yc, yoff, n) = self;
        dot_lockstep_body::<f64, V, N>(xc, xoff, yc, yoff, n)
    }
}

// ---------------------------------------------------------------------------
// Dispatch: the active realization for f64, the portable lanes otherwise
// ---------------------------------------------------------------------------

#[inline(always)]
fn is_f64<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>()
}

/// Reinterpret `&[Vec<T>]` as `&[Vec<f64>]`. Caller must have checked
/// [`is_f64::<T>()`].
#[inline(always)]
fn comps_as_f64<T: FloatBase>(c: &[Vec<T>]) -> &[Vec<f64>] {
    debug_assert!(is_f64::<T>());
    // SAFETY: `T` and `f64` are the same monomorphic type (TypeId equality
    // of two `'static` types), so this is the identity reinterpretation.
    unsafe { &*(c as *const [Vec<T>] as *const [Vec<f64>]) }
}

#[inline(always)]
fn mf_from_f64<T: FloatBase, const N: usize>(v: MultiFloat<f64, N>) -> MultiFloat<T, N> {
    debug_assert!(is_f64::<T>());
    // SAFETY: `T == f64` (checked by the caller), so source and target are
    // the same type; `transmute_copy` of a `Copy` value is the identity.
    unsafe { core::mem::transmute_copy(&v) }
}

/// Reinterpret `&[MultiFloat<T, N>]` as `&[MultiFloat<f64, N>]`. Caller
/// must have checked [`is_f64::<T>()`].
#[inline(always)]
fn mf_slice_as_f64<T: FloatBase, const N: usize>(s: &[MultiFloat<T, N>]) -> &[MultiFloat<f64, N>] {
    debug_assert!(is_f64::<T>());
    // SAFETY: as for `comps_as_f64`: `T == f64`, so this is the identity.
    unsafe { &*(s as *const [MultiFloat<T, N>] as *const [MultiFloat<f64, N>]) }
}

/// Lock-step DOT of `x[xoff..xoff + n]` and `y[yoff..yoff + n]` over SoA
/// component vectors on the portable [`Lanes`] realization, compiled
/// without intrinsics: the reference every realization must match bit for
/// bit.
pub fn dot_lockstep_portable<T: FloatBase, const N: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    dot_lockstep_body::<T, Lanes<T, LANES>, N>(xc, xoff, yc, yoff, n)
}

/// Run the DOT body at an explicit realization (test hook: the forced-ISA
/// bit-identity tests call each supported realization directly without
/// flipping the process-global selection).
pub(crate) fn dot_f64_at<const N: usize>(
    isa: Isa,
    xc: &[Vec<f64>],
    xoff: usize,
    yc: &[Vec<f64>],
    yoff: usize,
    n: usize,
) -> MultiFloat<f64, N> {
    on_isa(isa, DotLockstep(xc, xoff, yc, yoff, n))
}

/// Lock-step DOT over SoA component vectors (see
/// [`dot_lockstep_portable`]): `f64` runs on the [`active`] realization,
/// every other base on the portable lanes. Bit-identical to
/// [`dot_lockstep_portable`] either way. Under `Isa::Scalar` an `f64` call
/// still goes through the cast layer, which keeps the whole dispatch
/// surface (TypeId check, slice reinterpretation) exercised under Miri.
#[inline]
pub fn dot_lockstep<T: FloatBase, const N: usize>(
    xc: &[Vec<T>],
    xoff: usize,
    yc: &[Vec<T>],
    yoff: usize,
    n: usize,
) -> MultiFloat<T, N> {
    if !is_f64::<T>() {
        return dot_lockstep_portable::<T, N>(xc, xoff, yc, yoff, n);
    }
    let r = dot_f64_at::<N>(active(), comps_as_f64(xc), xoff, comps_as_f64(yc), yoff, n);
    mf_from_f64(r)
}

// ---------------------------------------------------------------------------
// AoS row engine: eight GEMV rows in lock-step
// ---------------------------------------------------------------------------

/// How one matrix or vector element enters the row engine: the `N` `f64`
/// components of its `MultiFloat<f64, N>` value.
pub trait RowElem<const N: usize>: Copy {
    fn row_comps(self) -> [f64; N];
}

impl<const N: usize> RowElem<N> for MultiFloat<f64, N> {
    #[inline(always)]
    fn row_comps(self) -> [f64; N] {
        self.components()
    }
}

/// A plain `f64` widens to `[a, 0, …]` (`MultiFloat::from(a)`), so `f64`
/// operands are read in place, with no `N`-wide copy of them.
impl<const N: usize> RowElem<N> for f64 {
    #[inline(always)]
    fn row_comps(self) -> [f64; N] {
        let mut c = [0.0; N];
        c[0] = self;
        c
    }
}

/// Rows `i0..i0 + live` (`live <= LANES`) of `A·x`, one row per lane, as
/// a [`LaneKernel`] over `(a, cols, i0, live, x)`. Each lane runs the serial chain of `kernels::dot`,
/// `acc = acc + a_ij·x_j` for `j = 0..cols` through the same `mul`/`add`
/// networks, so every lane's bits are its row's serial bits. Lanes past
/// `live` hold zero rows and their results are discarded.
struct Rows8<'a, E, F, const N: usize>(&'a [E], usize, usize, usize, &'a [F]);

impl<E: RowElem<N>, F: RowElem<N>, const N: usize> LaneKernel for Rows8<'_, E, F, N> {
    type Out = [[f64; N]; LANES];

    #[inline(always)]
    fn run<V: VLane<f64>>(self) -> [[f64; N]; LANES] {
        let Rows8(a, cols, i0, live, x) = self;
        let rows = &a[i0 * cols..(i0 + live) * cols];
        let mut acc = [V::ZERO; N];
        for (j, &xj) in x.iter().enumerate() {
            let mut g = [[0.0f64; LANES]; N];
            for l in 0..LANES {
                let c = if l < live {
                    rows[l * cols + j].row_comps()
                } else {
                    [0.0; N]
                };
                for k in 0..N {
                    g[k][l] = c[k];
                }
            }
            let aj: [V; N] = core::array::from_fn(|k| V::from_array(g[k]));
            let xc = xj.row_comps();
            let xv: [V; N] = core::array::from_fn(|k| V::from_array([xc[k]; LANES]));
            let p = multiplication::mul(&aj, &xv);
            acc = addition::add(&acc, &p);
        }
        let mut out = [[0.0f64; N]; LANES];
        for (k, v) in acc.iter().enumerate() {
            for (l, c) in v.to_array().into_iter().enumerate() {
                out[l][k] = c;
            }
        }
        out
    }
}

/// One group of rows through the realization `isa`. Not generic over the
/// caller's `emit`, so each `(E, N)` compiles the group bodies once.
#[inline(never)]
fn dot_rows8_at<E: RowElem<N>, F: RowElem<N>, const N: usize>(
    isa: Isa,
    a: &[E],
    cols: usize,
    i0: usize,
    live: usize,
    x: &[F],
) -> [[f64; N]; LANES] {
    on_isa(isa, Rows8::<E, F, N>(a, cols, i0, live, x))
}

/// Run the row engine at an explicit realization: `emit(i, row_i · x)`
/// for every `i` in `rows` of the row-major `a` (`cols` wide), in
/// ascending order. No accounting and no audit draw (the callers own
/// both).
pub(crate) fn dot_rows_at<E: RowElem<N>, F: RowElem<N>, const N: usize>(
    isa: Isa,
    a: &[E],
    cols: usize,
    rows: Range<usize>,
    x: &[F],
    mut emit: impl FnMut(usize, MultiFloat<f64, N>),
) {
    debug_assert!(isa.supported());
    assert_eq!(
        x.len(),
        cols,
        "row engine: x has {} elements, rows {cols}",
        x.len()
    );
    assert!(
        a.len() >= rows.end * cols,
        "row engine: rows past the matrix"
    );
    let mut i0 = rows.start;
    while i0 < rows.end {
        let live = (rows.end - i0).min(LANES);
        let out = dot_rows8_at(isa, a, cols, i0, live, x);
        for (l, &c) in out.iter().take(live).enumerate() {
            emit(i0 + l, MultiFloat::from_components(c));
        }
        i0 += live;
    }
}

/// The row engine over a whole matrix: `emit(i, a.row(i) · x)` for every
/// row, in ascending order, on the active realization. Row `i`'s value is
/// bit-identical to `kernels::dot` of that row and `x`, both widened to
/// `MultiFloat<f64, N>`, whatever the ISA, for any row count.
///
/// `a` and `x` may hold `f64` entries ([`RowElem`]): they are widened as
/// they are read, so an extended residual reads its `f64` operands in
/// place. Like every row-engine caller, one call reports its
/// `(rows·cols, rows·cols)` mul-adds once and makes one shadow-oracle
/// draw, the sampled product submitted as class `dot`.
pub fn dot_rows<E: RowElem<N>, F: RowElem<N>, const N: usize>(
    a: &Matrix<E>,
    x: &[F],
    emit: impl FnMut(usize, MultiFloat<f64, N>),
) {
    let ops = a.rows * a.cols;
    <MultiFloat<f64, N> as crate::Scalar>::s_record_ops(ops, ops);
    crate::kernels::audit_rows(a.rows, a.cols, |i, j| {
        let aij = a.data[i * a.cols + j].row_comps();
        (
            MultiFloat::<f64, N>::from_components(aij),
            MultiFloat::from_components(x[j].row_comps()),
        )
    });
    dot_rows_at(active(), &a.data, a.cols, 0..a.rows, x, emit);
}

/// `MultiFloat<T, N>` specialization of [`crate::Scalar::s_dot_rows`]:
/// runs `rows` on the row engine and returns `true` when `T` is `f64`;
/// `false` (nothing run) otherwise.
#[inline]
pub(crate) fn try_dot_rows_mf<T: FloatBase, const N: usize>(
    a: &Matrix<MultiFloat<T, N>>,
    x: &[MultiFloat<T, N>],
    rows: Range<usize>,
    emit: &mut impl FnMut(usize, MultiFloat<T, N>),
) -> bool {
    if !is_f64::<T>() {
        return false;
    }
    dot_rows_at(
        active(),
        mf_slice_as_f64(&a.data),
        a.cols,
        rows,
        mf_slice_as_f64(x),
        |i, v| emit(i, mf_from_f64(v)),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaVec;
    use mf_core::{F64x2, F64x3};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The realizations this build can actually execute. Under Miri only
    /// the portable one: Miri cannot run the host-dispatched
    /// `#[target_feature]` intrinsic frames.
    fn runnable_isas() -> Vec<Isa> {
        if cfg!(miri) {
            return [Isa::Scalar].to_vec();
        }
        Isa::ALL.iter().copied().filter(|i| i.supported()).collect()
    }

    fn soa_pair(seed: u64, n: usize) -> (SoaVec<f64, 3>, SoaVec<f64, 3>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mk = || -> Vec<F64x3> {
            (0..n)
                .map(|_| {
                    F64x3::from(rng.gen_range(-1.0..1.0f64))
                        .mul(F64x3::from(1.0 + rng.gen_range(-1e-14..1e-14)))
                })
                .collect()
        };
        let xs = mk();
        let ys = mk();
        (SoaVec::from_slice(&xs), SoaVec::from_slice(&ys))
    }

    #[test]
    fn isa_parse_and_supported() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("sse9"), None);
        assert_eq!(
            Isa::parse("auto"),
            None,
            "auto resolves in active(), not parse()"
        );
        assert!(Isa::Scalar.supported(), "scalar runs everywhere");
    }

    /// With small-integer inputs every summation order is exact, so a lane
    /// the tree reduction dropped, or a tail element it skipped, shifts the
    /// result by a whole integer. Checked against the serial AoS kernel for
    /// `f64` (active realization) and `f32` (portable lanes), across full
    /// lane blocks, tails and the empty input.
    #[test]
    fn dot_lockstep_sums_every_lane_and_tail() {
        fn check<T: FloatBase>(seed: u64) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for n in [0, 1, LANES - 1, LANES, 2 * LANES, 6 * LANES - 1, 64] {
                let mut ints = |n: usize| -> Vec<MultiFloat<T, 4>> {
                    (0..n)
                        .map(|_| MultiFloat::from(rng.gen_range(-64..64i32) as f64))
                        .collect()
                };
                let (x, y) = (ints(n), ints(n));
                let (sx, sy) = (SoaVec::from_slice(&x), SoaVec::from_slice(&y));
                let got = dot_lockstep::<T, 4>(&sx.comps, 0, &sy.comps, 0, n);
                let want = crate::kernels::dot(&x, &y);
                assert_eq!(got.components(), want.components(), "n={n}");
            }
        }
        check::<f64>(1704);
        check::<f32>(1705);
    }

    /// Every runnable realization, and the dispatched entry point `soa.rs`
    /// calls (whatever `MF_SIMD` selected for this process), must produce
    /// the same bits as the portable one across sizes straddling the lane
    /// width (tails shorter than L included).
    #[test]
    fn all_runnable_isas_bit_identical() {
        for n in [0usize, 1, 5, 8, 13, 16, 64, 201] {
            let (sx, sy) = soa_pair(0x15A + n as u64, n);
            let want = dot_lockstep_portable::<f64, 3>(&sx.comps, 0, &sy.comps, 0, n);
            let got = dot_lockstep::<f64, 3>(&sx.comps, 0, &sy.comps, 0, n);
            assert_eq!(got.components(), want.components(), "dispatched n={n}");
            for isa in runnable_isas() {
                let got = dot_f64_at::<3>(isa, &sx.comps, 0, &sy.comps, 0, n);
                assert_eq!(got.components(), want.components(), "dot {isa} n={n}");
            }
        }
    }

    /// Subnormal heads: lane arithmetic must not flush to zero anywhere
    /// (no FTZ/DAZ in any realization) and must stay bit-identical.
    #[test]
    fn subnormal_heads_bit_identical_across_isas() {
        let n = 19;
        let mut rng = SmallRng::seed_from_u64(0x5AB);
        let xs: Vec<F64x2> = (0..n)
            .map(|i| {
                let head = f64::MIN_POSITIVE * 2.0f64.powi(-(i as i32 % 40)) / 3.0;
                F64x2::from(head * if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 })
            })
            .collect();
        let ys: Vec<F64x2> = (0..n)
            .map(|_| {
                let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                F64x2::from(sign * rng.gen_range(0.5..1.0f64))
            })
            .collect();
        let sx = SoaVec::from_slice(&xs);
        let sy = SoaVec::from_slice(&ys);
        let want = dot_f64_at::<2>(Isa::Scalar, &sx.comps, 0, &sy.comps, 0, n);
        for isa in runnable_isas() {
            let got = dot_f64_at::<2>(isa, &sx.comps, 0, &sy.comps, 0, n);
            assert_eq!(got.components(), want.components(), "{isa}");
            assert!(!got.is_zero(), "{isa}: subnormal product flushed to zero");
        }
    }

    /// A full-precision random expansion: every component carries bits.
    fn rand_mf<const N: usize>(rng: &mut SmallRng) -> MultiFloat<f64, N> {
        MultiFloat::from_components_renorm(core::array::from_fn(|k| {
            rng.gen_range(-1.0..1.0f64) * 2f64.powi(-53 * k as i32)
        }))
    }

    /// The serial reference of the row engine: `kernels::dot_body` over
    /// each row widened to `MultiFloat<f64, N>` by `widen`.
    fn serial_rows<E: Copy, const N: usize>(
        a: &[E],
        cols: usize,
        rows: usize,
        x: &[MultiFloat<f64, N>],
        widen: impl Fn(E) -> MultiFloat<f64, N>,
    ) -> Vec<MultiFloat<f64, N>> {
        (0..rows)
            .map(|i| {
                let row: Vec<MultiFloat<f64, N>> = a[i * cols..(i + 1) * cols]
                    .iter()
                    .map(|&e| widen(e))
                    .collect();
                crate::kernels::dot_body(&row, x)
            })
            .collect()
    }

    /// Run the engine at `isa` and check it emits every row once, in
    /// order, with the reference's bits.
    fn assert_rows_match<E: RowElem<N>, F: RowElem<N>, const N: usize>(
        isa: Isa,
        a: &[E],
        cols: usize,
        x: &[F],
        want: &[MultiFloat<f64, N>],
        what: &str,
    ) {
        let mut next = 0;
        dot_rows_at(isa, a, cols, 0..want.len(), x, |i, v| {
            assert_eq!(i, next, "{what} {isa}: row order");
            let bits = |m: MultiFloat<f64, N>| m.components().map(f64::to_bits);
            assert_eq!(bits(v), bits(want[i]), "{what} {isa}: row {i}");
            next += 1;
        });
        assert_eq!(next, want.len(), "{what} {isa}: rows emitted");
    }

    fn row_engine_case<const N: usize>() {
        // Miri runs the portable realization only, on the smaller shapes.
        let (rows_set, cols_set): (&[usize], &[usize]) = if cfg!(miri) {
            (&[0, 1, 7, 8, 9, 17], &[0, 1, 9])
        } else {
            (&[0, 1, 7, 8, 9, 17, 192], &[0, 1, 9, 64])
        };
        for &rows in rows_set {
            for &cols in cols_set {
                let mut rng = SmallRng::seed_from_u64((N * 1000 + rows * 100 + cols) as u64);
                let a: Vec<MultiFloat<f64, N>> =
                    (0..rows * cols).map(|_| rand_mf(&mut rng)).collect();
                let af: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x: Vec<MultiFloat<f64, N>> = (0..cols).map(|_| rand_mf(&mut rng)).collect();
                let want = serial_rows(&a, cols, rows, &x, |e| e);
                let want_f = serial_rows(&af, cols, rows, &x, MultiFloat::from);
                let xf: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let xw: Vec<MultiFloat<f64, N>> = xf.iter().map(|&v| MultiFloat::from(v)).collect();
                let want_ff = serial_rows(&af, cols, rows, &xw, MultiFloat::from);
                for isa in runnable_isas() {
                    let what = format!("N={N} {rows}x{cols}");
                    assert_rows_match(isa, &a, cols, &x, &want, &what);
                    assert_rows_match(isa, &af, cols, &x, &want_f, &format!("f64 A {what}"));
                    assert_rows_match(isa, &af, cols, &xf, &want_ff, &format!("f64 A, x {what}"));
                }
            }
        }
    }

    /// The row engine is bit-identical to the serial per-row `dot_body`
    /// chain at every width, realization and row count (full groups of
    /// eight, tails, no rows), for `MultiFloat` and in-place `f64` rows.
    #[test]
    fn row_engine_bit_identical_to_serial_rows() {
        row_engine_case::<1>();
        row_engine_case::<2>();
        row_engine_case::<3>();
        row_engine_case::<4>();
    }

    /// Rows of unrelated magnitudes share a group: one row's heads cancel
    /// exactly while its neighbours are 2^-100 smaller. Each lane meets
    /// `FastTwoSum`'s precondition on its own, so debug builds must not
    /// trip it, and the bits still match the serial rows.
    #[test]
    fn row_engine_mixed_row_magnitudes() {
        let cols = 4;
        let a: Vec<F64x2> = (0..LANES * cols)
            .map(|e| {
                let (l, j) = (e / cols, e % cols);
                if l == 0 {
                    F64x2::from([1.0, -1.0, 1e-3, 0.0][j])
                } else {
                    F64x2::from(2f64.powi(-100) * (l + j) as f64)
                }
            })
            .collect();
        let x: Vec<F64x2> = (0..cols)
            .map(|j| F64x2::from_components_renorm([1.0, 1e-17 * (j + 1) as f64]))
            .collect();
        let want = serial_rows(&a, cols, LANES, &x, |e| e);
        for isa in runnable_isas() {
            assert_rows_match(isa, &a, cols, &x, &want, "mixed magnitudes");
        }
    }

    /// Non-finite `x` entries turn the zero-padded tail lanes into NaN
    /// (`0 · inf`). Those lanes are discarded, and they must not trip a
    /// debug assert or leak into real rows. Compared structurally, as in
    /// `nan_inf_lanes_stay_lanewise`.
    #[test]
    fn row_engine_non_finite_x_stays_in_its_rows() {
        let (rows, cols) = (LANES + 1, 5);
        let mut rng = SmallRng::seed_from_u64(0x1BF);
        let a: Vec<F64x2> = (0..rows * cols).map(|_| rand_mf(&mut rng)).collect();
        let mut x: Vec<F64x2> = (0..cols).map(|_| rand_mf(&mut rng)).collect();
        x[1] = F64x2::from(f64::INFINITY);
        x[3] = F64x2::from(f64::NAN);
        let want = serial_rows(&a, cols, rows, &x, |e| e);
        for isa in runnable_isas() {
            dot_rows_at(isa, &a, cols, 0..rows, &x, |i, v| {
                for (g, w) in v.components().iter().zip(want[i].components()) {
                    assert_eq!(g.is_nan(), w.is_nan(), "{isa}: row {i}");
                    if !w.is_nan() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{isa}: row {i}");
                    }
                }
            });
        }
    }

    /// The `Scalar::s_dot_rows` hook reaches the engine through the
    /// `MultiFloat<f64, N>` cast layer (any row range), and `f32` bases
    /// decline it and keep the serial loop.
    #[test]
    fn scalar_hook_routes_f64_rows_and_declines_f32() {
        use crate::Scalar;
        let mut rng = SmallRng::seed_from_u64(0x0A05);
        let (rows, cols) = (LANES + 5, 11);
        let a = Matrix::from_fn(rows, cols, |_, _| rand_mf::<3>(&mut rng));
        let x: Vec<F64x3> = (0..cols).map(|_| rand_mf(&mut rng)).collect();
        let want = serial_rows(&a.data, cols, rows, &x, |e| e);
        let mut seen = Vec::new();
        F64x3::s_dot_rows(&a, &x, 3..rows, |i, v| seen.push((i, v)));
        assert_eq!(seen.len(), rows - 3);
        for (i, v) in seen {
            assert_eq!(v.components(), want[i].components(), "row {i}");
        }

        let af = Matrix::from_fn(2, 8, |i, j| MultiFloat::<f32, 2>::from((i + j) as f32));
        let xf = vec![MultiFloat::<f32, 2>::from(1.5f32); 8];
        let mut called = false;
        assert!(!try_dot_rows_mf(&af, &xf, 0..2, &mut |_, _| called = true));
        assert!(!called, "declined dispatch must not emit");
    }
}
