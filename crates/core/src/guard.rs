//! Guarded evaluation: collapse-regime detectors with an oracle fallback
//! recovery path.
//!
//! The division and square-root kernels are range-safe (they shift
//! out-of-window operands by exact powers of two, see [`crate::division`]),
//! but the addition and multiplication networks still collapse in two
//! regimes the conformance harness documents:
//!
//! 1. **Top-binade sums** — an `add`/`sub` operand head at or above
//!    `2^MAX_EXP`: the error-free sums round past `MAX` and the NaN of
//!    `inf - inf` cascades through every gate, even when the true sum is
//!    representable.
//! 2. **Product range** — a `mul` whose product head is near overflow, or
//!    low enough that the expansion's tail products flush to zero.
//!
//! The detectors here are *branch-free-friendly*: each pre-condition is a
//! handful of integer exponent compares combined with bitwise or, so a
//! vectorized caller can evaluate them across a lane without reintroducing
//! data-dependent control flow on the hot path. Only the (rare) recovery
//! path branches. Post-conditions apply to every operation: a non-finite
//! result from finite inputs, a noncanonical expansion, and a result head
//! that strays more than `2^-RESIDUAL_TOL_BITS` from a naive base-precision
//! evaluation of the same operation (`a+b` vs `r`, `q·b` vs `a`, `s·s` vs
//! `a`, …).
//!
//! [`GuardPolicy`] selects what a detection does: [`GuardPolicy::FastOnly`]
//! reports it and ships the kernel's result, and
//! [`GuardPolicy::OracleFallback`] recomputes the operation exactly and
//! rounds once. Sums and products are exact sums of base-format products,
//! accumulated in an [`mf_mpsoft::LongAccumulator`] as mf-blas's exact rung
//! does; quotients and roots go through [`MpFloat`] at
//! `max(N, 4)·(P+1)+64` bits. This is the cheap-common-case /
//! exact-rare-case shape of de Fine Licht et al.: clean operands pay the
//! detector cost only, a detection pays for the exact evaluation. It is the
//! one scalar recovery path; mf-blas and mf-solve escalate whole chunks and
//! residuals on their own ladders (see [`crate::adaptive`]).
//!
//! Special values (§4.4) bypass detection and recovery: non-finite
//! operands, division by zero, `recip(0)` and the square root of a
//! negative value or of zero ship the kernel's documented result.
//!
//! Every checked operation returns a [`Guarded`] value carrying the result,
//! the [`GuardPath`] that produced it, and the [`GuardFlags`] raised by the
//! detectors, and feeds `core.guard.*` telemetry counters so fleet-wide
//! fallback rates land in run manifests.

use crate::{FloatBase, MultiFloat};
use mf_mpsoft::{LongAccumulator, MpFloat};
use mf_telemetry::audit::{self, OpClass};
use mf_telemetry::Counter;

static GUARD_CHECKS: Counter = Counter::new("core.guard.checks");
static GUARD_PRE_DETECTED: Counter = Counter::new("core.guard.pre_detected");
static GUARD_POST_DETECTED: Counter = Counter::new("core.guard.post_detected");
static GUARD_ORACLE_FALLBACKS: Counter = Counter::new("core.guard.oracle_fallbacks");
// Per-flag and per-policy trip breakdown for the live observability hub:
// scraping two snapshots and dividing the counter deltas by the
// `core.guard.checks` delta gives trip/recovery *rates* by flag and policy.
static GUARD_FLAG_PRE_RANGE: Counter = Counter::new("core.guard.flag.pre_range");
static GUARD_FLAG_POST_NONFINITE: Counter = Counter::new("core.guard.flag.post_nonfinite");
static GUARD_FLAG_POST_NONCANONICAL: Counter = Counter::new("core.guard.flag.post_noncanonical");
static GUARD_FLAG_POST_RESIDUAL: Counter = Counter::new("core.guard.flag.post_residual");
static GUARD_FAST_ONLY_TRIPS: Counter = Counter::new("core.guard.trips.fast_only");

#[inline]
fn record(c: &'static Counter) {
    if mf_telemetry::ENABLED {
        c.incr();
    }
}

/// Per-flag trip accounting: one increment per guarded operation per flag
/// raised (final flag set, recovery outcomes included).
#[inline]
fn record_flags(flags: GuardFlags) {
    if !mf_telemetry::ENABLED || !flags.any() {
        return;
    }
    if flags.contains(GuardFlags::PRE_RANGE) {
        GUARD_FLAG_PRE_RANGE.incr();
    }
    if flags.contains(GuardFlags::POST_NONFINITE) {
        GUARD_FLAG_POST_NONFINITE.incr();
    }
    if flags.contains(GuardFlags::POST_NONCANONICAL) {
        GUARD_FLAG_POST_NONCANONICAL.incr();
    }
    if flags.contains(GuardFlags::POST_RESIDUAL) {
        GUARD_FLAG_POST_RESIDUAL.incr();
    }
}

/// Head-residual tolerance in bits: [`GuardFlags::POST_RESIDUAL`] fires when
/// a result head strays from a naive base-precision evaluation of the same
/// operation by more than `2^-RESIDUAL_TOL_BITS` of the operation's
/// magnitude scale. Clean results sit near `2^-(P-1)`, far inside the
/// bound, so it fires only on corrupted or collapsed heads. The default
/// `tol_bits` of [`crate::EscalationPolicy`] reads it too.
pub const RESIDUAL_TOL_BITS: u32 = 40;

/// What to do when a detector flags an operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Run only the branch-free kernel (today's behavior). Detectors still
    /// evaluate and report through [`GuardFlags`] and telemetry, but the
    /// result is whatever the fast path produced — possibly collapsed.
    #[default]
    FastOnly,
    /// Recompute a flagged operation exactly and round once (see the
    /// module docs).
    OracleFallback,
}

/// Which evaluation path produced a [`Guarded`] result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardPath {
    /// The unmodified branch-free kernel.
    Fast,
    /// The exact oracle recomputation.
    Oracle,
}

impl core::fmt::Display for GuardPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            GuardPath::Fast => "fast",
            GuardPath::Oracle => "oracle",
        })
    }
}

/// Bit-set of detector findings for one guarded operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardFlags(u8);

impl GuardFlags {
    /// No detector fired.
    pub const NONE: Self = GuardFlags(0);
    /// Pre-condition: an operand exponent sits in a documented collapse
    /// regime (an add/sub head at the top binade, a product head near
    /// overflow or low enough that its tail products flush).
    pub const PRE_RANGE: Self = GuardFlags(1);
    /// Post-condition: a non-finite component was produced from finite
    /// inputs.
    pub const POST_NONFINITE: Self = GuardFlags(1 << 1);
    /// Post-condition: the output expansion violates the nonoverlapping
    /// canonical form.
    pub const POST_NONCANONICAL: Self = GuardFlags(1 << 2);
    /// Post-condition: the result head strays more than
    /// `2^-`[`RESIDUAL_TOL_BITS`] from a naive base-precision evaluation of
    /// the same operation.
    pub const POST_RESIDUAL: Self = GuardFlags(1 << 3);

    /// True if any detector fired.
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// The raw bit-set (for telemetry span args and log lines).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True if every bit of `other` is set in `self`.
    pub fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    fn set(&mut self, other: Self) {
        self.0 |= other.0;
    }
}

/// A guarded result: the value plus provenance.
#[derive(Clone, Copy, Debug)]
pub struct Guarded<V> {
    /// The operation result.
    pub value: V,
    /// Which evaluation path produced it.
    pub path: GuardPath,
    /// Detector findings (pre-conditions from the original operands,
    /// post-conditions from whichever result is in `value`).
    pub flags: GuardFlags,
}

impl<V> Guarded<V> {
    /// True if the oracle recovery path produced the value.
    pub fn recovered(&self) -> bool {
        self.path != GuardPath::Fast
    }
}

// ---------------------------------------------------------------------------
// Detectors. The slice forms are shared with the mf-fpan fault-injection
// harness, which checks raw network outputs rather than MultiFloat values.
// ---------------------------------------------------------------------------

/// A base format whose IEEE 754 bit patterns the guard detectors may
/// inspect.
///
/// [`FloatBase`] deliberately never looks at bit patterns — any correctly
/// rounded format (including the verifier's `SoftFloat`) can implement it.
/// The detectors, by contrast, are only worth having if they cost a few
/// integer compares per call, which means reading the encoding directly:
/// on IEEE formats, magnitude order equals integer order on the
/// sign-cleared bits, so every check below collapses to branch-free `u64`
/// arithmetic. Implemented for `f64` and `f32` (the two hardware bases);
/// guarded evaluation is not offered for software formats.
pub trait GuardBase: FloatBase {
    /// Sign-cleared bit pattern, widened to `u64`. For finite values,
    /// `a.abs() <= b.abs()` iff `a.abs_bits() <= b.abs_bits()`.
    fn abs_bits(self) -> u64;
    /// `abs_bits` of positive infinity; anything at or above is non-finite.
    const INF_BITS: u64;
    /// Width of the explicit mantissa field (52 / 23).
    const MANT_BITS: u32;
}

impl GuardBase for f64 {
    #[inline(always)]
    fn abs_bits(self) -> u64 {
        self.to_bits() & 0x7fff_ffff_ffff_ffff
    }
    const INF_BITS: u64 = 0x7ff0_0000_0000_0000;
    const MANT_BITS: u32 = 52;
}

impl GuardBase for f32 {
    #[inline(always)]
    fn abs_bits(self) -> u64 {
        (self.to_bits() & 0x7fff_ffff) as u64
    }
    const INF_BITS: u64 = 0x7f80_0000;
    const MANT_BITS: u32 = 23;
}

/// Largest `abs_bits` over a slice — a branch-free max fold.
#[inline(always)]
fn max_abs_bits<T: GuardBase>(xs: &[T]) -> u64 {
    let mut m = 0u64;
    for x in xs {
        m = m.max(x.abs_bits());
    }
    m
}

/// `abs_bits` of the normal power `2^e` — the threshold for branch-free
/// head-exponent compares. For every finite `x` (zero and subnormals
/// included) and normal-range `e`:
/// `x.exponent() >= e ⟺ x.abs_bits() >= exp_bits::<T>(e)` and
/// `x.exponent() <= e ⟺ x.abs_bits() < exp_bits::<T>(e + 1)`.
#[inline(always)]
fn exp_bits<T: GuardBase>(e: i32) -> u64 {
    debug_assert!(e >= T::MIN_EXP && e <= T::MAX_EXP);
    ((e + T::MAX_EXP) as u64) << T::MANT_BITS
}

/// True if `out` contains a NaN or infinity even though the inputs were
/// finite — the signature of a collapsed kernel (or an injected fault):
/// finite-domain FPANs can only produce non-finite values through
/// intermediate overflow.
pub fn escalated_nonfinite<T: GuardBase>(inputs_finite: bool, out: &[T]) -> bool {
    inputs_finite & (max_abs_bits(out) >= T::INF_BITS)
}

/// Bit pattern of the half-ulp bound `2^(exponent(prev) - P)` in `T`'s
/// encoding, given `prev`'s sign-cleared bits. Returns 0 when the bound
/// falls below the subnormal floor (then only an exact zero can sit under
/// it) and for `prev == 0` (a nonzero term after a zero term is always a
/// violation). The common case — `prev` normal with a normal bound — is a
/// single shift-and-subtract; everything within `P` binades of the floor
/// takes the outlined cold path.
#[inline(always)]
fn half_ulp_bits<T: GuardBase>(prev: u64) -> u64 {
    let raw = (prev >> T::MANT_BITS) as u32;
    if raw > T::PRECISION {
        ((raw - T::PRECISION) as u64) << T::MANT_BITS
    } else {
        half_ulp_bits_cold::<T>(prev)
    }
}

#[cold]
fn half_ulp_bits_cold<T: GuardBase>(prev: u64) -> u64 {
    if prev == 0 {
        return 0;
    }
    let raw = (prev >> T::MANT_BITS) as i32;
    let min_sub = T::MIN_EXP - T::PRECISION as i32 + 1;
    let e_prev = if raw == 0 {
        // Subnormal: exponent from the top mantissa bit (bits == 1 encodes
        // 2^min_sub).
        min_sub + (63 - prev.leading_zeros() as i32)
    } else {
        // The IEEE bias equals MAX_EXP for both hardware formats.
        raw - T::MAX_EXP
    };
    let et = e_prev - T::PRECISION as i32;
    if et < min_sub {
        0
    } else if et >= T::MIN_EXP {
        ((et + T::MAX_EXP) as u64) << T::MANT_BITS
    } else {
        1u64 << (et - min_sub)
    }
}

/// True if `out` violates the nonoverlapping canonical form (paper Eq. 8):
/// a nonzero term after a zero term, or `|out[i]| > ulp(out[i-1]) / 2`.
/// Mirrors [`MultiFloat::is_nonoverlapping`] for raw slices, recast as
/// branch-free integer compares on the bit patterns (magnitude order is
/// integer order; the half-ulp bound is a pure power of two, so "at most
/// the bound" is exactly "bits at most the bound's bits").
pub fn noncanonical<T: GuardBase>(out: &[T]) -> bool {
    let mut bad = false;
    for i in 1..out.len() {
        bad |= out[i].abs_bits() > half_ulp_bits::<T>(out[i - 1].abs_bits());
    }
    bad
}

/// True if the output head is inconsistent with a naive base-precision sum
/// of the inputs. For any accumulation network the exact output sum equals
/// the exact input sum (modulo discarded error terms far below working
/// precision), so `|Σ inputs ⊖ out[0]|` must stay below `2^-tol_bits`
/// times the input magnitude `Σ |inputs|` — a backward-style bound that is
/// robust to cancellation. `tol_bits` should sit well below the base
/// precision but above `log2(len) - PRECISION` worth of naive-summation
/// noise; 40 is a good default for f64 networks of ≤ 64 inputs.
///
/// Returns `false` (not flagged) when the naive sum overflows — the check
/// cannot cheaply judge near-`MAX` accumulations.
pub fn head_inconsistent<T: FloatBase>(inputs: &[T], out: &[T], tol_bits: u32) -> bool {
    let head = match out.first() {
        Some(h) => *h,
        None => return false,
    };
    let mut naive = T::ZERO;
    let mut mag = T::ZERO;
    for &x in inputs {
        naive = naive + x;
        mag = mag + x.abs();
    }
    if !naive.is_finite() || !mag.is_finite() || !head.is_finite() {
        return false;
    }
    (naive - head).abs() > mag * T::exp2i(-(tol_bits as i32))
}

/// The head-residual check of one operation as pure data: is
/// `|naive - reference|` above `2^-RESIDUAL_TOL_BITS · mag`? The caller
/// passes a naive base-precision evaluation, the value it must match, and
/// the magnitude scale of the operation (the same backward-style bound as
/// [`head_inconsistent`]). Every caller's `mag` bounds `|naive|`, so a
/// `naive` that overflows makes `mag` infinite and the check false; a
/// non-finite result is masked out in `post_flags`. Range collapse is the
/// other detectors' job.
#[inline(always)]
fn residual<T: FloatBase>(naive: T, reference: T, mag: T) -> bool {
    (naive - reference).abs() > mag * T::exp2i(-(RESIDUAL_TOL_BITS as i32))
}

impl<T: GuardBase, const N: usize> MultiFloat<T, N> {
    /// Branch-free finiteness of every component of both operands.
    #[inline(always)]
    fn both_finite(&self, rhs: &Self) -> bool {
        max_abs_bits(&self.c).max(max_abs_bits(&rhs.c)) < T::INF_BITS
    }
    /// Head exponent at which the error-free sums overflow: `MAX_EXP`
    /// (`2^1023` for f64).
    const HUGE_EXP: i32 = T::MAX_EXP;

    fn pre_mul(&self, rhs: &Self) -> bool {
        let s = self.hi().exponent() + rhs.hi().exponent();
        // Product head near overflow, or low enough that the expansion's
        // tail products (N*PRECISION bits below the head) flush to zero.
        let lo = T::MIN_EXP + (N as i32) * T::PRECISION as i32 + 8;
        (s >= Self::HUGE_EXP - 2) | ((s <= lo) & !self.is_zero() & !rhs.is_zero())
    }

    #[inline(always)]
    fn pre_addsub(&self, rhs: &Self) -> bool {
        // Transient overflow in the error-free sums only threatens when a
        // head is at the top binade.
        self.hi().abs_bits().max(rhs.hi().abs_bits()) >= exp_bits::<T>(Self::HUGE_EXP)
    }

    /// Post-condition detectors as pure data: no data-dependent branch, so
    /// on clean results the whole computation is a handful of integer ops
    /// running in the shadow of the kernel's FP latency.
    /// `residual` is the operation's head-residual check on `r`.
    #[inline(always)]
    fn post_flags(r: &Self, residual: bool) -> GuardFlags {
        let finite = max_abs_bits(&r.c) < T::INF_BITS;
        let nonfinite = !finite;
        let noncanon = noncanonical(&r.c) & finite;
        let residual = residual & finite;
        GuardFlags(
            (nonfinite as u8) * GuardFlags::POST_NONFINITE.0
                + (noncanon as u8) * GuardFlags::POST_NONCANONICAL.0
                + (residual as u8) * GuardFlags::POST_RESIDUAL.0,
        )
    }

    /// The exact sum `Σ x·y` over `products` as an [`MpFloat`]: every
    /// base-format product is exact in a [`LongAccumulator`] (both hardware
    /// bases widen to `f64` without rounding).
    fn exact(products: impl IntoIterator<Item = (T, T)>) -> MpFloat {
        let mut acc = LongAccumulator::new();
        for (x, y) in products {
            acc.add_product(x.to_f64(), y.to_f64());
        }
        acc.to_mp()
    }

    /// The exact value of this expansion.
    fn exact_value(&self) -> MpFloat {
        Self::exact(self.c.map(|x| (x, T::ONE)))
    }

    /// Working precision of the quotient and root oracles: at least
    /// `4·(P+1)+64` bits, `N·(P+1)+64` for wider formats.
    fn oracle_prec() -> u32 {
        N.max(4) as u32 * (T::PRECISION + 1) + 64
    }

    /// Shared driver: evaluate pre-conditions, run the fast kernel when
    /// allowed, judge its result with the post-conditions (`residual` is the
    /// operation's head-residual check), and fall back to the oracle on
    /// detection under [`GuardPolicy::OracleFallback`].
    ///
    /// Split so the clean-input path — no pre-condition, clean post-flags —
    /// inlines as a short straight-line sequence; everything that can only
    /// run after a detection (including the oracle closure body, which
    /// drags in the whole `MpFloat` conversion machinery) lives in the
    /// outlined `#[cold]` half and never pollutes the hot path's code.
    #[inline]
    fn drive(
        policy: GuardPolicy,
        pre: bool,
        fast: impl FnOnce() -> Self,
        residual: impl FnOnce(&Self) -> bool,
        oracle: impl FnOnce() -> Self,
    ) -> Guarded<Self> {
        record(&GUARD_CHECKS);
        // FastOnly never branches on detector output: the kernel runs, the
        // flags are computed as pure data, and the result ships. With
        // telemetry compiled out this path has zero data-dependent control
        // flow, so the detector's handful of integer ops issues in the
        // shadow of the kernel's FP latency. (`policy` itself is
        // loop-invariant in any realistic caller — perfectly predicted.)
        if policy == GuardPolicy::FastOnly {
            let r = fast();
            let mut flags = Self::post_flags(&r, residual(&r));
            if pre {
                flags.set(GuardFlags::PRE_RANGE);
            }
            if mf_telemetry::ENABLED {
                if pre {
                    record(&GUARD_PRE_DETECTED);
                }
                if flags != GuardFlags::NONE && flags != GuardFlags::PRE_RANGE {
                    record(&GUARD_POST_DETECTED);
                }
                record_flags(flags);
                if flags.any() {
                    // A detection shipped unrecovered: the FastOnly trip
                    // rate is the live signal that a workload needs a
                    // recovery policy.
                    record(&GUARD_FAST_ONLY_TRIPS);
                }
            }
            return Guarded {
                value: r,
                path: GuardPath::Fast,
                flags,
            };
        }
        // The oracle path skips the kernel when a pre-condition already
        // names the collapse regime.
        if !pre {
            let r = fast();
            let post = Self::post_flags(&r, residual(&r));
            if !post.any() {
                return Guarded {
                    value: r,
                    path: GuardPath::Fast,
                    flags: GuardFlags::NONE,
                };
            }
            record(&GUARD_POST_DETECTED);
            return Self::recover(post, oracle);
        }
        record(&GUARD_PRE_DETECTED);
        Self::recover(GuardFlags::PRE_RANGE, oracle)
    }

    /// Recovery half of [`Self::drive`]: only ever entered after a
    /// detection under [`GuardPolicy::OracleFallback`].
    #[cold]
    #[inline(never)]
    fn recover(flags: GuardFlags, oracle: impl FnOnce() -> Self) -> Guarded<Self> {
        // Slow-path excursions are rare enough to afford a span each: the
        // timeline then shows exactly when a benchmark left the branch-free
        // kernel (arg = detector bit-set at entry).
        let _sp = mf_telemetry::trace::span("core.guard.recover", flags.bits() as u64);
        record(&GUARD_ORACLE_FALLBACKS);
        record_flags(flags);
        Guarded {
            value: oracle(),
            path: GuardPath::Oracle,
            flags,
        }
    }

    /// Guarded addition. See the module docs for policy semantics.
    #[inline]
    pub fn checked_add(self, rhs: Self, policy: GuardPolicy) -> Guarded<Self> {
        let finite = self.both_finite(&rhs);
        if !finite {
            // NaN/±inf propagation is documented §4.4 behavior, not a
            // collapse; nothing to recover.
            return Guarded {
                value: self.add(rhs),
                path: GuardPath::Fast,
                flags: GuardFlags::NONE,
            };
        }
        let (a0, b0) = (self.hi(), rhs.hi());
        let g = Self::drive(
            policy,
            self.pre_addsub(&rhs),
            || self.add(rhs),
            |r| residual(a0 + b0, r.hi(), a0.abs() + b0.abs()),
            || {
                Self::from_mp(&Self::exact(
                    self.c.into_iter().chain(rhs.c).map(|x| (x, T::ONE)),
                ))
            },
        );
        // Shadow-oracle audit: an occasional sample (default ~1/1024, see
        // MF_AUDIT_RATE) is recomputed exactly on a background thread. Note
        // checked_sub lands here too (exact negation), sampled as Add.
        if audit::should_sample() {
            crate::audit_hook::submit_binary(OpClass::Add, &self, &rhs, &g.value);
        }
        g
    }

    /// Guarded subtraction (addition of the exact negation).
    #[inline]
    pub fn checked_sub(self, rhs: Self, policy: GuardPolicy) -> Guarded<Self> {
        self.checked_add(rhs.neg(), policy)
    }

    /// Guarded multiplication.
    #[inline]
    pub fn checked_mul(self, rhs: Self, policy: GuardPolicy) -> Guarded<Self> {
        let finite = self.both_finite(&rhs);
        if !finite {
            return Guarded {
                value: self.mul(rhs),
                path: GuardPath::Fast,
                flags: GuardFlags::NONE,
            };
        }
        let p = self.hi() * rhs.hi();
        let g = Self::drive(
            policy,
            self.pre_mul(&rhs),
            || self.mul(rhs),
            |r| residual(p, r.hi(), p.abs()),
            || {
                Self::from_mp(&Self::exact(
                    self.c.into_iter().flat_map(|x| rhs.c.map(|y| (x, y))),
                ))
            },
        );
        if audit::should_sample() {
            crate::audit_hook::submit_binary(OpClass::Mul, &self, &rhs, &g.value);
        }
        g
    }

    /// Guarded division. Division by zero keeps the fast path's documented
    /// NaN semantics. The kernel is range-safe, so only the post-conditions
    /// apply (a quotient out of the base type's range, or one whose head
    /// fails `q·b ≈ a`).
    #[inline]
    pub fn checked_div(self, rhs: Self, policy: GuardPolicy) -> Guarded<Self> {
        let finite = self.both_finite(&rhs);
        if !finite || rhs.is_zero() {
            return Guarded {
                value: self.div(rhs),
                path: GuardPath::Fast,
                flags: GuardFlags::NONE,
            };
        }
        // The quotient is judged by reconstructing the dividend: q·b ≈ a.
        let (a0, b0) = (self.hi(), rhs.hi());
        let g = Self::drive(
            policy,
            false,
            || self.div(rhs),
            |r| {
                let p = r.hi() * b0;
                residual(p, a0, a0.abs() + p.abs())
            },
            || {
                let prec = Self::oracle_prec();
                Self::from_mp(&self.exact_value().div(&rhs.exact_value(), prec))
            },
        );
        if audit::should_sample() {
            crate::audit_hook::submit_binary(OpClass::Div, &self, &rhs, &g.value);
        }
        g
    }

    /// Guarded reciprocal (post-conditions only, like [`Self::checked_div`];
    /// the residual check is `r·a ≈ 1`).
    #[inline]
    pub fn checked_recip(self, policy: GuardPolicy) -> Guarded<Self> {
        let finite = max_abs_bits(&self.c) < T::INF_BITS;
        if !finite || self.is_zero() {
            return Guarded {
                value: self.recip(),
                path: GuardPath::Fast,
                flags: GuardFlags::NONE,
            };
        }
        let a0 = self.hi();
        let g = Self::drive(
            policy,
            false,
            || self.recip(),
            |r| {
                let p = r.hi() * a0;
                residual(p, T::ONE, T::ONE + p.abs())
            },
            || {
                let prec = Self::oracle_prec();
                let one = MpFloat::from_f64(1.0, prec);
                Self::from_mp(&one.div(&self.exact_value(), prec))
            },
        );
        if audit::should_sample() {
            crate::audit_hook::submit_unary(OpClass::Recip, &self, &g.value);
        }
        g
    }

    /// Guarded square root. Negative operands keep the fast path's
    /// documented NaN semantics. Post-conditions only, like
    /// [`Self::checked_div`]; the residual check is `s·s ≈ a`.
    #[inline]
    pub fn checked_sqrt(self, policy: GuardPolicy) -> Guarded<Self> {
        if !self.is_finite() || self.is_zero() || self.is_negative() {
            return Guarded {
                value: self.sqrt(),
                path: GuardPath::Fast,
                flags: GuardFlags::NONE,
            };
        }
        let a0 = self.hi();
        let g = Self::drive(
            policy,
            false,
            || self.sqrt(),
            |r| {
                let p = r.hi() * r.hi();
                residual(p, a0, a0.abs() + p.abs())
            },
            || Self::from_mp(&self.exact_value().sqrt(Self::oracle_prec())),
        );
        if audit::should_sample() {
            crate::audit_hook::submit_unary(OpClass::Sqrt, &self, &g.value);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F32x2, F64x2, F64x3, F64x4};

    fn pow2(e: i32) -> f64 {
        <f64 as FloatBase>::exp2i(e)
    }

    /// Relative error of a guarded result against the exact MpFloat value.
    fn rel_err<const N: usize>(g: &Guarded<MultiFloat<f64, N>>, exact: &MpFloat) -> f64 {
        g.value.to_mp(512).rel_error_vs(exact)
    }

    #[test]
    fn clean_inputs_stay_fast() {
        let a = F64x3::from(1.0) / F64x3::from(3.0);
        let b = F64x3::from(7.0) / F64x3::from(11.0);
        for policy in [GuardPolicy::FastOnly, GuardPolicy::OracleFallback] {
            for g in [
                a.checked_add(b, policy),
                a.checked_sub(b, policy),
                a.checked_mul(b, policy),
                a.checked_div(b, policy),
                a.checked_recip(policy),
                a.checked_sqrt(policy),
            ] {
                assert_eq!(g.path, GuardPath::Fast);
                assert_eq!(g.flags, GuardFlags::NONE);
                assert!(!g.recovered());
            }
        }
        // Values equal the unchecked kernels bit-for-bit.
        let g = a.checked_div(b, GuardPolicy::OracleFallback);
        assert_eq!(g.value.components(), (a / b).components());
    }

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s
    }

    /// A random full-tail F64x2: the product of two f64 with mantissas in
    /// [1, 2), exponents in [-40, 40] and random signs.
    fn rand_val(s: &mut u64) -> F64x2 {
        let mut f = || {
            let m = 1.0 + (lcg(s) >> 11) as f64 * pow2(-53);
            let sign = if lcg(s) & 1 == 0 { 1.0 } else { -1.0 };
            sign * m * pow2((lcg(s) % 81) as i32 - 40)
        };
        F64x2::from_scalar(f()) * F64x2::from_scalar(f())
    }

    /// No detector, the head residual included, fires on well-scaled
    /// operands: every op ships the kernel's own bits.
    #[test]
    fn random_clean_operands_never_recover() {
        let mut s = 0x5EED_u64;
        for i in 0..2000 {
            let (a, b) = (rand_val(&mut s), rand_val(&mut s));
            let (g, fast) = match i % 6 {
                0 => (a.checked_add(b, GuardPolicy::OracleFallback), a + b),
                1 => (a.checked_sub(b, GuardPolicy::OracleFallback), a - b),
                2 => (a.checked_mul(b, GuardPolicy::OracleFallback), a * b),
                3 => (a.checked_div(b, GuardPolicy::OracleFallback), a / b),
                4 => (a.checked_recip(GuardPolicy::OracleFallback), a.recip()),
                _ => (
                    a.abs().checked_sqrt(GuardPolicy::OracleFallback),
                    a.abs().sqrt(),
                ),
            };
            assert_eq!(
                (g.path, g.flags),
                (GuardPath::Fast, GuardFlags::NONE),
                "op {i}"
            );
            assert_eq!(g.value.components(), fast.components(), "op {i}");
        }
    }

    /// Top-binade sums and differences recover to exactly `from_mp` of the
    /// exact result, tails the old fixed-precision oracle dropped included.
    #[test]
    fn top_binade_sums_recover_the_exact_result() {
        let exact = |a: &MpFloat, b: &MpFloat, sub: bool| {
            if sub {
                a.sub(b, 4096)
            } else {
                a.add(b, 4096)
            }
        };
        let top = pow2(1023);
        let g = F64x2::from(top).checked_add(F64x2::from(pow2(851)), GuardPolicy::OracleFallback);
        assert_eq!(g.value.components(), [top, pow2(851)]);
        let g = F64x2::from(top).checked_add(F64x2::from(pow2(-50)), GuardPolicy::OracleFallback);
        assert_eq!(g.value.components(), [top, pow2(-50)]);
        let g = F64x3::from(top).checked_add(F64x3::from(pow2(780)), GuardPolicy::OracleFallback);
        assert_eq!(g.value.components(), [top, pow2(780), 0.0]);
        // The add detector's boundary: a head at 2^1023 recovers, 2^1022
        // stays on the kernel.
        let g = F64x2::from(top).checked_add(F64x2::ONE, GuardPolicy::OracleFallback);
        assert_eq!(
            (g.path, g.value.components()),
            (GuardPath::Oracle, [top, 1.0])
        );
        let g = F64x2::from(pow2(1022)).checked_add(F64x2::ONE, GuardPolicy::OracleFallback);
        assert_eq!(g.path, GuardPath::Fast);

        let mut s = 0xC0_11A9_u64;
        for k in 0..40 {
            let m = 1.0 + (lcg(&mut s) >> 12) as f64 * pow2(-52);
            let huge = F64x2::from_scalar(m * top);
            let x = rand_val(&mut s);
            let tail = F64x4::from_scalar(pow2(1000 - 40 * k));
            for sub in [false, true] {
                let g = if sub {
                    huge.checked_sub(x, GuardPolicy::OracleFallback)
                } else {
                    huge.checked_add(x, GuardPolicy::OracleFallback)
                };
                let want = F64x2::from_mp(&exact(&huge.to_mp(128), &x.to_mp(128), sub));
                assert_eq!(g.path, GuardPath::Oracle, "k={k} sub={sub}");
                assert_eq!(g.value.components(), want.components(), "k={k} sub={sub}");

                let h4 = F64x4::from_scalar(m * top);
                let g = if sub {
                    h4.checked_sub(tail, GuardPolicy::OracleFallback)
                } else {
                    h4.checked_add(tail, GuardPolicy::OracleFallback)
                };
                let want = F64x4::from_mp(&exact(&h4.to_mp(64), &tail.to_mp(64), sub));
                assert_eq!(
                    g.value.components(),
                    want.components(),
                    "N=4 k={k} sub={sub}"
                );
            }
        }
    }

    /// A kernel result whose head is corrupted but finite and canonical
    /// raises only the head-residual flag, and the fallback recovers it.
    #[test]
    fn corrupted_head_trips_the_residual_check() {
        let (a, b) = (F64x2::ONE, F64x2::from(pow2(-30)));
        let (a0, b0) = (a.hi(), b.hi());
        let check = |r: &F64x2| residual(a0 + b0, r.hi(), a0.abs() + b0.abs());
        let good = a + b;
        let bad = F64x2::from_components([1.5 + pow2(-30), 0.0]);
        assert!(!check(&good));
        assert_eq!(
            F64x2::post_flags(&bad, check(&bad)),
            GuardFlags::POST_RESIDUAL
        );
        // A head off by 2^-39 of the magnitude trips; 2^-41 does not.
        let off = |d: f64| F64x2::from_components([1.0 + pow2(-30) + d, 0.0]);
        assert!(check(&off(pow2(-39))) && !check(&off(pow2(-41))));
        // A non-finite result is the other detectors' business, and an
        // overflowing naive sum carries an infinite magnitude scale.
        let inf = F64x2::from(f64::INFINITY);
        assert_eq!(
            F64x2::post_flags(&inf, check(&inf)),
            GuardFlags::POST_NONFINITE
        );
        assert!(!residual(f64::INFINITY, f64::MAX, f64::INFINITY));

        let oracle = || F64x2::from_mp(&F64x2::exact([(a0, 1.0), (b0, 1.0)]));
        let g = F64x2::drive(GuardPolicy::FastOnly, false, || bad, check, oracle);
        assert_eq!(
            (g.path, g.flags),
            (GuardPath::Fast, GuardFlags::POST_RESIDUAL)
        );
        assert_eq!(g.value.components(), bad.components());
        let g = F64x2::drive(GuardPolicy::OracleFallback, false, || bad, check, oracle);
        assert_eq!(
            (g.path, g.flags),
            (GuardPath::Oracle, GuardFlags::POST_RESIDUAL)
        );
        assert_eq!(g.value.components(), good.components());
    }

    /// The old reciprocal-seed and residual-reconstruction regimes (a
    /// divisor or radicand head below 2^-1019, a dividend head at 2^1023)
    /// raise no flag and are exact on the fast path under either policy; a
    /// top-binade sum, which still collapses, is the negative control.
    #[test]
    fn old_div_sqrt_regimes_need_no_recovery() {
        let tiny = F64x2::from(pow2(-1040));
        let huge = F64x2::from_components([f64::MAX, pow2(969)]);
        let b = F64x2::from_components([pow2(996), -pow2(942)]);
        let exact = huge.to_mp(512).div(&b.to_mp(512), 512);
        for policy in [GuardPolicy::FastOnly, GuardPolicy::OracleFallback] {
            let g = [
                F64x2::from(pow2(-100)).checked_div(tiny, policy),
                F64x2::ZERO.checked_div(tiny, policy),
                F64x2::from(pow2(-1074)).checked_sqrt(policy),
                huge.checked_div(b, policy),
            ];
            for g in &g {
                assert_eq!((g.path, g.flags), (GuardPath::Fast, GuardFlags::NONE));
            }
            assert_eq!(g[0].value.components(), [pow2(940), 0.0]);
            assert!(g[1].value.is_zero(), "0 / tiny ran through 0 * inf = NaN");
            assert_eq!(g[2].value.components(), [pow2(-537), 0.0]);
            assert!(rel_err(&g[3], &exact) < pow2(-99));
            // Divisor heads at and near the former 2^-1019 detector
            // boundary, a radicand and a reciprocal near the range ends.
            let edge = pow2(-1020).to_bits();
            for bits in [edge, edge + 1, pow2(-1019).to_bits() - 1] {
                let b = F64x2::from(f64::from_bits(bits));
                let g = F64x2::from(pow2(-100)).checked_div(b, policy);
                assert_eq!((g.path, g.flags), (GuardPath::Fast, GuardFlags::NONE));
            }
            for g in [
                F64x2::from(pow2(-1021)).checked_sqrt(policy),
                F64x2::from(pow2(1021)).checked_recip(policy),
            ] {
                assert_eq!((g.path, g.flags), (GuardPath::Fast, GuardFlags::NONE));
            }
        }
        // MAX + 2^970 rounds to inf in the head TwoSum, but the tail pulls
        // the true sum back below the rounding tie.
        let x = F64x2::from_components([f64::MAX, -pow2(960)]);
        let y = F64x2::from(pow2(970));
        let fast = x.checked_add(y, GuardPolicy::FastOnly);
        assert!(fast.flags.contains(GuardFlags::PRE_RANGE));
        assert!(fast.value.is_nan(), "expected the top-binade collapse");
        let g = x.checked_add(y, GuardPolicy::OracleFallback);
        assert_eq!(g.path, GuardPath::Oracle);
        assert_eq!(g.value.components(), [f64::MAX, pow2(970) - pow2(960)]);
    }

    #[test]
    fn genuinely_out_of_range_results_saturate() {
        // recip(2^-1040) = 2^1040 > MAX: the fast path signals with
        // infinity (the collapsed seed used to give NaN), flagged as a
        // non-finite result; the oracle agrees.
        let b = F64x2::from(pow2(-1040));
        let fast = b.checked_recip(GuardPolicy::FastOnly);
        assert_eq!(fast.value.to_f64(), f64::INFINITY);
        assert!(fast.flags.contains(GuardFlags::POST_NONFINITE));
        let g = b.checked_recip(GuardPolicy::OracleFallback);
        assert_eq!(g.path, GuardPath::Oracle);
        assert_eq!(g.value.to_f64(), f64::INFINITY);
        // In-range tiny reciprocal stays finite and exact.
        let c = F64x2::from(pow2(-1022));
        let g = c.checked_recip(GuardPolicy::FastOnly);
        assert_eq!(g.value.to_f64(), pow2(1022));
        assert_eq!(g.flags, GuardFlags::NONE);
    }

    /// Products in both `pre_mul` ranges — a head near overflow, and one
    /// low enough that the tail products flush — take the oracle and
    /// recover exactly `from_mp` of the exact product at N = 2..4.
    #[test]
    fn range_multiplication_recovers_the_exact_product() {
        fn check<const N: usize>(ka: i32, kb: i32) {
            let one = MultiFloat::<f64, N>::ONE;
            let a = (one / MultiFloat::from(3.0)).scale_exp2(ka);
            let b = (one / MultiFloat::from(7.0)).scale_exp2(kb);
            let g = a.checked_mul(b, GuardPolicy::OracleFallback);
            assert_eq!(g.path, GuardPath::Oracle, "N={N} 2^{ka} x 2^{kb}");
            let exact = a.to_mp(512).mul(&b.to_mp(512), 1100);
            let want = MultiFloat::<f64, N>::from_mp(&exact);
            assert_eq!(
                g.value.components(),
                want.components(),
                "N={N} 2^{ka} x 2^{kb}"
            );
        }
        // The heads' exponents are ka-2 and kb-3, so the low pairs' sum is
        // at most MIN_EXP + N·PRECISION + 8 and 514/513 gives MAX_EXP - 1
        // (a finite product near 2^1022.6).
        check::<2>(-480, -482);
        check::<3>(-440, -441);
        check::<4>(-400, -401);
        check::<2>(514, 513);
        check::<3>(514, 513);
        check::<4>(514, 513);
    }

    #[test]
    fn near_max_addition_survives() {
        let a = F64x3::from(f64::MAX);
        let b = F64x3::from(f64::MAX * 0.5);
        // True sum 1.5*MAX overflows: the guarded result must be inf (the
        // correctly rounded answer).
        let g = a.checked_add(b, GuardPolicy::OracleFallback);
        assert_eq!(g.value.to_f64(), f64::INFINITY);
        assert!(g.flags.contains(GuardFlags::PRE_RANGE));
        // A representable near-MAX sum stays finite and exact.
        let g2 = a.checked_add(b.neg(), GuardPolicy::OracleFallback);
        assert_eq!(g2.value.to_f64(), f64::MAX * 0.5);
    }

    #[test]
    fn special_values_keep_fast_semantics() {
        let nan = F64x2::from(f64::NAN);
        let inf = F64x2::from(f64::INFINITY);
        let one = F64x2::ONE;
        for policy in [GuardPolicy::FastOnly, GuardPolicy::OracleFallback] {
            assert!(one.checked_div(nan, policy).value.is_nan());
            assert!(!inf.checked_add(one, policy).recovered());
            assert!(one.checked_div(F64x2::ZERO, policy).value.is_nan());
            assert!(F64x2::from(-2.0).checked_sqrt(policy).value.is_nan());
            assert!(F64x2::ZERO.checked_sqrt(policy).value.is_zero());
            let g = F64x2::ZERO.checked_recip(policy);
            assert!(!g.value.is_finite() && !g.recovered() && !g.flags.any());
            let g = nan.checked_mul(F64x2::from(pow2(1023)), policy);
            assert!(g.value.is_nan() && !g.recovered() && !g.flags.any());
        }
    }

    #[test]
    fn f32_base_guard_is_generic() {
        let p = <f32 as FloatBase>::exp2i;
        // Tiny divisor in the f32 exponent range (2^-140 < 2^-123): exact
        // on the fast path.
        let a = F32x2::from_scalar(p(-20));
        let b = F32x2::from_scalar(p(-140));
        let g = a.checked_div(b, GuardPolicy::FastOnly);
        assert_eq!(g.flags, GuardFlags::NONE);
        assert_eq!(g.value.to_f64(), 2.0f64.powi(120));
        // A head at the f32 top binade trips the add detector, and the
        // oracle recovers the representable sum.
        let (x, y) = (F32x2::from_scalar(p(127)), F32x2::from_scalar(p(100)));
        assert!(x.checked_add(y, GuardPolicy::FastOnly).flags.any());
        let g = x.checked_add(y, GuardPolicy::OracleFallback);
        assert!(g.recovered());
        assert_eq!(g.value.components(), [p(127), p(100)]);
    }

    /// Tentpole end-to-end: at rate 1.0 every guarded op is sampled, the
    /// oracle scores clean results well inside the documented bound, and a
    /// FastOnly collapse (NaN from finite inputs) lands as a violation.
    #[cfg(feature = "telemetry")]
    #[test]
    fn guarded_ops_feed_the_shadow_oracle() {
        use std::time::Duration;
        let saved = audit::rate();
        audit::set_rate(1.0);
        let before = mf_telemetry::snapshot();

        // Clean ops: audited, never violating.
        let a = F64x2::from(1.0) / F64x2::from(3.0);
        let b = F64x2::from(7.0) / F64x2::from(11.0);
        for _ in 0..16 {
            let _ = a.checked_mul(b, GuardPolicy::OracleFallback);
            let _ = a.checked_add(b, GuardPolicy::OracleFallback);
            let _ = a.checked_sqrt(GuardPolicy::OracleFallback);
        }
        // Hostile: a top-binade sum under FastOnly ships the collapsed NaN
        // although the true sum is representable.
        let x = F64x2::from_components([f64::MAX, -pow2(960)]);
        let g = x.checked_add(F64x2::from(pow2(970)), GuardPolicy::FastOnly);
        assert!(g.value.is_nan());
        assert!(audit::flush(Duration::from_secs(10)), "auditor stalled");
        audit::set_rate(saved);

        let delta = mf_telemetry::snapshot().delta_since(&before);
        let counter = |name: &str| {
            delta
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(counter("audit.sampled") >= 49, "every op sampled");
        assert!(counter("audit.audited") >= 48);
        assert!(counter("audit.violations") >= 1, "collapse not flagged");
        // Each clean op class landed its samples in the per-class ulp
        // histogram. (Counts are monotone, so concurrent tests — which also
        // get sampled while this test holds the rate at 1.0 — can only add;
        // lifetime-min margins of the clean classes are NOT asserted here
        // because sibling tests deliberately collapse FastOnly ops. Precise
        // clean/violating scoring is covered by the audit_hook unit tests.)
        for class in ["mul", "add", "sqrt"] {
            let n = delta
                .histograms
                .iter()
                .find(|h| h.name == format!("audit.ulp.{class}"))
                .map(|h| h.count)
                .unwrap_or(0);
            assert!(n >= 16, "audit.ulp.{class} count {n}");
        }
        assert!(audit::min_margin(audit::OpClass::Add).unwrap() < 0);
    }

    #[test]
    fn slice_detectors() {
        assert!(noncanonical(&[0.0f64, 1.0]));
        assert!(noncanonical(&[1.0f64, 0.5]));
        assert!(!noncanonical(&[1.0f64, pow2(-53), 0.0]));
        assert!(escalated_nonfinite(true, &[1.0f64, f64::NAN]));
        assert!(!escalated_nonfinite(false, &[1.0f64, f64::NAN]));
        assert!(!escalated_nonfinite(true, &[1.0f64, 2.0]));
        // Head consistency: exact sum vs corrupted head.
        let inputs = [1.0f64, pow2(-30), pow2(-60)];
        let good = [1.0 + pow2(-30), pow2(-60)];
        assert!(!head_inconsistent(&inputs, &good, 40));
        let bad = [1.5 + pow2(-30), pow2(-60)];
        assert!(head_inconsistent(&inputs, &bad, 40));
    }
}
