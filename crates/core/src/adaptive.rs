//! Adaptive precision escalation: the closed guard loop.
//!
//! The guard layer ([`crate::guard`]) *detects* collapse; this module *acts*
//! on it. An [`Adaptive`] engine evaluates every operation on a two-rung
//! escalation ladder
//!
//! ```text
//! N=2  →  MpFloat oracle
//! ```
//!
//! starting at the cheap base rung and escalating only when a [`GuardFlags`]
//! detector trips or the head-residual bound fails. This is the
//! cheap-common-case / precise-rare-case architecture from the FPGA
//! literature (de Fine Licht et al.) applied to the paper's branch-free
//! kernels: clean workloads run at full N=2 speed, and only the rare
//! collapse-prone operation pays for the exact evaluation.
//!
//! There is no `N=3` or `N=4` rung in between. A `MultiFloat` has only its
//! base type's exponent range (paper §4.4), so the range collapses that
//! trip the `N=2` kernel trip the wider kernels too: a rerun at `N=3` or
//! `N=4` never settles what `N=2` could not, it only delays the oracle.
//!
//! # Escalation triggers
//!
//! A base-rung attempt is rejected (and the op escalates) when either
//!
//! 1. the guarded kernel reports any [`GuardFlags`] bit (pre-range operand
//!    regime, non-finite escalation, noncanonical output), or
//! 2. the **head residual** check fails: the result's leading component must
//!    be consistent with a naive base-precision evaluation of the same
//!    operation to within `2^-tol_bits` relative — the same backward-style
//!    bound as [`crate::guard::head_inconsistent`], specialized per
//!    operation (`a+b` vs `r`, `q·b` vs `a`, `s·s` vs `a`, …). Clean inputs
//!    sit near `2^-(P-1)` relative deviation, far inside the default
//!    `tol_bits = 40`, so the check only fires on genuinely corrupted or
//!    collapsed results.
//!
//! The oracle rung always accepts: it evaluates through [`MpFloat`] at
//! `N=4`-equivalent working precision and rounds back to `N=2`.
//!
//! # Policy knobs
//!
//! [`EscalationPolicy`] controls the ladder: `max_rung` below
//! [`Rung::Oracle`] switches escalation off (a tripped base result ships
//! with its flags), `sticky` chooses per-value residency (after an
//! escalation the oracle stays resident for subsequent ops) vs per-op
//! escalation (every op restarts at N=2), `decay` is the hysteresis — after
//! that many consecutive clean ops the resident oracle steps back down to
//! N=2, so a burst of trips does not pin the ladder at the oracle forever —
//! and `budget` is the hard ceiling on escalated ops: once exhausted the
//! engine latches *degraded* and routes every remaining op through the
//! guard layer's plain [`GuardPolicy::OracleFallback`], mirroring the worker
//! pool's degrade-to-serial contract (predictable, safe, no further ladder
//! cost).
//!
//! # Special values
//!
//! §4.4 semantics bypass the ladder entirely: non-finite operands, division
//! by zero, `recip(0)` and `sqrt` of a negative propagate through the plain
//! kernel exactly as the guard layer's own bypass does. They never escalate
//! (the oracle cannot represent them) and never count against the budget.
//!
//! # Telemetry
//!
//! The engine buffers its tallies in plain cells on the hot path and flushes
//! them to the registry (`core.adaptive.{ops,escalations,oracle_falls,
//! degraded_ops}` counters, `core.adaptive.rung` gauge) on [`Adaptive::stats`]
//! and on drop; the `core.adaptive.oracle` latency sketch times only the
//! oracle evaluations, so the N=2 fast path stays atomic-free.

use core::cell::Cell;
use core::fmt;
use core::marker::PhantomData;

use mf_mpsoft::MpFloat;
use mf_telemetry::{Counter, Gauge, Section};

use crate::guard::{GuardBase, GuardFlags, GuardPath, GuardPolicy, Guarded};
use crate::{FloatBase, MultiFloat};

static ADAPT_OPS: Counter = Counter::new("core.adaptive.ops");
static ADAPT_ESCALATIONS: Counter = Counter::new("core.adaptive.escalations");
static ADAPT_ORACLE_FALLS: Counter = Counter::new("core.adaptive.oracle_falls");
static ADAPT_DEGRADED_OPS: Counter = Counter::new("core.adaptive.degraded_ops");
static ADAPT_RUNG: Gauge = Gauge::new("core.adaptive.rung");
static RUNG_ORACLE: Section = Section::new("core.adaptive.oracle");

/// One precision level, in increasing order.
///
/// The adaptive ladders over `N=2` values ([`Adaptive`] and mf-blas's
/// adaptive entry points) settle only on [`Rung::N2`] or [`Rung::Oracle`].
/// `N3` and `N4` remain as `max_rung` caps — on those ladders a cap below
/// the oracle means "no escalation" — and as the `F64x3`/`F64x4` rungs of
/// mf-solve's residual ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The base rung: the branch-free `N=2` kernel (~107-bit).
    #[default]
    N2,
    /// `N=3` (~161-bit).
    N3,
    /// `N=4` (~215-bit).
    N4,
    /// Ladder top: the [`MpFloat`] software oracle at `N=4`-equivalent
    /// working precision. Always accepts.
    Oracle,
}

impl Rung {
    /// Position in precision order (0 = base rung).
    pub fn index(self) -> usize {
        match self {
            Rung::N2 => 0,
            Rung::N3 => 1,
            Rung::N4 => 2,
            Rung::Oracle => 3,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::N2 => "N2",
            Rung::N3 => "N3",
            Rung::N4 => "N4",
            Rung::Oracle => "oracle",
        })
    }
}

/// Configuration for an [`Adaptive`] engine's escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Highest rung the ladder may escalate to. The ladders over `N=2`
    /// values have one escalation, to the oracle: any cap below
    /// [`Rung::Oracle`] switches escalation off, and a tripped base result
    /// is accepted with its flags (the caller sees them). Default:
    /// [`Rung::Oracle`].
    pub max_rung: Rung,
    /// Sticky-per-value mode: after an escalation the oracle stays resident
    /// and subsequent operations run there (amortizing bursts of hard
    /// inputs), decaying back to `N=2` per `decay`. When `false`, every
    /// operation restarts at `N=2`. Default: `true`.
    pub sticky: bool,
    /// Hysteresis: number of consecutive operations at the resident oracle
    /// before the engine steps back down to `N=2`. `0` disables decay (the
    /// oracle stays resident until [`Adaptive::reset`]). Default: `16`.
    pub decay: u32,
    /// Hard budget on total escalated operations. Once the cumulative
    /// count reaches the budget the engine latches *degraded* and every
    /// subsequent operation routes through plain
    /// [`GuardPolicy::OracleFallback`] — the pool's degrade-to-serial
    /// contract, applied to precision. `0` degrades immediately.
    /// Default: `u64::MAX` (unlimited).
    pub budget: u64,
    /// Head-residual tolerance in bits (see module docs). Default: `40`.
    pub tol_bits: u32,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        EscalationPolicy {
            max_rung: Rung::Oracle,
            sticky: true,
            decay: 16,
            budget: u64::MAX,
            tol_bits: 40,
        }
    }
}

/// Counters exported by [`Adaptive::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Total operations evaluated (including bypassed and degraded ones).
    pub ops: u64,
    /// Operations that escalated from the base rung.
    pub escalations: u64,
    /// Operations evaluated by escalating to the oracle rung. The ladder
    /// has no other escalation, so this always equals `escalations`; it
    /// stays a field of its own for the `core.adaptive.oracle_falls`
    /// counter and the reports that print it.
    pub oracle_falls: u64,
    /// Operations evaluated after the budget latch (via `OracleFallback`).
    pub degraded_ops: u64,
}

impl AdaptiveStats {
    /// Escalated operations per operation — the headline workload metric.
    pub fn escalation_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.escalations as f64 / self.ops as f64
        }
    }
}

/// One adaptive evaluation result: the value plus ladder provenance.
#[derive(Clone, Copy, Debug)]
pub struct Evaluated<V> {
    /// The accepted result, narrowed to the engine's `N=2` value type.
    pub value: V,
    /// The rung that produced (and accepted) the value.
    pub rung: Rung,
    /// Detector findings from the accepted attempt ([`GuardFlags::NONE`]
    /// for the oracle rung; possibly still set when `max_rung` switched
    /// escalation off).
    pub flags: GuardFlags,
    /// 1 if this operation escalated from the base rung to the oracle, 0 if
    /// its first attempt was accepted.
    pub escalations: u32,
}

impl<V> Evaluated<V> {
    /// True if this operation escalated.
    pub fn escalated(&self) -> bool {
        self.escalations > 0
    }
}

/// The operations the ladder evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Recip,
    Sqrt,
}

/// An adaptive evaluation engine over `MultiFloat<T, 2>` values.
///
/// The engine is a small per-thread state machine (interior mutability via
/// [`Cell`]; deliberately not `Sync` — give each worker its own engine and
/// merge [`AdaptiveStats`] afterwards, exactly like the pool's per-chunk
/// partials).
///
/// ```
/// use mf_core::adaptive::{Adaptive, Rung};
/// use mf_core::F64x2;
///
/// let engine = Adaptive::<f64>::default();
/// // Clean inputs stay on the base rung…
/// let r = engine.checked_mul(F64x2::from(3.0), F64x2::from(7.0));
/// assert_eq!(r.rung, Rung::N2);
/// assert!(!r.escalated());
/// // …while a collapse-prone divisor escalates to the oracle and still
/// // comes back with the right answer.
/// let tiny = F64x2::from(2.0f64.powi(-1021));
/// let q = engine.checked_div(F64x2::ONE, tiny);
/// assert_eq!((q.rung, q.escalations), (Rung::Oracle, 1));
/// assert_eq!(q.value.to_f64(), 2.0f64.powi(1021));
/// ```
pub struct Adaptive<T: GuardBase = f64> {
    policy: EscalationPolicy,
    rung: Cell<Rung>,
    clean_streak: Cell<u32>,
    degraded: Cell<bool>,
    ops: Cell<u64>,
    escalations: Cell<u64>,
    degraded_ops: Cell<u64>,
    flushed: Cell<AdaptiveStats>,
    _base: PhantomData<T>,
}

impl<T: GuardBase> Default for Adaptive<T> {
    fn default() -> Self {
        Adaptive::new(EscalationPolicy::default())
    }
}

impl<T: GuardBase> Adaptive<T> {
    /// Create an engine with the given policy, resident at the base rung.
    pub fn new(policy: EscalationPolicy) -> Self {
        Adaptive {
            policy,
            rung: Cell::new(Rung::N2),
            clean_streak: Cell::new(0),
            // A zero budget means the ladder is never allowed to escalate:
            // degrade from the first op, exactly as an exhausted budget
            // would.
            degraded: Cell::new(policy.budget == 0),
            ops: Cell::new(0),
            escalations: Cell::new(0),
            degraded_ops: Cell::new(0),
            flushed: Cell::new(AdaptiveStats::default()),
            _base: PhantomData,
        }
    }

    /// The policy this engine was built with.
    pub fn policy(&self) -> &EscalationPolicy {
        &self.policy
    }

    /// The resident rung: [`Rung::N2`], or [`Rung::Oracle`] while a sticky
    /// engine stays at the oracle after an escalation (always
    /// [`Rung::N2`] in per-op mode).
    pub fn rung(&self) -> Rung {
        self.rung.get()
    }

    /// True once the escalation budget is exhausted and the engine has
    /// latched onto the `OracleFallback` degrade path.
    pub fn is_degraded(&self) -> bool {
        self.degraded.get()
    }

    /// Snapshot the engine's counters, flushing them to the telemetry
    /// registry as a side effect.
    pub fn stats(&self) -> AdaptiveStats {
        let now = AdaptiveStats {
            ops: self.ops.get(),
            escalations: self.escalations.get(),
            oracle_falls: self.escalations.get(),
            degraded_ops: self.degraded_ops.get(),
        };
        if mf_telemetry::ENABLED {
            let prev = self.flushed.get();
            ADAPT_OPS.add(now.ops - prev.ops);
            ADAPT_ESCALATIONS.add(now.escalations - prev.escalations);
            ADAPT_ORACLE_FALLS.add(now.oracle_falls - prev.oracle_falls);
            ADAPT_DEGRADED_OPS.add(now.degraded_ops - prev.degraded_ops);
            self.flushed.set(now);
        }
        now
    }

    /// Clear the ladder state: resident rung back to `N=2`, clean-streak
    /// and degrade latch reset (re-arming the budget against the counters
    /// accumulated so far is the caller's business — construct a fresh
    /// engine to also zero the stats).
    pub fn reset(&self) {
        self.rung.set(Rung::N2);
        self.clean_streak.set(0);
        self.degraded
            .set(self.policy.budget == 0 || self.escalations.get() >= self.policy.budget);
        ADAPT_RUNG.set(0);
    }

    /// Adaptive addition.
    #[inline]
    pub fn checked_add(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
    ) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, b, Op::Add)
    }

    /// Adaptive subtraction.
    #[inline]
    pub fn checked_sub(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
    ) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, b, Op::Sub)
    }

    /// Adaptive multiplication.
    #[inline]
    pub fn checked_mul(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
    ) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, b, Op::Mul)
    }

    /// Adaptive division.
    #[inline]
    pub fn checked_div(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
    ) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, b, Op::Div)
    }

    /// Adaptive reciprocal.
    #[inline]
    pub fn checked_recip(&self, a: MultiFloat<T, 2>) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, MultiFloat::ZERO, Op::Recip)
    }

    /// Adaptive square root.
    #[inline]
    pub fn checked_sqrt(&self, a: MultiFloat<T, 2>) -> Evaluated<MultiFloat<T, 2>> {
        self.eval(a, MultiFloat::ZERO, Op::Sqrt)
    }

    /// The hot entry: inlined into `checked_*` so the clean base-rung case
    /// costs one guarded kernel plus the head-residual check and an op
    /// count — everything else (special values, degrade, escalation, a
    /// resident oracle) drops into `#[cold]` outlined paths.
    ///
    /// The §4.4 special-value bypass is *not* tested up front: the guarded
    /// base kernel already propagates special values with the documented
    /// semantics, and [`residual_trip`] never trips on a non-finite
    /// quantity, so a special value either sails through here (same value
    /// the bypass would produce) or raises a flag and is re-examined by
    /// [`Self::eval_tripped`] before any escalation.
    #[inline(always)]
    fn eval(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
        op: Op,
    ) -> Evaluated<MultiFloat<T, 2>> {
        self.ops.set(self.ops.get() + 1);

        if self.degraded.get() {
            return self.eval_degraded(a, b, op);
        }
        if self.policy.sticky && self.rung.get() != Rung::N2 {
            return self.eval_resident(a, b, op);
        }

        let g = base_checked(a, b, op, GuardPolicy::FastOnly);
        if !g.flags.any() && !residual_trip(a.hi(), b.hi(), g.value.hi(), op, self.policy.tol_bits)
        {
            return Evaluated {
                value: g.value,
                rung: Rung::N2,
                flags: g.flags,
                escalations: 0,
            };
        }
        self.eval_tripped(a, b, op)
    }

    /// A base-rung attempt raised a flag or failed the residual bound:
    /// special values take their bypass result as-is (the oracle rung
    /// cannot represent them), and so does every op when `max_rung` is
    /// below the oracle; everything else escalates to the oracle, which a
    /// sticky engine then keeps resident.
    #[cold]
    #[inline(never)]
    fn eval_tripped(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
        op: Op,
    ) -> Evaluated<MultiFloat<T, 2>> {
        if bypass(&a, &b, op) || self.policy.max_rung != Rung::Oracle {
            return eval_bypass(a, b, op);
        }
        let total = self.escalations.get() + 1;
        self.escalations.set(total);
        self.clean_streak.set(0);
        if self.policy.sticky {
            self.rung.set(Rung::Oracle);
            ADAPT_RUNG.set(Rung::Oracle.index() as i64);
        }
        if total >= self.policy.budget {
            self.degraded.set(true);
        }
        Evaluated {
            value: RUNG_ORACLE.time(|| oracle_eval(&a, &b, op)),
            rung: Rung::Oracle,
            flags: GuardFlags::NONE,
            escalations: 1,
        }
    }

    /// Sticky engine with the oracle resident: evaluate there (special
    /// values still bypass the ladder), and after `decay` such ops step
    /// back down to `N=2`.
    #[cold]
    #[inline(never)]
    fn eval_resident(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
        op: Op,
    ) -> Evaluated<MultiFloat<T, 2>> {
        if bypass(&a, &b, op) {
            return eval_bypass(a, b, op);
        }
        let value = RUNG_ORACLE.time(|| oracle_eval(&a, &b, op));
        let streak = self.clean_streak.get() + 1;
        if self.policy.decay > 0 && streak >= self.policy.decay {
            self.rung.set(Rung::N2);
            self.clean_streak.set(0);
            ADAPT_RUNG.set(Rung::N2.index() as i64);
        } else {
            self.clean_streak.set(streak);
        }
        Evaluated {
            value,
            rung: Rung::Oracle,
            flags: GuardFlags::NONE,
            escalations: 0,
        }
    }

    /// Budget exhausted: hand the op to the guard layer's plain
    /// `OracleFallback` — no ladder, predictable cost, mirrors the pool's
    /// degrade-to-serial contract.
    #[cold]
    #[inline(never)]
    fn eval_degraded(
        &self,
        a: MultiFloat<T, 2>,
        b: MultiFloat<T, 2>,
        op: Op,
    ) -> Evaluated<MultiFloat<T, 2>> {
        if bypass(&a, &b, op) {
            return eval_bypass(a, b, op);
        }
        self.degraded_ops.set(self.degraded_ops.get() + 1);
        let g = base_checked(a, b, op, GuardPolicy::OracleFallback);
        let rung = if g.path == GuardPath::Oracle {
            Rung::Oracle
        } else {
            Rung::N2
        };
        Evaluated {
            value: g.value,
            rung,
            flags: g.flags,
            escalations: 0,
        }
    }
}

impl<T: GuardBase> Drop for Adaptive<T> {
    fn drop(&mut self) {
        // Flush any unreported tallies to the registry.
        let _ = self.stats();
    }
}

/// §4.4 special-value handling (and a tripped op under a `max_rung` below
/// the oracle), outlined from the hot path: run the guarded base kernel and
/// report its result and flags as a non-escalated base-rung evaluation.
#[cold]
#[inline(never)]
fn eval_bypass<T: GuardBase>(
    a: MultiFloat<T, 2>,
    b: MultiFloat<T, 2>,
    op: Op,
) -> Evaluated<MultiFloat<T, 2>> {
    let g = base_checked(a, b, op, GuardPolicy::FastOnly);
    Evaluated {
        value: g.value,
        rung: Rung::N2,
        flags: g.flags,
        escalations: 0,
    }
}

/// §4.4 special-value bypass predicate, mirroring the guard layer's own
/// checked_* early returns.
#[inline(always)]
fn bypass<T: GuardBase>(a: &MultiFloat<T, 2>, b: &MultiFloat<T, 2>, op: Op) -> bool {
    match op {
        Op::Add | Op::Sub | Op::Mul => !(a.is_finite() && b.is_finite()),
        Op::Div => !(a.is_finite() && b.is_finite()) || b.is_zero(),
        Op::Recip => !a.is_finite() || a.is_zero(),
        Op::Sqrt => !a.is_finite() || a.is_zero() || a.is_negative(),
    }
}

/// Dispatch one op through the guard layer at `N=2`.
#[inline(always)]
fn base_checked<T: GuardBase>(
    a: MultiFloat<T, 2>,
    b: MultiFloat<T, 2>,
    op: Op,
    policy: GuardPolicy,
) -> Guarded<MultiFloat<T, 2>> {
    match op {
        Op::Add => a.checked_add(b, policy),
        Op::Sub => a.checked_sub(b, policy),
        Op::Mul => a.checked_mul(b, policy),
        Op::Div => a.checked_div(b, policy),
        Op::Recip => a.checked_recip(policy),
        Op::Sqrt => a.checked_sqrt(policy),
    }
}

/// Per-operation head-residual check: is the result head consistent with a
/// naive base-precision evaluation? Same backward-style bound as
/// [`crate::guard::head_inconsistent`], returning `false` (not tripped)
/// whenever any quantity involved is non-finite — range escalation is the
/// pre/post detectors' job.
#[inline(always)]
fn residual_trip<T: FloatBase>(a_hi: T, b_hi: T, r_hi: T, op: Op, tol_bits: u32) -> bool {
    let (naive, reference, mag) = match op {
        Op::Add => (a_hi + b_hi, r_hi, a_hi.abs() + b_hi.abs()),
        Op::Sub => (a_hi - b_hi, r_hi, a_hi.abs() + b_hi.abs()),
        Op::Mul => {
            let p = a_hi * b_hi;
            (p, r_hi, p.abs())
        }
        // For the inverse ops, reconstruct the operand: q·b ≈ a, r·a ≈ 1,
        // s·s ≈ a. This judges the *result* without needing a second
        // division.
        Op::Div => {
            let p = r_hi * b_hi;
            (p, a_hi, a_hi.abs() + p.abs())
        }
        Op::Recip => {
            let p = r_hi * a_hi;
            (p, T::ONE, T::ONE + p.abs())
        }
        Op::Sqrt => {
            let p = r_hi * r_hi;
            (p, a_hi, a_hi.abs() + p.abs())
        }
    };
    if !naive.is_finite() || !reference.is_finite() || !mag.is_finite() {
        return false;
    }
    (naive - reference).abs() > mag * T::exp2i(-(tol_bits as i32))
}

/// The ladder top: evaluate through [`MpFloat`] at `N=4`-equivalent working
/// precision and round back to `N=2` (correctly rounded; out-of-range
/// results saturate to ±inf through `from_mp`).
fn oracle_eval<T: GuardBase>(
    a: &MultiFloat<T, 2>,
    b: &MultiFloat<T, 2>,
    op: Op,
) -> MultiFloat<T, 2> {
    let prec = 4 * (T::PRECISION + 1) + 64;
    let am = a.to_mp(prec);
    match op {
        Op::Add => MultiFloat::from_mp(&am.add(&b.to_mp(prec), prec)),
        Op::Sub => MultiFloat::from_mp(&am.sub(&b.to_mp(prec), prec)),
        Op::Mul => MultiFloat::from_mp(&am.mul(&b.to_mp(prec), prec)),
        Op::Div => MultiFloat::from_mp(&am.div(&b.to_mp(prec), prec)),
        Op::Recip => {
            let one = MpFloat::from_f64(1.0, prec);
            MultiFloat::from_mp(&one.div(&am, prec))
        }
        Op::Sqrt => MultiFloat::from_mp(&am.sqrt(prec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F64x2;

    type Engine = Adaptive<f64>;

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s
    }

    /// A well-scaled random f64: mantissa in [1, 2), exponent in [-40, 40].
    fn rand_f64(s: &mut u64) -> f64 {
        let m = 1.0 + (lcg(s) >> 11) as f64 * 2.0f64.powi(-53);
        let e = (lcg(s) % 81) as i32 - 40;
        let sign = if lcg(s) & 1 == 0 { 1.0 } else { -1.0 };
        sign * m * 2.0f64.powi(e)
    }

    /// A random full (nonzero-tail) F64x2 from a product of two scalars.
    fn rand_val(s: &mut u64) -> F64x2 {
        F64x2::from_scalar(rand_f64(s)) * F64x2::from_scalar(rand_f64(s))
    }

    fn oracle_rel_err(got: F64x2, exact: &MpFloat) -> f64 {
        got.to_mp(512).rel_error_vs(exact)
    }

    #[test]
    fn clean_inputs_never_escalate() {
        let engine = Engine::default();
        let mut s = 0x5EED_u64;
        for i in 0..2000 {
            let a = rand_val(&mut s);
            let b = rand_val(&mut s);
            let r = match i % 6 {
                0 => engine.checked_add(a, b),
                1 => engine.checked_sub(a, b),
                2 => engine.checked_mul(a, b),
                3 => engine.checked_div(a, b),
                4 => engine.checked_recip(a),
                _ => engine.checked_sqrt(a.abs()),
            };
            assert_eq!(r.rung, Rung::N2, "op {i} left the base rung");
            assert!(!r.escalated());
            assert!(!r.flags.any());
        }
        let st = engine.stats();
        assert_eq!(st.ops, 2000);
        assert_eq!(st.escalations, 0);
        assert_eq!(st.oracle_falls, 0);
        assert_eq!(engine.rung(), Rung::N2);
        assert!(!engine.is_degraded());
    }

    #[test]
    fn tiny_divisor_boundary_climbs_to_oracle() {
        // pre_div trips for |b.hi| < 2^(TINY_EXP + 1) = 2^-1019: exactly at
        // the threshold is clean, one ulp below trips.
        // Build the ±1 ulp neighbours through the bit patterns — powi is
        // inexact this deep in the exponent range.
        let clean_head = 2.0f64.powi(-1019);
        let trip_heads = [
            2.0f64.powi(-1020),                               // 2^(MIN_EXP + 2)
            f64::from_bits(2.0f64.powi(-1020).to_bits() + 1), // +1 ulp
            f64::from_bits(clean_head.to_bits() - 1),         // 2^-1019 - 1 ulp
        ];
        for head in trip_heads {
            let engine = Engine::default();
            let r = engine.checked_div(F64x2::ONE, F64x2::from_scalar(head));
            assert!(r.escalated(), "head {head:e} did not escalate");
            assert_eq!(r.rung, Rung::Oracle);
            let exact = MpFloat::from_f64(1.0, 512).div(&MpFloat::from_f64(head, 512), 512);
            assert!(oracle_rel_err(r.value, &exact) < 2.0f64.powi(-99));
            assert_eq!(engine.stats().oracle_falls, 1);
        }
        let engine = Engine::default();
        let r = engine.checked_div(F64x2::ONE, F64x2::from_scalar(clean_head));
        assert!(!r.escalated(), "2^-1019 is outside the tiny-divisor regime");
        assert_eq!(r.rung, Rung::N2);
    }

    #[test]
    fn huge_head_boundary_escalates_addsub() {
        // pre_addsub trips at head exponent MAX_EXP (2^1023); 2^1022 is clean.
        let engine = Engine::default();
        let big = F64x2::from_scalar(2.0f64.powi(1023));
        let r = engine.checked_add(big, F64x2::ONE);
        assert!(r.escalated());
        assert_eq!(r.rung, Rung::Oracle);
        assert!(r.value.is_finite());
        let exact =
            MpFloat::from_f64(2.0f64.powi(1023), 512).add(&MpFloat::from_f64(1.0, 512), 512);
        assert!(oracle_rel_err(r.value, &exact) < 2.0f64.powi(-99));

        let engine = Engine::default();
        let r = engine.checked_add(F64x2::from_scalar(2.0f64.powi(1022)), F64x2::ONE);
        assert!(!r.escalated());
        assert_eq!(r.rung, Rung::N2);
    }

    #[test]
    fn strict_tolerance_trips_residual_bound() {
        // A cancelling addition leaves the exact head (the surviving tails,
        // 3·2^-55 here) far below the naive sum's magnitude scale: the
        // backward-style bound tolerates that by design at tol 40, but a
        // deliberately strict tolerance (58 > P) makes it trip, driving a
        // flags-clean escalation to the oracle.
        let policy = EscalationPolicy {
            tol_bits: 58,
            ..EscalationPolicy::default()
        };
        let engine = Engine::new(policy);
        let a = F64x2::from_components([1.0, 2.0f64.powi(-54)]);
        let b = F64x2::from_components([-1.0, 2.0f64.powi(-55)]);
        let r = engine.checked_add(a, b);
        assert!(r.escalated(), "residual bound did not trip at tol 58");
        assert_eq!(r.rung, Rung::Oracle);
        assert!(
            !r.flags.any(),
            "escalation was residual-driven, not flag-driven"
        );
        assert_eq!(r.value.to_f64(), 3.0 * 2.0f64.powi(-55));
    }

    #[test]
    fn hysteresis_decay_steps_back_down() {
        let policy = EscalationPolicy {
            decay: 2,
            ..EscalationPolicy::default()
        };
        let engine = Engine::new(policy);
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        engine.checked_div(F64x2::ONE, tiny);
        assert_eq!(engine.rung(), Rung::Oracle);

        let mut s = 7u64;
        let mut clean = |n: u32, rung: Rung| {
            for _ in 0..n {
                let r = engine.checked_mul(rand_val(&mut s), rand_val(&mut s));
                assert!(!r.escalated());
                assert_eq!(r.rung, rung);
            }
        };
        clean(1, Rung::Oracle);
        assert_eq!(engine.rung(), Rung::Oracle, "one op short of the decay");
        clean(1, Rung::Oracle);
        assert_eq!(engine.rung(), Rung::N2, "decay steps straight to the base");
        clean(8, Rung::N2);
        assert_eq!(engine.rung(), Rung::N2, "decay saturates at the base rung");

        // A second trip re-arms the residency and its full decay count.
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert_eq!((r.rung, r.escalations), (Rung::Oracle, 1));
        clean(2, Rung::Oracle);
        assert_eq!(engine.rung(), Rung::N2);
        let st = engine.stats();
        assert_eq!((st.escalations, st.oracle_falls), (2, 2));
    }

    #[test]
    fn sticky_residency_starts_ops_at_elevated_rung() {
        let engine = Engine::default(); // sticky, decay 16
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        engine.checked_div(F64x2::ONE, tiny);
        assert_eq!(engine.rung(), Rung::Oracle);
        // The next clean op runs at the resident rung without escalating.
        let r = engine.checked_mul(F64x2::from(3.0), F64x2::from(5.0));
        assert_eq!(r.rung, Rung::Oracle);
        assert!(!r.escalated());
        assert_eq!(r.value.to_f64(), 15.0);
    }

    #[test]
    fn per_op_mode_restarts_at_base_rung() {
        let policy = EscalationPolicy {
            sticky: false,
            ..EscalationPolicy::default()
        };
        let engine = Engine::new(policy);
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert!(r.escalated());
        assert_eq!(engine.rung(), Rung::N2, "per-op mode has no residency");
        let r = engine.checked_mul(F64x2::from(3.0), F64x2::from(5.0));
        assert_eq!(r.rung, Rung::N2);
        assert!(!r.escalated());
    }

    #[test]
    fn budget_exhaustion_degrades_to_oracle_fallback() {
        // Per-op mode, so the second tiny divisor escalates again instead
        // of running at a resident oracle.
        let policy = EscalationPolicy {
            budget: 2,
            sticky: false,
            ..EscalationPolicy::default()
        };
        let engine = Engine::new(policy);
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        // Each tiny-divisor op is one escalation: the first stays inside
        // the budget of 2, the second exhausts it.
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert_eq!((r.rung, r.escalations), (Rung::Oracle, 1));
        assert!(!engine.is_degraded());
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert_eq!((r.rung, r.escalations), (Rung::Oracle, 1));
        assert!(engine.is_degraded());

        // Degraded ops still recover through plain OracleFallback…
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert_eq!(r.rung, Rung::Oracle);
        assert_eq!(r.value.to_f64(), 2.0f64.powi(1021));
        assert!(r.flags.contains(GuardFlags::PRE_RANGE));
        // …and clean ops run the fast path under the same policy.
        let r = engine.checked_mul(F64x2::from(3.0), F64x2::from(5.0));
        assert_eq!(r.rung, Rung::N2);
        assert_eq!(r.value.to_f64(), 15.0);

        let st = engine.stats();
        assert_eq!(st.degraded_ops, 2);
        assert_eq!((st.escalations, st.oracle_falls), (2, 2));

        // A zero budget degrades from the first op.
        let engine = Engine::new(EscalationPolicy {
            budget: 0,
            ..EscalationPolicy::default()
        });
        assert!(engine.is_degraded());
        let r = engine.checked_div(F64x2::ONE, tiny);
        assert_eq!(r.rung, Rung::Oracle);
        assert_eq!(engine.stats().degraded_ops, 1);
    }

    #[test]
    fn max_rung_below_oracle_ships_the_base_result() {
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        let base = F64x2::ONE.checked_div(tiny, GuardPolicy::FastOnly);
        assert!(base.flags.any(), "the base kernel must trip for this test");
        for max_rung in [Rung::N2, Rung::N3, Rung::N4] {
            let engine = Engine::new(EscalationPolicy {
                max_rung,
                ..EscalationPolicy::default()
            });
            let r = engine.checked_div(F64x2::ONE, tiny);
            assert_eq!(r.rung, Rung::N2, "cap {max_rung}: no escalation");
            assert_eq!(r.escalations, 0);
            assert_eq!(r.flags, base.flags, "capped result reports its detectors");
            assert_eq!(r.value.components(), base.value.components());
            assert_eq!(engine.rung(), Rung::N2, "nothing becomes resident");
            let st = engine.stats();
            assert_eq!((st.escalations, st.oracle_falls), (0, 0));
        }
    }

    /// Every op of a collapse-regime sweep — tiny divisors and reciprocals
    /// of huge heads, deep-subnormal square roots, huge-head sums —
    /// escalates exactly once, straight to the oracle, and returns the
    /// oracle's bits.
    #[test]
    fn collapse_regimes_escalate_once_to_the_oracle() {
        let engine = Engine::new(EscalationPolicy {
            sticky: false,
            ..EscalationPolicy::default()
        });
        let prec = 4 * (f64::PRECISION + 1) + 64;
        let mut s = 0xC0_11A9_u64;
        let mut n = 0u64;
        for k in 0..40 {
            // Split the scale factors: `powi` overflows to 0 past 2^-1023.
            let m = 1.0 + (lcg(&mut s) >> 12) as f64 * 2.0f64.powi(-52);
            let tiny = F64x2::from_scalar(m * 2.0f64.powi(-521) * 2.0f64.powi(-500 - k % 20));
            let deep = F64x2::from_scalar(m * 2.0f64.powi(-530) * 2.0f64.powi(-530 - k % 12));
            let huge = F64x2::from_scalar(m * 2.0f64.powi(1023));
            let x = rand_val(&mut s);
            let cases = [
                (
                    engine.checked_div(x, tiny),
                    x.to_mp(prec).div(&tiny.to_mp(prec), prec),
                ),
                (engine.checked_sqrt(deep), deep.to_mp(prec).sqrt(prec)),
                (
                    engine.checked_add(huge, x),
                    huge.to_mp(prec).add(&x.to_mp(prec), prec),
                ),
                (
                    engine.checked_sub(huge, x),
                    huge.to_mp(prec).sub(&x.to_mp(prec), prec),
                ),
            ];
            for (i, (r, exact)) in cases.iter().enumerate() {
                assert_eq!(r.rung, Rung::Oracle, "k={k} case {i}");
                assert_eq!(r.escalations, 1, "k={k} case {i}");
                assert_eq!(r.flags, GuardFlags::NONE);
                let want = F64x2::from_mp(exact);
                assert_eq!(r.value.components(), want.components(), "k={k} case {i}");
                n += 1;
            }
        }
        let st = engine.stats();
        assert_eq!((st.ops, st.escalations, st.oracle_falls), (n, n, n));
    }

    #[test]
    fn special_values_bypass_the_ladder() {
        let engine = Engine::default();
        let nan = F64x2::from_scalar(f64::NAN);
        let r = engine.checked_add(nan, F64x2::ONE);
        assert!(r.value.is_nan());
        assert_eq!(r.rung, Rung::N2);
        assert!(!r.escalated());

        let r = engine.checked_div(F64x2::ONE, F64x2::ZERO);
        assert!(!r.value.is_finite());
        assert!(!r.escalated());

        let r = engine.checked_sqrt(F64x2::from(-1.0));
        assert!(r.value.is_nan());
        assert!(!r.escalated());

        let r = engine.checked_recip(F64x2::ZERO);
        assert!(!r.value.is_finite());
        assert!(!r.escalated());

        let st = engine.stats();
        assert_eq!(st.ops, 4);
        assert_eq!(st.escalations, 0);
        assert!(!engine.is_degraded());
    }

    #[test]
    fn escalated_sqrt_and_recip_match_oracle() {
        let engine = Engine::default();
        let tiny = F64x2::from_scalar(2.0f64.powi(-1021));
        let r = engine.checked_sqrt(tiny);
        assert!(r.escalated());
        let exact = MpFloat::from_f64(2.0f64.powi(-1021), 512).sqrt(512);
        assert!(oracle_rel_err(r.value, &exact) < 2.0f64.powi(-99));

        // Fresh engine: the sqrt escalation above left the sticky rung
        // resident at the oracle, which would absorb this op's escalation.
        let engine = Engine::default();
        let huge = F64x2::from_scalar(2.0f64.powi(1021));
        let r = engine.checked_recip(huge);
        assert!(r.escalated());
        let exact =
            MpFloat::from_f64(1.0, 512).div(&MpFloat::from_f64(2.0f64.powi(1021), 512), 512);
        assert!(oracle_rel_err(r.value, &exact) < 2.0f64.powi(-99));
    }

    #[test]
    fn rung_display_and_order() {
        assert_eq!(Rung::N2.to_string(), "N2");
        assert_eq!(Rung::Oracle.to_string(), "oracle");
        assert!(Rung::N2 < Rung::N3 && Rung::N3 < Rung::N4 && Rung::N4 < Rung::Oracle);
        for (i, r) in [Rung::N2, Rung::N3, Rung::N4, Rung::Oracle]
            .iter()
            .enumerate()
        {
            assert_eq!(r.index(), i);
        }
    }
}
