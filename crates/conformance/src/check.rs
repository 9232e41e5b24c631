//! Lockstep checkers: run one [`Case`] through every implementation that
//! claims to handle it and compare against the oracle within documented
//! bounds. See the crate docs for what counts as a divergence.

use crate::gen::{round_to_bits, ulp, valid_expansion};
use crate::{Case, Divergence};
use core::cmp::Ordering;
use mf_baselines::{campary::Expansion, dd::DoubleDouble, qd::QuadDouble};
use mf_blas::soa::{SoaMatrix, SoaVec};
use mf_blas::{kernels, parallel, simd, soa, tile, Matrix};
use mf_core::{FloatBase, GuardPolicy, MultiFloat};
use mf_mpsoft::MpFloat;
use mf_softfloat::SoftFloat;

/// Oracle working precision: far beyond any bound under test, so oracle
/// rounding is never the reason a check fails.
const ORACLE_PREC: u32 = 512;

/// Exact-result magnitudes at or above 2^OVERFLOW_EXP may legitimately
/// collapse to a non-finite expansion (no extended exponent range, §4.4).
const OVERFLOW_EXP: i64 = 1020;

/// Absolute error floor: once |got - exact| <= 2^ABS_FLOOR_EXP the result
/// is bit-adjacent in the deep subnormal range, where EFT error terms
/// flush and relative bounds are unachievable.
const ABS_FLOOR_EXP: i64 = -1040;

/// log2 of the documented relative error bound for `MultiFloat<f64, N>`,
/// with a couple of bits of conformance slack. These are the *enforced*
/// contract: a tighter observed error is fine, a looser one is a
/// divergence.
pub fn rel_bound_exp(op: &str, n: usize) -> i32 {
    let i = n - 2; // n in {2, 3, 4}
    match op {
        "add" | "sub" => [-102, -153, -204][i],
        "mul" => [-101, -151, -201][i],
        "div" | "recip" => [-99, -150, -200][i],
        "sqrt" | "rsqrt" => [-100, -152, -203][i],
        _ => unreachable!("no bound for {op}"),
    }
}

fn pow2f(e: i32) -> f64 {
    2.0f64.powi(e)
}

/// Exact value of a finite component slice as an MpFloat.
fn slice_to_mp(c: &[f64]) -> MpFloat {
    let mut acc = MpFloat::zero(ORACLE_PREC);
    for &v in c.iter().rev() {
        acc = acc.add(&MpFloat::from_f64(v, 53), ORACLE_PREC);
    }
    acc
}

fn mf<const N: usize>(c: &[f64]) -> MultiFloat<f64, N> {
    let mut a = [0.0; N];
    a.copy_from_slice(&c[..N]);
    MultiFloat::from_components(a)
}

fn diverge(case: &Case, impl_name: &str, detail: String) -> Divergence {
    Divergence {
        case: case.clone(),
        impl_name: impl_name.to_string(),
        detail,
    }
}

/// `|got - exact|` within the relative bound `2^rel_exp`, with the
/// absolute floor. Returns `(ok, observed_rel_err)`.
fn within(got: &MpFloat, exact: &MpFloat, rel_exp: i32) -> (bool, f64) {
    let diff = got.sub(exact, ORACLE_PREC).abs();
    if diff.is_zero() || diff.exp2().unwrap_or(i64::MIN) <= ABS_FLOOR_EXP {
        return (true, 0.0);
    }
    if exact.is_zero() {
        return (false, f64::INFINITY);
    }
    let rel = got.rel_error_vs(exact);
    (rel <= pow2f(rel_exp), rel)
}

/// Entry point: run every applicable check for one case.
pub fn run_case(case: &Case) -> Vec<Divergence> {
    macro_rules! for_n {
        ($f:ident) => {
            match case.n {
                2 => $f::<2>(case),
                3 => $f::<3>(case),
                4 => $f::<4>(case),
                other => vec![diverge(case, "harness", format!("unsupported N={other}"))],
            }
        };
    }
    match case.op.as_str() {
        "add" | "sub" | "mul" | "div" | "sqrt" | "recip" | "rsqrt" => for_n!(check_arith),
        "ln" => for_n!(check_ln),
        "cmp" => for_n!(check_cmp),
        "to_f64" => for_n!(check_to_f64),
        "mp_roundtrip" => for_n!(check_mp_roundtrip),
        "io_roundtrip" => for_n!(check_io_roundtrip),
        "parse" => for_n!(check_parse),
        "dot" | "axpy" => for_n!(check_vec_kernel),
        "gemv" | "gemm" => for_n!(check_matrix_kernel),
        op if op.starts_with("soft11_") => check_soft::<11>(case),
        op if op.starts_with("soft_") => check_soft::<53>(case),
        other => vec![diverge(case, "harness", format!("unknown op {other}"))],
    }
}

// ----------------------------------------------------------------------
// Expansion arithmetic
// ----------------------------------------------------------------------

fn check_arith<const N: usize>(case: &Case) -> Vec<Divergence> {
    let op = case.op.as_str();
    let a = &case.operands[0];
    let b = &case.operands[case.operands.len() - 1];
    let unary = matches!(op, "sqrt" | "recip" | "rsqrt");
    if !valid_expansion(a) || (!unary && !valid_expansion(b)) {
        return Vec::new(); // inadmissible spelling; not an input the API promises anything for
    }
    let xa = mf::<N>(a);
    let xb = mf::<N>(b);
    let result = match op {
        "add" => xa.add(xb),
        "sub" => xa.sub(xb),
        "mul" => xa.mul(xb),
        "div" => xa.div(xb),
        "recip" => xa.recip(),
        "rsqrt" => xa.rsqrt(),
        _ => xa.sqrt(),
    };
    let mut out = Vec::new();

    // Non-finite operands collapse to a non-finite result.
    let nonfinite_in =
        !a.iter().all(|v| v.is_finite()) || (!unary && !b.iter().all(|v| v.is_finite()));
    if nonfinite_in {
        if result.is_finite() {
            out.push(diverge(
                case,
                "mf-core",
                format!("non-finite input produced finite {:?}", result.components()),
            ));
        }
        return out;
    }
    // The square root (and inverse root) of a negative value is NaN.
    let root = matches!(op, "sqrt" | "rsqrt");
    if root && xa.is_negative() && !xa.is_zero() {
        if !result.is_nan() {
            out.push(diverge(case, "mf-core", format!("{op}(negative) not NaN")));
        }
        return out;
    }
    // Division by an exact zero collapses (NaN, not ±inf), and so do
    // recip(0) and rsqrt(0).
    let divisor_zero = match op {
        "div" => xb.is_zero(),
        "recip" | "rsqrt" => xa.is_zero(),
        _ => false,
    };
    if divisor_zero {
        if result.is_finite() {
            out.push(diverge(
                case,
                "mf-core",
                format!("{op} by zero produced a finite value"),
            ));
        }
        return out;
    }

    let a_mp = slice_to_mp(a);
    let b_mp = slice_to_mp(b);
    let exact = exact_arith(op, &a_mp, &b_mp);

    // Exact cancellation (and 0/x, sqrt(0)) must produce exactly zero.
    if exact.is_zero() {
        if !result.is_zero() {
            out.push(diverge(
                case,
                "mf-core",
                format!("exact zero result, got {:?}", result.components()),
            ));
        }
        return out;
    }

    let e_exact = exact.exp2().unwrap_or(0);
    let may_overflow = e_exact >= OVERFLOW_EXP;
    let bexp = rel_bound_exp(op, N);
    if !result.is_finite() {
        if !may_overflow {
            out.push(diverge(
                case,
                "mf-core",
                format!(
                    "spurious non-finite result {:?} (exact exp2 {e_exact})",
                    result.components()
                ),
            ));
        }
        return out;
    }
    let got = result.to_mp(ORACLE_PREC);
    let (ok, rel) = within(&got, &exact, bexp);
    if !ok && !may_overflow && !flush_excused(op, &got, &exact, &a_mp, &b_mp) {
        out.push(diverge(
            case,
            "mf-core",
            format!("rel err 2^{:.1} exceeds bound 2^{bexp}", rel.log2()),
        ));
    }

    // Baselines, regular regime only: their documented bounds don't cover
    // the edge regimes, and they are perf baselines, not the contract.
    // They offer no reciprocal or inverse root.
    if matches!(op, "recip" | "rsqrt") {
        return out;
    }
    let regular = (-400..=400).contains(&e_exact)
        && a.iter().chain(b.iter()).all(|&v| {
            v == 0.0 || ((-400..=400).contains(&(v.abs().log2() as i64)) && v.is_finite())
        });
    if !regular {
        return out;
    }
    let mag = a_mp.abs().add(&b_mp.abs(), ORACLE_PREC); // backward-bound scale for add/sub
    check_baselines::<N>(case, op, a, b, &exact, &mag, &mut out);
    out
}

/// The oracle result of an arithmetic op (`b` is ignored by the unary ops).
fn exact_arith(op: &str, a: &MpFloat, b: &MpFloat) -> MpFloat {
    match op {
        "add" => a.add(b, ORACLE_PREC),
        "sub" => a.sub(b, ORACLE_PREC),
        "mul" => a.mul(b, ORACLE_PREC),
        "div" => a.div(b, ORACLE_PREC),
        "recip" => MpFloat::from_f64(1.0, 53).div(a, ORACLE_PREC),
        "rsqrt" => MpFloat::from_f64(1.0, 53).div(&a.sqrt(ORACLE_PREC), ORACLE_PREC),
        _ => a.sqrt(ORACLE_PREC),
    }
}

/// Name under which guarded-mode divergences are reported.
pub fn guard_impl_name(policy: GuardPolicy) -> &'static str {
    match policy {
        GuardPolicy::FastOnly => "mf-guard-fastonly",
        GuardPolicy::OracleFallback => "mf-guard-oracle",
    }
}

/// log2 of the bound for results the guard recovered: the oracle rounds
/// the exact result once to `N` components, so a recovered result must sit
/// at the representation precision `2^-53N` with three bits of slack —
/// tighter than any kernel bound in [`rel_bound_exp`]. `-103` at `N = 2`.
pub fn recovered_bound_exp(n: usize) -> i32 {
    [-103, -156, -209][n - 2]
}

/// Lockstep entry point for the guarded API: like [`run_case`], but the
/// case runs through `checked_*` under `policy`. A result the kernel
/// produced is held to the documented accuracy bound, so the detectors may
/// not make it worse; a result the oracle produced is held to
/// [`recovered_bound_exp`], so the recovery lands on the exact result. The
/// only excuse for a non-finite result is an exact result that is itself
/// out of range. Non-arithmetic ops have no guarded form and return no
/// findings.
pub fn run_case_guarded(case: &Case, policy: GuardPolicy) -> Vec<Divergence> {
    check_guarded(case, policy).0
}

/// [`run_case_guarded`], also reporting whether the oracle produced the
/// result.
pub(crate) fn check_guarded(case: &Case, policy: GuardPolicy) -> (Vec<Divergence>, bool) {
    match case.op.as_str() {
        "add" | "sub" | "mul" | "div" | "recip" | "sqrt" => match case.n {
            2 => check_arith_guarded::<2>(case, policy),
            3 => check_arith_guarded::<3>(case, policy),
            4 => check_arith_guarded::<4>(case, policy),
            other => (
                vec![diverge(case, "harness", format!("unsupported N={other}"))],
                false,
            ),
        },
        _ => (Vec::new(), false),
    }
}

fn check_arith_guarded<const N: usize>(
    case: &Case,
    policy: GuardPolicy,
) -> (Vec<Divergence>, bool) {
    let op = case.op.as_str();
    let a = &case.operands[0];
    let b = &case.operands[case.operands.len() - 1];
    let unary = matches!(op, "sqrt" | "recip");
    if !valid_expansion(a) || (!unary && !valid_expansion(b)) {
        return (Vec::new(), false);
    }
    let name = guard_impl_name(policy);
    let xa = mf::<N>(a);
    let xb = mf::<N>(b);
    let g = match op {
        "add" => xa.checked_add(xb, policy),
        "sub" => xa.checked_sub(xb, policy),
        "mul" => xa.checked_mul(xb, policy),
        "div" => xa.checked_div(xb, policy),
        "recip" => xa.checked_recip(policy),
        _ => xa.checked_sqrt(policy),
    };
    let result = g.value;
    let recovered = g.recovered();
    let fail = |detail: String| (vec![diverge(case, name, detail)], recovered);
    let clean = (Vec::new(), recovered);

    // Documented special-value semantics pass through the guard unchanged.
    let nonfinite_in =
        !a.iter().all(|v| v.is_finite()) || (!unary && !b.iter().all(|v| v.is_finite()));
    if nonfinite_in {
        if result.is_finite() {
            let c = result.components();
            return fail(format!("non-finite input produced finite {c:?}"));
        }
        return clean;
    }
    if op == "sqrt" && xa.is_negative() && !xa.is_zero() {
        if !result.is_nan() {
            return fail("sqrt(negative) not NaN".into());
        }
        return clean;
    }
    let divisor_zero = match op {
        "div" => xb.is_zero(),
        "recip" => xa.is_zero(),
        _ => false,
    };
    if divisor_zero {
        if result.is_finite() {
            return fail(format!("{op} by zero produced a finite value"));
        }
        return clean;
    }

    let a_mp = slice_to_mp(a);
    let b_mp = slice_to_mp(b);
    let exact = exact_arith(op, &a_mp, &b_mp);
    if exact.is_zero() {
        if !result.is_zero() {
            let c = result.components();
            return fail(format!("exact zero result, got {c:?} via {:?}", g.path));
        }
        return clean;
    }

    // The only excuse for a non-finite result: the true result itself
    // rounds out of the representable range (the saturated non-finite
    // answer is then the *correct* report, and stays flagged in `g.flags`).
    let e_exact = exact.exp2().unwrap_or(0);
    if !result.is_finite() {
        if MultiFloat::<f64, N>::from_mp(&exact).is_finite() {
            let c = result.components();
            return fail(format!(
                "unrecovered collapse: {c:?} via {:?} (exact exp2 {e_exact})",
                g.path
            ));
        }
        return clean;
    }
    // A recovered result is correctly rounded: no overflow or flush excuse
    // applies to it.
    let got = result.to_mp(ORACLE_PREC);
    let bexp = if recovered {
        recovered_bound_exp(N)
    } else {
        rel_bound_exp(op, N)
    };
    let (ok, rel) = within(&got, &exact, bexp);
    let excused =
        !recovered && (e_exact >= OVERFLOW_EXP || flush_excused(op, &got, &exact, &a_mp, &b_mp));
    if !ok && !excused {
        return fail(format!(
            "rel err 2^{:.1} exceeds bound 2^{bexp} via {:?}",
            rel.log2(),
            g.path
        ));
    }
    clean
}

/// Newton-refined ops lose their correction when the residual flushes:
/// `div` computes `a - b*q` (magnitude ~ |a| * 2^-2p) and `sqrt` computes
/// `x - y*y`; once those land below 2^-1074 the refinement is silently
/// dropped and only the unrefined accuracy remains. The undelivered
/// correction is bounded by (flushed residual)/|b| resp. /(2*sqrt(x)), so
/// excuse the miss when `diff * |b|` (div) or `diff * |result|` (sqrt)
/// sits at the flush scale.
fn flush_excused(op: &str, got: &MpFloat, exact: &MpFloat, a: &MpFloat, b: &MpFloat) -> bool {
    let diff = got.sub(exact, ORACLE_PREC).abs();
    if diff.is_zero() {
        return true;
    }
    let e = |m: &MpFloat| m.exp2().unwrap_or(i64::MIN);
    match op {
        "div" => {
            // Residual flush: undelivered correction <= flush / |b| ...
            e(&diff.mul(&b.abs(), 64)) <= -1055
                // ... or recip-tail flush (|b| ~ 2^1020, so 1/b tails sit
                // below 2^-1074): error <= N * 2^-1074 * |a|.
                || (!a.is_zero() && e(&diff.div(&a.abs(), 64)) <= -1055)
        }
        // The reciprocal is the quotient 1 / a; the inverse root shares the
        // square root's flushes.
        "recip" => flush_excused("div", got, exact, &MpFloat::from_f64(1.0, 53), a),
        // Small x: the residual x - y*y flushes.
        "sqrt" | "rsqrt" => e(&diff.mul(&exact.abs(), 64)) <= -1055,
        _ => false,
    }
}

/// Backward-style check used for baseline additions: error measured
/// against |a| + |b| rather than the (possibly cancelled) result.
fn within_backward(got: &MpFloat, exact: &MpFloat, mag: &MpFloat, rel_exp: i32) -> (bool, f64) {
    let diff = got.sub(exact, ORACLE_PREC).abs();
    if diff.is_zero() || diff.exp2().unwrap_or(i64::MIN) <= ABS_FLOOR_EXP {
        return (true, 0.0);
    }
    let rel = diff.div(&mag.abs(), 64).to_f64();
    (rel <= pow2f(rel_exp), rel)
}

fn check_baselines<const N: usize>(
    case: &Case,
    op: &str,
    a: &[f64],
    b: &[f64],
    exact: &MpFloat,
    mag: &MpFloat,
    out: &mut Vec<Divergence>,
) {
    let backward = matches!(op, "add" | "sub");
    let sqrt_neg = op == "sqrt" && a[0] < 0.0;
    if sqrt_neg {
        return;
    }
    // DD at N = 2: Hida–Li–Bailey double-double bounds.
    if N == 2 {
        let da = DoubleDouble { hi: a[0], lo: a[1] };
        let db = DoubleDouble { hi: b[0], lo: b[1] };
        let r = match op {
            "add" => da.add(db),
            "sub" => da.sub(db),
            "mul" => da.mul(db),
            "div" => da.div(db),
            _ => da.sqrt(),
        };
        let bexp = if backward { -99 } else { -95 };
        push_baseline(case, "dd", &[r.hi, r.lo], exact, mag, backward, bexp, out);
    }
    // QD at N = 4 (accurate addition; the sloppy path carries no bound).
    if N == 4 {
        let qa = QuadDouble([a[0], a[1], a[2], a[3]]);
        let qb = QuadDouble([b[0], b[1], b[2], b[3]]);
        let r = match op {
            "add" => qa.accurate_add(qb),
            "sub" => qa.accurate_add(qb.neg()),
            "mul" => qa.mul(qb),
            "div" => qa.div(qb),
            _ => qa.sqrt(),
        };
        let bexp = if backward { -200 } else { -185 };
        push_baseline(case, "qd", &r.0, exact, mag, backward, bexp, out);
    }
    // CAMPARY certified expansions at every N.
    let mut ca = [0.0; N];
    ca.copy_from_slice(&a[..N]);
    let mut cb = [0.0; N];
    cb.copy_from_slice(&b[..N]);
    let (ea, eb) = (Expansion::<N>(ca), Expansion::<N>(cb));
    let r = match op {
        "add" => ea.add(eb),
        "sub" => ea.sub(eb),
        "mul" => ea.mul(eb),
        "div" => ea.div(eb),
        _ => ea.sqrt(),
    };
    let bexp = if backward {
        -(53 * N as i32 - 10)
    } else {
        -(53 * N as i32 - 18)
    };
    push_baseline(case, "campary", &r.0, exact, mag, backward, bexp, out);
}

#[allow(clippy::too_many_arguments)]
fn push_baseline(
    case: &Case,
    name: &str,
    comps: &[f64],
    exact: &MpFloat,
    mag: &MpFloat,
    backward: bool,
    bexp: i32,
    out: &mut Vec<Divergence>,
) {
    if !comps.iter().all(|v| v.is_finite()) {
        out.push(diverge(
            case,
            name,
            format!("non-finite result {comps:?} in the regular regime"),
        ));
        return;
    }
    let got = slice_to_mp(comps);
    let (ok, rel) = if backward {
        within_backward(&got, exact, mag, bexp)
    } else {
        within(&got, exact, bexp)
    };
    if !ok {
        out.push(diverge(
            case,
            name,
            format!("rel err 2^{:.1} exceeds bound 2^{bexp}", rel.log2()),
        ));
    }
}

// ----------------------------------------------------------------------
// ln (branchy domain checks: IEEE special values apply)
// ----------------------------------------------------------------------

fn check_ln<const N: usize>(case: &Case) -> Vec<Divergence> {
    let a = &case.operands[0];
    if !valid_expansion(a) {
        return Vec::new();
    }
    let xa = mf::<N>(a);
    let r = xa.ln();
    let h = a[0];
    let mut out = Vec::new();
    if h.is_nan() || h < 0.0 {
        if !r.is_nan() {
            out.push(diverge(case, "mf-core", "ln(neg/NaN) not NaN".into()));
        }
    } else if h == 0.0 {
        if r.hi() != f64::NEG_INFINITY {
            out.push(diverge(case, "mf-core", "ln(0) not -inf".into()));
        }
    } else if h == f64::INFINITY {
        if r.hi() != f64::INFINITY {
            out.push(diverge(case, "mf-core", "ln(+inf) not +inf".into()));
        }
    } else if (-500..=500).contains(&(h.abs().log2() as i64)) {
        // No MpFloat ln: check the identity exp(ln x) = x with slack for
        // the two transcendental evaluations compounding.
        if !r.is_finite() {
            out.push(diverge(
                case,
                "mf-core",
                "ln of a normal value not finite".into(),
            ));
            return out;
        }
        let back = r.exp();
        if !back.is_finite() {
            out.push(diverge(case, "mf-core", "exp(ln(x)) not finite".into()));
            return out;
        }
        let exact = slice_to_mp(a);
        let (ok, rel) = within(&back.to_mp(ORACLE_PREC), &exact, -(40 * N as i32));
        if !ok {
            out.push(diverge(
                case,
                "mf-core",
                format!("exp(ln(x)) off by 2^{:.1}", rel.log2()),
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// Comparisons
// ----------------------------------------------------------------------

enum Val {
    Nan,
    Inf(bool), // negative?
    Fin(MpFloat),
}

fn classify(c: &[f64]) -> Val {
    if c.iter().any(|v| v.is_nan()) {
        return Val::Nan;
    }
    if !c[0].is_finite() {
        return Val::Inf(c[0] < 0.0);
    }
    Val::Fin(slice_to_mp(c))
}

fn check_cmp<const N: usize>(case: &Case) -> Vec<Divergence> {
    let (a, b) = (&case.operands[0], &case.operands[1]);
    if !valid_expansion(a) || !valid_expansion(b) {
        return Vec::new();
    }
    let xa = mf::<N>(a);
    let xb = mf::<N>(b);
    let expected = match (classify(a), classify(b)) {
        (Val::Nan, _) | (_, Val::Nan) => None,
        (Val::Inf(na), Val::Inf(nb)) => Some(nb.cmp(&na)), // -inf < +inf
        (Val::Inf(neg), Val::Fin(_)) => Some(if neg {
            Ordering::Less
        } else {
            Ordering::Greater
        }),
        (Val::Fin(_), Val::Inf(neg)) => Some(if neg {
            Ordering::Greater
        } else {
            Ordering::Less
        }),
        (Val::Fin(ma), Val::Fin(mb)) => Some(ma.cmp(&mb)),
    };
    let mut out = Vec::new();
    let got = xa.partial_cmp(&xb);
    if got != expected {
        out.push(diverge(
            case,
            "mf-core",
            format!("partial_cmp {got:?}, oracle {expected:?}"),
        ));
        return out;
    }
    if (xa == xb) != (expected == Some(Ordering::Equal)) {
        out.push(diverge(
            case,
            "mf-core",
            "eq disagrees with partial_cmp".into(),
        ));
        return out;
    }
    // min/max select the right operand (NaN loses).
    let (mn, mx) = (xa.min(xb), xa.max(xb));
    let (want_min, want_max) = match expected {
        Some(Ordering::Less) | Some(Ordering::Equal) => (xa.components(), xb.components()),
        Some(Ordering::Greater) => (xb.components(), xa.components()),
        None => {
            if xa.is_nan() && xb.is_nan() {
                if !mn.is_nan() || !mx.is_nan() {
                    out.push(diverge(
                        case,
                        "mf-core",
                        "min/max of two NaNs not NaN".into(),
                    ));
                }
                return out;
            } else if xa.is_nan() {
                (xb.components(), xb.components())
            } else {
                (xa.components(), xa.components())
            }
        }
    };
    // For Equal, min/max may return either operand; both spell the value.
    let eq_ok = expected == Some(Ordering::Equal)
        && mn.components() == xa.components()
        && mx.components() == xa.components();
    if !eq_ok && (mn.components() != want_min || mx.components() != want_max) {
        out.push(diverge(
            case,
            "mf-core",
            format!("min/max picked {:?}/{:?}", mn.components(), mx.components()),
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Conversions
// ----------------------------------------------------------------------

fn check_to_f64<const N: usize>(case: &Case) -> Vec<Divergence> {
    let a = &case.operands[0];
    if !valid_expansion(a) {
        return Vec::new();
    }
    let xa = mf::<N>(a);
    let got = xa.to_f64();
    let mut out = Vec::new();
    if !a[0].is_finite() {
        if got.is_finite() {
            out.push(diverge(
                case,
                "mf-core",
                "non-finite expansion, finite f64".into(),
            ));
        }
        return out;
    }
    let exact = slice_to_mp(a);
    if exact.is_zero() {
        if got != 0.0 {
            out.push(diverge(
                case,
                "mf-core",
                format!("zero expansion -> {got:e}"),
            ));
        }
        return out;
    }
    // to_f64 is documented *faithful* (within 1 ulp), not correctly
    // rounded: a tail below the head's rounding point can miss a tie-break.
    let cr = exact.to_f64(); // correctly rounded (post-fix, incl. subnormals)
    if got == cr {
        return out;
    }
    let diff = exact.sub(&MpFloat::from_f64(got, 53), ORACLE_PREC).abs();
    let tol = MpFloat::from_f64(ulp(cr), 53);
    if diff.cmp(&tol) == Ordering::Greater {
        out.push(diverge(
            case,
            "mf-core",
            format!("to_f64 {got:e} more than 1 ulp from exact (CR {cr:e})"),
        ));
    }
    out
}

fn check_mp_roundtrip<const N: usize>(case: &Case) -> Vec<Divergence> {
    let a = &case.operands[0];
    if !valid_expansion(a) || !a[0].is_finite() {
        return Vec::new();
    }
    let xa = mf::<N>(a);
    let back = MultiFloat::<f64, N>::from_mp(&xa.to_mp(ORACLE_PREC));
    let mut out = Vec::new();
    // The value is exactly representable (it IS an N-term sum), so the
    // correctly rounded conversion back must be exact.
    if !back.is_finite() || !back.sub(xa).is_zero() {
        out.push(diverge(
            case,
            "mf-core",
            format!("to_mp/from_mp changed the value: {:?}", back.components()),
        ));
    }
    out
}

fn check_io_roundtrip<const N: usize>(case: &Case) -> Vec<Divergence> {
    let a = &case.operands[0];
    if !valid_expansion(a) {
        return Vec::new();
    }
    let xa = mf::<N>(a);
    let mut out = Vec::new();
    if !a[0].is_finite() {
        let s = xa.to_decimal_string(20);
        match s.parse::<MultiFloat<f64, N>>() {
            Err(e) => out.push(diverge(
                case,
                "mf-core",
                format!("parse of {s:?} failed: {e}"),
            )),
            Ok(back) => {
                let class_ok = if xa.is_nan() {
                    back.is_nan()
                } else {
                    back.hi() == xa.hi()
                };
                if !class_ok {
                    out.push(diverge(
                        case,
                        "mf-core",
                        format!("{s:?} parsed back differently"),
                    ));
                }
            }
        }
        return out;
    }
    if xa.is_zero() {
        let back = match xa.to_decimal_string(10).parse::<MultiFloat<f64, N>>() {
            Ok(b) => b,
            Err(e) => {
                out.push(diverge(
                    case,
                    "mf-core",
                    format!("zero failed to parse back: {e}"),
                ));
                return out;
            }
        };
        if !back.is_zero() {
            out.push(diverge(
                case,
                "mf-core",
                "printed zero parsed back nonzero".into(),
            ));
        }
        return out;
    }
    // Exact roundtrip needs the printed decimal to be *exact*: the
    // expansion grid is denser than any contiguous format (sparse tails),
    // so "enough digits to identify the value" is not enough — a decimal
    // within half an ulp of x still parses to a *different* expansion.
    // Every binary float has a finite decimal expansion; print all of it
    // when (a) it is not absurdly long and (b) the parse working precision
    // io_prec = 54N + 64 can hold the full component span.
    let nonzero: Vec<f64> = a.iter().copied().filter(|&v| v != 0.0).collect();
    let e_hi = nonzero[0].abs().log2().floor() as i64;
    let lsb = nonzero.iter().map(|&v| lsb_exp(v)).min().unwrap();
    let span = e_hi - lsb + 1;
    let io_prec = 54 * N as i64 + 64;
    // Significant digits of the exact decimal: digits(K * 5^-lsb) for a
    // fractional tail, digits(K * 2^lsb) for a pure integer.
    let exact_digits =
        span * 302 / 1000 + if lsb < 0 { (-lsb) * 699 } else { lsb * 302 } / 1000 + 4;
    if span <= io_prec - 4 && exact_digits <= 900 {
        let s = xa.to_decimal_string(exact_digits as usize);
        match s.parse::<MultiFloat<f64, N>>() {
            Err(e) => out.push(diverge(
                case,
                "mf-core",
                format!("parse of printed value failed: {e}"),
            )),
            Ok(back) => {
                // Compare *values*, not spellings: a boundary-tie input
                // like [m, -ulp/2] legitimately parses back as the
                // canonical [m - ulp, +ulp/2].
                let same = back
                    .to_mp(ORACLE_PREC)
                    .sub(&slice_to_mp(a), ORACLE_PREC)
                    .is_zero();
                if !same {
                    out.push(diverge(
                        case,
                        "mf-core",
                        format!(
                            "exact print ({exact_digits} digits)/parse changed {:?} -> {:?}",
                            xa.components(),
                            back.components()
                        ),
                    ));
                }
            }
        }
        return out;
    }
    // Otherwise only faithfulness at the printed precision is on offer.
    let digits = 40;
    let s = xa.to_decimal_string(digits);
    match s.parse::<MultiFloat<f64, N>>() {
        Err(e) => out.push(diverge(
            case,
            "mf-core",
            format!("parse of printed value failed: {e}"),
        )),
        Ok(back) => {
            let exact = slice_to_mp(a);
            let diff = back.to_mp(ORACLE_PREC).sub(&exact, ORACLE_PREC).abs();
            let ok = diff.is_zero()
                || diff.exp2().unwrap_or(i64::MIN) <= ABS_FLOOR_EXP
                || back.to_mp(ORACLE_PREC).rel_error_vs(&exact) <= 1e-36;
            if !ok {
                out.push(diverge(
                    case,
                    "mf-core",
                    format!("print({digits} digits)/parse strayed beyond 1e-36: {s}"),
                ));
            }
        }
    }
    out
}

/// Exponent of the lowest set bit of a finite nonzero f64.
fn lsb_exp(v: f64) -> i64 {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let mant = bits & 0x000f_ffff_ffff_ffff;
    let (m, ulp_exp) = if biased == 0 {
        (mant, -1074)
    } else {
        (mant | (1 << 52), biased - 1075)
    };
    ulp_exp + m.trailing_zeros() as i64
}

fn check_parse<const N: usize>(case: &Case) -> Vec<Divergence> {
    let Some(text) = case.text.as_deref() else {
        return vec![diverge(case, "harness", "parse case without text".into())];
    };
    let mut out = Vec::new();
    let parsed = match text.parse::<MultiFloat<f64, N>>() {
        Ok(x) => x,
        Err(e) => {
            out.push(diverge(
                case,
                "mf-core",
                format!("parse({text:?}) failed: {e}"),
            ));
            return out;
        }
    };
    let t = text.trim();
    let (neg, rest) = match t.as_bytes().first() {
        Some(b'-') => (true, &t[1..]),
        Some(b'+') => (false, &t[1..]),
        _ => (false, t),
    };
    if rest.eq_ignore_ascii_case("inf") || rest.eq_ignore_ascii_case("infinity") {
        let want = if neg {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        if parsed.hi() != want {
            out.push(diverge(
                case,
                "mf-core",
                format!("parse({text:?}) -> {:?}", parsed.components()),
            ));
        }
        return out;
    }
    if rest.eq_ignore_ascii_case("nan") {
        if !parsed.is_nan() {
            out.push(diverge(case, "mf-core", format!("parse({text:?}) not NaN")));
        }
        return out;
    }
    let Ok(mp) = MpFloat::from_decimal_str(t, 2400) else {
        out.push(diverge(
            case,
            "mf-core",
            format!("parse accepted {text:?}, oracle rejects"),
        ));
        return out;
    };
    if mp.exp2().unwrap_or(i64::MIN) > 1024 {
        // Out of range: must overflow to the correctly signed infinity,
        // never to a saturated [MAX, MAX, ..] expansion.
        let want = if mp.is_negative() {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        if parsed.hi() != want || parsed.components()[1..].iter().any(|&c| c != 0.0) {
            out.push(diverge(
                case,
                "mf-core",
                format!(
                    "overflow parse -> {:?}, want pure {want}",
                    parsed.components()
                ),
            ));
        }
        return out;
    }
    if mp.is_zero() {
        if !parsed.is_zero() {
            out.push(diverge(case, "mf-core", format!("parse({text:?}) nonzero")));
        }
        return out;
    }
    if !parsed.is_finite() {
        out.push(diverge(
            case,
            "mf-core",
            format!("in-range parse -> {:?}", parsed.components()),
        ));
        return out;
    }
    let (ok, rel) = within(&parsed.to_mp(ORACLE_PREC), &mp, -(53 * N as i32 - 2));
    if !ok {
        out.push(diverge(
            case,
            "mf-core",
            format!("parse off by 2^{:.1}", rel.log2()),
        ));
    }
    out
}

// ----------------------------------------------------------------------
// BLAS kernels
// ----------------------------------------------------------------------

fn parse_vec<const N: usize>(flat: &[f64]) -> Option<Vec<MultiFloat<f64, N>>> {
    if flat.is_empty() || !flat.len().is_multiple_of(N) {
        return None;
    }
    let mut out = Vec::with_capacity(flat.len() / N);
    for chunk in flat.chunks(N) {
        if !valid_expansion(chunk) || !chunk[0].is_finite() {
            return None;
        }
        out.push(mf::<N>(chunk));
    }
    Some(out)
}

/// Like [`parse_vec`] but with no validity requirement on the components:
/// used for the `beta == 0` overwrite checks, where the prior contents of
/// `C`/`y` are deliberately NaN-poisoned and must not affect the result.
fn parse_vec_raw<const N: usize>(flat: &[f64]) -> Option<Vec<MultiFloat<f64, N>>> {
    if flat.is_empty() || !flat.len().is_multiple_of(N) {
        return None;
    }
    Some(flat.chunks(N).map(mf::<N>).collect())
}

/// Error scale for a fused multiply-accumulate chain of `terms` products:
/// each partial contributes at most its own rounding on top of the
/// magnitude sum.
fn chain_bound_exp(n: usize, terms: usize) -> i32 {
    rel_bound_exp("mul", n) + (usize::BITS - (terms + 4).leading_zeros()) as i32 + 2
}

fn check_vec_kernel<const N: usize>(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    match case.op.as_str() {
        "dot" => {
            let (Some(x), Some(y)) = (
                parse_vec::<N>(&case.operands[0]),
                parse_vec::<N>(&case.operands[1]),
            ) else {
                return out;
            };
            if x.len() != y.len() {
                return out;
            }
            let got = kernels::dot(&x, &y);
            let par = parallel::dot(&x, &y, 3);
            // Lock-step SIMD class: the SoA path dispatches through the
            // active `simd` realization (MF_SIMD); it must match the
            // portable `Lanes` instantiation of the same body bit for bit —
            // same lane structure, correctly-rounded lane ops, no tolerance.
            let sx = SoaVec::from_slice(&x);
            let sy = SoaVec::from_slice(&y);
            let simd_got = soa::dot(&sx, &sy);
            let simd_ref =
                simd::dot_lockstep_portable::<f64, N>(&sx.comps, 0, &sy.comps, 0, x.len());
            if simd_got.components() != simd_ref.components() {
                out.push(diverge(
                    case,
                    "blas-simd",
                    format!(
                        "simd dot {:?} != lockstep {:?} (isa {})",
                        simd_got.components(),
                        simd_ref.components(),
                        simd::active()
                    ),
                ));
            }
            let mut exact = MpFloat::zero(ORACLE_PREC);
            let mut mag = MpFloat::zero(ORACLE_PREC);
            for i in 0..x.len() {
                let t = x[i]
                    .to_mp(ORACLE_PREC)
                    .mul(&y[i].to_mp(ORACLE_PREC), ORACLE_PREC);
                mag = mag.add(&t.abs(), ORACLE_PREC);
                exact = exact.add(&t, ORACLE_PREC);
            }
            let bexp = chain_bound_exp(N, x.len());
            for (name, r) in [("blas-serial", got), ("blas-parallel", par)] {
                if exact.is_zero() && mag.is_zero() {
                    if !r.is_zero() {
                        out.push(diverge(case, name, "dot of zeros not zero".into()));
                    }
                    continue;
                }
                if !r.is_finite() {
                    if mag.exp2().unwrap_or(0) < OVERFLOW_EXP {
                        out.push(diverge(case, name, "spurious non-finite dot".into()));
                    }
                    continue;
                }
                let (ok, rel) = within_backward(&r.to_mp(ORACLE_PREC), &exact, &mag, bexp);
                if !ok {
                    out.push(diverge(
                        case,
                        name,
                        format!("dot err 2^{:.1} vs bound 2^{bexp}", rel.log2()),
                    ));
                }
            }
        }
        _ => {
            // axpy
            let alpha_c = &case.operands[0];
            if !valid_expansion(alpha_c) || !alpha_c[0].is_finite() {
                return out;
            }
            let alpha = mf::<N>(alpha_c);
            let (Some(x), Some(y)) = (
                parse_vec::<N>(&case.operands[1]),
                parse_vec::<N>(&case.operands[2]),
            ) else {
                return out;
            };
            if x.len() != y.len() {
                return out;
            }
            let mut got = y.clone();
            kernels::axpy(alpha, &x, &mut got);
            let mut par = y.clone();
            parallel::axpy(alpha, &x, &mut par, 3);
            // SIMD class: SoA AXPY (one element loop, vectorized inside the
            // FMA frame) must equal the serial AoS kernel bitwise — the
            // same mul/add per element, correctly rounded either way (see
            // DESIGN.md).
            let sx = SoaVec::from_slice(&x);
            let mut sy = SoaVec::from_slice(&y);
            soa::axpy(alpha, &sx, &mut sy);
            for i in 0..x.len() {
                if sy.get(i).components() != got[i].components() {
                    out.push(diverge(
                        case,
                        "blas-simd",
                        format!(
                            "simd axpy[{i}] {:?} != serial {:?} (isa {})",
                            sy.get(i).components(),
                            got[i].components(),
                            simd::active()
                        ),
                    ));
                }
            }
            let al = alpha.to_mp(ORACLE_PREC);
            let bexp = chain_bound_exp(N, 2);
            for i in 0..x.len() {
                let t = al.mul(&x[i].to_mp(ORACLE_PREC), ORACLE_PREC);
                let mag = t.abs().add(&y[i].to_mp(ORACLE_PREC).abs(), ORACLE_PREC);
                let exact = t.add(&y[i].to_mp(ORACLE_PREC), ORACLE_PREC);
                for (name, r) in [("blas-serial", got[i]), ("blas-parallel", par[i])] {
                    if mag.is_zero() {
                        if !r.is_zero() {
                            out.push(diverge(case, name, format!("axpy[{i}] of zeros not zero")));
                        }
                        continue;
                    }
                    if !r.is_finite() {
                        if mag.exp2().unwrap_or(0) < OVERFLOW_EXP {
                            out.push(diverge(
                                case,
                                name,
                                format!("axpy[{i}] spuriously non-finite"),
                            ));
                        }
                        continue;
                    }
                    let (ok, rel) = within_backward(&r.to_mp(ORACLE_PREC), &exact, &mag, bexp);
                    if !ok {
                        out.push(diverge(
                            case,
                            name,
                            format!("axpy[{i}] err 2^{:.1} vs bound 2^{bexp}", rel.log2()),
                        ));
                    }
                }
            }
        }
    }
    out
}

fn check_matrix_kernel<const N: usize>(case: &Case) -> Vec<Divergence> {
    let mut out = Vec::new();
    let dims = &case.operands[0];
    let gemm = case.op == "gemm";
    let (m, k, p) = (
        dims[0] as usize,
        dims[1] as usize,
        if gemm { dims[2] as usize } else { 1 },
    );
    if m == 0 || k == 0 || p == 0 {
        return out;
    }
    let alpha_c = &case.operands[1];
    let beta_c = &case.operands[2];
    if !valid_expansion(alpha_c)
        || !valid_expansion(beta_c)
        || !alpha_c[0].is_finite()
        || !beta_c[0].is_finite()
    {
        return out;
    }
    let alpha = mf::<N>(alpha_c);
    let beta = mf::<N>(beta_c);
    let Some(a) = parse_vec::<N>(&case.operands[3]) else {
        return out;
    };
    let Some(b) = parse_vec::<N>(&case.operands[4]) else {
        return out;
    };
    // `beta == 0` is the overwrite path: C's prior contents must be
    // ignored entirely, so the generator poisons them with NaN and the
    // parse is lenient (any component values accepted).
    let c0 = if beta.is_zero() {
        match parse_vec_raw::<N>(&case.operands[5]) {
            Some(v) => v,
            None => return out,
        }
    } else {
        match parse_vec::<N>(&case.operands[5]) {
            Some(v) => v,
            None => return out,
        }
    };
    if a.len() != m * k {
        return out;
    }
    let al = alpha.to_mp(ORACLE_PREC);
    let be = beta.to_mp(ORACLE_PREC);
    let bexp = chain_bound_exp(N, k + 1);
    if gemm {
        if b.len() != k * p || c0.len() != m * p {
            return out;
        }
        let ma = Matrix {
            rows: m,
            cols: k,
            data: a.clone(),
        };
        let mb = Matrix {
            rows: k,
            cols: p,
            data: b.clone(),
        };
        let mut cs = Matrix {
            rows: m,
            cols: p,
            data: c0.clone(),
        };
        let mut cp = Matrix {
            rows: m,
            cols: p,
            data: c0.clone(),
        };
        kernels::gemm(alpha, &ma, &mb, beta, &mut cs);
        parallel::gemm(alpha, &ma, &mb, beta, &mut cp, 3);
        for i in 0..m * p {
            if cs.data[i].components() != cp.data[i].components() {
                out.push(diverge(
                    case,
                    "blas-parallel",
                    format!("gemm[{i}] differs from serial"),
                ));
                return out;
            }
        }
        // Pooled SoA path: bit-identical to serial at any row chunking.
        let sa = SoaMatrix::from_fn(m, k, |i, j| a[i * k + j]);
        let sb = SoaMatrix::from_fn(k, p, |i, j| b[i * p + j]);
        let mut sc = SoaMatrix::from_fn(m, p, |i, j| c0[i * p + j]);
        tile::gemm_tiled(alpha, &sa, &sb, beta, &mut sc, 3);
        for i in 0..m {
            for j in 0..p {
                if sc.get(i, j).components() != cs.data[i * p + j].components() {
                    out.push(diverge(
                        case,
                        "blas-tiled",
                        format!("gemm[{i},{j}] differs from serial"),
                    ));
                    return out;
                }
            }
        }
        for i in 0..m {
            for j in 0..p {
                let mut exact = if beta.is_zero() {
                    // Overwrite semantics: prior C (possibly NaN) ignored.
                    MpFloat::zero(ORACLE_PREC)
                } else {
                    be.mul(&c0[i * p + j].to_mp(ORACLE_PREC), ORACLE_PREC)
                };
                let mut mag = exact.abs();
                for t in 0..k {
                    let term = al
                        .mul(&a[i * k + t].to_mp(ORACLE_PREC), ORACLE_PREC)
                        .mul(&b[t * p + j].to_mp(ORACLE_PREC), ORACLE_PREC);
                    mag = mag.add(&term.abs(), ORACLE_PREC);
                    exact = exact.add(&term, ORACLE_PREC);
                }
                let r = cs.data[i * p + j];
                if let Some(d) =
                    entry_divergence::<N>(case, "blas-serial", r, &exact, &mag, bexp, i * p + j)
                {
                    out.push(d);
                    return out;
                }
            }
        }
    } else {
        let x = match parse_vec::<N>(&case.operands[4]) {
            Some(v) if v.len() == k => v,
            _ => return out,
        };
        // operands[5] was already parsed above (leniently when beta == 0).
        let y0 = c0;
        if y0.len() != m {
            return out;
        }
        let ma = Matrix {
            rows: m,
            cols: k,
            data: a.clone(),
        };
        let mut ys = y0.clone();
        let mut yp = y0.clone();
        kernels::gemv(alpha, &ma, &x, beta, &mut ys);
        parallel::gemv(alpha, &ma, &x, beta, &mut yp, 3);
        for i in 0..m {
            if ys[i].components() != yp[i].components() {
                out.push(diverge(
                    case,
                    "blas-parallel",
                    format!("gemv[{i}] differs from serial"),
                ));
                return out;
            }
            let mut exact = if beta.is_zero() {
                // Overwrite semantics: prior y (possibly NaN) ignored.
                MpFloat::zero(ORACLE_PREC)
            } else {
                be.mul(&y0[i].to_mp(ORACLE_PREC), ORACLE_PREC)
            };
            let mut mag = exact.abs();
            for t in 0..k {
                let term = al
                    .mul(&a[i * k + t].to_mp(ORACLE_PREC), ORACLE_PREC)
                    .mul(&x[t].to_mp(ORACLE_PREC), ORACLE_PREC);
                mag = mag.add(&term.abs(), ORACLE_PREC);
                exact = exact.add(&term, ORACLE_PREC);
            }
            if let Some(d) =
                entry_divergence::<N>(case, "blas-serial", ys[i], &exact, &mag, bexp, i)
            {
                out.push(d);
                return out;
            }
        }
    }
    out
}

fn entry_divergence<const N: usize>(
    case: &Case,
    name: &str,
    r: MultiFloat<f64, N>,
    exact: &MpFloat,
    mag: &MpFloat,
    bexp: i32,
    idx: usize,
) -> Option<Divergence> {
    if mag.is_zero() {
        return (!r.is_zero())
            .then(|| diverge(case, name, format!("entry {idx}: zeros in, nonzero out")));
    }
    if !r.is_finite() {
        return (mag.exp2().unwrap_or(0) < OVERFLOW_EXP)
            .then(|| diverge(case, name, format!("entry {idx}: spuriously non-finite")));
    }
    let (ok, rel) = within_backward(&r.to_mp(ORACLE_PREC), exact, mag, bexp);
    (!ok).then(|| {
        diverge(
            case,
            name,
            format!("entry {idx}: err 2^{:.1} vs bound 2^{bexp}", rel.log2()),
        )
    })
}

// ----------------------------------------------------------------------
// SoftFloat substrate
// ----------------------------------------------------------------------

fn check_soft<const P: u32>(case: &Case) -> Vec<Divergence> {
    let op = case.op.rsplit('_').next().unwrap();
    let a = case.operands[0][0];
    let b = if case.operands.len() > 1 {
        case.operands[1][0]
    } else {
        0.0
    };
    let mut out = Vec::new();
    if !a.is_finite() || !b.is_finite() {
        return out;
    }
    let sa = SoftFloat::<P>::from_f64(a);
    let sb = SoftFloat::<P>::from_f64(b);
    let got = match op {
        "add" => sa + sb,
        "sub" => sa - sb,
        "mul" => sa * sb,
        "div" => sa / sb,
        "recip" => sa.recip(),
        "rsqrt" => sa.sqrt().recip(),
        _ => sa.sqrt(),
    };
    if P == 53 {
        // Same precision as hardware: results must be bit-identical as
        // long as neither operand nor the result leaves the normal range
        // (SoftFloat has no subnormals and a wider exponent range).
        let hw = match op {
            "add" => a + b,
            "sub" => a - b,
            "mul" => a * b,
            "div" => a / b,
            "recip" => a.recip(),
            "rsqrt" => a.sqrt().recip(),
            _ => a.sqrt(),
        };
        let subn = |v: f64| v != 0.0 && v.abs() < f64::MIN_POSITIVE;
        if !hw.is_finite() || subn(hw) || subn(a) || subn(b) || (op == "div" && b == 0.0) {
            return out;
        }
        if hw.is_nan() {
            if !got.is_nan() {
                out.push(diverge(
                    case,
                    "softfloat-p53",
                    format!("{op}: want NaN, got {got}"),
                ));
            }
            return out;
        }
        if got.to_f64().to_bits() != hw.to_bits() {
            out.push(diverge(
                case,
                "softfloat-p53",
                format!("{op}({a:e}, {b:e}) = {:e}, hardware {hw:e}", got.to_f64()),
            ));
        }
    } else {
        // p = 11 vs the oracle rounded to 11 bits. Operands are
        // pre-rounded so both sides see identical inputs.
        debug_assert_eq!(a, round_to_bits(a, P));
        if op == "div" && b == 0.0 {
            return out;
        }
        if op == "sqrt" && a < 0.0 {
            if !got.is_nan() {
                out.push(diverge(case, "softfloat-p11", "sqrt(neg) not NaN".into()));
            }
            return out;
        }
        let ma = MpFloat::from_f64(a, P);
        let mb = MpFloat::from_f64(b, P);
        let want = match op {
            "add" => ma.add(&mb, P),
            "sub" => ma.sub(&mb, P),
            "mul" => ma.mul(&mb, P),
            "div" => {
                if mb.is_zero() {
                    return out;
                }
                ma.div(&mb, P)
            }
            // Both roundings of the two-step inverse root, like the
            // hardware's `a.sqrt().recip()`.
            "recip" => MpFloat::from_f64(1.0, P).div(&ma, P),
            "rsqrt" => MpFloat::from_f64(1.0, P).div(&ma.sqrt(P), P),
            _ => ma.sqrt(P),
        };
        if got.to_f64() != want.to_f64() {
            out.push(diverge(
                case,
                "softfloat-p11",
                format!(
                    "{op}({a:e}, {b:e}) = {:e}, oracle {:e}",
                    got.to_f64(),
                    want.to_f64()
                ),
            ));
        }
    }
    out
}
