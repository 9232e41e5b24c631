//! Empirical FPAN verification (DESIGN.md substitution T1).
//!
//! The paper proves FPAN correctness with SMT solvers over symbolic
//! floating-point domains (Ref. [53]); reproducing those proofs requires
//! the released FPANVerifier and an SMT solver, neither available offline.
//! This module verifies the same two correctness conditions *empirically*
//! (paper §3):
//!
//! 1. **Nonoverlap**: output terms satisfy `|z_i| <= ulp(z_{i-1}) / 2` for
//!    all generated inputs;
//! 2. **Error bound**: the discarded rounding error
//!    `|Σ inputs - Σ outputs| <= 2^-q · |Σ inputs|`.
//!
//! Two execution substrates are used:
//!
//! * `f64` with the exact `mf-mpsoft` oracle — adversarial stochastic
//!   suites at the production precision;
//! * [`SoftFloat<P>`] with an exact `i128` scaled-integer reference —
//!   cheap enough for the dense sweeps and for the inner loop of the
//!   simulated-annealing search (the paper's Figure 1 uses p = 6 for
//!   exactly this kind of small-precision reasoning).
//!
//! Additionally, every `FastTwoSum` gate's magnitude precondition is
//! monitored; a violation fails verification even if the numerical result
//! happens to be correct on that input (paper §3's second condition is
//! about *all* inputs, and a violated precondition is a latent bug).

use crate::networks::{add_spec, mul_spec};
use crate::Fpan;
use mf_eft::FloatBase;
use mf_mpsoft::MpFloat;
use mf_softfloat::SoftFloat;
use mf_telemetry::Counter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

static VERIFY_TRIALS: Counter = Counter::new("fpan.verify.trials");
static VERIFY_VIOLATIONS: Counter = Counter::new("fpan.verify.violations");

/// What went wrong on a particular input vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// Output terms overlap.
    Overlap,
    /// Discarded error exceeded the claimed bound; the payload is the
    /// observed log2 relative error.
    ErrorBound(f64),
    /// A `FastTwoSum` gate saw `|hi| < |lo|` with both nonzero.
    Precondition,
}

/// A failed trial: the input vector (as f64 values) and the failure kind.
#[derive(Debug, Clone)]
pub struct Violation {
    pub inputs: Vec<f64>,
    pub kind: ViolationKind,
}

/// Verification outcome over a batch of trials.
#[derive(Debug, Clone)]
pub struct Report {
    /// True iff no violations were observed.
    pub pass: bool,
    /// Worst observed log2 relative discarded error (`-inf` if every trial
    /// was exact).
    pub worst_error_exp: f64,
    /// Number of violating trials.
    pub violations: usize,
    /// First violation, for debugging.
    pub first_violation: Option<Violation>,
    /// Trials run.
    pub trials: usize,
}

impl Report {
    fn new() -> Self {
        Report {
            pass: true,
            worst_error_exp: f64::NEG_INFINITY,
            violations: 0,
            first_violation: None,
            trials: 0,
        }
    }

    /// Count one trial (process-wide telemetry included).
    fn trial(&mut self) {
        self.trials += 1;
        VERIFY_TRIALS.incr();
    }

    fn record(&mut self, inputs: &[f64], kind: ViolationKind) {
        self.pass = false;
        self.violations += 1;
        VERIFY_VIOLATIONS.incr();
        if self.first_violation.is_none() {
            self.first_violation = Some(Violation {
                inputs: inputs.to_vec(),
                kind,
            });
        }
    }
}

/// Configuration for a verification run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random trials.
    pub trials: usize,
    /// Claimed bound: discarded error must be `<= 2^-q |Σ inputs|`.
    pub q: i32,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Config {
    pub fn new(trials: usize, q: i32, seed: u64) -> Self {
        Config { trials, q, seed }
    }
}

fn is_nonoverlapping<T: FloatBase>(v: &[T]) -> bool {
    for i in 1..v.len() {
        if v[i].is_zero() {
            continue;
        }
        if v[i - 1].is_zero() {
            return false;
        }
        if v[i].abs() > v[i - 1].ulp() * T::HALF {
            return false;
        }
    }
    true
}

/// Random nonoverlapping expansion of `n` terms of base type `T`, with
/// adversarial features: boundary-tight gaps, wide gaps, early truncation,
/// and sign mixtures.
pub fn random_expansion<T: FloatBase>(rng: &mut SmallRng, n: usize, head_exp: i32) -> Vec<T> {
    let p = T::PRECISION as i32;
    let mut out = vec![T::ZERO; n];
    let mut e = head_exp;
    for slot in out.iter_mut() {
        if rng.gen_ratio(1, 12) {
            break; // early truncation: trailing zeros
        }
        // Random mantissa in [2^(p-1), 2^p); occasionally all-ones or a
        // power of two (rounding boundary shapes).
        let mant: u64 = match rng.gen_range(0..8) {
            0 => 1u64 << (p - 1),
            1 => (1u64 << p) - 1,
            _ => rng.gen_range(1u64 << (p - 1)..1u64 << p),
        };
        let sign = if rng.gen() { T::ONE } else { T::NEG_ONE };
        let mag = T::from_u64(mant) * T::exp2i(e - p + 1);
        *slot = sign * mag;
        let gap = if rng.gen_ratio(1, 4) {
            0
        } else {
            rng.gen_range(0..6)
        };
        e = e - p - 1 - gap;
    }
    out
}

/// Exact sum of values whose ulp exponents span < 96 bits, as a scaled
/// `i128` (used as the fast reference for small-precision soft floats).
fn exact_sum_i128(values: &[f64]) -> (i128, i32) {
    let mut min_k = i32::MAX;
    for &v in values {
        if v == 0.0 {
            continue;
        }
        let bits = v.abs().to_bits();
        let raw = (bits >> 52) as i32;
        assert!(raw != 0, "subnormal in exact_sum_i128");
        let tz = (bits & ((1 << 52) - 1) | (1 << 52)).trailing_zeros() as i32;
        min_k = min_k.min(raw - 1075 + tz);
    }
    if min_k == i32::MAX {
        return (0, 0);
    }
    let mut acc: i128 = 0;
    for &v in values {
        if v == 0.0 {
            continue;
        }
        let bits = v.abs().to_bits();
        let raw = (bits >> 52) as i32;
        let full = bits & ((1 << 52) - 1) | (1 << 52);
        let tz = full.trailing_zeros() as i32;
        let m = (full >> tz) as i128;
        let shift = raw - 1075 + tz - min_k;
        assert!((0..=100).contains(&shift), "exponent span too wide");
        let term = m << shift;
        acc += if v < 0.0 { -term } else { term };
    }
    (acc, min_k)
}

/// Core verification loop, generic over the input generator.
fn verify_with<T, G>(net: &Fpan, cfg: Config, mut gen: G) -> Report
where
    T: FloatBase,
    G: FnMut(&mut SmallRng) -> Vec<T>,
{
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = Report::new();
    for _ in 0..cfg.trials {
        report.trial();
        let inputs = gen(&mut rng);
        let inputs_f64: Vec<f64> = inputs.iter().map(|x| x.to_f64()).collect();
        let (outputs, precond_ok) = net.run_checked(&inputs);
        if !precond_ok {
            report.record(&inputs_f64, ViolationKind::Precondition);
            continue;
        }
        if !is_nonoverlapping(&outputs) {
            report.record(&inputs_f64, ViolationKind::Overlap);
            continue;
        }
        let outputs_f64: Vec<f64> = outputs.iter().map(|x| x.to_f64()).collect();
        // Discarded error = Σ inputs - Σ outputs, measured exactly.
        let rel_exp = if T::PRECISION <= 26 {
            // Fast integer reference.
            let (si, ki) = exact_sum_i128(&inputs_f64);
            let (so, ko) = exact_sum_i128(&outputs_f64);
            // Align the two scaled sums (spans are narrow at toy precision).
            let k = ki.min(ko);
            assert!(ki - k <= 120 && ko - k <= 120, "alignment span too wide");
            let a = si << (ki - k) as u32;
            let b = so << (ko - k) as u32;
            let diff = (a - b).unsigned_abs();
            if diff == 0 {
                f64::NEG_INFINITY
            } else if a == 0 {
                f64::INFINITY
            } else {
                (diff as f64).log2() - (a.unsigned_abs() as f64).log2()
            }
        } else {
            let exact_in = MpFloat::exact_sum(&inputs_f64);
            let exact_out = MpFloat::exact_sum(&outputs_f64);
            if exact_in.is_zero() {
                if exact_out.is_zero() {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            } else {
                let err = exact_out.rel_error_vs(&exact_in);
                if err == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    err.log2()
                }
            }
        };
        if rel_exp > report.worst_error_exp {
            report.worst_error_exp = rel_exp;
        }
        if rel_exp > -(cfg.q as f64) {
            report.record(&inputs_f64, ViolationKind::ErrorBound(rel_exp));
        }
    }
    report
}

/// Verify an addition network for `n`-term expansions at `f64`
/// (inputs interleaved `[x0, y0, x1, y1, …]`). Half the trials force heavy
/// head cancellation (`y0 = -x0`).
pub fn verify_addition_f64(net: &Fpan, n: usize, cfg: Config) -> Report {
    assert_eq!(net.n_inputs, 2 * n);
    let spec = add_spec(n);
    verify_with::<f64, _>(net, cfg, move |rng| {
        let e0 = rng.gen_range(-40..40);
        let x = random_expansion::<f64>(rng, n, e0);
        let cancel = rng.gen_ratio(1, 4);
        let e1 = if cancel {
            e0 // heads share an exponent so the swap below stays valid
        } else if rng.gen_ratio(1, 2) {
            e0 + rng.gen_range(-2..3)
        } else {
            rng.gen_range(-40..40)
        };
        let mut y = random_expansion::<f64>(rng, n, e1);
        if cancel && !y.is_empty() && y[0] != 0.0 {
            y[0] = -x[0]; // exact head cancellation, tails remain valid
        }
        spec.load(&x, &y)
    })
}

/// Verify an addition network at a small soft-float precision `P` with the
/// exact integer reference. This is the search's inner-loop oracle.
pub fn verify_addition_soft<const P: u32>(net: &Fpan, n: usize, cfg: Config) -> Report {
    assert_eq!(net.n_inputs, 2 * n);
    let spec = add_spec(n);
    verify_with::<SoftFloat<P>, _>(net, cfg, move |rng| {
        let e0 = rng.gen_range(-8..8);
        let x = random_expansion::<SoftFloat<P>>(rng, n, e0);
        let cancel = rng.gen_ratio(1, 4);
        let e1 = if cancel {
            e0
        } else if rng.gen_ratio(1, 2) {
            e0 + rng.gen_range(-2..3)
        } else {
            rng.gen_range(-8..8)
        };
        let mut y = random_expansion::<SoftFloat<P>>(rng, n, e1);
        if cancel && !y[0].is_zero() {
            y[0] = -x[0];
        }
        spec.load(&x, &y)
    })
}

/// Verify a multiplication accumulation network for `n`-term expansions at
/// `f64`: random nonoverlapping operands go through the pruned expansion
/// step, the network accumulates, and the result is compared to the exact
/// product (the bound is relative to `|x·y|`).
pub fn verify_multiplication_f64(net: &Fpan, n: usize, cfg: Config) -> Report {
    assert_eq!(net.n_inputs, n * n);
    let step = mul_spec(n);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = Report::new();
    for _ in 0..cfg.trials {
        report.trial();
        let ex = rng.gen_range(-30..30);
        let x = random_expansion::<f64>(&mut rng, n, ex);
        let ey = rng.gen_range(-30..30);
        let y = random_expansion::<f64>(&mut rng, n, ey);
        let inputs = step.load(&x, &y);
        let (outputs, precond_ok) = net.run_checked(&inputs);
        if !precond_ok {
            report.record(&inputs, ViolationKind::Precondition);
            continue;
        }
        if !is_nonoverlapping(&outputs) {
            report.record(&inputs, ViolationKind::Overlap);
            continue;
        }
        let exact = MpFloat::exact_sum(&x).mul(&MpFloat::exact_sum(&y), 2000);
        let got = MpFloat::exact_sum(&outputs);
        let rel_exp = if exact.is_zero() {
            if got.is_zero() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            let e = got.rel_error_vs(&exact);
            if e == 0.0 {
                f64::NEG_INFINITY
            } else {
                e.log2()
            }
        };
        if rel_exp > report.worst_error_exp {
            report.worst_error_exp = rel_exp;
        }
        if rel_exp > -(cfg.q as f64) {
            report.record(&inputs, ViolationKind::ErrorBound(rel_exp));
        }
    }
    report
}

/// **Exhaustively** verify a 2-term addition network over a bounded input
/// subspace at precision `P`: every pair of nonoverlapping 2-term
/// expansions whose head exponent lies in `[-e_span, e_span]` and whose
/// tail sits at most `gap_max` binades below the nonoverlap boundary
/// (tails at the exact `ulp/2` boundary and zero components included).
///
/// Unlike the stochastic suites this is a complete enumeration of its
/// domain — the strongest claim the reproduction can make without an SMT
/// solver. At `P = 3..5` the space is a few million pairs and runs in
/// seconds; exponent-translation symmetry of the algorithms (they use no
/// absolute thresholds away from overflow) is what justifies the bounded
/// window standing in for the full range, the same symmetry argument the
/// paper's §2.1 normalization relies on.
pub fn verify_addition_exhaustive<const P: u32>(
    net: &Fpan,
    q: i32,
    e_span: i32,
    gap_max: i32,
) -> Report {
    assert_eq!(net.n_inputs, 4, "exhaustive mode covers 2-term networks");
    let p = P as i32;
    // Enumerate all valid single operands (head, tail) as SoftFloat pairs.
    let mut operands: Vec<[SoftFloat<P>; 2]> = Vec::new();
    let mants: Vec<u64> = (1u64 << (P - 1)..1u64 << P).collect();
    let signs = [1.0f64, -1.0];
    // The zero operand.
    operands.push([SoftFloat::zero(), SoftFloat::zero()]);
    for e0 in -e_span..=e_span {
        for &m0 in &mants {
            for &s0 in &signs {
                let head = SoftFloat::<P>::from_f64(s0 * (m0 as f64) * 2.0f64.powi(e0 - p + 1));
                // Tail zero.
                operands.push([head, SoftFloat::zero()]);
                // Tail exactly at the ulp/2 boundary: |tail| = 2^(e0 - p).
                for &st in &signs {
                    let t = SoftFloat::<P>::from_f64(st * 2.0f64.powi(e0 - p));
                    operands.push([head, t]);
                }
                // Tails strictly below the boundary.
                for ge in 1..=gap_max {
                    let et = e0 - p - ge;
                    for &mt in &mants {
                        for &st in &signs {
                            let t = SoftFloat::<P>::from_f64(
                                st * (mt as f64) * 2.0f64.powi(et - p + 1),
                            );
                            operands.push([head, t]);
                        }
                    }
                }
            }
        }
    }

    let mut report = Report::new();
    for a in &operands {
        for b in &operands {
            report.trial();
            let inputs = [a[0], b[0], a[1], b[1]];
            let inputs_f64 = [
                inputs[0].to_f64(),
                inputs[1].to_f64(),
                inputs[2].to_f64(),
                inputs[3].to_f64(),
            ];
            let (outputs, precond_ok) = net.run_checked(&inputs);
            if !precond_ok {
                report.record(&inputs_f64, ViolationKind::Precondition);
                continue;
            }
            if !is_nonoverlapping(&outputs) {
                report.record(&inputs_f64, ViolationKind::Overlap);
                continue;
            }
            let outputs_f64: Vec<f64> = outputs.iter().map(|v| v.to_f64()).collect();
            let (si, ki) = exact_sum_i128(&inputs_f64);
            let (so, ko) = exact_sum_i128(&outputs_f64);
            let k = ki.min(ko);
            let av = si << (ki - k) as u32;
            let bv = so << (ko - k) as u32;
            let diff = (av - bv).unsigned_abs();
            let rel_exp = if diff == 0 {
                f64::NEG_INFINITY
            } else if av == 0 {
                f64::INFINITY
            } else {
                (diff as f64).log2() - (av.unsigned_abs() as f64).log2()
            };
            if rel_exp > report.worst_error_exp {
                report.worst_error_exp = rel_exp;
            }
            if rel_exp > -(q as f64) {
                report.record(&inputs_f64, ViolationKind::ErrorBound(rel_exp));
            }
        }
    }
    report
}

/// Verify a multiplication *accumulation* network at a small soft-float
/// precision with the exact integer reference. The check covers the
/// network itself (|Σ inputs − Σ outputs| against the claimed bound and
/// output nonoverlap); the pruning error of the expansion step is a
/// separate, analytically-bounded term (paper §4.2). This is the cheap
/// inner-loop oracle for [`crate::search::search_multiplication`].
pub fn verify_mul_accumulation_soft<const P: u32>(net: &Fpan, n: usize, cfg: Config) -> Report {
    assert_eq!(net.n_inputs, n * n);
    let step = mul_spec(n);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = Report::new();
    for _ in 0..cfg.trials {
        report.trial();
        let ex = rng.gen_range(-6..6);
        let x = random_expansion::<SoftFloat<P>>(&mut rng, n, ex);
        let ey = rng.gen_range(-6..6);
        let y = random_expansion::<SoftFloat<P>>(&mut rng, n, ey);
        let inputs = step.load(&x, &y);
        let inputs_f64: Vec<f64> = inputs.iter().map(|v| v.to_f64()).collect();
        let (outputs, precond_ok) = net.run_checked(&inputs);
        if !precond_ok {
            report.record(&inputs_f64, ViolationKind::Precondition);
            continue;
        }
        if !is_nonoverlapping(&outputs) {
            report.record(&inputs_f64, ViolationKind::Overlap);
            continue;
        }
        let outputs_f64: Vec<f64> = outputs.iter().map(|v| v.to_f64()).collect();
        let (si, ki) = exact_sum_i128(&inputs_f64);
        let (so, ko) = exact_sum_i128(&outputs_f64);
        let k = ki.min(ko);
        assert!(ki - k <= 120 && ko - k <= 120, "alignment span too wide");
        let a = si << (ki - k) as u32;
        let b = so << (ko - k) as u32;
        let diff = (a - b).unsigned_abs();
        let rel_exp = if diff == 0 {
            f64::NEG_INFINITY
        } else if a == 0 {
            f64::INFINITY
        } else {
            (diff as f64).log2() - (a.unsigned_abs() as f64).log2()
        };
        if rel_exp > report.worst_error_exp {
            report.worst_error_exp = rel_exp;
        }
        if rel_exp > -(cfg.q as f64) {
            report.record(&inputs_f64, ViolationKind::ErrorBound(rel_exp));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;
    use crate::{Builder, Gate, GateKind};

    #[test]
    fn shipped_addition_networks_verify_at_f64() {
        // E5: the captioned bounds are 2^-(2p-1), 2^-(3p-3), 2^-(4p-4).
        // For n = 2 we assert 2^-(2p-2): our kernel is AccurateDWPlusDW,
        // whose tight worst case is ~2.25u^2, one bit above the paper's
        // Figure-2 claim (see EXPERIMENTS.md E5 for observed worsts).
        for (n, q) in [(2usize, 104i32), (3, 156), (4, 208)] {
            let net = networks::add_n(n);
            let rep = verify_addition_f64(&net, n, Config::new(4000, q, 42));
            assert!(
                rep.pass,
                "add_{n} failed: {:?} worst 2^{:.1}",
                rep.first_violation, rep.worst_error_exp
            );
        }
    }

    #[test]
    fn shipped_multiplication_networks_verify_at_f64() {
        // E6: the captioned bounds 2^-(2p-3), 2^-(3p-3), 2^-(4p-4).
        for (n, q) in [(2usize, 103i32), (3, 156), (4, 208)] {
            let net = networks::mul_n(n);
            let rep = verify_multiplication_f64(&net, n, Config::new(3000, q, 43));
            assert!(
                rep.pass,
                "mul_{n} failed: {:?} worst 2^{:.1}",
                rep.first_violation, rep.worst_error_exp
            );
        }
    }

    #[test]
    fn shipped_addition_networks_verify_at_small_precision() {
        // The same network objects are correct at p = 12 with the scaled
        // bound (the paper's algorithms are precision-generic).
        let net = networks::add_2();
        let rep = verify_addition_soft::<12>(&net, 2, Config::new(30_000, 2 * 12 - 2, 44));
        assert!(
            rep.pass,
            "p=12 add_2 failed: {:?} worst 2^{:.1}",
            rep.first_violation, rep.worst_error_exp
        );
        let net = networks::add_3();
        let rep = verify_addition_soft::<12>(&net, 3, Config::new(20_000, 3 * 12 - 3, 45));
        assert!(
            rep.pass,
            "p=12 add_3 failed: {:?} worst 2^{:.1}",
            rep.first_violation, rep.worst_error_exp
        );
    }

    #[test]
    fn exhaustive_small_space_add2() {
        // Complete enumeration at p = 4 over head exponents [-2, 2] with
        // tails up to 2 binades below the boundary: every single input
        // pair in that space, no sampling.
        let net = networks::add_2();
        let rep = verify_addition_exhaustive::<4>(&net, 2 * 4 - 2, 2, 2);
        assert!(
            rep.pass,
            "exhaustive p=4 verification failed after {} trials: {:?} worst 2^{:.1}",
            rep.trials, rep.first_violation, rep.worst_error_exp
        );
        assert!(
            rep.trials > 100_000,
            "space unexpectedly small: {}",
            rep.trials
        );
    }

    #[test]
    fn exhaustive_rejects_truncated_network() {
        let mut net = networks::add_2();
        net.gates.pop();
        let rep = verify_addition_exhaustive::<4>(&net, 2 * 4 - 2, 1, 1);
        assert!(!rep.pass, "truncated network must fail exhaustively too");
    }

    #[test]
    fn naive_termwise_addition_fails_verification() {
        // The paper's §2.3 negative example: termwise ⊕ without error
        // propagation degrades to machine precision — the verifier must
        // reject it.
        let mut b = Builder::new(4);
        b.add(0, 1).add(2, 3);
        let net = b.finish(vec![0, 2]); // outputs x0⊕y0, x1⊕y1
        let rep = verify_addition_f64(&net, 2, Config::new(2000, 105, 46));
        assert!(!rep.pass, "termwise addition must fail");
        // It should fail the error bound (or overlap), with error around
        // machine precision, i.e. hugely above 2^-105.
        assert!(rep.worst_error_exp > -80.0);
    }

    #[test]
    fn truncated_network_fails_verification() {
        // Drop the final renormalization gate from add_2: outputs overlap
        // or lose the bound on some inputs. The violating inputs are rare
        // enough that one 4k-trial stream can miss them — give the sampler
        // room and two independent streams.
        let mut net = networks::add_2();
        net.gates.pop();
        let failed = [47u64, 48]
            .iter()
            .any(|&seed| !verify_addition_f64(&net, 2, Config::new(20_000, 105, seed)).pass);
        assert!(failed, "truncated add_2 must fail verification");
    }

    #[test]
    fn bad_fast_two_sum_is_caught() {
        // A FastTwoSum pairing the *small* terms first sees unordered
        // operands on many inputs.
        let mut net = networks::add_2();
        net.gates.insert(
            0,
            Gate {
                kind: GateKind::FastTwoSum,
                hi: 2,
                lo: 0,
            },
        );
        let rep = verify_addition_f64(&net, 2, Config::new(2000, 105, 48));
        assert!(!rep.pass);
        assert!(matches!(
            rep.first_violation.as_ref().unwrap().kind,
            ViolationKind::Precondition | ViolationKind::Overlap | ViolationKind::ErrorBound(_)
        ));
    }

    #[test]
    fn exact_sum_i128_basics() {
        let (a, ka) = exact_sum_i128(&[1.5, 0.25]);
        assert_eq!((a as f64) * 2.0f64.powi(ka), 1.75);
        let (z, _) = exact_sum_i128(&[0.0, 0.0]);
        assert_eq!(z, 0);
        let (c, kc) = exact_sum_i128(&[1.0, -1.0, 2.0f64.powi(-40)]);
        assert_eq!((c as f64) * 2.0f64.powi(kc), 2.0f64.powi(-40));
    }
}
