//! `mf-conformance`: differential fuzzing and conformance checking for the
//! whole workspace.
//!
//! Stochastic accuracy tests admit kernels that are wrong on rare inputs —
//! the failure mode the paper's companion FPAN verifier exists to rule out.
//! This crate is the executable counterpart for the parts a symbolic
//! verifier does not cover: it drives every public operation through four
//! implementations *in lockstep* on the same adversarial inputs and flags
//! any divergence beyond the documented error bounds:
//!
//! * `MultiFloat<f64, N>` for N ∈ {2, 3, 4} (the system under test),
//! * the [`MpFloat`] software oracle (exact, arbitrary precision),
//! * the DD / QD / CAMPARY baselines (checked against their own looser
//!   documented bounds, in the regular regime only),
//! * [`SoftFloat`] at p = 53 (bit-exact vs hardware) and p = 11 (bit-exact
//!   vs the oracle rounded to 11 bits).
//!
//! Input generation (see [`gen`]) deliberately covers the regimes uniform
//! random sampling misses: ±0, ±inf, NaN, subnormal heads and tails,
//! near-overflow magnitudes, massive cancellation, boundary-tie expansions
//! (two spellings of one value), and zero-padded expansions.
//!
//! A divergence is shrunk by [`reduce::reduce`] to a minimal reproducer and
//! can be serialized as a JSON corpus entry ([`corpus`]); the committed
//! corpus under `results/conformance/` is replayed by `cargo test` so every
//! bug this harness has ever caught stays caught.
//!
//! # What counts as a divergence
//!
//! The checks encode the *documented* semantics, not IEEE-754:
//!
//! * Non-finite operands collapse to a non-finite result through the
//!   branch-free kernels (§4.4); a *finite* result from a non-finite input
//!   is a divergence, a NaN is not.
//! * A divisor that is exactly zero yields a non-finite result (NaN, not
//!   ±inf — there is no branch to pick the sign).
//! * Exactly cancelling additions must produce exactly zero (the discarded
//!   FPAN error term is relative to the result).
//! * When the exact result's magnitude is ≥ 2^1020 the implementation may
//!   either stay within its bound or overflow to a non-finite value.
//! * Everything else must land within the per-op relative bounds in
//!   [`check::rel_bound_exp`], with an absolute floor of 2^-1040 for
//!   results deep in the subnormal range (where EFT error terms flush).

pub mod check;
pub mod corpus;
pub mod gen;
pub mod reduce;

pub use mf_mpsoft::MpFloat;
pub use mf_softfloat::SoftFloat;

/// One conformance case: an operation plus bit-exact operands.
///
/// `operands` holds one `Vec<f64>` per logical operand. For expansion ops
/// each operand has exactly `n` components; for BLAS ops the vectors are
/// flattened `len * n` component arrays. Text-based cases (decimal parse)
/// carry the input in `text` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Operation name: `add`, `sub`, `mul`, `div`, `sqrt`, `recip`,
    /// `rsqrt`, `ln`, `cmp`,
    /// `to_f64`, `mp_roundtrip`, `io_roundtrip`, `parse`, `dot`, `axpy`,
    /// `gemv`, `soft_add` … (see [`check::run_case`] for the full set).
    pub op: String,
    /// Expansion length N ∈ {2, 3, 4} (1 for scalar softfloat ops).
    pub n: usize,
    /// Bit-exact operands (empty for text-based cases).
    pub operands: Vec<Vec<f64>>,
    /// Input text for decimal-parse cases.
    pub text: Option<String>,
}

/// A check that failed: the offending case plus which implementation broke
/// which contract.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub case: Case,
    /// `mf-core`, `dd`, `qd`, `campary`, `softfloat-p53`, `softfloat-p11`,
    /// `blas-serial`, `blas-parallel`, `blas-tiled`, `blas-simd` (the
    /// lock-step SIMD path vs. the portable lockstep/serial reference,
    /// compared bitwise under the active `MF_SIMD` realization).
    pub impl_name: String,
    /// Human-readable description: got vs. want, error vs. bound.
    pub detail: String,
}

impl Case {
    pub fn new(op: &str, n: usize, operands: Vec<Vec<f64>>) -> Self {
        Case {
            op: op.to_string(),
            n,
            operands,
            text: None,
        }
    }

    pub fn text(op: &str, n: usize, text: &str) -> Self {
        Case {
            op: op.to_string(),
            n,
            operands: Vec::new(),
            text: Some(text.to_string()),
        }
    }
}

/// The op classes the harness can run (`--ops` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// add / sub / mul / div / sqrt / recip / rsqrt / ln on expansions.
    Arith,
    /// PartialEq / PartialOrd / min / max.
    Cmp,
    /// to_f64 faithfulness, MpFloat roundtrips.
    Convert,
    /// Decimal print/parse roundtrips.
    Io,
    /// dot / axpy / gemv / gemm, serial and parallel.
    Blas,
    /// SoftFloat vs hardware (p = 53) and vs oracle (p = 11).
    Soft,
}

impl OpClass {
    pub const ALL: [OpClass; 6] = [
        OpClass::Arith,
        OpClass::Cmp,
        OpClass::Convert,
        OpClass::Io,
        OpClass::Blas,
        OpClass::Soft,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::Arith => "arith",
            OpClass::Cmp => "cmp",
            OpClass::Convert => "convert",
            OpClass::Io => "io",
            OpClass::Blas => "blas",
            OpClass::Soft => "soft",
        }
    }

    pub fn parse(s: &str) -> Option<OpClass> {
        OpClass::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// Run `cases` generated arithmetic cases through the guarded API under
/// `policy` in lockstep with the oracle (see [`check::run_case_guarded`]).
/// The generator seed is offset from [`run_class`]'s so the guarded sweep
/// explores different draws than the fast-path sweep at the same seed.
/// Returns the divergences and how many cases the oracle recovered.
pub fn run_guarded(
    cases: usize,
    seed: u64,
    policy: mf_core::GuardPolicy,
) -> (Vec<Divergence>, u64) {
    let mut g = gen::CaseGen::new(seed ^ 0x6a72_6465_6427_5eed);
    let mut out = Vec::new();
    let mut recovered = 0;
    for _ in 0..cases {
        let case = g.next_case(OpClass::Arith);
        let (divs, r) = check::check_guarded(&case, policy);
        out.extend(divs);
        recovered += u64::from(r);
        if out.len() >= 32 {
            break; // enough evidence; don't flood the report
        }
    }
    (out, recovered)
}

/// Run `cases` generated cases of one class and return every divergence
/// (already shrunk to minimal reproducers).
pub fn run_class(class: OpClass, cases: usize, seed: u64) -> Vec<Divergence> {
    let mut g = gen::CaseGen::new(seed ^ (class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut out = Vec::new();
    for _ in 0..cases {
        let case = g.next_case(class);
        for d in check::run_case(&case) {
            let reduced = reduce::reduce(&d.case, &d.impl_name);
            let detail = check::run_case(&reduced)
                .into_iter()
                .find(|r| r.impl_name == d.impl_name)
                .map(|r| r.detail)
                .unwrap_or(d.detail.clone());
            out.push(Divergence {
                case: reduced,
                impl_name: d.impl_name,
                detail,
            });
            if out.len() >= 32 {
                return out; // enough evidence; don't flood the corpus
            }
        }
    }
    out
}
