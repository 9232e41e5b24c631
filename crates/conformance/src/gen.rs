//! Adversarial input generation.
//!
//! Uniform random mantissas exercise almost none of the interesting paths:
//! renormalization branches fire on cancellation, EFT error terms flush on
//! subnormals, and the special-value collapse only shows up when a ±inf or
//! NaN actually enters a kernel. Each case therefore draws its operands
//! from a rotating set of regimes.

use crate::{Case, OpClass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Input regimes. The generator cycles through these so every op sees
/// every regime regardless of case count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Normal-range values, random exponent in ±300.
    Random,
    /// Head drawn from the special-value grid (±0, ±1, ±inf, NaN, ±MAX,
    /// min-normal, min-subnormal, 2^±1000).
    SpecialGrid,
    /// Subnormal heads, or normal heads whose tails flush to subnormals.
    Subnormal,
    /// Head exponent in [1010, 1023]: sums and products overflow.
    NearOverflow,
    /// Second operand is `x · (1 ± k·ulp)`: massive cancellation.
    Cancel,
    /// Head-tail boundary tie: the same value spelled both as
    /// `[m, +ulp(m)/2]` and `[m + ulp(m), -ulp(m)/2]`.
    BoundaryTie,
    /// Trailing components forced to zero (short expansions).
    ShortZero,
    /// The range edges of the Newton kernels and the guard detectors:
    /// heads below `2^-1020`, where the unshifted reciprocal seed overflows
    /// (tiny divisor / deep-subnormal sqrt operand), and heads at the top
    /// binade `2^1023` (residual reconstruction, top-binade sums). Pairs
    /// bias one operand into an edge range and leave the other ordinary so
    /// the exact result usually stays representable — the case where the
    /// range shift or the recovery must deliver it.
    GuardRegime,
}

pub const REGIMES: [Regime; 8] = [
    Regime::Random,
    Regime::SpecialGrid,
    Regime::Subnormal,
    Regime::NearOverflow,
    Regime::Cancel,
    Regime::BoundaryTie,
    Regime::ShortZero,
    Regime::GuardRegime,
];

const SPECIAL_HEADS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE, // smallest normal
    5e-324,            // smallest subnormal
    -5e-324,
    1e300,
    8.881784197001252e-16, // 2^-50
];

/// Deterministic case generator.
pub struct CaseGen {
    rng: SmallRng,
    counter: u64,
}

impl CaseGen {
    pub fn new(seed: u64) -> Self {
        CaseGen {
            rng: SmallRng::seed_from_u64(seed),
            counter: 0,
        }
    }

    /// A finite nonzero head with exponent uniform in `[lo_exp, hi_exp]`.
    fn head(&mut self, lo_exp: i32, hi_exp: i32) -> f64 {
        let e = self.rng.gen_range(lo_exp..=hi_exp);
        let m = 1.0 + self.rng.gen::<f64>(); // [1, 2)
        let s = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        s * m * pow2(e)
    }

    /// Extend `head` into a valid nonoverlapping n-term expansion:
    /// each tail is at most half an ulp of its predecessor.
    fn extend(&mut self, head: f64, n: usize, dense: bool) -> Vec<f64> {
        let mut c = vec![0.0; n];
        c[0] = head;
        if !head.is_finite() || head == 0.0 {
            return c;
        }
        for i in 1..n {
            let prev = c[i - 1];
            if prev == 0.0 {
                break;
            }
            let gap = if dense { 0 } else { self.rng.gen_range(0..40) };
            let t = 0.5 * ulp(prev) * pow2(-gap) * (self.rng.gen::<f64>() - 0.5) * 2.0;
            c[i] = t;
            if c[i] == 0.0 {
                break;
            }
        }
        c
    }

    /// One expansion operand in the given regime.
    pub fn expansion(&mut self, n: usize, regime: Regime) -> Vec<f64> {
        match regime {
            Regime::Random => {
                let h = self.head(-300, 300);
                let dense = self.rng.gen_bool(0.5);
                self.extend(h, n, dense)
            }
            Regime::SpecialGrid => {
                let h = SPECIAL_HEADS[self.rng.gen_range(0..SPECIAL_HEADS.len())];
                self.extend(h, n, true)
            }
            Regime::Subnormal => {
                if self.rng.gen_bool(0.5) {
                    // Subnormal head: expansion is a single subnormal.
                    let bits = self.rng.gen_range(1u64..(1u64 << 52));
                    let s = if self.rng.gen_bool(0.5) {
                        0u64
                    } else {
                        1u64 << 63
                    };
                    let mut c = vec![0.0; n];
                    c[0] = f64::from_bits(bits | s);
                    c
                } else {
                    // Normal head whose tails land in the subnormal range.
                    let h = self.head(-1000, -970);
                    self.extend(h, n, true)
                }
            }
            Regime::NearOverflow => {
                let h = self.head(1010, 1023);
                self.extend(h, n, true)
            }
            Regime::Cancel | Regime::BoundaryTie => {
                // Handled at the pair level; fall back to random here.
                let h = self.head(-50, 50);
                self.extend(h, n, true)
            }
            Regime::ShortZero => {
                let h = self.head(-100, 100);
                let mut c = self.extend(h, n, true);
                let keep = self.rng.gen_range(1..=n);
                for slot in c.iter_mut().skip(keep) {
                    *slot = 0.0;
                }
                c
            }
            Regime::GuardRegime => {
                let h = self.guard_head();
                self.extend(h, n, true)
            }
        }
    }

    /// A head in one of the edge ranges: below the `2^-1020`
    /// reciprocal-seed threshold (spanning normal and subnormal), at the
    /// top binade, or just inside/outside the thresholds to probe the
    /// window and detector boundaries.
    fn guard_head(&mut self) -> f64 {
        match self.rng.gen_range(0..4) {
            0 => self.head(-1074, -1021), // regime 1, subnormal included
            1 => self.head(1023, 1023),   // regime 2: top binade
            2 => self.head(-1022, -1015), // straddles the tiny threshold
            _ => self.head(1019, 1023),   // approach to the top binade
        }
    }

    /// A pair of operands; some regimes correlate the two.
    pub fn pair(&mut self, n: usize, regime: Regime) -> (Vec<f64>, Vec<f64>) {
        match regime {
            Regime::Cancel => {
                // b = a * (1 ± k·eps): a - b cancels almost completely and
                // a / b is 1 ± k·eps, the worst case for Newton seeding.
                let a = self.expansion(n, Regime::Random);
                let k = self.rng.gen_range(1..100) as f64;
                let scale =
                    1.0 + k * f64::EPSILON * if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let b: Vec<f64> = a.iter().map(|&c| c * scale).collect();
                (a, b)
            }
            Regime::BoundaryTie => {
                // Two spellings of m + ulp(m)/2; arithmetic and comparisons
                // must treat them identically.
                let m = self.head(-100, 100);
                let half_ulp = 0.5 * ulp(m);
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                a[0] = m;
                a[1] = half_ulp;
                b[0] = m + ulp(m); // next float up, exact
                b[1] = -half_ulp;
                if self.rng.gen_bool(0.5) {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            Regime::GuardRegime => {
                // Bias one side (or both) into a collapse range; a modest
                // partner keeps the exact result representable for most
                // draws, so recovery has something to recover *to*.
                let biased = self.expansion(n, Regime::GuardRegime);
                let partner = {
                    let h = self.head(-50, 50);
                    self.extend(h, n, true)
                };
                match self.rng.gen_range(0..3) {
                    0 => (partner, biased),
                    1 => (biased, partner),
                    _ => {
                        let second = self.expansion(n, Regime::GuardRegime);
                        (biased, second)
                    }
                }
            }
            _ => (self.expansion(n, regime), self.expansion(n, regime)),
        }
    }

    fn next_regime(&mut self) -> Regime {
        REGIMES[(self.counter as usize) % REGIMES.len()]
    }

    /// Generate the next case of the given class.
    pub fn next_case(&mut self, class: OpClass) -> Case {
        self.counter += 1;
        let regime = self.next_regime();
        let n = 2 + (self.counter as usize / REGIMES.len()) % 3;
        match class {
            OpClass::Arith => {
                const OPS: [&str; 8] = ["add", "sub", "mul", "div", "sqrt", "recip", "rsqrt", "ln"];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                match op {
                    "sqrt" | "recip" | "rsqrt" | "ln" => {
                        let a = self.expansion(n, regime);
                        Case::new(op, n, vec![a])
                    }
                    _ => {
                        let (a, b) = self.pair(n, regime);
                        Case::new(op, n, vec![a, b])
                    }
                }
            }
            OpClass::Cmp => {
                let (a, b) = self.pair(n, regime);
                Case::new("cmp", n, vec![a, b])
            }
            OpClass::Convert => {
                let op = if self.rng.gen_bool(0.5) {
                    "to_f64"
                } else {
                    "mp_roundtrip"
                };
                let a = self.expansion(n, regime);
                Case::new(op, n, vec![a])
            }
            OpClass::Io => {
                let a = self.expansion(n, regime);
                Case::new("io_roundtrip", n, vec![a])
            }
            OpClass::Blas => {
                let op = match self.counter % 16 {
                    0 => "gemv",
                    8 => "gemm",
                    c if c % 2 == 0 => "dot",
                    _ => "axpy",
                };
                // BLAS checks assume finite data; reuse the finite regimes.
                let r = match regime {
                    Regime::SpecialGrid | Regime::NearOverflow | Regime::GuardRegime => {
                        Regime::Random
                    }
                    other => other,
                };
                // Every third matrix case pins `beta == 0` and poisons the
                // output operand with NaN: the overwrite path must ignore
                // the prior contents entirely (checked against an oracle
                // accumulation that starts from zero).
                let poison = self.counter % 48 < 16;
                match op {
                    "gemv" => {
                        let (m, k) = (self.rng.gen_range(1..=5), self.rng.gen_range(1..=5));
                        let a = self.flat_vec(m * k, n, r);
                        let x = self.flat_vec(k, n, r);
                        let alpha = self.expansion(n, Regime::Random);
                        let (beta, y) = if poison {
                            (vec![0.0; n], nan_poisoned(m, n))
                        } else {
                            (self.expansion(n, Regime::Random), self.flat_vec(m, n, r))
                        };
                        let dims = vec![m as f64, k as f64];
                        Case::new("gemv", n, vec![dims, alpha, beta, a, x, y])
                    }
                    "gemm" => {
                        let (m, k, c) = (
                            self.rng.gen_range(1..=4),
                            self.rng.gen_range(1..=4),
                            self.rng.gen_range(1..=4),
                        );
                        let a = self.flat_vec(m * k, n, r);
                        let b = self.flat_vec(k * c, n, r);
                        let alpha = self.expansion(n, Regime::Random);
                        let (beta, cm) = if poison {
                            (vec![0.0; n], nan_poisoned(m * c, n))
                        } else {
                            (
                                self.expansion(n, Regime::Random),
                                self.flat_vec(m * c, n, r),
                            )
                        };
                        let dims = vec![m as f64, k as f64, c as f64];
                        Case::new("gemm", n, vec![dims, alpha, beta, a, b, cm])
                    }
                    "dot" => {
                        let len = self.rng.gen_range(1..=8);
                        let x = self.flat_vec(len, n, r);
                        let y = self.flat_vec(len, n, r);
                        Case::new("dot", n, vec![x, y])
                    }
                    _ => {
                        let len = self.rng.gen_range(1..=8);
                        let alpha = self.expansion(n, Regime::Random);
                        let x = self.flat_vec(len, n, r);
                        let y = self.flat_vec(len, n, r);
                        Case::new("axpy", n, vec![alpha, x, y])
                    }
                }
            }
            OpClass::Soft => {
                const OPS: [&str; 7] = ["add", "sub", "mul", "div", "sqrt", "recip", "rsqrt"];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                let p11 = self.rng.gen_bool(0.33);
                let (name, a, b) = if p11 {
                    // Small-precision leg: operands pre-rounded to 11 bits,
                    // modest exponents so p=11 arithmetic stays in range.
                    let a = round_to_bits(self.head(-30, 30), 11);
                    let b = round_to_bits(self.head(-30, 30), 11);
                    (format!("soft11_{op}"), a, b)
                } else {
                    let a = self.head(-900, 900);
                    let b = self.head(-900, 900);
                    (format!("soft_{op}"), a, b)
                };
                if matches!(op, "sqrt" | "rsqrt") {
                    Case::new(&name, 1, vec![vec![a.abs()]])
                } else if op == "recip" {
                    Case::new(&name, 1, vec![vec![a]])
                } else {
                    Case::new(&name, 1, vec![vec![a], vec![b]])
                }
            }
        }
    }

    fn flat_vec(&mut self, len: usize, n: usize, regime: Regime) -> Vec<f64> {
        let mut out = Vec::with_capacity(len * n);
        for _ in 0..len {
            out.extend(self.expansion(n, regime));
        }
        out
    }
}

/// A flat `len`-element vector of N-component expansions with every
/// component NaN, for the `beta == 0` overwrite checks.
fn nan_poisoned(len: usize, n: usize) -> Vec<f64> {
    vec![f64::NAN; len * n]
}

/// 2^e as f64 (handles the subnormal range; saturates outside it).
pub fn pow2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e < -1074 {
        0.0
    } else if e < -1022 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        f64::INFINITY
    }
}

/// Unit in the last place of `x` (via the raw exponent field, so exact
/// powers of two and subnormals are handled correctly).
pub fn ulp(x: f64) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return f64::from_bits(1); // 2^-1074
    }
    let e = ((x.to_bits() >> 52) & 0x7ff) as i32;
    if e == 0 {
        return f64::from_bits(1); // subnormal: ulp is the minimum
    }
    pow2(e - 1023 - 52)
}

/// Round to `bits` bits of precision (round-to-nearest-even via f64 bit
/// truncation — exact because `bits < 53`).
pub fn round_to_bits(x: f64, bits: u32) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    let drop = 53 - bits;
    let b = x.to_bits();
    let half = 1u64 << (drop - 1);
    let mask = (1u64 << drop) - 1;
    let frac = b & mask;
    let mut t = b & !mask;
    if frac > half || (frac == half && (t >> drop) & 1 == 1) {
        t += 1u64 << drop;
    }
    f64::from_bits(t)
}

/// Validity check for generated/reduced expansions: strictly decreasing by
/// at least a factor 2^-p (half-ulp nonoverlap, ties allowed), zeros only
/// at the end, non-finite heads only with zero tails.
pub fn valid_expansion(c: &[f64]) -> bool {
    if c.is_empty() {
        return false;
    }
    if !c[0].is_finite() {
        return c[1..].iter().all(|&t| t == 0.0);
    }
    for i in 1..c.len() {
        if c[i] == 0.0 {
            return c[i..].iter().all(|&t| t == 0.0);
        }
        if !c[i].is_finite() || c[i].abs() > 0.5 * ulp(c[i - 1]) {
            return false;
        }
    }
    true
}
