//! The six shipped accumulation networks (paper §3–4), each written once.
//!
//! One `net!` invocation per network emits both forms of it:
//!
//! * a `pub const` [`NetSpec`]: what each input wire holds, the gate list,
//!   the wires the final renormalization runs over, and the output wires.
//!   `mf-fpan` interprets, verifies, fault-injects and searches this data
//!   (`Fpan::from_spec`).
//! * an `#[inline(always)]` kernel, generic over [`FloatBase`], that runs the
//!   same gates as straight-line code on a `[T; W]` of wires with literal
//!   indices. [`crate::addition::add`] and [`crate::multiplication::mul`]
//!   call these.
//!
//! Networks that end in `FastTwoSum` (N = 2) list no renorm wires. The
//! others end in [`renorm_m_to_n`] over their renorm wires, which `mf-fpan`
//! unrolls into the same `TwoSum` sweeps.
//!
//! Gate order is part of each network's identity: tests remove gates by
//! index, and `mf-fpan::fault` injects faults by gate index.

use crate::renorm::renorm_m_to_n;
use mf_eft::{fast_two_sum, two_prod, two_sum, FloatBase};

/// The three gate kinds of an FPAN diagram (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Plain floating-point addition; discards its rounding error.
    Add,
    /// Error-free `TwoSum` (Algorithm 1).
    TwoSum,
    /// Error-free `FastTwoSum` (Algorithm 3); requires
    /// `exponent(hi) >= exponent(lo)` or a zero operand.
    FastTwoSum,
}

/// One gate: operates on the values currently held by wires `hi` and `lo`.
/// For two-output gates, the sum lands on `hi` and the error on `lo`;
/// for [`GateKind::Add`], the sum lands on `hi` and `lo` becomes dead
/// (zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate {
    pub kind: GateKind,
    pub hi: usize,
    pub lo: usize,
}

/// What one input wire holds, in terms of the operands `x` and `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `x[i]`.
    X(usize),
    /// `y[i]`.
    Y(usize),
    /// `fl(x[i] * y[j])`: the head of `TwoProd(x[i], y[j])`, or a plain
    /// product where pruning drops the error (paper §4.2).
    P(usize, usize),
    /// The error of `TwoProd(x[i], y[j])`.
    E(usize, usize),
}

impl Input {
    /// The value of this wire for operands `x`, `y`.
    #[inline(always)]
    fn eval<T: FloatBase>(self, x: &[T], y: &[T]) -> T {
        match self {
            Input::X(i) => x[i],
            Input::Y(i) => y[i],
            Input::P(i, j) => x[i] * y[j],
            Input::E(i, j) => two_prod(x[i], y[j]).1,
        }
    }
}

/// One network as data (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSpec {
    /// One entry per wire: what it holds on entry.
    pub inputs: &'static [Input],
    /// The gates, applied in order.
    pub gates: &'static [Gate],
    /// Wires renormalized after the gates, most significant first (empty:
    /// no renormalization).
    pub renorm: &'static [usize],
    /// Output wires, most significant first.
    pub outputs: &'static [usize],
}

impl NetSpec {
    /// The input vector for operands `x`, `y`, in wire order.
    pub fn load<T: FloatBase>(&self, x: &[T], y: &[T]) -> Vec<T> {
        self.inputs.iter().map(|i| i.eval(x, y)).collect()
    }
}

/// The addition network for `n`-term operands.
pub const fn add_spec(n: usize) -> Option<&'static NetSpec> {
    match n {
        2 => Some(&ADD2),
        3 => Some(&ADD3),
        4 => Some(&ADD4),
        _ => None,
    }
}

/// The multiplication network for `n`-term operands.
pub const fn mul_spec(n: usize) -> Option<&'static NetSpec> {
    match n {
        2 => Some(&MUL2),
        3 => Some(&MUL3),
        4 => Some(&MUL4),
        _ => None,
    }
}

/// `v` as an `N`-term expansion: its leading `N` terms when `M > N`, else
/// all of it followed by zeros. Widens a kernel's `M` outputs to the
/// result of the generic dispatchers, and moves the Newton iterates of
/// `division.rs` and `sqrt.rs` between widths.
#[inline(always)]
pub(crate) fn fit<T: FloatBase, const M: usize, const N: usize>(v: &[T; M]) -> [T; N] {
    let k = if M < N { M } else { N };
    let mut out = [T::ZERO; N];
    out[..k].copy_from_slice(&v[..k]);
    out
}

/// One input wire: [`Input::eval`], arm for arm, written out so that after
/// inlining each `E` wire's `TwoProd` visibly shares the product of its `P`
/// wire. Through `eval`'s `match`, LLVM rewrote the `TwoProd` negation
/// before merging the two products, and computed each product twice on
/// targets without FMA.
macro_rules! input {
    ($x:ident, $y:ident, X($i:literal)) => {
        $x[$i]
    };
    ($x:ident, $y:ident, Y($i:literal)) => {
        $y[$i]
    };
    ($x:ident, $y:ident, P($i:literal, $j:literal)) => {
        $x[$i] * $y[$j]
    };
    ($x:ident, $y:ident, E($i:literal, $j:literal)) => {
        two_prod($x[$i], $y[$j]).1
    };
}

macro_rules! gate {
    ($w:ident, Add, $hi:literal, $lo:literal) => {
        $w[$hi] = $w[$hi] + $w[$lo];
        $w[$lo] = T::ZERO;
    };
    ($w:ident, TwoSum, $hi:literal, $lo:literal) => {
        ($w[$hi], $w[$lo]) = two_sum($w[$hi], $w[$lo]);
    };
    ($w:ident, FastTwoSum, $hi:literal, $lo:literal) => {
        ($w[$hi], $w[$lo]) = fast_two_sum($w[$hi], $w[$lo]);
    };
}

macro_rules! net {
    (
        $(#[$doc:meta])*
        $kernel:ident, $spec:ident, N = $n:literal,
        inputs [$($in:ident($($ia:literal),+)),+ $(,)?],
        gates [$($g:ident($hi:literal, $lo:literal)),+ $(,)?],
        renorm [$($r:literal),*],
        outputs [$($o:literal),+] $(,)?
    ) => {
        #[doc = concat!("The gate list [`", stringify!($kernel), "`] runs.")]
        pub const $spec: NetSpec = NetSpec {
            inputs: &[$(Input::$in($($ia),+)),+],
            gates: &[$(Gate { kind: GateKind::$g, hi: $hi, lo: $lo }),+],
            renorm: &[$($r),*],
            outputs: &[$($o),+],
        };

        $(#[$doc])*
        #[inline(always)]
        pub fn $kernel<T: FloatBase>(x: [T; $n], y: [T; $n]) -> [T; $n] {
            let mut w = [$(input!(x, y, $in($($ia),+))),+];
            $(gate!(w, $g, $hi, $lo);)+
            net!(@out w, [$($r),*], [$($o),+])
        }
    };
    (@out $w:ident, [], [$($o:literal),+]) => {
        [$($w[$o]),+]
    };
    // The head of the renormalized wires: a spec's `outputs` must be
    // `renorm[..N]`, which mf-fpan's bitwise network tests hold it to.
    (@out $w:ident, [$($r:literal),+], $o:tt) => {
        renorm_m_to_n([$($w[$r]),+])
    };
}

net! {
    /// 2-term addition FPAN: size 6, depth 4 — `AccurateDWPlusDW`
    /// (Joldes, Muller & Popescu 2017, Algorithm 6). Discarded error
    /// `<= 3u^2 / (1 - 4u) |x + y|` (proven there; the paper's Figure 2
    /// network carries the bound `2^-(2p-1)|x+y|`).
    add2, ADD2, N = 2,
    inputs [X(0), Y(0), X(1), Y(1)],
    gates [
        TwoSum(0, 1), TwoSum(2, 3), // pairing layer: (s, e), (t, f)
        Add(1, 2),                  // e += t
        FastTwoSum(0, 1),
        Add(1, 3),                  // e += f
        FastTwoSum(0, 1),
    ],
    renorm [],
    outputs [0, 1],
}

net! {
    /// 3-term addition FPAN (paper Figure 3 class: size 14, depth 8
    /// reference): pairing layer (3 `TwoSum`) → diagonal error absorption
    /// (3 `TwoSum`) → tail accumulation (2 adds) → renormalization of the
    /// 4-value carry-save form.
    add3, ADD3, N = 3,
    inputs [X(0), Y(0), X(1), Y(1), X(2), Y(2)],
    gates [
        TwoSum(0, 1), TwoSum(2, 3), TwoSum(4, 5), // pairing layer
        TwoSum(2, 1), TwoSum(4, 3), TwoSum(4, 1), // absorption
        Add(5, 3), Add(5, 1),                     // tail: (e2 + t1) + u0
    ],
    renorm [0, 2, 4, 5],
    outputs [0, 2, 4],
}

net! {
    /// 4-term addition FPAN (paper Figure 4 class: size 26, depth 11
    /// reference): pairing layer (4 `TwoSum`) → triangular absorption
    /// (6 `TwoSum`) → tail accumulation (3 adds) → renormalization of 5
    /// values.
    add4, ADD4, N = 4,
    inputs [X(0), Y(0), X(1), Y(1), X(2), Y(2), X(3), Y(3)],
    gates [
        TwoSum(0, 1), TwoSum(2, 3), TwoSum(4, 5), TwoSum(6, 7), // pairing layer
        TwoSum(2, 1), TwoSum(4, 3), TwoSum(6, 5), // absorption sweep 1
        TwoSum(4, 1), TwoSum(6, 3),               // absorption sweep 2
        TwoSum(6, 1),                             // absorption sweep 3
        Add(7, 5), Add(7, 3), Add(7, 1),          // tail: ((e3 + t2) + u1) + v0
    ],
    renorm [0, 2, 4, 6, 7],
    outputs [0, 2, 4, 6],
}

net! {
    /// 2-term multiplication FPAN (paper Figure 5: size 3, depth 3 —
    /// provably optimal). Expansion step: 1 `TwoProd` + 2 plain products.
    /// Discarded error `<= 2^-(2p-3) |xy|`.
    mul2, MUL2, N = 2,
    inputs [P(0, 0), E(0, 0), P(0, 1), P(1, 0)],
    gates [
        Add(2, 3), // cross = p01 + p10 (commutative)
        Add(1, 2), // lo = e00 + cross
        FastTwoSum(0, 1),
    ],
    renorm [],
    outputs [0, 1],
}

net! {
    /// 3-term multiplication FPAN (paper Figure 6 class: size 12, depth 7
    /// reference). Expansion step: 3 `TwoProd` + 3 plain products
    /// (`n(n-1)/2` and `n` for n = 3).
    mul3, MUL3, N = 3,
    inputs [
        P(0, 0), E(0, 0), P(0, 1), E(0, 1), P(1, 0), E(1, 0),
        P(0, 2), P(2, 0), P(1, 1),
    ],
    gates [
        TwoSum(2, 4), // (a1, b2) = TwoSum(p01, p10): commutativity layer
        TwoSum(2, 1), // (s1, c2) = TwoSum(a1, q00)
        Add(3, 5),    // q01 + q10
        Add(6, 7),    // r02 + r20
        Add(3, 6),
        Add(3, 8),    // + r11
        Add(4, 1),    // b2 + c2
        Add(3, 4),    // t2
    ],
    renorm [0, 2, 3],
    outputs [0, 2, 3],
}

net! {
    /// 4-term multiplication FPAN (paper Figure 7 class: size 27, depth 10
    /// reference). Expansion step: 6 `TwoProd` + 4 plain products. The
    /// level-2 pair `(q01, q10)` needs a `TwoSum`: a plain add would
    /// discard a level-3 error (~2^-(3p)) that the 4-term bound
    /// `2^-(4p-4)` cannot absorb.
    mul4, MUL4, N = 4,
    inputs [
        P(0, 0), E(0, 0), P(0, 1), E(0, 1), P(1, 0), E(1, 0),
        P(0, 2), E(0, 2), P(2, 0), E(2, 0), P(1, 1), E(1, 1),
        P(0, 3), P(3, 0), P(1, 2), P(2, 1),
    ],
    gates [
        Add(12, 13),   // r3a = r03 + r30
        Add(14, 15),   // r3b = r12 + r21
        TwoSum(2, 4),  // (a1, b2) = TwoSum(p01, p10)
        TwoSum(6, 8),  // (a2, b3) = TwoSum(p02, p20)
        TwoSum(3, 5),  // (cq1, cq1e) = TwoSum(q01, q10)
        Add(7, 9),     // cq2 = q02 + q20
        TwoSum(2, 1),  // (s1, c2) = TwoSum(a1, q00)
        TwoSum(6, 10), // (t2, d3a) = TwoSum(a2, p11)
        TwoSum(6, 3),  // (t2, d3b) = TwoSum(t2, cq1)
        TwoSum(6, 4),  // (t2, d3c) = TwoSum(t2, b2)
        TwoSum(6, 1),  // (t2, d3d) = TwoSum(t2, c2)
        // t3 = ((q11 + cq2) + (r3a + r3b))
        //      + (((b3 + cq1e) + (d3a + d3b)) + (d3c + d3d))
        Add(11, 7), Add(12, 14), Add(11, 12),
        Add(8, 5), Add(10, 3), Add(8, 10),
        Add(4, 1), Add(8, 4),
        Add(11, 8),
    ],
    renorm [0, 2, 6, 11],
    outputs [0, 2, 6, 11],
}
