//! The error-free transformations (paper §2.3, Algorithms 1–3).
//!
//! Every function here is straight-line code: no branches, no memory
//! traffic, only rounded machine operations. These are the "gates" of a
//! floating-point accumulation network (paper §3).

use crate::base::FloatBase;

/// Algorithm 1 (`TwoSum`, Knuth/Møller): returns `(s, e)` with
/// `s = fl(x + y)` and `e = (x + y) - s` **exactly**, for all finite inputs
/// within overflow range. 6 operations, depth 4 (the two δ computations are
/// independent).
#[inline(always)]
pub fn two_sum<T: FloatBase>(x: T, y: T) -> (T, T) {
    let s = x + y;
    let x_eff = s - y;
    let y_eff = s - x_eff;
    let dx = x - x_eff;
    let dy = y - y_eff;
    let e = dx + dy;
    (s, e)
}

/// `TwoDiff`: error-free subtraction, `(d, e)` with `d = fl(x - y)` and
/// `e = (x - y) - d` exactly. Same structure as [`two_sum`].
#[inline(always)]
pub fn two_diff<T: FloatBase>(x: T, y: T) -> (T, T) {
    let d = x - y;
    let x_eff = d + y;
    let y_eff = x_eff - d;
    let dx = x - x_eff;
    let dy = y_eff - y;
    let e = dx + dy;
    (d, e)
}

/// Algorithm 3 (`FastTwoSum`, Dekker): 3-operation variant of [`two_sum`].
///
/// **Precondition** (paper Algorithm 3): `x == ±0.0`, `y == ±0.0`, or
/// `exponent(x) >= exponent(y)`. In debug builds this is checked; in release
/// builds violating it silently produces an inexact error term, which is
/// precisely the class of bug the FPAN verifier exists to rule out.
#[inline(always)]
pub fn fast_two_sum<T: FloatBase>(x: T, y: T) -> (T, T) {
    debug_assert!(
        x.fast_two_sum_ok(y),
        "fast_two_sum precondition violated: |x| = {:e} < |y| = {:e}",
        x.abs(),
        y.abs()
    );
    let s = x + y;
    let y_eff = s - x;
    let e = y - y_eff;
    (s, e)
}

/// Algorithm 2 (`TwoProd`, FMA-based): returns `(p, e)` with `p = fl(x * y)`
/// and `e = x * y - p` exactly. 2 operations.
#[inline(always)]
pub fn two_prod<T: FloatBase>(x: T, y: T) -> (T, T) {
    let p = x * y;
    let e = x.mul_add(y, -p);
    (p, e)
}

/// Error-free square: `(p, e)` with `p = fl(x * x)`, `e = x² - p` exactly.
#[inline(always)]
pub fn two_square<T: FloatBase>(x: T) -> (T, T) {
    let p = x * x;
    let e = x.mul_add(x, -p);
    (p, e)
}

/// Veltkamp splitting: `x = hi + lo` where `hi` holds the top
/// `p - floor(p/2)` bits and `lo` the remaining bits, both exactly
/// representable in ≤ `floor(p/2)` bits so that products of halves are exact.
#[inline(always)]
pub fn split<T: FloatBase>(x: T) -> (T, T) {
    // Splitting constant 2^ceil(p/2) + 1 (Veltkamp 1968). For f64: 2^27 + 1.
    let shift = T::PRECISION.div_ceil(2);
    let c = T::exp2i(shift as i32) + T::ONE;
    let t = c * x;
    let hi = t - (t - x);
    let lo = x - hi;
    (hi, lo)
}

/// Dekker's `TwoProd` without FMA (Dekker 1971, Veltkamp 1968/69):
/// 17 operations using [`split`]. Exact under the same conditions as
/// [`two_prod`] provided no intermediate overflow occurs in the splitting.
/// Kept for the FMA-vs-split ablation (DESIGN.md §3.2).
#[inline(always)]
pub fn two_prod_dekker<T: FloatBase>(x: T, y: T) -> (T, T) {
    let p = x * y;
    let (xh, xl) = split(x);
    let (yh, yl) = split(y);
    let e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl;
    (p, e)
}

/// Three-way error-free-ish sum used inside accumulation kernels:
/// returns `(s, e0, e1)` with `s + e0 + e1 == x + y + z` exactly,
/// `s = fl(fl(x + y) + z)` and `|e0| >= |e1|` up to rounding.
#[inline(always)]
pub fn three_sum<T: FloatBase>(x: T, y: T, z: T) -> (T, T, T) {
    let (t0, t1) = two_sum(x, y);
    let (s, t2) = two_sum(t0, z);
    let (e0, e1) = two_sum(t1, t2);
    (s, e0, e1)
}

/// Three-way sum keeping only one error term: `(s, e)` with
/// `s + e ≈ x + y + z` (the second-order error is discarded, a plain-add
/// gate in FPAN terms).
#[inline(always)]
pub fn three_sum2<T: FloatBase>(x: T, y: T, z: T) -> (T, T) {
    let (t0, t1) = two_sum(x, y);
    let (s, t2) = two_sum(t0, z);
    (s, t1 + t2)
}
