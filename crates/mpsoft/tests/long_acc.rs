//! Oracle tests for [`LongAccumulator`]: on every regime the exact rungs
//! can meet, its `to_mp()` must be the value `MpFloat::exact_dot` computes
//! (`Debug`-identical once carried at the oracle's precision), and every
//! rounding the callers apply — `to_f64` and `F64x{2,3,4}::from_mp` — must
//! give the same bits from both.

use mf_core::{F64x2, F64x3, F64x4, MultiFloat};
use mf_mpsoft::{LongAccumulator, MpFloat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn p2(e: i32) -> f64 {
    // powi saturates outside the normal range; build subnormal powers in
    // two exact steps.
    if e < -1000 {
        2.0f64.powi(e + 600) * 2.0f64.powi(-600)
    } else {
        2.0f64.powi(e)
    }
}

fn accumulate(xs: &[f64], ys: &[f64]) -> LongAccumulator {
    let mut acc = LongAccumulator::new();
    for (&x, &y) in xs.iter().zip(ys) {
        acc.add_product(x, y);
    }
    acc
}

fn mf_bits<const N: usize>(v: MultiFloat<f64, N>) -> [u64; N] {
    v.components().map(f64::to_bits)
}

/// The accumulator against the oracle on one product list.
fn check(xs: &[f64], ys: &[f64], what: &str) {
    let oracle = MpFloat::exact_dot(xs, ys);
    let got = accumulate(xs, ys).to_mp();
    assert_eq!(
        format!("{:?}", got.round(oracle.precision())),
        format!("{oracle:?}"),
        "{what}: value differs from exact_dot"
    );
    assert_eq!(got.is_zero(), oracle.is_zero(), "{what}");
    assert_eq!(
        got.to_f64().to_bits(),
        oracle.to_f64().to_bits(),
        "{what}: to_f64"
    );
    assert_eq!(
        mf_bits(F64x2::from_mp(&got)),
        mf_bits(F64x2::from_mp(&oracle)),
        "{what}: F64x2::from_mp"
    );
    assert_eq!(
        mf_bits(F64x3::from_mp(&got)),
        mf_bits(F64x3::from_mp(&oracle)),
        "{what}: F64x3::from_mp"
    );
    assert_eq!(
        mf_bits(F64x4::from_mp(&got)),
        mf_bits(F64x4::from_mp(&oracle)),
        "{what}: F64x4::from_mp"
    );
}

#[test]
fn products_past_f64_range_cancel_back() {
    let (a, b) = (p2(600), p2(500));
    // 2^1100 + 2^1100 - 2^1101 + 1.5 = 1.5, through a 2^1101 peak.
    check(&[a, a, -2.0 * a, 1.5], &[b, b, b, 1.0], "peak 2^1101");
    // Cancels to a value with a tail far below the peak's lsb.
    check(
        &[a, 3.0, -a, p2(-900)],
        &[b, p2(-1), b, p2(-100)],
        "tail under the peak",
    );
    // Does not cancel: the sum overflows every format.
    check(&[a, a], &[b, 3.0 * b], "overflow");
}

#[test]
fn f64_max_squared() {
    let m = f64::MAX;
    check(&[m], &[m], "MAX^2");
    check(&[m, -m], &[m, -m], "-MAX^2 twice");
    check(&[m, m, -m, 1.0], &[m, m, m, p2(-1074)], "MAX^2 cancelled");
    check(&[m; 64], &[m; 64], "64 MAX^2");
}

#[test]
fn subnormal_products_reach_the_register_lsb() {
    let tiny = f64::from_bits(1); // 2^-1074
    check(&[tiny], &[tiny], "2^-2148");
    check(&[tiny, -tiny], &[tiny, tiny], "2^-2148 cancelled");
    let s1 = f64::from_bits(0x000f_ffff_ffff_ffff);
    let s2 = f64::from_bits(0x0000_0000_0000_0003);
    check(&[s1, s2, s1], &[s2, s1, -tiny], "mixed subnormals");
    check(&[tiny, 1.0], &[tiny, 1.0], "1 + 2^-2148");
    // The satellite value 2^-1075 + 2^-1130 built from products.
    check(
        &[p2(-600), p2(-565)],
        &[p2(-475), p2(-565)],
        "2^-1075 + 2^-1130",
    );
}

#[test]
fn signed_zeros_and_exact_cancellation() {
    check(&[], &[], "empty");
    check(&[0.0, -0.0, -0.0], &[5.0, 3.0, -0.0], "zero operands");
    check(&[3.0, -3.0], &[2.0, 2.0], "exact cancellation");
    check(
        &[-0.0, 1.5, 1.5],
        &[7.0, -4.0, 4.0],
        "cancellation after -0",
    );
    for (xs, ys) in [
        (vec![-0.0], vec![1.0]),
        (vec![-3.0, 3.0], vec![2.0, 2.0]),
        (vec![f64::MAX, f64::MAX], vec![f64::MAX, -f64::MAX]),
    ] {
        let z = accumulate(&xs, &ys).to_mp();
        assert!(z.is_zero() && !z.is_negative(), "{xs:?}·{ys:?}");
        assert_eq!(z.to_f64().to_bits(), 0.0f64.to_bits());
        assert_eq!(mf_bits(F64x2::from_mp(&z)), [0, 0]);
    }
}

#[test]
fn borrow_and_carry_ripple_across_every_limb() {
    let tiny = f64::from_bits(1);
    let h = p2(1023);
    // +2^2047, then -2^-2148 borrows through every limb below the top, then
    // +2^-2148 carries back up.
    let xs = [h, h, -tiny, tiny];
    let ys = [h, h, tiny, tiny];
    for k in 1..=xs.len() {
        check(&xs[..k], &ys[..k], &format!("ripple prefix {k}"));
    }
    // The same from the negative side.
    let xs = [-h, -h, tiny, -tiny];
    for k in 1..=xs.len() {
        check(&xs[..k], &ys[..k], &format!("negative ripple prefix {k}"));
    }
}

#[test]
fn long_same_sign_runs_carry_across_limbs() {
    // (2^53 - 1)^2 at offsets whose 106-bit product straddles a limb
    // boundary; thousands of them push carries up through several limbs.
    let m = p2(53) - 1.0;
    for e in [-1074, -1020, -64, -53, 0, 11, 500, 918] {
        let x = m * p2(e);
        let n = 3000;
        check(&vec![x; n], &vec![m; n], &format!("run at 2^{e}"));
        check(&vec![-x; n], &vec![m; n], &format!("negative run at 2^{e}"));
    }
}

fn rand_f64(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..20) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)), // subnormal
        3 => f64::MAX,
        _ => {
            let m: u64 = rng.gen::<u64>() >> 11;
            let e = rng.gen_range(-1022..1024);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            sign * (1.0 + (m as f64) * p2(-53)) * p2(e - 1) * 2.0
        }
    }
}

#[test]
fn random_exponents_over_the_full_range() {
    let mut rng = SmallRng::seed_from_u64(0x10_4AC);
    for case in 0..1500 {
        let n = rng.gen_range(1..40);
        let mut xs: Vec<f64> = (0..n).map(|_| rand_f64(&mut rng)).collect();
        let mut ys: Vec<f64> = (0..n).map(|_| rand_f64(&mut rng)).collect();
        // Narrow the exponent spread on some cases so cancellation and
        // rounding-boundary values are common, not just huge spans.
        if case % 3 == 0 {
            let s = p2(rng.gen_range(-600..600));
            for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
                *x = (*x % 8.0) * s;
                *y %= 8.0;
            }
        }
        // Cancelling pairs.
        if case % 2 == 0 {
            for i in 0..n / 2 {
                xs.push(-xs[i]);
                ys.push(ys[i]);
            }
        }
        check(&xs, &ys, &format!("random case {case}"));
    }
}

#[test]
#[should_panic(expected = "add_product")]
fn infinite_operand_panics() {
    LongAccumulator::new().add_product(f64::INFINITY, 1.0);
}

#[test]
#[should_panic(expected = "add_product")]
fn nan_operand_panics() {
    LongAccumulator::new().add_product(2.0, f64::NAN);
}
