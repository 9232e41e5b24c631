//! Differential accuracy tests: every public arithmetic operation of every
//! extended-precision type in the workspace, checked against the exact
//! limb-based oracle on shared random inputs.

use multifloats::baselines::campary::Expansion;
use multifloats::baselines::dd::DoubleDouble;
use multifloats::baselines::qd::QuadDouble;
use multifloats::{F32x2, F64x2, F64x3, F64x4, MpFloat, MultiFloat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rand_pair(rng: &mut SmallRng) -> (f64, f64) {
    let e1 = rng.gen_range(-20..20);
    let e2 = rng.gen_range(-20..20);
    (
        rng.gen_range(-1.0..1.0) * 2.0f64.powi(e1),
        rng.gen_range(-1.0..1.0) * 2.0f64.powi(e2),
    )
}

/// Exact result of a chained computation (a + b) * a - b in the oracle.
fn oracle_chain(a: f64, b: f64) -> MpFloat {
    let prec = 600;
    let ma = MpFloat::from_f64(a, prec);
    let mb = MpFloat::from_f64(b, prec);
    ma.add(&mb, prec).mul(&ma, prec).sub(&mb, prec)
}

#[test]
fn chained_ops_all_types() {
    let mut rng = SmallRng::seed_from_u64(1000);
    for _ in 0..5_000 {
        let (a, b) = rand_pair(&mut rng);
        let exact = oracle_chain(a, b);
        if exact.is_zero() {
            continue;
        }

        macro_rules! check {
            ($compute:expr, $conv:expr, $bound:expr, $label:expr) => {{
                let got = $compute;
                let got_mp = $conv(got);
                let err = got_mp.rel_error_vs(&exact);
                assert!(
                    err <= 2.0f64.powi($bound),
                    "{}: err 2^{:.1} for a={a:e} b={b:e}",
                    $label,
                    err.log2()
                );
            }};
        }

        check!(
            (F64x2::from(a) + F64x2::from(b)) * F64x2::from(a) - F64x2::from(b),
            |x: F64x2| x.to_mp(400),
            -100,
            "F64x2"
        );
        check!(
            (F64x3::from(a) + F64x3::from(b)) * F64x3::from(a) - F64x3::from(b),
            |x: F64x3| x.to_mp(400),
            -152,
            "F64x3"
        );
        check!(
            (F64x4::from(a) + F64x4::from(b)) * F64x4::from(a) - F64x4::from(b),
            |x: F64x4| x.to_mp(400),
            -202,
            "F64x4"
        );
        check!(
            (DoubleDouble::from_f64(a) + DoubleDouble::from_f64(b)) * DoubleDouble::from_f64(a)
                - DoubleDouble::from_f64(b),
            |x: DoubleDouble| MpFloat::exact_sum(&[x.hi, x.lo]),
            -98,
            "DoubleDouble"
        );
        check!(
            (QuadDouble::from_f64(a) + QuadDouble::from_f64(b)) * QuadDouble::from_f64(a)
                - QuadDouble::from_f64(b),
            |x: QuadDouble| MpFloat::exact_sum(&x.0),
            -185,
            "QuadDouble"
        );
        check!(
            (Expansion::<3>::from_f64(a) + Expansion::<3>::from_f64(b))
                * Expansion::<3>::from_f64(a)
                - Expansion::<3>::from_f64(b),
            |x: Expansion<3>| MpFloat::exact_sum(&x.0),
            -150,
            "Campary3"
        );
    }
}

#[test]
fn f32_base_accuracy() {
    // The GPU-substitution type: MultiFloat<f32, 2> must carry ~2*24 bits.
    let mut rng = SmallRng::seed_from_u64(1001);
    for _ in 0..5_000 {
        let a = rng.gen_range(-100.0..100.0f64);
        let b = rng.gen_range(-100.0..100.0f64);
        if b == 0.0 {
            continue;
        }
        let exact = oracle_chain(a as f32 as f64, b as f32 as f64);
        if exact.is_zero() {
            continue;
        }
        let x = F32x2::from(a as f32);
        let y = F32x2::from(b as f32);
        let got = ((x + y) * x - y).to_mp(200);
        let err = got.rel_error_vs(&exact);
        assert!(
            err <= 2.0f64.powi(-42),
            "err 2^{:.1} a={a} b={b}",
            err.log2()
        );
    }
}

/// A random `MultiFloat<f32, N>`: a head within `2^±20`, each tail a random
/// fraction of a term 25 binades below the one above, renormalized.
fn rand_f32<const N: usize>(rng: &mut SmallRng) -> MultiFloat<f32, N> {
    let mut c = [0.0f32; N];
    let mut e = rng.gen_range(-20..20);
    for v in &mut c {
        *v = rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(e);
        e -= 25;
    }
    MultiFloat::from_components_renorm(c)
}

/// `div`, `recip`, `sqrt` and `rsqrt` of `MultiFloat<f32, N>` against the
/// oracle, within `N·24 − slack` bits: the f64 tests' slack (`div*_accuracy`
/// and `sqrt*_accuracy` in mf-core) carried over to the f32 base.
fn check_f32_newton<const N: usize>(seed: u64, div_slack: i32, sqrt_slack: i32) {
    let prec = 600;
    let bits = 24 * N as i32;
    let exact = |x: MultiFloat<f32, N>| MpFloat::exact_sum(&x.components().map(f64::from));
    let one = MpFloat::from_f64(1.0, 53);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut worst = [f64::MIN; 4];
    for _ in 0..3_000 {
        let (b, a) = (rand_f32::<N>(&mut rng), rand_f32::<N>(&mut rng));
        let (mb, ma) = (exact(b), exact(a));
        if ma.is_zero() || mb.is_zero() {
            continue;
        }
        let root = ma.abs().sqrt(prec);
        for (i, (op, got, want, slack)) in [
            ("div", b / a, mb.div(&ma, prec), div_slack),
            ("recip", a.recip(), one.div(&ma, prec), div_slack),
            ("sqrt", a.abs().sqrt(), root.clone(), sqrt_slack),
            ("rsqrt", a.abs().rsqrt(), one.div(&root, prec), sqrt_slack),
        ]
        .into_iter()
        .enumerate()
        {
            let err = exact(got).rel_error_vs(&want);
            worst[i] = worst[i].max(err.log2());
            assert!(
                err <= 2.0f64.powi(slack - bits),
                "F32x{N} {op}: err 2^{:.1} for b={b:?} a={a:?}",
                err.log2()
            );
        }
    }
    eprintln!("F32x{N} worst log2 rel error (div, recip, sqrt, rsqrt): {worst:.2?}");
}

#[test]
fn f32_wide_newton_ops_accuracy() {
    // Slack 7 / 5 at N = 3 and 9 / 7 at N = 4, as f64's 2^-152 / 2^-154
    // and 2^-203 / 2^-205 bounds for division / square root.
    check_f32_newton::<3>(1003, 7, 5);
    check_f32_newton::<4>(1004, 9, 7);
}

#[test]
fn division_and_sqrt_cross_type_agreement() {
    // All libraries compute the same quotients/roots to their precision.
    let mut rng = SmallRng::seed_from_u64(1002);
    for _ in 0..2_000 {
        let (a, b) = rand_pair(&mut rng);
        if b == 0.0 || a == 0.0 {
            continue;
        }
        let prec = 600;
        let exact_div = MpFloat::from_f64(a, prec).div(&MpFloat::from_f64(b, prec), prec);
        let mf = (F64x4::from(a) / F64x4::from(b)).to_mp(400);
        assert!(
            mf.rel_error_vs(&exact_div) <= 2.0f64.powi(-200),
            "a={a:e} b={b:e}"
        );
        let qd = QuadDouble::from_f64(a) / QuadDouble::from_f64(b);
        assert!(
            MpFloat::exact_sum(&qd.0).rel_error_vs(&exact_div) <= 2.0f64.powi(-180),
            "a={a:e} b={b:e}"
        );

        let aa = a.abs();
        let exact_sqrt = MpFloat::from_f64(aa, prec).sqrt(prec);
        let mf = F64x4::from(aa).sqrt().to_mp(400);
        assert!(mf.rel_error_vs(&exact_sqrt) <= 2.0f64.powi(-200), "a={a:e}");
    }
}

#[test]
fn string_io_round_trips_through_all_widths() {
    let mut rng = SmallRng::seed_from_u64(1003);
    for _ in 0..300 {
        let v = rng.gen_range(1.0e-10..1.0e10);
        let x4 = F64x4::from(v).sqrt().to_decimal_string(70);
        let back: F64x4 = x4.parse().unwrap();
        let again = back.to_decimal_string(70);
        assert_eq!(x4, again, "decimal fixed point failed for {v}");
    }
}

#[test]
fn softfloat_and_multifloat_compose() {
    // MultiFloat over SoftFloat<24> equals MultiFloat over f32 bit for bit
    // (both are RNE binary24 arithmetic).
    use multifloats::MultiFloat;
    use multifloats::SoftFloat;
    let mut rng = SmallRng::seed_from_u64(1004);
    for _ in 0..3_000 {
        let a = (rng.gen_range(-100.0..100.0f64) as f32) as f64;
        let b = (rng.gen_range(-100.0..100.0f64) as f32) as f64;
        let xf: MultiFloat<f32, 2> = MultiFloat::from(a) * MultiFloat::from(b);
        let xs: MultiFloat<SoftFloat<24>, 2> = MultiFloat::from_scalar(SoftFloat::from_f64(a))
            .mul(MultiFloat::from_scalar(SoftFloat::from_f64(b)));
        let cf = xf.components();
        let cs = xs.components();
        for k in 0..2 {
            assert_eq!(
                cf[k] as f64,
                cs[k].to_f64(),
                "component {k} differs for a={a} b={b}"
            );
        }
    }
}
